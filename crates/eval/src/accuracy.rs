//! The paper's two accuracy methodologies.
//!
//! §III-A (homogeneous scenario): "all the mapping locations reported by
//! the gold standard per read is searched in the output of other mappers.
//! Along with the mapping locations the genome strand ... are, also,
//! matched." RazerS3 plays gold standard.
//!
//! §III-B (heterogeneous scenario, after the Rabema *any-best* scenario):
//! "we identify if all the reads mapped by the gold standard have been
//! reported by other mappers with at least one matching mapping location
//! and strand."
//!
//! Positions are matched with a tolerance of δ bases: mappers report
//! candidate diagonals, which indels can shift by up to the edit distance
//! (Rabema's interval-based matching absorbs the same slack).

use repute_genome::Strand;
use repute_mappers::Mapping;

/// Per-read outputs of the gold-standard mapper.
#[derive(Debug, Clone, Default)]
pub struct GoldStandard {
    per_read: Vec<Vec<Mapping>>,
}

impl GoldStandard {
    /// Wraps the gold mapper's per-read mapping lists (index = read id).
    pub fn new(per_read: Vec<Vec<Mapping>>) -> GoldStandard {
        GoldStandard { per_read }
    }

    /// Number of reads covered.
    pub fn len(&self) -> usize {
        self.per_read.len()
    }

    /// Returns `true` when the gold standard covers no reads.
    pub fn is_empty(&self) -> bool {
        self.per_read.is_empty()
    }

    /// The gold mappings of one read.
    ///
    /// # Panics
    ///
    /// Panics if `read` is out of range.
    pub fn mappings(&self, read: usize) -> &[Mapping] {
        &self.per_read[read]
    }
}

fn matches(gold: &Mapping, got: &Mapping, tolerance: u32) -> bool {
    gold.strand == got.strand && gold.position.abs_diff(got.position) <= tolerance
}

fn strand_best(mappings: &[Mapping], strand: Strand) -> Option<u32> {
    mappings
        .iter()
        .filter(|m| m.strand == strand)
        .map(|m| m.distance)
        .min()
}

/// §III-A accuracy: the percentage of gold-standard `(read, location,
/// strand)` triples found in `results`, matched within `tolerance` bases.
///
/// Returns 100.0 when the gold standard reports nothing at all.
///
/// # Panics
///
/// Panics if `results.len() != gold.len()`.
pub fn all_locations_accuracy(
    gold: &GoldStandard,
    results: &[Vec<Mapping>],
    tolerance: u32,
) -> f64 {
    assert_eq!(
        results.len(),
        gold.len(),
        "result set covers {} reads, gold standard {}",
        results.len(),
        gold.len()
    );
    let mut total = 0usize;
    let mut found = 0usize;
    for (gold_maps, got) in gold.per_read.iter().zip(results) {
        for g in gold_maps {
            total += 1;
            if got.iter().any(|m| matches(g, m, tolerance)) {
                found += 1;
            }
        }
    }
    if total == 0 {
        100.0
    } else {
        found as f64 * 100.0 / total as f64
    }
}

/// §III-B accuracy (Rabema *any-best*): the percentage of gold-mapped
/// reads for which `results` reports at least one location matching a
/// gold location of the read's best stratum, within `tolerance` bases.
///
/// Returns 100.0 when the gold standard maps no read.
///
/// # Panics
///
/// Panics if `results.len() != gold.len()`.
pub fn any_best_accuracy(gold: &GoldStandard, results: &[Vec<Mapping>], tolerance: u32) -> f64 {
    assert_eq!(
        results.len(),
        gold.len(),
        "result set covers {} reads, gold standard {}",
        results.len(),
        gold.len()
    );
    let mut mapped = 0usize;
    let mut hit = 0usize;
    for (gold_maps, got) in gold.per_read.iter().zip(results) {
        if gold_maps.is_empty() {
            continue;
        }
        mapped += 1;
        // Best stratum per strand (a read may map equally well on both).
        let best_f = strand_best(gold_maps, Strand::Forward);
        let best_r = strand_best(gold_maps, Strand::Reverse);
        let best = best_f.unwrap_or(u32::MAX).min(best_r.unwrap_or(u32::MAX));
        let any = gold_maps
            .iter()
            .filter(|g| g.distance == best)
            .any(|g| got.iter().any(|m| matches(g, m, tolerance)));
        if any {
            hit += 1;
        }
    }
    if mapped == 0 {
        100.0
    } else {
        hit as f64 * 100.0 / mapped as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(position: u32, strand: Strand, distance: u32) -> Mapping {
        Mapping {
            position,
            strand,
            distance,
        }
    }

    fn gold_two_reads() -> GoldStandard {
        GoldStandard::new(vec![
            vec![
                m(100, Strand::Forward, 0),
                m(500, Strand::Forward, 2),
                m(900, Strand::Reverse, 1),
            ],
            vec![m(42, Strand::Reverse, 0)],
        ])
    }

    #[test]
    fn all_locations_full_match() {
        let gold = gold_two_reads();
        let results = vec![gold.mappings(0).to_vec(), gold.mappings(1).to_vec()];
        assert_eq!(all_locations_accuracy(&gold, &results, 0), 100.0);
    }

    #[test]
    fn all_locations_counts_each_missing_location() {
        let gold = gold_two_reads();
        let results = vec![vec![m(100, Strand::Forward, 0)], vec![]];
        // 1 of 4 gold locations found.
        assert!((all_locations_accuracy(&gold, &results, 0) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn strand_must_match() {
        let gold = GoldStandard::new(vec![vec![m(10, Strand::Forward, 0)]]);
        let wrong = vec![vec![m(10, Strand::Reverse, 0)]];
        assert_eq!(all_locations_accuracy(&gold, &wrong, 5), 0.0);
    }

    #[test]
    fn tolerance_absorbs_indel_shift() {
        let gold = GoldStandard::new(vec![vec![m(10, Strand::Forward, 2)]]);
        let shifted = vec![vec![m(12, Strand::Forward, 2)]];
        assert_eq!(all_locations_accuracy(&gold, &shifted, 2), 100.0);
        assert_eq!(all_locations_accuracy(&gold, &shifted, 1), 0.0);
    }

    #[test]
    fn any_best_requires_only_one_best_location() {
        let gold = gold_two_reads();
        // Read 0's best stratum is distance 0 at position 100.
        let results = vec![
            vec![m(101, Strand::Forward, 0)],
            vec![m(42, Strand::Reverse, 0)],
        ];
        assert_eq!(any_best_accuracy(&gold, &results, 2), 100.0);
        // Matching only a suboptimal location does not count.
        let sub = vec![vec![m(500, Strand::Forward, 2)], vec![]];
        assert_eq!(any_best_accuracy(&gold, &sub, 2), 0.0);
    }

    #[test]
    fn unmapped_gold_reads_are_excluded() {
        let gold = GoldStandard::new(vec![vec![], vec![m(5, Strand::Forward, 0)]]);
        let results = vec![vec![], vec![m(5, Strand::Forward, 0)]];
        assert_eq!(any_best_accuracy(&gold, &results, 0), 100.0);
    }

    #[test]
    fn empty_gold_standard_is_vacuously_perfect() {
        let gold = GoldStandard::new(vec![vec![], vec![]]);
        let results = vec![vec![], vec![]];
        assert_eq!(all_locations_accuracy(&gold, &results, 0), 100.0);
        assert_eq!(any_best_accuracy(&gold, &results, 0), 100.0);
    }

    #[test]
    #[should_panic(expected = "result set covers")]
    fn mismatched_lengths_rejected() {
        let gold = gold_two_reads();
        let _ = all_locations_accuracy(&gold, &[], 0);
    }

    #[test]
    fn best_mapper_scores_low_on_all_locations_but_high_on_any_best() {
        // The Yara/GEM/BWA-MEM pattern from Tables I vs II.
        let gold = GoldStandard::new(vec![vec![
            m(100, Strand::Forward, 0),
            m(300, Strand::Forward, 3),
            m(700, Strand::Forward, 4),
            m(950, Strand::Forward, 5),
        ]]);
        let best_only = vec![vec![m(100, Strand::Forward, 0)]];
        assert!((all_locations_accuracy(&gold, &best_only, 0) - 25.0).abs() < 1e-9);
        assert_eq!(any_best_accuracy(&gold, &best_only, 0), 100.0);
    }
}
