//! A brute-force oracle mapper: ground truth, no index, no filtration.
//!
//! Runs the full semi-global DP across the *entire* reference for every
//! read and strand — O(reference × read) per read, thousands of times
//! slower than any real mapper, and exactly as sensitive as edit distance
//! allows. It exists for testing and benchmarking: every other mapper's
//! output must be a subset of (and, for the full-sensitivity mappers,
//! equal to) what this one reports. The differential test suite
//! (`tests/differential.rs`) is built on the same scan.

use std::sync::Arc;

use repute_genome::{DnaSeq, Strand};
use repute_obs::MapMetrics;

use crate::common::{IndexedReference, MapOutput, Mapper, Mapping};
use crate::engine::strand_codes;

/// The exhaustive-scan oracle mapper.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use repute_genome::synth::ReferenceBuilder;
/// use repute_mappers::{brute::BruteForceMapper, IndexedReference, Mapper};
///
/// let reference = ReferenceBuilder::new(5_000).seed(3).build();
/// let read = reference.subseq(1_000..1_060);
/// let indexed = Arc::new(IndexedReference::build(reference));
/// let oracle = BruteForceMapper::new(indexed, 2);
/// assert!(oracle
///     .map_read(&read)
///     .mappings
///     .iter()
///     .any(|m| m.position.abs_diff(1_000) <= 2 && m.distance == 0));
/// ```
#[derive(Debug, Clone)]
pub struct BruteForceMapper {
    indexed: Arc<IndexedReference>,
    delta: u32,
    max_locations: usize,
}

impl BruteForceMapper {
    /// Creates the oracle with an unbounded location limit.
    pub fn new(indexed: Arc<IndexedReference>, delta: u32) -> BruteForceMapper {
        BruteForceMapper {
            indexed,
            delta,
            max_locations: usize::MAX,
        }
    }

    /// Restricts the per-read location count (rarely wanted for an
    /// oracle).
    ///
    /// # Panics
    ///
    /// Panics if `limit == 0`.
    pub fn with_max_locations(mut self, limit: usize) -> BruteForceMapper {
        assert!(limit > 0, "location limit must be positive");
        self.max_locations = limit;
        self
    }

    /// The error budget δ.
    pub fn delta(&self) -> u32 {
        self.delta
    }

    /// Scans one strand, appending cluster-representative hits.
    fn scan(&self, codes: &[u8], strand: Strand, out: &mut Vec<Mapping>) -> u64 {
        let reference = self.indexed.codes();
        let m = codes.len();
        let mut prev: Vec<u32> = (0..=m as u32).collect();
        let mut cur = vec![0u32; m + 1];
        // Track the best (end, distance) within the current qualifying run.
        let mut run_best: Option<(usize, u32)> = None;
        // Output *hit clustering*, not candidate merging: qualifying DP
        // end columns within 2δ+2 of each other describe the same
        // alignment site (one site's end columns span ≤ 2δ, plus one
        // column of slack on each side), so they collapse into a single
        // reported hit. Distinct from `CandidateSet::merge_gap`, which
        // dedupes seed diagonals *before* verification.
        let cluster_gap = 2 * self.delta as usize + 2;
        let mut work = 0u64;
        for j in 1..=reference.len() {
            cur[0] = 0;
            for i in 1..=m {
                let sub = prev[i - 1] + u32::from(codes[i - 1] != reference[j - 1]);
                cur[i] = sub.min(prev[i] + 1).min(cur[i - 1] + 1);
            }
            work += m as u64 / 16 + 1; // charged per column, scaled like the word-parallel kernels
            let d = cur[m];
            if d <= self.delta {
                run_best = Some(match run_best {
                    Some((end, best)) if j - end <= cluster_gap => (j, best.min(d)),
                    Some((end, best)) => {
                        // Previous run closed: emit it.
                        out.push(Mapping {
                            position: (end.saturating_sub(m)) as u32,
                            strand,
                            distance: best,
                        });
                        let _ = (end, best);
                        (j, d)
                    }
                    None => (j, d),
                });
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        if let Some((end, best)) = run_best {
            out.push(Mapping {
                position: (end.saturating_sub(m)) as u32,
                strand,
                distance: best,
            });
        }
        work
    }
}

impl Mapper for BruteForceMapper {
    fn name(&self) -> &str {
        "BruteForce"
    }

    fn max_locations(&self) -> usize {
        self.max_locations
    }

    fn map_read_metered(&self, read: &DnaSeq, metrics: &mut MapMetrics) -> MapOutput {
        let mut out = MapOutput::default();
        for (strand, codes) in strand_codes(read) {
            out.work += self.scan(&codes, strand, &mut out.mappings);
        }
        out.candidates = out.mappings.len() as u64;
        out.mappings.truncate(self.max_locations);
        metrics.candidates_merged += out.candidates;
        metrics.hits += out.mappings.len() as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::razers3::Razers3Like;
    use repute_genome::reads::{ErrorProfile, ReadSimulator};
    use repute_genome::synth::ReferenceBuilder;

    fn indexed() -> Arc<IndexedReference> {
        Arc::new(IndexedReference::build(
            ReferenceBuilder::new(20_000).seed(977).build(),
        ))
    }

    #[test]
    fn finds_planted_reads_with_exact_distance() {
        let indexed = indexed();
        let oracle = BruteForceMapper::new(Arc::clone(&indexed), 3);
        let reads = ReadSimulator::new(80, 10)
            .profile(ErrorProfile::err012100())
            .seed(978)
            .simulate(indexed.seq());
        for read in &reads {
            let origin = read.origin.unwrap();
            if origin.edits > 3 {
                continue;
            }
            let out = oracle.map_read(&read.seq);
            let hit = out
                .mappings
                .iter()
                .find(|m| {
                    m.strand == origin.strand
                        && (m.position as i64 - origin.position as i64).abs() <= 8
                })
                .unwrap_or_else(|| panic!("oracle missed read {}", read.id));
            assert!(hit.distance <= origin.edits);
        }
    }

    #[test]
    fn full_sensitivity_mapper_is_a_subset_of_the_oracle() {
        let indexed = indexed();
        let delta = 3u32;
        let oracle = BruteForceMapper::new(Arc::clone(&indexed), delta);
        let razers = Razers3Like::new(Arc::clone(&indexed), delta).with_max_locations(100_000);
        let reads = ReadSimulator::new(80, 8).seed(979).simulate(indexed.seq());
        for read in &reads {
            let truth = oracle.map_read(&read.seq).mappings;
            for m in razers.map_read(&read.seq).mappings {
                assert!(
                    truth.iter().any(|t| {
                        t.strand == m.strand && t.position.abs_diff(m.position) <= 2 * delta + 2
                    }),
                    "razers hit {m:?} unknown to the oracle"
                );
            }
        }
    }

    #[test]
    fn respects_limit_and_reports_work() {
        let indexed = indexed();
        let oracle = BruteForceMapper::new(Arc::clone(&indexed), 2).with_max_locations(1);
        let read = indexed.seq().subseq(5_000..5_080);
        let out = oracle.map_read(&read);
        assert!(out.mappings.len() <= 1);
        assert!(out.work > 0);
        assert_eq!(oracle.name(), "BruteForce");
        assert_eq!(oracle.delta(), 2);
    }
}
