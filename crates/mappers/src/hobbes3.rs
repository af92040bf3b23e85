//! Hobbes3-style mapper: optimally-placed q-gram signatures.
//!
//! Hobbes3 "dynamically generat\[es\] variable-length signatures" from a
//! hash index (§II-B groups it with RazerS3 as hashing-based). The
//! strategy reproduced here: look up the occurrence count of *every*
//! q-gram of the read in one pass over the hash index, then choose the
//! δ+1 non-overlapping q-grams with the minimal total count by a small
//! dynamic program — globally optimal placement of fixed-length seeds, in
//! contrast to REPUTE's globally optimal *variable-length* partition.

use std::sync::Arc;

use repute_genome::DnaSeq;
use repute_obs::MapMetrics;

use crate::common::{IndexedReference, MapOutput, Mapper};
use crate::engine::{map_read_with, Report, DP_CELL_COST};

/// The Hobbes3-style all-mapper.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use repute_genome::synth::ReferenceBuilder;
/// use repute_mappers::{hobbes3::Hobbes3Like, IndexedReference, Mapper};
///
/// let reference = ReferenceBuilder::new(20_000).seed(5).build();
/// let read = reference.subseq(700..800);
/// let indexed = Arc::new(IndexedReference::build(reference));
/// let mapper = Hobbes3Like::new(indexed, 4);
/// assert!(mapper.map_read(&read).mappings.iter().any(|m| m.position == 700));
/// ```
#[derive(Debug, Clone)]
pub struct Hobbes3Like {
    indexed: Arc<IndexedReference>,
    delta: u32,
    max_locations: usize,
}

impl Hobbes3Like {
    /// Creates the mapper with the paper's limit of 1000 locations per
    /// read.
    pub fn new(indexed: Arc<IndexedReference>, delta: u32) -> Hobbes3Like {
        // The one reader of the q-gram hash index: built here, at
        // set-up, not under the first read.
        indexed.qgram();
        Hobbes3Like {
            indexed,
            delta,
            max_locations: 1000,
        }
    }

    /// Overrides the per-read location limit.
    ///
    /// # Panics
    ///
    /// Panics if `limit == 0`.
    pub fn with_max_locations(mut self, limit: usize) -> Hobbes3Like {
        assert!(limit > 0, "location limit must be positive");
        self.max_locations = limit;
        self
    }

    /// The error budget δ.
    pub fn delta(&self) -> u32 {
        self.delta
    }

    /// Chooses δ+1 non-overlapping q-gram start positions minimising the
    /// total occurrence count. Returns `(positions, dp_cells)`.
    fn choose_signatures(&self, counts: &[u32]) -> (Vec<usize>, u64) {
        let q = self.indexed.qgram().q();
        let parts = self.delta as usize + 1;
        let n_pos = counts.len();
        debug_assert!(n_pos > (parts - 1) * q, "read too short for signatures");
        const INF: u64 = u64::MAX / 4;
        // best[j] = minimal total using `t+1` signatures, last at position j.
        let mut best: Vec<u64> = counts.iter().map(|&c| u64::from(c)).collect();
        let mut choice: Vec<Vec<u32>> = vec![vec![0; n_pos]];
        let mut dp_cells = n_pos as u64;
        for _t in 1..parts {
            let mut next = vec![INF; n_pos];
            let mut pick = vec![0u32; n_pos];
            // prefix_min[j] = (value, argmin) of best[0..=j].
            let mut run_min = INF;
            let mut run_arg = 0u32;
            let mut prefix: Vec<(u64, u32)> = Vec::with_capacity(n_pos);
            for (j, &b) in best.iter().enumerate() {
                if b < run_min {
                    run_min = b;
                    run_arg = j as u32;
                }
                prefix.push((run_min, run_arg));
            }
            for j in q..n_pos {
                let (prev, arg) = prefix[j - q];
                if prev < INF {
                    next[j] = prev + u64::from(counts[j]);
                    pick[j] = arg;
                }
                dp_cells += 1;
            }
            choice.push(pick);
            best = next;
        }
        // Backtrack from the best final position.
        let (mut j, _) = best
            .iter()
            .enumerate()
            .min_by_key(|&(_, &v)| v)
            .expect("non-empty positions");
        let mut positions = vec![j];
        for t in (1..parts).rev() {
            j = choice[t][j] as usize;
            positions.push(j);
        }
        positions.reverse();
        (positions, dp_cells)
    }
}

impl Mapper for Hobbes3Like {
    fn name(&self) -> &str {
        "Hobbes3"
    }

    fn max_locations(&self) -> usize {
        self.max_locations
    }

    fn map_read_metered(&self, read: &DnaSeq, metrics: &mut MapMetrics) -> MapOutput {
        let qgram = self.indexed.qgram();
        let q = qgram.q();
        map_read_with(
            read,
            &self.indexed.verify_engine(self.delta),
            Report::FirstN,
            self.max_locations,
            metrics,
            |codes, set, _| {
                if codes.len() < (self.delta as usize + 1) * q {
                    return None; // read too short for this δ — report nothing
                }
                // One count lookup per read position (one hash-probe each).
                let counts: Vec<u32> = (0..=codes.len() - q)
                    .map(|i| qgram.count(&codes[i..i + q]))
                    .collect();
                let (positions, dp_cells) = self.choose_signatures(&counts);
                let mut work = counts.len() as u64 * 4 + dp_cells * DP_CELL_COST;
                for &pos in &positions {
                    let gram = &codes[pos..pos + q];
                    for &ref_pos in qgram.positions(gram) {
                        set.add(ref_pos, pos);
                    }
                    work += u64::from(qgram.count(gram)); // position-list scan
                }
                Some(work)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repute_genome::reads::{ErrorProfile, ReadSimulator};
    use repute_genome::synth::ReferenceBuilder;

    fn indexed() -> Arc<IndexedReference> {
        Arc::new(IndexedReference::build(
            ReferenceBuilder::new(50_000).seed(37).build(),
        ))
    }

    #[test]
    fn signatures_are_non_overlapping_and_optimal_for_flat_counts() {
        let indexed = indexed();
        let mapper = Hobbes3Like::new(indexed, 3);
        let counts = vec![5u32; 91]; // flat: any valid placement totals 20
        let (positions, _) = mapper.choose_signatures(&counts);
        assert_eq!(positions.len(), 4);
        for w in positions.windows(2) {
            assert!(w[1] >= w[0] + 10, "overlap in {positions:?}");
        }
    }

    #[test]
    fn signatures_prefer_rare_grams() {
        let indexed = indexed();
        let mapper = Hobbes3Like::new(indexed, 1);
        let mut counts = vec![100u32; 91];
        counts[7] = 1;
        counts[50] = 2;
        let (positions, _) = mapper.choose_signatures(&counts);
        assert_eq!(positions, vec![7, 50]);
    }

    #[test]
    fn maps_simulated_reads_with_errors() {
        let indexed = indexed();
        let mapper = Hobbes3Like::new(Arc::clone(&indexed), 5);
        let reads = ReadSimulator::new(100, 30)
            .profile(ErrorProfile::err012100())
            .seed(41)
            .simulate(indexed.seq());
        let mut found = 0usize;
        let mut eligible = 0usize;
        for read in &reads {
            let origin = read.origin.unwrap();
            if origin.edits > 5 {
                continue;
            }
            eligible += 1;
            let out = mapper.map_read(&read.seq);
            if out.mappings.iter().any(|m| {
                m.strand == origin.strand && (m.position as i64 - origin.position as i64).abs() <= 5
            }) {
                found += 1;
            }
        }
        assert_eq!(found, eligible, "hobbes3-like should be fully sensitive");
    }

    #[test]
    fn short_read_yields_empty_output() {
        let indexed = indexed();
        let mapper = Hobbes3Like::new(indexed, 7); // needs 80 bases of q-grams
        let read: DnaSeq = "ACGTACGTACGTACGT".parse().unwrap();
        let out = mapper.map_read(&read);
        assert!(out.mappings.is_empty());
    }

    #[test]
    fn name_and_limit() {
        let mapper = Hobbes3Like::new(indexed(), 3).with_max_locations(10);
        assert_eq!(mapper.name(), "Hobbes3");
        assert_eq!(mapper.max_locations(), 10);
        assert_eq!(mapper.delta(), 3);
    }
}
