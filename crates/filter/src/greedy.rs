//! Serial heuristic seed selection (the CORAL-style baseline).
//!
//! The paper contrasts its DP filtration with CORAL's heuristic: "CORAL
//! examines k-mers serially" with a variable-length k-mer selection
//! criterion, making locally greedy choices instead of examining the whole
//! read (§I). This selector reproduces that strategy: walking from the
//! read's right end, each seed starts at the index's k-mer table (one
//! lookup for the first bases of its mandatory `s_min`) and grows leftward
//! one base at a time — each step one cheap FM left-extension — until its
//! occurrence count drops to the target threshold or the space reserved
//! for the remaining seeds is reached.

use repute_index::FmIndex;

use crate::seed::{search_start, Seed, SeedSelection, SelectionStats};

/// The serial greedy selector.
///
/// # Example
///
/// ```
/// use repute_genome::synth::ReferenceBuilder;
/// use repute_index::FmIndex;
/// use repute_filter::greedy::GreedySelector;
///
/// let reference = ReferenceBuilder::new(20_000).seed(2).build();
/// let fm = FmIndex::build(&reference);
/// let read = reference.subseq(40..140).to_codes();
/// let (selection, _) = GreedySelector::new(5, 12).select(&read, &fm);
/// assert_eq!(selection.seeds.len(), 6);
/// assert!(selection.is_valid_partition(100, 12));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GreedySelector {
    delta: u32,
    s_min: usize,
    threshold: u32,
}

impl GreedySelector {
    /// Default occurrence threshold at which a seed stops growing.
    pub const DEFAULT_THRESHOLD: u32 = 4;

    /// Creates a selector for `delta` errors with minimum seed length
    /// `s_min` and the default frequency threshold.
    ///
    /// # Panics
    ///
    /// Panics if `s_min == 0`.
    pub fn new(delta: u32, s_min: usize) -> GreedySelector {
        assert!(s_min > 0, "minimum seed length must be positive");
        GreedySelector {
            delta,
            s_min,
            threshold: Self::DEFAULT_THRESHOLD,
        }
    }

    /// Sets the occurrence threshold at which a seed stops growing.
    pub fn threshold(mut self, threshold: u32) -> GreedySelector {
        self.threshold = threshold;
        self
    }

    /// Greedily partitions `read` into δ+1 seeds.
    ///
    /// # Panics
    ///
    /// Panics if the read cannot host δ+1 seeds of `s_min` bases.
    pub fn select(&self, read: &[u8], fm: &FmIndex) -> (SeedSelection, SelectionStats) {
        let parts = self.delta as usize + 1;
        let n = read.len();
        assert!(
            n >= parts * self.s_min,
            "read of length {n} cannot host {parts} seeds of at least {}",
            self.s_min
        );
        let mut extend_ops = 0u64;
        let mut seeds_rev: Vec<Seed> = Vec::with_capacity(parts);
        let mut end = n;
        for remaining in (0..parts).rev() {
            // `remaining` seeds still to place to the left of this one.
            let reserve = remaining * self.s_min;
            let start_limit = reserve; // seed may grow down to here
            let (start, interval) = if remaining == 0 {
                // Last (leftmost) seed absorbs the rest of the read.
                let (mut interval, covered) = search_start(fm, &read[..end], &mut extend_ops);
                let mut d = end - covered;
                while d > 0 && !interval.is_empty() {
                    d -= 1;
                    interval = fm.extend_left(interval, read[d]);
                    extend_ops += 1;
                }
                (0, interval)
            } else {
                // Mandatory growth to s_min.
                let (mut interval, covered) =
                    search_start(fm, &read[end - self.s_min..end], &mut extend_ops);
                let mut d = end - covered;
                while d > end - self.s_min {
                    d -= 1;
                    interval = fm.extend_left(interval, read[d]);
                    extend_ops += 1;
                }
                // Greedy growth: keep extending while the k-mer is still
                // too frequent and space remains for the seeds to come.
                while interval.width() > self.threshold && d > start_limit {
                    d -= 1;
                    interval = fm.extend_left(interval, read[d]);
                    extend_ops += 1;
                }
                (d, interval)
            };
            let interval = (!interval.is_empty()).then_some(interval);
            seeds_rev.push(Seed {
                start,
                len: end - start,
                count: interval.map_or(0, |iv| iv.width()),
                interval,
                anchor: start,
            });
            end = start;
        }
        seeds_rev.reverse();
        (
            SeedSelection { seeds: seeds_rev },
            SelectionStats {
                extend_ops,
                dp_cells: 0,
                peak_bytes: parts * std::mem::size_of::<Seed>(),
            },
        )
    }
}

impl crate::SeedSelector for GreedySelector {
    fn strategy_name(&self) -> &str {
        "greedy"
    }

    fn select_seeds(
        &self,
        read: &[u8],
        fm: &FmIndex,
    ) -> (crate::SeedSelection, crate::SelectionStats) {
        self.select(read, fm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::FreqTable;
    use crate::oss::{OssParams, OssSolver};
    use repute_genome::synth::ReferenceBuilder;
    use repute_genome::DnaSeq;

    fn setup() -> (DnaSeq, FmIndex) {
        let reference = ReferenceBuilder::new(60_000).seed(19).build();
        let fm = FmIndex::build(&reference);
        (reference, fm)
    }

    #[test]
    fn produces_valid_partitions() {
        let (reference, fm) = setup();
        for (read_len, delta, s_min) in [(100usize, 5u32, 12usize), (150, 7, 15)] {
            let read = reference.subseq(2000..2000 + read_len).to_codes();
            let (selection, stats) = GreedySelector::new(delta, s_min).select(&read, &fm);
            assert_eq!(selection.seeds.len(), delta as usize + 1);
            assert!(selection.is_valid_partition(read_len, s_min));
            assert!(stats.extend_ops > 0);
        }
    }

    #[test]
    fn counts_match_fm() {
        let (reference, fm) = setup();
        let read = reference.subseq(100..250).to_codes();
        let (selection, _) = GreedySelector::new(6, 15).select(&read, &fm);
        for seed in &selection.seeds {
            assert_eq!(seed.count, fm.count(&read[seed.start..seed.end()]));
        }
    }

    #[test]
    fn dp_never_loses_to_greedy() {
        // The motivating claim of the paper: global DP selection yields at
        // most as many candidates as the serial heuristic.
        let (reference, fm) = setup();
        let params = OssParams::new(5, 12).unwrap();
        for off in (0..30_000).step_by(2503) {
            let read = reference.subseq(off..off + 100).to_codes();
            let table = FreqTable::build(&fm, &read, &params);
            let dp = OssSolver::new(params).select(&read, &table);
            let (greedy, _) = GreedySelector::new(5, 12).select(&read, &fm);
            assert!(
                dp.selection.total_candidates() <= greedy.total_candidates(),
                "offset {off}: dp {} > greedy {}",
                dp.selection.total_candidates(),
                greedy.total_candidates()
            );
        }
    }

    #[test]
    fn threshold_influences_growth() {
        let (reference, fm) = setup();
        let read = reference.subseq(4000..4100).to_codes();
        let (tight, _) = GreedySelector::new(5, 12).threshold(0).select(&read, &fm);
        let (loose, _) = GreedySelector::new(5, 12)
            .threshold(1000)
            .select(&read, &fm);
        // A loose threshold stops at s_min immediately: all but the last
        // seed have exactly s_min bases.
        assert!(loose.seeds[1..].iter().all(|s| s.len == 12));
        // A tight threshold grows seeds further.
        let grown = tight.seeds[1..].iter().filter(|s| s.len > 12).count();
        assert!(grown > 0, "threshold 0 should grow some seeds");
    }

    #[test]
    #[should_panic(expected = "cannot host")]
    fn infeasible_read_rejected() {
        let (reference, fm) = setup();
        let read = reference.subseq(0..30).to_codes();
        let _ = GreedySelector::new(5, 12).select(&read, &fm);
    }
}
