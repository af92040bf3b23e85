//! The pigeonhole principle and uniform seed partitions.
//!
//! "δ errors cannot occur in more than δ sections of the read. Therefore,
//! dividing a read in δ+1 sections will leave a section error free" (§II-B,
//! citing RazerS3). Every filtration strategy in this crate rests on this
//! guarantee; the uniform partition here is the strategy-free baseline —
//! and the starting point of the paper's Fig. 1 demonstration.

use repute_index::FmIndex;

use crate::seed::{search_start, Seed, SeedSelection, SelectionStats};

/// Splits `read_len` into `parts` contiguous near-equal ranges.
///
/// The first `read_len % parts` ranges get one extra base, so lengths
/// differ by at most one.
///
/// # Panics
///
/// Panics if `parts == 0` or `parts > read_len`.
///
/// # Example
///
/// ```
/// use repute_filter::pigeonhole::uniform_partition;
///
/// assert_eq!(uniform_partition(10, 3), vec![(0, 4), (4, 3), (7, 3)]);
/// ```
pub fn uniform_partition(read_len: usize, parts: usize) -> Vec<(usize, usize)> {
    assert!(parts > 0, "parts must be positive");
    assert!(
        parts <= read_len,
        "cannot split {read_len} bases into {parts} parts"
    );
    let base = read_len / parts;
    let extra = read_len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push((start, len));
        start += len;
    }
    out
}

/// The uniform (equal-length) seed selector.
///
/// Counts each of the δ+1 equal k-mers with one FM backward search
/// (started at the index's k-mer table). This
/// is what a pigeonhole mapper does with no seed-selection smarts; the DP
/// and heuristic selectors are measured against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformSelector {
    delta: u32,
}

impl UniformSelector {
    /// Creates a selector for `delta` errors (δ+1 seeds).
    pub fn new(delta: u32) -> UniformSelector {
        UniformSelector { delta }
    }

    /// The error budget δ.
    pub fn delta(&self) -> u32 {
        self.delta
    }

    /// Partitions `read` uniformly and counts every seed.
    ///
    /// Returns the selection and the FM work spent.
    ///
    /// # Panics
    ///
    /// Panics if the read has fewer bases than δ+1.
    pub fn select(&self, read: &[u8], fm: &FmIndex) -> (SeedSelection, SelectionStats) {
        let parts = self.delta as usize + 1;
        let ranges = uniform_partition(read.len(), parts);
        let mut extend_ops = 0u64;
        let seeds = ranges
            .into_iter()
            .map(|(start, len)| {
                let seed = &read[start..start + len];
                let (mut interval, covered) = search_start(fm, seed, &mut extend_ops);
                for &c in seed[..len - covered].iter().rev() {
                    if interval.is_empty() {
                        break;
                    }
                    interval = fm.extend_left(interval, c);
                    extend_ops += 1;
                }
                let interval = (!interval.is_empty()).then_some(interval);
                Seed {
                    start,
                    len,
                    count: interval.map_or(0, |iv| iv.width()),
                    interval,
                    anchor: start,
                }
            })
            .collect();
        (
            SeedSelection { seeds },
            SelectionStats {
                extend_ops,
                dp_cells: 0,
                peak_bytes: parts * std::mem::size_of::<Seed>(),
            },
        )
    }
}

impl crate::SeedSelector for UniformSelector {
    fn strategy_name(&self) -> &str {
        "uniform"
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
    use repute_genome::synth::ReferenceBuilder;

    #[test]
    fn partition_lengths_differ_by_at_most_one() {
        for (n, parts) in [(100usize, 6usize), (150, 8), (10, 10), (7, 3)] {
            let ranges = uniform_partition(n, parts);
            assert_eq!(ranges.len(), parts);
            let min = ranges.iter().map(|&(_, l)| l).min().unwrap();
            let max = ranges.iter().map(|&(_, l)| l).max().unwrap();
            assert!(max - min <= 1, "n={n} parts={parts}");
            assert_eq!(ranges.iter().map(|&(_, l)| l).sum::<usize>(), n);
            // Contiguity.
            let mut cursor = 0;
            for &(start, len) in &ranges {
                assert_eq!(start, cursor);
                cursor += len;
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_parts_rejected() {
        let _ = uniform_partition(10, 0);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn too_many_parts_rejected() {
        let _ = uniform_partition(3, 4);
    }

    #[test]
    fn uniform_selector_counts_match_fm() {
        let reference = ReferenceBuilder::new(20_000).seed(17).build();
        let fm = repute_index::FmIndex::build(&reference);
        let read = reference.subseq(300..400).to_codes();
        let selector = UniformSelector::new(5);
        let (selection, stats) = selector.select(&read, &fm);
        assert_eq!(selection.seeds.len(), 6);
        assert!(selection.is_valid_partition(100, 16));
        for seed in &selection.seeds {
            assert_eq!(
                seed.count,
                fm.count(&read[seed.start..seed.end()]),
                "seed {seed:?}"
            );
            // The read came from the reference, so every seed occurs.
            assert!(seed.count >= 1);
        }
        assert!(stats.extend_ops > 0);
        assert_eq!(selector.delta(), 5);
    }
}
