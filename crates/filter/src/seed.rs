//! Seeds, seed selections and the selector trait.

use repute_index::{FmIndex, Interval};

/// One seed: a contiguous k-mer of the read together with its occurrence
/// statistics in the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seed {
    /// Start offset within the read.
    pub start: usize,
    /// Seed length (the `k` of the k-mer).
    pub len: usize,
    /// Number of candidate locations this seed contributes (an upper
    /// bound when the selector capped the seed's search depth).
    pub count: u32,
    /// FM-Index interval of the seed — or of its capped suffix — when the
    /// selector produced one (lets the verifier locate candidates without
    /// re-searching).
    pub interval: Option<Interval>,
    /// Read offset the interval's matches anchor at. Equals `start`
    /// unless the selector capped the seed, in which case the interval
    /// belongs to the suffix `read[anchor..end]`.
    pub anchor: usize,
}

impl Seed {
    /// End offset within the read (exclusive).
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// Starts the search for `pattern` at the index's k-mer table
/// ([`FmIndex::search_start`]), counting the lookup into `extend_ops` as
/// one extension. Returns the interval and the bases it covers.
pub(crate) fn search_start(
    fm: &FmIndex,
    pattern: &[u8],
    extend_ops: &mut u64,
) -> (Interval, usize) {
    let (interval, covered) = fm.search_start(pattern);
    *extend_ops += u64::from(covered > 0);
    (interval, covered)
}

/// Cost accounting for a selection call, in substrate operations.
///
/// These are the quantities the heterogeneous platform simulator converts
/// into device time, and the quantities the paper's memory optimisation
/// argument is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SelectionStats {
    /// FM-Index left-extension operations performed; a k-mer table
    /// lookup counts as one.
    pub extend_ops: u64,
    /// Dynamic-programming cells evaluated.
    pub dp_cells: u64,
    /// Peak bytes of working memory (DP tables, divider tables,
    /// frequency columns).
    pub peak_bytes: usize,
}

/// A complete seed selection for one read.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SeedSelection {
    /// The chosen seeds, in read order.
    pub seeds: Vec<Seed>,
}

impl SeedSelection {
    /// Total candidate locations across all seeds — the objective the
    /// filtration stage minimises (the sum the vertical dividers of the
    /// paper's Fig. 1 are chosen to minimise).
    pub fn total_candidates(&self) -> u64 {
        self.seeds.iter().map(|s| u64::from(s.count)).sum()
    }

    /// Checks that the seeds form a contiguous partition of a read of
    /// length `read_len` with every seed at least `min_len` long.
    pub fn is_valid_partition(&self, read_len: usize, min_len: usize) -> bool {
        if self.seeds.is_empty() {
            return false;
        }
        let mut cursor = 0usize;
        for seed in &self.seeds {
            if seed.start != cursor || seed.len < min_len {
                return false;
            }
            cursor = seed.end();
        }
        cursor == read_len
    }
}

/// A pluggable seed-selection strategy.
///
/// Unifies the crate's selectors behind one signature: the seeding step
/// `repute_mappers::select_and_locate` is generic over it, and REPUTE
/// ([`OssSolver`](crate::oss::OssSolver)), CORAL
/// ([`SegmentedSelector`](crate::segmented::SegmentedSelector)) and GEM
/// ([`GreedySelector`](crate::greedy::GreedySelector)) are that one
/// per-read pipeline instantiated with their selector. Strategies that
/// precompute a frequency table (the DP solvers) build it internally
/// here; its extensions are the `extend_ops` of the returned stats.
///
/// # Example
///
/// ```
/// use repute_genome::synth::ReferenceBuilder;
/// use repute_index::FmIndex;
/// use repute_filter::{SeedSelector, greedy::GreedySelector, pigeonhole::UniformSelector};
///
/// let reference = ReferenceBuilder::new(20_000).seed(6).build();
/// let fm = FmIndex::build(&reference);
/// let read = reference.subseq(100..200).to_codes();
/// let strategies: Vec<Box<dyn SeedSelector>> = vec![
///     Box::new(UniformSelector::new(5)),
///     Box::new(GreedySelector::new(5, 12)),
/// ];
/// for strategy in &strategies {
///     let (selection, _) = strategy.select_seeds(&read, &fm);
///     assert_eq!(selection.seeds.len(), 6);
/// }
/// ```
pub trait SeedSelector {
    /// Human-readable strategy name.
    fn strategy_name(&self) -> &str;

    /// Selects δ+1 seeds for `read` against the indexed reference.
    ///
    /// # Panics
    ///
    /// Implementations panic when the read cannot host the configured
    /// seed count (see each concrete type's documentation).
    fn select_seeds(&self, read: &[u8], fm: &FmIndex) -> (SeedSelection, SelectionStats);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed(start: usize, len: usize, count: u32) -> Seed {
        Seed {
            start,
            len,
            count,
            interval: None,
            anchor: start,
        }
    }

    #[test]
    fn total_candidates_sums_counts() {
        let sel = SeedSelection {
            seeds: vec![seed(0, 10, 5), seed(10, 10, 7)],
        };
        assert_eq!(sel.total_candidates(), 12);
    }

    #[test]
    fn partition_validity() {
        let good = SeedSelection {
            seeds: vec![seed(0, 10, 0), seed(10, 15, 0)],
        };
        assert!(good.is_valid_partition(25, 10));
        assert!(!good.is_valid_partition(25, 11)); // first seed too short
        assert!(!good.is_valid_partition(26, 10)); // does not cover

        let gap = SeedSelection {
            seeds: vec![seed(0, 10, 0), seed(11, 14, 0)],
        };
        assert!(!gap.is_valid_partition(25, 5));

        assert!(!SeedSelection::default().is_valid_partition(0, 0));
    }

    #[test]
    fn seed_end() {
        assert_eq!(seed(5, 7, 0).end(), 12);
    }
}
