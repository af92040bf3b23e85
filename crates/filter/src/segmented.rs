//! Serial per-section seed selection (the CORAL strategy, faithfully).
//!
//! CORAL "examines k-mers serially" (§I): the read is cut into δ+1 fixed
//! sections and, one section at a time, a k-mer inside the section grows
//! until its occurrence count drops under a threshold or the section is
//! exhausted. Because a seed can never cross its section boundary, the
//! heuristic cannot concentrate a repeat-covered stretch of the read into
//! one long seed the way the DP filtration can — several sections end up
//! paying the repeat's full candidate count. The gap widens as δ grows
//! (sections shrink, growth room vanishes), which is exactly where the
//! paper's Tables I/II show REPUTE pulling away from CORAL.
//!
//! Sensitivity is unaffected: each seed lies inside its section, so the
//! pigeonhole guarantee (one section is error-free) still applies.

use repute_index::FmIndex;

use crate::pigeonhole::uniform_partition;
use crate::seed::{search_start, Seed, SeedSelection, SelectionStats};

/// The serial per-section selector.
///
/// # Example
///
/// ```
/// use repute_genome::synth::ReferenceBuilder;
/// use repute_index::FmIndex;
/// use repute_filter::segmented::SegmentedSelector;
///
/// let reference = ReferenceBuilder::new(20_000).seed(2).build();
/// let fm = FmIndex::build(&reference);
/// let read = reference.subseq(40..140).to_codes();
/// let (selection, _) = SegmentedSelector::new(5, 12).select(&read, &fm);
/// assert_eq!(selection.seeds.len(), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentedSelector {
    delta: u32,
    s_min: usize,
    threshold: u32,
}

impl SegmentedSelector {
    /// Default occurrence threshold at which a seed stops growing.
    pub const DEFAULT_THRESHOLD: u32 = 32;

    /// Creates a selector for `delta` errors with minimum seed length
    /// `s_min`.
    ///
    /// # Panics
    ///
    /// Panics if `s_min == 0`.
    pub fn new(delta: u32, s_min: usize) -> SegmentedSelector {
        assert!(s_min > 0, "minimum seed length must be positive");
        SegmentedSelector {
            delta,
            s_min,
            threshold: Self::DEFAULT_THRESHOLD,
        }
    }

    /// Sets the occurrence threshold at which a seed stops growing.
    pub fn threshold(mut self, threshold: u32) -> SegmentedSelector {
        self.threshold = threshold;
        self
    }

    /// Selects one seed per section of `read`.
    ///
    /// Seeds are anchored at their section's right edge and grow leftward
    /// (one k-mer table lookup, then each step a cheap FM left-extension),
    /// never beyond the section. A seed that does not occur is reported
    /// as far as its search went before the interval emptied.
    ///
    /// # Panics
    ///
    /// Panics if the read cannot host δ+1 sections of `s_min` bases.
    pub fn select(&self, read: &[u8], fm: &FmIndex) -> (SeedSelection, SelectionStats) {
        let parts = self.delta as usize + 1;
        let n = read.len();
        assert!(
            n >= parts * self.s_min,
            "read of length {n} cannot host {parts} sections of at least {}",
            self.s_min
        );
        let mut extend_ops = 0u64;
        let seeds = uniform_partition(n, parts)
            .into_iter()
            .map(|(section_start, section_len)| {
                let section_end = section_start + section_len;
                // Mandatory growth to s_min (section_len ≥ s_min holds by
                // the feasibility assertion), its first bases from the
                // k-mer table.
                let mandatory = &read[section_end - self.s_min..section_end];
                let (mut interval, covered) = search_start(fm, mandatory, &mut extend_ops);
                let mut d = section_end - covered;
                while d > section_end - self.s_min && !interval.is_empty() {
                    d -= 1;
                    interval = fm.extend_left(interval, read[d]);
                    extend_ops += 1;
                }
                // Serial growth, confined to the section.
                while interval.width() > self.threshold && d > section_start {
                    d -= 1;
                    interval = fm.extend_left(interval, read[d]);
                    extend_ops += 1;
                }
                let interval = (!interval.is_empty()).then_some(interval);
                Seed {
                    start: d,
                    len: section_end - d,
                    count: interval.map_or(0, |iv| iv.width()),
                    interval,
                    anchor: d,
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

impl crate::SeedSelector for SegmentedSelector {
    fn strategy_name(&self) -> &str {
        "segmented"
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
    use repute_genome::synth::{ReferenceBuilder, RepeatFamily};
    use repute_genome::DnaSeq;

    fn repeat_rich() -> (DnaSeq, FmIndex) {
        let reference = ReferenceBuilder::new(200_000)
            .seed(77)
            .repeat_families(vec![RepeatFamily {
                unit_len: 300,
                copies: 120,
                divergence: 0.015,
            }])
            .build();
        let fm = FmIndex::build(&reference);
        (reference, fm)
    }

    #[test]
    fn seeds_stay_inside_their_sections() {
        let (reference, fm) = repeat_rich();
        let read = reference.subseq(5000..5100).to_codes();
        let (selection, _) = SegmentedSelector::new(5, 12).select(&read, &fm);
        let sections = crate::pigeonhole::uniform_partition(100, 6);
        for (seed, (start, len)) in selection.seeds.iter().zip(sections) {
            assert!(seed.start >= start, "seed {seed:?} escapes its section");
            assert_eq!(
                seed.end(),
                start + len,
                "seed must anchor at the section end"
            );
            assert!(seed.len >= 12 || seed.count == 0);
        }
    }

    #[test]
    fn counts_match_fm() {
        let (reference, fm) = repeat_rich();
        let read = reference.subseq(9000..9150).to_codes();
        let (selection, stats) = SegmentedSelector::new(6, 15).select(&read, &fm);
        for seed in &selection.seeds {
            assert_eq!(seed.count, fm.count(&read[seed.start..seed.end()]));
        }
        assert!(stats.extend_ops > 0);
    }

    #[test]
    fn dp_beats_sectioned_heuristic_on_repeat_boundary_reads() {
        // The paper's core claim, on the reads where it materialises: a
        // read half inside a young repeat. The DP may merge the repeat
        // half into one seed; the sectioned heuristic cannot.
        let (reference, fm) = repeat_rich();
        let codes = reference.to_codes();
        let delta = 5u32;
        let s_min = 12usize;
        let params = OssParams::new(delta, s_min).unwrap();
        let selector = SegmentedSelector::new(delta, s_min);
        let mut dp_total = 0u64;
        let mut seg_total = 0u64;
        for off in (0..150_000).step_by(997) {
            let read = &codes[off..off + 100];
            let table = FreqTable::build(&fm, read, &params);
            dp_total += OssSolver::new(params)
                .select(read, &table)
                .selection
                .total_candidates();
            seg_total += selector.select(read, &fm).0.total_candidates();
        }
        assert!(
            dp_total < seg_total,
            "DP should produce fewer candidates: {dp_total} vs {seg_total}"
        );
    }

    #[test]
    #[should_panic(expected = "cannot host")]
    fn infeasible_read_rejected() {
        let (reference, fm) = repeat_rich();
        let read = reference.subseq(0..40).to_codes();
        let _ = SegmentedSelector::new(5, 12).select(&read, &fm);
    }
}
