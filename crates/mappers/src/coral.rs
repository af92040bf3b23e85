//! CORAL-style mapper: serial heuristic k-mer selection.
//!
//! CORAL is REPUTE's direct predecessor — the first OpenCL standalone read
//! mapper \[8\] — and the paper's closest comparison point. Its filtration
//! "uses a heuristic based variable length k-mer selection criteria" and
//! "examines k-mers serially" (§I). This reproduction drives the shared
//! verification engine from the serial greedy selector of
//! [`repute_filter::greedy`]: each k-mer grows until its frequency drops
//! under a threshold, committed before the next k-mer is examined. The
//! locally-greedy choice yields more candidate locations than REPUTE's
//! global DP — increasingly so at high error counts and long reads, which
//! is exactly where Table I/II show REPUTE pulling ahead of CORAL.

use std::sync::Arc;

use repute_filter::segmented::SegmentedSelector;
use repute_genome::DnaSeq;
use repute_obs::MapMetrics;

use crate::common::{IndexedReference, MapOutput, Mapper};
use crate::engine::{map_read_with, select_and_locate, Report};

/// Cap on located occurrences per seed (pathological repeats only).
const PER_SEED_LOCATE_CAP: usize = 20_000;

/// The CORAL-style all-mapper.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use repute_genome::synth::ReferenceBuilder;
/// use repute_mappers::{coral::CoralLike, IndexedReference, Mapper};
///
/// let reference = ReferenceBuilder::new(20_000).seed(19).build();
/// let read = reference.subseq(800..900);
/// let indexed = Arc::new(IndexedReference::build(reference));
/// let mapper = CoralLike::new(indexed, 4);
/// assert!(mapper.map_read(&read).mappings.iter().any(|m| m.position == 800));
/// ```
#[derive(Debug, Clone)]
pub struct CoralLike {
    indexed: Arc<IndexedReference>,
    delta: u32,
    s_min: usize,
    max_locations: usize,
}

impl CoralLike {
    /// Frequency threshold of the serial heuristic. CORAL settles for the
    /// first k-mer whose count drops under the threshold — a coarse
    /// criterion (the paper's point: it examines k-mers serially, within
    /// fixed read sections, without the DP's global view).
    pub const DEFAULT_THRESHOLD: u32 = 32;

    /// Creates the mapper with the paper's limit of 1000 locations.
    pub fn new(indexed: Arc<IndexedReference>, delta: u32) -> CoralLike {
        CoralLike {
            indexed,
            delta,
            s_min: 12,
            max_locations: 1000,
        }
    }

    /// Overrides the per-read location limit.
    ///
    /// # Panics
    ///
    /// Panics if `limit == 0`.
    pub fn with_max_locations(mut self, limit: usize) -> CoralLike {
        assert!(limit > 0, "location limit must be positive");
        self.max_locations = limit;
        self
    }

    /// Overrides the minimum k-mer length.
    ///
    /// # Panics
    ///
    /// Panics if `s_min == 0`.
    pub fn with_s_min(mut self, s_min: usize) -> CoralLike {
        assert!(s_min > 0, "minimum seed length must be positive");
        self.s_min = s_min;
        self
    }

    /// The error budget δ.
    pub fn delta(&self) -> u32 {
        self.delta
    }
}

impl Mapper for CoralLike {
    fn name(&self) -> &str {
        "CORAL"
    }

    fn max_locations(&self) -> usize {
        self.max_locations
    }

    fn map_read_metered(&self, read: &DnaSeq, metrics: &mut MapMetrics) -> MapOutput {
        let fm = self.indexed.fm();
        let selector =
            SegmentedSelector::new(self.delta, self.s_min).threshold(Self::DEFAULT_THRESHOLD);
        let min_len = (self.delta as usize + 1) * self.s_min;
        map_read_with(
            read,
            &self.indexed.verify_engine(self.delta),
            Report::FirstN,
            self.max_locations,
            metrics,
            select_and_locate(&selector, fm, PER_SEED_LOCATE_CAP, |n| n >= min_len),
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
            ReferenceBuilder::new(50_000).seed(73).build(),
        ))
    }

    #[test]
    fn full_sensitivity_on_simulated_reads() {
        let indexed = indexed();
        let mapper = CoralLike::new(Arc::clone(&indexed), 5);
        let reads = ReadSimulator::new(100, 40)
            .profile(ErrorProfile::err012100())
            .seed(79)
            .simulate(indexed.seq());
        for read in &reads {
            let origin = read.origin.unwrap();
            if origin.edits > 5 {
                continue;
            }
            let out = mapper.map_read(&read.seq);
            assert!(
                out.mappings.iter().any(|m| {
                    m.strand == origin.strand
                        && (m.position as i64 - origin.position as i64).abs() <= 5
                }),
                "read {} not found",
                read.id
            );
        }
    }

    #[test]
    fn longer_reads_work() {
        let indexed = indexed();
        let mapper = CoralLike::new(Arc::clone(&indexed), 7).with_s_min(15);
        let read = indexed.seq().subseq(9000..9150);
        let out = mapper.map_read(&read);
        assert!(out
            .mappings
            .iter()
            .any(|m| m.position == 9000 && m.distance == 0));
    }

    #[test]
    fn respects_location_limit() {
        let indexed = indexed();
        let mapper = CoralLike::new(indexed, 2).with_max_locations(5);
        let read: DnaSeq = "ACACACACACACACACACACACACACACACACACAC".parse().unwrap();
        let out = mapper.map_read(&read);
        assert!(out.mappings.len() <= 5);
    }

    #[test]
    fn name_and_accessors() {
        let mapper = CoralLike::new(indexed(), 3);
        assert_eq!(mapper.name(), "CORAL");
        assert_eq!(mapper.max_locations(), 1000);
        assert_eq!(mapper.delta(), 3);
    }
}
