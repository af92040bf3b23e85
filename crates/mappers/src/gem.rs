//! GEM-style mapper: adaptive filtration with candidate caps.
//!
//! GEM's "fast, accurate and versatile alignment by filtration" grows
//! seeds adaptively until their frequency falls under a threshold, and
//! bounds the candidate work per seed — trading a sliver of sensitivity
//! for a mapping time that barely moves with the error budget (GEM's
//! times in Tables I/II are flat across δ). Reported output is
//! best-stratum (GEM is run as a best-mapper), which is why its §III-A
//! *all-locations* accuracy is a few percent while its §III-B *any-best*
//! accuracy sits near 90%.

use std::sync::Arc;

use repute_filter::greedy::GreedySelector;
use repute_genome::DnaSeq;
use repute_obs::MapMetrics;

use crate::common::{IndexedReference, MapOutput, Mapper};
use crate::engine::{map_read_with, select_and_locate, Report};

/// Adaptive frequency threshold at which a seed stops growing.
const ADAPTIVE_THRESHOLD: u32 = 20;
/// Cap on located occurrences per seed — the sensitivity trade.
const PER_SEED_LOCATE_CAP: usize = 20;

/// The GEM-style adaptive-filtration best-mapper.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use repute_genome::synth::ReferenceBuilder;
/// use repute_mappers::{gem::GemLike, IndexedReference, Mapper};
///
/// let reference = ReferenceBuilder::new(20_000).seed(17).build();
/// let read = reference.subseq(300..400);
/// let indexed = Arc::new(IndexedReference::build(reference));
/// let mapper = GemLike::new(indexed, 4);
/// assert!(mapper.map_read(&read).mappings.iter().any(|m| m.position == 300));
/// ```
#[derive(Debug, Clone)]
pub struct GemLike {
    indexed: Arc<IndexedReference>,
    delta: u32,
    s_min: usize,
    max_locations: usize,
}

impl GemLike {
    /// Creates the mapper with the paper's limit of 1000 locations.
    pub fn new(indexed: Arc<IndexedReference>, delta: u32) -> GemLike {
        GemLike {
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
    pub fn with_max_locations(mut self, limit: usize) -> GemLike {
        assert!(limit > 0, "location limit must be positive");
        self.max_locations = limit;
        self
    }

    /// The error budget δ.
    pub fn delta(&self) -> u32 {
        self.delta
    }
}

impl Mapper for GemLike {
    fn name(&self) -> &str {
        "GEM"
    }

    fn max_locations(&self) -> usize {
        self.max_locations
    }

    fn map_read(&self, read: &DnaSeq) -> MapOutput {
        let fm = self.indexed.fm();
        let selector = GreedySelector::new(self.delta, self.s_min).threshold(ADAPTIVE_THRESHOLD);
        let min_len = (self.delta as usize + 1) * self.s_min;
        map_read_with(
            read,
            &self.indexed.verify_engine(self.delta),
            Report::BestStratum,
            self.max_locations,
            &mut MapMetrics::new(),
            // The sensitivity trade: frequent seeds are sampled.
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
            ReferenceBuilder::new(40_000).seed(67).build(),
        ))
    }

    #[test]
    fn maps_most_low_error_reads() {
        let indexed = indexed();
        let mapper = GemLike::new(Arc::clone(&indexed), 4);
        let reads = ReadSimulator::new(100, 30)
            .profile(ErrorProfile::err012100())
            .seed(71)
            .simulate(indexed.seq());
        let mut found = 0usize;
        let mut eligible = 0usize;
        for read in &reads {
            let origin = read.origin.unwrap();
            if origin.edits > 2 {
                continue;
            }
            eligible += 1;
            let out = mapper.map_read(&read.seq);
            if out.mappings.iter().any(|m| {
                m.strand == origin.strand && (m.position as i64 - origin.position as i64).abs() <= 4
            }) {
                found += 1;
            }
        }
        assert!(
            found * 100 >= eligible * 80,
            "adaptive filtration too lossy: {found}/{eligible}"
        );
    }

    #[test]
    fn reports_best_stratum_only() {
        let indexed = indexed();
        let mapper = GemLike::new(Arc::clone(&indexed), 5);
        let read = indexed.seq().subseq(3000..3100);
        let out = mapper.map_read(&read);
        if let Some(best) = out.mappings.iter().map(|m| m.distance).min() {
            assert!(out.mappings.iter().all(|m| m.distance == best));
        }
    }

    #[test]
    fn work_is_nearly_flat_across_delta() {
        // The defining GEM shape in Tables I/II: times barely move with δ.
        let indexed = indexed();
        let read = indexed.seq().subseq(5000..5100);
        let w3 = GemLike::new(Arc::clone(&indexed), 3).map_read(&read).work;
        let w5 = GemLike::new(Arc::clone(&indexed), 5).map_read(&read).work;
        let ratio = w5 as f64 / w3 as f64;
        assert!(
            (0.4..=2.5).contains(&ratio),
            "work should stay the same order across δ: {w3} vs {w5}"
        );
    }

    #[test]
    fn name_and_limit() {
        let mapper = GemLike::new(indexed(), 3).with_max_locations(7);
        assert_eq!(mapper.name(), "GEM");
        assert_eq!(mapper.max_locations(), 7);
        assert_eq!(mapper.delta(), 3);
    }
}
