//! BWA-MEM-style mapper: super-maximal exact match seeding, best-mapper.
//!
//! BWA-MEM seeds with super-maximal exact matches (SMEMs) computed on a
//! bidirectional FM-Index (Li 2012) — reproduced here with
//! [`repute_index::BiFmIndex::smems`] — and is a *best-mapper*: its
//! sensitivity and running time are governed by an internal error model
//! rather than the benchmark's δ, which is why the paper's tables show a
//! single BWA-MEM row per read length spanning all error columns.

use std::sync::Arc;

use repute_genome::DnaSeq;
use repute_index::BiFmIndex;
use repute_obs::MapMetrics;

use crate::common::{IndexedReference, MapOutput, Mapper};
use crate::engine::{locate_into, map_read_with, Report, EXTEND_COST};

/// Rank-query pairs per bidirectional extension step (four left
/// extensions probe the width of every symbol).
const BI_STEP_COST: u64 = 4 * EXTEND_COST;

/// Minimum SMEM length worth seeding from (BWA-MEM's default is 19).
const MIN_SEED_LEN: usize = 19;
/// Cap on located occurrences per SMEM.
const PER_SEED_LOCATE_CAP: usize = 64;

/// The BWA-MEM-style best-mapper.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use repute_genome::synth::ReferenceBuilder;
/// use repute_mappers::{bwamem::BwaMemLike, IndexedReference, Mapper};
///
/// let reference = ReferenceBuilder::new(20_000).seed(13).build();
/// let read = reference.subseq(1500..1600);
/// let indexed = Arc::new(IndexedReference::build(reference));
/// let mapper = BwaMemLike::new(indexed);
/// assert!(mapper.map_read(&read).mappings.iter().any(|m| m.position == 1500));
/// ```
#[derive(Debug, Clone)]
pub struct BwaMemLike {
    indexed: Arc<IndexedReference>,
    bi: BiFmIndex,
    max_locations: usize,
}

impl BwaMemLike {
    /// Creates the mapper (no δ parameter: the error model is internal).
    /// Builds the bidirectional index SMEM seeding needs.
    pub fn new(indexed: Arc<IndexedReference>) -> BwaMemLike {
        let bi = BiFmIndex::build(indexed.seq());
        BwaMemLike {
            indexed,
            bi,
            max_locations: 1000,
        }
    }

    /// Overrides the per-read location limit.
    ///
    /// # Panics
    ///
    /// Panics if `limit == 0`.
    pub fn with_max_locations(mut self, limit: usize) -> BwaMemLike {
        assert!(limit > 0, "location limit must be positive");
        self.max_locations = limit;
        self
    }

    /// The internal alignment budget for a read of `n` bases (≈4% of the
    /// read, matching BWA-MEM's default scoring at these lengths).
    pub fn internal_budget(n: usize) -> u32 {
        ((n as f64 * 0.04).ceil() as u32).max(3)
    }
}

impl Mapper for BwaMemLike {
    fn name(&self) -> &str {
        "BWA-MEM"
    }

    fn max_locations(&self) -> usize {
        self.max_locations
    }

    fn map_read(&self, read: &DnaSeq) -> MapOutput {
        let fm = self.bi.forward();
        let budget = Self::internal_budget(read.len());
        map_read_with(
            read,
            &self.indexed.verify_engine(budget),
            Report::BestStratum,
            self.max_locations,
            &mut MapMetrics::new(),
            |codes, set, metrics| {
                // True super-maximal exact matches via the bidirectional index.
                let (smems, steps) = self.bi.smems(codes, MIN_SEED_LEN);
                let mut work = steps * BI_STEP_COST;
                for smem in &smems {
                    work += locate_into(
                        fm,
                        smem.interval,
                        PER_SEED_LOCATE_CAP,
                        smem.start,
                        set,
                        metrics,
                    );
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
            ReferenceBuilder::new(40_000).seed(59).build(),
        ))
    }

    #[test]
    fn internal_budget_scales_with_read_length() {
        assert_eq!(BwaMemLike::internal_budget(100), 4);
        assert_eq!(BwaMemLike::internal_budget(150), 6);
        assert_eq!(BwaMemLike::internal_budget(36), 3);
    }

    #[test]
    fn maps_exact_reads_to_their_origin() {
        let indexed = indexed();
        let mapper = BwaMemLike::new(Arc::clone(&indexed));
        let read = indexed.seq().subseq(7000..7150);
        let out = mapper.map_read(&read);
        assert!(out.mappings.iter().any(|m| m.position == 7000));
        assert!(out.mappings.iter().all(|m| m.distance == 0));
    }

    #[test]
    fn best_mapper_sensitivity_on_low_error_reads() {
        let indexed = indexed();
        let mapper = BwaMemLike::new(Arc::clone(&indexed));
        let reads = ReadSimulator::new(100, 25)
            .profile(ErrorProfile::err012100())
            .seed(61)
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
                m.strand == origin.strand && (m.position as i64 - origin.position as i64).abs() <= 5
            }) {
                found += 1;
            }
        }
        assert!(
            found * 100 >= eligible * 90,
            "sensitivity too low: {found}/{eligible}"
        );
    }

    #[test]
    fn work_is_independent_of_external_delta() {
        // There is no δ knob at all — the API enforces the paper's
        // "single row per read length" behaviour.
        let indexed = indexed();
        let mapper = BwaMemLike::new(Arc::clone(&indexed));
        let read = indexed.seq().subseq(100..250);
        let a = mapper.map_read(&read);
        let b = mapper.map_read(&read);
        assert_eq!(a.work, b.work);
        assert_eq!(mapper.name(), "BWA-MEM");
    }
}
