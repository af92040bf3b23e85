//! RazerS3-style mapper: SWIFT q-gram counting, full sensitivity.
//!
//! RazerS3 is the paper's gold standard (§III-A): a hash-based
//! *all-mapper* ("RazerS3 and Hobbes3 use hashing based method\[s\]",
//! §II-B) that is fully sensitive within the q-gram lemma. The strategy
//! reproduced here is the SWIFT counting filter: every q-gram of the read
//! votes for the reference diagonal band it hits; any band collecting at
//! least τ = n + 1 − q·(δ+1) votes (the q-gram lemma threshold) becomes a
//! candidate and is verified. Scanning *every* q-gram's position list is
//! what makes RazerS3 thorough and slow — and τ falls as δ rises, so more
//! bands qualify and its mapping time grows steeply across the paper's
//! error range (26.7 s → 65.7 s in Table I).

use std::sync::Arc;

use repute_genome::DnaSeq;
use repute_index::QGramIndex;
use repute_obs::MapMetrics;

use crate::common::{IndexedReference, MapOutput, Mapper};
use crate::engine::strand_codes;

/// The RazerS3-style full-sensitivity all-mapper.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use repute_genome::synth::ReferenceBuilder;
/// use repute_mappers::{razers3::Razers3Like, IndexedReference, Mapper};
///
/// let reference = ReferenceBuilder::new(20_000).seed(7).build();
/// let read = reference.subseq(500..600);
/// let indexed = Arc::new(IndexedReference::build(reference));
/// let mapper = Razers3Like::new(indexed, 3);
/// let out = mapper.map_read(&read);
/// assert!(out.mappings.iter().any(|m| m.position.abs_diff(500) <= 20));
/// ```
/// SWIFT counting q-gram length (shorter than the shared q=10 index:
/// RazerS3's weighted shapes trade specificity for sensitivity, which is
/// exactly what makes its counting phase expensive).
const SWIFT_Q: usize = 8;

/// The RazerS3-style full-sensitivity all-mapper (see the example in the
/// module documentation above).
#[derive(Debug, Clone)]
pub struct Razers3Like {
    indexed: Arc<IndexedReference>,
    swift: QGramIndex,
    delta: u32,
    max_locations: usize,
}

impl Razers3Like {
    /// Creates the mapper with the paper's RazerS3 configuration of 100
    /// locations per read.
    pub fn new(indexed: Arc<IndexedReference>, delta: u32) -> Razers3Like {
        let swift = QGramIndex::build(indexed.seq(), SWIFT_Q);
        Razers3Like {
            indexed,
            swift,
            delta,
            max_locations: 100,
        }
    }

    /// Overrides the per-read location limit.
    ///
    /// # Panics
    ///
    /// Panics if `limit == 0`.
    pub fn with_max_locations(mut self, limit: usize) -> Razers3Like {
        assert!(limit > 0, "location limit must be positive");
        self.max_locations = limit;
        self
    }

    /// The q-gram lemma threshold for a read of `n` bases: a window with
    /// ≤ δ errors shares at least `n + 1 − q·(δ+1)` q-grams with the read
    /// (clamped to 1 to stay sensitive for short reads).
    pub fn vote_threshold(&self, n: usize) -> u32 {
        ((n + 1).saturating_sub(SWIFT_Q * (self.delta as usize + 1)) as u32).max(1)
    }

    /// Diagonal band width: δ indel drift plus slack.
    fn band_width(&self) -> u32 {
        (2 * self.delta).max(8)
    }
}

impl Mapper for Razers3Like {
    fn name(&self) -> &str {
        "RazerS3"
    }

    fn max_locations(&self) -> usize {
        self.max_locations
    }

    fn map_read_metered(&self, read: &DnaSeq, metrics: &mut MapMetrics) -> MapOutput {
        let qgram = &self.swift;
        let q = qgram.q();
        let engine = self.indexed.verify_engine(self.delta);
        let band = self.band_width();
        let mut out = MapOutput::default();
        for (strand, codes) in strand_codes(read) {
            if codes.len() < q {
                continue;
            }
            let tau = self.vote_threshold(codes.len());
            // SWIFT counting: every q-gram hit votes for its diagonal
            // band; a hit also votes for the previous band so a true
            // window split across a band boundary still collects all its
            // votes in the lower band.
            // Each vote is a random-access bin update (two buckets per
            // hit) — the memory-bound heart of the SWIFT filter.
            const VOTE_COST: u64 = 6;
            let mut votes: Vec<u32> = Vec::new();
            for i in 0..=codes.len() - q {
                let positions = qgram.positions(&codes[i..i + q]);
                out.work += positions.len() as u64 * VOTE_COST + 1;
                for &p in positions {
                    let bucket = p.saturating_sub(i as u32) / band;
                    votes.push(bucket);
                    if bucket > 0 {
                        votes.push(bucket - 1);
                    }
                }
            }
            votes.sort_unstable();
            out.work += votes.len() as u64 / 4; // sort pass
                                                // Bands with ≥ τ votes become candidates.
            let mut candidates: Vec<u32> = Vec::new();
            let mut run_start = 0usize;
            for i in 1..=votes.len() {
                if i == votes.len() || votes[i] != votes[run_start] {
                    if (i - run_start) as u32 >= tau {
                        candidates.push(votes[run_start] * band);
                    }
                    run_start = i;
                }
            }
            out.candidates += candidates.len() as u64;
            out.work += engine.verify_banded(
                &codes,
                strand,
                &candidates,
                band as usize,
                self.max_locations,
                &mut out.mappings,
            );
            if out.mappings.len() >= self.max_locations {
                break;
            }
        }
        // Bands are not diagonals: only the counts its output shows.
        metrics.candidates_merged += out.candidates;
        metrics.hits += out.mappings.len() as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repute_genome::reads::{ErrorProfile, ReadSimulator};
    use repute_genome::synth::ReferenceBuilder;
    use repute_genome::Strand;

    fn indexed() -> Arc<IndexedReference> {
        Arc::new(IndexedReference::build(
            ReferenceBuilder::new(50_000).seed(29).build(),
        ))
    }

    #[test]
    fn finds_exact_forward_and_reverse_reads() {
        let indexed = indexed();
        let mapper = Razers3Like::new(Arc::clone(&indexed), 3);
        let fwd = indexed.seq().subseq(10_000..10_100);
        let out = mapper.map_read(&fwd);
        assert!(out
            .mappings
            .iter()
            .any(|m| m.position.abs_diff(10_000) <= 10
                && m.strand == Strand::Forward
                && m.distance == 0));

        let rev = fwd.reverse_complement();
        let out = mapper.map_read(&rev);
        assert!(out
            .mappings
            .iter()
            .any(|m| m.position.abs_diff(10_000) <= 10 && m.strand == Strand::Reverse));
    }

    #[test]
    fn full_sensitivity_on_simulated_reads() {
        let indexed = indexed();
        let mapper = Razers3Like::new(Arc::clone(&indexed), 5);
        let reads = ReadSimulator::new(100, 40)
            .profile(ErrorProfile::err012100())
            .seed(31)
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
                        && (m.position as i64 - origin.position as i64).abs() <= 20
                }),
                "read {} origin {:?} not found in {:?}",
                read.id,
                origin,
                out.mappings
            );
        }
    }

    #[test]
    fn vote_threshold_follows_qgram_lemma() {
        let indexed = indexed();
        let mapper = Razers3Like::new(Arc::clone(&indexed), 3);
        // q = 8: τ = 100 + 1 − 8·4 = 69.
        assert_eq!(mapper.vote_threshold(100), 69);
        let loose = Razers3Like::new(indexed, 7);
        // τ = 151 − 64 = 87 for n=150; clamps to 1 for short reads.
        assert_eq!(loose.vote_threshold(150), 87);
        assert_eq!(loose.vote_threshold(20), 1);
    }

    #[test]
    fn candidates_grow_with_delta() {
        // τ falls as δ rises, so more bands get verified.
        let indexed = indexed();
        let read = indexed.seq().subseq(20_000..20_100);
        let w3 = Razers3Like::new(Arc::clone(&indexed), 3).map_read(&read);
        let w7 = Razers3Like::new(Arc::clone(&indexed), 7).map_read(&read);
        assert!(w7.candidates >= w3.candidates);
    }

    #[test]
    fn respects_location_limit() {
        let indexed = indexed();
        let mapper = Razers3Like::new(Arc::clone(&indexed), 2).with_max_locations(3);
        // A low-complexity read maps in many places.
        let read: DnaSeq = "ACACACACACACACACACACACACACACAC".parse().unwrap();
        let out = mapper.map_read(&read);
        assert!(out.mappings.len() <= 3);
        assert_eq!(mapper.max_locations(), 3);
        assert_eq!(mapper.name(), "RazerS3");
    }
}
