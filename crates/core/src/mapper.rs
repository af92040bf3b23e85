//! The REPUTE mapping kernel.

use std::sync::Arc;

use repute_filter::oss::OssSolver;
use repute_genome::DnaSeq;
use repute_mappers::{
    map_read_with, select_and_locate, IndexedReference, MapOutput, Mapper, Report,
};
use repute_obs::MapMetrics;
use repute_prefilter::{Chain, PrefilterMode, QgramFilter, ShdFilter};

use crate::config::ReputeConfig;

/// Cap on located occurrences per seed (pathological repeats only).
const PER_SEED_LOCATE_CAP: usize = 20_000;

/// The REPUTE mapper: DP filtration + bit-vector verification, fused into
/// one per-read kernel with a fixed memory footprint.
///
/// See the [crate documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct ReputeMapper {
    indexed: Arc<IndexedReference>,
    config: ReputeConfig,
}

impl ReputeMapper {
    /// Creates a mapper over a preprocessed reference. When the
    /// configuration enables the q-gram prefilter, the index's shared
    /// bins are built here on their first use — once, at setup time,
    /// like the rest of the index.
    pub fn new(indexed: Arc<IndexedReference>, config: ReputeConfig) -> ReputeMapper {
        if config.prefilter().uses_qgram() {
            indexed.prefilter_bins();
        }
        ReputeMapper { indexed, config }
    }

    /// The mapper's configuration.
    pub fn config(&self) -> &ReputeConfig {
        &self.config
    }

    /// The preprocessed reference this mapper maps against.
    pub fn indexed(&self) -> &Arc<IndexedReference> {
        &self.indexed
    }
}

impl Mapper for ReputeMapper {
    fn name(&self) -> &str {
        "REPUTE"
    }

    fn max_locations(&self) -> usize {
        self.config.max_locations()
    }

    fn kernel_private_bytes(&self, read_len: usize) -> usize {
        self.config.kernel_footprint_bytes(read_len)
    }

    fn map_read_metered(&self, read: &DnaSeq, metrics: &mut MapMetrics) -> MapOutput {
        let fm = self.indexed.fm();
        // Pre-alignment filtration stage (sound: affects cost, never
        // output). The chain runs the q-gram bins first — they are far
        // cheaper per candidate than the SHD mask pipeline.
        let shd = ShdFilter::new();
        let qgram;
        let chain;
        let engine = self.indexed.verify_engine(self.config.delta());
        let engine = match self.config.prefilter() {
            PrefilterMode::None => engine,
            PrefilterMode::Shd => engine.with_prefilter(&shd),
            PrefilterMode::Qgram => {
                qgram = QgramFilter::new(self.indexed.prefilter_bins());
                engine.with_prefilter(&qgram)
            }
            PrefilterMode::Both => {
                qgram = QgramFilter::new(self.indexed.prefilter_bins());
                chain = Chain::new(vec![&qgram, &shd]);
                engine.with_prefilter(&chain)
            }
        };
        let selector = OssSolver::new(*self.config.oss_params());
        map_read_with(
            read,
            &engine,
            Report::FirstN,
            self.config.max_locations(),
            metrics,
            // Filtration: frequency table + DP partition (the paper's
            // §II-B kernel), skipped on a read too short for δ+1 seeds of
            // S_min. Capped seeds anchor their interval at a suffix.
            select_and_locate(&selector, fm, PER_SEED_LOCATE_CAP, |n| {
                self.config.feasible_for(n)
            }),
        )
    }
}

/// A mapping together with its alignment description — the CIGAR output
/// the paper lists as future work (§IV), implemented as an extension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CigarMapping {
    /// The mapping, with its position refined to the alignment's exact
    /// start (no longer just the candidate diagonal).
    pub mapping: repute_mappers::Mapping,
    /// Edit script of the read against the reference at that position.
    pub cigar: repute_align::Cigar,
}

impl ReputeMapper {
    /// The CIGAR string of each of `mappings` — `read`'s reported
    /// locations, from whichever path mapped it — by a full DP traceback
    /// in the ±δ window around the location (§IV extension).
    ///
    /// Costs O(read · window) per reported mapping on top of
    /// [`Mapper::map_read`]; intended for final output, not the hot path.
    pub fn cigars_for(
        &self,
        read: &DnaSeq,
        mappings: &[repute_mappers::Mapping],
    ) -> Vec<CigarMapping> {
        let reference = self.indexed.seq();
        let delta = self.config.delta() as usize;
        let forward = read.to_codes();
        let reverse = read.reverse_complement().to_codes();
        let mut window = Vec::new();
        let mut detailed = Vec::with_capacity(mappings.len());
        for &mapping in mappings {
            let codes = match mapping.strand {
                repute_genome::Strand::Forward => &forward,
                repute_genome::Strand::Reverse => &reverse,
            };
            let start = (mapping.position as usize).saturating_sub(delta);
            let end = (mapping.position as usize + codes.len() + delta).min(reference.len());
            window.clear();
            reference.unpack_into(start..end, &mut window);
            if let Some(alignment) = repute_align::dp::semi_global_with_cigar(codes, &window) {
                detailed.push(CigarMapping {
                    mapping: repute_mappers::Mapping {
                        position: (start + alignment.start) as u32,
                        ..mapping
                    },
                    cigar: alignment.cigar,
                });
            }
        }
        detailed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repute_genome::reads::{ErrorProfile, ReadSimulator};
    use repute_genome::synth::ReferenceBuilder;
    use repute_genome::Strand;
    use repute_mappers::coral::CoralLike;
    use repute_mappers::engine_costs::{DP_CELL_COST, EXTEND_COST, LOCATE_COST};

    fn indexed() -> Arc<IndexedReference> {
        Arc::new(IndexedReference::build(
            ReferenceBuilder::new(60_000).seed(83).build(),
        ))
    }

    fn mapper(delta: u32, s_min: usize) -> ReputeMapper {
        ReputeMapper::new(indexed(), ReputeConfig::new(delta, s_min).unwrap())
    }

    #[test]
    fn maps_exact_reads_both_strands() {
        let m = mapper(5, 12);
        let fwd = m.indexed().seq().subseq(20_000..20_100);
        let out = m.map_read(&fwd);
        assert!(out
            .mappings
            .iter()
            .any(|h| h.position == 20_000 && h.strand == Strand::Forward && h.distance == 0));
        let rev = fwd.reverse_complement();
        let out = m.map_read(&rev);
        assert!(out
            .mappings
            .iter()
            .any(|h| h.position.abs_diff(20_000) <= 5 && h.strand == Strand::Reverse));
    }

    #[test]
    fn full_sensitivity_within_delta() {
        let m = mapper(5, 12);
        let reads = ReadSimulator::new(100, 50)
            .profile(ErrorProfile::err012100())
            .seed(89)
            .simulate(m.indexed().seq());
        for read in &reads {
            let origin = read.origin.unwrap();
            if origin.edits > 5 {
                continue;
            }
            let out = m.map_read(&read.seq);
            assert!(
                out.mappings.iter().any(|h| {
                    h.strand == origin.strand
                        && (h.position as i64 - origin.position as i64).abs() <= 5
                }),
                "read {} (edits {}) missed",
                read.id,
                origin.edits
            );
        }
    }

    #[test]
    fn metered_mapping_decomposes_work_exactly() {
        let m = mapper(5, 12);
        let reads = ReadSimulator::new(100, 20)
            .profile(ErrorProfile::err012100())
            .seed(313)
            .simulate(m.indexed().seq());
        for read in &reads {
            let mut metrics = MapMetrics::new();
            let out = m.map_read_metered(&read.seq, &mut metrics);
            // Same mappings as the unmetered path (it is the same path).
            assert_eq!(out.mappings, m.map_read(&read.seq).mappings);
            // The per-read record decomposes the work scalar exactly.
            assert_eq!(
                metrics.work_units(EXTEND_COST, DP_CELL_COST, LOCATE_COST),
                out.work,
                "read {}",
                read.id
            );
            assert_eq!(metrics.hits, out.mappings.len() as u64);
            assert_eq!(metrics.candidates_merged, out.candidates);
            assert!(metrics.candidates_raw >= metrics.candidates_merged);
            assert!(metrics.seeds_selected > 0);
        }
    }

    #[test]
    fn infeasible_read_yields_empty_output() {
        let m = mapper(7, 15); // needs 120 bases
        let read = m.indexed().seq().subseq(0..100);
        let out = m.map_read(&read);
        assert!(out.mappings.is_empty());
        assert_eq!(out.work, 0);
    }

    #[test]
    fn fewer_candidates_than_coral_on_average() {
        // The DP-vs-heuristic claim of the paper, measured end-to-end.
        let indexed = indexed();
        let repute = ReputeMapper::new(Arc::clone(&indexed), ReputeConfig::new(6, 12).unwrap());
        let coral = CoralLike::new(Arc::clone(&indexed), 6);
        let reads = ReadSimulator::new(150, 30)
            .profile(ErrorProfile::srr826460())
            .seed(97)
            .simulate(indexed.seq());
        let mut repute_cands = 0u64;
        let mut coral_cands = 0u64;
        for read in &reads {
            repute_cands += repute.map_read(&read.seq).candidates;
            coral_cands += coral.map_read(&read.seq).candidates;
        }
        assert!(
            repute_cands <= coral_cands,
            "REPUTE candidates {repute_cands} vs CORAL {coral_cands}"
        );
    }

    #[test]
    fn cigar_output_matches_reported_distances() {
        let m = mapper(5, 12);
        let reads = ReadSimulator::new(100, 15)
            .profile(ErrorProfile::err012100())
            .seed(211)
            .simulate(m.indexed().seq());
        for read in &reads {
            let out = m.map_read_metered(&read.seq, &mut MapMetrics::new());
            let detailed = m.cigars_for(&read.seq, &out.mappings);
            assert_eq!(out.mappings.len(), detailed.len());
            for (plain, rich) in out.mappings.iter().zip(&detailed) {
                assert_eq!(rich.cigar.edit_distance(), plain.distance);
                assert_eq!(rich.cigar.pattern_len(), 100);
                // The refined position stays within the candidate window.
                assert!(rich.mapping.position.abs_diff(plain.position) <= 2 * 5);
            }
        }
    }

    #[test]
    fn cigar_of_exact_read_is_all_matches() {
        let m = mapper(3, 15);
        let read = m.indexed().seq().subseq(30_000..30_100);
        let out = m.map_read_metered(&read, &mut MapMetrics::new());
        let detailed = m.cigars_for(&read, &out.mappings);
        let exact = detailed
            .iter()
            .find(|d| d.mapping.position == 30_000)
            .expect("origin reported");
        assert_eq!(exact.cigar.to_string(), "100=");
    }

    #[test]
    fn prefilter_modes_preserve_output_and_cut_verification() {
        // The subsystem's contract, end to end: every prefilter mode
        // reports exactly the mappings the unfiltered pipeline reports
        // (zero false negatives), while `both` measurably reduces the
        // Myers word updates spent on junk candidates.
        let indexed = indexed();
        let base = ReputeConfig::new(5, 12).unwrap();
        let reads = ReadSimulator::new(100, 40)
            .profile(ErrorProfile::srr826460())
            .seed(151)
            .simulate(indexed.seq());
        let plain = ReputeMapper::new(Arc::clone(&indexed), base);
        let mut per_mode = Vec::new();
        for mode in PrefilterMode::ALL {
            let mapper = ReputeMapper::new(Arc::clone(&indexed), base.with_prefilter(mode));
            let mut totals = MapMetrics::new();
            for read in &reads {
                let mut m = MapMetrics::new();
                let out = mapper.map_read_metered(&read.seq, &mut m);
                assert_eq!(
                    out.mappings,
                    plain.map_read(&read.seq).mappings,
                    "mode {mode} changed mappings of read {}",
                    read.id
                );
                // The work identity holds with the filter stage charged.
                assert_eq!(
                    m.work_units(EXTEND_COST, DP_CELL_COST, LOCATE_COST),
                    out.work,
                    "mode {mode}, read {}",
                    read.id
                );
                totals.merge(&m);
            }
            if mode == PrefilterMode::None {
                assert_eq!(totals.prefilter_tested, 0);
                assert_eq!(totals.prefilter_words, 0);
            } else {
                assert_eq!(totals.prefilter_tested, totals.candidates_merged);
                assert_eq!(
                    totals.verifications,
                    totals.prefilter_tested - totals.prefilter_rejected
                );
                assert!(totals.prefilter_words > 0);
            }
            per_mode.push((mode, totals));
        }
        let none = per_mode[0].1;
        let both = per_mode[3].1;
        assert!(
            both.word_updates < none.word_updates,
            "prefilter 'both' must cut word updates: {} vs {}",
            both.word_updates,
            none.word_updates
        );
        assert!(both.prefilter_rejected > 0, "no candidate was rejected");
    }

    #[test]
    fn respects_first_n_limit() {
        let indexed = indexed();
        let m = ReputeMapper::new(
            indexed,
            ReputeConfig::new(2, 10).unwrap().with_max_locations(4),
        );
        let read: DnaSeq = "ACACACACACACACACACACACACACACAC".parse().unwrap();
        let out = m.map_read(&read);
        assert!(out.mappings.len() <= 4);
        assert_eq!(m.max_locations(), 4);
        assert_eq!(m.name(), "REPUTE");
    }
}
