//! Yara-style mapper: FM-index approximate seeds, best-stratum reporting.
//!
//! Yara is an FM-index *best-mapper* (§III-A configures it "to report all
//! locations" of the best stratum). The strategy reproduced here follows
//! Yara's approximate seeding scheme: split the read into
//! ⌈(δ+1)/2⌉ pieces and search each piece in the FM-index with **up to one
//! mismatch** (backtracking over the substituted base), which by the
//! generalised pigeonhole argument covers δ errors. One-mismatch
//! backtracking costs O(k²) extensions per seed — the reason Yara's
//! mapping time balloons at high error counts and long reads (321 s at
//! n=150, δ=7 in Table I). Only mappings in the best stratum (minimum
//! distance) are reported, which is why Yara scores a few percent under
//! the *all-locations* accuracy of §III-A while scoring ≈100% under the
//! *any-best* accuracy of §III-B.

use std::sync::Arc;

use repute_filter::pigeonhole::uniform_partition;
use repute_genome::DnaSeq;
use repute_index::{FmIndex, Interval};
use repute_obs::MapMetrics;

use crate::common::{IndexedReference, MapOutput, Mapper};
use crate::engine::{locate_into, map_read_with, Report, EXTEND_COST};

/// Cap on located occurrences per seed interval.
const PER_INTERVAL_LOCATE_CAP: usize = 2_000;

/// The Yara-style best-mapper.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use repute_genome::synth::ReferenceBuilder;
/// use repute_mappers::{yara::YaraLike, IndexedReference, Mapper};
///
/// let reference = ReferenceBuilder::new(20_000).seed(11).build();
/// let read = reference.subseq(900..1000);
/// let indexed = Arc::new(IndexedReference::build(reference));
/// let mapper = YaraLike::new(indexed, 3);
/// let out = mapper.map_read(&read);
/// assert!(out.mappings.iter().all(|m| m.distance == 0)); // best stratum
/// ```
#[derive(Debug, Clone)]
pub struct YaraLike {
    indexed: Arc<IndexedReference>,
    delta: u32,
    max_locations: usize,
}

impl YaraLike {
    /// Creates the mapper with the paper's limit of 1000 locations.
    pub fn new(indexed: Arc<IndexedReference>, delta: u32) -> YaraLike {
        YaraLike {
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
    pub fn with_max_locations(mut self, limit: usize) -> YaraLike {
        assert!(limit > 0, "location limit must be positive");
        self.max_locations = limit;
        self
    }

    /// Searches `seed` with up to one mismatch, returning all match
    /// intervals and the index operations spent (a k-mer table lookup
    /// counts as one extension).
    fn one_mismatch_intervals(fm: &FmIndex, seed: &[u8]) -> (Vec<Interval>, u64) {
        let k = seed.len();
        // The table resolves the seed's last bases, `seed[table_at..]`.
        let (start, covered) = fm.search_start(seed);
        let table_at = k - covered;
        let mut ops = u64::from(covered > 0);
        // suffix_iv[i] = interval of seed[i..], for the suffixes at least
        // as long as the table's k-mers (suffix_iv[k] = full range when
        // the table covers nothing).
        let mut suffix_iv: Vec<Option<Interval>> = vec![None; table_at + 1];
        suffix_iv[table_at] = (!start.is_empty()).then_some(start);
        for i in (0..table_at).rev() {
            let Some(iv) = suffix_iv[i + 1] else { break };
            let next = fm.extend_left(iv, seed[i]);
            ops += 1;
            suffix_iv[i] = (!next.is_empty()).then_some(next);
        }
        let mut intervals = Vec::new();
        if let Some(exact) = suffix_iv[0] {
            intervals.push(exact);
        }
        // One substitution at position i: exact suffix seed[i+1..], a
        // substituted base, then exact prefix seed[..i]. Inside the
        // table's k-mer the substituted k-mer is looked up whole.
        let mut probe = seed.to_vec();
        for i in (0..k).rev() {
            for b in 0..4u8 {
                if b == seed[i] {
                    continue;
                }
                let (mut iv, from) = if i >= table_at {
                    probe[i] = b;
                    (fm.search_start(&probe).0, table_at)
                } else {
                    let Some(tail) = suffix_iv[i + 1] else { break };
                    (fm.extend_left(tail, b), i)
                };
                ops += 1;
                for j in (0..from).rev() {
                    if iv.is_empty() {
                        break;
                    }
                    iv = fm.extend_left(iv, seed[j]);
                    ops += 1;
                }
                if !iv.is_empty() {
                    intervals.push(iv);
                }
            }
            probe[i] = seed[i];
        }
        (intervals, ops)
    }
}

impl Mapper for YaraLike {
    fn name(&self) -> &str {
        "Yara"
    }

    fn max_locations(&self) -> usize {
        self.max_locations
    }

    fn map_read(&self, read: &DnaSeq) -> MapOutput {
        let fm = self.indexed.fm();
        // ⌈(δ+1)/2⌉ pieces, each allowed one mismatch, cover δ errors.
        let pieces = (self.delta as usize + 2) / 2;
        map_read_with(
            read,
            &self.indexed.verify_engine(self.delta),
            Report::BestStratum,
            self.max_locations,
            &mut MapMetrics::new(),
            |codes, set, metrics| {
                if codes.len() < pieces {
                    return None;
                }
                let mut work = 0;
                for (start, len) in uniform_partition(codes.len(), pieces) {
                    let (intervals, ops) =
                        Self::one_mismatch_intervals(fm, &codes[start..start + len]);
                    work += ops * EXTEND_COST;
                    for iv in intervals {
                        work += locate_into(fm, iv, PER_INTERVAL_LOCATE_CAP, start, set, metrics);
                    }
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
            ReferenceBuilder::new(40_000).seed(43).build(),
        ))
    }

    #[test]
    fn one_mismatch_search_finds_exact_and_substituted() {
        let indexed = indexed();
        let fm = indexed.fm();
        let codes = indexed.codes();
        let seed = &codes[1000..1025];
        let (intervals, ops) = YaraLike::one_mismatch_intervals(fm, seed);
        assert!(ops > 0);
        let mut positions: Vec<u32> = intervals
            .iter()
            .flat_map(|&iv| fm.locate(iv, usize::MAX))
            .collect();
        positions.sort_unstable();
        assert!(positions.contains(&1000), "exact occurrence found");
        // Every reported position matches the seed with ≤1 mismatch.
        for &p in &positions {
            let window = &codes[p as usize..p as usize + seed.len()];
            let mismatches = window.iter().zip(seed).filter(|(a, b)| a != b).count();
            assert!(mismatches <= 1, "position {p} has {mismatches} mismatches");
        }
    }

    #[test]
    fn reports_only_best_stratum() {
        let indexed = indexed();
        let mapper = YaraLike::new(Arc::clone(&indexed), 5);
        let reads = ReadSimulator::new(100, 20)
            .profile(ErrorProfile::err012100())
            .seed(47)
            .simulate(indexed.seq());
        for read in &reads {
            let out = mapper.map_read(&read.seq);
            if let Some(best) = out.mappings.iter().map(|m| m.distance).min() {
                assert!(out.mappings.iter().all(|m| m.distance == best));
            }
        }
    }

    #[test]
    fn finds_read_origins_any_best() {
        let indexed = indexed();
        let mapper = YaraLike::new(Arc::clone(&indexed), 5);
        let reads = ReadSimulator::new(100, 25)
            .profile(ErrorProfile::err012100())
            .seed(53)
            .simulate(indexed.seq());
        let mut found = 0usize;
        let mut eligible = 0usize;
        for read in &reads {
            let origin = read.origin.unwrap();
            if origin.edits > 2 {
                continue; // deep-error reads may have a better mapping elsewhere
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
            found * 100 >= eligible * 95,
            "any-best sensitivity too low: {found}/{eligible}"
        );
    }

    #[test]
    fn work_grows_with_delta() {
        let indexed = indexed();
        let read = indexed.seq().subseq(2000..2150);
        let low = YaraLike::new(Arc::clone(&indexed), 3).map_read(&read);
        let high = YaraLike::new(Arc::clone(&indexed), 7).map_read(&read);
        assert!(
            high.work > low.work,
            "more pieces must cost more: {} vs {}",
            high.work,
            low.work
        );
    }
}
