//! Differential testing: every mapper against a brute-force DP scan.
//!
//! The brute-force oracle runs the full semi-global DP of `repute-align`
//! across the *entire* reference, collecting every end position within
//! the error budget — no index, no filtration, no heuristics. Each mapper
//! is then checked in both directions:
//!
//! * **sensitivity** — every oracle hit cluster is reported by the
//!   full-sensitivity mappers (pigeonhole guarantee);
//! * **soundness** — every reported mapping corresponds to an oracle hit
//!   (no mapper invents locations).

use std::sync::Arc;

use repute_core::{ReputeConfig, ReputeMapper};
use repute_genome::reads::{ErrorProfile, ReadSimulator};
use repute_genome::synth::{ReferenceBuilder, RepeatFamily};
use repute_genome::{DnaSeq, Strand};
use repute_mappers::{
    coral::CoralLike, hobbes3::Hobbes3Like, razers3::Razers3Like, IndexedReference, Mapper,
};
use repute_prefilter::PrefilterMode;

/// The semi-global edit distance of `read` ending at every reference
/// position `1..=len` (index `j - 1` holds the end-exclusive position
/// `j`): the last DP row, which every error budget thresholds.
fn end_distances(read: &[u8], reference: &[u8]) -> Vec<u32> {
    let m = read.len();
    let mut prev: Vec<u32> = (0..=m as u32).collect();
    let mut cur = vec![0u32; m + 1];
    let mut ends = Vec::with_capacity(reference.len());
    for j in 1..=reference.len() {
        cur[0] = 0;
        for i in 1..=m {
            let sub = prev[i - 1] + u32::from(read[i - 1] != reference[j - 1]);
            cur[i] = sub.min(prev[i] + 1).min(cur[i - 1] + 1);
        }
        ends.push(cur[m]);
        std::mem::swap(&mut prev, &mut cur);
    }
    ends
}

/// All end positions (exclusive) within `delta`, collapsed to clusters
/// of nearby ends. Each cluster keeps its full `(first_end, last_end)`
/// range: a repeat with a short period chains many qualifying ends
/// together, and a mapper may legitimately report any occurrence inside
/// the chain, not just its final end.
fn oracle_ends(ends: &[u32], delta: u32) -> Vec<(usize, usize, u32)> {
    // Collapse runs of nearby ends (one alignment produces a plateau of
    // qualifying ends) into `(first, last, best distance)` ranges.
    let mut clusters: Vec<(usize, usize, u32)> = Vec::new();
    for (j, &dist) in ends.iter().enumerate().filter(|&(_, &dist)| dist <= delta) {
        let end = j + 1;
        match clusters.last_mut() {
            Some((_, last_end, best)) if end - *last_end <= 2 * delta as usize + 2 => {
                if dist < *best {
                    *best = dist;
                }
                *last_end = end;
            }
            _ => clusters.push((end, end, dist)),
        }
    }
    clusters
}

/// The brute-force scan of one read, both strands; an [`Oracle`] per
/// error budget is a threshold over it.
struct Scan {
    strands: [(Strand, Vec<u32>); 2],
}

impl Scan {
    fn new(read: &DnaSeq, reference: &[u8]) -> Scan {
        let reverse = read.reverse_complement();
        Scan {
            strands: [
                (Strand::Forward, end_distances(&read.to_codes(), reference)),
                (
                    Strand::Reverse,
                    end_distances(&reverse.to_codes(), reference),
                ),
            ],
        }
    }

    fn oracle(&self, delta: u32) -> Oracle {
        let mut hits = Vec::new();
        for (strand, ends) in &self.strands {
            for (first, last, dist) in oracle_ends(ends, delta) {
                hits.push((*strand, first, last, dist));
            }
        }
        Oracle { hits }
    }
}

struct Oracle {
    /// `(strand, first end, last end, best distance)` per hit cluster.
    hits: Vec<(Strand, usize, usize, u32)>,
}

fn oracle(read: &DnaSeq, reference: &[u8], delta: u32) -> Oracle {
    Scan::new(read, reference).oracle(delta)
}

fn workload() -> (Arc<IndexedReference>, Vec<repute_genome::reads::SimRead>) {
    // Small but repeat-rich, so multi-mapping reads exercise the mappers.
    let reference = ReferenceBuilder::new(60_000)
        .seed(7001)
        .repeat_families(vec![
            RepeatFamily {
                unit_len: 200,
                copies: 30,
                divergence: 0.02,
            },
            RepeatFamily {
                unit_len: 60,
                copies: 40,
                divergence: 0.01,
            },
        ])
        .build();
    let reads = ReadSimulator::new(90, 25)
        .profile(ErrorProfile::err012100())
        .unmappable_fraction(0.08)
        .seed(7002)
        .simulate(&reference);
    (Arc::new(IndexedReference::build(reference)), reads)
}

/// Matching slack between a mapper's reported start and an oracle end:
/// start ≈ end − read_len, both sides accurate to ±δ.
fn matches_oracle(
    oracle: &Oracle,
    read_len: usize,
    strand: Strand,
    position: u32,
    delta: u32,
) -> bool {
    let slack = 2 * delta as usize + 2;
    let end = position as usize + read_len;
    oracle
        .hits
        .iter()
        .any(|&(s, first, last, _)| s == strand && end + slack >= first && end <= last + slack)
}

#[test]
fn no_mapper_invents_locations() {
    let (indexed, reads) = workload();
    let delta = 4u32;
    let mappers: Vec<Box<dyn Mapper>> = vec![
        Box::new(Razers3Like::new(Arc::clone(&indexed), delta)),
        Box::new(Hobbes3Like::new(Arc::clone(&indexed), delta)),
        Box::new(CoralLike::new(Arc::clone(&indexed), delta)),
        Box::new(ReputeMapper::new(
            Arc::clone(&indexed),
            ReputeConfig::new(delta, 12).expect("valid"),
        )),
    ];
    for read in &reads {
        let oracle = oracle(&read.seq, indexed.codes(), delta);
        for mapper in &mappers {
            for m in mapper.map_read(&read.seq).mappings {
                assert!(
                    m.distance <= delta,
                    "{} reported distance {} > δ",
                    mapper.name(),
                    m.distance
                );
                assert!(
                    matches_oracle(&oracle, read.seq.len(), m.strand, m.position, delta),
                    "{} invented {:?} for read {} (oracle has {} hits)",
                    mapper.name(),
                    m,
                    read.id,
                    oracle.hits.len()
                );
            }
        }
    }
}

#[test]
fn full_sensitivity_mappers_find_every_oracle_cluster() {
    // The accuracy pin: all-locations recall against the brute-force
    // oracle is 100% at every paper δ, and for REPUTE under every
    // pre-alignment filter — so kernel and filtration work cannot trade
    // sensitivity for speed unnoticed.
    let (indexed, reads) = workload();
    let scans: Vec<Scan> = reads
        .iter()
        .map(|read| Scan::new(&read.seq, indexed.codes()))
        .collect();
    for delta in 3u32..=7 {
        // The largest S_min that leaves δ+1 seeds in a 90 bp read, 12 at most.
        let s_min = (90 / (delta as usize + 1)).min(12);
        // Unlimited output slots so the caps cannot hide a cluster.
        let mut mappers: Vec<(String, Box<dyn Mapper>)> = vec![
            (
                "RazerS3".into(),
                Box::new(Razers3Like::new(Arc::clone(&indexed), delta).with_max_locations(100_000)),
            ),
            (
                "Hobbes3".into(),
                Box::new(Hobbes3Like::new(Arc::clone(&indexed), delta).with_max_locations(100_000)),
            ),
            (
                "CORAL".into(),
                Box::new(
                    CoralLike::new(Arc::clone(&indexed), delta)
                        .with_s_min(s_min)
                        .with_max_locations(100_000),
                ),
            ),
        ];
        for mode in PrefilterMode::ALL {
            let config = ReputeConfig::new(delta, s_min)
                .expect("valid")
                .with_max_locations(100_000)
                .with_prefilter(mode);
            mappers.push((
                format!("REPUTE --prefilter {mode}"),
                Box::new(ReputeMapper::new(Arc::clone(&indexed), config)),
            ));
        }
        let slack = 2 * delta as usize + 2;
        for (read, scan) in reads.iter().zip(&scans) {
            let oracle = scan.oracle(delta);
            for (name, mapper) in &mappers {
                let mappings = mapper.map_read(&read.seq).mappings;
                for &(strand, first, last, dist) in &oracle.hits {
                    let found = mappings.iter().any(|m| {
                        let end = m.position as usize + read.seq.len();
                        m.strand == strand && end + slack >= first && end <= last + slack
                    });
                    assert!(
                        found,
                        "{name} at δ={delta} missed oracle hit (strand {strand}, ends \
                         {first}..={last}, distance {dist}) for read {}; reported {} mappings",
                        read.id,
                        mappings.len()
                    );
                }
            }
        }
    }
}

#[test]
fn oracle_sanity_on_planted_matches() {
    // The oracle itself must find a planted exact and a planted 2-error
    // occurrence, and nothing in random noise.
    let reference = ReferenceBuilder::new(5_000).seed(7003).build();
    let codes = reference.to_codes();
    let read = reference.subseq(1_000..1_080);
    let oracle = oracle(&read, &codes, 2);
    assert!(
        oracle.hits.iter().any(|&(s, first, last, d)| {
            s == Strand::Forward && 1_080 + 6 >= first && 1_080 <= last + 6 && d == 0
        }),
        "planted exact match missed: {:?}",
        oracle.hits
    );

    // Mutate two bases: still found, distance ≤ 2.
    let mut mutated = read.to_codes();
    mutated[10] ^= 1;
    mutated[60] ^= 2;
    let mutated = DnaSeq::from_codes(&mutated).unwrap();
    let oracle = self::oracle(&mutated, &codes, 2);
    assert!(oracle.hits.iter().any(|&(s, first, last, d)| {
        s == Strand::Forward && 1_080 + 6 >= first && 1_080 <= last + 6 && d <= 2
    }));
}
