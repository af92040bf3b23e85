//! Properties of the checkpoint journal's framed codec over arbitrary
//! record streams — plain loops over the vendored PRNG with a fixed seed
//! set (the pattern of `crates/prefilter/tests/props.rs`), so they run
//! offline and in tier-1. The unit tests in `journal.rs` and the seeded
//! suite in `resume.rs` cover the same invariants with fixed corpora.

use repute_core::journal::{decode_records, encode_record, BatchRecord};
use repute_genome::rng::StdRng;
use repute_genome::Strand;
use repute_mappers::{MapOutput, Mapping};
use repute_obs::MapMetrics;

const SEEDS: [u64; 4] = [0x9E37, 0x79B9, 0x7F4A, 0x7C15];
const CASES_PER_SEED: usize = 64;

/// One batch record over the read range `[lo, lo+reads)`, every field
/// arbitrary.
fn arb_record(rng: &mut StdRng, index: u32, lo: u64, reads: usize) -> BatchRecord {
    let outputs = (0..reads).map(|_| {
        let mappings = (0..rng.gen_range(0usize..4)).map(|_| Mapping {
            position: rng.gen(),
            distance: rng.gen(),
            strand: if rng.gen() {
                Strand::Forward
            } else {
                Strand::Reverse
            },
        });
        MapOutput {
            mappings: mappings.collect(),
            work: rng.gen(),
            candidates: rng.gen(),
        }
    });
    let outputs = outputs.collect();
    let metrics = (0..reads).map(|_| MapMetrics {
        seeds_selected: rng.gen(),
        fm_extend_ops: rng.gen(),
        fm_locate_ops: rng.gen(),
        candidates_raw: rng.gen(),
        candidates_merged: rng.gen(),
        dp_cells: rng.gen(),
        prefilter_tested: rng.gen(),
        prefilter_rejected: rng.gen(),
        prefilter_false_accepts: rng.gen(),
        prefilter_words: rng.gen(),
        verifications: rng.gen(),
        word_updates: rng.gen(),
        hits: rng.gen(),
    });
    BatchRecord {
        index,
        lo,
        hi: lo + reads as u64,
        outputs,
        metrics: metrics.collect(),
    }
}

/// A contiguous stream of up to five records of up to four reads each:
/// indices and read ranges form the prefix the journal invariant
/// requires. With it, its encoding and the record boundaries in that.
fn arb_stream(rng: &mut StdRng) -> (Vec<BatchRecord>, Vec<u8>, Vec<usize>) {
    let mut lo = 0u64;
    let mut records = Vec::new();
    let mut bytes = Vec::new();
    let mut boundaries = vec![0usize];
    for index in 0..rng.gen_range(0u32..6) {
        let reads = rng.gen_range(0usize..5);
        let record = arb_record(rng, index, lo, reads);
        lo += reads as u64;
        bytes.extend_from_slice(&encode_record(&record));
        boundaries.push(bytes.len());
        records.push(record);
    }
    (records, bytes, boundaries)
}

fn for_each_stream(mut property: impl FnMut(&mut StdRng, Vec<BatchRecord>, Vec<u8>, Vec<usize>)) {
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..CASES_PER_SEED {
            let (records, bytes, boundaries) = arb_stream(&mut rng);
            property(&mut rng, records, bytes, boundaries);
        }
    }
}

/// Any record stream round-trips through the framed codec, consuming
/// exactly the bytes it wrote.
#[test]
fn streams_round_trip() {
    for_each_stream(|_, records, bytes, _| {
        let (decoded, consumed) = decode_records(&bytes);
        assert_eq!(decoded, records);
        assert_eq!(consumed, bytes.len());
    });
}

/// Truncation at any byte offset keeps exactly the intact prefix
/// records, and the consumed count lands on a record boundary.
#[test]
fn truncation_keeps_the_intact_prefix() {
    for_each_stream(|rng, records, bytes, boundaries| {
        let cut = rng.gen_range(0..=bytes.len());
        let (decoded, consumed) = decode_records(&bytes[..cut]);
        let intact = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        assert_eq!(decoded.len(), intact, "cut at {cut} of {}", bytes.len());
        assert_eq!(consumed, boundaries[intact]);
        assert_eq!(decoded[..], records[..intact]);
    });
}

/// A single bit flip anywhere in the tail record is detected: decode
/// never returns a record differing from what was written, and every
/// record before the flipped one survives.
#[test]
fn tail_bit_flip_is_detected() {
    for_each_stream(|rng, records, mut bytes, boundaries| {
        if records.is_empty() {
            return;
        }
        let last_start = boundaries[boundaries.len() - 2];
        let byte = rng.gen_range(last_start..bytes.len());
        let bit = rng.gen_range(0u8..8);
        bytes[byte] ^= 1 << bit;
        let (decoded, _) = decode_records(&bytes);
        // The corrupt tail is dropped; the prefix survives bit-exact.
        assert_eq!(
            decoded[..],
            records[..records.len() - 1],
            "bit {bit} of byte {byte} (tail record starts at {last_start})"
        );
    });
}
