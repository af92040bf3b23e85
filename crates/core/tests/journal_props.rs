//! Properties of the checkpoint codecs over arbitrary values — plain
//! loops over the vendored PRNG with a fixed seed set (the pattern of
//! `crates/prefilter/tests/props.rs`), so they run offline and in
//! tier-1. The unit tests in `journal.rs` cover the same invariants with
//! fixed values; `tests/wire_contract.rs` takes every truncation and bit
//! flip of one real manifest.

use std::io::Write as _;

use repute_core::journal::{
    decode_work_record, tmp_path, work_record, Checkpoint, RunFingerprint, WORK_RECORD_BYTES,
};
use repute_core::{AtomicFile, ReadCharge};
use repute_genome::rng::StdRng;
use repute_obs::MapMetrics;

const SEEDS: [u64; 4] = [0x9E37, 0x79B9, 0x7F4A, 0x7C15];
const CASES_PER_SEED: usize = 64;

fn arb_metrics(rng: &mut StdRng) -> MapMetrics {
    let mut m = MapMetrics::new();
    for (name, _) in MapMetrics::new().fields() {
        m.set_field(name, rng.gen());
    }
    m
}

fn arb_words(rng: &mut StdRng, most: usize) -> Vec<u64> {
    (0..rng.gen_range(0..=most)).map(|_| rng.gen()).collect()
}

fn arb_checkpoint(rng: &mut StdRng) -> Checkpoint {
    Checkpoint {
        fingerprint: RunFingerprint {
            config: rng.gen(),
            workload: rng.gen(),
            shape: rng.gen(),
        },
        reads: rng.gen(),
        lengths: arb_words(rng, 3),
        counters: arb_words(rng, 12),
        totals: arb_metrics(rng),
        complete: rng.gen(),
    }
}

/// Up to nine sidecar records, each a charge of four arbitrary words,
/// with their encoding.
fn arb_records(rng: &mut StdRng) -> (Vec<ReadCharge>, Vec<u8>) {
    let records: Vec<ReadCharge> = (0..rng.gen_range(0usize..10))
        .map(|_| ReadCharge {
            work: rng.gen(),
            filtration: rng.gen(),
            prefilter: rng.gen(),
            verification: rng.gen(),
        })
        .collect();
    let mut bytes = Vec::new();
    for charge in &records {
        bytes.extend(work_record(charge));
    }
    (records, bytes)
}

fn decode_all(bytes: &[u8]) -> Vec<ReadCharge> {
    assert_eq!(bytes.len() % WORK_RECORD_BYTES, 0);
    bytes
        .chunks_exact(WORK_RECORD_BYTES)
        .map(|record| decode_work_record(record.try_into().expect("whole record")))
        .collect()
}

fn for_each_case(mut property: impl FnMut(&mut StdRng)) {
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..CASES_PER_SEED {
            property(&mut rng);
        }
    }
}

/// Any manifest round-trips through its codec, and any sidecar stream
/// through the record codec.
#[test]
fn streams_round_trip() {
    for_each_case(|rng| {
        let checkpoint = arb_checkpoint(rng);
        assert_eq!(Checkpoint::decode(&checkpoint.encode()), Ok(checkpoint));
        let (records, bytes) = arb_records(rng);
        assert_eq!(bytes.len(), records.len() * WORK_RECORD_BYTES);
        assert_eq!(decode_all(&bytes), records);
    });
}

/// A sidecar committed after any number of records, then written on
/// and torn by arbitrary bytes, reopens at its committed length holding
/// exactly the committed records.
#[test]
fn truncation_keeps_the_intact_prefix() {
    let dir = std::env::temp_dir().join(format!("repute-journal-props-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("run.work");
    for_each_case(|rng| {
        let (records, bytes) = arb_records(rng);
        let kept = rng.gen_range(0..=records.len());
        let mut file = AtomicFile::create(&path).expect("create").checkpointed();
        file.write_all(&bytes[..kept * WORK_RECORD_BYTES])
            .expect("write");
        let (_, committed) = file.flushed().expect("flush");
        file.write_all(&bytes[kept * WORK_RECORD_BYTES..])
            .expect("write");
        let torn: Vec<u8> = (0..rng.gen_range(0usize..200)).map(|_| rng.gen()).collect();
        file.write_all(&torn).expect("write");
        drop(file);
        drop(AtomicFile::reopen(&path, committed).expect("reopen"));
        let prefix = std::fs::read(tmp_path(&path)).expect("read");
        assert_eq!(decode_all(&prefix), records[..kept]);
    });
    std::fs::remove_dir_all(&dir).expect("clean up");
}

/// A single bit flip anywhere in a manifest, or a cut anywhere in it,
/// never decodes.
#[test]
fn tail_bit_flip_is_detected() {
    for_each_case(|rng| {
        let bytes = arb_checkpoint(rng).encode();
        let mut flipped = bytes.clone();
        let byte = rng.gen_range(0..bytes.len());
        let bit = rng.gen_range(0u8..8);
        flipped[byte] ^= 1 << bit;
        assert!(
            Checkpoint::decode(&flipped).is_err(),
            "bit {bit} of byte {byte}"
        );
        let cut = rng.gen_range(0..bytes.len());
        assert!(Checkpoint::decode(&bytes[..cut]).is_err(), "cut at {cut}");
    });
}
