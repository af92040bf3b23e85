//! Index persistence: a saved index must answer exactly like the one it
//! was built from, across real files.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::sync::Arc;

use repute_core::{ReputeConfig, ReputeMapper};
use repute_genome::reads::ReadSimulator;
use repute_genome::synth::ReferenceBuilder;
use repute_genome::DnaSeq;
use repute_index::FmIndex;
use repute_mappers::multiref::ReferenceSet;
use repute_mappers::{IndexedReference, Mapper};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("repute-serial-{tag}"));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn fm_index_file_round_trip() {
    let dir = temp_dir("fm");
    let reference = ReferenceBuilder::new(80_000).seed(9001).build();
    let codes = reference.to_codes();
    let fm = FmIndex::builder().sa_sample(8).build(&reference);
    let path = dir.join("ref.fm");
    fm.write_to(BufWriter::new(File::create(&path).expect("create")))
        .expect("write");
    let back = FmIndex::read_from(BufReader::new(File::open(&path).expect("open"))).expect("read");
    for start in (0..79_000).step_by(1_111) {
        let pattern = &codes[start..start + 17];
        assert_eq!(back.count(pattern), fm.count(pattern));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn damaged_fm_streams_are_typed_errors() {
    use std::io::ErrorKind::{InvalidData, UnexpectedEof};
    let fm = FmIndex::build(&ReferenceBuilder::new(2_000).seed(9005).build());
    let mut good = Vec::new();
    fm.write_to(&mut good).expect("write");
    assert!(FmIndex::read_from(good.as_slice()).is_ok());
    // The trailing FNV-64 covers every byte, so no single flipped bit
    // can yield an index at all, let alone one that answers differently.
    for cut in 0..good.len() {
        let err = FmIndex::read_from(&good[..cut]).expect_err("truncated stream");
        assert!(
            matches!(err.kind(), InvalidData | UnexpectedEof),
            "cut at {cut}: {err}"
        );
    }
    for bit in 0..good.len() * 8 {
        let mut bad = good.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        let err = FmIndex::read_from(bad.as_slice()).expect_err("corrupt stream");
        assert!(
            matches!(err.kind(), InvalidData | UnexpectedEof),
            "bit {bit}: {err}"
        );
    }
    // A version 1 stream (byte BWT, no checksum) says what to do about it.
    let mut v1 = b"RPFM\x01\x00".to_vec();
    v1.extend_from_slice(&[0; 64]);
    let err = FmIndex::read_from(v1.as_slice()).expect_err("old version");
    assert_eq!(err.kind(), InvalidData);
    let message = err.to_string();
    assert!(
        message.contains("version 1") && message.contains("repute index"),
        "{message}"
    );
}

#[test]
fn locate_after_a_round_trip_equals_the_naive_scan() {
    let reference = ReferenceBuilder::new(3_000).seed(9006).build();
    let codes = reference.to_codes();
    for sa_sample in [1usize, 4, 8, 32] {
        let fm = FmIndex::builder().sa_sample(sa_sample).build(&reference);
        let mut bytes = Vec::new();
        fm.write_to(&mut bytes).expect("write");
        let back = FmIndex::read_from(bytes.as_slice()).expect("read");
        for start in (0..codes.len() - 12).step_by(37) {
            for len in [3usize, 6, 12] {
                let pattern = &codes[start..start + len];
                let naive: Vec<u32> = (0..=codes.len() - len)
                    .filter(|&at| &codes[at..at + len] == pattern)
                    .map(|at| at as u32)
                    .collect();
                let interval = back.interval(pattern).expect("pattern occurs");
                let mut located = back.locate(interval, usize::MAX);
                located.sort_unstable();
                assert_eq!(located, naive, "sa_sample {sa_sample} at {start} len {len}");
            }
        }
    }
}

#[test]
fn mapping_through_a_saved_reference_set_is_identical() {
    let dir = temp_dir("set");
    let set = ReferenceSet::build(vec![
        (
            "chrA".into(),
            ReferenceBuilder::new(60_000).seed(9002).build(),
        ),
        (
            "chrB".into(),
            ReferenceBuilder::new(30_000).seed(9003).build(),
        ),
    ]);
    let path = dir.join("set.rpx");
    set.write_to(BufWriter::new(File::create(&path).expect("create")))
        .expect("write");
    let restored =
        ReferenceSet::read_from(BufReader::new(File::open(&path).expect("open"))).expect("read");

    let reads: Vec<DnaSeq> = ReadSimulator::new(100, 20)
        .seed(9004)
        .simulate(set.indexed().seq())
        .into_iter()
        .map(|r| r.seq)
        .collect();
    let config = ReputeConfig::new(3, 15).expect("valid");
    let original = ReputeMapper::new(Arc::clone(set.indexed()), config);
    let reloaded = ReputeMapper::new(Arc::clone(restored.indexed()), config);
    for read in &reads {
        assert_eq!(
            original.map_read(read).mappings,
            reloaded.map_read(read).mappings,
            "saved index diverged"
        );
    }
    // Record metadata survives too.
    assert_eq!(restored.records(), set.records());
    assert_eq!(restored.resolve(60_010), Some((1, 10)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn indexed_reference_rejects_foreign_files() {
    let dir = temp_dir("bad");
    let path = dir.join("junk.rpx");
    std::fs::write(&path, b"definitely not an index").expect("write junk");
    let err = IndexedReference::read_from(BufReader::new(File::open(&path).expect("open")));
    assert!(err.is_err());
    std::fs::remove_dir_all(&dir).ok();
}
