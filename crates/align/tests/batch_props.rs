//! Property-based differential: the batch SWAR kernels against the
//! scalar verification oracle, over random read/window batches — plain
//! loops over the vendored PRNG with a fixed seed set (the pattern of
//! `crates/prefilter/tests/props.rs`), so they run offline and in tier-1.

use repute_align::{verify_counting, BatchVerifier, ReadMasks, LANES};
use repute_genome::rng::StdRng;

const SEEDS: [u64; 4] = [0x9E37, 0x79B9, 0x7F4A, 0x7C15];
const CASES_PER_SEED: usize = 64;

fn codes(rng: &mut StdRng, len: std::ops::Range<usize>) -> Vec<u8> {
    let len = rng.gen_range(len);
    (0..len).map(|_| rng.gen_range(0u8..4)).collect()
}

/// 1..=LANES windows of independently random lengths against one read:
/// every lane's `(distance, end)` result and word-update accounting must
/// equal the scalar per-candidate path's, masks rebuilt per call.
#[test]
fn batch_lanes_match_scalar_oracle() {
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..CASES_PER_SEED {
            let read = codes(&mut rng, 1..200);
            let lanes = rng.gen_range(1..=LANES);
            let windows: Vec<Vec<u8>> = (0..lanes).map(|_| codes(&mut rng, 0..240)).collect();
            let k = rng.gen_range(0u32..24);
            let masks = ReadMasks::new(&read);
            let refs: Vec<&[u8]> = windows.iter().map(|w| w.as_slice()).collect();
            let mut got = Vec::new();
            BatchVerifier::new().verify_lanes(&masks, &refs, k, &mut got);
            assert_eq!(got.len(), refs.len());
            for (lane, window) in refs.iter().enumerate() {
                assert_eq!(
                    got[lane],
                    verify_counting(&read, window, k),
                    "seed {seed:#x}, case {case}, lane {lane}"
                );
            }
        }
    }
}

/// One window that truly contains the read (with up to five
/// substitutions) between two copies of a flank: batch and scalar agree
/// on acceptance and distance.
#[test]
fn embedded_mutated_reads_are_found_by_both_paths() {
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..CASES_PER_SEED {
            let read = codes(&mut rng, 32..160);
            let flank = codes(&mut rng, 0..64);
            let k = rng.gen_range(0u32..12);
            let mut copy = read.clone();
            for i in 0..rng.gen_range(0u8..6) {
                let p = rng.gen_range(0..copy.len());
                copy[p] = (copy[p] + 1 + i % 3) % 4;
            }
            let window = [&flank[..], &copy[..], &flank[..]].concat();
            let masks = ReadMasks::new(&read);
            let mut got = Vec::new();
            BatchVerifier::new().verify_lanes(&masks, &[window.as_slice()], k, &mut got);
            assert_eq!(
                got[0],
                verify_counting(&read, &window, k),
                "seed {seed:#x}, case {case}"
            );
        }
    }
}
