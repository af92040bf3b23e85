//! Fixed regression corpus for the batch SWAR kernels: candidate counts
//! 1 to `2 × LANES + 1` chunked the way the verification engine chunks
//! them (full [`LANES`]-wide groups, then every remainder from 1 to
//! `LANES − 1` lanes), for both the
//! single-word and the blocked kernel, differentially against the
//! scalar oracle. Deterministic by construction — no RNG — so any
//! divergence bisects cleanly.

use repute_align::{verify_counting, BatchVerifier, ReadMasks, Verification, VerifyCost, LANES};

/// A deterministic "reference" long enough to cut windows from.
fn reference() -> Vec<u8> {
    (0..2048usize)
        .map(|i| ((i * 7 + i / 5 + i / 31) % 4) as u8)
        .collect()
}

/// A deterministic read sliced out of the reference.
fn read(reference: &[u8], at: usize, len: usize) -> Vec<u8> {
    reference[at..at + len].to_vec()
}

/// Candidate window `c` for a read of length `m`: mixes true sites
/// (with 0–3 planted substitutions), shifted sites, unrelated windows,
/// short windows, and the empty window.
fn window(reference: &[u8], at: usize, m: usize, c: usize) -> Vec<u8> {
    match c % 7 {
        0 => reference[at..(at + m + 10).min(reference.len())].to_vec(), // true site
        1 => {
            let mut w = reference[at.saturating_sub(4)..at + m + 4].to_vec();
            for p in [m / 5, m / 2, m - 3] {
                w[4 + p] = (w[4 + p] + 1) % 4; // 3 substitutions
            }
            w
        }
        2 => reference[at + 300..at + 300 + m + 8].to_vec(), // unrelated
        3 => reference[at + 5..at + m].to_vec(),             // truncated site
        4 => Vec::new(),                                     // empty window
        5 => reference[at..at + m / 2].to_vec(),             // half window
        _ => {
            let mut w = reference[at..at + m + 6].to_vec();
            w[0] = (w[0] + 2) % 4; // edge substitution
            w
        }
    }
}

#[test]
fn lane_remainders_1_through_7_match_scalar() {
    let reference = reference();
    let mut verifier = BatchVerifier::new();
    // 48bp exercises the single-word kernel, 100/150bp the blocked one
    // (2 and 3 blocks).
    for (at, m) in [(64usize, 48usize), (256, 100), (512, 150)] {
        let r = read(&reference, at, m);
        let masks = ReadMasks::new(&r);
        for total in 1usize..=2 * LANES + 1 {
            let windows: Vec<Vec<u8>> = (0..total).map(|c| window(&reference, at, m, c)).collect();
            let mut got: Vec<(Option<Verification>, VerifyCost)> = Vec::new();
            // Chunk exactly like the engine: LANES at a time, remainder
            // last (with 8 lanes, total=17 → 8+8+1, total=13 → 8+5, ...).
            for chunk in windows.chunks(LANES) {
                let refs: Vec<&[u8]> = chunk.iter().map(|w| w.as_slice()).collect();
                verifier.verify_lanes(&masks, &refs, 5, &mut got);
            }
            assert_eq!(got.len(), total);
            for (c, w) in windows.iter().enumerate() {
                let expected = verify_counting(&r, w, 5);
                assert_eq!(got[c], expected, "m={m} total={total} candidate={c}");
            }
        }
    }
}

#[test]
fn corpus_contains_accepts_and_rejects() {
    // Guard against the corpus degenerating into all-accept or
    // all-reject (which would silence half the differential).
    let reference = reference();
    let r = read(&reference, 256, 100);
    let mut accepts = 0;
    let mut rejects = 0;
    for c in 0..7 {
        let w = window(&reference, 256, 100, c);
        match verify_counting(&r, &w, 5).0 {
            Some(_) => accepts += 1,
            None => rejects += 1,
        }
    }
    assert!(accepts >= 2, "corpus lost its accepting windows");
    assert!(rejects >= 2, "corpus lost its rejecting windows");
}
