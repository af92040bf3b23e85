//! Fixed regression corpus for the batch SWAR kernels: candidate counts
//! 1 to `2 × LANES + 1` chunked the way the verification engine chunks
//! them (full [`LANES`]-wide groups, then every remainder from 1 to
//! `LANES − 1` lanes), for both the
//! one-block and the blocked lane kernel, differentially against the
//! scalar oracle. Deterministic by construction — no RNG — so any
//! divergence bisects cleanly.

use repute_align::block::BlockMasks;
use repute_align::{verify_counting, BatchVerifier, Verification, VerifyCost, LANES};

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
    // 48bp exercises the one-block lane kernel, 100/150bp the blocked one
    // (2 and 3 blocks).
    for (at, m) in [(64usize, 48usize), (256, 100), (512, 150)] {
        let r = read(&reference, at, m);
        let masks = BlockMasks::new(&r);
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

/// A deterministic pseudo-random sequence (the high bits of an LCG): no
/// period a shifted alignment could exploit, unlike [`reference`].
fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 62) as u8
        })
        .collect()
}

/// The read `r` with the bases at `positions` substituted.
fn substituted(r: &[u8], positions: impl Iterator<Item = usize>) -> Vec<u8> {
    let mut w = r.to_vec();
    for (i, p) in positions.enumerate() {
        w[p] = (w[p] + 1 + (i % 3) as u8) % 4;
    }
    w
}

/// Windows around the blocked kernel's prefix screen, which runs the
/// read's first 64 bases over a window's first `len − (m − 64)` columns
/// and rejects the window unless they score ≤ δ somewhere there.
fn screen_windows(r: &[u8], delta: usize, seed: u64) -> Vec<Vec<u8>> {
    let m = r.len();
    let cat = |parts: &[&[u8]]| parts.concat();
    let pad = noise(seed, 20);
    let mut windows = Vec::new();
    // The read's copy ends at the window's end with δ substitutions in
    // its first 64 bases: its prefix first scores ≤ δ (exactly δ) at the
    // last screened column.
    if delta < 64 {
        let copy = substituted(r, (0..delta).map(|i| 2 + i * 56 / delta.max(1)));
        let w = cat(&[&pad, &copy]);
        let screened = w.len() - (m - 64);
        if delta <= 12 {
            assert!(verify_counting(&r[..64], &w[..screened - 1], delta as u32)
                .0
                .is_none());
            let hit = verify_counting(&r[..64], &w[..screened], delta as u32).0;
            assert_eq!(
                hit.map(|h| (h.distance, h.end)),
                Some((delta as u32, screened))
            );
        }
        windows.push(w);
    }
    // The read with δ and with δ + 1 bases deleted, spread evenly:
    // windows of m − δ and m − δ − 1 bases.
    for cut in [delta, delta + 1] {
        let keep = (0..m).filter(|&i| i * cut / m == (i + 1) * cut / m);
        windows.push(keep.map(|i| r[i]).collect());
    }
    // Only the prefix planted (the screen passes, the kernel misses) and
    // only the suffix planted (the screen rejects).
    windows.push(cat(&[&pad, &r[..64], &noise(seed + 1, m - 64), &pad]));
    windows.push(cat(&[&pad, &noise(seed + 2, 64), &r[64..], &pad]));
    // A true site and a window of noise.
    windows.push(cat(&[&pad[..delta.min(20)], r, &pad[..delta.min(20)]]));
    windows.push(noise(seed + 3, m + 2 * delta));
    windows
}

#[test]
fn prefix_screen_boundaries_match_scalar() {
    let mut verifier = BatchVerifier::new();
    for m in [65usize, 127, 128, 129, 150, 192, 200] {
        for delta in [1usize, 5, 12, 63, 64] {
            let seed = (m * 100 + delta) as u64;
            let r = noise(seed, m);
            let masks = BlockMasks::new(&r);
            let windows = screen_windows(&r, delta, seed);
            let empty: &[u8] = &[];
            // The engine's chunking, and chunks led by an empty window,
            // which leaves every other lane's screen to its own tail.
            for lead in [None, Some(empty)] {
                let width = LANES - usize::from(lead.is_some());
                for chunk in windows.chunks(width) {
                    let refs: Vec<&[u8]> = lead
                        .into_iter()
                        .chain(chunk.iter().map(|w| w.as_slice()))
                        .collect();
                    let mut got = Vec::new();
                    verifier.verify_lanes(&masks, &refs, delta as u32, &mut got);
                    assert_eq!(got.len(), refs.len());
                    for (l, w) in refs.iter().enumerate() {
                        assert_eq!(
                            got[l],
                            verify_counting(&r, w, delta as u32),
                            "m={m} δ={delta} len={} lead={}",
                            w.len(),
                            lead.is_some()
                        );
                    }
                }
            }
        }
    }
}

/// FNV-1a over 64-bit words.
fn fnv(digest: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *digest = (*digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// One `(hit, cost)` result folded into `digest`.
fn fold(digest: &mut u64, (hit, cost): &(Option<Verification>, VerifyCost)) {
    match hit {
        Some(v) => {
            fnv(digest, u64::from(v.distance));
            fnv(digest, v.end as u64);
        }
        None => fnv(digest, u64::MAX),
    }
    fnv(digest, cost.word_updates);
}

/// Window `n` of a read `r` at budget `δ`: `n` bases of noise, and in
/// every other window as much of the read as fits, centred, with up to
/// `δ` of its bases substituted.
fn pinned_window(r: &[u8], delta: usize, n: usize) -> Vec<u8> {
    let m = r.len();
    let mut w = noise((m * 1000 + delta * 100 + n) as u64, n);
    if n % 2 == 1 {
        let len = m.min(n);
        let at = (n - len) / 2;
        let subs = n % (delta + 1);
        let copy = substituted(&r[..len], (0..subs).map(|i| i * len / subs.max(1)));
        w[at..at + len].copy_from_slice(&copy);
    }
    w
}

/// Every read length from 1 to 130 bases (one, two and three blocks), δ
/// 0 to 8, and every window length from 0 to m + 2δ + 4: the scalar
/// oracle's `(hit, word_updates)`, and `verify_lanes` in chunks of 1 to
/// `LANES` lanes, equal and folded into one pinned digest. A change to
/// either kernel that moves a hit or a charge at any read length moves
/// the digest.
#[test]
fn results_at_every_read_length_are_pinned() {
    const PINNED: u64 = 0x0b2b_6545_b205_02c1;
    let mut verifier = BatchVerifier::new();
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    let mut got = Vec::new();
    let (mut hits, mut total) = (0, 0);
    for m in 1usize..=130 {
        let r = noise(m as u64, m);
        let masks = BlockMasks::new(&r);
        for delta in 0usize..=8 {
            let windows: Vec<Vec<u8>> = (0..=m + 2 * delta + 4)
                .map(|n| pinned_window(&r, delta, n))
                .collect();
            let scalar: Vec<_> = windows
                .iter()
                .map(|w| verify_counting(&r, w, delta as u32))
                .collect();
            scalar.iter().for_each(|res| fold(&mut digest, res));
            hits += scalar.iter().filter(|res| res.0.is_some()).count();
            total += scalar.len();
            for lanes in 1..=LANES {
                got.clear();
                for chunk in windows.chunks(lanes) {
                    let refs: Vec<&[u8]> = chunk.iter().map(|w| w.as_slice()).collect();
                    verifier.verify_lanes(&masks, &refs, delta as u32, &mut got);
                }
                assert_eq!(got, scalar, "m={m} δ={delta} lanes={lanes}");
                got.iter().for_each(|res| fold(&mut digest, res));
            }
        }
    }
    // It reads 9 531 hits of 91 845 windows: neither side is silenced.
    assert!(
        hits * 20 > total && hits * 2 < total,
        "{hits} hits of {total}"
    );
    assert_eq!(digest, PINNED, "digest {digest:#018x}");
}
