//! Properties of the filters over arbitrary inputs, against the
//! verifier as oracle: one loop per property over the vendored PRNG
//! with a fixed seed set, so they run offline and in tier-1.
//! `zero_false_negatives.rs` draws reads and windows from one synthetic
//! reference; here both are arbitrary, and so are their lengths.

use repute_align::verify;
use repute_genome::rng::StdRng;
use repute_prefilter::{Candidate, PreFilter, QgramBins, QgramFilter, ShdFilter};

const SEEDS: [u64; 4] = [0x9E37, 0x79B9, 0x7F4A, 0x7C15];
const CASES_PER_SEED: usize = 128;

fn codes(rng: &mut StdRng, len: std::ops::Range<usize>) -> Vec<u8> {
    let len = rng.gen_range(len);
    (0..len).map(|_| rng.gen_range(0u8..4)).collect()
}

/// Zero false negatives, SHD: whatever the verifier accepts within δ,
/// the filter must accept — over arbitrary reads, windows and
/// δ ∈ 3..=7. A window shares a stretch with its read in half the
/// cases, or almost none would verify.
#[test]
fn shd_never_rejects_verifiable_windows() {
    let mut verifiable = 0;
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..CASES_PER_SEED {
            let read = codes(&mut rng, 40..160);
            let mut window = codes(&mut rng, 40..200);
            let delta = rng.gen_range(3u32..=7);
            if case % 2 == 0 {
                let len = read.len().min(window.len());
                let at = rng.gen_range(0..=window.len() - len);
                window[at..at + len].copy_from_slice(&read[..len]);
            }
            if verify(&read, &window, delta).is_some() {
                verifiable += 1;
                let verdict = ShdFilter::new().examine_codes(&read, &window, delta);
                assert!(
                    verdict.accept,
                    "SHD rejected a verifiable window (seed {seed:#x}, case {case})"
                );
            }
        }
    }
    assert!(verifiable >= 32, "only {verifiable} verifiable windows");
}

/// Zero false negatives, q-gram bins: windows cut from a random
/// reference, reads arbitrary or (every other case) cut from the window.
#[test]
fn qgram_never_rejects_verifiable_windows() {
    let mut verifiable = 0;
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..CASES_PER_SEED {
            let reference = codes(&mut rng, 1024..2048);
            let start = rng.gen_range(0..reference.len());
            let end = (start + rng.gen_range(60usize..200)).min(reference.len());
            let window = &reference[start..end];
            let delta = rng.gen_range(3u32..=7);
            let mut read = codes(&mut rng, 40..160);
            if case % 2 == 0 {
                read.truncate(window.len());
                let len = read.len();
                read.copy_from_slice(&window[..len]);
            }
            if verify(&read, window, delta).is_some() {
                verifiable += 1;
                let bins = QgramBins::build_default(&reference);
                let verdict = QgramFilter::new(&bins).examine(&Candidate {
                    read: &read,
                    window,
                    window_start: start,
                    delta,
                });
                assert!(
                    verdict.accept,
                    "q-gram filter rejected a verifiable window (seed {seed:#x}, case {case})"
                );
            }
        }
    }
    assert!(verifiable >= 32, "only {verifiable} verifiable windows");
}

/// Planted mutants (≤ δ substitutions applied to the window core) must
/// survive both filters — the high-yield true-positive generator.
#[test]
fn planted_mutants_survive_both_filters() {
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..CASES_PER_SEED {
            let reference = codes(&mut rng, 2048..3072);
            let m = rng.gen_range(70usize..140);
            let delta = rng.gen_range(3u32..=7);
            let slack = delta as usize;
            let span = m + 2 * slack;
            let wstart = rng.gen_range(0..reference.len() - span);
            let window = &reference[wstart..wstart + span];
            let mut read = reference[wstart + slack..wstart + slack + m].to_vec();
            for _ in 0..rng.gen_range(0..=delta) {
                let i = rng.gen_range(0..m);
                read[i] = (read[i] + 1) % 4;
            }
            assert!(
                verify(&read, window, delta).is_some(),
                "≤ δ substitutions must verify"
            );
            let context = format!("seed {seed:#x}, case {case}, m={m}, δ={delta}");
            assert!(
                ShdFilter::new().examine_codes(&read, window, delta).accept,
                "SHD rejected a planted mutant ({context})"
            );
            let bins = QgramBins::build_default(&reference);
            let candidate = Candidate {
                read: &read,
                window,
                window_start: wstart,
                delta,
            };
            assert!(
                QgramFilter::new(&bins).examine(&candidate).accept,
                "q-gram filter rejected a planted mutant ({context})"
            );
        }
    }
}
