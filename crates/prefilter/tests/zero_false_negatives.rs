//! The filters' load-bearing contract, checked against the verifier:
//! any candidate window `repute_align::verify` accepts within δ must
//! survive both pre-alignment filters. Reads and windows come from one
//! synthetic reference, as the engine cuts them; `props.rs` holds the
//! same contract over arbitrary reads and windows.

use repute_align::verify;
use repute_genome::rng::StdRng;
use repute_genome::synth::ReferenceBuilder;
use repute_prefilter::{Candidate, PreFilter, QgramBins, QgramFilter, ShdFilter};

const REF_LEN: usize = 8_192;

fn reference_codes() -> Vec<u8> {
    ReferenceBuilder::new(REF_LEN)
        .seed(0xC0FFEE)
        .build()
        .to_codes()
}

/// Applies up to `edits` random substitutions/insertions/deletions.
fn mutate(rng: &mut StdRng, segment: &[u8], edits: u32) -> Vec<u8> {
    let mut read = segment.to_vec();
    for _ in 0..edits {
        if read.len() < 2 {
            break;
        }
        let pos = rng.gen_range(0..read.len());
        match rng.gen_range(0u8..3) {
            0 => read[pos] = (read[pos] + rng.gen_range(1u8..4)) % 4,
            1 => read.insert(pos, rng.gen_range(0u8..4)),
            _ => {
                read.remove(pos);
            }
        }
    }
    read
}

fn check_zero_fn(
    codes: &[u8],
    bins: &QgramBins,
    delta: u32,
    seed: u64,
    trials: usize,
    read_lens: std::ops::RangeInclusive<usize>,
) -> (u64, u64) {
    let shd = ShdFilter::new();
    let qgram = QgramFilter::new(bins);
    let mut rng = StdRng::seed_from_u64(seed);
    let slack = delta as usize;
    let mut oracle_accepts = 0u64;
    let mut shd_rejects = 0u64;
    for trial in 0..trials {
        let m = rng.gen_range(read_lens.clone());
        let pos = rng.gen_range(slack..REF_LEN - m - 2 * slack);
        let wstart = pos - slack;
        let window = &codes[wstart..pos + m + slack];
        // Half the trials plant a ≤ δ-edit mutant of the window's
        // core; the other half throw unrelated reads at it.
        let read = if trial % 2 == 0 {
            let edits = rng.gen_range(0..=delta);
            mutate(&mut rng, &codes[pos..pos + m], edits)
        } else {
            (0..m).map(|_| rng.gen_range(0u8..4)).collect()
        };
        let candidate = Candidate {
            read: &read,
            window,
            window_start: wstart,
            delta,
        };
        let oracle = verify(&read, window, delta);
        let shd_verdict = shd.examine_codes(&read, window, delta);
        let qgram_verdict = qgram.examine(&candidate);
        if oracle.is_some() {
            oracle_accepts += 1;
            assert!(
                shd_verdict.accept,
                "SHD false negative: trial {trial}, δ={delta}, m={}, pos={pos}",
                read.len()
            );
            assert!(
                qgram_verdict.accept,
                "q-gram false negative: trial {trial}, δ={delta}, m={}, pos={pos}",
                read.len()
            );
        } else if !shd_verdict.accept {
            shd_rejects += 1;
        }
    }
    (oracle_accepts, shd_rejects)
}

#[test]
fn zero_false_negatives_across_delta_range() {
    let codes = reference_codes();
    let bins = QgramBins::build_default(&codes);
    for delta in 3..=7u32 {
        let (accepts, rejects) = check_zero_fn(
            &codes,
            &bins,
            delta,
            0x5EED + u64::from(delta),
            200,
            70..=150,
        );
        // The sweep must actually exercise both sides of the oracle.
        assert!(accepts > 20, "δ={delta}: only {accepts} verifiable trials");
        assert!(
            rejects > 20,
            "δ={delta}: SHD rejected only {rejects} junk windows"
        );
    }
}

#[test]
fn zero_false_negatives_with_narrow_bins_and_custom_q() {
    let codes = reference_codes();
    // Narrow bins + smaller q: the most aggressive (and most
    // contamination-free) q-gram configuration still may not reject a
    // verifiable window.
    let bins = QgramBins::build(&codes, 4, 128);
    for delta in 3..=5u32 {
        let (accepts, _) = check_zero_fn(
            &codes,
            &bins,
            delta,
            0xAB5 + u64::from(delta),
            120,
            80..=120,
        );
        assert!(accepts > 10, "δ={delta}: only {accepts} verifiable trials");
    }
}

#[test]
fn zero_false_negatives_on_multiword_reads() {
    let codes = reference_codes();
    let bins = QgramBins::build_default(&codes);
    // 129..=200-base reads span 3–4 mask words: exercises every
    // cross-word shift path in the SHD masks.
    let (accepts, _) = check_zero_fn(&codes, &bins, 6, 0xB16, 120, 129..=200);
    assert!(accepts > 10, "only {accepts} verifiable trials");
}

#[test]
fn shd_accepts_every_planted_offset_with_indel_drift() {
    // Alignments that start δ bases into the slack (pure offset, no
    // edits) are the cases the 2δ+1-shift formulation misses.
    let codes = reference_codes();
    let shd = ShdFilter::new();
    for delta in 1..=7u32 {
        let slack = delta as usize;
        for offset in 0..=2 * slack {
            let wstart = 3000;
            let m = 100;
            let window = &codes[wstart..wstart + m + 2 * slack];
            let read = &codes[wstart + offset..wstart + offset + m];
            assert!(
                verify(read, window, delta).is_some(),
                "oracle rejected exact offset {offset}"
            );
            assert!(
                shd.examine_codes(read, window, delta).accept,
                "SHD rejected exact match at offset {offset}, δ={delta}"
            );
        }
    }
}

#[test]
fn shd_accepts_substitutions_four_bases_apart() {
    // Eight substitutions four bases apart leave 3-base match runs
    // between them, which the cutoff of 3 keeps. When the cutoff was a
    // knob, 4 amended those runs away, the merged streaks cost more
    // than δ under the streak bound, and 12 of these 200 verifiable
    // windows were rejected (cutoffs 1 to 3 rejected none).
    let codes = reference_codes();
    let bins = QgramBins::build_default(&codes);
    let shd = ShdFilter::new();
    let qgram = QgramFilter::new(&bins);
    let (delta, m) = (8u32, 100usize);
    let slack = delta as usize;
    for i in 0..200usize {
        let pos = slack + 40 * i;
        let window = &codes[pos - slack..pos + m + slack];
        let mut read = codes[pos..pos + m].to_vec();
        let first = i * 7 % (m - 28);
        for k in 0..8 {
            let at = first + 4 * k;
            read[at] = (read[at] + 1 + (i % 3) as u8) % 4;
        }
        assert!(
            verify(&read, window, delta).is_some(),
            "window {i}: the verifier rejected eight substitutions at δ={delta}"
        );
        assert!(
            shd.examine_codes(&read, window, delta).accept,
            "window {i}: SHD false negative, substitutions from {first} four apart"
        );
        let candidate = Candidate {
            read: &read,
            window,
            window_start: pos - slack,
            delta,
        };
        assert!(
            qgram.examine(&candidate).accept,
            "window {i}: q-gram false negative, substitutions from {first} four apart"
        );
    }
}
