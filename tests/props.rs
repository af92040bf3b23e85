//! Properties of the core substrates over arbitrary inputs: one loop per
//! property over the vendored PRNG with a fixed seed set, so they run
//! offline and in tier-1 (the pattern of
//! `crates/prefilter/tests/props.rs`).

use repute_align::{block, dp, myers, verify};
use repute_filter::freq::FreqTable;
use repute_filter::oss::{OssParams, OssSolver};
use repute_genome::rng::StdRng;
use repute_genome::DnaSeq;
use repute_index::{BiFmIndex, FmIndex, SuffixArray};
use repute_obs::Samples;

const SEEDS: [u64; 4] = [0x9E37, 0x79B9, 0x7F4A, 0x7C15];
const CASES_PER_SEED: usize = 64;

/// Runs `property` on `cases_per_seed` cases of every seed; the context
/// string it is handed names the case in assertion messages.
fn for_each_case(cases_per_seed: usize, mut property: impl FnMut(&mut StdRng, &str)) {
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..cases_per_seed {
            property(&mut rng, &format!("seed {seed:#x}, case {case}"));
        }
    }
}

fn codes(rng: &mut StdRng, len: std::ops::Range<usize>) -> Vec<u8> {
    let len = rng.gen_range(len);
    (0..len).map(|_| rng.gen_range(0u8..4)).collect()
}

/// A text and a non-empty pattern cut from it (no longer than the
/// text).
fn text_and_pattern(
    rng: &mut StdRng,
    text_len: std::ops::Range<usize>,
    pattern_len: std::ops::Range<usize>,
) -> (Vec<u8>, Vec<u8>) {
    let text = codes(rng, text_len);
    let len = rng.gen_range(pattern_len).min(text.len());
    let start = rng.gen_range(0..=text.len() - len);
    let pattern = text[start..start + len].to_vec();
    (text, pattern)
}

#[test]
fn dnaseq_round_trips_through_string() {
    for_each_case(CASES_PER_SEED, |rng, case| {
        let seq = DnaSeq::from_codes(&codes(rng, 0..300)).expect("valid codes");
        let back: DnaSeq = seq.to_string().parse().expect("parseable");
        assert_eq!(back, seq, "{case}");
    });
}

#[test]
fn reverse_complement_is_involution() {
    for_each_case(CASES_PER_SEED, |rng, case| {
        let seq = DnaSeq::from_codes(&codes(rng, 0..200)).expect("valid codes");
        assert_eq!(seq.reverse_complement().reverse_complement(), seq, "{case}");
    });
}

#[test]
fn complement_preserves_gc() {
    for_each_case(CASES_PER_SEED, |rng, case| {
        let seq = DnaSeq::from_codes(&codes(rng, 1..200)).expect("valid codes");
        let gc = seq.gc_content();
        assert!(
            (seq.reverse_complement().gc_content() - gc).abs() < 1e-12,
            "{case}"
        );
    });
}

#[test]
fn suffix_array_is_sorted_permutation() {
    for_each_case(CASES_PER_SEED, |rng, case| {
        let v = codes(rng, 1..400);
        let sa = SuffixArray::from_codes(&v);
        let mut seen = vec![false; v.len()];
        for &p in sa.positions() {
            assert!(!seen[p as usize], "{case}: position {p} twice");
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "{case}");
        for w in sa.positions().windows(2) {
            assert!(v[w[0] as usize..] < v[w[1] as usize..], "{case}");
        }
    });
}

#[test]
fn fm_count_matches_naive() {
    for_each_case(CASES_PER_SEED, |rng, case| {
        let (text, pattern) = text_and_pattern(rng, 1..400, 1..12);
        let seq = DnaSeq::from_codes(&text).expect("valid codes");
        let fm = FmIndex::build(&seq);
        let naive = text
            .windows(pattern.len())
            .filter(|w| **w == pattern[..])
            .count() as u32;
        assert_eq!(fm.count(&pattern), naive, "{case}");
    });
}

#[test]
fn fm_locate_positions_really_match() {
    for_each_case(CASES_PER_SEED, |rng, case| {
        let (text, pattern) = text_and_pattern(rng, 30..300, 6..14);
        let seq = DnaSeq::from_codes(&text).expect("valid codes");
        let fm = FmIndex::build(&seq);
        let interval = fm.interval(&pattern).expect("the pattern occurs");
        for p in fm.locate(interval, usize::MAX) {
            let p = p as usize;
            assert_eq!(&text[p..p + pattern.len()], &pattern[..], "{case}");
        }
    });
}

#[test]
fn myers_agrees_with_dp() {
    for_each_case(CASES_PER_SEED, |rng, case| {
        let pattern = codes(rng, 1..64);
        let text = codes(rng, 0..100);
        let expected = dp::semi_global(&pattern, &text).expect("non-empty pattern");
        let masks = myers::PatternMasks::new(&pattern);
        let got = myers::search(&masks, &text, pattern.len() as u32).expect("within m");
        assert_eq!(
            (got.distance, got.end),
            (expected.distance, expected.end),
            "{case}"
        );
    });
}

#[test]
fn blocked_myers_agrees_with_dp() {
    for_each_case(CASES_PER_SEED, |rng, case| {
        let pattern = codes(rng, 64..200);
        let text = codes(rng, 0..250);
        let expected = dp::semi_global(&pattern, &text).expect("non-empty pattern");
        let masks = block::BlockMasks::new(&pattern);
        let got = block::search(&masks, &text, pattern.len() as u32).expect("within m");
        assert_eq!(
            (got.distance, got.end),
            (expected.distance, expected.end),
            "{case}"
        );
    });
}

#[test]
fn bidirectional_extension_matches_plain_backward_search() {
    for_each_case(CASES_PER_SEED, |rng, case| {
        let (text, pattern) = text_and_pattern(rng, 20..250, 1..14);
        let len = pattern.len();
        let seq = DnaSeq::from_codes(&text).expect("valid codes");
        let bi = BiFmIndex::build(&seq);
        // Grow the pattern in an arbitrary left/right order.
        let mut lo = len / 2;
        let mut hi = lo;
        let mut iv = bi.init();
        while hi - lo < len {
            if (lo > 0 && rng.gen::<bool>()) || hi == len {
                lo -= 1;
                iv = bi.extend_left(iv, pattern[lo]);
            } else {
                iv = bi.extend_right(iv, pattern[hi]);
                hi += 1;
            }
        }
        assert_eq!(Some(iv.fwd), bi.forward().interval(&pattern), "{case}");
        assert_eq!(iv.fwd.width(), iv.rev.width(), "{case}");
    });
}

#[test]
fn verify_is_monotone_in_budget() {
    for_each_case(CASES_PER_SEED, |rng, case| {
        let read = codes(rng, 20..120);
        let mut window = codes(rng, 0..200);
        // Arbitrary windows almost never verify: plant the read's head in
        // every other one.
        if rng.gen::<bool>() {
            let len = read.len().min(window.len());
            window[..len].copy_from_slice(&read[..len]);
        }
        let k = rng.gen_range(0u32..8);
        if let Some(tight) = verify(&read, &window, k) {
            let loose = verify(&read, &window, k + 3).expect("loosening cannot lose a hit");
            assert!(loose.distance <= tight.distance, "{case}");
        }
    });
}

#[test]
fn edit_distance_triangle_inequality() {
    for_each_case(CASES_PER_SEED, |rng, case| {
        let (a, b, c) = (codes(rng, 0..60), codes(rng, 0..60), codes(rng, 0..60));
        let ab = dp::edit_distance(&a, &b);
        let bc = dp::edit_distance(&b, &c);
        let ac = dp::edit_distance(&a, &c);
        assert!(ac <= ab + bc, "{case}: {ac} > {ab} + {bc}");
    });
}

#[test]
fn percentiles_are_monotone_and_observed() {
    for_each_case(CASES_PER_SEED, |rng, case| {
        let n = rng.gen_range(0usize..500);
        let values: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 1e9).collect();
        let samples = Samples::from_values(&values);
        let (p50, p90, p99) = samples.p50_p90_p99();
        // Nearest-rank percentiles never invert…
        assert!(p50 <= p90 && p90 <= p99, "{case}: {p50} {p90} {p99}");
        if values.is_empty() {
            // …and the empty population reports zeros, not NaN.
            assert_eq!((p50, p90, p99), (0.0, 0.0, 0.0), "{case}");
        } else {
            // …and every percentile is an actually observed value.
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            for p in [p50, p90, p99] {
                assert!(values.contains(&p), "{case}: {p} not an observed value");
            }
            assert_eq!(samples.percentile(1.0), hi, "{case}");
        }
    });
}

#[test]
fn cigar_traceback_is_consistent() {
    for_each_case(CASES_PER_SEED, |rng, case| {
        let pattern = codes(rng, 1..60);
        let text = codes(rng, 1..90);
        let aln = dp::semi_global_with_cigar(&pattern, &text).expect("non-empty");
        assert_eq!(aln.cigar.edit_distance(), aln.distance, "{case}");
        assert_eq!(aln.cigar.pattern_len(), pattern.len(), "{case}");
        assert_eq!(aln.cigar.text_len(), aln.end - aln.start, "{case}");
        // Traceback distance equals the scan distance.
        let scan = dp::semi_global(&pattern, &text).expect("non-empty");
        assert_eq!(aln.distance, scan.distance, "{case}");
    });
}

/// The DP's selection is a valid partition and no worse than a random
/// valid one. More expensive than the rest: eight cases per seed.
#[test]
fn oss_partition_is_valid_and_no_worse_than_random_partitions() {
    for_each_case(8, |rng, case| {
        let (delta, s_min, n) = (3u32, 10usize, 80usize);
        let text = codes(rng, 2000..6000);
        let off = rng.gen_range(0..=text.len() - n);
        let seq = DnaSeq::from_codes(&text).expect("valid codes");
        let fm = FmIndex::build(&seq);
        let read = &text[off..off + n];
        let params = OssParams::new(delta, s_min).expect("valid");
        let table = FreqTable::build(&fm, read, &params);
        let outcome = OssSolver::new(params).select(read, &table);
        assert!(outcome.selection.is_valid_partition(n, s_min), "{case}");

        let mut cuts = vec![0usize];
        for remaining in (1..=delta as usize).rev() {
            let min_cut = cuts[cuts.len() - 1] + s_min;
            let max_cut = n - s_min * remaining;
            cuts.push(rng.gen_range(min_cut..=max_cut));
        }
        cuts.push(n);
        let random_total: u64 = cuts
            .windows(2)
            .map(|w| u64::from(table.count(w[0], w[1])))
            .sum();
        assert!(
            outcome.selection.total_candidates() <= random_total,
            "{case}: DP {} worse than random partition {random_total}",
            outcome.selection.total_candidates(),
        );
    });
}
