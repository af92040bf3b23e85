//! The filter kernels held to the code they replaced.
//!
//! PR 18 rebuilt both kernels for the host clock — SHD on packed
//! bit-planes, the q-gram probe branch-free over merged bins — under the
//! contract that [`Verdict`] (accept **and** `cost_words`) is identical
//! for every input, because every simulated second and every
//! `BENCH_*.json` gate is a sum of those costs. The `oracle` module
//! below is the pre-PR-18 code, copied verbatim before the kernels were
//! touched: the per-base mask builder, the slice amendment, the bit-loop
//! streak bound, the branchy probe loop and the bin builder they probe.
//! Nothing else in the repository calls it. After touching a kernel in
//! `src/`, this is the test to run first.

use std::fmt::Debug;

use repute_genome::rng::StdRng;
use repute_prefilter::{Candidate, PreFilter, QgramBins, QgramFilter, ShdFilter, Verdict};

mod common;

mod oracle {
    use repute_prefilter::Verdict;

    const STACK_WORDS: usize = 8;

    pub fn shl1(mask: &[u64], out: &mut [u64], carry_in: bool) {
        debug_assert_eq!(mask.len(), out.len());
        let mut carry = u64::from(carry_in);
        for (o, &w) in out.iter_mut().zip(mask) {
            *o = (w << 1) | carry;
            carry = w >> 63;
        }
    }

    pub fn shr1(mask: &[u64], out: &mut [u64], carry_in: bool) {
        debug_assert_eq!(mask.len(), out.len());
        let mut carry = u64::from(carry_in) << 63;
        for (o, &w) in out.iter_mut().zip(mask).rev() {
            *o = (w >> 1) | carry;
            carry = w << 63;
        }
    }

    pub fn clear_tail(mask: &mut [u64], len: usize) {
        let tail = len % 64;
        if tail != 0 {
            if let Some(last) = mask.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    pub fn popcount(mask: &[u64]) -> u32 {
        mask.iter().map(|w| w.count_ones()).sum()
    }

    pub fn streak_edit_bound(mask: &[u64], len: usize) -> u64 {
        let mut bound = 0u64;
        let mut run = 0usize;
        for i in 0..len {
            if mask[i / 64] >> (i % 64) & 1 != 0 {
                run += 1;
            } else if run > 0 {
                bound += run_cost(run);
                run = 0;
            }
        }
        if run > 0 {
            bound += run_cost(run);
        }
        bound
    }

    fn run_cost(len: usize) -> u64 {
        if len <= 2 {
            1
        } else {
            ((len - 2) as u64).div_ceil(3)
        }
    }

    /// `ShdFilter::examine_codes` as it stood, `self.amend_below` made
    /// a parameter.
    pub fn examine_codes(amend_below: usize, read: &[u8], window: &[u8], delta: u32) -> Verdict {
        let m = read.len();
        let wlen = window.len();
        if m < amend_below {
            return Verdict::accept(u64::from(m > 0));
        }
        if m > wlen + delta as usize {
            return Verdict::reject(1);
        }
        let words = m.div_ceil(64);
        let pad = (words * 64 - m) as u32;
        let delta_i = delta as isize;
        let s_hi = (wlen + delta as usize - m) as isize;

        let mut stack = [[0u64; STACK_WORDS]; 6];
        let mut heap: Vec<u64> = Vec::new();
        let [acc, mask, run_end, scratch_a, scratch_b, keep] = if words <= STACK_WORDS {
            let [a, b, c, d, e, f] = &mut stack;
            [
                &mut a[..words],
                &mut b[..words],
                &mut c[..words],
                &mut d[..words],
                &mut e[..words],
                &mut f[..words],
            ]
        } else {
            heap.resize(6 * words, 0u64);
            let (a, rest) = heap.split_at_mut(words);
            let (b, rest) = rest.split_at_mut(words);
            let (c, rest) = rest.split_at_mut(words);
            let (d, rest) = rest.split_at_mut(words);
            let (e, f) = rest.split_at_mut(words);
            [a, b, c, d, e, f]
        };
        acc.fill(u64::MAX);
        let mut masks_built = 0u64;
        let mut accepted_early = false;
        for s in -delta_i..=s_hi {
            build_shift_mask(read, window, s, mask);
            amend_short_runs(mask, amend_below, run_end, scratch_a, scratch_b, keep);
            for (a, &w) in acc.iter_mut().zip(mask.iter()) {
                *a &= w;
            }
            masks_built += 1;
            if popcount(acc) - pad <= delta {
                accepted_early = true;
                break;
            }
        }
        let cost = (masks_built + 1) * words as u64;
        if accepted_early {
            return Verdict::accept(cost);
        }
        clear_tail(acc, m);
        if streak_edit_bound(acc, m) <= u64::from(delta) {
            Verdict::accept(cost)
        } else {
            Verdict::reject(cost)
        }
    }

    fn build_shift_mask(read: &[u8], window: &[u8], s: isize, mask: &mut [u64]) {
        let m = read.len();
        mask.fill(0);
        for (i, &base) in read.iter().enumerate() {
            let j = i as isize + s;
            let mismatch = j < 0 || j >= window.len() as isize || window[j as usize] != base;
            if mismatch {
                mask[i / 64] |= 1 << (i % 64);
            }
        }
        let tail = m % 64;
        if tail != 0 {
            if let Some(last) = mask.last_mut() {
                *last |= !((1u64 << tail) - 1);
            }
        }
    }

    fn amend_short_runs<'w>(
        mask: &mut [u64],
        below: usize,
        z: &mut [u64],
        scratch_a: &'w mut [u64],
        scratch_b: &'w mut [u64],
        keep: &mut [u64],
    ) {
        if below <= 1 {
            return;
        }
        for (zw, &w) in z.iter_mut().zip(mask.iter()) {
            *zw = !w;
        }
        keep.copy_from_slice(z);
        let (mut cur, mut next) = (scratch_a, scratch_b);
        cur.copy_from_slice(z);
        for _ in 1..below {
            shl1(cur, next, false);
            for (k, &sh) in keep.iter_mut().zip(next.iter()) {
                *k &= sh;
            }
            std::mem::swap(&mut cur, &mut next);
        }
        cur.copy_from_slice(keep);
        for _ in 1..below {
            shr1(cur, next, false);
            for (k, &sh) in keep.iter_mut().zip(next.iter()) {
                *k |= sh;
            }
            std::mem::swap(&mut cur, &mut next);
        }
        for (m_w, (&zw, &k)) in mask.iter_mut().zip(z.iter().zip(keep.iter())) {
            *m_w |= zw & !k;
        }
    }

    /// `QgramBins` as it stood: the builder, the per-bin probe and the
    /// window → bin range.
    pub struct Bins {
        q: usize,
        bin_width: usize,
        ref_len: usize,
        words_per_bin: usize,
        bits: Vec<u64>,
    }

    impl Bins {
        pub fn build(codes: &[u8], q: usize, bin_width: usize) -> Bins {
            let words_per_bin = (1usize << (2 * q)).div_ceil(64);
            let bins = codes.len().div_ceil(bin_width).max(1);
            let mut bits = vec![0u64; bins * words_per_bin];
            let mask = (1u64 << (2 * q)) - 1;
            let mut hash = 0u64;
            for (i, &code) in codes.iter().enumerate() {
                hash = ((hash << 2) | u64::from(code & 3)) & mask;
                if i + 1 >= q {
                    let start = i + 1 - q;
                    let bin = start / bin_width;
                    let word = bin * words_per_bin + (hash / 64) as usize;
                    bits[word] |= 1 << (hash % 64);
                }
            }
            Bins {
                q,
                bin_width,
                ref_len: codes.len(),
                words_per_bin,
                bits,
            }
        }

        pub fn bins(&self) -> usize {
            self.bits.len() / self.words_per_bin
        }

        fn present_in(&self, hash: u64, lo: usize, hi: usize) -> bool {
            let word = (hash / 64) as usize;
            let bit = 1u64 << (hash % 64);
            (lo..=hi).any(|b| self.bits[b * self.words_per_bin + word] & bit != 0)
        }

        pub fn bin_range(&self, start: usize, len: usize) -> (usize, usize) {
            let last_bin = self.bins() - 1;
            let lo = (start / self.bin_width).min(last_bin);
            let last_start = (start + len.saturating_sub(self.q)).min(self.ref_len);
            let hi = (last_start / self.bin_width).min(last_bin);
            (lo, hi.max(lo))
        }

        /// `QgramFilter::examine` as it stood.
        pub fn examine(
            &self,
            read: &[u8],
            window_start: usize,
            wlen: usize,
            delta: u32,
        ) -> Verdict {
            let q = self.q;
            let m = read.len();
            if m < q {
                return Verdict::accept(1);
            }
            let grams = (m - q + 1) as i64;
            let needed = grams - q as i64 * i64::from(delta);
            if needed <= 0 {
                return Verdict::accept(1);
            }
            let (lo, hi) = self.bin_range(window_start, wlen);
            let spans = (hi - lo + 1) as u64;
            let mask = (1u64 << (2 * q)) - 1;
            let mut hash = 0u64;
            let mut found = 0i64;
            let mut missing = 0i64;
            let mut probes = 0u64;
            let budget = grams - needed;
            for (i, &code) in read.iter().enumerate() {
                hash = ((hash << 2) | u64::from(code & 3)) & mask;
                if i + 1 < q {
                    continue;
                }
                probes += 1;
                if self.present_in(hash, lo, hi) {
                    found += 1;
                    if found >= needed {
                        break;
                    }
                } else {
                    missing += 1;
                    if missing > budget {
                        break;
                    }
                }
            }
            let cost = (probes * spans).div_ceil(8).max(1);
            if found >= needed {
                Verdict::accept(cost)
            } else {
                Verdict::reject(cost)
            }
        }
    }
}

fn random_codes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen_range(0u8..4)).collect()
}

/// `segment` with up to `edits` random substitutions, insertions and
/// deletions, then cut or extended (from `following`) to exactly
/// `segment.len()` bases, so a planted read still has the length under
/// test.
fn mutant(rng: &mut StdRng, segment: &[u8], following: &[u8], edits: u32) -> Vec<u8> {
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
    read.truncate(segment.len());
    let short = segment.len() - read.len();
    read.extend(following.iter().chain(std::iter::repeat(&0)).take(short));
    read
}

/// How the window under a read is cut.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `read + 2δ`, the engine's window away from the edges.
    Standard,
    /// Cut off by the start or the end of the reference.
    Clamped,
    /// Shorter than the read, by at most δ.
    Short,
    /// The read overhangs by more than δ: the unit-cost reject.
    Overhang,
}

const SHAPES: [Shape; 4] = [
    Shape::Standard,
    Shape::Clamped,
    Shape::Short,
    Shape::Overhang,
];

/// One window of `shape` for a read of `m` bases at error budget
/// `delta`, with the reference position its core starts at.
fn cut_window(
    rng: &mut StdRng,
    reference: &[u8],
    m: usize,
    delta: usize,
    shape: Shape,
) -> (usize, usize, usize) {
    let n = reference.len();
    match shape {
        Shape::Standard => {
            let pos = rng.gen_range(delta..=n - m - delta);
            (pos, pos - delta, pos + m + delta)
        }
        Shape::Clamped if rng.gen::<bool>() => {
            let pos = rng.gen_range(0..=delta);
            (pos, 0, pos + m + delta)
        }
        Shape::Clamped => {
            let pos = n - m - rng.gen_range(0..=delta);
            (pos, pos - delta, n)
        }
        Shape::Short => {
            let pos = rng.gen_range(0..n - m);
            let cut = rng.gen_range(0..=delta.min(m));
            (pos, pos, pos + m - cut)
        }
        Shape::Overhang => {
            let pos = rng.gen_range(0..n - m);
            let len = m.saturating_sub(delta + 1 + rng.gen_range(0..3usize));
            (pos, pos, pos + len)
        }
    }
}

#[derive(Default)]
struct Tally {
    cases: u64,
    accepts: u64,
}

impl Tally {
    fn record(&mut self, verdict: Verdict) {
        self.cases += 1;
        self.accepts += u64::from(verdict.accept);
    }

    /// Both outcomes in at least a tenth of the cases each.
    fn assert_balanced(&self, what: &str) {
        let rejects = self.cases - self.accepts;
        assert!(
            self.accepts * 10 >= self.cases && rejects * 10 >= self.cases,
            "{what}: {} accepts and {rejects} rejects in {} cases",
            self.accepts,
            self.cases
        );
    }
}

const DELTAS: [u32; 11] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 16, 20];

/// The new SHD kernel against the old on one input: verdict and cost.
fn shd_both(below: usize, read: &[u8], window: &[u8], delta: u32, what: &dyn Debug) -> Verdict {
    let expected = oracle::examine_codes(below, read, window, delta);
    let got = ShdFilter::new()
        .with_amend_below(below)
        .examine_codes(read, window, delta);
    assert_eq!(
        got,
        expected,
        "{what:?}: m={} window={} δ={delta} amend_below={below}",
        read.len(),
        window.len()
    );
    got
}

/// An arbitrary read of `m` bases against an arbitrary window of `wlen`,
/// which holds a copy of the read in half the cases where it can.
fn shd_arbitrary(rng: &mut StdRng, m: usize, wlen: usize, delta: u32, below: usize) -> Verdict {
    let read = random_codes(rng, m);
    let mut window = random_codes(rng, wlen);
    if wlen >= m && rng.gen::<bool>() {
        let at = rng.gen_range(0..=wlen - m);
        window[at..at + m].copy_from_slice(&read);
    }
    shd_both(below, &read, &window, delta, &"arbitrary")
}

/// One SHD comparison: a read of `m` bases — a ≤ δ-edit mutant of the
/// window's core if `planted`, unrelated otherwise.
#[derive(Debug, Clone, Copy)]
struct ShdCase {
    m: usize,
    delta: u32,
    shape: Shape,
    below: usize,
    planted: bool,
}

fn shd_case(rng: &mut StdRng, reference: &[u8], case: ShdCase) -> Verdict {
    let ShdCase {
        m,
        delta,
        shape,
        below,
        planted,
    } = case;
    let (pos, start, end) = cut_window(rng, reference, m, delta as usize, shape);
    let window = &reference[start..end];
    let read = if planted {
        let edits = rng.gen_range(0..=delta);
        mutant(rng, &reference[pos..pos + m], &reference[pos + m..], edits)
    } else {
        random_codes(rng, m)
    };
    shd_both(below, &read, window, delta, &case)
}

#[test]
fn shd_matches_the_per_base_kernel_on_verdict_and_cost() {
    let mut rng = StdRng::seed_from_u64(0x5D18);
    let reference = random_codes(&mut rng, 2_000);
    let mut tally = Tally::default();
    for m in 1..=600usize {
        // Every 64-bit word boundary and the 512-base stack limit get
        // the whole shape × cutoff grid; other lengths rotate through it.
        let boundary = matches!(m % 64, 63 | 0 | 1) || (510..=514).contains(&m);
        for (d, &delta) in DELTAS.iter().enumerate() {
            for planted in [true, false] {
                let turn = m + d + usize::from(planted);
                let grid: Vec<(Shape, usize)> = if boundary {
                    SHAPES
                        .iter()
                        .flat_map(|&shape| (1..=4).map(move |below| (shape, below)))
                        .collect()
                } else {
                    vec![(SHAPES[turn % 4], 1 + (turn / 4) % 4)]
                };
                for (shape, below) in grid {
                    let case = ShdCase {
                        m,
                        delta,
                        shape,
                        below,
                        planted,
                    };
                    tally.record(shd_case(&mut rng, &reference, case));
                }
            }
        }
    }
    tally.assert_balanced("SHD");
}

#[test]
fn shd_matches_on_windows_far_longer_than_the_read() {
    // `examine_codes` is public: a window may exceed the read by far
    // more than 2δ, which pushes the shift range past one plane word and
    // the planes off the stack.
    let mut rng = StdRng::seed_from_u64(0x5D19);
    let mut tally = Tally::default();
    for _ in 0..300 {
        let (m, wlen) = (rng.gen_range(1usize..=200), rng.gen_range(0usize..=900));
        let (delta, below) = (rng.gen_range(0u32..=8), rng.gen_range(1usize..=4));
        tally.record(shd_arbitrary(&mut rng, m, wlen, delta, below));
    }
    tally.assert_balanced("SHD, long windows");
}

#[test]
fn shd_matches_at_every_window_length_around_a_word_boundary() {
    // The window's last bases land anywhere in the planes' last word,
    // the read fills its mask words to within a base.
    let mut rng = StdRng::seed_from_u64(0x5D1A);
    let mut tally = Tally::default();
    for m in [1usize, 63, 64, 65] {
        for wlen in 0..=200usize {
            for delta in 0..=6u32 {
                let below = 1 + (wlen + m) % 4;
                tally.record(shd_arbitrary(&mut rng, m, wlen, delta, below));
            }
        }
    }
    tally.assert_balanced("SHD, every window length");
}

#[test]
fn both_kernels_match_on_the_adversarial_corpus() {
    let entries = common::entries();
    let mut reference = Vec::new();
    let mut starts = Vec::new();
    for e in &entries {
        starts.push(reference.len());
        reference.extend_from_slice(&e.window);
    }
    for (q, width) in [(5, 64), (5, 512), (4, 128)] {
        let bins = QgramBins::build(&reference, q, width);
        let old = oracle::Bins::build(&reference, q, width);
        for (e, &start) in entries.iter().zip(&starts) {
            let got = QgramFilter::new(&bins).examine(&Candidate {
                read: &e.read,
                window: &e.window,
                window_start: start,
                delta: e.delta,
            });
            let expected = old.examine(&e.read, start, e.window.len(), e.delta);
            assert_eq!(got, expected, "q-gram q={q} width={width} on {}", e.name);
        }
    }
    for e in &entries {
        for below in 1..=4 {
            for delta in [e.delta, 0, 2, 9] {
                shd_both(below, &e.read, &e.window, delta, &e.name);
            }
        }
    }
}

#[test]
fn qgram_matches_the_branchy_probe_on_verdict_and_cost() {
    let mut rng = StdRng::seed_from_u64(0x96A4);
    // Not a multiple of any bin width: the last bin is a partial one.
    let reference = random_codes(&mut rng, 3_001);
    let mut tally = Tally::default();
    let mut spans_seen = [false; 5];
    let mut last_bin_seen = false;
    for q in 3..=8usize {
        for width in [64usize, 128, 512] {
            let bins = QgramBins::build(&reference, q, width);
            let old = oracle::Bins::build(&reference, q, width);
            assert_eq!(bins.bins(), old.bins());
            let filter = QgramFilter::new(&bins);
            for trial in 0..400 {
                let delta = rng.gen_range(0u32..=8);
                let slack = delta as usize;
                let m = rng.gen_range(4usize..=200);
                // A third of the windows are pushed against the end of
                // the reference, where the range clamps to the last bin.
                let pos = if trial % 3 == 0 {
                    reference.len() - m - rng.gen_range(0..=slack)
                } else {
                    rng.gen_range(0..=reference.len() - m)
                };
                let start = pos.saturating_sub(slack);
                let end = (pos + m + slack).min(reference.len());
                let read = match trial % 4 {
                    0 => random_codes(&mut rng, m),
                    // Half of a read foreign: the verdict then hangs on
                    // the threshold, not on every probe missing.
                    1 => {
                        let mut read = reference[pos..pos + m].to_vec();
                        let foreign = random_codes(&mut rng, m / 2);
                        let at = rng.gen_range(0..=m - foreign.len());
                        read[at..at + foreign.len()].copy_from_slice(&foreign);
                        read
                    }
                    _ => {
                        let edits = rng.gen_range(0..=delta);
                        mutant(
                            &mut rng,
                            &reference[pos..pos + m],
                            &reference[pos + m..],
                            edits,
                        )
                    }
                };
                let got = filter.examine(&Candidate {
                    read: &read,
                    window: &reference[start..end],
                    window_start: start,
                    delta,
                });
                let expected = old.examine(&read, start, end - start, delta);
                assert_eq!(
                    got, expected,
                    "q={q} width={width} m={m} δ={delta} window {start}..{end}"
                );
                tally.record(got);
                let (lo, hi) = old.bin_range(start, end - start);
                spans_seen[(hi - lo + 1).min(4)] = true;
                last_bin_seen |= hi == old.bins() - 1;
            }
        }
    }
    tally.assert_balanced("q-gram");
    assert_eq!(
        spans_seen,
        [false, true, true, true, true],
        "bins per window"
    );
    assert!(last_bin_seen, "no window reached the last bin");
}
