//! Suffix-array construction via SA-IS (suffix-array induced sorting).
//!
//! SA-IS (Nong, Zhang & Chan, 2009) builds the suffix array in O(n) time,
//! which keeps preprocessing practical even on the embedded profile — the
//! paper's HiKey970 has 6 GB of RAM, so index build cost matters there.
//! This one sorts in place, in the `u32` array it returns: besides that
//! array it allocates only the L/S types as bits and one bucket array per
//! level, and the recursion sorts the reduced string into the head of the
//! same array (DESIGN.md §8).

use repute_genome::DnaSeq;

/// A suffix array over a DNA reference.
///
/// Entry `i` is the start position of the `i`-th smallest suffix. The
/// implicit terminal sentinel (smaller than every base) is *not* included,
/// so the array is a permutation of `0..text_len`.
///
/// # Example
///
/// ```
/// use repute_genome::DnaSeq;
/// use repute_index::SuffixArray;
///
/// # fn main() -> Result<(), repute_genome::GenomeError> {
/// let text: DnaSeq = "ACGTACG".parse()?;
/// let sa = SuffixArray::build(&text);
/// // Suffix "ACG" (pos 4) sorts before "ACGTACG" (pos 0).
/// assert_eq!(sa.positions()[0], 4);
/// assert_eq!(sa.positions()[1], 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuffixArray {
    positions: Vec<u32>,
}

impl SuffixArray {
    /// Builds the suffix array of `text` with SA-IS.
    ///
    /// # Panics
    ///
    /// Panics if `text` is longer than `u32::MAX - 2` bases.
    pub fn build(text: &DnaSeq) -> SuffixArray {
        Self::from_codes(&text.to_codes())
    }

    /// Builds the suffix array from 2-bit base codes (`0..=3`).
    ///
    /// # Panics
    ///
    /// Panics if any code exceeds 3, or the text exceeds `u32::MAX - 2`.
    pub fn from_codes(codes: &[u8]) -> SuffixArray {
        assert!(
            codes.len() < (u32::MAX - 2) as usize,
            "text too long for 32-bit suffix array"
        );
        if let Some(c) = codes.iter().find(|&&c| c > 3) {
            panic!("base code {c} out of range");
        }
        let mut positions = vec![0; codes.len()];
        sais(codes, &mut positions, 4);
        SuffixArray { positions }
    }

    /// The sorted suffix start positions.
    pub fn positions(&self) -> &[u32] {
        &self.positions
    }

    /// Number of suffixes (= text length).
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Returns `true` for the suffix array of the empty text.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }
}

/// Naive O(n² log n) construction, used as a cross-check in tests.
#[cfg(test)]
pub fn naive_suffix_array(codes: &[u8]) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..codes.len() as u32).collect();
    idx.sort_by(|&a, &b| codes[a as usize..].cmp(&codes[b as usize..]));
    idx
}

/// An empty slot. Texts stay below `u32::MAX - 2` symbols, so every
/// position and name is below it, and `slot - 1` of an empty slot or of
/// position 0 wraps to past the end of the text.
const EMPTY: u32 = u32::MAX;

/// A text symbol: a base code at the top level, the name of an LMS
/// substring below it.
trait Symbol: Copy + Ord {
    fn index(self) -> usize;
}

impl Symbol for u8 {
    fn index(self) -> usize {
        usize::from(self)
    }
}

impl Symbol for u32 {
    fn index(self) -> usize {
        self as usize
    }
}

/// Writes the suffix array of `text` into `sa` (one entry per symbol).
/// Symbols are in `0..k`, and the text ends in an implicit sentinel
/// smaller than all of them: the last suffix is L-type, and the
/// sentinel's own suffix is left out.
fn sais<T: Symbol>(text: &[T], sa: &mut [u32], k: usize) {
    let n = text.len();
    assert_eq!(sa.len(), n, "one slot per suffix");
    if n == 0 {
        return;
    }
    let types = Types::classify(text);

    // 1. Sort the LMS substrings: seed each LMS suffix at its bucket's
    //    tail, then induce. The buckets are freed before the recursion.
    sa.fill(EMPTY);
    {
        let starts = bucket_starts(text, k);
        let mut cursor = starts[1..].to_vec();
        for i in (1..n).filter(|&i| types.is_lms(i)) {
            let c = text[i].index();
            cursor[c] -= 1;
            sa[cursor[c] as usize] = i as u32;
        }
        induce(text, &types, sa, &starts, &mut cursor);
    }

    // 2. Compact the sorted LMS suffixes into sa[..m] and name their
    //    substrings. No two LMS positions are adjacent, so m ≤ n/2 and
    //    the name of position p fits at m + p/2 without a collision.
    let mut m = 0;
    for i in 0..n {
        let p = sa[i] as usize;
        if types.is_lms(p) {
            sa[m] = p as u32;
            m += 1;
        }
    }
    sa[m..].fill(EMPTY);
    let mut names = 0;
    let mut prev: Option<usize> = None;
    for i in 0..m {
        let p = sa[i] as usize;
        if prev.is_none_or(|q| !lms_substrings_equal(text, &types, q, p)) {
            names += 1;
        }
        prev = Some(p);
        sa[m + p / 2] = names - 1;
    }
    // The reduced string — the names in text order — packed into the
    // tail; the head holds its suffix array next.
    let mut to = n;
    for from in (m..n).rev() {
        if sa[from] != EMPTY {
            to -= 1;
            sa[to] = sa[from];
        }
    }
    let (head, reduced) = sa.split_at_mut(n - m);
    let sorted = &mut head[..m];
    if (names as usize) < m {
        sais(&*reduced, sorted, names as usize);
    } else {
        // Every name is unique: it is its suffix's rank.
        for (i, &name) in reduced.iter().enumerate() {
            sorted[name as usize] = i as u32;
        }
    }

    // 3. Map the reduced suffix array back to LMS positions, seed those
    //    at their buckets' tails (largest first, so none overwrites one
    //    not yet moved) and induce the whole array.
    for (slot, p) in reduced.iter_mut().zip((1..n).filter(|&i| types.is_lms(i))) {
        *slot = p as u32;
    }
    for rank in sorted.iter_mut() {
        *rank = reduced[*rank as usize];
    }
    sa[m..].fill(EMPTY);
    let starts = bucket_starts(text, k);
    let mut cursor = starts[1..].to_vec();
    for i in (0..m).rev() {
        let p = std::mem::replace(&mut sa[i], EMPTY);
        let c = text[p as usize].index();
        cursor[c] -= 1;
        sa[cursor[c] as usize] = p;
    }
    induce(text, &types, sa, &starts, &mut cursor);
}

/// `starts[c]..starts[c + 1]` is the bucket of the suffixes that begin
/// with symbol `c`.
fn bucket_starts<T: Symbol>(text: &[T], k: usize) -> Vec<u32> {
    let mut starts = vec![0u32; k + 1];
    for &c in text {
        starts[c.index() + 1] += 1;
    }
    for c in 0..k {
        starts[c + 1] += starts[c];
    }
    starts
}

/// Induces the L-type suffixes left to right from the sentinel and the
/// S-type suffixes seeded in `sa`, then the S-type suffixes right to
/// left from the L-type ones.
fn induce<T: Symbol>(
    text: &[T],
    types: &Types,
    sa: &mut [u32],
    starts: &[u32],
    cursor: &mut [u32],
) {
    let n = text.len();
    cursor.copy_from_slice(&starts[..cursor.len()]);
    // The sentinel's suffix sorts first, and its predecessor is L-type.
    let last = text[n - 1].index();
    sa[cursor[last] as usize] = (n - 1) as u32;
    cursor[last] += 1;
    for i in 0..n {
        let j = sa[i].wrapping_sub(1) as usize;
        if j < n && !types.is_s(j) {
            let c = text[j].index();
            sa[cursor[c] as usize] = j as u32;
            cursor[c] += 1;
        }
    }
    cursor.copy_from_slice(&starts[1..]);
    for i in (0..n).rev() {
        let j = sa[i].wrapping_sub(1) as usize;
        if j < n && types.is_s(j) {
            let c = text[j].index();
            cursor[c] -= 1;
            sa[cursor[c] as usize] = j as u32;
        }
    }
}

/// Compares the LMS substrings starting at `a` and `b`.
fn lms_substrings_equal<T: Symbol>(text: &[T], types: &Types, a: usize, b: usize) -> bool {
    let n = text.len();
    let mut d = 0;
    loop {
        let (x, y) = (a + d, b + d);
        // The last LMS substring ends in the sentinel, which is unique.
        if x == n || y == n || text[x] != text[y] || types.is_s(x) != types.is_s(y) {
            return false;
        }
        if d > 0 && types.is_lms(x) {
            // Equal symbols and types so far: `y` ends its substring too.
            return true;
        }
        d += 1;
    }
}

/// The L/S type of every suffix, one bit each: set for S-type.
struct Types(Vec<u64>);

impl Types {
    fn classify<T: Symbol>(text: &[T]) -> Types {
        let n = text.len();
        let mut bits = vec![0u64; n.div_ceil(64)];
        // The last suffix is L-type: the sentinel after it is smaller.
        let mut s_type = false;
        for i in (0..n.saturating_sub(1)).rev() {
            s_type = text[i] < text[i + 1] || (text[i] == text[i + 1] && s_type);
            bits[i / 64] |= u64::from(s_type) << (i % 64);
        }
        Types(bits)
    }

    fn is_s(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }

    /// An S-type suffix right after an L-type one.
    fn is_lms(&self, i: usize) -> bool {
        i > 0 && self.is_s(i) && !self.is_s(i - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repute_genome::rng::StdRng;

    fn check(text: &str) {
        let seq: DnaSeq = text.parse().unwrap();
        let codes = seq.to_codes();
        let sa = SuffixArray::build(&seq);
        assert_eq!(
            sa.positions(),
            naive_suffix_array(&codes).as_slice(),
            "text {text:?}"
        );
    }

    fn check_codes(codes: &[u8], what: &str) {
        assert_eq!(
            SuffixArray::from_codes(codes).positions(),
            naive_suffix_array(codes).as_slice(),
            "{what}, length {}",
            codes.len()
        );
    }

    #[test]
    fn empty_and_tiny_texts() {
        let sa = SuffixArray::from_codes(&[]);
        assert!(sa.is_empty());
        check("A");
        check("AC");
        check("CA");
        check("AA");
    }

    #[test]
    fn classic_examples() {
        check("ACGTACG");
        check("AAAAAAAAAA");
        check("ACACACACAC");
        check("GTGTGTGTGA");
        check("TGCATGCATGCA");
    }

    #[test]
    fn matches_naive_on_random_texts() {
        let mut rng = StdRng::seed_from_u64(99);
        for len in [3usize, 17, 64, 255, 1000] {
            for _ in 0..5 {
                let codes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..4)).collect();
                let sa = SuffixArray::from_codes(&codes);
                assert_eq!(
                    sa.positions(),
                    naive_suffix_array(&codes).as_slice(),
                    "len {len}"
                );
            }
        }
    }

    #[test]
    fn matches_naive_at_every_length_to_300() {
        let mut rng = StdRng::seed_from_u64(300);
        for len in 1..=300 {
            let random: Vec<u8> = (0..len).map(|_| rng.gen_range(0..4)).collect();
            check_codes(&random, "random");
            check_codes(&vec![0; len], "all A");
        }
    }

    #[test]
    fn matches_naive_on_periodic_and_aperiodic_words() {
        let periodic = |unit: &[u8], len: usize| -> Vec<u8> {
            unit.iter().copied().cycle().take(len).collect()
        };
        // Fibonacci word over {A, C}: f(n) = f(n-1) f(n-2).
        let (mut fib, mut prev) = (vec![0u8], vec![1u8]);
        while fib.len() < 2_000 {
            let next = [fib.as_slice(), prev.as_slice()].concat();
            prev = std::mem::replace(&mut fib, next);
        }
        // Thue–Morse over {A, T}: base code 3 where the index has odd parity.
        let thue_morse: Vec<u8> = (0..2_048u32)
            .map(|i| 3 * (i.count_ones() % 2) as u8)
            .collect();
        for len in [1, 2, 3, 10, 99, 100, 511, 1_000, 2_000] {
            check_codes(&periodic(&[0, 1], len), "(AC)^n");
            check_codes(&periodic(&[0, 1, 2], len), "(ACG)^n");
            check_codes(&fib[..len], "Fibonacci");
            check_codes(&thue_morse[..len], "Thue-Morse");
        }
    }

    #[test]
    fn matches_naive_on_the_sentinel_row_texts() {
        // `C A^k T^m`, the texts that put the FM-index's sentinel on the
        // first, middle and last row of a 192-row rank block.
        for sentinel_row in [1, 96, 191, 192, 192 + 96, 2 * 192 - 1, 2 * 192] {
            let mut codes = vec![1u8];
            codes.extend(std::iter::repeat_n(0, sentinel_row - 1));
            codes.extend(std::iter::repeat_n(3, 3 * 192 - codes.len()));
            check_codes(&codes, "C A^k T^m");
        }
    }

    #[test]
    fn matches_naive_across_the_word_edges_of_the_type_bits() {
        let edges = [63, 64, 65, 127, 128, 129];
        let mut rng = StdRng::seed_from_u64(64);
        for len in edges {
            let random: Vec<u8> = (0..len).map(|_| rng.gen_range(0..4)).collect();
            check_codes(&random, "random");
            // Types that change exactly at a bit-word edge: a descending
            // run (L-type) meeting an ascending one (S-type).
            for cut in edges.into_iter().filter(|&cut| cut < len) {
                let mut codes = vec![3u8; cut];
                codes.extend((cut..len).map(|i| (i % 4) as u8));
                check_codes(&codes, &format!("T^{cut} then (ACGT)^n"));
                let mut codes = vec![0u8; cut];
                codes.extend(std::iter::repeat_n(3, len - cut));
                check_codes(&codes, &format!("A^{cut} T^m"));
            }
        }
    }

    #[test]
    fn matches_naive_on_a_planted_unit_with_substitutions() {
        // 206 copies of one 97-base unit with a dozen substitutions: the
        // exact copies between them recurse four levels deep, where the
        // LMS substrings are all distinct and the names-are-ranks
        // shortcut ends the recursion.
        let mut rng = StdRng::seed_from_u64(97);
        let unit: Vec<u8> = (0..97).map(|_| rng.gen_range(0..4)).collect();
        let mut codes: Vec<u8> = unit.iter().copied().cycle().take(20_000).collect();
        for _ in 0..12 {
            let at = rng.gen_range(0..codes.len());
            codes[at] = (codes[at] + rng.gen_range(1..4)) % 4;
        }
        check_codes(&codes, "planted unit");
    }

    #[test]
    fn is_a_permutation_on_larger_text() {
        let reference = repute_genome::synth::ReferenceBuilder::new(50_000)
            .seed(4)
            .build();
        let sa = SuffixArray::build(&reference);
        let mut seen = vec![false; reference.len()];
        for &p in sa.positions() {
            assert!(!seen[p as usize], "duplicate {p}");
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn suffixes_are_sorted_on_larger_text() {
        let reference = repute_genome::synth::ReferenceBuilder::new(20_000)
            .seed(5)
            .build();
        let codes = reference.to_codes();
        let sa = SuffixArray::build(&reference);
        for w in sa.positions().windows(2) {
            let (a, b) = (w[0] as usize, w[1] as usize);
            assert!(codes[a..] < codes[b..], "order violated at {a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_codes_rejected() {
        let _ = SuffixArray::from_codes(&[0, 1, 7]);
    }
}
