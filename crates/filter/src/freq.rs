//! Seed-frequency tables with incremental backward-search reuse.
//!
//! The DP filtration needs the occurrence count of `read[d..p]` for many
//! `(d, p)` pairs. Backward search extends patterns to the *left*, so for
//! a fixed end `p` every start `d` is one [`repute_index::FmIndex::extend_left`]
//! away from `d + 1` — the "efficient way" of using backward search the
//! paper credits for reduced memory accesses (§II-B). No seed is shorter
//! than `s_min`, so a column's first bases are unconditional: they come
//! from the index's k-mer interval table
//! ([`repute_index::FmIndex::search_start`]) in one lookup, and only the
//! bases after them are extended one by one. Columns stop as soon as the
//! interval empties: every longer seed ending at `p` then has exactly
//! zero occurrences, no further index work needed.
//!
//! Neighbouring columns share their tails. The seeds `read[d..p]` and
//! `read[d..p + 1]` start at the same base, and extending either to
//! `d - 1` depends on nothing but its interval and `read[d - 1]`, so once
//! the two intervals are equal every longer seed of column `p + 1` has
//! exactly column `p`'s interval: the column stops ranking and copies the
//! rest.

use repute_index::{FmIndex, Interval};

use crate::oss::OssParams;

/// Extra extension depth beyond `s_min` before a column is capped.
///
/// The Optimal Seed Solver caps seed lengths: beyond `s_min + MAX_EXTRA`
/// bases a seed's count has almost always stabilised (unique regions hit
/// zero or one long before; repeat regions stay high however far one
/// extends). Lookups past the cap return the capped suffix's interval —
/// a superset of the true occurrences, which verification filters. This
/// bounds per-column work, the time half of the paper's memory/time
/// optimisation.
pub const MAX_EXTRA: usize = 16;

/// One column of the table: seeds ending at a fixed read position.
#[derive(Debug, Clone, Copy, Default)]
struct Column {
    /// The column's slots start here in [`FreqTable::entries`]; slot `i`
    /// is the interval of the seed of length `s_min + i`.
    first: u32,
    /// Slots filled. Lengths beyond them have zero occurrences unless the
    /// column was capped (`capped == true`), in which case the deepest
    /// entry approximates them.
    len: u32,
    capped: bool,
    /// The column's last ranked slot equals its left neighbour's slot for
    /// the same start; the slots after it are copies of the neighbour's.
    shares: bool,
}

/// One column's filled intervals, borrowed from a [`FreqTable`]: slot
/// `i` is the seed of length `s_min + i` ending at the column's end.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColumnView<'t> {
    filled: &'t [Interval],
    capped: bool,
}

impl ColumnView<'_> {
    /// FM interval of the column's seed of length `s_min + extra`, `None`
    /// when it does not occur; past a capped column's depth, the deepest
    /// entry's (see [`FreqTable::interval`]).
    #[inline]
    pub(crate) fn interval(&self, extra: usize) -> Option<Interval> {
        match self.filled.get(extra) {
            Some(&iv) => Some(iv),
            None if self.capped => self.filled.last().copied(),
            None => None,
        }
    }

    /// Occurrence count of the column's seed of length `s_min + extra`.
    #[inline]
    pub(crate) fn count(&self, extra: usize) -> u32 {
        self.interval(extra).map_or(0, Interval::width)
    }
}

/// A column still being extended by [`FreqTable::build`].
struct Live {
    /// The column's seeds end here.
    end: usize,
    /// The seed length the column is cut off at.
    depth: usize,
    interval: Interval,
}

/// Precomputed seed frequencies for one read.
///
/// # Example
///
/// ```
/// use repute_genome::synth::ReferenceBuilder;
/// use repute_index::FmIndex;
/// use repute_filter::{freq::FreqTable, oss::OssParams};
///
/// let reference = ReferenceBuilder::new(10_000).seed(3).build();
/// let fm = FmIndex::build(&reference);
/// let read = reference.subseq(100..200).to_codes();
/// let params = OssParams::new(4, 15).expect("valid");
/// let table = FreqTable::build(&fm, &read, &params);
/// // The read itself occurs, so each of its seeds occurs at least once.
/// assert!(table.count(0, 15) >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct FreqTable {
    columns: Vec<Column>,
    /// Every column's intervals, column after column.
    entries: Vec<Interval>,
    read_len: usize,
    params: OssParams,
    extend_ops: u64,
    ranked_ops: u64,
}

/// The longest seed the table keeps for the column ending at `end`, or
/// `None` when the DP never probes it.
fn column_depth(params: &OssParams, end: usize, read_len: usize) -> Option<usize> {
    let cap = params.s_min() + MAX_EXTRA;
    params
        .max_seed_len_at(end, read_len)
        .map(|depth| depth.min(cap))
}

/// The interval a finished round left in `columns[slot]` for the seed
/// `s_min + extra` long, `None` if none was settled there. A sharing
/// column's slots past its last ranked one are its neighbour's, one
/// base shorter, and are not filled in yet: they are read through it.
fn settled(
    columns: &[Column],
    entries: &[Interval],
    mut slot: usize,
    mut extra: usize,
) -> Option<Interval> {
    loop {
        let column = columns[slot];
        if extra < column.len as usize {
            return Some(entries[column.first as usize + extra]);
        }
        if !column.shares {
            return None;
        }
        slot -= 1;
        extra -= 1;
    }
}

impl FreqTable {
    /// Builds the frequency table for the seeds the DP of `params` can
    /// ask about.
    ///
    /// Under the paper's restricted exploration space only the live
    /// columns are computed, each to the depth its iterations need (see
    /// [`OssParams::max_seed_len_at`]) — the *time* half of the
    /// exploration-space optimisation; the DP-table shrinkage is the
    /// memory half.
    ///
    /// Every live column starts with one table lookup over the last bases
    /// of its shortest seed (none when `s_min` is shorter than the table's
    /// k-mers: the column then starts at the full interval), and from
    /// there all of them advance in lockstep, one base a round. The index
    /// reads of a round are independent of each other: each round first
    /// touches every live column's rank blocks ([`FmIndex::touch`]) and
    /// only then ranks, so their cache misses overlap. A column whose
    /// interval at some start equals its left neighbour's for the same
    /// start leaves the round: from there on its intervals are the
    /// neighbour's, one slot on (the module docs), and they are copied
    /// once every round is done, in end order so that chains of sharing
    /// columns resolve. The neighbour always reaches far
    /// enough: [`OssParams::max_seed_len_at`] grows by at most one base
    /// from one column to the next. Every interval is the one the column
    /// would have found alone; [`FreqTable::ranked_ops`] counts the index
    /// operations actually made, [`FreqTable::extend_ops`] the ones the
    /// columns would have made alone.
    ///
    /// # Panics
    ///
    /// Panics if the read is shorter than `s_min` or contains codes
    /// above 3.
    pub fn build(fm: &FmIndex, read: &[u8], params: &OssParams) -> FreqTable {
        let s_min = params.s_min();
        let n = read.len();
        assert!(
            n >= s_min,
            "read length {n} shorter than minimum seed length {s_min}"
        );
        let mut columns = vec![Column::default(); n - s_min + 1];
        let mut live = Vec::with_capacity(columns.len());
        let mut slots = 0usize;
        // Bases every live column's interval spans: what a lookup covers
        // of a shortest seed, the same for all of them.
        let mut len = 0;
        for end in s_min..=n {
            // A dead column is never probed and keeps no slots; a live
            // one can reach at least `s_min`.
            if let Some(depth) = column_depth(params, end, n) {
                columns[end - s_min].first = slots as u32;
                slots += depth + 1 - s_min;
                let (interval, covered) = fm.search_start(&read[end - s_min..end]);
                len = covered;
                live.push(Live {
                    end,
                    depth,
                    interval,
                });
            }
        }
        let mut entries = vec![fm.full_interval(); slots];
        let mut ranked_ops = if len > 0 { live.len() as u64 } else { 0 };
        // A round settles every live column at length `len` and extends
        // the ones that go on by one base. A column is dropped when its
        // interval empties; from `s_min` on its intervals are recorded,
        // and it keeps extending while occurrences remain and its depth
        // bound is not reached, capped when it reaches the bound alive
        // short of the read's start. A column whose interval equals its
        // left neighbour's for the same start stops too: the rest of its
        // intervals are the neighbour's, one slot on, filled in below.
        while !live.is_empty() {
            // The touch pass: every live column's blocks are loaded before
            // any is ranked, so the round's misses overlap.
            fm.touch(live.iter().map(|col| col.interval));
            live.retain_mut(|col| {
                if col.interval.is_empty() {
                    return false;
                }
                let slot = col.end - s_min;
                if len >= s_min {
                    let column = &mut columns[slot];
                    entries[(column.first + column.len) as usize] = col.interval;
                    column.len += 1;
                }
                if len == col.depth {
                    columns[slot].capped = col.end > len;
                    return false;
                }
                // The neighbour's seed from the same start is one base
                // shorter, and was settled a round ago.
                if len > s_min
                    && slot > 0
                    && settled(&columns, &entries, slot - 1, len - 1 - s_min) == Some(col.interval)
                {
                    columns[slot].shares = true;
                    return false;
                }
                col.interval = fm.extend_left(col.interval, read[col.end - len - 1]);
                true
            });
            ranked_ops += live.len() as u64;
            len += 1;
        }
        // In end order, so a neighbour's own shared tail is in place
        // before it is copied.
        let mut extend_ops = ranked_ops;
        for slot in 1..columns.len() {
            let Column {
                first, len, shares, ..
            } = columns[slot];
            if !shares {
                continue;
            }
            let end = slot + s_min;
            let left = columns[slot - 1];
            let depth = column_depth(params, end, n).expect("a sharing column is live");
            debug_assert!(column_depth(params, end - 1, n).is_some_and(|d| d + 1 >= depth));
            // The last ranked slot `len - 1` matched the neighbour's slot
            // `len - 2`; the rest follow it until either column's end.
            let from = (left.first + len - 1) as usize;
            let to = left.first as usize + (left.len as usize).min(depth - s_min);
            entries.copy_within(from..to, (first + len) as usize);
            let filled = len + (to - from) as u32;
            let longest = s_min + filled as usize - 1;
            let column = &mut columns[slot];
            column.len = filled;
            column.capped = longest == depth && end > depth;
            // Alone, the column would have extended to its depth, or one
            // base past its longest seed to find the interval empty.
            let stepped = if longest == depth { depth } else { longest + 1 };
            extend_ops += (stepped - (s_min + len as usize - 1)) as u64;
        }
        FreqTable {
            columns,
            entries,
            read_len: n,
            params: *params,
            extend_ops,
            ranked_ops,
        }
    }

    /// The minimum seed length this table was built for.
    pub fn s_min(&self) -> usize {
        self.params.s_min()
    }

    /// The DP parameters this table was built for; the solver must run
    /// with the same ones.
    pub fn params(&self) -> &OssParams {
        &self.params
    }

    /// Length of the read this table covers.
    pub fn read_len(&self) -> usize {
        self.read_len
    }

    /// FM-Index operations the table's columns take when each is built
    /// alone: per live column one k-mer lookup (when `s_min` covers the
    /// index's k-mers) and one `extend_left` per further base, up to the
    /// extension that empties its interval or to its depth. This is the
    /// work the per-read metrics and the simulated device are charged
    /// for; a sharing column counts the extensions its copied tail stands
    /// for.
    pub fn extend_ops(&self) -> u64 {
        self.extend_ops
    }

    /// FM-Index operations [`FreqTable::build`] actually performed:
    /// lookups plus `extend_left` calls. At most
    /// [`FreqTable::extend_ops`]; the difference is the shared tails.
    pub fn ranked_ops(&self) -> u64 {
        self.ranked_ops
    }

    /// Records the table's index work into a per-read metric record. The
    /// DP solver's `SelectionOutcome` records the DP-side counters; between
    /// the two every filtration operation is counted exactly once.
    pub fn record_metrics(&self, metrics: &mut repute_obs::MapMetrics) {
        metrics.fm_extend_ops += self.extend_ops;
    }

    /// Occurrence count of the seed `read[start..end]`.
    ///
    /// # Panics
    ///
    /// Panics if `end > read_len`, `start >= end`, or the seed is shorter
    /// than `s_min`.
    pub fn count(&self, start: usize, end: usize) -> u32 {
        self.interval(start, end).map_or(0, Interval::width)
    }

    /// FM interval of the seed `read[start..end]`, `None` when the seed
    /// does not occur.
    ///
    /// For seeds longer than `s_min + MAX_EXTRA` the interval of the
    /// capped suffix is returned — a superset of the true occurrence set
    /// (and its width an upper bound on the count); the verification
    /// stage filters the difference.
    ///
    /// # Panics
    ///
    /// Panics if `end > read_len`, `start >= end`, or the seed is shorter
    /// than `s_min`.
    pub fn interval(&self, start: usize, end: usize) -> Option<Interval> {
        assert!(
            end <= self.read_len && start < end,
            "seed {start}..{end} out of bounds for read of length {}",
            self.read_len
        );
        let len = end - start;
        let s_min = self.s_min();
        assert!(
            len >= s_min,
            "seed length {len} below the table's minimum {s_min}"
        );
        self.column(end).interval(len - s_min)
    }

    /// The column of seeds ending at `end`, for callers that read many
    /// seeds of one column (the DP's inner loop over dividers).
    ///
    /// # Panics
    ///
    /// Panics if `end` is below `s_min` or above the read length.
    pub(crate) fn column(&self, end: usize) -> ColumnView<'_> {
        let column = &self.columns[end - self.s_min()];
        ColumnView {
            filled: &self.entries[column.first as usize..][..column.len as usize],
            capped: column.capped,
        }
    }

    /// Approximate heap footprint of the table in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<Interval>()
            + self.columns.len() * std::mem::size_of::<Column>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repute_genome::synth::ReferenceBuilder;
    use repute_genome::DnaSeq;

    fn setup() -> (DnaSeq, FmIndex) {
        let reference = ReferenceBuilder::new(20_000).seed(8).build();
        let fm = FmIndex::build(&reference);
        (reference, fm)
    }

    #[test]
    fn counts_match_direct_backward_search_below_cap() {
        let (reference, fm) = setup();
        let read = reference.subseq(1000..1100).to_codes();
        let params = OssParams::new(5, 12).unwrap();
        let table = FreqTable::build(&fm, &read, &params);
        for end in (12usize..=100).step_by(7) {
            let min_start = end.saturating_sub(12 + MAX_EXTRA);
            for start in (min_start..=end - 12).step_by(5) {
                assert_eq!(
                    table.count(start, end),
                    fm.count(&read[start..end]),
                    "seed {start}..{end}"
                );
            }
        }
    }

    #[test]
    fn capped_lookups_upper_bound_true_counts() {
        let (reference, fm) = setup();
        let read = reference.subseq(1000..1100).to_codes();
        let params = OssParams::new(5, 12).unwrap();
        let table = FreqTable::build(&fm, &read, &params);
        for end in (40usize..=100).step_by(13) {
            for start in (0..end.saturating_sub(12 + MAX_EXTRA)).step_by(9) {
                assert!(
                    table.count(start, end) >= fm.count(&read[start..end]),
                    "capped count must upper-bound the true count at {start}..{end}"
                );
            }
        }
    }

    #[test]
    fn zero_count_beyond_empty_extension() {
        let (_, fm) = setup();
        // A noise read likely has long seeds with zero occurrences.
        let read: Vec<u8> = (0..100).map(|i| ((i * 7 + i / 3) % 4) as u8).collect();
        let params = OssParams::new(5, 12).unwrap();
        let table = FreqTable::build(&fm, &read, &params);
        for end in (12usize..=100).step_by(11) {
            let min_start = end.saturating_sub(12 + MAX_EXTRA);
            for start in (min_start..=end - 12).step_by(7) {
                assert_eq!(table.count(start, end), fm.count(&read[start..end]));
            }
        }
    }

    #[test]
    fn column_work_is_bounded_by_the_cap() {
        let (reference, fm) = setup();
        let read = reference.subseq(3000..3150).to_codes();
        let params = OssParams::new(7, 12).unwrap();
        let table = FreqTable::build(&fm, &read, &params);
        // ≤ (s_min + MAX_EXTRA) extensions per column.
        let columns = (read.len() - 12 + 1) as u64;
        assert!(table.extend_ops() <= columns * (12 + MAX_EXTRA) as u64);
    }

    #[test]
    fn extension_ops_are_bounded_by_table_size() {
        let (reference, fm) = setup();
        let read = reference.subseq(2000..2150).to_codes();
        let params = OssParams::new(7, 15).unwrap();
        let table = FreqTable::build(&fm, &read, &params);
        // At most one extension per (start, end) pair.
        let n = read.len() as u64;
        assert!(table.extend_ops() <= n * (n + 1) / 2);
        assert!(table.extend_ops() >= n - params.s_min() as u64);
        assert!(table.heap_bytes() > 0);
    }

    #[test]
    fn interval_agrees_with_fm() {
        let (reference, fm) = setup();
        let read = reference.subseq(500..600).to_codes();
        let params = OssParams::new(3, 20).unwrap();
        let table = FreqTable::build(&fm, &read, &params);
        let interval = table.interval(10, 35).expect("seed occurs");
        assert_eq!(Some(interval), fm.interval(&read[10..35]));
    }

    #[test]
    #[should_panic(expected = "below the table's minimum")]
    fn short_seed_lookup_rejected() {
        let (reference, fm) = setup();
        let read = reference.subseq(0..100).to_codes();
        let params = OssParams::new(5, 12).unwrap();
        let table = FreqTable::build(&fm, &read, &params);
        let _ = table.count(0, 5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_lookup_rejected() {
        let (reference, fm) = setup();
        let read = reference.subseq(0..50).to_codes();
        let params = OssParams::new(2, 12).unwrap();
        let table = FreqTable::build(&fm, &read, &params);
        let _ = table.count(40, 60);
    }
}
