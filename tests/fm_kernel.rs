//! The FM-index rank kernel and the lockstep seed-frequency table against
//! their plain predecessors: a byte-per-symbol BWT scanned symbol by
//! symbol, and a table built one column at a time. The kernel may change
//! the cost of an operation, never its answer or how many there are.

use repute_filter::freq::{FreqTable, MAX_EXTRA};
use repute_filter::oss::{Exploration, OssParams};
use repute_genome::reads::{ErrorProfile, ReadSimulator};
use repute_genome::rng::StdRng;
use repute_genome::synth::ReferenceBuilder;
use repute_genome::DnaSeq;
use repute_index::{bwt, FmIndex, Interval};

/// Rows of one rank block.
const BLOCK_ROWS: usize = 192;

/// Checks every rank the index can be asked for against a scan of the
/// byte BWT, and returns the sentinel's row.
fn assert_occ_matches_byte_scan(codes: &[u8]) -> usize {
    let fm = FmIndex::build(&DnaSeq::from_codes(codes).expect("valid codes"));
    let oracle = bwt::transform(codes);
    let full = fm.full_interval();
    assert_eq!(full.hi as usize, oracle.symbols.len());
    for code in 0..4u8 {
        let smaller = oracle.symbols.iter().filter(|&&s| s <= code).count() as u32;
        for row in 0..=full.hi {
            // `extend_left` of `0..row` is `first + occ(0) .. first + occ(row)`.
            let got = fm.extend_left(Interval { lo: 0, hi: row }, code);
            let occ = oracle.symbols[..row as usize]
                .iter()
                .filter(|&&s| s == bwt::to_symbol(code))
                .count() as u32;
            let want = Interval {
                lo: smaller,
                hi: smaller + occ,
            };
            assert_eq!(got, want, "len {} code {code} row {row}", codes.len());
        }
    }
    oracle.sentinel_row
}

#[test]
fn packed_rank_equals_the_byte_scan_at_every_row() {
    let mut rng = StdRng::seed_from_u64(0xB10C);
    let lengths = [
        0usize, 1, 95, 96, 97, 190, 191, 192, 193, 383, 384, 385, 2000,
    ];
    for len in lengths {
        let random: Vec<u8> = (0..len).map(|_| rng.gen_range(0..4)).collect();
        assert_occ_matches_byte_scan(&random);
        // All A: the sentinel is the only other symbol, stored as an A
        // itself, on the last row.
        assert_eq!(assert_occ_matches_byte_scan(&vec![0; len]), len);
    }
    // `C A^k T^m` sorts exactly its k A-suffixes below the whole text, so
    // the sentinel sits on row k + 1: the first, middle and last row of a
    // block, in the first block and in a later one.
    for sentinel_row in [1, 96, 191, 192, 192 + 96, 2 * 192 - 1, 2 * 192] {
        let mut codes = vec![1u8];
        codes.extend(std::iter::repeat_n(0, sentinel_row - 1));
        codes.extend(std::iter::repeat_n(3, 3 * BLOCK_ROWS - codes.len()));
        assert_eq!(assert_occ_matches_byte_scan(&codes), sentinel_row);
    }
}

/// `FreqTable::build` as it was before the lockstep order: each column
/// extended to its end before the next one starts.
struct ColumnAtATime {
    /// Per seed end `s_min..=n`: the intervals of the seeds of length
    /// `s_min, s_min + 1, …`, and whether the column hit its depth cap.
    columns: Vec<(Vec<Interval>, bool)>,
    s_min: usize,
    extend_ops: u64,
}

impl ColumnAtATime {
    fn build(fm: &FmIndex, read: &[u8], params: &OssParams) -> ColumnAtATime {
        let (s_min, n) = (params.s_min(), read.len());
        let mut extend_ops = 0;
        let mut columns = Vec::new();
        for p in s_min..=n {
            let Some(depth_limit) = params.max_seed_len_at(p, n) else {
                columns.push((Vec::new(), false));
                continue;
            };
            let depth = depth_limit.min(s_min + MAX_EXTRA);
            let mut entries = Vec::new();
            let mut interval = fm.full_interval();
            let mut d = p;
            // First s_min extensions establish the shortest seed.
            let mut alive = true;
            while d > p - s_min {
                d -= 1;
                interval = fm.extend_left(interval, read[d]);
                extend_ops += 1;
                if interval.is_empty() {
                    alive = false;
                    break;
                }
            }
            let mut capped = false;
            if alive {
                entries.push(interval);
                // Keep extending while occurrences remain, the seed can
                // still grow, and the depth bound is not reached.
                let floor = p - depth;
                while d > floor {
                    d -= 1;
                    interval = fm.extend_left(interval, read[d]);
                    extend_ops += 1;
                    if interval.is_empty() {
                        break;
                    }
                    entries.push(interval);
                }
                capped = d == floor && !interval.is_empty() && floor > 0;
            }
            columns.push((entries, capped));
        }
        ColumnAtATime {
            columns,
            s_min,
            extend_ops,
        }
    }

    fn interval(&self, start: usize, end: usize) -> Option<Interval> {
        let (entries, capped) = &self.columns[end - self.s_min];
        match entries.get(end - start - self.s_min) {
            Some(&interval) => Some(interval),
            None if *capped => entries.last().copied(),
            None => None,
        }
    }
}

#[test]
fn lockstep_freq_table_equals_the_column_at_a_time_table() {
    // The builder's default repeat families keep some columns alive to
    // the depth cap.
    let reference = ReferenceBuilder::new(60_000).seed(0xF4E9).build();
    let fm = FmIndex::build(&reference);
    let mut rng = StdRng::seed_from_u64(0xF4EA);
    let mut capped_lookups = 0;
    for read_len in [50usize, 100, 150] {
        let mut reads: Vec<Vec<u8>> = ReadSimulator::new(read_len, 6)
            .seed(read_len as u64)
            .profile(ErrorProfile::err012100())
            .simulate(&reference)
            .iter()
            .map(|read| read.seq.to_codes())
            .collect();
        for _ in 0..2 {
            reads.push((0..read_len).map(|_| rng.gen_range(0..4)).collect());
        }
        for delta in 3..=7u32 {
            let s_min = (read_len / (delta as usize + 1)).min(12);
            for exploration in [Exploration::Restricted, Exploration::Full] {
                let params = OssParams::new(delta, s_min)
                    .expect("valid")
                    .exploration(exploration);
                for read in &reads {
                    let table = FreqTable::build(&fm, read, &params);
                    let reference_table = ColumnAtATime::build(&fm, read, &params);
                    assert_eq!(table.extend_ops(), reference_table.extend_ops);
                    for end in s_min..=read_len {
                        for start in 0..=end - s_min {
                            let want = reference_table.interval(start, end);
                            assert_eq!(
                                table.interval(start, end),
                                want,
                                "len {read_len} δ {delta} {exploration:?} seed {start}..{end}"
                            );
                            capped_lookups +=
                                usize::from(want.is_some() && end - start > s_min + MAX_EXTRA);
                        }
                    }
                }
            }
        }
    }
    assert!(capped_lookups > 0, "no read reached the depth cap");
}
