//! The FM-index rank kernel, its k-mer interval table and the lockstep
//! seed-frequency table against their plain predecessors: a
//! byte-per-symbol BWT scanned symbol by symbol, a search stepped base by
//! base from the full interval, and a table built one column at a time.
//! The kernel may change the cost of an operation, never its answer. How
//! many operations there are was held fixed too until PR 21, which put
//! the k-mer table under every seed search: the first `k` extensions of a
//! column became one lookup, counted as one operation, and the count is
//! now held to that formula instead.

use repute_filter::freq::{FreqTable, MAX_EXTRA};
use repute_filter::oss::{Exploration, OssParams};
use repute_genome::reads::{ErrorProfile, ReadSimulator};
use repute_genome::rng::StdRng;
use repute_genome::synth::ReferenceBuilder;
use repute_genome::DnaSeq;
use repute_index::{bwt, FmIndex, Interval};
use repute_mappers::multiref::ReferenceSet;

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

/// The search `FmIndex::search_start` replaces: every base of `pattern`
/// one `extend_left` from the full interval, emptied or not.
fn stepped(fm: &FmIndex, pattern: &[u8]) -> Interval {
    let full = fm.full_interval();
    let step = |interval, &code| fm.extend_left(interval, code);
    pattern.iter().rev().fold(full, step)
}

/// Holds every entry of the index's k-mer table to the stepped search
/// and to a count of the k-mer's occurrences in the text, and a pattern
/// the table cannot start to the full interval. Returns how many k-mers
/// it met that occur only running across the end of the text into its
/// start — which is to say, not at all.
fn assert_kmer_table_matches_stepping(fm: &FmIndex, codes: &[u8]) -> usize {
    let k = fm.kmer_len();
    // ⌊log₄ n⌋, at most 8.
    assert!(k <= 8 && (1usize << (2 * k)) <= codes.len().max(1));
    assert!(k == 8 || (1usize << (2 * (k + 1))) > codes.len());
    let index_of = |kmer: &[u8]| kmer.iter().fold(0, |x, &c| x << 2 | usize::from(c));
    let mut occurrences = vec![0u32; 1 << (2 * k)];
    if k == 0 {
        // The empty k-mer: every row, the sentinel's included.
        occurrences[0] = codes.len() as u32 + 1;
    } else {
        for window in codes.windows(k) {
            occurrences[index_of(window)] += 1;
        }
    }
    for (index, &count) in occurrences.iter().enumerate() {
        let kmer: Vec<u8> = (0..k).rev().map(|i| (index >> (2 * i) & 3) as u8).collect();
        let (got, covered) = fm.search_start(&kmer);
        assert_eq!(covered, k);
        assert_eq!(
            got,
            stepped(fm, &kmer),
            "len {} k-mer {kmer:?}",
            codes.len()
        );
        assert_eq!(got.width(), count, "len {} k-mer {kmer:?}", codes.len());
        // A longer pattern starts at its last k bases, whatever is before.
        let longer = [&[3, 0][..], &kmer].concat();
        assert_eq!(fm.search_start(&longer), (got, k));
        assert_eq!(fm.count(&longer), stepped(fm, &longer).width());
        // A shorter one is left to the caller whole.
        if let Some(shorter) = kmer.get(1..) {
            assert_eq!(fm.search_start(shorter), (fm.full_interval(), 0));
            assert_eq!(fm.count(shorter), stepped(fm, shorter).width());
        }
    }
    // Along the text, a search ending at each base starts from the k
    // bases before it.
    for end in k..=codes.len() {
        let start = (stepped(fm, &codes[end - k..end]), k);
        assert_eq!(fm.search_start(&codes[..end]), start);
    }
    (1..k)
        .map(|tail| [&codes[codes.len() - tail..], &codes[..k - tail]].concat())
        .filter(|wrapped| occurrences[index_of(wrapped)] == 0)
        .count()
}

#[test]
fn kmer_table_equals_the_stepped_search_for_every_kmer() {
    let mut rng = StdRng::seed_from_u64(0xB10D);
    let mut wrapped_only = 0;
    let mut check = |codes: &[u8]| {
        let fm = FmIndex::build(&DnaSeq::from_codes(codes).expect("valid codes"));
        wrapped_only += assert_kmer_table_matches_stepping(&fm, codes);
    };
    // Around every change of k up to 5 and every block boundary.
    let lengths = [
        0usize, 1, 3, 4, 15, 16, 63, 64, 95, 96, 97, 190, 191, 192, 193, 255, 256, 383, 384, 385,
        1023, 1024, 2000,
    ];
    for len in lengths {
        let random: Vec<u8> = (0..len).map(|_| rng.gen_range(0..4)).collect();
        check(&random);
        check(&vec![0; len]);
    }
    for sentinel_row in [1, 96, 191, 192, 192 + 96, 2 * 192 - 1, 2 * 192] {
        let mut codes = vec![1u8];
        codes.extend(std::iter::repeat_n(0, sentinel_row - 1));
        codes.extend(std::iter::repeat_n(3, 3 * BLOCK_ROWS - codes.len()));
        check(&codes);
    }
    // Two records indexed as one concatenation, and the same index read
    // back from its stream: the table is derived on load, not stored.
    let set = ReferenceSet::build(vec![
        (
            "chrA".to_string(),
            ReferenceBuilder::new(2_000).seed(1611).build(),
        ),
        (
            "chrB".to_string(),
            ReferenceBuilder::new(1_000).seed(1612).build(),
        ),
    ]);
    let indexed = set.indexed();
    assert_eq!(indexed.fm().kmer_len(), 5);
    wrapped_only += assert_kmer_table_matches_stepping(indexed.fm(), indexed.codes());
    let mut stream = Vec::new();
    indexed.fm().write_to(&mut stream).expect("in-memory write");
    let loaded = FmIndex::read_from(stream.as_slice()).expect("own stream");
    assert_kmer_table_matches_stepping(&loaded, indexed.codes());
    assert!(wrapped_only > 0, "no k-mer ran across the end of a text");
}

/// `FreqTable::build` as it was before the lockstep order and the k-mer
/// table: each column extended base by base from the full interval to
/// its end before the next one starts.
struct ColumnAtATime {
    /// Per seed end `s_min..=n`: the intervals of the seeds of length
    /// `s_min, s_min + 1, …`, and whether the column hit its depth cap.
    columns: Vec<(Vec<Interval>, bool)>,
    s_min: usize,
    /// Extensions each live column took.
    column_ops: Vec<u64>,
}

impl ColumnAtATime {
    fn build(fm: &FmIndex, read: &[u8], params: &OssParams) -> ColumnAtATime {
        let (s_min, n) = (params.s_min(), read.len());
        let mut column_ops = Vec::new();
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
            let mut extend_ops = 0;
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
            column_ops.push(extend_ops);
        }
        ColumnAtATime {
            columns,
            s_min,
            column_ops,
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
    let k = fm.kmer_len();
    assert_eq!(k, 7);
    let mut rng = StdRng::seed_from_u64(0xF4EA);
    let mut capped_lookups = 0;
    let mut dead_in_table = 0;
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
        // The paper's δ sweep at its S_min, then S_min around the table's
        // k (below it the table is no use to a column) and well above.
        let paper = (3..=7u32).map(|delta| (delta, (read_len / (delta as usize + 1)).min(12)));
        let around_k = [k - 1, k, k + 1, 12, 20].map(|s_min| (1u32, s_min));
        for (delta, s_min) in paper.chain(around_k) {
            for exploration in [Exploration::Restricted, Exploration::Full] {
                let params = OssParams::new(delta, s_min)
                    .expect("valid")
                    .exploration(exploration);
                for read in &reads {
                    let table = FreqTable::build(&fm, read, &params);
                    let reference_table = ColumnAtATime::build(&fm, read, &params);
                    // One lookup stands for a column's first k extensions,
                    // or for as many of them as it lived through.
                    let ops = |&stepped: &u64| match s_min >= k {
                        true => 1 + stepped.saturating_sub(k as u64),
                        false => stepped,
                    };
                    let want_ops: u64 = reference_table.column_ops.iter().map(ops).sum();
                    assert_eq!(
                        table.extend_ops(),
                        want_ops,
                        "len {read_len} δ {delta} S_min {s_min} {exploration:?}"
                    );
                    dead_in_table += reference_table
                        .column_ops
                        .iter()
                        .filter(|&&stepped| stepped < k as u64)
                        .count();
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
    assert!(dead_in_table > 0, "no column died inside the table's k-mer");
}
