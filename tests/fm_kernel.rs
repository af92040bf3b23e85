//! The FM-index rank kernel, its k-mer interval table and the lockstep
//! seed-frequency table against their plain predecessors: a
//! byte-per-symbol BWT scanned symbol by symbol, a search stepped base by
//! base from the full interval, and a table built one column at a time.
//! The kernel may change the cost of an operation, never its answer. How
//! many operations there are was held fixed too until PR 21, which put
//! the k-mer table under every seed search: the first `k` extensions of a
//! column became one lookup, counted as one operation, and the count is
//! now held to that formula instead. A column that meets its left
//! neighbour's interval copies the rest of its intervals, so the table
//! ranks fewer operations than that count; how many is held to where the
//! oracle's intervals say each column stops.

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

/// How [`FreqTable::build`] should share one table's column tails, read
/// off the column-at-a-time table: a live column stops ranking at the
/// first length `L` past `s_min` and short of its depth at which its
/// interval is its left neighbour's at `L − 1`, the seed from the same
/// start.
#[derive(Debug, Default)]
struct Sharing {
    /// Lookups plus `extend_left` calls the build makes.
    ranked_ops: u64,
    /// Columns that stopped on an interval wider than one row.
    wide: usize,
    /// Capped columns whose neighbour shares too: chains of two or more
    /// sharing columns whose copied tail reached the depth cap.
    capped_chains: usize,
}

/// Holds `FreqTable::build` to the column-at-a-time table on every
/// `interval(start, end)` and on `extend_ops`, and its ranked operations
/// to where [`Sharing`] says the columns stop.
fn assert_table_matches_the_oracle(
    fm: &FmIndex,
    read: &[u8],
    params: &OssParams,
    what: &str,
) -> (FreqTable, Sharing) {
    let (s_min, n, k) = (params.s_min(), read.len(), fm.kmer_len());
    let table = FreqTable::build(fm, read, params);
    let oracle = ColumnAtATime::build(fm, read, params);
    for end in s_min..=n {
        for start in 0..=end - s_min {
            let want = oracle.interval(start, end);
            assert_eq!(
                table.interval(start, end),
                want,
                "{what} seed {start}..{end}"
            );
        }
    }
    // A lookup covers `k` bases when the shortest seed has them.
    let (lookup, covered) = if s_min >= k { (1, k as u64) } else { (0, 0) };
    let mut sharing = Sharing::default();
    let mut extend_ops = 0;
    let mut stepped = oracle.column_ops.iter();
    let mut left_shares = false;
    for end in s_min..=n {
        let Some(depth_limit) = params.max_seed_len_at(end, n) else {
            left_shares = false;
            continue;
        };
        let depth = depth_limit.min(s_min + MAX_EXTRA);
        let steps = *stepped.next().expect("one count per live column");
        extend_ops += lookup + steps.saturating_sub(covered);
        let (entries, capped) = &oracle.columns[end - s_min];
        let left = end
            .checked_sub(s_min + 1)
            .map_or(&[][..], |left| &oracle.columns[left].0[..]);
        let shared_at = (s_min + 1..depth.min(s_min + entries.len()))
            .find(|&len| left.get(len - 1 - s_min) == Some(&entries[len - s_min]));
        let ranked = shared_at.map_or(steps, |len| len as u64);
        sharing.ranked_ops += lookup + ranked.saturating_sub(covered);
        if let Some(len) = shared_at {
            sharing.wide += usize::from(entries[len - s_min].width() > 1);
            sharing.capped_chains += usize::from(*capped && left_shares);
        }
        left_shares = shared_at.is_some();
    }
    assert_eq!(table.extend_ops(), extend_ops, "{what}");
    assert_eq!(table.ranked_ops(), sharing.ranked_ops, "{what}");
    assert!(table.ranked_ops() <= table.extend_ops(), "{what}");
    (table, sharing)
}

#[test]
fn shared_column_tails_rank_fewer_operations_than_the_columns_alone() {
    // The corpus of `lockstep_freq_table_equals_the_column_at_a_time_table`.
    let reference = ReferenceBuilder::new(60_000).seed(0xF4E9).build();
    let fm = FmIndex::build(&reference);
    let k = fm.kmer_len();
    let mut rng = StdRng::seed_from_u64(0xF4EA);
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
        let paper = (3..=7u32).map(|delta| (delta, (read_len / (delta as usize + 1)).min(12)));
        let around_k = [k - 1, k, k + 1, 12, 20].map(|s_min| (1u32, s_min));
        for (delta, s_min) in paper.chain(around_k) {
            for exploration in [Exploration::Restricted, Exploration::Full] {
                let params = OssParams::new(delta, s_min)
                    .expect("valid")
                    .exploration(exploration);
                for read in &reads {
                    let what = format!("len {read_len} δ {delta} S_min {s_min} {exploration:?}");
                    assert_table_matches_the_oracle(&fm, read, &params, &what);
                }
            }
        }
    }
    // Reads of a reference without young repeats at the mapper's default
    // δ 5 and S_min 12. Here the build ranks 0.52 of the modelled
    // operations (0.55 at 4 Mbp, 0.60 at 8 Mbp); without the shared tails
    // it would rank all of them.
    let reference = ReferenceBuilder::new(1_000_000).seed(0x5AE5).build();
    let fm = FmIndex::build(&reference);
    let params = OssParams::new(5, 12).expect("valid");
    let (mut ranked, mut modelled) = (0, 0);
    for read in ReadSimulator::new(100, 300)
        .seed(0x5AE6)
        .profile(ErrorProfile::err012100())
        .simulate(&reference)
    {
        let table = FreqTable::build(&fm, &read.seq.to_codes(), &params);
        ranked += table.ranked_ops();
        modelled += table.extend_ops();
    }
    let share = ranked as f64 / modelled as f64;
    println!("ranked {ranked} of {modelled} modelled operations: {share:.3}");
    assert!(share <= 0.6, "ranked {share:.3} of the modelled operations");
}

#[test]
fn shared_column_tails_equal_the_column_at_a_time_table_on_tandem_repeats() {
    // In a tandem array a seed longer than the unit occurs once per copy,
    // so columns meet their neighbour on intervals many rows wide and
    // keep them to the depth cap; point mutations and the array's ends
    // break the runs.
    let mut rng = StdRng::seed_from_u64(0x7A4D);
    let (mut tables, mut wide, mut capped_chains) = (0, 0, 0);
    let (mut ranked, mut modelled) = (0, 0);
    for unit_len in [3usize, 5, 7, 10, 12, 16, 20, 24] {
        let random = |rng: &mut StdRng, len| (0..len).map(|_| rng.gen_range(0..4u8)).collect();
        let unit: Vec<u8> = random(&mut rng, unit_len);
        let mut text: Vec<u8> = random(&mut rng, 500);
        let array = text.len()..text.len() + 3_000;
        text.extend(array.clone().map(|i| unit[i % unit_len]));
        for _ in 0..20 {
            let at = rng.gen_range(array.clone());
            text[at] = (text[at] + rng.gen_range(1..4u8)) % 4;
        }
        text.extend(random(&mut rng, 500));
        let fm = FmIndex::build(&DnaSeq::from_codes(&text).expect("valid codes"));
        let k = fm.kmer_len();
        assert_eq!(k, 5);
        for read_len in [60usize, 100] {
            for error in [false, true] {
                for _ in 0..3 {
                    let start = rng.gen_range(array.start - read_len / 2..array.end - read_len / 2);
                    let mut read = text[start..start + read_len].to_vec();
                    if error {
                        let at = rng.gen_range(0..read_len);
                        read[at] = (read[at] + rng.gen_range(1..4u8)) % 4;
                    }
                    // S_min below the table's k, at it, the mapper's 12
                    // and above.
                    for (delta, s_min) in [(1u32, k - 1), (2, k), (3, 12), (4, 12), (2, 20)] {
                        for exploration in [Exploration::Restricted, Exploration::Full] {
                            let params = OssParams::new(delta, s_min)
                                .expect("valid")
                                .exploration(exploration);
                            let what = format!(
                                "unit {unit_len} read {start}+{read_len} error {error} \
                                 δ {delta} S_min {s_min} {exploration:?}"
                            );
                            let (table, sharing) =
                                assert_table_matches_the_oracle(&fm, &read, &params, &what);
                            tables += 1;
                            wide += sharing.wide;
                            capped_chains += sharing.capped_chains;
                            ranked += table.ranked_ops();
                            modelled += table.extend_ops();
                        }
                    }
                }
            }
        }
    }
    println!(
        "{tables} tables, {wide} columns shared wider than one row, {capped_chains} \
         capped chains; ranked {ranked} of {modelled} modelled operations"
    );
    assert_eq!(tables, 960);
    assert!(wide > 0, "no column shared an interval wider than one row");
    assert!(
        capped_chains > 0,
        "no chain of sharing columns reached the cap"
    );
}

/// The locate oracle: each interval's located rows walked one at a time
/// with `position_of_row`, interval after interval.
fn row_at_a_time(fm: &FmIndex, intervals: &[Interval], limit: usize) -> Vec<u32> {
    let rows = intervals.iter().flat_map(|iv| iv.located_rows(limit));
    rows.map(|row| fm.position_of_row(row)).collect()
}

/// Holds `locate_all` to the row-at-a-time oracle, and `locate` to it
/// one interval at a time, for `intervals` under several limits.
/// Returns the positions the oracle found under no limit.
fn assert_locate_matches_the_oracle(fm: &FmIndex, intervals: &[Interval], what: &str) -> usize {
    let widest = intervals.iter().map(|iv| iv.width() as usize).max();
    for limit in [0, 1, 3, 64, widest.unwrap_or(0), usize::MAX] {
        let expected = row_at_a_time(fm, intervals, limit);
        assert_eq!(
            fm.locate_all(intervals, limit),
            expected,
            "{what}, limit {limit}"
        );
        let one_by_one: Vec<u32> = intervals
            .iter()
            .flat_map(|&iv| fm.locate(iv, limit))
            .collect();
        assert_eq!(one_by_one, expected, "{what}, limit {limit}, one at a time");
    }
    row_at_a_time(fm, intervals, usize::MAX).len()
}

#[test]
fn lockstep_locate_equals_the_row_at_a_time_walk() {
    // The walk keeps 64 rows in flight: the sets below hold intervals
    // wider than that and more rows than that in total, start at the
    // sentinel row 0, repeat an interval, and hold empty ones.
    let mut rng = StdRng::seed_from_u64(0x10CA7E);
    let genomic = ReferenceBuilder::new(20_000).seed(5).build().to_codes();
    let mut tandem: Vec<u8> = (0..500).map(|_| rng.gen_range(0..4u8)).collect();
    let unit: Vec<u8> = (0..7).map(|_| rng.gen_range(0..4u8)).collect();
    tandem.extend((0..3_000).map(|i| unit[i % unit.len()]));
    tandem.extend((0..500).map(|_| rng.gen_range(0..4u8)).collect::<Vec<_>>());
    let mut located = 0;
    for (corpus, codes) in [("genomic", &genomic), ("tandem", &tandem)] {
        let reference = DnaSeq::from_codes(codes).expect("valid codes");
        for sa_sample in [1usize, 4, 32, 64] {
            let fm = FmIndex::builder().sa_sample(sa_sample).build(&reference);
            let rows = codes.len() as u32 + 1;
            // Every row at once: the positions are the text's, each once.
            let full = fm.full_interval();
            let mut every = fm.locate_all(&[full], usize::MAX);
            every.sort_unstable();
            assert!(every.iter().copied().eq(0..codes.len() as u32));
            for round in 0..20 {
                let mut intervals: Vec<Interval> = (0..rng.gen_range(1..12))
                    .map(|_| {
                        let lo = rng.gen_range(0..rows);
                        let width = [1, 5, 70, 300][rng.gen_range(0..4)];
                        let hi = (lo + rng.gen_range(0..=width)).min(rows);
                        Interval { lo, hi }
                    })
                    .collect();
                intervals.push(Interval {
                    lo: 0,
                    hi: rng.gen_range(1..100),
                });
                intervals.push(intervals[rng.gen_range(0..intervals.len())]);
                // Seed intervals of the corpus itself, many rows wide on
                // the tandem array.
                for _ in 0..4 {
                    let len = rng.gen_range(4..14);
                    let at = rng.gen_range(0..codes.len() - len);
                    intervals.extend(fm.interval(&codes[at..at + len]));
                }
                let what = format!("{corpus} sa_sample {sa_sample} round {round}");
                located += assert_locate_matches_the_oracle(&fm, &intervals, &what);
            }
        }
    }
    assert!(located > 10_000, "{located}");
}

/// A text of `len` random bases.
fn random_codes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen_range(0..4u8)).collect()
}

#[test]
fn packed_sa_samples_locate_every_row_at_every_field_width() {
    // The samples are held as `position / sa_sample`, packed at the bit
    // length of `text_len / sa_sample`: texts of `2^k · rate` bases and
    // one either side step the field width from one bit up, at every
    // rate, so fields start and end at every offset of their words. The
    // rates that are no power of two (3, 5, 12) load through the same
    // exact division as the others.
    // Texts up to 32 kbp reach 16 bits at rate 1; the wider fields of a
    // larger text are the packed array's own unit test, 1 to 32 bits.
    let mut rng = StdRng::seed_from_u64(0x5A_9ACC);
    let mut widths = std::collections::BTreeSet::new();
    for rate in [1usize, 3, 4, 5, 8, 12, 32, 64] {
        let mut lens = std::collections::BTreeSet::new();
        for k in 0..=16 {
            let edge = (1usize << k) * rate;
            lens.extend(
                [edge - 1, edge, edge + 1]
                    .into_iter()
                    .filter(|&n| n <= 32_769),
            );
        }
        for len in lens {
            let codes = random_codes(&mut rng, len);
            let fm = FmIndex::builder()
                .sa_sample(rate)
                .build(&DnaSeq::from_codes(&codes).expect("valid codes"));
            let width = (usize::BITS - (len / rate).leading_zeros()).max(1) as usize;
            let samples = len.div_ceil(rate);
            assert_eq!(
                fm.footprint().sa_bytes,
                8 * (samples * width / 64 + 2),
                "rate {rate} len {len}: {samples} fields of {width} bits"
            );
            widths.insert(width);

            // Row r + 1 holds the r-th smallest suffix.
            let mut naive: Vec<u32> = (0..len as u32).collect();
            naive.sort_unstable_by(|&a, &b| codes[a as usize..].cmp(&codes[b as usize..]));
            let rows: Vec<u32> = (1..=len as u32)
                .map(|row| fm.position_of_row(row))
                .collect();
            assert_eq!(rows, naive, "rate {rate} len {len}: position_of_row");
            let full = [fm.full_interval()];
            assert_eq!(
                fm.locate_all(&full, usize::MAX),
                naive,
                "rate {rate} len {len}: locate_all"
            );
            let mut bytes = Vec::new();
            fm.write_to(&mut bytes).expect("write");
            let back = FmIndex::read_from(bytes.as_slice()).expect("read back");
            assert_eq!(back.footprint(), fm.footprint(), "rate {rate} len {len}");
            assert_eq!(
                back.locate_all(&full, usize::MAX),
                naive,
                "rate {rate} len {len}: locate_all after a round trip"
            );
        }
    }
    assert!(widths.iter().copied().eq(1..=16), "{widths:?}");
}
