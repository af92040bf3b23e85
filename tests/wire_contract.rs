//! The on-disk byte contract, pinned, and the decoders' behaviour on
//! damaged bytes.
//!
//! **Pins.** `tests/executor_contract.rs` pins the checkpoint journal
//! and its manifest; this file pins the other bytes the programs leave
//! behind — the serve journal (every frame kind, append-only and
//! compacted), the `repute index` output and the `--index-cache` file —
//! as FNV-64 digests generated at the commit before the seven readers
//! were replaced by `repute_genome::wire`. A mismatch prints the
//! computed table in source form. The three `serve/*` pins were
//! regenerated once, when the k-mer interval table cut the extension
//! count (PR 21): decoded frame by frame beside the parent's, the
//! journals differ in simulated-clock values (`sim_clock`, `arrival_s`,
//! `at_s`, `completion_s`, one deadline) and nothing else. The table is
//! derived on load, so the `index/*` pins did not move.
//!
//! **Corpus.** Every truncation and every single-bit flip of a small
//! valid instance of each format goes through its decoder, which must
//! answer with a typed error (or, for the journals, the documented
//! torn-tail prefix), never panic, and never ask the allocator for more
//! than a small multiple of the input — measured by the counting
//! allocator below, per thread, so sibling tests cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use repute_cli::{
    parse_map_args, render_stats, render_stats_strict, run_index, run_map, IndexOptions,
};
use repute_core::journal::{crc32, manifest_path, BatchRecord, Fnv64, RunFingerprint, RunJournal};
use repute_genome::fasta::{read_fasta, write_fasta, AmbiguityPolicy, FastaRecord};
use repute_genome::fastq::{read_fastq, write_fastq, FastqRecord};
use repute_genome::synth::ReferenceBuilder;
use repute_genome::{DnaSeq, Strand};
use repute_hetsim::{profiles, FaultPlan};
use repute_mappers::multiref::ReferenceSet;
use repute_mappers::{IndexedReference, MapOutput, Mapping};
use repute_obs::MapMetrics;
use repute_serve::journal::JobJournal;
use repute_serve::{parse_request, JobEnvelope, Request, ServeHarness, ServeOptions};

// ---------------------------------------------------------------------
// The largest single allocation request of the current thread.
// ---------------------------------------------------------------------

struct PeakAlloc;

thread_local! {
    static LARGEST_REQUEST: Cell<usize> = const { Cell::new(0) };
}

fn note_request(size: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = LARGEST_REQUEST.try_with(|peak| peak.set(peak.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`; the only
// addition is a store into a `const`-initialised thread-local `Cell`,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_request(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Runs `f` and returns its result with the largest single allocation
/// request this thread made meanwhile.
fn largest_request_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST_REQUEST.with(|peak| peak.set(0));
    let out = f();
    (out, LARGEST_REQUEST.with(Cell::get))
}

// ---------------------------------------------------------------------
// Fixtures.
// ---------------------------------------------------------------------

/// A directory of this test's own under the system temp dir, removed on
/// drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("repute-wire-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        TempDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Compares against the committed table as a whole; a mismatch prints
/// the computed table in source form.
fn assert_pinned(name: &str, computed: &[(String, u64)], pinned: &[(&str, u64)]) {
    let same = computed.len() == pinned.len()
        && computed
            .iter()
            .zip(pinned)
            .all(|((cn, cd), (pn, pd))| cn == pn && cd == pd);
    if !same {
        let mut table = format!("const {name}: &[(&str, u64)] = &[\n");
        for (cell, digest) in computed {
            table.push_str(&format!("    (\"{cell}\", 0x{digest:016x}),\n"));
        }
        table.push_str("];");
        panic!("wire contract changed; computed table:\n{table}");
    }
}

const SERVE_REF_LEN: usize = 30_000;

fn serve_reference() -> DnaSeq {
    ReferenceBuilder::new(SERVE_REF_LEN).seed(1601).build()
}

fn serve_options() -> ServeOptions {
    ServeOptions {
        shed_overdue: true,
        // Serial rounds: `late` must sit queued while `urgent`'s batch
        // moves the clock past its deadline.
        concurrent_batches: false,
        fault_plan: FaultPlan::new().transient(0, 0.0).loss(2, 2.0e-5),
        ..ServeOptions::default()
    }
}

fn serve_job(reference: &DnaSeq, id: &str, tenant: &str, start: usize) -> JobEnvelope {
    let reads = (0..3)
        .map(|i| {
            let at = start + 200 * i;
            (format!("{id}/{i}"), reference.subseq(at..at + 100))
        })
        .collect();
    JobEnvelope::new(id, reads).with_tenant(tenant)
}

/// The serve journal at three moments of one fixed scenario: after an
/// append-only run that sheds one job and loses a device (Accepted with
/// and without deadline, BatchDone with `lost` and provenance, Shed),
/// right after a compaction with two jobs still queued (State, live
/// Accepted), and after those two ran (BatchDone behind a State frame).
struct ServeJournals {
    fingerprint: RunFingerprint,
    appended: Vec<u8>,
    compacted: Vec<u8>,
    drained: Vec<u8>,
}

fn serve_journals(dir: &TempDir) -> ServeJournals {
    let reference = serve_reference();
    let set = ReferenceSet::build(vec![("chrW".to_string(), reference.clone())]);
    let journal = dir.path("serve.journal");
    let (mut harness, _) =
        ServeHarness::with_journal(set, profiles::system1(), serve_options(), &journal, false)
            .expect("fresh journal");
    let accept = |harness: &mut ServeHarness, job: JobEnvelope| {
        assert!(harness.submit(job).expect("journal I/O").is_none());
    };
    accept(
        &mut harness,
        serve_job(&reference, "urgent", "acme", 1_000).with_deadline(1.0e-12),
    );
    accept(
        &mut harness,
        serve_job(&reference, "late", "lab", 2_000)
            .with_delta(3)
            .with_deadline(1.0e-9),
    );
    accept(&mut harness, serve_job(&reference, "plain", "edge", 3_000));
    harness.drain().expect("drain");
    let appended = std::fs::read(&journal).expect("journal");

    accept(
        &mut harness,
        serve_job(&reference, "queued-1", "acme", 4_000).with_deadline(1.0e6),
    );
    accept(
        &mut harness,
        serve_job(&reference, "queued-2", "lab", 5_000).with_priority(2),
    );
    assert!(harness.core_mut().compact_journal().expect("compaction"));
    let compacted = std::fs::read(&journal).expect("journal");
    harness.drain().expect("drain");
    let drained = std::fs::read(&journal).expect("journal");
    ServeJournals {
        fingerprint: harness.core().fingerprint(),
        appended,
        compacted,
        drained,
    }
}

/// A two-record 3 kbp FASTA, two reads off it, and the paths of
/// everything `repute index` / `repute map` write next to them.
struct IndexFixture {
    dir: TempDir,
}

impl IndexFixture {
    fn new(tag: &str) -> IndexFixture {
        let dir = TempDir::new(tag);
        let chr_a = ReferenceBuilder::new(2_000).seed(1611).build();
        let chr_b = ReferenceBuilder::new(1_000).seed(1612).build();
        let mut fasta = Vec::new();
        write_fasta(
            &mut fasta,
            &[
                FastaRecord::new("chrA", chr_a.clone()),
                FastaRecord::new("chrB", chr_b.clone()),
            ],
            70,
        )
        .expect("fasta");
        std::fs::write(dir.path("ref.fa"), fasta).expect("write fasta");
        let mut fastq = Vec::new();
        write_fastq(
            &mut fastq,
            &[
                FastqRecord::with_uniform_quality("fromA", chr_a.subseq(700..800), 40),
                FastqRecord::with_uniform_quality("fromB", chr_b.subseq(300..400), 40),
            ],
        )
        .expect("fastq");
        std::fs::write(dir.path("reads.fq"), fastq).expect("write fastq");
        IndexFixture { dir }
    }

    fn path(&self, name: &str) -> String {
        self.dir.path(name).to_string_lossy().into_owned()
    }

    /// `repute index --reference ref.fa --output <name>`; returns the
    /// bytes written.
    fn index(&self, name: &str) -> Vec<u8> {
        run_index(&IndexOptions {
            reference: self.path("ref.fa"),
            output: self.path(name),
        })
        .expect("repute index");
        std::fs::read(self.dir.path(name)).expect("index file")
    }

    /// `repute map <source> --reads reads.fq --output <out>`.
    fn map(&self, source: &str, out: &str) -> Result<(usize, usize), repute_core::ReputeError> {
        let line = format!(
            "{source} --reads {} --delta 3 --s-min 15 --output {}",
            self.path("reads.fq"),
            self.path(out)
        );
        let opts = parse_map_args(line.split_whitespace().map(String::from)).expect("map args");
        run_map(&opts)
    }
}

// ---------------------------------------------------------------------
// The pins.
// ---------------------------------------------------------------------

#[test]
fn serve_journal_index_and_cache_bytes_are_pinned() {
    let dir = TempDir::new("pins");
    let serve = serve_journals(&dir);

    // The scenario must really hold every frame kind, or the digests
    // below pin less than they claim.
    let replay = |bytes: &[u8]| {
        let path = dir.path("replay.journal");
        std::fs::write(&path, bytes).expect("write");
        JobJournal::open(&path, &serve.fingerprint)
            .expect("intact journal")
            .1
    };
    let appended = replay(&serve.appended);
    assert!(appended.state.is_none());
    assert!(appended.accepted.iter().any(|j| j.deadline_s.is_some()));
    assert!(appended.accepted.iter().any(|j| j.deadline_s.is_none()));
    assert!(appended
        .batches
        .iter()
        .any(|b| !b.lost.is_empty() && !b.provenance.is_empty()));
    assert!(appended.shed.iter().any(|s| !s.seqs.is_empty()));
    let compacted = replay(&serve.compacted);
    assert!(compacted.state.is_some());
    assert_eq!(compacted.accepted.len(), 2);
    assert!(compacted.batches.is_empty());
    let drained = replay(&serve.drained);
    assert!(drained.state.is_some() && !drained.batches.is_empty());

    let fixture = IndexFixture::new("pins-index");
    let index = fixture.index("ref.rpx");
    let cache_source = format!(
        "--reference {} --index-cache {}",
        fixture.path("ref.fa"),
        fixture.path("ref.rpxc")
    );
    fixture.map(&cache_source, "cold.sam").expect("cold run");
    let cache = std::fs::read(fixture.dir.path("ref.rpxc")).expect("cache file");
    assert_eq!(&cache[..4], b"RPXC");
    assert_eq!(cache[12..], index[..], "a cache is a prefix plus the index");

    // The parent commit had two FNV-1a 64 folds and they are not the
    // same function: the `RPFM` trailer multiplies by the FNV prime
    // 2^40 + 0x1b3, the `Fnv64` behind every fingerprint and digest by
    // 2^48 + 0x1b3. Both are frozen in files, so both are pinned.
    let trailer_at = index.len() - 8;
    let fm_at = index
        .windows(4)
        .position(|w| w == b"RPFM")
        .expect("RPFM stream");
    let standard = index[fm_at..trailer_at]
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |hash, &b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    assert_eq!(
        index[trailer_at..],
        standard.to_le_bytes(),
        "the RPFM trailer is standard FNV-1a 64 of the stream before it"
    );
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);

    let computed = vec![
        ("serve/appended".to_string(), fnv(&serve.appended)),
        ("serve/compacted".to_string(), fnv(&serve.compacted)),
        ("serve/drained".to_string(), fnv(&serve.drained)),
        ("index/rpx".to_string(), fnv(&index)),
        ("index/cache".to_string(), fnv(&cache)),
        (
            "fnv64/text".to_string(),
            fnv(b"REPUTE: an OpenCL based read mapping tool"),
        ),
    ];
    assert_pinned("PINNED", &computed, PINNED);
}

const PINNED: &[(&str, u64)] = &[
    ("serve/appended", 0x037ba654b9897644),
    ("serve/compacted", 0xff425151bc4ff68c),
    ("serve/drained", 0x42ce3be889b08004),
    ("index/rpx", 0xcfc1ab6a4b6bc7a5),
    ("index/cache", 0xadf92596d6a0ee6b),
    ("fnv64/text", 0xe3b599bd23891f47),
];

// ---------------------------------------------------------------------
// The decoder corpus.
// ---------------------------------------------------------------------

/// One damaged copy of a valid input.
struct Mutation {
    what: String,
    bytes: Vec<u8>,
    /// First byte that differs from the valid input (for a truncation,
    /// the first missing one).
    at: usize,
    /// `Some(bit)` for a flip, `None` for a truncation.
    bit: Option<u8>,
}

/// Every truncation and every single-bit flip of `valid`.
fn mutations(valid: &[u8]) -> impl Iterator<Item = Mutation> + '_ {
    let cuts = (0..valid.len()).map(move |at| Mutation {
        what: format!("cut to {at} of {} bytes", valid.len()),
        bytes: valid[..at].to_vec(),
        at,
        bit: None,
    });
    let flips = (0..valid.len() * 8).map(move |i| {
        let (at, bit) = (i / 8, (i % 8) as u8);
        let mut bytes = valid.to_vec();
        bytes[at] ^= 1 << bit;
        Mutation {
            what: format!("bit {bit} of byte {at} flipped"),
            bytes,
            at,
            bit: Some(bit),
        }
    });
    cuts.chain(flips)
}

/// Runs one decoder call: it must not panic, and its largest single
/// allocation request must stay within `64 × input + 64 KiB`.
fn probe<T>(what: &str, input_len: usize, decode: impl FnOnce() -> T) -> T {
    let (outcome, peak) =
        largest_request_during(|| std::panic::catch_unwind(std::panic::AssertUnwindSafe(decode)));
    let Ok(result) = outcome else {
        panic!("{what}: the decoder panicked");
    };
    let bound = 64 * input_len + (64 << 10);
    assert!(
        peak <= bound,
        "{what}: a {input_len}-byte input made the decoder ask for {peak} bytes at once"
    );
    result
}

/// The stream decoders' typed errors: both kinds are exit code 3 at
/// the CLI (`load_reference_set`).
fn assert_typed(what: &str, err: &std::io::Error) {
    use std::io::ErrorKind::{InvalidData, UnexpectedEof};
    assert!(
        matches!(err.kind(), InvalidData | UnexpectedEof),
        "{what}: {err} is neither InvalidData nor UnexpectedEof"
    );
}

/// A valid `RPST` → `RPIX` → packed sequence → `RPFM` stream over two
/// records, with where each unchecksummed field sits. The record table
/// is written here by hand (with `q` = 4, so that an accepted decode
/// stays inside the allocation bound too — `ReferenceSet::build` would
/// pin `q` = 10 and a 4 MiB table).
struct IndexStream {
    bytes: Vec<u8>,
    names: [std::ops::Range<usize>; 2],
    q_at: usize,
    words: std::ops::Range<usize>,
}

fn index_stream() -> IndexStream {
    let chr_a = ReferenceBuilder::new(700).seed(1621).build();
    let chr_b = ReferenceBuilder::new(300).seed(1622).build();
    let mut concat = chr_a.clone();
    concat.extend(chr_b.iter());
    let mut bytes = b"RPST\x01\x00\x02\x00\x00\x00".to_vec();
    for (name, seq) in [("chrA", &chr_a), ("chrB", &chr_b)] {
        bytes.extend_from_slice(&(name.len() as u32).to_le_bytes());
        bytes.extend_from_slice(name.as_bytes());
        bytes.extend_from_slice(&(seq.len() as u64).to_le_bytes());
    }
    let rpix = bytes.len();
    IndexedReference::build_with_q(concat.clone(), 4)
        .write_to(&mut bytes)
        .expect("write");
    let words = rpix + 18..rpix + 18 + 8 * concat.len().div_ceil(32);
    assert_eq!(&bytes[rpix..rpix + 4], b"RPIX");
    assert_eq!(bytes[rpix + 6..rpix + 10], 4u32.to_le_bytes());
    assert_eq!(&bytes[words.end..words.end + 4], b"RPFM");

    // What `ReferenceSet::write_to` writes, byte for byte.
    let set = ReferenceSet::read_from(&bytes[..]).expect("valid stream");
    let mut rewritten = Vec::new();
    set.write_to(&mut rewritten).expect("write");
    assert_eq!(rewritten, bytes);
    IndexStream {
        bytes,
        names: [14..18, 30..34],
        q_at: rpix + 6,
        words,
    }
}

#[test]
fn damaged_index_streams_are_typed_errors_or_the_known_unchecksummed_flips() {
    let stream = index_stream();
    let mut accepted = Vec::new();
    for m in mutations(&stream.bytes) {
        let result = probe(&m.what, m.bytes.len(), || {
            ReferenceSet::read_from(&m.bytes[..])
        });
        match (result, m.bit) {
            (Ok(_), Some(bit)) => accepted.push((m.at, bit)),
            (Ok(_), None) => panic!("{}: a truncated stream decoded", m.what),
            (Err(e), _) => assert_typed(&m.what, &e),
        }
    }

    // The open gap (ROADMAP item 1): the record names, `q` and the
    // packed reference words carry no checksum, so exactly these flips
    // decode — the last group into a reference that disagrees with its
    // own FM-Index. Everything else in the file is refused.
    let mut expected = Vec::new();
    for name in &stream.names {
        // An ASCII byte stays valid UTF-8 unless its top bit is set.
        expected.extend(name.clone().flat_map(|at| (0..7).map(move |bit| (at, bit))));
    }
    // q = 4 may become 5 or 6; 0 and anything above 11 is refused.
    expected.extend([(stream.q_at, 0), (stream.q_at, 1)]);
    expected.extend(
        stream
            .words
            .clone()
            .flat_map(|at| (0..8).map(move |bit| (at, bit))),
    );
    accepted.sort_unstable();
    expected.sort_unstable();
    assert_eq!(accepted, expected, "the set of accepted bit flips moved");
}

#[test]
fn forged_lengths_in_index_streams_are_refused_before_allocating() {
    let stream = index_stream();
    let valid = &stream.bytes;
    let patched = |at: usize, field: &[u8]| {
        let mut bytes = valid.clone();
        bytes[at..at + field.len()].copy_from_slice(field);
        bytes
    };
    let max32 = u32::MAX.to_le_bytes();
    let max64 = u64::MAX.to_le_bytes();
    let packed_len_at = stream.words.start - 8;
    let cases: Vec<(&str, Vec<u8>)> = vec![
        // The three streams of ISSUE 16's motivation: 137 GB, 4 GiB
        // and (packed words) 4 GiB requests at the parent commit.
        (
            "record count, nothing behind it",
            valid[..6].iter().copied().chain(max32).collect(),
        ),
        (
            "name length, nothing behind it",
            valid[..10].iter().copied().chain(max32).collect(),
        ),
        ("record count", patched(6, &max32)),
        ("name length", patched(10, &max32)),
        ("second name length", patched(26, &max32)),
        ("record length", patched(18, &max64)),
        // Two records that each fit u32 and together do not: the sum
        // used to wrap silently.
        ("record lengths summing past u32", {
            let half = (1u64 << 31).to_le_bytes();
            let mut bytes = patched(18, &half);
            bytes[34..42].copy_from_slice(&half);
            bytes
        }),
        ("packed length", patched(packed_len_at, &max64)),
        (
            "packed length, largest plausible",
            patched(packed_len_at, &(u64::from(u32::MAX) * 4).to_le_bytes()),
        ),
    ];
    for (what, bytes) in cases {
        let result = probe(what, bytes.len(), || ReferenceSet::read_from(&bytes[..]));
        assert_typed(
            what,
            &result.err().unwrap_or_else(|| panic!("{what}: decoded")),
        );
    }
    // The packed-sequence decoder on its own, as the other crates call it.
    for len in [u64::MAX, u64::from(u32::MAX) * 4] {
        let bytes = len.to_le_bytes();
        let result = probe("bare packed length", 8, || DnaSeq::read_packed(&bytes[..]));
        assert_typed("bare packed length", &result.expect_err("no words follow"));
    }
}

#[test]
fn a_bad_index_is_exit_3_and_a_bad_cache_is_a_silent_rebuild() {
    let fixture = IndexFixture::new("cli");
    let index = fixture.index("ref.rpx");
    fixture
        .map(&format!("--index {}", fixture.path("ref.rpx")), "cold.sam")
        .expect("intact index");
    let cold = std::fs::read(fixture.dir.path("cold.sam")).expect("cold SAM");

    // `--index`: decodes to nonsense (InvalidData) or ends early
    // (UnexpectedEof) — either way bad input, exit 3, not "I/O error".
    let bad_indexes: [(&str, &[u8]); 3] = [
        ("forged count", b"RPST\x01\x00\xFF\xFF\xFF\xFF"),
        ("cut short", &index[..index.len() / 2]),
        ("not an index", b"@HD\tVN:1.6\n"),
    ];
    for (what, bytes) in bad_indexes {
        std::fs::write(fixture.dir.path("bad.rpx"), bytes).expect("write");
        let err = fixture
            .map(&format!("--index {}", fixture.path("bad.rpx")), "bad.sam")
            .expect_err(what);
        assert_eq!(err.exit_code(), 3, "{what}: {err}");
    }

    // `--index-cache`: every damaged cache is a miss — the run rebuilds,
    // writes the cold run's SAM and replaces the cache — and no length
    // in the damaged bytes sizes an allocation: the decoders' bound,
    // `64 × cache bytes + 64 KiB`, holds for the whole run (the rebuild
    // of this 3 kbp reference asks for 24 KB at most, the refused cache
    // is read whole first).
    let source = format!(
        "--reference {} --index-cache {}",
        fixture.path("ref.fa"),
        fixture.path("ref.rpxc")
    );
    let cache_path = fixture.dir.path("ref.rpxc");
    fixture.map(&source, "miss.sam").expect("miss");
    let cache = std::fs::read(&cache_path).expect("cache");
    assert_eq!(
        std::fs::read(fixture.dir.path("miss.sam")).expect("SAM"),
        cold
    );
    fixture.map(&source, "hit.sam").expect("hit");
    assert_eq!(
        std::fs::read(fixture.dir.path("hit.sam")).expect("SAM"),
        cold
    );

    // The 12-byte `RPXC` prefix exhaustively; behind it the cache is the
    // index stream the corpus above covers, so one case per kind.
    let mut damaged: Vec<Mutation> = mutations(&cache[..12])
        .map(|mut m| {
            if m.bit.is_some() {
                m.bytes.extend_from_slice(&cache[12..]);
            }
            m
        })
        .collect();
    let forged: Vec<u8> = cache[..12]
        .iter()
        .chain(b"RPST\x01\x00\xFF\xFF\xFF\xFF")
        .copied()
        .collect();
    for (what, bytes) in [
        ("forged record count", forged),
        (
            "cut inside the RPFM stream",
            cache[..cache.len() - 100].to_vec(),
        ),
        ("a flipped RPFM bit", {
            let mut bytes = cache.clone();
            let at = bytes.len() - 100;
            bytes[at] ^= 0x10;
            bytes
        }),
    ] {
        damaged.push(Mutation {
            what: what.to_string(),
            bytes,
            at: 12,
            bit: None,
        });
    }
    for m in damaged {
        std::fs::write(&cache_path, &m.bytes).expect("write");
        let what = format!("cache {}", m.what);
        probe(&what, m.bytes.len(), || fixture.map(&source, "rebuilt.sam"))
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(
            std::fs::read(fixture.dir.path("rebuilt.sam")).expect("SAM"),
            cold,
            "cache {}",
            m.what
        );
        assert_eq!(
            std::fs::read(&cache_path).expect("cache"),
            cache,
            "cache {}",
            m.what
        );
    }
}

/// Frame boundaries of a journal: offsets where a frame starts, plus
/// the end of the last whole one. Parsed by hand, not through the
/// walker under test.
fn frame_starts(journal: &[u8]) -> Vec<usize> {
    let mut starts = vec![36];
    while let Some(len) = journal
        .get(starts[starts.len() - 1]..)
        .and_then(|rest| rest.get(..4))
    {
        let len = u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize;
        starts.push(starts[starts.len() - 1] + 8 + len);
    }
    assert_eq!(starts.last(), Some(&journal.len()), "whole frames only");
    starts
}

/// Frames wholly before byte `at`.
fn frames_before(starts: &[usize], at: usize) -> usize {
    starts
        .iter()
        .filter(|&&s| s <= at)
        .count()
        .saturating_sub(1)
}

/// Every 4-byte window of every frame payload forced to `u32::MAX` and
/// every 8-byte window to `u64::MAX`, the frame's CRC recomputed: a
/// superset of "each count field forged" that needs no offsets.
fn forged_counts(journal: &[u8]) -> Vec<Mutation> {
    let starts = frame_starts(journal);
    let mut forged = Vec::new();
    for frame in starts.windows(2) {
        let payload = frame[0] + 4..frame[1] - 4;
        for width in [4usize, 8] {
            for at in payload.start..=payload.end.saturating_sub(width).max(payload.start) {
                if at + width > payload.end {
                    continue;
                }
                let mut bytes = journal.to_vec();
                bytes[at..at + width].fill(0xFF);
                let crc = crc32(&bytes[payload.clone()]);
                bytes[payload.end..payload.end + 4].copy_from_slice(&crc.to_le_bytes());
                forged.push(Mutation {
                    what: format!("{width} bytes of 0xFF at {at}, CRC recomputed"),
                    bytes,
                    at,
                    bit: None,
                });
            }
        }
    }
    forged
}

#[test]
fn damaged_serve_journals_are_a_torn_tail_prefix_or_journal_corrupt() {
    let dir = TempDir::new("serve-corpus");
    let serve = serve_journals(&dir);
    let path = dir.path("corpus.journal");
    let open = |bytes: &[u8]| {
        std::fs::write(&path, bytes).expect("write");
        JobJournal::open(&path, &serve.fingerprint).map(|(_, recovered)| format!("{recovered:?}"))
    };
    for valid in [&serve.appended, &serve.drained] {
        let starts = frame_starts(valid);
        // What a journal cleanly cut after `k` frames replays as.
        let prefixes: Vec<String> = starts
            .iter()
            .map(|&end| open(&valid[..end]).expect("clean prefix"))
            .collect();
        for m in mutations(valid).chain(forged_counts(valid)) {
            let len = m.bytes.len();
            match probe(&m.what, len, || open(&m.bytes)) {
                // The torn-tail policy: the frames before the damage,
                // the file cut back to them.
                Ok(recovered) => {
                    assert!(m.at >= 36, "{}: a damaged header was accepted", m.what);
                    let k = frames_before(&starts, m.at);
                    let forged_value = m.bit.is_none() && len == valid.len();
                    if forged_value && recovered != prefixes[k] {
                        // 0xFF bytes inside a value, not a count: the
                        // frame is CRC-valid and decodes to other data.
                        continue;
                    }
                    assert_eq!(recovered, prefixes[k], "{}", m.what);
                    let kept = std::fs::metadata(&path).expect("journal").len();
                    assert_eq!(kept as usize, starts[k], "{}", m.what);
                }
                Err(e) => assert_eq!(e.exit_code(), 5, "{}: {e}", m.what),
            }
        }
    }

    // A journal of another server is a mismatch (exit 6), not damage.
    std::fs::write(&path, &serve.appended).expect("write");
    let mut other = serve.fingerprint;
    other.config ^= 1;
    let err = JobJournal::open(&path, &other).expect_err("foreign journal");
    assert_eq!(err.exit_code(), 6, "{err}");
}

#[test]
fn damaged_run_journals_are_a_torn_tail_prefix_or_journal_corrupt() {
    let dir = TempDir::new("core-corpus");
    let path = dir.path("run.journal");
    let fingerprint = RunFingerprint {
        config: 0x16,
        workload: 0x1616,
        shape: 0x16_1616,
    };
    let record = |index: u32| {
        let mapping = Mapping {
            position: 100 * index,
            strand: if index.is_multiple_of(2) {
                Strand::Forward
            } else {
                Strand::Reverse
            },
            distance: index,
        };
        BatchRecord {
            index,
            lo: 2 * u64::from(index),
            hi: 2 * u64::from(index) + 2,
            outputs: vec![
                MapOutput {
                    mappings: vec![mapping; index as usize],
                    work: 7,
                    candidates: 3,
                },
                MapOutput {
                    mappings: vec![mapping],
                    work: 9,
                    candidates: 1,
                },
            ],
            metrics: vec![
                MapMetrics {
                    hits: u64::from(index),
                    ..MapMetrics::new()
                };
                2
            ],
        }
    };
    // Three records, the first two under the manifest's watermark.
    let records: Vec<BatchRecord> = (0..3).map(record).collect();
    {
        let (mut journal, _) = RunJournal::open(&path, &fingerprint).expect("fresh journal");
        journal.append(&records[0]).expect("append");
        journal.append(&records[1]).expect("append");
        journal.commit_manifest(3, false).expect("manifest");
        journal.append(&records[2]).expect("append");
    }
    let valid = std::fs::read(&path).expect("journal");
    let manifest = std::fs::read(manifest_path(&path)).expect("manifest");
    let starts = frame_starts(&valid);
    assert_eq!(starts.len(), 4);
    let open = |journal: &[u8], manifest: &[u8]| {
        std::fs::write(&path, journal).expect("write");
        std::fs::write(manifest_path(&path), manifest).expect("write");
        RunJournal::open(&path, &fingerprint).map(|(_, replayed)| replayed)
    };

    for m in mutations(&valid).chain(forged_counts(&valid)) {
        let len = m.bytes.len() + manifest.len();
        let forged_value = m.bit.is_none() && m.bytes.len() == valid.len();
        match probe(&m.what, len, || open(&m.bytes, &manifest)) {
            // Damage at or past the watermark is a torn tail: the two
            // promised records replay and the file is cut back to them.
            Ok(replayed) => {
                if forged_value && replayed.len() == 3 {
                    continue; // 0xFF bytes inside a value, not a count
                }
                assert!(m.at >= starts[2], "{}: promised data was dropped", m.what);
                assert_eq!(replayed, records[..2], "{}", m.what);
                let kept = std::fs::metadata(&path).expect("journal").len();
                assert_eq!(kept as usize, starts[2], "{}", m.what);
            }
            // Below it, a record the manifest promised is gone (and a
            // CRC-valid frame out of batch order is refused anywhere).
            Err(e) => {
                assert!(m.at < starts[2] || forged_value, "{}: {e}", m.what);
                assert_eq!(e.exit_code(), 5, "{}: {e}", m.what);
            }
        }
    }

    // A damaged manifest is refused or (damage to the white space after
    // the CRC) still says what it said; it never makes up a watermark.
    for m in mutations(&manifest) {
        let len = valid.len() + m.bytes.len();
        match probe(&m.what, len, || open(&valid, &m.bytes)) {
            Ok(replayed) => assert_eq!(replayed, records, "manifest {}", m.what),
            Err(e) => assert_eq!(e.exit_code(), 5, "manifest {}: {e}", m.what),
        }
    }

    // Without a manifest nothing was promised: a file a crash cut inside
    // its header starts over, and a foreign journal is a mismatch.
    std::fs::remove_file(manifest_path(&path)).expect("remove");
    std::fs::write(&path, &valid[..20]).expect("write");
    let (_, replayed) = RunJournal::open(&path, &fingerprint).expect("starts over");
    assert!(replayed.is_empty());
    assert_eq!(std::fs::read(&path).expect("journal"), valid[..36]);
    std::fs::write(&path, &valid).expect("write");
    let other = RunFingerprint {
        config: 0x17,
        ..fingerprint
    };
    let err = RunJournal::open(&path, &other).expect_err("foreign journal");
    assert_eq!(err.exit_code(), 6, "{err}");
}

// ---------------------------------------------------------------------
// The text formats: FASTA, FASTQ and the job-envelope line.
// ---------------------------------------------------------------------

/// A text decoder's contract on damaged bytes is weaker than a binary
/// one's — most flips of a base or a name are another valid file — so
/// the corpus holds what must hold for all of them: `Ok` or the
/// decoder's error type, no panic, no outsized allocation.
#[test]
fn damaged_fasta_and_fastq_are_ok_or_a_genome_error() {
    // Two records, wrapped lines, a description, one IUPAC code (`R`).
    let fasta = b">chrA first\nACGTACGTAC\nGTRCGTACGT\nACG\n>chrB\nTTGACCA\nGG\n";
    assert_eq!(
        read_fasta(&fasta[..], AmbiguityPolicy::Skip)
            .expect("valid")
            .len(),
        2
    );
    for policy in [
        AmbiguityPolicy::Reject,
        AmbiguityPolicy::Skip,
        AmbiguityPolicy::Randomize(16),
    ] {
        for m in mutations(fasta) {
            let what = format!("fasta ({policy:?}) {}", m.what);
            // `Result<_, GenomeError>`: anything but a panic is typed.
            let _ = probe(&what, m.bytes.len(), || read_fasta(&m.bytes[..], policy));
        }
    }

    let fastq = b"@r0\nACGTACGTAC\n+\nIIIIIIIIII\n@r1 pair\nTTGACCAGG\n+r1\n!!!!#####\n@r2\nGATTACA\n+\nABCDEFG\n";
    assert_eq!(read_fastq(&fastq[..]).expect("valid").len(), 3);
    for m in mutations(fastq) {
        let what = format!("fastq {}", m.what);
        let _ = probe(&what, m.bytes.len(), || read_fastq(&m.bytes[..]));
    }
}

/// One request line as the daemon's reader thread sees it: bytes that
/// are not UTF-8 fail the line read (`InvalidData` — the connection is
/// dropped and counted), everything else reaches `parse_request`.
fn decode_request_bytes(what: &str, bytes: &[u8]) {
    use std::io::BufRead;
    for line in bytes.lines() {
        match line {
            Err(e) => assert_typed(what, &e),
            Ok(line) => match parse_request(&line) {
                Ok(_) => {}
                Err(e) => assert_eq!(e.exit_code(), 3, "{what}: {e}"),
            },
        }
    }
}

#[test]
fn damaged_job_envelopes_are_ok_or_an_input_parse_error() {
    // Every optional field (`reads_path` excludes the inline `reads`).
    let envelope = br#"{"id":"j1","tenant":"lab","delta":3,"prefilter":"shd","mapper":"repute","deadline_s":1.5,"priority":2,"reads":[{"id":"r0","seq":"ACGTACGTACGT"},{"id":"r1","seq":"TTGACCAGGA"}]}"#;
    let Ok(Request::Job(job)) = parse_request(std::str::from_utf8(envelope).expect("ascii")) else {
        panic!("the valid envelope must parse as a job");
    };
    assert_eq!((job.reads.len(), job.priority), (2, 2));
    assert!(job.delta.is_some() && job.prefilter.is_some() && job.mapper.is_some());
    assert!(job.deadline_s.is_some() && job.tenant == "lab");

    // The nesting bombs: before `repute_obs::json::MAX_DEPTH` each `[`
    // was a stack frame, and 40 kB of them aborted the daemon.
    let bombs = [("[", 200_000), (r#"{"a":"#, 40_000)].map(|(unit, n)| Mutation {
        what: format!("nesting bomb: {n} × {unit:?}"),
        bytes: unit.repeat(n).into_bytes(),
        at: 0,
        bit: None,
    });
    for m in mutations(envelope).chain(bombs) {
        let what = format!("envelope {}", m.what);
        probe(&what, m.bytes.len(), || {
            decode_request_bytes(&what, &m.bytes)
        });
    }
}

/// The acceptance form of the nesting cap: a megabyte of `[` (or of
/// `{"a":`) on a 2 MiB stack — the size of every thread but `main` — is
/// a typed error from `parse_request` and a skipped / refused line of
/// `repute stats`.
#[test]
fn a_nesting_bomb_is_a_typed_error_on_a_small_stack() {
    let outcome = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            for unit in ["[", r#"{"a":"#] {
                let bomb = unit.repeat(1_000_000);
                let err = parse_request(&bomb).expect_err("a bomb is not a request");
                assert_eq!(err.exit_code(), 3, "{err}");
                let rendered = render_stats(&bomb).expect("lenient never fails");
                assert!(rendered.contains("skipped 1 malformed line"), "{rendered}");
                let err = render_stats_strict(&bomb).expect_err("strict refuses");
                assert_eq!(err.exit_code(), 3, "{err}");
            }
        })
        .expect("spawn")
        .join();
    assert!(outcome.is_ok(), "the small-stack thread panicked");
}
