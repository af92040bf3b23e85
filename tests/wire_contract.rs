//! The on-disk byte contract, pinned, and the decoders' behaviour on
//! damaged bytes.
//!
//! **Pins.** This file pins the bytes the programs leave behind — the
//! serve journal (every frame kind, append-only and
//! compacted), the `repute index` output and the `--index-cache` file —
//! as FNV-64 digests generated at the commit before the seven readers
//! were replaced by `repute_genome::wire`. A mismatch prints the
//! computed table in source form. The three `serve/*` pins were
//! regenerated once, when the k-mer interval table cut the extension
//! count (PR 21): decoded frame by frame beside the parent's, the
//! journals differ in simulated-clock values (`sim_clock`, `arrival_s`,
//! `at_s`, `completion_s`, one deadline) and nothing else. The table is
//! derived on load, so the `index/*` pins did not move. They moved a
//! second time when the daemon's fingerprint stopped folding
//! `--host-threads`: each journal differs from the parent's in the
//! header's config word and its CRC alone. They moved a third time
//! when the daemon lost its serial round shape: the header's config
//! word lost a switch, and the scenario became concurrent rounds, two
//! more jobs ahead of `late` and a fault plan that strikes device 1
//! under one group. The three
//! `index/*` pins were regenerated once, for index format v3 (a trailer
//! over `RPST` + `RPIX` + packed reference, the `RPFM` trailer moved from
//! byte-serial FNV-1a to `wire::WordHash`, the cache fingerprint too):
//! each file's `RPFM` payload, from behind its version to its trailer,
//! is byte-identical to the one before.
//!
//! **Corpus.** Every truncation and every single-bit flip of a small
//! valid instance of each format goes through its decoder, which must
//! answer with a typed error (or, for the serve journal, the documented
//! torn-tail prefix), never panic, and never ask the allocator for more
//! than a small multiple of the input — measured by the counting
//! allocator below, per thread, so sibling tests cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use repute_cli::{
    parse_map_args, render_stats, render_stats_strict, run_index, run_map, IndexOptions,
};
use repute_core::journal::{crc32, tmp_path, Checkpoint, Fnv64, RunFingerprint};
use repute_genome::fasta::{read_fasta, write_fasta, AmbiguityPolicy, FastaRecord};
use repute_genome::fastq::{read_fastq, write_fastq, FastqRecord};
use repute_genome::synth::{random_sequence, ReferenceBuilder, RepeatFamily};
use repute_genome::wire::word_hash;
use repute_genome::DnaSeq;
use repute_hetsim::{profiles, FaultPlan};
use repute_mappers::multiref::ReferenceSet;
use repute_mappers::IndexedReference;
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

/// A directory of this test's own, removed on drop.
///
/// The journal corpus reopens a damaged file thousands of times, and
/// every torn tail it finds is cut back and synced (`FrameLog::open`).
/// On a disk-backed temp dir each of those syncs waits for the device
/// (on an ext4 mounted `discard`, a discard and a flush, tens of ms),
/// which turns a one-second corpus into half an hour. So the directory
/// lives on the RAM-backed `/dev/shm` where the platform has one (and
/// lets us write there), under the system temp dir otherwise; the bytes
/// checked are the same.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let name = format!("repute-wire-{}-{tag}", std::process::id());
        let dir = [PathBuf::from("/dev/shm"), std::env::temp_dir()]
            .into_iter()
            .map(|root| root.join(&name))
            .find(|dir| {
                let _ = std::fs::remove_dir_all(dir);
                std::fs::create_dir_all(dir).is_ok()
            })
            .expect("temp dir");
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
        // Device 1 retries a transient, then dies under the last launch
        // of its group: that group's BatchDone holds `lost` and
        // provenance both.
        fault_plan: FaultPlan::new().transient(1, 0.0).loss(1, 1.4e-3),
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
    // `urgent` and two jobs of their own δ fill the first round, one
    // group per device: `late` sits queued while that round moves the
    // clock past its deadline.
    accept(
        &mut harness,
        serve_job(&reference, "urgent", "acme", 1_000).with_deadline(1.0e-12),
    );
    for (id, delta, start) in [("urgent-4", 4, 6_000), ("urgent-6", 6, 7_000)] {
        accept(
            &mut harness,
            serve_job(&reference, id, "edge", start)
                .with_delta(delta)
                .with_deadline(1.0e-12),
        );
    }
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

/// The bytes `repute index` writes for one 300 kbp record made to drive
/// the suffix sort deep: the benchmark's chr21-like repeat families, a
/// 300-base unit planted exactly 100 times, an `(AC)ⁿ` tandem and a long
/// run of `A`s. Its SA-IS recursion goes four levels below the text; the
/// 3 kbp fixture above stops after two.
fn deep_index(dir: &TempDir) -> Vec<u8> {
    const LEN: usize = 280_000;
    let family = |unit_len, per: usize, divergence| RepeatFamily {
        unit_len,
        copies: LEN / per,
        divergence,
    };
    let mut codes = ReferenceBuilder::new(LEN)
        .seed(1631)
        .repeat_families(vec![
            family(300, 1_100, 0.12),
            family(2_000, 12_000, 0.18),
            family(300, 2_600, 0.015),
            family(80, 1_200, 0.01),
            family(1_500, 40_000, 0.008),
        ])
        .build()
        .to_codes();
    let unit = random_sequence(300, 1632).to_codes();
    for copy in 0..100 {
        let at = copy * (LEN / 100) + 7 * copy;
        codes[at..at + unit.len()].copy_from_slice(&unit);
    }
    codes.extend((0..10_000).map(|i| (i % 2) as u8));
    codes.extend(std::iter::repeat_n(0, 10_000));
    let seq = DnaSeq::from_codes(&codes).expect("codes are bases");
    let mut fasta = Vec::new();
    write_fasta(&mut fasta, &[FastaRecord::new("chrDeep", seq)], 70).expect("fasta");
    std::fs::write(dir.path("deep.fa"), fasta).expect("write fasta");
    let output = dir.path("deep.rpx");
    run_index(&IndexOptions {
        reference: dir.path("deep.fa").to_string_lossy().into_owned(),
        output: output.to_string_lossy().into_owned(),
    })
    .expect("repute index");
    std::fs::read(output).expect("index file")
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

    // Two trailers, each the word checksum of the bytes since the last:
    // `RPST` + `RPIX` + the packed reference, then the `RPFM` stream.
    let fm_at = index
        .windows(4)
        .position(|w| w == b"RPFM")
        .expect("RPFM stream");
    let trailer_at = index.len() - 8;
    assert_eq!(
        index[fm_at - 8..fm_at],
        word_hash(&index[..fm_at - 8]).to_le_bytes(),
        "the index trailer covers every byte before it"
    );
    assert_eq!(
        index[trailer_at..],
        word_hash(&index[fm_at..trailer_at]).to_le_bytes(),
        "the RPFM trailer covers the stream before it"
    );
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);

    let computed = vec![
        ("serve/appended".to_string(), fnv(&serve.appended)),
        ("serve/compacted".to_string(), fnv(&serve.compacted)),
        ("serve/drained".to_string(), fnv(&serve.drained)),
        ("index/rpx".to_string(), fnv(&index)),
        ("index/cache".to_string(), fnv(&cache)),
        ("index/rpx-deep".to_string(), fnv(&deep_index(&dir))),
        (
            "fnv64/text".to_string(),
            fnv(b"REPUTE: an OpenCL based read mapping tool"),
        ),
    ];
    assert_pinned("PINNED", &computed, PINNED);
}

const PINNED: &[(&str, u64)] = &[
    ("serve/appended", 0xbe34b5ce5ff18995),
    ("serve/compacted", 0x14af9278b53049cb),
    ("serve/drained", 0x2f20a2d6ec09d843),
    ("index/rpx", 0xaa6b3c467b33b04b),
    ("index/cache", 0xe7d5f9f62adfbdb0),
    ("index/rpx-deep", 0x76a52470d0e66136),
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

/// A valid `RPST` → `RPIX` → packed sequence → trailer → `RPFM` stream
/// over two records, with where the packed words sit. Everything before
/// `RPFM` is written here by hand, trailer included (with `q` = 4, so
/// that an accepted decode stays inside the allocation bound too —
/// `ReferenceSet::build` would pin `q` = 10 and a 4 MiB table).
struct IndexStream {
    bytes: Vec<u8>,
    words: std::ops::Range<usize>,
}

fn index_stream() -> IndexStream {
    let chr_a = ReferenceBuilder::new(700).seed(1621).build();
    let chr_b = ReferenceBuilder::new(300).seed(1622).build();
    let mut concat = chr_a.clone();
    concat.extend(chr_b.iter());
    let mut bytes = b"RPST\x02\x00\x02\x00\x00\x00".to_vec();
    for (name, seq) in [("chrA", &chr_a), ("chrB", &chr_b)] {
        bytes.extend_from_slice(&(name.len() as u32).to_le_bytes());
        bytes.extend_from_slice(name.as_bytes());
        bytes.extend_from_slice(&(seq.len() as u64).to_le_bytes());
    }
    bytes.extend_from_slice(b"RPIX\x02\x00\x04\x00\x00\x00");
    concat.write_packed(&mut bytes).expect("write");
    let words = bytes.len() - 8 * concat.len().div_ceil(32)..bytes.len();
    // One trailer over every byte so far.
    bytes.extend_from_slice(&word_hash(&bytes).to_le_bytes());
    let indexed = IndexedReference::build_with_q(concat.clone(), 4);
    indexed.fm().write_to(&mut bytes).expect("write");
    assert_eq!(&bytes[words.end + 8..words.end + 12], b"RPFM");

    // What `ReferenceSet::write_to` writes, byte for byte.
    let set = ReferenceSet::read_from(&bytes[..]).expect("valid stream");
    let mut rewritten = Vec::new();
    set.write_to(&mut rewritten).expect("write");
    assert_eq!(rewritten, bytes);
    IndexStream { bytes, words }
}

#[test]
fn every_truncation_and_bit_flip_of_an_index_stream_is_a_typed_error() {
    let stream = index_stream();
    // Every byte sits under one trailer — the record table, `q` and the
    // packed reference words under the one before `RPFM`, the FM-index
    // under its own — so nothing damaged decodes.
    let mut accepted = Vec::new();
    for m in mutations(&stream.bytes) {
        let result = probe(&m.what, m.bytes.len(), || {
            ReferenceSet::read_from(&m.bytes[..])
        });
        match result {
            Ok(_) => accepted.push(m.what),
            Err(e) => assert_typed(&m.what, &e),
        }
    }
    assert_eq!(accepted, Vec::<String>::new(), "damaged streams decoded");
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
fn old_index_versions_are_refused_naming_repute_index() {
    let fixture = IndexFixture::new("old-versions");
    let index = fixture.index("ref.rpx");
    let rpix_at = index.windows(4).position(|w| w == b"RPIX").expect("RPIX");
    let fm_at = index.windows(4).position(|w| w == b"RPFM").expect("RPFM");
    // The last version of each stream before every byte had a checksum.
    for (stream, at, old) in [
        ("RPST", 4, 1u16),
        ("RPIX", rpix_at + 4, 1),
        ("RPFM", fm_at + 4, 2),
    ] {
        let mut bytes = index.clone();
        bytes[at..at + 2].copy_from_slice(&old.to_le_bytes());
        let err = ReferenceSet::read_from(&bytes[..]).expect_err(stream);
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidData,
            "{stream}: {err}"
        );
        let message = err.to_string();
        assert!(
            message.contains(&format!("version {old} is not supported"))
                && message.contains("repute index"),
            "{stream}: {message}"
        );
        std::fs::write(fixture.dir.path("old.rpx"), &bytes).expect("write");
        let err = fixture
            .map(&format!("--index {}", fixture.path("old.rpx")), "old.sam")
            .expect_err(stream);
        assert_eq!(err.exit_code(), 3, "{stream}: {err}");
    }
}

#[test]
fn an_sa_sample_off_the_sampling_rate_is_refused_and_exit_3() {
    // The loader keeps each sample as its quotient by the rate, so a
    // sample that is no multiple of it cannot be held. Forged here: one
    // sample + 1, still inside the text, under a recomputed trailer, so
    // nothing but the rate check stands between it and a wrong locate.
    let fixture = IndexFixture::new("forged-sample");
    let mut index = fixture.index("ref.rpx");
    let fm_at = index.windows(4).position(|w| w == b"RPFM").expect("RPFM");
    let field = |at: usize, len: usize| {
        let mut word = [0u8; 8];
        word[..len].copy_from_slice(&index[fm_at + at..fm_at + at + len]);
        u64::from_le_bytes(word) as usize
    };
    let (rate, text_len, rows, samples) = (field(6, 4), field(10, 8), field(18, 8), field(34, 8));
    assert_eq!((rate, rows), (8, text_len + 1));
    let samples_at = fm_at + 42 + 8 * rows.div_ceil(32) + 8 * rows.div_ceil(64);
    let trailer_at = index.len() - 8;
    assert_eq!(samples_at + 4 * samples, trailer_at);
    let sample = (0..samples)
        .map(|i| samples_at + 4 * i)
        .find(|&at| {
            let p = u32::from_le_bytes(index[at..at + 4].try_into().expect("4 bytes"));
            (p as usize) + 1 < text_len
        })
        .expect("a sample before the last base");
    index[sample] += 1;
    let trailer = word_hash(&index[fm_at..trailer_at]).to_le_bytes();
    index[trailer_at..].copy_from_slice(&trailer);

    let err = ReferenceSet::read_from(&index[..]).expect_err("a sample off the rate");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("sampling rate"), "{err}");
    std::fs::write(fixture.dir.path("forged.rpx"), &index).expect("write");
    let err = fixture
        .map(
            &format!("--index {}", fixture.path("forged.rpx")),
            "forged.sam",
        )
        .expect_err("a sample off the rate");
    assert_eq!(err.exit_code(), 3, "{err}");
}

#[test]
fn forged_sa_samples_are_refused_at_every_kind_of_rate() {
    // The same forge as above on a bare `RPFM` stream, at rates that are
    // and are not powers of two: a sample + 1 (off the rate, inside the
    // text), a sample moved to the text's end and one to the first
    // multiple of the rate past it (on the rate, outside the text), each
    // under a recomputed trailer. The stream as written loads and
    // locates as before.
    let text = random_sequence(3_001, 0x0FF_5A3E);
    let text_len = text.len();
    for rate in [1usize, 2, 3, 5, 8, 12] {
        let fm = repute_index::FmIndex::builder()
            .sa_sample(rate)
            .build(&text);
        let mut stream = Vec::new();
        fm.write_to(&mut stream).expect("write");
        let rows = text_len + 1;
        let samples_at = 42 + 8 * rows.div_ceil(32) + 8 * rows.div_ceil(64);
        let trailer_at = stream.len() - 8;
        let back = repute_index::FmIndex::read_from(&stream[..]).expect("as written");
        assert_eq!(back.footprint(), fm.footprint(), "rate {rate}");
        let full = [fm.full_interval()];
        assert_eq!(
            back.locate_all(&full, usize::MAX),
            fm.locate_all(&full, usize::MAX),
            "rate {rate}"
        );
        let at = samples_at + 4 * ((trailer_at - samples_at) / 8);
        let sample = u32::from_le_bytes(stream[at..at + 4].try_into().expect("4 bytes"));
        assert!((sample as usize) + 1 < text_len, "rate {rate}: {sample}");
        let past_end = text_len.next_multiple_of(rate) as u32;
        let mut forges = vec![("at the end", text_len as u32), ("past the end", past_end)];
        if rate > 1 {
            forges.push(("off the rate", sample + 1));
        }
        for (what, forged) in forges {
            let mut bytes = stream.clone();
            bytes[at..at + 4].copy_from_slice(&forged.to_le_bytes());
            let trailer = word_hash(&bytes[..trailer_at]).to_le_bytes();
            bytes[trailer_at..].copy_from_slice(&trailer);
            let err = repute_index::FmIndex::read_from(&bytes[..])
                .expect_err(&format!("rate {rate}: a sample {what}"));
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains("sampling rate"), "{err}");
        }
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
        ("forged count", b"RPST\x02\x00\xFF\xFF\xFF\xFF"),
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
        .chain(b"RPST\x02\x00\xFF\xFF\xFF\xFF")
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

/// Every truncation and every single-bit flip of a checkpoint manifest
/// is refused as corrupt (a flip of a fingerprint word may be a mismatch
/// instead), and a resume refuses a manifest that promises more bytes
/// than a `.tmp` holds before it cuts any file back.
#[test]
fn damaged_checkpoints_are_journal_corrupt_and_refused_before_any_cut() {
    let fixture = IndexFixture::new("checkpoint-corpus");
    let (sam, metrics, ckpt) = (
        fixture.path("out.sam"),
        fixture.path("m.jsonl"),
        fixture.path("run.ckpt"),
    );
    let line = format!(
        "--reference {} --reads {} --delta 3 --s-min 15 --output {sam} --metrics-out {metrics} \
         --checkpoint {ckpt}",
        fixture.path("ref.fa"),
        fixture.path("reads.fq"),
    );
    let opts = parse_map_args(line.split_whitespace().map(String::from)).expect("map args");
    run_map(&opts).expect("checkpointed run");
    let valid = std::fs::read(&ckpt).expect("manifest");
    let fingerprint = Checkpoint::decode(&valid).expect("valid").fingerprint;
    let path = fixture.dir.path("corpus.ckpt");
    for m in mutations(&valid) {
        std::fs::write(&path, &m.bytes).expect("write");
        let len = m.bytes.len();
        let err = probe(&m.what, len, || Checkpoint::load(&path, &fingerprint))
            .expect_err("damage must not load");
        let code = if m.bit.is_some() && (8..32).contains(&m.at) {
            [5, 6]
        } else {
            [5, 5]
        };
        assert!(code.contains(&err.exit_code()), "{}: {err}", m.what);
    }

    // Forged manifests, CRC-valid and not complete, each refused before
    // the SAM is cut back: the SAM's length within its `.tmp` and the
    // telemetry's beyond it; and, under `--platform`, read counts whose
    // sidecar would not hold them, one of them past a u64 of bytes.
    let refused = resume_forged(&fixture, "", |forged| {
        forged.lengths = vec![forged.lengths[0] / 2, u64::MAX];
    });
    assert_eq!(refused.exit_code(), 5, "{refused}");
    for reads in [u64::MAX / 64, u64::MAX / 16] {
        let refused = resume_forged(&fixture, "--platform system1", |forged| {
            forged.reads = reads;
            forged.lengths[0] /= 2;
        });
        assert_eq!(refused.exit_code(), 5, "{reads} reads: {refused}");
        assert!(refused.to_string().contains("sidecar"), "{refused}");
    }
}

/// A manifest that claims more reads than the FASTQ holds — CRC-valid,
/// every length the file's own — is refused once the resume skips past
/// the last record, not resumed into a run record that counts reads
/// never mapped. The cut it makes first is to the whole files, so it
/// changes no byte.
#[test]
fn a_checkpoint_claiming_more_reads_than_the_fastq_is_refused() {
    let fixture = IndexFixture::new("checkpoint-reads");
    let refused = resume_forged(&fixture, "", |forged| forged.reads += 1_000_000);
    assert_eq!(refused.exit_code(), 5, "{refused}");
    assert!(refused.to_string().contains("holds 2"), "{refused}");
}

/// Runs `repute map --checkpoint` over `fixture` with `extra` flags to
/// the end, puts its outputs back as the `.tmp`s of an interrupted run
/// (under `--platform`, with a 64-byte sidecar), lets `forge` edit the
/// manifest — not complete, every length the file's own — and resumes:
/// returns the resume's error, once it is checked that the SAM `.tmp`
/// kept every byte.
fn resume_forged(
    fixture: &IndexFixture,
    extra: &str,
    forge: impl FnOnce(&mut Checkpoint),
) -> repute_core::ReputeError {
    let (sam, metrics, ckpt) = (
        fixture.path("forged.sam"),
        fixture.path("forged.jsonl"),
        fixture.path("forged.ckpt"),
    );
    let line = format!(
        "--reference {} --reads {} --delta 3 --s-min 15 --output {sam} --metrics-out {metrics} \
         --checkpoint {ckpt} {extra}",
        fixture.path("ref.fa"),
        fixture.path("reads.fq"),
    );
    let opts = parse_map_args(line.split_whitespace().map(String::from)).expect("map args");
    run_map(&opts).expect("checkpointed run");
    let mut forged = Checkpoint::decode(&std::fs::read(&ckpt).expect("manifest")).expect("valid");
    let mut files = Vec::new();
    for path in [&sam, &metrics] {
        let path = std::path::Path::new(path);
        std::fs::rename(path, tmp_path(path)).expect("rename");
        files.push(tmp_path(path));
    }
    if !extra.is_empty() {
        let sidecar = format!("{ckpt}.work");
        std::fs::write(&sidecar, [0; 64]).expect("sidecar");
        files.push(sidecar.into());
    }
    forged.complete = false;
    forged.lengths = files
        .iter()
        .map(|f| std::fs::metadata(f).expect("file").len())
        .collect();
    forge(&mut forged);
    std::fs::write(&ckpt, forged.encode()).expect("write");
    let sam_bytes = std::fs::read(&files[0]).expect("SAM");
    let resume = parse_map_args(
        format!("{line} --resume")
            .split_whitespace()
            .map(String::from),
    )
    .expect("map args");
    let err = run_map(&resume).expect_err("a forged manifest must be refused");
    assert!(
        std::fs::read(&files[0]).expect("SAM") == sam_bytes,
        "{err}: the SAM was cut"
    );
    for file in files.iter().chain([&PathBuf::from(&ckpt)]) {
        let _ = std::fs::remove_file(file);
    }
    err
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
