//! Crash safety on disk: the identity of a run ([`RunFingerprint`]),
//! files put in place only whole ([`AtomicFile`], [`write_atomic`]), and
//! the checkpoint of a streamed mapping run ([`Checkpoint`]).
//!
//! A streamed run writes each of its outputs from the front, in read
//! order, so what it has done is a prefix of every file. A checkpoint
//! commit syncs each file and then atomically replaces a small manifest:
//! the run's fingerprint, the reads done, the byte length of each file
//! and the run's running totals, under one CRC32. A crash leaves every
//! file at least as long as the last manifest says; a resume cuts each
//! back to that length ([`AtomicFile::reopen`]) and carries on. A run
//! priced on a simulated platform also keeps a sidecar of each read's
//! [`ReadCharge`] ([`work_record`], [`decode_work_record`]),
//! [`WORK_RECORD_BYTES`] a read.
//!
//! The daemon's job journal (`repute_serve::journal`) opens with the same
//! [`RunFingerprint`] header.

use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use repute_genome::wire::{self, put_u32, put_u64, Reader, WireError};
use repute_obs::MapMetrics;

use crate::error::ReputeError;
use crate::mapping_run::ReadCharge;

pub use repute_genome::wire::{crc32, Fnv64};

/// Checkpoint manifest magic: identifies the format and its version.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"RPCKPT02";

/// What older builds left at a checkpoint's path, refused by name: the
/// batch journal `--checkpoint` wrote before it checkpointed the stream,
/// and the manifest whose sidecar held a whole metrics record per read.
const OLDER_FORMATS: [(&[u8; 8], &str); 2] = [
    (
        b"RPJRNL01",
        "this is a batch journal (RPJRNL01) from an older repute, which cannot be resumed: \
         delete it and start the run over",
    ),
    (
        b"RPCKPT01",
        "this is a checkpoint (RPCKPT01) from an older repute, which cannot be resumed: \
         delete it and start the run over",
    ),
];

/// The largest manifest [`Checkpoint::load`] reads: a few file lengths,
/// a few counters and a histogram take a few hundred bytes.
const MAX_MANIFEST_BYTES: u64 = 1 << 16;

/// Sidecar bytes per read: the four words of its [`ReadCharge`] —
/// `work`, `filtration`, `prefilter`, `verification` — little-endian.
pub const WORK_RECORD_BYTES: usize = 8 * 4;

/// The identity of a run, for refusing mismatched resumes.
///
/// * `config` — every option that can change a byte of the run's
///   outputs;
/// * `workload` — the reference and read content;
/// * `shape` — a third word for the caller's use (zero for both users
///   today).
///
/// A checkpoint or journal whose stored fingerprint differs in any
/// component is a [`ReputeError::ResumeMismatch`], never silently reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunFingerprint {
    /// Hash of the run configuration.
    pub config: u64,
    /// Hash of the reference and read content.
    pub workload: u64,
    /// A third identity word; zero unless a caller sets it.
    pub shape: u64,
}

impl RunFingerprint {
    /// A fingerprint with the config/workload components and `shape` 0.
    pub fn new(config: u64, workload: u64) -> RunFingerprint {
        RunFingerprint {
            config,
            workload,
            shape: 0,
        }
    }

    /// Hex rendering used in mismatch messages.
    pub fn render(&self) -> String {
        format!(
            "{:016x}.{:016x}.{:016x}",
            self.config, self.workload, self.shape
        )
    }

    /// The 36-byte journal header carrying this fingerprint behind
    /// `magic`.
    pub fn header(&self, magic: &[u8; 8]) -> Vec<u8> {
        let mut header = Vec::with_capacity(wire::HEADER_LEN);
        wire::put_header(&mut header, magic, [self.config, self.workload, self.shape]);
        header
    }

    /// The fingerprint in the journal header at the start of `bytes`,
    /// or why [`wire::parse_header`] refused it.
    pub fn from_header(bytes: &[u8], magic: &[u8; 8]) -> Result<RunFingerprint, WireError> {
        let [config, workload, shape] = wire::parse_header(bytes, magic)?;
        Ok(RunFingerprint {
            config,
            workload,
            shape,
        })
    }
}

// ---------------------------------------------------------------------
// Atomic file replacement.
// ---------------------------------------------------------------------

/// Writes `bytes` to `path` atomically: a sibling temp file is written,
/// flushed to disk, then renamed over the target. Readers observe either
/// the old content or the new, never a torn mix — the idiom behind the
/// checkpoint manifest, `--trace-out`, and index caches.
///
/// # Errors
///
/// Returns [`ReputeError::Io`] naming the path on any filesystem error.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), ReputeError> {
    let mut file = AtomicFile::create(path)?;
    file.write_all(bytes)
        .map_err(|e| ReputeError::io_at(path, e))?;
    file.commit()
}

/// The sibling temp file an [`AtomicFile`] for `path` writes:
/// `<path>.tmp`.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// A file written while it is produced and put in place only whole:
/// the bytes go to the sibling `<path>.tmp` (buffered), and
/// [`AtomicFile::commit`] syncs it to disk and renames it over `path`.
/// Dropped without a commit — a run that failed on the way — it removes
/// the temp file, so `path` keeps its old content (or stays absent) and
/// no `.tmp` is left behind; unless it is part of a checkpoint
/// ([`AtomicFile::checkpointed`], [`AtomicFile::reopen`]), whose `.tmp`
/// stays for a resume.
#[derive(Debug)]
pub struct AtomicFile {
    file: std::io::BufWriter<File>,
    tmp: PathBuf,
    path: PathBuf,
    remove_on_drop: bool,
}

impl AtomicFile {
    /// Creates (truncates) `<path>.tmp`.
    ///
    /// # Errors
    ///
    /// Returns [`ReputeError::Io`] naming `path` when the temp file
    /// cannot be created.
    pub fn create(path: &Path) -> Result<AtomicFile, ReputeError> {
        let tmp = tmp_path(path);
        let file = File::create(&tmp).map_err(|e| ReputeError::io_at(path, e))?;
        Ok(AtomicFile::over(file, tmp, path))
    }

    /// Reopens the `<path>.tmp` a checkpointed run left, cut back to the
    /// `len` bytes its last commit recorded, to be written on from there.
    /// The file stays checkpointed.
    ///
    /// # Errors
    ///
    /// [`ReputeError::JournalCorrupt`] when the temp file is missing or
    /// shorter than `len` ([`check_prefix`]); [`ReputeError::Io`] on any
    /// other filesystem error.
    pub fn reopen(path: &Path, len: u64) -> Result<AtomicFile, ReputeError> {
        let tmp = tmp_path(path);
        let file = reopen_at(&tmp, len)?;
        Ok(AtomicFile::over(file, tmp, path).checkpointed())
    }

    fn over(file: File, tmp: PathBuf, path: &Path) -> AtomicFile {
        AtomicFile {
            file: std::io::BufWriter::with_capacity(1 << 16, file),
            tmp,
            path: path.to_path_buf(),
            remove_on_drop: true,
        }
    }

    /// Makes this file part of a checkpoint: dropped without a commit,
    /// its `.tmp` stays for a resume to [`reopen`](AtomicFile::reopen).
    pub fn checkpointed(mut self) -> AtomicFile {
        self.remove_on_drop = false;
        self
    }

    /// Flushes the buffered bytes into the temp file and returns a second
    /// handle on it and its length: what a checkpoint commit syncs and
    /// records.
    ///
    /// # Errors
    ///
    /// Returns [`ReputeError::Io`] naming the target on any filesystem
    /// error.
    pub fn flushed(&mut self) -> Result<(File, u64), ReputeError> {
        flushed(&mut self.file).map_err(|e| ReputeError::io_at(&self.path, e))
    }

    /// Flushes and syncs the temp file, renames it over the target, and
    /// syncs the directory that holds the rename.
    ///
    /// # Errors
    ///
    /// Returns [`ReputeError::Io`] naming the target on any filesystem
    /// error; the temp file is removed then, unless it is checkpointed.
    pub fn commit(mut self) -> Result<(), ReputeError> {
        let io_err = |e| ReputeError::io_at(&self.path, e);
        self.file.flush().map_err(io_err)?;
        self.file.get_ref().sync_all().map_err(io_err)?;
        fs::rename(&self.tmp, &self.path).map_err(io_err)?;
        self.remove_on_drop = false;
        sync_dir_of(&self.path).map_err(io_err)
    }
}

/// Syncs the directory entry of `path`: a rename is durable only once
/// its directory is. A compacted serve journal takes its appends in the
/// renamed file, so a rename lost in a crash would lose them too.
#[cfg(unix)]
fn sync_dir_of(path: &Path) -> std::io::Result<()> {
    let dir = path
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    File::open(dir)?.sync_all()
}

/// Directories cannot be opened as files here; the rename stands as is.
#[cfg(not(unix))]
fn sync_dir_of(_path: &Path) -> std::io::Result<()> {
    Ok(())
}

impl std::io::Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.file.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if self.remove_on_drop {
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

/// Flushes `file` and returns a second handle on it and its length.
///
/// # Errors
///
/// Any error of the three steps.
pub fn flushed(file: &mut std::io::BufWriter<File>) -> std::io::Result<(File, u64)> {
    file.flush()?;
    let file = file.get_ref();
    Ok((file.try_clone()?, file.metadata()?.len()))
}

/// Checks that `file` holds at least the `len` bytes a checkpoint
/// committed — what a resume checks of every file before it cuts any.
///
/// # Errors
///
/// [`ReputeError::JournalCorrupt`] naming the file when it is missing or
/// shorter; [`ReputeError::Io`] when it cannot be inspected.
pub fn check_prefix(file: &Path, len: u64) -> Result<(), ReputeError> {
    let held = match fs::metadata(file) {
        Ok(meta) => meta.len(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(ReputeError::JournalCorrupt(format!(
                "{} is missing, but the checkpoint committed {len} bytes of it",
                file.display()
            )))
        }
        Err(e) => return Err(ReputeError::io_at(file, e)),
    };
    if held < len {
        return Err(ReputeError::JournalCorrupt(format!(
            "{} holds {held} bytes, but the checkpoint committed {len}",
            file.display()
        )));
    }
    Ok(())
}

/// Opens `file` for writing at its committed length `len`: checked by
/// [`check_prefix`], cut back to `len`, positioned at its end.
///
/// # Errors
///
/// Those of [`check_prefix`], and [`ReputeError::Io`].
pub fn reopen_at(file: &Path, len: u64) -> Result<File, ReputeError> {
    check_prefix(file, len)?;
    let io_err = |e| ReputeError::io_at(file, e);
    let mut handle = OpenOptions::new().write(true).open(file).map_err(io_err)?;
    handle.set_len(len).map_err(io_err)?;
    handle.seek(SeekFrom::End(0)).map_err(io_err)?;
    Ok(handle)
}

// ---------------------------------------------------------------------
// The checkpoint manifest and its sidecar.
// ---------------------------------------------------------------------

/// What a checkpointed run has durably done: the manifest one commit
/// writes.
///
/// Layout, little-endian: [`CHECKPOINT_MAGIC`]; the fingerprint's three
/// words; `reads` (u64); `complete` (u8); `lengths` and `counters`, each
/// a `u32` count and that many u64s; the thirteen `totals` words in
/// [`MapMetrics::fields`] order; a CRC32 of every byte before it.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The run this checkpoint belongs to.
    pub fingerprint: RunFingerprint,
    /// Reads whose outputs the committed prefixes hold.
    pub reads: u64,
    /// The committed byte length of each checkpointed file, in the order
    /// the run opens them.
    pub lengths: Vec<u64>,
    /// The caller's running counters over those reads (for `repute map`,
    /// its mapping statistics).
    pub counters: Vec<u64>,
    /// The per-read metrics records summed over those reads.
    pub totals: MapMetrics,
    /// The run had written everything: only renames were left.
    pub complete: bool,
}

impl Checkpoint {
    /// The manifest's bytes.
    pub fn encode(&self) -> Vec<u8> {
        let words = 4 + self.lengths.len() + self.counters.len() + 13;
        let mut out = Vec::with_capacity(8 + 8 * words + 1 + 8 + 4);
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        let fp = &self.fingerprint;
        for word in [fp.config, fp.workload, fp.shape, self.reads] {
            put_u64(&mut out, word);
        }
        out.push(u8::from(self.complete));
        for list in [&self.lengths, &self.counters] {
            put_u32(&mut out, list.len() as u32);
            for &word in list {
                put_u64(&mut out, word);
            }
        }
        for (_, word) in self.totals.fields() {
            put_u64(&mut out, word);
        }
        let crc = crc32(&out);
        put_u32(&mut out, crc);
        out
    }

    /// Decodes a manifest, or says why not: a wrong magic (the old batch
    /// journal's and the old checkpoint's named), a checksum that does
    /// not match, or fields that do not parse.
    ///
    /// # Errors
    ///
    /// The [`WireError`] of the first check that fails.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, WireError> {
        if let Some((_, refusal)) = OLDER_FORMATS.iter().find(|(m, _)| bytes.starts_with(*m)) {
            return Err(WireError::Invalid(refusal));
        }
        let mut r = Reader::new(bytes);
        if r.bytes(CHECKPOINT_MAGIC.len())? != CHECKPOINT_MAGIC {
            return Err(WireError::Invalid("not a checkpoint manifest (bad magic)"));
        }
        let body = bytes.len().checked_sub(4).ok_or(WireError::Truncated)?;
        let stored = Reader::new(&bytes[body..]).u32()?;
        if body < CHECKPOINT_MAGIC.len() || crc32(&bytes[..body]) != stored {
            return Err(WireError::Invalid("checksum mismatch"));
        }
        let mut r = Reader::new(&bytes[CHECKPOINT_MAGIC.len()..body]);
        let fingerprint = RunFingerprint {
            config: r.u64()?,
            workload: r.u64()?,
            shape: r.u64()?,
        };
        let reads = r.u64()?;
        let complete = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(WireError::Invalid("the complete flag is neither 0 nor 1")),
        };
        let lengths = r.items(8, Reader::u64)?;
        let counters = r.items(8, Reader::u64)?;
        let mut totals = MapMetrics::new();
        for (name, _) in MapMetrics::new().fields() {
            totals.set_field(name, r.u64()?);
        }
        r.finish()?;
        Ok(Checkpoint {
            fingerprint,
            reads,
            lengths,
            counters,
            totals,
            complete,
        })
    }

    /// Writes this checkpoint to `path` atomically: one commit.
    ///
    /// # Errors
    ///
    /// Those of [`write_atomic`].
    pub fn commit(&self, path: &Path) -> Result<(), ReputeError> {
        write_atomic(path, &self.encode())
    }

    /// Reads the checkpoint at `path` for a resume of the run
    /// `fingerprint` identifies.
    ///
    /// # Errors
    ///
    /// [`ReputeError::Io`] when the file cannot be read;
    /// [`ReputeError::JournalCorrupt`] when it does not decode (damage,
    /// or the old batch journal); [`ReputeError::ResumeMismatch`] when
    /// it belongs to another run.
    pub fn load(path: &Path, fingerprint: &RunFingerprint) -> Result<Checkpoint, ReputeError> {
        let io_err = |e| ReputeError::io_at(path, e);
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|f| f.take(MAX_MANIFEST_BYTES + 1).read_to_end(&mut bytes))
            .map_err(io_err)?;
        let corrupt = |what: &dyn std::fmt::Display| {
            ReputeError::JournalCorrupt(format!("checkpoint {}: {what}", path.display()))
        };
        if bytes.len() as u64 > MAX_MANIFEST_BYTES {
            return Err(corrupt(&"larger than any manifest"));
        }
        let checkpoint = Checkpoint::decode(&bytes).map_err(|e| corrupt(&e))?;
        if checkpoint.fingerprint != *fingerprint {
            return Err(ReputeError::ResumeMismatch(format!(
                "checkpoint {} was written by run {} but this run is {} \
                 (different options, reference or reads)",
                path.display(),
                checkpoint.fingerprint.render(),
                fingerprint.render()
            )));
        }
        Ok(checkpoint)
    }
}

/// One read's sidecar record: its `charge`'s four words.
pub fn work_record(charge: &ReadCharge) -> [u8; WORK_RECORD_BYTES] {
    let words = [
        charge.work,
        charge.filtration,
        charge.prefilter,
        charge.verification,
    ];
    let mut record = [0; WORK_RECORD_BYTES];
    for (bytes, word) in record.chunks_exact_mut(8).zip(words) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
    record
}

/// Decodes one sidecar record, as [`work_record`] wrote it: every
/// [`WORK_RECORD_BYTES`] bytes are some record, so this cannot fail.
pub fn decode_work_record(bytes: &[u8; WORK_RECORD_BYTES]) -> ReadCharge {
    let mut words = wire::le_u64s(bytes);
    let mut next = || words.next().unwrap_or_default();
    ReadCharge {
        work: next(),
        filtration: next(),
        prefilter: next(),
        verification: next(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(seed: u64) -> MapMetrics {
        let mut m = MapMetrics::new();
        for (i, (name, _)) in MapMetrics::new().fields().into_iter().enumerate() {
            m.set_field(name, seed * 100 + i as u64);
        }
        m
    }

    fn checkpoint() -> Checkpoint {
        Checkpoint {
            fingerprint: RunFingerprint {
                config: 0xAB,
                workload: 0xCD,
                shape: 0,
            },
            reads: 2048,
            lengths: vec![91_000, 4_100, 2048 * WORK_RECORD_BYTES as u64],
            counters: vec![2048, 2000, 17, 2100, 1900, 150, 50],
            totals: metrics(7),
            complete: false,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("repute-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE check value: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The sidecar's record codec: every field of every record comes
    /// back, and a record is exactly [`WORK_RECORD_BYTES`] long, the
    /// size of a [`ReadCharge`].
    #[test]
    fn record_codec_round_trips() {
        assert_eq!(WORK_RECORD_BYTES, std::mem::size_of::<ReadCharge>());
        let charge = |seed: u64| ReadCharge::new(1000 + seed, &metrics(seed));
        let mut bytes = Vec::new();
        for seed in 0..3 {
            bytes.extend(work_record(&charge(seed)));
        }
        assert_eq!(bytes.len(), 3 * WORK_RECORD_BYTES);
        for (seed, record) in bytes.chunks_exact(WORK_RECORD_BYTES).enumerate() {
            let record = record.try_into().unwrap();
            assert_eq!(decode_work_record(record), charge(seed as u64));
        }
    }

    #[test]
    fn manifest_round_trips_and_detects_tampering() {
        for complete in [false, true] {
            let ck = Checkpoint {
                complete,
                ..checkpoint()
            };
            assert_eq!(Checkpoint::decode(&ck.encode()), Ok(ck));
        }
        let empty = Checkpoint {
            reads: 0,
            lengths: Vec::new(),
            counters: Vec::new(),
            totals: MapMetrics::new(),
            ..checkpoint()
        };
        assert_eq!(Checkpoint::decode(&empty.encode()), Ok(empty));
        // A changed count is caught by the checksum.
        let mut tampered = checkpoint().encode();
        tampered[8 * 5 + 1] += 1;
        assert!(Checkpoint::decode(&tampered).is_err());
        // The batch journal of older builds is refused by name.
        let err = Checkpoint::decode(b"RPJRNL01 and the rest of an old journal").unwrap_err();
        assert!(err.to_string().contains("RPJRNL01"), "{err}");
        // So is the checkpoint whose sidecar held whole metrics records.
        let mut old = checkpoint().encode();
        old[..8].copy_from_slice(b"RPCKPT01");
        let err = Checkpoint::decode(&old).unwrap_err();
        assert!(err.to_string().contains("RPCKPT01"), "{err}");
    }

    /// Every single-bit flip of a manifest, the checksum at its tail
    /// included, is caught.
    #[test]
    fn single_bit_corruption_of_tail_is_detected() {
        let bytes = checkpoint().encode();
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                assert!(
                    Checkpoint::decode(&flipped).is_err(),
                    "bit {bit} of byte {at}"
                );
            }
        }
    }

    /// A commit, a load under the same fingerprint, and a refusal under
    /// another; a checkpointed file's `.tmp` outlives its handle.
    #[test]
    fn journal_open_append_reopen() {
        let dir = temp_dir("open");
        let path = dir.join("run.ckpt");
        let ck = checkpoint();
        ck.commit(&path).unwrap();
        assert_eq!(Checkpoint::load(&path, &ck.fingerprint).unwrap(), ck);
        let other = RunFingerprint {
            config: 9,
            ..ck.fingerprint
        };
        match Checkpoint::load(&path, &other) {
            Err(ReputeError::ResumeMismatch(msg)) => assert!(msg.contains("this run is"), "{msg}"),
            other => panic!("expected ResumeMismatch, got {other:?}"),
        }
        fs::write(&path, b"RPJRNL01").unwrap();
        match Checkpoint::load(&path, &ck.fingerprint) {
            Err(e @ ReputeError::JournalCorrupt(_)) => assert_eq!(e.exit_code(), 5),
            other => panic!("expected JournalCorrupt, got {other:?}"),
        }

        let out = dir.join("out.sam");
        let mut file = AtomicFile::create(&out).unwrap().checkpointed();
        file.write_all(b"header\n").unwrap();
        assert_eq!(file.flushed().unwrap().1, 7);
        drop(file);
        assert_eq!(fs::read(tmp_path(&out)).unwrap(), b"header\n");
        let mut file = AtomicFile::reopen(&out, 7).unwrap();
        file.write_all(b"row\n").unwrap();
        file.commit().unwrap();
        assert_eq!(fs::read(&out).unwrap(), b"header\nrow\n");
        assert!(!tmp_path(&out).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Reopening cuts a file back to exactly its committed prefix: bytes
    /// written after the last commit are gone, and writing goes on from
    /// there.
    #[test]
    fn truncation_keeps_intact_prefix() {
        let dir = temp_dir("prefix");
        let out = dir.join("m.jsonl");
        let mut file = AtomicFile::create(&out).unwrap().checkpointed();
        file.write_all(b"committed").unwrap();
        let len = file.flushed().unwrap().1;
        file.write_all(b" and torn").unwrap();
        file.flush().unwrap();
        drop(file);
        let mut file = AtomicFile::reopen(&out, len).unwrap();
        assert_eq!(fs::read(tmp_path(&out)).unwrap(), b"committed");
        file.write_all(b", resumed").unwrap();
        assert_eq!(file.flushed().unwrap().1, len + 9);
        drop(file);
        assert_eq!(fs::read(tmp_path(&out)).unwrap(), b"committed, resumed");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A file shorter than its committed length lost promised bytes:
    /// corruption, typed, and the file is left as it was.
    #[test]
    fn corruption_below_watermark_is_typed_corrupt() {
        let dir = temp_dir("short");
        let out = dir.join("out.sam");
        fs::write(tmp_path(&out), b"short").unwrap();
        for len in [6, 1 << 40] {
            match AtomicFile::reopen(&out, len) {
                Err(ReputeError::JournalCorrupt(msg)) => {
                    assert!(msg.contains("holds 5 bytes"), "{msg}")
                }
                other => panic!("expected JournalCorrupt, got {other:?}"),
            }
        }
        assert_eq!(fs::read(tmp_path(&out)).unwrap(), b"short");
        match AtomicFile::reopen(&dir.join("absent.sam"), 0) {
            Err(ReputeError::JournalCorrupt(msg)) => assert!(msg.contains("missing"), "{msg}"),
            other => panic!("expected JournalCorrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_replaces_content() {
        let dir = temp_dir("atomic");
        let path = dir.join("target.txt");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert!(!tmp_path(&path).exists());
        // Written as produced, put in place only on commit; dropped
        // without one, the old content stays and no temp file is left.
        let mut file = AtomicFile::create(&path).unwrap();
        file.write_all(b"third").unwrap();
        assert!(tmp_path(&path).exists());
        drop(file);
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert!(!tmp_path(&path).exists());
        let mut file = AtomicFile::create(&path).unwrap();
        file.write_all(b"fourth").unwrap();
        file.commit().unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"fourth");
        assert!(!tmp_path(&path).exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
