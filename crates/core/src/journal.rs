//! Crash-safe run journal: batch-granular checkpointing for long runs.
//!
//! Long mapping runs on embedded SoCs die to power loss and `kill -9`;
//! the journal bounds the cost of a host crash to at most one batch of
//! work. The design is write-ahead-log shaped:
//!
//! * The **journal file** starts with a fixed header (magic + the run's
//!   [`RunFingerprint`], CRC-protected) followed by length-prefixed,
//!   CRC32-checksummed records — one per completed batch, appended in
//!   global batch order and flushed (`sync_data`) before the batch counts
//!   as durable. A crash mid-append leaves at most one torn tail record,
//!   which recovery truncates.
//! * The **sidecar manifest** (`<journal>.manifest`) is rewritten via the
//!   write→flush→rename atomic-replace idiom after every commit. It
//!   carries the fingerprint and the durable record count — a watermark:
//!   recovery refuses to drop records *below* it (that would be silent
//!   data corruption, not a torn write).
//!
//! Record payloads serialise everything phase 1 of the two-phase executor
//! produces for a batch: per-read mappings, work and candidate counts
//! ([`MapOutput`]) plus the full per-read [`MapMetrics`] record — enough
//! to replay the batch without re-executing it, bit-identically.
//!
//! The framing itself — header, frames, checksums, the bounded reader,
//! the append handle — is [`repute_genome::wire`]; this module owns the
//! record layout and the recovery policy.

use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use repute_genome::wire::{self, put_u32, put_u64, FrameLog, Reader, WireError};
use repute_genome::Strand;
use repute_mappers::{MapOutput, Mapping};
use repute_obs::MapMetrics;

use crate::error::ReputeError;

/// Journal file magic: identifies the format and its version.
pub const JOURNAL_MAGIC: [u8; 8] = *b"RPJRNL01";

/// Fixed journal header length: magic + three fingerprint words + CRC32.
pub const JOURNAL_HEADER_LEN: usize = wire::HEADER_LEN;

pub use repute_genome::wire::{crc32, Fnv64};

/// The identity of a run, for refusing mismatched resumes.
///
/// * `config` — every mapping parameter that can change output or
///   schedule (`ReputeConfig::fold_identity`, then schedule mode,
///   mapper choice, platform name);
/// * `workload` — the reference and read content;
/// * `shape` — the derived batch decomposition (read count, batch
///   boundaries, share ownership), computed by the resumable executor.
///
/// A journal whose stored fingerprint differs in any component is a
/// [`ReputeError::ResumeMismatch`], never silently reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunFingerprint {
    /// Hash of the run configuration.
    pub config: u64,
    /// Hash of the reference and read content.
    pub workload: u64,
    /// Hash of the batch decomposition (filled by the executor).
    pub shape: u64,
}

impl RunFingerprint {
    /// A fingerprint with the config/workload components; `shape` is
    /// stamped by the resumable executor once the batch plan is known.
    pub fn new(config: u64, workload: u64) -> RunFingerprint {
        RunFingerprint {
            config,
            workload,
            shape: 0,
        }
    }

    /// Hex rendering used by the manifest and in mismatch messages.
    pub fn render(&self) -> String {
        format!(
            "{:016x}.{:016x}.{:016x}",
            self.config, self.workload, self.shape
        )
    }

    /// The 36-byte journal header carrying this fingerprint behind
    /// `magic` (both journals open with one).
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
/// journal manifest, `--metrics-out`, and file-bound SAM output.
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

/// A file written while it is produced and put in place only whole:
/// the bytes go to the sibling `<path>.tmp` (buffered), and
/// [`AtomicFile::commit`] syncs it to disk and renames it over `path`.
/// Dropped without a commit — a run that failed on the way — it removes
/// the temp file, so `path` keeps its old content (or stays absent) and
/// no `.tmp` is left behind.
#[derive(Debug)]
pub struct AtomicFile {
    file: std::io::BufWriter<File>,
    tmp: PathBuf,
    path: PathBuf,
    committed: bool,
}

impl AtomicFile {
    /// Creates (truncates) `<path>.tmp`.
    ///
    /// # Errors
    ///
    /// Returns [`ReputeError::Io`] naming `path` when the temp file
    /// cannot be created.
    pub fn create(path: &Path) -> Result<AtomicFile, ReputeError> {
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let file = File::create(&tmp).map_err(|e| ReputeError::io_at(path, e))?;
        Ok(AtomicFile {
            file: std::io::BufWriter::with_capacity(1 << 16, file),
            tmp,
            path: path.to_path_buf(),
            committed: false,
        })
    }

    /// Flushes and syncs the temp file, then renames it over the target.
    ///
    /// # Errors
    ///
    /// Returns [`ReputeError::Io`] naming the target on any filesystem
    /// error; the temp file is removed then.
    pub fn commit(mut self) -> Result<(), ReputeError> {
        let io_err = |e| ReputeError::io_at(&self.path, e);
        self.file.flush().map_err(io_err)?;
        self.file.get_ref().sync_all().map_err(io_err)?;
        fs::rename(&self.tmp, &self.path).map_err(io_err)?;
        self.committed = true;
        Ok(())
    }
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
        if !self.committed {
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

// ---------------------------------------------------------------------
// Record codec.
// ---------------------------------------------------------------------

/// One journaled batch: its global index, read range, and the phase-1
/// results (per-read outputs and metric records).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRecord {
    /// Global batch index (records are appended in index order, so the
    /// journal always holds a prefix of the batch list).
    pub index: u32,
    /// First read of the batch (global read order, inclusive).
    pub lo: u64,
    /// One past the last read of the batch.
    pub hi: u64,
    /// Per-read mapping outputs, in read order within the batch.
    pub outputs: Vec<MapOutput>,
    /// Per-read metric records, parallel to `outputs`.
    pub metrics: Vec<MapMetrics>,
}

fn encode_payload(record: &BatchRecord) -> Vec<u8> {
    let reads = (record.hi - record.lo) as usize;
    assert_eq!(record.outputs.len(), reads, "outputs must cover the batch");
    assert_eq!(record.metrics.len(), reads, "metrics must cover the batch");
    let mut payload = Vec::with_capacity(32 + reads * 128);
    put_u32(&mut payload, record.index);
    put_u64(&mut payload, record.lo);
    put_u64(&mut payload, record.hi);
    for (out, m) in record.outputs.iter().zip(&record.metrics) {
        put_u32(&mut payload, out.mappings.len() as u32);
        for mapping in &out.mappings {
            put_u32(&mut payload, mapping.position);
            put_u32(&mut payload, mapping.distance);
            payload.push(match mapping.strand {
                Strand::Forward => 0,
                Strand::Reverse => 1,
            });
        }
        put_u64(&mut payload, out.work);
        put_u64(&mut payload, out.candidates);
        // The thirteen counters, in `MapMetrics::fields` order.
        for (_, word) in m.fields() {
            put_u64(&mut payload, word);
        }
    }
    payload
}

/// Encodes one batch record as a framed journal entry:
/// `[payload_len: u32][payload][crc32(payload): u32]`, all little-endian.
///
/// # Panics
///
/// Panics if `outputs`/`metrics` lengths disagree with `hi − lo` — that
/// is an executor bug, not an I/O condition.
pub fn encode_record(record: &BatchRecord) -> Vec<u8> {
    let payload = encode_payload(record);
    let mut framed = Vec::with_capacity(payload.len() + 8);
    wire::put_frame(&mut framed, &payload);
    framed
}

fn decode_payload(payload: &[u8]) -> Result<BatchRecord, WireError> {
    let mut r = Reader::new(payload);
    let index = r.u32()?;
    let lo = r.u64()?;
    let hi = r.u64()?;
    let span = hi
        .checked_sub(lo)
        .ok_or(WireError::Invalid("batch range ends before it starts"))?;
    // Per read: mapping count, work, candidates, thirteen metric words.
    let reads = r.bounded(span, 4 + 16 + 13 * 8)?;
    let mut outputs = Vec::with_capacity(reads);
    let mut metrics = Vec::with_capacity(reads);
    for _ in 0..reads {
        // A mapping is position + distance + strand: nine bytes.
        let mappings = r.items(9, |r| {
            let position = r.u32()?;
            let distance = r.u32()?;
            let strand = match r.u8()? {
                0 => Strand::Forward,
                1 => Strand::Reverse,
                _ => return Err(WireError::Invalid("unknown strand code")),
            };
            Ok(Mapping {
                position,
                strand,
                distance,
            })
        })?;
        let work = r.u64()?;
        let candidates = r.u64()?;
        outputs.push(MapOutput {
            mappings,
            work,
            candidates,
        });
        let mut m = MapMetrics::new();
        for (name, _) in m.fields() {
            m.set_field(name, r.u64()?);
        }
        metrics.push(m);
    }
    r.finish()?; // trailing garbage inside a CRC-valid frame
    Ok(BatchRecord {
        index,
        lo,
        hi,
        outputs,
        metrics,
    })
}

/// Decodes a stream of framed records, stopping at the first frame that
/// is truncated, fails its CRC, or does not parse. Returns the intact
/// prefix records and the number of bytes they occupy — the torn-tail
/// recovery primitive: everything past the returned offset is dropped.
pub fn decode_records(bytes: &[u8]) -> (Vec<BatchRecord>, usize) {
    let mut records = Vec::new();
    let mut consumed = 0;
    for payload in wire::frames(bytes).0 {
        let Ok(record) = decode_payload(payload) else {
            break;
        };
        records.push(record);
        consumed += wire::frame_len(payload);
    }
    (records, consumed)
}

// ---------------------------------------------------------------------
// The journal file and its manifest.
// ---------------------------------------------------------------------

/// The manifest path of a journal: `<journal>.manifest`.
pub fn manifest_path(journal: &Path) -> PathBuf {
    let mut p = journal.as_os_str().to_os_string();
    p.push(".manifest");
    PathBuf::from(p)
}

/// A parsed sidecar manifest.
#[derive(Debug, Clone, PartialEq)]
struct Manifest {
    fingerprint: String,
    batches: u64,
    records: u64,
    complete: bool,
}

impl Manifest {
    fn render(fingerprint: &RunFingerprint, batches: u64, records: u64, complete: bool) -> String {
        let mut body = String::new();
        body.push_str("repute-journal v1\n");
        body.push_str(&format!("fingerprint {}\n", fingerprint.render()));
        body.push_str(&format!("batches {batches}\n"));
        body.push_str(&format!("records {records}\n"));
        body.push_str(&format!("complete {}\n", u8::from(complete)));
        let crc = crc32(body.as_bytes());
        body.push_str(&format!("crc {crc:08x}\n"));
        body
    }

    fn parse(text: &str) -> Result<Manifest, String> {
        let crc_line_start = text
            .rfind("crc ")
            .ok_or_else(|| "missing crc line".to_string())?;
        let body = &text[..crc_line_start];
        let stored = text[crc_line_start..]
            .trim_start_matches("crc ")
            .trim()
            .to_string();
        let computed = format!("{:08x}", crc32(body.as_bytes()));
        if stored != computed {
            return Err(format!("manifest crc {stored} != computed {computed}"));
        }
        // The body is CRC-checked and holds each key once.
        let field = |key: &str| body.lines().find_map(|line| line.strip_prefix(key));
        let number = |key: &str| field(key).and_then(|v| v.trim().parse::<u64>().ok());
        Ok(Manifest {
            fingerprint: field("fingerprint ")
                .ok_or("missing fingerprint")?
                .trim()
                .to_string(),
            batches: number("batches ").ok_or("missing batches")?,
            records: number("records ").ok_or("missing records")?,
            complete: field("complete ").ok_or("missing complete flag")?.trim() == "1",
        })
    }
}

/// An open run journal: an append handle plus the durable-record count.
#[derive(Debug)]
pub struct RunJournal {
    path: PathBuf,
    log: FrameLog,
    fingerprint: RunFingerprint,
    records: u64,
}

impl RunJournal {
    /// Opens (or creates) the journal at `path` for a run identified by
    /// `fingerprint`, replaying any durable records.
    ///
    /// Recovery semantics:
    /// * a torn tail record (truncated frame, failed CRC, unparseable
    ///   payload **above** the manifest watermark) is truncated away;
    /// * intact records must form a prefix of the batch list (indices
    ///   `0, 1, 2, …`) — anything else is [`ReputeError::JournalCorrupt`];
    /// * fewer intact records than the manifest's durable watermark is
    ///   [`ReputeError::JournalCorrupt`] (that data was promised);
    /// * a fingerprint mismatch in the header or manifest is
    ///   [`ReputeError::ResumeMismatch`].
    ///
    /// # Errors
    ///
    /// [`ReputeError::Io`] on filesystem failures, plus the corruption
    /// and mismatch classes above.
    pub fn open(
        path: &Path,
        fingerprint: &RunFingerprint,
    ) -> Result<(RunJournal, Vec<BatchRecord>), ReputeError> {
        let io_err = |e| ReputeError::io_at(path, e);
        let manifest = Self::load_manifest(path)?;
        if let Some(m) = &manifest {
            if m.fingerprint != fingerprint.render() {
                return Err(ReputeError::ResumeMismatch(format!(
                    "manifest fingerprint {} does not match this run's {} \
                     (different config, inputs, or schedule)",
                    m.fingerprint,
                    fingerprint.render()
                )));
            }
        }
        let watermark = manifest.as_ref().map_or(0, |m| m.records);
        let corrupt = |what: String| {
            ReputeError::JournalCorrupt(format!("journal {}: {what}", path.display()))
        };

        let bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err(e)),
        };
        let (log, replayed) = match RunFingerprint::from_header(&bytes, &JOURNAL_MAGIC) {
            // No file yet, or a crash during the very first header
            // write: start over — unless records were promised.
            Err(WireError::Truncated) if watermark == 0 => {
                let header = fingerprint.header(&JOURNAL_MAGIC);
                (FrameLog::create(path, &header).map_err(io_err)?, Vec::new())
            }
            Err(WireError::Truncated) => {
                return Err(corrupt(format!(
                    "missing or shorter than its header, but the manifest promises \
                     {watermark} durable record(s)"
                )))
            }
            Err(e) => return Err(corrupt(format!("header: {e}"))),
            Ok(stored) if stored != *fingerprint => {
                return Err(ReputeError::ResumeMismatch(format!(
                    "journal was written by run {} but this run is {} \
                     (different config, inputs, or schedule)",
                    stored.render(),
                    fingerprint.render()
                )))
            }
            Ok(_) => {
                let (records, consumed) = decode_records(&bytes[JOURNAL_HEADER_LEN..]);
                if (records.len() as u64) < watermark {
                    return Err(corrupt(format!(
                        "holds {} intact record(s) but the manifest promises {watermark} — \
                         a durable record was corrupted",
                        records.len()
                    )));
                }
                for (i, record) in records.iter().enumerate() {
                    if record.index as usize != i {
                        return Err(corrupt(format!(
                            "record {i} carries batch index {} — records must form a \
                             batch-order prefix",
                            record.index
                        )));
                    }
                }
                // Whatever follows the intact records is a torn tail (the
                // watermark check has ruled out promised data): dropped.
                let durable_len = (JOURNAL_HEADER_LEN + consumed) as u64;
                (FrameLog::open(path, durable_len).map_err(io_err)?, records)
            }
        };
        let journal = RunJournal {
            path: path.to_path_buf(),
            log,
            fingerprint: *fingerprint,
            records: replayed.len() as u64,
        };
        Ok((journal, replayed))
    }

    fn load_manifest(path: &Path) -> Result<Option<Manifest>, ReputeError> {
        let mpath = manifest_path(path);
        if !mpath.exists() {
            return Ok(None);
        }
        let bytes = fs::read(&mpath).map_err(|e| ReputeError::io_at(&mpath, e))?;
        // Damage that breaks the UTF-8 also breaks the CRC line's match.
        Manifest::parse(&String::from_utf8_lossy(&bytes))
            .map(Some)
            .map_err(|reason| {
                ReputeError::JournalCorrupt(format!(
                    "manifest {} is malformed: {reason}",
                    mpath.display()
                ))
            })
    }

    /// Number of durable records currently journaled.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Appends one batch record and flushes it to disk; the batch is
    /// durable when this returns.
    ///
    /// # Errors
    ///
    /// [`ReputeError::Io`] on write or sync failure.
    pub fn append(&mut self, record: &BatchRecord) -> Result<(), ReputeError> {
        self.log
            .append(&encode_payload(record))
            .map_err(|e| ReputeError::io_at(&self.path, e))?;
        self.records += 1;
        Ok(())
    }

    /// Atomically rewrites the sidecar manifest with the current durable
    /// record count (the recovery watermark).
    ///
    /// # Errors
    ///
    /// [`ReputeError::Io`] on write or rename failure.
    pub fn commit_manifest(&self, total_batches: u64, complete: bool) -> Result<(), ReputeError> {
        let body = Manifest::render(&self.fingerprint, total_batches, self.records, complete);
        write_atomic(&manifest_path(&self.path), body.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;

    fn sample_record(index: u32, lo: u64, reads: usize) -> BatchRecord {
        let outputs: Vec<MapOutput> = (0..reads)
            .map(|i| MapOutput {
                mappings: vec![Mapping {
                    position: (lo as u32) * 100 + i as u32,
                    strand: if i % 2 == 0 {
                        Strand::Forward
                    } else {
                        Strand::Reverse
                    },
                    distance: (i % 4) as u32,
                }],
                work: 100 + i as u64,
                candidates: 3,
            })
            .collect();
        let metrics: Vec<MapMetrics> = (0..reads)
            .map(|i| MapMetrics {
                seeds_selected: 4,
                fm_extend_ops: 10 + i as u64,
                word_updates: 7,
                hits: 1,
                ..MapMetrics::new()
            })
            .collect();
        BatchRecord {
            index,
            lo,
            hi: lo + reads as u64,
            outputs,
            metrics,
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE check value: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_codec_round_trips() {
        let records = vec![
            sample_record(0, 0, 3),
            sample_record(1, 3, 1),
            sample_record(2, 4, 0),
        ];
        let mut bytes = Vec::new();
        for r in &records {
            bytes.extend_from_slice(&encode_record(r));
        }
        let (decoded, consumed) = decode_records(&bytes);
        assert_eq!(decoded, records);
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn truncation_keeps_intact_prefix() {
        let records = vec![sample_record(0, 0, 2), sample_record(1, 2, 2)];
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        for r in &records {
            bytes.extend_from_slice(&encode_record(r));
            boundaries.push(bytes.len());
        }
        for cut in 0..bytes.len() {
            let (decoded, consumed) = decode_records(&bytes[..cut]);
            let intact = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(decoded.len(), intact, "cut at {cut}");
            assert_eq!(consumed, boundaries[intact], "cut at {cut}");
            assert_eq!(decoded, records[..intact], "cut at {cut}");
        }
    }

    #[test]
    fn single_bit_corruption_of_tail_is_detected() {
        let records = vec![sample_record(0, 0, 2), sample_record(1, 2, 2)];
        let mut clean = Vec::new();
        for r in &records {
            clean.extend_from_slice(&encode_record(r));
        }
        let first_len = encode_record(&records[0]).len();
        for byte in first_len..clean.len() {
            for bit in 0..8 {
                let mut corrupt = clean.clone();
                corrupt[byte] ^= 1 << bit;
                let (decoded, _) = decode_records(&corrupt);
                assert_eq!(
                    decoded,
                    records[..1],
                    "flip at byte {byte} bit {bit} must drop the tail and keep the prefix"
                );
            }
        }
    }

    #[test]
    fn journal_open_append_reopen() {
        let dir = std::env::temp_dir().join(format!("repute-journal-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.journal");
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(manifest_path(&path));
        let fp = RunFingerprint {
            config: 1,
            workload: 2,
            shape: 3,
        };
        {
            let (mut journal, existing) = RunJournal::open(&path, &fp).unwrap();
            assert!(existing.is_empty());
            journal.append(&sample_record(0, 0, 2)).unwrap();
            journal.append(&sample_record(1, 2, 3)).unwrap();
            journal.commit_manifest(4, false).unwrap();
        }
        // Reopen: both records replay.
        let (journal, existing) = RunJournal::open(&path, &fp).unwrap();
        assert_eq!(existing.len(), 2);
        assert_eq!(journal.records(), 2);
        assert_eq!(existing[1], sample_record(1, 2, 3));
        drop(journal);

        // A torn tail (partial third record) is truncated on reopen.
        let good_len = fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        let frame = encode_record(&sample_record(2, 5, 2));
        f.write_all(&frame[..frame.len() / 2]).unwrap();
        drop(f);
        let (_, recovered) = RunJournal::open(&path, &fp).unwrap();
        assert_eq!(recovered.len(), 2, "torn tail must be dropped");
        assert_eq!(fs::metadata(&path).unwrap().len(), good_len);

        // A different fingerprint is refused.
        let other = RunFingerprint {
            config: 9,
            workload: 2,
            shape: 3,
        };
        match RunJournal::open(&path, &other) {
            Err(ReputeError::ResumeMismatch(_)) => {}
            other => panic!("expected ResumeMismatch, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_below_watermark_is_typed_corrupt() {
        let dir =
            std::env::temp_dir().join(format!("repute-journal-corrupt-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.journal");
        let fp = RunFingerprint {
            config: 7,
            workload: 8,
            shape: 9,
        };
        {
            let (mut journal, _) = RunJournal::open(&path, &fp).unwrap();
            journal.append(&sample_record(0, 0, 2)).unwrap();
            journal.append(&sample_record(1, 2, 2)).unwrap();
            journal.commit_manifest(2, true).unwrap();
        }
        // Flip a bit inside the FIRST record — below the watermark.
        let mut bytes = fs::read(&path).unwrap();
        bytes[JOURNAL_HEADER_LEN + 12] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        match RunJournal::open(&path, &fp) {
            Err(ReputeError::JournalCorrupt(msg)) => {
                assert!(msg.contains("promises"), "{msg}");
            }
            other => panic!("expected JournalCorrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_round_trips_and_detects_tampering() {
        let fp = RunFingerprint {
            config: 0xAB,
            workload: 0xCD,
            shape: 0xEF,
        };
        let body = Manifest::render(&fp, 10, 7, false);
        let parsed = Manifest::parse(&body).unwrap();
        assert_eq!(parsed.fingerprint, fp.render());
        assert_eq!(parsed.batches, 10);
        assert_eq!(parsed.records, 7);
        assert!(!parsed.complete);
        let tampered = body.replace("records 7", "records 9");
        assert!(Manifest::parse(&tampered).is_err());
    }

    #[test]
    fn atomic_write_replaces_content() {
        let dir = std::env::temp_dir().join(format!("repute-atomic-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("target.txt");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert!(!path.with_extension("txt.tmp").exists());
        // Written as produced, put in place only on commit; dropped
        // without one, the old content stays and no temp file is left.
        let mut file = AtomicFile::create(&path).unwrap();
        file.write_all(b"third").unwrap();
        assert!(path.with_extension("txt.tmp").exists());
        drop(file);
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert!(!path.with_extension("txt.tmp").exists());
        let mut file = AtomicFile::create(&path).unwrap();
        file.write_all(b"fourth").unwrap();
        file.commit().unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"fourth");
        assert!(!path.with_extension("txt.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
