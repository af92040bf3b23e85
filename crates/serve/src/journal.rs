//! Crash-safe job journal for the daemon.
//!
//! The journal is the daemon's only durable state. Three record kinds
//! are appended, each one frame of the codec in `repute_genome::wire`
//! (`[len u32][payload][crc32]`, the framing the checkpoint journal in
//! `repute_core::journal` uses too):
//!
//! * **Accepted** — written the moment a job passes admission, before
//!   any response is sent. Carries everything needed to re-execute the
//!   job: id, tenant, arrival time, deadline and priority, the
//!   *effective* (limit-clamped) mapping configuration, and the full
//!   read content. Spool files and socket buffers may vanish in a
//!   crash; the journal cannot.
//! * **BatchDone** — written once per completed scheduler batch, as a
//!   single frame. It lists every job in the batch together with each
//!   read's mapping locations, plus the batch's fault provenance: which
//!   devices were permanently lost by commit time and each struck
//!   device's transient-fault / retry / migration counts. Because the
//!   frame is one CRC unit, a batch commit is atomic: after a crash the
//!   batch either replays from its stored mappings (byte-identical
//!   responses, no re-execution) — with the provenance re-observed into
//!   the device-health registry, so a resume mid-fault-episode
//!   reconstructs the same fleet view — or it never happened and its
//!   jobs re-run under the same re-based fault plan. This is the "at
//!   most one in-flight batch re-executed" guarantee.
//! * **Shed** — the deadline-shedding commit: the simulated time and
//!   the sequence numbers of queued jobs whose deadlines expired before
//!   dispatch (`--shed-overdue`). Written before the `DEADLINE_EXCEEDED`
//!   responses are sent, so a crash-resume re-sheds exactly the same
//!   jobs instead of re-executing them.
//! * **State** — a snapshot of the scheduler state (simulated clock,
//!   sequence/batch counters, per-tenant fairness service, live quota
//!   window, shed counter, and the per-device health ladder). Written
//!   only as the first frame of a *compacted* journal, it replaces the
//!   dead records the compaction dropped: a resume applies the state,
//!   then replays the remaining frames as usual.
//!
//! **Compaction** keeps a long-lived daemon's journal proportional to
//! in-flight work: once enough records are dead (their jobs committed
//! and acknowledged), [`JobJournal::compact`] rewrites the header, one
//! State frame, and the still-live Accepted records into a sibling
//! file, fsyncs, and atomically renames it over the journal. A crash on
//! either side of the rename leaves a complete, valid journal; the
//! fingerprint policy is unchanged.
//!
//! Recovery truncates a torn tail (a partial or CRC-broken final
//! frame — the crash interrupted an append) but refuses a CRC break in
//! the interior as [`ReputeError::JournalCorrupt`], and refuses a
//! header whose [`RunFingerprint`] does not match the running server as
//! [`ReputeError::ResumeMismatch`] (same policy as checkpoint resume).

use std::path::{Path, PathBuf};

use repute_core::journal::RunFingerprint;
use repute_core::{write_atomic, ReputeError};
use repute_genome::wire::{
    self, put_frame, put_str, put_u32, put_u64, FrameLog, Reader, Stop, WireError,
};
use repute_genome::{DnaSeq, Strand};
use repute_mappers::Mapping;

use crate::admission::{ConfigKey, JobSpec};
use crate::envelope::{prefilter_code, prefilter_from_code, MapperKind};

/// Magic prefix of a serve journal file (v3: fault provenance in batch
/// records, Shed frames, health ladder + shed counter in State frames).
pub const JOURNAL_MAGIC: &[u8; 8] = b"RPSVJNL3";

const TAG_ACCEPTED: u8 = 1;
const TAG_BATCH_DONE: u8 = 2;
const TAG_STATE: u8 = 3;
const TAG_SHED: u8 = 4;

/// The mapping results of one job inside a committed batch: one inner
/// vector per read, in job read order.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Acceptance sequence number of the job.
    pub seq: u64,
    /// Per-read mapping locations.
    pub mappings: Vec<Vec<Mapping>>,
}

/// Per-device fault provenance of one committed batch: what struck the
/// device while the batch ran (only devices with non-zero counts are
/// recorded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceProvenance {
    /// Global device index.
    pub device: u32,
    /// Transient faults that struck the device during the batch.
    pub faults: u64,
    /// Retry attempts the device performed.
    pub retries: u64,
    /// Batches the device absorbed from dead devices (failover).
    pub migrated: u64,
}

/// A committed batch: which jobs ran together, when (simulated clock)
/// the batch completed, and its fault provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRecord {
    /// Batch ordinal (0-based, in execution order).
    pub batch: u64,
    /// Simulated completion time of the batch.
    pub completion_s: f64,
    /// Results for every job of the batch, in dispatch order.
    pub jobs: Vec<JobResult>,
    /// Devices permanently lost by the time the batch committed
    /// (ascending global indices; empty on a fault-free batch).
    pub lost: Vec<u32>,
    /// Per-device fault/retry/migration counts, ascending by device
    /// (empty on a fault-free batch).
    pub provenance: Vec<DeviceProvenance>,
}

/// One shed commit: queued jobs dropped at `at_s` because their
/// deadlines had expired before dispatch.
#[derive(Debug, Clone, PartialEq)]
pub struct ShedRecord {
    /// Simulated time of the shed decision.
    pub at_s: f64,
    /// Sequence numbers of the shed jobs, in shed order.
    pub seqs: Vec<u64>,
}

/// The scheduler-state snapshot a compacted journal opens with: the
/// facts a resume can no longer derive once the dead records are gone.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateRecord {
    /// Simulated clock at the snapshot.
    pub sim_clock: f64,
    /// Next acceptance sequence number.
    pub next_seq: u64,
    /// Batches committed so far (next batch ordinal).
    pub batches: u64,
    /// Jobs accepted so far (counter continuity).
    pub accepted: u64,
    /// Jobs completed so far (counter continuity).
    pub completed: u64,
    /// Responses replayed from the journal so far (counter continuity).
    pub replayed: u64,
    /// Jobs shed with `DEADLINE_EXCEEDED` so far (counter continuity).
    pub shed: u64,
    /// Per-tenant weighted-fair accumulated service, name-sorted.
    pub served: Vec<(String, f64)>,
    /// Live quota-window bookings `(seq, tenant, admitted_at, reads)`.
    pub quota: Vec<(u64, String, f64, u64)>,
    /// Per-device health ladder `(device, state code, cumulative
    /// faults)` in device order — see `repute_hetsim::HealthState::code`.
    pub health: Vec<(u32, u8, u64)>,
}

/// Everything recovered from a journal replay.
#[derive(Debug, Default)]
pub struct Recovered {
    /// The state snapshot, when the journal was compacted.
    pub state: Option<StateRecord>,
    /// Accepted jobs in acceptance order.
    pub accepted: Vec<JobSpec>,
    /// Committed batches in commit order.
    pub batches: Vec<BatchRecord>,
    /// Shed commits in commit order.
    pub shed: Vec<ShedRecord>,
}

fn corrupt(detail: impl std::fmt::Display) -> ReputeError {
    ReputeError::JournalCorrupt(detail.to_string())
}

fn encode_accepted(job: &JobSpec) -> Vec<u8> {
    let mut out = vec![TAG_ACCEPTED];
    put_u64(&mut out, job.seq);
    put_u64(&mut out, job.arrival_s.to_bits());
    match job.deadline_s {
        Some(d) => {
            out.push(1);
            put_u64(&mut out, d.to_bits());
        }
        None => out.push(0),
    }
    put_u32(&mut out, job.priority);
    put_u32(&mut out, job.key.delta);
    out.push(prefilter_code(job.key.prefilter));
    out.push(job.key.mapper.code());
    put_str(&mut out, &job.id);
    put_str(&mut out, &job.tenant);
    put_u32(&mut out, job.reads.len() as u32);
    for (rid, seq) in job.read_ids.iter().zip(&job.reads) {
        put_str(&mut out, rid);
        put_str(&mut out, &seq.to_string());
    }
    out
}

fn decode_accepted(cur: &mut Reader<'_>) -> Result<JobSpec, WireError> {
    let seq = cur.u64()?;
    let arrival_s = f64::from_bits(cur.u64()?);
    let deadline_s = match cur.u8()? {
        0 => None,
        1 => Some(f64::from_bits(cur.u64()?)),
        _ => {
            return Err(WireError::Invalid(
                "unknown deadline flag in accepted record",
            ))
        }
    };
    let priority = cur.u32()?;
    let delta = cur.u32()?;
    let prefilter = prefilter_from_code(cur.u8()?).ok_or(WireError::Invalid(
        "unknown prefilter code in accepted record",
    ))?;
    let mapper = MapperKind::from_code(cur.u8()?)
        .ok_or(WireError::Invalid("unknown mapper code in accepted record"))?;
    let id = cur.string()?;
    let tenant = cur.string()?;
    // Per read: id + sequence, length-prefixed.
    let (read_ids, reads) = cur
        .items(8, |cur| {
            let id = cur.string()?;
            let seq = cur.string()?.parse::<DnaSeq>();
            let seq =
                seq.map_err(|_| WireError::Invalid("invalid read sequence in accepted record"))?;
            Ok((id, seq))
        })?
        .into_iter()
        .unzip();
    Ok(JobSpec {
        seq,
        id,
        tenant,
        key: ConfigKey {
            delta,
            prefilter,
            mapper,
        },
        arrival_s,
        deadline_s,
        priority,
        read_ids,
        reads,
    })
}

fn encode_batch(record: &BatchRecord) -> Vec<u8> {
    let mut out = vec![TAG_BATCH_DONE];
    put_u64(&mut out, record.batch);
    put_u64(&mut out, record.completion_s.to_bits());
    put_u32(&mut out, record.jobs.len() as u32);
    for job in &record.jobs {
        put_u64(&mut out, job.seq);
        put_u32(&mut out, job.mappings.len() as u32);
        for per_read in &job.mappings {
            put_u32(&mut out, per_read.len() as u32);
            for m in per_read {
                put_u32(&mut out, m.position);
                out.push(match m.strand {
                    Strand::Forward => 0,
                    Strand::Reverse => 1,
                });
                put_u32(&mut out, m.distance);
            }
        }
    }
    put_u32(&mut out, record.lost.len() as u32);
    for dev in &record.lost {
        put_u32(&mut out, *dev);
    }
    put_u32(&mut out, record.provenance.len() as u32);
    for p in &record.provenance {
        put_u32(&mut out, p.device);
        put_u64(&mut out, p.faults);
        put_u64(&mut out, p.retries);
        put_u64(&mut out, p.migrated);
    }
    out
}

fn decode_batch(cur: &mut Reader<'_>) -> Result<BatchRecord, WireError> {
    let batch = cur.u64()?;
    let completion_s = f64::from_bits(cur.u64()?);
    // The `items` minimum is the smallest encoding of one item: a job
    // is seq + read count, a read its mapping count, a mapping position
    // + strand + distance, a provenance row device + three counters.
    let mapping = |cur: &mut Reader<'_>| {
        let position = cur.u32()?;
        let strand = match cur.u8()? {
            0 => Strand::Forward,
            1 => Strand::Reverse,
            _ => return Err(WireError::Invalid("unknown strand code in batch record")),
        };
        let distance = cur.u32()?;
        Ok(Mapping {
            position,
            strand,
            distance,
        })
    };
    let jobs = cur.items(12, |cur| {
        let seq = cur.u64()?;
        let mappings = cur.items(4, |cur| cur.items(9, mapping))?;
        Ok(JobResult { seq, mappings })
    })?;
    let lost = cur.items(4, Reader::u32)?;
    let provenance = cur.items(28, |cur| {
        Ok(DeviceProvenance {
            device: cur.u32()?,
            faults: cur.u64()?,
            retries: cur.u64()?,
            migrated: cur.u64()?,
        })
    })?;
    Ok(BatchRecord {
        batch,
        jobs,
        completion_s,
        lost,
        provenance,
    })
}

fn encode_shed(record: &ShedRecord) -> Vec<u8> {
    let mut out = vec![TAG_SHED];
    put_u64(&mut out, record.at_s.to_bits());
    put_u32(&mut out, record.seqs.len() as u32);
    for seq in &record.seqs {
        put_u64(&mut out, *seq);
    }
    out
}

fn decode_shed(cur: &mut Reader<'_>) -> Result<ShedRecord, WireError> {
    let at_s = f64::from_bits(cur.u64()?);
    let seqs = cur.items(8, Reader::u64)?;
    Ok(ShedRecord { at_s, seqs })
}

fn encode_state(state: &StateRecord) -> Vec<u8> {
    let mut out = vec![TAG_STATE];
    put_u64(&mut out, state.sim_clock.to_bits());
    put_u64(&mut out, state.next_seq);
    put_u64(&mut out, state.batches);
    put_u64(&mut out, state.accepted);
    put_u64(&mut out, state.completed);
    put_u64(&mut out, state.replayed);
    put_u64(&mut out, state.shed);
    put_u32(&mut out, state.served.len() as u32);
    for (tenant, served) in &state.served {
        put_str(&mut out, tenant);
        put_u64(&mut out, served.to_bits());
    }
    put_u32(&mut out, state.quota.len() as u32);
    for (seq, tenant, at, reads) in &state.quota {
        put_u64(&mut out, *seq);
        put_str(&mut out, tenant);
        put_u64(&mut out, at.to_bits());
        put_u64(&mut out, *reads);
    }
    put_u32(&mut out, state.health.len() as u32);
    for (device, code, faults) in &state.health {
        put_u32(&mut out, *device);
        out.push(*code);
        put_u64(&mut out, *faults);
    }
    out
}

fn decode_state(cur: &mut Reader<'_>) -> Result<StateRecord, WireError> {
    let sim_clock = f64::from_bits(cur.u64()?);
    let next_seq = cur.u64()?;
    let batches = cur.u64()?;
    let accepted = cur.u64()?;
    let completed = cur.u64()?;
    let replayed = cur.u64()?;
    let shed = cur.u64()?;
    // Minimum item sizes: tenant + service; seq + tenant + time +
    // reads; device + code + faults.
    let served = cur.items(12, |cur| Ok((cur.string()?, f64::from_bits(cur.u64()?))))?;
    let quota = cur.items(28, |cur| {
        let seq = cur.u64()?;
        let tenant = cur.string()?;
        Ok((seq, tenant, f64::from_bits(cur.u64()?), cur.u64()?))
    })?;
    let health = cur.items(13, |cur| Ok((cur.u32()?, cur.u8()?, cur.u64()?)))?;
    Ok(StateRecord {
        sim_clock,
        next_seq,
        batches,
        accepted,
        completed,
        replayed,
        shed,
        served,
        quota,
        health,
    })
}

/// Append-only journal of accepted jobs and committed batches.
#[derive(Debug)]
pub struct JobJournal {
    log: FrameLog,
    path: PathBuf,
}

impl JobJournal {
    /// Creates a fresh journal at `path`, writing the header (magic +
    /// fingerprint + header CRC). An existing file is truncated.
    pub fn create(path: &Path, fingerprint: &RunFingerprint) -> Result<JobJournal, ReputeError> {
        let log = FrameLog::create(path, &fingerprint.header(JOURNAL_MAGIC))
            .map_err(|e| ReputeError::io_at(path, e))?;
        Ok(JobJournal {
            log,
            path: path.to_path_buf(),
        })
    }

    /// Opens an existing journal for resume: validates the header
    /// against `fingerprint`, replays every intact frame, truncates a
    /// torn tail, and returns the journal positioned for appends plus
    /// everything recovered.
    pub fn open(
        path: &Path,
        fingerprint: &RunFingerprint,
    ) -> Result<(JobJournal, Recovered), ReputeError> {
        let io = |e: std::io::Error| ReputeError::io_at(path, e);
        let bytes = std::fs::read(path).map_err(io)?;
        let found = RunFingerprint::from_header(&bytes, JOURNAL_MAGIC)
            .map_err(|e| corrupt(format_args!("journal header: {e}")))?;
        if found != *fingerprint {
            return Err(ReputeError::ResumeMismatch(format!(
                "serve journal was written by run {} but this server is {} \
                 (different reference, limits, or platform)",
                found.render(),
                fingerprint.render()
            )));
        }

        let mut recovered = Recovered::default();
        let (payloads, stop) = wire::frames(&bytes[wire::HEADER_LEN..]);
        let mut durable_len = wire::HEADER_LEN;
        for payload in payloads {
            let first = durable_len == wire::HEADER_LEN;
            let mut cur = Reader::new(payload);
            let decoded = match cur.u8() {
                Ok(TAG_ACCEPTED) => decode_accepted(&mut cur).map(|j| recovered.accepted.push(j)),
                Ok(TAG_BATCH_DONE) => decode_batch(&mut cur).map(|b| recovered.batches.push(b)),
                Ok(TAG_SHED) => decode_shed(&mut cur).map(|s| recovered.shed.push(s)),
                // Only compaction writes state frames, always as the
                // first frame of the rewritten file.
                Ok(TAG_STATE) if first => decode_state(&mut cur).map(|s| recovered.state = Some(s)),
                Ok(TAG_STATE) => Err(WireError::Invalid("state record after the first frame")),
                Ok(_) => Err(WireError::Invalid("unknown record tag")),
                Err(e) => Err(e),
            };
            decoded.map_err(|e| corrupt(format_args!("record: {e}")))?;
            durable_len += wire::frame_len(payload);
        }
        // A frame cut short, or a CRC-broken frame that ends the file,
        // is the append a crash interrupted: dropped. A CRC break with
        // more behind it is damage to data that was durable.
        if stop == Stop::CrcBreak {
            return Err(corrupt("record CRC mismatch before end of journal"));
        }
        let log = FrameLog::open(path, durable_len as u64).map_err(io)?;
        Ok((
            JobJournal {
                log,
                path: path.to_path_buf(),
            },
            recovered,
        ))
    }

    fn append(&mut self, payload: &[u8]) -> Result<(), ReputeError> {
        self.log
            .append(payload)
            .map_err(|e| ReputeError::io_at(&self.path, e))
    }

    /// Journals an accepted job (called before the acceptance response
    /// is sent).
    pub fn record_accepted(&mut self, job: &JobSpec) -> Result<(), ReputeError> {
        self.append(&encode_accepted(job))
    }

    /// Journals a completed batch as one atomic frame.
    pub fn record_batch(&mut self, record: &BatchRecord) -> Result<(), ReputeError> {
        self.append(&encode_batch(record))
    }

    /// Journals a deadline-shed commit (written before the
    /// `DEADLINE_EXCEEDED` responses are sent, so resume re-sheds the
    /// same jobs).
    pub fn record_shed(&mut self, record: &ShedRecord) -> Result<(), ReputeError> {
        self.append(&encode_shed(record))
    }

    /// Rewrites the journal down to its live content: header, one state
    /// frame, and the Accepted records of the still-queued jobs, in
    /// acceptance order. The replacement is written to a sibling file,
    /// fsynced, and atomically renamed over the journal, so a crash at
    /// any point leaves a complete valid journal (either the old one or
    /// the compacted one). The journal stays open for appends.
    ///
    /// # Errors
    ///
    /// [`ReputeError::Io`] on filesystem failures.
    pub fn compact(
        &mut self,
        fingerprint: &RunFingerprint,
        state: &StateRecord,
        live: &[&JobSpec],
    ) -> Result<(), ReputeError> {
        let mut bytes = fingerprint.header(JOURNAL_MAGIC);
        put_frame(&mut bytes, &encode_state(state));
        for job in live {
            put_frame(&mut bytes, &encode_accepted(job));
        }
        write_atomic(&self.path, &bytes)?;
        // The old handle still points at the unlinked pre-compaction
        // inode; reopen so appends land in the compacted file.
        self.log = FrameLog::open(&self.path, bytes.len() as u64)
            .map_err(|e| ReputeError::io_at(&self.path, e))?;
        Ok(())
    }

    /// Current journal size in bytes (compaction ablations assert the
    /// post-compaction bound).
    ///
    /// # Errors
    ///
    /// [`ReputeError::Io`] when the metadata read fails.
    pub fn size_bytes(&self) -> Result<u64, ReputeError> {
        self.log
            .size_bytes()
            .map_err(|e| ReputeError::io_at(&self.path, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repute_prefilter::PrefilterMode;

    fn fp() -> RunFingerprint {
        RunFingerprint {
            config: 1,
            workload: 2,
            shape: 3,
        }
    }

    fn job(seq: u64) -> JobSpec {
        JobSpec {
            seq,
            id: format!("job-{seq}"),
            tenant: "acme".to_string(),
            key: ConfigKey {
                delta: 4,
                prefilter: PrefilterMode::Shd,
                mapper: MapperKind::Repute,
            },
            arrival_s: 0.25 * seq as f64,
            deadline_s: if seq.is_multiple_of(2) {
                Some(3.5)
            } else {
                None
            },
            priority: seq as u32,
            read_ids: vec!["r0".to_string(), "r1".to_string()],
            reads: vec![
                "ACGTACGT".parse().expect("seq"),
                "TTTTACGT".parse().expect("seq"),
            ],
        }
    }

    fn batch(batch: u64) -> BatchRecord {
        BatchRecord {
            batch,
            completion_s: 1.5,
            jobs: vec![JobResult {
                seq: batch,
                mappings: vec![
                    vec![Mapping {
                        position: 7,
                        strand: Strand::Reverse,
                        distance: 2,
                    }],
                    vec![],
                ],
            }],
            lost: vec![2],
            provenance: vec![DeviceProvenance {
                device: 1,
                faults: 3,
                retries: 2,
                migrated: 1,
            }],
        }
    }

    fn state() -> StateRecord {
        StateRecord {
            sim_clock: 12.5,
            next_seq: 9,
            batches: 4,
            accepted: 9,
            completed: 7,
            replayed: 2,
            shed: 1,
            served: vec![("acme".to_string(), 6.5), ("beta".to_string(), 2.0)],
            quota: vec![(5, "acme".to_string(), 11.0, 64)],
            health: vec![(0, 0, 0), (1, 1, 3), (2, 3, 0)],
        }
    }

    #[test]
    fn round_trips_jobs_and_batches() {
        let dir = std::env::temp_dir().join(format!("serve-jnl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("round_trip.jnl");
        {
            let mut j = JobJournal::create(&path, &fp()).expect("create");
            j.record_accepted(&job(0)).expect("job");
            j.record_accepted(&job(1)).expect("job");
            j.record_batch(&batch(0)).expect("batch");
            j.record_shed(&ShedRecord {
                at_s: 2.25,
                seqs: vec![1],
            })
            .expect("shed");
        }
        let (_, recovered) = JobJournal::open(&path, &fp()).expect("open");
        assert_eq!(recovered.accepted, vec![job(0), job(1)]);
        assert_eq!(recovered.batches, vec![batch(0)]);
        assert_eq!(
            recovered.shed,
            vec![ShedRecord {
                at_s: 2.25,
                seqs: vec![1],
            }]
        );
        assert_eq!(recovered.state, None);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let dir = std::env::temp_dir().join(format!("serve-jnl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("torn_tail.jnl");
        {
            let mut j = JobJournal::create(&path, &fp()).expect("create");
            j.record_accepted(&job(0)).expect("job");
            j.record_accepted(&job(1)).expect("job");
        }
        // Chop bytes off the final frame: crash mid-append.
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("write");
        let (mut j, recovered) = JobJournal::open(&path, &fp()).expect("open");
        assert_eq!(recovered.accepted, vec![job(0)]);
        // The truncated journal accepts new appends cleanly.
        j.record_accepted(&job(2)).expect("job");
        drop(j);
        let (_, again) = JobJournal::open(&path, &fp()).expect("reopen");
        assert_eq!(again.accepted, vec![job(0), job(2)]);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn interior_corruption_and_fingerprint_mismatch_are_refused() {
        let dir = std::env::temp_dir().join(format!("serve-jnl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("corrupt.jnl");
        {
            let mut j = JobJournal::create(&path, &fp()).expect("create");
            j.record_accepted(&job(0)).expect("job");
            j.record_accepted(&job(1)).expect("job");
        }
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[40] ^= 0xFF; // flip a byte inside the first frame
        std::fs::write(&path, &bytes).expect("write");
        let err = JobJournal::open(&path, &fp()).expect_err("corrupt");
        assert!(matches!(err, ReputeError::JournalCorrupt { .. }));

        let other = RunFingerprint {
            config: 9,
            workload: 9,
            shape: 9,
        };
        JobJournal::create(&path, &other).expect("recreate");
        let err = JobJournal::open(&path, &fp()).expect_err("mismatch");
        assert!(matches!(err, ReputeError::ResumeMismatch { .. }));
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn compaction_drops_dead_records_and_preserves_state() {
        let dir = std::env::temp_dir().join(format!("serve-jnl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("compact.jnl");
        let mut j = JobJournal::create(&path, &fp()).expect("create");
        for seq in 0..8 {
            j.record_accepted(&job(seq)).expect("job");
        }
        for b in 0..6 {
            j.record_batch(&batch(b)).expect("batch");
        }
        let before = j.size_bytes().expect("size");
        // Jobs 6 and 7 are still live; everything else is dead.
        let live = [job(6), job(7)];
        let live_refs: Vec<&JobSpec> = live.iter().collect();
        j.compact(&fp(), &state(), &live_refs).expect("compact");
        let after = j.size_bytes().expect("size");
        assert!(
            after < before,
            "compaction must shrink the journal ({before} -> {after})"
        );
        // The compacted journal stays appendable.
        j.record_accepted(&job(8)).expect("append after compact");
        drop(j);
        let (_, recovered) = JobJournal::open(&path, &fp()).expect("open");
        assert_eq!(recovered.state, Some(state()));
        assert_eq!(recovered.accepted, vec![job(6), job(7), job(8)]);
        assert!(recovered.batches.is_empty());
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn state_after_the_first_frame_is_refused() {
        let dir = std::env::temp_dir().join(format!("serve-jnl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("late_state.jnl");
        let mut bytes = fp().header(JOURNAL_MAGIC);
        put_frame(&mut bytes, &encode_accepted(&job(0)));
        put_frame(&mut bytes, &encode_state(&state()));
        std::fs::write(&path, &bytes).expect("write");
        let err = JobJournal::open(&path, &fp()).expect_err("late state");
        assert!(matches!(err, ReputeError::JournalCorrupt { .. }));
        std::fs::remove_file(&path).expect("cleanup");
    }

    /// A count forced to `u32::MAX` in an otherwise intact, CRC-valid
    /// frame is corruption, not a request for that much memory — with
    /// the rest of the record behind it or (the 21- and 29-byte frames
    /// that used to abort `--resume`) as the payload's last field.
    #[test]
    fn oversized_counts_are_refused_before_allocating() {
        let dir = std::env::temp_dir().join(format!("serve-jnl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("counts.jnl");
        let shed = ShedRecord {
            at_s: 1.0,
            seqs: vec![3, 4],
        };
        // Each record kind with the offset and honest value of every
        // count field in its payload.
        type Counts = &'static [(usize, u32)];
        let cases: [(&str, Vec<u8>, Counts); 4] = [
            ("accepted", encode_accepted(&job(1)), &[(45, 2)]),
            (
                "batch",
                encode_batch(&batch(0)),
                &[(17, 1), (29, 2), (33, 1), (46, 0), (50, 1), (58, 1)],
            ),
            ("shed", encode_shed(&shed), &[(9, 2)]),
            (
                "state",
                encode_state(&state()),
                &[(57, 2), (93, 1), (129, 3)],
            ),
        ];
        for (kind, payload, counts) in cases {
            for &(at, honest) in counts {
                assert_eq!(
                    payload[at..at + 4],
                    honest.to_le_bytes(),
                    "{kind}: no count at {at}"
                );
                let mut forged = payload.clone();
                forged[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                for payload in [&forged[..], &forged[..at + 4]] {
                    let mut bytes = fp().header(JOURNAL_MAGIC);
                    put_frame(&mut bytes, payload);
                    std::fs::write(&path, &bytes).expect("write");
                    let err = JobJournal::open(&path, &fp()).expect_err("forged count");
                    assert!(
                        matches!(err, ReputeError::JournalCorrupt { .. }),
                        "{kind} count at {at}: {err}"
                    );
                    assert_eq!(err.exit_code(), 5);
                }
            }
        }
        std::fs::remove_file(&path).expect("cleanup");
    }
}
