//! The telemetry schema: every JSON-lines record kind a run, a bench
//! cell or the daemon leaves behind, each defined once.
//!
//! Every writer (`--metrics-out` of `repute map` and `repute serve`, the
//! per-job files of `--metrics-dir`, the bench harness) builds
//! [`Record`]s and emits [`Record::encode`]; every reader (`repute
//! stats`, the `-v` report, the daemon's shutdown summary) goes through
//! [`Record::decode`] and [`crate::Summary`]. A field name appears in
//! this file and nowhere else.

use std::borrow::Cow;

use crate::json::{field, parse_flat_object, JsonObject, JsonValue};
use crate::map_metrics::MapMetrics;
use crate::report::{EnergySummary, KernelEvent, StageLatency};
use crate::slo::SloReport;

/// Monotone service counters, exported in the `serve` telemetry record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Jobs that passed admission (journaled and queued).
    pub accepted: u64,
    /// Jobs permanently refused (over-limit or malformed).
    pub rejected: u64,
    /// Jobs bounced by queue backpressure.
    pub retry_later: u64,
    /// Jobs refused because the tenant's sliding-window read budget was
    /// exhausted.
    pub quota_exceeded: u64,
    /// Jobs whose batch committed (responses produced).
    pub completed: u64,
    /// Completed jobs whose responses were replayed from the journal on
    /// resume instead of re-executed.
    pub replayed: u64,
    /// Scheduler batches committed.
    pub batches: u64,
    /// Journal compactions performed.
    pub compactions: u64,
    /// Client connections dropped after an I/O or protocol failure (the
    /// daemon keeps serving).
    pub connection_errors: u64,
    /// Spool inputs skipped because a response for them already existed
    /// (crash-window idempotence).
    pub spool_skipped: u64,
    /// Queued jobs shed with `DEADLINE_EXCEEDED` (`--shed-overdue`).
    pub shed: u64,
    /// Jobs answered `SERVICE_UNAVAILABLE` (all devices lost).
    pub unavailable: u64,
    /// Device faults observed across all committed batches.
    pub faults: u64,
    /// Kernel retries across all committed batches.
    pub retries: u64,
    /// Batches migrated off a lost device across all committed batches.
    pub migrated: u64,
}

impl ServeCounters {
    /// Field names in declaration (and export) order.
    const NAMES: [&'static str; 15] = [
        "accepted",
        "rejected",
        "retry_later",
        "quota_exceeded",
        "completed",
        "replayed",
        "batches",
        "compactions",
        "connection_errors",
        "spool_skipped",
        "shed",
        "unavailable",
        "faults",
        "retries",
        "migrated",
    ];

    /// Every counter, in the order of [`ServeCounters::NAMES`].
    fn slots(&mut self) -> [&mut u64; 15] {
        [
            &mut self.accepted,
            &mut self.rejected,
            &mut self.retry_later,
            &mut self.quota_exceeded,
            &mut self.completed,
            &mut self.replayed,
            &mut self.batches,
            &mut self.compactions,
            &mut self.connection_errors,
            &mut self.spool_skipped,
            &mut self.shed,
            &mut self.unavailable,
            &mut self.faults,
            &mut self.retries,
            &mut self.migrated,
        ]
    }

    /// Adds every counter of `other` into `self` (snapshots of several
    /// daemons, or of one daemon's several lives, sum).
    pub fn merge(&mut self, mut other: ServeCounters) {
        for (slot, add) in self.slots().into_iter().zip(other.slots()) {
            *slot += *add;
        }
    }
}

/// Telemetry facts of one completed job (the `job` record).
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Acceptance sequence number.
    pub seq: u64,
    /// Client-chosen job id.
    pub id: String,
    /// Tenant the job is accounted to.
    pub tenant: String,
    /// Reads in the job.
    pub reads: u64,
    /// Mappings reported across them.
    pub mappings: u64,
    /// Scheduler batch the job committed in.
    pub batch: u64,
    /// Admission-to-completion latency, simulated seconds.
    pub latency_s: f64,
    /// Whether the response was replayed from the journal on resume.
    pub replayed: bool,
}

/// A point-in-time view of the daemon (the `serve` record).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeSnapshot {
    /// The monotone counters.
    pub counters: ServeCounters,
    /// `(live, lost)` simulated devices; `None` in files written before
    /// the daemon tracked device health.
    pub devices: Option<(u64, u64)>,
    /// Jobs queued at the time of the snapshot.
    pub queue_depth: u64,
    /// Deepest the admission queue ever got.
    pub queue_depth_max: u64,
    /// The daemon's simulated clock.
    pub simulated_seconds: f64,
}

/// The scalar fields of a [`crate::RunReport`] (the `run` record).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunRecord {
    /// Reads mapped.
    pub reads: u64,
    /// Run makespan in simulated seconds.
    pub simulated_seconds: f64,
    /// Host wall-clock seconds.
    pub wall_seconds: f64,
    /// Batches replayed from a checkpoint journal.
    pub resumed_batches: u64,
    /// Sum of the per-read counters.
    pub totals: MapMetrics,
}

/// One device's share of a run (the `device` record): a
/// [`crate::DeviceTimeline`] without its events.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceRecord {
    /// Device label (`"<name> [<kind>]"`).
    pub device: String,
    /// Kernel launches.
    pub launches: u64,
    /// Seconds spent executing kernels.
    pub busy_seconds: f64,
    /// Busy fraction of the run's makespan.
    pub utilization: f64,
    /// Launch retries after transient faults.
    pub retries: u64,
    /// Fault injections that struck the device.
    pub faults: u64,
    /// Batches absorbed from dead devices.
    pub migrated_batches: u64,
}

/// One telemetry line. The variants are the values of the `type` field.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// One read's pipeline counters: the read's index within the run,
    /// then `(counter, value)` in line order. Named rather than a
    /// [`MapMetrics`] so a reader keeps exactly the counters a file
    /// carries — older files lack the prefilter four — in the order it
    /// carries them.
    Read(u64, Vec<(Cow<'static, str>, u64)>),
    /// Bench-harness prefix: the label of the cell the following records
    /// belong to.
    Cell(String),
    /// Run roll-up.
    Run(RunRecord),
    /// One row of a [`crate::StageTimer`] or of the simulated stage
    /// decomposition: `(path, seconds, activations)`, as
    /// [`crate::RunReport::stages`] holds it.
    Stage(String, f64, u64),
    /// Exact percentiles of one population of durations.
    Latency(StageLatency),
    /// One device's roll-up; its [`Record::Event`]s follow it.
    Device(DeviceRecord),
    /// One kernel launch, after the label of the device it ran on (as in
    /// the preceding [`Record::Device`]).
    Event(String, KernelEvent),
    /// The §III-D energy measurement of a simulated run.
    Energy(EnergySummary),
    /// One completed job of the daemon.
    Job(JobRecord),
    /// The daemon's counters and gauges.
    Serve(ServeSnapshot),
    /// One tenant's deadline outcomes over the trailing window, and the
    /// window's length in simulated seconds.
    Slo(SloReport, f64),
    /// A well-formed line of a kind this schema does not define (`"?"`
    /// when it has no `type` at all); readers name it and move on.
    Unknown(String),
}

impl Record {
    /// The `read` record of one read's counters.
    pub fn read(id: u64, metrics: &MapMetrics) -> Record {
        let counters = metrics.fields().map(|(name, value)| (name.into(), value));
        Record::Read(id, counters.into())
    }

    /// The value of the record's `type` field.
    pub fn kind(&self) -> &str {
        match self {
            Record::Read(..) => "read",
            Record::Cell(_) => "cell",
            Record::Run(_) => "run",
            Record::Stage(..) => "stage",
            Record::Latency(_) => "latency",
            Record::Device(_) => "device",
            Record::Event(..) => "event",
            Record::Energy(_) => "energy",
            Record::Job(_) => "job",
            Record::Serve(_) => "serve",
            Record::Slo(..) => "slo",
            Record::Unknown(kind) => kind,
        }
    }

    /// The record as one flat JSON object (no trailing newline).
    pub fn encode(&self) -> String {
        let mut obj = JsonObject::new();
        obj.str_field("type", self.kind());
        match self {
            Record::Read(id, counters) => {
                obj.u64_field("id", *id);
                for (name, value) in counters {
                    obj.u64_field(name, *value);
                }
            }
            Record::Cell(label) => {
                obj.str_field("label", label);
            }
            Record::Run(run) => {
                obj.u64_field("reads", run.reads);
                obj.f64_field("simulated_seconds", run.simulated_seconds);
                obj.f64_field("wall_seconds", run.wall_seconds);
                obj.u64_field("resumed_batches", run.resumed_batches);
                for (name, value) in run.totals.fields() {
                    obj.u64_field(name, value);
                }
            }
            Record::Stage(path, seconds, count) => {
                obj.str_field("path", path);
                obj.f64_field("seconds", *seconds);
                obj.u64_field("count", *count);
            }
            Record::Latency(lat) => {
                obj.str_field("stage", &lat.stage);
                obj.u64_field("count", lat.count);
                obj.f64_field("p50_s", lat.p50_seconds);
                obj.f64_field("p90_s", lat.p90_seconds);
                obj.f64_field("p99_s", lat.p99_seconds);
            }
            Record::Device(dev) => {
                obj.str_field("device", &dev.device);
                obj.u64_field("launches", dev.launches);
                obj.f64_field("busy_seconds", dev.busy_seconds);
                obj.f64_field("utilization", dev.utilization);
                obj.u64_field("retries", dev.retries);
                obj.u64_field("faults", dev.faults);
                obj.u64_field("migrated_batches", dev.migrated_batches);
            }
            Record::Event(device, event) => {
                obj.str_field("device", device);
                obj.str_field("label", &event.label);
                obj.u64_field("items", event.items);
                obj.u64_field("work", event.work);
                obj.f64_field("queued_s", event.queued_seconds);
                obj.f64_field("submitted_s", event.submitted_seconds);
                obj.f64_field("start_s", event.start_seconds);
                obj.f64_field("end_s", event.end_seconds);
            }
            Record::Energy(e) => {
                obj.f64_field("mapping_seconds", e.mapping_seconds);
                obj.f64_field("average_power_w", e.average_power_w);
                obj.f64_field("idle_power_w", e.idle_power_w);
                obj.f64_field("energy_j", e.energy_j);
            }
            Record::Job(job) => {
                obj.u64_field("seq", job.seq);
                obj.str_field("id", &job.id);
                obj.str_field("tenant", &job.tenant);
                obj.u64_field("reads", job.reads);
                obj.u64_field("mappings", job.mappings);
                obj.u64_field("batch", job.batch);
                obj.f64_field("latency_s", job.latency_s);
                obj.bool_field("replayed", job.replayed);
            }
            Record::Serve(snapshot) => {
                let mut counters = snapshot.counters;
                for (name, value) in ServeCounters::NAMES.into_iter().zip(counters.slots()) {
                    obj.u64_field(name, *value);
                }
                if let Some((live, lost)) = snapshot.devices {
                    obj.u64_field("devices_live", live);
                    obj.u64_field("devices_lost", lost);
                }
                obj.u64_field("queue_depth", snapshot.queue_depth);
                obj.u64_field("queue_depth_max", snapshot.queue_depth_max);
                obj.f64_field("simulated_seconds", snapshot.simulated_seconds);
            }
            Record::Slo(row, window_s) => {
                obj.str_field("tenant", &row.tenant);
                obj.u64_field("met", row.met);
                obj.u64_field("missed", row.missed);
                obj.f64_field("hit_rate", row.hit_rate());
                obj.f64_field("window_s", *window_s);
            }
            Record::Unknown(_) => {}
        }
        obj.finish()
    }

    /// Reads one telemetry line back. `None` when the line is not a flat
    /// JSON object; otherwise lenient, because files are concatenated
    /// across versions: a missing string reads as `"?"`, a missing
    /// number as zero, an unknown `type` as [`Record::Unknown`].
    pub fn decode(line: &str) -> Option<Record> {
        let fields = parse_flat_object(line)?;
        let opt_int = |key: &str| field(&fields, key).and_then(JsonValue::as_u64);
        let opt_num = |key: &str| field(&fields, key).and_then(JsonValue::as_f64);
        let int = |key: &str| opt_int(key).unwrap_or(0);
        let num = |key: &str| opt_num(key).unwrap_or(0.0);
        let text = |key: &str| {
            let value = field(&fields, key).and_then(JsonValue::as_str);
            value.unwrap_or("?").to_string()
        };
        let numbered = || {
            let numbers = fields
                .iter()
                .filter(|(key, _)| key != "type" && key != "id");
            numbers.filter_map(|(key, value)| Some((key.as_str(), value.as_u64()?)))
        };
        Some(match text("type").as_str() {
            "read" => {
                let counters = numbered().map(|(name, value)| (name.to_string().into(), value));
                Record::Read(int("id"), counters.collect())
            }
            "cell" => Record::Cell(text("label")),
            "run" => {
                let mut totals = MapMetrics::new();
                for (name, value) in numbered() {
                    totals.set_field(name, value);
                }
                Record::Run(RunRecord {
                    reads: int("reads"),
                    simulated_seconds: num("simulated_seconds"),
                    wall_seconds: num("wall_seconds"),
                    resumed_batches: int("resumed_batches"),
                    totals,
                })
            }
            "stage" => Record::Stage(text("path"), num("seconds"), int("count")),
            "latency" => Record::Latency(StageLatency {
                stage: text("stage"),
                count: int("count"),
                p50_seconds: num("p50_s"),
                p90_seconds: num("p90_s"),
                p99_seconds: num("p99_s"),
            }),
            "device" => Record::Device(DeviceRecord {
                device: text("device"),
                launches: int("launches"),
                busy_seconds: num("busy_seconds"),
                utilization: num("utilization"),
                retries: int("retries"),
                faults: int("faults"),
                migrated_batches: int("migrated_batches"),
            }),
            "event" => {
                let event = KernelEvent {
                    label: text("label"),
                    items: int("items"),
                    work: int("work"),
                    queued_seconds: num("queued_s"),
                    submitted_seconds: num("submitted_s"),
                    start_seconds: num("start_s"),
                    end_seconds: num("end_s"),
                };
                Record::Event(text("device"), event)
            }
            "energy" => Record::Energy(EnergySummary {
                mapping_seconds: num("mapping_seconds"),
                average_power_w: num("average_power_w"),
                idle_power_w: num("idle_power_w"),
                energy_j: num("energy_j"),
            }),
            "job" => Record::Job(JobRecord {
                seq: int("seq"),
                id: text("id"),
                tenant: text("tenant"),
                reads: int("reads"),
                mappings: int("mappings"),
                batch: int("batch"),
                // Not zero: a job without a latency is left out of the
                // pooled percentiles, which ignore non-finite samples.
                latency_s: opt_num("latency_s").unwrap_or(f64::NAN),
                replayed: field(&fields, "replayed") == Some(&JsonValue::Bool(true)),
            }),
            "serve" => {
                let mut counters = ServeCounters::default();
                for (name, slot) in ServeCounters::NAMES.into_iter().zip(counters.slots()) {
                    *slot = int(name);
                }
                Record::Serve(ServeSnapshot {
                    counters,
                    devices: opt_int("devices_live").zip(opt_int("devices_lost")),
                    queue_depth: int("queue_depth"),
                    queue_depth_max: int("queue_depth_max"),
                    simulated_seconds: num("simulated_seconds"),
                })
            }
            // `hit_rate` is derived: written for other readers, not read.
            "slo" => {
                let row = SloReport {
                    tenant: text("tenant"),
                    met: int("met"),
                    missed: int("missed"),
                };
                Record::Slo(row, num("window_s"))
            }
            other => Record::Unknown(other.to_string()),
        })
    }
}
