//! Run-level telemetry roll-up and its export formats.

use std::io::{self, Write};

use crate::map_metrics::MapMetrics;
use crate::record::{DeviceRecord, Record, RunRecord};

/// One simulated kernel launch with OpenCL-style event timestamps.
///
/// The four timestamps mirror `clGetEventProfilingInfo`:
/// `CL_PROFILING_COMMAND_QUEUED` (host enqueued the command), `SUBMIT`
/// (driver handed it to the device), `START` and `END` (device
/// execution). Invariant: `queued ≤ submitted ≤ start ≤ end`.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelEvent {
    /// Human-readable launch label (e.g. `"batch-0"`).
    pub label: String,
    /// Work-items in the launch.
    pub items: u64,
    /// Abstract work units the launch performed.
    pub work: u64,
    /// Simulated seconds when the host enqueued the command.
    pub queued_seconds: f64,
    /// Simulated seconds when the command reached the device queue.
    pub submitted_seconds: f64,
    /// Simulated seconds when the device began executing.
    pub start_seconds: f64,
    /// Simulated seconds when the device finished.
    pub end_seconds: f64,
}

impl KernelEvent {
    /// Device execution time (`end − start`).
    pub fn duration_seconds(&self) -> f64 {
        self.end_seconds - self.start_seconds
    }

    /// Time spent waiting between enqueue and execution start.
    pub fn queue_wait_seconds(&self) -> f64 {
        self.start_seconds - self.queued_seconds
    }
}

/// Kernel timeline of one device over a run.
///
/// Event labels carry per-batch device attribution: the multi-device
/// executor names each launch `d{device}-batch-{index}`, the index
/// counting batches over the whole run under either schedule — so a run
/// shows exactly which device took which slice of the read set.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeviceTimeline {
    /// Device name (e.g. `"intel-hd-620"`).
    pub device: String,
    /// Launches in execution order.
    pub events: Vec<KernelEvent>,
    /// Launch retries performed after transient faults (0 on a
    /// fault-free run).
    pub retries: u64,
    /// Fault injections that struck this device: transients consumed,
    /// plus one if the device was permanently lost.
    pub faults: u64,
    /// Batches this device absorbed from dead devices (failover).
    pub migrated_batches: u64,
}

impl DeviceTimeline {
    /// Seconds the device spent executing kernels.
    pub fn busy_seconds(&self) -> f64 {
        // + 0.0 normalizes the empty sum, which is -0.0 (std's f64 Sum
        // folds from the additive identity -0.0) — a lost device with no
        // launches would otherwise report "busy -0.000000 s".
        self.events
            .iter()
            .map(KernelEvent::duration_seconds)
            .sum::<f64>()
            + 0.0
    }

    /// End of the last event (0.0 with no events).
    pub fn span_seconds(&self) -> f64 {
        self.events
            .iter()
            .map(|e| e.end_seconds)
            .fold(0.0, f64::max)
    }

    /// Busy fraction of this device relative to `run_seconds` (the
    /// run-level makespan); 0.0 for an idle device or empty run.
    pub fn utilization(&self, run_seconds: f64) -> f64 {
        if run_seconds <= 0.0 {
            0.0
        } else {
            self.busy_seconds() / run_seconds
        }
    }
}

/// Energy summary mirroring `repute-hetsim`'s `EnergyReport` (§III-D):
/// `energy_j = (average_power_w − idle_power_w) × mapping_seconds`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergySummary {
    /// Simulated makespan of the mapping run.
    pub mapping_seconds: f64,
    /// Mean platform draw over the run, idle floor included.
    pub average_power_w: f64,
    /// The platform's idle floor.
    pub idle_power_w: f64,
    /// Active (above-idle) energy in joules.
    pub energy_j: f64,
}

/// Exact latency percentiles for one population of durations — a
/// pipeline stage's per-read seconds, or the per-batch kernel
/// durations (row `"batch"`). Computed with [`crate::Samples`]
/// (nearest-rank), so each percentile is an observed value and
/// `p50 ≤ p90 ≤ p99` always holds.
#[derive(Debug, Clone, PartialEq)]
pub struct StageLatency {
    /// Population name: a stage path (`"map/filtration"`) or `"batch"`.
    pub stage: String,
    /// Samples in the population.
    pub count: u64,
    /// 50th percentile, simulated seconds.
    pub p50_seconds: f64,
    /// 90th percentile, simulated seconds.
    pub p90_seconds: f64,
    /// 99th percentile, simulated seconds.
    pub p99_seconds: f64,
}

/// Everything measured over one mapping run.
///
/// Derives `PartialEq` so the crash/resume harness can assert a resumed
/// run's report bit-identical to an uninterrupted one (after zeroing the
/// host-clock `wall_seconds` and the provenance `resumed_batches`
/// fields — see DESIGN.md §14).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Reads mapped.
    pub reads: u64,
    /// Sum of per-read [`MapMetrics`].
    pub totals: MapMetrics,
    /// `(path, seconds, activations)` from a [`crate::StageTimer`].
    pub stages: Vec<(String, f64, u64)>,
    /// Exact per-stage and per-batch latency percentiles.
    pub latencies: Vec<StageLatency>,
    /// Per-device kernel timelines.
    pub devices: Vec<DeviceTimeline>,
    /// Run makespan in simulated seconds (max over devices).
    pub simulated_seconds: f64,
    /// Host wall-clock seconds actually spent.
    pub wall_seconds: f64,
    /// Batches replayed from a checkpoint journal instead of recomputed
    /// (0 for an uninterrupted run). Provenance only: replayed batches
    /// are never double-counted in `totals` or the timelines.
    pub resumed_batches: u64,
    /// Energy summary, when the run was simulated on a platform.
    pub energy: Option<EnergySummary>,
}

impl RunReport {
    /// The report as telemetry records: one `run` record, then `stage`,
    /// `latency`, `device` (each followed by its `event`s) and `energy`
    /// records.
    pub fn records(&self) -> Vec<Record> {
        let mut records = vec![Record::Run(RunRecord {
            reads: self.reads,
            simulated_seconds: self.simulated_seconds,
            wall_seconds: self.wall_seconds,
            resumed_batches: self.resumed_batches,
            totals: self.totals,
        })];
        let stages = self.stages.iter().cloned();
        records.extend(stages.map(|(path, seconds, count)| Record::Stage(path, seconds, count)));
        records.extend(self.latencies.iter().cloned().map(Record::Latency));
        for dev in &self.devices {
            records.push(Record::Device(DeviceRecord {
                device: dev.device.clone(),
                launches: dev.events.len() as u64,
                busy_seconds: dev.busy_seconds(),
                utilization: dev.utilization(self.simulated_seconds),
                retries: dev.retries,
                faults: dev.faults,
                migrated_batches: dev.migrated_batches,
            }));
            for event in &dev.events {
                records.push(Record::Event(dev.device.clone(), event.clone()));
            }
        }
        records.extend(self.energy.map(Record::Energy));
        records
    }

    /// Writes [`RunReport::records`] as JSON-lines.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn write_json_lines<W: Write>(&self, out: &mut W) -> io::Result<()> {
        for record in self.records() {
            writeln!(out, "{}", record.encode())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{field, parse_flat_object};
    use crate::Summary;

    fn sample() -> RunReport {
        RunReport {
            reads: 2,
            totals: MapMetrics {
                seeds_selected: 6,
                hits: 2,
                ..MapMetrics::new()
            },
            stages: vec![("map".into(), 0.5, 2)],
            latencies: vec![
                StageLatency {
                    stage: "map/filtration".into(),
                    count: 2,
                    p50_seconds: 0.125,
                    p90_seconds: 0.25,
                    p99_seconds: 0.25,
                },
                StageLatency {
                    stage: "batch".into(),
                    count: 2,
                    p50_seconds: 1.0,
                    p90_seconds: 1.0,
                    p99_seconds: 1.0,
                },
            ],
            devices: vec![DeviceTimeline {
                device: "cpu".into(),
                events: vec![
                    KernelEvent {
                        label: "batch-0".into(),
                        items: 10,
                        work: 100,
                        queued_seconds: 0.0,
                        submitted_seconds: 0.0,
                        start_seconds: 0.0,
                        end_seconds: 1.0,
                    },
                    KernelEvent {
                        label: "batch-1".into(),
                        items: 10,
                        work: 100,
                        queued_seconds: 0.0,
                        submitted_seconds: 0.0,
                        start_seconds: 1.0,
                        end_seconds: 2.0,
                    },
                ],
                retries: 1,
                faults: 2,
                migrated_batches: 3,
            }],
            simulated_seconds: 2.5,
            wall_seconds: 0.01,
            resumed_batches: 4,
            energy: Some(EnergySummary {
                mapping_seconds: 2.5,
                average_power_w: 4.0,
                idle_power_w: 2.0,
                energy_j: 5.0,
            }),
        }
    }

    #[test]
    fn empty_timeline_busy_is_positive_zero() {
        // Dead devices produce empty timelines; their busy time must
        // serialize as 0.0, not the empty f64 sum's -0.0.
        let dev = DeviceTimeline::default();
        assert_eq!(dev.busy_seconds().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn timeline_accounting() {
        let report = sample();
        let dev = &report.devices[0];
        assert_eq!(dev.busy_seconds(), 2.0);
        assert_eq!(dev.span_seconds(), 2.0);
        assert_eq!(dev.utilization(report.simulated_seconds), 0.8);
        assert_eq!(dev.events[1].queue_wait_seconds(), 1.0);
    }

    /// The report as `-v` prints it: its records, after one `read`
    /// record, through the one renderer.
    fn rendered(report: &RunReport) -> String {
        let reads = std::iter::once(Record::read(0, &report.totals));
        Summary::of(reads.chain(report.records())).render()
    }

    #[test]
    fn render_mentions_everything() {
        let text = rendered(&sample());
        for needle in [
            "run: 2 reads | simulated 2.500000 s | wall 0.010 s",
            "seeds_selected",
            "batch-1",
            "util",
            "J above idle",
            "faults 2 | retries 1 | migrated batches 3",
            "resumed from checkpoint: 4 batch(es)",
            "latency percentiles",
            "map/filtration",
            "p99",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert_eq!(text.matches("latency percentiles").count(), 1, "{text}");
        // Fault counters stay silent on a fault-free device, and the
        // resume line stays silent on an uninterrupted run.
        let mut clean = sample();
        clean.resumed_batches = 0;
        let dev = &mut clean.devices[0];
        (dev.retries, dev.faults, dev.migrated_batches) = (0, 0, 0);
        assert!(!rendered(&clean).contains("faults"));
        assert!(!rendered(&clean).contains("resumed from checkpoint"));
        // A run that was not simulated shows no simulated clock.
        let host_only = RunReport {
            devices: Vec::new(),
            energy: None,
            ..sample()
        };
        let text = rendered(&host_only);
        assert!(text.contains("run: 2 reads | wall 0.010 s"), "{text}");
        assert!(!text.contains("simulated 2.5"), "{text}");
    }

    #[test]
    fn json_lines_parse_back() {
        let mut buf = Vec::new();
        sample().write_json_lines(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut types = Vec::new();
        for line in text.lines() {
            let fields = parse_flat_object(line).expect("every line parses");
            types.push(
                field(&fields, "type")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string(),
            );
            if types.last().map(String::as_str) == Some("event") {
                let start = field(&fields, "start_s").unwrap().as_f64().unwrap();
                let end = field(&fields, "end_s").unwrap().as_f64().unwrap();
                assert!(end >= start);
            }
        }
        assert_eq!(
            types,
            vec!["run", "stage", "latency", "latency", "device", "event", "event", "energy"]
        );
    }

    #[test]
    fn json_round_trip_reconstructs_the_report() {
        // Every record of the report decodes back to itself, including
        // the retries/faults/migrated_batches fault fields and the
        // resumed_batches provenance counter.
        let records = sample().records();
        let decoded: Vec<Record> = records
            .iter()
            .map(|r| Record::decode(&r.encode()).expect("own output decodes"))
            .collect();
        assert_eq!(decoded, records);
        assert!(matches!(decoded[0], Record::Run(run) if run.resumed_batches == 4));
    }
}
