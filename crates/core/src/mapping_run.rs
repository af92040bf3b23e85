//! What a multi-device launch returns, and its roll-up into a
//! [`RunReport`].

use repute_hetsim::{DeviceRun, EnergyReport, FaultCounters, Platform};
use repute_mappers::engine_costs::{DP_CELL_COST, EXTEND_COST, LOCATE_COST};
use repute_mappers::MapOutput;
use repute_obs::{
    DeviceTimeline, EnergySummary, KernelEvent, MapMetrics, RunReport, Samples, Span, StageLatency,
};

/// Outcome of mapping a read set on a platform.
#[derive(Debug, Clone)]
pub struct MappingRun {
    /// Per-read outputs, in read order.
    pub outputs: Vec<MapOutput>,
    /// Per-device accounting, its batches folded in. `device_runs`,
    /// `timelines` and `fault_counters` follow one rule for every run —
    /// either schedule, any fault plan, zero reads too:
    /// one entry per device of the platform the run was given, whole or a
    /// [`Platform::subset`], in ascending index order, a device that took
    /// no batch included with zero work and an empty timeline.
    pub device_runs: Vec<DeviceRun>,
    /// OpenCL-style profiling events per entry of `device_runs`: one
    /// [`KernelEvent`] per kernel launch (batch), in launch order,
    /// carrying the queued/submitted/start/end timestamps of that
    /// device's command queue — `queued` is the queue's host clock, 0
    /// until a retry backoff advances it. Labels read
    /// `d<device>-batch-<i>`, `device` the device's index and `i` the
    /// batch's index over the whole run
    /// (the `i` of its `batch-<i>` and `checkpoint` spans), followed by
    /// ` [retry xN]` and ` [migrated from dK]` where they apply.
    pub timelines: Vec<Vec<KernelEvent>>,
    /// Simulated completion time: slowest device, batches sequential.
    pub simulated_seconds: f64,
    /// Wall-clock seconds the host spent.
    pub wall_seconds: f64,
    /// §III-D power/energy measurement of the run.
    pub energy: EnergyReport,
    /// Per-device fault accounting, parallel to `device_runs` (all zero
    /// when no fault fired).
    pub fault_counters: Vec<FaultCounters>,
    /// Devices that were permanently lost by the end of the run
    /// (ascending device indices; always empty on a fault-free run).
    /// Long-lived callers use this to retire devices from future
    /// scheduling — a loss escalated from an exhausted retry budget is
    /// visible only here, not in the plan.
    pub lost_devices: Vec<usize>,
    /// Spans recorded when the run was launched with
    /// [`Executor::tracing`](crate::Executor::tracing) set; empty
    /// otherwise. Feed them to
    /// [`repute_obs::trace::write_chrome_trace`] for a `chrome://tracing`
    /// file.
    pub trace: Vec<Span>,
}

/// What pricing and the report keep of one mapped read: its work count
/// and the three terms of the work identity `work = fm_extend·EXTEND +
/// dp_cells·DP + fm_locate·LOCATE + prefilter_words + word_updates` that
/// the report's stage rows split it into.
///
/// `work` is its own word because the identity holds for the REPUTE,
/// CORAL and GEM pipelines but not for every mapper: RazerS 3, Hobbes 3,
/// Yara and BWA-MEM charge work that none of the three terms counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadCharge {
    /// The read's work count, which pricing charges.
    pub work: u64,
    /// Seed selection and location: `fm_extend·EXTEND + dp_cells·DP +
    /// fm_locate·LOCATE`.
    pub filtration: u64,
    /// Words the pre-alignment filter read.
    pub prefilter: u64,
    /// Myers verification word updates.
    pub verification: u64,
}

impl ReadCharge {
    /// The charge of a read that cost `work` and recorded `metrics`.
    pub fn new(work: u64, metrics: &MapMetrics) -> ReadCharge {
        ReadCharge {
            work,
            filtration: metrics.fm_extend_ops * EXTEND_COST
                + metrics.dp_cells * DP_CELL_COST
                + metrics.fm_locate_ops * LOCATE_COST,
            prefilter: metrics.prefilter_words,
            verification: metrics.word_updates,
        }
    }
}

/// A stage of the report: its path, its term of a [`ReadCharge`], and
/// its activations over the run.
type StageRow = (&'static str, fn(&ReadCharge) -> u64, u64);

/// Exact p50/p90/p99 of `values` as a latency row.
fn latency_row(stage: &str, values: &[f64]) -> StageLatency {
    let samples = Samples::from_values(values);
    let (p50, p90, p99) = samples.p50_p90_p99();
    StageLatency {
        stage: stage.to_string(),
        count: samples.count(),
        p50_seconds: p50,
        p90_seconds: p90,
        p99_seconds: p99,
    }
}

impl MappingRun {
    /// Total mappings reported across all reads.
    pub fn total_mappings(&self) -> usize {
        self.outputs.iter().map(|o| o.mappings.len()).sum()
    }

    /// Total substrate work across all devices.
    pub fn total_work(&self) -> u64 {
        self.device_runs.iter().map(|r| r.work).sum()
    }

    /// Rolls the run up into a run-level [`RunReport`] from the per-read
    /// [`MapMetrics`] records in read order, as
    /// [`Executor::run`](crate::Executor::run) returns them: their totals
    /// and charges, through [`report_charges`](MappingRun::report_charges).
    /// Pass an empty slice when only the device timelines matter.
    pub fn report(&self, platform: &Platform, per_read: &[MapMetrics]) -> RunReport {
        let mut totals = MapMetrics::new();
        for m in per_read {
            totals.merge(m);
        }
        // The report reads the three stage terms of a charge, never its
        // work.
        let charges: Vec<ReadCharge> = per_read.iter().map(|m| ReadCharge::new(0, m)).collect();
        self.report_charges(platform, totals, &charges)
    }

    /// Rolls the run up into a run-level [`RunReport`]: the metric
    /// `totals` of its reads, one kernel timeline per entry of
    /// `device_runs`, the §III-D energy measurement, and the run's
    /// simulated seconds decomposed by stage. Devices are looked up by
    /// index, so the run's own platform and any platform it is a subset
    /// of give the same report.
    ///
    /// Each stage — filtration, the pre-alignment filter when it ran,
    /// verification — gets the share of `simulated_seconds` its term of
    /// the work identity has in the total, with its activations (reads,
    /// candidates tested, verifications) as the count; and a latency row
    /// of exact percentiles over each read's share of that time, from
    /// that term of its charge in `charges` (one per read, in read
    /// order). A final `"batch"` latency row holds the kernel durations
    /// across all device timelines. All in simulated time, so the rows
    /// are deterministic.
    pub fn report_charges(
        &self,
        platform: &Platform,
        totals: MapMetrics,
        charges: &[ReadCharge],
    ) -> RunReport {
        let mut rows: Vec<StageRow> =
            vec![("map/filtration", |c| c.filtration, charges.len() as u64)];
        if totals.prefilter_words > 0 {
            rows.push(("map/prefilter", |c| c.prefilter, totals.prefilter_tested));
        }
        rows.push(("map/verification", |c| c.verification, totals.verifications));
        let total = ReadCharge::new(0, &totals);
        let total_work: u64 = rows.iter().map(|(_, term, _)| term(&total)).sum();

        let mut stages = Vec::new();
        let mut latencies = Vec::new();
        if total_work > 0 {
            // A stage's total multiplies before it divides, a read's share
            // divides first: the order of the float operations is part of
            // the report's bytes.
            let scale = self.simulated_seconds / total_work as f64;
            for (stage, term, activations) in rows {
                let seconds = self.simulated_seconds * term(&total) as f64 / total_work as f64;
                stages.push((stage.to_string(), seconds, activations));
                let per_read_seconds: Vec<f64> =
                    charges.iter().map(|c| term(c) as f64 * scale).collect();
                latencies.push(latency_row(stage, &per_read_seconds));
            }
        }
        let batch_seconds: Vec<f64> = self
            .timelines
            .iter()
            .flatten()
            .map(KernelEvent::duration_seconds)
            .collect();
        if !batch_seconds.is_empty() {
            latencies.push(latency_row("batch", &batch_seconds));
        }

        let devices = self
            .device_runs
            .iter()
            .zip(&self.timelines)
            .enumerate()
            .map(|(idx, (dr, events))| {
                let profile = platform
                    .device(dr.device)
                    .expect("the run's devices are on the platform");
                let counters = self.fault_counters.get(idx).copied().unwrap_or_default();
                DeviceTimeline {
                    device: format!("{} [{}]", profile.name(), profile.kind().as_str()),
                    events: events.clone(),
                    retries: counters.retries,
                    faults: counters.faults,
                    migrated_batches: counters.migrated_batches,
                }
            })
            .collect();
        RunReport {
            reads: charges.len() as u64,
            totals,
            stages,
            latencies,
            devices,
            simulated_seconds: self.simulated_seconds,
            wall_seconds: self.wall_seconds,
            resumed_batches: 0,
            energy: Some(EnergySummary {
                mapping_seconds: self.energy.mapping_seconds,
                average_power_w: self.energy.average_power_w,
                idle_power_w: platform.idle_power_w(),
                energy_j: self.energy.energy_j,
            }),
        }
    }
}
