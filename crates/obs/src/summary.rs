//! The one text rendering of telemetry: `repute stats`, the `-v` report
//! of `repute map` and the daemon's shutdown summary are all a
//! [`Summary`] of [`Record`]s, merged and laid out here.

use std::fmt::Write as _;

use crate::metrics::Samples;
use crate::record::{Record, ServeSnapshot};
use crate::slo::SloReport;

/// Telemetry records merged for display.
///
/// Records of any number of runs, cells, daemons and files go in through
/// [`Summary::add`]: `read` counters sum, `job` records pool their
/// latencies, `serve` snapshots sum their counters, `slo` rows sum per
/// tenant, and everything else keeps its place in input order.
#[derive(Debug, Default)]
pub struct Summary {
    reads: u64,
    /// Per-counter sums over the `read` records, in first-seen order.
    read_sums: Vec<(String, u64)>,
    /// The records rendered one by one, in input order.
    body: Vec<Record>,
    jobs: u64,
    jobs_replayed: u64,
    job_reads: u64,
    job_mappings: u64,
    job_latency: Vec<f64>,
    /// Jobs per tenant, in first-seen order.
    tenants: Vec<(String, u64)>,
    snapshots: u64,
    /// The `serve` snapshots merged: counters and simulated seconds
    /// summed, the deepest queue, the latest stated device health.
    serve: ServeSnapshot,
    /// Deadline outcomes summed per tenant, tenant name-sorted.
    slo: Vec<SloReport>,
    /// Input lines that were not telemetry records at all; a reader
    /// that tolerates them counts them here for the closing warning.
    pub skipped: u64,
}

/// The entry of `rows` keyed `key`, appended at zero if new.
fn slot<'a, T: Default>(rows: &'a mut Vec<(String, T)>, key: &str) -> &'a mut T {
    let at = match rows.iter().position(|(name, _)| name == key) {
        Some(at) => at,
        None => {
            rows.push((key.to_string(), T::default()));
            rows.len() - 1
        }
    };
    &mut rows[at].1
}

impl Summary {
    /// The summary of `records`.
    pub fn of(records: impl IntoIterator<Item = Record>) -> Summary {
        let mut summary = Summary::default();
        for record in records {
            summary.add(record);
        }
        summary
    }

    /// Merges one record in.
    pub fn add(&mut self, record: Record) {
        match record {
            Record::Read(_, counters) => {
                self.reads += 1;
                for (name, value) in counters {
                    *slot(&mut self.read_sums, &name) += value;
                }
            }
            Record::Job(job) => {
                self.jobs += 1;
                self.jobs_replayed += u64::from(job.replayed);
                self.job_reads += job.reads;
                self.job_mappings += job.mappings;
                self.job_latency.push(job.latency_s);
                *slot(&mut self.tenants, &job.tenant) += 1;
            }
            Record::Serve(snapshot) => {
                let merged = &mut self.serve;
                self.snapshots += 1;
                merged.counters.merge(snapshot.counters);
                merged.queue_depth_max = merged.queue_depth_max.max(snapshot.queue_depth_max);
                merged.simulated_seconds += snapshot.simulated_seconds;
                // Health is a point-in-time fact, not a counter: the
                // latest snapshot that states it wins.
                merged.devices = snapshot.devices.or(merged.devices);
            }
            Record::Slo(new, _) => {
                let at = self.slo.partition_point(|row| row.tenant < new.tenant);
                match self.slo.get_mut(at).filter(|row| row.tenant == new.tenant) {
                    Some(row) => {
                        row.met += new.met;
                        row.missed += new.missed;
                    }
                    None => self.slo.insert(at, new),
                }
            }
            other => self.body.push(other),
        }
    }

    /// Lays the merged telemetry out as text: read totals, the per-run
    /// records in input order, then the service roll-ups.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_reads(&mut out);
        self.render_body(&mut out);
        self.render_service(&mut out);
        if out.is_empty() && self.skipped == 0 {
            out.push_str("no telemetry records\n");
        }
        if self.skipped > 0 {
            let _ = writeln!(out, "warning: skipped {} malformed line(s)", self.skipped);
        }
        out
    }

    fn render_reads(&self, out: &mut String) {
        let reads = self.reads;
        if reads == 0 {
            return;
        }
        let _ = writeln!(out, "{reads} read records; totals:");
        for (name, sum) in &self.read_sums {
            let per_read = *sum as f64 / reads as f64;
            let _ = writeln!(out, "  {name:<18} {sum:>12}  ({per_read:.1}/read)");
        }
        // Files that predate the prefilter lack its counters; the sums
        // are then zero and the line is left out.
        let sum_of = |name: &str| {
            let found = self.read_sums.iter().find(|(n, _)| n == name);
            found.map_or(0, |(_, sum)| *sum)
        };
        let tested = sum_of("prefilter_tested");
        if tested > 0 {
            let rejected = sum_of("prefilter_rejected");
            let accepted = tested.saturating_sub(rejected);
            let false_accepts = sum_of("prefilter_false_accepts");
            let _ = writeln!(
                out,
                "  prefilter: {rejected}/{tested} candidates rejected ({:.1}%), \
                 {false_accepts} false accepts ({:.1}% of accepts)",
                rejected as f64 / tested as f64 * 100.0,
                false_accepts as f64 / accepted.max(1) as f64 * 100.0,
            );
        }
    }

    fn render_body(&self, out: &mut String) {
        let mut latency_header = false;
        for (at, record) in self.body.iter().enumerate() {
            match record {
                Record::Cell(label) => {
                    let _ = writeln!(out, "cell {label}");
                }
                Record::Run(run) => {
                    // The simulated clock ran only if the run — the
                    // records up to the next run or cell — has a device
                    // timeline or an energy measurement.
                    let simulated = self.body[at + 1..]
                        .iter()
                        .take_while(|r| !matches!(r, Record::Run(_) | Record::Cell(_)))
                        .any(|r| matches!(r, Record::Device(_) | Record::Energy(_)));
                    let _ = write!(out, "run: {} reads | ", run.reads);
                    if simulated {
                        let _ = write!(out, "simulated {:.6} s | ", run.simulated_seconds);
                    }
                    let _ = writeln!(out, "wall {:.3} s", run.wall_seconds);
                    // Provenance only: the read totals cover a resumed
                    // run exactly once.
                    if run.resumed_batches > 0 {
                        let _ = writeln!(
                            out,
                            "  resumed from checkpoint: {} batch(es) \
                             replayed from the journal (not re-executed)",
                            run.resumed_batches,
                        );
                    }
                }
                Record::Stage(path, seconds, count) => {
                    let _ = writeln!(out, "  stage {path:<24} {seconds:>10.6} s  x{count}");
                }
                Record::Latency(lat) => {
                    if !latency_header {
                        let _ = writeln!(
                            out,
                            "  latency percentiles (simulated seconds)\n  {:<24} {:>8} {:>12} {:>12} {:>12}",
                            "population", "n", "p50", "p90", "p99",
                        );
                        latency_header = true;
                    }
                    let _ = writeln!(
                        out,
                        "  {:<24} {:>8} {:>12.9} {:>12.9} {:>12.9}",
                        lat.stage, lat.count, lat.p50_seconds, lat.p90_seconds, lat.p99_seconds,
                    );
                }
                Record::Device(dev) => {
                    let _ = writeln!(
                        out,
                        "  device {:<20} {:>3} launches | busy {:.6} s | util {:>5.1}%",
                        dev.device,
                        dev.launches,
                        dev.busy_seconds,
                        dev.utilization * 100.0,
                    );
                    if dev.faults + dev.retries + dev.migrated_batches > 0 {
                        let _ = writeln!(
                            out,
                            "    faults {} | retries {} | migrated batches {}",
                            dev.faults, dev.retries, dev.migrated_batches,
                        );
                    }
                }
                Record::Event(_, event) => {
                    let _ = writeln!(
                        out,
                        "    {:<14} {:>8} items | queued {:.6} start {:.6} end {:.6}",
                        event.label,
                        event.items,
                        event.queued_seconds,
                        event.start_seconds,
                        event.end_seconds,
                    );
                }
                Record::Energy(e) => {
                    let _ = writeln!(
                        out,
                        "  energy: {:.3} J above idle | avg {:.1} W (idle {:.1} W) over {:.6} s",
                        e.energy_j, e.average_power_w, e.idle_power_w, e.mapping_seconds,
                    );
                }
                other => {
                    let _ = writeln!(out, "({} record)", other.kind());
                }
            }
        }
    }

    fn render_service(&self, out: &mut String) {
        let c = &self.serve.counters;
        if self.snapshots > 0 {
            let _ = writeln!(
                out,
                "serve ({} snapshot(s)): accepted {} | rejected {} | retry-later {} | \
                 quota-exceeded {} | completed {} ({} replayed) | {} batch(es)",
                self.snapshots,
                c.accepted,
                c.rejected,
                c.retry_later,
                c.quota_exceeded,
                c.completed,
                c.replayed,
                c.batches,
            );
            let _ = writeln!(
                out,
                "  compactions {} | connection errors {} | spool skipped {}",
                c.compactions, c.connection_errors, c.spool_skipped,
            );
            if c.shed + c.unavailable + c.faults + c.retries + c.migrated > 0 {
                let _ = writeln!(
                    out,
                    "  shed {} | unavailable {} | faults {} | retries {} | migrated batches {}",
                    c.shed, c.unavailable, c.faults, c.retries, c.migrated,
                );
            }
            if let Some((live, lost @ 1..)) = self.serve.devices {
                let _ = writeln!(out, "  devices live {live} ({lost} lost)");
            }
            let _ = writeln!(
                out,
                "  queue depth high-water {} | simulated {:.6} s",
                self.serve.queue_depth_max, self.serve.simulated_seconds,
            );
        }
        if !self.slo.is_empty() {
            let _ = writeln!(
                out,
                "deadline SLO (trailing window):\n  {:<16} {:>6} {:>6} {:>9}",
                "tenant", "met", "missed", "hit-rate",
            );
            for row in &self.slo {
                let _ = writeln!(
                    out,
                    "  {:<16} {:>6} {:>6} {:>9.3}",
                    row.tenant,
                    row.met,
                    row.missed,
                    row.hit_rate(),
                );
            }
        }
        if self.jobs > 0 {
            let _ = writeln!(
                out,
                "jobs: {} completed ({} replayed) | {} reads | {} mappings",
                self.jobs, self.jobs_replayed, self.job_reads, self.job_mappings,
            );
            for (tenant, n) in &self.tenants {
                let _ = writeln!(out, "  tenant {tenant:<16} {n:>6} job(s)");
            }
            let samples = Samples::from_values(&self.job_latency);
            if !samples.is_empty() {
                let (p50, p90, p99) = samples.p50_p90_p99();
                let _ = writeln!(
                    out,
                    "  job latency (merged, simulated seconds): n={} \
                     p50 {p50:.9} p90 {p90:.9} p99 {p99:.9}",
                    samples.count(),
                );
            }
        }
    }
}
