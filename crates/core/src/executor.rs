//! The executor: one multi-device launch, written once.
//!
//! "Unlike state-of-the-art mappers, REPUTE distributes the workload on
//! CPU and GPU, as per user specification, executing the work-items in
//! task-parallel fashion" (§III-B). An [`Executor`] runs any [`Mapper`]
//! over a read set in three stages:
//!
//! 1. **plan** — the [`Schedule`] is cut into contiguous batches, none
//!    needing more output memory than a quarter of its device's RAM
//!    ("run the kernel multiple times with smaller read sets", §IV);
//! 2. **execute** — every read is mapped on the host, in parallel.
//!    Outputs, metrics and work counts do not depend on which device is
//!    later charged for a read, so nothing below can change them;
//! 3. **place** — the batches are laid, from the work counts alone, on
//!    one command queue per device armed with the [`FaultPlan`]: a batch
//!    goes to the device its share names, or, when it has none or that
//!    device has died, to the surviving device that frees earliest (ties
//!    to the lower index). An empty plan is the fault-free case.
//!
//! [`Executor::run`] is stage 2 ([`execute_batches`]) followed by
//! [`Executor::price`], stages 1 and 3 over the work counts alone, so a
//! caller that maps its reads a chunk at a time through stage 2 keeps
//! one [`ReadCharge`] per read and prices the run at the end.
//!
//! Placement is sequential arithmetic over the counts of stage 2, so
//! `simulated_seconds`, timelines, energy and traces are the same for
//! every host-thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use repute_genome::DnaSeq;
use repute_hetsim::{
    CommandQueue, DeviceRun, FaultCounters, FaultPlan, LaunchError, LaunchErrorKind, Platform,
    Share,
};
use repute_mappers::{MapOutput, Mapper};
use repute_obs::trace::{Span, SCHEDULER_PID};
use repute_obs::{KernelEvent, MapMetrics};

use crate::config::{output_slot_bytes, ScheduleMode, DEFAULT_MAX_RETRIES};
use crate::mapping_run::{MappingRun, ReadCharge};

/// `host_threads` value meaning "let the executor decide": one thread
/// per host core.
pub const AUTO_HOST_THREADS: usize = 0;

/// Batch granularity target of [`Schedule::Dynamic`]'s auto batch size:
/// enough batches per device for greedy pulling to balance a skewed
/// workload, without drowning the timeline in micro-launches.
const DYNAMIC_BATCHES_PER_DEVICE: usize = 8;

/// How the executor distributes reads over the platform's devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Schedule {
    /// A fixed contiguous run of reads per [`Share`] entry — the paper's
    /// "as per user specification" distribution.
    Static(Vec<Share>),
    /// Reads are carved into quarter-RAM-capped batches that devices pull
    /// from a shared queue greedily, in a deterministic event-driven
    /// simulated-time order (earliest-free device first, ties to the
    /// lower device index).
    Dynamic {
        /// Maximum reads per batch. `0` picks automatically: about eight
        /// batches per device, further capped by the smallest device's
        /// quarter-RAM output limit.
        batch: usize,
    },
}

impl Schedule {
    /// The schedule `mode` selects for mapping `items` reads on
    /// `platform`: throughput-proportional static shares, or dynamic
    /// batching at the automatic batch size.
    pub fn for_mode(mode: ScheduleMode, platform: &Platform, items: usize) -> Schedule {
        match mode {
            ScheduleMode::Static => Schedule::Static(platform.even_shares(items)),
            ScheduleMode::Dynamic => Schedule::Dynamic { batch: 0 },
        }
    }
}

/// Computes a workload distribution proportional to each device's
/// *effective* throughput for this mapper's kernel — nominal throughput
/// times the occupancy its private-memory footprint allows.
///
/// [`Platform::even_shares`] splits by nominal throughput only; for
/// footprint-heavy kernels (small `S_min`) that overloads the GPUs, which
/// is why the paper's Fig. 3 sweep and §IV insist the distribution "should
/// be performed judiciously". The rounding remainder is spread
/// largest-fraction-first ([`repute_hetsim::apportion`]), so the shares
/// always sum to `items`.
pub fn balanced_shares<M: Mapper>(
    mapper: &M,
    platform: &Platform,
    read_len: usize,
    items: usize,
) -> Vec<Share> {
    let footprint = mapper.kernel_private_bytes(read_len);
    let effective: Vec<f64> = platform
        .devices()
        .iter()
        .map(|d| d.throughput() * d.occupancy(footprint))
        .collect();
    repute_hetsim::apportion(items, &effective)
        .into_iter()
        .zip(platform.devices())
        .map(|(items, device)| Share {
            device: device.index(),
            items,
        })
        .collect()
}

/// Maps `reads` with `mapper` under the static distribution `shares` —
/// the paper's multi-device launch in one call, for callers that set
/// nothing else. Shorthand for [`Executor::run`] on
/// [`Schedule::Static`], with its errors.
pub fn map_on_platform_with_metrics<M: Mapper>(
    mapper: &M,
    platform: &Platform,
    shares: &[Share],
    reads: &[DnaSeq],
) -> Result<(MappingRun, Vec<MapMetrics>), LaunchError> {
    Executor::new(Schedule::Static(shares.to_vec())).run(mapper, platform, reads)
}

/// One multi-device launch: how to split the reads, how much of the host
/// to use, which faults to inject, and whether to record spans.
///
/// A run places on exactly the platform it is handed — a whole platform
/// or a [`Platform::subset`] of one, on a simulated clock of its own
/// starting at zero — and names every device by its index
/// ([`DeviceProfile::index`](repute_hetsim::DeviceProfile::index)):
/// static shares, the fault plan, device runs, lost devices, timeline
/// labels and trace lanes alike.
///
/// Mapping output and per-read metrics are identical for every setting
/// of every field; only the simulated schedule (and the host's wall
/// clock) changes. Whenever at least one device survives the fault plan,
/// that includes the plan: faults move `simulated_seconds`, timelines
/// and energy, never results.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use repute_core::{Executor, ReputeConfig, ReputeMapper, Schedule};
/// use repute_genome::synth::ReferenceBuilder;
/// use repute_hetsim::profiles;
/// use repute_mappers::IndexedReference;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let reference = ReferenceBuilder::new(30_000).seed(1).build();
/// let reads = vec![reference.subseq(100..200), reference.subseq(5_000..5_100)];
/// let indexed = Arc::new(IndexedReference::build(reference));
/// let mapper = ReputeMapper::new(indexed, ReputeConfig::new(3, 15)?);
/// let platform = profiles::system1();
///
/// let executor = Executor {
///     host_threads: 1,
///     ..Executor::new(Schedule::Dynamic { batch: 1 })
/// };
/// let (run, metrics) = executor.run(&mapper, &platform, &reads)?;
/// assert_eq!(run.outputs.len(), 2);
/// assert_eq!(metrics.len(), 2);
/// assert!(run.simulated_seconds > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Executor {
    /// How reads are distributed over devices.
    pub schedule: Schedule,
    /// Host threads mapping reads: [`AUTO_HOST_THREADS`] lets the
    /// executor decide — one per host core, never more than there are
    /// reads, under either schedule (reads are mapped one job each,
    /// whatever the batches); `1` maps on the caller's thread.
    pub host_threads: usize,
    /// Faults to inject, in device indices; it may name any device of the
    /// root platform, and events for devices the run's platform does not
    /// hold are ignored. Transient
    /// launch failures are retried with exponential simulated backoff,
    /// batches of a lost device fail over to the survivors
    /// earliest-free-first, degraded devices run slower. The empty plan
    /// (the default) arms nothing and goes through the same placement, so
    /// an event that never fires changes nothing a run reports.
    pub faults: FaultPlan,
    /// Retries per launch before a transient fault is escalated to the
    /// loss of its device: a launch failing transiently is retried after
    /// an exponential simulated backoff up to this many times, then its
    /// device is lost and its batches fail over to the survivors. `0`
    /// escalates every transient fault at once. Only consulted when a
    /// fault plan is armed; [`DEFAULT_MAX_RETRIES`] by default.
    pub max_retries: usize,
    /// Record a [`Span`] per kernel launch, batch lifecycle, fault, retry
    /// and migration into [`MappingRun::trace`]. A disabled
    /// run builds no spans at all, and tracing never changes anything
    /// else.
    pub tracing: bool,
}

impl Executor {
    /// An executor for `schedule` with every other field at its default:
    /// automatic host threads, no faults, the default retry budget, no
    /// tracing.
    pub fn new(schedule: Schedule) -> Executor {
        Executor {
            schedule,
            host_threads: AUTO_HOST_THREADS,
            faults: FaultPlan::new(),
            max_retries: DEFAULT_MAX_RETRIES,
            tracing: false,
        }
    }

    /// Maps `reads` with `mapper` on `platform`, returning the run and
    /// the per-read [`MapMetrics`] records (in read order) that
    /// [`MappingRun::report`] takes: stage 2 ([`execute_batches`]), then
    /// [`price`](Executor::price) over the work counts it returns.
    ///
    /// # Errors
    ///
    /// Those of [`price`](Executor::price), raised once the reads are
    /// mapped. An empty read set (with or without shares) is a valid,
    /// zero-energy run.
    pub fn run<M: Mapper>(
        &self,
        mapper: &M,
        platform: &Platform,
        reads: &[DnaSeq],
    ) -> Result<(MappingRun, Vec<MapMetrics>), LaunchError> {
        let start = Instant::now();
        let (mut outputs, mut metrics) = (Vec::new(), Vec::new());
        execute_batches(mapper, reads, self.host_threads, &mut outputs, &mut metrics);
        let charges: Vec<ReadCharge> = outputs
            .iter()
            .zip(&metrics)
            .map(|(o, m)| ReadCharge::new(o.work, m))
            .collect();
        let max_read_len = reads.iter().map(DnaSeq::len).max().unwrap_or(0);
        let mut run = self.price(mapper, platform, &charges, max_read_len)?;
        run.outputs = outputs;
        run.wall_seconds = start.elapsed().as_secs_f64();
        Ok((run, metrics))
    }

    /// Stages 1 and 3 from work counts alone: plans `charges.len()` reads
    /// into batches and places them on `platform`, read `i` costing
    /// `charges[i].work` and the kernel's private memory sized for reads
    /// of `max_read_len` bases. The run it returns has every field but
    /// [`outputs`](MappingRun::outputs), which stays empty, and its
    /// `wall_seconds` is the placement's alone. A caller that streams its
    /// reads through [`execute_batches`] keeps one [`ReadCharge`] per
    /// read, prices the run once the stream ends and hands the same
    /// charges to [`MappingRun::report_charges`].
    ///
    /// # Errors
    ///
    /// An invalid-distribution [`LaunchError`] when static shares are
    /// missing, name an unknown device or do not cover exactly
    /// `charges.len()` items; when one read's output exceeds a device's
    /// quarter-RAM cap; or when the fault plan names a device the root
    /// platform does not have.
    /// [`LaunchErrorKind::AllDevicesLost`], naming the unplaced read
    /// range, when no device survives the plan.
    pub fn price<M: Mapper>(
        &self,
        mapper: &M,
        platform: &Platform,
        charges: &[ReadCharge],
        max_read_len: usize,
    ) -> Result<MappingRun, LaunchError> {
        let work = Work {
            per_read: charges,
            private_bytes: mapper.kernel_private_bytes(max_read_len),
        };
        self.faults.check(platform)?;
        let start = Instant::now();
        let bytes_per_read = output_slot_bytes(mapper.max_locations());
        let batches = plan_batches(&self.schedule, platform, bytes_per_read, charges.len())?;
        let placed = self.place(platform, &batches, &work)?;
        Ok(assemble(platform, start, Vec::new(), placed))
    }

    /// The errors of [`price`](Executor::price) that depend on no read:
    /// a fault plan naming a device the root platform does not have, and
    /// a device of the run's platform that cannot hold one read's
    /// output. A caller that streams its reads makes these checks before
    /// the first; `price` makes them again, the last only for the devices
    /// a batch lands on.
    ///
    /// # Errors
    ///
    /// An invalid-distribution [`LaunchError`], as `price` raises it.
    pub fn preflight<M: Mapper>(&self, mapper: &M, platform: &Platform) -> Result<(), LaunchError> {
        self.faults.check(platform)?;
        let bytes_per_read = output_slot_bytes(mapper.max_locations());
        if platform.max_batch_items(bytes_per_read) == 0 {
            return Err(too_big(bytes_per_read, "the smallest device"));
        }
        Ok(())
    }

    /// Stage 3 — lays `batches` on one command queue per device of
    /// `platform`, each armed with its device's part of the fault plan
    /// (nothing, for the empty plan). Static batches go to the device
    /// their share names; dynamic batches, and then in batch order the
    /// static ones whose device died, go to the earliest-free survivor.
    fn place(
        &self,
        platform: &Platform,
        batches: &[Batch],
        work: &Work<'_>,
    ) -> Result<Placement, LaunchError> {
        let devices = platform.devices();
        let mut state = self.faults.state(platform.root_devices());
        let queues = devices.iter().map(|device| {
            let queue =
                CommandQueue::new(device).with_fault_state(state.take_device(device.index()));
            if self.tracing {
                queue.with_tracing()
            } else {
                queue
            }
        });
        let mut fleet = Fleet {
            executor: self,
            work,
            queues: queues.collect(),
            dead: vec![false; devices.len()],
            placed: Placement::default(),
        };
        let last_read = batches.last().map_or(0, |b| b.hi);

        let mut orphans: Vec<(usize, usize)> = Vec::new();
        for (batch_idx, b) in batches.iter().enumerate() {
            match b.owner {
                None => {
                    if !fleet.launch_on_survivor(batch_idx, b, None)? {
                        return Err(fleet.all_lost(b.lo, last_read));
                    }
                }
                Some(owner) => {
                    if fleet.dead[owner] || !fleet.launch(owner, batch_idx, b, None)? {
                        orphans.push((batch_idx, owner));
                    }
                }
            }
        }
        for (i, &(batch_idx, owner)) in orphans.iter().enumerate() {
            if !fleet.launch_on_survivor(batch_idx, &batches[batch_idx], Some(owner))? {
                let unplaced = orphans[i..].iter().map(|&(idx, _)| &batches[idx]);
                let lo = unplaced.clone().map(|b| b.lo).min().expect("non-empty");
                let hi = unplaced.map(|b| b.hi).max().expect("non-empty");
                return Err(fleet.all_lost(lo, hi));
            }
        }

        let Fleet {
            queues,
            dead,
            mut placed,
            ..
        } = fleet;
        for (queue, dead) in queues.into_iter().zip(dead) {
            placed.retire(queue, dead);
        }
        Ok(placed)
    }
}

/// The fault-armed devices of one run, and what has been placed on them.
/// A device is named here by its position on the run's platform, and by
/// its index ([`CommandQueue::device_index`]) in what the run reports.
struct Fleet<'a, 'p> {
    executor: &'a Executor,
    work: &'a Work<'a>,
    queues: Vec<CommandQueue<'p>>,
    dead: Vec<bool>,
    placed: Placement,
}

impl Fleet<'_, '_> {
    /// The error that ends a run whose devices all died, leaving reads
    /// `lo..hi` unplaced; it carries what struck each device, as a
    /// finished run reports it.
    fn all_lost(&self, lo: usize, hi: usize) -> LaunchError {
        let counters = self.queues.iter();
        let counters = counters.map(|queue| (queue.device_index(), queue.fault_counters()));
        LaunchError::all_devices_lost(lo, hi).with_fault_counters(counters.collect())
    }

    /// Launches `b` on `dev`, marking it migrated when it had an earlier
    /// home. `Ok(false)` when the device is lost instead — from now on it
    /// counts as dead.
    fn launch(
        &mut self,
        dev: usize,
        batch_idx: usize,
        b: &Batch,
        migrated_from: Option<usize>,
    ) -> Result<bool, LaunchError> {
        let migrated_from = migrated_from.map(|from| self.queues[from].device_index());
        let queue = &mut self.queues[dev];
        let label = format!("d{}-batch-{batch_idx}", queue.device_index());
        match queue.launch(
            &label,
            b.hi - b.lo,
            self.work.of_batch(b),
            self.work.private_bytes,
            self.executor.max_retries,
        ) {
            Ok(()) => {
                if let Some(from) = migrated_from {
                    queue.annotate_last(&format!("migrated from d{from}"));
                    queue.note_migration();
                }
                self.placed
                    .note_batch(queue, batch_idx, b, self.executor.tracing);
                Ok(true)
            }
            Err(err) if matches!(err.kind(), LaunchErrorKind::DeviceLost { .. }) => {
                self.dead[dev] = true;
                Ok(false)
            }
            Err(err) => Err(err),
        }
    }

    /// Launches `b` on the surviving device whose next launch could start
    /// earliest (ties to the lower index), moving on while devices die
    /// under it; its home for the migration mark is `from`, or else the
    /// first device that died under it. `Ok(false)` when no device is
    /// left.
    fn launch_on_survivor(
        &mut self,
        batch_idx: usize,
        b: &Batch,
        mut from: Option<usize>,
    ) -> Result<bool, LaunchError> {
        loop {
            let survivors = (0..self.queues.len()).filter(|&d| !self.dead[d]);
            let earliest = survivors.reduce(|best, d| {
                if self.queues[d].next_start_seconds() < self.queues[best].next_start_seconds() {
                    d
                } else {
                    best
                }
            });
            let Some(dev) = earliest else {
                return Ok(false);
            };
            if self.launch(dev, batch_idx, b, from)? {
                return Ok(true);
            }
            from.get_or_insert(dev);
        }
    }
}

/// The error of a read whose output slot no batch on `device` can hold.
fn too_big(bytes_per_read: usize, device: &str) -> LaunchError {
    LaunchError::from_message(format!(
        "one read's output ({bytes_per_read} bytes) exceeds the quarter-RAM cap of {device}"
    ))
}

/// One kernel launch: the contiguous reads `lo..hi` and, under a static
/// schedule, the position on the platform of the device the user's
/// distribution assigned them to (`None` in dynamic mode — the scheduler
/// places the batch).
#[derive(Debug)]
struct Batch {
    lo: usize,
    hi: usize,
    owner: Option<usize>,
}

/// Stage 1 — cuts `n_reads` reads into batches under `schedule`, in read
/// order, so concatenating batch results restores read order wherever
/// stage 3 places them. A static share is split at its device's
/// quarter-RAM output cap; a dynamic batch must fit the smallest device,
/// because the scheduler is free to place it anywhere.
fn plan_batches(
    schedule: &Schedule,
    platform: &Platform,
    bytes_per_read: usize,
    n_reads: usize,
) -> Result<Vec<Batch>, LaunchError> {
    let devices = platform.devices();
    let mut batches = Vec::new();
    let mut cut = |items: usize, max_batch: usize, owner: Option<usize>| {
        let end = batches.last().map_or(0, |b: &Batch| b.hi) + items;
        let mut lo = end - items;
        while lo < end {
            let hi = end.min(lo + max_batch);
            batches.push(Batch { lo, hi, owner });
            lo = hi;
        }
    };
    match schedule {
        Schedule::Static(shares) => {
            // Emptiness is checked before coverage, so an empty
            // distribution is reported as such — and accepted outright
            // for an empty read set.
            if shares.is_empty() && n_reads > 0 {
                return Err(LaunchError::from_message("no shares supplied"));
            }
            let mut owners = Vec::with_capacity(shares.len());
            for share in shares {
                let Some(owner) = devices.iter().position(|d| d.index() == share.device) else {
                    let held: Vec<String> = devices.iter().map(|d| d.index().to_string()).collect();
                    return Err(LaunchError::from_message(format!(
                        "device index {} is not on this platform (its devices are {})",
                        share.device,
                        held.join(", ")
                    )));
                };
                owners.push(owner);
            }
            let covered: usize = shares.iter().map(|s| s.items).sum();
            if covered != n_reads {
                return Err(LaunchError::from_message(format!(
                    "shares cover {covered} items but {n_reads} reads were supplied"
                )));
            }
            for (share, &owner) in shares.iter().zip(&owners).filter(|(s, _)| s.items > 0) {
                let cap = devices[owner].max_items(bytes_per_read);
                if cap == 0 {
                    return Err(too_big(bytes_per_read, devices[owner].name()));
                }
                cut(share.items, cap, Some(owner));
            }
        }
        Schedule::Dynamic { batch } if n_reads > 0 => {
            let cap = platform.max_batch_items(bytes_per_read);
            if cap == 0 {
                return Err(too_big(bytes_per_read, "the smallest device"));
            }
            let auto = n_reads.div_ceil(DYNAMIC_BATCHES_PER_DEVICE * devices.len());
            let wanted = if *batch == 0 { auto } else { *batch };
            cut(n_reads, wanted.clamp(1, cap), None);
        }
        Schedule::Dynamic { .. } => {}
    }
    Ok(batches)
}

/// Stage 2 — maps every read of `reads`, appending to `outputs` and
/// `metrics` in read order, on `host_threads` host threads as
/// [`Executor::host_threads`] reads it. One job per read, so host threads
/// stay balanced whatever the batch shape; the batches only matter to
/// stage 3. Outputs and metrics are the same for every thread count.
pub fn execute_batches<M: Mapper>(
    mapper: &M,
    reads: &[DnaSeq],
    host_threads: usize,
    outputs: &mut Vec<MapOutput>,
    metrics: &mut Vec<MapMetrics>,
) {
    let workers = worker_count(host_threads, host_parallelism(), reads.len());
    let mapped = run_jobs(reads.len(), workers, |i| {
        let mut m = MapMetrics::new();
        (mapper.map_read_metered(&reads[i], &mut m), m)
    });
    outputs.reserve(mapped.len());
    metrics.reserve(mapped.len());
    for (out, m) in mapped {
        outputs.push(out);
        metrics.push(m);
    }
}

/// What stage 3 knows about stage 2: each read's work count and the
/// kernel's private-memory footprint (which sets GPU occupancy).
struct Work<'a> {
    per_read: &'a [ReadCharge],
    private_bytes: usize,
}

impl Work<'_> {
    fn of_batch(&self, b: &Batch) -> u64 {
        self.per_read[b.lo..b.hi].iter().map(|c| c.work).sum()
    }
}

/// Stage 3's result: the per-device halves of a [`MappingRun`].
#[derive(Default)]
struct Placement {
    device_runs: Vec<DeviceRun>,
    timelines: Vec<Vec<KernelEvent>>,
    fault_counters: Vec<FaultCounters>,
    lost_devices: Vec<usize>,
    trace: Vec<Span>,
}

impl Placement {
    /// Records the batch `queue` just launched.
    fn note_batch(&mut self, queue: &CommandQueue<'_>, batch_idx: usize, b: &Batch, tracing: bool) {
        if tracing {
            let event = queue.events().last().expect("a launch records an event");
            self.trace
                .push(batch_span(batch_idx, b, queue.device_index(), event));
        }
    }

    /// Folds a finished queue in as the next entry.
    fn retire(&mut self, mut queue: CommandQueue<'_>, dead: bool) {
        if dead || queue.is_lost_now() {
            self.lost_devices.push(queue.device_index());
        }
        self.device_runs.push(DeviceRun {
            device: queue.device_index(),
            items: queue.events().iter().map(|e| e.items as usize).sum(),
            work: queue.total_work(),
            simulated_seconds: queue.finish_seconds(),
        });
        self.fault_counters.push(queue.fault_counters());
        self.trace.extend(queue.take_trace());
        self.timelines.push(queue.into_events());
    }
}

/// The scheduler-side batch-lifecycle span of a placed batch: it lives
/// on [`SCHEDULER_PID`], one lane (`tid`) per device, and carries the
/// batch index, read range, and placement as args.
fn batch_span(index: usize, b: &Batch, dev: usize, event: &KernelEvent) -> Span {
    Span::new(
        format!("batch-{index}"),
        "batch",
        SCHEDULER_PID,
        event.queued_seconds,
        event.end_seconds,
    )
    .on_tid(dev as u32)
    .arg_u64("batch", index as u64)
    .arg_u64("lo", b.lo as u64)
    .arg_u64("hi", b.hi as u64)
    .arg_u64("device", dev as u64)
}

/// Folds stage 2's outputs and stage 3's placement into a run: bottleneck
/// completion time, host wall clock, §III-D energy.
fn assemble(
    platform: &Platform,
    start: Instant,
    outputs: Vec<MapOutput>,
    placed: Placement,
) -> MappingRun {
    let simulated_seconds = placed
        .device_runs
        .iter()
        .map(|r| r.simulated_seconds)
        .fold(0.0f64, f64::max);
    MappingRun {
        outputs,
        energy: platform.measure_energy(&placed.device_runs, simulated_seconds),
        device_runs: placed.device_runs,
        timelines: placed.timelines,
        simulated_seconds,
        wall_seconds: start.elapsed().as_secs_f64(),
        fault_counters: placed.fault_counters,
        lost_devices: placed.lost_devices,
        trace: placed.trace,
    }
}

/// The host's core count, asked of the OS once per process: std reads
/// the cgroup files again on every call (≈ 7 µs), and
/// [`execute_batches`] runs once per daemon round and per 64-read chunk
/// of `repute map`.
fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Resolves a `host_threads` request against a job count: `auto` is what
/// [`AUTO_HOST_THREADS`] stands for, and there is never a point in more
/// workers than jobs.
fn worker_count(host_threads: usize, auto: usize, jobs: usize) -> usize {
    let requested = if host_threads == AUTO_HOST_THREADS {
        auto
    } else {
        host_threads
    };
    requested.min(jobs).max(1)
}

/// Runs `job(0..jobs)` on up to `workers` scoped host threads, returning
/// results in job order regardless of completion order. A single worker
/// runs inline on the caller's thread — the sequential-host baseline.
fn run_jobs<R: Send>(jobs: usize, workers: usize, job: impl Fn(usize) -> R + Sync) -> Vec<R> {
    if workers <= 1 || jobs <= 1 {
        return (0..jobs).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let collected = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= jobs {
                            break local;
                        }
                        local.push((idx, job(idx)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("executor worker panicked"))
            .collect::<Vec<_>>()
    });
    let mut slots: Vec<Option<R>> = Vec::with_capacity(jobs);
    slots.resize_with(jobs, || None);
    for (idx, r) in collected.into_iter().flatten() {
        slots[idx] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every job completes"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use repute_genome::reads::ReadSimulator;
    use repute_genome::synth::ReferenceBuilder;
    use repute_hetsim::profiles;
    use repute_mappers::IndexedReference;

    use crate::{ReputeConfig, ReputeMapper};

    fn executor(schedule: &Schedule, host_threads: usize) -> Executor {
        Executor {
            host_threads,
            ..Executor::new(schedule.clone())
        }
    }

    fn setup() -> (ReputeMapper, Vec<DnaSeq>) {
        let reference = ReferenceBuilder::new(40_000).seed(101).build();
        let reads: Vec<DnaSeq> = ReadSimulator::new(100, 24)
            .seed(103)
            .simulate(&reference)
            .into_iter()
            .map(|r| r.seq)
            .collect();
        let indexed = Arc::new(IndexedReference::build(reference));
        let mapper = ReputeMapper::new(indexed, ReputeConfig::new(3, 15).unwrap());
        (mapper, reads)
    }

    #[test]
    fn outputs_in_read_order_across_devices() {
        let (mapper, reads) = setup();
        let platform = profiles::system1();
        let shares = vec![
            Share {
                device: 0,
                items: 10,
            },
            Share {
                device: 1,
                items: 8,
            },
            Share {
                device: 2,
                items: 6,
            },
        ];
        let (run, _) = map_on_platform_with_metrics(&mapper, &platform, &shares, &reads).unwrap();
        assert_eq!(run.outputs.len(), 24);
        // Every output matches a single-device rerun of the same read.
        for (read, out) in reads.iter().zip(&run.outputs) {
            assert_eq!(mapper.map_read(read).mappings, out.mappings);
        }
        assert!(run.total_mappings() > 0);
        assert!(run.energy.energy_j > 0.0);
    }

    #[test]
    fn metered_run_produces_timelines_and_consistent_report() {
        use repute_mappers::engine_costs::{DP_CELL_COST, EXTEND_COST, LOCATE_COST};

        let (mapper, reads) = setup();
        let platform = profiles::system1();
        let shares = vec![
            Share {
                device: 0,
                items: 10,
            },
            Share {
                device: 1,
                items: 8,
            },
            Share {
                device: 2,
                items: 6,
            },
        ];
        let (run, metrics) =
            map_on_platform_with_metrics(&mapper, &platform, &shares, &reads).unwrap();
        assert_eq!(metrics.len(), reads.len());
        assert_eq!(run.timelines.len(), platform.devices().len());
        // Every per-read record decomposes that read's work scalar.
        for (m, out) in metrics.iter().zip(&run.outputs) {
            assert_eq!(
                m.work_units(EXTEND_COST, DP_CELL_COST, LOCATE_COST),
                out.work
            );
        }
        // Timeline invariants: ordered timestamps, and (with zero launch
        // overhead) busy time and work adding up to the device accounting.
        for (dr, events) in run.device_runs.iter().zip(&run.timelines) {
            assert!(!events.is_empty());
            for e in events {
                assert!(e.queued_seconds <= e.submitted_seconds);
                assert!(e.submitted_seconds <= e.start_seconds);
                assert!(e.start_seconds <= e.end_seconds);
            }
            let busy: f64 = events.iter().map(KernelEvent::duration_seconds).sum();
            assert!((busy - dr.simulated_seconds).abs() < 1e-12);
            assert_eq!(events.iter().map(|e| e.work).sum::<u64>(), dr.work);
        }
        // The roll-up folds totals and energy consistently.
        let report = run.report(&platform, &metrics);
        assert_eq!(report.reads, reads.len() as u64);
        assert_eq!(report.devices.len(), platform.devices().len());
        let mut totals = repute_obs::MapMetrics::new();
        for m in &metrics {
            totals.merge(m);
        }
        assert_eq!(report.totals, totals);
        let energy = report.energy.expect("platform run carries energy");
        let from_power = (energy.average_power_w - energy.idle_power_w) * energy.mapping_seconds;
        assert!(
            (energy.energy_j - from_power).abs() <= 1e-9 * energy.energy_j.max(1.0),
            "energy summary broke the (P - P_idle) x T identity"
        );
    }

    #[test]
    fn report_derives_stage_totals_from_metrics() {
        let (mapper, reads) = setup();
        let platform = profiles::system1();
        let (run, metrics) = map_on_platform_with_metrics(
            &mapper,
            &platform,
            &platform.even_shares(reads.len()),
            &reads,
        )
        .unwrap();
        let report = run.report(&platform, &metrics);
        // Stage timings are no longer dropped: filtration + verification
        // (no prefilter configured) partition the simulated seconds.
        assert!(!report.stages.is_empty(), "stages must be derived");
        let paths: Vec<&str> = report.stages.iter().map(|(p, _, _)| p.as_str()).collect();
        assert!(paths.contains(&"map/filtration"));
        assert!(paths.contains(&"map/verification"));
        assert!(!paths.contains(&"map/prefilter"), "prefilter is off");
        let stage_sum: f64 = report.stages.iter().map(|(_, s, _)| s).sum();
        assert!(
            (stage_sum - run.simulated_seconds).abs() <= 1e-9 * run.simulated_seconds,
            "stage seconds {stage_sum} must partition simulated {}",
            run.simulated_seconds
        );
    }

    #[test]
    fn share_coverage_is_validated() {
        let (mapper, reads) = setup();
        let platform = profiles::system1();
        let bad = vec![Share {
            device: 0,
            items: 5,
        }];
        assert!(map_on_platform_with_metrics(&mapper, &platform, &bad, &reads).is_err());
        let bad_dev = vec![Share {
            device: 7,
            items: 24,
        }];
        assert!(map_on_platform_with_metrics(&mapper, &platform, &bad_dev, &reads).is_err());
    }

    #[test]
    fn empty_shares_with_reads_report_missing_shares() {
        // Regression: the coverage check used to run first, yielding a
        // misleading "shares cover 0 items" error.
        let (mapper, reads) = setup();
        let platform = profiles::system1();
        let err = map_on_platform_with_metrics(&mapper, &platform, &[], &reads).unwrap_err();
        assert!(
            err.to_string().contains("no shares supplied"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn empty_reads_with_empty_shares_yield_empty_run() {
        let (mapper, _) = setup();
        let platform = profiles::system1();
        let (run, metrics) = map_on_platform_with_metrics(&mapper, &platform, &[], &[])
            .expect("zero reads with zero shares is a valid empty run");
        assert!(run.outputs.is_empty());
        assert!(metrics.is_empty());
        assert_eq!(run.simulated_seconds, 0.0);
        assert_eq!(run.energy.energy_j, 0.0);
        assert_eq!(run.energy.average_power_w, platform.idle_power_w());
        // Dynamic mode accepts the empty read set too.
        let (dyn_run, dyn_metrics) = executor(&Schedule::Dynamic { batch: 0 }, 1)
            .run(&mapper, &platform, &[])
            .expect("empty dynamic run");
        assert!(dyn_run.outputs.is_empty() && dyn_metrics.is_empty());
        assert_eq!(dyn_run.energy, run.energy);
        // Either way every device is listed, idle.
        for run in [&run, &dyn_run] {
            let listed: Vec<usize> = run.device_runs.iter().map(|r| r.device).collect();
            assert_eq!(listed, [0, 1, 2]);
            assert!(run.device_runs.iter().all(|r| r.items == 0 && r.work == 0));
            assert_eq!(run.timelines, vec![Vec::new(); 3]);
            assert_eq!(run.fault_counters, vec![FaultCounters::default(); 3]);
        }
    }

    #[test]
    fn shares_naming_one_device_run_back_to_back_on_its_queue() {
        let (mapper, reads) = setup();
        let platform = profiles::system1();
        let share = |device, items| Share { device, items };
        let split = [share(1, 10), share(0, 6), share(1, 8)];
        let (run, _) = map_on_platform_with_metrics(&mapper, &platform, &split, &reads).unwrap();
        // One timeline for device 1, holding both its shares' launches.
        assert_eq!(run.timelines.len(), 3);
        let gpu = &run.timelines[1];
        assert_eq!(
            gpu.iter().map(|e| e.label.as_str()).collect::<Vec<_>>(),
            ["d1-batch-0", "d1-batch-2"]
        );
        assert_eq!((gpu[0].items, gpu[1].items), (10, 8));
        assert_eq!(gpu[0].start_seconds, 0.0);
        assert_eq!(gpu[1].start_seconds, gpu[0].end_seconds);
        assert!(run.timelines[2].is_empty());
        // The device's time is the sum of its batch times; it is the
        // bottleneck here.
        let busy: f64 = gpu.iter().map(KernelEvent::duration_seconds).sum();
        assert_eq!(run.device_runs[1].simulated_seconds, gpu[1].end_seconds);
        assert!((busy - gpu[1].end_seconds).abs() < 1e-12);
        assert_eq!(run.simulated_seconds, gpu[1].end_seconds);
        assert_eq!(run.device_runs[1].items, 18);
    }

    #[test]
    fn a_sub_platform_run_names_its_devices_by_platform_index() {
        let (mapper, reads) = setup();
        let platform = profiles::system1();
        let sub = platform.subset(&[0, 2]);
        let executor = Executor {
            faults: FaultPlan::new().loss(1, 0.0).transient(2, 0.0),
            tracing: true,
            ..executor(&Schedule::Static(sub.even_shares(reads.len())), 1)
        };
        let (run, metrics) = executor.run(&mapper, &sub, &reads).unwrap();
        let listed: Vec<usize> = run.device_runs.iter().map(|r| r.device).collect();
        assert_eq!(listed, [0, 2]);
        assert!(run.timelines[1]
            .iter()
            .all(|e| e.label.starts_with("d2-batch-")));
        assert_eq!(run.fault_counters[1].retries, 1, "device 2's transient");
        assert!(
            run.lost_devices.is_empty(),
            "device 1 is not on the sub-platform"
        );
        // The root platform and the sub-platform report the same bytes.
        let bytes = |on: &Platform| {
            let mut report = run.report(on, &metrics);
            report.wall_seconds = 0.0;
            let mut out = Vec::new();
            report.write_json_lines(&mut out).unwrap();
            out
        };
        assert_eq!(bytes(&platform), bytes(&sub));
    }

    #[test]
    fn many_small_shares_preserve_order() {
        // One read per share, round-robin over devices: exercises the
        // prefix-sum offsets and the thread pool with jobs ≫ devices.
        // Each device's eight shares land on its one timeline.
        let (mapper, reads) = setup();
        let platform = profiles::system1();
        let shares: Vec<Share> = (0..reads.len())
            .map(|i| Share {
                device: i % 3,
                items: 1,
            })
            .collect();
        let (run, _) = map_on_platform_with_metrics(&mapper, &platform, &shares, &reads).unwrap();
        for (read, out) in reads.iter().zip(&run.outputs) {
            assert_eq!(mapper.map_read(read).mappings, out.mappings);
        }
        let per_device: Vec<usize> = run.timelines.iter().map(Vec::len).collect();
        assert_eq!(per_device, [8, 8, 8]);
    }

    #[test]
    fn offloading_to_gpus_reduces_completion_time() {
        // The shape of the paper's Fig. 3: moving reads from the CPU to
        // the GPUs shortens the bottleneck, up to a point.
        let (mapper, reads) = setup();
        let platform = profiles::system1();
        let (cpu_only, _) = map_on_platform_with_metrics(
            &mapper,
            &platform,
            &platform.single_device_share(0, reads.len()),
            &reads,
        )
        .unwrap();
        let shares = platform.even_shares(reads.len());
        let (spread, _) =
            map_on_platform_with_metrics(&mapper, &platform, &shares, &reads).unwrap();
        assert!(
            spread.simulated_seconds < cpu_only.simulated_seconds,
            "spread {} !< cpu {}",
            spread.simulated_seconds,
            cpu_only.simulated_seconds
        );
    }

    #[test]
    fn balanced_shares_beat_even_shares_for_heavy_kernels() {
        let reference = ReferenceBuilder::new(60_000).seed(205).build();
        let reads: Vec<DnaSeq> = ReadSimulator::new(100, 32)
            .seed(206)
            .simulate(&reference)
            .into_iter()
            .map(|r| r.seq)
            .collect();
        let indexed = Arc::new(IndexedReference::build(reference));
        // Small S_min → heavy kernel → reduced GPU occupancy.
        let mapper = ReputeMapper::new(Arc::clone(&indexed), ReputeConfig::new(4, 12).unwrap());
        let platform = profiles::system1();
        let (even, _) = map_on_platform_with_metrics(
            &mapper,
            &platform,
            &platform.even_shares(reads.len()),
            &reads,
        )
        .expect("valid");
        let balanced = balanced_shares(&mapper, &platform, 100, reads.len());
        assert_eq!(balanced.iter().map(|s| s.items).sum::<usize>(), reads.len());
        let (run, _) =
            map_on_platform_with_metrics(&mapper, &platform, &balanced, &reads).expect("valid");
        // The balanced split must not be worse; with per-read work noise
        // allow a small tolerance.
        assert!(
            run.simulated_seconds <= even.simulated_seconds * 1.05,
            "balanced {} vs even {}",
            run.simulated_seconds,
            even.simulated_seconds
        );
        // It assigns the GPUs less than the nominal-throughput split does.
        let even_gpu: usize = platform.even_shares(reads.len())[1..]
            .iter()
            .map(|s| s.items)
            .sum();
        let balanced_gpu: usize = balanced[1..].iter().map(|s| s.items).sum();
        assert!(balanced_gpu <= even_gpu, "{balanced_gpu} > {even_gpu}");
    }

    #[test]
    fn balanced_shares_cover_small_and_empty_read_sets() {
        let (mapper, _) = setup();
        let platform = profiles::system1();
        for items in [0usize, 1, 2, 5] {
            let shares = balanced_shares(&mapper, &platform, 100, items);
            assert_eq!(
                shares.iter().map(|s| s.items).sum::<usize>(),
                items,
                "shares must sum to {items}"
            );
        }
    }

    #[test]
    fn gpu_occupancy_penalises_small_s_min_kernels() {
        // The §IV mechanism: a small S_min inflates the kernel's private
        // footprint, dropping GPU occupancy — simulated seconds per work
        // unit rise even though the algorithmic work is what it is.
        let reference = ReferenceBuilder::new(60_000).seed(202).build();
        let reads: Vec<DnaSeq> = ReadSimulator::new(100, 16)
            .seed(203)
            .simulate(&reference)
            .into_iter()
            .map(|r| r.seq)
            .collect();
        let indexed = Arc::new(IndexedReference::build(reference));
        let gpu_only = Platform::new("gpu", 10.0, vec![profiles::gtx590()]);

        let seconds_per_work = |s_min: usize| -> f64 {
            let mapper =
                ReputeMapper::new(Arc::clone(&indexed), ReputeConfig::new(4, s_min).unwrap());
            let (run, _) = map_on_platform_with_metrics(
                &mapper,
                &gpu_only,
                &gpu_only.single_device_share(0, reads.len()),
                &reads,
            )
            .expect("valid shares");
            run.simulated_seconds / run.total_work() as f64
        };
        let heavy = seconds_per_work(12);
        let light = seconds_per_work(20);
        assert!(
            heavy > light * 1.1,
            "occupancy effect missing: {heavy} vs {light} s/unit"
        );

        // The CPU is occupancy-insensitive: identical seconds per unit.
        let cpu_only = profiles::system1_cpu_only();
        let cpu_seconds_per_work = |s_min: usize| -> f64 {
            let mapper =
                ReputeMapper::new(Arc::clone(&indexed), ReputeConfig::new(4, s_min).unwrap());
            let (run, _) = map_on_platform_with_metrics(
                &mapper,
                &cpu_only,
                &cpu_only.single_device_share(0, reads.len()),
                &reads,
            )
            .expect("valid shares");
            run.simulated_seconds / run.total_work() as f64
        };
        let a = cpu_seconds_per_work(12);
        let b = cpu_seconds_per_work(20);
        assert!((a - b).abs() / a < 1e-9, "cpu must be occupancy-flat");
    }

    fn sizes(batches: &[Batch]) -> Vec<usize> {
        batches.iter().map(|b| b.hi - b.lo).collect()
    }

    #[test]
    fn static_shares_are_cut_at_the_quarter_ram_cap() {
        let gpu_only = Platform::new("gpu", 10.0, vec![profiles::gtx590()]);
        // A read whose output is 64 MiB forces small batches on a 1.5 GB
        // card (cap 384 MiB → 6 reads per launch).
        let shares = gpu_only.single_device_share(0, 20);
        let batches = plan_batches(&Schedule::Static(shares), &gpu_only, 64 << 20, 20).unwrap();
        assert_eq!(sizes(&batches), [6, 6, 6, 2]);
        assert!(batches.iter().all(|b| b.owner == Some(0)));
        assert_eq!((batches[0].lo, batches[3].hi), (0, 20));
        let none = plan_batches(&Schedule::Static(vec![]), &gpu_only, 100, 0).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn a_share_naming_a_device_off_the_sub_platform_names_the_ones_on_it() {
        let sub = profiles::system1().subset(&[0, 2]);
        let shares = vec![Share {
            device: 1,
            items: 4,
        }];
        let err = plan_batches(&Schedule::Static(shares), &sub, 12, 4).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid launch distribution: device index 1 is not on this platform \
             (its devices are 0, 2)"
        );
    }

    #[test]
    fn dynamic_batches_are_uniform_with_a_remainder() {
        let platform = profiles::system1();
        let plan = |batch, n| plan_batches(&Schedule::Dynamic { batch }, &platform, 12, n).unwrap();
        assert_eq!(sizes(&plan(4, 10)), [4, 4, 2]);
        assert!(plan(4, 0).is_empty());
        assert_eq!(sizes(&plan(100, 3)), [3]);
        assert!(plan(4, 10).iter().all(|b| b.owner.is_none()));
        // Auto: about eight batches per device.
        assert_eq!(plan(0, 48).len(), 24);
    }

    /// A read whose output no device can hold is a typed error under
    /// every way of launching — never a panic.
    #[test]
    fn a_read_too_big_for_a_device_is_a_typed_error_on_every_path() {
        let (mapper, reads) = setup();
        // A device whose quarter-RAM cap is half a read.
        let small = repute_hetsim::DeviceProfile::new(
            "small",
            repute_hetsim::DeviceKind::Gpu,
            2,
            1e6,
            mapper.max_locations() * 12 * 2,
            1.0,
        );
        let platform = Platform::new("small-sys", 1.0, vec![small]);
        for schedule in [
            Schedule::Static(platform.single_device_share(0, reads.len())),
            Schedule::Dynamic { batch: 0 },
        ] {
            let plain = executor(&schedule, 1);
            let faulted = Executor {
                faults: FaultPlan::new().transient(0, 0.0),
                ..plain.clone()
            };
            for executor in [&plain, &faulted] {
                let err = executor.run(&mapper, &platform, &reads).unwrap_err();
                assert_eq!(err.kind(), &LaunchErrorKind::InvalidDistribution);
                assert!(err.to_string().contains("quarter-RAM cap"), "{err}");
                // …and before a read is mapped, for a caller that streams.
                let err = executor.preflight(&mapper, &platform).unwrap_err();
                assert_eq!(err.kind(), &LaunchErrorKind::InvalidDistribution);
                assert!(err.to_string().contains("quarter-RAM cap"), "{err}");
            }
        }
    }

    #[test]
    fn batched_share_time_adds_up() {
        let (mapper, reads) = setup();
        // A tiny device: memory so small every read is its own batch.
        let tiny = repute_hetsim::DeviceProfile::new(
            "tiny",
            repute_hetsim::DeviceKind::Gpu,
            2,
            1e6,
            mapper.max_locations() * 12 * 8, // two reads per quarter-RAM
            1.0,
        );
        let platform = Platform::new("tiny-sys", 1.0, vec![tiny]);
        let (run, _) = map_on_platform_with_metrics(
            &mapper,
            &platform,
            &platform.single_device_share(0, reads.len()),
            &reads,
        )
        .unwrap();
        assert_eq!(run.outputs.len(), reads.len());
        assert!(run.simulated_seconds > 0.0);
    }

    #[test]
    fn dynamic_schedule_matches_static_output_and_is_deterministic() {
        let (mapper, reads) = setup();
        let platform = profiles::system1();
        let (reference_run, reference_metrics) = map_on_platform_with_metrics(
            &mapper,
            &platform,
            &platform.even_shares(reads.len()),
            &reads,
        )
        .unwrap();
        let mut by_batch: Vec<(usize, f64, Vec<Vec<KernelEvent>>)> = Vec::new();
        for (batch, host_threads) in [(0usize, 0usize), (0, 1), (3, 2), (3, 0), (5, 4)] {
            let (run, metrics) = executor(&Schedule::Dynamic { batch }, host_threads)
                .run(&mapper, &platform, &reads)
                .unwrap();
            // Output invariance: mapping output and per-read metrics are
            // byte-identical to the static run, in read order.
            assert_eq!(run.outputs.len(), reference_run.outputs.len());
            for (a, b) in run.outputs.iter().zip(&reference_run.outputs) {
                assert_eq!(a.mappings, b.mappings);
            }
            assert_eq!(metrics, reference_metrics);
            // One timeline per platform device, back-to-back events.
            assert_eq!(run.timelines.len(), platform.devices().len());
            for events in &run.timelines {
                for pair in events.windows(2) {
                    assert_eq!(pair[1].start_seconds, pair[0].end_seconds);
                }
            }
            by_batch.push((batch, run.simulated_seconds, run.timelines));
        }
        // Determinism: identical batch size ⇒ bit-identical simulated
        // schedule, whatever the host thread count.
        assert_eq!(by_batch[0].1, by_batch[1].1);
        assert_eq!(by_batch[0].2, by_batch[1].2);
        assert_eq!(by_batch[2].1, by_batch[3].1);
        assert_eq!(by_batch[2].2, by_batch[3].2);
    }

    #[test]
    fn dynamic_schedule_balances_skewed_workloads() {
        // A deliberately imbalanced read set: the heaviest read repeated
        // over the first half, the lightest over the second. Static even
        // shares on two identical devices pin the whole heavy half on
        // device 0; greedy batch pulling interleaves them.
        let (mapper, reads) = setup();
        let per_read_work: Vec<u64> = reads.iter().map(|r| mapper.map_read(r).work).collect();
        let heavy_idx = (0..reads.len()).max_by_key(|&i| per_read_work[i]).unwrap();
        let light_idx = (0..reads.len()).min_by_key(|&i| per_read_work[i]).unwrap();
        assert!(
            per_read_work[heavy_idx] > per_read_work[light_idx],
            "workload must have distinct per-read work for this test"
        );
        let n = 24usize;
        let mut skewed: Vec<DnaSeq> = Vec::with_capacity(n);
        for _ in 0..n / 2 {
            skewed.push(reads[heavy_idx].clone());
        }
        for _ in 0..n / 2 {
            skewed.push(reads[light_idx].clone());
        }
        let duo = Platform::new(
            "duo",
            1.0,
            vec![profiles::intel_i7_2600(), profiles::intel_i7_2600()],
        );
        let (static_run, _) = executor(&Schedule::Static(duo.even_shares(n)), AUTO_HOST_THREADS)
            .run(&mapper, &duo, &skewed)
            .unwrap();
        let (dynamic_run, _) = executor(&Schedule::Dynamic { batch: 3 }, AUTO_HOST_THREADS)
            .run(&mapper, &duo, &skewed)
            .unwrap();
        assert!(
            dynamic_run.simulated_seconds < static_run.simulated_seconds,
            "dynamic {} must beat static {} on a skewed workload",
            dynamic_run.simulated_seconds,
            static_run.simulated_seconds
        );
        // Same mapping output despite the different schedule.
        for (a, b) in dynamic_run.outputs.iter().zip(&static_run.outputs) {
            assert_eq!(a.mappings, b.mappings);
        }
    }

    #[test]
    fn host_thread_count_does_not_change_static_results() {
        let (mapper, reads) = setup();
        let platform = profiles::system1();
        let schedule = Schedule::Static(platform.even_shares(reads.len()));
        let (reference_run, reference_metrics) = executor(&schedule, 1)
            .run(&mapper, &platform, &reads)
            .unwrap();
        for host_threads in [2usize, 3, AUTO_HOST_THREADS] {
            let (run, metrics) = executor(&schedule, host_threads)
                .run(&mapper, &platform, &reads)
                .unwrap();
            for (a, b) in run.outputs.iter().zip(&reference_run.outputs) {
                assert_eq!(a.mappings, b.mappings);
            }
            assert_eq!(metrics, reference_metrics);
            assert_eq!(run.simulated_seconds, reference_run.simulated_seconds);
            assert_eq!(run.timelines, reference_run.timelines);
            assert_eq!(run.energy.energy_j, reference_run.energy.energy_j);
        }
    }

    #[test]
    fn schedule_for_mode_follows_the_mode() {
        let platform = profiles::system1();
        match Schedule::for_mode(ScheduleMode::Static, &platform, 30) {
            Schedule::Static(shares) => {
                assert_eq!(shares.iter().map(|s| s.items).sum::<usize>(), 30);
            }
            other => panic!("static mode must give shares, got {other:?}"),
        }
        assert_eq!(
            Schedule::for_mode(ScheduleMode::Dynamic, &platform, 30),
            Schedule::Dynamic { batch: 0 }
        );
    }
}
