//! In-order command queues with profiling events.
//!
//! OpenCL hosts drive each device through a command queue and read
//! per-kernel timing from profiling events (`clGetEventProfilingInfo`
//! with `CL_PROFILING_COMMAND_QUEUED` / `_SUBMIT` / `_START` / `_END`).
//! This module models that on the simulated clock: a launch on a
//! [`CommandQueue`] is *priced*, not run — the caller has already counted
//! the work — and launches occupy the device back-to-back, which is the
//! mechanism behind REPUTE's "run the kernel multiple times with smaller
//! read sets" when a batch exceeds the quarter-RAM buffer cap (§III/§IV).
//! Every launch leaves a [`KernelEvent`] carrying all four timestamps.
//!
//! The host-side model: the host is infinitely fast, so a command is
//! submitted the moment it is queued (`queued == submitted`) and starts
//! as soon as the device is free; only retry backoffs
//! ([`CommandQueue::wait`]) advance the host clock. The invariant
//! `queued ≤ submitted ≤ start ≤ end` always holds.

use crate::device::DeviceProfile;
use crate::fault::{DeviceFaultState, FaultCounters};
use crate::platform::{LaunchError, LaunchErrorKind};
use repute_obs::trace::{device_pid, Span};
use repute_obs::KernelEvent;

/// Base of the exponential simulated backoff between transient-fault
/// retries: attempt `n` (counted from zero) waits `BASE * 2^n` simulated
/// seconds before relaunching. Deterministic by construction — no
/// wall-clock sleeps.
pub const BACKOFF_BASE_SECONDS: f64 = 1e-3;

/// An in-order command queue bound to one device.
///
/// # Example
///
/// ```
/// use repute_hetsim::{profiles, CommandQueue};
///
/// let cpu = profiles::intel_i7_2600();
/// let mut queue = CommandQueue::new(&cpu);
/// // Two batches whose reads were counted at 1 000 000 work units each.
/// queue.launch("batch-1", 100, 100_000_000, 0, 0)?;
/// queue.launch("batch-2", 50, 50_000_000, 0, 0)?;
/// // In-order semantics: batch-2 starts exactly when batch-1 ends.
/// let events = queue.events();
/// assert_eq!(events[1].start_seconds, events[0].end_seconds);
/// // OpenCL timestamp ordering holds for every event.
/// assert!(events[1].queued_seconds <= events[1].submitted_seconds);
/// assert!(events[1].submitted_seconds <= events[1].start_seconds);
/// # Ok::<(), repute_hetsim::LaunchError>(())
/// ```
#[derive(Debug)]
pub struct CommandQueue<'d> {
    device: &'d DeviceProfile,
    events: Vec<KernelEvent>,
    clock_seconds: f64,
    host_clock_seconds: f64,
    device_index: usize,
    fault: Option<DeviceFaultState>,
    counters: FaultCounters,
    loss_counted: bool,
    trace: Option<Vec<Span>>,
}

impl<'d> CommandQueue<'d> {
    /// Creates an empty queue on `device`.
    pub fn new(device: &'d DeviceProfile) -> CommandQueue<'d> {
        CommandQueue {
            device,
            events: Vec::new(),
            clock_seconds: 0.0,
            host_clock_seconds: 0.0,
            device_index: 0,
            fault: None,
            counters: FaultCounters::default(),
            loss_counted: false,
            trace: None,
        }
    }

    /// Enables span tracing on this queue: every launch, transient
    /// fault, retry backoff, device loss, and migration leaves a
    /// [`Span`] retrievable via [`take_trace`]. A queue without tracing
    /// (the default) builds no spans at all — the hot path pays one
    /// `Option` check.
    ///
    /// [`take_trace`]: CommandQueue::take_trace
    pub fn with_tracing(mut self) -> CommandQueue<'d> {
        self.trace = Some(Vec::new());
        self
    }

    /// Drains the spans recorded so far (empty when tracing is off).
    pub fn take_trace(&mut self) -> Vec<Span> {
        match &mut self.trace {
            Some(spans) => std::mem::take(spans),
            None => Vec::new(),
        }
    }

    /// Arms a fault state on this queue: [`launch`](CommandQueue::launch)
    /// consults it at every attempt. The state of a device no event names
    /// changes no launch. `device_index` identifies the device in the
    /// errors this queue raises and in its spans' process ids (a bare
    /// queue is device 0).
    pub fn with_fault_state(
        mut self,
        device_index: usize,
        state: DeviceFaultState,
    ) -> CommandQueue<'d> {
        self.device_index = device_index;
        self.fault = Some(state);
        self
    }

    /// The device this queue drives.
    pub fn device(&self) -> &DeviceProfile {
        self.device
    }

    /// Launches a kernel of `items` work-items whose counted cost is
    /// `work` units, each item holding `private_bytes` of private memory
    /// (which sets the device's occupancy): the launch occupies the
    /// device from the later of the host and device clocks for
    /// [`DeviceProfile::seconds_for_with_footprint`] simulated seconds,
    /// and is recorded as one [`KernelEvent`].
    ///
    /// An armed fault state is consulted at each attempt's would-be
    /// start. Fail-stop is modelled at launch granularity: a permanent
    /// loss rejects every launch *starting* at or after the loss time
    /// (kernels already running complete); armed degradations stretch the
    /// duration by the composed throughput factor; an armed transient
    /// consumes itself and fails the attempt, which then waits an
    /// exponential simulated backoff ([`BACKOFF_BASE_SECONDS`]` *
    /// 2^attempt`) and relaunches, up to `max_retries` retries (the event
    /// is annotated `[retry xN]`). A device whose transients outlast the
    /// budget is escalated to a permanent loss (killed at the current
    /// queue time) so callers observe a single consistent failure mode.
    ///
    /// # Errors
    ///
    /// [`LaunchErrorKind::DeviceLost`] when the device is (or becomes)
    /// permanently lost. A queue without a fault state cannot fail.
    pub fn launch(
        &mut self,
        label: &str,
        items: usize,
        work: u64,
        private_bytes: usize,
        max_retries: usize,
    ) -> Result<(), LaunchError> {
        let mut attempt = 0usize;
        loop {
            match self.attempt(label, items, work, private_bytes) {
                Ok(()) => {
                    if attempt > 0 {
                        self.annotate_last(&format!("retry x{attempt}"));
                    }
                    return Ok(());
                }
                Err(err) => match err.kind() {
                    LaunchErrorKind::TransientFault { .. } if attempt < max_retries => {
                        self.counters.retries += 1;
                        let backoff = BACKOFF_BASE_SECONDS * (1u64 << attempt) as f64;
                        let begin = self.host_clock_seconds;
                        self.wait(backoff);
                        if let Some(trace) = &mut self.trace {
                            trace.push(
                                Span::new(
                                    label.to_string(),
                                    "retry",
                                    device_pid(self.device_index),
                                    begin,
                                    begin + backoff,
                                )
                                .arg_u64("attempt", attempt as u64 + 1),
                            );
                        }
                        attempt += 1;
                    }
                    LaunchErrorKind::TransientFault { .. } => {
                        // Retry budget exhausted: escalate to a loss.
                        let now = self.next_start_seconds();
                        if let Some(fault) = &mut self.fault {
                            fault.kill(now);
                        }
                        return Err(self.loss_error());
                    }
                    _ => return Err(err),
                },
            }
        }
    }

    /// One launch attempt: the fault consultation, then the event.
    fn attempt(
        &mut self,
        label: &str,
        items: usize,
        work: u64,
        private_bytes: usize,
    ) -> Result<(), LaunchError> {
        let queued_seconds = self.host_clock_seconds;
        let start_seconds = self.next_start_seconds();
        let pid = device_pid(self.device_index);
        let mut factor = 1.0;
        if let Some(fault) = &mut self.fault {
            if fault.is_lost(start_seconds) {
                if let Some(trace) = &mut self.trace {
                    trace.push(
                        Span::instant(label.to_string(), "fault", pid, start_seconds)
                            .arg_str("kind", "device-lost"),
                    );
                }
                return Err(self.loss_error());
            }
            if fault.take_transient(start_seconds) {
                self.counters.faults += 1;
                if let Some(trace) = &mut self.trace {
                    trace.push(
                        Span::instant(label.to_string(), "fault", pid, start_seconds)
                            .arg_str("kind", "transient"),
                    );
                }
                return Err(LaunchError::transient(self.device_index));
            }
            factor = fault.throughput_factor(start_seconds);
        }
        let end_seconds =
            start_seconds + self.device.seconds_for_with_footprint(work, private_bytes) / factor;
        if let Some(trace) = &mut self.trace {
            trace.push(
                Span::new(label.to_string(), "kernel", pid, start_seconds, end_seconds)
                    .arg_u64("items", items as u64)
                    .arg_u64("work", work),
            );
        }
        self.events.push(KernelEvent {
            label: label.to_string(),
            items: items as u64,
            work,
            queued_seconds,
            submitted_seconds: queued_seconds,
            start_seconds,
            end_seconds,
        });
        self.clock_seconds = end_seconds;
        Ok(())
    }

    /// Advances the host clock by `seconds` of simulated waiting (the
    /// backoff primitive; also usable to model host-side stalls).
    pub fn wait(&mut self, seconds: f64) {
        assert!(
            seconds >= 0.0 && seconds.is_finite(),
            "wait must be finite non-negative seconds"
        );
        self.host_clock_seconds += seconds;
    }

    /// Appends ` [note]` to the label of the most recent event —
    /// fault-annotated timeline entries ("retry x2", "migrated from d1")
    /// without widening the event schema. No-op on an empty queue.
    pub fn annotate_last(&mut self, note: &str) {
        if let Some(event) = self.events.last_mut() {
            event.label.push_str(" [");
            event.label.push_str(note);
            event.label.push(']');
            // Keep the kernel span's name in sync — the span for the
            // last event is always the most recent one pushed.
            if let Some(span) = self.trace.as_mut().and_then(|t| t.last_mut()) {
                if span.cat == "kernel" {
                    span.name.clone_from(&event.label);
                }
            }
        }
    }

    /// Records that this queue absorbed one batch from a dead device.
    pub fn note_migration(&mut self) {
        self.counters.migrated_batches += 1;
        if let Some(event) = self.events.last() {
            let name = event.label.clone();
            let at = event.start_seconds;
            if let Some(trace) = &mut self.trace {
                trace.push(Span::instant(
                    name,
                    "migration",
                    device_pid(self.device_index),
                    at,
                ));
            }
        }
    }

    /// Fault accounting of this queue so far.
    pub fn fault_counters(&self) -> FaultCounters {
        self.counters
    }

    /// The device index reported in this queue's fault errors.
    pub fn device_index(&self) -> usize {
        self.device_index
    }

    /// `true` when the armed fault state says the device is dead at this
    /// queue's current time (a queue without fault state is never lost).
    pub fn is_lost_now(&self) -> bool {
        let now = self.next_start_seconds();
        self.fault.as_ref().is_some_and(|f| f.is_lost(now))
    }

    /// Builds a device-lost error, counting the loss as a fault exactly
    /// once per queue.
    fn loss_error(&mut self) -> LaunchError {
        if !self.loss_counted {
            self.loss_counted = true;
            self.counters.faults += 1;
        }
        LaunchError::device_lost(self.device_index)
    }

    /// Profiling events of every launch so far, in queue order.
    pub fn events(&self) -> &[KernelEvent] {
        &self.events
    }

    /// Consumes the queue, returning its events.
    pub fn into_events(self) -> Vec<KernelEvent> {
        self.events
    }

    /// The queue's simulated completion time (`clFinish` analogue).
    pub fn finish_seconds(&self) -> f64 {
        self.clock_seconds
    }

    /// The earliest simulated time the next launch could start: the later
    /// of the host clock and the device clock. This is the earliest-free
    /// key of the dynamic scheduler — it accounts for backoff waits,
    /// which advance the host clock only.
    pub fn next_start_seconds(&self) -> f64 {
        self.host_clock_seconds.max(self.clock_seconds)
    }

    /// Total work launched so far.
    pub fn total_work(&self) -> u64 {
        self.events.iter().map(|e| e.work).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::profiles;

    /// A fault-free launch of `items` work-items costing `per_item` each.
    fn launch(queue: &mut CommandQueue<'_>, label: &str, items: usize, per_item: u64) {
        queue
            .launch(label, items, items as u64 * per_item, 0, 0)
            .expect("an unarmed queue cannot fail");
    }

    #[test]
    fn launches_run_back_to_back() {
        let cpu = profiles::intel_i7_2600();
        let mut queue = CommandQueue::new(&cpu);
        launch(&mut queue, "a", 10, 1_000_000);
        launch(&mut queue, "b", 20, 1_000_000);
        launch(&mut queue, "c", 5, 1_000_000);
        let events = queue.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].start_seconds, 0.0);
        for pair in events.windows(2) {
            assert_eq!(pair[1].start_seconds, pair[0].end_seconds);
        }
        // The host is infinitely fast: the device never idles.
        let total: f64 = events.iter().map(KernelEvent::duration_seconds).sum();
        assert!((queue.finish_seconds() - total).abs() < 1e-12);
        assert_eq!(queue.total_work(), 35_000_000);
    }

    #[test]
    fn event_timestamps_are_ordered() {
        let cpu = profiles::intel_i7_2600();
        let mut queue = CommandQueue::new(&cpu);
        launch(&mut queue, "a", 10, 1_000_000);
        launch(&mut queue, "b", 10, 1_000_000);
        for event in queue.events() {
            assert!(event.queued_seconds <= event.submitted_seconds);
            assert!(event.submitted_seconds <= event.start_seconds);
            assert!(event.start_seconds <= event.end_seconds);
        }
        // Second command was queued while the first still ran: it waits.
        assert!(queue.events()[1].queue_wait_seconds() > 0.0);
    }

    #[test]
    fn durations_scale_with_device_speed() {
        let cpu = profiles::intel_i7_2600();
        let gpu = profiles::gtx590();
        let mut qc = CommandQueue::new(&cpu);
        let mut qg = CommandQueue::new(&gpu);
        launch(&mut qc, "x", 100, 1_000_000);
        launch(&mut qg, "x", 100, 1_000_000);
        assert!(qg.finish_seconds() > qc.finish_seconds());
        assert_eq!(qc.device().name(), "Intel Core i7-2600");
    }

    #[test]
    fn empty_queue() {
        let cpu = profiles::intel_i7_2600();
        let queue = CommandQueue::new(&cpu);
        assert_eq!(queue.finish_seconds(), 0.0);
        assert!(queue.events().is_empty());
        assert_eq!(queue.total_work(), 0);
    }

    #[test]
    fn transient_fault_fails_one_launch_then_recovers() {
        let cpu = profiles::intel_i7_2600();
        let state = FaultPlan::new().transient(1, 0.0).state(2).take_device(1);
        let mut queue = CommandQueue::new(&cpu).with_fault_state(1, state);
        let err = queue.attempt("x", 4, 4_000, 0).unwrap_err();
        assert_eq!(err.kind(), &LaunchErrorKind::TransientFault { device: 1 });
        // The transient is consumed: the retry succeeds.
        queue.attempt("x", 4, 4_000, 0).unwrap();
        assert_eq!(queue.fault_counters().faults, 1);
        assert_eq!(queue.events().len(), 1);
        assert_eq!(
            (queue.events()[0].items, queue.events()[0].work),
            (4, 4_000)
        );
    }

    #[test]
    fn launch_recovers_from_transients_and_annotates() {
        let cpu = profiles::intel_i7_2600();
        let state = FaultPlan::parse("transient:d0@0x2")
            .unwrap()
            .state(1)
            .take_device(0);
        let mut queue = CommandQueue::new(&cpu).with_fault_state(0, state);
        queue.launch("job", 3, 3_000, 0, 3).unwrap();
        let counters = queue.fault_counters();
        assert_eq!(counters.retries, 2);
        assert_eq!(counters.faults, 2);
        let event = &queue.events()[0];
        assert!(event.label.contains("[retry x2]"), "{}", event.label);
        // Backoffs 1ms + 2ms delayed the successful launch.
        assert!(event.start_seconds >= 3.0 * BACKOFF_BASE_SECONDS - 1e-12);
    }

    #[test]
    fn exhausted_retries_escalate_to_loss() {
        let cpu = profiles::intel_i7_2600();
        let state = FaultPlan::parse("transient:d2@0x5")
            .unwrap()
            .state(3)
            .take_device(2);
        let mut queue = CommandQueue::new(&cpu).with_fault_state(2, state);
        let err = queue.launch("job", 3, 3_000, 0, 1).unwrap_err();
        assert_eq!(err.kind(), &LaunchErrorKind::DeviceLost { device: 2 });
        assert!(queue.is_lost_now());
        // One retry spent, two transients struck, plus the loss itself.
        let counters = queue.fault_counters();
        assert_eq!(counters.retries, 1);
        assert_eq!(counters.faults, 3);
        // Future launches stay dead, without recounting the loss.
        let again = queue.launch("job", 3, 3_000, 0, 1).unwrap_err();
        assert_eq!(again.kind(), &LaunchErrorKind::DeviceLost { device: 2 });
        assert_eq!(queue.fault_counters().faults, 3);
    }

    #[test]
    fn loss_applies_to_launch_starts_only() {
        let cpu = profiles::intel_i7_2600();
        // Find how long one launch takes, then arm a loss mid-first-launch.
        let mut probe = CommandQueue::new(&cpu);
        launch(&mut probe, "probe", 10, 1_000_000);
        let one = probe.finish_seconds();
        let state = FaultPlan::new().loss(0, one / 2.0).state(1).take_device(0);
        let mut queue = CommandQueue::new(&cpu).with_fault_state(0, state);
        // First launch starts at 0.0 < loss time: it completes (fail-stop
        // at launch granularity).
        assert!(queue.launch("a", 10, 10_000_000, 0, 0).is_ok());
        // Second launch would start after the loss: rejected.
        let err = queue.launch("b", 10, 10_000_000, 0, 0).unwrap_err();
        assert_eq!(err.kind(), &LaunchErrorKind::DeviceLost { device: 0 });
        assert_eq!(queue.events().len(), 1);
        assert_eq!(queue.fault_counters().faults, 1);
    }

    #[test]
    fn degradation_stretches_simulated_duration() {
        let cpu = profiles::intel_i7_2600();
        let mut healthy = CommandQueue::new(&cpu);
        launch(&mut healthy, "x", 10, 1_000_000);
        let state = FaultPlan::new()
            .degrade(0, 0.0, 0.5)
            .state(1)
            .take_device(0);
        let mut degraded = CommandQueue::new(&cpu).with_fault_state(0, state);
        degraded.launch("x", 10, 10_000_000, 0, 0).unwrap();
        let ratio = degraded.finish_seconds() / healthy.finish_seconds();
        assert!((ratio - 2.0).abs() < 1e-9, "half throughput = double time");
        // Degradation is not an error and not a counted fault.
        assert!(degraded.fault_counters().is_zero());
    }

    #[test]
    fn private_bytes_set_the_occupancy_the_launch_is_priced_at() {
        let gpu = profiles::gtx590();
        let mut queue = CommandQueue::new(&gpu);
        queue.launch("light", 8, 8_000_000, 0, 0).unwrap();
        queue.launch("heavy", 8, 8_000_000, 1 << 20, 0).unwrap();
        let events = queue.events();
        assert_eq!(
            events[1].duration_seconds(),
            gpu.seconds_for_with_footprint(8_000_000, 1 << 20)
        );
        assert!(events[1].duration_seconds() > events[0].duration_seconds());
    }

    #[test]
    fn tracing_records_kernel_retry_and_fault_spans() {
        let cpu = profiles::intel_i7_2600();
        let state = FaultPlan::parse("transient:d0@0x2")
            .unwrap()
            .state(1)
            .take_device(0);
        let mut queue = CommandQueue::new(&cpu)
            .with_fault_state(0, state)
            .with_tracing();
        queue.launch("job", 3, 3_000, 0, 3).unwrap();
        queue.annotate_last("migrated from d9");
        queue.note_migration();
        let spans = queue.take_trace();
        let cats: Vec<&str> = spans.iter().map(|s| s.cat.as_str()).collect();
        // Two transients, two backoffs, then the kernel, then migration.
        assert_eq!(
            cats,
            ["fault", "retry", "fault", "retry", "kernel", "migration"]
        );
        let kernel_span = &spans[4];
        assert_eq!(kernel_span.name, "job [retry x2] [migrated from d9]");
        assert_eq!(kernel_span.pid, repute_obs::trace::device_pid(0));
        assert!(kernel_span.end_seconds > kernel_span.begin_seconds);
        // Draining leaves the queue still tracing.
        assert!(queue.take_trace().is_empty());
        queue.wait(0.0);
    }

    #[test]
    fn untraced_queue_yields_no_spans() {
        let cpu = profiles::intel_i7_2600();
        let mut queue = CommandQueue::new(&cpu);
        launch(&mut queue, "a", 4, 1_000);
        assert!(queue.take_trace().is_empty());
    }

    #[test]
    fn annotate_and_migration_counters() {
        let cpu = profiles::intel_i7_2600();
        let mut queue = CommandQueue::new(&cpu);
        // Annotating an empty queue is a no-op.
        queue.annotate_last("nothing");
        launch(&mut queue, "batch", 2, 1);
        queue.annotate_last("migrated from d3");
        assert_eq!(queue.events()[0].label, "batch [migrated from d3]");
        queue.note_migration();
        assert_eq!(queue.fault_counters().migrated_batches, 1);
        assert!(!queue.is_lost_now());
    }
}
