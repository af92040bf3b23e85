//! Deterministic fault injection for the simulated platform.
//!
//! Real OpenCL deployments lose devices: a flaky PCIe link drops a GPU
//! mid-run, a thermal throttle halves a cluster's clock, a driver hiccup
//! fails one `clEnqueueNDRangeKernel` and succeeds on retry. The paper's
//! headline claim — task-parallel mapping across heterogeneous devices —
//! is only production-credible if the executor survives all three, so
//! this module models them *deterministically*: a [`FaultPlan`] is a set
//! of [`FaultEvent`]s pinned to **simulated** time (no wall clocks, no
//! ambient randomness), and a run under the same plan, seed and workload
//! is bit-reproducible.
//!
//! Three fault kinds (the taxonomy DESIGN.md §13 documents):
//!
//! * **Transient** — one kernel launch on the device fails at enqueue;
//!   the next attempt may succeed. Models driver/queue hiccups. Armed at
//!   a simulated time; consumed by the first launch at or after it.
//! * **Degrade** — the device's effective throughput is multiplied by a
//!   factor in `(0, 1]` for every kernel *starting* at or after the arm
//!   time. Models thermal throttling / DVFS capping. Factors compose
//!   multiplicatively if several degrade events have armed.
//! * **Loss** — the device is permanently dead: every launch starting at
//!   or after the arm time fails. Fail-stop is modelled at *launch
//!   granularity*: a kernel already running when the loss arms completes
//!   (its results were computed; the simulation charges the time), but
//!   nothing starts afterwards.
//!
//! The runtime view is a [`FaultState`] ([`FaultPlan::state`]): one
//! consumable [`DeviceFaultState`] per device, which command queues and
//! the multi-device executor query at enqueue time.

use std::error::Error;
use std::fmt;

/// What kind of fault a [`FaultEvent`] injects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// One kernel launch fails at enqueue; consumed by the first launch
    /// at or after the arm time.
    Transient,
    /// Effective throughput is multiplied by `factor` (in `(0, 1]`) for
    /// kernels starting at or after the arm time.
    Degrade {
        /// Throughput multiplier in `(0, 1]`.
        factor: f64,
    },
    /// The device is permanently dead from the arm time on.
    Loss,
    /// The *host* process dies at the arm time — the whole run stops and
    /// can only continue from a checkpoint journal. Not tied to any
    /// device (the event's `device` field is ignored); consumed by the
    /// resumable executor, ignored by per-device fault state.
    HostCrash,
}

/// One fault, armed at a point in simulated time on one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Index of the device the fault strikes.
    pub device: usize,
    /// Simulated seconds at which the fault arms.
    pub at_seconds: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// Error from [`FaultPlan::parse`] naming the offending entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanParseError {
    entry: String,
    reason: String,
}

impl fmt::Display for FaultPlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid fault-plan entry {:?}: {} \
             (expected loss:d<dev>@<t> | transient:d<dev>@<t>[x<count>] | \
             slow:d<dev>@<t>x<factor> | correlated:d<a>+d<b>+...@<t> | crash:@<t>)",
            self.entry, self.reason
        )
    }
}

impl Error for FaultPlanParseError {}

/// A deterministic set of faults to inject into a run.
///
/// # Example
///
/// ```
/// use repute_hetsim::FaultPlan;
///
/// let plan = FaultPlan::new()
///     .transient(1, 0.0)
///     .degrade(0, 0.5, 0.5)
///     .loss(2, 1.0);
/// assert_eq!(plan.events().len(), 3);
/// // The same plan, as a CLI spec string:
/// let parsed = FaultPlan::parse("transient:d1@0,slow:d0@0.5x0.5,loss:d2@1").unwrap();
/// assert_eq!(parsed.events().len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (injects nothing; executors take the fault-free
    /// fast path).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The planned fault events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Adds an explicit event.
    pub fn with_event(mut self, event: FaultEvent) -> FaultPlan {
        self.events.push(event);
        self
    }

    /// Adds one transient launch failure arming at `at_seconds` on
    /// `device`.
    pub fn transient(self, device: usize, at_seconds: f64) -> FaultPlan {
        self.with_event(FaultEvent {
            device,
            at_seconds,
            kind: FaultKind::Transient,
        })
    }

    /// Adds a throughput degradation (multiplier `factor` in `(0, 1]`)
    /// arming at `at_seconds` on `device`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is outside `(0, 1]`.
    pub fn degrade(self, device: usize, at_seconds: f64, factor: f64) -> FaultPlan {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "degrade factor {factor} outside (0, 1]"
        );
        self.with_event(FaultEvent {
            device,
            at_seconds,
            kind: FaultKind::Degrade { factor },
        })
    }

    /// Adds a permanent device loss arming at `at_seconds` on `device`.
    pub fn loss(self, device: usize, at_seconds: f64) -> FaultPlan {
        self.with_event(FaultEvent {
            device,
            at_seconds,
            kind: FaultKind::Loss,
        })
    }

    /// Adds a correlated (rack-style) loss: every device in `devices`
    /// dies simultaneously at `at_seconds`. Models a shared power rail or
    /// PCIe switch taking out several accelerators at once; equivalent to
    /// one [`loss`](FaultPlan::loss) per device at the same instant.
    pub fn correlated(mut self, devices: &[usize], at_seconds: f64) -> FaultPlan {
        for &device in devices {
            self = self.loss(device, at_seconds);
        }
        self
    }

    /// Adds a host-process crash at `at_seconds` of simulated time — the
    /// simulated `kill -9` the checkpoint/resume machinery recovers from.
    pub fn host_crash(self, at_seconds: f64) -> FaultPlan {
        self.with_event(FaultEvent {
            device: 0, // ignored: the crash takes the whole host
            at_seconds,
            kind: FaultKind::HostCrash,
        })
    }

    /// The earliest planned host-crash time, if any.
    pub fn host_crash_at(&self) -> Option<f64> {
        self.events
            .iter()
            .filter(|e| e.kind == FaultKind::HostCrash)
            .map(|e| e.at_seconds)
            .min_by(f64::total_cmp)
    }

    /// `true` when the plan carries any *device* fault (anything besides
    /// host crashes) — the events a checkpointed run must reject.
    pub fn has_device_events(&self) -> bool {
        self.events.iter().any(|e| e.kind != FaultKind::HostCrash)
    }

    /// The highest device index any device-level event names (`None` for
    /// an empty or crash-only plan) — lets callers validate a plan
    /// against a platform. Host crashes strike the host, not a device,
    /// so they are skipped.
    pub fn max_device(&self) -> Option<usize> {
        self.events
            .iter()
            .filter(|e| e.kind != FaultKind::HostCrash)
            .map(|e| e.device)
            .max()
    }

    /// Parses a CLI spec: comma- or semicolon-separated entries of
    ///
    /// * `loss:d<dev>@<t>` — permanent loss at simulated second `t`;
    /// * `transient:d<dev>@<t>` (optionally `x<count>`) — `count`
    ///   transient launch failures arming at `t`;
    /// * `slow:d<dev>@<t>x<factor>` — throughput multiplied by `factor`
    ///   from `t` on;
    /// * `correlated:d<a>+d<b>+...@<t>` — every listed device dies
    ///   simultaneously at `t` (rack-style correlated loss);
    /// * `crash:@<t>` — the host process dies at simulated second `t`
    ///   (no device index: the crash takes the whole run).
    ///
    /// Example: `--fault-plan "loss:d1@0.5,transient:d0@0x2"`.
    ///
    /// # Errors
    ///
    /// Returns [`FaultPlanParseError`] naming the first malformed entry.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultPlanParseError> {
        let mut plan = FaultPlan::new();
        for raw in spec.split([',', ';']) {
            let entry = raw.trim();
            if entry.is_empty() {
                continue;
            }
            let err = |reason: &str| FaultPlanParseError {
                entry: entry.to_string(),
                reason: reason.to_string(),
            };
            let (kind, rest) = entry
                .split_once(':')
                .ok_or_else(|| err("missing ':' after the fault kind"))?;
            if kind == "crash" {
                let t_str = rest
                    .strip_prefix('@')
                    .ok_or_else(|| err("crash takes no device: write crash:@<seconds>"))?;
                let t: f64 = t_str
                    .parse()
                    .map_err(|_| err("arm time must be a number of seconds"))?;
                if !t.is_finite() || t < 0.0 {
                    return Err(err("arm time must be finite and non-negative"));
                }
                plan = plan.host_crash(t);
                continue;
            }
            if kind == "correlated" {
                let (devs, t_str) = rest
                    .split_once('@')
                    .ok_or_else(|| err("missing '@<seconds>'"))?;
                let t: f64 = t_str
                    .parse()
                    .map_err(|_| err("arm time must be a number of seconds"))?;
                if !t.is_finite() || t < 0.0 {
                    return Err(err("arm time must be finite and non-negative"));
                }
                let mut devices = Vec::new();
                for part in devs.split('+') {
                    let idx = part
                        .strip_prefix('d')
                        .ok_or_else(|| err("devices must be written d<a>+d<b>+..."))?;
                    let device: usize = idx
                        .parse()
                        .map_err(|_| err("device index must be an integer"))?;
                    devices.push(device);
                }
                plan = plan.correlated(&devices, t);
                continue;
            }
            let rest = rest
                .strip_prefix('d')
                .ok_or_else(|| err("device must be written d<index>"))?;
            let (dev, at_and_param) = rest
                .split_once('@')
                .ok_or_else(|| err("missing '@<seconds>'"))?;
            let device: usize = dev
                .parse()
                .map_err(|_| err("device index must be an integer"))?;
            let parse_t = |s: &str| -> Result<f64, FaultPlanParseError> {
                let t: f64 = s
                    .parse()
                    .map_err(|_| err("arm time must be a number of seconds"))?;
                if !t.is_finite() || t < 0.0 {
                    return Err(err("arm time must be finite and non-negative"));
                }
                Ok(t)
            };
            match kind {
                "loss" => {
                    plan = plan.loss(device, parse_t(at_and_param)?);
                }
                "transient" => {
                    let (t, count) = match at_and_param.split_once('x') {
                        Some((t, n)) => (
                            parse_t(t)?,
                            n.parse::<usize>()
                                .map_err(|_| err("transient count must be an integer"))?,
                        ),
                        None => (parse_t(at_and_param)?, 1),
                    };
                    if count == 0 {
                        return Err(err("transient count must be positive"));
                    }
                    for _ in 0..count {
                        plan = plan.transient(device, t);
                    }
                }
                "slow" => {
                    let (t, factor) = at_and_param
                        .split_once('x')
                        .ok_or_else(|| err("slow needs 'x<factor>'"))?;
                    let factor: f64 = factor
                        .parse()
                        .map_err(|_| err("slow factor must be a number"))?;
                    if !(factor > 0.0 && factor <= 1.0) {
                        return Err(err("slow factor must be in (0, 1]"));
                    }
                    plan = plan.degrade(device, parse_t(t)?, factor);
                }
                _ => return Err(err("unknown fault kind")),
            }
        }
        Ok(plan)
    }

    /// Re-expresses the plan relative to a later time origin — the bridge
    /// between a daemon's continuous simulated clock and an executor that
    /// always starts a batch at local `t = 0`.
    ///
    /// The rule is stateless so a crash-resumed daemon rebuilds the exact
    /// same per-batch plans from its journaled clock alone:
    ///
    /// * **Loss / Degrade** are persistent conditions: every event is
    ///   kept, armed at `max(at - origin, 0)` (a device dead or throttled
    ///   before the batch starts is dead or throttled from its local
    ///   `t = 0`).
    /// * **Transient** is a one-shot: it is delivered to the batch whose
    ///   window it falls in, i.e. kept (at `at - origin`) only when
    ///   `at >= origin`. Batch windows tile simulated time, so each
    ///   transient is handed to exactly one batch; one that arms after a
    ///   batch's last launch dissipates, like a hiccup on an idle queue.
    /// * **HostCrash** events are dropped — a serving daemon models host
    ///   death through its journal, not through the executor.
    pub fn rebased(&self, origin: f64) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for event in &self.events {
            match event.kind {
                FaultKind::Loss | FaultKind::Degrade { .. } => {
                    plan = plan.with_event(FaultEvent {
                        at_seconds: (event.at_seconds - origin).max(0.0),
                        ..*event
                    });
                }
                FaultKind::Transient => {
                    if event.at_seconds >= origin {
                        plan = plan.with_event(FaultEvent {
                            at_seconds: event.at_seconds - origin,
                            ..*event
                        });
                    }
                }
                FaultKind::HostCrash => {}
            }
        }
        plan
    }

    /// Projects the plan onto a device subset: events for devices in
    /// `subset` are kept with their device index remapped to the position
    /// within `subset`; events for other devices (and host crashes, which
    /// have no device) are dropped. This is how a daemon hands a
    /// fleet-level plan to an executor running on a sub-platform.
    pub fn for_subset(&self, subset: &[usize]) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for event in &self.events {
            if event.kind == FaultKind::HostCrash {
                continue;
            }
            if let Some(local) = subset.iter().position(|&d| d == event.device) {
                plan = plan.with_event(FaultEvent {
                    device: local,
                    ..*event
                });
            }
        }
        plan
    }

    /// A seeded pseudo-random plan over `devices` devices with fault
    /// times in `[0, horizon_seconds)` — the generator behind the
    /// randomized recovery tests. Deterministic in `seed`, and device 0
    /// never receives a loss event, so **at least one device always
    /// survives** (the precondition of the output-invariance property)
    /// under a retry budget of two or more: below that, device 0's own
    /// transients (it gets up to two) can exhaust the budget of one
    /// launch and escalate to its loss.
    ///
    /// # Panics
    ///
    /// Panics if `devices == 0` or `horizon_seconds` is not positive.
    pub fn random(seed: u64, devices: usize, horizon_seconds: f64) -> FaultPlan {
        assert!(devices > 0, "need at least one device");
        assert!(
            horizon_seconds > 0.0,
            "fault horizon must be positive seconds"
        );
        let mut state = seed ^ 0xFAB1_7FA0_17ED_5EED;
        let mut next = move || splitmix64(&mut state);
        let mut plan = FaultPlan::new();
        for device in 0..devices {
            // 0–2 transients, 0–1 degradations, and (never on device 0)
            // a loss with probability 1/2.
            let transients = (next() % 3) as usize;
            for _ in 0..transients {
                plan = plan.transient(device, frac(next()) * horizon_seconds);
            }
            if next() % 2 == 0 {
                let factor = 0.25 + 0.75 * frac(next());
                plan = plan.degrade(device, frac(next()) * horizon_seconds, factor);
            }
            if device != 0 && next() % 2 == 0 {
                plan = plan.loss(device, frac(next()) * horizon_seconds);
            }
        }
        plan
    }

    /// The runtime view of the plan for a platform of `devices` devices:
    /// one consumable [`DeviceFaultState`] per device. Events naming
    /// out-of-range devices are ignored (validate with
    /// [`max_device`](FaultPlan::max_device) first if that should be an
    /// error).
    pub fn state(&self, devices: usize) -> FaultState {
        let mut per_device: Vec<DeviceFaultState> =
            (0..devices).map(|_| DeviceFaultState::default()).collect();
        for event in &self.events {
            let Some(state) = per_device.get_mut(event.device) else {
                continue;
            };
            match event.kind {
                FaultKind::Transient => state.transients.push(event.at_seconds),
                FaultKind::Degrade { factor } => state.degrades.push((event.at_seconds, factor)),
                FaultKind::Loss => {
                    state.lost_at = Some(match state.lost_at {
                        Some(t) => t.min(event.at_seconds),
                        None => event.at_seconds,
                    });
                }
                // Host crashes take the whole process, not a device; the
                // resumable executor consumes them before this point.
                FaultKind::HostCrash => {}
            }
        }
        for state in &mut per_device {
            state.transients.sort_by(f64::total_cmp);
            state.degrades.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        FaultState { per_device }
    }
}

/// SplitMix64 step — the same seeder `repute_genome::rng` uses; inlined
/// because this crate is dependency-free.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps 64 random bits onto `[0, 1)`.
fn frac(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// Consumable runtime fault state of one device.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeviceFaultState {
    /// Sorted arm times of unconsumed transient faults.
    transients: Vec<f64>,
    /// Index of the next unconsumed transient.
    next_transient: usize,
    /// Sorted `(arm_time, factor)` degradations.
    degrades: Vec<(f64, f64)>,
    /// Earliest permanent-loss time, if any.
    lost_at: Option<f64>,
}

impl DeviceFaultState {
    /// `true` when the device is dead for a launch starting at
    /// `at_seconds`.
    pub fn is_lost(&self, at_seconds: f64) -> bool {
        self.lost_at.is_some_and(|t| at_seconds >= t)
    }

    /// The device's permanent-loss time, if one is planned (or was
    /// escalated via [`kill`](DeviceFaultState::kill)).
    pub fn lost_at(&self) -> Option<f64> {
        self.lost_at
    }

    /// Consumes one armed transient fault, if any has an arm time at or
    /// before `at_seconds`. Returns `true` exactly when a launch at this
    /// time must fail transiently.
    pub fn take_transient(&mut self, at_seconds: f64) -> bool {
        match self.transients.get(self.next_transient) {
            Some(&armed) if armed <= at_seconds => {
                self.next_transient += 1;
                true
            }
            _ => false,
        }
    }

    /// Unconsumed transient faults armed at or before `at_seconds`.
    #[cfg(test)]
    fn pending_transients(&self, at_seconds: f64) -> usize {
        self.transients[self.next_transient..]
            .iter()
            .filter(|&&t| t <= at_seconds)
            .count()
    }

    /// The composed throughput multiplier for a kernel starting at
    /// `at_seconds` (product of all armed degrade factors; 1.0 when
    /// healthy).
    pub fn throughput_factor(&self, at_seconds: f64) -> f64 {
        self.degrades
            .iter()
            .take_while(|(t, _)| *t <= at_seconds)
            .map(|(_, f)| f)
            .product()
    }

    /// Escalates to a permanent loss at `at_seconds` — the executor's
    /// response to a device whose transient faults outlast the retry
    /// budget. Never moves an existing loss later.
    pub fn kill(&mut self, at_seconds: f64) {
        self.lost_at = Some(match self.lost_at {
            Some(t) => t.min(at_seconds),
            None => at_seconds,
        });
    }
}

/// Runtime fault state of a whole platform: one [`DeviceFaultState`] per
/// device, indexed like [`crate::Platform::devices`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultState {
    per_device: Vec<DeviceFaultState>,
}

impl FaultState {
    /// Immutable view of one device's fault state.
    pub fn device(&self, index: usize) -> &DeviceFaultState {
        &self.per_device[index]
    }

    /// Mutable (consumable) view of one device's fault state.
    pub fn device_mut(&mut self, index: usize) -> &mut DeviceFaultState {
        &mut self.per_device[index]
    }

    /// Removes and returns one device's state (for handing to that
    /// device's [`crate::CommandQueue`]); the slot is left defaulted.
    pub fn take_device(&mut self, index: usize) -> DeviceFaultState {
        std::mem::take(&mut self.per_device[index])
    }
}

/// Per-device fault accounting of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounters {
    /// Retry attempts performed after transient launch failures.
    pub retries: u64,
    /// Fault injections that struck the device (transients consumed,
    /// plus one if the device was lost).
    pub faults: u64,
    /// Batches this device absorbed from dead devices (failover).
    pub migrated_batches: u64,
}

impl FaultCounters {
    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: &FaultCounters) {
        self.retries += other.retries;
        self.faults += other.faults;
        self.migrated_batches += other.migrated_batches;
    }

    /// `true` when nothing was recorded.
    pub fn is_zero(&self) -> bool {
        self.retries == 0 && self.faults == 0 && self.migrated_batches == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_kind() {
        let plan = FaultPlan::parse("loss:d2@1.5, transient:d0@0x3; slow:d1@0.25x0.5").unwrap();
        assert_eq!(plan.events().len(), 5);
        assert_eq!(plan.max_device(), Some(2));
        let state = plan.state(3);
        assert_eq!(state.device(2).lost_at(), Some(1.5));
        assert_eq!(state.device(0).pending_transients(0.0), 3);
        assert!((state.device(1).throughput_factor(0.3) - 0.5).abs() < 1e-12);
        assert_eq!(state.device(1).throughput_factor(0.1), 1.0);
    }

    #[test]
    fn parse_rejects_malformed_entries() {
        for bad in [
            "loss",
            "loss:2@1",
            "loss:d2",
            "loss:dx@1",
            "loss:d1@-1",
            "loss:d1@nan",
            "transient:d0@0x0",
            "transient:d0@0xq",
            "slow:d0@1",
            "slow:d0@1x0",
            "slow:d0@1x1.5",
            "explode:d0@1",
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(
                err.to_string().contains("invalid fault-plan entry"),
                "{bad}"
            );
        }
        // Empty entries are tolerated.
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse(" , ;").unwrap().is_empty());
    }

    #[test]
    fn host_crash_parses_and_stays_off_devices() {
        let plan = FaultPlan::parse("crash:@0.75").unwrap();
        assert_eq!(plan.host_crash_at(), Some(0.75));
        assert!(!plan.has_device_events());
        assert!(!plan.is_empty());
        // Crash events never count as device events nor reach device state.
        assert_eq!(plan.max_device(), None);
        let state = plan.state(2);
        assert!(!state.device(0).is_lost(99.0));
        assert!(!state.device(1).is_lost(99.0));

        let mixed = FaultPlan::parse("loss:d1@0.5,crash:@1").unwrap();
        assert!(mixed.has_device_events());
        assert_eq!(mixed.max_device(), Some(1));
        assert_eq!(mixed.host_crash_at(), Some(1.0));
        // The earliest of several crashes wins.
        let twice = FaultPlan::new().host_crash(2.0).host_crash(0.5);
        assert_eq!(twice.host_crash_at(), Some(0.5));

        for bad in ["crash:d0@1", "crash:@-1", "crash:@nan", "crash:1"] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn correlated_parses_and_expands_to_losses() {
        let plan = FaultPlan::parse("correlated:d1+d2@0.5").unwrap();
        assert_eq!(plan.events().len(), 2);
        assert!(plan
            .events()
            .iter()
            .all(|e| e.kind == FaultKind::Loss && e.at_seconds == 0.5));
        assert_eq!(plan.max_device(), Some(2));
        let single = FaultPlan::parse("correlated:d0@1").unwrap();
        assert_eq!(single.events().len(), 1);
        assert_eq!(
            FaultPlan::parse("correlated:d1+d2@0.5").unwrap(),
            FaultPlan::new().correlated(&[1, 2], 0.5)
        );
        for bad in [
            "correlated:d1+d2",
            "correlated:@1",
            "correlated:1+2@1",
            "correlated:d1+x@1",
            "correlated:d1@-1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn rebased_shifts_persistent_faults_and_windows_transients() {
        let plan = FaultPlan::new()
            .loss(1, 2.0)
            .degrade(0, 0.5, 0.5)
            .transient(0, 1.0)
            .transient(0, 4.0)
            .host_crash(3.0);
        let local = plan.rebased(3.0);
        // Loss before the origin clamps to 0; degrade likewise.
        let state = local.state(2);
        assert_eq!(state.device(1).lost_at(), Some(0.0));
        assert!((state.device(0).throughput_factor(0.0) - 0.5).abs() < 1e-12);
        // The t=1 transient belonged to an earlier window; the t=4 one
        // lands at local t=1. Host crashes never cross the re-basing.
        assert_eq!(state.device(0).pending_transients(0.5), 0);
        assert_eq!(state.device(0).pending_transients(1.0), 1);
        assert!(local.host_crash_at().is_none());
        // Origin 0 is the identity for device events.
        assert_eq!(
            plan.rebased(0.0).events().len(),
            plan.events().len() - 1 // minus the host crash
        );
    }

    #[test]
    fn for_subset_remaps_and_drops_foreign_devices() {
        let plan = FaultPlan::new()
            .loss(2, 1.0)
            .transient(0, 0.5)
            .degrade(1, 0.25, 0.5)
            .host_crash(9.0);
        let sub = plan.for_subset(&[2, 0]);
        assert_eq!(sub.events().len(), 2);
        let state = sub.state(2);
        assert_eq!(state.device(0).lost_at(), Some(1.0)); // was device 2
        assert_eq!(state.device(1).pending_transients(0.5), 1); // was device 0
        assert!(sub.host_crash_at().is_none());
        assert!(plan.for_subset(&[]).is_empty());
    }

    #[test]
    fn transients_are_consumed_in_arm_order() {
        let plan = FaultPlan::new().transient(0, 1.0).transient(0, 0.0);
        let mut state = plan.state(1);
        let dev = state.device_mut(0);
        // Before any arm time: nothing fires.
        assert!(!dev.take_transient(-0.5));
        // At 0.5 only the t=0 transient has armed.
        assert!(dev.take_transient(0.5));
        assert!(!dev.take_transient(0.5));
        // The t=1 one fires later, once.
        assert!(dev.take_transient(2.0));
        assert!(!dev.take_transient(99.0));
    }

    #[test]
    fn degrade_factors_compose_and_loss_is_earliest() {
        let plan = FaultPlan::new()
            .degrade(0, 0.0, 0.5)
            .degrade(0, 1.0, 0.5)
            .loss(0, 3.0)
            .loss(0, 2.0);
        let state = plan.state(1);
        let dev = state.device(0);
        assert!((dev.throughput_factor(0.5) - 0.5).abs() < 1e-12);
        assert!((dev.throughput_factor(1.0) - 0.25).abs() < 1e-12);
        assert_eq!(dev.lost_at(), Some(2.0));
        assert!(!dev.is_lost(1.9));
        assert!(dev.is_lost(2.0));
    }

    #[test]
    fn kill_escalates_but_never_postpones() {
        let mut state = FaultPlan::new().loss(0, 1.0).state(1);
        state.device_mut(0).kill(5.0);
        assert_eq!(state.device(0).lost_at(), Some(1.0));
        state.device_mut(0).kill(0.5);
        assert_eq!(state.device(0).lost_at(), Some(0.5));
    }

    #[test]
    fn random_plans_are_deterministic_and_spare_device_zero() {
        for seed in 0..50u64 {
            let a = FaultPlan::random(seed, 4, 2.0);
            let b = FaultPlan::random(seed, 4, 2.0);
            assert_eq!(a, b, "seed {seed} not reproducible");
            assert!(
                a.events()
                    .iter()
                    .all(|e| !(e.device == 0 && e.kind == FaultKind::Loss)),
                "seed {seed} killed device 0"
            );
            for e in a.events() {
                assert!(e.at_seconds >= 0.0 && e.at_seconds < 2.0);
                assert!(e.device < 4);
                if let FaultKind::Degrade { factor } = e.kind {
                    assert!(factor > 0.0 && factor <= 1.0);
                }
            }
        }
        // Different seeds eventually differ.
        assert_ne!(
            FaultPlan::random(1, 4, 2.0),
            FaultPlan::random(2, 4, 2.0),
            "seeds 1 and 2 produced identical plans"
        );
    }

    #[test]
    fn out_of_range_events_are_ignored_by_state() {
        let plan = FaultPlan::new().loss(7, 0.0);
        let state = plan.state(2);
        assert!(!state.device(0).is_lost(1.0));
        assert!(!state.device(1).is_lost(1.0));
        assert_eq!(plan.max_device(), Some(7));
    }

    #[test]
    fn counters_merge_and_zero_check() {
        let mut a = FaultCounters::default();
        assert!(a.is_zero());
        a.merge(&FaultCounters {
            retries: 1,
            faults: 2,
            migrated_batches: 3,
        });
        a.merge(&FaultCounters {
            retries: 1,
            faults: 0,
            migrated_batches: 0,
        });
        assert_eq!(a.retries, 2);
        assert_eq!(a.faults, 2);
        assert_eq!(a.migrated_batches, 3);
        assert!(!a.is_zero());
    }
}
