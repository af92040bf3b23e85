//! Fleet health bookkeeping for long-lived services.
//!
//! A batch run consumes a [`crate::FaultPlan`] and is done; a daemon
//! lives through many batches and must remember what the fleet looks
//! like *between* them: which accelerator died two batches ago, which
//! one keeps throwing transient launch failures and should stop
//! receiving work before it wastes another retry budget. That memory is
//! the [`DeviceHealth`] registry — a strictly monotone per-device ladder
//!
//! ```text
//! Healthy → Degraded → Quarantined → Lost
//! ```
//!
//! with no recovery edges: simulated hardware does not heal, and a
//! monotone ladder is what makes crash-resumed health reconstruction
//! order-insensitive (observations commute, so replaying journal records
//! in any grouping yields the same state).
//!
//! Scheduling semantics: **Healthy** and **Degraded** devices are live
//! (schedulable — degraded devices are slower, not wrong).
//! **Quarantined** devices are preemptively excluded after accumulating
//! too many transient faults (they *would* still run, but every launch
//! risks burning a retry budget and escalating mid-batch).
//! **Lost** devices are gone. A service is unavailable when no live
//! device remains.

use crate::fault::{FaultKind, FaultPlan};
use std::fmt;

/// Transient-fault observations at which a device is quarantined.
///
/// Chosen above the executor's default retry budget so a single noisy
/// batch (which the retry loop already absorbs) does not eject a device,
/// while a device that is noisy across batches gets benched.
pub const DEFAULT_QUARANTINE_FAULTS: u64 = 6;

/// One device's position on the health ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Full throughput, schedulable.
    Healthy,
    /// Throttled or occasionally faulting, still schedulable.
    Degraded,
    /// Preemptively excluded from scheduling after repeated transients.
    Quarantined,
    /// Permanently dead.
    Lost,
}

impl HealthState {
    /// Stable lowercase name (telemetry and journal provenance).
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Quarantined => "quarantined",
            HealthState::Lost => "lost",
        }
    }

    /// Stable wire code for journal serialization.
    pub fn code(self) -> u8 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Degraded => 1,
            HealthState::Quarantined => 2,
            HealthState::Lost => 3,
        }
    }

    /// Inverse of [`code`](HealthState::code); `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<HealthState> {
        match code {
            0 => Some(HealthState::Healthy),
            1 => Some(HealthState::Degraded),
            2 => Some(HealthState::Quarantined),
            3 => Some(HealthState::Lost),
            _ => None,
        }
    }

    /// `true` when the device may still receive work.
    pub fn is_live(self) -> bool {
        matches!(self, HealthState::Healthy | HealthState::Degraded)
    }
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Monotone per-device health registry for a fleet of `len` devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceHealth {
    states: Vec<HealthState>,
    faults: Vec<u64>,
}

impl DeviceHealth {
    /// A registry of `devices` healthy devices.
    ///
    /// # Panics
    ///
    /// Panics if `devices == 0` — a fleet of zero devices has no health
    /// to track.
    pub fn new(devices: usize) -> DeviceHealth {
        assert!(devices > 0, "need at least one device");
        DeviceHealth {
            states: vec![HealthState::Healthy; devices],
            faults: vec![0; devices],
        }
    }

    /// Number of devices tracked.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Always `false`: the constructor requires at least one device.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Current ladder position of device `index`.
    pub fn state(&self, index: usize) -> HealthState {
        self.states[index]
    }

    /// Cumulative transient faults observed on device `index`.
    pub fn faults(&self, index: usize) -> u64 {
        self.faults[index]
    }

    /// Climbs the ladder monotonically: the more severe of the current
    /// and proposed state wins (derived `Ord` follows ladder order).
    fn escalate(&mut self, index: usize, to: HealthState) {
        if to > self.states[index] {
            self.states[index] = to;
        }
    }

    /// Records `count` transient faults striking device `index`: the
    /// device becomes at least Degraded, and Quarantined once its
    /// cumulative count reaches [`DEFAULT_QUARANTINE_FAULTS`].
    pub fn observe_faults(&mut self, index: usize, count: u64) {
        if count == 0 {
            return;
        }
        self.faults[index] += count;
        self.escalate(index, HealthState::Degraded);
        if self.faults[index] >= DEFAULT_QUARANTINE_FAULTS {
            self.escalate(index, HealthState::Quarantined);
        }
    }

    /// Records a throughput degradation on device `index` (slower, still
    /// schedulable).
    pub fn observe_degrade(&mut self, index: usize) {
        self.escalate(index, HealthState::Degraded);
    }

    /// Records permanent loss of device `index`.
    pub fn observe_loss(&mut self, index: usize) {
        self.escalate(index, HealthState::Lost);
    }

    /// Restores one device's journaled health (resume path). Monotone
    /// like every other observation: never downgrades the live state.
    pub fn restore(&mut self, index: usize, state: HealthState, faults: u64) {
        self.faults[index] = self.faults[index].max(faults);
        self.escalate(index, state);
    }

    /// Applies every plan event armed at or before `up_to_seconds`:
    /// losses mark devices Lost, degradations mark them Degraded.
    /// Transients are *not* applied here — they only count once a run
    /// actually absorbs them (the executor reports them through fault
    /// counters). Out-of-range devices are ignored.
    pub fn apply_plan(&mut self, plan: &FaultPlan, up_to_seconds: f64) {
        for event in plan.events() {
            if event.at_seconds > up_to_seconds || event.device >= self.len() {
                continue;
            }
            match event.kind {
                FaultKind::Loss => self.observe_loss(event.device),
                FaultKind::Degrade { .. } => self.observe_degrade(event.device),
                FaultKind::Transient => {}
            }
        }
    }

    /// Indices of schedulable (Healthy or Degraded) devices, ascending.
    pub fn live(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&d| self.states[d].is_live())
            .collect()
    }

    /// Number of schedulable devices.
    pub fn live_count(&self) -> usize {
        self.states.iter().filter(|s| s.is_live()).count()
    }

    /// Number of permanently lost devices.
    pub fn lost_count(&self) -> usize {
        self.states
            .iter()
            .filter(|&&s| s == HealthState::Lost)
            .count()
    }

    /// `true` when no schedulable device remains — the condition under
    /// which a service must degrade to `SERVICE_UNAVAILABLE` rather than
    /// panic.
    pub fn none_live(&self) -> bool {
        self.live_count() == 0
    }

    /// Per-device `(state, cumulative faults)` snapshot in device order —
    /// the payload journal checkpoints persist.
    pub fn snapshot(&self) -> Vec<(HealthState, u64)> {
        self.states
            .iter()
            .copied()
            .zip(self.faults.iter().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_strictly_monotone() {
        let mut h = DeviceHealth::new(2);
        assert_eq!(h.state(0), HealthState::Healthy);
        h.observe_degrade(0);
        assert_eq!(h.state(0), HealthState::Degraded);
        // A later "lesser" observation never demotes.
        h.observe_loss(0);
        h.observe_degrade(0);
        h.observe_faults(0, 1);
        assert_eq!(h.state(0), HealthState::Lost);
        assert_eq!(h.state(1), HealthState::Healthy);
    }

    #[test]
    fn faults_accumulate_into_quarantine() {
        let mut h = DeviceHealth::new(1);
        for _ in 1..DEFAULT_QUARANTINE_FAULTS {
            h.observe_faults(0, 1);
            assert_eq!(h.state(0), HealthState::Degraded);
        }
        h.observe_faults(0, 1);
        assert_eq!(h.state(0), HealthState::Quarantined);
        assert_eq!(h.faults(0), DEFAULT_QUARANTINE_FAULTS);
        // Quarantined devices are not live but not lost either.
        assert_eq!(h.live_count(), 0);
        assert_eq!(h.lost_count(), 0);
        assert!(h.none_live());
        // Zero-count observations are no-ops.
        let mut fresh = DeviceHealth::new(1);
        fresh.observe_faults(0, 0);
        assert_eq!(fresh.state(0), HealthState::Healthy);
    }

    #[test]
    fn live_set_shrinks_with_losses() {
        let mut h = DeviceHealth::new(3);
        assert_eq!(h.live(), vec![0, 1, 2]);
        h.observe_loss(1);
        assert_eq!(h.live(), vec![0, 2]);
        assert_eq!(h.live_count(), 2);
        assert_eq!(h.lost_count(), 1);
        assert!(!h.none_live());
        h.observe_loss(0);
        h.observe_loss(2);
        assert!(h.none_live());
        assert_eq!(h.live(), Vec::<usize>::new());
    }

    #[test]
    fn apply_plan_respects_the_time_horizon() {
        let plan = FaultPlan::new()
            .loss(1, 2.0)
            .degrade(0, 0.5, 0.5)
            .transient(2, 0.0);
        let mut h = DeviceHealth::new(3);
        h.apply_plan(&plan, 1.0);
        assert_eq!(h.state(0), HealthState::Degraded);
        assert_eq!(h.state(1), HealthState::Healthy); // loss arms later
        assert_eq!(h.state(2), HealthState::Healthy); // transients don't pre-mark
        h.apply_plan(&plan, 2.0);
        assert_eq!(h.state(1), HealthState::Lost);
        // Out-of-range devices are ignored.
        let mut small = DeviceHealth::new(1);
        small.apply_plan(&FaultPlan::new().loss(7, 0.0), 10.0);
        assert_eq!(small.live_count(), 1);
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut h = DeviceHealth::new(3);
        h.observe_faults(0, 2);
        h.observe_loss(2);
        let snap = h.snapshot();
        let mut back = DeviceHealth::new(3);
        for (d, (state, faults)) in snap.iter().enumerate() {
            back.restore(d, *state, *faults);
        }
        assert_eq!(back, h);
        // Restore is monotone too: a stale snapshot cannot demote.
        back.observe_loss(0);
        back.restore(0, HealthState::Degraded, 0);
        assert_eq!(back.state(0), HealthState::Lost);
        assert_eq!(back.faults(0), 2);
    }

    #[test]
    fn state_codes_round_trip() {
        for s in [
            HealthState::Healthy,
            HealthState::Degraded,
            HealthState::Quarantined,
            HealthState::Lost,
        ] {
            assert_eq!(HealthState::from_code(s.code()), Some(s));
            assert!(!s.as_str().is_empty());
        }
        assert_eq!(HealthState::from_code(9), None);
        assert!(HealthState::Healthy.is_live());
        assert!(HealthState::Degraded.is_live());
        assert!(!HealthState::Quarantined.is_live());
        assert!(!HealthState::Lost.is_live());
    }

    /// Hand-rolled property test: under random observation sequences
    /// the ladder only ever climbs, fault counts only grow, and the live
    /// set only shrinks.
    #[test]
    fn randomized_observations_never_recover() {
        for seed in 0..200u64 {
            let mut state = seed ^ 0x5EED_0FDE_01CE;
            let mut next = move || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let devices = 1 + (next() % 4) as usize;
            let mut h = DeviceHealth::new(devices);
            for _ in 0..32 {
                let d = (next() % devices as u64) as usize;
                let before = h.state(d);
                let faults_before = h.faults(d);
                let live_before = h.live_count();
                match next() % 4 {
                    0 => h.observe_faults(d, next() % 3),
                    1 => h.observe_degrade(d),
                    2 => h.observe_loss(d),
                    _ => {
                        let s = HealthState::from_code((next() % 4) as u8)
                            .expect("codes 0..4 are valid");
                        h.restore(d, s, next() % 4);
                    }
                }
                assert!(h.state(d) >= before, "seed {seed}: ladder went down");
                assert!(h.faults(d) >= faults_before, "seed {seed}: faults shrank");
                assert!(h.live_count() <= live_before, "seed {seed}: fleet grew");
                assert_eq!(h.live().len(), h.live_count());
                assert!(h.live().iter().all(|&x| h.state(x).is_live()));
            }
        }
    }
}
