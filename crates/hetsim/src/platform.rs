//! Platforms, workload distributions and launch errors.
//!
//! "REPUTE distributes the workload on CPU and GPU, as per user
//! specification, executing the work-items in task-parallel fashion using
//! [the] OpenCL framework" (§III-B), and "launches the kernels
//! simultaneously and upon completion it combines the results, thus,
//! making one of the devices the performance bottleneck" (§IV). A
//! [`Platform`] is the device list such a launch runs on; a [`Share`] is
//! one device's contiguous slice of the work-items; `repute-core`'s
//! executor lays the slices on one [`CommandQueue`](crate::CommandQueue)
//! per device and completes at the *maximum* of the per-device simulated
//! times.

use std::error::Error;
use std::fmt;

use repute_obs::trace::{device_pid, SCHEDULER_PID};

use crate::device::DeviceProfile;
use crate::fault::FaultCounters;
use crate::power::EnergyReport;

/// Splits `items` into `weights.len()` integer parts proportional to the
/// weights, using largest-remainder apportionment: every part receives the
/// floor of its exact quota, and the leftover units go to the parts with
/// the largest fractional remainders (ties broken by lower index). The
/// parts always sum to `items` — no device silently swallows or loses the
/// rounding remainder — and an all-zero weight vector falls back to equal
/// weights.
///
/// # Panics
///
/// Panics if `weights` is empty or contains a negative or non-finite
/// weight.
pub fn apportion(items: usize, weights: &[f64]) -> Vec<usize> {
    assert!(!weights.is_empty(), "apportion needs at least one weight");
    assert!(
        weights.iter().all(|w| w.is_finite() && *w >= 0.0),
        "apportion weights must be finite and non-negative"
    );
    let equal = vec![1.0; weights.len()];
    let weights = if weights.iter().sum::<f64>() > 0.0 {
        weights
    } else {
        &equal[..]
    };
    let total: f64 = weights.iter().sum();
    let quotas: Vec<f64> = weights.iter().map(|w| items as f64 * w / total).collect();
    let mut parts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let assigned: usize = parts.iter().sum();
    let mut order: Vec<usize> = (0..parts.len()).collect();
    order.sort_by(|&a, &b| {
        let frac = |i: usize| quotas[i] - quotas[i].floor();
        frac(b).total_cmp(&frac(a)).then(a.cmp(&b))
    });
    for &idx in order.iter().take(items.saturating_sub(assigned)) {
        parts[idx] += 1;
    }
    assert_eq!(
        parts.iter().sum::<usize>(),
        items,
        "apportionment must cover every item exactly once"
    );
    parts
}

/// How many work-items one device receives in a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Share {
    /// The device's index ([`Platform::device`]).
    pub device: usize,
    /// Number of consecutive work-items assigned.
    pub items: usize,
}

/// Classifies a [`LaunchError`] so callers can react (retry a transient
/// fault, fail a batch over after a device loss, surface a partial
/// failure) instead of string-matching messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchErrorKind {
    /// The launch distribution itself was malformed (empty shares, device
    /// index out of range, coverage mismatch).
    InvalidDistribution,
    /// A transient fault failed this launch at enqueue; retrying the same
    /// launch may succeed.
    TransientFault {
        /// Index of the device that rejected the launch.
        device: usize,
    },
    /// The device is permanently lost; no future launch on it can
    /// succeed.
    DeviceLost {
        /// Index of the lost device.
        device: usize,
    },
    /// Every device died before the run completed.
    AllDevicesLost {
        /// Half-open global read range `[lo, hi)` left unmapped.
        unmapped: (usize, usize),
    },
}

/// Error returned by kernel launches: malformed distributions, and (under
/// an armed fault plan) injected transient failures, device loss, and
/// whole-platform loss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchError {
    kind: LaunchErrorKind,
    message: String,
    /// What struck each device of the failed run, by device index.
    fault_counters: Vec<(usize, FaultCounters)>,
}

impl LaunchError {
    /// Creates an [`LaunchErrorKind::InvalidDistribution`] error with a
    /// caller-supplied message (used by higher-level launchers such as
    /// `repute-core`'s multi-device runner).
    pub fn from_message(message: impl Into<String>) -> LaunchError {
        LaunchError {
            kind: LaunchErrorKind::InvalidDistribution,
            message: message.into(),
            fault_counters: Vec::new(),
        }
    }

    /// A transient launch failure on `device`.
    pub fn transient(device: usize) -> LaunchError {
        LaunchError {
            kind: LaunchErrorKind::TransientFault { device },
            message: String::new(),
            fault_counters: Vec::new(),
        }
    }

    /// A permanent loss of `device`.
    pub fn device_lost(device: usize) -> LaunchError {
        LaunchError {
            kind: LaunchErrorKind::DeviceLost { device },
            message: String::new(),
            fault_counters: Vec::new(),
        }
    }

    /// The typed partial-failure error: every device died, leaving global
    /// reads `lo..hi` unmapped.
    pub fn all_devices_lost(lo: usize, hi: usize) -> LaunchError {
        LaunchError {
            kind: LaunchErrorKind::AllDevicesLost { unmapped: (lo, hi) },
            message: String::new(),
            fault_counters: Vec::new(),
        }
    }

    /// The same error, carrying what struck each device of the run it
    /// ended (device index and counters) — for
    /// [`LaunchErrorKind::AllDevicesLost`], whose run reports nothing
    /// else.
    pub fn with_fault_counters(mut self, counters: Vec<(usize, FaultCounters)>) -> LaunchError {
        self.fault_counters = counters;
        self
    }

    /// What struck each device of the run this error ended, by device
    /// index; empty unless the error was built
    /// [`with_fault_counters`](LaunchError::with_fault_counters).
    pub fn fault_counters(&self) -> &[(usize, FaultCounters)] {
        &self.fault_counters
    }

    /// What went wrong.
    pub fn kind(&self) -> &LaunchErrorKind {
        &self.kind
    }

    /// For [`LaunchErrorKind::AllDevicesLost`], the half-open read range
    /// that was never mapped.
    pub fn unmapped_range(&self) -> Option<std::ops::Range<usize>> {
        match self.kind {
            LaunchErrorKind::AllDevicesLost { unmapped: (lo, hi) } => Some(lo..hi),
            _ => None,
        }
    }
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            LaunchErrorKind::InvalidDistribution => {
                write!(f, "invalid launch distribution: {}", self.message)
            }
            LaunchErrorKind::TransientFault { device } => {
                write!(f, "transient launch failure on device {device}")
            }
            LaunchErrorKind::DeviceLost { device } => {
                write!(f, "device {device} permanently lost")
            }
            LaunchErrorKind::AllDevicesLost { unmapped: (lo, hi) } => {
                write!(f, "all devices lost: reads {lo}..{hi} were not mapped")
            }
        }
    }
}

impl Error for LaunchError {}

/// What one device did during a launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceRun {
    /// The device's index ([`Platform::device`]).
    pub device: usize,
    /// Work-items the device processed.
    pub items: usize,
    /// Work units the device consumed.
    pub work: u64,
    /// Simulated busy time of the device, in seconds.
    pub simulated_seconds: f64,
}

/// A named collection of devices with a shared idle power — one of the
/// paper's two test systems, or a [`subset`](Platform::subset) of one.
///
/// Every device has one index, [`DeviceProfile::index`]: its position on
/// the platform [`Platform::new`] made, kept on every subset of it. The
/// devices are held in ascending index order.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    name: String,
    idle_power_w: f64,
    devices: Vec<DeviceProfile>,
    /// Device count of the platform `new` made; every index is below it.
    root_devices: usize,
}

impl Platform {
    /// Creates a platform whose device `i` has index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty or `idle_power_w` is negative.
    pub fn new(
        name: impl Into<String>,
        idle_power_w: f64,
        mut devices: Vec<DeviceProfile>,
    ) -> Platform {
        assert!(!devices.is_empty(), "platform needs at least one device");
        assert!(idle_power_w >= 0.0, "idle power cannot be negative");
        for (i, device) in devices.iter_mut().enumerate() {
            device.index = i;
        }
        Platform {
            name: name.into(),
            idle_power_w,
            root_devices: devices.len(),
            devices,
        }
    }

    /// Platform name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// System idle power in watts.
    pub fn idle_power_w(&self) -> f64 {
        self.idle_power_w
    }

    /// The platform's devices, in ascending index order.
    pub fn devices(&self) -> &[DeviceProfile] {
        &self.devices
    }

    /// The device with index `index`, if this platform holds it.
    pub fn device(&self, index: usize) -> Option<&DeviceProfile> {
        self.devices.iter().find(|d| d.index() == index)
    }

    /// The device count of the platform [`Platform::new`] made, which
    /// every subset of it keeps: each device index is below it, and a
    /// fault plan may name any index below it.
    pub fn root_devices(&self) -> usize {
        self.root_devices
    }

    /// The process table of a Chrome trace of this platform, as
    /// [`repute_obs::trace::write_chrome_trace`] takes it: pid 0 is the
    /// scheduler, then one process per device, its pid from its index,
    /// named `"<name> [<kind>]"`.
    pub fn trace_processes(&self) -> Vec<(u32, String)> {
        let mut processes = vec![(SCHEDULER_PID, "scheduler".to_string())];
        for device in &self.devices {
            let label = format!("{} [{}]", device.name(), device.kind().as_str());
            processes.push((device_pid(device.index()), label));
        }
        processes
    }

    /// A distribution that splits `items` across all devices
    /// proportionally to their throughput (a sensible default; Fig. 3 of
    /// the paper sweeps away from it). The rounding remainder is spread
    /// largest-fraction-first (see [`apportion`]), so small read sets
    /// still reach the fastest devices instead of piling up on device 0.
    pub fn even_shares(&self, items: usize) -> Vec<Share> {
        let weights: Vec<f64> = self.devices.iter().map(DeviceProfile::throughput).collect();
        apportion(items, &weights)
            .into_iter()
            .zip(&self.devices)
            .map(|(items, device)| Share {
                device: device.index(),
                items,
            })
            .collect()
    }

    /// Largest number of `item_bytes`-sized records that fits the
    /// quarter-RAM output cap of *every* device — the coalescing bound a
    /// long-lived service uses when it packs many small jobs into one
    /// scheduler batch (any larger batch would force the dynamic
    /// scheduler to split it again on the smallest device).
    pub fn max_batch_items(&self, item_bytes: usize) -> usize {
        self.devices
            .iter()
            .map(|d| d.max_items(item_bytes))
            .min()
            .unwrap_or(usize::MAX)
    }

    /// A distribution that puts every item on the device with index
    /// `device`.
    ///
    /// # Panics
    ///
    /// Panics if the platform has no device `device`.
    pub fn single_device_share(&self, device: usize, items: usize) -> Vec<Share> {
        assert!(
            self.device(device).is_some(),
            "device index {device} out of range"
        );
        vec![Share { device, items }]
    }

    /// The platform restricted to the devices with the given `indices`,
    /// each keeping its index, in ascending index order: same name, same
    /// idle power, same [`root_devices`](Platform::root_devices). A subset
    /// of a subset still names its devices by the root platform's indices.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty, repeats an index or names a device
    /// this platform does not hold.
    pub fn subset(&self, indices: &[usize]) -> Platform {
        let devices: Vec<DeviceProfile> = self
            .devices
            .iter()
            .filter(|d| indices.contains(&d.index()))
            .cloned()
            .collect();
        assert!(
            !devices.is_empty() && devices.len() == indices.len(),
            "device subset {indices:?} is not a set of this platform's devices"
        );
        Platform {
            name: self.name.clone(),
            devices,
            ..*self
        }
    }

    /// Measures power and energy for a finished run — what each device
    /// did, and the run's simulated completion time — per the paper's
    /// §III-D methodology.
    pub fn measure_energy(
        &self,
        device_runs: &[DeviceRun],
        simulated_seconds: f64,
    ) -> EnergyReport {
        EnergyReport::measure(self, device_runs, simulated_seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{profiles, CommandQueue, FaultPlan};

    #[test]
    fn even_shares_cover_all_items() {
        let platform = profiles::system1();
        for items in [0usize, 1, 99, 1000] {
            let shares = platform.even_shares(items);
            assert_eq!(shares.iter().map(|s| s.items).sum::<usize>(), items);
            assert_eq!(shares.len(), 3);
        }
    }

    #[test]
    fn apportion_distributes_remainder_largest_fraction_first() {
        // Quotas 3.75 / 2.5 / 1.25 / 2.5: floors give 3/2/1/2, the two
        // leftover items go to the largest fractions (index 0, then the
        // index-1 tie-break between the two .5 fractions).
        assert_eq!(apportion(10, &[3.0, 2.0, 1.0, 2.0]), vec![4, 3, 1, 2]);
        // Exact division leaves no remainder to distribute.
        assert_eq!(apportion(8, &[1.0, 1.0]), vec![4, 4]);
    }

    #[test]
    fn apportion_edge_cases_sum_exactly() {
        // Zero items, fewer items than parts, single part, zero weights.
        assert_eq!(apportion(0, &[1.0, 2.0, 3.0]), vec![0, 0, 0]);
        assert_eq!(apportion(7, &[5.0]), vec![7]);
        assert_eq!(apportion(2, &[0.0, 0.0, 0.0]), vec![1, 1, 0]);
        for items in 0..20usize {
            let parts = apportion(items, &[0.3, 7.1, 0.0, 2.6]);
            assert_eq!(parts.iter().sum::<usize>(), items, "items {items}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn apportion_rejects_empty_weights() {
        let _ = apportion(3, &[]);
    }

    #[test]
    fn small_read_sets_reach_the_fast_devices() {
        // Two items on system 1 (CPU at 1.0e9, two GPUs at 0.55e9): the
        // old remainder rule handed both to device 0; largest-fraction
        // distribution gives one to the CPU and one to the first GPU.
        let platform = profiles::system1();
        let shares = platform.even_shares(2);
        assert_eq!(shares.iter().map(|s| s.items).sum::<usize>(), 2);
        assert!(
            shares[0].items < 2,
            "device 0 must not swallow the whole small read set"
        );
    }

    #[test]
    fn even_shares_on_single_device_platform() {
        let solo = Platform::new("solo", 1.0, vec![profiles::intel_i7_2600()]);
        for items in [0usize, 1, 13] {
            let shares = solo.even_shares(items);
            assert_eq!(shares.len(), 1);
            assert_eq!(shares[0].items, items);
        }
    }

    #[test]
    fn a_subset_of_a_subset_keeps_the_root_indices() {
        let platform = profiles::system1();
        let sub = platform.subset(&[0, 2]);
        let indices = |p: &Platform| {
            p.devices()
                .iter()
                .map(DeviceProfile::index)
                .collect::<Vec<_>>()
        };
        assert_eq!(indices(&platform), [0, 1, 2]);
        assert_eq!(indices(&sub), [0, 2]);
        assert_eq!(sub.root_devices(), 3);
        let inner = sub.subset(&[2]);
        assert_eq!(indices(&inner), [2]);
        assert_eq!(inner.root_devices(), 3);
        assert_eq!(
            (inner.name(), inner.idle_power_w()),
            (platform.name(), platform.idle_power_w())
        );
        // `device` finds a device by its index, on every level.
        assert_eq!(inner.device(2), platform.device(2));
        assert_eq!(sub.device(2), platform.device(2));
        assert!(sub.device(1).is_none() && inner.device(0).is_none());
        assert!(platform.device(3).is_none());
        // Shares and trace lanes name the same indices.
        let shares: Vec<usize> = sub.even_shares(10).iter().map(|s| s.device).collect();
        assert_eq!(shares, [0, 2]);
        assert_eq!(
            inner.single_device_share(2, 4),
            [Share {
                device: 2,
                items: 4
            }]
        );
        let pids: Vec<u32> = inner
            .trace_processes()
            .iter()
            .map(|&(pid, _)| pid)
            .collect();
        assert_eq!(pids, [SCHEDULER_PID, device_pid(2)]);
    }

    #[test]
    #[should_panic(expected = "[1] is not a set of this platform's devices")]
    fn a_subset_names_only_devices_it_holds() {
        let _ = profiles::system1().subset(&[0, 2]).subset(&[1]);
    }

    #[test]
    fn a_subset_holds_its_devices_in_ascending_index_order() {
        let platform = profiles::system1();
        assert_eq!(platform.subset(&[2, 0]), platform.subset(&[0, 2]));
        for bad in [&[][..], &[0, 0], &[0, 3]] {
            let caught = std::panic::catch_unwind(|| platform.subset(bad));
            assert!(caught.is_err(), "{bad:?} is not a subset");
        }
    }

    #[test]
    fn a_sub_platform_runs_under_its_root_plan() {
        let platform = profiles::system1();
        let sub = platform.subset(&[0, 2]);
        // Device 1 is not on the sub-platform: its loss is ignored…
        let plan = FaultPlan::new().loss(1, 0.0).transient(2, 0.0);
        assert_eq!(plan.check(&sub), Ok(()));
        let mut state = plan.state(sub.root_devices());
        for device in sub.devices() {
            let d = device.index();
            let mut queue = CommandQueue::new(device).with_fault_state(state.take_device(d));
            queue
                .launch("b", 1, 1_000, 0, 1)
                .expect("no device of the subset is lost");
            let retries = if d == 2 { 1 } else { 0 };
            assert_eq!(queue.fault_counters().retries, retries, "device {d}");
        }
        // …and an index beyond the root platform is refused.
        let err = FaultPlan::new().loss(3, 0.0).check(&sub).unwrap_err();
        assert_eq!(err.kind(), &LaunchErrorKind::InvalidDistribution);
        assert!(
            err.to_string()
                .contains("fault plan names device 3 but the platform has only 3 devices"),
            "{err}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_platform_rejected() {
        let _ = Platform::new("x", 0.0, vec![]);
    }
}
