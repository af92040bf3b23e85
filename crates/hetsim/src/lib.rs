//! Heterogeneous platform simulator — the OpenCL substitution.
//!
//! The paper runs REPUTE through OpenCL 1.2 on three kinds of devices:
//! an Intel CPU, two Nvidia GTX 590 GPUs, and the ARM big.LITTLE clusters
//! of a HiKey970 SoC. This reproduction has none of that hardware, so this
//! crate *prices* work instead of running it. Every read is mapped exactly
//! once, on the host, by `repute-core`'s executor, which **counts the
//! algorithmic work** it performs (FM-Index extensions, DP cells,
//! bit-vector word updates — and, when the mapper enables it,
//! pre-alignment filter word operations, which share the Myers
//! word-update currency so filter cost and saved verification cost
//! subtract meaningfully on a device timeline; see
//! `tests/prefilter_calibration.rs` for the calibration check). This
//! crate converts those counts into what the paper measures:
//!
//! * [`DeviceProfile`]s turn work counts into simulated seconds via a
//!   per-device throughput (scaled by the occupancy a kernel's
//!   private-memory footprint allows), and into joules via a per-device
//!   active power ([`EnergyReport`], §III-D);
//! * a [`CommandQueue`] lays launches back-to-back on one device's
//!   simulated timeline with OpenCL-style profiling events, and — armed
//!   with a [`FaultPlan`] — fails, retries, degrades and loses the device
//!   deterministically; a [`Platform`] is the device list the executor
//!   distributes over, the run completing when the slowest device
//!   finishes ("making one of the devices the performance bottleneck",
//!   §IV);
//! * [`DeviceProfile::max_items`] is the OpenCL 1.2 restriction the paper
//!   calls out in §III: no dynamic allocation (fixed output slots) and no
//!   single allocation above ¼ of device RAM.
//!
//! # Example
//!
//! ```
//! use repute_hetsim::{profiles, CommandQueue};
//!
//! let platform = profiles::system1();
//! // 100 reads counted at 1000 work units each, on the first GPU.
//! let gpu = &platform.devices()[1];
//! let mut queue = CommandQueue::new(gpu);
//! queue.launch("batch-0", 100, 100_000, 0, 0).expect("no fault plan armed");
//! assert_eq!(queue.finish_seconds(), gpu.seconds_for(100_000));
//! assert!(gpu.max_items(1200) > 100, "the batch fits a quarter of GPU RAM");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod fault;
mod health;
mod platform;
mod power;
pub mod profiles;
mod queue;

pub use device::{DeviceKind, DeviceProfile};
pub use fault::{
    DeviceFaultState, FaultCounters, FaultEvent, FaultKind, FaultPlan, FaultPlanParseError,
    FaultState,
};
pub use health::{DeviceHealth, HealthState, DEFAULT_QUARANTINE_FAULTS};
pub use platform::{apportion, DeviceRun, LaunchError, LaunchErrorKind, Platform, Share};
pub use power::EnergyReport;
pub use queue::{CommandQueue, BACKOFF_BASE_SECONDS};
