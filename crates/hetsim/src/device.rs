//! Device profiles: the compute/memory/power description of one OpenCL
//! device.

/// What kind of silicon a device models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// A general-purpose CPU.
    Cpu,
    /// A discrete GPU.
    Gpu,
    /// The "big" cluster of a big.LITTLE SoC.
    BigCluster,
    /// The "LITTLE" cluster of a big.LITTLE SoC.
    LittleCluster,
}

impl DeviceKind {
    /// Stable lower-case name used by telemetry exports.
    pub fn as_str(self) -> &'static str {
        match self {
            DeviceKind::Cpu => "cpu",
            DeviceKind::Gpu => "gpu",
            DeviceKind::BigCluster => "big",
            DeviceKind::LittleCluster => "little",
        }
    }
}

/// The static description of one simulated device.
///
/// `throughput` is calibrated in *work units per second*, where one work
/// unit is one substrate operation of the mapping stack (an FM-Index
/// left-extension, a DP cell, or a 64-cell bit-vector word update — these
/// are deliberately comparable integer-dominated operations, which is the
/// paper's argument for why simple embedded cores suit genomics, §I).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    name: String,
    kind: DeviceKind,
    compute_units: usize,
    throughput: f64,
    memory_bytes: usize,
    active_power_w: f64,
    /// Private/local memory per compute unit, in bytes.
    private_memory_bytes: usize,
    /// Resident work-items per compute unit the device needs to reach
    /// peak throughput (latency hiding). 1 = occupancy-insensitive (CPU).
    latency_hiding: u32,
}

impl DeviceProfile {
    /// Creates a device profile.
    ///
    /// # Panics
    ///
    /// Panics if `compute_units == 0`, `throughput <= 0`,
    /// `memory_bytes == 0` or `active_power_w < 0`.
    pub fn new(
        name: impl Into<String>,
        kind: DeviceKind,
        compute_units: usize,
        throughput: f64,
        memory_bytes: usize,
        active_power_w: f64,
    ) -> DeviceProfile {
        assert!(compute_units > 0, "device needs at least one compute unit");
        assert!(throughput > 0.0, "throughput must be positive");
        assert!(memory_bytes > 0, "device needs memory");
        assert!(active_power_w >= 0.0, "power cannot be negative");
        DeviceProfile {
            name: name.into(),
            kind,
            compute_units,
            throughput,
            memory_bytes,
            active_power_w,
            private_memory_bytes: usize::MAX,
            latency_hiding: 1,
        }
    }

    /// Configures the occupancy model: `private_memory_bytes` of
    /// private/local memory per compute unit, and the number of resident
    /// work-items per unit needed to hide memory latency (GPUs need many;
    /// CPUs run at peak with one).
    ///
    /// A kernel whose per-item private footprint is `b` bytes keeps
    /// `private_memory_bytes / b` items resident per unit; when that
    /// falls below `latency_hiding`, throughput degrades proportionally —
    /// the §IV mechanism behind the paper's Figs. 3–4 ("large k-mer
    /// lengths reduce the memory footprint of the kernel allowing more
    /// workgroups to be processed by the GPU").
    ///
    /// # Panics
    ///
    /// Panics if `private_memory_bytes == 0` or `latency_hiding == 0`.
    pub fn with_occupancy_model(
        mut self,
        private_memory_bytes: usize,
        latency_hiding: u32,
    ) -> DeviceProfile {
        assert!(private_memory_bytes > 0, "private memory must be positive");
        assert!(latency_hiding > 0, "latency hiding factor must be positive");
        self.private_memory_bytes = private_memory_bytes;
        self.latency_hiding = latency_hiding;
        self
    }

    /// Throughput factor in `(0, 1]` for a kernel needing
    /// `private_bytes_per_item` of private memory per work-item.
    pub fn occupancy(&self, private_bytes_per_item: usize) -> f64 {
        if private_bytes_per_item == 0 || self.latency_hiding == 1 {
            return 1.0;
        }
        let resident = (self.private_memory_bytes / private_bytes_per_item).max(1);
        (resident as f64 / f64::from(self.latency_hiding)).min(1.0)
    }

    /// Seconds this device needs for `work` units of a kernel with the
    /// given per-item private footprint.
    pub fn seconds_for_with_footprint(&self, work: u64, private_bytes_per_item: usize) -> f64 {
        work as f64 / (self.throughput * self.occupancy(private_bytes_per_item))
    }

    /// Device name, e.g. `"GeForce GTX 590"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// What kind of device this is.
    pub fn kind(&self) -> DeviceKind {
        self.kind
    }

    /// Number of parallel compute units (cores / SM groups).
    pub fn compute_units(&self) -> usize {
        self.compute_units
    }

    /// Work units per second across the whole device.
    pub fn throughput(&self) -> f64 {
        self.throughput
    }

    /// Device RAM in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.memory_bytes
    }

    /// Incremental power draw when busy, in watts (above system idle).
    pub fn active_power_w(&self) -> f64 {
        self.active_power_w
    }

    /// OpenCL 1.2 restriction (b) of §III: the largest single allocation
    /// is a quarter of device RAM.
    pub fn max_alloc_bytes(&self) -> usize {
        self.memory_bytes / 4
    }

    /// Largest number of `item_bytes`-sized records one buffer can hold on
    /// this device. OpenCL 1.2 "does not permit dynamic memory allocation"
    /// (§III), so each read's output slots are sized beforehand, and a
    /// batch larger than this is what makes REPUTE "run the kernel
    /// multiple times with smaller read sets" (§IV) — the planning
    /// primitive for batch chunking.
    pub fn max_items(&self, item_bytes: usize) -> usize {
        if item_bytes == 0 {
            return usize::MAX;
        }
        self.max_alloc_bytes() / item_bytes
    }

    /// Seconds this device needs for `work` units.
    pub fn seconds_for(&self, work: u64) -> f64 {
        work as f64 / self.throughput
    }

    /// A DVFS-scaled variant of this device running at `frequency` of its
    /// nominal clock (in `(0, 1]`).
    ///
    /// Throughput scales linearly with frequency; active power follows
    /// the classic `P ∝ f·V²` with voltage roughly proportional to
    /// frequency in the DVFS range, i.e. `P ∝ f³` — the model behind the
    /// race-to-idle ablation (the HiKey970's clusters are specified "up
    /// to" their clocks for exactly this reason).
    ///
    /// # Panics
    ///
    /// Panics if `frequency` is outside `(0, 1]`.
    pub fn scaled(&self, frequency: f64) -> DeviceProfile {
        assert!(
            frequency > 0.0 && frequency <= 1.0,
            "frequency fraction {frequency} outside (0, 1]"
        );
        DeviceProfile {
            name: format!("{} @{:.0}%", self.name, frequency * 100.0),
            throughput: self.throughput * frequency,
            active_power_w: self.active_power_w * frequency.powi(3),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> DeviceProfile {
        DeviceProfile::new("test", DeviceKind::Cpu, 4, 1e9, 16 << 30, 100.0)
    }

    #[test]
    fn accessors() {
        let d = device();
        assert_eq!(d.name(), "test");
        assert_eq!(d.kind(), DeviceKind::Cpu);
        assert_eq!(d.compute_units(), 4);
        assert_eq!(d.memory_bytes(), 16 << 30);
        assert_eq!(d.active_power_w(), 100.0);
    }

    #[test]
    fn quarter_ram_rule() {
        assert_eq!(device().max_alloc_bytes(), 4 << 30);
    }

    #[test]
    fn max_items_plans_batches() {
        let d = DeviceProfile::new("t", DeviceKind::Gpu, 1, 1.0, 4096, 1.0);
        assert_eq!(d.max_items(100), 10);
        assert_eq!(d.max_items(0), usize::MAX);
    }

    #[test]
    fn time_model_is_linear() {
        let d = device();
        assert_eq!(d.seconds_for(0), 0.0);
        assert!((d.seconds_for(2_000_000_000) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn occupancy_model() {
        let d = device(); // latency_hiding 1 by default
        assert_eq!(d.occupancy(1 << 20), 1.0);
        let gpu = device().with_occupancy_model(48 << 10, 64);
        // 1 KiB per item → 48 resident < 64 wanted → 75 % throughput.
        assert!((gpu.occupancy(1 << 10) - 0.75).abs() < 1e-12);
        // Tiny footprint → full occupancy; zero footprint = insensitive.
        assert_eq!(gpu.occupancy(64), 1.0);
        assert_eq!(gpu.occupancy(0), 1.0);
        // Gigantic footprint floors at one resident item per unit.
        assert!((gpu.occupancy(1 << 30) - 1.0 / 64.0).abs() < 1e-12);
        // Time model composes.
        let slow = gpu.seconds_for_with_footprint(1_000_000_000, 1 << 10);
        let fast = gpu.seconds_for_with_footprint(1_000_000_000, 64);
        assert!(slow > fast);
    }

    #[test]
    fn dvfs_scaling_model() {
        let d = device();
        let half = d.scaled(0.5);
        assert!((half.throughput() - 0.5e9).abs() < 1.0);
        // P ∝ f³: half frequency → one eighth the active power.
        assert!((half.active_power_w() - 12.5).abs() < 1e-9);
        assert!(half.name().contains("@50%"));
        // Energy per work unit = P/throughput: scaling down wins on
        // active energy (f³/f = f²)…
        let energy_full = d.active_power_w() / d.throughput();
        let energy_half = half.active_power_w() / half.throughput();
        assert!(energy_half < energy_full);
        let full = d.scaled(1.0);
        assert_eq!(full.throughput(), d.throughput());
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn bad_frequency_rejected() {
        let _ = device().scaled(0.0);
    }

    #[test]
    #[should_panic(expected = "throughput")]
    fn zero_throughput_rejected() {
        let _ = DeviceProfile::new("bad", DeviceKind::Cpu, 1, 0.0, 1, 0.0);
    }

    #[test]
    #[should_panic(expected = "compute unit")]
    fn zero_units_rejected() {
        let _ = DeviceProfile::new("bad", DeviceKind::Cpu, 0, 1.0, 1, 0.0);
    }
}
