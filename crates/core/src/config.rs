//! REPUTE configuration.

use repute_filter::oss::{InvalidParamsError, OssParams};
use repute_prefilter::{qgram, PrefilterMode};

/// Scheduling policy of the multi-device executor (see
/// [`crate::Schedule`] for the full semantics). Both policies produce
/// byte-identical mapping output; they differ only in how simulated
/// device time is spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleMode {
    /// Fixed contiguous per-device shares — the paper's user-specified
    /// distribution (and this crate's historical behaviour).
    #[default]
    Static,
    /// Devices greedily pull quarter-RAM-capped batches from a shared
    /// queue, balancing skewed per-read work automatically.
    Dynamic,
}

impl ScheduleMode {
    /// Parses a CLI-style mode name (`static` / `dynamic`).
    pub fn parse(name: &str) -> Option<ScheduleMode> {
        match name {
            "static" => Some(ScheduleMode::Static),
            "dynamic" => Some(ScheduleMode::Dynamic),
            _ => None,
        }
    }
}

impl std::fmt::Display for ScheduleMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ScheduleMode::Static => "static",
            ScheduleMode::Dynamic => "dynamic",
        })
    }
}

/// Configuration of a [`crate::ReputeMapper`].
///
/// # Example
///
/// ```
/// use repute_core::ReputeConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = ReputeConfig::new(5, 12)?.with_max_locations(100);
/// assert_eq!(config.delta(), 5);
/// assert_eq!(config.max_locations(), 100);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReputeConfig {
    oss: OssParams,
    max_locations: usize,
    prefilter: PrefilterMode,
    prefilter_q: usize,
    prefilter_bin_width: usize,
    schedule: ScheduleMode,
    host_threads: usize,
    max_retries: usize,
}

/// Default retry budget for transient kernel-launch faults (see
/// [`ReputeConfig::with_max_retries`]).
pub const DEFAULT_MAX_RETRIES: usize = 2;

/// Bytes of device output buffer one read needs when up to
/// `max_locations` of its locations are reported (position, strand and
/// distance per slot) — the quantity the OpenCL 1.2 restrictions make
/// static (§III), and so what the executor's batches and the daemon's
/// job cap are sized by.
pub fn output_slot_bytes(max_locations: usize) -> usize {
    // position u32 + distance u32 + strand u8 (padded)
    max_locations * 12
}

impl ReputeConfig {
    /// Creates a configuration for `delta` errors with minimum k-mer
    /// length `s_min` and the paper's default limit of 1000 locations per
    /// read.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParamsError`] under the conditions of
    /// [`OssParams::new`].
    pub fn new(delta: u32, s_min: usize) -> Result<ReputeConfig, InvalidParamsError> {
        Ok(ReputeConfig {
            oss: OssParams::new(delta, s_min)?,
            max_locations: 1000,
            prefilter: PrefilterMode::None,
            prefilter_q: qgram::DEFAULT_Q,
            prefilter_bin_width: qgram::DEFAULT_BIN_WIDTH,
            schedule: ScheduleMode::Static,
            host_threads: 0,
            max_retries: DEFAULT_MAX_RETRIES,
        })
    }

    /// Sets the retry budget for transient kernel-launch faults: a launch
    /// failing transiently is retried after an exponential simulated
    /// backoff up to this many times before the executor escalates the
    /// device to a permanent loss and fails its batches over to the
    /// surviving devices. `0` disables retries (every transient fault
    /// escalates immediately). Only consulted when a fault plan is
    /// active. The default is [`DEFAULT_MAX_RETRIES`].
    pub fn with_max_retries(mut self, max_retries: usize) -> ReputeConfig {
        self.max_retries = max_retries;
        self
    }

    /// The transient-fault retry budget.
    pub fn max_retries(&self) -> usize {
        self.max_retries
    }

    /// Selects the multi-device scheduling policy; the default is
    /// [`ScheduleMode::Static`] (the paper's user-specified shares).
    pub fn with_schedule(mut self, schedule: ScheduleMode) -> ReputeConfig {
        self.schedule = schedule;
        self
    }

    /// Caps the host threads the executor may use; `0` (the default)
    /// lets the executor decide — one per host core, never more than
    /// there are reads, under either schedule (reads are mapped one job
    /// each, whatever the batches). `1` maps on the caller's thread.
    pub fn with_host_threads(mut self, host_threads: usize) -> ReputeConfig {
        self.host_threads = host_threads;
        self
    }

    /// The selected multi-device scheduling policy.
    pub fn schedule(&self) -> ScheduleMode {
        self.schedule
    }

    /// The executor's host-thread cap (`0` = automatic).
    pub fn host_threads(&self) -> usize {
        self.host_threads
    }

    /// Overrides the *first-n* output-slot limit per read.
    ///
    /// # Panics
    ///
    /// Panics if `limit == 0`.
    pub fn with_max_locations(mut self, limit: usize) -> ReputeConfig {
        assert!(limit > 0, "location limit must be positive");
        self.max_locations = limit;
        self
    }

    /// Selects the pre-alignment filter stage (see
    /// [`repute_prefilter::PrefilterMode`]); the default is
    /// [`PrefilterMode::None`]. Filters are sound, so this changes
    /// mapping cost only, never mapping output.
    pub fn with_prefilter(mut self, mode: PrefilterMode) -> ReputeConfig {
        self.prefilter = mode;
        self
    }

    /// Overrides the q-gram bin filter's parameters (gram length `q`
    /// and reference bin width in bases). Only consulted when the
    /// prefilter mode uses q-gram bins; non-default values make the
    /// mapper build its own bins instead of sharing the index's.
    ///
    /// # Panics
    ///
    /// Panics under the conditions of
    /// [`repute_prefilter::QgramBins::build`]: `q` outside
    /// `1..=`[`qgram::MAX_Q`] or a zero bin width.
    pub fn with_prefilter_qgram(mut self, q: usize, bin_width: usize) -> ReputeConfig {
        assert!(
            (1..=qgram::MAX_Q).contains(&q),
            "prefilter q must be in 1..={}",
            qgram::MAX_Q
        );
        assert!(bin_width > 0, "prefilter bin width must be positive");
        self.prefilter_q = q;
        self.prefilter_bin_width = bin_width;
        self
    }

    /// The selected pre-alignment filter mode.
    pub fn prefilter(&self) -> PrefilterMode {
        self.prefilter
    }

    /// The q-gram length of the bin filter.
    pub fn prefilter_q(&self) -> usize {
        self.prefilter_q
    }

    /// The reference bin width (bases) of the bin filter.
    pub fn prefilter_bin_width(&self) -> usize {
        self.prefilter_bin_width
    }

    /// `true` when the q-gram bin parameters match the prefilter
    /// crate's defaults — i.e. the bins prebuilt by
    /// [`repute_mappers::IndexedReference`] can be shared as-is.
    pub fn prefilter_uses_default_bins(&self) -> bool {
        self.prefilter_q == qgram::DEFAULT_Q && self.prefilter_bin_width == qgram::DEFAULT_BIN_WIDTH
    }

    /// The error budget δ.
    pub fn delta(&self) -> u32 {
        self.oss.delta()
    }

    /// The minimum k-mer length `S_min`.
    pub fn s_min(&self) -> usize {
        self.oss.s_min()
    }

    /// The per-read output-slot limit.
    pub fn max_locations(&self) -> usize {
        self.max_locations
    }

    /// The underlying DP parameters.
    pub fn oss_params(&self) -> &OssParams {
        &self.oss
    }

    /// [`output_slot_bytes`] of this configuration's `max_locations`.
    pub fn output_slot_bytes(&self) -> usize {
        output_slot_bytes(self.max_locations)
    }

    /// Returns `true` if a read of `read_len` bases is mappable under this
    /// configuration.
    pub fn feasible_for(&self, read_len: usize) -> bool {
        self.oss.feasible_for(read_len)
    }

    /// Estimated private-memory bytes one read's kernel instance needs:
    /// the DP tables (see
    /// [`OssParams::dp_footprint_bytes`](repute_filter::oss::OssParams::dp_footprint_bytes)),
    /// one frequency column of FM intervals, the blocked-Myers state and
    /// the packed read. Feeding this to the platform simulator's
    /// occupancy model reproduces the §IV link between `S_min` and GPU
    /// throughput.
    pub fn kernel_footprint_bytes(&self, read_len: usize) -> usize {
        let column = (self.s_min() + repute_filter::freq::MAX_EXTRA) * 8;
        let myers_state = read_len.div_ceil(64) * 16;
        self.oss.dp_footprint_bytes(read_len) + column + myers_state + read_len.div_ceil(4) + 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let config = ReputeConfig::new(5, 12).unwrap();
        assert_eq!(config.delta(), 5);
        assert_eq!(config.s_min(), 12);
        assert_eq!(config.max_locations(), 1000);
        assert!(config.feasible_for(100));
        assert!(!config.feasible_for(60));
    }

    #[test]
    fn invalid_params_propagate() {
        assert!(ReputeConfig::new(5, 0).is_err());
    }

    #[test]
    fn kernel_footprint_shrinks_with_s_min() {
        // The §IV mechanism: larger S_min → smaller DP tables → smaller
        // kernel → better GPU occupancy.
        let small = ReputeConfig::new(4, 12)
            .unwrap()
            .kernel_footprint_bytes(100);
        let large = ReputeConfig::new(4, 20)
            .unwrap()
            .kernel_footprint_bytes(100);
        assert!(
            large < small,
            "footprint: s_min 12 → {small}, s_min 20 → {large}"
        );
        // Infeasible read: DP contributes 0; the column (31 intervals of
        // 8 bytes), one Myers block (16), the packed read (10) and the
        // fixed slack (64) remain.
        assert_eq!(
            ReputeConfig::new(7, 15).unwrap().kernel_footprint_bytes(40),
            (15 + 16) * 8 + 16 + 10 + 64
        );
    }

    #[test]
    fn output_slots_scale_with_limit() {
        let config = ReputeConfig::new(3, 12).unwrap().with_max_locations(100);
        assert_eq!(config.output_slot_bytes(), 1200);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_limit_rejected() {
        let _ = ReputeConfig::new(3, 12).unwrap().with_max_locations(0);
    }

    #[test]
    fn prefilter_knobs_default_off_and_round_trip() {
        let config = ReputeConfig::new(5, 12).unwrap();
        assert_eq!(config.prefilter(), PrefilterMode::None);
        assert!(config.prefilter_uses_default_bins());
        let tuned = config
            .with_prefilter(PrefilterMode::Both)
            .with_prefilter_qgram(4, 128);
        assert_eq!(tuned.prefilter(), PrefilterMode::Both);
        assert_eq!(tuned.prefilter_q(), 4);
        assert_eq!(tuned.prefilter_bin_width(), 128);
        assert!(!tuned.prefilter_uses_default_bins());
    }

    #[test]
    #[should_panic(expected = "bin width")]
    fn zero_bin_width_rejected() {
        let _ = ReputeConfig::new(3, 12).unwrap().with_prefilter_qgram(5, 0);
    }

    #[test]
    fn schedule_knobs_default_off_and_round_trip() {
        let config = ReputeConfig::new(5, 12).unwrap();
        assert_eq!(config.schedule(), ScheduleMode::Static);
        assert_eq!(config.host_threads(), 0);
        assert_eq!(config.max_retries(), DEFAULT_MAX_RETRIES);
        let tuned = config
            .with_schedule(ScheduleMode::Dynamic)
            .with_host_threads(2)
            .with_max_retries(5);
        assert_eq!(tuned.schedule(), ScheduleMode::Dynamic);
        assert_eq!(tuned.host_threads(), 2);
        assert_eq!(tuned.max_retries(), 5);
    }

    #[test]
    fn schedule_mode_parses_and_displays() {
        assert_eq!(ScheduleMode::parse("static"), Some(ScheduleMode::Static));
        assert_eq!(ScheduleMode::parse("dynamic"), Some(ScheduleMode::Dynamic));
        assert_eq!(ScheduleMode::parse("greedy"), None);
        assert_eq!(ScheduleMode::Dynamic.to_string(), "dynamic");
        assert_eq!(ScheduleMode::default(), ScheduleMode::Static);
    }
}
