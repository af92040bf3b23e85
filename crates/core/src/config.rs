//! REPUTE configuration: what a read's mappings depend on
//! ([`ReputeConfig`]), and beside it the schedule modes and retry
//! default of the run settings an [`Executor`](crate::Executor) carries.

use repute_filter::oss::{InvalidParamsError, OssParams};
use repute_genome::wire::Fnv64;
use repute_prefilter::{qgram, PrefilterMode};

use crate::ReputeError;

/// Scheduling policy of the multi-device executor (see
/// [`crate::Schedule`] for the full semantics). Both policies produce
/// byte-identical mapping output; they differ only in how simulated
/// device time is spent. The discriminants are the stable codes run
/// fingerprints store (`mode as u64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleMode {
    /// Fixed contiguous per-device shares — the paper's user-specified
    /// distribution (and this crate's historical behaviour).
    #[default]
    Static = 0,
    /// Devices greedily pull quarter-RAM-capped batches from a shared
    /// queue, balancing skewed per-read work automatically.
    Dynamic = 1,
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

/// Default retry budget for transient kernel-launch faults (see
/// [`Executor::max_retries`](crate::Executor::max_retries)).
pub const DEFAULT_MAX_RETRIES: usize = 2;

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
}

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
        })
    }

    /// The configuration `repute map` and the daemon run with: [`new`]
    /// with `max_locations` output slots and `prefilter`, invalid seeding
    /// parameters a [`ReputeError::Config`].
    ///
    /// [`new`]: ReputeConfig::new
    ///
    /// # Errors
    ///
    /// [`ReputeError::Config`] under the conditions of
    /// [`OssParams::new`].
    ///
    /// # Panics
    ///
    /// Panics if `max_locations == 0`.
    pub fn build(
        delta: u32,
        s_min: usize,
        max_locations: usize,
        prefilter: PrefilterMode,
    ) -> Result<ReputeConfig, ReputeError> {
        Ok(ReputeConfig::new(delta, s_min)
            .map_err(|e| ReputeError::Config(e.to_string()))?
            .with_max_locations(max_locations)
            .with_prefilter(prefilter))
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
    /// mapping cost only, never mapping output. The q-gram bins it may
    /// probe are the index's, at the prefilter crate's
    /// [`qgram::DEFAULT_Q`] and [`qgram::DEFAULT_BIN_WIDTH`].
    pub fn with_prefilter(mut self, mode: PrefilterMode) -> ReputeConfig {
        self.prefilter = mode;
        self
    }

    /// The selected pre-alignment filter mode.
    pub fn prefilter(&self) -> PrefilterMode {
        self.prefilter
    }

    /// Folds what decides this configuration's mappings and their cost
    /// into `h`: δ, `S_min`, the slot count, the prefilter code, and the
    /// q-gram length and bin width of the bins the prefilter probes —
    /// constants now, still folded so a journal written while they were
    /// settable resumes. Every run fingerprint writes these words through
    /// here.
    pub fn fold_identity(&self, h: &mut Fnv64) {
        h.write_u64(u64::from(self.delta()));
        h.write_u64(self.s_min() as u64);
        h.write_u64(self.max_locations as u64);
        h.write_u64(self.prefilter as u64);
        h.write_u64(qgram::DEFAULT_Q as u64);
        h.write_u64(qgram::DEFAULT_BIN_WIDTH as u64);
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
        let tuned = config.with_prefilter(PrefilterMode::Both);
        assert_eq!(tuned.prefilter(), PrefilterMode::Both);
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
