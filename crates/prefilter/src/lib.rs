//! Bit-parallel pre-alignment filtering for the REPUTE pipeline.
//!
//! Myers bit-vector verification dominates per-read work: every merged
//! candidate window costs `O(window · ⌈read/64⌉)` word updates whether
//! or not it contains a real mapping. The accelerator literature fixes
//! this with *pre-alignment filters* — cheap checks that reject most
//! false candidates before any dynamic programming, while never
//! rejecting a true one:
//!
//! * **GateKeeper** (Alser et al.) computes Shifted Hamming Distance
//!   masks in FPGA logic — see [`shd::ShdFilter`] for the portable
//!   bit-parallel reformulation used here.
//! * **GRIM-Filter** (Kim et al.) keeps per-region q-gram existence
//!   bitvectors in 3D-stacked memory — see [`qgram::QgramBins`] /
//!   [`qgram::QgramFilter`].
//!
//! Both are expressed behind one [`PreFilter`] trait so the
//! verification engine can run none, either, or [`Chain`] both. The
//! load-bearing contract is **zero false negatives**: a filter may pass
//! junk (cost: one wasted verification, which the caller counts as a
//! *false accept*), but any window the verifier would accept within δ
//! must survive filtration — otherwise filtration changes mapping
//! output, not just mapping cost. Each filter documents its safety
//! argument, and `tests/` checks both against `repute_align::verify`
//! as oracle.
//!
//! Costs are reported in the platform simulator's currency: one unit ≈
//! one 64-lane bitwise word operation, the same unit as a Myers word
//! update, so saved and spent work subtract meaningfully in device
//! timelines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod qgram;
pub mod shd;

pub use qgram::{QgramBins, QgramFilter};
pub use shd::ShdFilter;

use std::fmt;
use std::str::FromStr;

/// One candidate handed to a filter: a read (2-bit codes) against the
/// reference window verification would inspect for one merged diagonal.
#[derive(Debug, Clone, Copy)]
pub struct Candidate<'a> {
    /// The read's 2-bit codes (already strand-oriented).
    pub read: &'a [u8],
    /// The reference window verification would align against — for the
    /// standard engine, `read.len() + 2δ` bases (clamped at reference
    /// edges).
    pub window: &'a [u8],
    /// Absolute reference position of `window[0]`, for filters indexed
    /// by reference coordinate (q-gram bins).
    pub window_start: usize,
    /// The error budget δ the verifier will be run with.
    pub delta: u32,
}

/// A filter's answer for one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// `true` to forward the candidate to verification.
    pub accept: bool,
    /// Work spent deciding, in word-operation units (the Myers
    /// word-update currency of `MapOutput.work`).
    pub cost_words: u64,
}

impl Verdict {
    /// An accepting verdict with the given cost.
    pub fn accept(cost_words: u64) -> Verdict {
        Verdict {
            accept: true,
            cost_words,
        }
    }

    /// A rejecting verdict with the given cost.
    pub fn reject(cost_words: u64) -> Verdict {
        Verdict {
            accept: false,
            cost_words,
        }
    }
}

/// A pre-alignment filter: decides, per candidate window, whether the
/// Myers verifier needs to run at all.
///
/// # Contract
///
/// Implementations MUST be sound — zero false negatives: if
/// `repute_align::verify(read, window, delta)` would return `Some`,
/// `examine` must accept. False positives are allowed (they cost one
/// verification and are accounted as false accepts by the engine).
/// `Debug + Sync` are required so engines stay derivable and shareable
/// across simulator worker threads.
pub trait PreFilter: fmt::Debug + Sync {
    /// Examines one candidate.
    fn examine(&self, candidate: &Candidate<'_>) -> Verdict;

    /// Examines a contiguous batch of candidates (all windows of one
    /// read, in the engine's structure-of-arrays candidate buffer),
    /// pushing one verdict per candidate onto `verdicts` in input
    /// order.
    ///
    /// The default delegates to [`PreFilter::examine`] per candidate,
    /// so every filter keeps identical verdicts and cost accounting on
    /// both entry points; filters with batch-amortisable setup may
    /// override.
    fn examine_batch(&self, candidates: &[Candidate<'_>], verdicts: &mut Vec<Verdict>) {
        for candidate in candidates {
            verdicts.push(self.examine(candidate));
        }
    }

    /// Short display name for reports (e.g. `"shd"`).
    fn name(&self) -> &'static str;
}

/// Applies filters in order, rejecting on the first rejection
/// (short-circuit) and summing costs. Sound whenever every part is:
/// a true candidate survives each filter individually, hence the chain.
#[derive(Debug, Default)]
pub struct Chain<'a> {
    parts: Vec<&'a dyn PreFilter>,
}

impl<'a> Chain<'a> {
    /// Builds a chain over `parts`, applied in order — put the cheapest
    /// filter first.
    pub fn new(parts: Vec<&'a dyn PreFilter>) -> Chain<'a> {
        Chain { parts }
    }

    /// `true` when the chain has no filters (accepts everything at
    /// zero cost).
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

impl PreFilter for Chain<'_> {
    fn examine(&self, candidate: &Candidate<'_>) -> Verdict {
        let mut cost = 0u64;
        for part in &self.parts {
            let verdict = part.examine(candidate);
            cost += verdict.cost_words;
            if !verdict.accept {
                return Verdict::reject(cost);
            }
        }
        Verdict::accept(cost)
    }

    fn name(&self) -> &'static str {
        "chain"
    }
}

/// Which pre-alignment filters to run, as selected by `--prefilter`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrefilterMode {
    /// No filtration: every merged candidate is verified (the seed
    /// pipeline's behaviour, and the default).
    #[default]
    None,
    /// Shifted Hamming Distance only.
    Shd,
    /// Q-gram bin existence only.
    Qgram,
    /// Q-gram bins first (cheaper), then SHD on survivors.
    Both,
}

impl PrefilterMode {
    /// All modes, in ablation-sweep order.
    pub const ALL: [PrefilterMode; 4] = [
        PrefilterMode::None,
        PrefilterMode::Shd,
        PrefilterMode::Qgram,
        PrefilterMode::Both,
    ];

    /// `true` when the mode runs the SHD filter.
    #[cfg(test)]
    fn uses_shd(self) -> bool {
        matches!(self, PrefilterMode::Shd | PrefilterMode::Both)
    }

    /// `true` when the mode runs the q-gram bin filter.
    pub fn uses_qgram(self) -> bool {
        matches!(self, PrefilterMode::Qgram | PrefilterMode::Both)
    }
}

impl fmt::Display for PrefilterMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PrefilterMode::None => "none",
            PrefilterMode::Shd => "shd",
            PrefilterMode::Qgram => "qgram",
            PrefilterMode::Both => "both",
        })
    }
}

/// Error parsing a [`PrefilterMode`] from a CLI flag value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModeError(String);

impl fmt::Display for ParseModeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown prefilter mode {:?} (expected none, shd, qgram or both)",
            self.0
        )
    }
}

impl std::error::Error for ParseModeError {}

impl FromStr for PrefilterMode {
    type Err = ParseModeError;

    fn from_str(s: &str) -> Result<PrefilterMode, ParseModeError> {
        match s {
            "none" => Ok(PrefilterMode::None),
            "shd" => Ok(PrefilterMode::Shd),
            "qgram" => Ok(PrefilterMode::Qgram),
            "both" => Ok(PrefilterMode::Both),
            other => Err(ParseModeError(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Fixed(bool, u64);

    impl PreFilter for Fixed {
        fn examine(&self, _c: &Candidate<'_>) -> Verdict {
            Verdict {
                accept: self.0,
                cost_words: self.1,
            }
        }
        fn name(&self) -> &'static str {
            "fixed"
        }
    }

    fn candidate<'a>(read: &'a [u8], window: &'a [u8]) -> Candidate<'a> {
        Candidate {
            read,
            window,
            window_start: 0,
            delta: 3,
        }
    }

    #[test]
    fn chain_sums_costs_and_short_circuits() {
        let yes = Fixed(true, 5);
        let no = Fixed(false, 7);
        let unreachable = Fixed(true, 1000);
        let c = candidate(&[0, 1], &[0, 1]);

        let chain = Chain::new(vec![&yes, &no, &unreachable]);
        assert_eq!(chain.examine(&c), Verdict::reject(12));

        let chain = Chain::new(vec![&yes, &yes]);
        assert_eq!(chain.examine(&c), Verdict::accept(10));

        let empty = Chain::new(vec![]);
        assert!(empty.is_empty());
        assert_eq!(empty.examine(&c), Verdict::accept(0));
    }

    #[test]
    fn examine_batch_default_matches_per_candidate() {
        let yes = Fixed(true, 5);
        let no = Fixed(false, 7);
        let chain = Chain::new(vec![&yes, &no]);
        let c = candidate(&[0, 1], &[0, 1]);
        let batch = [c, c, c];
        let mut verdicts = Vec::new();
        chain.examine_batch(&batch, &mut verdicts);
        assert_eq!(verdicts.len(), 3);
        for (i, v) in verdicts.iter().enumerate() {
            assert_eq!(*v, chain.examine(&batch[i]));
        }
    }

    #[test]
    fn mode_round_trips_through_strings() {
        for mode in PrefilterMode::ALL {
            assert_eq!(mode.to_string().parse::<PrefilterMode>(), Ok(mode));
        }
        assert!("fast".parse::<PrefilterMode>().is_err());
        assert!(PrefilterMode::Both.uses_shd() && PrefilterMode::Both.uses_qgram());
        assert!(!PrefilterMode::None.uses_shd() && !PrefilterMode::None.uses_qgram());
        assert_eq!(PrefilterMode::default(), PrefilterMode::None);
    }
}
