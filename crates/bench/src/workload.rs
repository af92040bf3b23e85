//! The scaled evaluation workload.

use std::sync::Arc;

use repute_genome::reads::{ErrorProfile, ReadSimulator, SimRead};
use repute_genome::synth::{ReferenceBuilder, RepeatFamily};
use repute_genome::DnaSeq;
use repute_mappers::IndexedReference;

/// Default reference length (the chr21 stand-in; chr21 itself is ~40 Mbp).
pub const DEFAULT_REF_LEN: usize = 4_000_000;
/// Default reads per read set (the paper maps 1M per set).
pub const DEFAULT_READS: usize = 1_500;

/// Scale of a benchmark run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Reference length in bases.
    pub reference_len: usize,
    /// Reads per read set.
    pub reads_per_set: usize,
}

impl Scale {
    /// The default benchmark scale, overridable via the `REPUTE_REF_LEN`
    /// and `REPUTE_READS` environment variables. A variable that is set
    /// but is not a positive integer prints one line and exits 1: a typo
    /// must not turn a one-second run into the default forty-second one.
    pub fn from_env() -> Scale {
        let setting = |name: &str, default: usize| {
            let value = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
            parse_setting(name, value.as_deref(), default).unwrap_or_else(|err| {
                eprintln!("{err}");
                std::process::exit(1);
            })
        };
        Scale {
            reference_len: setting("REPUTE_REF_LEN", DEFAULT_REF_LEN),
            reads_per_set: setting("REPUTE_READS", DEFAULT_READS),
        }
    }

    /// A small scale for unit tests, and the pinned scale of the
    /// `trajectory` and `verify_kernel` baselines (`BENCH_pr6.json`,
    /// `BENCH_pr8.json`): changing it means regenerating both.
    pub fn tiny() -> Scale {
        Scale {
            reference_len: 60_000,
            reads_per_set: 40,
        }
    }

    /// One-line description for table headers.
    pub fn describe(&self) -> String {
        format!(
            "scale: {:.1} Mbp reference (chr21≈40 Mbp), {} reads/set (paper: 1M/set)",
            self.reference_len as f64 / 1e6,
            self.reads_per_set
        )
    }
}

/// One scale variable: `default` when unset, its value when a positive
/// integer, otherwise a message naming the variable and the value.
fn parse_setting(name: &str, value: Option<&str>, default: usize) -> Result<usize, String> {
    match value.map(|v| (v, v.parse())) {
        None => Ok(default),
        Some((_, Ok(n))) if n > 0 => Ok(n),
        Some((v, _)) => Err(format!("{name}={v:?} is not a positive integer")),
    }
}

/// The full workload of one experiment: indexed reference + both read
/// sets of the paper (n=100 ERR012100-like, n=150 SRR826460-like).
#[derive(Debug, Clone)]
pub struct Workload {
    /// The indexed chr21 stand-in.
    pub indexed: Arc<IndexedReference>,
    /// The n=100 read set with its ground truth.
    pub reads_100: Vec<SimRead>,
    /// The n=150 read set with its ground truth.
    pub reads_150: Vec<SimRead>,
    /// The scale everything was generated at.
    pub scale: Scale,
}

impl Workload {
    /// Generates the workload at the given scale (deterministic).
    ///
    /// The reference carries both *old* (highly diverged) and *young*
    /// (nearly identical) repeat families. The young families are what
    /// make chr21-style mapping hard: copies differ by only 1–2%, so a
    /// read from one copy maps within δ to hundreds of others — the
    /// multi-mapping regime in which seed selection (and the first-n
    /// output limits) actually matter.
    pub fn generate(scale: Scale) -> Workload {
        let len = scale.reference_len;
        let reference = ReferenceBuilder::new(len)
            .seed(0xC21)
            .repeat_families(vec![
                // Old, diverged interspersed repeats (Alu/LINE-like).
                RepeatFamily {
                    unit_len: 300,
                    copies: (len / 1_100).max(1),
                    divergence: 0.12,
                },
                RepeatFamily {
                    unit_len: 2_000,
                    copies: (len / 12_000).max(1),
                    divergence: 0.18,
                },
                // Young subfamilies: nearly identical copies. The short
                // SINE/MIR-like family matters most for the comparison:
                // its units are shorter than a read, so every read that
                // touches a copy has unique flanks — the regime where
                // global seed placement (the DP) beats serial per-section
                // selection.
                RepeatFamily {
                    unit_len: 300,
                    copies: (len / 2_600).max(1),
                    divergence: 0.015,
                },
                RepeatFamily {
                    unit_len: 80,
                    copies: (len / 1_200).max(1),
                    divergence: 0.01,
                },
                RepeatFamily {
                    unit_len: 1_500,
                    copies: (len / 40_000).max(1),
                    divergence: 0.008,
                },
            ])
            .build();
        let reads_100 = ReadSimulator::new(100, scale.reads_per_set)
            .profile(ErrorProfile::err012100())
            .unmappable_fraction(0.02)
            .seed(0x100)
            .simulate(&reference);
        let reads_150 = ReadSimulator::new(150, scale.reads_per_set)
            .profile(ErrorProfile::srr826460())
            .unmappable_fraction(0.02)
            .seed(0x150)
            .simulate(&reference);
        Workload {
            indexed: Arc::new(IndexedReference::build(reference)),
            reads_100,
            reads_150,
            scale,
        }
    }

    /// The read set for a given read length (100 or 150).
    ///
    /// # Panics
    ///
    /// Panics for lengths other than 100 or 150.
    pub fn reads(&self, read_len: usize) -> &[SimRead] {
        match read_len {
            100 => &self.reads_100,
            150 => &self.reads_150,
            other => panic!("no read set of length {other}"),
        }
    }

    /// The read sequences only, for a given read length.
    pub fn read_seqs(&self, read_len: usize) -> Vec<DnaSeq> {
        self.reads(read_len).iter().map(|r| r.seq.clone()).collect()
    }
}

/// The paper's per-read-length minimum k-mer lengths for REPUTE/CORAL
/// (§IV discusses S_min 12–22; these defaults keep every (n, δ) feasible).
pub fn s_min_for(read_len: usize, delta: u32) -> usize {
    let cap = read_len / (delta as usize + 1);
    cap.clamp(10, 15)
}

/// Candidate `S_min` values for per-cell tuning: the paper reports "the
/// best performances of REPUTE taking into consideration the k-mer
/// lengths and workload distribution" (§IV), and uses S_min up to 22 on
/// heterogeneous runs (Fig. 3) because a larger S_min shrinks the kernel
/// and restores GPU occupancy.
pub fn s_min_options(read_len: usize, delta: u32) -> Vec<usize> {
    let mut options = vec![s_min_for(read_len, delta)];
    let large = (read_len / (delta as usize + 1)).min(22);
    if large > options[0] {
        options.push(large);
    }
    options
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_workload_generates_both_sets() {
        let w = Workload::generate(Scale::tiny());
        assert_eq!(w.reads_100.len(), 40);
        assert_eq!(w.reads_150.len(), 40);
        assert_eq!(w.reads(100)[0].seq.len(), 100);
        assert_eq!(w.reads(150)[0].seq.len(), 150);
        assert_eq!(w.indexed.len(), 60_000);
    }

    #[test]
    fn deterministic_generation() {
        let a = Workload::generate(Scale::tiny());
        let b = Workload::generate(Scale::tiny());
        assert_eq!(a.reads_100, b.reads_100);
        assert_eq!(a.indexed.seq(), b.indexed.seq());
    }

    #[test]
    fn s_min_feasible_for_every_paper_cell() {
        for (n, deltas) in [(100usize, [3u32, 4, 5]), (150, [5, 6, 7])] {
            for d in deltas {
                let s = s_min_for(n, d);
                assert!(
                    s * (d as usize + 1) <= n,
                    "infeasible s_min {s} for ({n}, {d})"
                );
                assert!(s >= 10);
            }
        }
    }

    #[test]
    fn workload_reference_has_chr21_like_repeat_mass() {
        // The evaluation's argument (DESIGN.md §2) rests on the synthetic
        // reference carrying real repeat structure; quantify it with the
        // LCP array. Human chr21 has ~40% of positions inside repeats at
        // 20-mer resolution; the stand-in should be within shouting
        // distance and far above a random sequence.
        let w = Workload::generate(Scale {
            reference_len: 200_000,
            reads_per_set: 1,
        });
        let codes = w.indexed.seq().to_codes();
        let sa = repute_index::SuffixArray::from_codes(&codes);
        let lcp = repute_index::LcpArray::build(&codes, &sa);
        let mass = lcp.repeat_fraction(20);
        assert!(
            (0.10..=0.70).contains(&mass),
            "repeat mass {mass} out of the chr21-like range"
        );
        // And the young families leave long near-exact copies around.
        assert!(lcp.longest_repeat() >= 60);
    }

    #[test]
    fn s_min_options_are_feasible_and_deduplicated() {
        for (n, deltas) in [(100usize, [3u32, 4, 5]), (150, [5, 6, 7])] {
            for d in deltas {
                let options = s_min_options(n, d);
                assert!(!options.is_empty());
                let mut sorted = options.clone();
                sorted.dedup();
                assert_eq!(sorted, options);
                for s in options {
                    assert!(
                        s * (d as usize + 1) <= n,
                        "infeasible option {s} for ({n}, {d})"
                    );
                }
            }
        }
        // Large-slack cells offer the paper's S_min=22.
        assert!(s_min_options(150, 5).contains(&22));
    }

    #[test]
    #[should_panic(expected = "no read set")]
    fn unknown_read_length_rejected() {
        let w = Workload::generate(Scale::tiny());
        let _ = w.reads(75);
    }

    #[test]
    fn a_set_but_unusable_scale_variable_is_an_error() {
        assert_eq!(parse_setting("REPUTE_READS", None, 1_500), Ok(1_500));
        assert_eq!(parse_setting("REPUTE_READS", Some("60"), 1_500), Ok(60));
        for bad in ["6o", "0", "", "-3", " 60"] {
            let err = parse_setting("REPUTE_READS", Some(bad), 1_500).unwrap_err();
            assert!(err.contains("REPUTE_READS") && err.contains(bad), "{err}");
            assert_eq!(err.lines().count(), 1);
        }
    }

    #[test]
    fn scale_describe_mentions_numbers() {
        let d = Scale::tiny().describe();
        assert!(d.contains("0.1 Mbp"));
        assert!(d.contains("40 reads"));
    }
}
