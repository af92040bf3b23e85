//! The paper's evidence — Tables I–IV, Figs. 1–4 — plus the design
//! ablations and the work-profile diagnostic, as library code behind the
//! one `paper` binary.
//!
//! Every artefact maps the same [`Workload`] and returns a [`Report`]:
//! the text of the table or figure and the *shape claims* it supports,
//! each a labelled predicate computed from the artefact's own data. The
//! reproduction target is shapes — who wins, where a crossover falls,
//! which curve has an interior minimum — so a claim carries the smallest
//! reference length at which it is expected to hold, and below that
//! length it is skipped instead of asserted. `paper` prints one `shape:`
//! line per claim and exits 1 when one that applies fails; a tier-1 test
//! evaluates every scale-free claim at [`Scale::tiny`].

use crate::workload::{Scale, Workload, DEFAULT_REF_LEN};

mod ablations;
mod figures;
mod tables;

/// One shape claim of an artefact, already evaluated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Claim {
    /// What is claimed, in the words of EXPERIMENTS.md.
    pub label: String,
    /// The smallest reference length at which the claim is expected to
    /// hold; 0 for a claim that holds at every scale.
    pub min_ref_len: usize,
    /// Whether the artefact's data satisfies it.
    pub holds: bool,
}

impl Claim {
    /// A claim expected to hold at every scale.
    pub fn new(label: impl Into<String>, holds: bool) -> Claim {
        Claim {
            label: label.into(),
            min_ref_len: 0,
            holds,
        }
    }

    /// A who-wins-on-time claim: candidate volumes, which decide those,
    /// grow with the reference, and the paper's orderings only appear
    /// from the default 4 Mbp scale (EXPERIMENTS.md records the sweep).
    pub fn at_full_scale(label: impl Into<String>, holds: bool) -> Claim {
        Claim {
            min_ref_len: DEFAULT_REF_LEN,
            ..Claim::new(label, holds)
        }
    }

    /// `ok`, `FAILED`, or `skipped (needs ≥ …)` below the claim's scale.
    pub fn verdict(&self, scale: Scale) -> String {
        if scale.reference_len < self.min_ref_len {
            let mbp = self.min_ref_len as f64 / 1e6;
            format!("skipped (needs ≥ {mbp} Mbp)")
        } else if self.holds {
            "ok".to_string()
        } else {
            "FAILED".to_string()
        }
    }
}

/// What one artefact produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// The table or figure as text, header lines included.
    pub text: String,
    /// The shape claims computed from the same data.
    pub claims: Vec<Claim>,
}

impl Report {
    /// The text followed by one `shape:` line per claim.
    pub fn render(&self, scale: Scale) -> String {
        let mut out = self.text.clone();
        if !self.claims.is_empty() {
            out.push('\n');
        }
        for claim in &self.claims {
            out += &format!("shape: {} … {}\n", claim.label, claim.verdict(scale));
        }
        out
    }

    /// The claims that apply at `scale` and do not hold.
    pub fn failures(&self, scale: Scale) -> impl Iterator<Item = &Claim> {
        let applies = move |c: &&Claim| scale.reference_len >= c.min_ref_len && !c.holds;
        self.claims.iter().filter(applies)
    }
}

/// The artefact names `paper` accepts, in `paper all` order.
pub const ARTEFACTS: [&str; 10] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "ablations",
    "work_profile",
];

/// What an artefact function returns: it `writeln!`s into a `String`.
type Written<T> = Result<T, std::fmt::Error>;

/// Runs one artefact of [`ARTEFACTS`] on `w`; `None` for any other name.
pub fn run(artefact: &str, w: &Workload) -> Option<Report> {
    let report = match artefact {
        "table1" => tables::run_table(w, &tables::TABLE1),
        "table2" => tables::run_table(w, &tables::TABLE2),
        "table3" => tables::run_table(w, &tables::TABLE3),
        "table4" => tables::table4(w),
        "fig1" => figures::fig1(w),
        "fig2" => figures::fig2(w),
        "fig3" => figures::fig3(w),
        "fig4" => figures::fig4(w),
        "ablations" => ablations::ablations(w),
        "work_profile" => ablations::work_profile(w),
        _ => return None,
    };
    Some(report.expect("writing to a String cannot fail"))
}

/// The header every table and figure opens with.
fn header(title: &str, scale: Scale) -> String {
    format!("{title}\n{}\ngenerating workload…\n", scale.describe())
}

/// The index of the first minimum of `values`, and whether it is
/// interior (neither the first nor the last point).
fn minimum(values: &[f64]) -> (usize, bool) {
    let at = (0..values.len())
        .min_by(|&a, &b| values[a].total_cmp(&values[b]))
        .expect("a sweep has points");
    (at, at > 0 && at + 1 < values.len())
}
