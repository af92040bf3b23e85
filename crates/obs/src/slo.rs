//! Per-tenant deadline SLO accounting over a sliding simulated-time
//! window.
//!
//! The serve daemon promises deadline-carrying jobs an answer by their
//! absolute simulated-time deadline. [`SloTracker`] folds every
//! deadline outcome — met (the batch committed in time), missed (the
//! batch committed late), or shed (the job was dropped while queued) —
//! into a per-tenant hit rate over a trailing window, the same sliding
//! window the tenant quota gate uses. Everything runs on the simulated
//! clock, so reports are deterministic and replayable.

/// One tenant's deadline outcomes over the current window.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Tenant name.
    pub tenant: String,
    /// Deadline-carrying jobs answered by their deadline.
    pub met: u64,
    /// Deadline-carrying jobs answered late or shed.
    pub missed: u64,
}

impl SloReport {
    /// Fraction of deadline-carrying jobs that met their deadline
    /// (`1.0` when the window holds no outcomes).
    pub fn hit_rate(&self) -> f64 {
        let total = self.met + self.missed;
        if total == 0 {
            1.0
        } else {
            self.met as f64 / total as f64
        }
    }
}

/// Sliding-window deadline hit-rate tracker (see the module docs).
///
/// Only deadline-carrying jobs are recorded; best-effort jobs have no
/// SLO. Outcomes outside the trailing `window_s` simulated seconds are
/// pruned on [`SloTracker::snapshot`].
#[derive(Debug, Clone)]
pub struct SloTracker {
    window_s: f64,
    // (tenant, outcome time, met) — pruned as the window slides.
    outcomes: Vec<(String, f64, bool)>,
}

impl SloTracker {
    /// A tracker with a trailing window of `window_s` simulated seconds
    /// (non-positive windows never expire outcomes).
    pub fn new(window_s: f64) -> SloTracker {
        SloTracker {
            window_s: if window_s > 0.0 { window_s } else { f64::MAX },
            outcomes: Vec::new(),
        }
    }

    /// Records one deadline outcome at simulated time `at_s`: `met` is
    /// whether the job was answered by its deadline (a shed job records
    /// `false`).
    pub fn record(&mut self, tenant: &str, at_s: f64, met: bool) {
        self.outcomes.push((tenant.to_string(), at_s, met));
    }

    /// Per-tenant reports over the window trailing `now`, tenant
    /// name-sorted (deterministic). Prunes expired outcomes.
    pub fn snapshot(&mut self, now: f64) -> Vec<SloReport> {
        let horizon = now - self.window_s;
        self.outcomes.retain(|(_, at, _)| *at > horizon);
        let mut reports: Vec<SloReport> = Vec::new();
        for (tenant, _, met) in &self.outcomes {
            let at = reports.partition_point(|r| r.tenant.as_str() < tenant.as_str());
            if reports.get(at).is_none_or(|r| &r.tenant != tenant) {
                reports.insert(
                    at,
                    SloReport {
                        tenant: tenant.clone(),
                        met: 0,
                        missed: 0,
                    },
                );
            }
            if *met {
                reports[at].met += 1;
            } else {
                reports[at].missed += 1;
            }
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_counts_met_and_missed() {
        let mut slo = SloTracker::new(60.0);
        slo.record("acme", 1.0, true);
        slo.record("acme", 2.0, true);
        slo.record("acme", 3.0, false);
        slo.record("lab", 4.0, false);
        let reports = slo.snapshot(10.0);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].tenant, "acme");
        assert_eq!((reports[0].met, reports[0].missed), (2, 1));
        assert!((reports[0].hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(reports[1].tenant, "lab");
        assert_eq!(reports[1].hit_rate(), 0.0);
    }

    #[test]
    fn window_slides_on_the_simulated_clock() {
        let mut slo = SloTracker::new(10.0);
        slo.record("acme", 0.0, false);
        slo.record("acme", 8.0, true);
        // At t=9 both outcomes are live.
        assert_eq!(slo.snapshot(9.0)[0].missed, 1);
        // At t=10.5 the t=0 miss has expired; only the hit remains.
        let reports = slo.snapshot(10.5);
        assert_eq!((reports[0].met, reports[0].missed), (1, 0));
        assert_eq!(reports[0].hit_rate(), 1.0);
    }

    #[test]
    fn reports_are_tenant_sorted_and_empty_window_is_empty() {
        let mut slo = SloTracker::new(5.0);
        assert!(slo.snapshot(0.0).is_empty());
        slo.record("zeta", 1.0, true);
        slo.record("alpha", 1.0, true);
        slo.record("mid", 1.0, false);
        let names: Vec<String> = slo.snapshot(2.0).into_iter().map(|r| r.tenant).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn non_positive_window_never_expires() {
        let mut slo = SloTracker::new(0.0);
        slo.record("acme", 0.0, true);
        assert_eq!(slo.snapshot(1e12)[0].met, 1);
    }
}
