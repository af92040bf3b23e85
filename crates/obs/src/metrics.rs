//! Gauges, retained samples and the wall-clock stage timer.

use std::time::Instant;

/// A level that moves both ways — queue depths, in-flight batches —
/// tracked together with its high-water mark.
///
/// Counters only grow; a gauge additionally answers "how deep did it
/// ever get", which is the number an admission-control layer reports.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Gauge {
    value: u64,
    max: u64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the current level, updating the high-water mark.
    pub fn set(&mut self, value: u64) {
        self.value = value;
        self.max = self.max.max(value);
    }

    /// Raises the level by `n`.
    pub fn add(&mut self, n: u64) {
        self.set(self.value + n);
    }

    /// Lowers the level by `n` (saturating at zero).
    pub fn sub(&mut self, n: u64) {
        self.value = self.value.saturating_sub(n);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.value
    }

    /// Highest level ever set.
    pub fn high_water(&self) -> u64 {
        self.max
    }
}

/// Retained samples for exact percentile extraction.
///
/// For bounded populations — one value per stage per read, one per
/// batch, one per job — where exact p50/p90/p99 are wanted.
/// Percentiles use the nearest-rank definition: for `n`
/// samples and quantile `q`, the answer is the `ceil(q·n)`-th smallest
/// (clamped to `[1, n]`), so every reported percentile is an actual
/// observed value.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Samples {
        Samples::default()
    }

    /// Builds a sample set from a slice of values in one sort
    /// (non-finite values are dropped so ordering stays total).
    pub fn from_values(values: &[f64]) -> Samples {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        sorted.sort_by(f64::total_cmp);
        Samples { sorted }
    }

    /// Records one observation; non-finite values are ignored.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let at = self.sorted.partition_point(|&x| x < value);
        self.sorted.insert(at, value);
    }

    /// Number of retained observations.
    pub fn count(&self) -> u64 {
        self.sorted.len() as u64
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Exact nearest-rank percentile for quantile `q` in `[0, 1]`;
    /// `0.0` when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.len();
        let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
        self.sorted[rank.clamp(1, n) - 1]
    }

    /// Shorthand for the (p50, p90, p99) triple.
    pub fn p50_p90_p99(&self) -> (f64, f64, f64) {
        (
            self.percentile(0.50),
            self.percentile(0.90),
            self.percentile(0.99),
        )
    }
}

/// A wall-clock timer for named, nestable pipeline stages.
///
/// Stages are identified by slash-joined paths: starting `"map"` and then
/// `"filter"` inside it accumulates time under both `"map"` and
/// `"map/filter"`. Totals are kept in first-start order.
#[derive(Debug, Default)]
pub struct StageTimer {
    stack: Vec<(&'static str, Instant)>,
    totals: Vec<(String, f64, u64)>,
}

impl StageTimer {
    /// A timer with no open stages.
    pub fn new() -> StageTimer {
        StageTimer::default()
    }

    /// Opens a stage nested inside the currently open one (if any).
    pub fn start(&mut self, name: &'static str) {
        self.stack.push((name, Instant::now()));
    }

    /// Closes the innermost open stage, accumulating its wall time under
    /// its full path. Returns the elapsed seconds of this activation.
    ///
    /// # Panics
    ///
    /// Panics if no stage is open.
    pub fn stop(&mut self) -> f64 {
        let Some((_, started)) = self.stack.last().copied() else {
            panic!("no stage open");
        };
        let elapsed = started.elapsed().as_secs_f64();
        let path = self
            .stack
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join("/");
        self.stack.pop();
        match self.totals.iter_mut().find(|(p, _, _)| *p == path) {
            Some((_, secs, n)) => {
                *secs += elapsed;
                *n += 1;
            }
            None => self.totals.push((path, elapsed, 1)),
        }
        elapsed
    }

    /// Runs `f` inside a stage named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut StageTimer) -> R) -> R {
        self.start(name);
        let out = f(self);
        self.stop();
        out
    }

    /// Depth of currently open stages.
    #[cfg(test)]
    fn open_depth(&self) -> usize {
        self.stack.len()
    }

    /// `(path, total_seconds, activations)` per stage, in first-start
    /// order.
    pub fn stages(&self) -> &[(String, f64, u64)] {
        &self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_tracks_level_and_high_water() {
        let mut g = Gauge::new();
        assert_eq!((g.get(), g.high_water()), (0, 0));
        g.add(3);
        g.add(2);
        assert_eq!((g.get(), g.high_water()), (5, 5));
        g.sub(4);
        assert_eq!((g.get(), g.high_water()), (1, 5));
        g.sub(9); // saturates
        assert_eq!(g.get(), 0);
        g.set(2);
        assert_eq!((g.get(), g.high_water()), (2, 5));
    }

    #[test]
    fn samples_empty_yields_zero_percentiles() {
        let s = Samples::new();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.p50_p90_p99(), (0.0, 0.0, 0.0));
        assert_eq!(s.percentile(1.0), 0.0);
    }

    #[test]
    fn samples_single_value_is_every_percentile() {
        let s = Samples::from_values(&[7.25]);
        assert_eq!(s.percentile(0.0), 7.25);
        assert_eq!(s.percentile(0.5), 7.25);
        assert_eq!(s.percentile(0.99), 7.25);
        assert_eq!(s.percentile(1.0), 7.25);
    }

    #[test]
    fn samples_all_equal_yields_that_value() {
        let s = Samples::from_values(&[3.0; 17]);
        assert_eq!(s.p50_p90_p99(), (3.0, 3.0, 3.0));
    }

    #[test]
    fn samples_nearest_rank_on_known_population() {
        // 1..=100: nearest-rank p50 = 50th smallest = 50, p90 = 90, p99 = 99.
        let values: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        let s = Samples::from_values(&values);
        assert_eq!(s.percentile(0.50), 50.0);
        assert_eq!(s.percentile(0.90), 90.0);
        assert_eq!(s.percentile(0.99), 99.0);
        assert_eq!(s.percentile(1.0), 100.0);
        // Quantiles are clamped, not extrapolated.
        assert_eq!(s.percentile(-0.5), 1.0);
        assert_eq!(s.percentile(2.0), 100.0);
    }

    #[test]
    fn samples_ignore_non_finite_and_accept_unsorted_input() {
        let s = Samples::from_values(&[5.0, f64::NAN, 1.0, f64::INFINITY, 3.0]);
        assert_eq!(s.count(), 3);
        assert_eq!(s.percentile(1.0), 5.0);
        assert_eq!(s.percentile(0.0), 1.0);
    }

    #[test]
    fn samples_percentiles_are_monotone_under_seeded_inputs() {
        // The unit-sized variant of the property in tests/props.rs:
        // p50 ≤ p90 ≤ p99 and each percentile is an
        // observed value, for a spread of pseudo-random populations.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..64 {
            let n = (next() % 200 + 1) as usize;
            let values: Vec<f64> = (0..n).map(|_| (next() % 10_000) as f64 / 8.0).collect();
            let s = Samples::from_values(&values);
            let (p50, p90, p99) = s.p50_p90_p99();
            assert!(p50 <= p90 && p90 <= p99, "round {round}: {p50} {p90} {p99}");
            for p in [p50, p90, p99] {
                assert!(values.contains(&p), "round {round}: {p} not observed");
            }
        }
    }

    #[test]
    fn stage_timer_nesting_builds_paths() {
        let mut t = StageTimer::new();
        t.start("map");
        t.start("filter");
        assert_eq!(t.open_depth(), 2);
        t.stop();
        t.time("verify", |t| {
            t.start("myers");
            t.stop();
        });
        t.stop();
        assert_eq!(t.open_depth(), 0);
        let paths: Vec<&str> = t.stages().iter().map(|(p, _, _)| p.as_str()).collect();
        assert_eq!(
            paths,
            vec!["map/filter", "map/verify/myers", "map/verify", "map"]
        );
        // Re-entering a stage accumulates rather than duplicating.
        t.start("map");
        t.stop();
        let map = t.stages().iter().find(|(p, _, _)| p == "map").unwrap();
        assert_eq!(map.2, 2);
        assert_eq!(t.stages().len(), 4);
    }

    #[test]
    #[should_panic(expected = "no stage open")]
    fn stage_timer_stop_without_start_panics() {
        StageTimer::new().stop();
    }
}
