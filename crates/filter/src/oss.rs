//! Memory-optimised dynamic-programming seed selection.
//!
//! This is the paper's core contribution (§II-B): partition a read of
//! length `n` into δ+1 contiguous seeds, each at least `S_min` long, such
//! that the total number of candidate locations is minimal. The algorithm
//! runs δ iterations; iteration `t` computes, for every admissible prefix
//! length `p`, the best way to split that prefix into `t+1` seeds, reusing
//! iteration `t−1` (the "1st section" of the paper's Fig. 2) and adding
//! one more seed (the "2nd section"). Backtracking over the stored optimal
//! dividers recovers the full partition.
//!
//! Two departures from the original Optimal Seed Solver, both from the
//! paper, are implemented and ablatable via [`Exploration`]:
//!
//! * **restricted exploration space** — iteration `t` only considers
//!   prefix lengths in `[S_min·(t+1), n − S_min·(δ−t)]` (any other prefix
//!   cannot appear in a feasible solution), shrinking both DP time and the
//!   divider tables that must be kept for backtracking;
//! * **bit-width minimisation** — divider tables store `u16` positions and
//!   cost tables `u32` counts, the paper's "optimized the bitwidths of
//!   variables to reduce memory footprint".

use std::error::Error;
use std::fmt;

use crate::freq::FreqTable;
use crate::seed::{Seed, SeedSelection, SelectionStats};

/// Saturation cap for accumulated candidate counts.
const COST_CAP: u32 = u32::MAX / 2;

/// Which prefix lengths each DP iteration explores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Exploration {
    /// The paper's memory optimisation: only prefixes that can appear in a
    /// feasible δ+1 partition.
    #[default]
    Restricted,
    /// The original OSS behaviour: every prefix up to the full read, at
    /// each iteration (more DP cells and larger divider tables, identical
    /// result — kept for the ablation benches).
    Full,
}

/// Parameters of the DP filtration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OssParams {
    delta: u32,
    s_min: usize,
    exploration: Exploration,
    early_termination: bool,
}

/// Error returned for parameter combinations that cannot describe a
/// pigeonhole filtration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidParamsError {
    message: String,
}

impl fmt::Display for InvalidParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid filtration parameters: {}", self.message)
    }
}

impl Error for InvalidParamsError {}

impl OssParams {
    /// Creates parameters for `delta` errors and minimum seed length
    /// `s_min`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParamsError`] if `s_min == 0` or the partition
    /// arithmetic would overflow `u16` read positions.
    pub fn new(delta: u32, s_min: usize) -> Result<OssParams, InvalidParamsError> {
        if s_min == 0 {
            return Err(InvalidParamsError {
                message: "minimum seed length must be positive".into(),
            });
        }
        let seeds = delta as usize + 1;
        if s_min
            .checked_mul(seeds)
            .filter(|&v| v <= u16::MAX as usize)
            .is_none()
        {
            return Err(InvalidParamsError {
                message: format!("s_min {s_min} × {seeds} seeds exceeds the u16 position range"),
            });
        }
        Ok(OssParams {
            delta,
            s_min,
            exploration: Exploration::default(),
            early_termination: true,
        })
    }

    /// Switches the exploration space (see [`Exploration`]).
    pub fn exploration(mut self, exploration: Exploration) -> OssParams {
        self.exploration = exploration;
        self
    }

    /// The error budget δ.
    pub fn delta(&self) -> u32 {
        self.delta
    }

    /// Number of seeds, δ + 1.
    pub fn seed_count(&self) -> usize {
        self.delta as usize + 1
    }

    /// The minimum seed length `S_min`.
    pub fn s_min(&self) -> usize {
        self.s_min
    }

    /// Enables or disables the Optimal Seed Solver's early divider
    /// termination and zero-cost early leave (both exact; on by default —
    /// the paper "retained all the optimizations proposed in" OSS).
    /// Turning them off is for the ablation benches.
    pub fn early_termination(mut self, enabled: bool) -> OssParams {
        self.early_termination = enabled;
        self
    }

    /// Returns `true` if a [`crate::freq::FreqTable`] built with `other`
    /// serves this solver: the table layout depends on δ, `S_min` and the
    /// exploration space, but not on the divider-scan optimisations.
    pub fn table_compatible(&self, other: &OssParams) -> bool {
        self.delta == other.delta
            && self.s_min == other.s_min
            && self.exploration == other.exploration
    }

    /// For a seed ending at read position `p` (read length `read_len`),
    /// the longest seed any DP iteration can ask about — or `None` when
    /// no iteration's window contains `p` (the column is dead space the
    /// restricted exploration never touches).
    ///
    /// Iteration `t` owns prefixes `[s_min·(t+1), n − s_min·(δ−t)]` and
    /// dividers `≥ s_min·t`, so a seed ending at `p` in iteration `t` has
    /// length at most `p − s_min·t`; the smallest valid `t` gives the
    /// bound. Under [`Exploration::Full`] every column is live with an
    /// unbounded (read-length) depth, as in the original OSS.
    pub fn max_seed_len_at(&self, p: usize, read_len: usize) -> Option<usize> {
        let s_min = self.s_min;
        let delta = self.delta as usize;
        if p < s_min || p > read_len {
            return None;
        }
        if matches!(self.exploration, Exploration::Full) {
            return Some(p);
        }
        // Smallest t with p ≤ n − s_min·(δ − t).
        let deficit = (p + s_min * delta).saturating_sub(read_len);
        let t_min = deficit.div_ceil(s_min);
        // Also need p ≥ s_min·(t+1), i.e. t ≤ p/s_min − 1.
        if t_min + 1 > p / s_min || t_min > delta {
            return None;
        }
        if t_min == 0 {
            // Base case: only the prefix seed [0..p] itself.
            Some(p)
        } else {
            Some(p - s_min * t_min)
        }
    }

    /// Returns `true` if a read of `read_len` bases can be partitioned
    /// into δ+1 seeds of at least `S_min`.
    pub fn feasible_for(&self, read_len: usize) -> bool {
        read_len >= self.s_min * self.seed_count() && read_len <= u16::MAX as usize
    }

    /// Estimated working-memory bytes of the DP for one read: the two
    /// live cost rows (`u32`) plus the δ divider tables (`u16`) kept for
    /// backtracking. This is the quantity the restricted exploration
    /// space shrinks — and, through GPU occupancy, the §IV explanation of
    /// why the paper's mapping time depends on `S_min` (Fig. 4).
    ///
    /// Returns 0 for infeasible reads.
    pub fn dp_footprint_bytes(&self, read_len: usize) -> usize {
        if !self.feasible_for(read_len) {
            return 0;
        }
        let delta = self.delta as usize;
        let mut divider_entries = 0usize;
        let mut max_window = 0usize;
        for t in 1..=delta {
            let lo = self.s_min * (t + 1);
            let hi = match self.exploration {
                Exploration::Restricted => read_len - self.s_min * (delta - t),
                Exploration::Full => read_len,
            };
            let width = hi - lo + 1;
            divider_entries += width;
            max_window = max_window.max(width);
        }
        let base_width = match self.exploration {
            Exploration::Restricted => read_len - self.s_min * delta - self.s_min + 1,
            Exploration::Full => read_len - self.s_min + 1,
        };
        max_window = max_window.max(base_width);
        2 * max_window * 4 + divider_entries * 2
    }
}

/// Result of a selection call: the chosen seeds plus cost accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectionOutcome {
    /// The chosen partition.
    pub selection: SeedSelection,
    /// Substrate work and memory spent choosing it.
    pub stats: SelectionStats,
}

impl SelectionOutcome {
    /// Records the DP-side work into a per-read metric record: the cells
    /// the solver filled and the seeds it chose. The FM extensions in
    /// `stats.extend_ops` are deliberately *not* added here — they belong
    /// to the [`FreqTable`] that performed them
    /// (see [`crate::freq::FreqTable::record_metrics`]), and counting them
    /// in both places would double-book the filtration stage.
    pub fn record_metrics(&self, metrics: &mut repute_obs::MapMetrics) {
        metrics.dp_cells += self.stats.dp_cells;
        metrics.seeds_selected += self.selection.seeds.len() as u64;
    }
}

/// Step-by-step record of one DP run, for the paper's Fig. 2.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OssTrace {
    /// Per-iteration divider decisions: `iterations[t]` holds
    /// `(prefix_len, divider, cost)` for each explored prefix.
    pub iterations: Vec<Vec<(usize, usize, u32)>>,
    /// The dividers recovered by backtracking (positions between seeds).
    pub dividers: Vec<usize>,
}

/// The memory-optimised DP seed selector.
///
/// See the [module documentation](self) for the algorithm; see
/// [`crate::lib`-level docs](crate) for a usage example.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OssSolver {
    params: OssParams,
}

impl OssSolver {
    /// Creates a solver with the given parameters.
    pub fn new(params: OssParams) -> OssSolver {
        OssSolver { params }
    }

    /// Selects the optimal δ+1 seed partition for `read`.
    ///
    /// # Panics
    ///
    /// Panics if the partition is infeasible
    /// (`!params.feasible_for(read.len())`) or `table` was built for a
    /// different read length / smaller `s_min`.
    pub fn select(&self, read: &[u8], table: &FreqTable) -> SelectionOutcome {
        self.run(read, table, None)
    }

    /// Like [`OssSolver::select`], also recording the per-iteration
    /// decisions (used to regenerate the paper's Fig. 2).
    pub fn select_traced(&self, read: &[u8], table: &FreqTable) -> (SelectionOutcome, OssTrace) {
        let mut trace = OssTrace::default();
        let outcome = self.run(read, table, Some(&mut trace));
        (outcome, trace)
    }

    fn run(
        &self,
        read: &[u8],
        table: &FreqTable,
        mut trace: Option<&mut OssTrace>,
    ) -> SelectionOutcome {
        let n = read.len();
        let p = &self.params;
        assert!(
            p.feasible_for(n),
            "read of length {n} cannot host {} seeds of at least {}",
            p.seed_count(),
            p.s_min()
        );
        assert!(
            table.read_len() == n && p.table_compatible(table.params()),
            "frequency table mismatch (table: len {}, params {:?}; solver params {:?})",
            table.read_len(),
            table.params(),
            p
        );
        let delta = p.delta as usize;
        let s_min = p.s_min;

        let window = |t: usize| -> (usize, usize) {
            let lo = s_min * (t + 1);
            let hi = match p.exploration {
                Exploration::Restricted => n - s_min * (delta - t),
                Exploration::Full => n,
            };
            (lo, hi)
        };

        let mut dp_cells = 0u64;
        // opt[p - lo] for the current iteration's window.
        let (lo0, hi0) = window(0);
        let mut prev_lo = lo0;
        let mut prev_opt: Vec<u32> = (lo0..=hi0).map(|pl| table.count(0, pl)).collect();
        dp_cells += prev_opt.len() as u64;
        // Divider tables, one per iteration, kept for backtracking — this
        // is the memory the restricted exploration space shrinks.
        let mut dividers: Vec<(usize, Vec<u16>)> = Vec::with_capacity(delta);
        let mut peak_bytes = prev_opt.len() * 4;

        if let Some(tr) = trace.as_deref_mut() {
            tr.iterations.push(
                (lo0..=hi0)
                    .map(|pl| (pl, 0usize, table.count(0, pl)))
                    .collect(),
            );
        }

        for t in 1..=delta {
            let (lo, hi) = window(t);
            let mut opt = vec![COST_CAP; hi - lo + 1];
            let mut div = vec![0u16; hi - lo + 1];
            let (dlo, dhi) = window(t - 1);
            // Prefix minima of the previous iteration: `prefix_min[i]` is
            // the best first-section cost over dividers `dlo..=dlo+i`.
            // This is the exact form of the Optimal Seed Solver's early
            // divider termination — seed counts are non-negative, so once
            // every *remaining* divider's first section already costs at
            // least the best total, the scan can stop. (A simple
            // monotonicity break is not sound here: the capped frequency
            // table can make `opt` non-monotone across columns.)
            let mut prefix_min = Vec::with_capacity(prev_opt.len());
            let mut running = COST_CAP;
            for &v in &prev_opt {
                running = running.min(v);
                prefix_min.push(running);
            }
            for pl in lo..=hi {
                let mut best = COST_CAP;
                let mut best_d = 0usize;
                // Divider d splits prefix pl into [.. d] (t seeds) and
                // [d .. pl] (the new seed, ≥ s_min long), scanned from the
                // longest first section down.
                let d_hi = pl.saturating_sub(s_min).min(dhi);
                for d in (dlo..=d_hi).rev() {
                    dp_cells += 1;
                    if self.params.early_termination && prefix_min[d - prev_lo] >= best {
                        break;
                    }
                    let left = prev_opt[d - prev_lo];
                    if left >= best {
                        continue; // cannot improve: the new seed costs ≥ 0
                    }
                    let cost = left.saturating_add(table.count(d, pl)).min(COST_CAP);
                    if cost < best {
                        best = cost;
                        best_d = d;
                        // OSS early leave: a zero-candidate split is
                        // unbeatable.
                        if self.params.early_termination && best == 0 {
                            break;
                        }
                    }
                }
                opt[pl - lo] = best;
                div[pl - lo] = best_d as u16;
            }
            if let Some(tr) = trace.as_deref_mut() {
                tr.iterations.push(
                    (lo..=hi)
                        .map(|pl| (pl, div[pl - lo] as usize, opt[pl - lo]))
                        .collect(),
                );
            }
            let live = opt.len() * 4
                + prev_opt.len() * 4
                + dividers.iter().map(|(_, v)| v.len() * 2).sum::<usize>()
                + div.len() * 2;
            peak_bytes = peak_bytes.max(live);
            dividers.push((lo, div));
            prev_opt = opt;
            prev_lo = lo;
        }

        // Backtrack from the full read.
        let mut cuts = vec![n];
        let mut cursor = n;
        for (lo, div) in dividers.iter().rev() {
            cursor = div[cursor - lo] as usize;
            cuts.push(cursor);
        }
        cuts.push(0);
        cuts.reverse();

        if let Some(tr) = trace {
            tr.dividers = cuts[1..cuts.len() - 1].to_vec();
        }

        let cap = table.s_min() + crate::freq::MAX_EXTRA;
        let seeds: Vec<Seed> = cuts
            .windows(2)
            .map(|w| {
                let (start, end) = (w[0], w[1]);
                let interval = table.interval(start, end);
                // A capped seed's interval belongs to its suffix; anchor
                // candidate diagonals there.
                let anchor = start.max(end.saturating_sub(cap));
                Seed {
                    start,
                    len: end - start,
                    count: interval.map_or(0, |iv| iv.width()),
                    interval,
                    anchor,
                }
            })
            .collect();

        SelectionOutcome {
            selection: SeedSelection { seeds },
            stats: SelectionStats {
                extend_ops: table.extend_ops(),
                dp_cells,
                peak_bytes,
            },
        }
    }
}

impl crate::SeedSelector for OssSolver {
    fn strategy_name(&self) -> &str {
        "oss-covering"
    }

    fn select_seeds(
        &self,
        read: &[u8],
        fm: &repute_index::FmIndex,
    ) -> (crate::SeedSelection, crate::SelectionStats) {
        let table = FreqTable::build(fm, read, &self.params);
        let outcome = self.select(read, &table);
        (outcome.selection, outcome.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repute_genome::synth::ReferenceBuilder;
    use repute_genome::DnaSeq;
    use repute_index::FmIndex;

    fn setup(len: usize) -> (DnaSeq, FmIndex) {
        let reference = ReferenceBuilder::new(len).seed(13).build();
        let fm = FmIndex::build(&reference);
        (reference, fm)
    }

    fn brute_force_best(table: &FreqTable, n: usize, delta: usize, s_min: usize) -> u64 {
        // Enumerate all partitions recursively (small cases only).
        fn rec(table: &FreqTable, start: usize, n: usize, parts: usize, s_min: usize) -> u64 {
            if parts == 1 {
                return if n - start >= s_min {
                    u64::from(table.count(start, n))
                } else {
                    u64::MAX / 4
                };
            }
            let mut best = u64::MAX / 4;
            for cut in (start + s_min)..=(n - s_min * (parts - 1)) {
                let here = u64::from(table.count(start, cut));
                let rest = rec(table, cut, n, parts - 1, s_min);
                best = best.min(here + rest);
            }
            best
        }
        rec(table, 0, n, delta + 1, s_min)
    }

    #[test]
    fn params_validation() {
        assert!(OssParams::new(5, 0).is_err());
        assert!(OssParams::new(5, 12).is_ok());
        assert!(OssParams::new(7, 10_000).is_err());
        let p = OssParams::new(5, 12).unwrap();
        assert!(p.feasible_for(100));
        assert!(!p.feasible_for(71)); // needs 72
        assert_eq!(p.seed_count(), 6);
    }

    #[test]
    fn produces_valid_partition() {
        let (reference, fm) = setup(30_000);
        for (read_len, delta, s_min) in [(100, 5, 12), (150, 7, 15), (100, 3, 20)] {
            let read = reference.subseq(777..777 + read_len).to_codes();
            let params = OssParams::new(delta, s_min).unwrap();
            let table = FreqTable::build(&fm, &read, &params);
            let outcome = OssSolver::new(params).select(&read, &table);
            assert_eq!(outcome.selection.seeds.len(), delta as usize + 1);
            assert!(
                outcome.selection.is_valid_partition(read_len, s_min),
                "invalid partition for delta={delta} s_min={s_min}"
            );
        }
    }

    #[test]
    fn matches_brute_force_optimum() {
        let (reference, fm) = setup(15_000);
        for seed_off in [100usize, 900, 4242] {
            let read = reference.subseq(seed_off..seed_off + 60).to_codes();
            let params = OssParams::new(2, 10).unwrap();
            let table = FreqTable::build(&fm, &read, &params);
            let outcome = OssSolver::new(params).select(&read, &table);
            let best = brute_force_best(&table, 60, 2, 10);
            assert_eq!(
                outcome.selection.total_candidates(),
                best,
                "offset {seed_off}"
            );
        }
    }

    #[test]
    fn full_and_restricted_exploration_agree_on_partition_validity() {
        let (reference, fm) = setup(20_000);
        let read = reference.subseq(3000..3100).to_codes();
        let restricted = OssParams::new(5, 12).unwrap();
        let full = restricted.exploration(Exploration::Full);
        let rt = FreqTable::build(&fm, &read, &restricted);
        let ft = FreqTable::build(&fm, &read, &full);
        let a = OssSolver::new(restricted).select(&read, &rt);
        let b = OssSolver::new(full).select(&read, &ft);
        assert!(a.selection.is_valid_partition(100, 12));
        assert!(b.selection.is_valid_partition(100, 12));
        // The restriction is the memory/time optimisation:
        assert!(a.stats.dp_cells <= b.stats.dp_cells);
        assert!(a.stats.peak_bytes <= b.stats.peak_bytes);
        assert!(rt.extend_ops() <= ft.extend_ops());
        // Both explorations reach an optimal partition of their own cost
        // model; with the full table's deeper columns the cost models can
        // differ only by capped-seed approximation, so the candidate
        // totals stay close.
        let (ca, cb) = (
            a.selection.total_candidates(),
            b.selection.total_candidates(),
        );
        assert!(
            ca <= cb.saturating_mul(2) + 8 && cb <= ca.saturating_mul(2) + 8,
            "restricted {ca} vs full {cb} diverged"
        );
    }

    #[test]
    fn early_termination_preserves_optimality_with_fewer_cells() {
        // A repeat-rich reference makes the capped frequency table bind,
        // which is exactly the regime where a naive monotonicity-based
        // pruning would lose optimality.
        let reference = ReferenceBuilder::new(120_000)
            .seed(13)
            .repeat_families(vec![
                repute_genome::synth::RepeatFamily {
                    unit_len: 80,
                    copies: 100,
                    divergence: 0.01,
                },
                repute_genome::synth::RepeatFamily {
                    unit_len: 300,
                    copies: 50,
                    divergence: 0.015,
                },
            ])
            .build();
        let fm = FmIndex::build(&reference);
        for delta in [3u32, 5] {
            let params = OssParams::new(delta, 12).unwrap();
            let slow = params.early_termination(false);
            let mut saved_somewhere = false;
            for off in (0..100_000).step_by(1709) {
                let read = reference.subseq(off..off + 100).to_codes();
                let table = FreqTable::build(&fm, &read, &params);
                let fast = OssSolver::new(params).select(&read, &table);
                let full = OssSolver::new(slow).select(&read, &table);
                assert_eq!(
                    fast.selection.total_candidates(),
                    full.selection.total_candidates(),
                    "optimality lost at offset {off} (δ={delta})"
                );
                assert!(fast.stats.dp_cells <= full.stats.dp_cells);
                saved_somewhere |= fast.stats.dp_cells < full.stats.dp_cells;
            }
            assert!(saved_somewhere, "early termination never pruned anything");
        }
    }

    #[test]
    fn table_compatibility_ignores_scan_optimisations() {
        let a = OssParams::new(4, 12).unwrap();
        let b = a.early_termination(false);
        assert!(a.table_compatible(&b));
        let c = a.exploration(Exploration::Full);
        assert!(!a.table_compatible(&c));
        let d = OssParams::new(5, 12).unwrap();
        assert!(!a.table_compatible(&d));
    }

    #[test]
    #[should_panic(expected = "frequency table mismatch")]
    fn table_and_solver_params_must_match() {
        let (reference, fm) = setup(20_000);
        let read = reference.subseq(3000..3100).to_codes();
        let restricted = OssParams::new(5, 12).unwrap();
        let full = restricted.exploration(Exploration::Full);
        let table = FreqTable::build(&fm, &read, &restricted);
        let _ = OssSolver::new(full).select(&read, &table);
    }

    #[test]
    fn beats_or_ties_uniform_partition() {
        let (reference, fm) = setup(40_000);
        let params = OssParams::new(5, 12).unwrap();
        for off in (0..20_000).step_by(3011) {
            let read = reference.subseq(off..off + 100).to_codes();
            let table = FreqTable::build(&fm, &read, &params);
            let outcome = OssSolver::new(params).select(&read, &table);
            // Uniform partition into 6 seeds (len 17, last 15).
            let cuts = [0usize, 17, 34, 51, 68, 85, 100];
            let uniform_total: u64 = cuts
                .windows(2)
                .map(|w| u64::from(table.count(w[0], w[1])))
                .sum();
            assert!(
                outcome.selection.total_candidates() <= uniform_total,
                "DP worse than uniform at offset {off}"
            );
        }
    }

    #[test]
    fn trace_records_delta_plus_one_iterations_and_dividers() {
        let (reference, fm) = setup(20_000);
        let read = reference.subseq(123..223).to_codes();
        let params = OssParams::new(5, 12).unwrap();
        let table = FreqTable::build(&fm, &read, &params);
        let (outcome, trace) = OssSolver::new(params).select_traced(&read, &table);
        assert_eq!(trace.iterations.len(), 6); // base + 5 iterations
        assert_eq!(trace.dividers.len(), 5);
        // Dividers must be strictly increasing and consistent with seeds.
        for w in trace.dividers.windows(2) {
            assert!(w[0] < w[1]);
        }
        let seed_cuts: Vec<usize> = outcome.selection.seeds[1..]
            .iter()
            .map(|s| s.start)
            .collect();
        assert_eq!(trace.dividers, seed_cuts);
    }

    #[test]
    fn seed_intervals_locate_real_occurrences_of_the_capped_suffix() {
        let (reference, fm) = setup(25_000);
        let read = reference.subseq(5000..5100).to_codes();
        let params = OssParams::new(4, 15).unwrap();
        let table = FreqTable::build(&fm, &read, &params);
        let outcome = OssSolver::new(params).select(&read, &table);
        let codes = reference.to_codes();
        for seed in &outcome.selection.seeds {
            if let Some(interval) = seed.interval {
                // Long seeds carry the interval of their capped suffix
                // (see `FreqTable::interval`).
                let suffix_len = seed.len.min(params.s_min() + crate::freq::MAX_EXTRA);
                let suffix_start = seed.end() - suffix_len;
                let positions = fm.locate(interval, 5);
                for pos in positions {
                    let got = &codes[pos as usize..pos as usize + suffix_len];
                    assert_eq!(got, &read[suffix_start..seed.end()]);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot host")]
    fn infeasible_read_rejected() {
        let (reference, fm) = setup(10_000);
        let read = reference.subseq(0..50).to_codes();
        let params = OssParams::new(5, 12).unwrap(); // needs 72 bases
        let table = FreqTable::build(&fm, &read, &params);
        let _ = OssSolver::new(params).select(&read, &table);
    }
}
