//! The cell runner: one mapper × one configuration × one platform.

use std::sync::Arc;

use repute_core::{map_on_platform_with_metrics, MappingRun};
use repute_eval::accuracy::{all_locations_accuracy, any_best_accuracy, GoldStandard};
use repute_eval::CellResult;
use repute_genome::DnaSeq;
use repute_hetsim::{EnergyReport, Platform, Share};
use repute_mappers::razers3::Razers3Like;
use repute_mappers::{IndexedReference, Mapper, Mapping};
use repute_obs::{MapMetrics, Record, RunReport};

/// Which of the paper's accuracy methodologies a cell is scored with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccuracyMethod {
    /// §III-A: every gold location must be recovered.
    AllLocations,
    /// §III-B/C: one best-stratum location per read suffices.
    AnyBest,
}

/// Everything one cell run produced.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Time and accuracy, ready for a results table.
    pub result: CellResult,
    /// Per-read mapping lists (for downstream gold-standard use).
    pub outputs: Vec<Vec<Mapping>>,
    /// §III-D power/energy measurement of the run.
    pub energy: EnergyReport,
    /// Total substrate work of the run.
    pub work: u64,
    /// Per-read pipeline telemetry, index-aligned with `outputs`.
    pub metrics: Vec<MapMetrics>,
    /// Run-level roll-up: counters, device timelines, energy summary.
    pub report: RunReport,
}

impl CellOutcome {
    /// Writes the cell's full telemetry as JSON-lines: one `read` record
    /// per read followed by the [`RunReport`] records.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn write_json_lines<W: std::io::Write>(&self, out: &mut W) -> std::io::Result<()> {
        for (id, m) in self.metrics.iter().enumerate() {
            writeln!(out, "{}", m.to_json_line(id as u64))?;
        }
        self.report.write_json_lines(out)
    }

    /// Appends this cell's telemetry to the file named by the
    /// `REPUTE_METRICS_OUT` environment variable, prefixed with a `cell`
    /// record carrying `label`. A no-op when the variable is unset; export
    /// failures are reported to stderr, never fatal to the benchmark.
    pub fn export_if_requested(&self, label: &str) {
        let Ok(path) = std::env::var("REPUTE_METRICS_OUT") else {
            return;
        };
        let result = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|file| {
                let mut out = std::io::BufWriter::new(file);
                use std::io::Write as _;
                writeln!(out, "{}", Record::Cell(label.to_string()).encode())?;
                self.write_json_lines(&mut out)
            });
        if let Err(err) = result {
            eprintln!("warning: metrics export to {path} failed: {err}");
        }
    }
}

/// Builds the §III-A gold standard: the RazerS3-style all-mapper with its
/// paper configuration (100 locations per read).
pub fn gold_standard(
    indexed: &Arc<IndexedReference>,
    delta: u32,
    reads: &[DnaSeq],
) -> GoldStandard {
    let gold_mapper = Razers3Like::new(Arc::clone(indexed), delta);
    let per_read = reads
        .iter()
        .map(|r| gold_mapper.map_read(r).mappings)
        .collect();
    GoldStandard::new(per_read)
}

/// Runs `mapper` over `reads` on `platform` with the given distribution
/// and scores it against `gold`.
///
/// # Panics
///
/// Panics if the launch distribution is invalid for the platform (the
/// harness constructs its own shares, so this indicates a harness bug).
pub fn run_cell(
    mapper: &dyn Mapper,
    reads: &[DnaSeq],
    platform: &Platform,
    shares: &[Share],
    gold: &GoldStandard,
    method: AccuracyMethod,
    tolerance: u32,
) -> CellOutcome {
    let (run, metrics): (MappingRun, Vec<MapMetrics>) =
        map_on_platform_with_metrics(&mapper, platform, shares, reads)
            .expect("harness-built shares are valid");
    let report = run.report(platform, &metrics);
    let outputs: Vec<Vec<Mapping>> = run.outputs.iter().map(|o| o.mappings.clone()).collect();
    let accuracy_pct = match method {
        AccuracyMethod::AllLocations => all_locations_accuracy(gold, &outputs, tolerance),
        AccuracyMethod::AnyBest => any_best_accuracy(gold, &outputs, tolerance),
    };
    CellOutcome {
        result: CellResult {
            time_s: run.simulated_seconds,
            accuracy_pct,
        },
        outputs,
        energy: run.energy,
        work: run.total_work(),
        metrics,
        report,
    }
}

/// Position-matching tolerance for accuracy comparisons: mappers report
/// either candidate diagonals or end-derived starts, each accurate to ±δ,
/// so two mappers' positions for the same location can differ by 2δ
/// (Rabema's interval matching absorbs the same slack).
pub fn match_tolerance(delta: u32) -> u32 {
    2 * delta
}

/// The standard per-table cell grid of the paper: `(read_len, δ)` pairs.
pub const PAPER_GRID: [(usize, u32); 6] =
    [(100, 3), (100, 4), (100, 5), (150, 5), (150, 6), (150, 7)];

/// Column labels for [`PAPER_GRID`].
pub fn grid_columns() -> Vec<String> {
    PAPER_GRID
        .iter()
        .map(|(n, d)| format!("n={n} δ={d}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Scale, Workload};
    use repute_core::{ReputeConfig, ReputeMapper};
    use repute_hetsim::profiles;

    #[test]
    fn repute_scores_high_any_best_on_tiny_workload() {
        let w = Workload::generate(Scale::tiny());
        let reads = w.read_seqs(100);
        let gold = gold_standard(&w.indexed, 3, &reads);
        let mapper = ReputeMapper::new(Arc::clone(&w.indexed), ReputeConfig::new(3, 15).unwrap());
        let platform = profiles::system1_cpu_only();
        let outcome = run_cell(
            &mapper,
            &reads,
            &platform,
            &platform.single_device_share(0, reads.len()),
            &gold,
            AccuracyMethod::AnyBest,
            3,
        );
        assert!(
            outcome.result.accuracy_pct > 95.0,
            "{}",
            outcome.result.accuracy_pct
        );
        assert!(outcome.result.time_s > 0.0);
        assert!(outcome.work > 0);
    }

    #[test]
    fn cell_outcome_carries_consistent_telemetry() {
        use repute_mappers::engine_costs::{DP_CELL_COST, EXTEND_COST, LOCATE_COST};
        use repute_obs::json::{field, parse_flat_object};

        let w = Workload::generate(Scale::tiny());
        let reads: Vec<_> = w.read_seqs(100).into_iter().take(60).collect();
        let gold = gold_standard(&w.indexed, 3, &reads);
        let mapper = ReputeMapper::new(Arc::clone(&w.indexed), ReputeConfig::new(3, 15).unwrap());
        let platform = profiles::system1();
        let shares = repute_core::balanced_shares(&mapper, &platform, 100, reads.len());
        let outcome = run_cell(
            &mapper,
            &reads,
            &platform,
            &shares,
            &gold,
            AccuracyMethod::AnyBest,
            3,
        );
        assert_eq!(outcome.metrics.len(), reads.len());
        assert_eq!(outcome.report.reads, reads.len() as u64);
        // The per-read records decompose the run's work scalar exactly.
        let decomposed: u64 = outcome
            .metrics
            .iter()
            .map(|m| m.work_units(EXTEND_COST, DP_CELL_COST, LOCATE_COST))
            .sum();
        assert_eq!(decomposed, outcome.work);
        // The report's energy summary mirrors the run's EnergyReport.
        let summary = outcome.report.energy.expect("platform run has energy");
        assert!((summary.energy_j - outcome.energy.energy_j).abs() < 1e-9);
        assert!((summary.mapping_seconds - outcome.energy.mapping_seconds).abs() < 1e-12);
        // The JSON-lines export parses back: one read record per read,
        // then the run-report records.
        let mut buf = Vec::new();
        outcome.write_json_lines(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut read_lines = 0u64;
        let mut saw_event = false;
        for line in text.lines() {
            let fields = parse_flat_object(line).expect("line parses");
            match field(&fields, "type").unwrap().as_str().unwrap() {
                "read" => read_lines += 1,
                "event" => saw_event = true,
                _ => {}
            }
        }
        assert_eq!(read_lines, reads.len() as u64);
        assert!(saw_event, "device timelines must export kernel events");
    }

    #[test]
    fn gold_standard_scores_itself_perfectly() {
        let w = Workload::generate(Scale::tiny());
        let reads = w.read_seqs(100);
        let gold = gold_standard(&w.indexed, 3, &reads);
        let mapper = Razers3Like::new(Arc::clone(&w.indexed), 3);
        let platform = profiles::system1_cpu_only();
        let outcome = run_cell(
            &mapper,
            &reads,
            &platform,
            &platform.single_device_share(0, reads.len()),
            &gold,
            AccuracyMethod::AllLocations,
            3,
        );
        assert_eq!(outcome.result.accuracy_pct, 100.0);
    }

    #[test]
    fn grid_matches_paper_columns() {
        assert_eq!(PAPER_GRID.len(), 6);
        let cols = grid_columns();
        assert_eq!(cols[0], "n=100 δ=3");
        assert_eq!(cols[5], "n=150 δ=7");
    }
}
