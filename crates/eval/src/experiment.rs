//! Experiment records and the plain-text table renderer.
//!
//! The bench binaries print tables shaped like the paper's: one row per
//! mapper, one `T(s) / A(%)` column pair per `(read length, δ)` cell.

use std::fmt;

/// One measured cell: a mapper on one `(read length, δ)` configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellResult {
    /// Simulated mapping time in seconds.
    pub time_s: f64,
    /// Accuracy percentage per the experiment's methodology.
    pub accuracy_pct: f64,
}

/// One row of a results table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRow {
    /// Mapper name.
    pub mapper: String,
    /// One entry per table column; `None` renders as a dash (used for
    /// mappers that do not run in a given configuration).
    pub cells: Vec<Option<CellResult>>,
}

/// A results table with labelled columns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    /// Table title, printed above the header.
    pub title: String,
    /// Column labels, e.g. `"n=100 δ=3"`.
    pub columns: Vec<String>,
    /// Rows in display order.
    pub rows: Vec<TableRow>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, columns: Vec<String>) -> Table {
        Table {
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's cell count differs from the column count.
    pub fn push_row(&mut self, row: TableRow) {
        assert_eq!(
            row.cells.len(),
            self.columns.len(),
            "row {:?} has {} cells for {} columns",
            row.mapper,
            row.cells.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// The winner (lowest time) of each column, by mapper name.
    pub fn column_winners(&self) -> Vec<Option<&str>> {
        (0..self.columns.len())
            .map(|c| {
                self.rows
                    .iter()
                    .filter_map(|r| r.cells[c].map(|cell| (r.mapper.as_str(), cell.time_s)))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .map(|(name, _)| name)
            })
            .collect()
    }

    /// Per-column speedup of `target` over `baseline`
    /// (`baseline_time / target_time`; > 1 means `target` is faster).
    /// `None` where either cell is missing or the target time is zero.
    ///
    /// The paper reports exactly these ratios ("REPUTE is up to 13×
    /// faster than Yara", "up to 4× speedup over Hobbes3").
    pub fn speedups(&self, baseline: &str, target: &str) -> Vec<Option<f64>> {
        let find = |name: &str| self.rows.iter().find(|r| r.mapper == name);
        let (Some(base), Some(tgt)) = (find(baseline), find(target)) else {
            return vec![None; self.columns.len()];
        };
        base.cells
            .iter()
            .zip(&tgt.cells)
            .map(|(b, t)| match (b, t) {
                (Some(b), Some(t)) if t.time_s > 0.0 => Some(b.time_s / t.time_s),
                _ => None,
            })
            .collect()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        let name_width = self
            .rows
            .iter()
            .map(|r| r.mapper.len())
            .chain([6])
            .max()
            .unwrap_or(6);
        write!(f, "{:<name_width$}", "Mapper")?;
        for col in &self.columns {
            write!(f, " | {col:>16}")?;
        }
        writeln!(f)?;
        let total = name_width + self.columns.len() * 19;
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write!(f, "{:<name_width$}", row.mapper)?;
            for cell in &row.cells {
                match cell {
                    Some(c) => write!(f, " | {:>8.2}s {:>5.1}%", c.time_s, c.accuracy_pct)?,
                    None => write!(f, " | {:>16}", "-")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(time_s: f64, accuracy_pct: f64) -> Option<CellResult> {
        Some(CellResult {
            time_s,
            accuracy_pct,
        })
    }

    fn sample() -> Table {
        let mut t = Table::new("Demo", vec!["n=100 δ=3".into(), "n=100 δ=4".into()]);
        t.push_row(TableRow {
            mapper: "REPUTE".into(),
            cells: vec![cell(7.49, 99.99), cell(14.88, 99.98)],
        });
        t.push_row(TableRow {
            mapper: "RazerS3".into(),
            cells: vec![cell(26.7, 100.0), None],
        });
        t
    }

    #[test]
    fn renders_rows_and_dashes() {
        let text = sample().to_string();
        assert!(text.contains("REPUTE"));
        assert!(text.contains("7.49s"));
        assert!(text.contains(" - ") || text.contains("-\n") || text.contains("   -"));
    }

    #[test]
    fn winners_pick_lowest_time_per_column() {
        let t = sample();
        assert_eq!(t.column_winners(), vec![Some("REPUTE"), Some("REPUTE")]);
    }

    #[test]
    #[should_panic(expected = "cells for")]
    fn mismatched_row_rejected() {
        let mut t = sample();
        t.push_row(TableRow {
            mapper: "bad".into(),
            cells: vec![],
        });
    }

    #[test]
    fn speedups_compute_ratios_and_handle_gaps() {
        let t = sample();
        let ratios = t.speedups("RazerS3", "REPUTE");
        assert!((ratios[0].unwrap() - 26.7 / 7.49).abs() < 1e-9);
        assert_eq!(ratios[1], None); // RazerS3's second cell is missing
        assert_eq!(t.speedups("nope", "REPUTE"), vec![None, None]);
    }
}
