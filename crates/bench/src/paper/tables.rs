//! Tables I–IV: one grid loop over declared row specs.
//!
//! A row is a label, a mapper kind, a placement and whether REPUTE's
//! `S_min` is tuned per cell; a system is its rows, the platforms the two
//! placements run on and an accuracy method; a table adds the who-wins
//! claims the paper makes about it. Tables I–III print `T(s) / A(%)` per
//! cell, Table IV prints power and energy for two cells of two systems.

use std::fmt::Write as _;
use std::sync::Arc;

use repute_core::ReputeConfig;
use repute_eval::accuracy::GoldStandard;
use repute_eval::{CellResult, Table, TableRow};
use repute_genome::DnaSeq;
use repute_hetsim::{profiles, Platform};
use repute_mappers::razers3::Razers3Like;
use repute_mappers::{IndexedReference, Mapper};
use repute_serve::MapperKind;

use super::{header, Claim, Report, Written};
use crate::harness::{
    gold_standard, grid_columns, match_tolerance, run_cell, AccuracyMethod, CellOutcome, PAPER_GRID,
};
use crate::workload::{s_min_for, s_min_options, Workload};
use MapperKind::{BwaMem, Coral, Gem, Hobbes3, Razers3, Repute, Yara};
use Placement::{AllDevices, FirstDevice};

/// Where a row's reads run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Placement {
    /// All reads on device 0 of the table's `first` platform: the CPU
    /// programs, and the CPU-only variants of the OpenCL mappers.
    FirstDevice,
    /// Even shares across every device of the table's `all` platform.
    AllDevices,
}

/// One row of a table.
struct Row {
    label: &'static str,
    kind: MapperKind,
    placement: Placement,
    /// Report the best `S_min` per cell — the paper's stated methodology
    /// for heterogeneous REPUTE (§IV): a larger `S_min` shrinks the
    /// kernel footprint and restores GPU occupancy.
    tuned: bool,
}

const fn row(label: &'static str, kind: MapperKind, placement: Placement) -> Row {
    Row {
        label,
        kind,
        placement,
        tuned: false,
    }
}

const fn tuned(row: Row) -> Row {
    Row { tuned: true, ..row }
}

/// Where and how a block of rows runs: Tables I–III are one system each,
/// Table IV is two.
struct System {
    /// The artefact name, which prefixes `REPUTE_METRICS_OUT` labels.
    artefact: &'static str,
    heading: &'static str,
    method: AccuracyMethod,
    first: fn() -> Platform,
    all: fn() -> Platform,
    rows: &'static [Row],
}

/// `(faster, slower, cells, place)`: `faster` beats `slower` on time in
/// every grid cell `cells` selects; `place` names those cells in the
/// claim's label.
type Win = (MapperKind, MapperKind, fn(usize, u32) -> bool, &'static str);

/// One of Tables I–III.
pub(super) struct TableSpec {
    title: &'static str,
    system: System,
    /// `(baseline, target)` speedup lines under the table.
    speedups: &'static [(&'static str, &'static str)],
    /// Whether to print the fastest mapper per column.
    winners: bool,
    wins: &'static [Win],
}

pub(super) const TABLE1: TableSpec = TableSpec {
    title: "System 1, CPU only — T(s) simulated / A(%) all-locations vs RazerS3 gold",
    system: System {
        artefact: "table1",
        heading: "Table I — mapping on the CPU (homogeneous scenario, accuracy per §III-A)",
        method: AccuracyMethod::AllLocations,
        first: profiles::system1_cpu_only,
        all: profiles::system1_cpu_only,
        rows: &[
            row("RazerS3", Razers3, FirstDevice),
            row("Hobbes3", Hobbes3, FirstDevice),
            row("Yara", Yara, FirstDevice),
            row("BWA-MEM", BwaMem, FirstDevice),
            row("GEM", Gem, FirstDevice),
            row("CORAL-cpu", Coral, FirstDevice),
            row("REPUTE-cpu", Repute, FirstDevice),
        ],
    },
    speedups: &[
        ("RazerS3", "REPUTE-cpu"),
        ("Yara", "REPUTE-cpu"),
        ("CORAL-cpu", "REPUTE-cpu"),
        ("Hobbes3", "REPUTE-cpu"),
    ],
    winners: true,
    wins: &[
        (Repute, Razers3, |_, _| true, "in every cell"),
        (Repute, Coral, |n, _| n == 150, "at every n=150 cell"),
    ],
};

pub(super) const TABLE2: TableSpec = TableSpec {
    title: "System 1 — T(s) simulated / A(%) any-best vs RazerS3 gold",
    system: System {
        artefact: "table2",
        heading: "Table II — mapping on CPU + 2×GPU (heterogeneous scenario, accuracy per §III-B)",
        method: AccuracyMethod::AnyBest,
        first: profiles::system1_cpu_only,
        all: profiles::system1,
        rows: &[
            row("RazerS3", Razers3, FirstDevice),
            row("Hobbes3", Hobbes3, FirstDevice),
            row("Yara", Yara, FirstDevice),
            row("BWA-MEM", BwaMem, FirstDevice),
            row("GEM", Gem, FirstDevice),
            row("CORAL-all", Coral, AllDevices),
            tuned(row("REPUTE-all", Repute, AllDevices)),
        ],
    },
    speedups: &[
        ("CORAL-all", "REPUTE-all"),
        ("Hobbes3", "REPUTE-all"),
        ("Yara", "REPUTE-all"),
    ],
    winners: false,
    wins: &[(
        Repute,
        Coral,
        |n, delta| n == 150 && delta >= 6,
        "at (150,6) and (150,7)",
    )],
};

/// Only RazerS3, Hobbes3, CORAL and REPUTE could be built on the
/// HiKey970 (§III-C). The two CPU programs run on the big cluster alone,
/// the OpenCL mappers across both clusters.
pub(super) const TABLE3: TableSpec = TableSpec {
    title: "System 2 (HiKey970) — T(s) simulated / A(%) any-best vs RazerS3 gold",
    system: System {
        artefact: "table3",
        heading: "Table III — read mapping on the HiKey970 SoC (accuracy per §III-C)",
        method: AccuracyMethod::AnyBest,
        first: profiles::system2_hikey970,
        all: profiles::system2_hikey970,
        rows: &[
            row("RazerS3", Razers3, FirstDevice),
            row("Hobbes3", Hobbes3, FirstDevice),
            row("CORAL-HiKey", Coral, AllDevices),
            row("REPUTE-HiKey", Repute, AllDevices),
        ],
    },
    speedups: &[],
    winners: false,
    wins: &[
        (Repute, Razers3, |_, _| true, "in every cell"),
        (Repute, Coral, |n, _| n == 150, "at every n=150 cell"),
    ],
};

/// Table IV's two systems: on System 1 CORAL and REPUTE run both
/// CPU-only and CPU+GPU; on System 2 the rows are Table III's.
const TABLE4: [System; 2] = [
    System {
        artefact: "table4",
        heading: "System 1 — 160 W idle",
        method: AccuracyMethod::AnyBest,
        first: profiles::system1_cpu_only,
        all: profiles::system1,
        rows: &[
            row("RazerS3", Razers3, FirstDevice),
            row("Hobbes3", Hobbes3, FirstDevice),
            row("CORAL-CPU", Coral, FirstDevice),
            row("CORAL-all", Coral, AllDevices),
            row("REPUTE-CPU", Repute, FirstDevice),
            tuned(row("REPUTE-all", Repute, AllDevices)),
        ],
    },
    System {
        artefact: "table4",
        heading: "System 2 — 3.5 W idle",
        ..TABLE3.system
    },
];

/// The two measurement cases of §III-D.
const TABLE4_CASES: [(usize, u32); 2] = [(100, 3), (150, 5)];

/// A mapper in its paper configuration: RazerS3 limited to 100 locations
/// per read, the rest to 1000 (§III-A).
fn paper_mapper(
    kind: MapperKind,
    indexed: &Arc<IndexedReference>,
    delta: u32,
    s_min: usize,
) -> Box<dyn Mapper> {
    let indexed = Arc::clone(indexed);
    match kind {
        Razers3 => Box::new(Razers3Like::new(indexed, delta)),
        other => other.build(
            indexed,
            ReputeConfig::new(delta, s_min).expect("valid paper parameters"),
        ),
    }
}

/// One `(n, δ)` cell: its read set and the §III-A gold standard.
struct Cell {
    n: usize,
    delta: u32,
    reads: Vec<DnaSeq>,
    gold: GoldStandard,
}

impl Cell {
    fn new(w: &Workload, (n, delta): (usize, u32)) -> Cell {
        let reads = w.read_seqs(n);
        let gold = gold_standard(&w.indexed, delta, &reads);
        Cell {
            n,
            delta,
            reads,
            gold,
        }
    }
}

/// Maps the cell's read set with one row's mapper and placement on its
/// system, scores it against the gold standard, and exports its
/// telemetry under `<artefact> <row> n=… δ=…`.
fn run_row(w: &Workload, system: &System, row: &Row, cell: &Cell) -> CellOutcome {
    let (n, delta, reads) = (cell.n, cell.delta, &cell.reads);
    let (platform, shares) = match row.placement {
        FirstDevice => {
            let platform = (system.first)();
            let shares = platform.single_device_share(0, reads.len());
            (platform, shares)
        }
        AllDevices => {
            let platform = (system.all)();
            let shares = platform.even_shares(reads.len());
            (platform, shares)
        }
    };
    let s_mins = if row.tuned {
        s_min_options(n, delta)
    } else {
        vec![s_min_for(n, delta)]
    };
    let scored = |s_min| {
        let mapper = paper_mapper(row.kind, &w.indexed, delta, s_min);
        let (gold, method, tolerance) = (&cell.gold, system.method, match_tolerance(delta));
        run_cell(&*mapper, reads, &platform, &shares, gold, method, tolerance)
    };
    let outcome = s_mins
        .into_iter()
        .map(scored)
        .min_by(|a, b| a.result.time_s.total_cmp(&b.result.time_s))
        .expect("at least one S_min option");
    let label = format!("{} {} n={n} δ={delta}", system.artefact, row.label);
    outcome.export_if_requested(&label);
    outcome
}

/// Runs one of Tables I–III over [`PAPER_GRID`].
pub(super) fn run_table(w: &Workload, spec: &TableSpec) -> Written<Report> {
    let system = &spec.system;
    let mut table = Table::new(spec.title, grid_columns());
    let mut rows: Vec<TableRow> = system
        .rows
        .iter()
        .map(|row| TableRow {
            mapper: row.label.to_string(),
            cells: Vec::new(),
        })
        .collect();
    // BWA-MEM has no δ knob: one run per read length, reused per column.
    let mut bwamem: Vec<(usize, CellResult)> = Vec::new();
    for (n, delta) in PAPER_GRID {
        eprintln!("cell (n={n}, δ={delta})…");
        let cell = Cell::new(w, (n, delta));
        for (row, line) in system.rows.iter().zip(&mut rows) {
            let cached = bwamem
                .iter()
                .find(|(len, _)| row.kind == BwaMem && *len == n);
            let result = match cached {
                Some(&(_, result)) => result,
                None => run_row(w, system, row, &cell).result,
            };
            if row.kind == BwaMem && cached.is_none() {
                bwamem.push((n, result));
            }
            line.cells.push(Some(result));
        }
    }
    for row in rows {
        table.push_row(row);
    }

    let mut text = header(system.heading, w.scale);
    writeln!(text, "{table}")?;
    for (base, target) in spec.speedups {
        let ratios: Vec<String> = table
            .speedups(base, target)
            .iter()
            .map(|r| r.map_or("-".into(), |v| format!("{v:.2}x")))
            .collect();
        writeln!(text, "speedup {target} vs {base}: {}", ratios.join(", "))?;
    }
    if spec.winners {
        let winners: Vec<&str> = table
            .column_winners()
            .iter()
            .map(|w| w.unwrap_or("-"))
            .collect();
        writeln!(text, "fastest per column: {}", winners.join(", "))?;
    }
    let claims = table_claims(spec, &table);
    Ok(Report { text, claims })
}

/// The accuracy pattern of the table's method plus its who-wins claims.
fn table_claims(spec: &TableSpec, table: &Table) -> Vec<Claim> {
    let cells_of = |kind: MapperKind| {
        let at = spec.system.rows.iter().position(|row| row.kind == kind);
        at.map(|at| {
            (
                spec.system.rows[at].label,
                table.rows[at].cells.iter().flatten(),
            )
        })
    };
    let accuracy = |kinds: &[MapperKind], ok: fn(f64) -> bool| {
        let mut rows = kinds.iter().filter_map(|&kind| cells_of(kind)).peekable();
        rows.peek()?;
        Some(rows.all(|(_, mut cells)| cells.all(|c| ok(c.accuracy_pct))))
    };
    let all_mappers = [Razers3, Hobbes3, Coral, Repute];
    let best_mappers = [Yara, BwaMem, Gem];
    let mut claims = Vec::new();
    let (metric, best_label, best_ok): (_, _, fn(f64) -> bool) = match spec.system.method {
        AccuracyMethod::AllLocations => ("all-locations", "miss gold locations (< 100%)", |a| {
            a < 100.0
        }),
        AccuracyMethod::AnyBest => ("any-best", "recover to ≥ 90%", |a| a >= 90.0),
    };
    if let Some(holds) = accuracy(&all_mappers, |a| a >= 99.9) {
        let label =
            format!("all-mappers (RazerS3, Hobbes3, CORAL, REPUTE) score ≥ 99.9% under {metric}");
        claims.push(Claim::new(label, holds));
    }
    if let Some(holds) = accuracy(&best_mappers, best_ok) {
        let label = format!("best-mappers (Yara, BWA-MEM, GEM) {best_label} under {metric}");
        claims.push(Claim::new(label, holds));
    }
    for &(faster, slower, cells, place) in spec.wins {
        let (faster, fast) = cells_of(faster).expect("a win names rows of its table");
        let (slower, slow) = cells_of(slower).expect("a win names rows of its table");
        let selected = PAPER_GRID.iter().map(|&(n, delta)| cells(n, delta));
        let holds = fast
            .zip(slow)
            .zip(selected)
            .all(|((f, s), selected)| !selected || f.time_s < s.time_s);
        let label = format!("{faster} faster than {slower} {place}");
        claims.push(Claim::at_full_scale(label, holds));
    }
    claims
}

/// Table IV — power and energy (§III-D): `P(W)` is the average wall
/// power during mapping (idle + busy devices), `E(J)` the energy above
/// idle over the mapping time.
pub(super) fn table4(w: &Workload) -> Written<Report> {
    let mut text = header(
        "Table IV — power and energy consumption (§III-D methodology)",
        w.scale,
    );
    let mut hotter_yet_cheaper = true;
    let mut embedded_saving = true;
    for (n, delta) in TABLE4_CASES {
        eprintln!("case (n={n}, δ={delta})…");
        let cell = Cell::new(w, (n, delta));
        let mut measured = Vec::new();
        for system in &TABLE4 {
            writeln!(text, "\n{} — (n={n}, δ={delta})", system.heading)?;
            writeln!(
                text,
                "{:<14} | {:>8} | {:>10} | {:>8}",
                "Mapper", "P(W)", "E(J)", "T(s)"
            )?;
            writeln!(text, "{}", "-".repeat(50))?;
            for row in system.rows {
                let e = run_row(w, system, row, &cell).energy;
                writeln!(
                    text,
                    "{:<14} | {:>8.1} | {:>10.2} | {:>8.2}",
                    row.label, e.average_power_w, e.energy_j, e.mapping_seconds
                )?;
                measured.push((row.label, e));
            }
        }
        let of = |label: &str| {
            let found = measured.iter().find(|(row, _)| *row == label);
            found.expect("every case measures the three REPUTE rows").1
        };
        let (cpu, all, hikey) = (of("REPUTE-CPU"), of("REPUTE-all"), of("REPUTE-HiKey"));
        hotter_yet_cheaper &= all.average_power_w > cpu.average_power_w
            && all.mapping_seconds < cpu.mapping_seconds
            && all.energy_j < cpu.energy_j;
        embedded_saving &= hikey.energy_j * 10.0 <= cpu.energy_j;
    }
    let claims = vec![
        Claim::new(
            "REPUTE-all draws more power than REPUTE-CPU yet takes less time and less energy",
            hotter_yet_cheaper,
        ),
        Claim::new(
            "REPUTE-HiKey uses ≥ 10× less energy than REPUTE-CPU on System 1",
            embedded_saving,
        ),
    ];
    Ok(Report { text, claims })
}
