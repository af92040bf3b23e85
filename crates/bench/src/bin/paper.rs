//! The paper's tables and figures, from one binary.
//!
//! * `paper <artefact>` — print one of `table1`–`table4`, `fig1`–`fig4`,
//!   `ablations`, `work_profile`, followed by a `shape:` line per claim
//!   the artefact's data was checked against.
//! * `paper all --out <dir>` — generate the workload once, run every
//!   artefact, write `<dir>/<artefact>.txt` (`results/` is regenerated
//!   this way) and print the `shape:` lines.
//!
//! Scale comes from `REPUTE_REF_LEN` / `REPUTE_READS`;
//! `REPUTE_METRICS_OUT=<path>` appends each table cell's telemetry.
//! Exits 1 when a claim that applies at the scale fails.

use std::path::Path;

use repute_bench::paper::{self, ARTEFACTS};
use repute_bench::workload::{Scale, Workload};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (names, out): (&[&str], Option<&Path>) = match args.as_slice() {
        ["all", "--out", dir] => (&ARTEFACTS, Some(Path::new(dir))),
        [name] if ARTEFACTS.contains(name) => (std::slice::from_ref(name), None),
        _ => {
            let names = ARTEFACTS.join("|");
            eprintln!("usage: paper <{names}> | paper all --out <dir>");
            std::process::exit(1);
        }
    };
    let scale = Scale::from_env();
    let w = Workload::generate(scale);
    if out.is_some() {
        println!("{}", scale.describe());
    }
    let mut failed = false;
    for name in names {
        eprintln!("{name}…");
        let report = paper::run(name, &w).expect("the name is a listed artefact");
        failed |= report.failures(scale).count() > 0;
        let Some(dir) = out else {
            print!("{}", report.render(scale));
            continue;
        };
        let path = dir.join(format!("{name}.txt"));
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, report.render(scale)));
        if let Err(err) = written {
            eprintln!("cannot write {}: {err}", path.display());
            std::process::exit(1);
        }
        for claim in &report.claims {
            println!("{name} shape: {} … {}", claim.label, claim.verdict(scale));
        }
    }
    if failed {
        std::process::exit(1);
    }
}
