//! Fault-injection ablation: output invariance and graceful degradation
//! under the deterministic fault model of `repute-hetsim`.
//!
//! Four checks, all enforced (nonzero exit on failure, so CI can run
//! this at tiny scale):
//!
//! 1. **Output invariance** — random fault plans with a guaranteed
//!    survivor (device 0 is never lost), transient storms, degradation,
//!    and combined plans all report exactly the mappings of the
//!    fault-free run, in exact read order, across both schedules.
//! 2. **Graceful degradation** — killing k = 0..3 of the 4 devices at
//!    t = 0 leaves the output unchanged while the simulated makespan
//!    grows monotonically (fewer survivors ⇒ no faster): the
//!    degradation curve printed per schedule.
//! 3. **Retry accounting** — a transient storm with a sufficient retry
//!    budget is fully absorbed: every strike is retried, nothing
//!    migrates, and the counters say so.
//! 4. **Total loss is typed** — killing every device yields the
//!    `AllDevicesLost` error naming the full unmapped read range, not a
//!    panic or silent truncation.

use repute_bench::gate::Checks;
use repute_bench::scenario::{
    both_schedules, mappings_of, quad_platform, Ablation, ABLATION_CELL, QUAD_DEVICES as DEVICES,
};
use repute_bench::workload::Scale;
use repute_core::{Executor, Schedule};
use repute_hetsim::FaultPlan;

const MAX_RETRIES: usize = 2;

fn main() {
    let scale = Scale::from_env();
    println!("Fault ablation — output invariance and graceful degradation");
    println!("{}", scale.describe());
    println!("generating workload…");
    let Ablation { reads, mapper, .. } = Ablation::generate(scale);
    let (n, delta) = ABLATION_CELL;
    let platform = quad_platform();
    let mut checks = Checks::default();
    let run_with = |schedule: &Schedule, host_threads, faults: &FaultPlan, max_retries| {
        let executor = Executor {
            host_threads,
            faults: faults.clone(),
            max_retries,
            ..Executor::new(schedule.clone())
        };
        executor.run(&mapper, &platform, &reads)
    };
    let no_faults = FaultPlan::new();

    // [1] Output invariance across fault plans, schedules, and threads.
    println!(
        "\n[1] output invariance (n={n}, δ={delta}, {} reads, {DEVICES} devices)",
        reads.len()
    );
    println!(
        "{:>28} | {:>8} | {:>10} | {:>7} | {:>8}",
        "plan × schedule", "faults", "sim T(s)", "retries", "output"
    );
    println!("{}", "-".repeat(74));
    for (sched_name, schedule) in both_schedules(&platform, reads.len()) {
        let (clean, clean_metrics) =
            run_with(&schedule, 1, &no_faults, MAX_RETRIES).expect("fault-free baseline failed");
        let gold = mappings_of(&clean);
        let horizon = clean.simulated_seconds.max(1e-6);
        let mut plans: Vec<(String, FaultPlan)> = vec![
            (
                "transient storm".into(),
                FaultPlan::parse("transient:d0@0x2,transient:d1@0,transient:d2@0x2,transient:d3@0")
                    .unwrap(),
            ),
            (
                "degrade d1+d3".into(),
                FaultPlan::new().degrade(1, 0.0, 0.5).degrade(3, 0.0, 0.25),
            ),
            (
                "loss d2 mid-run".into(),
                FaultPlan::new().loss(2, horizon / 2.0),
            ),
            (
                "combined".into(),
                FaultPlan::parse(&format!(
                    "transient:d0@0,slow:d1@0x0.5,loss:d3@{}",
                    horizon / 4.0
                ))
                .unwrap(),
            ),
        ];
        for seed in 0..6u64 {
            plans.push((
                format!("random seed {seed}"),
                FaultPlan::random(seed, DEVICES, horizon),
            ));
        }
        for (plan_name, plan) in &plans {
            for host_threads in [1usize, 4] {
                let (run, metrics) = match run_with(&schedule, host_threads, plan, MAX_RETRIES) {
                    Ok(out) => out,
                    Err(e) => {
                        checks.fail(&format!(
                            "{plan_name} × {sched_name} ht={host_threads}: {e}"
                        ));
                        continue;
                    }
                };
                let same = mappings_of(&run) == gold && metrics == clean_metrics;
                if host_threads == 1 {
                    let faults: u64 = run.fault_counters.iter().map(|c| c.faults).sum();
                    let retries: u64 = run.fault_counters.iter().map(|c| c.retries).sum();
                    println!(
                        "{:>28} | {:>8} | {:>10.4} | {:>7} | {:>8}",
                        format!("{plan_name} × {sched_name}"),
                        faults,
                        run.simulated_seconds,
                        retries,
                        if same { "same" } else { "DIFFERS" }
                    );
                }
                if !same {
                    checks.fail(&format!(
                        "{plan_name} × {sched_name} ht={host_threads} changed the output"
                    ));
                }
            }
        }
    }

    // [2] Graceful degradation: kill k of 4 devices at t = 0 and watch
    // the makespan grow while the output stays put.
    println!("\n[2] graceful degradation (kill k devices at t=0)");
    for (sched_name, schedule) in both_schedules(&platform, reads.len()) {
        let (clean, _) = run_with(&schedule, 1, &no_faults, MAX_RETRIES).unwrap();
        let gold = mappings_of(&clean);
        let mut prev = 0.0f64;
        println!("  {sched_name}:");
        for k in 0..DEVICES {
            // Kill the top-k device indices; device 0 always survives.
            let mut plan = FaultPlan::new();
            for dev in (DEVICES - k)..DEVICES {
                plan = plan.loss(dev, 0.0);
            }
            let (run, _) = run_with(&schedule, 1, &plan, MAX_RETRIES).expect("a survivor remains");
            let migrated: u64 = run.fault_counters.iter().map(|c| c.migrated_batches).sum();
            let same = mappings_of(&run) == gold;
            println!(
                "    {} dead | {} survivors | sim {:.4} s | {} migrated batch(es) | {}",
                k,
                DEVICES - k,
                run.simulated_seconds,
                migrated,
                if same {
                    "same output"
                } else {
                    "OUTPUT DIFFERS"
                }
            );
            if !same {
                checks.fail(&format!(
                    "{sched_name} with {k} dead devices changed the output"
                ));
            }
            if run.simulated_seconds + 1e-12 < prev {
                checks.fail(&format!(
                    "{sched_name}: makespan shrank when killing more devices"
                ));
            }
            prev = run.simulated_seconds;
        }
    }

    // [3] Retry accounting: a storm inside the budget is absorbed
    // without migration.
    println!("\n[3] retry accounting (storm within max_retries={MAX_RETRIES})");
    let schedule = Schedule::Static(platform.even_shares(reads.len()));
    let storm = FaultPlan::parse("transient:d0@0,transient:d1@0x2,transient:d2@0").unwrap();
    let (run, _) = run_with(&schedule, 1, &storm, MAX_RETRIES).expect("storm within budget");
    let faults: u64 = run.fault_counters.iter().map(|c| c.faults).sum();
    let retries: u64 = run.fault_counters.iter().map(|c| c.retries).sum();
    let migrated: u64 = run.fault_counters.iter().map(|c| c.migrated_batches).sum();
    println!("  {faults} strike(s) | {retries} retried | {migrated} migrated");
    if faults != 4 || retries != 4 || migrated != 0 {
        checks.fail("expected 4 strikes / 4 retries / 0 migrations");
    }

    // [4] All devices dead: a typed error naming the unmapped range.
    println!("\n[4] total loss is a typed partial failure");
    let mut all_dead = FaultPlan::new();
    for dev in 0..DEVICES {
        all_dead = all_dead.loss(dev, 0.0);
    }
    match run_with(&schedule, 1, &all_dead, 0) {
        Err(e) => match e.unmapped_range() {
            Some(range) if range == (0..reads.len()) => {
                println!("  {e}");
            }
            Some(range) => {
                checks.fail(&format!("wrong unmapped range {range:?}"));
            }
            None => {
                checks.fail(&format!("untyped error {e}"));
            }
        },
        Ok(_) => {
            checks.fail("mapping succeeded with every device dead");
        }
    }

    checks.finish("");
    println!("\nall fault ablation checks passed");
}
