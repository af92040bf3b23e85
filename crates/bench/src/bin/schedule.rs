//! Scheduler ablation: `--schedule {static,dynamic}` × `--host-threads`
//! over the standard workload.
//!
//! Three checks, all enforced (nonzero exit on failure, so CI can run
//! this at tiny scale):
//!
//! 1. **Output invariance** — every schedule mode and host-thread count
//!    reports exactly the mappings of the single-device baseline, in
//!    exact read order (the schedule must never change *what* is mapped,
//!    only *when* and *where*).
//! 2. **Dynamic beats static on skew** — on a deliberately imbalanced
//!    read set (heaviest read repeated over the first quarter, lightest
//!    over the rest), greedy batch pulling finishes no later than even
//!    static shares in simulated time.
//! 3. **Host threading pays off** — with ≥ 4 host cores, the threaded
//!    static executor beats the sequential host (`--host-threads 1`) by
//!    ≥ 1.5× wall clock (min of 3 repetitions each). Skipped on smaller
//!    runners: the simulated schedule is core-count-independent, but
//!    wall clock obviously is not.

use repute_bench::gate::Checks;
use repute_bench::scenario::{mappings_of, quad_platform, Ablation, ABLATION_CELL};
use repute_bench::workload::Scale;
use repute_core::{Executor, ReputeMapper, Schedule, AUTO_HOST_THREADS};
use repute_genome::DnaSeq;
use repute_hetsim::{profiles, Platform};
use repute_mappers::Mapper;

fn run(
    mapper: &ReputeMapper,
    platform: &Platform,
    schedule: &Schedule,
    host_threads: usize,
    reads: &[DnaSeq],
) -> repute_core::MappingRun {
    let executor = Executor {
        host_threads,
        ..Executor::new(schedule.clone())
    };
    executor
        .run(mapper, platform, reads)
        .expect("schedule bench run failed")
        .0
}

fn main() {
    let scale = Scale::from_env();
    println!("Schedule ablation — static shares vs dynamic batch pulling");
    println!("{}", scale.describe());
    println!("generating workload…");
    let Ablation { reads, mapper, .. } = Ablation::generate(scale);
    let (n, delta) = ABLATION_CELL;
    let platform = quad_platform();
    let mut checks = Checks::default();

    // [1] Output invariance across schedules and host-thread counts.
    println!(
        "\n[1] output invariance (n={n}, δ={delta}, {} reads, {} devices)",
        reads.len(),
        platform.devices().len()
    );
    let single = profiles::system1_cpu_only();
    let baseline = run(
        &mapper,
        &single,
        &Schedule::Static(single.single_device_share(0, reads.len())),
        1,
        &reads,
    );
    let gold = mappings_of(&baseline);
    let variants: Vec<(String, Schedule, usize)> = vec![
        (
            "static auto".into(),
            Schedule::Static(platform.even_shares(reads.len())),
            AUTO_HOST_THREADS,
        ),
        (
            "static ht=1".into(),
            Schedule::Static(platform.even_shares(reads.len())),
            1,
        ),
        (
            "static ht=2".into(),
            Schedule::Static(platform.even_shares(reads.len())),
            2,
        ),
        (
            "dynamic auto".into(),
            Schedule::Dynamic { batch: 0 },
            AUTO_HOST_THREADS,
        ),
        ("dynamic b=7 ht=3".into(), Schedule::Dynamic { batch: 7 }, 3),
    ];
    println!(
        "{:>18} | {:>10} | {:>10} | {:>8}",
        "variant", "sim T(s)", "energy(J)", "output"
    );
    println!("{}", "-".repeat(56));
    for (name, schedule, host_threads) in &variants {
        let out = run(&mapper, &platform, schedule, *host_threads, &reads);
        let same = mappings_of(&out) == gold;
        println!(
            "{:>18} | {:>10.4} | {:>10.2} | {:>8}",
            name,
            out.simulated_seconds,
            out.energy.energy_j,
            if same { "same" } else { "DIFFERS" }
        );
        if !same {
            checks.fail(&format!("{name} changed the mapping output"));
        }
    }

    // [2] Skewed workload: dynamic batch pulling must finish no later
    // than static even shares. The first quarter of the read set is the
    // heaviest read repeated, the rest the lightest: even shares pin all
    // the heavy reads on device 0.
    let per_read_work: Vec<u64> = reads.iter().map(|r| mapper.map_read(r).work).collect();
    let heavy = (0..reads.len()).max_by_key(|&i| per_read_work[i]).unwrap();
    let light = (0..reads.len()).min_by_key(|&i| per_read_work[i]).unwrap();
    let q = (reads.len() / 4).max(1);
    let mut skewed: Vec<DnaSeq> = Vec::with_capacity(4 * q);
    skewed.extend(std::iter::repeat_with(|| reads[heavy].clone()).take(q));
    skewed.extend(std::iter::repeat_with(|| reads[light].clone()).take(3 * q));
    println!(
        "\n[2] skewed workload: {q}×heaviest (work {}) + {}×lightest (work {})",
        per_read_work[heavy],
        3 * q,
        per_read_work[light]
    );
    if per_read_work[heavy] <= per_read_work[light] {
        checks.fail("workload has no per-read work skew to exploit");
    }
    let static_run = run(
        &mapper,
        &platform,
        &Schedule::Static(platform.even_shares(skewed.len())),
        AUTO_HOST_THREADS,
        &skewed,
    );
    let dynamic_run = run(
        &mapper,
        &platform,
        &Schedule::Dynamic { batch: 0 },
        AUTO_HOST_THREADS,
        &skewed,
    );
    println!(
        "static even shares: {:.4} s | dynamic: {:.4} s ({:+.1}%)",
        static_run.simulated_seconds,
        dynamic_run.simulated_seconds,
        (dynamic_run.simulated_seconds / static_run.simulated_seconds - 1.0) * 100.0
    );
    if dynamic_run.simulated_seconds > static_run.simulated_seconds {
        checks.fail("dynamic schedule is slower than static even shares on a skewed workload");
    }
    if mappings_of(&dynamic_run) != mappings_of(&static_run) {
        checks.fail("schedules disagree on the skewed workload's mappings");
    }

    // [3] Wall-clock speedup of the threaded executor over a sequential
    // host, on the natural (uniform) workload.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("\n[3] host threading ({cores} cores available)");
    if cores < 4 {
        println!("skipped: needs ≥ 4 host cores for a meaningful speedup check");
    } else {
        let shares = Schedule::Static(platform.even_shares(reads.len()));
        let best_wall = |host_threads: usize| {
            (0..3)
                .map(|_| run(&mapper, &platform, &shares, host_threads, &reads).wall_seconds)
                .fold(f64::INFINITY, f64::min)
        };
        let sequential = best_wall(1);
        let threaded = best_wall(AUTO_HOST_THREADS);
        let speedup = sequential / threaded;
        println!(
            "sequential host: {sequential:.4} s | threaded: {threaded:.4} s | speedup {speedup:.2}×"
        );
        if speedup < 1.5 {
            checks.fail(&format!(
                "threaded executor speedup {speedup:.2}× is below 1.5×"
            ));
        }
    }

    checks.finish("");
    println!("\nall schedule ablation checks passed");
}
