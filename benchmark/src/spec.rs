//! What the benchmark runs and what it reports: the four workloads and
//! the end-to-end and per-layer metric tables. `BENCHMARK.json` at the
//! repo root restates the names, units and bounds; the smoke test fails
//! when the two disagree.

use repute_genome::reads::ErrorProfile;
use repute_prefilter::PrefilterMode;

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 0xC21;
/// Default `--seconds`; `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;
/// Minimum k-mer length of every workload (the CLI default).
pub const S_MIN: usize = 12;
/// First-n output slots per read (the CLI default).
pub const MAX_LOCATIONS: usize = 100;
/// Reads per job of the serve workload.
pub const READS_PER_JOB: usize = 4;

/// Input size: `Full` is what `BENCHMARK.json` measures, `Tiny` is the
/// smoke test's (60 kbp, 200 reads, 40 jobs — seconds in a debug build).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `repute index` + `repute map` over files.
    Map,
    /// The daemon over a Unix socket, closed loop.
    Serve,
}

/// One workload: how its inputs are generated and how the program is
/// configured for it.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Reference length in bases.
    pub ref_len: usize,
    /// Plant the chr21-like repeat families of `crates/bench`.
    pub repeats: bool,
    pub read_len: usize,
    /// Map: reads of the end-to-end run. Serve: unused.
    pub reads: usize,
    /// Map: reads of the traced run, the first of `reads`. Serve: unused.
    pub trace_reads: usize,
    /// Serve: jobs of the end-to-end run.
    pub jobs: usize,
    /// Serve: jobs of the traced run, the first of `jobs`.
    pub trace_jobs: usize,
    pub profile: ErrorProfile,
    pub delta: u32,
    pub prefilter: PrefilterMode,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

pub const WORKLOAD_NAMES: [&str; 4] = [
    "unique100",
    "repeat150",
    "repeat100_prefilter",
    "serve_small_jobs",
];

impl Workload {
    /// Looks a workload up by name at the given scale.
    pub fn find(name: &str, scale: Scale) -> Option<Workload> {
        let tiny = scale == Scale::Tiny;
        let pick = |full: usize, small: usize| if tiny { small } else { full };
        let base = Workload {
            name: "",
            kind: Kind::Map,
            ref_len: pick(4_000_000, 60_000),
            repeats: true,
            read_len: 100,
            reads: 0,
            trace_reads: 0,
            jobs: 0,
            trace_jobs: 0,
            profile: ErrorProfile::err012100(),
            delta: 5,
            prefilter: PrefilterMode::None,
            setups: pick(3, 1),
        };
        Some(match name {
            // 8 Mbp, not the 16 Mbp first sized: the index build is 9.7 s
            // at 16 Mbp on the sizing machine and set-up runs three times
            // per run, which the driver's total-time cap does not allow.
            // The byte-per-symbol BWT (8 MB) is still twice the 4 MiB L2.
            "unique100" => Workload {
                name: "unique100",
                ref_len: pick(8_000_000, 60_000),
                repeats: false,
                reads: pick(6_000, 200),
                trace_reads: pick(4_000, 200),
                ..base
            },
            "repeat150" => Workload {
                name: "repeat150",
                read_len: 150,
                reads: pick(4_000, 200),
                trace_reads: pick(2_000, 200),
                profile: ErrorProfile::srr826460(),
                delta: 7,
                ..base
            },
            "repeat100_prefilter" => Workload {
                name: "repeat100_prefilter",
                reads: pick(4_000, 200),
                trace_reads: pick(1_000, 200),
                prefilter: PrefilterMode::Both,
                ..base
            },
            "serve_small_jobs" => Workload {
                name: "serve_small_jobs",
                kind: Kind::Serve,
                repeats: false,
                jobs: pick(1_000, 40),
                trace_jobs: pick(1_000, 40),
                ..base
            },
            _ => return None,
        })
    }
}

/// A metric's name and unit, as printed and as `BENCHMARK.json` lists it.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Reported with `--trace 0`, by every workload. For the map workloads
/// a job is one read through the loop body of `repute map`; for the
/// daemon it is one 4-read job through the in-process core.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("reads_per_s", "reads/s"),
    m("peak_rss_mb", "MiB"),
    m("job_p50_ms", "ms"),
];

/// Reported with `--trace 1`, by every workload; a metric whose layer a
/// workload does not use (prefilter off, no daemon) reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("genome.fasta_parse_s", "s"),
    m("genome.fastq_parse_s", "s"),
    m("genome.encode_s", "s"),
    m("index.sa_build_s", "s"),
    m("index.build_s", "s"),
    m("index.write_s", "s"),
    m("index.file_bytes", "bytes"),
    m("index.load_s", "s"),
    m("index.fm_bytes", "bytes"),
    m("index.extend_ops", "count"),
    m("index.extend_ns_per_op", "ns"),
    m("index.locate_s", "s"),
    m("index.locate_ops", "count"),
    m("filter.freq_table_s", "s"),
    m("filter.seed_dp_s", "s"),
    m("filter.dp_cells", "count"),
    m("filter.candidates_raw", "count"),
    m("mappers.merge_s", "s"),
    m("mappers.candidates_merged", "count"),
    m("prefilter.examine_s", "s"),
    m("prefilter.tested", "count"),
    m("prefilter.reject_ratio", "ratio"),
    m("align.verify_s", "s"),
    m("align.myers_s", "s"),
    m("align.word_updates", "count"),
    m("align.hit_ratio", "ratio"),
    m("eval.sam_write_s", "s"),
    m("eval.sam_bytes", "bytes"),
    m("eval.recall_pct", "%"),
    m("eval.capped_reads", "count"),
    m("core.map_read_s", "s"),
    m("core.unattributed_s", "s"),
    m("core.exec_wall_s", "s"),
    m("core.exec_speedup", "ratio"),
    m("core.sim_map_s", "sim_s"),
    m("core.sim_energy_j", "J"),
    m("obs.export_s", "s"),
    m("cli.map_wall_s", "s"),
    m("cli.map_user_s", "s"),
    m("cli.map_sys_s", "s"),
    m("cli.other_s", "s"),
    m("serve.parse_p50_s", "s"),
    m("serve.submit_p50_s", "s"),
    m("serve.submit_p99_s", "s"),
    m("serve.run_batch_p50_s", "s"),
    m("serve.run_batch_p99_s", "s"),
    m("serve.encode_p50_s", "s"),
    m("serve.jobs_per_batch", "ratio"),
    m("serve.response_bytes", "bytes"),
    m("serve.journal_bytes_per_job", "bytes"),
    m("serve.core_busy_share", "ratio"),
    m("serve.transport_ms", "ms"),
    m("serve.jobs_per_s", "1/s"),
    m("serve.job_p50_ms", "ms"),
    m("serve.job_p99_ms", "ms"),
];

/// Bound of an end-to-end metric and which direction is better; kept
/// here so `compare` needs no file outside the package.
pub fn bound(name: &str) -> Option<(f64, bool)> {
    // (share of the base median it may worsen by, higher is better)
    Some(match name {
        "setup_s" => (0.25, false),
        "reads_per_s" => (0.25, true),
        "peak_rss_mb" => (0.1, false),
        "job_p50_ms" => (0.25, false),
        _ => return None,
    })
}
