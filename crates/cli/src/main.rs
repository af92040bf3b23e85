//! Thin binary wrapper over [`repute_cli`].
//!
//! Exit codes follow [`repute_cli::ReputeError::exit_code`]: `0` success,
//! `2` configuration (including malformed command lines), `3` input
//! parse, `4` i/o, `5` journal corrupt, `6` resume mismatch, `7` device
//! loss, `8` interrupted by a simulated host crash (resumable).

use std::process::ExitCode;

use repute_cli::{ParseArgsError, ReputeError};

/// Exit code of malformed command lines (the configuration class).
const EXIT_USAGE: u8 = 2;

/// The one parse → run → exit-code path of every subcommand.
fn dispatch<O>(
    parsed: Result<O, ParseArgsError>,
    run: impl FnOnce(&O) -> Result<(), ReputeError>,
) -> ExitCode {
    let opts = match parsed {
        Ok(opts) => opts,
        Err(err) if err.is_help_request() => {
            println!("{}", repute_cli::USAGE);
            return ExitCode::SUCCESS;
        }
        Err(err) => {
            eprintln!("{err}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::from(err.exit_code())
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("map") => dispatch(repute_cli::parse_map_args(args), |opts| {
            let (reads, mappings) = repute_cli::run_map(opts)?;
            eprintln!("done: {reads} reads mapped, {mappings} locations reported");
            Ok(())
        }),
        Some("index") => dispatch(repute_cli::parse_index_args(args), repute_cli::run_index),
        Some("simulate") => dispatch(
            repute_cli::parse_simulate_args(args),
            repute_cli::run_simulate,
        ),
        Some("serve") => dispatch(repute_cli::parse_serve_args(args), repute_cli::run_serve),
        Some("submit") => dispatch(repute_cli::parse_submit_args(args), repute_cli::run_submit),
        Some("stats") => dispatch(repute_cli::parse_stats_args(args), repute_cli::run_stats),
        Some("trace") => dispatch(repute_cli::parse_trace_args(args), repute_cli::run_trace),
        Some("--help") | Some("-h") | None => {
            println!("{}", repute_cli::USAGE);
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown subcommand {other:?}\n\n{}", repute_cli::USAGE);
            ExitCode::from(EXIT_USAGE)
        }
    }
}
