//! `--help` at the binary: a subcommand's help is an answer, not an error.

use std::process::Command;

const SUBCOMMANDS: [&str; 7] = [
    "map", "index", "simulate", "serve", "submit", "stats", "trace",
];

fn repute(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repute"))
        .args(args)
        .output()
        .expect("run repute");
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

#[test]
fn help_is_the_usage_on_stdout_and_exit_0_for_every_subcommand() {
    let top = repute(&["--help"]);
    assert_eq!(
        top,
        (Some(0), format!("{}\n", repute_cli::USAGE), String::new())
    );
    for subcommand in SUBCOMMANDS {
        for flag in ["--help", "-h"] {
            assert_eq!(
                repute(&[subcommand, flag]),
                top,
                "repute {subcommand} {flag}"
            );
        }
    }
    // After other arguments too: help wins over what else the line lacks.
    assert_eq!(repute(&["map", "--reads", "r.fq", "--help"]), top);
}

#[test]
fn a_malformed_line_is_still_exit_2_with_the_usage_on_stderr() {
    for subcommand in SUBCOMMANDS {
        let (code, stdout, stderr) = repute(&[subcommand, "--bogus"]);
        assert_eq!(code, Some(2), "repute {subcommand} --bogus");
        assert_eq!(stdout, "");
        assert!(
            stderr.starts_with("unknown option \"--bogus\"\n\n"),
            "{stderr}"
        );
        assert!(stderr.ends_with(&format!("{}\n", repute_cli::USAGE)));
    }
}
