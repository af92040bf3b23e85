//! The typed error taxonomy of the mapper's user-facing surfaces.
//!
//! Every failure a run can hit — bad configuration, malformed input,
//! filesystem trouble, a corrupt or mismatched checkpoint or journal,
//! the platform losing every device — maps to one
//! [`ReputeError`] variant, and every variant maps to a distinct process
//! exit code ([`ReputeError::exit_code`]). The CLI threads this type
//! through all of its subcommands so that scripts can react to *what* failed without string-matching
//! stderr, and so that no user-facing path panics.

use std::error::Error;
use std::fmt;
use std::io;
use std::path::Path;

use repute_genome::GenomeError;
use repute_hetsim::{LaunchError, LaunchErrorKind};

/// Everything that can go wrong in a user-facing REPUTE run.
#[derive(Debug)]
pub enum ReputeError {
    /// Invalid configuration or command line (exit code 2).
    Config(String),
    /// Malformed input data — FASTA/FASTQ/index/telemetry (exit code 3).
    InputParse(String),
    /// Filesystem or pipe failure (exit code 4).
    Io {
        /// What the process was doing when the I/O failed.
        context: String,
        /// The underlying error.
        source: io::Error,
    },
    /// A checkpoint or journal failed validation: bad magic, a checksum
    /// mismatch, a file shorter than its checkpoint committed, or an
    /// internally inconsistent record (exit code 5).
    JournalCorrupt(String),
    /// A checkpoint or journal was written by a different run: its
    /// config/workload fingerprint does not match the resume attempt
    /// (exit code 6).
    ResumeMismatch(String),
    /// The simulated platform lost devices beyond recovery (exit code 7).
    DeviceLoss(String),
}

impl ReputeError {
    /// The distinct process exit code of this failure class.
    pub fn exit_code(&self) -> u8 {
        match self {
            ReputeError::Config(_) => 2,
            ReputeError::InputParse(_) => 3,
            ReputeError::Io { .. } => 4,
            ReputeError::JournalCorrupt(_) => 5,
            ReputeError::ResumeMismatch(_) => 6,
            ReputeError::DeviceLoss(_) => 7,
        }
    }

    /// An [`ReputeError::Io`] annotated with the path being touched.
    pub fn io_at(path: &Path, source: io::Error) -> ReputeError {
        ReputeError::Io {
            context: path.display().to_string(),
            source,
        }
    }
}

impl fmt::Display for ReputeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReputeError::Config(msg) => write!(f, "configuration error: {msg}"),
            ReputeError::InputParse(msg) => write!(f, "input parse error: {msg}"),
            ReputeError::Io { context, source } => write!(f, "i/o error ({context}): {source}"),
            ReputeError::JournalCorrupt(msg) => write!(f, "journal corrupt: {msg}"),
            ReputeError::ResumeMismatch(msg) => write!(f, "resume mismatch: {msg}"),
            ReputeError::DeviceLoss(msg) => write!(f, "device loss: {msg}"),
        }
    }
}

impl Error for ReputeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ReputeError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for ReputeError {
    fn from(source: io::Error) -> ReputeError {
        ReputeError::Io {
            context: "i/o".to_string(),
            source,
        }
    }
}

impl From<GenomeError> for ReputeError {
    fn from(err: GenomeError) -> ReputeError {
        match err {
            GenomeError::Io(source) => ReputeError::Io {
                context: "reading sequence data".to_string(),
                source,
            },
            other => ReputeError::InputParse(other.to_string()),
        }
    }
}

impl From<LaunchError> for ReputeError {
    fn from(err: LaunchError) -> ReputeError {
        match err.kind() {
            LaunchErrorKind::InvalidDistribution => ReputeError::Config(err.to_string()),
            _ => ReputeError::DeviceLoss(err.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_and_nonzero() {
        let errs = [
            ReputeError::Config("c".into()),
            ReputeError::InputParse("p".into()),
            ReputeError::Io {
                context: "x".into(),
                source: io::Error::other("boom"),
            },
            ReputeError::JournalCorrupt("j".into()),
            ReputeError::ResumeMismatch("r".into()),
            ReputeError::DeviceLoss("d".into()),
        ];
        let mut codes: Vec<u8> = errs.iter().map(ReputeError::exit_code).collect();
        assert!(codes.iter().all(|&c| c >= 2), "0/1 are reserved: {codes:?}");
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errs.len(), "exit codes must be distinct");
    }

    #[test]
    fn conversions_classify_by_kind() {
        let io_err: ReputeError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert_eq!(io_err.exit_code(), 4);
        let parse: ReputeError = GenomeError::Format {
            line: 3,
            message: "bad".into(),
        }
        .into();
        assert_eq!(parse.exit_code(), 3);
        let genome_io: ReputeError = GenomeError::Io(io::Error::other("pipe")).into();
        assert_eq!(genome_io.exit_code(), 4);
        let config: ReputeError = LaunchError::from_message("no shares").into();
        assert_eq!(config.exit_code(), 2);
        let loss: ReputeError = LaunchError::all_devices_lost(0, 9).into();
        assert_eq!(loss.exit_code(), 7);
    }

    #[test]
    fn display_names_the_class() {
        assert!(ReputeError::JournalCorrupt("x".into())
            .to_string()
            .starts_with("journal corrupt"));
        assert!(ReputeError::ResumeMismatch("x".into())
            .to_string()
            .starts_with("resume mismatch"));
    }
}
