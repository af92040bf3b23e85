//! FASTA reading and writing.
//!
//! The reader is strict about structure (headers, non-empty records) but
//! configurable about ambiguity codes (`N` and friends) via
//! [`AmbiguityPolicy`], because real references such as GRCh38 chr21 begin
//! with multi-megabase `N` runs that a 2-bit alphabet cannot represent.

use std::io::{BufRead, Write};

use crate::rng::StdRng;

use crate::alphabet::Base;
use crate::error::GenomeError;
use crate::seq::DnaSeq;

/// How to treat IUPAC ambiguity codes (anything outside `ACGT`) on input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AmbiguityPolicy {
    /// Fail with [`GenomeError::ParseBase`].
    Reject,
    /// Drop ambiguous positions from the sequence.
    Skip,
    /// Replace each ambiguous position with a deterministic pseudo-random
    /// base derived from the given seed (the policy used for the synthetic
    /// chr21 stand-in, mirroring how 2-bit mappers handle `N` runs).
    Randomize(u64),
}

/// One FASTA record: identifier, optional description, sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastaRecord {
    /// Sequence identifier (text after `>` up to the first whitespace).
    pub id: String,
    /// Rest of the header line, if any.
    pub description: Option<String>,
    /// The sequence payload.
    pub seq: DnaSeq,
}

impl FastaRecord {
    /// Creates a record with no description.
    pub fn new(id: impl Into<String>, seq: DnaSeq) -> FastaRecord {
        FastaRecord {
            id: id.into(),
            description: None,
            seq,
        }
    }
}

/// Streaming FASTA reader over any [`BufRead`] source.
///
/// # Example
///
/// ```
/// use repute_genome::fasta::{FastaReader, AmbiguityPolicy};
///
/// # fn main() -> Result<(), repute_genome::GenomeError> {
/// let data = b">chr21 synthetic\nACGT\nACGN\n" as &[u8];
/// let mut reader = FastaReader::new(data, AmbiguityPolicy::Skip);
/// let record = reader.next().expect("one record")?;
/// assert_eq!(record.id, "chr21");
/// assert_eq!(record.seq.to_string(), "ACGTACG");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FastaReader<R> {
    input: R,
    policy: AmbiguityPolicy,
    line: usize,
    /// The line last read, without its line break; reused for every line.
    buf: String,
    pending_header: Option<String>,
    done: bool,
}

impl<R: BufRead> FastaReader<R> {
    /// Creates a reader with the given ambiguity policy.
    ///
    /// `input` may be a `&mut` reference if the caller needs the reader
    /// back afterwards.
    pub fn new(input: R, policy: AmbiguityPolicy) -> FastaReader<R> {
        FastaReader {
            input,
            policy,
            line: 0,
            buf: String::new(),
            pending_header: None,
            done: false,
        }
    }

    /// Reads the next line into `buf`, without its line break; `false`
    /// at the end of the input.
    fn read_line(&mut self) -> Result<bool, GenomeError> {
        self.buf.clear();
        let n = self.input.read_line(&mut self.buf)?;
        if n == 0 {
            return Ok(false);
        }
        self.line += 1;
        while self.buf.ends_with('\n') || self.buf.ends_with('\r') {
            self.buf.pop();
        }
        Ok(true)
    }

    fn next_record(&mut self) -> Result<Option<FastaRecord>, GenomeError> {
        let header = match self.pending_header.take() {
            Some(h) => h,
            None => loop {
                if !self.read_line()? {
                    return Ok(None);
                }
                if self.buf.starts_with('>') {
                    break std::mem::take(&mut self.buf);
                }
                if !self.buf.is_empty() {
                    return Err(GenomeError::Format {
                        line: self.line,
                        message: "expected '>' header before sequence data".into(),
                    });
                }
            },
        };
        let body = header[1..].trim();
        if body.is_empty() {
            return Err(GenomeError::Format {
                line: self.line,
                message: "empty FASTA header".into(),
            });
        }
        let (id, description) = match body.split_once(char::is_whitespace) {
            Some((id, rest)) => (id.to_string(), Some(rest.trim().to_string())),
            None => (body.to_string(), None),
        };

        let mut seq = DnaSeq::new();
        let mut rng = match self.policy {
            AmbiguityPolicy::Randomize(seed) => Some(StdRng::seed_from_u64(seed)),
            _ => None,
        };
        while self.read_line()? {
            let line = &self.buf;
            if line.starts_with('>') {
                self.pending_header = Some(std::mem::take(&mut self.buf));
                break;
            }
            // A line of bases only goes in a word at a time; any other
            // line base by base, where the policy and the errors apply.
            if seq.push_bases(line) {
                continue;
            }
            for c in line.chars().filter(|c| !c.is_whitespace()) {
                match Base::from_char(c) {
                    Ok(b) => seq.push(b),
                    Err(_) if c.is_ascii_alphabetic() || c == '-' => match self.policy {
                        AmbiguityPolicy::Reject => {
                            return Err(GenomeError::Format {
                                line: self.line,
                                message: format!("ambiguous base {c:?} (policy: reject)"),
                            })
                        }
                        AmbiguityPolicy::Skip => {}
                        AmbiguityPolicy::Randomize(_) => {
                            let code = rng.as_mut().expect("rng set").gen_range(0..4u8);
                            seq.push(Base::from_code(code));
                        }
                    },
                    Err(_) => {
                        return Err(GenomeError::Format {
                            line: self.line,
                            message: format!("invalid character {c:?} in sequence"),
                        })
                    }
                }
            }
        }
        if seq.is_empty() {
            return Err(GenomeError::Format {
                line: self.line,
                message: format!("record {id:?} has an empty sequence"),
            });
        }
        Ok(Some(FastaRecord {
            id,
            description,
            seq,
        }))
    }
}

impl<R: BufRead> Iterator for FastaReader<R> {
    type Item = Result<FastaRecord, GenomeError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.next_record() {
            Ok(Some(rec)) => Some(Ok(rec)),
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

/// Reads every record from a FASTA source.
///
/// # Errors
///
/// Propagates I/O errors and format violations from the underlying
/// [`FastaReader`].
pub fn read_fasta<R: BufRead>(
    input: R,
    policy: AmbiguityPolicy,
) -> Result<Vec<FastaRecord>, GenomeError> {
    FastaReader::new(input, policy).collect()
}

/// Writes records in FASTA format, wrapping sequence lines at `width` bases.
///
/// A `width` of 0 writes each sequence on a single line. Note that a `&mut`
/// writer can be passed when the caller wants the writer back.
///
/// # Errors
///
/// Propagates I/O errors from `output`.
pub fn write_fasta<W: Write>(
    mut output: W,
    records: &[FastaRecord],
    width: usize,
) -> Result<(), GenomeError> {
    for rec in records {
        match &rec.description {
            Some(d) => writeln!(output, ">{} {}", rec.id, d)?,
            None => writeln!(output, ">{}", rec.id)?,
        }
        let s = rec.seq.to_string();
        if width == 0 {
            writeln!(output, "{s}")?;
        } else {
            for chunk in s.as_bytes().chunks(width) {
                output.write_all(chunk)?;
                output.write_all(b"\n")?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(data: &str, policy: AmbiguityPolicy) -> Result<Vec<FastaRecord>, GenomeError> {
        read_fasta(data.as_bytes(), policy)
    }

    #[test]
    fn parses_multi_record_multi_line() {
        let recs = parse(
            ">one first record\nACGT\nTTTT\n>two\nGG\nGG\n",
            AmbiguityPolicy::Reject,
        )
        .unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].id, "one");
        assert_eq!(recs[0].description.as_deref(), Some("first record"));
        assert_eq!(recs[0].seq.to_string(), "ACGTTTTT");
        assert_eq!(recs[1].id, "two");
        assert_eq!(recs[1].seq.to_string(), "GGGG");
    }

    #[test]
    fn rejects_sequence_before_header() {
        let err = parse("ACGT\n", AmbiguityPolicy::Reject).unwrap_err();
        assert!(err.to_string().contains("header"));
    }

    #[test]
    fn rejects_empty_header_and_empty_sequence() {
        assert!(parse("> \nACGT\n", AmbiguityPolicy::Reject).is_err());
        assert!(parse(">x\n>y\nAC\n", AmbiguityPolicy::Reject).is_err());
    }

    #[test]
    fn ambiguity_policies() {
        let data = ">x\nACNNGT\n";
        assert!(parse(data, AmbiguityPolicy::Reject).is_err());
        let skipped = parse(data, AmbiguityPolicy::Skip).unwrap();
        assert_eq!(skipped[0].seq.to_string(), "ACGT");
        let randomized = parse(data, AmbiguityPolicy::Randomize(7)).unwrap();
        assert_eq!(randomized[0].seq.len(), 6);
        // Deterministic for a fixed seed.
        let again = parse(data, AmbiguityPolicy::Randomize(7)).unwrap();
        assert_eq!(randomized[0].seq, again[0].seq);
    }

    #[test]
    fn invalid_characters_always_rejected() {
        assert!(parse(">x\nAC1T\n", AmbiguityPolicy::Randomize(0)).is_err());
    }

    #[test]
    fn write_then_read_round_trip() {
        let recs = vec![
            FastaRecord::new("a", "ACGTACGTACGT".parse().unwrap()),
            FastaRecord {
                id: "b".into(),
                description: Some("desc here".into()),
                seq: "TTTT".parse().unwrap(),
            },
        ];
        let mut buf = Vec::new();
        write_fasta(&mut buf, &recs, 5).unwrap();
        let back = read_fasta(buf.as_slice(), AmbiguityPolicy::Reject).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn write_unwrapped() {
        let recs = vec![FastaRecord::new("a", "ACGT".parse().unwrap())];
        let mut buf = Vec::new();
        write_fasta(&mut buf, &recs, 0).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), ">a\nACGT\n");
    }

    #[test]
    fn handles_crlf_and_blank_lines() {
        let recs = parse("\n>x\r\nAC\r\nGT\r\n", AmbiguityPolicy::Reject).unwrap();
        assert_eq!(recs[0].seq.to_string(), "ACGT");
    }

    /// The reader as it stood before lines of bases were packed a word
    /// at a time: a `String` a line, every character through
    /// [`Base::from_char`]. The oracle the word-at-a-time reader is held
    /// to, records and errors alike.
    struct Oracle<R> {
        input: R,
        policy: AmbiguityPolicy,
        line: usize,
        pending_header: Option<String>,
    }

    impl<R: BufRead> Oracle<R> {
        fn read_line(&mut self) -> Result<Option<String>, GenomeError> {
            let mut buf = String::new();
            let n = self.input.read_line(&mut buf)?;
            if n == 0 {
                return Ok(None);
            }
            self.line += 1;
            while buf.ends_with('\n') || buf.ends_with('\r') {
                buf.pop();
            }
            Ok(Some(buf))
        }

        fn next_record(&mut self) -> Result<Option<FastaRecord>, GenomeError> {
            let header = match self.pending_header.take() {
                Some(h) => h,
                None => loop {
                    match self.read_line()? {
                        None => return Ok(None),
                        Some(l) if l.is_empty() => continue,
                        Some(l) if l.starts_with('>') => break l,
                        Some(_) => {
                            return Err(GenomeError::Format {
                                line: self.line,
                                message: "expected '>' header before sequence data".into(),
                            })
                        }
                    }
                },
            };
            let body = header[1..].trim();
            if body.is_empty() {
                return Err(GenomeError::Format {
                    line: self.line,
                    message: "empty FASTA header".into(),
                });
            }
            let (id, description) = match body.split_once(char::is_whitespace) {
                Some((id, rest)) => (id.to_string(), Some(rest.trim().to_string())),
                None => (body.to_string(), None),
            };
            let mut seq = DnaSeq::new();
            let mut rng = match self.policy {
                AmbiguityPolicy::Randomize(seed) => Some(StdRng::seed_from_u64(seed)),
                _ => None,
            };
            loop {
                match self.read_line()? {
                    None => break,
                    Some(l) if l.starts_with('>') => {
                        self.pending_header = Some(l);
                        break;
                    }
                    Some(l) => {
                        for c in l.chars().filter(|c| !c.is_whitespace()) {
                            match Base::from_char(c) {
                                Ok(b) => seq.push(b),
                                Err(_) if c.is_ascii_alphabetic() || c == '-' => {
                                    match self.policy {
                                        AmbiguityPolicy::Reject => {
                                            return Err(GenomeError::Format {
                                                line: self.line,
                                                message: format!(
                                                    "ambiguous base {c:?} (policy: reject)"
                                                ),
                                            })
                                        }
                                        AmbiguityPolicy::Skip => {}
                                        AmbiguityPolicy::Randomize(_) => {
                                            let code =
                                                rng.as_mut().expect("rng set").gen_range(0..4u8);
                                            seq.push(Base::from_code(code));
                                        }
                                    }
                                }
                                Err(_) => {
                                    return Err(GenomeError::Format {
                                        line: self.line,
                                        message: format!("invalid character {c:?} in sequence"),
                                    })
                                }
                            }
                        }
                    }
                }
            }
            if seq.is_empty() {
                return Err(GenomeError::Format {
                    line: self.line,
                    message: format!("record {id:?} has an empty sequence"),
                });
            }
            Ok(Some(FastaRecord {
                id,
                description,
                seq,
            }))
        }
    }

    /// Every record of `data` by the oracle, or its first error as text.
    fn oracle(data: &str, policy: AmbiguityPolicy) -> Result<Vec<FastaRecord>, String> {
        let mut reader = Oracle {
            input: data.as_bytes(),
            policy,
            line: 0,
            pending_header: None,
        };
        let mut records = Vec::new();
        while let Some(record) = reader.next_record().map_err(|e| e.to_string())? {
            records.push(record);
        }
        Ok(records)
    }

    #[test]
    fn word_packing_reads_what_the_per_character_loop_read() {
        // Lines of bases longer and shorter than a word, at many offsets
        // in the sequence's last word, beside lines with N, lower case,
        // CR, tab, space and '-'; every prefix, and every insertion and
        // replacement of one character, a multi-byte one among them.
        let corpus = ">chr1 first one\nACGTACGTACGTACGTACGTACGTACGTACGTAC\nacgtnACGT\n\
                      GATTACAgattacaGATTACAgattacaGATTACAgattaca\r\nAC\tGT -A\n\
                      >chr2\n\nTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTT\n\
                      CC\nNNNNacgt\n>three\nA\n";
        let chars: Vec<(usize, char)> = corpus.char_indices().collect();
        let edits = [
            'A', 'c', 'N', 'n', '\r', '\t', ' ', '-', 'é', '>', '\n', '1',
        ];
        let mut inputs: Vec<String> = Vec::new();
        for &(at, _) in chars.iter().chain([(corpus.len(), ' ')].iter()) {
            inputs.push(corpus[..at].to_string());
            for edit in edits {
                inputs.push(format!("{}{edit}{}", &corpus[..at], &corpus[at..]));
            }
        }
        for &(at, c) in &chars {
            for edit in edits {
                inputs.push(format!(
                    "{}{edit}{}",
                    &corpus[..at],
                    &corpus[at + c.len_utf8()..]
                ));
            }
        }
        let mut outcomes = [0usize; 2];
        for input in &inputs {
            for policy in [
                AmbiguityPolicy::Reject,
                AmbiguityPolicy::Skip,
                AmbiguityPolicy::Randomize(7),
            ] {
                let got = read_fasta(input.as_bytes(), policy).map_err(|e| e.to_string());
                let expected = oracle(input, policy);
                assert_eq!(got, expected, "{policy:?} on {input:?}");
                outcomes[usize::from(got.is_ok())] += 1;
            }
        }
        assert!(outcomes.iter().all(|&n| n > 500), "{outcomes:?}");
    }
}
