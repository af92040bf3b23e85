//! FASTQ reading and writing (Phred+33 qualities).

use std::io::{BufRead, Write};

use crate::error::GenomeError;
use crate::seq::DnaSeq;

/// Lowest legal Phred+33 quality byte (`!`, Q0).
pub const QUALITY_MIN: u8 = b'!';
/// Highest legal Phred+33 quality byte (`~`, Q93).
pub const QUALITY_MAX: u8 = b'~';

/// One FASTQ record: identifier, sequence and per-base qualities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastqRecord {
    /// Read identifier (text after `@` up to the first whitespace).
    pub id: String,
    /// The read sequence. Ambiguous bases are replaced by `A` on input
    /// (short-read mappers treat `N` as a guaranteed mismatch; substituting
    /// a fixed base keeps at most one extra error, the convention the
    /// 2-bit OpenCL kernels in the paper rely on).
    pub seq: DnaSeq,
    /// Phred+33 quality bytes, one per base.
    pub quality: Vec<u8>,
}

impl FastqRecord {
    /// Creates a record with a uniform quality of `q` (Phred score).
    ///
    /// # Panics
    ///
    /// Panics if `q > 93` (not representable in Phred+33).
    pub fn with_uniform_quality(id: impl Into<String>, seq: DnaSeq, q: u8) -> FastqRecord {
        assert!(q <= 93, "phred score {q} exceeds 93");
        let quality = vec![QUALITY_MIN + q; seq.len()];
        FastqRecord {
            id: id.into(),
            seq,
            quality,
        }
    }
}

/// Streaming FASTQ reader over any [`BufRead`] source.
///
/// # Example
///
/// ```
/// use repute_genome::fastq::FastqReader;
///
/// # fn main() -> Result<(), repute_genome::GenomeError> {
/// let data = b"@r1\nACGT\n+\nIIII\n" as &[u8];
/// let mut reader = FastqReader::new(data);
/// let rec = reader.next().expect("one record")?;
/// assert_eq!(rec.id, "r1");
/// assert_eq!(rec.quality, b"IIII");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FastqReader<R> {
    input: R,
    line: usize,
    done: bool,
}

impl<R: BufRead> FastqReader<R> {
    /// Creates a FASTQ reader. A `&mut` reference may be passed as `input`.
    pub fn new(input: R) -> FastqReader<R> {
        FastqReader {
            input,
            line: 0,
            done: false,
        }
    }

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

    fn format_err(&self, message: impl Into<String>) -> GenomeError {
        GenomeError::Format {
            line: self.line,
            message: message.into(),
        }
    }

    fn next_record(&mut self) -> Result<Option<FastqRecord>, GenomeError> {
        let header = loop {
            match self.read_line()? {
                None => return Ok(None),
                Some(l) if l.is_empty() => continue,
                Some(l) => break l,
            }
        };
        if !header.starts_with('@') {
            return Err(self.format_err("expected '@' record header"));
        }
        let id = header[1..]
            .split_whitespace()
            .next()
            .ok_or_else(|| self.format_err("empty FASTQ header"))?
            .to_string();

        let seq_line = self
            .read_line()?
            .ok_or_else(|| self.format_err("truncated record: missing sequence"))?;
        if seq_line.is_empty() {
            return Err(self.format_err(format!("record {id:?} has an empty sequence")));
        }
        let seq = DnaSeq::from_read_text(&seq_line)
            .map_err(|c| self.format_err(format!("invalid base {c:?}")))?;

        let plus = self
            .read_line()?
            .ok_or_else(|| self.format_err("truncated record: missing '+' line"))?;
        if !plus.starts_with('+') {
            return Err(self.format_err("expected '+' separator line"));
        }

        let qual_line = self
            .read_line()?
            .ok_or_else(|| self.format_err("truncated record: missing quality line"))?;
        let quality = qual_line.into_bytes();
        if quality.len() != seq.len() {
            return Err(GenomeError::InvalidQuality(format!(
                "quality length {} does not match sequence length {}",
                quality.len(),
                seq.len()
            )));
        }
        if let Some(&bad) = quality
            .iter()
            .find(|&&q| !(QUALITY_MIN..=QUALITY_MAX).contains(&q))
        {
            return Err(GenomeError::InvalidQuality(format!(
                "byte {bad:#04x} outside the Phred+33 range"
            )));
        }
        Ok(Some(FastqRecord { id, seq, quality }))
    }
}

impl<R: BufRead> Iterator for FastqReader<R> {
    type Item = Result<FastqRecord, GenomeError>;

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

/// Reads every record from a FASTQ source.
///
/// # Errors
///
/// Propagates I/O errors and format violations from [`FastqReader`].
pub fn read_fastq<R: BufRead>(input: R) -> Result<Vec<FastqRecord>, GenomeError> {
    FastqReader::new(input).collect()
}

/// Writes records in four-line FASTQ format.
///
/// # Errors
///
/// Propagates I/O errors from `output` (a `&mut` writer is accepted).
pub fn write_fastq<W: Write>(mut output: W, records: &[FastqRecord]) -> Result<(), GenomeError> {
    for rec in records {
        writeln!(output, "@{}", rec.id)?;
        writeln!(output, "{}", rec.seq)?;
        writeln!(output, "+")?;
        output.write_all(&rec.quality)?;
        output.write_all(b"\n")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_two_records() {
        let data = "@a comment\nACGT\n+\nIIII\n@b\nGG\n+b\n!!\n";
        let recs = read_fastq(data.as_bytes()).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].id, "a");
        assert_eq!(recs[0].seq.to_string(), "ACGT");
        assert_eq!(recs[1].quality, b"!!");
    }

    #[test]
    fn n_bases_become_a() {
        let recs = read_fastq("@a\nANNT\n+\nIIII\n".as_bytes()).unwrap();
        assert_eq!(recs[0].seq.to_string(), "AAAT");
    }

    #[test]
    fn quality_length_mismatch_rejected() {
        let err = read_fastq("@a\nACGT\n+\nIII\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GenomeError::InvalidQuality(_)));
    }

    #[test]
    fn quality_range_enforced() {
        let err = read_fastq("@a\nAC\n+\nI\u{7f}\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GenomeError::InvalidQuality(_)));
    }

    #[test]
    fn truncation_detected() {
        assert!(read_fastq("@a\nACGT\n+\n".as_bytes()).is_err());
        assert!(read_fastq("@a\nACGT\n".as_bytes()).is_err());
    }

    #[test]
    fn empty_sequence_rejected() {
        // A blank sequence line is a malformed record, not an empty read:
        // downstream kernels assume every read has at least one base.
        let err = read_fastq("@a\n\n+\n\n".as_bytes()).unwrap_err();
        assert!(
            matches!(&err, GenomeError::Format { message, .. } if message.contains("empty sequence")),
            "{err:?}"
        );
    }

    #[test]
    fn missing_at_rejected() {
        assert!(read_fastq("a\nACGT\n+\nIIII\n".as_bytes()).is_err());
    }

    #[test]
    fn round_trip() {
        let recs = vec![
            FastqRecord::with_uniform_quality("x", "ACGTT".parse().unwrap(), 40),
            FastqRecord::with_uniform_quality("y", "GG".parse().unwrap(), 2),
        ];
        let mut buf = Vec::new();
        write_fastq(&mut buf, &recs).unwrap();
        let back = read_fastq(buf.as_slice()).unwrap();
        assert_eq!(back, recs);
    }

    /// The sequence-line loop the word-at-a-time packing replaced: one
    /// character at a time, other ASCII letters as `A`, the first
    /// non-letter an error. `line` is as `read_line` leaves it.
    fn per_character(line: &str) -> Result<DnaSeq, String> {
        if line.is_empty() {
            return Err("record \"r\" has an empty sequence".to_string());
        }
        let mut seq = DnaSeq::with_capacity(line.len());
        for c in line.chars() {
            match crate::alphabet::Base::from_char(c) {
                Ok(b) => seq.push(b),
                Err(_) if c.is_ascii_alphabetic() => seq.push(crate::alphabet::Base::A),
                Err(_) => return Err(format!("invalid base {c:?}")),
            }
        }
        Ok(seq)
    }

    #[test]
    fn sequence_lines_pack_as_the_per_character_loop_did() {
        let corpus = [
            "ACGTACGTNNNNacgtnRYKMacgtACGTTTGGCCAAacgtacgtacgtACGTNacgtACGTACGTACGTAC",
            "acgtacgtacgtacgtacgtacgtacgtacgtA",
            "NNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNN",
            "ACGT\r",
            "ACG\rTACGTACGTACGTACGTACGTACGTACGTACG",
            "ACGTACGTACGTACGTACGTACGTACGTACGé",
            "ACGTACGT😀ACGTacgt",
            "ACGT-ACGT ACGT1",
            "",
        ];
        let edits = [
            'A', 'c', 'g', 'T', 'N', 'n', 'R', 'y', '\r', '-', ' ', '1', '.', 'é', '😀',
        ];
        let mut lines: Vec<String> = Vec::new();
        for line in corpus {
            let chars: Vec<char> = line.chars().collect();
            for end in 0..=chars.len() {
                lines.push(chars[..end].iter().collect());
            }
            for at in 0..=chars.len() {
                for &edit in &edits {
                    let mut inserted = chars.clone();
                    inserted.insert(at, edit);
                    lines.push(inserted.into_iter().collect());
                    if at < chars.len() {
                        let mut replaced = chars.clone();
                        replaced[at] = edit;
                        lines.push(replaced.into_iter().collect());
                    }
                }
            }
        }
        let mut refused = 0;
        for line in &lines {
            let kept = line.trim_end_matches(['\n', '\r']);
            let quality = "I".repeat(kept.chars().count());
            let document = format!("@r\n{line}\n+\n{quality}\n");
            let got = match read_fastq(document.as_bytes()) {
                Ok(records) => Ok(records[0].seq.clone()),
                Err(GenomeError::Format { line: 2, message }) => Err(message),
                Err(other) => panic!("{line:?}: {other}"),
            };
            let expected = per_character(kept);
            refused += usize::from(expected.is_err());
            assert_eq!(got, expected, "{line:?}");
        }
        assert!(
            refused > 1_000 && lines.len() - refused > 1_000,
            "{refused}"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds 93")]
    fn uniform_quality_validates() {
        let _ = FastqRecord::with_uniform_quality("x", "A".parse().unwrap(), 94);
    }
}
