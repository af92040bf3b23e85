//! Minimal SAM output.
//!
//! The paper lists SAM output as future work for REPUTE (§IV: "We envisage
//! that the future versions of REPUTE will deliver ... SAM output
//! format"); this module implements it as an extension. Only the fields a
//! downstream consumer of this reproduction needs are emitted: the
//! mandatory 11 columns with optional `NM` (edit distance) tag.

use std::io::Write;

use repute_align::Cigar;
use repute_genome::{DnaSeq, GenomeError, Strand};
use repute_mappers::multiref::{ReferenceSet, ResolvedMapping};
use repute_mappers::Mapping;

/// SAM FLAG bit for reverse-strand alignment.
const FLAG_REVERSE: u16 = 0x10;
/// SAM FLAG bit for an unmapped read.
const FLAG_UNMAPPED: u16 = 0x4;
/// SAM FLAG bit for a secondary alignment.
const FLAG_SECONDARY: u16 = 0x100;

/// One read's alignments, ready for SAM serialisation.
#[derive(Debug, Clone)]
pub struct SamRecord<'a> {
    /// Read name (QNAME).
    pub name: &'a str,
    /// The read sequence (as sequenced).
    pub seq: &'a DnaSeq,
    /// Mappings to emit; the first is primary, the rest secondary.
    pub mappings: &'a [Mapping],
    /// Optional CIGAR for the primary mapping (others emit `*`).
    pub cigar: Option<&'a Cigar>,
}

/// Writes a SAM header for a single-reference file.
///
/// # Errors
///
/// Propagates I/O errors from `out` (a `&mut` writer is accepted).
pub fn write_header<W: Write>(
    out: W,
    reference_name: &str,
    reference_len: usize,
) -> Result<(), GenomeError> {
    write_header_multi(out, &[(reference_name, reference_len)])
}

/// Writes a SAM header listing several reference sequences (one `@SQ`
/// line per record, input order preserved).
///
/// # Errors
///
/// Propagates I/O errors from `out` (a `&mut` writer is accepted).
pub fn write_header_multi<W: Write>(
    mut out: W,
    references: &[(&str, usize)],
) -> Result<(), GenomeError> {
    writeln!(out, "@HD\tVN:1.6\tSO:unknown")?;
    for (name, len) in references {
        writeln!(out, "@SQ\tSN:{name}\tLN:{len}")?;
    }
    writeln!(out, "@PG\tID:repute\tPN:repute\tVN:0.1.0")?;
    Ok(())
}

/// Writes one read's records (or an unmapped record when it has none).
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_record<W: Write>(
    mut out: W,
    reference_name: &str,
    record: &SamRecord<'_>,
) -> Result<(), GenomeError> {
    if record.mappings.is_empty() {
        writeln!(
            out,
            "{}\t{}\t*\t0\t0\t*\t*\t0\t0\t{}\t*",
            record.name, FLAG_UNMAPPED, record.seq
        )?;
        return Ok(());
    }
    for (i, m) in record.mappings.iter().enumerate() {
        let mut flag = 0u16;
        if m.strand == Strand::Reverse {
            flag |= FLAG_REVERSE;
        }
        if i > 0 {
            flag |= FLAG_SECONDARY;
        }
        let cigar = match (i, record.cigar) {
            (0, Some(c)) => c.to_string(),
            _ => format!("{}M", record.seq.len()),
        };
        // SAM stores the sequence on the reference's forward strand.
        let seq = match m.strand {
            Strand::Forward => record.seq.to_string(),
            Strand::Reverse => record.seq.reverse_complement().to_string(),
        };
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t255\t{}\t*\t0\t0\t{}\t*\tNM:i:{}",
            record.name,
            flag,
            reference_name,
            m.position + 1, // SAM is 1-based
            cigar,
            seq,
            m.distance
        )?;
    }
    Ok(())
}

/// Writes one read's records against a multi-sequence reference, using
/// mappings already resolved to `(record, local position)` by
/// [`repute_mappers::multiref::ReferenceSet::resolve_mappings`].
///
/// `names[i]` must be the name of record `i`. The first mapping is
/// primary (and carries `cigar` when given); the rest are secondary.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
///
/// # Panics
///
/// Panics if a mapping's record index is outside `names`.
pub fn write_resolved_record<W: Write>(
    mut out: W,
    names: &[&str],
    read_name: &str,
    seq: &DnaSeq,
    mappings: &[ResolvedMapping],
    cigar: Option<&Cigar>,
) -> Result<(), GenomeError> {
    if mappings.is_empty() {
        writeln!(
            out,
            "{read_name}\t{FLAG_UNMAPPED}\t*\t0\t0\t*\t*\t0\t0\t{seq}\t*"
        )?;
        return Ok(());
    }
    for (i, m) in mappings.iter().enumerate() {
        let mut flag = 0u16;
        if m.strand == Strand::Reverse {
            flag |= FLAG_REVERSE;
        }
        if i > 0 {
            flag |= FLAG_SECONDARY;
        }
        let cigar_text = match (i, cigar) {
            (0, Some(c)) => c.to_string(),
            _ => format!("{}M", seq.len()),
        };
        let seq_text = match m.strand {
            Strand::Forward => seq.to_string(),
            Strand::Reverse => seq.reverse_complement().to_string(),
        };
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t255\t{}\t*\t0\t0\t{}\t*\tNM:i:{}",
            read_name,
            flag,
            names[m.record],
            m.position + 1,
            cigar_text,
            seq_text,
            m.distance
        )?;
    }
    Ok(())
}

/// A SAM file over a [`ReferenceSet`], written into a sink: the header
/// of the set's records, then read after read — mappings on the
/// concatenated index resolved to the named records, then written. The
/// one path behind `repute map`'s output (streamed to a file or stdout
/// as it is produced) and the daemon's per-job SAM blocks (assembled in
/// a `Vec<u8>`), which is why the two agree byte for byte.
#[derive(Debug)]
pub struct SamAssembly<'a, W: Write = Vec<u8>> {
    set: &'a ReferenceSet,
    names: Vec<&'a str>,
    /// The sink the SAM text goes to.
    pub out: W,
}

impl<'a> SamAssembly<'a> {
    /// Starts the SAM in memory with the header of `set`'s records.
    ///
    /// # Errors
    ///
    /// As [`write_header_multi`].
    pub fn new(set: &'a ReferenceSet) -> Result<SamAssembly<'a>, GenomeError> {
        SamAssembly::with_sink(set, Vec::new())
    }
}

impl<'a, W: Write> SamAssembly<'a, W> {
    /// Starts the SAM in `out` with the header of `set`'s records.
    ///
    /// # Errors
    ///
    /// As [`write_header_multi`].
    pub fn with_sink(set: &'a ReferenceSet, mut out: W) -> Result<SamAssembly<'a, W>, GenomeError> {
        let header: Vec<(&str, usize)> = set
            .records()
            .iter()
            .map(|(n, l)| (n.as_str(), *l))
            .collect();
        write_header_multi(&mut out, &header)?;
        Ok(SamAssembly::continuing(set, out))
    }

    /// Goes on with a SAM whose header (and perhaps some records) `out`
    /// already holds: a resumed run's.
    pub fn continuing(set: &'a ReferenceSet, out: W) -> SamAssembly<'a, W> {
        SamAssembly {
            set,
            names: set.records().iter().map(|(n, _)| n.as_str()).collect(),
            out,
        }
    }

    /// Appends one read's record(s) and returns its resolved mappings;
    /// `cigar` describes the first of them (others emit `<len>M`).
    ///
    /// # Errors
    ///
    /// As [`write_resolved_record`].
    pub fn push(
        &mut self,
        id: &str,
        seq: &DnaSeq,
        raw: &[Mapping],
        cigar: Option<&Cigar>,
    ) -> Result<Vec<ResolvedMapping>, GenomeError> {
        let resolved = self.set.resolve_mappings(seq.len(), raw);
        write_resolved_record(&mut self.out, &self.names, id, seq, &resolved, cigar)?;
        Ok(resolved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repute_align::CigarOp;

    fn read() -> DnaSeq {
        "ACGT".parse().unwrap()
    }

    #[test]
    fn header_has_reference_line() {
        let mut buf = Vec::new();
        write_header(&mut buf, "chr21sim", 1234).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("@SQ\tSN:chr21sim\tLN:1234"));
    }

    #[test]
    fn unmapped_record() {
        let seq = read();
        let rec = SamRecord {
            name: "r1",
            seq: &seq,
            mappings: &[],
            cigar: None,
        };
        let mut buf = Vec::new();
        write_record(&mut buf, "chr", &rec).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("r1\t4\t*\t0"));
    }

    #[test]
    fn multi_reference_header_and_resolved_records() {
        let mut buf = Vec::new();
        write_header_multi(&mut buf, &[("chrA", 100), ("chrB", 50)]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("@SQ\tSN:chrA\tLN:100"));
        assert!(text.contains("@SQ\tSN:chrB\tLN:50"));

        let seq = read();
        let mappings = [
            repute_mappers::multiref::ResolvedMapping {
                record: 1,
                position: 7,
                strand: Strand::Forward,
                distance: 1,
            },
            repute_mappers::multiref::ResolvedMapping {
                record: 0,
                position: 90,
                strand: Strand::Reverse,
                distance: 2,
            },
        ];
        let mut buf = Vec::new();
        write_resolved_record(&mut buf, &["chrA", "chrB"], "r9", &seq, &mappings, None).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\tchrB\t8\t"));
        assert!(lines[1].contains("\tchrA\t91\t"));
        assert!(lines[1].starts_with("r9\t272\t")); // secondary + reverse

        let mut buf = Vec::new();
        write_resolved_record(&mut buf, &["chrA"], "r0", &seq, &[], None).unwrap();
        assert!(String::from_utf8(buf).unwrap().starts_with("r0\t4\t*"));
    }

    #[test]
    fn primary_and_secondary_records() {
        let seq = read();
        let mappings = [
            Mapping {
                position: 9,
                strand: Strand::Forward,
                distance: 0,
            },
            Mapping {
                position: 99,
                strand: Strand::Reverse,
                distance: 1,
            },
        ];
        let cigar = Cigar::from_ops([CigarOp::Match; 4]);
        let rec = SamRecord {
            name: "r2",
            seq: &seq,
            mappings: &mappings,
            cigar: Some(&cigar),
        };
        let mut buf = Vec::new();
        write_record(&mut buf, "chr", &rec).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        // 1-based position, explicit CIGAR, NM tag.
        assert!(lines[0].contains("\t10\t255\t4=\t"));
        assert!(lines[0].ends_with("NM:i:0"));
        // Secondary + reverse flags, reverse-complemented sequence.
        assert!(lines[1].starts_with("r2\t272\t"));
        assert!(lines[1].contains("ACGT")); // ACGT is its own RC
        assert!(lines[1].contains("\t4M\t"));
    }
}
