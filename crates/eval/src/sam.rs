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
use repute_obs::json::Decimal;

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
    out.write_all(b"@HD\tVN:1.6\tSO:unknown\n")?;
    for (name, len) in references {
        for piece in [
            b"@SQ\tSN:",
            name.as_bytes(),
            b"\tLN:",
            Decimal::new(*len as u64).as_bytes(),
            b"\n",
        ] {
            out.write_all(piece)?;
        }
    }
    out.write_all(b"@PG\tID:repute\tPN:repute\tVN:0.1.0\n")?;
    Ok(())
}

/// The header of a SAM over `set`'s records: what
/// [`SamAssembly::with_sink`] writes first, as bytes a caller that
/// starts many SAMs over one set builds once.
pub fn header_bytes(set: &ReferenceSet) -> Vec<u8> {
    let references: Vec<(&str, usize)> = set
        .records()
        .iter()
        .map(|(n, l)| (n.as_str(), *l))
        .collect();
    let mut out = Vec::new();
    write_header_multi(&mut out, &references).expect("writing to memory cannot fail");
    out
}

/// Writes one read's records (or an unmapped record when it has none)
/// against a single reference, through [`write_resolved_record`].
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_record<W: Write>(
    out: W,
    reference_name: &str,
    record: &SamRecord<'_>,
) -> Result<(), GenomeError> {
    let resolved: Vec<ResolvedMapping> = record
        .mappings
        .iter()
        .map(|m| ResolvedMapping {
            record: 0,
            position: m.position,
            strand: m.strand,
            distance: m.distance,
        })
        .collect();
    write_resolved_record(
        out,
        &[reference_name],
        record.name,
        record.seq,
        &resolved,
        record.cigar,
    )
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
    out: W,
    names: &[&str],
    read_name: &str,
    seq: &DnaSeq,
    mappings: &[ResolvedMapping],
    cigar: Option<&Cigar>,
) -> Result<(), GenomeError> {
    write_lines(out, |record| names[record], read_name, seq, mappings, cigar)
}

/// The one SAM record writer: `name_of(i)` is the name of record `i`.
///
/// A line is byte slices written whole. What every line of the read
/// shares is rendered once: its text, forward and (when a mapping is on
/// the reverse strand) reverse-complemented, since SAM stores the
/// sequence on the reference's forward strand; the `<len>M` CIGAR of a
/// line without its own; the primary's CIGAR.
fn write_lines<'n, W: Write>(
    mut out: W,
    name_of: impl Fn(usize) -> &'n str,
    read_name: &str,
    seq: &DnaSeq,
    mappings: &[ResolvedMapping],
    cigar: Option<&Cigar>,
) -> Result<(), GenomeError> {
    let len = seq.len();
    let mut text = Vec::with_capacity(2 * len);
    seq.ascii_into(&mut text);
    if mappings.is_empty() {
        for piece in [
            read_name.as_bytes(),
            b"\t",
            Decimal::new(u64::from(FLAG_UNMAPPED)).as_bytes(),
            b"\t*\t0\t0\t*\t*\t0\t0\t",
            &text,
            b"\t*\n",
        ] {
            out.write_all(piece)?;
        }
        return Ok(());
    }
    let read_len = Decimal::new(len as u64);
    let primary_cigar = cigar.map(Cigar::to_string);
    for (i, m) in mappings.iter().enumerate() {
        let mut flag = 0u16;
        if m.strand == Strand::Reverse {
            flag |= FLAG_REVERSE;
        }
        if i > 0 {
            flag |= FLAG_SECONDARY;
        }
        let (cigar_text, cigar_op): (&[u8], &[u8]) = match (i, &primary_cigar) {
            (0, Some(c)) => (c.as_bytes(), b""),
            _ => (read_len.as_bytes(), b"M"),
        };
        if m.strand == Strand::Reverse && text.len() == len {
            for at in (0..len).rev() {
                text.push(complement(text[at]));
            }
        }
        let seq_text = match m.strand {
            Strand::Forward => &text[..len],
            Strand::Reverse => &text[len..],
        };
        for piece in [
            read_name.as_bytes(),
            b"\t",
            Decimal::new(u64::from(flag)).as_bytes(),
            b"\t",
            name_of(m.record).as_bytes(),
            b"\t",
            Decimal::new(u64::from(m.position) + 1).as_bytes(), // SAM is 1-based
            b"\t255\t",
            cigar_text,
            cigar_op,
            b"\t*\t0\t0\t",
            seq_text,
            b"\t*\tNM:i:",
            Decimal::new(u64::from(m.distance)).as_bytes(),
            b"\n",
        ] {
            out.write_all(piece)?;
        }
    }
    Ok(())
}

/// The letter of the complementary base.
fn complement(letter: u8) -> u8 {
    match letter {
        b'A' => b'T',
        b'C' => b'G',
        b'G' => b'C',
        _ => b'A',
    }
}

/// A SAM file over a [`ReferenceSet`], written into a sink: the header
/// of the set's records, then read after read — mappings on the
/// concatenated index resolved to the named records, then written. The
/// one path behind `repute map`'s output (streamed to a file or stdout
/// as it is produced) and the daemon's per-job SAM blocks (assembled in
/// a `Vec<u8>` that starts as the [`header_bytes`] the daemon built
/// once), which is why the two agree byte for byte.
#[derive(Debug)]
pub struct SamAssembly<'a, W: Write> {
    set: &'a ReferenceSet,
    /// The sink the SAM text goes to.
    pub out: W,
}

impl<'a, W: Write> SamAssembly<'a, W> {
    /// Starts the SAM in `out` with the header of `set`'s records.
    ///
    /// # Errors
    ///
    /// As [`write_header_multi`].
    pub fn with_sink(set: &'a ReferenceSet, mut out: W) -> Result<SamAssembly<'a, W>, GenomeError> {
        out.write_all(&header_bytes(set))?;
        Ok(SamAssembly::continuing(set, out))
    }

    /// Goes on with a SAM whose header (and perhaps some records) `out`
    /// already holds: a resumed run's, or a daemon job's.
    pub fn continuing(set: &'a ReferenceSet, out: W) -> SamAssembly<'a, W> {
        SamAssembly { set, out }
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
        let set = self.set;
        let resolved = set.resolve_mappings(seq.len(), raw);
        let name_of = |record: usize| set.records()[record].0.as_str();
        write_lines(&mut self.out, name_of, id, seq, &resolved, cigar)?;
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
