//! Output checks: SAM parsing and recovery of the simulated origins.

use repute_genome::fastq::FastqRecord;
use repute_genome::reads::ReadOrigin;
use repute_genome::Strand;

use crate::spec::MAX_LOCATIONS;

/// One read's block of a SAM file (its lines are consecutive).
pub struct SamRead<'a> {
    pub name: &'a str,
    /// The read's lines, newline-terminated, as they stand in the file.
    pub text: &'a str,
    /// `(0-based position, reverse strand)` of every reported location.
    pub locations: Vec<(u32, bool)>,
}

/// Splits SAM text into its header and per-read blocks.
pub fn parse_sam(text: &str) -> Result<(&str, Vec<SamRead<'_>>), String> {
    let header_len: usize = text
        .split_inclusive('\n')
        .take_while(|l| l.starts_with('@'))
        .map(str::len)
        .sum();
    let (header, body) = text.split_at(header_len);
    let mut reads: Vec<SamRead<'_>> = Vec::new();
    let (mut block_start, mut line_start) = (0, 0);
    for line in body.split_inclusive('\n') {
        let line_end = line_start + line.len();
        let mut fields = line.split('\t');
        let mut next = || {
            fields
                .next()
                .ok_or_else(|| format!("short SAM line {line:?}"))
        };
        let name = next()?;
        let flag: u16 = next()?
            .parse()
            .map_err(|_| format!("bad FLAG in {line:?}"))?;
        let _rname = next()?;
        let pos: u32 = next()?
            .parse()
            .map_err(|_| format!("bad POS in {line:?}"))?;
        if reads.last().map(|r| r.name) != Some(name) {
            block_start = line_start;
            reads.push(SamRead {
                name,
                text: "",
                locations: Vec::new(),
            });
        }
        let read = reads.last_mut().expect("pushed above");
        read.text = &body[block_start..line_end];
        if flag & 0x4 == 0 {
            read.locations
                .push((pos.saturating_sub(1), flag & 0x10 != 0));
        }
        line_start = line_end;
    }
    Ok((header, reads))
}

/// How many simulated origins the output recovered.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Recall {
    /// In-budget reads (`origin.edits ≤ δ`) whose output is not cut off
    /// by the first-n cap.
    pub attempted: u64,
    /// Of those, reads whose origin (same strand, ±2δ) is not among the
    /// reported locations.
    pub failed: u64,
    /// In-budget reads left out because they filled all first-n output
    /// slots — the origin of such a read may lie beyond the cap.
    pub capped: u64,
}

/// Checks the SAM blocks against the reads' ground truth.
pub fn recall(
    reads: &[FastqRecord],
    origins: &[Option<ReadOrigin>],
    sam: &[SamRead<'_>],
    delta: u32,
) -> Result<Recall, String> {
    if reads.len() != sam.len() {
        return Err(format!(
            "SAM covers {} reads, the input has {}",
            sam.len(),
            reads.len()
        ));
    }
    let mut out = Recall::default();
    for ((record, origin), block) in reads.iter().zip(origins).zip(sam) {
        if record.id != block.name {
            return Err(format!(
                "SAM read {:?} where {:?} was expected",
                block.name, record.id
            ));
        }
        let Some(origin) = origin.filter(|o| o.edits <= delta) else {
            continue;
        };
        if block.locations.len() >= MAX_LOCATIONS {
            out.capped += 1;
            continue;
        }
        out.attempted += 1;
        let reverse = origin.strand == Strand::Reverse;
        let found = block.locations.iter().any(|&(pos, rev)| {
            rev == reverse && (pos as usize).abs_diff(origin.position) <= 2 * delta as usize
        });
        if !found {
            out.failed += 1;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_blocks_and_locations() {
        let text = "@HD\tVN:1.6\n@SQ\tSN:c\tLN:9\n\
                    a\t0\tc\t5\t255\t4M\t*\t0\t0\tACGT\t*\tNM:i:0\n\
                    a\t272\tc\t9\t255\t4M\t*\t0\t0\tACGT\t*\tNM:i:1\n\
                    b\t4\t*\t0\t0\t*\t*\t0\t0\tACGT\t*\n";
        let (header, reads) = parse_sam(text).unwrap();
        assert_eq!(header.lines().count(), 2);
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0].locations, vec![(4, false), (8, true)]);
        assert_eq!(reads[0].text.lines().count(), 2);
        assert!(reads[1].locations.is_empty());
        assert!(reads[1].text.starts_with("b\t4"));
        assert_eq!(
            header.len() + reads[0].text.len() + reads[1].text.len(),
            text.len()
        );
    }
}
