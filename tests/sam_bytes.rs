//! The byte-level text path against the `fmt` formatting it replaced.
//!
//! `write_resolved_record`, `write_record`, `SamAssembly` and
//! `DnaSeq`'s `Display` / `FromStr` write and read text a word at a
//! time and with byte slices. The oracles below are the `writeln!` and
//! base-by-base code they replaced, kept here verbatim in behaviour:
//! every record and every sequence must come out byte for byte the same,
//! and every parse error must name the same character.

use repute_align::{Cigar, CigarOp};
use repute_eval::sam::{self, SamAssembly, SamRecord};
use repute_genome::{Base, DnaSeq, GenomeError, Strand};
use repute_mappers::multiref::{ReferenceSet, ResolvedMapping};
use repute_mappers::Mapping;
use std::fmt::Write as _;
use std::io::Write;

/// The read lengths every check runs over: 1–300, so each phase of the
/// 32-base word and of the 8-base step is crossed.
const LENGTHS: std::ops::RangeInclusive<usize> = 1..=300;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn seq(&mut self, len: usize) -> DnaSeq {
        (0..len)
            .map(|_| Base::from_code((self.next() >> 11) as u8 & 3))
            .collect()
    }
}

/// `DnaSeq`'s `Display` before the byte path: one `write!` a base.
fn display_oracle(seq: &DnaSeq) -> String {
    let mut text = String::new();
    for b in seq.iter() {
        write!(text, "{b}").unwrap();
    }
    text
}

/// `DnaSeq`'s `FromStr` before the byte path: one `push` a character.
fn parse_oracle(s: &str) -> Result<DnaSeq, GenomeError> {
    let mut seq = DnaSeq::with_capacity(s.len());
    for c in s.chars() {
        seq.push(Base::from_char(c)?);
    }
    Ok(seq)
}

/// `write_resolved_record` before the byte path.
fn record_oracle(
    out: &mut Vec<u8>,
    names: &[&str],
    read_name: &str,
    seq: &DnaSeq,
    mappings: &[ResolvedMapping],
    cigar: Option<&Cigar>,
) {
    if mappings.is_empty() {
        writeln!(
            out,
            "{read_name}\t4\t*\t0\t0\t*\t*\t0\t0\t{}\t*",
            display_oracle(seq)
        )
        .unwrap();
        return;
    }
    for (i, m) in mappings.iter().enumerate() {
        let mut flag = 0u16;
        if m.strand == Strand::Reverse {
            flag |= 0x10;
        }
        if i > 0 {
            flag |= 0x100;
        }
        let cigar_text = match (i, cigar) {
            (0, Some(c)) => c.to_string(),
            _ => format!("{}M", seq.len()),
        };
        let seq_text = match m.strand {
            Strand::Forward => display_oracle(seq),
            Strand::Reverse => display_oracle(&seq.reverse_complement()),
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
        )
        .unwrap();
    }
}

/// The SAM header before the byte path.
fn header_oracle(references: &[(&str, usize)]) -> Vec<u8> {
    let mut out = Vec::new();
    writeln!(out, "@HD\tVN:1.6\tSO:unknown").unwrap();
    for (name, len) in references {
        writeln!(out, "@SQ\tSN:{name}\tLN:{len}").unwrap();
    }
    writeln!(out, "@PG\tID:repute\tPN:repute\tVN:0.1.0").unwrap();
    out
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("SAM is UTF-8")
}

/// One read's mapping lists: none (unmapped), one on each strand,
/// several mixing strands and records, and the position extremes.
fn mapping_sets(rng: &mut XorShift, records: usize) -> Vec<Vec<ResolvedMapping>> {
    let at = |record, position, strand, distance| ResolvedMapping {
        record,
        position,
        strand,
        distance,
    };
    let mut sets = vec![
        Vec::new(),
        vec![at(0, 0, Strand::Forward, 0)],
        vec![at(records - 1, 0, Strand::Reverse, 3)],
        vec![at(0, u32::MAX - 1, Strand::Forward, 7)],
        vec![
            at(records - 1, u32::MAX - 1, Strand::Reverse, 1),
            at(0, 0, Strand::Reverse, 2),
        ],
    ];
    let mixed = (0..6)
        .map(|_| {
            let strand = if rng.next() & 1 == 0 {
                Strand::Forward
            } else {
                Strand::Reverse
            };
            let record = rng.next() as usize % records;
            at(record, rng.next() as u32, strand, rng.next() as u32 % 12)
        })
        .collect();
    sets.push(mixed);
    sets
}

#[test]
fn resolved_records_equal_the_writeln_oracle() {
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let names = ["chr1", "chrUn_KI270302v1", "x"];
    for len in LENGTHS {
        let seq = rng.seq(len);
        let cigar = Cigar::from_ops(
            (0..len).map(|i| [CigarOp::Match, CigarOp::Mismatch, CigarOp::Match][i % 3]),
        );
        for mappings in mapping_sets(&mut rng, names.len()) {
            for cigar in [None, Some(&cigar)] {
                let (mut got, mut want) = (Vec::new(), Vec::new());
                sam::write_resolved_record(&mut got, &names, "read/1", &seq, &mappings, cigar)
                    .unwrap();
                record_oracle(&mut want, &names, "read/1", &seq, &mappings, cigar);
                assert_eq!(
                    text(&got),
                    text(&want),
                    "len {len}, {} mappings, cigar {}",
                    mappings.len(),
                    cigar.is_some()
                );
            }
        }
    }
}

#[test]
fn single_reference_records_equal_the_writeln_oracle() {
    let mut rng = XorShift(0x2545_f491_4f6c_dd1d);
    for len in LENGTHS.step_by(7) {
        let seq = rng.seq(len);
        let cigar = Cigar::from_ops(std::iter::repeat_n(CigarOp::Match, len));
        for resolved in mapping_sets(&mut rng, 1) {
            let mappings: Vec<Mapping> = resolved
                .iter()
                .map(|m| Mapping {
                    position: m.position,
                    strand: m.strand,
                    distance: m.distance,
                })
                .collect();
            for cigar in [None, Some(&cigar)] {
                let record = SamRecord {
                    name: "r",
                    seq: &seq,
                    mappings: &mappings,
                    cigar,
                };
                let (mut got, mut want) = (Vec::new(), Vec::new());
                sam::write_record(&mut got, "chr21sim", &record).unwrap();
                record_oracle(&mut want, &["chr21sim"], "r", &seq, &resolved, cigar);
                assert_eq!(text(&got), text(&want), "len {len}");
            }
        }
    }
}

#[test]
fn assembly_over_a_two_record_set_equals_the_oracle() {
    let mut rng = XorShift(0x51_7cc1_b727_220a);
    let records = vec![
        ("chrA".to_string(), rng.seq(700)),
        ("chrB second".to_string(), rng.seq(500)),
    ];
    let set = ReferenceSet::build(records.clone());
    let lengths: Vec<(&str, usize)> = records.iter().map(|(n, s)| (n.as_str(), s.len())).collect();
    let names: Vec<&str> = lengths.iter().map(|(n, _)| *n).collect();

    let mut assembly = SamAssembly::with_sink(&set, Vec::new()).unwrap();
    let mut want = header_oracle(&lengths);
    assert_eq!(sam::header_bytes(&set), want);
    for (i, len) in [1usize, 31, 32, 33, 100, 150, 300].into_iter().enumerate() {
        let seq = rng.seq(len);
        // Positions on the concatenation: in the first record, in the
        // second, and one that crosses the edge between them.
        let raw: Vec<Mapping> = [0u32, 650, 705, 1199 - len as u32]
            .into_iter()
            .enumerate()
            .map(|(k, position)| Mapping {
                position,
                strand: if (i + k) % 2 == 0 {
                    Strand::Forward
                } else {
                    Strand::Reverse
                },
                distance: k as u32,
            })
            .collect();
        let id = format!("q{i}");
        let resolved = assembly.push(&id, &seq, &raw, None).unwrap();
        assert!(resolved.iter().any(|m| m.record == 1), "len {len}");
        record_oracle(&mut want, &names, &id, &seq, &resolved, None);
    }
    assert_eq!(text(&assembly.out), text(&want));
}

#[test]
fn display_and_from_str_round_trip_at_every_length() {
    let mut rng = XorShift(0x0123_4567_89ab_cdef);
    for len in (0..=300).chain([1_000, 4_096, 10_001]) {
        let seq = rng.seq(len);
        let shown = seq.to_string();
        assert_eq!(shown, display_oracle(&seq), "len {len}");
        let mut bytes = Vec::new();
        seq.ascii_into(&mut bytes);
        assert_eq!(bytes, shown.as_bytes(), "len {len}");
        let parsed: DnaSeq = shown.parse().unwrap();
        assert_eq!(parsed, seq, "len {len}");
        let lower: DnaSeq = shown.to_ascii_lowercase().parse().unwrap();
        assert_eq!(lower, seq, "len {len}");
    }
}

#[test]
fn from_str_names_the_first_invalid_character_at_every_position() {
    let mut rng = XorShift(0xfeed_f00d_dead_beef);
    let invalid = ['N', 'n', 'U', '-', ' ', '\0', '\u{7f}', 'é', '∆', '🧬'];
    for len in [1usize, 2, 7, 8, 9, 31, 32, 33, 63, 64, 65, 100, 150, 300] {
        let text: Vec<char> = rng.seq(len).to_string().chars().collect();
        for at in 0..len {
            for &bad in &invalid {
                let mut chars = text.clone();
                chars[at] = bad;
                // A second invalid character later on must not win.
                if at + 1 < len {
                    chars[len - 1] = 'X';
                }
                let s: String = chars.into_iter().collect();
                let got = s.parse::<DnaSeq>().map(|q| q.to_string());
                let want = parse_oracle(&s).map(|q| q.to_string());
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "len {len}, {bad:?} at {at}"
                );
                assert!(got.is_err());
            }
        }
    }
    assert_eq!(
        "".parse::<DnaSeq>().unwrap(),
        parse_oracle("").unwrap(),
        "the empty sequence"
    );
}
