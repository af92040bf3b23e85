//! Read simulation with ground truth.
//!
//! Stand-in for the NCBI read sets used in the paper (`ERR012100_1`,
//! n=100 and `SRR826460_1`, n=150). Reads are sampled from both strands of
//! a reference, sequencing errors (substitutions and indels) are applied,
//! and the true origin is recorded — which gives the evaluation crate an
//! exact ground truth the paper could only approximate with a RazerS3 gold
//! standard.

use crate::rng::StdRng;

use crate::alphabet::{Base, Strand};
use crate::seq::DnaSeq;

/// Per-base sequencing error rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorProfile {
    /// Probability of a substitution at each base.
    pub substitution: f64,
    /// Probability of an inserted base before each position.
    pub insertion: f64,
    /// Probability of a deleted base at each position.
    pub deletion: f64,
}

impl ErrorProfile {
    /// An error-free profile.
    pub const fn perfect() -> ErrorProfile {
        ErrorProfile {
            substitution: 0.0,
            insertion: 0.0,
            deletion: 0.0,
        }
    }

    /// Illumina-like profile of the `ERR012100_1` set (n=100): ~1%
    /// substitutions, rare indels.
    pub const fn err012100() -> ErrorProfile {
        ErrorProfile {
            substitution: 0.010,
            insertion: 0.0005,
            deletion: 0.0005,
        }
    }

    /// Illumina-like profile of the `SRR826460_1` set (n=150): slightly
    /// higher error toward longer reads.
    pub const fn srr826460() -> ErrorProfile {
        ErrorProfile {
            substitution: 0.013,
            insertion: 0.0008,
            deletion: 0.0008,
        }
    }

    /// Expected number of errors for a read of length `n`.
    pub fn expected_errors(&self, n: usize) -> f64 {
        (self.substitution + self.insertion + self.deletion) * n as f64
    }

    fn validate(&self) {
        for (name, p) in [
            ("substitution", self.substitution),
            ("insertion", self.insertion),
            ("deletion", self.deletion),
        ] {
            assert!((0.0..=0.5).contains(&p), "{name} rate {p} out of [0, 0.5]");
        }
    }
}

/// Where a simulated read truly came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOrigin {
    /// 0-based position of the leftmost reference base the read covers.
    pub position: usize,
    /// Which strand the read was sampled from.
    pub strand: Strand,
    /// Number of sequencing errors injected (edit operations).
    pub edits: u32,
}

/// A simulated read: sequence plus optional ground truth.
///
/// Reads drawn as random noise (the unmappable fraction) carry no origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRead {
    /// Stable identifier, `0..count`.
    pub id: u32,
    /// The read sequence, oriented as the sequencer would report it.
    pub seq: DnaSeq,
    /// Ground truth, `None` for noise reads.
    pub origin: Option<ReadOrigin>,
}

/// Configuration for a simulated read set.
///
/// # Example
///
/// ```
/// use repute_genome::reads::{ReadSimulator, ErrorProfile};
/// use repute_genome::synth::ReferenceBuilder;
///
/// let reference = ReferenceBuilder::new(20_000).seed(1).build();
/// let reads = ReadSimulator::new(100, 50)
///     .profile(ErrorProfile::err012100())
///     .seed(7)
///     .simulate(&reference);
/// assert_eq!(reads.len(), 50);
/// assert!(reads.iter().all(|r| r.seq.len() == 100));
/// ```
#[derive(Debug, Clone)]
pub struct ReadSimulator {
    read_len: usize,
    count: usize,
    profile: ErrorProfile,
    unmappable_fraction: f64,
    seed: u64,
}

impl ReadSimulator {
    /// Creates a simulator for `count` reads of `read_len` bases with an
    /// error-free profile and no unmappable reads.
    ///
    /// # Panics
    ///
    /// Panics if `read_len == 0`.
    pub fn new(read_len: usize, count: usize) -> ReadSimulator {
        assert!(read_len > 0, "read length must be positive");
        ReadSimulator {
            read_len,
            count,
            profile: ErrorProfile::perfect(),
            unmappable_fraction: 0.0,
            seed: 0xEAD5,
        }
    }

    /// Sets the sequencing error profile.
    ///
    /// # Panics
    ///
    /// Panics if any rate in `profile` is outside `[0, 0.5]`.
    pub fn profile(mut self, profile: ErrorProfile) -> ReadSimulator {
        profile.validate();
        self.profile = profile;
        self
    }

    /// Sets the fraction of reads generated as uniform noise (contaminant /
    /// adapter-like reads that should map nowhere).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn unmappable_fraction(mut self, fraction: f64) -> ReadSimulator {
        assert!((0.0..=1.0).contains(&fraction), "fraction out of [0, 1]");
        self.unmappable_fraction = fraction;
        self
    }

    /// Sets the RNG seed; simulation is deterministic given a seed.
    pub fn seed(mut self, seed: u64) -> ReadSimulator {
        self.seed = seed;
        self
    }

    /// Samples the read set from `reference`.
    ///
    /// # Panics
    ///
    /// Panics if the reference is shorter than `2 × read_len` (too short to
    /// sample from with indel slack).
    pub fn simulate(&self, reference: &DnaSeq) -> Vec<SimRead> {
        assert!(
            reference.len() >= self.read_len * 2,
            "reference length {} too short for reads of length {}",
            reference.len(),
            self.read_len
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.count)
            .map(|id| {
                if rng.gen::<f64>() < self.unmappable_fraction {
                    self.noise_read(id as u32, &mut rng)
                } else {
                    self.genomic_read(id as u32, reference, &mut rng)
                }
            })
            .collect()
    }

    /// Samples the read set as FASTQ records with a positionally varying
    /// quality profile: substitution probability rises toward the 3' end
    /// (the classic Illumina degradation), and each base's Phred score
    /// reports exactly the substitution rate used at its position.
    ///
    /// Returns the records zipped with their ground truth.
    ///
    /// # Panics
    ///
    /// Panics under the conditions of [`ReadSimulator::simulate`].
    pub fn simulate_fastq(
        &self,
        reference: &DnaSeq,
    ) -> Vec<(crate::fastq::FastqRecord, Option<ReadOrigin>)> {
        // Per-position substitution multiplier: 0.5× at the 5' end
        // rising to 2.5× at the 3' end (mean ≈ 1.0 over the read, so the
        // configured profile keeps its expected error count).
        let ramp = |i: usize| 0.5 + 2.0 * (i as f64 / self.read_len.max(1) as f64);
        let phred = |p: f64| -> u8 {
            let q = -10.0 * p.max(1e-9).log10();
            (q.round() as u8).min(60)
        };
        let base = self.profile;
        self.simulate(reference)
            .into_iter()
            .enumerate()
            .map(|(k, read)| {
                // A per-read positional profile, deterministic in the
                // read index so the set stays reproducible.
                let mut rng = StdRng::seed_from_u64(self.seed ^ (k as u64).wrapping_mul(0x9E37));
                let quality: Vec<u8> = (0..read.seq.len())
                    .map(|i| {
                        let p = (base.substitution * ramp(i)).min(0.5);
                        let jitter = rng.gen_range(-2i16..=2);
                        let q = i32::from(phred(p)) + i32::from(jitter);
                        crate::fastq::QUALITY_MIN + q.clamp(2, 60) as u8
                    })
                    .collect();
                let record = crate::fastq::FastqRecord {
                    id: format!("sim{}", read.id),
                    seq: read.seq,
                    quality,
                };
                (record, read.origin)
            })
            .collect()
    }

    fn noise_read(&self, id: u32, rng: &mut StdRng) -> SimRead {
        let seq: DnaSeq = (0..self.read_len)
            .map(|_| Base::from_code(rng.gen_range(0..4)))
            .collect();
        SimRead {
            id,
            seq,
            origin: None,
        }
    }

    fn genomic_read(&self, id: u32, reference: &DnaSeq, rng: &mut StdRng) -> SimRead {
        // Sample with slack so deletions never run off the end.
        let slack = self.read_len / 4 + 4;
        let max_start = reference.len() - self.read_len - slack;
        let position = rng.gen_range(0..=max_start);
        let strand = if rng.gen::<bool>() {
            Strand::Forward
        } else {
            Strand::Reverse
        };

        // The error-free template read off the chosen strand.
        let window = reference.subseq(position..position + self.read_len + slack);
        let template = match strand {
            Strand::Forward => window,
            Strand::Reverse => window.reverse_complement(),
        };

        let mut seq = DnaSeq::with_capacity(self.read_len);
        let mut edits = 0u32;
        let mut t = 0usize; // cursor in template
        while seq.len() < self.read_len && t < template.len() {
            let roll = rng.gen::<f64>();
            if roll < self.profile.insertion {
                seq.push(Base::from_code(rng.gen_range(0..4)));
                edits += 1;
            } else if roll < self.profile.insertion + self.profile.deletion {
                t += 1; // skip a template base
                edits += 1;
            } else if roll
                < self.profile.insertion + self.profile.deletion + self.profile.substitution
            {
                let original = template.base(t);
                let substitute = loop {
                    let b = Base::from_code(rng.gen_range(0..4));
                    if b != original {
                        break b;
                    }
                };
                seq.push(substitute);
                edits += 1;
                t += 1;
            } else {
                seq.push(template.base(t));
                t += 1;
            }
        }
        // Pad in the (vanishingly rare) case the template ran dry.
        while seq.len() < self.read_len {
            seq.push(Base::from_code(rng.gen_range(0..4)));
            edits += 1;
        }

        // For a reverse-strand read the reported position is still the
        // leftmost reference base covered; the template started at the
        // *right* end of the window, so recompute from consumed bases.
        let consumed = t;
        let position = match strand {
            Strand::Forward => position,
            Strand::Reverse => position + (template.len() - consumed),
        };

        SimRead {
            id,
            seq,
            origin: Some(ReadOrigin {
                position,
                strand,
                edits,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::ReferenceBuilder;

    fn reference() -> DnaSeq {
        ReferenceBuilder::new(30_000).seed(2).build()
    }

    #[test]
    fn deterministic_given_seed() {
        let r = reference();
        let a = ReadSimulator::new(100, 20).seed(3).simulate(&r);
        let b = ReadSimulator::new(100, 20).seed(3).simulate(&r);
        assert_eq!(a, b);
    }

    #[test]
    fn perfect_forward_reads_match_reference_exactly() {
        let r = reference();
        let reads = ReadSimulator::new(80, 50).seed(4).simulate(&r);
        for read in &reads {
            let origin = read.origin.expect("genomic read");
            assert_eq!(origin.edits, 0);
            let window = r.subseq(origin.position..origin.position + 80);
            let expected = match origin.strand {
                Strand::Forward => window,
                Strand::Reverse => window.reverse_complement(),
            };
            assert_eq!(read.seq, expected, "read {} mismatch", read.id);
        }
    }

    #[test]
    fn both_strands_are_sampled() {
        let r = reference();
        let reads = ReadSimulator::new(60, 200).seed(5).simulate(&r);
        let forward = reads
            .iter()
            .filter(|r| r.origin.map(|o| o.strand) == Some(Strand::Forward))
            .count();
        assert!(
            forward > 50 && forward < 150,
            "strand balance off: {forward}/200"
        );
    }

    #[test]
    fn error_rates_materialize() {
        let r = reference();
        let reads = ReadSimulator::new(100, 300)
            .profile(ErrorProfile::err012100())
            .seed(6)
            .simulate(&r);
        let total_edits: u32 = reads.iter().filter_map(|r| r.origin.map(|o| o.edits)).sum();
        let expected = ErrorProfile::err012100().expected_errors(100) * 300.0;
        let got = f64::from(total_edits);
        assert!(
            got > expected * 0.5 && got < expected * 2.0,
            "edit volume {got} far from expectation {expected}"
        );
    }

    #[test]
    fn unmappable_reads_have_no_origin() {
        let r = reference();
        let reads = ReadSimulator::new(100, 200)
            .unmappable_fraction(0.25)
            .seed(7)
            .simulate(&r);
        let noise = reads.iter().filter(|r| r.origin.is_none()).count();
        assert!(noise > 20 && noise < 90, "noise fraction off: {noise}/200");
    }

    #[test]
    fn read_lengths_are_exact() {
        let r = reference();
        for len in [36, 100, 150] {
            let reads = ReadSimulator::new(len, 30)
                .profile(ErrorProfile::srr826460())
                .seed(8)
                .simulate(&r);
            assert!(reads.iter().all(|rd| rd.seq.len() == len));
        }
    }

    #[test]
    fn fastq_simulation_matches_sequences_and_ramps_quality() {
        let r = reference();
        let sim = ReadSimulator::new(100, 25)
            .profile(ErrorProfile::err012100())
            .seed(9);
        let plain = sim.simulate(&r);
        let fastq = sim.simulate_fastq(&r);
        assert_eq!(fastq.len(), plain.len());
        for ((record, origin), read) in fastq.iter().zip(&plain) {
            assert_eq!(record.seq, read.seq, "sequences must match simulate()");
            assert_eq!(*origin, read.origin);
            assert_eq!(record.quality.len(), 100);
            assert!(record.quality.iter().all(|&q| (crate::fastq::QUALITY_MIN
                ..=crate::fastq::QUALITY_MIN + 60)
                .contains(&q)));
        }
        // Qualities degrade toward the 3' end on average.
        let mean_at = |range: std::ops::Range<usize>| -> f64 {
            let mut sum = 0u64;
            let mut n = 0u64;
            for (record, _) in &fastq {
                for i in range.clone() {
                    sum += u64::from(record.quality[i] - crate::fastq::QUALITY_MIN);
                    n += 1;
                }
            }
            sum as f64 / n as f64
        };
        assert!(
            mean_at(0..10) > mean_at(90..100) + 3.0,
            "5' {} vs 3' {}",
            mean_at(0..10),
            mean_at(90..100)
        );
        // Deterministic.
        let again = sim.simulate_fastq(&r);
        assert_eq!(again[0].0.quality, fastq[0].0.quality);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn reference_too_short_rejected() {
        let tiny: DnaSeq = "ACGTACGT".parse().unwrap();
        let _ = ReadSimulator::new(100, 1).simulate(&tiny);
    }

    #[test]
    #[should_panic(expected = "out of [0, 0.5]")]
    fn bad_profile_rejected() {
        let _ = ReadSimulator::new(10, 1).profile(ErrorProfile {
            substitution: 0.9,
            insertion: 0.0,
            deletion: 0.0,
        });
    }
}
