//! The mapper interface shared by every baseline and by REPUTE itself.

use std::sync::OnceLock;

use repute_genome::wire::{read_run, Reader, WireError};
use repute_genome::{DnaSeq, Strand};

use crate::engine::VerifyEngine;

/// One reported mapping location.
///
/// REPUTE "gives the mapping positions, edit distance and strand for each
/// \[read\]" (§IV) — this struct is exactly that triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mapping {
    /// Leftmost reference base of the mapped region (0-based). Mappers
    /// report the candidate diagonal, so positions are exact up to the
    /// indel slack of the alignment (≤ δ); the evaluation crate matches
    /// with that tolerance.
    pub position: u32,
    /// Strand the read maps to.
    pub strand: Strand,
    /// Edit distance of the accepted alignment.
    pub distance: u32,
}

/// Everything one `map_read` call produced.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MapOutput {
    /// Accepted mapping locations, at most the mapper's location limit.
    pub mappings: Vec<Mapping>,
    /// Substrate work units consumed (FM extensions, DP cells, bit-vector
    /// word updates, locate steps) — the currency of the platform
    /// simulator's time model.
    pub work: u64,
    /// Candidate locations that were verified (before acceptance).
    pub candidates: u64,
}

/// The preprocessing stage's output: a reference together with the index
/// structures every mapper draws on (§II-A of the paper).
///
/// Build it once and share it (e.g. via [`std::sync::Arc`]) across all the
/// mappers in a comparison — index construction dominates setup time.
///
/// The FM-Index is built (or loaded) here, and the reference is held
/// once, packed at 2 bits a base: verification unpacks each window as it
/// reaches it. The q-gram hash index, the prefilter's q-gram bins and
/// the flat one-byte-a-base codes each have few readers — Hobbes3;
/// REPUTE under `--prefilter qgram|both`; the brute-force oracle and
/// tests — so each is built on its first use, one linear pass, by the
/// code that reads it; a run that reads none pays for none.
#[derive(Debug, Clone)]
pub struct IndexedReference {
    seq: DnaSeq,
    codes: OnceLock<Vec<u8>>,
    fm: repute_index::FmIndex,
    q: usize,
    qgram: OnceLock<repute_index::QGramIndex>,
    prefilter_bins: OnceLock<repute_prefilter::QgramBins>,
    scalar_verify: bool,
}

impl IndexedReference {
    /// Default q-gram length for the hash index (RazerS3/Hobbes3 family).
    pub const DEFAULT_Q: usize = 10;

    /// Indexes `seq` with the default q-gram length.
    pub fn build(seq: DnaSeq) -> IndexedReference {
        IndexedReference::build_with_q(seq, Self::DEFAULT_Q)
    }

    /// Indexes `seq` with an explicit q-gram length.
    ///
    /// # Panics
    ///
    /// Panics if `q` is 0 or exceeds [`repute_index::QGramIndex::MAX_Q`]
    /// — here, not when the q-gram index is first asked for.
    pub fn build_with_q(seq: DnaSeq, q: usize) -> IndexedReference {
        let max_q = repute_index::QGramIndex::MAX_Q;
        assert!(q > 0 && q <= max_q, "q {q} out of 1..={max_q}");
        // Denser SA sampling than the library default: mapping locates
        // millions of candidate positions, so the memory/locate-speed
        // trade leans toward speed here (the ablation bench sweeps it).
        let fm = repute_index::FmIndex::builder().sa_sample(8).build(&seq);
        IndexedReference::from_parts(seq, fm, q)
    }

    fn from_parts(seq: DnaSeq, fm: repute_index::FmIndex, q: usize) -> IndexedReference {
        IndexedReference {
            codes: OnceLock::new(),
            seq,
            fm,
            q,
            qgram: OnceLock::new(),
            prefilter_bins: OnceLock::new(),
            scalar_verify: false,
        }
    }

    /// The verification engine of every mapper over this reference:
    /// error budget δ, no pre-alignment filter, the batch SWAR kernels,
    /// windows unpacked from the packed sequence.
    pub fn verify_engine(&self, delta: u32) -> VerifyEngine<'_> {
        let engine = VerifyEngine::packed(&self.seq, delta);
        if self.scalar_verify {
            engine.with_scalar_path()
        } else {
            engine
        }
    }

    /// Makes [`IndexedReference::verify_engine`] hand out the scalar
    /// per-candidate oracle path instead of the batch kernels, so a
    /// whole mapper grid can be run against the oracle in process
    /// (`verify_kernel`, the engine differential test). Never set by
    /// the `repute` binary and not serialised.
    pub fn with_scalar_verify(mut self) -> IndexedReference {
        self.scalar_verify = true;
        self
    }

    /// The reference sequence.
    pub fn seq(&self) -> &DnaSeq {
        &self.seq
    }

    /// The reference as flat 2-bit codes, one byte a base, unpacked on
    /// the first call and kept: four times the packed sequence, for the
    /// callers that want one flat slice (the brute-force oracle, the
    /// benchmark's verify-only replay, tests). No mapper path calls it.
    pub fn codes(&self) -> &[u8] {
        self.codes.get_or_init(|| self.seq.to_codes())
    }

    /// The FM-Index over the reference.
    pub fn fm(&self) -> &repute_index::FmIndex {
        &self.fm
    }

    /// The q-gram hash index over the reference, built on the first
    /// call.
    pub fn qgram(&self) -> &repute_index::QGramIndex {
        self.qgram
            .get_or_init(|| repute_index::QGramIndex::build(&self.seq, self.q))
    }

    /// The pre-alignment q-gram existence bins (GRIM-style) with the
    /// prefilter crate's defaults (q 5, width 512 — the only bins any
    /// mapper uses), built on the first call in one pass over the packed
    /// sequence. `repute_core::ReputeMapper` asks for them at
    /// construction under `--prefilter qgram|both`, so the pass is set-up
    /// time; [`Self::codes`] is not involved.
    pub fn prefilter_bins(&self) -> &repute_prefilter::QgramBins {
        self.prefilter_bins
            .get_or_init(|| repute_prefilter::QgramBins::build_default(self.seq.codes()))
    }

    /// Reference length in bases.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// Returns `true` for an empty reference (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Serialises the index to a binary stream: the packed sequence, the
    /// FM-Index (BWT + SA samples), and the q-gram length. The q-gram
    /// index itself is rebuilt after a load by whoever first asks for it
    /// (one linear pass — far cheaper than the suffix-array construction
    /// the FM payload avoids).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out` (a `&mut` writer is accepted).
    pub fn write_to<W: std::io::Write>(&self, mut out: W) -> std::io::Result<()> {
        out.write_all(b"RPIX")?;
        out.write_all(&1u16.to_le_bytes())?;
        out.write_all(&(self.q as u32).to_le_bytes())?;
        self.seq.write_packed(&mut out)?;
        self.fm.write_to(&mut out)
    }

    /// Deserialises an index written by [`IndexedReference::write_to`].
    ///
    /// # Errors
    ///
    /// Returns [`std::io::ErrorKind::InvalidData`] on a bad magic,
    /// version, or payload mismatch, and propagates I/O errors from
    /// `input` (a `&mut` reader is accepted).
    pub fn read_from<R: std::io::Read>(mut input: R) -> std::io::Result<IndexedReference> {
        let head = read_run(&mut input, 10)?;
        let mut r = Reader::new(&head);
        if r.bytes(4)? != b"RPIX" {
            return Err(WireError::Invalid("not a repute index stream (bad magic)").into());
        }
        if r.u16()? != 1 {
            return Err(WireError::Invalid("unsupported index format version").into());
        }
        let q = r.u32()? as usize;
        if !(1..=repute_index::QGramIndex::MAX_Q).contains(&q) {
            return Err(WireError::Invalid("q-gram length out of range").into());
        }
        let seq = DnaSeq::read_packed(&mut input)?;
        let fm = repute_index::FmIndex::read_for_text(&mut input, seq.len())?;
        Ok(IndexedReference::from_parts(seq, fm, q))
    }
}

/// A read mapper: reference-preprocessed, ready to map reads.
///
/// Implementations must be `Sync`: the executor maps reads from several
/// host threads.
pub trait Mapper: Sync {
    /// Short display name, e.g. `"RazerS3"`.
    fn name(&self) -> &str;

    /// Maps one read against both strands of the reference, adding what
    /// each stage did to `metrics` — the one mapping method a mapper
    /// writes, so its telemetry is the work it performed.
    fn map_read_metered(&self, read: &DnaSeq, metrics: &mut repute_obs::MapMetrics) -> MapOutput;

    /// [`Mapper::map_read_metered`] into a scratch record.
    fn map_read(&self, read: &DnaSeq) -> MapOutput {
        self.map_read_metered(read, &mut repute_obs::MapMetrics::new())
    }

    /// The output-slot limit per read (the *first-n* restriction of §III).
    fn max_locations(&self) -> usize;

    /// Estimated private-memory bytes one work-item (read) of this
    /// mapper's kernel occupies on a device, for the occupancy model of
    /// `repute-hetsim`. Zero (the default) means occupancy-insensitive;
    /// REPUTE overrides this with its DP-table footprint — the
    /// hardware/software co-design knob of the paper's §II-B.
    fn kernel_private_bytes(&self, read_len: usize) -> usize {
        let _ = read_len;
        0
    }
}

impl<M: Mapper + ?Sized> Mapper for &M {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn map_read_metered(&self, read: &DnaSeq, metrics: &mut repute_obs::MapMetrics) -> MapOutput {
        (**self).map_read_metered(read, metrics)
    }

    fn max_locations(&self) -> usize {
        (**self).max_locations()
    }

    fn kernel_private_bytes(&self, read_len: usize) -> usize {
        (**self).kernel_private_bytes(read_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_output_default_is_empty() {
        let out = MapOutput::default();
        assert!(out.mappings.is_empty());
        assert_eq!(out.work, 0);
    }

    #[test]
    fn mapping_is_comparable() {
        let a = Mapping {
            position: 5,
            strand: Strand::Forward,
            distance: 1,
        };
        assert_eq!(a, a);
        let b = Mapping {
            strand: Strand::Reverse,
            ..a
        };
        assert_ne!(a, b);
    }
}
