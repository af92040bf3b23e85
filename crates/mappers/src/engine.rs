//! The per-read pipeline and its candidate-verification machinery.
//!
//! Every pigeonhole mapper runs the same stages on a read: for each
//! strand, choose seeds, locate them onto read-start diagonals, merge
//! nearby candidates, cut a reference window around each, run the Myers
//! verifier, and report the first n mappings or the best stratum.
//! [`map_read_with`] is those stages — and their work accounting —
//! written once, so the mappers differ only in *how they choose seeds*,
//! which is exactly the axis the paper compares.

use std::ops::Range;

use repute_align::{
    verify_metered, verify_with, BatchVerifier, CandidateBatch, ReadMasks, VerifyScratch, LANES,
};
use repute_filter::SeedSelector;
use repute_genome::{DnaSeq, Strand};
use repute_index::{FmIndex, Interval};
use repute_obs::MapMetrics;
use repute_prefilter::{Candidate, PreFilter, Verdict};

use crate::common::{MapOutput, Mapping};

/// Work units charged per FM-Index left-extension: two rank queries, each
/// a checkpoint load plus a BWT scan — cache-missing, memory-bound work,
/// far heavier than one register-resident bit-vector update. A lookup in
/// the index's k-mer interval table is counted as one extension too: one
/// dependent memory access for two, so the charge errs against the table.
pub const EXTEND_COST: u64 = 24;

/// Work units charged per DP cell of a filtration dynamic program (one
/// table read, one add, one compare).
pub const DP_CELL_COST: u64 = 2;

/// Work units charged per located suffix-array position: with the
/// [`IndexedReference`](crate::IndexedReference) SA sampling of 8 the LF
/// walk averages 4 steps, each an FM extension.
pub const LOCATE_COST: u64 = 4 * EXTEND_COST;

/// A deduplicating collection of candidate diagonals for one read/strand.
#[derive(Debug, Clone, Default)]
pub struct CandidateSet {
    diagonals: Vec<u32>,
}

impl CandidateSet {
    /// Creates an empty set.
    pub fn new() -> CandidateSet {
        CandidateSet::default()
    }

    /// Adds a candidate: a seed hit at reference position `ref_pos` whose
    /// seed started `read_offset` bases into the read. The implied read
    /// start (diagonal) is clamped at zero.
    pub fn add(&mut self, ref_pos: u32, read_offset: usize) {
        self.diagonals
            .push(ref_pos.saturating_sub(read_offset as u32));
    }

    /// Number of raw candidates added so far.
    pub fn len(&self) -> usize {
        self.diagonals.len()
    }

    /// Returns `true` when no candidate was added.
    pub fn is_empty(&self) -> bool {
        self.diagonals.is_empty()
    }

    /// The canonical candidate merge gap for error budget δ.
    ///
    /// Two seed hits belong to the *same* alignment exactly when their
    /// implied read-start diagonals differ by no more than the indel
    /// slack, which is bounded by δ — so merging with gap δ dedupes
    /// same-alignment jitter without ever collapsing two genuinely
    /// distinct alignment sites (whose windows each still get
    /// verified). Every mapper routes its merge distance through this
    /// policy; do not confuse it with output *hit clustering* (e.g.
    /// the brute-force oracle groups qualifying alignment end columns
    /// with a wider `2δ+2` gap, which operates on reported positions,
    /// not candidate diagonals).
    pub fn merge_gap(delta: u32) -> u32 {
        delta
    }

    /// Sorts and merges candidates closer than `merge_distance` —
    /// normally [`CandidateSet::merge_gap`] of the mapper's δ —
    /// returning the surviving diagonals (the first diagonal of each
    /// cluster represents it, and its verification window's ±δ slack
    /// covers the jitter the merge absorbed).
    pub fn into_merged(mut self, merge_distance: u32) -> Vec<u32> {
        self.diagonals.sort_unstable();
        let mut out: Vec<u32> = Vec::with_capacity(self.diagonals.len());
        for d in self.diagonals {
            match out.last() {
                Some(&last) if d - last <= merge_distance => {}
                _ => out.push(d),
            }
        }
        out
    }
}

/// Where a [`VerifyEngine`] reads its reference windows from.
#[derive(Debug, Clone, Copy)]
enum Reference<'a> {
    /// The 2-bit packed sequence, the one copy an
    /// [`IndexedReference`](crate::IndexedReference) holds: a window is
    /// unpacked into the engine's slab when it is verified.
    Packed(&'a DnaSeq),
    /// Flat codes, one byte a base: windows are borrowed in place.
    Flat(&'a [u8]),
}

impl<'a> Reference<'a> {
    fn len(self) -> usize {
        match self {
            Reference::Packed(seq) => seq.len(),
            Reference::Flat(codes) => codes.len(),
        }
    }

    /// A slab for `lanes` windows of up to `window` bases each, sized up
    /// front and reused for every chunk of a call; empty for flat codes,
    /// which lend their windows.
    fn slab(self, lanes: usize, window: usize) -> Vec<u8> {
        match self {
            Reference::Packed(_) => Vec::with_capacity(lanes * window),
            Reference::Flat(_) => Vec::new(),
        }
    }

    /// The window `range` of the reference: borrowed from flat codes, or
    /// unpacked into `slab` (cleared first) from the packed sequence.
    fn window<'s>(self, range: Range<usize>, slab: &'s mut Vec<u8>) -> &'s [u8]
    where
        'a: 's,
    {
        match self {
            Reference::Flat(codes) => &codes[range],
            Reference::Packed(seq) => {
                slab.clear();
                seq.unpack_into(range, slab);
                slab
            }
        }
    }

    /// The windows of candidates `ids` of `batch`, in order, into the
    /// front of `out`: borrowed from flat codes, or unpacked one after
    /// another into `slab` (cleared first) from the packed sequence.
    fn windows<'s>(
        self,
        batch: &CandidateBatch,
        ids: Range<usize>,
        slab: &'s mut Vec<u8>,
        out: &mut [&'s [u8]; LANES],
    ) where
        'a: 's,
    {
        match self {
            Reference::Flat(codes) => {
                for (lane, i) in ids.enumerate() {
                    out[lane] = batch.window(codes, i);
                }
            }
            Reference::Packed(seq) => {
                slab.clear();
                for i in ids.clone() {
                    seq.unpack_into(batch.start(i)..batch.end(i), slab);
                }
                let slab: &'s [u8] = slab;
                let mut at = 0;
                for (lane, i) in ids.enumerate() {
                    let len = batch.end(i) - batch.start(i);
                    out[lane] = &slab[at..at + len];
                    at += len;
                }
            }
        }
    }
}

/// The verification half of a mapper.
#[derive(Debug, Clone, Copy)]
pub struct VerifyEngine<'a> {
    reference: Reference<'a>,
    delta: u32,
    prefilter: Option<&'a dyn PreFilter>,
    scalar: bool,
}

impl<'a> VerifyEngine<'a> {
    /// Creates an engine over flat 2-bit codes, one byte a base, with
    /// error budget δ and no pre-alignment filter: windows are borrowed
    /// from `reference`. Verification runs the batch SWAR kernels unless
    /// [`VerifyEngine::with_scalar_path`] selects the scalar oracle path.
    pub fn new(reference: &'a [u8], delta: u32) -> VerifyEngine<'a> {
        VerifyEngine::over(Reference::Flat(reference), delta)
    }

    /// [`VerifyEngine::new`] over the packed sequence itself, the engine
    /// every mapper gets from an
    /// [`IndexedReference`](crate::IndexedReference): each window is
    /// unpacked into a reused slab when its chunk of candidates is
    /// verified, so the reference is held once, at 2 bits a base.
    /// Output and metrics are identical to the flat engine's.
    pub fn packed(reference: &'a DnaSeq, delta: u32) -> VerifyEngine<'a> {
        VerifyEngine::over(Reference::Packed(reference), delta)
    }

    fn over(reference: Reference<'a>, delta: u32) -> VerifyEngine<'a> {
        VerifyEngine {
            reference,
            delta,
            prefilter: None,
            scalar: false,
        }
    }

    /// Forces the scalar per-candidate verification path. Output and
    /// metrics are bit-identical to the
    /// batch path — this switch exists for differential tests and for
    /// benchmarking the batch kernels against their oracle.
    pub fn with_scalar_path(mut self) -> VerifyEngine<'a> {
        self.scalar = true;
        self
    }

    /// Installs a pre-alignment filter: candidate windows it rejects
    /// skip Myers verification entirely. The filter must be sound
    /// (zero false negatives — see [`repute_prefilter::PreFilter`]),
    /// so installed filters change mapping *cost*, never mapping
    /// *output*. Filter work and outcomes are recorded in the
    /// `prefilter_*` counters of [`MapMetrics`].
    pub fn with_prefilter(mut self, filter: &'a dyn PreFilter) -> VerifyEngine<'a> {
        self.prefilter = Some(filter);
        self
    }

    /// Verifies merged candidate diagonals for `read` on `strand`,
    /// appending accepted mappings to `out` until `limit` total mappings,
    /// and recording one verification, its word updates, and any accepted
    /// hit per candidate into `metrics`.
    ///
    /// Returns the bit-vector work consumed. The window around each
    /// candidate spans `read_len + 2δ` bases, the standard slack for up to
    /// δ indels on either side.
    ///
    /// The batch path builds the read's [`ReadMasks`] once, gathers the
    /// candidates into a structure-of-arrays [`CandidateBatch`], runs
    /// the prefilter over whole chunks, and verifies survivors
    /// [`LANES`] at a time through the SWAR kernels. A chunk's windows
    /// are materialised only when it is reached: a first-n limit often
    /// stops verification early. Everything it
    /// reports — mappings, their order, every metric counter, the
    /// returned work — is bit-identical to the scalar path: a chunk is
    /// only batched when the remaining output capacity covers all of
    /// it (so the scalar loop could not have stopped mid-chunk), and
    /// all metric increments are commutative sums.
    pub fn verify_metered(
        &self,
        read: &[u8],
        strand: Strand,
        candidates: &[u32],
        limit: usize,
        out: &mut Vec<Mapping>,
        metrics: &mut MapMetrics,
    ) -> u64 {
        if self.scalar {
            return self.verify_metered_scalar(read, strand, candidates, limit, out, metrics);
        }
        let n = self.reference.len();
        let mut batch = CandidateBatch::new();
        for &diag in candidates {
            let start = (diag as usize).saturating_sub(self.delta as usize);
            let end = (diag as usize + read.len() + self.delta as usize).min(n);
            if start >= end {
                continue;
            }
            batch.push(diag as usize, start, end);
        }
        if batch.is_empty() {
            return 0;
        }
        let masks = ReadMasks::new(read);
        let mut scratch = VerifyScratch::new();
        let mut verifier = BatchVerifier::new();
        let mut slab = self
            .reference
            .slab(LANES, read.len() + 2 * self.delta as usize);
        let mut verdicts: Vec<Verdict> = Vec::with_capacity(LANES);
        let mut results = Vec::with_capacity(LANES);
        let mut work = 0u64;
        let mut i = 0;
        while i < batch.len() {
            if out.len() >= limit {
                break;
            }
            let chunk = LANES.min(batch.len() - i);
            if limit - out.len() < chunk {
                // The scalar loop could stop mid-chunk here (each
                // candidate appends at most one mapping); finish one
                // candidate at a time to keep the cut-off identical.
                work += self.verify_one(
                    read,
                    &masks,
                    &mut scratch,
                    &mut slab,
                    &batch,
                    i,
                    strand,
                    out,
                    metrics,
                );
                i += 1;
                continue;
            }
            let mut windows: [&[u8]; LANES] = [&[]; LANES];
            self.reference
                .windows(&batch, i..i + chunk, &mut slab, &mut windows);
            let mut lanes: [&[u8]; LANES] = [&[]; LANES];
            let mut lane_ids = [0usize; LANES];
            let mut used = 0;
            if let Some(filter) = self.prefilter {
                let mut chunk_candidates = [Candidate {
                    read,
                    window: &[],
                    window_start: 0,
                    delta: self.delta,
                }; LANES];
                for (j, candidate) in chunk_candidates[..chunk].iter_mut().enumerate() {
                    candidate.window = windows[j];
                    candidate.window_start = batch.start(i + j);
                }
                verdicts.clear();
                filter.examine_batch(&chunk_candidates[..chunk], &mut verdicts);
                for (j, verdict) in verdicts.iter().enumerate() {
                    metrics.prefilter_tested += 1;
                    metrics.prefilter_words += verdict.cost_words;
                    work += verdict.cost_words;
                    if verdict.accept {
                        lanes[used] = windows[j];
                        lane_ids[used] = i + j;
                        used += 1;
                    } else {
                        // Sound filters only reject unverifiable
                        // windows: every rejection is a true reject.
                        metrics.prefilter_rejected += 1;
                    }
                }
            } else {
                lanes = windows;
                for (j, id) in lane_ids[..chunk].iter_mut().enumerate() {
                    *id = i + j;
                }
                used = chunk;
            }
            if used > 0 {
                results.clear();
                verifier.verify_lanes(&masks, &lanes[..used], self.delta, &mut results);
                for (l, (hit, cost)) in results.iter().enumerate() {
                    metrics.verifications += 1;
                    metrics.word_updates += cost.word_updates;
                    metrics.hits += u64::from(hit.is_some());
                    work += cost.word_updates;
                    if let Some(v) = hit {
                        out.push(Mapping {
                            position: batch.diag(lane_ids[l]) as u32,
                            strand,
                            distance: v.distance,
                        });
                    } else if self.prefilter.is_some() {
                        metrics.prefilter_false_accepts += 1;
                    }
                }
            }
            i += chunk;
        }
        work
    }

    /// Scalar processing of one batched candidate, with the hoisted
    /// read masks — the same accounting as one iteration of
    /// [`VerifyEngine::verify_metered_scalar`].
    #[allow(clippy::too_many_arguments)]
    fn verify_one(
        &self,
        read: &[u8],
        masks: &ReadMasks,
        scratch: &mut VerifyScratch,
        slab: &mut Vec<u8>,
        batch: &CandidateBatch,
        i: usize,
        strand: Strand,
        out: &mut Vec<Mapping>,
        metrics: &mut MapMetrics,
    ) -> u64 {
        let mut work = 0u64;
        let window = self.reference.window(batch.start(i)..batch.end(i), slab);
        let mut filtered = false;
        if let Some(filter) = self.prefilter {
            let verdict = filter.examine(&Candidate {
                read,
                window,
                window_start: batch.start(i),
                delta: self.delta,
            });
            metrics.prefilter_tested += 1;
            metrics.prefilter_words += verdict.cost_words;
            work += verdict.cost_words;
            if !verdict.accept {
                metrics.prefilter_rejected += 1;
                return work;
            }
            filtered = true;
        }
        let (hit, cost) = verify_with(masks, window, self.delta, scratch);
        metrics.verifications += 1;
        metrics.word_updates += cost.word_updates;
        metrics.hits += u64::from(hit.is_some());
        work += cost.word_updates;
        if let Some(v) = hit {
            out.push(Mapping {
                position: batch.diag(i) as u32,
                strand,
                distance: v.distance,
            });
        } else if filtered {
            metrics.prefilter_false_accepts += 1;
        }
        work
    }

    /// The scalar per-candidate verification loop — the differential
    /// oracle the batch path is held bit-identical to.
    fn verify_metered_scalar(
        &self,
        read: &[u8],
        strand: Strand,
        candidates: &[u32],
        limit: usize,
        out: &mut Vec<Mapping>,
        metrics: &mut MapMetrics,
    ) -> u64 {
        let mut work = 0u64;
        let n = self.reference.len();
        let mut slab = self.reference.slab(1, read.len() + 2 * self.delta as usize);
        for &diag in candidates {
            if out.len() >= limit {
                break;
            }
            let start = (diag as usize).saturating_sub(self.delta as usize);
            let end = (diag as usize + read.len() + self.delta as usize).min(n);
            if start >= end {
                continue;
            }
            let window = self.reference.window(start..end, &mut slab);
            let mut filtered = false;
            if let Some(filter) = self.prefilter {
                let verdict = filter.examine(&Candidate {
                    read,
                    window,
                    window_start: start,
                    delta: self.delta,
                });
                metrics.prefilter_tested += 1;
                metrics.prefilter_words += verdict.cost_words;
                work += verdict.cost_words;
                if !verdict.accept {
                    // Sound filters only reject unverifiable windows:
                    // every rejection is a true reject.
                    metrics.prefilter_rejected += 1;
                    continue;
                }
                filtered = true;
            }
            let words_before = metrics.word_updates;
            let hit = verify_metered(read, window, self.delta, metrics);
            work += metrics.word_updates - words_before;
            if let Some(v) = hit {
                out.push(Mapping {
                    position: diag,
                    strand,
                    distance: v.distance,
                });
            } else if filtered {
                metrics.prefilter_false_accepts += 1;
            }
        }
        work
    }
}

impl VerifyEngine<'_> {
    /// Verifies diagonal *bands* (SWIFT-style counting filters emit a band
    /// start rather than an exact diagonal): the window spans the whole
    /// band plus the usual δ slack, and the reported position is derived
    /// from the alignment's end (accurate to ±distance ≤ δ).
    ///
    /// Returns the bit-vector work consumed.
    pub fn verify_banded(
        &self,
        read: &[u8],
        strand: Strand,
        band_starts: &[u32],
        band: usize,
        limit: usize,
        out: &mut Vec<Mapping>,
    ) -> u64 {
        let mut work = 0u64;
        let n = self.reference.len();
        let delta = self.delta as usize;
        if band_starts.is_empty() {
            return 0;
        }
        // Masks built once per read, reused across every band window.
        let masks = ReadMasks::new(read);
        let mut scratch = VerifyScratch::new();
        let mut slab = self.reference.slab(1, band + read.len() + 2 * delta);
        for &band_start in band_starts {
            if out.len() >= limit {
                break;
            }
            let start = (band_start as usize).saturating_sub(delta);
            let end = (band_start as usize + band + read.len() + delta).min(n);
            if start >= end {
                continue;
            }
            let window = self.reference.window(start..end, &mut slab);
            let (hit, cost) = verify_with(&masks, window, self.delta, &mut scratch);
            work += cost.word_updates;
            if let Some(v) = hit {
                let position = (start + v.end).saturating_sub(read.len()) as u32;
                out.push(Mapping {
                    position,
                    strand,
                    distance: v.distance,
                });
            }
        }
        work
    }
}

/// Prepares the forward and reverse-complement code vectors of a read —
/// every mapper maps both strands.
pub fn strand_codes(read: &DnaSeq) -> [(Strand, Vec<u8>); 2] {
    [
        (Strand::Forward, read.to_codes()),
        (Strand::Reverse, read.reverse_complement().to_codes()),
    ]
}

/// What a mapper reports of the mappings it verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Report {
    /// The first `max_locations` accepted, in verification order
    /// (§III's *first-n*): verification stops at the limit, and a
    /// forward strand that fills it leaves the reverse strand unseeded.
    FirstN,
    /// Every candidate of both strands is verified; the mappings at the
    /// minimum distance are kept, at most `max_locations` of them.
    BestStratum,
}

/// Locates up to `cap` occurrences of `interval` into `set`, each
/// anchored `anchor` bases into the read, counting them into
/// `fm_locate_ops` and `candidates_raw`. Returns the work:
/// [`LOCATE_COST`] per position.
pub fn locate_into(
    fm: &FmIndex,
    interval: Interval,
    cap: usize,
    anchor: usize,
    set: &mut CandidateSet,
    metrics: &mut MapMetrics,
) -> u64 {
    let positions = fm.locate(interval, cap);
    let located = positions.len() as u64;
    metrics.fm_locate_ops += located;
    metrics.candidates_raw += located;
    for pos in positions {
        set.add(pos, anchor);
    }
    located * LOCATE_COST
}

/// The seeding step of a mapper that is a [`SeedSelector`] (REPUTE,
/// CORAL, GEM): on a strand whose length is `feasible`, selects the
/// seeds and locates each one that occurs, at its anchor and under
/// `cap`. The selector's extensions, DP cells and seed count go into
/// the metrics; the work is that of selection and location.
pub fn select_and_locate<'a, S: SeedSelector>(
    selector: &'a S,
    fm: &'a FmIndex,
    cap: usize,
    feasible: impl Fn(usize) -> bool + 'a,
) -> impl FnMut(&[u8], &mut CandidateSet, &mut MapMetrics) -> Option<u64> + 'a {
    move |codes, set, metrics| {
        if !feasible(codes.len()) {
            return None;
        }
        let (selection, stats) = selector.select_seeds(codes, fm);
        metrics.fm_extend_ops += stats.extend_ops;
        metrics.dp_cells += stats.dp_cells;
        metrics.seeds_selected += selection.seeds.len() as u64;
        let mut work = stats.extend_ops * EXTEND_COST + stats.dp_cells * DP_CELL_COST;
        for seed in &selection.seeds {
            if let Some(interval) = seed.interval {
                work += locate_into(fm, interval, cap, seed.anchor, set, metrics);
            }
        }
        Some(work)
    }
}

/// Maps one read: the stages every pigeonhole mapper shares, around the
/// one it does not.
///
/// For each strand, `seed` fills a [`CandidateSet`] from the strand's
/// codes and returns the work it spent — or `None` when the strand
/// cannot host the mapper's seeds, which skips it at no cost. The set
/// is merged with the gap of `engine`'s δ, counted into
/// [`MapOutput::candidates`], and verified into the output; `report`
/// decides where verification stops and what is kept.
pub fn map_read_with(
    read: &DnaSeq,
    engine: &VerifyEngine<'_>,
    report: Report,
    max_locations: usize,
    metrics: &mut MapMetrics,
    mut seed: impl FnMut(&[u8], &mut CandidateSet, &mut MapMetrics) -> Option<u64>,
) -> MapOutput {
    let limit = match report {
        Report::FirstN => max_locations,
        Report::BestStratum => usize::MAX,
    };
    let mut out = MapOutput::default();
    for (strand, codes) in strand_codes(read) {
        let mut candidates = CandidateSet::new();
        let Some(seed_work) = seed(&codes, &mut candidates, metrics) else {
            continue;
        };
        let merged = candidates.into_merged(CandidateSet::merge_gap(engine.delta));
        out.candidates += merged.len() as u64;
        metrics.candidates_merged += merged.len() as u64;
        out.work += seed_work
            + engine.verify_metered(&codes, strand, &merged, limit, &mut out.mappings, metrics);
        if out.mappings.len() >= limit {
            break;
        }
    }
    if report == Report::BestStratum {
        if let Some(best) = out.mappings.iter().map(|m| m.distance).min() {
            out.mappings.retain(|m| m.distance == best);
            out.mappings.truncate(max_locations);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use repute_genome::synth::ReferenceBuilder;

    impl VerifyEngine<'_> {
        /// [`VerifyEngine::verify_metered`] with a scratch record.
        fn verify(
            &self,
            read: &[u8],
            strand: Strand,
            candidates: &[u32],
            limit: usize,
            out: &mut Vec<Mapping>,
        ) -> u64 {
            let mut scratch = MapMetrics::new();
            self.verify_metered(read, strand, candidates, limit, out, &mut scratch)
        }
    }

    #[test]
    fn candidate_merging() {
        let mut set = CandidateSet::new();
        set.add(100, 0);
        set.add(103, 0);
        set.add(200, 0);
        set.add(100, 0);
        assert_eq!(set.len(), 4);
        assert_eq!(set.into_merged(5), vec![100, 200]);
    }

    #[test]
    fn candidate_merge_zero_keeps_distinct() {
        let mut set = CandidateSet::new();
        set.add(10, 0);
        set.add(11, 0);
        assert_eq!(set.into_merged(0), vec![10, 11]);
    }

    #[test]
    fn diagonal_clamps_at_zero() {
        let mut set = CandidateSet::new();
        set.add(3, 10); // seed hit near the reference start
        assert_eq!(set.into_merged(0), vec![0]);
    }

    #[test]
    fn verify_accepts_true_location_and_rejects_noise() {
        let reference = ReferenceBuilder::new(10_000).seed(23).build();
        let codes = reference.to_codes();
        let read = reference.subseq(4000..4100).to_codes();
        let engine = VerifyEngine::new(&codes, 3);
        let mut out = Vec::new();
        let work = engine.verify(&read, Strand::Forward, &[4000, 9000], 100, &mut out);
        assert!(work > 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].position, 4000);
        assert_eq!(out[0].distance, 0);
    }

    #[test]
    fn metered_verify_matches_unmetered() {
        let reference = ReferenceBuilder::new(10_000).seed(23).build();
        let codes = reference.to_codes();
        let read = reference.subseq(4000..4100).to_codes();
        let engine = VerifyEngine::new(&codes, 3);
        let candidates = [4000u32, 6000, 9000];
        let mut plain = Vec::new();
        let work = engine.verify(&read, Strand::Forward, &candidates, 100, &mut plain);
        let mut metered = Vec::new();
        let mut metrics = MapMetrics::new();
        let metered_work = engine.verify_metered(
            &read,
            Strand::Forward,
            &candidates,
            100,
            &mut metered,
            &mut metrics,
        );
        assert_eq!(plain, metered);
        assert_eq!(work, metered_work);
        assert_eq!(metrics.word_updates, work);
        assert_eq!(metrics.verifications, candidates.len() as u64);
        assert_eq!(metrics.hits, plain.len() as u64);
    }

    #[test]
    fn batch_path_matches_scalar_oracle_exactly() {
        // The load-bearing invariant of the SWAR batch path: mappings
        // (values and order), every metric counter, and the returned
        // work must be bit-identical to the scalar per-candidate loop —
        // across read-length kernels, every prefilter mode (the chain
        // reaches its parts through the default `examine_batch`), δ,
        // and limits that force the mid-chunk scalar fallback. Both
        // reference arms take part, batch and scalar: windows unpacked
        // from the packed sequence and windows borrowed from flat codes,
        // all held to the flat scalar loop.
        let reference = ReferenceBuilder::new(20_000).seed(29).build();
        let codes = reference.to_codes();
        let shd = repute_prefilter::ShdFilter::new();
        let bins = repute_prefilter::QgramBins::build_default(&codes);
        let qgram = repute_prefilter::QgramFilter::new(&bins);
        let chain = repute_prefilter::Chain::new(vec![&qgram, &shd]);
        let filters: [Option<&dyn PreFilter>; 4] = [None, Some(&shd), Some(&qgram), Some(&chain)];
        let mut rejected = [0u64; 4];
        for read_len in [50usize, 100, 150] {
            let mut read = reference.subseq(5000..5000 + read_len).to_codes();
            read[read_len / 2] ^= 1; // one substitution: a hit at distance 1
            let candidates: Vec<u32> = vec![
                5000, 5, 100, 1000, 2500, 5000, 7000, 9000, 11000, 13000, 17500, 19990,
            ];
            for delta in [3u32, 4, 5, 7] {
                for limit in [0usize, 1, 2, 3, 5, 100] {
                    for (f, filter) in filters.iter().enumerate() {
                        fn with<'a>(
                            engine: VerifyEngine<'a>,
                            filter: Option<&'a dyn PreFilter>,
                        ) -> VerifyEngine<'a> {
                            filter.map_or(engine, |filter| engine.with_prefilter(filter))
                        }
                        let run = |engine: VerifyEngine<'_>| {
                            let mut out = Vec::new();
                            let mut metrics = MapMetrics::new();
                            let work = engine.verify_metered(
                                &read,
                                Strand::Forward,
                                &candidates,
                                limit,
                                &mut out,
                                &mut metrics,
                            );
                            (out, work, metrics)
                        };
                        let flat = with(VerifyEngine::new(&codes, delta), *filter);
                        let packed = with(VerifyEngine::packed(&reference, delta), *filter);
                        let (out_s, work_s, met_s) = run(flat.with_scalar_path());
                        let name = filter.map_or("none", |f| f.name());
                        for (arm, engine) in [
                            ("flat batch", flat),
                            ("packed batch", packed),
                            ("packed scalar", packed.with_scalar_path()),
                        ] {
                            let ctx = format!(
                                "{arm} read_len={read_len} δ={delta} limit={limit} filter={name}"
                            );
                            let (out, work, metrics) = run(engine);
                            assert_eq!(out, out_s, "{ctx}: mappings diverge");
                            assert_eq!(work, work_s, "{ctx}: work diverges");
                            assert_eq!(metrics, met_s, "{ctx}: metrics diverge");
                        }
                        assert_eq!(out_s.len(), limit.min(2), "the two hits at 5000");
                        rejected[f] += met_s.prefilter_rejected;
                    }
                }
            }
        }
        assert!(
            rejected[0] == 0 && rejected[1..].iter().all(|&r| r > 0),
            "every filter must reject something: {rejected:?}"
        );
        // The same switch one level up: a reference marked scalar hands
        // every mapper the oracle engine, and whole mappers agree.
        use crate::{razers3::Razers3Like, IndexedReference, Mapper};
        let batch = IndexedReference::build(reference.clone());
        let scalar = batch.clone().with_scalar_verify();
        assert!(!batch.verify_engine(4).scalar && scalar.verify_engine(4).scalar);
        let read = reference.subseq(5000..5100);
        let out_b = Razers3Like::new(std::sync::Arc::new(batch), 4).map_read(&read);
        let out_s = Razers3Like::new(std::sync::Arc::new(scalar), 4).map_read(&read);
        assert!(!out_b.mappings.is_empty());
        assert_eq!(out_b, out_s);
    }

    #[test]
    fn verify_respects_limit() {
        let reference = ReferenceBuilder::new(5_000).seed(24).build();
        let codes = reference.to_codes();
        let read = reference.subseq(100..180).to_codes();
        let engine = VerifyEngine::new(&codes, 80); // absurd budget: everything passes
        let mut out = Vec::new();
        engine.verify(&read, Strand::Forward, &[0, 50, 100, 150], 2, &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn window_clamps_at_reference_edges() {
        let reference = ReferenceBuilder::new(300).seed(25).build();
        let codes = reference.to_codes();
        let read = reference.subseq(250..300).to_codes();
        let engine = VerifyEngine::new(&codes, 2);
        let mut out = Vec::new();
        engine.verify(&read, Strand::Forward, &[250, 290], 10, &mut out);
        assert!(out.iter().any(|m| m.position == 250));
    }

    /// A 10 kbp reference holding the read of 4000..4100 again at 7000
    /// with one substitution, and its reverse complement at 2000.
    fn planted() -> (Vec<u8>, DnaSeq) {
        let reference = ReferenceBuilder::new(10_000).seed(23).build();
        let read = reference.subseq(4000..4100);
        let mut codes = reference.to_codes();
        codes[7000..7100].copy_from_slice(&read.to_codes());
        codes[7050] ^= 1;
        codes[2000..2100].copy_from_slice(&read.reverse_complement().to_codes());
        (codes, read)
    }

    /// A seeding step that proposes the three planted sites plus one
    /// site of noise for 7 work units, counting its calls.
    fn stub(
        calls: &mut u32,
    ) -> impl FnMut(&[u8], &mut CandidateSet, &mut MapMetrics) -> Option<u64> + '_ {
        move |_, set, _| {
            *calls += 1;
            for site in [7000, 4000, 9000, 2000] {
                set.add(site, 0);
            }
            Some(7)
        }
    }

    fn hit(position: u32, strand: Strand, distance: u32) -> Mapping {
        Mapping {
            position,
            strand,
            distance,
        }
    }

    #[test]
    fn first_n_stops_at_the_limit_and_leaves_the_reverse_strand_unseeded() {
        let (codes, read) = planted();
        let engine = VerifyEngine::new(&codes, 3);
        for (limit, strands_seeded, expected) in [
            (1, 1, vec![hit(4000, Strand::Forward, 0)]),
            (
                2,
                1,
                vec![hit(4000, Strand::Forward, 0), hit(7000, Strand::Forward, 1)],
            ),
            (
                3,
                2,
                vec![
                    hit(4000, Strand::Forward, 0),
                    hit(7000, Strand::Forward, 1),
                    hit(2000, Strand::Reverse, 0),
                ],
            ),
        ] {
            let mut calls = 0;
            let mut metrics = MapMetrics::new();
            let out = map_read_with(
                &read,
                &engine,
                Report::FirstN,
                limit,
                &mut metrics,
                stub(&mut calls),
            );
            assert_eq!(out.mappings, expected, "limit {limit}");
            assert_eq!(calls, strands_seeded, "limit {limit}");
            assert_eq!(out.candidates, 4 * u64::from(strands_seeded));
            assert_eq!(metrics.candidates_merged, out.candidates);
            assert_eq!(
                out.work,
                7 * u64::from(strands_seeded) + metrics.word_updates
            );
        }
    }

    #[test]
    fn best_stratum_verifies_both_strands_and_keeps_the_minimum_distance() {
        let (codes, read) = planted();
        let engine = VerifyEngine::new(&codes, 3);
        for (limit, expected) in [
            (1, vec![hit(4000, Strand::Forward, 0)]),
            (
                100,
                vec![hit(4000, Strand::Forward, 0), hit(2000, Strand::Reverse, 0)],
            ),
        ] {
            let mut calls = 0;
            let mut metrics = MapMetrics::new();
            let out = map_read_with(
                &read,
                &engine,
                Report::BestStratum,
                limit,
                &mut metrics,
                stub(&mut calls),
            );
            assert_eq!(out.mappings, expected, "limit {limit}");
            assert_eq!(calls, 2);
            assert_eq!((out.candidates, metrics.verifications), (8, 8));
            assert_eq!(metrics.hits, 3, "the distance-1 site was verified too");
        }
    }

    #[test]
    fn an_infeasible_strand_costs_nothing() {
        let (codes, read) = planted();
        let engine = VerifyEngine::new(&codes, 3);
        let mut metrics = MapMetrics::new();
        let never = |_: &[u8], _: &mut CandidateSet, _: &mut MapMetrics| None;
        for report in [Report::FirstN, Report::BestStratum] {
            let out = map_read_with(&read, &engine, report, 100, &mut metrics, never);
            assert_eq!(out, MapOutput::default());
            assert_eq!(metrics, MapMetrics::new());
        }
        // Skipping the forward strand alone leaves the reverse one mapped.
        let mut calls = 0;
        let mut seed = stub(&mut calls);
        let mut forward = true;
        let out = map_read_with(
            &read,
            &engine,
            Report::FirstN,
            100,
            &mut metrics,
            |codes, set, metrics| {
                if std::mem::take(&mut forward) {
                    None
                } else {
                    seed(codes, set, metrics)
                }
            },
        );
        assert_eq!(out.mappings, vec![hit(2000, Strand::Reverse, 0)]);
        assert_eq!(out.candidates, 4);
        assert_eq!(out.work, 7 + metrics.word_updates);
    }

    #[test]
    fn locate_charges_per_position_and_respects_its_cap() {
        let reference = ReferenceBuilder::new(10_000).seed(23).build();
        let indexed = crate::IndexedReference::build(reference);
        let fm = indexed.fm();
        let interval = fm.interval(&indexed.codes()[4000..4005]).expect("occurs");
        let width = u64::from(interval.width());
        assert!(width > 3);
        for (cap, located) in [(usize::MAX, width), (3, 3), (0, 0)] {
            let mut set = CandidateSet::new();
            let mut metrics = MapMetrics::new();
            let work = locate_into(fm, interval, cap, 2, &mut set, &mut metrics);
            assert_eq!(work, located * LOCATE_COST);
            assert_eq!(set.len() as u64, located);
            let expected = MapMetrics {
                fm_locate_ops: located,
                candidates_raw: located,
                ..MapMetrics::new()
            };
            assert_eq!(metrics, expected, "no other counter moves");
            // Each candidate is the located position less the anchor.
            let mut diagonals: Vec<u32> = fm
                .locate(interval, cap)
                .iter()
                .map(|p| p.saturating_sub(2))
                .collect();
            diagonals.sort_unstable();
            diagonals.dedup();
            assert_eq!(set.into_merged(0), diagonals);
        }
    }

    #[test]
    fn strand_codes_produces_both_orientations() {
        let read: DnaSeq = "ACGT".parse().unwrap();
        let [fwd, rev] = strand_codes(&read);
        assert_eq!(fwd.0, Strand::Forward);
        assert_eq!(fwd.1, vec![0, 1, 2, 3]);
        assert_eq!(rev.0, Strand::Reverse);
        assert_eq!(rev.1, vec![0, 1, 2, 3]); // ACGT is its own RC
    }
}
