//! Multi-sequence (multi-chromosome) references.
//!
//! The paper evaluates on a single chromosome, but a mapper a downstream
//! user adopts must handle a whole-genome FASTA. [`ReferenceSet`]
//! concatenates the records into one indexed sequence, translates global
//! mapping positions back to `(record, local position)`, and rejects
//! alignments that straddle a record boundary (an artefact of
//! concatenation, not a real mapping location).

use std::sync::Arc;

use repute_genome::wire::{read_run, Reader, WireError};
use repute_genome::{DnaSeq, Strand};

use crate::common::{IndexedReference, Mapping};

/// A mapping resolved against a named record of a [`ReferenceSet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedMapping {
    /// Index of the record within the set.
    pub record: usize,
    /// 0-based position within that record.
    pub position: u32,
    /// Strand of the alignment.
    pub strand: Strand,
    /// Edit distance of the alignment.
    pub distance: u32,
}

/// A set of named reference sequences indexed as one concatenation.
///
/// # Example
///
/// ```
/// use repute_genome::synth::ReferenceBuilder;
/// use repute_mappers::multiref::ReferenceSet;
///
/// let chr_a = ReferenceBuilder::new(30_000).seed(1).build();
/// let chr_b = ReferenceBuilder::new(20_000).seed(2).build();
/// let set = ReferenceSet::build(vec![
///     ("chrA".to_string(), chr_a),
///     ("chrB".to_string(), chr_b),
/// ]);
/// assert_eq!(set.records().len(), 2);
/// // Global position 30_005 lies 5 bases into chrB.
/// let (record, local) = set.resolve(30_005).expect("in range");
/// assert_eq!(set.records()[record].0, "chrB");
/// assert_eq!(local, 5);
/// ```
#[derive(Debug, Clone)]
pub struct ReferenceSet {
    indexed: Arc<IndexedReference>,
    /// `(name, length)` per record, in input order.
    records: Vec<(String, usize)>,
    /// Start offset of each record in the concatenation, plus the total
    /// length as a final sentinel.
    offsets: Vec<u32>,
}

impl ReferenceSet {
    /// Concatenates and indexes the records.
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty, any sequence is empty, or the total
    /// length exceeds `u32` positions.
    pub fn build(records: Vec<(String, DnaSeq)>) -> ReferenceSet {
        assert!(
            !records.is_empty(),
            "reference set needs at least one record"
        );
        let total: usize = records.iter().map(|(_, s)| s.len()).sum();
        assert!(
            total < u32::MAX as usize,
            "reference set exceeds u32 positions"
        );
        let mut concat = DnaSeq::with_capacity(total);
        let mut offsets = Vec::with_capacity(records.len() + 1);
        let mut meta = Vec::with_capacity(records.len());
        for (name, seq) in records {
            assert!(!seq.is_empty(), "record {name:?} has an empty sequence");
            offsets.push(concat.len() as u32);
            meta.push((name, seq.len()));
            concat.extend(seq.iter());
        }
        offsets.push(concat.len() as u32);
        ReferenceSet {
            indexed: Arc::new(IndexedReference::build(concat)),
            records: meta,
            offsets,
        }
    }

    /// The shared index over the concatenation — hand this to any mapper.
    pub fn indexed(&self) -> &Arc<IndexedReference> {
        &self.indexed
    }

    /// `(name, length)` of every record, in input order.
    pub fn records(&self) -> &[(String, usize)] {
        &self.records
    }

    /// Translates a global position into `(record index, local position)`,
    /// or `None` past the end of the concatenation.
    pub fn resolve(&self, position: u32) -> Option<(usize, u32)> {
        if position >= *self.offsets.last()? {
            return None;
        }
        // partition_point gives the first offset > position.
        let record = self.offsets.partition_point(|&o| o <= position) - 1;
        Some((record, position - self.offsets[record]))
    }

    /// Returns `true` if an alignment starting at `position` spanning
    /// `len` bases would cross a record boundary (or run past the end).
    pub fn crosses_boundary(&self, position: u32, len: usize) -> bool {
        match self.resolve(position) {
            Some((record, local)) => local as usize + len > self.records[record].1,
            None => true,
        }
    }

    /// Resolves raw concatenation-space mappings of a read of `read_len`
    /// bases, dropping boundary-straddling artefacts.
    pub fn resolve_mappings(&self, read_len: usize, mappings: &[Mapping]) -> Vec<ResolvedMapping> {
        mappings
            .iter()
            .filter_map(|m| {
                // The aligned region spans at most read_len + distance
                // reference bases.
                let span = read_len + m.distance as usize;
                if self.crosses_boundary(m.position, span.min(read_len)) {
                    return None;
                }
                let (record, position) = self.resolve(m.position)?;
                Some(ResolvedMapping {
                    record,
                    position,
                    strand: m.strand,
                    distance: m.distance,
                })
            })
            .collect()
    }
}

impl ReferenceSet {
    /// Serialises the set: record table plus the shared index
    /// ([`IndexedReference::write_to`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out` (a `&mut` writer is accepted).
    pub fn write_to<W: std::io::Write>(&self, mut out: W) -> std::io::Result<()> {
        out.write_all(b"RPST")?;
        out.write_all(&1u16.to_le_bytes())?;
        out.write_all(&(self.records.len() as u32).to_le_bytes())?;
        for (name, len) in &self.records {
            let bytes = name.as_bytes();
            out.write_all(&(bytes.len() as u32).to_le_bytes())?;
            out.write_all(bytes)?;
            out.write_all(&(*len as u64).to_le_bytes())?;
        }
        self.indexed.write_to(&mut out)
    }

    /// Deserialises a set written by [`ReferenceSet::write_to`].
    ///
    /// # Errors
    ///
    /// Returns [`std::io::ErrorKind::InvalidData`] on a bad magic,
    /// version, or payload mismatch, and propagates I/O errors.
    pub fn read_from<R: std::io::Read>(mut input: R) -> std::io::Result<ReferenceSet> {
        let head = read_run(&mut input, 10)?;
        let mut r = Reader::new(&head);
        if r.bytes(4)? != b"RPST" {
            return Err(WireError::Invalid("not a reference-set stream (bad magic)").into());
        }
        if r.u16()? != 1 {
            return Err(WireError::Invalid("unsupported reference-set format version").into());
        }
        let count = r.u32()?;
        if count == 0 {
            return Err(WireError::Invalid("reference set has no records").into());
        }
        // Not sized from `count`: both grow as records really arrive.
        let mut records = Vec::new();
        let mut offsets = Vec::new();
        let mut cursor = 0u32;
        for _ in 0..count {
            // [name_len u32][name][len u64], the name's length first.
            let mut record = read_run(&mut input, 4)?;
            let name_len = Reader::new(&record).u32()?;
            record.extend(read_run(&mut input, u64::from(name_len) + 8)?);
            let mut r = Reader::new(&record);
            let (name, len) = (r.string()?, r.u64()?);
            offsets.push(cursor);
            cursor = u32::try_from(len)
                .ok()
                .and_then(|len| cursor.checked_add(len))
                .ok_or(WireError::Invalid("reference set exceeds u32 positions"))?;
            records.push((name, len as usize));
        }
        offsets.push(cursor);
        let indexed = IndexedReference::read_from(&mut input)?;
        if indexed.len() != cursor as usize {
            return Err(
                WireError::Invalid("record table does not match the indexed sequence").into(),
            );
        }
        Ok(ReferenceSet {
            indexed: Arc::new(indexed),
            records,
            offsets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    // The core crate depends on this one, so REPUTE itself cannot appear
    // here; the RazerS3-style mapper exercises the same flow.
    use crate::razers3::Razers3Like;
    use crate::Mapper;
    use repute_genome::synth::ReferenceBuilder;

    fn set() -> ReferenceSet {
        ReferenceSet::build(vec![
            (
                "chrA".into(),
                ReferenceBuilder::new(30_000).seed(301).build(),
            ),
            (
                "chrB".into(),
                ReferenceBuilder::new(20_000).seed(302).build(),
            ),
            (
                "chrC".into(),
                ReferenceBuilder::new(10_000).seed(303).build(),
            ),
        ])
    }

    #[test]
    fn resolve_maps_global_to_local() {
        let set = set();
        assert_eq!(set.resolve(0), Some((0, 0)));
        assert_eq!(set.resolve(29_999), Some((0, 29_999)));
        assert_eq!(set.resolve(30_000), Some((1, 0)));
        assert_eq!(set.resolve(50_000), Some((2, 0)));
        assert_eq!(set.resolve(59_999), Some((2, 9_999)));
        assert_eq!(set.resolve(60_000), None);
    }

    #[test]
    fn boundary_detection() {
        let set = set();
        assert!(!set.crosses_boundary(29_900, 100));
        assert!(set.crosses_boundary(29_901, 100));
        assert!(set.crosses_boundary(59_950, 100));
        assert!(set.crosses_boundary(60_000, 1));
    }

    #[test]
    fn reads_map_to_their_own_chromosome() {
        let set = set();
        let mapper = Razers3Like::new(Arc::clone(set.indexed()), 3);
        // A read from 100 bases into chrB.
        let read = set.indexed().seq().subseq(30_100..30_200);
        let out = mapper.map_read(&read);
        let resolved = set.resolve_mappings(100, &out.mappings);
        let hit = resolved
            .iter()
            .find(|r| r.record == 1 && r.position.abs_diff(100) <= 6)
            .expect("read found on chrB");
        assert_eq!(set.records()[hit.record].0, "chrB");
    }

    #[test]
    fn junction_artefacts_are_filtered() {
        let set = set();
        // A "read" spanning the chrA/chrB junction exists in the
        // concatenation but is not a real genomic sequence.
        let junction_read = set.indexed().seq().subseq(29_950..30_050);
        let mapper = Razers3Like::new(Arc::clone(set.indexed()), 0);
        let out = mapper.map_read(&junction_read);
        let resolved = set.resolve_mappings(100, &out.mappings);
        assert!(
            resolved
                .iter()
                .all(|r| !set.crosses_boundary(set_global(&set, r), 100)),
            "boundary-straddling mapping survived: {resolved:?}"
        );
        fn set_global(set: &ReferenceSet, r: &ResolvedMapping) -> u32 {
            let mut off = 0u32;
            for (i, (_, len)) in set.records().iter().enumerate() {
                if i == r.record {
                    break;
                }
                off += *len as u32;
            }
            off + r.position
        }
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn empty_set_rejected() {
        let _ = ReferenceSet::build(vec![]);
    }

    #[test]
    fn serialisation_round_trips() {
        let set = ReferenceSet::build(vec![
            ("c1".into(), ReferenceBuilder::new(8_000).seed(401).build()),
            ("c2".into(), ReferenceBuilder::new(5_000).seed(402).build()),
        ]);
        let mut buf = Vec::new();
        set.write_to(&mut buf).unwrap();
        let back = ReferenceSet::read_from(buf.as_slice()).unwrap();
        assert_eq!(back.records(), set.records());
        assert_eq!(back.resolve(8_003), Some((1, 3)));
        // The restored index answers like the original.
        let mapper = Razers3Like::new(Arc::clone(back.indexed()), 2);
        let read = set.indexed().seq().subseq(2_000..2_100);
        let out = mapper.map_read(&read);
        assert!(out.mappings.iter().any(|m| m.position.abs_diff(2_000) <= 5));
        // Corruption is rejected.
        buf[0] = b'Z';
        assert!(ReferenceSet::read_from(buf.as_slice()).is_err());
    }
}
