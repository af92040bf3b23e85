//! The per-read metric record threaded through the mapping pipeline.

use crate::record::Record;

/// Work performed while mapping one read, broken down by pipeline stage.
///
/// Field names follow the paper's stages: FM-index backward extension
/// builds the frequency table (§III-A), the DP filtration selects seeds
/// and their candidate locations (§III-B), and Myers bit-vector
/// verification confirms hits (§III-C). All fields are plain `u64`s so
/// the record lives on the stack and costs nothing to merge — the
/// instrumented hot path never allocates.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MapMetrics {
    /// Seeds chosen by the filtration stage (both strands).
    pub seeds_selected: u64,
    /// FM-index occ operations: one per backward-extension step while
    /// building the seed frequency table.
    pub fm_extend_ops: u64,
    /// FM-index locate operations: suffix-array positions materialised
    /// for selected seeds (after the per-seed cap).
    pub fm_locate_ops: u64,
    /// Candidate locations entering diagonal merging (pre-cap total of
    /// located positions).
    pub candidates_raw: u64,
    /// Candidate windows surviving diagonal merging — what verification
    /// actually inspects.
    pub candidates_merged: u64,
    /// Dynamic-programming cells filled by the optimal seed solver.
    pub dp_cells: u64,
    /// Candidate windows examined by the pre-alignment filter stage
    /// (0 when no prefilter is configured).
    pub prefilter_tested: u64,
    /// Candidate windows the prefilter rejected. Filters are sound
    /// (zero false negatives), so every rejection is a true reject —
    /// a verification that would have found nothing.
    pub prefilter_rejected: u64,
    /// Prefilter-accepted windows that verification then rejected:
    /// the filter's false accepts (its only failure mode).
    pub prefilter_false_accepts: u64,
    /// Word operations spent inside prefilters, in the same currency
    /// as `word_updates`; charged to `MapOutput.work` at unit cost.
    pub prefilter_words: u64,
    /// Myers bit-vector verification calls (one per candidate window
    /// scanned).
    pub verifications: u64,
    /// Bit-vector word updates performed across all verifications; this
    /// is the unit the verification stage charges to `MapOutput.work`.
    pub word_updates: u64,
    /// Mappings that passed verification within the distance threshold.
    pub hits: u64,
}

impl MapMetrics {
    /// A zeroed record.
    pub fn new() -> MapMetrics {
        MapMetrics::default()
    }

    /// Adds every field of `other` into `self` (e.g. folding per-read
    /// records into run totals, or mate records into a pair record).
    pub fn merge(&mut self, other: &MapMetrics) {
        self.seeds_selected += other.seeds_selected;
        self.fm_extend_ops += other.fm_extend_ops;
        self.fm_locate_ops += other.fm_locate_ops;
        self.candidates_raw += other.candidates_raw;
        self.candidates_merged += other.candidates_merged;
        self.dp_cells += other.dp_cells;
        self.prefilter_tested += other.prefilter_tested;
        self.prefilter_rejected += other.prefilter_rejected;
        self.prefilter_false_accepts += other.prefilter_false_accepts;
        self.prefilter_words += other.prefilter_words;
        self.verifications += other.verifications;
        self.word_updates += other.word_updates;
        self.hits += other.hits;
    }

    /// Field names and values in declaration order, for generic export.
    pub fn fields(&self) -> [(&'static str, u64); 13] {
        [
            ("seeds_selected", self.seeds_selected),
            ("fm_extend_ops", self.fm_extend_ops),
            ("fm_locate_ops", self.fm_locate_ops),
            ("candidates_raw", self.candidates_raw),
            ("candidates_merged", self.candidates_merged),
            ("dp_cells", self.dp_cells),
            ("prefilter_tested", self.prefilter_tested),
            ("prefilter_rejected", self.prefilter_rejected),
            ("prefilter_false_accepts", self.prefilter_false_accepts),
            ("prefilter_words", self.prefilter_words),
            ("verifications", self.verifications),
            ("word_updates", self.word_updates),
            ("hits", self.hits),
        ]
    }

    /// Sets the field called `name` to `value`, returning `false` when
    /// no such field exists. The inverse of [`MapMetrics::fields`] for
    /// JSON round-tripping.
    pub fn set_field(&mut self, name: &str, value: u64) -> bool {
        let slot = match name {
            "seeds_selected" => &mut self.seeds_selected,
            "fm_extend_ops" => &mut self.fm_extend_ops,
            "fm_locate_ops" => &mut self.fm_locate_ops,
            "candidates_raw" => &mut self.candidates_raw,
            "candidates_merged" => &mut self.candidates_merged,
            "dp_cells" => &mut self.dp_cells,
            "prefilter_tested" => &mut self.prefilter_tested,
            "prefilter_rejected" => &mut self.prefilter_rejected,
            "prefilter_false_accepts" => &mut self.prefilter_false_accepts,
            "prefilter_words" => &mut self.prefilter_words,
            "verifications" => &mut self.verifications,
            "word_updates" => &mut self.word_updates,
            "hits" => &mut self.hits,
            _ => return false,
        };
        *slot = value;
        true
    }

    /// Reconstructs the `MapOutput.work` scalar from this record given the
    /// stage costs used by the mapper (`extend_cost`, `dp_cell_cost`,
    /// `locate_cost`; word updates and prefilter words are charged at
    /// unit cost — they share the bit-parallel word-op currency).
    pub fn work_units(&self, extend_cost: u64, dp_cell_cost: u64, locate_cost: u64) -> u64 {
        self.fm_extend_ops * extend_cost
            + self.dp_cells * dp_cell_cost
            + self.fm_locate_ops * locate_cost
            + self.word_updates
            + self.prefilter_words
    }

    /// One JSON-lines record for this read (`{"type":"read","id":...}`).
    pub fn to_json_line(&self, read_id: u64) -> String {
        Record::read(read_id, self).encode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_every_field() {
        let mut a = MapMetrics::new();
        a.seeds_selected = 1;
        a.word_updates = 10;
        let mut b = MapMetrics::new();
        b.seeds_selected = 2;
        b.hits = 3;
        b.word_updates = 5;
        a.merge(&b);
        assert_eq!(a.seeds_selected, 3);
        assert_eq!(a.hits, 3);
        assert_eq!(a.word_updates, 15);
        // fields() must cover every struct field: sum through both paths.
        let sum: u64 = a.fields().iter().map(|(_, v)| v).sum();
        assert_eq!(sum, 3 + 3 + 15);
    }

    #[test]
    fn work_units_weighs_stages() {
        let m = MapMetrics {
            fm_extend_ops: 2,
            dp_cells: 3,
            fm_locate_ops: 4,
            word_updates: 5,
            prefilter_words: 6,
            ..MapMetrics::new()
        };
        assert_eq!(m.work_units(24, 2, 96), 2 * 24 + 3 * 2 + 4 * 96 + 5 + 6);
    }

    #[test]
    fn prefilter_counters_merge_and_export() {
        let mut a = MapMetrics::new();
        let b = MapMetrics {
            prefilter_tested: 10,
            prefilter_rejected: 7,
            prefilter_false_accepts: 2,
            prefilter_words: 40,
            ..MapMetrics::new()
        };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.prefilter_tested, 20);
        assert_eq!(a.prefilter_rejected, 14);
        let fields = a.fields();
        assert!(fields.contains(&("prefilter_false_accepts", 4)));
        assert!(fields.contains(&("prefilter_words", 80)));
        assert!(a.to_json_line(1).contains("\"prefilter_rejected\":14"));
    }

    #[test]
    fn set_field_inverts_fields() {
        let src = MapMetrics {
            seeds_selected: 1,
            fm_extend_ops: 2,
            fm_locate_ops: 3,
            candidates_raw: 4,
            candidates_merged: 5,
            dp_cells: 6,
            prefilter_tested: 7,
            prefilter_rejected: 8,
            prefilter_false_accepts: 9,
            prefilter_words: 10,
            verifications: 11,
            word_updates: 12,
            hits: 13,
        };
        let mut dst = MapMetrics::new();
        for (name, value) in src.fields() {
            assert!(dst.set_field(name, value), "unknown field {name}");
        }
        assert_eq!(dst, src);
        assert!(!dst.set_field("no_such_field", 1));
    }

    #[test]
    fn json_line_shape() {
        let m = MapMetrics {
            hits: 2,
            ..MapMetrics::new()
        };
        let line = m.to_json_line(7);
        assert!(line.starts_with("{\"type\":\"read\",\"id\":7,"));
        assert!(line.contains("\"hits\":2"));
        assert!(line.ends_with('}'));
    }
}
