//! Mapping-run summary statistics.
//!
//! The numbers a user checks first after a run: how many reads mapped,
//! how ambiguous the mappings are, and how the edit distances distribute.
//! Used by the `repute` CLI's end-of-run summary.

use std::fmt;

/// Aggregate statistics over a mapping run, kept read by read.
///
/// # Example
///
/// ```
/// use repute_eval::stats::MappingStats;
///
/// let mut stats = MappingStats::default();
/// stats.add_read([0].into_iter()); // one mapping at distance 0
/// stats.add_read([].into_iter()); // unmapped
/// stats.add_read([2, 2].into_iter()); // two mappings at distance 2
/// assert_eq!(stats.reads, 3);
/// assert_eq!(stats.mapped_reads, 2);
/// assert_eq!(stats.multi_mapped_reads, 1);
/// assert!((stats.mapping_rate() - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MappingStats {
    /// Number of reads processed.
    pub reads: usize,
    /// Reads with at least one mapping.
    pub mapped_reads: usize,
    /// Reads with more than one mapping.
    pub multi_mapped_reads: usize,
    /// Total mapping locations reported.
    pub total_mappings: usize,
    /// `distance_histogram[d]` counts mappings with edit distance `d`.
    pub distance_histogram: Vec<usize>,
}

impl MappingStats {
    /// Adds one read, given the edit distance of each of its mappings —
    /// how a streaming run keeps its statistics without keeping its
    /// mappings.
    pub fn add_read(&mut self, distances: impl ExactSizeIterator<Item = u32>) {
        let mappings = distances.len();
        self.reads += 1;
        self.mapped_reads += usize::from(mappings > 0);
        self.multi_mapped_reads += usize::from(mappings > 1);
        self.total_mappings += mappings;
        for d in distances {
            let d = d as usize;
            if self.distance_histogram.len() <= d {
                self.distance_histogram.resize(d + 1, 0);
            }
            self.distance_histogram[d] += 1;
        }
    }

    /// Fraction of reads with at least one mapping, in `[0, 1]`
    /// (0 when no reads were processed).
    pub fn mapping_rate(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.mapped_reads as f64 / self.reads as f64
        }
    }

    /// Mean mappings per mapped read (0 when nothing mapped).
    pub fn mean_multiplicity(&self) -> f64 {
        if self.mapped_reads == 0 {
            0.0
        } else {
            self.total_mappings as f64 / self.mapped_reads as f64
        }
    }
}

impl fmt::Display for MappingStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "reads: {} | mapped: {} ({:.1}%) | multi-mapped: {} | locations: {} ({:.2}/mapped read)",
            self.reads,
            self.mapped_reads,
            self.mapping_rate() * 100.0,
            self.multi_mapped_reads,
            self.total_mappings,
            self.mean_multiplicity()
        )?;
        if !self.distance_histogram.is_empty() {
            write!(f, "edit distances:")?;
            for (d, count) in self.distance_histogram.iter().enumerate() {
                if *count > 0 {
                    write!(f, " {d}:{count}")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The statistics of reads given as their mappings' distances.
    fn collect(per_read: &[&[u32]]) -> MappingStats {
        let mut stats = MappingStats::default();
        for distances in per_read {
            stats.add_read(distances.iter().copied());
        }
        stats
    }

    #[test]
    fn collects_counts_and_histogram() {
        let stats = collect(&[&[0, 2, 2], &[], &[1], &[5]]);
        assert_eq!(stats.reads, 4);
        assert_eq!(stats.mapped_reads, 3);
        assert_eq!(stats.multi_mapped_reads, 1);
        assert_eq!(stats.total_mappings, 5);
        assert_eq!(stats.distance_histogram, vec![1, 1, 2, 0, 0, 1]);
        assert!((stats.mean_multiplicity() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run() {
        let stats = collect(&[]);
        assert_eq!(stats.reads, 0);
        assert_eq!(stats.mapping_rate(), 0.0);
        assert_eq!(stats.mean_multiplicity(), 0.0);
    }

    #[test]
    fn display_mentions_key_numbers() {
        let stats = collect(&[&[0], &[3]]);
        let text = stats.to_string();
        assert!(text.contains("mapped: 2 (100.0%)"));
        assert!(text.contains("0:1"));
        assert!(text.contains("3:1"));
    }
}
