//! Regression corpus of adversarial windows — long homopolymers,
//! tandem repeats, low-complexity reads — checked in at
//! `tests/corpus/adversarial.txt` and shared with the bench ablation
//! binary. Two invariants: every oracle-verifiable entry passes both
//! filters (zero false negatives even on pathological sequence), and
//! the SHD filter keeps nonzero rejection power over the corpus (the
//! CI canary against the filter silently degenerating to a no-op).

use repute_align::verify;
use repute_prefilter::{Candidate, PreFilter, QgramBins, QgramFilter, ShdFilter};

mod common;
use common::{entries, Entry};

/// Lays the corpus windows head-to-tail into one synthetic reference
/// so the q-gram bins see them as reference regions, returning the
/// bins and each window's start offset.
fn corpus_bins(entries: &[Entry]) -> (QgramBins, Vec<usize>) {
    let mut reference = Vec::new();
    let mut offsets = Vec::with_capacity(entries.len());
    for e in entries {
        offsets.push(reference.len());
        reference.extend_from_slice(&e.window);
    }
    // Narrow bins keep neighbouring corpus windows from leaking grams
    // into each other's bin ranges.
    (QgramBins::build(&reference, 5, 64), offsets)
}

#[test]
fn corpus_parses_and_exercises_both_oracle_outcomes() {
    let entries = entries();
    assert!(entries.len() >= 20, "corpus shrank to {}", entries.len());
    let verifiable = entries
        .iter()
        .filter(|e| verify(&e.read, &e.window, e.delta).is_some())
        .count();
    let rejected = entries.len() - verifiable;
    assert!(verifiable >= 5, "only {verifiable} verifiable entries");
    assert!(rejected >= 5, "only {rejected} unverifiable entries");
    // The planted entries must actually verify, or the zero-FN checks
    // below would pass vacuously.
    for e in &entries {
        if e.name.starts_with("planted-") || e.name.ends_with("-true-positive") {
            assert!(
                verify(&e.read, &e.window, e.delta).is_some(),
                "corpus entry {} no longer verifies",
                e.name
            );
        }
    }
}

#[test]
fn corpus_has_zero_false_negatives() {
    let entries = entries();
    let (bins, offsets) = corpus_bins(&entries);
    let shd = ShdFilter::new();
    let qgram = QgramFilter::new(&bins);
    for (e, &start) in entries.iter().zip(&offsets) {
        if verify(&e.read, &e.window, e.delta).is_none() {
            continue;
        }
        assert!(
            shd.examine_codes(&e.read, &e.window, e.delta).accept,
            "SHD false negative on corpus entry {}",
            e.name
        );
        let candidate = Candidate {
            read: &e.read,
            window: &e.window,
            window_start: start,
            delta: e.delta,
        };
        assert!(
            qgram.examine(&candidate).accept,
            "q-gram false negative on corpus entry {}",
            e.name
        );
    }
}

#[test]
fn shd_rejection_rate_on_corpus_is_nonzero() {
    let entries = entries();
    let shd = ShdFilter::new();
    let mut negatives = 0u32;
    let mut rejected = 0u32;
    for e in &entries {
        if verify(&e.read, &e.window, e.delta).is_some() {
            continue;
        }
        negatives += 1;
        if !shd.examine_codes(&e.read, &e.window, e.delta).accept {
            rejected += 1;
        }
    }
    assert!(
        rejected > 0,
        "SHD rejected 0 of {negatives} adversarial negatives — the filter \
         has silently become a no-op"
    );
}

#[test]
fn qgram_rejection_rate_on_corpus_is_nonzero() {
    let entries = entries();
    let (bins, offsets) = corpus_bins(&entries);
    let qgram = QgramFilter::new(&bins);
    let mut rejected = 0u32;
    for (e, &start) in entries.iter().zip(&offsets) {
        if verify(&e.read, &e.window, e.delta).is_some() {
            continue;
        }
        let candidate = Candidate {
            read: &e.read,
            window: &e.window,
            window_start: start,
            delta: e.delta,
        };
        if !qgram.examine(&candidate).accept {
            rejected += 1;
        }
    }
    assert!(rejected > 0, "q-gram filter rejected nothing on the corpus");
}
