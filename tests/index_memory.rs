//! The heap an index build needs, and the FM-index a mapper keeps, per
//! base of reference.
//!
//! A counting global allocator tracks the bytes live and the most ever
//! live at once. The paper's embedded target has 6 GB for a 40 Mbp
//! chromosome, so the suffix sort and the whole `ReferenceSet` build are
//! held to a few bytes per base above what was live when they started,
//! and the FM-index a loaded index holds to under a byte and a half.
//! The counters are process-wide (an index build may free on another
//! thread than it allocated on), which is why this file holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use repute_genome::synth::ReferenceBuilder;
use repute_index::SuffixArray;
use repute_mappers::multiref::ReferenceSet;

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the only
// additions are atomic counter updates, which neither allocate nor
// unwind.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as a fresh block beside the old one: `System` may copy.
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Runs `f` and returns its result with the most bytes that were live at
/// once meanwhile, less those live when it started.
fn peak_heap_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed) - before)
}

#[test]
fn suffix_sort_and_reference_set_build_fit_in_a_few_bytes_per_base() {
    const LEN: usize = 1_000_000;
    let reference = ReferenceBuilder::new(LEN).seed(2711).build();
    let codes = reference.to_codes();
    let (sa, sa_peak) = peak_heap_during(|| SuffixArray::from_codes(&codes));
    assert_eq!(sa.len(), LEN);
    drop((sa, codes));
    let (set, set_peak) =
        peak_heap_during(|| ReferenceSet::build(vec![("chrM".to_string(), reference)]));
    assert_eq!(set.indexed().seq().len(), LEN);

    let per_base = |bytes: usize| bytes as f64 / LEN as f64;
    let (sa_bytes, set_bytes) = (per_base(sa_peak), per_base(set_peak));
    eprintln!("peak heap per base: suffix sort {sa_bytes:.2}, reference set {set_bytes:.2}");
    assert!(sa_bytes <= 7.0, "suffix sort peaks at {sa_bytes:.2} B/base");
    assert!(
        set_bytes <= 10.0,
        "ReferenceSet::build peaks at {set_bytes:.2} B/base"
    );

    // What `repute map --index` keeps: a third of a byte a base of rank
    // blocks, the sample marks, the k-mer table, and the SA samples
    // packed at 17 bits each.
    let mut bytes = Vec::new();
    set.write_to(&mut bytes).expect("write");
    drop(set);
    let loaded = ReferenceSet::read_from(bytes.as_slice()).expect("read back");
    let fm_bytes = per_base(loaded.indexed().fm().footprint().total());
    eprintln!("loaded FM-index per base: {fm_bytes:.3}");
    assert!(
        fm_bytes <= 1.35,
        "the loaded FM-index holds {fm_bytes:.3} B/base"
    );
}
