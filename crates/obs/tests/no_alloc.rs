//! Proves the per-read instrumentation is allocation-free.
//!
//! What the mappers do to telemetry per read is stack-only `MapMetrics`
//! arithmetic: construct a record, bump its counters, merge it into
//! another. A counting global allocator asserts that none of it touches
//! the heap — the acceptance bar for threading instrumentation through
//! the mapper.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use repute_obs::MapMetrics;

struct CountingAlloc;

thread_local! {
    // Per thread: the test harness runs tests on sibling threads, and a
    // process-wide counter would charge the test below with the
    // harness's own allocations.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the only
// addition is a store into a `const`-initialised thread-local `Cell`,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn disabled_per_read_instrumentation_never_allocates() {
    let allocs = allocations_during(|| {
        for _ in 0..10_000u64 {
            let mut m = MapMetrics::new();
            m.seeds_selected += 3;
            m.fm_extend_ops += 120;
            m.fm_locate_ops += 40;
            m.candidates_raw += 55;
            m.candidates_merged += 12;
            m.dp_cells += 900;
            m.prefilter_tested += 12;
            m.prefilter_rejected += 7;
            m.prefilter_false_accepts += 1;
            m.prefilter_words += 300;
            m.verifications += 5;
            m.word_updates += 1_400;
            m.hits += 1;
            let mut pair_total = MapMetrics::new();
            pair_total.merge(black_box(&m));
            black_box(&pair_total);
        }
    });
    assert_eq!(allocs, 0, "per-read metrics arithmetic allocated");
}
