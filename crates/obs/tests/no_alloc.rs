//! Proves the disabled-telemetry path is allocation-free.
//!
//! The per-read hot path with metrics off consists of stack-only
//! `MapMetrics` arithmetic plus virtual calls into [`NoopSink`]. A
//! counting global allocator asserts that none of it touches the heap —
//! the acceptance bar for threading instrumentation through the mapper.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use repute_obs::{Counter, Histogram, MapMetrics, MetricsSink, NoopSink};

struct CountingAlloc;

thread_local! {
    // Per thread: the test harness runs the two tests below on sibling
    // threads, and a process-wide counter would charge each with the
    // other's (and the harness's own) allocations.
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
    let sink: &dyn MetricsSink = &NoopSink;
    let allocs = allocations_during(|| {
        for read_id in 0..10_000u64 {
            // The exact operations the mapper core performs per read when
            // telemetry is threaded through but disabled.
            let mut m = MapMetrics::new();
            m.seeds_selected += 3;
            m.fm_extend_ops += 120;
            m.fm_locate_ops += 40;
            m.candidates_raw += 55;
            m.candidates_merged += 12;
            m.dp_cells += 900;
            m.verifications += 12;
            m.word_updates += 1_400;
            m.hits += 1;
            let mut pair_total = MapMetrics::new();
            pair_total.merge(black_box(&m));
            if sink.enabled() {
                sink.record_read(read_id, &pair_total);
            }
            sink.add("reads", 1);
            sink.observe("hits_per_read", pair_total.hits);
            black_box(&pair_total);
        }
    });
    assert_eq!(allocs, 0, "disabled metrics path allocated");
}

#[test]
fn counter_and_histogram_recording_never_allocates() {
    let mut counter = Counter::new();
    let mut hist = Histogram::new();
    let allocs = allocations_during(|| {
        for v in 0..10_000u64 {
            counter.increment();
            hist.record(black_box(v * 37));
        }
    });
    assert_eq!(allocs, 0, "counter/histogram recording allocated");
    assert_eq!(counter.get(), 10_000);
    assert_eq!(hist.count(), 10_000);
}
