//! The heap `repute map --index` needs: the index loaded in place, at a
//! few bytes per base of reference, and nothing that grows with the read
//! count, checkpointed or not — but for the charge per read that a
//! `--platform` run keeps to price the run and split its report at the
//! end.
//!
//! A counting global allocator tracks the bytes live and the most ever
//! live at once (the same allocator as `tests/index_memory.rs`). The
//! counters are process-wide, which is why this file holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use repute_cli::{run_map, MapOptions};
use repute_core::ReadCharge;
use repute_genome::fastq::{write_fastq, FastqRecord};
use repute_genome::reads::{ErrorProfile, ReadSimulator};
use repute_genome::synth::ReferenceBuilder;
use repute_index::FmIndex;
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

/// A directory of this process's own under the system temp dir, removed
/// on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        let dir = std::env::temp_dir().join(format!("repute-map-memory-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        TempDir(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `repute map --index <index> --reads <reads> --output <out>`, on
/// `platform` when one is named and checkpointed to `checkpoint` when one
/// is, with the most bytes live at once during the run.
fn map_peak(
    index: &str,
    reads: &str,
    out: &str,
    platform: Option<&str>,
    checkpoint: Option<&str>,
) -> usize {
    let opts = MapOptions {
        index: Some(index.into()),
        reads: reads.into(),
        output: Some(out.into()),
        platform: platform.map(String::from),
        checkpoint: checkpoint.map(String::from),
        ..MapOptions::default()
    };
    let (result, peak) = peak_heap_during(|| run_map(&opts));
    let (mapped, _) = result.expect("repute map");
    assert!(mapped > 0);
    peak
}

#[test]
fn index_loads_in_place_and_map_memory_does_not_grow_with_reads() {
    const LEN: usize = 1_000_000;
    let dir = TempDir::new();
    let reference = ReferenceBuilder::new(LEN).seed(2903).build();
    let reads = ReadSimulator::new(100, 50)
        .profile(ErrorProfile::err012100())
        .seed(2904)
        .simulate(&reference);
    let set = ReferenceSet::build(vec![("chrM".to_string(), reference)]);
    let mut bytes = Vec::new();
    set.write_to(&mut bytes).expect("serialise");
    drop(set);
    let index = dir.path("ref.rpx");
    std::fs::write(&index, &bytes).expect("index written");

    // The load: every array filled in place from the stream.
    let before = LIVE.load(Relaxed);
    let (set, load_peak) = peak_heap_during(|| ReferenceSet::read_from(bytes.as_slice()));
    let set = set.expect("index loads");
    let settled = LIVE.load(Relaxed) - before;
    assert_eq!(set.indexed().len(), LEN);
    drop((set, bytes));
    let per_base = |bytes: usize| bytes as f64 / LEN as f64;
    eprintln!(
        "ReferenceSet::read_from: peak {:.2}, settled {:.2} heap bytes per base",
        per_base(load_peak),
        per_base(settled)
    );
    assert!(
        per_base(load_peak) <= 1.9,
        "ReferenceSet::read_from peaks at {:.2} B/base",
        per_base(load_peak)
    );

    // The map: the same 50 reads ten times over, then a hundred times,
    // plain, checkpointed and under `--platform system1`.
    let (mut peaks, mut checkpoint_peaks, mut platform_peaks) =
        (Vec::new(), Vec::new(), Vec::new());
    for copies in [10, 100] {
        let records: Vec<FastqRecord> = (0..copies)
            .flat_map(|copy| {
                reads.iter().map(move |r| {
                    FastqRecord::with_uniform_quality(format!("{copy}.{}", r.id), r.seq.clone(), 30)
                })
            })
            .collect();
        let mut fastq = Vec::new();
        write_fastq(&mut fastq, &records).expect("fastq");
        let reads_path = dir.path(&format!("reads{copies}.fq"));
        std::fs::write(&reads_path, fastq).expect("reads written");
        drop(records);
        let out = dir.path(&format!("out{copies}.sam"));
        peaks.push(map_peak(&index, &reads_path, &out, None, None));
        assert!(!Path::new(&format!("{out}.tmp")).exists());
        let checkpointed = dir.path(&format!("checkpointed{copies}.sam"));
        let checkpoint = dir.path(&format!("run{copies}.ckpt"));
        checkpoint_peaks.push(map_peak(
            &index,
            &reads_path,
            &checkpointed,
            None,
            Some(&checkpoint),
        ));
        assert_eq!(
            std::fs::read(&out).expect("plain SAM"),
            std::fs::read(&checkpointed).expect("checkpointed SAM")
        );
        let priced = dir.path(&format!("priced{copies}.sam"));
        platform_peaks.push(map_peak(
            &index,
            &reads_path,
            &priced,
            Some("system1"),
            None,
        ));
        assert_eq!(
            std::fs::read(&out).expect("plain SAM"),
            std::fs::read(&priced).expect("priced SAM")
        );
    }
    eprintln!(
        "repute map --index: peak {} heap bytes over 500 reads, {} over 5 000",
        peaks[0], peaks[1]
    );
    assert!(
        peaks[0].abs_diff(peaks[1]) <= 64 << 10,
        "peak heap grew with the read count: {peaks:?}"
    );
    eprintln!(
        "repute map --index --checkpoint: peak {} heap bytes over 500 reads, {} over 5 000",
        checkpoint_peaks[0], checkpoint_peaks[1]
    );
    assert!(
        checkpoint_peaks[0].abs_diff(checkpoint_peaks[1]) <= 64 << 10,
        "checkpointed peak heap grew with the read count: {checkpoint_peaks:?}"
    );
    // A `--platform` run keeps a `ReadCharge` per read and nothing else:
    // 4 500 more reads may add those, three times over for a `Vec`'s
    // doubling, which the allocator above counts as a fresh block beside
    // the old one.
    let kept = 3 * 4_500 * std::mem::size_of::<ReadCharge>();
    eprintln!(
        "repute map --index --platform system1: peak {} heap bytes over 500 reads, {} over \
         5 000 (growth bound {kept})",
        platform_peaks[0], platform_peaks[1]
    );
    assert!(
        platform_peaks[1].saturating_sub(platform_peaks[0]) <= kept,
        "--platform peak heap grew by more than the per-read records: {platform_peaks:?}"
    );

    // A forged FM header claiming 4 G rows, then 1 KiB of body: a typed
    // error, and memory for what arrived, not for what was claimed.
    let rows = u64::from(u32::MAX);
    let mut forged = b"RPFM".to_vec();
    forged.extend_from_slice(&3u16.to_le_bytes());
    forged.extend_from_slice(&8u32.to_le_bytes());
    for field in [rows - 1, rows, 0, 0] {
        forged.extend_from_slice(&field.to_le_bytes());
    }
    forged.extend(std::iter::repeat_n(0u8, 1024));
    let (result, forged_peak) = peak_heap_during(|| FmIndex::read_from(forged.as_slice()));
    let err = result.expect_err("truncated stream");
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err}");
    eprintln!("forged 4 G-row header: peak {forged_peak} heap bytes");
    assert!(
        forged_peak < 1 << 20,
        "{forged_peak} bytes for a forged header"
    );
}
