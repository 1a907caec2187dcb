//! What a region sink keeps is bounded by the tags' footprint, not by the
//! number of samples it attributed.
//!
//! A counting global allocator tracks the live heap of this test binary
//! (one test, so nothing else allocates beside it). One `RegionSink` shard
//! is fed N samples, window by window with each window closed, and a fresh
//! one 4N samples over the same 64-byte lines, tags and phases. Once the
//! shard has finished and its state is merged into the sink, the live heap
//! it leaves must be the same for both runs, within a stated constant. A
//! sink that kept a scatter point per sample would hold 3N points more
//! after the longer run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use nmo_repro::arch_sim::{DataSource, Machine, MachineConfig};
use nmo_repro::nmo::{
    AddressSample, AnalysisReport, AnalysisSink, Annotations, BatchPayload, NmoConfig, Profile,
    RegionSink, SampleBatch, StreamContext, WindowClock,
};

/// The system allocator, with the live byte count kept.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded to `System` unchanged; the counter only
// observes the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
            LIVE.fetch_add(new_size, Ordering::SeqCst);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Samples of the shorter run; the longer one attributes four times as many.
const N: u64 = 16_384;

/// Samples a window holds: one batch, then its close.
const WINDOW_SAMPLES: u64 = 256;

/// Distinct 64-byte lines every run samples, all inside the tag.
const LINES: u64 = 1024;

const TAG_START: u64 = 0x10_0000;

/// What may differ between the two runs' live heaps. Nothing the sink keeps
/// depends on the sample count, so this is slack, not a budget: at N, 3N
/// more scatter points would be ≈ 3.5 MB.
const SLACK_BYTES: usize = 4096;

fn context() -> StreamContext {
    let annotations = Arc::new(Annotations::new());
    annotations.tag_addr("obj", TAG_START, TAG_START + LINES * 64);
    annotations.tag_addr("elsewhere", 0, 0x1000);
    annotations.start("all", 0);
    annotations.start("first half", 0);
    annotations.stop(N * 2);
    StreamContext {
        annotations,
        capacity_bytes: 1 << 30,
        bucket_ns: 1_000_000,
        mem_nodes: 1,
        page_bytes: 64 * 1024,
        machine: None,
    }
}

/// Feed one shard `samples` samples, window by window, and return the live
/// heap the sink holds once the shard's state is merged, with the sink.
fn live_after_finish(ctx: &StreamContext, samples: u64) -> (usize, RegionSink) {
    let clock = WindowClock::new(WINDOW_SAMPLES);
    let base = LIVE.load(Ordering::SeqCst);
    let mut sink = RegionSink::new();
    sink.on_stream_start(ctx);
    let shardable = sink.as_shardable().expect("RegionSink is shardable");
    let mut shard = shardable.make_shard(0, ctx);
    for window in 0..samples / WINDOW_SAMPLES {
        let first = window * WINDOW_SAMPLES;
        let batch: Vec<AddressSample> = (first..first + WINDOW_SAMPLES)
            .map(|i| AddressSample {
                time_ns: i,
                vaddr: TAG_START + (i % LINES) * 64 + (i % 8) * 8,
                core: 0,
                is_store: i % 3 == 0,
                latency: 4,
                source: DataSource::L1,
            })
            .collect();
        let payload = BatchPayload::SpeSamples { samples: batch, loss: Default::default() };
        shard.on_batch(&SampleBatch::new("spe", Some(0), clock.window(window), payload));
        assert!(shard.on_window_close(clock.window(window)).is_none());
    }
    shardable.merge_final(vec![shard.finish()]);
    (LIVE.load(Ordering::SeqCst) - base, sink)
}

#[test]
fn a_region_sink_holds_the_same_heap_after_n_and_4n_samples() {
    let ctx = context();
    let machine = Machine::new(MachineConfig::small_test());
    let mut profile = Profile::empty("regions", NmoConfig::default());
    profile.tags = ctx.annotations.tags();
    // A first run pays for whatever the process allocates once.
    drop(live_after_finish(&ctx, N));

    let mut live = Vec::new();
    for samples in [N, 4 * N] {
        let (bytes, mut sink) = live_after_finish(&ctx, samples);
        let AnalysisReport::Regions(regions) = sink.finish(&machine, &profile).expect("report")
        else {
            panic!("a region sink reports regions");
        };
        assert_eq!(regions.total_samples(), samples);
        assert_eq!(regions.per_tag[0].samples, samples, "{regions:?}");
        assert_eq!(regions.per_tag[0].coverage, 1.0, "{regions:?}");
        // A sample goes to the phase registered last of those open at its
        // time: `first half` until 2N, `all` after.
        let phase = |name: &str| regions.per_phase.iter().find(|p| p.0 == name).map_or(0, |p| p.1);
        assert_eq!(
            (phase("first half"), phase("all")),
            (samples.min(2 * N), samples.saturating_sub(2 * N))
        );
        eprintln!("{samples} samples: {bytes} B live after finish");
        live.push(bytes);
    }
    assert!(
        live[1].abs_diff(live[0]) <= SLACK_BYTES,
        "live heap after finish: {} B at {N} samples, {} B at {} (limit {SLACK_BYTES} B apart)",
        live[0],
        live[1],
        4 * N
    );
}
