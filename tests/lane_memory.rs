//! What a bus lane holds is bounded in bytes, whatever the batch size.
//!
//! A counting global allocator tracks the live heap of this test binary
//! (one test, so nothing else allocates beside it). A one-shard `Block`
//! session is fed by a backend that emits batches of one fixed size, into a
//! sink that blocks on its first batch until the lane is full: the consumer
//! holds one chunk, the lane fills to its bound and the pump parks. The
//! peak live heap over the whole run must stay within one lane bound plus
//! one consumer chunk of samples, plus a stated constant, for small and for
//! large batches alike. A lane bounded at 1 024 batches instead holds 8×
//! as much at 512 samples a batch as at 64.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use nmo_repro::arch_sim::{DataSource, Machine, MachineConfig};
use nmo_repro::nmo::stream::StreamSource;
use nmo_repro::nmo::{
    AddressSample, AnalysisReport, AnalysisSink, BackpressurePolicy, BatchPayload, BatchPool,
    CoreObserver, NmoConfig, NmoError, Profile, ProfileSession, SampleBackend, SampleBatch,
    StreamOptions, WindowClock,
};

/// The system allocator, with the live byte count and its peak kept.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
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
            grew(new_size);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A lane's bound, in samples: the default [`StreamOptions::bus_capacity`].
const LANE_SAMPLES: usize = 65_536;

/// Samples the backend emits in all: more than any lane here holds.
const TOTAL_SAMPLES: u64 = 1 << 20;

/// Samples one drain emits, as batches of the run's size.
const DRAIN_SAMPLES: usize = 4096;

/// Most events one consumer receive takes off a lane (`RECV_CHUNK` in
/// `stream.rs`).
const RECV_CHUNK: usize = 64;

/// What the run holds besides the samples in the lane and the consumer's
/// chunk: the lane's queue of events, the rest of the drain the parked pump
/// holds, the session's threads and bookkeeping.
const SLACK_BYTES: usize = 1 << 20;

/// One core's samples in batches of `batch_len`, [`DRAIN_SAMPLES`] a drain
/// once `go` is set, all in one window (so no close signal queues beside
/// them).
struct FixedBackend {
    batch_len: usize,
    go: Arc<AtomicBool>,
    emitted: Arc<AtomicU64>,
}

impl SampleBackend for FixedBackend {
    fn name(&self) -> &'static str {
        "spe"
    }

    fn start(
        &mut self,
        _machine: &Machine,
        _cores: &[usize],
        _config: &NmoConfig,
    ) -> Result<Vec<CoreObserver>, NmoError> {
        Ok(Vec::new())
    }

    fn drain(
        &mut self,
        _machine: &Machine,
        clock: &WindowClock,
        pool: &BatchPool,
    ) -> Result<Vec<SampleBatch>, NmoError> {
        let mut batches = Vec::new();
        while self.go.load(Ordering::SeqCst) && batches.len() < DRAIN_SAMPLES / self.batch_len {
            let first = self.emitted.load(Ordering::SeqCst);
            if first >= TOTAL_SAMPLES {
                break;
            }
            let mut samples = pool.samples();
            samples.extend((first..first + self.batch_len as u64).map(|i| AddressSample {
                time_ns: i,
                vaddr: 0x1000_0000 + i * 64,
                core: 0,
                is_store: i % 3 == 0,
                latency: 4,
                source: DataSource::L1,
            }));
            self.emitted.fetch_add(self.batch_len as u64, Ordering::SeqCst);
            let payload = BatchPayload::SpeSamples { samples, loss: Default::default() };
            batches.push(SampleBatch::new("spe", Some(0), clock.window(0), payload));
        }
        Ok(batches)
    }

    fn stream_sources(&self) -> Vec<StreamSource> {
        vec![("spe", Some(0))]
    }

    fn stop(&mut self, _machine: &Machine) -> Result<(), NmoError> {
        Ok(())
    }

    fn fill(&mut self, profile: &mut Profile) -> Result<(), NmoError> {
        profile.processed_samples = self.emitted.load(Ordering::SeqCst);
        Ok(())
    }
}

/// Counts the samples it is fed, each batch only once the gate is open.
struct GatedSink {
    gate: Arc<(Mutex<bool>, Condvar)>,
    seen: Arc<AtomicU64>,
}

impl AnalysisSink for GatedSink {
    fn name(&self) -> &'static str {
        "gated"
    }

    fn analyze(
        &mut self,
        _machine: &Machine,
        _profile: &Profile,
    ) -> Result<AnalysisReport, NmoError> {
        Ok(AnalysisReport::Text(String::new()))
    }

    fn on_batch(&mut self, batch: &SampleBatch) {
        let (open, opened) = &*self.gate;
        let mut open = open.lock();
        while !*open {
            opened.wait_until(&mut open, Instant::now() + Duration::from_secs(1));
        }
        self.seen.fetch_add(batch.len() as u64, Ordering::SeqCst);
    }
}

/// Run the gated session with `batch_len`-sample batches and return the
/// peak live heap above the started session, in bytes.
fn peak_heap_above_start(batch_len: usize) -> usize {
    let go = Arc::new(AtomicBool::new(false));
    let emitted = Arc::new(AtomicU64::new(0));
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let seen = Arc::new(AtomicU64::new(0));
    let active = ProfileSession::builder()
        .machine_config(MachineConfig::small_test())
        .threads(1)
        .no_default_backends()
        .backend(FixedBackend { batch_len, go: go.clone(), emitted: emitted.clone() })
        .sink(GatedSink { gate: gate.clone(), seen: seen.clone() })
        .stream_options(StreamOptions {
            window_ns: 1 << 40,
            shards: 1,
            backpressure: BackpressurePolicy::Block,
            ..StreamOptions::default()
        })
        .build()
        .expect("session builds")
        .start_streaming()
        .expect("start streaming");

    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    go.store(true, Ordering::SeqCst);

    // The lane is full once the next batch no longer fits: the pump parks
    // on it and publishes nothing more until the sink lets go.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let lane = active.poll_snapshot().expect("a streaming session").bus;
        if lane.queued + batch_len as u64 > lane.capacity {
            break;
        }
        assert!(Instant::now() < deadline, "the lane never filled: {lane:?}");
        std::thread::yield_now();
    }
    assert!(emitted.load(Ordering::SeqCst) < TOTAL_SAMPLES, "the backend ran dry first");

    *gate.0.lock() = true;
    gate.1.notify_all();
    while emitted.load(Ordering::SeqCst) < TOTAL_SAMPLES {
        assert!(Instant::now() < deadline, "the backend never ran dry");
        std::thread::yield_now();
    }
    let profile = active.finish().expect("finish");
    let stream = profile.stream.expect("stream stats");
    assert_eq!(stream.batches_dropped, 0, "{stream:?}");
    assert_eq!(seen.load(Ordering::SeqCst), TOTAL_SAMPLES, "every sample reached the sink");
    assert_eq!(profile.processed_samples, TOTAL_SAMPLES);
    assert!(stream.bus_high_watermark <= LANE_SAMPLES as u64, "{stream:?}");
    PEAK.load(Ordering::SeqCst) - base
}

#[test]
fn a_full_lane_holds_the_same_bytes_for_small_and_large_batches() {
    assert_eq!(StreamOptions::default().bus_capacity, LANE_SAMPLES);
    let sample = std::mem::size_of::<AddressSample>();
    for batch_len in [64, 512] {
        let chunk = RECV_CHUNK * batch_len;
        let limit = (LANE_SAMPLES + chunk) * sample + SLACK_BYTES;
        let peak = peak_heap_above_start(batch_len);
        assert!(
            peak <= limit,
            "{batch_len}-sample batches: peak live heap {peak} B above the started session, \
             limit {limit} B (a lane of {LANE_SAMPLES} samples, a chunk of {chunk}, \
             {SLACK_BYTES} B besides)"
        );
        // The lane did fill: it held all but the last batch's room.
        let filled = (LANE_SAMPLES - batch_len) * sample;
        assert!(peak >= filled, "{batch_len}-sample batches: {peak} B, a full lane is {filled} B");
        eprintln!(
            "{batch_len}-sample batches: peak live heap {peak} B above start (limit {limit} B)"
        );
    }
}
