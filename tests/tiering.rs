//! Profile-guided tiering integration tests: the deterministic manual
//! actuation path (two identically configured runs reproduce the same
//! samples, histograms, and migration decisions), the streaming
//! auto-actuation path (the `HotPageTracker` sink migrates mid-run), and
//! the streaming==post-hoc sink equivalence with migrations active.
use std::sync::Arc;

use nmo_repro::arch_sim::{Machine, MachineConfig, PlacementPolicy};
use nmo_repro::nmo::tiering::{AppliedMigration, HotPageTracker, NoMigration, TopKHot};
use nmo_repro::nmo::{
    AnalysisReport, AnalysisSink, BackpressurePolicy, BatchPayload, LatencyProfile, LatencySink,
    NmoConfig, NmoError, Profile, ProfileSession, SampleBatch, SampleLogSink, StreamOptions,
    Window,
};

fn tiered_session(local_fraction: f64, threads: usize, window_ns: u64) -> ProfileSession {
    ProfileSession::builder()
        .machine_config(MachineConfig::small_test_tiered(PlacementPolicy::TierSplit {
            local_fraction,
        }))
        .config(NmoConfig {
            // Publish SPE records every few KiB so samples reach the
            // pipeline (and the tracker) with bounded lag.
            aux_watermark_bytes: Some(4096),
            ..NmoConfig::paper_default(64)
        })
        .threads(threads)
        .sink(LatencySink::default())
        .sink(SampleLogSink::new())
        .stream_options(StreamOptions {
            window_ns,
            backpressure: BackpressurePolicy::Block,
            ..StreamOptions::default()
        })
        .build()
        .expect("session builds")
}

/// One deterministic tiered run: a single-threaded skewed workload driven
/// in chunks, with `ActiveSession::tiering_step` actuating a `TopKHot`
/// tracker between the chunks. Everything that matters — drains, window
/// closes, decisions, migrations — happens at fixed points of the
/// *simulated* timeline.
fn deterministic_run(chunks: usize) -> (Profile, Vec<AppliedMigration>) {
    let session = tiered_session(0.25, 1, 200_000);
    let mut active = session.start().expect("start");
    let mut tracker = HotPageTracker::new(TopKHot::new(4, 1));
    let page = active.machine().config().page_bytes;
    let region = active.machine().alloc("data", 64 * page).expect("alloc");
    let mut applied = Vec::new();
    for _ in 0..chunks {
        {
            let mut e = active.machine().attach(0).expect("attach");
            for i in 0..30_000u64 {
                // Hot set: the first 8 pages, cycled densely. Cold set: a
                // stream over the remaining 56 pages.
                let hot = (i % 8) * page + (i % 64) * 8;
                e.load(region.start + hot, 8);
                let cold = 8 * page + (i * 64) % (56 * page);
                e.load(region.start + cold, 8);
            }
        }
        // The engine drop above flushed and published every buffered SPE
        // record, and each was decoded into the backend's store as it was
        // published — so the step observes the complete,
        // wall-clock-independent prefix of the sample stream.
        applied.extend(active.tiering_step(&mut tracker).expect("tiering step"));
    }
    let profile = active.finish().expect("finish");
    (profile, applied)
}

#[test]
fn tiering_runs_are_deterministic_end_to_end() {
    let (p1, a1) = deterministic_run(4);
    let (p2, a2) = deterministic_run(4);

    // Identical sample counts...
    assert_eq!(p1.processed_samples, p2.processed_samples);
    let samples = p1.samples().expect("sample log");
    assert_eq!(samples.len() as u64, p1.processed_samples);
    assert_eq!(Some(samples), p2.samples());
    assert_eq!(p1.counters.mem_access, p2.counters.mem_access);
    assert_eq!(p1.counters.cycles, p2.counters.cycles, "whole simulated timeline pinned");
    // ...identical per-tier latency histograms, over every step's samples
    // (the registered sink is fed by each `tiering_step`, not only by the
    // tail `finish` delivers)...
    assert_eq!(p1.latency(), p2.latency());
    assert_eq!(p1.latency(), Some(&LatencyProfile::from_samples(samples)));
    // ...and identical migration decisions, in order.
    assert_eq!(a1, a2);
    assert!(!a1.is_empty(), "the policy migrated at least once");
    assert_eq!(p1.migrations, p2.migrations);
    assert_eq!(p1.migrations.migrations, a1.len() as u64);
    assert!(p1.migrations.promoted_pages > 0, "{:?}", p1.migrations);
}

#[test]
fn manual_actuation_promotes_hot_pages_and_cuts_remote_latency() {
    let (profile, applied) = deterministic_run(4);
    // TierSplit(0.25) homes 3/4 of the pages remotely; the hot set is hit
    // thousands of times per chunk, so TopKHot promotes it.
    assert!(applied.iter().all(|m| m.is_promotion()));
    let page = MachineConfig::small_test().page_bytes;
    assert_eq!(profile.migrations.promoted_bytes, applied.len() as u64 * page);
    // Promoted pages are served locally afterwards: the local-DRAM share
    // of samples is substantial even though only 1/4 of pages started local.
    let latency = profile.latency().expect("latency sink");
    assert!(latency.local_dram().count() > 0);
    assert!(latency.remote_dram().count() > 0);
    // Migration counts surface in the summary line.
    let summary = profile.summary();
    assert!(summary.contains("page migrations"), "{summary}");
}

#[test]
fn tiering_step_is_rejected_on_streaming_sessions() {
    let active = tiered_session(0.5, 1, 100_000).start_streaming().expect("start");
    let mut tracker = HotPageTracker::new(NoMigration);
    let err = {
        let mut active = active;
        let result = active.tiering_step(&mut tracker);
        let err = result.expect_err("streaming sessions refuse the manual actuator");
        drop(active.finish());
        err
    };
    assert!(matches!(err, NmoError::Config(_)), "{err}");
}

/// Counts the SPE batches it is fed, and those among them that land in a
/// window at or below the newest window closed before them.
struct LateBatchCounter {
    newest_close: Option<u64>,
    /// `(late, all)` SPE batches.
    counts: Arc<parking_lot::Mutex<(u64, u64)>>,
}

impl AnalysisSink for LateBatchCounter {
    fn name(&self) -> &'static str {
        "late-batch-counter"
    }

    fn analyze(&mut self, _m: &Machine, _p: &Profile) -> Result<AnalysisReport, NmoError> {
        Ok(AnalysisReport::Text(String::new()))
    }

    fn on_batch(&mut self, batch: &SampleBatch) {
        if let BatchPayload::SpeSamples { .. } = batch.payload() {
            let mut counts = self.counts.lock();
            counts.0 += u64::from(self.newest_close.is_some_and(|c| batch.window.index <= c));
            counts.1 += 1;
        }
    }

    fn on_window_close(&mut self, window: Window) {
        self.newest_close = self.newest_close.max(Some(window.index));
    }
}

/// A thread-less session closes a window only once every core has passed
/// it. Two cores attached one after the other on the caller's thread drift
/// apart in simulated time — core 0 runs a fixed chunk, core 1 a growing
/// one — and `tiering_step` still delivers no SPE batch into a window it
/// has already closed.
#[test]
fn a_two_core_tiering_step_delivers_no_batch_into_a_closed_window() {
    let counts = Arc::new(parking_lot::Mutex::new((0, 0)));
    let session = ProfileSession::builder()
        .machine_config(MachineConfig::small_test())
        .config(NmoConfig { aux_watermark_bytes: Some(4096), ..NmoConfig::paper_default(64) })
        .threads(2)
        .sink(LateBatchCounter { newest_close: None, counts: counts.clone() })
        .stream_options(StreamOptions { window_ns: 20_000, ..StreamOptions::default() })
        .build()
        .expect("session builds");
    let mut active = session.start().expect("start");
    let mut tracker = HotPageTracker::new(NoMigration);
    let page = active.machine().config().page_bytes;
    let region = active.machine().alloc("data", 64 * page).expect("alloc");
    for chunk in 0..4u64 {
        for (core, loads) in [(0, 40_000), (1, 10_000 * (chunk + 1))] {
            let mut e = active.machine().attach(core).expect("attach");
            for i in 0..loads {
                e.load(region.start + (i * 64) % (64 * page), 8);
            }
        }
        active.tiering_step(&mut tracker).expect("tiering step");
    }
    active.finish().expect("finish");
    let (late, batches) = *counts.lock();
    assert!(batches > 0, "SPE batches were delivered");
    assert_eq!(late, 0, "{late} of {batches} SPE batches landed in a closed window");
}

/// The streaming path: a `HotPageTracker` registered as a sink applies
/// migrations mid-run from the consumer thread, the live snapshot carries
/// the migration counters, and the sinks' incremental aggregation still
/// equals a post-hoc scan over the same run's samples — streaming==post-hoc
/// equivalence is preserved with migrations active.
#[test]
fn streaming_tiering_migrates_and_preserves_sink_equivalence() {
    let session = ProfileSession::builder()
        .machine_config(MachineConfig::small_test_tiered(PlacementPolicy::TierSplit {
            local_fraction: 0.1,
        }))
        .config(NmoConfig { aux_watermark_bytes: Some(4096), ..NmoConfig::paper_default(64) })
        .threads(2)
        .sink(LatencySink::default())
        .sink(SampleLogSink::new())
        .sink(HotPageTracker::new(TopKHot::new(8, 1)))
        .stream_options(StreamOptions {
            window_ns: 100_000,
            backpressure: BackpressurePolicy::Block,
            ..StreamOptions::default()
        })
        .build()
        .expect("session builds");

    let active = session.start_streaming().expect("start streaming");
    let page = active.machine().config().page_bytes;
    let region = active.machine().alloc("data", 64 * page).expect("alloc");
    std::thread::scope(|s| {
        for (t, &core) in active.cores().iter().enumerate() {
            let machine = active.machine();
            let region = region.clone();
            s.spawn(move || {
                let mut e = machine.attach(core).expect("attach");
                let base = region.start + t as u64 * 32 * page;
                for i in 0..150_000u64 {
                    let hot = (i % 4) * page + (i % 64) * 8;
                    e.load(base + hot, 8);
                    let cold = 4 * page + (i * 64) % (28 * page);
                    e.load(base + cold, 8);
                }
            });
        }
    });
    let snapshot = active.poll_snapshot().expect("streaming snapshot");
    let profile = active.finish().expect("finish");

    // Migrations happened and are visible everywhere they should be.
    assert!(profile.migrations.migrations > 0, "{:?}", profile.migrations);
    assert!(profile.migrations.promoted_pages > 0);
    let tiering = profile.tiering().expect("tracker report cached on the profile");
    assert_eq!(tiering.migrations(), profile.migrations.migrations);
    assert_eq!(tiering.policy, "top-k-hot");
    assert!(tiering.before.total_count() > 0);
    assert!(
        snapshot.migrations.migrations <= profile.migrations.migrations,
        "snapshot counters are a prefix of the final ones"
    );
    assert!(profile.summary().contains("page migrations"), "{}", profile.summary());

    // Streaming==post-hoc with migrations active: the latency sink's
    // incrementally merged histograms equal a post-hoc scan of the
    // run's complete sample record.
    let streamed = profile.latency().expect("latency sink");
    assert!(!streamed.is_empty());
    let samples = profile.samples().expect("sample log");
    assert_eq!(samples.len() as u64, profile.processed_samples);
    assert_eq!(*streamed, LatencyProfile::from_samples(samples));
    // The tracker observed the same stream: before+after together cover
    // every sample the latency sink saw.
    assert_eq!(tiering.before.total_count() + tiering.after.total_count(), streamed.total_count());

    // CSV reports grow the migration files.
    let dir = std::env::temp_dir().join(format!("nmo_tiering_test_{}", std::process::id()));
    let written = profile.write_csv_reports(&dir).expect("write csv");
    assert!(written.iter().any(|f| f.ends_with("_migrations.csv")), "{written:?}");
    assert!(written.iter().any(|f| f.ends_with("_tiering.csv")), "{written:?}");
    let tiering_csv =
        std::fs::read_to_string(written.iter().find(|f| f.ends_with("_tiering.csv")).unwrap())
            .expect("read tiering csv");
    assert!(tiering_csv.contains("migrations"), "{tiering_csv}");
    assert!(tiering_csv.contains("remote_dram_p99_before"), "{tiering_csv}");
    std::fs::remove_dir_all(&dir).ok();
}
