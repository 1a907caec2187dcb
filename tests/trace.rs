//! Trace store & replay: end-to-end acceptance tests for `nmo::trace`.
//!
//! The contract under test (ISSUE 10 / ROADMAP item 3):
//!
//! * **Replay == live, bit for bit.** A sharded streaming run recorded
//!   through `TraceWriterSink` and replayed — one worker thread per
//!   segment — through fresh `LatencySink` + `HotPageTracker` instances
//!   produces byte-identical reports — same windows, same merge order —
//!   without re-simulating, whatever the workers' timing.
//! * **`replay` == `replay_query(all)`.** `TraceReader::replay` is the
//!   unrestricted query, and the two produce the same reports.
//! * **Slicing prunes, exactly.** A time-window-restricted query reads
//!   fewer blocks than the full replay, and a window-, core- or
//!   address-restricted query (or any composition) feeds exactly the live
//!   samples that satisfy it, whatever width the trace was recorded at.
//! * **Every kind of run records.** A session without pipeline threads
//!   stores what its one fan-in lane delivered at `finish` — RSS and
//!   bandwidth batches too — and replaying that trace
//!   reproduces the run's own capacity/bandwidth/latency reports.
//! * **Damage is an error, not garbage.** Corrupting a stored segment makes
//!   replay fail with `NmoError::Trace` (never a panic, never silently
//!   wrong samples), while `TraceReader::verify` reads on past it and
//!   reports the damage with the bytes it skipped.

use std::fs;
use std::path::{Path, PathBuf};

use nmo_repro::arch_sim::{Machine, MachineConfig, PlacementPolicy};
use nmo_repro::nmo::trace::replay_finish;
use nmo_repro::nmo::{
    AddressSample, AnalysisReport, AnalysisSink, BandwidthSink, CapacitySink, HotPageTracker,
    LatencySink, NmoConfig, NoMigration, Profile, ProfileSession, SampleLogSink, StreamOptions,
    TraceQuery, TraceReader, TraceWriterSink,
};
use nmo_repro::workloads::PageRank;

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nmo_trace_it_{tag}_{}", std::process::id()))
}

/// A PageRank run on the tiered test machine through a `shards`-wide
/// pipeline, recorded to `dir`.
fn recorded_run(dir: &Path, shards: usize) -> Profile {
    ProfileSession::builder()
        .machine_config(MachineConfig::small_test_tiered(PlacementPolicy::TierSplit {
            local_fraction: 0.5,
        }))
        .config(NmoConfig::paper_default(100))
        .threads(4)
        .sink(LatencySink::default())
        .sink(HotPageTracker::new(NoMigration))
        .sink(SampleLogSink::new())
        .trace_dir(dir.to_path_buf())
        .stream_options(StreamOptions { window_ns: 100_000, shards, ..StreamOptions::default() })
        .workload(Box::new(PageRank::new(1 << 10, 8, 2)))
        .build()
        .expect("session builds")
        .run_streaming()
        .expect("recorded streaming run")
}

fn replay_sinks() -> Vec<Box<dyn AnalysisSink>> {
    vec![Box::new(LatencySink::default()), Box::new(HotPageTracker::new(NoMigration))]
}

/// Debug-format the named live report (panics if the run didn't produce it).
fn live_report(profile: &Profile, sink: &str) -> String {
    let rec = profile
        .analyses
        .iter()
        .find(|r| r.sink == sink)
        .unwrap_or_else(|| panic!("live run has no '{sink}' report"));
    format!("{:?}", rec.report)
}

/// Live == replay, at every pipeline width — one shard included: both
/// deliver through the same shard fan-in.
#[test]
fn sequential_replay_is_bit_for_bit_equal_to_the_live_sharded_run() {
    for shards in [1, 2, 4] {
        let dir = tmp(&format!("seq_equiv_{shards}"));
        let profile = recorded_run(&dir, shards);
        let live_latency = live_report(&profile, "latency");
        let live_tiering = live_report(&profile, "tiering");
        assert!(profile.processed_samples > 0);

        let reader = TraceReader::open(&dir).expect("open trace");
        assert_eq!(reader.shards(), shards, "one segment per shard");
        assert_eq!(reader.window_ns(), 100_000, "recorded window geometry");
        let summary = reader.summary();
        assert!(summary.samples > 0 && summary.bytes > 0);

        let mut sinks = replay_sinks();
        let stats = reader.replay(&mut sinks).expect("replay");
        assert_eq!(stats.segments, shards);
        assert!(stats.samples > 0 && stats.windows > 0, "{stats:?}");
        assert_eq!(stats.samples, summary.samples, "replay feeds every stored sample");

        let records = replay_finish(&mut sinks).expect("replay reports");
        assert_eq!(format!("{:?}", records[0].report), live_latency, "latency replay == live");
        assert_eq!(format!("{:?}", records[1].report), live_tiering, "tiering replay == live");
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn indexed_parallel_replay_matches_sequential_replay() {
    for shards in [1, 4] {
        let dir = tmp(&format!("idx_equiv_{shards}"));
        recorded_run(&dir, shards);
        let reader = TraceReader::open(&dir).expect("open trace");

        let mut seq = replay_sinks();
        let seq_stats = reader.replay(&mut seq).expect("replay");
        let seq_records = replay_finish(&mut seq).expect("replay reports");

        let mut idx = replay_sinks();
        let idx_stats = reader.replay_query(&TraceQuery::all(), &mut idx).expect("indexed replay");
        let idx_records = replay_finish(&mut idx).expect("indexed reports");

        assert_eq!(idx_stats.samples, seq_stats.samples);
        assert_eq!(idx_stats.windows, seq_stats.windows);
        for (i, r) in idx_records.iter().enumerate() {
            assert_eq!(
                format!("{:?}", r.report),
                format!("{:?}", seq_records[i].report),
                "indexed replay diverged on '{}' at {shards} shard(s)",
                r.sink
            );
        }
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn window_and_core_sliced_queries_prune_blocks_and_samples() {
    let dir = tmp("sliced");
    recorded_run(&dir, 4);
    let reader = TraceReader::open(&dir).expect("open trace");

    let mut all = replay_sinks();
    let full = reader.replay_query(&TraceQuery::all(), &mut all).expect("full indexed replay");
    assert!(full.windows > 2, "need several windows to slice: {full:?}");

    // First half of the run only: strictly fewer samples and blocks read.
    let half = full.windows / 2;
    let mut sliced = replay_sinks();
    let slice_stats = reader
        .replay_query(&TraceQuery::all().with_windows(0, half - 1), &mut sliced)
        .expect("window-sliced replay");
    assert!(slice_stats.samples < full.samples, "{slice_stats:?} vs {full:?}");
    assert!(slice_stats.blocks < full.blocks, "index must prune whole blocks");
    assert_eq!(slice_stats.windows, half, "exactly the requested windows close");

    // Core slice: only core 0's samples survive (lanes are core-hashed, so
    // the index prunes the other shards' data blocks outright).
    let mut one_core: Vec<Box<dyn AnalysisSink>> = vec![Box::new(LatencySink::default())];
    let core_stats = reader
        .replay_query(&TraceQuery::all().with_cores([0]), &mut one_core)
        .expect("core-sliced replay");
    assert!(core_stats.samples > 0 && core_stats.samples < full.samples);

    // Both slices together compose.
    let mut both: Vec<Box<dyn AnalysisSink>> = vec![Box::new(LatencySink::default())];
    let both_stats = reader
        .replay_query(&TraceQuery::all().with_windows(0, half - 1).with_cores([0]), &mut both)
        .expect("window+core replay");
    assert!(both_stats.samples <= core_stats.samples.min(slice_stats.samples));
    fs::remove_dir_all(&dir).ok();
}

/// The sample log of a replay (`None`) or of a sliced query of `reader`.
fn replayed_log(reader: &TraceReader, query: Option<&TraceQuery>) -> Vec<AddressSample> {
    let mut sinks: Vec<Box<dyn AnalysisSink>> = vec![Box::new(SampleLogSink::new())];
    match query {
        None => reader.replay(&mut sinks).expect("replay"),
        Some(query) => reader.replay_query(query, &mut sinks).expect("indexed replay"),
    };
    match replay_finish(&mut sinks).expect("replay report").remove(0).report {
        AnalysisReport::Samples(samples) => samples,
        other => panic!("expected a sample log, got {other:?}"),
    }
}

/// A sliced query is exact, not just smaller: at every recorded width the
/// replay and the unrestricted query return the live sample log, and each
/// window, core and address slice — alone and composed — returns the live
/// log filtered by the same predicate. (A core slice selects whole
/// batches: an SPE batch is one core's samples in one window.)
#[test]
fn sliced_queries_return_exactly_the_live_samples_they_select() {
    for shards in [1, 2, 4] {
        let dir = tmp(&format!("exact_{shards}"));
        let profile = recorded_run(&dir, shards);
        let live = profile.samples().expect("live sample log");
        assert_eq!(live.len() as u64, profile.processed_samples);
        let reader = TraceReader::open(&dir).expect("open trace");
        assert_eq!(replayed_log(&reader, None), live, "replay, {shards} shard(s)");
        assert_eq!(replayed_log(&reader, Some(&TraceQuery::all())), live, "{shards} shard(s)");

        let last_window = live.last().expect("samples").time_ns / 100_000 / 2;
        let (lo, hi) = {
            let mut vaddrs: Vec<u64> = live.iter().map(|s| s.vaddr).collect();
            vaddrs.sort_unstable();
            (vaddrs[vaddrs.len() / 4], vaddrs[vaddrs.len() * 3 / 4])
        };
        let in_window = |s: &AddressSample| s.time_ns / 100_000 <= last_window;
        let in_vaddr = |s: &AddressSample| (lo..=hi).contains(&s.vaddr);
        let check = |query: TraceQuery, keep: &dyn Fn(&AddressSample) -> bool| {
            let expected: Vec<AddressSample> = live.iter().copied().filter(keep).collect();
            assert!(!expected.is_empty() && expected.len() < live.len(), "{query:?} slices");
            assert_eq!(replayed_log(&reader, Some(&query)), expected, "{shards}: {query:?}");
            expected.len()
        };
        check(TraceQuery::all().with_windows(0, last_window), &in_window);
        check(TraceQuery::all().with_vaddr(lo, hi), &in_vaddr);
        let per_core: Vec<usize> =
            (0..4).map(|c| check(TraceQuery::all().with_cores([c]), &|s| s.core == c)).collect();
        assert_eq!(per_core.iter().sum::<usize>(), live.len(), "{shards}: {per_core:?}");
        check(TraceQuery::all().with_windows(0, last_window).with_cores([1]), &|s| {
            in_window(s) && s.core == 1
        });
        check(TraceQuery::all().with_cores([0, 3]).with_vaddr(lo, hi), &|s| {
            in_vaddr(s) && (s.core == 0 || s.core == 3)
        });
        check(TraceQuery::all().with_windows(0, last_window).with_vaddr(lo, hi), &|s| {
            in_window(s) && in_vaddr(s)
        });
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn corrupt_segments_fail_replay_with_trace_error_and_verify_reports_them() {
    let dir = tmp("corrupt");
    recorded_run(&dir, 2);
    let reader = TraceReader::open(&dir).expect("open trace");
    let clean = reader.verify().expect("verify clean");
    assert!(clean.errors.is_empty(), "{:?}", clean.errors);
    assert!(clean.blocks > 0 && clean.skipped_bytes == 0);

    // Flip one byte in the middle of shard 0's block region.
    let seg = dir.join("shard-000.seg");
    let mut bytes = fs::read(&seg).expect("read segment");
    let mid = bytes.len() / 3;
    bytes[mid] ^= 0xff;
    fs::write(&seg, &bytes).expect("write corrupted segment");

    let mut sinks = replay_sinks();
    let err = reader.replay(&mut sinks).expect_err("corrupt replay must fail");
    assert!(matches!(err, nmo_repro::nmo::NmoError::Trace(_)), "want NmoError::Trace, got: {err}");

    let damaged = reader.verify().expect("verify damaged");
    assert!(!damaged.errors.is_empty(), "verify must surface the damage");
    assert!(damaged.skipped_bytes > 0, "damaged bytes are accounted, not consumed");
    fs::remove_dir_all(&dir).ok();
}

/// A session without pipeline threads records what its one fan-in lane
/// delivered — samples, RSS and bandwidth ticks, window closes — as a
/// single segment, and replaying that trace reproduces the
/// run's own reports.
#[test]
fn thread_less_run_records_a_trace_that_replays_to_the_live_reports() {
    let dir = tmp("thread_less");
    let profile = ProfileSession::builder()
        .machine_config(MachineConfig::small_test_tiered(PlacementPolicy::TierSplit {
            local_fraction: 0.5,
        }))
        .config(NmoConfig::paper_default(100))
        .threads(2)
        .sink(CapacitySink::default())
        .sink(BandwidthSink::default())
        .sink(LatencySink::default())
        .sink(TraceWriterSink::new(dir.clone()))
        .stream_options(StreamOptions { window_ns: 100_000, ..StreamOptions::default() })
        .workload(Box::new(PageRank::new(1 << 9, 8, 1)))
        .build()
        .expect("session builds")
        .run()
        .expect("thread-less run");
    assert!(profile.processed_samples > 0);

    let reader = TraceReader::open(&dir).expect("open trace");
    assert_eq!(reader.shards(), 1);
    assert_eq!(reader.window_ns(), 100_000, "recorded in the session's own windows");
    let mut sinks: Vec<Box<dyn AnalysisSink>> = vec![
        Box::new(CapacitySink::default()),
        Box::new(BandwidthSink::default()),
        Box::new(LatencySink::default()),
    ];
    let stats = reader.replay(&mut sinks).expect("replay");
    assert_eq!(stats.samples, profile.processed_samples, "every sample is stored");
    // The run-wide values the reports need (elapsed time, FLOPs) come from
    // the run's profile, exactly as they did live.
    let machine = Machine::new(MachineConfig::small_test());
    for (sink, name) in sinks.iter_mut().zip(["capacity", "bandwidth", "latency"]) {
        let replayed = sink.finish(&machine, &profile).expect("replayed report");
        assert_eq!(format!("{replayed:?}"), live_report(&profile, name), "{name} replay == live");
    }
    fs::remove_dir_all(&dir).ok();
}
