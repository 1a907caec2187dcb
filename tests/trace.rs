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

use std::sync::Arc;

use nmo_repro::arch_sim::{DataSource, Machine, MachineConfig, PlacementPolicy};
use nmo_repro::nmo::trace::replay_finish;
use nmo_repro::nmo::{
    AddressSample, AnalysisReport, AnalysisSink, Annotations, BandwidthSink, BatchPayload,
    CapacitySink, HotPageTracker, LatencySink, NmoConfig, NoMigration, Profile, ProfileSession,
    SampleBatch, SampleLogSink, StreamContext, StreamOptions, TraceQuery, TraceReader,
    TraceWriterSink, Window,
};
use nmo_repro::spe::SpeStatsSnapshot;
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

/// A batch's core and samples.
type CoreBatch = (usize, Vec<AddressSample>);

/// One column of `n` stored values (zigzag deltas, or latencies) that packs
/// `width` bits wide in every group of 64 holding two or more: each group's
/// first value is `low`, its second `low + span`, the rest `next()` folded in
/// between (all wrapping: at 64 bits, `low + span` wraps to `low - 1`).
fn pinned_column(n: usize, width: u32, low: u64, next: &mut impl FnMut() -> u64) -> Vec<u64> {
    let span = u64::MAX.checked_shr(u64::BITS - width).unwrap_or(0);
    (0..n)
        .map(|i| match i % 64 {
            0 => low,
            1 => low.wrapping_add(span),
            _ => low.wrapping_add(next() & span),
        })
        .collect()
}

/// The stream the format pin records: one window per column width `w` in
/// 0..=64, holding a batch of every size around the 64-sample group with
/// time deltas `w` bits wide, address deltas `64 - w` and latencies
/// `min(w, 16)`, and one batch of 65 whose address deltas are `w` bits wide
/// with the group's base next to `u64::MAX`.
fn pinned_stream() -> Vec<(Window, Vec<CoreBatch>)> {
    let mut state = 0x0123_4567_89ab_cdefu64;
    let mut next = move || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        state ^ state >> 29
    };
    let unzigzag = |v: u64| ((v >> 1) as i64 ^ -((v & 1) as i64)) as u64;
    let mut batch = |core: usize, n: usize, widths: [u32; 3], vaddr_low: u64| {
        let times = pinned_column(n, widths[0], 3, &mut next);
        let vaddrs = pinned_column(n, widths[1], vaddr_low, &mut next);
        let latencies = pinned_column(n, widths[2], 0, &mut next);
        let (mut time_ns, mut vaddr) = (0u64, 0u64);
        let samples = (0..n)
            .map(|i| {
                time_ns = time_ns.wrapping_add(unzigzag(times[i]));
                vaddr = vaddr.wrapping_add(unzigzag(vaddrs[i]));
                let node = (next() % 4) as u8;
                AddressSample {
                    time_ns,
                    vaddr,
                    core,
                    is_store: next() % 3 == 0,
                    latency: latencies[i] as u16,
                    source: [
                        DataSource::L1,
                        DataSource::L2,
                        DataSource::Slc,
                        DataSource::Dram(node),
                        DataSource::RemoteDram(node),
                    ][i % 5],
                }
            })
            .collect();
        (core, samples)
    };
    (0..=64u32)
        .map(|w| {
            let window = Window { index: u64::from(w), start_ns: 0, end_ns: u64::MAX };
            let widths = [w, 64 - w, w.min(16)];
            let mut batches: Vec<_> = [1, 7, 63, 64, 65, 129]
                .into_iter()
                .enumerate()
                .map(|(core, n)| batch(core, n, widths, 5))
                .collect();
            let span = u64::MAX.checked_shr(u64::BITS - w).unwrap_or(0);
            batches.push(batch(6, 65, [1, w, 0], u64::MAX - span));
            (window, batches)
        })
        .collect()
}

/// 64-bit FNV-1a of a file's bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Format v6 byte for byte: the pinned stream, written through two writer
/// shards, gives segment files whose digests and lengths are these
/// literals (recorded with the per-value packing loop the width kernels
/// replaced), and replays to exactly the samples written.
#[test]
fn the_pinned_stream_encodes_to_the_recorded_segment_bytes() {
    let dir = tmp("format_pin");
    let ctx = StreamContext {
        annotations: Arc::new(Annotations::new()),
        capacity_bytes: 1 << 30,
        bucket_ns: 1000,
        mem_nodes: 2,
        page_bytes: 4096,
        machine: None,
    };
    let mut sink = TraceWriterSink::new(dir.clone());
    sink.on_stream_start(&ctx);
    let writer = sink.as_shardable().expect("trace writer is shardable");
    let mut shards: Vec<_> = (0..2).map(|s| writer.make_shard(s, &ctx)).collect();
    let mut written = Vec::new();
    for (seq, (window, batches)) in pinned_stream().into_iter().enumerate() {
        for (core, samples) in batches {
            written.extend_from_slice(&samples);
            let loss = SpeStatsSnapshot::default();
            let payload = BatchPayload::SpeSamples { samples, loss };
            let mut batch = SampleBatch::new("spe", Some(core), window, payload);
            batch.seq = seq as u64;
            shards[core % 2].on_batch(&batch);
        }
        for shard in shards.iter_mut() {
            shard.on_window_close(window);
        }
    }
    let states = shards.into_iter().map(|s| s.finish()).collect();
    sink.as_shardable().expect("still shardable").merge_final(states);
    let mut sinks: Vec<Box<dyn AnalysisSink>> = vec![Box::new(sink)];
    replay_finish(&mut sinks).expect("manifest written");

    let digests: Vec<(usize, u64)> = (0..2)
        .map(|s| {
            let bytes = fs::read(dir.join(format!("shard-{s:03}.seg"))).expect("segment bytes");
            (bytes.len(), fnv1a(&bytes))
        })
        .collect();
    let key =
        |s: &AddressSample| (s.core, s.time_ns, s.vaddr, s.latency, s.is_store, s.source.encode());
    let mut replayed = replayed_log(&TraceReader::open(&dir).expect("open trace"), None);
    replayed.sort_by_key(key);
    written.sort_by_key(key);
    assert_eq!(replayed, written, "the pinned stream round-trips");
    assert_eq!(
        digests,
        [(134_552, 0x7cfd39e02383d469), (160_646, 0x86466dde9c121ac0)],
        "segment lengths and FNV-1a digests"
    );
    fs::remove_dir_all(&dir).ok();
}
