//! Streaming-pipeline integration tests (the acceptance criteria of the
//! `run_streaming` redesign): running the STREAM workload through the online
//! pipeline must reproduce the post-hoc capacity/bandwidth/region results,
//! and `poll_snapshot` must expose monotonically growing, self-consistent
//! totals while the workload is still running.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Duration;

use nmo_repro::arch_sim::{DataSource, Machine, MachineConfig, PlacementPolicy};
use nmo_repro::nmo::stream::StreamSource;
use nmo_repro::nmo::{
    AddressSample, AnalysisReport, AnalysisSink, BackpressurePolicy, BandwidthSink, BatchPayload,
    BatchPool, CapacitySink, CoreObserver, LatencySink, NmoConfig, NmoError, Profile,
    ProfileSession, RegionSink, SampleBackend, SampleBatch, SampleLogSink, ShardDrainer,
    StreamOptions, StreamSnapshot, TraceReader, Window, WindowClock, Workload,
};
use nmo_repro::workloads::StreamBench;

fn stream_session_on(
    machine_config: MachineConfig,
    threads: usize,
    n: usize,
    iterations: usize,
) -> ProfileSession {
    ProfileSession::builder()
        .machine_config(machine_config)
        .config(NmoConfig::paper_default(200))
        .threads(threads)
        .sink(CapacitySink::default())
        .sink(BandwidthSink::default())
        .sink(RegionSink::default())
        .sink(LatencySink::default())
        .sink(SampleLogSink::new())
        .stream_options(StreamOptions { window_ns: 100_000, ..StreamOptions::default() })
        .workload(Box::new(StreamBench::new(n, iterations)))
        .build()
        .expect("session builds")
}

fn stream_session(threads: usize, n: usize, iterations: usize) -> ProfileSession {
    stream_session_on(MachineConfig::small_test(), threads, n, iterations)
}

/// Equivalence: a single-threaded run is fully deterministic, so the
/// windowed merge must land on the same final series as the post-hoc scan
/// (exact integers, float fields within merge tolerance).
#[test]
fn streaming_stream_workload_matches_post_hoc_series() {
    let post_hoc = stream_session(1, 60_000, 2).run().expect("post-hoc run");
    let streamed = stream_session(1, 60_000, 2).run_streaming().expect("streaming run");

    assert!(post_hoc.processed_samples > 500, "{}", post_hoc.processed_samples);
    assert_eq!(streamed.processed_samples, post_hoc.processed_samples);
    let samples = streamed.samples().expect("sample log");
    assert_eq!(samples.len() as u64, streamed.processed_samples);
    assert_eq!(Some(samples), post_hoc.samples(), "identical delivered sample streams");

    // Level 1: capacity series.
    assert_eq!(streamed.capacity.peak_bytes, post_hoc.capacity.peak_bytes);
    assert_eq!(streamed.capacity.points.len(), post_hoc.capacity.points.len());
    for (s, p) in streamed.capacity.points.iter().zip(&post_hoc.capacity.points) {
        assert!((s.time_s - p.time_s).abs() < 1e-9, "{s:?} vs {p:?}");
        assert!((s.rss_gib - p.rss_gib).abs() < 1e-9, "{s:?} vs {p:?}");
    }

    // Level 2: bandwidth series.
    assert_eq!(streamed.bandwidth.total_bytes, post_hoc.bandwidth.total_bytes);
    assert_eq!(streamed.bandwidth.points.len(), post_hoc.bandwidth.points.len());
    for (s, p) in streamed.bandwidth.points.iter().zip(&post_hoc.bandwidth.points) {
        assert!((s.time_s - p.time_s).abs() < 1e-9, "{s:?} vs {p:?}");
        assert!((s.gib_per_s - p.gib_per_s).abs() < 1e-6, "{s:?} vs {p:?}");
    }
    assert!((streamed.bandwidth.peak_gib_per_s - post_hoc.bandwidth.peak_gib_per_s).abs() < 1e-6);

    // Level 3: region attribution.
    let (rs, rp) = (streamed.regions().expect("regions"), post_hoc.regions().expect("regions"));
    assert_eq!(rs.per_tag, rp.per_tag);
    assert_eq!(rs.per_phase, rp.per_phase);
    assert_eq!(rs.untagged_samples, rp.untagged_samples);
    assert_eq!(rs.total_samples(), rp.total_samples());

    // Per-tier latency distributions: the histograms are order-independent,
    // so the streaming merge is *exactly* the post-hoc scan.
    let (ls, lp) = (streamed.latency().expect("latency"), post_hoc.latency().expect("latency"));
    assert!(!ls.is_empty());
    assert_eq!(ls, lp, "streaming latency histograms must equal the post-hoc scan");

    // The streaming run actually streamed — through the one pipeline, here
    // one shard wide (one profiled core).
    let stats = streamed.stream.expect("streaming stats recorded");
    assert_eq!(stats.shards, 1, "{stats:?}");
    assert!(stats.batches_published > 0, "{stats:?}");
    assert!(stats.windows_closed > 1, "{stats:?}");
    assert_eq!(stats.batches_dropped, 0, "{stats:?}");
    assert!(post_hoc.stream.is_none());
}

/// The tiered-memory acceptance run: on a two-node machine under TierSplit
/// placement, STREAM's latency distribution is bimodal (remote-node p50
/// strictly above local-node p50), the per-node capacity/bandwidth splits
/// are populated, and single-threaded streaming still equals post-hoc for
/// the latency sink.
#[test]
fn tiered_stream_latency_is_bimodal_and_streaming_matches_post_hoc() {
    let tiered = || {
        stream_session_on(
            MachineConfig::small_test_tiered(PlacementPolicy::TierSplit { local_fraction: 0.5 }),
            1,
            60_000,
            2,
        )
    };
    let post_hoc = tiered().run().expect("post-hoc tiered run");
    let streamed = tiered().run_streaming().expect("streaming tiered run");

    // Both tiers served DRAM traffic and the remote mode sits above the
    // local one — the DDR-vs-CXL signature.
    let latency = post_hoc.latency().expect("latency");
    let (local, remote) = (latency.local_dram(), latency.remote_dram());
    assert!(local.count() > 0, "local DRAM fills observed");
    assert!(remote.count() > 0, "remote DRAM fills observed");
    assert!(
        remote.p50() > local.p50(),
        "bimodal: remote p50 {} must exceed local p50 {}",
        remote.p50(),
        local.p50()
    );
    assert!(latency.dram_tiers_bimodal());

    // Per-node capacity and bandwidth splits are populated and consistent.
    assert_eq!(post_hoc.capacity.nodes, 2);
    assert!(post_hoc.capacity.peak_bytes_by_node[0] > 0);
    assert!(post_hoc.capacity.peak_bytes_by_node[1] > 0);
    assert_eq!(post_hoc.bandwidth.nodes, 2);
    assert!(post_hoc.bandwidth.total_bytes_by_node[0] > 0);
    assert!(post_hoc.bandwidth.total_bytes_by_node[1] > 0);
    assert_eq!(
        post_hoc.bandwidth.total_bytes_by_node.iter().sum::<u64>(),
        post_hoc.bandwidth.total_bytes
    );

    // Streaming == post-hoc holds on the tiered machine too (single thread
    // => deterministic simulation).
    assert!(post_hoc.samples().is_some_and(|s| s.len() as u64 == post_hoc.processed_samples));
    assert_eq!(streamed.samples(), post_hoc.samples());
    assert_eq!(streamed.latency(), Some(latency));
    assert_eq!(streamed.capacity, post_hoc.capacity);
    assert_eq!(streamed.bandwidth, post_hoc.bandwidth);
}

/// The shards>cores edge: an explicit `shards = 4` request on a 1-core run
/// used to spawn pump workers that owned zero cores and bus lanes with no
/// producer. The session now clamps the allocation to the profiled core
/// count (here: one shard), records the original request in
/// `shards_requested`, and the over-provisioned run stays bit-for-bit the
/// one-shard run: same samples, same capacity/bandwidth series, same region
/// stats, same latency histograms. (Exact-accounting coverage of the truly
/// sharded machinery lives in `tests/stream_stress.rs`, where the 128-core
/// machine gives every shard real cores to own.)
#[test]
fn over_provisioned_shards_clamp_to_cores_bit_for_bit() {
    let with_shards = |shards: usize| {
        ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .config(NmoConfig::paper_default(200))
            .threads(1)
            .sink(CapacitySink::default())
            .sink(BandwidthSink::default())
            .sink(RegionSink::default())
            .sink(LatencySink::default())
            .sink(SampleLogSink::new())
            .stream_options(StreamOptions {
                window_ns: 100_000,
                shards,
                ..StreamOptions::default()
            })
            .workload(Box::new(StreamBench::new(60_000, 2)))
            .build()
            .expect("session builds")
    };
    let serial = with_shards(1).run_streaming().expect("serial streaming run");
    let sharded = with_shards(4).run_streaming().expect("sharded streaming run");

    assert!(serial.samples().is_some_and(|s| s.len() as u64 == serial.processed_samples));
    assert_eq!(sharded.samples(), serial.samples(), "identical delivered sample streams");
    assert_eq!(sharded.processed_samples, serial.processed_samples);
    assert_eq!(sharded.capacity, serial.capacity);
    assert_eq!(sharded.bandwidth, serial.bandwidth);
    assert!(serial.latency().is_some());
    assert_eq!(sharded.latency(), serial.latency());
    let (rs, rp) = (sharded.regions().expect("regions"), serial.regions().expect("regions"));
    assert_eq!(rs.per_tag, rp.per_tag);
    assert_eq!(rs.per_phase, rp.per_phase);
    assert_eq!(rs.untagged_samples, rp.untagged_samples);
    assert_eq!(rs.total_samples(), rp.total_samples());

    let serial_stats = serial.stream.expect("serial stats");
    let sharded_stats = sharded.stream.expect("sharded stats");
    assert_eq!(serial_stats.shards, 1);
    assert_eq!(serial_stats.shards_requested, 1);
    // The clamp pins: 4 requested, 1 effective (1 profiled core), and both
    // counts surfaced in the stats.
    assert_eq!(sharded_stats.shards, 1, "effective shards clamp to the core count");
    assert_eq!(sharded_stats.shards_requested, 4, "the original request is recorded");
    assert_eq!(sharded_stats.batches_dropped, 0, "default bus must not drop");
}

/// Live readout: snapshots observed while the STREAM workload is still
/// running grow monotonically, and each one's per-shard counts add up to its
/// totals — one shard wide and two.
#[test]
fn poll_snapshot_grows_monotonically_during_the_run() {
    for shards in [1, 2] {
        let session = ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .config(NmoConfig::paper_default(50))
            .threads(2)
            .sink(CapacitySink::default())
            .sink(BandwidthSink::default())
            .sink(SampleLogSink::new())
            .stream_options(StreamOptions { window_ns: 50_000, shards, ..StreamOptions::default() })
            .build()
            .expect("session builds");

        let mut workload = StreamBench::new(400_000, 3);
        workload.setup(session.machine(), &session.annotations()).expect("setup");
        let active = session.start_streaming().expect("start streaming");

        let mut snapshots: Vec<StreamSnapshot> = Vec::new();
        let report = std::thread::scope(|s| {
            let machine = active.machine();
            let annotations = active.annotations_ref();
            let cores = active.cores();
            let workload = &mut workload;
            let handle = s.spawn(move || workload.run(machine, annotations, cores));
            while !handle.is_finished() {
                snapshots.push(active.poll_snapshot().expect("streaming session snapshots"));
                #[allow(clippy::disallowed_methods)] // test poll loop
                std::thread::sleep(Duration::from_millis(1));
            }
            handle.join().expect("workload thread").expect("workload run")
        });
        assert!(workload.verify(), "workload result corrupted");
        assert!(report.mem_ops > 0);

        // Monotonic growth across every observed snapshot.
        assert!(snapshots.len() > 2, "expected several mid-run snapshots");
        for pair in snapshots.windows(2) {
            assert!(pair[1].batches >= pair[0].batches);
            assert!(pair[1].spe_samples >= pair[0].spe_samples);
            assert!(pair[1].windows_closed >= pair[0].windows_closed);
            assert!(pair[1].last_time_ns >= pair[0].last_time_ns);
        }
        let last = snapshots.last().unwrap();
        assert!(last.batches > 0, "pump delivered batches during the run: {last:?}");

        let profile = active.finish().expect("finish");
        let stats = profile.stream.expect("stream stats");
        assert_eq!(stats.shards, shards as u64);
        for snap in &snapshots {
            // One snapshot is one moment: the shards add up to the totals.
            assert_eq!(snap.per_shard.iter().map(|s| s.batches).sum::<u64>(), snap.batches);
            assert_eq!(snap.per_shard.iter().map(|s| s.spe_samples).sum::<u64>(), snap.spe_samples);
            assert!(snap.windows_closed <= stats.windows_closed, "{snap:?} vs {stats:?}");
        }
        assert!(stats.batches_published >= last.batches);
        assert!(profile.processed_samples >= last.spe_samples);
        assert!(profile.processed_samples > 1_000, "{}", profile.processed_samples);
        // The final record is complete even though data was streamed out
        // incrementally along the way.
        assert_eq!(profile.samples().expect("sample log").len() as u64, profile.processed_samples);
        assert!(profile.capacity.peak_bytes > 0);
        assert!(profile.bandwidth.total_bytes > 0);
    }
}

/// A hostile `bus_capacity` is a bound, not a size: a two-shard session
/// sizes its batch pool and rolls up its lanes' capacities without
/// overflowing, live and at `finish`.
#[test]
fn a_huge_bus_capacity_runs_a_sharded_session() {
    let session = ProfileSession::builder()
        .machine_config(MachineConfig::small_test())
        .config(NmoConfig::paper_default(200))
        .threads(2)
        .sink(SampleLogSink::new())
        .stream_options(StreamOptions {
            window_ns: 50_000,
            bus_capacity: usize::MAX,
            shards: 2,
            ..StreamOptions::default()
        })
        .build()
        .expect("session builds");

    let mut workload = StreamBench::new(60_000, 2);
    workload.setup(session.machine(), &session.annotations()).expect("setup");
    let active = session.start_streaming().expect("start streaming");
    let snapshot = std::thread::scope(|s| {
        let (machine, annotations, cores) =
            (active.machine(), active.annotations_ref(), active.cores());
        let workload = &mut workload;
        let handle = s.spawn(move || workload.run(machine, annotations, cores));
        let snapshot = active.poll_snapshot().expect("streaming session snapshots");
        handle.join().expect("workload thread").expect("workload run");
        snapshot
    });
    assert!(workload.verify(), "workload result corrupted");
    assert_eq!(snapshot.bus.capacity, u64::MAX, "{snapshot:?}");

    let profile = active.finish().expect("finish");
    let stats = profile.stream.expect("stream stats");
    assert_eq!(stats.shards, 2, "{stats:?}");
    assert_eq!(stats.batches_dropped, 0, "{stats:?}");
    assert_eq!(profile.samples().expect("sample log").len() as u64, profile.processed_samples);
}

/// Samples each scripted core emits, and how many of them one drain hands
/// over per core: 16 drains, ~16 windows of 100 µs.
const SCRIPT_PER_CORE: u64 = 16_384;
const SCRIPT_DRAIN_CHUNK: u64 = 1_024;

/// Sample `i` of scripted core `core`: a pure function, so every run of
/// every width sees the same input. Timestamps tie on purpose: cores 0/1 and
/// 2/3 share every `time_ns` (at four shards each of a pair is another
/// lane's), and so do a core's samples `2k` and `2k + 1`.
fn scripted_sample(core: usize, i: u64) -> AddressSample {
    let mix = (i * 4 + core as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    AddressSample {
        time_ns: i / 2 * 194 + core as u64 / 2 * 13,
        vaddr: 0x1000_0000 + (mix >> 40) * 8,
        core,
        is_store: mix & 1 == 1,
        latency: 4 + ((mix >> 8) % 900) as u16,
        source: [DataSource::L1, DataSource::L2, DataSource::Slc, DataSource::Dram(0)]
            [(mix >> 20) as usize % 4],
    }
}

/// What the scripted drainers tell the test.
struct ScriptLog {
    /// Every distinct `(drainer, thread)` pair that made a `drain` call.
    drained_by: parking_lot::Mutex<Vec<(usize, ThreadId)>>,
    drain_calls: AtomicU64,
    emitted: AtomicU64,
    /// One message per drainer, when its script has run out.
    dry: SyncSender<()>,
}

/// A backend with no instrument behind it: `shard_drainers(n)` hands out
/// `n` drainers that emit [`scripted_sample`]s for the cores hashing to
/// their shard, a chunk per call.
struct ScriptedBackend {
    cores: Vec<usize>,
    log: Arc<ScriptLog>,
}

struct ScriptedDrainer {
    shard: usize,
    cores: Vec<usize>,
    next: u64,
    log: Arc<ScriptLog>,
}

impl SampleBackend for ScriptedBackend {
    fn name(&self) -> &'static str {
        "spe"
    }

    fn start(
        &mut self,
        _machine: &Machine,
        cores: &[usize],
        _config: &NmoConfig,
    ) -> Result<Vec<CoreObserver>, NmoError> {
        self.cores = cores.to_vec();
        Ok(Vec::new())
    }

    fn shard_drainers(&mut self, shards: usize) -> Vec<Box<dyn ShardDrainer>> {
        (0..shards)
            .map(|shard| {
                let cores = self.cores.iter().copied().filter(|c| c % shards == shard).collect();
                Box::new(ScriptedDrainer { shard, cores, next: 0, log: self.log.clone() })
                    as Box<dyn ShardDrainer>
            })
            .collect()
    }

    fn stop(&mut self, _machine: &Machine) -> Result<(), NmoError> {
        Ok(())
    }

    fn fill(&mut self, profile: &mut Profile) -> Result<(), NmoError> {
        profile.processed_samples = self.log.emitted.load(Ordering::SeqCst);
        Ok(())
    }
}

impl ShardDrainer for ScriptedDrainer {
    fn shard(&self) -> usize {
        self.shard
    }

    fn drain(
        &mut self,
        _machine: &Machine,
        clock: &WindowClock,
        pool: &BatchPool,
    ) -> Result<Vec<SampleBatch>, NmoError> {
        let caller = (self.shard, std::thread::current().id());
        {
            let mut drained_by = self.log.drained_by.lock();
            if !drained_by.contains(&caller) {
                drained_by.push(caller);
            }
        }
        self.log.drain_calls.fetch_add(1, Ordering::SeqCst);
        let end = (self.next + SCRIPT_DRAIN_CHUNK).min(SCRIPT_PER_CORE);
        let mut batches = Vec::new();
        for &core in &self.cores {
            let chunk = (self.next..end).map(|i| scripted_sample(core, i));
            for (window, group) in clock.group_by_window(chunk, |s| s.time_ns) {
                let mut samples = pool.samples();
                samples.extend(group);
                let payload = BatchPayload::SpeSamples { samples, loss: Default::default() };
                batches.push(SampleBatch::new("spe", Some(core), window, payload));
            }
        }
        let emitted = batches.iter().map(|b| b.len() as u64).sum();
        self.log.emitted.fetch_add(emitted, Ordering::SeqCst);
        if self.next < end && end == SCRIPT_PER_CORE {
            self.log.dry.send(()).expect("the test waits for every drainer");
        }
        self.next = end;
        Ok(batches)
    }

    fn sources(&self) -> Vec<StreamSource> {
        self.cores.iter().map(|&core| ("spe", Some(core))).collect()
    }
}

/// The script through a real streaming session `shards` wide, lossless.
fn run_script(shards: usize) -> (Profile, Arc<ScriptLog>) {
    let (dry, on_dry) = sync_channel(shards);
    let log = Arc::new(ScriptLog {
        drained_by: parking_lot::Mutex::new(Vec::new()),
        drain_calls: AtomicU64::new(0),
        emitted: AtomicU64::new(0),
        dry,
    });
    let active = ProfileSession::builder()
        .machine_config(MachineConfig::small_test())
        .threads(4)
        .no_default_backends()
        .backend(ScriptedBackend { cores: Vec::new(), log: log.clone() })
        .sink(LatencySink::default())
        .sink(SampleLogSink::new())
        .stream_options(StreamOptions {
            window_ns: 100_000,
            bus_capacity: 8,
            backpressure: BackpressurePolicy::Block,
            shards,
        })
        .build()
        .expect("session builds")
        .start_streaming()
        .expect("start streaming");
    for _ in 0..shards {
        on_dry.recv_timeout(Duration::from_secs(30)).expect("every drainer runs its script dry");
    }
    (active.finish().expect("finish"), log)
}

/// A pump worker owns its shard's drainers: through a real 4-shard session
/// every drainer is drained by one thread only, from its first round to its
/// final one, nothing is lost or late under `Block`, and the sinks end up
/// where the same input through one shard puts them.
#[test]
fn each_drainer_is_drained_by_one_thread_and_four_shards_equal_one() {
    let (wide, log) = run_script(4);
    let mut drained_by = log.drained_by.lock().clone();
    drained_by.sort_by_key(|&(drainer, _)| drainer);
    let drainers: Vec<usize> = drained_by.iter().map(|&(drainer, _)| drainer).collect();
    assert_eq!(drainers, [0, 1, 2, 3], "one draining thread per drainer: {drained_by:?}");
    let threads: HashSet<ThreadId> = drained_by.iter().map(|&(_, thread)| thread).collect();
    assert_eq!(threads.len(), 4, "and each has a thread of its own: {drained_by:?}");
    let rounds = SCRIPT_PER_CORE / SCRIPT_DRAIN_CHUNK;
    assert!(log.drain_calls.load(Ordering::SeqCst) > 4 * rounds, "the final round drains too");

    let emitted = 4 * SCRIPT_PER_CORE;
    assert_eq!(log.emitted.load(Ordering::SeqCst), emitted);
    assert_eq!(wide.latency().expect("latency").total_count(), emitted, "emitted == delivered");
    let stats = wide.stream.expect("stream stats");
    assert_eq!(stats.shards, 4);
    assert_eq!(stats.late_batches, 0, "{stats:?}");
    assert_eq!(stats.batches_dropped, 0, "{stats:?}");

    let (serial, _) = run_script(1);
    let serial_stats = serial.stream.expect("serial stream stats");
    assert_eq!(serial_stats.shards, 1);
    assert_eq!(wide.latency(), serial.latency(), "4 lanes merge to the 1-lane report");
    assert_eq!(stats.windows_closed, serial_stats.windows_closed);
}

/// The sample log is a function of the delivered set alone: samples of
/// different cores that share a timestamp come out in core order whichever
/// lane carried them and whichever drain round the host got to first, and a
/// core's own equal-time samples keep the order they were delivered in — so
/// one shard, four shards and the sorted script agree element for element.
#[test]
fn sample_log_order_is_the_same_at_every_width() {
    let mut script: Vec<(u64, AddressSample)> = (0..4)
        .flat_map(|core| (0..SCRIPT_PER_CORE).map(move |i| (i, scripted_sample(core, i))))
        .collect();
    script.sort_by_key(|&(i, s)| (s.time_ns, s.core, i));
    let script: Vec<AddressSample> = script.into_iter().map(|(_, s)| s).collect();
    assert!(script.windows(2).any(|w| w[0].time_ns == w[1].time_ns && w[0].core != w[1].core));
    assert!(script.windows(2).any(|w| w[0].time_ns == w[1].time_ns && w[0].core == w[1].core));

    let (serial, _) = run_script(1);
    let (wide, _) = run_script(4);
    assert_eq!(wide.stream.expect("stream stats").shards, 4);
    assert_eq!(serial.samples(), Some(&script[..]), "one shard");
    assert_eq!(wide.samples(), Some(&script[..]), "four shards");
}

/// Drain calls core 1 of a [`StalledScript`] sits out before it delivers.
const STALL_DRAINS: u64 = 400;
/// Samples each stalled-script core emits, and how many one drain hands
/// over per core: 16 drains over ~40 windows of 10 µs.
const STALL_PER_CORE: u64 = 4_096;
const STALL_DRAIN_CHUNK: u64 = 256;

/// A core that starts late: core 1 delivers nothing for its first
/// [`STALL_DRAINS`] drains and then its [`scripted_sample`]s from time 0,
/// while every other core delivers its own from the first drain on.
struct StalledScript {
    shard: usize,
    cores: Vec<usize>,
    drains: u64,
    /// Per core, the next sample to emit.
    next: Vec<u64>,
    log: Arc<ScriptLog>,
}

impl StalledScript {
    fn new(shard: usize, cores: Vec<usize>, log: Arc<ScriptLog>) -> Self {
        let next = vec![0; cores.len()];
        StalledScript { shard, cores, drains: 0, next, log }
    }

    fn emit(&mut self, clock: &WindowClock, pool: &BatchPool) -> Vec<SampleBatch> {
        self.drains += 1;
        let mut batches = Vec::new();
        for (&core, next) in self.cores.iter().zip(&mut self.next) {
            if core == 1 && self.drains <= STALL_DRAINS {
                continue;
            }
            let end = (*next + STALL_DRAIN_CHUNK).min(STALL_PER_CORE);
            let chunk = (*next..end).map(|i| scripted_sample(core, i));
            for (window, group) in clock.group_by_window(chunk, |s| s.time_ns) {
                let mut samples = pool.samples();
                samples.extend(group);
                let payload = BatchPayload::SpeSamples { samples, loss: Default::default() };
                batches.push(SampleBatch::new("spe", Some(core), window, payload));
            }
            if *next < end && end == STALL_PER_CORE {
                self.log.dry.send(()).expect("the test waits for every core");
            }
            *next = end;
        }
        let emitted = batches.iter().map(|b| b.len() as u64).sum();
        self.log.emitted.fetch_add(emitted, Ordering::SeqCst);
        batches
    }
}

impl ShardDrainer for StalledScript {
    fn shard(&self) -> usize {
        self.shard
    }

    fn drain(
        &mut self,
        _machine: &Machine,
        clock: &WindowClock,
        pool: &BatchPool,
    ) -> Result<Vec<SampleBatch>, NmoError> {
        Ok(self.emit(clock, pool))
    }

    fn sources(&self) -> Vec<StreamSource> {
        self.cores.iter().map(|&core| ("spe", Some(core))).collect()
    }
}

/// The stalled script as a backend: drained classically by the coordinator
/// at one shard, one [`StalledScript`] per shard's cores wider.
struct StalledBackend {
    script: StalledScript,
}

impl SampleBackend for StalledBackend {
    fn name(&self) -> &'static str {
        "spe"
    }

    fn start(
        &mut self,
        _machine: &Machine,
        cores: &[usize],
        _config: &NmoConfig,
    ) -> Result<Vec<CoreObserver>, NmoError> {
        self.script = StalledScript::new(0, cores.to_vec(), self.script.log.clone());
        Ok(Vec::new())
    }

    fn drain(
        &mut self,
        _machine: &Machine,
        clock: &WindowClock,
        pool: &BatchPool,
    ) -> Result<Vec<SampleBatch>, NmoError> {
        Ok(self.script.emit(clock, pool))
    }

    fn shard_drainers(&mut self, shards: usize) -> Vec<Box<dyn ShardDrainer>> {
        if shards == 1 {
            return Vec::new();
        }
        (0..shards)
            .map(|shard| {
                let cores = self.script.cores.iter().copied().filter(|c| c % shards == shard);
                let log = self.script.log.clone();
                Box::new(StalledScript::new(shard, cores.collect(), log)) as Box<dyn ShardDrainer>
            })
            .collect()
    }

    fn stream_sources(&self) -> Vec<StreamSource> {
        self.script.sources()
    }

    fn stop(&mut self, _machine: &Machine) -> Result<(), NmoError> {
        Ok(())
    }

    fn fill(&mut self, profile: &mut Profile) -> Result<(), NmoError> {
        profile.processed_samples = self.script.log.emitted.load(Ordering::SeqCst);
        Ok(())
    }
}

/// A declared core that starts late is never overtaken: windows close on
/// sample time alone, so however many drain rounds core 1 sits out, no
/// window closes past it, and its samples from time 0 on all arrive on
/// time — through the coordinator's own drain at one shard and through
/// per-shard drainers at two.
#[test]
fn a_core_that_starts_late_gets_no_late_batch() {
    for shards in [1, 2] {
        let (dry, on_dry) = sync_channel(2);
        let log = Arc::new(ScriptLog {
            drained_by: parking_lot::Mutex::new(Vec::new()),
            drain_calls: AtomicU64::new(0),
            emitted: AtomicU64::new(0),
            dry,
        });
        let active = ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .threads(2)
            .no_default_backends()
            .backend(StalledBackend { script: StalledScript::new(0, Vec::new(), log.clone()) })
            .sink(LatencySink::default())
            .stream_options(StreamOptions {
                window_ns: 10_000,
                bus_capacity: 8,
                backpressure: BackpressurePolicy::Block,
                shards,
            })
            .build()
            .expect("session builds")
            .start_streaming()
            .expect("start streaming");
        for _ in 0..2 {
            on_dry.recv_timeout(Duration::from_secs(30)).expect("both cores run their script dry");
        }
        let profile = active.finish().expect("finish");
        let stats = profile.stream.expect("stream stats");
        assert_eq!(stats.shards, shards as u64);
        let emitted = 2 * STALL_PER_CORE;
        assert_eq!(log.emitted.load(Ordering::SeqCst), emitted);
        assert_eq!(profile.latency().expect("latency").total_count(), emitted, "{stats:?}");
        assert_eq!(stats.batches_dropped, 0, "{stats:?}");
        assert_eq!(stats.late_batches, 0, "{shards} shard(s): {stats:?}");
        // Both cores' scripts end at 2047 × 194 ns: windows 0 to 39.
        assert_eq!(stats.windows_closed, 40, "{stats:?}");
    }
}

/// The live case of the same rule: 8 simulated cores of STREAM through
/// four pipeline shards and one, under `Block`, end with no late batch on
/// every run, whatever the host's scheduling of the cores and the pump.
#[test]
fn eight_live_cores_get_no_late_batch_at_one_and_four_shards() {
    for shards in [1, 4] {
        for run in 0..5 {
            let profile = ProfileSession::builder()
                .machine_config(MachineConfig::ampere_altra_max())
                .config(NmoConfig {
                    aux_watermark_bytes: Some(16 * 1024),
                    ..NmoConfig::paper_default(1024)
                })
                .threads(8)
                .sink(LatencySink::default())
                .stream_options(StreamOptions {
                    window_ns: 250_000,
                    backpressure: BackpressurePolicy::Block,
                    shards,
                    ..StreamOptions::default()
                })
                .workload(Box::new(StreamBench::new(1_000_000, 2)))
                .build()
                .expect("session builds")
                .run_streaming()
                .expect("streaming run");
            let stats = profile.stream.expect("stream stats");
            assert_eq!(stats.shards, shards as u64);
            assert!(stats.windows_closed > 1, "{shards} shards, run {run}: {stats:?}");
            assert_eq!(stats.batches_dropped, 0, "{shards} shards, run {run}: {stats:?}");
            assert_eq!(stats.late_batches, 0, "{shards} shards, run {run}: {stats:?}");
            let delivered = profile.latency().expect("latency").total_count();
            assert_eq!(delivered, profile.processed_samples, "{shards} shards, run {run}");
        }
    }
}

/// The window indices a legacy sink was handed, in delivery order: every
/// batch's window and every close.
#[derive(Debug, Default)]
struct WindowLog {
    batches: Vec<u64>,
    closes: Vec<u64>,
}

/// Fills a shared [`WindowLog`].
struct WindowLogSink(Arc<parking_lot::Mutex<WindowLog>>);

impl WindowLogSink {
    fn new() -> (Self, Arc<parking_lot::Mutex<WindowLog>>) {
        let log = Arc::new(parking_lot::Mutex::new(WindowLog::default()));
        (WindowLogSink(log.clone()), log)
    }
}

impl AnalysisSink for WindowLogSink {
    fn name(&self) -> &'static str {
        "window-log"
    }

    fn analyze(&mut self, _m: &Machine, _p: &Profile) -> Result<AnalysisReport, NmoError> {
        Ok(AnalysisReport::Text(String::new()))
    }

    fn on_batch(&mut self, batch: &SampleBatch) {
        self.0.lock().batches.push(batch.window.index);
    }

    fn on_window_close(&mut self, window: Window) {
        self.0.lock().closes.push(window.index);
    }
}

/// `body` under one of the two in-process drivers: the pipeline
/// (`streaming`, at the session's shard count) or the thread-less step,
/// which delivers at `finish`.
fn run_driven<F>(session: ProfileSession, streaming: bool, body: F) -> Profile
where
    F: FnOnce(&Machine, &nmo_repro::nmo::Annotations, &[usize]) -> Result<(), NmoError>,
{
    let profile = if streaming { session.run_streaming_with(body) } else { session.run_with(body) };
    profile.unwrap_or_else(|e| panic!("streaming: {streaming}: {e}"))
}

/// Every driver closes only windows some batch named, each once, in
/// ascending order — here at 100 ns windows, where STREAM's samples leave
/// most windows empty. (Which windows named only by the end-of-run
/// bandwidth series get a close in the pipeline depends on host
/// scheduling, so the close sets are not compared across drivers.)
#[test]
fn every_driver_closes_only_named_windows_each_once_ascending() {
    for streaming in [false, true] {
        let (sink, log) = WindowLogSink::new();
        let session = ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .config(NmoConfig::paper_default(64))
            .cores([0])
            .sink(sink)
            .stream_options(StreamOptions {
                window_ns: 100,
                shards: 1,
                // Every published batch reaches the sink.
                backpressure: BackpressurePolicy::Block,
                ..StreamOptions::default()
            })
            .build()
            .expect("session builds");
        let profile = run_driven(session, streaming, |machine, annotations, cores| {
            let mut stream = StreamBench::new(20_000, 1);
            stream.setup(machine, annotations)?;
            stream.run(machine, annotations, cores).map(drop)
        });
        let log = std::mem::take(&mut *log.lock());
        let named: HashSet<u64> = log.batches.iter().copied().collect();
        let closes = log.closes.len();
        assert!(closes > 1, "streaming: {streaming}: {closes} closes");
        assert!(log.closes.windows(2).all(|w| w[0] < w[1]), "streaming: {streaming}");
        let unnamed = log.closes.iter().filter(|w| !named.contains(w)).count();
        assert_eq!(
            unnamed,
            0,
            "streaming: {streaming}: {unnamed} of {closes} closes for {} named windows",
            named.len()
        );
        if let Some(stats) = profile.stream {
            assert_eq!(stats.windows_closed, closes as u64);
        }
    }
}

/// One sample in the last window of time: a one-nanosecond window at
/// `u64::MAX` closes like any other, under every driver, and the pump that
/// closes it returns.
#[test]
fn a_sample_at_the_end_of_time_closes_its_window() {
    struct OneSample {
        sent: bool,
    }
    impl SampleBackend for OneSample {
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
            _pool: &BatchPool,
        ) -> Result<Vec<SampleBatch>, NmoError> {
            if std::mem::replace(&mut self.sent, true) {
                return Ok(Vec::new());
            }
            let sample = AddressSample { time_ns: u64::MAX, ..scripted_sample(0, 0) };
            let payload =
                BatchPayload::SpeSamples { samples: vec![sample], loss: Default::default() };
            Ok(vec![SampleBatch::new("spe", Some(0), clock.window_containing(u64::MAX), payload)])
        }
        fn stream_sources(&self) -> Vec<StreamSource> {
            vec![("spe", Some(0))]
        }
        fn stop(&mut self, _machine: &Machine) -> Result<(), NmoError> {
            Ok(())
        }
        fn fill(&mut self, _profile: &mut Profile) -> Result<(), NmoError> {
            Ok(())
        }
    }

    for streaming in [false, true] {
        let (window_log, log) = WindowLogSink::new();
        let session = ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .threads(1)
            .no_default_backends()
            .backend(OneSample { sent: false })
            .sink(SampleLogSink::new())
            .sink(window_log)
            .stream_options(StreamOptions { window_ns: 1, ..StreamOptions::default() })
            .build()
            .expect("session builds");
        let profile = run_driven(session, streaming, |_, _, _| Ok(()));
        let samples = profile.samples().expect("sample log");
        let times: Vec<u64> = samples.iter().map(|s| s.time_ns).collect();
        assert_eq!(times, [u64::MAX], "streaming: {streaming}");
        assert_eq!(log.lock().closes, [u64::MAX], "streaming: {streaming}: the last window closes");
        if let Some(stats) = profile.stream {
            assert_eq!((stats.windows_closed, stats.late_batches), (1, 0), "{stats:?}");
        }
    }
}

/// What [`SpeBatchProbe`] saw of one delivered SPE batch.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SeenBatch {
    samples: usize,
    core: Option<usize>,
    /// The distinct cores its samples name, ascending.
    sample_cores: Vec<usize>,
    /// Whether every sample lies inside the batch's window.
    in_window: bool,
}

/// Records every SPE batch the pipeline (or a replay) delivers.
struct SpeBatchProbe {
    seen: Arc<parking_lot::Mutex<Vec<SeenBatch>>>,
}

impl SpeBatchProbe {
    fn new() -> (Self, Arc<parking_lot::Mutex<Vec<SeenBatch>>>) {
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        (SpeBatchProbe { seen: seen.clone() }, seen)
    }
}

impl AnalysisSink for SpeBatchProbe {
    fn name(&self) -> &'static str {
        "spe-batch-probe"
    }

    fn analyze(&mut self, _m: &Machine, _p: &Profile) -> Result<AnalysisReport, NmoError> {
        Ok(AnalysisReport::Text(String::new()))
    }

    fn on_batch(&mut self, batch: &SampleBatch) {
        if let BatchPayload::SpeSamples { samples, .. } = batch.payload() {
            let mut sample_cores: Vec<usize> = samples.iter().map(|s| s.core).collect();
            sample_cores.sort_unstable();
            sample_cores.dedup();
            self.seen.lock().push(SeenBatch {
                samples: samples.len(),
                core: batch.core,
                sample_cores,
                in_window: samples.iter().all(|s| batch.window.contains_ns(s.time_ns)),
            });
        }
    }
}

/// An SPE batch is one core's samples in one window, on every delivery
/// path: a thread-less run, a streaming run one shard and four shards wide,
/// and a replay of the one-shard run's recorded trace — at four cores, where
/// a drain over several cores used to merge them into one batch per window.
#[test]
fn every_spe_batch_is_one_cores_samples_in_one_window() {
    let dir = std::env::temp_dir().join(format!("nmo_one_core_batches_{}", std::process::id()));
    let session = |shards: usize, record: bool| {
        let (probe, seen) = SpeBatchProbe::new();
        let mut builder = ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .config(NmoConfig::paper_default(200))
            .threads(4)
            .sink(probe)
            .stream_options(StreamOptions { window_ns: 50_000, shards, ..StreamOptions::default() })
            .workload(Box::new(StreamBench::new(60_000, 2)));
        if record {
            builder = builder.trace_dir(dir.clone());
        }
        (builder.build().expect("session builds"), seen)
    };
    let take = |seen: &parking_lot::Mutex<Vec<SeenBatch>>| std::mem::take(&mut *seen.lock());

    let mut paths = Vec::new();
    let (thread_less, seen) = session(1, false);
    let profile = thread_less.run().expect("thread-less run");
    paths.push(("thread-less", profile.processed_samples, take(&seen)));
    for shards in [1, 4] {
        let (streaming, seen) = session(shards, shards == 1);
        let profile = streaming.run_streaming().expect("streaming run");
        assert_eq!(profile.stream.expect("stream stats").shards, shards as u64);
        let path = if shards == 1 { "1 shard" } else { "4 shards" };
        paths.push((path, profile.processed_samples, take(&seen)));
    }
    let (probe, seen) = SpeBatchProbe::new();
    let mut sinks: Vec<Box<dyn AnalysisSink>> = vec![Box::new(probe)];
    let reader = TraceReader::open(&dir).expect("open trace");
    let stats = reader.replay(&mut sinks).expect("replay");
    paths.push(("replay", stats.samples, take(&seen)));
    assert_eq!(paths[3].2, paths[1].2, "a one-segment replay delivers the recorded batches");
    std::fs::remove_dir_all(&dir).ok();

    for (path, processed, seen) in paths {
        assert_eq!(seen.iter().map(|b| b.samples as u64).sum::<u64>(), processed, "{path}");
        let mut cores: Vec<usize> = seen.iter().filter_map(|b| b.core).collect();
        cores.sort_unstable();
        cores.dedup();
        assert_eq!(cores, [0, 1, 2, 3], "{path}: every core's samples are delivered");
        for b in &seen {
            assert!(b.core.is_some(), "{path}: an SPE batch without a core: {b:?}");
            assert_eq!(b.sample_cores, Vec::from_iter(b.core), "{path}: {b:?}");
            assert!(b.in_window, "{path}: a sample outside its batch's window: {b:?}");
        }
    }
}

/// SPE loss is a run total, not a per-drain payload: on the golden STREAM
/// row (period 64, where most selected samples are lost) every SPE batch the
/// pipeline delivers carries samples — a drain that found none publishes
/// nothing — and together they are every processed sample. Window closes
/// and late batches come out as on a second run.
#[test]
fn every_spe_batch_carries_samples_and_loss_stays_a_run_total() {
    let run = || {
        let (probe, seen) = SpeBatchProbe::new();
        let profile = ProfileSession::builder()
            .machine_config(MachineConfig::ampere_altra_max())
            .config(NmoConfig::paper_default(64))
            .cores([0])
            .sink(probe)
            .workload(Box::new(StreamBench::new(2_000_000, 1)))
            .build()
            .expect("session builds")
            .run_streaming()
            .expect("streaming run");
        let sizes: Vec<usize> = seen.lock().iter().map(|b| b.samples).collect();
        (profile, sizes)
    };
    let (profile, sizes) = run();
    let empty = sizes.iter().filter(|&&n| n == 0).count();
    assert_eq!(empty, 0, "{empty} of {} SPE batches carry no sample", sizes.len());
    assert_eq!(sizes.iter().sum::<usize>() as u64, profile.processed_samples);
    assert!(profile.spe.collisions > 0, "the run's loss is in its totals: {:?}", profile.spe);
    let stats = profile.stream.expect("stream stats");
    let again = run().0.stream.expect("stream stats");
    assert_eq!(
        (stats.windows_closed, stats.late_batches),
        (again.windows_closed, again.late_batches)
    );
}
