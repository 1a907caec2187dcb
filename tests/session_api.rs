//! End-to-end coverage of the `ProfileSession` API: every paper workload runs
//! under one session on the `small_test` machine with the SPE backend
//! registered explicitly, and each analysis sink must produce non-empty
//! output. The `perf stat` counts are the machine's own retire counters,
//! which no observer may perturb.

use nmo_repro::arch_sim::{Machine, MachineConfig, MachineCounters};
use nmo_repro::nmo::{
    AnalysisReport, BandwidthSink, CapacitySink, NmoConfig, Profile, ProfileSession, RegionSink,
    SampleLogSink, SpeBackend, Workload,
};
use nmo_repro::workloads::{
    bfs::GraphKind, BfsBench, CfdBench, InMemAnalytics, PageRank, StreamBench,
};

const THREADS: usize = 2;

fn tiny_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(StreamBench::new(40_000, 2)),
        Box::new(CfdBench::new(2_000, 2)),
        Box::new(BfsBench::new(1 << 12, 6, GraphKind::Uniform)),
        Box::new(PageRank::new(1 << 11, 8, 2)),
        Box::new(InMemAnalytics::new(200, 400, 10, 2)),
    ]
}

fn run_session(workload: Box<dyn Workload>) -> (String, Profile) {
    let name = workload.name().to_string();
    let profile = ProfileSession::builder()
        .machine_config(MachineConfig::small_test())
        .config(NmoConfig { name: name.clone(), ..NmoConfig::paper_default(100) })
        .threads(THREADS)
        .backend(SpeBackend::new())
        .sink(CapacitySink::default())
        .sink(BandwidthSink::default())
        .sink(RegionSink::default())
        .sink(SampleLogSink::new())
        .workload(workload)
        .build()
        .unwrap_or_else(|e| panic!("{name}: session build failed: {e}"))
        .run()
        .unwrap_or_else(|e| panic!("{name}: session run failed: {e}"));
    (name, profile)
}

#[test]
fn every_workload_profiles_under_one_session_with_the_spe_backend() {
    for workload in tiny_workloads() {
        let (name, profile) = run_session(workload);

        assert_eq!(profile.backends, ["spe"], "{name}: the SPE backend must be active");

        // The SPE backend sampled addresses.
        assert!(profile.processed_samples > 0, "{name}: no SPE samples");
        assert_eq!(
            Some(profile.processed_samples as usize),
            profile.samples().map(<[_]>::len),
            "{name}: sample count mismatch"
        );

        assert_eq!(
            profile.counters.loads + profile.counters.stores,
            profile.counters.mem_access,
            "{name}: loads + stores must equal mem_access"
        );

        // The workload itself completed and verified (run() errors otherwise)
        // and reported its operation counts.
        let report = profile.workload.expect("workload report present");
        assert!(report.mem_ops > 0, "{name}: empty workload report");

        // Every sink produced non-empty output.
        assert_eq!(profile.analyses.len(), 4, "{name}: expected 4 sink reports");
        for record in &profile.analyses {
            assert!(
                !record.report.is_empty(),
                "{name}: sink '{}' produced empty output",
                record.sink
            );
        }

        // Level 1 (capacity): the workload touched memory, so RSS rose.
        assert!(profile.capacity.peak_bytes > 0, "{name}: empty capacity series");
        assert!(!profile.capacity.points.is_empty(), "{name}: no capacity points");

        // Level 2 (bandwidth): bus traffic was recorded.
        assert!(profile.bandwidth.total_bytes > 0, "{name}: empty bandwidth series");
        assert!(!profile.bandwidth.points.is_empty(), "{name}: no bandwidth points");

        // Level 3 (regions): samples were attributed to the workload's tags.
        let regions = profile
            .analyses
            .iter()
            .find_map(|a| match &a.report {
                AnalysisReport::Regions(r) if a.sink == "regions" => Some(r.clone()),
                _ => None,
            })
            .expect("region sink report present");
        assert_eq!(regions.total_samples(), profile.processed_samples, "{name}: unattributed");
        assert!(
            regions.per_tag.iter().any(|t| t.samples > 0),
            "{name}: no samples attributed to any tag"
        );
        // Profile::regions() is the sink's report.
        assert_eq!(profile.regions().map(|r| r.per_tag.len()), Some(regions.per_tag.len()));
    }
}

#[test]
fn session_reports_are_deterministic_per_configuration() {
    // Two identical sessions over the same deterministic workload must agree
    // on the machine's exact counts (the SPE jitter is seeded per core, so
    // sample counts agree as well).
    let (_, a) = run_session(Box::new(StreamBench::new(20_000, 1)));
    let (_, b) = run_session(Box::new(StreamBench::new(20_000, 1)));
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.processed_samples, b.processed_samples);
}

/// Loads, stores, branches and bulk work on core 0 in three engine
/// attachments, optionally flushing the observer mid-attachment and between
/// them; returns the machine's counters once the engines have detached.
fn retire_three_phases(machine: &Machine, flush_mid_run: bool) -> MachineCounters {
    let region = machine.alloc("data", 1 << 20).expect("alloc");
    for phase in 0..3u64 {
        let mut engine = machine.attach(0).expect("attach");
        for i in 0..10_000u64 {
            engine.load(region.start + (phase * 10_000 + i) * 8, 8);
            if i % 3 == 0 {
                engine.store(region.start + i * 64, 8);
            }
            if i % 7 == 0 {
                engine.branch(0x40_0000 + i);
            }
            engine.cpu_work(2);
            if flush_mid_run && i == 5_000 {
                engine.flush_observer();
            }
        }
        drop(engine);
        if flush_mid_run {
            machine.flush_observer(0).expect("core is idle");
        }
    }
    machine.counters()
}

/// The `perf stat` counts are the machine's own: SPE at period 64, woken
/// about every 64 operations and charging cycles for what it writes, leaves
/// every retire counter where a bare machine puts it, with or without
/// flushes mid-run.
#[test]
fn observers_never_perturb_the_retire_counters() {
    for flush_mid_run in [false, true] {
        let bare = retire_three_phases(&Machine::new(MachineConfig::small_test()), flush_mid_run);
        let active = ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .config(NmoConfig::paper_default(64))
            .threads(1)
            .build()
            .expect("session builds")
            .start()
            .expect("session starts");
        retire_three_phases(active.machine(), flush_mid_run);
        let profile = active.finish().expect("finish");
        assert_eq!(profile.backends, ["spe"]);
        assert!(profile.processed_samples > 0);
        assert!(profile.counters.observer_cycles > 0, "SPE charged the core");
        let c = &profile.counters;
        assert_eq!(c.mem_access, 30_000 + 3 * 3_334);
        let retired =
            |c: &MachineCounters| (c.loads, c.stores, c.branches, c.instructions, c.mem_access);
        assert_eq!(retired(c), retired(&bare), "flush {flush_mid_run}");
    }
}
