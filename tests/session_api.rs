//! End-to-end coverage of the `ProfileSession` API: every paper workload runs
//! under one session on the `small_test` machine with both sample backends
//! (ARM SPE sampling + perf-stat counting) registered explicitly, and each
//! analysis sink must produce non-empty output.

use nmo_repro::arch_sim::MachineConfig;
use nmo_repro::nmo::{
    AnalysisReport, BandwidthSink, CapacitySink, CounterBackend, NmoConfig, Profile,
    ProfileSession, RegionSink, SampleLogSink, SpeBackend, Workload,
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
        .backend(CounterBackend::new())
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
fn every_workload_profiles_under_one_session_with_both_backends() {
    for workload in tiny_workloads() {
        let (name, profile) = run_session(workload);

        // Both backends ran under the session.
        assert_eq!(
            profile.backends,
            vec!["spe".to_string(), "counters".to_string()],
            "{name}: both backends must be active"
        );

        // The SPE backend sampled addresses.
        assert!(profile.processed_samples > 0, "{name}: no SPE samples");
        assert_eq!(
            Some(profile.processed_samples as usize),
            profile.samples().map(<[_]>::len),
            "{name}: sample count mismatch"
        );

        // The counter backend agrees exactly with the machine-wide counter
        // (both observe the same retired-operation stream).
        assert_eq!(
            profile.perf_count("mem_access"),
            Some(profile.counters.mem_access),
            "{name}: counter backend disagrees with machine counters"
        );
        assert_eq!(
            profile.perf_count("ld_retired").unwrap() + profile.perf_count("st_retired").unwrap(),
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
        assert!(!regions.scatter.is_empty(), "{name}: empty region scatter");
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
    // on the counter backend's exact counts (the SPE jitter is seeded per
    // core, so sample counts agree as well).
    let (_, a) = run_session(Box::new(StreamBench::new(20_000, 1)));
    let (_, b) = run_session(Box::new(StreamBench::new(20_000, 1)));
    assert_eq!(a.perf_counts, b.perf_counts);
    assert_eq!(a.processed_samples, b.processed_samples);
}

/// At period 64 the SPE unit has the core wake the counter backend's observer
/// about every 64 operations, far more often than it asked for; it keeps its
/// counts to itself until 4 096 have accumulated or it is flushed or
/// detached. Nothing may be lost on the way, with or without flushes mid-run.
#[test]
fn perf_counts_are_exact_when_spe_at_period_64_shares_the_core_with_the_counters() {
    for flush_mid_run in [false, true] {
        let active = ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .config(NmoConfig::paper_default(64))
            .threads(1)
            .backend(SpeBackend::new())
            .backend(CounterBackend::new())
            .build()
            .expect("session builds")
            .start()
            .expect("session starts");
        let machine = active.machine();
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
                assert!(machine.flush_observer(0).expect("core is idle"), "observer flushed");
            }
        }
        let profile = active.finish().expect("finish");
        assert!(profile.processed_samples > 0);
        let count =
            |name: &str| profile.perf_counts.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        let c = &profile.counters;
        assert_eq!(c.mem_access, 30_000 + 3 * 3_334);
        assert_eq!(count("inst_retired"), Some(c.instructions), "flush {flush_mid_run}");
        assert_eq!(count("mem_access"), Some(c.mem_access), "flush {flush_mid_run}");
        assert_eq!(count("ld_retired"), Some(c.loads), "flush {flush_mid_run}");
        assert_eq!(count("st_retired"), Some(c.stores), "flush {flush_mid_run}");
        assert_eq!(count("br_retired"), Some(c.branches), "flush {flush_mid_run}");
    }
}
