//! Cross-crate integration tests: workloads → machine → SPE → perf buffers →
//! NMO runtime → analysis, end to end.

use nmo_repro::arch_sim::MachineConfig;
use nmo_repro::nmo::{
    BandwidthSink, CapacitySink, LatencySink, Mode, NmoConfig, Profile, ProfileSession, RegionSink,
    SampleLogSink,
};
use nmo_repro::workloads::{
    bfs::GraphKind, BfsBench, CfdBench, InMemAnalytics, PageRank, StreamBench, Workload,
};

/// A session on the paper machine with every shipped sink registered: a
/// profile holds exactly what its sinks reported.
fn run_profiled(workload: Box<dyn Workload>, threads: usize, period: u64) -> Profile {
    ProfileSession::builder()
        .machine_config(MachineConfig::ampere_altra_max())
        .config(NmoConfig::paper_default(period))
        .threads(threads)
        .workload(workload)
        .sink(CapacitySink::default())
        .sink(BandwidthSink::default())
        .sink(RegionSink::new())
        .sink(LatencySink::new())
        .sink(SampleLogSink::new())
        .build()
        .and_then(ProfileSession::run)
        .expect("profiling session")
}

#[test]
fn stream_profile_attributes_samples_to_all_three_arrays() {
    let profile = run_profiled(Box::new(StreamBench::new(200_000, 2)), 4, 500);
    assert!(profile.processed_samples > 100);
    let regions = profile.regions().expect("a RegionSink was registered");
    let names: Vec<&str> = regions.per_tag.iter().map(|t| t.name.as_str()).collect();
    for expected in ["a", "b", "c"] {
        assert!(names.contains(&expected), "missing samples in array {expected}: {names:?}");
    }
    // Triad reads b and c, writes a: stores should concentrate in `a`.
    let a = regions.per_tag.iter().find(|t| t.name == "a").unwrap();
    let b = regions.per_tag.iter().find(|t| t.name == "b").unwrap();
    assert!(a.stores > a.loads / 2, "a is the store target: {a:?}");
    assert!(b.stores < b.samples / 10, "b is read-only in triad: {b:?}");
    // All samples fall inside the triad phase instances.
    let in_phase: u64 = regions.per_phase.iter().map(|(_, n)| *n).sum();
    assert!(in_phase as f64 > 0.95 * profile.processed_samples as f64);
}

#[test]
fn cfd_profile_shows_indirection_traffic_and_phase() {
    let profile = run_profiled(Box::new(CfdBench::new(4_000, 2)), 4, 400);
    assert!(profile.processed_samples > 100);
    let regions = profile.regions().expect("a RegionSink was registered");
    let vars = regions.per_tag.iter().find(|t| t.name == "variables");
    let normals = regions.per_tag.iter().find(|t| t.name == "normals");
    assert!(vars.is_some_and(|t| t.samples > 0), "variables must be sampled");
    assert!(normals.is_some_and(|t| t.samples > 0), "normals must be sampled");
    assert_eq!(profile.phases.len(), 1);
    assert_eq!(profile.phases[0].name, "computation loop");
}

#[test]
fn bfs_profile_collects_samples_with_low_collision_rate() {
    let profile = run_profiled(Box::new(BfsBench::new(1 << 13, 8, GraphKind::Uniform)), 4, 500);
    assert!(profile.processed_samples > 50);
    // BFS is latency-bound: sample production is slow, so losses are rare.
    let lost = profile.spe.collisions + profile.spe.truncated_records;
    assert!(
        (lost as f64) < 0.05 * profile.spe.samples_selected as f64,
        "BFS should lose few samples: lost {lost} of {}",
        profile.spe.samples_selected
    );
}

#[test]
fn pagerank_capacity_saturates_after_load_phase() {
    let profile = run_profiled(Box::new(PageRank::new(1 << 12, 8, 3)), 4, 1000);
    // The capacity series reaches its peak early (during the load phase) and
    // stays there (PageRank keeps the whole graph resident).
    let points = &profile.capacity.points;
    assert!(!points.is_empty());
    let peak = profile.capacity.peak_gib();
    assert!(peak > 0.0);
    let first_peak_idx = points.iter().position(|p| (p.rss_gib - peak).abs() < 1e-9).unwrap();
    assert!(
        first_peak_idx < points.len() / 2,
        "PageRank should saturate memory in the first half of the run"
    );
    assert!((profile.capacity.final_gib() - peak).abs() < 1e-9);
}

#[test]
fn inmem_analytics_bandwidth_is_periodic_across_sweeps() {
    let profile = run_profiled(Box::new(InMemAnalytics::new(600, 800, 20, 3)), 4, 1000);
    // Each ALS sweep re-reads the ratings: the phase list alternates and the
    // bandwidth series is non-trivial.
    let names: Vec<&str> = profile.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names.iter().filter(|n| **n == "als-user-sweep").count(), 3);
    assert_eq!(names.iter().filter(|n| **n == "als-item-sweep").count(), 3);
    assert!(profile.bandwidth.total_bytes > 0);
}

#[test]
fn capacity_only_mode_runs_without_spe_and_without_overhead() {
    let config =
        NmoConfig { enabled: true, mode: Mode::None, track_rss: true, ..Default::default() };
    let profile = ProfileSession::builder()
        .machine_config(MachineConfig::ampere_altra_max())
        .config(config)
        .threads(2)
        .workload(Box::new(StreamBench::new(100_000, 1)))
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(profile.processed_samples, 0);
    assert_eq!(profile.counters.observer_cycles, 0, "no SPE => no profiling overhead");
    assert!(profile.capacity.peak_bytes > 0);
    assert!(profile.bandwidth.total_bytes > 0);
    // No SPE, no backend: the machine's own counters still count.
    assert!(profile.counters.mem_access > 0);
    assert!(profile.backends.is_empty());
}

#[test]
fn profile_csv_reports_are_written_and_parse_back() {
    let profile = run_profiled(Box::new(StreamBench::new(50_000, 1)), 2, 200);
    let dir = std::env::temp_dir().join(format!("nmo_it_csv_{}", std::process::id()));
    let files = profile.write_csv_reports(&dir).unwrap();
    // samples, capacity, bandwidth, latency, regions, phases, plus the
    // perf-stat counts read from the machine's counters.
    assert_eq!(files.len(), 7);
    assert!(files.iter().any(|f| f.ends_with("_latency.csv")));
    for f in &files {
        let content = std::fs::read_to_string(f).unwrap();
        let mut lines = content.lines();
        let header = lines.next().unwrap();
        assert!(header.contains(','), "header must be CSV: {header}");
        // Every data row has the same number of fields as the header.
        let ncols = header.split(',').count();
        for line in lines {
            assert_eq!(line.split(',').count(), ncols, "malformed row in {f}: {line}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn samples_count_scales_inversely_with_period() {
    let counts: Vec<u64> = [250u64, 500, 1000]
        .iter()
        .map(|&period| {
            run_profiled(Box::new(StreamBench::new(300_000, 1)), 2, period).processed_samples
        })
        .collect();
    assert!(counts[0] > counts[1] && counts[1] > counts[2], "{counts:?}");
    // samples * period should be roughly constant (Figure 7 linearity).
    let products: Vec<f64> =
        counts.iter().zip([250.0f64, 500.0, 1000.0]).map(|(c, p)| *c as f64 * p).collect();
    let max = products.iter().cloned().fold(f64::MIN, f64::max);
    let min = products.iter().cloned().fold(f64::MAX, f64::min);
    assert!(max / min < 1.3, "inverse-linearity violated: {products:?}");
}
