//! Tiered-memory latency profiling: the paper's DDR-vs-CXL comparison,
//! end to end.
//!
//! A two-node machine (local DDR plus a CXL-style remote node with higher
//! idle latency and lower peak bandwidth) runs STREAM and PageRank under a
//! sweep of `TierSplit` page-placement ratios. For each ratio the profiler
//! builds per-data-source latency distributions (log2 histograms with
//! p50/p90/p99), per-node capacity and bandwidth splits, and verifies the
//! tiering signature: the remote-node latency mode sits strictly above the
//! local one. A final single-threaded streaming run proves the online
//! pipeline reproduces the post-hoc histograms exactly, while polling the
//! live per-tier sample counts.
//!
//! ```text
//! cargo run --release --example tiered_latency
//! ```
//!
//! Environment knobs:
//!
//! | Variable                  | Meaning                                   | Default       |
//! |---------------------------|-------------------------------------------|---------------|
//! | `NMO_TIER_RATIOS`         | comma-separated local-DDR page fractions  | `0.9,0.5,0.1` |
//! | `NMO_TIER_REMOTE_LAT_MULT`| remote idle latency (x local)             | `3`           |
//! | `NMO_TIER_REMOTE_BW_DIV`  | remote peak bandwidth (local / this)      | `4`           |
//! | `NMO_TIER_WORKLOAD`       | `stream`, `pagerank`, or `both`           | `both`        |
//! | `NMO_TIER_THREADS`        | worker threads (= profiled cores)         | `4`           |
//! | `NMO_TIER_PERIOD`         | SPE sampling period                       | `1024`        |

use nmo_repro::arch_sim::{MachineConfig, PlacementPolicy};
use nmo_repro::nmo::{
    BandwidthSink, CapacitySink, LatencySink, NmoConfig, NmoError, Profile, ProfileSession,
    Workload,
};
use nmo_repro::workloads::{env_or, PageRank, StreamBench};

fn ratios_from_env() -> Vec<f64> {
    std::env::var("NMO_TIER_RATIOS")
        .map(|v| v.split(',').filter_map(|r| r.trim().parse().ok()).collect())
        .ok()
        .filter(|v: &Vec<f64>| !v.is_empty())
        .unwrap_or_else(|| vec![0.9, 0.5, 0.1])
}

/// The Table II tiered preset with the remote node's latency and bandwidth
/// reshaped by the `NMO_TIER_*` knobs.
fn tiered_machine(placement: PlacementPolicy) -> MachineConfig {
    let lat_mult: u64 = env_or("NMO_TIER_REMOTE_LAT_MULT", 3).max(1);
    let bw_div: f64 = env_or("NMO_TIER_REMOTE_BW_DIV", 4.0f64).max(1.0);
    let mut cfg = MachineConfig::ampere_altra_max_tiered(placement);
    let local = cfg.mem.nodes[0];
    cfg.mem.nodes[1].latency_cycles = local.latency_cycles * lat_mult;
    cfg.mem.nodes[1].peak_bytes_per_cycle = local.peak_bytes_per_cycle / bw_div;
    cfg
}

fn workload_named(name: &str) -> Box<dyn Workload> {
    match name {
        "stream" => Box::new(StreamBench::new(1_500_000, 2)),
        _ => Box::new(PageRank::new(1 << 17, 12, 2)),
    }
}

fn run_once(
    workload: &str,
    placement: PlacementPolicy,
    threads: usize,
    period: u64,
) -> Result<Profile, NmoError> {
    ProfileSession::builder()
        .machine_config(tiered_machine(placement))
        .config(NmoConfig {
            name: format!("tiered_{workload}"),
            ..NmoConfig::paper_default(period)
        })
        .threads(threads)
        .sink(CapacitySink::default())
        .sink(BandwidthSink::default())
        .sink(LatencySink::default())
        .workload(workload_named(workload))
        .build()?
        .run()
}

fn print_latency_table(profile: &Profile) {
    println!(
        "    {:<16} {:>8} {:>9} {:>9} {:>9} {:>9}",
        "source", "samples", "mean", "p50", "p90", "p99"
    );
    let latency = profile.latency().expect("a LatencySink was registered");
    for (source, hist) in &latency.per_source {
        println!(
            "    {:<16} {:>8} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            format!("{source:?}"),
            hist.count(),
            hist.mean(),
            hist.p50(),
            hist.p90(),
            hist.p99()
        );
    }
}

fn main() -> Result<(), NmoError> {
    let ratios = ratios_from_env();
    let threads: usize = env_or("NMO_TIER_THREADS", 4).max(1);
    let period: u64 = env_or("NMO_TIER_PERIOD", 1024).max(1);
    let workloads: Vec<&str> = match std::env::var("NMO_TIER_WORKLOAD").as_deref() {
        Ok("stream") => vec!["stream"],
        Ok("pagerank") => vec!["pagerank"],
        _ => vec!["stream", "pagerank"],
    };

    println!("== tiered-memory latency profiling (local DDR + CXL-style remote node) ==");
    for workload in &workloads {
        println!("\n-- {workload}: TierSplit sweep over local fractions {ratios:?} --");
        for &local_fraction in &ratios {
            let placement = PlacementPolicy::TierSplit { local_fraction };
            let profile = run_once(workload, placement, threads, period)?;
            let latency = profile.latency().expect("a LatencySink was registered");
            let (local, remote) = (latency.local_dram(), latency.remote_dram());
            println!(
                "\n  local_fraction={local_fraction}: RSS local {:.3} GiB / remote {:.3} GiB, \
                 traffic local {:.1}% / remote {:.1}%",
                profile.capacity.peak_gib_on(0),
                profile.capacity.peak_gib_on(1),
                profile.bandwidth.node_traffic_share(0) * 100.0,
                profile.bandwidth.node_traffic_share(1) * 100.0,
            );
            print_latency_table(&profile);

            // The paper's tiering signature: with pages on both tiers the
            // DRAM latency distribution is bimodal — the remote mode sits
            // strictly above the local one.
            if local_fraction > 0.0 && local_fraction < 1.0 && remote.count() > 0 {
                assert!(
                    latency.dram_tiers_bimodal(),
                    "expected bimodal DRAM latencies: local p50 {} remote p50 {}",
                    local.p50(),
                    remote.p50()
                );
                println!(
                    "    => bimodal: local DRAM p50 {:.0}c < remote DRAM p50 {:.0}c",
                    local.p50(),
                    remote.p50()
                );
            }
        }
    }

    // Streaming == post-hoc for the latency histograms, live per-tier
    // counts along the way (single-threaded => deterministic simulation).
    println!("\n-- streaming equivalence (single-threaded STREAM, local_fraction=0.5) --");
    let placement = PlacementPolicy::TierSplit { local_fraction: 0.5 };
    let build = || -> Result<ProfileSession, NmoError> {
        ProfileSession::builder()
            .machine_config(tiered_machine(placement))
            .config(NmoConfig {
                name: "tiered_streaming".into(),
                ..NmoConfig::paper_default(period)
            })
            .threads(1)
            .sink(CapacitySink::default())
            .sink(BandwidthSink::default())
            .sink(LatencySink::default())
            .build()
    };

    let mut workload = StreamBench::new(400_000, 2);
    let session = build()?;
    workload.setup(session.machine(), &session.annotations())?;
    let active = session.start_streaming()?;
    let report = std::thread::scope(|s| {
        let machine = active.machine();
        let annotations = active.annotations_ref();
        let cores = active.cores();
        let workload = &mut workload;
        let handle = s.spawn(move || workload.run(machine, annotations, cores));
        let mut last = (0u64, 0u64);
        while !handle.is_finished() {
            if let Some(snap) = active.poll_snapshot() {
                let tiers = snap.dram_tier_counts();
                if tiers != last {
                    println!(
                        "    live: {} samples so far — DRAM local {} / remote {}",
                        snap.spe_samples, tiers.0, tiers.1
                    );
                    last = tiers;
                }
            }
            #[allow(clippy::disallowed_methods)] // example: live-report cadence
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        handle.join().expect("workload thread")
    })?;
    let streamed = active.finish()?;
    assert!(workload.verify(), "STREAM verification failed");
    println!("    workload moved {} memory ops", report.mem_ops);

    let mut post_workload = StreamBench::new(400_000, 2);
    let session = build()?;
    post_workload.setup(session.machine(), &session.annotations())?;
    let active = session.start()?;
    post_workload.run(active.machine(), active.annotations_ref(), active.cores())?;
    let post_hoc = active.finish()?;

    assert_eq!(
        streamed.latency(),
        post_hoc.latency(),
        "streaming latency histograms must equal the post-hoc scan"
    );
    println!(
        "    streaming == post-hoc: {} samples, identical per-source histograms",
        streamed.processed_samples
    );

    println!("\n{}", streamed.summary());
    let written = streamed.write_csv_reports("results/tiered_latency")?;
    println!("wrote {} CSV report files under results/tiered_latency/", written.len());
    Ok(())
}
