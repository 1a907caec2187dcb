//! Profile-guided page migration: SPE-driven hot-page tiering, end to end.
//!
//! PageRank (pull-model power iteration over an RMAT graph, the same kernel
//! as `workloads::PageRank`) runs on the Table II machine extended with a
//! CXL-style remote node, with half of its pages homed remotely
//! (`TierSplit { 0.5 }`) and the SLC shrunk to 128 KiB so the gather loop
//! actually reaches DRAM. Two identically configured runs differ only in the tiering
//! policy:
//!
//! * **`NoMigration`** — the control arm: pages stay where first touch put
//!   them, so the hot rank/degree pages homed remotely keep hammering the
//!   narrow remote link and every remote fill queues behind them.
//! * **`TopKHot`** — after every closed window the `HotPageTracker`
//!   promotes the hottest remote pages to local DDR through
//!   `Machine::migrate_page`, under a bounded page budget (a real tiering
//!   daemon has finite migration bandwidth), so the cold streamed edge
//!   pages stay remote.
//!
//! The graph is loaded once, then each epoch runs one power iteration with
//! `ActiveSession::tiering_step` actuating between epochs — migrations land
//! at fixed points of the simulated timeline. The example prints the
//! per-epoch migration log and the before/settled per-tier latency table,
//! and asserts the headline result: once the hot pages are local, the
//! remote link decongests and the settled remote-DRAM p99 drops below the
//! `NoMigration` level, toward the local tier.
//!
//! ```text
//! cargo run --release --example hot_page_migration
//! ```
//!
//! The default run uses a single worker because CI pins its headline
//! (`1441c (NoMigration) -> 1280c (TopKHot)`, 48 migrations) at one worker;
//! lifting that default re-pins those numbers, which ROADMAP item 18 leaves
//! to a change of its own. Multi-threaded runs work too (`NMO_HPM_THREADS`);
//! there a window closes (and the policy decides) only once every core has
//! delivered a sample past it, so the slowest core sets the pace of the
//! decisions.
//!
//! Environment knobs:
//!
//! | Variable                 | Meaning                                  | Default |
//! |--------------------------|------------------------------------------|---------|
//! | `NMO_HPM_THREADS`        | worker threads (= profiled cores)        | `1`     |
//! | `NMO_HPM_EPOCHS`         | power iterations per run                 | `5`     |
//! | `NMO_HPM_TOPK`           | pages promoted per closed window         | `8`     |
//! | `NMO_HPM_BUDGET`         | total promotion budget, pages            | `48`    |
//! | `NMO_HPM_REMOTE_BW_DIV`  | remote peak bandwidth (local / this)     | `256`   |
//! | `NMO_HPM_PERIOD`         | SPE sampling period                      | `256`   |

use nmo_repro::arch_sim::{MachineConfig, PlacementPolicy};
use nmo_repro::nmo::tiering::{HotPageTracker, NoMigration, TieringPolicy, TieringReport, TopKHot};
use nmo_repro::nmo::{
    LatencyHistogram, LatencyProfile, LatencySink, NmoConfig, NmoError, Profile, ProfileSession,
    SampleLogSink, StreamOptions,
};
use nmo_repro::workloads::generators::{rmat_graph, CsrGraph};
use nmo_repro::workloads::{env_or, parallel_chunks, pc};

const DAMPING: f64 = 0.85;

/// The Table II tiered preset reshaped for the demo: half the pages homed
/// remotely, a deliberately narrow remote link (so remote-homed hot pages
/// visibly queue — the situation migration fixes), and a 128 KiB SLC so the
/// ~9 MiB PageRank working set spills to memory every iteration.
fn machine_config(remote_bw_div: f64) -> MachineConfig {
    let mut cfg =
        MachineConfig::ampere_altra_max_tiered(PlacementPolicy::TierSplit { local_fraction: 0.5 });
    cfg.slc.size_bytes = 128 * 1024;
    let local = cfg.mem.nodes[0];
    cfg.mem.nodes[1].peak_bytes_per_cycle = local.peak_bytes_per_cycle / remote_bw_div.max(1.0);
    cfg
}

struct RunConfig {
    threads: usize,
    epochs: usize,
    period: u64,
    remote_bw_div: f64,
}

/// The simulated-address-space layout of the PageRank arrays.
struct PrRegions {
    offsets: u64,
    edges: u64,
    ranks: u64,
    ranks_next: u64,
    out_degree: u64,
}

/// One tiered PageRank run under `policy`: the graph loads once, then each
/// epoch runs one pull-model power iteration with a tiering step (drain →
/// window closes → policy → migrations) between the epochs.
fn run_policy(
    label: &str,
    policy: impl TieringPolicy + 'static,
    graph: &CsrGraph,
    rc: &RunConfig,
) -> Result<(Profile, TieringReport, Vec<u64>), NmoError> {
    println!("\n-- {label} --");
    let session = ProfileSession::builder()
        .machine_config(machine_config(rc.remote_bw_div))
        .config(NmoConfig {
            name: format!("hot_page_migration_{label}"),
            aux_watermark_bytes: Some(16 * 1024),
            ..NmoConfig::paper_default(rc.period)
        })
        .threads(rc.threads)
        .sink(LatencySink::default())
        .sink(SampleLogSink::new())
        .stream_options(StreamOptions { window_ns: 250_000, ..StreamOptions::default() })
        .build()?;

    let n = graph.num_vertices;
    let m = graph.num_edges();
    // Counted as `workloads::PageRank` counts them: occurrences as an edge
    // source, a sink lifted to 1.
    let mut out_degree = vec![0u32; n];
    for &t in &graph.edges {
        out_degree[t as usize] += 1;
    }
    for d in &mut out_degree {
        *d = (*d).max(1);
    }
    let mut ranks = vec![1.0 / n as f64; n];
    let mut ranks_next = vec![0.0f64; n];

    let mut active = session.start()?;
    let regions = {
        let machine = active.machine();
        let r = PrRegions {
            offsets: machine.alloc("offsets", (n as u64 + 1) * 4)?.start,
            edges: machine.alloc("edges", m as u64 * 4)?.start,
            ranks: machine.alloc("ranks", n as u64 * 8)?.start,
            ranks_next: machine.alloc("ranks_next", n as u64 * 8)?.start,
            out_degree: machine.alloc("out_degree", n as u64 * 4)?.start,
        };
        // Load phase (once): stream every array, first-touching (and
        // TierSplit-homing) every page.
        parallel_chunks(machine, active.cores(), n, &mut [(); 0], |vs, _, engine| {
            for v in vs {
                engine.store_at(pc::PR_LOAD, r.offsets + (v * 4) as u64, 4);
                engine.store_at(pc::PR_LOAD, r.ranks + (v * 8) as u64, 8);
                engine.store_at(pc::PR_LOAD, r.ranks_next + (v * 8) as u64, 8);
                engine.store_at(pc::PR_LOAD, r.out_degree + (v * 4) as u64, 4);
                for e in graph.offsets[v] as usize..graph.offsets[v + 1] as usize {
                    engine.store_at(pc::PR_LOAD, r.edges + (e * 4) as u64, 4);
                }
                engine.cpu_work(2);
            }
        })?;
        r
    };

    let mut tracker = HotPageTracker::new(policy);
    // Simulated end time of each epoch, for the per-epoch latency split.
    let mut epoch_ends = Vec::with_capacity(rc.epochs);
    for epoch in 0..rc.epochs {
        // One pull-model power iteration (the PageRank gather kernel).
        let (ranks_ref, out_degree, r) = (&ranks, &out_degree, &regions);
        parallel_chunks(
            active.machine(),
            active.cores(),
            n,
            &mut ranks_next,
            |vs, next, engine| {
                for (v, next) in vs.zip(next) {
                    engine.load_at(pc::PR_GATHER, r.offsets + (v * 4) as u64, 4);
                    engine.load_at(pc::PR_GATHER, r.offsets + ((v + 1) * 4) as u64, 4);
                    let mut acc = 0.0f64;
                    let e0 = graph.offsets[v] as usize;
                    for (j, &u) in graph.neighbors(v).iter().enumerate() {
                        let u = u as usize;
                        engine.load_at(pc::PR_GATHER, r.edges + ((e0 + j) * 4) as u64, 4);
                        engine.load_at(pc::PR_GATHER, r.ranks + (u * 8) as u64, 8);
                        engine.load_at(pc::PR_GATHER, r.out_degree + (u * 4) as u64, 4);
                        acc += ranks_ref[u] / out_degree[u] as f64;
                    }
                    engine.store_at(pc::PR_GATHER, r.ranks_next + (v * 8) as u64, 8);
                    *next = (1.0 - DAMPING) / n as f64 + DAMPING * acc;
                    engine.flops((2 * graph.degree(v) + 3) as u64);
                    engine.cpu_work(4);
                }
            },
        )?;
        std::mem::swap(&mut ranks, &mut ranks_next);

        // Actuate: tiering_step drains synchronously (every record was
        // decoded as its core published it, so it sees all of them),
        // closes the elapsed windows, and applies the policy's decisions.
        let applied = active.tiering_step(&mut tracker)?;
        epoch_ends.push(active.machine().makespan_ns());
        let rss = active.machine().rss_bytes_by_node();
        println!(
            "  epoch {epoch}: {:>3} pages promoted this step, RSS local {:>5.1} MiB / remote {:>5.1} MiB",
            applied.len(),
            rss[0] as f64 / (1u64 << 20) as f64,
            rss[1] as f64 / (1u64 << 20) as f64,
        );
    }

    // PageRank sanity: ranks stay a (leaky) distribution.
    let sum: f64 = ranks.iter().sum();
    if !(ranks.iter().all(|r| *r >= 0.0 && r.is_finite()) && sum > 0.4 && sum < 1.05) {
        return Err(NmoError::Workload(format!("pagerank diverged: rank sum {sum}")));
    }
    let report = tracker.report();
    let mut profile = active.finish()?;
    // Surface the manually driven report on the profile, exactly like the
    // sink path would, so summary() and the CSV reports carry it.
    profile.attach_tiering(report.clone());
    Ok((profile, report, epoch_ends))
}

/// Split a run's decoded samples at the epoch boundaries and build one
/// latency profile per epoch.
fn per_epoch_latency(profile: &Profile, epoch_ends: &[u64]) -> Vec<LatencyProfile> {
    let mut epochs = vec![LatencyProfile::new(); epoch_ends.len()];
    for s in profile.samples().expect("a SampleLogSink was registered") {
        let epoch = epoch_ends.partition_point(|&end| end <= s.time_ns);
        if let Some(p) = epochs.get_mut(epoch) {
            p.record(s.source, s.latency);
        }
    }
    epochs
}

fn tier_line(label: &str, hist: &LatencyHistogram) {
    if hist.count() == 0 {
        println!("    {label:<22} (no samples)");
    } else {
        println!(
            "    {label:<22} {:>8} samples  p50 {:>7.0}c  p99 {:>7.0}c",
            hist.count(),
            hist.p50(),
            hist.p99()
        );
    }
}

fn main() -> Result<(), NmoError> {
    let rc = RunConfig {
        threads: env_or("NMO_HPM_THREADS", 1usize).max(1),
        epochs: env_or("NMO_HPM_EPOCHS", 5usize).max(2),
        period: env_or("NMO_HPM_PERIOD", 256u64).max(1),
        remote_bw_div: env_or("NMO_HPM_REMOTE_BW_DIV", 256.0f64),
    };
    println!("== profile-guided page migration: PageRank under TierSplit(0.5) ==");
    let graph = rmat_graph(1 << 17, 12, 0x9A6E);

    let (nomig_profile, _, nomig_epoch_ends) =
        run_policy("no-migration", NoMigration, &graph, &rc)?;
    let nomig_latency = nomig_profile.latency().expect("a LatencySink was registered");
    let (nomig_local, nomig_remote) = (nomig_latency.local_dram(), nomig_latency.remote_dram());
    tier_line("local DRAM", &nomig_local);
    tier_line("remote DRAM", &nomig_remote);
    assert!(nomig_remote.count() > 0, "control arm must see remote traffic");
    assert_eq!(nomig_profile.migrations.migrations, 0, "control arm never migrates");

    // Promote the hottest remote pages under a bounded budget: the
    // random-access rank/degree pages — highest DRAM heat per page — get
    // promoted; the streamed edge pages stay remote and keep the tier
    // observable.
    let topk = env_or("NMO_HPM_TOPK", 8usize).max(1);
    let budget = env_or("NMO_HPM_BUDGET", 48u64).max(1);
    let policy = TopKHot::new(topk, 1).with_budget(budget);
    let (topk_profile, topk_report, topk_epoch_ends) =
        run_policy("top-k-hot", policy, &graph, &rc)?;
    println!("  before the first migration:");
    tier_line("local DRAM", &topk_report.before.local_dram());
    tier_line("remote DRAM", &topk_report.before.remote_dram());
    println!("  settled (after the last migration):");
    tier_line("local DRAM", &topk_report.settled.local_dram());
    tier_line("remote DRAM", &topk_report.settled.remote_dram());
    assert!(topk_report.migrations() > 0, "the policy promoted hot pages");
    assert!(topk_report.promoted_bytes() > 0);
    assert_eq!(topk_profile.migrations.migrations, topk_report.migrations());

    // Per-epoch, like-for-like comparison: the same power iteration of the
    // same graph, with and without the hot pages promoted.
    let nomig_epochs = per_epoch_latency(&nomig_profile, &nomig_epoch_ends);
    let topk_epochs = per_epoch_latency(&topk_profile, &topk_epoch_ends);
    println!("\n  per-epoch remote DRAM latency (NoMigration vs TopKHot):");
    println!(
        "    {:<7} {:>10} {:>9} {:>9}   {:>10} {:>9} {:>9}",
        "epoch", "nomig n", "p50", "p99", "topk n", "p50", "p99"
    );
    for (i, (nm, tk)) in nomig_epochs.iter().zip(&topk_epochs).enumerate() {
        let (nm_r, tk_r) = (nm.remote_dram(), tk.remote_dram());
        println!(
            "    {:<7} {:>10} {:>9.0} {:>9.0}   {:>10} {:>9.0} {:>9.0}",
            i,
            nm_r.count(),
            nm_r.p50(),
            nm_r.p99(),
            tk_r.count(),
            tk_r.p50(),
            tk_r.p99()
        );
    }

    // The headline: with the hot pages promoted, the narrow remote link
    // decongests and the remote-DRAM tail latency of the late (settled)
    // epochs drops from the NoMigration level toward the local tier.
    let last = rc.epochs - 1;
    let (nomig_last, topk_last) =
        (nomig_epochs[last].remote_dram(), topk_epochs[last].remote_dram());
    assert!(
        topk_last.count() > 0,
        "the budgeted policy leaves cold pages remote, keeping the tier observable"
    );
    assert!(
        topk_last.p99() < nomig_last.p99(),
        "remote p99 must drop after promotion: epoch {last}: {} vs NoMigration {}",
        topk_last.p99(),
        nomig_last.p99()
    );
    println!(
        "\n  epoch {last} remote DRAM p99: {:.0}c (NoMigration) -> {:.0}c (TopKHot); \
         local p99 {:.0}c",
        nomig_last.p99(),
        topk_last.p99(),
        topk_epochs[last].local_dram().p99()
    );

    // Migration counts surface in the summary line and the CSV reports.
    let summary = topk_profile.summary();
    assert!(summary.contains("page migrations"), "{summary}");
    println!("\n{summary}");
    let written = topk_profile.write_csv_reports("results/hot_page_migration")?;
    assert!(written.iter().any(|f| f.ends_with("_migrations.csv")));
    assert!(written.iter().any(|f| f.ends_with("_tiering.csv")));
    println!("wrote {} CSV report files under results/hot_page_migration/", written.len());
    Ok(())
}
