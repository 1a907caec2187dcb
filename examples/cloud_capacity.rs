//! Temporal capacity and bandwidth profiling of the two CloudSuite-style
//! workloads (the paper's Figures 2 and 3): PageRank shows an early load
//! phase that saturates memory usage and an early bandwidth peak; In-memory
//! Analytics (ALS) grows gradually and shows periodic bandwidth peaks, one
//! per sweep.
//!
//! ```text
//! cargo run --release --example cloud_capacity
//! ```

use nmo_repro::arch_sim::MachineConfig;
use nmo_repro::nmo::{Mode, NmoConfig, NmoError, Profile, ProfileSession};
use nmo_repro::workloads::{InMemAnalytics, PageRank, Workload};

fn run(name: &str, workload: Box<dyn Workload>, threads: usize) -> Result<Profile, NmoError> {
    // Levels 1 and 2 only: no SPE sampling and no backend, just capacity +
    // bandwidth (the profile's perf-stat counts are the machine's own).
    let config = NmoConfig {
        enabled: true,
        name: name.into(),
        mode: Mode::None,
        track_rss: true,
        ..Default::default()
    };
    ProfileSession::builder()
        .machine_config(MachineConfig::ampere_altra_max())
        .config(config)
        .threads(threads)
        .workload(workload)
        .build()?
        .run()
}

fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    let max = values.iter().cloned().fold(f64::MIN, f64::max).max(1e-12);
    values.iter().map(|v| BARS[((v / max) * 7.0).round().clamp(0.0, 7.0) as usize]).collect()
}

fn describe(profile: &Profile) {
    println!("--- {} ---", profile.name);
    println!(
        "peak RSS {:.3} GiB ({:.2}% of node), final RSS {:.3} GiB",
        profile.capacity.peak_gib(),
        profile.capacity.peak_utilization * 100.0,
        profile.capacity.final_gib()
    );
    let rss: Vec<f64> = profile.capacity.points.iter().map(|p| p.rss_gib).collect();
    println!("capacity over time : {}", sparkline(&rss));
    let bw: Vec<f64> = profile.bandwidth.points.iter().map(|p| p.gib_per_s).collect();
    println!("bandwidth over time: {}", sparkline(&bw));
    println!(
        "peak bandwidth {:.1} GiB/s, mean {:.1} GiB/s over {:.3} ms simulated",
        profile.bandwidth.peak_gib_per_s,
        profile.bandwidth.mean_gib_per_s,
        profile.elapsed_ns as f64 * 1e-6
    );
    println!("phases:");
    for phase in &profile.phases {
        println!(
            "  {:>16}  {:.3} ms .. {:.3} ms",
            phase.name,
            phase.start_ns as f64 * 1e-6,
            if phase.is_open() { f64::NAN } else { phase.end_ns as f64 * 1e-6 }
        );
    }
    println!();
}

fn main() -> Result<(), NmoError> {
    println!("== CloudSuite-style temporal profiles (Figures 2 and 3, scaled down) ==\n");
    let threads = 8;
    let pr = run("pagerank", Box::new(PageRank::new(1 << 15, 8, 4)), threads)?;
    describe(&pr);
    let als = run("inmem-analytics", Box::new(InMemAnalytics::new(4_000, 4_000, 40, 3)), threads)?;
    describe(&als);

    println!(
        "Note: the paper's absolute numbers (123.8 GiB / 52.3 GiB peaks, ~100 GiB/s) come from\n\
         full CloudSuite datasets on 32 cores; these runs are scaled down but preserve the\n\
         shapes — PageRank saturates early with an early bandwidth peak, ALS grows gradually\n\
         with one bandwidth peak per sweep."
    );
    Ok(())
}
