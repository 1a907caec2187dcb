//! Quickstart: profile a small STREAM run with NMO and print every level of
//! the memory-centric profile (capacity, bandwidth, regions).
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use nmo_repro::arch_sim::MachineConfig;
use nmo_repro::nmo::{
    BandwidthSink, CapacitySink, NmoConfig, NmoError, ProfileSession, RegionSink,
};
use nmo_repro::workloads::StreamBench;

fn main() -> Result<(), NmoError> {
    // The simulated platform of Table II (Ampere Altra Max-like), profiled
    // with NMO configured the way the paper runs it: loads + stores sampled
    // with ARM SPE, RSS and bandwidth tracking on. The same configuration can
    // be pulled from the NMO_* environment variables with
    // `NmoConfig::from_env()?`. The session registers its default backend,
    // SPE sampling; the sinks are one per level (a session given none
    // registers the first two by itself).
    let profile = ProfileSession::builder()
        .machine_config(MachineConfig::ampere_altra_max())
        .config(NmoConfig { name: "quickstart".into(), ..NmoConfig::paper_default(4096) })
        .threads(8)
        // A 2M-element STREAM Triad on 8 threads.
        .workload(Box::new(StreamBench::new(2_000_000, 2)))
        .sink(CapacitySink::default())
        .sink(BandwidthSink::default())
        .sink(RegionSink::new())
        .build()?
        .run()?;

    let report = profile.workload.unwrap_or_default();

    println!("== NMO quickstart ==");
    println!("{}", profile.summary());
    println!();
    println!("workload issued {} memory ops and {} FLOPs", report.mem_ops, report.flops);
    println!(
        "level 1 (capacity):  peak RSS {:.3} GiB ({:.2}% of the 256 GiB node)",
        profile.capacity.peak_gib(),
        profile.capacity.peak_utilization * 100.0
    );
    println!(
        "level 2 (bandwidth): peak {:.1} GiB/s, mean {:.1} GiB/s, arithmetic intensity {:?}",
        profile.bandwidth.peak_gib_per_s,
        profile.bandwidth.mean_gib_per_s,
        profile.bandwidth.arithmetic_intensity
    );

    let regions = profile.regions().expect("a RegionSink was registered");
    println!(
        "level 3 (regions):   {} SPE samples attributed as follows:",
        profile.processed_samples
    );
    for tag in &regions.per_tag {
        println!(
            "  {:10}  {:>8} samples ({} loads / {} stores), coverage {:.1}%",
            tag.name,
            tag.samples,
            tag.loads,
            tag.stores,
            tag.coverage * 100.0
        );
    }
    println!("\nperf-stat backend counts:");
    let c = &profile.counters;
    for (event, count) in [
        ("mem_access", c.mem_access),
        ("ld_retired", c.loads),
        ("st_retired", c.stores),
        ("inst_retired", c.instructions),
        ("br_retired", c.branches),
    ] {
        println!("  {event:14} {count:>14}");
    }
    println!(
        "accuracy vs hardware counter baseline (Eq. 1): {:.1}%",
        profile.accuracy_against(profile.counters.mem_access) * 100.0
    );

    let written = profile.write_csv_reports("results/quickstart")?;
    println!("\nwrote {} CSV report files under results/quickstart/", written.len());
    Ok(())
}
