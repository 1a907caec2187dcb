//! Memory-region profiling of STREAM (the paper's Figure 4 scenario):
//! tag the three arrays, bracket the Triad kernel with `nmo_start`/`nmo_stop`,
//! and show where the sampled accesses land — per array and per thread.
//!
//! ```text
//! cargo run --release --example stream_regions
//! ```

use nmo_repro::arch_sim::MachineConfig;
use nmo_repro::nmo::{NmoConfig, NmoError, ProfileSession, RegionSink, SampleLogSink};
use nmo_repro::workloads::StreamBench;

fn main() -> Result<(), NmoError> {
    // 5 iterations of Triad on 8 threads, like the paper's Figure 4.
    let profile = ProfileSession::builder()
        .machine_config(MachineConfig::ampere_altra_max())
        .config(NmoConfig { name: "stream_regions".into(), ..NmoConfig::paper_default(2048) })
        .threads(8)
        .workload(Box::new(StreamBench::new(1_000_000, 5)))
        // The attribution, and the raw samples for the per-core footprints.
        .sink(RegionSink::new())
        .sink(SampleLogSink::new())
        .build()?
        .run()?;
    let regions = profile.regions().expect("a RegionSink was registered");
    let samples = profile.samples().expect("a SampleLogSink was registered");

    println!("== STREAM region profile (Figure 4 scenario) ==");
    println!(
        "{} samples total, {} outside any tag",
        regions.total_samples(),
        regions.untagged_samples
    );

    // Per-tag distribution: triad reads b and c and writes a, so the three
    // arrays should receive comparable sample counts with the stores
    // concentrated in `a`.
    for tag in &regions.per_tag {
        println!(
            "array {:2}: {:>8} samples  ({:>7} loads, {:>7} stores)  addresses {:#x}..{:#x}",
            tag.name, tag.samples, tag.loads, tag.stores, tag.min_addr, tag.max_addr
        );
    }

    // Per-phase counts: every sample should fall inside one of the 5 "triad"
    // phase instances.
    println!("\nper-phase sample counts:");
    for (phase, count) in &regions.per_phase {
        println!("  {phase:10} {count:>8}");
    }

    // Per-thread address footprints: with a static partition each core's
    // samples cover a distinct slice of each array (the "incremental line
    // segments" of the paper's scatter plot).
    println!("\nper-core sampled address ranges inside array 'a':");
    let a_tag = regions.per_tag.iter().find(|t| t.name == "a");
    if let Some(a_tag) = a_tag {
        for core in 0..8usize {
            let addrs: Vec<u64> = samples
                .iter()
                .filter(|s| {
                    s.core == core && s.vaddr >= a_tag.min_addr && s.vaddr <= a_tag.max_addr
                })
                .map(|s| s.vaddr)
                .collect();
            if let (Some(min), Some(max)) = (addrs.iter().min(), addrs.iter().max()) {
                println!(
                    "  core {core}: {:>6} samples in {:#x}..{:#x} (span {:.1} MiB)",
                    addrs.len(),
                    min,
                    max,
                    (max - min) as f64 / (1 << 20) as f64
                );
            }
        }
    }
    Ok(())
}
