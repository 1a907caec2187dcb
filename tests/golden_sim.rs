//! The two simulated workloads `benchmark/` tracks, and a small PageRank on
//! the small test machine, as literal counts: what "every simulated count
//! `same`" has meant in every perf PR since 13.
//!
//! One simulated core, so nothing here depends on how the host schedules
//! threads, and every number must come out the same in the test profile and
//! under `--release`. These are the first rows of ROADMAP item 1; its
//! committed golden file and `NMO_BLESS` stay that item's.

use nmo_repro::arch_sim::MachineConfig;
use nmo_repro::nmo::{accuracy, NmoConfig, Profile, ProfileSession, Workload};
use nmo_repro::workloads::{PageRank, StreamBench};

fn session(machine: MachineConfig, period: u64, workload: Box<dyn Workload>) -> ProfileSession {
    ProfileSession::builder()
        .machine_config(machine)
        .config(NmoConfig::paper_default(period))
        .cores([0])
        .workload(workload)
        .build()
        .expect("session builds")
}

/// `[elapsed_cycles, mem_access, l1_hits, l2_hits, slc_hits, dram_accesses]`.
fn machine_counts(p: &Profile) -> [u64; 6] {
    let c = &p.counters;
    [p.elapsed_cycles, c.mem_access, c.l1_hits, c.l2_hits, c.slc_hits, c.dram_accesses]
}

/// `[bus_read_bytes, bus_write_bytes]`: a dirty eviction shows here, in the
/// written-back bytes, and in no hit or miss count.
fn bus_bytes(p: &Profile) -> [u64; 2] {
    [p.counters.bus_read_bytes, p.counters.bus_write_bytes]
}

/// Eq. 1 to the six places the benchmark prints.
fn accuracy_6(p: &Profile, period: u64) -> String {
    format!("{:.6}", accuracy(p.counters.mem_access, p.processed_samples, period))
}

#[test]
fn pagerank_at_period_4096_post_hoc() {
    let p =
        session(MachineConfig::ampere_altra_max(), 4096, Box::new(PageRank::new(1 << 15, 8, 6)))
            .run()
            .expect("run");
    assert_eq!(machine_counts(&p), [16_963_686, 5_701_632, 3_514_670, 2_014_433, 271, 172_258]);
    assert_eq!(bus_bytes(&p), [11_024_512, 5_535_040]);
    assert_eq!(p.spe.records_written, 1_402);
    assert_eq!(p.processed_samples, 1_402);
    assert_eq!(accuracy_6(&p, 4096), "0.992816");
}

#[test]
fn stream_at_period_64_streaming() {
    let p =
        session(MachineConfig::ampere_altra_max(), 64, Box::new(StreamBench::new(2_000_000, 1)))
            .run_streaming()
            .expect("run");
    assert_eq!(machine_counts(&p), [29_727_599, 6_000_000, 5_250_000, 0, 0, 750_000]);
    assert_eq!(bus_bytes(&p), [48_000_000, 31_574_016]);
    assert_eq!(
        [p.spe.samples_selected, p.spe.records_written, p.spe.collisions, p.spe.truncated_records],
        [96_781, 16_384, 9_422, 70_975]
    );
    assert_eq!(p.processed_samples, 16_384);
    assert_eq!(accuracy_6(&p, 64), "0.174763");
}

/// The small machine's caches are small enough that every level hits and
/// dirty lines are written back, so an eviction the LRU order gets wrong
/// moves these counts.
#[test]
fn small_pagerank_on_the_small_machine_at_period_4096_post_hoc() {
    let p = session(MachineConfig::small_test(), 4096, Box::new(PageRank::new(1 << 12, 8, 2)))
        .run()
        .expect("run");
    assert_eq!(machine_counts(&p), [814_769, 270_336, 151_343, 81_655, 14_615, 22_723]);
    assert_eq!(bus_bytes(&p), [1_454_272, 385_344]);
    assert_eq!(p.spe.records_written, 66);
    assert_eq!(p.processed_samples, 66);
}
