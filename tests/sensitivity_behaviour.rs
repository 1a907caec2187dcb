//! Integration tests of the sensitivity behaviour the paper measures
//! (Section VII), at reduced scale: these check the *shape* invariants the
//! figures rely on, with generous tolerances so they stay robust.

use nmo_repro::arch_sim::MachineConfig;
use nmo_repro::nmo::{measure, NmoConfig, NmoError, Profile, ProfileSession, RunMeasurement};
use nmo_repro::spe::OverheadModel;
use nmo_repro::workloads::StreamBench;

const ELEMS: usize = 400_000;
const THREADS: usize = 4;

/// One run of the workload under `config`: what [`measure`] drives.
fn run(config: NmoConfig) -> Result<Profile, NmoError> {
    ProfileSession::builder()
        .machine_config(MachineConfig::ampere_altra_max())
        .config(config)
        .threads(THREADS)
        .workload(Box::new(StreamBench::new(ELEMS, 1)))
        .build()?
        .run()
}

/// Each configuration measured against one unprofiled baseline.
fn measured<const N: usize>(configs: [NmoConfig; N]) -> [RunMeasurement; N] {
    let runs = measure(run, configs).expect("every run succeeds");
    runs.try_into().expect("one measurement per configuration")
}

#[test]
fn accuracy_is_high_at_moderate_periods_and_degrades_at_tiny_periods() {
    // An extreme sampling rate with a deliberately slow drain loses samples:
    // at period 16 each core produces more record bytes than the whole aux
    // buffer holds, so a slow consumer forces truncation.
    let slow_drain = OverheadModel {
        drain_cycles_per_byte: 400.0,
        drain_service_latency_cycles: 10_000_000,
        ..OverheadModel::default()
    };
    let tiny = NmoConfig { overhead: slow_drain, ..NmoConfig::paper_default(16) };
    let [moderate, tiny] = measured([NmoConfig::paper_default(4096), tiny]);
    let (acc_moderate, acc_tiny) = (moderate.accuracy(), tiny.accuracy());
    assert!(acc_moderate > 0.85, "moderate-period accuracy too low: {acc_moderate}");
    assert!(
        acc_tiny < acc_moderate,
        "tiny period with slow drain must lose accuracy: tiny={acc_tiny} moderate={acc_moderate}"
    );
}

#[test]
fn overhead_decreases_with_larger_sampling_periods() {
    let [small, large] =
        measured([NmoConfig::paper_default(512), NmoConfig::paper_default(32_768)]);
    let (small, large) = (small.overhead(), large.overhead());
    assert!(small > large, "more samples must cost more time: {small} vs {large}");
    // The large-period overhead is tiny; allow head-room for run-to-run
    // variance from DRAM-contention ordering between simulated cores.
    assert!(large < 0.10, "overhead at period 32768 should be small: {large}");
}

#[test]
fn aux_buffer_below_minimum_collects_nothing_but_larger_buffers_do() {
    // 2 pages is below the 4-page functional minimum of Figure 9. That
    // minimum is the paper's observation entered as a constant
    // (`OverheadModel::min_functional_aux_pages`), not something the model
    // derives, so this checks the constant is honoured, not the cause.
    let two_pages = NmoConfig { auxbuf_pages_override: Some(2), ..NmoConfig::paper_default(1024) };
    let too_small = run(two_pages).expect("2-page run");
    assert_eq!(
        too_small.processed_samples, 0,
        "an aux buffer below the functional minimum must produce nothing"
    );

    let normal = run(NmoConfig::paper_default(1024)).expect("default-buffer run");
    assert!(normal.processed_samples > 0);
    // Time overhead of the non-functional configuration is also ~zero, as in
    // Figure 9's smallest point.
    assert_eq!(too_small.counters.observer_cycles, 0);
    assert!(normal.counters.observer_cycles > 0);
}

#[test]
fn larger_aux_buffers_do_not_lose_more_samples_than_smaller_ones() {
    let samples_with_pages = |mib: u64| {
        let cfg = NmoConfig { auxbufsize_mib: mib, ..NmoConfig::paper_default(512) };
        run(cfg).expect("profiled run")
    };
    let small = samples_with_pages(1); // 16 pages
    let large = samples_with_pages(8); // 128 pages
    let small_lost = small.spe.truncated_records;
    let large_lost = large.spe.truncated_records;
    assert!(
        large_lost <= small_lost,
        "a larger aux buffer must not truncate more: {large_lost} > {small_lost}"
    );
    assert!(large.processed_samples as f64 >= 0.9 * small.processed_samples as f64);
}

#[test]
fn per_core_stats_cover_all_profiled_cores() {
    let p = run(NmoConfig::paper_default(2048)).expect("profiled run");
    assert_eq!(p.per_core_spe.len(), THREADS);
    let total: u64 = p.per_core_spe.iter().map(|(_, s)| s.records_written).sum();
    assert_eq!(total, p.spe.records_written);
    // With a static partition every core contributes samples.
    assert!(p.per_core_spe.iter().all(|(_, s)| s.records_written > 0));
}

#[test]
fn collision_flags_propagate_to_aux_records_under_pressure() {
    // Force heavy truncation with a pathological drain model and check the
    // profiler observes PERF_AUX_FLAG_COLLISION-flagged records, as NMO does.
    let slow = OverheadModel {
        drain_cycles_per_byte: 2_000.0,
        drain_service_latency_cycles: 50_000_000,
        ..OverheadModel::default()
    };
    // Period 16 produces ~1.2 MiB of records per core, exceeding the 1 MiB
    // aux buffer, so a slow consumer guarantees truncation.
    let cfg = NmoConfig { overhead: slow, ..NmoConfig::paper_default(16) };
    let p = run(cfg).expect("profiled run");
    assert!(p.spe.truncated_records > 0, "expected aux-buffer pressure");
    assert!(
        p.collision_flagged_records > 0,
        "truncation must surface as collision-flagged AUX records"
    );
}
