//! Sharded-pipeline stress tests: the full 128-core machine at the
//! smallest sampling period, under both backpressure policies.
//!
//! What must hold (the acceptance criteria of the sharding refactor):
//!
//! * no deadlock — every configuration runs to completion, including lanes
//!   small enough to force constant backpressure;
//! * conservation — under `Block` nothing is lost (every decoded sample
//!   reaches every sink exactly once); under `DropNewest` the drops are
//!   counted per lane and rolled up, every sink saw the same delivered set,
//!   and what is missing from it is covered by the bus's drop count (the
//!   [`Profile`] is what was delivered — no side copy bypasses the bus);
//! * sharded == serial — a deterministic (single-worker-core) PageRank run
//!   produces bit-identical reports through 8 shards and through the serial
//!   pipeline (the STREAM equivalence lives in `tests/streaming.rs`).

use nmo_repro::arch_sim::MachineConfig;
use nmo_repro::nmo::{
    BackpressurePolicy, BandwidthSink, CapacitySink, LatencySink, NmoConfig, Profile,
    ProfileSession, RegionSink, SampleLogSink, StreamOptions,
};
use nmo_repro::workloads::{PageRank, StreamBench};

/// All 128 cores of the paper's machine, smallest sampling period, the
/// standard sink set, and an aggressive aux watermark so samples stream
/// while windows are open.
fn altra_stress_session(
    shards: usize,
    bus_capacity: usize,
    policy: BackpressurePolicy,
) -> ProfileSession {
    ProfileSession::builder()
        .machine_config(MachineConfig::ampere_altra_max())
        .config(NmoConfig { aux_watermark_bytes: Some(16 * 1024), ..NmoConfig::paper_default(1) })
        .threads(128)
        .sink(CapacitySink::default())
        .sink(BandwidthSink::default())
        .sink(RegionSink::default())
        .sink(LatencySink::default())
        .sink(SampleLogSink::new())
        .stream_options(StreamOptions {
            window_ns: 100_000,
            bus_capacity,
            backpressure: policy,
            shards,
        })
        .workload(Box::new(StreamBench::new(64_000, 1)))
        .build()
        .expect("session builds")
}

/// 128 simulated cores at period 1 through 8 shards with lanes too small to
/// keep up: the run must complete (no deadlock) and count every drop: what
/// the sinks did not see, the bus reports as dropped. The lanes hold 1
/// sample, so the overflow does not hang on host timing: a core's samples
/// span several 100 µs windows, its drain is one batch per window, and a
/// drain goes onto its lane under one hold — its first batch enters the
/// empty lane (a batch larger than the bound enters only an empty one) and
/// every later one is dropped however fast the consumer is.
#[test]
fn stress_128_cores_dropnewest_counts_drops_exactly() {
    let profile = altra_stress_session(8, 1, BackpressurePolicy::DropNewest)
        .run_streaming()
        .expect("streaming run completes");
    let stats = profile.stream.expect("stream stats");
    assert_eq!(stats.shards, 8);
    assert_eq!(stats.shards_requested, 8);
    assert!(stats.batches_published > 0, "{stats:?}");
    assert!(stats.windows_closed > 0, "{stats:?}");
    assert!(
        stats.batches_dropped > 0 && stats.items_dropped > 0,
        "1-sample lanes at period 1 must overflow: {stats:?}"
    );
    assert!(profile.processed_samples > 10_000, "{}", profile.processed_samples);
    // The loss is surfaced, not silent.
    assert!(profile.summary().contains("bus loss"), "{}", profile.summary());
    // Conservation: every sink saw the same delivered set, it is short of
    // what was decoded, and the bus's drop count covers the difference
    // (`items_dropped` also counts the RSS and bandwidth points of dropped
    // machine batches, hence `<=`).
    let delivered = profile.samples().expect("sample log").len() as u64;
    assert_eq!(delivered, profile.latency().expect("latency sink").total_count());
    assert!(delivered < profile.processed_samples, "drops must cost the sinks something");
    assert!(
        profile.processed_samples - delivered <= stats.items_dropped,
        "{} decoded, {delivered} delivered, {stats:?}",
        profile.processed_samples
    );
}

/// The lossless arm: `Block` backpressure on the same overloaded
/// configuration stalls the pump workers instead of dropping, so every
/// decoded sample reaches every sink exactly once — and nothing deadlocks
/// even with 8 pump workers blocking on 2-sample lanes.
#[test]
fn stress_128_cores_block_is_lossless_and_deadlock_free() {
    let profile = altra_stress_session(8, 2, BackpressurePolicy::Block)
        .run_streaming()
        .expect("streaming run completes");
    let stats = profile.stream.expect("stream stats");
    assert_eq!(stats.shards, 8);
    assert_eq!(stats.batches_dropped, 0, "{stats:?}");
    assert_eq!(stats.items_dropped, 0, "{stats:?}");
    assert!(profile.processed_samples > 10_000, "{}", profile.processed_samples);
    // Conservation: with no drops, the sample log kept, the latency sink
    // folded and the region sink attributed (to a tag or as untagged)
    // exactly the decoded sample set.
    assert_eq!(profile.samples().expect("sample log").len() as u64, profile.processed_samples);
    assert_eq!(profile.latency().expect("latency sink").total_count(), profile.processed_samples);
    let regions = profile.regions().expect("region sink");
    assert_eq!(regions.total_samples(), profile.processed_samples);
}

fn pagerank_session(shards: usize) -> ProfileSession {
    ProfileSession::builder()
        .machine_config(MachineConfig::small_test())
        .config(NmoConfig::paper_default(100))
        .threads(1)
        .sink(CapacitySink::default())
        .sink(BandwidthSink::default())
        .sink(RegionSink::default())
        .sink(LatencySink::default())
        .sink(SampleLogSink::new())
        .stream_options(StreamOptions { window_ns: 100_000, shards, ..StreamOptions::default() })
        .workload(Box::new(PageRank::new(1 << 11, 8, 2)))
        .build()
        .expect("session builds")
}

fn assert_profiles_equivalent(sharded: &Profile, serial: &Profile) {
    assert!(serial.samples().is_some_and(|s| s.len() as u64 == serial.processed_samples));
    assert_eq!(sharded.samples(), serial.samples(), "identical delivered sample streams");
    assert_eq!(sharded.processed_samples, serial.processed_samples);
    assert_eq!(sharded.capacity, serial.capacity);
    assert_eq!(sharded.bandwidth, serial.bandwidth);
    assert!(serial.latency().is_some());
    assert_eq!(sharded.latency(), serial.latency());
    let (rs, rp) = (sharded.regions().expect("regions"), serial.regions().expect("regions"));
    assert_eq!(rs.per_tag, rp.per_tag);
    assert_eq!(rs.per_phase, rp.per_phase);
    assert_eq!(rs.untagged_samples, rp.untagged_samples);
    assert_eq!(rs.total_samples(), rp.total_samples());
}

/// PageRank with an over-provisioned shard request (8 shards, 1 profiled
/// core) clamps to the serial-width pipeline and stays bit-for-bit equal to
/// the serial run — the shards>cores resolution pin on a second workload
/// (single worker core → deterministic simulation → bit-for-bit reports).
#[test]
fn pagerank_over_provisioned_shards_equal_serial() {
    let serial = pagerank_session(1).run_streaming().expect("serial run");
    let sharded = pagerank_session(8).run_streaming().expect("sharded run");
    assert!(serial.processed_samples > 500, "{}", serial.processed_samples);
    assert_profiles_equivalent(&sharded, &serial);
    let stats = sharded.stream.expect("stats");
    assert_eq!(stats.shards, 1, "effective shards clamp to the profiled core count");
    assert_eq!(stats.shards_requested, 8, "the original request is recorded");
    assert_eq!(stats.batches_dropped, 0);
}
