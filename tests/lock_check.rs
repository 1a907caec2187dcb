//! Cross-validation of the runtime lock-order checker against the real
//! pipeline: run a small multi-threaded streaming session with the checker
//! forced on, then inspect the acquisition graph and hold-time report.
//!
//! The test observes the orders actually taken at runtime (including
//! through trait objects and closures) and panics on inversion. It is also
//! the in-tree example of the `NMO_LOCK_CHECK=1` workflow described in the
//! README.

use nmo_repro::arch_sim::MachineConfig;
use nmo_repro::nmo::{BandwidthSink, CapacitySink, NmoConfig, ProfileSession, StreamOptions};
use nmo_repro::workloads::StreamBench;
use parking_lot::{check, lock_report};

#[test]
fn streaming_session_under_lock_checker_is_inversion_free() {
    check::force_enable();

    let result = ProfileSession::builder()
        .machine_config(MachineConfig::small_test())
        .config(NmoConfig::paper_default(200))
        .threads(2)
        .sink(CapacitySink::default())
        .sink(BandwidthSink::default())
        // shards: 2 forces the sharded pipeline (parallel pump workers,
        // per-shard merger) so the merger/coordinator locks are exercised.
        .stream_options(StreamOptions { window_ns: 100_000, shards: 2, ..StreamOptions::default() })
        .workload(Box::new(StreamBench::new(40_000, 2)))
        .build()
        .expect("session builds")
        .run_streaming()
        // Any lock-order inversion anywhere in the pipeline panics inside
        // this call (worker threads propagate panics through join).
        .expect("streaming run completes under NMO_LOCK_CHECK");
    assert!(result.processed_samples > 0);

    // The named locks of the streaming pipeline all show up in the report
    // with real acquisition counts and plausible hold times.
    let report = lock_report();
    let stat = |name: &str| {
        report
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("`{name}` missing from report: {report:?}"))
    };
    for name in ["bus.inner", "session.coordinator", "session.merger", "machine.core"] {
        let s = stat(name);
        assert!(s.acquisitions > 0, "{name}: {s:?}");
        assert!(s.max_hold_ns > 0, "{name}: {s:?}");
        // A streaming lock held for a second would be a bug in itself.
        assert!(s.max_hold_ns < 1_000_000_000, "{name} held too long: {s:?}");
    }

    // The observed acquisition graph must agree with the documented order:
    // `Round::publish` takes the coordinator lock strictly *after* releasing
    // the bus lock, so no `bus.inner -> session.coordinator` edge may ever
    // appear in the same held-while-acquiring chain in reverse. Stronger:
    // the edge set over the named streaming locks must be acyclic (the
    // checker would have panicked otherwise, but assert it explicitly so
    // the graph is surfaced on failure).
    let edges = check::order_edges();
    assert!(!edges.is_empty(), "checker saw no nested acquisitions at all");
    for (from, to) in &edges {
        assert!(
            !edges.contains(&(to.clone(), from.clone())),
            "two-cycle {from} <-> {to} in observed order graph: {edges:?}"
        );
    }
}
