//! Adaptive streaming: the pipeline tunes itself mid-run. An
//! `AdaptiveController` samples the sharded bus (throughput, worst-lane
//! occupancy, drops, consumer idle time) over a sliding window and
//! actuates three knobs while the workload runs — the active shard count
//! (parking and re-activating pump workers), the pump drain cadence, and
//! the backpressure mode (`DropNewest` ↔ `Block`) — against a target loss
//! budget.
//!
//! ```text
//! cargo run --release --example adaptive_stream
//! ```
//!
//! The run prints the live snapshot including the current active width,
//! then replays the controller's full decision log: every width, cadence,
//! and policy move with the rule that fired it.

use std::time::Duration;

use nmo_repro::arch_sim::MachineConfig;
use nmo_repro::nmo::{
    AdaptiveOptions, BackpressurePolicy, ControlAction, NmoConfig, NmoError, ProfileSession,
    StreamOptions, Workload,
};
use nmo_repro::workloads::StreamBench;

fn main() -> Result<(), NmoError> {
    let session = ProfileSession::builder()
        .machine_config(MachineConfig::ampere_altra_max())
        .config(NmoConfig {
            name: "adaptive_stream".into(),
            aux_watermark_bytes: Some(16 * 1024),
            ..NmoConfig::paper_default(64)
        })
        .threads(32)
        .stream_options(StreamOptions {
            window_ns: 250_000,
            // Tiny lanes put real pressure on the pipeline so the
            // controller has something to react to.
            bus_capacity: 4,
            backpressure: BackpressurePolicy::DropNewest,
            // Allocate 8 shards; the controller decides how many run.
            shards: 8,
            adaptive: Some(AdaptiveOptions {
                // An aggressive control loop for a short demo run; the
                // defaults (2 ms interval, window of 4) suit long sessions.
                control_interval: Duration::from_micros(500),
                window: 2,
                loss_budget: 0.01,
                ..AdaptiveOptions::default()
            }),
        })
        .build()?;

    let mut workload = StreamBench::new(1_000_000, 3);
    workload.setup(session.machine(), &session.annotations())?;

    let active = session.start_streaming()?;
    println!("== NMO adaptive stream ==");
    println!(
        "{:>10}  {:>8}  {:>8}  {:>10}  {:>6}",
        "sim time", "windows", "batches", "samples", "width"
    );

    let mut decisions = Vec::new();
    let report = std::thread::scope(|s| {
        let machine = active.machine();
        let annotations = active.annotations_ref();
        let cores = active.cores();
        let workload = &mut workload;
        let handle = s.spawn(move || workload.run(machine, annotations, cores));
        while !handle.is_finished() {
            if let Some(snap) = active.poll_snapshot() {
                println!(
                    "{:>8.2}ms  {:>8}  {:>8}  {:>10}  {:>6}",
                    snap.last_time_ns as f64 * 1e-6,
                    snap.windows_closed,
                    snap.batches,
                    snap.spe_samples,
                    snap.active_shards,
                );
                decisions = snap.adaptive;
            }
            #[allow(clippy::disallowed_methods)] // example: live-report cadence
            std::thread::sleep(Duration::from_millis(10));
        }
        handle.join().expect("workload thread panicked")
    })?;
    if let Some(snap) = active.poll_snapshot() {
        decisions = snap.adaptive;
    }

    let profile = active.finish()?;
    println!("\n{}", profile.summary());
    println!("workload issued {} memory ops", report.mem_ops);

    println!("\ncontroller decision log ({} decisions):", decisions.len());
    for d in &decisions {
        let what = match d.action {
            ControlAction::SetActiveShards { from, to } => {
                format!("width {from} -> {to} shards")
            }
            ControlAction::SetPollInterval { from, to } => {
                format!("cadence {from:?} -> {to:?}")
            }
            ControlAction::SetBackpressure { from, to } => {
                format!("backpressure {from:?} -> {to:?}")
            }
        };
        println!("  tick {:>4}  {:<40}  [{}]", d.tick, what, d.reason);
    }
    Ok(())
}
