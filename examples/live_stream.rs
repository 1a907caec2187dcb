//! Live streaming: profile a STREAM run through the online pipeline and
//! watch the windows arrive while the workload is still running — the mode
//! a long-running service is profiled in, where waiting for the process to
//! exit is not an option.
//!
//! ```text
//! cargo run --release --example live_stream
//! ```
//!
//! The session is started with `start_streaming()`: pump threads drain the
//! SPE backend and the machine's RSS/bandwidth probes into window-stamped
//! `SampleBatch`es on a bounded event bus, and
//! the sinks aggregate them incrementally. While the workload runs on its
//! own thread, the main thread polls `poll_snapshot()` for the live
//! readout. `run_streaming()` is the one-call version of the same pipeline.

use std::time::Duration;

use nmo_repro::arch_sim::MachineConfig;
use nmo_repro::nmo::{NmoConfig, NmoError, ProfileSession, StreamOptions, Workload};
use nmo_repro::workloads::StreamBench;

fn main() -> Result<(), NmoError> {
    let session = ProfileSession::builder()
        .machine_config(MachineConfig::ampere_altra_max())
        .config(NmoConfig {
            name: "live_stream".into(),
            // A small aux watermark keeps the SPE → pipeline lag bounded, so
            // samples land in their windows while those windows are still
            // open (the extra watermark interrupts are charged by the
            // overhead model, exactly like on hardware).
            aux_watermark_bytes: Some(16 * 1024),
            ..NmoConfig::paper_default(1024)
        })
        .threads(8)
        // 250 µs simulated windows so the live readout has plenty of them,
        // and 4 pipeline shards: the 8 profiled cores are drained by 4
        // parallel pump workers onto 4 bus lanes, consumed by 4 shard
        // consumers whose partial states merge deterministically (shards: 0
        // would auto-size to min(cores, available_parallelism)).
        .stream_options(StreamOptions { window_ns: 250_000, shards: 4, ..StreamOptions::default() })
        .build()?;

    // Workloads are set up against the session's machine before collection
    // starts (`run_streaming()` does this automatically when the workload is
    // registered on the builder).
    let mut workload = StreamBench::new(2_000_000, 3);
    workload.setup(session.machine(), &session.annotations())?;

    let active = session.start_streaming()?;
    println!("== NMO live stream ==");
    println!(
        "{:>10}  {:>8}  {:>8}  {:>10}  {:>9}",
        "sim time", "windows", "batches", "samples", "peak RSS"
    );

    let report = std::thread::scope(|s| {
        let machine = active.machine();
        let annotations = active.annotations_ref();
        let cores = active.cores();
        let workload = &mut workload;
        let handle = s.spawn(move || workload.run(machine, annotations, cores));

        // Live readout while the workload runs.
        while !handle.is_finished() {
            if let Some(snap) = active.poll_snapshot() {
                println!(
                    "{:>8.2}ms  {:>8}  {:>8}  {:>10}  {:>7.2}GiB",
                    snap.last_time_ns as f64 * 1e-6,
                    snap.windows_closed,
                    snap.batches,
                    snap.spe_samples,
                    snap.rss_peak_bytes as f64 / (1u64 << 30) as f64,
                );
            }
            #[allow(clippy::disallowed_methods)] // example: live-report cadence
            std::thread::sleep(Duration::from_millis(20));
        }
        handle.join().expect("workload thread panicked")
    })?;

    let profile = active.finish()?;
    println!("\n{}", profile.summary());
    println!("workload issued {} memory ops", report.mem_ops);
    if let Some(stats) = &profile.stream {
        println!(
            "pipeline: {} shards, {} batches over {} windows, {} dropped by backpressure, \
             {} late",
            stats.shards,
            stats.batches_published,
            stats.windows_closed,
            stats.batches_dropped,
            stats.late_batches,
        );
        // A window closes once every core has delivered a sample past it,
        // so under the default `Block` policy no batch arrives late.
        assert_eq!(stats.late_batches, 0, "{stats:?}");
    }
    println!(
        "final series (merged from the streamed windows): peak RSS {:.3} GiB, \
         peak BW {:.1} GiB/s, SPE loss {:.1}%",
        profile.capacity.peak_gib(),
        profile.bandwidth.peak_gib_per_s,
        profile.loss_fraction() * 100.0,
    );
    Ok(())
}
