//! The two simulator-driven workloads: `sim_pagerank_p4096` (post-hoc
//! delivery) and `sim_stream_p64_live` (serial streaming delivery).
//!
//! Each repetition interleaves the matched unprofiled baseline — the same
//! workload on a bare `Machine` — with the profiled run, so host drift hits
//! both. One simulated core: with more, simulated time depends on how the
//! host schedules the workload threads (ROADMAP Open item 1), and these
//! workloads exist to report simulated statistics that repeat exactly.
//!
//! The profiled run drives the session through its public stages
//! (`build` → `Workload::setup` → `start`/`start_streaming` →
//! `Workload::run` → `verify` → `finish`), which is what
//! `ProfileSession::run` / `run_streaming` do internally; doing it here puts
//! a span and a timer at each stage boundary.

use std::time::Instant;

use arch_sim::{Machine, MachineConfig, MachineCounters};
use nmo::{
    Annotations, BandwidthSink, CapacitySink, LatencySink, NmoConfig, ProfileSession, RegionSink,
    Workload,
};
use spe::SpeStatsSnapshot;
use workloads::{PageRank, StreamBench};

use crate::run::{latency_report, region_report, timed_ms, Ctx, RepOutcome, Stopwatch};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// PageRank at the paper's recommended period, post-hoc `start` +
    /// `finish` (monitor thread, then `analyze`).
    PagerankP4096,
    /// STREAM at period 64, `start_streaming` with the default
    /// `StreamOptions` (one shard on one core: `pump_loop`/`consumer_loop`).
    StreamP64Live,
}

impl SimKind {
    pub fn period(self) -> u64 {
        match self {
            SimKind::PagerankP4096 => 4096,
            SimKind::StreamP64Live => 64,
        }
    }

    fn live(self) -> bool {
        self == SimKind::StreamP64Live
    }
}

/// Workload sizes: `(a, b, c)` are `PageRank::new`'s arguments, or
/// `StreamBench::new(a, b)`.
pub type SimSize = (usize, usize, usize);

fn make_workload(kind: SimKind, size: SimSize) -> Box<dyn Workload> {
    match kind {
        SimKind::PagerankP4096 => Box::new(PageRank::new(size.0, size.1, size.2)),
        SimKind::StreamP64Live => Box::new(StreamBench::new(size.0, size.1)),
    }
}

/// Every simulated statistic of one repetition. Two repetitions of the same
/// workload must produce equal values, whatever the host did meanwhile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimStats {
    baseline: MachineCounters,
    profiled: MachineCounters,
    elapsed_cycles: u64,
    processed_samples: u64,
    spe: SpeStatsSnapshot,
    aux_records: u64,
    collision_flagged: u64,
    truncated_flagged: u64,
}

pub fn setup(kind: SimKind, full: SimSize, warmup: SimSize, ctx: &Ctx) {
    let _span = ctx.tracer.span("workload.setup");
    // The full-size input, built and placed on a machine once…
    let machine = Machine::new(MachineConfig::ampere_altra_max());
    let mut workload = make_workload(kind, full);
    let _ = workload.setup(&machine, &Annotations::new());
    drop((workload, machine));
    // …and a small run through both arms, so every code path, thread kind
    // and allocator size class has been used before the first timed one.
    let _ = rep(kind, warmup, ctx, &mut None);
}

/// One repetition; `first` holds the first repetition's simulated
/// statistics, which every later one must equal.
pub fn rep(
    kind: SimKind,
    size: SimSize,
    ctx: &Ctx,
    first: &mut Option<(SimSize, SimStats)>,
) -> RepOutcome {
    let mut out = RepOutcome::default();
    let tracer = &ctx.tracer;
    let cores = [0usize];

    // -- baseline: the workload on a bare machine --------------------------
    let baseline_started = Instant::now();
    let machine = {
        let _span = tracer.span("arch_sim.machine_new");
        Machine::new(MachineConfig::ampere_altra_max())
    };
    let annotations = Annotations::new();
    let (workload_setup_ms, prepared) = timed_ms(|| {
        let _span = tracer.span("workload.setup");
        let mut workload = make_workload(kind, size);
        workload.setup(&machine, &annotations).map(|()| workload)
    });
    let (baseline_run_ms, ran) = timed_ms(|| {
        let _span = tracer.span("workload.run");
        prepared.and_then(|mut workload| {
            workload.run(&machine, &annotations, &cores).map(|_| workload.verify())
        })
    });
    match ran {
        Ok(verified) => out.check(verified, || "baseline: Workload::verify() failed".into()),
        Err(e) => {
            out.failures.push(format!("baseline run failed: {e}"));
            return out;
        }
    }
    let baseline = machine.counters();
    let baseline_cycles = machine.makespan_cycles();
    drop(machine);
    let baseline_s = baseline_started.elapsed().as_secs_f64();

    // -- profiled: the same workload under a session -----------------------
    let watch = Stopwatch::start();
    let mut workload = make_workload(kind, size);
    let (build_ms, session) = timed_ms(|| {
        let _span = tracer.span("session.build");
        let mut builder = ProfileSession::builder()
            .machine_config(MachineConfig::ampere_altra_max())
            .config(NmoConfig::paper_default(kind.period()))
            .cores(cores)
            .sink(CapacitySink::default())
            .sink(BandwidthSink::default())
            .sink(LatencySink::new());
        if kind.live() {
            builder = builder.sink(RegionSink::new());
        }
        builder.build()
    });
    let session = match session {
        Ok(session) => session,
        Err(e) => {
            out.failures.push(format!("session build failed: {e}"));
            return out;
        }
    };
    {
        let _span = tracer.span("workload.setup");
        if let Err(e) = workload.setup(session.machine(), &session.annotations()) {
            out.failures.push(format!("Workload::setup failed: {e}"));
            return out;
        }
    }
    let session_started = Instant::now();
    let (start_ms, active) = timed_ms(|| {
        let _span = tracer.span("session.start");
        if kind.live() {
            session.start_streaming()
        } else {
            session.start()
        }
    });
    let active = match active {
        Ok(active) => active,
        Err(e) => {
            out.failures.push(format!("session start failed: {e}"));
            return out;
        }
    };
    let (profiled_run_ms, ran) = timed_ms(|| {
        let _span = tracer.span("workload.run");
        workload.run(active.machine(), active.annotations_ref(), active.cores())
    });
    if let Err(e) = ran {
        out.failures.push(format!("profiled run failed: {e}"));
        return out;
    }
    out.check(workload.verify(), || "profiled: Workload::verify() failed".into());
    let (finish_ms, profile) = timed_ms(|| {
        let _span = tracer.span("session.finish");
        active.finish()
    });
    out.session_s = session_started.elapsed().as_secs_f64();
    out.wall_s = watch.wall_s();
    out.cpu_s = watch.cpu_s();
    let profile = match profile {
        Ok(profile) => profile,
        Err(e) => {
            out.failures.push(format!("finish failed: {e}"));
            return out;
        }
    };

    // -- checks -------------------------------------------------------------
    let stats = SimStats {
        baseline,
        profiled: profile.counters,
        elapsed_cycles: profile.elapsed_cycles,
        processed_samples: profile.processed_samples,
        spe: profile.spe,
        aux_records: profile.aux_records,
        collision_flagged: profile.collision_flagged_records,
        truncated_flagged: profile.truncated_flagged_records,
    };
    out.check(profile.counters.mem_access == baseline.mem_access, || {
        format!(
            "profiled mem_access {} != baseline {}",
            profile.counters.mem_access, baseline.mem_access
        )
    });
    match first {
        Some((first_size, first_stats)) if *first_size == size => {
            out.check(*first_stats == stats, || {
                format!(
                    "simulated statistics changed between repetitions:\n{first_stats:?}\n{stats:?}"
                )
            });
        }
        Some(_) => {}
        None => *first = Some((size, stats)),
    }
    out.live_delivered = latency_report(&profile).map_or(0, |l| l.total_count());
    out.attempted = profile.processed_samples;
    out.delivered = out.live_delivered.min(out.attempted);
    out.accuracy = nmo::accuracy(baseline.mem_access, profile.processed_samples, kind.period());
    if let Some(regions) = region_report(&profile) {
        let attributed =
            regions.per_tag.iter().map(|t| t.samples).sum::<u64>() + regions.untagged_samples;
        let delivered = out.live_delivered;
        out.check(attributed == delivered, || {
            format!("RegionProfile attributes {attributed} samples, LatencyProfile {delivered}")
        });
    }

    // -- per-layer values ---------------------------------------------------
    let ops = baseline.mem_access.max(1) as f64;
    let estimate = profile.processed_samples as f64 * kind.period() as f64;
    out.layer.extend([
        ("sim_overhead_frac", profile.elapsed_cycles as f64 / baseline_cycles.max(1) as f64 - 1.0),
        ("sim_accuracy_err", (1.0 - estimate / ops).abs()),
        ("sim_mops_per_host_s", ops / out.wall_s / 1e6),
        ("host_slowdown", out.wall_s / baseline_s),
        ("arch_sim.ns_per_op", baseline_run_ms * 1e6 / ops),
        ("arch_sim.elapsed_cycles", profile.elapsed_cycles as f64),
        ("arch_sim.mem_access", profile.counters.mem_access as f64),
        ("arch_sim.l1_hits", profile.counters.l1_hits as f64),
        ("arch_sim.l2_hits", profile.counters.l2_hits as f64),
        ("arch_sim.slc_hits", profile.counters.slc_hits as f64),
        ("arch_sim.dram_accesses", profile.counters.dram_accesses as f64),
        ("arch_sim.observer_cycles", profile.counters.observer_cycles as f64),
        ("spe.observer_ns_per_op", (profiled_run_ms - baseline_run_ms) * 1e6 / ops),
        ("spe.samples_selected", profile.spe.samples_selected as f64),
        ("spe.records_written", profile.spe.records_written as f64),
        ("spe.collisions", profile.spe.collisions as f64),
        ("spe.truncated_records", profile.spe.truncated_records as f64),
        ("spe.interrupts", profile.spe.interrupts as f64),
        ("spe.overhead_cycles", profile.spe.overhead_cycles as f64),
        ("perf_sub.aux_records", profile.aux_records as f64),
        ("perf_sub.collision_flagged", profile.collision_flagged_records as f64),
        ("perf_sub.truncated_flagged", profile.truncated_flagged_records as f64),
        ("session.build_ms", build_ms),
        ("session.start_ms", start_ms),
        (if kind.live() { "session.finish_ms" } else { "session.posthoc_finish_ms" }, finish_ms),
        ("workloads.setup_ms", workload_setup_ms),
    ]);
    if let Some(stream) = profile.stream {
        out.layer.extend([
            ("stream.batches_published", stream.batches_published as f64),
            ("stream.batches_dropped", stream.batches_dropped as f64),
            ("stream.late_batches", stream.late_batches as f64),
            ("stream.windows_closed", stream.windows_closed as f64),
            ("stream.bus_high_watermark", stream.bus_high_watermark as f64),
            (
                "stream.samples_per_batch",
                out.live_delivered as f64 / stream.batches_published.max(1) as f64,
            ),
        ]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Tracer;
    use crate::spec;
    use std::sync::Arc;

    #[test]
    fn both_simulated_workloads_repeat_exactly_at_smoke_size() {
        let ctx = Ctx {
            sizes: spec::SMOKE,
            seed: 0,
            tracer: Arc::new(Tracer::new(false)),
            out_dir: std::env::temp_dir(),
        };
        for (kind, size) in [
            (SimKind::PagerankP4096, spec::SMOKE.pagerank),
            (SimKind::StreamP64Live, spec::SMOKE.stream),
        ] {
            let mut first = None;
            for _ in 0..2 {
                let out = rep(kind, size, &ctx, &mut first);
                assert_eq!(out.failures, Vec::<String>::new(), "{kind:?}");
                assert!(out.attempted > 0 && out.failed() == 0, "{kind:?}: {out:?}");
                assert!(out.accuracy > 0.0 && out.accuracy <= 1.0);
            }
        }
    }
}
