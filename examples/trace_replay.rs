//! Record once, replay many times: the trace store end to end.
//!
//! A streaming PageRank profiling run executes exactly once, with a
//! [`nmo::TraceWriterSink`] riding the sharded pipeline
//! (`ProfileSession::trace_dir`). Everything afterwards happens **without
//! re-simulation**, straight from the stored segments:
//!
//! 1. **Bit-for-bit replay** — a fresh `LatencySink` fed by a replay (one
//!    worker thread per segment) must produce the identical report the
//!    live run produced (asserted on the Debug rendering, the strictest
//!    cheap equality).
//! 2. **What-if tiering analysis** — the same trace replays through two
//!    [`HotPageTracker`] policies, `NoMigration` and `TopKHot`. Replay has
//!    no machine to actuate on, so decisions are *computed but not
//!    applied*: the example collects the distinct pages each policy would
//!    have promoted — a migration plan derived offline from a stored run —
//!    beside the number of decisions it took to name them.
//! 3. **Sliced indexed queries** — `TraceReader::replay_query` uses the
//!    per-segment footer index to prune blocks: the first half of the
//!    timeline, then a single core, each through its own `LatencySink`.
//!
//! The example prints the wall-clock of the original (simulate + record)
//! run against each replay, and asserts replays are faster — the point of
//! storing a trace is that revisiting a run costs milliseconds, not a
//! re-simulation.
//!
//! ```text
//! cargo run --release --example trace_replay
//! ```

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use nmo_repro::arch_sim::{MachineConfig, PlacementPolicy};
use nmo_repro::nmo::tiering::{
    HotPageTracker, MigrationDecision, NoMigration, TieringPolicy, TieringView, TopKHot,
};
use nmo_repro::nmo::trace::replay_finish;
use nmo_repro::nmo::{
    AnalysisReport, AnalysisSink, LatencySink, NmoConfig, NmoError, Profile, ProfileSession,
    StreamOptions, TraceQuery, TraceReader,
};
use nmo_repro::workloads::PageRank;
use parking_lot::Mutex;

/// What a wrapped policy decided over a replay: its decisions, the windows
/// it decided in, and the distinct pages they name. A replayed tracker never
/// applies a decision, so the hot remote pages stay remote in its view and
/// are proposed again at every close: the plan is the distinct pages, not
/// the decision count.
#[derive(Debug, Default)]
struct Plan {
    decisions: u64,
    windows: u64,
    pages: BTreeSet<u64>,
}

/// Wraps any [`TieringPolicy`] and records its [`Plan`], so the would-be
/// migration plan survives the replay (the boxed sink itself is consumed by
/// the sink registry).
struct WhatIf<P> {
    inner: P,
    plan: Arc<Mutex<Plan>>,
}

impl<P: TieringPolicy> TieringPolicy for WhatIf<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, window_index: u64, view: &TieringView<'_>) -> Vec<MigrationDecision> {
        let decided = self.inner.decide(window_index, view);
        if !decided.is_empty() {
            let mut plan = self.plan.lock();
            plan.decisions += decided.len() as u64;
            plan.windows += 1;
            plan.pages.extend(decided.iter().map(|d| d.page_addr));
        }
        decided
    }
}

fn what_if<P: TieringPolicy>(inner: P) -> (WhatIf<P>, Arc<Mutex<Plan>>) {
    let plan = Arc::new(Mutex::new(Plan::default()));
    (WhatIf { inner, plan: plan.clone() }, plan)
}

fn latency_debug(profile: &Profile) -> String {
    let record = profile
        .analyses
        .iter()
        .find(|r| r.sink == "latency")
        .expect("live run registered a LatencySink");
    format!("{:?}", record.report)
}

fn main() -> Result<(), NmoError> {
    let dir = std::env::temp_dir().join(format!("nmo_trace_replay_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // -- The one and only simulation: stream PageRank, record the trace. --
    println!("== trace replay: record a PageRank run once, revisit it offline ==");
    let started = Instant::now();
    let profile = ProfileSession::builder()
        .machine_config(MachineConfig::small_test_tiered(PlacementPolicy::TierSplit {
            local_fraction: 0.5,
        }))
        .config(NmoConfig::paper_default(100))
        .threads(4)
        .sink(LatencySink::default())
        .trace_dir(dir.clone())
        .stream_options(StreamOptions { window_ns: 100_000, shards: 4, ..StreamOptions::default() })
        .workload(Box::new(PageRank::new(1 << 12, 8, 3)))
        .build()?
        .run_streaming()?;
    let live_ms = started.elapsed().as_secs_f64() * 1e3;
    let live_latency = latency_debug(&profile);

    let reader = TraceReader::open(&dir)?;
    let summary = reader.summary();
    println!(
        "  recorded {} samples in {} segment(s), {} bytes ({:.2} bytes/sample), {:.1} ms live",
        summary.samples,
        summary.shards,
        summary.bytes,
        summary.bytes as f64 / summary.samples.max(1) as f64,
        live_ms,
    );

    // -- 1. Replay, one worker per segment: bit-for-bit the live report. --
    let mut sinks: Vec<Box<dyn AnalysisSink>> = vec![Box::new(LatencySink::default())];
    let started = Instant::now();
    let stats = reader.replay(&mut sinks)?;
    let replay_ms = started.elapsed().as_secs_f64() * 1e3;
    let records = replay_finish(&mut sinks)?;
    assert_eq!(
        format!("{:?}", records[0].report),
        live_latency,
        "replay must reproduce the live latency report bit for bit"
    );
    println!(
        "  replay on {} worker thread(s): {} samples over {} windows in {:.1} ms ({:.0}x faster than live) — report identical",
        stats.segments,
        stats.samples,
        stats.windows,
        replay_ms,
        live_ms / replay_ms.max(1e-9),
    );

    // -- 2. What-if tiering: two policies over the same stored run. --
    let (control, control_plan) = what_if(NoMigration);
    let (topk, topk_plan) = what_if(TopKHot::new(8, 1).with_budget(u64::MAX));
    let mut sinks: Vec<Box<dyn AnalysisSink>> =
        vec![Box::new(HotPageTracker::new(control)), Box::new(HotPageTracker::new(topk))];
    let started = Instant::now();
    reader.replay(&mut sinks)?;
    let tier_ms = started.elapsed().as_secs_f64() * 1e3;
    let records = replay_finish(&mut sinks)?;
    for record in &records {
        let AnalysisReport::Tiering(report) = &record.report else {
            panic!("tiering sinks report AnalysisReport::Tiering");
        };
        println!(
            "  policy {:<12} tracked {} pages over {} windows, {} applied (replay never actuates)",
            report.policy,
            report.pages_tracked,
            report.windows_closed,
            report.applied.len(),
        );
    }
    let (control, topk) =
        (std::mem::take(&mut *control_plan.lock()), std::mem::take(&mut *topk_plan.lock()));
    println!(
        "  what-if plans from one replay pass ({tier_ms:.1} ms): no-migration would move {} pages; \
         top-k-hot would promote {} distinct pages ({} decisions across {} windows)",
        control.pages.len(),
        topk.pages.len(),
        topk.decisions,
        topk.windows,
    );
    assert_eq!(control.decisions, 0, "the control policy never decides");
    assert!(topk.decisions > 0, "TopKHot finds hot remote pages under TierSplit(0.5)");

    // -- 3. Indexed queries: footer index prunes blocks before decode. --
    let last_window = stats.windows.saturating_sub(1);
    let half = TraceQuery::all().with_windows(0, last_window / 2);
    let mut sinks: Vec<Box<dyn AnalysisSink>> = vec![Box::new(LatencySink::default())];
    let started = Instant::now();
    let half_stats = reader.replay_query(&half, &mut sinks)?;
    let half_ms = started.elapsed().as_secs_f64() * 1e3;
    replay_finish(&mut sinks)?;

    let core0 = TraceQuery::all().with_cores([0]);
    let mut sinks: Vec<Box<dyn AnalysisSink>> = vec![Box::new(LatencySink::default())];
    let core0_stats = reader.replay_query(&core0, &mut sinks)?;
    replay_finish(&mut sinks)?;

    println!(
        "  indexed query, first half of the timeline: {} of {} samples, {} of {} blocks decoded, {:.1} ms",
        half_stats.samples, stats.samples, half_stats.blocks, stats.blocks, half_ms,
    );
    println!(
        "  indexed query, core 0 only: {} of {} samples across {} worker thread(s)",
        core0_stats.samples,
        stats.samples,
        reader.shards(),
    );
    assert!(half_stats.samples < stats.samples, "the window slice prunes samples");
    assert!(half_stats.blocks < stats.blocks, "the index prunes whole blocks, not just samples");
    assert!(core0_stats.samples < stats.samples, "the core slice prunes samples");
    assert!(
        replay_ms < live_ms && half_ms < live_ms,
        "replay reads the trace; it must beat re-simulating the run"
    );

    std::fs::remove_dir_all(&dir).ok();
    println!("  ok: one simulation, four offline analyses.");
    Ok(())
}
