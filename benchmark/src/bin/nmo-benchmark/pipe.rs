//! The two synthetic-load workloads: `pipe_128c_serial` and `trace_rw_128c`.
//!
//! Both run the real `ProfileSession::start_streaming` spine — the real
//! pump loop or pump workers, `ShardedBus`, `BatchPool`, close coordinator,
//! consumers, `SinkShard`s, merge and (for `trace_rw_128c`) the
//! `TraceWriterSink` — fed by [`crate::loadgen::SyntheticBackend`].

use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use arch_sim::MachineConfig;
use nmo::trace::replay_finish;
use nmo::{
    AnalysisReport, AnalysisSink, BackpressurePolicy, LatencySink, NmoConfig, ProfileSession,
    StreamOptions, TraceQuery, TraceReader,
};

use crate::loadgen::{generate, Generated, LagTable, LoadSpec, ProbeSink, SyntheticBackend};
use crate::run::{latency_report, timed_ms, Ctx, RepOutcome, Stopwatch, TempDir};
use crate::spec;
use crate::stats;

/// How the two workloads differ.
#[derive(Debug, Clone, Copy)]
pub struct PipeKind {
    pub label: &'static str,
    pub window_ns: u64,
    pub shards: usize,
    /// Record with `.trace_dir(..)`, then read the trace back.
    pub trace: bool,
}

/// Small batches through one pump and one consumer.
pub const SERIAL: PipeKind =
    PipeKind { label: "pipe", window_ns: spec::PIPE_WINDOW_NS, shards: 1, trace: false };

/// Large batches through the sharded path into the trace store and back.
/// Two shards is what `shards: 0` resolves to on the 2-thread host this was
/// sized on; it is fixed so the trace always has two segments.
pub const TRACE_RW: PipeKind =
    PipeKind { label: "trace", window_ns: spec::TRACE_WINDOW_NS, shards: 2, trace: true };

/// Per-repetition switches.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepMode {
    /// Add the delivery-lag probe sink (traced repetitions only).
    pub probe: bool,
    /// Leave `.trace_dir(..)` and the read side out (`trace.record_overhead_frac`).
    pub skip_trace: bool,
}

/// How long the harness waits for the load to run dry before it gives the
/// repetition up as failed.
const LOAD_TIMEOUT: Duration = Duration::from_secs(150);

pub fn setup(kind: PipeKind, full: LoadSpec, ctx: &Ctx) -> Arc<Generated> {
    let _span = ctx.tracer.span("workload.setup");
    let data = Arc::new(generate(full, ctx.seed));
    // Warm-up: a short pass through a whole session faults the input in,
    // fills the allocator, and spawns (and joins) every thread kind once.
    let _ = rep(kind, &data, ctx.sizes.short_passes.min(full.passes), ctx, RepMode::default());
    data
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| entries.filter_map(|e| e.ok()?.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

fn latency_debug(sinks: &mut [Box<dyn AnalysisSink>]) -> Result<(String, u64), String> {
    let records = replay_finish(sinks).map_err(|e| e.to_string())?;
    match records.first().map(|r| &r.report) {
        Some(AnalysisReport::Latency(l)) => Ok((format!("{l:?}"), l.total_count())),
        other => Err(format!("expected a latency report, got {other:?}")),
    }
}

/// One repetition: `passes` passes over the generated records (the timed
/// repetitions use `data.spec.passes`, the warm-up and the lock-checked
/// repetition fewer).
pub fn rep(
    kind: PipeKind,
    data: &Arc<Generated>,
    passes: u64,
    ctx: &Ctx,
    mode: RepMode,
) -> RepOutcome {
    let mut out = RepOutcome::default();
    let spec = LoadSpec { passes, ..data.spec };
    let emitted = spec.total_samples();
    let tracer = &ctx.tracer;
    let with_trace = kind.trace && !mode.skip_trace;
    let trace_dir = match with_trace.then(|| TempDir::create(&ctx.out_dir, kind.label)) {
        Some(Ok(dir)) => Some(dir),
        Some(Err(e)) => {
            out.failures.push(format!("cannot create the trace directory: {e}"));
            return out;
        }
        None => None,
    };
    let watch = Stopwatch::start();

    // -- record: the live streaming session --------------------------------
    let lag = mode.probe.then(|| Arc::new(LagTable::new(spec.cores)));
    let (backend, shared, exhausted) =
        SyntheticBackend::new(data.clone(), passes, tracer.clone(), lag.clone());
    let (build_ms, session) = timed_ms(|| {
        let _span = tracer.span("session.build");
        let mut builder = ProfileSession::builder()
            .machine_config(MachineConfig::ampere_altra_max())
            .config(NmoConfig { name: kind.label.to_string(), ..NmoConfig::paper_default(1) })
            .threads(spec.cores)
            .no_default_backends()
            .backend(backend)
            .stream_options(StreamOptions {
                window_ns: kind.window_ns,
                shards: kind.shards,
                backpressure: BackpressurePolicy::Block,
                ..StreamOptions::default()
            })
            .sink(LatencySink::new());
        if let Some(dir) = &trace_dir {
            builder = builder.trace_dir(dir.path());
        }
        let mut readout = None;
        if let Some(lag) = lag {
            let (sink, shared_readout) = ProbeSink::new(tracer.clone(), lag);
            builder = builder.sink(sink);
            readout = Some(shared_readout);
        }
        (builder.build(), readout)
    });
    let (session, probe_readout) = session;
    let session = match session {
        Ok(session) => session,
        Err(e) => {
            out.failures.push(format!("session build failed: {e}"));
            return out;
        }
    };

    let session_started = Instant::now();
    let (start_ms, active) = timed_ms(|| {
        let _span = tracer.span("session.start");
        session.start_streaming()
    });
    let active = match active {
        Ok(active) => active,
        Err(e) => {
            out.failures.push(format!("start_streaming failed: {e}"));
            return out;
        }
    };
    {
        let _span = tracer.span("workload.run");
        if exhausted.recv_timeout(LOAD_TIMEOUT).is_err() {
            out.failures.push(format!("load not exhausted after {LOAD_TIMEOUT:?}"));
        }
    }
    let (finish_ms, profile) = timed_ms(|| {
        let _span = tracer.span("session.finish");
        active.finish()
    });
    out.session_s = session_started.elapsed().as_secs_f64();
    let profile = match profile {
        Ok(profile) => profile,
        Err(e) => {
            out.failures.push(format!("finish failed: {e}"));
            return out;
        }
    };

    let live = latency_report(&profile);
    out.live_delivered = live.map_or(0, |l| l.total_count());
    let live_debug = live.map(|l| format!("{l:?}")).unwrap_or_default();
    out.attempted = emitted;
    out.delivered = out.live_delivered.min(emitted);
    out.accuracy = nmo::accuracy(emitted, out.live_delivered, 1);
    let sent = shared.emitted.load(Ordering::SeqCst);
    out.check(sent == emitted, || format!("backend emitted {sent} of {emitted} samples"));
    let delivered = out.live_delivered;
    out.check(delivered == emitted, || {
        format!("LatencyProfile::total_count() {delivered} != emitted {emitted}")
    });
    let stream = profile.stream.unwrap_or_default();
    out.check(stream.batches_dropped == 0, || {
        format!("{} batches dropped under Block", stream.batches_dropped)
    });
    let drain_ns = shared.drain_ns.load(Ordering::SeqCst);
    let decode_ns = shared.decode_ns.load(Ordering::SeqCst);
    out.layer.extend([
        ("session.build_ms", build_ms),
        ("session.start_ms", start_ms),
        ("session.finish_ms", finish_ms),
        ("stream.batches_published", stream.batches_published as f64),
        ("stream.batches_dropped", stream.batches_dropped as f64),
        ("stream.late_batches", stream.late_batches as f64),
        ("stream.windows_closed", stream.windows_closed as f64),
        ("stream.bus_high_watermark", stream.bus_high_watermark as f64),
        (
            "stream.samples_per_batch",
            out.live_delivered as f64 / stream.batches_published.max(1) as f64,
        ),
        ("loadgen.samples_emitted", sent as f64),
        // The backend's own share of the pump threads' time: what a drain
        // call spends outside the per-record decode loop.
        (
            "loadgen.share",
            drain_ns.saturating_sub(decode_ns) as f64 / (out.session_s * 1e9 * kind.shards as f64),
        ),
    ]);
    if let Some(readout) = probe_readout {
        let readout = std::mem::take(&mut *readout.lock());
        out.check(readout.samples == emitted, || {
            format!("probe sink saw {} of {emitted} samples", readout.samples)
        });
        out.layer.extend([
            ("stream.delivery_lag_p50_us", stats::percentile(&readout.lags_us, 50.0)),
            ("stream.delivery_lag_p99_us", stats::percentile(&readout.lags_us, 99.0)),
        ]);
    }
    drop(profile);

    // -- read: open, replay, indexed replay, sliced query, verify ----------
    if let Some(dir) = &trace_dir {
        read_back(kind, spec, dir.path(), &live_debug, ctx, &mut out);
    }
    out.wall_s = watch.wall_s();
    out.cpu_s = watch.cpu_s();
    out
}

fn read_back(
    kind: PipeKind,
    spec: LoadSpec,
    dir: &Path,
    live_debug: &str,
    ctx: &Ctx,
    out: &mut RepOutcome,
) {
    let tracer = &ctx.tracer;
    let emitted = spec.total_samples();
    let (open_ms, reader) = timed_ms(|| {
        let _span = tracer.span("trace.open");
        TraceReader::open(dir)
    });
    let reader = match reader {
        Ok(reader) => reader,
        Err(e) => {
            out.failures.push(format!("TraceReader::open failed: {e}"));
            return;
        }
    };
    let summary = reader.summary();
    out.check(summary.samples == emitted, || {
        format!("TraceSummary::samples {} != emitted {emitted}", summary.samples)
    });
    let bytes = dir_bytes(dir);

    // Sequential and indexed replay must reproduce the live latency report.
    let mut full_blocks = 0u64;
    let replays: [(&'static str, &'static str, bool); 2] = [
        ("trace.replay", "trace_replay_msamples_per_s", false),
        ("trace.replay_query", "trace_query_msamples_per_s", true),
    ];
    for (span_name, metric, indexed) in replays {
        let mut sinks: Vec<Box<dyn AnalysisSink>> = vec![Box::new(LatencySink::new())];
        let started = Instant::now();
        let replayed = {
            let _span = tracer.span(span_name);
            let stats = if indexed {
                reader.replay_query(&TraceQuery::all(), &mut sinks)
            } else {
                reader.replay(&mut sinks)
            };
            stats.map_err(|e| e.to_string()).and_then(|s| Ok((s, latency_debug(&mut sinks)?)))
        };
        let seconds = started.elapsed().as_secs_f64();
        out.attempted += emitted;
        match replayed {
            Ok((stats, (debug, count))) => {
                out.delivered += count.min(emitted);
                full_blocks = stats.blocks;
                out.check(debug == live_debug, || format!("{span_name}: report differs from live"));
                out.layer.push((metric, summary.samples as f64 / seconds / 1e6));
            }
            Err(e) => out.failures.push(format!("{span_name} failed: {e}")),
        }
    }

    // One sliced query: the first tenth of the windows.
    let last_window =
        spec.time_ns(spec.cores - 1, spec.passes - 1, spec.records_per_core - 1) / kind.window_ns;
    let slice_last = last_window / 10;
    let expected = spec.samples_in_windows(kind.window_ns, 0, slice_last);
    let mut sinks: Vec<Box<dyn AnalysisSink>> = vec![Box::new(LatencySink::new())];
    let (sliced_ms, sliced) = timed_ms(|| {
        let _span = tracer.span("trace.replay_query");
        reader.replay_query(&TraceQuery::all().with_windows(0, slice_last), &mut sinks)
    });
    out.attempted += expected;
    match sliced {
        Ok(stats) => {
            out.delivered += stats.samples.min(expected);
            out.check(stats.samples == expected, || {
                format!(
                    "sliced query returned {} samples, generator predicts {expected}",
                    stats.samples
                )
            });
            out.layer.extend([
                ("trace.sliced_query_ms", sliced_ms),
                (
                    "trace.sliced_blocks_decoded_frac",
                    stats.blocks as f64 / full_blocks.max(1) as f64,
                ),
            ]);
        }
        Err(e) => out.failures.push(format!("sliced replay_query failed: {e}")),
    }

    let (verify_ms, verified) = timed_ms(|| {
        let _span = tracer.span("trace.verify");
        reader.verify()
    });
    match verified {
        Ok(v) => out.check(v.skipped_bytes == 0 && v.errors.is_empty(), || {
            format!("verify(): {} skipped bytes, errors {:?}", v.skipped_bytes, v.errors)
        }),
        Err(e) => out.failures.push(format!("verify() failed: {e}")),
    }
    out.layer.extend([
        ("trace.open_ms", open_ms),
        ("trace.verify_ms", verify_ms),
        ("trace_bytes_per_sample", bytes as f64 / summary.samples.max(1) as f64),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Tracer;

    fn ctx() -> Ctx {
        Ctx {
            sizes: spec::SMOKE,
            seed: 5,
            tracer: Arc::new(Tracer::new(false)),
            out_dir: std::env::temp_dir()
                .join(format!("nmo-benchmark-test-{}", std::process::id())),
        }
    }

    /// The whole spine conserves the generated samples: emitted ==
    /// delivered on the serial path and on two shards, with and without the
    /// probe and the trace store (every output check runs inside `rep`).
    #[test]
    fn real_session_delivers_every_generated_sample() {
        let ctx = ctx();
        let small =
            LoadSpec { cores: 128, records_per_core: 600, passes: 2, dt_ns: spec::PIPE_DT_NS };
        let data = Arc::new(generate(small, ctx.seed));
        for (kind, mode) in [
            (SERIAL, RepMode::default()),
            (SERIAL, RepMode { probe: true, ..RepMode::default() }),
            (PipeKind { shards: 2, ..SERIAL }, RepMode::default()),
            (TRACE_RW, RepMode { probe: true, ..RepMode::default() }),
            (TRACE_RW, RepMode { skip_trace: true, ..RepMode::default() }),
        ] {
            let out = rep(kind, &data, small.passes, &ctx, mode);
            assert_eq!(out.failures, Vec::<String>::new(), "{kind:?} {mode:?}");
            assert_eq!(out.live_delivered, small.total_samples());
            assert_eq!(out.failed(), 0);
            assert_eq!(out.accuracy, 1.0);
        }
        assert!(!ctx.out_dir.join("tmp").exists(), "temp trace dirs are removed");
    }
}
