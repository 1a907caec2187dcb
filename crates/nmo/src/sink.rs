//! Pluggable analysis sinks (the reporting seam of the profiler).
//!
//! The paper's profiling levels — temporal capacity, temporal bandwidth,
//! memory-region attribution, and per-tier latency distributions — are
//! implemented as [`AnalysisSink`]s registered on a
//! [`crate::session::ProfileSession`] instead of hard-wired steps of the
//! runtime.
//!
//! Sinks get their data one way: every [`SampleBatch`] and window close is
//! delivered through one shard fan-in (`FanIn`) — by the shard consumers
//! of a [`crate::session::ProfileSession::run_streaming`] run as the
//! workload executes, by the session itself at
//! [`crate::session::ActiveSession::finish`] (and at every
//! [`crate::session::ActiveSession::tiering_step`]) when it runs without
//! pipeline threads, or by a replay of a stored trace
//! ([`crate::trace::TraceReader`]). A [`ShardableSink`] aggregates in one
//! [`SinkShard`] worker per pipeline shard (one worker when the pipeline is
//! one shard wide) and merges their states in ascending shard index; any
//! other sink is fed [`AnalysisSink::on_batch`] /
//! [`AnalysisSink::on_window_close`] directly, serialised across shards. At
//! the end [`AnalysisSink::finish`] — by default [`AnalysisSink::analyze`]
//! — assembles the report from what was delivered. A plain
//! [`crate::session::ProfileSession::run`] is therefore streaming finished
//! at the end: a sink that only implements `analyze` over the completed
//! [`Profile`] keeps working on every path, and a sink that aggregates
//! batches reports the same on all of them.
//!
//! The shipped sinks are incremental aggregators: capacity merges RSS
//! tick batches (per memory node), bandwidth merges per-bucket traffic
//! deltas (per memory node), regions attributes each window's samples as it
//! closes, and latency folds each sample into per-data-source log2
//! histograms — a windowed merge instead of a deferred whole-run scan, so
//! analysis work is spread over a streaming run and live readouts stay
//! current. A session keeps what its registered sinks keep and nothing
//! besides — no sink, no retained samples. What still grows with run length:
//!
//! * [`SampleLogSink`] — one [`AddressSample`] per delivered sample; that is
//!   its job, and why it is not a default sink;
//! * `CapacityShard::events` — one point per RSS change.
//!
//! The latency histograms and the bandwidth buckets are O(1) and O(buckets).
//! A [`RegionSink`] keeps counts per tag and phase name and each tag's
//! sampled lines, bounded by the tags' footprint; between a window's first
//! batch and its close it also holds that window's samples.

use std::collections::BTreeMap;
use std::ops::DerefMut;
use std::sync::Arc;

use arch_sim::{DataSource, Machine, RssPoint, MAX_MEM_NODES};

use crate::annotate::Annotations;
use crate::bandwidth::BandwidthSeries;
use crate::capacity::CapacitySeries;
use crate::latency::{LatencyHistogram, LatencyProfile};
use crate::regions::{RegionAccumulator, RegionProfile};
use crate::runtime::{AddressSample, Profile};
use crate::stream::{BatchPayload, SampleBatch, Window};
use crate::NmoError;

/// The output of one analysis sink.
#[derive(Debug, Clone)]
pub enum AnalysisReport {
    /// A capacity-over-time series (level 1).
    Capacity(CapacitySeries),
    /// A bandwidth-over-time series (level 2).
    Bandwidth(BandwidthSeries),
    /// A region-attribution profile (level 3).
    Regions(RegionProfile),
    /// Per-data-source latency distributions (the tiered-memory view).
    Latency(LatencyProfile),
    /// Every delivered address sample, ascending by `(time_ns, core)` (from
    /// [`SampleLogSink`]).
    Samples(Vec<AddressSample>),
    /// A profile-guided tiering run: applied migrations plus before/after
    /// per-tier latency (from [`crate::tiering::HotPageTracker`]).
    Tiering(crate::tiering::TieringReport),
    /// Free-form textual output from a custom sink.
    Text(String),
}

impl AnalysisReport {
    /// Whether the report carries any data points / samples / text.
    pub fn is_empty(&self) -> bool {
        match self {
            AnalysisReport::Capacity(c) => c.points.is_empty(),
            AnalysisReport::Bandwidth(b) => b.points.is_empty(),
            AnalysisReport::Regions(r) => r.per_tag.is_empty() && r.untagged_samples == 0,
            AnalysisReport::Latency(l) => l.is_empty(),
            AnalysisReport::Samples(s) => s.is_empty(),
            AnalysisReport::Tiering(t) => t.is_empty(),
            AnalysisReport::Text(t) => t.is_empty(),
        }
    }
}

/// One sink's named output, as stored on the [`Profile`].
#[derive(Debug, Clone)]
pub struct AnalysisRecord {
    /// Name of the sink that produced the report.
    pub sink: String,
    /// The report itself.
    pub report: AnalysisReport,
}

/// Context handed to sinks when a streaming session starts. (Per-window
/// geometry travels on each batch's [`Window`], so it is not repeated here.)
#[derive(Debug, Clone)]
pub struct StreamContext {
    /// The session's annotation registry (tags/phases grow during the run).
    pub annotations: Arc<Annotations>,
    /// Total machine memory capacity in bytes, across every node (for
    /// utilisation figures).
    pub capacity_bytes: u64,
    /// Width of one bandwidth bucket, simulated nanoseconds.
    pub bucket_ns: u64,
    /// Number of memory nodes in the machine's topology.
    pub mem_nodes: usize,
    /// Virtual-memory page size, bytes (for per-page aggregation).
    pub page_bytes: u64,
    /// The live machine, for sinks that *act* on the run (e.g.
    /// [`crate::tiering::HotPageTracker`] applying page migrations).
    /// Present on a session with pipeline threads
    /// ([`crate::session::ProfileSession::start_streaming`]); `None` on
    /// replays from a stored trace (the run is over — there is nothing left
    /// to actuate), on sessions without pipeline threads (delivery happens
    /// at the caller's steps and at `finish`; nothing actuates by itself —
    /// see [`crate::session::ActiveSession::tiering_step`]) and in
    /// hand-built test contexts.
    pub machine: Option<Arc<Machine>>,
}

impl StreamContext {
    /// A machine-less context for replaying a stored trace
    /// ([`crate::trace::TraceReader`]): the recorded geometry is restored,
    /// the annotation registry starts empty, and `machine` is `None` —
    /// sinks aggregate exactly as they did live, but nothing can actuate
    /// the (finished) run.
    pub fn for_replay(
        capacity_bytes: u64,
        bucket_ns: u64,
        mem_nodes: usize,
        page_bytes: u64,
    ) -> Self {
        StreamContext {
            annotations: Arc::new(Annotations::new()),
            capacity_bytes,
            bucket_ns,
            mem_nodes,
            page_bytes,
            machine: None,
        }
    }
}

/// A pluggable analysis over a profiling run.
///
/// Only [`AnalysisSink::name`] and [`AnalysisSink::analyze`] are required;
/// the delivery hooks default to no-ops and [`AnalysisSink::finish`]
/// defaults to `analyze`, so a sink that only reads the finished
/// [`Profile`] compiles and behaves the same on every kind of run.
///
/// Every sink nmo ships is a [`ShardableSink`]: it aggregates in its
/// [`SinkShard`]s and its parent holds only the merged state, so none of
/// them overrides [`AnalysisSink::on_batch`] or
/// [`AnalysisSink::on_window_close`] — called on one of them, the hooks
/// feed it nothing. The serial hooks, `finish` and the `None` of
/// [`AnalysisSink::as_shardable`] are for sinks outside the crate that are
/// fed one batch at a time (the benchmark's counting and probe sinks).
pub trait AnalysisSink: Send {
    /// Stable sink name (used in reports and error messages).
    fn name(&self) -> &'static str;

    /// Produce the report, after the last batch and window close were
    /// delivered and the backends filled `profile`. The shipped sinks report
    /// what was delivered to them and read `profile` only for run-wide
    /// values (`elapsed_ns`, `counters.flops`, `tags`). A custom sink may
    /// equally scan the profile: sinks finish in registration order, so it
    /// finds the reports of the sinks registered before it in
    /// [`Profile::analyses`] (e.g. [`Profile::samples`] after a
    /// [`SampleLogSink`]) and none of those after it.
    fn analyze(&mut self, machine: &Machine, profile: &Profile)
        -> Result<AnalysisReport, NmoError>;

    /// Delivery is starting (every session and every replay calls this
    /// once, before the first batch). Sinks that aggregate incrementally
    /// latch the context here.
    fn on_stream_start(&mut self, _ctx: &StreamContext) {}

    /// Streaming: one window-stamped batch arrived. Only sinks that are not
    /// [`ShardableSink`]s are fed through this hook, by a pipeline's shard
    /// consumers or a replay's per-segment workers: one call at a time,
    /// each lane's batches in order, the lanes interleaved in no fixed
    /// order.
    fn on_batch(&mut self, _batch: &SampleBatch) {}

    /// Streaming: every source has delivered a sample past `window`, a
    /// window some batch named (or the run finished); no further on-time
    /// data will arrive for it (late batches are still delivered through
    /// [`AnalysisSink::on_batch`] and counted by the session). Windows no
    /// batch named are never closed.
    fn on_window_close(&mut self, _window: Window) {}

    /// Produce the final report — what every session and
    /// [`crate::trace::replay_finish`] call. The default is
    /// [`AnalysisSink::analyze`]; no shipped sink overrides it.
    fn finish(&mut self, machine: &Machine, profile: &Profile) -> Result<AnalysisReport, NmoError> {
        self.analyze(machine, profile)
    }

    /// The sharded-pipeline seam: sinks that can aggregate per shard return
    /// themselves as a [`ShardableSink`] here. The default `None` is the
    /// serial-fallback adapter — the pipeline, and a trace replay from its
    /// one worker per segment, feed such a sink every batch directly,
    /// serialised across lanes (per-lane order preserved, cross-lane
    /// interleaving unspecified, each window close once after every lane's
    /// on-time batches for it), so pre-sharding sinks compile and run
    /// unchanged.
    fn as_shardable(&mut self) -> Option<&mut dyn ShardableSink> {
        None
    }
}

/// Type-erased state handed from a [`SinkShard`] back to its parent sink at
/// merge time.
pub type ShardState = Box<dyn std::any::Any + Send>;

/// Unbox a state for the sink whose own [`SinkShard`] boxed it as a `T`.
#[allow(clippy::expect_used, reason = "a sink is handed only its own shards' states")]
pub(crate) fn own_state<T: 'static>(state: ShardState) -> T {
    *state.downcast::<T>().expect("a state boxed by the merging sink's own shard")
}

/// One shard's worker for a [`ShardableSink`]: it consumes the batches of
/// exactly one bus lane (a disjoint, core-hashed subset of the stream) on
/// its own consumer thread, with no locks on the per-batch path.
pub trait SinkShard: Send {
    /// One batch from this shard's lane arrived.
    fn on_batch(&mut self, batch: &SampleBatch);

    /// Every source has delivered a sample past `window`, a window some
    /// batch named (or the run finished). The close is broadcast to every
    /// lane, whether or not the lane carried a batch for it. Sinks
    /// that merge *per window* — because the parent acts on the merged
    /// state mid-run, like [`crate::tiering::HotPageTracker`] — return this
    /// shard's partial state for the window; cumulative sinks keep the
    /// default `None` and merge once at the end.
    fn on_window_close(&mut self, _window: Window) -> Option<ShardState> {
        None
    }

    /// Hand the accumulated state back for the final merge (called after
    /// the bus closed).
    fn finish(self: Box<Self>) -> ShardState;
}

/// A sink that scales with the sharded streaming pipeline: per-shard workers
/// aggregate disjoint lanes in parallel, and the parent merges their states
/// in **ascending shard index** — a fixed order, so a sharded run produces
/// the same report as a single-shard run wherever the
/// underlying aggregation is exact (sums, histograms, per-window
/// attribution).
///
/// # Worked example
///
/// A sink counting store samples, sharded. Each shard counts its own lane;
/// the parent sums the counts in shard order at the end:
///
/// ```
/// use std::sync::Arc;
///
/// use arch_sim::Machine;
/// use nmo::sink::{
///     AnalysisReport, AnalysisSink, ShardState, ShardableSink, SinkShard, StreamContext,
/// };
/// use nmo::stream::{BatchPayload, SampleBatch};
/// use nmo::{NmoError, Profile};
///
/// #[derive(Default)]
/// struct StoreCounter {
///     stores: u64,
/// }
///
/// struct StoreCounterShard {
///     stores: u64,
/// }
///
/// impl SinkShard for StoreCounterShard {
///     fn on_batch(&mut self, batch: &SampleBatch) {
///         if let BatchPayload::SpeSamples { samples, .. } = batch.payload() {
///             self.stores += samples.iter().filter(|s| s.is_store).count() as u64;
///         }
///     }
///
///     fn finish(self: Box<Self>) -> ShardState {
///         Box::new(self.stores)
///     }
/// }
///
/// impl AnalysisSink for StoreCounter {
///     fn name(&self) -> &'static str {
///         "store-counter"
///     }
///
///     fn analyze(&mut self, _m: &Machine, _p: &Profile) -> Result<AnalysisReport, NmoError> {
///         Ok(AnalysisReport::Text(format!("stores={}", self.stores)))
///     }
///
///     // Opt into sharding; without this override the session would fall
///     // back to feeding the sink serially.
///     fn as_shardable(&mut self) -> Option<&mut dyn ShardableSink> {
///         Some(self)
///     }
/// }
///
/// impl ShardableSink for StoreCounter {
///     fn make_shard(&mut self, _shard: usize, _ctx: &StreamContext) -> Box<dyn SinkShard> {
///         Box::new(StoreCounterShard { stores: 0 })
///     }
///
///     fn merge_final(&mut self, states: Vec<ShardState>) {
///         for state in states {
///             self.stores += *state.downcast::<u64>().expect("a StoreCounterShard state");
///         }
///     }
/// }
///
/// # fn main() {}
/// ```
pub trait ShardableSink {
    /// Create the worker for shard `shard` (called once per shard at stream
    /// start, after [`AnalysisSink::on_stream_start`] ran on the parent).
    fn make_shard(&mut self, shard: usize, ctx: &StreamContext) -> Box<dyn SinkShard>;

    /// Merge one window's per-shard states, ascending by shard index, and
    /// run the sink's window-close logic over the merged view. Only called
    /// for sinks whose shards return `Some` from
    /// [`SinkShard::on_window_close`]; the default does nothing.
    ///
    /// The merge always gathers one state from **every shard**: each lane
    /// receives every window close and contributes a (possibly empty)
    /// state. Implementations must therefore tolerate states that saw no
    /// batches for the window, and may assume only that the *union* over
    /// shards is the full stream.
    fn merge_window(&mut self, _window: Window, _states: Vec<ShardState>) {}

    /// Merge the shards' final states, ascending by shard index (called
    /// once, after every lane drained). As with
    /// [`ShardableSink::merge_window`], every shard contributes a state.
    fn merge_final(&mut self, states: Vec<ShardState>);
}

/// The shard fan-in: the one place that drives the sink traits over a
/// sharded event stream. The live shard consumers and the trace replay's
/// per-segment workers both deliver through it, so they agree by
/// construction on the rule: every [`ShardableSink`] aggregates in one
/// [`SinkShard`] worker per shard; a window's per-shard states merge in
/// ascending shard index as soon as every shard has delivered its state;
/// legacy sinks see every batch directly and each window close exactly
/// once, after every lane has processed its copy of the close (so the
/// lanes' on-time batches for the window all came first); at the end,
/// per-window states that never completed merge first, then the workers'
/// final states, both ascending by shard.
///
/// This is the shared half (one per stream; the live consumers keep it
/// under the `session.merger` mutex, a replay under `trace.merger`). Each
/// shard's workers live in a
/// [`FanInLane`], whose per-batch path touches the shared half only when a
/// legacy sink is registered.
pub(crate) struct FanIn<S> {
    /// The parent sinks (owned by a live session, borrowed by a replay).
    pub(crate) sinks: S,
    shards: usize,
    /// `(window index, sink index)` → the window and what the shards
    /// delivered for it so far.
    pending: BTreeMap<(u64, usize), (Window, ShardStates)>,
    /// Lanes that have processed their copy of each window's close.
    close_counts: BTreeMap<u64, usize>,
    windows_closed: u64,
}

/// `(shard, state)` pairs, in delivery order.
type ShardStates = Vec<(usize, ShardState)>;

/// One shard's sink workers, index-aligned with the sinks of its
/// [`FanIn`] (`None` = legacy sink, fed through the shared half).
pub(crate) struct FanInLane {
    shard: usize,
    workers: Vec<Option<Box<dyn SinkShard>>>,
}

impl<S: DerefMut<Target = [Box<dyn AnalysisSink>]>> FanIn<S> {
    /// Start the stream on every sink, then hand out one worker per shard
    /// and shardable sink.
    pub(crate) fn start(
        mut sinks: S,
        shards: usize,
        ctx: &StreamContext,
    ) -> (Self, Vec<FanInLane>) {
        for sink in sinks.iter_mut() {
            sink.on_stream_start(ctx);
        }
        let mut lanes: Vec<FanInLane> = (0..shards)
            .map(|shard| FanInLane { shard, workers: Vec::with_capacity(sinks.len()) })
            .collect();
        for sink in sinks.iter_mut() {
            let mut shardable = sink.as_shardable();
            for lane in &mut lanes {
                lane.workers.push(shardable.as_mut().map(|s| s.make_shard(lane.shard, ctx)));
            }
        }
        let fan_in = FanIn {
            sinks,
            shards,
            pending: BTreeMap::new(),
            close_counts: BTreeMap::new(),
            windows_closed: 0,
        };
        (fan_in, lanes)
    }

    /// Windows every lane has closed so far.
    pub(crate) fn windows_closed(&self) -> u64 {
        self.windows_closed
    }

    /// One lane processed `window`'s close and its workers returned
    /// `states` (`(sink index, state)` pairs).
    fn close(&mut self, shard: usize, window: Window, states: Vec<(usize, ShardState)>) {
        for (index, state) in states {
            let key = (window.index, index);
            let (_, delivered) = self.pending.entry(key).or_insert_with(|| (window, Vec::new()));
            delivered.push((shard, state));
            if delivered.len() == self.shards {
                self.merge_pending(key);
            }
        }
        let seen = self.close_counts.entry(window.index).or_insert(0);
        *seen += 1;
        if *seen == self.shards {
            self.close_counts.remove(&window.index);
            self.windows_closed += 1;
            for sink in self.sinks.iter_mut() {
                if sink.as_shardable().is_none() {
                    sink.on_window_close(window);
                }
            }
        }
    }

    /// Merge what was delivered for `key`, ascending by shard.
    fn merge_pending(&mut self, key: (u64, usize)) {
        let Some((window, mut states)) = self.pending.remove(&key) else { return };
        states.sort_by_key(|(shard, _)| *shard);
        if let Some(shardable) = self.sinks[key.1].as_shardable() {
            shardable.merge_window(window, states.into_iter().map(|(_, state)| state).collect());
        }
    }

    /// End of stream: merge the per-window states that never completed
    /// (ascending window), then every worker's final state.
    pub(crate) fn finish(&mut self, mut lanes: Vec<FanInLane>) {
        while let Some(&key) = self.pending.keys().next() {
            self.merge_pending(key);
        }
        lanes.sort_by_key(|lane| lane.shard);
        for (index, sink) in self.sinks.iter_mut().enumerate() {
            let Some(shardable) = sink.as_shardable() else { continue };
            let workers = lanes.iter_mut().filter_map(|lane| lane.workers[index].take());
            shardable.merge_final(workers.map(|worker| worker.finish()).collect());
        }
    }
}

impl FanInLane {
    /// Deliver one batch of this lane. `shared` yields the stream's
    /// [`FanIn`] (a lock guard on the live path); it is only called when a
    /// legacy sink needs the batch.
    pub(crate) fn on_batch<S, G>(&mut self, batch: &SampleBatch, shared: impl FnOnce() -> G)
    where
        S: DerefMut<Target = [Box<dyn AnalysisSink>]>,
        G: DerefMut<Target = FanIn<S>>,
    {
        let mut any_legacy = false;
        for worker in &mut self.workers {
            match worker {
                Some(worker) => worker.on_batch(batch),
                None => any_legacy = true,
            }
        }
        if any_legacy {
            let mut shared = shared();
            for (index, worker) in self.workers.iter().enumerate() {
                if worker.is_none() {
                    shared.sinks[index].on_batch(batch);
                }
            }
        }
    }

    /// Deliver this lane's copy of `window`'s close: the workers' states
    /// are gathered lock-free, then handed to the shared half in one step.
    pub(crate) fn on_window_close<S, G>(&mut self, window: Window, shared: impl FnOnce() -> G)
    where
        S: DerefMut<Target = [Box<dyn AnalysisSink>]>,
        G: DerefMut<Target = FanIn<S>>,
    {
        let states = self
            .workers
            .iter_mut()
            .enumerate()
            .filter_map(|(index, worker)| Some((index, worker.as_mut()?.on_window_close(window)?)))
            .collect();
        shared().close(self.shard, window, states);
    }
}

/// Level 1: temporal capacity usage (paper Section VI-A, Figure 2), split
/// per memory node on tiered topologies.
///
/// Merges the RSS tick batches into a step-event list and resamples it over
/// the run's duration at [`AnalysisSink::analyze`].
#[derive(Debug, Clone)]
pub struct CapacitySink {
    /// Number of evenly spaced output samples.
    pub buckets: usize,
    /// The shards' RSS events, merged.
    events: Vec<RssPoint>,
    /// Memory capacity (bytes) and node count, latched from the stream
    /// context.
    capacity_bytes: u64,
    nodes: usize,
}

impl CapacitySink {
    /// A capacity sink emitting `buckets` evenly spaced samples.
    pub fn new(buckets: usize) -> Self {
        CapacitySink { buckets, events: Vec::new(), capacity_bytes: 0, nodes: 1 }
    }
}

impl Default for CapacitySink {
    fn default() -> Self {
        CapacitySink::new(200)
    }
}

impl AnalysisSink for CapacitySink {
    fn name(&self) -> &'static str {
        "capacity"
    }

    fn analyze(
        &mut self,
        _machine: &Machine,
        profile: &Profile,
    ) -> Result<AnalysisReport, NmoError> {
        // Delivery order is the machine's recording order (see
        // `CapacityShard`), which `from_events` expects.
        let events = std::mem::take(&mut self.events);
        Ok(AnalysisReport::Capacity(CapacitySeries::from_events(
            &events,
            profile.elapsed_ns,
            self.capacity_bytes,
            self.buckets,
            self.nodes,
        )))
    }

    fn on_stream_start(&mut self, ctx: &StreamContext) {
        (self.capacity_bytes, self.nodes) = (ctx.capacity_bytes, ctx.mem_nodes);
    }

    fn as_shardable(&mut self) -> Option<&mut dyn ShardableSink> {
        Some(self)
    }
}

/// The RSS event collector of a [`CapacitySink`], one per shard. RSS
/// batches are core-less and therefore all ride lane 0, in the order the
/// machine recorded the events — the order their running totals mean
/// something in (cores' clocks are skewed against each other, so timestamps
/// do not reproduce it); the shard machinery keeps the sink uniform with
/// the others.
#[derive(Debug, Default)]
struct CapacityShard {
    events: Vec<RssPoint>,
}

impl SinkShard for CapacityShard {
    fn on_batch(&mut self, batch: &SampleBatch) {
        if let BatchPayload::Rss { points } = batch.payload() {
            self.events.extend_from_slice(points);
        }
    }

    fn finish(self: Box<Self>) -> ShardState {
        Box::new(self.events)
    }
}

impl ShardableSink for CapacitySink {
    fn make_shard(&mut self, _shard: usize, _ctx: &StreamContext) -> Box<dyn SinkShard> {
        Box::new(CapacityShard::default())
    }

    fn merge_final(&mut self, states: Vec<ShardState>) {
        // Only lane 0's worker holds events, so the concatenation keeps
        // their order whatever the shard count.
        for state in states {
            self.events.extend(own_state::<Vec<RssPoint>>(state));
        }
    }
}

/// Level 2: temporal bandwidth usage (paper Section VI-B, Figure 3), split
/// per memory node on tiered topologies.
///
/// Merges bandwidth tick batches per bucket (deliveries for the same bucket
/// sum their bytes, per node — the windowed merge).
#[derive(Debug, Clone, Default)]
pub struct BandwidthSink {
    core: BandwidthShard,
    /// Node count, latched from the stream context.
    nodes: usize,
}

impl BandwidthSink {
    /// A fresh bandwidth sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AnalysisSink for BandwidthSink {
    fn name(&self) -> &'static str {
        "bandwidth"
    }

    fn analyze(
        &mut self,
        _machine: &Machine,
        profile: &Profile,
    ) -> Result<AnalysisReport, NmoError> {
        let BandwidthShard { bucket_ns, merged } = &self.core;
        let points: Vec<arch_sim::BandwidthPoint> = match merged.keys().next_back() {
            None => Vec::new(),
            Some(&last) => (0..=last)
                .map(|i| {
                    let by_node = merged.get(&i).copied().unwrap_or([0; MAX_MEM_NODES]);
                    let bytes: u64 = by_node.iter().sum();
                    arch_sim::BandwidthPoint {
                        time_ns: i * bucket_ns,
                        bytes,
                        by_node,
                        gib_per_s: bytes as f64 / (1u64 << 30) as f64 / (*bucket_ns as f64 * 1e-9),
                    }
                })
                .collect(),
        };
        Ok(AnalysisReport::Bandwidth(BandwidthSeries::from_buckets(
            &points,
            profile.counters.flops,
            self.nodes,
        )))
    }

    fn on_stream_start(&mut self, ctx: &StreamContext) {
        (self.core, self.nodes) = (BandwidthShard::new(ctx), ctx.mem_nodes);
    }

    fn as_shardable(&mut self) -> Option<&mut dyn ShardableSink> {
        Some(self)
    }
}

/// The per-bucket traffic merge of a [`BandwidthSink`] (one per shard; the
/// parent keeps one as the merge target).
#[derive(Debug, Clone)]
struct BandwidthShard {
    bucket_ns: u64,
    /// Merged bus bytes per bucket *index*, split per memory node (points
    /// are binned to the bucket containing their timestamp, so unaligned
    /// deliveries cannot fall between buckets).
    merged: BTreeMap<u64, [u64; MAX_MEM_NODES]>,
}

impl BandwidthShard {
    fn new(ctx: &StreamContext) -> Self {
        BandwidthShard { bucket_ns: ctx.bucket_ns.max(1), merged: BTreeMap::new() }
    }
}

impl Default for BandwidthShard {
    fn default() -> Self {
        BandwidthShard { bucket_ns: 1, merged: BTreeMap::new() }
    }
}

impl SinkShard for BandwidthShard {
    fn on_batch(&mut self, batch: &SampleBatch) {
        if let BatchPayload::Bandwidth { points } = batch.payload() {
            for p in points {
                let merged =
                    self.merged.entry(p.time_ns / self.bucket_ns).or_insert([0; MAX_MEM_NODES]);
                for (node, bytes) in p.by_node.iter().enumerate() {
                    merged[node] += bytes;
                }
            }
        }
    }

    fn finish(self: Box<Self>) -> ShardState {
        Box::new(self.merged)
    }
}

impl ShardableSink for BandwidthSink {
    fn make_shard(&mut self, _shard: usize, ctx: &StreamContext) -> Box<dyn SinkShard> {
        Box::new(BandwidthShard::new(ctx))
    }

    fn merge_final(&mut self, states: Vec<ShardState>) {
        // Per-bucket sums are exact integers, so the merge does not depend
        // on how deliveries were split across shards.
        for state in states {
            let merged = own_state::<BTreeMap<u64, [u64; MAX_MEM_NODES]>>(state);
            for (bucket, by_node) in merged {
                let entry = self.core.merged.entry(bucket).or_insert([0; MAX_MEM_NODES]);
                for (node, bytes) in by_node.iter().enumerate() {
                    entry[node] += bytes;
                }
            }
        }
    }
}

/// Level 3: memory-region attribution (paper Section VI-C, Figures 4–6).
///
/// Buffers each window's SPE samples and attributes them when the window
/// closes (so phases bracketing the window are usually final), folding them
/// into a running [`RegionAccumulator`]: counts, not samples. The points of
/// a scatter plot come from a [`SampleLogSink`] on the same session,
/// attributed through [`crate::regions::tag_of`] /
/// [`crate::regions::phase_of`].
#[derive(Debug, Default)]
pub struct RegionSink {
    /// The shards' attributions, merged.
    accum: RegionAccumulator,
}

impl RegionSink {
    /// A fresh region sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AnalysisSink for RegionSink {
    fn name(&self) -> &'static str {
        "regions"
    }

    fn analyze(
        &mut self,
        _machine: &Machine,
        profile: &Profile,
    ) -> Result<AnalysisReport, NmoError> {
        Ok(AnalysisReport::Regions(std::mem::take(&mut self.accum).finalize(&profile.tags)))
    }

    fn as_shardable(&mut self) -> Option<&mut dyn ShardableSink> {
        Some(self)
    }
}

/// The windowed attribution of a [`RegionSink`], one per shard: buffers
/// samples per window, folds them into its accumulator against the
/// then-current tags/phases when the window closes (freeing the buffer),
/// and hands the accumulator back for the final merge.
#[derive(Debug, Default)]
struct RegionShard {
    accum: RegionAccumulator,
    pending: BTreeMap<u64, Vec<AddressSample>>,
    /// Latched from the stream context.
    annotations: Arc<Annotations>,
}

impl RegionShard {
    fn new(ctx: &StreamContext) -> Self {
        RegionShard { annotations: ctx.annotations.clone(), ..Default::default() }
    }

    fn ingest_window(&mut self, index: u64) {
        let Some(samples) = self.pending.remove(&index) else { return };
        self.accum.ingest(&samples, &self.annotations.tags(), &self.annotations.phases());
    }
}

impl SinkShard for RegionShard {
    fn on_batch(&mut self, batch: &SampleBatch) {
        if let BatchPayload::SpeSamples { samples, .. } = batch.payload() {
            self.pending.entry(batch.window.index).or_default().extend_from_slice(samples);
        }
    }

    fn on_window_close(&mut self, window: Window) -> Option<ShardState> {
        self.ingest_window(window.index);
        None
    }

    fn finish(mut self: Box<Self>) -> ShardState {
        // Windows that never saw a close signal, ascending.
        while let Some(&index) = self.pending.keys().next() {
            self.ingest_window(index);
        }
        Box::new(self.accum)
    }
}

impl ShardableSink for RegionSink {
    fn make_shard(&mut self, _shard: usize, ctx: &StreamContext) -> Box<dyn SinkShard> {
        Box::new(RegionShard::new(ctx))
    }

    fn merge_final(&mut self, states: Vec<ShardState>) {
        // Per-sample attribution is independent and the merge sums counts
        // per name, so the report does not depend on the shard count.
        for state in states {
            self.accum.merge(own_state::<RegionAccumulator>(state));
        }
    }
}

/// Per-tier latency distributions (the paper's DDR-vs-CXL latency figures):
/// one streaming log2-bucket histogram per SPE data source, with
/// interpolated p50/p90/p99.
///
/// Folds every sample of every batch into the per-source histograms as it
/// arrives (O(1) state per source — nothing is buffered). The histograms
/// are order-independent, so the report does not depend on how the stream
/// was batched or sharded.
#[derive(Debug, Default)]
pub struct LatencySink {
    core: LatencyShard,
}

impl LatencySink {
    /// A fresh latency sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AnalysisSink for LatencySink {
    fn name(&self) -> &'static str {
        "latency"
    }

    fn analyze(
        &mut self,
        _machine: &Machine,
        _profile: &Profile,
    ) -> Result<AnalysisReport, NmoError> {
        Ok(AnalysisReport::Latency(std::mem::take(&mut self.core).into_profile()))
    }

    fn as_shardable(&mut self) -> Option<&mut dyn ShardableSink> {
        Some(self)
    }
}

/// The latency histograms of a [`LatencySink`] (one per shard; the parent
/// keeps one as the merge target). Histogram buckets are exact counters, so
/// the shard merge is bit-identical to a single fold in any order.
///
/// The per-sample fold is one table index by [`DataSource::slot`] and a
/// [`LatencyHistogram::record`]: no search, no branch on the source, no
/// count beside the buckets. A slot keeps the low 4 bits of a node id
/// (every node the SPE packet can name), so a hand-built source whose node
/// id it would alias must not reach the table. That is decided per batch,
/// by one branch-free OR over its node ids: a batch holding such a source
/// goes whole to `rest` through [`LatencyProfile::record`], which is exact
/// because `rest` merges by source, as do the shard states the parent
/// merges.
///
/// Aligned to a cache line, so a replay's shards, one per segment thread,
/// never share a line of their tables.
#[derive(Debug)]
#[repr(align(64))]
struct LatencyShard {
    by_slot: [LatencyHistogram; DataSource::SLOTS],
    rest: LatencyProfile,
}

impl Default for LatencyShard {
    fn default() -> Self {
        LatencyShard {
            by_slot: [LatencyHistogram::default(); DataSource::SLOTS],
            rest: LatencyProfile::default(),
        }
    }
}

impl LatencyShard {
    /// The table's observed slots — ascending, since slot order is the
    /// sources' `Ord` order — with `rest` merged in.
    fn into_profile(self) -> LatencyProfile {
        let per_source = (self.by_slot.iter().enumerate())
            .filter(|(_, hist)| hist.count() > 0)
            .filter_map(|(slot, hist)| Some((DataSource::from_slot(slot)?, *hist)))
            .collect();
        let mut profile = LatencyProfile { per_source };
        profile.merge(&self.rest);
        profile
    }
}

impl SinkShard for LatencyShard {
    fn on_batch(&mut self, batch: &SampleBatch) {
        if let BatchPayload::SpeSamples { samples, .. } = batch.payload() {
            let wide = samples.iter().fold(0, |or, s| or | s.source.node().unwrap_or(0)) >> 4;
            if wide != 0 {
                for s in samples {
                    self.rest.record(s.source, s.latency);
                }
                return;
            }
            for s in samples {
                self.by_slot[s.source.slot()].record(s.latency);
            }
        }
    }

    fn finish(self: Box<Self>) -> ShardState {
        Box::new(self.into_profile())
    }
}

impl ShardableSink for LatencySink {
    fn make_shard(&mut self, _shard: usize, _ctx: &StreamContext) -> Box<dyn SinkShard> {
        Box::new(LatencyShard::default())
    }

    fn merge_final(&mut self, states: Vec<ShardState>) {
        for state in states {
            self.core.rest.merge(&own_state::<LatencyProfile>(state));
        }
    }
}

/// The raw sample record: every delivered address sample, kept. Nothing else
/// in a session retains samples, so this is the sink to register when the
/// samples themselves are the result (scatter CSVs, test oracles, a sliced
/// query of a stored trace). Its memory grows with the run.
///
/// The report is sorted by `(time_ns, core)`, stably: a core's samples keep
/// their delivery order, so the list is a function of the delivered set and
/// not of the pipeline's width or the host's drain timing.
#[derive(Debug, Default)]
pub struct SampleLogSink {
    /// The shards' samples, merged.
    samples: Vec<AddressSample>,
}

impl SampleLogSink {
    /// A fresh sample log.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AnalysisSink for SampleLogSink {
    fn name(&self) -> &'static str {
        "samples"
    }

    fn analyze(
        &mut self,
        _machine: &Machine,
        _profile: &Profile,
    ) -> Result<AnalysisReport, NmoError> {
        let mut samples = std::mem::take(&mut self.samples);
        samples.sort_by_key(|s| (s.time_ns, s.core));
        Ok(AnalysisReport::Samples(samples))
    }

    fn as_shardable(&mut self) -> Option<&mut dyn ShardableSink> {
        Some(self)
    }
}

/// The sample list of a [`SampleLogSink`], one per shard.
#[derive(Debug, Default)]
struct SampleLogShard {
    samples: Vec<AddressSample>,
}

impl SinkShard for SampleLogShard {
    fn on_batch(&mut self, batch: &SampleBatch) {
        if let BatchPayload::SpeSamples { samples, .. } = batch.payload() {
            self.samples.extend_from_slice(samples);
        }
    }

    fn finish(self: Box<Self>) -> ShardState {
        Box::new(self.samples)
    }
}

impl ShardableSink for SampleLogSink {
    fn make_shard(&mut self, _shard: usize, _ctx: &StreamContext) -> Box<dyn SinkShard> {
        Box::new(SampleLogShard::default())
    }

    fn merge_final(&mut self, states: Vec<ShardState>) {
        for state in states {
            self.samples.extend(own_state::<Vec<AddressSample>>(state));
        }
    }
}

/// The sinks the session registers by default for `config`: capacity when
/// RSS tracking is on, and bandwidth always (the paper's always-on levels).
/// The per-sample sinks — [`RegionSink`], [`LatencySink`],
/// [`SampleLogSink`] — are *not* defaults: many callers,
/// e.g. the sensitivity sweeps, read none of them and should not pay for
/// them. Without its sink, [`Profile::regions`] / [`Profile::latency`] /
/// [`Profile::samples`] is `None`.
pub(crate) fn default_sinks(config: &crate::config::NmoConfig) -> Vec<Box<dyn AnalysisSink>> {
    let mut sinks: Vec<Box<dyn AnalysisSink>> = Vec::new();
    if config.track_rss {
        sinks.push(Box::new(CapacitySink::default()));
    }
    sinks.push(Box::new(BandwidthSink::default()));
    sinks
}

/// Run every sink's [`AnalysisSink::finish`] over the profile, recording
/// the reports and mirroring the standard capacity/bandwidth series into
/// the legacy fields.
pub(crate) fn run_sinks(
    machine: &Machine,
    profile: &mut Profile,
    sinks: &mut [Box<dyn AnalysisSink>],
) -> Result<(), NmoError> {
    for sink in sinks {
        let report = sink.finish(machine, profile)?;
        match &report {
            AnalysisReport::Capacity(c) => profile.capacity = c.clone(),
            AnalysisReport::Bandwidth(b) => profile.bandwidth = b.clone(),
            AnalysisReport::Regions(_)
            | AnalysisReport::Latency(_)
            | AnalysisReport::Samples(_)
            | AnalysisReport::Tiering(_)
            | AnalysisReport::Text(_) => {}
        }
        profile.analyses.push(AnalysisRecord { sink: sink.name().to_string(), report });
    }
    Ok(())
}

/// Test-only sinks that log what the fan-in delivers to them (shared by the
/// fan-in, session and trace tests).
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use parking_lot::Mutex;

    /// The delivery log a recording sink and its shards append to.
    pub(crate) type Log = Arc<Mutex<Vec<String>>>;

    /// Logs `start`, then either the legacy hooks (`batch w<i>` — `ticks
    /// w<i>` for bandwidth ticks, which the session exempts from late
    /// accounting — and `close w<i>`) or, when `shardable`, the merges: every shard returns
    /// its index at each window close and at the end, and the parent logs
    /// `merge w<i> [shards]` / `final [shards]`.
    pub(crate) struct RecordingSink {
        pub(crate) log: Log,
        pub(crate) shardable: bool,
        pub(crate) panic_on_start: bool,
    }

    impl RecordingSink {
        pub(crate) fn new(shardable: bool) -> (Self, Log) {
            let log = Log::default();
            (RecordingSink { log: log.clone(), shardable, panic_on_start: false }, log)
        }
    }

    impl AnalysisSink for RecordingSink {
        fn name(&self) -> &'static str {
            "recording"
        }

        fn analyze(&mut self, _m: &Machine, _p: &Profile) -> Result<AnalysisReport, NmoError> {
            Ok(AnalysisReport::Text(self.log.lock().join("\n")))
        }

        fn on_stream_start(&mut self, _ctx: &StreamContext) {
            assert!(!self.panic_on_start, "recording sink told to panic at stream start");
            self.log.lock().push("start".into());
        }

        fn on_batch(&mut self, batch: &SampleBatch) {
            let bandwidth = matches!(batch.payload(), BatchPayload::Bandwidth { .. });
            let kind = if bandwidth { "ticks" } else { "batch" };
            self.log.lock().push(format!("{kind} w{}", batch.window.index));
        }

        fn on_window_close(&mut self, window: Window) {
            self.log.lock().push(format!("close w{}", window.index));
        }

        fn as_shardable(&mut self) -> Option<&mut dyn ShardableSink> {
            self.shardable.then_some(self as &mut dyn ShardableSink)
        }
    }

    struct RecordingShard(usize);

    impl SinkShard for RecordingShard {
        fn on_batch(&mut self, _batch: &SampleBatch) {}

        fn on_window_close(&mut self, _window: Window) -> Option<ShardState> {
            Some(Box::new(self.0))
        }

        fn finish(self: Box<Self>) -> ShardState {
            Box::new(self.0)
        }
    }

    fn shard_list(states: Vec<ShardState>) -> Vec<usize> {
        states.into_iter().map(|s| *s.downcast::<usize>().expect("a RecordingShard")).collect()
    }

    impl ShardableSink for RecordingSink {
        fn make_shard(&mut self, shard: usize, _ctx: &StreamContext) -> Box<dyn SinkShard> {
            Box::new(RecordingShard(shard))
        }

        fn merge_window(&mut self, window: Window, states: Vec<ShardState>) {
            self.log.lock().push(format!("merge w{} {:?}", window.index, shard_list(states)));
        }

        fn merge_final(&mut self, states: Vec<ShardState>) {
            self.log.lock().push(format!("final {:?}", shard_list(states)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::RecordingSink;
    use super::*;
    use crate::config::NmoConfig;
    use crate::runtime::AddressSample;
    use crate::stream::BusEvent;
    use arch_sim::{BandwidthPoint, DataSource, MachineConfig};

    #[test]
    fn default_sinks_follow_config_flags() {
        let names = |cfg: &NmoConfig| -> Vec<&'static str> {
            default_sinks(cfg).iter().map(|s| s.name()).collect()
        };
        assert_eq!(names(&NmoConfig::default()), vec!["bandwidth"]);
        assert_eq!(names(&NmoConfig::paper_default(100)), vec!["capacity", "bandwidth"]);
    }

    /// `run_sinks`, reached through a session: each report lands in
    /// `Profile.analyses`, and the capacity/bandwidth series are mirrored
    /// into the profile's own fields.
    #[test]
    fn sinks_populate_profile_and_analyses() {
        let profile = crate::session::ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .config(NmoConfig::paper_default(100))
            .threads(1)
            .sink(CapacitySink::default())
            .sink(BandwidthSink::default())
            .sink(RegionSink::default())
            .build()
            .unwrap()
            .run_with(|machine, _annotations, cores| {
                let region = machine.alloc("x", 1 << 16)?;
                let mut e = machine.attach(cores[0])?;
                for i in 0..4_096u64 {
                    e.load(region.start + i * 8, 8);
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(profile.analyses.len(), 3);
        assert!(profile.capacity.peak_bytes > 0);
        assert!(profile.bandwidth.total_bytes > 0);
        assert!(matches!(&profile.analyses[0].report,
            AnalysisReport::Capacity(c) if *c == profile.capacity));
        assert!(matches!(&profile.analyses[1].report,
            AnalysisReport::Bandwidth(b) if *b == profile.bandwidth));
        assert!(matches!(&profile.analyses[2].report,
            AnalysisReport::Regions(r) if r.total_samples() == profile.processed_samples));
    }

    /// A pre-streaming sink that only implements `analyze` still works via
    /// the default `finish` adapter — the compile-compatibility guarantee.
    #[test]
    fn legacy_sink_works_through_default_finish_adapter() {
        struct Legacy;
        impl AnalysisSink for Legacy {
            fn name(&self) -> &'static str {
                "legacy"
            }
            fn analyze(
                &mut self,
                _machine: &Machine,
                profile: &Profile,
            ) -> Result<AnalysisReport, NmoError> {
                Ok(AnalysisReport::Text(format!("samples={}", profile.processed_samples)))
            }
        }
        let machine = Machine::new(MachineConfig::small_test());
        let mut profile = Profile::empty("t", NmoConfig::default());
        profile.processed_samples = 42;
        let mut sinks: Vec<Box<dyn AnalysisSink>> = vec![Box::new(Legacy)];
        run_sinks(&machine, &mut profile, &mut sinks).unwrap();
        assert!(matches!(&profile.analyses[0].report,
            AnalysisReport::Text(t) if t == "samples=42"));
    }

    fn stream_ctx(annotations: Arc<Annotations>) -> StreamContext {
        StreamContext {
            annotations,
            capacity_bytes: 1 << 30,
            bucket_ns: 1000,
            mem_nodes: 2,
            page_bytes: 4096,
            machine: None,
        }
    }

    /// Deliver `events` to `sink` the way a session without pipeline threads
    /// does — through a one-lane `FanIn` — and hand the sink back to finish.
    fn fed(
        sink: impl AnalysisSink + 'static,
        ctx: &StreamContext,
        events: impl IntoIterator<Item = BusEvent>,
    ) -> Box<dyn AnalysisSink> {
        let mut sinks: Vec<Box<dyn AnalysisSink>> = vec![Box::new(sink)];
        let (mut fan_in, mut lanes) = FanIn::start(&mut sinks[..], 1, ctx);
        for event in events {
            match event {
                BusEvent::Batch(batch) => lanes[0].on_batch(&batch, || &mut fan_in),
                BusEvent::CloseWindow(window) => lanes[0].on_window_close(window, || &mut fan_in),
            }
        }
        fan_in.finish(lanes);
        sinks.remove(0)
    }

    #[test]
    fn capacity_sink_merges_rss_batches_incrementally() {
        let machine = Machine::new(MachineConfig::small_test());
        let mut profile = Profile::empty("t", NmoConfig::default());
        profile.elapsed_ns = 4_000;
        let clock = crate::stream::WindowClock::new(1000);
        let events = [(0u64, 1u64 << 20), (1, 3 << 20), (2, 2 << 20)].map(|(i, rss)| {
            BusEvent::Batch(SampleBatch::new(
                "machine",
                None,
                clock.window(i),
                BatchPayload::Rss { points: vec![arch_sim::RssPoint::flat(i * 1000, rss)] },
            ))
        });
        let ctx = stream_ctx(Arc::new(Annotations::new()));
        let mut sink = fed(CapacitySink::new(4), &ctx, events);
        let report = sink.finish(&machine, &profile).unwrap();
        match report {
            AnalysisReport::Capacity(c) => {
                assert_eq!(c.peak_bytes, 3 << 20);
                assert_eq!(c.peak_bytes_by_node[0], 3 << 20);
                assert_eq!(c.nodes, 2, "node count latched from the stream context");
                assert!(!c.points.is_empty());
            }
            other => panic!("expected capacity report, got {other:?}"),
        }
    }

    /// RSS events carry the running total at their recording, and cores'
    /// clocks are skewed against each other: the series follows delivery
    /// (= recording) order, so an event recorded last with an earlier
    /// timestamp still ends the series.
    #[test]
    fn capacity_sink_keeps_rss_events_in_recording_order() {
        let machine = Machine::new(MachineConfig::small_test());
        let mut profile = Profile::empty("t", NmoConfig::default());
        profile.elapsed_ns = 4_000;
        let clock = crate::stream::WindowClock::new(1000);
        let events = [(1_500u64, 1u64 << 20), (900, 2 << 20)].map(|(time_ns, rss)| {
            BusEvent::Batch(SampleBatch::new(
                "machine",
                None,
                clock.window_containing(time_ns),
                BatchPayload::Rss { points: vec![arch_sim::RssPoint::flat(time_ns, rss)] },
            ))
        });
        let ctx = stream_ctx(Arc::new(Annotations::new()));
        let mut sink = fed(CapacitySink::new(4), &ctx, events);
        match sink.finish(&machine, &profile).unwrap() {
            AnalysisReport::Capacity(c) => {
                assert_eq!(c.peak_bytes, 2 << 20);
                assert_eq!(c.final_gib(), c.peak_gib(), "the last-recorded total ends the series");
            }
            other => panic!("expected capacity report, got {other:?}"),
        }
    }

    #[test]
    fn bandwidth_sink_merges_same_bucket_deliveries() {
        let machine = Machine::new(MachineConfig::small_test());
        // The sink bins by the stream context's bucket width (1000 ns in
        // the test context), not by point alignment.
        let bucket_ns = 1000u64;
        let mut profile = Profile::empty("t", NmoConfig::default());
        profile.counters.flops = 1 << 20;
        let clock = crate::stream::WindowClock::new(1000);
        let bp = |time_ns: u64, bytes: u64| {
            let mut by_node = [0u64; MAX_MEM_NODES];
            by_node[0] = bytes;
            BandwidthPoint {
                time_ns,
                bytes,
                by_node,
                gib_per_s: 0.0, // recomputed by the sink
            }
        };
        // Two deliveries into bucket 0 (one of them mid-bucket, i.e. not
        // aligned to a bucket boundary) plus one into bucket 2.
        let events = [
            (0u64, vec![bp(0, 1 << 20)]),
            (1, vec![bp(bucket_ns / 2, 1 << 20), bp(2 * bucket_ns, 1 << 21)]),
        ]
        .map(|(seq, points)| {
            BusEvent::Batch(SampleBatch::new(
                "machine",
                None,
                clock.window(seq),
                BatchPayload::Bandwidth { points },
            ))
        });
        let ctx = stream_ctx(Arc::new(Annotations::new()));
        let mut sink = fed(BandwidthSink::new(), &ctx, events);
        let report = sink.finish(&machine, &profile).unwrap();
        match report {
            AnalysisReport::Bandwidth(b) => {
                assert_eq!(b.total_bytes, (1 << 21) + (1 << 21), "unaligned bytes are kept");
                assert_eq!(b.total_bytes_by_node[0], b.total_bytes, "all traffic on node 0");
                assert_eq!(b.points.len(), 3, "gap bucket 1 is zero-filled");
                // Bucket 0 merged 2 × 1 MiB, bucket 2 carries 2 MiB: equal rates.
                assert!((b.points[0].gib_per_s - b.points[2].gib_per_s).abs() < 1e-9);
                assert_eq!(b.points[1].gib_per_s, 0.0);
                assert!(b.arithmetic_intensity.is_some());
            }
            other => panic!("expected bandwidth report, got {other:?}"),
        }
    }

    fn mk_sample(time_ns: u64, vaddr: u64) -> AddressSample {
        AddressSample {
            time_ns,
            vaddr,
            core: 0,
            is_store: false,
            latency: 1,
            source: DataSource::L1,
        }
    }

    #[test]
    fn region_sink_attributes_windows_as_they_close() {
        let machine = Machine::new(MachineConfig::small_test());
        let mut profile = Profile::empty("t", NmoConfig::default());
        let annotations = Arc::new(Annotations::new());
        annotations.tag_addr("obj", 0x1000, 0x2000);
        profile.tags = annotations.tags();
        let clock = crate::stream::WindowClock::new(1000);
        let events = [
            BusEvent::Batch(SampleBatch::new(
                "spe",
                Some(0),
                clock.window(0),
                BatchPayload::SpeSamples {
                    samples: vec![mk_sample(10, 0x1100), mk_sample(20, 0x9000)],
                    loss: Default::default(),
                },
            )),
            BusEvent::CloseWindow(clock.window(0)),
            // A window that never closes is still merged at finish.
            BusEvent::Batch(SampleBatch::new(
                "spe",
                Some(0),
                clock.window(1),
                BatchPayload::SpeSamples {
                    samples: vec![mk_sample(1500, 0x1200)],
                    loss: Default::default(),
                },
            )),
        ];
        let mut sink = fed(RegionSink::new(), &stream_ctx(annotations), events);
        let report = sink.finish(&machine, &profile).unwrap();
        match report {
            AnalysisReport::Regions(r) => {
                assert_eq!(r.total_samples(), 3);
                assert_eq!(r.untagged_samples, 1);
                let obj = r.per_tag.iter().find(|t| t.name == "obj").unwrap();
                assert_eq!(obj.samples, 2);
            }
            other => panic!("expected regions report, got {other:?}"),
        }
    }

    /// Every source a [`DataSource::slot`] names, then two whose node ids
    /// alias one (`Dram(16)` onto `Dram(0)`'s, `RemoteDram(200)` onto
    /// `RemoteDram(8)`'s) and so must not be folded into it.
    fn every_source(n: u64) -> DataSource {
        let mut sources: Vec<_> =
            (0..DataSource::SLOTS).filter_map(DataSource::from_slot).collect();
        sources.extend([DataSource::Dram(16), DataSource::RemoteDram(200)]);
        sources[n as usize % sources.len()]
    }

    /// `LatencySink` fed batches reports exactly
    /// `LatencyProfile::from_samples` over the same samples — the reference
    /// the integration suites compare every kind of run against.
    #[test]
    fn latency_sink_fed_batches_equals_from_samples() {
        let machine = Machine::new(MachineConfig::small_test());
        let samples: Vec<AddressSample> = (0..300u64)
            .map(|i| AddressSample {
                time_ns: i * 10,
                vaddr: 0x1000 + i,
                core: 0,
                is_store: false,
                latency: (10 + (i * 13) % 900) as u16,
                source: every_source(i),
            })
            .collect();

        // Batches in arbitrary chunks of one window, an empty one among them.
        let clock = crate::stream::WindowClock::new(1 << 20);
        let events = samples.chunks(17).chain([&[][..]]).map(|chunk| {
            BusEvent::Batch(SampleBatch::new(
                "spe",
                Some(0),
                clock.window(0),
                BatchPayload::SpeSamples { samples: chunk.to_vec(), loss: Default::default() },
            ))
        });
        let ctx = stream_ctx(Arc::new(Annotations::new()));
        let mut sink = fed(LatencySink::new(), &ctx, events);
        let empty_profile = Profile::empty("t", NmoConfig::default());
        let streamed = match sink.finish(&machine, &empty_profile).unwrap() {
            AnalysisReport::Latency(l) => l,
            other => panic!("expected latency report, got {other:?}"),
        };

        assert_eq!(streamed, LatencyProfile::from_samples(&samples));
        assert_eq!(streamed.per_source.len(), DataSource::SLOTS + 2);
        assert_eq!(streamed.total_count(), 300);
    }

    /// Feeding the same batch stream through N sink shards (partitioned by
    /// core) and merging in shard order must reproduce the serial sink's
    /// report — the `ShardableSink` contract for every standard sink.
    #[test]
    fn sharded_sinks_merge_to_the_serial_reports() {
        let machine = Machine::new(MachineConfig::small_test());
        let annotations = Arc::new(Annotations::new());
        annotations.tag_addr("obj", 0x1000, 0x40_000);
        let ctx = stream_ctx(annotations.clone());
        let clock = crate::stream::WindowClock::new(1000);
        let shards = 4usize;

        // A deterministic multi-core batch stream: 16 cores, 12 windows.
        let mut batches = Vec::new();
        for window in 0..12u64 {
            for core in 0..16usize {
                let samples: Vec<AddressSample> = (0..25u64)
                    .map(|i| {
                        let n = window * 400 + core as u64 * 25 + i;
                        AddressSample {
                            time_ns: window * 1000 + i * 40,
                            vaddr: 0x1000 + (n % 600) * 0x40,
                            core,
                            is_store: n.is_multiple_of(3),
                            latency: (20 + (n * 17) % 700) as u16,
                            source: every_source(n),
                        }
                    })
                    .collect();
                batches.push(SampleBatch::new(
                    "spe",
                    Some(core),
                    clock.window(window),
                    BatchPayload::SpeSamples { samples, loss: Default::default() },
                ));
            }
        }

        let profile = Profile::empty("t", NmoConfig::default());

        // Serial reference: one lane.
        let events = || {
            let closes = (0..12u64).map(|w| BusEvent::CloseWindow(clock.window(w)));
            batches.iter().cloned().map(BusEvent::Batch).chain(closes)
        };
        let mut serial = fed(RegionSink::new(), &ctx, events());
        let mut serial_lat = fed(LatencySink::new(), &ctx, events());
        let mut serial_log = fed(SampleLogSink::new(), &ctx, events());
        let serial_regions = match serial.finish(&machine, &profile).unwrap() {
            AnalysisReport::Regions(r) => r,
            other => panic!("expected regions, got {other:?}"),
        };
        let serial_latency = match serial_lat.finish(&machine, &profile).unwrap() {
            AnalysisReport::Latency(l) => l,
            other => panic!("expected latency, got {other:?}"),
        };
        let serial_samples = match serial_log.finish(&machine, &profile).unwrap() {
            AnalysisReport::Samples(s) => s,
            other => panic!("expected samples, got {other:?}"),
        };

        // Sharded: partition by core hash, merge in shard order.
        let mut region = RegionSink::new();
        region.on_stream_start(&ctx);
        let mut latency = LatencySink::new();
        latency.on_stream_start(&ctx);
        let mut region_shards: Vec<Box<dyn SinkShard>> =
            (0..shards).map(|s| region.as_shardable().unwrap().make_shard(s, &ctx)).collect();
        let mut latency_shards: Vec<Box<dyn SinkShard>> =
            (0..shards).map(|s| latency.as_shardable().unwrap().make_shard(s, &ctx)).collect();
        let mut log = SampleLogSink::new();
        let mut log_shards: Vec<Box<dyn SinkShard>> =
            (0..shards).map(|s| log.as_shardable().unwrap().make_shard(s, &ctx)).collect();
        for b in &batches {
            let lane = b.core.expect("spe batches carry a core") % shards;
            region_shards[lane].on_batch(b);
            latency_shards[lane].on_batch(b);
            log_shards[lane].on_batch(b);
        }
        for w in 0..12u64 {
            for shard in region_shards.iter_mut().chain(latency_shards.iter_mut()) {
                assert!(shard.on_window_close(clock.window(w)).is_none());
            }
        }
        let states: Vec<ShardState> = region_shards.into_iter().map(|s| s.finish()).collect();
        region.as_shardable().unwrap().merge_final(states);
        let states: Vec<ShardState> = latency_shards.into_iter().map(|s| s.finish()).collect();
        latency.as_shardable().unwrap().merge_final(states);
        let states: Vec<ShardState> = log_shards.into_iter().map(|s| s.finish()).collect();
        log.as_shardable().unwrap().merge_final(states);

        let sharded_regions = match region.finish(&machine, &profile).unwrap() {
            AnalysisReport::Regions(r) => r,
            other => panic!("expected regions, got {other:?}"),
        };
        let sharded_latency = match latency.finish(&machine, &profile).unwrap() {
            AnalysisReport::Latency(l) => l,
            other => panic!("expected latency, got {other:?}"),
        };

        assert_eq!(sharded_latency, serial_latency, "histogram merge is exact");
        // Sixteen cores share every timestamp: the log's order is the
        // `(time_ns, core)` sort, not the order the lanes were merged in.
        let sharded_samples = match log.finish(&machine, &profile).unwrap() {
            AnalysisReport::Samples(s) => s,
            other => panic!("expected samples, got {other:?}"),
        };
        assert_eq!(sharded_samples.len(), 12 * 16 * 25);
        assert_eq!(sharded_samples, serial_samples, "the log does not depend on the width");
        assert_eq!(sharded_regions.per_tag, serial_regions.per_tag);
        assert_eq!(sharded_regions.per_phase, serial_regions.per_phase);
        assert_eq!(sharded_regions.untagged_samples, serial_regions.untagged_samples);
        assert_eq!(sharded_regions.total_samples(), serial_regions.total_samples());
    }

    /// A legacy sink (no `as_shardable` override) reports `None` — the
    /// serial-fallback marker the session keys off.
    #[test]
    fn legacy_sinks_are_not_shardable() {
        struct Legacy;
        impl AnalysisSink for Legacy {
            fn name(&self) -> &'static str {
                "legacy"
            }
            fn analyze(
                &mut self,
                _machine: &Machine,
                _profile: &Profile,
            ) -> Result<AnalysisReport, NmoError> {
                Ok(AnalysisReport::Text(String::new()))
            }
        }
        assert!(Legacy.as_shardable().is_none());
        assert!(CapacitySink::default().as_shardable().is_some());
        assert!(BandwidthSink::default().as_shardable().is_some());
        assert!(RegionSink::default().as_shardable().is_some());
        assert!(LatencySink::default().as_shardable().is_some());
        assert!(SampleLogSink::default().as_shardable().is_some());
    }

    /// The fan-in rule, on the type alone: three lanes whose closes arrive
    /// interleaved. Each window merges once, when its last lane closes it,
    /// with the states ascending by shard; the legacy sink sees every batch,
    /// and each close once, only after every lane processed it; at the end
    /// the window not every lane closed merges first, then the final states.
    #[test]
    fn fan_in_merges_each_window_once_in_shard_order_and_closes_legacy_sinks_last() {
        let (merged, merged_log) = RecordingSink::new(true);
        let (legacy, legacy_log) = RecordingSink::new(false);
        let sinks: Vec<Box<dyn AnalysisSink>> = vec![Box::new(merged), Box::new(legacy)];
        let ctx = stream_ctx(Arc::new(Annotations::new()));
        let (mut fan_in, mut lanes) = FanIn::start(sinks, 3, &ctx);
        assert_eq!(lanes.len(), 3);

        let clock = crate::stream::WindowClock::new(1000);
        let batch = |w: u64| {
            SampleBatch::new(
                "spe",
                Some(0),
                clock.window(w),
                BatchPayload::SpeSamples {
                    samples: vec![mk_sample(w * 1000, 0x1000)],
                    loss: Default::default(),
                },
            )
        };
        let mut deliver = |lane: usize, close: bool, w: u64| {
            if close {
                lanes[lane].on_window_close(clock.window(w), || &mut fan_in);
            } else {
                lanes[lane].on_batch(&batch(w), || &mut fan_in);
            }
        };
        deliver(0, false, 0);
        deliver(2, true, 0);
        deliver(0, true, 0);
        deliver(2, true, 1);
        deliver(1, false, 0); // on time: lane 1 has not closed window 0 yet
        deliver(1, true, 0); // last lane: window 0 merges and closes
        deliver(1, true, 1);
        deliver(0, false, 1);
        deliver(0, true, 1); // last lane: window 1
        deliver(0, true, 2); // window 2 never completes
        assert_eq!(fan_in.windows_closed(), 2);
        fan_in.finish(lanes);

        assert_eq!(
            *merged_log.lock(),
            [
                "start",
                "merge w0 [0, 1, 2]",
                "merge w1 [0, 1, 2]",
                "merge w2 [0]",
                "final [0, 1, 2]"
            ]
        );
        assert_eq!(
            *legacy_log.lock(),
            ["start", "batch w0", "batch w0", "close w0", "batch w1", "close w1"]
        );
    }
}
