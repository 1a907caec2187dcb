//! [`ProfileSession`] — the backend-abstracted, `Result`-based entry point
//! of the profiler.
//!
//! A session is built fluently, owns its simulated machine, and drives the
//! full lifecycle:
//!
//! ```text
//! ProfileSession::builder()           configure machine / cores / config /
//!     ...                             backends / sinks / workload
//!     .build()?                       validate, construct the machine
//!     .run()?                         setup → start → run → verify → finish
//! ```
//!
//! Backends ([`crate::backend::SampleBackend`]) acquire the raw data (SPE
//! address samples streamed to the sinks, hardware-counter run totals); sinks
//! ([`crate::sink::AnalysisSink`]) turn it into the paper's analysis
//! levels. When no backends or sinks are registered explicitly, the session
//! derives the paper's defaults from the [`NmoConfig`] flags.
//!
//! For callers that drive the machine directly (attaching engines from their
//! own threads), [`ProfileSession::start`] returns an [`ActiveSession`]
//! handle whose [`ActiveSession::finish`] assembles the [`Profile`].
//!
//! Sinks are fed one way, whoever drives the session: the backends are
//! drained into window-stamped [`crate::stream::SampleBatch`]es, and the
//! batches and window closes are delivered through the shard fan-in of
//! `sink.rs`. Windows close by one rule, the close coordinator's: a window
//! some batch named closes once every declared source (one per SPE core)
//! has delivered a sample past it, and everything still open closes when
//! the run finishes. A session started with [`ProfileSession::start`]
//! (which [`ProfileSession::run`] uses) has no pipeline threads: it
//! delivers on the caller's thread, through its own fan-in at width 1 and
//! its own coordinator — everything at [`ActiveSession::finish`], or
//! piecewise at every [`ActiveSession::tiering_step`]. Post-hoc analysis is
//! streaming finished at the end.
//!
//! ## Streaming
//!
//! [`ProfileSession::run_streaming`] (and the manual
//! [`ProfileSession::start_streaming`]) turn the session into an online
//! pipeline of [`StreamOptions::shards`] shards — the same code at every
//! width, one shard included: per shard, a *pump worker* drains its share
//! of the backends into window-stamped [`crate::stream::SampleBatch`]es on
//! its lane of the bounded [`crate::stream::ShardedBus`] once per drain
//! interval (a period, not a pause: a round sleeps what it left of the
//! interval, and one that took longer is followed at once —
//! [`StreamStats::pump_rounds_slept`] says how often a run's pump found
//! time to sleep), and a *shard consumer* feeds them to the
//! sinks as the workload runs (per-shard [`crate::sink::SinkShard`] workers,
//! merged in ascending shard index; see `sink.rs` for the fan-in rule).
//! Pump worker 0 is the coordinator: it also drains the backends that do
//! not shard, runs the machine probes, and closes windows.
//!
//! A pump round and a thread-less step are one delivery round (`Round`):
//! its drain half hands each drain over whole — published (onto the bus in
//! one lane transaction, or into the step's batch list) and then noted
//! with the close coordinator in one more — and its close half reads the
//! close threshold, runs the machine probe and returns the windows that may
//! close. A consumer works off a local backlog of up to one
//! [`crate::stream::EventBus::recv_chunk`], taking the snapshot state and
//! the buffer pool once per chunk — so per lane, at most its bound plus one
//! chunk of samples is in flight (a chunk holds no more than the lane did;
//! see [`crate::stream::EventBus`]).
//!
//! `start_streaming` spawns one thread, the pipeline thread. It runs pump
//! worker 0 itself, and pump workers 1..N and the N shard consumers on
//! threads scoped to it. Once [`ActiveSession::finish`] (or `Drop`) asks it
//! to stop, it stops the backends and opens the final round, which each
//! pump worker runs on its own thread; it joins the workers, publishes the
//! last probe, closes every window still open and the lanes, and joins the
//! consumers. `finish` and `Drop` join the pipeline thread and nothing
//! else, and `finish` merges the shards' final states on its own thread.
//! [`ActiveSession::poll_snapshot`] exposes a live readout
//! ([`StreamSnapshot`]) while collection is active — the mode a
//! long-running service is profiled in, where waiting for the workload to
//! exit is not an option.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use arch_sim::{FanoutObserver, Machine, MachineConfig, OpObserver};

use crate::annotate::Annotations;
use crate::backend::{SampleBackend, ShardDrainer, SpeBackend};
use crate::config::NmoConfig;
use crate::runtime::Profile;
use crate::sink::{default_sinks, run_sinks, AnalysisSink, FanIn, FanInLane, StreamContext};
use crate::stream::{
    BatchPayload, BatchPool, BusEvent, BusIdle, EventBus, SampleBatch, ShardedBus, SnapshotState,
    StreamOptions, StreamSnapshot, StreamSource, StreamStats, Window, WindowClock,
};
use crate::workload::Workload;
use crate::NmoError;

/// Fluent configuration for a [`ProfileSession`].
pub struct ProfileSessionBuilder {
    machine_config: MachineConfig,
    config: NmoConfig,
    cores: Vec<usize>,
    backends: Vec<Box<dyn SampleBackend>>,
    sinks: Vec<Box<dyn AnalysisSink>>,
    workload: Option<Box<dyn Workload>>,
    default_backends: bool,
    stream_options: StreamOptions,
}

impl Default for ProfileSessionBuilder {
    fn default() -> Self {
        ProfileSessionBuilder {
            machine_config: MachineConfig::ampere_altra_max(),
            config: NmoConfig::default(),
            cores: Vec::new(),
            backends: Vec::new(),
            sinks: Vec::new(),
            workload: None,
            default_backends: true,
            stream_options: StreamOptions::default(),
        }
    }
}

impl std::fmt::Debug for ProfileSessionBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfileSessionBuilder")
            .field("machine", &self.machine_config.name)
            .field("cores", &self.cores)
            .field("backends", &self.backends.len())
            .field("sinks", &self.sinks.len())
            .field("workload", &self.workload.as_ref().map(|w| w.name()))
            .finish()
    }
}

impl ProfileSessionBuilder {
    /// The simulated platform to profile on (default: the paper's Ampere
    /// Altra Max preset).
    pub fn machine_config(mut self, machine_config: MachineConfig) -> Self {
        self.machine_config = machine_config;
        self
    }

    /// The NMO configuration (Table I) in force for the session.
    pub fn config(mut self, config: NmoConfig) -> Self {
        self.config = config;
        self
    }

    /// Base name for the profile and its report files (`NMO_NAME`).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.config.name = name.into();
        self
    }

    /// Profile exactly these cores (one workload thread per entry).
    pub fn cores(mut self, cores: impl IntoIterator<Item = usize>) -> Self {
        self.cores = cores.into_iter().collect();
        self
    }

    /// Profile cores `0..threads` (one workload thread per core).
    pub fn threads(self, threads: usize) -> Self {
        self.cores(0..threads)
    }

    /// Register a sample backend. When no backend is registered explicitly,
    /// the session derives the default from the configuration:
    /// [`SpeBackend`] when SPE sampling is active, and no backend otherwise
    /// (an RSS/bandwidth-only session runs its sinks alone). The `perf stat`
    /// counts need none: they are [`Profile::counters`].
    pub fn backend(mut self, backend: impl SampleBackend + 'static) -> Self {
        self.backends.push(Box::new(backend));
        self
    }

    /// Register an analysis sink. When no sink is registered explicitly, the
    /// session derives the default set from the configuration flags
    /// (capacity when RSS tracking is on, bandwidth when bandwidth tracking
    /// is on). A level-3 result exists only if its sink is registered here:
    /// [`crate::sink::RegionSink`] for [`Profile::regions`],
    /// [`crate::sink::LatencySink`] for [`Profile::latency`],
    /// [`crate::sink::SampleLogSink`] for [`Profile::samples`].
    pub fn sink(mut self, sink: impl AnalysisSink + 'static) -> Self {
        self.sinks.push(Box::new(sink));
        self
    }

    /// Record the run to an indexed binary trace under `dir` (one segment
    /// per shard): sugar for registering a
    /// [`crate::trace::TraceWriterSink`]. The stored trace replays through
    /// any sink via [`crate::trace::TraceReader`] — no re-simulation.
    pub fn trace_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.sinks.push(Box::new(crate::trace::TraceWriterSink::new(dir)));
        self
    }

    /// The workload [`ProfileSession::run`] will drive.
    pub fn workload(mut self, workload: Box<dyn Workload>) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Disable the config-derived default backends (an empty backend list
    /// then collects nothing).
    pub fn no_default_backends(mut self) -> Self {
        self.default_backends = false;
        self
    }

    /// Tune the streaming pipeline (window width, bus capacity, shard
    /// count, backpressure policy) used by
    /// [`ProfileSession::run_streaming`] /
    /// [`ProfileSession::start_streaming`].
    pub fn stream_options(mut self, options: StreamOptions) -> Self {
        self.stream_options = options;
        self
    }

    /// Validate the configuration and construct the session (including its
    /// simulated machine).
    pub fn build(mut self) -> Result<ProfileSession, NmoError> {
        self.machine_config.validate().map_err(NmoError::Sim)?;
        self.config.check_buffer_sizes(self.machine_config.page_bytes)?;
        let per_byte = self.config.overhead.drain_cycles_per_byte;
        if !(per_byte.is_finite() && per_byte >= 0.0) {
            return Err(NmoError::Config(format!(
                "overhead.drain_cycles_per_byte must be finite and non-negative, not {per_byte}"
            )));
        }
        if self.cores.is_empty() {
            self.cores.push(0);
        }
        let mut seen = std::collections::HashSet::new();
        for &core in &self.cores {
            if core >= self.machine_config.num_cores {
                return Err(NmoError::Config(format!(
                    "core {core} does not exist on '{}' ({} cores)",
                    self.machine_config.name, self.machine_config.num_cores
                )));
            }
            if !seen.insert(core) {
                return Err(NmoError::Config(format!("core {core} listed more than once")));
            }
        }
        if self.default_backends && self.backends.is_empty() && self.config.spe_active() {
            self.backends.push(Box::new(SpeBackend::new()));
        }
        if self.sinks.is_empty() {
            self.sinks = default_sinks(&self.config);
        }
        Ok(ProfileSession {
            machine: Arc::new(Machine::new(self.machine_config)),
            config: self.config,
            cores: self.cores,
            annotations: Arc::new(Annotations::new()),
            backends: self.backends,
            sinks: self.sinks,
            workload: self.workload,
            stream_options: self.stream_options,
        })
    }
}

/// A configured (but not yet collecting) profiling session.
///
/// The session owns the simulated machine; access it with
/// [`ProfileSession::machine`] for allocations or manual engine attachment.
pub struct ProfileSession {
    machine: Arc<Machine>,
    config: NmoConfig,
    cores: Vec<usize>,
    annotations: Arc<Annotations>,
    backends: Vec<Box<dyn SampleBackend>>,
    sinks: Vec<Box<dyn AnalysisSink>>,
    workload: Option<Box<dyn Workload>>,
    stream_options: StreamOptions,
}

impl std::fmt::Debug for ProfileSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfileSession")
            .field("machine", &self.machine.config().name)
            .field("cores", &self.cores)
            .field("backends", &self.backends.len())
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl ProfileSession {
    /// Start configuring a session.
    pub fn builder() -> ProfileSessionBuilder {
        ProfileSessionBuilder::default()
    }

    /// The simulated machine the session owns.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The annotation registry (share it with workload code).
    pub fn annotations(&self) -> Arc<Annotations> {
        self.annotations.clone()
    }

    /// The cores the session profiles.
    pub fn cores(&self) -> &[usize] {
        &self.cores
    }

    /// The configuration in force.
    pub fn config(&self) -> &NmoConfig {
        &self.config
    }

    /// Drive the registered workload end to end: `setup`, start collection,
    /// `run`, `verify`, and profile assembly.
    pub fn run(self) -> Result<Profile, NmoError> {
        self.drive("run", Self::start)
    }

    /// The workload lifecycle shared by [`ProfileSession::run`] and
    /// [`ProfileSession::run_streaming`], which differ only in how
    /// collection starts.
    fn drive(
        mut self,
        entry: &str,
        start: fn(Self) -> Result<ActiveSession, NmoError>,
    ) -> Result<Profile, NmoError> {
        let mut workload = self.workload.take().ok_or_else(|| {
            NmoError::Config(format!(
                "ProfileSession::{entry} requires a workload; use {entry}_with for closures"
            ))
        })?;
        workload.setup(&self.machine, &self.annotations)?;
        let active = start(self)?;
        let report = workload.run(active.machine(), active.annotations_ref(), active.cores())?;
        if !workload.verify() {
            return Err(NmoError::Workload(format!(
                "workload '{}' failed verification",
                workload.name()
            )));
        }
        let mut profile = active.finish()?;
        profile.workload = Some(report);
        Ok(profile)
    }

    /// Drive a closure instead of a [`Workload`]: collection starts, the
    /// closure runs the work against the machine, and the profile is
    /// assembled when it returns.
    pub fn run_with<F>(self, body: F) -> Result<Profile, NmoError>
    where
        F: FnOnce(&Machine, &Annotations, &[usize]) -> Result<(), NmoError>,
    {
        let active = self.start()?;
        body(active.machine(), active.annotations_ref(), active.cores())?;
        active.finish()
    }

    /// [`ProfileSession::run`], but through the online pipeline: backends
    /// stream window-stamped batches onto the event bus while the workload
    /// runs, sinks aggregate them incrementally, and the final [`Profile`]
    /// records the pipeline statistics in [`Profile::stream`]. The final
    /// reports are equivalent to [`ProfileSession::run`]'s (same data
    /// through the same fan-in, delivered as the run goes instead of at
    /// `finish`).
    pub fn run_streaming(self) -> Result<Profile, NmoError> {
        self.drive("run_streaming", Self::start_streaming)
    }

    /// Drive a closure through the streaming pipeline (the
    /// [`ProfileSession::run_with`] analogue of
    /// [`ProfileSession::run_streaming`]).
    pub fn run_streaming_with<F>(self, body: F) -> Result<Profile, NmoError>
    where
        F: FnOnce(&Machine, &Annotations, &[usize]) -> Result<(), NmoError>,
    {
        let active = self.start_streaming()?;
        body(active.machine(), active.annotations_ref(), active.cores())?;
        active.finish()
    }

    /// Start collection with streaming delivery and return the active
    /// handle. The caller attaches engines itself (or drives a workload),
    /// polls [`ActiveSession::poll_snapshot`] for live readout, and calls
    /// [`ActiveSession::finish`] when done.
    ///
    /// The pipeline runs with [`StreamOptions::shards`] shards (`0` = auto:
    /// `min(profiled cores, available_parallelism)`; explicit values are
    /// clamped to the profiled core count): N pump workers draining
    /// disjoint core sets onto N bus lanes, N shard consumers running
    /// [`crate::sink::SinkShard`] workers, and a deterministic
    /// (shard-index-ordered) merge back into the registered sinks. One
    /// shard is the same pipeline at width 1 — one pump worker (the
    /// coordinator, draining every backend itself), one lane, one consumer.
    /// The width, the drain interval and the backpressure policy are fixed
    /// for the run.
    ///
    /// This spawns one thread, the pipeline thread: it runs pump worker 0
    /// and spawns the other pump workers and the consumers as threads
    /// scoped to it, so they all end before it does, and
    /// [`ActiveSession::finish`] or dropping the handle joins it.
    ///
    /// A sink that panics in [`AnalysisSink::on_stream_start`] makes this
    /// return [`NmoError::Sink`]; nothing is left running.
    pub fn start_streaming(self) -> Result<ActiveSession, NmoError> {
        let opts = self.stream_options.clone();
        let requested_shards = opts.shards;
        let cores = self.cores.len();
        let mut active = self.attach()?;
        let mut backends = std::mem::take(&mut active.session.backends);
        let sinks = std::mem::take(&mut active.session.sinks);

        let shards = match requested_shards {
            0 => {
                cores.min(std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)).max(1)
            }
            // Clamp explicit requests to the profiled core count: shards
            // beyond it would own zero cores (pump workers with nothing to
            // drain, lanes with no producer). The requested count is still
            // recorded in `StreamStats::shards_requested`.
            n => n.min(cores.max(1)),
        };

        let bus = ShardedBus::new(shards, opts.bus_capacity, opts.backpressure);
        let stop = Arc::new(AtomicBool::new(false));
        let snapshot = Arc::new(Mutex::named(SnapshotState::new(shards), "session.snapshot"));
        let ctx = active.session.stream_context(Some(active.session.machine.clone()));

        // Sinks see the stream start, then hand out one worker per shard
        // (legacy sinks are fed through the merger mutex instead). A
        // panicking sink surfaces as a sink error here; dropping `active`
        // unwinds the backends cleanly — no thread has been spawned yet.
        let (fan_in, lanes) =
            catch_sink_panic("stream-start", || FanIn::start(sinks, shards, &ctx))?;

        // Partition the backends' drain work: shardable backends hand out
        // per-shard workers; the rest stay on the coordinator (all of them
        // when the pipeline is one shard wide).
        let mut drainers: Vec<Vec<Box<dyn ShardDrainer>>> =
            (0..shards).map(|_| Vec::new()).collect();
        let mut classic = Vec::with_capacity(backends.len());
        let mut seeded_sources = Vec::new();
        for backend in &mut backends {
            let workers = backend.shard_drainers(shards);
            classic.push(workers.is_empty());
            if workers.is_empty() {
                // Coordinator-drained backend: its own source list.
                seeded_sources.extend(backend.stream_sources());
            }
            for drainer in workers {
                // Worker-drained: each worker declares the sources it
                // covers (its slice of the backend's core set).
                seeded_sources.extend(drainer.sources());
                let shard = drainer.shard();
                drainers[shard.min(shards - 1)].push(drainer);
            }
        }

        let pipeline = Pipeline {
            machine: active.session.machine.clone(),
            bus: bus.clone(),
            pool: BatchPool::for_lanes(shards, opts.bus_capacity),
            snapshot: snapshot.clone(),
            stop: stop.clone(),
            backends,
            classic,
            drainers,
            coordinator: Mutex::named(
                CloseCoordinator::new(WindowClock::new(opts.window_ns), seeded_sources),
                "session.coordinator",
            ),
            merger: Mutex::named(fan_in, "session.merger"),
            lanes,
        };
        active.delivery = Some(Delivery::Pipeline(StreamingState {
            bus,
            stop,
            snapshot,
            pipeline: std::thread::spawn(move || pipeline.run()),
            requested_shards,
        }));
        Ok(active)
    }

    /// The context sinks latch when delivery starts: the machine's geometry,
    /// plus the machine itself where sinks may act on the run.
    fn stream_context(&self, machine: Option<Arc<Machine>>) -> StreamContext {
        let cfg = self.machine.config();
        StreamContext {
            annotations: self.annotations.clone(),
            capacity_bytes: cfg.total_mem_bytes(),
            bucket_ns: cfg.cycles_to_ns(cfg.bandwidth_bucket_cycles).max(1),
            mem_nodes: cfg.mem_nodes(),
            page_bytes: cfg.page_bytes,
            machine,
        }
    }

    /// Start collection manually and return the active handle. Use this when
    /// the caller attaches engines itself; call [`ActiveSession::finish`]
    /// when the work is done. No pipeline thread runs: the sinks see the
    /// stream start here and are fed at `finish` (and at every
    /// [`ActiveSession::tiering_step`] before it).
    ///
    /// A sink that panics in [`AnalysisSink::on_stream_start`] makes this
    /// return [`NmoError::Sink`].
    pub fn start(self) -> Result<ActiveSession, NmoError> {
        let mut active = self.attach()?;
        // Machine-less context, as on a replay: sinks aggregate, nothing
        // actuates by itself.
        let ctx = active.session.stream_context(None);
        let sinks = std::mem::take(&mut active.session.sinks);
        let (fan_in, mut lanes) =
            catch_sink_panic("stream-start", || FanIn::start(sinks, 1, &ctx))?;
        let sources = active.session.backends.iter().flat_map(|b| b.stream_sources()).collect();
        active.delivery = Some(Delivery::Inline(InlineState {
            fan_in,
            // `FanIn::start(_, 1, _)` hands out one lane.
            lane: lanes.swap_remove(0),
            coordinator: Mutex::named(
                CloseCoordinator::new(
                    WindowClock::new(active.session.stream_options.window_ns),
                    sources,
                ),
                "session.coordinator",
            ),
            pool: BatchPool::new(64),
            rss_cursor: 0,
        }));
        Ok(active)
    }

    /// Start the backends and attach their observers to the profiled cores:
    /// an active session whose delivery its caller starts.
    fn attach(mut self) -> Result<ActiveSession, NmoError> {
        // Gather per-core observers from every backend, preserving core order.
        let mut per_core: Vec<(usize, Vec<Box<dyn OpObserver>>)> =
            self.cores.iter().map(|&c| (c, Vec::new())).collect();
        for backend in &mut self.backends {
            for co in backend.start(&self.machine, &self.cores, &self.config)? {
                match per_core.iter_mut().find(|(c, _)| *c == co.core) {
                    Some((_, slot)) => slot.push(co.observer),
                    None => {
                        return Err(NmoError::backend(
                            backend.name(),
                            format!("returned an observer for unrequested core {}", co.core),
                        ))
                    }
                }
            }
        }
        let mut attached = Vec::new();
        for (core, mut observers) in per_core {
            let observer: Box<dyn OpObserver> = match observers.len() {
                0 => continue,
                1 => observers.swap_remove(0),
                _ => Box::new(FanoutObserver::new(observers)),
            };
            self.machine.set_observer(core, observer).map_err(NmoError::Sim)?;
            attached.push(core);
        }
        Ok(ActiveSession {
            backend_names: self.backends.iter().map(|b| b.name().to_string()).collect(),
            session: self,
            attached,
            delivery: None,
            sink_failed: false,
        })
    }
}

/// Run sink code, turning a panic into [`NmoError::Sink`] (`stage` names
/// where it happened).
fn catch_sink_panic<T>(stage: &str, f: impl FnOnce() -> T) -> Result<T, NmoError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .map_err(|_| NmoError::sink(stage, "a sink panicked"))
}

/// The shared half of a session's sink fan-in (the session owns its sinks).
type SessionFanIn = FanIn<Vec<Box<dyn AnalysisSink>>>;

/// How long a shard consumer waits on its lane before looking again: the
/// lane's close wakes it at once, so the timeout only bounds one wait.
const CONSUMER_RECV_TIMEOUT: Duration = Duration::from_millis(100);

/// A streaming session's side of its pipeline: the pipeline thread, and
/// what `poll_snapshot` reads while it runs.
struct StreamingState {
    bus: Arc<ShardedBus>,
    stop: Arc<AtomicBool>,
    snapshot: Arc<Mutex<SnapshotState>>,
    pipeline: JoinHandle<Result<PipelineEnd, NmoError>>,
    /// Shard count the caller configured (0 = auto); the allocated count
    /// (after resolution/clamping) is the bus's lane count.
    requested_shards: usize,
}

/// The thread-less counterpart of [`StreamingState`]: the session's own
/// sink fan-in at width 1 and close coordinator (a mutex no other thread
/// takes), fed on the caller's thread by [`ActiveSession::step`].
struct InlineState {
    fan_in: SessionFanIn,
    lane: FanInLane,
    coordinator: Mutex<CloseCoordinator>,
    pool: Arc<BatchPool>,
    /// RSS step events already delivered.
    rss_cursor: usize,
}

/// How an active session feeds its sinks, fixed when collection starts.
enum Delivery {
    /// Pump workers and shard consumers ([`ProfileSession::start_streaming`]).
    Pipeline(StreamingState),
    /// The caller's thread, step by step ([`ProfileSession::start`]).
    Inline(InlineState),
}

/// A session that is actively collecting.
pub struct ActiveSession {
    session: ProfileSession,
    attached: Vec<usize>,
    backend_names: Vec<String>,
    /// Set by `start` / `start_streaming`; `None` only before that and
    /// once `finish` or `drop` has taken it.
    delivery: Option<Delivery>,
    /// A sink panicked in a step: the fan-in state is unusable, every later
    /// step fails too.
    sink_failed: bool,
}

impl std::fmt::Debug for ActiveSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveSession")
            .field("machine", &self.session.machine.config().name)
            .field("attached", &self.attached)
            .finish()
    }
}

impl ActiveSession {
    /// The simulated machine.
    pub fn machine(&self) -> &Machine {
        &self.session.machine
    }

    /// The annotation registry as a shared handle.
    pub fn annotations(&self) -> Arc<Annotations> {
        self.session.annotations.clone()
    }

    /// The annotation registry by reference.
    pub fn annotations_ref(&self) -> &Annotations {
        &self.session.annotations
    }

    /// The profiled cores.
    pub fn cores(&self) -> &[usize] {
        &self.session.cores
    }

    /// `nmo_tag_addr` convenience wrapper.
    pub fn tag_addr(&self, name: &str, start: u64, end: u64) {
        self.session.annotations.tag_addr(name, start, end);
    }

    /// `nmo_start` convenience wrapper (timestamp in simulated nanoseconds).
    pub fn start_phase(&self, name: &str, now_ns: u64) {
        self.session.annotations.start(name, now_ns);
    }

    /// `nmo_stop` convenience wrapper.
    pub fn stop_phase(&self, now_ns: u64) {
        self.session.annotations.stop(now_ns);
    }

    /// Live readout of a streaming session, as running totals of the
    /// pipeline: windows closed, batch and sample counts (in all and per
    /// shard), bus accounting, and the machine's page-migration counters.
    /// What the samples say is the registered sinks' business. Returns
    /// `None` on a non-streaming session.
    pub fn poll_snapshot(&self) -> Option<StreamSnapshot> {
        let Some(Delivery::Pipeline(s)) = &self.delivery else { return None };
        Some(s.snapshot.lock().snapshot(
            s.bus.stats(),
            &s.bus.lane_stats(),
            self.session.machine.migration_stats(),
        ))
    }

    /// The manual actuator hook of profile-guided tiering: one synchronous
    /// delivery step — drain every backend, feed the batches to the
    /// registered sinks and to `tracker`, close every window a batch named
    /// once every source has delivered a sample past it (each close runs
    /// the tracker's [`crate::tiering::TieringPolicy`]) — with the resulting
    /// migrations applied to the machine via
    /// [`arch_sim::Machine::migrate_page`]. Returns the migrations applied
    /// by this step.
    ///
    /// Call it from the workload-driving thread between chunks of work
    /// (with no engine attached, so buffered SPE records flush first) —
    /// drains and decisions then happen at fixed points of the *simulated*
    /// timeline, which is what makes tiering runs reproducible (see
    /// `tests/tiering.rs`). Window width comes from
    /// [`ProfileSessionBuilder::stream_options`].
    ///
    /// A sink that panics makes this return [`NmoError::Sink`], with
    /// collection torn down (observers detached, backends stopped). On a
    /// streaming session this returns an error: there the registered
    /// tracker sink actuates by itself on the consumer thread.
    pub fn tiering_step(
        &mut self,
        tracker: &mut crate::tiering::HotPageTracker,
    ) -> Result<Vec<crate::tiering::AppliedMigration>, NmoError> {
        tracker.configure(self.session.machine.config());
        self.step(Some(tracker), false)
    }

    /// One delivery step of a session without pipeline threads — the only
    /// way its sinks are fed. It runs one [`Round`] that publishes into a
    /// local list: every backend is drained, the close threshold read and
    /// the machine probe run; then the batches and the windows that may
    /// close — on the `last` step, every window still open — go to the
    /// fan-in. `tracker` sees the same batches and closes; the migrations
    /// its closes applied are returned. A backend whose drain failed fails
    /// the step once what the others drained has been delivered.
    fn step(
        &mut self,
        mut tracker: Option<&mut crate::tiering::HotPageTracker>,
        last: bool,
    ) -> Result<Vec<crate::tiering::AppliedMigration>, NmoError> {
        if self.sink_failed {
            return Err(NmoError::sink("delivery", "a sink panicked in an earlier step"));
        }
        let Some(Delivery::Inline(state)) = &mut self.delivery else {
            return Err(NmoError::Config(
                "tiering_step drives non-streaming sessions; a streaming session actuates \
                 through the registered HotPageTracker sink"
                    .into(),
            ));
        };
        let InlineState { fan_in, lane, coordinator, pool, rss_cursor } = state;
        let machine = &self.session.machine;
        let round = Round { machine, coordinator, pool };
        let mut batches = Vec::new();
        let drained = round.drain(&mut [], &mut self.session.backends, |b| batches.extend(b));
        let closed = round.close(rss_cursor, last, |probed| batches.extend(probed));

        let delivered = catch_sink_panic("delivery", || {
            for batch in &batches {
                lane.on_batch(batch, || &mut *fan_in);
                if let Some(tracker) = tracker.as_deref_mut() {
                    tracker.ingest(batch);
                }
            }
            let mut applied = Vec::new();
            for window in closed {
                lane.on_window_close(window, || &mut *fan_in);
                if let Some(tracker) = tracker.as_deref_mut() {
                    applied.extend(tracker.close_window(window, Some(machine)));
                }
            }
            applied
        });
        pool.recycle_batches(batches);
        let applied = delivered.map_err(|e| self.fail_delivery(e))?;
        drained.map(|()| applied)
    }

    /// A sink panicked in a step: tear collection down (observers
    /// detached, backends stopped) and make every later step fail.
    fn fail_delivery(&mut self, e: NmoError) -> NmoError {
        self.sink_failed = true;
        self.detach_observers();
        for backend in &mut self.session.backends {
            let _ = backend.stop(&self.session.machine);
        }
        e
    }

    fn detach_observers(&mut self) {
        for core in self.attached.drain(..) {
            // Dropping the observer box releases the backend's per-core
            // instrument; the final aux drain was published when the last
            // engine detached.
            let _ = self.session.machine.take_observer(core);
        }
    }

    /// Stop collection, deliver what the backends still hold, run the
    /// sinks, and assemble the [`Profile`].
    pub fn finish(mut self) -> Result<Profile, NmoError> {
        self.detach_observers();

        if let Some(Delivery::Inline(_)) = self.delivery {
            // Post-hoc is streaming finished at the end: the last step
            // delivers everything no earlier step did.
            for backend in &mut self.session.backends {
                backend.stop(&self.session.machine)?;
            }
            self.step(None, true)?;
        }
        let mut stream_stats = None;
        let merge = match self.delivery.take() {
            Some(Delivery::Pipeline(streaming)) => {
                // The pipeline thread stops the backends, runs the final
                // round on every pump worker, publishes the last probe,
                // closes every window and the lanes, and joins its threads.
                streaming.stop.store(true, Ordering::Release);
                let end = streaming
                    .pipeline
                    .join()
                    .map_err(|_| NmoError::backend("stream-pump", "pump thread panicked"))??;
                self.session.backends = end.backends;
                let state = streaming.snapshot.lock();
                let bus = streaming.bus.stats();
                stream_stats = Some(StreamStats {
                    windows_closed: state.windows_closed(),
                    batches_published: state.batches,
                    batches_dropped: bus.dropped_batches,
                    items_dropped: bus.dropped_items,
                    late_batches: state.late_batches,
                    bus_high_watermark: bus.high_watermark,
                    shards: streaming.bus.shards() as u64,
                    shards_requested: streaming.requested_shards as u64,
                    pump_rounds: end.rounds.0,
                    pump_rounds_slept: end.rounds.1,
                });
                Some((end.fan_in, end.lanes, end.drained))
            }
            Some(Delivery::Inline(InlineState { fan_in, lane, .. })) => {
                Some((fan_in, vec![lane], Ok(())))
            }
            None => None,
        };
        if let Some((mut fan_in, lanes, drained)) = merge {
            // On this thread, not the pipeline's: the shards' final states
            // (and a trace's segment ends) are merged where the profile is
            // assembled.
            catch_sink_panic("merge", || fan_in.finish(lanes))?;
            self.session.sinks = std::mem::take(&mut fan_in.sinks);
            drained?;
        }

        let mut profile = crate::runtime::base_profile(
            &self.session.machine,
            &self.session.config,
            &self.session.annotations,
        );
        profile.backends = self.backend_names.clone();
        profile.stream = stream_stats;
        for backend in &mut self.session.backends {
            backend.fill(&mut profile)?;
        }
        crate::runtime::warn_on_loss(&profile);
        run_sinks(&self.session.machine, &mut profile, &mut self.session.sinks)?;
        Ok(profile)
    }
}

/// Abandoning an active streaming session (e.g. a workload error unwinding
/// past `finish`) must leave no thread behind: signal the pipeline to stop,
/// close the bus so nobody blocks on it, and join the pipeline thread — the
/// only thread a session creates, which joins every pump worker and
/// consumer before it ends. A pipeline that panicked has nothing more to
/// report here.
impl Drop for ActiveSession {
    fn drop(&mut self) {
        if let Some(Delivery::Pipeline(streaming)) = self.delivery.take() {
            streaming.stop.store(true, Ordering::Release);
            streaming.bus.close_all();
            let _ = streaming.pipeline.join();
        }
    }
}

/// Wall-clock interval between a pump worker's drains, start to start.
const PUMP_INTERVAL: Duration = Duration::from_micros(200);

/// What is left of the drain `interval` after a round that took `round`:
/// how long the worker sleeps before the next one. `None` when the round
/// used the interval up — the next round follows at once.
fn left_of_interval(interval: Duration, round: Duration) -> Option<Duration> {
    interval.checked_sub(round).filter(|left| !left.is_zero())
}

/// What the close coordinator is told about one published batch: its
/// window, and the watermark it advances for its source, `(backend,
/// batch.core)` — for an SPE batch one core's aux buffer, which publishes at
/// its own cadence, so the slowest core bounds what may close (`None` for a
/// batch without timestamps).
type PublishNote = (u64, Option<(StreamSource, u64)>);

/// `batch`'s [`PublishNote`], from what [`SampleBatch::new`] cached: the
/// samples are not read again.
fn note_of(batch: &SampleBatch) -> PublishNote {
    (batch.window.index, batch.max_time_ns().map(|max| ((batch.backend, batch.core), max)))
}

/// Producer-side close bookkeeping, the one close rule of every session
/// driver: the window clock, the set of windows awaiting closure, and a
/// per-source watermark, the newest sample time each source has delivered.
/// A window closes once every source has delivered a sample past it, and
/// nothing else decides it: a source's samples arrive in time order, so
/// nothing it delivers later can land below its watermark (the SPE cores
/// publish at their own cadences, and closing on the global maximum alone
/// would make every lagging core's batches late). Every session keeps one
/// behind a mutex that its [`Round`]s take: a pipeline's pump workers mark
/// their sources after publishing, and only pump worker 0 closes windows,
/// broadcasting what it closed to every lane; a thread-less session's step
/// hands what it closed to its fan-in.
struct CloseCoordinator {
    clock: WindowClock,
    open_windows: std::collections::BTreeSet<u64>,
    closed_below: u64,
    /// Per-source watermark, simulated nanoseconds.
    sources: std::collections::BTreeMap<StreamSource, u64>,
}

impl CloseCoordinator {
    /// Seed the watermark with every declared producer so nothing closes
    /// until each has delivered its first data.
    fn new(clock: WindowClock, seeded_sources: Vec<StreamSource>) -> Self {
        CloseCoordinator {
            clock,
            open_windows: std::collections::BTreeSet::new(),
            closed_below: 0,
            sources: seeded_sources.into_iter().map(|s| (s, 0)).collect(),
        }
    }

    fn mark_source(&mut self, key: StreamSource, t_ns: u64) {
        let watermark = self.sources.entry(key).or_insert(0);
        *watermark = (*watermark).max(t_ns);
    }

    /// Register published batches: advance the clock and, if they `vote`,
    /// their sources' watermarks, and track their windows as open. Must be
    /// called *after* the batches were enqueued — the close threshold may
    /// only move once the data that justifies it is on a lane. A run of
    /// consecutive notes from one source (a one-core drain's windows) is
    /// marked once, with the run's maximum, and a window is not inserted
    /// again right after itself — the same end state as taking the notes
    /// one at a time, at one source look-up per run.
    fn note_published(&mut self, notes: &[PublishNote], vote: bool) {
        let source_of = |note: &PublishNote| note.1.map(|(source, _)| source);
        let mut inserted_last = None;
        for run in notes.chunk_by(|a, b| source_of(a) == source_of(b)) {
            if let Some(source) = source_of(&run[0]) {
                let t_ns = run.iter().filter_map(|note| note.1).map(|(_, t)| t).max().unwrap_or(0);
                self.clock.observe(t_ns);
                if vote {
                    self.mark_source(source, t_ns);
                }
            }
            for &(window_index, _) in run {
                if window_index >= self.closed_below && inserted_last != Some(window_index) {
                    self.open_windows.insert(window_index);
                    inserted_last = Some(window_index);
                }
            }
        }
    }

    /// The window index below which every source has delivered; the
    /// global watermark's when no source votes (a session without SPE).
    fn close_threshold(&self) -> u64 {
        let slowest = self.sources.values().min().copied();
        self.clock.index_of(slowest.unwrap_or(self.clock.watermark_ns()))
    }

    /// Close every open window below `threshold` — those can no longer
    /// receive on-time data — and return them, ascending. A [`Round`]
    /// reads the threshold after its drains and before its machine probe,
    /// and closes after the probe: a core records a first-touch RSS event
    /// before any later sample, so an event below a threshold every core's
    /// samples passed is delivered by the time its window closes.
    fn close_ready_windows(&mut self, threshold: u64) -> Vec<Window> {
        let still_open = self.open_windows.split_off(&threshold);
        self.close_all_but(still_open)
    }

    /// Shutdown: close everything still open and return it, ascending.
    fn close_remaining(&mut self) -> Vec<Window> {
        self.close_all_but(std::collections::BTreeSet::new())
    }

    /// Close every open window except `still_open` (the open windows from
    /// some index on) and return them, ascending.
    fn close_all_but(&mut self, still_open: std::collections::BTreeSet<u64>) -> Vec<Window> {
        let closed = std::mem::replace(&mut self.open_windows, still_open);
        let below = closed.last().map_or(0, |last| last.saturating_add(1));
        self.closed_below = self.closed_below.max(below);
        closed.into_iter().map(|index| self.clock.window(index)).collect()
    }
}

/// One delivery round, the rule every live driver follows: the pump
/// workers each round, a thread-less session at each step. It borrows the
/// machine, the close coordinator and the buffer pool; where a drain's
/// batches go is the caller's `publish` (the bus for a pump worker, a local
/// list for a step).
#[derive(Clone, Copy)]
struct Round<'a> {
    machine: &'a Machine,
    coordinator: &'a Mutex<CloseCoordinator>,
    pool: &'a BatchPool,
}

impl Round<'_> {
    /// The drain half: drain each of `drainers` and `backends` with the
    /// clock as of the round's start and hand every drain over whole
    /// ([`Round::publish`]). Every drain runs and what it produced is
    /// delivered even if an earlier one failed; the first error comes back
    /// once all of them have.
    fn drain<'b>(
        &self,
        drainers: &mut [Box<dyn ShardDrainer>],
        backends: impl IntoIterator<Item = &'b mut Box<dyn SampleBackend>>,
        mut publish: impl FnMut(Vec<SampleBatch>),
    ) -> Result<(), NmoError> {
        let clock = self.coordinator.lock().clock;
        let drains = drainers.iter_mut().map(|d| d.drain(self.machine, &clock, self.pool));
        let drains =
            drains.chain(backends.into_iter().map(|b| b.drain(self.machine, &clock, self.pool)));
        let mut result = Ok(());
        for drained in drains {
            match drained {
                Ok(batches) => self.publish(batches, true, &mut publish),
                Err(e) => keep_first(&mut result, Err(e)),
            }
        }
        result
    }

    /// The close half: read the close threshold — after the round's
    /// drains (read before them, it would hold every close back a round)
    /// and before the machine probe (see
    /// [`CloseCoordinator::close_ready_windows`]) — publish the probe, and
    /// return the windows that may close, ascending; on the `last` round,
    /// every window still open. The probe's notes advance the clock and
    /// open windows but hold none: the RSS watermark stops moving once
    /// allocation is over.
    fn close(
        &self,
        rss_cursor: &mut usize,
        last: bool,
        publish: impl FnMut(Vec<SampleBatch>),
    ) -> Vec<Window> {
        let (clock, threshold) = {
            let coordinator = self.coordinator.lock();
            (coordinator.clock, coordinator.close_threshold())
        };
        let probed = probe_machine(self.machine, &clock, rss_cursor, last);
        self.publish(probed, false, publish);
        let mut coordinator = self.coordinator.lock();
        if last {
            coordinator.close_remaining()
        } else {
            coordinator.close_ready_windows(threshold)
        }
    }

    /// Hand one drain's batches to `publish`, then note them with the close
    /// coordinator (see [`CloseCoordinator::note_published`]; the machine
    /// probe's batches do not `vote`): one transaction with the coordinator
    /// per drain, however many batches it produced.
    fn publish(
        &self,
        batches: Vec<SampleBatch>,
        vote: bool,
        publish: impl FnOnce(Vec<SampleBatch>),
    ) {
        if batches.is_empty() {
            return;
        }
        let notes: Vec<PublishNote> = batches.iter().map(note_of).collect();
        // Ordering rationale (pinned): publish-then-mark. The watermark may
        // only advance once the data justifying it is queued on a lane —
        // marking first would let a concurrent close-threshold computation
        // close a batch's window before the batch is visible to its shard
        // consumer, violating the close-after-on-time-data contract. Both
        // operations are mutex-protected (lane queue, coordinator), so the
        // program order here is the inter-thread order. No lock is held
        // across the two calls, and the coordinator pump broadcasts the
        // windows `close` returns after releasing the coordinator, so no
        // two of these locks nest — the `NMO_LOCK_CHECK` runtime checker
        // verifies exactly this in the stress suite.
        publish(batches);
        self.coordinator.lock().note_published(&notes, vote);
    }
}

/// One machine probe round, as core-less `"machine"` batches: the RSS step
/// events new since `rss_cursor`, plus — on the `last` round of a run — the
/// bandwidth series. RSS events stay in the order the machine recorded
/// them (one batch per run of same-window events): each carries the running
/// total at its recording, and cores' clocks are skewed against each other,
/// so recording order — not timestamp order — is what keeps the totals
/// meaningful.
fn probe_machine(
    machine: &Machine,
    clock: &WindowClock,
    rss_cursor: &mut usize,
    last: bool,
) -> Vec<SampleBatch> {
    let batch = |window, payload| SampleBatch::new("machine", None, window, payload);
    let fresh = machine.rss_events_since(*rss_cursor);
    *rss_cursor += fresh.len();
    let mut batches: Vec<SampleBatch> = fresh
        .chunk_by(|a, b| clock.index_of(a.time_ns) == clock.index_of(b.time_ns))
        .map(|run| {
            let window = clock.window_containing(run[0].time_ns);
            batch(window, BatchPayload::Rss { points: run.to_vec() })
        })
        .collect();
    if last {
        let buckets = clock.group_by_window(machine.bandwidth_series(), |p| p.time_ns);
        batches.extend(
            buckets
                .into_iter()
                .map(|(window, points)| batch(window, BatchPayload::Bandwidth { points })),
        );
    }
    batches
}

/// Keep the first error of a run of calls.
fn keep_first(result: &mut Result<(), NmoError>, next: Result<(), NmoError>) {
    if result.is_ok() {
        *result = next;
    }
}

/// Run `round` once per [`PUMP_INTERVAL`] until `until` is set: the round
/// that sees it set is the last, `round(true)`. Returns `(rounds run,
/// rounds that slept)`.
///
/// Drain cadence: the pump samples the backends once per wall-clock
/// interval; nothing signals "new simulated work". The interval is a
/// deadline counted from the round's start, not a pause after it: a round
/// sleeps what it left of the interval, and one that overran it (a drain
/// that found a lot) is followed at once. Deliberately not keyed on "the
/// round published something": the RSS probe publishes on nearly every
/// round of a simulated run, and a pump that never slept would spin against
/// the simulated cores on a small host.
fn every_interval(until: &AtomicBool, mut round: impl FnMut(bool)) -> (u64, u64) {
    let (mut rounds, mut slept) = (0, 0);
    loop {
        let round_start = Instant::now();
        rounds += 1;
        let last = until.load(Ordering::Acquire);
        round(last);
        if last {
            return (rounds, slept);
        }
        if let Some(left) = left_of_interval(PUMP_INTERVAL, round_start.elapsed()) {
            slept += 1;
            #[allow(clippy::disallowed_methods)]
            std::thread::sleep(left);
        }
    }
}

/// What the pipeline thread owns for the run.
struct Pipeline {
    machine: Arc<Machine>,
    bus: Arc<ShardedBus>,
    pool: Arc<BatchPool>,
    snapshot: Arc<Mutex<SnapshotState>>,
    /// Set by `finish` or `Drop`: the run is over.
    stop: Arc<AtomicBool>,
    /// Every backend; `classic[i]` marks those without shard drainers,
    /// which pump worker 0 drains itself.
    backends: Vec<Box<dyn SampleBackend>>,
    classic: Vec<bool>,
    /// Shard `s`'s drainers, at index `s`: pump worker `s` alone calls them.
    drainers: Vec<Vec<Box<dyn ShardDrainer>>>,
    coordinator: Mutex<CloseCoordinator>,
    merger: Mutex<SessionFanIn>,
    /// The consumers' lanes: handed to them at the start, back from them
    /// at the end.
    lanes: Vec<FanInLane>,
}

/// What the pipeline thread hands back to `finish` once it has ended in
/// order (a pump worker or a consumer that panicked is an error instead):
/// what `finish` merges and reports. The rest of the [`Pipeline`] — the
/// pool, the coordinator — is dropped on the pipeline thread, which
/// allocated most of it. Freed on `finish`'s thread, its small blocks would
/// stay in that thread's allocator cache and keep the pump threads' heaps
/// from shrinking (`trace_rw_128c` `peak_rss_mib` 82 → 89 MiB on a 2-vCPU
/// host).
struct PipelineEnd {
    fan_in: SessionFanIn,
    lanes: Vec<FanInLane>,
    backends: Vec<Box<dyn SampleBackend>>,
    /// The first error a drain or a backend's `stop` returned.
    drained: Result<(), NmoError>,
    /// `(rounds run, rounds that slept)`, summed over the pump workers.
    rounds: (u64, u64),
}

/// Ends the pipeline's other threads should it leave early (pump worker
/// 0's rounds unwound, or a pump worker panicked): the pump workers leave
/// after their next round, the consumers once their lanes close. After an
/// orderly end both are already so.
struct EndOnDrop<'a> {
    final_round: &'a AtomicBool,
    bus: &'a ShardedBus,
}

impl Drop for EndOnDrop<'_> {
    fn drop(&mut self) {
        self.final_round.store(true, Ordering::Release);
        self.bus.close_all();
    }
}

impl Pipeline {
    /// The pipeline thread. It spawns the shard consumers and pump workers
    /// 1..N on threads scoped to it and runs pump worker 0 — the
    /// coordinator: the backends that do not shard, the machine probe and
    /// the closes — itself. Once `stop` is set it stops the backends and
    /// opens the final round, which every pump worker runs on its own
    /// thread; then it joins the workers, publishes the last probe, closes
    /// every window still open and the lanes, and joins the consumers.
    fn run(mut self) -> Result<PipelineEnd, NmoError> {
        let round =
            Round { machine: &self.machine, coordinator: &self.coordinator, pool: &self.pool };
        let bus = &*self.bus;
        let publish = &|batches: Vec<SampleBatch>| {
            bus.publish_batches(batches);
        };
        let final_round = &AtomicBool::new(false);
        let mut drained = Ok(());
        let rounds = std::thread::scope(|s| -> Result<_, NmoError> {
            let _end = EndOnDrop { final_round, bus };
            let consumers: Vec<_> = self
                .lanes
                .drain(..)
                .enumerate()
                .map(|(shard, lane)| {
                    let (merger, snapshot, pool) = (&self.merger, &*self.snapshot, &*self.pool);
                    s.spawn(move || {
                        shard_consumer_loop(shard, bus.lane(shard), lane, merger, snapshot, pool)
                    })
                })
                .collect();
            let mut drainers = std::mem::take(&mut self.drainers).into_iter();
            let mut own = drainers.next().unwrap_or_default();
            let workers: Vec<_> = drainers
                .map(|mut drainers| {
                    s.spawn(move || {
                        let mut drained = Ok(());
                        let rounds = every_interval(final_round, |_| {
                            keep_first(&mut drained, round.drain(&mut drainers, [], publish));
                        });
                        (drained, rounds)
                    })
                })
                .collect();

            let mut rss_cursor = 0;
            let mut rounds = every_interval(&self.stop, |last| {
                if last {
                    // Observers are detached: stop the backends, then open
                    // the final round for every pump worker.
                    for backend in &mut self.backends {
                        keep_first(&mut drained, backend.stop(&self.machine));
                    }
                    final_round.store(true, Ordering::Release);
                }
                let classic = self.backends.iter_mut().zip(&self.classic);
                let unsharded = classic.filter_map(|(backend, &c)| c.then_some(backend));
                keep_first(&mut drained, round.drain(&mut own, unsharded, publish));
                if !last {
                    // Close signals bypass lane capacity, so this never blocks.
                    let closed = round.close(&mut rss_cursor, false, publish);
                    closed.into_iter().for_each(|window| bus.broadcast_close(window));
                }
            });
            for worker in workers {
                let (worker_drained, (run, slept)) = worker
                    .join()
                    .map_err(|_| NmoError::backend("stream-pump", "pump worker panicked"))?;
                keep_first(&mut drained, worker_drained);
                rounds = (rounds.0 + run, rounds.1 + slept);
            }
            // Every worker's final publish is on the bus: deliver the
            // bandwidth series, close what remains, and close the lanes so
            // the consumers can exit.
            let closed = round.close(&mut rss_cursor, true, publish);
            closed.into_iter().for_each(|window| bus.broadcast_close(window));
            bus.close_all();
            // Every consumer is joined before a panicked one is reported,
            // and the lanes go back into the vector they came in: one
            // allocated here would be freed on `finish`'s thread.
            let mut consumer_panicked = false;
            for consumer in consumers {
                match consumer.join() {
                    Ok(lane) => self.lanes.push(lane),
                    Err(_) => consumer_panicked = true,
                }
            }
            if consumer_panicked {
                return Err(NmoError::sink("stream-consumer", "consumer thread panicked"));
            }
            Ok(rounds)
        })?;
        let fan_in = self.merger.into_inner();
        Ok(PipelineEnd { fan_in, lanes: self.lanes, backends: self.backends, drained, rounds })
    }
}

/// One shard consumer, on a thread the pipeline thread scoped and joins
/// once it has closed the lanes: it drains its bus lane into its
/// [`FanInLane`] — the [`SinkShard`] workers lock-free, legacy sinks and
/// window closes through the merger mutex (see [`FanIn`] for the merge
/// rule) — and keeps the shared snapshot state current for
/// [`ActiveSession::poll_snapshot`]. It returns the lane, which `finish`
/// merges on its own thread.
///
/// A panicking sink must not kill the thread outright: under
/// [`crate::stream::BackpressurePolicy::Block`] a dead consumer would leave
/// its lane's pump worker wedged in `publish` forever (and the pipeline
/// thread wedged joining it). Instead the panic is caught, the loop keeps
/// draining (discarding) until the lane closes, and the panic is rethrown
/// so the pipeline thread's join surfaces it as an error.
fn shard_consumer_loop(
    shard: usize,
    bus_lane: &EventBus,
    mut lane: FanInLane,
    merger: &Mutex<SessionFanIn>,
    snapshot: &Mutex<SnapshotState>,
    pool: &BatchPool,
) -> FanInLane {
    let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;
    // The events taken off the lane and not yet delivered: at most one
    // `recv_chunk` of them, refilled only once empty.
    let mut backlog: Vec<BusEvent> = Vec::new();
    loop {
        match bus_lane.recv_chunk(&mut backlog, CONSUMER_RECV_TIMEOUT) {
            Ok(_) => {
                {
                    let mut snap = snapshot.lock();
                    for event in &backlog {
                        match event {
                            BusEvent::Batch(batch) => snap.record_batch(batch, shard),
                            BusEvent::CloseWindow(window) => snap.record_close(*window, shard),
                        }
                    }
                }
                if panic_payload.is_none() {
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        for event in &backlog {
                            match event {
                                BusEvent::Batch(batch) => lane.on_batch(batch, || merger.lock()),
                                BusEvent::CloseWindow(window) => {
                                    lane.on_window_close(*window, || merger.lock())
                                }
                            }
                        }
                    }));
                    if let Err(payload) = result {
                        panic_payload = Some(payload);
                    }
                }
                // The batches' buffers go back to the pool for the next
                // drain (the zero-copy recycle step).
                pool.recycle_batches(backlog.drain(..).filter_map(|event| match event {
                    BusEvent::Batch(batch) => Some(batch),
                    BusEvent::CloseWindow(_) => None,
                }));
            }
            Err(BusIdle::TimedOut) => {}
            Err(BusIdle::Closed) => match panic_payload {
                Some(payload) => std::panic::resume_unwind(payload),
                None => return lane,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::AnalysisReport;
    use arch_sim::MachineConfig;

    fn small_session(period: u64, threads: usize) -> ProfileSession {
        ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .config(NmoConfig::paper_default(period))
            .threads(threads)
            .build()
            .unwrap()
    }

    fn stream_like(
        machine: &Machine,
        annotations: &Annotations,
        cores: &[usize],
    ) -> Result<(), NmoError> {
        let region = machine.alloc("data", 1 << 20)?;
        annotations.tag_addr("data", region.start, region.end());
        std::thread::scope(|s| {
            for &core in cores {
                let region = region.clone();
                s.spawn(move || {
                    let mut e = machine.attach(core).expect("attach");
                    for i in 0..20_000u64 {
                        e.load(region.start + (i % 10_000) * 8, 8);
                        e.store(region.start + (i % 10_000) * 8, 8);
                    }
                });
            }
        });
        Ok(())
    }

    #[test]
    fn builder_rejects_bad_cores() {
        let err = ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .cores([0, 99])
            .build()
            .unwrap_err();
        assert!(matches!(err, NmoError::Config(_)), "{err}");
        let err = ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .cores([1, 1])
            .build()
            .unwrap_err();
        assert!(matches!(err, NmoError::Config(_)), "{err}");
    }

    /// Buffer sizes come from the environment: whatever it says, a session
    /// either builds and maps its buffers or fails with a config error.
    #[test]
    fn hostile_buffer_sizes_are_config_errors_not_panics() {
        let build = |config: NmoConfig| {
            ProfileSession::builder()
                .machine_config(MachineConfig::small_test())
                .config(config)
                .build()
        };
        let from_env = |var: &'static str, value: &'static str| {
            NmoConfig::from_lookup(|k| match k {
                "NMO_ENABLE" => Some("1".into()),
                "NMO_MODE" => Some("mem".into()),
                "NMO_PERIOD" => Some("100".into()),
                k if k == var => Some(value.into()),
                _ => None,
            })
            .and_then(build)
        };
        for (var, value) in [
            ("NMO_BUFSIZE", "18446744073709551615"),
            ("NMO_AUXBUFSIZE", "17592186044415"),
            ("NMO_AUXBUFSIZE", "1025"),
            ("NMO_BUFSIZE", "4096"),
            ("NMO_AUXBUFSIZE", "lots"),
        ] {
            let err = from_env(var, value).expect_err(value);
            assert!(matches!(err, NmoError::Config(_)), "{var}={value}: {err}");
        }
        for pages in [u64::MAX, (1 << 63) + 1, 1 << 19] {
            let config =
                NmoConfig { auxbuf_pages_override: Some(pages), ..NmoConfig::paper_default(100) };
            let err = build(config).expect_err("oversized override");
            assert!(matches!(err, NmoError::Config(_)), "{pages} pages: {err}");
        }
        // Zero rounds up to the 1 MiB minimum; the largest accepted size
        // maps.
        for (var, value) in [("NMO_BUFSIZE", "0"), ("NMO_BUFSIZE", "1024")] {
            let session = from_env(var, value).expect(value);
            let profile = session.run_with(|_, _, _| Ok(())).expect("buffers map");
            assert_eq!(profile.backends, ["spe"], "{var}={value}");
        }
    }

    /// The SPE overhead model is configuration too: a per-byte drain cost
    /// that is not a finite, non-negative number is a config error, and a
    /// drain latency no run outlasts runs (its aux space never comes back).
    #[test]
    fn hostile_overhead_models_are_config_errors_not_panics() {
        let session = |overhead| {
            ProfileSession::builder()
                .machine_config(MachineConfig::small_test())
                .config(NmoConfig { overhead, ..NmoConfig::paper_default(64) })
                .build()
        };
        for per_byte in [f64::INFINITY, f64::NAN, -5.0] {
            let overhead =
                spe::OverheadModel { drain_cycles_per_byte: per_byte, ..Default::default() };
            let err = session(overhead).expect_err("hostile per-byte cost");
            assert!(
                matches!(&err, NmoError::Config(m) if m.contains("drain_cycles_per_byte")),
                "{per_byte}: {err}"
            );
        }
        let overhead =
            spe::OverheadModel { drain_service_latency_cycles: u64::MAX, ..Default::default() };
        let profile = session(overhead)
            .expect("a huge latency is a valid model")
            .run_with(|machine, _, _| {
                let region = machine.alloc("data", 1 << 20)?;
                let mut e = machine.attach(0)?;
                for i in 0..50_000u64 {
                    e.load(region.start + (i % 10_000) * 8, 8);
                }
                Ok(())
            })
            .expect("the run completes");
        assert!(profile.processed_samples > 0);
        assert_eq!(profile.processed_samples, profile.spe.records_written);
    }

    #[test]
    fn run_without_workload_is_a_config_error() {
        let err = small_session(100, 1).run().unwrap_err();
        assert!(matches!(err, NmoError::Config(_)), "{err}");
    }

    #[test]
    fn default_backends_run_spe_alone() {
        let session = small_session(100, 2);
        let profile = session.run_with(stream_like).unwrap();
        assert_eq!(profile.backends, ["spe"]);
        assert!(profile.processed_samples > 100);
        assert_eq!(profile.counters.mem_access, 80_000);
        // Default sinks produced capacity and bandwidth, and nothing else.
        assert_eq!(profile.analyses.len(), 2);
        assert!(profile.capacity.peak_bytes > 0);
        assert!(profile.bandwidth.total_bytes > 0);
    }

    /// A profile is what its sinks reported: without `SampleLogSink` /
    /// `RegionSink` there is no sample record and no attribution, on either
    /// kind of session, and no `_samples.csv` is written for them.
    #[test]
    fn a_session_keeps_no_samples_and_no_regions_unless_their_sinks_are_registered() {
        let default_run = small_session(100, 1).run_with(stream_like).unwrap();
        let latency_only = ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .config(NmoConfig::paper_default(100))
            .threads(1)
            .sink(crate::sink::LatencySink::new())
            .build()
            .unwrap()
            .run_streaming_with(stream_like)
            .unwrap();
        assert!(default_run.latency().is_none());
        let streamed = latency_only.latency().expect("its sink was registered");
        assert_eq!(streamed.total_count(), latency_only.processed_samples);
        for (i, profile) in [default_run, latency_only].iter().enumerate() {
            assert!(profile.processed_samples > 100);
            assert!(profile.samples().is_none() && profile.regions().is_none());
            let dir = std::env::temp_dir().join(format!("nmo_none_{}_{i}", std::process::id()));
            let written = profile.write_csv_reports(&dir).unwrap();
            assert!(!written.iter().any(|f| f.ends_with("_samples.csv")), "{written:?}");
            assert!(!written.iter().any(|f| f.ends_with("_regions.csv")), "{written:?}");
            assert!(!dir.join(format!("{}_samples.csv", profile.name)).exists());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn explicit_region_sink_caches_attribution_on_the_profile() {
        let session = ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .config(NmoConfig::paper_default(100))
            .threads(1)
            .sink(crate::sink::RegionSink::default())
            .build()
            .unwrap();
        let profile = session.run_with(stream_like).unwrap();
        let attributed =
            |r: &crate::regions::RegionProfile| r.total_samples() == profile.processed_samples;
        assert!(profile.processed_samples > 0);
        assert!(profile.analyses.iter().any(|a| a.sink == "regions"
            && matches!(&a.report, AnalysisReport::Regions(r) if attributed(r))));
        assert!(attributed(profile.regions().expect("the same report")));
    }

    #[test]
    fn counter_only_session_samples_nothing_but_counts() {
        let session = ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .config(NmoConfig { enabled: true, track_rss: true, ..NmoConfig::default() })
            .threads(1)
            .sink(crate::sink::SampleLogSink::new())
            .build()
            .unwrap();
        let profile = session.run_with(stream_like).unwrap();
        assert!(profile.backends.is_empty());
        assert_eq!(profile.processed_samples, 0);
        assert_eq!(profile.samples(), Some(&[][..]));
        assert_eq!(profile.counters.mem_access, 40_000);
        assert_eq!(profile.counters.observer_cycles, 0, "no backend charges a cycle");
    }

    /// `inst_retired` counts every retired instruction — the bulk
    /// `cpu_work`/`flops` ones no observer is shown included — on one and on
    /// two cores, with or without pipeline threads: the run total is the
    /// machine's own.
    #[test]
    fn inst_retired_counts_every_instruction_post_hoc_and_streaming() {
        fn mixed_work(m: &Machine, _: &Annotations, cores: &[usize]) -> Result<(), NmoError> {
            let region = m.alloc("data", 1 << 20)?;
            std::thread::scope(|s| {
                for &core in cores {
                    let region = region.clone();
                    s.spawn(move || {
                        let mut e = m.attach(core).expect("attach");
                        for i in 0..20_000u64 {
                            e.load(region.start + (i % 10_000) * 8, 8);
                            e.cpu_work(3);
                            if i % 4 == 0 {
                                e.store(region.start + (i % 10_000) * 8, 8);
                                e.flops(2);
                                e.branch(0x40_0000);
                            }
                        }
                    });
                }
            });
            Ok(())
        }
        for threads in [1usize, 2] {
            for streaming in [false, true] {
                let session = ProfileSession::builder()
                    .machine_config(MachineConfig::small_test())
                    .config(NmoConfig::paper_default(100))
                    .threads(threads)
                    .build()
                    .unwrap();
                let profile = if streaming {
                    session.run_streaming_with(mixed_work)
                } else {
                    session.run_with(mixed_work)
                }
                .unwrap();
                let case = format!("{threads} cores, streaming {streaming}");
                let per_core = 20_000 * 4 + 5_000 * 4;
                let c = &profile.counters;
                assert_eq!(c.instructions, threads as u64 * per_core, "{case}");
                assert_eq!(c.mem_access, threads as u64 * 25_000, "{case}");
                assert_eq!(c.branches, threads as u64 * 5_000, "{case}");
            }
        }
    }

    /// The counter-only totals of `counter_only_session_samples_nothing_but_counts`,
    /// through the streaming pipeline.
    #[test]
    fn streaming_counter_only_session_keeps_exact_totals() {
        let session = ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .config(NmoConfig { enabled: true, track_rss: true, ..NmoConfig::default() })
            .threads(2)
            .build()
            .unwrap();
        let profile = session.run_streaming_with(stream_like).unwrap();
        assert!(profile.backends.is_empty());
        assert_eq!(profile.processed_samples, 0);
        let c = &profile.counters;
        assert_eq!((c.mem_access, c.loads, c.stores), (80_000, 40_000, 40_000));
        assert_eq!(c.instructions, 80_000);
        assert_eq!(profile.counters.observer_cycles, 0, "no backend charges a cycle");
    }

    #[test]
    fn disabled_config_attaches_no_backends() {
        let session = ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .config(NmoConfig::default())
            .threads(1)
            .build()
            .unwrap();
        let profile = session.run_with(stream_like).unwrap();
        assert!(profile.backends.is_empty());
        assert_eq!(profile.processed_samples, 0);
        assert_eq!(profile.counters.observer_cycles, 0);
    }

    #[test]
    fn manual_start_finish_flow() {
        let session = small_session(50, 1);
        let active = session.start().unwrap();
        let region = active.machine().alloc("a", 1 << 16).unwrap();
        active.tag_addr("a", region.start, region.end());
        {
            let mut e = active.machine().attach(0).unwrap();
            active.start_phase("kernel", e.now_ns());
            for i in 0..10_000u64 {
                e.load(region.start + (i % 1_000) * 8, 8);
            }
            active.stop_phase(e.now_ns());
        }
        let profile = active.finish().unwrap();
        assert!(profile.processed_samples > 0);
        assert_eq!(profile.phases.len(), 1);
        assert!(!profile.phases[0].is_open());
    }

    #[test]
    fn explicit_backend_and_sink_registration_overrides_defaults() {
        let session = ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .config(NmoConfig::paper_default(100))
            .threads(1)
            .backend(SpeBackend::new())
            .sink(crate::sink::BandwidthSink::default())
            .build()
            .unwrap();
        let profile = session.run_with(stream_like).unwrap();
        assert_eq!(profile.backends, ["spe"]);
        assert!(profile.processed_samples > 0);
        assert_eq!(profile.analyses.len(), 1);
        assert!(profile.capacity.points.is_empty(), "no capacity sink registered");
    }

    #[test]
    fn streaming_closure_run_matches_post_hoc_exactly_single_threaded() {
        // One thread → fully deterministic simulation, so the streaming
        // pipeline's windowed merge must reproduce the post-hoc scan exactly.
        let build = || {
            ProfileSession::builder()
                .machine_config(MachineConfig::small_test())
                .config(NmoConfig::paper_default(100))
                .threads(1)
                .sink(crate::sink::CapacitySink::default())
                .sink(crate::sink::BandwidthSink::default())
                .sink(crate::sink::RegionSink::default())
                .sink(crate::sink::SampleLogSink::new())
                .build()
                .unwrap()
        };
        let post_hoc = build().run_with(stream_like).unwrap();
        let streamed = build().run_streaming_with(stream_like).unwrap();

        assert_eq!(streamed.processed_samples, post_hoc.processed_samples);
        assert_eq!(streamed.samples().unwrap().len() as u64, streamed.processed_samples);
        assert_eq!(streamed.samples(), post_hoc.samples());
        assert_eq!(streamed.capacity, post_hoc.capacity);
        assert_eq!(streamed.bandwidth, post_hoc.bandwidth);
        let (r_s, r_p) = (streamed.regions().unwrap(), post_hoc.regions().unwrap());
        assert_eq!(r_s.per_tag, r_p.per_tag);
        assert_eq!(r_s.untagged_samples, r_p.untagged_samples);
        assert_eq!(r_s.per_phase, r_p.per_phase);

        assert!(post_hoc.stream.is_none());
        let stats = streamed.stream.expect("streaming run records pipeline stats");
        assert!(stats.batches_published > 0, "{stats:?}");
        assert!(stats.windows_closed > 0, "{stats:?}");
        assert_eq!(stats.batches_dropped, 0, "default bus must not drop: {stats:?}");
    }

    #[test]
    fn streaming_without_workload_is_a_config_error() {
        let err = small_session(100, 1).run_streaming().unwrap_err();
        assert!(matches!(err, NmoError::Config(_)), "{err}");
    }

    /// A sink that panics mid-stream must surface as an error, not wedge the
    /// session: under `Block` backpressure a dead consumer would otherwise
    /// leave the pump stuck in `publish` and `finish` stuck joining it.
    #[test]
    fn panicking_sink_surfaces_as_error_not_deadlock() {
        struct PanickingSink;
        impl crate::sink::AnalysisSink for PanickingSink {
            fn name(&self) -> &'static str {
                "boom"
            }
            fn analyze(
                &mut self,
                _machine: &Machine,
                _profile: &Profile,
            ) -> Result<crate::sink::AnalysisReport, NmoError> {
                Ok(crate::sink::AnalysisReport::Text(String::new()))
            }
            fn on_batch(&mut self, _batch: &SampleBatch) {
                panic!("sink exploded");
            }
        }
        let session = ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .config(NmoConfig::paper_default(100))
            .threads(1)
            .sink(PanickingSink)
            .stream_options(crate::stream::StreamOptions {
                bus_capacity: 2,
                backpressure: crate::stream::BackpressurePolicy::Block,
                ..Default::default()
            })
            .build()
            .unwrap();
        let err = session.run_streaming_with(stream_like).unwrap_err();
        assert!(matches!(err, NmoError::Sink { .. }), "{err}");
    }

    /// The one-shard pipeline is the sharded pipeline at width 1: with one
    /// legacy and one shardable sink registered, the legacy sink is fed
    /// through the fan-in — every batch, each window close exactly once,
    /// and (one lane) only batches the session counts as late after it —
    /// while the shardable sink gets exactly one worker.
    #[test]
    fn one_shard_session_feeds_a_legacy_sink_next_to_a_shardable_one() {
        use crate::sink::testing::RecordingSink;
        let (legacy, legacy_log) = RecordingSink::new(false);
        let (merged, merged_log) = RecordingSink::new(true);
        let session = ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .config(NmoConfig::paper_default(100))
            .threads(1)
            .sink(legacy)
            .sink(merged)
            .stream_options(StreamOptions { window_ns: 50_000, shards: 1, ..Default::default() })
            .build()
            .unwrap();
        let profile = session.run_streaming_with(stream_like).unwrap();
        let stats = profile.stream.expect("stream stats");
        assert_eq!((stats.shards, stats.batches_dropped), (1, 0), "{stats:?}");
        assert!(stats.windows_closed > 1, "{stats:?}");

        let log = legacy_log.lock().clone();
        assert_eq!(log[0], "start");
        let batches =
            log.iter().filter(|e| e.starts_with("batch") || e.starts_with("ticks")).count() as u64;
        assert_eq!(batches, stats.batches_published, "the legacy sink sees every batch");
        let closes: Vec<&str> =
            log.iter().filter_map(|e| e.strip_prefix("close ")).collect::<Vec<_>>();
        let mut unique = closes.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(closes.len(), unique.len(), "each window closes once: {closes:?}");
        assert_eq!(closes.len() as u64, stats.windows_closed);
        let late = log
            .iter()
            .enumerate()
            .filter_map(|(i, e)| Some((i, e.strip_prefix("batch ")?)))
            .filter(|(i, w)| log[..*i].iter().any(|e| e.strip_prefix("close ") == Some(w)))
            .count() as u64;
        assert_eq!(late, stats.late_batches, "closes follow their window's on-time batches");

        let merged_log = merged_log.lock().clone();
        assert_eq!(merged_log.len() as u64, 1 + stats.windows_closed + 1, "{merged_log:?}");
        assert!(merged_log[1..merged_log.len() - 1].iter().all(|e| e.ends_with(" [0]")));
        assert_eq!(merged_log.last().map(String::as_str), Some("final [0]"));
    }

    /// A session without pipeline threads feeds its sinks through the same
    /// fan-in: a legacy sink on `start()`/`finish()` sees the stream start
    /// once, then every batch, then each window's close exactly once, in
    /// ascending order — and a shardable one gets exactly one worker.
    #[test]
    fn thread_less_session_delivers_through_the_fan_in_at_finish() {
        use crate::sink::testing::RecordingSink;
        let (legacy, legacy_log) = RecordingSink::new(false);
        let (merged, merged_log) = RecordingSink::new(true);
        let session = ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .config(NmoConfig::paper_default(100))
            .threads(2)
            .sink(legacy)
            .sink(merged)
            .sink(crate::sink::SampleLogSink::new())
            .stream_options(StreamOptions { window_ns: 50_000, ..Default::default() })
            .build()
            .unwrap();
        let active = session.start().unwrap();
        stream_like(active.machine(), active.annotations_ref(), active.cores()).unwrap();
        assert_eq!(*legacy_log.lock(), ["start"], "only the stream start is fed before a step");
        let profile = active.finish().unwrap();
        assert!(profile.stream.is_none(), "no pipeline ran");

        let log = legacy_log.lock().clone();
        assert_eq!(log.iter().filter(|e| *e == "start").count(), 1);
        assert_eq!(log[0], "start");
        let first_close = log.iter().position(|e| e.starts_with("close")).expect("closes");
        assert!(first_close > 1, "batches were delivered: {log:?}");
        assert!(log[1..first_close].iter().any(|e| e.starts_with("batch")));
        assert!(log[1..first_close].iter().any(|e| e.starts_with("ticks")), "bandwidth series");
        let closes: Vec<u64> = log[first_close..]
            .iter()
            .map(|e| {
                e.strip_prefix("close w").expect("only closes after the first").parse().unwrap()
            })
            .collect();
        let last_window = profile.samples().unwrap().last().map_or(0, |s| s.time_ns / 50_000);
        assert!(closes.len() as u64 > last_window, "{closes:?}");
        assert_eq!(closes, (0..closes.len() as u64).collect::<Vec<_>>(), "each once, ascending");

        let merged_log = merged_log.lock().clone();
        assert_eq!(merged_log.len(), 1 + closes.len() + 1, "{merged_log:?}");
        assert!(merged_log[1..merged_log.len() - 1].iter().all(|e| e.ends_with(" [0]")));
        assert_eq!(merged_log.last().map(String::as_str), Some("final [0]"));
    }

    /// RSS events reach the capacity sink in the order the machine recorded
    /// them, whatever their timestamps say: a core that ran ahead in
    /// simulated time touches a page first, a lagging core the next one —
    /// and the series still ends on the last-recorded total, under both
    /// drivers of the fan-in.
    #[test]
    fn capacity_series_follows_recording_order_under_clock_skew() {
        fn skewed(machine: &Machine, _a: &Annotations, cores: &[usize]) -> Result<(), NmoError> {
            let page = machine.config().page_bytes;
            let region = machine.alloc("data", 2 * page)?;
            {
                let mut ahead = machine.attach(cores[0])?;
                ahead.cpu_work(5_000_000); // several windows of simulated time
                ahead.store(region.start, 8);
            }
            let mut lagging = machine.attach(cores[1])?;
            lagging.store(region.start + page, 8);
            Ok(())
        }
        let page = MachineConfig::small_test().page_bytes;
        for streaming in [false, true] {
            let session = small_session(100, 2);
            let profile = if streaming {
                session.run_streaming_with(skewed)
            } else {
                session.run_with(skewed)
            }
            .unwrap();
            assert_eq!(profile.capacity.peak_bytes, 2 * page, "streaming: {streaming}");
            assert_eq!(
                profile.capacity.final_gib(),
                profile.capacity.peak_gib(),
                "streaming: {streaming}"
            );
        }
    }

    /// Custom sinks keep both of their shapes on `run()`: one that only
    /// implements `analyze` over the finished profile (and there sees the
    /// report of the sink registered before it), and a shardable one that
    /// counts what it is fed and overrides `finish`.
    #[test]
    fn analyze_only_and_finish_overriding_sinks_report_from_run() {
        use crate::sink::{ShardState, ShardableSink, SinkShard};
        struct ScanSink;
        impl AnalysisSink for ScanSink {
            fn name(&self) -> &'static str {
                "scan"
            }
            fn analyze(&mut self, _m: &Machine, p: &Profile) -> Result<AnalysisReport, NmoError> {
                Ok(AnalysisReport::Text(format!("samples={}", p.samples().map_or(0, <[_]>::len))))
            }
        }
        #[derive(Default)]
        struct CountSink(u64);
        struct CountShard(u64);
        impl SinkShard for CountShard {
            fn on_batch(&mut self, batch: &SampleBatch) {
                if let BatchPayload::SpeSamples { samples, .. } = batch.payload() {
                    self.0 += samples.len() as u64;
                }
            }
            fn finish(self: Box<Self>) -> ShardState {
                Box::new(self.0)
            }
        }
        impl AnalysisSink for CountSink {
            fn name(&self) -> &'static str {
                "count"
            }
            fn analyze(&mut self, _m: &Machine, _p: &Profile) -> Result<AnalysisReport, NmoError> {
                Ok(AnalysisReport::Text("analyze must not be reached".into()))
            }
            fn finish(&mut self, _m: &Machine, _p: &Profile) -> Result<AnalysisReport, NmoError> {
                Ok(AnalysisReport::Text(format!("fed={}", self.0)))
            }
            fn as_shardable(&mut self) -> Option<&mut dyn ShardableSink> {
                Some(self)
            }
        }
        impl ShardableSink for CountSink {
            fn make_shard(&mut self, _s: usize, _ctx: &StreamContext) -> Box<dyn SinkShard> {
                Box::new(CountShard(0))
            }
            fn merge_final(&mut self, states: Vec<ShardState>) {
                for state in states {
                    self.0 += *state.downcast::<u64>().expect("a CountShard state");
                }
            }
        }
        struct StreamLike;
        impl Workload for StreamLike {
            fn name(&self) -> &'static str {
                "stream-like"
            }
            fn setup(&mut self, _m: &Machine, _a: &Annotations) -> Result<(), NmoError> {
                Ok(())
            }
            fn run(
                &mut self,
                m: &Machine,
                a: &Annotations,
                c: &[usize],
            ) -> Result<crate::WorkloadReport, NmoError> {
                stream_like(m, a, c).map(|()| crate::WorkloadReport::default())
            }
            fn verify(&self) -> bool {
                true
            }
        }
        let profile = ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .config(NmoConfig::paper_default(100))
            .threads(2)
            .sink(crate::sink::SampleLogSink::new())
            .sink(ScanSink)
            .sink(CountSink::default())
            .workload(Box::new(StreamLike))
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(profile.processed_samples > 100);
        let text = |i: usize| match &profile.analyses[i].report {
            AnalysisReport::Text(t) => t.clone(),
            other => panic!("expected text, got {other:?}"),
        };
        assert_eq!(text(1), format!("samples={}", profile.processed_samples));
        assert_eq!(text(2), format!("fed={}", profile.processed_samples), "every sample delivered");
    }

    /// A sink panicking while a thread-less session feeds it surfaces as
    /// `NmoError::Sink` — from `run_with`, whose `finish` delivers
    /// everything, and from `tiering_step`, which also tears collection
    /// down: no observer stays attached, the backends are stopped, and the
    /// session keeps failing.
    #[test]
    fn panicking_sink_on_a_thread_less_session_is_a_sink_error() {
        struct PanickingSink;
        impl AnalysisSink for PanickingSink {
            fn name(&self) -> &'static str {
                "boom"
            }
            fn analyze(&mut self, _m: &Machine, _p: &Profile) -> Result<AnalysisReport, NmoError> {
                Ok(AnalysisReport::Text(String::new()))
            }
            fn on_batch(&mut self, _batch: &SampleBatch) {
                panic!("sink exploded");
            }
        }
        struct StopProbe(Arc<AtomicBool>);
        impl SampleBackend for StopProbe {
            fn name(&self) -> &'static str {
                "stop-probe"
            }
            fn start(
                &mut self,
                _machine: &Machine,
                _cores: &[usize],
                _config: &NmoConfig,
            ) -> Result<Vec<crate::backend::CoreObserver>, NmoError> {
                Ok(Vec::new())
            }
            fn stop(&mut self, _machine: &Machine) -> Result<(), NmoError> {
                self.0.store(true, Ordering::SeqCst);
                Ok(())
            }
            fn fill(&mut self, _profile: &mut Profile) -> Result<(), NmoError> {
                Ok(())
            }
        }
        let build = |stopped: &Arc<AtomicBool>| {
            ProfileSession::builder()
                .machine_config(MachineConfig::small_test())
                .config(NmoConfig::paper_default(100))
                .threads(1)
                .backend(SpeBackend::new())
                .backend(StopProbe(stopped.clone()))
                .sink(PanickingSink)
                .build()
                .unwrap()
        };
        let stopped = Arc::new(AtomicBool::new(false));
        let err = build(&stopped).run_with(stream_like).unwrap_err();
        assert!(matches!(err, NmoError::Sink { .. }), "{err}");

        let stopped = Arc::new(AtomicBool::new(false));
        let mut active = build(&stopped).start().unwrap();
        stream_like(active.machine(), active.annotations_ref(), active.cores()).unwrap();
        let mut tracker = crate::tiering::HotPageTracker::new(crate::tiering::NoMigration);
        let err = active.tiering_step(&mut tracker).unwrap_err();
        assert!(matches!(err, NmoError::Sink { .. }), "{err}");
        assert!(stopped.load(Ordering::SeqCst), "backends stopped");
        assert!(active.machine().take_observer(0).unwrap().is_none(), "observer detached");
        let err = active.tiering_step(&mut tracker).unwrap_err();
        assert!(matches!(err, NmoError::Sink { .. }), "{err}");
        let err = active.finish().unwrap_err();
        assert!(matches!(err, NmoError::Sink { .. }), "{err}");
    }

    /// Dropping a streaming session mid-run leaks no thread: `drop` joins
    /// the pump workers and consumers (there are no others), so right
    /// afterwards nothing holds the sinks any more.
    #[test]
    fn dropping_a_streaming_session_joins_its_threads() {
        use crate::sink::testing::RecordingSink;
        for shards in [1, 4] {
            let (sink, log) = RecordingSink::new(false);
            let active = ProfileSession::builder()
                .machine_config(MachineConfig::small_test())
                .config(NmoConfig::paper_default(50))
                .threads(4)
                .sink(sink)
                .stream_options(StreamOptions {
                    shards,
                    bus_capacity: 2,
                    backpressure: crate::stream::BackpressurePolicy::Block,
                    ..Default::default()
                })
                .build()
                .unwrap()
                .start_streaming()
                .unwrap();
            // Detaching the engines publishes each core's buffered records,
            // so the pipeline still has batches to move when it is dropped.
            stream_like(active.machine(), active.annotations_ref(), active.cores()).unwrap();
            assert!(Arc::strong_count(&log) > 1, "the pipeline holds the sink");
            drop(active);
            assert_eq!(Arc::strong_count(&log), 1, "{shards} shard(s): a thread outlived drop");
        }
    }

    /// A backend (or one shard drainer of it) whose drain panics: directly
    /// on pump worker 0, or on pump worker `shards - 1`.
    struct PanickingDrain {
        shards_to_hand_out: usize,
    }
    impl SampleBackend for PanickingDrain {
        fn name(&self) -> &'static str {
            "panicking-drain"
        }
        fn start(
            &mut self,
            _machine: &Machine,
            _cores: &[usize],
            _config: &NmoConfig,
        ) -> Result<Vec<crate::backend::CoreObserver>, NmoError> {
            Ok(Vec::new())
        }
        fn drain(
            &mut self,
            _machine: &Machine,
            _clock: &WindowClock,
            _pool: &BatchPool,
        ) -> Result<Vec<SampleBatch>, NmoError> {
            panic!("drain exploded");
        }
        fn shard_drainers(&mut self, shards: usize) -> Vec<Box<dyn ShardDrainer>> {
            struct Drainer(usize, usize);
            impl ShardDrainer for Drainer {
                fn shard(&self) -> usize {
                    self.0
                }
                fn drain(
                    &mut self,
                    _machine: &Machine,
                    _clock: &WindowClock,
                    _pool: &BatchPool,
                ) -> Result<Vec<SampleBatch>, NmoError> {
                    assert!(self.0 + 1 < self.1, "shard drainer exploded");
                    Ok(Vec::new())
                }
                fn sources(&self) -> Vec<StreamSource> {
                    Vec::new()
                }
            }
            let wanted = self.shards_to_hand_out.min(shards);
            (0..wanted).map(|s| Box::new(Drainer(s, wanted)) as Box<dyn ShardDrainer>).collect()
        }
        fn stop(&mut self, _machine: &Machine) -> Result<(), NmoError> {
            Ok(())
        }
        fn fill(&mut self, _profile: &mut Profile) -> Result<(), NmoError> {
            Ok(())
        }
    }

    /// A pump worker that panics fails `finish` with a backend error and
    /// does not wedge the pipeline: at width 1 the panicking drain runs on
    /// the pipeline thread itself, at width 4 on a worker it scoped. And a
    /// session dropped mid-run still joins every thread, so nothing holds
    /// the sink afterwards.
    #[test]
    fn a_panicking_drain_fails_finish_and_drop_still_joins_every_thread() {
        use crate::sink::testing::RecordingSink;
        for (shards, shards_to_hand_out) in [(1, 0), (4, 4)] {
            for finish in [true, false] {
                let (sink, log) = RecordingSink::new(false);
                let active = ProfileSession::builder()
                    .machine_config(MachineConfig::small_test())
                    .config(NmoConfig::paper_default(100))
                    .threads(4)
                    .backend(SpeBackend::new())
                    .backend(PanickingDrain { shards_to_hand_out })
                    .sink(sink)
                    .stream_options(StreamOptions {
                        shards,
                        bus_capacity: 2,
                        backpressure: crate::stream::BackpressurePolicy::Block,
                        ..Default::default()
                    })
                    .build()
                    .unwrap()
                    .start_streaming()
                    .unwrap();
                stream_like(active.machine(), active.annotations_ref(), active.cores()).unwrap();
                let case = format!("{shards} shard(s), finish {finish}");
                if finish {
                    let err = active.finish().unwrap_err();
                    assert!(
                        matches!(&err, NmoError::Backend { backend, .. } if backend == "stream-pump"),
                        "{case}: {err}"
                    );
                } else {
                    drop(active);
                }
                assert_eq!(Arc::strong_count(&log), 1, "{case}: a thread outlived the session");
            }
        }
    }

    /// A thread-less step delivers what every backend drained even when a
    /// later backend's drain fails: the step returns the error, and no
    /// sample the SPE backend handed over is lost.
    #[test]
    fn a_failed_drain_fails_the_step_and_loses_no_other_backends_samples() {
        struct FailsFirstDrain(bool);
        impl SampleBackend for FailsFirstDrain {
            fn name(&self) -> &'static str {
                "fails-first-drain"
            }
            fn start(
                &mut self,
                _machine: &Machine,
                _cores: &[usize],
                _config: &NmoConfig,
            ) -> Result<Vec<crate::backend::CoreObserver>, NmoError> {
                Ok(Vec::new())
            }
            fn drain(
                &mut self,
                _machine: &Machine,
                _clock: &WindowClock,
                _pool: &BatchPool,
            ) -> Result<Vec<SampleBatch>, NmoError> {
                if std::mem::replace(&mut self.0, true) {
                    Ok(Vec::new())
                } else {
                    Err(NmoError::backend("fails-first-drain", "no data yet"))
                }
            }
            fn stop(&mut self, _machine: &Machine) -> Result<(), NmoError> {
                Ok(())
            }
            fn fill(&mut self, _profile: &mut Profile) -> Result<(), NmoError> {
                Ok(())
            }
        }
        let mut active = ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .config(NmoConfig::paper_default(100))
            .threads(1)
            .backend(SpeBackend::new())
            .backend(FailsFirstDrain(false))
            .sink(crate::sink::SampleLogSink::new())
            .build()
            .unwrap()
            .start()
            .unwrap();
        stream_like(active.machine(), active.annotations_ref(), active.cores()).unwrap();
        let mut tracker = crate::tiering::HotPageTracker::new(crate::tiering::NoMigration);
        let err = active.tiering_step(&mut tracker).unwrap_err();
        assert!(
            matches!(&err, NmoError::Backend { backend, .. } if backend == "fails-first-drain")
        );
        let profile = active.finish().unwrap();
        assert!(profile.processed_samples > 0);
        let logged = profile.samples().expect("its sink was registered").len() as u64;
        assert_eq!(logged, profile.processed_samples, "every drained sample was delivered");
    }

    /// A sink that panics in `on_stream_start` fails `start_streaming`
    /// itself with a sink error, at every pipeline width, and so does
    /// `start`; nothing is left running: the backends (and whatever they
    /// hold) are dropped.
    #[test]
    fn sink_panicking_at_stream_start_fails_start_streaming_and_leaves_nothing_running() {
        use crate::sink::testing::RecordingSink;
        struct ProbeBackend {
            _alive: Arc<()>,
        }
        impl SampleBackend for ProbeBackend {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn start(
                &mut self,
                _machine: &Machine,
                _cores: &[usize],
                _config: &NmoConfig,
            ) -> Result<Vec<crate::backend::CoreObserver>, NmoError> {
                Ok(Vec::new())
            }
            fn stop(&mut self, _machine: &Machine) -> Result<(), NmoError> {
                Ok(())
            }
            fn fill(&mut self, _profile: &mut Profile) -> Result<(), NmoError> {
                Ok(())
            }
        }
        // `None`: a thread-less `start()`.
        for shards in [Some(1), Some(2), None] {
            let alive = Arc::new(());
            let (mut sink, _log) = RecordingSink::new(true);
            sink.panic_on_start = true;
            let session = ProfileSession::builder()
                .machine_config(MachineConfig::small_test())
                .config(NmoConfig::paper_default(100))
                .threads(2)
                .backend(SpeBackend::new())
                .backend(ProbeBackend { _alive: alive.clone() })
                .sink(sink)
                .stream_options(StreamOptions { shards: shards.unwrap_or(1), ..Default::default() })
                .build()
                .unwrap();
            let err = match shards {
                Some(_) => session.start_streaming(),
                None => session.start(),
            }
            .unwrap_err();
            assert!(matches!(err, NmoError::Sink { .. }), "{shards:?} shard(s): {err}");
            assert_eq!(Arc::strong_count(&alive), 1, "{shards:?} shard(s): backends dropped");
        }
    }

    /// One drain is one hand-off: every batch goes onto its lane first, the
    /// coordinator hears of all of them afterwards — so a concurrent
    /// `close_ready_windows` can never close a window whose batch is still
    /// on its way — and exactly the windows the batches name end up open,
    /// to be closed in ascending order.
    #[test]
    fn publish_batches_notes_a_drain_only_once_all_of_it_is_on_a_lane() {
        use crate::runtime::AddressSample;
        use crate::stream::{BackpressurePolicy, BusRecv};
        let clock = WindowClock::new(1000);
        let spe_batch = |core: usize, window: u64| {
            let sample = AddressSample {
                time_ns: clock.window(window).start_ns + 7,
                vaddr: 0x1000,
                core,
                is_store: false,
                latency: 1,
                source: arch_sim::DataSource::L1,
            };
            SampleBatch::new(
                "spe",
                Some(core),
                clock.window(window),
                BatchPayload::SpeSamples { samples: vec![sample; 3], loss: Default::default() },
            )
        };
        // Two cores, windows 2, 3 and 5 (core 1 skips 3; nobody names 4).
        let drain = vec![
            spe_batch(0, 2),
            spe_batch(0, 3),
            spe_batch(0, 5),
            spe_batch(1, 2),
            spe_batch(1, 5),
        ];
        let sources = vec![("spe", Some(0)), ("spe", Some(1))];
        let coordinator =
            Arc::new(Mutex::named(CloseCoordinator::new(clock, sources), "session.coordinator"));
        // A one-sample blocking lane takes a three-sample batch only when
        // empty: the publisher cannot get ahead of the receives below by
        // more than one batch.
        let bus = ShardedBus::new(1, 1, BackpressurePolicy::Block);
        let publisher = {
            let (bus, coordinator) = (bus.clone(), coordinator.clone());
            std::thread::spawn(move || {
                let (machine, pool) =
                    (Machine::new(MachineConfig::small_test()), BatchPool::new(1));
                let round = Round { machine: &machine, coordinator: &coordinator, pool: &pool };
                round.publish(drain, true, |batches| {
                    bus.publish_batches(batches);
                });
            })
        };
        let recv = || match bus.lane(0).recv_timeout(Duration::from_secs(10)) {
            BusRecv::Event(event) => event,
            other => panic!("expected an event, got {other:?}"),
        };
        let mut seqs = Vec::new();
        for _ in 0..3 {
            match recv() {
                BusEvent::Batch(batch) => seqs.push(batch.seq),
                BusEvent::CloseWindow(w) => panic!("window {} closed mid-drain", w.index),
            }
            // At most four of the five batches have reached the lane.
            let mut coordinator = coordinator.lock();
            assert_eq!(coordinator.close_threshold(), 0, "no source has been marked yet");
            assert!(coordinator.open_windows.is_empty());
            assert_eq!(coordinator.close_ready_windows(u64::MAX), Vec::<Window>::new());
        }
        for _ in 0..2 {
            match recv() {
                BusEvent::Batch(batch) => seqs.push(batch.seq),
                BusEvent::CloseWindow(w) => panic!("window {} closed before its batches", w.index),
            }
        }
        publisher.join().unwrap();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4], "one contiguous seq range, in drain order");

        let mut coordinator = coordinator.lock();
        assert_eq!(coordinator.open_windows.iter().copied().collect::<Vec<_>>(), vec![2, 3, 5]);
        assert_eq!(coordinator.close_threshold(), 5, "both cores have delivered window 5");
        assert_eq!(coordinator.close_ready_windows(5), [clock.window(2), clock.window(3)]);
        assert_eq!(coordinator.open_windows.iter().copied().collect::<Vec<_>>(), vec![5]);
        assert_eq!(bus.stats().queued, 0);
    }

    /// One note per batch, keyed by the batch's own core: an SPE batch's
    /// maximum under `(backend, core)`, any other batch's under its stamp,
    /// and no mark for a batch without timestamps.
    #[test]
    fn a_batch_is_noted_once_under_its_own_core() {
        let window = WindowClock::new(1000).window(3);
        let sample = |time_ns| crate::runtime::AddressSample {
            time_ns,
            vaddr: 0x1000,
            core: 5,
            is_store: false,
            latency: 1,
            source: arch_sim::DataSource::L1,
        };
        let spe = |core, samples| {
            let payload = BatchPayload::SpeSamples { samples, loss: Default::default() };
            SampleBatch::new("spe", Some(core), window, payload)
        };
        let rss = |points| SampleBatch::new("machine", None, window, BatchPayload::Rss { points });
        let points = vec![arch_sim::RssPoint::flat(3400, 1), arch_sim::RssPoint::flat(3100, 2)];
        for (batch, expected) in [
            (spe(5, vec![sample(3900), sample(3050)]), Some((("spe", Some(5)), 3900))),
            (spe(1, Vec::new()), None),
            (rss(points), Some((("machine", None), 3400))),
            (rss(Vec::new()), None),
        ] {
            assert_eq!(note_of(&batch), (3, expected), "{batch:?}");
        }
    }

    /// `note_published` as it was while it took the notes one at a time:
    /// the reference for the folded walk.
    fn note_published_one_at_a_time(
        coordinator: &mut CloseCoordinator,
        notes: &[PublishNote],
        vote: bool,
    ) {
        for &(window_index, mark) in notes {
            if let Some((source, t_ns)) = mark {
                coordinator.clock.observe(t_ns);
                if vote {
                    coordinator.mark_source(source, t_ns);
                }
            }
            if window_index >= coordinator.closed_below {
                coordinator.open_windows.insert(window_index);
            }
        }
    }

    proptest::proptest! {
        /// Folding runs of same-source notes changes nothing the coordinator
        /// keeps: over arbitrary note lists — per-core SPE sources, the
        /// core-less machine source and mark-less notes, in runs and singly,
        /// windows on both sides of `closed_below`, handed over in several
        /// calls, voting and not.
        #[test]
        fn folded_note_published_matches_one_note_at_a_time(
            words in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 0..=200usize),
            closed_below in 0..12u64,
        ) {
            let seeded = || {
                let sources = vec![("spe", Some(0)), ("spe", Some(1)), ("machine", None)];
                let mut c = CloseCoordinator::new(WindowClock::new(1000), sources);
                c.closed_below = closed_below;
                c
            };
            let (mut folded, mut reference) = (seeded(), seeded());
            let mut calls: Vec<(bool, Vec<PublishNote>)> = vec![(true, Vec::new())];
            let mut previous: PublishNote = (0, None);
            for w in words {
                // Three times in four the previous note's source again, and
                // every other time its window: runs, as a drain lists them.
                let t_ns = (w >> 8) % 16_000;
                let mark = match w % 8 {
                    0 => [None, Some((("machine", None), t_ns))][(w >> 4) as usize % 2],
                    1 => Some((("spe", Some((w >> 4) as usize % 4)), t_ns)),
                    _ => previous.1.map(|(source, _)| (source, t_ns)),
                };
                let window = if (w >> 24) % 2 == 0 { previous.0 } else { (w >> 32) % 16 };
                previous = (window, mark);
                if (w >> 40) % 16 == 0 {
                    calls.push(((w >> 44) % 2 == 0, Vec::new()));
                }
                calls.last_mut().expect("starts with one call").1.push(previous);
            }
            for (vote, notes) in calls {
                folded.note_published(&notes, vote);
                note_published_one_at_a_time(&mut reference, &notes, vote);
                assert_eq!(folded.open_windows, reference.open_windows);
                assert_eq!(folded.sources, reference.sources);
                assert_eq!(folded.clock.watermark_ns(), reference.clock.watermark_ns());
                assert_eq!(folded.closed_below, reference.closed_below);
                assert_eq!(folded.close_threshold(), reference.close_threshold());
            }
        }
    }

    /// Only delivered samples move the close threshold. A declared source
    /// that never produces holds every window open however many rounds go
    /// by; the machine probe's notes move the clock and open windows but
    /// hold none; and a threshold read before a note closes nothing that
    /// note opened.
    #[test]
    fn only_delivered_samples_move_the_close_threshold() {
        let indices = |closed: Vec<Window>| closed.iter().map(|w| w.index).collect::<Vec<_>>();
        let probe = |window, t_ns| (window, Some((("machine", None), t_ns)));

        // As the coordinator pump does it: the threshold, the round's notes,
        // the close. Core 0 delivers into window 9 on every round, core 1
        // never.
        let sources = vec![("spe", Some(0)), ("spe", Some(1))];
        let mut coordinator = CloseCoordinator::new(WindowClock::new(1000), sources);
        for round in 0..10_000 {
            let threshold = coordinator.close_threshold();
            coordinator.note_published(&[(9, Some((("spe", Some(0)), 9_500)))], true);
            assert_eq!(threshold, 0, "round {round}: core 1 is still awaited");
            assert_eq!(coordinator.close_ready_windows(threshold), Vec::<Window>::new());
        }

        // Core 1 turns up in window 2; the probe notes windows 1 and 12.
        coordinator.note_published(&[(2, Some((("spe", Some(1)), 2_100)))], true);
        coordinator.note_published(&[probe(1, 1_200), probe(12, 12_300)], false);
        assert_eq!(coordinator.clock.watermark_ns(), 12_300, "probe notes move the clock");
        assert_eq!(coordinator.open_windows.iter().copied().collect::<Vec<_>>(), [1, 2, 9, 12]);
        assert!(!coordinator.sources.contains_key(&("machine", None)), "and mark no source");
        assert_eq!(coordinator.close_threshold(), 2, "the slowest core's window");
        assert_eq!(indices(coordinator.close_ready_windows(2)), [1]);
        assert_eq!(coordinator.closed_below, 2);

        // Without a per-core source the close follows the global watermark,
        // as of the threshold's read.
        let mut coordinator = CloseCoordinator::new(WindowClock::new(1000), Vec::new());
        let threshold = coordinator.close_threshold();
        coordinator.note_published(&[probe(0, 300), probe(3, 3_400)], false);
        assert_eq!(indices(coordinator.close_ready_windows(threshold)), [], "read before the note");
        assert_eq!(coordinator.close_threshold(), 3);
        assert_eq!(indices(coordinator.close_ready_windows(3)), [0]);
        assert_eq!(indices(coordinator.close_remaining()), [3], "shutdown takes the rest");
    }

    /// The last window of time closes like any other: a one-nanosecond
    /// window at index `u64::MAX` comes back whole, and `closed_below`
    /// saturates instead of overflowing.
    #[test]
    fn the_window_at_the_end_of_time_comes_back_and_closed_below_saturates() {
        let clock = WindowClock::new(1);
        let mut coordinator = CloseCoordinator::new(clock, vec![("spe", Some(0))]);
        coordinator.note_published(&[(u64::MAX, Some((("spe", Some(0)), u64::MAX)))], true);
        assert_eq!(coordinator.close_threshold(), u64::MAX, "nothing lies past the source");
        assert_eq!(coordinator.close_ready_windows(u64::MAX), Vec::<Window>::new());
        assert_eq!(coordinator.close_remaining(), [clock.window(u64::MAX)]);
        assert_eq!(coordinator.closed_below, u64::MAX);
        assert!(coordinator.open_windows.is_empty());
    }

    #[test]
    fn left_of_interval_is_the_remainder_or_nothing() {
        let interval = PUMP_INTERVAL;
        assert_eq!(left_of_interval(interval, Duration::ZERO), Some(interval));
        let round = Duration::from_micros(150);
        assert_eq!(left_of_interval(interval, round), Some(Duration::from_micros(50)));
        assert_eq!(
            left_of_interval(interval, interval - Duration::from_nanos(1)),
            Some(Duration::from_nanos(1))
        );
        assert_eq!(left_of_interval(interval, interval), None, "nothing left is no sleep");
        assert_eq!(left_of_interval(interval, 2 * interval), None);
        assert_eq!(left_of_interval(interval, Duration::MAX), None, "no underflow");
        assert_eq!(left_of_interval(Duration::ZERO, Duration::ZERO), None);
    }

    /// The drain interval is a deadline, not a pause: a round that took
    /// longer than the interval is followed at once. Fifty rounds whose
    /// drain alone takes two intervals are fifty rounds that did not sleep —
    /// whatever else the host does to the timing.
    #[test]
    fn a_round_longer_than_the_interval_is_followed_at_once() {
        const SLOW_ROUNDS: u64 = 50;
        struct SlowDrain {
            slow_rounds_left: u64,
            done: std::sync::mpsc::SyncSender<()>,
        }
        impl SampleBackend for SlowDrain {
            fn name(&self) -> &'static str {
                "slow-drain"
            }
            fn start(
                &mut self,
                _machine: &Machine,
                _cores: &[usize],
                _config: &NmoConfig,
            ) -> Result<Vec<crate::backend::CoreObserver>, NmoError> {
                Ok(Vec::new())
            }
            fn drain(
                &mut self,
                _machine: &Machine,
                clock: &WindowClock,
                _pool: &BatchPool,
            ) -> Result<Vec<SampleBatch>, NmoError> {
                if self.slow_rounds_left == 0 {
                    return Ok(Vec::new());
                }
                let busy_until = Instant::now() + 2 * PUMP_INTERVAL;
                while Instant::now() < busy_until {
                    std::hint::spin_loop();
                }
                self.slow_rounds_left -= 1;
                if self.slow_rounds_left == 0 {
                    self.done.send(()).expect("the test waits for the last slow round");
                }
                let payload = BatchPayload::Rss { points: Vec::new() };
                Ok(vec![SampleBatch::new("slow-drain", None, clock.current(), payload)])
            }
            fn stop(&mut self, _machine: &Machine) -> Result<(), NmoError> {
                Ok(())
            }
            fn fill(&mut self, _profile: &mut Profile) -> Result<(), NmoError> {
                Ok(())
            }
        }
        let (done, slow_rounds_done) = std::sync::mpsc::sync_channel(1);
        let active = ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .config(NmoConfig::paper_default(100))
            .threads(1)
            .backend(SlowDrain { slow_rounds_left: SLOW_ROUNDS, done })
            .build()
            .unwrap()
            .start_streaming()
            .unwrap();
        slow_rounds_done.recv_timeout(Duration::from_secs(60)).expect("the pump keeps draining");
        let stats = active.finish().unwrap().stream.expect("stream stats");
        assert_eq!(stats.shards, 1, "one pump worker: {stats:?}");
        assert!(stats.batches_published >= SLOW_ROUNDS, "{stats:?}");
        assert!(stats.pump_rounds > SLOW_ROUNDS, "the final round comes on top: {stats:?}");
        assert!(stats.pump_rounds_slept <= stats.pump_rounds - SLOW_ROUNDS, "{stats:?}");
    }

    #[test]
    fn poll_snapshot_is_none_without_streaming_and_live_with_it() {
        let active = small_session(100, 1).start().unwrap();
        assert!(active.poll_snapshot().is_none());
        drop(active.finish().unwrap());

        let active = small_session(100, 1).start_streaming().unwrap();
        let region = active.machine().alloc("data", 1 << 20).unwrap();
        active.tag_addr("data", region.start, region.end());
        {
            let mut e = active.machine().attach(0).unwrap();
            for i in 0..50_000u64 {
                e.load(region.start + (i % 10_000) * 8, 8);
            }
        }
        // Give the pump a few ticks to drain the detached core.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let snap = active.poll_snapshot().expect("streaming session has snapshots");
            if snap.spe_samples > 0 || std::time::Instant::now() > deadline {
                assert!(snap.spe_samples > 0, "pump never delivered: {snap:?}");
                break;
            }
            #[allow(clippy::disallowed_methods)] // test poll loop
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let profile = active.finish().unwrap();
        assert!(profile.processed_samples > 0);
    }

    #[test]
    fn workload_verification_failure_surfaces_as_error() {
        struct BadWorkload;
        impl Workload for BadWorkload {
            fn name(&self) -> &'static str {
                "bad"
            }
            fn setup(&mut self, _m: &Machine, _a: &Annotations) -> Result<(), NmoError> {
                Ok(())
            }
            fn run(
                &mut self,
                _m: &Machine,
                _a: &Annotations,
                _c: &[usize],
            ) -> Result<crate::WorkloadReport, NmoError> {
                Ok(crate::WorkloadReport::default())
            }
            fn verify(&self) -> bool {
                false
            }
        }
        let err = ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .threads(1)
            .workload(Box::new(BadWorkload))
            .build()
            .unwrap()
            .run()
            .unwrap_err();
        assert!(matches!(err, NmoError::Workload(_)), "{err}");
    }
}
