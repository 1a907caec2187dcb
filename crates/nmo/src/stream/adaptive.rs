//! The adaptive pipeline controller: auto-tunes the sharded streaming
//! pipeline at runtime instead of trusting a static shard count.
//!
//! Shard-count sweeps of the pipeline showed why a static configuration is
//! wrong: the best shard count depends on host parallelism and load, and a
//! wrong choice collapses throughput (8 shards on a host with one free core
//! oversubscribes; 1 shard on a 128-core machine funnels every lane through
//! one consumer). A production profiler runs continuously across varied
//! hosts, so the pipeline has to find its own operating point and keep its
//! loss/overhead inside a budget.
//!
//! The control loop (run by the coordinator pump worker once per
//! [`AdaptiveOptions::control_interval`]):
//!
//! ```text
//!           sample                 decide                    actuate
//!  bus/lane stats ──▶ SlidingWindow ──▶ AdaptiveController ──▶ active shard
//!  consumer idle       (last N control   (threshold rules +     count, drain
//!  ticks               samples)          throughput guard)      cadence,
//!                                                               backpressure
//! ```
//!
//! * [`ControlSample`] is one sampling of the pipeline: batch throughput,
//!   drops, worst-lane occupancy, and consumer idle time over one control
//!   interval.
//! * [`SlidingWindow`] holds the last N samples and exposes the windowed
//!   aggregates the rules act on (the Exo-OS adaptive-driver shape: decide
//!   on a recent window, never on a single noisy sample).
//! * [`AdaptiveController`] is *pure*: given the same sample sequence it
//!   produces the same [`AdaptiveDecision`] sequence, which is what makes
//!   adaptive runs explainable and replayable (see the determinism tests
//!   below). Side effects live in [`AdaptiveRuntime`], the shared handle the
//!   session's pump/consumer spine reads.
//!
//! The decision space:
//!
//! * **Active shard count** — the allocated topology (lanes, pump workers,
//!   shard consumers) is fixed at session start; the controller moves the
//!   *active* width within `[1, allocated]`. Parked pump workers sleep
//!   and their drain slots are taken over by the active ones; parked
//!   lanes receive no new batches (routing is `core % active`). Every shard
//!   consumer stays subscribed, so window-close bookkeeping and the
//!   deterministic merge are untouched by width changes.
//! * **Drain cadence** — the period pump rounds start at, within
//!   `[50 µs, 2 ms]` (a round sleeps what it left of the period; one that
//!   overran it is followed at once).
//! * **Backpressure mode** — [`BackpressurePolicy::DropNewest`] ↔
//!   [`BackpressurePolicy::Block`] once the loss budget is exhausted at full
//!   width (bounded overhead beats unbounded loss only when widening is no
//!   longer an option).
//!
//! Every transition is recorded as an [`AdaptiveDecision`] and surfaced in
//! [`super::StreamSnapshot::adaptive`] and counted in
//! [`super::StreamStats::adaptive_decisions`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use super::{BackpressurePolicy, ShardedBus};

/// Tuning knobs of the adaptive controller
/// (see [`super::StreamOptions::adaptive`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveOptions {
    /// Wall-clock interval between control decisions (default 2 ms).
    pub control_interval: Duration,
    /// Number of control samples the sliding window holds; decisions only
    /// fire on a full window (default 4).
    pub window: usize,
    /// Target loss budget: the tolerated fraction of batches dropped by
    /// backpressure over the window (default 0.01). Above it the controller
    /// widens, and at full width switches to
    /// [`BackpressurePolicy::Block`].
    pub loss_budget: f64,
    /// Initial active shard count; `0` (the default) resolves to
    /// `min(allocated, available_parallelism)` — start no wider than the
    /// host can actually run.
    pub initial_active: usize,
}

/// Worst-lane occupancy fraction above which the pipeline counts as
/// pressured: widen, or shorten the cadence at full width.
const OCCUPANCY_HIGH: f64 = 0.6;
/// Worst-lane occupancy fraction below which lanes count as quiet.
const OCCUPANCY_LOW: f64 = 0.05;
/// Consumer idle fraction above which the active consumers count as starved:
/// with quiet lanes this parks a shard, or lengthens the cadence at minimum
/// width.
const IDLE_HIGH: f64 = 0.5;
/// Lower bound on the active shard count.
const MIN_ACTIVE: usize = 1;
/// Shortest and longest drain cadence the controller may set.
const CADENCE_MIN: Duration = Duration::from_micros(50);
const CADENCE_MAX: Duration = Duration::from_millis(2);
/// Relative throughput regression that makes the controller revert its
/// previous width change: a move that cost more than this fraction of
/// windowed throughput is undone.
const REGRESSION_TOLERANCE: f64 = 0.10;

impl Default for AdaptiveOptions {
    fn default() -> Self {
        AdaptiveOptions {
            control_interval: Duration::from_millis(2),
            window: 4,
            loss_budget: 0.01,
            initial_active: 0,
        }
    }
}

/// One sampling of the pipeline over one control interval: the per-lane
/// metrics the pump/consumer spine feeds the controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlSample {
    /// Wall-clock span the sample covers.
    pub elapsed: Duration,
    /// Batches accepted onto the bus during the span.
    pub published: u64,
    /// Batches dropped by backpressure during the span.
    pub dropped: u64,
    /// Worst active-lane occupancy fraction (`queued / capacity`) at sample
    /// time, `0.0..=1.0`.
    pub worst_occupancy: f64,
    /// Fraction of active-consumer wall-clock spent idle (receive timeouts)
    /// during the span, `0.0..=1.0`.
    pub consumer_idle: f64,
}

/// The last N [`ControlSample`]s plus the windowed aggregates the decision
/// rules act on (the Exo-OS `SlidingWindow` shape, over control samples
/// instead of raw operation timestamps).
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    samples: VecDeque<ControlSample>,
    cap: usize,
}

impl SlidingWindow {
    /// A window holding at most `cap` samples (clamped to at least 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        SlidingWindow { samples: VecDeque::with_capacity(cap), cap }
    }

    /// Push a sample, evicting the oldest once full.
    pub fn push(&mut self, sample: ControlSample) {
        if self.samples.len() == self.cap {
            self.samples.pop_front();
        }
        self.samples.push_back(sample);
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Whether the window holds its full `cap` samples.
    pub fn is_full(&self) -> bool {
        self.samples.len() == self.cap
    }

    /// Drop every sample (called after an actuation so the next decision
    /// only sees the new operating point).
    pub fn clear(&mut self) {
        self.samples.clear();
    }

    /// Windowed batch throughput, batches per second (0.0 on an empty
    /// window).
    pub fn throughput(&self) -> f64 {
        let secs: f64 = self.samples.iter().map(|s| s.elapsed.as_secs_f64()).sum();
        if secs <= 0.0 {
            return 0.0;
        }
        let published: u64 = self.samples.iter().map(|s| s.published).sum();
        published as f64 / secs
    }

    /// Windowed drop fraction: dropped over published-plus-dropped (0.0
    /// when nothing was attempted).
    pub fn drop_fraction(&self) -> f64 {
        let published: u64 = self.samples.iter().map(|s| s.published).sum();
        let dropped: u64 = self.samples.iter().map(|s| s.dropped).sum();
        let attempted = published + dropped;
        if attempted == 0 {
            return 0.0;
        }
        dropped as f64 / attempted as f64
    }

    /// Mean worst-lane occupancy over the window.
    pub fn mean_occupancy(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.worst_occupancy).sum::<f64>() / self.samples.len() as f64
    }

    /// Mean consumer idle fraction over the window.
    pub fn mean_idle(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.consumer_idle).sum::<f64>() / self.samples.len() as f64
    }
}

/// What one [`AdaptiveDecision`] changed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControlAction {
    /// The active shard count moved.
    SetActiveShards {
        /// Active count before the decision.
        from: usize,
        /// Active count after the decision.
        to: usize,
    },
    /// The pump drain cadence moved.
    SetPollInterval {
        /// Cadence before the decision.
        from: Duration,
        /// Cadence after the decision.
        to: Duration,
    },
    /// The backpressure mode switched.
    SetBackpressure {
        /// Policy before the decision.
        from: BackpressurePolicy,
        /// Policy after the decision.
        to: BackpressurePolicy,
    },
}

/// One recorded controller transition: what changed, when (in controller
/// ticks), and why.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveDecision {
    /// Controller tick (sample count) the decision fired on.
    pub tick: u64,
    /// The transition.
    pub action: ControlAction,
    /// The rule that fired (`"loss-over-budget"`, `"idle-lanes"`, ...).
    pub reason: &'static str,
}

/// Decision log entries kept in memory; beyond this the log stops growing
/// but [`AdaptiveController::decisions_total`] keeps counting, so a
/// long-lived session's controller state stays bounded.
const MAX_LOGGED_DECISIONS: usize = 1024;

/// Throughput baseline remembered across a width change, so a move that
/// regressed throughput can be reverted.
#[derive(Debug, Clone, Copy)]
struct WidthGuard {
    baseline_throughput: f64,
    prev_active: usize,
}

/// The pure decision core: feed it [`ControlSample`]s via
/// [`AdaptiveController::observe`], apply the returned decisions. Given the
/// same sample sequence it produces the same decision sequence (no clocks,
/// no randomness) — sharded-equals-serial semantics never depend on *what*
/// it decides, and the determinism tests pin *when*.
#[derive(Debug)]
pub struct AdaptiveController {
    opts: AdaptiveOptions,
    allocated: usize,
    active: usize,
    poll: Duration,
    policy: BackpressurePolicy,
    /// Whether the controller itself switched the policy to `Block` (only
    /// then may it switch back).
    switched_policy: bool,
    window: SlidingWindow,
    cooldown: u32,
    tick: u64,
    guard: Option<WidthGuard>,
    decisions: Vec<AdaptiveDecision>,
    decisions_total: u64,
}

impl AdaptiveController {
    /// A controller over `allocated` shards, starting from the session's
    /// configured poll interval and backpressure policy.
    pub fn new(
        opts: AdaptiveOptions,
        allocated: usize,
        initial_poll: Duration,
        initial_policy: BackpressurePolicy,
    ) -> Self {
        let allocated = allocated.max(1);
        let auto = allocated
            .min(std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1))
            .max(1);
        let active = match opts.initial_active {
            0 => auto,
            n => n.clamp(MIN_ACTIVE, allocated),
        };
        let window = SlidingWindow::new(opts.window);
        AdaptiveController {
            opts,
            allocated,
            active,
            poll: initial_poll,
            policy: initial_policy,
            switched_policy: false,
            window,
            cooldown: 0,
            tick: 0,
            guard: None,
            decisions: Vec::new(),
            decisions_total: 0,
        }
    }

    /// The allocated (maximum) shard count.
    pub fn allocated(&self) -> usize {
        self.allocated
    }

    /// The current active shard count.
    pub fn active(&self) -> usize {
        self.active
    }

    /// The current drain cadence.
    pub fn poll_interval(&self) -> Duration {
        self.poll
    }

    /// The current backpressure policy.
    pub fn policy(&self) -> BackpressurePolicy {
        self.policy
    }

    /// The recorded decision log (capped at an internal bound; see
    /// [`AdaptiveController::decisions_total`]).
    pub fn decisions(&self) -> &[AdaptiveDecision] {
        &self.decisions
    }

    /// Total decisions made, including any beyond the log cap.
    pub fn decisions_total(&self) -> u64 {
        self.decisions_total
    }

    fn record(&mut self, action: ControlAction, reason: &'static str) -> AdaptiveDecision {
        let decision = AdaptiveDecision { tick: self.tick, action, reason };
        self.decisions_total += 1;
        if self.decisions.len() < MAX_LOGGED_DECISIONS {
            self.decisions.push(decision.clone());
        }
        decision
    }

    fn set_active(&mut self, to: usize, reason: &'static str) -> Option<AdaptiveDecision> {
        let to = to.clamp(MIN_ACTIVE, self.allocated);
        if to == self.active {
            return None;
        }
        let action = ControlAction::SetActiveShards { from: self.active, to };
        self.active = to;
        Some(self.record(action, reason))
    }

    fn set_poll(&mut self, to: Duration, reason: &'static str) -> Option<AdaptiveDecision> {
        let to = to.clamp(CADENCE_MIN, CADENCE_MAX);
        if to == self.poll {
            return None;
        }
        let action = ControlAction::SetPollInterval { from: self.poll, to };
        self.poll = to;
        Some(self.record(action, reason))
    }

    fn set_policy(&mut self, to: BackpressurePolicy, reason: &'static str) -> AdaptiveDecision {
        let action = ControlAction::SetBackpressure { from: self.policy, to };
        self.policy = to;
        self.record(action, reason)
    }

    /// Feed one control sample; returns the decisions fired this tick
    /// (empty while the window warms up or a cooldown is pending).
    pub fn observe(&mut self, sample: ControlSample) -> Vec<AdaptiveDecision> {
        self.tick += 1;
        self.window.push(sample);
        if !self.window.is_full() {
            return Vec::new();
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return Vec::new();
        }

        let throughput = self.window.throughput();
        let mut fired = Vec::new();

        // Guard pass: the previous width change is now covered by a full
        // window at the new operating point — revert it if it regressed
        // throughput beyond tolerance, keep it otherwise.
        if let Some(guard) = self.guard.take() {
            let floor = guard.baseline_throughput * (1.0 - REGRESSION_TOLERANCE);
            if throughput < floor {
                if let Some(d) = self.set_active(guard.prev_active, "throughput-regression") {
                    fired.push(d);
                }
                // Longer cooldown: do not immediately re-try the move that
                // just regressed.
                self.cooldown = (self.opts.window as u32).saturating_mul(2);
                self.window.clear();
                return fired;
            }
        }

        let drops = self.window.drop_fraction();
        let occupancy = self.window.mean_occupancy();
        let idle = self.window.mean_idle();

        if drops > self.opts.loss_budget {
            // Over the loss budget: widen while possible; at full width,
            // bounded loss beats unbounded loss — block the pump instead.
            if self.active < self.allocated {
                let target = self.active.saturating_mul(2).min(self.allocated);
                self.guard =
                    Some(WidthGuard { baseline_throughput: throughput, prev_active: self.active });
                if let Some(d) = self.set_active(target, "loss-over-budget") {
                    fired.push(d);
                }
            } else if self.policy == BackpressurePolicy::DropNewest {
                fired.push(self.set_policy(BackpressurePolicy::Block, "loss-over-budget-at-width"));
                self.switched_policy = true;
            }
        } else if occupancy > OCCUPANCY_HIGH {
            // Pressured lanes, loss still inside budget: widen, or drain
            // faster once already at full width.
            if self.active < self.allocated {
                let target = self.active.saturating_mul(2).min(self.allocated);
                self.guard =
                    Some(WidthGuard { baseline_throughput: throughput, prev_active: self.active });
                if let Some(d) = self.set_active(target, "lane-pressure") {
                    fired.push(d);
                }
            } else if let Some(d) = self.set_poll(self.poll / 2, "lane-pressure-cadence") {
                fired.push(d);
            }
        } else if occupancy < OCCUPANCY_LOW && idle > IDLE_HIGH {
            // Quiet lanes and starved consumers: shed width, then restore a
            // controller-forced Block, then relax the cadence.
            if self.active > MIN_ACTIVE {
                let target = (self.active / 2).max(MIN_ACTIVE);
                self.guard =
                    Some(WidthGuard { baseline_throughput: throughput, prev_active: self.active });
                if let Some(d) = self.set_active(target, "idle-lanes") {
                    fired.push(d);
                }
            } else if self.switched_policy
                && self.policy == BackpressurePolicy::Block
                && drops == 0.0
            {
                fired.push(self.set_policy(BackpressurePolicy::DropNewest, "pressure-subsided"));
                self.switched_policy = false;
            } else if let Some(d) = self.set_poll(self.poll.saturating_mul(2), "idle-cadence") {
                fired.push(d);
            }
        }

        if !fired.is_empty() {
            // Measure the new operating point on fresh samples only.
            self.window.clear();
            self.cooldown = 1;
        }
        fired
    }
}

/// Sampling state behind the runtime's mutex: the controller plus the
/// cursors needed to turn cumulative bus/idle counters into per-interval
/// deltas.
#[derive(Debug)]
struct ControlState {
    controller: AdaptiveController,
    last_sample: Instant,
    last_published: u64,
    last_dropped: u64,
    last_idle: u64,
}

/// The shared actuation handle of an adaptive session: the coordinator pump
/// worker drives [`AdaptiveRuntime::control`], every pump worker reads
/// [`AdaptiveRuntime::poll_interval`], and the shard consumers report idle
/// receive timeouts through [`AdaptiveRuntime::note_consumer_idle`].
///
/// Width and backpressure actuation go straight to the [`ShardedBus`]
/// (active-lane routing, per-lane policy); only the cadence lives here.
#[derive(Debug)]
pub struct AdaptiveRuntime {
    state: Mutex<ControlState>,
    poll_ns: AtomicU64,
    /// Per-shard consumer idle-timeout counters.
    idle_ticks: Vec<AtomicU64>,
    /// Wall-clock length of one consumer receive timeout (what one idle
    /// tick is worth when estimating the idle fraction).
    idle_tick: Duration,
    control_interval: Duration,
}

impl AdaptiveRuntime {
    /// Build the runtime for `allocated` shards and apply the controller's
    /// initial active width to the bus.
    pub fn new(
        opts: AdaptiveOptions,
        allocated: usize,
        initial_poll: Duration,
        initial_policy: BackpressurePolicy,
        idle_tick: Duration,
    ) -> Arc<AdaptiveRuntime> {
        let control_interval = opts.control_interval.max(Duration::from_micros(100));
        let controller = AdaptiveController::new(opts, allocated, initial_poll, initial_policy);
        let poll_ns = AtomicU64::new(initial_poll.as_nanos() as u64);
        Arc::new(AdaptiveRuntime {
            state: Mutex::named(
                ControlState {
                    controller,
                    last_sample: Instant::now(),
                    last_published: 0,
                    last_dropped: 0,
                    last_idle: 0,
                },
                "adaptive.control",
            ),
            poll_ns,
            idle_ticks: (0..allocated.max(1)).map(|_| AtomicU64::new(0)).collect(),
            idle_tick,
            control_interval,
        })
    }

    /// The controller's current active width (read once at session start to
    /// seed the bus's routing).
    pub fn active(&self) -> usize {
        self.state.lock().controller.active()
    }

    /// The drain cadence: the period every pump worker starts its rounds
    /// at.
    pub fn poll_interval(&self) -> Duration {
        // relaxed-ok: cadence hint — a worker reading a stale interval
        // runs one round at the old cadence; no data depends on it.
        Duration::from_nanos(self.poll_ns.load(Ordering::Relaxed))
    }

    /// A shard consumer's receive timed out with its lane empty.
    pub fn note_consumer_idle(&self, shard: usize) {
        if let Some(counter) = self.idle_ticks.get(shard) {
            // relaxed-ok: idle accounting sampled by `control` as a delta;
            // skew only perturbs one control sample's idle estimate.
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Coordinator hook: once per control interval, sample the pipeline,
    /// run the controller, and apply its decisions to the bus and the
    /// shared cadence. Cheap no-op between intervals.
    pub fn control(&self, bus: &ShardedBus) -> Vec<AdaptiveDecision> {
        let mut state = self.state.lock();
        let now = Instant::now();
        let elapsed = now.duration_since(state.last_sample);
        if elapsed < self.control_interval {
            return Vec::new();
        }

        let active = bus.active_lanes();
        let lanes = bus.lane_stats();
        let mut published = 0u64;
        let mut dropped = 0u64;
        let mut worst_occupancy = 0f64;
        for (lane, stats) in lanes.iter().enumerate() {
            published += stats.published;
            dropped += stats.dropped_batches;
            if lane < active && stats.capacity > 0 {
                worst_occupancy = worst_occupancy.max(stats.queued as f64 / stats.capacity as f64);
            }
        }
        let idle_now: u64 = self.idle_ticks[..active.min(self.idle_ticks.len())]
            .iter()
            // relaxed-ok: idle accounting snapshot, as in `note_consumer_idle`.
            .map(|c| c.load(Ordering::Relaxed))
            .sum();
        let idle_delta = idle_now.saturating_sub(state.last_idle);
        let idle_budget = elapsed.as_secs_f64() * active.max(1) as f64;
        let consumer_idle = if idle_budget > 0.0 {
            (idle_delta as f64 * self.idle_tick.as_secs_f64() / idle_budget).clamp(0.0, 1.0)
        } else {
            0.0
        };

        let sample = ControlSample {
            elapsed,
            published: published.saturating_sub(state.last_published),
            dropped: dropped.saturating_sub(state.last_dropped),
            worst_occupancy,
            consumer_idle,
        };
        state.last_sample = now;
        state.last_published = published;
        state.last_dropped = dropped;
        state.last_idle = idle_now;

        let decisions = state.controller.observe(sample);
        for decision in &decisions {
            match decision.action {
                ControlAction::SetActiveShards { to, .. } => bus.set_active_lanes(to),
                ControlAction::SetPollInterval { to, .. } => {
                    // relaxed-ok: cadence hint, see `poll_interval`.
                    self.poll_ns.store(to.as_nanos() as u64, Ordering::Relaxed);
                }
                ControlAction::SetBackpressure { to, .. } => bus.set_policy(to),
            }
        }
        decisions
    }

    /// Snapshot of the decision log so far.
    pub fn decisions(&self) -> Vec<AdaptiveDecision> {
        self.state.lock().controller.decisions().to_vec()
    }

    /// Total decisions made so far (including any beyond the log cap).
    pub fn decisions_total(&self) -> u64 {
        self.state.lock().controller.decisions_total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> AdaptiveOptions {
        // Explicit initial width so tests never depend on the host's
        // available parallelism.
        AdaptiveOptions { initial_active: 2, ..AdaptiveOptions::default() }
    }

    fn controller(allocated: usize) -> AdaptiveController {
        AdaptiveController::new(
            opts(),
            allocated,
            Duration::from_micros(200),
            BackpressurePolicy::DropNewest,
        )
    }

    fn sample(published: u64, dropped: u64, occupancy: f64, idle: f64) -> ControlSample {
        ControlSample {
            elapsed: Duration::from_millis(2),
            published,
            dropped,
            worst_occupancy: occupancy,
            consumer_idle: idle,
        }
    }

    #[test]
    fn sliding_window_aggregates() {
        let mut w = SlidingWindow::new(3);
        assert!(w.is_empty());
        w.push(sample(100, 0, 0.5, 0.0));
        w.push(sample(300, 100, 0.7, 0.2));
        assert!(!w.is_full());
        w.push(sample(200, 0, 0.3, 0.4));
        assert!(w.is_full());
        // 600 batches over 6 ms.
        assert!((w.throughput() - 100_000.0).abs() < 1e-6, "{}", w.throughput());
        assert!((w.drop_fraction() - 100.0 / 700.0).abs() < 1e-12);
        assert!((w.mean_occupancy() - 0.5).abs() < 1e-12);
        assert!((w.mean_idle() - 0.2).abs() < 1e-12);
        // Eviction: a fourth push drops the first sample.
        w.push(sample(0, 0, 0.0, 0.0));
        assert_eq!(w.len(), 3);
        assert!((w.drop_fraction() - 100.0 / 600.0).abs() < 1e-12);
    }

    #[test]
    fn warmup_and_cooldown_suppress_decisions() {
        let mut c = controller(8);
        // Window of 4: the first 3 samples cannot fire regardless of load.
        for _ in 0..3 {
            assert!(c.observe(sample(1000, 1000, 1.0, 0.0)).is_empty());
        }
        let fired = c.observe(sample(1000, 1000, 1.0, 0.0));
        assert_eq!(fired.len(), 1, "full window over budget fires: {fired:?}");
        assert!(matches!(fired[0].action, ControlAction::SetActiveShards { from: 2, to: 4 }));
        // The window cleared and a cooldown tick follows: the next full
        // window needs 4 samples + 1 cooldown before anything fires again.
        for _ in 0..4 {
            assert!(c.observe(sample(1000, 1000, 1.0, 0.0)).is_empty());
        }
    }

    #[test]
    fn loss_over_budget_widens_then_blocks_at_full_width() {
        let mut c = controller(4);
        let overloaded = || sample(1000, 500, 1.0, 0.0);
        let mut actions = Vec::new();
        for _ in 0..40 {
            actions.extend(c.observe(overloaded()).into_iter().map(|d| d.action));
            if c.policy() == BackpressurePolicy::Block {
                break;
            }
        }
        assert_eq!(c.active(), 4, "widened to full width");
        assert_eq!(c.policy(), BackpressurePolicy::Block, "then switched to Block: {actions:?}");
        assert!(actions
            .iter()
            .any(|a| matches!(a, ControlAction::SetActiveShards { from: 2, to: 4 })));
        assert!(actions.iter().any(|a| matches!(
            a,
            ControlAction::SetBackpressure {
                from: BackpressurePolicy::DropNewest,
                to: BackpressurePolicy::Block
            }
        )));
    }

    #[test]
    fn idle_lanes_park_down_to_min_then_relax_cadence() {
        let mut c = controller(8);
        let idle = || sample(10, 0, 0.0, 0.9);
        for _ in 0..60 {
            let _ = c.observe(idle());
        }
        assert_eq!(c.active(), 1, "parked down to min_active");
        assert!(
            c.poll_interval() > Duration::from_micros(200),
            "cadence relaxed: {:?}",
            c.poll_interval()
        );
        assert!(c.poll_interval() <= CADENCE_MAX);
        assert!(c.decisions_total() >= 3, "{:?}", c.decisions());
    }

    #[test]
    fn pressure_at_full_width_shortens_cadence() {
        let mut c = controller(2);
        let pressured = || sample(1000, 0, 0.9, 0.0);
        for _ in 0..40 {
            let _ = c.observe(pressured());
        }
        assert_eq!(c.active(), 2);
        assert!(
            c.poll_interval() < Duration::from_micros(200),
            "cadence shortened: {:?}",
            c.poll_interval()
        );
        assert!(c.poll_interval() >= CADENCE_MIN);
    }

    #[test]
    fn throughput_regression_reverts_the_width_change() {
        let mut c = controller(8);
        // Pressure fires a widen 2 → 4 with a throughput baseline.
        for _ in 0..4 {
            let _ = c.observe(sample(1000, 0, 0.9, 0.0));
        }
        assert_eq!(c.active(), 4);
        // Cooldown tick, then a full window at under 90% of the baseline
        // throughput (and calm pressure, so no other rule competes).
        let _ = c.observe(sample(100, 0, 0.3, 0.0));
        let mut reverted = Vec::new();
        for _ in 0..4 {
            reverted.extend(c.observe(sample(100, 0, 0.3, 0.0)));
        }
        assert_eq!(c.active(), 2, "regressed widen undone: {reverted:?}");
        assert!(reverted.iter().any(|d| d.reason == "throughput-regression"));
    }

    #[test]
    fn fixed_sample_sequence_yields_identical_decision_sequences() {
        // The determinism contract: two controllers fed the same synthetic
        // load trace make the same decisions at the same ticks.
        let trace: Vec<ControlSample> = (0..200)
            .map(|i| match i % 10 {
                0..=3 => sample(1000 + i, (i % 7) * 30, 0.8, 0.05),
                4..=6 => sample(400, 0, 0.3, 0.2),
                _ => sample(20, 0, 0.01, 0.9),
            })
            .collect();
        let mut a = controller(8);
        let mut b = controller(8);
        let decisions_a: Vec<AdaptiveDecision> = trace.iter().flat_map(|s| a.observe(*s)).collect();
        let decisions_b: Vec<AdaptiveDecision> = trace.iter().flat_map(|s| b.observe(*s)).collect();
        assert_eq!(decisions_a, decisions_b);
        assert!(!decisions_a.is_empty(), "the trace exercises at least one rule");
        assert_eq!(a.active(), b.active());
        assert_eq!(a.poll_interval(), b.poll_interval());
        assert_eq!(a.policy(), b.policy());
    }

    #[test]
    fn auto_initial_width_stays_within_bounds() {
        let c = AdaptiveController::new(
            AdaptiveOptions::default(),
            8,
            Duration::from_micros(200),
            BackpressurePolicy::DropNewest,
        );
        assert!((1..=8).contains(&c.active()), "{}", c.active());
        // Explicit initial width is clamped to the allocation.
        let c = AdaptiveController::new(
            AdaptiveOptions { initial_active: 64, ..AdaptiveOptions::default() },
            4,
            Duration::from_micros(200),
            BackpressurePolicy::DropNewest,
        );
        assert_eq!(c.active(), 4);
    }

    #[test]
    fn runtime_applies_decisions_to_the_bus() {
        let bus = ShardedBus::new(4, 8, BackpressurePolicy::DropNewest);
        let rt = AdaptiveRuntime::new(
            AdaptiveOptions {
                initial_active: 4,
                control_interval: Duration::from_micros(100),
                window: 1,
                ..AdaptiveOptions::default()
            },
            4,
            Duration::from_micros(200),
            BackpressurePolicy::DropNewest,
            Duration::from_millis(100),
        );
        bus.set_active_lanes(rt.active());
        assert_eq!(bus.active_lanes(), 4);
        // Mark every consumer idle and give the interval time to elapse;
        // the idle rule must eventually park lanes on the real bus.
        let deadline = Instant::now() + Duration::from_secs(5);
        while bus.active_lanes() == 4 && Instant::now() < deadline {
            for shard in 0..4 {
                for _ in 0..4 {
                    rt.note_consumer_idle(shard);
                }
            }
            let _ = rt.control(&bus);
            std::thread::yield_now();
        }
        assert!(bus.active_lanes() < 4, "idle pipeline parks lanes");
        assert!(rt.decisions_total() > 0);
        assert_eq!(rt.decisions().len() as u64, rt.decisions_total());
    }
}
