//! The streaming data plane: time windows, sample batches, and the sharded
//! event bus connecting backends to analysis sinks.
//!
//! The paper's SPE flow is inherently streaming — the aux buffer is drained
//! as it fills and all three analysis levels are windowed over time — so the
//! profiler's core seam is a produce/consume pipeline rather than a post-hoc
//! scan. On many-core machines (the paper's 128-core Ampere Altra Max) a
//! single pump/consumer pair cannot keep up with every core sampling at the
//! densest periods, so the pipeline has a width — N shards of the same pump
//! worker → lane → consumer chain, N ≥ 1:
//!
//! ```text
//! pump workers ──SampleBatch──▶ ShardedBus ──▶ shard consumers ──▶ merge
//!  (disjoint        │            N lanes,          │            (ordered by
//!   core sets)      │            per-lane          │             shard index,
//!                   └ stamped    backpressure      └ SinkShard   deterministic)
//!                     + pooled   + drop accounting   aggregation
//! ```
//!
//! * A [`SampleBatch`] carries one window's worth of data from one source:
//!   decoded SPE records or RSS/bandwidth ticks. An SPE batch is one core's
//!   samples in one window, stamped with that core — the producer fixes
//!   the stream's shape once, so no consumer re-derives which core a sample
//!   came from. Its buffers come from (and return to) a [`BatchPool`], so
//!   the steady state of the hot path allocates nothing.
//! * The [`ShardedBus`] partitions batches over N single-producer lanes by
//!   core hash ([`ShardedBus::lane_for_core`]); each lane is a bounded
//!   [`EventBus`] with explicit backpressure: when a consumer falls behind,
//!   batches are either dropped (and counted — the analogue of SPE aux
//!   truncation) or the producer blocks, depending on
//!   [`BackpressurePolicy`]. Per-lane accounting rolls up into one
//!   [`BusStats`] via [`ShardedBus::stats`].
//! * The unit of hand-off is the *drain*, not the batch: a pump worker
//!   enqueues everything one drain produced under one hold of the lane
//!   ([`ShardedBus::publish_batches`] → [`EventBus::publish_all`]; each
//!   batch still meets the backpressure policy on its own) and wakes the
//!   consumer once; the consumer takes up to a fixed chunk of queued events
//!   per hold ([`EventBus::recv_chunk`]), wakes a blocked producer only once
//!   that took the lane down to half its bound, and recycles the chunk's
//!   buffers under one hold of the pool ([`BatchPool::recycle_batches`]).
//! * A lane's bound counts samples (or RSS/bandwidth points), not batches
//!   ([`StreamOptions::bus_capacity`], 65 536 samples — 2 MiB — by
//!   default), so the data in flight is bounded in bytes: at most a lane's
//!   bound plus one consumer chunk (which holds no more than the lane did)
//!   per lane, whatever the batch size. A batch larger than the bound
//!   enters only an empty lane, so it stands in for the whole bound.
//!   [`BusStats::high_watermark`] reads the occupancy after whole drains
//!   landed — the consumer cannot pop between the batches of one drain.
//! * [`Window`]s close monotonically, on sample time alone: a window closes
//!   once every declared source (each SPE core) has delivered a sample past
//!   it. A core's samples reach the pump in time order, so nothing it
//!   delivers later can land in a closed window, however long the host
//!   leaves it unscheduled; a declared core that never samples holds every
//!   close until the run ends. Window-close signals are broadcast to every
//!   lane, and a batch behind its lane's newest close is still delivered
//!   (and counted late) so final reports stay complete.
//!
//! [`crate::session::ProfileSession::run_streaming`] wires the pipeline up;
//! [`crate::sink::AnalysisSink`] consumes it through its streaming hooks,
//! and [`crate::sink::ShardableSink`] through per-shard workers with a
//! deterministic merge.
//!
//! The pipeline's shape — its width, the drain interval pump rounds start
//! at (a round that overran it is followed at once, see
//! [`StreamStats::pump_rounds_slept`]) and the backpressure policy — is
//! fixed when the session starts. A pump round is the delivery round a
//! session without pipeline threads runs at each step, publishing onto a
//! lane instead of into a list. The session runs the pipeline on one
//! thread of its own: pump worker 0 there, the other pump workers and the
//! consumers on threads scoped to it, so stopping the session is joining
//! that one thread.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use arch_sim::{BandwidthPoint, MigrationStats, RssPoint};
use spe::SpeStatsSnapshot;

use crate::runtime::AddressSample;

/// One time window of the streaming pipeline (half-open, `[start, end)`
/// simulated nanoseconds; the last window of time, clipped at `u64::MAX`,
/// holds `u64::MAX` too).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Window index (`start_ns / width`).
    pub index: u64,
    /// Inclusive start, simulated nanoseconds.
    pub start_ns: u64,
    /// Exclusive end, simulated nanoseconds.
    pub end_ns: u64,
}

impl Window {
    /// Window width in nanoseconds.
    pub fn width_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Whether a timestamp falls inside the window. Every `u64` falls
    /// inside the window [`WindowClock::window_containing`] gives it.
    pub fn contains_ns(&self, t_ns: u64) -> bool {
        t_ns >= self.start_ns && (t_ns < self.end_ns || self.end_ns == u64::MAX)
    }
}

/// The producer-side window arithmetic: a fixed width plus the high-water
/// mark of simulated time observed so far. Backends use it to stamp drained
/// data with windows; the session's close coordinator keeps one.
#[derive(Debug, Clone, Copy)]
pub struct WindowClock {
    width_ns: u64,
    watermark_ns: u64,
}

impl WindowClock {
    /// A clock with the given window width (clamped to at least 1 ns).
    pub fn new(width_ns: u64) -> Self {
        WindowClock { width_ns: width_ns.max(1), watermark_ns: 0 }
    }

    /// Window width in nanoseconds.
    pub fn width_ns(&self) -> u64 {
        self.width_ns
    }

    /// Highest simulated time observed so far.
    pub fn watermark_ns(&self) -> u64 {
        self.watermark_ns
    }

    /// The window index a timestamp falls into.
    pub fn index_of(&self, t_ns: u64) -> u64 {
        t_ns / self.width_ns
    }

    /// The window with the given index. Bounds saturate at `u64::MAX`, so
    /// the window containing a timestamp within one width of the end of
    /// time is merely clipped.
    pub fn window(&self, index: u64) -> Window {
        let start_ns = index.saturating_mul(self.width_ns);
        Window { index, start_ns, end_ns: start_ns.saturating_add(self.width_ns) }
    }

    /// The window containing a timestamp.
    pub fn window_containing(&self, t_ns: u64) -> Window {
        self.window(self.index_of(t_ns))
    }

    /// The window containing the current watermark.
    pub fn current(&self) -> Window {
        self.window_containing(self.watermark_ns)
    }

    /// Advance the watermark (monotonic).
    pub fn observe(&mut self, t_ns: u64) {
        self.watermark_ns = self.watermark_ns.max(t_ns);
    }

    /// Group timestamped items by the window containing them, ascending by
    /// window index, whatever order they come in (how the machine probe
    /// stamps its bandwidth buckets).
    pub fn group_by_window<T>(
        &self,
        items: impl IntoIterator<Item = T>,
        time_ns: impl Fn(&T) -> u64,
    ) -> Vec<(Window, Vec<T>)> {
        let mut by_window: std::collections::BTreeMap<u64, Vec<T>> =
            std::collections::BTreeMap::new();
        for item in items {
            by_window.entry(self.index_of(time_ns(&item))).or_default().push(item);
        }
        by_window.into_iter().map(|(index, group)| (self.window(index), group)).collect()
    }
}

/// Identity of one timestamped batch producer: a backend name plus an
/// optional core (per-core producers like SPE publish at independent
/// cadences, so the window-close watermark must track each one).
pub type StreamSource = (&'static str, Option<usize>);

/// The data carried by one [`SampleBatch`].
#[derive(Debug, Clone)]
pub enum BatchPayload {
    /// Decoded SPE address samples.
    SpeSamples {
        /// The decoded samples, all from the batch's core and inside its
        /// window.
        samples: Vec<AddressSample>,
        /// Inert. No nmo backend sets it, and no sink, snapshot or trace
        /// reads or stores it (a replayed batch carries zero). The run's SPE
        /// loss is a run total, [`crate::Profile::spe`]. The field goes once
        /// batches are built through one pooled batch builder (ROADMAP 9(a)).
        loss: SpeStatsSnapshot,
    },
    /// Resident-set-size step events (level 1 ticks).
    Rss {
        /// New RSS step events since the previous drain.
        points: Vec<RssPoint>,
    },
    /// Memory-bandwidth bucket ticks (level 2 ticks).
    Bandwidth {
        /// Bandwidth buckets; deliveries for the same `time_ns` merge by
        /// summing bytes.
        points: Vec<BandwidthPoint>,
    },
}

/// One unit of streaming delivery: a window-stamped chunk of data from one
/// backend (or the machine probe).
///
/// Construct batches with [`SampleBatch::new`]: the payload is scanned once
/// there and its maximum timestamp cached (read by the close coordinator and
/// the consumer-side watermark checks on every delivery), so nothing
/// downstream re-scans the sample slice. The payload is therefore immutable
/// after construction: a changed payload is a new batch, built by `new`
/// again.
#[derive(Debug, Clone)]
pub struct SampleBatch {
    /// Name of the producing backend (`"spe"`, `"machine"`).
    pub backend: &'static str,
    /// Core the data belongs to, when per-core. An SPE batch is one core's
    /// samples in one window: it names `Some(core)`, every sample in it is
    /// from that core and lies inside [`SampleBatch::window`] (checked by
    /// [`SampleBatch::new`] in debug builds). So this one field is the
    /// samples' core for the bus lane, the close coordinator and the trace.
    pub core: Option<usize>,
    /// Monotonic publication sequence number (stamped by the bus on
    /// publish).
    pub seq: u64,
    /// The time window the data belongs to.
    pub window: Window,
    /// The data itself (immutable — `max_time_ns` is cached over it).
    payload: BatchPayload,
    /// Highest item timestamp, computed once at construction.
    max_time_ns: Option<u64>,
}

impl SampleBatch {
    /// Build a batch, scanning the payload once to cache its maximum item
    /// timestamp. An SPE payload must keep the rule on
    /// [`SampleBatch::core`].
    pub fn new(
        backend: &'static str,
        core: Option<usize>,
        window: Window,
        payload: BatchPayload,
    ) -> Self {
        let max_time_ns = match &payload {
            BatchPayload::SpeSamples { samples, .. } => {
                debug_assert!(
                    core.is_some_and(|core| samples
                        .iter()
                        .all(|s| s.core == core && window.contains_ns(s.time_ns))),
                    "an SPE batch is one core's samples in one window: core {core:?}, {window:?}"
                );
                samples.iter().map(|s| s.time_ns).max()
            }
            BatchPayload::Rss { points } => points.iter().map(|p| p.time_ns).max(),
            BatchPayload::Bandwidth { points } => points.iter().map(|p| p.time_ns).max(),
        };
        SampleBatch { backend, core, seq: 0, window, payload, max_time_ns }
    }

    /// The batch's data.
    pub fn payload(&self) -> &BatchPayload {
        &self.payload
    }

    /// Consume the batch, returning its payload (the recycling path back
    /// into a [`BatchPool`]).
    pub fn into_payload(self) -> BatchPayload {
        self.payload
    }

    /// Number of items (samples / points) in the batch.
    pub fn len(&self) -> usize {
        match &self.payload {
            BatchPayload::SpeSamples { samples, .. } => samples.len(),
            BatchPayload::Rss { points } => points.len(),
            BatchPayload::Bandwidth { points } => points.len(),
        }
    }

    /// Whether the batch carries no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Highest simulated timestamp carried by the batch's items, if any
    /// carry timestamps (cached at construction — no payload scan).
    pub fn max_time_ns(&self) -> Option<u64> {
        self.max_time_ns
    }
}

/// What the bus does when a producer finds it full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Drop the incoming batch and count it (the SPE aux-truncation
    /// analogue; the profiled application never stalls). Default.
    #[default]
    DropNewest,
    /// Block the producer until the consumer makes room (lossless, but the
    /// pump — never the profiled cores — stalls).
    Block,
}

/// Point-in-time bus accounting. Occupancy is counted in items, as the
/// bound is (see [`EventBus`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Events accepted onto the bus.
    pub published: u64,
    /// Batches dropped because the bus was full.
    pub dropped_batches: u64,
    /// Items (samples/points) inside dropped batches.
    pub dropped_items: u64,
    /// Most items queued at once (sampled at every enqueue; a drain is
    /// enqueued under one hold, so its last batch sees all of it queued).
    /// At most `capacity`, unless one batch larger than it entered an empty
    /// lane: then that batch's size.
    pub high_watermark: u64,
    /// Configured bound, in items.
    pub capacity: u64,
    /// Items currently queued.
    pub queued: u64,
}

/// An event travelling over the bus: a data batch or a window-close signal.
#[derive(Debug, Clone)]
pub enum BusEvent {
    /// A window-stamped data batch.
    Batch(SampleBatch),
    /// All producers have passed this window; it will receive no further
    /// on-time data. (Late batches are still delivered and counted.)
    CloseWindow(Window),
}

/// Result of a blocking receive on the bus.
#[derive(Debug)]
pub enum BusRecv {
    /// An event arrived.
    Event(BusEvent),
    /// The timeout elapsed with the bus empty (but still open).
    TimedOut,
    /// The bus is closed and fully drained.
    Closed,
}

/// Why a bulk receive ([`EventBus::recv_chunk`]) returned no event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusIdle {
    /// The timeout elapsed with the bus empty (but still open).
    TimedOut,
    /// The bus is closed and fully drained.
    Closed,
}

/// Most events one [`EventBus::recv_chunk`] takes off a lane: what a
/// consumer holds outside the lane's bound while it works (never more items
/// than the lane held).
const RECV_CHUNK: usize = 64;

/// What a queued event counts against its lane's bound: a batch its items,
/// an empty batch 1 (so a stream of empties stays bounded), a window-close
/// signal nothing.
fn weight(event: &BusEvent) -> usize {
    match event {
        BusEvent::Batch(batch) => batch.len().max(1),
        BusEvent::CloseWindow(_) => 0,
    }
}

struct BusQueue {
    queue: VecDeque<BusEvent>,
    /// The queued events' summed [`weight`]: what the bound counts.
    items: usize,
    high_watermark: usize,
    /// A parked `Block` producer is woken once `items` is at most this (the
    /// most lenient level any parked producer asked for); `None` while no
    /// producer is parked.
    wake_at: Option<usize>,
}

/// Bounded multi-producer/single-consumer queue with drop accounting
/// (see the module docs).
///
/// The bound counts items — samples, or RSS/bandwidth points — not events,
/// so what a lane holds is a function of its configuration, whatever the
/// batch size. A batch is admitted when it fits, or when the lane holds no
/// batch at all: one larger than the bound enters an empty lane instead of
/// waiting forever. A `Block` producer that finds its batch does not fit
/// parks until the consumer has drained the lane to half its bound (and to
/// where the batch fits), so it refills the lane in one run instead of
/// being woken for every consumer chunk.
///
/// Window-close signals bypass the bound: they are tiny, bounded in number
/// by the run's window count, and dropping one would wedge the consumer's
/// window tracking.
pub struct EventBus {
    inner: Mutex<BusQueue>,
    readable: Condvar,
    writable: Condvar,
    capacity: usize,
    policy: BackpressurePolicy,
    closed: AtomicBool,
    published: AtomicU64,
    dropped_batches: AtomicU64,
    dropped_items: AtomicU64,
}

impl std::fmt::Debug for EventBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventBus")
            .field("capacity", &self.capacity)
            .field("policy", &self.policy)
            .field("closed", &self.closed.load(Ordering::Relaxed)) // relaxed-ok: Debug snapshot
            .finish()
    }
}

impl EventBus {
    /// Create a bus holding at most `capacity` items (minimum 1; see
    /// [`EventBus`] for what counts and for the one batch that may exceed
    /// it).
    pub fn bounded(capacity: usize, policy: BackpressurePolicy) -> Arc<EventBus> {
        Arc::new(EventBus {
            inner: Mutex::named(
                BusQueue { queue: VecDeque::new(), items: 0, high_watermark: 0, wake_at: None },
                "bus.inner",
            ),
            readable: Condvar::new(),
            writable: Condvar::new(),
            capacity: capacity.max(1),
            policy,
            closed: AtomicBool::new(false),
            published: AtomicU64::new(0),
            dropped_batches: AtomicU64::new(0),
            dropped_items: AtomicU64::new(0),
        })
    }

    /// Producer side: enqueue an event. Returns `false` when the event was
    /// dropped (bus full under [`BackpressurePolicy::DropNewest`], or bus
    /// closed). The one-event case of [`EventBus::publish_all`].
    pub fn publish(&self, event: BusEvent) -> bool {
        self.publish_all(std::iter::once(event)) == 1
    }

    /// Producer side: enqueue a run of events — a whole drain — under one
    /// hold of the queue, and return how many were accepted. Each event
    /// meets the same rules as if published alone: a batch that does not
    /// fit (see [`EventBus`]) is dropped and counted under
    /// [`BackpressurePolicy::DropNewest`] or waits for room under
    /// [`BackpressurePolicy::Block`]; a closed bus rejects (and counts)
    /// every remaining batch. The consumer is woken once per run (and
    /// before every wait for room, so it cannot sleep on what the run has
    /// queued so far). A `Block` wait relies on the consumer always
    /// draining the bus — the session's shard consumers guarantee this even
    /// when a sink panics (see `shard_consumer_loop` in `session.rs`).
    ///
    /// `events` is pulled while the queue is held: hand in ready-made
    /// events, not an iterator that takes other locks.
    pub fn publish_all(&self, events: impl IntoIterator<Item = BusEvent>) -> usize {
        let mut accepted = 0;
        // Events queued since the consumer was last notified.
        let mut unannounced = false;
        let mut inner = self.inner.lock();
        for event in events {
            let weight = weight(&event);
            let batch_items = match &event {
                BusEvent::Batch(b) => Some(b.len() as u64),
                BusEvent::CloseWindow(_) => None,
            };
            let fits = inner.items == 0 || inner.items + weight <= self.capacity;
            let mut full = false;
            if batch_items.is_some() && !fits {
                match self.policy {
                    BackpressurePolicy::DropNewest => full = true,
                    BackpressurePolicy::Block => {
                        // Park until the lane is down to half its bound and
                        // the batch fits there (an oversized one: empty).
                        let level = (self.capacity / 2).min(self.capacity.saturating_sub(weight));
                        while inner.items > level && !self.is_closed() {
                            if std::mem::take(&mut unannounced) {
                                self.readable.notify_one();
                            }
                            inner.wake_at = Some(inner.wake_at.map_or(level, |at| at.max(level)));
                            // The consumer notifies once it reaches
                            // `wake_at`; re-check the closed flag at least
                            // every 10 ms all the same, so a blocked
                            // producer cannot outlive a closed bus.
                            let deadline = std::time::Instant::now() + Duration::from_millis(10);
                            let _ = self.writable.wait_until(&mut inner, deadline);
                        }
                    }
                }
            }
            if full || self.is_closed() {
                if let Some(items) = batch_items {
                    // relaxed-ok: drop-accounting counters read by `stats()`
                    // for reporting; no data is published through them.
                    self.dropped_batches.fetch_add(1, Ordering::Relaxed);
                    self.dropped_items.fetch_add(items, Ordering::Relaxed); // relaxed-ok: as above
                }
                continue;
            }
            inner.queue.push_back(event);
            inner.items += weight;
            inner.high_watermark = inner.high_watermark.max(inner.items);
            // relaxed-ok: publish counter for `stats()`; the event itself is
            // handed over under `inner`'s mutex, which carries the ordering.
            self.published.fetch_add(1, Ordering::Relaxed);
            accepted += 1;
            unannounced = true;
        }
        drop(inner);
        if unannounced {
            self.readable.notify_one();
        }
        accepted
    }

    /// Consumer side: dequeue the next event, waiting up to `timeout`.
    /// Queued events are still delivered after [`EventBus::close`];
    /// [`BusRecv::Closed`] is only returned once the queue is empty. The
    /// one-event case of [`EventBus::recv_chunk`].
    pub fn recv_timeout(&self, timeout: Duration) -> BusRecv {
        let mut event = None;
        match self.dequeue(1, timeout, |e| event = Some(e)) {
            Ok(_) => event.map_or(BusRecv::TimedOut, BusRecv::Event),
            Err(BusIdle::TimedOut) => BusRecv::TimedOut,
            Err(BusIdle::Closed) => BusRecv::Closed,
        }
    }

    /// Consumer side: append the queued events — at most a fixed chunk of
    /// them — to `out` under one hold of the queue, waiting up to `timeout`
    /// for the first. Returns how many were appended (never 0), or why none
    /// was: like [`EventBus::recv_timeout`], [`BusIdle::Closed`] only once
    /// the queue is empty.
    pub fn recv_chunk(&self, out: &mut Vec<BusEvent>, timeout: Duration) -> Result<usize, BusIdle> {
        self.dequeue(RECV_CHUNK, timeout, |event| out.push(event))
    }

    fn dequeue(
        &self,
        max: usize,
        timeout: Duration,
        mut take: impl FnMut(BusEvent),
    ) -> Result<usize, BusIdle> {
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.inner.lock();
        loop {
            if !inner.queue.is_empty() {
                let taken = inner.queue.len().min(max);
                let mut removed = 0;
                for event in inner.queue.drain(..taken) {
                    removed += weight(&event);
                    take(event);
                }
                inner.items -= removed;
                // Wake the parked producers (every one: a chunk can make room
                // for several) only once the lane is down to their level.
                let wake = inner.wake_at.is_some_and(|at| inner.items <= at);
                if wake {
                    inner.wake_at = None;
                }
                drop(inner);
                if wake {
                    self.writable.notify_all();
                }
                return Ok(taken);
            }
            if self.is_closed() {
                return Err(BusIdle::Closed);
            }
            if self.readable.wait_until(&mut inner, deadline).timed_out() && inner.queue.is_empty()
            {
                return Err(if self.is_closed() { BusIdle::Closed } else { BusIdle::TimedOut });
            }
        }
    }

    /// Close the bus: producers start failing, the consumer drains what is
    /// queued and then sees [`BusRecv::Closed`].
    pub fn close(&self) {
        // Ordering rationale (pinned): Release pairs with the Acquire in
        // `is_closed` so everything the closer did before closing (final
        // batches, coordinator bookkeeping) is visible to a producer or
        // consumer that observes `closed == true`. Taking `inner` before
        // notifying closes the race with a waiter that checked the flag and
        // is about to block: it either sees the flag under the lock or gets
        // the notification after releasing it — it cannot sleep through the
        // close. Verified at runtime by the `NMO_LOCK_CHECK` stress run.
        self.closed.store(true, Ordering::Release);
        let _guard = self.inner.lock();
        self.readable.notify_all();
        self.writable.notify_all();
    }

    /// Whether the bus has been closed.
    pub fn is_closed(&self) -> bool {
        // Acquire pairs with the Release store in `close` (see there).
        self.closed.load(Ordering::Acquire)
    }

    /// Current accounting snapshot.
    pub fn stats(&self) -> BusStats {
        let inner = self.inner.lock();
        BusStats {
            // relaxed-ok: reporting snapshot of the accounting counters; a
            // mid-run snapshot tolerates skew, the final one is quiescent.
            published: self.published.load(Ordering::Relaxed),
            dropped_batches: self.dropped_batches.load(Ordering::Relaxed), // relaxed-ok: as above
            dropped_items: self.dropped_items.load(Ordering::Relaxed),     // relaxed-ok: as above
            high_watermark: inner.high_watermark as u64,
            capacity: self.capacity as u64,
            queued: inner.items as u64,
        }
    }
}

/// A pool of recycled batch buffers: the zero-copy seam of the hot path.
///
/// Every pump drain used to allocate a fresh `Vec` for the decoded samples;
/// at the paper's densest sampling periods on 128 cores that is thousands
/// of allocations per second on the hot path. The pool recycles the sample
/// buffers: the consumer hands a finished [`SampleBatch`] back via
/// [`BatchPool::recycle_batch`], and the next drain reuses its capacity via
/// [`BatchPool::samples`].
///
/// The pool is bounded (`max_pooled` buffers); beyond that, recycled
/// buffers are simply dropped, so a burst cannot pin memory forever.
#[derive(Debug)]
pub struct BatchPool {
    samples: Mutex<Vec<Vec<AddressSample>>>,
    max_pooled: usize,
    reused: AtomicU64,
    allocated: AtomicU64,
}

/// Point-in-time pool accounting (how effective recycling is).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffer requests served from the pool.
    pub reused: u64,
    /// Buffer requests that had to allocate fresh.
    pub allocated: u64,
}

impl BatchPool {
    /// The pool of a pipeline `shards` lanes wide whose lanes hold `bound`
    /// items each: one retained buffer per [`RECV_CHUNK`] items the lanes
    /// can hold, enough to refill them with batches of that size (1 024 a
    /// lane at the default bound), clamped to 64..4096 so a hostile bound
    /// neither starves the pool nor lets it pin a burst.
    pub(crate) fn for_lanes(shards: usize, bound: usize) -> Arc<BatchPool> {
        BatchPool::new((bound / RECV_CHUNK).saturating_mul(shards).clamp(64, 4096))
    }

    /// A pool retaining at most `max_pooled` buffers.
    pub fn new(max_pooled: usize) -> Arc<BatchPool> {
        Arc::new(BatchPool {
            samples: Mutex::named(Vec::new(), "pool.samples"),
            max_pooled: max_pooled.max(1),
            reused: AtomicU64::new(0),
            allocated: AtomicU64::new(0),
        })
    }

    fn count(&self, reused: bool) {
        if reused {
            // relaxed-ok: recycling-effectiveness counters for `stats()`.
            self.reused.fetch_add(1, Ordering::Relaxed);
        } else {
            self.allocated.fetch_add(1, Ordering::Relaxed); // relaxed-ok: as above
        }
    }

    /// An empty sample buffer, recycled when available.
    pub fn samples(&self) -> Vec<AddressSample> {
        let buf = self.samples.lock().pop();
        self.count(buf.is_some());
        buf.unwrap_or_default()
    }

    /// Return a sample buffer to the pool (cleared, capacity kept).
    pub fn recycle_samples(&self, buf: Vec<AddressSample>) {
        self.recycle_sample_bufs(std::iter::once(buf));
    }

    fn recycle_sample_bufs(&self, bufs: impl Iterator<Item = Vec<AddressSample>>) {
        let mut pool = self.samples.lock();
        for mut buf in bufs {
            if pool.len() < self.max_pooled {
                buf.clear();
                pool.push(buf);
            }
        }
    }

    /// Recycle a consumed batch's buffers back into the pool.
    pub fn recycle_batch(&self, batch: SampleBatch) {
        self.recycle_batches(std::iter::once(batch));
    }

    /// Recycle a run of consumed batches under one hold of the pool.
    pub fn recycle_batches(&self, batches: impl IntoIterator<Item = SampleBatch>) {
        self.recycle_sample_bufs(batches.into_iter().filter_map(
            |batch| match batch.into_payload() {
                BatchPayload::SpeSamples { samples, .. } => Some(samples),
                _ => None,
            },
        ));
    }

    /// Current accounting snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            // relaxed-ok: reporting snapshot, as for `BusStats`.
            reused: self.reused.load(Ordering::Relaxed),
            allocated: self.allocated.load(Ordering::Relaxed), // relaxed-ok: as above
        }
    }
}

/// The sharded event bus: N single-producer lanes partitioned by core hash.
///
/// Each pump worker drains a disjoint core set and publishes to the lane its
/// cores hash to, so lanes are effectively single-producer/single-consumer
/// and scale with core count instead of funnelling every core through one
/// queue. Batches without a core (the machine probes) ride on lane 0.
/// Window-close signals are broadcast to every lane
/// ([`ShardedBus::broadcast_close`]) so shard consumers can close their
/// partial windows; per-lane drop/backpressure accounting rolls up into one
/// [`BusStats`] ([`ShardedBus::stats`]) and stays inspectable per lane
/// ([`ShardedBus::lane_stats`]).
pub struct ShardedBus {
    lanes: Vec<Arc<EventBus>>,
    seq: AtomicU64,
}

impl std::fmt::Debug for ShardedBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedBus").field("lanes", &self.lanes.len()).finish()
    }
}

impl ShardedBus {
    /// A bus with `shards` lanes bounded at `capacity_per_lane` items each
    /// (both clamped to at least 1; see [`EventBus`]).
    pub fn new(
        shards: usize,
        capacity_per_lane: usize,
        policy: BackpressurePolicy,
    ) -> Arc<ShardedBus> {
        let shards = shards.max(1);
        Arc::new(ShardedBus {
            lanes: (0..shards).map(|_| EventBus::bounded(capacity_per_lane, policy)).collect(),
            seq: AtomicU64::new(0),
        })
    }

    /// Number of lanes (== allocated shard count).
    pub fn shards(&self) -> usize {
        self.lanes.len()
    }

    /// The lane a batch from `core` is partitioned onto (core-hash
    /// partitioning over the lanes; core-less batches ride lane 0).
    pub fn lane_for_core(&self, core: Option<usize>) -> usize {
        core.map(|c| c % self.shards()).unwrap_or(0)
    }

    /// One lane's queue (the consumer side of shard `lane`).
    pub fn lane(&self, lane: usize) -> &Arc<EventBus> {
        &self.lanes[lane]
    }

    /// Producer side: stamp the batch with the global sequence number and
    /// enqueue it on its core's lane. Returns `false` when the lane dropped
    /// it (see [`EventBus::publish`]). The one-batch case of
    /// [`ShardedBus::publish_batches`].
    pub fn publish(&self, batch: SampleBatch) -> bool {
        self.publish_batches(std::iter::once(batch)) == 1
    }

    /// Producer side: stamp a drain's batches with a contiguous range of
    /// sequence numbers and enqueue them in order, every stretch of batches
    /// bound for the same lane under one hold of that lane (a shard
    /// worker's cores all hash to its own lane, so normally the whole
    /// drain). Returns how many the lanes accepted
    /// (see [`EventBus::publish_all`]).
    pub fn publish_batches<I>(&self, batches: I) -> usize
    where
        I: IntoIterator<Item = SampleBatch>,
        I::IntoIter: ExactSizeIterator,
    {
        let batches = batches.into_iter();
        // relaxed-ok: sequence allocator — only uniqueness/atomicity of the
        // tickets matters; the stamped batches are published via the lanes'
        // mutex-protected queues, which provide the happens-before edge.
        let first_seq = self.seq.fetch_add(batches.len() as u64, Ordering::Relaxed);
        let mut stamped = batches
            .zip(first_seq..)
            .map(|(mut batch, seq)| {
                batch.seq = seq;
                batch
            })
            .peekable();
        let mut accepted = 0;
        while let Some(next) = stamped.peek() {
            let lane = self.lane_for_core(next.core);
            let same_lane = std::iter::from_fn(|| {
                stamped.next_if(|batch| self.lane_for_core(batch.core) == lane)
            });
            accepted += self.lanes[lane].publish_all(same_lane.map(BusEvent::Batch));
        }
        accepted
    }

    /// Broadcast a window-close signal to every lane (close signals bypass
    /// lane capacity, so a broadcast never blocks or drops).
    pub fn broadcast_close(&self, window: Window) {
        for lane in &self.lanes {
            lane.publish(BusEvent::CloseWindow(window));
        }
    }

    /// Close every lane: producers start failing, consumers drain what is
    /// queued and then see [`BusRecv::Closed`].
    pub fn close_all(&self) {
        for lane in &self.lanes {
            lane.close();
        }
    }

    /// Per-lane accounting, ascending by lane index.
    pub fn lane_stats(&self) -> Vec<BusStats> {
        self.lanes.iter().map(|l| l.stats()).collect()
    }

    /// The roll-up across every lane: counts sum; `high_watermark` is the
    /// worst single lane (the number backpressure tuning cares about).
    pub fn stats(&self) -> BusStats {
        let mut rolled = BusStats::default();
        for lane in &self.lanes {
            let s = lane.stats();
            rolled.published += s.published;
            rolled.dropped_batches += s.dropped_batches;
            rolled.dropped_items += s.dropped_items;
            rolled.high_watermark = rolled.high_watermark.max(s.high_watermark);
            rolled.capacity = rolled.capacity.saturating_add(s.capacity);
            rolled.queued += s.queued;
        }
        rolled
    }
}

/// Tuning knobs for a streaming session
/// (see [`crate::session::ProfileSessionBuilder::stream_options`]).
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Window width in simulated nanoseconds (default 1 ms) — the one
    /// option a session without pipeline threads uses too (its delivery at
    /// `finish` and at each `tiering_step` is stamped with these windows).
    /// Under every driver a window closes once every source has delivered
    /// a sample past it, and only if some batch named it.
    pub window_ns: u64,
    /// Bound of each bus lane, in items: samples, or RSS/bandwidth points,
    /// an empty batch counting 1 (default 65 536 samples, 2 MiB of
    /// [`AddressSample`]s). A batch larger than the bound still enters an
    /// empty lane; see [`EventBus`].
    pub bus_capacity: usize,
    /// What producers do when the bus is full.
    pub backpressure: BackpressurePolicy,
    /// Number of pipeline shards (pump workers, bus lanes, and shard
    /// consumers). `0` (the default) resolves to
    /// `min(profiled cores, available_parallelism)` at session start; `1`
    /// is the same pipeline one shard wide (one pump worker, one lane, one
    /// consumer). Explicit values are clamped to the profiled core count —
    /// extra shards would own zero cores and lanes with no producer (see
    /// [`StreamStats::shards_requested`]).
    pub shards: usize,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            window_ns: 1_000_000,
            bus_capacity: 1 << 16,
            backpressure: BackpressurePolicy::default(),
            shards: 0,
        }
    }
}

/// Summary of the streaming pipeline over one run, recorded on
/// [`crate::runtime::Profile::stream`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Windows closed (each once; only windows some batch named).
    pub windows_closed: u64,
    /// Batches accepted onto the bus.
    pub batches_published: u64,
    /// Batches dropped by backpressure.
    pub batches_dropped: u64,
    /// Items inside dropped batches.
    pub items_dropped: u64,
    /// Batches delivered behind their lane's close: at or below the newest
    /// window the lane had closed. Under [`BackpressurePolicy::Block`], with
    /// every source declared, none.
    pub late_batches: u64,
    /// Most items (samples, or RSS/bandwidth points) one lane held at once
    /// (the worst single lane, after a whole drain landed on it — see
    /// [`BusStats::high_watermark`]).
    pub bus_high_watermark: u64,
    /// Number of pipeline shards the run allocated (its width; 1 = one
    /// pump worker, one lane, one consumer), after clamping to the profiled
    /// core count.
    pub shards: u64,
    /// Shard count the caller asked for via [`StreamOptions::shards`]
    /// before resolution/clamping (`0` = auto). Differs from `shards` when
    /// the request over-provisioned the machine.
    pub shards_requested: u64,
    /// Drain rounds the pump workers ran, summed over the workers.
    pub pump_rounds: u64,
    /// How many of those rounds ended before the drain interval was up and
    /// slept the rest of it; `pump_rounds - pump_rounds_slept` rounds took
    /// the whole interval or longer and were followed at once. Near 0, the
    /// pump never idled: it is the pipeline's bottleneck.
    pub pump_rounds_slept: u64,
}

impl StreamStats {
    /// Fraction of published-or-dropped batches the bus dropped under
    /// backpressure (0.0 when nothing was attempted) — the pipeline's own
    /// loss channel, guarded by the same warning threshold as SPE loss.
    pub fn bus_drop_fraction(&self) -> f64 {
        let attempted = self.batches_published + self.batches_dropped;
        if attempted == 0 {
            return 0.0;
        }
        self.batches_dropped as f64 / attempted as f64
    }
}

/// Live per-shard accounting inside a [`StreamSnapshot`]: what one shard
/// consumer has processed so far, plus its lane's bus accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSummary {
    /// Shard (= lane) index.
    pub shard: usize,
    /// Batches this shard's consumer has processed.
    pub batches: u64,
    /// SPE samples this shard's consumer has processed.
    pub spe_samples: u64,
    /// This shard's lane accounting at snapshot time.
    pub lane: BusStats,
}

/// A point-in-time view of a streaming session, returned by
/// [`crate::session::ActiveSession::poll_snapshot`].
#[derive(Debug, Clone, Default)]
pub struct StreamSnapshot {
    /// Per-shard accounting, ascending by shard index (one entry when the
    /// pipeline is one shard wide).
    pub per_shard: Vec<ShardSummary>,
    /// Windows closed so far.
    pub windows_closed: u64,
    /// Batches consumed so far.
    pub batches: u64,
    /// SPE samples consumed so far.
    pub spe_samples: u64,
    /// Highest RSS seen so far, bytes.
    pub rss_peak_bytes: u64,
    /// Highest simulated timestamp seen so far.
    pub last_time_ns: u64,
    /// Bus accounting at snapshot time.
    pub bus: BusStats,
    /// Page-migration counters at snapshot time — the live readout of a
    /// profile-guided tiering run (how many pages have been promoted or
    /// demoted *so far*).
    pub migrations: MigrationStats,
}

/// One lane's running tallies inside [`SnapshotState`].
#[derive(Debug, Default, Clone, Copy)]
struct LaneTally {
    batches: u64,
    spe_samples: u64,
    /// Close signals the lane delivered.
    closes: u64,
    /// The newest window the lane closed: a batch at or below it is late.
    newest_close: Option<u64>,
}

/// Consumer-thread bookkeeping behind [`StreamSnapshot`] (shared with
/// [`crate::session::ActiveSession::poll_snapshot`] via a mutex). Every
/// lane receives the same ascending close sequence, so each keeps its own
/// close count and newest close: nothing here grows with the windows.
#[derive(Debug, Default)]
pub(crate) struct SnapshotState {
    lanes: Vec<LaneTally>,
    pub(crate) batches: u64,
    pub(crate) spe_samples: u64,
    pub(crate) late_batches: u64,
    pub(crate) rss_peak_bytes: u64,
    pub(crate) last_time_ns: u64,
}

impl SnapshotState {
    /// The state of a pipeline `lanes` wide.
    pub(crate) fn new(lanes: usize) -> Self {
        SnapshotState { lanes: vec![LaneTally::default(); lanes], ..SnapshotState::default() }
    }

    /// Windows every lane has closed.
    pub(crate) fn windows_closed(&self) -> u64 {
        self.lanes.iter().map(|lane| lane.closes).min().unwrap_or(0)
    }

    /// Account one batch `lane` delivered, from its counts, cached maximum
    /// time and RSS points; no SPE sample is read.
    pub(crate) fn record_batch(&mut self, batch: &SampleBatch, lane: usize) {
        let tally = &mut self.lanes[lane];
        self.batches += 1;
        tally.batches += 1;
        if let Some(t) = batch.max_time_ns() {
            self.last_time_ns = self.last_time_ns.max(t);
        }
        match &batch.payload {
            BatchPayload::SpeSamples { samples, .. } => {
                tally.spe_samples += samples.len() as u64;
                self.spe_samples += samples.len() as u64;
            }
            BatchPayload::Rss { points } => {
                for p in points {
                    self.rss_peak_bytes = self.rss_peak_bytes.max(p.rss_bytes);
                }
            }
            // Bandwidth ticks are exempt from late accounting: the machine's
            // buckets only become readable once the cores detach, so their
            // end-of-run delivery into long-closed windows is by design, not
            // a lagging producer.
            BatchPayload::Bandwidth { .. } => return,
        }
        if tally.newest_close.is_some_and(|closed| batch.window.index <= closed) {
            self.late_batches += 1;
        }
    }

    /// Register `lane`'s close signal for `window`.
    pub(crate) fn record_close(&mut self, window: Window, lane: usize) {
        let tally = &mut self.lanes[lane];
        tally.closes += 1;
        tally.newest_close = Some(window.index);
    }

    pub(crate) fn snapshot(
        &self,
        bus: BusStats,
        lane_stats: &[BusStats],
        migrations: MigrationStats,
    ) -> StreamSnapshot {
        let per_shard = self
            .lanes
            .iter()
            .enumerate()
            .map(|(shard, tally)| ShardSummary {
                shard,
                batches: tally.batches,
                spe_samples: tally.spe_samples,
                lane: lane_stats.get(shard).copied().unwrap_or_default(),
            })
            .collect();
        StreamSnapshot {
            per_shard,
            windows_closed: self.windows_closed(),
            batches: self.batches,
            spe_samples: self.spe_samples,
            rss_peak_bytes: self.rss_peak_bytes,
            last_time_ns: self.last_time_ns,
            bus,
            migrations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arch_sim::DataSource;

    fn batch(window: Window, n: usize) -> SampleBatch {
        SampleBatch::new(
            "test",
            Some(0),
            window,
            BatchPayload::SpeSamples {
                samples: vec![
                    AddressSample {
                        time_ns: window.start_ns,
                        vaddr: 0x1000,
                        core: 0,
                        is_store: false,
                        latency: 1,
                        source: DataSource::L1,
                    };
                    n
                ],
                loss: SpeStatsSnapshot::default(),
            },
        )
    }

    #[test]
    fn window_clock_arithmetic() {
        let mut clock = WindowClock::new(1000);
        assert_eq!(clock.index_of(0), 0);
        assert_eq!(clock.index_of(999), 0);
        assert_eq!(clock.index_of(1000), 1);
        let w = clock.window_containing(2500);
        assert_eq!(w.index, 2);
        assert_eq!(w.start_ns, 2000);
        assert_eq!(w.end_ns, 3000);
        assert!(w.contains_ns(2000) && w.contains_ns(2999) && !w.contains_ns(3000));
        clock.observe(4200);
        clock.observe(100); // monotonic
        assert_eq!(clock.watermark_ns(), 4200);
        assert_eq!(clock.current().index, 4);
        // Zero width is clamped.
        assert_eq!(WindowClock::new(0).width_ns(), 1);
    }

    /// The last window of `u64` time is clipped at `u64::MAX`, not an
    /// overflow (a debug-build panic, a wrapped `end_ns` in release).
    #[test]
    fn window_at_the_end_of_time_saturates() {
        let w = WindowClock::new(1_000_000).window_containing(u64::MAX);
        assert_eq!(w.index, u64::MAX / 1_000_000);
        assert_eq!(w.start_ns, w.index * 1_000_000);
        assert_eq!(w.end_ns, u64::MAX);
        assert!(w.contains_ns(u64::MAX - 1) && w.width_ns() < 1_000_000);
        assert!(w.contains_ns(u64::MAX), "the window containing a timestamp contains it");
    }

    #[test]
    fn bus_delivers_in_order_and_counts() {
        let bus = EventBus::bounded(8, BackpressurePolicy::DropNewest);
        let clock = WindowClock::new(1000);
        for i in 0..3u64 {
            assert!(bus.publish(BusEvent::Batch(batch(clock.window(i), 2))));
        }
        bus.close();
        let mut seen = Vec::new();
        loop {
            match bus.recv_timeout(Duration::from_millis(50)) {
                BusRecv::Event(BusEvent::Batch(b)) => seen.push(b.window.index),
                BusRecv::Event(BusEvent::CloseWindow(_)) => {}
                BusRecv::Closed => break,
                BusRecv::TimedOut => panic!("queued events must be drained before Closed"),
            }
        }
        assert_eq!(seen, vec![0, 1, 2]);
        let stats = bus.stats();
        assert_eq!(stats.published, 3);
        assert_eq!(stats.dropped_batches, 0);
        assert_eq!(stats.queued, 0);
        assert!(stats.high_watermark >= 1);
    }

    #[test]
    fn full_bus_drops_newest_and_accounts_items() {
        let bus = EventBus::bounded(10, BackpressurePolicy::DropNewest);
        let clock = WindowClock::new(1000);
        assert!(bus.publish(BusEvent::Batch(batch(clock.window(0), 5))));
        assert!(bus.publish(BusEvent::Batch(batch(clock.window(1), 5))));
        assert!(!bus.publish(BusEvent::Batch(batch(clock.window(2), 7))));
        // Close signals bypass the bound.
        assert!(bus.publish(BusEvent::CloseWindow(clock.window(0))));
        let stats = bus.stats();
        assert_eq!(stats.dropped_batches, 1);
        assert_eq!(stats.dropped_items, 7);
        assert_eq!(stats.published, 3);
    }

    /// `DropNewest` drops exactly the batches that do not fit in what is
    /// left of the bound, wherever they sit in a run; an empty batch
    /// counts 1.
    #[test]
    fn dropnewest_drops_exactly_the_batches_that_do_not_fit() {
        let bus = EventBus::bounded(10, BackpressurePolicy::DropNewest);
        let clock = WindowClock::new(1000);
        let run = [4, 4, 3, 2, 0, 5].into_iter().enumerate();
        let accepted =
            bus.publish_all(run.map(|(i, n)| BusEvent::Batch(batch(clock.window(i as u64), n))));
        // 4 + 4 fit, 3 does not (11), 2 does (10), then the lane is full:
        // the empty batch (1) and the 5 are dropped.
        assert_eq!(accepted, 3);
        let stats = bus.stats();
        assert_eq!((stats.published, stats.queued, stats.high_watermark), (3, 10, 10));
        assert_eq!((stats.dropped_batches, stats.dropped_items), (3, 8));
        let mut chunk = Vec::new();
        assert_eq!(bus.recv_chunk(&mut chunk, Duration::ZERO), Ok(3));
        let sizes: Vec<usize> = chunk
            .iter()
            .map(|e| match e {
                BusEvent::Batch(b) => b.len(),
                BusEvent::CloseWindow(_) => panic!("no close was published"),
            })
            .collect();
        assert_eq!(sizes, [4, 4, 2]);
        // A stream of empty batches is bounded too: one item each.
        let empties = (0..12).map(|i| BusEvent::Batch(batch(clock.window(i), 0)));
        assert_eq!(bus.publish_all(empties), 10);
        assert_eq!((bus.stats().queued, bus.stats().dropped_batches), (10, 5));
    }

    /// A batch larger than the whole bound enters an empty lane under
    /// either policy (it would otherwise wait, or be dropped, forever), and
    /// only an empty one.
    #[test]
    fn an_oversized_batch_enters_an_empty_lane_under_both_policies() {
        let clock = WindowClock::new(1000);
        for policy in [BackpressurePolicy::DropNewest, BackpressurePolicy::Block] {
            let bus = EventBus::bounded(4, policy);
            assert!(bus.publish(BusEvent::Batch(batch(clock.window(0), 10))), "{policy:?}");
            let stats = bus.stats();
            assert_eq!((stats.queued, stats.high_watermark, stats.capacity), (10, 10, 4));
            if policy == BackpressurePolicy::DropNewest {
                assert!(!bus.publish(BusEvent::Batch(batch(clock.window(1), 10))));
                assert!(!bus.publish(BusEvent::Batch(batch(clock.window(1), 1))));
                assert_eq!((bus.stats().dropped_batches, bus.stats().dropped_items), (2, 11));
            }
            let mut chunk = Vec::new();
            assert_eq!(bus.recv_chunk(&mut chunk, Duration::ZERO), Ok(1));
            assert!(bus.publish(BusEvent::Batch(batch(clock.window(1), 9))), "{policy:?}");
            assert_eq!(bus.stats().queued, 9);
        }
    }

    /// Window closes bypass the bound: they are accepted on a full lane,
    /// never block a `Block` producer, and count nothing against it.
    #[test]
    fn closes_bypass_the_bound() {
        let clock = WindowClock::new(1000);
        for policy in [BackpressurePolicy::DropNewest, BackpressurePolicy::Block] {
            let bus = ShardedBus::new(2, 4, policy);
            assert!(bus.publish(batch(clock.window(0), 4)), "lane 0 is now full");
            for i in 0..8 {
                bus.broadcast_close(clock.window(i));
            }
            let lanes = bus.lane_stats();
            assert_eq!((lanes[0].published, lanes[0].queued), (9, 4), "{policy:?}");
            assert_eq!((lanes[1].published, lanes[1].queued), (8, 0), "{policy:?}");
            assert_eq!(lanes[0].high_watermark, 4);
            assert_eq!(bus.stats().dropped_batches, 0);
        }
    }

    /// A parked `Block` run is not woken while receives leave the lane
    /// above half its bound, and resumes once they take it there.
    #[test]
    fn a_parked_block_run_resumes_once_the_lane_is_down_to_half() {
        let clock = WindowClock::new(1000);
        let bus = EventBus::bounded(8, BackpressurePolicy::Block);
        let one = move |i: u64| BusEvent::Batch(batch(clock.window(i), 1));
        assert_eq!(bus.publish_all((0..8).map(one)), 8, "the lane is now full");
        let (done, finished) = std::sync::mpsc::sync_channel(1);
        let producer = {
            let bus = bus.clone();
            std::thread::spawn(move || {
                let accepted = bus.publish_all((8..10).map(one));
                done.send(()).expect("the test waits");
                accepted
            })
        };
        let recv = || match bus.recv_timeout(Duration::from_secs(10)) {
            BusRecv::Event(BusEvent::Batch(b)) => b.window.index,
            other => panic!("expected a batch, got {other:?}"),
        };
        // 8 -> 5 items: room for the run since the first receive, yet the
        // producer stays parked until the lane is at 4.
        for expected in 0..3 {
            assert_eq!(recv(), expected);
            assert_eq!(bus.stats().published, 8, "woken above half the bound");
        }
        assert_eq!(recv(), 3);
        finished.recv_timeout(Duration::from_secs(10)).expect("the run resumes at half the bound");
        assert_eq!(producer.join().unwrap(), 2);
        assert_eq!((bus.stats().published, bus.stats().queued), (10, 6));
        let rest: Vec<u64> = (0..6).map(|_| recv()).collect();
        assert_eq!(rest, [4, 5, 6, 7, 8, 9]);
        assert_eq!(bus.stats().high_watermark, 8);
    }

    #[test]
    fn blocking_policy_waits_for_the_consumer() {
        let bus = EventBus::bounded(1, BackpressurePolicy::Block);
        let clock = WindowClock::new(1000);
        assert!(bus.publish(BusEvent::Batch(batch(clock.window(0), 1))));
        let bus2 = bus.clone();
        let producer = std::thread::spawn(move || {
            // Blocks until the consumer pops the first batch.
            bus2.publish(BusEvent::Batch(batch(WindowClock::new(1000).window(1), 1)))
        });
        #[allow(clippy::disallowed_methods)] // test: let the producer block first
        std::thread::sleep(Duration::from_millis(20));
        match bus.recv_timeout(Duration::from_secs(5)) {
            BusRecv::Event(BusEvent::Batch(b)) => assert_eq!(b.window.index, 0),
            other => panic!("expected first batch, got {other:?}"),
        }
        assert!(producer.join().unwrap(), "blocked producer completes after space frees");
        assert_eq!(bus.stats().dropped_batches, 0);
    }

    /// The consumer only wakes producers once a receive takes the lane
    /// down to half its bound; that wake-up (not just the 10 ms re-check)
    /// and `close()` must reach a producer parked mid-run. Two-sample
    /// batches on a four-sample lane: two batches fill it.
    #[test]
    fn parked_block_producer_is_released_by_the_next_receive_and_by_close() {
        let clock = WindowClock::new(1000);
        let bus = EventBus::bounded(4, BackpressurePolicy::Block);
        let run = move |from: u64| {
            (from..from + 3).map(move |i| BusEvent::Batch(batch(clock.window(i), 2)))
        };
        assert_eq!(bus.publish_all(run(0).take(2)), 2, "the lane is now full");

        // Released by a receive: the run parks on its first batch, the
        // receive makes room for two, the third parks until the next one.
        let producer = {
            let bus = bus.clone();
            std::thread::spawn(move || bus.publish_all(run(2)))
        };
        let mut seen = Vec::new();
        while seen.len() < 5 {
            let mut chunk = Vec::new();
            let wait = Duration::from_secs(10);
            bus.recv_chunk(&mut chunk, wait).expect("a parked run still delivers");
            seen.extend(chunk.iter().map(|e| match e {
                BusEvent::Batch(b) => b.window.index,
                BusEvent::CloseWindow(_) => panic!("no close was published"),
            }));
        }
        assert_eq!(producer.join().unwrap(), 3);
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);

        // Released by close: what is queued stays, the rest is counted.
        assert_eq!(bus.publish_all(run(5).take(2)), 2, "full again");
        let producer = {
            let bus = bus.clone();
            std::thread::spawn(move || bus.publish_all(run(7)))
        };
        bus.close();
        assert_eq!(producer.join().unwrap(), 0, "a closed bus accepts nothing");
        let stats = bus.stats();
        assert_eq!((stats.published, stats.queued), (7, 4), "two batches queued");
        assert_eq!((stats.dropped_batches, stats.dropped_items), (3, 6));
        assert!(stats.high_watermark <= 4, "a Block lane never exceeds its bound");
    }

    #[test]
    fn closed_bus_rejects_and_unblocks() {
        let bus = EventBus::bounded(1, BackpressurePolicy::Block);
        bus.close();
        let clock = WindowClock::new(1000);
        assert!(!bus.publish(BusEvent::Batch(batch(clock.window(0), 3))));
        assert_eq!(bus.stats().dropped_batches, 1);
        assert!(matches!(bus.recv_timeout(Duration::from_millis(5)), BusRecv::Closed));
    }

    #[test]
    fn snapshot_state_tracks_windows_and_late_batches() {
        let clock = WindowClock::new(1000);
        let mut state = SnapshotState::new(2);
        state.record_batch(&batch(clock.window(0), 3), 0);
        state.record_batch(&batch(clock.window(1), 2), 1);
        // Closes are broadcast to both lanes: a window counts as closed
        // once each lane delivered its copy.
        state.record_close(clock.window(0), 0);
        assert_eq!(state.windows_closed(), 0);
        state.record_batch(&batch(clock.window(0), 1), 1);
        assert_eq!(state.late_batches, 0, "lane 1 has not closed window 0 yet");
        state.record_close(clock.window(0), 1);
        assert_eq!(state.windows_closed(), 1);
        state.record_batch(&batch(clock.window(0), 1), 1);
        assert_eq!(state.late_batches, 1, "a batch behind its lane's close is late");
        // Closes come in ascending order, so a window below a lane's newest
        // close that never closed never will: a batch for it is late too.
        state.record_close(clock.window(2), 0);
        state.record_close(clock.window(2), 1);
        state.record_batch(&batch(clock.window(1), 3), 0);
        assert_eq!(state.late_batches, 2, "window 1 was passed over");
        state.record_batch(&batch(clock.window(3), 1), 0);
        assert_eq!(state.late_batches, 2, "window 3 is still open");
        // Bandwidth ticks land in closed windows by design.
        let ticks = BatchPayload::Bandwidth { points: vec![] };
        state.record_batch(&SampleBatch::new("machine", None, clock.window(0), ticks), 0);
        assert_eq!(state.late_batches, 2, "bandwidth is never late");
        assert_eq!((state.windows_closed(), state.batches, state.spe_samples), (2, 7, 11));
        let snap = state.snapshot(BusStats::default(), &[], MigrationStats::default());
        assert_eq!((snap.windows_closed, snap.batches, snap.spe_samples), (2, 7, 11));
        assert_eq!(snap.per_shard.len(), 2);
        assert_eq!((snap.per_shard[0].batches, snap.per_shard[0].spe_samples), (4, 7));
        assert_eq!((snap.per_shard[1].batches, snap.per_shard[1].spe_samples), (3, 4));
        assert_eq!(snap.per_shard.iter().map(|s| s.batches).sum::<u64>(), snap.batches);
        assert_eq!(snap.per_shard.iter().map(|s| s.spe_samples).sum::<u64>(), snap.spe_samples);
    }

    #[test]
    fn batch_caches_max_time_at_construction() {
        let clock = WindowClock::new(1000);
        let samples = vec![
            AddressSample {
                time_ns: 120,
                vaddr: 0x1000,
                core: 0,
                is_store: false,
                latency: 1,
                source: DataSource::L1,
            },
            AddressSample {
                time_ns: 990,
                vaddr: 0x1008,
                core: 0,
                is_store: true,
                latency: 2,
                source: DataSource::L1,
            },
        ];
        let batch = SampleBatch::new(
            "spe",
            Some(0),
            clock.window(0),
            BatchPayload::SpeSamples { samples, loss: SpeStatsSnapshot::default() },
        );
        assert_eq!(batch.max_time_ns(), Some(990));
        assert_eq!(batch.len(), 2);
        let no_points = BatchPayload::Rss { points: vec![] };
        let rss = SampleBatch::new("machine", None, clock.window(0), no_points);
        assert_eq!(rss.max_time_ns(), None, "an empty payload carries no timestamps");
    }

    #[test]
    fn sharded_bus_partitions_by_core_and_rolls_up_stats() {
        let bus = ShardedBus::new(4, 2, BackpressurePolicy::DropNewest);
        assert_eq!(bus.shards(), 4);
        assert_eq!(bus.lane_for_core(Some(0)), 0);
        assert_eq!(bus.lane_for_core(Some(5)), 1);
        assert_eq!(bus.lane_for_core(Some(7)), 3);
        assert_eq!(bus.lane_for_core(None), 0, "core-less batches ride lane 0");

        let clock = WindowClock::new(1000);
        let core_batch = |core: usize, n: usize| {
            SampleBatch::new(
                "spe",
                Some(core),
                clock.window(0),
                BatchPayload::SpeSamples {
                    samples: vec![
                        AddressSample {
                            time_ns: 10,
                            vaddr: 0x1000,
                            core,
                            is_store: false,
                            latency: 1,
                            source: DataSource::L1,
                        };
                        n
                    ],
                    loss: SpeStatsSnapshot::default(),
                },
            )
        };
        // Fill lane 1 (cores 1 and 5) to capacity, then overflow it.
        assert!(bus.publish(core_batch(1, 1)));
        assert!(bus.publish(core_batch(5, 1)));
        assert!(!bus.publish(core_batch(1, 3)), "lane 1 is full");
        // Lane 2 is unaffected by lane 1's backpressure.
        assert!(bus.publish(core_batch(2, 1)));

        let lanes = bus.lane_stats();
        assert_eq!(lanes.len(), 4);
        assert_eq!(lanes[1].published, 2);
        assert_eq!(lanes[1].dropped_batches, 1);
        assert_eq!(lanes[1].dropped_items, 3);
        assert_eq!(lanes[2].published, 1);
        assert_eq!(lanes[0].published, 0);

        let rolled = bus.stats();
        assert_eq!(rolled.published, 3);
        assert_eq!(rolled.dropped_batches, 1);
        assert_eq!(rolled.dropped_items, 3);
        assert_eq!(rolled.capacity, 4 * 2);

        // Sequence numbers are globally unique and ascending per lane.
        let mut seqs = Vec::new();
        bus.broadcast_close(clock.window(0));
        bus.close_all();
        for lane in 0..4 {
            let mut closes = 0;
            loop {
                match bus.lane(lane).recv_timeout(Duration::from_millis(50)) {
                    BusRecv::Event(BusEvent::Batch(b)) => seqs.push(b.seq),
                    BusRecv::Event(BusEvent::CloseWindow(w)) => {
                        assert_eq!(w.index, 0);
                        closes += 1;
                    }
                    BusRecv::Closed => break,
                    BusRecv::TimedOut => panic!("lane {lane} must drain then close"),
                }
            }
            assert_eq!(closes, 1, "every lane sees the broadcast close");
        }
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 3, "published batches carry distinct sequence numbers");
    }

    #[test]
    fn batch_pool_recycles_buffers() {
        let pool = BatchPool::new(4);
        let mut samples = pool.samples();
        samples.reserve(128);
        let cap = samples.capacity();
        assert!(cap >= 128);
        pool.recycle_samples(samples);
        let reused = pool.samples();
        assert!(reused.is_empty());
        assert!(reused.capacity() >= cap, "capacity survives the recycle round-trip");
        assert_eq!(pool.stats().reused, 1);
        assert_eq!(pool.stats().allocated, 1);

        // Batch recycling feeds sample buffers back too.
        let clock = WindowClock::new(1000);
        let batch = SampleBatch::new(
            "spe",
            Some(0),
            clock.window(0),
            BatchPayload::SpeSamples { samples: reused, loss: SpeStatsSnapshot::default() },
        );
        pool.recycle_batch(batch);
        assert!(pool.samples().capacity() >= cap);

        // The pool is bounded: recycles beyond `max_pooled` are dropped.
        for _ in 0..16 {
            pool.recycle_samples(Vec::with_capacity(8));
        }
        let pooled: usize = (0..16).filter(|_| pool.samples().capacity() > 0).count();
        assert_eq!(pooled, 4, "at most max_pooled buffers retained");
    }
}
