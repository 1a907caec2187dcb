//! The SPE "kernel driver": buffer management, watermark interrupts,
//! truncation, and the profiling-overhead model.
//!
//! [`SpeDriver`] implements [`arch_sim::OpObserver`], so attaching it to a
//! simulated core is the software equivalent of `perf_event_open` with PMU
//! type `0x2c` bound to that core. It owns the per-core [`SamplerUnit`] and a
//! shared [`perf_sub::PerfEvent`] (ring buffer + aux buffer). The
//! profiler reads that event from a publish handler
//! ([`SpeDriver::set_publish_handler`]) — the event's overflow handler, run
//! by the driver right after each `PERF_RECORD_AUX` record it publishes —
//! and not from a thread of its own: the NMO monitoring thread exists here
//! as the drain model below, in simulated time, and that model releases aux
//! space without waiting for any host reader.
//!
//! ## Overhead and loss model
//!
//! The paper's sensitivity study is driven by three mechanisms, all modelled
//! here in *simulated time* so the results are deterministic:
//!
//! * **Record cost** — every record written to the aux buffer charges
//!   [`OverheadModel::record_write_cycles`] to the profiled core (pipeline
//!   tracking + packet formation + buffer write). Samples dropped by a
//!   collision or a full buffer charge nothing, matching the paper's
//!   observation that dropped samples cost no time.
//! * **Watermark interrupts** — when `aux_watermark` bytes accumulate, a
//!   `PERF_RECORD_AUX` record is published, the publish handler runs, and
//!   [`OverheadModel::interrupt_cycles`] are charged to the core.
//! * **Drain latency** — the space occupied by published data is only
//!   released after a service latency plus a per-byte processing time
//!   (modelling the NMO monitor thread catching up). If the core produces
//!   samples faster than this drain, the aux buffer fills and records are
//!   dropped as *truncated* — the dominant cause of the accuracy collapse at
//!   sampling periods below ~2000–3000 in Figure 8a, of the aux-buffer-size
//!   sensitivity in Figure 9, and (via the `PERF_AUX_FLAG_COLLISION` flag on
//!   the published records) of the collision counts in Figure 8c.
//!
//! The driver is woken only for the operations the unit's interval counter
//! selects (see [`arch_sim::observer`]), so due releases are processed then
//! rather than at every operation. That is exact, not an approximation: the
//! aux tail is consulted by nothing but the `aux.write` of a selected
//! operation, the core clock only moves forward, and `process_releases` runs
//! first at every wake — so at each write the tail has had exactly the
//! releases due by that operation's clock applied, as it had when they were
//! applied one operation at a time. A flush or detach catches up the same
//! way before publishing.
//!
//! In addition, SPE needs a minimum functional aux-buffer size
//! ([`OverheadModel::min_functional_aux_pages`], 4 pages on the paper's
//! testbed): below it the hardware produces no samples at all, which is why
//! the smallest buffer in Figure 9 shows the lowest overhead and zero
//! accuracy.

use std::collections::VecDeque;
use std::sync::Arc;

use arch_sim::{Machine, MemOutcome, ObserverCharge, Op, OpCounts, OpObserver, Quiet};
use perf_sub::records::{
    AuxRecord, ItraceStartRecord, Record, PERF_AUX_FLAG_COLLISION, PERF_AUX_FLAG_TRUNCATED,
};
use perf_sub::{PerfError, PerfEvent};

use crate::config::SpeConfig;
use crate::packet::SPE_RECORD_BYTES;
use crate::stats::SpeStats;
use crate::unit::{SampleOutcome, SamplerUnit};

/// Tunable cost model for SPE profiling overhead (in core cycles).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadModel {
    /// Cycles charged to the profiled core per record written to the aux
    /// buffer (pipeline tracking, packet formation, buffer write).
    pub record_write_cycles: u64,
    /// Cycles charged to the profiled core per watermark interrupt.
    pub interrupt_cycles: u64,
    /// Simulated monitor-thread processing speed: cycles per aux byte before
    /// the space is released back to the producer.
    pub drain_cycles_per_byte: f64,
    /// Fixed latency (scheduling + syscall + wakeup) before a published chunk
    /// starts draining, in cycles.
    pub drain_service_latency_cycles: u64,
    /// Minimum aux-buffer size, in pages, below which SPE produces nothing.
    /// The default, 4, is the paper's Figure 9 observation entered as a
    /// constant: nothing in this model derives it.
    pub min_functional_aux_pages: u64,
}

impl Default for OverheadModel {
    fn default() -> Self {
        OverheadModel {
            record_write_cycles: 400,
            interrupt_cycles: 12_000,
            drain_cycles_per_byte: 150.0,
            drain_service_latency_cycles: 4_500_000,
            min_functional_aux_pages: 4,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct PendingRelease {
    release_at_cycle: u64,
    new_tail: u64,
}

/// The event's overflow handler (see [`SpeDriver::set_publish_handler`]).
pub type PublishHandler = Box<dyn FnMut(&PerfEvent) + Send>;

/// Per-core SPE driver: sampling unit + perf event plumbing + overhead model.
pub struct SpeDriver {
    unit: SamplerUnit,
    event: Arc<PerfEvent>,
    stats: Arc<SpeStats>,
    model: OverheadModel,
    /// Aux offset where not-yet-published data begins.
    pending_start: u64,
    /// Bytes written but not yet published via `PERF_RECORD_AUX`.
    pending_bytes: u64,
    /// Flags accumulated for the next published AUX record.
    pending_flags: u64,
    /// Future aux-tail advances, ordered by release time.
    releases: VecDeque<PendingRelease>,
    /// Whether the aux buffer meets the minimum functional size.
    functional: bool,
    /// Pending bytes at which a `PERF_RECORD_AUX` record is published.
    watermark: u64,
    publish_handler: Option<PublishHandler>,
}

impl std::fmt::Debug for SpeDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpeDriver")
            .field("cpu", &self.event.cpu())
            .field("pending_bytes", &self.pending_bytes)
            .field("functional", &self.functional)
            .finish()
    }
}

impl SpeDriver {
    /// Create a driver bound to an already-opened SPE perf event.
    pub fn new(
        cfg: SpeConfig,
        event: Arc<PerfEvent>,
        stats: Arc<SpeStats>,
        model: OverheadModel,
        timeconv: arch_sim::TimeConv,
        seed: u64,
    ) -> Self {
        let functional =
            event.aux().map(|aux| aux.pages() >= model.min_functional_aux_pages).unwrap_or(false);
        let unit = SamplerUnit::new(cfg, stats.clone(), timeconv, seed);
        SpeDriver {
            unit,
            watermark: event.effective_aux_watermark(),
            event,
            stats,
            model,
            pending_start: 0,
            pending_bytes: 0,
            pending_flags: 0,
            releases: VecDeque::new(),
            functional,
            publish_handler: None,
        }
    }

    /// Install the one handler run right after every `PERF_RECORD_AUX`
    /// record this driver publishes, on the publishing thread: the engine's
    /// on a watermark or a detach, the flusher's on a flush. The published
    /// bytes cannot be released (let alone overwritten) before it returns,
    /// so a handler that reads the record out of the ring and the aux buffer
    /// is never late, however small the buffer and however fast the drain
    /// model. Never runs while the aux buffer is too small to be functional
    /// (nothing is published then).
    pub fn set_publish_handler(&mut self, handler: PublishHandler) {
        self.publish_handler = Some(handler);
    }

    /// `perf_event_open` analogue without attaching: open an SPE event for
    /// `core` on `machine`, allocate its buffers, and return the driver
    /// together with the handles the profiler needs (the shared event and
    /// statistics). The caller decides how the driver observes the core —
    /// directly via `Machine::set_observer`, or composed with other observers
    /// (e.g. `arch_sim::FanoutObserver`) when several backends share a core.
    ///
    /// `ring_pages` and `aux_pages` are in machine pages (64 KiB on the
    /// paper's testbed); `ring_pages` excludes the metadata page, mirroring
    /// NMO's `(N+1)`-page mmap.
    pub fn open_for(
        machine: &Machine,
        core: usize,
        cfg: SpeConfig,
        ring_pages: u64,
        aux_pages: u64,
        model: OverheadModel,
    ) -> Result<(SpeDriver, Arc<PerfEvent>, Arc<SpeStats>), PerfError> {
        let page_bytes = machine.config().page_bytes;
        let attr = cfg.to_attr();
        let event = PerfEvent::open_shared(attr, core, ring_pages, aux_pages, page_bytes)?;
        let timeconv = machine.timeconv();
        let (zero, shift, mult) = timeconv.perf_mmap_triple();
        event.meta().set_clock(zero, shift, mult);
        event.publish(Record::ItraceStart(ItraceStartRecord { pid: 1, tid: core as u32 + 1 }));

        let stats = SpeStats::new_shared();
        let driver =
            SpeDriver::new(cfg, event.clone(), stats.clone(), model, timeconv, core as u64);
        Ok((driver, event, stats))
    }

    /// [`SpeDriver::open_for`] plus attaching the driver as the core's sole
    /// observer — the historical one-call path.
    pub fn open_on(
        machine: &Machine,
        core: usize,
        cfg: SpeConfig,
        ring_pages: u64,
        aux_pages: u64,
        model: OverheadModel,
    ) -> Result<(Arc<PerfEvent>, Arc<SpeStats>), PerfError> {
        let (driver, event, stats) =
            Self::open_for(machine, core, cfg, ring_pages, aux_pages, model)?;
        machine.set_observer(core, Box::new(driver)).map_err(|e| {
            PerfError::InvalidAttr(format!("cannot attach SPE to core {core}: {e}"))
        })?;
        Ok((event, stats))
    }

    /// The shared perf event.
    pub fn event(&self) -> &Arc<PerfEvent> {
        &self.event
    }

    /// The shared statistics block.
    pub fn stats(&self) -> &Arc<SpeStats> {
        &self.stats
    }

    fn process_releases(&mut self, now_cycles: u64) {
        while let Some(front) = self.releases.front() {
            if front.release_at_cycle <= now_cycles {
                if let Some(aux) = self.event.aux() {
                    aux.advance_tail(front.new_tail, self.event.meta());
                }
                self.releases.pop_front();
            } else {
                break;
            }
        }
    }

    fn publish_pending(&mut self, now_cycles: u64) -> u64 {
        if self.pending_bytes == 0 && self.pending_flags == 0 {
            return 0;
        }
        let record = Record::Aux(AuxRecord {
            aux_offset: self.pending_start,
            aux_size: self.pending_bytes,
            flags: self.pending_flags,
        });
        self.event.publish(record);
        if let Some(handler) = self.publish_handler.as_mut() {
            handler(&self.event);
        }
        self.stats.add(&self.stats.interrupts, 1);

        // Schedule the space release (simulated monitor-thread drain). A
        // flags-only record (pending_bytes == 0, e.g. pure truncation at the
        // final drain) releases nothing. A drain too slow to ever finish
        // saturates: the space then comes back only at the final drain.
        let new_tail = self.pending_start + self.pending_bytes;
        if self.pending_bytes > 0 {
            let drain_cycles = self.model.drain_service_latency_cycles.saturating_add(
                (self.pending_bytes as f64 * self.model.drain_cycles_per_byte) as u64,
            );
            self.releases.push_back(PendingRelease {
                release_at_cycle: now_cycles.saturating_add(drain_cycles),
                new_tail,
            });
        }

        self.pending_start = new_tail;
        self.pending_bytes = 0;
        self.pending_flags = 0;
        self.model.interrupt_cycles
    }
}

impl OpObserver for SpeDriver {
    /// The unit's interval while sampling; every operation while the event
    /// is disabled (re-enabling is noticed at the next one); none at all
    /// once the aux buffer is too small for SPE to produce anything.
    fn quiet(&self) -> Quiet {
        if !self.functional {
            Quiet::NEVER
        } else if !self.event.is_enabled() {
            Quiet::NONE
        } else {
            self.unit.quiet()
        }
    }

    fn on_skipped(&mut self, counts: &OpCounts) {
        if self.functional {
            self.unit.on_skipped(counts);
        }
    }

    fn on_op(&mut self, op: &Op, outcome: Option<&MemOutcome>, now_cycles: u64) -> ObserverCharge {
        if !self.functional || !self.event.is_enabled() {
            return ObserverCharge::NONE;
        }
        self.process_releases(now_cycles);

        let record = match self.unit.on_op(op, outcome, now_cycles) {
            SampleOutcome::Record(rec) => rec,
            // Non-samples and dropped samples cost nothing (paper Section
            // VII-A: collided samples are discarded before filtering and
            // buffer writes, hence no time overhead).
            _ => return ObserverCharge::NONE,
        };

        let Some(aux) = self.event.aux() else {
            return ObserverCharge::NONE;
        };
        let bytes = record.encode();
        let mut charge = 0u64;
        match aux.write(&bytes, self.event.meta()) {
            Some(offset) => {
                if self.pending_bytes == 0 {
                    self.pending_start = offset;
                }
                self.pending_bytes += SPE_RECORD_BYTES as u64;
                self.stats.add(&self.stats.records_written, 1);
                self.stats.add(&self.stats.aux_bytes_written, SPE_RECORD_BYTES as u64);
                charge += self.model.record_write_cycles;

                if self.pending_bytes >= self.watermark {
                    charge += self.publish_pending(now_cycles);
                }
            }
            None => {
                // Aux buffer full: the record is dropped. The next published
                // AUX record carries the truncation/collision flags, which is
                // what NMO counts (paper Section VII).
                self.stats.add(&self.stats.truncated_records, 1);
                self.pending_flags |= PERF_AUX_FLAG_TRUNCATED | PERF_AUX_FLAG_COLLISION;
            }
        }
        if charge > 0 {
            self.stats.add(&self.stats.overhead_cycles, charge);
        }
        ObserverCharge::cycles(charge)
    }

    fn on_detach(&mut self, now_cycles: u64) -> ObserverCharge {
        if !self.functional {
            return ObserverCharge::NONE;
        }
        // Final drain: publish whatever is pending so the profiler gets it
        // at program exit. The paper measures execution time up to the
        // end of `main`, so the final drain is not charged to the core.
        self.publish_pending(now_cycles);
        self.process_releases(u64::MAX);
        ObserverCharge::NONE
    }

    fn on_flush(&mut self, now_cycles: u64) -> ObserverCharge {
        if !self.functional {
            return ObserverCharge::NONE;
        }
        // Window-boundary flush for streaming consumers: publish sub-watermark
        // data so the profiler sees it mid-run. Unlike the watermark interrupt
        // this is driven from the profiler side, so the interrupt cost is
        // charged like any other publication.
        self.process_releases(now_cycles);
        let charge = self.publish_pending(now_cycles);
        if charge > 0 {
            self.stats.add(&self.stats.overhead_cycles, charge);
        }
        ObserverCharge::cycles(charge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arch_sim::MachineConfig;
    use perf_sub::records::Record;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn fast_model() -> OverheadModel {
        OverheadModel {
            record_write_cycles: 10,
            interrupt_cycles: 100,
            drain_cycles_per_byte: 0.1,
            drain_service_latency_cycles: 10,
            min_functional_aux_pages: 4,
        }
    }

    #[test]
    fn open_on_attaches_and_publishes_itrace_start() {
        let machine = Machine::new(MachineConfig::small_test());
        let cfg = SpeConfig::loads_stores(100);
        let (event, _stats) =
            SpeDriver::open_on(&machine, 0, cfg, 8, 16, OverheadModel::default()).unwrap();
        match event.next_record().unwrap() {
            Some(Record::ItraceStart(s)) => assert_eq!(s.tid, 1),
            other => panic!("expected ItraceStart, got {other:?}"),
        }
        // Observer is attached to the core.
        assert!(machine.take_observer(0).unwrap().is_some());
    }

    #[test]
    fn records_flow_into_aux_and_aux_records_into_ring() {
        let machine = Machine::new(MachineConfig::small_test());
        let cfg = SpeConfig { jitter_ops: 0, ..SpeConfig::loads_stores(10) };
        let (event, stats) = SpeDriver::open_on(&machine, 0, cfg, 8, 16, fast_model()).unwrap();
        // Consume the ItraceStart record.
        let _ = event.next_record().unwrap();

        let region = machine.alloc("data", 1 << 20).unwrap();
        {
            let mut e = machine.attach(0).unwrap();
            for i in 0..10_000u64 {
                e.load(region.start + i * 8, 8);
            }
        }
        let snap = stats.snapshot();
        assert!(snap.records_written >= 900, "snap={snap:?}");
        assert!(snap.aux_bytes_written >= 900 * 64);
        assert!(snap.interrupts >= 1, "final drain publishes at least once");

        // NMO side: AUX records are readable and point at valid data.
        let mut aux_bytes_seen = 0;
        while let Some(rec) = event.next_record().unwrap() {
            if let Record::Aux(a) = rec {
                aux_bytes_seen += a.aux_size;
                let data = event.aux().unwrap().read_at(a.aux_offset, a.aux_size);
                assert_eq!(data.len() as u64 % 64, 0);
            }
        }
        assert_eq!(aux_bytes_seen, snap.aux_bytes_written);
    }

    #[test]
    fn tiny_aux_buffer_disables_sampling() {
        let machine = Machine::new(MachineConfig::small_test());
        let cfg = SpeConfig { jitter_ops: 0, ..SpeConfig::loads_stores(10) };
        // 2 pages < min_functional_aux_pages (4).
        let (_event, stats) = SpeDriver::open_on(&machine, 0, cfg, 8, 2, fast_model()).unwrap();
        let region = machine.alloc("data", 1 << 20).unwrap();
        {
            let mut e = machine.attach(0).unwrap();
            for i in 0..10_000u64 {
                e.load(region.start + i * 8, 8);
            }
        }
        let snap = stats.snapshot();
        assert_eq!(snap.records_written, 0);
        assert_eq!(snap.overhead_cycles, 0, "a non-functional SPE costs nothing");
    }

    #[test]
    fn slow_drain_causes_truncation() {
        let machine = Machine::new(MachineConfig::small_test());
        let cfg = SpeConfig { jitter_ops: 0, ..SpeConfig::loads_stores(2) };
        let model = OverheadModel {
            record_write_cycles: 1,
            interrupt_cycles: 1,
            // Slower than production on purpose.
            drain_cycles_per_byte: 10_000.0,
            drain_service_latency_cycles: 1_000_000,
            min_functional_aux_pages: 4,
        };
        // Small aux buffer: 4 pages of 4 KiB = 256 records.
        let (_event, stats) = SpeDriver::open_on(&machine, 0, cfg, 8, 4, model).unwrap();
        let region = machine.alloc("data", 1 << 22).unwrap();
        {
            let mut e = machine.attach(0).unwrap();
            for i in 0..100_000u64 {
                e.load(region.start + (i * 64) % (1 << 22), 8);
            }
        }
        let snap = stats.snapshot();
        assert!(snap.truncated_records > 0, "snap={snap:?}");
        assert!(snap.records_written < snap.samples_selected, "some selected samples must be lost");
    }

    /// A drain latency no run outlasts keeps the space instead of
    /// overflowing the release time: the buffer fills once and every later
    /// record is truncated.
    #[test]
    fn an_endless_drain_latency_truncates_instead_of_overflowing() {
        let machine = Machine::new(MachineConfig::small_test());
        let cfg = SpeConfig { jitter_ops: 0, ..SpeConfig::loads_stores(2) };
        let model = OverheadModel { drain_service_latency_cycles: u64::MAX, ..fast_model() };
        // 4 pages of 4 KiB = 256 records.
        let (_event, stats) = SpeDriver::open_on(&machine, 0, cfg, 8, 4, model).unwrap();
        let region = machine.alloc("data", 1 << 20).unwrap();
        {
            let mut e = machine.attach(0).unwrap();
            for i in 0..10_000u64 {
                e.load(region.start + i * 8, 8);
            }
        }
        let snap = stats.snapshot();
        assert_eq!(snap.records_written, 256, "{snap:?}");
        assert!(snap.truncated_records > 0, "{snap:?}");
    }

    #[test]
    fn flush_publishes_sub_watermark_data() {
        let machine = Machine::new(MachineConfig::small_test());
        let cfg = SpeConfig { jitter_ops: 0, ..SpeConfig::loads_stores(100) };
        let (event, stats) = SpeDriver::open_on(&machine, 0, cfg, 8, 16, fast_model()).unwrap();
        let _ = event.next_record().unwrap(); // ItraceStart
        let region = machine.alloc("data", 1 << 20).unwrap();
        {
            let mut e = machine.attach(0).unwrap();
            // Few enough samples that the watermark never triggers.
            for i in 0..2_000u64 {
                e.load(region.start + i * 8, 8);
            }
            assert!(stats.snapshot().records_written > 0);
            assert_eq!(event.drain().count(), 0, "nothing published before the flush");
            e.flush_observer();
        }
        let published: u64 = event
            .drain()
            .filter_map(|r| match r {
                Record::Aux(a) => Some(a.aux_size),
                _ => None,
            })
            .sum();
        assert_eq!(published, stats.snapshot().aux_bytes_written);
    }

    /// The publish handler runs once per published `PERF_RECORD_AUX` record
    /// — watermark, flush and detach alike — on the thread that published
    /// it, with the record still unread in the ring; a driver whose aux
    /// buffer is too small to be functional never calls it.
    #[test]
    fn publish_handler_runs_once_per_aux_record_on_the_publishing_thread() {
        /// Runs 3 000 loads, a flush and 100 more loads on a spawned thread;
        /// returns that thread's id, what the handler saw and the statistics.
        fn run(aux_pages: u64) -> (std::thread::ThreadId, Vec<(std::thread::ThreadId, u64)>, u64) {
            let machine = Machine::new(MachineConfig::small_test());
            let cfg = SpeConfig { jitter_ops: 0, ..SpeConfig::loads_stores(2) };
            let (mut driver, event, stats) =
                SpeDriver::open_for(&machine, 0, cfg, 8, aux_pages, fast_model()).unwrap();
            let _ = event.next_record().unwrap(); // ItraceStart
            let (seen, calls) = std::sync::mpsc::sync_channel(64);
            driver.set_publish_handler(Box::new(move |event| {
                let bytes = event.drain().map(|r| match r {
                    Record::Aux(a) => a.aux_size,
                    other => panic!("unexpected record {other:?}"),
                });
                let pending: Vec<u64> = bytes.collect();
                assert_eq!(pending.len(), 1, "exactly the record just published is pending");
                seen.send((std::thread::current().id(), pending[0])).unwrap();
            }));
            machine.set_observer(0, Box::new(driver)).unwrap();
            let region = machine.alloc("data", 1 << 20).unwrap();
            let publisher = std::thread::scope(|s| {
                let worker = s.spawn(|| {
                    let mut e = machine.attach(0).unwrap();
                    for i in 0..3_000u64 {
                        e.load(region.start + i * 8, 8);
                    }
                    e.flush_observer();
                    for i in 0..100u64 {
                        e.load(region.start + i * 8, 8);
                    }
                    std::thread::current().id()
                });
                worker.join().unwrap()
            });
            assert_eq!(event.drain().count(), 0, "the handler left nothing in the ring");
            let calls: Vec<_> = calls.try_iter().collect();
            assert_eq!(calls.len() as u64, stats.snapshot().interrupts);
            (publisher, calls, stats.snapshot().aux_bytes_written)
        }

        // 4 pages of 4 KiB: a watermark every 128 records, so 1 500 records
        // cross it 11 times; then the flush and the detach publish the rest.
        let (publisher, calls, written) = run(4);
        assert_eq!(calls.len(), 11 + 2);
        assert!(calls.iter().all(|(thread, _)| *thread == publisher));
        assert_ne!(publisher, std::thread::current().id());
        assert_eq!(calls.iter().map(|(_, bytes)| bytes).sum::<u64>(), written);
        assert_eq!(written, 1_550 * SPE_RECORD_BYTES as u64);

        // 2 pages < min_functional_aux_pages (4): nothing is ever published.
        let (_, calls, written) = run(2);
        assert_eq!((calls.len(), written), (0, 0));
    }

    #[test]
    fn disabled_event_produces_nothing() {
        let machine = Machine::new(MachineConfig::small_test());
        let cfg = SpeConfig { jitter_ops: 0, ..SpeConfig::loads_stores(10) };
        let (event, stats) = SpeDriver::open_on(&machine, 0, cfg, 8, 16, fast_model()).unwrap();
        event.disable();
        let region = machine.alloc("data", 1 << 20).unwrap();
        {
            let mut e = machine.attach(0).unwrap();
            for i in 0..1000u64 {
                e.load(region.start + i * 8, 8);
            }
        }
        assert_eq!(stats.snapshot().records_written, 0);
    }

    /// A driver behind a wrapper that counts its `on_op` calls and, with
    /// `every_op`, hides its [`Quiet`] from the core, so that the driver is
    /// shown every operation and counts its interval down itself — the
    /// reference the core's countdown is compared against.
    struct Wrapped {
        driver: SpeDriver,
        every_op: bool,
        on_ops: Arc<AtomicU64>,
    }

    impl OpObserver for Wrapped {
        fn quiet(&self) -> Quiet {
            if self.every_op {
                Quiet::NONE
            } else {
                self.driver.quiet()
            }
        }

        fn on_skipped(&mut self, counts: &OpCounts) {
            self.driver.on_skipped(counts);
        }

        fn on_op(&mut self, op: &Op, outcome: Option<&MemOutcome>, now: u64) -> ObserverCharge {
            self.on_ops.fetch_add(1, Ordering::Relaxed);
            self.driver.on_op(op, outcome, now)
        }

        fn on_detach(&mut self, now: u64) -> ObserverCharge {
            self.driver.on_detach(now)
        }

        fn on_flush(&mut self, now: u64) -> ObserverCharge {
            self.driver.on_flush(now)
        }
    }

    /// Open an SPE event on core 0 and attach its driver behind [`Wrapped`].
    fn attach_wrapped(
        machine: &Machine,
        cfg: SpeConfig,
        aux_pages: u64,
        model: OverheadModel,
        every_op: bool,
    ) -> (Arc<PerfEvent>, Arc<SpeStats>, Arc<AtomicU64>) {
        let (driver, event, stats) =
            SpeDriver::open_for(machine, 0, cfg, 8, aux_pages, model).expect("event opens");
        let on_ops = Arc::new(AtomicU64::new(0));
        machine
            .set_observer(0, Box::new(Wrapped { driver, every_op, on_ops: on_ops.clone() }))
            .unwrap();
        (event, stats, on_ops)
    }

    /// Everything a run leaves behind that a profiler or the simulated
    /// machine could tell two runs apart by.
    #[derive(Debug, PartialEq)]
    struct RunOutcome {
        stats: crate::stats::SpeStatsSnapshot,
        aux_head: u64,
        aux_tail: u64,
        aux_bytes: Vec<u8>,
        ring_records: Vec<Record>,
        counters: arch_sim::CoreCounters,
    }

    /// A mixed op stream (two engine attachments, a mid-run flush) on core 0
    /// under `cfg`; returns the outcome and how often the driver's `on_op`
    /// ran.
    fn run_wrapped(
        cfg: SpeConfig,
        aux_pages: u64,
        model: OverheadModel,
        every_op: bool,
    ) -> (RunOutcome, u64) {
        let machine = Machine::new(MachineConfig::small_test());
        let (event, stats, on_ops) = attach_wrapped(&machine, cfg, aux_pages, model, every_op);
        let region = machine.alloc("data", 1 << 22).unwrap();
        for phase in 0..2u64 {
            let mut e = machine.attach(0).unwrap();
            for i in 0..30_000u64 {
                let addr = region.start + (i * 72 + phase * 8) % (1 << 22);
                if i % 3 == 0 {
                    e.store(addr, 8);
                } else {
                    e.load(addr, 8);
                }
                if i % 5 == 0 {
                    e.branch(0x40_0000 + i);
                }
                if i % 7 == 0 {
                    e.cpu_work(3);
                }
                if i == 17_000 {
                    e.flush_observer();
                }
            }
        }
        drop(machine.take_observer(0).unwrap());
        let aux = event.aux().expect("SPE events map an aux buffer");
        let outcome = RunOutcome {
            stats: stats.snapshot(),
            aux_head: aux.head(),
            aux_tail: aux.tail(),
            aux_bytes: aux.read_at(0, aux.capacity()),
            ring_records: event.drain().collect(),
            counters: machine.core_counters(0).unwrap(),
        };
        (outcome, on_ops.load(Ordering::Relaxed))
    }

    /// The driver woken only at its selected operations leaves exactly what
    /// the driver shown every operation leaves: statistics, aux bytes, ring
    /// records and the core's clock — with jitter, with and without branch
    /// sampling, under truncation, and when non-functional.
    #[test]
    fn core_countdown_leaves_exactly_what_the_per_op_path_left() {
        // Slow enough a drain that a 2-page buffer truncates.
        let truncating = OverheadModel {
            drain_cycles_per_byte: 100.0,
            drain_service_latency_cycles: 200_000,
            min_functional_aux_pages: 2,
            ..fast_model()
        };
        for period in [1u64, 2, 64, 4096] {
            for sample_branches in [false, true] {
                let cfg = SpeConfig { sample_branches, ..SpeConfig::loads_stores(period) };
                for (aux_pages, model) in [(16, fast_model()), (2, truncating), (1, fast_model())] {
                    let (quiet, quiet_calls) = run_wrapped(cfg, aux_pages, model, false);
                    let (every_op, per_op_calls) = run_wrapped(cfg, aux_pages, model, true);
                    let case = format!(
                        "period {period}, branches {sample_branches}, {aux_pages} aux pages"
                    );
                    assert_eq!(quiet, every_op, "{case}");
                    assert!(quiet_calls <= per_op_calls, "{case}");
                    assert_eq!(quiet_calls, quiet.stats.samples_selected, "{case}");
                    match aux_pages {
                        1 => {
                            assert_eq!((quiet.stats.population_ops, quiet_calls), (0, 0), "{case}")
                        }
                        2 if period <= 2 => assert!(quiet.stats.truncated_records > 0, "{case}"),
                        _ => assert!(quiet.stats.records_written > 0, "{case}"),
                    }
                }
            }
        }
    }

    /// At period 4096 the driver's `on_op` runs for the selected operations
    /// and nothing else — a per-op call cannot come back unnoticed.
    #[test]
    fn driver_is_called_once_per_selected_operation() {
        let machine = Machine::new(MachineConfig::small_test());
        let cfg = SpeConfig::loads_stores(4096);
        let (_event, stats, on_ops) =
            attach_wrapped(&machine, cfg, 16, OverheadModel::default(), false);
        let region = machine.alloc("data", 1 << 20).unwrap();
        let attaches = 4u64;
        for _ in 0..attaches {
            let mut e = machine.attach(0).unwrap();
            for i in 0..250_000u64 {
                e.load(region.start + (i * 8) % (1 << 20), 8);
            }
        }
        let snap = stats.snapshot();
        assert_eq!(snap.population_ops, 1_000_000);
        assert!(snap.samples_selected >= 1_000_000 / 4096, "{snap:?}");
        let calls = on_ops.load(Ordering::Relaxed);
        assert!(calls <= snap.samples_selected + attaches, "{calls} on_op calls for {snap:?}");
    }

    /// Disabling the event stops the population count at the next operation
    /// the driver is shown (at most one interval later); re-enabling resumes
    /// it from the next operation on.
    #[test]
    fn disabling_mid_run_stops_counting_at_the_next_shown_op() {
        let machine = Machine::new(MachineConfig::small_test());
        let cfg = SpeConfig { jitter_ops: 0, ..SpeConfig::loads_stores(100) };
        let (event, stats) = SpeDriver::open_on(&machine, 0, cfg, 8, 16, fast_model()).unwrap();
        let region = machine.alloc("data", 1 << 16).unwrap();
        let loads = |n: u64| {
            let mut e = machine.attach(0).unwrap();
            for i in 0..n {
                e.load(region.start + i % 64 * 8, 8);
            }
        };
        loads(250);
        event.disable();
        loads(1_000);
        let stopped = stats.snapshot();
        assert!((250..350).contains(&stopped.population_ops), "{stopped:?}");
        assert_eq!(stopped.samples_selected, 2);
        loads(1_000);
        assert_eq!(stats.snapshot(), stopped, "a disabled event counts and samples nothing");
        event.enable();
        loads(1_000);
        let resumed = stats.snapshot();
        assert_eq!(resumed.population_ops, stopped.population_ops + 1_000);
        assert!(resumed.samples_selected >= stopped.samples_selected + 9, "{resumed:?}");
    }

    #[test]
    fn overhead_scales_with_sample_count() {
        let machine = Machine::new(MachineConfig::small_test());
        let region = machine.alloc("data", 1 << 20).unwrap();
        let mut overheads = Vec::new();
        for (core, period) in [(0usize, 10u64), (1, 100)] {
            let cfg = SpeConfig { jitter_ops: 0, ..SpeConfig::loads_stores(period) };
            let (_event, stats) =
                SpeDriver::open_on(&machine, core, cfg, 8, 16, fast_model()).unwrap();
            {
                let mut e = machine.attach(core).unwrap();
                for i in 0..50_000u64 {
                    e.load(region.start + (i % 1000) * 8, 8);
                }
            }
            overheads.push(stats.snapshot().overhead_cycles);
        }
        assert!(
            overheads[0] > overheads[1] * 5,
            "10x more samples should cost much more: {overheads:?}"
        );
    }
}
