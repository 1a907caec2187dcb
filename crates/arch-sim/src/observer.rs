//! Per-core operation observers.
//!
//! An [`OpObserver`] is attached to a simulated core and sees the core's
//! retired operations together with their memory outcome and the core's
//! clock. The ARM SPE unit model (in the `spe` crate) is an observer: it
//! decides whether the operation is sampled, forms the sample record, writes
//! it to the aux buffer, and — crucially for the paper's overhead experiments
//! — reports how many extra cycles of profiling work (filter evaluation,
//! buffer writes, watermark interrupts, drain processing) the core must
//! absorb. The engine charges those cycles to the core clock, so profiling
//! overhead shows up in the simulated execution time exactly as it does on
//! real hardware.
//!
//! ## Which operations an observer is shown
//!
//! On the real part the SPE interval counter lives in the core and an
//! unsampled operation costs nothing. The model keeps that shape: after
//! every callback the core asks the observer for a [`Quiet`] — which kinds of
//! operation it wants to be shown at all, and how many of those may retire
//! first — and counts down itself. The contract:
//!
//! * **Permission, not promise.** The core may show an operation earlier
//!   than the observer asked for (a [`FanoutObserver`] wakes every child when
//!   one child's count runs out); an observer woken early takes its ordinary
//!   per-op path. The core never skips an operation of a kind in
//!   [`Quiet`]'s set beyond the granted count.
//! * **Counts always precede a callback.** What retired unseen is handed to
//!   [`OpObserver::on_skipped`], per kind, before the next
//!   [`OpObserver::on_op`] / [`OpObserver::on_flush`] /
//!   [`OpObserver::on_detach`] and before `Machine::take_observer` hands the
//!   observer back, so an observer that adds them up has seen every retired
//!   instruction at each of those points.
//! * **Time.** `on_skipped` carries no clock; the `now_cycles` of the
//!   callback that follows is the core clock after the operation shown (or at
//!   the flush/detach), exactly as for an observer that is shown everything.
//!   An observer that needs the clock of every operation keeps the default
//!   [`Quiet::NONE`].
//! * Bulk instructions (`Engine::cpu_work`, `Engine::flops`) are never
//!   shown one by one; they arrive as [`OpCounts::others`].
//!
//! The default [`Quiet::NONE`] shows an observer every load, store and
//! branch.

use crate::counters::CoreCounters;
use crate::op::{MemOutcome, Op, OpKind};

/// Cycles charged to the core by an observer for one retired operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObserverCharge {
    /// Extra cycles the core spends on profiling work attributable to this op
    /// (e.g. its share of an aux-buffer watermark interrupt).
    pub extra_cycles: u64,
}

impl ObserverCharge {
    /// No overhead.
    pub const NONE: ObserverCharge = ObserverCharge { extra_cycles: 0 };

    /// Charge the given number of cycles.
    pub fn cycles(extra_cycles: u64) -> Self {
        ObserverCharge { extra_cycles }
    }
}

/// Retired operations, counted per kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Retired loads.
    pub loads: u64,
    /// Retired stores.
    pub stores: u64,
    /// Retired branches.
    pub branches: u64,
    /// Every other retired instruction (`Engine::cpu_work`, `Engine::flops`).
    pub others: u64,
}

impl OpCounts {
    /// Everything `counters` says the core retired so far.
    pub(crate) fn retired(counters: &CoreCounters) -> Self {
        OpCounts {
            loads: counters.loads,
            stores: counters.stores,
            branches: counters.branches,
            others: counters.instructions - counters.loads - counters.stores - counters.branches,
        }
    }

    /// One operation of `kind`.
    pub fn one(kind: OpKind) -> Self {
        let mut counts = OpCounts::default();
        *counts.of_mut(kind) = 1;
        counts
    }

    /// The count for one kind.
    pub fn of(&self, kind: OpKind) -> u64 {
        match kind {
            OpKind::Load => self.loads,
            OpKind::Store => self.stores,
            OpKind::Branch => self.branches,
            OpKind::Other => self.others,
        }
    }

    pub(crate) fn of_mut(&mut self, kind: OpKind) -> &mut u64 {
        match kind {
            OpKind::Load => &mut self.loads,
            OpKind::Store => &mut self.stores,
            OpKind::Branch => &mut self.branches,
            OpKind::Other => &mut self.others,
        }
    }

    /// All kinds together.
    pub fn total(&self) -> u64 {
        self.loads + self.stores + self.branches + self.others
    }

    /// `self` minus `earlier`, kind by kind.
    pub(crate) fn since(&self, earlier: &OpCounts) -> OpCounts {
        OpCounts {
            loads: self.loads - earlier.loads,
            stores: self.stores - earlier.stores,
            branches: self.branches - earlier.branches,
            others: self.others - earlier.others,
        }
    }
}

/// What an observer lets its core retire without showing it (see the module
/// docs for the contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quiet {
    /// Bit `1 << kind as u8` for every kind the observer wants shown.
    kinds: u8,
    /// How many operations of those kinds may retire before the next is
    /// shown.
    ops: u64,
}

impl Quiet {
    /// Show every operation (the default).
    pub const NONE: Quiet = Quiet { kinds: !0, ops: 0 };

    /// Show nothing, ever; everything arrives through
    /// [`OpObserver::on_skipped`].
    pub const NEVER: Quiet = Quiet { kinds: 0, ops: u64::MAX };

    /// Operations of kinds outside `kinds` never need showing; the next `ops`
    /// operations of kinds inside it need not be shown either.
    pub fn over(kinds: &[OpKind], ops: u64) -> Self {
        Quiet { kinds: kinds.iter().fold(0, |mask, &kind| mask | (1 << kind as u8)), ops }
    }

    /// Whether operations of `kind` are ever shown, and so count against the
    /// permission.
    fn covers(&self, kind: OpKind) -> bool {
        self.kinds & (1 << kind as u8) != 0
    }

    /// The permission that respects both `self` and `other`: every kind
    /// either wants shown, after the smaller count.
    pub fn and(self, other: Quiet) -> Quiet {
        Quiet { kinds: self.kinds | other.kinds, ops: self.ops.min(other.ops) }
    }

    /// The core retired one operation of `kind`: spend the permission, or
    /// answer `true` when the operation must be shown.
    #[inline]
    pub(crate) fn spend(&mut self, kind: OpKind) -> bool {
        if !self.covers(kind) {
            return false;
        }
        if self.ops == 0 {
            return true;
        }
        self.ops -= 1;
        false
    }
}

/// Observer of a core's retired-operation stream.
pub trait OpObserver: Send {
    /// Called after a retired operation the observer must be shown (every
    /// load, store and branch unless [`OpObserver::quiet`] says otherwise).
    ///
    /// * `op` — the retired operation.
    /// * `outcome` — memory outcome (None for non-memory ops).
    /// * `now_cycles` — the core clock *after* the op itself retired, before
    ///   any observer charge is applied.
    fn on_op(&mut self, op: &Op, outcome: Option<&MemOutcome>, now_cycles: u64) -> ObserverCharge;

    /// What the core may retire without calling [`OpObserver::on_op`]. Read
    /// when the observer is attached and again after every callback that
    /// returns a charge.
    fn quiet(&self) -> Quiet {
        Quiet::NONE
    }

    /// Per-kind counts of everything that retired since the previous
    /// callback without being shown. Always arrives before the callback it
    /// precedes; never called with all counts zero.
    fn on_skipped(&mut self, _counts: &OpCounts) {}

    /// Called when the owning engine detaches from the core (end of a
    /// workload phase or of the run). `now_cycles` is the core clock at
    /// detach time. Returns a final charge (e.g. the cost of draining a
    /// partially filled aux buffer).
    fn on_detach(&mut self, _now_cycles: u64) -> ObserverCharge {
        ObserverCharge::NONE
    }

    /// Ask the observer to publish any internally buffered data *now*,
    /// without detaching. A streaming profiler calls this at window
    /// boundaries so partially accumulated data (e.g. SPE records below the
    /// aux watermark) becomes visible to consumers mid-run, instead of only
    /// at [`OpObserver::on_detach`]. Observers without internal buffering
    /// keep the default no-op.
    fn on_flush(&mut self, _now_cycles: u64) -> ObserverCharge {
        ObserverCharge::NONE
    }
}

/// An observer that dispatches every callback to several child observers and
/// sums their charges.
///
/// One core has exactly one observer slot; a profiling session that runs
/// several sample backends on the same core (e.g. ARM SPE sampling plus a
/// user's own backend) composes their per-core observers with this type. It
/// asks the core for the strictest of its children's [`Quiet`]s and hands
/// every child every count and every shown operation, so a child is at worst
/// woken earlier than it asked.
pub struct FanoutObserver {
    observers: Vec<Box<dyn OpObserver>>,
}

impl FanoutObserver {
    /// Compose `observers` into a single observer. Order is preserved: charges
    /// accrue in registration order.
    pub fn new(observers: Vec<Box<dyn OpObserver>>) -> Self {
        FanoutObserver { observers }
    }

    /// Number of child observers.
    pub fn len(&self) -> usize {
        self.observers.len()
    }

    /// True when there are no child observers.
    pub fn is_empty(&self) -> bool {
        self.observers.is_empty()
    }
}

impl std::fmt::Debug for FanoutObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanoutObserver").field("observers", &self.observers.len()).finish()
    }
}

impl OpObserver for FanoutObserver {
    fn on_op(&mut self, op: &Op, outcome: Option<&MemOutcome>, now_cycles: u64) -> ObserverCharge {
        let mut total = 0u64;
        for obs in &mut self.observers {
            total += obs.on_op(op, outcome, now_cycles).extra_cycles;
        }
        ObserverCharge::cycles(total)
    }

    fn quiet(&self) -> Quiet {
        self.observers.iter().fold(Quiet::NEVER, |quiet, obs| quiet.and(obs.quiet()))
    }

    fn on_skipped(&mut self, counts: &OpCounts) {
        for obs in &mut self.observers {
            obs.on_skipped(counts);
        }
    }

    fn on_detach(&mut self, now_cycles: u64) -> ObserverCharge {
        let mut total = 0u64;
        for obs in &mut self.observers {
            total += obs.on_detach(now_cycles).extra_cycles;
        }
        ObserverCharge::cycles(total)
    }

    fn on_flush(&mut self, now_cycles: u64) -> ObserverCharge {
        let mut total = 0u64;
        for obs in &mut self.observers {
            total += obs.on_flush(now_cycles).extra_cycles;
        }
        ObserverCharge::cycles(total)
    }
}

/// An observer that does nothing (profiling disabled).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl OpObserver for NullObserver {
    fn on_op(&mut self, _op: &Op, _outcome: Option<&MemOutcome>, _now: u64) -> ObserverCharge {
        ObserverCharge::NONE
    }
}

/// A simple recording observer used in tests and examples: counts ops by kind
/// and remembers the last few addresses.
#[derive(Debug, Default)]
pub struct CountingObserver {
    /// Number of memory ops seen.
    pub mem_ops: u64,
    /// Number of non-memory ops seen.
    pub other_ops: u64,
    /// Last observed core clock.
    pub last_cycles: u64,
    /// Fixed per-op charge, for overhead-model tests.
    pub charge_per_op: u64,
    /// Number of detach callbacks received.
    pub detaches: u64,
    /// Number of flush callbacks received.
    pub flushes: u64,
}

impl OpObserver for CountingObserver {
    fn on_op(&mut self, op: &Op, outcome: Option<&MemOutcome>, now_cycles: u64) -> ObserverCharge {
        if op.kind.is_mem() {
            debug_assert!(outcome.is_some(), "memory ops must carry an outcome");
            self.mem_ops += 1;
        } else {
            self.other_ops += 1;
        }
        self.last_cycles = now_cycles;
        ObserverCharge::cycles(self.charge_per_op)
    }

    fn on_detach(&mut self, _now_cycles: u64) -> ObserverCharge {
        self.detaches += 1;
        ObserverCharge::NONE
    }

    fn on_flush(&mut self, _now_cycles: u64) -> ObserverCharge {
        self.flushes += 1;
        ObserverCharge::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{DataSource, MemOutcome, Op};

    #[test]
    fn counting_observer_counts() {
        let mut obs = CountingObserver { charge_per_op: 2, ..Default::default() };
        let outcome = MemOutcome::hit(DataSource::L1, 4, 1);
        let c = obs.on_op(&Op::load(0, 0x100, 8), Some(&outcome), 10);
        assert_eq!(c.extra_cycles, 2);
        obs.on_op(&Op::other(0), None, 12);
        assert_eq!(obs.mem_ops, 1);
        assert_eq!(obs.other_ops, 1);
        assert_eq!(obs.last_cycles, 12);
        obs.on_detach(20);
        assert_eq!(obs.detaches, 1);
    }

    #[test]
    fn null_observer_charges_nothing() {
        let mut obs = NullObserver;
        let c = obs.on_op(&Op::other(0), None, 0);
        assert_eq!(c, ObserverCharge::NONE);
    }

    #[test]
    fn fanout_dispatches_and_sums_charges() {
        let mut fan = FanoutObserver::new(vec![
            Box::new(CountingObserver { charge_per_op: 3, ..Default::default() }),
            Box::new(CountingObserver { charge_per_op: 4, ..Default::default() }),
            Box::new(NullObserver),
        ]);
        assert_eq!(fan.len(), 3);
        assert!(!fan.is_empty());
        let outcome = MemOutcome::hit(DataSource::L1, 4, 1);
        let c = fan.on_op(&Op::load(0, 0x100, 8), Some(&outcome), 5);
        assert_eq!(c.extra_cycles, 7);
        let c = fan.on_detach(9);
        assert_eq!(c.extra_cycles, 0);
        let c = fan.on_flush(11);
        assert_eq!(c.extra_cycles, 0);
    }

    #[test]
    fn flush_default_is_noop_and_counting_observer_records_it() {
        let mut obs = CountingObserver::default();
        assert_eq!(obs.on_flush(7), ObserverCharge::NONE);
        assert_eq!(obs.flushes, 1);
        let mut null = NullObserver;
        assert_eq!(null.on_flush(7), ObserverCharge::NONE);
    }
}
