//! The sampling countdown lives in the core (`arch_sim::Quiet`): properties
//! of the contract between `Engine` and `OpObserver`.
//!
//! A scripted observer counts down like a sampling unit — "show me the
//! operation after the next `ops` operations of these kinds", then it charges
//! cycles for that operation and picks its next permission. It can do the
//! countdown itself on `Quiet::NONE` (every operation shown — the
//! reference) or hand it to the core. Both must be indistinguishable from
//! the simulated machine's side and from the observer's.

use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;

use nmo_repro::arch_sim::{
    CoreCounters, Engine, FanoutObserver, Machine, MachineConfig, MemOutcome, ObserverCharge, Op,
    OpCounts, OpKind, OpObserver, Quiet,
};

const KINDS: [OpKind; 3] = [OpKind::Load, OpKind::Store, OpKind::Branch];

/// One permission of the script: bits 0–2 pick the kinds, the rest the count.
fn permission(word: u64) -> (Vec<OpKind>, u64) {
    let kinds = KINDS.iter().enumerate().filter(|(bit, _)| word >> bit & 1 == 1).map(|(_, &k)| k);
    (kinds.collect(), (word >> 3) % 40)
}

/// What an observer saw, shared with the test.
#[derive(Debug, Default, Clone, PartialEq)]
struct Log {
    /// Operations shown through `on_op`.
    shown: OpCounts,
    /// Operations reported through `on_skipped`.
    told: OpCounts,
    /// The operations the countdown selected, with the clock they were shown at.
    selected: Vec<(Op, u64)>,
    /// Clocks of the flush and detach callbacks.
    boundaries: Vec<u64>,
}

fn add(total: &mut OpCounts, counts: &OpCounts) {
    total.loads += counts.loads;
    total.stores += counts.stores;
    total.branches += counts.branches;
    total.others += counts.others;
}

struct Countdown {
    script: Vec<u64>,
    next: usize,
    kinds: Vec<OpKind>,
    remaining: u64,
    /// Answer `Quiet::NONE` and count down here instead of in the core.
    every_op: bool,
    charge: u64,
    log: Arc<Mutex<Log>>,
}

impl Countdown {
    fn new(script: &[u64], every_op: bool, charge: u64) -> (Self, Arc<Mutex<Log>>) {
        let log = Arc::new(Mutex::new(Log::default()));
        let (kinds, remaining) = permission(script[0]);
        let script = script.to_vec();
        (Countdown { script, next: 1, kinds, remaining, every_op, charge, log: log.clone() }, log)
    }

    fn covered(&self, counts: &OpCounts) -> u64 {
        self.kinds.iter().map(|&kind| counts.of(kind)).sum()
    }
}

impl OpObserver for Countdown {
    fn quiet(&self) -> Quiet {
        if self.every_op {
            Quiet::NONE
        } else {
            Quiet::over(&self.kinds, self.remaining)
        }
    }

    fn on_skipped(&mut self, counts: &OpCounts) {
        assert!(counts.total() > 0, "an empty count is never delivered");
        let covered = self.covered(counts);
        assert!(covered <= self.remaining, "skipped {counts:?} past {} ops", self.remaining);
        self.remaining -= covered;
        add(&mut self.log.lock().told, counts);
    }

    fn on_op(&mut self, op: &Op, outcome: Option<&MemOutcome>, now_cycles: u64) -> ObserverCharge {
        assert_eq!(outcome.is_some(), op.kind.is_mem());
        let mut log = self.log.lock();
        add(&mut log.shown, &OpCounts::one(op.kind));
        if !self.kinds.contains(&op.kind) {
            return ObserverCharge::NONE;
        }
        if self.remaining > 0 {
            self.remaining -= 1;
            return ObserverCharge::NONE;
        }
        log.selected.push((*op, now_cycles));
        (self.kinds, self.remaining) = permission(self.script[self.next % self.script.len()]);
        self.next += 1;
        ObserverCharge::cycles(self.charge)
    }

    fn on_flush(&mut self, now_cycles: u64) -> ObserverCharge {
        self.log.lock().boundaries.push(now_cycles);
        ObserverCharge::cycles(self.charge / 2)
    }

    fn on_detach(&mut self, now_cycles: u64) -> ObserverCharge {
        self.log.lock().boundaries.push(now_cycles);
        ObserverCharge::NONE
    }
}

/// Everything the observers were shown or told, against the core's counters
/// minus what retired while no observer was attached.
fn assert_accounted(machine: &Machine, logs: &[Arc<Mutex<Log>>], unobserved_loads: u64) {
    let counters = machine.core_counters(0).expect("no engine attached");
    for log in logs {
        let log = log.lock();
        let mut seen = log.shown;
        add(&mut seen, &log.told);
        assert_eq!(seen.loads + unobserved_loads, counters.loads);
        assert_eq!(seen.stores, counters.stores);
        assert_eq!(seen.branches, counters.branches);
        assert_eq!(seen.total() + unobserved_loads, counters.instructions);
    }
}

/// Run `steps` on core 0 of a small machine under `observer`, checking the
/// accounting at every boundary, and return the core's final counters.
fn run(steps: &[u64], observer: Box<dyn OpObserver>, logs: &[Arc<Mutex<Log>>]) -> CoreCounters {
    let machine = Machine::new(MachineConfig::small_test());
    let region = machine.alloc("data", 1 << 16).unwrap();
    machine.set_observer(0, observer).unwrap();
    let mut unobserved_loads = 0;
    let mut engine: Option<Engine<'_>> = None;
    for &step in steps {
        let e = engine.get_or_insert_with(|| machine.attach(0).unwrap());
        let arg = step >> 8;
        let addr = region.start + arg % (1 << 13) * 8;
        match step % 16 {
            0..=5 => drop(e.load(addr, 8)),
            6..=9 => drop(e.store(addr, 8)),
            10 | 11 => e.branch(arg),
            12 => e.cpu_work(arg % 50),
            13 => e.flops(arg % 50),
            14 => e.flush_observer(),
            _ => {
                // The engine detaches; the observer is flushed from outside
                // or taken off the core while some loads retire unobserved.
                engine = None;
                assert_accounted(&machine, logs, unobserved_loads);
                if arg % 2 == 0 {
                    assert!(machine.flush_observer(0).unwrap());
                } else {
                    let observer = machine.take_observer(0).unwrap().expect("attached");
                    let mut e = machine.attach(0).unwrap();
                    for i in 0..arg % 5 {
                        e.load(region.start + i * 64, 8);
                        unobserved_loads += 1;
                    }
                    drop(e);
                    machine.set_observer(0, observer).unwrap();
                }
                assert_accounted(&machine, logs, unobserved_loads);
            }
        }
    }
    drop(engine);
    assert_accounted(&machine, logs, unobserved_loads);
    drop(machine.take_observer(0).unwrap());
    assert_accounted(&machine, logs, unobserved_loads);
    machine.core_counters(0).unwrap()
}

proptest! {
    /// Random operations, permissions, flushes, detaches and re-attachments:
    /// shown + told equals the core's counters at every boundary, the
    /// observer is never skipped past its permission (asserted inside it),
    /// and the run is the run of the per-op path — the same operations
    /// selected at the same clocks, the same charges, the same counters.
    #[test]
    fn core_countdown_is_indistinguishable_from_showing_every_op(
        steps in prop::collection::vec(any::<u64>(), 1..400),
        script in prop::collection::vec(any::<u64>(), 1..12),
    ) {
        let outcome = |every_op| {
            let (observer, log) = Countdown::new(&script, every_op, 37);
            let counters = run(&steps, Box::new(observer), std::slice::from_ref(&log));
            let log = log.lock().clone();
            (counters, log.selected, log.boundaries)
        };
        prop_assert_eq!(outcome(false), outcome(true));
    }

    /// Children with different kinds and counts behind one fan-out (one of
    /// them never asks to be shown anything): each child selects the
    /// operations it selects alone and is told of every retired instruction.
    #[test]
    fn fanout_children_each_see_their_single_observer_run(
        steps in prop::collection::vec(any::<u64>(), 1..400),
        first in prop::collection::vec(any::<u64>(), 1..8),
        second in prop::collection::vec(any::<u64>(), 1..8),
    ) {
        // Low three bits clear: no kinds, so never shown.
        let scripts = [first, second, vec![8 * 5]];
        let alone: Vec<_> = scripts
            .iter()
            .map(|script| {
                let (observer, log) = Countdown::new(script, false, 0);
                let counters = run(&steps, Box::new(observer), std::slice::from_ref(&log));
                let selected = log.lock().selected.clone();
                (counters, selected)
            })
            .collect();
        prop_assert!(alone[2].1.is_empty());

        let (children, logs): (Vec<_>, Vec<_>) = scripts
            .iter()
            .map(|script| {
                let (observer, log) = Countdown::new(script, false, 0);
                (Box::new(observer) as Box<dyn OpObserver>, log)
            })
            .unzip();
        let counters = run(&steps, Box::new(FanoutObserver::new(children)), &logs);
        for ((alone_counters, alone_selected), log) in alone.iter().zip(&logs) {
            prop_assert_eq!(*alone_counters, counters);
            prop_assert_eq!(alone_selected, &log.lock().selected);
        }
    }
}
