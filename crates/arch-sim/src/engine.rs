//! The per-thread execution engine.
//!
//! A workload thread attaches to a simulated core via [`Machine::attach`] and
//! receives an [`Engine`]. The engine is the only hot-path object: it owns
//! the core state (no locks on L1/L2 or counters), and for each memory
//! operation it walks the hierarchy, charges time, updates counters, and
//! — when the observer (the SPE unit when profiling is on) needs to see the
//! operation — shows it to the observer.
//!
//! The countdown to that operation is the core's, as the SPE interval
//! counter is on the real part: a retired load, store or branch costs one
//! mask test and one decrement of the observer's current
//! [`Quiet`](crate::Quiet), and only when that runs out does the engine
//! leave the inline path for the `dyn` calls. There, in this order, the
//! observer is told the per-kind counts of what retired unseen
//! (`on_skipped`), is shown the operation with the core clock after it
//! (`on_op`), has its charge put on the clock, and is asked for its next
//! `Quiet`. Flush, detach and `Machine::take_observer` deliver the
//! outstanding counts first in the same way, so the counts an observer has
//! received always add up to the core's counters at each of its callbacks.
//! The permission is never exceeded but may be cut short; see
//! [`crate::observer`] for the observer's side of the contract.
//!
//! [`Machine::attach`]: crate::machine::Machine::attach

use crate::machine::{CoreState, Machine};
use crate::op::{DataSource, MemOutcome, Op, OpKind};

/// Execution handle bound to one core of a [`Machine`].
///
/// Dropping the engine returns the core to the machine (and notifies the
/// observer via `on_detach`, which is when the SPE aux buffer is drained).
///
/// [`Machine`]: crate::machine::Machine
pub struct Engine<'m> {
    machine: &'m Machine,
    state: Option<CoreState>,
}

impl<'m> Engine<'m> {
    pub(crate) fn new(machine: &'m Machine, state: CoreState) -> Self {
        Engine { machine, state: Some(state) }
    }

    #[inline]
    fn st(&mut self) -> &mut CoreState {
        // unwrap-ok: `state` is Some from `new()` until `Drop`/`into_state`
        // consumes the engine; no method can observe the None window.
        self.state.as_mut().expect("engine state present until drop")
    }

    /// The core this engine is attached to.
    pub fn core_id(&self) -> usize {
        // unwrap-ok: see `st()` — Some for the engine's whole lifetime.
        self.state.as_ref().expect("engine state present until drop").id
    }

    /// Current core clock in cycles.
    pub fn now_cycles(&self) -> u64 {
        // unwrap-ok: see `st()` — Some for the engine's whole lifetime.
        self.state.as_ref().expect("engine state present until drop").clock as u64
    }

    /// Current core clock in simulated nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.machine.config().cycles_to_ns(self.now_cycles())
    }

    /// Issue a load of `size` bytes at virtual address `vaddr`.
    #[inline]
    pub fn load(&mut self, vaddr: u64, size: u32) -> MemOutcome {
        self.mem_op(OpKind::Load, 0, vaddr, size)
    }

    /// Issue a store of `size` bytes at virtual address `vaddr`.
    #[inline]
    pub fn store(&mut self, vaddr: u64, size: u32) -> MemOutcome {
        self.mem_op(OpKind::Store, 0, vaddr, size)
    }

    /// Issue a load with an explicit synthetic program counter (used by
    /// workloads so samples can be attributed to kernels).
    #[inline]
    pub fn load_at(&mut self, pc: u64, vaddr: u64, size: u32) -> MemOutcome {
        self.mem_op(OpKind::Load, pc, vaddr, size)
    }

    /// Issue a store with an explicit synthetic program counter.
    #[inline]
    pub fn store_at(&mut self, pc: u64, vaddr: u64, size: u32) -> MemOutcome {
        self.mem_op(OpKind::Store, pc, vaddr, size)
    }

    /// Issue a branch instruction (sampleable by SPE but excluded by NMO's
    /// default filter).
    pub fn branch(&mut self, pc: u64) {
        let cost = self.machine.config().cost.cycles_per_cpu_op;
        let st = self.st();
        st.counters.instructions += 1;
        st.counters.branches += 1;
        st.clock += cost;
        if st.quiet.spend(OpKind::Branch) {
            show(st, &Op::branch(pc), None);
        }
        st.counters.cycles = st.clock as u64;
    }

    /// Account `n` non-memory, non-sampleable ALU/control instructions.
    ///
    /// These advance the clock and the instruction counter but are not fed to
    /// the observer individually (NMO's SPE configuration samples only memory
    /// operations; see DESIGN.md for this simplification): it learns of them
    /// as [`OpCounts::others`](crate::OpCounts::others).
    pub fn cpu_work(&mut self, n: u64) {
        let cost = self.machine.config().cost.cycles_per_cpu_op;
        let st = self.st();
        st.counters.instructions += n;
        st.clock += n as f64 * cost;
        st.counters.cycles = st.clock as u64;
    }

    /// Account `n` floating-point operations (for arithmetic intensity).
    pub fn flops(&mut self, n: u64) {
        let cost = self.machine.config().cost.cycles_per_flop;
        let st = self.st();
        st.counters.instructions += n;
        st.counters.flops += n;
        st.clock += n as f64 * cost;
        st.counters.cycles = st.clock as u64;
    }

    /// Advance the core clock by `cycles` without retiring instructions
    /// (models stalls, synchronisation waits, I/O phases).
    pub fn idle(&mut self, cycles: u64) {
        let st = self.st();
        st.clock += cycles as f64;
        st.counters.cycles = st.clock as u64;
    }

    /// Flush the core's observer (if any): buffered profiling data (e.g. SPE
    /// records below the aux watermark) is published immediately and any
    /// flush cost is charged to this core's clock. Used by streaming
    /// profilers at window boundaries.
    pub fn flush_observer(&mut self) {
        self.st().call_observer(None, |obs, now| obs.on_flush(now));
    }

    /// Free a named region of the simulated address space, timestamped with
    /// this core's clock so the RSS-over-time series records the drop.
    pub fn free(&mut self, name: &str) -> bool {
        let now = self.now_cycles();
        self.machine.free_at(name, now)
    }

    #[inline]
    fn mem_op(&mut self, kind: OpKind, pc: u64, vaddr: u64, size: u32) -> MemOutcome {
        let cfg = self.machine.config();
        let line_bytes = cfg.l1d.line_bytes;
        let is_store = kind == OpKind::Store;
        let machine = self.machine;

        // unwrap-ok: see `st()` — Some for the engine's whole lifetime
        // (split borrow of `machine` + `state` forces the inline access).
        let st = self.state.as_mut().expect("engine state present until drop");
        st.counters.instructions += 1;
        st.counters.mem_access += 1;
        if is_store {
            st.counters.stores += 1;
        } else {
            st.counters.loads += 1;
        }

        // Walk the hierarchy.
        let l1 = st.l1.access(vaddr, is_store);
        let outcome = if l1.hit {
            st.counters.l1_hits += 1;
            MemOutcome::hit(DataSource::L1, cfg.l1d.latency_cycles, cfg.l1d.occupancy_cycles)
        } else {
            let l2 = st.l2.access(vaddr, is_store);
            if l2.hit {
                st.counters.l2_hits += 1;
                MemOutcome::hit(DataSource::L2, cfg.l2.latency_cycles, cfg.l2.occupancy_cycles)
            } else {
                let slc_res = {
                    let mut shard = machine.slc_shard(vaddr).lock();
                    shard.access(vaddr, is_store)
                };
                if slc_res.hit {
                    st.counters.slc_hits += 1;
                    MemOutcome::hit(
                        DataSource::Slc,
                        cfg.slc.latency_cycles,
                        cfg.slc.occupancy_cycles,
                    )
                } else {
                    // Memory-node access: line fill plus any write-back from
                    // the hierarchy walk above. Resolving the page home first
                    // also performs first-touch placement — only the cold
                    // path needs it, since a never-touched page cannot be
                    // cached. Write-back traffic is charged to the same node
                    // as the fill (the model does not track the evicted
                    // line's home).
                    let wb = if l1.dirty_eviction || l2.dirty_eviction || slc_res.dirty_eviction {
                        line_bytes
                    } else {
                        0
                    };
                    let now = st.clock as u64;
                    let (node_id, first_touch) = match machine.vm().place(vaddr) {
                        Some(home) => (home.node, home.first_touch),
                        // Untracked address (outside every region): served by
                        // the local node, no residency accounting.
                        None => (0, false),
                    };
                    let node = machine.topology().node(node_id);
                    let acc = node.access(now, line_bytes, wb);
                    st.counters.dram_accesses += 1;
                    st.counters.bus_read_bytes += line_bytes as u64;
                    st.counters.bus_write_bytes += wb as u64;

                    // Bandwidth bucket accounting, split per serving node.
                    let bucket = (now / cfg.bandwidth_bucket_cycles) as usize;
                    if st.bw_buckets.len() <= bucket {
                        st.bw_buckets.resize(bucket + 1, [0; crate::config::MAX_MEM_NODES]);
                    }
                    st.bw_buckets[bucket][node_id as usize] += (line_bytes + wb) as u64;

                    if first_touch {
                        machine.push_rss_event(now);
                    }

                    let source = if node.is_remote() {
                        DataSource::RemoteDram(node_id)
                    } else {
                        DataSource::Dram(node_id)
                    };
                    MemOutcome {
                        source,
                        latency_cycles: acc.latency_cycles,
                        occupancy_cycles: node.occupancy() + acc.queue_cycles,
                        bus_bytes: line_bytes + wb,
                        first_touch,
                    }
                }
            }
        };

        st.clock += outcome.occupancy_cycles as f64 + cfg.cost.cycles_per_cpu_op;
        if st.quiet.spend(kind) {
            show(st, &Op { kind, pc, vaddr, size }, Some(&outcome));
        }
        st.counters.cycles = st.clock as u64;
        outcome
    }
}

/// The slow path of a retired operation: the observer's permission ran out,
/// so it is told what it missed, shown this operation, charged for, and asked
/// how long the core may stay quiet next. Out of line — at the paper's
/// sampling periods it runs once in thousands of operations.
#[inline(never)]
fn show(st: &mut CoreState, op: &Op, outcome: Option<&MemOutcome>) {
    st.call_observer(Some(op.kind), |obs, now| obs.on_op(op, outcome, now));
}

impl Drop for Engine<'_> {
    fn drop(&mut self) {
        if let Some(mut state) = self.state.take() {
            state.call_observer(None, |obs, now| obs.on_detach(now));
            self.machine.return_core(state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MachineConfig, PlacementPolicy};
    use crate::machine::Machine;
    use crate::observer::CountingObserver;
    use crate::op::MemLevel;

    #[test]
    fn streaming_counts_and_levels() {
        let m = Machine::new(MachineConfig::small_test());
        let region = m.alloc("data", 1 << 20).unwrap();
        let mut e = m.attach(0).unwrap();
        let mut dram_seen = 0;
        let mut l1_seen = 0;
        for i in 0..8192u64 {
            let out = e.load(region.start + i * 8, 8);
            match out.level() {
                MemLevel::Dram => {
                    assert_eq!(out.source, DataSource::Dram(0), "single-node machine");
                    dram_seen += 1;
                }
                MemLevel::L1 => l1_seen += 1,
                _ => {}
            }
        }
        drop(e);
        let c = m.counters();
        assert_eq!(c.mem_access, 8192);
        assert_eq!(c.loads, 8192);
        // 8 consecutive 8-byte loads share one 64-byte line: 1 miss + 7 hits.
        assert_eq!(dram_seen, 1024);
        assert_eq!(l1_seen, 7 * 1024);
        assert_eq!(c.bus_read_bytes, 1024 * 64);
        assert!(c.cycles > 0);
    }

    #[test]
    fn repeated_access_hits_cache_and_is_faster() {
        let m = Machine::new(MachineConfig::small_test());
        let region = m.alloc("data", 1 << 16).unwrap();
        let mut e = m.attach(0).unwrap();
        // First pass: cold.
        for i in 0..64u64 {
            e.load(region.start + i * 8, 8);
        }
        let cold_cycles = e.now_cycles();
        // Second pass over the same 512 bytes: hot in L1.
        for i in 0..64u64 {
            e.load(region.start + i * 8, 8);
        }
        let hot_cycles = e.now_cycles() - cold_cycles;
        assert!(hot_cycles < cold_cycles * 7 / 10, "hot {hot_cycles} vs cold {cold_cycles}");
    }

    #[test]
    fn rss_grows_on_first_touch_only() {
        let m = Machine::new(MachineConfig::small_test());
        let page = m.config().page_bytes;
        let region = m.alloc("data", 4 * page).unwrap();
        let mut e = m.attach(0).unwrap();
        for rep in 0..2 {
            for p in 0..4u64 {
                e.store(region.start + p * page, 8);
            }
            if rep == 0 {
                assert_eq!(m.rss_bytes(), 4 * page);
            }
        }
        drop(e);
        assert_eq!(m.rss_bytes(), 4 * page);
        assert_eq!(m.rss_series().len(), 4);
    }

    #[test]
    fn observer_sees_ops_and_charges_overhead() {
        let m = Machine::new(MachineConfig::small_test());
        let region = m.alloc("data", 1 << 16).unwrap();
        m.set_observer(0, Box::new(CountingObserver { charge_per_op: 5, ..Default::default() }))
            .unwrap();
        let mut e = m.attach(0).unwrap();
        for i in 0..100u64 {
            e.load(region.start + i * 8, 8);
        }
        e.cpu_work(50);
        e.branch(0x400000);
        drop(e);
        let c = m.counters();
        // 100 mem ops + 1 branch were observed, each charged 5 cycles.
        assert_eq!(c.observer_cycles, 101 * 5);
        assert_eq!(c.instructions, 100 + 50 + 1);
        assert_eq!(c.branches, 1);
    }

    #[test]
    fn flops_and_idle_advance_clock() {
        let m = Machine::new(MachineConfig::small_test());
        let mut e = m.attach(0).unwrap();
        let t0 = e.now_cycles();
        e.flops(1000);
        e.idle(500);
        assert!(e.now_cycles() >= t0 + 500);
        drop(e);
        assert_eq!(m.counters().flops, 1000);
    }

    #[test]
    fn free_records_rss_drop() {
        let m = Machine::new(MachineConfig::small_test());
        let page = m.config().page_bytes;
        let region = m.alloc("tmp", 2 * page).unwrap();
        let mut e = m.attach(0).unwrap();
        e.store(region.start, 8);
        e.store(region.start + page, 8);
        assert_eq!(m.rss_bytes(), 2 * page);
        assert!(e.free("tmp"));
        assert_eq!(m.rss_bytes(), 0);
        drop(e);
        let series = m.rss_series();
        assert_eq!(series.last().unwrap().rss_bytes, 0);
    }

    #[test]
    fn write_back_traffic_counted() {
        let m = Machine::new(MachineConfig::small_test());
        // Write a working set much larger than SLC so dirty lines get evicted
        // all the way to DRAM.
        let region = m.alloc("data", 4 << 20).unwrap();
        let mut e = m.attach(0).unwrap();
        for i in (0..(4 << 20)).step_by(64) {
            e.store(region.start + i as u64, 8);
        }
        drop(e);
        let c = m.counters();
        assert!(c.bus_write_bytes > 0, "dirty evictions must produce write-backs");
    }

    #[test]
    fn tiered_machine_serves_remote_pages_slower() {
        let m = Machine::new(MachineConfig::small_test_tiered(PlacementPolicy::TierSplit {
            local_fraction: 0.5,
        }));
        // Stream far past every cache so accesses keep reaching the nodes.
        let region = m.alloc("data", 8 << 20).unwrap();
        let mut e = m.attach(0).unwrap();
        let mut local = Vec::new();
        let mut remote = Vec::new();
        for i in (0..(8 << 20)).step_by(64) {
            let out = e.load(region.start + i as u64, 8);
            match out.source {
                DataSource::Dram(0) => local.push(out.latency_cycles),
                DataSource::RemoteDram(1) => remote.push(out.latency_cycles),
                DataSource::Dram(_) | DataSource::RemoteDram(_) => {
                    panic!("unexpected node: {:?}", out.source)
                }
                _ => {}
            }
        }
        drop(e);
        assert!(!local.is_empty() && !remote.is_empty(), "both tiers served traffic");
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
        assert!(
            mean(&remote) > mean(&local) + 100.0,
            "remote tier must be visibly slower: local {} remote {}",
            mean(&local),
            mean(&remote)
        );
        // Traffic accounting reaches the right nodes.
        assert!(m.topology().node(0).accesses() > 0);
        assert!(m.topology().node(1).accesses() > 0);
        let bw = m.bandwidth_series();
        let by_node: [u64; crate::config::MAX_MEM_NODES] =
            bw.iter().fold([0; crate::config::MAX_MEM_NODES], |mut acc, p| {
                for (n, b) in p.by_node.iter().enumerate() {
                    acc[n] += b;
                }
                acc
            });
        assert!(by_node[0] > 0 && by_node[1] > 0, "per-node bandwidth split recorded: {by_node:?}");
        assert_eq!(by_node.iter().sum::<u64>(), bw.iter().map(|p| p.bytes).sum::<u64>());
    }

    #[test]
    fn parallel_threads_on_separate_cores() {
        let m = Machine::new(MachineConfig::small_test());
        let region = m.alloc("data", 1 << 20).unwrap();
        std::thread::scope(|s| {
            for t in 0..4usize {
                let m = &m;
                let region = region.clone();
                s.spawn(move || {
                    let mut e = m.attach(t).unwrap();
                    let base = region.start + (t as u64) * (1 << 18);
                    for i in 0..4096u64 {
                        e.load(base + i * 8, 8);
                    }
                });
            }
        });
        let c = m.counters();
        assert_eq!(c.mem_access, 4 * 4096);
        assert!(!m.bandwidth_series().is_empty());
    }
}
