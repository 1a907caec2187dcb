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
//! ## What an L1 hit costs the host
//!
//! Most of what a workload retires hits the L1 (62 % of PageRank's memory
//! operations, 87.5 % of STREAM's), and the hit itself is a compare per way.
//! So only what a hit needs is compiled into the workload's own loop, through
//! the `#[inline]` entry points ([`Engine::load`], [`Engine::store`],
//! [`Engine::load_at`], [`Engine::store_at`]): the retire counters,
//! `Cache::touch` on the L1, the clock step, and the observer's countdown
//! (`Quiet::spend`). An L1 hit makes no call and writes no timestamp: a hit
//! on the set's most recently used way (a run on one line) compares one way
//! and leaves the set's order word as it is, any other hit scans the ways and
//! rotates one nibble of the word to the front (see [`crate::cache`]).
//! Everything from the L1 victim on — the L1 `Cache::fill`, the L2, the SLC,
//! the page home, the memory node, its traffic and bandwidth accounting, the
//! RSS event, and the same clock step and countdown at the end — is one
//! out-of-line function, `past_l1`, with the L2's and the SLC's `touch`
//! compiled into it; the only other call a memory operation
//! can make is `show`, when the observer's permission has run out. The
//! per-vertex and per-block entry points (`branch`, `cpu_work`, `flops`,
//! `idle`, `now_cycles`) are `#[inline]` for the same reason.
//!
//! The reason is the crate boundary. The workloads live in another crate and
//! the builds that matter have no link-time optimisation, so a function of
//! this crate is either inlinable as a whole or a real call with its own
//! frame — and the whole walk is far too large to inline. What had to become
//! small is the part in front of the call, not the callee: returning early
//! from an out-of-line `mem_op` still pays for the call. (`mem_op` is
//! `#[inline(always)]` because it is private and has many call sites per
//! loop body; left to the heuristic it is outlined again, one copy per
//! calling crate.)
//!
//! ## What a memory-bound access costs the host
//!
//! An L1 or L2 hit touches nothing outside the core state the engine owns.
//! An access that misses both first compares the clock with the core's
//! `turn_end`: a core of a gang that has run past its turn hands it on there
//! and waits for it to come back (see [`crate::gang`]); outside a gang the
//! bound is infinite. Only then, holding no turn-taking lock, does it take
//! the one lock of the machine's shared level, `machine.shared`, once, and
//! under it: the SLC, and on a miss there the page's
//! home (a look into the page-home memo, the region lookup behind it only
//! for a page the memo does not hold, first-touch placement among them),
//! the serving node's link budget and traffic, and a first touch's RSS event
//! (see [`crate::vm`] and [`crate::topology`]). Those are plain integers: no
//! atomic is left on the path, and the lock is released before the observer
//! is shown the access. What the access adds to the core's own counters and
//! bandwidth series stays in the core until the engine detaches, as does
//! `counters.cycles`, the clock converted once in `Machine::return_core`.
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

    // `state` is Some from `new()` until `Drop`/`into_state` consumes the
    // engine; no method can observe the None window.
    #[inline]
    #[allow(clippy::expect_used, reason = "Some for the engine's whole lifetime")]
    fn st(&mut self) -> &mut CoreState {
        self.state.as_mut().expect("engine state present until drop")
    }

    /// The core this engine is attached to.
    #[allow(clippy::expect_used, reason = "see `st()`: Some for the engine's whole lifetime")]
    pub fn core_id(&self) -> usize {
        self.state.as_ref().expect("engine state present until drop").id
    }

    /// Current core clock in cycles.
    #[inline]
    #[allow(clippy::expect_used, reason = "see `st()`: Some for the engine's whole lifetime")]
    pub fn now_cycles(&self) -> u64 {
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
    #[inline]
    pub fn branch(&mut self, pc: u64) {
        let cost = self.machine.config().cost.cycles_per_cpu_op;
        let st = self.st();
        st.counters.instructions += 1;
        st.counters.branches += 1;
        st.clock += cost;
        if st.quiet.spend(OpKind::Branch) {
            show(st, Op::branch(pc), None);
        }
    }

    /// Account `n` non-memory, non-sampleable ALU/control instructions.
    ///
    /// These advance the clock and the instruction counter but are not fed to
    /// the observer individually — a simplification: NMO's SPE configuration
    /// samples only memory operations, so no sample could come of them. The
    /// observer learns of them as [`OpCounts::others`](crate::OpCounts::others).
    #[inline]
    pub fn cpu_work(&mut self, n: u64) {
        let cost = self.machine.config().cost.cycles_per_cpu_op;
        let st = self.st();
        st.counters.instructions += n;
        st.clock += n as f64 * cost;
    }

    /// Account `n` floating-point operations (for arithmetic intensity).
    #[inline]
    pub fn flops(&mut self, n: u64) {
        let cost = self.machine.config().cost.cycles_per_flop;
        let st = self.st();
        st.counters.instructions += n;
        st.counters.flops += n;
        st.clock += n as f64 * cost;
    }

    /// Advance the core clock by `cycles` without retiring instructions
    /// (models stalls, synchronisation waits, I/O phases).
    #[inline]
    pub fn idle(&mut self, cycles: u64) {
        self.st().clock += cycles as f64;
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

    /// One load or store. What an L1 hit needs is here, inlined into the
    /// caller's loop through the four entry points; the rest of the walk is
    /// [`past_l1`] (see the module docs).
    #[inline(always)]
    fn mem_op(&mut self, kind: OpKind, pc: u64, vaddr: u64, size: u32) -> MemOutcome {
        let machine = self.machine;
        let cfg = machine.config();
        let is_store = kind == OpKind::Store;

        // The split borrow of `machine` + `state` forces the inline access.
        #[allow(clippy::expect_used, reason = "see `st()`: Some for the engine's whole lifetime")]
        let st = self.state.as_mut().expect("engine state present until drop");
        st.counters.instructions += 1;
        st.counters.mem_access += 1;
        if is_store {
            st.counters.stores += 1;
        } else {
            st.counters.loads += 1;
        }

        // The `Op` is built where it is handed over: a hit that is not shown
        // writes none.
        if !st.l1.touch(vaddr, is_store) {
            return past_l1(machine, st, Op { kind, pc, vaddr, size });
        }
        st.counters.l1_hits += 1;
        let outcome =
            MemOutcome::hit(DataSource::L1, cfg.l1d.latency_cycles, cfg.l1d.occupancy_cycles);

        st.clock += outcome.occupancy_cycles as f64 + cfg.cost.cycles_per_cpu_op;
        if st.quiet.spend(kind) {
            show(st, Op { kind, pc, vaddr, size }, Some(outcome));
        }
        outcome
    }
}

/// A memory operation from the L1 victim on — everything [`Engine::mem_op`]
/// does for an access its L1 `touch` did not find, retiring included. Out of
/// line, and the only call a memory operation makes unless it is shown.
#[inline(never)]
fn past_l1(machine: &Machine, st: &mut CoreState, op: Op) -> MemOutcome {
    let cfg = machine.config();
    let line_bytes = cfg.l1d.line_bytes;
    let (vaddr, is_store) = (op.vaddr, op.kind == OpKind::Store);

    // Walk the rest of the hierarchy.
    let l1 = st.l1.fill(vaddr, is_store);
    let l2 = st.l2.access(vaddr, is_store);
    let outcome = if l2.hit {
        st.counters.l2_hits += 1;
        MemOutcome::hit(DataSource::L2, cfg.l2.latency_cycles, cfg.l2.occupancy_cycles)
    } else {
        if st.clock > st.turn_end {
            st.turn_end = machine.gang.hand_on(st.id, st.clock as u64);
        }
        let now = st.clock as u64;
        let dirty_above = l1.dirty_eviction || l2.dirty_eviction;
        let outcome = machine.shared.lock().access(cfg, vaddr, is_store, dirty_above, now);
        match outcome.source {
            DataSource::Dram(node) | DataSource::RemoteDram(node) => {
                st.counters.dram_accesses += 1;
                st.counters.bus_read_bytes += line_bytes as u64;
                st.counters.bus_write_bytes += (outcome.bus_bytes - line_bytes) as u64;
                // Bandwidth bucket accounting, split per serving node.
                let bucket = (now / cfg.bandwidth_bucket_cycles) as usize;
                if st.bw_buckets.len() <= bucket {
                    st.bw_buckets.resize(bucket + 1, [0; crate::config::MAX_MEM_NODES]);
                }
                st.bw_buckets[bucket][node as usize] += outcome.bus_bytes as u64;
            }
            _ => st.counters.slc_hits += 1,
        }
        outcome
    };

    st.clock += outcome.occupancy_cycles as f64 + cfg.cost.cycles_per_cpu_op;
    if st.quiet.spend(op.kind) {
        show(st, op, Some(outcome));
    }
    outcome
}

/// The slow path of a retired operation: the observer's permission ran out,
/// so it is told what it missed, shown this operation, charged for, and asked
/// how long the core may stay quiet next. Out of line — at the paper's
/// sampling periods it runs once in thousands of operations.
#[inline(never)]
fn show(st: &mut CoreState, op: Op, outcome: Option<MemOutcome>) {
    st.call_observer(Some(op.kind), |obs, now| obs.on_op(&op, outcome.as_ref(), now));
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
    use crate::op::{MemLevel, NodeId};

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
        // Any `u64` is an address: one far outside every region is served by
        // the local node and is nobody's first touch.
        let out = e.load(u64::MAX - 7, 8);
        assert_eq!((out.source, out.first_touch), (DataSource::Dram(0), false));
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
        let traffic = m.node_traffic();
        assert!(traffic[0].accesses > 0 && traffic[1].accesses > 0);
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

    /// A tiered `small_test` machine and a region of `pages` pages on it —
    /// at 64 pages (256 KiB) eight times the SLC, so a pass over it at line stride
    /// misses every cache on every access.
    fn tiered(placement: PlacementPolicy, pages: u64) -> (Machine, crate::vm::Region, u64) {
        let m = Machine::new(MachineConfig::small_test_tiered(placement));
        let page = m.config().page_bytes;
        let region = m.alloc("data", pages * page).unwrap();
        (m, region, page)
    }

    /// The memory node behind a DRAM-class outcome, with the tier its
    /// `DataSource` names checked against the topology.
    fn serving_node(m: &Machine, out: &MemOutcome) -> NodeId {
        match out.source {
            DataSource::Dram(n) => {
                assert!(!m.config().mem.nodes[n as usize].remote, "{:?}", out.source);
                n
            }
            DataSource::RemoteDram(n) => {
                assert!(m.config().mem.nodes[n as usize].remote, "{:?}", out.source);
                n
            }
            cached => panic!("expected a memory-node access, got {cached:?}"),
        }
    }

    /// The pages `pages` of `region` at line stride: the one node that served
    /// every access of each page.
    fn pass(
        e: &mut Engine<'_>,
        m: &Machine,
        region: &crate::vm::Region,
        pages: std::ops::Range<u64>,
    ) -> Vec<NodeId> {
        let page = m.config().page_bytes;
        pages
            .map(|p| {
                let base = region.start + p * page;
                let mut nodes = (0..page / 64).map(|line| {
                    let out = e.load(base + line * 64, 8);
                    serving_node(m, &out)
                });
                let first = nodes.next().unwrap();
                assert!(nodes.all(|node| node == first), "page {p} served by two nodes");
                first
            })
            .collect()
    }

    #[test]
    fn migration_rehomes_a_page_an_attached_engine_has_resolved() {
        let (m, region, page) = tiered(PlacementPolicy::Interleave, 64);
        let mut e = m.attach(0).unwrap();
        let mut homes = pass(&mut e, &m, &region, 0..64);
        assert_eq!(homes, (0..64).map(|p| p % 2).collect::<Vec<NodeId>>(), "first-touch order");
        assert_eq!(pass(&mut e, &m, &region, 0..64), homes, "homes are sticky");

        // A pass during which `migrate` moves page `p` to `dst` half-way
        // through it — the engine has resolved the page and none since. The
        // rest of the page and every later pass are served from `dst`, every
        // other page from where it was.
        let mut rehome = |p: u64, dst: NodeId, migrate: &dyn Fn(u64, u64)| {
            assert_eq!(pass(&mut e, &m, &region, 0..p), homes[..p as usize]);
            let base = region.start + p * page;
            for at in (0..page).step_by(64) {
                if at == page / 2 {
                    migrate(base + 100, e.now_cycles());
                    homes[p as usize] = dst;
                }
                assert_eq!(serving_node(&m, &e.load(base + at, 8)), homes[p as usize], "+{at}");
            }
            assert_eq!(pass(&mut e, &m, &region, p + 1..64), homes[p as usize + 1..]);
            assert_eq!(pass(&mut e, &m, &region, 0..64), homes);
        };
        // From the engine's own thread.
        rehome(5, 0, &|addr, now| {
            m.migrate_page(addr, 0, now).unwrap().expect("page 5 migrates");
        });
        // From a second thread that is handed the turn and joined.
        rehome(40, 1, &|addr, now| {
            std::thread::scope(|s| {
                let migrate = || m.migrate_page(addr, 1, now).unwrap();
                s.spawn(migrate).join().unwrap().expect("page 40 migrates");
            })
        });
        assert_eq!(m.migration_stats().migrations, 2);
    }

    #[test]
    fn freed_pages_lose_their_home_and_later_regions_are_first_touched() {
        let (m, region, page) = tiered(PlacementPolicy::TierSplit { local_fraction: 0.0 }, 64);
        let mut e = m.attach(0).unwrap();
        assert_eq!(pass(&mut e, &m, &region, 0..64), vec![1; 64], "TierSplit(0) homes remotely");
        assert_eq!(m.rss_bytes(), 64 * page);

        assert!(e.free("data"));
        assert_eq!(m.rss_bytes(), 0);
        let events = m.rss_series().len();
        for addr in (region.start..region.end()).step_by(64) {
            let out = e.load(addr, 8);
            assert_eq!((out.source, out.first_touch), (DataSource::Dram(0), false), "{addr:#x}");
        }
        assert_eq!((m.rss_bytes(), m.rss_series().len()), (0, events), "RSS untouched");

        let next = m.alloc("next", 2 * page).unwrap();
        for p in 0..2 {
            let out = e.store(next.start + p * page, 8);
            assert_eq!((out.source, out.first_touch), (DataSource::RemoteDram(1), true));
            let again = e.load(next.start + p * page + 64, 8);
            assert_eq!((again.source, again.first_touch), (DataSource::RemoteDram(1), false));
        }
        assert_eq!(m.rss_bytes(), 2 * page);
    }

    #[test]
    fn address_past_an_unrounded_region_length_stays_untracked() {
        let m = Machine::new(MachineConfig::small_test_tiered(PlacementPolicy::TierSplit {
            local_fraction: 0.0,
        }));
        let page = m.config().page_bytes;
        let region = m.alloc("data", page + 100).unwrap();
        let last_page = region.start + page;
        let mut e = m.attach(0).unwrap();
        // Inside the region's last page, past its length; a line of its own
        // each time, so every access reaches a memory node.
        let out = e.load(last_page + 256, 8);
        assert_eq!((out.source, out.first_touch), (DataSource::Dram(0), false), "before");
        // The same page, inside the length: homed, and now in the table.
        let out = e.load(last_page + 8, 8);
        assert_eq!((out.source, out.first_touch), (DataSource::RemoteDram(1), true));
        for past in [100, 128, 512, page - 8] {
            let out = e.load(last_page + past, 8);
            assert_eq!((out.source, out.first_touch), (DataSource::Dram(0), false), "+{past}");
        }
        assert_eq!(m.rss_bytes(), page);
    }

    /// The nodes' traffic counts every access as it happens, from engines
    /// attached outside any gang on four threads at once, and a migration
    /// on both of its links.
    #[test]
    fn node_traffic_counts_every_access_of_every_core() {
        let (m, region, page) = tiered(PlacementPolicy::Interleave, 1024);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (m, region) = (&m, &region);
                s.spawn(move || {
                    let mut e = m.attach(t as usize).unwrap();
                    let quarter = region.len / 4;
                    // Stores over 1 MiB, twice: dirty lines are evicted and
                    // written back all along.
                    for _ in 0..2 {
                        for at in (t * quarter..(t + 1) * quarter).step_by(64) {
                            e.store(region.start + at, 8);
                        }
                    }
                });
            }
        });
        let (c, traffic) = (m.counters(), m.node_traffic());
        assert_eq!(c.dram_accesses, 2 * region.len / 64);
        assert!(c.bus_write_bytes > 0, "dirty lines were written back");
        assert_eq!(traffic.iter().map(|t| t.read_bytes).sum::<u64>(), c.bus_read_bytes);
        assert_eq!(traffic.iter().map(|t| t.write_bytes).sum::<u64>(), c.bus_write_bytes);
        assert_eq!(traffic.iter().map(|t| t.accesses).sum::<u64>(), c.dram_accesses);
        for (node, t) in traffic.iter().enumerate() {
            assert!(t.accesses > 0);
            let series: u64 = m.bandwidth_series().iter().map(|point| point.by_node[node]).sum();
            assert_eq!(t.read_bytes + t.write_bytes, series, "node {node}");
        }

        // Which node page 0 landed on depends on which thread touched it
        // first; move it to the other one.
        let dst = 1 - m.node_of(region.start).expect("page 0 was touched");
        let written = traffic[dst as usize].write_bytes;
        m.migrate_page(region.start, dst, 1_000).unwrap().expect("page 0 lives elsewhere");
        assert_eq!(m.node_traffic()[dst as usize].write_bytes, written + page);
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
