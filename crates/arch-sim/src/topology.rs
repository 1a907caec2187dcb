//! The multi-node memory system: per-node latency and bandwidth contention.
//!
//! Each [`MemNode`] models one memory node — the socket-local DDR, or a
//! CXL-style remote expander — as a shared resource with an idle latency and
//! a peak throughput of `peak_bytes_per_cycle`. Each line fill or write-back
//! reserves `bytes / peak` cycles of node time; when requests arrive faster
//! than the node drains, a *busy frontier* runs ahead of the requesting
//! core's clock and the difference appears as queueing delay added to the
//! idle latency. This reproduces the behaviours the paper's experiments
//! depend on:
//!
//! * bandwidth-bound workloads (STREAM at high thread counts) see inflated
//!   memory latencies, which lengthens the tracked lifetime of SPE samples
//!   and therefore increases sample collisions,
//! * the achievable GiB/s saturates near the configured peak, and
//! * on a tiered topology, accesses homed on the remote node form a second,
//!   slower mode in the latency distribution — the DDR-vs-CXL comparison of
//!   the paper's evaluation.
//!
//! Each node's frontier is kept in micro-cycles (1/1024 cycle) in an atomic
//! so that all cores share it without locking; nodes contend independently
//! (a saturated CXL node does not slow down DDR traffic).
//!
//! A node holds two kinds of shared state, and they arrive at different
//! times. The **frontier** is the model: every access reserves its time on
//! it at once (`MemNode::reserve`'s CAS), because the next access from any
//! core must queue behind it. The **traffic counters** (`read_bytes`,
//! `write_bytes`, `accesses`) are reporting only: an engine adds its line
//! fills to a tally of its own core and `Machine::return_core` hands that
//! tally to the nodes when the engine detaches, so the getters are exact at
//! join points and lag each running core in between. A page migration
//! ([`MemTopology::transfer_page`]) has no core to wait for and counts at
//! once, as does [`MemNode::access`].

use std::sync::atomic::{AtomicU64, Ordering};

use crate::config::{MemNodeConfig, MemTopologyConfig};
use crate::op::NodeId;

const FRAC: u64 = 1024;

/// One shared memory node (DDR channel group or CXL expander).
#[derive(Debug)]
pub struct MemNode {
    id: NodeId,
    cfg: MemNodeConfig,
    /// Node busy frontier in micro-cycles (1/1024 of a core cycle).
    busy_until: AtomicU64,
    /// Total bytes read from the node.
    read_bytes: AtomicU64,
    /// Total bytes written back to the node.
    write_bytes: AtomicU64,
    /// Total number of accesses served by the node.
    accesses: AtomicU64,
    /// Cycles per byte on the node's link, in micro-cycles.
    microcycles_per_byte: u64,
}

/// Outcome of one memory-node access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeAccess {
    /// Total latency of the access in cycles (idle latency + queueing delay).
    pub latency_cycles: u64,
    /// Queueing delay component in cycles.
    pub queue_cycles: u64,
}

impl MemNode {
    /// Create a memory node from its configuration.
    pub fn new(id: NodeId, cfg: MemNodeConfig) -> Self {
        let microcycles_per_byte = (FRAC as f64 / cfg.peak_bytes_per_cycle).round() as u64;
        MemNode {
            id,
            cfg,
            busy_until: AtomicU64::new(0),
            read_bytes: AtomicU64::new(0),
            write_bytes: AtomicU64::new(0),
            accesses: AtomicU64::new(0),
            microcycles_per_byte: microcycles_per_byte.max(1),
        }
    }

    /// The node's id in the topology.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Whether the node is on the remote (CXL-style) tier.
    pub fn is_remote(&self) -> bool {
        self.cfg.remote
    }

    /// Access the node at simulated time `now_cycles`, transferring `bytes`
    /// (a line fill and possibly a write-back). `write_back_bytes` counts
    /// separately toward write traffic.
    pub fn access(&self, now_cycles: u64, read_bytes: u32, write_back_bytes: u32) -> NodeAccess {
        self.record_traffic([read_bytes as u64, write_back_bytes as u64, 1]);
        self.reserve(now_cycles, read_bytes as u64 + write_back_bytes as u64)
    }

    /// Add `[read bytes, written-back bytes, accesses]` to the traffic
    /// counters: one access as it happens, or a core's tally when its engine
    /// detaches.
    pub(crate) fn record_traffic(&self, [read_bytes, write_bytes, accesses]: [u64; 3]) {
        // relaxed-ok: traffic counters — monotone sums read only by the
        // reporting getters below; no other data is published through them.
        self.read_bytes.fetch_add(read_bytes, Ordering::Relaxed);
        // relaxed-ok: traffic counter, as above.
        self.write_bytes.fetch_add(write_bytes, Ordering::Relaxed);
        // relaxed-ok: traffic counter, as above.
        self.accesses.fetch_add(accesses, Ordering::Relaxed);
    }

    /// Reserve the node's link for `total_bytes` from simulated time
    /// `now_cycles` on: the busy frontier advances, and what it already ran
    /// ahead of `now_cycles` is the access's queueing delay.
    pub(crate) fn reserve(&self, now_cycles: u64, total_bytes: u64) -> NodeAccess {
        let now_micro = now_cycles.saturating_mul(FRAC);
        let reserve = total_bytes * self.microcycles_per_byte;

        // Advance the busy frontier: new_frontier = max(frontier, now) + reserve.
        // relaxed-ok: the frontier is a self-contained monotone max in
        // simulated time — the CAS loop only needs atomicity of the value
        // itself; no memory is published through it.
        let mut prev = self.busy_until.load(Ordering::Relaxed);
        loop {
            let start = prev.max(now_micro);
            let next = start + reserve;
            // relaxed-ok: as above — value-only CAS, no release payload.
            match self.busy_until.compare_exchange_weak(
                prev,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    let queue_micro = start - now_micro;
                    let queue_cycles = (queue_micro / FRAC).min(self.cfg.max_queue_cycles);
                    return NodeAccess {
                        latency_cycles: self.cfg.latency_cycles + queue_cycles,
                        queue_cycles,
                    };
                }
                Err(actual) => prev = actual,
            }
        }
    }

    /// Total bytes read from the node so far (by engines that have detached,
    /// and by migrations).
    pub fn read_bytes(&self) -> u64 {
        // relaxed-ok: reporting read of a stats counter; a stale value is
        // fine mid-run and exact at join points.
        self.read_bytes.load(Ordering::Relaxed)
    }

    /// Total bytes written back to the node so far.
    pub fn write_bytes(&self) -> u64 {
        // relaxed-ok: reporting read of a stats counter, as above.
        self.write_bytes.load(Ordering::Relaxed)
    }

    /// Total number of accesses served so far.
    pub fn accesses(&self) -> u64 {
        // relaxed-ok: reporting read of a stats counter, as above.
        self.accesses.load(Ordering::Relaxed)
    }

    /// The configured idle latency, in cycles.
    pub fn idle_latency(&self) -> u64 {
        self.cfg.latency_cycles
    }

    /// The configured per-access core occupancy, in cycles.
    pub fn occupancy(&self) -> u64 {
        self.cfg.occupancy_cycles
    }

    /// The node's capacity, bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.cfg.capacity_bytes
    }

    /// Reset traffic counters and the busy frontier (between trials).
    pub fn reset(&self) {
        // relaxed-ok: trial boundaries are externally synchronised (the
        // caller joins all simulated cores before resetting).
        self.busy_until.store(0, Ordering::Relaxed);
        // relaxed-ok: as above — quiescent at trial boundaries.
        self.read_bytes.store(0, Ordering::Relaxed);
        // relaxed-ok: as above.
        self.write_bytes.store(0, Ordering::Relaxed);
        // relaxed-ok: as above.
        self.accesses.store(0, Ordering::Relaxed);
    }
}

/// The machine's memory nodes, indexed by [`NodeId`].
#[derive(Debug)]
pub struct MemTopology {
    nodes: Vec<MemNode>,
}

impl MemTopology {
    /// Build the topology from its (validated) configuration.
    pub fn from_config(cfg: &MemTopologyConfig) -> Self {
        MemTopology {
            nodes: cfg
                .nodes
                .iter()
                .enumerate()
                .map(|(id, node)| MemNode::new(id as NodeId, *node))
                .collect(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the topology has no nodes (never the case on a validated
    /// machine).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node with the given id.
    ///
    /// # Panics
    /// Panics when `id` is out of range; placement never produces one.
    pub fn node(&self, id: NodeId) -> &MemNode {
        &self.nodes[id as usize]
    }

    /// The node with the given id, if it exists.
    pub fn get(&self, id: NodeId) -> Option<&MemNode> {
        self.nodes.get(id as usize)
    }

    /// All nodes, ascending by id.
    pub fn nodes(&self) -> &[MemNode] {
        &self.nodes
    }

    /// Total bytes read across all nodes.
    pub fn read_bytes(&self) -> u64 {
        self.nodes.iter().map(MemNode::read_bytes).sum()
    }

    /// Total bytes written back across all nodes.
    pub fn write_bytes(&self) -> u64 {
        self.nodes.iter().map(MemNode::write_bytes).sum()
    }

    /// Total accesses across all nodes.
    pub fn accesses(&self) -> u64 {
        self.nodes.iter().map(MemNode::accesses).sum()
    }

    /// Total capacity across all nodes, bytes.
    pub fn total_capacity_bytes(&self) -> u64 {
        self.nodes.iter().map(MemNode::capacity_bytes).sum()
    }

    /// Move `bytes` of page data from node `from` to node `to` at simulated
    /// time `now_cycles`: the source link serves a read, the destination a
    /// write, and both busy frontiers advance, so a migration storm shows up
    /// as queueing delay on subsequent demand traffic exactly like any other
    /// bandwidth consumer. Returns the combined transfer latency in cycles
    /// (the slower of the two links, including queueing).
    ///
    /// # Panics
    /// Panics when either node id is out of range (validated by
    /// [`crate::Machine::migrate_page`] before the page is re-homed).
    pub fn transfer_page(&self, from: NodeId, to: NodeId, now_cycles: u64, bytes: u32) -> u64 {
        let read = self.node(from).access(now_cycles, bytes, 0);
        let write = self.node(to).access(now_cycles, 0, bytes);
        read.latency_cycles.max(write.latency_cycles)
    }

    /// Reset every node's counters and busy frontier (between trials).
    pub fn reset(&self) {
        for node in &self.nodes {
            node.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlacementPolicy;

    fn cfg() -> MemNodeConfig {
        MemNodeConfig {
            latency_cycles: 100,
            peak_bytes_per_cycle: 64.0, // one line per cycle
            occupancy_cycles: 4,
            max_queue_cycles: 1000,
            capacity_bytes: 1 << 30,
            remote: false,
        }
    }

    #[test]
    fn idle_access_sees_base_latency() {
        let d = MemNode::new(0, cfg());
        let a = d.access(1_000_000, 64, 0);
        assert_eq!(a.queue_cycles, 0);
        assert_eq!(a.latency_cycles, 100);
    }

    #[test]
    fn back_to_back_accesses_queue() {
        let d = MemNode::new(0, cfg());
        // 100 accesses at the same instant: the node serialises them at one
        // line per cycle, so the last one queues for ~99 cycles.
        let mut max_queue = 0;
        for _ in 0..100 {
            let a = d.access(0, 64, 0);
            max_queue = max_queue.max(a.queue_cycles);
        }
        assert!(max_queue >= 90, "expected significant queueing, got {max_queue}");
        assert!(max_queue <= 100);
    }

    #[test]
    fn queue_delay_is_capped() {
        let d = MemNode::new(0, cfg());
        for _ in 0..10_000 {
            let a = d.access(0, 64, 0);
            assert!(a.queue_cycles <= 1000);
        }
    }

    #[test]
    fn traffic_counters_accumulate() {
        let d = MemNode::new(0, cfg());
        d.access(0, 64, 0);
        d.access(0, 64, 64);
        assert_eq!(d.read_bytes(), 128);
        assert_eq!(d.write_bytes(), 64);
        assert_eq!(d.accesses(), 2);
        d.reset();
        assert_eq!(d.read_bytes(), 0);
        assert_eq!(d.accesses(), 0);
    }

    #[test]
    fn idle_gaps_drain_the_queue() {
        let d = MemNode::new(0, cfg());
        for _ in 0..100 {
            d.access(0, 64, 0);
        }
        // Far in the future the node is idle again.
        let a = d.access(1_000_000, 64, 0);
        assert_eq!(a.queue_cycles, 0);
    }

    #[test]
    fn topology_nodes_contend_independently() {
        let local = cfg();
        let remote = MemNodeConfig {
            latency_cycles: 400,
            peak_bytes_per_cycle: 16.0,
            remote: true,
            ..local
        };
        let topo = MemTopology::from_config(&MemTopologyConfig::tiered(
            local,
            remote,
            PlacementPolicy::Interleave,
        ));
        assert_eq!(topo.len(), 2);
        assert!(!topo.node(0).is_remote());
        assert!(topo.node(1).is_remote());
        assert!(topo.node(1).idle_latency() > topo.node(0).idle_latency());

        // Saturate the remote node; the local node stays idle.
        for _ in 0..1000 {
            topo.node(1).access(0, 64, 0);
        }
        let local_acc = topo.node(0).access(0, 64, 0);
        assert_eq!(local_acc.queue_cycles, 0, "local node unaffected by remote pressure");
        let remote_acc = topo.node(1).access(0, 64, 0);
        assert!(remote_acc.queue_cycles > 0, "remote node is congested");

        assert_eq!(topo.accesses(), 1002);
        assert_eq!(topo.read_bytes(), 1002 * 64);
        assert_eq!(topo.total_capacity_bytes(), 2 << 30);
        topo.reset();
        assert_eq!(topo.accesses(), 0);
    }

    #[test]
    fn transfer_page_charges_both_links() {
        let local = cfg();
        let remote = MemNodeConfig {
            latency_cycles: 400,
            peak_bytes_per_cycle: 16.0,
            remote: true,
            ..local
        };
        let topo = MemTopology::from_config(&MemTopologyConfig::tiered(
            local,
            remote,
            PlacementPolicy::Interleave,
        ));
        let latency = topo.transfer_page(1, 0, 0, 4096);
        assert!(latency >= 400, "bounded below by the slower (remote) link: {latency}");
        assert_eq!(topo.node(1).read_bytes(), 4096);
        assert_eq!(topo.node(0).write_bytes(), 4096);
        assert_eq!(topo.read_bytes(), 4096);
        assert_eq!(topo.write_bytes(), 4096);
        // A migration storm congests the links it uses.
        for _ in 0..200 {
            topo.transfer_page(1, 0, 0, 4096);
        }
        let after = topo.node(1).access(0, 64, 0);
        assert!(after.queue_cycles > 0, "demand traffic queues behind the storm");
    }

    #[test]
    fn out_of_range_node_lookup() {
        let topo = MemTopology::from_config(&MemTopologyConfig::single(cfg()));
        assert!(topo.get(0).is_some());
        assert!(topo.get(7).is_none());
    }
}
