//! The multi-node memory system: per-node latency and bandwidth contention.
//!
//! Each [`MemNode`] models one memory node — the socket-local DDR, or a
//! CXL-style remote expander — as a shared resource with an idle latency and
//! a peak throughput of `peak_bytes_per_cycle`. Each line fill or write-back
//! takes `bytes / peak` cycles of link time; when requests arrive faster
//! than the node drains, they wait for link time and the wait appears as
//! queueing delay added to the idle latency. This reproduces the behaviours
//! the paper's experiments depend on:
//!
//! * bandwidth-bound workloads see inflated memory latencies, which
//!   lengthens the tracked lifetime of SPE samples and therefore increases
//!   sample collisions,
//! * the achievable GiB/s saturates near the configured peak, and
//! * on a tiered topology, accesses homed on the remote node form a second,
//!   slower mode in the latency distribution — the DDR-vs-CXL comparison of
//!   the paper's evaluation.
//!
//! Link time is kept as a budget per 64-cycle bucket (`BUCKET_CYCLES`) of
//! simulated time, not as one busy position: an access at `now` takes its
//! time from the first bucket at or after `now` that has budget left,
//! spilling into the next ones when it needs more, and its first byte lands
//! after what the bucket has already served (at `now` at the earliest). So
//! an access that reaches the node after another one but is earlier in
//! simulated time still finds the link time the later one left, arrival
//! order moves a queueing delay by less than one bucket, and the node keeps
//! its bandwidth whatever order the cores arrive in (cores take turns only
//! to within
//! [`crate::TURN_CYCLES`]; see [`crate::gang`]). The buckets are a fixed ring
//! per node, each one atomic word of (bucket, budget used), so all cores
//! share it without locking; nodes contend independently (a saturated CXL
//! node does not slow down DDR traffic). An access further in the past than
//! the ring reaches is charged from the oldest bucket the ring holds.
//!
//! A node holds two kinds of shared state, and they arrive at different
//! times. The **link budget** is the model: every access takes its time from
//! it at once (`MemNode::reserve`'s CAS per bucket), because the next access
//! from any core must queue behind it. The **traffic counters** (`read_bytes`,
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

/// Width of one bucket of link time, in cycles.
const BUCKET_CYCLES: u64 = 64;

/// Link time one bucket holds, in micro-cycles (1/1024 of a core cycle).
const BUCKET_MICRO: u64 = BUCKET_CYCLES * FRAC;

/// Bits of a ring slot that hold the budget used; the bits above hold the
/// bucket's number plus one (0: a slot no access has used).
const USED_BITS: u32 = 20;

/// One shared memory node (DDR channel group or CXL expander).
#[derive(Debug)]
pub struct MemNode {
    id: NodeId,
    cfg: MemNodeConfig,
    /// The link budget: slot `b % len` holds bucket `b` as
    /// `(b + 1) << USED_BITS | used micro-cycles`.
    buckets: Box<[AtomicU64]>,
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
    /// Create a memory node from its configuration. Its ring of buckets
    /// reaches four times the longest queueing delay plus a turn back from
    /// the latest bucket used.
    pub fn new(id: NodeId, cfg: MemNodeConfig) -> Self {
        let microcycles_per_byte = (FRAC as f64 / cfg.peak_bytes_per_cycle).round() as u64;
        let reach = 4 * (cfg.max_queue_cycles + crate::TURN_CYCLES);
        let ring = (reach / BUCKET_CYCLES).next_power_of_two().max(64);
        MemNode {
            id,
            cfg,
            buckets: (0..ring).map(|_| AtomicU64::new(0)).collect(),
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

    /// Take `total_bytes` of link time from simulated time `now_cycles` on,
    /// bucket by bucket (see the module docs). The access's queueing delay
    /// is where its first byte lands minus `now_cycles`, capped at
    /// `max_queue_cycles`; an access that finds no budget in the whole ring
    /// waits the cap.
    pub(crate) fn reserve(&self, now_cycles: u64, total_bytes: u64) -> NodeAccess {
        let now_micro = now_cycles.saturating_mul(FRAC);
        let mut need = total_bytes * self.microcycles_per_byte;
        let mut first_byte = (need == 0).then_some(now_micro);
        // The ring's length is a power of two: a mask, not a division, finds
        // a bucket's slot.
        let mask = self.buckets.len() as u64 - 1;
        let first = now_cycles / BUCKET_CYCLES;
        for bucket in first..=first + mask {
            if need == 0 {
                break;
            }
            let slot = &self.buckets[(bucket & mask) as usize];
            let tag = (bucket + 1) << USED_BITS;
            // relaxed-ok: each slot is a self-contained counter of simulated
            // link time — the CAS only needs atomicity of the word itself;
            // no memory is published through it.
            let mut prev = slot.load(Ordering::Relaxed);
            loop {
                let used = match prev >> USED_BITS {
                    t if t == bucket + 1 => prev & ((1 << USED_BITS) - 1),
                    // A later bucket holds the slot: this one is older than
                    // the ring, and counts as served.
                    t if t > bucket + 1 => BUCKET_MICRO,
                    _ => 0,
                };
                let take = need.min(BUCKET_MICRO - used);
                if take == 0 {
                    break;
                }
                // relaxed-ok: as above — value-only CAS, no release payload.
                match slot.compare_exchange_weak(
                    prev,
                    tag | (used + take),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let lands = (bucket * BUCKET_MICRO + used).max(now_micro);
                        first_byte.get_or_insert(lands);
                        need -= take;
                        break;
                    }
                    Err(actual) => prev = actual,
                }
            }
        }
        let queue_cycles = first_byte
            .map_or(u64::MAX, |lands| (lands - now_micro) / FRAC)
            .min(self.cfg.max_queue_cycles);
        NodeAccess { latency_cycles: self.cfg.latency_cycles + queue_cycles, queue_cycles }
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

    /// Reset traffic counters and the link budget (between trials).
    pub fn reset(&self) {
        for slot in self.buckets.iter() {
            // relaxed-ok: trial boundaries are externally synchronised (the
            // caller joins all simulated cores before resetting).
            slot.store(0, Ordering::Relaxed);
        }
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
    /// write, and both take the link time, so a migration storm shows up
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

    /// Reset every node's counters and link budget (between trials).
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

    /// A core behind in simulated time that reaches the node after one far
    /// ahead of it finds the link time the other left, instead of queueing
    /// behind it.
    #[test]
    fn an_earlier_access_that_arrives_late_finds_the_link_free() {
        let d = MemNode::new(0, cfg());
        let (ahead, behind) = (160 * BUCKET_CYCLES, 140 * BUCKET_CYCLES);
        for _ in 0..500 {
            d.access(ahead, 64, 0);
        }
        assert_eq!(d.access(ahead, 64, 0).queue_cycles, 500);
        assert_eq!(d.access(behind, 64, 0).queue_cycles, 0);
    }

    /// Arrival order moves a queueing delay by less than one bucket: the
    /// same accesses arriving latest first queue less than a bucket's width,
    /// where one busy position would make each wait for all the later ones.
    #[test]
    fn arrival_order_costs_less_than_a_bucket() {
        let d = MemNode::new(0, cfg());
        let worst = (0..1_000u64).rev().map(|t| d.access(t, 64, 0).queue_cycles).max();
        assert!(worst.unwrap() < BUCKET_CYCLES, "{worst:?}");
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
