//! The multi-node memory system: per-node latency and bandwidth contention.
//!
//! Each node of a [`crate::config::MemTopologyConfig`] — the socket-local
//! DDR, or a CXL-style remote expander — is a shared resource with an idle
//! latency and a peak throughput of `peak_bytes_per_cycle`. Each line fill
//! or write-back takes `bytes / peak` cycles of link time; when requests
//! arrive faster than the node drains, they wait for link time and the wait
//! appears as queueing delay added to the idle latency. This reproduces the
//! behaviours the paper's experiments depend on:
//!
//! * bandwidth-bound workloads see inflated memory latencies: a 2 M-element
//!   STREAM triad on `ampere_altra_max`, profiled at period 4 096, reads a
//!   DRAM p50 / p99 of 330 / 330 cycles on 1 thread, 338 / 345 on 8 and
//!   384 / 436 on 32 (at 10, 75 and 192 GB/s). The inflation does not show
//!   up as SPE collisions: at period 64 the same runs count 9 422 collisions
//!   on 1 thread (beside 70 975 truncated records) and none on 8 or 32;
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
//! to within [`crate::TURN_CYCLES`]; see [`crate::gang`]). The buckets are a
//! fixed ring per node; an access further in the past than the ring reaches
//! is charged from the oldest bucket the ring holds. Nodes contend
//! independently: a saturated CXL node does not slow down DDR traffic.
//!
//! What a node *is* is its configuration, `machine.config().mem.nodes[n]`.
//! What a node *does* — its link budget and the traffic it has served
//! ([`NodeTraffic`]) — is a `Link`, and every node's link lives in the
//! machine's shared level, behind the one `machine.shared` lock an access
//! past the L2 takes anyway (see [`crate::engine`]). Both are plain
//! integers, updated at the access, so [`crate::Machine::node_traffic`] is
//! exact whenever it is read.

use crate::config::MemNodeConfig;

const FRAC: u64 = 1024;

/// Width of one bucket of link time, in cycles.
const BUCKET_CYCLES: u64 = 64;

/// Link time one bucket holds, in micro-cycles (1/1024 of a core cycle).
const BUCKET_MICRO: u64 = BUCKET_CYCLES * FRAC;

/// The traffic one memory node has served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeTraffic {
    /// Bytes read from the node (line fills, and migrations' page reads).
    pub read_bytes: u64,
    /// Bytes written back to the node (and migrations' page writes).
    pub write_bytes: u64,
    /// Accesses served (a migration counts one per node it uses).
    pub accesses: u64,
}

/// Outcome of one memory-node access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NodeAccess {
    /// Total latency of the access in cycles (idle latency + queueing delay).
    pub latency_cycles: u64,
    /// Queueing delay component in cycles.
    pub queue_cycles: u64,
}

/// One node's link: its budget of link time and the traffic it has served.
#[derive(Debug)]
pub(crate) struct Link {
    /// The node's idle latency, in cycles.
    latency_cycles: u64,
    /// The longest queueing delay an access sees, in cycles.
    max_queue_cycles: u64,
    /// Cycles per byte on the link, in micro-cycles.
    microcycles_per_byte: u64,
    /// The link budget: slot `b % len` holds bucket `b` as `(b + 1, used
    /// micro-cycles)`; `(0, 0)` is a slot no access has used.
    buckets: Box<[(u64, u64)]>,
    pub traffic: NodeTraffic,
}

impl Link {
    /// A node's idle link. Its ring of buckets reaches four times the
    /// longest queueing delay plus a turn back from the latest bucket used.
    pub(crate) fn new(cfg: MemNodeConfig) -> Self {
        let microcycles_per_byte = (FRAC as f64 / cfg.peak_bytes_per_cycle).round() as u64;
        let reach = 4 * (cfg.max_queue_cycles + crate::TURN_CYCLES);
        let ring = (reach / BUCKET_CYCLES).next_power_of_two().max(64);
        Link {
            latency_cycles: cfg.latency_cycles,
            max_queue_cycles: cfg.max_queue_cycles,
            microcycles_per_byte: microcycles_per_byte.max(1),
            buckets: vec![(0, 0); ring as usize].into_boxed_slice(),
            traffic: NodeTraffic::default(),
        }
    }

    /// Access the node at simulated time `now_cycles`: a line fill of
    /// `read_bytes` plus `write_back_bytes` of write-back, counted as traffic
    /// and taken from the link budget together.
    pub(crate) fn access(
        &mut self,
        now_cycles: u64,
        read_bytes: u64,
        write_back_bytes: u64,
    ) -> NodeAccess {
        self.traffic.read_bytes += read_bytes;
        self.traffic.write_bytes += write_back_bytes;
        self.traffic.accesses += 1;
        self.reserve(now_cycles, read_bytes + write_back_bytes)
    }

    /// Take `total_bytes` of link time from simulated time `now_cycles` on,
    /// bucket by bucket (see the module docs). The access's queueing delay
    /// is where its first byte lands minus `now_cycles`, capped at
    /// `max_queue_cycles`; an access that finds no budget in the whole ring
    /// waits the cap.
    fn reserve(&mut self, now_cycles: u64, total_bytes: u64) -> NodeAccess {
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
            let slot = &mut self.buckets[(bucket & mask) as usize];
            let used = if slot.0 == bucket + 1 {
                slot.1
            } else if slot.0 > bucket + 1 {
                // A later bucket holds the slot: this one is older than the
                // ring, and counts as served.
                BUCKET_MICRO
            } else {
                0
            };
            let take = need.min(BUCKET_MICRO - used);
            if take == 0 {
                continue;
            }
            *slot = (bucket + 1, used + take);
            first_byte.get_or_insert((bucket * BUCKET_MICRO + used).max(now_micro));
            need -= take;
        }
        let queue_cycles = first_byte
            .map_or(u64::MAX, |lands| (lands - now_micro) / FRAC)
            .min(self.max_queue_cycles);
        NodeAccess { latency_cycles: self.latency_cycles + queue_cycles, queue_cycles }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn remote() -> MemNodeConfig {
        MemNodeConfig { latency_cycles: 400, peak_bytes_per_cycle: 16.0, remote: true, ..cfg() }
    }

    #[test]
    fn idle_access_sees_base_latency() {
        let mut d = Link::new(cfg());
        let a = d.access(1_000_000, 64, 0);
        assert_eq!(a.queue_cycles, 0);
        assert_eq!(a.latency_cycles, 100);
    }

    #[test]
    fn back_to_back_accesses_queue() {
        let mut d = Link::new(cfg());
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
        let mut d = Link::new(cfg());
        for _ in 0..10_000 {
            let a = d.access(0, 64, 0);
            assert!(a.queue_cycles <= 1000);
        }
    }

    #[test]
    fn traffic_accumulates() {
        let mut d = Link::new(cfg());
        d.access(0, 64, 0);
        d.access(0, 64, 64);
        assert_eq!(d.traffic, NodeTraffic { read_bytes: 128, write_bytes: 64, accesses: 2 });
    }

    #[test]
    fn idle_gaps_drain_the_queue() {
        let mut d = Link::new(cfg());
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
        let mut d = Link::new(cfg());
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
        let mut d = Link::new(cfg());
        let worst = (0..1_000u64).rev().map(|t| d.access(t, 64, 0).queue_cycles).max();
        assert!(worst.unwrap() < BUCKET_CYCLES, "{worst:?}");
    }

    #[test]
    fn nodes_contend_independently() {
        let (mut local, mut far) = (Link::new(cfg()), Link::new(remote()));
        // Saturate the remote node; the local node stays idle.
        for _ in 0..1000 {
            far.access(0, 64, 0);
        }
        assert_eq!(local.access(0, 64, 0).queue_cycles, 0, "local node unaffected");
        assert!(far.access(0, 64, 0).queue_cycles > 0, "remote node is congested");
    }
}
