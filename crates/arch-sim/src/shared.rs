//! The machine's shared level: everything past the cores' private caches.
//!
//! One value holds it all — the SLC, every memory node's link, the page
//! table with its page-home memo, and the RSS and migration records — and
//! the machine keeps it behind one lock, `machine.shared`. An access that
//! misses the L2 takes that lock once and does its whole walk past the L2
//! under it (see [`crate::engine`]); `alloc`, `free`, `migrate_page` and
//! the readers of the records take it once each. The cores of a gang take
//! turns anyway ([`crate::gang`]), so the lock only orders what runs beside
//! a gang: engines attached outside one, and `alloc`, `free` or
//! `migrate_page` called from a thread outside it.

use crate::cache::Cache;
use crate::config::MachineConfig;
use crate::counters::MigrationStats;
use crate::machine::RssPoint;
use crate::op::{DataSource, MemOutcome, NodeId};
use crate::topology::Link;
use crate::vm::{AddressSpace, PageMigration};

/// Everything the cores share (see the module docs).
#[derive(Debug)]
pub(crate) struct SharedLevel {
    /// The SLC, split into `slc_shards` shards; a line lives in shard
    /// [`slc_shard`].
    pub slc: Vec<Cache>,
    /// Each memory node's link, indexed by [`NodeId`].
    pub links: Vec<Link>,
    /// The page table, and the page-home memo inside it.
    pub vm: AddressSpace,
    /// Step events of the RSS-over-time series.
    pub rss_events: Vec<RssPoint>,
    /// Counters of the page-migration subsystem.
    pub migrations: MigrationStats,
}

/// The SLC shard a line maps to: the low bits of its line index.
pub(crate) fn slc_shard(cfg: &MachineConfig, vaddr: u64) -> usize {
    let line = vaddr >> cfg.slc.line_bytes.trailing_zeros();
    (line as usize) & (cfg.slc_shards - 1)
}

impl SharedLevel {
    pub(crate) fn new(cfg: &MachineConfig) -> Self {
        SharedLevel {
            slc: (0..cfg.slc_shards).map(|_| Cache::new_shard(&cfg.slc, cfg.slc_shards)).collect(),
            links: cfg.mem.nodes.iter().map(|node| Link::new(*node)).collect(),
            vm: AddressSpace::with_placement(cfg.page_bytes, cfg.mem_nodes(), cfg.mem.placement),
            rss_events: Vec::new(),
            migrations: MigrationStats::default(),
        }
    }

    /// An access that missed the L2, at simulated time `now`: the SLC, and
    /// on a miss there the page's home (first-touching it), the serving
    /// node's link and the RSS event of a first touch. `dirty_above` says
    /// whether the L1 or the L2 evicted a dirty line on the way; its
    /// write-back, or the SLC's, goes to the same node as the fill (the
    /// model does not track the evicted line's home). Inlined into its one
    /// caller, `past_l1`.
    #[inline]
    pub(crate) fn access(
        &mut self,
        cfg: &MachineConfig,
        vaddr: u64,
        is_store: bool,
        dirty_above: bool,
        now: u64,
    ) -> MemOutcome {
        let slc = self.slc[slc_shard(cfg, vaddr)].access(vaddr, is_store);
        if slc.hit {
            return MemOutcome::hit(
                DataSource::Slc,
                cfg.slc.latency_cycles,
                cfg.slc.occupancy_cycles,
            );
        }
        let line = cfg.l1d.line_bytes;
        let wb = if dirty_above || slc.dirty_eviction { line } else { 0 };
        let (node, first_touch) =
            self.vm.place(vaddr).map_or((0, false), |h| (h.node, h.first_touch));
        let acc = self.links[node as usize].access(now, line as u64, wb as u64);
        if first_touch {
            self.push_rss_event(cfg, now);
        }
        let node_cfg = &cfg.mem.nodes[node as usize];
        MemOutcome {
            source: if node_cfg.remote {
                DataSource::RemoteDram(node)
            } else {
                DataSource::Dram(node)
            },
            latency_cycles: acc.latency_cycles,
            occupancy_cycles: node_cfg.occupancy_cycles + acc.queue_cycles,
            bus_bytes: line + wb,
            first_touch,
        }
    }

    /// Record the resident set as it stands, at simulated time `now`.
    pub(crate) fn push_rss_event(&mut self, cfg: &MachineConfig, now: u64) {
        self.rss_events.push(RssPoint {
            time_ns: cfg.cycles_to_ns(now),
            rss_bytes: self.vm.rss_bytes(),
            rss_by_node: self.vm.rss_bytes_by_node(),
        });
    }

    /// Move `addr`'s page to node `dst` at simulated time `now` (see
    /// [`crate::Machine::migrate_page`]; `dst` exists).
    pub(crate) fn migrate_page(
        &mut self,
        cfg: &MachineConfig,
        addr: u64,
        dst: NodeId,
        now: u64,
    ) -> Option<PageMigration> {
        let migration = self.vm.migrate_page(addr, dst)?;
        let (from, to) = (migration.from as usize, migration.to as usize);
        // The source link serves a read and the destination a write, both
        // taking link time, so a migration storm queues later demand traffic
        // like any other bandwidth consumer; the transfer takes as long as
        // the slower of the two.
        let read = self.links[from].access(now, migration.bytes, 0);
        let write = self.links[to].access(now, 0, migration.bytes);
        let transfer = read.latency_cycles.max(write.latency_cycles);
        self.migrations.record(
            migration.bytes,
            cfg.mem.nodes[from].remote,
            cfg.mem.nodes[to].remote,
            cfg.mem.migration.fixed_cycles_per_page + transfer,
        );
        self.push_rss_event(cfg, now);
        Some(migration)
    }
}
