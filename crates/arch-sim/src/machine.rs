//! The simulated machine: cores, shared cache, the multi-node memory
//! topology, address space, and the temporal series (bandwidth, resident set
//! size) the NMO profiler consumes.

use parking_lot::Mutex;

use crate::cache::Cache;
use crate::clock::TimeConv;
use crate::config::{MachineConfig, MAX_MEM_NODES};
use crate::counters::{CoreCounters, MachineCounters, MigrationStats};
use crate::engine::Engine;
use crate::gang::Gang;
use crate::observer::{ObserverCharge, OpCounts, OpObserver, Quiet};
use crate::op::{NodeId, OpKind};
use crate::shared::SharedLevel;
use crate::topology::NodeTraffic;
use crate::vm::{PageMigration, Region};
use crate::{Result, SimError};

/// State owned by one simulated core. Checked out by an [`Engine`] while a
/// workload thread is running on the core, so the hot path needs no locks.
pub(crate) struct CoreState {
    /// Core id.
    pub id: usize,
    /// Private L1 data cache.
    pub l1: Cache,
    /// Private L2 cache.
    pub l2: Cache,
    /// Core clock in cycles (fractional cycles accumulate in f64).
    pub clock: f64,
    /// Event counters. `cycles` is the clock as of the last time somebody
    /// could read it: [`Machine::return_core`] and an observer's charge.
    pub counters: CoreCounters,
    /// Attached operation observer (the SPE unit when profiling is enabled).
    /// Reached through [`CoreState::call_observer`] only, which keeps `quiet`
    /// and `told` in step with it.
    observer: Option<Box<dyn OpObserver>>,
    /// What the observer last let the core retire unseen, counted down by
    /// the engine; [`Quiet::NEVER`] while no observer is attached.
    pub quiet: Quiet,
    /// How much of `counters` the observer has been shown or told of.
    told: OpCounts,
    /// Bus bytes per bandwidth bucket attributable to this core, split per
    /// memory node.
    pub bw_buckets: Vec<[u64; MAX_MEM_NODES]>,
    /// The clock past which the engine hands the gang's turn on (see
    /// [`crate::gang`]); infinite outside a gang.
    pub turn_end: f64,
}

impl std::fmt::Debug for CoreState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreState")
            .field("id", &self.id)
            .field("clock", &self.clock)
            .field("counters", &self.counters)
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

impl CoreState {
    fn new(id: usize, cfg: &MachineConfig) -> Self {
        CoreState {
            id,
            l1: Cache::new(&cfg.l1d),
            l2: Cache::new(&cfg.l2),
            clock: 0.0,
            counters: CoreCounters::default(),
            observer: None,
            quiet: Quiet::NEVER,
            told: OpCounts::default(),
            bw_buckets: Vec::new(),
            turn_end: f64::INFINITY,
        }
    }

    /// Hand the observer the counts of what retired since its last callback
    /// (`shown` is the operation the caller is about to show it, already in
    /// `counters`).
    fn deliver_skipped(&mut self, shown: Option<OpKind>) {
        let Some(obs) = self.observer.as_deref_mut() else { return };
        let retired = OpCounts::retired(&self.counters);
        let mut skipped = retired.since(&self.told);
        if let Some(kind) = shown {
            *skipped.of_mut(kind) -= 1;
        }
        self.told = retired;
        if skipped.total() > 0 {
            obs.on_skipped(&skipped);
        }
    }

    /// Run one observer callback the way every callback runs: the unseen
    /// counts first, then `call` with the core clock, then its cycles onto
    /// the clock and the observer's new [`Quiet`]. Returns whether there was
    /// an observer to call.
    pub fn call_observer(
        &mut self,
        shown: Option<OpKind>,
        call: impl FnOnce(&mut dyn OpObserver, u64) -> ObserverCharge,
    ) -> bool {
        self.deliver_skipped(shown);
        let Some(obs) = self.observer.as_deref_mut() else { return false };
        let charge = call(obs, self.clock as u64);
        self.quiet = obs.quiet();
        if charge.extra_cycles > 0 {
            self.clock += charge.extra_cycles as f64;
            self.counters.observer_cycles += charge.extra_cycles;
            self.counters.cycles = self.clock as u64;
        }
        true
    }

    fn take_observer(&mut self) -> Option<Box<dyn OpObserver>> {
        self.deliver_skipped(None);
        self.quiet = Quiet::NEVER;
        self.observer.take()
    }

    fn set_observer(&mut self, observer: Box<dyn OpObserver>) {
        self.take_observer();
        self.told = OpCounts::retired(&self.counters);
        self.quiet = observer.quiet();
        self.observer = Some(observer);
    }
}

/// One point of the memory-bandwidth-over-time series (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthPoint {
    /// Start of the bucket, in simulated nanoseconds.
    pub time_ns: u64,
    /// Bus bytes transferred during the bucket (all nodes).
    pub bytes: u64,
    /// Bus bytes transferred during the bucket, per memory node.
    pub by_node: [u64; MAX_MEM_NODES],
    /// Bandwidth in GiB/s over the bucket.
    pub gib_per_s: f64,
}

/// One point of the resident-set-size-over-time series (Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RssPoint {
    /// Simulated time of the event, nanoseconds.
    pub time_ns: u64,
    /// Resident set size after the event, bytes (all nodes).
    pub rss_bytes: u64,
    /// Resident set size after the event, per memory node.
    pub rss_by_node: [u64; MAX_MEM_NODES],
}

impl RssPoint {
    /// A point with the whole RSS on node 0 (single-node topologies and
    /// tests).
    pub fn flat(time_ns: u64, rss_bytes: u64) -> Self {
        let mut rss_by_node = [0u64; MAX_MEM_NODES];
        rss_by_node[0] = rss_bytes;
        RssPoint { time_ns, rss_bytes, rss_by_node }
    }
}

/// The simulated multi-core machine.
pub struct Machine {
    cfg: MachineConfig,
    timeconv: TimeConv,
    /// The SLC, the nodes' links, the page table and the RSS and migration
    /// records (see [`crate::shared`]).
    pub(crate) shared: Mutex<SharedLevel>,
    /// Per-core state; `None` while checked out by an engine.
    cores: Vec<Mutex<Option<CoreState>>>,
    /// The cores that take turns in simulated time.
    pub(crate) gang: Gang,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("name", &self.cfg.name)
            .field("num_cores", &self.cfg.num_cores)
            .field("mem_nodes", &self.cfg.mem.nodes.len())
            .finish()
    }
}

impl Machine {
    /// Build a machine from a (validated) configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid; use [`MachineConfig::validate`]
    /// first if the configuration is user-supplied.
    #[allow(clippy::expect_used, reason = "the documented `# Panics` contract")]
    pub fn new(cfg: MachineConfig) -> Self {
        cfg.validate().expect("invalid machine configuration");
        let timeconv =
            TimeConv { core_freq_hz: cfg.freq_hz, timer_freq_hz: 25_000_000, time_zero_ns: 0 };
        let shared = Mutex::named(SharedLevel::new(&cfg), "machine.shared");
        let cores = (0..cfg.num_cores)
            .map(|id| Mutex::named(Some(CoreState::new(id, &cfg)), "machine.core"))
            .collect();
        Machine { cfg, timeconv, shared, cores, gang: Gang::new() }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Time-base conversion helper for this machine.
    pub fn timeconv(&self) -> TimeConv {
        self.timeconv
    }

    /// Allocate a named region of the simulated address space.
    pub fn alloc(&self, name: &str, len: u64) -> Result<Region> {
        self.shared.lock().vm.alloc(name, len)
    }

    /// Free a named region, recording the RSS drop at simulated time
    /// `now_cycles` (use [`Engine::free`] from workload code so the timestamp
    /// comes from the issuing core's clock).
    pub fn free_at(&self, name: &str, now_cycles: u64) -> bool {
        let mut shared = self.shared.lock();
        let freed = shared.vm.free(name);
        if freed {
            shared.push_rss_event(&self.cfg, now_cycles);
        }
        freed
    }

    /// Migrate the resident page containing `addr` onto memory node `dst` at
    /// simulated time `now_cycles` — the actuator of profile-guided dynamic
    /// tiering. On success the page is re-homed (every later DRAM-class
    /// access to it is served by `dst`), a page's worth of traffic occupies
    /// both nodes' links, the configured fixed cost plus the transfer
    /// latency is recorded in [`MigrationStats`], and the RSS series gains a
    /// step event carrying the new per-node split.
    ///
    /// Returns `Ok(None)` (a no-op) when the page is not resident, lies
    /// outside every live region, or already lives on `dst`; `Err` when
    /// `dst` does not exist on this machine. Safe to call from any thread,
    /// including while workload engines are running on the cores.
    pub fn migrate_page(
        &self,
        addr: u64,
        dst: NodeId,
        now_cycles: u64,
    ) -> Result<Option<PageMigration>> {
        let nodes = self.cfg.mem.nodes.len();
        if (dst as usize) >= nodes {
            return Err(SimError::BadConfig(format!(
                "migrate_page: no memory node {dst} on '{}' ({nodes} nodes)",
                self.cfg.name
            )));
        }
        Ok(self.shared.lock().migrate_page(&self.cfg, addr, dst, now_cycles))
    }

    /// Snapshot of the page-migration counters.
    pub fn migration_stats(&self) -> MigrationStats {
        self.shared.lock().migrations
    }

    /// Make `cores` take turns in simulated time (see [`crate::gang`]): from
    /// now until its engine detaches, the engine of each one runs only while
    /// its core is the furthest behind, and [`Machine::attach`] blocks until
    /// then. Every core named here must be attached once, or the cores
    /// waiting for it wait for ever; a core that does not exist or is
    /// attached already is left out.
    pub fn gang_begin(&self, cores: &[usize]) {
        let clocks: Vec<(usize, u64)> = cores
            .iter()
            .filter_map(|&core| Some((core, self.cores.get(core)?.lock().as_ref()?.clock as u64)))
            .collect();
        self.gang.join(clocks);
    }

    /// Attach an engine to a core (checking the core state out of the
    /// machine). A core another engine holds is [`SimError::CoreBusy`] at
    /// once, and its gang is left as it is; a core of a gang then waits for
    /// its turn.
    pub fn attach(&self, core_id: usize) -> Result<Engine<'_>> {
        let slot = self.cores.get(core_id).ok_or(SimError::NoSuchCore(core_id))?;
        let mut state = slot.lock().take().ok_or(SimError::CoreBusy(core_id))?;
        state.turn_end = self.gang.wait_turn(core_id);
        Ok(Engine::new(self, state))
    }

    /// Take a core back from its engine: the join point at which what the
    /// core kept to itself — the clock as `counters.cycles`, its counters and
    /// bandwidth series — becomes readable, and at which the core leaves its
    /// gang.
    pub(crate) fn return_core(&self, mut state: CoreState) {
        state.counters.cycles = state.clock as u64;
        let id = state.id;
        *self.cores[id].lock() = Some(state);
        self.gang.leave(id);
    }

    /// Attach an operation observer (e.g. an SPE unit) to a core.
    ///
    /// Fails if the core is currently checked out by an engine.
    pub fn set_observer(&self, core_id: usize, observer: Box<dyn OpObserver>) -> Result<()> {
        let slot = self.cores.get(core_id).ok_or(SimError::NoSuchCore(core_id))?;
        let mut guard = slot.lock();
        match guard.as_mut() {
            Some(state) => {
                state.set_observer(observer);
                Ok(())
            }
            None => Err(SimError::CoreBusy(core_id)),
        }
    }

    /// Flush the observer attached to a core without detaching it: buffered
    /// profiling data is published immediately (see
    /// [`OpObserver::on_flush`]), with any flush cost charged to the core's
    /// clock. Returns `Ok(true)` if an observer was flushed, `Ok(false)` if
    /// the core has none, and `Err(CoreBusy)` while an engine holds the core
    /// (use [`Engine::flush_observer`](crate::Engine::flush_observer) from
    /// the owning thread instead).
    pub fn flush_observer(&self, core_id: usize) -> Result<bool> {
        let slot = self.cores.get(core_id).ok_or(SimError::NoSuchCore(core_id))?;
        let mut guard = slot.lock();
        match guard.as_mut() {
            Some(state) => Ok(state.call_observer(None, |obs, now| obs.on_flush(now))),
            None => Err(SimError::CoreBusy(core_id)),
        }
    }

    /// Remove and return the observer attached to a core, if any.
    pub fn take_observer(&self, core_id: usize) -> Result<Option<Box<dyn OpObserver>>> {
        let slot = self.cores.get(core_id).ok_or(SimError::NoSuchCore(core_id))?;
        let mut guard = slot.lock();
        match guard.as_mut() {
            Some(state) => Ok(state.take_observer()),
            None => Err(SimError::CoreBusy(core_id)),
        }
    }

    /// Snapshot of one core's counters (None if the core is checked out).
    pub fn core_counters(&self, core_id: usize) -> Option<CoreCounters> {
        self.cores.get(core_id)?.lock().as_ref().map(|s| s.counters)
    }

    /// Machine-wide counter snapshot (sums over all cores not currently
    /// checked out; call after workload threads have detached).
    pub fn counters(&self) -> MachineCounters {
        let mut m = MachineCounters::default();
        for slot in &self.cores {
            if let Some(state) = slot.lock().as_ref() {
                m.absorb(&state.counters);
            }
        }
        m
    }

    /// Simulated makespan in cycles (max core clock).
    pub fn makespan_cycles(&self) -> u64 {
        self.counters().cycles
    }

    /// Simulated makespan in nanoseconds.
    pub fn makespan_ns(&self) -> u64 {
        self.cfg.cycles_to_ns(self.makespan_cycles())
    }

    /// The memory-bandwidth-over-time series (Figure 3), aggregated over all
    /// cores, one point per `bandwidth_bucket_cycles`-wide bucket, with the
    /// per-node traffic split preserved in [`BandwidthPoint::by_node`].
    pub fn bandwidth_series(&self) -> Vec<BandwidthPoint> {
        let mut buckets: Vec<[u64; MAX_MEM_NODES]> = Vec::new();
        for slot in &self.cores {
            if let Some(state) = slot.lock().as_ref() {
                if state.bw_buckets.len() > buckets.len() {
                    buckets.resize(state.bw_buckets.len(), [0; MAX_MEM_NODES]);
                }
                for (i, by_node) in state.bw_buckets.iter().enumerate() {
                    for (node, b) in by_node.iter().enumerate() {
                        buckets[i][node] += *b;
                    }
                }
            }
        }
        let bucket_cycles = self.cfg.bandwidth_bucket_cycles;
        let bucket_ns = self.cfg.cycles_to_ns(bucket_cycles).max(1);
        buckets
            .iter()
            .enumerate()
            .map(|(i, by_node)| {
                let bytes: u64 = by_node.iter().sum();
                BandwidthPoint {
                    time_ns: i as u64 * bucket_ns,
                    bytes,
                    by_node: *by_node,
                    gib_per_s: bytes as f64 / (1u64 << 30) as f64 / (bucket_ns as f64 * 1e-9),
                }
            })
            .collect()
    }

    /// The resident-set-size-over-time series (Figure 2): one step event per
    /// page first-touch or region free, with the per-node residency split in
    /// [`RssPoint::rss_by_node`].
    pub fn rss_series(&self) -> Vec<RssPoint> {
        self.shared.lock().rss_events.clone()
    }

    /// The RSS step events from index `from` onward — the incremental read
    /// for streaming consumers, which copies only the new suffix instead of
    /// cloning the whole series on every poll.
    pub fn rss_events_since(&self, from: usize) -> Vec<RssPoint> {
        let shared = self.shared.lock();
        shared.rss_events.get(from..).map(<[RssPoint]>::to_vec).unwrap_or_default()
    }

    /// Current resident set size in bytes.
    pub fn rss_bytes(&self) -> u64 {
        self.shared.lock().vm.rss_bytes()
    }

    /// Current resident set size per memory node, bytes.
    pub fn rss_bytes_by_node(&self) -> [u64; MAX_MEM_NODES] {
        self.shared.lock().vm.rss_bytes_by_node()
    }

    /// The home node of `addr`'s page, if the page is resident.
    pub fn node_of(&self, addr: u64) -> Option<NodeId> {
        self.shared.lock().vm.node_of(addr)
    }

    /// The live regions of the simulated address space.
    pub fn regions(&self) -> Vec<Region> {
        self.shared.lock().vm.regions()
    }

    /// The traffic each memory node has served, indexed by [`NodeId`]:
    /// every line fill and write-back as it happens, and both sides of every
    /// page migration.
    pub fn node_traffic(&self) -> Vec<NodeTraffic> {
        self.shared.lock().links.iter().map(|link| link.traffic).collect()
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cfg.num_cores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlacementPolicy;
    use crate::observer::CountingObserver;

    #[test]
    fn attach_and_detach_cores() {
        let m = Machine::new(MachineConfig::small_test());
        let e0 = m.attach(0).unwrap();
        assert!(matches!(m.attach(0), Err(SimError::CoreBusy(0))));
        assert!(matches!(m.attach(99), Err(SimError::NoSuchCore(99))));
        drop(e0);
        // After drop the core is back.
        let _e0 = m.attach(0).unwrap();
    }

    #[test]
    fn observer_attachment_lifecycle() {
        let m = Machine::new(MachineConfig::small_test());
        m.set_observer(1, Box::new(CountingObserver::default())).unwrap();
        assert!(m.take_observer(1).unwrap().is_some());
        assert!(m.take_observer(1).unwrap().is_none());
        assert!(m.set_observer(42, Box::new(CountingObserver::default())).is_err());
    }

    #[test]
    fn flush_observer_reaches_attached_observer() {
        let m = Machine::new(MachineConfig::small_test());
        assert!(!m.flush_observer(0).unwrap(), "no observer installed yet");
        m.set_observer(0, Box::new(CountingObserver::default())).unwrap();
        assert!(m.flush_observer(0).unwrap());
        let obs = m.take_observer(0).unwrap().unwrap();
        // Downcast-free check: reinstall and flush again, then inspect via
        // the engine path.
        m.set_observer(0, obs).unwrap();
        let mut e = m.attach(0).unwrap();
        e.flush_observer();
        assert!(matches!(m.flush_observer(0), Err(SimError::CoreBusy(0))));
        drop(e);
        assert!(matches!(m.flush_observer(99), Err(SimError::NoSuchCore(99))));
    }

    #[test]
    fn cannot_set_observer_while_checked_out() {
        let m = Machine::new(MachineConfig::small_test());
        let _e = m.attach(2).unwrap();
        assert!(matches!(
            m.set_observer(2, Box::new(CountingObserver::default())),
            Err(SimError::CoreBusy(2))
        ));
    }

    #[test]
    fn counters_initially_zero() {
        let m = Machine::new(MachineConfig::small_test());
        let c = m.counters();
        assert_eq!(c.mem_access, 0);
        assert_eq!(c.cycles, 0);
        assert!(m.bandwidth_series().is_empty());
        assert!(m.rss_series().is_empty());
    }

    #[test]
    fn rss_events_since_reads_only_the_new_suffix() {
        let m = Machine::new(MachineConfig::small_test());
        let page = m.config().page_bytes;
        let region = m.alloc("data", 4 * page).unwrap();
        {
            let mut e = m.attach(0).unwrap();
            e.store(region.start, 8);
            e.store(region.start + page, 8);
        }
        let first = m.rss_events_since(0);
        assert_eq!(first.len(), 2);
        assert_eq!(first, m.rss_series());
        {
            let mut e = m.attach(0).unwrap();
            e.store(region.start + 2 * page, 8);
        }
        let fresh = m.rss_events_since(first.len());
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].rss_bytes, 3 * page);
        assert_eq!(fresh[0].rss_by_node[0], 3 * page, "single-node machine homes on node 0");
        assert!(m.rss_events_since(99).is_empty(), "past-the-end cursor yields nothing");
    }

    #[test]
    fn tiered_machine_splits_rss_events_per_node() {
        let m = Machine::new(MachineConfig::small_test_tiered(PlacementPolicy::Interleave));
        let page = m.config().page_bytes;
        let region = m.alloc("data", 4 * page).unwrap();
        {
            let mut e = m.attach(0).unwrap();
            for p in 0..4u64 {
                e.store(region.start + p * page, 8);
            }
        }
        let series = m.rss_series();
        let last = series.last().unwrap();
        assert_eq!(last.rss_bytes, 4 * page);
        assert_eq!(last.rss_by_node[0], 2 * page);
        assert_eq!(last.rss_by_node[1], 2 * page);
        assert_eq!(last.rss_by_node.iter().sum::<u64>(), last.rss_bytes);
    }

    #[test]
    fn migrate_page_rehomes_charges_and_records() {
        let m = Machine::new(MachineConfig::small_test_tiered(PlacementPolicy::TierSplit {
            local_fraction: 0.0,
        }));
        let page = m.config().page_bytes;
        let region = m.alloc("data", 2 * page).unwrap();
        {
            let mut e = m.attach(0).unwrap();
            e.store(region.start, 8);
            e.store(region.start + page, 8);
        }
        assert_eq!(m.rss_bytes_by_node()[1], 2 * page, "TierSplit(0) homes remotely");
        let before = m.node_traffic();

        let mig = m.migrate_page(region.start, 0, 1_000).unwrap().expect("page migrates");
        assert_eq!((mig.from, mig.to), (1, 0));
        assert_eq!(m.node_of(region.start), Some(0));
        let stats = m.migration_stats();
        assert_eq!(stats.migrations, 1);
        assert_eq!(stats.promoted_pages, 1);
        assert_eq!(stats.promoted_bytes, page);
        assert_eq!(stats.demoted_pages, 0);
        assert_eq!(stats.bus_bytes, 2 * page);
        assert!(
            stats.charged_cycles >= m.config().mem.migration.fixed_cycles_per_page,
            "{stats:?}"
        );
        // The transfer read the page from the source link and wrote it on
        // the destination link.
        let after = m.node_traffic();
        assert_eq!(after[1].read_bytes, before[1].read_bytes + page);
        assert_eq!(after[0].write_bytes, before[0].write_bytes + page);
        assert_eq!(
            (after[0].accesses, after[1].accesses),
            (before[0].accesses + 1, before[1].accesses + 1)
        );
        // The RSS series recorded the re-homing as a step event.
        let last = *m.rss_series().last().unwrap();
        assert_eq!(last.rss_bytes, 2 * page, "total residency unchanged");
        assert_eq!(last.rss_by_node[0], page);
        assert_eq!(last.rss_by_node[1], page);

        // Demotion direction.
        m.migrate_page(region.start, 1, 2_000).unwrap().expect("demotes");
        let stats = m.migration_stats();
        assert_eq!(stats.demoted_pages, 1);
        assert_eq!(stats.demoted_bytes, page);

        // No-ops and errors.
        assert!(m.migrate_page(region.start, 1, 3_000).unwrap().is_none(), "already home");
        assert!(m.migrate_page(0xdead_0000, 0, 3_000).unwrap().is_none(), "outside regions");
        assert!(matches!(m.migrate_page(region.start, 9, 3_000), Err(SimError::BadConfig(_))));
        assert_eq!(m.migration_stats().migrations, 2, "no-ops never count");
    }

    /// A migration's transfer lasts at least the slower link's idle
    /// latency, and a storm of migrations queues the demand traffic that
    /// follows on both links it used.
    #[test]
    fn migrations_take_link_time_from_demand_traffic() {
        let m = Machine::new(MachineConfig::small_test_tiered(PlacementPolicy::TierSplit {
            local_fraction: 0.0,
        }));
        let cfg = m.config();
        let (page, line) = (cfg.page_bytes, cfg.slc.line_bytes as u64);
        let region = m.alloc("data", 2 * page).unwrap();
        {
            let mut e = m.attach(0).unwrap();
            e.store(region.start, 8);
            e.store(region.start + page, 8);
        }
        let (local, remote) = (cfg.mem.nodes[0], cfg.mem.nodes[1]);
        assert!(remote.latency_cycles > local.latency_cycles);
        let now = 10_000;
        m.migrate_page(region.start, 0, now).unwrap().expect("promotes");
        let charged = m.migration_stats().charged_cycles;
        assert!(
            charged >= cfg.mem.migration.fixed_cycles_per_page + remote.latency_cycles,
            "bounded below by the slower (remote) link: {charged}"
        );
        for i in 0..200 {
            let dst = if i % 2 == 0 { 1 } else { 0 };
            m.migrate_page(region.start, dst, now).unwrap().expect("moves");
        }
        // Lines no access has brought into the SLC: one on each node.
        let mut shared = m.shared.lock();
        let on_local = shared.access(cfg, region.start + 8 * line, false, false, now);
        let on_remote = shared.access(cfg, region.start + page + 8 * line, false, false, now);
        assert_eq!(on_local.source, crate::op::DataSource::Dram(0));
        assert_eq!(on_remote.source, crate::op::DataSource::RemoteDram(1));
        assert!(on_local.latency_cycles > local.latency_cycles, "{on_local:?}");
        assert!(on_remote.latency_cycles > remote.latency_cycles, "{on_remote:?}");
    }

    #[test]
    fn migrated_page_is_served_by_its_new_node() {
        let m = Machine::new(MachineConfig::small_test_tiered(PlacementPolicy::TierSplit {
            local_fraction: 0.0,
        }));
        let (page, line) = (m.config().page_bytes, m.config().slc.line_bytes as u64);
        let region = m.alloc("data", page).unwrap();
        {
            let mut e = m.attach(0).unwrap();
            e.store(region.start, 8);
        }
        m.migrate_page(region.start, 0, 1_000).unwrap().expect("promotes");
        // A line of the page no cache holds yet, so the load goes to memory.
        let mut e = m.attach(0).unwrap();
        let out = e.load(region.start + 8 * line, 8);
        assert_eq!(out.source, crate::op::DataSource::Dram(0), "served locally after promotion");
    }

    /// A machine costs what its running cores and its SLC, once touched,
    /// cost: no tag array exists until a core attaches *and* accesses memory.
    #[test]
    fn caches_are_allocated_by_their_first_access() {
        let m = Machine::new(MachineConfig::ampere_altra_max());
        let allocated = |m: &Machine| {
            let cores = m.cores.iter().filter(|slot| {
                let slot = slot.lock();
                let core = slot.as_ref().expect("no engine attached");
                core.l1.is_allocated() || core.l2.is_allocated()
            });
            (cores.count(), m.shared.lock().slc.is_allocated())
        };
        assert_eq!(allocated(&m), (0, false));
        drop(m.attach(5).unwrap());
        assert_eq!(allocated(&m), (0, false), "attaching touches no tag array");

        let region = m.alloc("data", 1 << 16).unwrap();
        m.attach(5).unwrap().load(region.start, 8);
        assert_eq!(allocated(&m), (1, true), "one core's L1 + L2 and the SLC it missed to");
        let core = m.cores[5].lock();
        let core = core.as_ref().unwrap();
        assert!(core.l1.is_allocated() && core.l2.is_allocated());
    }

    /// The SLC holds what its configuration says: a working set of three
    /// quarters of `slc.size_bytes`, past the L1 and the L2, misses to
    /// memory once per line and then hits the SLC on every line.
    #[test]
    fn the_slc_holds_its_configured_size() {
        let mut cfg = MachineConfig::small_test();
        cfg.l2.size_bytes = 8 << 10;
        let (bytes, line) = (cfg.slc.size_bytes / 4 * 3, cfg.slc.line_bytes as u64);
        assert!(
            bytes > cfg.l2.size_bytes + cfg.l1d.size_bytes,
            "the set passes the private caches"
        );
        let m = Machine::new(cfg);
        let region = m.alloc("data", bytes).unwrap();
        let mut e = m.attach(0).unwrap();
        for _ in 0..2 {
            for at in (0..bytes).step_by(line as usize) {
                e.load(region.start + at, 8);
            }
        }
        drop(e);
        let (c, lines) = (m.counters(), bytes / line);
        assert_eq!((c.dram_accesses, c.slc_hits), (lines, lines));
    }
}
