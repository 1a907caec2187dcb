//! Hardware-event counters.
//!
//! The paper's accuracy methodology (Section VII, Eq. 1) compares the number
//! of SPE samples multiplied by the sampling period against a `perf stat`
//! baseline counting the `mem_access` event. These counters are that
//! baseline and every other `perf stat` count a profile reports
//! (`ld_retired`, `st_retired`, `inst_retired`, `br_retired`), exact because
//! each core counts what it retires itself, whatever observes it; plus the
//! bus-traffic and floating-point counts used by the bandwidth /
//! arithmetic-intensity profiler.

/// Per-core event counters (owned by the core, merged on demand).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreCounters {
    /// Retired instructions (all kinds).
    pub instructions: u64,
    /// Retired memory operations (loads + stores) — the ARM `mem_access` event.
    pub mem_access: u64,
    /// Retired loads.
    pub loads: u64,
    /// Retired stores.
    pub stores: u64,
    /// Retired branches.
    pub branches: u64,
    /// Floating-point operations reported by the workload.
    pub flops: u64,
    /// L1d hits.
    pub l1_hits: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// SLC hits.
    pub slc_hits: u64,
    /// DRAM accesses.
    pub dram_accesses: u64,
    /// Bytes read from DRAM on behalf of this core.
    pub bus_read_bytes: u64,
    /// Bytes written back to DRAM on behalf of this core.
    pub bus_write_bytes: u64,
    /// Core cycles consumed (including profiling overhead charged by observers).
    pub cycles: u64,
    /// Cycles charged by observers (profiling overhead component).
    pub observer_cycles: u64,
}

impl CoreCounters {
    /// Add another counter set into this one.
    pub fn merge(&mut self, other: &CoreCounters) {
        self.instructions += other.instructions;
        self.mem_access += other.mem_access;
        self.loads += other.loads;
        self.stores += other.stores;
        self.branches += other.branches;
        self.flops += other.flops;
        self.l1_hits += other.l1_hits;
        self.l2_hits += other.l2_hits;
        self.slc_hits += other.slc_hits;
        self.dram_accesses += other.dram_accesses;
        self.bus_read_bytes += other.bus_read_bytes;
        self.bus_write_bytes += other.bus_write_bytes;
        self.cycles = self.cycles.max(other.cycles);
        self.observer_cycles += other.observer_cycles;
    }
}

/// Machine-wide counter snapshot (sum over cores; `cycles` is the maximum,
/// i.e. the simulated makespan).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineCounters {
    /// Retired instructions.
    pub instructions: u64,
    /// Retired memory operations (loads + stores).
    pub mem_access: u64,
    /// Retired loads.
    pub loads: u64,
    /// Retired stores.
    pub stores: u64,
    /// Retired branches.
    pub branches: u64,
    /// Floating-point operations.
    pub flops: u64,
    /// L1d hits.
    pub l1_hits: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// SLC hits.
    pub slc_hits: u64,
    /// DRAM accesses.
    pub dram_accesses: u64,
    /// Bytes read from DRAM.
    pub bus_read_bytes: u64,
    /// Bytes written to DRAM.
    pub bus_write_bytes: u64,
    /// Simulated makespan in cycles (max over cores).
    pub cycles: u64,
    /// Total cycles charged by observers (profiling overhead).
    pub observer_cycles: u64,
}

impl MachineCounters {
    /// Fold a per-core counter set into the machine-wide snapshot.
    pub fn absorb(&mut self, c: &CoreCounters) {
        self.instructions += c.instructions;
        self.mem_access += c.mem_access;
        self.loads += c.loads;
        self.stores += c.stores;
        self.branches += c.branches;
        self.flops += c.flops;
        self.l1_hits += c.l1_hits;
        self.l2_hits += c.l2_hits;
        self.slc_hits += c.slc_hits;
        self.dram_accesses += c.dram_accesses;
        self.bus_read_bytes += c.bus_read_bytes;
        self.bus_write_bytes += c.bus_write_bytes;
        self.cycles = self.cycles.max(c.cycles);
        self.observer_cycles += c.observer_cycles;
    }

    /// Total bus traffic in bytes.
    pub fn bus_bytes(&self) -> u64 {
        self.bus_read_bytes + self.bus_write_bytes
    }

    /// Arithmetic intensity in FLOP per byte of DRAM traffic (Roofline model);
    /// `None` when no DRAM traffic occurred.
    pub fn arithmetic_intensity(&self) -> Option<f64> {
        let bytes = self.bus_bytes();
        if bytes == 0 {
            None
        } else {
            Some(self.flops as f64 / bytes as f64)
        }
    }
}

/// Counters of the dynamic page-migration subsystem
/// ([`crate::Machine::migrate_page`]): how many pages moved between memory
/// tiers, in which direction, and what the moves cost. A *promotion* is a
/// move onto a local (non-remote) node, a *demotion* a move onto a remote
/// one; local↔local and remote↔remote moves count only in `migrations`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Total pages migrated.
    pub migrations: u64,
    /// Pages moved from a remote node onto a local one.
    pub promoted_pages: u64,
    /// Pages moved from a local node onto a remote one.
    pub demoted_pages: u64,
    /// Bytes carried by promotions.
    pub promoted_bytes: u64,
    /// Bytes carried by demotions.
    pub demoted_bytes: u64,
    /// Total bus bytes moved by migrations (one read + one write per page).
    pub bus_bytes: u64,
    /// Total cycles charged by the migration cost model (fixed software
    /// overhead plus the link transfer latencies of both nodes).
    pub charged_cycles: u64,
}

impl MigrationStats {
    /// Fold one migration into the counters.
    pub fn record(&mut self, bytes: u64, from_remote: bool, to_remote: bool, cycles: u64) {
        self.migrations += 1;
        self.bus_bytes += 2 * bytes;
        self.charged_cycles += cycles;
        if from_remote && !to_remote {
            self.promoted_pages += 1;
            self.promoted_bytes += bytes;
        } else if !from_remote && to_remote {
            self.demoted_pages += 1;
            self.demoted_bytes += bytes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migration_stats_classify_directions() {
        let mut s = MigrationStats::default();
        s.record(4096, true, false, 100); // promotion
        s.record(4096, false, true, 100); // demotion
        s.record(4096, true, true, 100); // lateral remote move
        assert_eq!(s.migrations, 3);
        assert_eq!(s.promoted_pages, 1);
        assert_eq!(s.demoted_pages, 1);
        assert_eq!(s.promoted_bytes, 4096);
        assert_eq!(s.demoted_bytes, 4096);
        assert_eq!(s.bus_bytes, 3 * 2 * 4096);
        assert_eq!(s.charged_cycles, 300);
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a =
            CoreCounters { mem_access: 10, loads: 6, stores: 4, cycles: 100, ..Default::default() };
        let b = CoreCounters { mem_access: 5, loads: 5, cycles: 200, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.mem_access, 15);
        assert_eq!(a.loads, 11);
        assert_eq!(a.stores, 4);
        assert_eq!(a.cycles, 200, "cycles merge as max (makespan)");
    }

    #[test]
    fn machine_absorb() {
        let mut m = MachineCounters::default();
        m.absorb(&CoreCounters {
            mem_access: 3,
            bus_read_bytes: 64,
            cycles: 10,
            flops: 7,
            ..Default::default()
        });
        m.absorb(&CoreCounters {
            mem_access: 4,
            bus_write_bytes: 64,
            cycles: 50,
            flops: 1,
            ..Default::default()
        });
        assert_eq!(m.mem_access, 7);
        assert_eq!(m.bus_bytes(), 128);
        assert_eq!(m.cycles, 50);
        let ai = m.arithmetic_intensity().unwrap();
        assert!((ai - 8.0 / 128.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_intensity_none_without_traffic() {
        let m = MachineCounters { flops: 100, ..Default::default() };
        assert!(m.arithmetic_intensity().is_none());
    }
}
