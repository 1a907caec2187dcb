//! Machine configuration: cache geometry, memory topology, cost model,
//! platform presets.
//!
//! The default preset, [`MachineConfig::ampere_altra_max`], mirrors Table II of
//! the paper: an Ampere Altra Max with 128 Armv8.2+ cores at 3.0 GHz, 64 KiB
//! L1d and 1 MiB L2 per core, a system-level cache, 256 GiB of DDR4 at a
//! 200 GB/s peak, and 64 KiB pages. Table II lists a 16 MiB system-level
//! cache; the model has held 1 MiB of it, and the preset says so until
//! ROADMAP item 4 restores the 16 MiB.
//!
//! The memory system is a [`MemTopologyConfig`]: an ordered list of
//! [`MemNodeConfig`]s (node 0 is the local DDR; further nodes model
//! CXL-style remote memory with higher idle latency and lower peak
//! bandwidth) plus a [`PlacementPolicy`] that decides which node each
//! virtual page is homed on at first touch — the knob behind the paper's
//! tiered-memory (DDR vs. CXL-emulated NUMA) experiments.

use crate::{Result, SimError};

/// Maximum number of memory nodes a machine may have. Fixed-size per-node
/// arrays of this length ride on the bandwidth/RSS series points so they
/// stay `Copy`; the SPE data-source encoding itself supports 16 nodes.
pub const MAX_MEM_NODES: usize = 4;

/// Geometry and timing of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLevelConfig {
    /// Total capacity in bytes. Must be a multiple of `line_bytes * ways`.
    pub size_bytes: u64,
    /// Cache line size in bytes (64 on all modern ARM servers).
    pub line_bytes: u32,
    /// Associativity (number of ways per set), 1 to 16: a cache lists a
    /// set's ways by recency in one `u64`, a 4-bit way index each.
    pub ways: u32,
    /// Load-to-use latency in core cycles when this level hits.
    pub latency_cycles: u64,
    /// Cycles charged to the issuing core per access that *hits* this level.
    ///
    /// This is an effective occupancy (latency divided by the memory-level
    /// parallelism the core can extract), not the raw latency: out-of-order
    /// cores overlap most of a hit's latency with other work.
    pub occupancy_cycles: u64,
}

impl CacheLevelConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes as u64 * self.ways as u64)
    }

    /// Validate that the geometry is consistent and power-of-two sized.
    pub fn validate(&self, name: &str) -> Result<()> {
        // A cache way is `line << 2 | flags` in one word: the line index of
        // any `u64` address must leave the two top bits free.
        if self.line_bytes < 4 || !self.line_bytes.is_power_of_two() {
            return Err(SimError::BadConfig(format!(
                "{name}: line_bytes must be a power of two, at least 4"
            )));
        }
        if self.ways == 0 {
            return Err(SimError::BadConfig(format!("{name}: ways must be non-zero")));
        }
        if self.ways > 16 {
            return Err(SimError::BadConfig(format!(
                "{name}: ways must be at most 16, not {}",
                self.ways
            )));
        }
        let denom = self.line_bytes as u64 * self.ways as u64;
        if self.size_bytes == 0 || !self.size_bytes.is_multiple_of(denom) {
            return Err(SimError::BadConfig(format!(
                "{name}: size_bytes must be a non-zero multiple of line_bytes * ways"
            )));
        }
        if !self.sets().is_power_of_two() {
            return Err(SimError::BadConfig(format!(
                "{name}: number of sets ({}) must be a power of two",
                self.sets()
            )));
        }
        Ok(())
    }
}

/// Latency/bandwidth model parameters of one memory node (a DDR channel
/// group, or a CXL-attached expander).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemNodeConfig {
    /// Idle (unloaded) access latency in core cycles.
    pub latency_cycles: u64,
    /// Peak sustainable bandwidth of the node in bytes per core cycle
    /// (shared by all cores). 200 GB/s at 3.0 GHz is ~66.7 B/cycle.
    pub peak_bytes_per_cycle: f64,
    /// Cycles charged to the issuing core per access when the node is idle.
    pub occupancy_cycles: u64,
    /// Maximum queueing delay (cycles) added when the node is saturated.
    pub max_queue_cycles: u64,
    /// Node capacity in bytes.
    pub capacity_bytes: u64,
    /// Whether the node sits behind a remote (CXL-style) link. Accesses
    /// served here report [`crate::op::DataSource::RemoteDram`] instead of
    /// [`crate::op::DataSource::Dram`].
    pub remote: bool,
}

impl MemNodeConfig {
    /// Validate the node parameters.
    pub fn validate(&self, name: &str) -> Result<()> {
        // NaN compares false with everything: name it, or it passes.
        if self.peak_bytes_per_cycle.is_nan() || self.peak_bytes_per_cycle <= 0.0 {
            return Err(SimError::BadConfig(format!(
                "{name}: peak_bytes_per_cycle must be positive"
            )));
        }
        if self.capacity_bytes == 0 {
            return Err(SimError::BadConfig(format!("{name}: capacity_bytes must be non-zero")));
        }
        Ok(())
    }
}

/// Cost model of one [`crate::Machine::migrate_page`] call: moving a page
/// between nodes occupies both nodes' links for a page's worth of traffic
/// (that part falls out of the [`MemNodeConfig`] bandwidth model) plus this
/// fixed software overhead per page (unmap, copy setup, TLB shootdown — the
/// `move_pages(2)` bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationCostConfig {
    /// Fixed cycles charged per migrated page on top of the link transfer
    /// latencies, recorded in [`crate::MigrationStats::charged_cycles`].
    pub fixed_cycles_per_page: u64,
}

impl Default for MigrationCostConfig {
    fn default() -> Self {
        // ~2 µs at 3 GHz: the order of a move_pages() call per 64 KiB page.
        MigrationCostConfig { fixed_cycles_per_page: 6_000 }
    }
}

/// Where the virtual-memory system homes each page at first touch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PlacementPolicy {
    /// Every page is homed on node 0 (the local DDR). Default.
    #[default]
    LocalOnly,
    /// Pages are striped round-robin across all nodes in first-touch order.
    Interleave,
    /// A `local_fraction` share of pages (in first-touch order) is homed on
    /// node 0; the remainder is spread round-robin over the remote nodes —
    /// the paper's DDR-vs-CXL capacity-split scenario.
    TierSplit {
        /// Fraction of pages homed locally, clamped to `[0, 1]`.
        local_fraction: f64,
    },
}

/// The machine's memory system: an ordered list of nodes (node 0 = local
/// DDR) plus the page-placement policy.
#[derive(Debug, Clone, PartialEq)]
pub struct MemTopologyConfig {
    /// The memory nodes, indexed by [`crate::op::NodeId`]. Node 0 must be
    /// local (not `remote`).
    pub nodes: Vec<MemNodeConfig>,
    /// First-touch page-placement policy.
    pub placement: PlacementPolicy,
    /// Cost model for dynamic page migration between the nodes.
    pub migration: MigrationCostConfig,
}

impl MemTopologyConfig {
    /// A single-node (flat DRAM) topology.
    pub fn single(node: MemNodeConfig) -> Self {
        MemTopologyConfig {
            nodes: vec![node],
            placement: PlacementPolicy::LocalOnly,
            migration: MigrationCostConfig::default(),
        }
    }

    /// A two-tier topology: local DDR plus one remote node, with the given
    /// placement policy.
    pub fn tiered(local: MemNodeConfig, remote: MemNodeConfig, placement: PlacementPolicy) -> Self {
        MemTopologyConfig {
            nodes: vec![local, MemNodeConfig { remote: true, ..remote }],
            placement,
            migration: MigrationCostConfig::default(),
        }
    }

    /// Total capacity across all nodes, bytes.
    pub fn total_capacity_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.capacity_bytes).sum()
    }

    /// Validate node count, node parameters, and tier ordering.
    pub fn validate(&self) -> Result<()> {
        if self.nodes.is_empty() {
            return Err(SimError::BadConfig("memory topology needs at least one node".into()));
        }
        if self.nodes.len() > MAX_MEM_NODES {
            return Err(SimError::BadConfig(format!(
                "memory topology supports at most {MAX_MEM_NODES} nodes, got {}",
                self.nodes.len()
            )));
        }
        if self.nodes[0].remote {
            return Err(SimError::BadConfig("memory node 0 must be the local tier".into()));
        }
        for (i, node) in self.nodes.iter().enumerate() {
            node.validate(&format!("mem node {i}"))?;
        }
        if let PlacementPolicy::TierSplit { local_fraction } = self.placement {
            if !local_fraction.is_finite() {
                return Err(SimError::BadConfig("TierSplit local_fraction must be finite".into()));
            }
            if self.nodes.len() < 2 {
                return Err(SimError::BadConfig(
                    "TierSplit placement needs at least one remote node".into(),
                ));
            }
        }
        Ok(())
    }
}

/// Cost model for non-memory work and profiling-induced overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cycles per non-memory instruction (inverse IPC of the scalar pipeline).
    pub cycles_per_cpu_op: f64,
    /// Cycles per floating-point operation (fused into the pipeline; small).
    pub cycles_per_flop: f64,
}

/// Complete description of the simulated platform.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Human-readable platform name.
    pub name: String,
    /// Number of cores.
    pub num_cores: usize,
    /// Core clock frequency in Hz.
    pub freq_hz: u64,
    /// Virtual-memory page size in bytes (64 KiB on the paper's testbed).
    pub page_bytes: u64,
    /// Private L1 data cache.
    pub l1d: CacheLevelConfig,
    /// Private unified L2 cache.
    pub l2: CacheLevelConfig,
    /// Shared system-level cache (SLC).
    pub slc: CacheLevelConfig,
    /// Memory topology: the nodes behind the SLC and the page-placement
    /// policy homing pages on them.
    pub mem: MemTopologyConfig,
    /// Non-memory cost model.
    pub cost: CostModel,
    /// Width of one bandwidth-accounting bucket in core cycles.
    ///
    /// The machine aggregates bus traffic into buckets of this width; the NMO
    /// bandwidth profiler turns them into a GiB/s-over-time series.
    pub bandwidth_bucket_cycles: u64,
}

impl MachineConfig {
    /// Platform preset matching Table II of the paper (Ampere Altra Max).
    ///
    /// One exception: Table II lists a 16 MiB SLC, and this preset's SLC is
    /// 1 MiB, the capacity the model has held all along (ROADMAP item 4
    /// restores the 16 MiB).
    ///
    /// The core count defaults to 128 but most experiments only attach a
    /// subset of cores; allocating 128 private cache models is cheap.
    pub fn ampere_altra_max() -> Self {
        let freq_hz = 3_000_000_000;
        MachineConfig {
            name: "Ampere Altra Max 64-Bit (Neoverse V1-class, simulated)".to_string(),
            num_cores: 128,
            freq_hz,
            page_bytes: 64 * 1024,
            l1d: CacheLevelConfig {
                size_bytes: 64 * 1024,
                line_bytes: 64,
                ways: 4,
                latency_cycles: 4,
                occupancy_cycles: 1,
            },
            l2: CacheLevelConfig {
                size_bytes: 1024 * 1024,
                line_bytes: 64,
                ways: 8,
                latency_cycles: 13,
                occupancy_cycles: 3,
            },
            slc: CacheLevelConfig {
                size_bytes: 1024 * 1024,
                line_bytes: 64,
                ways: 16,
                latency_cycles: 45,
                occupancy_cycles: 8,
            },
            mem: MemTopologyConfig::single(MemNodeConfig {
                latency_cycles: 330,
                // 200 GB/s at 3.0 GHz.
                peak_bytes_per_cycle: 200.0e9 / freq_hz as f64,
                occupancy_cycles: 18,
                max_queue_cycles: 2_000,
                capacity_bytes: 256 * 1024 * 1024 * 1024,
                remote: false,
            }),
            cost: CostModel { cycles_per_cpu_op: 0.4, cycles_per_flop: 0.3 },
            // 1 ms of simulated time per bucket at 3 GHz.
            bandwidth_bucket_cycles: 3_000_000,
        }
    }

    /// The Table II platform extended with a CXL-style remote memory node
    /// (the paper's CXL-emulated NUMA testbed): ~3x the idle latency and a
    /// quarter of the local peak bandwidth, homed by `placement`.
    pub fn ampere_altra_max_tiered(placement: PlacementPolicy) -> Self {
        let base = Self::ampere_altra_max();
        let local = base.mem.nodes[0];
        let remote = MemNodeConfig {
            latency_cycles: local.latency_cycles * 3,
            peak_bytes_per_cycle: local.peak_bytes_per_cycle / 4.0,
            occupancy_cycles: local.occupancy_cycles * 2,
            max_queue_cycles: local.max_queue_cycles * 2,
            capacity_bytes: 128 * 1024 * 1024 * 1024,
            remote: true,
        };
        MachineConfig {
            name: format!("{} + CXL-style remote node", base.name),
            mem: MemTopologyConfig::tiered(local, remote, placement),
            ..base
        }
    }

    /// A tiny machine for unit tests: 4 cores, small caches, 4 KiB pages.
    ///
    /// Using a small configuration keeps tests fast and makes cache-eviction
    /// behaviour easy to trigger deterministically. Its SLC is 32 KiB, the
    /// capacity the model has held; ROADMAP item 4 restores the 128 KiB it
    /// was declared with, as it restores Table II's 16 MiB on
    /// [`MachineConfig::ampere_altra_max`].
    pub fn small_test() -> Self {
        let freq_hz = 1_000_000_000;
        MachineConfig {
            name: "small-test".to_string(),
            num_cores: 4,
            freq_hz,
            page_bytes: 4096,
            l1d: CacheLevelConfig {
                size_bytes: 4 * 1024,
                line_bytes: 64,
                ways: 2,
                latency_cycles: 2,
                occupancy_cycles: 1,
            },
            l2: CacheLevelConfig {
                size_bytes: 32 * 1024,
                line_bytes: 64,
                ways: 4,
                latency_cycles: 8,
                occupancy_cycles: 2,
            },
            slc: CacheLevelConfig {
                size_bytes: 32 * 1024,
                line_bytes: 64,
                ways: 8,
                latency_cycles: 20,
                occupancy_cycles: 4,
            },
            mem: MemTopologyConfig::single(MemNodeConfig {
                latency_cycles: 100,
                peak_bytes_per_cycle: 16.0,
                occupancy_cycles: 8,
                max_queue_cycles: 500,
                capacity_bytes: 1024 * 1024 * 1024,
                remote: false,
            }),
            cost: CostModel { cycles_per_cpu_op: 0.5, cycles_per_flop: 0.5 },
            bandwidth_bucket_cycles: 10_000,
        }
    }

    /// The tiny test machine with a second, slower remote memory node
    /// (4x the idle latency, a quarter of the bandwidth) and the given
    /// placement policy — the unit-test analogue of the tiered testbed.
    pub fn small_test_tiered(placement: PlacementPolicy) -> Self {
        let base = Self::small_test();
        let local = base.mem.nodes[0];
        let remote = MemNodeConfig {
            latency_cycles: local.latency_cycles * 4,
            peak_bytes_per_cycle: local.peak_bytes_per_cycle / 4.0,
            occupancy_cycles: local.occupancy_cycles * 2,
            max_queue_cycles: local.max_queue_cycles,
            capacity_bytes: local.capacity_bytes,
            remote: true,
        };
        MachineConfig {
            name: "small-test-tiered".to_string(),
            mem: MemTopologyConfig::tiered(local, remote, placement),
            ..base
        }
    }

    /// The node-0 (local DDR) memory configuration.
    pub fn local_mem(&self) -> &MemNodeConfig {
        &self.mem.nodes[0]
    }

    /// Total memory capacity across every node, bytes.
    pub fn total_mem_bytes(&self) -> u64 {
        self.mem.total_capacity_bytes()
    }

    /// Number of memory nodes in the topology.
    pub fn mem_nodes(&self) -> usize {
        self.mem.nodes.len()
    }

    /// Validate all geometry and parameters.
    pub fn validate(&self) -> Result<()> {
        if self.num_cores == 0 {
            return Err(SimError::BadConfig("num_cores must be non-zero".into()));
        }
        if self.freq_hz == 0 {
            return Err(SimError::BadConfig("freq_hz must be non-zero".into()));
        }
        if !self.page_bytes.is_power_of_two() || self.page_bytes < 4096 {
            return Err(SimError::BadConfig("page_bytes must be a power of two >= 4096".into()));
        }
        if self.bandwidth_bucket_cycles == 0 {
            return Err(SimError::BadConfig("bandwidth_bucket_cycles must be non-zero".into()));
        }
        // A clock stepped by NaN stays NaN and reads as cycle 0; by a
        // negative cost it runs backwards.
        for (name, cycles) in [
            ("cost.cycles_per_cpu_op", self.cost.cycles_per_cpu_op),
            ("cost.cycles_per_flop", self.cost.cycles_per_flop),
        ] {
            if !cycles.is_finite() || cycles < 0.0 {
                return Err(SimError::BadConfig(format!(
                    "{name} must be finite and non-negative, got {cycles}"
                )));
            }
        }
        self.mem.validate()?;
        self.l1d.validate("l1d")?;
        self.l2.validate("l2")?;
        self.slc.validate("slc")?;
        Ok(())
    }

    /// Number of simulated nanoseconds per core cycle (as a ratio num/denom to
    /// stay exact: ns = cycles * 1e9 / freq_hz).
    pub fn cycles_to_ns(&self, cycles: u64) -> u64 {
        ((cycles as u128 * 1_000_000_000u128) / self.freq_hz as u128) as u64
    }

    /// Inverse of [`MachineConfig::cycles_to_ns`]: simulated nanoseconds to
    /// core cycles (used by profilers translating sample timestamps back
    /// into machine time, e.g. to timestamp a page migration).
    pub fn ns_to_cycles(&self, ns: u64) -> u64 {
        ((ns as u128 * self.freq_hz as u128) / 1_000_000_000u128) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn altra_preset_is_valid_and_matches_table2() {
        let c = MachineConfig::ampere_altra_max();
        c.validate().unwrap();
        assert_eq!(c.num_cores, 128);
        assert_eq!(c.freq_hz, 3_000_000_000);
        assert_eq!(c.page_bytes, 64 * 1024);
        assert_eq!(c.l1d.size_bytes, 64 * 1024);
        assert_eq!(c.l2.size_bytes, 1024 * 1024);
        // Table II lists 16 MiB; the model holds 1 MiB until ROADMAP item 4.
        assert_eq!(c.slc.size_bytes, 1024 * 1024);
        assert_eq!(c.mem_nodes(), 1);
        assert_eq!(c.local_mem().capacity_bytes, 256 * 1024 * 1024 * 1024);
        assert_eq!(c.total_mem_bytes(), 256 * 1024 * 1024 * 1024);
        // 200 GB/s at 3 GHz is about 66.7 bytes per cycle.
        assert!((c.local_mem().peak_bytes_per_cycle - 66.666).abs() < 0.1);
    }

    /// `Cache` packs a way as `line << 2 | flags`, which needs the two top
    /// bits of every line index free.
    #[test]
    fn lines_narrower_than_the_packed_tag_word_allows_are_rejected() {
        for (line_bytes, valid) in [(1, false), (2, false), (4, true), (64, true)] {
            let level = CacheLevelConfig {
                size_bytes: 1024,
                line_bytes,
                ways: 2,
                latency_cycles: 1,
                occupancy_cycles: 1,
            };
            match level.validate("l1d") {
                Ok(()) => assert!(valid, "line_bytes {line_bytes} accepted"),
                Err(e) => {
                    assert!(!valid && matches!(e, SimError::BadConfig(_)), "{line_bytes}: {e:?}")
                }
            }
        }
    }

    #[test]
    fn small_preset_is_valid() {
        MachineConfig::small_test().validate().unwrap();
    }

    #[test]
    fn tiered_presets_are_valid_and_slower_remotely() {
        for c in [
            MachineConfig::small_test_tiered(PlacementPolicy::TierSplit { local_fraction: 0.5 }),
            MachineConfig::ampere_altra_max_tiered(PlacementPolicy::Interleave),
        ] {
            c.validate().unwrap();
            assert_eq!(c.mem_nodes(), 2);
            assert!(!c.mem.nodes[0].remote);
            assert!(c.mem.nodes[1].remote);
            assert!(c.mem.nodes[1].latency_cycles > c.mem.nodes[0].latency_cycles);
            assert!(c.mem.nodes[1].peak_bytes_per_cycle < c.mem.nodes[0].peak_bytes_per_cycle);
            assert_eq!(
                c.total_mem_bytes(),
                c.mem.nodes[0].capacity_bytes + c.mem.nodes[1].capacity_bytes
            );
        }
    }

    #[test]
    fn cache_sets_power_of_two() {
        let c = MachineConfig::ampere_altra_max();
        assert_eq!(c.l1d.sets(), 256);
        assert_eq!(c.l2.sets(), 2048);
        assert!(c.slc.sets().is_power_of_two());
    }

    #[test]
    fn invalid_geometry_rejected() {
        let mut c = MachineConfig::small_test();
        c.l1d.size_bytes = 5000; // not a multiple of line*ways
        assert!(matches!(c.validate(), Err(SimError::BadConfig(_))));

        let mut c = MachineConfig::small_test();
        c.l1d.ways = 0;
        assert!(c.validate().is_err());

        // A set's recency order is 16 nibbles of one word.
        let mut c = MachineConfig::ampere_altra_max();
        (c.slc.ways, c.slc.size_bytes) = (32, 32 << 20);
        match c.validate() {
            Err(SimError::BadConfig(msg)) => assert!(msg.contains("slc"), "{msg}"),
            other => panic!("32-way SLC: expected BadConfig, got {other:?}"),
        }

        let mut c = MachineConfig::small_test();
        c.page_bytes = 1000;
        assert!(c.validate().is_err());
    }

    #[test]
    fn invalid_topologies_rejected() {
        let mut c = MachineConfig::small_test();
        c.mem.nodes.clear();
        assert!(c.validate().is_err(), "empty topology");

        let mut c = MachineConfig::small_test();
        let node = c.mem.nodes[0];
        c.mem.nodes = vec![node; MAX_MEM_NODES + 1];
        assert!(c.validate().is_err(), "too many nodes");

        let mut c = MachineConfig::small_test();
        c.mem.nodes[0].remote = true;
        assert!(c.validate().is_err(), "node 0 must be local");

        let mut c = MachineConfig::small_test();
        c.mem.nodes[0].peak_bytes_per_cycle = 0.0;
        assert!(c.validate().is_err(), "zero bandwidth");

        let mut c = MachineConfig::small_test();
        c.mem.placement = PlacementPolicy::TierSplit { local_fraction: 0.5 };
        assert!(c.validate().is_err(), "TierSplit needs a remote node");

        let mut c = MachineConfig::small_test_tiered(PlacementPolicy::LocalOnly);
        c.mem.placement = PlacementPolicy::TierSplit { local_fraction: f64::NAN };
        assert!(c.validate().is_err(), "non-finite split fraction");
    }

    #[test]
    fn costs_that_are_not_finite_non_negative_numbers_are_rejected_by_name() {
        let rejected = |c: &MachineConfig, field: &str| match c.validate() {
            Err(SimError::BadConfig(msg)) => assert!(msg.contains(field), "{field}: {msg}"),
            other => panic!("{field}: expected BadConfig, got {other:?}"),
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -5.0] {
            let mut c = MachineConfig::small_test();
            c.cost.cycles_per_cpu_op = bad;
            rejected(&c, "cycles_per_cpu_op");

            let mut c = MachineConfig::small_test();
            c.cost.cycles_per_flop = bad;
            rejected(&c, "cycles_per_flop");
        }
        for bad in [f64::NAN, -1.0] {
            let mut c = MachineConfig::small_test();
            c.mem.nodes[0].peak_bytes_per_cycle = bad;
            rejected(&c, "peak_bytes_per_cycle");
        }
        // Free instructions are a model, not a mistake.
        let mut c = MachineConfig::small_test();
        c.cost = CostModel { cycles_per_cpu_op: 0.0, cycles_per_flop: 0.0 };
        c.validate().unwrap();
    }

    #[test]
    fn cycles_to_ns_conversion() {
        let c = MachineConfig::ampere_altra_max();
        assert_eq!(c.cycles_to_ns(3_000_000_000), 1_000_000_000);
        assert_eq!(c.cycles_to_ns(3), 1);
        assert_eq!(c.cycles_to_ns(0), 0);
        assert_eq!(c.ns_to_cycles(1_000_000_000), 3_000_000_000);
        assert_eq!(c.ns_to_cycles(c.cycles_to_ns(12_345_678)), 12_345_678);
    }

    #[test]
    fn migration_cost_defaults_are_sane() {
        let c = MachineConfig::small_test_tiered(PlacementPolicy::Interleave);
        assert!(c.mem.migration.fixed_cycles_per_page > 0);
        c.validate().unwrap();
    }
}
