//! # arch-sim — a cycle-approximate multi-core machine substrate
//!
//! This crate models the hardware platform the NMO profiler runs on: an
//! ARM-server-like multi-core machine with a private L1d/L2 per core, a
//! shared system-level cache (SLC), a multi-node memory topology (local DDR
//! plus optional CXL-style remote nodes, each with its own latency and
//! bandwidth contention model), a 64 KiB-page virtual address space with
//! first-touch page placement across the nodes, and a per-core *operation
//! stream* that observers (such as the ARM SPE unit model in the `spe`
//! crate) can subscribe to.
//!
//! The paper evaluates NMO on an Ampere Altra Max (Neoverse V1-class, 128
//! cores, 64 KiB pages, 256 GiB DDR4, 200 GB/s peak). Since real SPE hardware
//! is not available in this environment, this simulator provides the closest
//! synthetic equivalent: real multi-threaded Rust workloads (see the
//! `workloads` crate) perform their computation on host memory while routing
//! every load/store through [`Engine::load`]/[`Engine::store`], which
//!
//! 1. walks the simulated cache hierarchy and DRAM model to obtain the memory
//!    level, latency, and bus traffic of the access,
//! 2. advances the simulated core clock,
//! 3. updates machine-wide counters (the `mem_access` event used by the
//!    `perf stat` baseline, bus bytes used for bandwidth profiling, RSS
//!    first-touch accounting used for capacity profiling), and
//! 4. hands the retired operation to the core's [`OpObserver`] when the
//!    observer's [`Quiet`] says it needs to see it, which is how the SPE
//!    sampling unit sees the instruction stream.
//!
//! The design goal is *mechanistic fidelity of the profiling path*, not
//! microarchitectural accuracy: everything NMO measures (sample counts,
//! collisions, truncation, interrupt-driven overhead, bandwidth, RSS) emerges
//! from the same mechanisms as on real hardware.
//!
//! ## Quick example
//!
//! ```
//! use arch_sim::{Machine, MachineConfig, OpKind};
//!
//! let machine = Machine::new(MachineConfig::small_test());
//! let region = machine.alloc("data", 1 << 20).unwrap();
//! let mut engine = machine.attach(0).unwrap();
//! for i in 0..1024u64 {
//!     engine.load(region.start + i * 8, 8);
//! }
//! drop(engine);
//! assert_eq!(machine.counters().mem_access, 1024);
//! ```

#![warn(missing_docs)]
// Stdout belongs to the binaries; library code returns data or warns on stderr.
// A failure correct use can meet is a `Result`; an `expect` on a broken internal
// condition carries its own `#[allow(clippy::expect_used, reason = "…")]`.
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod clock;
pub mod config;
pub mod counters;
pub mod engine;
pub mod gang;
pub mod machine;
pub mod observer;
pub mod op;
mod shared;
pub mod topology;
pub mod vm;

pub use cache::Cache;
pub use clock::TimeConv;
pub use config::{
    CacheLevelConfig, CostModel, MachineConfig, MemNodeConfig, MemTopologyConfig,
    MigrationCostConfig, PlacementPolicy, MAX_MEM_NODES,
};
pub use counters::{CoreCounters, MachineCounters, MigrationStats};
pub use engine::Engine;
pub use gang::TURN_CYCLES;
pub use machine::{BandwidthPoint, Machine, RssPoint};
pub use observer::{FanoutObserver, ObserverCharge, OpCounts, OpObserver, Quiet};
pub use op::{DataSource, MemLevel, MemOutcome, NodeId, Op, OpKind};
pub use topology::NodeTraffic;
pub use vm::{AddressSpace, PageHome, PageMigration, Region};

/// Errors produced by the machine substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The requested core id does not exist on this machine.
    NoSuchCore(usize),
    /// The core is already attached to an engine (checked out by a thread).
    CoreBusy(usize),
    /// The virtual address space could not satisfy an allocation.
    OutOfAddressSpace,
    /// An allocation with the same name already exists.
    DuplicateRegion(String),
    /// A configuration value is invalid (e.g. non-power-of-two cache geometry).
    BadConfig(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::NoSuchCore(c) => write!(f, "no such core: {c}"),
            SimError::CoreBusy(c) => write!(f, "core {c} is already attached to an engine"),
            SimError::OutOfAddressSpace => write!(f, "virtual address space exhausted"),
            SimError::DuplicateRegion(n) => write!(f, "a region named '{n}' already exists"),
            SimError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SimError>;
