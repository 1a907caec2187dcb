//! Operation and memory-access outcome types.
//!
//! Every operation retired by a simulated core is described by an [`Op`];
//! memory operations additionally carry a [`MemOutcome`] describing which
//! part of the memory system served them and at what latency. These are
//! exactly the quantities ARM SPE records per sampled operation (PC, data
//! address, event flags, latency, data source), so the SPE unit model
//! consumes them directly.
//!
//! Since the machine models a multi-node memory topology (local DDR plus
//! CXL-style remote nodes), a DRAM-class access carries the *node* that
//! served it in its [`DataSource`]; the coarser [`MemLevel`] remains the
//! class-level view (L1/L2/SLC/DRAM) used by filters and summaries.

/// The kind of a retired operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A load instruction (reads memory).
    Load,
    /// A store instruction (writes memory).
    Store,
    /// A conditional or unconditional branch.
    Branch,
    /// Any other (ALU/FP/...) instruction.
    Other,
}

impl OpKind {
    /// True for loads and stores.
    pub fn is_mem(self) -> bool {
        matches!(self, OpKind::Load | OpKind::Store)
    }
}

/// The memory-hierarchy level (class) that served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemLevel {
    /// Served by the core-private L1 data cache.
    L1,
    /// Served by the core-private L2 cache.
    L2,
    /// Served by the shared system-level cache.
    Slc,
    /// Served by a DRAM node (local or remote; see [`DataSource`]).
    Dram,
}

/// Identifier of one memory node in the topology (0 = local DDR).
pub type NodeId = u8;

/// The precise memory-system source that served an access, as recorded in
/// the SPE data-source packet.
///
/// The one-byte encoding is modeled on the Neoverse data-source encodings
/// (L1D `0x0`, L2 `0x8`, system cache, local and far DRAM), extended with
/// the serving node id in the high nibble for DRAM-class sources:
///
/// | Source              | Code           | Neoverse analogue     |
/// |---------------------|----------------|-----------------------|
/// | [`DataSource::L1`]  | `0x00`         | `L1D` (`0b0000`)      |
/// | [`DataSource::L2`]  | `0x08`         | `L2` (`0b1000`)       |
/// | [`DataSource::Slc`] | `0x09`         | `SYS_CACHE` class     |
/// | [`DataSource::Dram`]`(n)`       | `0x0d \| n << 4` | `DRAM` (`0b1101`) |
/// | [`DataSource::RemoteDram`]`(n)` | `0x0e \| n << 4` | `REMOTE` / far-memory class |
///
/// Node ids occupy the high nibble, so up to 16 nodes round-trip through
/// the packet codec (the machine model caps the topology at
/// [`crate::config::MAX_MEM_NODES`] nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DataSource {
    /// Served by the core-private L1 data cache.
    L1,
    /// Served by the core-private L2 cache.
    L2,
    /// Served by the shared system-level cache.
    Slc,
    /// Served by a local-tier DRAM node (node 0 is the DDR of the socket).
    Dram(NodeId),
    /// Served by a remote-tier (CXL-style) DRAM node.
    RemoteDram(NodeId),
}

/// Low-nibble class code of a local DRAM data source.
const DS_CLASS_DRAM: u8 = 0xd;
/// Low-nibble class code of a remote DRAM data source.
const DS_CLASS_REMOTE: u8 = 0xe;

impl DataSource {
    /// The memory-level class of this source.
    pub fn level(self) -> MemLevel {
        match self {
            DataSource::L1 => MemLevel::L1,
            DataSource::L2 => MemLevel::L2,
            DataSource::Slc => MemLevel::Slc,
            DataSource::Dram(_) | DataSource::RemoteDram(_) => MemLevel::Dram,
        }
    }

    /// Whether the access was served by a DRAM node (any tier).
    pub fn is_dram_class(self) -> bool {
        matches!(self, DataSource::Dram(_) | DataSource::RemoteDram(_))
    }

    /// Whether the access was served by a remote-tier node.
    pub fn is_remote(self) -> bool {
        matches!(self, DataSource::RemoteDram(_))
    }

    /// The serving memory node, for DRAM-class sources.
    pub fn node(self) -> Option<NodeId> {
        match self {
            DataSource::Dram(n) | DataSource::RemoteDram(n) => Some(n),
            _ => None,
        }
    }

    /// Encoding used in the SPE data-source packet (see the type-level
    /// table). Node ids above 15 are masked to the low 4 bits.
    ///
    /// Arithmetic on purpose: a five-arm `match` compiles to a jump table,
    /// and this runs once per record on sources that vary from record to
    /// record (the SPE packet writer, the trace encoder), where that
    /// indirect jump mispredicts. This form is compares and a select.
    #[inline]
    pub fn encode(self) -> u8 {
        let class = 0x8 * u8::from(matches!(self, DataSource::L2))
            + 0x9 * u8::from(matches!(self, DataSource::Slc))
            + DS_CLASS_DRAM * u8::from(matches!(self, DataSource::Dram(_)))
            + DS_CLASS_REMOTE * u8::from(matches!(self, DataSource::RemoteDram(_)));
        match self {
            DataSource::Dram(n) | DataSource::RemoteDram(n) => class | (n & 0xf) << 4,
            _ => class,
        }
    }

    /// Inverse of [`DataSource::encode`]. Returns `None` for codes that do
    /// not name a source (including cache-class codes with a non-zero node
    /// nibble).
    ///
    /// One load from a 256-entry table: the decode loops run this once per
    /// sample on codes that vary from sample to sample, so a match here
    /// mispredicts about once per record.
    #[inline]
    pub fn decode(code: u8) -> Option<Self> {
        DECODE_TABLE[code as usize]
    }

    /// The code → source rule [`DECODE_TABLE`] is filled from.
    const fn decode_code(code: u8) -> Option<Self> {
        let node = code >> 4;
        match code & 0xf {
            _ if code == 0x0 => Some(DataSource::L1),
            _ if code == 0x8 => Some(DataSource::L2),
            _ if code == 0x9 => Some(DataSource::Slc),
            DS_CLASS_DRAM => Some(DataSource::Dram(node)),
            DS_CLASS_REMOTE => Some(DataSource::RemoteDram(node)),
            _ => None,
        }
    }

    /// Number of distinct [`DataSource::slot`] values.
    pub const SLOTS: usize = 3 + 2 * SLOT_NODES;

    /// A dense index in `0..`[`DataSource::SLOTS`], ascending in the type's
    /// `Ord` order (caches, then local DRAM by node, then remote DRAM by
    /// node), for per-source tables. Like [`DataSource::encode`] it keeps
    /// the low 4 bits of the node id, which is every node the packet codec
    /// can carry.
    ///
    /// One load from a 256-entry table indexed by the branch-free
    /// [`DataSource::encode`]: a per-sample fold runs this on sources that
    /// vary from sample to sample, where the `match` compiles to a jump
    /// table whose indirect jump mispredicts. Both mask the node to 4 bits,
    /// so the table gives every source the `match`'s slot.
    #[inline]
    pub fn slot(self) -> usize {
        SLOT_TABLE[self.encode() as usize] as usize
    }

    /// The source → slot rule [`SLOT_TABLE`] is filled from.
    const fn slot_by_match(self) -> usize {
        match self {
            DataSource::L1 => 0,
            DataSource::L2 => 1,
            DataSource::Slc => 2,
            DataSource::Dram(n) => 3 + (n as usize & (SLOT_NODES - 1)),
            DataSource::RemoteDram(n) => 3 + SLOT_NODES + (n as usize & (SLOT_NODES - 1)),
        }
    }

    /// Inverse of [`DataSource::slot`]. Returns `None` at or beyond
    /// [`DataSource::SLOTS`].
    pub fn from_slot(slot: usize) -> Option<Self> {
        match slot {
            0 => Some(DataSource::L1),
            1 => Some(DataSource::L2),
            2 => Some(DataSource::Slc),
            _ if slot < 3 + SLOT_NODES => Some(DataSource::Dram((slot - 3) as NodeId)),
            _ if slot < Self::SLOTS => {
                Some(DataSource::RemoteDram((slot - 3 - SLOT_NODES) as NodeId))
            }
            _ => None,
        }
    }
}

/// Node ids the one-byte encoding (and so [`DataSource::slot`]) can tell
/// apart: the high nibble.
const SLOT_NODES: usize = 16;

/// [`DataSource::decode`] for every code.
const DECODE_TABLE: [Option<DataSource>; 256] = {
    let mut table = [None; 256];
    let mut code = 0;
    while code < table.len() {
        table[code] = DataSource::decode_code(code as u8);
        code += 1;
    }
    table
};

/// [`DataSource::slot`] by code; codes that name no source hold 0 (no
/// [`DataSource::encode`] yields one).
const SLOT_TABLE: [u8; 256] = {
    let mut table = [0; 256];
    let mut code = 0;
    while code < table.len() {
        if let Some(source) = DECODE_TABLE[code] {
            table[code] = source.slot_by_match() as u8;
        }
        code += 1;
    }
    table
};

impl MemLevel {
    /// Encoding used in the SPE data-source packet for the canonical source
    /// of this class (node 0 for DRAM). Kept for class-level tooling; the
    /// full encoding lives on [`DataSource::encode`].
    pub fn data_source_code(self) -> u8 {
        match self {
            MemLevel::L1 => DataSource::L1.encode(),
            MemLevel::L2 => DataSource::L2.encode(),
            MemLevel::Slc => DataSource::Slc.encode(),
            MemLevel::Dram => DataSource::Dram(0).encode(),
        }
    }

    /// Inverse of [`MemLevel::data_source_code`] at class granularity.
    pub fn from_data_source_code(code: u8) -> Option<Self> {
        DataSource::decode(code).map(DataSource::level)
    }
}

/// A retired operation as seen by per-core observers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Operation kind.
    pub kind: OpKind,
    /// Synthetic program counter (work-loads use stable per-kernel values so
    /// samples can be attributed to code regions).
    pub pc: u64,
    /// Virtual data address (0 for non-memory operations).
    pub vaddr: u64,
    /// Access size in bytes (0 for non-memory operations).
    pub size: u32,
}

impl Op {
    /// Construct a load operation.
    pub fn load(pc: u64, vaddr: u64, size: u32) -> Self {
        Op { kind: OpKind::Load, pc, vaddr, size }
    }

    /// Construct a store operation.
    pub fn store(pc: u64, vaddr: u64, size: u32) -> Self {
        Op { kind: OpKind::Store, pc, vaddr, size }
    }

    /// Construct a non-memory operation.
    pub fn other(pc: u64) -> Self {
        Op { kind: OpKind::Other, pc, vaddr: 0, size: 0 }
    }

    /// Construct a branch operation.
    pub fn branch(pc: u64) -> Self {
        Op { kind: OpKind::Branch, pc, vaddr: 0, size: 0 }
    }
}

/// Result of sending a memory access through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOutcome {
    /// The precise source that served the access (carries the node for
    /// DRAM-class accesses).
    pub source: DataSource,
    /// Total load-to-use latency in cycles, including any queueing delay at
    /// the serving memory node.
    pub latency_cycles: u64,
    /// Cycles of issue-slot occupancy charged to the core for this access.
    pub occupancy_cycles: u64,
    /// Bytes moved on the memory bus (0 unless the access reached DRAM).
    pub bus_bytes: u32,
    /// Whether this access was the first touch of its virtual page (used for
    /// resident-set-size accounting and page placement).
    pub first_touch: bool,
}

impl MemOutcome {
    /// An outcome representing a hit in the given source with no bus traffic.
    pub fn hit(source: DataSource, latency_cycles: u64, occupancy_cycles: u64) -> Self {
        MemOutcome { source, latency_cycles, occupancy_cycles, bus_bytes: 0, first_touch: false }
    }

    /// The memory-level class of the serving source.
    pub fn level(&self) -> MemLevel {
        self.source.level()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_constructors() {
        let l = Op::load(0x400100, 0x1000, 8);
        assert_eq!(l.kind, OpKind::Load);
        assert!(l.kind.is_mem());
        let s = Op::store(0x400104, 0x2000, 4);
        assert_eq!(s.kind, OpKind::Store);
        assert!(s.kind.is_mem());
        let o = Op::other(0x400108);
        assert!(!o.kind.is_mem());
        assert_eq!(o.vaddr, 0);
        let b = Op::branch(0x40010c);
        assert_eq!(b.kind, OpKind::Branch);
        assert!(!b.kind.is_mem());
    }

    #[test]
    fn data_source_roundtrip_including_nodes() {
        let mut sources = vec![DataSource::L1, DataSource::L2, DataSource::Slc];
        for n in 0..16u8 {
            sources.push(DataSource::Dram(n));
            sources.push(DataSource::RemoteDram(n));
        }
        for src in sources {
            assert_eq!(DataSource::decode(src.encode()), Some(src), "{src:?}");
        }
        assert_eq!(DataSource::decode(0x3), None);
        assert_eq!(DataSource::decode(0x18), None, "L2 with a node nibble is invalid");
        assert_eq!(DataSource::decode(0xff), None);
    }

    /// `encode` as the five-arm `match` it used to be: the oracle.
    fn encode_by_match(source: DataSource) -> u8 {
        match source {
            DataSource::L1 => 0x0,
            DataSource::L2 => 0x8,
            DataSource::Slc => 0x9,
            DataSource::Dram(n) => DS_CLASS_DRAM | (n & 0xf) << 4,
            DataSource::RemoteDram(n) => DS_CLASS_REMOTE | (n & 0xf) << 4,
        }
    }

    /// The arithmetic is the match for every source there is — every node
    /// byte, so the mask to the low nibble too — and codes of nodes the
    /// nibble can hold decode back to their source.
    #[test]
    fn encode_agrees_with_the_match_for_every_source() {
        let caches = [DataSource::L1, DataSource::L2, DataSource::Slc];
        let dram = (0..=u8::MAX).flat_map(|n| [DataSource::Dram(n), DataSource::RemoteDram(n)]);
        for source in caches.into_iter().chain(dram) {
            assert_eq!(source.encode(), encode_by_match(source), "{source:?}");
            if source.node().is_none_or(|n| n < 16) {
                assert_eq!(DataSource::decode(source.encode()), Some(source), "{source:?}");
            }
        }
    }

    /// The table is the match, for every byte; cache-class codes carry no
    /// node, so any non-zero node nibble on them is rejected.
    #[test]
    fn decode_table_agrees_with_the_match_for_every_code() {
        let mut valid = 0;
        for code in 0..=255u8 {
            let decoded = DataSource::decode(code);
            assert_eq!(decoded, DataSource::decode_code(code), "code {code:#04x}");
            if let Some(source) = decoded {
                valid += 1;
                assert_eq!(source.encode(), code, "{source:?}");
            }
            if matches!(code & 0xf, 0x0 | 0x8 | 0x9) && code >> 4 != 0 {
                assert_eq!(decoded, None, "cache-class code {code:#04x} with a node nibble");
            }
        }
        assert_eq!(valid, 3 + 2 * 16, "three caches, 16 local and 16 remote nodes");
    }

    /// The table is the match for every source there is — every node byte,
    /// so the mask to the low nibble too.
    #[test]
    fn slot_table_agrees_with_the_match_for_every_source() {
        let caches = [DataSource::L1, DataSource::L2, DataSource::Slc];
        let dram = (0..=u8::MAX).flat_map(|n| [DataSource::Dram(n), DataSource::RemoteDram(n)]);
        for source in caches.into_iter().chain(dram) {
            assert_eq!(source.slot(), source.slot_by_match(), "{source:?}");
            if source.node().is_none_or(|n| n < 16) {
                assert_eq!(DataSource::from_slot(source.slot()), Some(source), "{source:?}");
            }
        }
    }

    #[test]
    fn slots_are_dense_and_ascend_in_ord_order() {
        let sources: Vec<DataSource> =
            (0..DataSource::SLOTS).map(|slot| DataSource::from_slot(slot).unwrap()).collect();
        for (slot, source) in sources.iter().enumerate() {
            assert_eq!(source.slot(), slot, "{source:?}");
            assert_eq!(DataSource::decode(source.encode()), Some(*source), "{source:?}");
        }
        assert!(sources.windows(2).all(|pair| pair[0] < pair[1]), "{sources:?}");
        assert_eq!(DataSource::from_slot(DataSource::SLOTS), None);
        // Node ids beyond the codec's nibble fold like `encode` folds them.
        assert_eq!(DataSource::Dram(17).slot(), DataSource::Dram(1).slot());
    }

    #[test]
    fn data_source_codes_match_neoverse_classes() {
        assert_eq!(DataSource::L1.encode(), 0x0);
        assert_eq!(DataSource::L2.encode(), 0x8);
        assert_eq!(DataSource::Slc.encode(), 0x9);
        assert_eq!(DataSource::Dram(0).encode(), 0xd);
        assert_eq!(DataSource::Dram(1).encode(), 0x1d);
        assert_eq!(DataSource::RemoteDram(1).encode(), 0x1e);
    }

    #[test]
    fn data_source_classification() {
        assert_eq!(DataSource::Dram(0).level(), MemLevel::Dram);
        assert_eq!(DataSource::RemoteDram(2).level(), MemLevel::Dram);
        assert!(DataSource::RemoteDram(1).is_dram_class());
        assert!(DataSource::RemoteDram(1).is_remote());
        assert!(!DataSource::Dram(0).is_remote());
        assert_eq!(DataSource::Dram(3).node(), Some(3));
        assert_eq!(DataSource::Slc.node(), None);
    }

    #[test]
    fn mem_level_data_source_roundtrip() {
        for level in [MemLevel::L1, MemLevel::L2, MemLevel::Slc, MemLevel::Dram] {
            assert_eq!(MemLevel::from_data_source_code(level.data_source_code()), Some(level));
        }
        assert_eq!(MemLevel::from_data_source_code(0x3), None);
        // Any node decodes to the DRAM class.
        assert_eq!(
            MemLevel::from_data_source_code(DataSource::RemoteDram(1).encode()),
            Some(MemLevel::Dram)
        );
    }

    #[test]
    fn mem_level_ordering_reflects_distance() {
        assert!(MemLevel::L1 < MemLevel::L2);
        assert!(MemLevel::L2 < MemLevel::Slc);
        assert!(MemLevel::Slc < MemLevel::Dram);
    }

    #[test]
    fn outcome_level_follows_source() {
        let hit = MemOutcome::hit(DataSource::L2, 13, 3);
        assert_eq!(hit.level(), MemLevel::L2);
        assert_eq!(hit.bus_bytes, 0);
        let far = MemOutcome::hit(DataSource::RemoteDram(1), 900, 20);
        assert_eq!(far.level(), MemLevel::Dram);
    }
}
