//! Virtual address space, named allocations, resident-set-size tracking, and
//! first-touch page placement onto the memory topology.
//!
//! Workloads allocate named regions ("a", "b", "c", "normals", ...) from a
//! simulated 64 KiB-page address space. NMO's capacity profiler (Figure 2 of
//! the paper) needs the resident set size over time; residency is accounted
//! on *first touch* of each page, which in the simulator is detected on the
//! cold-miss path of the cache hierarchy (a never-touched page can never be
//! cached).
//!
//! On a multi-node memory topology the first touch also *homes* the page:
//! the configured [`PlacementPolicy`] assigns each newly resident page a
//! memory node (local DDR, or a CXL-style remote node), and every later
//! DRAM-class access to the page is served by that node — exactly the
//! first-touch NUMA behaviour the paper's tiered experiments rely on.
//!
//! ## The page-home memo
//!
//! Every access that misses the SLC asks the address space for its page's
//! home. The answer for the last few pages resolved is remembered
//! (`PAGE_HOMES` spans, direct-mapped by page number), so most of those
//! questions are answered without the region lookup. What the memo holds
//! stays true until a page loses or changes its home, and only two calls do
//! that: [`AddressSpace::free`] and [`AddressSpace::migrate_page`], which
//! empty it. `alloc` and a first touch leave it as it is: they give homes
//! to addresses that had none, and the memo holds no address without a
//! home. The address space is one value behind the machine's
//! `machine.shared` lock (see [`crate::engine`]), so the memo is shared by
//! every core and no core can read it while a free or a migration is half
//! done.

use std::collections::BTreeMap;

use crate::config::{PlacementPolicy, MAX_MEM_NODES};
use crate::op::NodeId;
use crate::{Result, SimError};

/// Base virtual address of the simulated heap. Chosen to look like a typical
/// Linux arm64 mmap region so plotted addresses resemble the paper's figures.
pub const HEAP_BASE: u64 = 0xffff_0000_0000;

/// Sentinel for a page that has not been homed yet.
const NODE_UNASSIGNED: u8 = u8::MAX;

/// How many resolved pages the address space remembers, direct-mapped by
/// page number. One memo serves every core, so it is sized by the region
/// lookups it leaves a gang of cores on `ampere_altra_max` (exact counts,
/// host-independent): STREAM 2 M does 735 of its 750 000 at one core, 756
/// at 8 and, with 32 cores streaming 96 pages at once, 94 229 / 68 840 /
/// 18 485 / 1 863 at 16 / 64 / 128 / 256 slots; PageRank 2^15 at one core
/// does 7 552 of 172 258 at 16 slots and 29 from 64 on. A slot is 24 bytes,
/// and emptying the memo is what a free or a migration costs.
const PAGE_HOMES: usize = 256;

/// A named, contiguous allocation in the simulated address space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Name supplied at allocation time (matches NMO address tags).
    pub name: String,
    /// First virtual address of the region.
    pub start: u64,
    /// Length in bytes.
    pub len: u64,
}

impl Region {
    /// One-past-the-end address.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }

    /// Whether `addr` lies inside the region.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.end()
    }
}

/// The home of one touched page, as resolved by [`AddressSpace::place`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageHome {
    /// The memory node the page lives on.
    pub node: NodeId,
    /// Whether this access was the first touch of the page (the page just
    /// became resident and was homed by the placement policy).
    pub first_touch: bool,
}

/// One applied page migration, as returned by [`AddressSpace::migrate_page`].
///
/// The address space only knows node *ids*; whether a move is a promotion
/// or demotion depends on the nodes' tier (remote) flags, which live on the
/// topology — [`crate::Machine::migrate_page`] classifies the direction in
/// its [`crate::MigrationStats`] accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageMigration {
    /// Base virtual address of the migrated page.
    pub page_addr: u64,
    /// The node the page was homed on before the migration.
    pub from: NodeId,
    /// The node the page is homed on now.
    pub to: NodeId,
    /// Size of the moved page in bytes.
    pub bytes: u64,
}

/// The placement policy and the counters it advances as pages are first
/// touched.
#[derive(Debug)]
struct Placement {
    policy: PlacementPolicy,
    /// Number of memory nodes pages are placed on.
    num_nodes: usize,
    /// Pages assigned a home so far.
    pages_assigned: u64,
    /// Pages assigned to node 0 so far (TierSplit state).
    local_assigned: u64,
    /// Pages assigned to remote nodes so far (TierSplit round-robin state).
    remote_assigned: u64,
}

impl Placement {
    /// Pick the home node for a page just being touched, advancing the
    /// counters.
    fn assign(&mut self) -> NodeId {
        let nodes = self.num_nodes as u64;
        let node = if nodes <= 1 {
            0
        } else {
            match self.policy {
                PlacementPolicy::LocalOnly => 0,
                PlacementPolicy::Interleave => (self.pages_assigned % nodes) as NodeId,
                PlacementPolicy::TierSplit { local_fraction } => {
                    let frac = local_fraction.clamp(0.0, 1.0);
                    let target_local = frac * (self.pages_assigned + 1) as f64;
                    if (self.local_assigned as f64) < target_local {
                        self.local_assigned += 1;
                        0
                    } else {
                        let remote = 1 + (self.remote_assigned % (nodes - 1)) as NodeId;
                        self.remote_assigned += 1;
                        remote
                    }
                }
            }
        };
        self.pages_assigned += 1;
        node
    }
}

#[derive(Debug)]
struct RegionState {
    region: Region,
    /// The home node of each page, NODE_UNASSIGNED until its first touch
    /// and again once the region is freed.
    nodes: Vec<u8>,
    touched_pages: u64,
    /// Touched pages per memory node (released on free).
    touched_by_node: [u64; MAX_MEM_NODES],
    freed: bool,
}

/// The simulated process address space.
#[derive(Debug)]
pub struct AddressSpace {
    page_bytes: u64,
    page_shift: u32,
    placement: Placement,
    /// Regions keyed by start address for range lookup.
    regions: BTreeMap<u64, RegionState>,
    next_free: u64,
    resident_pages: u64,
    peak_resident_pages: u64,
    /// Resident pages per memory node.
    resident_by_node: [u64; MAX_MEM_NODES],
    /// The page-home memo (see the module docs): `(base, len, node)` spans
    /// as [`AddressSpace::place`] resolved them; an empty slot has `len` 0
    /// and holds no address.
    homes: [(u64, u64, NodeId); PAGE_HOMES],
}

impl AddressSpace {
    /// Create a single-node address space with the given page size (every
    /// page homed on node 0).
    pub fn new(page_bytes: u64) -> Self {
        Self::with_placement(page_bytes, 1, PlacementPolicy::LocalOnly)
    }

    /// Create an address space placing pages over `num_nodes` memory nodes
    /// per `placement`.
    pub fn with_placement(page_bytes: u64, num_nodes: usize, placement: PlacementPolicy) -> Self {
        AddressSpace {
            page_bytes,
            page_shift: page_bytes.trailing_zeros(),
            placement: Placement {
                policy: placement,
                num_nodes: num_nodes.clamp(1, MAX_MEM_NODES),
                pages_assigned: 0,
                local_assigned: 0,
                remote_assigned: 0,
            },
            regions: BTreeMap::new(),
            next_free: HEAP_BASE,
            resident_pages: 0,
            peak_resident_pages: 0,
            resident_by_node: [0; MAX_MEM_NODES],
            homes: [(0, 0, 0); PAGE_HOMES],
        }
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// Number of memory nodes pages are placed on.
    pub fn num_nodes(&self) -> usize {
        self.placement.num_nodes
    }

    /// The placement policy in force.
    pub fn placement(&self) -> PlacementPolicy {
        self.placement.policy
    }

    /// Allocate `len` bytes under `name`. Returns the region descriptor.
    pub fn alloc(&mut self, name: &str, len: u64) -> Result<Region> {
        if self.regions.values().any(|r| r.region.name == name && !r.freed) {
            return Err(SimError::DuplicateRegion(name.to_string()));
        }
        let len_rounded = len.div_ceil(self.page_bytes) * self.page_bytes;
        let start = self.next_free;
        let end = start.checked_add(len_rounded).ok_or(SimError::OutOfAddressSpace)?;
        // Leave a guard page between allocations so regions are visually
        // separated in address-scatter plots, like distinct mmap segments.
        self.next_free = end + self.page_bytes;
        let region = Region { name: name.to_string(), start, len };
        let pages = (len_rounded >> self.page_shift) as usize;
        self.regions.insert(
            start,
            RegionState {
                region: region.clone(),
                nodes: vec![NODE_UNASSIGNED; pages],
                touched_pages: 0,
                touched_by_node: [0; MAX_MEM_NODES],
                freed: false,
            },
        );
        Ok(region)
    }

    /// Free a region by name. Its resident pages are returned to the system.
    pub fn free(&mut self, name: &str) -> bool {
        let mut found = false;
        for st in self.regions.values_mut() {
            if st.region.name == name && !st.freed {
                st.freed = true;
                self.resident_pages = self.resident_pages.saturating_sub(st.touched_pages);
                for (node, count) in st.touched_by_node.iter_mut().enumerate() {
                    self.resident_by_node[node] =
                        self.resident_by_node[node].saturating_sub(*count);
                    *count = 0;
                }
                st.touched_pages = 0;
                st.nodes.iter_mut().for_each(|n| *n = NODE_UNASSIGNED);
                found = true;
            }
        }
        if found {
            self.homes = [(0, 0, 0); PAGE_HOMES];
        }
        found
    }

    /// Resolve the home of `addr`'s page, homing the page per the placement
    /// policy if this is its first touch. Returns `None` for addresses
    /// outside every live region (such accesses are served by node 0 and do
    /// not count toward residency), and for an address past an unrounded
    /// region length, as [`Region::contains`] has it.
    #[inline]
    pub fn place(&mut self, addr: u64) -> Option<PageHome> {
        let slot = (addr >> self.page_shift) as usize % PAGE_HOMES;
        let (base, len, node) = self.homes[slot];
        if addr.wrapping_sub(base) < len {
            return Some(PageHome { node, first_touch: false });
        }
        self.place_in_table(addr, slot)
    }

    /// [`AddressSpace::place`] for a page the memo does not hold: the
    /// region lookup, the first touch if it is one, and the answer filed in
    /// memo slot `slot`.
    fn place_in_table(&mut self, addr: u64, slot: usize) -> Option<PageHome> {
        // Find the region containing addr: last region starting at or below addr.
        let (_, st) = self.regions.range_mut(..=addr).next_back()?;
        if st.freed || !st.region.contains(addr) {
            return None;
        }
        let page = ((addr - st.region.start) >> self.page_shift) as usize;
        let base = st.region.start + ((page as u64) << self.page_shift);
        let len = self.page_bytes.min(st.region.end() - base);
        let home = if st.nodes[page] != NODE_UNASSIGNED {
            PageHome { node: st.nodes[page], first_touch: false }
        } else {
            let node = self.placement.assign();
            st.touched_pages += 1;
            st.touched_by_node[node as usize] += 1;
            st.nodes[page] = node;
            self.resident_pages += 1;
            self.resident_by_node[node as usize] += 1;
            self.peak_resident_pages = self.peak_resident_pages.max(self.resident_pages);
            PageHome { node, first_touch: true }
        };
        self.homes[slot] = (base, len, home.node);
        Some(home)
    }

    /// Record a touch of `addr`; returns true if this was the first touch of
    /// its page (i.e. the page just became resident). Equivalent to
    /// [`AddressSpace::place`] ignoring the home node.
    pub fn touch(&mut self, addr: u64) -> bool {
        self.place(addr).is_some_and(|h| h.first_touch)
    }

    /// Re-home the resident page containing `addr` onto `dst`, updating the
    /// per-node residency accounting. Returns `None` (and changes nothing)
    /// when the address lies outside every live region, the page has never
    /// been touched (an unmapped page cannot be migrated), `dst` is not a
    /// node pages are placed on, or the page already lives on `dst`.
    ///
    /// Migration does not disturb the placement-policy counters: pages
    /// first-touched after a migration are still placed as if no migration
    /// had happened, exactly like Linux `move_pages(2)` versus the NUMA
    /// memory policy.
    pub fn migrate_page(&mut self, addr: u64, dst: NodeId) -> Option<PageMigration> {
        if dst as usize >= self.placement.num_nodes {
            return None;
        }
        let (_, st) = self.regions.range_mut(..=addr).next_back()?;
        if st.freed || !st.region.contains(addr) {
            return None;
        }
        let page = ((addr - st.region.start) >> self.page_shift) as usize;
        let from = st.nodes[page];
        if from == NODE_UNASSIGNED || from == dst {
            return None;
        }
        st.nodes[page] = dst;
        st.touched_by_node[from as usize] -= 1;
        st.touched_by_node[dst as usize] += 1;
        self.resident_by_node[from as usize] -= 1;
        self.resident_by_node[dst as usize] += 1;
        self.homes = [(0, 0, 0); PAGE_HOMES];
        let page_addr = st.region.start + ((page as u64) << self.page_shift);
        Some(PageMigration { page_addr, from, to: dst, bytes: self.page_bytes })
    }

    /// The home node of `addr`'s page, if the page is resident.
    pub fn node_of(&self, addr: u64) -> Option<NodeId> {
        let (_, st) = self.regions.range(..=addr).next_back()?;
        if st.freed || !st.region.contains(addr) {
            return None;
        }
        let page = ((addr - st.region.start) >> self.page_shift) as usize;
        let node = st.nodes[page];
        (node != NODE_UNASSIGNED).then_some(node)
    }

    /// Current resident set size in bytes.
    pub fn rss_bytes(&self) -> u64 {
        self.resident_pages * self.page_bytes
    }

    /// Current resident set size per memory node, bytes; the split sums to
    /// [`AddressSpace::rss_bytes`].
    pub fn rss_bytes_by_node(&self) -> [u64; MAX_MEM_NODES] {
        self.resident_by_node.map(|pages| pages * self.page_bytes)
    }

    /// Peak resident set size in bytes.
    pub fn peak_rss_bytes(&self) -> u64 {
        self.peak_resident_pages * self.page_bytes
    }

    /// Look up the region containing `addr`, if any.
    pub fn region_of(&self, addr: u64) -> Option<Region> {
        self.regions
            .range(..=addr)
            .next_back()
            .filter(|(_, st)| !st.freed && st.region.contains(addr))
            .map(|(_, st)| st.region.clone())
    }

    /// Snapshot of all live regions.
    pub fn regions(&self) -> Vec<Region> {
        self.regions.values().filter(|st| !st.freed).map(|st| st.region.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_assigns_disjoint_page_aligned_regions() {
        let mut vm = AddressSpace::new(4096);
        let a = vm.alloc("a", 10_000).unwrap();
        let b = vm.alloc("b", 10_000).unwrap();
        assert_eq!(a.start % 4096, 0);
        assert_eq!(b.start % 4096, 0);
        assert!(b.start >= a.start + 12288, "page-rounded plus guard page");
        assert!(!a.contains(b.start));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut vm = AddressSpace::new(4096);
        vm.alloc("a", 100).unwrap();
        assert!(matches!(vm.alloc("a", 100), Err(SimError::DuplicateRegion(_))));
        // After freeing, the name can be reused.
        assert!(vm.free("a"));
        vm.alloc("a", 100).unwrap();
    }

    #[test]
    fn first_touch_accounting() {
        let mut vm = AddressSpace::new(4096);
        let a = vm.alloc("a", 3 * 4096).unwrap();
        assert_eq!(vm.rss_bytes(), 0);
        assert!(vm.touch(a.start));
        assert!(!vm.touch(a.start + 8), "same page is not a first touch");
        assert!(vm.touch(a.start + 4096));
        assert_eq!(vm.rss_bytes(), 2 * 4096);
        assert!(vm.touch(a.start + 2 * 4096));
        assert_eq!(vm.rss_bytes(), 3 * 4096);
        assert_eq!(vm.peak_rss_bytes(), 3 * 4096);
    }

    #[test]
    fn touch_outside_any_region_is_ignored() {
        let mut vm = AddressSpace::new(4096);
        let a = vm.alloc("a", 4096).unwrap();
        assert!(!vm.touch(a.start - 1));
        assert!(!vm.touch(a.end() + 4096 * 10));
        assert!(vm.place(a.start - 1).is_none());
        assert_eq!(vm.rss_bytes(), 0);
    }

    #[test]
    fn free_releases_resident_pages() {
        let mut vm = AddressSpace::new(4096);
        let a = vm.alloc("a", 4 * 4096).unwrap();
        for p in 0..4u64 {
            vm.touch(a.start + p * 4096);
        }
        assert_eq!(vm.rss_bytes(), 4 * 4096);
        vm.free("a");
        assert_eq!(vm.rss_bytes(), 0);
        assert_eq!(vm.peak_rss_bytes(), 4 * 4096, "peak is sticky");
        assert!(vm.region_of(a.start).is_none());
    }

    #[test]
    fn region_lookup() {
        let mut vm = AddressSpace::new(4096);
        let a = vm.alloc("a", 4096).unwrap();
        let b = vm.alloc("b", 4096).unwrap();
        assert_eq!(vm.region_of(a.start + 100).unwrap().name, "a");
        assert_eq!(vm.region_of(b.start).unwrap().name, "b");
        assert!(vm.region_of(b.end() + 4096 * 2).is_none());
        assert_eq!(vm.regions().len(), 2);
    }

    #[test]
    fn local_only_homes_everything_on_node_0() {
        let mut vm = AddressSpace::with_placement(4096, 2, PlacementPolicy::LocalOnly);
        let a = vm.alloc("a", 8 * 4096).unwrap();
        for p in 0..8u64 {
            let home = vm.place(a.start + p * 4096).unwrap();
            assert_eq!(home.node, 0);
            assert!(home.first_touch);
        }
        let by_node = vm.rss_bytes_by_node();
        assert_eq!(by_node[0], 8 * 4096);
        assert_eq!(by_node[1], 0);
    }

    #[test]
    fn interleave_stripes_pages_across_nodes() {
        let mut vm = AddressSpace::with_placement(4096, 2, PlacementPolicy::Interleave);
        let a = vm.alloc("a", 8 * 4096).unwrap();
        let homes: Vec<NodeId> =
            (0..8u64).map(|p| vm.place(a.start + p * 4096).unwrap().node).collect();
        assert_eq!(homes, vec![0, 1, 0, 1, 0, 1, 0, 1]);
        let by_node = vm.rss_bytes_by_node();
        assert_eq!(by_node[0], 4 * 4096);
        assert_eq!(by_node[1], 4 * 4096);
    }

    #[test]
    fn place_is_stable_after_first_touch() {
        let mut vm = AddressSpace::with_placement(4096, 2, PlacementPolicy::Interleave);
        let a = vm.alloc("a", 4 * 4096).unwrap();
        let first = vm.place(a.start + 4096).unwrap();
        assert!(first.first_touch);
        for _ in 0..3 {
            let again = vm.place(a.start + 4096 + 8).unwrap();
            assert!(!again.first_touch);
            assert_eq!(again.node, first.node, "home is sticky");
        }
        assert_eq!(vm.node_of(a.start + 4096), Some(first.node));
        assert_eq!(vm.node_of(a.start), None, "untouched page has no home yet");
    }

    #[test]
    fn tier_split_respects_the_local_fraction() {
        for (fraction, expect_local) in [(1.0, 100u64), (0.75, 75), (0.5, 50), (0.0, 0)] {
            let mut vm = AddressSpace::with_placement(
                4096,
                2,
                PlacementPolicy::TierSplit { local_fraction: fraction },
            );
            let a = vm.alloc("a", 100 * 4096).unwrap();
            for p in 0..100u64 {
                vm.place(a.start + p * 4096).unwrap();
            }
            let by_node = vm.rss_bytes_by_node();
            assert_eq!(by_node[0] / 4096, expect_local, "fraction {fraction}");
            assert_eq!(by_node[1] / 4096, 100 - expect_local, "fraction {fraction}");
        }
    }

    #[test]
    fn tier_split_spreads_the_remote_share_round_robin() {
        let mut vm = AddressSpace::with_placement(
            4096,
            3,
            PlacementPolicy::TierSplit { local_fraction: 0.0 },
        );
        let a = vm.alloc("a", 6 * 4096).unwrap();
        let homes: Vec<NodeId> =
            (0..6u64).map(|p| vm.place(a.start + p * 4096).unwrap().node).collect();
        assert_eq!(homes, vec![1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn migrate_page_rehomes_and_keeps_rss_consistent() {
        let mut vm = AddressSpace::with_placement(4096, 2, PlacementPolicy::Interleave);
        let a = vm.alloc("a", 4 * 4096).unwrap();
        for p in 0..4u64 {
            vm.place(a.start + p * 4096).unwrap();
        }
        // Page 0 went to node 0 under Interleave; move it to node 1.
        let mig = vm.migrate_page(a.start + 17, 1).expect("resident page migrates");
        assert_eq!(mig.page_addr, a.start, "page base address, not the probed one");
        assert_eq!((mig.from, mig.to, mig.bytes), (0, 1, 4096));
        assert_eq!(vm.node_of(a.start), Some(1), "home is updated");
        let (total, by_node) = (vm.rss_bytes(), vm.rss_bytes_by_node());
        assert_eq!(total, 4 * 4096, "migration moves pages, not residency");
        assert_eq!(by_node[0], 4096);
        assert_eq!(by_node[1], 3 * 4096);
        // Moving it back restores the split.
        let back = vm.migrate_page(a.start, 0).unwrap();
        assert_eq!((back.from, back.to), (1, 0));
        assert_eq!(vm.rss_bytes_by_node()[0], 2 * 4096);
        // Re-touching the page after migration is not a first touch and
        // resolves to the migrated home.
        let home = vm.place(a.start + 8).unwrap();
        assert!(!home.first_touch);
        assert_eq!(home.node, 0);
    }

    #[test]
    fn migrate_page_rejects_invalid_targets() {
        let mut vm = AddressSpace::with_placement(4096, 2, PlacementPolicy::LocalOnly);
        let a = vm.alloc("a", 2 * 4096).unwrap();
        vm.place(a.start).unwrap();
        assert!(vm.migrate_page(a.start, 0).is_none(), "already home");
        assert!(vm.migrate_page(a.start, 5).is_none(), "no such node");
        assert!(vm.migrate_page(a.start + 4096, 1).is_none(), "untouched page");
        assert!(vm.migrate_page(a.end() + 4096 * 4, 1).is_none(), "outside every region");
        vm.free("a");
        assert!(vm.migrate_page(a.start, 1).is_none(), "freed region");
        assert_eq!(vm.rss_bytes_by_node(), [0; MAX_MEM_NODES]);
    }

    #[test]
    fn migration_does_not_disturb_placement_counters() {
        let mut vm = AddressSpace::with_placement(4096, 2, PlacementPolicy::Interleave);
        let a = vm.alloc("a", 8 * 4096).unwrap();
        vm.place(a.start).unwrap(); // node 0
        vm.place(a.start + 4096).unwrap(); // node 1
        vm.migrate_page(a.start, 1).unwrap();
        // The next first touch continues the round-robin as if no migration
        // had happened.
        assert_eq!(vm.place(a.start + 2 * 4096).unwrap().node, 0);
        assert_eq!(vm.place(a.start + 3 * 4096).unwrap().node, 1);
    }

    #[test]
    fn free_releases_per_node_counts() {
        let mut vm = AddressSpace::with_placement(4096, 2, PlacementPolicy::Interleave);
        let a = vm.alloc("a", 4 * 4096).unwrap();
        for p in 0..4u64 {
            vm.place(a.start + p * 4096).unwrap();
        }
        assert_eq!(vm.rss_bytes_by_node()[1], 2 * 4096);
        vm.free("a");
        assert_eq!(vm.rss_bytes_by_node(), [0; MAX_MEM_NODES]);
        assert_eq!(vm.rss_bytes(), 0);
    }
}
