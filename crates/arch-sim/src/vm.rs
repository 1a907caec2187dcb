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
//! ## The generation
//!
//! A core remembers the homes it has resolved (the engine's page-home
//! table), so it takes the `vm.inner` lock once per page it enters rather
//! than once per access. What it remembers stays true until a page loses or
//! changes its home, and only two calls do that: [`AddressSpace::free`] and
//! [`AddressSpace::migrate_page`]. Each bumps the address space's
//! *generation* (a `Release` increment, made while it still holds the write
//! lock its change was made under). The reader's side of the contract, in
//! this order: load the generation (`Acquire`), forget everything remembered
//! under another one, and only then consult the table or call `place_span`
//! — whose answer is filed under the generation loaded *before* the call.
//! An answer that a concurrent free or migration overtook is therefore filed
//! under a generation that is already past, and dies at the core's next
//! memory-bound access. `alloc` and a first touch bump nothing: they give
//! homes to addresses that had none, and a core remembers no address without
//! a home.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use crate::config::{PlacementPolicy, MAX_MEM_NODES};
use crate::op::NodeId;
use crate::{Result, SimError};

/// Base virtual address of the simulated heap. Chosen to look like a typical
/// Linux arm64 mmap region so plotted addresses resemble the paper's figures.
pub const HEAP_BASE: u64 = 0xffff_0000_0000;

/// Sentinel for a page that has not been homed yet.
const NODE_UNASSIGNED: u8 = u8::MAX;

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

#[derive(Debug)]
struct RegionState {
    region: Region,
    /// One bit per page: has the page been touched?
    touched: Vec<u64>,
    /// The home node of each page (NODE_UNASSIGNED until first touch).
    nodes: Vec<u8>,
    touched_pages: u64,
    /// Touched pages per memory node (released on free).
    touched_by_node: [u64; MAX_MEM_NODES],
    freed: bool,
}

#[derive(Debug, Default)]
struct Inner {
    /// Regions keyed by start address for range lookup.
    regions: BTreeMap<u64, RegionState>,
    next_free: u64,
    resident_pages: u64,
    peak_resident_pages: u64,
    /// Resident pages per memory node.
    resident_by_node: [u64; MAX_MEM_NODES],
    /// Pages assigned a home so far (placement-policy state).
    pages_assigned: u64,
    /// Pages assigned to node 0 so far (TierSplit state).
    local_assigned: u64,
    /// Pages assigned to remote nodes so far (TierSplit round-robin state).
    remote_assigned: u64,
}

/// The simulated process address space.
#[derive(Debug)]
pub struct AddressSpace {
    page_bytes: u64,
    page_shift: u32,
    capacity_bytes: u64,
    num_nodes: usize,
    placement: PlacementPolicy,
    inner: RwLock<Inner>,
    /// Bumped by every change that takes a home away from a page or gives it
    /// another (see the module docs).
    generation: AtomicU64,
}

impl AddressSpace {
    /// Create a single-node address space with the given page size and
    /// physical capacity (every page homed on node 0).
    pub fn new(page_bytes: u64, capacity_bytes: u64) -> Self {
        Self::with_placement(page_bytes, capacity_bytes, 1, PlacementPolicy::LocalOnly)
    }

    /// Create an address space placing pages over `num_nodes` memory nodes
    /// per `placement`.
    pub fn with_placement(
        page_bytes: u64,
        capacity_bytes: u64,
        num_nodes: usize,
        placement: PlacementPolicy,
    ) -> Self {
        AddressSpace {
            page_bytes,
            page_shift: page_bytes.trailing_zeros(),
            capacity_bytes,
            num_nodes: num_nodes.clamp(1, MAX_MEM_NODES),
            placement,
            inner: RwLock::named(Inner { next_free: HEAP_BASE, ..Default::default() }, "vm.inner"),
            generation: AtomicU64::new(0),
        }
    }

    /// The generation of page homes: anything resolved under an earlier one
    /// may no longer hold (see the module docs for the order of reads).
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// `log2` of the page size.
    pub(crate) fn page_shift(&self) -> u32 {
        self.page_shift
    }

    /// Number of memory nodes pages are placed on.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The placement policy in force.
    pub fn placement(&self) -> PlacementPolicy {
        self.placement
    }

    /// Allocate `len` bytes under `name`. Returns the region descriptor.
    pub fn alloc(&self, name: &str, len: u64) -> Result<Region> {
        let mut inner = self.inner.write();
        if inner.regions.values().any(|r| r.region.name == name && !r.freed) {
            return Err(SimError::DuplicateRegion(name.to_string()));
        }
        let len_rounded = len.div_ceil(self.page_bytes) * self.page_bytes;
        let start = inner.next_free;
        let end = start.checked_add(len_rounded).ok_or(SimError::OutOfAddressSpace)?;
        // Leave a guard page between allocations so regions are visually
        // separated in address-scatter plots, like distinct mmap segments.
        inner.next_free = end + self.page_bytes;
        let region = Region { name: name.to_string(), start, len };
        let pages = (len_rounded >> self.page_shift) as usize;
        inner.regions.insert(
            start,
            RegionState {
                region: region.clone(),
                touched: vec![0u64; pages.div_ceil(64)],
                nodes: vec![NODE_UNASSIGNED; pages],
                touched_pages: 0,
                touched_by_node: [0; MAX_MEM_NODES],
                freed: false,
            },
        );
        Ok(region)
    }

    /// Free a region by name. Its resident pages are returned to the system.
    pub fn free(&self, name: &str) -> bool {
        let mut inner = self.inner.write();
        let mut found = false;
        let mut released = 0;
        let mut released_by_node = [0u64; MAX_MEM_NODES];
        for st in inner.regions.values_mut() {
            if st.region.name == name && !st.freed {
                st.freed = true;
                released += st.touched_pages;
                for (node, count) in st.touched_by_node.iter_mut().enumerate() {
                    released_by_node[node] += *count;
                    *count = 0;
                }
                st.touched_pages = 0;
                st.touched.iter_mut().for_each(|w| *w = 0);
                st.nodes.iter_mut().for_each(|n| *n = NODE_UNASSIGNED);
                found = true;
            }
        }
        inner.resident_pages = inner.resident_pages.saturating_sub(released);
        for (node, count) in released_by_node.iter().enumerate() {
            inner.resident_by_node[node] = inner.resident_by_node[node].saturating_sub(*count);
        }
        if found {
            self.generation.fetch_add(1, Ordering::Release);
        }
        found
    }

    /// Pick the home node for a page just being touched, advancing the
    /// placement-policy counters.
    fn assign_node(
        &self,
        pages_assigned: &mut u64,
        local_assigned: &mut u64,
        remote_assigned: &mut u64,
    ) -> NodeId {
        let nodes = self.num_nodes as u64;
        let node = if nodes <= 1 {
            0
        } else {
            match self.placement {
                PlacementPolicy::LocalOnly => 0,
                PlacementPolicy::Interleave => (*pages_assigned % nodes) as NodeId,
                PlacementPolicy::TierSplit { local_fraction } => {
                    let frac = local_fraction.clamp(0.0, 1.0);
                    let target_local = frac * (*pages_assigned + 1) as f64;
                    if (*local_assigned as f64) < target_local {
                        *local_assigned += 1;
                        0
                    } else {
                        let remote = 1 + (*remote_assigned % (nodes - 1)) as NodeId;
                        *remote_assigned += 1;
                        remote
                    }
                }
            }
        };
        *pages_assigned += 1;
        node
    }

    /// Resolve the home of `addr`'s page, homing the page per the placement
    /// policy if this is its first touch. Returns `None` for addresses
    /// outside every live region (such accesses are served by node 0 and do
    /// not count toward residency).
    pub fn place(&self, addr: u64) -> Option<PageHome> {
        self.place_span(addr).map(|(home, _, _)| home)
    }

    /// [`AddressSpace::place`], plus the span the answer holds for as
    /// `(base, len)`: the page's part of its region, `[page start, min(page
    /// end, region end))`. An address past an unrounded region length is in
    /// no span, as [`Region::contains`] has it.
    pub(crate) fn place_span(&self, addr: u64) -> Option<(PageHome, u64, u64)> {
        let mut inner = self.inner.write();
        let Inner {
            regions,
            resident_pages,
            peak_resident_pages,
            resident_by_node,
            pages_assigned,
            local_assigned,
            remote_assigned,
            next_free: _,
        } = &mut *inner;
        // Find the region containing addr: last region starting at or below addr.
        let (_, st) = regions.range_mut(..=addr).next_back()?;
        if st.freed || !st.region.contains(addr) {
            return None;
        }
        let page = ((addr - st.region.start) >> self.page_shift) as usize;
        let base = st.region.start + ((page as u64) << self.page_shift);
        let len = self.page_bytes.min(st.region.end() - base);
        let (word, bit) = (page / 64, page % 64);
        if st.touched[word] & (1 << bit) != 0 {
            return Some((PageHome { node: st.nodes[page], first_touch: false }, base, len));
        }
        let node = self.assign_node(pages_assigned, local_assigned, remote_assigned);
        st.touched[word] |= 1 << bit;
        st.touched_pages += 1;
        st.touched_by_node[node as usize] += 1;
        st.nodes[page] = node;
        *resident_pages += 1;
        resident_by_node[node as usize] += 1;
        *peak_resident_pages = (*peak_resident_pages).max(*resident_pages);
        Some((PageHome { node, first_touch: true }, base, len))
    }

    /// Record a touch of `addr`; returns true if this was the first touch of
    /// its page (i.e. the page just became resident). Equivalent to
    /// [`AddressSpace::place`] ignoring the home node.
    pub fn touch(&self, addr: u64) -> bool {
        self.place(addr).map(|h| h.first_touch).unwrap_or(false)
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
    pub fn migrate_page(&self, addr: u64, dst: NodeId) -> Option<PageMigration> {
        if dst as usize >= self.num_nodes {
            return None;
        }
        let mut inner = self.inner.write();
        let Inner { regions, resident_by_node, .. } = &mut *inner;
        let (_, st) = regions.range_mut(..=addr).next_back()?;
        if st.freed || !st.region.contains(addr) {
            return None;
        }
        let page = ((addr - st.region.start) >> self.page_shift) as usize;
        let (word, bit) = (page / 64, page % 64);
        if st.touched[word] & (1 << bit) == 0 {
            return None;
        }
        let from = st.nodes[page];
        if from == dst {
            return None;
        }
        st.nodes[page] = dst;
        st.touched_by_node[from as usize] -= 1;
        st.touched_by_node[dst as usize] += 1;
        resident_by_node[from as usize] -= 1;
        resident_by_node[dst as usize] += 1;
        self.generation.fetch_add(1, Ordering::Release);
        let page_addr = st.region.start + ((page as u64) << self.page_shift);
        Some(PageMigration { page_addr, from, to: dst, bytes: self.page_bytes })
    }

    /// The home node of `addr`'s page, if the page is resident.
    pub fn node_of(&self, addr: u64) -> Option<NodeId> {
        let inner = self.inner.read();
        let (_, st) = inner.regions.range(..=addr).next_back()?;
        if st.freed || !st.region.contains(addr) {
            return None;
        }
        let page = ((addr - st.region.start) >> self.page_shift) as usize;
        let node = st.nodes[page];
        (node != NODE_UNASSIGNED).then_some(node)
    }

    /// Current resident set size in bytes.
    pub fn rss_bytes(&self) -> u64 {
        self.inner.read().resident_pages * self.page_bytes
    }

    /// Current resident set size per memory node, bytes.
    pub fn rss_bytes_by_node(&self) -> [u64; MAX_MEM_NODES] {
        self.rss_snapshot().1
    }

    /// Consistent `(total, per-node)` RSS reading under one lock
    /// acquisition — the per-node split always sums to the total, even
    /// while other cores are first-touching pages concurrently.
    pub fn rss_snapshot(&self) -> (u64, [u64; MAX_MEM_NODES]) {
        let inner = self.inner.read();
        let mut by_node = [0u64; MAX_MEM_NODES];
        for (node, pages) in inner.resident_by_node.iter().enumerate() {
            by_node[node] = pages * self.page_bytes;
        }
        (inner.resident_pages * self.page_bytes, by_node)
    }

    /// Peak resident set size in bytes.
    pub fn peak_rss_bytes(&self) -> u64 {
        self.inner.read().peak_resident_pages * self.page_bytes
    }

    /// Fraction of physical capacity currently resident (0.0–1.0+).
    pub fn utilization(&self) -> f64 {
        self.rss_bytes() as f64 / self.capacity_bytes as f64
    }

    /// Look up the region containing `addr`, if any.
    pub fn region_of(&self, addr: u64) -> Option<Region> {
        let inner = self.inner.read();
        inner
            .regions
            .range(..=addr)
            .next_back()
            .filter(|(_, st)| !st.freed && st.region.contains(addr))
            .map(|(_, st)| st.region.clone())
    }

    /// Snapshot of all live regions.
    pub fn regions(&self) -> Vec<Region> {
        self.inner
            .read()
            .regions
            .values()
            .filter(|st| !st.freed)
            .map(|st| st.region.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_assigns_disjoint_page_aligned_regions() {
        let vm = AddressSpace::new(4096, 1 << 30);
        let a = vm.alloc("a", 10_000).unwrap();
        let b = vm.alloc("b", 10_000).unwrap();
        assert_eq!(a.start % 4096, 0);
        assert_eq!(b.start % 4096, 0);
        assert!(b.start >= a.start + 12288, "page-rounded plus guard page");
        assert!(!a.contains(b.start));
    }

    #[test]
    fn duplicate_names_rejected() {
        let vm = AddressSpace::new(4096, 1 << 30);
        vm.alloc("a", 100).unwrap();
        assert!(matches!(vm.alloc("a", 100), Err(SimError::DuplicateRegion(_))));
        // After freeing, the name can be reused.
        assert!(vm.free("a"));
        vm.alloc("a", 100).unwrap();
    }

    #[test]
    fn first_touch_accounting() {
        let vm = AddressSpace::new(4096, 1 << 30);
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
        let vm = AddressSpace::new(4096, 1 << 30);
        let a = vm.alloc("a", 4096).unwrap();
        assert!(!vm.touch(a.start - 1));
        assert!(!vm.touch(a.end() + 4096 * 10));
        assert!(vm.place(a.start - 1).is_none());
        assert_eq!(vm.rss_bytes(), 0);
    }

    #[test]
    fn free_releases_resident_pages() {
        let vm = AddressSpace::new(4096, 1 << 30);
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
        let vm = AddressSpace::new(4096, 1 << 30);
        let a = vm.alloc("a", 4096).unwrap();
        let b = vm.alloc("b", 4096).unwrap();
        assert_eq!(vm.region_of(a.start + 100).unwrap().name, "a");
        assert_eq!(vm.region_of(b.start).unwrap().name, "b");
        assert!(vm.region_of(b.end() + 4096 * 2).is_none());
        assert_eq!(vm.regions().len(), 2);
    }

    #[test]
    fn utilization_fraction() {
        let vm = AddressSpace::new(4096, 8 * 4096);
        let a = vm.alloc("a", 4 * 4096).unwrap();
        for p in 0..4u64 {
            vm.touch(a.start + p * 4096);
        }
        assert!((vm.utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn local_only_homes_everything_on_node_0() {
        let vm = AddressSpace::with_placement(4096, 1 << 30, 2, PlacementPolicy::LocalOnly);
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
        let vm = AddressSpace::with_placement(4096, 1 << 30, 2, PlacementPolicy::Interleave);
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
        let vm = AddressSpace::with_placement(4096, 1 << 30, 2, PlacementPolicy::Interleave);
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
            let vm = AddressSpace::with_placement(
                4096,
                1 << 30,
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
        let vm = AddressSpace::with_placement(
            4096,
            1 << 30,
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
        let vm = AddressSpace::with_placement(4096, 1 << 30, 2, PlacementPolicy::Interleave);
        let a = vm.alloc("a", 4 * 4096).unwrap();
        for p in 0..4u64 {
            vm.place(a.start + p * 4096).unwrap();
        }
        // Page 0 went to node 0 under Interleave; move it to node 1.
        let mig = vm.migrate_page(a.start + 17, 1).expect("resident page migrates");
        assert_eq!(mig.page_addr, a.start, "page base address, not the probed one");
        assert_eq!((mig.from, mig.to, mig.bytes), (0, 1, 4096));
        assert_eq!(vm.node_of(a.start), Some(1), "home is updated");
        let (total, by_node) = vm.rss_snapshot();
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
        let vm = AddressSpace::with_placement(4096, 1 << 30, 2, PlacementPolicy::LocalOnly);
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
        let vm = AddressSpace::with_placement(4096, 1 << 30, 2, PlacementPolicy::Interleave);
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
        let vm = AddressSpace::with_placement(4096, 1 << 30, 2, PlacementPolicy::Interleave);
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
