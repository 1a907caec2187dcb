//! Set-associative cache model with LRU replacement.
//!
//! The model tracks only tags (no data): the workloads perform their real
//! computation on host memory, and the cache model exists to classify each
//! access into the level that would have served it and to account bus traffic.
//! Write-allocate, write-back behaviour is approximated: stores allocate
//! lines like loads, and dirty evictions generate write-back bus traffic at
//! the level that evicts to DRAM.
//!
//! ## Layout
//!
//! A way is one word, `line << 2 | DIRTY | VALID`, where `line` is the whole
//! line index (`addr >> log2(line_bytes)`, set bits included) and 0 is an
//! empty way. [`CacheLevelConfig::validate`] keeps `line_bytes >= 4`, so the
//! two top bits of a line index are free for every `u64` address. A lookup
//! masks `DIRTY` off and compares one word per way: a 16-way set is 128
//! bytes, two host cache lines.
//!
//! Recency is one more word per set, the *order word*: the set's ways listed
//! from most to least recently used, one 4-bit way index per position,
//! position 0 (the low nibble) the most recent. The word has 16 positions,
//! so a set has at most 16 ways ([`CacheLevelConfig::validate`] enforces
//! it); the positions past a smaller set's ways hold `0xF`, which names none
//! of them. Empty ways always sit behind every valid one — a new set lists
//! its ways in reverse, way 0 last, and an access only ever moves a valid
//! way to the front — so the last position is the first empty way if there
//! is one, else the least recently used: the victim, read without a scan.
//! This is exact LRU, the same lines evicted as by a timestamp per way. A
//! 16-way set's tags and order word are 136 bytes, where tags and stamps
//! were 256.
//!
//! ## The two halves of an access
//!
//! [`Cache::access`] is `touch`, or else `fill`. `touch` is everything a hit
//! needs — the set, the way compare, the move to the front of the order
//! word, the dirty bit — and is small enough to inline into whoever calls
//! it, another crate's loop included. It compares the most recently used
//! way first, and a hit there writes nothing but a store's dirty bit; any
//! other hit scans the ways in order and rotates the one it found to the
//! front with a few shifts. The first compare is a measured trade: it
//! catches 45 % of PageRank's L1 touches and none of STREAM's (its three
//! arrays share a set), and without it `sim_pagerank_p4096` ran 7.7 %
//! slower and `sim_stream_p64_live` 5 % faster (2-vCPU Xeon host). Scanning the order word's
//! positions instead of the tags needs no first compare and no nibble
//! search, but was no faster end to end and slower in isolation (see
//! ROADMAP, "Struck on measurement").
//!
//! `touch` is `#[inline(always)]`: left to the heuristic, the engine's
//! `past_l1` calls one outlined copy for the L2 and the SLC, ≈ 2–3 ns of an
//! access that misses every level. `fill` is the miss — the lazily allocated arrays, the victim in the last
//! position, the write, the rotation — and stays out of line. The engine
//! drives its L1 through the halves directly so that the hit never leaves
//! the workload's loop (see [`crate::engine`]); every other cache goes
//! through `access`.

use crate::config::CacheLevelConfig;

/// Result of a cache lookup-and-fill operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the line was present before the access.
    pub hit: bool,
    /// Whether a dirty line was evicted to make room (write-back traffic).
    pub dirty_eviction: bool,
}

/// The way holds a line.
const VALID: u64 = 1;
/// The line was written since it was filled.
const DIRTY: u64 = 2;

/// A 1 in every nibble of an order word.
const NIBBLES: u64 = 0x1111_1111_1111_1111;

/// A single set-associative cache (one level) with exact LRU
/// replacement. At most 16-way: a set's recency order is one word of 4-bit
/// way indices (see the module docs).
#[derive(Debug, Clone)]
pub struct Cache {
    /// The tag array, `sets * ways` words (see the module docs) — allocated
    /// by the first miss (`fill`) with `order`, so a machine pays for the
    /// caches of the cores it runs, not of the 128 it has.
    tags: Vec<u64>,
    /// One order word per set: its ways from most to least recently used,
    /// a nibble each, `0xF` past the last (see the module docs).
    order: Vec<u64>,
    sets: u64,
    ways: usize,
    line_shift: u32,
}

impl Cache {
    /// Build a cache with the given geometry; it indexes its sets with the
    /// low bits of the line index.
    ///
    /// Panics unless `cfg` has 1 to 16 ways, the most an order word lists.
    pub fn new(cfg: &CacheLevelConfig) -> Self {
        assert!((1..=16).contains(&cfg.ways), "a cache has 1 to 16 ways, not {}", cfg.ways);
        Cache {
            tags: Vec::new(),
            order: Vec::new(),
            sets: cfg.sets(),
            ways: cfg.ways as usize,
            line_shift: cfg.line_bytes.trailing_zeros(),
        }
    }

    /// The valid, clean tag word of `addr`'s line and the index of its set.
    #[inline]
    fn locate(&self, addr: u64) -> (u64, usize) {
        let line = addr >> self.line_shift;
        (line << 2 | VALID, (line & (self.sets - 1)) as usize)
    }

    /// The order word of a set with every way empty: way 0 last, so the
    /// first fills take the ways in index order.
    fn fresh_order(&self) -> u64 {
        (0..16).fold(0, |order, at| {
            let way = if at < self.ways { self.ways - 1 - at } else { 0xF };
            order | (way as u64) << (4 * at)
        })
    }

    /// Look up `addr`, filling the line on a miss. `write` marks the line
    /// dirty. `touch`, or else `fill`.
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool) -> CacheAccess {
        if self.touch(addr, write) {
            CacheAccess { hit: true, dirty_eviction: false }
        } else {
            self.fill(addr, write)
        }
    }

    /// The hit half of an access: if `addr`'s line is present, move its way
    /// to the front of the set's order word, mark it dirty on a `write` and
    /// answer `true`. On `false` the access is not over: the caller owes the
    /// [`Cache::fill`] of the same `addr` and `write`, before any other
    /// access.
    #[inline(always)]
    pub(crate) fn touch(&mut self, addr: u64, write: bool) -> bool {
        let (want, set) = self.locate(addr);
        // An untouched cache has no arrays yet: no way to compare, a miss.
        let Some(order) = self.order.get_mut(set) else { return false };
        let ways = &mut self.tags[set * self.ways..(set + 1) * self.ways];
        let dirty = if write { DIRTY } else { 0 };
        let mru = *order as usize & 0xF;
        if ways[mru] & !DIRTY == want {
            ways[mru] |= dirty;
            return true;
        }
        for (way, tag) in ways.iter_mut().enumerate() {
            if *tag & !DIRTY == want {
                *tag |= dirty;
                // The lowest nibble equal to `way` is its position: below
                // the first zero nibble of `seek` nothing borrows.
                let seek = *order ^ (way as u64 * NIBBLES);
                let found = seek.wrapping_sub(NIBBLES) & !seek & NIBBLES << 3;
                *order = to_front(*order, found.trailing_zeros() / 4);
                return true;
            }
        }
        false
    }

    /// The miss half, after a [`Cache::touch`] that answered `false`: put
    /// `addr`'s line into the way in its set's last position — the first
    /// empty way, else the least recently used — and move that way to the
    /// front. Allocates the arrays on first use.
    #[inline(never)]
    pub(crate) fn fill(&mut self, addr: u64, write: bool) -> CacheAccess {
        if self.tags.is_empty() {
            self.tags = vec![0; self.sets as usize * self.ways];
            self.order = vec![self.fresh_order(); self.sets as usize];
        }
        let (want, set) = self.locate(addr);
        let order = &mut self.order[set];
        let last = self.ways as u32 - 1;
        let victim = &mut self.tags[set * self.ways + (*order >> (4 * last) & 0xF) as usize];
        let dirty_eviction = *victim & DIRTY != 0;
        *victim = want | if write { DIRTY } else { 0 };
        *order = to_front(*order, last);
        CacheAccess { hit: false, dirty_eviction }
    }

    /// Probe without modifying state: is the line present?
    pub fn probe(&self, addr: u64) -> bool {
        let (want, set) = self.locate(addr);
        // An untouched cache has no tag array yet, and no line.
        self.tags
            .get(set * self.ways..(set + 1) * self.ways)
            .is_some_and(|ways| ways.iter().any(|tag| tag & !DIRTY == want))
    }

    /// Number of sets in this cache.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Whether the tag array exists yet.
    #[cfg(test)]
    pub(crate) fn is_allocated(&self) -> bool {
        !self.tags.is_empty()
    }
}

/// `order` with the way at position `at` moved to the front (position 0)
/// and the ways before it moved one back; the positions after it stay.
#[inline]
fn to_front(order: u64, at: u32) -> u64 {
    // Positions `0..=at`; at 15 the 1 is shifted out and this is every bit.
    let through = (16u64 << (4 * at)).wrapping_sub(1);
    order & !through | (order << 4) & through | order >> (4 * at) & 0xF
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheLevelConfig;

    fn tiny() -> CacheLevelConfig {
        // 4 sets x 2 ways x 64 B lines = 512 B.
        CacheLevelConfig {
            size_bytes: 512,
            line_bytes: 64,
            ways: 2,
            latency_cycles: 1,
            occupancy_cycles: 1,
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut c = Cache::new(&tiny());
        assert!(!c.access(0x1000, false).hit);
        assert!(c.access(0x1000, false).hit);
        assert!(c.access(0x1038, false).hit, "same 64B line");
        assert!(!c.access(0x1040, false).hit, "next line misses");
    }

    #[test]
    fn lru_replacement_within_set() {
        let mut c = Cache::new(&tiny());
        // Three addresses mapping to the same set (set stride = 4 sets * 64 B = 256 B).
        let a = 0x0000;
        let b = 0x0100;
        let d = 0x0200;
        c.access(a, false);
        c.access(b, false);
        // Touch `a` so `b` becomes LRU.
        c.access(a, false);
        c.access(d, false); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn dirty_eviction_reported() {
        // Four lines of one set (set stride = 4 sets * 64 B = 256 B).
        let (a, b, d, e) = (0x0000, 0x0100, 0x0200, 0x0300);
        let mut c = Cache::new(&tiny());
        c.access(a, true);
        c.access(b, false);
        let r = c.access(d, false); // evicts a (LRU), which is dirty
        assert!(r.dirty_eviction, "dirty LRU line must report write-back");
        let r2 = c.access(e, false); // evicts b, which is clean
        assert!(!r2.dirty_eviction, "clean LRU line must not report write-back");
    }

    #[test]
    fn untouched_cache_has_no_tag_array_and_answers_like_an_empty_one() {
        let mut c = Cache::new(&tiny());
        assert!(!c.is_allocated());
        assert!(!c.probe(0x1000));
        assert!(!c.is_allocated(), "a probe leaves an untouched cache untouched");
        assert!(!c.access(0x1000, false).hit);
        assert!(c.is_allocated());
        assert!(c.probe(0x1000));
    }

    /// The cache as it was before a way became one word — one `Line` struct
    /// per way, a `valid` and a `dirty` flag and an LRU timestamp each, the
    /// victim the first empty way, else the oldest stamp, the tag array
    /// allocated by the first access — kept as the oracle for the packed
    /// layout and the order word.
    #[derive(Debug, Clone, Copy, Default)]
    struct Line {
        tag: u64,
        valid: bool,
        dirty: bool,
        lru: u64,
    }

    struct LineCache {
        lines: Vec<Line>,
        sets: u64,
        ways: usize,
        line_shift: u32,
        stamp: u64,
    }

    impl LineCache {
        fn new(cfg: &CacheLevelConfig) -> Self {
            LineCache {
                lines: Vec::new(),
                sets: cfg.sets(),
                ways: cfg.ways as usize,
                line_shift: cfg.line_bytes.trailing_zeros(),
                stamp: 0,
            }
        }

        fn set_of(&self, addr: u64) -> std::ops::Range<usize> {
            let base = ((addr >> self.line_shift) & (self.sets - 1)) as usize * self.ways;
            base..base + self.ways
        }

        fn access(&mut self, addr: u64, write: bool) -> CacheAccess {
            self.stamp += 1;
            if self.lines.is_empty() {
                self.lines = vec![Line::default(); self.sets as usize * self.ways];
            }
            let tag = addr >> self.line_shift;
            let set = self.set_of(addr);
            let ways = &mut self.lines[set];
            for line in ways.iter_mut() {
                if line.valid && line.tag == tag {
                    line.lru = self.stamp;
                    line.dirty |= write;
                    return CacheAccess { hit: true, dirty_eviction: false };
                }
            }
            let mut victim = 0usize;
            let mut best = u64::MAX;
            for (i, line) in ways.iter().enumerate() {
                if !line.valid {
                    victim = i;
                    break;
                }
                if line.lru < best {
                    best = line.lru;
                    victim = i;
                }
            }
            let dirty_eviction = ways[victim].valid && ways[victim].dirty;
            ways[victim] = Line { tag, valid: true, dirty: write, lru: self.stamp };
            CacheAccess { hit: false, dirty_eviction }
        }

        fn probe(&self, addr: u64) -> bool {
            let tag = addr >> self.line_shift;
            self.lines
                .get(self.set_of(addr))
                .is_some_and(|ways| ways.iter().any(|l| l.valid && l.tag == tag))
        }
    }

    /// SplitMix64: the arbitrary sequences below, reproducible per seed.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (*state ^ (*state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Every answer of the packed cache equals the `Line`-struct cache's,
    /// step by step, over geometries that evict, with probes interleaved —
    /// the never-touched cache included (a sequence may open with probes) —
    /// and whether it is driven through `access` or, as the engine drives
    /// its L1, through `touch` and then `fill`.
    #[test]
    fn packed_cache_answers_like_the_line_struct_cache() {
        let level = |size_bytes, line_bytes, ways| CacheLevelConfig {
            size_bytes,
            line_bytes,
            ways,
            latency_cycles: 1,
            occupancy_cycles: 1,
        };
        let geometries = [
            level(256, 64, 1),      // direct-mapped, 4 sets
            level(256, 64, 2),      // 2 sets x 2 ways
            level(768, 64, 3),      // 4 sets x 3 ways: not a power of two
            level(1536, 64, 12),    // 2 sets x 12 ways
            level(1024, 64, 16),    // one 16-way set
            level(16 << 10, 4, 4),  // the smallest line the word allows
            level(4 << 10, 64, 16), // 4 sets x 16 ways
        ];
        for (geometry, cfg) in geometries.iter().enumerate() {
            cfg.validate("test").expect("geometry is valid");
            for seed in 0..48u64 {
                let mut rng = seed << 8 | geometry as u64;
                let mut packed = Cache::new(cfg);
                let mut halves = Cache::new(cfg);
                let mut lines = LineCache::new(cfg);
                // A few sets' worth of lines, so sets fill up and evict; one
                // seed in eight ranges over every address, top bits included.
                let span = if seed % 8 == 7 { u64::MAX } else { cfg.size_bytes * 3 };
                for step in 0..1500 {
                    let word = next(&mut rng);
                    let addr = next(&mut rng) % span;
                    let at = (geometry, seed, step, addr); // printed when a step disagrees
                    match word % 16 {
                        0 => {
                            let present = lines.probe(addr);
                            assert_eq!(packed.probe(addr), present, "probe, {at:?}");
                            assert_eq!(halves.probe(addr), present, "probe, halves, {at:?}");
                        }
                        _ => {
                            let write = word >> 4 & 1 == 1;
                            let answer = lines.access(addr, write);
                            assert_eq!(packed.access(addr, write), answer, "{at:?}");
                            let by_halves = if halves.touch(addr, write) {
                                CacheAccess { hit: true, dirty_eviction: false }
                            } else {
                                halves.fill(addr, write)
                            };
                            assert_eq!(by_halves, answer, "halves, {at:?}");
                        }
                    }
                    for cache in [&packed, &halves] {
                        assert_eq!(cache.is_allocated(), !lines.lines.is_empty(), "{at:?}");
                    }
                }
            }
        }
    }

    /// The order word is a move-to-front list: after every touch and fill
    /// of a one-set cache it reads as a `Vec` of way indices kept by moving
    /// the way used to the front, with `0xF` in every position past the
    /// last way — for every associativity the word holds, and with hits
    /// at every position (the first and the last of a 16-way set included).
    #[test]
    fn order_word_is_a_move_to_front_list() {
        for ways in 1..=16usize {
            let cfg = CacheLevelConfig {
                size_bytes: 64 * ways as u64,
                line_bytes: 64,
                ways: ways as u32,
                latency_cycles: 1,
                occupancy_cycles: 1,
            };
            let mut cache = Cache::new(&cfg);
            // The model: the line each way holds, and the ways most recent
            // first, an empty set's in reverse so that fills go 0, 1, 2, ….
            let mut held: Vec<Option<u64>> = vec![None; ways];
            let mut recency: Vec<usize> = (0..ways).rev().collect();
            let mut hit_at = vec![false; ways];
            let mut rng = ways as u64;
            for step in 0..4000 {
                let word = next(&mut rng);
                // Half the time a line the set holds, at any position
                // (the valid ways lead the list); else one of twice as
                // many lines as the set has ways.
                let valid = held.iter().flatten().count();
                let line = if word >> 8 & 1 == 0 && valid > 0 {
                    held[recency[(word >> 16) as usize % valid]].expect("a valid way")
                } else {
                    (word >> 16) % (2 * ways as u64)
                };
                let write = word >> 9 & 1 == 1;
                match held.iter().position(|&l| l == Some(line)) {
                    Some(way) => {
                        let at = recency.iter().position(|&w| w == way).expect("listed");
                        assert!(cache.touch(line * 64, write), "{ways} ways, step {step}");
                        hit_at[at] = true;
                        recency.remove(at);
                        recency.insert(0, way);
                    }
                    None => {
                        assert!(!cache.touch(line * 64, write), "{ways} ways, step {step}");
                        cache.fill(line * 64, write);
                        let way = recency.pop().expect("a way");
                        held[way] = Some(line);
                        recency.insert(0, way);
                    }
                }
                let order = cache.order.first().copied().unwrap_or_else(|| cache.fresh_order());
                let listed: Vec<usize> =
                    (0..16).map(|at| (order >> (4 * at) & 0xF) as usize).collect();
                assert_eq!(listed[..ways], recency[..], "{ways} ways, step {step}");
                assert!(listed[ways..].iter().all(|&way| way == 0xF), "{ways} ways, step {step}");
            }
            assert!(hit_at.iter().all(|&hit| hit), "{ways} ways, hits at {hit_at:?}");
        }
    }

    #[test]
    #[should_panic(expected = "1 to 16 ways, not 32")]
    fn more_ways_than_the_order_word_lists_is_refused() {
        Cache::new(&CacheLevelConfig { size_bytes: 2048, ways: 32, ..tiny() });
    }

    #[test]
    fn working_set_larger_than_cache_misses() {
        let mut c = Cache::new(&tiny());
        // Stream through 64 KiB twice; second pass still misses because the
        // working set exceeds the 512 B capacity.
        let mut second_pass_hits = 0;
        for pass in 0..2 {
            for addr in (0..65536u64).step_by(64) {
                let r = c.access(addr, false);
                if pass == 1 && r.hit {
                    second_pass_hits += 1;
                }
            }
        }
        assert_eq!(second_pass_hits, 0);
    }
}
