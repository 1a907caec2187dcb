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
//! bytes, two host cache lines. The LRU stamps sit in a parallel array
//! because only two things touch them — a hit writes the one stamp of the way
//! it found, a miss in a full set scans them for the victim — and a lookup
//! that walks the ways of a set should not drag them through the host's cache
//! with the tags.
//!
//! ## The two halves of an access
//!
//! [`Cache::access`] is `touch`, or else `fill`. `touch` is everything a hit
//! needs — the LRU clock, the set, the way compare, the hit's own
//! bookkeeping — and is small enough to inline into whoever calls it, another
//! crate's loop included; `fill` is the miss — the lazily allocated arrays,
//! the victim, the write — and stays out of line. The engine drives its L1
//! through the halves directly so that the hit never leaves the workload's
//! loop (see [`crate::engine`]); every other cache goes through `access`.

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

/// A single set-associative cache (one level, one shard).
#[derive(Debug, Clone)]
pub struct Cache {
    /// The tag array, `sets * ways` words (see the module docs) — allocated
    /// by the first miss (`fill`), so a machine pays for the caches of
    /// the cores it runs, not of the 128 it has.
    tags: Vec<u64>,
    /// Monotonic LRU stamp of each way, parallel to `tags`; larger is more
    /// recent. Meaningful for valid ways only.
    stamps: Vec<u64>,
    sets: u64,
    ways: usize,
    line_shift: u32,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Build a cache with the given geometry.
    pub fn new(cfg: &CacheLevelConfig) -> Self {
        Self::new_shard(cfg, 1)
    }

    /// Build one shard of a larger cache: `cfg`'s line size and ways, and a
    /// `shards`-th of its sets. Which lines a shard serves is the caller's
    /// choice; the shard indexes its sets with the low bits of the line
    /// index, as a whole cache does.
    pub fn new_shard(cfg: &CacheLevelConfig, shards: usize) -> Self {
        Cache {
            tags: Vec::new(),
            stamps: Vec::new(),
            sets: cfg.sets() / shards as u64,
            ways: cfg.ways as usize,
            line_shift: cfg.line_bytes.trailing_zeros(),
            stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The valid, clean tag word of `addr`'s line and the index of its set's
    /// first way.
    #[inline]
    fn locate(&self, addr: u64) -> (u64, usize) {
        let line = addr >> self.line_shift;
        (line << 2 | VALID, (line & (self.sets - 1)) as usize * self.ways)
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

    /// The hit half of an access: advance the LRU clock, and if `addr`'s
    /// line is present stamp it, mark it dirty on a `write`, count the hit
    /// and answer `true`. On `false` the access is not over: the caller owes
    /// the [`Cache::fill`] of the same `addr` and `write`, before any other
    /// access.
    #[inline]
    pub(crate) fn touch(&mut self, addr: u64, write: bool) -> bool {
        self.stamp += 1;
        let (want, base) = self.locate(addr);
        // An untouched cache has no tag array yet: no way to compare, a miss.
        let ways = self.tags.get_mut(base..base + self.ways).unwrap_or_default();
        for (way, tag) in ways.iter_mut().enumerate() {
            if *tag & !DIRTY == want {
                *tag |= if write { DIRTY } else { 0 };
                self.stamps[base + way] = self.stamp;
                self.hits += 1;
                return true;
            }
        }
        false
    }

    /// The miss half, after a [`Cache::touch`] that answered `false`: put
    /// `addr`'s line into its set, in the first empty way, else over the
    /// least recently used one (the first of equals), stamped with the
    /// access `touch` began. Allocates the tag array on first use.
    #[inline(never)]
    pub(crate) fn fill(&mut self, addr: u64, write: bool) -> CacheAccess {
        self.misses += 1;
        if self.tags.is_empty() {
            let lines = self.sets as usize * self.ways;
            self.tags = vec![0; lines];
            self.stamps = vec![0; lines];
        }
        let (want, base) = self.locate(addr);
        let ways = &mut self.tags[base..base + self.ways];
        let stamps = &mut self.stamps[base..base + self.ways];
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (way, (&held, &stamp)) in ways.iter().zip(stamps.iter()).enumerate() {
            if held == 0 {
                victim = way;
                break;
            }
            if stamp < oldest {
                oldest = stamp;
                victim = way;
            }
        }
        let dirty_eviction = ways[victim] & DIRTY != 0;
        ways[victim] = want | if write { DIRTY } else { 0 };
        stamps[victim] = self.stamp;
        CacheAccess { hit: false, dirty_eviction }
    }

    /// Probe without modifying state: is the line present?
    pub fn probe(&self, addr: u64) -> bool {
        let (want, base) = self.locate(addr);
        // An untouched cache has no tag array yet, and no line.
        self.tags
            .get(base..base + self.ways)
            .is_some_and(|ways| ways.iter().any(|tag| tag & !DIRTY == want))
    }

    /// Invalidate the whole cache (used between experiment trials).
    pub fn flush(&mut self) {
        self.tags.fill(0);
    }

    /// Total hits observed.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses observed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of sets in this cache (or shard).
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Whether the tag array exists yet.
    #[cfg(test)]
    pub(crate) fn is_allocated(&self) -> bool {
        !self.tags.is_empty()
    }
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
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
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
        let mut c = Cache::new(&tiny());
        let a = 0x0000;
        let b = 0x0100;
        let d = 0x0200;
        c.access(a, true); // dirty
        c.access(b, false);
        c.access(d, false); // evicts a (LRU), which is dirty
        let e = 0x0300;
        // After a/b/d, the set holds b? Let's check via one more access: evicting
        // the oldest of (b, d)... verify at least that some access reported a
        // dirty eviction when `a` was displaced.
        // Re-run deterministically:
        let mut c = Cache::new(&tiny());
        c.access(a, true);
        c.access(b, false);
        let r = c.access(d, false);
        assert!(r.dirty_eviction, "dirty LRU line must report write-back");
        let r2 = c.access(e, false);
        assert!(!r2.dirty_eviction, "clean LRU line must not report write-back");
    }

    #[test]
    fn flush_clears_everything() {
        let mut c = Cache::new(&tiny());
        c.access(0x1000, true);
        assert!(c.probe(0x1000));
        c.flush();
        assert!(!c.probe(0x1000));
    }

    #[test]
    fn untouched_cache_has_no_tag_array_and_answers_like_an_empty_one() {
        let mut c = Cache::new(&tiny());
        assert!(!c.is_allocated());
        assert!(!c.probe(0x1000));
        c.flush();
        assert!(!c.is_allocated(), "probe and flush leave an untouched cache untouched");
        assert!(!c.access(0x1000, false).hit);
        assert!(c.is_allocated());
        assert!(c.probe(0x1000));
    }

    /// The cache as it was before a way became one word — one `Line` struct
    /// per way, a `valid` and a `dirty` flag each, the tag array allocated by
    /// the first access — kept as the oracle for the packed layout.
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
        hits: u64,
        misses: u64,
    }

    impl LineCache {
        fn new_shard(cfg: &CacheLevelConfig, shards: usize) -> Self {
            LineCache {
                lines: Vec::new(),
                sets: cfg.sets() / shards as u64,
                ways: cfg.ways as usize,
                line_shift: cfg.line_bytes.trailing_zeros(),
                stamp: 0,
                hits: 0,
                misses: 0,
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
                    self.hits += 1;
                    return CacheAccess { hit: true, dirty_eviction: false };
                }
            }
            self.misses += 1;
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

        fn flush(&mut self) {
            self.lines.iter_mut().for_each(|line| *line = Line::default());
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
    /// step by step, over geometries that evict, with probes and flushes
    /// interleaved — the never-touched cache included (a sequence may open
    /// with probes and flushes) — and whether it is driven through `access`
    /// or, as the engine drives its L1, through `touch` and then `fill`.
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
            (level(256, 64, 1), 1),        // direct-mapped, 4 sets
            (level(256, 64, 2), 1),        // 2 sets x 2 ways
            (level(1024, 64, 16), 1),      // one 16-way set
            (level(16 << 10, 4, 4), 1),    // the smallest line the word allows
            (level(64 << 10, 64, 16), 16), // `new_shard(_, 16)`: 4 of 64 sets
        ];
        for (geometry, (cfg, shards)) in geometries.iter().enumerate() {
            cfg.validate("test").expect("geometry is valid");
            for seed in 0..48u64 {
                let mut rng = seed << 8 | geometry as u64;
                let mut packed = Cache::new_shard(cfg, *shards);
                let mut halves = Cache::new_shard(cfg, *shards);
                let mut lines = LineCache::new_shard(cfg, *shards);
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
                        1 if word >> 8 & 7 == 0 => {
                            packed.flush();
                            halves.flush();
                            lines.flush();
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
                        assert_eq!(
                            (cache.hits(), cache.misses()),
                            (lines.hits, lines.misses),
                            "{at:?}"
                        );
                        assert_eq!(cache.is_allocated(), !lines.lines.is_empty(), "{at:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn shard_has_fraction_of_sets() {
        let cfg = CacheLevelConfig {
            size_bytes: 16 * 1024 * 1024,
            line_bytes: 64,
            ways: 16,
            latency_cycles: 1,
            occupancy_cycles: 1,
        };
        let full = Cache::new(&cfg);
        let shard = Cache::new_shard(&cfg, 16);
        assert_eq!(full.sets(), shard.sets() * 16);
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
