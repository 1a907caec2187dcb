//! Set-associative cache model with LRU replacement.
//!
//! The model tracks only tags (no data): the workloads perform their real
//! computation on host memory, and the cache model exists to classify each
//! access into the level that would have served it and to account bus traffic.
//! Write-allocate, write-back behaviour is approximated: stores allocate
//! lines like loads, and dirty evictions generate write-back bus traffic at
//! the level that evicts to DRAM.

use crate::config::CacheLevelConfig;

/// Result of a cache lookup-and-fill operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the line was present before the access.
    pub hit: bool,
    /// Whether a dirty line was evicted to make room (write-back traffic).
    pub dirty_eviction: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Monotonic LRU stamp; larger is more recent.
    lru: u64,
}

/// A single set-associative cache (one level, one shard).
#[derive(Debug, Clone)]
pub struct Cache {
    /// The tag array, `sets * ways` lines — allocated by the first
    /// [`Cache::access`], so a machine pays for the caches of the cores it
    /// runs, not of the 128 it has.
    lines: Vec<Line>,
    sets: u64,
    ways: u32,
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

    /// Build a shard of a larger cache: same geometry divided across
    /// `shards` independent units, where this unit handles the sets whose
    /// index modulo `shards` equals `shard_index`.
    pub fn new_shard(cfg: &CacheLevelConfig, shards: usize) -> Self {
        Cache {
            lines: Vec::new(),
            sets: cfg.sets() / shards as u64,
            ways: cfg.ways,
            line_shift: cfg.line_bytes.trailing_zeros(),
            stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set_index(&self, addr: u64) -> u64 {
        (addr >> self.line_shift) & (self.sets - 1)
    }

    fn tag(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Look up `addr`, filling the line on a miss. `write` marks the line dirty.
    pub fn access(&mut self, addr: u64, write: bool) -> CacheAccess {
        self.stamp += 1;
        if self.lines.is_empty() {
            self.lines = vec![Line::default(); (self.sets * self.ways as u64) as usize];
        }
        let set = self.set_index(addr) as usize;
        let tag = self.tag(addr);
        let base = set * self.ways as usize;
        let ways = &mut self.lines[base..base + self.ways as usize];

        // Hit path.
        for line in ways.iter_mut() {
            if line.valid && line.tag == tag {
                line.lru = self.stamp;
                line.dirty |= write;
                self.hits += 1;
                return CacheAccess { hit: true, dirty_eviction: false };
            }
        }

        // Miss: choose victim (invalid first, else LRU).
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

    /// Probe without modifying state: is the line present?
    pub fn probe(&self, addr: u64) -> bool {
        let set = self.set_index(addr) as usize;
        let tag = self.tag(addr);
        let base = set * self.ways as usize;
        // An untouched cache has no tag array yet, and no line.
        self.lines
            .get(base..base + self.ways as usize)
            .is_some_and(|ways| ways.iter().any(|l| l.valid && l.tag == tag))
    }

    /// Invalidate the whole cache (used between experiment trials).
    pub fn flush(&mut self) {
        for line in &mut self.lines {
            *line = Line::default();
        }
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
        !self.lines.is_empty()
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
