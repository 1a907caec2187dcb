//! Architecture-agnostic source annotations (paper Section III-B).
//!
//! NMO exposes a small C API for tagging memory objects and execution phases:
//!
//! ```c
//! nmo_tag_addr("data_a", addr0_start, addr0_end);
//! nmo_start("kernel0");
//! /* ... kernel ... */
//! nmo_stop();
//! ```
//!
//! The Rust equivalent is the [`Annotations`] registry: `tag_addr` registers
//! a named address range, `start`/`stop` bracket named execution phases with
//! simulated-time timestamps. The registry is thread-safe: any worker thread
//! may open or close phases. Phases nest on one registry-wide stack, not per
//! thread: `stop` closes the most recently opened phase, whichever thread
//! opened it — the C API under OpenMP, where the annotation is typically
//! issued by the master thread outside the parallel region.

use parking_lot::Mutex;

/// A named address range tag (`nmo_tag_addr`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrTag {
    /// Tag name (e.g. `"a"`, `"normals"`).
    pub name: String,
    /// First address of the range.
    pub start: u64,
    /// One-past-the-end address of the range.
    pub end: u64,
}

impl AddrTag {
    /// Whether `addr` falls inside the tag.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.end
    }

    /// Size of the tagged range in bytes.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// True when the tag covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A named execution phase (`nmo_start` .. `nmo_stop`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    /// Phase name (e.g. `"triad"`, `"computation loop"`).
    pub name: String,
    /// Phase start, simulated nanoseconds.
    pub start_ns: u64,
    /// Phase end, simulated nanoseconds (`u64::MAX` while still open).
    pub end_ns: u64,
}

impl Phase {
    /// Whether the phase is still open.
    pub fn is_open(&self) -> bool {
        self.end_ns == u64::MAX
    }

    /// Whether a timestamp falls inside the phase.
    pub fn contains_ns(&self, t_ns: u64) -> bool {
        t_ns >= self.start_ns && t_ns < self.end_ns
    }

    /// Phase duration (0 while open).
    pub fn duration_ns(&self) -> u64 {
        if self.is_open() {
            0
        } else {
            self.end_ns - self.start_ns
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    tags: Vec<AddrTag>,
    phases: Vec<Phase>,
    open_stack: Vec<usize>,
}

/// Thread-safe annotation registry.
#[derive(Debug)]
pub struct Annotations {
    inner: Mutex<Inner>,
}

impl Default for Annotations {
    fn default() -> Self {
        Self::new()
    }
}

impl Annotations {
    /// Create an empty registry.
    pub fn new() -> Self {
        Annotations { inner: Mutex::named(Inner::default(), "annotations.inner") }
    }

    /// `nmo_tag_addr`: register a named address range.
    pub fn tag_addr(&self, name: &str, start: u64, end: u64) {
        let mut inner = self.inner.lock();
        inner.tags.push(AddrTag { name: name.to_string(), start, end: end.max(start) });
    }

    /// `nmo_start`: open a named phase at simulated time `now_ns`.
    pub fn start(&self, name: &str, now_ns: u64) {
        let mut inner = self.inner.lock();
        let idx = inner.phases.len();
        inner.phases.push(Phase { name: name.to_string(), start_ns: now_ns, end_ns: u64::MAX });
        inner.open_stack.push(idx);
    }

    /// `nmo_stop`: close the most recently opened phase at `now_ns`.
    /// Returns the closed phase, or `None` if no phase was open.
    pub fn stop(&self, now_ns: u64) -> Option<Phase> {
        let mut inner = self.inner.lock();
        let idx = inner.open_stack.pop()?;
        let phase = &mut inner.phases[idx];
        phase.end_ns = now_ns.max(phase.start_ns);
        Some(phase.clone())
    }

    /// All registered tags.
    pub fn tags(&self) -> Vec<AddrTag> {
        self.inner.lock().tags.clone()
    }

    /// All phases (open phases keep `end_ns == u64::MAX`).
    pub fn phases(&self) -> Vec<Phase> {
        self.inner.lock().phases.clone()
    }

    /// Find the tag containing `addr`.
    ///
    /// **Overlap precedence (pinned):** tags are scanned in *reverse
    /// registration order* and the first match wins — i.e. when ranges
    /// overlap, the **most recently registered** containing tag takes
    /// precedence. This makes nested tagging natural (`tag_addr` the whole
    /// arena, then re-tag a sub-object later and the sub-object wins) and
    /// means re-registering a name after `free`/`alloc` shadows the stale
    /// range. Empty ranges (`start == end`) contain no address and never
    /// match.
    pub fn tag_of(&self, addr: u64) -> Option<AddrTag> {
        let inner = self.inner.lock();
        inner.tags.iter().rev().find(|t| t.contains(addr)).cloned()
    }

    /// Number of open phases.
    pub fn open_phases(&self) -> usize {
        self.inner.lock().open_stack.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_registration_and_lookup() {
        let a = Annotations::new();
        a.tag_addr("a", 0x1000, 0x2000);
        a.tag_addr("b", 0x2000, 0x3000);
        assert_eq!(a.tags().len(), 2);
        assert_eq!(a.tag_of(0x1800).unwrap().name, "a");
        assert_eq!(a.tag_of(0x2000).unwrap().name, "b");
        assert!(a.tag_of(0x5000).is_none());
        assert_eq!(a.tags()[0].len(), 0x1000);
    }

    #[test]
    fn innermost_tag_wins_on_overlap() {
        let a = Annotations::new();
        a.tag_addr("whole", 0x1000, 0x9000);
        a.tag_addr("inner", 0x2000, 0x3000);
        assert_eq!(a.tag_of(0x2500).unwrap().name, "inner");
        assert_eq!(a.tag_of(0x4000).unwrap().name, "whole");
    }

    /// Pins the documented overlap rule: reverse scan, first match — the
    /// most recently registered containing tag wins, at every overlap shape.
    #[test]
    fn overlap_precedence_is_latest_registration_first_match() {
        let a = Annotations::new();
        a.tag_addr("first", 0x1000, 0x5000);
        a.tag_addr("second", 0x3000, 0x7000); // partial overlap with "first"
        a.tag_addr("third", 0x3800, 0x4000); // nested inside both

        // Non-overlapping parts resolve to their sole owner.
        assert_eq!(a.tag_of(0x1500).unwrap().name, "first");
        assert_eq!(a.tag_of(0x6000).unwrap().name, "second");
        // In the first/second overlap the later registration wins.
        assert_eq!(a.tag_of(0x3400).unwrap().name, "second");
        // In the triple overlap the latest registration wins.
        assert_eq!(a.tag_of(0x3900).unwrap().name, "third");
        // Identical ranges: the later duplicate shadows the earlier one.
        a.tag_addr("dup_old", 0x8000, 0x8100);
        a.tag_addr("dup_new", 0x8000, 0x8100);
        assert_eq!(a.tag_of(0x8050).unwrap().name, "dup_new");
        // Boundary semantics are half-open: `end` belongs to the next tag.
        assert_eq!(a.tag_of(0x7000), None);
        assert_eq!(a.tag_of(0x4fff).unwrap().name, "second");
    }

    /// An empty range (`start == end`) matches nothing — even when a later
    /// empty tag sits exactly on an address covered by an earlier real tag,
    /// the reverse scan skips it rather than shadowing the real tag.
    #[test]
    fn empty_range_never_matches_nor_shadows() {
        let a = Annotations::new();
        a.tag_addr("real", 0x1000, 0x2000);
        a.tag_addr("empty", 0x1800, 0x1800);
        assert!(a.tags()[1].is_empty());
        assert_eq!(a.tag_of(0x1800).unwrap().name, "real", "empty tag cannot shadow");
        // An empty tag with nothing underneath matches nothing at all.
        let b = Annotations::new();
        b.tag_addr("only_empty", 0x5000, 0x5000);
        assert_eq!(b.tag_of(0x5000), None);
        // end < start is clamped to empty at registration, same outcome.
        b.tag_addr("inverted", 0x9000, 0x8000);
        assert!(b.tags()[1].is_empty());
        assert_eq!(b.tag_of(0x8800), None);
    }

    #[test]
    fn phase_bracketing_is_stack_like() {
        let a = Annotations::new();
        a.start("outer", 100);
        a.start("inner", 200);
        assert_eq!(a.open_phases(), 2);
        let inner = a.stop(300).unwrap();
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.duration_ns(), 100);
        let outer = a.stop(500).unwrap();
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.duration_ns(), 400);
        assert!(a.stop(600).is_none(), "no phase open anymore");
        assert_eq!(a.open_phases(), 0);
    }

    /// One stack for the whole registry: a `stop` on another thread closes
    /// the phase this thread opened last.
    #[test]
    fn stop_on_another_thread_closes_the_most_recent_phase() {
        let a = Annotations::new();
        a.start("outer", 100);
        a.start("inner", 200);
        let closed = std::thread::scope(|s| s.spawn(|| a.stop(300)).join().unwrap());
        assert_eq!(closed.map(|p| p.name), Some("inner".to_string()));
        assert_eq!(a.open_phases(), 1);
        assert_eq!(a.stop(400).map(|p| p.name), Some("outer".to_string()));
    }

    #[test]
    fn open_phase_reported_as_open() {
        let a = Annotations::new();
        a.start("kernel0", 50);
        let phases = a.phases();
        assert!(phases[0].is_open());
        assert!(phases[0].contains_ns(1_000_000));
        a.stop(60);
        let phases = a.phases();
        assert!(!phases[0].is_open());
        assert!(!phases[0].contains_ns(61));
    }

    #[test]
    fn stop_never_ends_before_start() {
        let a = Annotations::new();
        a.start("p", 100);
        let p = a.stop(10).unwrap();
        assert_eq!(p.end_ns, 100);
        assert_eq!(p.duration_ns(), 0);
    }

    #[test]
    fn empty_tag_is_empty() {
        let a = Annotations::new();
        a.tag_addr("z", 0x10, 0x10);
        assert!(a.tags()[0].is_empty());
        assert!(!a.tags()[0].contains(0x10));
    }
}
