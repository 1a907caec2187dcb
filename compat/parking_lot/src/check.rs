//! Runtime lock-order checker: the repo's lock-order analysis.
//!
//! Enabled by `NMO_LOCK_CHECK=1` in the environment (read once, at the first
//! acquisition) or programmatically with [`force_enable`]. See the crate
//! docs for the model; in short, the checker maintains
//!
//! * a per-thread stack of currently-held lock instances,
//! * a global directed graph of observed `held -> acquired` edges, and
//! * per-name acquisition counts and maximum hold times.
//!
//! Before a thread *blocks* on a lock it asks: starting from the lock I
//! want, can the graph already reach any lock I hold? If yes, some thread
//! acquired these locks in the opposite order, and the process panics with
//! both names — turning a timing-dependent deadlock into a deterministic
//! test failure at the first inverted acquisition.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

use crate::LockStats;

/// Checker mode: 0 = not yet initialised, 1 = off, 2 = on.
static MODE: AtomicU8 = AtomicU8::new(0);

/// Allocator for lock-instance ids; 0 is reserved for "not yet assigned".
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Whether the checker is active. The fast path — checker off — is a single
/// relaxed load per acquisition.
fn enabled() -> bool {
    // relaxed-ok: MODE is a monotone latch (0 -> 1|2); a stale read of 0
    // only sends us down the one-time init path again, which is idempotent.
    match MODE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let on = std::env::var("NMO_LOCK_CHECK").map(|v| v == "1").unwrap_or(false);
            // relaxed-ok: latch publish; see above.
            MODE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Turn the checker on for this process regardless of `NMO_LOCK_CHECK`.
/// Intended for tests; there is deliberately no way to turn it back off
/// (disabling mid-flight would orphan held-stack entries).
pub fn force_enable() {
    // relaxed-ok: monotone latch publish; see `enabled`.
    MODE.store(2, Ordering::Relaxed);
}

thread_local! {
    /// `(id, exclusive)` for the locks the current thread holds, in
    /// acquisition order. Names and hold timers live on the guards'
    /// [`Tracked`] tokens.
    static HELD: std::cell::RefCell<Vec<(u64, bool)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Global acquisition graph and statistics. Guarded by a *raw* std mutex:
/// the checker must not recurse into the instrumented types.
struct Graph {
    /// `edges[a]` contains `b` iff some thread held `a` while acquiring `b`.
    edges: HashMap<u64, HashSet<u64>>,
    /// Lock-instance id -> diagnostics name ("" for unnamed).
    names: HashMap<u64, &'static str>,
    /// Per-name acquisition count and max hold time.
    stats: HashMap<&'static str, (u64, Duration)>,
}

static GRAPH: std::sync::Mutex<Option<Graph>> = std::sync::Mutex::new(None);

fn with_graph<R>(f: impl FnOnce(&mut Graph) -> R) -> R {
    let mut slot = GRAPH.lock().unwrap_or_else(|e| e.into_inner());
    let graph = slot.get_or_insert_with(|| Graph {
        edges: HashMap::new(),
        names: HashMap::new(),
        stats: HashMap::new(),
    });
    f(graph)
}

/// Lazily assign a stable nonzero id to a lock instance.
fn id_of(slot: &AtomicU64, name: &'static str) -> u64 {
    // relaxed-ok: the id is its own payload (compared for equality only);
    // losing the CAS race just means we adopt the winner's id.
    let existing = slot.load(Ordering::Relaxed);
    if existing != 0 {
        return existing;
    }
    let fresh = NEXT_ID.fetch_add(1, Ordering::Relaxed); // relaxed-ok: as above
    let id = match slot.compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => fresh,
        Err(winner) => winner, // relaxed-ok: as above
    };
    with_graph(|g| {
        g.names.entry(id).or_insert(name);
    });
    id
}

fn display_name(names: &HashMap<u64, &'static str>, id: u64) -> String {
    match names.get(&id) {
        Some(n) if !n.is_empty() => format!("`{n}` (#{id})"),
        _ => format!("<unnamed> (#{id})"),
    }
}

/// Is `to` reachable from `from` via recorded edges?
fn reachable(edges: &HashMap<u64, HashSet<u64>>, from: u64, to: u64) -> bool {
    let mut stack = vec![from];
    let mut seen = HashSet::new();
    while let Some(node) = stack.pop() {
        if node == to {
            return true;
        }
        if !seen.insert(node) {
            continue;
        }
        if let Some(next) = edges.get(&node) {
            stack.extend(next.iter().copied());
        }
    }
    false
}

/// A planned acquisition: carries the id/name from the pre-acquire check to
/// [`acquired`] once the lock is actually held.
pub(crate) struct Plan {
    id: u64,
    name: &'static str,
    exclusive: bool,
}

/// Token held by a live guard; returned to the checker on release.
pub(crate) struct Tracked {
    id: u64,
    name: &'static str,
    exclusive: bool,
    since: Instant,
}

/// Pre-acquire hook for a blocking acquisition: records `held -> wanted`
/// edges and panics if the wanted lock can already reach a held one (order
/// inversion) or *is* a held one (self-deadlock). `exclusive` is false only
/// for `RwLock::read`: a recursive shared read is tolerated (ubiquitous and
/// legal, though it can still stall behind a queued writer — a hazard this
/// checker deliberately leaves to the static lint's judgment).
pub(crate) fn before_blocking_acquire(
    slot: &AtomicU64,
    name: &'static str,
    exclusive: bool,
) -> Option<Plan> {
    if !enabled() {
        return None;
    }
    let id = id_of(slot, name);
    HELD.with(|held| {
        let held = held.borrow();
        if held.iter().any(|&(h, h_excl)| h == id && (h_excl || exclusive)) {
            panic!(
                "lock-order checker: self-deadlock — thread already holds {} and is \
                 about to block on it again",
                with_graph(|g| display_name(&g.names, id)),
            );
        }
        with_graph(|g| {
            for &(h, _) in held.iter() {
                if h == id {
                    continue; // recursive shared read; no self-edge
                }
                if reachable(&g.edges, id, h) {
                    panic!(
                        "lock-order checker: inversion — about to block on {wanted} while \
                         holding {held}, but the process has already acquired {wanted} \
                         before {held}; two threads using these orders can deadlock",
                        wanted = display_name(&g.names, id),
                        held = display_name(&g.names, h),
                    );
                }
                g.edges.entry(h).or_default().insert(id);
            }
        });
    });
    Some(Plan { id, name, exclusive })
}

/// Pre-acquire hook for a *successful* non-blocking acquisition: records the
/// same edges (they constrain later blocking acquisitions) but never panics,
/// since a `try_lock` cannot deadlock the caller.
pub(crate) fn before_try_acquire(
    slot: &AtomicU64,
    name: &'static str,
    exclusive: bool,
) -> Option<Plan> {
    if !enabled() {
        return None;
    }
    let id = id_of(slot, name);
    HELD.with(|held| {
        let held = held.borrow();
        with_graph(|g| {
            for &(h, _) in held.iter() {
                if h != id {
                    g.edges.entry(h).or_default().insert(id);
                }
            }
        });
    });
    Some(Plan { id, name, exclusive })
}

/// Post-acquire hook: push onto the thread's held stack and start the hold
/// timer. Also used to re-register a lock after a condvar wait (the plan
/// from [`released_for_wait`] skips the order check by construction).
pub(crate) fn acquired(plan: Plan) -> Tracked {
    let track =
        Tracked { id: plan.id, name: plan.name, exclusive: plan.exclusive, since: Instant::now() };
    HELD.with(|held| held.borrow_mut().push((track.id, track.exclusive)));
    track
}

/// Release hook: pop the held stack (releases may be out of LIFO order) and
/// fold the hold time into the per-name statistics.
pub(crate) fn released(track: Tracked) {
    let hold = track.since.elapsed();
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(pos) = held.iter().rposition(|&(h, _)| h == track.id) {
            held.remove(pos);
        }
    });
    let key = if track.name.is_empty() { "<unnamed>" } else { track.name };
    with_graph(|g| {
        let (count, max) = g.stats.entry(key).or_insert((0, Duration::ZERO));
        *count += 1;
        if hold > *max {
            *max = hold;
        }
    });
}

/// Release hook for [`crate::Condvar::wait_until`]: identical accounting to
/// [`released`], but hands back a [`Plan`] so the post-wait reacquisition
/// can re-register without an order check (the wait-loop pattern holds only
/// this lock, and the checker cannot distinguish a wakeup from a fresh
/// acquisition anyway).
pub(crate) fn released_for_wait(track: Tracked) -> Plan {
    let plan = Plan { id: track.id, name: track.name, exclusive: track.exclusive };
    released(track);
    plan
}

/// Snapshot the per-name statistics, sorted by name (see
/// [`crate::lock_report`]).
pub(crate) fn report() -> Vec<LockStats> {
    let mut out: Vec<LockStats> = with_graph(|g| {
        g.stats
            .iter()
            .map(|(name, (count, max))| LockStats {
                name,
                acquisitions: *count,
                max_hold_ns: max.as_nanos().min(u64::MAX as u128) as u64,
            })
            .collect()
    });
    out.sort_by_key(|s| s.name);
    out
}

/// The observed acquisition-order edges as `(held, then_acquired)` name
/// pairs, deduplicated and sorted. Unnamed locks report as `<unnamed>#id`.
/// Intended for tests that cross-validate the static lock-order graph.
pub fn order_edges() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = with_graph(|g| {
        let pretty = |id: u64| match g.names.get(&id) {
            Some(n) if !n.is_empty() => (*n).to_string(),
            _ => format!("<unnamed>#{id}"),
        };
        g.edges
            .iter()
            .flat_map(|(from, tos)| tos.iter().map(move |to| (*from, *to)))
            .map(|(from, to)| (pretty(from), pretty(to)))
            .collect()
    });
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reachability_walks_transitive_edges() {
        let mut edges: HashMap<u64, HashSet<u64>> = HashMap::new();
        edges.entry(1).or_default().insert(2);
        edges.entry(2).or_default().insert(3);
        assert!(reachable(&edges, 1, 3));
        assert!(!reachable(&edges, 3, 1));
        assert!(reachable(&edges, 2, 2), "a node reaches itself");
    }

    #[test]
    fn ids_are_assigned_once_and_nonzero() {
        let slot = AtomicU64::new(0);
        let a = id_of(&slot, "check.test.id");
        let b = id_of(&slot, "check.test.id");
        assert_eq!(a, b);
        assert_ne!(a, 0);
    }
}
