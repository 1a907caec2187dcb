//! In-memory span recorder for the traced run.
//!
//! A span is recorded at every call the harness makes into a layer: name,
//! start, end, the span that caused it, and the repetition it belongs to.
//! Spans are kept in memory and written once, on exit, as a Chrome
//! trace-event file. An untraced run carries a disabled recorder: `span()`
//! then takes no timestamp and touches no lock.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 = no parent (a repetition's root span).
    pub parent: u64,
    pub name: &'static str,
    pub rep: u64,
    pub tid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
    /// Root span of the running repetition: the parent of spans opened on
    /// threads the program spawned (pump, consumers), which have no span of
    /// their own on the stack.
    root: AtomicU64,
    rep: AtomicU64,
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::SeqCst)
    };
}

/// An open span; records itself when dropped.
pub struct SpanGuard<'a> {
    open: Option<(&'a Tracer, Span)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(enabled),
            epoch: Instant::now(),
            spans: Mutex::named(Vec::new(), "bench.spans"),
            next_id: AtomicU64::new(1),
            root: AtomicU64::new(0),
            rep: AtomicU64::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// Switch recording on or off between repetitions (a traced run
    /// alternates traced and untraced repetitions to price the tracing).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::SeqCst);
    }

    /// Host nanoseconds since this recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open the root span of repetition `rep`; spans opened anywhere until
    /// it drops hang below it.
    pub fn rep_span(&self, name: &'static str, rep: u64) -> SpanGuard<'_> {
        self.rep.store(rep, Ordering::SeqCst);
        let guard = self.span(name);
        if let Some((_, span)) = &guard.open {
            self.root.store(span.id, Ordering::SeqCst);
        }
        guard
    }

    /// Open a span; its parent is the innermost open span of this thread,
    /// or the repetition's root span on a thread without one.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard { open: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let parent = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let parent = stack.last().copied().unwrap_or_else(|| self.root.load(Ordering::SeqCst));
            stack.push(id);
            parent
        });
        let span = Span {
            id,
            parent,
            name,
            rep: self.rep.load(Ordering::SeqCst),
            tid: TID.with(|t| *t),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        SpanGuard { open: Some((self, span)) }
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().clone()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((tracer, mut span)) = self.open.take() {
            span.end_ns = tracer.now_ns();
            STACK.with(|s| {
                let mut stack = s.borrow_mut();
                if let Some(pos) = stack.iter().rposition(|&id| id == span.id) {
                    stack.truncate(pos);
                }
            });
            if tracer.root.load(Ordering::SeqCst) == span.id {
                tracer.root.store(0, Ordering::SeqCst);
            }
            tracer.spans.lock().push(span);
        }
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (children may run on other threads and overlap
/// each other, so their union is taken, clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&s.id) else { return total };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            total.saturating_sub(covered)
        })
        .collect()
}

/// Total and self time per span name, as `(name, count, total_ms, self_ms)`
/// sorted by name.
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, u64, f64, f64)> {
    let selfs = self_times_ns(spans);
    let mut rows: std::collections::BTreeMap<&'static str, (u64, u64, u64)> =
        std::collections::BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let row = rows.entry(s.name).or_default();
        row.0 += 1;
        row.1 += s.end_ns.saturating_sub(s.start_ns);
        row.2 += self_ns;
    }
    rows.into_iter()
        .map(|(name, (count, total, own))| (name, count, total as f64 / 1e6, own as f64 / 1e6))
        .collect()
}

/// The spans as a Chrome trace-event document (`chrome://tracing`,
/// Perfetto); `other` lands under `otherData`.
pub fn chrome_trace(spans: &[Span], other: Json) -> Json {
    let selfs = self_times_ns(spans);
    let events = spans
        .iter()
        .zip(selfs)
        .map(|(s, self_ns)| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.name.split('.').next().unwrap_or(""))),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(s.tid as f64)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(s.id as f64)),
                        ("parent", Json::Num(s.parent as f64)),
                        ("rep", Json::Num(s.rep as f64)),
                        ("self_us", Json::Num(self_ns as f64 / 1e3)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
        ("otherData", other),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "t", rep: 0, tid: 1, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),  // overlaps span 2 by 10
            span(4, 1, 90, 130), // clipped to the parent's end
            span(5, 2, 10, 20),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 50 - 10, 30 - 10, 30, 40, 10]);
    }

    #[test]
    fn nesting_and_cross_thread_parents() {
        let tracer = Tracer::new(true);
        {
            let _rep = tracer.rep_span("rep", 3);
            {
                let _inner = tracer.span("inner");
            }
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _remote = tracer.span("remote");
                });
            });
        }
        let spans = tracer.spans();
        let find = |name: &str| *spans.iter().find(|s| s.name == name).unwrap();
        let (rep, inner, remote) = (find("rep"), find("inner"), find("remote"));
        assert_eq!(rep.parent, 0);
        assert_eq!(inner.parent, rep.id);
        assert_eq!(remote.parent, rep.id, "a spawned thread's span hangs below the rep root");
        assert_ne!(remote.tid, rep.tid);
        assert!(spans.iter().all(|s| s.rep == 3 && s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        {
            let _rep = tracer.rep_span("rep", 0);
            let _inner = tracer.span("inner");
        }
        assert!(tracer.spans().is_empty());
    }
}
