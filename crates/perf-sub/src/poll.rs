//! Pollable wakeups.
//!
//! NMO's monitoring thread uses `epoll` on the perf file descriptor to sleep
//! until the kernel signals that new data (a `PERF_RECORD_AUX` record) is
//! available. [`Waker`] models that readiness notification: the producer
//! (the SPE driver) calls [`Waker::wake`] on every publish, and a consumer
//! blocks in [`Waker::wait_timeout`] or polls [`Waker::try_wait`]. Nothing
//! in the profiler consumes it today — the SPE backend reads each record
//! from the driver's publish handler, not from a polling thread — so a
//! drain driver that parks on it gets every wake-up.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

/// Result of a wait call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollTimeout {
    /// The waker was signalled (data is ready).
    Ready,
    /// The timeout elapsed with no signal.
    TimedOut,
    /// The event was closed (no more data will ever arrive).
    Closed,
}

struct WakerState {
    pending: Mutex<bool>,
    condvar: Condvar,
    closed: AtomicBool,
    wakeups: AtomicU64,
}

impl Default for WakerState {
    fn default() -> Self {
        WakerState {
            pending: Mutex::named(false, "poll.pending"),
            condvar: Condvar::new(),
            closed: AtomicBool::new(false),
            wakeups: AtomicU64::new(0),
        }
    }
}

/// A cloneable readiness-notification handle (epoll-like).
#[derive(Clone, Default)]
pub struct Waker {
    state: Arc<WakerState>,
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Waker")
            // relaxed-ok: Debug snapshot — values are informational only.
            .field("wakeups", &self.state.wakeups.load(Ordering::Relaxed))
            .field("closed", &self.state.closed.load(Ordering::Relaxed)) // relaxed-ok: as above
            .finish()
    }
}

impl Waker {
    /// Create a new waker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Signal readiness (producer side). Idempotent until consumed.
    pub fn wake(&self) {
        // relaxed-ok: interrupt-count statistic; the actual wakeup handoff
        // is the mutex-protected `pending` flag below.
        self.state.wakeups.fetch_add(1, Ordering::Relaxed);
        let mut pending = self.state.pending.lock();
        *pending = true;
        self.state.condvar.notify_all();
    }

    /// Mark the event closed; all current and future waits return
    /// [`PollTimeout::Closed`] once pending wakeups are drained.
    pub fn close(&self) {
        self.state.closed.store(true, Ordering::Release);
        let _pending = self.state.pending.lock();
        self.state.condvar.notify_all();
    }

    /// Whether the event has been closed.
    pub fn is_closed(&self) -> bool {
        self.state.closed.load(Ordering::Acquire)
    }

    /// Total number of wake calls so far (used to quantify interrupt counts).
    pub fn wakeups(&self) -> u64 {
        // relaxed-ok: reporting read of a statistic.
        self.state.wakeups.load(Ordering::Relaxed)
    }

    /// Non-blocking poll: consume a pending wakeup if one exists.
    pub fn try_wait(&self) -> PollTimeout {
        let mut pending = self.state.pending.lock();
        if *pending {
            *pending = false;
            PollTimeout::Ready
        } else if self.is_closed() {
            PollTimeout::Closed
        } else {
            PollTimeout::TimedOut
        }
    }

    /// Block until woken or `timeout` elapses.
    pub fn wait_timeout(&self, timeout: Duration) -> PollTimeout {
        let mut pending = self.state.pending.lock();
        if *pending {
            *pending = false;
            return PollTimeout::Ready;
        }
        if self.is_closed() {
            return PollTimeout::Closed;
        }
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let timed_out = self.state.condvar.wait_until(&mut pending, deadline).timed_out();
            if *pending {
                *pending = false;
                return PollTimeout::Ready;
            }
            if self.is_closed() {
                return PollTimeout::Closed;
            }
            if timed_out {
                return PollTimeout::TimedOut;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn wake_before_wait_is_not_lost() {
        let w = Waker::new();
        w.wake();
        assert_eq!(w.try_wait(), PollTimeout::Ready);
        assert_eq!(w.try_wait(), PollTimeout::TimedOut);
    }

    #[test]
    fn wait_times_out() {
        let w = Waker::new();
        assert_eq!(w.wait_timeout(Duration::from_millis(10)), PollTimeout::TimedOut);
    }

    #[test]
    fn cross_thread_wakeup() {
        let w = Waker::new();
        let w2 = w.clone();
        let handle = std::thread::spawn(move || {
            #[allow(clippy::disallowed_methods)] // test: delayed producer
            std::thread::sleep(Duration::from_millis(20));
            w2.wake();
        });
        assert_eq!(w.wait_timeout(Duration::from_secs(5)), PollTimeout::Ready);
        handle.join().unwrap();
        assert_eq!(w.wakeups(), 1);
    }

    #[test]
    fn close_unblocks_waiters() {
        let w = Waker::new();
        let w2 = w.clone();
        let handle = std::thread::spawn(move || {
            #[allow(clippy::disallowed_methods)] // test: delayed producer
            std::thread::sleep(Duration::from_millis(20));
            w2.close();
        });
        assert_eq!(w.wait_timeout(Duration::from_secs(5)), PollTimeout::Closed);
        handle.join().unwrap();
        assert!(w.is_closed());
    }

    #[test]
    fn pending_wakeup_consumed_before_closed_reported() {
        let w = Waker::new();
        w.wake();
        w.close();
        assert_eq!(w.try_wait(), PollTimeout::Ready);
        assert_eq!(w.try_wait(), PollTimeout::Closed);
    }
}
