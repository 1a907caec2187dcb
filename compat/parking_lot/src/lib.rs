//! Offline drop-in subset of the `parking_lot` API, backed by `std::sync`.
//!
//! The workspace builds in environments without access to crates.io, so the
//! handful of `parking_lot` types the profiler uses ([`Mutex`], [`RwLock`],
//! [`Condvar`]) are provided here with the same (non-poisoning, guard-based)
//! surface. Poisoned std locks are transparently recovered: the simulated
//! machine's state is protected by invariants, not by poisoning.
//!
//! # Runtime lock-order checking (`NMO_LOCK_CHECK`)
//!
//! Because every lock in the workspace goes through this shim, it doubles
//! as the repo's lock-order analysis. Set the environment variable
//! `NMO_LOCK_CHECK=1` (checked once, at the first lock acquisition) and
//! every **blocking** acquisition is instrumented:
//!
//! * each thread keeps a stack of the locks it currently holds;
//! * a global acquisition graph records, per lock *instance*, the observed
//!   "A held while acquiring B" edges;
//! * before a thread blocks on a lock, the checker walks the graph — if the
//!   locks it already holds are reachable *from* the one it wants, two
//!   threads have used opposite orders and the process **panics** with both
//!   lock names instead of deadlocking silently at some later alignment;
//! * per-name acquisition counts and maximum hold times are recorded and
//!   surfaced through [`lock_report`].
//!
//! [`Mutex::try_lock`] records edges and hold times but never panics:
//! opportunistic reverse-order `try_lock` is a legitimate pattern precisely
//! because it cannot block. A [`Condvar::wait_until`] releases and
//! reacquires its mutex; the reacquisition is exempt from the order check
//! (the wait-loop pattern holds only that lock) but hold times are split
//! around the wait so a report never blames a condvar sleep on the lock.
//!
//! Give the locks that matter stable names with [`Mutex::named`] /
//! [`RwLock::named`]; unnamed locks report as `<unnamed>` with their
//! instance id. When `NMO_LOCK_CHECK` is unset the only cost is one relaxed
//! atomic load per acquisition. Tests can force the checker on in-process
//! with [`check::force_enable`].

#![warn(missing_docs)]
// The compat shims are the one place allowed to touch std::sync directly:
// they exist to wrap it (see clippy.toml's disallowed-methods), and the
// checker's own state must use raw std locks to avoid instrumenting itself.
#![allow(clippy::disallowed_methods)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::AtomicU64;
use std::time::Instant;

pub mod check;

use check::Tracked;

/// A mutual-exclusion lock with `parking_lot`'s non-poisoning `lock()` API.
pub struct Mutex<T: ?Sized> {
    /// Lazily assigned instance id for the lock-order checker (0 = not yet
    /// assigned; ids are only assigned while `NMO_LOCK_CHECK` is active).
    id: AtomicU64,
    /// Stable diagnostics name (see [`Mutex::named`]); `""` for unnamed.
    name: &'static str,
    inner: std::sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
///
/// The inner std guard lives in an `Option` so [`Condvar::wait_until`] can
/// temporarily hand it to `std::sync::Condvar` and put it back; outside that
/// window it is always `Some`.
pub struct MutexGuard<'a, T: ?Sized> {
    track: Option<Tracked>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Create a new mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Self::named(value, "")
    }

    /// Create a new mutex with a stable name for the lock-order checker's
    /// reports (see [`lock_report`] and the crate docs).
    pub const fn named(value: T, name: &'static str) -> Self {
        Mutex { id: AtomicU64::new(0), name, inner: std::sync::Mutex::new(value) }
    }

    /// Consume the mutex and return the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until it is available.
    ///
    /// Under `NMO_LOCK_CHECK=1` this panics instead of deadlocking when the
    /// acquisition inverts an order the process has already observed.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let plan = check::before_blocking_acquire(&self.id, self.name, true);
        let g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        MutexGuard { track: plan.map(check::acquired), inner: Some(g) }
    }

    /// Try to acquire the lock without blocking. Never panics on order
    /// inversion — a non-blocking acquisition cannot deadlock the caller.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let g = match self.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        let plan = check::before_try_acquire(&self.id, self.name, true);
        Some(MutexGuard { track: plan.map(check::acquired), inner: Some(g) })
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside condvar wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present outside condvar wait")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(track) = self.track.take() {
            check::released(track);
        }
    }
}

/// A reader-writer lock with `parking_lot`'s non-poisoning API.
///
/// Under `NMO_LOCK_CHECK=1` both `read` and `write` acquisitions are
/// tracked against the same lock instance: a read can block on a pending
/// writer, so reader acquisitions participate in order cycles too.
pub struct RwLock<T: ?Sized> {
    id: AtomicU64,
    name: &'static str,
    inner: std::sync::RwLock<T>,
}

/// RAII guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    track: Option<Tracked>,
    inner: std::sync::RwLockReadGuard<'a, T>,
}

/// RAII guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    track: Option<Tracked>,
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Create a new reader-writer lock protecting `value`.
    pub const fn new(value: T) -> Self {
        Self::named(value, "")
    }

    /// Create a new reader-writer lock with a stable diagnostics name (see
    /// [`Mutex::named`]).
    pub const fn named(value: T, name: &'static str) -> Self {
        RwLock { id: AtomicU64::new(0), name, inner: std::sync::RwLock::new(value) }
    }

    /// Consume the lock and return the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let plan = check::before_blocking_acquire(&self.id, self.name, false);
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        RwLockReadGuard { track: plan.map(check::acquired), inner }
    }

    /// Acquire exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let plan = check::before_blocking_acquire(&self.id, self.name, true);
        let inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        RwLockWriteGuard { track: plan.map(check::acquired), inner }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_read() {
            Ok(g) => f.debug_tuple("RwLock").field(&&*g).finish(),
            Err(_) => f.write_str("RwLock(<locked>)"),
        }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(track) = self.track.take() {
            check::released(track);
        }
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(track) = self.track.take() {
            check::released(track);
        }
    }
}

/// Result of a timed [`Condvar`] wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Whether the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable usable with [`MutexGuard`].
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Condvar { inner: std::sync::Condvar::new() }
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Block until notified or `deadline` passes, releasing the guard's lock
    /// while waiting.
    ///
    /// For the lock-order checker the wait counts as a release followed by
    /// a fresh (order-check-exempt) acquisition, so hold-time statistics
    /// measure actual hold windows, not condvar sleeps.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let reacquire = guard.track.take().map(check::released_for_wait);
        let std_guard = guard.inner.take().expect("guard present outside condvar wait");
        let timeout = deadline.saturating_duration_since(Instant::now());
        let (std_guard, result) =
            self.inner.wait_timeout(std_guard, timeout).unwrap_or_else(|e| e.into_inner());
        guard.inner = Some(std_guard);
        guard.track = reacquire.map(check::acquired);
        WaitTimeoutResult { timed_out: result.timed_out() }
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

/// Per-lock-name acquisition statistics recorded while `NMO_LOCK_CHECK` is
/// active (see [`lock_report`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockStats {
    /// The name given via [`Mutex::named`], or `<unnamed>`.
    pub name: &'static str,
    /// Number of completed acquisitions (guard dropped or condvar wait).
    pub acquisitions: u64,
    /// Longest single hold, in nanoseconds.
    pub max_hold_ns: u64,
}

/// Snapshot of the per-name hold-time statistics, sorted by name. Empty
/// unless the checker is (or was) enabled.
pub fn lock_report() -> Vec<LockStats> {
    check::report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1u32);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2, 3]);
        {
            let r1 = l.read();
            let r2 = l.read();
            assert_eq!(r1.len() + r2.len(), 6);
        }
        l.write().push(4);
        assert_eq!(l.read().len(), 4);
    }

    #[test]
    fn condvar_times_out_and_wakes() {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        let mut g = m.lock();
        let res = cv.wait_until(&mut g, Instant::now() + Duration::from_millis(5));
        assert!(res.timed_out());
        assert!(!*g);
        drop(g);

        std::thread::scope(|s| {
            let m = &m;
            let cv = &cv;
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                *m.lock() = true;
                cv.notify_all();
            });
            let mut g = m.lock();
            let deadline = Instant::now() + Duration::from_secs(5);
            while !*g {
                let res = cv.wait_until(&mut g, deadline);
                assert!(!res.timed_out(), "missed wakeup");
            }
        });
    }
}
