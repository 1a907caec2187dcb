// nmo-lint: allow-file(lock-order)
//! Fixture for suppression syntax: the file-level allow silences the
//! self-deadlock below; the line-level allow silences exactly one
//! unjustified `Relaxed`, so the second one is this file's only expected
//! finding.

pub fn relock(alpha: &parking_lot::Mutex<u32>) -> u32 {
    let a = alpha.lock();
    let b = alpha.lock();
    *a + *b
}

pub fn loads(x: &std::sync::atomic::AtomicU32) -> u32 {
    // nmo-lint: allow(relaxed-atomics-audit)
    let a = x.load(std::sync::atomic::Ordering::Relaxed);
    let b = x.load(std::sync::atomic::Ordering::Relaxed);
    a + b
}
