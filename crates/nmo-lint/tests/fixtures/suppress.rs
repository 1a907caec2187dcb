// nmo-lint: allow-file(relaxed-atomics-audit)
//! Fixture for suppression syntax: the file-level allow silences every
//! unjustified `Relaxed` here; the line-level allow silences exactly one
//! unwrap, so the second unwrap is this file's only expected finding.

pub fn loads(x: &std::sync::atomic::AtomicU32) -> u32 {
    let a = x.load(std::sync::atomic::Ordering::Relaxed);
    a + x.load(std::sync::atomic::Ordering::Relaxed)
}

pub fn unwraps(v: Option<u32>) -> u32 {
    // nmo-lint: allow(no-unwrap-in-lib)
    let a = v.unwrap();
    let b = v.unwrap();
    a + b
}
