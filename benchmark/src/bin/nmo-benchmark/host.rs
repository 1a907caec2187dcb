//! What the host tells us about this process: CPU time, peak memory, and
//! how many hardware threads it may use (recorded in every output, because
//! the throughput numbers mean nothing without it).

/// `std::thread::available_parallelism`, 1 when unknown.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `mallopt` parameters and their documented initial values.
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;
const INITIAL_THRESHOLD_BYTES: i32 = 128 * 1024;

/// Pin glibc malloc's two thresholds at their initial values. Setting
/// either switches off their *dynamic* adjustment, under which the first
/// large block freed raises both for the rest of the process (up to 32 and
/// 64 MiB): from then on freed buffers of the session threads' arenas stay
/// resident, the resident set ratchets up over the repetitions by an amount
/// that depends on which thread got which arena, and `peak_rss_mib` of
/// `trace_rw_128c` reads anything from 184 to 285 MiB on the same code.
/// Pinned, every buffer of 128 KiB or more is mapped on allocation and
/// unmapped on free, and the peak reads 186 MiB on nearly every run.
pub fn pin_malloc_thresholds() {
    // SAFETY: `mallopt` takes two integers and no pointers; it is called
    // once, first thing in `main`, before any other thread exists. glibc,
    // which defines it, is what std links on the only platform this
    // benchmark runs on (64-bit Linux, gnu).
    unsafe {
        mallopt(M_MMAP_THRESHOLD, INITIAL_THRESHOLD_BYTES);
        mallopt(M_TRIM_THRESHOLD, INITIAL_THRESHOLD_BYTES);
    }
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds (user + system) this process has consumed so far, summed
/// over every thread it ever ran — including the session's pump, consumer
/// and monitor threads that have already been joined, which per-thread
/// `/proc` files no longer show.
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which points at a live, properly aligned `Timespec` whose
    // layout (two 64-bit fields) matches the C struct on 64-bit Linux, the
    // only platform this benchmark runs on; libc is already linked by std.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_seconds() > before);
    }

    #[test]
    fn peak_rss_and_parallelism_are_positive() {
        assert!(peak_rss_mib() > 0.0);
        assert!(host_parallelism() >= 1);
    }
}
