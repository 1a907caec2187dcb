//! Shared SPE sampling statistics.
//!
//! The sensitivity study in the paper (Section VII) reports, per run: the
//! number of processed samples, the number of sample collisions
//! (`PERF_AUX_FLAG_COLLISION`), and derived accuracy/overhead. The sampling
//! unit and driver update a [`SpeStats`] instance (shared via `Arc` with the
//! NMO runtime) as they work; [`SpeStatsSnapshot`] is a plain-old-data copy
//! for reports.
//!
//! One block has one writer at a time: the sampling unit and driver of a core
//! run only inside that core's observer callbacks, which the simulator makes
//! from whoever holds the core — the engine's thread while one is attached,
//! a flusher under the `machine.core` lock otherwise — and the hand-over
//! between the two goes through that lock. Everybody else only loads. So an
//! update is a plain load and store, not a locked read-modify-write.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Atomically updated sampling statistics for one SPE event (one core).
#[derive(Debug, Default)]
pub struct SpeStats {
    /// Operations belonging to the sampled population (matched the op-type
    /// configuration) that were seen while the event was enabled.
    pub population_ops: AtomicU64,
    /// Samples selected by the interval counter.
    pub samples_selected: AtomicU64,
    /// Sample records written to the aux buffer.
    pub records_written: AtomicU64,
    /// Samples dropped because the previous sample was still being tracked.
    pub collisions: AtomicU64,
    /// Records discarded by the latency/op filters after tracking.
    pub filtered_out: AtomicU64,
    /// Records dropped because the aux buffer was full (truncation).
    pub truncated_records: AtomicU64,
    /// Watermark interrupts raised.
    pub interrupts: AtomicU64,
    /// Bytes written to the aux buffer.
    pub aux_bytes_written: AtomicU64,
    /// Cycles of profiling overhead charged to the profiled core.
    pub overhead_cycles: AtomicU64,
}

/// A point-in-time copy of [`SpeStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpeStatsSnapshot {
    /// See [`SpeStats::population_ops`].
    pub population_ops: u64,
    /// See [`SpeStats::samples_selected`].
    pub samples_selected: u64,
    /// See [`SpeStats::records_written`].
    pub records_written: u64,
    /// See [`SpeStats::collisions`].
    pub collisions: u64,
    /// See [`SpeStats::filtered_out`].
    pub filtered_out: u64,
    /// See [`SpeStats::truncated_records`].
    pub truncated_records: u64,
    /// See [`SpeStats::interrupts`].
    pub interrupts: u64,
    /// See [`SpeStats::aux_bytes_written`].
    pub aux_bytes_written: u64,
    /// See [`SpeStats::overhead_cycles`].
    pub overhead_cycles: u64,
}

impl SpeStats {
    /// Create a fresh, shareable statistics block.
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Take a snapshot of the current values.
    pub fn snapshot(&self) -> SpeStatsSnapshot {
        SpeStatsSnapshot {
            // relaxed-ok: the whole block is monotone emulation-statistics
            // counters; snapshots tolerate mid-run skew and are exact once
            // the emulated cores have joined.
            population_ops: self.population_ops.load(Ordering::Relaxed),
            samples_selected: self.samples_selected.load(Ordering::Relaxed), // relaxed-ok: as above
            records_written: self.records_written.load(Ordering::Relaxed),   // relaxed-ok: as above
            collisions: self.collisions.load(Ordering::Relaxed),             // relaxed-ok: as above
            filtered_out: self.filtered_out.load(Ordering::Relaxed),         // relaxed-ok: as above
            truncated_records: self.truncated_records.load(Ordering::Relaxed), // relaxed-ok: as above
            interrupts: self.interrupts.load(Ordering::Relaxed), // relaxed-ok: as above
            aux_bytes_written: self.aux_bytes_written.load(Ordering::Relaxed), // relaxed-ok: as above
            overhead_cycles: self.overhead_cycles.load(Ordering::Relaxed), // relaxed-ok: as above
        }
    }

    pub(crate) fn add(&self, field: &AtomicU64, n: u64) {
        // relaxed-ok: single writer — only whoever holds the core (the
        // engine's thread, or a flusher under `machine.core`; that lock
        // orders one after the other) updates its block, so no increment can
        // fall between this load and store; readers only `load` (`snapshot`).
        field.store(field.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }
}

impl SpeStatsSnapshot {
    /// Sum two snapshots (e.g. across cores).
    pub fn merge(&mut self, other: &SpeStatsSnapshot) {
        self.population_ops += other.population_ops;
        self.samples_selected += other.samples_selected;
        self.records_written += other.records_written;
        self.collisions += other.collisions;
        self.filtered_out += other.filtered_out;
        self.truncated_records += other.truncated_records;
        self.interrupts += other.interrupts;
        self.aux_bytes_written += other.aux_bytes_written;
        self.overhead_cycles += other.overhead_cycles;
    }

    /// Fraction of selected samples that were lost before reaching the aux
    /// buffer (collisions + filter + truncation).
    pub fn loss_fraction(&self) -> f64 {
        if self.samples_selected == 0 {
            return 0.0;
        }
        1.0 - self.records_written as f64 / self.samples_selected as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_merge() {
        let stats = SpeStats::new_shared();
        stats.add(&stats.samples_selected, 10);
        stats.add(&stats.records_written, 8);
        stats.add(&stats.collisions, 2);
        let a = stats.snapshot();
        assert_eq!(a.samples_selected, 10);
        assert!((a.loss_fraction() - 0.2).abs() < 1e-12);

        let mut merged = a;
        merged.merge(&a);
        assert_eq!(merged.samples_selected, 20);
        assert_eq!(merged.records_written, 16);
        assert_eq!(merged.collisions, 4);
    }

    #[test]
    fn loss_fraction_zero_when_no_samples() {
        assert_eq!(SpeStatsSnapshot::default().loss_fraction(), 0.0);
    }
}
