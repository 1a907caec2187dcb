//! The SPE sampling unit: interval counter, random perturbation, pipeline
//! tracking, collision detection, and filtering.
//!
//! This is the "hardware" part of SPE (Figure 1 of the paper, left to
//! middle): it decides *which* operations become samples and what the sample
//! record contains. Buffer management, interrupts, and overhead accounting
//! live in [`crate::driver`].

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use arch_sim::{DataSource, MemOutcome, Op, OpCounts, OpKind, Quiet, TimeConv};

use crate::config::SpeConfig;
use crate::packet::SpeRecord;
use crate::stats::SpeStats;

/// What happened to one operation presented to the sampling unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleOutcome {
    /// The operation was not selected (interval counter did not expire).
    NotSampled,
    /// The operation was selected but the previous sample was still being
    /// tracked in the pipeline; the new sample is dropped.
    Collision,
    /// The operation was selected and tracked but discarded by the filters.
    Filtered,
    /// The operation produced a sample record.
    Record(SpeRecord),
}

/// Per-core SPE sampling state machine.
pub struct SamplerUnit {
    cfg: SpeConfig,
    /// The operation kinds `cfg` samples.
    population: Vec<OpKind>,
    stats: Arc<SpeStats>,
    timeconv: TimeConv,
    rng: StdRng,
    /// Operations remaining until the next sample is selected.
    interval_remaining: u64,
    /// Core-cycle time until which the previously selected sample is still
    /// being tracked through the pipeline (collision window).
    in_flight_until: u64,
}

impl std::fmt::Debug for SamplerUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SamplerUnit")
            .field("cfg", &self.cfg)
            .field("interval_remaining", &self.interval_remaining)
            .field("in_flight_until", &self.in_flight_until)
            .finish()
    }
}

impl SamplerUnit {
    /// Create a sampling unit. `seed` makes the perturbation deterministic
    /// per core (use the core id, so a run's samples repeat run to run).
    pub fn new(cfg: SpeConfig, stats: Arc<SpeStats>, timeconv: TimeConv, seed: u64) -> Self {
        let population = [OpKind::Load, OpKind::Store, OpKind::Branch]
            .into_iter()
            .filter(|&kind| cfg.samples_kind(kind))
            .collect();
        let mut unit = SamplerUnit {
            cfg,
            population,
            stats,
            timeconv,
            rng: StdRng::seed_from_u64(seed ^ 0x5045_5350), // "SPES"
            interval_remaining: 0,
            in_flight_until: 0,
        };
        unit.reload_interval();
        unit
    }

    /// The configuration in force.
    pub fn config(&self) -> &SpeConfig {
        &self.cfg
    }

    fn reload_interval(&mut self) {
        let jitter =
            if self.cfg.jitter_ops == 0 { 0 } else { self.rng.gen_range(0..=self.cfg.jitter_ops) };
        self.interval_remaining = self.cfg.sample_period.saturating_sub(jitter).max(1);
    }

    /// How long the core may keep operations from the unit: nothing outside
    /// the sampled population ever needs showing, and inside it the interval
    /// counter says how many operations come before the next selected one.
    pub(crate) fn quiet(&self) -> Quiet {
        Quiet::over(&self.population, self.interval_remaining - 1)
    }

    /// Take the operations the core retired without presenting them: the
    /// interval counter runs down by the population operations among them in
    /// one step. The core never skips the selected operation, so the jitter
    /// is drawn at exactly the operations it is drawn at when every
    /// operation goes through [`SamplerUnit::on_op`].
    pub(crate) fn on_skipped(&mut self, counts: &OpCounts) {
        let population: u64 = self.population.iter().map(|&kind| counts.of(kind)).sum();
        debug_assert!(population < self.interval_remaining, "skipped past the selected operation");
        self.stats.add(&self.stats.population_ops, population);
        self.interval_remaining = self.interval_remaining.saturating_sub(population).max(1);
    }

    /// Present one retired operation to the sampling unit. When the core
    /// presents an operation before the interval ran out (another observer
    /// on the core asked for it), the unit counts it down like any other.
    pub fn on_op(
        &mut self,
        op: &Op,
        outcome: Option<&MemOutcome>,
        now_cycles: u64,
    ) -> SampleOutcome {
        if !self.cfg.samples_kind(op.kind) {
            return SampleOutcome::NotSampled;
        }
        self.stats.add(&self.stats.population_ops, 1);

        if self.interval_remaining > 1 {
            self.interval_remaining -= 1;
            return SampleOutcome::NotSampled;
        }
        // The interval counter reached zero: this operation is selected.
        self.reload_interval();
        self.stats.add(&self.stats.samples_selected, 1);

        if now_cycles < self.in_flight_until {
            self.stats.add(&self.stats.collisions, 1);
            return SampleOutcome::Collision;
        }

        let (latency, source) = match outcome {
            Some(o) => (o.latency_cycles, o.source),
            // Branch samples carry no data access; model them as trivially
            // tracked operations.
            None => (1, DataSource::L1),
        };
        self.in_flight_until = now_cycles + latency;

        if latency < self.cfg.min_latency {
            self.stats.add(&self.stats.filtered_out, 1);
            return SampleOutcome::Filtered;
        }

        let vaddr = if outcome.is_some() { op.vaddr } else { 0 };
        let timestamp = self.timeconv.cycles_to_timer_ticks(now_cycles).max(1);
        SampleOutcome::Record(SpeRecord::new(op.pc, vaddr, timestamp, latency, op.kind, source))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arch_sim::MemOutcome;

    fn outcome(latency: u64) -> MemOutcome {
        MemOutcome {
            source: DataSource::L2,
            latency_cycles: latency,
            occupancy_cycles: 1,
            bus_bytes: 0,
            first_touch: false,
        }
    }

    fn unit(period: u64) -> SamplerUnit {
        SamplerUnit::new(
            SpeConfig::loads_stores(period),
            SpeStats::new_shared(),
            TimeConv::altra(),
            42,
        )
    }

    #[test]
    fn sampling_rate_tracks_period() {
        let period = 100;
        let mut u = unit(period);
        let mut records = 0u64;
        let n = 100_000u64;
        let out = outcome(4);
        for i in 0..n {
            let now = i * 4 + 1_000_000;
            if let SampleOutcome::Record(_) =
                u.on_op(&Op::load(0x400, 0x1000 + i * 8, 8), Some(&out), now)
            {
                records += 1;
            }
        }
        let expected = n / period;
        let lo = expected * 95 / 100;
        let hi = expected * 110 / 100;
        assert!(records >= lo && records <= hi, "records={records} expected≈{expected}");
    }

    #[test]
    fn non_population_ops_never_sampled() {
        let mut u = unit(2);
        let mut sampled = 0;
        for i in 0..1000u64 {
            match u.on_op(&Op::other(0x4), None, i) {
                SampleOutcome::NotSampled => {}
                _ => sampled += 1,
            }
        }
        assert_eq!(sampled, 0);
        assert_eq!(u.stats.snapshot().population_ops, 0);

        // Branches are excluded under the default (NMO) configuration.
        let mut u = unit(2);
        for i in 0..100u64 {
            assert_eq!(u.on_op(&Op::branch(0x4), None, i), SampleOutcome::NotSampled);
        }
    }

    #[test]
    fn collisions_when_samples_overlap_in_flight_window() {
        // Period 2 with long-latency accesses and a clock that barely
        // advances: the next sample lands inside the previous sample's
        // tracking window.
        let cfg = SpeConfig { jitter_ops: 0, ..SpeConfig::loads_stores(2) };
        let stats = SpeStats::new_shared();
        let mut u = SamplerUnit::new(cfg, stats.clone(), TimeConv::altra(), 7);
        let out = outcome(10_000);
        for i in 0..1000u64 {
            u.on_op(&Op::load(0, 0x1000, 8), Some(&out), 1 + i);
        }
        let snap = stats.snapshot();
        assert!(snap.collisions > 0, "expected collisions, got {snap:?}");
        assert!(snap.collisions < snap.samples_selected);
    }

    #[test]
    fn no_collisions_when_gaps_are_long() {
        let cfg = SpeConfig { jitter_ops: 0, ..SpeConfig::loads_stores(100) };
        let stats = SpeStats::new_shared();
        let mut u = SamplerUnit::new(cfg, stats.clone(), TimeConv::altra(), 7);
        let out = outcome(4);
        for i in 0..100_000u64 {
            u.on_op(&Op::load(0, 0x1000, 8), Some(&out), i * 4);
        }
        assert_eq!(stats.snapshot().collisions, 0);
    }

    #[test]
    fn latency_filter_discards_fast_hits() {
        let cfg = SpeConfig { min_latency: 50, jitter_ops: 0, ..SpeConfig::loads_stores(10) };
        let stats = SpeStats::new_shared();
        let mut u = SamplerUnit::new(cfg, stats.clone(), TimeConv::altra(), 3);
        let fast = outcome(4);
        for i in 0..10_000u64 {
            let r = u.on_op(&Op::load(0, 0x1000, 8), Some(&fast), i * 400);
            assert!(!matches!(r, SampleOutcome::Record(_)), "fast access must be filtered");
        }
        let snap = stats.snapshot();
        assert!(snap.filtered_out > 0);
        assert_eq!(snap.records_written, 0);
    }

    #[test]
    fn records_carry_op_facts() {
        let cfg = SpeConfig { jitter_ops: 0, ..SpeConfig::loads_stores(1) };
        let mut u = SamplerUnit::new(cfg, SpeStats::new_shared(), TimeConv::altra(), 3);
        let out = MemOutcome {
            source: DataSource::RemoteDram(1),
            latency_cycles: 333,
            occupancy_cycles: 20,
            bus_bytes: 64,
            first_touch: false,
        };
        let r = u.on_op(&Op::store(0x40_2000, 0xffff_0000_beef, 8), Some(&out), 1_000_000);
        match r {
            SampleOutcome::Record(rec) => {
                assert_eq!(rec.vaddr, 0xffff_0000_beef);
                assert_eq!(rec.pc, 0x40_2000);
                assert!(rec.is_store);
                assert_eq!(rec.source, DataSource::RemoteDram(1), "serving node survives");
                assert_eq!(rec.latency, 333);
                assert!(rec.timestamp > 0);
            }
            other => panic!("expected a record, got {other:?}"),
        }
    }

    #[test]
    fn perturbation_keeps_period_close_but_not_exact() {
        // With jitter enabled, the gap between consecutive samples should vary
        // but stay within [period - jitter, period].
        let period = 1000u64;
        let cfg = SpeConfig::loads_stores(period);
        let jitter = cfg.jitter_ops;
        let stats = SpeStats::new_shared();
        let mut u = SamplerUnit::new(cfg, stats, TimeConv::altra(), 11);
        let out = outcome(4);
        let mut gaps = Vec::new();
        let mut last: Option<u64> = None;
        for i in 0..200_000u64 {
            if let SampleOutcome::Record(_) = u.on_op(&Op::load(0, 0x1000, 8), Some(&out), i * 400)
            {
                if let Some(prev) = last {
                    gaps.push(i - prev);
                }
                last = Some(i);
            }
        }
        assert!(!gaps.is_empty());
        let distinct: std::collections::HashSet<_> = gaps.iter().collect();
        assert!(distinct.len() > 1, "perturbation should vary the gap");
        for g in &gaps {
            assert!(*g >= period - jitter && *g <= period, "gap {g} outside expected range");
        }
    }
}
