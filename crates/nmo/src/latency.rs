//! Per-data-source latency-distribution profiling (the paper's tiered-memory
//! latency figures).
//!
//! SPE's headline advantage over counter-based profilers is that every
//! sample carries the measured load-to-use *latency* and the *data source*
//! that served it, so the profiler can build a latency distribution per
//! memory tier — cache hits, local-DDR fills, and remote/CXL fills separate
//! into distinct modes, exactly the view the paper (and BSC's tooling)
//! builds on the CXL-emulated NUMA testbed. This module provides the
//! streaming-friendly histogram behind that figure:
//!
//! * [`LatencyHistogram`] — fixed-size log2 buckets over the 16-bit SPE
//!   latency counter, O(1) insert, order-independent merge, and
//!   interpolated percentiles (p50/p90/p99).
//! * [`LatencyProfile`] — one histogram per [`DataSource`], plus local- and
//!   remote-tier rollups for the DDR-vs-CXL comparison.
//!
//! The histograms are order-independent, so [`crate::sink::LatencySink`]
//! (recording batch by batch, however the stream was batched or sharded)
//! lands on bit-identical results to [`LatencyProfile::from_samples`] over
//! the run's sample log ([`crate::Profile::samples`]) — the reference scan
//! the test suites compare against; nothing in the library calls it.
//!
//! The sink's per-sample fold is only arithmetic and stores the CPU can
//! pipeline, since its cost per sample is the profile's cost (paper §VII):
//! it does not search `per_source` but indexes a dense table (in `sink.rs`,
//! beside the shard that owns it) by [`DataSource::slot`], itself one table
//! load, so nothing branches on the sample's source; [`LatencyHistogram`]
//! keeps no count beside its buckets and stores `min` / `max` only when
//! they change, so a run of samples from one source is not chained through
//! a store per sample. It emits the same ascending profile at the end.

use arch_sim::DataSource;

use crate::runtime::AddressSample;

/// Number of log2 latency buckets: bucket `i` covers `[2^i, 2^(i+1))`
/// cycles (bucket 0 also holds latency 0), which spans the full range of
/// the 16-bit SPE latency counter.
pub const LATENCY_BUCKETS: usize = 16;

/// A streaming log2-bucket histogram over SPE latencies. The observation
/// count is the bucket sum, so [`LatencyHistogram::record`] keeps no count
/// of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; LATENCY_BUCKETS],
    sum: u64,
    min: u16,
    max: u16,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: [0; LATENCY_BUCKETS], sum: 0, min: u16::MAX, max: 0 }
    }
}

/// The log2 bucket of `latency`, latency 0 joining 1 in bucket 0: one
/// bit scan, no branch.
fn bucket_of(latency: u16) -> usize {
    (u32::from(latency) | 1).ilog2() as usize
}

/// Inclusive value range covered by bucket `i`.
fn bucket_bounds(i: usize) -> (f64, f64) {
    let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
    let hi = ((1u64 << (i + 1)) - 1) as f64;
    (lo, hi)
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one latency observation.
    ///
    /// `min` / `max` are written only when they change: a rarely taken
    /// branch once the extremes settle, where an unconditional
    /// load–select–store puts each sample's store on the next one's path.
    #[inline]
    pub fn record(&mut self, latency: u16) {
        self.buckets[bucket_of(latency)] += 1;
        self.sum += latency as u64;
        if latency < self.min {
            self.min = latency;
        }
        if latency > self.max {
            self.max = latency;
        }
    }

    /// Merge another histogram into this one (order-independent).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean latency in cycles (0.0 when empty).
    pub fn mean(&self) -> f64 {
        match self.count() {
            0 => 0.0,
            count => self.sum as f64 / count as f64,
        }
    }

    /// Smallest observed latency (0 when empty).
    pub fn min(&self) -> u16 {
        if self.count() == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observed latency (0 when empty).
    pub fn max(&self) -> u16 {
        self.max
    }

    /// Raw bucket counts (bucket `i` covers `[2^i, 2^(i+1))` cycles).
    pub fn buckets(&self) -> &[u64; LATENCY_BUCKETS] {
        &self.buckets
    }

    /// Approximate `p`-th percentile (`p` in `[0, 1]`), linearly
    /// interpolated inside the containing log2 bucket.
    ///
    /// Edge cases are pinned (and unit-tested) rather than left to the
    /// interpolation:
    ///
    /// * an empty histogram returns `0.0` for every `p`;
    /// * rank 1 returns the observed minimum and rank `count` the observed
    ///   maximum exactly — so a single-observation histogram returns that
    ///   observation for every `p`, and `p = 0.0` / `p = 1.0` are always
    ///   the true extremes (historically these interpolated across the
    ///   whole containing power-of-two bucket);
    /// * interior ranks interpolate within their bucket, with the bucket
    ///   bounds tightened to the observed min/max so the result can never
    ///   leave the observed range.
    pub fn percentile(&self, p: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let rank = (p.clamp(0.0, 1.0) * count as f64).ceil().max(1.0) as u64;
        if rank <= 1 {
            return self.min() as f64;
        }
        if rank >= count {
            return self.max as f64;
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let (lo, hi) = bucket_bounds(i);
                let lo = lo.max(self.min() as f64);
                let hi = hi.min(self.max as f64);
                let frac = (rank - seen) as f64 / c as f64;
                return (lo + frac * (hi - lo)).clamp(self.min() as f64, self.max as f64);
            }
            seen += c;
        }
        self.max as f64
    }

    /// Median latency (interpolated).
    pub fn p50(&self) -> f64 {
        self.percentile(0.50)
    }

    /// 90th-percentile latency (interpolated).
    pub fn p90(&self) -> f64 {
        self.percentile(0.90)
    }

    /// 99th-percentile latency (interpolated).
    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }
}

/// Latency distributions keyed by the SPE data source, the per-tier view of
/// a profiled run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyProfile {
    /// One histogram per observed data source, ascending by source (caches
    /// first, then DRAM nodes, then remote nodes).
    pub per_source: Vec<(DataSource, LatencyHistogram)>,
}

impl LatencyProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a profile by scanning decoded samples — the reference the sink
    /// is tested against.
    pub fn from_samples(samples: &[AddressSample]) -> Self {
        let mut profile = Self::new();
        for s in samples {
            profile.record(s.source, s.latency);
        }
        profile
    }

    /// Record one observation: a binary search of `per_source`. The
    /// reference fold ([`LatencyProfile::from_samples`]), and the one that
    /// tells apart every node id a hand-built source can carry — a
    /// [`DataSource::slot`] keeps the low 4 bits.
    pub fn record(&mut self, source: DataSource, latency: u16) {
        match self.per_source.binary_search_by_key(&source, |(s, _)| *s) {
            Ok(i) => self.per_source[i].1.record(latency),
            Err(i) => {
                let mut hist = LatencyHistogram::new();
                hist.record(latency);
                self.per_source.insert(i, (source, hist));
            }
        }
    }

    /// Merge another profile into this one.
    pub fn merge(&mut self, other: &LatencyProfile) {
        for (source, hist) in &other.per_source {
            match self.per_source.binary_search_by_key(source, |(s, _)| *s) {
                Ok(i) => self.per_source[i].1.merge(hist),
                Err(i) => self.per_source.insert(i, (*source, *hist)),
            }
        }
    }

    /// Whether no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.per_source.is_empty()
    }

    /// Total observations across every source.
    pub fn total_count(&self) -> u64 {
        self.per_source.iter().map(|(_, h)| h.count()).sum()
    }

    /// The histogram for one source, if observed.
    pub fn get(&self, source: DataSource) -> Option<&LatencyHistogram> {
        self.per_source
            .binary_search_by_key(&source, |(s, _)| *s)
            .ok()
            .map(|i| &self.per_source[i].1)
    }

    /// Rollup of every local-tier DRAM source ([`DataSource::Dram`]).
    pub fn local_dram(&self) -> LatencyHistogram {
        self.rollup(|s| matches!(s, DataSource::Dram(_)))
    }

    /// Rollup of every remote-tier DRAM source ([`DataSource::RemoteDram`]).
    pub fn remote_dram(&self) -> LatencyHistogram {
        self.rollup(|s| matches!(s, DataSource::RemoteDram(_)))
    }

    fn rollup(&self, keep: impl Fn(DataSource) -> bool) -> LatencyHistogram {
        let mut out = LatencyHistogram::new();
        for (source, hist) in &self.per_source {
            if keep(*source) {
                out.merge(hist);
            }
        }
        out
    }

    /// Whether the DRAM-class latencies are bimodal across tiers: both
    /// tiers were observed and the remote-tier median sits strictly above
    /// the local-tier median (the paper's DDR-vs-CXL signature).
    pub fn dram_tiers_bimodal(&self) -> bool {
        let (local, remote) = (self.local_dram(), self.remote_dram());
        local.count() > 0 && remote.count() > 0 && remote.p50() > local.p50()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arch_sim::MemLevel;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(255), 7);
        assert_eq!(bucket_of(256), 8);
        assert_eq!(bucket_of(u16::MAX), 15);
    }

    #[test]
    fn histogram_statistics() {
        let mut h = LatencyHistogram::new();
        for lat in [4u16, 4, 4, 100, 100, 1000] {
            h.record(lat);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), 4);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - (4.0 * 3.0 + 200.0 + 1000.0) / 6.0).abs() < 1e-9);
        // The median rank lands in the bucket holding the three 4s.
        assert!(h.p50() < 10.0, "p50 {}", h.p50());
        assert!(h.p99() > 500.0, "p99 {}", h.p99());
    }

    #[test]
    fn empty_histogram_is_benign() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        // Pinned: every percentile of an empty histogram is 0.0.
        for p in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.percentile(p), 0.0, "p={p}");
        }
    }

    #[test]
    fn single_sample_percentiles_are_exact() {
        // Pinned: with one observation every percentile *is* that
        // observation — no interpolation across the containing log2 bucket
        // (330 lives in [256, 511]; the old interpolation returned bucket
        // geometry rather than the sample).
        for value in [0u16, 1, 330, 1000, u16::MAX] {
            let mut h = LatencyHistogram::new();
            h.record(value);
            for p in [0.0, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(h.percentile(p), value as f64, "value={value} p={p}");
            }
        }
    }

    #[test]
    fn single_bucket_percentiles_stay_inside_the_observed_range() {
        // Two observations sharing one log2 bucket ([256, 511]): the
        // extremes are exact and interior ranks never leave [min, max].
        let mut h = LatencyHistogram::new();
        h.record(300);
        h.record(400);
        assert_eq!(h.p50(), 300.0, "rank 1 is the observed minimum");
        assert_eq!(h.p99(), 400.0, "rank count is the observed maximum");
        let mut many = LatencyHistogram::new();
        for v in [300u16, 320, 340, 360, 380, 400] {
            many.record(v);
        }
        for p in [0.0, 0.3, 0.5, 0.7, 0.9, 1.0] {
            let v = many.percentile(p);
            assert!((300.0..=400.0).contains(&v), "p={p} -> {v}");
        }
        assert_eq!(many.percentile(0.0), 300.0);
        assert_eq!(many.percentile(1.0), 400.0);
    }

    #[test]
    fn extreme_ranks_are_exact_even_in_lone_sample_buckets() {
        // A lone sample in the minimum bucket used to interpolate to the
        // bucket's upper bound; rank 1 must return the true minimum.
        let mut h = LatencyHistogram::new();
        h.record(4);
        h.record(100);
        h.record(110);
        assert_eq!(h.percentile(0.0), 4.0);
        assert!(h.p50() >= 4.0 && h.p50() <= 110.0);
        assert_eq!(h.percentile(1.0), 110.0);
        assert_eq!(h.p99(), 110.0, "p99 of 3 samples is the maximum");
    }

    #[test]
    fn percentiles_are_monotone_and_clamped() {
        let mut h = LatencyHistogram::new();
        for lat in [330u16, 331, 335, 340, 350, 900, 910, 920, 990, 1000] {
            h.record(lat);
        }
        let (p10, p50, p90, p99) = (h.percentile(0.1), h.p50(), h.p90(), h.p99());
        assert!(p10 <= p50 && p50 <= p90 && p90 <= p99, "{p10} {p50} {p90} {p99}");
        assert!(p10 >= h.min() as f64);
        assert!(p99 <= h.max() as f64);
    }

    #[test]
    fn merge_is_order_independent() {
        let observations: Vec<u16> = (0..1000u32).map(|i| ((i * 37) % 5000) as u16).collect();
        let mut whole = LatencyHistogram::new();
        for &o in &observations {
            whole.record(o);
        }
        let mut merged = LatencyHistogram::new();
        for chunk in observations.chunks(13) {
            let mut part = LatencyHistogram::new();
            for &o in chunk {
                part.record(o);
            }
            merged.merge(&part);
        }
        assert_eq!(whole, merged);
    }

    fn sample(source: DataSource, latency: u16) -> AddressSample {
        AddressSample { time_ns: 1, vaddr: 0x1000, core: 0, is_store: false, latency, source }
    }

    #[test]
    fn profile_separates_sources_and_rolls_up_tiers() {
        let samples = vec![
            sample(DataSource::L1, 4),
            sample(DataSource::Dram(0), 330),
            sample(DataSource::Dram(0), 340),
            sample(DataSource::RemoteDram(1), 990),
            sample(DataSource::RemoteDram(1), 1010),
            sample(DataSource::RemoteDram(1), 980),
        ];
        let p = LatencyProfile::from_samples(&samples);
        assert_eq!(p.per_source.len(), 3);
        assert_eq!(p.total_count(), 6);
        assert_eq!(p.get(DataSource::Dram(0)).unwrap().count(), 2);
        assert_eq!(p.get(DataSource::L2), None);
        assert_eq!(p.local_dram().count(), 2);
        assert_eq!(p.remote_dram().count(), 3);
        assert!(p.dram_tiers_bimodal(), "remote p50 above local p50");
        // Sources are sorted: caches before DRAM nodes before remote nodes.
        let order: Vec<DataSource> = p.per_source.iter().map(|(s, _)| *s).collect();
        assert_eq!(order, vec![DataSource::L1, DataSource::Dram(0), DataSource::RemoteDram(1)]);
        assert!(order.iter().all(|s| s.level() <= MemLevel::Dram));
    }

    #[test]
    fn profile_streaming_merge_matches_post_hoc() {
        let samples: Vec<AddressSample> = (0..500u64)
            .map(|i| {
                let source = match i % 3 {
                    0 => DataSource::L1,
                    1 => DataSource::Dram(0),
                    _ => DataSource::RemoteDram(1),
                };
                sample(source, ((i * 7) % 2000) as u16)
            })
            .collect();
        let post_hoc = LatencyProfile::from_samples(&samples);
        let mut streamed = LatencyProfile::new();
        for chunk in samples.chunks(19) {
            streamed.merge(&LatencyProfile::from_samples(chunk));
        }
        assert_eq!(post_hoc, streamed);
    }

    #[test]
    fn unimodal_profile_is_not_bimodal() {
        let p = LatencyProfile::from_samples(&[
            sample(DataSource::Dram(0), 330),
            sample(DataSource::Dram(0), 335),
        ]);
        assert!(!p.dram_tiers_bimodal(), "no remote tier observed");
        assert!(LatencyProfile::new().is_empty());
    }
}
