//! SPE sampling configuration and its encoding into `perf_event_attr`.
//!
//! NMO configures SPE exclusively through the perf ABI (paper Section IV-A):
//! the PMU type is `0x2c`, the `config` field selects which operation types
//! are sampled (loads, stores, branches — NMO excludes branches due to known
//! Neoverse sampling-bias errata), and `sample_period` holds the interval
//! counter reload value. This module converts between that encoding and a
//! typed [`SpeConfig`].

use perf_sub::attr::{
    PerfEventAttr, PERF_TYPE_ARM_SPE, SPE_CONFIG_BRANCH_FILTER, SPE_CONFIG_LOAD_FILTER,
    SPE_CONFIG_STORE_FILTER, SPE_CONFIG_TS_ENABLE,
};

use arch_sim::OpKind;

/// Typed SPE sampling configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpeConfig {
    /// Sampling period: operations between samples (interval counter reload).
    pub sample_period: u64,
    /// Maximum random perturbation subtracted from the reload value to avoid
    /// lock-step bias (hardware uses a small LFSR; we default to
    /// `min(period/16, 64)` operations).
    pub jitter_ops: u64,
    /// Sample load operations.
    pub sample_loads: bool,
    /// Sample store operations.
    pub sample_stores: bool,
    /// Sample branch operations (off in NMO).
    pub sample_branches: bool,
    /// Emit timestamp packets.
    pub timestamps: bool,
    /// Discard records whose total latency is below this many cycles.
    pub min_latency: u64,
    /// Aux watermark in bytes: how much aux data accumulates before a
    /// `PERF_RECORD_AUX` record is published and the profiler reads it. 0 keeps
    /// the kernel default (half the aux buffer). Streaming profilers lower
    /// this so data reaches the profiler with bounded lag — at the cost of
    /// more watermark interrupts, which the overhead model charges.
    pub aux_watermark: u64,
}

impl SpeConfig {
    /// NMO's default configuration: loads + stores with timestamps at the
    /// given period, no latency filter, branches excluded.
    pub fn loads_stores(sample_period: u64) -> Self {
        SpeConfig {
            sample_period,
            jitter_ops: default_jitter(sample_period),
            sample_loads: true,
            sample_stores: true,
            sample_branches: false,
            timestamps: true,
            min_latency: 0,
            aux_watermark: 0,
        }
    }

    /// Build from a `perf_event_attr` (the inverse of [`SpeConfig::to_attr`]).
    pub fn from_attr(attr: &PerfEventAttr) -> Option<Self> {
        if !attr.is_spe() {
            return None;
        }
        Some(SpeConfig {
            sample_period: attr.sample_period,
            jitter_ops: default_jitter(attr.sample_period),
            sample_loads: attr.samples_loads(),
            sample_stores: attr.samples_stores(),
            sample_branches: attr.samples_branches(),
            timestamps: attr.timestamps_enabled(),
            min_latency: attr.min_latency,
            aux_watermark: attr.aux_watermark,
        })
    }

    /// Encode into a `perf_event_attr` for `perf_event_open`.
    pub fn to_attr(&self) -> PerfEventAttr {
        let mut config = 0u64;
        if self.timestamps {
            config |= SPE_CONFIG_TS_ENABLE;
        }
        if self.sample_loads {
            config |= SPE_CONFIG_LOAD_FILTER;
        }
        if self.sample_stores {
            config |= SPE_CONFIG_STORE_FILTER;
        }
        if self.sample_branches {
            config |= SPE_CONFIG_BRANCH_FILTER;
        }
        PerfEventAttr {
            type_: PERF_TYPE_ARM_SPE,
            config,
            sample_period: self.sample_period,
            min_latency: self.min_latency,
            aux_watermark: self.aux_watermark,
            ..Default::default()
        }
    }

    /// Whether an operation of this kind belongs to the sampled population.
    pub fn samples_kind(&self, kind: OpKind) -> bool {
        match kind {
            OpKind::Load => self.sample_loads,
            OpKind::Store => self.sample_stores,
            OpKind::Branch => self.sample_branches,
            OpKind::Other => false,
        }
    }
}

fn default_jitter(period: u64) -> u64 {
    (period / 16).min(64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_roundtrip() {
        let cfg = SpeConfig::loads_stores(4096);
        let attr = cfg.to_attr();
        assert_eq!(attr.config, 0x6_0000_0001, "matches the paper's example value");
        assert_eq!(attr.sample_period, 4096);
        let back = SpeConfig::from_attr(&attr).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn non_spe_attr_rejected() {
        let attr = PerfEventAttr { config: 0x13, ..Default::default() };
        assert!(SpeConfig::from_attr(&attr).is_none());
    }

    #[test]
    fn population_membership() {
        let cfg = SpeConfig::loads_stores(1000);
        assert!(cfg.samples_kind(OpKind::Load));
        assert!(cfg.samples_kind(OpKind::Store));
        assert!(!cfg.samples_kind(OpKind::Branch));
        assert!(!cfg.samples_kind(OpKind::Other));

        let mut with_branches = cfg;
        with_branches.sample_branches = true;
        assert!(with_branches.samples_kind(OpKind::Branch));
    }

    #[test]
    fn jitter_scales_with_period_but_is_capped() {
        assert_eq!(SpeConfig::loads_stores(160).jitter_ops, 10);
        assert_eq!(SpeConfig::loads_stores(4096).jitter_ops, 64);
        assert_eq!(SpeConfig::loads_stores(1 << 20).jitter_ops, 64);
    }
}
