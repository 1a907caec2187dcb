//! `perf_event_attr` — the attribute block passed to `perf_event_open`.
//!
//! Section IV-A of the paper: NMO sets the `type` field to `0x2c` (the ARM
//! SPE PMU type on the test system), encodes the sampled operation types into
//! the `config` field (e.g. `0x600000001` selects loads + stores with
//! timestamps enabled), sets `sample_period` from `NMO_PERIOD`, and uses
//! `aux_watermark` to control how often `PERF_RECORD_AUX` metadata is
//! published into the ring buffer.

use crate::{PerfError, Result};

/// Generic hardware PMU type (`PERF_TYPE_HARDWARE`), the default of an
/// attribute block that names no PMU.
pub const PERF_TYPE_HARDWARE: u32 = 0;

/// The dynamic PMU type of the ARM SPE device on the paper's testbed.
pub const PERF_TYPE_ARM_SPE: u32 = 0x2c;

/// `config` bit enabling SPE timestamps (bit 0, as in the paper's example
/// value `0x600000001`).
pub const SPE_CONFIG_TS_ENABLE: u64 = 1 << 0;
/// `config` bit selecting load sampling (the `2` nibble of `0x6_0000_0001`).
pub const SPE_CONFIG_LOAD_FILTER: u64 = 1 << 33;
/// `config` bit selecting store sampling (the `4` nibble of `0x6_0000_0001`).
pub const SPE_CONFIG_STORE_FILTER: u64 = 1 << 34;
/// `config` bit selecting branch sampling (excluded by NMO because of known
/// sampling-bias errata on Neoverse N1).
pub const SPE_CONFIG_BRANCH_FILTER: u64 = 1 << 35;
/// `config` field selecting loads + stores + timestamps — the value quoted in
/// the paper (`0x600000001`).
pub const SPE_CONFIG_LOADS_AND_STORES: u64 =
    SPE_CONFIG_TS_ENABLE | SPE_CONFIG_LOAD_FILTER | SPE_CONFIG_STORE_FILTER;

/// The subset of `perf_event_attr` NMO uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfEventAttr {
    /// PMU type (`0x2c` for ARM SPE, `0` for generic hardware counters).
    pub type_: u32,
    /// PMU-specific configuration bits.
    pub config: u64,
    /// Sampling period in operations (SPE interval-counter reload value).
    pub sample_period: u64,
    /// Aux-buffer watermark in bytes: when at least this much new aux data has
    /// accumulated, the kernel publishes a `PERF_RECORD_AUX` record and wakes
    /// pollers. 0 means "half the aux buffer" (kernel default).
    pub aux_watermark: u64,
    /// Exclude kernel-mode samples.
    pub exclude_kernel: bool,
    /// Start disabled (enabled later via ioctl in real perf; via
    /// [`crate::PerfEvent::enable`] here).
    pub disabled: bool,
    /// Minimum total latency filter for SPE samples (0 = no filter).
    pub min_latency: u64,
}

impl Default for PerfEventAttr {
    fn default() -> Self {
        PerfEventAttr {
            type_: PERF_TYPE_HARDWARE,
            config: 0,
            sample_period: 0,
            aux_watermark: 0,
            exclude_kernel: true,
            disabled: false,
            min_latency: 0,
        }
    }
}

impl PerfEventAttr {
    /// Attribute block for ARM SPE sampling of loads and stores at the given
    /// period, as NMO builds it (Section IV-A).
    pub fn arm_spe_loads_stores(sample_period: u64) -> Self {
        PerfEventAttr {
            type_: PERF_TYPE_ARM_SPE,
            config: SPE_CONFIG_LOADS_AND_STORES,
            sample_period,
            ..Default::default()
        }
    }

    /// Whether this attribute selects the ARM SPE PMU.
    pub fn is_spe(&self) -> bool {
        self.type_ == PERF_TYPE_ARM_SPE
    }

    /// Whether load sampling is selected.
    pub fn samples_loads(&self) -> bool {
        self.config & SPE_CONFIG_LOAD_FILTER != 0
    }

    /// Whether store sampling is selected.
    pub fn samples_stores(&self) -> bool {
        self.config & SPE_CONFIG_STORE_FILTER != 0
    }

    /// Whether branch sampling is selected.
    pub fn samples_branches(&self) -> bool {
        self.config & SPE_CONFIG_BRANCH_FILTER != 0
    }

    /// Whether SPE timestamp packets are enabled.
    pub fn timestamps_enabled(&self) -> bool {
        self.config & SPE_CONFIG_TS_ENABLE != 0
    }

    /// Validate the attribute combination (mirrors the kernel's EINVAL checks
    /// that matter for NMO).
    pub fn validate(&self) -> Result<()> {
        if self.is_spe() {
            if self.sample_period == 0 {
                return Err(PerfError::InvalidAttr(
                    "SPE events require a non-zero sample_period".into(),
                ));
            }
            if !self.samples_loads() && !self.samples_stores() && !self.samples_branches() {
                return Err(PerfError::InvalidAttr(
                    "SPE events must sample at least one operation type".into(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_value_selects_loads_and_stores() {
        // The paper quotes 0x600000001 for "all loads and stores".
        assert_eq!(SPE_CONFIG_LOADS_AND_STORES, 0x6_0000_0001);
        let attr = PerfEventAttr::arm_spe_loads_stores(4096);
        assert!(attr.is_spe());
        assert!(attr.samples_loads());
        assert!(attr.samples_stores());
        assert!(!attr.samples_branches());
        assert!(attr.timestamps_enabled());
        assert_eq!(attr.type_, 0x2c);
        attr.validate().unwrap();
    }

    #[test]
    fn spe_without_period_is_invalid() {
        let attr = PerfEventAttr::arm_spe_loads_stores(0);
        assert!(matches!(attr.validate(), Err(PerfError::InvalidAttr(_))));
    }

    #[test]
    fn spe_without_op_types_is_invalid() {
        let attr = PerfEventAttr {
            type_: PERF_TYPE_ARM_SPE,
            config: SPE_CONFIG_TS_ENABLE,
            sample_period: 1000,
            ..Default::default()
        };
        assert!(attr.validate().is_err());
    }

    #[test]
    fn hardware_attr_is_valid() {
        let attr = PerfEventAttr { config: 0x13, ..Default::default() };
        assert!(!attr.is_spe());
        attr.validate().unwrap();
    }
}
