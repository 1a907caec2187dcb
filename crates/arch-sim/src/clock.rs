//! Time-base conversion between core cycles, nanoseconds, and the SPE
//! generic-timer timescale.
//!
//! ARM SPE timestamps are taken from the generic timer (`CNTVCT_EL0`), which
//! runs at a different (much lower) frequency than both the core clock and
//! the perf clock. The perf metadata page publishes a `(time_zero,
//! time_shift, time_mult)` triple so user space can convert timer ticks into
//! perf-clock nanoseconds:
//!
//! ```text
//! ns = time_zero + (ticks * time_mult) >> time_shift
//! ```
//!
//! NMO performs exactly this conversion when decoding SPE records (Section
//! IV-A of the paper); [`TimeConv`] implements both directions so the
//! profiler and the tests can verify it.

/// Conversion between core cycles, generic-timer ticks, and nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeConv {
    /// Core frequency in Hz.
    pub core_freq_hz: u64,
    /// Generic-timer (SPE timestamp) frequency in Hz. ARM systems commonly use
    /// 25 MHz or 1 GHz; the Altra uses 25 MHz.
    pub timer_freq_hz: u64,
    /// Offset added to converted timestamps (perf's `time_zero`), nanoseconds.
    pub time_zero_ns: u64,
}

impl TimeConv {
    /// Conversion for the paper's testbed: 3.0 GHz cores, 25 MHz generic timer.
    pub fn altra() -> Self {
        TimeConv { core_freq_hz: 3_000_000_000, timer_freq_hz: 25_000_000, time_zero_ns: 0 }
    }

    /// Construct a conversion with an explicit time-zero offset.
    pub fn with_time_zero(mut self, time_zero_ns: u64) -> Self {
        self.time_zero_ns = time_zero_ns;
        self
    }

    /// Convert core cycles to nanoseconds (truncating).
    pub fn cycles_to_ns(&self, cycles: u64) -> u64 {
        ((cycles as u128 * 1_000_000_000) / self.core_freq_hz as u128) as u64
    }

    /// Convert nanoseconds to core cycles (truncating).
    pub fn ns_to_cycles(&self, ns: u64) -> u64 {
        ((ns as u128 * self.core_freq_hz as u128) / 1_000_000_000) as u64
    }

    /// Convert core cycles to generic-timer ticks (the unit SPE timestamps use).
    pub fn cycles_to_timer_ticks(&self, cycles: u64) -> u64 {
        ((cycles as u128 * self.timer_freq_hz as u128) / self.core_freq_hz as u128) as u64
    }

    /// Convert generic-timer ticks to nanoseconds directly.
    pub fn timer_ticks_to_ns(&self, ticks: u64) -> u64 {
        self.time_zero_ns + ((ticks as u128 * 1_000_000_000) / self.timer_freq_hz as u128) as u64
    }

    /// Compute the `(time_zero, time_shift, time_mult)` triple that perf would
    /// publish in the mmap metadata page for this timer frequency.
    ///
    /// perf chooses `time_shift` such that `time_mult = (10^9 << shift) /
    /// timer_freq` fits in a `u32`. We use the same approach with a fixed
    /// shift of 20 bits, which is what arm64 kernels typically report for a
    /// 25 MHz timer.
    pub fn perf_mmap_triple(&self) -> (u64, u16, u32) {
        let shift: u16 = 20;
        let mult = ((1_000_000_000u128 << shift) / self.timer_freq_hz as u128) as u32;
        (self.time_zero_ns, shift, mult)
    }

    /// Apply the perf metadata-page conversion, as NMO does when decoding.
    #[inline]
    pub fn apply_mmap_triple(ticks: u64, time_zero: u64, time_shift: u16, time_mult: u32) -> u64 {
        time_zero + ((ticks as u128 * time_mult as u128) >> time_shift) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_ns_roundtrip_at_core_freq() {
        let tc = TimeConv::altra();
        assert_eq!(tc.cycles_to_ns(3_000_000_000), 1_000_000_000);
        assert_eq!(tc.ns_to_cycles(1_000_000_000), 3_000_000_000);
        // Round trip within truncation error of one cycle's worth of ns.
        for cycles in [1u64, 7, 1000, 123_456_789] {
            let ns = tc.cycles_to_ns(cycles);
            let back = tc.ns_to_cycles(ns);
            assert!(back <= cycles && cycles - back <= 3, "cycles={cycles} back={back}");
        }
    }

    #[test]
    fn timer_ticks_much_coarser_than_cycles() {
        let tc = TimeConv::altra();
        // 3 GHz core, 25 MHz timer: 120 cycles per tick.
        assert_eq!(tc.cycles_to_timer_ticks(120), 1);
        assert_eq!(tc.cycles_to_timer_ticks(119), 0);
        assert_eq!(tc.cycles_to_timer_ticks(3_000_000_000), 25_000_000);
    }

    #[test]
    fn mmap_triple_matches_direct_conversion() {
        let tc = TimeConv::altra().with_time_zero(5_000);
        let (zero, shift, mult) = tc.perf_mmap_triple();
        assert_eq!(zero, 5_000);
        for ticks in [0u64, 1, 25_000_000, 1_234_567] {
            let direct = tc.timer_ticks_to_ns(ticks);
            let via_triple = TimeConv::apply_mmap_triple(ticks, zero, shift, mult);
            let diff = direct.abs_diff(via_triple);
            // The fixed-point triple loses a little precision; stay within 1 us
            // over a second of ticks.
            assert!(diff <= 1_000, "ticks={ticks} direct={direct} triple={via_triple}");
        }
    }

    #[test]
    fn time_zero_offsets_conversion() {
        let tc = TimeConv::altra().with_time_zero(123);
        assert_eq!(tc.timer_ticks_to_ns(0), 123);
    }
}
