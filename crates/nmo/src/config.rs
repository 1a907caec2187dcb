//! NMO configuration: the environment variables of Table I as a plain
//! struct.
//!
//! | Option            | Description                    | Default |
//! |-------------------|--------------------------------|---------|
//! | `NMO_ENABLE`      | Enable profile collection      | off     |
//! | `NMO_NAME`        | Base name of output files      | "nmo"   |
//! | `NMO_MODE`        | Profile collection mode        | none    |
//! | `NMO_PERIOD`      | Sampling period                | 0       |
//! | `NMO_TRACK_RSS`   | Capture working set size       | off     |
//! | `NMO_BUFSIZE`     | Ring buffer size \[MiB\]       | 1       |
//! | `NMO_AUXBUFSIZE`  | Aux buffer size \[MiB\]        | 1       |
//!
//! NMO is designed for transparent, preload-style activation, so everything
//! can be driven from the environment; library users can instead construct a
//! [`NmoConfig`] directly (struct-update syntax over
//! [`NmoConfig::default`] or [`NmoConfig::paper_default`]).

use spe::{OverheadModel, SpeConfig};

use crate::NmoError;

/// Profile collection mode (`NMO_MODE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// No collection (default).
    #[default]
    None,
    /// Sample load instructions only.
    Load,
    /// Sample store instructions only.
    Store,
    /// Sample both loads and stores (the mode used throughout the paper).
    LoadStore,
}

impl Mode {
    /// Parse the `NMO_MODE` value; `None` for a string that names no mode
    /// (`none`, `off` and the empty string name [`Mode::None`]).
    pub fn parse(s: &str) -> Option<Mode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "load" | "loads" | "l" => Some(Mode::Load),
            "store" | "stores" | "s" => Some(Mode::Store),
            "mem" | "loadstore" | "load_store" | "ls" | "all" => Some(Mode::LoadStore),
            "none" | "off" | "" => Some(Mode::None),
            _ => None,
        }
    }

    /// Whether this mode requires SPE sampling.
    pub fn uses_spe(self) -> bool {
        self != Mode::None
    }
}

/// Complete NMO configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NmoConfig {
    /// Master enable (`NMO_ENABLE`).
    pub enabled: bool,
    /// Base name for output files (`NMO_NAME`).
    pub name: String,
    /// Collection mode (`NMO_MODE`).
    pub mode: Mode,
    /// SPE sampling period in operations (`NMO_PERIOD`). 0 disables sampling.
    pub period: u64,
    /// Track resident set size over time (`NMO_TRACK_RSS`).
    pub track_rss: bool,
    /// Ring buffer size in MiB (`NMO_BUFSIZE`).
    pub bufsize_mib: u64,
    /// Aux buffer size in bytes (`NMO_AUXBUFSIZE`, given there in MiB).
    /// Mapped as a power of two of machine pages, at least one: the
    /// Figure 9 sweep asks for 2 pages of 64 KiB, below one MiB.
    pub auxbuf_bytes: u64,
    /// Aux-watermark override in bytes (`NMO_AUXWATERMARK`): how much SPE
    /// data accumulates before the kernel publishes a `PERF_RECORD_AUX`
    /// record, which is when its samples are decoded. `None` keeps the
    /// kernel default of half the aux buffer. Streaming sessions set a small value (e.g. a
    /// few KiB) so samples reach the pipeline with bounded lag; the extra
    /// watermark interrupts are charged by the overhead model like any
    /// others.
    pub aux_watermark_bytes: Option<u64>,
    /// Overhead/cost model used by the simulated SPE driver.
    pub overhead: OverheadModel,
}

impl Default for NmoConfig {
    fn default() -> Self {
        NmoConfig {
            enabled: false,
            name: "nmo".to_string(),
            mode: Mode::None,
            period: 0,
            track_rss: false,
            bufsize_mib: 1,
            auxbuf_bytes: 1 << 20,
            aux_watermark_bytes: None,
            overhead: OverheadModel::default(),
        }
    }
}

impl NmoConfig {
    /// The configuration the paper uses for its sensitivity study: loads and
    /// stores sampled at `period`, RSS tracking on (bandwidth is always
    /// tracked).
    pub fn paper_default(period: u64) -> Self {
        NmoConfig {
            enabled: true,
            mode: Mode::LoadStore,
            period,
            track_rss: true,
            ..Default::default()
        }
    }

    /// Read the configuration from environment variables (Table I).
    pub fn from_env() -> Result<Self, NmoError> {
        Self::from_lookup(|k| std::env::var(k).ok())
    }

    /// Read the configuration from an arbitrary lookup function (testable
    /// version of [`NmoConfig::from_env`]). A number that does not parse or
    /// a mode nobody knows is an [`NmoError::Config`] naming the variable and
    /// its value, never a default: `NMO_PERIOD=4o96` must not quietly mean
    /// "period 0, sampling off".
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, NmoError> {
        let bad = |var: &str, value: &str, want: &str| {
            NmoError::Config(format!("{var}={value:?} is not {want}"))
        };
        let integer = |var: &str| match lookup(var) {
            Some(v) => v.trim().parse::<u64>().map(Some).map_err(|_| bad(var, &v, "an integer")),
            None => Ok(None),
        };
        let mut cfg = NmoConfig::default();
        if let Some(v) = lookup("NMO_ENABLE") {
            cfg.enabled = parse_bool(&v);
        }
        if let Some(v) = lookup("NMO_NAME") {
            if !v.trim().is_empty() {
                cfg.name = v.trim().to_string();
            }
        }
        if let Some(v) = lookup("NMO_MODE") {
            cfg.mode = Mode::parse(&v).ok_or_else(|| bad("NMO_MODE", &v, "a collection mode"))?;
        }
        if let Some(period) = integer("NMO_PERIOD")? {
            cfg.period = period;
        }
        if let Some(v) = lookup("NMO_TRACK_RSS") {
            cfg.track_rss = parse_bool(&v);
        }
        if let Some(mib) = integer("NMO_BUFSIZE")? {
            cfg.bufsize_mib = mib.max(1);
        }
        if let Some(mib) = integer("NMO_AUXBUFSIZE")? {
            cfg.auxbuf_bytes = mib.max(1).saturating_mul(1 << 20);
        }
        cfg.aux_watermark_bytes = integer("NMO_AUXWATERMARK")?.filter(|b| *b > 0);
        Ok(cfg)
    }

    /// Whether SPE sampling should be set up.
    pub fn spe_active(&self) -> bool {
        self.enabled && self.mode.uses_spe() && self.period > 0
    }

    /// The SPE configuration implied by this NMO configuration.
    pub fn spe_config(&self) -> SpeConfig {
        let mut spe = SpeConfig::loads_stores(self.period.max(1));
        spe.sample_loads = matches!(self.mode, Mode::Load | Mode::LoadStore);
        spe.sample_stores = matches!(self.mode, Mode::Store | Mode::LoadStore);
        spe.aux_watermark = self.aux_watermark_bytes.unwrap_or(0);
        spe
    }

    /// Ring buffer size in data pages for the given machine page size
    /// (the `(N+1)`-page mmap excludes the metadata page). A size too large
    /// to express saturates; `ProfileSessionBuilder::build` rejects it.
    pub fn ring_pages(&self, page_bytes: u64) -> u64 {
        mib_to_pages(self.bufsize_mib, page_bytes)
    }

    /// Aux buffer size in pages for the given machine page size (saturating
    /// like [`NmoConfig::ring_pages`]).
    pub fn aux_pages(&self, page_bytes: u64) -> u64 {
        round_pages(self.auxbuf_bytes / page_bytes)
    }

    /// Reject ring/aux sizes no session maps: the environment can ask for
    /// any number of MiB, and every profiled core allocates both buffers.
    pub(crate) fn check_buffer_sizes(&self, page_bytes: u64) -> Result<(), NmoError> {
        let sizes = [
            ("ring buffer (NMO_BUFSIZE)", self.ring_pages(page_bytes)),
            ("aux buffer (NMO_AUXBUFSIZE)", self.aux_pages(page_bytes)),
        ];
        for (what, pages) in sizes {
            if pages.checked_mul(page_bytes).is_none_or(|bytes| bytes > MAX_BUFFER_BYTES) {
                return Err(NmoError::Config(format!(
                    "{what} of {pages} pages of {page_bytes} bytes exceeds the {} MiB a session \
                     maps per core",
                    MAX_BUFFER_BYTES >> 20
                )));
            }
        }
        Ok(())
    }

    /// Table I as structured data: `(variable, description, default)`.
    pub fn table1() -> Vec<(&'static str, &'static str, &'static str)> {
        vec![
            ("NMO_ENABLE", "Enable profile collection", "off"),
            ("NMO_NAME", "Base name of output files", "\"nmo\""),
            ("NMO_MODE", "Profile collection mode", "none"),
            ("NMO_PERIOD", "Sampling period", "0"),
            ("NMO_TRACK_RSS", "Capture working set size", "off"),
            ("NMO_BUFSIZE", "Ring buffer size [MiB]", "1"),
            ("NMO_AUXBUFSIZE", "Aux buffer size [MiB]", "1"),
        ]
    }
}

/// The largest ring or aux buffer a session maps per core: eight times the
/// top of the Figure 9 sweep (2 048 pages of 64 KiB).
const MAX_BUFFER_BYTES: u64 = 1 << 30;

/// Buffers are mapped in powers of two of pages (at least one: 0 rounds up
/// to 2^0).
fn round_pages(pages: u64) -> u64 {
    pages.checked_next_power_of_two().unwrap_or(u64::MAX)
}

fn mib_to_pages(mib: u64, page_bytes: u64) -> u64 {
    round_pages(mib.saturating_mul(1 << 20) / page_bytes)
}

fn parse_bool(s: &str) -> bool {
    matches!(s.trim().to_ascii_lowercase().as_str(), "1" | "true" | "yes" | "on")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn defaults_match_table1() {
        let cfg = NmoConfig::default();
        assert!(!cfg.enabled);
        assert_eq!(cfg.name, "nmo");
        assert_eq!(cfg.mode, Mode::None);
        assert_eq!(cfg.period, 0);
        assert!(!cfg.track_rss);
        assert_eq!(cfg.bufsize_mib, 1);
        assert_eq!(cfg.auxbuf_bytes, 1 << 20);
        assert_eq!(NmoConfig::table1().len(), 7);
    }

    #[test]
    fn env_parsing() {
        let env: HashMap<&str, &str> = [
            ("NMO_ENABLE", "1"),
            ("NMO_NAME", "triad"),
            ("NMO_MODE", "mem"),
            ("NMO_PERIOD", "4096"),
            ("NMO_TRACK_RSS", "yes"),
            ("NMO_BUFSIZE", "2"),
            ("NMO_AUXBUFSIZE", "4"),
        ]
        .into_iter()
        .collect();
        let cfg = NmoConfig::from_lookup(|k| env.get(k).map(|v| v.to_string())).unwrap();
        assert!(cfg.enabled);
        assert_eq!(cfg.name, "triad");
        assert_eq!(cfg.mode, Mode::LoadStore);
        assert_eq!(cfg.period, 4096);
        assert!(cfg.track_rss);
        assert_eq!(cfg.bufsize_mib, 2);
        assert_eq!(cfg.auxbuf_bytes, 4 << 20);
        assert!(cfg.spe_active());
    }

    fn one_var(var: &'static str, value: &'static str) -> Result<NmoConfig, NmoError> {
        NmoConfig::from_lookup(|k| (k == var).then(|| value.to_string()))
    }

    /// A value that does not parse is an error naming the variable and the
    /// value, for each of the five variables that carry a number or a mode;
    /// a good value beside it is taken.
    #[test]
    fn unparsable_values_are_config_errors_naming_the_variable() {
        let good = [
            ("NMO_PERIOD", " 4096 "),
            ("NMO_BUFSIZE", "2"),
            ("NMO_AUXBUFSIZE", "4"),
            ("NMO_AUXWATERMARK", "8192"),
            ("NMO_MODE", "off"),
        ];
        let taken = NmoConfig {
            period: 4096,
            bufsize_mib: 2,
            auxbuf_bytes: 4 << 20,
            aux_watermark_bytes: Some(8192),
            ..NmoConfig::default()
        };
        let all = NmoConfig::from_lookup(|k| {
            good.iter().find(|(var, _)| *var == k).map(|(_, v)| v.to_string())
        });
        assert_eq!(all.unwrap(), taken);
        let bad = [
            ("NMO_PERIOD", "4o96"),
            ("NMO_BUFSIZE", "-1"),
            ("NMO_AUXBUFSIZE", "1.5"),
            ("NMO_AUXWATERMARK", "4k"),
            ("NMO_MODE", "bogus"),
        ];
        for ((var, value), (_, good_value)) in bad.into_iter().zip(good) {
            assert!(one_var(var, good_value).is_ok(), "{var}={good_value}");
            let err = one_var(var, value).expect_err(value);
            assert!(matches!(err, NmoError::Config(_)), "{err}");
            let message = err.to_string();
            assert!(message.contains(var) && message.contains(value), "{message}");
        }
        // The switches stay lenient: anything but a yes is a no.
        assert!(!one_var("NMO_ENABLE", "maybe").unwrap().enabled);
    }

    #[test]
    fn mode_parse_variants() {
        assert_eq!(Mode::parse("load"), Some(Mode::Load));
        assert_eq!(Mode::parse("STORES"), Some(Mode::Store));
        assert_eq!(Mode::parse("Mem"), Some(Mode::LoadStore));
        assert_eq!(Mode::parse("none"), Some(Mode::None));
        assert_eq!(Mode::parse(""), Some(Mode::None));
        assert_eq!(Mode::parse("bogus"), None);
        assert!(Mode::LoadStore.uses_spe());
        assert!(!Mode::None.uses_spe());
    }

    #[test]
    fn aux_watermark_override_reaches_the_spe_attr() {
        let cfg =
            NmoConfig { enabled: true, mode: Mode::LoadStore, period: 100, ..NmoConfig::default() };
        assert_eq!(cfg.spe_config().to_attr().aux_watermark, 0, "kernel default");
        let cfg = NmoConfig { aux_watermark_bytes: Some(4096), ..cfg };
        assert_eq!(cfg.spe_config().to_attr().aux_watermark, 4096);
        let env = one_var("NMO_AUXWATERMARK", "8192").unwrap();
        assert_eq!(env.aux_watermark_bytes, Some(8192));
        let env = one_var("NMO_AUXWATERMARK", "0").unwrap();
        assert_eq!(env.aux_watermark_bytes, None, "zero means kernel default");
    }

    #[test]
    fn spe_config_reflects_mode_and_period() {
        let cfg =
            NmoConfig { enabled: true, mode: Mode::Load, period: 2048, ..NmoConfig::default() };
        let spe = cfg.spe_config();
        assert!(spe.sample_loads);
        assert!(!spe.sample_stores);
        assert_eq!(spe.sample_period, 2048);

        let cfg = NmoConfig::paper_default(1000);
        assert!(cfg.spe_active());
        assert!(cfg.spe_config().sample_stores);
    }

    #[test]
    fn buffer_sizing_in_64k_pages() {
        let cfg = NmoConfig::default();
        // 1 MiB of 64 KiB pages = 16 pages.
        assert_eq!(cfg.ring_pages(64 * 1024), 16);
        assert_eq!(cfg.aux_pages(64 * 1024), 16);
        let cfg = NmoConfig { auxbuf_bytes: 4 << 20, ..NmoConfig::default() };
        assert_eq!(cfg.aux_pages(64 * 1024), 64);
        // Sub-MiB buffers are expressed exactly.
        let cfg = NmoConfig { auxbuf_bytes: 2 * 64 * 1024, ..NmoConfig::default() };
        assert_eq!(cfg.aux_pages(64 * 1024), 2);
        // `NMO_AUXBUFSIZE` counts MiB, at least one.
        assert_eq!(one_var("NMO_AUXBUFSIZE", "0").unwrap().auxbuf_bytes, 1 << 20);
    }

    /// One byte count gives every aux-buffer size the former pair (a MiB
    /// count plus an optional page-count override) gave: the same pages at
    /// 4 KiB and 64 KiB pages, and a size no session maps is refused either
    /// way.
    #[test]
    fn aux_bytes_give_the_pages_the_mib_and_page_override_pair_gave() {
        let old = |mib: u64, pages: Option<u64>, page_bytes: u64| match pages {
            Some(pages) => round_pages(pages),
            None => round_pages(mib.saturating_mul(1 << 20) / page_bytes),
        };
        for page_bytes in [4 << 10, 64 << 10] {
            for mib in [1u64, 4, 16] {
                for pages in [None, Some(0), Some(2), Some(32), Some(u64::MAX)] {
                    let case = format!("{mib} MiB, override {pages:?}, {page_bytes} B pages");
                    let auxbuf_bytes = match pages {
                        Some(pages) => pages.saturating_mul(page_bytes),
                        None => mib << 20,
                    };
                    let cfg = NmoConfig { auxbuf_bytes, ..NmoConfig::paper_default(64) };
                    let was = old(mib, pages, page_bytes);
                    if was.checked_mul(page_bytes).is_some_and(|b| b <= MAX_BUFFER_BYTES) {
                        assert_eq!(cfg.aux_pages(page_bytes), was, "{case}");
                        assert!(cfg.check_buffer_sizes(page_bytes).is_ok(), "{case}");
                    } else {
                        let err = cfg.check_buffer_sizes(page_bytes).expect_err(&case);
                        assert!(matches!(err, NmoError::Config(_)), "{case}: {err}");
                    }
                }
            }
        }
    }

    #[test]
    fn spe_inactive_without_period_or_mode() {
        let cfg =
            NmoConfig { enabled: true, mode: Mode::LoadStore, period: 0, ..NmoConfig::default() };
        assert!(!cfg.spe_active());
        let cfg =
            NmoConfig { enabled: true, mode: Mode::None, period: 100, ..NmoConfig::default() };
        assert!(!cfg.spe_active());
        let cfg = NmoConfig {
            enabled: false,
            mode: Mode::LoadStore,
            period: 100,
            ..NmoConfig::default()
        };
        assert!(!cfg.spe_active());
    }
}
