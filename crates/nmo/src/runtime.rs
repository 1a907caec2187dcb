//! The assembled profiling result ([`Profile`]).
//!
//! The runtime machinery described in paper Section IV — per-core SPE event
//! setup, reading the aux buffer, packet decoding — lives in
//! [`crate::backend::SpeBackend`] (the monitoring thread itself is simulated
//! time in [`spe::OverheadModel`]; no host thread stands in for it); profile
//! assembly is orchestrated by
//! [`crate::session::ProfileSession`]. This module defines the data the
//! session produces.

use arch_sim::{DataSource, Machine, MachineCounters, MemLevel, MigrationStats};
use spe::SpeStatsSnapshot;

use crate::annotate::{AddrTag, Annotations, Phase};
use crate::bandwidth::BandwidthSeries;
use crate::capacity::CapacitySeries;
use crate::config::NmoConfig;
use crate::latency::LatencyProfile;
use crate::regions::RegionProfile;
use crate::sink::{AnalysisRecord, AnalysisReport};
use crate::stream::StreamStats;
use crate::workload::WorkloadReport;

/// One decoded SPE address sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressSample {
    /// Sample time in perf-clock nanoseconds (after timescale conversion).
    pub time_ns: u64,
    /// Sampled virtual data address.
    pub vaddr: u64,
    /// Core the sample was collected on.
    pub core: usize,
    /// Whether the sampled operation was a store.
    pub is_store: bool,
    /// Latency reported by SPE, cycles.
    pub latency: u16,
    /// The memory-system source that served the access, from the SPE
    /// data-source packet (carries the node id for DRAM-class fills).
    pub source: DataSource,
}

impl AddressSample {
    /// The memory-level class of the serving source.
    pub fn level(&self) -> MemLevel {
        self.source.level()
    }
}

/// The complete result of one profiled run.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Base name (from `NMO_NAME`).
    pub name: String,
    /// Configuration in force.
    pub config: NmoConfig,
    /// Names of the sample backends that ran under the session.
    pub backends: Vec<String>,
    /// Number of successfully decoded samples.
    pub processed_samples: u64,
    /// Number of records skipped because of invalid header bytes or zero fields.
    pub skipped_packets: u64,
    /// Number of `PERF_RECORD_AUX` records consumed.
    pub aux_records: u64,
    /// AUX records carrying the collision flag.
    pub collision_flagged_records: u64,
    /// AUX records carrying the truncation flag.
    pub truncated_flagged_records: u64,
    /// Aggregated SPE statistics over all profiled cores.
    pub spe: SpeStatsSnapshot,
    /// Per-core SPE statistics.
    pub per_core_spe: Vec<(usize, SpeStatsSnapshot)>,
    /// Machine-wide hardware counters at the end of the run: every op this
    /// session's machine retired since it was built, exactly. These are the
    /// `perf stat` counts (`mem_access`, `ld_retired`, `st_retired`,
    /// `inst_retired`, `br_retired`) and the Eq. 1 baseline.
    pub counters: MachineCounters,
    /// Page-migration counters at the end of the run (non-zero when a
    /// tiering policy moved pages between memory nodes mid-run).
    pub migrations: MigrationStats,
    /// Capacity-over-time series (level 1).
    pub capacity: CapacitySeries,
    /// Bandwidth-over-time series (level 2).
    pub bandwidth: BandwidthSeries,
    /// Outputs of every analysis sink registered on the session.
    pub analyses: Vec<AnalysisRecord>,
    /// Registered address tags.
    pub tags: Vec<AddrTag>,
    /// Recorded execution phases.
    pub phases: Vec<Phase>,
    /// Report of the workload the session drove, if any.
    pub workload: Option<WorkloadReport>,
    /// Streaming-pipeline statistics, when the run used
    /// [`crate::session::ProfileSession::run_streaming`] (windows closed,
    /// batches delivered/dropped, late batches).
    pub stream: Option<StreamStats>,
    /// Simulated execution time, cycles (makespan across cores).
    pub elapsed_cycles: u64,
    /// Simulated execution time, nanoseconds.
    pub elapsed_ns: u64,
}

impl Profile {
    /// An empty profile carrying only a name and configuration (the starting
    /// point backends and sinks fill in).
    pub fn empty(name: impl Into<String>, config: NmoConfig) -> Self {
        Profile {
            name: name.into(),
            config,
            backends: Vec::new(),
            processed_samples: 0,
            skipped_packets: 0,
            aux_records: 0,
            collision_flagged_records: 0,
            truncated_flagged_records: 0,
            spe: SpeStatsSnapshot::default(),
            per_core_spe: Vec::new(),
            counters: MachineCounters::default(),
            migrations: MigrationStats::default(),
            capacity: CapacitySeries::default(),
            bandwidth: BandwidthSeries::default(),
            analyses: Vec::new(),
            tags: Vec::new(),
            phases: Vec::new(),
            workload: None,
            stream: None,
            elapsed_cycles: 0,
            elapsed_ns: 0,
        }
    }

    /// Every delivered address sample, ascending by `(time_ns, core)`, when
    /// a [`crate::sink::SampleLogSink`] was registered on the session (or
    /// the replay); `None` otherwise — nothing else retains samples.
    pub fn samples(&self) -> Option<&[AddressSample]> {
        self.analyses.iter().find_map(|a| match &a.report {
            AnalysisReport::Samples(s) => Some(s.as_slice()),
            _ => None,
        })
    }

    /// Region-based attribution of the address samples (level 3), when a
    /// [`crate::sink::RegionSink`] was registered.
    pub fn regions(&self) -> Option<&RegionProfile> {
        self.analyses.iter().find_map(|a| match &a.report {
            AnalysisReport::Regions(r) => Some(r),
            _ => None,
        })
    }

    /// Attach a manually driven tiering report (from
    /// [`crate::tiering::HotPageTracker::report`]) so [`Profile::summary`],
    /// the CSV reports, and [`Profile::tiering`] can see it, as they see a
    /// registered tracker's report.
    pub fn attach_tiering(&mut self, report: crate::tiering::TieringReport) {
        self.analyses.push(AnalysisRecord {
            sink: "tiering".to_string(),
            report: AnalysisReport::Tiering(report),
        });
    }

    /// The profile-guided tiering report, when a
    /// [`crate::tiering::HotPageTracker`] ran on the session: the applied
    /// migration log plus the before/after per-tier latency distributions.
    pub fn tiering(&self) -> Option<&crate::tiering::TieringReport> {
        self.analyses.iter().find_map(|a| match &a.report {
            AnalysisReport::Tiering(t) => Some(t),
            _ => None,
        })
    }

    /// Per-data-source latency distributions (the tiered-memory view), when
    /// a [`crate::sink::LatencySink`] was registered.
    pub fn latency(&self) -> Option<&LatencyProfile> {
        self.analyses.iter().find_map(|a| match &a.report {
            AnalysisReport::Latency(l) => Some(l),
            _ => None,
        })
    }

    /// Accuracy per Eq. (1) against a baseline `mem_access` count.
    pub fn accuracy_against(&self, mem_counted: u64) -> f64 {
        crate::analysis::accuracy(mem_counted, self.processed_samples, self.config.period)
    }

    /// Total sample collisions as NMO counts them (hardware collisions plus
    /// aux-buffer drops flagged `PERF_AUX_FLAG_COLLISION`).
    pub fn collisions(&self) -> u64 {
        self.spe.collisions + self.spe.truncated_records
    }

    /// Fraction of selected SPE samples lost before reaching the aux buffer
    /// (collisions + filters + truncation; paper §SPE limitations). 0.0 when
    /// SPE did not run.
    pub fn loss_fraction(&self) -> f64 {
        self.spe.loss_fraction()
    }
}

/// Above this fraction of selected SPE samples lost (or of streamed batches
/// dropped), a run warns on stderr.
const LOSS_WARN_THRESHOLD: f64 = 0.1;

/// Emit a stderr warning when the run lost more than
/// [`LOSS_WARN_THRESHOLD`] of its selected SPE samples to
/// collisions/filters/truncation — the accuracy-collapse regime of the
/// paper's Figures 8–9, better surfaced loudly than silently
/// under-reported. The same threshold guards the streaming pipeline's own
/// loss channel: batches the event bus dropped under backpressure (data that
/// was decoded but never reached the sinks).
pub(crate) fn warn_on_loss(profile: &Profile) {
    let loss = profile.loss_fraction();
    if profile.spe.samples_selected > 0 && loss > LOSS_WARN_THRESHOLD {
        eprintln!(
            "[nmo] warning: profile '{}' lost {:.1}% of selected SPE samples \
             (threshold {:.1}%): {} collisions, {} truncated of {} selected — consider a \
             larger NMO_AUXBUFSIZE or a longer NMO_PERIOD",
            profile.name,
            loss * 100.0,
            LOSS_WARN_THRESHOLD * 100.0,
            profile.spe.collisions,
            profile.spe.truncated_records,
            profile.spe.samples_selected,
        );
    }
    if let Some(stream) = &profile.stream {
        let dropped = stream.bus_drop_fraction();
        if dropped > LOSS_WARN_THRESHOLD {
            eprintln!(
                "[nmo] warning: profile '{}' dropped {:.1}% of streamed batches \
                 (threshold {:.1}%): {} of {} batches ({} items) lost to bus backpressure — \
                 consider a larger bus_capacity (samples per lane), more shards, or Block \
                 backpressure",
                profile.name,
                dropped * 100.0,
                LOSS_WARN_THRESHOLD * 100.0,
                stream.batches_dropped,
                stream.batches_published + stream.batches_dropped,
                stream.items_dropped,
            );
        }
    }
}

/// Assemble the machine-derived base of a profile: counters, elapsed time,
/// and annotations. Backends and sinks fill in the rest.
pub(crate) fn base_profile(
    machine: &Machine,
    config: &NmoConfig,
    annotations: &Annotations,
) -> Profile {
    let counters = machine.counters();
    let elapsed_cycles = counters.cycles;
    let mut profile = Profile::empty(config.name.clone(), config.clone());
    profile.counters = counters;
    profile.migrations = machine.migration_stats();
    profile.elapsed_cycles = elapsed_cycles;
    profile.elapsed_ns = machine.config().cycles_to_ns(elapsed_cycles);
    profile.tags = annotations.tags();
    profile.phases = annotations.phases();
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ProfileSession;
    use arch_sim::MachineConfig;
    use spe::OverheadModel;

    fn fast_overhead() -> OverheadModel {
        OverheadModel {
            record_write_cycles: 10,
            interrupt_cycles: 100,
            drain_cycles_per_byte: 0.05,
            drain_service_latency_cycles: 100,
            min_functional_aux_pages: 4,
        }
    }

    fn run_stream_like(machine: &Machine, cores: &[usize], elems_per_core: u64) {
        let region = machine.alloc("data", 64 << 20).unwrap();
        std::thread::scope(|s| {
            for (i, &core) in cores.iter().enumerate() {
                let region = region.clone();
                s.spawn(move || {
                    let mut e = machine.attach(core).unwrap();
                    let base = region.start + (i as u64) * elems_per_core * 8;
                    for k in 0..elems_per_core {
                        e.load(base + k * 8, 8);
                        e.store(base + k * 8, 8);
                    }
                });
            }
        });
    }

    fn builder(config: NmoConfig, threads: usize) -> crate::session::ProfileSessionBuilder {
        ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .config(config)
            .threads(threads)
    }

    fn session(config: NmoConfig, threads: usize) -> ProfileSession {
        builder(config, threads).build().unwrap()
    }

    #[test]
    fn end_to_end_sampling_produces_samples() {
        let cfg = NmoConfig { overhead: fast_overhead(), ..NmoConfig::paper_default(100) };
        let profile = builder(cfg, 2)
            .sink(crate::sink::SampleLogSink::new())
            .build()
            .unwrap()
            .run_with(|machine, _ann, cores| {
                run_stream_like(machine, cores, 50_000);
                Ok(())
            })
            .unwrap();

        assert!(profile.processed_samples > 0);
        let samples = profile.samples().expect("a SampleLogSink was registered");
        assert_eq!(profile.processed_samples as usize, samples.len());
        // ~2 cores * 100k ops / period 100 = ~2000 samples expected.
        assert!(profile.processed_samples > 1000, "{}", profile.processed_samples);
        assert!(profile.spe.records_written >= profile.processed_samples);
        assert!(profile.elapsed_cycles > 0);
        assert!(profile.counters.mem_access >= 200_000);
        // Samples are time-sorted and carry plausible addresses.
        assert!(samples.windows(2).all(|w| w[0].time_ns <= w[1].time_ns));
        assert!(samples.iter().all(|s| s.vaddr >= arch_sim::vm::HEAP_BASE));
        // Accuracy against the machine's own mem_access counter is high with
        // a fast drain model.
        let acc = profile.accuracy_against(profile.counters.mem_access);
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn disabled_session_collects_nothing_and_costs_nothing() {
        let profile = builder(NmoConfig::default(), 1)
            .sink(crate::sink::SampleLogSink::new())
            .build()
            .unwrap()
            .run_with(|machine, _ann, cores| {
                run_stream_like(machine, cores, 10_000);
                Ok(())
            })
            .unwrap();
        assert_eq!(profile.processed_samples, 0);
        assert_eq!(profile.counters.observer_cycles, 0);
        assert_eq!(profile.samples(), Some(&[][..]));
        assert!(profile.backends.is_empty());
    }

    #[test]
    fn capacity_and_bandwidth_series_populated() {
        let cfg = NmoConfig { overhead: fast_overhead(), ..NmoConfig::paper_default(1000) };
        let profile = session(cfg, 1)
            .run_with(|machine, _ann, cores| {
                run_stream_like(machine, cores, 100_000);
                Ok(())
            })
            .unwrap();
        assert!(profile.capacity.peak_bytes > 0);
        assert!(!profile.capacity.points.is_empty());
        assert!(profile.bandwidth.total_bytes > 0);
        assert!(profile.bandwidth.peak_gib_per_s > 0.0);
    }

    #[test]
    fn annotations_flow_into_profile_and_regions() {
        let cfg = NmoConfig { overhead: fast_overhead(), ..NmoConfig::paper_default(50) };
        let profile = builder(cfg, 1)
            .sink(crate::sink::RegionSink::new())
            .build()
            .unwrap()
            .run_with(|machine, annotations, _cores| {
                let region = machine.alloc("a", 1 << 20)?;
                annotations.tag_addr("a", region.start, region.end());
                let mut e = machine.attach(0)?;
                annotations.start("kernel0", e.now_ns());
                for k in 0..20_000u64 {
                    e.load(region.start + (k % 10_000) * 8, 8);
                }
                annotations.stop(e.now_ns());
                Ok(())
            })
            .unwrap();
        assert_eq!(profile.tags.len(), 1);
        assert_eq!(profile.phases.len(), 1);
        assert!(!profile.phases[0].is_open());
        let regions = profile.regions().expect("a RegionSink was registered");
        assert!(regions.per_tag.iter().any(|t| t.name == "a" && t.samples > 0));
        assert_eq!(regions.untagged_samples, 0);
        let in_phase = regions.per_phase.iter().find(|(n, _)| n == "kernel0");
        assert!(in_phase.is_some_and(|(_, n)| *n > 0));
    }

    #[test]
    fn profiling_overhead_is_visible_but_bounded() {
        // Run the same work twice, once unprofiled and once profiled: the
        // profiled run must be slower but not absurdly so.
        let cfg = NmoConfig { overhead: fast_overhead(), ..NmoConfig::paper_default(100) };
        let run = |config| {
            session(config, 1).run_with(|machine, _ann, cores| {
                run_stream_like(machine, cores, 200_000);
                Ok(())
            })
        };
        let m = crate::analysis::measure(run, [cfg]).unwrap().remove(0);
        let (baseline, profiled) = (m.baseline.cycles, m.profile.elapsed_cycles);
        assert!(profiled > baseline, "profiled {profiled} vs baseline {baseline}");
        assert!(m.overhead() < 0.5, "overhead unexpectedly large: {}", m.overhead());
    }
}
