//! One function per table/figure of the paper's evaluation.
//!
//! Every function returns its data as rows of strings (ready for CSV or
//! terminal tables) so the `repro` binary can both print and persist them.
//! The sweeps (Figures 7–11) measure every profiled run, once per sweep
//! point, against its unprofiled twin through [`nmo::measure`].

use std::fmt::Write as _;
use std::path::Path;

use arch_sim::MachineConfig;
use nmo::report::write_csv;
use nmo::{
    measure, phase_of, tag_of, AddressSample, BandwidthSink, CapacitySink, Mode, NmoConfig,
    NmoError, Profile, RegionSink, RunMeasurement, SampleLogSink,
};

use crate::harness::{profiled_session, Scale, WorkloadKind};

/// A rendered experiment result: a title, a header, and data rows.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment identifier ("fig7", "table1", ...), the CSV's file name.
    pub id: String,
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ExperimentResult {
    /// Render as an aligned text table.
    fn to_table(&self) -> String {
        let header: Vec<&str> = self.header.iter().map(|s| s.as_str()).collect();
        format!("== {} ({}) ==\n{}", self.title, self.id, format_table(&header, &self.rows))
    }

    /// Render as an aligned text table of at most `max_rows` rows, saying
    /// how many more the CSV holds.
    pub fn to_table_truncated(&self, max_rows: usize) -> String {
        if self.rows.len() <= max_rows {
            return self.to_table();
        }
        let clipped = ExperimentResult { rows: self.rows[..max_rows].to_vec(), ..self.clone() };
        format!(
            "{}  ... ({} more rows in the CSV)\n",
            clipped.to_table(),
            self.rows.len() - max_rows
        )
    }

    /// Write as `<id>.csv` under `dir`.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<String> {
        let header: Vec<&str> = self.header.iter().map(|s| s.as_str()).collect();
        let path = dir.join(format!("{}.csv", self.id));
        write_csv(&path, &header, &self.rows)?;
        Ok(path.display().to_string())
    }
}

/// Render rows as an aligned text table.
fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let header: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    let mut out = String::new();
    for row in [&header, &rule].into_iter().chain(rows) {
        for (i, cell) in row.iter().enumerate() {
            let w = widths.get(i).copied().unwrap_or(0);
            let _ = write!(out, "{cell:<w$}  ");
        }
        out.push('\n');
    }
    out
}

/// A count in the `.3` format the sweep tables print their numbers in.
fn count(n: u64) -> String {
    format!("{n}.000")
}

fn pct(x: f64) -> String {
    format!("{:.3}", x * 100.0)
}

/// Measure `kind` on `threads` cores once at every configuration of a sweep,
/// against one unprofiled baseline: one [`RunMeasurement`] per
/// configuration, in order. A simulated run is a function of its
/// configuration, so a repeat would only measure the same run again.
fn sweep(
    kind: WorkloadKind,
    scale: &Scale,
    threads: usize,
    configs: impl IntoIterator<Item = NmoConfig>,
) -> Result<Vec<RunMeasurement>, NmoError> {
    measure(|c| profiled_session(kind, scale, threads, c).build()?.run(), configs)
}

/// Table I — the supported environment variables and their defaults.
pub fn table1() -> ExperimentResult {
    ExperimentResult {
        id: "table1".into(),
        title: "NMO environment variables".into(),
        header: vec!["option".into(), "description".into(), "default".into()],
        rows: NmoConfig::table1()
            .into_iter()
            .map(|(o, d, def)| vec![o.to_string(), d.to_string(), def.to_string()])
            .collect(),
    }
}

/// Table II — the (simulated) hardware platform.
pub fn table2() -> ExperimentResult {
    let c = MachineConfig::ampere_altra_max();
    let rows = vec![
        vec!["CPU".to_string(), c.name.clone()],
        vec!["Cores".to_string(), format!("{} Armv8.2+ cores", c.num_cores)],
        vec!["Frequency".to_string(), format!("{:.1} GHz", c.freq_hz as f64 / 1e9)],
        vec!["Mem. capacity".to_string(), format!("{} GB", c.total_mem_bytes() >> 30)],
        vec!["Mem. technology".to_string(), "DDR4 (simulated)".to_string()],
        vec![
            "Peak bandwidth".to_string(),
            format!("{:.0} GB/s", c.local_mem().peak_bytes_per_cycle * c.freq_hz as f64 / 1e9),
        ],
        vec!["L1d".to_string(), format!("{} KB per core", c.l1d.size_bytes >> 10)],
        vec!["L2".to_string(), format!("{} MB per core", c.l2.size_bytes >> 20)],
        vec!["System Level Cache".to_string(), format!("{} MB", c.slc.size_bytes >> 20)],
        vec!["Page size".to_string(), format!("{} KB", c.page_bytes >> 10)],
    ];
    ExperimentResult {
        id: "table2".into(),
        title: "Hardware specification of the (simulated) ARM platform".into(),
        header: vec!["item".into(), "value".into()],
        rows,
    }
}

/// Figures 2 and 3 — capacity and bandwidth over time for the two CloudSuite
/// workloads (Page Rank and In-memory Analytics), profiled without SPE
/// sampling (levels 1 and 2 only), 32 threads in the paper.
pub fn fig2_fig3_cloud(scale: &Scale, threads: usize) -> Result<Vec<ExperimentResult>, NmoError> {
    let mut results = Vec::new();
    for (kind, label) in
        [(WorkloadKind::PageRank, "pagerank"), (WorkloadKind::InMemAnalytics, "inmem")]
    {
        let config = NmoConfig {
            enabled: true,
            mode: Mode::None,
            track_rss: true,
            name: label.to_string(),
            ..Default::default()
        };
        let profile = profiled_session(kind, scale, threads, config).build()?.run()?;

        let cap_rows: Vec<Vec<String>> = profile
            .capacity
            .points
            .iter()
            .map(|p| vec![format!("{:.6}", p.time_s), format!("{:.6}", p.rss_gib)])
            .collect();
        results.push(ExperimentResult {
            id: format!("fig2_capacity_{label}"),
            title: format!(
                "Memory capacity over time — {label} (peak {:.3} GiB, {:.1}% of node)",
                profile.capacity.peak_gib(),
                profile.capacity.peak_utilization * 100.0
            ),
            header: vec!["time_s".into(), "rss_gib".into()],
            rows: cap_rows,
        });

        let bw_rows: Vec<Vec<String>> = profile
            .bandwidth
            .points
            .iter()
            .map(|p| vec![format!("{:.6}", p.time_s), format!("{:.3}", p.gib_per_s)])
            .collect();
        results.push(ExperimentResult {
            id: format!("fig3_bandwidth_{label}"),
            title: format!(
                "Memory bandwidth over time — {label} (peak {:.1} GiB/s)",
                profile.bandwidth.peak_gib_per_s
            ),
            header: vec!["time_s".into(), "gib_per_s".into()],
            rows: bw_rows,
        });
    }
    Ok(results)
}

/// A profiled run that also attributes its samples to tags and phases and
/// logs them: the sinks a session gets by default, plus the region sink and
/// the sample log the scatter points come from.
fn region_run(
    kind: WorkloadKind,
    scale: &Scale,
    threads: usize,
    config: NmoConfig,
) -> Result<Profile, NmoError> {
    profiled_session(kind, scale, threads, config)
        .sink(CapacitySink::default())
        .sink(BandwidthSink::default())
        .sink(RegionSink::new())
        .sink(SampleLogSink::new())
        .build()?
        .run()
}

/// A region run's logged samples in the sample log's `(time_ns, core)`
/// order, each with its time in seconds and the names of the tag and the
/// phase the region sink attributes it to (`-` for none).
fn scatter(profile: &Profile) -> impl Iterator<Item = (&AddressSample, f64, &str, &str)> {
    let samples = profile.samples().expect("region_run registers a SampleLogSink");
    let (tags, phases) = (&profile.tags, &profile.phases);
    samples.iter().map(move |s| {
        let tag = tag_of(tags, s.vaddr).map_or("-", |t| tags[t].name.as_str());
        let phase = phase_of(phases, s.time_ns).map_or("-", |p| phases[p].name.as_str());
        (s, s.time_ns as f64 * 1e-9, tag, phase)
    })
}

/// Figure 4 — STREAM sampled-address scatter with tagged arrays and the
/// `triad` phase (8 OpenMP threads, 5 iterations in the paper). Rows are in
/// `(time_ns, core)` order.
pub fn fig4_stream_scatter(scale: &Scale, period: u64) -> Result<ExperimentResult, NmoError> {
    let config = NmoConfig { name: "stream".into(), ..NmoConfig::paper_default(period) };
    Ok(fig4_rows(&region_run(WorkloadKind::Stream, scale, 8, config)?))
}

fn fig4_rows(profile: &Profile) -> ExperimentResult {
    let regions = profile.regions().expect("region_run registers a RegionSink");
    let rows: Vec<Vec<String>> = scatter(profile)
        .map(|(s, time_s, tag, phase)| {
            vec![
                format!("{time_s:.6}"),
                format!("{:#x}", s.vaddr),
                tag.to_string(),
                phase.to_string(),
                (s.is_store as u8).to_string(),
            ]
        })
        .collect();
    ExperimentResult {
        id: "fig4_stream_scatter".into(),
        title: format!(
            "STREAM tagged memory-access samples (8 threads, {} samples, hottest tag: {})",
            rows.len(),
            regions.hottest_tag().map(|t| t.name.clone()).unwrap_or_default()
        ),
        header: vec![
            "time_s".into(),
            "vaddr".into(),
            "tag".into(),
            "phase".into(),
            "is_store".into(),
        ],
        rows,
    }
}

/// Figures 5 and 6 — CFD sampled-address scatter at 1 thread and at
/// `many_threads` threads, plus the high-resolution window of Figure 6.
/// Rows are in `(time_ns, core)` order.
pub fn fig5_fig6_cfd_scatter(
    scale: &Scale,
    period: u64,
    many_threads: usize,
) -> Result<Vec<ExperimentResult>, NmoError> {
    let mut out = Vec::new();
    for (id, threads) in [("fig5_cfd_1thread", 1usize), ("fig6_cfd_multithread", many_threads)] {
        let config = NmoConfig { name: "cfd".into(), ..NmoConfig::paper_default(period) };
        let profile = region_run(WorkloadKind::Cfd, scale, threads, config)?;
        let rows: Vec<Vec<String>> = scatter(&profile)
            .map(|(s, time_s, tag, _)| {
                vec![format!("{time_s:.6}"), format!("{:#x}", s.vaddr), tag.to_string()]
            })
            .collect();
        out.push(ExperimentResult {
            id: id.into(),
            title: format!("CFD sampled accesses, {threads} thread(s), {} samples", rows.len()),
            header: vec!["time_s".into(), "vaddr".into(), "tag".into()],
            rows,
        });
        if threads > 1 {
            // High-resolution zoom: the middle 10% of the computation loop.
            let t_end = profile.elapsed_ns as f64 * 1e-9;
            let rows: Vec<Vec<String>> = scatter(&profile)
                .filter(|&(_, time_s, ..)| time_s >= t_end * 0.45 && time_s < t_end * 0.55)
                .map(|(s, time_s, tag, _)| {
                    vec![format!("{time_s:.9}"), format!("{:#x}", s.vaddr), tag.to_string()]
                })
                .collect();
            out.push(ExperimentResult {
                id: "fig6_cfd_highres_window".into(),
                title: format!("CFD high-resolution trace window ({} samples)", rows.len()),
                header: vec!["time_s".into(), "vaddr".into(), "tag".into()],
                rows,
            });
        }
    }
    Ok(out)
}

/// The sampling periods of Figure 7 (512 … 131072, powers of two).
fn fig7_periods() -> Vec<u64> {
    (9..=17).map(|p| 1u64 << p).collect()
}

/// The sampling periods of Figure 8 (1000 … 128000, doubling).
fn fig8_periods() -> Vec<u64> {
    vec![1000, 2000, 4000, 8000, 16000, 32000, 64000, 128000]
}

fn sweep_workloads() -> Vec<WorkloadKind> {
    vec![WorkloadKind::Stream, WorkloadKind::Cfd, WorkloadKind::Bfs]
}

/// Figure 7 — number of collected SPE samples vs sampling period.
pub fn fig7_samples_vs_period(scale: &Scale) -> Result<ExperimentResult, NmoError> {
    let mut rows = Vec::new();
    for kind in sweep_workloads() {
        let configs = fig7_periods().into_iter().map(NmoConfig::paper_default);
        let runs = sweep(kind, scale, scale.sweep_threads, configs)?;
        for (period, run) in fig7_periods().into_iter().zip(runs) {
            rows.push(vec![
                kind.label().to_string(),
                period.to_string(),
                run.profile.processed_samples.to_string(),
            ]);
        }
    }
    Ok(ExperimentResult {
        id: "fig7_samples_vs_period".into(),
        title: "Collected ARM SPE samples vs sampling period".into(),
        header: vec!["workload".into(), "period".into(), "samples".into()],
        rows,
    })
}

/// Figures 8a–8c — accuracy, time overhead, and sample collisions vs
/// sampling period for STREAM, CFD and BFS.
pub fn fig8_sensitivity(scale: &Scale) -> Result<ExperimentResult, NmoError> {
    let mut rows = Vec::new();
    for kind in sweep_workloads() {
        let configs = fig8_periods().into_iter().map(NmoConfig::paper_default);
        let runs = sweep(kind, scale, scale.sweep_threads, configs)?;
        for (period, run) in fig8_periods().into_iter().zip(runs) {
            rows.push(vec![
                kind.label().to_string(),
                period.to_string(),
                pct(run.accuracy()),
                pct(run.overhead()),
                count(run.collisions()),
                count(run.profile.processed_samples),
            ]);
        }
    }
    Ok(ExperimentResult {
        id: "fig8_sensitivity".into(),
        title: "Accuracy / time overhead / sample collisions vs sampling period".into(),
        header: vec![
            "workload".into(),
            "period".into(),
            "accuracy_pct".into(),
            "overhead_pct".into(),
            "collisions".into(),
            "samples".into(),
        ],
        rows,
    })
}

/// The aux-buffer sizes (in 64 KiB pages) of Figure 9.
fn fig9_aux_pages(max_pages: u64) -> Vec<u64> {
    [2u64, 8, 32, 128, 512, 2048].into_iter().filter(|p| *p <= max_pages).collect()
}

/// Figure 9 — impact of the aux-buffer size on time overhead and accuracy
/// (STREAM, fixed ring buffer, fixed sampling period).
pub fn fig9_aux_buffer(scale: &Scale, period: u64) -> Result<ExperimentResult, NmoError> {
    let threads = scale.aux_sweep_threads;
    let pages = fig9_aux_pages(scale.aux_sweep_max_pages);
    let configs = pages.iter().map(|&pages| NmoConfig {
        auxbuf_bytes: pages * 64 * 1024,
        ..NmoConfig::paper_default(period)
    });
    let runs = sweep(WorkloadKind::Stream, scale, threads, configs)?;
    let rows = pages
        .iter()
        .zip(runs)
        .map(|(pages, run)| {
            vec![
                pages.to_string(),
                pct(run.overhead()),
                pct(run.accuracy()),
                count(run.profile.processed_samples),
                count(run.collisions()),
            ]
        })
        .collect();
    Ok(ExperimentResult {
        id: "fig9_aux_buffer".into(),
        title: format!(
            "Impact of the aux-buffer size (STREAM, {threads} threads, period {period})"
        ),
        header: vec![
            "aux_pages".into(),
            "overhead_pct".into(),
            "accuracy_pct".into(),
            "samples".into(),
            "collisions".into(),
        ],
        rows,
    })
}

/// The thread counts of Figures 10 and 11.
fn fig10_thread_counts(max_threads: usize) -> Vec<usize> {
    [1usize, 2, 4, 8, 16, 32, 48, 64, 96, 128].into_iter().filter(|t| *t <= max_threads).collect()
}

/// Figures 10 and 11 — impact of the OpenMP thread count on time overhead,
/// accuracy, and sample collisions (STREAM, 16-page aux buffer).
pub fn fig10_fig11_threads(scale: &Scale, period: u64) -> Result<ExperimentResult, NmoError> {
    let mut rows = Vec::new();
    for threads in fig10_thread_counts(scale.thread_sweep_max) {
        let config = NmoConfig {
            auxbuf_bytes: 1 << 20, // 16 pages of 64 KiB
            ..NmoConfig::paper_default(period)
        };
        let run = sweep(WorkloadKind::Stream, scale, threads, [config])?.remove(0);
        rows.push(vec![
            threads.to_string(),
            pct(run.overhead()),
            pct(run.accuracy()),
            count(run.collisions()),
            count(run.profile.processed_samples),
        ]);
    }
    Ok(ExperimentResult {
        id: "fig10_fig11_threads".into(),
        title: format!("Impact of thread count (STREAM, 16-page aux buffer, period {period})"),
        header: vec![
            "threads".into(),
            "overhead_pct".into(),
            "accuracy_pct".into(),
            "collisions".into(),
            "samples".into(),
        ],
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formatting_aligns_columns() {
        let t = format_table(
            &["name", "value"],
            &[vec!["x".into(), "1".into()], vec!["longer-name".into(), "22".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("x"));
        assert!(lines[3].starts_with("longer-name"));
    }

    #[test]
    fn tables_render() {
        let t1 = table1();
        assert_eq!(t1.rows.len(), 7);
        assert!(t1.to_table().contains("NMO_PERIOD"));
        let t2 = table2();
        assert!(t2.to_table().contains("128 Armv8.2+ cores"));
        assert!(t2.rows.iter().any(|r| r[1].contains("200 GB/s")));
        assert_eq!(t1.to_table_truncated(7), t1.to_table());
        let clipped = t1.to_table_truncated(3);
        assert!(clipped.ends_with("  ... (4 more rows in the CSV)\n"), "{clipped}");
        assert!(!clipped.contains(&t1.rows[3][0]));
    }

    /// Why a sweep point runs once: the same configuration, run twice on
    /// several cores, measures the same numbers. If a run ever depends on
    /// host timing, this fails, and repeated trials mean something again.
    #[test]
    fn a_sweep_point_measures_the_same_run_twice() {
        let scale = Scale::tiny();
        let c = || NmoConfig::paper_default(1000);
        for kind in sweep_workloads() {
            let label = kind.label();
            let runs = sweep(kind, &scale, scale.sweep_threads, [c(), c()]).unwrap();
            let [a, b] = &runs[..] else { panic!("{label}: one run per configuration") };
            assert_eq!(a.accuracy(), b.accuracy(), "{label}");
            assert_eq!(a.overhead(), b.overhead(), "{label}");
            assert_eq!(a.collisions(), b.collisions(), "{label}");
            assert_eq!(a.profile.processed_samples, b.profile.processed_samples, "{label}");
            assert_eq!(a.profile.counters, b.profile.counters, "{label}");
        }
    }

    #[test]
    fn period_and_size_grids_match_paper() {
        assert_eq!(fig7_periods().first(), Some(&512));
        assert_eq!(fig7_periods().last(), Some(&131072));
        assert_eq!(fig8_periods(), vec![1000, 2000, 4000, 8000, 16000, 32000, 64000, 128000]);
        assert_eq!(fig9_aux_pages(2048), vec![2, 8, 32, 128, 512, 2048]);
        assert_eq!(fig9_aux_pages(128), vec![2, 8, 32, 128]);
        assert_eq!(fig10_thread_counts(128).last(), Some(&128));
        assert_eq!(fig10_thread_counts(8), vec![1, 2, 4, 8]);
    }

    #[test]
    fn fig4_scatter_has_tagged_samples_at_tiny_scale() {
        let config = NmoConfig { name: "stream".into(), ..NmoConfig::paper_default(200) };
        let profile = region_run(WorkloadKind::Stream, &Scale::tiny(), 8, config).unwrap();
        let r = fig4_rows(&profile);
        assert!(!r.rows.is_empty());
        // Most STREAM samples land in a tagged array.
        let tagged = r.rows.iter().filter(|row| row[2] != "-").count();
        assert!(tagged * 10 >= r.rows.len() * 9, "tagged {tagged} of {}", r.rows.len());
        // The rows are attributed as the region sink attributed the run.
        let regions = profile.regions().unwrap();
        let rows_of = |tag: &str| r.rows.iter().filter(|row| row[2] == tag).count() as u64;
        for stats in &regions.per_tag {
            assert_eq!(rows_of(&stats.name), stats.samples, "tag {}", stats.name);
        }
        assert_eq!(rows_of("-"), regions.untagged_samples);
        assert_eq!(r.rows.len() as u64, regions.total_samples());
    }

    #[test]
    fn fig2_fig3_series_nonempty_at_tiny_scale() {
        let scale = Scale::tiny();
        let results = fig2_fig3_cloud(&scale, 2).unwrap();
        assert_eq!(results.len(), 4);
        for r in &results {
            assert!(!r.rows.is_empty(), "{} empty", r.id);
        }
    }
}
