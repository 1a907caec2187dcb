//! Report generation: CSV series and a one-paragraph summary.
//!
//! The original NMO writes its raw data to files that Python scripts
//! post-process into the paper's figures. This module provides the same
//! output surface in Rust: every temporal series and attribution table of a
//! [`Profile`] can be written as CSV (one file per figure-style series).

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::runtime::Profile;

/// Quote a CSV cell per RFC 4180 when it contains a comma, a double quote,
/// or a line break; other cells pass through unchanged.
fn csv_cell(cell: &str) -> std::borrow::Cow<'_, str> {
    if cell.contains([',', '"', '\n', '\r']) {
        std::borrow::Cow::Owned(format!("\"{}\"", cell.replace('"', "\"\"")))
    } else {
        std::borrow::Cow::Borrowed(cell)
    }
}

fn csv_row(out: &mut String, cells: impl Iterator<Item = impl AsRef<str>>) {
    let mut first = true;
    for cell in cells {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&csv_cell(cell.as_ref()));
    }
    out.push('\n');
}

/// Write a generic CSV file: a header row plus data rows. Cells containing
/// commas, quotes, or newlines (e.g. user-supplied region names) are quoted
/// per RFC 4180 so they cannot corrupt the row structure.
pub fn write_csv<P: AsRef<Path>>(path: P, header: &[&str], rows: &[Vec<String>]) -> io::Result<()> {
    let bytes_per_row = rows.first().map_or(0, |row| row.iter().map(|c| c.len() + 1).sum());
    write_csv_streamed(path, header, rows.len(), bytes_per_row, |out| {
        for row in rows {
            csv_row(out, row.iter());
        }
    })
}

/// Write a CSV: the header, then the rows `emit` appends to one buffer
/// preallocated for `rows` rows of `bytes_per_row` bytes. A report whose
/// cells are machine-formatted (numbers, hex addresses, enum debug labels)
/// and can never need RFC 4180 quoting derives its column layout once and
/// appends every row directly — no `Vec<String>` per row, no `String` per
/// cell; on million-row sample/latency CSVs that is the difference between
/// 2N+ transient allocations and one. [`write_csv`] appends quoted rows.
fn write_csv_streamed<P: AsRef<Path>>(
    path: P,
    header: &[&str],
    rows: usize,
    bytes_per_row: usize,
    emit: impl FnOnce(&mut String),
) -> io::Result<()> {
    let header_bytes: usize = header.iter().map(|h| h.len() + 1).sum();
    let mut out = String::with_capacity(header_bytes + rows * bytes_per_row);
    csv_row(&mut out, header.iter());
    emit(&mut out);
    if let Some(parent) = path.as_ref().parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, out)
}

impl Profile {
    /// Write every series of this profile as CSV files under `dir`, prefixed
    /// with the profile's base name (`NMO_NAME`). Returns the list of files
    /// written.
    pub fn write_csv_reports<P: AsRef<Path>>(&self, dir: P) -> io::Result<Vec<String>> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        let base = &self.name;

        // Address samples (the scatter data of Figures 4-6), when the
        // session kept them. The source column carries the serving memory
        // node for DRAM-class fills, e.g. `Dram(0)` / `RemoteDram(1)`. The
        // source label is cached per distinct `DataSource` (a handful per
        // topology), not re-formatted per row.
        if let Some(samples) = self.samples() {
            let path = dir.join(format!("{base}_samples.csv"));
            let mut source_labels: Vec<(arch_sim::DataSource, String)> = Vec::new();
            write_csv_streamed(
                &path,
                &["time_ns", "vaddr", "core", "is_store", "latency", "source"],
                samples.len(),
                44,
                |out| {
                    for s in samples {
                        let label = match source_labels.iter().find(|(src, _)| *src == s.source) {
                            Some((_, label)) => label,
                            None => {
                                source_labels.push((s.source, format!("{:?}", s.source)));
                                &source_labels[source_labels.len() - 1].1
                            }
                        };
                        let _ = writeln!(
                            out,
                            "{},{:#x},{},{},{},{label}",
                            s.time_ns, s.vaddr, s.core, s.is_store as u8, s.latency,
                        );
                    }
                },
            )?;
            written.push(path.display().to_string());
        }

        // Capacity over time (Figure 2), one extra column per memory node
        // on tiered topologies. The per-tier column layout is hoisted once
        // per report; the row loop only formats numbers into the buffer.
        let path = dir.join(format!("{base}_capacity.csv"));
        let nodes = self.capacity.nodes;
        let mut header = vec!["time_s".to_string(), "rss_gib".to_string()];
        header.extend((0..nodes).map(|n| format!("node{n}_gib")));
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        write_csv_streamed(
            &path,
            &header_refs,
            self.capacity.points.len(),
            18 * (2 + nodes),
            |out| {
                for p in &self.capacity.points {
                    let _ = write!(out, "{:.6},{:.6}", p.time_s, p.rss_gib);
                    for gib in &p.rss_by_node_gib[..nodes] {
                        let _ = write!(out, ",{gib:.6}");
                    }
                    out.push('\n');
                }
            },
        )?;
        written.push(path.display().to_string());

        // Bandwidth over time (Figure 3), one extra column per memory node
        // on tiered topologies; same hoisted layout as capacity.
        let path = dir.join(format!("{base}_bandwidth.csv"));
        let nodes = self.bandwidth.nodes;
        let mut header = vec!["time_s".to_string(), "gib_per_s".to_string()];
        header.extend((0..nodes).map(|n| format!("node{n}_gib_per_s")));
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        write_csv_streamed(
            &path,
            &header_refs,
            self.bandwidth.points.len(),
            14 * (2 + nodes),
            |out| {
                for p in &self.bandwidth.points {
                    let _ = write!(out, "{:.6},{:.3}", p.time_s, p.gib_per_s);
                    for gib in &p.gib_per_s_by_node[..nodes] {
                        let _ = write!(out, ",{gib:.3}");
                    }
                    out.push('\n');
                }
            },
        )?;
        written.push(path.display().to_string());

        // Per-data-source latency distributions (the tiered-memory latency
        // figure): log2-histogram summary statistics per source.
        if let Some(latency) = self.latency().filter(|l| !l.is_empty()) {
            let path = dir.join(format!("{base}_latency.csv"));
            write_csv_streamed(
                &path,
                &["source", "samples", "mean", "p50", "p90", "p99", "min", "max"],
                latency.per_source.len(),
                64,
                |out| {
                    for (source, hist) in &latency.per_source {
                        let _ = writeln!(
                            out,
                            "{source:?},{},{:.1},{:.1},{:.1},{:.1},{},{}",
                            hist.count(),
                            hist.mean(),
                            hist.p50(),
                            hist.p90(),
                            hist.p99(),
                            hist.min(),
                            hist.max(),
                        );
                    }
                },
            )?;
            written.push(path.display().to_string());
        }

        // Region attribution (Figures 4-6 legends).
        if let Some(regions) = self.regions() {
            let path = dir.join(format!("{base}_regions.csv"));
            let rows: Vec<Vec<String>> = regions
                .per_tag
                .iter()
                .map(|t| {
                    vec![
                        t.name.clone(),
                        t.samples.to_string(),
                        t.loads.to_string(),
                        t.stores.to_string(),
                        format!("{:#x}", t.min_addr),
                        format!("{:#x}", t.max_addr),
                        format!("{:.4}", t.coverage),
                    ]
                })
                .collect();
            write_csv(
                &path,
                &["tag", "samples", "loads", "stores", "min_addr", "max_addr", "coverage"],
                &rows,
            )?;
            written.push(path.display().to_string());
        }

        // Phases.
        let path = dir.join(format!("{base}_phases.csv"));
        let rows: Vec<Vec<String>> = self
            .phases
            .iter()
            .map(|p| vec![p.name.clone(), p.start_ns.to_string(), p.end_ns.to_string()])
            .collect();
        write_csv(&path, &["phase", "start_ns", "end_ns"], &rows)?;
        written.push(path.display().to_string());

        // Profile-guided tiering: the applied migration log plus the
        // before/after per-tier latency comparison (only when a
        // HotPageTracker ran on the session).
        if let Some(tiering) = self.tiering() {
            let path = dir.join(format!("{base}_migrations.csv"));
            write_csv_streamed(
                &path,
                &["time_ns", "window", "page_addr", "from_node", "to_node", "bytes", "direction"],
                tiering.applied.len(),
                56,
                |out| {
                    for m in &tiering.applied {
                        let direction = if m.is_promotion() {
                            "promotion"
                        } else if m.is_demotion() {
                            "demotion"
                        } else {
                            "lateral"
                        };
                        let _ = writeln!(
                            out,
                            "{},{},{:#x},{},{},{},{direction}",
                            m.time_ns, m.window, m.page_addr, m.from, m.to, m.bytes,
                        );
                    }
                },
            )?;
            written.push(path.display().to_string());

            let path = dir.join(format!("{base}_tiering.csv"));
            let mut rows: Vec<Vec<String>> = vec![
                vec!["policy".into(), tiering.policy.clone()],
                vec!["pages_tracked".into(), tiering.pages_tracked.to_string()],
                vec!["migrations".into(), tiering.migrations().to_string()],
                vec!["promoted_bytes".into(), tiering.promoted_bytes().to_string()],
                vec!["demoted_bytes".into(), tiering.demoted_bytes().to_string()],
                vec!["migration_bus_bytes".into(), self.migrations.bus_bytes.to_string()],
                vec!["migration_cycles".into(), self.migrations.charged_cycles.to_string()],
            ];
            for (phase, profile) in [
                ("before", &tiering.before),
                ("after", &tiering.after),
                ("settled", &tiering.settled),
            ] {
                for (tier, hist) in
                    [("local", profile.local_dram()), ("remote", profile.remote_dram())]
                {
                    rows.push(vec![
                        format!("{tier}_dram_samples_{phase}"),
                        hist.count().to_string(),
                    ]);
                    rows.push(vec![
                        format!("{tier}_dram_p50_{phase}"),
                        format!("{:.1}", hist.p50()),
                    ]);
                    rows.push(vec![
                        format!("{tier}_dram_p99_{phase}"),
                        format!("{:.1}", hist.p99()),
                    ]);
                }
            }
            write_csv(&path, &["metric", "value"], &rows)?;
            written.push(path.display().to_string());
        }

        // The `perf stat` counts: the machine's own retire counters.
        if self.config.enabled {
            let path = dir.join(format!("{base}_counters.csv"));
            let c = &self.counters;
            let rows: Vec<Vec<String>> = [
                ("mem_access", c.mem_access),
                ("ld_retired", c.loads),
                ("st_retired", c.stores),
                ("inst_retired", c.instructions),
                ("br_retired", c.branches),
            ]
            .iter()
            .map(|(event, count)| vec![event.to_string(), count.to_string()])
            .collect();
            write_csv(&path, &["event", "count"], &rows)?;
            written.push(path.display().to_string());
        }

        Ok(written)
    }

    /// A one-paragraph text summary of the run, including the SPE data-loss
    /// fraction (paper §SPE limitations), per-tier traffic and latency on
    /// tiered-memory machines, and, for streaming runs, the pipeline
    /// statistics.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "profile '{}' [{}]: {} samples processed ({} skipped), {} aux records, \
             elapsed {:.3} ms simulated, peak RSS {:.3} GiB, peak BW {:.1} GiB/s, \
             collisions {}, truncated {}, SPE loss {:.1}%",
            self.name,
            if self.backends.is_empty() {
                "no backends".to_string()
            } else {
                self.backends.join("+")
            },
            self.processed_samples,
            self.skipped_packets,
            self.aux_records,
            self.elapsed_ns as f64 * 1e-6,
            self.capacity.peak_gib(),
            self.bandwidth.peak_gib_per_s,
            self.spe.collisions,
            self.spe.truncated_records,
            self.loss_fraction() * 100.0,
        );
        // Per-tier view on multi-node topologies: traffic split per memory
        // node, plus tier medians when a LatencySink ran.
        if self.bandwidth.nodes > 1 {
            let shares: Vec<String> = (0..self.bandwidth.nodes)
                .map(|node| {
                    format!("node{node} {:.1}%", self.bandwidth.node_traffic_share(node) * 100.0)
                })
                .collect();
            let _ = write!(out, ", mem traffic {}", shares.join(" / "));
        }
        if let Some(latency) = self.latency() {
            let (local, remote) = (latency.local_dram(), latency.remote_dram());
            if local.count() > 0 {
                let _ = write!(out, ", DRAM p50 local {:.0}c", local.p50());
                if remote.count() > 0 {
                    let _ = write!(out, " / remote {:.0}c", remote.p50());
                }
            }
        }
        // Page migrations: the profile-guided tiering readout — counts and
        // moved bytes from the machine's counters, plus the before/after
        // remote-tier latency shift when a HotPageTracker report is cached.
        if self.migrations.migrations > 0 {
            let _ = write!(
                out,
                ", {} page migrations ({} promoted / {} demoted, {:.1} MiB moved)",
                self.migrations.migrations,
                self.migrations.promoted_pages,
                self.migrations.demoted_pages,
                self.migrations.bus_bytes as f64 / (1u64 << 21) as f64,
            );
            if let Some(tiering) = self.tiering() {
                let before = tiering.before.remote_dram();
                // Prefer the settled distribution (after the last
                // migration); fall back to everything-after-the-first when
                // the settled period saw no remote fills.
                let settled = tiering.settled.remote_dram();
                let after = if settled.count() > 0 { settled } else { tiering.after.remote_dram() };
                if before.count() > 0 && after.count() > 0 {
                    let _ = write!(
                        out,
                        ", remote DRAM p50/p99 {:.0}/{:.0}c before -> {:.0}/{:.0}c after",
                        before.p50(),
                        before.p99(),
                        after.p50(),
                        after.p99(),
                    );
                }
            }
        }
        if let Some(stream) = &self.stream {
            let _ = write!(
                out,
                ", streamed {} batches over {} windows ({} dropped, {} late)",
                stream.batches_published,
                stream.windows_closed,
                stream.batches_dropped,
                stream.late_batches,
            );
            if stream.batches_dropped > 0 {
                // Bus drops are the pipeline's own loss channel (decoded
                // data that never reached the sinks) — spell the item count
                // and fraction out instead of leaving them invisible.
                let _ = write!(
                    out,
                    ", bus loss {} items ({:.1}% of batches)",
                    stream.items_dropped,
                    stream.bus_drop_fraction() * 100.0,
                );
            }
            if stream.shards > 1 {
                let _ = write!(out, ", {} shards", stream.shards);
            }
            if stream.shards_requested > stream.shards {
                // An over-provisioned request was clamped to the profiled
                // core count — surface the resolution instead of silently
                // running narrower than asked.
                let _ = write!(out, " ({} requested)", stream.shards_requested);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_writer_produces_well_formed_files() {
        let dir = std::env::temp_dir().join(format!("nmo_report_test_{}", std::process::id()));
        let path = dir.join("x.csv");
        write_csv(
            &path,
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        )
        .unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,2\n3,4\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_cells_with_delimiters_are_quoted() {
        let dir = std::env::temp_dir().join(format!("nmo_csvq_test_{}", std::process::id()));
        let path = dir.join("q.csv");
        write_csv(
            &path,
            &["tag", "n"],
            &[
                vec!["plain".into(), "1".into()],
                vec!["a,b".into(), "2".into()],
                vec!["say \"hi\"".into(), "3".into()],
                vec!["line\nbreak".into(), "4".into()],
            ],
        )
        .unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "tag,n\nplain,1\n\"a,b\",2\n\"say \"\"hi\"\"\",3\n\"line\nbreak\",4\n");
        // Every data row still parses to exactly two cells under RFC 4180.
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn summary_reports_loss_fraction() {
        let mut profile = crate::runtime::Profile::empty("t", crate::config::NmoConfig::default());
        profile.spe.samples_selected = 100;
        profile.spe.records_written = 80;
        assert!(profile.summary().contains("SPE loss 20.0%"), "{}", profile.summary());
        profile.stream = Some(crate::stream::StreamStats {
            windows_closed: 7,
            batches_published: 42,
            ..Default::default()
        });
        assert!(profile.summary().contains("42 batches over 7 windows"), "{}", profile.summary());
        assert!(!profile.summary().contains("bus loss"), "no drops, no loss note");
        // Bus drops surface with their item count and fraction, and the
        // shard count is reported for sharded runs.
        profile.stream = Some(crate::stream::StreamStats {
            windows_closed: 7,
            batches_published: 30,
            batches_dropped: 10,
            items_dropped: 1234,
            shards: 8,
            ..Default::default()
        });
        let summary = profile.summary();
        assert!(summary.contains("bus loss 1234 items (25.0% of batches)"), "{summary}");
        assert!(summary.contains("8 shards"), "{summary}");
        assert!(!summary.contains("requested"), "no clamp note when requested defaults low");
        // A clamped request gets its own note.
        profile.stream = Some(crate::stream::StreamStats {
            windows_closed: 7,
            batches_published: 30,
            shards: 4,
            shards_requested: 16,
            ..Default::default()
        });
        let summary = profile.summary();
        assert!(summary.contains("4 shards (16 requested)"), "{summary}");
    }
}
