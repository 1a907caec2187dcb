//! Level 3: memory-region-based profiling (paper Section VI-C, Figures 4–6).
//!
//! The virtual addresses of SPE samples are attributed to the address-range
//! tags registered through the annotation API, and bucketed over time so the
//! access pattern of each object can be inspected (scatter plots in the
//! paper). A high-resolution view over a narrow time window supports the
//! "zoomed" tracing of Figure 6.

use std::collections::HashMap;

use crate::annotate::{AddrTag, Phase};
use crate::runtime::AddressSample;

/// Per-tag access statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionStats {
    /// Tag (object) name.
    pub name: String,
    /// Number of samples attributed to the tag.
    pub samples: u64,
    /// Number of load samples.
    pub loads: u64,
    /// Number of store samples.
    pub stores: u64,
    /// Lowest sampled address within the tag.
    pub min_addr: u64,
    /// Highest sampled address within the tag.
    pub max_addr: u64,
    /// Fraction of the tagged range that was sampled at least once, measured
    /// at 64-byte-line granularity over the sampled addresses (coverage of
    /// the scatter plot, 0.0–1.0).
    pub coverage: f64,
}

/// A sample attributed to a tag and phase (one point of the scatter plot).
#[derive(Debug, Clone, PartialEq)]
pub struct AttributedSample {
    /// Sample time, seconds.
    pub time_s: f64,
    /// Virtual address.
    pub vaddr: u64,
    /// Tag name, if the address fell inside a registered tag.
    pub tag: Option<String>,
    /// Phase name, if the timestamp fell inside a phase.
    pub phase: Option<String>,
    /// Whether the sampled operation was a store.
    pub is_store: bool,
}

/// Result of region-based attribution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegionProfile {
    /// All samples with their attribution (scatter-plot data).
    pub scatter: Vec<AttributedSample>,
    /// Per-tag statistics, sorted by descending sample count.
    pub per_tag: Vec<RegionStats>,
    /// Samples that fell outside every tag.
    pub untagged_samples: u64,
    /// Per-phase sample counts.
    pub per_phase: Vec<(String, u64)>,
}

/// Incremental region attribution: the windowed-merge core behind both the
/// post-hoc [`attribute`] scan and the streaming
/// [`crate::sink::RegionSink`].
///
/// Samples are ingested batch by batch (each batch attributed against the
/// tags and phases known at ingestion time, which is how a streaming
/// profiler avoids keeping the whole run in memory before analysing), and
/// [`RegionAccumulator::finalize`] computes the coverage statistics that
/// need the final tag extents.
#[derive(Debug, Default)]
pub struct RegionAccumulator {
    scatter: Vec<AttributedSample>,
    per_tag: HashMap<String, (RegionStats, std::collections::HashSet<u64>)>,
    per_phase: HashMap<String, u64>,
    untagged: u64,
}

impl RegionAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of samples ingested so far.
    pub fn len(&self) -> usize {
        self.scatter.len()
    }

    /// Whether no samples have been ingested.
    pub fn is_empty(&self) -> bool {
        self.scatter.is_empty()
    }

    /// Attribute one batch of samples against the currently known tags and
    /// phases, merging into the running statistics.
    pub fn ingest(&mut self, samples: &[AddressSample], tags: &[AddrTag], phases: &[Phase]) {
        self.scatter.reserve(samples.len());
        for s in samples {
            let tag = tags.iter().rev().find(|t| t.contains(s.vaddr));
            let phase =
                phases.iter().rev().find(|p| p.contains_ns(s.time_ns)).map(|p| p.name.clone());
            if let Some(p) = &phase {
                *self.per_phase.entry(p.clone()).or_insert(0) += 1;
            }
            match tag {
                Some(t) => {
                    let entry = self.per_tag.entry(t.name.clone()).or_insert_with(|| {
                        (
                            RegionStats {
                                name: t.name.clone(),
                                samples: 0,
                                loads: 0,
                                stores: 0,
                                min_addr: u64::MAX,
                                max_addr: 0,
                                coverage: 0.0,
                            },
                            std::collections::HashSet::new(),
                        )
                    });
                    entry.0.samples += 1;
                    if s.is_store {
                        entry.0.stores += 1;
                    } else {
                        entry.0.loads += 1;
                    }
                    entry.0.min_addr = entry.0.min_addr.min(s.vaddr);
                    entry.0.max_addr = entry.0.max_addr.max(s.vaddr);
                    entry.1.insert(s.vaddr >> 6);
                }
                None => self.untagged += 1,
            }
            self.scatter.push(AttributedSample {
                time_s: s.time_ns as f64 * 1e-9,
                vaddr: s.vaddr,
                tag: tag.map(|t| t.name.clone()),
                phase,
                is_store: s.is_store,
            });
        }
    }

    /// Merge another accumulator into this one (the shard-merge step of the
    /// sharded streaming pipeline): counts and extents sum, sampled cache
    /// lines union, and `other`'s scatter points append after ours — so
    /// merging shard accumulators in ascending shard index is
    /// deterministic.
    pub fn merge(&mut self, other: RegionAccumulator) {
        self.scatter.extend(other.scatter);
        for (name, (stats, lines)) in other.per_tag {
            match self.per_tag.get_mut(&name) {
                Some((ours, our_lines)) => {
                    ours.samples += stats.samples;
                    ours.loads += stats.loads;
                    ours.stores += stats.stores;
                    ours.min_addr = ours.min_addr.min(stats.min_addr);
                    ours.max_addr = ours.max_addr.max(stats.max_addr);
                    our_lines.extend(lines);
                }
                None => {
                    self.per_tag.insert(name, (stats, lines));
                }
            }
        }
        for (phase, count) in other.per_phase {
            *self.per_phase.entry(phase).or_insert(0) += count;
        }
        self.untagged += other.untagged;
    }

    /// Finish: compute per-tag coverage against the final tag extents and
    /// assemble the [`RegionProfile`]. Scatter samples keep ingestion order.
    pub fn finalize(self, tags: &[AddrTag]) -> RegionProfile {
        let mut per_tag: Vec<RegionStats> = self
            .per_tag
            .into_iter()
            .map(|(name, (mut stats, lines))| {
                // A tag seen during ingestion is normally still registered at
                // the end; fall back to the sampled span if it is not.
                let total_lines = match tags.iter().find(|t| t.name == name) {
                    Some(tag) => (tag.len() >> 6).max(1),
                    None => ((stats.max_addr.saturating_sub(stats.min_addr)) >> 6) + 1,
                };
                stats.coverage = (lines.len() as f64 / total_lines as f64).min(1.0);
                stats
            })
            .collect();
        per_tag.sort_by(|a, b| b.samples.cmp(&a.samples).then(a.name.cmp(&b.name)));

        let mut per_phase: Vec<(String, u64)> = self.per_phase.into_iter().collect();
        per_phase.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        RegionProfile { scatter: self.scatter, per_tag, untagged_samples: self.untagged, per_phase }
    }
}

/// Attribute SPE samples to tags and phases in one [`RegionAccumulator`]
/// pass over everything — the whole-run reference scan
/// [`crate::sink::RegionSink`] is tested against; a session attributes
/// through the sink.
pub fn attribute(samples: &[AddressSample], tags: &[AddrTag], phases: &[Phase]) -> RegionProfile {
    let mut accum = RegionAccumulator::new();
    accum.ingest(samples, tags, phases);
    accum.finalize(tags)
}

impl RegionProfile {
    /// Extract a high-resolution window of the scatter data (Figure 6, right):
    /// all samples with `t0_s <= time < t1_s`, optionally restricted to one tag.
    pub fn window(&self, t0_s: f64, t1_s: f64, tag: Option<&str>) -> Vec<AttributedSample> {
        self.scatter
            .iter()
            .filter(|s| s.time_s >= t0_s && s.time_s < t1_s)
            .filter(|s| match tag {
                Some(name) => s.tag.as_deref() == Some(name),
                None => true,
            })
            .cloned()
            .collect()
    }

    /// The most-accessed tag, if any samples were attributed.
    pub fn hottest_tag(&self) -> Option<&RegionStats> {
        self.per_tag.first()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(time_ns: u64, vaddr: u64, is_store: bool) -> AddressSample {
        AddressSample {
            time_ns,
            vaddr,
            core: 0,
            is_store,
            latency: 4,
            source: arch_sim::DataSource::L1,
        }
    }

    fn tags() -> Vec<AddrTag> {
        vec![
            AddrTag { name: "a".into(), start: 0x1000, end: 0x2000 },
            AddrTag { name: "b".into(), start: 0x2000, end: 0x3000 },
        ]
    }

    fn phases() -> Vec<Phase> {
        vec![Phase { name: "triad".into(), start_ns: 100, end_ns: 1000 }]
    }

    /// Splitting a sample stream across accumulators and merging them in
    /// order must equal one serial ingestion — the shard-merge guarantee of
    /// the sharded streaming pipeline.
    #[test]
    fn sharded_accumulators_merge_to_the_serial_result() {
        let samples: Vec<AddressSample> = (0..200u64)
            .map(|i| sample(100 + i * 7, 0x1000 + (i % 80) * 0x40, i % 3 == 0))
            .collect();
        let mut serial = RegionAccumulator::new();
        serial.ingest(&samples, &tags(), &phases());

        let mut shards: Vec<RegionAccumulator> = (0..4).map(|_| RegionAccumulator::new()).collect();
        for (i, chunk) in samples.chunks(13).enumerate() {
            shards[i % 4].ingest(chunk, &tags(), &phases());
        }
        let mut merged = shards.remove(0);
        for shard in shards {
            merged.merge(shard);
        }

        let (s, m) = (serial.finalize(&tags()), merged.finalize(&tags()));
        assert_eq!(s.per_tag, m.per_tag);
        assert_eq!(s.per_phase, m.per_phase);
        assert_eq!(s.untagged_samples, m.untagged_samples);
        assert_eq!(s.scatter.len(), m.scatter.len());
    }

    #[test]
    fn attribution_to_tags_and_phases() {
        let samples = vec![
            sample(150, 0x1100, false),
            sample(200, 0x1200, true),
            sample(250, 0x2100, false),
            sample(2000, 0x1300, false), // outside the phase
            sample(300, 0x9999, false),  // outside every tag
        ];
        let p = attribute(&samples, &tags(), &phases());
        assert_eq!(p.scatter.len(), 5);
        assert_eq!(p.untagged_samples, 1);
        assert_eq!(p.per_tag.len(), 2);
        let a = p.per_tag.iter().find(|t| t.name == "a").unwrap();
        assert_eq!(a.samples, 3);
        assert_eq!(a.loads, 2);
        assert_eq!(a.stores, 1);
        assert_eq!(a.min_addr, 0x1100);
        assert_eq!(a.max_addr, 0x1300);
        assert!(a.coverage > 0.0 && a.coverage <= 1.0);
        assert_eq!(p.hottest_tag().unwrap().name, "a");
        let triad = p.per_phase.iter().find(|(n, _)| n == "triad").unwrap();
        assert_eq!(triad.1, 4, "samples at 150, 200, 250 and 300 fall in the phase");
        // Sample at t=2000 has no phase.
        assert!(p.scatter[3].phase.is_none());
    }

    #[test]
    fn incremental_ingestion_matches_whole_run_scan() {
        let samples: Vec<AddressSample> =
            (0..200u64).map(|i| sample(i * 10 + 100, 0x1000 + (i % 0x2000), i % 3 == 0)).collect();
        let post_hoc = attribute(&samples, &tags(), &phases());
        let mut accum = RegionAccumulator::new();
        for chunk in samples.chunks(17) {
            accum.ingest(chunk, &tags(), &phases());
        }
        assert_eq!(accum.len(), samples.len());
        let streamed = accum.finalize(&tags());
        assert_eq!(streamed.per_tag, post_hoc.per_tag);
        assert_eq!(streamed.per_phase, post_hoc.per_phase);
        assert_eq!(streamed.untagged_samples, post_hoc.untagged_samples);
        assert_eq!(streamed.scatter, post_hoc.scatter);
    }

    #[test]
    fn finalize_survives_a_vanished_tag() {
        let tag = vec![AddrTag { name: "tmp".into(), start: 0x1000, end: 0x1100 }];
        let mut accum = RegionAccumulator::new();
        accum.ingest(&[sample(1, 0x1000, false), sample(2, 0x1040, false)], &tag, &[]);
        let profile = accum.finalize(&[]); // tag no longer registered
        assert_eq!(profile.per_tag.len(), 1);
        assert!(profile.per_tag[0].coverage > 0.0);
    }

    #[test]
    fn empty_inputs() {
        let p = attribute(&[], &[], &[]);
        assert!(p.scatter.is_empty());
        assert!(p.per_tag.is_empty());
        assert_eq!(p.untagged_samples, 0);
        assert!(p.hottest_tag().is_none());
    }

    #[test]
    fn high_resolution_window() {
        let samples: Vec<AddressSample> =
            (0..100u64).map(|i| sample(i * 10_000_000, 0x1000 + i, false)).collect();
        let p = attribute(&samples, &tags(), &[]);
        let w = p.window(0.2, 0.4, None);
        assert!(!w.is_empty());
        assert!(w.iter().all(|s| s.time_s >= 0.2 && s.time_s < 0.4));
        let w_a = p.window(0.0, 1.0, Some("a"));
        assert!(w_a.iter().all(|s| s.tag.as_deref() == Some("a")));
        let w_none = p.window(5.0, 6.0, None);
        assert!(w_none.is_empty());
    }

    #[test]
    fn coverage_full_when_every_line_sampled() {
        let tag = vec![AddrTag { name: "small".into(), start: 0, end: 256 }];
        // Sample every 64-byte line of the 256-byte tag.
        let samples: Vec<AddressSample> = (0..4u64).map(|i| sample(i, i * 64, false)).collect();
        let p = attribute(&samples, &tag, &[]);
        assert!((p.per_tag[0].coverage - 1.0).abs() < 1e-12);
    }
}
