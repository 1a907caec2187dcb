//! Level 3: memory-region-based profiling (paper Section VI-C, Figures 4–6).
//!
//! A sample is attributed by one rule, [`tag_of`] and [`phase_of`]: to the
//! last-registered address tag that contains its virtual address, and to
//! the last-registered phase that contains its timestamp.
//! [`RegionAccumulator`] folds samples under that rule into what a
//! [`RegionProfile`] reports — per-tag counts and extents, per-phase counts
//! and the untagged count — and keeps nothing per sample. Tag and phase
//! names are interned once per ingest call, a sample is tallied into
//! index-addressed slots, and the only thing that grows is each tag's set
//! of sampled 64-byte lines (for `coverage`). That set is bounded by the
//! tags' footprint, not by the run's length.
//!
//! The raw points of the paper's scatter plots are not kept here. A session
//! that wants them also registers [`crate::sink::SampleLogSink`] and
//! attributes each logged sample through the same two functions, as
//! `nmo-bench`'s Figure 4–6 experiments do.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

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
    /// Fraction of the tagged range that was sampled at least once, at
    /// 64-byte-line granularity: the sampled lines over the lines the tag's
    /// range spans (0.0–1.0).
    pub coverage: f64,
}

/// Result of region-based attribution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegionProfile {
    /// Per-tag statistics, sorted by descending sample count.
    pub per_tag: Vec<RegionStats>,
    /// Samples that fell outside every tag.
    pub untagged_samples: u64,
    /// Per-phase sample counts.
    pub per_phase: Vec<(String, u64)>,
}

/// The tag a sample at `vaddr` is attributed to, as an index into `tags`:
/// the last-registered tag that contains the address.
pub fn tag_of(tags: &[AddrTag], vaddr: u64) -> Option<usize> {
    tags.iter().rposition(|t| t.contains(vaddr))
}

/// The phase a sample at `time_ns` is attributed to, as an index into
/// `phases`: the last-registered phase that contains the time.
pub fn phase_of(phases: &[Phase], time_ns: u64) -> Option<usize> {
    phases.iter().rposition(|p| p.contains_ns(time_ns))
}

/// The 64-byte lines that the bytes `first..=last` touch.
fn lines_spanned(first: u64, last: u64) -> u64 {
    (last >> 6) - (first >> 6) + 1
}

/// A line number's hash in one multiply, its high half folded into the low
/// bits the table indexes by (so strided lines spread too). SipHash costs
/// ≈ 20–30 ns more per sample. It is unkeyed: addresses from a crafted trace
/// could collide, which slows the fold but cannot change what it counts.
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(self.0 ^ u64::from(b)));
    }

    fn write_u64(&mut self, n: u64) {
        let x = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 32);
    }
}

/// One tag name's running statistics and sampled lines.
#[derive(Debug)]
struct TagTally {
    stats: RegionStats,
    lines: HashSet<u64, BuildHasherDefault<LineHasher>>,
}

/// Incremental region attribution: the windowed-merge core behind both the
/// post-hoc [`attribute`] scan and the streaming
/// [`crate::sink::RegionSink`].
///
/// Samples are ingested batch by batch, each batch attributed against the
/// tags and phases known at ingestion time, and [`RegionAccumulator::finalize`]
/// computes the coverage that needs the final tag extents. Its size is one
/// slot per tag and phase name plus the lines sampled inside tags, whatever
/// the number of samples.
#[derive(Debug, Default)]
pub struct RegionAccumulator {
    /// One tally per tag name, in first-seen order.
    tags: Vec<TagTally>,
    /// One count per phase name, in first-seen order.
    phases: Vec<(String, u64)>,
    untagged: u64,
}

impl RegionAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot of tag name `name`, created empty on first sight.
    fn tag_slot(&mut self, name: &str) -> usize {
        if let Some(slot) = self.tags.iter().position(|t| t.stats.name == name) {
            return slot;
        }
        let stats = RegionStats {
            name: name.to_string(),
            samples: 0,
            loads: 0,
            stores: 0,
            min_addr: u64::MAX,
            max_addr: 0,
            coverage: 0.0,
        };
        self.tags.push(TagTally { stats, lines: HashSet::default() });
        self.tags.len() - 1
    }

    /// The slot of phase name `name`, created at zero on first sight.
    fn phase_slot(&mut self, name: &str) -> usize {
        if let Some(slot) = self.phases.iter().position(|(n, _)| n == name) {
            return slot;
        }
        self.phases.push((name.to_string(), 0));
        self.phases.len() - 1
    }

    /// Attribute one batch of samples against the currently known tags and
    /// phases, merging into the running statistics.
    pub fn ingest(&mut self, samples: &[AddressSample], tags: &[AddrTag], phases: &[Phase]) {
        let tag_slots: Vec<usize> = tags.iter().map(|t| self.tag_slot(&t.name)).collect();
        let phase_slots: Vec<usize> = phases.iter().map(|p| self.phase_slot(&p.name)).collect();
        for s in samples {
            if let Some(p) = phase_of(phases, s.time_ns) {
                self.phases[phase_slots[p]].1 += 1;
            }
            let Some(t) = tag_of(tags, s.vaddr) else {
                self.untagged += 1;
                continue;
            };
            let tally = &mut self.tags[tag_slots[t]];
            tally.stats.samples += 1;
            tally.stats.stores += u64::from(s.is_store);
            tally.stats.loads += u64::from(!s.is_store);
            tally.stats.min_addr = tally.stats.min_addr.min(s.vaddr);
            tally.stats.max_addr = tally.stats.max_addr.max(s.vaddr);
            tally.lines.insert(s.vaddr >> 6);
        }
    }

    /// Merge another accumulator into this one (the shard-merge step of the
    /// sharded streaming pipeline): counts and extents sum per name and
    /// sampled lines union, so the result does not depend on the split.
    pub fn merge(&mut self, other: RegionAccumulator) {
        for TagTally { stats, lines } in other.tags {
            let slot = self.tag_slot(&stats.name);
            let ours = &mut self.tags[slot];
            ours.stats.samples += stats.samples;
            ours.stats.loads += stats.loads;
            ours.stats.stores += stats.stores;
            ours.stats.min_addr = ours.stats.min_addr.min(stats.min_addr);
            ours.stats.max_addr = ours.stats.max_addr.max(stats.max_addr);
            ours.lines.extend(lines);
        }
        for (name, count) in other.phases {
            let slot = self.phase_slot(&name);
            self.phases[slot].1 += count;
        }
        self.untagged += other.untagged;
    }

    /// Finish: compute per-tag coverage against the final tag extents and
    /// assemble the [`RegionProfile`]. Names no sample was attributed to
    /// are left out.
    pub fn finalize(self, tags: &[AddrTag]) -> RegionProfile {
        let mut per_tag: Vec<RegionStats> = (self.tags.into_iter())
            .filter(|t| t.stats.samples > 0)
            .map(|TagTally { mut stats, lines }| {
                stats.coverage = (lines.len() as f64 / tag_lines(tags, &stats) as f64).min(1.0);
                stats
            })
            .collect();
        per_tag.sort_by(|a, b| b.samples.cmp(&a.samples).then(a.name.cmp(&b.name)));

        let mut per_phase: Vec<(String, u64)> =
            self.phases.into_iter().filter(|&(_, count)| count > 0).collect();
        per_phase.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        RegionProfile { per_tag, untagged_samples: self.untagged, per_phase }
    }
}

/// The lines a tag spans, for its coverage: the first tag registered under
/// its name, or — if that tag is no longer registered — the sampled span.
fn tag_lines(tags: &[AddrTag], stats: &RegionStats) -> u64 {
    match tags.iter().find(|t| t.name == stats.name) {
        Some(tag) => lines_spanned(tag.start, tag.end.saturating_sub(1).max(tag.start)),
        None => lines_spanned(stats.min_addr, stats.max_addr),
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
    /// Every attributed sample: each tag's plus the untagged ones.
    pub fn total_samples(&self) -> u64 {
        self.per_tag.iter().map(|t| t.samples).sum::<u64>() + self.untagged_samples
    }

    /// The most-accessed tag, if any samples were attributed.
    pub fn hottest_tag(&self) -> Option<&RegionStats> {
        self.per_tag.first()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

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

    fn tag(name: &str, start: u64, end: u64) -> AddrTag {
        AddrTag { name: name.into(), start, end }
    }

    fn tags() -> Vec<AddrTag> {
        vec![tag("a", 0x1000, 0x2000), tag("b", 0x2000, 0x3000)]
    }

    fn phases() -> Vec<Phase> {
        vec![Phase { name: "triad".into(), start_ns: 100, end_ns: 1000 }]
    }

    /// The per-sample fold [`RegionAccumulator`] replaced, kept as its
    /// oracle: maps keyed by the tag's and the phase's name, both cloned per
    /// sample, and a SipHash set of lines per tag.
    #[derive(Default)]
    struct Oracle {
        per_tag: HashMap<String, (RegionStats, std::collections::HashSet<u64>)>,
        per_phase: HashMap<String, u64>,
        untagged: u64,
    }

    impl Oracle {
        fn ingest(&mut self, samples: &[AddressSample], tags: &[AddrTag], phases: &[Phase]) {
            for s in samples {
                let tag = tags.iter().rev().find(|t| t.contains(s.vaddr));
                let phase =
                    phases.iter().rev().find(|p| p.contains_ns(s.time_ns)).map(|p| p.name.clone());
                if let Some(p) = &phase {
                    *self.per_phase.entry(p.clone()).or_insert(0) += 1;
                }
                let Some(t) = tag else {
                    self.untagged += 1;
                    continue;
                };
                let entry = self.per_tag.entry(t.name.clone()).or_insert_with(|| {
                    let stats = RegionStats {
                        name: t.name.clone(),
                        samples: 0,
                        loads: 0,
                        stores: 0,
                        min_addr: u64::MAX,
                        max_addr: 0,
                        coverage: 0.0,
                    };
                    (stats, Default::default())
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
        }

        fn finalize(self, tags: &[AddrTag]) -> RegionProfile {
            let mut per_tag: Vec<RegionStats> = (self.per_tag.into_values())
                .map(|(mut stats, lines)| {
                    stats.coverage = (lines.len() as f64 / tag_lines(tags, &stats) as f64).min(1.0);
                    stats
                })
                .collect();
            per_tag.sort_by(|a, b| b.samples.cmp(&a.samples).then(a.name.cmp(&b.name)));
            let mut per_phase: Vec<(String, u64)> = self.per_phase.into_iter().collect();
            per_phase.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            RegionProfile { per_tag, untagged_samples: self.untagged, per_phase }
        }
    }

    proptest::proptest! {
        /// Interned slots report what the per-sample name-keyed fold
        /// reports, exactly: over overlapping tags (names registered twice,
        /// unaligned and empty ranges), open, closed and overlapping phases,
        /// tags registered between batches, tags that vanish before the end,
        /// and batches spread over 1–4 merged shards.
        #[test]
        fn interned_slots_match_the_name_keyed_fold(
            tag_words in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 0..=6usize),
            phase_words in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 0..=6usize),
            sample_words in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 0..=300usize),
            split_words in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 1..=8usize),
        ) {
            let tags: Vec<AddrTag> = (tag_words.iter())
                .map(|&w| {
                    let start = (w >> 2) % 4096;
                    tag(["a", "b", "c"][w as usize % 3], start, start + (w >> 14) % 1024)
                })
                .collect();
            let phases: Vec<Phase> = (phase_words.iter())
                .map(|&w| {
                    let start_ns = (w >> 1) % 2000;
                    let end_ns =
                        if (w >> 12) % 3 == 0 { u64::MAX } else { start_ns + (w >> 14) % 800 };
                    Phase { name: ["p", "q"][w as usize % 2].into(), start_ns, end_ns }
                })
                .collect();
            let samples: Vec<AddressSample> = (sample_words.iter())
                .map(|&w| sample(w % 2500, (w >> 12) % 5200, (w >> 40) % 2 == 0))
                .collect();

            let width = 1 + (split_words[0] % 4) as usize;
            let mut shards: Vec<RegionAccumulator> =
                (0..width).map(|_| RegionAccumulator::new()).collect();
            let mut oracle = Oracle::default();
            let (mut at, mut round) = (0, 0u32);
            while at < samples.len() {
                let w = split_words[round as usize % split_words.len()].rotate_left(round * 7);
                round += 1;
                let batch = &samples[at..samples.len().min(at + 1 + (w % 40) as usize)];
                let known = &tags[..(w >> 8) as usize % (tags.len() + 1)];
                shards[(w >> 16) as usize % width].ingest(batch, known, &phases);
                oracle.ingest(batch, known, &phases);
                at += batch.len();
            }
            let mut merged = RegionAccumulator::new();
            shards.into_iter().for_each(|shard| merged.merge(shard));

            let remaining = &tags[..(split_words[0] >> 32) as usize % (tags.len() + 1)];
            let (got, want) = (merged.finalize(remaining), oracle.finalize(remaining));
            proptest::prop_assert_eq!(&got.per_tag, &want.per_tag);
            proptest::prop_assert_eq!(&got.per_phase, &want.per_phase);
            proptest::prop_assert_eq!(got.untagged_samples, want.untagged_samples);
            proptest::prop_assert_eq!(got.total_samples(), samples.len() as u64);
        }
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
        assert_eq!(s, m);
        assert_eq!(m.total_samples(), samples.len() as u64);
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
        assert_eq!(p.total_samples(), 5);
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
        assert_eq!(phase_of(&phases(), 2000), None);
    }

    /// Overlapping tags and phases go to the one registered last.
    #[test]
    fn the_last_registered_tag_and_phase_win() {
        let tags = vec![tag("outer", 0x1000, 0x3000), tag("inner", 0x1800, 0x2000)];
        assert_eq!(tag_of(&tags, 0x1900), Some(1));
        assert_eq!(tag_of(&tags, 0x2000), Some(0));
        assert_eq!(tag_of(&tags, 0x3000), None);
        let phases = vec![
            Phase { name: "run".into(), start_ns: 0, end_ns: u64::MAX },
            Phase { name: "step".into(), start_ns: 10, end_ns: 20 },
        ];
        assert_eq!(phase_of(&phases, 15), Some(1));
        assert_eq!(phase_of(&phases, 20), Some(0));
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
        let streamed = accum.finalize(&tags());
        assert_eq!(streamed, post_hoc);
        assert_eq!(streamed.total_samples(), samples.len() as u64);
    }

    #[test]
    fn finalize_survives_a_vanished_tag() {
        let tag = vec![tag("tmp", 0x1000, 0x1100)];
        let mut accum = RegionAccumulator::new();
        accum.ingest(&[sample(1, 0x1000, false), sample(2, 0x1040, false)], &tag, &[]);
        let profile = accum.finalize(&[]); // tag no longer registered
        assert_eq!(profile.per_tag.len(), 1);
        assert!(profile.per_tag[0].coverage > 0.0);
    }

    #[test]
    fn empty_inputs() {
        let p = attribute(&[], &[], &[]);
        assert_eq!(p.total_samples(), 0);
        assert!(p.per_tag.is_empty());
        assert!(p.per_phase.is_empty());
        assert!(p.hottest_tag().is_none());
    }

    #[test]
    fn coverage_full_when_every_line_sampled() {
        let tag = vec![tag("small", 0, 256)];
        // Sample every 64-byte line of the 256-byte tag.
        let samples: Vec<AddressSample> = (0..4u64).map(|i| sample(i, i * 64, false)).collect();
        let p = attribute(&samples, &tag, &[]);
        assert!((p.per_tag[0].coverage - 1.0).abs() < 1e-12);
    }

    /// A range that does not start on a line boundary spans one line more
    /// than its length in lines.
    #[test]
    fn coverage_counts_the_lines_an_unaligned_range_spans() {
        // Registered: [0x20, 0x60) touches lines 0 and 1; one is sampled.
        let registered = vec![tag("t", 0x20, 0x60)];
        let p = attribute(&[sample(0, 0x20, false)], &registered, &[]);
        assert_eq!(p.per_tag[0].coverage, 0.5);

        // Vanished: samples at 0x3F and 0x80 span lines 0, 1 and 2.
        let mut accum = RegionAccumulator::new();
        let both = [sample(0, 0x3F, false), sample(1, 0x80, false)];
        accum.ingest(&both, &[tag("gone", 0, 0x100)], &[]);
        let p = accum.finalize(&[]);
        assert_eq!(p.per_tag[0].coverage, 2.0 / 3.0);
    }
}
