//! The benchmark's fixed vocabulary: workload names, metric names with
//! units, and the one table of sizes. `BENCHMARK.json` at the repo root
//! lists the same names; a unit test keeps the two in step.

use crate::loadgen::LoadSpec;
use crate::sim::SimSize;
use crate::stats;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20_240_917;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimPagerankP4096,
    SimStreamP64Live,
    Pipe128cSerial,
    TraceRw128c,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SimPagerankP4096,
        Workload::SimStreamP64Live,
        Workload::Pipe128cSerial,
        Workload::TraceRw128c,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimPagerankP4096 => "sim_pagerank_p4096",
            Workload::SimStreamP64Live => "sim_stream_p64_live",
            Workload::Pipe128cSerial => "pipe_128c_serial",
            Workload::TraceRw128c => "trace_rw_128c",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether `--seed` changes this workload's input. The simulated
    /// workloads take theirs from `workloads`' fixed internal seeds.
    pub fn seeded(self) -> bool {
        matches!(self, Workload::Pipe128cSerial | Workload::TraceRw128c)
    }
}

/// End-to-end metrics, printed by every workload of an untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("pipe_msamples_per_s", "Msamples/s"),
    ("sample_accuracy", "fraction"),
];

/// The value a run reports for a metric, out of its repetitions' values.
/// The host-time end-to-end metrics report their best repetition
/// ([`stats::best`]): the host this runs on slows a repetition by up to
/// 1.6x in bursts of seconds, on some runs for most of the run, and the
/// median of a run then says which kind of run it was (README, last
/// section). Everything else — exact counts, single readings and the
/// per-layer metrics — is a median.
pub fn reported(metric: &str, values: &[f64]) -> f64 {
    match metric {
        "setup_s" | "wall_s" | "cpu_s" => stats::best(values, true),
        "pipe_msamples_per_s" => stats::best(values, false),
        _ => stats::median(values),
    }
}

/// Per-layer metrics, printed by every workload of a traced run. A layer
/// the workload does not exercise reports 0 for its counts and timings.
pub const PER_LAYER: [(&str, &str); 69] = [
    // What the untraced run cannot attribute: the paper's axes on the
    // simulated workloads, the read side of the trace store, and the cost
    // of tracing itself.
    ("sim_overhead_frac", "fraction"),
    ("sim_accuracy_err", "fraction"),
    ("sim_mops_per_host_s", "Mops/s"),
    ("host_slowdown", "ratio"),
    ("trace_replay_msamples_per_s", "Msamples/s"),
    ("trace_query_msamples_per_s", "Msamples/s"),
    ("trace_bytes_per_sample", "B"),
    ("trace_overhead_frac", "fraction"),
    ("failed_frac", "fraction"),
    // arch-sim
    ("arch_sim.ns_per_op", "ns"),
    ("arch_sim.machine_new_ms", "ms"),
    ("arch_sim.elapsed_cycles", "count"),
    ("arch_sim.mem_access", "count"),
    ("arch_sim.l1_hits", "count"),
    ("arch_sim.l2_hits", "count"),
    ("arch_sim.slc_hits", "count"),
    ("arch_sim.dram_accesses", "count"),
    ("arch_sim.observer_cycles", "count"),
    // spe
    ("spe.observer_ns_per_op", "ns"),
    ("spe.encode_ns_per_record", "ns"),
    ("spe.decode_ns_per_record", "ns"),
    ("spe.samples_selected", "count"),
    ("spe.records_written", "count"),
    ("spe.collisions", "count"),
    ("spe.truncated_records", "count"),
    ("spe.interrupts", "count"),
    ("spe.overhead_cycles", "count"),
    // perf-sub
    ("perf_sub.aux_roundtrip_ns_per_record", "ns"),
    ("perf_sub.ring_roundtrip_ns_per_record", "ns"),
    ("perf_sub.aux_records", "count"),
    ("perf_sub.collision_flagged", "count"),
    ("perf_sub.truncated_flagged", "count"),
    // nmo::session
    ("session.build_ms", "ms"),
    ("session.start_ms", "ms"),
    ("session.finish_ms", "ms"),
    ("session.posthoc_finish_ms", "ms"),
    // nmo::stream
    ("stream.bus_pingpong_ns_per_batch", "ns"),
    ("stream.pool_cycle_ns", "ns"),
    ("stream.batches_published", "count"),
    ("stream.batches_dropped", "count"),
    ("stream.late_batches", "count"),
    ("stream.windows_closed", "count"),
    ("stream.bus_high_watermark", "count"),
    ("stream.samples_per_batch", "count"),
    ("stream.delivery_lag_p50_us", "us"),
    ("stream.delivery_lag_p99_us", "us"),
    // locks, from one repetition under the runtime lock checker
    ("lock.bus_inner.acq_per_ksample", "count"),
    ("lock.pool_samples.acq_per_ksample", "count"),
    ("lock.session_coordinator.acq_per_ksample", "count"),
    ("lock.session_merger.acq_per_ksample", "count"),
    ("lock.spe_store_samples.acq_per_ksample", "count"),
    ("lock.machine_core.acq_per_kop", "count"),
    ("lock.bus_inner.max_hold_us", "us"),
    ("lock.session_merger.max_hold_us", "us"),
    // nmo::sink
    ("sink.latency_ns_per_sample", "ns"),
    ("sink.region_ns_per_sample", "ns"),
    ("sink.hotpage_ns_per_sample", "ns"),
    ("sink.merge_final_us", "us"),
    // nmo::trace
    ("trace.encode_ns_per_sample", "ns"),
    ("trace.decode_ns_per_sample", "ns"),
    ("trace.open_ms", "ms"),
    ("trace.verify_ms", "ms"),
    ("trace.sliced_query_ms", "ms"),
    ("trace.sliced_blocks_decoded_frac", "fraction"),
    ("trace.record_overhead_frac", "fraction"),
    // workloads
    ("workloads.setup_ms", "ms"),
    // the load generator itself
    ("loadgen.drain_ns_per_sample", "ns"),
    ("loadgen.share", "fraction"),
    ("loadgen.samples_emitted", "count"),
];

pub fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(name, _)| *name == metric)
        .map_or("", |(_, unit)| unit)
}

/// Every size the workloads use, in one place. A repetition is sized to
/// take half a second to a second, so that a run holds a few dozen of them
/// and some fall between the host's slow bursts (see [`reported`]). A
/// size change moves every number and breaks comparison with earlier runs.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `PageRank::new(vertices, avg_degree, iterations)`.
    pub pagerank: SimSize,
    /// `StreamBench::new(elements, iterations)`; the third field is unused.
    pub stream: SimSize,
    /// Sizes of the small run that ends each set-up of a simulated workload
    /// and of its lock-checked repetition.
    pub pagerank_small: SimSize,
    pub stream_small: SimSize,
    pub pipe: LoadSpec,
    pub trace: LoadSpec,
    /// Passes of the synthetic workloads' warm-up and lock-checked
    /// repetition (the checker serialises every acquisition through one
    /// global mutex, and acquisitions per sample do not depend on length).
    pub short_passes: u64,
}

/// Simulated nanoseconds between two records of one core. With the window
/// widths below this gives ≈ 83 samples per batch on `pipe_128c_serial`
/// (small batches: the bus, the pool and the close coordinator carry the
/// time) and ≈ 512 on `trace_rw_128c` (large batches: sinks and the trace
/// encoder do).
pub const PIPE_DT_NS: u64 = 1_200;
pub const PIPE_WINDOW_NS: u64 = 100_000;
pub const TRACE_DT_NS: u64 = 1_953;
pub const TRACE_WINDOW_NS: u64 = 1_000_000;

pub const FULL: Sizes = Sizes {
    pagerank: (1 << 15, 8, 6),
    stream: (2_000_000, 1, 0),
    pagerank_small: (1 << 12, 8, 2),
    stream_small: (50_000, 1, 0),
    pipe: LoadSpec { cores: 128, records_per_core: 8_192, passes: 8, dt_ns: PIPE_DT_NS },
    trace: LoadSpec { cores: 128, records_per_core: 8_192, passes: 4, dt_ns: TRACE_DT_NS },
    short_passes: 2,
};

pub const SMOKE: Sizes = Sizes {
    pagerank: (1 << 12, 8, 2),
    stream: (60_000, 2, 0),
    pagerank_small: (1 << 10, 8, 1),
    stream_small: (10_000, 1, 0),
    pipe: LoadSpec { cores: 128, records_per_core: 1_024, passes: 2, dt_ns: PIPE_DT_NS },
    trace: LoadSpec { cores: 128, records_per_core: 1_024, passes: 2, dt_ns: TRACE_DT_NS },
    short_passes: 1,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn names_are_unique_and_parse_back() {
        let mut names: Vec<&str> =
            END_TO_END.iter().chain(PER_LAYER.iter()).map(|(n, _)| *n).collect();
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program prints. They must list the same names and units.
    #[test]
    fn benchmark_json_lists_the_same_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json: no {key} list"))
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), table(&END_TO_END));
        assert_eq!(listed("per_layer"), table(&PER_LAYER));
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    }
}
