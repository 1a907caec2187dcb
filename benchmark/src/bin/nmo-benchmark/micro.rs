//! Per-layer microbenchmarks of the traced run: each times one layer's
//! public functions on their own, so that a change in an end-to-end number
//! can be matched to (or ruled out for) a layer. Every figure is the median
//! of `ROUNDS` rounds; inputs and results pass through `black_box`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use arch_sim::{Machine, MachineConfig};
use nmo::stream::{BusEvent, BusRecv};
use nmo::trace::replay_finish;
use nmo::{
    AnalysisReport, AnalysisSink, Annotations, BackpressurePolicy, BatchPayload, BatchPool,
    EventBus, HotPageTracker, LatencySink, NmoError, NoMigration, Profile, RegionSink, SampleBatch,
    StreamContext, TraceReader, TraceWriterSink, WindowClock,
};
use perf_sub::records::{AuxRecord, Record};
use perf_sub::{AuxBuffer, MetadataPage, RingBuffer};
use spe::packet::{decode_records, SpeRecord, SPE_RECORD_BYTES};

use crate::loadgen::{drain_offline, generate, LoadSpec, DRAIN_CHUNK};
use crate::run::{Ctx, TempDir};
use crate::spec;
use crate::stats::median;

const ROUNDS: usize = 5;

/// Median nanoseconds per item over `ROUNDS` rounds; `round` processes
/// `items` items and returns how long the measured part of it took.
fn ns_per_item(items: u64, mut round: impl FnMut() -> Duration) -> f64 {
    let rounds: Vec<f64> =
        (0..ROUNDS).map(|_| round().as_nanos() as f64 / items.max(1) as f64).collect();
    median(&rounds)
}

fn timed(f: impl FnOnce()) -> Duration {
    let started = Instant::now();
    f();
    started.elapsed()
}

/// `count` seeded SPE records (the load generator's), decoded back.
fn sample_records(count: usize, seed: u64) -> Vec<SpeRecord> {
    let spec = LoadSpec { cores: 1, records_per_core: count, passes: 1, dt_ns: 1_000 };
    generate(spec, seed).per_core[0]
        .chunks(SPE_RECORD_BYTES)
        .map(|bytes| SpeRecord::decode(bytes).expect("generated records decode"))
        .collect()
}

/// Ready-made batches of ≈ 512 samples over 8 cores, as the large-batch
/// workload delivers them.
fn sample_batches(seed: u64) -> Vec<SampleBatch> {
    let spec = LoadSpec { cores: 8, records_per_core: 8_192, passes: 1, dt_ns: spec::TRACE_DT_NS };
    let mut batches = Vec::new();
    let data = Arc::new(generate(spec, seed));
    drain_offline(&data, spec::TRACE_WINDOW_NS, &BatchPool::new(1), |batch| batches.push(batch));
    batches
}

fn stream_context(annotations: Arc<Annotations>) -> StreamContext {
    StreamContext {
        annotations,
        capacity_bytes: 1 << 30,
        bucket_ns: 1_000_000,
        mem_nodes: 1,
        page_bytes: 64 * 1024,
        machine: None,
    }
}

/// `SinkShard::on_batch` of one sink over the pre-built batches, ns/sample.
fn shard_ns_per_sample(sink: &mut dyn AnalysisSink, batches: &[SampleBatch]) -> f64 {
    let ctx = stream_context(Arc::new(Annotations::new()));
    ctx.annotations.tag_addr("hot", 0x1000, 0x1000 + 1024 * 64);
    ctx.annotations.tag_addr("cold", 0x1000 + 1024 * 64, 0x1000 + 4096 * 64);
    sink.on_stream_start(&ctx);
    let samples: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let shardable = sink.as_shardable().expect("built-in sinks are shardable");
    ns_per_item(samples, || {
        let mut shard = shardable.make_shard(0, &ctx);
        timed(|| {
            for batch in batches {
                shard.on_batch(black_box(batch));
            }
            black_box(shard.finish());
        })
    })
}

/// A sink that only counts, so a replay into it costs the decode alone.
#[derive(Default)]
struct CountingSink {
    samples: u64,
}

impl AnalysisSink for CountingSink {
    fn name(&self) -> &'static str {
        "bench-count"
    }

    fn analyze(&mut self, _m: &Machine, _p: &Profile) -> Result<AnalysisReport, NmoError> {
        Ok(AnalysisReport::Text(self.samples.to_string()))
    }

    fn on_batch(&mut self, batch: &SampleBatch) {
        self.samples += batch.len() as u64;
    }
}

/// Run every microbenchmark; returns `(metric, value)` pairs.
pub fn run_all(ctx: &Ctx) -> Vec<(&'static str, f64)> {
    let tracer = &ctx.tracer;
    let mut out = Vec::new();

    {
        let _span = tracer.span("micro.arch_sim");
        let ns = ns_per_item(1, || {
            timed(|| {
                black_box(Machine::new(MachineConfig::ampere_altra_max()));
            })
        });
        out.push(("arch_sim.machine_new_ms", ns / 1e6));
    }

    {
        let _span = tracer.span("micro.spe");
        let records = sample_records(DRAIN_CHUNK * 32, ctx.seed);
        let mut encoded = Vec::with_capacity(records.len() * SPE_RECORD_BYTES);
        let encode = ns_per_item(records.len() as u64, || {
            encoded.clear();
            timed(|| {
                for record in &records {
                    encoded.extend_from_slice(&black_box(record).encode());
                }
                black_box(&encoded);
            })
        });
        // One drain's worth (512 records = 32 KiB) at a time, as the pump
        // sees it.
        let decode = ns_per_item(records.len() as u64, || {
            timed(|| {
                for chunk in encoded.chunks(DRAIN_CHUNK * SPE_RECORD_BYTES) {
                    for rec in decode_records(black_box(chunk)) {
                        black_box(rec);
                    }
                }
            })
        });
        out.extend([("spe.encode_ns_per_record", encode), ("spe.decode_ns_per_record", decode)]);
    }

    {
        let _span = tracer.span("micro.perf_sub");
        const RECORDS: u64 = 16_384;
        let record = sample_records(1, ctx.seed)[0].encode();
        let meta = MetadataPage::default();
        let aux = AuxBuffer::new(16, 64 * 1024).expect("16 aux pages");
        let mut scratch = Vec::new();
        // Fill the 1 MiB buffer record by record, then drain it the way
        // `drain_event` does: one read, one tail advance.
        let aux_ns = ns_per_item(RECORDS, || {
            timed(|| {
                let mut first = None;
                for _ in 0..RECORDS {
                    let offset = aux.write(black_box(&record), &meta).expect("aux has room");
                    first.get_or_insert(offset);
                }
                let start = first.expect("records were written");
                let len = RECORDS * SPE_RECORD_BYTES as u64;
                aux.read_into(start, len, &mut scratch);
                aux.advance_tail(start + len, &meta);
                black_box(&scratch);
            })
        });
        let ring = RingBuffer::new(16, 64 * 1024).expect("16 ring pages");
        let ring_ns = ns_per_item(RECORDS, || {
            timed(|| {
                for i in 0..RECORDS {
                    let record =
                        Record::Aux(AuxRecord { aux_offset: i * 64, aux_size: 64, flags: 0 });
                    assert!(ring.write_record(black_box(&record), &meta));
                    black_box(ring.read_record(&meta).expect("ring record reads back"));
                }
            })
        });
        out.extend([
            ("perf_sub.aux_roundtrip_ns_per_record", aux_ns),
            ("perf_sub.ring_roundtrip_ns_per_record", ring_ns),
        ]);
    }

    {
        let _span = tracer.span("micro.stream");
        const BATCHES: u64 = 50_000;
        let clock = WindowClock::new(100_000);
        let pingpong = ns_per_item(BATCHES, || {
            let bus = EventBus::bounded(1024, BackpressurePolicy::Block);
            timed(|| {
                std::thread::scope(|scope| {
                    let consumer = scope.spawn(|| {
                        let mut received = 0u64;
                        loop {
                            match bus.recv_timeout(Duration::from_millis(50)) {
                                BusRecv::Event(BusEvent::Batch(batch)) => {
                                    black_box(batch);
                                    received += 1;
                                }
                                BusRecv::Event(BusEvent::CloseWindow(_)) | BusRecv::TimedOut => {}
                                BusRecv::Closed => return received,
                            }
                        }
                    });
                    for i in 0..BATCHES {
                        let payload = BatchPayload::SpeSamples {
                            samples: Vec::new(),
                            loss: Default::default(),
                        };
                        let batch = SampleBatch::new("spe", Some(0), clock.window(i), payload);
                        bus.publish(BusEvent::Batch(batch));
                    }
                    bus.close();
                    assert_eq!(consumer.join().expect("bus consumer"), BATCHES);
                });
            })
        });
        let pool = BatchPool::new(64);
        let pool_cycle = ns_per_item(BATCHES, || {
            timed(|| {
                for _ in 0..BATCHES {
                    let buf = pool.samples();
                    pool.recycle_samples(black_box(buf));
                }
            })
        });
        out.extend([
            ("stream.bus_pingpong_ns_per_batch", pingpong),
            ("stream.pool_cycle_ns", pool_cycle),
        ]);
    }

    let batches = sample_batches(ctx.seed);
    let batch_samples: u64 = batches.iter().map(|b| b.len() as u64).sum();
    {
        let _span = tracer.span("micro.sink");
        out.extend([
            ("sink.latency_ns_per_sample", shard_ns_per_sample(&mut LatencySink::new(), &batches)),
            ("sink.region_ns_per_sample", shard_ns_per_sample(&mut RegionSink::new(), &batches)),
            (
                "sink.hotpage_ns_per_sample",
                shard_ns_per_sample(&mut HotPageTracker::new(NoMigration), &batches),
            ),
        ]);
        // Final merge of two shards' latency histograms into the parent.
        let ctx = stream_context(Arc::new(Annotations::new()));
        let merge_ns = ns_per_item(1, || {
            let mut sink = LatencySink::new();
            let shardable = sink.as_shardable().expect("LatencySink is shardable");
            let states = (0..2)
                .map(|s| {
                    let mut shard = shardable.make_shard(s, &ctx);
                    shard.on_batch(&batches[s]);
                    shard.finish()
                })
                .collect();
            timed(|| shardable.merge_final(states))
        });
        out.push(("sink.merge_final_us", merge_ns / 1e3));
    }

    {
        let _span = tracer.span("micro.trace");
        match trace_micro(ctx, &batches, batch_samples) {
            Ok(values) => out.extend(values),
            Err(e) => eprintln!("[bench] trace microbenchmark skipped: {e}"),
        }
    }

    {
        let _span = tracer.span("micro.loadgen");
        let spec =
            LoadSpec { cores: 128, records_per_core: 2_048, passes: 1, dt_ns: spec::PIPE_DT_NS };
        let data = Arc::new(generate(spec, ctx.seed));
        let pool = BatchPool::new(4096);
        let drain = ns_per_item(spec.total_samples(), || {
            timed(|| {
                drain_offline(&data, spec::PIPE_WINDOW_NS, &pool, |batch| {
                    pool.recycle_batch(black_box(batch));
                })
            })
        });
        out.push(("loadgen.drain_ns_per_sample", drain));
    }
    out
}

/// `TraceWriterSink`'s shard `on_batch` called directly, then a replay of
/// what it wrote into a counting sink.
fn trace_micro(
    ctx: &Ctx,
    batches: &[SampleBatch],
    samples: u64,
) -> Result<Vec<(&'static str, f64)>, String> {
    let stream_ctx = stream_context(Arc::new(Annotations::new()));
    let clock = WindowClock::new(spec::TRACE_WINDOW_NS);
    let last_window = batches.last().map_or(0, |b| b.window.index);
    let mut written = None;
    let encode = ns_per_item(samples, || {
        let dir = TempDir::create(&ctx.out_dir, "micro").expect("temp trace dir");
        let mut writer = TraceWriterSink::new(dir.path());
        writer.on_stream_start(&stream_ctx);
        let shardable = writer.as_shardable().expect("TraceWriterSink is shardable");
        let mut shard = shardable.make_shard(0, &stream_ctx);
        let elapsed = timed(|| {
            for batch in batches {
                shard.on_batch(black_box(batch));
            }
        });
        for index in 0..=last_window {
            shard.on_window_close(clock.window(index));
        }
        shardable.merge_final(vec![shard.finish()]);
        let mut sinks: Vec<Box<dyn AnalysisSink>> = vec![Box::new(writer)];
        replay_finish(&mut sinks).expect("trace manifest");
        written = Some(dir);
        elapsed
    });
    let dir = written.expect("at least one round ran");
    let reader = TraceReader::open(dir.path()).map_err(|e| e.to_string())?;
    let mut failure = None;
    let decode = ns_per_item(samples, || {
        let mut sinks: Vec<Box<dyn AnalysisSink>> = vec![Box::new(CountingSink::default())];
        timed(|| match reader.replay(&mut sinks) {
            Ok(stats) if stats.samples == samples => {}
            Ok(stats) => failure = Some(format!("replayed {} of {samples}", stats.samples)),
            Err(e) => failure = Some(e.to_string()),
        })
    });
    match failure {
        Some(e) => Err(e),
        None => {
            Ok(vec![("trace.encode_ns_per_sample", encode), ("trace.decode_ns_per_sample", decode)])
        }
    }
}
