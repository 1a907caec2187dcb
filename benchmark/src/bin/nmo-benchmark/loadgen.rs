//! The synthetic load generator: seeded SPE records, and a `SampleBackend`
//! that replays them into a real `ProfileSession`.
//!
//! Driven by the simulator, the drain→decode→bus→sink spine sees at most a
//! few hundred thousand samples per second and idles. This backend instead
//! hands the session pre-encoded 64-byte SPE records, decoded on the pump
//! threads with the program's own `spe::packet::decode_records`, fast enough
//! to saturate the spine. The program only ever receives the generated
//! bytes: the seed never reaches it.
//!
//! The per-record loop in [`drain_cores`] mirrors `nmo::backend`'s private
//! `drain_event` (decode → `AddressSample` → pooled buffer); a change to
//! that private loop does not show here, a change to `decode_records`,
//! `BatchPool`, `SampleBatch::new` or anything downstream of the drain does.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::Instant;

use arch_sim::{DataSource, Machine, OpKind, TimeConv};
use nmo::backend::CoreObserver;
use nmo::sink::{ShardState, ShardableSink, SinkShard, StreamContext};
use nmo::stream::StreamSource;
use nmo::{
    AddressSample, AnalysisReport, AnalysisSink, BatchPayload, BatchPool, NmoConfig, NmoError,
    Profile, SampleBackend, SampleBatch, ShardDrainer, WindowClock,
};
use parking_lot::Mutex;
use spe::packet::{decode_records, SpeRecord, SPE_RECORD_BYTES};

use crate::spans::Tracer;

/// First byte of the synthetic address range.
const VADDR_BASE: u64 = 0x1000;
/// Cache lines the synthetic addresses spread over.
const VADDR_LINES: u64 = 4096;
/// Records each core hands over per drain call.
pub const DRAIN_CHUNK: usize = 512;

/// splitmix64: the generator's only source of randomness.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Size and timing of the generated stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadSpec {
    pub cores: usize,
    pub records_per_core: usize,
    /// Times the per-core record block is replayed; each pass shifts the
    /// timestamps by one block span, so simulated time keeps ascending while
    /// the resident input stays `cores * records_per_core * 64` bytes.
    pub passes: u64,
    /// Simulated nanoseconds between two records of one core.
    pub dt_ns: u64,
}

impl LoadSpec {
    /// Simulated span of one pass.
    pub fn pass_span_ns(&self) -> u64 {
        self.records_per_core as u64 * self.dt_ns
    }

    pub fn total_samples(&self) -> u64 {
        self.cores as u64 * self.records_per_core as u64 * self.passes
    }

    /// Timestamp of record `index` of `core` in pass `pass`. Cores are
    /// skewed by one nanosecond each so no two records share a timestamp.
    pub fn time_ns(&self, core: usize, pass: u64, index: usize) -> u64 {
        pass * self.pass_span_ns() + (index as u64 + 1) * self.dt_ns + core as u64
    }

    /// How many generated samples fall into windows `first..=last` of width
    /// `window_ns` — what a window-sliced trace query must return.
    pub fn samples_in_windows(&self, window_ns: u64, first: u64, last: u64) -> u64 {
        let (lo, hi) = (first * window_ns, (last + 1) * window_ns);
        let mut count = 0u64;
        for core in 0..self.cores {
            for pass in 0..self.passes {
                // time = base + (index + 1) * dt, index in 0..records_per_core
                let base = pass * self.pass_span_ns() + core as u64;
                let below = |bound: u64| -> u64 {
                    // number of k in 1..=records_per_core with base + k*dt < bound
                    if bound <= base {
                        return 0;
                    }
                    ((bound - base - 1) / self.dt_ns).min(self.records_per_core as u64)
                };
                count += below(hi) - below(lo);
            }
        }
        count
    }
}

/// The generated input: encoded records per core, with pass-0 timestamps.
pub struct Generated {
    pub spec: LoadSpec,
    pub per_core: Vec<Vec<u8>>,
}

const SOURCES: [DataSource; 5] = [
    DataSource::L1,
    DataSource::L2,
    DataSource::Slc,
    DataSource::Dram(0),
    DataSource::RemoteDram(1),
];

/// Generate and encode the records: address, latency, data source and the
/// load/store mix all come from `seed`.
pub fn generate(spec: LoadSpec, seed: u64) -> Generated {
    let mut per_core = Vec::with_capacity(spec.cores);
    for core in 0..spec.cores {
        let mut rng = SplitMix64(seed ^ (core as u64).wrapping_mul(0xa076_1d64_78bd_642f));
        let mut bytes = Vec::with_capacity(spec.records_per_core * SPE_RECORD_BYTES);
        for index in 0..spec.records_per_core {
            let r = rng.next();
            let line = r % VADDR_LINES;
            let source = SOURCES[((r >> 16) % SOURCES.len() as u64) as usize];
            let record = SpeRecord::new(
                0x40_1000 + ((r >> 24) % 97) * 4,
                VADDR_BASE + line * 64,
                spec.time_ns(core, 0, index),
                40 + (r >> 32) % 900,
                if (r >> 48).is_multiple_of(3) { OpKind::Store } else { OpKind::Load },
                source,
            );
            bytes.extend_from_slice(&record.encode());
        }
        per_core.push(bytes);
    }
    Generated { spec, per_core }
}

/// Host time at which each `(core, window)` batch left the drain, for the
/// delivery-lag probe. A fixed ring of atomics: the bus holds at most its
/// capacity in batches, far fewer windows per core than `RING`.
pub struct LagTable {
    slots: Vec<AtomicU64>,
}

const LAG_RING: usize = 4096;

impl LagTable {
    pub fn new(cores: usize) -> LagTable {
        LagTable { slots: (0..cores * LAG_RING).map(|_| AtomicU64::new(0)).collect() }
    }

    fn slot(&self, core: usize, window: u64) -> Option<&AtomicU64> {
        self.slots.get(core * LAG_RING + (window as usize % LAG_RING))
    }

    fn stamp(&self, core: usize, window: u64, now_ns: u64) {
        if let Some(slot) = self.slot(core, window) {
            // Release pairs with the Acquire in `emitted_at`; the batch
            // itself travels through the bus lane's mutex.
            slot.store(now_ns, Ordering::Release);
        }
    }

    fn emitted_at(&self, core: usize, window: u64) -> Option<u64> {
        self.slot(core, window).map(|s| s.load(Ordering::Acquire)).filter(|&t| t != 0)
    }
}

/// What the harness and the backend's drain paths share.
pub struct LoadShared {
    data: Arc<Generated>,
    /// `data.spec` with this run's pass count.
    spec: LoadSpec,
    tracer: Arc<Tracer>,
    lag: Option<Arc<LagTable>>,
    /// Drain workers that still have records left; the one that brings it to
    /// zero reports exhaustion.
    busy_drainers: AtomicU64,
    exhausted: SyncSender<()>,
    pub emitted: AtomicU64,
    /// Host ns inside `drain` calls, and the part of it spent in the
    /// per-record decode loop (program code and its mirror).
    pub drain_ns: AtomicU64,
    pub decode_ns: AtomicU64,
}

struct CoreCursor {
    core: usize,
    pass: u64,
    index: usize,
}

/// The synthetic backend. Register with
/// `.no_default_backends().backend(..)`; wait on the receiver returned by
/// [`SyntheticBackend::new`] for the load to run dry, then `finish()`.
pub struct SyntheticBackend {
    shared: Arc<LoadShared>,
    cursors: Vec<CoreCursor>,
}

impl SyntheticBackend {
    /// A backend that replays `data` for `passes` passes.
    pub fn new(
        data: Arc<Generated>,
        passes: u64,
        tracer: Arc<Tracer>,
        lag: Option<Arc<LagTable>>,
    ) -> (SyntheticBackend, Arc<LoadShared>, Receiver<()>) {
        let (exhausted, on_exhausted) = sync_channel(1);
        let spec = LoadSpec { passes, ..data.spec };
        let cursors = (0..spec.cores).map(|core| CoreCursor { core, pass: 0, index: 0 }).collect();
        let shared = Arc::new(LoadShared {
            data,
            spec,
            tracer,
            lag,
            busy_drainers: AtomicU64::new(1),
            exhausted,
            emitted: AtomicU64::new(0),
            drain_ns: AtomicU64::new(0),
            decode_ns: AtomicU64::new(0),
        });
        (SyntheticBackend { shared: shared.clone(), cursors }, shared, on_exhausted)
    }
}

/// Drain `data` once through, outside any session, handing each batch to
/// `each` (microbenchmarks: the drain on its own, and ready-made batches).
pub fn drain_offline(
    data: &Arc<Generated>,
    window_ns: u64,
    pool: &BatchPool,
    mut each: impl FnMut(SampleBatch),
) {
    let quiet = Arc::new(Tracer::new(false));
    let (mut backend, shared, _exhausted) = SyntheticBackend::new(data.clone(), 1, quiet, None);
    let clock = WindowClock::new(window_ns);
    while backend.cursors.iter().any(|c| c.pass < 1) {
        drain_cores(&shared, &mut backend.cursors, &clock, pool).into_iter().for_each(&mut each);
    }
}

/// Hand every cursor's next `DRAIN_CHUNK` records to the session as
/// window-stamped batches (one batch per core and window, as the SPE
/// backend's per-core stores produce them).
fn drain_cores(
    shared: &LoadShared,
    cursors: &mut [CoreCursor],
    clock: &WindowClock,
    pool: &BatchPool,
) -> Vec<SampleBatch> {
    let _span = shared.tracer.span("backend.drain");
    let started = Instant::now();
    let spec = shared.spec;
    let mut decode_ns = 0u64;
    let mut emitted = 0u64;
    let mut batches = Vec::new();
    let mut any_left = false;
    let was_busy = cursors.iter().any(|c| c.pass < spec.passes);
    for cursor in cursors.iter_mut() {
        if cursor.pass >= spec.passes {
            continue;
        }
        let core = cursor.core;
        let end = (cursor.index + DRAIN_CHUNK).min(spec.records_per_core);
        let chunk =
            &shared.data.per_core[core][cursor.index * SPE_RECORD_BYTES..end * SPE_RECORD_BYTES];
        let offset_ns = cursor.pass * spec.pass_span_ns();

        let decode_started = Instant::now();
        let first_batch = batches.len();
        let mut samples = pool.samples();
        let mut window = None;
        for rec in decode_records(chunk) {
            let time_ns = TimeConv::apply_mmap_triple(rec.ticks, 0, 0, 1) + offset_ns;
            let index = clock.index_of(time_ns);
            if window != Some(index) {
                if let Some(open) = window {
                    let full = std::mem::replace(&mut samples, pool.samples());
                    batches.push(spe_batch(core, clock, open, full));
                }
                window = Some(index);
            }
            let (is_store, latency, source) = match rec.full {
                Some(full) => (full.is_store, full.latency, full.source),
                None => (false, 0, DataSource::L1),
            };
            samples.push(AddressSample {
                time_ns,
                vaddr: rec.vaddr,
                core,
                is_store,
                latency,
                source,
            });
        }
        match window {
            Some(open) => batches.push(spe_batch(core, clock, open, samples)),
            None => pool.recycle_samples(samples),
        }
        decode_ns += decode_started.elapsed().as_nanos() as u64;

        emitted += batches[first_batch..].iter().map(|b| b.len() as u64).sum::<u64>();
        if let Some(lag) = &shared.lag {
            let now_ns = shared.tracer.now_ns();
            for batch in &batches[first_batch..] {
                lag.stamp(core, batch.window.index, now_ns);
            }
        }
        cursor.index = end;
        if cursor.index == spec.records_per_core {
            cursor.index = 0;
            cursor.pass += 1;
        }
        any_left |= cursor.pass < spec.passes;
    }
    shared.emitted.fetch_add(emitted, Ordering::SeqCst);
    shared.decode_ns.fetch_add(decode_ns, Ordering::SeqCst);
    shared.drain_ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::SeqCst);
    if was_busy && !any_left && shared.busy_drainers.fetch_sub(1, Ordering::SeqCst) == 1 {
        // The harness may already have given up waiting (a failed
        // repetition); a full or closed channel is fine.
        let _ = shared.exhausted.try_send(());
    }
    batches
}

fn spe_batch(
    core: usize,
    clock: &WindowClock,
    window: u64,
    samples: Vec<AddressSample>,
) -> SampleBatch {
    SampleBatch::new(
        "spe",
        Some(core),
        clock.window(window),
        BatchPayload::SpeSamples { samples, loss: Default::default() },
    )
}

impl SampleBackend for SyntheticBackend {
    fn name(&self) -> &'static str {
        "spe"
    }

    fn start(
        &mut self,
        _machine: &Machine,
        cores: &[usize],
        _config: &NmoConfig,
    ) -> Result<Vec<CoreObserver>, NmoError> {
        if cores.len() != self.shared.spec.cores {
            return Err(NmoError::backend(
                "spe",
                format!(
                    "synthetic load was generated for {} cores, session profiles {}",
                    self.shared.spec.cores,
                    cores.len()
                ),
            ));
        }
        // Nothing observes the simulated cores: the records are the load.
        Ok(Vec::new())
    }

    fn drain(
        &mut self,
        _machine: &Machine,
        clock: &WindowClock,
        pool: &BatchPool,
    ) -> Result<Vec<SampleBatch>, NmoError> {
        Ok(drain_cores(&self.shared, &mut self.cursors, clock, pool))
    }

    fn shard_drainers(&mut self, shards: usize) -> Vec<Box<dyn ShardDrainer>> {
        if shards <= 1 {
            return Vec::new();
        }
        let mut by_shard: Vec<Vec<CoreCursor>> = (0..shards).map(|_| Vec::new()).collect();
        for cursor in self.cursors.drain(..) {
            by_shard[cursor.core % shards].push(cursor);
        }
        self.shared.busy_drainers.store(shards as u64, Ordering::SeqCst);
        by_shard
            .into_iter()
            .enumerate()
            .map(|(shard, cursors)| {
                Box::new(SyntheticDrainer { shard, shared: self.shared.clone(), cursors })
                    as Box<dyn ShardDrainer>
            })
            .collect()
    }

    fn stream_sources(&self) -> Vec<StreamSource> {
        self.cursors.iter().map(|c| ("spe", Some(c.core))).collect()
    }

    fn stop(&mut self, _machine: &Machine) -> Result<(), NmoError> {
        Ok(())
    }

    fn fill(&mut self, profile: &mut Profile) -> Result<(), NmoError> {
        // The samples themselves went to the sinks; keeping a second copy of
        // millions of them in `Profile::samples` would only measure `Vec`.
        profile.processed_samples = self.shared.emitted.load(Ordering::SeqCst);
        Ok(())
    }
}

struct SyntheticDrainer {
    shard: usize,
    shared: Arc<LoadShared>,
    cursors: Vec<CoreCursor>,
}

impl ShardDrainer for SyntheticDrainer {
    fn shard(&self) -> usize {
        self.shard
    }

    fn drain(
        &mut self,
        _machine: &Machine,
        clock: &WindowClock,
        pool: &BatchPool,
    ) -> Result<Vec<SampleBatch>, NmoError> {
        Ok(drain_cores(&self.shared, &mut self.cursors, clock, pool))
    }

    fn sources(&self) -> Vec<StreamSource> {
        self.cursors.iter().map(|c| ("spe", Some(c.core))).collect()
    }
}

/// What the probe sink hands back to the harness.
#[derive(Default)]
pub struct ProbeReadout {
    pub batches: u64,
    pub samples: u64,
    /// Host µs from drain emission to `on_batch`, one entry per batch.
    pub lags_us: Vec<f64>,
}

/// One in this many `on_batch` calls of the probe is recorded as a span
/// (hundreds of thousands of per-batch spans would swamp the trace file).
const ON_BATCH_SPAN_EVERY: u64 = 256;

struct ProbeCore {
    tracer: Arc<Tracer>,
    lag: Arc<LagTable>,
    readout: ProbeReadout,
}

impl ProbeCore {
    fn on_batch(&mut self, batch: &SampleBatch) {
        let BatchPayload::SpeSamples { samples, .. } = batch.payload() else { return };
        let _span = self
            .readout
            .batches
            .is_multiple_of(ON_BATCH_SPAN_EVERY)
            .then(|| self.tracer.span("sink.on_batch"));
        self.readout.batches += 1;
        self.readout.samples += samples.len() as u64;
        if let Some(emitted) = batch.core.and_then(|c| self.lag.emitted_at(c, batch.window.index)) {
            let lag_ns = self.tracer.now_ns().saturating_sub(emitted);
            self.readout.lags_us.push(lag_ns as f64 / 1e3);
        }
    }

    fn merge(&mut self, other: ProbeReadout) {
        self.readout.batches += other.batches;
        self.readout.samples += other.samples;
        self.readout.lags_us.extend(other.lags_us);
    }
}

/// The benchmark-owned shardable probe sink of the traced run: counts what
/// reaches the sinks and measures how stale it is when it does.
pub struct ProbeSink {
    core: ProbeCore,
    out: Arc<Mutex<ProbeReadout>>,
}

impl ProbeSink {
    pub fn new(tracer: Arc<Tracer>, lag: Arc<LagTable>) -> (ProbeSink, Arc<Mutex<ProbeReadout>>) {
        let out = Arc::new(Mutex::named(ProbeReadout::default(), "bench.probe"));
        let core = ProbeCore { tracer, lag, readout: ProbeReadout::default() };
        (ProbeSink { core, out: out.clone() }, out)
    }
}

impl AnalysisSink for ProbeSink {
    fn name(&self) -> &'static str {
        "bench-probe"
    }

    fn analyze(&mut self, _m: &Machine, _p: &Profile) -> Result<AnalysisReport, NmoError> {
        Ok(AnalysisReport::Text(String::new()))
    }

    fn on_batch(&mut self, batch: &SampleBatch) {
        self.core.on_batch(batch);
    }

    fn finish(&mut self, _m: &Machine, _p: &Profile) -> Result<AnalysisReport, NmoError> {
        let readout = std::mem::take(&mut self.core.readout);
        let text = format!("probe: {} batches, {} samples", readout.batches, readout.samples);
        *self.out.lock() = readout;
        Ok(AnalysisReport::Text(text))
    }

    fn as_shardable(&mut self) -> Option<&mut dyn ShardableSink> {
        Some(self)
    }
}

impl SinkShard for ProbeCore {
    fn on_batch(&mut self, batch: &SampleBatch) {
        ProbeCore::on_batch(self, batch);
    }

    fn finish(self: Box<Self>) -> ShardState {
        Box::new(self.readout)
    }
}

impl ShardableSink for ProbeSink {
    fn make_shard(&mut self, _shard: usize, _ctx: &StreamContext) -> Box<dyn SinkShard> {
        Box::new(ProbeCore {
            tracer: self.core.tracer.clone(),
            lag: self.core.lag.clone(),
            readout: ProbeReadout::default(),
        })
    }

    fn merge_final(&mut self, states: Vec<ShardState>) {
        for state in states {
            let readout = state.downcast::<ProbeReadout>().expect("a ProbeCore state");
            self.core.merge(*readout);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: LoadSpec = LoadSpec { cores: 4, records_per_core: 700, passes: 3, dt_ns: 1_200 };

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let (a, b, c) = (generate(SPEC, 7), generate(SPEC, 7), generate(SPEC, 8));
        assert_eq!(a.per_core, b.per_core);
        assert_ne!(a.per_core, c.per_core);
        assert!(a.per_core.iter().all(|bytes| bytes.len() == 700 * SPE_RECORD_BYTES));
    }

    #[test]
    fn every_generated_record_decodes_fully() {
        let data = generate(SPEC, 42);
        for bytes in &data.per_core {
            let mut decoder = decode_records(bytes);
            assert!(decoder.by_ref().all(|r| r.full.is_some()));
            assert_eq!((decoder.decoded(), decoder.skipped()), (700, 0));
        }
    }

    #[test]
    fn window_prediction_matches_a_brute_force_count() {
        for (window_ns, first, last) in [(100_000, 0, 3), (100_000, 2, 9), (1_000_000, 0, 0)] {
            let mut brute = 0u64;
            for core in 0..SPEC.cores {
                for pass in 0..SPEC.passes {
                    for index in 0..SPEC.records_per_core {
                        let w = SPEC.time_ns(core, pass, index) / window_ns;
                        brute += u64::from((first..=last).contains(&w));
                    }
                }
            }
            assert_eq!(SPEC.samples_in_windows(window_ns, first, last), brute);
        }
        assert_eq!(SPEC.samples_in_windows(100_000, 0, u64::MAX / 200_000), SPEC.total_samples());
    }

    /// Drive the backend the way the pump does and count what comes out.
    fn drain_all(shards: usize) -> (u64, u64) {
        let data = Arc::new(generate(SPEC, 1));
        let tracer = Arc::new(Tracer::new(false));
        let (mut backend, shared, exhausted) =
            SyntheticBackend::new(data, SPEC.passes, tracer, None);
        let machine = Machine::new(arch_sim::MachineConfig::small_test());
        let clock = WindowClock::new(100_000);
        let pool = BatchPool::new(64);
        let mut drainers = backend.shard_drainers(shards);
        let mut delivered = 0u64;
        let mut last_time = [0u64; SPEC.cores];
        let mut take = |batches: Vec<SampleBatch>| {
            for batch in batches {
                let BatchPayload::SpeSamples { samples, .. } = batch.payload() else {
                    panic!("synthetic backend emits SpeSamples")
                };
                for s in samples {
                    assert!(batch.window.contains_ns(s.time_ns));
                    assert!(s.time_ns > last_time[s.core], "per-core time ascends");
                    last_time[s.core] = s.time_ns;
                }
                delivered += samples.len() as u64;
                pool.recycle_batch(batch);
            }
        };
        for _ in 0..64 {
            if drainers.is_empty() {
                take(backend.drain(&machine, &clock, &pool).unwrap());
            }
            for drainer in &mut drainers {
                take(drainer.drain(&machine, &clock, &pool).unwrap());
            }
        }
        assert!(exhausted.try_recv().is_ok(), "exhaustion is signalled exactly once");
        assert!(exhausted.try_recv().is_err());
        (shared.emitted.load(Ordering::SeqCst), delivered)
    }

    #[test]
    fn backend_conserves_samples_serial_and_sharded() {
        for shards in [1, 2] {
            let (emitted, delivered) = drain_all(shards);
            assert_eq!(emitted, SPEC.total_samples(), "{shards} shard(s)");
            assert_eq!(delivered, emitted, "{shards} shard(s)");
        }
    }
}
