//! Pluggable sample backends (the data-acquisition seam of the profiler).
//!
//! The paper's NMO tool is layered: ARM SPE sampling at the bottom, a
//! `perf_event` substrate in the middle, and the analysis levels on top. A
//! [`SampleBackend`] is the seam between the bottom two layers and the
//! session: it opens whatever per-core instruments it needs, hands the
//! session one [`arch_sim::OpObserver`] per core (composed with other
//! backends via [`arch_sim::FanoutObserver`] when several backends share a
//! core), and folds its results into the final [`Profile`].
//!
//! One backend ships with the crate: [`SpeBackend`], the paper's path — one
//! ARM SPE perf event per core and the 64-byte record decode of Section IV.
//! The paper's monitoring thread is *simulated* — what keeping up with the
//! aux buffer costs the profiled program is [`spe::OverheadModel`]'s drain
//! latency, per-byte drain time and interrupt cycles — so the backend runs no
//! host thread: the core that publishes a `PERF_RECORD_AUX` record decodes it
//! on the spot ([`spe::SpeDriver::set_publish_handler`]). The model hands aux
//! space back in simulated time whether or not a host reader has copied it; a
//! reader on a thread of its own was late whenever the host scheduled it
//! late, and returned later records' bytes in place of the ones it was sent
//! for. Read at publication, every record is read exactly once by
//! construction, and a synchronous drain is complete by construction.
//!
//! The `perf stat` side of the paper's accuracy methodology (Eq. 1) needs no
//! backend: the simulated machine counts every retired operation exactly,
//! and [`Profile::counters`] is that count.

use std::sync::Arc;

use parking_lot::Mutex;

use arch_sim::{DataSource, Machine, OpObserver, TimeConv};
use perf_sub::records::Record;
use perf_sub::PerfEvent;
use spe::packet::{decode_records, SPE_RECORD_BYTES};
use spe::{SpeDriver, SpeStats, SpeStatsSnapshot};

use crate::config::NmoConfig;
use crate::runtime::{AddressSample, Profile};
use crate::stream::{BatchPayload, BatchPool, SampleBatch, StreamSource, WindowClock};
use crate::NmoError;

/// One per-core observer produced by a backend, ready to attach.
pub struct CoreObserver {
    /// The core the observer belongs to.
    pub core: usize,
    /// The observer to install (alone or fanned out with other backends').
    pub observer: Box<dyn OpObserver>,
}

impl std::fmt::Debug for CoreObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreObserver").field("core", &self.core).finish()
    }
}

/// A pluggable source of profiling data for a session.
///
/// Lifecycle: [`SampleBackend::start`] before the workload runs (returning
/// the per-core observers), [`SampleBackend::stop`] after the workload
/// finishes and observers are detached, then [`SampleBackend::fill`] to fold
/// the backend's run-wide counts into the assembled [`Profile`].
///
/// In between, the session calls [`SampleBackend::drain`] — the pump threads
/// of a streaming session periodically while the workload runs and once more
/// after `stop`; a session without pipeline threads at every
/// [`crate::session::ActiveSession::tiering_step`] and once after `stop` —
/// turning whatever accumulated since the previous call into window-stamped
/// [`SampleBatch`]es. That is the only way data reaches the analysis sinks,
/// and the sinks' reports are all a [`Profile`] holds of it: a backend that
/// keeps the default no-op adds its counts in `fill` and nothing else.
pub trait SampleBackend: Send {
    /// Stable backend name (used in reports and error messages).
    fn name(&self) -> &'static str;

    /// Open per-core instruments for `cores` under `config` and return the
    /// observers to attach. A backend that is inactive under `config` (e.g.
    /// SPE with sampling disabled) returns an empty vector.
    fn start(
        &mut self,
        machine: &Machine,
        cores: &[usize],
        config: &NmoConfig,
    ) -> Result<Vec<CoreObserver>, NmoError>;

    /// Move everything collected since the previous call into
    /// window-stamped batches — what the sinks are fed, on every kind of
    /// session. An SPE batch is one core's samples in one window, stamped
    /// with that core ([`SampleBatch::core`]). `clock` supplies the window arithmetic and the producer
    /// watermark (use [`WindowClock::current`] for data without
    /// timestamps); `pool` supplies (and takes back) the batch buffers, so
    /// a steady-state drain allocates nothing. A sample handed out here is
    /// the sinks' from then on: the backend keeps no copy, and
    /// [`SampleBackend::fill`] adds only run-wide counts.
    fn drain(
        &mut self,
        _machine: &Machine,
        _clock: &WindowClock,
        _pool: &BatchPool,
    ) -> Result<Vec<SampleBatch>, NmoError> {
        Ok(Vec::new())
    }

    /// Split this backend's per-core drain work into independent workers,
    /// one per pipeline shard (core-hash partitioning: the worker for shard
    /// `s` covers the backend's cores with `core % shards == s`). Each
    /// worker runs on its own pump thread and drains only its disjoint core
    /// subset, so drains scale with core count.
    ///
    /// A backend that cannot shard (one with machine-wide instruments) keeps
    /// the default empty list; the session then calls its
    /// [`SampleBackend::drain`] from the coordinator pump worker instead.
    /// When workers are handed out, the session stops calling `drain` on the
    /// backend itself — the workers own the streaming side until
    /// [`SampleBackend::stop`].
    fn shard_drainers(&mut self, _shards: usize) -> Vec<Box<dyn ShardDrainer>> {
        Vec::new()
    }

    /// The timestamped batch producers this backend will feed once started
    /// (queried after [`SampleBackend::start`]). A window closes only once
    /// every declared source has delivered a sample past it, so a
    /// slow-starting producer's first delivery never lands in a closed
    /// window. There is no grace: a declared source that never produces
    /// holds every close until [`crate::session::ActiveSession::finish`]
    /// (cumulative sinks report the same; per-window ones see every window
    /// closed there). Backends whose batches carry no timestamps keep the
    /// default empty list.
    fn stream_sources(&self) -> Vec<StreamSource> {
        Vec::new()
    }

    /// Stop collection and drain any remaining data. Called after the
    /// session has detached this backend's observers from the cores.
    fn stop(&mut self, machine: &Machine) -> Result<(), NmoError>;

    /// Fold the backend's run-wide counts into `profile` (called after the
    /// last `drain`). Per-sample data belongs in [`SampleBackend::drain`]:
    /// a [`Profile`] holds what the registered sinks reported
    /// ([`Profile::analyses`]), and nothing here can reach a sink.
    fn fill(&mut self, profile: &mut Profile) -> Result<(), NmoError>;
}

/// One pump worker's slice of a backend's drain work: a disjoint core
/// subset drained in parallel with the other shards' workers (see
/// [`SampleBackend::shard_drainers`]).
pub trait ShardDrainer: Send {
    /// The pipeline shard this worker belongs to.
    fn shard(&self) -> usize;

    /// Drain everything this worker's cores collected since the previous
    /// call into window-stamped batches (same contract as
    /// [`SampleBackend::drain`], restricted to the worker's core subset).
    fn drain(
        &mut self,
        machine: &Machine,
        clock: &WindowClock,
        pool: &BatchPool,
    ) -> Result<Vec<SampleBatch>, NmoError>;

    /// The timestamped batch producers this worker feeds (the subset of the
    /// backend's [`SampleBackend::stream_sources`] it covers). Each holds
    /// every window close until it has delivered a sample past the window;
    /// one that never produces holds them until the session finishes.
    fn sources(&self) -> Vec<StreamSource>;
}

/// What one SPE core's publish handler has decoded and not yet handed out,
/// with its loss accounting. One store per core keeps the decode off a
/// single shared lock and lets per-shard drain workers collect disjoint core
/// subsets without contending; at any time one thread writes it (whoever
/// publishes for the core) and at most one drain takes from it.
#[derive(Debug, Default)]
struct SampleStore {
    samples: Vec<AddressSample>,
    processed: u64,
    skipped: u64,
    aux_records: u64,
    collision_flagged: u64,
    truncated_flagged: u64,
}

/// Everything the drains of one SPE core share with its publish handler.
/// Cloning shares the underlying instruments (the fields are `Arc`s).
#[derive(Clone)]
struct CoreSpe {
    core: usize,
    event: Arc<PerfEvent>,
    stats: Arc<SpeStats>,
    /// This core's decode target.
    store: Arc<Mutex<SampleStore>>,
}

/// The ARM SPE sampling backend (paper Section IV).
///
/// Opens one SPE perf event per profiled core (PMU type `0x2c`) with a ring
/// buffer of `(N+1)` pages and an aux buffer sized by `NMO_AUXBUFSIZE`, and
/// installs a publish handler on each core's driver that decodes each
/// 64-byte SPE record as its `PERF_RECORD_AUX` record is published
/// (validating the `0xb2`/`0x71` header bytes, reading the virtual address
/// at offset 31 and the timestamp at offset 56), converting timestamps to
/// the perf clock via the metadata-page triple. The backend has no thread of
/// its own: the paper's monitoring thread exists here only as simulated time
/// ([`spe::OverheadModel`]), and dropping the backend leaves nothing running.
#[derive(Default)]
pub struct SpeBackend {
    cores: Vec<CoreSpe>,
}

impl SpeBackend {
    /// Create an idle SPE backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl std::fmt::Debug for SpeBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpeBackend").field("cores", &self.cores.len()).finish()
    }
}

impl SampleBackend for SpeBackend {
    fn name(&self) -> &'static str {
        "spe"
    }

    fn start(
        &mut self,
        machine: &Machine,
        cores: &[usize],
        config: &NmoConfig,
    ) -> Result<Vec<CoreObserver>, NmoError> {
        if !config.spe_active() {
            return Ok(Vec::new());
        }
        let page_bytes = machine.config().page_bytes;
        let ring_pages = config.ring_pages(page_bytes);
        let aux_pages = config.aux_pages(page_bytes);
        let spe_cfg = config.spe_config();
        let mut observers = Vec::with_capacity(cores.len());
        for &core in cores {
            let (mut driver, event, stats) =
                SpeDriver::open_for(machine, core, spe_cfg, ring_pages, aux_pages, config.overhead)
                    .map_err(NmoError::Perf)?;
            let store = Arc::new(Mutex::named(SampleStore::default(), "spe.store.samples"));
            // The core that publishes an aux record decodes it, before any
            // later write can reach its bytes. One scratch buffer per core
            // serves every aux read.
            let (target, mut scratch) = (store.clone(), Vec::new());
            driver.set_publish_handler(Box::new(move |event| {
                drain_event(core, event, &target, &mut scratch)
            }));
            self.cores.push(CoreSpe { core, event, stats, store });
            observers.push(CoreObserver { core, observer: Box::new(driver) });
        }
        Ok(observers)
    }

    fn drain(
        &mut self,
        machine: &Machine,
        clock: &WindowClock,
        pool: &BatchPool,
    ) -> Result<Vec<SampleBatch>, NmoError> {
        Ok(drain_core_set(&self.cores, machine, clock, pool))
    }

    fn shard_drainers(&mut self, shards: usize) -> Vec<Box<dyn ShardDrainer>> {
        if self.cores.is_empty() || shards <= 1 {
            return Vec::new();
        }
        let mut by_shard: std::collections::BTreeMap<usize, Vec<CoreSpe>> =
            std::collections::BTreeMap::new();
        for c in &self.cores {
            by_shard.entry(c.core % shards).or_default().push(c.clone());
        }
        by_shard
            .into_iter()
            .map(|(shard, cores)| {
                Box::new(SpeShardDrainer { shard, cores }) as Box<dyn ShardDrainer>
            })
            .collect()
    }

    fn stream_sources(&self) -> Vec<StreamSource> {
        self.cores.iter().map(|c| ("spe", Some(c.core))).collect()
    }

    fn stop(&mut self, _machine: &Machine) -> Result<(), NmoError> {
        // Nothing is left to read: every record was decoded as it was
        // published, the last one when the core's engine detached.
        for c in &self.cores {
            c.event.close();
        }
        Ok(())
    }

    fn fill(&mut self, profile: &mut Profile) -> Result<(), NmoError> {
        // Counters only: the samples themselves went out through `drain`
        // (or the shard drain workers) and belong to the sinks.
        let mut per_core_spe = Vec::new();
        let mut merged = SpeStatsSnapshot::default();
        for c in &self.cores {
            let store = c.store.lock();
            profile.processed_samples += store.processed;
            profile.skipped_packets += store.skipped;
            profile.aux_records += store.aux_records;
            profile.collision_flagged_records += store.collision_flagged;
            profile.truncated_flagged_records += store.truncated_flagged;
            let snap = c.stats.snapshot();
            merged.merge(&snap);
            per_core_spe.push((c.core, snap));
        }
        profile.spe = merged;
        profile.per_core_spe = per_core_spe;
        Ok(())
    }
}

/// One pump worker's slice of the SPE backend: the cores whose index hashes
/// to its shard, drained in parallel with the other shards' workers.
struct SpeShardDrainer {
    shard: usize,
    cores: Vec<CoreSpe>,
}

impl ShardDrainer for SpeShardDrainer {
    fn shard(&self) -> usize {
        self.shard
    }

    fn drain(
        &mut self,
        machine: &Machine,
        clock: &WindowClock,
        pool: &BatchPool,
    ) -> Result<Vec<SampleBatch>, NmoError> {
        // Each batch names its own core, and every core of the subset
        // hashes to this worker's lane by construction.
        Ok(drain_core_set(&self.cores, machine, clock, pool))
    }

    fn sources(&self) -> Vec<StreamSource> {
        self.cores.iter().map(|c| ("spe", Some(c.core))).collect()
    }
}

/// Drain a core subset: flush each core's driver (its publish handler has
/// decoded the flushed data into the store by the time the flush returns; a
/// core an engine holds cannot be flushed and hands out what its watermarks
/// published), take the store, and split it — already in time order — at
/// window boundaries into one batch per core and window. The oldest window's
/// run keeps the store's buffer, so a drain inside one window copies no
/// sample. Batches come out window-major and core-minor, so a sink sees the
/// samples of one window core by core. Once this returns, every record the
/// subset published so far has been handed out — the completeness
/// `ActiveSession::tiering_step`'s determinism rests on. A drain that finds
/// no new sample returns no batch: SPE loss is a run total, read at `fill`.
/// Buffers come from `pool`.
fn drain_core_set(
    cores: &[CoreSpe],
    machine: &Machine,
    clock: &WindowClock,
    pool: &BatchPool,
) -> Vec<SampleBatch> {
    let mut batches = Vec::new();
    for c in cores {
        let _ = machine.flush_observer(c.core);
        let mut samples = {
            let mut store = c.store.lock();
            if store.samples.is_empty() {
                continue;
            }
            std::mem::replace(&mut store.samples, pool.samples())
        };
        // Split the newest window's run off until one window is left.
        while let Some(last) = samples.last() {
            let window = clock.window_containing(last.time_ns);
            let older = samples.partition_point(|s| s.time_ns < window.start_ns);
            let run = if older == 0 {
                std::mem::take(&mut samples)
            } else {
                let mut run = pool.samples();
                run.extend_from_slice(&samples[older..]);
                samples.truncate(older);
                run
            };
            let payload =
                BatchPayload::SpeSamples { samples: run, loss: SpeStatsSnapshot::default() };
            batches.push(SampleBatch::new("spe", Some(c.core), window, payload));
        }
    }
    // Stable, so within a window the cores keep their order (a core's own
    // runs went in newest first).
    batches.sort_by_key(|b| b.window.index);
    batches
}

/// The publish handler's body: read every pending ring-buffer record of one
/// event, decoding aux data into the core's sample store. `scratch` is the
/// handler's reusable aux read buffer (see
/// [`perf_sub::AuxBuffer::read_into`]) — the decode loop allocates nothing
/// beyond sample-store growth.
fn drain_event(core: usize, event: &PerfEvent, store: &Mutex<SampleStore>, scratch: &mut Vec<u8>) {
    let (time_zero, time_shift, time_mult) = event.meta().clock();
    let mut store = store.lock();
    for record in event.drain() {
        let aux = match record {
            Record::Aux(a) => a,
            Record::ItraceStart(_) | Record::Lost(_) => continue,
        };
        store.aux_records += 1;
        store.collision_flagged += u64::from(aux.collision());
        store.truncated_flagged += u64::from(aux.truncated());
        let Some(aux_buf) = event.aux() else { continue };
        aux_buf.read_into(aux.aux_offset, aux.aux_size, scratch);
        // The incremental NMO decode: validate the 0xb2 / 0x71 header bytes,
        // read the 64-bit address and timestamp, count everything else as
        // skipped.
        let mut decoder = decode_records(scratch);
        store.samples.reserve(scratch.len() / SPE_RECORD_BYTES);
        let before = store.samples.len();
        for rec in decoder.by_ref() {
            let time_ns = TimeConv::apply_mmap_triple(rec.ticks, time_zero, time_shift, time_mult);
            // Opportunistic full decode for the richer fields.
            let (is_store, latency, source) = match rec.full {
                Some(full) => (full.is_store, full.latency, full.source),
                None => (false, 0, DataSource::L1),
            };
            store.samples.push(AddressSample {
                time_ns,
                vaddr: rec.vaddr,
                core,
                is_store,
                latency,
                source,
            });
        }
        store.processed += (store.samples.len() - before) as u64;
        store.skipped += decoder.skipped();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arch_sim::MachineConfig;

    fn machine() -> Machine {
        Machine::new(MachineConfig::small_test())
    }

    #[test]
    fn spe_backend_inactive_without_sampling_config() {
        let machine = machine();
        let mut backend = SpeBackend::new();
        let observers = backend.start(&machine, &[0, 1], &NmoConfig::default()).unwrap();
        assert!(observers.is_empty());
        backend.stop(&machine).unwrap();
    }

    #[test]
    fn spe_backend_collects_samples_end_to_end() {
        let machine = machine();
        let config = NmoConfig::paper_default(100);
        let mut backend = SpeBackend::new();
        let observers = backend.start(&machine, &[0], &config).unwrap();
        assert_eq!(observers.len(), 1);
        for co in observers {
            machine.set_observer(co.core, co.observer).unwrap();
        }
        let region = machine.alloc("data", 1 << 20).unwrap();
        {
            let mut e = machine.attach(0).unwrap();
            for i in 0..50_000u64 {
                e.load(region.start + (i % 10_000) * 8, 8);
            }
        }
        let _ = machine.take_observer(0).unwrap();
        backend.stop(&machine).unwrap();
        let mut profile = Profile::empty("t", config);
        backend.fill(&mut profile).unwrap();
        assert!(profile.processed_samples > 100, "{}", profile.processed_samples);
        // Never drained, so the core's store still holds every decoded sample.
        let stored = backend.cores[0].store.lock().samples.len() as u64;
        assert_eq!(stored, profile.processed_samples);
        assert!(profile.spe.records_written >= profile.processed_samples);
    }

    /// Nothing reads late: the moment the engine detaches — no `drain`, no
    /// `stop` — the core's store holds every record the driver wrote.
    #[test]
    fn store_is_complete_as_soon_as_the_engine_detaches() {
        let machine = machine();
        // A 256-record buffer whose space is handed back ten cycles after it
        // is published: each record's bytes are soon overwritten.
        let overhead = spe::OverheadModel {
            drain_service_latency_cycles: 10,
            drain_cycles_per_byte: 0.1,
            ..spe::OverheadModel::default()
        };
        let config = NmoConfig { auxbuf_bytes: 4 * 4096, overhead, ..NmoConfig::paper_default(3) };
        let mut backend = SpeBackend::new();
        for co in backend.start(&machine, &[0], &config).unwrap() {
            machine.set_observer(co.core, co.observer).unwrap();
        }
        let region = machine.alloc("data", 1 << 20).unwrap();
        {
            let mut e = machine.attach(0).unwrap();
            for i in 0..30_000u64 {
                e.load(region.start + i * 8, 8);
            }
        }
        let written = backend.cores[0].stats.snapshot().records_written;
        assert!(written > 1_000, "{written}");
        let store = backend.cores[0].store.lock();
        assert_eq!(
            (store.samples.len() as u64, store.processed, store.skipped),
            (written, written, 0)
        );
        assert!(store.aux_records > 1, "{}", store.aux_records);
        assert!(store.samples.windows(2).all(|w| w[0].time_ns <= w[1].time_ns));
    }

    /// A drain is one batch per core and window, window-major and
    /// core-minor — the sample sequence a per-window regroup of the core
    /// set's stores gives — and a store inside one window is handed on as it
    /// is, buffer and all.
    #[test]
    fn a_drain_is_one_batch_per_core_and_window() {
        let machine = machine();
        let mut backend = SpeBackend::new();
        backend.start(&machine, &[0, 1], &NmoConfig::paper_default(100)).unwrap();
        let sample = |core, time_ns| AddressSample {
            time_ns,
            vaddr: 0x1000 + time_ns,
            core,
            is_store: false,
            latency: 1,
            source: DataSource::L1,
        };
        // Core 0 spans windows 0, 2 and 3; core 1 stays inside window 2.
        let stores = [
            vec![
                sample(0, 10),
                sample(0, 999),
                sample(0, 2_000),
                sample(0, 3_500),
                sample(0, 3_999),
            ],
            vec![sample(1, 2_100), sample(1, 2_900)],
        ];
        for (c, samples) in backend.cores.iter().zip(stores.clone()) {
            c.store.lock().samples = samples;
        }
        let one_window = backend.cores[1].store.lock().samples.as_ptr();

        let batches =
            backend.drain(&machine, &WindowClock::new(1_000), &BatchPool::new(8)).unwrap();
        let shape: Vec<_> = batches.iter().map(|b| (b.window.index, b.core, b.len())).collect();
        assert_eq!(shape, [(0, Some(0), 2), (2, Some(0), 1), (2, Some(1), 2), (3, Some(0), 2)]);
        let delivered: Vec<&[AddressSample]> = batches
            .iter()
            .map(|b| match b.payload() {
                BatchPayload::SpeSamples { samples, .. } => &samples[..],
                _ => panic!("spe backend emits SpeSamples payloads"),
            })
            .collect();
        let mut regrouped = stores.concat();
        regrouped.sort_by_key(|s| s.time_ns / 1_000);
        assert_eq!(delivered.concat(), regrouped);
        assert_eq!(delivered[2].as_ptr(), one_window, "no copy inside one window");
    }

    #[test]
    fn spe_drain_hands_every_sample_out_once_and_fill_adds_the_counts() {
        let machine = machine();
        let config = NmoConfig::paper_default(100);
        let mut backend = SpeBackend::new();
        let observers = backend.start(&machine, &[0], &config).unwrap();
        for co in observers {
            machine.set_observer(co.core, co.observer).unwrap();
        }
        let clock = crate::stream::WindowClock::new(1_000);
        let pool = BatchPool::new(8);
        let region = machine.alloc("data", 1 << 20).unwrap();
        {
            let mut e = machine.attach(0).unwrap();
            for i in 0..50_000u64 {
                e.load(region.start + (i % 10_000) * 8, 8);
            }
        }
        let _ = machine.take_observer(0).unwrap();

        // Mid-run drain: batches are window-stamped and every one carries
        // samples.
        let batches = backend.drain(&machine, &clock, &pool).unwrap();
        assert!(!batches.is_empty());
        let mut streamed = 0u64;
        let mut last_window = None;
        for b in &batches {
            assert_eq!((b.backend, b.core), ("spe", Some(0)));
            if let BatchPayload::SpeSamples { samples, .. } = b.payload() {
                assert!(!samples.is_empty(), "every batch carries samples");
                streamed += samples.len() as u64;
                assert!(samples.iter().all(|s| b.window.contains_ns(s.time_ns)));
            } else {
                panic!("spe backend emits SpeSamples payloads");
            }
            if let Some(prev) = last_window {
                assert!(b.window.index > prev, "batches ascend by window");
            }
            last_window = Some(b.window.index);
        }
        assert!(streamed > 0);

        // A second drain with no new data is empty: the backend kept nothing.
        assert!(backend.drain(&machine, &clock, &pool).unwrap().is_empty());
        assert!(backend.cores[0].store.lock().samples.is_empty());

        // fill() adds the run's counts; what was drained is all of it.
        backend.stop(&machine).unwrap();
        let mut profile = Profile::empty("t", config);
        backend.fill(&mut profile).unwrap();
        assert_eq!(profile.processed_samples, streamed);
        assert!(profile.samples().is_none(), "a profile holds sink reports, and no sink ran");
    }
}
