//! # workloads — the HPC and Cloud benchmarks used in the paper's evaluation
//!
//! The paper evaluates NMO on five applications (Section V):
//!
//! * **STREAM** (Triad kernel) — sustainable memory bandwidth;
//! * **CFD** (Rodinia) — an unstructured-grid finite-volume Euler solver;
//! * **BFS** (Rodinia) — breadth-first search on a graph;
//! * **Page Rank** (CloudSuite Graph Analytics) — vertex influence;
//! * **In-memory Analytics** (CloudSuite) — ALS collaborative filtering on
//!   user–movie ratings.
//!
//! Each is re-implemented here as a real multi-threaded Rust program whose
//! computation runs on host memory while every load/store is routed through
//! the simulated machine (`arch_sim::Engine`), so SPE sampling, bandwidth
//! counting, and RSS tracking see the same access *shape* the original codes
//! produce: STREAM's perfectly regular per-thread streams, CFD's partly
//! regular / partly indirect neighbour gathers, BFS's frontier-driven
//! irregular traversal, PageRank's pull-style gathers after a bulk load
//! phase, and ALS's periodic sweeps over factor matrices.
//!
//! All workloads implement the [`Workload`] trait so the benchmark harness
//! can run any of them under the NMO profiler with arbitrary thread counts.

#![warn(missing_docs)]
// Stdout belongs to the binaries; library code returns data or warns on stderr.
// A failure correct use can meet is a `Result`; an `expect` on a broken internal
// condition carries its own `#[allow(clippy::expect_used, reason = "…")]`.
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::unwrap_used, clippy::expect_used))]

pub mod bfs;
pub mod cfd;
pub mod generators;
pub mod inmem;
pub mod pagerank;
pub mod stream;

pub use bfs::BfsBench;
pub use cfd::CfdBench;
pub use inmem::InMemAnalytics;
pub use pagerank::PageRank;
pub use stream::StreamBench;

use arch_sim::Machine;
use nmo::NmoError;

/// The workload contract (defined in `nmo` so profiling sessions can drive
/// any benchmark without a dependency cycle; re-exported here for
/// convenience).
pub use nmo::workload::{Workload, WorkloadReport};

/// Synthetic program-counter bases per workload kernel (used so SPE samples
/// can be attributed to code regions).
pub mod pc {
    /// STREAM triad kernel.
    pub const STREAM_TRIAD: u64 = 0x40_1000;
    /// STREAM copy kernel.
    pub const STREAM_COPY: u64 = 0x40_1100;
    /// STREAM scale kernel.
    pub const STREAM_SCALE: u64 = 0x40_1200;
    /// STREAM add kernel.
    pub const STREAM_ADD: u64 = 0x40_1300;
    /// CFD flux computation.
    pub const CFD_FLUX: u64 = 0x40_2000;
    /// CFD time-step update.
    pub const CFD_TIME_STEP: u64 = 0x40_2100;
    /// BFS frontier expansion.
    pub const BFS_EXPAND: u64 = 0x40_3000;
    /// PageRank gather.
    pub const PR_GATHER: u64 = 0x40_4000;
    /// PageRank graph load.
    pub const PR_LOAD: u64 = 0x40_4100;
    /// ALS user-factor update.
    pub const ALS_USER: u64 = 0x40_5000;
    /// ALS item-factor update.
    pub const ALS_ITEM: u64 = 0x40_5100;
}

/// Run `body` once per core on its own thread, each with an attached engine.
///
/// The OpenMP-`parallel for`-style helper every workload uses: thread `i` is
/// bound to `cores[i]` and receives `(i, &mut Engine)`. It is
/// [`parallel_chunks`] over one item per core.
pub fn parallel_on_cores<F>(machine: &Machine, cores: &[usize], body: F) -> Result<(), NmoError>
where
    F: Fn(usize, &mut arch_sim::Engine<'_>) + Sync,
{
    parallel_chunks(machine, cores, cores.len(), &mut [(); 0], |items, _, engine| {
        body(items.start, engine)
    })
}

/// Split `n` items across `cores` by OpenMP static scheduling and run each
/// part on its own thread with an attached engine.
///
/// Thread `i` is bound to `cores[i]` and receives its items
/// `chunk_range(n, cores.len(), i)`, its own part of `out` (`out.len() / n`
/// entries per item, so the part's first entry belongs to the range's first
/// item) and `&mut Engine`. What a body writes is its part of `out`; what it
/// reads it borrows as `&[T]`. A pass that writes no host array passes
/// `&mut [(); 0]`. The cores take turns in simulated time
/// ([`Machine::gang_begin`]), so the order in which the threads run, and
/// every simulated result, follow the simulated clocks and not the host's
/// scheduling. A core that cannot be attached (out of range, or checked out
/// by another engine) is reported as an [`NmoError`] after the remaining
/// threads finish, instead of panicking inside the worker thread; its items
/// are not run. So are those of a core named a second time
/// ([`arch_sim::SimError::CoreBusy`]).
///
/// # Panics
///
/// If `out.len()` is not a multiple of `n` (or, for `n == 0`, not empty).
pub fn parallel_chunks<T, F>(
    machine: &Machine,
    cores: &[usize],
    n: usize,
    out: &mut [T],
    body: F,
) -> Result<(), NmoError>
where
    T: Send,
    F: Fn(std::ops::Range<usize>, &mut [T], &mut arch_sim::Engine<'_>) + Sync,
{
    let stride = out.len().checked_div(n).unwrap_or(0);
    assert_eq!(stride * n, out.len(), "{} entries do not split into {n} items", out.len());
    let failures = parking_lot::Mutex::named(Vec::new(), "workloads.failures");
    machine.gang_begin(cores);
    std::thread::scope(|s| {
        let mut rest = out;
        for (idx, &core) in cores.iter().enumerate() {
            let items = chunk_range(n, cores.len(), idx);
            let (part, tail) = std::mem::take(&mut rest).split_at_mut(items.len() * stride);
            rest = tail;
            let (body, failures) = (&body, &failures);
            // Decided here, not by whether the first part has finished by
            // the time this one's thread attaches.
            if cores[..idx].contains(&core) {
                failures.lock().push(arch_sim::SimError::CoreBusy(core));
                continue;
            }
            s.spawn(move || match machine.attach(core) {
                Ok(mut engine) => body(items, part, &mut engine),
                Err(e) => failures.lock().push(e),
            });
        }
    });
    let mut failures = failures.into_inner();
    match failures.pop() {
        Some(e) => Err(e.into()),
        None => Ok(()),
    }
}

/// Parse an environment variable, falling back to `default` when unset or
/// unparseable — the tuning-knob helper the examples share.
pub fn env_or<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key).ok().and_then(|v| v.trim().parse().ok()).unwrap_or(default)
}

/// Split `n` items into `parts` contiguous ranges, mirroring OpenMP static
/// scheduling: the first `n % parts` parts get one item more than the rest
/// (10 items in 4 parts are 3, 3, 2, 2).
pub fn chunk_range(n: usize, parts: usize, part: usize) -> std::ops::Range<usize> {
    let parts = parts.max(1);
    let base = n / parts;
    let rem = n % parts;
    let start = part * base + part.min(rem);
    let len = base + usize::from(part < rem);
    start..(start + len).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arch_sim::MachineConfig;

    #[test]
    fn chunk_range_covers_everything_exactly_once() {
        for n in [0usize, 1, 7, 100, 1023] {
            for parts in [1usize, 2, 3, 8] {
                let mut covered = vec![false; n];
                for p in 0..parts {
                    for i in chunk_range(n, parts, p) {
                        assert!(!covered[i], "index {i} covered twice");
                        covered[i] = true;
                    }
                }
                assert!(covered.into_iter().all(|c| c), "n={n} parts={parts}");
            }
        }
    }

    #[test]
    fn chunk_range_is_balanced() {
        let sizes: Vec<usize> = (0..8).map(|p| chunk_range(100, 8, p).len()).collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn parallel_on_cores_attaches_each_core_once() {
        let machine = Machine::new(MachineConfig::small_test());
        let region = machine.alloc("x", 1 << 16).unwrap();
        parallel_on_cores(&machine, &[0, 1, 2], |idx, engine| {
            assert_eq!(engine.core_id(), idx);
            engine.load(region.start + idx as u64 * 64, 8);
        })
        .unwrap();
        assert_eq!(machine.counters().mem_access, 3);
    }

    /// Core `i` gets exactly `chunk_range(n, cores, i)` and exactly that
    /// range's entries of `out`: each core writes its index into its part,
    /// and every entry ends up written once, by the core owning its item.
    #[test]
    fn parallel_chunks_hands_each_core_its_range_and_its_part() {
        let machine = Machine::new(MachineConfig::small_test());
        let cores = [0, 1, 2, 3];
        for n in [0usize, 3, 10] {
            for stride in [1usize, 3] {
                let mut out = vec![usize::MAX; n * stride];
                let ranges = parking_lot::Mutex::named(vec![None; cores.len()], "test.ranges");
                parallel_chunks(&machine, &cores, n, &mut out, |items, part, engine| {
                    let idx = engine.core_id();
                    assert_eq!(part.len(), items.len() * stride);
                    part.fill(idx);
                    ranges.lock()[idx] = Some(items);
                })
                .unwrap();
                let ranges = ranges.into_inner();
                for (idx, items) in ranges.into_iter().enumerate() {
                    assert_eq!(items, Some(chunk_range(n, cores.len(), idx)), "n={n} core {idx}");
                }
                let owner = |j: usize| {
                    (0..cores.len()).find(|&i| chunk_range(n, cores.len(), i).contains(&j))
                };
                for (e, &written) in out.iter().enumerate() {
                    assert_eq!(Some(written), owner(e / stride), "n={n} stride={stride} entry {e}");
                }
            }
        }
    }

    /// Two instances share one generated graph; running the first to
    /// completion must leave the second exactly what a fresh process gets.
    #[test]
    fn a_shared_graph_stays_read_only() {
        fn run(workload: &mut dyn Workload) -> arch_sim::MachineCounters {
            let machine = Machine::new(MachineConfig::small_test());
            let ann = nmo::Annotations::new();
            workload.setup(&machine, &ann).unwrap();
            workload.run(&machine, &ann, &[0]).unwrap();
            assert!(workload.verify());
            machine.counters()
        }
        let (mut first, mut second) = (PageRank::new(1 << 12, 8, 2), PageRank::new(1 << 12, 8, 2));
        assert_eq!(run(&mut first), run(&mut second));
        assert_eq!(first.ranks(), second.ranks());

        let kind = bfs::GraphKind::Uniform;
        let (mut first, mut second) =
            (BfsBench::new(1 << 12, 6, kind), BfsBench::new(1 << 12, 6, kind));
        assert_eq!(run(&mut first), run(&mut second));
        assert_eq!(first.levels(), second.levels());
    }

    #[test]
    fn parallel_on_cores_reports_unattachable_cores() {
        let machine = Machine::new(MachineConfig::small_test());
        let err = parallel_on_cores(&machine, &[0, 99], |_idx, _engine| {}).unwrap_err();
        assert!(matches!(err, nmo::NmoError::Sim(arch_sim::SimError::NoSuchCore(99))), "{err}");
        // A core attached elsewhere takes no turns, so the others run.
        let busy = machine.attach(1).unwrap();
        let region = machine.alloc("x", 1 << 16).unwrap();
        let err = parallel_on_cores(&machine, &[0, 1, 2], |_idx, engine| {
            engine.load(region.start, 8);
        })
        .unwrap_err();
        assert!(matches!(err, nmo::NmoError::Sim(arch_sim::SimError::CoreBusy(1))), "{err}");
        drop(busy);
        assert_eq!(machine.counters().mem_access, 2);
        // A core named twice runs once, in its turns; the second attach finds
        // it busy and leaves the gang to the engine that holds it.
        let err = parallel_on_cores(&machine, &[0, 0, 1], |_idx, engine| {
            engine.load(region.start, 8);
        })
        .unwrap_err();
        assert!(matches!(err, nmo::NmoError::Sim(arch_sim::SimError::CoreBusy(0))), "{err}");
        assert_eq!(machine.counters().mem_access, 4);
    }

    /// A core whose body panics while it holds the turn hands it on as its
    /// engine unwinds, so the other cores finish and the panic reaches the
    /// caller.
    #[test]
    fn a_panicking_core_does_not_stall_the_others() {
        let machine = Machine::new(MachineConfig::small_test());
        let region = machine.alloc("x", 1 << 20).unwrap();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_on_cores(&machine, &[0, 1], |idx, engine| {
                for i in 0..1_000u64 {
                    engine.load(region.start + ((idx as u64) << 19) + i * 64, 8);
                    assert!(idx == 1 || i < 10, "core 0 stops here");
                }
            })
        }));
        assert!(run.is_err());
        assert_eq!(machine.counters().mem_access, 1_011);
    }

    /// What the shared level's one lock is for: four profiled cores stream
    /// through a tiered machine in their turns while another thread migrates
    /// pages meanwhile, as a streaming `HotPageTracker` does from its
    /// consumer thread. The nodes' traffic is exactly the cores' bus bytes
    /// plus the migrated pages, and every RSS event is one consistent
    /// reading.
    #[test]
    fn a_migrating_thread_beside_a_four_core_stream_loses_no_traffic() {
        use std::sync::atomic::{AtomicBool, Ordering};
        const N: u64 = 1 << 15; // 256 KiB an array: eight times the SLC
        const MOVES: u64 = 256; // more than the three arrays' 192 pages
        let session = nmo::ProfileSession::builder()
            .machine_config(MachineConfig::small_test_tiered(arch_sim::PlacementPolicy::Interleave))
            .config(nmo::NmoConfig::paper_default(64))
            .threads(4)
            .build()
            .unwrap();
        let active = session.start().unwrap();
        let machine = active.machine();
        let page_bytes = machine.config().page_bytes;
        let pages = N * 8 / page_bytes;
        let arrays = ["a", "b", "c"].map(|name| machine.alloc(name, N * 8).unwrap());
        let (started, done) = (AtomicBool::new(false), AtomicBool::new(false));
        let moved_during_pass = std::thread::scope(|s| {
            // A fixed number of moves, yielding between tries. A page the
            // pass has not touched yet does not move, so the first moves
            // land while the cores run.
            let migrator = s.spawn(|| {
                started.store(true, Ordering::Release);
                let (mut tries, mut moved, mut during_pass) = (0u64, 0u64, 0u64);
                while moved < MOVES {
                    let page = arrays[tries as usize % 3].start + tries * 7 % pages * page_bytes;
                    tries += 1;
                    // To the other node: a touched page always moves.
                    if let Some(home) = machine.node_of(page) {
                        machine.migrate_page(page, 1 - home, tries * 100).unwrap().unwrap();
                        moved += 1;
                        during_pass += u64::from(!done.load(Ordering::Acquire));
                    }
                    std::thread::yield_now();
                }
                during_pass
            });
            while !started.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let [a, b, c] = arrays.each_ref().map(|r| r.start);
            parallel_on_cores(machine, active.cores(), |idx, engine| {
                for i in chunk_range(N as usize, 4, idx) {
                    let at = i as u64 * 8;
                    engine.load(a + at, 8);
                    engine.load(b + at, 8);
                    engine.store(c + at, 8);
                }
            })
            .unwrap();
            done.store(true, Ordering::Release);
            migrator.join().unwrap()
        });
        assert!(moved_during_pass > 0, "no move landed while the cores ran");

        let (counters, stats, traffic) =
            (machine.counters(), machine.migration_stats(), machine.node_traffic());
        assert_eq!(counters.mem_access, 3 * N);
        assert_eq!(stats.migrations, MOVES, "{stats:?}");
        let migrated = stats.bus_bytes / 2;
        let sum = |field: fn(&arch_sim::NodeTraffic) -> u64| traffic.iter().map(field).sum::<u64>();
        assert_eq!(sum(|t| t.read_bytes), counters.bus_read_bytes + migrated);
        assert_eq!(sum(|t| t.write_bytes), counters.bus_write_bytes + migrated);
        assert_eq!(sum(|t| t.accesses), counters.dram_accesses + 2 * stats.migrations);
        let events = machine.rss_series();
        assert_eq!(
            events.len() as u64,
            3 * pages + stats.migrations,
            "a first touch or a move each"
        );
        for event in events {
            assert_eq!(event.rss_by_node.iter().sum::<u64>(), event.rss_bytes, "{event:?}");
        }
        active.finish().unwrap();
    }

    /// Two memory-bound cores reach memory in the order their clocks set:
    /// the same interleaving on every run, many hand-offs, and the core that
    /// runs never more than a turn (plus the access in flight) ahead of the
    /// other.
    #[test]
    fn parallel_cores_take_turns_in_simulated_time() {
        let cfg = MachineConfig::small_test();
        let node = cfg.mem.nodes[0];
        let slack = arch_sim::TURN_CYCLES + 2 * (node.occupancy_cycles + node.max_queue_cycles);
        const LOADS: usize = 2_000;
        let interleaving = |cores: &[usize]| {
            let machine = Machine::new(cfg.clone());
            let region = machine.alloc("x", 1 << 22).unwrap();
            let log = parking_lot::Mutex::named(Vec::new(), "test.log");
            let run = parallel_on_cores(&machine, cores, |idx, engine| {
                let core = cores[idx];
                for i in 0..LOADS as u64 {
                    engine.load(region.start + ((core as u64) << 21) + i * 64, 8);
                    log.lock().push((core, engine.now_cycles()));
                }
            });
            (run.err().map(|e| e.to_string()), log.into_inner())
        };
        let (err, first) = interleaving(&[0, 1]);
        assert_eq!(err, None);
        assert_eq!(
            (err, first.clone()),
            interleaving(&[0, 1]),
            "the interleaving follows the clocks"
        );
        // A core named twice runs once and keeps its turns.
        let (err, again) = interleaving(&[0, 0, 1]);
        assert!(err.is_some());
        assert_eq!(first, again);
        let hand_offs = first.windows(2).filter(|w| w[0].0 != w[1].0).count();
        assert!(hand_offs > 10, "only {hand_offs} hand-offs");
        // A core waiting for the turn is where its last load left it; one
        // that has finished no longer holds the other back.
        let (mut loads, mut clocks) = ([0; 2], [0u64; 2]);
        for &(core, clock) in &first {
            let other = 1 - core;
            if loads[other] < LOADS {
                assert!(clock <= clocks[other] + slack, "core {core} at {clock}, {clocks:?}");
            }
            loads[core] += 1;
            clocks[core] = clock;
        }
    }
}
