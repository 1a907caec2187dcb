//! How often a memory-bound access takes the lock it shares with other
//! cores — exact acquisition counts from the runtime lock checker, the same
//! kind of gate as CI's `bus.inner` one. Alone in its test binary because the
//! lock report is process-wide (`tests/lock_check.rs` shows the workflow).

use nmo_repro::arch_sim::{Machine, MachineConfig};
use parking_lot::{check, lock_report};

const PAGES: u64 = 64;
const PASSES: u64 = 3;

fn taken(name: &str) -> u64 {
    lock_report().iter().find(|s| s.name == name).map_or(0, |s| s.acquisitions)
}

#[test]
fn a_streaming_engine_takes_machine_shared_once_per_l2_miss() {
    check::force_enable();

    let machine = Machine::new(MachineConfig::small_test());
    let page = machine.config().page_bytes;
    // 256 KiB, twice the SLC: at line stride every access misses every cache.
    let region = machine.alloc("data", PAGES * page).expect("alloc");
    let mut engine = machine.attach(0).expect("attach");
    for _ in 0..PASSES {
        for addr in (region.start..region.end()).step_by(64) {
            engine.load(addr, 8);
        }
    }
    drop(engine);

    let counters = machine.counters();
    let accesses = PASSES * PAGES * (page / 64);
    assert_eq!(counters.dram_accesses, accesses, "every access is memory-bound");

    // The `alloc`, then once per L2 miss: the SLC, the page's home, its
    // first touch's RSS event and the node's link, all under one
    // acquisition. Attaching and detaching take none.
    assert_eq!(taken("machine.shared"), 1 + counters.slc_hits + counters.dram_accesses);
    // Every lock the simulator has: the shared level, the cores' slots
    // (attach, detach, and `counters` reading four cores) and the turns.
    let mut names: Vec<_> = lock_report().into_iter().map(|s| s.name).collect();
    names.sort_unstable();
    assert_eq!(names, ["machine.core", "machine.gang", "machine.shared"]);

    // Every other call on the shared level takes the lock once.
    let before = taken("machine.shared");
    assert_eq!(machine.rss_events_since(0).len() as u64, PAGES);
    assert_eq!(machine.migration_stats().migrations, 0);
    assert!(machine.migrate_page(region.start, 0, 0).expect("node 0 exists").is_none());
    assert!(machine.free_at("data", 0));
    assert_eq!(machine.rss_bytes(), 0);
    assert_eq!(taken("machine.shared"), before + 5);
}
