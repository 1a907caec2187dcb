//! How often a memory-bound access takes the locks it shares with other
//! cores — exact acquisition counts from the runtime lock checker, the same
//! kind of gate as CI's `bus.inner` one. Alone in its test binary because the
//! lock report is process-wide (`tests/lock_check.rs` shows the workflow).

use nmo_repro::arch_sim::{Machine, MachineConfig};
use parking_lot::{check, lock_report};

const PAGES: u64 = 64;
const PASSES: u64 = 3;

#[test]
fn a_streaming_engine_takes_vm_inner_per_page_and_machine_slc_per_l2_miss() {
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

    let report = lock_report();
    let taken = |name: &str| report.iter().find(|s| s.name == name).map_or(0, |s| s.acquisitions);
    // The `alloc`; one `place_span` for each page the engine enters (the
    // stream re-enters all of them every pass — its table holds 16); one
    // RSS snapshot per first touch. Not one per access: that was
    // 3 x 64 x 64 = 12 288.
    assert_eq!(taken("vm.inner"), 1 + PASSES * PAGES + PAGES);
    // Nothing about the SLC changed: its shard lock, once per L2 miss.
    assert_eq!(taken("machine.slc"), counters.slc_hits + counters.dram_accesses);
}
