//! The sensitivity runner's baseline is the unprofiled run the paper's Eq. 1
//! and time overhead are measured against: at one core, a disabled session
//! retires exactly what a bare machine does, in exactly as many cycles.

use arch_sim::{Machine, MachineConfig, MachineCounters};
use nmo::{measure, Annotations, NmoConfig};
use nmo_bench::{profiled_session, Scale, WorkloadKind};

/// The workload on a bare machine: no session, no profiler.
fn bare_run(kind: WorkloadKind, scale: &Scale) -> MachineCounters {
    let machine = Machine::new(MachineConfig::ampere_altra_max());
    let annotations = Annotations::new();
    let mut workload = scale.build(kind);
    workload.setup(&machine, &annotations).unwrap();
    workload.run(&machine, &annotations, &[0]).unwrap();
    assert!(workload.verify(), "{} failed verification on a bare machine", kind.label());
    machine.counters()
}

#[test]
fn the_baseline_of_every_workload_is_its_bare_run_at_one_core() {
    let scale = Scale::tiny();
    for kind in [
        WorkloadKind::Stream,
        WorkloadKind::Cfd,
        WorkloadKind::Bfs,
        WorkloadKind::PageRank,
        WorkloadKind::InMemAnalytics,
    ] {
        let label = kind.label();
        let bare = bare_run(kind, &scale);
        assert!(bare.mem_access > 0 && bare.cycles > 0, "{label}");

        let run = |c| profiled_session(kind, &scale, 1, c).build()?.run();
        let m = measure(run, [NmoConfig::paper_default(200)]).unwrap().remove(0);
        assert_eq!(m.baseline.mem_access, bare.mem_access, "{label}");
        assert_eq!(m.baseline.cycles, bare.cycles, "{label}");

        // The profiled run retires the same work, samples it, and costs time.
        assert_eq!(m.profile.counters.mem_access, bare.mem_access, "{label}");
        assert!(m.profile.processed_samples > 0, "{label}");
        assert!(m.accuracy() > 0.0 && m.accuracy() <= 1.0, "{label}: {}", m.accuracy());
        assert!(m.overhead() > 0.0, "{label}: {}", m.overhead());
    }
}
