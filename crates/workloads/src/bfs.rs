//! BFS — breadth-first search (Rodinia).
//!
//! A level-synchronised frontier BFS over a CSR graph: each level, the
//! current frontier is split across threads; every thread scans its vertices'
//! adjacency lists, marks unvisited targets, and appends them to a private
//! next-frontier buffer that is concatenated at the level barrier.
//!
//! The access pattern is the opposite of STREAM: the adjacency scan is
//! sequential but the `visited`/`levels` lookups are data-dependent and
//! scattered, so the core cannot overlap their latency. The benchmark exposes
//! part of that dependent-miss latency to the simulated clock, which makes
//! BFS latency-bound rather than throughput-bound — this is why, in the
//! paper's Figure 8, BFS keeps a much higher sampling accuracy and far fewer
//! collisions than STREAM/CFD at small sampling periods (its sample
//! production rate per cycle is much lower).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use arch_sim::{Machine, MemLevel};
use nmo::{Annotations, NmoError};

use crate::generators::{rmat_graph, uniform_graph, CsrGraph};
use crate::{chunk_range, parallel_on_cores, pc, Workload, WorkloadReport};

/// Graph flavour used by the BFS benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKind {
    /// Uniform random graph (regular degree distribution).
    Uniform,
    /// RMAT power-law graph (hubs, like real-world graphs).
    Rmat,
}

struct Regions {
    offsets: arch_sim::Region,
    edges: arch_sim::Region,
    levels: arch_sim::Region,
}

/// The BFS benchmark.
pub struct BfsBench {
    /// Shared with every other instance on the same graph, and only read.
    graph: Arc<CsrGraph>,
    source: usize,
    /// Per-vertex BFS level (u32::MAX = unvisited).
    levels: Vec<u32>,
    regions: Option<Regions>,
    visited_count: usize,
}

impl BfsBench {
    /// Create a BFS benchmark over a generated graph.
    ///
    /// The graph is built once per process and shared read-only (see
    /// [`crate::generators`]): a second instance on the same arguments, such
    /// as the profiled half of an overhead measurement, costs only its own
    /// level array.
    pub fn new(num_vertices: usize, avg_degree: usize, kind: GraphKind) -> Self {
        let graph = match kind {
            GraphKind::Uniform => uniform_graph(num_vertices, avg_degree, 0xBF5),
            GraphKind::Rmat => rmat_graph(num_vertices, avg_degree, 0xBF5),
        };
        let n = graph.num_vertices;
        BfsBench { graph, source: 0, levels: vec![u32::MAX; n], regions: None, visited_count: 0 }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Vertices reached by the last run.
    pub fn reached(&self) -> usize {
        self.visited_count
    }

    /// Per-vertex level of the last run (`u32::MAX` = unreached).
    pub fn levels(&self) -> &[u32] {
        &self.levels
    }
}

impl Workload for BfsBench {
    fn name(&self) -> &'static str {
        "bfs"
    }

    fn setup(&mut self, machine: &Machine, annotations: &Annotations) -> Result<(), NmoError> {
        let n = self.graph.num_vertices as u64;
        let m = self.graph.num_edges() as u64;
        let offsets = machine.alloc("row_offsets", (n + 1) * 4)?;
        let edges = machine.alloc("col_indices", m * 4)?;
        let levels = machine.alloc("levels", n * 4)?;
        annotations.tag_addr("row_offsets", offsets.start, offsets.end());
        annotations.tag_addr("col_indices", edges.start, edges.end());
        annotations.tag_addr("levels", levels.start, levels.end());
        self.regions = Some(Regions { offsets, edges, levels });
        Ok(())
    }

    fn run(
        &mut self,
        machine: &Machine,
        annotations: &Annotations,
        cores: &[usize],
    ) -> Result<WorkloadReport, NmoError> {
        let regions = self
            .regions
            .as_ref()
            .ok_or_else(|| NmoError::Workload("bfs: run() called before setup()".into()))?;
        let threads = cores.len();
        let (ro, re, rl) = (regions.offsets.start, regions.edges.start, regions.levels.start);
        let graph: &CsrGraph = &self.graph;

        // Every core reads and writes the levels while a level runs, so they
        // are atomics until the search ends. Two cores may both see a vertex
        // unvisited and mark it with the same level: a benign double-mark,
        // which the frontier's dedup below removes.
        let mut levels: Vec<AtomicU32> =
            (0..graph.num_vertices).map(|_| AtomicU32::new(u32::MAX)).collect();
        *levels[self.source].get_mut() = 0;

        annotations.start("bfs", machine.makespan_ns());
        let mut frontier: Vec<u32> = vec![self.source as u32];
        let mut level: u32 = 0;
        let mut visited = 1usize;
        while !frontier.is_empty() {
            let next = Mutex::new(Vec::<u32>::new());
            let frontier_ref = &frontier;
            let result = parallel_on_cores(machine, cores, |tid, engine| {
                let range = chunk_range(frontier_ref.len(), threads, tid);
                let mut local_next = Vec::new();
                for &v in &frontier_ref[range] {
                    let v = v as usize;
                    // Read the two row offsets (sequential-ish).
                    engine.load_at(pc::BFS_EXPAND, ro + (v * 4) as u64, 4);
                    engine.load_at(pc::BFS_EXPAND, ro + ((v + 1) * 4) as u64, 4);
                    let edge_base = graph.offsets[v] as usize;
                    for (j, &t) in graph.neighbors(v).iter().enumerate() {
                        let t_us = t as usize;
                        // Sequential scan of the adjacency list.
                        engine.load_at(pc::BFS_EXPAND, re + ((edge_base + j) * 4) as u64, 4);
                        // Data-dependent lookup of the target's level: the
                        // core must wait for it, so expose part of the miss
                        // latency as a stall.
                        let out = engine.load_at(pc::BFS_EXPAND, rl + (t_us * 4) as u64, 4);
                        if out.level() >= MemLevel::Slc {
                            let exposed = (out.latency_cycles - out.occupancy_cycles) / 2;
                            engine.idle(exposed);
                        }
                        // relaxed-ok: a pass only asks whether a vertex is
                        // marked; the scope's join orders its marks before
                        // the next pass.
                        let seen = levels[t_us].load(Ordering::Relaxed);
                        if seen == u32::MAX {
                            // relaxed-ok: as the load above.
                            levels[t_us].store(level + 1, Ordering::Relaxed);
                            engine.store_at(pc::BFS_EXPAND, rl + (t_us * 4) as u64, 4);
                            local_next.push(t);
                        }
                        engine.cpu_work(4);
                    }
                }
                if !local_next.is_empty() {
                    next.lock().extend_from_slice(&local_next);
                }
            });
            result?;
            let mut next = next.into_inner();
            // Deduplicate vertices discovered by multiple threads in the same level.
            next.sort_unstable();
            next.dedup();
            visited += next.len();
            frontier = next;
            level += 1;
        }
        annotations.stop(machine.makespan_ns());
        self.levels = levels.into_iter().map(AtomicU32::into_inner).collect();
        self.visited_count = visited;

        let counters = machine.counters();
        Ok(WorkloadReport {
            mem_ops: counters.mem_access,
            flops: counters.flops,
            checksum: visited as f64 + level as f64 * 1e-3,
        })
    }

    fn verify(&self) -> bool {
        // The source is at level 0, no edge out of a reached vertex skips a
        // level, and every other reached vertex has an in-neighbour exactly
        // one level above it: one pass over the edges of reached vertices.
        let levels = &self.levels;
        if levels[self.source] != 0 {
            return false;
        }
        let mut parented = vec![false; levels.len()];
        for (u, &level) in levels.iter().enumerate() {
            if level == u32::MAX {
                continue;
            }
            for &t in self.graph.neighbors(u) {
                let t = t as usize;
                if levels[t] > level + 1 {
                    return false;
                }
                parented[t] |= levels[t] == level + 1;
            }
        }
        levels
            .iter()
            .zip(&parented)
            .all(|(&level, &parented)| level == 0 || level == u32::MAX || parented)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arch_sim::MachineConfig;

    #[test]
    fn bfs_reaches_most_of_a_connected_uniform_graph() {
        let machine = Machine::new(MachineConfig::small_test());
        let ann = Annotations::new();
        let mut bench = BfsBench::new(2000, 8, GraphKind::Uniform);
        bench.setup(&machine, &ann).unwrap();
        let report = bench.run(&machine, &ann, &[0, 1]).unwrap();
        assert!(bench.verify());
        assert!(report.mem_ops > 0);
        // A uniform degree-8 graph is almost surely one giant component.
        assert!(bench.reached() as f64 > 0.95 * bench.num_vertices() as f64);
    }

    #[test]
    fn bfs_on_rmat_graph_runs() {
        let machine = Machine::new(MachineConfig::small_test());
        let ann = Annotations::new();
        let mut bench = BfsBench::new(1 << 11, 8, GraphKind::Rmat);
        bench.setup(&machine, &ann).unwrap();
        bench.run(&machine, &ann, &[0, 1, 2, 3]).unwrap();
        assert!(bench.verify());
        assert!(bench.reached() > 1);
    }

    #[test]
    fn verify_checks_every_vertex_not_only_the_first_4000() {
        let machine = Machine::new(MachineConfig::small_test());
        let ann = Annotations::new();
        let mut bench = BfsBench::new(1 << 13, 8, GraphKind::Uniform);
        bench.setup(&machine, &ann).unwrap();
        bench.run(&machine, &ann, &[0]).unwrap();
        assert!(bench.verify());
        // A vertex on the deepest level is no vertex's parent, so moving one
        // past vertex 4 000 a level deeper breaks only its own in-edges.
        let deepest = bench.levels.iter().copied().filter(|&l| l != u32::MAX).max().unwrap();
        let v = (4000..bench.num_vertices()).find(|&v| bench.levels[v] == deepest).unwrap();
        bench.levels[v] += 1;
        assert!(!bench.verify(), "vertex {v} moved from level {deepest} to {}", deepest + 1);
    }

    #[test]
    fn thread_count_does_not_change_reachability() {
        let reached = |threads: usize| {
            let machine = Machine::new(MachineConfig::small_test());
            let ann = Annotations::new();
            let mut bench = BfsBench::new(1500, 6, GraphKind::Uniform);
            bench.setup(&machine, &ann).unwrap();
            let cores: Vec<usize> = (0..threads).collect();
            bench.run(&machine, &ann, &cores).unwrap();
            bench.reached()
        };
        assert_eq!(reached(1), reached(4));
    }

    #[test]
    fn tags_and_phase_registered() {
        let machine = Machine::new(MachineConfig::small_test());
        let ann = Annotations::new();
        let mut bench = BfsBench::new(512, 4, GraphKind::Uniform);
        bench.setup(&machine, &ann).unwrap();
        assert_eq!(ann.tags().len(), 3);
        bench.run(&machine, &ann, &[0]).unwrap();
        assert_eq!(ann.phases().len(), 1);
        assert_eq!(ann.phases()[0].name, "bfs");
    }
}
