//! Page Rank — the CloudSuite Graph Analytics benchmark.
//!
//! The paper runs Page Rank in a Docker/Hadoop setup whose interesting
//! memory behaviour (for NMO) is: a large graph is loaded at the beginning —
//! memory usage climbs quickly to its saturation point and bandwidth peaks
//! early (Figures 2 and 3, right) — followed by iterative rank computation
//! with lower, fluctuating bandwidth. This re-implementation reproduces that
//! structure directly: a *load* phase that materialises (first-touches) the
//! CSR graph and rank arrays, then pull-style power iterations.

use std::sync::Arc;

use arch_sim::Machine;
use nmo::{Annotations, NmoError};

use crate::generators::{rmat_graph, CsrGraph};
use crate::{parallel_chunks, pc, Workload, WorkloadReport};

/// Damping factor used by the power iteration.
pub const DAMPING: f64 = 0.85;

struct Regions {
    offsets: arch_sim::Region,
    edges: arch_sim::Region,
    ranks: arch_sim::Region,
    ranks_next: arch_sim::Region,
    out_degree: arch_sim::Region,
}

/// The PageRank benchmark.
pub struct PageRank {
    /// Shared with every other instance on the same graph, and only read.
    graph: Arc<CsrGraph>,
    iterations: usize,
    ranks: Vec<f64>,
    ranks_next: Vec<f64>,
    /// Out-degree of the *source* of each edge, pre-inverted for the pull model.
    out_degree: Vec<u32>,
    regions: Option<Regions>,
}

impl PageRank {
    /// Create a PageRank benchmark on an RMAT graph with `num_vertices`
    /// (rounded to a power of two) and `avg_degree`, iterated `iterations`
    /// times. The generated edge direction is interpreted as "in-edge" so the
    /// gather loop reads the rank of each in-neighbour.
    ///
    /// The graph is built once per process and shared read-only (see
    /// [`crate::generators`]): a second instance on the same arguments, such
    /// as the profiled half of an overhead measurement, costs only its own
    /// rank and out-degree arrays.
    pub fn new(num_vertices: usize, avg_degree: usize, iterations: usize) -> Self {
        let graph = rmat_graph(num_vertices, avg_degree, 0x9A6E);
        let n = graph.num_vertices;
        // Out-degree of vertex u = number of edge lists containing u. Compute
        // by counting occurrences of u as a target of the in-edge CSR.
        let mut out_degree = vec![0u32; n];
        for &t in &graph.edges {
            out_degree[t as usize] += 1;
        }
        // Avoid division by zero for rank sinks.
        for d in &mut out_degree {
            if *d == 0 {
                *d = 1;
            }
        }
        PageRank {
            graph,
            iterations,
            ranks: vec![1.0 / n as f64; n],
            ranks_next: vec![0.0; n],
            out_degree,
            regions: None,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices
    }

    /// Current rank vector.
    pub fn ranks(&self) -> &[f64] {
        &self.ranks
    }
}

impl Workload for PageRank {
    fn name(&self) -> &'static str {
        "pagerank"
    }

    fn setup(&mut self, machine: &Machine, annotations: &Annotations) -> Result<(), NmoError> {
        let n = self.graph.num_vertices as u64;
        let m = self.graph.num_edges() as u64;
        let offsets = machine.alloc("offsets", (n + 1) * 4)?;
        let edges = machine.alloc("edges", m * 4)?;
        let ranks = machine.alloc("ranks", n * 8)?;
        let ranks_next = machine.alloc("ranks_next", n * 8)?;
        let out_degree = machine.alloc("out_degree", n * 4)?;
        annotations.tag_addr("offsets", offsets.start, offsets.end());
        annotations.tag_addr("edges", edges.start, edges.end());
        annotations.tag_addr("ranks", ranks.start, ranks.end());
        annotations.tag_addr("ranks_next", ranks_next.start, ranks_next.end());
        annotations.tag_addr("out_degree", out_degree.start, out_degree.end());
        self.regions = Some(Regions { offsets, edges, ranks, ranks_next, out_degree });
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
            .ok_or_else(|| NmoError::Workload("pagerank: run() called before setup()".into()))?;
        let n = self.graph.num_vertices;
        let graph: &CsrGraph = &self.graph;
        let out_degree = &self.out_degree;
        let (ro, re, rr, rn, rd) = (
            regions.offsets.start,
            regions.edges.start,
            regions.ranks.start,
            regions.ranks_next.start,
            regions.out_degree.start,
        );

        // Phase 1: "load graph" — stream over the whole graph once, which
        // first-touches every page (memory usage climbs to saturation) and
        // produces the early bandwidth peak of Figure 3.
        annotations.start("load graph", machine.makespan_ns());
        let load_result = parallel_chunks(machine, cores, n, &mut [(); 0], |vrange, _, engine| {
            for v in vrange {
                engine.store_at(pc::PR_LOAD, ro + (v * 4) as u64, 4);
                engine.store_at(pc::PR_LOAD, rr + (v * 8) as u64, 8);
                engine.store_at(pc::PR_LOAD, rn + (v * 8) as u64, 8);
                engine.store_at(pc::PR_LOAD, rd + (v * 4) as u64, 4);
                let e0 = graph.offsets[v] as usize;
                let e1 = graph.offsets[v + 1] as usize;
                for e in e0..e1 {
                    engine.store_at(pc::PR_LOAD, re + (e * 4) as u64, 4);
                }
                engine.cpu_work(2);
            }
        });
        annotations.stop(machine.makespan_ns());
        load_result?;

        // Phase 2: power iterations (pull model). Each iteration reads the
        // ranks the last one wrote and each core writes its own vertices'
        // next ranks.
        annotations.start("iterate", machine.makespan_ns());
        for _it in 0..self.iterations {
            let ranks = &self.ranks;
            let iter_result =
                parallel_chunks(machine, cores, n, &mut self.ranks_next, |vrange, next, engine| {
                    for (v, next) in vrange.zip(next) {
                        engine.load_at(pc::PR_GATHER, ro + (v * 4) as u64, 4);
                        engine.load_at(pc::PR_GATHER, ro + ((v + 1) * 4) as u64, 4);
                        let mut acc = 0.0f64;
                        let e0 = graph.offsets[v] as usize;
                        for (j, &u) in graph.neighbors(v).iter().enumerate() {
                            let u = u as usize;
                            engine.load_at(pc::PR_GATHER, re + ((e0 + j) * 4) as u64, 4);
                            engine.load_at(pc::PR_GATHER, rr + (u * 8) as u64, 8);
                            engine.load_at(pc::PR_GATHER, rd + (u * 4) as u64, 4);
                            acc += ranks[u] / out_degree[u] as f64;
                        }
                        engine.store_at(pc::PR_GATHER, rn + (v * 8) as u64, 8);
                        *next = (1.0 - DAMPING) / n as f64 + DAMPING * acc;
                        engine.flops((2 * graph.degree(v) + 3) as u64);
                        engine.cpu_work(4);
                    }
                });
            iter_result?;
            // Swap the host buffers. The simulated arrays do not swap: every
            // iteration loads from the `ranks` region and stores to
            // `ranks_next`.
            std::mem::swap(&mut self.ranks, &mut self.ranks_next);
        }
        annotations.stop(machine.makespan_ns());

        let counters = machine.counters();
        Ok(WorkloadReport {
            mem_ops: counters.mem_access,
            flops: counters.flops,
            checksum: self.ranks.iter().sum::<f64>(),
        })
    }

    fn verify(&self) -> bool {
        // Ranks must stay non-negative and bounded. The plain power iteration
        // leaks mass at rank sinks (dangling vertices are common in RMAT
        // graphs), so the sum settles somewhere below 1 rather than at 1.
        let sum: f64 = self.ranks.iter().sum();
        self.ranks.iter().all(|r| *r >= 0.0 && r.is_finite()) && sum > 0.4 && sum < 1.05
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arch_sim::MachineConfig;

    #[test]
    fn pagerank_converges_to_a_distribution() {
        let machine = Machine::new(MachineConfig::small_test());
        let ann = Annotations::new();
        let mut bench = PageRank::new(1 << 10, 8, 3);
        bench.setup(&machine, &ann).unwrap();
        let report = bench.run(&machine, &ann, &[0, 1]).unwrap();
        assert!(bench.verify(), "rank sum = {}", bench.ranks().iter().sum::<f64>());
        assert!(report.mem_ops > 0);
        assert!(report.flops > 0);
    }

    #[test]
    fn hubs_gain_rank_on_power_law_graphs() {
        let machine = Machine::new(MachineConfig::small_test());
        let ann = Annotations::new();
        let mut bench = PageRank::new(1 << 10, 8, 5);
        bench.setup(&machine, &ann).unwrap();
        bench.run(&machine, &ann, &[0]).unwrap();
        let uniform = 1.0 / bench.num_vertices() as f64;
        let max = bench.ranks().iter().cloned().fold(0.0, f64::max);
        assert!(max > 3.0 * uniform, "power-law hubs should concentrate rank");
    }

    /// The plain sequential power iteration over the same graph, each
    /// vertex's in-neighbours summed in CSR order.
    fn reference_ranks(bench: &PageRank, iterations: usize) -> Vec<f64> {
        let (graph, n) = (&bench.graph, bench.num_vertices());
        let mut ranks = vec![1.0 / n as f64; n];
        for _ in 0..iterations {
            ranks = (0..n)
                .map(|v| {
                    let mut acc = 0.0f64;
                    for &u in graph.neighbors(v) {
                        acc += ranks[u as usize] / bench.out_degree[u as usize] as f64;
                    }
                    (1.0 - DAMPING) / n as f64 + DAMPING * acc
                })
                .collect();
        }
        ranks
    }

    /// Every iteration reads the ranks the one before it wrote, at any core
    /// count: the result equals the sequential reference bit for bit.
    #[test]
    fn ranks_equal_a_sequential_power_iteration() {
        for iterations in 1..=3 {
            for cores in [&[0][..], &[0, 1], &[0, 1, 2, 3]] {
                let machine = Machine::new(MachineConfig::small_test());
                let ann = Annotations::new();
                let mut bench = PageRank::new(1 << 10, 8, iterations);
                bench.setup(&machine, &ann).unwrap();
                bench.run(&machine, &ann, cores).unwrap();
                let want = reference_ranks(&bench, iterations);
                assert!(bench.ranks() == want, "{iterations} iterations on {cores:?}");
            }
        }
    }

    #[test]
    fn load_phase_touches_all_graph_memory() {
        let machine = Machine::new(MachineConfig::small_test());
        let ann = Annotations::new();
        let mut bench = PageRank::new(1 << 10, 4, 1);
        bench.setup(&machine, &ann).unwrap();
        bench.run(&machine, &ann, &[0, 1, 2]).unwrap();
        // After the load phase every allocated region is resident.
        let total_alloc: u64 = machine
            .regions()
            .iter()
            .map(|r| r.len.div_ceil(machine.config().page_bytes) * machine.config().page_bytes)
            .sum();
        assert_eq!(machine.rss_bytes(), total_alloc);
        // Two phases recorded: load graph + iterate.
        let names: Vec<String> = ann.phases().iter().map(|p| p.name.clone()).collect();
        assert_eq!(names, vec!["load graph".to_string(), "iterate".to_string()]);
    }
}
