//! CFD — an unstructured-grid finite-volume Euler solver (Rodinia `euler3d`).
//!
//! The benchmark stores five conservative variables (density, 3-component
//! momentum, energy) per mesh element and, each iteration, computes fluxes by
//! gathering the variables of four neighbouring elements through an index
//! array, then applies a time-step update. The per-thread partition of the
//! `normals` array is contiguous (regular accesses) while the neighbour
//! gathers are indirect — exactly the mixed pattern the paper visualises in
//! Figures 5 and 6 and the source of the irregular accesses that appear at 32
//! threads.

use arch_sim::Machine;
use nmo::{Annotations, NmoError};

use crate::generators::{mesh_neighbors, NEIGHBORS_PER_ELEMENT};
use crate::{parallel_chunks, pc, Workload, WorkloadReport};

/// Number of conservative variables per element (density, momentum x3, energy).
pub const NVAR: usize = 5;

struct Regions {
    variables: arch_sim::Region,
    fluxes: arch_sim::Region,
    normals: arch_sim::Region,
    neighbors: arch_sim::Region,
}

/// The CFD (euler3d-style) benchmark.
pub struct CfdBench {
    elements: usize,
    iterations: usize,
    /// Fraction of neighbour links that jump far away in the mesh.
    far_fraction: f64,
    variables: Vec<f64>,
    fluxes: Vec<f64>,
    normals: Vec<f64>,
    neighbors: Vec<u32>,
    regions: Option<Regions>,
}

impl CfdBench {
    /// Create a CFD instance with `elements` mesh cells and `iterations`
    /// solver steps.
    pub fn new(elements: usize, iterations: usize) -> Self {
        Self::with_far_fraction(elements, iterations, 0.08)
    }

    /// Create a CFD instance with an explicit far-neighbour fraction (0.0
    /// gives a fully local banded mesh, larger values more irregularity).
    pub fn with_far_fraction(elements: usize, iterations: usize, far_fraction: f64) -> Self {
        let neighbors = mesh_neighbors(elements, far_fraction, 0xCFD);
        let mut variables = vec![0.0f64; elements * NVAR];
        for (i, v) in variables.iter_mut().enumerate() {
            // A smooth initial field.
            *v = 1.0 + 0.001 * ((i % 97) as f64);
        }
        CfdBench {
            elements,
            iterations,
            far_fraction,
            variables,
            fluxes: vec![0.0; elements * NVAR],
            normals: vec![0.25; elements * NEIGHBORS_PER_ELEMENT * 3],
            neighbors,
            regions: None,
        }
    }

    /// Number of mesh elements.
    pub fn elements(&self) -> usize {
        self.elements
    }

    /// The configured far-neighbour fraction.
    pub fn far_fraction(&self) -> f64 {
        self.far_fraction
    }
}

impl Workload for CfdBench {
    fn name(&self) -> &'static str {
        "cfd"
    }

    fn setup(&mut self, machine: &Machine, annotations: &Annotations) -> Result<(), NmoError> {
        let e = self.elements as u64;
        let variables = machine.alloc("variables", e * NVAR as u64 * 8)?;
        let fluxes = machine.alloc("fluxes", e * NVAR as u64 * 8)?;
        let normals = machine.alloc("normals", e * NEIGHBORS_PER_ELEMENT as u64 * 3 * 8)?;
        let neighbors =
            machine.alloc("elements_surrounding", e * NEIGHBORS_PER_ELEMENT as u64 * 4)?;
        annotations.tag_addr("variables", variables.start, variables.end());
        annotations.tag_addr("fluxes", fluxes.start, fluxes.end());
        annotations.tag_addr("normals", normals.start, normals.end());
        annotations.tag_addr("elements_surrounding", neighbors.start, neighbors.end());
        self.regions = Some(Regions { variables, fluxes, normals, neighbors });
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
            .ok_or_else(|| NmoError::Workload("cfd: run() called before setup()".into()))?;
        let elements = self.elements;
        let (rv, rf, rn, rnb) = (
            regions.variables.start,
            regions.fluxes.start,
            regions.normals.start,
            regions.neighbors.start,
        );
        let normals = &self.normals;
        let neighbors = &self.neighbors;

        annotations.start("computation loop", machine.makespan_ns());
        for _iter in 0..self.iterations {
            // Flux computation: gather own + neighbour variables, read the
            // element's normals, write the flux vector.
            let vars = &self.variables;
            let flux_result = parallel_chunks(
                machine,
                cores,
                elements,
                &mut self.fluxes,
                |range, flx, engine| {
                    for (e, flx) in range.zip(flx.chunks_exact_mut(NVAR)) {
                        let mut acc = [0.0f64; NVAR];
                        // Own variables.
                        for (v, slot) in acc.iter_mut().enumerate() {
                            let idx = e * NVAR + v;
                            engine.load_at(pc::CFD_FLUX, rv + (idx * 8) as u64, 8);
                            *slot += vars[idx];
                        }
                        // Neighbour gathers through the index array (indirect).
                        for k in 0..NEIGHBORS_PER_ELEMENT {
                            let nb_idx = e * NEIGHBORS_PER_ELEMENT + k;
                            engine.load_at(pc::CFD_FLUX, rnb + (nb_idx * 4) as u64, 4);
                            let nb = neighbors[nb_idx] as usize;
                            // Normals for this face: contiguous per element.
                            for d in 0..3 {
                                let n_idx = (e * NEIGHBORS_PER_ELEMENT + k) * 3 + d;
                                engine.load_at(pc::CFD_FLUX, rn + (n_idx * 8) as u64, 8);
                            }
                            let weight = normals[(e * NEIGHBORS_PER_ELEMENT + k) * 3];
                            for (v, slot) in acc.iter_mut().enumerate() {
                                let idx = nb * NVAR + v;
                                engine.load_at(pc::CFD_FLUX, rv + (idx * 8) as u64, 8);
                                *slot += weight * vars[idx];
                            }
                        }
                        // Store the flux vector.
                        for (v, (value, out)) in acc.iter().zip(flx).enumerate() {
                            let idx = e * NVAR + v;
                            engine.store_at(pc::CFD_FLUX, rf + (idx * 8) as u64, 8);
                            *out = value * 0.2;
                        }
                        engine.flops((NVAR * (NEIGHBORS_PER_ELEMENT + 2)) as u64);
                        engine.cpu_work(8);
                    }
                },
            );
            flux_result?;

            // Time-step update: variables += dt * fluxes (regular).
            let flx = &self.fluxes;
            let step_result = parallel_chunks(
                machine,
                cores,
                elements,
                &mut self.variables,
                |range, vars, engine| {
                    for (e, vars) in range.zip(vars.chunks_exact_mut(NVAR)) {
                        for (v, var) in vars.iter_mut().enumerate() {
                            let idx = e * NVAR + v;
                            engine.load_at(pc::CFD_TIME_STEP, rf + (idx * 8) as u64, 8);
                            engine.load_at(pc::CFD_TIME_STEP, rv + (idx * 8) as u64, 8);
                            engine.store_at(pc::CFD_TIME_STEP, rv + (idx * 8) as u64, 8);
                            *var += 1e-4 * flx[idx];
                        }
                        engine.flops(2 * NVAR as u64);
                        engine.cpu_work(4);
                    }
                },
            );
            step_result?;
        }
        annotations.stop(machine.makespan_ns());

        let counters = machine.counters();
        Ok(WorkloadReport {
            mem_ops: counters.mem_access,
            flops: counters.flops,
            checksum: self.variables.iter().take(1024).sum::<f64>(),
        })
    }

    fn verify(&self) -> bool {
        // The update is a contraction of finite values; verify nothing blew up
        // and the field actually changed.
        self.variables.iter().all(|v| v.is_finite())
            && self.fluxes.iter().take(NVAR * 16).any(|f| *f != 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arch_sim::MachineConfig;

    #[test]
    fn cfd_runs_and_verifies() {
        let machine = Machine::new(MachineConfig::small_test());
        let ann = Annotations::new();
        let mut bench = CfdBench::new(512, 2);
        bench.setup(&machine, &ann).unwrap();
        let report = bench.run(&machine, &ann, &[0, 1]).unwrap();
        assert!(bench.verify());
        assert!(report.mem_ops > 0);
        assert!(report.flops > 0);
        // Per element per iteration: 5 own + 4*(1 + 3 + 5) neighbour-related
        // loads + 5 flux stores = 46 in the flux kernel, plus 15 in the
        // time-step kernel.
        let expected = 512 * 2 * (46 + 15);
        assert_eq!(report.mem_ops, expected as u64);
    }

    #[test]
    fn tags_cover_all_arrays_and_phase_recorded() {
        let machine = Machine::new(MachineConfig::small_test());
        let ann = Annotations::new();
        let mut bench = CfdBench::new(256, 1);
        bench.setup(&machine, &ann).unwrap();
        let names: Vec<String> = ann.tags().iter().map(|t| t.name.clone()).collect();
        for expected in ["variables", "fluxes", "normals", "elements_surrounding"] {
            assert!(names.iter().any(|n| n == expected), "missing tag {expected}");
        }
        bench.run(&machine, &ann, &[0]).unwrap();
        let phases = ann.phases();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].name, "computation loop");
        assert!(!phases[0].is_open());
    }

    #[test]
    fn single_and_multi_thread_produce_same_access_count() {
        let count = |threads: usize| {
            let machine = Machine::new(MachineConfig::small_test());
            let ann = Annotations::new();
            let mut bench = CfdBench::new(300, 1);
            bench.setup(&machine, &ann).unwrap();
            let cores: Vec<usize> = (0..threads).collect();
            bench.run(&machine, &ann, &cores).unwrap().mem_ops
        };
        assert_eq!(count(1), count(4));
    }

    #[test]
    fn irregularity_increases_with_far_fraction() {
        // More far neighbours => more distinct cache lines touched during the
        // gathers => more DRAM traffic.
        let traffic = |far: f64| {
            let machine = Machine::new(MachineConfig::small_test());
            let ann = Annotations::new();
            let mut bench = CfdBench::with_far_fraction(2048, 1, far);
            bench.setup(&machine, &ann).unwrap();
            bench.run(&machine, &ann, &[0]).unwrap();
            machine.counters().bus_read_bytes
        };
        let local = traffic(0.0);
        let irregular = traffic(0.5);
        assert!(
            irregular > local,
            "far gathers should increase bus traffic: local={local} irregular={irregular}"
        );
    }
}
