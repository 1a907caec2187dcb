//! STREAM — the sustainable-memory-bandwidth benchmark (Triad reported in
//! the paper).
//!
//! Three arrays `a`, `b`, `c` are streamed with perfectly regular, contiguous
//! per-thread partitions; the Triad kernel computes `a[i] = b[i] + SCALAR *
//! c[i]`. The paper uses STREAM both for the region-profiling demonstration
//! (Figure 4: each thread's samples form short incremental line segments
//! inside the tagged arrays) and as the workload of the aux-buffer and
//! thread-count sensitivity studies (Figures 9–11).

use arch_sim::Machine;
use nmo::{Annotations, NmoError};

use crate::{parallel_chunks, pc, Workload, WorkloadReport};

/// STREAM scalar constant (the reference implementation uses 3.0).
pub const SCALAR: f64 = 3.0;

/// Which STREAM kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKernel {
    /// `c[i] = a[i]`
    Copy,
    /// `b[i] = SCALAR * c[i]`
    Scale,
    /// `c[i] = a[i] + b[i]`
    Add,
    /// `a[i] = b[i] + SCALAR * c[i]` (the kernel the paper reports).
    Triad,
}

impl StreamKernel {
    fn name(self) -> &'static str {
        match self {
            StreamKernel::Copy => "copy",
            StreamKernel::Scale => "scale",
            StreamKernel::Add => "add",
            StreamKernel::Triad => "triad",
        }
    }

    fn pc(self) -> u64 {
        match self {
            StreamKernel::Copy => pc::STREAM_COPY,
            StreamKernel::Scale => pc::STREAM_SCALE,
            StreamKernel::Add => pc::STREAM_ADD,
            StreamKernel::Triad => pc::STREAM_TRIAD,
        }
    }
}

struct Regions {
    a: arch_sim::Region,
    b: arch_sim::Region,
    c: arch_sim::Region,
}

/// The STREAM benchmark.
pub struct StreamBench {
    /// Elements per array.
    n: usize,
    /// Number of times the kernel is repeated.
    iterations: usize,
    /// Kernel to run.
    kernel: StreamKernel,
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    regions: Option<Regions>,
}

impl StreamBench {
    /// Create a STREAM instance with `n` elements per array and `iterations`
    /// repetitions of the Triad kernel.
    pub fn new(n: usize, iterations: usize) -> Self {
        Self::with_kernel(n, iterations, StreamKernel::Triad)
    }

    /// Create a STREAM instance running a specific kernel.
    pub fn with_kernel(n: usize, iterations: usize, kernel: StreamKernel) -> Self {
        StreamBench {
            n,
            iterations,
            kernel,
            a: vec![1.0; n],
            b: vec![2.0; n],
            c: vec![0.5; n],
            regions: None,
        }
    }

    /// Array length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the arrays are empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Bytes moved per Triad iteration (3 arrays of f64, as STREAM counts it).
    pub fn bytes_per_iteration(&self) -> u64 {
        3 * 8 * self.n as u64
    }
}

impl Workload for StreamBench {
    fn name(&self) -> &'static str {
        "stream"
    }

    fn setup(&mut self, machine: &Machine, annotations: &Annotations) -> Result<(), NmoError> {
        let bytes = (self.n * 8) as u64;
        let a = machine.alloc("a", bytes)?;
        let b = machine.alloc("b", bytes)?;
        let c = machine.alloc("c", bytes)?;
        annotations.tag_addr("a", a.start, a.end());
        annotations.tag_addr("b", b.start, b.end());
        annotations.tag_addr("c", c.start, c.end());
        self.regions = Some(Regions { a, b, c });
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
            .ok_or_else(|| NmoError::Workload("stream: run() called before setup()".into()))?;
        let n = self.n;
        let kernel = self.kernel;
        let kpc = kernel.pc();
        let (ra, rb, rc) = (regions.a.start, regions.b.start, regions.c.start);

        // The host arrays are updated for real so the result can be
        // verified: each core writes its chunk of the kernel's output array
        // `dst` from the same chunk of its inputs `x` and `y`.
        let (dst, x, y) = match kernel {
            StreamKernel::Copy => (&mut self.c, &self.a, &self.a),
            StreamKernel::Scale => (&mut self.b, &self.c, &self.c),
            StreamKernel::Add => (&mut self.c, &self.a, &self.b),
            StreamKernel::Triad => (&mut self.a, &self.b, &self.c),
        };

        let mut report = WorkloadReport::default();
        for _iter in 0..self.iterations {
            annotations.start(kernel.name(), machine.makespan_ns());
            let result = parallel_chunks(machine, cores, n, dst, |range, out, engine| {
                const BLOCK: usize = 256;
                let mut i = range.start;
                while i < range.end {
                    let end = (i + BLOCK).min(range.end);
                    for k in i..end {
                        let off = (k * 8) as u64;
                        let d = &mut out[k - range.start];
                        match kernel {
                            StreamKernel::Copy => {
                                engine.load_at(kpc, ra + off, 8);
                                engine.store_at(kpc, rc + off, 8);
                                *d = x[k];
                            }
                            StreamKernel::Scale => {
                                engine.load_at(kpc, rc + off, 8);
                                engine.store_at(kpc, rb + off, 8);
                                *d = SCALAR * x[k];
                            }
                            StreamKernel::Add => {
                                engine.load_at(kpc, ra + off, 8);
                                engine.load_at(kpc, rb + off, 8);
                                engine.store_at(kpc, rc + off, 8);
                                *d = x[k] + y[k];
                            }
                            StreamKernel::Triad => {
                                engine.load_at(kpc, rb + off, 8);
                                engine.load_at(kpc, rc + off, 8);
                                engine.store_at(kpc, ra + off, 8);
                                *d = x[k] + SCALAR * y[k];
                            }
                        }
                    }
                    let done = (end - i) as u64;
                    engine.flops(2 * done);
                    engine.cpu_work(done);
                    i = end;
                }
            });
            annotations.stop(machine.makespan_ns());
            result?;
        }

        let counters = machine.counters();
        report.mem_ops = counters.mem_access;
        report.flops = counters.flops;
        report.checksum = self.a.iter().take(1024).sum::<f64>();
        Ok(report)
    }

    fn verify(&self) -> bool {
        match self.kernel {
            StreamKernel::Triad => {
                // After any number of iterations a[i] = b[i] + SCALAR*c[i]
                // with b and c untouched.
                self.a
                    .iter()
                    .zip(self.b.iter().zip(&self.c))
                    .all(|(a, (b, c))| (a - (b + SCALAR * c)).abs() < 1e-12)
            }
            StreamKernel::Copy => self.c.iter().zip(&self.a).all(|(c, a)| c == a),
            StreamKernel::Scale => {
                self.b.iter().zip(&self.c).all(|(b, c)| (b - SCALAR * c).abs() < 1e-12)
            }
            StreamKernel::Add => self
                .c
                .iter()
                .zip(self.a.iter().zip(&self.b))
                .all(|(c, (a, b))| (c - (a + b)).abs() < 1e-12),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arch_sim::MachineConfig;

    fn run(kernel: StreamKernel, threads: usize) -> (StreamBench, WorkloadReport) {
        let machine = Machine::new(MachineConfig::small_test());
        let ann = Annotations::new();
        let mut bench = StreamBench::with_kernel(4096, 2, kernel);
        bench.setup(&machine, &ann).unwrap();
        let cores: Vec<usize> = (0..threads).collect();
        let report = bench.run(&machine, &ann, &cores).unwrap();
        (bench, report)
    }

    #[test]
    fn triad_verifies_and_counts() {
        let (bench, report) = run(StreamKernel::Triad, 2);
        assert!(bench.verify());
        // 3 mem ops per element per iteration.
        assert_eq!(report.mem_ops, 3 * 4096 * 2);
        assert_eq!(report.flops, 2 * 4096 * 2);
        assert!(report.checksum > 0.0);
    }

    #[test]
    fn all_kernels_verify() {
        for kernel in
            [StreamKernel::Copy, StreamKernel::Scale, StreamKernel::Add, StreamKernel::Triad]
        {
            let (bench, _) = run(kernel, 3);
            assert!(bench.verify(), "kernel {kernel:?} failed verification");
        }
    }

    #[test]
    fn tags_and_phases_registered() {
        let machine = Machine::new(MachineConfig::small_test());
        let ann = Annotations::new();
        let mut bench = StreamBench::new(1024, 3);
        bench.setup(&machine, &ann).unwrap();
        assert_eq!(ann.tags().len(), 3);
        bench.run(&machine, &ann, &[0]).unwrap();
        let phases = ann.phases();
        assert_eq!(phases.len(), 3, "one phase per iteration");
        assert!(phases.iter().all(|p| p.name == "triad" && !p.is_open()));
    }

    #[test]
    fn work_split_across_threads_is_disjoint_and_complete() {
        let (bench, report) = run(StreamKernel::Triad, 4);
        assert!(bench.verify());
        assert_eq!(report.mem_ops, 3 * 4096 * 2, "no element processed twice or skipped");
    }

    #[test]
    fn rss_reflects_three_arrays() {
        let machine = Machine::new(MachineConfig::small_test());
        let ann = Annotations::new();
        let mut bench = StreamBench::new(8192, 1);
        bench.setup(&machine, &ann).unwrap();
        bench.run(&machine, &ann, &[0, 1]).unwrap();
        let page = machine.config().page_bytes;
        let expected = 3 * (8192u64 * 8).div_ceil(page) * page;
        assert_eq!(machine.rss_bytes(), expected);
    }
}
