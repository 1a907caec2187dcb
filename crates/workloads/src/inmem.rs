//! In-memory Analytics — ALS collaborative filtering (CloudSuite).
//!
//! The CloudSuite benchmark runs alternating least squares over a user–movie
//! rating matrix held in memory. Its NMO-visible signature (Figures 2 and 3,
//! left) is a gradual climb of memory usage as data structures are
//! materialised, and a *periodic* bandwidth pattern: each ALS sweep re-reads
//! the ratings and one factor matrix while updating the other, producing a
//! bandwidth peak roughly every sweep.
//!
//! The re-implementation alternates simplified least-squares sweeps (a
//! damped gradient step rather than a full Cholesky solve — the memory-access
//! structure, which is what NMO observes, is the same: for every rating, read
//! the counterpart factor row and update the owned factor row).

use std::sync::atomic::{AtomicU32, Ordering};

use arch_sim::Machine;
use nmo::{Annotations, NmoError};

use crate::generators::{ratings, Rating};
use crate::{parallel_chunks, parallel_on_cores, pc, Workload, WorkloadReport};

/// Latent-factor dimensionality (CloudSuite uses small ranks; 16 keeps the
/// factor rows two cache lines wide).
pub const RANK: usize = 16;

struct Regions {
    ratings: arch_sim::Region,
    user_factors: arch_sim::Region,
    item_factors: arch_sim::Region,
}

/// The In-memory Analytics (ALS) benchmark.
pub struct InMemAnalytics {
    users: usize,
    movies: usize,
    sweeps: usize,
    ratings: Vec<Rating>,
    /// Ratings grouped by user (CSR-like offsets into `ratings`).
    user_offsets: Vec<u32>,
    user_factors: Vec<f32>,
    item_factors: Vec<f32>,
    regions: Option<Regions>,
}

impl InMemAnalytics {
    /// Create an ALS benchmark with `users` users, `movies` movies,
    /// `ratings_per_user` ratings each, iterated for `sweeps` alternations.
    pub fn new(users: usize, movies: usize, ratings_per_user: usize, sweeps: usize) -> Self {
        let mut r = ratings(users, movies, ratings_per_user, 0xA15);
        r.sort_by_key(|x| x.user);
        let mut user_offsets = vec![0u32; users + 1];
        for rating in &r {
            user_offsets[rating.user as usize + 1] += 1;
        }
        for u in 0..users {
            user_offsets[u + 1] += user_offsets[u];
        }
        InMemAnalytics {
            users,
            movies,
            sweeps,
            ratings: r,
            user_offsets,
            user_factors: vec![0.1; users * RANK],
            item_factors: vec![0.1; movies * RANK],
            regions: None,
        }
    }

    /// Number of ratings.
    pub fn num_ratings(&self) -> usize {
        self.ratings.len()
    }

    /// Root-mean-square error of the current factorisation over the ratings.
    pub fn rmse(&self) -> f64 {
        let mut se = 0.0f64;
        for r in &self.ratings {
            let (u, m) = (r.user as usize, r.movie as usize);
            let pred = predict(row(&self.user_factors, u), row(&self.item_factors, m));
            se += (pred - r.value as f64).powi(2);
        }
        (se / self.ratings.len().max(1) as f64).sqrt()
    }
}

/// Row `i` of a factor matrix.
fn row(factors: &[f32], i: usize) -> &[f32] {
    &factors[i * RANK..(i + 1) * RANK]
}

/// The predicted rating of a user and a movie: their factor rows' dot product.
fn predict(uf: &[f32], mf: &[f32]) -> f64 {
    uf.iter().zip(mf).map(|(a, b)| (*a as f64) * (*b as f64)).sum()
}

impl Workload for InMemAnalytics {
    fn name(&self) -> &'static str {
        "inmem-analytics"
    }

    fn setup(&mut self, machine: &Machine, annotations: &Annotations) -> Result<(), NmoError> {
        let ratings_bytes = self.ratings.len() as u64 * 12;
        let uf_bytes = (self.users * RANK * 4) as u64;
        let if_bytes = (self.movies * RANK * 4) as u64;
        let ratings = machine.alloc("ratings", ratings_bytes)?;
        let user_factors = machine.alloc("user_factors", uf_bytes)?;
        let item_factors = machine.alloc("item_factors", if_bytes)?;
        annotations.tag_addr("ratings", ratings.start, ratings.end());
        annotations.tag_addr("user_factors", user_factors.start, user_factors.end());
        annotations.tag_addr("item_factors", item_factors.start, item_factors.end());
        self.regions = Some(Regions { ratings, user_factors, item_factors });
        Ok(())
    }

    fn run(
        &mut self,
        machine: &Machine,
        annotations: &Annotations,
        cores: &[usize],
    ) -> Result<WorkloadReport, NmoError> {
        let regions = self.regions.as_ref().ok_or_else(|| {
            NmoError::Workload("inmem-analytics: run() called before setup()".into())
        })?;
        let users = self.users;
        let (rr, ru, ri) =
            (regions.ratings.start, regions.user_factors.start, regions.item_factors.start);
        let ratings_ref = &self.ratings;
        let offsets = &self.user_offsets;

        let mut report = WorkloadReport::default();
        for sweep in 0..self.sweeps {
            // User sweep: for each user, read its ratings and the item factor
            // rows, update the user factor row (gradient step).
            annotations.start("als-user-sweep", machine.makespan_ns());
            let itf = &self.item_factors;
            let user_result = parallel_chunks(
                machine,
                cores,
                users,
                &mut self.user_factors,
                |urange, rows, engine| {
                    for (u, uf) in urange.zip(rows.chunks_exact_mut(RANK)) {
                        let (r0, r1) = (offsets[u] as usize, offsets[u + 1] as usize);
                        // Load this user's factor row.
                        for k in 0..RANK {
                            engine.load_at(pc::ALS_USER, ru + ((u * RANK + k) * 4) as u64, 4);
                        }
                        for (ridx, rating) in ratings_ref[r0..r1].iter().enumerate() {
                            engine.load_at(pc::ALS_USER, rr + ((r0 + ridx) * 12) as u64, 12);
                            let m = rating.movie as usize;
                            // Gather the item factor row (scattered by movie id).
                            for k in 0..RANK {
                                engine.load_at(pc::ALS_USER, ri + ((m * RANK + k) * 4) as u64, 4);
                            }
                            let mf = row(itf, m);
                            let err = rating.value as f64 - predict(uf, mf);
                            for (cur, item) in uf.iter_mut().zip(mf) {
                                *cur = (*cur as f64 + 0.01 * err * *item as f64) as f32;
                            }
                            engine.flops(4 * RANK as u64);
                        }
                        // Store the updated user factor row.
                        for k in 0..RANK {
                            engine.store_at(pc::ALS_USER, ru + ((u * RANK + k) * 4) as u64, 4);
                        }
                        engine.cpu_work(8);
                    }
                },
            );
            annotations.stop(machine.makespan_ns());
            user_result?;

            // Item sweep: symmetric pass reading user rows and updating item
            // rows, partitioned by user range, so any core may update any
            // movie's row. The rows are atomics (f32 bit patterns) for the
            // pass; the cores take turns in simulated time, so the order of
            // the updates, and every value, follow the simulated clocks.
            annotations.start("als-item-sweep", machine.makespan_ns());
            let uf = &self.user_factors;
            let items: Vec<AtomicU32> =
                self.item_factors.iter().map(|f| AtomicU32::new(f.to_bits())).collect();
            // relaxed-ok: a core reads and writes the rows only while it
            // holds the turn, and handing the turn on orders its writes
            // before the next holder's reads.
            let item = |i: usize| f32::from_bits(items[i].load(Ordering::Relaxed));
            let item_result =
                parallel_chunks(machine, cores, users, &mut [(); 0], |urange, _, engine| {
                    for u in urange {
                        let (r0, r1) = (offsets[u] as usize, offsets[u + 1] as usize);
                        let user = row(uf, u);
                        for (ridx, rating) in ratings_ref[r0..r1].iter().enumerate() {
                            engine.load_at(pc::ALS_ITEM, rr + ((r0 + ridx) * 12) as u64, 12);
                            let m = rating.movie as usize;
                            for k in 0..RANK {
                                engine.load_at(pc::ALS_ITEM, ru + ((u * RANK + k) * 4) as u64, 4);
                                engine.load_at(pc::ALS_ITEM, ri + ((m * RANK + k) * 4) as u64, 4);
                            }
                            let mf: [f32; RANK] = std::array::from_fn(|k| item(m * RANK + k));
                            let err = rating.value as f64 - predict(user, &mf);
                            for (k, &x) in user.iter().enumerate() {
                                let cur =
                                    (item(m * RANK + k) as f64 + 0.01 * err * x as f64) as f32;
                                // relaxed-ok: as the load above.
                                items[m * RANK + k].store(cur.to_bits(), Ordering::Relaxed);
                                engine.store_at(pc::ALS_ITEM, ri + ((m * RANK + k) * 4) as u64, 4);
                            }
                            engine.flops(4 * RANK as u64);
                        }
                        engine.cpu_work(8);
                    }
                });
            annotations.stop(machine.makespan_ns());
            item_result?;
            for (f, bits) in self.item_factors.iter_mut().zip(items) {
                *f = f32::from_bits(bits.into_inner());
            }

            // Between sweeps the driver does bookkeeping with little memory
            // traffic, which creates the bandwidth troughs of Figure 3.
            if sweep + 1 < self.sweeps {
                parallel_on_cores(machine, cores, |_tid, engine| {
                    engine.cpu_work(200_000);
                })?;
            }
        }

        let counters = machine.counters();
        report.mem_ops = counters.mem_access;
        report.flops = counters.flops;
        report.checksum = self.rmse();
        Ok(report)
    }

    fn verify(&self) -> bool {
        // Training must reduce the RMSE below the trivial all-0.1 predictor
        // and keep every factor finite.
        let trivial = {
            let pred = 0.1f64 * 0.1 * RANK as f64;
            let se: f64 = self.ratings.iter().map(|r| (pred - r.value as f64).powi(2)).sum::<f64>();
            (se / self.ratings.len().max(1) as f64).sqrt()
        };
        self.user_factors.iter().chain(&self.item_factors).all(|f| f.is_finite())
            && self.rmse() < trivial
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arch_sim::MachineConfig;

    #[test]
    fn als_reduces_rmse() {
        let machine = Machine::new(MachineConfig::small_test());
        let ann = Annotations::new();
        let mut bench = InMemAnalytics::new(200, 500, 20, 3);
        bench.setup(&machine, &ann).unwrap();
        let before = bench.rmse();
        let report = bench.run(&machine, &ann, &[0, 1]).unwrap();
        let after = bench.rmse();
        assert!(after < before, "RMSE should drop: {before} -> {after}");
        assert!(bench.verify());
        assert!(report.mem_ops > 0);
    }

    #[test]
    fn phases_alternate_user_and_item_sweeps() {
        let machine = Machine::new(MachineConfig::small_test());
        let ann = Annotations::new();
        let mut bench = InMemAnalytics::new(64, 128, 10, 2);
        bench.setup(&machine, &ann).unwrap();
        bench.run(&machine, &ann, &[0]).unwrap();
        let names: Vec<String> = ann.phases().iter().map(|p| p.name.clone()).collect();
        assert_eq!(
            names,
            vec!["als-user-sweep", "als-item-sweep", "als-user-sweep", "als-item-sweep"]
        );
    }

    #[test]
    fn memory_grows_as_structures_are_touched() {
        let machine = Machine::new(MachineConfig::small_test());
        let ann = Annotations::new();
        let mut bench = InMemAnalytics::new(256, 512, 16, 1);
        bench.setup(&machine, &ann).unwrap();
        assert_eq!(machine.rss_bytes(), 0, "allocation alone is not residency");
        bench.run(&machine, &ann, &[0, 1]).unwrap();
        assert!(machine.rss_bytes() > 0);
        assert!(!machine.rss_series().is_empty());
    }

    #[test]
    fn deterministic_rating_layout() {
        let a = InMemAnalytics::new(50, 100, 5, 1);
        let b = InMemAnalytics::new(50, 100, 5, 1);
        assert_eq!(a.num_ratings(), b.num_ratings());
        assert_eq!(a.user_offsets, b.user_offsets);
    }
}
