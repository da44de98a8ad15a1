//! The work-stealing sweep executor.
//!
//! Points of a sweep are independent, so the executor is a self-scheduling
//! pool: workers steal the next unclaimed point index from a shared atomic
//! cursor, run it, and send the result back over a channel.  Determinism
//! comes from the seed derivation (per-point, index-based — see
//! [`crate::seed`]) and from collecting results into point order before
//! returning, so the output of [`SweepRunner::run`] is identical for any
//! thread count.
#![allow(
    clippy::disallowed_methods,
    reason = "timing layer: wall-clock reads time the sweep and its points, and no result depends on them"
)]

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::progress::{PointRecord, RunReport};
use crate::sweep::Sweep;

/// One scheduled point handed to the sweep closure: the point value plus its
/// index and deterministic seed.
#[derive(Debug, Clone, Copy)]
pub struct Point<'a, P> {
    /// The point's parameter assignment.
    pub value: &'a P,
    /// Index of the point within its sweep.
    pub index: usize,
    /// The point's derived RNG seed (stable for any thread count).
    pub seed: u64,
}

/// Executes sweeps on a pool of worker threads and accumulates per-point
/// timing into a [`RunReport`].
///
/// A runner with one thread executes inline on the calling thread; more
/// threads use `std::thread::scope` workers that self-schedule points from a
/// shared queue (work stealing degenerates to an atomic cursor because every
/// point is visible to every worker).  Results are always returned in point
/// order.
pub struct SweepRunner {
    threads: usize,
    created: Instant,
    records: Mutex<Vec<PointRecord>>,
}

impl SweepRunner {
    /// Creates a runner with the given worker-thread count (min 1).
    pub fn new(threads: usize) -> Self {
        SweepRunner {
            threads: threads.max(1),
            created: Instant::now(),
            records: Mutex::new(Vec::new()),
        }
    }

    /// A single-threaded runner (tests, benches, library callers).
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every point of `sweep` through `f` and returns the results in
    /// point order.
    ///
    /// `f` is called with a [`Point`] carrying the value, index and derived
    /// seed; it must derive all randomness from that seed for the sweep to be
    /// reproducible across thread counts.
    pub fn run<P, T, F>(&self, sweep: &Sweep<P>, f: F) -> Vec<T>
    where
        P: Sync,
        T: Send,
        F: Fn(Point<'_, P>) -> T + Sync,
    {
        let n = sweep.len();
        let workers = self.threads.min(n).max(1);
        let mut results: Vec<Option<T>> = Vec::with_capacity(n);
        results.resize_with(n, || None);
        let mut records: Vec<PointRecord> = Vec::with_capacity(n);

        if workers == 1 {
            for (index, value) in sweep.points().iter().enumerate() {
                let seed = sweep.seed_for(index);
                let start = Instant::now();
                let out = f(Point { value, index, seed });
                records.push(PointRecord {
                    sweep: sweep.name().to_string(),
                    index,
                    seed,
                    secs: start.elapsed().as_secs_f64(),
                    worker: 0,
                });
                results[index] = Some(out);
            }
        } else {
            let cursor = AtomicUsize::new(0);
            let (tx, rx) = std::sync::mpsc::sync_channel(n);
            std::thread::scope(|scope| {
                for worker in 0..workers {
                    let tx = tx.clone();
                    let cursor = &cursor;
                    let f = &f;
                    scope.spawn(move || loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= n {
                            break;
                        }
                        let value = &sweep.points()[index];
                        let seed = sweep.seed_for(index);
                        let start = Instant::now();
                        let out = f(Point { value, index, seed });
                        let secs = start.elapsed().as_secs_f64();
                        // The receiver only disappears if the collecting side
                        // panicked; the scope will propagate that panic.
                        let _ = tx.send((index, seed, out, secs, worker));
                    });
                }
                drop(tx);
                while let Ok((index, seed, out, secs, worker)) = rx.recv() {
                    results[index] = Some(out);
                    records.push(PointRecord {
                        sweep: sweep.name().to_string(),
                        index,
                        seed,
                        secs,
                        worker,
                    });
                }
            });
            // Completion order is nondeterministic; the report is kept in
            // point order so it, too, is stable.
            records.sort_by_key(|r| r.index);
        }

        self.records
            .lock()
            .expect("runner record lock poisoned")
            .extend(records);
        results
            .into_iter()
            .map(|slot| slot.expect("worker finished every claimed point"))
            .collect()
    }

    /// Snapshot of everything run so far: per-point timings plus the wall
    /// clock elapsed since the runner was created.
    pub fn report(&self) -> RunReport {
        RunReport {
            threads: self.threads,
            wall_secs: self.created.elapsed().as_secs_f64(),
            records: self
                .records
                .lock()
                .expect("runner record lock poisoned")
                .clone(),
        }
    }

    /// Writes the current [`RunReport`] as a `BENCH_*.json`-style trajectory
    /// to `path`.
    pub fn write_bench_json(&self, name: &str, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.report().to_bench_json(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::ParamGrid;

    /// A deterministic, seed-sensitive workload.
    fn mix(seed: u64, extra: u64) -> u64 {
        let mut x = seed ^ extra.wrapping_mul(0x2545_F491_4F6C_DD1D);
        for _ in 0..32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        x
    }

    #[test]
    fn results_are_in_point_order_and_thread_count_invariant() {
        let sweep = ParamGrid::new()
            .receivers(vec![1, 2, 4, 8, 16, 32, 64])
            .replicas(13)
            .build("exec-test", 99);
        let work = |pt: Point<'_, crate::sweep::GridPoint>| mix(pt.seed, pt.value.receivers as u64);
        let serial = SweepRunner::new(1).run(&sweep, work);
        for threads in [2, 3, 8] {
            let parallel = SweepRunner::new(threads).run(&sweep, work);
            assert_eq!(serial, parallel, "results differ at {threads} threads");
        }
    }

    #[test]
    fn report_records_every_point_in_order() {
        let sweep = Sweep::new("timed", 5, (0..40).collect::<Vec<u64>>());
        let runner = SweepRunner::new(4);
        let out = runner.run(&sweep, |pt| mix(pt.seed, *pt.value));
        assert_eq!(out.len(), 40);
        let report = runner.report();
        assert_eq!(report.threads, 4);
        assert_eq!(report.records.len(), 40);
        for (i, rec) in report.records.iter().enumerate() {
            assert_eq!(rec.index, i);
            assert_eq!(rec.sweep, "timed");
            assert_eq!(rec.seed, sweep.seed_for(i));
            assert!(rec.secs >= 0.0);
        }
    }

    #[test]
    fn empty_sweep_returns_empty() {
        let sweep: Sweep<u32> = Sweep::new("empty", 0, Vec::new());
        let out = SweepRunner::new(8).run(&sweep, |pt| *pt.value);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_points_is_fine() {
        let sweep = Sweep::new("tiny", 1, vec![10u64, 20]);
        let out = SweepRunner::new(16).run(&sweep, |pt| *pt.value + pt.index as u64);
        assert_eq!(out, vec![10, 21]);
    }
}
