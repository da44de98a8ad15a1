//! The sweep executor every figure runs its points on.
//!
//! The paper's evaluation is many *independent* seeded runs, so the
//! executor is a self-scheduling pool: workers claim the next unclaimed point
//! index from a shared atomic cursor and run it.  Determinism comes from the
//! per-point seed (`netsim::rng::stream_seed` over the sweep's base seed and
//! the point index) and from returning results in point order, so the output
//! of [`SweepRunner::run`] is identical for any thread count.
//!
//! A `netsim::Simulator` is simulation-local (its packets are `Rc`-shared,
//! so it is not `Send`): a closure builds and runs its simulation on the
//! worker that calls it and returns the results, never the simulation.
#![allow(
    clippy::disallowed_methods,
    reason = "timing layer: wall-clock reads time the sweep and its points, and no result depends on them"
)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use netsim::rng::stream_seed;

/// Timing record of one executed point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// Wall-clock seconds the point took.
    pub secs: f64,
}

/// Everything a [`SweepRunner`] executed: thread count and the per-point
/// records, each sweep's in point order.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Configured worker-thread count.
    pub threads: usize,
    /// Per-point timing records.
    pub records: Vec<PointRecord>,
}

impl RunReport {
    /// Total compute time summed over points (≈ wall time · threads when
    /// the sweep parallelises well).
    pub fn busy_secs(&self) -> f64 {
        self.records.iter().map(|r| r.secs).sum()
    }
}

/// Executes sweeps and accumulates per-point timing into a [`RunReport`].
///
/// With one thread (or one point) the points run inline on the calling
/// thread; otherwise `std::thread::scope` workers claim them from a shared
/// cursor.  Results are always returned in point order.
pub struct SweepRunner {
    threads: usize,
    records: Mutex<Vec<PointRecord>>,
}

impl SweepRunner {
    /// Creates a runner with the given worker-thread count (min 1).
    pub fn new(threads: usize) -> Self {
        SweepRunner {
            threads: threads.max(1),
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

    /// Runs every point through `f` and returns the results in point order.
    ///
    /// `f` gets the point and its seed, `stream_seed(base_seed, i)` for
    /// point `i`; it must derive all randomness from that seed for the
    /// sweep to be reproducible across thread counts.
    pub fn run<P, T, F>(&self, base_seed: u64, points: &[P], f: F) -> Vec<T>
    where
        P: Sync,
        T: Send,
        F: Fn(&P, u64) -> T + Sync,
    {
        let timed = |index: usize| {
            let start = Instant::now();
            let out = f(&points[index], stream_seed(base_seed, index as u64));
            (out, start.elapsed().as_secs_f64())
        };
        let n = points.len();
        let workers = self.threads.min(n);
        let (results, secs): (Vec<T>, Vec<f64>) = if workers <= 1 {
            (0..n).map(timed).unzip()
        } else {
            let cursor = AtomicUsize::new(0);
            let mut slots: Vec<Option<(T, f64)>> = Vec::with_capacity(n);
            slots.resize_with(n, || None);
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut done = Vec::new();
                            loop {
                                let index = cursor.fetch_add(1, Ordering::Relaxed);
                                if index >= n {
                                    return done;
                                }
                                done.push((index, timed(index)));
                            }
                        })
                    })
                    .collect();
                for worker in workers {
                    let done = worker
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                    for (index, out) in done {
                        slots[index] = Some(out);
                    }
                }
            });
            slots
                .into_iter()
                .map(|slot| slot.expect("a worker ran every point"))
                .unzip()
        };
        self.records
            .lock()
            .expect("runner record lock poisoned")
            .extend(secs.into_iter().map(|secs| PointRecord { secs }));
        results
    }

    /// Runs one self-contained simulation as a one-point sweep, so that its
    /// time shows in [`SweepRunner::report`] like any other point's.
    pub fn run_one<T: Send>(&self, f: impl Fn() -> T + Sync) -> T {
        self.run(0, &[()], |_, _| f())
            .pop()
            .expect("one point yields one result")
    }

    /// Snapshot of everything run so far: the per-point timings.
    pub fn report(&self) -> RunReport {
        RunReport {
            threads: self.threads,
            records: self
                .records
                .lock()
                .expect("runner record lock poisoned")
                .clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let points: Vec<u64> = (0..7).flat_map(|k| [1 << k; 13]).collect();
        let work = |&n: &u64, seed| mix(seed, n);
        let serial = SweepRunner::new(1).run(99, &points, work);
        for threads in [2, 3, 8] {
            let parallel = SweepRunner::new(threads).run(99, &points, work);
            assert_eq!(serial, parallel, "results differ at {threads} threads");
        }
    }

    #[test]
    fn report_records_every_point_in_order() {
        // Point `i` sleeps for at least `pause(i)`, shorter for later
        // points: the records of a report in completion order would start
        // with a short point and break the lower bounds below.
        let pause = |i: usize| std::time::Duration::from_micros(100 * (39 - i as u64));
        let points: Vec<usize> = (0..40).collect();
        let runner = SweepRunner::new(4);
        let out = runner.run(5, &points, |&i, _| {
            std::thread::sleep(pause(i));
            i
        });
        assert_eq!(out, points);
        let report = runner.report();
        assert_eq!(report.threads, 4);
        assert_eq!(report.records.len(), 40);
        for (i, rec) in report.records.iter().enumerate() {
            assert!(
                rec.secs >= pause(i).as_secs_f64(),
                "record {i}: {}",
                rec.secs
            );
        }
    }

    #[test]
    fn empty_sweep_returns_empty() {
        let out = SweepRunner::new(8).run(0, &[] as &[u32], |&v, _| v);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_points_is_fine() {
        let out = SweepRunner::new(16).run(1, &[10u64, 20], |&v, seed| (v, seed));
        assert_eq!(out, vec![(10, stream_seed(1, 0)), (20, stream_seed(1, 1))]);
    }

    #[test]
    fn one_thread_or_one_point_runs_inline() {
        let caller = std::thread::current().id();
        let on_caller = |_: &u8, _| std::thread::current().id() == caller;
        assert!(SweepRunner::new(1)
            .run(0, &[0; 5], on_caller)
            .iter()
            .all(|&b| b));
        assert!(SweepRunner::new(8).run(0, &[0], on_caller)[0]);
        assert!(!SweepRunner::new(2).run(0, &[0; 2], on_caller)[0]);
    }

    #[test]
    #[should_panic(expected = "point 3 failed")]
    fn a_panicking_point_reaches_the_caller() {
        SweepRunner::new(4).run(0, &[0, 1, 2, 3, 4], |&i, _| {
            assert!(i != 3, "point {i} failed");
        });
    }

    #[test]
    fn records_accumulate_across_sweeps() {
        let runner = SweepRunner::new(3);
        runner.run(0, &[1, 2, 3], |&v, _| v);
        runner.run_one(|| ());
        runner.run(1, &[] as &[u8], |&v, _| v);
        assert_eq!(runner.report().records.len(), 4);
    }

    #[test]
    fn single_sim_round_trips_the_figure() {
        let runner = SweepRunner::new(4);
        let fig = runner.run_one(|| crate::Figure::new("figX", "t", "x", "y"));
        assert_eq!(fig.id, "figX");
        assert_eq!(runner.report().records.len(), 1);
    }

    #[test]
    fn busy_time_sums_points() {
        let report = RunReport {
            threads: 2,
            records: vec![PointRecord { secs: 0.5 }, PointRecord { secs: 1.0 }],
        };
        assert!((report.busy_secs() - 1.5).abs() < 1e-12);
    }
}
