//! The event-core microbench workload, replayed by `perfbench` for its
//! `netsim.events.ns_per_op` layer number.
//!
//! The workload replays the event-queue access pattern of a 10⁵-receiver
//! churn simulation directly against the [`CalendarQueue`]: a
//! *hold model* with `pending` concurrent events (one outstanding
//! timer/arrival per receiver — the steady state of `fig22_churn` at
//! paper scale), where every pop schedules a replacement a short random
//! hold time ahead, and a quarter of the operations also schedule a
//! far-future decoy timer that is cancelled a few operations later (the
//! suppression-timer churn of TFMCC receivers).
#![allow(
    clippy::disallowed_methods,
    reason = "timing layer: the wall clock times the workload, and no result depends on it"
)]

use std::time::Instant;

use netsim::events::{CalendarQueue, SchedulerKind};
use netsim::time::SimTime;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Runs the hold-model workload and returns `(wall_seconds, checksum)`.
/// The checksum folds every popped sequence number.
///
/// The third parameter is ignored: it exists only because
/// `perfbench/src/replay.rs` still passes it (the benchmark is frozen outside
/// `[benchmark]` PRs); delete it once that call is updated.
pub fn run_event_workload(pending: usize, ops: u64, _: SchedulerKind) -> (f64, u64) {
    let mut queue = CalendarQueue::new();
    let mut rng = SmallRng::seed_from_u64(0xEC0DE);
    let mut seq = 0u64;
    let schedule = |q: &mut CalendarQueue<u64>, at: f64, seq: &mut u64| -> (f64, u64) {
        let s = *seq;
        *seq += 1;
        q.schedule(SimTime::from_secs(at), s, s);
        (at, s)
    };
    // Prefill: `pending` events inside one hold window — the steady state
    // of the model, where every receiver has exactly one outstanding
    // near-term timer or arrival.
    for _ in 0..pending {
        let at = rng.gen_range(0.0..0.01);
        schedule(&mut queue, at, &mut seq);
    }
    let mut checksum = 0u64;
    let mut decoys: Vec<(f64, u64)> = Vec::with_capacity(16);
    let started = Instant::now();
    for op in 0..ops {
        let (time, s, _) = queue.pop().expect("hold model never empties");
        let now = time.as_secs();
        checksum = checksum.wrapping_mul(0x100_0000_01B3).wrapping_add(s);
        // Replacement: a short random hold keeps the queue at `pending`.
        let hold = rng.gen_range(1e-5..0.01);
        schedule(&mut queue, now + hold, &mut seq);
        if op % 4 == 0 {
            // Decoy timer far in the future, cancelled a few ops later —
            // never popped, exercising in-place removal.
            let decoy = schedule(&mut queue, now + 50.0, &mut seq);
            decoys.push(decoy);
            if decoys.len() > 8 {
                let (at, s) = decoys.remove(0);
                queue.cancel(SimTime::from_secs(at), s);
            }
        }
    }
    let wall = started.elapsed().as_secs_f64();
    (wall, checksum)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down run: the workload is deterministic (same checksum twice)
    /// and holds the queue at `pending` throughout (it never empties).
    #[test]
    fn bench_workload_is_deterministic() {
        let (wall, first) = run_event_workload(5_000, 20_000, SchedulerKind::Calendar);
        let (_, second) = run_event_workload(5_000, 20_000, SchedulerKind::Calendar);
        assert!(wall > 0.0);
        assert_eq!(first, second);
    }
}
