//! The event-core microbench workload, replayed by `perfbench` for its
//! `netsim.events.ns_per_op` layer number.
//!
//! The workload replays the event-queue access pattern of a 10⁵-receiver
//! churn simulation directly against the [`EventQueue`] implementations: a
//! *hold model* with `pending` concurrent events (one outstanding
//! timer/arrival per receiver — the steady state of `fig22_churn` at
//! paper scale), where every pop schedules a replacement a short random
//! hold time ahead, and a quarter of the operations also schedule a
//! far-future decoy timer that is cancelled a few operations later (the
//! suppression-timer churn of TFMCC receivers).  With 10⁵ events in the
//! queue this is exactly the regime where the calendar queue's amortized
//! O(1) schedule/pop beats the binary heap's O(log n) sift.
//!
//! Both schedulers run the identical operation sequence; a checksum over
//! the popped `(seq)` stream asserts they popped the same events in the
//! same order, so the benchmark doubles as an equivalence check.

use std::time::Instant;

use netsim::events::{EventQueue, SchedulerKind};
use netsim::time::SimTime;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Concurrent event count of the standard workload (one outstanding event
/// per receiver of the 10⁵-receiver churn scenario).
pub const STANDARD_PENDING: usize = 100_000;

/// Pop/schedule operations of the standard workload.
pub const STANDARD_OPS: u64 = 1_000_000;

/// Runs the hold-model workload and returns `(wall_seconds, checksum)`.
/// The checksum folds every popped sequence number and is identical across
/// schedulers (asserted by [`measure_event_core`]).
pub fn run_event_workload(pending: usize, ops: u64, kind: SchedulerKind) -> (f64, u64) {
    let mut queue = kind.build::<u64>();
    let mut rng = SmallRng::seed_from_u64(0xEC0DE);
    let mut seq = 0u64;
    let schedule = |q: &mut dyn EventQueue<u64>, at: f64, seq: &mut u64| -> (f64, u64) {
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
        schedule(queue.as_mut(), at, &mut seq);
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
        schedule(queue.as_mut(), now + hold, &mut seq);
        if op % 4 == 0 {
            // Decoy timer far in the future, cancelled a few ops later —
            // never popped, exercising tombstones / in-place removal.
            let decoy = schedule(queue.as_mut(), now + 50.0, &mut seq);
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

/// The paired measurement: the same workload under both schedulers.
#[derive(Debug, Clone, Copy)]
pub struct EventCoreMeasurement {
    /// Concurrent events held in the queue.
    pub pending: usize,
    /// Pop/schedule operations timed.
    pub ops: u64,
    /// Wall seconds under the binary-heap scheduler.
    pub heap_secs: f64,
    /// Wall seconds under the calendar-queue scheduler.
    pub calendar_secs: f64,
}

impl EventCoreMeasurement {
    /// Calendar event throughput divided by heap event throughput.
    pub fn speedup(&self) -> f64 {
        self.heap_secs / self.calendar_secs.max(1e-12)
    }

    /// Events per wall second under the heap scheduler.
    pub fn heap_events_per_sec(&self) -> f64 {
        self.ops as f64 / self.heap_secs.max(1e-12)
    }

    /// Events per wall second under the calendar scheduler.
    pub fn calendar_events_per_sec(&self) -> f64 {
        self.ops as f64 / self.calendar_secs.max(1e-12)
    }
}

/// Measures the workload at `pending` concurrent events under both
/// schedulers, asserting they popped identical event sequences.
pub fn measure_event_core(pending: usize, ops: u64) -> EventCoreMeasurement {
    let (heap_secs, heap_sum) = run_event_workload(pending, ops, SchedulerKind::Heap);
    let (calendar_secs, calendar_sum) = run_event_workload(pending, ops, SchedulerKind::Calendar);
    assert_eq!(
        heap_sum, calendar_sum,
        "schedulers popped different event sequences"
    );
    EventCoreMeasurement {
        pending,
        ops,
        heap_secs,
        calendar_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down measurement: the two schedulers must agree on the pop
    /// sequence.  Wall-clock ordering is only sanity-checked loosely —
    /// timing assertions in unit tests flake on loaded machines; `perfbench`
    /// is where the two schedulers are timed.
    #[test]
    fn schedulers_agree_on_the_bench_workload() {
        let m = measure_event_core(5_000, 20_000);
        assert_eq!(m.pending, 5_000);
        assert!(m.heap_secs > 0.0 && m.calendar_secs > 0.0);
        assert!(
            m.speedup() > 0.2,
            "calendar queue catastrophically slower than the heap: {:.2}x",
            m.speedup()
        );
    }
}
