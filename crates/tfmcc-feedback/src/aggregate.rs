//! Deterministic aggregate feedback suppression for fluid populations.
//!
//! The Monte-Carlo machinery in [`crate::round`] samples every receiver's
//! timer; a fluid population cannot afford that (and must stay
//! deterministic).  Instead, each quantized rate bin of a population places
//! **one** representative timer at the *expected minimum* of its `n_k`
//! member draws: for `n_k` i.i.d. uniforms the expected minimum is
//! `1/(n_k + 1)`, which is fed through the exact
//! [`FeedbackPlanner::timer`] formula the packet-level receivers use.  The
//! suppression dynamics are then evaluated in closed form:
//!
//! * the bin whose representative timer fires first always responds;
//! * any other bin responds only if its timer fires before the first
//!   response has propagated back (`first + suppression_delay`) **and** the
//!   rate-based cancellation rule ([`FeedbackPlanner::should_cancel`])
//!   would not cancel it against the first response's rate.
//!
//! This is the per-round work a fluid population agent does: `O(bins)`
//! regardless of the receiver count, with the same bias/cancellation
//! constants as the packet-level path, so the synthetic reports a hybrid
//! session injects into the sender are governed by the very code paths the
//! equivalence tests pin.

use tfmcc_proto::feedback::FeedbackPlanner;

/// One quantized bin offered to an aggregate round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregateBin {
    /// Number of receivers the bin stands for.
    pub count: u64,
    /// The bin's calculated rate (bytes/s); infinite for lossless bins.
    pub rate: f64,
    /// The bin's representative RTT in seconds.
    pub rtt: f64,
}

/// A bin's scheduled response within one aggregate round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregateResponse {
    /// Index of the bin in the input slice.
    pub bin: usize,
    /// When the representative timer fires, seconds from round start.
    pub fire_at: f64,
    /// Number of receivers the response stands for.
    pub weight: u64,
    /// The reported rate.
    pub rate: f64,
}

/// The expected-minimum uniform sample for `n` i.i.d. draws: `1/(n+1)`.
///
/// Plugging this into the (monotone) timer formula places the bin's
/// representative timer at a deterministic, principled point of the order
/// statistics instead of sampling.
pub fn expected_min_uniform(n: u64) -> f64 {
    1.0 / (n as f64 + 1.0)
}

/// Evaluates one deterministic aggregate feedback round.
///
/// * `planner` — the same planner (bias constants, `N` estimate) the
///   packet-level receivers use,
/// * `bins` — the population's quantized bins,
/// * `sending_rate` — the sender's current rate (denominator of the bias
///   ratio),
/// * `window` — the feedback window `T` in seconds,
/// * `suppression_delay` — how long after the first response fires the
///   suppressing echo reaches the other bins (one-way delay to the sender
///   plus the echo's return, typically ≈ one RTT).
///
/// Returns the responding bins ordered by fire time (ties by bin index).
/// Empty input gives an empty round.
pub fn aggregate_round(
    planner: &FeedbackPlanner,
    bins: &[AggregateBin],
    sending_rate: f64,
    window: f64,
    suppression_delay: f64,
) -> Vec<AggregateResponse> {
    assert!(
        suppression_delay >= 0.0,
        "suppression delay must be non-negative"
    );
    let mut timers = aggregate_timers(planner, bins, sending_rate, window);
    let Some(first) = timers.first().copied() else {
        return timers;
    };
    let horizon = first.fire_at + suppression_delay;
    timers.retain(|t| {
        t.bin == first.bin || (t.fire_at <= horizon && !planner.should_cancel(t.rate, first.rate))
    });
    timers
}

/// Every bin's deterministic representative timer, **without** suppression —
/// the census a fluid population agent performs in its first feedback round
/// so the sender learns the whole rate distribution (and the population
/// head-count) before the suppressed steady state sets in.
///
/// Returns one response per non-empty bin, ordered by fire time (ties by bin
/// index).
pub fn aggregate_timers(
    planner: &FeedbackPlanner,
    bins: &[AggregateBin],
    sending_rate: f64,
    window: f64,
) -> Vec<AggregateResponse> {
    assert!(
        sending_rate > 0.0,
        "aggregate round needs a positive sending rate"
    );
    let mut timers: Vec<AggregateResponse> = bins
        .iter()
        .enumerate()
        .filter(|(_, b)| b.count > 0)
        .map(|(i, b)| {
            let ratio = if b.rate.is_finite() {
                b.rate / sending_rate
            } else {
                1.0
            };
            AggregateResponse {
                bin: i,
                fire_at: planner.timer(ratio, window, expected_min_uniform(b.count)),
                weight: b.count,
                rate: b.rate,
            }
        })
        .collect();
    timers.sort_by(|a, b| a.fire_at.total_cmp(&b.fire_at).then(a.bin.cmp(&b.bin)));
    timers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planner() -> FeedbackPlanner {
        FeedbackPlanner::default()
    }

    fn bin(count: u64, rate: f64) -> AggregateBin {
        AggregateBin {
            count,
            rate,
            rtt: 0.1,
        }
    }

    #[test]
    fn expected_min_uniform_shrinks_with_count() {
        assert_eq!(expected_min_uniform(1), 0.5);
        assert!(expected_min_uniform(1000) < expected_min_uniform(10));
        assert!(expected_min_uniform(u64::MAX) > 0.0);
    }

    #[test]
    fn empty_and_zero_count_bins_produce_no_responses() {
        let p = planner();
        assert!(aggregate_round(&p, &[], 1000.0, 3.0, 0.1).is_empty());
        let r = aggregate_round(&p, &[bin(0, 500.0)], 1000.0, 3.0, 0.1);
        assert!(r.is_empty());
    }

    #[test]
    fn lowest_rate_bin_always_responds() {
        let p = planner();
        let bins = [bin(1000, 900.0), bin(1000, 400.0), bin(1000, 700.0)];
        let r = aggregate_round(&p, &bins, 1000.0, 3.0, 0.1);
        assert!(!r.is_empty());
        // The slowest bin has the strongest bias, so it fires first and its
        // report survives.
        assert_eq!(r[0].bin, 1);
        assert_eq!(r[0].weight, 1000);
        assert_eq!(r[0].rate, 400.0);
    }

    #[test]
    fn near_equal_rates_are_suppressed() {
        let p = planner(); // alpha = 0.1
        let bins = [bin(1000, 400.0), bin(1000, 401.0), bin(1000, 405.0)];
        let r = aggregate_round(&p, &bins, 1000.0, 3.0, 10.0);
        // A huge suppression delay lets every timer fire before the echo,
        // but the cancellation rule still kills the near-duplicates.
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].bin, 0);
    }

    #[test]
    fn distinctly_slower_bins_survive_when_firing_early_enough() {
        let p = planner();
        // Rates far enough apart that cancellation does not trigger
        // (0.5 < 0.9 * 400 → 360; 200 < 360 survives in the other
        // direction: the *slow* one fires first).
        let bins = [bin(1000, 200.0), bin(1000, 900.0)];
        let r = aggregate_round(&p, &bins, 1000.0, 3.0, 10.0);
        // Slow bin first; the fast bin's rate 900 ≥ 0.9·200, cancelled.
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].bin, 0);
        // Reverse: if the *fast* bin somehow fired first it would not
        // suppress the slow one — emulate by a zero suppression horizon.
        let r = aggregate_round(&p, &bins, 1000.0, 3.0, 0.0);
        assert_eq!(r[0].bin, 0, "bias must order the slow bin first");
    }

    #[test]
    fn infinite_rate_bins_report_no_finite_minimum() {
        let p = planner();
        let bins = [bin(1000, f64::INFINITY)];
        let r = aggregate_round(&p, &bins, 1000.0, 3.0, 0.1);
        assert_eq!(r.len(), 1);
        assert!(r[0].rate.is_infinite());
    }

    #[test]
    fn timers_are_deterministic() {
        let p = planner();
        let bins = [bin(123, 500.0), bin(456, 800.0)];
        let a = aggregate_round(&p, &bins, 1000.0, 3.0, 0.1);
        let b = aggregate_round(&p, &bins, 1000.0, 3.0, 0.1);
        assert_eq!(a, b);
    }

    #[test]
    fn bigger_bins_fire_earlier() {
        // More receivers → smaller expected-minimum uniform → earlier timer
        // (the exponential part is monotone in the uniform).
        let p = planner();
        let small = aggregate_round(&p, &[bin(10, 500.0)], 1000.0, 3.0, 0.0)[0].fire_at;
        let large = aggregate_round(&p, &[bin(100_000, 500.0)], 1000.0, 3.0, 0.0)[0].fire_at;
        assert!(large <= small, "large {large} vs small {small}");
    }
}
