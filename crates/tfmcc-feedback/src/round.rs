//! Monte-Carlo simulation of a single feedback round (paper Figures 2, 3, 5
//! and 6).
//!
//! The model matches the paper's worst-case analysis: every receiver wants to
//! report (e.g. congestion suddenly affects the whole group), the sender
//! echoes the lowest report received so far, and an echo reaches the other
//! receivers one network delay `D` after the report was sent.  A receiver
//! whose timer fires at `t` is suppressed if, among the reports sent at or
//! before `t − D`, the lowest echoed value satisfies the cancellation rule.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use tfmcc_proto::feedback::FeedbackPlanner;

/// One receiver participating in a feedback round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundReceiver {
    /// The value this receiver would report, expressed as the ratio of its
    /// calculated rate to the current sending rate (0 = most urgent).
    pub rate_ratio: f64,
}

/// Result of simulating one feedback round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcome {
    /// `(send time, rate ratio)` of every report that was actually sent,
    /// in time order.
    pub responses: Vec<(f64, f64)>,
    /// Number of receivers whose timers were suppressed.
    pub suppressed: usize,
    /// Time of the first report, if any.
    pub first_response_at: Option<f64>,
    /// Lowest rate ratio among the sent reports, if any.
    pub best_reported: Option<f64>,
    /// True minimum rate ratio over the whole receiver set.
    pub true_minimum: f64,
}

impl RoundOutcome {
    /// Relative error of the best reported value versus the true minimum.
    /// `None` if nobody responded.
    pub fn quality(&self) -> Option<f64> {
        let best = self.best_reported?;
        if self.true_minimum <= 0.0 {
            return Some(best - self.true_minimum);
        }
        Some((best - self.true_minimum) / self.true_minimum)
    }

    /// Absolute error of the best reported value versus the true minimum, in
    /// rate-ratio units (fractions of the sending rate).  This is the measure
    /// plotted in paper Figure 6: 0.1 means the best report was 10 % of the
    /// sending rate above the true minimum.  `None` if nobody responded.
    pub fn quality_absolute(&self) -> Option<f64> {
        Some(self.best_reported? - self.true_minimum)
    }
}

/// A feedback-round simulator.
#[derive(Debug, Clone)]
pub struct FeedbackRound {
    /// Timer and cancellation parameters.
    pub planner: FeedbackPlanner,
    /// Feedback window `T` in seconds.
    pub window: f64,
    /// Network delay after which a sent report suppresses others, in seconds
    /// (for unicast feedback with multicast echo this is roughly one RTT).
    pub network_delay: f64,
}

impl FeedbackRound {
    /// Creates a round simulator.
    pub fn new(planner: FeedbackPlanner, window: f64, network_delay: f64) -> Self {
        assert!(window > 0.0 && network_delay >= 0.0);
        FeedbackRound {
            planner,
            window,
            network_delay,
        }
    }

    /// Simulates one round for the given receivers.
    pub fn simulate(&self, receivers: &[RoundReceiver], seed: u64) -> RoundOutcome {
        assert!(!receivers.is_empty(), "a round needs at least one receiver");
        let mut rng = SmallRng::seed_from_u64(seed);
        // Draw timers.
        let mut timers: Vec<(f64, f64)> = receivers
            .iter()
            .map(|r| {
                let uniform: f64 = rng.gen_range(1e-12..=1.0);
                let t = self.planner.timer(r.rate_ratio, self.window, uniform);
                (t, r.rate_ratio)
            })
            .collect();
        timers.sort_by(|a, b| a.partial_cmp(b).expect("timers are never NaN"));
        let true_minimum = receivers
            .iter()
            .map(|r| r.rate_ratio)
            .fold(f64::INFINITY, f64::min);

        let mut responses: Vec<(f64, f64)> = Vec::new();
        let mut suppressed = 0usize;
        for &(t, value) in &timers {
            // Lowest value among reports the sender has echoed and that had
            // time to propagate back to this receiver.
            let echoed_min = responses
                .iter()
                .filter(|(sent_at, _)| sent_at + self.network_delay <= t)
                .map(|&(_, v)| v)
                .fold(f64::INFINITY, f64::min);
            let cancel = echoed_min.is_finite() && self.planner.should_cancel(value, echoed_min);
            if cancel {
                suppressed += 1;
            } else {
                responses.push((t, value));
            }
        }
        let first_response_at = responses.first().map(|&(t, _)| t);
        let best_reported = responses
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.min(v)))
            });
        RoundOutcome {
            responses,
            suppressed,
            first_response_at,
            best_reported,
            true_minimum,
        }
    }

    /// Convenience: simulates `runs` rounds with uniformly distributed rate
    /// ratios in `[0, 1]` over `n` receivers (the distribution used for the
    /// paper's Figures 2, 5 and 6) and returns the per-run outcomes.
    pub fn simulate_uniform(&self, n: usize, runs: usize, seed: u64) -> Vec<RoundOutcome> {
        self.simulate_uniform_range(n, runs, 0.0, 1.0, seed)
    }

    /// Like [`Self::simulate_uniform`] but with rate ratios drawn uniformly
    /// from `[lo, hi]` — used for the worst-case congestion scenarios where
    /// every receiver reports a similar low rate (paper Figure 3).
    pub fn simulate_uniform_range(
        &self,
        n: usize,
        runs: usize,
        lo: f64,
        hi: f64,
        seed: u64,
    ) -> Vec<RoundOutcome> {
        assert!(lo <= hi);
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..runs)
            .map(|i| {
                let receivers: Vec<RoundReceiver> = (0..n)
                    .map(|_| RoundReceiver {
                        rate_ratio: if lo == hi { lo } else { rng.gen_range(lo..=hi) },
                    })
                    .collect();
                self.simulate(&receivers, seed.wrapping_add(i as u64 + 1))
            })
            .collect()
    }

    /// Convenience: the paper's worst case where every receiver reports the
    /// same (saturated) value — used for the implosion analysis of Figure 3.
    pub fn simulate_worst_case(&self, n: usize, runs: usize, seed: u64) -> Vec<RoundOutcome> {
        let receivers = vec![RoundReceiver { rate_ratio: 0.0 }; n];
        (0..runs)
            .map(|i| self.simulate(&receivers, seed.wrapping_add(i as u64 + 1)))
            .collect()
    }
}

/// Mean number of responses over a set of outcomes.
pub fn mean_responses(outcomes: &[RoundOutcome]) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    outcomes
        .iter()
        .map(|o| o.responses.len() as f64)
        .sum::<f64>()
        / outcomes.len() as f64
}

/// Mean time of the first response over a set of outcomes (rounds where
/// nobody responded are skipped).
pub fn mean_first_response(outcomes: &[RoundOutcome]) -> f64 {
    let times: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| o.first_response_at)
        .collect();
    if times.is_empty() {
        0.0
    } else {
        times.iter().sum::<f64>() / times.len() as f64
    }
}

/// Mean feedback quality (relative error of the best report versus the true
/// minimum) over a set of outcomes.
pub fn mean_quality(outcomes: &[RoundOutcome]) -> f64 {
    let vals: Vec<f64> = outcomes.iter().filter_map(|o| o.quality()).collect();
    if vals.is_empty() {
        0.0
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// Mean absolute feedback quality (paper Figure 6 measure) over a set of
/// outcomes.
pub fn mean_quality_absolute(outcomes: &[RoundOutcome]) -> f64 {
    let vals: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| o.quality_absolute())
        .collect();
    if vals.is_empty() {
        0.0
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfmcc_proto::feedback::BiasMethod;

    fn planner(method: BiasMethod, alpha: f64) -> FeedbackPlanner {
        FeedbackPlanner {
            cancel_alpha: alpha,
            method,
        }
    }

    fn round(method: BiasMethod, alpha: f64) -> FeedbackRound {
        // Window of 6 network delays (TFMCC's T = 6·RTT_max) with a delay of
        // one unit, so the suppression interval T' = (1-δ)·T is the paper's
        // 4 RTTs.
        FeedbackRound::new(planner(method, alpha), 6.0, 1.0)
    }

    #[test]
    fn single_receiver_always_responds() {
        let r = round(BiasMethod::ModifiedOffset, 0.1);
        let out = r.simulate(&[RoundReceiver { rate_ratio: 0.3 }], 1);
        assert_eq!(out.responses.len(), 1);
        assert_eq!(out.suppressed, 0);
        assert_eq!(out.best_reported, Some(0.3));
        assert_eq!(out.quality(), Some(0.0));
    }

    #[test]
    fn suppression_prevents_implosion_in_worst_case() {
        let r = round(BiasMethod::ModifiedOffset, 1.0);
        for &n in &[10usize, 100, 1000] {
            let outcomes = r.simulate_worst_case(n, 5, 42);
            let mean = mean_responses(&outcomes);
            assert!(
                mean < 30.0,
                "n={n}: expected far fewer responses than receivers, got {mean}"
            );
            assert!(mean >= 1.0);
        }
    }

    #[test]
    fn alpha_zero_lets_lowest_rate_receiver_through() {
        // With alpha = 0 a receiver is only suppressed by strictly
        // lower-or-equal echoed values, so the receiver holding the true
        // minimum always reports.
        let r = round(BiasMethod::ModifiedOffset, 0.0);
        let outcomes = r.simulate_uniform(200, 20, 7);
        for o in &outcomes {
            assert_eq!(
                o.best_reported.unwrap(),
                o.true_minimum,
                "lowest receiver must never be suppressed with alpha = 0"
            );
        }
    }

    #[test]
    fn alpha_point_one_keeps_reports_close_to_minimum() {
        // Paper Section 2.5.2: alpha = 0.1 bounds the transient error at 10%.
        let r = round(BiasMethod::ModifiedOffset, 0.1);
        let outcomes = r.simulate_uniform(500, 30, 11);
        for o in &outcomes {
            let q = o.quality().unwrap();
            assert!(q <= 0.1 + 1e-9, "quality {q} exceeds the 10% bound");
        }
    }

    #[test]
    fn more_cancellation_means_fewer_responses() {
        let strict = round(BiasMethod::ModifiedOffset, 1.0);
        let lenient = round(BiasMethod::ModifiedOffset, 0.0);
        let n = 1000;
        let strict_mean = mean_responses(&strict.simulate_worst_case(n, 10, 3));
        let lenient_mean = mean_responses(&lenient.simulate_uniform(n, 10, 3));
        // With every receiver reporting the same value, alpha=1 cancels almost
        // everything; with alpha=0 and distinct values many more get through.
        assert!(strict_mean < lenient_mean);
    }

    #[test]
    fn biased_timers_report_better_values_than_unbiased() {
        // Paper Figure 6: the offset methods report rates considerably closer
        // to the true minimum than plain exponential timers.  The comparison
        // is made with cancel-on-first-feedback (alpha = 1), which isolates
        // the effect of the timer bias itself.
        let n = 1000;
        let runs = 40;
        let unbiased = round(BiasMethod::Unbiased, 1.0);
        let biased = round(BiasMethod::ModifiedOffset, 1.0);
        let q_unbiased = mean_quality_absolute(&unbiased.simulate_uniform(n, runs, 5));
        let q_biased = mean_quality_absolute(&biased.simulate_uniform(n, runs, 5));
        assert!(
            q_biased < q_unbiased,
            "biased quality {q_biased} should beat unbiased {q_unbiased}"
        );
        // The unbiased error is substantial (paper: ≈20% of the sending
        // rate), the biased one small (a few percent).
        assert!(q_unbiased > 0.03, "unbiased quality {q_unbiased}");
    }

    #[test]
    fn response_time_decreases_with_receiver_count() {
        // Paper Figure 5: logarithmic decrease of the response time in n.
        let r = round(BiasMethod::ModifiedOffset, 0.1);
        let t_small = mean_first_response(&r.simulate_uniform(10, 30, 9));
        let t_large = mean_first_response(&r.simulate_uniform(5000, 30, 9));
        assert!(
            t_large < t_small,
            "first response with many receivers ({t_large}) should come earlier than with few ({t_small})"
        );
    }

    #[test]
    fn helpers_handle_empty_input() {
        assert_eq!(mean_responses(&[]), 0.0);
        assert_eq!(mean_first_response(&[]), 0.0);
        assert_eq!(mean_quality(&[]), 0.0);
    }
}
