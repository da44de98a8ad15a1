//! Biased exponential feedback timers and cancellation (paper Section 2.5).
//!
//! Each receiver that wishes to report draws a random timer over the
//! feedback window `T`.  The plain mechanism (paper Eq. 2) draws
//! `t = max(T (1 + log_N x), 0)` with `x` uniform in `(0, 1]`, giving an
//! expected handful of responses regardless of the receiver count.  TFMCC
//! biases these timers in favour of low-rate receivers by reserving a
//! fraction `δ` of `T` for a deterministic offset proportional to the
//! (truncated, normalised) ratio of the receiver's calculated rate to the
//! current sending rate (paper Eq. 3), so that the receivers whose feedback
//! matters most tend to answer first while suppression still prevents an
//! implosion.

use crate::config::{
    TfmccConfig, BIAS_SATURATION_RATIO, BIAS_START_RATIO, FEEDBACK_CANCEL_ALPHA,
    FEEDBACK_OFFSET_FRACTION, RECEIVER_SET_ESTIMATE,
};

/// Which timer-biasing method to use.  TFMCC proper uses
/// [`BiasMethod::ModifiedOffset`]; the others exist so the comparison figures
/// of the paper (Figures 1, 5, 6) can be reproduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BiasMethod {
    /// Plain exponentially distributed timers, no bias (paper Eq. 2).
    Unbiased,
    /// Offset proportional to the raw rate ratio `x` (paper Eq. 3).
    BasicOffset,
    /// Offset proportional to the truncated/normalised ratio `x'`
    /// (the method TFMCC uses).
    #[default]
    ModifiedOffset,
    /// Reduce the receiver-set estimate `N` in proportion to the rate ratio
    /// (shown in the paper only to motivate why it is *not* used).
    ModifiedN,
}

/// Computes feedback timer values and cancellation decisions.
///
/// `N`, `δ` and the truncation bounds are the paper's constants
/// ([`RECEIVER_SET_ESTIMATE`], [`FEEDBACK_OFFSET_FRACTION`],
/// [`BIAS_SATURATION_RATIO`], [`BIAS_START_RATIO`]); the feedback figures
/// vary only the method and `α`.
#[derive(Debug, Clone)]
pub struct FeedbackPlanner {
    /// Cancellation threshold `α`.
    pub cancel_alpha: f64,
    /// Biasing method.
    pub method: BiasMethod,
}

impl Default for FeedbackPlanner {
    /// The planner TFMCC runs: modified offset, `α` =
    /// [`FEEDBACK_CANCEL_ALPHA`].
    fn default() -> Self {
        FeedbackPlanner {
            cancel_alpha: FEEDBACK_CANCEL_ALPHA,
            method: BiasMethod::ModifiedOffset,
        }
    }
}

impl FeedbackPlanner {
    /// The default planner; the configuration is not read.  Kept for the
    /// benchmark crate, which still calls it.
    #[doc(hidden)]
    pub fn from_config(_config: &TfmccConfig) -> Self {
        Self::default()
    }

    /// The truncated, normalised rate ratio `x'` of paper Section 2.5.1:
    /// 0 when the receiver's rate is at or below 50 % of the sending rate
    /// (maximum bias), 1 when at or above 90 % (no bias), linear in between.
    pub fn normalized_ratio(&self, rate_ratio: f64) -> f64 {
        let clamped = rate_ratio.clamp(BIAS_SATURATION_RATIO, BIAS_START_RATIO);
        (clamped - BIAS_SATURATION_RATIO) / (BIAS_START_RATIO - BIAS_SATURATION_RATIO)
    }

    /// Draws a feedback timer value in seconds.
    ///
    /// * `rate_ratio` — the receiver's calculated rate divided by the current
    ///   sending rate (for slowstart: receive rate / sending rate),
    /// * `window` — the feedback window `T` in seconds,
    /// * `uniform` — a fresh uniform random sample in `(0, 1]`.
    pub fn timer(&self, rate_ratio: f64, window: f64, uniform: f64) -> f64 {
        assert!(window > 0.0, "feedback window must be positive");
        let x = uniform.clamp(1e-12, 1.0);
        let exponential = |t_max: f64, n: f64| -> f64 { (t_max * (1.0 + x.log(n))).max(0.0) };
        let delta = FEEDBACK_OFFSET_FRACTION;
        match self.method {
            BiasMethod::Unbiased => exponential(window, RECEIVER_SET_ESTIMATE),
            BiasMethod::BasicOffset => {
                let ratio = rate_ratio.clamp(0.0, 1.0);
                delta * ratio * window + exponential((1.0 - delta) * window, RECEIVER_SET_ESTIMATE)
            }
            BiasMethod::ModifiedOffset => {
                let ratio = self.normalized_ratio(rate_ratio);
                delta * ratio * window + exponential((1.0 - delta) * window, RECEIVER_SET_ESTIMATE)
            }
            BiasMethod::ModifiedN => {
                // Reduce N in proportion to the ratio; never below 2 so the
                // timer formula stays defined.
                let ratio = rate_ratio.clamp(0.0, 1.0);
                let n = (RECEIVER_SET_ESTIMATE * ratio).max(2.0);
                exponential(window, n)
            }
        }
    }

    /// Whether a pending feedback timer should be cancelled after hearing an
    /// echoed report with rate `echoed_rate`, given this receiver's own
    /// calculated rate (paper Section 2.5.2): cancel when
    /// `own_rate ≥ (1 − α) · echoed_rate`.
    pub fn should_cancel(&self, own_rate: f64, echoed_rate: f64) -> bool {
        own_rate >= (1.0 - self.cancel_alpha) * echoed_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn normalized_ratio_truncates_and_scales() {
        let p = FeedbackPlanner::default();
        assert_eq!(p.normalized_ratio(0.3), 0.0);
        assert_eq!(p.normalized_ratio(0.5), 0.0);
        assert!((p.normalized_ratio(0.7) - 0.5).abs() < 1e-12);
        assert_eq!(p.normalized_ratio(0.9), 1.0);
        assert_eq!(p.normalized_ratio(1.5), 1.0);
    }

    #[test]
    fn timers_stay_within_window() {
        let p = FeedbackPlanner::default();
        let mut rng = SmallRng::seed_from_u64(1);
        for method in [
            BiasMethod::Unbiased,
            BiasMethod::BasicOffset,
            BiasMethod::ModifiedOffset,
            BiasMethod::ModifiedN,
        ] {
            let mut p = p.clone();
            p.method = method;
            for _ in 0..2000 {
                let ratio: f64 = rng.gen();
                let t = p.timer(ratio, 3.0, rng.gen());
                assert!((0.0..=3.0 + 1e-9).contains(&t), "{method:?}: timer {t}");
            }
        }
    }

    #[test]
    fn low_rate_receivers_respond_earlier_on_average() {
        let p = FeedbackPlanner::default();
        let mut rng = SmallRng::seed_from_u64(2);
        let window = 3.0;
        let mean = |ratio: f64, rng: &mut SmallRng| -> f64 {
            let mut acc = 0.0;
            for _ in 0..4000 {
                acc += p.timer(ratio, window, rng.gen());
            }
            acc / 4000.0
        };
        let slow = mean(0.4, &mut rng);
        let fast = mean(1.0, &mut rng);
        assert!(
            slow + 0.3 < fast,
            "slow receivers should fire notably earlier: slow {slow}, fast {fast}"
        );
    }

    #[test]
    fn unbiased_timer_matches_analytic_immediate_probability() {
        // P(t = 0) should be 1/N for the plain exponential timer.
        let p = FeedbackPlanner {
            method: BiasMethod::Unbiased,
            ..FeedbackPlanner::default()
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let trials = 1_000_000;
        let immediate = (0..trials)
            .filter(|_| p.timer(1.0, 1.0, rng.gen()) == 0.0)
            .count() as f64;
        let frac = immediate / trials as f64;
        assert!(
            (0.7e-4..=1.3e-4).contains(&frac),
            "expected ≈1/N = 0.01 % immediate, got {frac}"
        );
    }

    #[test]
    fn cancellation_rule_matches_paper() {
        let p = FeedbackPlanner::default(); // alpha = 0.1

        // Own rate well above the echoed rate: cancel.
        assert!(p.should_cancel(1000.0, 900.0));
        // Own rate equal to the echoed rate: cancel.
        assert!(p.should_cancel(900.0, 900.0));
        // Own rate within 10% below the echo: still cancel.
        assert!(p.should_cancel(815.0, 900.0));
        // Own rate more than 10% below the echo: keep the timer.
        assert!(!p.should_cancel(800.0, 900.0));
    }

    #[test]
    fn alpha_zero_and_one_are_the_extremes() {
        let mut p = FeedbackPlanner {
            cancel_alpha: 0.0,
            ..FeedbackPlanner::default()
        };
        assert!(!p.should_cancel(899.0, 900.0));
        assert!(p.should_cancel(900.0, 900.0));
        p.cancel_alpha = 1.0;
        assert!(p.should_cancel(1.0, 1_000_000.0));
    }

    #[test]
    fn modified_offset_reserves_suppression_interval() {
        // With δ = 1/3 and the worst case (ratio saturated at the low end)
        // the random part spans (1-δ)·T, so some timers must exceed zero and
        // none exceed (1-δ)·T for ratio 0.
        let p = FeedbackPlanner::default();
        let mut rng = SmallRng::seed_from_u64(4);
        let window = 3.0;
        for _ in 0..2000 {
            let t = p.timer(0.0, window, rng.gen());
            assert!(t <= (1.0 - FEEDBACK_OFFSET_FRACTION) * window + 1e-9);
        }
    }
}
