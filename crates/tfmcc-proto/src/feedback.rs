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

use std::hash::Hasher;

use crate::config::TfmccConfig;
use crate::step::{hash_f64, StateFingerprint};

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
#[derive(Debug, Clone)]
pub struct FeedbackPlanner {
    /// Receiver-set size estimate `N`.
    pub n_estimate: f64,
    /// Fraction `δ` of the window used for the offset bias.
    pub offset_fraction: f64,
    /// Cancellation threshold `α`.
    pub cancel_alpha: f64,
    /// Lower truncation bound of the rate ratio (bias saturates below this).
    pub saturation_ratio: f64,
    /// Upper truncation bound of the rate ratio (no bias above this).
    pub start_ratio: f64,
    /// Biasing method.
    pub method: BiasMethod,
}

impl FeedbackPlanner {
    /// Planner configured from the protocol configuration (TFMCC defaults).
    pub fn from_config(config: &TfmccConfig) -> Self {
        FeedbackPlanner {
            n_estimate: config.receiver_set_estimate,
            offset_fraction: config.feedback_offset_fraction,
            cancel_alpha: config.feedback_cancel_alpha,
            saturation_ratio: config.bias_saturation_ratio,
            start_ratio: config.bias_start_ratio,
            method: BiasMethod::ModifiedOffset,
        }
    }

    /// The truncated, normalised rate ratio `x'` of paper Section 2.5.1:
    /// 0 when the receiver's rate is at or below 50 % of the sending rate
    /// (maximum bias), 1 when at or above 90 % (no bias), linear in between.
    pub fn normalized_ratio(&self, rate_ratio: f64) -> f64 {
        let clamped = rate_ratio.clamp(self.saturation_ratio, self.start_ratio);
        (clamped - self.saturation_ratio) / (self.start_ratio - self.saturation_ratio)
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
        let delta = self.offset_fraction;
        match self.method {
            BiasMethod::Unbiased => exponential(window, self.n_estimate),
            BiasMethod::BasicOffset => {
                let ratio = rate_ratio.clamp(0.0, 1.0);
                delta * ratio * window + exponential((1.0 - delta) * window, self.n_estimate)
            }
            BiasMethod::ModifiedOffset => {
                let ratio = self.normalized_ratio(rate_ratio);
                delta * ratio * window + exponential((1.0 - delta) * window, self.n_estimate)
            }
            BiasMethod::ModifiedN => {
                // Reduce N in proportion to the ratio; never below 2 so the
                // timer formula stays defined.
                let ratio = rate_ratio.clamp(0.0, 1.0);
                let n = (self.n_estimate * ratio).max(2.0);
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

impl StateFingerprint for FeedbackPlanner {
    fn fingerprint<H: Hasher>(&self, h: &mut H) {
        hash_f64(h, self.n_estimate);
        hash_f64(h, self.offset_fraction);
        hash_f64(h, self.cancel_alpha);
        hash_f64(h, self.saturation_ratio);
        hash_f64(h, self.start_ratio);
        h.write_u8(match self.method {
            BiasMethod::Unbiased => 0,
            BiasMethod::BasicOffset => 1,
            BiasMethod::ModifiedOffset => 2,
            BiasMethod::ModifiedN => 3,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn planner() -> FeedbackPlanner {
        FeedbackPlanner::from_config(&TfmccConfig::default())
    }

    #[test]
    fn normalized_ratio_truncates_and_scales() {
        let p = planner();
        assert_eq!(p.normalized_ratio(0.3), 0.0);
        assert_eq!(p.normalized_ratio(0.5), 0.0);
        assert!((p.normalized_ratio(0.7) - 0.5).abs() < 1e-12);
        assert_eq!(p.normalized_ratio(0.9), 1.0);
        assert_eq!(p.normalized_ratio(1.5), 1.0);
    }

    #[test]
    fn timers_stay_within_window() {
        let p = planner();
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
        let p = planner();
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
        let mut p = planner();
        p.method = BiasMethod::Unbiased;
        p.n_estimate = 100.0;
        let mut rng = SmallRng::seed_from_u64(3);
        let trials = 200_000;
        let immediate = (0..trials)
            .filter(|_| p.timer(1.0, 1.0, rng.gen()) == 0.0)
            .count() as f64;
        let frac = immediate / trials as f64;
        assert!(
            (0.007..=0.013).contains(&frac),
            "expected ≈1% immediate, got {frac}"
        );
    }

    #[test]
    fn cancellation_rule_matches_paper() {
        let p = planner(); // alpha = 0.1

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
        let mut p = planner();
        p.cancel_alpha = 0.0;
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
        let p = planner();
        let mut rng = SmallRng::seed_from_u64(4);
        let window = 3.0;
        for _ in 0..2000 {
            let t = p.timer(0.0, window, rng.gen());
            assert!(t <= (1.0 - p.offset_fraction) * window + 1e-9);
        }
    }
}
