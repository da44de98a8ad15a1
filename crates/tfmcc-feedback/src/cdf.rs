//! Cumulative distribution of the biased feedback timers (paper Figure 1).

use tfmcc_proto::config::{FEEDBACK_OFFSET_FRACTION, RECEIVER_SET_ESTIMATE};
use tfmcc_proto::feedback::{BiasMethod, FeedbackPlanner};

/// One point of a timer CDF.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimerCdfPoint {
    /// Feedback time in units of the window `T` (0..=1) scaled by `window`.
    pub time: f64,
    /// Cumulative probability that the timer fires by `time`.
    pub probability: f64,
}

/// Computes the CDF of the feedback timer for a receiver with the given rate
/// ratio, evaluated analytically from the timer formula (no sampling).
///
/// For the exponential part the CDF is `N^(t/T' - 1)` (clamped to `[0, 1]`);
/// biasing with an offset shifts this curve right by the deterministic offset
/// while the modified-N method changes the exponent base.
pub fn timer_cdf(
    planner: &FeedbackPlanner,
    rate_ratio: f64,
    window: f64,
    points: usize,
) -> Vec<TimerCdfPoint> {
    assert!(points >= 2);
    let delta = FEEDBACK_OFFSET_FRACTION;
    let (offset, t_random, n) = match planner.method {
        BiasMethod::Unbiased => (0.0, window, RECEIVER_SET_ESTIMATE),
        BiasMethod::BasicOffset => (
            delta * rate_ratio.clamp(0.0, 1.0) * window,
            (1.0 - delta) * window,
            RECEIVER_SET_ESTIMATE,
        ),
        BiasMethod::ModifiedOffset => (
            delta * planner.normalized_ratio(rate_ratio) * window,
            (1.0 - delta) * window,
            RECEIVER_SET_ESTIMATE,
        ),
        BiasMethod::ModifiedN => (
            0.0,
            window,
            (RECEIVER_SET_ESTIMATE * rate_ratio.clamp(0.0, 1.0)).max(2.0),
        ),
    };
    (0..points)
        .map(|i| {
            let time = window * i as f64 / (points - 1) as f64;
            let effective = time - offset;
            let probability = if effective < 0.0 {
                0.0
            } else if effective >= t_random {
                1.0
            } else {
                n.powf(effective / t_random - 1.0)
            };
            TimerCdfPoint { time, probability }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planner(method: BiasMethod) -> FeedbackPlanner {
        FeedbackPlanner {
            method,
            ..FeedbackPlanner::default()
        }
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        for method in [
            BiasMethod::Unbiased,
            BiasMethod::BasicOffset,
            BiasMethod::ModifiedOffset,
            BiasMethod::ModifiedN,
        ] {
            let cdf = timer_cdf(&planner(method), 0.7, 4.0, 200);
            let mut last = 0.0;
            for p in &cdf {
                assert!((0.0..=1.0).contains(&p.probability));
                assert!(p.probability >= last - 1e-12);
                last = p.probability;
            }
            assert_eq!(cdf.last().unwrap().probability, 1.0);
        }
    }

    #[test]
    fn unbiased_cdf_starts_at_one_over_n() {
        let cdf = timer_cdf(&planner(BiasMethod::Unbiased), 1.0, 4.0, 10);
        assert!((cdf[0].probability - 1.0 / 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn modified_n_increases_early_probability_for_low_rates() {
        // Figure 1: decreasing N shifts the whole CDF up.
        let low = timer_cdf(&planner(BiasMethod::ModifiedN), 0.01, 4.0, 100);
        let high = timer_cdf(&planner(BiasMethod::ModifiedN), 1.0, 4.0, 100);
        assert!(low[10].probability > high[10].probability * 10.0);
    }

    #[test]
    fn offset_shifts_high_rate_receivers_later() {
        // Figure 1: the offset method delays receivers whose rate is close to
        // the sending rate while low-rate receivers keep the unshifted curve.
        let low = timer_cdf(&planner(BiasMethod::ModifiedOffset), 0.5, 4.0, 100);
        let high = timer_cdf(&planner(BiasMethod::ModifiedOffset), 1.0, 4.0, 100);
        // At one third of the window the high-rate receiver has essentially no
        // probability of having fired, the low-rate one a positive one.
        let idx = 33;
        assert!(high[idx].probability < low[idx].probability);
        assert_eq!(high[0].probability, 0.0);
    }
}
