//! Property tests: feedback suppression stays within the paper's analytic
//! bounds from 10³ up to 10⁵ receivers.
//!
//! The paper argues (Section 2.5.4, Figure 4) that exponential timers with
//! suppression keep the expected number of responses per round small and
//! nearly independent of the receiver count; `tfmcc-model`'s
//! [`expected_responses`] evaluates the analytic expectation.  These tests
//! drive the Monte-Carlo round simulator over receiver sets up to 10⁵ —
//! one order of magnitude *above* the timers' `N = 10⁴` design estimate, the
//! regime the large-scale simulations run in — and pin:
//!
//! * **accounting**: every receiver either responds or is suppressed;
//! * **no implosion**: the simulated response count stays within a small
//!   multiple of the analytic expectation (which itself grows only when `n`
//!   exceeds the `N` estimate, via the `1/N` immediate-response atom);
//! * **liveness**: suppression never cancels the round entirely;
//! * **feedback quality**: with TFMCC's cancellation threshold `α = 0.1`,
//!   the best report of a round stays within `α/(1−α)` of the true minimum
//!   rate ratio (paper Section 2.5.2), independent of the receiver count.

use proptest::prelude::*;

use tfmcc_feedback::round::{mean_responses, FeedbackRound};
use tfmcc_model::feedback_expectation::expected_responses;
use tfmcc_proto::feedback::{BiasMethod, FeedbackPlanner};

/// Planner with the given bias method and cancellation threshold, otherwise
/// TFMCC defaults (`N` estimate 10⁴).
fn planner(method: BiasMethod, alpha: f64) -> FeedbackPlanner {
    FeedbackPlanner {
        cancel_alpha: alpha,
        method,
    }
}

/// Window of 4 network-delay units: the paper's suppression interval
/// `T' = 4 RTTs` expressed with `D = 1`.
const WINDOW: f64 = 4.0;
const DELAY: f64 = 1.0;

proptest! {
    /// Worst case (every receiver reports the same saturated value) with
    /// plain exponential timers and cancel-on-any-feedback — the exact
    /// setting of the analytic model.  Receiver counts are drawn
    /// log-uniformly over 10³..10⁵.
    #[test]
    fn worst_case_responses_track_the_analytic_expectation(
        exponent in 3.0f64..5.0,
        seed in 0u64..1_000_000,
    ) {
        let n = 10f64.powf(exponent) as usize;
        let round = FeedbackRound::new(planner(BiasMethod::Unbiased, 1.0), WINDOW, DELAY);
        let runs = 2;
        let outcomes = round.simulate_worst_case(n, runs, seed);
        for o in &outcomes {
            prop_assert_eq!(
                o.responses.len() + o.suppressed,
                n,
                "every receiver responds or is suppressed"
            );
            prop_assert!(!o.responses.is_empty(), "suppression must not kill the round");
        }
        let analytic = expected_responses(n as u64, 10_000.0, WINDOW, DELAY);
        let simulated = mean_responses(&outcomes);
        // Monte-Carlo mean of 2 runs versus the expectation: generous
        // multiplicative slack, additive floor for the small-count regime.
        prop_assert!(
            simulated <= 4.0 * analytic + 5.0,
            "implosion at n={}: {} responses vs {:.1} expected",
            n, simulated, analytic
        );
        prop_assert!(
            simulated >= (analytic / 6.0).min(1.0).max(1.0 / runs as f64),
            "over-suppression at n={}: {} responses vs {:.1} expected",
            n, simulated, analytic
        );
    }

    /// TFMCC's production setting (modified-offset bias, α = 0.1) over
    /// uniformly distributed rate ratios: the winning report stays within
    /// the paper's α/(1−α) bound of the true minimum at every receiver
    /// count, and the response count stays bounded.
    #[test]
    fn biased_rounds_keep_quality_within_alpha_bound(
        exponent in 3.0f64..5.0,
        seed in 0u64..1_000_000,
    ) {
        let n = 10f64.powf(exponent) as usize;
        let alpha = 0.1;
        let round = FeedbackRound::new(planner(BiasMethod::ModifiedOffset, alpha), WINDOW, DELAY);
        let outcomes = round.simulate_uniform(n, 2, seed);
        let bound = alpha / (1.0 - alpha);
        for o in &outcomes {
            prop_assert_eq!(o.responses.len() + o.suppressed, n);
            let q = o.quality().expect("someone always responds");
            prop_assert!(
                q <= bound + 1e-9,
                "n={}: best report {:.4} above the true minimum exceeds α/(1−α) = {:.4}",
                n, q, bound
            );
        }
        // The α = 0.1 threshold deliberately admits more reports than the
        // cancel-on-anything analytic model (receivers more than 10 % below
        // the echoed minimum keep firing and re-lower it), so the cap here
        // is sublinearity, not the analytic curve: the response count must
        // stay a vanishing fraction of the receiver set (measured ≈ 60–350
        // responses across 10³..10⁵, i.e. ≤ 0.4 % at 10⁵, up to ≈ 15 % at
        // 10³ where the population is small).
        let simulated = mean_responses(&outcomes);
        let cap = (0.25 * n as f64).min(1500.0);
        prop_assert!(
            simulated <= cap,
            "implosion with biased timers at n={}: {} responses exceed the {:.0} cap",
            n, simulated, cap
        );
    }
}

/// Deterministic spot check at the three decades the roadmap names, with
/// enough runs for a stable mean: the simulated response count lands within
/// a factor of ~2.5 of the analytic curve at 10³ and 10⁴ receivers, and the
/// `n > N` implosion regime at 10⁵ is reproduced (≈ `n/N` immediate
/// responses from the `1/N` atom).
#[test]
fn response_counts_match_analytic_curve_at_each_decade() {
    let round = FeedbackRound::new(planner(BiasMethod::Unbiased, 1.0), WINDOW, DELAY);
    for (n, runs) in [(1_000usize, 8), (10_000, 6), (100_000, 4)] {
        let analytic = expected_responses(n as u64, 10_000.0, WINDOW, DELAY);
        let simulated = mean_responses(&round.simulate_worst_case(n, runs, 99));
        assert!(
            simulated <= 2.5 * analytic + 2.0 && simulated >= analytic / 2.5 - 2.0,
            "n={n}: simulated {simulated:.1} vs analytic {analytic:.1}"
        );
    }
    // The atom alone guarantees ≈ n/N immediate responses once n > N.
    let at_1e5 = mean_responses(&round.simulate_worst_case(100_000, 4, 99));
    assert!(
        at_1e5 >= 5.0,
        "n=10⁵ with N=10⁴ must show the beginning implosion, got {at_1e5:.1}"
    );
}
