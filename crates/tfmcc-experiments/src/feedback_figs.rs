//! Figures 1–6: the feedback suppression mechanism in isolation.
//!
//! Every figure runs its independent evaluation points (bias methods,
//! cancellation strategies, receiver counts) through the sweep executor;
//! Monte-Carlo points derive their seeds from the sweep, so results are
//! identical for any thread count.

use tfmcc_feedback::round::{
    mean_first_response, mean_quality_absolute, mean_responses, FeedbackRound,
};
use tfmcc_feedback::{timer_cdf, BiasMethod, FeedbackPlanner};
use tfmcc_model::feedback_expectation::expected_responses;

use crate::exec::SweepRunner;
use crate::output::{Figure, Series};
use crate::scale::Scale;

fn planner(method: BiasMethod, alpha: f64) -> FeedbackPlanner {
    FeedbackPlanner {
        cancel_alpha: alpha,
        method,
    }
}

/// TFMCC's window (in network-delay units): T = 6 delays, suppression
/// interval T' = 4.
const WINDOW: f64 = 6.0;
const DELAY: f64 = 1.0;

/// Figure 1: CDF of the feedback time for the different biasing methods.
pub fn fig01_bias_cdf(runner: &SweepRunner, _scale: Scale) -> Figure {
    let mut fig = Figure::new(
        "fig01",
        "Different feedback biasing methods",
        "feedback time (RTTs)",
        "cumulative probability",
    );
    // The paper plots a moderately congested receiver (rate ratio 0.7).
    let ratio = 0.7;
    let methods = [
        ("exponential", BiasMethod::Unbiased),
        ("offset", BiasMethod::ModifiedOffset),
        ("modified N", BiasMethod::ModifiedN),
    ];
    for series in runner.run(1, &methods, |&(name, method), _| {
        let cdf = timer_cdf(&planner(method, 0.1), ratio, 4.0, 200);
        Series::new(name, cdf.iter().map(|p| (p.time, p.probability)).collect())
    }) {
        fig.push_series(series);
    }
    let exp_early = fig.series("exponential").unwrap().points[25].1;
    let modn_early = fig.series("modified N").unwrap().points[25].1;
    fig.note(format!(
        "modified-N raises early-response probability ({modn_early:.4}) above plain exponential ({exp_early:.4}); offset shifts the curve right"
    ));
    fig
}

/// Figure 2: time–value distribution of one feedback round, offset vs normal.
pub fn fig02_time_value(runner: &SweepRunner, scale: Scale) -> Figure {
    let n = scale.pick(60, 120);
    let mut fig = Figure::new(
        "fig02",
        "Time-value distribution of feedback",
        "feedback time (RTTs)",
        "feedback value (rate ratio)",
    );
    let methods = [
        ("normal sent", BiasMethod::Unbiased),
        ("offset sent", BiasMethod::ModifiedOffset),
    ];
    for (series, note) in runner.run(2, &methods, |&(name, method), _| {
        let round = FeedbackRound::new(planner(method, 1.0), WINDOW, DELAY);
        let outcome = &round.simulate_uniform(n, 1, 2)[0];
        let note = format!(
            "{name}: {} responses, best value {:.3} vs true minimum {:.3}",
            outcome.responses.len(),
            outcome.best_reported.unwrap_or(f64::NAN),
            outcome.true_minimum
        );
        (Series::new(name, outcome.responses.clone()), note)
    }) {
        fig.push_series(series);
        fig.note(note);
    }
    fig
}

/// Figure 3: number of responses in the worst case for the cancellation
/// strategies (alpha = 1, 0.1, 0).
pub fn fig03_cancellation(runner: &SweepRunner, scale: Scale) -> Figure {
    let ns: Vec<usize> = scale.pick(vec![1, 10, 100, 1000], vec![1, 10, 100, 1000, 10_000]);
    let runs = scale.pick(3, 10);
    let mut fig = Figure::new(
        "fig03",
        "Different feedback cancellation methods",
        "number of receivers",
        "number of responses",
    );
    let strategies = [
        ("all suppressed (alpha=1)", 1.0),
        ("10% lower suppressed (alpha=0.1)", 0.1),
        ("higher suppressed (alpha=0)", 0.0),
    ];
    // One sweep point per (strategy, receiver count); the worst case of
    // Figure 3 is all receivers suddenly congested with similar (but not
    // identical) low rates.
    let points: Vec<(f64, usize)> = strategies
        .iter()
        .flat_map(|&(_, alpha)| ns.iter().map(move |&n| (alpha, n)))
        .collect();
    let means = runner.run(42, &points, |&(alpha, n), seed| {
        let round = FeedbackRound::new(planner(BiasMethod::ModifiedOffset, alpha), WINDOW, DELAY);
        let outcomes = round.simulate_uniform_range(n, runs, 0.0, 0.2, seed);
        mean_responses(&outcomes)
    });
    for (s, chunk) in strategies.iter().zip(means.chunks(ns.len())) {
        let points: Vec<(f64, f64)> = ns
            .iter()
            .zip(chunk)
            .map(|(&n, &mean)| (n as f64, mean))
            .collect();
        fig.push_series(Series::new(s.0, points));
    }
    let a1 = fig
        .series("all suppressed (alpha=1)")
        .unwrap()
        .last_y()
        .unwrap_or(0.0);
    let a0 = fig
        .series("higher suppressed (alpha=0)")
        .unwrap()
        .last_y()
        .unwrap_or(0.0);
    fig.note(format!(
        "at the largest receiver set: alpha=1 -> {a1:.1} responses, alpha=0 -> {a0:.1}; alpha=0.1 sits close to alpha=1 (paper: only marginally more feedback)"
    ));
    fig
}

/// Figure 4: expected number of feedback messages vs T' and n (closed form).
pub fn fig04_expected_feedback(runner: &SweepRunner, scale: Scale) -> Figure {
    let ns: Vec<u64> = scale.pick(
        vec![1, 10, 100, 1000],
        vec![1, 3, 10, 30, 100, 300, 1000, 3000, 10_000, 100_000],
    );
    let mut fig = Figure::new(
        "fig04",
        "Expected number of feedback messages",
        "number of receivers",
        "number of responses",
    );
    for series in runner.run(4, &[2.0, 3.0, 4.0, 5.0, 6.0], |&t, _| {
        let points: Vec<(f64, f64)> = ns
            .iter()
            .map(|&n| (n as f64, expected_responses(n, 10_000.0, t, 1.0)))
            .collect();
        Series::new(format!("T'={t} RTTs"), points)
    }) {
        fig.push_series(series);
    }
    let at4 = fig.series("T'=4 RTTs").unwrap();
    fig.note(format!(
        "T'=4 keeps the expectation at {:.1} responses for the largest n (paper: a handful for n up to two orders below N)",
        at4.last_y().unwrap_or(0.0)
    ));
    fig
}

/// Figure 5: mean response time vs receiver count for the biasing methods.
pub fn fig05_response_time(runner: &SweepRunner, scale: Scale) -> Figure {
    run_bias_comparison(
        runner,
        scale,
        "fig05",
        "Comparison of methods to bias feedback (response time)",
        "response time (RTTs)",
        mean_first_response,
    )
}

/// Figure 6: quality of the reported rate vs receiver count.
pub fn fig06_feedback_quality(runner: &SweepRunner, scale: Scale) -> Figure {
    let mut fig = run_bias_comparison(
        runner,
        scale,
        "fig06",
        "Comparison of methods to bias feedback (quality of reported rate)",
        "quality of reported rate",
        mean_quality_absolute,
    );
    let unbiased = fig
        .series("unbiased exponential")
        .unwrap()
        .last_y()
        .unwrap_or(0.0);
    let modified = fig
        .series("modified offset")
        .unwrap()
        .last_y()
        .unwrap_or(0.0);
    fig.note(format!(
        "largest n: unbiased reports {unbiased:.3} above the true minimum, modified offset {modified:.3} (paper: ~0.2 vs a few percent)"
    ));
    fig
}

fn run_bias_comparison(
    runner: &SweepRunner,
    scale: Scale,
    id: &str,
    title: &str,
    y_label: &str,
    metric: fn(&[tfmcc_feedback::RoundOutcome]) -> f64,
) -> Figure {
    let ns: Vec<usize> = scale.pick(vec![1, 10, 100, 1000], vec![1, 10, 100, 1000, 10_000]);
    let runs = scale.pick(5, 30);
    let mut fig = Figure::new(id, title, "number of receivers", y_label);
    let methods = [
        ("unbiased exponential", BiasMethod::Unbiased),
        ("basic offset", BiasMethod::BasicOffset),
        ("modified offset", BiasMethod::ModifiedOffset),
    ];
    let points: Vec<(BiasMethod, usize)> = methods
        .iter()
        .flat_map(|&(_, method)| ns.iter().map(move |&n| (method, n)))
        .collect();
    let values = runner.run(7, &points, |&(method, n), seed| {
        let round = FeedbackRound::new(planner(method, 1.0), WINDOW, DELAY);
        metric(&round.simulate_uniform(n, runs, seed))
    });
    for (m, chunk) in methods.iter().zip(values.chunks(ns.len())) {
        let points: Vec<(f64, f64)> = ns.iter().zip(chunk).map(|(&n, &v)| (n as f64, v)).collect();
        fig.push_series(Series::new(m.0, points));
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runner() -> SweepRunner {
        SweepRunner::new(2)
    }

    #[test]
    fn fig01_cdfs_are_valid_distributions() {
        let fig = fig01_bias_cdf(&runner(), Scale::Quick);
        assert_eq!(fig.series.len(), 3);
        for s in &fig.series {
            assert!((s.last_y().unwrap() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn fig03_alpha_one_stays_near_constant() {
        let fig = fig03_cancellation(&runner(), Scale::Quick);
        let strict = fig.series("all suppressed (alpha=1)").unwrap();
        // Paper: with alpha=1 the number of responses stays roughly constant
        // in n (no implosion).
        let max = strict.points.iter().map(|&(_, y)| y).fold(0.0, f64::max);
        assert!(max < 30.0, "alpha=1 responses grew to {max}");
        // alpha=0 produces at least as many responses as alpha=1 at large n.
        let lenient = fig.series("higher suppressed (alpha=0)").unwrap();
        assert!(lenient.last_y().unwrap() >= strict.last_y().unwrap() - 1.0);
    }

    #[test]
    fn fig04_larger_window_fewer_responses() {
        let fig = fig04_expected_feedback(&runner(), Scale::Quick);
        let t2 = fig.series("T'=2 RTTs").unwrap().last_y().unwrap();
        let t6 = fig.series("T'=6 RTTs").unwrap().last_y().unwrap();
        assert!(t6 < t2);
    }

    #[test]
    fn fig05_and_fig06_show_the_bias_advantage() {
        let f5 = fig05_response_time(&runner(), Scale::Quick);
        for s in &f5.series {
            // Response time decreases (roughly) with n.
            assert!(s.points.first().unwrap().1 >= s.points.last().unwrap().1 - 0.5);
        }
        let f6 = fig06_feedback_quality(&runner(), Scale::Quick);
        let unbiased = f6.series("unbiased exponential").unwrap().last_y().unwrap();
        let modified = f6.series("modified offset").unwrap().last_y().unwrap();
        assert!(modified <= unbiased + 1e-9);
    }

    #[test]
    fn fig02_has_responses_for_both_methods() {
        let fig = fig02_time_value(&runner(), Scale::Quick);
        for s in &fig.series {
            assert!(!s.points.is_empty());
        }
    }

    #[test]
    fn figures_are_thread_count_invariant() {
        for (a, b) in [
            (
                fig03_cancellation(&SweepRunner::new(1), Scale::Quick),
                fig03_cancellation(&SweepRunner::new(8), Scale::Quick),
            ),
            (
                fig05_response_time(&SweepRunner::new(1), Scale::Quick),
                fig05_response_time(&SweepRunner::new(8), Scale::Quick),
            ),
        ] {
            assert_eq!(a.to_json().render(), b.to_json().render());
        }
    }
}
