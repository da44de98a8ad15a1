//! Explore the feedback-suppression design space (paper Section 2.5).
//!
//! For a range of receiver-set sizes this example compares the number of
//! responses per feedback round, the response delay and the quality of the
//! reported rate for the three timer-biasing methods and the three
//! cancellation strategies — the trade-off TFMCC resolves with the modified
//! offset bias and α = 0.1.
//!
//! Run with `cargo run --release --example feedback_tuning`.

use tfmcc::feedback::round::{
    mean_first_response, mean_quality_absolute, mean_responses, FeedbackRound,
};
use tfmcc::feedback::{BiasMethod, FeedbackPlanner};

fn main() {
    let window = 6.0; // T = 6 network delays (TFMCC default)
    let delay = 1.0;
    let runs = 20;

    println!("== biasing methods (cancellation: on any feedback) ==");
    println!("n,method,responses,first_response_rtt,quality");
    for &n in &[10usize, 100, 1000, 10_000] {
        for method in [
            BiasMethod::Unbiased,
            BiasMethod::BasicOffset,
            BiasMethod::ModifiedOffset,
        ] {
            let planner = FeedbackPlanner {
                cancel_alpha: 1.0,
                method,
            };
            let round = FeedbackRound::new(planner, window, delay);
            let outcomes = round.simulate_uniform(n, runs, 3);
            println!(
                "{n},{method:?},{:.1},{:.2},{:.3}",
                mean_responses(&outcomes),
                mean_first_response(&outcomes),
                mean_quality_absolute(&outcomes),
            );
        }
    }

    println!("\n== cancellation strategies (modified offset bias) ==");
    println!("n,alpha,responses,quality");
    for &n in &[100usize, 1000, 10_000] {
        for alpha in [0.0, 0.1, 1.0] {
            let planner = FeedbackPlanner {
                cancel_alpha: alpha,
                ..FeedbackPlanner::default()
            };
            let round = FeedbackRound::new(planner, window, delay);
            let outcomes = round.simulate_uniform_range(n, runs, 0.0, 0.2, 9);
            println!(
                "{n},{alpha},{:.1},{:.3}",
                mean_responses(&outcomes),
                mean_quality_absolute(&outcomes),
            );
        }
    }

    println!(
        "\nTFMCC's choice — modified offset bias with alpha = 0.1 — keeps the response count nearly \
         constant in n while reporting a rate within a few percent of the true minimum."
    );
}
