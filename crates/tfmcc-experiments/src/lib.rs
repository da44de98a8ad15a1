//! Experiment harness reproducing every figure of the TFMCC paper.
//!
//! Each module covers one family of figures and exposes
//! `run(runner, scale)` functions returning a [`output::Figure`] — a set of
//! named columns plus summary lines — which the `figs` binary runs by name
//! from [`FIGURES`] and prints as CSV (and, with `--out`, writes as
//! deterministic JSON).
//! [`scale::Scale`] lets the same code run at paper scale (full receiver
//! counts and durations) or at a reduced scale suitable for tests and the
//! benchmark; the [`SweepRunner`] argument ([`exec`]) shards each
//! figure's independent simulation points across worker threads with
//! deterministic per-point seeds, so results are byte-identical for any
//! `--threads N`.  [`cli`] parses the `figs` flags and [`Json`] renders the
//! result files.
//!
//! | Figures | Module |
//! |---------|--------|
//! | 1–6 (feedback suppression)            | [`feedback_figs`] |
//! | 7, 17 (scaling, loss events per RTT)  | [`scaling_figs`] |
//! | 9, 10, 18, 19 (fairness)              | [`fairness_figs`] |
//! | 11, 13, 20, 21 (responsiveness)       | [`responsiveness_figs`] |
//! | 12, 14, 15, 16 (startup, late join)   | [`startup_figs`] |
//! | 22 (receiver churn, beyond the paper) | [`churn_figs`] |
//! | 23 (inter-TFMCC fairness, beyond the paper) | [`intersession_figs`] |
//! | 24 (cross-protocol fairness matrix over AQM, beyond the paper) | [`fairness_matrix`] |
//! | worst-case annealing search (beyond the paper) | [`scenario_search`] |
//! | the topology + flows every simulated figure point is wired from | [`testbed`] |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod churn_figs;
pub mod cli;
pub mod event_bench;
pub mod exec;
pub mod fairness_figs;
pub mod fairness_matrix;
pub mod feedback_figs;
pub mod intersession_figs;
pub mod json;
pub mod output;
pub mod responsiveness_figs;
pub mod scale;
pub mod scaling_figs;
pub mod scenario_search;
pub mod startup_figs;
pub mod testbed;

pub use exec::SweepRunner;
pub use json::Json;
pub use output::{Figure, Series};
pub use scale::Scale;

/// A figure: runs its sweep on the runner at the given scale.
pub type FigureFn = fn(&SweepRunner, Scale) -> Figure;

/// Every figure `figs <name>` can run, by name.  The names are the
/// functions' own, and `figs` names its output files after them.
pub const FIGURES: &[(&str, FigureFn)] = &[
    ("fig01_bias_cdf", feedback_figs::fig01_bias_cdf),
    ("fig02_time_value", feedback_figs::fig02_time_value),
    ("fig03_cancellation", feedback_figs::fig03_cancellation),
    (
        "fig04_expected_feedback",
        feedback_figs::fig04_expected_feedback,
    ),
    ("fig05_response_time", feedback_figs::fig05_response_time),
    (
        "fig06_feedback_quality",
        feedback_figs::fig06_feedback_quality,
    ),
    ("fig07_scaling", scaling_figs::fig07_scaling),
    (
        "fig09_single_bottleneck",
        fairness_figs::fig09_single_bottleneck,
    ),
    ("fig10_tail_circuits", fairness_figs::fig10_tail_circuits),
    (
        "fig11_loss_responsiveness",
        responsiveness_figs::fig11_loss_responsiveness,
    ),
    (
        "fig12_rtt_measurements",
        startup_figs::fig12_rtt_measurements,
    ),
    (
        "fig13_rtt_responsiveness",
        responsiveness_figs::fig13_rtt_responsiveness,
    ),
    ("fig14_slowstart", startup_figs::fig14_slowstart),
    ("fig15_late_join", startup_figs::fig15_late_join),
    ("fig16_late_join_tcp", startup_figs::fig16_late_join_tcp),
    (
        "fig17_loss_events_per_rtt",
        scaling_figs::fig17_loss_events_per_rtt,
    ),
    (
        "fig18_return_path_traffic",
        fairness_figs::fig18_return_path_traffic,
    ),
    (
        "fig19_lossy_return_paths",
        fairness_figs::fig19_lossy_return_paths,
    ),
    (
        "fig20_delay_responsiveness",
        responsiveness_figs::fig20_delay_responsiveness,
    ),
    (
        "fig21_flow_doubling",
        responsiveness_figs::fig21_flow_doubling,
    ),
    ("fig22_churn", churn_figs::fig22_churn),
    ("fig23_intertfmcc", intersession_figs::fig23_intertfmcc),
    (
        "fig24_fairness_matrix",
        fairness_matrix::fig24_fairness_matrix,
    ),
    ("scenario_search", scenario_search::scenario_search),
];

#[cfg(test)]
mod tests {
    use super::FIGURES;

    #[test]
    fn figures_are_registered_once_each_under_their_own_names() {
        let mut names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 24, "24 unique names: {names:?}");
        // The benchmark's figure table, `("figNN", module::function),` per
        // line: every function it times must be runnable by its name.
        let bench = include_str!("../../../perfbench/src/figs.rs");
        let tabled: Vec<&str> = bench
            .lines()
            .filter(|line| line.trim_start().starts_with("(\"fig"))
            .filter_map(|line| line.trim_end().strip_suffix("),")?.rsplit("::").next())
            .collect();
        assert_eq!(tabled.len(), 23, "benchmark table: {tabled:?}");
        for function in tabled {
            let hits = FIGURES.iter().filter(|(name, _)| *name == function).count();
            assert_eq!(hits, 1, "{function} is registered {hits} times");
        }
    }
}
