//! Experiment harness reproducing every figure of the TFMCC paper.
//!
//! Each module covers one family of figures and exposes
//! `run(runner, scale)` functions returning a [`output::Figure`] — a set of
//! named columns plus summary lines — which the per-figure binaries in
//! `src/bin/` print as CSV (and, with `--out`, write as deterministic JSON).
//! [`scale::Scale`] lets the same code run at paper scale (full receiver
//! counts and durations) or at a reduced scale suitable for tests and the
//! benchmark; the [`tfmcc_runner::SweepRunner`] argument shards each
//! figure's independent simulation points across worker threads with
//! deterministic per-point seeds, so results are byte-identical for any
//! `--threads N`.
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

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod churn_figs;
pub mod cli;
pub mod event_bench;
pub mod fairness_figs;
pub mod fairness_matrix;
pub mod feedback_figs;
pub mod intersession_figs;
pub mod output;
pub mod responsiveness_figs;
pub mod scale;
pub mod scaling_figs;
pub mod scenario_search;
pub mod startup_figs;
pub mod sweeps;

pub use output::{Figure, Series};
pub use scale::Scale;
pub use tfmcc_runner::SweepRunner;
