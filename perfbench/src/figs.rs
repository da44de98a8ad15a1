//! The `figs_quick` workload: every figure function of `tfmcc-experiments`
//! at `Scale::Quick` on the serial sweep runner — what a user reproducing
//! the paper runs.

use std::hash::Hasher;
use std::time::Instant;

use tfmcc_experiments::{
    churn_figs, fairness_figs, fairness_matrix, feedback_figs, intersession_figs,
    responsiveness_figs, scaling_figs, startup_figs, Figure, Scale, SweepRunner,
};

use crate::caught;
use tfmcc_mc::Fnv1a;

/// A figure function.
pub type FigFn = fn(&SweepRunner, Scale) -> Figure;

/// Every figure, by the short name its layer metric carries.
pub const FIGURES: [(&str, FigFn); 23] = [
    ("fig01", feedback_figs::fig01_bias_cdf),
    ("fig02", feedback_figs::fig02_time_value),
    ("fig03", feedback_figs::fig03_cancellation),
    ("fig04", feedback_figs::fig04_expected_feedback),
    ("fig05", feedback_figs::fig05_response_time),
    ("fig06", feedback_figs::fig06_feedback_quality),
    ("fig07", scaling_figs::fig07_scaling),
    ("fig09", fairness_figs::fig09_single_bottleneck),
    ("fig10", fairness_figs::fig10_tail_circuits),
    ("fig11", responsiveness_figs::fig11_loss_responsiveness),
    ("fig12", startup_figs::fig12_rtt_measurements),
    ("fig13", responsiveness_figs::fig13_rtt_responsiveness),
    ("fig14", startup_figs::fig14_slowstart),
    ("fig15", startup_figs::fig15_late_join),
    ("fig16", startup_figs::fig16_late_join_tcp),
    ("fig17", scaling_figs::fig17_loss_events_per_rtt),
    ("fig18", fairness_figs::fig18_return_path_traffic),
    ("fig19", fairness_figs::fig19_lossy_return_paths),
    ("fig20", responsiveness_figs::fig20_delay_responsiveness),
    ("fig21", responsiveness_figs::fig21_flow_doubling),
    ("fig22", churn_figs::fig22_churn),
    ("fig23", intersession_figs::fig23_intertfmcc),
    ("fig24", fairness_matrix::fig24_fairness_matrix),
];

/// The checked-in quick-scale goldens (read only), compiled in the way the
/// golden tests of `tfmcc-experiments` compile them in.
const GOLDENS: [(&str, &str); 3] = [
    (
        "fig09",
        include_str!("../../crates/tfmcc-experiments/tests/golden/fig09_quick.json"),
    ),
    (
        "fig23",
        include_str!("../../crates/tfmcc-experiments/tests/golden/fig23_quick.json"),
    ),
    (
        "fig24",
        include_str!("../../crates/tfmcc-experiments/tests/golden/fig24_quick.json"),
    ),
];

/// One figure call of one pass: an operation.
#[derive(Debug, Clone)]
pub struct FigCall {
    /// The figure's short name.
    pub name: &'static str,
    /// Host milliseconds of the call, rendering included.
    pub wall_ms: f64,
    /// The rendered JSON with its trailing newline, as `--out` writes it;
    /// `Err` with the panic message if the figure panicked.
    pub json: Result<String, String>,
}

impl FigCall {
    /// The golden check: figures with a checked-in golden must match it
    /// byte for byte; a panicked figure fails.
    pub fn check(&self) -> Result<(), String> {
        let json = self.json.as_ref().map_err(|e| format!("panicked: {e}"))?;
        match GOLDENS.iter().find(|(name, _)| *name == self.name) {
            Some((_, golden)) if json != golden => {
                Err("output differs from the checked-in golden".into())
            }
            _ => Ok(()),
        }
    }
}

/// One pass over all figures.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host seconds of the 23 calls.
    pub wall_s: f64,
    /// The calls, in figure order.
    pub calls: Vec<FigCall>,
    /// Sum of per-point seconds over (threads x pass wall): how busy the
    /// sweep runner kept its workers.
    pub busy_frac: f64,
}

impl Pass {
    /// A digest over every figure's rendered JSON.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        for call in &self.calls {
            match &call.json {
                Ok(json) => h.write(json.as_bytes()),
                Err(_) => h.write(b"panicked"),
            }
        }
        h.finish()
    }
}

/// Runs every figure once on a runner with `threads` workers.
pub fn pass(threads: usize) -> Pass {
    let runner = SweepRunner::new(threads);
    let started = Instant::now();
    let calls = FIGURES
        .iter()
        .map(|&(name, fig)| {
            let t0 = Instant::now();
            let json = caught(|| {
                let mut rendered = fig(&runner, Scale::Quick).to_json().render();
                rendered.push('\n');
                rendered
            });
            FigCall {
                name,
                wall_ms: t0.elapsed().as_secs_f64() * 1e3,
                json,
            }
        })
        .collect();
    let wall_s = started.elapsed().as_secs_f64();
    let busy: f64 = runner.report().records.iter().map(|r| r.secs).sum();
    Pass {
        wall_s,
        calls,
        busy_frac: busy / (threads.max(1) as f64 * wall_s),
    }
}
