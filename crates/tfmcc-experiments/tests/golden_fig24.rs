//! Golden-output regression test: the quick-scale Figure 24 (cross-protocol
//! fairness matrix over an AQM bottleneck) JSON is pinned byte for byte.
//!
//! The pinned file was captured when the pluggable `QueueDiscipline` layer
//! (gentle RED, CoDel) and the heterogeneous-protocol session wiring
//! landed.  It covers every pairing of TFMCC, PGMCC, TFRC and TCP plus the
//! four-way melee and the AQM robustness leg, all over the gentle-RED
//! bottleneck — so it pins the probabilistic-drop determinism
//! contract end to end.  Any future change to the simulator core, the
//! queue disciplines, a competitor protocol, or the JSON rendering that
//! alters this output must be deliberate: regenerate with
//!
//! ```text
//! cargo run --release -p tfmcc-experiments --bin figs -- fig24_fairness_matrix \
//!     --quick --threads 2 --out crates/tfmcc-experiments/tests/golden/fig24_quick.json
//! ```

use tfmcc_experiments::fairness_matrix::fig24_fairness_matrix;
use tfmcc_experiments::{Scale, SweepRunner};

const GOLDEN: &str = include_str!("golden/fig24_quick.json");

fn render_fig24() -> String {
    let fig = fig24_fairness_matrix(&SweepRunner::new(2), Scale::Quick);
    let mut rendered = fig.to_json().render();
    rendered.push('\n');
    rendered
}

#[test]
fn fig24_quick_json_matches_golden() {
    assert_eq!(
        render_fig24(),
        GOLDEN,
        "fig24 --quick output drifted from the pinned golden file"
    );
}
