//! Golden-output regression test: the quick-scale Figure 23 (inter-TFMCC
//! fairness) JSON is pinned byte for byte.
//!
//! The pinned file was captured when the multi-session `SessionManager`
//! landed (incremental feedback aggregation as the default sender path).
//! Any future change to the simulator core, the protocol, the session
//! layer, or the JSON rendering that alters this output must be deliberate:
//! regenerate with
//!
//! ```text
//! cargo run --release -p tfmcc-experiments --bin figs -- fig23_intertfmcc \
//!     --quick --threads 2 --out crates/tfmcc-experiments/tests/golden/fig23_quick.json
//! ```

use tfmcc_experiments::intersession_figs::fig23_intertfmcc;
use tfmcc_experiments::{Scale, SweepRunner};

const GOLDEN: &str = include_str!("golden/fig23_quick.json");

fn render_fig23() -> String {
    let fig = fig23_intertfmcc(&SweepRunner::new(2), Scale::Quick);
    let mut rendered = fig.to_json().render();
    rendered.push('\n');
    rendered
}

#[test]
fn fig23_quick_json_matches_golden() {
    assert_eq!(
        render_fig23(),
        GOLDEN,
        "fig23 --quick output drifted from the pinned golden file"
    );
}
