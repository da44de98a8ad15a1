//! Golden-output regression test: the quick-scale Figure 9 JSON is pinned
//! byte for byte.
//!
//! The pinned file was captured after the per-link RNG streams landed and
//! is unchanged by the zero-copy fan-out refactor (shared and clone-based
//! fan-out produce identical event sequences — see the `netsim`
//! `fanout_equivalence` proptest).  Any future change to the simulator core,
//! the protocol, or the JSON rendering that alters this output must be
//! deliberate: regenerate with
//!
//! ```text
//! cargo run --release -p tfmcc-experiments --bin figs -- fig09_single_bottleneck \
//!     --quick --threads 2 --out crates/tfmcc-experiments/tests/golden/fig09_quick.json
//! ```

use tfmcc_experiments::fairness_figs::fig09_single_bottleneck;
use tfmcc_experiments::{Scale, SweepRunner};

const GOLDEN: &str = include_str!("golden/fig09_quick.json");

fn render_fig09() -> String {
    let fig = fig09_single_bottleneck(&SweepRunner::new(2), Scale::Quick);
    let mut rendered = fig.to_json().render();
    rendered.push('\n');
    rendered
}

#[test]
fn fig09_quick_json_matches_golden() {
    assert_eq!(
        render_fig09(),
        GOLDEN,
        "fig09 --quick output drifted from the pinned golden file"
    );
}
