//! Preset tuning aid: prints exhaustive state counts and wall time for a
//! grid of candidate budgets, so preset sizes can be chosen empirically.
//!
//! Run with `cargo run --release -p tfmcc-mc --example tune`.

#![allow(
    clippy::disallowed_methods,
    reason = "timing layer: wall time per candidate budget is what this aid prints"
)]

use std::time::Instant;

use tfmcc_mc::{explore, Limits, McConfig, McModel, Strategy};

fn main() {
    let base = McConfig::preset("smoke3").unwrap();
    let mut grid: Vec<(String, McConfig)> = Vec::new();
    for &max_time in &[0.1, 0.12, 0.15] {
        for &data in &[1u32] {
            for &in_flight in &[3usize, 4] {
                let mut c = base.clone();
                c.max_time = max_time;
                c.data_budget = data;
                c.max_in_flight = in_flight;
                grid.push((format!("T={max_time} data={data} fly={in_flight}"), c));
            }
        }
    }
    for (label, config) in grid {
        let model = McModel::new(config);
        let start = Instant::now();
        let out = explore(
            &model,
            Strategy::Dfs,
            Limits {
                max_states: 2_000_000,
                max_depth: usize::MAX,
            },
        );
        println!(
            "{label}: states={} dedup={} depth={} truncated={} violation={} {:.2}s",
            out.states_explored,
            out.dedup_hits,
            out.max_depth_seen,
            out.truncated,
            out.violation.is_some(),
            start.elapsed().as_secs_f64()
        );
    }
}
