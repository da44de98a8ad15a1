//! Command-line front end of the bounded model checker.
//!
//! ```text
//! mc_check [--preset NAME] [--strategy dfs|bfs] [--max-states N] [--out FILE]
//! ```
//!
//! Explores the chosen preset with all four invariants armed and prints a
//! one-line summary.  On an invariant violation the reproducing schedule is
//! printed — and written to `--out` as a `tfmcc-replay-v1` file, ready to be
//! checked in under `tests/regressions/` — and the process exits 1.  A
//! truncated (state-capped) clean run exits 0 but says so.

#![allow(
    clippy::disallowed_methods,
    reason = "timing layer: the wall clock only times the exploration for the summary line"
)]

use std::process::ExitCode;

use tfmcc_mc::{explore, Limits, McConfig, McModel, Replay, Strategy};

struct Args {
    preset: String,
    strategy: Strategy,
    max_states: usize,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        preset: "smoke3".to_string(),
        strategy: Strategy::Bfs,
        max_states: 2_000_000,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--preset" => args.preset = value("--preset")?,
            "--strategy" => {
                args.strategy = match value("--strategy")?.as_str() {
                    "dfs" => Strategy::Dfs,
                    "bfs" => Strategy::Bfs,
                    other => return Err(format!("unknown strategy '{other}' (dfs|bfs)")),
                }
            }
            "--max-states" => {
                args.max_states = value("--max-states")?
                    .parse()
                    .map_err(|e| format!("--max-states: {e}"))?
            }
            "--out" => args.out = Some(value("--out")?),
            "--help" | "-h" => {
                println!(
                    "usage: mc_check [--preset NAME] [--strategy dfs|bfs] \
                     [--max-states N] [--out FILE]\npresets: {}",
                    McConfig::preset_names().join(", ")
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::FAILURE;
        }
    };
    let Some(config) = McConfig::preset(&args.preset) else {
        eprintln!(
            "error: unknown preset '{}' (have: {})",
            args.preset,
            McConfig::preset_names().join(", ")
        );
        return ExitCode::FAILURE;
    };
    let model = McModel::new(config);
    let started = std::time::Instant::now();
    let outcome = explore(
        &model,
        args.strategy,
        Limits {
            max_states: args.max_states,
            max_depth: usize::MAX,
        },
    );
    println!(
        "preset={} strategy={:?} states={} dedup_hits={} max_depth={} exhausted={} {:.2}s",
        args.preset,
        args.strategy,
        outcome.states_explored,
        outcome.dedup_hits,
        outcome.max_depth_seen,
        !outcome.truncated,
        started.elapsed().as_secs_f64()
    );

    let Some(violation) = outcome.violation else {
        if outcome.truncated {
            println!("clean up to the state cap (state space NOT exhausted)");
        } else {
            println!(
                "state space exhausted, all invariants hold: {}",
                model.invariant_names().join(", ")
            );
        }
        return ExitCode::SUCCESS;
    };

    eprintln!(
        "VIOLATION of {}: {}",
        violation.invariant, violation.message
    );
    let schedule: Vec<String> = violation.schedule.iter().map(|a| a.to_string()).collect();
    eprintln!(
        "schedule ({} steps): {}",
        schedule.len(),
        schedule.join(" ")
    );
    if let Some(path) = &args.out {
        let mut replay = Replay::new("model-check");
        replay.set("preset", &args.preset);
        replay.set("invariant", &violation.invariant);
        replay.set("schedule", &schedule.join(" "));
        if let Err(err) = std::fs::write(path, replay.render()) {
            eprintln!("error: cannot write {path}: {err}");
        } else {
            eprintln!("counterexample replay written to {path}");
        }
    }
    ExitCode::FAILURE
}
