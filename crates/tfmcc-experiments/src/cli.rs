//! The shared experiment CLI behind the `figs` binary.
//!
//! Every figure of [`crate::FIGURES`] runs as `figs <name>` with the same
//! flags (parsed by [`tfmcc_runner::RunnerArgs`]):
//!
//! ```text
//! figs fig07_scaling [--quick | --paper] [--threads N] [--out FILE] [--bench-out FILE]
//! ```
//!
//! * `--quick` / `--paper` select the experiment [`Scale`] (default paper);
//! * `--threads N` sizes the sweep executor (default: all cores).  Results
//!   are byte-identical for any `N`;
//! * `--out FILE` writes the figure as deterministic JSON in addition to the
//!   CSV on stdout;
//! * `--bench-out FILE` writes the run's per-point timing trajectory as
//!   JSON.
//!
//! The flags are the whole configuration: a figure reads no environment
//! variable, so the same flags always produce the same output.
#![allow(
    clippy::disallowed_methods,
    reason = "timing layer: the wall clock times the figure for the stderr summary, and no result depends on it"
)]

use std::time::Instant;

use tfmcc_runner::{RunnerArgs, SweepRunner};

use crate::scale::Scale;
use crate::FigureFn;

/// Resolved configuration of one figure run.
pub struct FigureCli {
    /// The experiment scale.
    pub scale: Scale,
    /// The sweep executor every figure function runs its points on.
    pub runner: SweepRunner,
    /// Where to write the figure JSON, if requested.
    pub out: Option<std::path::PathBuf>,
    /// Where to write the timing trajectory, if requested.
    pub bench_out: Option<std::path::PathBuf>,
}

impl FigureCli {
    /// Parses `args` (the flags after the figure name), exiting on CLI
    /// errors.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        Self::from_runner_args(RunnerArgs::parse(args))
    }

    /// Builds the configuration from already-parsed arguments.
    pub fn from_runner_args(args: RunnerArgs) -> Self {
        FigureCli {
            scale: if args.quick {
                Scale::Quick
            } else {
                Scale::Paper
            },
            runner: SweepRunner::new(args.effective_threads()),
            out: args.out,
            bench_out: args.bench_out,
        }
    }
}

/// Runs one figure of `figs`: parse the flags in `args`, run the figure on
/// the sweep executor, print CSV to stdout, honour `--out`/`--bench-out`,
/// and log a one-line timing summary to stderr.
pub fn figure_main(run: FigureFn, args: impl IntoIterator<Item = String>) {
    let cli = FigureCli::parse(args);
    let started = Instant::now();
    let figure = run(&cli.runner, cli.scale);
    print!("{}", figure.to_csv());
    if let Some(path) = &cli.out {
        let mut json = figure.to_json().render();
        json.push('\n');
        if let Err(err) = std::fs::write(path, json) {
            eprintln!("error: cannot write {}: {err}", path.display());
            std::process::exit(1);
        }
    }
    if let Some(path) = &cli.bench_out {
        if let Err(err) = cli.runner.write_bench_json(&figure.id, path) {
            eprintln!("error: cannot write {}: {err}", path.display());
            std::process::exit(1);
        }
    }
    let report = cli.runner.report();
    eprintln!(
        "# {}: {} sweep points on {} thread(s) in {:.2}s (busy {:.2}s)",
        figure.id,
        report.records.len(),
        report.threads,
        started.elapsed().as_secs_f64(),
        report.busy_secs(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_resolves_scale_and_threads() {
        let args =
            RunnerArgs::try_parse(["--quick", "--threads", "3"].iter().map(|s| s.to_string()))
                .unwrap();
        let cli = FigureCli::from_runner_args(args);
        assert_eq!(cli.scale, Scale::Quick);
        assert_eq!(cli.runner.threads(), 3);
        assert!(cli.out.is_none() && cli.bench_out.is_none());
    }
}
