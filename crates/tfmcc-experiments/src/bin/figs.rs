//! The front door of the experiment harness: `figs <name> [flags]`
//! regenerates one figure of the TFMCC paper (or one of the experiments
//! beyond it) on the parallel sweep runner; `figs list` prints the names.
//! An unknown name exits with status 2.
//!
//! Flags: `--quick` / `--paper` select the scale, `--threads N` sizes the
//! sweep executor (results are byte-identical for any N) and `--out FILE`
//! writes the figure as deterministic JSON.  No figure reads the
//! environment; the one variable consulted, `TFMCC_REPLAY_DIR`, only names
//! the directory into which `scenario_search` writes its worst cases as
//! `tfmcc-replay-v1` files.

use tfmcc_experiments::{cli, FIGURES};
use tfmcc_runner::RunnerArgs;

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("list") => {
            for (name, _) in FIGURES {
                println!("{name}");
            }
        }
        Some(name) => match FIGURES.iter().find(|(n, _)| *n == name) {
            Some(&(_, run)) => cli::figure_main(run, args),
            None => {
                eprintln!("error: unknown figure '{name}' (`figs list` prints the names)");
                std::process::exit(2);
            }
        },
        None => {
            eprintln!("{}", RunnerArgs::USAGE);
            std::process::exit(2);
        }
    }
}
