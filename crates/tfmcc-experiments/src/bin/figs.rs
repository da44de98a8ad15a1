//! The front door of the experiment harness: `figs <name> [flags]`
//! regenerates one figure of the TFMCC paper (or one of the experiments
//! beyond it) on the parallel sweep runner; `figs list` prints the names.
//! An unknown name, a bad flag or anything after `list` exits with status 2.
//!
//! Flags: `--quick` / `--paper` select the scale, `--threads N` sizes the
//! sweep executor (results are byte-identical for any N) and `--out FILE`
//! writes the figure as deterministic JSON.  No figure reads the
//! environment; the one variable consulted, `TFMCC_REPLAY_DIR`, only names
//! the directory into which `scenario_search` writes its worst cases as
//! `tfmcc-replay-v1` files.

use tfmcc_experiments::cli::{figure_main, Command, USAGE};
use tfmcc_experiments::FIGURES;

fn main() {
    match Command::parse(std::env::args().skip(1)) {
        Ok(Command::List) => FIGURES.iter().for_each(|(name, _)| println!("{name}")),
        Ok(Command::Run(run, args)) => figure_main(run, &args),
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    }
}
