//! The shared experiment CLI behind the `figs` binary.
//!
//! Every figure of [`crate::FIGURES`] runs as `figs <name>` with the same
//! flags:
//!
//! ```text
//! figs fig07_scaling [--quick | --paper] [--threads N] [--out FILE]
//! ```
//!
//! * `--quick` / `--paper` select the experiment [`Scale`] (default paper);
//! * `--threads N` sizes the sweep executor (default: all cores).  Results
//!   are byte-identical for any `N`;
//! * `--out FILE` writes the figure as deterministic JSON in addition to the
//!   CSV on stdout.
//!
//! `figs list` prints the figure names.  `--threads=N`-style `=` forms are
//! accepted too.  Any other input is an error (exit status 2), and so is a
//! flag given twice or an argument after `list`.  The flags are the whole
//! configuration: a figure reads no environment variable, so the same flags
//! always produce the same output.
#![allow(
    clippy::disallowed_methods,
    reason = "timing layer: the wall clock times the figure for the stderr summary, and no result depends on it"
)]

use std::path::PathBuf;
use std::time::Instant;

use crate::exec::SweepRunner;
use crate::scale::Scale;
use crate::{FigureFn, FIGURES};

/// The command line the flags belong to.
pub const USAGE: &str =
    "usage: figs <name> [--quick | --paper] [--threads N] [--out FILE]\n       figs list";

/// What `figs` was asked to do.
pub enum Command {
    /// `figs list`: print the figure names.
    List,
    /// `figs <name> [flags]`: run one figure.
    Run(FigureFn, Args),
}

impl Command {
    /// Parses the whole argument list after the program name.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut args = args.into_iter();
        match args.next().as_deref() {
            None => Err("no figure named".into()),
            Some("list") => match args.next() {
                None => Ok(Command::List),
                Some(extra) => Err(format!("`figs list` takes no arguments, got '{extra}'")),
            },
            Some(name) => {
                let &(_, run) = FIGURES.iter().find(|(n, _)| *n == name).ok_or_else(|| {
                    format!("unknown figure '{name}' (`figs list` prints the names)")
                })?;
                Ok(Command::Run(run, Args::parse(args)?))
            }
        }
    }
}

/// The parsed flags of one figure run; `None` where a flag was not given.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    /// `--quick` or `--paper`.
    pub scale: Option<Scale>,
    /// `--threads N`.
    pub threads: Option<usize>,
    /// `--out FILE`.
    pub out: Option<PathBuf>,
}

/// Stores `value` in `slot`, unless a flag filled it before.
fn set_once<T>(slot: &mut Option<T>, value: T, flag: &str) -> Result<(), String> {
    match slot.replace(value) {
        None => Ok(()),
        Some(_) => Err(format!("{flag} given twice")),
    }
}

impl Args {
    /// Parses `args` (the flags after the figure name).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut parsed = Args::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f.to_string(), Some(v.to_string())),
                None => (arg, None),
            };
            let mut value = || match inline.clone() {
                Some(v) => Ok(v),
                None => it.next().ok_or_else(|| format!("{flag} requires a value")),
            };
            match flag.as_str() {
                "--quick" | "--paper" if inline.is_some() => {
                    return Err(format!("{flag} does not take a value"));
                }
                "--quick" | "--paper" => {
                    let scale = if flag == "--quick" {
                        Scale::Quick
                    } else {
                        Scale::Paper
                    };
                    set_once(&mut parsed.scale, scale, "--quick or --paper")?;
                }
                "--threads" => {
                    let v = value()?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| format!("invalid --threads value '{v}'"))?;
                    if n == 0 {
                        return Err("--threads must be at least 1".into());
                    }
                    set_once(&mut parsed.threads, n, "--threads")?;
                }
                "--out" => set_once(&mut parsed.out, PathBuf::from(value()?), "--out")?,
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(parsed)
    }

    /// The experiment scale: paper unless `--quick`.
    pub fn scale(&self) -> Scale {
        self.scale.unwrap_or_default()
    }

    /// The sweep executor: `--threads N` workers, otherwise one per
    /// available core.
    pub fn runner(&self) -> SweepRunner {
        SweepRunner::new(
            self.threads
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
        )
    }
}

/// Runs one figure of `figs` on the sweep executor: print CSV to stdout,
/// honour `--out`, and log a one-line timing summary to stderr.
pub fn figure_main(run: FigureFn, args: &Args) {
    let runner = args.runner();
    let started = Instant::now();
    let figure = run(&runner, args.scale());
    print!("{}", figure.to_csv());
    if let Some(path) = &args.out {
        let mut json = figure.to_json().render();
        json.push('\n');
        if let Err(err) = std::fs::write(path, json) {
            eprintln!("error: cannot write {}: {err}", path.display());
            std::process::exit(1);
        }
    }
    let report = runner.report();
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

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    fn command(args: &[&str]) -> Result<Command, String> {
        Command::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn commands_resolve_figure_names() {
        assert!(matches!(command(&["list"]), Ok(Command::List)));
        let Ok(Command::Run(run, args)) = command(&["fig17_loss_events_per_rtt", "--quick"]) else {
            panic!("a registered figure name runs it");
        };
        assert_eq!(args.scale(), Scale::Quick);
        assert_eq!(run(&SweepRunner::serial(), args.scale()).id, "fig17");
    }

    #[test]
    fn parses_all_flags() {
        let args = parse(&["--quick", "--threads", "4", "--out", "fig.json"]).unwrap();
        assert_eq!(args.scale(), Scale::Quick);
        assert_eq!(args.threads, Some(4));
        assert_eq!(args.out, Some(PathBuf::from("fig.json")));
        assert_eq!(parse(&["--paper"]).unwrap().scale(), Scale::Paper);
    }

    #[test]
    fn parses_equals_forms() {
        let args = parse(&["--threads=8", "--out=fig.json"]).unwrap();
        assert_eq!(args.threads, Some(8));
        assert_eq!(args.out, Some(PathBuf::from("fig.json")));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--threads", "zero"]).is_err());
        // No longer flags: they must fail loudly, not be accepted and ignored.
        assert!(parse(&["--scheduler", "heap"]).is_err());
        assert!(parse(&["--sessions", "4"]).is_err());
        assert!(parse(&["--queue", "codel"]).is_err());
        assert!(parse(&["--bench-out", "timing.json"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--quick", "--paper"]).is_err());
        assert!(parse(&["--quick=paper"]).is_err());
        assert!(parse(&["--paper=false"]).is_err());
        // A repeated flag is an error, not a silent last-one-wins.
        assert!(parse(&["--out", "a", "--out", "b"]).is_err());
        assert!(parse(&["--threads", "2", "--threads", "4"]).is_err());
        assert!(parse(&["--threads=2", "--threads=2"]).is_err());
        assert!(parse(&["--quick", "--quick"]).is_err());
        // Neither is a name that is not a figure, nor anything after `list`.
        assert!(command(&[]).is_err());
        assert!(command(&["fig08"]).is_err());
        assert!(command(&["list", "fig07_scaling"]).is_err());
        assert!(command(&["list", "--quick"]).is_err());
        assert!(command(&["fig07_scaling", "--out", "a", "--out", "b"]).is_err());
    }

    #[test]
    fn defaults_are_empty() {
        let args = parse(&[]).unwrap();
        assert_eq!(args, Args::default());
        assert_eq!(args.scale(), Scale::Paper);
        assert!(args.runner().threads() >= 1);
    }

    #[test]
    fn cli_resolves_scale_and_threads() {
        let args = parse(&["--quick", "--threads", "3"]).unwrap();
        assert_eq!(args.scale(), Scale::Quick);
        assert_eq!(args.runner().threads(), 3);
        assert!(args.out.is_none());
    }
}
