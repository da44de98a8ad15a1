//! The shared experiment command line.
//!
//! Every figure run as `figs <name>` accepts the same flags:
//!
//! ```text
//! --quick             reduced scale (tests, CI smoke)
//! --paper             the paper's full scale (default)
//! --threads N         worker threads for the sweep executor
//!                     (default: all available cores)
//! --out FILE          write the figure as deterministic JSON to FILE
//! --bench-out FILE    write the run's per-point timing trajectory (JSON)
//! ```
//!
//! `--threads=N`-style `=` forms are accepted too; any other flag is an
//! error.  The experiments crate, which owns the `Scale` type, maps
//! `--quick` to its scale (this crate does not depend on the simulator).

use std::path::PathBuf;

/// Parsed shared CLI flags.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunnerArgs {
    /// `--quick` was passed.
    pub quick: bool,
    /// `--paper` was passed.
    pub paper: bool,
    /// `--threads N`, if given.
    pub threads: Option<usize>,
    /// `--out FILE`, if given.
    pub out: Option<PathBuf>,
    /// `--bench-out FILE`, if given.
    pub bench_out: Option<PathBuf>,
}

impl RunnerArgs {
    /// The command line these flags belong to.
    pub const USAGE: &'static str =
        "usage: figs <name> [--quick | --paper] [--threads N] [--out FILE] [--bench-out FILE]";

    /// Parses `args` (the flags after the figure name), printing usage and
    /// exiting with status 2 on errors.
    pub fn parse<I>(args: I) -> Self
    where
        I: IntoIterator<Item = String>,
    {
        match Self::try_parse(args) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!("{}", Self::USAGE);
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list (for tests).
    pub fn try_parse<I>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut parsed = RunnerArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f.to_string(), Some(v.to_string())),
                None => (arg, None),
            };
            let value = |it: &mut I::IntoIter| -> Result<String, String> {
                match inline.clone() {
                    Some(v) => Ok(v),
                    None => it.next().ok_or_else(|| format!("{flag} requires a value")),
                }
            };
            match flag.as_str() {
                "--quick" | "--paper" if inline.is_some() => {
                    return Err(format!("{flag} does not take a value"));
                }
                "--quick" => parsed.quick = true,
                "--paper" => parsed.paper = true,
                "--threads" => {
                    let v = value(&mut it)?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| format!("invalid --threads value '{v}'"))?;
                    if n == 0 {
                        return Err("--threads must be at least 1".into());
                    }
                    parsed.threads = Some(n);
                }
                "--out" => parsed.out = Some(PathBuf::from(value(&mut it)?)),
                "--bench-out" => parsed.bench_out = Some(PathBuf::from(value(&mut it)?)),
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        if parsed.quick && parsed.paper {
            return Err("--quick and --paper are mutually exclusive".into());
        }
        Ok(parsed)
    }

    /// The worker-thread count to use: `--threads N` if given, otherwise the
    /// machine's available parallelism.
    pub fn effective_threads(&self) -> usize {
        self.threads.unwrap_or_else(available_threads)
    }
}

/// The machine's available parallelism (1 if it cannot be determined).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunnerArgs, String> {
        RunnerArgs::try_parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_all_flags() {
        let args = parse(&["--quick", "--threads", "4", "--out", "fig.json"]).unwrap();
        assert!(args.quick && !args.paper);
        assert_eq!(args.threads, Some(4));
        assert_eq!(args.out, Some(PathBuf::from("fig.json")));
        assert_eq!(args.effective_threads(), 4);
    }

    #[test]
    fn parses_equals_forms() {
        let args = parse(&["--threads=8", "--bench-out=timing.json"]).unwrap();
        assert_eq!(args.threads, Some(8));
        assert_eq!(args.bench_out, Some(PathBuf::from("timing.json")));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--threads", "zero"]).is_err());
        // No longer flags: they must fail loudly, not be accepted and ignored.
        assert!(parse(&["--scheduler", "heap"]).is_err());
        assert!(parse(&["--sessions", "4"]).is_err());
        assert!(parse(&["--queue", "codel"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--quick", "--paper"]).is_err());
        assert!(parse(&["--quick=paper"]).is_err());
        assert!(parse(&["--paper=false"]).is_err());
    }

    #[test]
    fn defaults_are_empty() {
        let args = parse(&[]).unwrap();
        assert_eq!(args, RunnerArgs::default());
        assert!(args.effective_threads() >= 1);
    }
}
