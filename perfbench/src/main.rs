//! `tfmcc_bench`: the repo benchmark's command line.
//!
//! ```text
//! tfmcc_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!             [--runs K] [--out FILE]
//! tfmcc_bench compare A.json B.json
//! tfmcc_bench manifest            # prints BENCHMARK.json from the code's tables
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::compare::compare;
use perfbench::json::{self, Json};
use perfbench::run::{per_layer, run, RunResult, Workload, END_TO_END};
use perfbench::sims::Sizes;

const USAGE: &str =
    "usage: tfmcc_bench [--workload fanout_star|fanout_churn|tfmcc_star|figs_quick] \
[--seed N] [--seconds S] [--trace 0|1] [--runs K] [--out FILE]\n       \
tfmcc_bench compare A.json B.json\n       tfmcc_bench manifest";

/// Seconds one run measures, as `BENCHMARK.json` states them.
const RUN_SECONDS: f64 = 30.0;

/// `BENCHMARK.json`, rendered from the tables the benchmark itself reports
/// from (a self-test holds the checked-in file to them), one entry per line.
fn manifest() -> String {
    let list = |items: Vec<Json>| {
        let lines: Vec<String> = items
            .iter()
            .map(|i| format!("    {}", i.render()))
            .collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|&s| Json::str(s)).collect());
    let command = strs(&[
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "perfbench/Cargo.toml",
        "--bin",
        "tfmcc_bench",
        "--",
    ]);
    let workloads = Workload::ALL
        .iter()
        .map(|w| {
            Json::Obj(vec![
                ("name".into(), Json::str(w.name())),
                ("why".into(), Json::str(w.why())),
            ])
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::Obj(vec![
                ("name".into(), Json::str(m.name)),
                ("unit".into(), Json::str(m.unit)),
                ("better".into(), Json::str(m.better)),
                ("bound".into(), Json::num(m.bound)),
            ])
        })
        .collect();
    let layers = per_layer()
        .into_iter()
        .map(|m| {
            Json::Obj(vec![
                ("name".into(), Json::str(m.name)),
                ("unit".into(), Json::str(m.unit)),
                ("better".into(), Json::str(m.better)),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}",
        command.render(),
        strs(&["perfbench"]).render(),
        RUN_SECONDS,
        list(workloads),
        list(end_to_end),
        list(layers),
    )
}

struct Args {
    /// One workload, or all four when absent.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Runs per workload, with seeds `seed`, `seed + 1`, ...
    runs: u64,
    /// Where to collect the runs' records for `compare`.
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        runs: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(Workload::from_name(value).ok_or_else(bad)?);
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&parsed.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--runs" => {
                parsed.runs = value.parse().map_err(|_| bad())?;
                if !(1..=1000).contains(&parsed.runs) {
                    return Err(bad());
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(parsed)
}

fn write_file(path: &Path, doc: &Json) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.render() + "\n")
}

fn read_set(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match (read_set(a), read_set(b)) {
            (Ok(a), Ok(b)) => {
                let (lines, worse) = compare(&a, &b);
                println!("{}", lines.join("\n"));
                ExitCode::from(u8::from(worse))
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    if argv == ["manifest"] {
        println!("{}", manifest());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The benchmark measures the default engine configuration: no
    // `TFMCC_*` override (scheduler, domains, aggregator, queue, scale) may
    // leak in from the caller's environment.
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("TFMCC_") {
            std::env::remove_var(name);
        }
    }

    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut records = Vec::new();
    let mut all_correct = true;
    let mut last: Option<RunResult> = None;
    for i in 0..args.runs {
        for &workload in &workloads {
            let seed = args.seed + i;
            let result = run(workload, &Sizes::STANDARD, seed, args.seconds, args.trace);
            println!("{}", result.report.join("\n"));
            for failure in &result.ops.failures {
                println!("  FAILED {failure}");
            }
            if let Some(doc) = &result.trace_doc {
                let path = format!("perfbench/out/trace_{}_seed{seed}.json", workload.name());
                let path = Path::new(&path);
                match write_file(path, doc) {
                    Ok(()) => println!("  spans and counters written to {}", path.display()),
                    Err(e) => eprintln!("warning: {}: {e}", path.display()),
                }
            }
            if result.metrics.is_empty() {
                eprintln!("error: {} produced no measurement", workload.name());
                return ExitCode::FAILURE;
            }
            all_correct &= result.correct();
            records.push(result.record_json());
            last = Some(result);
        }
    }
    if let Some(path) = &args.out {
        let set = Json::Obj(vec![("runs".into(), Json::Arr(records))]);
        if let Err(e) = write_file(path, &set) {
            eprintln!("error: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    // The driver reads the last line of a single-workload run.
    if let (Some(result), Some(_)) = (&last, args.workload) {
        println!("{}", result.contract_json().render());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
