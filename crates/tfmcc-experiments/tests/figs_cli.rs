//! The `figs` front door, end to end: what it lists, prints and writes is
//! the library's own registry and rendering.

use std::process::{Command, Output};

use tfmcc_experiments::scaling_figs::fig17_loss_events_per_rtt;
use tfmcc_experiments::{Scale, SweepRunner, FIGURES};

fn figs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figs"))
        .args(args)
        .output()
        .expect("figs starts")
}

#[test]
fn list_prints_every_registered_name() {
    let out = figs(&["list"]);
    assert!(out.status.success());
    let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    let listed = String::from_utf8(out.stdout).unwrap();
    assert_eq!(listed.lines().collect::<Vec<_>>(), names);
}

#[test]
fn stdout_and_out_file_match_the_library() {
    let path = std::env::temp_dir().join(format!("figs_cli_{}.json", std::process::id()));
    let out = figs(&[
        "fig17_loss_events_per_rtt",
        "--quick",
        "--threads",
        "2",
        "--out",
        path.to_str().unwrap(),
    ]);
    let summary = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "{summary}");
    let written = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let fig = fig17_loss_events_per_rtt(&SweepRunner::serial(), Scale::Quick);
    assert_eq!(written, fig.to_json().render() + "\n");
    assert_eq!(String::from_utf8(out.stdout).unwrap(), fig.to_csv());
    assert!(summary.starts_with("# fig17: "), "{summary}");
    assert!(summary.contains(" on 2 thread(s) "), "{summary}");
}
