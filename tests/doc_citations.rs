//! The docs cite only things that exist.  README.md, DESIGN.md,
//! EXPERIMENTS.md and the verify skill name examples (`--example NAME`),
//! crate directories (`crates/NAME`), committed benchmark run sets
//! (`BENCH_*.json`) and figures (`figs -- NAME`); each citation must resolve
//! in the tree, so deleting a crate, an example, a run set or a figure
//! without updating the prose fails here.

use std::path::Path;

use tfmcc::experiments::FIGURES;

const DOCS: &[(&str, &str)] = &[
    ("README.md", include_str!("../README.md")),
    ("DESIGN.md", include_str!("../DESIGN.md")),
    ("EXPERIMENTS.md", include_str!("../EXPERIMENTS.md")),
    (
        ".claude/skills/verify/SKILL.md",
        include_str!("../.claude/skills/verify/SKILL.md"),
    ),
];

/// Each name that directly follows `prefix` in `text`, with the text after
/// it.  A name is the longest run of characters `in_name` accepts; empty
/// names (a glob such as `crates/*`, a placeholder such as `<name>`) are
/// skipped.
fn names_after<'a>(
    text: &'a str,
    prefix: &str,
    in_name: fn(char) -> bool,
) -> Vec<(&'a str, &'a str)> {
    text.match_indices(prefix)
        .map(|(at, _)| {
            let rest = &text[at + prefix.len()..];
            rest.split_at(rest.find(|c| !in_name(c)).unwrap_or(rest.len()))
        })
        .filter(|(name, _)| !name.is_empty())
        .collect()
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn is_crate_name(c: char) -> bool {
    is_ident(c) || c == '-'
}

fn is_bench_name(c: char) -> bool {
    is_ident(c) || c == '*'
}

/// Whether `dir` holds a file that matches `pattern`, where `pattern` may
/// contain one `*`.
fn has_file_matching(dir: &Path, pattern: &str) -> bool {
    let Some((head, tail)) = pattern.split_once('*') else {
        return dir.join(pattern).is_file();
    };
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .any(|entry| {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            name.len() >= head.len() + tail.len() && name.starts_with(head) && name.ends_with(tail)
        })
}

/// Every citation in `text` (the document `doc`) that does not resolve under
/// `root`, one line each.
fn stale_citations(doc: &str, text: &str, root: &Path) -> Vec<String> {
    let mut stale = Vec::new();
    let crate_dirs: Vec<_> = std::fs::read_dir(root.join("crates"))
        .into_iter()
        .flatten()
        .flatten()
        .map(|entry| entry.path())
        .collect();

    for (name, _) in names_after(text, "--example ", is_ident) {
        let file = format!("{name}.rs");
        let found = root.join("examples").join(&file).is_file()
            || crate_dirs
                .iter()
                .any(|dir| dir.join("examples").join(&file).is_file());
        if !found {
            stale.push(format!(
                "{doc}: `--example {name}` has no examples/{file} in the root or any crate"
            ));
        }
    }
    for (name, _) in names_after(text, "crates/", is_crate_name) {
        if !root.join("crates").join(name).is_dir() {
            stale.push(format!("{doc}: `crates/{name}` is not a directory"));
        }
    }
    for (name, rest) in names_after(text, "BENCH_", is_bench_name) {
        // Only whole file names: `BENCH_pr<N>_…` is a template.
        if !rest.starts_with(".json") {
            continue;
        }
        if !has_file_matching(root, &format!("BENCH_{name}.json")) {
            stale.push(format!("{doc}: `BENCH_{name}.json` is not in the repo"));
        }
    }
    for (name, _) in names_after(text, "figs -- ", is_ident) {
        if name != "list" && !FIGURES.iter().any(|(figure, _)| *figure == name) {
            stale.push(format!(
                "{doc}: `figs -- {name}` is neither `list` nor a figure"
            ));
        }
    }
    stale
}

#[test]
fn docs_cite_only_examples_crates_run_sets_and_figures_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let stale: Vec<String> = DOCS
        .iter()
        .flat_map(|(doc, text)| stale_citations(doc, text, root))
        .collect();
    assert!(stale.is_empty(), "stale citations:\n{}", stale.join("\n"));
}

#[test]
fn each_kind_of_stale_citation_is_reported() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let live = "cargo run --example quickstart; cargo run -p tfmcc-experiments \
                --example gen_regressions; crates/netsim/src; crates/*; \
                BENCH_pr35_parent.json, BENCH_pr28_*.json, BENCH_pr<N>_parent.json; \
                figs -- list, figs -- fig09_single_bottleneck, figs -- <name>";
    assert_eq!(stale_citations("live", live, root), Vec::<String>::new());

    let dead = "cargo run --example no_such_example; crates/no-such-crate/src; \
                BENCH_pr0_parent.json, BENCH_pr0_*.json; figs -- fig99_missing";
    assert_eq!(
        stale_citations("dead", dead, root),
        [
            "dead: `--example no_such_example` has no examples/no_such_example.rs in the root or any crate",
            "dead: `crates/no-such-crate` is not a directory",
            "dead: `BENCH_pr0_parent.json` is not in the repo",
            "dead: `BENCH_pr0_*.json` is not in the repo",
            "dead: `figs -- fig99_missing` is neither `list` nor a figure",
        ]
    );
}
