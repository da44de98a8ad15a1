//! Fixture tests: one known-bad snippet per rule, plus the negative space
//! (allowed layers, strings/comments, suppression semantics).  Every rule id
//! the linter ships must be caught here — if a rule rots, this file fails.

use tfmcc_lint::lint_source;

/// Shorthand: lint `src` as if it lived at `path`, return `(rule, line)`
/// pairs.
fn lint(path: &str, src: &str) -> Vec<(String, usize)> {
    let (findings, _) = lint_source(path, src);
    findings
        .into_iter()
        .map(|f| (f.rule.to_string(), f.line))
        .collect()
}

// ---------------------------------------------------------------- D001 ----

#[test]
fn d001_hashmap_in_sim_visible_crate() {
    let src = "use std::collections::HashMap;\nstruct S { m: HashMap<u64, u64> }\n";
    let got = lint("crates/netsim/src/sim.rs", src);
    assert_eq!(
        got,
        vec![("D001".to_string(), 1), ("D001".to_string(), 2)],
        "{got:?}"
    );
}

#[test]
fn d001_hashset_in_sim_visible_crate() {
    let got = lint(
        "crates/tfmcc-proto/src/aggregator.rs",
        "use std::collections::HashSet;\n",
    );
    assert_eq!(got, vec![("D001".to_string(), 1)]);
}

#[test]
fn d001_does_not_apply_outside_sim_visible_crates() {
    let src = "use std::collections::HashMap;\n";
    assert!(lint("crates/tfmcc-runner/src/exec.rs", src).is_empty());
    assert!(lint("crates/tfmcc-experiments/src/cli.rs", src).is_empty());
}

#[test]
fn d001_ignores_strings_comments_and_derive_hash() {
    let src = r##"
        // A HashMap would be wrong here.
        /* HashMap in block comment */
        #[derive(Hash, PartialEq)]
        struct K(u64);
        const NAME: &str = "HashMap";
        const RAW: &str = r#"HashSet"#;
    "##;
    assert!(lint("crates/netsim/src/sim.rs", src).is_empty());
}

// ---------------------------------------------------------------- D002 ----

#[test]
fn d002_instant_now_outside_timing_layer() {
    let src = "fn f() { let t = std::time::Instant::now(); }\n";
    let got = lint("crates/tfmcc-proto/src/sender.rs", src);
    assert_eq!(got, vec![("D002".to_string(), 1)]);
}

#[test]
fn d002_systemtime_outside_timing_layer() {
    let got = lint("crates/netsim/src/sim.rs", "use std::time::SystemTime;\n");
    assert_eq!(got, vec![("D002".to_string(), 1)]);
}

#[test]
fn d002_timing_layer_is_exempt() {
    let src = "fn f() { let t = std::time::Instant::now(); }\n";
    assert!(lint("crates/tfmcc-runner/src/exec.rs", src).is_empty());
    assert!(lint("crates/netsim/benches/microbench.rs", src).is_empty());
    assert!(lint("examples/scale_probe.rs", src).is_empty());
    assert!(lint("crates/tfmcc-mc/src/bin/mc_check.rs", src).is_empty());
    assert!(lint("crates/tfmcc-mc/examples/tune.rs", src).is_empty());
}

#[test]
fn d002_instant_type_without_now_is_fine() {
    // Holding an `Instant` handed in by the timing layer is fine; *reading*
    // the wall clock is not.
    let src = "fn f(t: std::time::Instant) -> f64 { t.elapsed().as_secs_f64() }\n";
    assert!(lint("crates/tfmcc-proto/src/sender.rs", src).is_empty());
}

// ---------------------------------------------------------------- D003 ----

#[test]
fn d003_entropy_rng_is_banned_everywhere() {
    for path in [
        "crates/netsim/src/sim.rs",
        "crates/tfmcc-runner/src/exec.rs",
        "examples/quickstart.rs",
        "tests/integration.rs",
    ] {
        for bad in [
            "let mut r = rand::thread_rng();\n",
            "let r = SmallRng::from_entropy();\n",
            "let r = SmallRng::from_os_rng();\n",
            "use rand::rngs::OsRng;\n",
        ] {
            let got = lint(path, bad);
            assert_eq!(got, vec![("D003".to_string(), 1)], "{path}: {bad}");
        }
    }
}

#[test]
fn d003_seeded_rng_is_fine() {
    let src = "let mut r = SmallRng::seed_from_u64(stream_seed(root, 7));\n";
    assert!(lint("crates/netsim/src/sim.rs", src).is_empty());
}

// ---------------------------------------------------------------- D004 ----

#[test]
fn d004_float_keys_in_ordered_containers() {
    let cases = [
        "struct S { m: BTreeMap<f64, u64> }\n",
        "struct S { s: BTreeSet<(f64, u64)> }\n",
        "struct S { h: BinaryHeap<f32> }\n",
        "let s = BTreeSet::<f64>::new();\n",
    ];
    for src in cases {
        let got = lint("crates/tfmcc-agents/src/manager.rs", src);
        assert_eq!(got, vec![("D004".to_string(), 1)], "{src}");
    }
}

#[test]
fn d004_bit_keyed_indexes_are_fine() {
    let src = "struct S { idx: BTreeSet<(u64, ReceiverId)> }\n";
    assert!(lint("crates/tfmcc-proto/src/aggregator.rs", src).is_empty());
}

// ---------------------------------------------------------------- U001 ----

#[test]
fn u001_unsafe_without_safety_comment() {
    let src = "fn f() { unsafe { std::hint::unreachable_unchecked() } }\n";
    let got = lint("crates/netsim/src/sim.rs", src);
    assert_eq!(got, vec![("U001".to_string(), 1)]);
}

#[test]
fn u001_safety_comment_satisfies() {
    let src = "// SAFETY: guarded by the match above.\nfn f() { unsafe { std::hint::unreachable_unchecked() } }\n";
    assert!(lint("crates/netsim/src/sim.rs", src).is_empty());
}

#[test]
fn u001_safety_comment_too_far_away_does_not_count() {
    let src = "// SAFETY: stale\n\n\n\n\nfn f() { unsafe { core::mem::zeroed::<u8>() } }\n";
    let got = lint("crates/netsim/src/sim.rs", src);
    assert_eq!(got, vec![("U001".to_string(), 6)]);
}

#[test]
fn u001_pure_crate_must_forbid_unsafe() {
    let got = lint("crates/tfmcc-model/src/lib.rs", "//! Pure math.\n");
    assert_eq!(got, vec![("U001".to_string(), 1)]);
    let ok = "//! Pure math.\n#![forbid(unsafe_code)]\n";
    assert!(lint("crates/tfmcc-model/src/lib.rs", ok).is_empty());
}

#[test]
fn u001_forbid_requirement_only_applies_to_lib_rs() {
    // Other modules of the pure crates inherit the crate-level forbid.
    assert!(lint("crates/tfmcc-model/src/throughput.rs", "fn f() {}\n").is_empty());
}

// ----------------------------------------------------- suppression / L001 ----

#[test]
fn reasoned_pragma_suppresses_same_line() {
    let src =
        "use std::collections::HashMap; // tfmcc-lint: allow(D001, reason = \"test fixture\")\n";
    let (findings, suppressed) = lint_source("crates/netsim/src/sim.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(suppressed, 1);
}

#[test]
fn reasoned_pragma_suppresses_next_line() {
    let src = "// tfmcc-lint: allow(D001, reason = \"membership probe, order never escapes\")\nuse std::collections::HashMap;\n";
    let (findings, suppressed) = lint_source("crates/netsim/src/sim.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(suppressed, 1);
}

#[test]
fn pragma_does_not_reach_two_lines_down() {
    let src =
        "// tfmcc-lint: allow(D001, reason = \"scope check\")\n\nuse std::collections::HashMap;\n";
    let got = lint("crates/netsim/src/sim.rs", src);
    assert_eq!(got, vec![("D001".to_string(), 3)]);
}

#[test]
fn pragma_only_suppresses_its_own_rule() {
    let src =
        "// tfmcc-lint: allow(D002, reason = \"wrong rule\")\nuse std::collections::HashMap;\n";
    let got = lint("crates/netsim/src/sim.rs", src);
    assert_eq!(got, vec![("D001".to_string(), 2)]);
}

#[test]
fn reasonless_pragma_is_an_error_and_does_not_suppress() {
    let src = "// tfmcc-lint: allow(D001)\nuse std::collections::HashMap;\n";
    let (findings, suppressed) = lint_source("crates/netsim/src/sim.rs", src);
    assert_eq!(suppressed, 0);
    // Sorted by position: the bad pragma (line 1) precedes the un-suppressed
    // finding it failed to cover (line 2).
    let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec!["L001", "D001"], "{findings:?}");
}

#[test]
fn unknown_rule_pragma_is_an_error() {
    let src = "// tfmcc-lint: allow(D042, reason = \"no such rule\")\n";
    let got = lint("crates/netsim/src/sim.rs", src);
    assert_eq!(got, vec![("L001".to_string(), 1)]);
}

#[test]
fn empty_reason_pragma_is_an_error() {
    let src = "// tfmcc-lint: allow(D001, reason = \"\")\nuse std::collections::HashMap;\n";
    let (findings, suppressed) = lint_source("crates/netsim/src/sim.rs", src);
    assert_eq!(suppressed, 0);
    let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec!["L001", "D001"], "{findings:?}");
}

// ------------------------------------------------------------- spans ----

#[test]
fn findings_carry_accurate_spans() {
    let src = "\n\n    let m: HashMap<u64, u64> = HashMap::new();\n";
    let (findings, _) = lint_source("crates/netsim/src/sim.rs", src);
    assert_eq!(findings.len(), 2);
    assert_eq!((findings[0].line, findings[0].column), (3, 12));
    assert_eq!((findings[1].line, findings[1].column), (3, 32));
}

#[test]
fn multiple_rules_in_one_file_all_fire() {
    let src = "use std::collections::HashMap;\nlet t = Instant::now();\nlet r = thread_rng();\n";
    let got = lint("crates/tfmcc-feedback/src/round.rs", src);
    let rules: Vec<&str> = got.iter().map(|(r, _)| r.as_str()).collect();
    assert_eq!(rules, vec!["D001", "D002", "D003"], "{got:?}");
}
