//! The determinism rules and the crate/layer classification they key off.
//!
//! | Rule | Enforces |
//! |------|----------|
//! | D001 | no `HashMap`/`HashSet` in sim-visible crates (iteration order breaks replay) |
//! | D002 | no `Instant::now`/`SystemTime` outside the bench/CLI timing layer |
//! | D003 | no entropy-seeded randomness anywhere (`thread_rng`, `from_entropy`, …) |
//! | D004 | no raw `f64`/`f32` keys in ordered containers (use order-preserving bit keys) |
//! | U001 | every `unsafe` carries a `// SAFETY:` comment; pure crates `#![forbid(unsafe_code)]` |
//! | L001 | suppression pragmas must be well-formed and carry a reason |
//!
//! Rules match on identifier-token sequences, so mentions inside strings,
//! comments and doc prose never trip them ([`crate::lexer`]).

use crate::lexer::{Token, TokenKind};

/// Every rule id the linter knows (the pragma parser validates against it).
pub const RULE_IDS: &[&str] = &["D001", "D002", "D003", "D004", "U001", "L001"];

/// Crates whose state is visible to a simulation: anything that can change
/// packet contents, event order or replay output.  `HashMap`/`HashSet`
/// iteration order is nondeterministic across builds and standard-library
/// versions, so ordered containers are required here (D001).
pub const SIM_VISIBLE_CRATES: &[&str] = &[
    "netsim",
    "tfmcc-proto",
    "tfmcc-feedback",
    "tfmcc-agents",
    "tfmcc-model",
    "tfmcc-mc",
    "tfmcc-baselines",
];

/// Crates that *are* the bench/CLI timing layer: wall-clock reads are their
/// job (measuring real elapsed time around deterministic simulations), so
/// D002 does not apply to them.  Binaries, examples and bench targets of
/// any crate are part of the same layer (see [`FileClass::timing_layer`]).
pub const TIMING_LAYER_CRATES: &[&str] = &["tfmcc-experiments", "tfmcc-runner", "tfmcc-lint"];

/// Pure crates that must carry `#![forbid(unsafe_code)]` in their `lib.rs`
/// (U001): they are math/protocol logic with no FFI or allocator work, so
/// any `unsafe` appearing there is a red flag by construction.
pub const FORBID_UNSAFE_CRATES: &[&str] = &[
    "tfmcc-model",
    "tfmcc-feedback",
    "tfmcc-mc",
    "tfmcc-baselines",
];

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`D001`, …, `L001`).
    pub rule: &'static str,
    /// Workspace-relative path (forward slashes) of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub column: usize,
    /// Human-readable diagnostic with a remediation hint.
    pub message: String,
}

/// How a file is classified for rule applicability, derived from its
/// workspace-relative path.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Owning crate name (`netsim`, `tfmcc-proto`, …; the workspace facade
    /// crate at `src/`, `examples/`, `tests/` is `tfmcc`).
    pub crate_name: String,
    /// D001 applies.
    pub sim_visible: bool,
    /// D002 does *not* apply (bench/CLI/timing code).
    pub timing_layer: bool,
    /// This file is the `lib.rs` of a crate that must forbid unsafe code.
    pub must_forbid_unsafe: bool,
}

/// Classifies a workspace-relative path (forward slashes).
pub fn classify(path: &str) -> FileClass {
    let crate_name = match path
        .strip_prefix("crates/")
        .and_then(|p| p.split('/').next())
    {
        Some(name) => name.to_string(),
        None => "tfmcc".to_string(),
    };
    // Binaries, examples and bench targets of any crate are operational
    // entry points, not simulation state: timing there is allowed.
    let operational_path = path.starts_with("examples/")
        || path.contains("/examples/")
        || path.contains("/bin/")
        || path.contains("/benches/");
    let timing_layer = operational_path || TIMING_LAYER_CRATES.contains(&crate_name.as_str());
    let must_forbid_unsafe = FORBID_UNSAFE_CRATES.contains(&crate_name.as_str())
        && path == format!("crates/{crate_name}/src/lib.rs");
    FileClass {
        sim_visible: SIM_VISIBLE_CRATES.contains(&crate_name.as_str()),
        timing_layer,
        must_forbid_unsafe,
        crate_name,
    }
}

/// Runs every rule over one file's tokens; `src` is only consulted for the
/// whole-file `#![forbid(unsafe_code)]` presence check.
pub fn check(path: &str, src: &str, tokens: &[Token]) -> Vec<Finding> {
    let class = classify(path);
    let mut findings = Vec::new();
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();

    let finding = |rule: &'static str, token: &Token, message: String| Finding {
        rule,
        path: path.to_string(),
        line: token.line,
        column: token.column,
        message,
    };

    for (i, token) in code.iter().enumerate() {
        if token.kind != TokenKind::Ident {
            continue;
        }
        let name = token.text.as_str();

        // D001: hash containers in sim-visible crates.
        if class.sim_visible && (name == "HashMap" || name == "HashSet") {
            findings.push(finding(
                "D001",
                token,
                format!(
                    "`{name}` in sim-visible crate `{}`: iteration order is \
                     nondeterministic and breaks byte-identical replay; use \
                     `BTreeMap`/`BTreeSet` (or an index keyed by id)",
                    class.crate_name
                ),
            ));
        }

        // D002: wall-clock reads outside the timing layer.
        if !class.timing_layer {
            if name == "SystemTime" {
                findings.push(finding(
                    "D002",
                    token,
                    "`SystemTime` outside the bench/CLI timing layer: wall-clock \
                     values differ between runs; derive time from the simulation \
                     clock instead"
                        .to_string(),
                ));
            }
            if name == "Instant" && next_is_method(&code, i, "now") {
                findings.push(finding(
                    "D002",
                    token,
                    "`Instant::now` outside the bench/CLI timing layer: wall-clock \
                     reads differ between runs; derive time from the simulation \
                     clock instead"
                        .to_string(),
                ));
            }
        }

        // D003: entropy-seeded randomness, anywhere.
        if matches!(
            name,
            "thread_rng" | "from_entropy" | "from_os_rng" | "OsRng"
        ) {
            findings.push(finding(
                "D003",
                token,
                format!(
                    "`{name}` seeds randomness from OS entropy: all randomness \
                     must derive from `stream_seed`/splitmix64 so replays are \
                     bit-identical"
                ),
            ));
        }

        // D004: raw float keys in ordered containers.
        if matches!(name, "BTreeMap" | "BTreeSet" | "BinaryHeap") {
            if let Some(key) = float_key(&code, i) {
                findings.push(finding(
                    "D004",
                    token,
                    format!(
                        "`{name}` keyed directly by `{key}`: floats are not `Ord` \
                         and ad-hoc orderings diverge on NaN/-0.0; key by the \
                         order-preserving bit pattern (see `f64_key` in \
                         tfmcc-proto's aggregator) instead"
                    ),
                ));
            }
        }

        // U001: `unsafe` must be justified in place.
        if name == "unsafe" && !has_safety_comment(tokens, token.line) {
            findings.push(finding(
                "U001",
                token,
                "`unsafe` without a `// SAFETY:` comment on the same or one of \
                 the three preceding lines: state the invariant that makes \
                 this sound"
                    .to_string(),
            ));
        }
    }

    // U001 (crate half): pure crates must forbid unsafe code outright.
    if class.must_forbid_unsafe && !src.contains("#![forbid(unsafe_code)]") {
        findings.push(Finding {
            rule: "U001",
            path: path.to_string(),
            line: 1,
            column: 1,
            message: format!(
                "pure crate `{}` must carry `#![forbid(unsafe_code)]` in its \
                 lib.rs (it has no FFI or allocator work to justify unsafe)",
                class.crate_name
            ),
        });
    }

    findings
}

/// True when the identifier at `i` is followed by `:: <method>`.
fn next_is_method(code: &[&Token], i: usize, method: &str) -> bool {
    matches!(
        (code.get(i + 1), code.get(i + 2), code.get(i + 3)),
        (Some(a), Some(b), Some(c))
            if a.kind == TokenKind::Punct && a.text == ":"
                && b.kind == TokenKind::Punct && b.text == ":"
                && c.kind == TokenKind::Ident && c.text == method
    )
}

/// If the ordered container named at `i` has a raw `f64`/`f32` *key*, return
/// the float type.  Matches `Name < f64 …`, `Name < ( f64 …` (tuple whose
/// first element orders the entries) and `Name :: < f64` turbofish.
fn float_key(code: &[&Token], i: usize) -> Option<&'static str> {
    let mut j = i + 1;
    // Optional turbofish `::`.
    while j < code.len() && code[j].kind == TokenKind::Punct && code[j].text == ":" {
        j += 1;
    }
    if code.get(j).map(|t| (t.kind, t.text.as_str())) != Some((TokenKind::Punct, "<")) {
        return None;
    }
    j += 1;
    if code.get(j).map(|t| (t.kind, t.text.as_str())) == Some((TokenKind::Punct, "(")) {
        j += 1;
    }
    match code.get(j).map(|t| t.text.as_str()) {
        Some("f64") => Some("f64"),
        Some("f32") => Some("f32"),
        _ => None,
    }
}

/// True when any comment on `line` or the three lines above contains
/// `SAFETY`.  Three lines of slack lets one comment cover an attribute or a
/// short doc line between it and the `unsafe` token.
fn has_safety_comment(tokens: &[Token], line: usize) -> bool {
    tokens.iter().any(|t| {
        matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
            && t.text.contains("SAFETY")
            && t.line <= line
            && t.line + 3 >= line
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A crate list naming a crate that no longer exists would silently drop
    /// that crate's successor out of its rules.
    #[test]
    fn every_listed_crate_is_a_directory_under_crates() {
        let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        for list in [
            SIM_VISIBLE_CRATES,
            TIMING_LAYER_CRATES,
            FORBID_UNSAFE_CRATES,
        ] {
            for name in list {
                assert!(
                    crates.join(name).is_dir(),
                    "{name} is listed in rules.rs but is not under crates/"
                );
            }
        }
    }
}
