//! `tfmcc_bench compare A.json B.json`: two run sets written with `--out`,
//! judged per workload and end-to-end metric against the benchmark's bounds.

use crate::json::{self, Json};
use crate::run::{EndToEnd, Workload, END_TO_END};
use crate::stats::{median, quartiles};

/// How side B of a comparison reads against side A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than A's own spread.
    Better,
    /// B's median is within the bound of A's.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A side's spread is wider than the bound, so the bound cannot be
    /// checked (and the sides' runs overlap).
    Unresolved,
}

impl Verdict {
    /// The verdict as `compare` prints it.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Distance between the quartiles as a share of the median (0 for a single
/// value, where no quartile exists).
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) if median(values) != 0.0 => (q3 - q1) / median(values).abs(),
        _ => 0.0,
    }
}

/// Judges B's values of `metric` against A's.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    // Positive when B is worse, as a share of A's median.
    let sign = if metric.better == "lower" { 1.0 } else { -1.0 };
    let worse_by = sign * (median(b) - median(a)) / median(a).abs();
    let worst = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::NEG_INFINITY, f64::max);
    let best = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::INFINITY, f64::min);
    if spread(a).max(spread(b)) > metric.bound {
        // Too noisy for the bound; only a clean separation decides.
        return if worst(b) < best(a) {
            Verdict::Better
        } else if worst(a) < best(b) && worse_by > metric.bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > metric.bound {
        Verdict::Worse
    } else if -worse_by > spread(a) && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The untraced records of one workload in a run set.
struct Side<'a> {
    records: Vec<&'a Json>,
}

impl<'a> Side<'a> {
    fn new(set: &'a Json, workload: Workload) -> Self {
        let records = json::items(json::get(set, "runs").unwrap_or(&Json::Null))
            .iter()
            .filter(|r| {
                json::get(r, "workload").and_then(json::text) == Some(workload.name())
                    && json::get(r, "trace") == Some(&Json::Bool(false))
            })
            .collect();
        Side { records }
    }

    fn values(&self, metric: &str) -> Vec<f64> {
        self.records
            .iter()
            .filter_map(|r| {
                let m = json::get(json::get(r, "metrics")?, metric)?;
                json::num(json::get(m, "value")?)
            })
            .collect()
    }

    fn total(&self, key: &str) -> f64 {
        self.records
            .iter()
            .filter_map(|r| json::num(json::get(r, key)?))
            .sum()
    }

    fn failed_share(&self) -> f64 {
        self.total("failed") / self.total("attempted").max(1.0)
    }

    /// `(seed, digest)` of every record.
    fn digests(&self) -> Vec<(f64, &'a str)> {
        self.records
            .iter()
            .filter_map(|r| {
                Some((
                    json::num(json::get(r, "seed")?)?,
                    json::text(json::get(r, "digest")?)?,
                ))
            })
            .collect()
    }
}

fn describe(values: &[f64]) -> String {
    match quartiles(values) {
        Some((q1, q3)) => format!(
            "{:.6} [{q1:.6}, {q3:.6}] n={}",
            median(values),
            values.len()
        ),
        None => format!("{:.6} n={}", median(values), values.len()),
    }
}

/// Compares two run sets; returns the report and whether any metric of any
/// workload reads `worse`.
pub fn compare(a: &Json, b: &Json) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut any_worse = false;
    for workload in Workload::ALL {
        let (sa, sb) = (Side::new(a, workload), Side::new(b, workload));
        if sa.records.is_empty() || sb.records.is_empty() {
            lines.push(format!("{}: missing from a run set", workload.name()));
            continue;
        }
        lines.push(workload.name().to_string());
        for metric in &END_TO_END {
            let (va, vb) = (sa.values(metric.name), sb.values(metric.name));
            let verdict = judge(metric, &va, &vb);
            any_worse |= verdict == Verdict::Worse;
            lines.push(format!(
                "  {:<13} A {}  B {}  delta {:+.2}% (bound {:.0}%, spread A {:.2}% B {:.2}%)  {}",
                metric.name,
                describe(&va),
                describe(&vb),
                100.0 * (median(&vb) - median(&va)) / median(&va).abs(),
                100.0 * metric.bound,
                100.0 * spread(&va),
                100.0 * spread(&vb),
                verdict.name(),
            ));
        }
        let b_digests = sb.digests();
        let changed: Vec<String> = sa
            .digests()
            .iter()
            .filter_map(|&(seed, da)| {
                let &(_, db) = b_digests.iter().find(|&&(s, _)| s == seed)?;
                (da != db).then(|| format!("seed {seed}: {da} -> {db}"))
            })
            .collect();
        if !changed.is_empty() {
            lines.push(format!(
                "  digest changed (simulated statistics drifted): {}",
                changed.join(", ")
            ));
        }
        if sb.failed_share() > sa.failed_share() {
            lines.push(format!(
                "  failed-operation share rose: {:.4} -> {:.4}",
                sa.failed_share(),
                sb.failed_share()
            ));
        }
    }
    (lines, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A time with a 10 % bound, whatever the benchmark's own bounds are.
    const WALL: EndToEnd = EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.1,
    };

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(judge(&WALL, &a, &a), Verdict::Same);
        let shifted = |by: f64| a.map(|v| v * by);
        assert_eq!(judge(&WALL, &a, &shifted(1.05)), Verdict::Same);
        assert_eq!(judge(&WALL, &a, &shifted(1.2)), Verdict::Worse);
        assert_eq!(judge(&WALL, &a, &shifted(0.9)), Verdict::Better);
        // A spread wider than the bound cannot confirm "same"...
        let noisy = [0.7, 1.0, 1.3, 0.8, 1.2];
        assert_eq!(judge(&WALL, &noisy, &noisy), Verdict::Unresolved);
        // ...unless every run of one side beats every run of the other.
        assert_eq!(
            judge(&WALL, &noisy, &noisy.map(|v| v * 0.4)),
            Verdict::Better
        );
        assert_eq!(
            judge(&WALL, &noisy, &noisy.map(|v| v * 2.5)),
            Verdict::Worse
        );
    }

    #[test]
    fn compare_flags_digests_and_failures() {
        let record = |digest: &str, wall: f64, failed: f64| {
            format!(
                r#"{{"workload":"fanout_star","seed":1,"trace":false,"digest":"{digest}","samples":3,
                "correct":true,"attempted":3,"failed":{failed},"metrics":{{
                "wall_s":{{"value":{wall},"unit":"s"}},"setup_s":{{"value":0.1,"unit":"s"}},
                "peak_heap_mb":{{"value":200,"unit":"MB"}}}}}}"#
            )
        };
        let set = |r: String| json::parse(&format!(r#"{{"runs":[{r}]}}"#)).unwrap();
        let a = set(record("aa", 1.0, 0.0));
        let (lines, worse) = compare(&a, &set(record("bb", 1.5, 1.0)));
        assert!(worse);
        let text = lines.join("\n");
        assert!(text.contains("worse"), "{text}");
        assert!(text.contains("aa -> bb"), "{text}");
        assert!(text.contains("failed-operation share rose"), "{text}");
        assert!(text.contains("fanout_churn: missing"), "{text}");
        let (lines, worse) = compare(&a, &a);
        assert!(!worse);
        assert!(!lines.join("\n").contains("digest changed"));
    }
}
