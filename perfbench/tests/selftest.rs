//! Self-tests of the benchmark at toy size: the properties its numbers rest
//! on (tracing changes nothing, the hand-wired session is the real one, the
//! heap counter is a peak, a seed repeats exactly, a broken run counts as a
//! failed operation) and the agreement of `BENCHMARK.json` with the code.

use std::sync::{Arc, Mutex, MutexGuard};

use netsim::packet::{AgentId, GroupId};
use netsim::time::SimTime;
use perfbench::alloc;
use perfbench::json::{self, Json};
use perfbench::run::{self, judge_sim, per_layer, Workload, END_TO_END};
use perfbench::sims::{self, SimRep, SimWorkload, Sizes};
use perfbench::trace::{RunTrace, Wrap};

const SIMS: [SimWorkload; 3] = [
    SimWorkload::FanoutStar,
    SimWorkload::FanoutChurn,
    SimWorkload::TfmccStar,
];

/// The allocator counters are process-wide, and cargo runs tests on parallel
/// threads: every test that measures takes this lock.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn plain(w: SimWorkload, seed: u64) -> SimRep {
    sims::rep(w, &Sizes::TOY, seed, &Wrap::Plain, 1)
}

fn traced(w: SimWorkload, seed: u64) -> (SimRep, Arc<RunTrace>) {
    let run = RunTrace::new(1);
    let rep = sims::rep(w, &Sizes::TOY, seed, &Wrap::Traced(Arc::clone(&run)), 1);
    (rep, run)
}

#[test]
fn traced_and_untraced_runs_have_equal_digests() {
    let _guard = serial();
    for w in SIMS {
        let untraced = plain(w, 7);
        let (traced, run) = traced(w, 7);
        assert_eq!(untraced.check, Ok(()), "{w:?}");
        assert_eq!(
            traced.digest, untraced.digest,
            "{w:?}: the trace changed the run"
        );
        assert_eq!(traced.counters.events, untraced.counters.events, "{w:?}");
        // Spans account for the traced wall: agents inside, engine outside.
        let busy = run.agent_busy_s();
        assert!(busy > 0.0 && busy < traced.phase.wall_s, "{w:?}: {busy}");
        assert!(run.kinds().iter().all(|k| k.calls() > 0), "{w:?}");
    }
}

#[test]
fn hand_wired_session_is_the_build_population_session() {
    let _guard = serial();
    // `Wrap::Plain` goes through `TfmccSessionBuilder::build_population`,
    // `Wrap::Traced` through the bench's own wiring of the public agent
    // constructors.
    let built = plain(SimWorkload::TfmccStar, 3);
    let (wired, run) = traced(SimWorkload::TfmccStar, 3);
    assert_eq!(wired.stats_digest, built.stats_digest);
    assert_eq!(wired.digest, built.digest);
    assert_eq!(wired.counters.final_rate, built.counters.final_rate);
    assert_eq!(wired.counters.sender, built.counters.sender);
    let layers: Vec<&str> = run.kinds().iter().map(|k| k.layer).collect();
    assert_eq!(layers, [sims::LAYER_SENDER, sims::LAYER_RECEIVER]);
}

#[test]
fn peak_heap_is_at_least_the_end_of_run_heap() {
    let _guard = serial();
    for w in SIMS {
        let rep = plain(w, 5);
        assert!(rep.end_heap_bytes > 0, "{w:?}: the run holds memory");
        assert!(rep.peak_heap_bytes >= rep.end_heap_bytes, "{w:?}: {rep:?}");
    }
    // The high-water mark really is one: it survives a free.
    let base = alloc::mark();
    alloc::reset_peak();
    drop(std::hint::black_box(vec![0u8; 1 << 20]));
    assert!(alloc::peak_bytes() - base.live >= 1 << 20);
    assert!(alloc::mark().live - base.live < 1 << 20);
}

#[test]
fn one_seed_repeats_exactly_and_seeds_differ() {
    let _guard = serial();
    for w in SIMS {
        let (a, b) = (plain(w, 11), plain(w, 11));
        assert_eq!(a.digest, b.digest, "{w:?}");
        assert_eq!(a.counters.events, b.counters.events, "{w:?}");
        // Exact in the single-threaded bench binary; here the test harness
        // allocates on its own threads while the repetition runs.
        let drift = (a.peak_heap_bytes - b.peak_heap_bytes).abs() as f64;
        assert!(drift <= 0.01 * a.peak_heap_bytes as f64, "{w:?}: {drift} B");
    }
    // The seed reaches the inputs: legs are re-paired, loss draws change.
    let (a, b) = (
        plain(SimWorkload::TfmccStar, 11),
        plain(SimWorkload::TfmccStar, 12),
    );
    assert_ne!(a.digest, b.digest);
    assert_ne!(sims::tfmcc_legs(50, 11), sims::tfmcc_legs(50, 12));
    assert_eq!(sims::tfmcc_legs(50, 11), sims::tfmcc_legs(50, 11));
}

#[test]
fn a_broken_run_is_a_failed_operation() {
    let _guard = serial();
    let good = plain(SimWorkload::FanoutStar, 1);
    // Break a run from outside: after half a simulated second, pull sink 0
    // (the first agent added) out of the group, so it misses the rest.
    let base = alloc::mark();
    let mut built = sims::build(SimWorkload::FanoutStar, &Sizes::TOY, 1, &Wrap::Plain);
    built.sim.run_until(SimTime::from_secs(0.5));
    built.sim.leave_group(AgentId(0), GroupId(1));
    let broken = built.finish(vec![0.0], base);
    assert!(broken.check.is_err(), "{:?}", broken.check);

    let ops = judge_sim(&[Ok(good.clone()), Ok(good.clone())]);
    assert_eq!((ops.attempted, ops.failed), (2, 0));
    let ops = judge_sim(&[Ok(good), Ok(broken), Err("boom".into())]);
    assert_eq!((ops.attempted, ops.failed), (3, 2), "{:?}", ops.failures);
    assert!(ops.failures[0].contains("sink 0"), "{:?}", ops.failures);
    assert!(
        ops.failures[1].contains("panicked: boom"),
        "{:?}",
        ops.failures
    );
}

#[test]
fn a_sharded_run_is_held_to_the_stats_digest() {
    let _guard = serial();
    let single = plain(SimWorkload::FanoutStar, 2);
    let sharded = sims::rep(SimWorkload::FanoutStar, &Sizes::TOY, 2, &Wrap::Plain, 2);
    assert_eq!(sharded.check, Ok(()));
    assert_eq!(sharded.stats_digest, single.stats_digest);
    let ops = judge_sim(&[Ok(single), Ok(sharded)]);
    assert_eq!(ops.failed, 0, "{:?}", ops.failures);
}

fn metric_names(result: &run::RunResult) -> Vec<String> {
    let doc = json::parse(&result.contract_json().render()).expect("the contract line is JSON");
    let Json::Obj(fields) = &doc else {
        panic!("not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(json::get(&doc, "correct"), Some(&Json::Bool(true)));
    let Some(Json::Obj(metrics)) = json::get(&doc, "metrics") else {
        panic!("no metrics")
    };
    for (name, m) in metrics {
        let value = json::num(json::get(m, "value").expect("value")).expect("a finite number");
        assert!(value.is_finite(), "{name}");
        assert!(
            json::text(json::get(m, "unit").expect("unit")).is_some(),
            "{name}"
        );
    }
    metrics.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn a_run_reports_exactly_the_metrics_of_its_mode() {
    let _guard = serial();
    let e2e: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
    let layers: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
    for w in SIMS {
        let untraced = run::run(Workload::Sim(w), &Sizes::TOY, 4, 0.0, false);
        assert_eq!(metric_names(&untraced), e2e, "{w:?}");
        assert_eq!(
            untraced.ops.attempted,
            3 * w.sub_seeds(4).len() as u64,
            "{w:?}: the minimum of three repetitions per simulation seed"
        );
        assert!(
            untraced.metrics.iter().all(|m| m.value > 0.0),
            "{w:?}: an end-to-end metric is never 0"
        );
        assert!(untraced.trace_doc.is_none());

        let traced = run::run(Workload::Sim(w), &Sizes::TOY, 4, 0.0, true);
        assert_eq!(metric_names(&traced), layers, "{w:?}");
        assert_eq!(traced.digest, untraced.digest, "{w:?}");
        let value = |name: &str| {
            let m = traced.metrics.iter().find(|m| m.name == name);
            m.unwrap_or_else(|| panic!("{name}")).value
        };
        assert!(value("netsim.sim.events") > 0.0);
        assert!(value("netsim.sim.engine_busy_s") > 0.0);
        assert!(value("netsim.events.ns_per_op") > 0.0);
        // Layers that do no work on the workload read 0.
        let tfmcc = w == SimWorkload::TfmccStar;
        assert_eq!(value("tfmcc-agents.receiver.calls") > 0.0, tfmcc, "{w:?}");
        assert_eq!(value("netsim.apps.sink.calls") > 0.0, !tfmcc, "{w:?}");
        assert_eq!(value("tfmcc-experiments.fig09.wall_ms"), 0.0);
        // The trace document carries verbatim spans with their parent.
        let doc = traced.trace_doc.expect("a traced run has a trace document");
        let spans = json::items(json::get(&doc, "spans").expect("spans"));
        assert!(!spans.is_empty(), "{w:?}");
        assert_eq!(json::get(&spans[0], "parent"), Some(&Json::str("run")));
    }
}

#[test]
fn benchmark_json_agrees_with_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses");
    let Json::Obj(fields) = &doc else {
        panic!("not an object")
    };
    let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let field = |key: &str| json::get(&doc, key).unwrap_or_else(|| panic!("{key}"));
    let text = |v: &Json, key: &str| {
        json::text(json::get(v, key).expect(key))
            .expect(key)
            .to_string()
    };

    let workloads: Vec<(String, String)> = json::items(field("workloads"))
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let expected: Vec<(String, String)> = Workload::ALL
        .iter()
        .map(|w| (w.name().to_string(), w.why().to_string()))
        .collect();
    assert_eq!(workloads, expected);
    assert!(expected
        .iter()
        .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

    let e2e: Vec<(String, String, String, f64)> = json::items(field("end_to_end"))
        .iter()
        .map(|m| {
            let bound = json::num(json::get(m, "bound").expect("bound")).expect("bound");
            (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
        })
        .collect();
    let expected: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .map(|m| (m.name.into(), m.unit.into(), m.better.into(), m.bound))
        .collect();
    assert_eq!(e2e, expected);
    assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));

    let layers: Vec<(String, String, String)> = json::items(field("per_layer"))
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    let expected: Vec<(String, String, String)> = per_layer()
        .into_iter()
        .map(|m| (m.name, m.unit.into(), m.better.into()))
        .collect();
    assert_eq!(layers, expected);
    assert!(layers.len() <= 128);

    assert_eq!(json::items(field("paths")), [Json::str("perfbench")]);
    let seconds = json::num(field("run_seconds")).expect("run_seconds");
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}
