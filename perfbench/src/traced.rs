//! The traced mode (`--trace 1`): per-layer metrics from agent spans, layer
//! replays and whole-run counters, with the table that sets span shares and
//! replay-estimated shares side by side.

use std::sync::Arc;

use netsim::queue::QueueDiscipline;
use tfmcc_runner::Json;

use crate::caught;
use crate::figs;
use crate::replay;
use crate::run::{
    judge_figs, judge_sim, per_layer, LayerSpec, Metric, RunResult, TimeBox, Workload,
};
use crate::sims::{self, Counters, SimWorkload, Sizes};
use crate::stats::{median, percentile};
use crate::trace::{Callback, RunTrace, Wrap, SAMPLE_EVERY};

/// Process CPU seconds (user + system, all threads), from `/proc/self/stat`;
/// 0 where that file is missing.
fn cpu_seconds() -> f64 {
    // Fields 14 and 15 (utime, stime) in clock ticks; the command name in
    // field 2 may contain spaces, so count from the closing parenthesis.
    let ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            let mut fields = stat.rsplit_once(')')?.1.split_whitespace();
            let utime: f64 = fields.nth(11)?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some(utime + stime)
        });
    // Linux reports these in USER_HZ, which is 100 on every supported
    // architecture.
    ticks.unwrap_or(0.0) / 100.0
}

fn threads_available() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Per-layer metric values, every name present, 0 until measured.
struct Ledger {
    specs: Vec<LayerSpec>,
    values: Vec<f64>,
}

impl Ledger {
    fn new() -> Self {
        let specs = per_layer();
        Ledger {
            values: vec![0.0; specs.len()],
            specs,
        }
    }

    fn slot(&self, name: &str) -> usize {
        let i = self.specs.iter().position(|s| s.name == name);
        i.unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
    }

    fn set(&mut self, name: &str, value: f64) {
        let i = self.slot(name);
        self.values[i] = value;
    }

    fn get(&self, name: &str) -> f64 {
        self.values[self.slot(name)]
    }

    fn metrics(&self) -> Vec<Metric> {
        self.specs
            .iter()
            .zip(&self.values)
            .map(|(spec, &value)| Metric {
                name: spec.name.clone(),
                value,
                unit: spec.unit,
            })
            .collect()
    }
}

/// The sizes a run showed, which the replays are driven at.
struct ReplayMix {
    /// Mean live events in the queue.
    pending: usize,
    /// Links (and multicast members) in the working set.
    legs: usize,
    /// Leg bandwidth in B/s.
    bandwidth: f64,
    /// Mean Bernoulli loss on a leg.
    loss: f64,
    /// TFMCC receivers visited per data packet.
    receivers: usize,
    /// Receivers in the sender's aggregator.
    known_receivers: usize,
}

/// The figures' simulations cannot be observed from outside; the issue
/// describes them as "2-40 receivers, tens of pending events".
const FIGS_MIX: ReplayMix = ReplayMix {
    pending: 32,
    legs: 16,
    bandwidth: 1_000_000.0,
    loss: 0.001,
    receivers: 16,
    known_receivers: 16,
};

/// Runs every layer replay at `mix`.  The replays are standalone, so every
/// traced run reports all of them; whether a layer's time matters to the
/// workload is what the share table says.
fn run_replays(ledger: &mut Ledger, mix: &ReplayMix) {
    let (on_feedback, next_data) = replay::sender_ns(mix.known_receivers);
    let measured = [
        (
            "netsim.events.ns_per_op",
            replay::events_ns_per_op(mix.pending),
        ),
        (
            "netsim.link.ns_per_pkt",
            replay::link_ns_per_pkt(mix.legs, mix.bandwidth, mix.loss),
        ),
        (
            "netsim.queue.droptail_ns_per_pkt",
            replay::queue_ns_per_pkt(QueueDiscipline::drop_tail(100)),
        ),
        (
            "netsim.queue.red_ns_per_pkt",
            replay::queue_ns_per_pkt(QueueDiscipline::red_gentle(100)),
        ),
        (
            "netsim.queue.codel_ns_per_pkt",
            replay::queue_ns_per_pkt(QueueDiscipline::codel(100)),
        ),
        (
            "netsim.routing.lookup_ns",
            replay::routing_lookup_ns(mix.legs),
        ),
        (
            "netsim.routing.join_leave_ns",
            replay::routing_join_leave_ns(mix.legs),
        ),
        (
            "tfmcc-proto.receiver.on_data_ns",
            replay::receiver_on_data_ns(mix.receivers, mix.loss),
        ),
        (
            "tfmcc-proto.loss.on_packet_ns",
            replay::loss_on_packet_ns(mix.receivers, mix.loss),
        ),
        ("tfmcc-proto.feedback.timer_ns", replay::feedback_timer_ns()),
        ("tfmcc-proto.sender.on_feedback_ns", on_feedback),
        ("tfmcc-proto.sender.next_data_ns", next_data),
        (
            "tfmcc-feedback.round.ns_per_receiver",
            replay::feedback_round_ns_per_receiver(),
        ),
        ("tfmcc-model.throughput.ns", replay::model_throughput_ns()),
    ];
    for (name, ns) in measured {
        ledger.set(name, ns);
    }
}

/// One row of the traced table: a layer's share of the traced run by span
/// or by replay estimate.
struct ShareRow {
    layer: String,
    /// Host seconds inside the layer's spans.
    span_s: Option<f64>,
    /// Replay nanoseconds per operation and operations counted in the run.
    replay: Option<(f64, u64)>,
}

impl ShareRow {
    fn span(layer: impl Into<String>, span_s: f64) -> Self {
        ShareRow {
            layer: layer.into(),
            span_s: Some(span_s),
            replay: None,
        }
    }
}

const SPAN_CAVEAT: &str = "  caveat: an agent span includes the engine work done inside \
    Context::send/schedule/join_group; a replay runs its layer alone with warm caches, so its \
    share is a lower bound.";

fn share_table(rows: &[ShareRow], wall_s: f64) -> (Vec<String>, Json) {
    let mut lines = vec![format!(
        "  {:<36}{:>10}{:>8}{:>12}{:>12}{:>8}",
        "layer", "span s", "share", "replay ns", "ops", "share"
    )];
    let mut doc = Vec::new();
    for row in rows {
        let span = row.span_s.map(|s| (s, s / wall_s));
        let est = row
            .replay
            .map(|(ns, ops)| (ns, ops, ns * 1e-9 * ops as f64 / wall_s));
        lines.push(format!(
            "  {:<36}{:>10}{:>8}{:>12}{:>12}{:>8}",
            row.layer,
            span.map_or("-".into(), |(s, _)| format!("{s:.4}")),
            span.map_or("-".into(), |(_, f)| format!("{:.1}%", 100.0 * f)),
            est.map_or("-".into(), |(ns, _, _)| format!("{ns:.1}")),
            est.map_or("-".into(), |(_, ops, _)| format!("{ops}")),
            est.map_or("-".into(), |(_, _, f)| format!("{:.1}%", 100.0 * f)),
        ));
        let mut fields = vec![("layer".to_string(), Json::str(&row.layer))];
        if let Some((s, share)) = span {
            fields.push(("span_s".into(), Json::num(s)));
            fields.push(("span_share".into(), Json::num(share)));
        }
        if let Some((ns, ops, share)) = est {
            fields.push(("replay_ns_per_op".into(), Json::num(ns)));
            fields.push(("ops".into(), Json::num(ops as f64)));
            fields.push(("replay_share".into(), Json::num(share)));
        }
        doc.push(Json::Obj(fields));
    }
    (lines, Json::Arr(doc))
}

fn span_json(name: String, start_ns: f64, end_ns: f64, parent: &str, run_id: u64) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(name)),
        ("start_ns".into(), Json::num(start_ns)),
        ("end_ns".into(), Json::num(end_ns)),
        ("parent".into(), Json::str(parent)),
        ("run_id".into(), Json::num(run_id as f64)),
    ])
}

/// The spans kept verbatim and the call counts of `run`.
fn run_spans(run: &RunTrace) -> (Json, Json) {
    let (mut spans, mut calls) = (Vec::new(), Vec::new());
    for kind in run.kinds() {
        for span in kind.samples() {
            spans.push(span_json(
                format!("{}.{}", kind.layer, span.callback.name()),
                span.start_ns as f64,
                span.end_ns as f64,
                "run",
                run.run_id,
            ));
        }
        for cb in [Callback::Start, Callback::OnPacket, Callback::OnTimer] {
            calls.push((
                format!("{}.{}", kind.layer, cb.name()),
                Json::num(kind.calls_of(cb) as f64),
            ));
        }
    }
    (Json::Arr(spans), Json::Obj(calls))
}

/// The replay rows of a simulation workload: each replayed layer that does
/// work on it, with the operations the run counted.
fn replay_rows(w: SimWorkload, ledger: &Ledger, c: &Counters) -> Vec<ShareRow> {
    let row = |layer: &str, metric: &str, ops: u64| ShareRow {
        layer: layer.into(),
        span_s: None,
        replay: Some((ledger.get(metric), ops)),
    };
    let offers = c.link.enqueued + c.link.dropped_queue + c.link.dropped_loss;
    let mut rows = vec![
        row(
            "netsim.events (hold model)",
            "netsim.events.ns_per_op",
            c.events,
        ),
        row(
            "netsim.link (offer + tx_complete)",
            "netsim.link.ns_per_pkt",
            offers,
        ),
        // A multicast packet looks its tree up at the sender and at the hub.
        row(
            "netsim.routing (tree lookup)",
            "netsim.routing.lookup_ns",
            2 * c.source_packets,
        ),
    ];
    if w == SimWorkload::FanoutChurn {
        rows.push(row(
            "netsim.routing (join / leave)",
            "netsim.routing.join_leave_ns",
            c.joins + c.leaves,
        ));
    }
    if w == SimWorkload::TfmccStar {
        let r = &c.receiver;
        rows.extend([
            row(
                "tfmcc-proto.receiver (on_data)",
                "tfmcc-proto.receiver.on_data_ns",
                r.data_packets,
            ),
            row(
                "tfmcc-proto.loss (on_packet)",
                "tfmcc-proto.loss.on_packet_ns",
                r.data_packets,
            ),
            row(
                "tfmcc-proto.feedback (timer draw)",
                "tfmcc-proto.feedback.timer_ns",
                r.feedback_sent + r.feedback_suppressed,
            ),
            row(
                "tfmcc-proto.sender (on_feedback)",
                "tfmcc-proto.sender.on_feedback_ns",
                c.sender.feedback_received,
            ),
            row(
                "tfmcc-proto.sender (next_data)",
                "tfmcc-proto.sender.next_data_ns",
                c.sender.data_packets,
            ),
        ]);
    }
    rows
}

/// The traced mode of a simulation workload.
pub(crate) fn trace_sim(w: SimWorkload, sizes: &Sizes, seed: u64, seconds: f64) -> RunResult {
    let workload = Workload::Sim(w);
    let cpu_start = cpu_seconds();
    // Untraced and traced repetitions alternate for most of the box; the
    // rest is for the sharded run and the replays.
    let mut reps = Vec::new();
    let mut traces: Vec<Arc<RunTrace>> = Vec::new();
    let mut time_box = TimeBox::new(0.7 * seconds);
    loop {
        reps.push(caught(|| sims::rep(w, sizes, seed, &Wrap::Plain, 1)));
        let run = RunTrace::new(traces.len() as u64 + 1);
        let wrap = Wrap::Traced(Arc::clone(&run));
        reps.push(caught(|| sims::rep(w, sizes, seed, &wrap, 1)));
        traces.push(run);
        if !time_box.again(1) {
            break;
        }
    }
    let pairs = traces.len();
    // Sharding is measured where it could matter: the large clean star.
    if w == SimWorkload::FanoutStar {
        reps.push(caught(|| sims::rep(w, sizes, seed, &Wrap::Plain, 2)));
    }
    let ops = judge_sim(&reps);

    let mut result = RunResult {
        workload,
        seed,
        trace: true,
        ops,
        digest: 0,
        samples: pairs,
        metrics: Vec::new(),
        report: Vec::new(),
        trace_doc: None,
    };
    let ok = |i: usize| reps.get(i).and_then(|r| r.as_ref().ok());
    // Spans and counters come from the last untraced/traced pair; walls and
    // slices pool every pair.
    let (Some(plain), Some(traced)) = (ok(2 * pairs - 2), ok(2 * pairs - 1)) else {
        return result;
    };
    let run = &traces[pairs - 1];
    let pooled = |offset: usize| (0..pairs).filter_map(move |p| ok(2 * p + offset));
    let wall = |offset: usize| median(&pooled(offset).map(|r| r.phase.wall_s).collect::<Vec<_>>());
    let (plain_wall, traced_wall) = (wall(0), wall(1));
    let slices: Vec<f64> = pooled(1).flat_map(|r| r.phase.slice_ms.clone()).collect();
    let c = &plain.counters;
    let events = c.events as f64;
    let pending = &traced.phase.pending;
    let pending_mean = pending.iter().sum::<usize>() as f64 / pending.len().max(1) as f64;
    let engine_busy_s = traced.phase.wall_s - run.agent_busy_s();

    let mut ledger = Ledger::new();
    let counted = [
        ("netsim.sim.events", events),
        ("netsim.sim.ns_per_event", plain_wall * 1e9 / events),
        ("netsim.sim.events_per_s", events / plain_wall),
        ("netsim.sim.engine_busy_s", engine_busy_s),
        ("netsim.sim.slice_p50_ms", percentile(&slices, 0.50)),
        ("netsim.sim.slice_p99_ms", percentile(&slices, 0.99)),
        ("netsim.events.pending_mean", pending_mean),
        (
            "netsim.events.pending_peak",
            pending.iter().copied().max().unwrap_or(0) as f64,
        ),
        ("netsim.link.enqueued", c.link.enqueued as f64),
        ("netsim.link.dropped_queue", c.link.dropped_queue as f64),
        ("netsim.link.dropped_loss", c.link.dropped_loss as f64),
        (
            "netsim.routing.membership_changes",
            (c.joins + c.leaves) as f64,
        ),
        (
            "tfmcc-proto.sender.feedback_received",
            c.sender.feedback_received as f64,
        ),
        (
            "tfmcc-proto.sender.data_packets",
            c.sender.data_packets as f64,
        ),
        (
            "alloc.count_per_event",
            plain.run_alloc_calls as f64 / events,
        ),
        (
            "alloc.bytes_per_event",
            plain.run_alloc_bytes as f64 / events,
        ),
        ("trace.overhead_frac", traced_wall / plain_wall - 1.0),
    ];
    for (name, value) in counted {
        ledger.set(name, value);
    }
    let mut rows = vec![ShareRow::span(
        "netsim.sim (engine, by subtraction)",
        engine_busy_s,
    )];
    for kind in run.kinds() {
        ledger.set(&format!("{}.busy_s", kind.layer), kind.busy_s());
        ledger.set(&format!("{}.calls", kind.layer), kind.calls() as f64);
        rows.push(ShareRow::span(kind.layer, kind.busy_s()));
    }
    if let Some(sharded) = ok(2 * pairs) {
        let split: u64 = sharded.domain_events.iter().sum();
        ledger.set(
            "netsim.domains.wall_ratio_d2",
            plain_wall / sharded.phase.wall_s,
        );
        // 0 if the topology did not decompose and the run fell back to one
        // queue.
        ledger.set("netsim.domains.event_overhead", split as f64 / events);
    }
    let tfmcc = w == SimWorkload::TfmccStar;
    let legs = if tfmcc {
        sizes.tfmcc_receivers
    } else {
        sizes.fanout_legs
    };
    run_replays(
        &mut ledger,
        &ReplayMix {
            pending: pending_mean.round() as usize,
            legs,
            bandwidth: plain.leg_bandwidth,
            loss: plain.mean_leg_loss,
            receivers: legs,
            known_receivers: if tfmcc { c.known_receivers } else { legs },
        },
    );
    rows.extend(replay_rows(w, &ledger, c));
    ledger.set("proc.cpu_s", cpu_seconds() - cpu_start);

    result.digest = plain.digest;
    result.report = vec![
        format!(
            "{} seed {seed} traced: {pairs} untraced/traced pairs, {} operations, {} failed, digest {:016x}",
            workload.name(),
            result.ops.attempted,
            result.ops.failed,
            plain.digest
        ),
        format!(
            "  traced wall {:.4} s = engine {engine_busy_s:.4} s + agent spans {:.4} s; untraced wall {:.4} s; \
             {} slices; {} threads available",
            traced.phase.wall_s,
            run.agent_busy_s(),
            plain.phase.wall_s,
            slices.len(),
            threads_available(),
        ),
    ];
    let (table, layers) = share_table(&rows, traced.phase.wall_s);
    result.report.extend(table);
    result.report.push(SPAN_CAVEAT.into());
    let (spans, calls) = run_spans(run);
    let doc = vec![
        ("workload".to_string(), Json::str(workload.name())),
        ("seed".into(), Json::num(seed as f64)),
        ("run_id".into(), Json::num(run.run_id as f64)),
        ("digest".into(), Json::str(format!("{:016x}", plain.digest))),
        ("traced_wall_s".into(), Json::num(traced.phase.wall_s)),
        ("untraced_wall_s".into(), Json::num(plain.phase.wall_s)),
        ("sample_every".into(), Json::num(SAMPLE_EVERY as f64)),
        ("calls".into(), calls),
        ("layers".into(), layers),
        ("spans".into(), spans),
    ];
    finish(result, &ledger, doc)
}

/// Puts the ledger into the result: its metrics, the non-zero ones as
/// report lines, all of them into the trace document.
fn finish(mut result: RunResult, ledger: &Ledger, mut doc: Vec<(String, Json)>) -> RunResult {
    result.metrics = ledger.metrics();
    for m in &result.metrics {
        if m.value != 0.0 {
            result
                .report
                .push(format!("  {:<44}{:>16.4} {}", m.name, m.value, m.unit));
        }
    }
    doc.push(("metrics".into(), result.metrics_json()));
    result.trace_doc = Some(Json::Obj(doc));
    result
}

/// The traced mode of `figs_quick`.
pub(crate) fn trace_figs(seed: u64, seconds: f64) -> RunResult {
    let cpu_start = cpu_seconds();
    let threads = threads_available();
    // Serial passes for half the box (each figure call is a span), then one
    // pass at every available thread, then the replays.
    let mut passes = Vec::new();
    let mut time_box = TimeBox::new(0.5 * seconds);
    loop {
        passes.push(figs::pass(1));
        if !time_box.again(1) {
            break;
        }
    }
    let serial = passes.len();
    passes.push(figs::pass(threads));
    let ops = judge_figs(&passes);
    let digest = passes[0].digest();
    let serial_wall = median(
        &passes[..serial]
            .iter()
            .map(|p| p.wall_s)
            .collect::<Vec<_>>(),
    );
    let parallel = &passes[serial];

    let mut ledger = Ledger::new();
    let mut rows = Vec::new();
    for (i, (fig, _)) in figs::FIGURES.iter().enumerate() {
        let ms: Vec<f64> = passes[..serial]
            .iter()
            .map(|p| p.calls[i].wall_ms)
            .collect();
        ledger.set(&format!("tfmcc-experiments.{fig}.wall_ms"), median(&ms));
        rows.push(ShareRow::span(
            format!("tfmcc-experiments.{fig}"),
            median(&ms) * 1e-3,
        ));
    }
    let mut spans = Vec::new();
    let mut at_ns = 0.0;
    for call in &passes[serial - 1].calls {
        let end_ns = at_ns + call.wall_ms * 1e6;
        spans.push(span_json(
            format!("tfmcc-experiments.{}", call.name),
            at_ns,
            end_ns,
            "pass",
            serial as u64,
        ));
        at_ns = end_ns;
    }
    ledger.set(
        "tfmcc-runner.sweep_speedup_tn",
        serial_wall / parallel.wall_s,
    );
    ledger.set("tfmcc-runner.busy_frac", parallel.busy_frac);
    run_replays(&mut ledger, &FIGS_MIX);
    ledger.set("proc.cpu_s", cpu_seconds() - cpu_start);

    let mut report = vec![
        format!(
            "figs_quick traced: {serial} serial passes + 1 pass at {threads} threads, {} operations, {} failed, digest {digest:016x}",
            ops.attempted, ops.failed
        ),
        format!(
            "  serial pass {serial_wall:.4} s; pass at {threads} threads {:.4} s.  Each figure call is a span and the \
             spans are always on, so trace.overhead_frac reads 0.  The figures run their simulations inside: no \
             engine counter can be read from outside, and the replays carry no operation count.",
            parallel.wall_s
        ),
    ];
    let (table, layers) = share_table(&rows, serial_wall);
    report.extend(table);
    let result = RunResult {
        workload: Workload::FigsQuick,
        seed,
        trace: true,
        ops,
        digest,
        samples: serial,
        metrics: Vec::new(),
        report,
        trace_doc: None,
    };
    let doc = vec![
        ("workload".to_string(), Json::str("figs_quick")),
        ("seed".into(), Json::num(seed as f64)),
        ("digest".into(), Json::str(format!("{digest:016x}"))),
        ("serial_pass_s".into(), Json::num(serial_wall)),
        ("threads".into(), Json::num(threads as f64)),
        ("parallel_pass_s".into(), Json::num(parallel.wall_s)),
        ("layers".into(), layers),
        ("spans".into(), Json::Arr(spans)),
    ];
    finish(result, &ledger, doc)
}
