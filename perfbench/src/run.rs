//! Running one workload for `--seconds`, judging its operations and turning
//! the measurements into the metrics `BENCHMARK.json` names.

use std::time::Instant;

use tfmcc_runner::Json;

use crate::alloc;
use crate::caught;
use crate::figs::{self, Pass};
use crate::sims::{self, SimRep, SimWorkload, Sizes};
use crate::stats::{fastest_sum, median, percentile};
use crate::trace::Wrap;
use crate::traced::{trace_figs, trace_sim};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A simulation workload.
    Sim(SimWorkload),
    /// Every figure at quick scale.
    FigsQuick,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Sim(SimWorkload::FanoutStar),
        Workload::Sim(SimWorkload::FanoutChurn),
        Workload::Sim(SimWorkload::TfmccStar),
        Workload::FigsQuick,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sim(SimWorkload::FanoutStar) => "fanout_star",
            Workload::Sim(SimWorkload::FanoutChurn) => "fanout_churn",
            Workload::Sim(SimWorkload::TfmccStar) => "tfmcc_star",
            Workload::FigsQuick => "figs_quick",
        }
    }

    /// Why the workload is in the benchmark (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Sim(SimWorkload::FanoutStar) => {
                "pure netsim: CBR multicast down a 25000-leg clean star; event queue at ~N pending, link tx and shared fan-out, trivial agents, so protocol crates do no work"
            }
            Workload::Sim(SimWorkload::FanoutChurn) => {
                "same star with every 10th sink leaving and rejoining: membership writes beside delivery reads, so a fan-out win that taxes joins shows"
            }
            Workload::Sim(SimWorkload::TfmccStar) => {
                "one full TFMCC session, 750 receivers on a lossy heterogeneous star: half the events end in the receiver loss/RTT/feedback path; flat on fanout_*"
            }
            Workload::FigsQuick => {
                "all 23 paper figures at quick scale on the serial runner: many small sims with TCP/PGMCC/TFRC agents and AQM queues; large-N engine wins should not move it"
            }
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, reported per workload with tracing off.
///
/// The two times are quiet-machine estimates: `wall_s` is the sum over the
/// run's units (slices of a simulation, figure calls of a pass) of each
/// unit's fastest time across the repetitions ([`fastest_sum`]), `setup_s`
/// the lower quartile of all builds.  Their bounds are the 0.25 the driver
/// allows at most: the reference box is a 2-core shared VM whose speed shifts
/// by 10-20 % (at times 50 %) for minutes at a time, and the estimates take
/// out most of that, not all (README, "Reference numbers").  `peak_heap_mb`
/// repeats exactly for a seed; its bound covers the seed-to-seed spread.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        better: "lower",
        bound: 0.1,
    },
];

/// A per-layer metric's name, unit and direction.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSpec {
    /// Metric name: the layer (module) it measures, then what.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

/// Every per-layer metric, in the order the traced run prints them.  A
/// traced run reports all of them; one that does not apply to the workload
/// (see the interaction table in the README) reads 0.
pub fn per_layer() -> Vec<LayerSpec> {
    let fixed: [(&str, &'static str, &'static str); 44] = [
        ("netsim.sim.events", "count", "lower"),
        ("netsim.sim.ns_per_event", "ns", "lower"),
        ("netsim.sim.events_per_s", "1/s", "higher"),
        ("netsim.sim.engine_busy_s", "s", "lower"),
        ("netsim.sim.slice_p50_ms", "ms", "lower"),
        ("netsim.sim.slice_p99_ms", "ms", "lower"),
        ("netsim.events.ns_per_op", "ns", "lower"),
        ("netsim.events.pending_mean", "count", "lower"),
        ("netsim.events.pending_peak", "count", "lower"),
        ("netsim.link.ns_per_pkt", "ns", "lower"),
        ("netsim.link.enqueued", "count", "lower"),
        ("netsim.link.dropped_queue", "count", "lower"),
        ("netsim.link.dropped_loss", "count", "lower"),
        ("netsim.queue.droptail_ns_per_pkt", "ns", "lower"),
        ("netsim.queue.red_ns_per_pkt", "ns", "lower"),
        ("netsim.queue.codel_ns_per_pkt", "ns", "lower"),
        ("netsim.routing.lookup_ns", "ns", "lower"),
        ("netsim.routing.join_leave_ns", "ns", "lower"),
        ("netsim.routing.membership_changes", "count", "lower"),
        ("netsim.apps.source.busy_s", "s", "lower"),
        ("netsim.apps.source.calls", "count", "lower"),
        ("netsim.apps.sink.busy_s", "s", "lower"),
        ("netsim.apps.sink.calls", "count", "lower"),
        ("netsim.domains.wall_ratio_d2", "ratio", "higher"),
        ("netsim.domains.event_overhead", "ratio", "lower"),
        ("tfmcc-agents.receiver.busy_s", "s", "lower"),
        ("tfmcc-agents.receiver.calls", "count", "lower"),
        ("tfmcc-agents.sender.busy_s", "s", "lower"),
        ("tfmcc-agents.sender.calls", "count", "lower"),
        ("tfmcc-proto.receiver.on_data_ns", "ns", "lower"),
        ("tfmcc-proto.loss.on_packet_ns", "ns", "lower"),
        ("tfmcc-proto.feedback.timer_ns", "ns", "lower"),
        ("tfmcc-proto.sender.on_feedback_ns", "ns", "lower"),
        ("tfmcc-proto.sender.next_data_ns", "ns", "lower"),
        ("tfmcc-proto.sender.feedback_received", "count", "lower"),
        ("tfmcc-proto.sender.data_packets", "count", "lower"),
        ("tfmcc-feedback.round.ns_per_receiver", "ns", "lower"),
        ("tfmcc-model.throughput.ns", "ns", "lower"),
        ("tfmcc-runner.sweep_speedup_tn", "ratio", "higher"),
        ("tfmcc-runner.busy_frac", "ratio", "higher"),
        ("alloc.count_per_event", "count", "lower"),
        ("alloc.bytes_per_event", "B", "lower"),
        ("proc.cpu_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ];
    let mut specs: Vec<LayerSpec> = fixed
        .iter()
        .map(|&(name, unit, better)| LayerSpec {
            name: name.into(),
            unit,
            better,
        })
        .collect();
    let runner = specs
        .iter()
        .position(|s| s.name == "tfmcc-runner.sweep_speedup_tn")
        .expect("listed above");
    for (i, (fig, _)) in figs::FIGURES.iter().enumerate() {
        specs.insert(
            runner + i,
            LayerSpec {
                name: format!("tfmcc-experiments.{fig}.wall_ms"),
                unit: "ms",
                better: "lower",
            },
        );
    }
    specs
}

/// A measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Operations attempted and failed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ops {
    /// Operations attempted: one per simulation repetition, one per figure
    /// per pass.
    pub attempted: u64,
    /// Operations that panicked, failed their sanity check or differed from
    /// the first repetition of the same seed.
    pub failed: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
}

impl Ops {
    /// Adds `other`'s operations, each failure line prefixed with `whose`.
    pub fn absorb(&mut self, other: Ops, whose: &str) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures
            .extend(other.failures.iter().map(|f| format!("{whose}{f}")));
    }

    /// Counts one operation; every `Err` among `verdicts` is a reason it
    /// failed.
    pub fn record(&mut self, what: &str, verdicts: &[Result<(), String>]) {
        self.attempted += 1;
        let reasons: Vec<&str> = verdicts
            .iter()
            .filter_map(|v| v.as_ref().err().map(String::as_str))
            .collect();
        if !reasons.is_empty() {
            self.failed += 1;
            self.failures
                .push(format!("{what}: {}", reasons.join("; ")));
        }
    }
}

fn same_digest(first: u64, this: u64) -> Result<(), String> {
    if first == this {
        Ok(())
    } else {
        Err(format!(
            "digest {this:016x} differs from the first repetition's {first:016x}: \
             nondeterminism, or a trace or sharding that changed the run"
        ))
    }
}

/// Judges simulation repetitions of one seed: a repetition fails if it
/// panicked, if its sanity check failed, or if its digest differs from the
/// first repetition's.  A sharded repetition dispatches more events than
/// the single-queue run, so it is held to the stats registry's digest only.
pub fn judge_sim(reps: &[Result<SimRep, String>]) -> Ops {
    let mut ops = Ops::default();
    let first = reps.iter().find_map(|r| r.as_ref().ok());
    for (i, rep) in reps.iter().enumerate() {
        let what = format!("repetition {}", i + 1);
        match rep {
            Err(panic) => ops.record(&what, &[Err(format!("panicked: {panic}"))]),
            Ok(rep) => {
                let first = first.expect("this repetition, if no earlier one");
                let repeatable = if rep.domain_events.is_empty() {
                    same_digest(first.digest, rep.digest)
                } else {
                    same_digest(first.stats_digest, rep.stats_digest)
                };
                ops.record(&what, &[rep.check.clone(), repeatable]);
            }
        }
    }
    ops
}

/// Judges figure passes: a figure call fails if it panicked, if it differs
/// from its checked-in golden, or if its JSON differs from the first pass's.
pub fn judge_figs(passes: &[Pass]) -> Ops {
    let mut ops = Ops::default();
    for (p, pass) in passes.iter().enumerate() {
        for (call, first) in pass.calls.iter().zip(&passes[0].calls) {
            let repeatable = if call.json == first.json {
                Ok(())
            } else {
                Err("output differs from the first pass's (nondeterminism)".to_string())
            };
            ops.record(
                &format!("pass {} {}", p + 1, call.name),
                &[call.check(), repeatable],
            );
        }
    }
    ops
}

/// The outcome of one benchmark run of one workload.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The workload.
    pub workload: Workload,
    /// The seed its inputs were made from.
    pub seed: u64,
    /// Whether this was the traced mode.
    pub trace: bool,
    /// Operations attempted and failed.
    pub ops: Ops,
    /// Digest of the simulated statistics (first repetition / pass).
    pub digest: u64,
    /// Samples behind each reported median: repetitions or passes.
    pub samples: usize,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The human-readable report, line by line.
    pub report: Vec<String>,
    /// Spans and counters of a traced run, written to a file at exit.
    pub trace_doc: Option<Json>,
}

impl RunResult {
    /// True when no operation failed.
    pub fn correct(&self) -> bool {
        self.ops.failed == 0
    }

    /// The result object the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn contract_json(&self) -> Json {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::num(self.ops.attempted as f64)),
            ("failed".into(), Json::num(self.ops.failed as f64)),
            ("metrics".into(), self.metrics_json()),
        ])
    }

    pub(crate) fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    let value = Json::Obj(vec![
                        ("value".into(), Json::num(m.value)),
                        ("unit".into(), Json::str(m.unit)),
                    ]);
                    (m.name.clone(), value)
                })
                .collect(),
        )
    }

    /// The record `--out` collects and `compare` reads: the contract object
    /// plus workload, seed, mode, digest and sample count.
    pub fn record_json(&self) -> Json {
        let Json::Obj(mut fields) = self.contract_json() else {
            unreachable!("contract_json builds an object")
        };
        fields.splice(
            0..0,
            [
                ("workload".into(), Json::str(self.workload.name())),
                ("seed".into(), Json::num(self.seed as f64)),
                ("trace".into(), Json::Bool(self.trace)),
                ("digest".into(), Json::str(format!("{:016x}", self.digest))),
                ("samples".into(), Json::num(self.samples as f64)),
            ],
        );
        Json::Obj(fields)
    }
}

/// Repeats while another repetition still fits the `--seconds` box.
pub(crate) struct TimeBox {
    started: Instant,
    seconds: f64,
    laps: Vec<f64>,
    lap_started: Instant,
}

/// Repetitions (or passes) made however short the box is: the issue's
/// "median of 3", and at least two for the nondeterminism check.
const MIN_LAPS: usize = 3;
/// Repetitions after which the box closes however much time is left (the
/// toy sizes of the self-tests would otherwise spin thousands of times).
const MAX_LAPS: usize = 64;

impl TimeBox {
    pub(crate) fn new(seconds: f64) -> Self {
        let now = Instant::now();
        TimeBox {
            started: now,
            seconds,
            laps: Vec::new(),
            lap_started: now,
        }
    }

    /// Ends a lap; true if another one of median length fits the box.
    pub(crate) fn again(&mut self, min_laps: usize) -> bool {
        let now = Instant::now();
        self.laps.push((now - self.lap_started).as_secs_f64());
        self.lap_started = now;
        let used = (now - self.started).as_secs_f64();
        self.laps.len() < min_laps
            || (self.laps.len() < MAX_LAPS && used + median(&self.laps) <= self.seconds)
    }
}

fn mb(bytes: f64) -> f64 {
    bytes / (1u64 << 20) as f64
}

/// A report line: the reported `value`, how it was `made`, and the median
/// (if it is not the value itself) and range of the `values` behind it.
fn spread_line(name: &str, unit: &str, value: f64, made: &str, values: &[f64]) -> String {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mid = median(values);
    let mid = if mid == value {
        String::new()
    } else {
        format!("median {mid:.6}, ")
    };
    format!(
        "  {name:<14}{value:>12.6} {unit:<3} {made} {} ({mid}min {lo:.6}, max {hi:.6})",
        values.len()
    )
}

/// The three report lines of an untraced run.  `wall` holds the whole
/// repetitions' seconds, `wall_made` says what [`fastest_sum`] summed.
fn report_lines(
    metrics: &[Metric],
    wall_made: String,
    wall: &[f64],
    setup: &[f64],
    peak_bytes: &[f64],
) -> Vec<String> {
    let peak_mb: Vec<f64> = peak_bytes.iter().map(|&b| mb(b)).collect();
    let made = [
        wall_made,
        "lower quartile of".to_string(),
        "median (of a seed; mean of the seeds) of".to_string(),
    ];
    metrics
        .iter()
        .zip(made)
        .zip([wall, setup, &peak_mb])
        .map(|((m, made), values)| spread_line(&m.name, m.unit, m.value, &made, values))
        .collect()
}

/// Runs `workload` once: `seconds` of repetitions with tracing off, or the
/// traced mode's fixed programme sized to the same box.
pub fn run(workload: Workload, sizes: &Sizes, seed: u64, seconds: f64, trace: bool) -> RunResult {
    match (workload, trace) {
        (Workload::Sim(w), false) => measure_sim(w, sizes, seed, seconds),
        (Workload::Sim(w), true) => {
            // The traced programme follows one simulation: the first
            // sub-seed's, whose digest the untraced run reports too.
            let mut result = trace_sim(w, sizes, w.sub_seeds(seed)[0], seconds);
            result.seed = seed;
            result
        }
        (Workload::FigsQuick, false) => measure_figs(seed, seconds),
        (Workload::FigsQuick, true) => trace_figs(seed, seconds),
    }
}

/// The end-to-end metrics from a run's samples: `wall_s` is the
/// quiet-machine sum ([`fastest_sum`]), `setup` every build's time,
/// `peak_bytes` the peak (the median repetition's; the mean of the seeds').
fn end_to_end(wall_s: f64, setup: &[f64], peak_bytes: f64) -> Vec<Metric> {
    let values = [wall_s, percentile(setup, 0.25), mb(peak_bytes)];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(spec, value)| Metric {
            name: spec.name.into(),
            value,
            unit: spec.unit,
        })
        .collect()
}

fn measure_sim(w: SimWorkload, sizes: &Sizes, seed: u64, seconds: f64) -> RunResult {
    let workload = Workload::Sim(w);
    let sub_seeds = w.sub_seeds(seed);
    let mut ops = Ops::default();
    let mut report = Vec::new();
    // One quiet-machine sum and one peak (it repeats exactly) per sub-seed;
    // the samples pooled over all of them.
    let (mut sums, mut peaks) = (Vec::new(), Vec::new());
    let (mut wall, mut setup, mut peak) = (Vec::new(), Vec::new(), Vec::new());
    let mut digest = None;
    let mut slices = 0;
    for &sub_seed in &sub_seeds {
        let mut reps = Vec::new();
        let mut time_box = TimeBox::new(seconds / sub_seeds.len() as f64);
        loop {
            reps.push(caught(|| sims::rep(w, sizes, sub_seed, &Wrap::Plain, 1)));
            if !time_box.again(MIN_LAPS) {
                break;
            }
        }
        let judged = judge_sim(&reps);
        let ok: Vec<&SimRep> = reps.iter().filter_map(|r| r.as_ref().ok()).collect();
        if let Some(first) = ok.first() {
            report.push(format!(
                "{} seed {sub_seed}: {} repetitions, {} failed, digest {:016x}, {} events over {:.2} sim-s",
                workload.name(),
                judged.attempted,
                judged.failed,
                first.digest,
                first.counters.events,
                first.sim_secs
            ));
            digest.get_or_insert(first.digest);
            slices += first.phase.slice_ms.len();
            let slice_s: Vec<Vec<f64>> = ok
                .iter()
                .map(|r| r.phase.slice_ms.iter().map(|ms| ms * 1e-3).collect())
                .collect();
            sums.push(fastest_sum(&slice_s));
            let seed_peaks: Vec<f64> = ok.iter().map(|r| r.peak_heap_bytes as f64).collect();
            peaks.push(median(&seed_peaks));
        }
        wall.extend(ok.iter().map(|r| r.phase.wall_s));
        setup.extend(ok.iter().flat_map(|r| r.setup_s.iter().copied()));
        peak.extend(ok.iter().map(|r| r.peak_heap_bytes as f64));
        ops.absorb(judged, &format!("seed {sub_seed} "));
    }
    // A sub-seed without a finished repetition leaves the run unmeasured.
    let metrics = if sums.len() == sub_seeds.len() {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        end_to_end(mean(&sums), &setup, mean(&peaks))
    } else {
        Vec::new()
    };
    if !metrics.is_empty() {
        let made = match sub_seeds.len() {
            1 => format!("sum of {slices} slices, each the fastest of"),
            n => format!(
                "mean of {n} seeds' sums of slices ({slices} in all), each the fastest of its seed's share of"
            ),
        };
        report.extend(report_lines(&metrics, made, &wall, &setup, &peak));
    }
    RunResult {
        workload,
        seed,
        trace: false,
        metrics,
        ops,
        digest: digest.unwrap_or(0),
        samples: wall.len(),
        report,
        trace_doc: None,
    }
}

/// The set-up of a `figs_quick` pass: one warm-up call of each figure that
/// runs no simulation (figures 1-7 and 17: `tfmcc-feedback` Monte-Carlo and
/// `tfmcc-model` only), so that the timed pass starts with the allocator and
/// the model code warm.  The figure functions build their own topologies, so
/// nothing else of a pass can be told apart as set-up from outside.
fn figs_warm_up() -> f64 {
    let runner = tfmcc_experiments::SweepRunner::serial();
    let started = Instant::now();
    for (name, fig) in figs::FIGURES {
        if matches!(
            name,
            "fig01" | "fig02" | "fig03" | "fig04" | "fig05" | "fig06" | "fig07" | "fig17"
        ) {
            std::hint::black_box(fig(&runner, tfmcc_experiments::Scale::Quick));
        }
    }
    started.elapsed().as_secs_f64()
}

fn measure_figs(seed: u64, seconds: f64) -> RunResult {
    let mut passes = Vec::new();
    let (mut setup, mut peak) = (Vec::new(), Vec::new());
    let mut time_box = TimeBox::new(seconds);
    loop {
        let base = alloc::mark();
        alloc::reset_peak();
        setup.extend((0..sims::SETUP_BUILDS).map(|_| figs_warm_up()));
        passes.push(figs::pass(1));
        peak.push((alloc::peak_bytes() - base.live) as f64);
        if !time_box.again(MIN_LAPS) {
            break;
        }
    }
    let ops = judge_figs(&passes);
    let wall: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let calls: Vec<Vec<f64>> = passes
        .iter()
        .map(|p| p.calls.iter().map(|c| c.wall_ms * 1e-3).collect())
        .collect();
    let metrics = end_to_end(fastest_sum(&calls), &setup, median(&peak));
    let digest = passes[0].digest();
    let mut report = vec![format!(
        "figs_quick (seed {seed} unused: the paper's fixed scenarios): {} passes x {} figures, {} failed, digest {digest:016x}",
        passes.len(),
        figs::FIGURES.len(),
        ops.failed
    )];
    let made = format!(
        "sum of {} figure calls, each the fastest of",
        figs::FIGURES.len()
    );
    report.extend(report_lines(&metrics, made, &wall, &setup, &peak));
    RunResult {
        workload: Workload::FigsQuick,
        seed,
        trace: false,
        ops,
        digest,
        samples: passes.len(),
        metrics,
        report,
        trace_doc: None,
    }
}
