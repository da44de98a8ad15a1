//! Figure 24 (beyond the paper): cross-protocol fairness matrix over AQM
//! bottlenecks.
//!
//! The paper evaluates TFMCC against TCP only (Figures 9, 10, 21); this
//! scenario completes the competitive picture by running every pairing of
//! **TFMCC, PGMCC, TFRC and TCP** — plus a four-way melee — through one
//! shared bottleneck and reporting Jain's fairness index and per-flow rates
//! for each matchup.  The bottleneck runs gentle RED: the figure exists to
//! exercise AQM (`scenario_search` sweeps drop-tail, gentle RED and CoDel
//! bottlenecks).
//!
//! A second leg re-runs the paper's feedback-robustness shape (Figure 19:
//! lossy return paths, here with an additional asymmetric leg) under the
//! same AQM discipline with a hybrid receiver population of 10⁵ receivers,
//! anchoring the AQM code path at the population scale the roadmap names.
//!
//! Every flow runs on the [`testbed`](crate::testbed): TFMCC and TFRC flows
//! are sessions (a TFRC flow is a one-receiver TFMCC session, whose receiver
//! is always the CLR), and flow `i` of a pairing — whatever its protocol —
//! owns addressing block `i` of the testbed's session manager, so a
//! mixed-protocol simulation cannot alias multicast groups or ports.

use netsim::prelude::*;
use tfmcc_agents::manager::{jain_index, SessionAddressing};
use tfmcc_agents::population::{FluidSpec, PopulationSpec};
use tfmcc_model::population::Dist;

use crate::exec::SweepRunner;
use crate::output::{Figure, Series};
use crate::scale::Scale;
use crate::testbed::{kbit, stagger, tcp_per_receiver, Core, Flow, Testbed, Topology};

/// The protocols competing in the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// Multi-rate-free single-rate multicast congestion control (the paper).
    Tfmcc,
    /// Window-based multicast congestion control driven by the acker.
    Pgmcc,
    /// Unicast equation-based rate control (TFMCC's unicast ancestor).
    Tfrc,
    /// TCP Reno.
    Tcp,
}

impl Proto {
    /// All protocols, in matrix order.
    pub const ALL: [Proto; 4] = [Proto::Tfmcc, Proto::Pgmcc, Proto::Tfrc, Proto::Tcp];

    /// Short lower-case name used in series labels and notes.
    pub fn name(self) -> &'static str {
        match self {
            Proto::Tfmcc => "tfmcc",
            Proto::Pgmcc => "pgmcc",
            Proto::Tfrc => "tfrc",
            Proto::Tcp => "tcp",
        }
    }
}

/// The scenario list: every unordered pairing (same-protocol pairs
/// included) followed by the four-way melee.
pub fn pairings() -> Vec<Vec<Proto>> {
    let mut list = Vec::new();
    for i in 0..Proto::ALL.len() {
        for j in i..Proto::ALL.len() {
            list.push(vec![Proto::ALL[i], Proto::ALL[j]]);
        }
    }
    list.push(Proto::ALL.to_vec());
    list
}

/// Name of the AQM discipline every bottleneck of the figure runs
/// ([`QueueDiscipline::red_gentle`]), as the title and notes print it.
const QUEUE_NAME: &str = "gentle-red";

/// Deterministic result of one matrix point.
struct MatrixOutcome {
    label: String,
    jain: f64,
    /// Per-flow steady-state rate in kbit/s, flow order.
    rates_kbit: Vec<f64>,
    /// `(protocol name, (time, kbit/s) trace)` per flow, flow order.
    traces: Vec<(String, Vec<(f64, f64)>)>,
}

/// Builds and runs one shared-bottleneck simulation with one flow per entry
/// of `protos` — a dumbbell whose 8 Mbit/s core runs gentle RED while every
/// flow keeps its own clean access links.
fn run_matrix_point(protos: &[Proto], seed: u64, duration: f64) -> MatrixOutcome {
    let core = Core {
        delay: 0.02,
        queue: QueueDiscipline::red_gentle(50),
        loss: None,
        hosts: (0..protos.len()).map(|i| vec![stagger(i, 4)]).collect(),
        fluid_legs: false,
    };
    let mut bed = Testbed::new(seed, &Topology::Core(core));
    let layout = &bed.layout;
    let flows: Vec<Flow> = protos
        .iter()
        .enumerate()
        .map(|(i, &proto)| {
            let (sender, receiver) = (layout.senders[i], layout.receivers[i]);
            match proto {
                Proto::Tfmcc | Proto::Tfrc => {
                    Flow::session(sender, vec![PopulationSpec::packet(receiver)])
                }
                Proto::Pgmcc => Flow::Pgmcc(sender, receiver),
                Proto::Tcp => {
                    let addr = SessionAddressing::block(i);
                    let src = Address::new(sender, addr.sender_port);
                    Flow::tcp(src, Address::new(receiver, addr.data_port), addr.flow, 1.0)
                }
            }
        })
        .collect();
    bed.wire(flows);
    bed.run_until(duration);

    let from = duration * 0.3;
    let to = duration - 2.0;
    let rates: Vec<f64> = (0..protos.len())
        .map(|i| bed.meter(i).average_between(from, to))
        .collect();
    MatrixOutcome {
        label: protos
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join("+"),
        jain: jain_index(rates.iter().copied()),
        rates_kbit: rates.iter().map(|&r| kbit(r)).collect(),
        traces: protos
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name().to_string(), bed.series(i)))
            .collect(),
    }
}

/// Deterministic result of the AQM robustness leg.
struct RobustnessOutcome {
    tfmcc_kbit: f64,
    population: u64,
    trace: Vec<(f64, f64)>,
}

/// The Figure 19 shape under AQM at population scale: a four-leg star whose
/// legs run gentle RED, with 0/10/20/30 % feedback loss on the return paths,
/// one asymmetric (slow, long) feedback path, a competing TCP flow per leg
/// and a hybrid fluid population carrying the receiver count to 10⁵.
fn run_aqm_robustness(seed: u64, fluid_bulk: u64, duration: f64) -> RobustnessOutcome {
    let leg_queue = QueueDiscipline::red_gentle(40);
    let reverse_loss = [0.0, 0.1, 0.2, 0.3];
    let mut legs: Vec<StarLeg> = (0..4)
        .map(|i| {
            let mut leg = StarLeg::clean(250_000.0, 0.02).with_queue(leg_queue.clone());
            if reverse_loss[i] > 0.0 {
                leg = leg.with_upstream_loss(reverse_loss[i]);
            }
            if i == 3 {
                // One leg also feeds back over a slow, long path — the
                // asymmetric-topology case of the robustness story.
                leg = leg.with_upstream_path(31_250.0, 0.08);
            }
            leg
        })
        .collect();
    // The fluid population's attachment leg.
    legs.push(StarLeg::clean(12_500_000.0, 0.005).with_queue(QueueDiscipline::drop_tail(60)));
    let mut bed = Testbed::new(seed, &Topology::Star(StarConfig::default(), legs));
    let (sender, receivers) = (bed.layout.senders[0], &bed.layout.receivers[..4]);
    let mut populations: Vec<PopulationSpec> = receivers
        .iter()
        .map(|&n| PopulationSpec::packet(n))
        .collect();
    populations.push(PopulationSpec::Fluid(FluidSpec::new(
        bed.layout.receivers[4],
        fluid_bulk,
        Dist::Uniform {
            lo: 0.001,
            hi: 0.01,
        },
        Dist::Uniform { lo: 0.02, hi: 0.06 },
    )));
    // A forward TCP flow per leg provides the competing traffic, as in
    // Figure 19.
    let mut flows = vec![Flow::session(sender, populations)];
    flows.extend(tcp_per_receiver(sender, receivers, 3000, 1.0));
    bed.wire(flows);
    bed.run_until(duration);

    let warm = duration * 0.4;
    RobustnessOutcome {
        tfmcc_kbit: bed.mean_kbit(0, warm, duration - 2.0),
        population: bed
            .session(0)
            .sender_agent(&bed.sim)
            .protocol()
            .session_population(),
        trace: bed.series(0),
    }
}

/// Figure 24: the cross-protocol fairness matrix over an AQM bottleneck,
/// plus the Figure 19 robustness shape under the same discipline at 10⁵
/// receivers.
pub fn fig24_fairness_matrix(runner: &SweepRunner, scale: Scale) -> Figure {
    let duration = scale.pick(40.0, 120.0);
    let outcomes = runner.run(2424, &pairings(), |pairing, seed| {
        run_matrix_point(pairing, seed, duration)
    });

    let mut fig = Figure::new(
        "fig24",
        format!("Cross-protocol fairness matrix over an 8 Mbit/s {QUEUE_NAME} bottleneck"),
        "pairing index",
        "Jain index / rate (kbit/s)",
    );
    fig.push_series(Series::new(
        "Jain index",
        outcomes
            .iter()
            .enumerate()
            .map(|(i, o)| (i as f64, o.jain))
            .collect(),
    ));
    fig.push_series(Series::new(
        "min flow rate (kbit/s)",
        outcomes
            .iter()
            .enumerate()
            .map(|(i, o)| {
                (
                    i as f64,
                    o.rates_kbit.iter().cloned().fold(f64::MAX, f64::min),
                )
            })
            .collect(),
    ));
    fig.push_series(Series::new(
        "max flow rate (kbit/s)",
        outcomes
            .iter()
            .enumerate()
            .map(|(i, o)| (i as f64, o.rates_kbit.iter().cloned().fold(0.0, f64::max)))
            .collect(),
    ));
    // Rate traces of the four-way melee, fig23 style.
    if let Some(melee) = outcomes.last() {
        for (name, trace) in &melee.traces {
            fig.push_series(Series::new(format!("melee {name} (kbit/s)"), trace.clone()));
        }
    }
    for (i, o) in outcomes.iter().enumerate() {
        let rates = o
            .rates_kbit
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join("/");
        fig.note(format!(
            "[{i}] {} over {QUEUE_NAME}: Jain {:.3}, rates {rates} kbit/s",
            o.label, o.jain
        ));
    }

    // The AQM robustness leg: fig19's lossy/asymmetric feedback paths under
    // the same queue discipline, with a hybrid population of 10⁵ receivers.
    let fluid_bulk = scale.pick(100_000u64, 1_000_000);
    let seed = netsim::rng::stream_seed(24_242, 0);
    let robustness = runner.run_one(|| run_aqm_robustness(seed, fluid_bulk, duration));
    fig.push_series(Series::new(
        "AQM robustness TFMCC (kbit/s)",
        robustness.trace.clone(),
    ));
    fig.note(format!(
        "AQM robustness (fig19 shape, {QUEUE_NAME} legs, lossy + asymmetric feedback paths): \
         TFMCC {:.0} kbit/s steady state with a session population of {} receivers",
        robustness.tfmcc_kbit, robustness.population
    ));
    fig
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;

    /// The quick figure on four threads, computed once for every test here.
    fn quick_fig() -> &'static Figure {
        static FIG: OnceLock<Figure> = OnceLock::new();
        FIG.get_or_init(|| fig24_fairness_matrix(&SweepRunner::new(4), Scale::Quick))
    }

    #[test]
    fn fig24_covers_every_pairing_plus_the_melee() {
        let fig = quick_fig();
        let jain = fig.series("Jain index").unwrap();
        assert_eq!(
            jain.points.len(),
            11,
            "10 unordered pairings plus the 4-way melee"
        );
        for &(i, j) in &jain.points {
            assert!(j <= 1.0 + 1e-12, "Jain out of range at {i}: {j}");
            assert!(
                j > 0.9,
                "all four protocols answer loss with TCP-model rates, so \
                 every pairing should share fairly — Jain {j} at {i}"
            );
        }
        let min = fig.series("min flow rate (kbit/s)").unwrap();
        for &(i, kbit) in &min.points {
            assert!(kbit > 100.0, "a flow starved in pairing {i}: {kbit} kbit/s");
        }
        // The melee contributes one trace per protocol.
        for p in Proto::ALL {
            assert!(
                fig.series(&format!("melee {} (kbit/s)", p.name()))
                    .is_some(),
                "missing melee trace for {}",
                p.name()
            );
        }
    }

    #[test]
    fn fig24_same_protocol_pairings_share_fairly() {
        let fig = quick_fig();
        let jain = fig.series("Jain index").unwrap();
        // Scenario list order: index of the X+X pairing of protocol i is
        // the position of (i, i) in the i ≤ j enumeration.
        let same = [0usize, 4, 7, 9];
        for (p, &idx) in Proto::ALL.iter().zip(&same) {
            let (_, j) = jain.points[idx];
            assert!(
                j >= 0.9,
                "two {} flows should converge to Jain >= 0.9, got {j}",
                p.name()
            );
        }
    }

    #[test]
    fn fig24_robustness_leg_reaches_population_scale() {
        let fig = quick_fig();
        let note = fig
            .summary
            .iter()
            .find(|n| n.contains("AQM robustness"))
            .expect("robustness note present");
        let population: u64 = note
            .split("population of ")
            .nth(1)
            .and_then(|rest| rest.split(' ').next())
            .and_then(|n| n.parse().ok())
            .expect("note reports the session population");
        assert!(
            population >= 100_000,
            "hybrid population should reach 10^5 receivers: {note}"
        );
        let trace = fig.series("AQM robustness TFMCC (kbit/s)").unwrap();
        assert!(!trace.points.is_empty());
    }

    #[test]
    fn fig24_is_thread_count_invariant() {
        let serial = fig24_fairness_matrix(&SweepRunner::new(1), Scale::Quick);
        assert_eq!(serial.to_json().render(), quick_fig().to_json().render());
    }
}
