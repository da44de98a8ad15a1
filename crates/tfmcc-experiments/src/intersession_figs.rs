//! Figure 23 (beyond the paper): inter-TFMCC fairness — K competing TFMCC
//! sessions over one shared bottleneck.
//!
//! The paper's evaluation doubles *TCP* flows against one TFMCC flow
//! (Figure 21); this scenario turns the competition inward and runs several
//! independent TFMCC sessions — each with its own sender, multicast group
//! and receiver population, wired by the [`testbed`](crate::testbed) on
//! its own addressing block — through a common bottleneck.
//! A single-rate protocol that is fair to TCP should *a fortiori* be fair to
//! itself: the sessions' long-term rates should converge towards equal
//! shares, which the figure quantifies with Jain's fairness index
//! `(Σx)²/(n·Σx²)` alongside min/mean/max session rates and per-session rate
//! traces.
//!
//! Receiver populations scale with the experiment [`Scale`]: a handful per
//! session at quick scale, and a fixed **total of 10⁵ receivers split over
//! the sessions** at paper scale — the multi-session frontier the roadmap
//! names, exercising the incremental feedback aggregation and the zero-copy
//! fan-out in one run.
//!
//! The session-count sweep runs on the parallel sweep runner (one
//! simulation per K): K = 2, 4 at quick scale and K = 2, 4, 8 at paper
//! scale.

use netsim::prelude::*;
use tfmcc_agents::population::{Dist, FluidSpec, PopulationSpec};

use crate::exec::SweepRunner;
use crate::output::{Figure, Series};
use crate::scale::Scale;
use crate::testbed::{jain_index, kbit, stagger, Core, Flow, Testbed, Topology};

/// Seconds between consecutive session starts (sessions join a running
/// system, they do not line up on t = 0).
const START_STAGGER: f64 = 5.0;

/// Deterministic result of one inter-TFMCC sweep point.
struct IntertfmccOutcome {
    sessions: usize,
    receivers_per_session: usize,
    jain: f64,
    min_kbit: f64,
    mean_kbit: f64,
    max_kbit: f64,
    aggregate_kbit: f64,
    clr_changes: u64,
    /// `(time, kbit/s)` probe trace per session, session order.
    traces: Vec<Vec<(f64, f64)>>,
}

/// The session counts a scale sweeps.
fn session_counts(scale: Scale) -> Vec<usize> {
    scale.pick(vec![2, 4], vec![2, 4, 8])
}

/// Total receivers split over the competing sessions.
fn total_receivers(scale: Scale) -> usize {
    scale.pick(8, 100_000)
}

/// Builds and runs one shared-bottleneck simulation with `k` competing
/// sessions of `receivers_per_session` packet-level receivers each, plus
/// (when `fluid_bulk > 0`) a per-session fluid population of that many
/// receivers — the hybrid tier that carries the fairness experiment to 10⁶
/// receivers and beyond.
fn run_intertfmcc_point(
    k: usize,
    receivers_per_session: usize,
    fluid_bulk: u64,
    seed: u64,
    duration: f64,
) -> IntertfmccOutcome {
    // Every sender feeds the left router, every receiver hangs off the
    // right router, and all data crosses the shared 8 Mbit/s bottleneck.
    let core = Core {
        delay: 0.02,
        queue: QueueDiscipline::drop_tail(100),
        loss: None,
        hosts: vec![(0..receivers_per_session).map(|i| stagger(i, 5)).collect(); k],
        fluid_legs: fluid_bulk > 0,
    };
    let mut bed = Testbed::new(seed, &Topology::Core(core));
    let layout = &bed.layout;
    let flows: Vec<Flow> = (0..k)
        .map(|session| {
            let cohort =
                &layout.receivers[session * receivers_per_session..][..receivers_per_session];
            let mut populations: Vec<PopulationSpec> = cohort
                .iter()
                .map(|&node| PopulationSpec::packet(node))
                .collect();
            if fluid_bulk > 0 {
                populations.push(PopulationSpec::Fluid(FluidSpec::new(
                    layout.fluid[session],
                    fluid_bulk,
                    Dist::Uniform {
                        lo: 0.001,
                        hi: 0.01,
                    },
                    Dist::Uniform { lo: 0.02, hi: 0.06 },
                )));
            }
            Flow::Tfmcc {
                sender: layout.senders[session],
                start_at: session as f64 * START_STAGGER,
                populations,
            }
        })
        .collect();
    bed.wire(flows);
    bed.run_until(duration);

    // Fairness window: after the last session had time to converge.
    let from = (k as f64 * START_STAGGER + duration * 0.4).min(duration * 0.7);
    let to = duration - 2.0;
    let rates: Vec<f64> = (0..k)
        .map(|i| bed.session(i).mean_throughput(&bed.sim, from, to))
        .collect();
    let total: f64 = rates.iter().sum();
    IntertfmccOutcome {
        sessions: k,
        receivers_per_session,
        jain: jain_index(rates.iter().copied()),
        min_kbit: kbit(rates.iter().copied().fold(f64::INFINITY, f64::min)),
        mean_kbit: kbit(total / k as f64),
        max_kbit: kbit(rates.iter().copied().fold(0.0, f64::max)),
        aggregate_kbit: kbit(total),
        clr_changes: (0..k)
            .map(|i| {
                bed.session(i)
                    .sender_agent(&bed.sim)
                    .protocol()
                    .stats()
                    .clr_changes
            })
            .sum(),
        traces: (0..k).map(|i| bed.series(i)).collect(),
    }
}

/// Figure 23: inter-TFMCC fairness over a shared 8 Mbit/s bottleneck as a
/// function of the number of competing sessions.
pub fn fig23_intertfmcc(runner: &SweepRunner, scale: Scale) -> Figure {
    let counts = session_counts(scale);
    let duration = scale.pick(60.0, 240.0);
    let total = total_receivers(scale);
    let outcomes = runner.run(2323, &counts, |&k, seed| {
        run_intertfmcc_point(k, (total / k).max(1), 0, seed, duration)
    });

    let mut fig = Figure::new(
        "fig23",
        "Inter-TFMCC fairness: K sessions sharing an 8 Mbit/s bottleneck",
        "number of sessions",
        "Jain index / throughput (kbit/s)",
    );
    fig.push_series(Series::new(
        "Jain index",
        outcomes
            .iter()
            .map(|o| (o.sessions as f64, o.jain))
            .collect(),
    ));
    type RateColumn = (&'static str, fn(&IntertfmccOutcome) -> f64);
    let rate_series: [RateColumn; 4] = [
        ("min session rate (kbit/s)", |o| o.min_kbit),
        ("mean session rate (kbit/s)", |o| o.mean_kbit),
        ("max session rate (kbit/s)", |o| o.max_kbit),
        ("aggregate rate (kbit/s)", |o| o.aggregate_kbit),
    ];
    for (name, f) in rate_series {
        fig.push_series(Series::new(
            name,
            outcomes.iter().map(|o| (o.sessions as f64, f(o))).collect(),
        ));
    }
    // Rate traces of the largest session count, so the convergence after
    // each staggered start stays visible (capped at four sessions).
    if let Some(largest) = outcomes.last() {
        for (i, trace) in largest.traces.iter().take(4).enumerate() {
            fig.push_series(Series::new(
                format!("session {} trace (kbit/s)", i + 1),
                trace.clone(),
            ));
        }
    }

    // The hybrid extension: the same fairness experiment with each session
    // carrying a fluid bulk, for a 10⁶-receiver (quick) / 10⁷-receiver
    // (paper) total across the competing sessions.
    let hybrid_k = *counts.last().unwrap();
    let hybrid_bulk = scale.pick(1_000_000u64, 10_000_000) / hybrid_k as u64;
    let hybrid = runner.run(23_232, &[hybrid_k], |&k, seed| {
        run_intertfmcc_point(k, (total / k).max(1), hybrid_bulk, seed, duration)
    });
    fig.push_series(Series::new(
        "hybrid Jain index",
        hybrid.iter().map(|o| (o.sessions as f64, o.jain)).collect(),
    ));
    fig.push_series(Series::new(
        "hybrid aggregate rate (kbit/s)",
        hybrid
            .iter()
            .map(|o| (o.sessions as f64, o.aggregate_kbit))
            .collect(),
    ));

    let worst = outcomes
        .iter()
        .min_by(|a, b| a.jain.partial_cmp(&b.jain).expect("jain is never NaN"))
        .expect("at least one session count");
    let hybrid_last = hybrid.last().unwrap();
    fig.note(format!(
        "Jain index {:.3} at K={} (worst over the sweep); {} receivers per session at the \
         largest K; aggregate {:.0} kbit/s of the 8000 kbit/s bottleneck; {} CLR changes; \
         hybrid: K={} sessions with {} fluid receivers each share at Jain {:.3}",
        worst.jain,
        worst.sessions,
        outcomes.last().unwrap().receivers_per_session,
        outcomes.last().unwrap().aggregate_kbit,
        outcomes.last().unwrap().clr_changes,
        hybrid_last.sessions,
        hybrid_bulk,
        hybrid_last.jain,
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
        FIG.get_or_init(|| fig23_intertfmcc(&SweepRunner::new(4), Scale::Quick))
    }

    #[test]
    fn fig23_sessions_share_fairly() {
        let fig = quick_fig();
        let jain = fig.series("Jain index").unwrap();
        assert_eq!(jain.points.len(), 2, "quick scale sweeps K = 2 and 4");
        for &(k, j) in &jain.points {
            assert!(
                j > 0.6,
                "K={k} competing TFMCC sessions should share the bottleneck \
                 (Jain {j})"
            );
            assert!(j <= 1.0 + 1e-12);
        }
        let min = fig.series("min session rate (kbit/s)").unwrap();
        for &(k, kbit) in &min.points {
            assert!(kbit > 100.0, "a session starved at K={k}: {kbit} kbit/s");
        }
        let agg = fig.series("aggregate rate (kbit/s)").unwrap();
        for &(k, kbit) in &agg.points {
            assert!(
                kbit < 8000.0 * 1.05,
                "aggregate exceeds the bottleneck at K={k}: {kbit}"
            );
        }
    }

    #[test]
    fn fig23_hybrid_sessions_share_a_million_receivers_fairly() {
        let fig = quick_fig();
        let jain = fig.series("hybrid Jain index").unwrap();
        let &(k, j) = jain.points.last().unwrap();
        assert!(
            j > 0.6,
            "K={k} hybrid sessions (10⁶ fluid receivers total) should share \
             the bottleneck (Jain {j})"
        );
        let agg = fig.series("hybrid aggregate rate (kbit/s)").unwrap();
        let &(_, kbit) = agg.points.last().unwrap();
        assert!(kbit > 100.0, "hybrid sessions starved: {kbit} kbit/s");
        assert!(kbit < 8000.0 * 1.05, "aggregate exceeds the bottleneck");
    }

    #[test]
    fn fig23_is_thread_count_invariant() {
        let serial = fig23_intertfmcc(&SweepRunner::new(1), Scale::Quick);
        assert_eq!(serial.to_json().render(), quick_fig().to_json().render());
    }
}
