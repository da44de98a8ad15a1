//! Figure 23 (beyond the paper): inter-TFMCC fairness — K competing TFMCC
//! sessions over one shared bottleneck.
//!
//! The paper's evaluation doubles *TCP* flows against one TFMCC flow
//! (Figure 21); this scenario turns the competition inward and runs several
//! independent TFMCC sessions — each with its own sender, multicast group
//! and receiver population, wired by
//! [`tfmcc_agents::manager::SessionManager`] — through a common bottleneck.
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
use tfmcc_agents::manager::{SessionManager, SessionSpec};
use tfmcc_agents::population::{FluidSpec, PopulationSpec};
use tfmcc_agents::session::ReceiverSpec;
use tfmcc_model::population::Dist;
use tfmcc_runner::{Sweep, SweepRunner};

use crate::output::{Figure, Series};
use crate::scale::Scale;

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
    let mut sim = Simulator::new(seed);
    // Dumbbell core: every sender feeds the left router, every receiver
    // hangs off the right router, and all data crosses the shared
    // 8 Mbit/s bottleneck.
    let left = sim.add_node("left");
    let right = sim.add_node("right");
    sim.add_duplex_link(
        left,
        right,
        1_000_000.0, // 8 Mbit/s shared bottleneck
        0.02,
        QueueDiscipline::drop_tail(100),
    );
    let mut manager = SessionManager::new();
    for session in 0..k {
        let sender = sim.add_node(&format!("s{session}"));
        sim.add_duplex_link(
            sender,
            left,
            1_250_000.0,
            0.005,
            QueueDiscipline::drop_tail(60),
        );
        let specs: Vec<ReceiverSpec> = (0..receivers_per_session)
            .map(|i| {
                let node = sim.add_node(&format!("r{session}_{i}"));
                sim.add_duplex_link(
                    right,
                    node,
                    1_250_000.0,
                    0.005 + 0.002 * (i % 5) as f64,
                    QueueDiscipline::drop_tail(60),
                );
                ReceiverSpec::always(node)
            })
            .collect();
        let mut populations = PopulationSpec::packets(&specs);
        if fluid_bulk > 0 {
            let node = sim.add_node(&format!("fluid{session}"));
            sim.add_duplex_link(
                right,
                node,
                12_500_000.0,
                0.005,
                QueueDiscipline::drop_tail(60),
            );
            populations.push(PopulationSpec::Fluid(FluidSpec::new(
                node,
                fluid_bulk,
                Dist::Uniform {
                    lo: 0.001,
                    hi: 0.01,
                },
                Dist::Uniform { lo: 0.02, hi: 0.06 },
            )));
        }
        manager.add_population_session(
            &mut sim,
            &SessionSpec::default().starting_at(session as f64 * START_STAGGER),
            sender,
            &populations,
        );
    }
    sim.run_until(SimTime::from_secs(duration));

    // Fairness window: after the last session had time to converge.
    let from = (k as f64 * START_STAGGER + duration * 0.4).min(duration * 0.7);
    let to = duration - 2.0;
    let report = manager.report(&sim, from, to);
    let kbit = |bytes_per_sec: f64| bytes_per_sec * 8.0 / 1000.0;
    IntertfmccOutcome {
        sessions: k,
        receivers_per_session,
        jain: report.jain_index(),
        min_kbit: kbit(report.min_throughput()),
        mean_kbit: kbit(report.total_throughput() / k as f64),
        max_kbit: kbit(report.max_throughput()),
        aggregate_kbit: kbit(report.total_throughput()),
        clr_changes: report
            .sessions
            .iter()
            .map(|s| s.sender_stats.clr_changes)
            .sum(),
        traces: report
            .sessions
            .iter()
            .map(|s| {
                s.probe_trace
                    .iter()
                    .map(|&(t, bps)| (t, kbit(bps)))
                    .collect()
            })
            .collect(),
    }
}

/// Figure 23: inter-TFMCC fairness over a shared 8 Mbit/s bottleneck as a
/// function of the number of competing sessions.
pub fn fig23_intertfmcc(runner: &SweepRunner, scale: Scale) -> Figure {
    let counts = session_counts(scale);
    let duration = scale.pick(60.0, 240.0);
    let total = total_receivers(scale);
    let sweep = Sweep::new("fig23", 2323, counts);
    let outcomes = runner.run(&sweep, |pt| {
        let k = *pt.value;
        run_intertfmcc_point(k, (total / k).max(1), 0, pt.seed, duration)
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
    let hybrid_k = *session_counts(scale).last().unwrap();
    let hybrid_bulk = scale.pick(1_000_000u64, 10_000_000) / hybrid_k as u64;
    let hybrid_sweep = Sweep::new("fig23/hybrid", 23_232, vec![hybrid_k]);
    let hybrid = runner.run(&hybrid_sweep, |pt| {
        let k = *pt.value;
        run_intertfmcc_point(k, (total / k).max(1), hybrid_bulk, pt.seed, duration)
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
    use tfmcc_runner::SweepRunner;

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
