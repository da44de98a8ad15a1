//! Figure 22 (beyond the paper): TFMCC under massive receiver churn.
//!
//! The paper's evaluation stops at static receiver sets; this scenario opens
//! the "massive receiver churn" workload from the roadmap.  A single TFMCC
//! session runs over a star of individually delayed 1 Mbit/s legs while a
//! fifth of the receivers continuously cycle through join → leave → rejoin
//! (announcing every departure, restarting with fresh protocol state on
//! every rejoin).  Receiver counts sweep up to 10⁵ at paper scale — the
//! workload the zero-copy fan-out, lazy routing and incremental
//! distribution-tree maintenance exist for.
//!
//! Reported per receiver-count: the goodput of a persistent probe receiver,
//! the mean goodput over all receivers, the number of membership changes
//! processed, and the event-queue work per delivered kilobyte.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use netsim::prelude::*;
use tfmcc_agents::population::{Dist, FluidSpec, PopulationSpec};
use tfmcc_agents::session::ReceiverSpec;

use crate::exec::SweepRunner;
use crate::output::{Figure, Series};
use crate::scale::Scale;
use crate::testbed::{kbit, Flow, Testbed, Topology};

/// Fraction of receivers that churn: every 5th (i % 5 == 1).
const CHURN_MODULUS: usize = 5;

/// Deterministic result of one churn-sweep point.
struct ChurnOutcome {
    receivers: usize,
    probe_kbit: f64,
    mean_kbit: f64,
    membership_changes: f64,
    events_per_kb: f64,
}

/// Size of the packet-level cohort in a hybrid churn point: the probe plus
/// enough churners to keep the join/leave workload realistic.
const HYBRID_COHORT: usize = 50;

/// Runs one simulation: `n` receivers behind a 1 Mbit/s source bottleneck,
/// a fifth of them churning with randomized (seed-derived) periods.  A
/// `hybrid` point runs the probe and a churning 50-receiver cohort at packet
/// level while the remaining `n − 50` receivers are one fluid population,
/// so the axis extends to 10⁶ receivers with the same churn workload on the
/// simulated cohort.
fn run_churn_point(n: usize, hybrid: bool, seed: u64, duration: f64) -> ChurnOutcome {
    let cohort = if hybrid {
        HYBRID_COHORT.min(n.saturating_sub(1)).max(1)
    } else {
        n
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut legs: Vec<StarLeg> = (0..cohort)
        .map(|_| {
            StarLeg::clean(125_000.0, rng.gen_range(0.01..0.05))
                .with_queue(QueueDiscipline::drop_tail(30))
        })
        .collect();
    if hybrid {
        // The attachment leg of the fluid population.
        legs.push(StarLeg::clean(1_250_000.0, 0.01));
    }
    let cfg = StarConfig {
        sender_bandwidth: 125_000.0, // the 1 Mbit/s source bottleneck
        sender_delay: 0.002,
        sender_queue: QueueDiscipline::drop_tail(100),
    };
    let mut bed = Testbed::new(seed, &Topology::Star(cfg, legs));
    let nodes = &bed.layout.receivers;
    let mut populations: Vec<PopulationSpec> = nodes[..cohort]
        .iter()
        .enumerate()
        .map(|(i, &node)| {
            if i == 0 {
                // The persistent probe receiver.
                return PopulationSpec::packet(node);
            }
            let join_at = rng.gen_range(0.0..2.0);
            let spec = if i % CHURN_MODULUS == 1 {
                let on_secs = rng.gen_range(0.25..0.55) * duration.min(20.0);
                let off_secs = rng.gen_range(0.08..0.20) * duration.min(20.0);
                ReceiverSpec::joining_at(node, join_at).churning(on_secs, off_secs)
            } else {
                ReceiverSpec::joining_at(node, join_at)
            };
            PopulationSpec::Packet(spec)
        })
        .collect();
    if hybrid {
        populations.push(PopulationSpec::Fluid(FluidSpec::new(
            nodes[cohort],
            (n - cohort).max(1) as u64,
            Dist::Uniform {
                lo: 0.001,
                hi: 0.01,
            },
            Dist::Uniform { lo: 0.02, hi: 0.06 },
        )));
    }
    bed.wire([Flow::session(bed.layout.senders[0], populations)]);
    bed.run_until(duration);
    let (sim, session) = (&bed.sim, bed.session(0));

    let probe_rate = session.receiver_throughput(sim, 0, duration * 0.4, duration - 1.0);
    let total_bytes: f64 = (0..cohort)
        .map(|i| session.receiver_agent(sim, i).meter().total_bytes() as f64)
        .sum();
    let membership_changes = sim.stats().counter("multicast.agent_joins")
        + sim.stats().counter("multicast.agent_leaves");
    let events_per_kb = sim.events_processed() as f64 / (total_bytes / 1000.0).max(1.0);
    ChurnOutcome {
        receivers: n,
        probe_kbit: kbit(probe_rate),
        // The fluid tier has no per-receiver meters; the mean is over the
        // packet-level cohort.
        mean_kbit: kbit(total_bytes / duration / cohort as f64),
        membership_changes,
        events_per_kb,
    }
}

/// Figure 22: TFMCC goodput and simulator work under massive receiver
/// churn, as a function of the receiver-set size.
pub fn fig22_churn(runner: &SweepRunner, scale: Scale) -> Figure {
    let ns: Vec<usize> = scale.pick(vec![200, 600], vec![10_000, 100_000]);
    let duration = scale.pick(12.0, 60.0);
    let outcomes = runner.run(2222, &ns, |&n, seed| {
        run_churn_point(n, false, seed, duration)
    });

    let mut fig = Figure::new(
        "fig22",
        "TFMCC under massive receiver churn (1 in 5 receivers cycling)",
        "number of receivers",
        "goodput (kbit/s) / count",
    );
    fig.push_series(Series::new(
        "probe goodput (kbit/s)",
        outcomes
            .iter()
            .map(|o| (o.receivers as f64, o.probe_kbit))
            .collect(),
    ));
    fig.push_series(Series::new(
        "mean receiver goodput (kbit/s)",
        outcomes
            .iter()
            .map(|o| (o.receivers as f64, o.mean_kbit))
            .collect(),
    ));
    fig.push_series(Series::new(
        "membership changes",
        outcomes
            .iter()
            .map(|o| (o.receivers as f64, o.membership_changes))
            .collect(),
    ));
    fig.push_series(Series::new(
        "events per delivered kB",
        outcomes
            .iter()
            .map(|o| (o.receivers as f64, o.events_per_kb))
            .collect(),
    ));

    // The hybrid extension: a fluid bulk carries the axis to 10⁶ receivers
    // (quick: 10⁵) while the probe and a churning 50-receiver cohort stay
    // packet-level.
    let hybrid_ns: Vec<usize> = scale.pick(vec![100_000], vec![1_000_000]);
    let hybrid = runner.run(22_222, &hybrid_ns, |&n, seed| {
        run_churn_point(n, true, seed, duration)
    });
    fig.push_series(Series::new(
        "hybrid probe goodput (kbit/s)",
        hybrid
            .iter()
            .map(|o| (o.receivers as f64, o.probe_kbit))
            .collect(),
    ));
    fig.push_series(Series::new(
        "hybrid events per delivered kB",
        hybrid
            .iter()
            .map(|o| (o.receivers as f64, o.events_per_kb))
            .collect(),
    ));

    let first = &outcomes[0];
    let last = outcomes.last().unwrap();
    let hybrid_last = hybrid.last().unwrap();
    fig.note(format!(
        "probe goodput {:.0} kbit/s at n={} vs {:.0} kbit/s at n={} ({:.0}% retained) under {:.0} membership changes; {:.1} simulator events per delivered kB at the largest n; hybrid tier holds {:.0} kbit/s probe goodput at n={} with {:.1} events per kB",
        first.probe_kbit,
        first.receivers,
        last.probe_kbit,
        last.receivers,
        100.0 * last.probe_kbit / first.probe_kbit.max(1e-9),
        last.membership_changes,
        last.events_per_kb,
        hybrid_last.probe_kbit,
        hybrid_last.receivers,
        hybrid_last.events_per_kb,
    ));
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig22_probe_survives_churn() {
        let fig = fig22_churn(&SweepRunner::new(2), Scale::Quick);
        let probe = fig.series("probe goodput (kbit/s)").unwrap();
        // The persistent receiver must keep a usable share of the 1 Mbit/s
        // bottleneck even with a fifth of the set churning (rejoining
        // receivers restart in slowstart and repeatedly drag the session
        // rate down, so "usable" is well below the bottleneck).
        for &(n, kbit) in &probe.points {
            assert!(kbit > 20.0, "probe starved at n={n}: {kbit} kbit/s");
        }
        let changes = fig.series("membership changes").unwrap();
        for &(n, c) in &changes.points {
            // Every receiver joins once; churners add repeated leave/join
            // cycles on top.
            assert!(
                c > n * 1.2,
                "expected sustained churn at n={n}, saw only {c} membership changes"
            );
        }
    }

    #[test]
    fn fig22_hybrid_point_reaches_1e5_receivers() {
        let fig = fig22_churn(&SweepRunner::new(2), Scale::Quick);
        let hybrid = fig.series("hybrid probe goodput (kbit/s)").unwrap();
        let &(n, kbit) = hybrid.points.last().unwrap();
        assert_eq!(n, 100_000.0, "quick-scale hybrid point sits at 10⁵");
        assert!(kbit > 20.0, "hybrid probe starved: {kbit} kbit/s");
        // The fluid bulk must not cost per-receiver simulator work: the
        // hybrid point processes far fewer events per delivered kB than a
        // packet-level run of the same size would.
        let events = fig.series("hybrid events per delivered kB").unwrap();
        assert!(
            events.points.last().unwrap().1 < 1000.0,
            "hybrid event cost exploded: {:?}",
            events.points
        );
    }

    #[test]
    fn fig22_is_thread_count_invariant() {
        let serial = fig22_churn(&SweepRunner::new(1), Scale::Quick);
        let parallel = fig22_churn(&SweepRunner::new(4), Scale::Quick);
        assert_eq!(serial.to_json().render(), parallel.to_json().render());
    }
}
