//! Figures 9, 10, 18 and 19: fairness towards TCP and robustness of the
//! feedback path.
//!
//! Each of these figures is one large simulation (TFMCC and TCP flows share
//! topology and queues, so the scenario cannot be sharded); they run as
//! one-point sweeps so the executor times them and can overlap them with
//! other work.  The scenarios keep their historical fixed seeds.

use netsim::prelude::*;
use tfmcc_agents::population::PopulationSpec;
use tfmcc_runner::SweepRunner;

use crate::output::{Figure, Series};
use crate::scale::Scale;
use crate::sweeps::run_single_sim;
use crate::testbed::{kbit, tcp_per_receiver, Flow, Testbed, Topology};

/// Figure 9: one TFMCC flow and `tcp_flows` TCP flows over a single 8 Mbit/s
/// bottleneck.
pub fn fig09_single_bottleneck(runner: &SweepRunner, scale: Scale) -> Figure {
    run_single_sim(runner, "fig09", || {
        let tcp_flows = 15;
        let duration = scale.pick(120.0, 200.0);
        let mut bed = Testbed::new(
            909,
            &Topology::Dumbbell(DumbbellConfig {
                pairs: tcp_flows + 1,
                bottleneck_bandwidth: 1_000_000.0, // 8 Mbit/s
                bottleneck_delay: 0.02,
                bottleneck_queue: QueueDiscipline::drop_tail(125),
                ..DumbbellConfig::default()
            }),
        );
        let (senders, receivers) = (&bed.layout.senders, &bed.layout.receivers);
        let mut flows = vec![Flow::session(
            senders[0],
            vec![PopulationSpec::packet(receivers[0])],
        )];
        for i in 1..=tcp_flows {
            let src = Address::new(senders[i], Port(1));
            let dst = Address::new(receivers[i], Port(1));
            flows.push(Flow::tcp(src, dst, FlowId(1000 + i as u64), 1.0));
        }
        bed.wire(flows);
        bed.run_until(duration);

        let mut fig = Figure::new(
            "fig09",
            "One TFMCC flow and 15 TCP flows over a single 8 Mbit/s bottleneck",
            "time (s)",
            "throughput (kbit/s)",
        );
        fig.push_series(Series::new("TFMCC", bed.series(0)));
        for i in 1..=2 {
            fig.push_series(Series::new(format!("TCP {i}"), bed.series(i)));
        }
        let warm = duration * 0.3;
        let tfmcc_avg = bed.meter(0).average_between(warm, duration - 5.0);
        let tcp_avg: f64 = (1..=tcp_flows)
            .map(|i| bed.meter(i).average_between(warm, duration - 5.0))
            .sum::<f64>()
            / tcp_flows as f64;
        let tfmcc_cov = bed.meter(0).coefficient_of_variation(warm, duration - 5.0);
        let tcp_cov = bed.meter(1).coefficient_of_variation(warm, duration - 5.0);
        fig.note(format!(
            "steady state: TFMCC {:.0} kbit/s vs mean TCP {:.0} kbit/s (ratio {:.2}); smoothness CoV TFMCC {:.2} vs TCP {:.2} (paper: comparable averages, smoother TFMCC)",
            kbit(tfmcc_avg),
            kbit(tcp_avg),
            tfmcc_avg / tcp_avg.max(1.0),
            tfmcc_cov,
            tcp_cov
        ));
        fig
    })
}

/// The session over every receiver of a star plus one forward TCP flow per
/// leg ([`tcp_per_receiver`]), as Figures 10, 18 and 19 run them.
fn session_and_forward_tcp(bed: &Testbed, flow_base: u64) -> Vec<Flow> {
    let (sender, receivers) = (bed.layout.senders[0], &bed.layout.receivers);
    let populations = receivers
        .iter()
        .map(|&n| PopulationSpec::packet(n))
        .collect();
    let mut flows = vec![Flow::session(sender, populations)];
    flows.extend(tcp_per_receiver(sender, receivers, flow_base, 1.0));
    flows
}

/// Figure 10: one TFMCC group and 16 TCP flows on sixteen individual
/// 1 Mbit/s tail circuits.
pub fn fig10_tail_circuits(runner: &SweepRunner, scale: Scale) -> Figure {
    run_single_sim(runner, "fig10", || {
        let tails = scale.pick(6, 16);
        let duration = scale.pick(120.0, 200.0);
        // Star of 1 Mbit/s legs; a TCP flow competes with TFMCC on every leg.
        let legs: Vec<StarLeg> = (0..tails)
            .map(|_| StarLeg::clean(125_000.0, 0.02).with_queue(QueueDiscipline::drop_tail(30)))
            .collect();
        let mut bed = Testbed::new(910, &Topology::Star(StarConfig::default(), legs));
        let flows = session_and_forward_tcp(&bed, 2000);
        bed.wire(flows);
        bed.run_until(duration);

        let mut fig = Figure::new(
            "fig10",
            "1 TFMCC flow and 16 TCP flows (individual 1 Mbit/s bottlenecks)",
            "time (s)",
            "throughput (kbit/s)",
        );
        fig.push_series(Series::new("TFMCC", bed.series(0)));
        for i in 1..=2 {
            fig.push_series(Series::new(format!("TCP {i}"), bed.series(i)));
        }
        let warm = duration * 0.3;
        let tfmcc_avg = bed.meter(0).average_between(warm, duration - 5.0);
        let tcp_avg: f64 = (1..=tails)
            .map(|i| bed.meter(i).average_between(warm, duration - 5.0))
            .sum::<f64>()
            / tails as f64;
        fig.note(format!(
            "TFMCC achieves {:.0} kbit/s vs mean TCP {:.0} kbit/s = {:.0}% (paper: about 70% because TFMCC tracks the minimum over independent tails)",
            kbit(tfmcc_avg),
            kbit(tcp_avg),
            100.0 * tfmcc_avg / tcp_avg.max(1.0)
        ));
        fig
    })
}

/// Shared scenario of Figures 18/19: a TFMCC group with four receivers and a
/// competing TCP flow to each, with configurable reverse-path interference.
fn return_path_scenario(
    id: &str,
    title: &str,
    reverse_tcp_flows: &[usize],
    reverse_loss: &[f64],
    scale: Scale,
) -> Figure {
    let duration = scale.pick(80.0, 120.0);
    let legs: Vec<StarLeg> = (0..4)
        .map(|i| {
            let mut leg =
                StarLeg::clean(250_000.0, 0.02).with_queue(QueueDiscipline::drop_tail(40));
            if let Some(&p) = reverse_loss.get(i) {
                if p > 0.0 {
                    leg = leg.with_upstream_loss(p);
                }
            }
            leg
        })
        .collect();
    let mut bed = Testbed::new(918, &Topology::Star(StarConfig::default(), legs));
    // A forward TCP flow to each receiver provides the competing traffic.
    let mut flows = session_and_forward_tcp(&bed, 3000);
    // Reverse-path TCP flows (receiver -> sender) loading the feedback path.
    for (i, &count) in reverse_tcp_flows.iter().enumerate() {
        for k in 0..count {
            let src = Address::new(bed.layout.receivers[i], Port(200 + k as u16));
            let dst = Address::new(bed.layout.senders[0], Port(200 + (i * 8 + k) as u16));
            flows.push(Flow::tcp(src, dst, FlowId(4000 + (i * 8 + k) as u64), 1.0));
        }
    }
    bed.wire(flows);
    bed.run_until(duration);

    let mut fig = Figure::new(id, title, "time (s)", "throughput (kbit/s)");
    fig.push_series(Series::new("TFMCC", bed.series(0)));
    for i in 0..bed.layout.receivers.len() {
        fig.push_series(Series::new(format!("TCP ({i})"), bed.series(1 + i)));
    }
    let warm = duration * 0.4;
    fig.note(format!(
        "TFMCC steady-state rate {:.0} kbit/s (paper: unaffected by return-path interference because single reports, unlike TCP ACK streams, are expendable)",
        bed.mean_kbit(0, warm, duration - 5.0)
    ));
    fig
}

/// Figure 18: competing TCP traffic on the return (feedback) paths.
pub fn fig18_return_path_traffic(runner: &SweepRunner, scale: Scale) -> Figure {
    run_single_sim(runner, "fig18", || {
        return_path_scenario(
            "fig18",
            "Competing traffic on return paths (0/1/2/4 TCP flows)",
            &[0, 1, 2, 4],
            &[],
            scale,
        )
    })
}

/// Figure 19: lossy return paths (0/10/20/30 % feedback loss).
pub fn fig19_lossy_return_paths(runner: &SweepRunner, scale: Scale) -> Figure {
    run_single_sim(runner, "fig19", || {
        return_path_scenario(
            "fig19",
            "Lossy return paths (0/10/20/30 % loss)",
            &[],
            &[0.0, 0.1, 0.2, 0.3],
            scale,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig09_tfmcc_is_comparable_to_tcp_and_smoother() {
        let fig = fig09_single_bottleneck(&SweepRunner::serial(), Scale::Quick);
        let summary = fig.summary.join(" ");
        // Extract the ratio from the note via the series instead: TFMCC mean
        // must be within a factor ~4 of the bottleneck fair share (500 kbit/s
        // for 16 flows on 8 Mbit/s).
        let tfmcc = fig.series("TFMCC").unwrap();
        let steady: Vec<f64> = tfmcc
            .points
            .iter()
            .filter(|&&(t, _)| t > 40.0)
            .map(|&(_, y)| y)
            .collect();
        let mean = steady.iter().sum::<f64>() / steady.len().max(1) as f64;
        // The paper reports near-equal shares (~500 kbit/s).  Our TCP Reno /
        // drop-tail substrate penalises the smooth, paced TFMCC flow harder
        // than ns-2 did, so the check is that TFMCC holds a meaningful share
        // (documented in EXPERIMENTS.md) rather than exact parity.
        assert!(
            (60.0..=2500.0).contains(&mean),
            "TFMCC steady-state {mean} kbit/s out of plausible range; {summary}"
        );
    }

    #[test]
    fn fig19_feedback_loss_does_not_starve_tfmcc() {
        let fig = fig19_lossy_return_paths(&SweepRunner::serial(), Scale::Quick);
        let tfmcc = fig.series("TFMCC").unwrap();
        let late: Vec<f64> = tfmcc
            .points
            .iter()
            .filter(|&&(t, _)| t > 40.0)
            .map(|&(_, y)| y)
            .collect();
        let mean = late.iter().sum::<f64>() / late.len().max(1) as f64;
        assert!(
            mean > 50.0,
            "TFMCC must keep sending despite feedback loss, got {mean} kbit/s"
        );
    }
}
