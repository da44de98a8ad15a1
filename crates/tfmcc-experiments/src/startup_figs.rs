//! Figures 12, 14, 15 and 16: initial RTT measurements, slowstart behaviour
//! and the late join of a low-rate receiver.
//!
//! Figure 14 is a (traffic mix × receiver count) grid of independent
//! slowstart trials and shards across the sweep executor; the other three
//! are single simulations run as one-point sweeps with their historical
//! seeds.

use std::ops::ControlFlow;

use netsim::prelude::*;
use tfmcc_agents::population::PopulationSpec;
use tfmcc_agents::session::ReceiverSpec;
use tfmcc_runner::{Sweep, SweepRunner};

use crate::output::{Figure, Series};
use crate::scale::Scale;
use crate::sweeps::run_single_sim;
use crate::testbed::{kbit, tcp_per_receiver, Flow, Testbed, Topology};

/// The sender side of the startup stars: a `bandwidth` (bytes/s), 20 ms
/// bottleneck with a `queue`-packet drop-tail queue into the hub.
fn bottleneck(bandwidth: f64, queue: usize) -> StarConfig {
    StarConfig {
        sender_bandwidth: bandwidth,
        sender_delay: 0.02,
        sender_queue: QueueDiscipline::drop_tail(queue),
    }
}

/// Figure 12: number of receivers with a valid RTT estimate over time, for a
/// large receiver set behind one bottleneck (correlated loss, worst case).
pub fn fig12_rtt_measurements(runner: &SweepRunner, scale: Scale) -> Figure {
    run_single_sim(runner, "fig12", || {
        let n = scale.pick(40, 400);
        let duration = scale.pick(80.0, 200.0);
        // One shared 8 Mbit/s bottleneck into a hub, then clean per-receiver
        // legs with RTTs between 60 and 140 ms.
        let legs: Vec<StarLeg> = (0..n)
            .map(|i| {
                let delay = 0.01 + 0.04 * (i as f64 / n as f64);
                StarLeg::clean(12_500_000.0, delay).with_queue(QueueDiscipline::drop_tail(200))
            })
            .collect();
        let mut bed = Testbed::new(912, &Topology::Star(bottleneck(1_000_000.0, 125), legs));
        let populations = bed
            .layout
            .receivers
            .iter()
            .map(|&r| PopulationSpec::packet(r))
            .collect();
        bed.wire([Flow::session(bed.layout.senders[0], populations)]);

        let with_rtt = |bed: &Testbed| {
            let session = bed.session(0);
            (0..n)
                .filter(|&i| {
                    session
                        .receiver_agent(&bed.sim, i)
                        .protocol()
                        .has_rtt_measurement()
                })
                .count() as f64
        };
        bed.run_until(0.0);
        let mut points = vec![(0.0, with_rtt(&bed))];
        bed.sample(0.0, duration / 40.0, duration, |bed, t| {
            points.push((t, with_rtt(bed)));
            ControlFlow::<()>::Continue(())
        });
        let mut fig = Figure::new(
            "fig12",
            "Rate of initial RTT measurements",
            "time (s)",
            "receivers with valid RTT",
        );
        let final_count = points.last().map(|&(_, y)| y).unwrap_or(0.0);
        fig.push_series(Series::new("receivers with valid RTT", points));
        fig.note(format!(
            "{final_count:.0} of {n} receivers obtained an RTT measurement after {duration:.0} s; the count grows by roughly the number of feedback messages per round (paper Figure 12)"
        ));
        fig
    })
}

/// Figure 14: maximum rate reached during slowstart versus the receiver-set
/// size, for an empty link, one competing TCP flow and high statistical
/// multiplexing.
pub fn fig14_slowstart(runner: &SweepRunner, scale: Scale) -> Figure {
    let counts: Vec<usize> = scale.pick(vec![2, 8, 32], vec![2, 8, 32, 128, 512]);
    let mut fig = Figure::new(
        "fig14",
        "Maximum slowstart rate",
        "number of receivers",
        "max slowstart rate (kbit/s)",
    );
    let mixes = [
        ("only TFMCC", 0usize),
        ("one competing TCP", 1),
        ("high stat. mux.", 4),
    ];
    // Each (traffic mix, receiver count) pair is one independent slowstart
    // trial.  Trials keep the historical seed formula (a deterministic
    // function of the point's parameters), so results match the
    // single-threaded harness exactly.
    let points: Vec<(usize, usize)> = mixes
        .iter()
        .flat_map(|&(_, tcp_flows)| counts.iter().map(move |&n| (tcp_flows, n)))
        .collect();
    let sweep = Sweep::new("fig14", 914, points);
    let peaks = runner.run(&sweep, |pt| {
        let (tcp_flows, n) = *pt.value;
        max_slowstart_rate(n, tcp_flows, scale)
    });
    for (m, chunk) in mixes.iter().zip(peaks.chunks(counts.len())) {
        let points: Vec<(f64, f64)> = counts
            .iter()
            .zip(chunk)
            .map(|(&n, &peak)| (n as f64, peak))
            .collect();
        fig.push_series(Series::new(m.0, points));
    }
    fig.note(
        "fair rate is 1 Mbit/s; alone TFMCC overshoots to about twice the bottleneck, while competition and larger receiver sets lower the slowstart peak (paper Figure 14)"
            .to_string(),
    );
    fig
}

/// Runs one slowstart trial and returns the peak sending rate (kbit/s)
/// observed while the sender is still in slowstart.
fn max_slowstart_rate(receivers: usize, tcp_flows: usize, scale: Scale) -> f64 {
    let duration = scale.pick(60.0, 90.0);
    // 1 Mbit/s fair share: bottleneck of 1 Mbit/s * (1 + tcp_flows).
    let legs: Vec<StarLeg> = (0..receivers.max(tcp_flows))
        .map(|_| StarLeg::clean(12_500_000.0, 0.005).with_queue(QueueDiscipline::drop_tail(200)))
        .collect();
    let mut bed = Testbed::new(
        914 + receivers as u64 + tcp_flows as u64 * 17,
        &Topology::Star(bottleneck(125_000.0 * (1 + tcp_flows) as f64, 50), legs),
    );
    let (src, nodes) = (bed.layout.senders[0], &bed.layout.receivers);
    let populations = (0..receivers)
        .map(|i| PopulationSpec::packet(nodes[i % nodes.len()]))
        .collect();
    // The star has a leg per TCP flow, so TCP flow i ends at receiver i.
    let mut flows = vec![Flow::session(src, populations)];
    flows.extend(tcp_per_receiver(src, &nodes[..tcp_flows], 7000, 1.0));
    bed.wire(flows);
    // Sample the sending rate while in slowstart.
    let mut peak: f64 = 0.0;
    bed.sample(0.0, 0.5, duration, |bed, _| {
        let sender = bed.session(0).sender_agent(&bed.sim).protocol();
        if sender.in_slowstart() {
            peak = peak.max(sender.current_rate());
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        }
    });
    kbit(peak)
}

/// Figures 15/16: late join of a receiver behind a 200 kbit/s tail circuit
/// while TFMCC and seven TCP flows share an 8 Mbit/s bottleneck.  With
/// `tcp_on_slow_link` an additional TCP flow uses the slow tail (Figure 16).
fn late_join(id: &str, title: &str, tcp_on_slow_link: bool, scale: Scale) -> Figure {
    let join_at = scale.pick(40.0, 50.0);
    let leave_at = scale.pick(80.0, 100.0);
    let duration = scale.pick(110.0, 140.0);
    let tcp_flows = 7;
    // Fast receivers behind the shared bottleneck, then the slow receiver
    // behind a 200 kbit/s tail.
    let mut legs: Vec<StarLeg> = (0..=tcp_flows)
        .map(|_| StarLeg::clean(12_500_000.0, 0.005).with_queue(QueueDiscipline::drop_tail(200)))
        .collect();
    legs.push(StarLeg::clean(25_000.0, 0.01).with_queue(QueueDiscipline::drop_tail(12)));
    let mut bed = Testbed::new(915, &Topology::Star(bottleneck(1_000_000.0, 125), legs));
    let (src, nodes) = (bed.layout.senders[0], &bed.layout.receivers);
    let (fast_nodes, slow) = (&nodes[..=tcp_flows], nodes[tcp_flows + 1]);
    let specs = vec![
        ReceiverSpec::always(fast_nodes[0]),
        ReceiverSpec::joining_at(slow, join_at).leaving_at(leave_at),
    ];
    let mut flows = vec![Flow::session(src, PopulationSpec::packets(&specs))];
    flows.extend(tcp_per_receiver(src, &fast_nodes[1..], 8000, 2.0));
    if tcp_on_slow_link {
        let (from, to) = (Address::new(src, Port(150)), Address::new(slow, Port(2)));
        flows.push(Flow::tcp(from, to, FlowId(8100), 2.0));
    }
    bed.wire(flows);
    bed.run_until(duration);

    let mut fig = Figure::new(id, title, "time (s)", "throughput (kbit/s)");
    fig.push_series(Series::new("TFMCC flow", bed.series(0)));
    // Aggregate TCP throughput on the shared bottleneck.
    fig.push_series(Series::new(
        "aggregated TCP flows",
        bed.aggregate(1..=tcp_flows),
    ));
    if tcp_on_slow_link {
        fig.push_series(Series::new(
            "TCP on 200 kbit/s link",
            bed.series(tcp_flows + 1),
        ));
    }
    let before = bed.mean_kbit(0, join_at * 0.5, join_at - 2.0);
    let during = bed.mean_kbit(0, join_at + 10.0, leave_at - 2.0);
    let after = bed.mean_kbit(0, leave_at + 15.0, duration - 2.0);
    let clr_changes = bed
        .session(0)
        .sender_agent(&bed.sim)
        .protocol()
        .stats()
        .clr_changes;
    fig.note(format!(
        "TFMCC rate before join {before:.0} kbit/s, while the 200 kbit/s receiver is subscribed {during:.0} kbit/s, after it leaves {after:.0} kbit/s; CLR changes: {clr_changes} (paper: rate drops to the tail bandwidth within a few seconds and recovers afterwards)"
    ));
    fig
}

/// Figure 15: late join of a low-rate receiver.
pub fn fig15_late_join(runner: &SweepRunner, scale: Scale) -> Figure {
    run_single_sim(runner, "fig15", || {
        late_join("fig15", "Late join of a low-rate receiver", false, scale)
    })
}

/// Figure 16: late join of a low-rate receiver with an additional TCP flow on
/// the slow link.
pub fn fig16_late_join_tcp(runner: &SweepRunner, scale: Scale) -> Figure {
    run_single_sim(runner, "fig16", || {
        late_join(
            "fig16",
            "Late join of a low-rate receiver with an additional TCP flow on the slow link",
            true,
            scale,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_rtt_measurement_count_is_monotone_and_positive() {
        let fig = fig12_rtt_measurements(&SweepRunner::serial(), Scale::Quick);
        let series = &fig.series[0];
        let mut last = -1.0;
        for &(_, y) in &series.points {
            assert!(y + 1e-9 >= last, "count must not decrease");
            last = y;
        }
        assert!(
            series.last_y().unwrap() >= 1.0,
            "someone must measure an RTT"
        );
    }

    #[test]
    fn fig15_slow_receiver_pulls_rate_down_then_recovers() {
        let fig = fig15_late_join(&SweepRunner::serial(), Scale::Quick);
        let summary = fig.summary.join(" ");
        let tfmcc = fig.series("TFMCC flow").unwrap();
        let before: Vec<f64> = tfmcc
            .points
            .iter()
            .filter(|&&(t, _)| (20.0..38.0).contains(&t))
            .map(|&(_, y)| y)
            .collect();
        let during: Vec<f64> = tfmcc
            .points
            .iter()
            .filter(|&&(t, _)| (55.0..78.0).contains(&t))
            .map(|&(_, y)| y)
            .collect();
        let after: Vec<f64> = tfmcc
            .points
            .iter()
            .filter(|&&(t, _)| t > 95.0)
            .map(|&(_, y)| y)
            .collect();
        let before_mean = before.iter().sum::<f64>() / before.len().max(1) as f64;
        let during_mean = during.iter().sum::<f64>() / during.len().max(1) as f64;
        let after_mean = after.iter().sum::<f64>() / after.len().max(1) as f64;
        // While the 200 kbit/s receiver is subscribed the rate must be capped
        // near its tail bandwidth, and it must recover after the leave.
        assert!(
            during_mean < 280.0,
            "rate must be capped by the 200 kbit/s tail while it is subscribed: during {during_mean:.0} kbit/s (before {before_mean:.0}); {summary}"
        );
        assert!(
            after_mean > during_mean,
            "rate must recover after the slow receiver leaves: during {during_mean:.0}, after {after_mean:.0}; {summary}"
        );
    }

    #[test]
    fn fig14_slowstart_peak_is_bounded_by_twice_bottleneck_when_alone() {
        let fig = fig14_slowstart(&SweepRunner::new(2), Scale::Quick);
        let alone = fig.series("only TFMCC").unwrap();
        for &(n, peak) in &alone.points {
            assert!(
                peak <= 2_600.0,
                "slowstart with {n} receivers overshot to {peak} kbit/s (limit is ~2x the 1 Mbit/s bottleneck)"
            );
        }
    }
}
