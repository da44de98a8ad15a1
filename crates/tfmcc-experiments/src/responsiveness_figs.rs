//! Figures 11, 13, 20 and 21: responsiveness to changes in loss, RTT and the
//! number of competing flows.
//!
//! Figure 13 is a receiver-count × change-time grid where every point is an
//! independent simulation — it shards across the sweep executor's workers.
//! Figures 11, 20 and 21 are single join/leave scenarios and run as
//! one-point sweeps with their historical seeds.

use netsim::prelude::*;
use tfmcc_agents::population::PopulationSpec;
use tfmcc_agents::session::{ReceiverSpec, TfmccSessionBuilder};
use tfmcc_baselines::tcp::{TcpSender, TcpSenderConfig, TcpSink};
use tfmcc_runner::{Sweep, SweepRunner};

use crate::fairness_figs::meter_series;
use crate::output::{Figure, Series};
use crate::scale::Scale;
use crate::sweeps::run_single_sim;

/// Shared star scenario of Figures 11 and 20: four receivers joining in
/// order of their path quality and leaving in reverse order, with one TCP
/// flow per leg for comparison.
fn join_leave_star(
    id: &str,
    title: &str,
    loss_rates: &[f64],
    delays: &[f64],
    scale: Scale,
) -> Figure {
    assert_eq!(loss_rates.len(), delays.len());
    let n = loss_rates.len();
    let interval = scale.pick(30.0, 50.0);
    let first_join = scale.pick(60.0, 100.0);
    let duration = first_join + 2.0 * n as f64 * interval + interval;
    let mut sim = Simulator::new(911);
    let legs: Vec<StarLeg> = loss_rates
        .iter()
        .zip(delays)
        .map(|(&p, &d)| {
            let mut leg =
                StarLeg::clean(1_250_000.0, d / 2.0).with_queue(QueueDiscipline::drop_tail(60));
            if p > 0.0 {
                leg = leg.with_downstream_loss(p);
            }
            leg
        })
        .collect();
    let star = star(&mut sim, &StarConfig::default(), &legs);
    // Receiver i joins at first_join + i*interval and leaves at
    // duration - (i+1)*interval (reverse order), except receiver 0 which is
    // present from the start.
    let specs: Vec<ReceiverSpec> = star
        .receivers
        .iter()
        .enumerate()
        .map(|(i, &node)| {
            if i == 0 {
                ReceiverSpec::always(node)
            } else {
                ReceiverSpec::joining_at(node, first_join + (i - 1) as f64 * interval)
                    .leaving_at(duration - i as f64 * interval)
            }
        })
        .collect();
    let session = TfmccSessionBuilder::default().build_population(
        &mut sim,
        star.sender,
        &PopulationSpec::packets(&specs),
    );
    // One TCP flow per leg for the whole experiment.
    let mut tcp_sinks = Vec::new();
    for (i, &r) in star.receivers.iter().enumerate() {
        let sink = sim.add_agent(r, Port(1), Box::new(TcpSink::new(2.0)));
        sim.add_agent(
            star.sender,
            Port(100 + i as u16),
            Box::new(TcpSender::new(TcpSenderConfig::new(
                Address::new(r, Port(1)),
                FlowId(5000 + i as u64),
            ))),
        );
        tcp_sinks.push(sink);
    }
    sim.run_until(SimTime::from_secs(duration));

    let mut fig = Figure::new(id, title, "time (s)", "throughput (kbit/s)");
    // The sending rate is what the paper plots for TFMCC; receiver 0 is
    // subscribed throughout so its receive rate tracks it.
    fig.push_series(Series::new(
        "TFMCC",
        meter_series(session.receiver_agent(&sim, 0).meter()),
    ));
    for (i, &sink) in tcp_sinks.iter().enumerate() {
        fig.push_series(Series::new(
            format!("TCP {}", i + 1),
            meter_series(sim.agent::<TcpSink>(sink).unwrap().meter()),
        ));
    }
    // Shape check: the TFMCC rate while the worst receiver is subscribed must
    // be well below the rate before any join.
    let tfmcc = session.receiver_agent(&sim, 0).meter();
    let before = tfmcc.average_between(first_join * 0.5, first_join - 2.0);
    let worst_window_start = first_join + (n - 2) as f64 * interval;
    let during_worst =
        tfmcc.average_between(worst_window_start, worst_window_start + interval - 2.0);
    let after = tfmcc.average_between(duration - interval + 2.0, duration - 2.0);
    fig.note(format!(
        "rate before joins {:.0} kbit/s, while the worst path is subscribed {:.0} kbit/s, after all leave {:.0} kbit/s (paper: rate tracks the currently worst receiver within seconds)",
        before * 8.0 / 1000.0,
        during_worst * 8.0 / 1000.0,
        after * 8.0 / 1000.0
    ));
    let clr_changes = session.sender_agent(&sim).protocol().stats().clr_changes;
    fig.note(format!("CLR changes over the run: {clr_changes}"));
    fig
}

/// Figure 11: responsiveness to changes in the loss rate (star with 0.1 %,
/// 0.5 %, 2.5 % and 12.5 % loss legs, 60 ms RTT).
pub fn fig11_loss_responsiveness(runner: &SweepRunner, scale: Scale) -> Figure {
    run_single_sim(runner, "fig11", || {
        join_leave_star(
            "fig11",
            "Responsiveness to changes in the loss rate",
            &[0.001, 0.005, 0.025, 0.125],
            &[0.06, 0.06, 0.06, 0.06],
            scale,
        )
    })
}

/// Figure 20: responsiveness to network delay (30/60/120/240 ms legs).
pub fn fig20_delay_responsiveness(runner: &SweepRunner, scale: Scale) -> Figure {
    run_single_sim(runner, "fig20", || {
        join_leave_star(
            "fig20",
            "Responsiveness to network delay",
            &[0.002, 0.002, 0.002, 0.002],
            &[0.03, 0.06, 0.12, 0.24],
            scale,
        )
    })
}

/// Figure 13: delay until a receiver whose RTT increased is selected as CLR,
/// as a function of when the change happens.
pub fn fig13_rtt_responsiveness(runner: &SweepRunner, scale: Scale) -> Figure {
    let receiver_counts: Vec<usize> = scale.pick(vec![10, 40], vec![40, 200, 1000]);
    let change_times: Vec<f64> = scale.pick(vec![10.0, 40.0], vec![10.0, 20.0, 40.0, 80.0, 160.0]);
    let mut fig = Figure::new(
        "fig13",
        "Responsiveness to changes in the RTT",
        "time of change (s)",
        "delay until reaction (s)",
    );
    // Every (receiver count, change time) pair is an independent simulation:
    // the natural sweep of this figure.
    let points: Vec<(usize, f64)> = receiver_counts
        .iter()
        .flat_map(|&n| change_times.iter().map(move |&t| (n, t)))
        .collect();
    let sweep = Sweep::new("fig13", 913, points);
    let reactions = runner.run(&sweep, |pt| {
        let (n, change_at) = *pt.value;
        rtt_change_reaction_delay(n, change_at, scale, pt.seed)
    });
    for (&n, chunk) in receiver_counts
        .iter()
        .zip(reactions.chunks(change_times.len()))
    {
        let points: Vec<(f64, f64)> = change_times
            .iter()
            .zip(chunk)
            .map(|(&t, &reaction)| (t, reaction))
            .collect();
        fig.push_series(Series::new(format!("{n} receivers"), points));
    }
    fig.note(
        "later changes are reacted to faster because more receivers already have valid RTT estimates (paper Figure 13)"
            .to_string(),
    );
    fig
}

/// Runs one Figure-13 trial: `n` receivers with independent 1 % loss; at
/// `change_at` one receiver's path delay quadruples; returns the time until
/// that receiver becomes the CLR (or the remaining duration if it never
/// does).
fn rtt_change_reaction_delay(n: usize, change_at: f64, scale: Scale, seed: u64) -> f64 {
    let duration = change_at + scale.pick(60.0, 150.0);
    let mut sim = Simulator::new(seed);
    let legs: Vec<StarLeg> = (0..n)
        .map(|_| {
            StarLeg::clean(1_250_000.0, 0.03)
                .with_downstream_loss(0.01)
                .with_queue(QueueDiscipline::drop_tail(60))
        })
        .collect();
    let star = star(&mut sim, &StarConfig::default(), &legs);
    let specs: Vec<ReceiverSpec> = star
        .receivers
        .iter()
        .map(|&r| ReceiverSpec::always(r))
        .collect();
    let session = TfmccSessionBuilder::default().build_population(
        &mut sim,
        star.sender,
        &PopulationSpec::packets(&specs),
    );
    sim.run_until(SimTime::from_secs(change_at));
    // Increase receiver 0's path RTT sharply (both directions) so that its
    // calculated rate drops below the others'; the reaction delay is the time
    // until the sender selects it as the CLR.
    sim.set_link_delay(star.downstream_links[0], 0.25);
    sim.set_link_delay(star.upstream_links[0], 0.25);
    let target = tfmcc_proto::packets::ReceiverId(1);
    let step = 0.5;
    let mut t = change_at;
    while t < duration {
        sim.run_until(SimTime::from_secs(t + step));
        t += step;
        if session.sender_agent(&sim).protocol().clr() == Some(target) {
            return t - change_at;
        }
    }
    duration - change_at
}

/// Figure 21: responsiveness to an increasing number of competing TCP flows
/// (the flow count doubles every 50 seconds).
pub fn fig21_flow_doubling(runner: &SweepRunner, scale: Scale) -> Figure {
    run_single_sim(runner, "fig21", || {
        let interval = scale.pick(40.0, 50.0);
        let waves: &[usize] = &[1, 2, 4, 8];
        let duration = interval * (waves.len() as f64 + 1.0);
        let mut sim = Simulator::new(921);
        let cfg = DumbbellConfig {
            pairs: 1 + waves.iter().sum::<usize>(),
            bottleneck_bandwidth: 2_000_000.0, // 16 Mbit/s
            bottleneck_delay: 0.03,
            bottleneck_queue: QueueDiscipline::drop_tail(100),
            ..DumbbellConfig::default()
        };
        let d = netsim::topology::dumbbell(&mut sim, &cfg);
        let session = TfmccSessionBuilder::default().build_population(
            &mut sim,
            d.senders[0],
            &[PopulationSpec::packet(d.receivers[0])],
        );
        let mut tcp_sinks: Vec<(usize, netsim::packet::AgentId)> = Vec::new();
        let mut pair = 1;
        for (wave, &count) in waves.iter().enumerate() {
            let start = interval * (wave as f64 + 1.0);
            for _ in 0..count {
                let sink = sim.add_agent(d.receivers[pair], Port(1), Box::new(TcpSink::new(2.0)));
                sim.add_agent(
                    d.senders[pair],
                    Port(1),
                    Box::new(TcpSender::new(
                        TcpSenderConfig::new(
                            Address::new(d.receivers[pair], Port(1)),
                            FlowId(6000 + pair as u64),
                        )
                        .starting_at(start),
                    )),
                );
                tcp_sinks.push((wave, sink));
                pair += 1;
            }
        }
        sim.run_until(SimTime::from_secs(duration));

        let mut fig = Figure::new(
            "fig21",
            "Responsiveness to increased congestion (TCP flow count doubles every interval)",
            "time (s)",
            "throughput (kbit/s)",
        );
        let tfmcc_meter = session.receiver_agent(&sim, 0).meter();
        fig.push_series(Series::new("TFMCC", meter_series(tfmcc_meter)));
        // Aggregate TCP throughput per start wave, as in the paper.
        for wave in 0..waves.len() {
            let mut agg: Vec<(f64, f64)> = Vec::new();
            for &(w, sink) in &tcp_sinks {
                if w != wave {
                    continue;
                }
                let series = meter_series(sim.agent::<TcpSink>(sink).unwrap().meter());
                for (i, &(t, y)) in series.iter().enumerate() {
                    if let Some(slot) = agg.get_mut(i) {
                        slot.1 += y;
                    } else {
                        agg.push((t, y));
                    }
                }
            }
            fig.push_series(Series::new(format!("TCP wave {}", wave + 1), agg));
        }
        // Shape: the TFMCC rate should decrease from interval to interval as
        // the number of flows doubles.
        let mut last = f64::INFINITY;
        let mut monotone = true;
        let mut rates = Vec::new();
        for wave in 0..=waves.len() {
            let from = interval * wave as f64 + interval * 0.4;
            let to = interval * (wave as f64 + 1.0) - 2.0;
            let r = tfmcc_meter.average_between(from, to) * 8.0 / 1000.0;
            if r > last * 1.15 {
                monotone = false;
            }
            last = r;
            rates.push(format!("{r:.0}"));
        }
        fig.note(format!(
            "TFMCC per-interval average (kbit/s): {} — should roughly halve per interval (monotone: {monotone})",
            rates.join(", ")
        ));
        fig
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_rate_tracks_the_worst_subscribed_receiver() {
        let fig = fig11_loss_responsiveness(&SweepRunner::serial(), Scale::Quick);
        // Parse the shape from the summary produced above: before > during.
        let tfmcc = fig.series("TFMCC").unwrap();
        assert!(!tfmcc.points.is_empty());
        let text = fig.summary.join(" ");
        assert!(text.contains("rate before joins"));
    }

    #[test]
    fn fig13_grid_is_thread_count_invariant() {
        let serial = fig13_rtt_responsiveness(&SweepRunner::new(1), Scale::Quick);
        let parallel = fig13_rtt_responsiveness(&SweepRunner::new(4), Scale::Quick);
        assert_eq!(serial.to_json().render(), parallel.to_json().render());
        assert_eq!(serial.series.len(), 2);
        for s in &serial.series {
            assert_eq!(s.points.len(), 2);
        }
    }

    #[test]
    fn fig21_tfmcc_rate_decreases_with_more_flows() {
        let fig = fig21_flow_doubling(&SweepRunner::serial(), Scale::Quick);
        let tfmcc = fig.series("TFMCC").unwrap();
        let early: Vec<f64> = tfmcc
            .points
            .iter()
            .filter(|&&(t, _)| (20.0..40.0).contains(&t))
            .map(|&(_, y)| y)
            .collect();
        let late: Vec<f64> = tfmcc
            .points
            .iter()
            .filter(|&&(t, _)| t > 170.0)
            .map(|&(_, y)| y)
            .collect();
        let early_mean = early.iter().sum::<f64>() / early.len().max(1) as f64;
        let late_mean = late.iter().sum::<f64>() / late.len().max(1) as f64;
        assert!(
            late_mean < early_mean,
            "TFMCC rate must drop as competing flows multiply: {early_mean} -> {late_mean}"
        );
    }
}
