//! Cross-crate integration tests: full TFMCC sessions exercising the
//! simulator, the protocol core, the TCP substrate and the experiment
//! harness together at reduced scale.

use tfmcc::prelude::*;
use tfmcc::tcp::{TcpSender, TcpSenderConfig, TcpSink};

/// A three-receiver session behind heterogeneous links: the slowest receiver
/// must become the CLR, all receivers must see (roughly) the same rate, and
/// that rate must be governed by the slowest link.
#[test]
fn single_rate_property_holds_across_heterogeneous_receivers() {
    let mut sim = Simulator::new(1001);
    let src = sim.add_node("src");
    let hub = sim.add_node("hub");
    sim.add_duplex_link(
        src,
        hub,
        12_500_000.0,
        0.005,
        QueueDiscipline::drop_tail(200),
    );
    let bandwidths = [1_250_000.0, 250_000.0, 62_500.0]; // 10, 2, 0.5 Mbit/s
    let mut nodes = Vec::new();
    for (i, bw) in bandwidths.iter().enumerate() {
        let n = sim.add_node(&format!("r{i}"));
        sim.add_duplex_link(hub, n, *bw, 0.02, QueueDiscipline::drop_tail(40));
        nodes.push(n);
    }
    let specs: Vec<ReceiverSpec> = nodes.iter().map(|&n| ReceiverSpec::always(n)).collect();
    let session = TfmccSessionBuilder::default().build_population(
        &mut sim,
        src,
        &PopulationSpec::packets(&specs),
    );
    sim.run_until(SimTime::from_secs(150.0));

    let sender = session.sender_agent(&sim).protocol();
    assert!(!sender.in_slowstart());
    assert_eq!(
        sender.clr(),
        Some(ReceiverId(3)),
        "the 0.5 Mbit/s receiver must be the CLR"
    );
    let rates: Vec<f64> = (0..3)
        .map(|i| session.receiver_throughput(&sim, i, 80.0, 145.0))
        .collect();
    // Single-rate: all receivers get essentially the same throughput.
    let max = rates.iter().cloned().fold(0.0, f64::max);
    let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        max - min <= 0.25 * max,
        "single-rate violated: rates {rates:?}"
    );
    // And that rate is bounded by the slowest link.
    assert!(
        max <= 62_500.0 * 1.05,
        "rate exceeds the slowest link: {max}"
    );
    assert!(min >= 15_000.0, "group starved: {rates:?}");
}

/// TFMCC and TCP through the same bottleneck: neither flow may be starved,
/// and TFMCC must be smoother than TCP.
#[test]
fn tfmcc_coexists_with_tcp_and_is_smoother() {
    let mut sim = Simulator::new(1002);
    let cfg = DumbbellConfig {
        pairs: 2,
        bottleneck_bandwidth: 500_000.0, // 4 Mbit/s
        bottleneck_delay: 0.03,
        bottleneck_queue: QueueDiscipline::drop_tail(80),
        ..DumbbellConfig::default()
    };
    let d = tfmcc::sim::topology::dumbbell(&mut sim, &cfg);
    let session = TfmccSessionBuilder::default().build_population(
        &mut sim,
        d.senders[0],
        &[PopulationSpec::packet(d.receivers[0])],
    );
    let tcp_sink = sim.add_agent(d.receivers[1], Port(1), Box::new(TcpSink::new(1.0)));
    sim.add_agent(
        d.senders[1],
        Port(1),
        Box::new(TcpSender::new(TcpSenderConfig::new(
            Address::new(d.receivers[1], Port(1)),
            FlowId(42),
        ))),
    );
    sim.run_until(SimTime::from_secs(180.0));

    let tfmcc_meter = session.receiver_agent(&sim, 0).meter();
    let tcp_meter = sim.agent::<TcpSink>(tcp_sink).unwrap().meter();
    let tfmcc_rate = tfmcc_meter.average_between(80.0, 175.0);
    let tcp_rate = tcp_meter.average_between(80.0, 175.0);
    assert!(tfmcc_rate > 25_000.0, "TFMCC starved: {tfmcc_rate}");
    assert!(tcp_rate > 25_000.0, "TCP starved: {tcp_rate}");
    let ratio = tfmcc_rate / tcp_rate;
    assert!(
        (0.2..=5.0).contains(&ratio),
        "shares wildly unfair: TFMCC {tfmcc_rate} vs TCP {tcp_rate}"
    );
    // Smoothness is a short-timescale property: compare bin-to-bin rate
    // changes, not total variance (TFMCC's fair share may drift slowly while
    // its instantaneous rate stays smooth).  TFMCC must be smooth in absolute
    // terms and not substantially burstier than the competing TCP goodput,
    // which the bottleneck queue already smooths considerably.
    let tfmcc_smooth = tfmcc_meter.mean_relative_change(80.0, 175.0);
    let tcp_smooth = tcp_meter.mean_relative_change(80.0, 175.0);
    assert!(
        tfmcc_smooth < 0.10,
        "TFMCC rate is not smooth: mean relative change {tfmcc_smooth:.3}"
    );
    assert!(
        tfmcc_smooth <= tcp_smooth * 1.5,
        "TFMCC should not be substantially burstier than TCP: mean relative change {tfmcc_smooth:.3} vs {tcp_smooth:.3}"
    );
}

/// Feedback implosion avoidance end to end: with many receivers behind one
/// bottleneck, the total number of feedback packets must stay far below one
/// per receiver per feedback round.
#[test]
fn feedback_volume_scales_sublinearly_with_receivers() {
    let n = 60;
    let mut sim = Simulator::new(1003);
    let src = sim.add_node("src");
    let hub = sim.add_node("hub");
    sim.add_duplex_link(src, hub, 500_000.0, 0.02, QueueDiscipline::drop_tail(60));
    let mut nodes = Vec::new();
    for i in 0..n {
        let r = sim.add_node(&format!("r{i}"));
        sim.add_duplex_link(hub, r, 12_500_000.0, 0.01, QueueDiscipline::drop_tail(100));
        nodes.push(r);
    }
    let specs: Vec<ReceiverSpec> = nodes.iter().map(|&r| ReceiverSpec::always(r)).collect();
    let session = TfmccSessionBuilder::default().build_population(
        &mut sim,
        src,
        &PopulationSpec::packets(&specs),
    );
    let duration = 120.0;
    sim.run_until(SimTime::from_secs(duration));

    let sender = session.sender_agent(&sim).protocol();
    let rounds = sender.stats().rounds.max(1);
    let feedback = sender.stats().feedback_received;
    let per_round = feedback as f64 / rounds as f64;
    // The CLR reports every RTT, other receivers are suppressed: far less
    // than one report per receiver per round.
    assert!(
        per_round < n as f64 * 0.5,
        "feedback implosion: {feedback} reports over {rounds} rounds for {n} receivers"
    );
    assert!(feedback > 0, "feedback must flow");
    // All receivers nevertheless keep receiving data.
    for i in 0..n {
        assert!(
            session.receiver_agent(&sim, i).meter().total_bytes() > 0,
            "receiver {i} got no data"
        );
    }
}

/// The experiment harness's quick scale stays runnable end to end (smoke test
/// for the `figs` binary), including on a multi-threaded sweep runner.
#[test]
fn experiment_harness_quick_scale_smoke() {
    use tfmcc::experiments::{feedback_figs, scaling_figs, Scale, SweepRunner};
    let runner = SweepRunner::new(2);
    let figs = [
        feedback_figs::fig01_bias_cdf(&runner, Scale::Quick),
        feedback_figs::fig04_expected_feedback(&runner, Scale::Quick),
        scaling_figs::fig17_loss_events_per_rtt(&runner, Scale::Quick),
    ];
    for fig in figs {
        assert!(!fig.series.is_empty(), "{} has no series", fig.id);
        let csv = fig.to_csv();
        assert!(csv.contains("series"), "{} CSV malformed", fig.id);
        assert!(fig.to_json().render().contains(&fig.id), "JSON malformed");
    }
    // Every figure point went through the executor and was timed.
    assert!(!runner.report().records.is_empty());
}
