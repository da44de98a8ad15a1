//! Protocol-conformance suite for the baselines.  The sim-driven
//! throughput of TCP and of PGMCC's acker-driven window must respond to
//! path loss the way Reno's control equation says (rate ∝ 1/√p; for PGMCC
//! through dup-ACK halvings plus the timeout fallback), and two flows of
//! either sharing one bottleneck must converge to a fair allocation.
//! Mirrors the 5%-loss conformance test of the `tfrc` module, as a
//! property over loss rates and seeds.  Last, TFMCC itself must get a
//! share comparable to TCP's on a shared bottleneck.

use netsim::packet::AgentId;
use netsim::prelude::*;
use proptest::prelude::*;
use tfmcc_agents::population::PopulationSpec;
use tfmcc_agents::session::TfmccSessionBuilder;
use tfmcc_baselines::pgmcc::{PgmccReceiverAgent, PgmccSenderAgent};
use tfmcc_baselines::tcp::{TcpSender, TcpSenderConfig, TcpSink};

/// Jain's fairness index `(Σx)² / (n·Σx²)`.
fn jain(rates: &[f64]) -> f64 {
    let sum: f64 = rates.iter().sum();
    let sq: f64 = rates.iter().map(|r| r * r).sum();
    sum * sum / (rates.len() as f64 * sq)
}

// --------------------------------------------------------------- TCP ----

/// Runs one TCP flow over a dedicated path with `loss` Bernoulli data-path
/// loss and returns its steady-state throughput in bytes/second.
fn run_tcp_path(loss: f64, seed: u64) -> f64 {
    let mut sim = Simulator::new(seed);
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    let (down, _) = sim.add_duplex_link(a, b, 1_250_000.0, 0.02, QueueDiscipline::drop_tail(200));
    if loss > 0.0 {
        sim.set_link_loss(down, LossModel::Bernoulli { p: loss });
    }
    let sink = sim.add_agent(b, Port(1), Box::new(TcpSink::new(1.0)));
    sim.add_agent(
        a,
        Port(2),
        Box::new(TcpSender::new(TcpSenderConfig::new(
            Address::new(b, Port(1)),
            FlowId(77),
        ))),
    );
    sim.run_until(SimTime::from_secs(90.0));
    sim.agent::<TcpSink>(sink)
        .unwrap()
        .meter()
        .average_between(40.0, 85.0)
}

proptest! {
    /// Reno's equation: throughput falls with √p, so a few percent of loss
    /// must cost well over half of a clean run's (pipe-limited) rate.
    #[test]
    fn tcp_rate_responds_to_path_loss(loss in 0.03f64..0.08, seed in 1u64..1_000) {
        let clean = run_tcp_path(0.0, seed);
        let lossy = run_tcp_path(loss, seed);
        prop_assert!(lossy > 1_000.0, "the lossy flow must still progress: {lossy}");
        prop_assert!(
            lossy < clean * 0.5,
            "{:.1}% loss must at least halve the rate: clean {clean}, lossy {lossy}",
            loss * 100.0
        );
    }

    /// Two TCP flows on one bottleneck converge to a fair share.  The
    /// bottleneck runs gentle RED so the flows do not phase-lock on a
    /// synchronized drop-tail overflow pattern.
    #[test]
    fn two_tcp_flows_share_a_bottleneck_fairly(seed in 1u64..1_000) {
        let mut sim = Simulator::new(seed);
        let left = sim.add_node("left");
        let right = sim.add_node("right");
        sim.add_duplex_link(left, right, 1_000_000.0, 0.02, QueueDiscipline::red_gentle(50));
        let mut sinks = Vec::new();
        for i in 0..2u16 {
            let s = sim.add_node(&format!("s{i}"));
            let r = sim.add_node(&format!("r{i}"));
            sim.add_duplex_link(s, left, 1_250_000.0, 0.005, QueueDiscipline::drop_tail(60));
            sim.add_duplex_link(
                right,
                r,
                1_250_000.0,
                0.005 + 0.002 * f64::from(i),
                QueueDiscipline::drop_tail(60),
            );
            let sink = sim.add_agent(r, Port(1), Box::new(TcpSink::new(1.0)));
            sim.add_agent(
                s,
                Port(2),
                Box::new(TcpSender::new(TcpSenderConfig::new(
                    Address::new(r, Port(1)),
                    FlowId(100 + u64::from(i)),
                ))),
            );
            sinks.push(sink);
        }
        sim.run_until(SimTime::from_secs(80.0));
        let rates: Vec<f64> = sinks
            .iter()
            .map(|&s| sim.agent::<TcpSink>(s).unwrap().meter().average_between(30.0, 78.0))
            .collect();
        prop_assert!(rates.iter().all(|&r| r > 1_000.0), "a flow starved: {rates:?}");
        let j = jain(&rates);
        prop_assert!(j >= 0.9, "two TCP flows should share fairly, Jain {j} ({rates:?})");
    }
}

// ------------------------------------------------------------- PGMCC ----

/// Wires one PGMCC flow (sender on `s`, single receiver on `r`) with
/// non-colliding addressing derived from `index`; returns the receiver.
fn add_pgmcc_flow(sim: &mut Simulator, s: NodeId, r: NodeId, index: u16) -> AgentId {
    let group = GroupId(u32::from(index) + 1);
    let data_port = Port(7000 + 2 * index);
    let sender_port = Port(7001 + 2 * index);
    let flow = FlowId(u64::from(index) + 8);
    let sender = sim.add_agent(
        s,
        sender_port,
        Box::new(PgmccSenderAgent::new(group, data_port, flow, 1000)),
    );
    let sender_addr = sim.agent_addr(sender);
    sim.add_agent(
        r,
        data_port,
        Box::new(PgmccReceiverAgent::new(1, sender_addr, group, flow)),
    )
}

/// Runs one PGMCC flow over a dedicated path with `loss` Bernoulli
/// data-path loss and returns its steady-state throughput in bytes/second.
fn run_pgmcc_path(loss: f64, seed: u64) -> f64 {
    let mut sim = Simulator::new(seed);
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    let (down, _) = sim.add_duplex_link(a, b, 1_250_000.0, 0.02, QueueDiscipline::drop_tail(200));
    if loss > 0.0 {
        sim.set_link_loss(down, LossModel::Bernoulli { p: loss });
    }
    let receiver = add_pgmcc_flow(&mut sim, a, b, 0);
    sim.run_until(SimTime::from_secs(90.0));
    sim.agent::<PgmccReceiverAgent>(receiver)
        .unwrap()
        .meter()
        .average_between(40.0, 85.0)
}

proptest! {
    /// Holes in the cumulative ACK stall it, three dup-ACKs halve the
    /// window: a few percent of data-path loss must cost well over half of
    /// a clean run's (pipe-limited) rate.
    #[test]
    fn pgmcc_rate_responds_to_path_loss(loss in 0.03f64..0.08, seed in 1u64..1_000) {
        let clean = run_pgmcc_path(0.0, seed);
        let lossy = run_pgmcc_path(loss, seed);
        prop_assert!(lossy > 1_000.0, "the lossy flow must still progress: {lossy}");
        prop_assert!(
            lossy < clean * 0.5,
            "{:.1}% loss must at least halve the rate: clean {clean}, lossy {lossy}",
            loss * 100.0
        );
    }

    /// Two PGMCC flows on one bottleneck converge to a fair share.  The
    /// bottleneck runs gentle RED so the window clocks do not phase-lock on
    /// a synchronized drop-tail overflow pattern.
    #[test]
    fn two_pgmcc_flows_share_a_bottleneck_fairly(seed in 1u64..1_000) {
        let mut sim = Simulator::new(seed);
        let left = sim.add_node("left");
        let right = sim.add_node("right");
        sim.add_duplex_link(left, right, 1_000_000.0, 0.02, QueueDiscipline::red_gentle(50));
        let mut receivers = Vec::new();
        for i in 0..2u16 {
            let s = sim.add_node(&format!("s{i}"));
            let r = sim.add_node(&format!("r{i}"));
            sim.add_duplex_link(s, left, 1_250_000.0, 0.005, QueueDiscipline::drop_tail(60));
            sim.add_duplex_link(
                right,
                r,
                1_250_000.0,
                0.005 + 0.002 * f64::from(i),
                QueueDiscipline::drop_tail(60),
            );
            receivers.push(add_pgmcc_flow(&mut sim, s, r, i));
        }
        sim.run_until(SimTime::from_secs(80.0));
        let rates: Vec<f64> = receivers
            .iter()
            .map(|&a| {
                sim.agent::<PgmccReceiverAgent>(a)
                    .unwrap()
                    .meter()
                    .average_between(30.0, 78.0)
            })
            .collect();
        prop_assert!(rates.iter().all(|&r| r > 1_000.0), "a flow starved: {rates:?}");
        let j = jain(&rates);
        prop_assert!(j >= 0.9, "two PGMCC flows should share fairly, Jain {j} ({rates:?})");
    }
}

// ------------------------------------------------------ TFMCC vs TCP ----

/// TFMCC sharing a bottleneck with one TCP flow should get a comparable
/// long-term share (within a factor of ~3 either way).
#[test]
fn tfmcc_and_tcp_share_a_bottleneck() {
    let mut sim = Simulator::new(103);
    let cfg = DumbbellConfig {
        pairs: 2,
        bottleneck_bandwidth: 250_000.0, // 2 Mbit/s
        bottleneck_delay: 0.02,
        bottleneck_queue: QueueDiscipline::drop_tail(40),
        ..DumbbellConfig::default()
    };
    let d = netsim::topology::dumbbell(&mut sim, &cfg);
    // TFMCC on pair 0.
    let session = TfmccSessionBuilder::default().build_population(
        &mut sim,
        d.senders[0],
        &[PopulationSpec::packet(d.receivers[0])],
    );
    // TCP on pair 1.
    let tcp_sink = sim.add_agent(d.receivers[1], Port(1), Box::new(TcpSink::new(1.0)));
    sim.add_agent(
        d.senders[1],
        Port(1),
        Box::new(TcpSender::new(TcpSenderConfig::new(
            Address::new(d.receivers[1], Port(1)),
            FlowId(2),
        ))),
    );
    sim.run_until(SimTime::from_secs(200.0));
    let tfmcc_rate = session.receiver_throughput(&sim, 0, 80.0, 195.0);
    let tcp_rate = sim
        .agent::<TcpSink>(tcp_sink)
        .unwrap()
        .meter()
        .average_between(80.0, 195.0);
    assert!(tfmcc_rate > 10_000.0, "TFMCC starved: {tfmcc_rate}");
    assert!(tcp_rate > 10_000.0, "TCP starved: {tcp_rate}");
    let ratio = tfmcc_rate / tcp_rate;
    assert!(
        (1.0 / 4.0..=4.0).contains(&ratio),
        "TFMCC/TCP share ratio out of range: {tfmcc_rate} vs {tcp_rate}"
    );
}
