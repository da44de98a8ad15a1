//! Unicast TFRC (TCP-Friendly Rate Control) endpoints.
//!
//! TFRC (Floyd, Handley, Padhye & Widmer, SIGCOMM 2000) is the unicast parent
//! protocol of TFMCC: the receiver measures the loss event rate, the sender
//! measures the RTT from receiver reports, and the control equation sets the
//! sending rate.  TFMCC keeps TFRC's loss measurement and control equation
//! and moves the rate calculation to the receivers (paper Section 1.1).
//!
//! This module provides the unicast configuration as a baseline: a
//! [`TfrcSession`] is simply a TFMCC session with exactly one receiver whose
//! reports are never suppressed (it behaves like a permanent CLR, reporting
//! once per RTT), which is precisely how the paper positions TFMCC relative
//! to TFRC.  Reusing the same state machines means any fix to the loss
//! history or the control equation benefits both protocols, and the unicast
//! baseline measured in the experiments runs exactly the code the multicast
//! protocol runs.

use netsim::packet::{AgentId, FlowId, GroupId, NodeId, Port};
use netsim::sim::Simulator;

use tfmcc_agents::population::PopulationSpec;
use tfmcc_agents::session::{TfmccSession, TfmccSessionBuilder};
use tfmcc_proto::config::TfmccConfig;

/// A unicast TFRC flow embedded in the simulator.
///
/// Internally this is a single-receiver TFMCC session on a dedicated
/// multicast group (the distribution "tree" degenerates to the unicast path),
/// which matches the protocol relationship described in the paper.
#[derive(Debug, Clone)]
pub struct TfrcSession {
    inner: TfmccSession,
}

/// Builder for a [`TfrcSession`].
#[derive(Debug, Clone)]
pub struct TfrcSessionBuilder {
    /// Protocol configuration (TFRC uses the same parameters as TFMCC).
    pub config: TfmccConfig,
    /// Flow id for statistics.
    pub flow: FlowId,
    /// Port pair used by the flow.
    pub data_port: Port,
    /// Sender report port.
    pub sender_port: Port,
    /// Group id used internally (must be unique per flow in one simulation).
    pub group: GroupId,
    /// Start time of the flow.
    pub start_at: f64,
}

impl Default for TfrcSessionBuilder {
    fn default() -> Self {
        TfrcSessionBuilder {
            config: TfmccConfig::default(),
            flow: FlowId(200),
            data_port: Port(6000),
            sender_port: Port(6001),
            group: GroupId(1000),
            start_at: 0.0,
        }
    }
}

impl TfrcSessionBuilder {
    /// Builds the unicast flow from `sender_node` to `receiver_node`.
    pub fn build(
        &self,
        sim: &mut Simulator,
        sender_node: NodeId,
        receiver_node: NodeId,
    ) -> TfrcSession {
        let builder = TfmccSessionBuilder {
            config: self.config.clone(),
            group: self.group,
            data_port: self.data_port,
            sender_port: self.sender_port,
            flow: self.flow,
            start_at: self.start_at,
            ..TfmccSessionBuilder::default()
        };
        let inner =
            builder.build_population(sim, sender_node, &[PopulationSpec::packet(receiver_node)]);
        TfrcSession { inner }
    }
}

impl TfrcSession {
    /// The sender agent id.
    pub fn sender(&self) -> AgentId {
        self.inner.sender
    }

    /// The receiver agent id.
    pub fn receiver(&self) -> AgentId {
        self.inner.receivers[0]
    }

    /// Average receiver throughput over `[from, to]` in bytes/second.
    pub fn throughput(&self, sim: &Simulator, from: f64, to: f64) -> f64 {
        self.inner.receiver_throughput(sim, 0, from, to)
    }

    /// Current sending rate in bytes/second.
    pub fn current_rate(&self, sim: &Simulator) -> f64 {
        self.inner.sender_agent(sim).protocol().current_rate()
    }

    /// The underlying single-receiver TFMCC session.
    pub fn as_tfmcc(&self) -> &TfmccSession {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::{TcpSender, TcpSenderConfig, TcpSink};
    use netsim::prelude::*;

    #[test]
    fn tfrc_flow_uses_available_bandwidth() {
        let mut sim = Simulator::new(301);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        sim.add_duplex_link(a, b, 125_000.0, 0.02, QueueDiscipline::drop_tail(30));
        let flow = TfrcSessionBuilder::default().build(&mut sim, a, b);
        sim.run_until(SimTime::from_secs(120.0));
        let rate = flow.throughput(&sim, 60.0, 115.0);
        assert!(
            (60_000.0..=126_000.0).contains(&rate),
            "TFRC should use most of the 125 kB/s link, got {rate}"
        );
    }

    #[test]
    fn tfrc_is_roughly_fair_to_tcp() {
        let mut sim = Simulator::new(302);
        let cfg = DumbbellConfig {
            pairs: 2,
            bottleneck_bandwidth: 250_000.0,
            bottleneck_delay: 0.02,
            bottleneck_queue: QueueDiscipline::drop_tail(40),
            ..DumbbellConfig::default()
        };
        let d = netsim::topology::dumbbell(&mut sim, &cfg);
        let flow = TfrcSessionBuilder::default().build(&mut sim, d.senders[0], d.receivers[0]);
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
        let tfrc_rate = flow.throughput(&sim, 80.0, 195.0);
        let tcp_rate = sim
            .agent::<TcpSink>(tcp_sink)
            .unwrap()
            .meter()
            .average_between(80.0, 195.0);
        let ratio = tfrc_rate / tcp_rate;
        assert!(
            (0.25..=4.0).contains(&ratio),
            "TFRC/TCP ratio {ratio} ({tfrc_rate} vs {tcp_rate})"
        );
    }

    #[test]
    fn tfrc_receiver_behaves_as_a_permanent_clr() {
        // The module's claim: a TFRC flow is a one-receiver TFMCC session
        // whose receiver reports like a permanent CLR, never suppressed.
        let mut sim = Simulator::new(304);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        sim.add_duplex_link(a, b, 125_000.0, 0.02, QueueDiscipline::drop_tail(30));
        let flow = TfrcSessionBuilder::default().build(&mut sim, a, b);
        sim.run_until(SimTime::from_secs(60.0));
        let receiver = flow.as_tfmcc().receiver_agent(&sim, 0).protocol();
        assert!(
            receiver.is_clr(),
            "the only receiver must be the CLR of its session"
        );
        assert_eq!(
            receiver.stats().feedback_suppressed,
            0,
            "a lone receiver must never suppress its feedback"
        );
        assert!(
            receiver.stats().feedback_sent > 10,
            "the CLR reports per RTT"
        );
        let sender = flow.as_tfmcc().sender_agent(&sim).protocol();
        assert_eq!(sender.clr(), Some(tfmcc_proto::packets::ReceiverId(1)));
    }

    #[test]
    fn tfrc_rate_responds_to_path_loss() {
        // Same topology twice: a clean path and a 5%-loss path.  The control
        // equation must push the lossy flow's rate well below the clean one.
        let run = |loss: f64, seed: u64| -> f64 {
            let mut sim = Simulator::new(seed);
            let a = sim.add_node("a");
            let b = sim.add_node("b");
            let (down, _) =
                sim.add_duplex_link(a, b, 1_250_000.0, 0.02, QueueDiscipline::drop_tail(200));
            if loss > 0.0 {
                sim.set_link_loss(down, LossModel::Bernoulli { p: loss });
            }
            let flow = TfrcSessionBuilder::default().build(&mut sim, a, b);
            sim.run_until(SimTime::from_secs(90.0));
            flow.throughput(&sim, 40.0, 85.0)
        };
        let clean = run(0.0, 305);
        let lossy = run(0.05, 305);
        assert!(
            lossy > 1_000.0,
            "the lossy flow must still progress: {lossy}"
        );
        assert!(
            lossy < clean * 0.5,
            "5% loss must at least halve the rate: clean {clean}, lossy {lossy}"
        );
    }

    #[test]
    fn two_tfrc_flows_need_distinct_groups_and_ports() {
        let mut sim = Simulator::new(303);
        let cfg = DumbbellConfig {
            pairs: 2,
            bottleneck_bandwidth: 250_000.0,
            ..DumbbellConfig::default()
        };
        let d = netsim::topology::dumbbell(&mut sim, &cfg);
        let f1 = TfrcSessionBuilder::default().build(&mut sim, d.senders[0], d.receivers[0]);
        let f2 = TfrcSessionBuilder {
            flow: FlowId(201),
            data_port: Port(6100),
            sender_port: Port(6101),
            group: GroupId(1001),
            ..TfrcSessionBuilder::default()
        }
        .build(&mut sim, d.senders[1], d.receivers[1]);
        sim.run_until(SimTime::from_secs(150.0));
        let r1 = f1.throughput(&sim, 60.0, 145.0);
        let r2 = f2.throughput(&sim, 60.0, 145.0);
        assert!(
            r1 > 20_000.0 && r2 > 20_000.0,
            "both flows must progress: {r1} {r2}"
        );
        let fairness = r1.min(r2) / r1.max(r2);
        assert!(
            fairness > 0.3,
            "intra-protocol fairness too poor: {r1} vs {r2}"
        );
    }
}
