//! One-call construction of a complete TFMCC session inside a simulation.
//!
//! [`TfmccSessionBuilder`] is the historical single-session entry point; it
//! is a thin wrapper over the multi-session
//! [`SessionManager`] (one manager, one
//! session, the builder's explicit group/port/flow assignment), so both
//! construction paths share wiring and input validation.

use netsim::packet::{AgentId, FlowId, GroupId, NodeId, Port};
use netsim::sim::Simulator;

use tfmcc_proto::config::TfmccConfig;

use crate::manager::{SessionManager, SessionSpec};
use crate::population::{FluidPopulationAgent, PopulationSpec};
use crate::receiver_agent::TfmccReceiverAgent;
use crate::sender_agent::TfmccSenderAgent;

/// Where and when one receiver participates in the session.
#[derive(Debug, Clone, Copy)]
pub struct ReceiverSpec {
    /// Node the receiver runs on.
    pub node: NodeId,
    /// Time at which it joins the multicast group.
    pub join_at: f64,
    /// Time at which it leaves again (never, if `None`).
    pub leave_at: Option<f64>,
    /// `(on_secs, off_secs)` churn cycle: repeatedly stay in the session
    /// for `on_secs`, leave, and rejoin `off_secs` later.
    pub churn: Option<(f64, f64)>,
}

impl ReceiverSpec {
    /// A receiver that participates for the whole simulation.
    pub fn always(node: NodeId) -> Self {
        ReceiverSpec {
            node,
            join_at: 0.0,
            leave_at: None,
            churn: None,
        }
    }

    /// A receiver that joins at `join_at`.
    pub fn joining_at(node: NodeId, join_at: f64) -> Self {
        ReceiverSpec {
            node,
            join_at,
            leave_at: None,
            churn: None,
        }
    }

    /// Adds a leave time.
    pub fn leaving_at(mut self, t: f64) -> Self {
        self.leave_at = Some(t);
        self
    }

    /// Makes the receiver churn: after each join it stays `on_secs`, leaves,
    /// waits `off_secs` and rejoins.
    pub fn churning(mut self, on_secs: f64, off_secs: f64) -> Self {
        self.churn = Some((on_secs, off_secs));
        self
    }
}

/// Parameters of a session to be built.
#[derive(Debug, Clone)]
pub struct TfmccSessionBuilder {
    /// Protocol configuration shared by sender and receivers.
    pub config: TfmccConfig,
    /// Multicast group of the session.
    pub group: GroupId,
    /// Port data packets are addressed to (receivers bind to it).
    pub data_port: Port,
    /// Port the sender listens on for receiver reports.
    pub sender_port: Port,
    /// Flow id tagging the session's data packets.
    pub flow: FlowId,
    /// Time at which the sender starts transmitting.
    pub start_at: f64,
    /// Record the sending-rate series into the statistics registry.
    pub record_rate_series: bool,
    /// Bin width (seconds) of each receiver's local throughput meter.
    pub meter_bin: f64,
}

impl Default for TfmccSessionBuilder {
    fn default() -> Self {
        TfmccSessionBuilder {
            config: TfmccConfig::default(),
            group: GroupId(1),
            data_port: Port(5000),
            sender_port: Port(5001),
            flow: FlowId(100),
            start_at: 0.0,
            record_rate_series: false,
            meter_bin: 1.0,
        }
    }
}

/// Handles to the agents of a built session.
#[derive(Debug, Clone)]
pub struct TfmccSession {
    /// The sender agent.
    pub sender: AgentId,
    /// The packet-level receiver agents, in the order of the packet entries
    /// passed to `build_population`.
    pub receivers: Vec<AgentId>,
    /// The fluid population agents, in the order of the fluid entries
    /// passed to `build_population` (empty for a pure packet-level session).
    pub fluid: Vec<AgentId>,
    /// The session's multicast group.
    pub group: GroupId,
}

impl TfmccSessionBuilder {
    /// Builds the session: attaches the sender to `sender_node`, one
    /// receiver agent per [`PopulationSpec::Packet`] entry and one fluid
    /// population agent per [`PopulationSpec::Fluid`] entry, all wired to
    /// the same group and ports.
    ///
    /// This is single-session sugar over
    /// [`SessionManager::add_population_session`](crate::manager::SessionManager::add_population_session),
    /// which also validates the inputs (at least one packet-level receiver,
    /// valid fluid profiles, finite times, positive churn periods, distinct
    /// data/report ports) and documents the CLR-cohort promotion rule.
    pub fn build_population(
        &self,
        sim: &mut Simulator,
        sender_node: NodeId,
        populations: &[PopulationSpec],
    ) -> TfmccSession {
        let spec = SessionSpec {
            config: self.config.clone(),
            start_at: self.start_at,
            record_rate_series: self.record_rate_series,
            meter_bin: self.meter_bin,
            group: Some(self.group),
            data_port: Some(self.data_port),
            sender_port: Some(self.sender_port),
            flow: Some(self.flow),
        };
        let mut manager = SessionManager::new();
        let id = manager.add_population_session(sim, &spec, sender_node, populations);
        let handle = manager.session(id);
        TfmccSession {
            sender: handle.sender,
            receivers: handle.receivers.clone(),
            fluid: handle.fluid.clone(),
            group: handle.group,
        }
    }
}

impl TfmccSession {
    /// Borrow the sender agent.
    pub fn sender_agent<'a>(&self, sim: &'a Simulator) -> &'a TfmccSenderAgent {
        sim.agent(self.sender).expect("sender agent exists")
    }

    /// Borrow a receiver agent by index.
    pub fn receiver_agent<'a>(&self, sim: &'a Simulator, index: usize) -> &'a TfmccReceiverAgent {
        sim.agent(self.receivers[index])
            .expect("receiver agent exists")
    }

    /// Borrow a fluid population agent by index.
    pub fn fluid_agent<'a>(&self, sim: &'a Simulator, index: usize) -> &'a FluidPopulationAgent {
        sim.agent(self.fluid[index])
            .expect("fluid population agent exists")
    }

    /// Average throughput seen by receiver `index` over `[from, to]`, in
    /// bytes per second.
    pub fn receiver_throughput(&self, sim: &Simulator, index: usize, from: f64, to: f64) -> f64 {
        self.receiver_agent(sim, index)
            .meter()
            .average_between(from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::prelude::*;

    /// Steady-state TFMCC over a single clean bottleneck should settle near
    /// the bottleneck rate (like TCP would), starting from slowstart.
    #[test]
    fn single_receiver_converges_to_bottleneck_rate() {
        let mut sim = Simulator::new(101);
        let s = sim.add_node("src");
        let r = sim.add_node("dst");
        // 1 Mbit/s bottleneck, 20 ms one-way delay.
        sim.add_duplex_link(s, r, 125_000.0, 0.02, QueueDiscipline::drop_tail(30));
        let session = TfmccSessionBuilder::default().build_population(
            &mut sim,
            s,
            &[PopulationSpec::packet(r)],
        );
        sim.run_until(SimTime::from_secs(120.0));
        let rate = session.receiver_throughput(&sim, 0, 60.0, 115.0);
        assert!(
            (60_000.0..=126_000.0).contains(&rate),
            "TFMCC should reach a large fraction of the 125 kB/s bottleneck, got {rate}"
        );
        let sender = session.sender_agent(&sim).protocol();
        assert!(!sender.in_slowstart());
        assert!(sender.clr().is_some());
    }

    /// The sender must track the most limited receiver in a star topology
    /// with heterogeneous loss.
    #[test]
    fn sender_tracks_the_lossiest_receiver() {
        let mut sim = Simulator::new(102);
        let legs = vec![
            StarLeg::clean(1_250_000.0, 0.03),
            StarLeg::clean(1_250_000.0, 0.03).with_downstream_loss(0.05),
        ];
        let star = star(&mut sim, &StarConfig::default(), &legs);
        let specs: Vec<ReceiverSpec> = star
            .receivers
            .iter()
            .map(|&n| ReceiverSpec::always(n))
            .collect();
        let session = TfmccSessionBuilder::default().build_population(
            &mut sim,
            star.sender,
            &PopulationSpec::packets(&specs),
        );
        sim.run_until(SimTime::from_secs(150.0));
        let sender = session.sender_agent(&sim).protocol();
        // The CLR must be receiver 2 (index 1 -> ReceiverId 2), the lossy leg.
        assert_eq!(
            sender.clr(),
            Some(tfmcc_proto::packets::ReceiverId(2)),
            "the lossy receiver must be the CLR"
        );
        // And the achieved rate should be in the region the control equation
        // gives for 5% loss / ~60 ms RTT (tens of kB/s), far below the link.
        let rate = session.receiver_throughput(&sim, 1, 80.0, 145.0);
        assert!(
            (5_000.0..=300_000.0).contains(&rate),
            "rate should be limited by the lossy leg, got {rate}"
        );
        let clean = session.receiver_throughput(&sim, 0, 80.0, 145.0);
        assert!(
            (clean - rate).abs() <= 0.2 * rate.max(clean),
            "single-rate protocol: both receivers see the same rate ({clean} vs {rate})"
        );
    }

    /// Receivers eventually obtain real RTT measurements via report echoes.
    #[test]
    fn receivers_obtain_rtt_measurements() {
        let mut sim = Simulator::new(104);
        let legs: Vec<StarLeg> = (0..4)
            .map(|i| StarLeg::clean(250_000.0, 0.02 + 0.01 * i as f64).with_downstream_loss(0.01))
            .collect();
        let star = star(&mut sim, &StarConfig::default(), &legs);
        let specs: Vec<ReceiverSpec> = star
            .receivers
            .iter()
            .map(|&n| ReceiverSpec::always(n))
            .collect();
        let session = TfmccSessionBuilder::default().build_population(
            &mut sim,
            star.sender,
            &PopulationSpec::packets(&specs),
        );
        sim.run_until(SimTime::from_secs(120.0));
        let with_rtt = (0..4)
            .filter(|&i| {
                session
                    .receiver_agent(&sim, i)
                    .protocol()
                    .has_rtt_measurement()
            })
            .count();
        assert!(
            with_rtt >= 2,
            "at least the limiting receivers must have measured their RTT, got {with_rtt}"
        );
        // The CLR's RTT estimate should be near the true path RTT (well below
        // the 500 ms initial value).
        let sender = session.sender_agent(&sim).protocol();
        let clr = sender.clr().expect("a CLR exists");
        let idx = (clr.0 - 1) as usize;
        let rtt = session.receiver_agent(&sim, idx).protocol().rtt();
        assert!(
            rtt < 0.3,
            "CLR RTT estimate still near the initial value: {rtt}"
        );
    }

    /// A churning receiver must repeatedly leave and rejoin, receive data in
    /// every on-period, and not kill the session for a persistent receiver.
    #[test]
    fn churning_receiver_cycles_membership() {
        let mut sim = Simulator::new(106);
        let legs = vec![
            StarLeg::clean(1_250_000.0, 0.02),
            StarLeg::clean(1_250_000.0, 0.02),
        ];
        let star = star(&mut sim, &StarConfig::default(), &legs);
        let specs = vec![
            ReceiverSpec::always(star.receivers[0]),
            ReceiverSpec::joining_at(star.receivers[1], 5.0).churning(10.0, 5.0),
        ];
        let session = TfmccSessionBuilder::default().build_population(
            &mut sim,
            star.sender,
            &PopulationSpec::packets(&specs),
        );
        sim.run_until(SimTime::from_secs(120.0));
        let churner = session.receiver_agent(&sim, 1);
        // Joins at 5, then leave/join every 10/5 s: ≥ 14 transitions in 115 s.
        assert!(
            churner.membership_changes() >= 10,
            "churner only made {} membership changes",
            churner.membership_changes()
        );
        // It received data during on-periods...
        assert!(churner.meter().total_bytes() > 0);
        // ...and the persistent receiver kept a healthy rate overall.
        let persistent = session.receiver_throughput(&sim, 0, 60.0, 115.0);
        assert!(
            persistent > 20_000.0,
            "persistent receiver starved: {persistent} B/s"
        );
        // The simulator registered the churn in its multicast counters.
        assert!(sim.stats().counter("multicast.agent_leaves") >= 5.0);
    }

    /// A receiver joining behind a slow tail circuit must become the CLR and
    /// pull the rate down; after it leaves the rate recovers.
    #[test]
    fn late_join_and_leave_of_slow_receiver() {
        let mut sim = Simulator::new(105);
        let legs = vec![
            StarLeg::clean(1_250_000.0, 0.02),
            // 200 kbit/s = 25 kB/s tail circuit.
            StarLeg::clean(25_000.0, 0.02).with_queue(QueueDiscipline::drop_tail(10)),
        ];
        let star = star(&mut sim, &StarConfig::default(), &legs);
        let specs = vec![
            ReceiverSpec::always(star.receivers[0]),
            ReceiverSpec::joining_at(star.receivers[1], 80.0).leaving_at(160.0),
        ];
        let session = TfmccSessionBuilder::default().build_population(
            &mut sim,
            star.sender,
            &PopulationSpec::packets(&specs),
        );
        sim.run_until(SimTime::from_secs(240.0));
        let sender = session.sender_agent(&sim).protocol();
        let fast = session.receiver_agent(&sim, 0).meter();
        let before = fast.average_between(50.0, 78.0);
        let during = fast.average_between(110.0, 158.0);
        let after = fast.average_between(200.0, 238.0);
        assert!(
            during < before * 0.6,
            "slow receiver must pull the rate down: before {before}, during {during}"
        );
        assert!(
            after > during * 1.5,
            "rate must recover after the slow receiver leaves: during {during}, after {after}"
        );
        assert!(sender.stats().clr_changes >= 1);
    }
}
