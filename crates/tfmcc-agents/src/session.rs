//! One-call construction of a complete TFMCC session inside a simulation.
//!
//! [`TfmccSessionBuilder::build_population`] is the only code that wires a
//! session: the sender, one agent per receiver entry, the shared
//! configuration and the input validation.  The multi-session
//! [`SessionManager`](crate::manager::SessionManager) builds every session
//! through it, handing each one the next addressing block.  Unicast TFRC is
//! a session with a single packet-level receiver, which is always its CLR.

use std::sync::Arc;

use netsim::packet::{AgentId, FlowId, GroupId, NodeId, Port};
use netsim::sim::Simulator;

use tfmcc_proto::config::TfmccConfig;
use tfmcc_proto::packets::ReceiverId;

use crate::population::{FluidPopulationAgent, PopulationSpec, FLUID_ID_BASE, FLUID_ID_POP_SHIFT};
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
    /// The port data packets are addressed to.
    pub data_port: Port,
    /// The port the sender listens on for reports.
    pub sender_port: Port,
    /// The flow id tagging the session's data packets.
    pub flow: FlowId,
}

impl TfmccSessionBuilder {
    /// Builds the session: attaches the sender to `sender_node`, one
    /// receiver agent per [`PopulationSpec::Packet`] entry and one fluid
    /// population agent per [`PopulationSpec::Fluid`] entry, all wired to
    /// the builder's group and ports.
    ///
    /// Packet-level receivers take `ReceiverId`s 1, 2, … in the order of
    /// their entries — identical to a pure packet-level session over the
    /// same cohort, which is what the hybrid equivalence tests pin.  Fluid
    /// populations report under synthetic ids starting at
    /// [`FLUID_ID_BASE`].
    ///
    /// **CLR-cohort promotion rule:** the packet-level cohort must be able
    /// to produce the CLR, so at least one packet-level receiver is
    /// required, and the cohort should cover the lower tail of the rate
    /// distribution (the lossiest / slowest receivers).  A fluid bin *can*
    /// temporarily hold the CLR — its reports are complete feedback packets
    /// — but a session whose steady-state CLR is a fluid bin is governed by
    /// an analytic aggregate rather than a simulated receiver; treat that
    /// as a sign the cohort needs re-provisioning.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message, before any agent is attached,
    /// when the input is invalid: an empty population, a hybrid session
    /// without a packet-level receiver, an invalid fluid profile (zero
    /// count, loss outside `[0, 1)`, non-positive RTT), non-finite or negative times, non-positive churn periods or
    /// meter bins, or equal data and report ports.
    pub fn build_population(
        &self,
        sim: &mut Simulator,
        sender_node: NodeId,
        populations: &[PopulationSpec],
    ) -> TfmccSession {
        self.validate(populations);

        let sender_addr = netsim::packet::Address::new(sender_node, self.sender_port);
        let mut sender_agent = TfmccSenderAgent::new(
            tfmcc_proto::sender::TfmccSender::new(self.config.clone()),
            self.group,
            self.data_port,
            self.flow,
        )
        .starting_at(self.start_at);
        if self.record_rate_series {
            sender_agent = sender_agent.with_rate_series();
        }
        let sender = sim.add_agent(sender_node, self.sender_port, Box::new(sender_agent));

        // One configuration for the session: every receiver shares it.
        let receiver_config = Arc::new(self.config.clone());
        let mut receiver_ids = Vec::new();
        let mut fluid_ids = Vec::new();
        for pspec in populations {
            match pspec {
                PopulationSpec::Packet(rspec) => {
                    let mut agent = TfmccReceiverAgent::new(
                        ReceiverId(receiver_ids.len() as u64 + 1),
                        Arc::clone(&receiver_config),
                        sender_addr,
                        self.group,
                        self.flow,
                    )
                    .with_meter_bin(self.meter_bin)
                    .joining_at(rspec.join_at);
                    if let Some(t) = rspec.leave_at {
                        agent = agent.leaving_at(t);
                    }
                    if let Some((on_secs, off_secs)) = rspec.churn {
                        agent = agent.churning(on_secs, off_secs);
                    }
                    let agent_id = sim.add_agent(rspec.node, self.data_port, Box::new(agent));
                    receiver_ids.push(agent_id);
                }
                PopulationSpec::Fluid(fspec) => {
                    let id_base = FLUID_ID_BASE + ((fluid_ids.len() as u64) << FLUID_ID_POP_SHIFT);
                    let agent = FluidPopulationAgent::new(
                        fspec,
                        self.config.clone(),
                        id_base,
                        sender_addr,
                        self.group,
                        self.flow,
                    );
                    let agent_id = sim.add_agent(fspec.node, self.data_port, Box::new(agent));
                    fluid_ids.push(agent_id);
                }
            }
        }
        TfmccSession {
            sender,
            receivers: receiver_ids,
            fluid: fluid_ids,
            group: self.group,
            data_port: self.data_port,
            sender_port: self.sender_port,
            flow: self.flow,
        }
    }

    /// Input validation (the session-layer counterpart of netsim's
    /// link-parameter validation).
    fn validate(&self, populations: &[PopulationSpec]) {
        assert!(
            !populations.is_empty(),
            "a TFMCC session needs at least one receiver"
        );
        assert!(
            populations
                .iter()
                .any(|p| matches!(p, PopulationSpec::Packet(_))),
            "a hybrid session needs at least one packet-level receiver (the CLR cohort)"
        );
        assert!(
            self.start_at.is_finite() && self.start_at >= 0.0,
            "session start_at must be finite and ≥ 0, got {}",
            self.start_at
        );
        assert!(
            self.meter_bin.is_finite() && self.meter_bin > 0.0,
            "session meter_bin must be a positive number of seconds, got {}",
            self.meter_bin
        );
        assert!(
            self.data_port != self.sender_port,
            "data port and sender report port must differ, got {} for both",
            self.data_port.0
        );
        for (i, p) in populations.iter().enumerate() {
            match p {
                PopulationSpec::Packet(r) => {
                    assert!(
                        r.join_at.is_finite() && r.join_at >= 0.0,
                        "receiver {i}: join_at must be finite and ≥ 0, got {}",
                        r.join_at
                    );
                    if let Some(leave_at) = r.leave_at {
                        assert!(
                            leave_at.is_finite() && leave_at > r.join_at,
                            "receiver {i}: leave_at ({leave_at}) must be finite and after join_at ({})",
                            r.join_at
                        );
                        assert!(
                            r.churn.is_none(),
                            "receiver {i}: leave_at and churn are exclusive"
                        );
                    }
                    if let Some((on_secs, off_secs)) = r.churn {
                        assert!(
                            on_secs.is_finite()
                                && on_secs > 0.0
                                && off_secs.is_finite()
                                && off_secs > 0.0,
                            "receiver {i}: churn periods must be positive and finite, got on={on_secs} off={off_secs}"
                        );
                    }
                }
                // Panics with the PopulationProfile messages (count > 0,
                // loss within [0, 1), positive finite RTT).
                PopulationSpec::Fluid(f) => f.profile().validate(),
            }
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

    /// Mean throughput of the packet-level receivers over `[from, to]`, in
    /// bytes per second.
    pub fn mean_throughput(&self, sim: &Simulator, from: f64, to: f64) -> f64 {
        let sum: f64 = (0..self.receivers.len())
            .map(|i| self.receiver_throughput(sim, i, from, to))
            .sum();
        sum / self.receivers.len() as f64
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
