//! Multi-session orchestration: N independent TFMCC sessions in one
//! simulation.
//!
//! The paper's evaluation repeatedly runs *several* TFMCC flows against each
//! other (flow doubling, inter-protocol fairness); [`SessionManager`] is the
//! subsystem that wires such workloads.  It owns a set of sessions — each
//! with its own sender, multicast group, receiver population, churn
//! schedule, start time, and statistics — sharing one
//! [`Simulator`]:
//!
//! ```text
//!                         ┌────────────────────────────┐
//!                         │       SessionManager       │
//!                         │  group/port/flow allocator │
//!                         └──┬───────────┬──────────┬──┘
//!               session 0    │ session 1 │          │ session K-1
//!            ┌───────────────▼──┐  ┌─────▼────────┐ ▼ ...
//!            │ TfmccSenderAgent │  │ SenderAgent  │
//!            │  group 1, flow   │  │ group 2, ... │
//!            │  100, ports      │  └─────┬────────┘
//!            │  5000/5001       │        │
//!            └──┬────────┬──────┘     receivers
//!          receiver  receiver
//!           agents    agents           (one shared Simulator,
//!          (group 1) (group 1)          one shared topology)
//! ```
//!
//! Group ids, data/report ports and flow ids are auto-allocated so sessions
//! can never collide; explicit assignments are validated against every
//! previously added session (overlaps panic with a clear message, like the
//! netsim link-parameter validation).  The single-session
//! [`TfmccSessionBuilder`](crate::session::TfmccSessionBuilder) is a thin
//! wrapper over this type, so the two construction paths cannot drift.
//!
//! After the simulation ran, [`SessionManager::report`] condenses every
//! session into a [`SessionReport`]: per-session throughput (mean over the
//! receiver population plus a probe-receiver trace), CLR state and sender
//! statistics, and the cross-session Jain fairness index the inter-TFMCC
//! experiments plot.

use std::sync::Arc;

use netsim::packet::{AgentId, FlowId, GroupId, NodeId, Port};
use netsim::sim::Simulator;

use tfmcc_proto::config::TfmccConfig;
use tfmcc_proto::packets::ReceiverId;
use tfmcc_proto::sender::SenderStats;

use crate::population::{FluidPopulationAgent, PopulationSpec, FLUID_ID_BASE, FLUID_ID_POP_SHIFT};
use crate::receiver_agent::TfmccReceiverAgent;
use crate::sender_agent::TfmccSenderAgent;

/// Index of a session within its [`SessionManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub usize);

/// Parameters of one session to be added to a [`SessionManager`].
///
/// Group, ports and flow are auto-allocated when left `None` (the default):
/// session *i* gets group `1 + i`, data/report ports `5000 + 2i` /
/// `5001 + 2i` and flow `100 + i` — which makes the first auto-allocated
/// session identical to the historical single-session defaults — skipping
/// forward over any value an earlier explicitly addressed session already
/// holds, so defaulted sessions never collide.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Protocol configuration shared by the session's sender and receivers.
    pub config: TfmccConfig,
    /// Time at which the sender starts transmitting.
    pub start_at: f64,
    /// Record the sending-rate series into the statistics registry.
    pub record_rate_series: bool,
    /// Bin width (seconds) of each receiver's local throughput meter.
    pub meter_bin: f64,
    /// Multicast group (auto-allocated when `None`).
    pub group: Option<GroupId>,
    /// Port data packets are addressed to (auto-allocated when `None`).
    pub data_port: Option<Port>,
    /// Port the sender listens on for reports (auto-allocated when `None`).
    pub sender_port: Option<Port>,
    /// Flow id tagging the session's data packets (auto-allocated when
    /// `None`).
    pub flow: Option<FlowId>,
}

impl Default for SessionSpec {
    fn default() -> Self {
        SessionSpec {
            config: TfmccConfig::default(),
            start_at: 0.0,
            record_rate_series: false,
            meter_bin: 1.0,
            group: None,
            data_port: None,
            sender_port: None,
            flow: None,
        }
    }
}

impl SessionSpec {
    /// Delays the sender's start to `t` seconds of simulation time.
    pub fn starting_at(mut self, t: f64) -> Self {
        self.start_at = t;
        self
    }

    /// Records the sending-rate series into the statistics registry.
    pub fn with_rate_series(mut self) -> Self {
        self.record_rate_series = true;
        self
    }

    /// Uses `bin`-second bins for the receivers' throughput meters.
    pub fn with_meter_bin(mut self, bin: f64) -> Self {
        self.meter_bin = bin;
        self
    }

    /// Pins the session to an explicit group/port/flow assignment (validated
    /// against other sessions when the session is added).
    pub fn with_addressing(
        mut self,
        group: GroupId,
        data_port: Port,
        sender_port: Port,
        flow: FlowId,
    ) -> Self {
        self.group = Some(group);
        self.data_port = Some(data_port);
        self.sender_port = Some(sender_port);
        self.flow = Some(flow);
        self
    }
}

/// Handles to one built session.
#[derive(Debug, Clone)]
pub struct SessionHandle {
    /// The session's index within the manager.
    pub id: SessionId,
    /// The sender agent.
    pub sender: AgentId,
    /// The node the sender runs on.
    pub sender_node: NodeId,
    /// The packet-level receiver agents, in the order of the specs passed
    /// when adding.
    pub receivers: Vec<AgentId>,
    /// The fluid population agents, in the order of the fluid specs passed
    /// when adding (empty for a pure packet-level session).
    pub fluid: Vec<AgentId>,
    /// The session's multicast group.
    pub group: GroupId,
    /// The port data packets are addressed to.
    pub data_port: Port,
    /// The port the sender listens on for reports.
    pub sender_port: Port,
    /// The flow id tagging the session's data packets.
    pub flow: FlowId,
    /// The sender's start time.
    pub start_at: f64,
}

/// Condensed post-run state of one session.
#[derive(Debug, Clone)]
pub struct SessionSummary {
    /// The session's index within the manager.
    pub id: SessionId,
    /// The session's multicast group.
    pub group: GroupId,
    /// The flow id tagging the session's data packets.
    pub flow: FlowId,
    /// Number of packet-level receivers in the session.
    pub receivers: usize,
    /// Total receivers the session stands for at the end of the run: every
    /// packet-level receiver the sender knows plus the weights of all fluid
    /// population bins that reported.
    pub population: u64,
    /// Mean receiver throughput over the report window, bytes/second.
    pub mean_throughput: f64,
    /// Throughput trace (time, bytes/second) of the probe receiver (the
    /// session's first receiver).
    pub probe_trace: Vec<(f64, f64)>,
    /// The current limiting receiver at the end of the run.
    pub clr: Option<ReceiverId>,
    /// The sender's accumulated statistics (data packets, CLR changes,
    /// rounds, ...).
    pub sender_stats: SenderStats,
}

/// Per-session summaries plus cross-session fairness metrics.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// One summary per session, in session order.
    pub sessions: Vec<SessionSummary>,
    /// Start of the report window (seconds).
    pub from: f64,
    /// End of the report window (seconds).
    pub to: f64,
}

impl SessionReport {
    /// Jain's fairness index over the sessions' mean throughputs:
    /// `(Σx)² / (n · Σx²)`, 1.0 for perfectly equal rates, `1/n` when one
    /// session takes everything.  Returns 1.0 for an empty or all-idle
    /// report.
    pub fn jain_index(&self) -> f64 {
        jain_index(self.sessions.iter().map(|s| s.mean_throughput))
    }

    /// Smallest per-session mean throughput, bytes/second.
    pub fn min_throughput(&self) -> f64 {
        self.sessions
            .iter()
            .map(|s| s.mean_throughput)
            .fold(f64::INFINITY, f64::min)
    }

    /// Largest per-session mean throughput, bytes/second.
    pub fn max_throughput(&self) -> f64 {
        self.sessions
            .iter()
            .map(|s| s.mean_throughput)
            .fold(0.0, f64::max)
    }

    /// Sum of the per-session mean throughputs, bytes/second.
    pub fn total_throughput(&self) -> f64 {
        self.sessions.iter().map(|s| s.mean_throughput).sum()
    }
}

/// Jain's fairness index `(Σx)² / (n · Σx²)` over a set of allocations.
pub fn jain_index<I: IntoIterator<Item = f64>>(rates: I) -> f64 {
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    let mut n = 0usize;
    for x in rates {
        assert!(x >= 0.0 && x.is_finite(), "rates must be finite and ≥ 0");
        sum += x;
        sum_sq += x * x;
        n += 1;
    }
    if n == 0 || sum_sq == 0.0 {
        return 1.0;
    }
    sum * sum / (n as f64 * sum_sq)
}

/// A group/port/flow assignment handed out by
/// [`SessionManager::reserve_addressing`]: an address block a non-TFMCC
/// (competitor) flow can use on the same simulator without colliding with
/// any TFMCC session the manager owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionAddressing {
    /// Multicast group reserved for the flow (unicast flows may ignore it).
    pub group: GroupId,
    /// Port for the flow's data packets.
    pub data_port: Port,
    /// Port for the flow's feedback/report packets.
    pub sender_port: Port,
    /// Flow id tagging the flow's packets.
    pub flow: FlowId,
}

/// Owns N independent TFMCC sessions sharing one simulator.
#[derive(Debug, Clone, Default)]
pub struct SessionManager {
    sessions: Vec<SessionHandle>,
    reserved: Vec<SessionAddressing>,
}

impl SessionManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of sessions added so far.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True when no session has been added.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// The built sessions, in the order they were added.
    pub fn sessions(&self) -> &[SessionHandle] {
        &self.sessions
    }

    /// A session's handles.
    pub fn session(&self, id: SessionId) -> &SessionHandle {
        &self.sessions[id.0]
    }

    /// True if `g` is held by a session or a reservation.
    fn group_taken(&self, g: u32) -> bool {
        self.sessions.iter().any(|s| s.group.0 == g) || self.reserved.iter().any(|r| r.group.0 == g)
    }

    /// True if `p` is held by a session or a reservation (either role).
    fn port_taken(&self, p: u16) -> bool {
        self.sessions
            .iter()
            .any(|s| s.data_port.0 == p || s.sender_port.0 == p)
            || self
                .reserved
                .iter()
                .any(|r| r.data_port.0 == p || r.sender_port.0 == p)
    }

    /// True if `f` is held by a session or a reservation.
    fn flow_taken(&self, f: u64) -> bool {
        self.sessions.iter().any(|s| s.flow.0 == f) || self.reserved.iter().any(|r| r.flow.0 == f)
    }

    /// Reserves a group/port-pair/flow block for a *non-TFMCC* flow sharing
    /// the simulator — the heterogeneous-protocol wiring the cross-protocol
    /// fairness experiments use for PGMCC/TFRC/TCP competitors.  The block
    /// follows the same allocation sequence as auto-addressed sessions, is
    /// never handed out twice, and later TFMCC sessions (auto- or
    /// explicitly addressed) are kept clear of it.
    pub fn reserve_addressing(&mut self) -> SessionAddressing {
        let index = self.sessions.len() + self.reserved.len();
        let mut g = 1 + index as u32;
        while self.group_taken(g) {
            g += 1;
        }
        let mut base = 5000u16.checked_add(2 * index as u16).expect("port space");
        while self.port_taken(base) || self.port_taken(base + 1) {
            base = base.checked_add(2).expect("port space");
        }
        let mut f = 100 + index as u64;
        while self.flow_taken(f) {
            f += 1;
        }
        let addressing = SessionAddressing {
            group: GroupId(g),
            data_port: Port(base),
            sender_port: Port(base + 1),
            flow: FlowId(f),
        };
        self.reserved.push(addressing);
        addressing
    }

    /// Adds one session: attaches its sender to `sender_node`, one receiver
    /// agent per [`PopulationSpec::Packet`] entry and one fluid population
    /// agent per [`PopulationSpec::Fluid`] entry, all wired to the session's
    /// group and ports.
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
    /// Panics with a descriptive message when the spec is invalid: an empty
    /// population, a hybrid session without a packet-level receiver, an
    /// invalid fluid profile (zero count, bins outside 1..=64, loss outside
    /// `[0, 1)`, non-positive RTT), non-finite or negative times,
    /// non-positive churn periods, or a group/port/flow assignment
    /// overlapping a previously added session (see [`SessionSpec`] for the
    /// auto-allocation that makes overlaps impossible by default).
    pub fn add_population_session(
        &mut self,
        sim: &mut Simulator,
        spec: &SessionSpec,
        sender_node: NodeId,
        populations: &[PopulationSpec],
    ) -> SessionId {
        let id = SessionId(self.sessions.len());
        let index = id.0;
        // Auto-allocation starts from the historical single-session defaults
        // and skips anything an earlier (possibly explicitly addressed)
        // session already holds, so defaulted sessions can never collide.
        let group = spec.group.unwrap_or_else(|| {
            let mut g = 1 + index as u32;
            while self.group_taken(g) {
                g += 1;
            }
            GroupId(g)
        });
        let free_port_pair = || {
            let mut base = 5000u16.checked_add(2 * index as u16).expect("port space");
            while self.port_taken(base) || self.port_taken(base + 1) {
                base = base.checked_add(2).expect("port space");
            }
            (base, base + 1)
        };
        let (data_port, sender_port) = match (spec.data_port, spec.sender_port) {
            (Some(d), Some(s)) => (d, s),
            (Some(d), None) => (d, Port(d.0.checked_add(1).expect("port space"))),
            (None, Some(s)) => (Port(s.0.checked_sub(1).expect("port space")), s),
            (None, None) => {
                let (d, s) = free_port_pair();
                (Port(d), Port(s))
            }
        };
        let flow = spec.flow.unwrap_or_else(|| {
            let mut f = 100 + index as u64;
            while self.flow_taken(f) {
                f += 1;
            }
            FlowId(f)
        });
        self.validate(
            spec,
            group,
            data_port,
            sender_port,
            flow,
            sender_node,
            populations,
        );

        let sender_addr = netsim::packet::Address::new(sender_node, sender_port);
        let mut sender_agent = TfmccSenderAgent::new(
            tfmcc_proto::sender::TfmccSender::new(spec.config.clone()),
            group,
            data_port,
            flow,
        )
        .starting_at(spec.start_at);
        if spec.record_rate_series {
            sender_agent = sender_agent.with_rate_series();
        }
        let sender = sim.add_agent(sender_node, sender_port, Box::new(sender_agent));

        // One configuration for the session: every receiver shares it.
        let receiver_config = Arc::new(spec.config.clone());
        let mut receiver_ids = Vec::new();
        let mut fluid_ids = Vec::new();
        for pspec in populations {
            match pspec {
                PopulationSpec::Packet(rspec) => {
                    let mut agent = TfmccReceiverAgent::new(
                        ReceiverId(receiver_ids.len() as u64 + 1),
                        Arc::clone(&receiver_config),
                        sender_addr,
                        group,
                        flow,
                    )
                    .with_meter_bin(spec.meter_bin)
                    .joining_at(rspec.join_at);
                    if let Some(t) = rspec.leave_at {
                        agent = agent.leaving_at(t);
                    }
                    if let Some((on_secs, off_secs)) = rspec.churn {
                        agent = agent.churning(on_secs, off_secs);
                    }
                    let agent_id = sim.add_agent(rspec.node, data_port, Box::new(agent));
                    receiver_ids.push(agent_id);
                }
                PopulationSpec::Fluid(fspec) => {
                    let id_base = FLUID_ID_BASE + ((fluid_ids.len() as u64) << FLUID_ID_POP_SHIFT);
                    let agent = FluidPopulationAgent::new(
                        fspec,
                        spec.config.clone(),
                        id_base,
                        sender_addr,
                        group,
                        flow,
                    );
                    let agent_id = sim.add_agent(fspec.node, data_port, Box::new(agent));
                    fluid_ids.push(agent_id);
                }
            }
        }
        self.sessions.push(SessionHandle {
            id,
            sender,
            sender_node,
            receivers: receiver_ids,
            fluid: fluid_ids,
            group,
            data_port,
            sender_port,
            flow,
            start_at: spec.start_at,
        });
        id
    }

    /// Input validation shared by every construction path (the session-layer
    /// counterpart of netsim's link-parameter validation).
    #[allow(
        clippy::too_many_arguments,
        reason = "checks every id a construction path allocates; a struct would exist only to be destructured here"
    )]
    fn validate(
        &self,
        spec: &SessionSpec,
        group: GroupId,
        data_port: Port,
        sender_port: Port,
        flow: FlowId,
        sender_node: NodeId,
        populations: &[PopulationSpec],
    ) {
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
            spec.start_at.is_finite() && spec.start_at >= 0.0,
            "session start_at must be finite and ≥ 0, got {}",
            spec.start_at
        );
        assert!(
            spec.meter_bin.is_finite() && spec.meter_bin > 0.0,
            "session meter_bin must be a positive number of seconds, got {}",
            spec.meter_bin
        );
        assert!(
            data_port != sender_port,
            "data port and sender report port must differ, got {} for both",
            data_port.0
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
                // bins in 1..=64, loss within [0, 1), positive finite RTT).
                PopulationSpec::Fluid(f) => f.profile().validate(),
            }
        }
        for other in &self.sessions {
            assert!(
                other.group != group,
                "session {} already uses multicast group {}; give each session its own group \
                 (or let the manager auto-allocate)",
                other.id.0,
                group.0
            );
            assert!(
                other.flow != flow,
                "session {} already uses flow id {}; per-session statistics need distinct flows",
                other.id.0,
                flow.0
            );
            assert!(
                other.data_port != data_port && other.data_port != sender_port,
                "session {} already binds receivers to port {}; overlapping ports would \
                 cross-deliver data packets",
                other.id.0,
                other.data_port.0
            );
            assert!(
                !(other.sender_node == sender_node
                    && (other.sender_port == sender_port || other.sender_port == data_port)),
                "session {} already binds its sender to port {} on node {}; reports would \
                 cross-deliver",
                other.id.0,
                other.sender_port.0,
                sender_node.0
            );
        }
        for r in &self.reserved {
            assert!(
                r.group != group,
                "multicast group {} is reserved for a competitor flow",
                group.0
            );
            assert!(
                r.flow != flow,
                "flow id {} is reserved for a competitor flow",
                flow.0
            );
            assert!(
                r.data_port != data_port
                    && r.data_port != sender_port
                    && r.sender_port != data_port
                    && r.sender_port != sender_port,
                "ports {}/{} overlap an addressing block reserved for a competitor flow",
                data_port.0,
                sender_port.0
            );
        }
    }

    /// Borrow a session's sender agent.
    pub fn sender_agent<'a>(&self, sim: &'a Simulator, id: SessionId) -> &'a TfmccSenderAgent {
        sim.agent(self.session(id).sender)
            .expect("sender agent exists")
    }

    /// Borrow a session's fluid population agent by index (the order of the
    /// fluid entries passed when adding).
    pub fn fluid_agent<'a>(
        &self,
        sim: &'a Simulator,
        id: SessionId,
        index: usize,
    ) -> &'a FluidPopulationAgent {
        sim.agent(self.session(id).fluid[index])
            .expect("fluid population agent exists")
    }

    /// Borrow a session's receiver agent by index.
    pub fn receiver_agent<'a>(
        &self,
        sim: &'a Simulator,
        id: SessionId,
        index: usize,
    ) -> &'a TfmccReceiverAgent {
        sim.agent(self.session(id).receivers[index])
            .expect("receiver agent exists")
    }

    /// Average throughput seen by a session's receiver over `[from, to]`,
    /// in bytes per second.
    pub fn receiver_throughput(
        &self,
        sim: &Simulator,
        id: SessionId,
        index: usize,
        from: f64,
        to: f64,
    ) -> f64 {
        self.receiver_agent(sim, id, index)
            .meter()
            .average_between(from, to)
    }

    /// Mean receiver throughput of one session over `[from, to]`, in bytes
    /// per second.
    pub fn session_throughput(&self, sim: &Simulator, id: SessionId, from: f64, to: f64) -> f64 {
        let handle = self.session(id);
        let sum: f64 = handle
            .receivers
            .iter()
            .map(|&r| {
                sim.agent::<TfmccReceiverAgent>(r)
                    .expect("receiver agent exists")
                    .meter()
                    .average_between(from, to)
            })
            .sum();
        sum / handle.receivers.len() as f64
    }

    /// Condenses every session's post-run state over the window `[from, to]`.
    pub fn report(&self, sim: &Simulator, from: f64, to: f64) -> SessionReport {
        let sessions = self
            .sessions
            .iter()
            .map(|handle| {
                let sender = self.sender_agent(sim, handle.id).protocol();
                SessionSummary {
                    id: handle.id,
                    group: handle.group,
                    flow: handle.flow,
                    receivers: handle.receivers.len(),
                    population: sender.session_population(),
                    mean_throughput: self.session_throughput(sim, handle.id, from, to),
                    probe_trace: self.receiver_agent(sim, handle.id, 0).meter().series(),
                    clr: sender.clr(),
                    sender_stats: sender.stats(),
                }
            })
            .collect();
        SessionReport { sessions, from, to }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ReceiverSpec;
    use netsim::prelude::*;

    fn star_with_legs(sim: &mut Simulator, n: usize) -> Star {
        let legs: Vec<StarLeg> = (0..n).map(|_| StarLeg::clean(1_250_000.0, 0.02)).collect();
        star(sim, &StarConfig::default(), &legs)
    }

    #[test]
    fn auto_allocation_matches_single_session_defaults_then_advances() {
        let mut sim = Simulator::new(7);
        let st = star_with_legs(&mut sim, 4);
        let mut mgr = SessionManager::new();
        let a = mgr.add_population_session(
            &mut sim,
            &SessionSpec::default(),
            st.sender,
            &[
                PopulationSpec::packet(st.receivers[0]),
                PopulationSpec::packet(st.receivers[1]),
            ],
        );
        let b = mgr.add_population_session(
            &mut sim,
            &SessionSpec::default(),
            st.receivers[2],
            &[PopulationSpec::packet(st.receivers[3])],
        );
        assert_eq!(mgr.len(), 2);
        let a = mgr.session(a);
        assert_eq!(
            (a.group, a.data_port, a.sender_port, a.flow),
            (GroupId(1), Port(5000), Port(5001), FlowId(100))
        );
        let b = mgr.session(b);
        assert_eq!(
            (b.group, b.data_port, b.sender_port, b.flow),
            (GroupId(2), Port(5002), Port(5003), FlowId(101))
        );
    }

    #[test]
    fn auto_allocation_skips_values_held_by_explicit_sessions() {
        let mut sim = Simulator::new(7);
        let st = star_with_legs(&mut sim, 4);
        let mut mgr = SessionManager::new();
        // An explicit session squats on the values a second defaulted
        // session would otherwise auto-allocate (group 2, ports 5002/5003,
        // flow 101).
        let explicit =
            SessionSpec::default().with_addressing(GroupId(2), Port(5002), Port(5003), FlowId(101));
        mgr.add_population_session(
            &mut sim,
            &explicit,
            st.sender,
            &[PopulationSpec::packet(st.receivers[0])],
        );
        let first = mgr.add_population_session(
            &mut sim,
            &SessionSpec::default(),
            st.receivers[1],
            &[PopulationSpec::packet(st.receivers[2])],
        );
        let second = mgr.add_population_session(
            &mut sim,
            &SessionSpec::default(),
            st.receivers[2],
            &[PopulationSpec::packet(st.receivers[3])],
        );
        let first = mgr.session(first);
        assert_eq!(
            (first.group, first.data_port, first.sender_port, first.flow),
            (GroupId(3), Port(5004), Port(5005), FlowId(102))
        );
        let second = mgr.session(second);
        assert_eq!(
            (
                second.group,
                second.data_port,
                second.sender_port,
                second.flow
            ),
            (GroupId(4), Port(5006), Port(5007), FlowId(103))
        );
    }

    #[test]
    #[should_panic(expected = "needs at least one receiver")]
    fn zero_receivers_are_rejected() {
        let mut sim = Simulator::new(7);
        let st = star_with_legs(&mut sim, 1);
        SessionManager::new().add_population_session(
            &mut sim,
            &SessionSpec::default(),
            st.sender,
            &[],
        );
    }

    #[test]
    #[should_panic(expected = "churn periods must be positive")]
    fn non_positive_churn_is_rejected() {
        let mut sim = Simulator::new(7);
        let st = star_with_legs(&mut sim, 1);
        let mut spec = ReceiverSpec::always(st.receivers[0]);
        spec.churn = Some((10.0, 0.0));
        SessionManager::new().add_population_session(
            &mut sim,
            &SessionSpec::default(),
            st.sender,
            &[PopulationSpec::Packet(spec)],
        );
    }

    #[test]
    #[should_panic(expected = "leave_at and churn are exclusive")]
    fn leave_and_churn_are_exclusive() {
        let mut sim = Simulator::new(7);
        let st = star_with_legs(&mut sim, 1);
        let mut spec = ReceiverSpec::always(st.receivers[0]).leaving_at(5.0);
        spec.churn = Some((1.0, 1.0));
        SessionManager::new().add_population_session(
            &mut sim,
            &SessionSpec::default(),
            st.sender,
            &[PopulationSpec::Packet(spec)],
        );
    }

    #[test]
    #[should_panic(expected = "already uses multicast group")]
    fn overlapping_groups_are_rejected() {
        let mut sim = Simulator::new(7);
        let st = star_with_legs(&mut sim, 2);
        let mut mgr = SessionManager::new();
        let spec =
            SessionSpec::default().with_addressing(GroupId(9), Port(6000), Port(6001), FlowId(500));
        mgr.add_population_session(
            &mut sim,
            &spec,
            st.sender,
            &[PopulationSpec::packet(st.receivers[0])],
        );
        let clash =
            SessionSpec::default().with_addressing(GroupId(9), Port(7000), Port(7001), FlowId(501));
        mgr.add_population_session(
            &mut sim,
            &clash,
            st.receivers[1],
            &[PopulationSpec::packet(st.receivers[0])],
        );
    }

    #[test]
    #[should_panic(expected = "overlapping ports")]
    fn overlapping_data_ports_are_rejected() {
        let mut sim = Simulator::new(7);
        let st = star_with_legs(&mut sim, 2);
        let mut mgr = SessionManager::new();
        let spec =
            SessionSpec::default().with_addressing(GroupId(9), Port(6000), Port(6001), FlowId(500));
        mgr.add_population_session(
            &mut sim,
            &spec,
            st.sender,
            &[PopulationSpec::packet(st.receivers[0])],
        );
        let clash = SessionSpec::default().with_addressing(
            GroupId(10),
            Port(6000),
            Port(7001),
            FlowId(501),
        );
        mgr.add_population_session(
            &mut sim,
            &clash,
            st.receivers[1],
            &[PopulationSpec::packet(st.receivers[0])],
        );
    }

    #[test]
    fn reserved_addressing_is_skipped_by_auto_allocation() {
        let mut sim = Simulator::new(7);
        let st = star_with_legs(&mut sim, 2);
        let mut mgr = SessionManager::new();
        // A competitor flow reserves what would have been the first
        // session's defaults…
        let reserved = mgr.reserve_addressing();
        assert_eq!(
            reserved,
            SessionAddressing {
                group: GroupId(1),
                data_port: Port(5000),
                sender_port: Port(5001),
                flow: FlowId(100),
            }
        );
        // …so the first auto-addressed TFMCC session moves past it.
        let id = mgr.add_population_session(
            &mut sim,
            &SessionSpec::default(),
            st.sender,
            &[PopulationSpec::packet(st.receivers[0])],
        );
        let s = mgr.session(id);
        assert_eq!(
            (s.group, s.data_port, s.sender_port, s.flow),
            (GroupId(2), Port(5002), Port(5003), FlowId(101))
        );
        // A second reservation advances past both.
        let second = mgr.reserve_addressing();
        assert_eq!(
            second,
            SessionAddressing {
                group: GroupId(3),
                data_port: Port(5004),
                sender_port: Port(5005),
                flow: FlowId(102),
            }
        );
    }

    #[test]
    #[should_panic(expected = "reserved for a competitor flow")]
    fn explicit_addressing_cannot_squat_on_a_reservation() {
        let mut sim = Simulator::new(7);
        let st = star_with_legs(&mut sim, 1);
        let mut mgr = SessionManager::new();
        let reserved = mgr.reserve_addressing();
        let clash = SessionSpec::default().with_addressing(
            reserved.group,
            Port(9000),
            Port(9001),
            FlowId(900),
        );
        mgr.add_population_session(
            &mut sim,
            &clash,
            st.sender,
            &[PopulationSpec::packet(st.receivers[0])],
        );
    }

    #[test]
    fn jain_index_extremes() {
        assert_eq!(jain_index([100.0, 100.0, 100.0, 100.0]), 1.0);
        let skewed = jain_index([100.0, 0.0, 0.0, 0.0]);
        assert!((skewed - 0.25).abs() < 1e-12, "got {skewed}");
        assert_eq!(jain_index(std::iter::empty()), 1.0);
        assert_eq!(jain_index([0.0, 0.0]), 1.0);
    }

    /// Two concurrent sessions over one shared bottleneck split it roughly
    /// fairly, and the report exposes per-session state.
    #[test]
    fn two_sessions_share_a_bottleneck() {
        let mut sim = Simulator::new(42);
        // Shared bottleneck: s0/s1 -> hub -> r0/r1.
        let s0 = sim.add_node("s0");
        let s1 = sim.add_node("s1");
        let hub = sim.add_node("hub");
        let sink = sim.add_node("sink");
        let r0 = sim.add_node("r0");
        let r1 = sim.add_node("r1");
        sim.add_duplex_link(s0, hub, 1_250_000.0, 0.005, QueueDiscipline::drop_tail(60));
        sim.add_duplex_link(s1, hub, 1_250_000.0, 0.005, QueueDiscipline::drop_tail(60));
        // 2 Mbit/s shared bottleneck.
        sim.add_duplex_link(hub, sink, 250_000.0, 0.02, QueueDiscipline::drop_tail(40));
        sim.add_duplex_link(sink, r0, 1_250_000.0, 0.005, QueueDiscipline::drop_tail(60));
        sim.add_duplex_link(sink, r1, 1_250_000.0, 0.005, QueueDiscipline::drop_tail(60));

        let mut mgr = SessionManager::new();
        mgr.add_population_session(
            &mut sim,
            &SessionSpec::default(),
            s0,
            &[PopulationSpec::packet(r0)],
        );
        mgr.add_population_session(
            &mut sim,
            &SessionSpec::default().starting_at(10.0),
            s1,
            &[PopulationSpec::packet(r1)],
        );
        sim.run_until(SimTime::from_secs(220.0));

        let report = mgr.report(&sim, 100.0, 215.0);
        assert_eq!(report.sessions.len(), 2);
        for s in &report.sessions {
            assert!(
                s.mean_throughput > 20_000.0,
                "session {} starved: {} B/s",
                s.id.0,
                s.mean_throughput
            );
            assert!(s.sender_stats.data_packets > 0);
            assert!(!s.probe_trace.is_empty());
        }
        let jain = report.jain_index();
        assert!(
            jain > 0.70,
            "two identical TFMCC sessions should share fairly: Jain {jain}, rates {} vs {}",
            report.sessions[0].mean_throughput,
            report.sessions[1].mean_throughput
        );
        assert!(
            report.total_throughput() <= 300_000.0,
            "cannot exceed the bottleneck"
        );
        assert!(report.min_throughput() <= report.max_throughput());
    }
}
