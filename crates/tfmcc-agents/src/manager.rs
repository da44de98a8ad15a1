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
//! The manager hands out addressing blocks from one counter: block *i* is
//! group `1 + i`, data/report ports `5000 + 2i` / `5001 + 2i` and flow
//! `100 + i`, so the first session gets the single-session defaults and no
//! two sessions or reservations can collide.  It builds every session
//! through [`TfmccSessionBuilder`], which owns the wiring and the input
//! validation, so there is one construction path.
//!
//! After the simulation ran, [`SessionManager::report`] condenses every
//! session into a [`SessionReport`]: per-session throughput (mean over the
//! receiver population plus a probe-receiver trace), CLR state and sender
//! statistics, and the cross-session Jain fairness index the inter-TFMCC
//! experiments plot.

use netsim::packet::{FlowId, GroupId, NodeId, Port};
use netsim::sim::Simulator;

use tfmcc_proto::packets::ReceiverId;
use tfmcc_proto::sender::SenderStats;

use crate::population::PopulationSpec;
use crate::session::{TfmccSession, TfmccSessionBuilder};

/// Index of a session within its [`SessionManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub usize);

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

/// A group/port/flow block handed out by a [`SessionManager`]: to a TFMCC
/// session it builds, or through [`SessionManager::reserve_addressing`] to
/// a non-TFMCC (competitor) flow sharing the simulator.
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

impl SessionAddressing {
    /// Block `index` of the manager's sequence: what its `index`-th
    /// session or reservation takes.
    pub fn block(index: usize) -> Self {
        let base = u16::try_from(5000 + 2 * index).expect("port space");
        SessionAddressing {
            group: GroupId(1 + index as u32),
            data_port: Port(base),
            sender_port: Port(base + 1),
            flow: FlowId(100 + index as u64),
        }
    }
}

/// Owns N independent TFMCC sessions sharing one simulator.
#[derive(Debug, Clone, Default)]
pub struct SessionManager {
    sessions: Vec<TfmccSession>,
    /// Addressing blocks taken so far, by sessions and reservations alike.
    blocks: usize,
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
    pub fn sessions(&self) -> &[TfmccSession] {
        &self.sessions
    }

    /// A session's handles.
    pub fn session(&self, id: SessionId) -> &TfmccSession {
        &self.sessions[id.0]
    }

    /// Reserves the next addressing block for a *non-TFMCC* flow sharing
    /// the simulator — the heterogeneous-protocol wiring the cross-protocol
    /// fairness experiments use for PGMCC and TCP competitors.  Sessions and
    /// reservations draw from one sequence, in call order, so no block is
    /// handed out twice.
    pub fn reserve_addressing(&mut self) -> SessionAddressing {
        let block = SessionAddressing::block(self.blocks);
        self.blocks += 1;
        block
    }

    /// Adds one session on the next addressing block, with the default
    /// configuration and its sender starting at `start_at`: see
    /// [`TfmccSessionBuilder::build_population`] for the wiring, the
    /// CLR-cohort promotion rule and the validation panics.  A rejected
    /// session takes no block.
    pub fn add_population_session(
        &mut self,
        sim: &mut Simulator,
        start_at: f64,
        sender_node: NodeId,
        populations: &[PopulationSpec],
    ) -> SessionId {
        let block = SessionAddressing::block(self.blocks);
        let session = TfmccSessionBuilder {
            group: block.group,
            data_port: block.data_port,
            sender_port: block.sender_port,
            flow: block.flow,
            start_at,
            ..TfmccSessionBuilder::default()
        }
        .build_population(sim, sender_node, populations);
        self.blocks += 1;
        self.sessions.push(session);
        SessionId(self.sessions.len() - 1)
    }

    /// Condenses every session's post-run state over the window `[from, to]`.
    pub fn report(&self, sim: &Simulator, from: f64, to: f64) -> SessionReport {
        let sessions = self
            .sessions
            .iter()
            .enumerate()
            .map(|(i, session)| {
                let sender = session.sender_agent(sim).protocol();
                SessionSummary {
                    id: SessionId(i),
                    group: session.group,
                    flow: session.flow,
                    receivers: session.receivers.len(),
                    population: sender.session_population(),
                    mean_throughput: session.mean_throughput(sim, from, to),
                    probe_trace: session.receiver_agent(sim, 0).meter().series(),
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
            0.0,
            st.sender,
            &[
                PopulationSpec::packet(st.receivers[0]),
                PopulationSpec::packet(st.receivers[1]),
            ],
        );
        let b = mgr.add_population_session(
            &mut sim,
            0.0,
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
    #[should_panic(expected = "needs at least one receiver")]
    fn zero_receivers_are_rejected() {
        let mut sim = Simulator::new(7);
        let st = star_with_legs(&mut sim, 1);
        SessionManager::new().add_population_session(&mut sim, 0.0, st.sender, &[]);
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
            0.0,
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
            0.0,
            st.sender,
            &[PopulationSpec::Packet(spec)],
        );
    }

    #[test]
    fn a_rejected_session_takes_no_block() {
        let mut sim = Simulator::new(7);
        let st = star_with_legs(&mut sim, 1);
        let mut mgr = SessionManager::new();
        let rejected = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mgr.add_population_session(&mut sim, f64::NAN, st.sender, &[]);
        }));
        assert!(rejected.is_err(), "bad input must panic");
        assert!(mgr.is_empty());
        let id = mgr.add_population_session(
            &mut sim,
            0.0,
            st.sender,
            &[PopulationSpec::packet(st.receivers[0])],
        );
        assert_eq!(id, SessionId(0));
        assert_eq!(mgr.session(id).group, GroupId(1));
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
            0.0,
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
        mgr.add_population_session(&mut sim, 0.0, s0, &[PopulationSpec::packet(r0)]);
        mgr.add_population_session(&mut sim, 10.0, s1, &[PopulationSpec::packet(r1)]);
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
