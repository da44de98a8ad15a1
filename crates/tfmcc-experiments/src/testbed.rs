//! Figures as scenarios: one testbed wires every simulated figure point.
//!
//! A figure point describes its run with plain values — a [`Topology`] (the
//! paper's dumbbell, a tail-circuit star, or the shared-bottleneck [`Core`]
//! of the multi-session figures) and a list of [`Flow`]s — and the testbed
//! wires them in one order: [`Testbed::new`] builds the topology, then
//! [`Testbed::wire`] adds the flows in list order (a session's sender, then
//! its receivers; a TCP flow's sink, then its sender; a PGMCC flow's sender,
//! then its receiver).  Every figure lists its sessions before its
//! cross-traffic, except fig24's matrix, which lists its flows in protocol
//! order.  Node, link and agent ids follow creation order and the
//! simulator breaks event ties by it, so the order is part of every pinned
//! figure.
//!
//! Flow `i` owns addressing [`block`]`(i)`: a session is built on it, a
//! PGMCC flow binds it, and a TCP flow names its own addresses and leaves
//! its block unused.  The block is computed from the flow's place in the
//! testbed's one flow list, so no two sessions or PGMCC flows of a point
//! share a group, a port or a flow id.

use std::ops::ControlFlow;

use netsim::packet::{AgentId, LinkId, NodeId};
use netsim::prelude::*;
use tfmcc_agents::population::PopulationSpec;
use tfmcc_agents::session::{TfmccSession, TfmccSessionBuilder};
use tfmcc_baselines::pgmcc::{PgmccReceiverAgent, PgmccSenderAgent};
use tfmcc_baselines::tcp::{self, TcpSenderConfig, TcpSink};

/// Converts bytes/second to kbit/s.
pub fn kbit(bytes_per_sec: f64) -> f64 {
    bytes_per_sec * 8.0 / 1000.0
}

/// Addressing block `index`, as the session builder flow `index` of a
/// testbed is built with: group `1 + index`, data/report ports
/// `5000 + 2·index` / `5001 + 2·index` and flow `100 + index`.  Block 0 is
/// [`TfmccSessionBuilder::default`].
pub fn block(index: usize) -> TfmccSessionBuilder {
    let base = u16::try_from(5000 + 2 * index).expect("port space");
    TfmccSessionBuilder {
        group: GroupId(1 + index as u32),
        data_port: Port(base),
        sender_port: Port(base + 1),
        flow: FlowId(100 + index as u64),
        ..TfmccSessionBuilder::default()
    }
}

/// Jain's fairness index `(Σx)² / (n · Σx²)` over a set of allocations:
/// 1.0 for equal rates, `1/n` when one takes everything, and 1.0 for none
/// or all zero.
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

/// The topology a figure point runs on.
#[derive(Debug, Clone)]
pub enum Topology {
    /// A single-bottleneck dumbbell (paper Figure 8).
    Dumbbell(DumbbellConfig),
    /// A star: the sender behind a hub, one leg per receiver.
    Star(StarConfig, Vec<StarLeg>),
    /// The shared bottleneck of the multi-session figures.
    Core(Core),
}

/// The shared-bottleneck core: left and right routers joined by an
/// 8 Mbit/s bottleneck.  Each host hangs a sender off the left router (a
/// 10 Mbit/s, 5 ms leg), then its 10 Mbit/s receiver legs and, with
/// `fluid_legs`, a 100 Mbit/s fluid attachment leg off the right router.
#[derive(Debug, Clone)]
pub struct Core {
    /// One-way delay of the bottleneck in seconds.
    pub delay: f64,
    /// Queue discipline of the bottleneck.
    pub queue: QueueDiscipline,
    /// Bernoulli loss on both bottleneck directions, if any.
    pub loss: Option<f64>,
    /// Per host, the one-way delay of each of its receiver legs.
    pub hosts: Vec<Vec<f64>>,
    /// Whether every host also gets a fluid attachment leg.
    pub fluid_legs: bool,
}

/// The staggered receiver-leg delay of the core figures,
/// `0.005 + 0.002·(i mod m)` seconds.
pub fn stagger(i: usize, m: usize) -> f64 {
    0.005 + 0.002 * (i % m) as f64
}

/// The nodes and links of a built topology that flows attach to.
#[derive(Debug, Clone, Default)]
pub struct Layout {
    /// Sender hosts: the star's sender, the dumbbell's or the core's hosts.
    pub senders: Vec<NodeId>,
    /// Receiver hosts in creation order (the core's host by host).
    pub receivers: Vec<NodeId>,
    /// The core's fluid attachment nodes, one per host.
    pub fluid: Vec<NodeId>,
    /// The `(down, up)` links of each receiver leg; empty for the dumbbell.
    pub legs: Vec<(LinkId, LinkId)>,
}

/// One flow of a figure point.
#[derive(Debug, Clone)]
pub enum Flow {
    /// A TFMCC session (a TFRC flow is a one-receiver session).
    Tfmcc {
        /// The sender's node.
        sender: NodeId,
        /// When the sender starts, in seconds.
        start_at: f64,
        /// The receiver populations, in `ReceiverId` order.
        populations: Vec<PopulationSpec>,
    },
    /// A greedy TCP flow ([`tcp::add_flow`]).
    Tcp {
        /// Where the sender is bound.
        src: Address,
        /// The sender; its destination is where the sink is bound.
        sender: TcpSenderConfig,
        /// Bin width of the sink's goodput meter, in seconds.
        sink_bin: f64,
    },
    /// A PGMCC flow from a sender node to one receiver node.
    Pgmcc(NodeId, NodeId),
}

impl Flow {
    /// A TFMCC session whose sender starts at time 0.
    pub fn session(sender: NodeId, populations: Vec<PopulationSpec>) -> Self {
        Flow::Tfmcc {
            sender,
            start_at: 0.0,
            populations,
        }
    }

    /// A TCP flow from `src` to a sink at `dst` that starts at time 0.
    pub fn tcp(src: Address, dst: Address, flow: FlowId, sink_bin: f64) -> Self {
        let sender = TcpSenderConfig::new(dst, flow);
        Flow::Tcp {
            src,
            sender,
            sink_bin,
        }
    }
}

/// One TCP flow per receiver, as the star figures run them: flow `i` goes
/// from port `100 + i` of `sender` to port 1 of `receivers[i]` with flow id
/// `flow_base + i`.
pub fn tcp_per_receiver(
    sender: NodeId,
    receivers: &[NodeId],
    flow_base: u64,
    sink_bin: f64,
) -> Vec<Flow> {
    receivers
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            let src = Address::new(sender, Port(100 + i as u16));
            Flow::tcp(
                src,
                Address::new(r, Port(1)),
                FlowId(flow_base + i as u64),
                sink_bin,
            )
        })
        .collect()
}

/// What a wired flow is read through: its session, TCP sink or PGMCC
/// receiver.
#[derive(Debug, Clone)]
enum Handle {
    Session(TfmccSession),
    Tcp(AgentId),
    Pgmcc(AgentId),
}

/// A figure point's simulator with its topology built and its flows wired.
pub struct Testbed {
    /// The simulator.
    pub sim: Simulator,
    /// Where the flows attach.
    pub layout: Layout,
    flows: Vec<Handle>,
}

impl Testbed {
    /// Builds `topology` into a simulator seeded with `seed`.
    pub fn new(seed: u64, topology: &Topology) -> Self {
        let mut sim = Simulator::new(seed);
        let layout = match topology {
            Topology::Dumbbell(cfg) => {
                let d = dumbbell(&mut sim, cfg);
                Layout {
                    senders: d.senders,
                    receivers: d.receivers,
                    ..Layout::default()
                }
            }
            Topology::Star(cfg, legs) => {
                let s = star(&mut sim, cfg, legs);
                let legs = s.downstream_links.into_iter().zip(s.upstream_links);
                Layout {
                    senders: vec![s.sender],
                    receivers: s.receivers,
                    fluid: Vec::new(),
                    legs: legs.collect(),
                }
            }
            Topology::Core(core) => build_core(&mut sim, core),
        };
        Testbed {
            sim,
            layout,
            flows: Vec::new(),
        }
    }

    /// Wires `flows` in list order (see the [module documentation](self)).
    pub fn wire(&mut self, flows: impl IntoIterator<Item = Flow>) {
        for flow in flows {
            let sim = &mut self.sim;
            let a = block(self.flows.len());
            let handle = match flow {
                Flow::Tfmcc {
                    sender,
                    start_at,
                    populations,
                } => Handle::Session(TfmccSessionBuilder { start_at, ..a }.build_population(
                    sim,
                    sender,
                    &populations,
                )),
                Flow::Tcp {
                    src,
                    sender,
                    sink_bin,
                } => Handle::Tcp(tcp::add_flow(sim, src, sender, sink_bin)),
                Flow::Pgmcc(sender, receiver) => {
                    let agent = PgmccSenderAgent::new(a.group, a.data_port, a.flow);
                    let sender_agent = sim.add_agent(sender, a.sender_port, Box::new(agent));
                    let agent =
                        PgmccReceiverAgent::new(1, sim.agent_addr(sender_agent), a.group, a.flow);
                    Handle::Pgmcc(sim.add_agent(receiver, a.data_port, Box::new(agent)))
                }
            };
            self.flows.push(handle);
        }
    }

    /// Runs the simulation up to `secs`.
    pub fn run_until(&mut self, secs: f64) {
        self.sim.run_until(SimTime::from_secs(secs));
    }

    /// Runs on from `from` in `step`-second slices while the clock is short
    /// of `until`, calling `probe` with each slice's end time; stops at the
    /// first `Break` and returns its value.
    pub fn sample<B>(
        &mut self,
        from: f64,
        step: f64,
        until: f64,
        mut probe: impl FnMut(&Self, f64) -> ControlFlow<B>,
    ) -> Option<B> {
        let mut t = from;
        while t < until {
            t += step;
            self.run_until(t);
            if let ControlFlow::Break(b) = probe(self, t) {
                return Some(b);
            }
        }
        None
    }

    /// The session wired as flow `flow`; panics if it is not a session.
    pub fn session(&self, flow: usize) -> &TfmccSession {
        match &self.flows[flow] {
            Handle::Session(session) => session,
            _ => panic!("flow {flow} is not a TFMCC session"),
        }
    }

    /// The throughput meter of flow `flow`: a session's first receiver, a
    /// TCP sink or a PGMCC receiver.
    pub fn meter(&self, flow: usize) -> &ThroughputMeter {
        let sim = &self.sim;
        match &self.flows[flow] {
            Handle::Session(session) => session.receiver_agent(sim, 0).meter(),
            Handle::Tcp(sink) => sim.agent::<TcpSink>(*sink).expect("tcp sink").meter(),
            Handle::Pgmcc(rx) => {
                let rx = sim.agent::<PgmccReceiverAgent>(*rx);
                rx.expect("pgmcc receiver").meter()
            }
        }
    }

    /// Flow `flow`'s throughput as a `(time, kbit/s)` series.
    pub fn series(&self, flow: usize) -> Vec<(f64, f64)> {
        self.meter(flow)
            .series()
            .into_iter()
            .map(|(t, bytes_per_sec)| (t, kbit(bytes_per_sec)))
            .collect()
    }

    /// Flow `flow`'s mean throughput over `[from, to]`, in kbit/s.
    pub fn mean_kbit(&self, flow: usize, from: f64, to: f64) -> f64 {
        kbit(self.meter(flow).average_between(from, to))
    }

    /// The bin-by-bin sum of the flows' kbit/s series; a series longer than
    /// the sum so far extends it.
    pub fn aggregate(&self, flows: impl IntoIterator<Item = usize>) -> Vec<(f64, f64)> {
        let mut sum: Vec<(f64, f64)> = Vec::new();
        for flow in flows {
            for (i, (t, y)) in self.series(flow).into_iter().enumerate() {
                match sum.get_mut(i) {
                    Some(slot) => slot.1 += y,
                    None => sum.push((t, y)),
                }
            }
        }
        sum
    }
}

/// Builds the shared-bottleneck [`Core`].
fn build_core(sim: &mut Simulator, core: &Core) -> Layout {
    let (left, right) = (sim.add_node("left"), sim.add_node("right"));
    let bottleneck = core.queue.clone();
    let (lr, rl) = sim.add_duplex_link(left, right, 1_000_000.0, core.delay, bottleneck);
    if let Some(p) = core.loss {
        sim.set_link_loss(lr, LossModel::Bernoulli { p });
        sim.set_link_loss(rl, LossModel::Bernoulli { p });
    }
    let q = QueueDiscipline::drop_tail(60);
    let mut layout = Layout::default();
    for delays in &core.hosts {
        let sender = sim.add_node("sender");
        sim.add_duplex_link(sender, left, 1_250_000.0, 0.005, q.clone());
        layout.senders.push(sender);
        for &delay in delays {
            let node = sim.add_node("receiver");
            let leg = sim.add_duplex_link(right, node, 1_250_000.0, delay, q.clone());
            layout.receivers.push(node);
            layout.legs.push(leg);
        }
        if core.fluid_legs {
            let node = sim.add_node("fluid");
            sim.add_duplex_link(right, node, 12_500_000.0, 0.005, q.clone());
            layout.fluid.push(node);
        }
    }
    layout
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfmcc_agents::session::TfmccSessionBuilder;
    use tfmcc_baselines::tcp::{TcpSender, TcpSenderConfig};

    fn legs() -> Vec<StarLeg> {
        vec![
            StarLeg::clean(125_000.0, 0.02),
            StarLeg::clean(250_000.0, 0.03).with_downstream_loss(0.01),
        ]
    }

    #[test]
    fn jain_index_extremes() {
        assert_eq!(jain_index([100.0, 100.0, 100.0, 100.0]), 1.0);
        let skewed = jain_index([100.0, 0.0, 0.0, 0.0]);
        assert!((skewed - 0.25).abs() < 1e-12, "got {skewed}");
        assert_eq!(jain_index(std::iter::empty()), 1.0);
        assert_eq!(jain_index([0.0, 0.0]), 1.0);
    }

    /// Two concurrent sessions over one 2 Mbit/s dumbbell bottleneck, on
    /// blocks 0 and 1, split it roughly fairly.
    #[test]
    fn two_sessions_share_a_bottleneck() {
        let dumbbell = DumbbellConfig {
            bottleneck_bandwidth: 250_000.0,
            bottleneck_queue: QueueDiscipline::drop_tail(40),
            access_bandwidth: 1_250_000.0,
            access_delay: 0.005,
            ..DumbbellConfig::default()
        };
        let mut bed = Testbed::new(42, &Topology::Dumbbell(dumbbell));
        let (senders, receivers) = (bed.layout.senders.clone(), bed.layout.receivers.clone());
        bed.wire((0..2).map(|i| Flow::Tfmcc {
            sender: senders[i],
            start_at: 10.0 * i as f64,
            populations: vec![PopulationSpec::packet(receivers[i])],
        }));
        bed.run_until(220.0);

        let rates: Vec<f64> = (0..2)
            .map(|i| bed.session(i).mean_throughput(&bed.sim, 100.0, 215.0))
            .collect();
        for (i, &rate) in rates.iter().enumerate() {
            assert!(rate > 20_000.0, "session {i} starved: {rate} B/s");
            let sender = bed.session(i).sender_agent(&bed.sim).protocol();
            assert!(sender.stats().data_packets > 0);
            assert!(!bed.series(i).is_empty());
        }
        let jain = jain_index(rates.iter().copied());
        assert!(
            jain > 0.70,
            "two identical TFMCC sessions should share fairly: Jain {jain}, rates {} vs {}",
            rates[0],
            rates[1]
        );
        assert!(
            rates.iter().sum::<f64>() <= 300_000.0,
            "cannot exceed the bottleneck"
        );
        let min = rates.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(min <= rates.iter().copied().fold(0.0, f64::max));
    }

    /// A two-leg star with one session and one TCP flow, wired by the
    /// testbed and by hand (topology, session sender and receivers, TCP sink
    /// and sender), creates the same nodes, links and agents under the same
    /// ids — and so runs the same events.
    #[test]
    fn testbed_wires_in_the_hand_built_order() {
        let mut hand = Simulator::new(7);
        let s = star(&mut hand, &StarConfig::default(), &legs());
        let session = TfmccSessionBuilder::default().build_population(
            &mut hand,
            s.sender,
            &[
                PopulationSpec::packet(s.receivers[0]),
                PopulationSpec::packet(s.receivers[1]),
            ],
        );
        let sink = hand.add_agent(s.receivers[1], Port(1), Box::new(TcpSink::new(1.0)));
        let tcp_sender = hand.add_agent(
            s.sender,
            Port(100),
            Box::new(TcpSender::new(TcpSenderConfig::new(
                Address::new(s.receivers[1], Port(1)),
                FlowId(9),
            ))),
        );

        let mut bed = Testbed::new(7, &Topology::Star(StarConfig::default(), legs()));
        let (sender, receivers) = (bed.layout.senders[0], bed.layout.receivers.clone());
        bed.wire([
            Flow::Tfmcc {
                sender,
                start_at: 0.0,
                populations: receivers
                    .iter()
                    .map(|&r| PopulationSpec::packet(r))
                    .collect(),
            },
            Flow::tcp(
                Address::new(sender, Port(100)),
                Address::new(receivers[1], Port(1)),
                FlowId(9),
                1.0,
            ),
        ]);

        assert_eq!(bed.layout.senders, [s.sender]);
        assert_eq!(bed.layout.receivers, s.receivers);
        let hand_legs: Vec<(LinkId, LinkId)> = s
            .downstream_links
            .into_iter()
            .zip(s.upstream_links)
            .collect();
        assert_eq!(bed.layout.legs, hand_legs);
        for id in 0..6 {
            let (a, b) = (bed.sim.link(LinkId(id)), hand.link(LinkId(id)));
            assert_eq!(
                (a.from, a.to, a.delay),
                (b.from, b.to, b.delay),
                "link {id}"
            );
        }
        assert_eq!(bed.session(0).sender, session.sender);
        assert_eq!(bed.session(0).receivers, session.receivers);
        for agent in [
            session.sender,
            session.receivers[0],
            session.receivers[1],
            sink,
            tcp_sender,
        ] {
            assert_eq!(
                bed.sim.agent_addr(agent),
                hand.agent_addr(agent),
                "{agent:?}"
            );
        }
        assert!(bed.sim.agent::<TcpSink>(sink).is_some());
        assert!(bed.sim.agent::<TcpSender>(tcp_sender).is_some());

        hand.run_until(SimTime::from_secs(20.0));
        bed.run_until(20.0);
        assert_eq!(bed.sim.events_processed(), hand.events_processed());
        assert_eq!(
            bed.meter(0).series(),
            session.receiver_agent(&hand, 0).meter().series()
        );
        assert_eq!(
            bed.meter(1).series(),
            hand.agent::<TcpSink>(sink).unwrap().meter().series()
        );
    }
}
