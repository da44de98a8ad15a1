//! Reusable evaluation topologies.
//!
//! The TFMCC paper's experiments use three families of topology:
//!
//! * a **single-bottleneck dumbbell** (paper Figure 8): `n` senders and `n`
//!   receivers attached by fast access links to two routers joined by one
//!   bottleneck link;
//! * a **star**: one sender behind a router with an individual (possibly
//!   lossy, possibly slow) link per receiver — used for the responsiveness
//!   experiments (Sections 4.2–4.3) and the tail-circuit scenario of
//!   Figure 10;
//! * simple **two-node** point-to-point setups for unit tests and unicast
//!   baselines.
//!
//! The builders here create the nodes/links and return the node ids so that
//! agents can be attached by the caller.

use crate::link::LossModel;
use crate::packet::{LinkId, NodeId};
use crate::queue::QueueDiscipline;
use crate::sim::Simulator;

/// Handle to a dumbbell topology (paper Figure 8).
#[derive(Debug, Clone)]
pub struct Dumbbell {
    /// Router on the sender side.
    pub left_router: NodeId,
    /// Router on the receiver side.
    pub right_router: NodeId,
    /// Sender hosts, one per flow.
    pub senders: Vec<NodeId>,
    /// Receiver hosts, one per flow.
    pub receivers: Vec<NodeId>,
    /// Bottleneck link in the sender→receiver direction.
    pub bottleneck_forward: LinkId,
    /// Bottleneck link in the receiver→sender direction.
    pub bottleneck_reverse: LinkId,
}

/// Parameters of a dumbbell topology.
#[derive(Debug, Clone)]
pub struct DumbbellConfig {
    /// Number of sender/receiver host pairs.
    pub pairs: usize,
    /// Bottleneck bandwidth in bytes/second.
    pub bottleneck_bandwidth: f64,
    /// Bottleneck one-way propagation delay in seconds.
    pub bottleneck_delay: f64,
    /// Bottleneck queue discipline.
    pub bottleneck_queue: QueueDiscipline,
    /// Access-link bandwidth in bytes/second (should exceed the bottleneck).
    pub access_bandwidth: f64,
    /// Access-link one-way delay in seconds.
    pub access_delay: f64,
}

impl Default for DumbbellConfig {
    fn default() -> Self {
        DumbbellConfig {
            pairs: 2,
            bottleneck_bandwidth: 1_000_000.0, // 8 Mbit/s
            bottleneck_delay: 0.02,
            bottleneck_queue: QueueDiscipline::drop_tail(50),
            access_bandwidth: 12_500_000.0, // 100 Mbit/s
            access_delay: 0.002,
        }
    }
}

/// Builds a dumbbell topology in `sim`.
pub fn dumbbell(sim: &mut Simulator, cfg: &DumbbellConfig) -> Dumbbell {
    assert!(cfg.pairs >= 1, "a dumbbell needs at least one pair");
    let left_router = sim.add_node("router-left");
    let right_router = sim.add_node("router-right");
    let (bottleneck_forward, bottleneck_reverse) = sim.add_duplex_link(
        left_router,
        right_router,
        cfg.bottleneck_bandwidth,
        cfg.bottleneck_delay,
        cfg.bottleneck_queue.clone(),
    );
    let mut senders = Vec::with_capacity(cfg.pairs);
    let mut receivers = Vec::with_capacity(cfg.pairs);
    for _ in 0..cfg.pairs {
        let s = sim.add_node("sender");
        let r = sim.add_node("receiver");
        sim.add_duplex_link(
            s,
            left_router,
            cfg.access_bandwidth,
            cfg.access_delay,
            QueueDiscipline::drop_tail(1000),
        );
        sim.add_duplex_link(
            right_router,
            r,
            cfg.access_bandwidth,
            cfg.access_delay,
            QueueDiscipline::drop_tail(1000),
        );
        senders.push(s);
        receivers.push(r);
    }
    Dumbbell {
        left_router,
        right_router,
        senders,
        receivers,
        bottleneck_forward,
        bottleneck_reverse,
    }
}

/// Per-receiver leg of a star topology.
#[derive(Debug, Clone)]
pub struct StarLeg {
    /// Downstream bandwidth in bytes/second.
    pub bandwidth: f64,
    /// One-way propagation delay of this leg in seconds.
    pub delay: f64,
    /// Random loss applied on the downstream direction of this leg.
    pub downstream_loss: LossModel,
    /// Random loss applied on the upstream (receiver→sender) direction.
    pub upstream_loss: LossModel,
    /// Queue discipline of the leg (both directions).
    pub queue: QueueDiscipline,
    /// Upstream bandwidth override in bytes/second; `None` keeps the leg
    /// symmetric.  Models asymmetric feedback paths (paper Appendix D):
    /// receiver reports ride a much slower return circuit than the data.
    pub upstream_bandwidth: Option<f64>,
    /// Upstream one-way delay override in seconds; `None` keeps the leg
    /// symmetric.
    pub upstream_delay: Option<f64>,
}

impl StarLeg {
    /// A leg with the given bandwidth/delay and no random loss.
    pub fn clean(bandwidth: f64, delay: f64) -> Self {
        StarLeg {
            bandwidth,
            delay,
            downstream_loss: LossModel::None,
            upstream_loss: LossModel::None,
            queue: QueueDiscipline::drop_tail(50),
            upstream_bandwidth: None,
            upstream_delay: None,
        }
    }

    /// Adds Bernoulli loss with probability `p` on the downstream direction.
    pub fn with_downstream_loss(mut self, p: f64) -> Self {
        self.downstream_loss = LossModel::Bernoulli { p };
        self
    }

    /// Adds Bernoulli loss with probability `p` on the upstream direction.
    pub fn with_upstream_loss(mut self, p: f64) -> Self {
        self.upstream_loss = LossModel::Bernoulli { p };
        self
    }

    /// Overrides the queue discipline.
    pub fn with_queue(mut self, queue: QueueDiscipline) -> Self {
        self.queue = queue;
        self
    }

    /// Makes the leg asymmetric: the upstream (receiver→sender) direction
    /// gets its own bandwidth and delay — the feedback-path shape of the
    /// paper's robustness experiments.
    pub fn with_upstream_path(mut self, bandwidth: f64, delay: f64) -> Self {
        self.upstream_bandwidth = Some(bandwidth);
        self.upstream_delay = Some(delay);
        self
    }
}

/// Handle to a star topology.
#[derive(Debug, Clone)]
pub struct Star {
    /// The sender host.
    pub sender: NodeId,
    /// One receiver host per leg.
    pub receivers: Vec<NodeId>,
    /// Downstream link (hub → receiver) per leg.
    pub downstream_links: Vec<LinkId>,
    /// Upstream link (receiver → hub) per leg.
    pub upstream_links: Vec<LinkId>,
    /// Link from the sender to the hub.
    pub sender_uplink: LinkId,
}

/// Parameters of the sender→hub link in a star topology.
#[derive(Debug, Clone)]
pub struct StarConfig {
    /// Sender access bandwidth in bytes/second.
    pub sender_bandwidth: f64,
    /// Sender access one-way delay in seconds.
    pub sender_delay: f64,
    /// Sender access queue.
    pub sender_queue: QueueDiscipline,
}

impl Default for StarConfig {
    fn default() -> Self {
        StarConfig {
            sender_bandwidth: 12_500_000.0, // 100 Mbit/s
            sender_delay: 0.001,
            sender_queue: QueueDiscipline::drop_tail(1000),
        }
    }
}

/// Builds a star topology in `sim` with one leg per entry of `legs`.
pub fn star(sim: &mut Simulator, cfg: &StarConfig, legs: &[StarLeg]) -> Star {
    assert!(!legs.is_empty(), "a star needs at least one leg");
    let sender = sim.add_node("sender");
    let hub = sim.add_node("hub");
    let (sender_uplink, _) = sim.add_duplex_link(
        sender,
        hub,
        cfg.sender_bandwidth,
        cfg.sender_delay,
        cfg.sender_queue.clone(),
    );
    let mut receivers = Vec::with_capacity(legs.len());
    let mut downstream_links = Vec::with_capacity(legs.len());
    let mut upstream_links = Vec::with_capacity(legs.len());
    for leg in legs {
        let r = sim.add_node("receiver");
        let down = sim.add_link(hub, r, leg.bandwidth, leg.delay, leg.queue.clone());
        let up = sim.add_link(
            r,
            hub,
            leg.upstream_bandwidth.unwrap_or(leg.bandwidth),
            leg.upstream_delay.unwrap_or(leg.delay),
            leg.queue.clone(),
        );
        sim.set_link_loss(down, leg.downstream_loss);
        sim.set_link_loss(up, leg.upstream_loss);
        receivers.push(r);
        downstream_links.push(down);
        upstream_links.push(up);
    }
    Star {
        sender,
        receivers,
        downstream_links,
        upstream_links,
        sender_uplink,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{unicast_to, CbrSource, Sink};
    use crate::packet::{Address, FlowId, Port};
    use crate::time::SimTime;

    #[test]
    fn dumbbell_limits_throughput_to_bottleneck() {
        let mut sim = Simulator::new(21);
        let cfg = DumbbellConfig {
            pairs: 1,
            bottleneck_bandwidth: 125_000.0, // 1 Mbit/s
            ..DumbbellConfig::default()
        };
        let d = dumbbell(&mut sim, &cfg);
        let sink = sim.add_agent(d.receivers[0], Port(1), Box::new(Sink::new(1.0)));
        let dst = unicast_to(Address::new(d.receivers[0], Port(1)));
        // Offer 4 Mbit/s into a 1 Mbit/s bottleneck.
        sim.add_agent(
            d.senders[0],
            Port(1),
            Box::new(CbrSource::new(dst, FlowId(1), 1000, 500_000.0, 0.0)),
        );
        sim.run_until(SimTime::from_secs(20.0));
        let s: &Sink = sim.agent(sink).unwrap();
        let avg = s.meter().average_between(5.0, 19.0);
        assert!(
            (115_000.0..=126_000.0).contains(&avg),
            "bottleneck-limited rate {avg} B/s"
        );
        assert!(sim.link_stats(d.bottleneck_forward).dropped_queue > 0);
    }

    #[test]
    fn star_legs_have_independent_loss() {
        let mut sim = Simulator::new(22);
        let legs = vec![
            StarLeg::clean(125_000.0, 0.01),
            StarLeg::clean(125_000.0, 0.01).with_downstream_loss(0.5),
        ];
        let st = star(&mut sim, &StarConfig::default(), &legs);
        let mut sinks = Vec::new();
        for (i, &r) in st.receivers.iter().enumerate() {
            sinks.push(sim.add_agent(r, Port(1), Box::new(Sink::new(1.0))));
            let dst = unicast_to(Address::new(r, Port(1)));
            sim.add_agent(
                st.sender,
                Port(10 + i as u16),
                Box::new(CbrSource::new(dst, FlowId(i as u64), 500, 50_000.0, 0.0)),
            );
        }
        sim.run_until(SimTime::from_secs(10.0));
        let clean: &Sink = sim.agent(sinks[0]).unwrap();
        let lossy: &Sink = sim.agent(sinks[1]).unwrap();
        let r_clean = clean.meter().average_between(1.0, 9.0);
        let r_lossy = lossy.meter().average_between(1.0, 9.0);
        assert!(r_clean > 45_000.0);
        assert!(
            r_lossy < r_clean * 0.65,
            "lossy leg should see roughly half: {r_lossy} vs {r_clean}"
        );
    }

    #[test]
    fn star_structure_sizes() {
        let mut sim = Simulator::new(23);
        let legs: Vec<StarLeg> = (0..5).map(|_| StarLeg::clean(1e6, 0.02)).collect();
        let st = star(&mut sim, &StarConfig::default(), &legs);
        assert_eq!(st.receivers.len(), 5);
        assert_eq!(st.downstream_links.len(), 5);
        assert_eq!(st.upstream_links.len(), 5);
    }

    #[test]
    fn asymmetric_star_leg_slows_only_the_upstream() {
        let mut sim = Simulator::new(25);
        let legs = vec![StarLeg::clean(1_000_000.0, 0.01).with_upstream_path(10_000.0, 0.15)];
        let st = star(&mut sim, &StarConfig::default(), &legs);
        let down = &sim.link(st.downstream_links[0]);
        let up = &sim.link(st.upstream_links[0]);
        assert_eq!(down.bandwidth, 1_000_000.0);
        assert_eq!(down.delay, 0.01);
        assert_eq!(up.bandwidth, 10_000.0);
        assert_eq!(up.delay, 0.15);
    }

    #[test]
    #[should_panic(expected = "at least one pair")]
    fn dumbbell_requires_pairs() {
        let mut sim = Simulator::new(24);
        let cfg = DumbbellConfig {
            pairs: 0,
            ..DumbbellConfig::default()
        };
        let _ = dumbbell(&mut sim, &cfg);
    }
}
