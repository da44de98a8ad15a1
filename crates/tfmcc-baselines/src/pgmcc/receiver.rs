//! PGMCC receiver: acks every packet when elected acker, otherwise sends
//! occasional reports with its loss rate.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use netsim::packet::{Address, Dest, FlowId, GroupId, Packet, Payload};
use netsim::sim::{Agent, Context};
use netsim::stats::ThroughputMeter;

use super::{PgmccMessage, CONTROL_PACKET_SIZE};

const REPORT_TOKEN: u64 = 1;

/// The PGMCC receiver agent.
pub struct PgmccReceiverAgent {
    id: u64,
    sender_addr: Address,
    group: GroupId,
    flow: FlowId,
    /// Next in-order sequence number expected.
    expected: u64,
    /// Total number of missing packets observed (sequence holes).
    lost_total: u64,
    /// Smoothed loss rate (EWMA over per-packet loss indications).
    loss_rate: f64,
    /// Timestamp of the most recent data packet (sender clock).
    last_timestamp: f64,
    /// True while this receiver believes it is the acker.
    is_acker: bool,
    meter: ThroughputMeter,
    rng: SmallRng,
    packets: u64,
}

impl PgmccReceiverAgent {
    /// Creates a receiver with session-unique `id`, reporting to
    /// `sender_addr`.
    pub fn new(id: u64, sender_addr: Address, group: GroupId, flow: FlowId) -> Self {
        PgmccReceiverAgent {
            id,
            sender_addr,
            group,
            flow,
            expected: 0,
            lost_total: 0,
            loss_rate: 0.0,
            last_timestamp: 0.0,
            is_acker: false,
            meter: ThroughputMeter::new(1.0),
            rng: SmallRng::seed_from_u64(id.wrapping_mul(0xA24B_AED4_963E_E407)),
            packets: 0,
        }
    }

    /// Throughput meter over the received data.
    pub fn meter(&self) -> &ThroughputMeter {
        &self.meter
    }

    /// Smoothed loss rate estimate.
    pub fn loss_rate(&self) -> f64 {
        self.loss_rate
    }

    /// True while this receiver is the acker.
    pub fn is_acker(&self) -> bool {
        self.is_acker
    }

    fn send(&self, ctx: &mut Context<'_>, msg: PgmccMessage) {
        let pkt = Packet::new(
            ctx.addr(),
            Dest::Unicast(self.sender_addr),
            CONTROL_PACKET_SIZE,
            self.flow,
            Payload::new(msg),
        );
        ctx.send(pkt);
    }
}

impl Agent for PgmccReceiverAgent {
    fn start(&mut self, ctx: &mut Context<'_>) {
        ctx.join_group(self.group);
        // Stagger the first report to avoid synchronisation.
        let delay: f64 = self.rng.gen_range(0.5..1.5);
        ctx.schedule(delay, REPORT_TOKEN);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if token != REPORT_TOKEN {
            return;
        }
        // Non-acker receivers report their conditions every 1-2 seconds; the
        // acker's state travels in its ACKs so it stays silent here.
        if !self.is_acker && self.packets > 0 {
            let msg = PgmccMessage::Report {
                receiver: self.id,
                echo_timestamp: self.last_timestamp,
                loss_rate: self.loss_rate,
            };
            self.send(ctx, msg);
        }
        let delay: f64 = self.rng.gen_range(1.0..2.0);
        ctx.schedule(delay, REPORT_TOKEN);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        let Some(&PgmccMessage::Data {
            seq,
            timestamp,
            acker,
        }) = packet.payload.downcast_ref::<PgmccMessage>()
        else {
            return;
        };
        self.packets += 1;
        self.meter.record(ctx.now(), u64::from(packet.size));
        self.last_timestamp = timestamp;
        self.is_acker = acker == Some(self.id);
        // Loss estimate: exponentially weighted fraction of missing packets.
        if seq >= self.expected {
            let lost = seq - self.expected;
            self.lost_total += lost;
            let weight = 0.05;
            // Each missing packet contributes a 1, the received packet a 0.
            for _ in 0..lost.min(64) {
                self.loss_rate = (1.0 - weight) * self.loss_rate + weight;
            }
            self.loss_rate *= 1.0 - weight;
            self.expected = seq + 1;
        }
        if self.is_acker {
            let msg = PgmccMessage::Ack {
                receiver: self.id,
                cumulative: self.expected,
                latest: seq,
                lost_total: self.lost_total,
                echo_timestamp: timestamp,
                loss_rate: self.loss_rate,
            };
            self.send(ctx, msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pgmcc::sender::PgmccSenderAgent;
    use netsim::prelude::*;

    fn build_session(
        sim: &mut Simulator,
        sender_node: NodeId,
        receiver_nodes: &[NodeId],
    ) -> (netsim::packet::AgentId, Vec<netsim::packet::AgentId>) {
        let group = GroupId(77);
        let data_port = Port(7000);
        let sender_port = Port(7001);
        let sender_addr = Address::new(sender_node, sender_port);
        let sender = sim.add_agent(
            sender_node,
            sender_port,
            Box::new(PgmccSenderAgent::new(group, data_port, FlowId(7))),
        );
        let receivers = receiver_nodes
            .iter()
            .enumerate()
            .map(|(i, &node)| {
                sim.add_agent(
                    node,
                    data_port,
                    Box::new(PgmccReceiverAgent::new(
                        i as u64 + 1,
                        sender_addr,
                        group,
                        FlowId(7),
                    )),
                )
            })
            .collect();
        (sender, receivers)
    }

    #[test]
    fn single_receiver_roughly_fills_bottleneck() {
        let mut sim = Simulator::new(401);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        sim.add_duplex_link(a, b, 125_000.0, 0.02, QueueDiscipline::drop_tail(30));
        let (sender, receivers) = build_session(&mut sim, a, &[b]);
        sim.run_until(SimTime::from_secs(60.0));
        let r: &PgmccReceiverAgent = sim.agent(receivers[0]).unwrap();
        let rate = r.meter().average_between(20.0, 55.0);
        assert!(
            (70_000.0..=126_000.0).contains(&rate),
            "PGMCC should fill most of the bottleneck, got {rate}"
        );
        let s: &PgmccSenderAgent = sim.agent(sender).unwrap();
        assert_eq!(s.acker(), Some(1));
        assert!(s.stats().loss_events > 0, "the sawtooth needs loss events");
    }

    #[test]
    fn acker_is_the_receiver_behind_the_worst_path() {
        let mut sim = Simulator::new(402);
        let legs = vec![
            StarLeg::clean(1_250_000.0, 0.02),
            StarLeg::clean(1_250_000.0, 0.02).with_downstream_loss(0.05),
        ];
        let st = star(&mut sim, &StarConfig::default(), &legs);
        let (sender, _) = build_session(&mut sim, st.sender, &st.receivers.clone());
        sim.run_until(SimTime::from_secs(60.0));
        let s: &PgmccSenderAgent = sim.agent(sender).unwrap();
        assert_eq!(s.acker(), Some(2), "the lossy receiver must be the acker");
    }

    #[test]
    fn loss_estimate_tracks_gap_fraction() {
        let mut sim = Simulator::new(403);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let (down, _) =
            sim.add_duplex_link(a, b, 1_250_000.0, 0.01, QueueDiscipline::drop_tail(500));
        sim.set_link_loss(down, LossModel::Bernoulli { p: 0.1 });
        let (_, receivers) = build_session(&mut sim, a, &[b]);
        sim.run_until(SimTime::from_secs(60.0));
        let r: &PgmccReceiverAgent = sim.agent(receivers[0]).unwrap();
        assert!(
            (0.03..=0.25).contains(&r.loss_rate()),
            "loss estimate should be near 10%, got {}",
            r.loss_rate()
        );
    }
}
