//! PGMCC sender: multicast data paced by a TCP-like window driven by the
//! acker's ACK stream.

use netsim::packet::{Dest, FlowId, GroupId, Packet, Payload, Port};
use netsim::sim::{Agent, Context};

use super::acker::AckerTracker;
use super::PgmccMessage;

const SEND_TOKEN: u64 = 1;
const HOUSEKEEPING_TOKEN: u64 = 2;
/// Data packet size in bytes.
const PACKET_SIZE: u32 = 1000;

/// Counters exposed by the sender.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PgmccSenderStats {
    /// Data packets sent.
    pub data_packets: u64,
    /// Window halvings due to detected loss.
    pub loss_events: u64,
    /// Acker changes.
    pub acker_changes: u64,
}

/// The PGMCC sender agent.
pub struct PgmccSenderAgent {
    group: GroupId,
    data_port: Port,
    flow: FlowId,
    /// Congestion window in packets, maintained against the acker.
    window: f64,
    ssthresh: f64,
    /// Highest sequence number sent.
    next_seq: u64,
    /// Highest cumulative ACK from the acker.
    acked: u64,
    dup_acks: u32,
    /// The acker's hole count as of the last processed ACK.  `u64::MAX`
    /// marks a resync: the next ACK (e.g. the first from a new acker)
    /// establishes the baseline without registering a loss event.
    last_lost_total: u64,
    /// Sequence number that must be cumulatively acknowledged before
    /// another hole may halve the window again (one halving per window of
    /// loss, as in TCP's fast recovery).
    recovery_point: u64,
    tracker: AckerTracker,
    srtt: f64,
    stats: PgmccSenderStats,
    /// Time the most recent ACK was processed, for the timeout fallback.
    last_ack_at: f64,
    started: bool,
}

impl PgmccSenderAgent {
    /// Creates the sender, multicasting 1000-byte packets to `group` on
    /// `data_port`.
    pub fn new(group: GroupId, data_port: Port, flow: FlowId) -> Self {
        PgmccSenderAgent {
            group,
            data_port,
            flow,
            window: 2.0,
            ssthresh: 64.0,
            next_seq: 0,
            acked: 0,
            dup_acks: 0,
            last_lost_total: u64::MAX,
            recovery_point: 0,
            tracker: AckerTracker::new(f64::from(PACKET_SIZE), 0.85),
            srtt: 0.2,
            stats: PgmccSenderStats::default(),
            last_ack_at: 0.0,
            started: false,
        }
    }

    /// Current congestion window in packets.
    pub fn window(&self) -> f64 {
        self.window
    }

    /// The current acker, if any.
    pub fn acker(&self) -> Option<u64> {
        self.tracker.acker()
    }

    /// Counters.
    pub fn stats(&self) -> PgmccSenderStats {
        self.stats
    }

    fn in_flight(&self) -> u64 {
        self.next_seq.saturating_sub(self.acked)
    }

    fn send_data(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now().as_secs();
        let msg = PgmccMessage::Data {
            seq: self.next_seq,
            timestamp: now,
            acker: self.tracker.acker(),
        };
        self.next_seq += 1;
        self.stats.data_packets += 1;
        let pkt = Packet::new(
            ctx.addr(),
            Dest::Multicast {
                group: self.group,
                port: self.data_port,
            },
            PACKET_SIZE,
            self.flow,
            Payload::new(msg),
        );
        ctx.send(pkt);
    }

    fn fill_window(&mut self, ctx: &mut Context<'_>) {
        let w = self.window.floor().max(1.0) as u64;
        while self.in_flight() < w {
            self.send_data(ctx);
        }
    }

    #[allow(
        clippy::too_many_arguments,
        reason = "the fields of one decoded ACK, passed straight from the match that unpacks it"
    )]
    fn on_ack(
        &mut self,
        ctx: &mut Context<'_>,
        cumulative: u64,
        lost_total: u64,
        echo_timestamp: f64,
        loss_rate: f64,
        receiver: u64,
    ) {
        let now = ctx.now().as_secs();
        let rtt = (now - echo_timestamp).max(1e-3);
        self.srtt = 0.875 * self.srtt + 0.125 * rtt;
        self.last_ack_at = now;
        if self.tracker.update(receiver, loss_rate, self.srtt, now) {
            self.stats.acker_changes += 1;
            // A new acker starts from a clean window state to avoid reacting
            // to the previous acker's sequence history.
            self.dup_acks = 0;
            self.last_lost_total = u64::MAX;
        }
        // The cumulative point skips holes (no retransmission), so loss
        // reaches the window through the acker's hole counter: any new
        // holes halve the window, at most once per window in flight.
        if self.last_lost_total == u64::MAX {
            self.last_lost_total = lost_total;
        } else if lost_total > self.last_lost_total {
            self.last_lost_total = lost_total;
            if cumulative > self.recovery_point {
                self.stats.loss_events += 1;
                self.ssthresh = (self.window / 2.0).max(2.0);
                self.window = self.ssthresh;
                self.recovery_point = self.next_seq;
            }
        }
        if cumulative > self.acked {
            let newly = cumulative - self.acked;
            self.acked = cumulative;
            self.next_seq = self.next_seq.max(self.acked);
            self.dup_acks = 0;
            if self.window < self.ssthresh {
                self.window += newly as f64;
            } else {
                self.window += newly as f64 / self.window;
            }
            self.window = self.window.min(4096.0);
        } else if self.in_flight() > 0 {
            self.dup_acks += 1;
            if self.dup_acks == 3 {
                self.stats.loss_events += 1;
                self.ssthresh = (self.window / 2.0).max(2.0);
                self.window = self.ssthresh;
                self.dup_acks = 0;
                // Packet-level model: jump the cumulative point forward so the
                // window reopens (reliability is out of scope, Section 5).
                self.acked = self.acked.saturating_add(1);
            }
        }
        self.fill_window(ctx);
    }
}

impl Agent for PgmccSenderAgent {
    fn start(&mut self, ctx: &mut Context<'_>) {
        ctx.schedule(0.0, SEND_TOKEN);
        ctx.schedule(1.0, HOUSEKEEPING_TOKEN);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        match token {
            SEND_TOKEN => {
                let now = ctx.now().as_secs();
                if !self.started {
                    self.started = true;
                    self.last_ack_at = now;
                    self.fill_window(ctx);
                }
                // Timeout fallback: if the ACK clock has stalled (everything
                // in flight was lost), behave like a TCP timeout — collapse
                // the window, skip the hole and restart.
                if self.in_flight() > 0 && now - self.last_ack_at > (4.0 * self.srtt).max(1.0) {
                    self.stats.loss_events += 1;
                    self.ssthresh = (self.window / 2.0).max(2.0);
                    self.window = 1.0;
                    self.acked = self.next_seq;
                    self.last_ack_at = now;
                    self.fill_window(ctx);
                }
                ctx.schedule(self.srtt.max(0.05), SEND_TOKEN);
            }
            HOUSEKEEPING_TOKEN => {
                let now = ctx.now().as_secs();
                if self.tracker.expire(now - 10.0) {
                    self.stats.acker_changes += 1;
                }
                ctx.schedule(1.0, HOUSEKEEPING_TOKEN);
            }
            _ => {}
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        let Some(msg) = packet.payload.downcast_ref::<PgmccMessage>() else {
            return;
        };
        match *msg {
            PgmccMessage::Ack {
                receiver,
                cumulative,
                lost_total,
                echo_timestamp,
                loss_rate,
                ..
            } => self.on_ack(
                ctx,
                cumulative,
                lost_total,
                echo_timestamp,
                loss_rate,
                receiver,
            ),
            PgmccMessage::Report {
                receiver,
                echo_timestamp,
                loss_rate,
            } => {
                let now = ctx.now().as_secs();
                let rtt = (now - echo_timestamp).max(1e-3);
                if self.tracker.update(receiver, loss_rate, rtt, now) {
                    self.stats.acker_changes += 1;
                }
            }
            PgmccMessage::Data { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pgmcc::receiver::PgmccReceiverAgent;
    use netsim::packet::{Address, AgentId};
    use netsim::prelude::*;

    fn build_pair(sim: &mut Simulator, a: NodeId, b: NodeId) -> (AgentId, AgentId) {
        let group = GroupId(88);
        let data_port = Port(7000);
        let sender_port = Port(7001);
        let sender_addr = Address::new(a, sender_port);
        let sender = sim.add_agent(
            a,
            sender_port,
            Box::new(PgmccSenderAgent::new(group, data_port, FlowId(8))),
        );
        let receiver = sim.add_agent(
            b,
            data_port,
            Box::new(PgmccReceiverAgent::new(1, sender_addr, group, FlowId(8))),
        );
        (sender, receiver)
    }

    #[test]
    fn ack_clock_opens_the_window_on_a_clean_path() {
        let mut sim = Simulator::new(411);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        // Plenty of bandwidth and queue: the ACK clock should open the
        // window well past its initial two packets without loss events.
        sim.add_duplex_link(a, b, 12_500_000.0, 0.02, QueueDiscipline::drop_tail(2000));
        let (sender, _) = build_pair(&mut sim, a, b);
        sim.run_until(SimTime::from_secs(10.0));
        let s: &PgmccSenderAgent = sim.agent(sender).unwrap();
        assert!(
            s.window() > 10.0,
            "window should grow from 2 under a pure ACK clock, got {}",
            s.window()
        );
        assert!(s.stats().data_packets > 100);
        assert_eq!(s.acker(), Some(1));
    }

    #[test]
    fn loss_is_survived_and_reported_by_the_acker() {
        // The cumulative ACK skips holes (reliability is out of scope), but
        // the acker's hole counter must still drive window halvings, and
        // its loss_rate the election — the window must stay in its legal
        // range and data must keep flowing regardless.
        let mut sim = Simulator::new(412);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let (down, _) =
            sim.add_duplex_link(a, b, 1_250_000.0, 0.02, QueueDiscipline::drop_tail(100));
        sim.set_link_loss(down, LossModel::Bernoulli { p: 0.03 });
        let (sender, receiver) = build_pair(&mut sim, a, b);
        sim.run_until(SimTime::from_secs(60.0));
        let s: &PgmccSenderAgent = sim.agent(sender).unwrap();
        assert!(
            (1.0..=4096.0).contains(&s.window()),
            "window left its legal range: {}",
            s.window()
        );
        assert!(s.stats().data_packets > 500, "data must keep flowing");
        let r: &PgmccReceiverAgent = sim.agent(receiver).unwrap();
        assert!(
            r.loss_rate() > 0.005,
            "the acker must report the 3% path loss, got {}",
            r.loss_rate()
        );
    }

    #[test]
    fn ack_blackout_triggers_the_timeout_fallback() {
        let mut sim = Simulator::new(413);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let (down, up) =
            sim.add_duplex_link(a, b, 1_250_000.0, 0.02, QueueDiscipline::drop_tail(100));
        let (sender, _) = build_pair(&mut sim, a, b);
        sim.run_until(SimTime::from_secs(10.0));
        let before = {
            let s: &PgmccSenderAgent = sim.agent(sender).unwrap();
            s.stats().loss_events
        };
        // Kill the path completely: no data arrives, no ACKs return.  The
        // sender's ACK clock stalls and only the timeout fallback can act.
        sim.set_link_loss(down, LossModel::Bernoulli { p: 1.0 });
        sim.set_link_loss(up, LossModel::Bernoulli { p: 1.0 });
        sim.run_until(SimTime::from_secs(30.0));
        let s: &PgmccSenderAgent = sim.agent(sender).unwrap();
        assert!(
            s.stats().loss_events > before,
            "the blackout must register as loss via the timeout fallback"
        );
        assert!(
            s.window() <= 2.0,
            "the window must collapse on timeout, got {}",
            s.window()
        );
    }
}
