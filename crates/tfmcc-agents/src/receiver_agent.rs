//! The TFMCC receiver bound to the simulator.

use std::io::Write;
use std::sync::Arc;

use netsim::packet::{Address, Dest, FlowId, GroupId, Packet, Payload};
use netsim::sim::{Agent, Context, TimerId};
use netsim::stats::ThroughputMeter;

use tfmcc_proto::config::TfmccConfig;
use tfmcc_proto::packets::{DataPacket, FeedbackPacket, ReceiverId};
use tfmcc_proto::receiver::TfmccReceiver;

/// Timer token for the deferred group join.
const JOIN_TOKEN: u64 = 1;
/// Timer token for the scheduled leave.
const LEAVE_TOKEN: u64 = 2;
/// Timer token for the (single) protocol feedback timer.  The agent cancels
/// the armed one before it re-arms and when it leaves, and the simulator
/// never fires a cancelled timer, so whichever fires is the armed one.
const FEEDBACK_TOKEN: u64 = 3;

/// Runs a [`TfmccReceiver`] inside the simulator: it joins the multicast
/// group (optionally at a later time), feeds arriving data packets into the
/// protocol receiver, transmits the resulting reports to the sender as
/// unicast packets and keeps the simulator timer in sync with the receiver's
/// single feedback deadline.
///
/// A receiver can also **churn**: repeatedly stay in the session for a
/// while, leave (announcing the departure), and rejoin later with fresh
/// protocol state — the workload of the `fig22_churn` scenario.
pub struct TfmccReceiverAgent {
    receiver: TfmccReceiver,
    sender_addr: Address,
    group: GroupId,
    flow: FlowId,
    join_at: f64,
    leave_at: Option<f64>,
    /// `(on_secs, off_secs)`: after each join, leave `on_secs` later and
    /// rejoin `off_secs` after that, indefinitely.
    churn: Option<(f64, f64)>,
    /// Number of join/leave transitions performed so far.
    membership_changes: u64,
    left: bool,
    meter: ThroughputMeter,
    armed: Option<(TimerId, f64)>,
}

const _: () = assert!(std::mem::size_of::<TfmccReceiverAgent>() <= 576);

/// Prefix of the per-flow report counter, `tfmcc.feedback_sent.flow.<flow>`.
const FLOW_COUNTER_PREFIX: &str = "tfmcc.feedback_sent.flow.";
/// Longest per-flow counter key: the prefix and the 20 digits of `u64::MAX`.
const FLOW_COUNTER_KEY_MAX: usize = FLOW_COUNTER_PREFIX.len() + 20;

/// Formats the per-flow report counter's key into `buf`, on the stack: a
/// report allocates nothing, and a receiver keeps no copy of the key.
fn flow_counter_key(flow: FlowId, buf: &mut [u8; FLOW_COUNTER_KEY_MAX]) -> &str {
    let mut rest = &mut buf[..];
    write!(rest, "{FLOW_COUNTER_PREFIX}{}", flow.0).expect("a u64 has at most 20 digits");
    let len = FLOW_COUNTER_KEY_MAX - rest.len();
    std::str::from_utf8(&buf[..len]).expect("the key is ASCII")
}

impl TfmccReceiverAgent {
    /// Creates the agent; the protocol receiver is built from `id` and
    /// `config` (and rebuilt from them on every churn rejoin).  Reports are
    /// unicast to `sender_addr`; received data is attributed to `flow` in
    /// the local throughput meter.  A session passes one shared
    /// `Arc<TfmccConfig>` to all its receivers; a plain [`TfmccConfig`] is
    /// wrapped in its own `Arc`.
    pub fn new(
        id: ReceiverId,
        config: impl Into<Arc<TfmccConfig>>,
        sender_addr: Address,
        group: GroupId,
        flow: FlowId,
    ) -> Self {
        TfmccReceiverAgent {
            receiver: TfmccReceiver::new(id, config),
            sender_addr,
            group,
            flow,
            join_at: 0.0,
            leave_at: None,
            churn: None,
            membership_changes: 0,
            left: false,
            meter: ThroughputMeter::new(1.0),
            armed: None,
        }
    }

    /// Joins the multicast group only at `t` seconds of simulation time
    /// (before that the receiver gets no data).
    pub fn joining_at(mut self, t: f64) -> Self {
        self.join_at = t;
        self
    }

    /// Leaves the session at `t` seconds of simulation time, announcing the
    /// departure to the sender.  Mutually exclusive with
    /// [`TfmccReceiverAgent::churning`].
    pub fn leaving_at(mut self, t: f64) -> Self {
        assert!(
            self.churn.is_none(),
            "leaving_at and churning are exclusive"
        );
        self.leave_at = Some(t);
        self
    }

    /// Makes the receiver churn: after each join it stays for `on_secs`,
    /// leaves (announcing the departure to the sender), waits `off_secs`
    /// and rejoins with fresh protocol state.  Mutually exclusive with
    /// [`TfmccReceiverAgent::leaving_at`].
    pub fn churning(mut self, on_secs: f64, off_secs: f64) -> Self {
        assert!(
            on_secs > 0.0 && off_secs > 0.0,
            "churn on/off periods must be positive, got on={on_secs} off={off_secs}"
        );
        assert!(
            self.leave_at.is_none(),
            "leaving_at and churning are exclusive"
        );
        self.churn = Some((on_secs, off_secs));
        self
    }

    /// Number of join/leave transitions performed so far.
    pub fn membership_changes(&self) -> u64 {
        self.membership_changes
    }

    /// Uses `bin`-second bins for the local throughput meter.
    pub fn with_meter_bin(mut self, bin: f64) -> Self {
        self.meter = ThroughputMeter::new(bin);
        self
    }

    /// The wrapped protocol receiver.
    pub fn protocol(&self) -> &TfmccReceiver {
        &self.receiver
    }

    /// Throughput meter over the data this receiver got.
    pub fn meter(&self) -> &ThroughputMeter {
        &self.meter
    }

    /// Sends a report and counts it, in total and per flow.
    fn send_report(&self, ctx: &mut Context<'_>, fb: FeedbackPacket) {
        self.send_feedback(ctx, fb);
        ctx.stats().add("tfmcc.feedback_sent", 1.0);
        let mut buf = [0; FLOW_COUNTER_KEY_MAX];
        ctx.stats().add(flow_counter_key(self.flow, &mut buf), 1.0);
    }

    fn send_feedback(&self, ctx: &mut Context<'_>, fb: FeedbackPacket) {
        let pkt = Packet::new(
            ctx.addr(),
            Dest::Unicast(self.sender_addr),
            FeedbackPacket::WIRE_SIZE,
            self.flow,
            Payload::new(fb),
        );
        ctx.send(pkt);
    }

    /// Re-arms the simulator timer to match the receiver's single feedback
    /// deadline.
    fn sync_timer(&mut self, ctx: &mut Context<'_>) {
        let desired = self.receiver.next_timer();
        match (desired, self.armed) {
            (Some(at), Some((_, armed_at))) if (at - armed_at).abs() < 1e-9 => {}
            (Some(at), maybe_armed) => {
                if let Some((id, _)) = maybe_armed {
                    ctx.cancel(id);
                }
                let delay = (at - ctx.now().as_secs()).max(0.0);
                let id = ctx.schedule(delay, FEEDBACK_TOKEN);
                self.armed = Some((id, at));
            }
            (None, Some((id, _))) => {
                ctx.cancel(id);
                self.armed = None;
            }
            (None, None) => {}
        }
    }
}

impl Agent for TfmccReceiverAgent {
    fn start(&mut self, ctx: &mut Context<'_>) {
        let join_delay = (self.join_at - ctx.now().as_secs()).max(0.0);
        ctx.schedule(join_delay, JOIN_TOKEN);
        if let Some(leave_at) = self.leave_at {
            let leave_delay = (leave_at - ctx.now().as_secs()).max(0.0);
            ctx.schedule(leave_delay, LEAVE_TOKEN);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if token == JOIN_TOKEN {
            if self.left {
                if self.churn.is_none() {
                    // One-shot leave already happened (leave_at < join_at):
                    // the receiver never enters the session.
                    return;
                }
                // Churn rejoin: start over with fresh protocol state, as a
                // receiver re-entering the session would.
                let config = Arc::clone(self.receiver.config());
                self.receiver = TfmccReceiver::new(self.receiver.id(), config);
                self.left = false;
            }
            ctx.join_group(self.group);
            self.membership_changes += 1;
            if let Some((on_secs, _)) = self.churn {
                ctx.schedule(on_secs, LEAVE_TOKEN);
            }
            return;
        }
        if token == LEAVE_TOKEN {
            self.left = true;
            if self.membership_changes == 0 {
                // A leave before the first join: the receiver never enters
                // the session, so it has no group to leave and no sender to
                // sign off with.
                return;
            }
            ctx.leave_group(self.group);
            self.membership_changes += 1;
            let fb = self.receiver.leave(ctx.now().as_secs());
            self.send_feedback(ctx, fb);
            if let Some((id, _)) = self.armed.take() {
                ctx.cancel(id);
            }
            if let Some((_, off_secs)) = self.churn {
                ctx.schedule(off_secs, JOIN_TOKEN);
            }
            return;
        }
        debug_assert!(
            token == FEEDBACK_TOKEN && self.armed.is_some() && !self.left,
            "feedback timer {token} fired while disarmed"
        );
        self.armed = None;
        if let Some(fb) = self.receiver.on_timer(ctx.now().as_secs()) {
            self.send_report(ctx, fb);
        }
        self.sync_timer(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        if self.left {
            return;
        }
        let Some(data) = packet.payload.downcast_ref::<DataPacket>() else {
            return;
        };
        self.meter.record(ctx.now(), u64::from(packet.size));
        let now = ctx.now().as_secs();
        if let Some(fb) = self.receiver.on_data(now, data) {
            self.send_report(ctx, fb);
        }
        self.sync_timer(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sender_agent::TfmccSenderAgent;
    use netsim::prelude::*;
    use tfmcc_proto::sender::TfmccSender;

    #[test]
    fn flow_counter_key_matches_its_format() {
        for flow in [0, 7, 1234, u64::MAX] {
            let mut buf = [0; FLOW_COUNTER_KEY_MAX];
            assert_eq!(
                flow_counter_key(FlowId(flow), &mut buf),
                format!("tfmcc.feedback_sent.flow.{flow}")
            );
        }
    }

    /// A receiver whose leave comes before its first join never enters the
    /// session: no membership change, no leave report, nothing for the
    /// sender to count or sign off.
    #[test]
    fn leave_before_first_join_sends_no_leave_report() {
        let mut sim = Simulator::new(5);
        let legs = [StarLeg::clean(1_250_000.0, 0.02)];
        let st = star(&mut sim, &StarConfig::default(), &legs);
        let (group, data_port, sender_port, flow) = (GroupId(1), Port(5000), Port(5001), FlowId(1));
        let sender = TfmccSenderAgent::new(
            TfmccSender::new(TfmccConfig::default()),
            group,
            data_port,
            flow,
        );
        let sender = sim.add_agent(st.sender, sender_port, Box::new(sender));
        let receiver = TfmccReceiverAgent::new(
            ReceiverId(1),
            TfmccConfig::default(),
            Address::new(st.sender, sender_port),
            group,
            flow,
        )
        .joining_at(2.0)
        .leaving_at(1.0);
        let receiver = sim.add_agent(st.receivers[0], data_port, Box::new(receiver));
        sim.run_until(SimTime::from_secs(5.0));

        let r: &TfmccReceiverAgent = sim.agent(receiver).unwrap();
        assert_eq!(r.membership_changes(), 0);
        assert_eq!(r.protocol().stats().feedback_sent, 0);
        let s: &TfmccSenderAgent = sim.agent(sender).unwrap();
        assert_eq!(s.protocol().stats().feedback_received, 0);
    }
}
