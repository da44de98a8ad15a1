//! The TFMCC sender bound to the simulator.

use netsim::packet::{Dest, FlowId, GroupId, Packet, Payload, Port};
use netsim::sim::{Agent, Context};

use tfmcc_proto::packets::{FeedbackPacket, PopulationReport};
use tfmcc_proto::sender::TfmccSender;

/// Timer token for the data-pacing timer.
const SEND_TOKEN: u64 = 1;

/// Runs a [`TfmccSender`] inside the simulator: data packets are multicast to
/// the session group at the protocol's current rate; receiver reports arrive
/// as unicast packets addressed to this agent.
pub struct TfmccSenderAgent {
    sender: TfmccSender,
    group: GroupId,
    data_port: Port,
    flow: FlowId,
    start_at: f64,
    /// `tfmcc.rate.<flow>`, formatted once, when the rate series is on.
    rate_series: Option<String>,
    started: bool,
}

impl TfmccSenderAgent {
    /// Creates the agent.  Data packets are multicast to `group` on
    /// `data_port`; `flow` tags them for statistics.
    pub fn new(sender: TfmccSender, group: GroupId, data_port: Port, flow: FlowId) -> Self {
        TfmccSenderAgent {
            sender,
            group,
            data_port,
            flow,
            start_at: 0.0,
            rate_series: None,
            started: false,
        }
    }

    /// Delays the start of transmission until `t` seconds of simulation time.
    pub fn starting_at(mut self, t: f64) -> Self {
        self.start_at = t;
        self
    }

    /// Records the sending rate into the simulation statistics registry under
    /// the series name `tfmcc.rate.<flow>` (one sample per data packet).
    pub fn with_rate_series(mut self) -> Self {
        self.rate_series = Some(format!("tfmcc.rate.{}", self.flow.0));
        self
    }

    /// The wrapped protocol sender (for reading rate, CLR, statistics).
    pub fn protocol(&self) -> &TfmccSender {
        &self.sender
    }
}

impl Agent for TfmccSenderAgent {
    fn start(&mut self, ctx: &mut Context<'_>) {
        let delay = (self.start_at - ctx.now().as_secs()).max(0.0);
        ctx.schedule(delay, SEND_TOKEN);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if token != SEND_TOKEN {
            return;
        }
        self.started = true;
        let now = ctx.now().as_secs();
        let header = self.sender.next_data(now);
        let size = header.size;
        if let Some(name) = &self.rate_series {
            let at = ctx.now();
            ctx.stats().sample(name, at, self.sender.current_rate());
        }
        let pkt = Packet::new(
            ctx.addr(),
            Dest::Multicast {
                group: self.group,
                port: self.data_port,
            },
            size,
            self.flow,
            Payload::new(header),
        );
        ctx.send(pkt);
        ctx.schedule(self.sender.packet_interval(), SEND_TOKEN);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        if let Some(fb) = packet.payload.downcast_ref::<FeedbackPacket>() {
            self.sender.on_feedback(ctx.now().as_secs(), fb);
        } else if let Some(rep) = packet.payload.downcast_ref::<PopulationReport>() {
            self.sender
                .on_population_feedback(ctx.now().as_secs(), &rep.feedback, rep.weight);
        }
    }
}
