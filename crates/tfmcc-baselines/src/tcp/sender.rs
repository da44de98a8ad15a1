//! Greedy TCP Reno sender.

use netsim::packet::{Address, Dest, FlowId, Packet, Payload};
use netsim::sim::{Agent, Context, TimerId};
use netsim::stats::ThroughputMeter;

use super::segment::TcpSegment;
use super::send_times::SendTimes;

/// Timer token of the retransmission timer.  At most one is armed: re-arming
/// cancels the previous one, as ns-2's `TcpAgent` reschedules its one timer.
const RTO_TOKEN: u64 = 2;
/// Timer token used to delay the start of the flow.
const START_TOKEN: u64 = 1;
/// Segment size in bytes.
const PACKET_SIZE: u32 = 1000;
/// Initial slow-start threshold in packets.
const INITIAL_SSTHRESH: f64 = 64.0;
/// Maximum congestion window in packets (receiver window): essentially
/// unlimited.
const MAX_CWND: f64 = 10_000.0;
/// Minimum retransmission timeout in seconds.
const MIN_RTO: f64 = 0.2;

/// Configuration of a [`TcpSender`]: 1000-byte segments, an initial
/// slow-start threshold of 64 packets, an essentially unlimited window and a
/// 200 ms minimum RTO are fixed.
#[derive(Debug, Clone)]
pub struct TcpSenderConfig {
    /// Destination sink address.
    pub dst: Address,
    /// Flow id for statistics.
    pub flow: FlowId,
    /// Time at which the flow starts sending.
    pub start_at: f64,
}

impl TcpSenderConfig {
    /// A sender starting at time 0.
    pub fn new(dst: Address, flow: FlowId) -> Self {
        TcpSenderConfig {
            dst,
            flow,
            start_at: 0.0,
        }
    }

    /// Sets the start time.
    pub fn starting_at(mut self, t: f64) -> Self {
        self.start_at = t;
        self
    }
}

/// Counters exposed by the sender.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TcpSenderStats {
    /// Data segments transmitted (including retransmissions).
    pub segments_sent: u64,
    /// Retransmitted segments.
    pub retransmissions: u64,
    /// Fast-retransmit events.
    pub fast_retransmits: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
}

/// A greedy (always backlogged) TCP Reno sender.
pub struct TcpSender {
    cfg: TcpSenderConfig,
    /// Congestion window in packets.
    cwnd: f64,
    ssthresh: f64,
    /// Lowest unacknowledged sequence number.
    snd_una: u64,
    /// Next new sequence number to send.
    snd_nxt: u64,
    dup_acks: u32,
    in_fast_recovery: bool,
    /// Send time of in-flight segments without a retransmission (for RTT
    /// sampling, Karn's rule).
    send_times: SendTimes,
    srtt: Option<f64>,
    rttvar: f64,
    rto: f64,
    /// The armed retransmission timer, if any.
    rto_timer: Option<TimerId>,
    started: bool,
    /// Bytes acknowledged, binned over time (goodput seen by the sender).
    acked_meter: ThroughputMeter,
    stats: TcpSenderStats,
}

impl TcpSender {
    /// Creates a sender.
    pub fn new(cfg: TcpSenderConfig) -> Self {
        TcpSender {
            cwnd: 2.0,
            ssthresh: INITIAL_SSTHRESH,
            snd_una: 0,
            snd_nxt: 0,
            dup_acks: 0,
            in_fast_recovery: false,
            send_times: SendTimes::default(),
            srtt: None,
            rttvar: 0.0,
            rto: 1.0,
            rto_timer: None,
            started: false,
            acked_meter: ThroughputMeter::new(1.0),
            stats: TcpSenderStats::default(),
            cfg,
        }
    }

    /// Current congestion window in packets.
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Counters.
    pub fn stats(&self) -> TcpSenderStats {
        self.stats
    }

    /// Throughput meter over acknowledged bytes (goodput).
    pub fn acked_meter(&self) -> &ThroughputMeter {
        &self.acked_meter
    }

    /// Current smoothed RTT estimate, if any sample has been taken.
    pub fn srtt(&self) -> Option<f64> {
        self.srtt
    }

    fn flight_size(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    fn send_segment(&mut self, ctx: &mut Context<'_>, seq: u64, is_retransmission: bool) {
        let now = ctx.now().as_secs();
        let seg = TcpSegment::Data {
            seq,
            timestamp: now,
        };
        let pkt = Packet::new(
            ctx.addr(),
            Dest::Unicast(self.cfg.dst),
            PACKET_SIZE,
            self.cfg.flow,
            Payload::new(seg),
        );
        ctx.send(pkt);
        self.stats.segments_sent += 1;
        if is_retransmission {
            self.stats.retransmissions += 1;
            // Karn's rule: never sample RTT from a retransmitted segment.
            self.send_times.remove(seq);
        } else {
            self.send_times.insert(seq, now);
        }
    }

    /// Sends as many new segments as the window allows.
    fn fill_window(&mut self, ctx: &mut Context<'_>) {
        let window = self.cwnd.min(MAX_CWND).floor().max(1.0) as u64;
        while self.flight_size() < window {
            let seq = self.snd_nxt;
            self.snd_nxt += 1;
            self.send_segment(ctx, seq, false);
        }
    }

    /// (Re)arms the retransmission timer `rto` from now.  Cancelling the
    /// superseded timer hands out the same event `seq` as leaving it queued
    /// would: the cancelled timer could only have fired and been ignored.
    fn arm_rto(&mut self, ctx: &mut Context<'_>) {
        if let Some(armed) = self.rto_timer.take() {
            ctx.cancel(armed);
        }
        self.rto_timer = Some(ctx.schedule(self.rto, RTO_TOKEN));
    }

    fn update_rtt(&mut self, sample: f64) {
        let sample = sample.max(1e-4);
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2.0;
            }
            Some(srtt) => {
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - sample).abs();
                self.srtt = Some(0.875 * srtt + 0.125 * sample);
            }
        }
        self.rto = (self.srtt.unwrap_or(sample) + 4.0 * self.rttvar).clamp(MIN_RTO, 60.0);
    }

    fn on_ack(&mut self, ctx: &mut Context<'_>, ack: u64, echo_timestamp: f64) {
        let now = ctx.now().as_secs();
        if ack > self.snd_una {
            // New data acknowledged.
            let newly_acked = ack - self.snd_una;
            self.acked_meter
                .record(ctx.now(), newly_acked * u64::from(PACKET_SIZE));
            // RTT sample from the echoed timestamp (valid because the sink
            // echoes the timestamp of the segment that triggered the ACK and
            // retransmitted segments never carry a sampled timestamp).
            if self.send_times.contains(ack - 1) || echo_timestamp > 0.0 {
                self.update_rtt(now - echo_timestamp);
            }
            // Drop the send-time records below the new snd_una.
            self.send_times.drop_below(ack);
            self.snd_una = ack;
            // After a timeout rolled snd_nxt back, late ACKs for old in-flight
            // data can overtake it; keep the invariant snd_nxt >= snd_una.
            self.snd_nxt = self.snd_nxt.max(self.snd_una);
            self.dup_acks = 0;
            if self.in_fast_recovery {
                // Reno: leave recovery once the retransmitted segment (and
                // everything before the recovery point) is acknowledged.
                self.in_fast_recovery = false;
                self.cwnd = self.ssthresh;
            } else if self.cwnd < self.ssthresh {
                // Slow start.
                self.cwnd = (self.cwnd + newly_acked as f64).min(MAX_CWND);
            } else {
                // Congestion avoidance: one packet per window per RTT.
                self.cwnd = (self.cwnd + newly_acked as f64 / self.cwnd).min(MAX_CWND);
            }
            self.arm_rto(ctx);
            self.fill_window(ctx);
        } else if ack == self.snd_una && self.flight_size() > 0 {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.dup_acks == 3 && !self.in_fast_recovery {
                // Fast retransmit / fast recovery.
                self.stats.fast_retransmits += 1;
                self.ssthresh = (self.flight_size() as f64 / 2.0).max(2.0);
                self.cwnd = self.ssthresh;
                self.in_fast_recovery = true;
                self.send_segment(ctx, self.snd_una, true);
                self.arm_rto(ctx);
            } else if self.in_fast_recovery {
                // Window inflation during recovery lets new data trickle out.
                self.cwnd += 1.0;
                self.fill_window(ctx);
                self.cwnd -= 1.0;
            }
        }
    }

    fn on_rto(&mut self, ctx: &mut Context<'_>) {
        if self.flight_size() == 0 {
            return;
        }
        self.stats.timeouts += 1;
        self.ssthresh = (self.flight_size() as f64 / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.dup_acks = 0;
        self.in_fast_recovery = false;
        // Go-back-N at packet granularity: resend from the first hole; the
        // rest is resent as the window reopens.
        self.snd_nxt = self.snd_una + 1;
        self.send_times.clear();
        self.send_segment(ctx, self.snd_una, true);
        self.rto = (self.rto * 2.0).min(60.0);
        self.arm_rto(ctx);
    }
}

impl Agent for TcpSender {
    fn start(&mut self, ctx: &mut Context<'_>) {
        let delay = (self.cfg.start_at - ctx.now().as_secs()).max(0.0);
        ctx.schedule(delay, START_TOKEN);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if token == START_TOKEN {
            if !self.started {
                self.started = true;
                self.fill_window(ctx);
                self.arm_rto(ctx);
            }
        } else {
            debug_assert!(
                token == RTO_TOKEN && self.rto_timer.is_some(),
                "retransmission timer {token} fired while disarmed"
            );
            self.rto_timer = None;
            self.on_rto(ctx);
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        if !self.started {
            return;
        }
        if let Some(&TcpSegment::Ack {
            ack,
            echo_timestamp,
        }) = packet.payload.downcast_ref::<TcpSegment>()
        {
            self.on_ack(ctx, ack, echo_timestamp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::add_flow;
    use crate::tcp::sink::TcpSink;
    use netsim::prelude::*;
    use tfmcc_model::throughput::padhye_throughput;

    /// One TCP flow across a configurable bottleneck, its sink and sender
    /// wrapped by `wrap_sink` and `wrap_sender`; returns (simulator, sink
    /// agent id, sender agent id).
    fn single_flow<S: Agent, T: Agent>(
        bottleneck_bytes_per_sec: f64,
        delay: f64,
        queue: usize,
        loss: Option<f64>,
        seed: u64,
        wrap_sink: fn(TcpSink) -> S,
        wrap_sender: fn(TcpSender) -> T,
    ) -> (Simulator, netsim::packet::AgentId, netsim::packet::AgentId) {
        let mut sim = Simulator::new(seed);
        let a = sim.add_node("sender");
        let b = sim.add_node("receiver");
        let (forward, _) = sim.add_duplex_link(
            a,
            b,
            bottleneck_bytes_per_sec,
            delay,
            QueueDiscipline::drop_tail(queue),
        );
        if let Some(p) = loss {
            sim.set_link_loss(forward, LossModel::Bernoulli { p });
        }
        let sink = sim.add_agent(b, Port(1), Box::new(wrap_sink(TcpSink::new(1.0))));
        let sender = sim.add_agent(
            a,
            Port(1),
            Box::new(wrap_sender(TcpSender::new(TcpSenderConfig::new(
                Address::new(b, Port(1)),
                FlowId(1),
            )))),
        );
        (sim, sink, sender)
    }

    /// One TCP flow across a configurable bottleneck, run for `duration`
    /// seconds; returns (simulator, sink agent id, sender agent id).
    fn run_single_flow(
        bottleneck_bytes_per_sec: f64,
        delay: f64,
        queue: usize,
        loss: Option<f64>,
        duration: f64,
        seed: u64,
    ) -> (Simulator, netsim::packet::AgentId, netsim::packet::AgentId) {
        let (mut sim, sink, sender) = single_flow(
            bottleneck_bytes_per_sec,
            delay,
            queue,
            loss,
            seed,
            |a| a,
            |a| a,
        );
        sim.run_until(SimTime::from_secs(duration));
        (sim, sink, sender)
    }

    #[test]
    fn single_flow_fills_the_bottleneck() {
        // 1 Mbit/s bottleneck, 20 ms one-way delay.
        let (sim, sink, sender) = run_single_flow(125_000.0, 0.02, 30, None, 60.0, 1);
        let s: &TcpSink = sim.agent(sink).unwrap();
        let rate = s.meter().average_between(10.0, 55.0);
        assert!(
            (105_000.0..=126_000.0).contains(&rate),
            "TCP should saturate the 125 kB/s bottleneck, got {rate}"
        );
        let tx: &TcpSender = sim.agent(sender).unwrap();
        assert!(
            tx.stats().timeouts < 10,
            "excessive timeouts: {:?}",
            tx.stats()
        );
        assert!(tx.srtt().unwrap() > 0.03);
    }

    #[test]
    fn slow_start_grows_window_exponentially_at_first() {
        let (sim, _, sender) = run_single_flow(1_250_000.0, 0.05, 200, None, 1.0, 2);
        let tx: &TcpSender = sim.agent(sender).unwrap();
        // After ~9 RTTs of uncongested slow start the window should be large.
        assert!(tx.cwnd() > 16.0, "cwnd after slow start: {}", tx.cwnd());
    }

    #[test]
    fn random_loss_reduces_throughput_roughly_per_model() {
        let p = 0.02;
        let (sim, sink, sender) = run_single_flow(12_500_000.0, 0.04, 1000, Some(p), 120.0, 3);
        let s: &TcpSink = sim.agent(sink).unwrap();
        let rate = s.meter().average_between(20.0, 110.0);
        // RTT ≈ 80 ms (uncongested), packet 1000 B.
        let model = padhye_throughput(1000.0, 0.08, p);
        assert!(
            rate < 0.35 * 12_500_000.0,
            "2% loss must keep TCP far below the 100 Mbit/s link: {rate}"
        );
        let ratio = rate / model;
        assert!(
            (0.3..=3.0).contains(&ratio),
            "throughput {rate} should be within 3x of the Padhye model {model}"
        );
        let tx: &TcpSender = sim.agent(sender).unwrap();
        assert!(tx.stats().fast_retransmits > 0);
    }

    #[test]
    fn two_flows_share_a_bottleneck_roughly_fairly() {
        let mut sim = Simulator::new(4);
        let cfg = DumbbellConfig {
            pairs: 2,
            bottleneck_bandwidth: 250_000.0,
            bottleneck_delay: 0.02,
            bottleneck_queue: QueueDiscipline::drop_tail(40),
            ..DumbbellConfig::default()
        };
        let d = netsim::topology::dumbbell(&mut sim, &cfg);
        let mut sinks = Vec::new();
        for i in 0..2 {
            let dst = Address::new(d.receivers[i], Port(1));
            let src = Address::new(d.senders[i], Port(1));
            let sender = TcpSenderConfig::new(dst, FlowId(i as u64));
            sinks.push(add_flow(&mut sim, src, sender, 1.0));
        }
        sim.run_until(SimTime::from_secs(120.0));
        let r0 = sim
            .agent::<TcpSink>(sinks[0])
            .unwrap()
            .meter()
            .average_between(20.0, 110.0);
        let r1 = sim
            .agent::<TcpSink>(sinks[1])
            .unwrap()
            .meter()
            .average_between(20.0, 110.0);
        let total = r0 + r1;
        assert!(
            (200_000.0..=260_000.0).contains(&total),
            "two flows should fill the 250 kB/s bottleneck: {total}"
        );
        let fairness = r0.min(r1) / r0.max(r1);
        assert!(
            fairness > 0.4,
            "long-term shares should be in the same ballpark: {r0} vs {r1}"
        );
    }

    #[test]
    fn sender_recovers_after_total_blackout_via_timeout() {
        // A queue of 1 packet and a tiny link force drops of whole windows,
        // exercising the RTO path.
        let (sim, sink, sender) = run_single_flow(12_500.0, 0.05, 1, None, 60.0, 5);
        let tx: &TcpSender = sim.agent(sender).unwrap();
        let s: &TcpSink = sim.agent(sink).unwrap();
        assert!(tx.stats().timeouts + tx.stats().fast_retransmits > 0);
        // Despite the hostile path, data keeps flowing.
        assert!(s.packets() > 100, "only {} packets delivered", s.packets());
    }

    #[test]
    fn delayed_start_honoured() {
        let mut sim = Simulator::new(6);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        sim.add_duplex_link(a, b, 125_000.0, 0.01, QueueDiscipline::drop_tail(50));
        let sender = TcpSenderConfig::new(Address::new(b, Port(1)), FlowId(1)).starting_at(5.0);
        let sink = add_flow(&mut sim, Address::new(a, Port(1)), sender, 1.0);
        sim.run_until(SimTime::from_secs(10.0));
        let s: &TcpSink = sim.agent(sink).unwrap();
        assert_eq!(s.meter().average_between(0.0, 4.0), 0.0);
        assert!(s.meter().average_between(6.0, 9.0) > 50_000.0);
    }

    /// ns-2's `TcpAgent` keeps one retransmission timer: re-arming on an
    /// ACK cancels the superseded one instead of leaving it queued to fire
    /// and be ignored (which peaked at 250 pending timers on this path).
    #[test]
    fn tcp_sender_keeps_one_rto_armed() {
        let (mut sim, _, sender) =
            single_flow(1_250_000.0, 0.02, 200, Some(0.001), 3, |a| a, |a| a);
        let mut peak = 0;
        for step in 1..=300 {
            sim.run_until(SimTime::from_secs(f64::from(step) * 0.1));
            peak = peak.max(sim.scheduler_diagnostics().pending_timers);
        }
        assert!(peak <= 1, "{peak} timers pending at once");
        let tx: &TcpSender = sim.agent(sender).unwrap();
        assert!(tx.stats().fast_retransmits > 0, "{:?}", tx.stats());
    }

    /// Forwards to the wrapped agent and logs every TCP segment handed to
    /// it: `(arrival time bits, data seq or cumulative ack)`.
    struct Tap<A> {
        inner: A,
        log: Vec<(u64, u64)>,
    }

    impl<A: Agent> Tap<A> {
        fn new(inner: A) -> Self {
            Tap {
                inner,
                log: Vec::new(),
            }
        }
    }

    impl<A: Agent> Agent for Tap<A> {
        fn start(&mut self, ctx: &mut Context<'_>) {
            self.inner.start(ctx);
        }

        fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
            self.inner.on_timer(ctx, token);
        }

        fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
            let n = match packet.payload.downcast_ref::<TcpSegment>() {
                Some(&TcpSegment::Data { seq, .. }) => seq,
                Some(&TcpSegment::Ack { ack, .. }) => ack,
                None => u64::MAX,
            };
            self.log.push((ctx.now().as_secs().to_bits(), n));
            self.inner.on_packet(ctx, packet);
        }
    }

    /// FNV-1a 64 over `words`.
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
            w.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
        })
    }

    /// Digest of one single-flow run: the sink's deliveries (time bits and
    /// data seq), the ACKs the sender takes in (time bits and ack), `cwnd`
    /// bits sampled every second, and the final [`TcpSenderStats`].
    fn trajectory_digest(
        bottleneck_bytes_per_sec: f64,
        delay: f64,
        queue: usize,
        loss: Option<f64>,
        seconds: u32,
        seed: u64,
    ) -> (u64, TcpSenderStats) {
        let (mut sim, sink, sender) = single_flow(
            bottleneck_bytes_per_sec,
            delay,
            queue,
            loss,
            seed,
            Tap::new,
            Tap::new,
        );
        let mut words = Vec::new();
        for t in 1..=seconds {
            sim.run_until(SimTime::from_secs(f64::from(t)));
            let tx: &Tap<TcpSender> = sim.agent(sender).unwrap();
            words.push(tx.inner.cwnd().to_bits());
        }
        let rx: &Tap<TcpSink> = sim.agent(sink).unwrap();
        let tx: &Tap<TcpSender> = sim.agent(sender).unwrap();
        let stats = tx.inner.stats();
        for log in [&rx.log, &tx.log] {
            words.push(log.len() as u64);
            words.extend(log.iter().flat_map(|&(t, n)| [t, n]));
        }
        words.extend([
            stats.segments_sent,
            stats.retransmissions,
            stats.fast_retransmits,
            stats.timeouts,
        ]);
        (fnv(words), stats)
    }

    /// Three single-flow trajectories, digested event by event and recorded
    /// at `e9b7406`, before the sender kept one armed RTO and its send
    /// times in a ring: neither may move a delivery, an ACK or a window.
    #[test]
    fn tcp_trajectories_match_the_recorded_digests() {
        let clean = trajectory_digest(125_000.0, 0.02, 30, None, 20, 1);
        let lossy = trajectory_digest(1_250_000.0, 0.02, 200, Some(0.03), 20, 3);
        let backoff = trajectory_digest(12_500.0, 0.01, 1, None, 60, 5);
        assert!(lossy.1.fast_retransmits > 0, "{:?}", lossy.1);
        assert!(backoff.1.timeouts > 10, "{:?}", backoff.1);
        assert_eq!(
            [clean.0, lossy.0, backoff.0],
            [
                0x9ab3_0b42_08f1_5051,
                0x34a2_68ec_1b9e_99f6,
                0x8ad8_cd91_eaa5_c235
            ]
        );
    }
}
