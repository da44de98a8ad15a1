//! Small reusable traffic agents: a constant-bit-rate source and a counting
//! sink.
//!
//! These are not part of any congestion control protocol — they provide
//! background/filler traffic for tests and examples, and the measuring sink
//! used throughout the experiment harness.

use crate::packet::{Address, Dest, FlowId, GroupId, Packet, Payload};
use crate::sim::{Agent, Context};
use crate::stats::ThroughputMeter;
use crate::time::SimTime;

/// Sends fixed-size packets at a constant bit rate to a destination.
#[derive(Debug)]
pub struct CbrSource {
    dst: Dest,
    flow: FlowId,
    packet_size: u32,
    rate: f64,
    start_at: f64,
    stop_at: Option<f64>,
    sent_packets: u64,
}

impl CbrSource {
    /// A CBR source sending `rate` bytes/second of `packet_size`-byte packets
    /// to `dst`, starting at `start_at` seconds of simulation time.
    pub fn new(dst: Dest, flow: FlowId, packet_size: u32, rate: f64, start_at: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "CBR rate must be a positive, finite number of bytes/s, got {rate}"
        );
        assert!(packet_size > 0, "packet size must be positive");
        CbrSource {
            dst,
            flow,
            packet_size,
            rate,
            start_at,
            stop_at: None,
            sent_packets: 0,
        }
    }

    /// Stops sending at the given simulation time.
    pub fn stop_at(mut self, t: f64) -> Self {
        self.stop_at = Some(t);
        self
    }

    /// Number of packets sent so far.
    pub fn sent_packets(&self) -> u64 {
        self.sent_packets
    }

    fn interval(&self) -> f64 {
        f64::from(self.packet_size) / self.rate
    }
}

impl Agent for CbrSource {
    fn start(&mut self, ctx: &mut Context<'_>) {
        let delay = (self.start_at - ctx.now().as_secs()).max(0.0);
        ctx.schedule(delay, 0);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        if let Some(stop) = self.stop_at {
            if ctx.now().as_secs() >= stop {
                return;
            }
        }
        let pkt = Packet::new(
            ctx.addr(),
            self.dst,
            self.packet_size,
            self.flow,
            Payload::empty(),
        );
        ctx.send(pkt);
        self.sent_packets += 1;
        ctx.schedule(self.interval(), 0);
    }
}

/// Counts and bins everything it receives.
#[derive(Debug)]
pub struct Sink {
    meter: ThroughputMeter,
    packets: u64,
}

impl Sink {
    /// A sink binning received bytes into `bin`-second intervals.
    pub fn new(bin: f64) -> Self {
        Sink {
            meter: ThroughputMeter::new(bin),
            packets: 0,
        }
    }

    /// The throughput meter with everything received so far.
    pub fn meter(&self) -> &ThroughputMeter {
        &self.meter
    }

    /// Number of packets received.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Time of the most recent arrival.
    pub fn last_arrival(&self) -> Option<SimTime> {
        self.meter.last_at()
    }
}

impl Agent for Sink {
    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        self.meter.record(ctx.now(), u64::from(packet.size));
        self.packets += 1;
    }
}

/// Convenience: the unicast destination of a sink agent.
pub fn unicast_to(addr: Address) -> Dest {
    Dest::Unicast(addr)
}

/// A [`Sink`] that subscribes to a multicast group on start — the counting
/// receiver used by multicast fan-out tests and benchmarks.  It can
/// optionally churn: leave and rejoin the group on a fixed cycle.
#[derive(Debug)]
pub struct GroupSink {
    group: GroupId,
    toggle_every: Option<f64>,
    joined: bool,
    sink: Sink,
}

impl GroupSink {
    /// A group-subscribed sink binning received bytes into `bin`-second
    /// intervals.
    pub fn new(group: GroupId, bin: f64) -> Self {
        GroupSink {
            group,
            toggle_every: None,
            joined: false,
            sink: Sink::new(bin),
        }
    }

    /// Makes the sink toggle its group membership every `period` seconds
    /// (leave, rejoin, leave, ...) — the churn workload of the fan-out
    /// benchmarks.
    pub fn churning(mut self, period: f64) -> Self {
        assert!(period > 0.0, "churn period must be positive, got {period}");
        self.toggle_every = Some(period);
        self
    }

    /// The throughput meter with everything received so far.
    pub fn meter(&self) -> &ThroughputMeter {
        self.sink.meter()
    }

    /// Number of packets received.
    pub fn packets(&self) -> u64 {
        self.sink.packets()
    }
}

impl Agent for GroupSink {
    fn start(&mut self, ctx: &mut Context<'_>) {
        ctx.join_group(self.group);
        self.joined = true;
        if let Some(period) = self.toggle_every {
            ctx.schedule(period, 0);
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        if self.joined {
            ctx.leave_group(self.group);
        } else {
            ctx.join_group(self.group);
        }
        self.joined = !self.joined;
        if let Some(period) = self.toggle_every {
            ctx.schedule(period, 0);
        }
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        self.sink.on_packet(ctx, packet);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{NodeId, Port};
    use crate::queue::QueueDiscipline;
    use crate::sim::Simulator;

    fn build() -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(11);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        sim.add_duplex_link(a, b, 1e6, 0.005, QueueDiscipline::drop_tail(100));
        (sim, a, b)
    }

    /// An infinite rate means a zero send interval: `run_until` would never
    /// return.
    #[test]
    #[should_panic(expected = "finite number of bytes/s, got inf")]
    fn cbr_source_rejects_an_infinite_rate() {
        let dst = unicast_to(Address::new(NodeId(0), Port(1)));
        let _ = CbrSource::new(dst, FlowId(1), 1000, f64::INFINITY, 0.0);
    }

    #[test]
    fn cbr_source_achieves_configured_rate() {
        let (mut sim, a, b) = build();
        let sink = sim.add_agent(b, Port(1), Box::new(Sink::new(1.0)));
        let dst = unicast_to(Address::new(b, Port(1)));
        let src = sim.add_agent(
            a,
            Port(1),
            Box::new(CbrSource::new(dst, FlowId(1), 1000, 100_000.0, 0.0)),
        );
        sim.run_until(SimTime::from_secs(10.0));
        let s: &Sink = sim.agent(sink).unwrap();
        let avg = s.meter().average_between(1.0, 9.0);
        assert!(
            (95_000.0..=105_000.0).contains(&avg),
            "average rate {avg} B/s"
        );
        let c: &CbrSource = sim.agent(src).unwrap();
        assert!(c.sent_packets() >= 990);
    }

    #[test]
    fn cbr_source_honours_start_and_stop() {
        let (mut sim, a, b) = build();
        let sink = sim.add_agent(b, Port(1), Box::new(Sink::new(0.5)));
        let dst = unicast_to(Address::new(b, Port(1)));
        sim.add_agent(
            a,
            Port(1),
            Box::new(CbrSource::new(dst, FlowId(1), 1000, 50_000.0, 2.0).stop_at(4.0)),
        );
        sim.run_until(SimTime::from_secs(10.0));
        let s: &Sink = sim.agent(sink).unwrap();
        assert_eq!(s.meter().average_between(0.0, 2.0), 0.0);
        assert!(s.meter().average_between(2.5, 3.5) > 40_000.0);
        assert_eq!(s.meter().average_between(5.0, 10.0), 0.0);
        assert!(s.last_arrival().unwrap().as_secs() < 4.2);
    }
}
