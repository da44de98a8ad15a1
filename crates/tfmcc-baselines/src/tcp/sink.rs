//! Cumulative-ACK TCP sink.

use std::collections::BTreeSet;

use netsim::packet::{Dest, Packet, Payload};
use netsim::sim::{Agent, Context};
use netsim::stats::ThroughputMeter;

use super::segment::{TcpSegment, ACK_SIZE};

/// Receiver side of the TCP agent pair: acknowledges every data segment with
/// a cumulative ACK and measures goodput.
pub struct TcpSink {
    /// Next in-order sequence number expected.
    expected: u64,
    /// Out-of-order segments received above `expected`.
    out_of_order: BTreeSet<u64>,
    meter: ThroughputMeter,
    packets: u64,
}

impl TcpSink {
    /// Creates a sink binning goodput into `bin`-second intervals.
    pub fn new(bin: f64) -> Self {
        TcpSink {
            expected: 0,
            out_of_order: BTreeSet::new(),
            meter: ThroughputMeter::new(bin),
            packets: 0,
        }
    }

    /// Goodput meter (in-order bytes delivered).
    pub fn meter(&self) -> &ThroughputMeter {
        &self.meter
    }

    /// Number of data segments received (including out-of-order ones).
    pub fn packets(&self) -> u64 {
        self.packets
    }

    fn absorb(&mut self, seq: u64) {
        if seq == self.expected {
            self.expected += 1;
            // Drain any contiguous out-of-order segments.
            while self.out_of_order.remove(&self.expected) {
                self.expected += 1;
            }
        } else if seq > self.expected {
            self.out_of_order.insert(seq);
        }
        // seq < expected: duplicate (retransmission already covered), ignore.
    }
}

impl Agent for TcpSink {
    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        let Some(&TcpSegment::Data { seq, timestamp }) =
            packet.payload.downcast_ref::<TcpSegment>()
        else {
            return;
        };
        self.packets += 1;
        self.meter.record(ctx.now(), u64::from(packet.size));
        self.absorb(seq);
        let ack = TcpSegment::Ack {
            ack: self.expected,
            echo_timestamp: timestamp,
        };
        let reply = Packet::new(
            ctx.addr(),
            Dest::Unicast(packet.src),
            ACK_SIZE,
            packet.flow,
            Payload::new(ack),
        );
        ctx.send(reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_tracks_cumulative_and_out_of_order() {
        let mut s = TcpSink::new(1.0);
        s.absorb(0);
        s.absorb(1);
        assert_eq!(s.expected, 2);
        // A hole at 2; 3 and 4 buffered.
        s.absorb(3);
        s.absorb(4);
        assert_eq!(s.expected, 2);
        // Filling the hole releases the buffered segments.
        s.absorb(2);
        assert_eq!(s.expected, 5);
        // Duplicates are harmless.
        s.absorb(1);
        assert_eq!(s.expected, 5);
        assert!(s.out_of_order.is_empty());
    }
}
