//! A packet-level TCP Reno agent for the `netsim` simulator.
//!
//! The TFMCC evaluation needs competing TCP traffic whose congestion
//! behaviour is faithful: slow start, additive increase, fast
//! retransmit/recovery on triple duplicate ACKs, and retransmission timeouts
//! with exponential backoff.  This module provides a greedy (always
//! backlogged) [`TcpSender`] and a cumulative-ACK [`TcpSink`], which together
//! reproduce TCP Reno's characteristic sawtooth at packet granularity.  It is
//! the stand-in for the ns-2 TCP agents used in the paper.
//!
//! Reliability is modelled only as far as congestion control requires
//! (retransmissions occupy window space and consume bandwidth); the payload
//! bytes themselves are not reassembled.
//!
//! [`add_flow`] wires one sender–sink pair, the way every experiment adds
//! its TCP traffic.

pub mod segment;
mod send_times;
pub mod sender;
pub mod sink;

pub use segment::TcpSegment;
pub use sender::{TcpSender, TcpSenderConfig, TcpSenderStats};
pub use sink::TcpSink;

use netsim::packet::{Address, AgentId};
use netsim::sim::Simulator;

/// Wires one TCP flow into `sim` — a [`TcpSink`] at `sender.dst` binning
/// goodput over `sink_bin` seconds, then the [`TcpSender`] at `src` — and
/// returns the sink's agent id.
pub fn add_flow(
    sim: &mut Simulator,
    src: Address,
    sender: TcpSenderConfig,
    sink_bin: f64,
) -> AgentId {
    let sink = TcpSink::new(sink_bin);
    let sink = sim.add_agent(sender.dst.node, sender.dst.port, Box::new(sink));
    sim.add_agent(src.node, src.port, Box::new(TcpSender::new(sender)));
    sink
}
