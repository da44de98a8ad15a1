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

pub mod segment;
pub mod sender;
pub mod sink;

pub use segment::TcpSegment;
pub use sender::{TcpSender, TcpSenderConfig, TcpSenderStats};
pub use sink::TcpSink;
