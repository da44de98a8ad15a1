//! TFMCC — TCP-Friendly Multicast Congestion Control (sans-I/O protocol core).
//!
//! This crate implements the protocol described in Widmer & Handley,
//! *Extending Equation-based Congestion Control to Multicast Applications*
//! (SIGCOMM 2001): a single-rate, equation-based multicast congestion control
//! scheme that extends unicast TFRC to multicast groups of thousands of
//! receivers.
//!
//! The implementation is **sans-I/O**: [`sender::TfmccSender`] and
//! [`receiver::TfmccReceiver`] are pure state machines that consume packets
//! and clock readings and produce packets and timer deadlines.  Adapters bind
//! them to an environment:
//!
//! * `tfmcc-agents` runs them inside the `netsim` discrete-event simulator
//!   (the configuration used for all paper experiments);
//! * `tfmcc-transport` runs them over real UDP sockets.
//!
//! # Protocol overview
//!
//! * Each **receiver** measures its loss event rate ([`loss::LossHistory`])
//!   and RTT ([`rtt::RttEstimator`]) and evaluates the TCP throughput
//!   equation to obtain the rate a TCP flow would achieve on its path.
//! * Receivers report this rate to the sender, using biased exponentially
//!   distributed random timers ([`feedback::FeedbackPlanner`]) so that the
//!   most limited receivers answer first and a feedback implosion is
//!   impossible.
//! * The **sender** tracks the *current limiting receiver* (CLR) and adjusts
//!   its sending rate to the CLR's calculated rate — decreases immediately,
//!   increases limited to one packet per RTT ([`sender::TfmccSender`]).
//! * A slowstart phase doubles the rate up to twice the minimum receive rate
//!   until the first loss is reported.
//!
//! # Example
//!
//! ```
//! use tfmcc_proto::prelude::*;
//!
//! let config = TfmccConfig::default();
//! let mut sender = TfmccSender::new(config.clone());
//! let mut receiver = TfmccReceiver::new(ReceiverId(1), config);
//!
//! // One data packet travels sender -> receiver (50 ms one-way delay).
//! let data = sender.next_data(0.0);
//! let feedback = receiver.on_data(0.05, &data);
//! // Slowstart: the receiver schedules a biased feedback timer.
//! assert!(feedback.is_some() || receiver.next_timer().is_some());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregator;
pub mod config;
pub mod feedback;
pub mod loss;
pub mod packets;
pub mod rate_meter;
pub mod receiver;
pub mod rtt;
pub mod sender;
pub mod step;

/// Commonly used types.
pub mod prelude {
    pub use crate::aggregator::FeedbackAggregator;
    pub use crate::config::TfmccConfig;
    pub use crate::feedback::{BiasMethod, FeedbackPlanner};
    pub use crate::loss::LossHistory;
    pub use crate::packets::{DataPacket, FeedbackPacket, ReceiverId, RttEcho, SuppressionEcho};
    pub use crate::rate_meter::ReceiveRateMeter;
    pub use crate::receiver::{ReceiverStats, TfmccReceiver};
    pub use crate::rtt::RttEstimator;
    pub use crate::sender::{SenderStats, TfmccSender};
    pub use crate::step::{ReceiverStep, SenderStep, StateFingerprint};
}
