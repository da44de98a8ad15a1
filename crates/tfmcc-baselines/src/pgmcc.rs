//! PGMCC — pragmatic general multicast congestion control (Rizzo, SIGCOMM
//! 2000), the single-rate comparator discussed in Section 5 of the TFMCC
//! paper.
//!
//! PGMCC selects the receiver with the worst network conditions as the group
//! representative (the *acker*) using the simplified TCP throughput model,
//! then runs a TCP-like window-based congestion control loop between the
//! sender and the acker: the acker acknowledges every packet, the window
//! opens per ACK and halves on loss, producing TCP's characteristic sawtooth.
//! Other receivers send occasional reports carrying their loss rate and RTT
//! so the sender can re-elect the acker when conditions change.
//!
//! The implementation here is intentionally at the same level of abstraction
//! as the paper's description: enough fidelity to compare smoothness and
//! fairness against TFMCC (the sawtooth versus equation-driven rate), not a
//! full PGM transport.

pub mod acker;
pub mod receiver;
pub mod sender;

pub use acker::AckerTracker;
pub use receiver::PgmccReceiverAgent;
pub use sender::{PgmccSenderAgent, PgmccSenderStats};

/// Protocol messages exchanged by the PGMCC agents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PgmccMessage {
    /// Multicast data packet.
    Data {
        /// Sequence number.
        seq: u64,
        /// Sender timestamp for RTT measurement.
        timestamp: f64,
        /// Identifier of the current acker (receiver index), if any.
        acker: Option<u64>,
    },
    /// Acknowledgement from the acker (one per received data packet).
    Ack {
        /// Identifier of the acking receiver.
        receiver: u64,
        /// Highest in-order sequence number received plus one.
        cumulative: u64,
        /// Most recent sequence number received (for duplicate detection).
        latest: u64,
        /// Total number of sequence holes the acker has observed so far.
        /// The packet-level model never retransmits, so the cumulative
        /// point skips holes; this counter is how loss still reaches the
        /// sender's window (one halving per window of new holes).
        lost_total: u64,
        /// Echo of the data packet's timestamp.
        echo_timestamp: f64,
        /// The receiver's smoothed loss rate estimate.
        loss_rate: f64,
    },
    /// Occasional report from a non-acker receiver.
    Report {
        /// Identifier of the reporting receiver.
        receiver: u64,
        /// Echo of the most recent data timestamp (for sender-side RTT).
        echo_timestamp: f64,
        /// The receiver's smoothed loss rate estimate.
        loss_rate: f64,
    },
}

/// Wire size of ACK and report packets in bytes.
pub const CONTROL_PACKET_SIZE: u32 = 40;
