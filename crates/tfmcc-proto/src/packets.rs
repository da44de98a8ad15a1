//! Protocol message types exchanged between the TFMCC sender and receivers.
//!
//! These are plain data structures — the sans-I/O core produces and consumes
//! them; the binding (the netsim agents in `tfmcc-agents`) decides how they
//! travel.

/// Identifier of a receiver within one TFMCC session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReceiverId(pub u64);

/// Echo of a receiver report carried in a data packet so the receiver can
/// measure its RTT (paper Section 2.4.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RttEcho {
    /// The receiver whose report is echoed.
    pub receiver: ReceiverId,
    /// The receiver's timestamp copied from its feedback packet (receiver
    /// clock).
    pub echo_timestamp: f64,
    /// Time the report spent at the sender before being echoed, which the
    /// receiver subtracts from its RTT sample.
    pub echo_delay: f64,
}

/// Echo of the lowest-rate feedback received so far in the current feedback
/// round, used by receivers to suppress their own feedback (paper
/// Section 2.5.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuppressionEcho {
    /// The receiver whose feedback is echoed.
    pub receiver: ReceiverId,
    /// The calculated rate it reported, in bytes/second.
    pub rate: f64,
}

/// Header of a TFMCC data packet (multicast from the sender to the group).
#[derive(Debug, Clone, PartialEq)]
pub struct DataPacket {
    /// Sequence number, consecutive per session.
    pub seqno: u64,
    /// Sender timestamp (sender clock, seconds).
    pub timestamp: f64,
    /// The sender's current sending rate in bytes/second.
    pub current_rate: f64,
    /// The maximum RTT over all receivers the sender knows of, used to size
    /// the feedback timers.
    pub max_rtt: f64,
    /// Current feedback round number.
    pub feedback_round: u64,
    /// True while the sender is in slowstart.
    pub slowstart: bool,
    /// The current limiting receiver, if any.
    pub clr: Option<ReceiverId>,
    /// Echo of one receiver report for RTT measurement.
    pub rtt_echo: Option<RttEcho>,
    /// Echo of the lowest-rate feedback of the current round for suppression.
    pub suppression: Option<SuppressionEcho>,
    /// Payload size in bytes (the header itself is considered part of the
    /// packet size for rate computations).
    pub size: u32,
}

/// A receiver report (unicast from a receiver to the sender).
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackPacket {
    /// The reporting receiver.
    pub receiver: ReceiverId,
    /// Receiver timestamp (receiver clock, seconds) at the time of sending,
    /// echoed back by the sender for RTT measurement.
    pub timestamp: f64,
    /// Timestamp of the most recent data packet received (sender clock),
    /// echoed so the sender can make its own RTT measurement
    /// (paper Section 2.4.4).
    pub echo_timestamp: f64,
    /// Delay between receiving that data packet and sending this report.
    pub echo_delay: f64,
    /// The rate this receiver calculated from the control equation, in
    /// bytes/second (`f64::INFINITY` while no loss has been observed).
    pub calculated_rate: f64,
    /// The receiver's current loss event rate estimate.
    pub loss_event_rate: f64,
    /// The receiver's measured receive rate in bytes/second (used during
    /// slowstart).
    pub receive_rate: f64,
    /// The receiver's RTT estimate in seconds.
    pub rtt: f64,
    /// True once the receiver has made at least one real RTT measurement;
    /// false while it is still using the configured initial RTT.
    pub has_rtt_measurement: bool,
    /// The feedback round this report belongs to.
    pub feedback_round: u64,
    /// True if the receiver is announcing that it is leaving the session.
    pub leaving: bool,
}

impl FeedbackPacket {
    /// Size of a feedback packet on the wire, in bytes (fixed; reports are
    /// small compared to data packets).
    pub const WIRE_SIZE: u32 = 64;
}

/// A population-weighted receiver report: one synthetic report standing for
/// `weight` receivers of a fluid population bin (hybrid packet/fluid tier).
///
/// The embedded [`FeedbackPacket`] carries the bin's quantile rate/RTT under
/// a synthetic [`ReceiverId`]; the sender treats it exactly like an ordinary
/// report except that the aggregator entry carries the bin's weight, so
/// [`population`](crate::aggregator::FeedbackAggregator::population) reflects
/// the receivers the session actually stands for.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationReport {
    /// The bin's report.
    pub feedback: FeedbackPacket,
    /// Number of receivers the report stands for (≥ 1).
    pub weight: u64,
}

impl PopulationReport {
    /// Wire size: a feedback packet plus the 8-byte weight.
    pub const WIRE_SIZE: u32 = FeedbackPacket::WIRE_SIZE + 8;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_packet_fields_round_trip_through_clone() {
        let d = DataPacket {
            seqno: 42,
            timestamp: 1.5,
            current_rate: 125_000.0,
            max_rtt: 0.5,
            feedback_round: 3,
            slowstart: true,
            clr: Some(ReceiverId(7)),
            rtt_echo: Some(RttEcho {
                receiver: ReceiverId(7),
                echo_timestamp: 1.0,
                echo_delay: 0.01,
            }),
            suppression: Some(SuppressionEcho {
                receiver: ReceiverId(9),
                rate: 100_000.0,
            }),
            size: 1000,
        };
        let e = d.clone();
        assert_eq!(d, e);
    }

    #[test]
    fn feedback_packet_defaults_make_sense() {
        let f = FeedbackPacket {
            receiver: ReceiverId(1),
            timestamp: 2.0,
            echo_timestamp: 1.9,
            echo_delay: 0.001,
            calculated_rate: f64::INFINITY,
            loss_event_rate: 0.0,
            receive_rate: 50_000.0,
            rtt: 0.5,
            has_rtt_measurement: false,
            feedback_round: 0,
            leaving: false,
        };
        assert!(f.calculated_rate.is_infinite());
        const { assert!(FeedbackPacket::WIRE_SIZE < 200) };
    }
}
