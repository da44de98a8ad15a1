//! TCP segment payloads exchanged between [`super::TcpSender`] and
//! [`super::TcpSink`].

/// Payload carried in netsim packets for the TCP agents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TcpSegment {
    /// A data segment.
    Data {
        /// Segment sequence number (counted in packets, not bytes).
        seq: u64,
        /// Sender timestamp, echoed back in the ACK for RTT measurement.
        timestamp: f64,
    },
    /// A cumulative acknowledgement.
    Ack {
        /// The next sequence number the sink expects (all lower numbers have
        /// been received).
        ack: u64,
        /// Echo of the timestamp of the data segment that triggered this ACK.
        echo_timestamp: f64,
    },
}

/// Wire size of an ACK segment in bytes.
pub const ACK_SIZE: u32 = 40;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_are_distinguishable() {
        let d = TcpSegment::Data {
            seq: 5,
            timestamp: 1.0,
        };
        let a = TcpSegment::Ack {
            ack: 6,
            echo_timestamp: 1.0,
        };
        assert_ne!(d, a);
        match d {
            TcpSegment::Data { seq, .. } => assert_eq!(seq, 5),
            _ => panic!("expected data"),
        }
        match a {
            TcpSegment::Ack { ack, .. } => assert_eq!(ack, 6),
            _ => panic!("expected ack"),
        }
    }
}
