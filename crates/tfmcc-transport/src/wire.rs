//! Binary wire format for TFMCC messages.
//!
//! The format is a straightforward fixed-layout encoding (network byte
//! order) with a one-byte message type and a one-byte version, sized so that
//! a data header fits comfortably in front of application payload inside a
//! single UDP datagram.
//!
//! Decoding is the trust boundary: datagrams come from the network, so
//! [`decode_message`] rejects every real that the state machines could not
//! have produced themselves (NaN, ±∞, negative rates/RTTs/delays, a loss
//! event rate above 1) instead of handing it to them.  A datagram is exactly
//! one message, so bytes after its end are rejected as well: no application
//! payload travels in this version, `DataPacket::size` only declares it.

use tfmcc_proto::packets::{DataPacket, FeedbackPacket, ReceiverId, RttEcho, SuppressionEcho};

/// Wire protocol version.
pub const WIRE_VERSION: u8 = 1;

const TYPE_DATA: u8 = 1;
const TYPE_FEEDBACK: u8 = 2;

/// A decoded TFMCC message.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    /// Data-packet header.
    Data(DataPacket),
    /// Receiver report.
    Feedback(FeedbackPacket),
}

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The datagram is shorter than the fixed header.
    Truncated,
    /// Unknown wire version.
    BadVersion(u8),
    /// Unknown message type byte.
    BadType(u8),
    /// The named field holds a value no conforming endpoint sends: a
    /// non-finite or negative real, a loss event rate above 1, an option tag
    /// other than 0/1, or bytes after the end of the message.
    BadValue(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "datagram too short"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadType(t) => write!(f, "unknown message type {t}"),
            WireError::BadValue(field) => write!(f, "invalid {field}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes a message into a datagram payload.
pub fn encode_message(msg: &WireMessage) -> Vec<u8> {
    let mut buf = Vec::with_capacity(128);
    buf.put_u8(WIRE_VERSION);
    match msg {
        WireMessage::Data(d) => {
            buf.put_u8(TYPE_DATA);
            buf.put_u64(d.seqno);
            buf.put_f64(d.timestamp);
            buf.put_f64(d.current_rate);
            buf.put_f64(d.max_rtt);
            buf.put_u64(d.feedback_round);
            buf.put_u8(u8::from(d.slowstart));
            put_opt_u64(&mut buf, d.clr.map(|c| c.0));
            match &d.rtt_echo {
                Some(e) => {
                    buf.put_u8(1);
                    buf.put_u64(e.receiver.0);
                    buf.put_f64(e.echo_timestamp);
                    buf.put_f64(e.echo_delay);
                }
                None => buf.put_u8(0),
            }
            match &d.suppression {
                Some(s) => {
                    buf.put_u8(1);
                    buf.put_u64(s.receiver.0);
                    buf.put_f64(s.rate);
                }
                None => buf.put_u8(0),
            }
            buf.put_u32(d.size);
        }
        WireMessage::Feedback(fb) => {
            buf.put_u8(TYPE_FEEDBACK);
            buf.put_u64(fb.receiver.0);
            buf.put_f64(fb.timestamp);
            buf.put_f64(fb.echo_timestamp);
            buf.put_f64(fb.echo_delay);
            buf.put_f64(if fb.calculated_rate.is_finite() {
                fb.calculated_rate
            } else {
                -1.0
            });
            buf.put_f64(fb.loss_event_rate);
            buf.put_f64(fb.receive_rate);
            buf.put_f64(fb.rtt);
            buf.put_u8(u8::from(fb.has_rtt_measurement));
            buf.put_u64(fb.feedback_round);
            buf.put_u8(u8::from(fb.leaving));
        }
    }
    buf
}

fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(x) => {
            buf.put_u8(1);
            buf.put_u64(x);
        }
        None => buf.put_u8(0),
    }
}

/// Decodes a datagram payload, rejecting malformed and out-of-range input
/// (see the [module documentation](self)).
pub fn decode_message(mut data: &[u8]) -> Result<WireMessage, WireError> {
    if data.len() < 2 {
        return Err(WireError::Truncated);
    }
    let version = data.get_u8();
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let msg_type = data.get_u8();
    let msg = match msg_type {
        TYPE_DATA => {
            // Fixed part: 8+8+8+8+8+1 = 41, plus option tags handled below.
            if data.remaining() < 41 {
                return Err(WireError::Truncated);
            }
            let seqno = data.get_u64();
            let timestamp = finite(data.get_f64(), "timestamp")?;
            let current_rate = non_negative(data.get_f64(), "current_rate")?;
            let max_rtt = non_negative(data.get_f64(), "max_rtt")?;
            let feedback_round = data.get_u64();
            let slowstart = data.get_u8() != 0;
            let clr = if get_option_tag(&mut data, 8)? {
                Some(ReceiverId(data.get_u64()))
            } else {
                None
            };
            let rtt_echo = if get_option_tag(&mut data, 24)? {
                Some(RttEcho {
                    receiver: ReceiverId(data.get_u64()),
                    echo_timestamp: finite(data.get_f64(), "echo_timestamp")?,
                    echo_delay: non_negative(data.get_f64(), "echo_delay")?,
                })
            } else {
                None
            };
            let suppression = if get_option_tag(&mut data, 16)? {
                Some(SuppressionEcho {
                    receiver: ReceiverId(data.get_u64()),
                    rate: non_negative(data.get_f64(), "suppression rate")?,
                })
            } else {
                None
            };
            if data.remaining() < 4 {
                return Err(WireError::Truncated);
            }
            let size = data.get_u32();
            WireMessage::Data(DataPacket {
                seqno,
                timestamp,
                current_rate,
                max_rtt,
                feedback_round,
                slowstart,
                clr,
                rtt_echo,
                suppression,
                size,
            })
        }
        TYPE_FEEDBACK => {
            if data.remaining() < 8 * 8 + 2 + 8 {
                return Err(WireError::Truncated);
            }
            let receiver = ReceiverId(data.get_u64());
            let timestamp = finite(data.get_f64(), "timestamp")?;
            let echo_timestamp = finite(data.get_f64(), "echo_timestamp")?;
            let echo_delay = non_negative(data.get_f64(), "echo_delay")?;
            // Any negative value is the encoder's sentinel for "no loss seen
            // yet" (+∞ does not travel as itself).
            let raw_rate = finite(data.get_f64(), "calculated_rate")?;
            let calculated_rate = if raw_rate < 0.0 {
                f64::INFINITY
            } else {
                raw_rate
            };
            let loss_event_rate = non_negative(data.get_f64(), "loss_event_rate")?;
            if loss_event_rate > 1.0 {
                return Err(WireError::BadValue("loss_event_rate"));
            }
            let receive_rate = non_negative(data.get_f64(), "receive_rate")?;
            let rtt = non_negative(data.get_f64(), "rtt")?;
            let has_rtt_measurement = data.get_u8() != 0;
            let feedback_round = data.get_u64();
            let leaving = data.get_u8() != 0;
            WireMessage::Feedback(FeedbackPacket {
                receiver,
                timestamp,
                echo_timestamp,
                echo_delay,
                calculated_rate,
                loss_event_rate,
                receive_rate,
                rtt,
                has_rtt_measurement,
                feedback_round,
                leaving,
            })
        }
        other => return Err(WireError::BadType(other)),
    };
    if data.remaining() > 0 {
        return Err(WireError::BadValue("trailing bytes"));
    }
    Ok(msg)
}

/// A timestamp: any finite value (clock origins are arbitrary).
fn finite(v: f64, field: &'static str) -> Result<f64, WireError> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(WireError::BadValue(field))
    }
}

/// A rate, RTT, delay or probability: finite and not negative.
fn non_negative(v: f64, field: &'static str) -> Result<f64, WireError> {
    if v.is_finite() && v >= 0.0 {
        Ok(v)
    } else {
        Err(WireError::BadValue(field))
    }
}

/// Reads an option tag; `true` means a `body`-byte value follows (and is
/// fully present).
fn get_option_tag(data: &mut &[u8], body: usize) -> Result<bool, WireError> {
    if data.remaining() < 1 {
        return Err(WireError::Truncated);
    }
    match data.get_u8() {
        0 => Ok(false),
        1 if data.remaining() < body => Err(WireError::Truncated),
        1 => Ok(true),
        _ => Err(WireError::BadValue("option tag")),
    }
}

/// Network-order (big-endian) writes onto a datagram being built.
trait PutBe {
    fn put_u8(&mut self, v: u8);
    fn put_u32(&mut self, v: u32);
    fn put_u64(&mut self, v: u64);
    fn put_f64(&mut self, v: f64);
}

impl PutBe for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u32(&mut self, v: u32) {
        self.extend(v.to_be_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.extend(v.to_be_bytes());
    }
    fn put_f64(&mut self, v: f64) {
        self.extend(v.to_be_bytes());
    }
}

/// Network-order (big-endian) reads off the front of a datagram.  A read
/// past the end panics, so the decoder checks `remaining()` first.
trait GetBe {
    fn remaining(&self) -> usize;
    fn take<const N: usize>(&mut self) -> [u8; N];

    fn get_u8(&mut self) -> u8 {
        u8::from_be_bytes(self.take())
    }
    fn get_u32(&mut self) -> u32 {
        u32::from_be_bytes(self.take())
    }
    fn get_u64(&mut self) -> u64 {
        u64::from_be_bytes(self.take())
    }
    fn get_f64(&mut self) -> f64 {
        f64::from_be_bytes(self.take())
    }
}

impl GetBe for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn take<const N: usize>(&mut self) -> [u8; N] {
        let (head, tail) = self
            .split_first_chunk()
            .expect("length checked before the read");
        *self = tail;
        *head
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_data() -> DataPacket {
        DataPacket {
            seqno: 99,
            timestamp: 12.5,
            current_rate: 200_000.0,
            max_rtt: 0.25,
            feedback_round: 7,
            slowstart: true,
            clr: Some(ReceiverId(3)),
            rtt_echo: Some(RttEcho {
                receiver: ReceiverId(3),
                echo_timestamp: 11.0,
                echo_delay: 0.004,
            }),
            suppression: Some(SuppressionEcho {
                receiver: ReceiverId(5),
                rate: 80_000.0,
            }),
            size: 1000,
        }
    }

    fn sample_feedback() -> FeedbackPacket {
        FeedbackPacket {
            receiver: ReceiverId(11),
            timestamp: 5.5,
            echo_timestamp: 5.2,
            echo_delay: 0.001,
            calculated_rate: 90_000.0,
            loss_event_rate: 0.02,
            receive_rate: 110_000.0,
            rtt: 0.06,
            has_rtt_measurement: true,
            feedback_round: 7,
            leaving: false,
        }
    }

    #[test]
    fn data_round_trip() {
        let msg = WireMessage::Data(sample_data());
        let bytes = encode_message(&msg);
        assert_eq!(decode_message(&bytes).unwrap(), msg);
    }

    #[test]
    fn data_round_trip_without_options() {
        let mut d = sample_data();
        d.clr = None;
        d.rtt_echo = None;
        d.suppression = None;
        let msg = WireMessage::Data(d);
        let bytes = encode_message(&msg);
        assert_eq!(decode_message(&bytes).unwrap(), msg);
    }

    #[test]
    fn feedback_round_trip_including_infinite_rate() {
        let mut fb = sample_feedback();
        fb.calculated_rate = f64::INFINITY;
        let msg = WireMessage::Feedback(fb);
        let bytes = encode_message(&msg);
        assert_eq!(decode_message(&bytes).unwrap(), msg);
    }

    #[test]
    fn truncated_and_garbage_inputs_are_rejected() {
        let bytes = encode_message(&WireMessage::Data(sample_data()));
        for len in 0..bytes.len() {
            assert!(
                decode_message(&bytes[..len]).is_err(),
                "truncation to {len} bytes must fail"
            );
        }
        assert_eq!(decode_message(&[9, 1, 0, 0]), Err(WireError::BadVersion(9)));
        assert_eq!(decode_message(&[1, 77, 0, 0]), Err(WireError::BadType(77)));
    }

    #[test]
    fn out_of_range_values_are_rejected_by_name() {
        let forge = |edit: fn(&mut FeedbackPacket)| {
            let mut fb = sample_feedback();
            edit(&mut fb);
            decode_message(&encode_message(&WireMessage::Feedback(fb)))
        };
        assert_eq!(
            forge(|fb| fb.rtt = f64::NAN),
            Err(WireError::BadValue("rtt"))
        );
        assert_eq!(
            forge(|fb| fb.receive_rate = -1.0),
            Err(WireError::BadValue("receive_rate"))
        );
        assert_eq!(
            forge(|fb| fb.loss_event_rate = 1.5),
            Err(WireError::BadValue("loss_event_rate"))
        );
        assert_eq!(
            forge(|fb| fb.timestamp = f64::INFINITY),
            Err(WireError::BadValue("timestamp"))
        );
        let mut bytes = encode_message(&WireMessage::Data(sample_data())).to_vec();
        bytes[43] = 2; // the CLR option tag, right after the 2 + 41 fixed bytes
        assert_eq!(
            decode_message(&bytes),
            Err(WireError::BadValue("option tag"))
        );
    }

    /// What [`decode_message`] promises about every message it accepts.
    fn assert_in_range(msg: &WireMessage) {
        let magnitude = |v: f64| v.is_finite() && v >= 0.0;
        let ok = match msg {
            WireMessage::Data(d) => {
                d.timestamp.is_finite()
                    && magnitude(d.current_rate)
                    && magnitude(d.max_rtt)
                    && d.rtt_echo
                        .is_none_or(|e| e.echo_timestamp.is_finite() && magnitude(e.echo_delay))
                    && d.suppression.is_none_or(|s| magnitude(s.rate))
            }
            WireMessage::Feedback(fb) => {
                fb.timestamp.is_finite()
                    && fb.echo_timestamp.is_finite()
                    && magnitude(fb.echo_delay)
                    // +∞ ("no loss yet") is the one legal non-finite value.
                    && fb.calculated_rate >= 0.0
                    && (0.0..=1.0).contains(&fb.loss_event_rate)
                    && magnitude(fb.receive_rate)
                    && magnitude(fb.rtt)
            }
        };
        assert!(ok, "decoded an out-of-range message: {msg:?}");
    }

    proptest! {
        /// Hostile input, part one: arbitrary datagrams (half of them with a
        /// valid version/type prefix, so the field checks are reached).
        #[test]
        fn arbitrary_bytes_never_panic_and_decode_in_range(
            raw in proptest::collection::vec(any::<u8>(), 0..257),
            framed in any::<bool>(),
            msg_type in TYPE_DATA..=TYPE_FEEDBACK,
        ) {
            let mut bytes = raw;
            if framed && bytes.len() >= 2 {
                bytes[0] = WIRE_VERSION;
                bytes[1] = msg_type;
            }
            if let Ok(msg) = decode_message(&bytes) {
                assert_in_range(&msg);
            }
        }

        /// Hostile input, part two: a valid encoding with 1–8 bit flips, a
        /// truncation, or 1–8 appended bytes.
        #[test]
        fn mutated_encodings_never_panic_and_decode_in_range(
            feedback in any::<bool>(),
            mutation in 0u8..3,
            draws in proptest::collection::vec(any::<u64>(), 1..9),
        ) {
            let msg = if feedback {
                WireMessage::Feedback(sample_feedback())
            } else {
                WireMessage::Data(sample_data())
            };
            let mut bytes = encode_message(&msg).to_vec();
            match mutation {
                0 => {
                    for d in &draws {
                        let bit = *d as usize % (bytes.len() * 8);
                        bytes[bit / 8] ^= 1 << (bit % 8);
                    }
                }
                1 => bytes.truncate(draws[0] as usize % bytes.len()),
                _ => bytes.extend(draws.iter().map(|d| *d as u8)),
            }
            if let Ok(msg) = decode_message(&bytes) {
                prop_assert!(mutation == 0, "accepted a truncated or padded datagram");
                assert_in_range(&msg);
            }
        }

        #[test]
        fn feedback_encoding_round_trips(
            receiver in 0u64..1_000_000,
            timestamp in 0.0f64..1e6,
            echo_timestamp in 0.0f64..1e6,
            echo_delay in 0.0f64..10.0,
            rate in 1.0f64..1e9,
            loss in 0.0f64..1.0,
            recv_rate in 0.0f64..1e9,
            rtt in 0.0001f64..10.0,
            has_rtt in any::<bool>(),
            round in 0u64..1_000_000,
            leaving in any::<bool>(),
        ) {
            let fb = FeedbackPacket {
                receiver: ReceiverId(receiver),
                timestamp,
                echo_timestamp,
                echo_delay,
                calculated_rate: rate,
                loss_event_rate: loss,
                receive_rate: recv_rate,
                rtt,
                has_rtt_measurement: has_rtt,
                feedback_round: round,
                leaving,
            };
            let msg = WireMessage::Feedback(fb);
            prop_assert_eq!(decode_message(&encode_message(&msg)).unwrap(), msg);
        }

        #[test]
        fn data_encoding_round_trips(
            seqno in 0u64..u64::MAX / 2,
            timestamp in 0.0f64..1e6,
            rate in 1.0f64..1e9,
            max_rtt in 0.001f64..10.0,
            round in 0u64..1_000_000,
            slowstart in any::<bool>(),
            clr in proptest::option::of(0u64..1000),
            size in 1u32..65_000,
        ) {
            let d = DataPacket {
                seqno,
                timestamp,
                current_rate: rate,
                max_rtt,
                feedback_round: round,
                slowstart,
                clr: clr.map(ReceiverId),
                rtt_echo: None,
                suppression: None,
                size,
            };
            let msg = WireMessage::Data(d);
            prop_assert_eq!(decode_message(&encode_message(&msg)).unwrap(), msg);
        }
    }
}
