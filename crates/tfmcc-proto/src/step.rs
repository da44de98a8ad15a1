//! Step-function traits and state fingerprinting for model checking.
//!
//! [`TfmccSender`] and [`TfmccReceiver`] are sans-I/O state machines, but
//! until this module their step functions were inherent methods only — any
//! harness that wanted to drive them generically (the bounded model checker
//! in `tfmcc-mc`, a future fuzz driver) had to name the concrete types.
//! This module makes the seam explicit:
//!
//! * [`SenderStep`] / [`ReceiverStep`] — the complete "one input, one
//!   output" contract an adapter needs to drive either endpoint without
//!   `netsim`: feed a packet or a clock reading, get back packets and timer
//!   deadlines.  Any harness written against these traits runs the real
//!   protocol code.
//! * [`StateFingerprint`] — a deterministic structural hash over the
//!   *semantic* state of an endpoint (every field that influences future
//!   behaviour; accumulated statistics are excluded).  Explicit-state model
//!   checkers deduplicate explored states by this fingerprint, so it must
//!   be stable across runs and identical for states that behave
//!   identically.  Floating-point fields hash their exact bit patterns —
//!   two states are "the same" only when they are bit-for-bit the same.
//!
//! The trait implementations delegate to the inherent methods; the
//! fingerprint implementations live next to each type's private fields (see
//! `sender.rs`, `receiver.rs`, `loss.rs`, `rtt.rs`, `rate_meter.rs`,
//! `aggregator.rs`, `feedback.rs`).
//!
//! [`TfmccSender`]: crate::sender::TfmccSender
//! [`TfmccReceiver`]: crate::receiver::TfmccReceiver

use std::hash::Hasher;

use crate::aggregator::FeedbackAggregator;
use crate::packets::{DataPacket, FeedbackPacket};
use crate::receiver::TfmccReceiver;
use crate::sender::TfmccSender;

/// The sender's step functions: everything an adapter (simulator binding,
/// UDP transport, model checker) needs to drive a TFMCC sender.
pub trait SenderStep {
    /// Processes a receiver report arriving at local time `now`.
    fn on_feedback(&mut self, now: f64, fb: &FeedbackPacket);
    /// Advances timers and rounds to local time `now` without sending.
    fn on_tick(&mut self, now: f64);
    /// Builds the header of the next data packet to transmit at `now`.
    fn next_data(&mut self, now: f64) -> DataPacket;
    /// Interval between data packets at the current rate, in seconds.
    fn packet_interval(&self) -> f64;
}

impl<A: FeedbackAggregator> SenderStep for TfmccSender<A> {
    fn on_feedback(&mut self, now: f64, fb: &FeedbackPacket) {
        TfmccSender::on_feedback(self, now, fb);
    }
    fn on_tick(&mut self, now: f64) {
        TfmccSender::on_tick(self, now);
    }
    fn next_data(&mut self, now: f64) -> DataPacket {
        TfmccSender::next_data(self, now)
    }
    fn packet_interval(&self) -> f64 {
        TfmccSender::packet_interval(self)
    }
}

/// The receiver's step functions: the complete driving contract for a TFMCC
/// receiver (data in, feedback and timer deadlines out).
pub trait ReceiverStep {
    /// Processes an arriving data packet; may return feedback to send
    /// immediately (the CLR reports without suppression).
    fn on_data(&mut self, now: f64, data: &DataPacket) -> Option<FeedbackPacket>;
    /// Fires the pending feedback timer; returns the report if it was still
    /// armed for the current round.
    fn on_timer(&mut self, now: f64) -> Option<FeedbackPacket>;
    /// The deadline of the pending feedback timer, if any.
    fn next_timer(&self) -> Option<f64>;
    /// Builds the explicit leave report.
    fn leave(&mut self, now: f64) -> FeedbackPacket;
}

impl ReceiverStep for TfmccReceiver {
    fn on_data(&mut self, now: f64, data: &DataPacket) -> Option<FeedbackPacket> {
        TfmccReceiver::on_data(self, now, data)
    }
    fn on_timer(&mut self, now: f64) -> Option<FeedbackPacket> {
        TfmccReceiver::on_timer(self, now)
    }
    fn next_timer(&self) -> Option<f64> {
        TfmccReceiver::next_timer(self)
    }
    fn leave(&mut self, now: f64) -> FeedbackPacket {
        TfmccReceiver::leave(self, now)
    }
}

/// Deterministic structural hashing of protocol state.
///
/// Implementations must feed every field that influences future behaviour
/// into `h`, in a fixed order, using exact bit patterns for floating-point
/// values ([`hash_f64`]).  Purely observational state (accumulated
/// statistics counters) is excluded so that states that will behave
/// identically hash identically.  Unordered containers must be hashed in a
/// canonical (sorted) order.
pub trait StateFingerprint {
    /// Feeds this value's semantic state into `h`.
    fn fingerprint<H: Hasher>(&self, h: &mut H);
}

/// Hashes an `f64` by its exact bit pattern (`-0.0` and `0.0` hash
/// differently; callers normalise first if they consider them equal).
pub fn hash_f64<H: Hasher>(h: &mut H, v: f64) {
    h.write_u64(v.to_bits());
}

/// Hashes an `Option<f64>` with a presence discriminant.
pub fn hash_opt_f64<H: Hasher>(h: &mut H, v: Option<f64>) {
    match v {
        Some(x) => {
            h.write_u8(1);
            hash_f64(h, x);
        }
        None => h.write_u8(0),
    }
}

impl StateFingerprint for DataPacket {
    fn fingerprint<H: Hasher>(&self, h: &mut H) {
        h.write_u64(self.seqno);
        hash_f64(h, self.timestamp);
        hash_f64(h, self.current_rate);
        hash_f64(h, self.max_rtt);
        h.write_u64(self.feedback_round);
        h.write_u8(self.slowstart as u8);
        match self.clr {
            Some(id) => {
                h.write_u8(1);
                h.write_u64(id.0);
            }
            None => h.write_u8(0),
        }
        match &self.rtt_echo {
            Some(echo) => {
                h.write_u8(1);
                h.write_u64(echo.receiver.0);
                hash_f64(h, echo.echo_timestamp);
                hash_f64(h, echo.echo_delay);
            }
            None => h.write_u8(0),
        }
        match &self.suppression {
            Some(supp) => {
                h.write_u8(1);
                h.write_u64(supp.receiver.0);
                hash_f64(h, supp.rate);
            }
            None => h.write_u8(0),
        }
        h.write_u32(self.size);
    }
}

impl StateFingerprint for FeedbackPacket {
    fn fingerprint<H: Hasher>(&self, h: &mut H) {
        h.write_u64(self.receiver.0);
        hash_f64(h, self.timestamp);
        hash_f64(h, self.echo_timestamp);
        hash_f64(h, self.echo_delay);
        hash_f64(h, self.calculated_rate);
        hash_f64(h, self.loss_event_rate);
        hash_f64(h, self.receive_rate);
        hash_f64(h, self.rtt);
        h.write_u8(self.has_rtt_measurement as u8);
        h.write_u64(self.feedback_round);
        h.write_u8(self.leaving as u8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TfmccConfig;
    use crate::packets::ReceiverId;

    fn fp<T: StateFingerprint>(value: &T) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        value.fingerprint(&mut h);
        h.finish()
    }

    #[test]
    fn traits_drive_the_state_machines() {
        let config = TfmccConfig::default();
        let mut sender: Box<dyn SenderStep> = Box::new(TfmccSender::new(config.clone()));
        let mut receiver = TfmccReceiver::new(ReceiverId(1), config);
        let data = sender.next_data(0.0);
        let dyn_receiver: &mut dyn ReceiverStep = &mut receiver;
        let fb = dyn_receiver.on_data(0.05, &data);
        assert!(fb.is_some() || dyn_receiver.next_timer().is_some());
        assert!(sender.packet_interval() > 0.0);
        let leave = dyn_receiver.leave(0.1);
        assert!(leave.leaving);
        sender.on_feedback(0.1, &leave);
        sender.on_tick(0.2);
    }

    #[test]
    fn identical_endpoints_fingerprint_identically() {
        let config = TfmccConfig::default();
        let a = TfmccSender::new(config.clone());
        let b = TfmccSender::new(config.clone());
        assert_eq!(fp(&a), fp(&b));
        let ra = TfmccReceiver::new(ReceiverId(7), config.clone());
        let rb = TfmccReceiver::new(ReceiverId(7), config.clone());
        assert_eq!(fp(&ra), fp(&rb));
        // A different id seeds a different RNG: distinct fingerprints.
        let rc = TfmccReceiver::new(ReceiverId(8), config);
        assert_ne!(fp(&ra), fp(&rc));
    }

    #[test]
    fn fingerprint_tracks_behavioural_state() {
        let config = TfmccConfig::default();
        let mut a = TfmccSender::new(config.clone());
        let b = TfmccSender::new(config);
        let before = fp(&a);
        assert_eq!(before, fp(&b));
        let _ = a.next_data(0.0);
        // Sending advanced the sequence number (and clock bookkeeping).
        assert_ne!(fp(&a), fp(&b));
    }

    #[test]
    fn clone_preserves_fingerprint() {
        let config = TfmccConfig::default();
        let mut r = TfmccReceiver::new(ReceiverId(3), config.clone());
        let mut s = TfmccSender::new(config);
        let mut now = 0.0;
        for _ in 0..20 {
            let d = s.next_data(now);
            let _ = r.on_data(now + 0.01, &d);
            now += 0.02;
        }
        assert_eq!(fp(&r), fp(&r.clone()));
        assert_eq!(fp(&s), fp(&s.clone()));
    }
}
