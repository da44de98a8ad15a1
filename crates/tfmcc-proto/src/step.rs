//! State fingerprinting for model checking.
//!
//! [`TfmccSender`] and [`TfmccReceiver`] are sans-I/O state machines: a
//! harness drives them through their inherent step methods (`on_data`,
//! `on_timer`, `on_feedback`, `on_tick`, `next_data`, `leave`) without
//! `netsim`.  An explicit-state model checker (`tfmcc-mc`) must also tell
//! when two explored states are the same, which is what this module adds:
//!
//! * [`StateFingerprint`] — a deterministic structural hash over the
//!   *semantic* state of an endpoint (every field that influences future
//!   behaviour; accumulated statistics are excluded).  Explicit-state model
//!   checkers deduplicate explored states by this fingerprint, so it must
//!   be stable across runs and identical for states that behave
//!   identically.  Floating-point fields hash their exact bit patterns —
//!   two states are "the same" only when they are bit-for-bit the same.
//!
//! The fingerprint implementations live next to each type's private fields
//! (see `sender.rs`, `receiver.rs`, `loss.rs`, `rtt.rs`, `rate_meter.rs`,
//! `aggregator.rs`, `feedback.rs`).
//!
//! [`TfmccSender`]: crate::sender::TfmccSender
//! [`TfmccReceiver`]: crate::receiver::TfmccReceiver

use std::hash::Hasher;

use crate::packets::{DataPacket, FeedbackPacket};

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
    use crate::receiver::TfmccReceiver;
    use crate::sender::TfmccSender;

    fn fp<T: StateFingerprint>(value: &T) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        value.fingerprint(&mut h);
        h.finish()
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
