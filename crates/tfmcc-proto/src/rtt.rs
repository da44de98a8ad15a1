//! Receiver-side round-trip-time estimation (paper Section 2.4).
//!
//! A receiver starts from a configured initial RTT (500 ms by default) or,
//! when synchronized clocks are available, from twice the measured one-way
//! delay plus the synchronization error.  Real measurements arrive whenever
//! the sender echoes one of the receiver's reports; between measurements the
//! estimate is updated from one-way delay changes observed on every data
//! packet (Section 2.4.3), with clock skew cancelling out.

use std::hash::Hasher;

use crate::config::TfmccConfig;
use crate::step::{hash_f64, hash_opt_f64, StateFingerprint};

/// Smallest RTT the estimator will report, guarding divisions elsewhere.
pub const MIN_RTT: f64 = 1e-4;

/// Receiver-side RTT estimator.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    estimate: f64,
    has_measurement: bool,
    beta_clr: f64,
    beta_non_clr: f64,
    beta_one_way: f64,
    /// One-way delay from receiver to sender inferred at the last real
    /// measurement (includes clock skew, which cancels in later adjustments).
    owd_receiver_to_sender: Option<f64>,
    /// Estimate value at the time of the last real measurement, used to
    /// detect significant drift from one-way adjustments.
    estimate_at_last_measurement: f64,
}

impl RttEstimator {
    /// Creates an estimator initialised to the configured initial RTT.
    pub fn new(config: &TfmccConfig) -> Self {
        RttEstimator {
            estimate: config.initial_rtt,
            has_measurement: false,
            beta_clr: config.rtt_beta_clr,
            beta_non_clr: config.rtt_beta_non_clr,
            beta_one_way: config.rtt_beta_one_way,
            owd_receiver_to_sender: None,
            estimate_at_last_measurement: config.initial_rtt,
        }
    }

    /// Current RTT estimate in seconds.
    pub fn current(&self) -> f64 {
        self.estimate.max(MIN_RTT)
    }

    /// True once at least one real (echo-based) measurement has been made.
    pub fn has_measurement(&self) -> bool {
        self.has_measurement
    }

    /// Initialises the estimate from synchronized clocks (GPS/NTP,
    /// Section 2.4.1): RTT ≈ 2 · (one-way delay + worst-case sync error).
    ///
    /// This replaces the configured initial value but does not count as a
    /// real measurement.
    pub fn init_from_synchronized_clocks(&mut self, one_way_delay: f64, sync_error: f64) {
        if self.has_measurement {
            return;
        }
        self.estimate = (2.0 * (one_way_delay + sync_error)).max(MIN_RTT);
        self.estimate_at_last_measurement = self.estimate;
    }

    /// Incorporates a real RTT measurement.
    ///
    /// * `sample` — instantaneous RTT from the echoed report,
    /// * `is_clr` — whether this receiver currently is the CLR (selects the
    ///   EWMA weight: 0.05 for the CLR, 0.5 otherwise),
    /// * `one_way_sender_to_receiver` — the forward one-way delay observed on
    ///   the data packet carrying the echo (includes clock skew), used to
    ///   derive the reverse one-way delay for later adjustments.
    pub fn on_measurement(&mut self, sample: f64, is_clr: bool, one_way_sender_to_receiver: f64) {
        let sample = sample.max(MIN_RTT);
        if !self.has_measurement {
            self.estimate = sample;
            self.has_measurement = true;
        } else {
            let beta = if is_clr {
                self.beta_clr
            } else {
                self.beta_non_clr
            };
            self.estimate = beta * sample + (1.0 - beta) * self.estimate;
        }
        self.owd_receiver_to_sender = Some(sample - one_way_sender_to_receiver);
        self.estimate_at_last_measurement = self.estimate;
    }

    /// Updates the estimate from the forward one-way delay of a data packet
    /// received between real measurements (Section 2.4.3).
    ///
    /// Returns the updated estimate, or `None` if no real measurement exists
    /// yet (one-way adjustments need the reverse delay from a measurement).
    pub fn on_one_way_sample(&mut self, one_way_sender_to_receiver: f64) -> Option<f64> {
        let owd_back = self.owd_receiver_to_sender?;
        let sample = (owd_back + one_way_sender_to_receiver).max(MIN_RTT);
        self.estimate = self.beta_one_way * sample + (1.0 - self.beta_one_way) * self.estimate;
        Some(self.current())
    }

    /// Ratio of the current estimate to the estimate at the last real
    /// measurement — a value far from 1.0 indicates the RTT has drifted and a
    /// fresh measurement is desirable.
    pub fn drift_ratio(&self) -> f64 {
        if self.estimate_at_last_measurement <= 0.0 {
            1.0
        } else {
            self.estimate / self.estimate_at_last_measurement
        }
    }
}

impl StateFingerprint for RttEstimator {
    fn fingerprint<H: Hasher>(&self, h: &mut H) {
        hash_f64(h, self.estimate);
        h.write_u8(self.has_measurement as u8);
        hash_f64(h, self.beta_clr);
        hash_f64(h, self.beta_non_clr);
        hash_f64(h, self.beta_one_way);
        hash_opt_f64(h, self.owd_receiver_to_sender);
        hash_f64(h, self.estimate_at_last_measurement);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimator() -> RttEstimator {
        RttEstimator::new(&TfmccConfig::default())
    }

    #[test]
    fn starts_at_initial_rtt_without_measurement() {
        let e = estimator();
        assert_eq!(e.current(), 0.5);
        assert!(!e.has_measurement());
    }

    #[test]
    fn first_measurement_replaces_initial_value() {
        let mut e = estimator();
        e.on_measurement(0.08, false, 0.04);
        assert!(e.has_measurement());
        assert!((e.current() - 0.08).abs() < 1e-12);
    }

    #[test]
    fn clr_smoothing_is_heavier_than_non_clr() {
        let mut clr = estimator();
        let mut other = estimator();
        clr.on_measurement(0.1, true, 0.05);
        other.on_measurement(0.1, false, 0.05);
        clr.on_measurement(0.2, true, 0.1);
        other.on_measurement(0.2, false, 0.1);
        // CLR: 0.05*0.2 + 0.95*0.1 = 0.105;  non-CLR: 0.5*0.2 + 0.5*0.1 = 0.15.
        assert!((clr.current() - 0.105).abs() < 1e-9);
        assert!((other.current() - 0.15).abs() < 1e-9);
    }

    #[test]
    fn one_way_adjustment_requires_prior_measurement() {
        let mut e = estimator();
        assert!(e.on_one_way_sample(0.05).is_none());
        e.on_measurement(0.1, false, 0.05);
        assert!(e.on_one_way_sample(0.06).is_some());
    }

    #[test]
    fn one_way_adjustment_tracks_forward_delay_increase() {
        let mut e = estimator();
        // Measurement: RTT 100 ms, forward delay 50 ms (so reverse 50 ms).
        e.on_measurement(0.1, true, 0.05);
        // Forward delay jumps to 150 ms: instantaneous RTT becomes 200 ms.
        let mut last = e.current();
        for _ in 0..200 {
            last = e.on_one_way_sample(0.15).unwrap();
        }
        assert!(
            (0.18..=0.2001).contains(&last),
            "estimate should converge toward 200 ms, got {last}"
        );
        assert!(e.drift_ratio() > 1.5);
    }

    #[test]
    fn clock_skew_cancels_in_one_way_adjustments() {
        // Receiver clock is 1000 s ahead of the sender clock: forward one-way
        // delays appear as ~1000.05 s.  The adjustment must still produce the
        // true RTT because the skew enters the forward and reverse delays with
        // opposite signs.
        let skew = 1000.0;
        let mut e = estimator();
        e.on_measurement(0.1, false, skew + 0.05);
        // Reverse delay stored is 0.1 - (skew + 0.05) = -999.95 (meaningless
        // alone, fine in combination).
        let adjusted = e.on_one_way_sample(skew + 0.05).unwrap();
        assert!((adjusted - 0.1).abs() < 1e-9, "got {adjusted}");
    }

    #[test]
    fn synchronized_clock_initialisation() {
        let mut e = estimator();
        e.init_from_synchronized_clocks(0.03, 0.025);
        assert!((e.current() - 0.11).abs() < 1e-12);
        assert!(!e.has_measurement());
        // A later real measurement overrides it entirely.
        e.on_measurement(0.06, false, 0.03);
        assert!((e.current() - 0.06).abs() < 1e-12);
        // And synchronized init is ignored afterwards.
        e.init_from_synchronized_clocks(0.5, 0.5);
        assert!((e.current() - 0.06).abs() < 1e-12);
    }

    #[test]
    fn estimate_never_below_minimum() {
        let mut e = estimator();
        e.on_measurement(0.0, false, 0.0);
        assert!(e.current() >= MIN_RTT);
    }
}
