//! Protocol parameters.
//!
//! The paper publishes TFMCC's parameters as fixed values, and each one that
//! no run varies is a constant here, with its citation.  [`TfmccConfig`]
//! keeps the packet size and the four values the model checker scales down
//! to reach feedback timers and CLR timeouts in a sub-second horizon.  The
//! configuration is shared by sender and receivers; in a deployment it would
//! be distributed out of band (session description).  In a simulation every
//! receiver of a session holds the same `Arc<TfmccConfig>` rather than a
//! copy of its own.

/// Number of loss intervals kept in the loss history (paper: 8 to 32,
/// default 8).
pub const LOSS_HISTORY_LEN: usize = 8;

/// Loss-interval weights, most recent first: the paper's {5, 5, 5, 5, 4, 3,
/// 2, 1} for eight intervals.  The most recent half gets full weight, then
/// the weights fall off linearly.
pub const LOSS_INTERVAL_WEIGHTS: [f64; LOSS_HISTORY_LEN] = [5.0, 5.0, 5.0, 5.0, 4.0, 3.0, 2.0, 1.0];

/// Estimated upper bound `N` on the receiver-set size used to parameterise
/// the feedback timers (paper: 10 000).
pub const RECEIVER_SET_ESTIMATE: f64 = 10_000.0;

/// Fraction `δ` of the feedback window `T` used for the rate-dependent
/// offset bias (paper: 1/3).
pub const FEEDBACK_OFFSET_FRACTION: f64 = 1.0 / 3.0;

/// Feedback-cancellation threshold `α`: a timer is cancelled when the
/// receiver's calculated rate is at least `(1 − α)` times the echoed rate
/// (paper: 0.1).  The feedback figures vary it on
/// [`FeedbackPlanner::cancel_alpha`](crate::feedback::FeedbackPlanner::cancel_alpha).
pub const FEEDBACK_CANCEL_ALPHA: f64 = 0.1;

/// Lower truncation bound of the rate ratio used for biasing: below this
/// fraction of the sending rate the bias saturates (paper: 0.5).
pub const BIAS_SATURATION_RATIO: f64 = 0.5;

/// Upper truncation bound of the rate ratio: above this fraction of the
/// sending rate no bias is applied (paper: 0.9).
pub const BIAS_START_RATIO: f64 = 0.9;

/// EWMA weight for RTT samples of the current limiting receiver (paper:
/// 0.05).
pub const RTT_BETA_CLR: f64 = 0.05;

/// EWMA weight for RTT samples of non-CLR receivers (paper: 0.5).
pub const RTT_BETA_NON_CLR: f64 = 0.5;

/// EWMA weight for one-way-delay RTT adjustments (paper: "smaller decay
/// factor"; 0.05).
pub const RTT_BETA_ONE_WAY: f64 = 0.05;

/// Slowstart overshoot limit `d`: the target rate is `d` times the minimum
/// receive rate (paper: 2).
pub const SLOWSTART_MULTIPLE: f64 = 2.0;

/// How long (in multiples of the CLR's RTT) the previous CLR is remembered
/// after a switch-over (paper Appendix C: "a few RTTs"; 4).
pub const PREVIOUS_CLR_HOLD_RTTS: f64 = 4.0;

/// Initial sending rate in packets per initial RTT (1, i.e. one packet per
/// 500 ms until feedback arrives).
pub const INITIAL_PACKETS_PER_RTT: f64 = 1.0;

/// TFMCC protocol parameters (paper Section 2, defaults as published).
#[derive(Debug, Clone, PartialEq)]
pub struct TfmccConfig {
    /// Packet size `s` in bytes used in the control equation.
    pub packet_size: u32,
    /// Initial RTT assumed before any measurement, in seconds (paper: 500 ms,
    /// "larger than the highest RTT of any of the receivers").
    pub initial_rtt: f64,
    /// Feedback-timer window `T` as a multiple of the maximum receiver RTT
    /// (paper: `T = 6 · RTT_max` so that the suppression interval
    /// `T' = (1 − δ)·T` is 4 RTTs).
    pub feedback_t_rtt_multiple: f64,
    /// Number `q` of consecutive data packets that may be lost without
    /// risking a feedback implosion; the feedback window is extended to
    /// `(q + 1) · s / rate` at low sending rates (paper: 2–4, default 3).
    pub low_rate_q: f64,
    /// CLR timeout, in multiples of the feedback delay, after which an
    /// unresponsive CLR is abandoned (paper: 10).
    pub clr_timeout_multiple: f64,
}

impl Default for TfmccConfig {
    fn default() -> Self {
        TfmccConfig {
            packet_size: 1000,
            initial_rtt: 0.5,
            feedback_t_rtt_multiple: 6.0,
            low_rate_q: 3.0,
            clr_timeout_multiple: 10.0,
        }
    }
}

impl TfmccConfig {
    /// Initial sending rate in bytes per second.
    pub fn initial_rate(&self) -> f64 {
        INITIAL_PACKETS_PER_RTT * f64::from(self.packet_size) / self.initial_rtt
    }

    /// The feedback window `T` in seconds given the current maximum receiver
    /// RTT and the current sending rate (includes the low-rate extension of
    /// paper Section 2.5.3).
    pub fn feedback_window(&self, max_rtt: f64, current_rate: f64) -> f64 {
        let base = self.feedback_t_rtt_multiple * max_rtt;
        let low_rate =
            (self.low_rate_q + 1.0) * f64::from(self.packet_size) / current_rate.max(1.0);
        base.max(low_rate)
    }

    /// Checks every field against its range; call once after building a
    /// custom configuration.  Every float must be finite, so a NaN anywhere
    /// is rejected.
    pub fn validate(&self) -> Result<(), String> {
        if self.packet_size == 0 {
            return Err("packet_size must be positive".into());
        }
        let positive = [
            ("initial_rtt", self.initial_rtt),
            ("feedback_t_rtt_multiple", self.feedback_t_rtt_multiple),
            ("clr_timeout_multiple", self.clr_timeout_multiple),
        ];
        for (name, x) in positive {
            require(name, x, x > 0.0, "finite and positive")?;
        }
        let x = self.low_rate_q;
        require("low_rate_q", x, x >= 0.0, "finite and non-negative")
    }
}

/// `Ok` if `value` is finite and `in_range`; otherwise an error naming the
/// field and the `range` it must lie in.
fn require(name: &str, value: f64, in_range: bool, range: &str) -> Result<(), String> {
    if value.is_finite() && in_range {
        Ok(())
    } else {
        Err(format!("{name} must be {range}, got {value}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_and_matches_paper() {
        let c = TfmccConfig::default();
        c.validate().unwrap();
        assert_eq!(c.packet_size, 1000);
        assert_eq!(c.initial_rtt, 0.5);
        assert_eq!(c.feedback_t_rtt_multiple, 6.0);
        assert_eq!(c.low_rate_q, 3.0);
        assert_eq!(c.clr_timeout_multiple, 10.0);
    }

    #[test]
    fn paper_weights_for_eight_intervals() {
        assert_eq!(
            LOSS_INTERVAL_WEIGHTS,
            [5.0, 5.0, 5.0, 5.0, 4.0, 3.0, 2.0, 1.0]
        );
    }

    #[test]
    fn feedback_window_uses_low_rate_extension() {
        let c = TfmccConfig::default();
        // High rate: window = 6 * max_rtt.
        assert!((c.feedback_window(0.1, 1e6) - 0.6).abs() < 1e-12);
        // Very low rate (100 B/s): (q+1)*s/rate = 4*1000/100 = 40 s > 0.6 s.
        assert!((c.feedback_window(0.1, 100.0) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn initial_rate_is_one_packet_per_initial_rtt() {
        let c = TfmccConfig::default();
        assert!((c.initial_rate() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let c = TfmccConfig {
            packet_size: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        // Each float field is rejected as NaN, as infinity and at a value
        // just outside its range, with an error that names it.
        macro_rules! rejects {
            ($field:ident, $out_of_range:expr) => {
                for bad in [f64::NAN, f64::INFINITY, $out_of_range] {
                    let name = stringify!($field);
                    let c = TfmccConfig {
                        $field: bad,
                        ..Default::default()
                    };
                    let err = c.validate().expect_err(&format!("{name} = {bad} accepted"));
                    assert!(err.contains(name), "{name} = {bad}: {err}");
                }
            };
        }
        rejects!(initial_rtt, 0.0);
        rejects!(feedback_t_rtt_multiple, 0.0);
        rejects!(low_rate_q, -1.0);
        rejects!(clr_timeout_multiple, -1.0);

        // The inclusive edge stays valid: with q = 0 the low-rate window
        // still spans one packet.
        let c = TfmccConfig {
            low_rate_q: 0.0,
            ..Default::default()
        };
        c.validate().unwrap();
    }
}
