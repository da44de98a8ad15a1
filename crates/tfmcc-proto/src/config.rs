//! Protocol parameters.
//!
//! Every tunable the paper mentions is collected in [`TfmccConfig`], with the
//! paper's defaults.  The configuration is shared by sender and receivers; in
//! a deployment it would be distributed out of band (session description).
//! In a simulation every receiver of a session holds the same
//! `Arc<TfmccConfig>` rather than a copy of its own.

/// TFMCC protocol parameters (paper Section 2, defaults as published).
#[derive(Debug, Clone, PartialEq)]
pub struct TfmccConfig {
    /// Packet size `s` in bytes used in the control equation.
    pub packet_size: u32,
    /// Initial RTT assumed before any measurement, in seconds (paper: 500 ms,
    /// "larger than the highest RTT of any of the receivers").
    pub initial_rtt: f64,
    /// Number of loss intervals kept in the loss history (paper: 8 to 32,
    /// default 8).
    pub loss_history_len: usize,
    /// Estimated upper bound `N` on the receiver-set size used to
    /// parameterise the feedback timers (paper: 10 000).
    pub receiver_set_estimate: f64,
    /// Feedback-timer window `T` as a multiple of the maximum receiver RTT
    /// (paper: `T = 6 · RTT_max` so that the suppression interval
    /// `T' = (1 − δ)·T` is 4 RTTs).
    pub feedback_t_rtt_multiple: f64,
    /// Fraction `δ` of `T` used for the rate-dependent offset bias
    /// (paper: 1/3).
    pub feedback_offset_fraction: f64,
    /// Feedback-cancellation threshold `α`: a timer is cancelled when the
    /// receiver's calculated rate is at least `(1 − α)` times the echoed
    /// rate (paper: 0.1).
    pub feedback_cancel_alpha: f64,
    /// Lower truncation bound of the rate ratio used for biasing: below this
    /// fraction of the sending rate the bias saturates (paper: 0.5).
    pub bias_saturation_ratio: f64,
    /// Upper truncation bound of the rate ratio: above this fraction of the
    /// sending rate no bias is applied (paper: 0.9).
    pub bias_start_ratio: f64,
    /// Number `q` of consecutive data packets that may be lost without
    /// risking a feedback implosion; the feedback window is extended to
    /// `(q + 1) · s / rate` at low sending rates (paper: 2–4, default 3).
    pub low_rate_q: f64,
    /// EWMA weight for RTT samples of the current limiting receiver
    /// (paper: 0.05).
    pub rtt_beta_clr: f64,
    /// EWMA weight for RTT samples of non-CLR receivers (paper: 0.5).
    pub rtt_beta_non_clr: f64,
    /// EWMA weight for one-way-delay RTT adjustments (paper: "smaller decay
    /// factor"; default 0.05).
    pub rtt_beta_one_way: f64,
    /// Slowstart overshoot limit `d`: the target rate is `d` times the
    /// minimum receive rate (paper: 2).
    pub slowstart_multiple: f64,
    /// CLR timeout, in multiples of the feedback delay, after which an
    /// unresponsive CLR is abandoned (paper: 10).
    pub clr_timeout_multiple: f64,
    /// How long (in multiples of the CLR's RTT) the previous CLR is
    /// remembered after a switch-over (paper Appendix C: "a few RTTs";
    /// default 4).  Zero disables the optimisation.
    pub previous_clr_hold_rtts: f64,
    /// Initial sending rate in packets per initial RTT (default: 1, i.e. one
    /// packet per 500 ms until feedback arrives).
    pub initial_packets_per_rtt: f64,
}

impl Default for TfmccConfig {
    fn default() -> Self {
        TfmccConfig {
            packet_size: 1000,
            initial_rtt: 0.5,
            loss_history_len: 8,
            receiver_set_estimate: 10_000.0,
            feedback_t_rtt_multiple: 6.0,
            feedback_offset_fraction: 1.0 / 3.0,
            feedback_cancel_alpha: 0.1,
            bias_saturation_ratio: 0.5,
            bias_start_ratio: 0.9,
            low_rate_q: 3.0,
            rtt_beta_clr: 0.05,
            rtt_beta_non_clr: 0.5,
            rtt_beta_one_way: 0.05,
            slowstart_multiple: 2.0,
            clr_timeout_multiple: 10.0,
            previous_clr_hold_rtts: 4.0,
            initial_packets_per_rtt: 1.0,
        }
    }
}

impl TfmccConfig {
    /// Initial sending rate in bytes per second.
    pub fn initial_rate(&self) -> f64 {
        self.initial_packets_per_rtt * f64::from(self.packet_size) / self.initial_rtt
    }

    /// Loss-interval weights for a history of `len` intervals.
    ///
    /// The paper uses {5, 5, 5, 5, 4, 3, 2, 1} for eight intervals: the most
    /// recent half gets full weight, then the weights fall off linearly.
    pub fn loss_interval_weights(len: usize) -> Vec<f64> {
        assert!(len >= 1);
        (0..len)
            .map(|i| Self::loss_interval_weight(len, i))
            .collect()
    }

    /// The weight of interval `i` (0 = most recent) in a history of `len`
    /// intervals: element `i` of [`Self::loss_interval_weights`], computed
    /// without building the table.
    pub fn loss_interval_weight(len: usize, i: usize) -> f64 {
        debug_assert!(i < len, "interval {i} outside a history of {len}");
        let half = len.div_ceil(2);
        if i < half {
            half as f64 + 1.0
        } else {
            (len - i) as f64
        }
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
        if self.loss_history_len < 2 {
            return Err("loss_history_len must be at least 2".into());
        }
        let positive = [
            ("initial_rtt", self.initial_rtt),
            ("feedback_t_rtt_multiple", self.feedback_t_rtt_multiple),
            ("slowstart_multiple", self.slowstart_multiple),
            ("clr_timeout_multiple", self.clr_timeout_multiple),
            ("initial_packets_per_rtt", self.initial_packets_per_rtt),
        ];
        for (name, x) in positive {
            require(name, x, x > 0.0, "finite and positive")?;
        }
        let non_negative = [
            ("low_rate_q", self.low_rate_q),
            ("previous_clr_hold_rtts", self.previous_clr_hold_rtts),
        ];
        for (name, x) in non_negative {
            require(name, x, x >= 0.0, "finite and non-negative")?;
        }
        let ewma_weights = [
            ("rtt_beta_clr", self.rtt_beta_clr),
            ("rtt_beta_non_clr", self.rtt_beta_non_clr),
            ("rtt_beta_one_way", self.rtt_beta_one_way),
        ];
        for (name, x) in ewma_weights {
            require(name, x, x > 0.0 && x <= 1.0, "finite and in (0, 1]")?;
        }
        let x = self.receiver_set_estimate;
        require("receiver_set_estimate", x, x > 1.0, "finite and above 1")?;
        let x = self.feedback_offset_fraction;
        require(
            "feedback_offset_fraction",
            x,
            (0.0..1.0).contains(&x),
            "finite and in [0, 1)",
        )?;
        let x = self.feedback_cancel_alpha;
        require(
            "feedback_cancel_alpha",
            x,
            (0.0..=1.0).contains(&x),
            "finite and in [0, 1]",
        )?;
        let (saturation, start) = (self.bias_saturation_ratio, self.bias_start_ratio);
        require("bias_saturation_ratio", saturation, true, "finite")?;
        require(
            "bias_start_ratio",
            start,
            start > saturation,
            "finite and above bias_saturation_ratio",
        )
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
        assert_eq!(c.loss_history_len, 8);
        assert_eq!(c.receiver_set_estimate, 10_000.0);
        assert_eq!(c.feedback_cancel_alpha, 0.1);
        assert_eq!(c.slowstart_multiple, 2.0);
    }

    #[test]
    fn paper_weights_for_eight_intervals() {
        assert_eq!(
            TfmccConfig::loss_interval_weights(8),
            vec![5.0, 5.0, 5.0, 5.0, 4.0, 3.0, 2.0, 1.0]
        );
    }

    #[test]
    fn weights_for_other_lengths_are_monotone() {
        for len in [2usize, 4, 16, 32] {
            let w = TfmccConfig::loss_interval_weights(len);
            assert_eq!(w.len(), len);
            for i in 1..len {
                assert!(w[i] <= w[i - 1], "weights must not increase with age");
            }
            assert!(w.iter().all(|&x| x > 0.0));
        }
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
            loss_history_len: 1,
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
        rejects!(receiver_set_estimate, 1.0);
        rejects!(feedback_t_rtt_multiple, 0.0);
        rejects!(feedback_offset_fraction, 1.0);
        rejects!(feedback_cancel_alpha, 1.5);
        rejects!(bias_saturation_ratio, 0.95);
        rejects!(bias_start_ratio, 0.4);
        rejects!(low_rate_q, -1.0);
        rejects!(rtt_beta_clr, 0.0);
        rejects!(rtt_beta_non_clr, 1.5);
        rejects!(rtt_beta_one_way, -0.05);
        rejects!(slowstart_multiple, 0.0);
        rejects!(clr_timeout_multiple, -1.0);
        rejects!(previous_clr_hold_rtts, -1.0);
        rejects!(initial_packets_per_rtt, 0.0);

        // The inclusive edges stay valid: with q = 0 the low-rate window
        // still spans one packet, a zero hold disables the previous-CLR
        // optimisation, and a weight of 1 keeps only the newest RTT sample.
        let c = TfmccConfig {
            low_rate_q: 0.0,
            previous_clr_hold_rtts: 0.0,
            rtt_beta_clr: 1.0,
            ..Default::default()
        };
        c.validate().unwrap();
    }
}
