//! The TFMCC receiver state machine (sans-I/O).
//!
//! The receiver consumes data packets (plus a clock) and produces feedback
//! packets and a single pending feedback-timer deadline.  Adapters drive it
//! with three calls:
//!
//! * [`TfmccReceiver::on_data`] whenever a data packet arrives — may return a
//!   feedback packet to transmit immediately (the CLR reports without
//!   suppression);
//! * [`TfmccReceiver::next_timer`] after every call, to (re)arm the single
//!   feedback timer;
//! * [`TfmccReceiver::on_timer`] when that timer fires — may return a
//!   feedback packet.
//!
//! All times are seconds on the receiver's local clock; sender timestamps
//! found in packets are never compared against the local clock directly
//! (only differences are used), so clock skew is harmless.
//!
//! # Hot path
//!
//! [`TfmccReceiver::on_data`] is the per-packet path: at 10⁵ receivers a
//! single simulation calls it hundreds of millions of times.  It performs
//! **zero heap allocations in steady state** — the loss history is inline,
//! the receive-rate meter recycles a preallocated ring of 8-B arrival
//! times, and the weighted-average computation iterates in place (see
//! `loss.rs` / `rate_meter.rs`).  The allocation-counting test in
//! `tests/alloc_count.rs` pins this.
//!
//! A receiver stores only its own state: the configuration is one
//! `Arc<TfmccConfig>` shared by every receiver of a session, and the
//! [`FeedbackPlanner`] is the default one, built where it is used.  The size
//! assertion below keeps the struct from silently growing back.

use std::hash::Hasher;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use tfmcc_model::throughput::padhye_throughput;

use crate::config::TfmccConfig;
use crate::feedback::FeedbackPlanner;
use crate::loss::LossHistory;
use crate::packets::{DataPacket, FeedbackPacket, ReceiverId};
use crate::rate_meter::ReceiveRateMeter;
use crate::rtt::RttEstimator;
use crate::step::{hash_f64, StateFingerprint};

/// A pending (not yet fired, not yet cancelled) feedback timer.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PendingFeedback {
    fire_at: f64,
    round: u64,
}

/// Statistics a receiver accumulates, exposed for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReceiverStats {
    /// Data packets received.
    pub data_packets: u64,
    /// Feedback packets sent.
    pub feedback_sent: u64,
    /// Feedback timers cancelled by suppression.
    pub feedback_suppressed: u64,
    /// Real RTT measurements made.
    pub rtt_measurements: u64,
}

/// The TFMCC receiver.
#[derive(Debug, Clone)]
pub struct TfmccReceiver {
    id: ReceiverId,
    config: Arc<TfmccConfig>,
    loss: LossHistory,
    rtt: RttEstimator,
    recv_meter: ReceiveRateMeter,
    rng: SmallRng,
    /// Mirror of sender-advertised state from the most recent data packet.
    sender_rate: f64,
    max_rtt: f64,
    slowstart: bool,
    is_clr: bool,
    current_round: u64,
    /// Pending feedback timer, if any.
    timer: Option<PendingFeedback>,
    /// Whether feedback has already been sent in the current round.
    sent_this_round: bool,
    /// Whether this round's feedback was suppressed by an echoed report.
    suppressed_this_round: bool,
    /// Next time the CLR sends its unsuppressed periodic report.
    next_clr_report_at: f64,
    /// Sender timestamp and local arrival time of the most recent data
    /// packet, echoed back in feedback for sender-side RTT measurement.
    last_data_timestamp: f64,
    last_data_arrival: f64,
    stats: ReceiverStats,
}

const _: () = assert!(std::mem::size_of::<TfmccReceiver>() <= 384);

impl TfmccReceiver {
    /// Creates a receiver with the given session-unique id.  Pass the
    /// session's `Arc<TfmccConfig>` to share one configuration between
    /// receivers; a plain [`TfmccConfig`] is wrapped in its own `Arc`.
    pub fn new(id: ReceiverId, config: impl Into<Arc<TfmccConfig>>) -> Self {
        let config = config.into();
        config.validate().expect("invalid TFMCC configuration");
        let loss = LossHistory::new(&config);
        let rtt = RttEstimator::new(&config);
        let recv_meter = ReceiveRateMeter::new(2.0 * config.initial_rtt);
        TfmccReceiver {
            id,
            loss,
            rtt,
            recv_meter,
            rng: SmallRng::seed_from_u64(id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            sender_rate: config.initial_rate(),
            max_rtt: config.initial_rtt,
            slowstart: true,
            is_clr: false,
            current_round: 0,
            timer: None,
            sent_this_round: false,
            suppressed_this_round: false,
            next_clr_report_at: 0.0,
            last_data_timestamp: 0.0,
            last_data_arrival: 0.0,
            stats: ReceiverStats::default(),
            config,
        }
    }

    /// This receiver's id.
    pub fn id(&self) -> ReceiverId {
        self.id
    }

    /// The configuration this receiver was built with.
    pub fn config(&self) -> &Arc<TfmccConfig> {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> ReceiverStats {
        self.stats
    }

    /// Current RTT estimate in seconds.
    pub fn rtt(&self) -> f64 {
        self.rtt.current()
    }

    /// True once a real RTT measurement has been made.
    pub fn has_rtt_measurement(&self) -> bool {
        self.rtt.has_measurement()
    }

    /// Current loss event rate estimate.
    pub fn loss_event_rate(&self) -> f64 {
        self.loss.loss_event_rate()
    }

    /// True if this receiver currently believes it is the CLR.
    pub fn is_clr(&self) -> bool {
        self.is_clr
    }

    /// Initialises the RTT estimate from synchronized clocks (Section 2.4.1).
    pub fn init_clock_synchronized_rtt(&mut self, one_way_delay: f64, sync_error: f64) {
        self.rtt
            .init_from_synchronized_clocks(one_way_delay, sync_error);
    }

    /// The rate this receiver calculates from the control equation, in
    /// bytes/second (`f64::INFINITY` while no loss has been observed).
    pub fn calculated_rate(&self) -> f64 {
        let p = self.loss.loss_event_rate();
        if p <= 0.0 {
            f64::INFINITY
        } else {
            padhye_throughput(f64::from(self.config.packet_size), self.rtt.current(), p)
        }
    }

    /// The deadline of the pending feedback timer, if any.  Adapters should
    /// re-read this after every [`Self::on_data`]/[`Self::on_timer`] call and
    /// arm exactly one timer for it.
    pub fn next_timer(&self) -> Option<f64> {
        self.timer.map(|t| t.fire_at)
    }

    /// Processes an arriving data packet.  Returns a feedback packet to send
    /// immediately, if any.
    pub fn on_data(&mut self, now: f64, data: &DataPacket) -> Option<FeedbackPacket> {
        self.stats.data_packets += 1;
        self.recv_meter.record(now, data.size);
        self.last_data_timestamp = data.timestamp;
        self.last_data_arrival = now;

        // --- RTT machinery -------------------------------------------------
        let forward_owd = now - data.timestamp;
        let had_measurement = self.rtt.has_measurement();
        if let Some(echo) = &data.rtt_echo {
            if echo.receiver == self.id {
                let sample = (now - echo.echo_timestamp - echo.echo_delay).max(1e-4);
                self.rtt.on_measurement(sample, self.is_clr, forward_owd);
                self.stats.rtt_measurements += 1;
                if !had_measurement {
                    // First real measurement: correct the synthetic loss
                    // interval computed with the initial RTT (Appendix B) and
                    // shrink the receive-rate window to a couple of RTTs.
                    self.loss
                        .remodel_for_measured_rtt(self.config.initial_rtt, self.rtt.current());
                    self.recv_meter
                        .set_window((4.0 * self.rtt.current()).max(0.1));
                }
            } else {
                self.rtt.on_one_way_sample(forward_owd);
            }
        } else {
            self.rtt.on_one_way_sample(forward_owd);
        }

        // --- loss measurement ----------------------------------------------
        let update = self.loss.on_packet(data.seqno, now, self.rtt.current());
        if update.first_loss_event {
            let receive_rate = self.recv_meter.rate(now);
            self.loss.initialize_first_interval(
                receive_rate.max(f64::from(self.config.packet_size)),
                self.rtt.current(),
                !self.rtt.has_measurement(),
            );
        }

        // --- mirror sender state -------------------------------------------
        self.sender_rate = data.current_rate.max(1.0);
        self.max_rtt = data.max_rtt.max(1e-3);
        self.slowstart = data.slowstart;
        let was_clr = self.is_clr;
        self.is_clr = data.clr == Some(self.id);
        if self.is_clr && !was_clr {
            // Just became CLR: report immediately and discard any pending
            // suppression timer.
            self.timer = None;
            self.next_clr_report_at = now;
        }

        // --- feedback round handling ----------------------------------------
        if data.feedback_round != self.current_round {
            self.current_round = data.feedback_round;
            // A timer from the previous round that never got to fire (the
            // sender's rounds can be shorter than this receiver's window when
            // RTT estimates disagree) is carried into the new round rather
            // than dropped, so a limited receiver cannot be starved of
            // feedback opportunities.
            let carried = match (self.timer, self.sent_this_round) {
                (Some(pending), false) => Some(PendingFeedback {
                    fire_at: pending.fire_at,
                    round: data.feedback_round,
                }),
                _ => None,
            };
            self.sent_this_round = false;
            self.suppressed_this_round = false;
            self.timer = carried;
        }
        // (Re-)evaluate whether feedback is warranted.  This runs on every
        // data packet so a receiver whose conditions worsen mid-round still
        // arms a timer; once suppressed or sent, it stays quiet for the rest
        // of the round.
        if !self.is_clr
            && self.timer.is_none()
            && !self.sent_this_round
            && !self.suppressed_this_round
        {
            self.maybe_schedule_feedback(now);
        }

        // --- suppression ------------------------------------------------------
        if let (Some(supp), Some(pending)) = (&data.suppression, self.timer) {
            if pending.round == self.current_round && supp.receiver != self.id {
                let own = self.reportable_rate(now);
                let planner = FeedbackPlanner::default();
                let cancel = if self.slowstart && self.loss.has_loss() {
                    // A receiver that has experienced loss during slowstart is
                    // only suppressed by reports that also indicate loss,
                    // i.e. echoed rates below the sending rate.
                    supp.rate < self.sender_rate && planner.should_cancel(own, supp.rate)
                } else {
                    planner.should_cancel(own, supp.rate)
                };
                if cancel {
                    self.timer = None;
                    self.suppressed_this_round = true;
                    self.stats.feedback_suppressed += 1;
                }
            }
        }

        // --- CLR periodic report ---------------------------------------------
        if self.is_clr && now >= self.next_clr_report_at {
            self.next_clr_report_at = now + self.rtt.current();
            return Some(self.make_feedback(now));
        }
        None
    }

    /// Fires the pending feedback timer.  Returns the feedback packet to send
    /// if the timer was still armed for the current round.
    pub fn on_timer(&mut self, now: f64) -> Option<FeedbackPacket> {
        let pending = self.timer?;
        if now + 1e-9 < pending.fire_at {
            return None;
        }
        self.timer = None;
        if pending.round != self.current_round || self.sent_this_round {
            return None;
        }
        self.sent_this_round = true;
        Some(self.make_feedback(now))
    }

    /// Builds a leave report (explicit sign-off, paper Section 2.2).
    pub fn leave(&mut self, now: f64) -> FeedbackPacket {
        let mut fb = self.make_feedback(now);
        fb.leaving = true;
        fb
    }

    /// The rate this receiver would report right now: the calculated rate
    /// once any loss has been observed, the measured receive rate during
    /// slowstart (where no loss has occurred yet and the sender steers by the
    /// minimum receive rate).
    fn reportable_rate(&mut self, now: f64) -> f64 {
        if self.loss.has_loss() {
            self.calculated_rate()
        } else if self.slowstart {
            self.recv_meter.rate(now)
        } else {
            f64::INFINITY
        }
    }

    fn maybe_schedule_feedback(&mut self, now: f64) {
        if self.sent_this_round {
            return;
        }
        let own = self.reportable_rate(now);
        let wants_feedback = if self.slowstart {
            // During slowstart every receiver participates: the sender needs
            // the minimum receive rate; receivers that saw loss must get
            // through to terminate slowstart.
            true
        } else {
            // Normal operation: only receivers whose calculated rate is below
            // the current sending rate report.  Receivers without loss have
            // an infinite calculated rate and stay quiet.
            own < self.sender_rate
        };
        if !wants_feedback {
            return;
        }
        let ratio = (own / self.sender_rate).min(1.0);
        // The window is derived from the sender-advertised maximum RTT so that
        // every receiver (and the sender's feedback rounds) agree on `T`.
        let window = self.config.feedback_window(self.max_rtt, self.sender_rate);
        let uniform: f64 = self.rng.gen_range(1e-12..=1.0);
        let delay = FeedbackPlanner::default().timer(ratio, window, uniform);
        self.timer = Some(PendingFeedback {
            fire_at: now + delay,
            round: self.current_round,
        });
    }

    fn make_feedback(&mut self, now: f64) -> FeedbackPacket {
        self.stats.feedback_sent += 1;
        let receive_rate = self.recv_meter.rate(now);
        FeedbackPacket {
            receiver: self.id,
            timestamp: now,
            echo_timestamp: self.last_data_timestamp,
            echo_delay: (now - self.last_data_arrival).max(0.0),
            calculated_rate: self.calculated_rate(),
            loss_event_rate: self.loss.loss_event_rate(),
            receive_rate,
            rtt: self.rtt.current(),
            has_rtt_measurement: self.rtt.has_measurement(),
            feedback_round: self.current_round,
            leaving: false,
        }
    }
}

impl StateFingerprint for TfmccReceiver {
    /// Hashes every field that influences future behaviour; the accumulated
    /// [`ReceiverStats`] are excluded (observational only) but for whether
    /// any data has arrived.  The RNG has no state accessor, so its position
    /// in the stream is captured by cloning it and drawing two values —
    /// receivers whose generators would produce different future timers
    /// fingerprint differently.
    fn fingerprint<H: Hasher>(&self, h: &mut H) {
        h.write_u64(self.id.0);
        self.loss.fingerprint(h);
        self.rtt.fingerprint(h);
        self.recv_meter.fingerprint(h);
        let mut probe = self.rng.clone();
        h.write_u64(probe.next_u64());
        h.write_u64(probe.next_u64());
        hash_f64(h, self.sender_rate);
        hash_f64(h, self.max_rtt);
        h.write_u8(self.slowstart as u8);
        h.write_u8(self.is_clr as u8);
        h.write_u64(self.current_round);
        h.write_u8((self.stats.data_packets > 0) as u8);
        match self.timer {
            Some(pending) => {
                h.write_u8(1);
                hash_f64(h, pending.fire_at);
                h.write_u64(pending.round);
            }
            None => h.write_u8(0),
        }
        h.write_u8(self.sent_this_round as u8);
        h.write_u8(self.suppressed_this_round as u8);
        hash_f64(h, self.next_clr_report_at);
        hash_f64(h, self.last_data_timestamp);
        hash_f64(h, self.last_data_arrival);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packets::{RttEcho, SuppressionEcho};

    fn data(seqno: u64, now: f64, round: u64, rate: f64) -> DataPacket {
        DataPacket {
            seqno,
            timestamp: now, // perfectly synchronized clocks in tests
            current_rate: rate,
            max_rtt: 0.5,
            feedback_round: round,
            slowstart: false,
            clr: None,
            rtt_echo: None,
            suppression: None,
            size: 1000,
        }
    }

    fn receiver(id: u64) -> TfmccReceiver {
        TfmccReceiver::new(ReceiverId(id), TfmccConfig::default())
    }

    #[test]
    fn no_feedback_when_rate_is_not_limiting() {
        let mut r = receiver(1);
        let mut now = 0.0;
        // Lossless stream, normal operation (not slowstart), calculated rate
        // is infinite -> never below the sending rate -> no feedback timer.
        for seq in 0..50u64 {
            let d = data(seq, now, 1, 100_000.0);
            assert!(r.on_data(now, &d).is_none());
            now += 0.01;
        }
        assert!(r.next_timer().is_none());
        assert_eq!(r.stats().feedback_sent, 0);
    }

    #[test]
    fn slowstart_schedules_feedback_each_round() {
        let mut r = receiver(2);
        let mut now = 0.0;
        let mut seq = 0u64;
        let push = |r: &mut TfmccReceiver, now: &mut f64, seq: &mut u64| {
            let mut d = data(*seq, *now, 1, 100_000.0);
            d.slowstart = true;
            r.on_data(*now, &d);
            *seq += 1;
            *now += 0.01;
        };
        for _ in 0..10 {
            push(&mut r, &mut now, &mut seq);
        }
        let fire_at = r.next_timer().expect("slowstart must schedule feedback");
        // Keep the data stream flowing until the timer deadline, as a real
        // session would, then fire it.
        while now < fire_at {
            push(&mut r, &mut now, &mut seq);
        }
        let fb = r.on_timer(fire_at.max(now)).unwrap();
        assert!(fb.receive_rate > 0.0);
        assert!(fb.calculated_rate.is_infinite());
        assert!(!fb.has_rtt_measurement);
        assert_eq!(fb.feedback_round, 1);
    }

    #[test]
    fn lossy_receiver_reports_rate_below_sending_rate() {
        let mut r = receiver(3);
        let mut now = 0.0;
        let mut seq = 0u64;
        // Normal mode, 10% loss: drop every 10th packet.
        for i in 0..500u64 {
            if i % 10 == 9 {
                seq += 1; // drop
                continue;
            }
            let d = data(seq, now, 2, 1_000_000.0);
            r.on_data(now, &d);
            seq += 1;
            now += 0.005;
        }
        // The synthetic initial interval (Appendix B) keeps the early loss
        // estimate below the raw 10% loss fraction, but it must be clearly
        // non-zero and the calculated rate clearly below the sending rate.
        assert!(r.loss_event_rate() > 0.002);
        assert!(r.calculated_rate() < 1_000_000.0);
        assert!(
            r.next_timer().is_some(),
            "a limited receiver must want to send feedback"
        );
    }

    #[test]
    fn rtt_echo_produces_measurement_and_remodels_history() {
        let mut r = receiver(4);
        let mut now = 0.0;
        // Build up some loss history with the initial RTT.
        let mut seq = 0u64;
        for i in 0..200u64 {
            if i % 20 == 19 {
                seq += 1;
                continue;
            }
            let d = data(seq, now, 1, 500_000.0);
            r.on_data(now, &d);
            seq += 1;
            now += 0.002;
        }
        assert!(!r.has_rtt_measurement());
        let rate_before = r.calculated_rate();
        // The sender echoes a report this receiver "sent" 60 ms ago.
        let mut d = data(seq, now, 1, 500_000.0);
        d.rtt_echo = Some(RttEcho {
            receiver: ReceiverId(4),
            echo_timestamp: now - 0.06,
            echo_delay: 0.01,
        });
        r.on_data(now, &d);
        assert!(r.has_rtt_measurement());
        assert!((r.rtt() - 0.05).abs() < 1e-9);
        // With a much smaller RTT the calculated rate must increase
        // substantially even after the loss-history remodelling.
        assert!(r.calculated_rate() > rate_before);
        assert_eq!(r.stats().rtt_measurements, 1);
    }

    #[test]
    fn echo_for_other_receiver_is_not_a_measurement() {
        let mut r = receiver(5);
        let mut d = data(0, 0.0, 1, 100_000.0);
        d.rtt_echo = Some(RttEcho {
            receiver: ReceiverId(99),
            echo_timestamp: 0.0,
            echo_delay: 0.0,
        });
        r.on_data(0.0, &d);
        assert!(!r.has_rtt_measurement());
    }

    #[test]
    fn suppression_cancels_timer_when_echo_rate_is_lower_or_similar() {
        let mut r = receiver(6);
        let mut now = 0.0;
        let mut seq = 0u64;
        for i in 0..300u64 {
            if i % 10 == 9 {
                seq += 1;
                continue;
            }
            let d = data(seq, now, 3, 2_000_000.0);
            r.on_data(now, &d);
            seq += 1;
            now += 0.002;
        }
        assert!(r.next_timer().is_some());
        // Echo of a report with a much lower rate than ours: cancel.
        let mut d = data(seq, now, 3, 2_000_000.0);
        d.suppression = Some(SuppressionEcho {
            receiver: ReceiverId(50),
            rate: 1_000.0,
        });
        r.on_data(now, &d);
        assert!(r.next_timer().is_none());
        assert_eq!(r.stats().feedback_suppressed, 1);
    }

    #[test]
    fn suppression_does_not_cancel_much_lower_rate_receiver() {
        let mut r = receiver(7);
        let mut now = 0.0;
        let mut seq = 0u64;
        for i in 0..400u64 {
            if i % 5 == 4 {
                seq += 1; // 20% loss -> very low calculated rate
                continue;
            }
            let d = data(seq, now, 3, 10_000_000.0);
            r.on_data(now, &d);
            seq += 1;
            now += 0.002;
        }
        let own = r.calculated_rate();
        assert!(r.next_timer().is_some());
        // Echo indicating a rate 10x higher than ours must not suppress us.
        let mut d = data(seq, now, 3, 10_000_000.0);
        d.suppression = Some(SuppressionEcho {
            receiver: ReceiverId(50),
            rate: own * 10.0,
        });
        r.on_data(now, &d);
        assert!(r.next_timer().is_some());
    }

    #[test]
    fn clr_reports_immediately_and_periodically() {
        let mut r = receiver(8);
        let mut now = 0.0;
        let mut reports = 0;
        for seq in 0..200u64 {
            let mut d = data(seq, now, 1, 100_000.0);
            d.clr = Some(ReceiverId(8));
            if r.on_data(now, &d).is_some() {
                reports += 1;
            }
            now += 0.01;
        }
        assert!(r.is_clr());
        // 2 seconds of data, RTT estimate 0.5 s -> roughly 4-5 reports.
        assert!(
            (3..=6).contains(&reports),
            "CLR should report about once per RTT, got {reports}"
        );
        // The CLR never uses a suppression timer.
        assert!(r.next_timer().is_none());
    }

    #[test]
    fn new_round_resets_feedback_state() {
        let mut r = receiver(9);
        let mut now = 0.0;
        let mut seq = 0u64;
        let push = |r: &mut TfmccReceiver, round: u64, now: &mut f64, seq: &mut u64| {
            for i in 0..100u64 {
                if i % 10 == 9 {
                    *seq += 1;
                    continue;
                }
                let d = data(*seq, *now, round, 5_000_000.0);
                r.on_data(*now, &d);
                *seq += 1;
                *now += 0.002;
            }
        };
        push(&mut r, 1, &mut now, &mut seq);
        let t1 = r.next_timer().expect("timer in round 1");
        // Fire it -> feedback sent for round 1.
        let fb = r.on_timer(t1).unwrap();
        assert_eq!(fb.feedback_round, 1);
        // Same round again: no second report.
        push(&mut r, 1, &mut now, &mut seq);
        if let Some(t) = r.next_timer() {
            assert!(r.on_timer(t).is_none());
        }
        // New round: a new timer is scheduled and can fire.
        push(&mut r, 2, &mut now, &mut seq);
        let t2 = r.next_timer().expect("timer in round 2");
        assert!(t2 > t1);
        assert!(r.on_timer(t2).is_some());
    }

    #[test]
    fn stale_timer_from_previous_round_does_not_fire() {
        let mut r = receiver(10);
        let mut now = 0.0;
        let mut seq = 0u64;
        for i in 0..100u64 {
            if i % 10 == 9 {
                seq += 1;
                continue;
            }
            let d = data(seq, now, 1, 5_000_000.0);
            r.on_data(now, &d);
            seq += 1;
            now += 0.002;
        }
        let t1 = r.next_timer().unwrap();
        // A new round starts before the timer fires.
        let d = data(seq, now, 2, 5_000_000.0);
        r.on_data(now, &d);
        // The old deadline is gone; if firing at the old time produces
        // feedback it must belong to the new round (a fresh timer), never to
        // the stale one.
        if let Some(fb) = r.on_timer(t1) {
            assert_eq!(fb.feedback_round, 2)
        }
    }

    #[test]
    fn leave_report_is_marked() {
        let mut r = receiver(11);
        let d = data(0, 0.0, 1, 100_000.0);
        r.on_data(0.0, &d);
        let fb = r.leave(1.0);
        assert!(fb.leaving);
        assert_eq!(fb.receiver, ReceiverId(11));
    }

    #[test]
    fn feedback_echoes_latest_data_timestamp() {
        let mut r = receiver(12);
        let mut d = data(0, 5.0, 1, 100_000.0);
        d.timestamp = 123.456; // sender clock
        d.slowstart = true;
        r.on_data(5.0, &d);
        let t = r.next_timer().unwrap();
        let fb = r.on_timer(t).unwrap();
        assert_eq!(fb.echo_timestamp, 123.456);
        assert!((fb.echo_delay - (t - 5.0)).abs() < 1e-9);
    }
}
