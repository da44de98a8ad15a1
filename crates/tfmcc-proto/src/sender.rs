//! The TFMCC sender state machine (sans-I/O).
//!
//! The sender consumes receiver reports and produces data-packet headers plus
//! the current sending rate.  Adapters drive it with:
//!
//! * [`TfmccSender::on_feedback`] when a receiver report arrives;
//! * [`TfmccSender::next_data`] each time they are about to transmit a data
//!   packet (the adapter paces packets at
//!   [`TfmccSender::packet_interval`]).
//!
//! The sender implements CLR (current limiting receiver) selection and
//! timeout, rate adjustment with the one-packet-per-RTT increase limit after
//! CLR changes, slowstart, feedback-round management, the per-round
//! suppression echo, and the prioritised echoing of receiver reports for RTT
//! measurement (paper Sections 2.2, 2.4.2, 2.4.4, 2.5, 2.6, Appendix C).
//!
//! Per-receiver bookkeeping and the aggregates derived from it (maximum RTT,
//! CLR candidate, per-round suppression minimum) live in the sender's
//! [`FeedbackAggregator`] type parameter, by default the ordered-index
//! [`IncrementalAggregator`] that keeps the per-data-packet path O(1) at 10⁵
//! receivers; see [`crate::aggregator`] for the scan-based reference the
//! oracles run beside it.

use std::hash::Hasher;

use tfmcc_model::throughput::padhye_throughput;

use crate::aggregator::{FeedbackAggregator, IncrementalAggregator, ReceiverInfo};
use crate::config::{TfmccConfig, PREVIOUS_CLR_HOLD_RTTS, SLOWSTART_MULTIPLE};
use crate::packets::{DataPacket, FeedbackPacket, ReceiverId, RttEcho};
use crate::step::{hash_f64, hash_opt_f64, StateFingerprint};

/// Echo waiting to be placed in a data packet, with its priority
/// (lower value = higher priority, paper Section 2.4.2).
#[derive(Debug, Clone)]
struct PendingEcho {
    receiver: ReceiverId,
    timestamp: f64,
    received_at: f64,
    priority: u8,
    rate: f64,
}

/// State of the current limiting receiver.
#[derive(Debug, Clone)]
struct ClrState {
    id: ReceiverId,
    rate: f64,
    rtt: f64,
    last_feedback_at: f64,
}

/// Statistics the sender accumulates, exposed for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SenderStats {
    /// Data packets emitted.
    pub data_packets: u64,
    /// Feedback packets processed.
    pub feedback_received: u64,
    /// Number of CLR changes.
    pub clr_changes: u64,
    /// Number of times the CLR timed out.
    pub clr_timeouts: u64,
    /// Number of feedback rounds completed.
    pub rounds: u64,
    /// Longest observed gap, in seconds, between losing the CLR (leave or
    /// timeout) and installing a replacement.  Zero if every vacancy was
    /// filled by an immediate re-election.
    pub max_clr_recovery_secs: f64,
}

/// The TFMCC sender, keeping its per-receiver bookkeeping in `A`.
#[derive(Debug, Clone)]
pub struct TfmccSender<A = IncrementalAggregator> {
    config: TfmccConfig,
    current_rate: f64,
    slowstart: bool,
    slowstart_min_recv: Option<f64>,
    slowstart_target: f64,
    clr: Option<ClrState>,
    /// Previous CLR remembered across a switch-over (Appendix C), with the
    /// time until which it is retained.
    previous_clr: Option<(ClrState, f64)>,
    receivers: A,
    feedback_round: u64,
    round_started_at: f64,
    echo_queue: Vec<PendingEcho>,
    seqno: u64,
    last_rate_adjust_at: f64,
    started: bool,
    /// Time at which the CLR slot became vacant after a leave or timeout,
    /// while no replacement candidate was known.  `None` while a CLR is
    /// installed (or before the first CLR was ever elected).
    clr_vacant_since: Option<f64>,
    stats: SenderStats,
}

impl TfmccSender {
    /// Creates a sender on the incremental feedback aggregator.
    pub fn new(config: TfmccConfig) -> Self {
        Self::with_aggregator(config, IncrementalAggregator::new())
    }
}

impl<A: FeedbackAggregator> TfmccSender<A> {
    /// Creates a sender that keeps its bookkeeping in `receivers`, an empty
    /// aggregator.
    pub fn with_aggregator(config: TfmccConfig, receivers: A) -> Self {
        config.validate().expect("invalid TFMCC configuration");
        let initial_rate = config.initial_rate();
        TfmccSender {
            current_rate: initial_rate,
            slowstart: true,
            slowstart_min_recv: None,
            slowstart_target: initial_rate,
            clr: None,
            previous_clr: None,
            receivers,
            feedback_round: 1,
            round_started_at: 0.0,
            echo_queue: Vec::new(),
            seqno: 0,
            last_rate_adjust_at: 0.0,
            started: false,
            clr_vacant_since: None,
            stats: SenderStats::default(),
            config,
        }
    }

    /// Current sending rate in bytes/second.
    pub fn current_rate(&self) -> f64 {
        self.current_rate
    }

    /// Interval between data packets at the current rate, in seconds.
    pub fn packet_interval(&self) -> f64 {
        f64::from(self.config.packet_size) / self.current_rate.max(1.0)
    }

    /// The current limiting receiver, if one has been selected.
    pub fn clr(&self) -> Option<ReceiverId> {
        self.clr.as_ref().map(|c| c.id)
    }

    /// True while the sender is still in slowstart.
    pub fn in_slowstart(&self) -> bool {
        self.slowstart
    }

    /// The current feedback round number (carried in every data packet).
    pub fn feedback_round(&self) -> u64 {
        self.feedback_round
    }

    /// Number of distinct receivers that have reported so far.
    pub fn known_receivers(&self) -> usize {
        self.receivers.len()
    }

    /// Total number of receivers the session stands for: the sum of the
    /// weights of all aggregator entries.  Equal to
    /// [`Self::known_receivers`] when every report is an ordinary (weight-1)
    /// one; larger when fluid population bins report on behalf of many.
    pub fn session_population(&self) -> u64 {
        self.receivers.population()
    }

    /// Number of known receivers with a valid (receiver-side) RTT measurement.
    pub fn receivers_with_rtt(&self) -> usize {
        self.receivers.receivers_with_rtt()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> SenderStats {
        self.stats
    }

    /// The maximum RTT over all known receivers, falling back to the initial
    /// RTT for receivers that have not yet measured theirs.
    pub fn max_rtt(&self) -> f64 {
        self.receivers.max_rtt(self.config.initial_rtt)
    }

    /// The feedback window `T` currently advertised to receivers.
    pub fn feedback_window(&self) -> f64 {
        self.config
            .feedback_window(self.max_rtt(), self.current_rate)
    }

    /// The local time at which the current feedback round began (meaningful
    /// once the sender has [started](Self::on_tick)).
    pub fn round_started_at(&self) -> f64 {
        self.round_started_at
    }

    /// True if at least one known receiver qualifies as a CLR candidate —
    /// i.e. the sender has the information needed to elect a CLR right now.
    pub fn has_limited_receiver(&self) -> bool {
        self.receivers
            .clr_candidate(self.config.initial_rtt)
            .is_some()
    }

    /// The time since which the CLR slot has been vacant following a leave
    /// or timeout, or `None` while a CLR is installed (or none was ever
    /// elected).
    pub fn clr_vacant_since(&self) -> Option<f64> {
        self.clr_vacant_since
    }

    /// Processes a receiver report.
    pub fn on_feedback(&mut self, now: f64, fb: &FeedbackPacket) {
        self.on_population_feedback(now, fb, 1);
    }

    /// Processes a population-weighted receiver report: the report is handled
    /// exactly like an ordinary one, but the aggregator entry stands for
    /// `weight` receivers, so [`Self::session_population`] counts them all.
    /// Fluid population agents in the hybrid tier send these under synthetic
    /// receiver ids (one per quantized bin).
    pub fn on_population_feedback(&mut self, now: f64, fb: &FeedbackPacket, weight: u64) {
        self.stats.feedback_received += 1;
        if fb.leaving {
            self.handle_leave(now, fb.receiver);
            return;
        }

        // Effective RTT: the receiver's own measurement if it has one,
        // otherwise the sender-side measurement from the echoed timestamp
        // (paper Section 2.4.4).
        let sender_side_rtt = (now - fb.echo_timestamp - fb.echo_delay).max(1e-4);
        let effective_rtt = if fb.has_rtt_measurement {
            fb.rtt
        } else {
            sender_side_rtt
        };

        // Effective calculated rate: recompute from the loss event rate when
        // the receiver was still using its initial RTT, so that a huge
        // initial RTT does not masquerade as congestion.
        let effective_rate = if fb.has_rtt_measurement {
            fb.calculated_rate
        } else if fb.loss_event_rate > 0.0 {
            padhye_throughput(
                f64::from(self.config.packet_size),
                effective_rtt,
                fb.loss_event_rate,
            )
        } else {
            f64::INFINITY
        };

        self.receivers.upsert(
            fb.receiver,
            ReceiverInfo {
                rate: effective_rate,
                rtt: Some(effective_rtt),
                has_own_rtt: fb.has_rtt_measurement,
                last_report_timestamp: fb.timestamp,
                last_report_at: now,
                weight,
            },
        );

        // Suppression echo for the current round.
        if fb.feedback_round == self.feedback_round {
            let echo_rate = if self.slowstart && fb.loss_event_rate <= 0.0 {
                fb.receive_rate
            } else {
                effective_rate
            };
            self.receivers.observe_round_rate(fb.receiver, echo_rate);
        }

        // Slowstart bookkeeping.
        if self.slowstart {
            if fb.loss_event_rate > 0.0 {
                // First loss anywhere terminates slowstart (Section 2.6).
                self.slowstart = false;
                self.adopt_clr(now, fb.receiver, effective_rate, effective_rtt);
                self.current_rate = self.current_rate.min(effective_rate.max(1.0));
                self.last_rate_adjust_at = now;
            } else {
                self.slowstart_min_recv = Some(
                    self.slowstart_min_recv
                        .map_or(fb.receive_rate, |m| m.min(fb.receive_rate)),
                );
            }
        }

        let mut became_clr = false;
        if !self.slowstart {
            match &mut self.clr {
                Some(clr) if clr.id == fb.receiver => {
                    clr.rate = effective_rate;
                    clr.rtt = effective_rtt;
                    clr.last_feedback_at = now;
                    // Appendix C: if the previous CLR would now be the more
                    // limiting receiver again, switch back to it without
                    // waiting for its feedback.
                    if let Some((prev, valid_until)) = &self.previous_clr {
                        if now <= *valid_until && prev.rate < effective_rate {
                            let prev = prev.clone();
                            self.switch_clr(now, prev);
                        }
                    }
                    self.adjust_rate_toward(now, self.clr.as_ref().map(|c| (c.rate, c.rtt)));
                }
                Some(clr) => {
                    if effective_rate < clr.rate {
                        // A more limited receiver becomes the CLR; if its rate
                        // is also below the current sending rate the sender
                        // reduces immediately (Section 2.2).
                        self.adopt_clr(now, fb.receiver, effective_rate, effective_rtt);
                        if effective_rate < self.current_rate {
                            self.current_rate = effective_rate.max(1.0);
                            self.last_rate_adjust_at = now;
                        }
                        became_clr = true;
                    }
                }
                None => {
                    self.adopt_clr(now, fb.receiver, effective_rate, effective_rtt);
                    if effective_rate < self.current_rate {
                        self.current_rate = effective_rate.max(1.0);
                        self.last_rate_adjust_at = now;
                    }
                    became_clr = true;
                }
            }
        }

        // Queue the report for echoing, with the paper's priority order.
        let priority = if became_clr {
            0
        } else if !fb.has_rtt_measurement {
            1
        } else if Some(fb.receiver) != self.clr() {
            2
        } else {
            3
        };
        self.echo_queue.push(PendingEcho {
            receiver: fb.receiver,
            timestamp: fb.timestamp,
            received_at: now,
            priority,
            rate: effective_rate,
        });
        self.echo_queue.sort_by(|a, b| {
            a.priority.cmp(&b.priority).then(
                a.rate
                    .partial_cmp(&b.rate)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        self.echo_queue.truncate(64);
    }

    fn handle_leave(&mut self, now: f64, receiver: ReceiverId) {
        self.receivers.remove(receiver);
        if self.clr().map(|c| c == receiver).unwrap_or(false) {
            self.stats.clr_changes += 1;
            self.clr = None;
            self.previous_clr = None;
            self.clr_vacant_since = Some(now);
            self.elect_clr_from_known(now);
            // Rate increase toward the (higher-rate) new CLR is limited to
            // one packet per RTT by adjust_rate_toward.
        }
    }

    fn elect_clr_from_known(&mut self, now: f64) {
        if let Some((id, rate, rtt)) = self.receivers.clr_candidate(self.config.initial_rtt) {
            self.clr = Some(ClrState {
                id,
                rate,
                rtt,
                last_feedback_at: now,
            });
            self.note_clr_filled(now);
        }
    }

    /// Closes an open CLR vacancy, recording the recovery gap.
    fn note_clr_filled(&mut self, now: f64) {
        if let Some(since) = self.clr_vacant_since.take() {
            let gap = (now - since).max(0.0);
            if gap > self.stats.max_clr_recovery_secs {
                self.stats.max_clr_recovery_secs = gap;
            }
        }
    }

    fn adopt_clr(&mut self, now: f64, id: ReceiverId, rate: f64, rtt: f64) {
        let new = ClrState {
            id,
            rate,
            rtt,
            last_feedback_at: now,
        };
        if let Some(old) = self.clr.take() {
            if old.id != id {
                let hold = PREVIOUS_CLR_HOLD_RTTS * old.rtt.max(1e-3);
                self.previous_clr = Some((old, now + hold));
                self.stats.clr_changes += 1;
            }
        } else {
            self.stats.clr_changes += 1;
        }
        self.clr = Some(new);
        self.note_clr_filled(now);
    }

    fn switch_clr(&mut self, now: f64, to: ClrState) {
        if let Some(old) = self.clr.take() {
            let hold = PREVIOUS_CLR_HOLD_RTTS * old.rtt.max(1e-3);
            self.previous_clr = Some((old, now + hold));
        }
        self.stats.clr_changes += 1;
        self.clr = Some(ClrState {
            last_feedback_at: now,
            ..to
        });
    }

    /// Moves the current rate toward the CLR's reported rate, with decreases
    /// applied immediately and increases limited to one packet per RTT per
    /// RTT (Section 2.2).
    fn adjust_rate_toward(&mut self, now: f64, target: Option<(f64, f64)>) {
        let Some((target_rate, rtt)) = target else {
            return;
        };
        let target_rate = target_rate.max(1.0);
        if target_rate < self.current_rate {
            self.current_rate = target_rate;
        } else {
            let elapsed = (now - self.last_rate_adjust_at).max(0.0);
            let rtt = rtt.max(1e-3);
            let max_increase = f64::from(self.config.packet_size) / rtt * (elapsed / rtt);
            self.current_rate = (self.current_rate + max_increase).min(target_rate);
        }
        self.last_rate_adjust_at = now;
    }

    /// Advances feedback rounds, applies slowstart ramping and CLR timeouts.
    /// Called internally from [`Self::next_data`]; exposed for adapters that
    /// want to drive time forward without sending (e.g. when the application
    /// is idle).
    pub fn on_tick(&mut self, now: f64) {
        if !self.started {
            self.started = true;
            self.round_started_at = now;
            self.last_rate_adjust_at = now;
        }
        // Feedback round management.
        let window = self.feedback_window();
        if now - self.round_started_at >= window {
            self.feedback_round += 1;
            self.stats.rounds += 1;
            self.round_started_at = now;
            self.receivers.reset_round();
            if self.slowstart {
                if let Some(min_recv) = self.slowstart_min_recv.take() {
                    self.slowstart_target =
                        (SLOWSTART_MULTIPLE * min_recv).max(self.config.initial_rate());
                }
            }
        }
        // Slowstart ramp: approach the target over roughly one RTT.
        if self.slowstart {
            let rtt = self.max_rtt();
            let elapsed = (now - self.last_rate_adjust_at).max(0.0);
            if self.slowstart_target > self.current_rate {
                let step = (self.slowstart_target - self.current_rate) * (elapsed / rtt).min(1.0);
                self.current_rate += step;
            }
            self.last_rate_adjust_at = now;
        }
        // CLR timeout (Section 2.2): absence of feedback for 10 feedback
        // delays means the CLR is assumed to have left.
        let timed_out = self
            .clr
            .as_ref()
            .map(|c| now - c.last_feedback_at > self.config.clr_timeout_multiple * window)
            .unwrap_or(false);
        if timed_out {
            let id = self.clr.as_ref().map(|c| c.id).expect("checked above");
            self.stats.clr_timeouts += 1;
            self.stats.clr_changes += 1;
            self.receivers.remove(id);
            self.clr = None;
            self.previous_clr = None;
            self.clr_vacant_since = Some(now);
            self.elect_clr_from_known(now);
        }
        // Expire the stored previous CLR.
        if let Some((_, valid_until)) = &self.previous_clr {
            if now > *valid_until {
                self.previous_clr = None;
            }
        }
    }

    /// Builds the header of the next data packet to transmit at time `now`.
    pub fn next_data(&mut self, now: f64) -> DataPacket {
        self.on_tick(now);
        self.stats.data_packets += 1;
        let seqno = self.seqno;
        self.seqno += 1;

        // Echo selection: highest-priority queued report, falling back to the
        // CLR's most recent report so the CLR keeps its RTT fresh.
        let rtt_echo = if let Some(echo) = self.pop_echo() {
            Some(RttEcho {
                receiver: echo.receiver,
                echo_timestamp: echo.timestamp,
                echo_delay: (now - echo.received_at).max(0.0),
            })
        } else {
            self.clr().and_then(|id| {
                self.receivers.get(id).map(|info| RttEcho {
                    receiver: id,
                    echo_timestamp: info.last_report_timestamp,
                    echo_delay: (now - info.last_report_at).max(0.0),
                })
            })
        };

        DataPacket {
            seqno,
            timestamp: now,
            current_rate: self.current_rate,
            max_rtt: self.max_rtt(),
            feedback_round: self.feedback_round,
            slowstart: self.slowstart,
            clr: self.clr(),
            rtt_echo,
            suppression: self.receivers.round_min(),
            size: self.config.packet_size,
        }
    }

    fn pop_echo(&mut self) -> Option<PendingEcho> {
        if self.echo_queue.is_empty() {
            None
        } else {
            Some(self.echo_queue.remove(0))
        }
    }
}

impl StateFingerprint for ClrState {
    fn fingerprint<H: Hasher>(&self, h: &mut H) {
        h.write_u64(self.id.0);
        hash_f64(h, self.rate);
        hash_f64(h, self.rtt);
        hash_f64(h, self.last_feedback_at);
    }
}

impl<A: StateFingerprint> StateFingerprint for TfmccSender<A> {
    /// Hashes every field that influences future behaviour.  The immutable
    /// configuration and the accumulated [`SenderStats`] (monotone counters
    /// that never feed back into protocol decisions) are excluded so that
    /// states with identical future behaviour deduplicate.
    fn fingerprint<H: Hasher>(&self, h: &mut H) {
        hash_f64(h, self.current_rate);
        h.write_u8(self.slowstart as u8);
        hash_opt_f64(h, self.slowstart_min_recv);
        hash_f64(h, self.slowstart_target);
        match &self.clr {
            Some(clr) => {
                h.write_u8(1);
                clr.fingerprint(h);
            }
            None => h.write_u8(0),
        }
        match &self.previous_clr {
            Some((clr, valid_until)) => {
                h.write_u8(1);
                clr.fingerprint(h);
                hash_f64(h, *valid_until);
            }
            None => h.write_u8(0),
        }
        self.receivers.fingerprint(h);
        h.write_u64(self.feedback_round);
        hash_f64(h, self.round_started_at);
        h.write_usize(self.echo_queue.len());
        for echo in &self.echo_queue {
            h.write_u64(echo.receiver.0);
            hash_f64(h, echo.timestamp);
            hash_f64(h, echo.received_at);
            h.write_u8(echo.priority);
            hash_f64(h, echo.rate);
        }
        h.write_u64(self.seqno);
        hash_f64(h, self.last_rate_adjust_at);
        h.write_u8(self.started as u8);
        hash_opt_f64(h, self.clr_vacant_since);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sender() -> TfmccSender {
        TfmccSender::new(TfmccConfig::default())
    }

    fn feedback(id: u64, round: u64, now: f64) -> FeedbackPacket {
        FeedbackPacket {
            receiver: ReceiverId(id),
            timestamp: now,
            echo_timestamp: now - 0.05,
            echo_delay: 0.0,
            calculated_rate: f64::INFINITY,
            loss_event_rate: 0.0,
            receive_rate: 100_000.0,
            rtt: 0.05,
            has_rtt_measurement: true,
            feedback_round: round,
            leaving: false,
        }
    }

    #[test]
    fn starts_in_slowstart_at_initial_rate() {
        let s = sender();
        assert!(s.in_slowstart());
        assert!((s.current_rate() - 2000.0).abs() < 1e-9);
        assert!(s.clr().is_none());
    }

    #[test]
    fn slowstart_ramps_toward_twice_min_receive_rate() {
        let mut s = sender();
        let mut now = 0.0;
        // Drive data packets and lossless feedback for a while.
        for i in 0..2000 {
            let _ = s.next_data(now);
            if i % 50 == 0 {
                let mut fb = feedback(1, s.feedback_round, now);
                fb.receive_rate = s.current_rate(); // receiver keeps up
                s.on_feedback(now, &fb);
            }
            now += s.packet_interval().min(0.1);
        }
        assert!(s.in_slowstart());
        assert!(
            s.current_rate() > 10_000.0,
            "rate should have grown exponentially, got {}",
            s.current_rate()
        );
    }

    #[test]
    fn first_loss_terminates_slowstart_and_selects_clr() {
        let mut s = sender();
        let mut now = 0.0;
        for _ in 0..100 {
            let _ = s.next_data(now);
            now += s.packet_interval().min(0.1);
        }
        let mut fb = feedback(7, s.feedback_round, now);
        fb.loss_event_rate = 0.01;
        fb.calculated_rate = 80_000.0;
        s.on_feedback(now, &fb);
        assert!(!s.in_slowstart());
        assert_eq!(s.clr(), Some(ReceiverId(7)));
        assert!(s.current_rate() <= 80_000.0 + 1e-9);
    }

    #[test]
    fn lower_rate_feedback_reduces_rate_immediately_and_switches_clr() {
        let mut s = sender();
        let now = 1.0;
        let mut fb = feedback(1, 1, now);
        fb.loss_event_rate = 0.01;
        fb.calculated_rate = 90_000.0;
        s.on_feedback(now, &fb);
        assert_eq!(s.clr(), Some(ReceiverId(1)));
        let mut fb2 = feedback(2, 1, now + 0.1);
        fb2.loss_event_rate = 0.05;
        fb2.calculated_rate = 30_000.0;
        s.on_feedback(now + 0.1, &fb2);
        assert_eq!(s.clr(), Some(ReceiverId(2)));
        assert!(s.current_rate() <= 30_000.0 + 1e-9);
        assert!(s.stats().clr_changes >= 2);
    }

    #[test]
    fn higher_rate_feedback_from_non_clr_is_ignored_for_rate() {
        let mut s = sender();
        let now = 1.0;
        let mut fb = feedback(1, 1, now);
        fb.loss_event_rate = 0.05;
        fb.calculated_rate = 30_000.0;
        s.on_feedback(now, &fb);
        let rate_before = s.current_rate();
        let mut fb2 = feedback(2, 1, now + 0.1);
        fb2.loss_event_rate = 0.001;
        fb2.calculated_rate = 500_000.0;
        s.on_feedback(now + 0.1, &fb2);
        assert_eq!(s.clr(), Some(ReceiverId(1)));
        assert!((s.current_rate() - rate_before).abs() < 1e-9);
    }

    #[test]
    fn clr_rate_increase_is_limited_to_one_packet_per_rtt() {
        let mut s = sender();
        let mut now = 1.0;
        let mut fb = feedback(1, 1, now);
        fb.loss_event_rate = 0.02;
        fb.calculated_rate = 50_000.0;
        fb.rtt = 0.1;
        s.on_feedback(now, &fb);
        // Slowstart terminates; the sending rate never exceeds the report.
        assert!(!s.in_slowstart());
        assert!(s.current_rate() <= 50_000.0);
        let start_rate = s.current_rate();
        // The CLR now reports a much higher rate every 100 ms; the increase is
        // capped at one packet per RTT per RTT = 10 kB/s per 100 ms.
        for _ in 0..10 {
            now += 0.1;
            let mut fb = feedback(1, 1, now);
            fb.loss_event_rate = 0.0001;
            fb.calculated_rate = 10_000_000.0;
            fb.rtt = 0.1;
            s.on_feedback(now, &fb);
        }
        assert!(
            s.current_rate() <= start_rate + 110_000.0,
            "rate climbed too fast: {}",
            s.current_rate()
        );
        assert!(
            s.current_rate() > start_rate + 50_000.0,
            "rate should still have increased: {}",
            s.current_rate()
        );
    }

    #[test]
    fn clr_leave_elects_next_most_limited_receiver() {
        let mut s = sender();
        let now = 1.0;
        for (id, rate) in [(1u64, 40_000.0), (2, 60_000.0), (3, 90_000.0)] {
            let mut fb = feedback(id, 1, now);
            fb.loss_event_rate = 0.01;
            fb.calculated_rate = rate;
            s.on_feedback(now, &fb);
        }
        assert_eq!(s.clr(), Some(ReceiverId(1)));
        let mut leave = feedback(1, 1, now + 0.5);
        leave.leaving = true;
        s.on_feedback(now + 0.5, &leave);
        assert_eq!(s.clr(), Some(ReceiverId(2)));
        assert_eq!(s.known_receivers(), 2);
    }

    #[test]
    fn clr_timeout_drops_unresponsive_clr() {
        let mut s = sender();
        let mut now = 1.0;
        let mut fb = feedback(1, 1, now);
        fb.loss_event_rate = 0.01;
        fb.calculated_rate = 50_000.0;
        s.on_feedback(now, &fb);
        let mut fb2 = feedback(2, 1, now);
        fb2.loss_event_rate = 0.005;
        fb2.calculated_rate = 80_000.0;
        s.on_feedback(now, &fb2);
        assert_eq!(s.clr(), Some(ReceiverId(1)));
        // Keep receiver 2 fresh while receiver 1 goes silent far beyond the
        // timeout (10 feedback windows).
        let window = s.feedback_window();
        while now < 1.0 + 12.0 * window {
            now += window / 4.0;
            let _ = s.next_data(now);
            let mut fb2 = feedback(2, s.feedback_round, now);
            fb2.loss_event_rate = 0.005;
            fb2.calculated_rate = 80_000.0;
            s.on_feedback(now, &fb2);
        }
        assert_eq!(s.clr(), Some(ReceiverId(2)));
        assert!(s.stats().clr_timeouts >= 1);
    }

    #[test]
    fn feedback_rounds_advance_and_reset_suppression_echo() {
        let mut s = sender();
        let mut now = 0.0;
        let _ = s.next_data(now);
        let round0 = s.feedback_round;
        let mut fb = feedback(5, round0, now);
        fb.loss_event_rate = 0.01;
        fb.calculated_rate = 70_000.0;
        s.on_feedback(now, &fb);
        let d = s.next_data(now + 0.01);
        assert!(d.suppression.is_some());
        assert_eq!(d.suppression.unwrap().receiver, ReceiverId(5));
        // Jump past the feedback window: the round increments and the echo is
        // cleared.
        now += s.feedback_window() + 1.0;
        let d = s.next_data(now);
        assert!(d.feedback_round > round0);
        assert!(d.suppression.is_none());
    }

    #[test]
    fn echo_priority_prefers_receivers_without_rtt() {
        let mut s = sender();
        let now = 1.0;
        let _ = s.next_data(now);
        // Receiver 1 (has RTT) reports first, receiver 2 (no RTT) second.
        let mut fb1 = feedback(1, s.feedback_round, now);
        fb1.loss_event_rate = 0.01;
        fb1.calculated_rate = 70_000.0;
        s.on_feedback(now, &fb1);
        let mut fb2 = feedback(2, s.feedback_round, now + 0.001);
        fb2.has_rtt_measurement = false;
        fb2.loss_event_rate = 0.02;
        fb2.calculated_rate = 60_000.0;
        s.on_feedback(now + 0.001, &fb2);
        // Receiver 1's report made it CLR (priority 0); receiver 2 has no RTT
        // (priority 1). CLR switch to 2? rate 60k via sender-side rtt... the
        // adopted CLR may change; what matters here is that both eventually
        // get echoed and the no-RTT receiver is not starved.
        let d1 = s.next_data(now + 0.01);
        let d2 = s.next_data(now + 0.02);
        let echoed: Vec<ReceiverId> = [d1, d2]
            .iter()
            .filter_map(|d| d.rtt_echo.as_ref().map(|e| e.receiver))
            .collect();
        assert!(echoed.contains(&ReceiverId(2)), "echoes: {echoed:?}");
    }

    #[test]
    fn data_packets_carry_monotone_seqnos_and_current_state() {
        let mut s = sender();
        let mut last_seq = None;
        let mut now = 0.0;
        for _ in 0..50 {
            let d = s.next_data(now);
            if let Some(prev) = last_seq {
                assert_eq!(d.seqno, prev + 1);
            }
            assert_eq!(d.size, 1000);
            assert!(d.current_rate > 0.0);
            assert!(d.max_rtt >= 0.001);
            last_seq = Some(d.seqno);
            now += 0.01;
        }
        assert_eq!(s.stats().data_packets, 50);
    }

    #[test]
    fn clr_recovery_gap_is_recorded_when_vacancy_is_filled_late() {
        let mut s = sender();
        let now = 1.0;
        // A lone receiver becomes CLR, then leaves: no candidate remains, so
        // the slot stays vacant.
        let mut fb = feedback(1, 1, now);
        fb.loss_event_rate = 0.01;
        fb.calculated_rate = 50_000.0;
        s.on_feedback(now, &fb);
        assert_eq!(s.clr(), Some(ReceiverId(1)));
        assert_eq!(s.clr_vacant_since(), None);
        let mut leave = feedback(1, 1, now + 0.5);
        leave.leaving = true;
        s.on_feedback(now + 0.5, &leave);
        assert_eq!(s.clr(), None);
        assert!(!s.has_limited_receiver());
        assert_eq!(s.clr_vacant_since(), Some(now + 0.5));
        // A replacement reports 2 seconds later: the vacancy closes and the
        // gap is recorded.
        let mut fb2 = feedback(2, 1, now + 2.5);
        fb2.loss_event_rate = 0.02;
        fb2.calculated_rate = 40_000.0;
        s.on_feedback(now + 2.5, &fb2);
        assert_eq!(s.clr(), Some(ReceiverId(2)));
        assert_eq!(s.clr_vacant_since(), None);
        assert!((s.stats().max_clr_recovery_secs - 2.0).abs() < 1e-9);
    }

    #[test]
    fn immediate_reelection_records_zero_recovery_gap() {
        let mut s = sender();
        let now = 1.0;
        for (id, rate) in [(1u64, 40_000.0), (2, 60_000.0)] {
            let mut fb = feedback(id, 1, now);
            fb.loss_event_rate = 0.01;
            fb.calculated_rate = rate;
            s.on_feedback(now, &fb);
        }
        let mut leave = feedback(1, 1, now + 0.5);
        leave.leaving = true;
        s.on_feedback(now + 0.5, &leave);
        // Receiver 2 was elected in the same step: no open vacancy, zero gap.
        assert_eq!(s.clr(), Some(ReceiverId(2)));
        assert_eq!(s.clr_vacant_since(), None);
        assert_eq!(s.stats().max_clr_recovery_secs, 0.0);
    }

    #[test]
    fn previous_clr_is_restored_when_new_clr_recovers() {
        let mut s = sender();
        let now = 1.0;
        // Receiver 1 is CLR at 50 kB/s.
        let mut fb1 = feedback(1, 1, now);
        fb1.loss_event_rate = 0.02;
        fb1.calculated_rate = 50_000.0;
        s.on_feedback(now, &fb1);
        // Receiver 2 briefly dips below and takes over.
        let mut fb2 = feedback(2, 1, now + 0.05);
        fb2.loss_event_rate = 0.05;
        fb2.calculated_rate = 30_000.0;
        s.on_feedback(now + 0.05, &fb2);
        assert_eq!(s.clr(), Some(ReceiverId(2)));
        // Receiver 2 recovers above receiver 1's rate shortly after: the
        // sender switches back to the stored previous CLR (Appendix C).
        let mut fb2b = feedback(2, 1, now + 0.1);
        fb2b.loss_event_rate = 0.005;
        fb2b.calculated_rate = 90_000.0;
        s.on_feedback(now + 0.1, &fb2b);
        assert_eq!(s.clr(), Some(ReceiverId(1)));
    }
}
