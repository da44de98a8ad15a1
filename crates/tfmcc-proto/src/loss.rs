//! Loss-event measurement (paper Section 2.3, Appendices A and B).
//!
//! The receiver aggregates packet losses into *loss events* (one or more
//! packets lost within one RTT), tracks the number of packets between
//! consecutive loss events (*loss intervals*) and computes the loss event
//! rate as the inverse of a weighted average over the most recent intervals.
//!
//! The module also implements the loss-history initialisation of Appendix B
//! (deriving a synthetic first interval from the receive rate at the first
//! loss) and the Appendix A/B adjustment of that synthetic interval once the
//! receiver obtains its first real RTT measurement.

use std::collections::VecDeque;
use std::hash::Hasher;

use tfmcc_model::throughput::mathis_loss_rate;

use crate::config::{TfmccConfig, LOSS_HISTORY_LEN, LOSS_INTERVAL_WEIGHTS};
use crate::step::{hash_f64, hash_opt_f64, StateFingerprint};

/// Result of processing one arriving data packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LossUpdate {
    /// A new loss event started while processing this packet.
    pub new_loss_event: bool,
    /// This was the very first loss event of the session; the caller should
    /// initialise the history via [`LossHistory::initialize_first_interval`].
    pub first_loss_event: bool,
    /// Number of packets detected as lost while processing this packet.
    pub packets_lost: u64,
}

/// Per-receiver loss-event history.
///
/// The weights are the paper's constant table ([`LOSS_INTERVAL_WEIGHTS`]),
/// so a receiver stores none.  The weighted average over the closed
/// intervals changes only when the ring does, so it is cached there; only
/// the average with the open interval is computed per packet.
#[derive(Debug, Clone)]
pub struct LossHistory {
    packet_size: u32,
    /// Closed loss intervals, most recent first, in packets.
    intervals: VecDeque<f64>,
    /// `weighted_average(None)`, refreshed wherever `intervals` changes.
    closed_average: f64,
    /// Packets received since the start of the most recent loss event.
    open_interval: f64,
    /// Time at which the most recent loss event started.
    last_loss_event_at: Option<f64>,
    /// Next expected sequence number.
    expected_seq: Option<u64>,
    /// Arrival time of the most recently received in-order packet.
    last_arrival: Option<f64>,
    /// Number of intervals pushed since the synthetic first interval was
    /// created (None if no synthetic interval exists / it has aged out).
    synthetic_age: Option<usize>,
    /// Whether the synthetic interval was computed while the receiver was
    /// still using the configured initial RTT.
    synthetic_used_initial_rtt: bool,
    /// Counters.
    total_received: u64,
    total_lost: u64,
}

impl LossHistory {
    /// Creates an empty history using the packet size from `config`.
    pub fn new(config: &TfmccConfig) -> Self {
        LossHistory {
            packet_size: config.packet_size,
            // The ring never holds more than `LOSS_HISTORY_LEN` intervals
            // (`push_interval` evicts), so this one allocation at
            // construction is the last one the loss path ever makes.
            intervals: VecDeque::with_capacity(LOSS_HISTORY_LEN + 1),
            closed_average: 0.0,
            open_interval: 0.0,
            last_loss_event_at: None,
            expected_seq: None,
            last_arrival: None,
            synthetic_age: None,
            synthetic_used_initial_rtt: false,
            total_received: 0,
            total_lost: 0,
        }
    }

    /// True once at least one loss event has been recorded.
    pub fn has_loss(&self) -> bool {
        !self.intervals.is_empty() || self.last_loss_event_at.is_some()
    }

    /// Total packets received.
    pub fn packets_received(&self) -> u64 {
        self.total_received
    }

    /// Total packets detected as lost.
    pub fn packets_lost(&self) -> u64 {
        self.total_lost
    }

    /// Raw loss fraction (lost / (lost + received)), for reporting only.
    pub fn raw_loss_fraction(&self) -> f64 {
        let total = self.total_lost + self.total_received;
        if total == 0 {
            0.0
        } else {
            self.total_lost as f64 / total as f64
        }
    }

    /// Processes an arriving data packet with sequence number `seqno` at time
    /// `now`, aggregating any detected losses into loss events using `rtt`
    /// as the aggregation window.
    pub fn on_packet(&mut self, seqno: u64, now: f64, rtt: f64) -> LossUpdate {
        let mut update = LossUpdate::default();
        let expected = match self.expected_seq {
            None => {
                // First packet of the session: start counting from here.
                self.expected_seq = Some(seqno + 1);
                self.last_arrival = Some(now);
                self.total_received += 1;
                self.open_interval += 1.0;
                return update;
            }
            Some(e) => e,
        };
        if seqno < expected {
            // Late or duplicate packet; it was already counted as lost.
            return update;
        }
        let gap = seqno - expected;
        if gap > 0 {
            let last_time = self.last_arrival.unwrap_or(now);
            for i in 0..gap {
                // Interpolate the loss time between the surrounding arrivals.
                let frac = (i + 1) as f64 / (gap + 1) as f64;
                let loss_time = last_time + frac * (now - last_time);
                self.total_lost += 1;
                let starts_new_event = match self.last_loss_event_at {
                    None => true,
                    Some(t) => loss_time - t > rtt,
                };
                if starts_new_event {
                    update.new_loss_event = true;
                    if self.last_loss_event_at.is_none() && self.intervals.is_empty() {
                        // Very first loss event: the packets counted so far do
                        // not reflect the loss rate (Appendix B); the caller
                        // initialises the history instead.
                        update.first_loss_event = true;
                    } else {
                        self.push_interval(self.open_interval);
                    }
                    self.open_interval = 0.0;
                    self.last_loss_event_at = Some(loss_time);
                }
            }
            update.packets_lost = gap;
        }
        self.total_received += 1;
        self.open_interval += 1.0;
        self.expected_seq = Some(seqno + 1);
        self.last_arrival = Some(now);
        update
    }

    fn push_interval(&mut self, interval: f64) {
        self.intervals.push_front(interval.max(1.0));
        if self.intervals.len() > LOSS_HISTORY_LEN {
            self.intervals.pop_back();
        }
        if let Some(age) = self.synthetic_age.as_mut() {
            *age += 1;
            if *age >= LOSS_HISTORY_LEN {
                self.synthetic_age = None;
            }
        }
        self.closed_average = self.weighted_average(None);
    }

    /// Initialises the loss history after the first loss event (Appendix B).
    ///
    /// `receive_rate` is the rate at which data was arriving when the first
    /// loss occurred (≈ the bottleneck bandwidth; slowstart overshoots by at
    /// most a factor of two, hence the halving), `rtt` the RTT estimate in
    /// use, and `using_initial_rtt` whether that estimate is still the
    /// configured initial value (in which case the interval is adjusted again
    /// once a real measurement arrives).
    pub fn initialize_first_interval(
        &mut self,
        receive_rate: f64,
        rtt: f64,
        using_initial_rtt: bool,
    ) {
        let rate = (receive_rate / 2.0).max(f64::from(self.packet_size) / rtt);
        let p = mathis_loss_rate(f64::from(self.packet_size), rtt, rate).max(1e-8);
        let interval = (1.0 / p).max(1.0);
        self.intervals.clear();
        self.intervals.push_front(interval);
        self.closed_average = self.weighted_average(None);
        self.synthetic_age = Some(0);
        self.synthetic_used_initial_rtt = using_initial_rtt;
    }

    /// Adjusts the synthetic first interval when the receiver obtains its
    /// first real RTT measurement (Appendix B): the interval computed with an
    /// overestimated initial RTT is too large by `(rtt_initial/rtt)²` under
    /// the simplified TCP equation.
    pub fn remodel_for_measured_rtt(&mut self, initial_rtt: f64, measured_rtt: f64) {
        if !self.synthetic_used_initial_rtt {
            return;
        }
        self.synthetic_used_initial_rtt = false;
        let Some(age) = self.synthetic_age else {
            return;
        };
        // The synthetic interval is the oldest of the `age + 1` intervals
        // that exist since it was pushed; it sits `age` positions from the
        // front.
        if let Some(slot) = self.intervals.get_mut(age) {
            let factor = (measured_rtt / initial_rtt).powi(2);
            *slot = (*slot * factor).max(1.0);
            self.closed_average = self.weighted_average(None);
        }
    }

    /// Weighted average loss interval in packets (paper Section 2.3),
    /// including the open interval when that increases the average.
    ///
    /// Returns `None` until the first loss event has been recorded.
    pub fn average_loss_interval(&self) -> Option<f64> {
        if self.intervals.is_empty() {
            return None;
        }
        let with_open = self.weighted_average(Some(self.open_interval));
        Some(self.closed_average.max(with_open))
    }

    /// Weighted average over the closed intervals, optionally treating
    /// `open` as the most recent interval (shifting the rest by one).
    ///
    /// The open-interval variant runs on the receiver's per-packet path
    /// whenever the loss event rate is evaluated, so it iterates the ring in
    /// place — no scratch `Vec` — accumulating in the same order the
    /// historical collect-then-sum implementation did, which keeps the
    /// floating-point results bit-identical.
    fn weighted_average(&self, open: Option<f64>) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for (v, w) in open
            .into_iter()
            .chain(self.intervals.iter().copied())
            .zip(LOSS_INTERVAL_WEIGHTS)
        {
            num += v * w;
            den += w;
        }
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }

    /// Loss event rate `p` (inverse of the average loss interval), or 0 while
    /// no loss has been observed.
    pub fn loss_event_rate(&self) -> f64 {
        match self.average_loss_interval() {
            Some(avg) if avg > 0.0 => (1.0 / avg).min(1.0),
            _ => 0.0,
        }
    }

    /// The closed intervals, most recent first (for diagnostics and tests).
    pub fn intervals(&self) -> impl Iterator<Item = f64> + '_ {
        self.intervals.iter().copied()
    }

    /// Packets received since the most recent loss event started.
    pub fn open_interval(&self) -> f64 {
        self.open_interval
    }
}

impl StateFingerprint for LossHistory {
    /// Hashes everything that influences future loss-rate computation.  The
    /// cached closed average is a pure function of the hashed ring and the
    /// `total_received` / `total_lost` counters are observational
    /// ([`raw_loss_fraction`](Self::raw_loss_fraction) only), so both are
    /// excluded.
    fn fingerprint<H: Hasher>(&self, h: &mut H) {
        h.write_u32(self.packet_size);
        h.write_usize(self.intervals.len());
        for v in &self.intervals {
            hash_f64(h, *v);
        }
        hash_f64(h, self.open_interval);
        hash_opt_f64(h, self.last_loss_event_at);
        match self.expected_seq {
            Some(s) => {
                h.write_u8(1);
                h.write_u64(s);
            }
            None => h.write_u8(0),
        }
        hash_opt_f64(h, self.last_arrival);
        match self.synthetic_age {
            Some(a) => {
                h.write_u8(1);
                h.write_usize(a);
            }
            None => h.write_u8(0),
        }
        h.write_u8(self.synthetic_used_initial_rtt as u8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn history() -> LossHistory {
        LossHistory::new(&TfmccConfig::default())
    }

    /// Feeds `n` consecutive packets starting at `seq`, one per `dt` seconds.
    fn feed(h: &mut LossHistory, seq: &mut u64, t: &mut f64, n: u64, dt: f64, rtt: f64) {
        for _ in 0..n {
            h.on_packet(*seq, *t, rtt);
            *seq += 1;
            *t += dt;
        }
    }

    #[test]
    fn no_loss_means_zero_rate() {
        let mut h = history();
        let (mut seq, mut t) = (0u64, 0.0);
        feed(&mut h, &mut seq, &mut t, 100, 0.01, 0.1);
        assert!(!h.has_loss());
        assert_eq!(h.loss_event_rate(), 0.0);
        assert_eq!(h.average_loss_interval(), None);
        assert_eq!(h.packets_received(), 100);
        assert_eq!(h.packets_lost(), 0);
    }

    #[test]
    fn single_gap_is_first_loss_event() {
        let mut h = history();
        let (mut seq, mut t) = (0u64, 0.0);
        feed(&mut h, &mut seq, &mut t, 10, 0.01, 0.1);
        // Skip one packet.
        seq += 1;
        let upd = h.on_packet(seq, t, 0.1);
        assert!(upd.new_loss_event);
        assert!(upd.first_loss_event);
        assert_eq!(upd.packets_lost, 1);
        assert!(h.has_loss());
    }

    #[test]
    fn losses_within_one_rtt_form_one_event() {
        let mut h = history();
        let (mut seq, mut t) = (0u64, 0.0);
        feed(&mut h, &mut seq, &mut t, 10, 0.001, 0.5);
        h.initialize_first_interval(100_000.0, 0.5, false);
        // Lose packets 10, 12, 14 within a few milliseconds — one event.
        let mut events = 0;
        for present in [11u64, 13, 15] {
            let upd = h.on_packet(present, t, 0.5);
            t += 0.001;
            if upd.new_loss_event {
                events += 1;
            }
        }
        // First loss already initialised; the additional gaps fall within the
        // same RTT so no further events start.
        assert_eq!(events, 1);
        assert_eq!(h.packets_lost(), 3);
    }

    #[test]
    fn losses_farther_apart_than_rtt_form_separate_events() {
        let mut h = history();
        let rtt = 0.05;
        let (mut seq, mut t) = (0u64, 0.0);
        feed(&mut h, &mut seq, &mut t, 10, 0.01, rtt);
        // First loss.
        seq += 1;
        h.on_packet(seq, t, rtt);
        h.initialize_first_interval(100_000.0, rtt, false);
        seq += 1;
        t += 0.01;
        // 50 good packets, then another loss well beyond one RTT.
        feed(&mut h, &mut seq, &mut t, 50, 0.01, rtt);
        seq += 1; // skip
        let upd = h.on_packet(seq, t, rtt);
        assert!(upd.new_loss_event);
        assert!(!upd.first_loss_event);
        // The closed interval pushed should be about 51 packets.
        let first_interval = h.intervals().next().unwrap();
        assert!(
            (45.0..=55.0).contains(&first_interval),
            "interval {first_interval}"
        );
    }

    #[test]
    fn average_uses_weights_and_open_interval_rule() {
        let mut h = history();
        // Construct a known set of closed intervals by direct pushes.
        for v in [10.0, 20.0, 30.0] {
            h.push_interval(v);
        }
        // intervals (recent first): [30, 20, 10]; weights 5,5,5 -> avg = 20.
        let avg = h.average_loss_interval().unwrap();
        assert!((avg - 20.0).abs() < 1e-9, "avg {avg}");
        // A long open interval raises the average when included.
        h.open_interval = 100.0;
        let avg2 = h.average_loss_interval().unwrap();
        assert!(avg2 > avg);
        // A short open interval must not lower it.
        h.open_interval = 1.0;
        let avg3 = h.average_loss_interval().unwrap();
        assert!((avg3 - avg).abs() < 1e-9);
    }

    #[test]
    fn loss_event_rate_tracks_periodic_loss() {
        let mut h = history();
        let rtt = 0.01;
        let (mut seq, mut t) = (0u64, 0.0);
        // Lose every 100th packet over a long run.
        let mut first = true;
        for _ in 0..60 {
            feed(&mut h, &mut seq, &mut t, 99, 0.001, rtt);
            seq += 1; // drop one
            let upd = h.on_packet(seq, t, rtt);
            t += 0.001;
            seq += 1;
            if upd.first_loss_event && first {
                h.initialize_first_interval(1_000_000.0, rtt, false);
                first = false;
            }
        }
        let p = h.loss_event_rate();
        assert!(
            (0.008..=0.012).contains(&p),
            "expected ≈1% loss event rate, got {p}"
        );
    }

    #[test]
    fn history_is_bounded() {
        let mut h = history();
        for i in 0..100 {
            h.push_interval(i as f64 + 1.0);
        }
        assert_eq!(h.intervals().count(), 8);
    }

    #[test]
    fn initialization_uses_inverse_equation() {
        let mut h = history();
        let rtt = 0.05;
        // Receive rate 1 Mbit/s = 125000 B/s at first loss; half = 62500 B/s.
        h.initialize_first_interval(125_000.0, rtt, false);
        let p = h.loss_event_rate();
        let expected = mathis_loss_rate(1000.0, rtt, 62_500.0);
        assert!((p - expected).abs() < 1e-9, "p {p} vs expected {expected}");
    }

    #[test]
    fn remodel_shrinks_synthetic_interval() {
        let mut h = history();
        h.initialize_first_interval(125_000.0, 0.5, true);
        let before = h.intervals().next().unwrap();
        h.remodel_for_measured_rtt(0.5, 0.05);
        let after = h.intervals().next().unwrap();
        // Factor (0.05/0.5)^2 = 0.01.
        assert!(
            (after - before * 0.01).abs() < 1e-6 || after == 1.0,
            "before {before} after {after}"
        );
        assert!(after < before);
        // Remodelling twice has no further effect.
        h.remodel_for_measured_rtt(0.5, 0.01);
        let again = h.intervals().next().unwrap();
        assert_eq!(after, again);
    }

    #[test]
    fn remodel_ignores_interval_once_aged_out() {
        let mut h = history();
        h.initialize_first_interval(125_000.0, 0.5, true);
        for _ in 0..10 {
            h.push_interval(50.0);
        }
        // The synthetic interval has been pushed out of the history.
        let before: Vec<f64> = h.intervals().collect();
        h.remodel_for_measured_rtt(0.5, 0.05);
        let after: Vec<f64> = h.intervals().collect();
        assert_eq!(before, after);
    }

    #[test]
    fn late_packets_are_ignored() {
        let mut h = history();
        let rtt = 0.05;
        h.on_packet(0, 0.0, rtt);
        h.on_packet(5, 0.1, rtt); // 1..4 lost
        let lost_before = h.packets_lost();
        let upd = h.on_packet(2, 0.15, rtt); // late arrival
        assert_eq!(upd.packets_lost, 0);
        assert_eq!(h.packets_lost(), lost_before);
    }

    /// The average as computed before the closed average was cached: both
    /// weighted sums from scratch over the weight table.
    fn scratch_average(h: &LossHistory) -> Option<f64> {
        if h.intervals.is_empty() {
            return None;
        }
        let average = |open: Option<f64>| {
            let (mut num, mut den) = (0.0, 0.0);
            for (v, w) in open
                .into_iter()
                .chain(h.intervals.iter().copied())
                .take(LOSS_HISTORY_LEN)
                .zip(&LOSS_INTERVAL_WEIGHTS)
            {
                num += v * w;
                den += w;
            }
            if den == 0.0 {
                0.0
            } else {
                num / den
            }
        };
        Some(average(None).max(average(Some(h.open_interval))))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The cached closed average never goes stale: after every step of
        /// a random mix of arrivals (with gaps), history initialisations and
        /// RTT remodels, the average is bit-equal to the from-scratch one.
        #[test]
        fn cached_average_is_bit_equal_to_a_from_scratch_average(
            ops in proptest::collection::vec(0u8..16, 200..201),
            gaps in proptest::collection::vec(0u64..4, 200..201),
            dts in proptest::collection::vec(0.0001f64..0.05, 200..201),
            rates in proptest::collection::vec(1_000.0f64..2e6, 200..201),
            rtts in proptest::collection::vec(0.005f64..0.6, 200..201),
        ) {
            let config = TfmccConfig::default();
            let mut h = LossHistory::new(&config);
            let (mut seq, mut t) = (0u64, 0.0);
            for step in 0..ops.len() {
                match ops[step] {
                    0 => h.initialize_first_interval(rates[step], rtts[step], step % 2 == 0),
                    1 => h.remodel_for_measured_rtt(config.initial_rtt, rtts[step]),
                    _ => {
                        // Gaps of 1–3 lost packets on a quarter of arrivals.
                        seq += if ops[step] % 4 == 0 { gaps[step] } else { 0 };
                        let update = h.on_packet(seq, t, rtts[step] * 0.2);
                        if update.first_loss_event {
                            h.initialize_first_interval(rates[step], rtts[step], true);
                        }
                        seq += 1;
                        t += dts[step];
                    }
                }
                prop_assert_eq!(
                    h.average_loss_interval().map(f64::to_bits),
                    scratch_average(&h).map(f64::to_bits),
                    "step {}", step
                );
            }
        }
    }

    #[test]
    fn raw_loss_fraction_reflects_counts() {
        let mut h = history();
        let rtt = 0.05;
        h.on_packet(0, 0.0, rtt);
        h.on_packet(1, 0.01, rtt);
        h.on_packet(4, 0.02, rtt); // 2 lost
        assert_eq!(h.packets_lost(), 2);
        assert_eq!(h.packets_received(), 3);
        assert!((h.raw_loss_fraction() - 0.4).abs() < 1e-12);
    }
}
