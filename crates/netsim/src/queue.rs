//! Router queue disciplines.
//!
//! The TFMCC paper evaluates over drop-tail queues ("to ensure acceptable
//! behavior in the current Internet") and notes that fairness generally
//! improves under RED.  Three disciplines are provided:
//!
//! * [`QueueDiscipline::DropTail`] — FIFO with a hard packet limit;
//! * [`QueueDiscipline::Red`] — the classic Floyd/Jacobson RED algorithm,
//!   including the *gentle* variant (drop probability ramps from `max_p` to 1
//!   between `max_threshold` and `2 * max_threshold` instead of jumping);
//! * [`QueueDiscipline::CoDel`] — a sojourn-time AQM in the style of
//!   Nichols/Jacobson CoDel: packets are dropped at *dequeue* time once the
//!   head-of-line delay has exceeded `target` for a full `interval`, with the
//!   inter-drop gap shrinking as `interval / sqrt(count)` while the queue
//!   stays above target.
//!
//! [`QueueDiscipline`] is what a link is configured with; [`Queue`] holds the
//! packets of a RED or CoDel link.  A drop-tail *link* computes its FIFO
//! service times at offer instead (see [`crate::link`]) and `Queue`'s
//! drop-tail discipline is the per-packet reference it is tested against.
//!
//! Determinism contract: RED consumes exactly one uniform sample per offered
//! packet (drawn by the link from its private per-link RNG stream — see
//! `rng::stream_seed`); CoDel is entirely deterministic and consumes none.
//! Neither discipline changes how many uniforms the link draws per offer, so
//! adding an AQM to one link cannot shift the drop pattern of any other.

use std::collections::VecDeque;

use crate::packet::Packet;
use crate::time::SimTime;

/// Configuration of a queue discipline.
#[derive(Debug, Clone, PartialEq)]
pub enum QueueDiscipline {
    /// FIFO queue that drops arrivals once `limit_packets` are queued.
    DropTail {
        /// Maximum number of queued packets (the packet in transmission does
        /// not count against the limit).
        limit_packets: usize,
    },
    /// Random Early Detection.
    Red(RedConfig),
    /// Controlled Delay: sojourn-time-based drops at dequeue.
    CoDel(CoDelConfig),
}

impl QueueDiscipline {
    /// A drop-tail queue with the given packet limit.
    pub fn drop_tail(limit_packets: usize) -> Self {
        QueueDiscipline::DropTail { limit_packets }
    }

    /// A RED queue with default parameters scaled to the given hard limit.
    pub fn red(limit_packets: usize) -> Self {
        QueueDiscipline::Red(RedConfig::for_limit(limit_packets))
    }

    /// A gentle-RED queue with default parameters scaled to the given hard
    /// limit (identical to [`QueueDiscipline::red`] below `max_threshold`;
    /// ramps to certain drop over `[max_threshold, 2 * max_threshold]`).
    pub fn red_gentle(limit_packets: usize) -> Self {
        let mut cfg = RedConfig::for_limit(limit_packets);
        cfg.gentle = true;
        QueueDiscipline::Red(cfg)
    }

    /// A CoDel queue with the standard 5 ms / 100 ms parameters and the given
    /// hard packet limit.
    pub fn codel(limit_packets: usize) -> Self {
        QueueDiscipline::CoDel(CoDelConfig::for_limit(limit_packets))
    }

    /// Panics if the parameters are invalid (NaN, inverted thresholds,
    /// non-positive intervals, zero limits).  Called by [`Queue::new`], so
    /// every link construction path validates its queue configuration — the
    /// same fail-fast policy as `LossModel::validate`.
    pub fn validate(&self) {
        match self {
            QueueDiscipline::DropTail { limit_packets } => {
                assert!(
                    *limit_packets >= 1,
                    "drop-tail queue limit must be at least one packet, got {limit_packets}"
                );
            }
            QueueDiscipline::Red(cfg) => cfg.validate(),
            QueueDiscipline::CoDel(cfg) => cfg.validate(),
        }
    }
}

/// RED parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RedConfig {
    /// Minimum average-queue threshold below which no packet is dropped.
    pub min_threshold: f64,
    /// Maximum average-queue threshold above which every packet is dropped
    /// (or, in gentle mode, above which the drop probability ramps to 1).
    pub max_threshold: f64,
    /// Drop probability at the maximum threshold.
    pub max_drop_probability: f64,
    /// Weight of the exponential moving average of the queue length.
    pub queue_weight: f64,
    /// Hard limit on the instantaneous queue length.
    pub limit_packets: usize,
    /// Gentle RED: between `max_threshold` and `2 * max_threshold` the drop
    /// probability ramps linearly from `max_drop_probability` to 1 instead of
    /// jumping straight to certain drop.
    pub gentle: bool,
}

impl RedConfig {
    /// Reasonable defaults given a hard queue limit: thresholds at 20 % and
    /// 60 % of the limit, 10 % max drop probability, w_q = 0.002.
    pub fn for_limit(limit_packets: usize) -> Self {
        let limit = limit_packets.max(5) as f64;
        RedConfig {
            min_threshold: limit * 0.2,
            max_threshold: limit * 0.6,
            max_drop_probability: 0.1,
            queue_weight: 0.002,
            limit_packets,
            gentle: false,
        }
    }

    /// The marking (early-drop) probability for a given average queue size,
    /// before count-since-last-drop spreading is applied.  This is the curve
    /// the gentle-RED boundary tests pin: 0 up to `min_threshold`, linear to
    /// `max_drop_probability` at `max_threshold`, then either 1 (classic) or
    /// a linear ramp to 1 at `2 * max_threshold` (gentle).
    pub fn mark_probability(&self, avg_queue: f64) -> f64 {
        if avg_queue <= self.min_threshold {
            0.0
        } else if avg_queue < self.max_threshold {
            self.max_drop_probability * (avg_queue - self.min_threshold)
                / (self.max_threshold - self.min_threshold)
        } else if self.gentle && avg_queue < 2.0 * self.max_threshold {
            self.max_drop_probability
                + (1.0 - self.max_drop_probability) * (avg_queue - self.max_threshold)
                    / self.max_threshold
        } else {
            1.0
        }
    }

    /// Panics on invalid parameters (see [`QueueDiscipline::validate`]).
    pub fn validate(&self) {
        assert!(
            self.min_threshold.is_finite()
                && self.max_threshold.is_finite()
                && self.min_threshold > 0.0
                && self.min_threshold < self.max_threshold,
            "RED thresholds must be finite with 0 < min < max, got min {} max {}",
            self.min_threshold,
            self.max_threshold
        );
        assert!(
            self.max_drop_probability.is_finite()
                && self.max_drop_probability > 0.0
                && self.max_drop_probability <= 1.0,
            "RED max drop probability must be a finite value in (0, 1], got {}",
            self.max_drop_probability
        );
        assert!(
            self.queue_weight.is_finite() && self.queue_weight > 0.0 && self.queue_weight <= 1.0,
            "RED queue weight must be a finite value in (0, 1], got {}",
            self.queue_weight
        );
        assert!(
            self.limit_packets >= 1,
            "RED queue limit must be at least one packet, got {}",
            self.limit_packets
        );
    }
}

/// CoDel parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CoDelConfig {
    /// Acceptable standing sojourn time in seconds (classically 5 ms).
    pub target: f64,
    /// Sliding window over which the sojourn time must stay above `target`
    /// before dropping starts, in seconds (classically 100 ms).
    pub interval: f64,
    /// Hard limit on the instantaneous queue length.
    pub limit_packets: usize,
}

impl CoDelConfig {
    /// The standard 5 ms target / 100 ms interval with the given hard limit.
    pub fn for_limit(limit_packets: usize) -> Self {
        CoDelConfig {
            target: 0.005,
            interval: 0.1,
            limit_packets,
        }
    }

    /// Panics on invalid parameters (see [`QueueDiscipline::validate`]).
    pub fn validate(&self) {
        assert!(
            self.target.is_finite() && self.target > 0.0,
            "CoDel target must be a positive, finite number of seconds, got {}",
            self.target
        );
        assert!(
            self.interval.is_finite() && self.interval > 0.0,
            "CoDel interval must be a positive, finite number of seconds, got {}",
            self.interval
        );
        assert!(
            self.limit_packets >= 1,
            "CoDel queue limit must be at least one packet, got {}",
            self.limit_packets
        );
    }
}

/// Outcome of offering a packet to a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueResult {
    /// Packet was accepted and queued.
    Queued,
    /// Packet was dropped because the queue is full.
    DroppedFull,
    /// Packet was dropped by RED's early detection.
    DroppedEarly,
}

/// A router queue instance.
#[derive(Debug)]
pub struct Queue {
    discipline: QueueDiscipline,
    packets: VecDeque<Packet>,
    /// Enqueue timestamps, parallel to `packets` (CoDel's sojourn clock; kept
    /// for every discipline so switching disciplines cannot skew bookkeeping).
    arrivals: VecDeque<SimTime>,
    bytes: u64,
    avg_queue: f64,
    idle_since: Option<SimTime>,
    red_count_since_drop: u64,
    /// CoDel: when the sojourn time first rose above target, plus interval.
    codel_first_above: Option<SimTime>,
    /// CoDel: currently in the dropping state.
    codel_dropping: bool,
    /// CoDel: drops since entering the dropping state.
    codel_count: u64,
    /// CoDel: time of the next scheduled drop while in the dropping state.
    codel_drop_next: SimTime,
}

impl Queue {
    /// Creates an empty queue with the given discipline.
    ///
    /// Panics if the discipline's parameters are invalid — see
    /// [`QueueDiscipline::validate`].
    pub fn new(discipline: QueueDiscipline) -> Self {
        discipline.validate();
        Queue {
            discipline,
            packets: VecDeque::new(),
            arrivals: VecDeque::new(),
            bytes: 0,
            avg_queue: 0.0,
            idle_since: Some(SimTime::ZERO),
            red_count_since_drop: 0,
            codel_first_above: None,
            codel_dropping: false,
            codel_count: 0,
            codel_drop_next: SimTime::ZERO,
        }
    }

    /// Number of queued packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True if no packet is queued.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Total queued bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Offers a packet to the queue.  `uniform` must be a fresh uniform random
    /// sample in `[0, 1)` (used only by RED).
    pub fn enqueue(&mut self, packet: Packet, now: SimTime, uniform: f64) -> EnqueueResult {
        // Drop-tail and CoDel only enforce the hard limit at enqueue.
        let limit = match &self.discipline {
            QueueDiscipline::DropTail { limit_packets } => *limit_packets,
            QueueDiscipline::CoDel(cfg) => cfg.limit_packets,
            QueueDiscipline::Red(cfg) => {
                let cfg = cfg.clone();
                return self.enqueue_red(packet, now, uniform, &cfg);
            }
        };
        if self.packets.len() >= limit {
            return EnqueueResult::DroppedFull;
        }
        self.accept(packet, now);
        EnqueueResult::Queued
    }

    fn accept(&mut self, packet: Packet, now: SimTime) {
        self.bytes += u64::from(packet.size);
        self.packets.push_back(packet);
        self.arrivals.push_back(now);
    }

    fn enqueue_red(
        &mut self,
        packet: Packet,
        now: SimTime,
        uniform: f64,
        cfg: &RedConfig,
    ) -> EnqueueResult {
        // Update the average queue size, accounting for idle time by decaying
        // the average as if empty slots had been observed.
        let current = self.packets.len() as f64;
        if let Some(idle_start) = self.idle_since.take() {
            // Approximate the number of "small packets" that could have been
            // transmitted while idle; one slot per millisecond is a common
            // simplification that keeps the average responsive after idling.
            let idle = now.saturating_since(idle_start);
            let slots = (idle / 0.001).min(10_000.0);
            self.avg_queue *= (1.0 - cfg.queue_weight).powf(slots);
        }
        self.avg_queue = (1.0 - cfg.queue_weight) * self.avg_queue + cfg.queue_weight * current;

        if self.packets.len() >= cfg.limit_packets {
            self.red_count_since_drop = 0;
            return EnqueueResult::DroppedFull;
        }
        let base = cfg.mark_probability(self.avg_queue);
        if base >= 1.0 {
            self.red_count_since_drop = 0;
            return EnqueueResult::DroppedEarly;
        }
        if base > 0.0 {
            // Spread drops out: probability increases with the count of
            // packets accepted since the last drop.
            let count = self.red_count_since_drop as f64;
            let p = (base / (1.0 - count * base).max(1e-6)).clamp(0.0, 1.0);
            if uniform < p {
                self.red_count_since_drop = 0;
                return EnqueueResult::DroppedEarly;
            }
            self.red_count_since_drop += 1;
        } else {
            self.red_count_since_drop = 0;
        }
        self.accept(packet, now);
        EnqueueResult::Queued
    }

    /// Removes the packet at the head of the queue, recording when the queue
    /// goes idle (needed by RED's average).
    pub fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        let pkt = self.packets.pop_front();
        self.arrivals.pop_front();
        if let Some(ref p) = pkt {
            self.bytes -= u64::from(p.size);
        }
        if self.packets.is_empty() {
            self.idle_since = Some(now);
        }
        pkt
    }

    /// Removes the next packet to transmit, applying CoDel's sojourn-time
    /// drop logic when the discipline is CoDel (other disciplines never drop
    /// at dequeue).  Returns the packet, if any, together with how many
    /// packets were dropped getting to it.
    pub fn dequeue_tx(&mut self, now: SimTime) -> (Option<Packet>, u64) {
        let cfg = match &self.discipline {
            QueueDiscipline::CoDel(cfg) => cfg.clone(),
            _ => return (self.dequeue(now), 0),
        };
        let mut dropped = 0u64;
        let (mut pkt, mut ok_to_drop) = self.codel_head(now, &cfg);
        if self.codel_dropping {
            if !ok_to_drop {
                self.codel_dropping = false;
            } else {
                while self.codel_dropping && pkt.is_some() && now >= self.codel_drop_next {
                    dropped += 1;
                    self.codel_count += 1;
                    let (next, ok) = self.codel_head(now, &cfg);
                    pkt = next;
                    ok_to_drop = ok;
                    if ok_to_drop {
                        self.codel_drop_next += cfg.interval / (self.codel_count as f64).sqrt();
                    } else {
                        self.codel_dropping = false;
                    }
                }
            }
        } else if ok_to_drop {
            // Enter the dropping state: drop the head, and resume the drop
            // count from where the last dropping episode left off if that
            // episode ended less than an interval ago (the control law's
            // memory that keeps the drop rate from resetting on every burst).
            dropped += 1;
            let (next, _) = self.codel_head(now, &cfg);
            pkt = next;
            self.codel_dropping = true;
            let recently = now.saturating_since(self.codel_drop_next) < cfg.interval;
            self.codel_count = if recently && self.codel_count > 2 {
                self.codel_count - 2
            } else {
                1
            };
            self.codel_drop_next = now + cfg.interval / (self.codel_count as f64).sqrt();
        }
        (pkt, dropped)
    }

    /// CoDel's `dodequeue`: pops the head and reports whether it is eligible
    /// for dropping (sojourn above target for a full interval).
    fn codel_head(&mut self, now: SimTime, cfg: &CoDelConfig) -> (Option<Packet>, bool) {
        let Some(pkt) = self.packets.pop_front() else {
            self.codel_first_above = None;
            self.idle_since = Some(now);
            return (None, false);
        };
        self.bytes -= u64::from(pkt.size);
        let arrival = self.arrivals.pop_front().unwrap_or(now);
        if self.packets.is_empty() {
            self.idle_since = Some(now);
        }
        let sojourn = now.saturating_since(arrival);
        if sojourn < cfg.target {
            self.codel_first_above = None;
            (Some(pkt), false)
        } else {
            match self.codel_first_above {
                None => {
                    self.codel_first_above = Some(now + cfg.interval);
                    (Some(pkt), false)
                }
                Some(first_above) => (Some(pkt), now >= first_above),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Address, Dest, FlowId, NodeId, Payload, Port};
    use std::panic::catch_unwind;

    fn pkt(size: u32) -> Packet {
        let a = Address::new(NodeId(0), Port(0));
        Packet::new(a, Dest::Unicast(a), size, FlowId(0), Payload::empty())
    }

    #[test]
    fn drop_tail_respects_limit() {
        let mut q = Queue::new(QueueDiscipline::drop_tail(3));
        for i in 0..3 {
            assert_eq!(
                q.enqueue(pkt(100), SimTime::from_secs(i as f64), 0.5),
                EnqueueResult::Queued
            );
        }
        assert_eq!(
            q.enqueue(pkt(100), SimTime::from_secs(3.0), 0.5),
            EnqueueResult::DroppedFull
        );
        assert_eq!(q.len(), 3);
        assert_eq!(q.bytes(), 300);
    }

    #[test]
    fn drop_tail_fifo_order() {
        let mut q = Queue::new(QueueDiscipline::drop_tail(10));
        for size in [100, 200, 300] {
            q.enqueue(pkt(size), SimTime::ZERO, 0.5);
        }
        assert_eq!(q.dequeue(SimTime::ZERO).unwrap().size, 100);
        assert_eq!(q.dequeue(SimTime::ZERO).unwrap().size, 200);
        assert_eq!(q.dequeue(SimTime::ZERO).unwrap().size, 300);
        assert!(q.dequeue(SimTime::ZERO).is_none());
        assert!(q.is_empty());
        assert_eq!(q.bytes(), 0);
    }

    #[test]
    fn red_accepts_when_average_low() {
        let mut q = Queue::new(QueueDiscipline::red(100));
        // Few packets: average stays below min threshold, nothing dropped.
        for i in 0..5 {
            assert_eq!(
                q.enqueue(pkt(100), SimTime::from_secs(i as f64 * 0.01), 0.99),
                EnqueueResult::Queued
            );
        }
    }

    #[test]
    fn red_drops_under_sustained_load() {
        let cfg = RedConfig {
            min_threshold: 2.0,
            max_threshold: 5.0,
            max_drop_probability: 0.5,
            queue_weight: 0.5, // aggressive averaging so the test converges fast
            limit_packets: 50,
            gentle: false,
        };
        let mut q = Queue::new(QueueDiscipline::Red(cfg));
        let mut dropped_early = 0;
        for i in 0..100 {
            let r = q.enqueue(pkt(100), SimTime::from_secs(i as f64 * 0.001), 0.3);
            if r == EnqueueResult::DroppedEarly {
                dropped_early += 1;
            }
        }
        assert!(
            dropped_early > 0,
            "RED should have dropped some packets early"
        );
    }

    #[test]
    fn red_hard_limit_enforced() {
        let cfg = RedConfig {
            min_threshold: 1000.0, // never early-drop
            max_threshold: 2000.0,
            max_drop_probability: 0.1,
            queue_weight: 0.002,
            limit_packets: 4,
            gentle: false,
        };
        let mut q = Queue::new(QueueDiscipline::Red(cfg));
        let mut full = 0;
        for _ in 0..10 {
            if q.enqueue(pkt(100), SimTime::ZERO, 0.99) == EnqueueResult::DroppedFull {
                full += 1;
            }
        }
        assert_eq!(q.len(), 4);
        assert_eq!(full, 6);
    }

    #[test]
    fn red_average_decays_while_idle() {
        let cfg = RedConfig {
            min_threshold: 2.0,
            max_threshold: 4.0,
            max_drop_probability: 1.0,
            queue_weight: 0.5,
            limit_packets: 50,
            gentle: false,
        };
        let mut q = Queue::new(QueueDiscipline::Red(cfg.clone()));
        // Drive the average up.
        for i in 0..20 {
            q.enqueue(pkt(100), SimTime::from_secs(i as f64 * 1e-4), 0.99);
        }
        let avg_before = q.avg_queue;
        // Drain and let it idle a long time; the next enqueue should see a
        // much smaller average.
        while q.dequeue(SimTime::from_secs(0.01)).is_some() {}
        q.enqueue(pkt(100), SimTime::from_secs(10.0), 0.99);
        assert!(q.avg_queue < avg_before * 0.5);
    }

    /// The gentle-RED marking curve at its boundary average-queue values:
    /// zero up to `min_th`, linear to `max_p` at `max_th`, then a ramp to 1
    /// at `2 * max_th` (gentle) versus an immediate jump to 1 (classic).
    #[test]
    fn gentle_red_marking_curve_boundaries() {
        let classic = RedConfig {
            min_threshold: 10.0,
            max_threshold: 30.0,
            max_drop_probability: 0.1,
            queue_weight: 0.002,
            limit_packets: 100,
            gentle: false,
        };
        let gentle = RedConfig {
            gentle: true,
            ..classic.clone()
        };

        // Below and at min_threshold: never mark.
        assert_eq!(classic.mark_probability(0.0), 0.0);
        assert_eq!(classic.mark_probability(10.0), 0.0);
        assert_eq!(gentle.mark_probability(10.0), 0.0);

        // Midpoint of [min, max): half of max_p, identical in both variants.
        assert!((classic.mark_probability(20.0) - 0.05).abs() < 1e-12);
        assert!((gentle.mark_probability(20.0) - 0.05).abs() < 1e-12);

        // At max_threshold: classic jumps to certain drop, gentle starts the
        // ramp at exactly max_p.
        assert_eq!(classic.mark_probability(30.0), 1.0);
        assert!((gentle.mark_probability(30.0) - 0.1).abs() < 1e-12);

        // Midpoint of the gentle ramp [max, 2*max): max_p + (1 - max_p)/2.
        assert!((gentle.mark_probability(45.0) - 0.55).abs() < 1e-12);

        // At and beyond 2 * max_threshold both variants drop with certainty.
        assert_eq!(gentle.mark_probability(60.0), 1.0);
        assert_eq!(gentle.mark_probability(90.0), 1.0);
        assert_eq!(classic.mark_probability(60.0), 1.0);
    }

    /// Gentle RED keeps accepting (probabilistically) in the band where
    /// classic RED force-drops every arrival.
    #[test]
    fn gentle_red_softens_the_band_above_max_threshold() {
        let mk = |gentle: bool| RedConfig {
            min_threshold: 1.0,
            max_threshold: 3.0,
            max_drop_probability: 0.1,
            queue_weight: 1.0, // avg == instantaneous for the test
            limit_packets: 100,
            gentle,
        };
        let drive = |cfg: RedConfig| {
            let mut q = Queue::new(QueueDiscipline::Red(cfg));
            let mut accepted = 0;
            // Instantaneous queue (== avg with w_q = 1) sits in (max, 2*max)
            // once 4+ packets are in; a high uniform means gentle RED keeps
            // accepting while classic RED force-drops.
            for i in 0..12 {
                if q.enqueue(pkt(100), SimTime::from_secs(i as f64 * 1e-4), 0.97)
                    == EnqueueResult::Queued
                {
                    accepted += 1;
                }
            }
            accepted
        };
        let classic_accepted = drive(mk(false));
        let gentle_accepted = drive(mk(true));
        assert!(
            gentle_accepted > classic_accepted,
            "gentle RED must accept more in the ramp band: classic {classic_accepted}, \
             gentle {gentle_accepted}"
        );
    }

    #[test]
    fn codel_leaves_short_sojourns_alone() {
        let mut q = Queue::new(QueueDiscipline::codel(100));
        let mut t = SimTime::ZERO;
        for _ in 0..50 {
            q.enqueue(pkt(100), t, 0.5);
            // Dequeued 1 ms later: well under the 5 ms target.
            t += 0.001;
            let (pkt, dropped) = q.dequeue_tx(t);
            assert!(pkt.is_some());
            assert_eq!(dropped, 0);
        }
    }

    #[test]
    fn codel_drops_on_persistent_standing_queue() {
        let mut q = Queue::new(QueueDiscipline::codel(1000));
        // A standing queue: every packet waits 50 ms (10x target) before
        // dequeue, sustained for several intervals.
        let mut dropped_total = 0u64;
        let mut delivered = 0u64;
        let mut t = SimTime::ZERO;
        for i in 0..400 {
            q.enqueue(pkt(100), t, 0.5);
            if i >= 25 {
                // Keep ~25 packets of backlog: dequeue one per enqueue.
                let (pkt, dropped) = q.dequeue_tx(t + 0.002);
                dropped_total += dropped;
                if pkt.is_some() {
                    delivered += 1;
                }
            }
            t += 0.002;
        }
        assert!(
            dropped_total > 0,
            "CoDel must drop once the sojourn time stays above target for an interval"
        );
        assert!(
            delivered > dropped_total,
            "CoDel must not starve the queue: delivered {delivered}, dropped {dropped_total}"
        );
    }

    #[test]
    fn codel_hard_limit_enforced() {
        let mut q = Queue::new(QueueDiscipline::codel(4));
        let mut full = 0;
        for _ in 0..10 {
            if q.enqueue(pkt(100), SimTime::ZERO, 0.5) == EnqueueResult::DroppedFull {
                full += 1;
            }
        }
        assert_eq!(q.len(), 4);
        assert_eq!(full, 6);
    }

    /// Every invalid queue parameter must be rejected at construction with a
    /// clear panic — the `set_link_loss`-style validation audit.
    #[test]
    fn invalid_queue_parameters_are_rejected() {
        let check = |discipline: QueueDiscipline, needle: &str| {
            let err = catch_unwind(|| Queue::new(discipline))
                .expect_err("invalid queue parameters must panic");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default();
            assert!(
                msg.contains(needle),
                "panic message {msg:?} should mention {needle:?}"
            );
        };

        check(
            QueueDiscipline::drop_tail(0),
            "drop-tail queue limit must be at least one packet",
        );

        let red = |f: fn(&mut RedConfig)| {
            let mut cfg = RedConfig::for_limit(100);
            f(&mut cfg);
            QueueDiscipline::Red(cfg)
        };
        // Inverted thresholds.
        check(
            red(|c| {
                c.min_threshold = 60.0;
                c.max_threshold = 20.0;
            }),
            "RED thresholds must be finite with 0 < min < max",
        );
        // NaN threshold.
        check(
            red(|c| c.min_threshold = f64::NAN),
            "RED thresholds must be finite with 0 < min < max",
        );
        // Out-of-range max drop probability.
        check(
            red(|c| c.max_drop_probability = 1.5),
            "RED max drop probability must be a finite value in (0, 1]",
        );
        check(
            red(|c| c.max_drop_probability = 0.0),
            "RED max drop probability must be a finite value in (0, 1]",
        );
        // Bad queue weight.
        check(
            red(|c| c.queue_weight = f64::NAN),
            "RED queue weight must be a finite value in (0, 1]",
        );
        check(
            red(|c| c.queue_weight = 0.0),
            "RED queue weight must be a finite value in (0, 1]",
        );
        check(
            red(|c| c.limit_packets = 0),
            "RED queue limit must be at least one packet",
        );

        let codel = |f: fn(&mut CoDelConfig)| {
            let mut cfg = CoDelConfig::for_limit(100);
            f(&mut cfg);
            QueueDiscipline::CoDel(cfg)
        };
        // Non-positive or NaN target / interval.
        check(
            codel(|c| c.target = 0.0),
            "CoDel target must be a positive, finite number of seconds",
        );
        check(
            codel(|c| c.target = f64::NAN),
            "CoDel target must be a positive, finite number of seconds",
        );
        check(
            codel(|c| c.interval = -0.1),
            "CoDel interval must be a positive, finite number of seconds",
        );
        check(
            codel(|c| c.limit_packets = 0),
            "CoDel queue limit must be at least one packet",
        );
    }
}
