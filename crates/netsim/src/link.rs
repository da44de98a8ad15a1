//! Unidirectional links with bandwidth, propagation delay, a queue discipline
//! and an optional random-loss model.
//!
//! Duplex connectivity is modelled as two independent unidirectional links,
//! mirroring how the evaluation topologies (paper Figure 8, the star
//! topologies of Sections 4.2–4.3, the tail circuits of Figure 10) are
//! specified: per-direction bandwidth, delay and loss.
//!
//! A **drop-tail** link is *eventless*: a FIFO transmits packet `i` from
//! `max(offer time, end of packet i − 1)` (Lindley's recursion), so
//! [`Link::offer`] fixes the packet's whole fate and hands it straight back
//! as [`LinkAccept::Arrives`].  Such a link never holds a packet, only the
//! busy horizon and the start times of the packets still waiting — its queue
//! occupancy.  **RED and CoDel** links hold their packets, because those
//! disciplines decide from the real dequeue instants: they answer
//! [`LinkAccept::Accepted`] and the caller drives one [`Link::tx_complete`]
//! per packet.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::packet::{LinkId, NodeId, Packet};
use crate::queue::{EnqueueResult, Queue, QueueDiscipline};
use crate::time::SimTime;

/// Random loss applied to packets traversing a link, independent of queueing.
///
/// Used for the star-topology experiments where the paper configures links
/// with fixed loss rates (0.1 %, 0.5 %, 2.5 %, 12.5 %) and for the lossy
/// feedback paths of Appendix D.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// No random loss; only queue overflows drop packets.
    None,
    /// Each packet is dropped independently with probability `p`.
    Bernoulli {
        /// Drop probability in `[0, 1]`.
        p: f64,
    },
}

impl LossModel {
    /// Returns true if a packet should be dropped, given a uniform sample.
    pub fn drops(&self, uniform: f64) -> bool {
        match self {
            LossModel::None => false,
            LossModel::Bernoulli { p } => uniform < *p,
        }
    }

    /// Panics (with the offending value) unless the model's parameters are
    /// valid — finite drop probability within `[0, 1]`.
    pub fn validate(&self) {
        if let LossModel::Bernoulli { p } = self {
            assert!(
                p.is_finite() && (0.0..=1.0).contains(p),
                "Bernoulli loss probability must be a finite value in [0, 1], got {p}"
            );
        }
    }
}

/// Per-link counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets accepted into the queue.
    pub enqueued: u64,
    /// Packets dropped by the queue discipline: full queue, RED early drop,
    /// or CoDel sojourn-time drop at dequeue.
    pub dropped_queue: u64,
    /// Packets dropped by the random loss model.
    pub dropped_loss: u64,
    /// Packets certain to reach the downstream node, counted the moment
    /// that becomes certain: at acceptance on a drop-tail link (so
    /// `delivered == enqueued` there, even while the packet is still on the
    /// wire), at the end of transmission on a RED or CoDel link (CoDel can
    /// still drop a queued packet at dequeue).
    pub delivered: u64,
    /// Bytes of the packets counted in `delivered`.
    pub delivered_bytes: u64,
}

/// A unidirectional link.
#[derive(Debug)]
pub struct Link {
    /// This link's id.
    pub id: LinkId,
    /// Upstream node.
    pub from: NodeId,
    /// Downstream node.
    pub to: NodeId,
    /// Capacity in bytes per second.
    pub bandwidth: f64,
    /// Propagation delay in seconds.
    pub delay: f64,
    /// Random loss model applied at ingress.
    pub loss: LossModel,
    service: Service,
    /// This link's private RNG stream for loss and RED draws.  Each link is
    /// seeded independently (splitmix64 over the simulation seed and the
    /// link id), so one link's draw sequence never shifts when other links
    /// or agents are added to the scenario.
    rng: SmallRng,
    /// Counters.
    pub stats: LinkStats,
}

/// How a link serves its queue (see the module docs).
#[derive(Debug)]
enum Service {
    DropTail {
        limit_packets: usize,
        /// End of the last accepted packet's transmission.
        busy_until: SimTime,
        /// Transmission start times (ascending) of accepted packets that had
        /// not begun transmitting at the last offer: the queue occupancy.
        /// Entries `<= now` are stale and popped by the next offer.
        pending_starts: VecDeque<SimTime>,
    },
    /// RED and CoDel; the queue is boxed so that the common drop-tail link
    /// does not carry the AQM state.
    PerPacket {
        queue: Box<Queue>,
        /// Packet currently being serialized onto the wire, if any.
        in_flight: Option<Packet>,
    },
}

/// What a link did with a packet offered to it.
#[derive(Debug, Clone)]
pub enum LinkAccept {
    /// Drop-tail links: the packet was accepted and comes straight back with
    /// the instant it reaches the downstream node (end of its serialization
    /// plus [`Link::delay`]).
    Arrives {
        /// The packet offered.
        packet: Packet,
        /// When it arrives at [`Link::to`].
        arrives_at: SimTime,
    },
    /// RED and CoDel links: the packet was queued (or started transmitting);
    /// if transmission started, the completion time is returned so the
    /// caller can schedule a `TxComplete` event.
    Accepted {
        /// `Some(t)` if the link was idle and serialization of this packet
        /// completes at `t`.
        tx_complete_at: Option<SimTime>,
    },
    /// The packet was dropped (loss model or full queue).
    Dropped,
}

impl Link {
    /// Creates an idle link; `seed` initialises the link's private RNG
    /// stream for loss and RED draws.
    ///
    /// Panics unless bandwidth and delay are positive and finite (the check
    /// `Simulator::add_link` relies on): a zero-bandwidth link never
    /// transmits and a zero-delay link has a degenerate zero routing metric.
    pub fn new(
        id: LinkId,
        from: NodeId,
        to: NodeId,
        bandwidth: f64,
        delay: f64,
        discipline: QueueDiscipline,
        seed: u64,
    ) -> Self {
        assert!(
            bandwidth.is_finite() && bandwidth > 0.0,
            "link bandwidth must be a positive, finite number of bytes/s, got {bandwidth}"
        );
        assert!(
            delay.is_finite() && delay > 0.0,
            "link delay must be a positive, finite number of seconds, got {delay}"
        );
        discipline.validate();
        let service = match discipline {
            QueueDiscipline::DropTail { limit_packets } => Service::DropTail {
                limit_packets,
                busy_until: SimTime::ZERO,
                pending_starts: VecDeque::new(),
            },
            aqm => Service::PerPacket {
                queue: Box::new(Queue::new(aqm)),
                in_flight: None,
            },
        };
        Link {
            id,
            from,
            to,
            bandwidth,
            delay,
            loss: LossModel::None,
            service,
            rng: SmallRng::seed_from_u64(seed),
            stats: LinkStats::default(),
        }
    }

    /// Serialization time of a packet of `size` bytes on this link.
    pub fn tx_time(&self, size: u32) -> f64 {
        f64::from(size) / self.bandwidth
    }

    /// Number of packets waiting at `now` for their transmission to start
    /// (not counting the one in flight).
    pub fn queue_len(&self, now: SimTime) -> usize {
        match &self.service {
            Service::DropTail { pending_starts, .. } => {
                pending_starts.len() - pending_starts.partition_point(|&s| s <= now)
            }
            Service::PerPacket { queue, .. } => queue.len(),
        }
    }

    /// Offers a packet to this link, drawing any needed loss/RED samples
    /// from the link's own deterministic RNG stream.
    pub fn offer(&mut self, packet: Packet, now: SimTime) -> LinkAccept {
        let loss_uniform: f64 = self.rng.gen();
        // The queue sample is drawn up front (whether or not the packet ends
        // up queued) so a link's draw sequence depends only on how many
        // packets were offered to it, not on its queue occupancy history.
        let queue_uniform: f64 = self.rng.gen();
        self.offer_sampled(packet, now, loss_uniform, queue_uniform)
    }

    /// [`Link::offer`] with explicit uniform samples in `[0, 1)` for the
    /// loss model and RED — the deterministic core, also used by tests that
    /// need to force a drop or an acceptance.
    pub fn offer_sampled(
        &mut self,
        packet: Packet,
        now: SimTime,
        loss_uniform: f64,
        queue_uniform: f64,
    ) -> LinkAccept {
        if self.loss.drops(loss_uniform) {
            self.stats.dropped_loss += 1;
            return LinkAccept::Dropped;
        }
        let tx_time = self.tx_time(packet.size);
        match &mut self.service {
            Service::DropTail {
                limit_packets,
                busy_until,
                pending_starts,
            } => {
                // A packet stops occupying a queue slot the instant its
                // transmission starts — including an offer at exactly that
                // instant, which therefore sees the slot as free.
                while pending_starts.front().is_some_and(|&s| s <= now) {
                    pending_starts.pop_front();
                }
                let start = if *busy_until <= now {
                    now
                } else if pending_starts.len() >= *limit_packets {
                    self.stats.dropped_queue += 1;
                    return LinkAccept::Dropped;
                } else {
                    pending_starts.push_back(*busy_until);
                    *busy_until
                };
                let done = start + tx_time;
                *busy_until = done;
                self.stats.enqueued += 1;
                self.stats.delivered += 1;
                self.stats.delivered_bytes += u64::from(packet.size);
                LinkAccept::Arrives {
                    packet,
                    arrives_at: done + self.delay,
                }
            }
            Service::PerPacket { queue, in_flight } => {
                let tx_complete_at = if in_flight.is_none() {
                    // Link idle: begin transmitting immediately, bypassing the queue.
                    *in_flight = Some(packet);
                    Some(now + tx_time)
                } else if queue.enqueue(packet, now, queue_uniform) == EnqueueResult::Queued {
                    None
                } else {
                    self.stats.dropped_queue += 1;
                    return LinkAccept::Dropped;
                };
                self.stats.enqueued += 1;
                LinkAccept::Accepted { tx_complete_at }
            }
        }
    }

    /// Completes the transmission of the in-flight packet of a RED or CoDel
    /// link and starts the next one (drop-tail links answer
    /// [`LinkAccept::Arrives`] and never get here).
    ///
    /// The `(packet, completion_time)` pair pushed onto `out` is the packet
    /// whose serialization finishes now — the caller delivers it to the
    /// downstream node after [`Link::delay`].  Returns the time of the next
    /// `TxComplete` event to schedule, if the link stays busy.
    pub fn tx_complete(
        &mut self,
        now: SimTime,
        out: &mut Vec<(Packet, SimTime)>,
    ) -> Option<SimTime> {
        let Service::PerPacket { queue, in_flight } = &mut self.service else {
            panic!("tx_complete on a drop-tail link, which schedules no transmission events");
        };
        if let Some(done) = in_flight.take() {
            self.stats.delivered += 1;
            self.stats.delivered_bytes += u64::from(done.size);
            out.push((done, now));
        }
        // CoDel may drop packets at dequeue based on their sojourn time.
        let (next, dropped) = queue.dequeue_tx(now);
        self.stats.dropped_queue += dropped;
        let size = next.as_ref()?.size;
        *in_flight = next;
        Some(now + self.tx_time(size))
    }

    /// True if a packet is being serialized at `now`.
    pub fn is_busy(&self, now: SimTime) -> bool {
        match &self.service {
            Service::DropTail { busy_until, .. } => now < *busy_until,
            Service::PerPacket { in_flight, .. } => in_flight.is_some(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Address, Dest, FlowId, Payload, Port};
    use proptest::prelude::*;

    fn pkt(size: u32) -> Packet {
        let a = Address::new(NodeId(0), Port(0));
        Packet::new(a, Dest::Unicast(a), size, FlowId(0), Payload::empty())
    }

    fn link(bw: f64, delay: f64, qlen: usize) -> Link {
        Link::new(
            LinkId(0),
            NodeId(0),
            NodeId(1),
            bw,
            delay,
            QueueDiscipline::drop_tail(qlen),
            1,
        )
    }

    /// Offers `size` bytes at `at` seconds with samples that never drop;
    /// returns the arrival time downstream, or `None` if the queue was full.
    fn arrival(l: &mut Link, size: u32, at: f64) -> Option<SimTime> {
        match l.offer_sampled(pkt(size), SimTime::from_secs(at), 0.9, 0.9) {
            LinkAccept::Arrives { packet, arrives_at } => {
                assert_eq!(packet.size, size);
                Some(arrives_at)
            }
            LinkAccept::Dropped => None,
            other => panic!("drop-tail links never answer {other:?}"),
        }
    }

    /// `secs + delay`, summed in the order the link sums it.
    fn at(secs: f64, delay: f64) -> Option<SimTime> {
        Some(SimTime::from_secs(secs) + delay)
    }

    #[test]
    fn idle_link_transmits_immediately() {
        let mut l = link(1000.0, 0.01, 10);
        // 500 B at 1 kB/s: serialized by t = 0.5, then 10 ms of propagation.
        assert_eq!(arrival(&mut l, 500, 0.0), at(0.5, 0.01));
        assert!(l.is_busy(SimTime::ZERO));
        assert!(!l.is_busy(SimTime::from_secs(0.5)));
    }

    #[test]
    fn busy_link_queues_and_chains_transmissions() {
        let mut l = link(1000.0, 0.001, 10);
        // The first packet completes at t = 1.0; the second waits for it,
        // starts then and takes 0.5 s.
        assert_eq!(arrival(&mut l, 1000, 0.0), at(1.0, 0.001));
        assert_eq!(arrival(&mut l, 500, 0.0), at(1.5, 0.001));
        assert_eq!(l.queue_len(SimTime::ZERO), 1);
        assert_eq!(l.queue_len(SimTime::from_secs(1.0)), 0);
        assert!(l.is_busy(SimTime::from_secs(1.2)));
        assert!(!l.is_busy(SimTime::from_secs(1.5)));
        // Both deliveries were certain the moment the packets were accepted.
        assert_eq!(l.stats.enqueued, 2);
        assert_eq!(l.stats.delivered, 2);
        assert_eq!(l.stats.delivered_bytes, 1500);
    }

    #[test]
    fn queued_packets_occupy_slots_until_their_transmission_starts() {
        // Limit 2: one in flight (free), two queued.
        let mut l = link(1000.0, 0.001, 2);
        assert_eq!(arrival(&mut l, 1000, 0.0), at(1.0, 0.001)); // in flight
        assert_eq!(arrival(&mut l, 1000, 0.0), at(2.0, 0.001)); // starts t=1
        assert_eq!(arrival(&mut l, 1000, 0.0), at(3.0, 0.001)); // starts t=2
        assert_eq!(l.queue_len(SimTime::ZERO), 2);
        // At t=1.5 the second packet is transmitting and the third still
        // waits: exactly one slot is occupied, so one more offer fits and a
        // second one overflows — the same decisions the per-packet path
        // makes.
        assert_eq!(l.queue_len(SimTime::from_secs(1.5)), 1);
        assert_eq!(arrival(&mut l, 1000, 1.5), at(4.0, 0.001));
        assert_eq!(arrival(&mut l, 1000, 1.5), None);
        // At t=2.5 only the fourth packet (starts t=3) occupies a slot.
        assert_eq!(arrival(&mut l, 1000, 2.5), at(5.0, 0.001));
        assert_eq!(l.queue_len(SimTime::from_secs(2.5)), 2);
        assert_eq!(l.stats.dropped_queue, 1);
    }

    #[test]
    fn red_links_keep_the_per_packet_path() {
        let mut l = Link::new(
            LinkId(0),
            NodeId(0),
            NodeId(1),
            1000.0,
            0.001,
            QueueDiscipline::red(10),
            1,
        );
        l.offer_sampled(pkt(1000), SimTime::ZERO, 0.9, 0.9);
        l.offer_sampled(pkt(500), SimTime::ZERO, 0.9, 0.9);
        l.offer_sampled(pkt(500), SimTime::ZERO, 0.9, 0.9);
        let mut out = Vec::new();
        // One completion per event: the queue drains a packet at a time.
        let next = l.tx_complete(SimTime::from_secs(1.0), &mut out);
        assert_eq!(next.unwrap().as_secs(), 1.5);
        assert_eq!(out.len(), 1);
        out.clear();
        let next = l.tx_complete(SimTime::from_secs(1.5), &mut out);
        assert_eq!(next.unwrap().as_secs(), 2.0);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn codel_links_drop_at_dequeue_and_count_it() {
        // 100 B/s: each 100 B packet takes 1 s to serialize, so queued
        // packets accumulate multi-second sojourn times — far above the 5 ms
        // target — and CoDel starts dropping at dequeue after its 100 ms
        // interval expires.
        let mut l = Link::new(
            LinkId(0),
            NodeId(0),
            NodeId(1),
            100.0,
            0.001,
            QueueDiscipline::codel(50),
            1,
        );
        let mut next_tx = None;
        let mut t = SimTime::ZERO;
        for i in 0..40 {
            t = SimTime::from_secs(i as f64 * 0.5);
            let mut out = Vec::new();
            while let Some(due) = next_tx.filter(|&d| d <= t) {
                next_tx = l.tx_complete(due, &mut out);
            }
            if let LinkAccept::Accepted {
                tx_complete_at: Some(done),
            } = l.offer_sampled(pkt(100), t, 0.9, 0.9)
            {
                next_tx = Some(done);
            }
        }
        assert!(
            l.stats.dropped_queue > 0,
            "CoDel must have dropped packets at dequeue: {:?}",
            l.stats
        );
        assert!(l.stats.delivered > 0);
        // Conservation: every enqueued packet is eventually delivered,
        // dropped at dequeue, or still queued/in flight.
        assert_eq!(
            l.stats.enqueued,
            l.stats.delivered
                + l.stats.dropped_queue
                + l.queue_len(t) as u64
                + u64::from(l.is_busy(t)),
        );
    }

    #[test]
    fn queue_overflow_drops() {
        let mut l = link(1000.0, 0.001, 2);
        assert!(arrival(&mut l, 100, 0.0).is_some()); // in flight
        assert!(arrival(&mut l, 100, 0.0).is_some()); // queued 1
        assert!(arrival(&mut l, 100, 0.0).is_some()); // queued 2
        assert_eq!(arrival(&mut l, 100, 0.0), None);
        assert_eq!(l.stats.dropped_queue, 1);
        assert_eq!(l.stats.enqueued, 3);
    }

    #[test]
    fn bernoulli_loss_drops_based_on_sample() {
        let mut l = link(1000.0, 0.001, 10);
        l.loss = LossModel::Bernoulli { p: 0.25 };
        assert!(matches!(
            l.offer_sampled(pkt(100), SimTime::ZERO, 0.1, 0.9),
            LinkAccept::Dropped
        ));
        assert!(matches!(
            l.offer_sampled(pkt(100), SimTime::ZERO, 0.5, 0.9),
            LinkAccept::Arrives { .. }
        ));
        assert_eq!(l.stats.dropped_loss, 1);
        assert_eq!(l.stats.dropped_queue, 0);
    }

    #[test]
    fn loss_model_none_never_drops() {
        assert!(!LossModel::None.drops(0.0));
        assert!(LossModel::Bernoulli { p: 1.0 }.drops(0.999));
        assert!(!LossModel::Bernoulli { p: 0.0 }.drops(0.0001));
    }

    #[test]
    fn tx_time_scales_with_size_and_bandwidth() {
        let l = link(1_000_000.0, 0.001, 10);
        assert_eq!(l.tx_time(1_000_000), 1.0);
        assert_eq!(l.tx_time(500_000), 0.5);
    }

    /// The per-packet reference for the eventless drop-tail path: the same
    /// discipline served the way RED and CoDel links are served — packets
    /// held in a [`Queue`], one `tx_complete` per packet — with every
    /// completion processed before an offer at the same instant.
    struct PerPacketOracle {
        link: Link,
        next_tx: Option<SimTime>,
        /// Downstream arrival times of the packets transmitted so far.
        arrivals: Vec<SimTime>,
    }

    impl PerPacketOracle {
        fn new(bandwidth: f64, delay: f64, limit: usize) -> Self {
            let mut link = link(bandwidth, delay, limit);
            link.service = Service::PerPacket {
                queue: Box::new(Queue::new(QueueDiscipline::drop_tail(limit))),
                in_flight: None,
            };
            PerPacketOracle {
                link,
                next_tx: None,
                arrivals: Vec::new(),
            }
        }

        fn complete_until(&mut self, now: SimTime) {
            let mut out = Vec::new();
            while let Some(due) = self.next_tx.filter(|&due| due <= now) {
                self.next_tx = self.link.tx_complete(due, &mut out);
            }
            let delay = self.link.delay;
            self.arrivals
                .extend(out.into_iter().map(|(_, done)| done + delay));
        }

        /// True if the packet was accepted.
        fn offer(&mut self, size: u32, now: SimTime) -> bool {
            self.complete_until(now);
            match self.link.offer_sampled(pkt(size), now, 0.9, 0.9) {
                LinkAccept::Accepted { tx_complete_at } => {
                    self.next_tx = self.next_tx.or(tx_complete_at);
                    true
                }
                LinkAccept::Dropped => false,
                other => panic!("the per-packet path never answers {other:?}"),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One random script against both paths: same-instant bursts, gaps
        /// that land exactly on a completion instant (where a queue slot
        /// frees) or one ulp before it, and gaps long enough to idle the
        /// link.  Decisions, arrival times (bit for bit), occupancy and
        /// counters must agree.
        #[test]
        fn eventless_drop_tail_matches_the_per_packet_oracle(
            limit in 1usize..=8,
            bandwidth in 20_000.0f64..200_000.0,
            delay in 0.001f64..0.2,
            gap_kinds in proptest::collection::vec(0u8..4, 60..61),
            gaps in proptest::collection::vec(0.0f64..0.04, 60..61),
            bursts in proptest::collection::vec(
                proptest::collection::vec(40u32..=1500, 1..13),
                1..61,
            ),
        ) {
            let mut new = link(bandwidth, delay, limit);
            let mut oracle = PerPacketOracle::new(bandwidth, delay, limit);
            let mut arrivals = Vec::new();
            let mut now = SimTime::ZERO;
            for (step, burst) in bursts.iter().enumerate() {
                let completion = oracle.next_tx.filter(|&due| due > now);
                now = match (gap_kinds[step], completion) {
                    (0, Some(due)) => due,
                    (1, Some(due)) => {
                        now.max(SimTime::from_secs(f64::from_bits(due.as_secs().to_bits() - 1)))
                    }
                    (2, _) => now + gaps[step] * 20.0,
                    _ => now + gaps[step],
                };
                // Introspection is exact at any instant, not just after an
                // offer has swept the stale start times away.
                oracle.complete_until(now);
                prop_assert_eq!(new.queue_len(now), oracle.link.queue_len(now));
                prop_assert_eq!(new.is_busy(now), oracle.link.is_busy(now));
                for &size in burst {
                    let accepted = oracle.offer(size, now);
                    match new.offer_sampled(pkt(size), now, 0.9, 0.9) {
                        LinkAccept::Arrives { arrives_at, .. } => {
                            prop_assert!(accepted, "step {step}: oracle dropped at {now}");
                            arrivals.push(arrives_at);
                        }
                        LinkAccept::Dropped => {
                            prop_assert!(!accepted, "step {step}: oracle accepted at {now}");
                        }
                        other => panic!("drop-tail links never answer {other:?}"),
                    }
                    prop_assert_eq!(new.queue_len(now), oracle.link.queue_len(now));
                    prop_assert_eq!(new.is_busy(now), oracle.link.is_busy(now));
                }
            }
            oracle.complete_until(SimTime::from_secs(f64::MAX));
            prop_assert_eq!(
                arrivals.iter().map(|t| t.as_secs().to_bits()).collect::<Vec<_>>(),
                oracle.arrivals.iter().map(|t| t.as_secs().to_bits()).collect::<Vec<_>>()
            );
            prop_assert_eq!(new.stats, oracle.link.stats);
            prop_assert!(new.stats.dropped_loss == 0 && new.stats.enqueued > 0);
        }
    }
}
