//! Property test: timer-cancellation churn leaves nothing behind and does
//! not disturb determinism, over randomized star topologies with loss and
//! membership churn.
//!
//! Receivers cancel live timers and issue stale cancels of already-fired
//! ones while toggling their group membership.  At the end of every run the
//! timer table and the event queue's retained capacity must be bounded by
//! the receiver count, and two runs of one seed must agree on every delivery
//! log, link counter and the event count — in debug builds with
//! `Simulator::run_until` asserting `(time, seq)` pop order at every event.

use netsim::prelude::*;
use netsim::sim::Agent;
use proptest::prelude::*;

/// Payload carrying a recognizable sequence number.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Marked {
    seq: u64,
}

/// Joins `group`, records every delivery, toggles membership on a fixed
/// cycle when configured, and continuously churns its own timers: every
/// toggle schedules a far-future decoy that is cancelled on the next one
/// (live cancel), and re-cancels the long-fired bootstrap timer (stale
/// cancel).
struct ChurningMember {
    group: GroupId,
    toggle_every: Option<f64>,
    joined: bool,
    bootstrap: Option<TimerId>,
    decoy: Option<TimerId>,
    log: Vec<(SimTime, u64, u64, u32)>, // (time, packet id, payload seq, size)
}

impl Agent for ChurningMember {
    fn start(&mut self, ctx: &mut Context<'_>) {
        ctx.join_group(self.group);
        self.joined = true;
        self.bootstrap = Some(ctx.schedule(0.0, 9));
        if let Some(t) = self.toggle_every {
            ctx.schedule(t, 0);
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if token == 9 {
            return; // the bootstrap timer, target of the stale cancels below
        }
        if self.joined {
            ctx.leave_group(self.group);
        } else {
            ctx.join_group(self.group);
        }
        self.joined = !self.joined;
        if let Some(stale) = self.bootstrap {
            ctx.cancel(stale); // fired long ago: must be a bounded no-op
        }
        if let Some(old) = self.decoy.take() {
            ctx.cancel(old); // live cancel of a queued far-future timer
        }
        self.decoy = Some(ctx.schedule(500.0, 7));
        if let Some(t) = self.toggle_every {
            ctx.schedule(t, 0);
        }
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        let seq = packet
            .payload
            .downcast_ref::<Marked>()
            .map(|m| m.seq)
            .unwrap_or(u64::MAX);
        self.log.push((ctx.now(), packet.id, seq, packet.size));
    }
}

/// Multicast source sending `count` marked packets at a fixed interval.
struct MarkedSource {
    dst: Dest,
    count: u64,
    interval: f64,
    sent: u64,
}

impl Agent for MarkedSource {
    fn start(&mut self, ctx: &mut Context<'_>) {
        if self.count > 0 {
            ctx.schedule(0.01, 0);
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        let pkt = Packet::new(
            ctx.addr(),
            self.dst,
            400 + (self.sent % 3) as u32 * 300,
            FlowId(1),
            Payload::new(Marked { seq: self.sent }),
        );
        ctx.send(pkt);
        self.sent += 1;
        if self.sent < self.count {
            ctx.schedule(self.interval, 0);
        }
    }
}

/// Entry slots an idle queue may keep: a minimum-size wheel of 16 buckets
/// plus the run being served, each allowed one small (≤ 64-slot) buffer, with
/// headroom.  A leaked burst buffer or a wheel that never shrank back shows
/// as several thousand.
const QUEUE_CAPACITY_BOUND: usize = 2_048;

/// One delivery record: (time, packet id, payload seq, size).
type DeliveryLog = Vec<(SimTime, u64, u64, u32)>;

/// Runs the randomized scenario and returns, per receiver, the full
/// delivery log plus aggregate link statistics and the total event count.
fn run_scenario(
    seed: u64,
    receivers: usize,
    churners: usize,
    loss_percent: u64,
    queue_len: usize,
    packet_count: u64,
    toggle_every_ms: u64,
) -> (Vec<DeliveryLog>, u64, u64, u64) {
    let mut sim = Simulator::new(seed);
    let legs: Vec<StarLeg> = (0..receivers)
        .map(|i| {
            let mut leg = StarLeg::clean(
                50_000.0 + 10_000.0 * (i % 4) as f64,
                0.005 + 0.002 * (i % 3) as f64,
            )
            .with_queue(QueueDiscipline::drop_tail(queue_len));
            if i % 2 == 0 && loss_percent > 0 {
                leg = leg.with_downstream_loss(loss_percent as f64 / 100.0);
            }
            leg
        })
        .collect();
    let star = star(&mut sim, &StarConfig::default(), &legs);
    let group = GroupId(3);
    let mut ids = Vec::new();
    for (i, &node) in star.receivers.iter().enumerate() {
        let toggle_every = if i < churners {
            Some(0.05 + toggle_every_ms as f64 / 1000.0 + 0.013 * i as f64)
        } else {
            None
        };
        ids.push(sim.add_agent(
            node,
            Port(7),
            Box::new(ChurningMember {
                group,
                toggle_every,
                joined: false,
                bootstrap: None,
                decoy: None,
                log: Vec::new(),
            }),
        ));
    }
    sim.add_agent(
        star.sender,
        Port(7),
        Box::new(MarkedSource {
            dst: Dest::Multicast {
                group,
                port: Port(7),
            },
            count: packet_count,
            interval: 0.02,
            sent: 0,
        }),
    );
    sim.run_until(SimTime::from_secs(5.0));
    let diag = sim.scheduler_diagnostics();
    // The timer table must not leak: only each receiver's one live decoy
    // (plus its membership-toggle timer) may remain pending.
    assert!(
        diag.pending_timers <= 2 * receivers + 2,
        "{} pending timers for {receivers} receivers — cancellation state leaked",
        diag.pending_timers
    );
    // Nor may the queue hold on to the buffers its bursts once needed.
    assert!(
        diag.queue_capacity <= QUEUE_CAPACITY_BOUND,
        "{} entry slots retained for {} queued events",
        diag.queue_capacity,
        diag.queued_events
    );
    let logs = ids
        .iter()
        .map(|&id| sim.agent::<ChurningMember>(id).unwrap().log.clone())
        .collect();
    let mut delivered = 0;
    let mut dropped = 0;
    for l in 0..receivers {
        let stats = sim.link_stats(star.downstream_links[l]);
        delivered += stats.delivered;
        dropped += stats.dropped_loss + stats.dropped_queue;
    }
    (logs, delivered, dropped, sim.events_processed())
}

proptest! {
    #[test]
    fn timer_churn_stays_bounded_and_deterministic(
        seed in 0u64..1_000_000,
        receivers in 1usize..14,
        churn_fraction in 0usize..=2,
        loss_percent in 0u64..30,
        queue_len in 2usize..20,
        packet_count in 1u64..60,
        toggle_every_ms in 0u64..400,
    ) {
        let churners = receivers * churn_fraction / 2;
        let run = || run_scenario(
            seed, receivers, churners, loss_percent, queue_len, packet_count, toggle_every_ms,
        );
        let (first, second) = (run(), run());
        prop_assert_eq!(&first.0, &second.0, "delivery sequences diverged between two runs");
        prop_assert_eq!(first.1, second.1, "delivered link counts diverged");
        prop_assert_eq!(first.2, second.2, "drop counts diverged");
        prop_assert_eq!(first.3, second.3, "events-processed counts diverged");
    }
}
