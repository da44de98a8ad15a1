//! Frozen verdict of the fan-out equivalence proptest: the (only) multicast
//! fan-out path reproduces the delivery logs the historical clone-based
//! reference path produced.
//!
//! The digests in [`SCENARIOS`] were recorded at commit `7dca965` by running
//! exactly this scenario builder under that commit's clone-based reference
//! fan-out mode (per-send subscriber collect + sort, one `PacketData` copy
//! per replica, distribution trees rebuilt from scratch on every membership
//! change); that commit's zero-copy mode produced the same table.  The
//! reference path was deleted afterwards, so these digests are what is left
//! of it: a subscriber that is skipped, duplicated, matched on the wrong
//! port or served in a different out-link order changes at least one of them.
//!
//! Each digest is FNV-1a 64 over every agent's delivery log in agent order —
//! `(time, agent, packet id, payload seq, payload origin, size)` per record —
//! followed by the per-leg link counters.  Receivers acknowledge every
//! delivery with a unicast packet to the source, so the order in which
//! same-instant replicas were offered to the out-links is visible in the
//! source's log (the acks serialize on the hub → sender link in dispatch
//! order).

use std::any::Any;

use netsim::prelude::*;
use netsim::sim::Agent;

/// Payload carrying a recognizable sequence number and its origin: the
/// acknowledging member's index, or [`FROM_SOURCE`] for multicast data.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Marked {
    seq: u64,
    from: u64,
}

const FROM_SOURCE: u64 = u64::MAX;
const GROUP: GroupId = GroupId(3);
/// Port most members (and the source) are bound to.
const MAIN: Port = Port(7);
/// Port of the second member that every third receiver node (and the sender
/// node) hosts, so subscriber lists hold more than one agent.
const SIDE: Port = Port(8);

/// One delivery record: (time, packet id, payload seq, payload origin, size).
type Record = (SimTime, u64, u64, u64, u32);

/// The record of `packet` arriving at `now`, and the mark it carried.
fn record(now: SimTime, packet: &Packet) -> (Record, Marked) {
    let marked = *packet
        .payload
        .downcast_ref::<Marked>()
        .expect("only marked packets are sent");
    (
        (now, packet.id, marked.seq, marked.from, packet.size),
        marked,
    )
}

/// Joins [`GROUP`], records and acknowledges every delivery, and optionally
/// leaves/rejoins on a fixed schedule (toggling every `toggle_every` seconds).
struct RecordingMember {
    index: u64,
    ack_to: Address,
    toggle_every: Option<f64>,
    joined: bool,
    log: Vec<Record>,
}

impl Agent for RecordingMember {
    fn start(&mut self, ctx: &mut Context<'_>) {
        ctx.join_group(GROUP);
        self.joined = true;
        if let Some(t) = self.toggle_every {
            ctx.schedule(t, 0);
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        if self.joined {
            ctx.leave_group(GROUP);
        } else {
            ctx.join_group(GROUP);
        }
        self.joined = !self.joined;
        if let Some(t) = self.toggle_every {
            ctx.schedule(t, 0);
        }
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        let (rec, marked) = record(ctx.now(), &packet);
        self.log.push(rec);
        let ack = Packet::new(
            ctx.addr(),
            Dest::Unicast(self.ack_to),
            40,
            FlowId(2),
            Payload::new(Marked {
                seq: marked.seq,
                from: self.index,
            }),
        );
        ctx.send(ack);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Multicast source sending `count` marked packets at a fixed interval
/// (every fourth one to the side port) and recording the acknowledgements.
struct MarkedSource {
    count: u64,
    sent: u64,
    log: Vec<Record>,
}

impl Agent for MarkedSource {
    fn start(&mut self, ctx: &mut Context<'_>) {
        ctx.schedule(0.01, 0);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        let port = if self.sent % 4 == 3 { SIDE } else { MAIN };
        let pkt = Packet::new(
            ctx.addr(),
            Dest::Multicast { group: GROUP, port },
            400 + (self.sent % 3) as u32 * 300,
            FlowId(1),
            Payload::new(Marked {
                seq: self.sent,
                from: FROM_SOURCE,
            }),
        );
        ctx.send(pkt);
        self.sent += 1;
        if self.sent < self.count {
            ctx.schedule(0.01, 0);
        }
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        self.log.push(record(ctx.now(), &packet).0);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One frozen scenario: a star of `legs` receivers (leg `i` has bandwidth
/// `50 + 10·(i mod 4)` kB/s, delay `5 + 2·(i mod 3)` ms and a 6-packet
/// drop-tail queue, so legs `i` and `i + 12` deliver at the same instants),
/// `loss_percent` Bernoulli loss on every even leg, and — when
/// `churn_every_ms > 0` — every second member leaving/rejoining with period
/// `50 + churn_every_ms + 13·i` ms.  The source sends 150 packets, 10 ms
/// apart; the run lasts 3 s.
struct Scenario {
    legs: usize,
    loss_percent: u64,
    churn_every_ms: u64,
    seed: u64,
    /// Digest of the clone-based reference path's delivery logs at `7dca965`.
    digest: u64,
}

const fn sc(
    legs: usize,
    loss_percent: u64,
    churn_every_ms: u64,
    seed: u64,
    digest: u64,
) -> Scenario {
    Scenario {
        legs,
        loss_percent,
        churn_every_ms,
        seed,
        digest,
    }
}

#[rustfmt::skip]
const SCENARIOS: [Scenario; 36] = [
    // legs, loss %, churn ms, seed, digest
    sc(1, 0, 0, 1, 0x1dc8_e0ae_1fec_7d02),
    sc(1, 20, 30, 2, 0x2065_63d6_8c12_746f),
    sc(2, 0, 0, 3, 0x9a46_40fa_4b72_ea4e),
    sc(2, 10, 100, 4, 0x508f_ff11_7bf3_912c),
    sc(3, 0, 250, 5, 0x4a65_d767_892a_d270),
    sc(3, 29, 0, 6, 0xbc18_ac7b_7a75_bbd4),
    sc(4, 5, 0, 7, 0x3072_7153_fc27_1278),
    sc(4, 5, 40, 8, 0x6be6_4b8e_b14e_d3f9),
    sc(5, 0, 0, 9, 0x9407_cf5d_ccfc_0456),
    sc(5, 15, 399, 10, 0xd727_1504_97b8_b1f1),
    sc(7, 0, 10, 11, 0xba36_e8f2_b354_7db2),
    sc(7, 25, 0, 12, 0xf4c2_e645_0c5a_31ef),
    sc(8, 1, 150, 13, 0xedcb_f804_9a7a_969b),
    sc(9, 0, 0, 14, 0xcf11_0189_2109_87ce),
    sc(11, 12, 70, 15, 0xb61b_3c8c_b5f1_d6e8),
    sc(12, 0, 0, 16, 0x75a6_51fe_666b_8fc3),
    sc(13, 0, 0, 17, 0x310d_c39e_34f8_97a8),
    sc(13, 8, 20, 18, 0x899a_7943_6442_8d20),
    sc(13, 29, 300, 19, 0x6633_23bc_a4c1_563d),
    sc(16, 0, 200, 20, 0xb597_2f4b_f018_18fd),
    sc(16, 3, 0, 21, 0x1f1e_ffad_7317_d948),
    sc(20, 0, 0, 22, 0x54fb_af0d_8cd7_3291),
    sc(20, 18, 60, 23, 0x6f58_edef_ac34_48f3),
    sc(24, 0, 0, 24, 0x3799_33e9_bc04_0c91),
    sc(24, 7, 120, 25, 0x6a5b_cf68_0a2b_7096),
    sc(25, 0, 5, 26, 0x601f_92ad_1db4_0943),
    sc(25, 22, 0, 27, 0xa680_43ce_7c13_c73d),
    sc(30, 2, 350, 28, 0x3f13_c890_9144_288d),
    sc(32, 0, 0, 29, 0x3630_774a_64f0_9dc1),
    sc(32, 10, 90, 30, 0x3c71_8896_e5d7_1256),
    sc(36, 0, 180, 31, 0x6f63_f717_7eb7_d9ab),
    sc(36, 14, 0, 32, 0xbc30_5c26_3dff_09bb),
    sc(40, 0, 0, 424_242, 0xa1c4_0456_1515_66ea),
    sc(40, 6, 25, 999_999, 0x1beb_84fa_1c6b_4410),
    sc(48, 0, 75, 123_456, 0xb77f_04a0_d059_d99b),
    sc(48, 27, 220, 654_321, 0xf772_a7df_5f99_c90c),
];

/// FNV-1a 64 over a stream of little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn log(&mut self, agent: AgentId, log: &[Record]) {
        self.word(log.len() as u64);
        for &(time, id, seq, from, size) in log {
            self.word(time.as_secs().to_bits());
            self.word(agent.0 as u64);
            self.word(id);
            self.word(seq);
            self.word(from);
            self.word(u64::from(size));
        }
    }
}

/// Runs one scenario and digests every delivery log plus the leg counters.
fn run_scenario(s: &Scenario) -> u64 {
    let mut sim = Simulator::new(s.seed);
    let legs: Vec<StarLeg> = (0..s.legs)
        .map(|i| {
            let mut leg = StarLeg::clean(
                50_000.0 + 10_000.0 * (i % 4) as f64,
                0.005 + 0.002 * (i % 3) as f64,
            )
            .with_queue(QueueDiscipline::drop_tail(6));
            if i % 2 == 0 && s.loss_percent > 0 {
                leg = leg.with_downstream_loss(s.loss_percent as f64 / 100.0);
            }
            leg
        })
        .collect();
    let star = star(&mut sim, &StarConfig::default(), &legs);
    let ack_to = Address::new(star.sender, MAIN);
    let member = |index: usize, toggle_every: Option<f64>| {
        Box::new(RecordingMember {
            index: index as u64,
            ack_to,
            toggle_every,
            joined: false,
            log: Vec::new(),
        })
    };
    let mut members = Vec::new();
    for (i, &node) in star.receivers.iter().enumerate() {
        let toggle_every = (s.churn_every_ms > 0 && i % 2 == 0)
            .then(|| 0.05 + s.churn_every_ms as f64 / 1000.0 + 0.013 * i as f64);
        members.push(sim.add_agent(node, MAIN, member(i, toggle_every)));
        if i % 3 == 0 {
            members.push(sim.add_agent(node, SIDE, member(1000 + i, None)));
        }
    }
    // A subscriber on the source's own node: served locally, never by a link.
    members.push(sim.add_agent(star.sender, SIDE, member(2000, None)));
    let source = sim.add_agent(
        star.sender,
        MAIN,
        Box::new(MarkedSource {
            count: 150,
            sent: 0,
            log: Vec::new(),
        }),
    );
    sim.run_until(SimTime::from_secs(3.0));

    let mut fnv = Fnv::new();
    for &id in &members {
        fnv.log(id, &sim.agent::<RecordingMember>(id).unwrap().log);
    }
    fnv.log(source, &sim.agent::<MarkedSource>(source).unwrap().log);
    for &link in &star.downstream_links {
        let stats = sim.link_stats(link);
        fnv.word(stats.delivered);
        fnv.word(stats.dropped_loss);
        fnv.word(stats.dropped_queue);
    }
    fnv.0
}

#[test]
fn fanout_reproduces_the_frozen_reference_digests() {
    let got: Vec<u64> = SCENARIOS.iter().map(run_scenario).collect();
    let mismatches: Vec<String> = SCENARIOS
        .iter()
        .zip(&got)
        .filter(|(s, &d)| s.digest != d)
        .map(|(s, d)| {
            format!(
                "sc({}, {}, {}, {}, {:#018x}) now digests to {d:#018x}",
                s.legs, s.loss_percent, s.churn_every_ms, s.seed, s.digest
            )
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "multicast delivery diverged from the frozen clone-reference logs:\n{}",
        mismatches.join("\n")
    );
}
