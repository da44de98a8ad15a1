//! Frozen verdict of the fan-out equivalence proptest: the (only) multicast
//! fan-out path reproduces the delivery logs the historical clone-based
//! reference path produced.
//!
//! Every scenario in [`SCENARIOS`] is one run digested three ways (FNV-1a 64;
//! a log record is `(time, agent, packet id, payload seq, payload origin,
//! size)`):
//!
//! * **members** — every [`RecordingMember`] log in full, in agent order,
//!   then the per-leg link counters.  Pinned since commit `7dca965`, where
//!   that commit's clone-based reference fan-out mode (per-send subscriber
//!   collect + sort, one `PacketData` copy per replica, distribution trees
//!   rebuilt from scratch on every membership change) and its zero-copy mode
//!   produced the same logs.  The reference path was deleted afterwards, so
//!   these digests are what is left of it: a subscriber that is skipped,
//!   duplicated or matched on the wrong port changes this column.
//! * **source shape** — the source's acknowledgement log as the sequence of
//!   `(time, size)`, then its `(payload seq, origin)` pairs sorted, then its
//!   packet ids sorted: *when* acks arrive and *which* acks arrive, but not
//!   which of several same-instant acks sits in which slot.  Also pinned
//!   since `7dca965`.
//! * **source order** — the source's log in full.  Receivers acknowledge
//!   every delivery with a unicast packet to the source and the acks
//!   serialize on the hub → sender link in dispatch order, so this column
//!   sees the order in which same-instant replicas were offered to the
//!   out-links.  Re-recorded (31 of 36 rows) when drop-tail links became
//!   eventless, which changed one rule — the **tie rule**: events at a
//!   bit-identical instant dispatch in the order their packets were
//!   *offered* to a link (a packet's arrival event takes its tie-break `seq`
//!   at the offer), where it used to depend on which leg's transmission-end
//!   event fired first.  Two legs whose `tx + delay` sums are bit-equal
//!   (700 B over 50 kB/s + 5 ms and over 70 kB/s + 9 ms both take 19 ms)
//!   therefore swap their same-instant acks; nothing else may move.
//!
//! The first two columns were split out of the old single digest and
//! recorded at `835b917`, in the same run in which the 36 old digests still
//! passed, before the link model was touched.
//!
//! In [`SCENARIOS`] consecutive legs differ in delay, so a packet's replicas
//! rarely share an instant; where consecutive legs' arrivals ascend, the
//! engine queues them as one fan-out run of distinct instants, so these
//! rows pin that shape too.  [`UNIFORM_SCENARIOS`] are six rows whose legs
//! are all alike, so every replica of a packet lands at one instant: the
//! shape under which the engine dispatches a whole fan-out as one queue
//! entry.  They cross 8 and 40 legs with a RED leg every fifth
//! position (its transmission-end event takes a tie-break `seq` in the
//! middle of the hub's offer loop), and with 10 % loss on even legs plus
//! churn (dropped replicas take no `seq`; a member may leave between the
//! offer and the arrival).  All three columns were recorded at `fc9f8b0`,
//! in the same run in which the 36 old rows passed, before the engine
//! batched anything.

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
}

/// One frozen scenario: a star of `legs` receivers shaped by `shape`,
/// `loss_percent` Bernoulli loss on every even leg, and — when
/// `churn_every_ms > 0` — every second member leaving/rejoining with period
/// `50 + churn_every_ms + 13·i` ms.  The source sends 150 packets, 10 ms
/// apart; the run lasts 3 s.
struct Scenario {
    shape: Shape,
    legs: usize,
    loss_percent: u64,
    churn_every_ms: u64,
    seed: u64,
    frozen: Digests,
}

/// How the legs of a scenario's star differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Leg `i` has bandwidth `50 + 10·(i mod 4)` kB/s, delay
    /// `5 + 2·(i mod 3)` ms and a 6-packet drop-tail queue, so legs `i` and
    /// `i + 12` deliver at the same instants.
    Mixed,
    /// Every leg has 80 kB/s, 7 ms and a 6-packet drop-tail queue, so all
    /// replicas of a packet arrive at one instant.
    Uniform,
    /// [`Shape::Uniform`], except that every fifth leg (`i mod 5 = 4`) has a
    /// 6-packet RED queue: its transmission end is an event of its own, and
    /// its arrival ties with the drop-tail legs' at the same instant.
    UniformRed,
}

/// The three digests of one run (see the file header).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digests {
    members: u64,
    source_shape: u64,
    source_order: u64,
}

const fn sc(
    legs: usize,
    loss_percent: u64,
    churn_every_ms: u64,
    seed: u64,
    members: u64,
    source_shape: u64,
    source_order: u64,
) -> Scenario {
    Scenario {
        shape: Shape::Mixed,
        legs,
        loss_percent,
        churn_every_ms,
        seed,
        frozen: Digests {
            members,
            source_shape,
            source_order,
        },
    }
}

impl Scenario {
    /// The same row with its legs shaped by `shape`.
    const fn shaped(self, shape: Shape) -> Scenario {
        Scenario { shape, ..self }
    }
}

#[rustfmt::skip]
const SCENARIOS: [Scenario; 36] = [
    // legs, loss %, churn ms, seed, members, source shape, source order
    sc(1, 0, 0, 1, 0x213e_5873_daf5_c94c, 0xd9f6_0814_e8ea_ad47, 0xedb2_c7f9_4d14_f697),
    sc(1, 20, 30, 2, 0x568c_eb9c_7b65_9a55, 0x01fa_38f6_a8e8_e1c4, 0x88b8_5b09_6772_c5c3),
    sc(2, 0, 0, 3, 0xb07b_091e_88c6_7683, 0x5764_67a1_246e_d774, 0x0934_bbb1_b027_b458),
    sc(2, 10, 100, 4, 0xaac7_9822_90d4_0afe, 0x7979_3796_c1f0_11e7, 0x55f3_3c8d_fa96_eb9f),
    sc(3, 0, 250, 5, 0xdd03_c5db_102e_462f, 0xf122_a7a9_f3e8_157e, 0x7843_e95b_a6c7_4f4e),
    sc(3, 29, 0, 6, 0xa9df_d321_a1b9_1ea4, 0x312f_11b3_622e_71fd, 0x2475_500a_e689_a4c5),
    sc(4, 5, 0, 7, 0xba59_e67f_a2c0_584f, 0x1eb2_cfcc_739e_202e, 0x83d6_962c_ca2a_61a2),
    sc(4, 5, 40, 8, 0xbda6_e02f_ad51_0dc0, 0x9ceb_5994_8cc2_4637, 0x510d_2125_9039_34b4),
    sc(5, 0, 0, 9, 0x83ce_f001_b159_1d3b, 0x3b18_f735_a227_88f0, 0x2566_6b87_944c_9b10),
    sc(5, 15, 399, 10, 0x3321_19ce_7731_3c13, 0x54d8_c42c_3b2b_1d9f, 0x6935_26c6_39fc_d6f7),
    sc(7, 0, 10, 11, 0xf910_23f8_8882_f641, 0xcc86_15af_d648_14b6, 0x9970_bfb6_907a_1662),
    sc(7, 25, 0, 12, 0x79e2_eb39_a371_3a4d, 0xf0e1_c3a4_88ea_680b, 0x55ee_e95b_5222_78c7),
    sc(8, 1, 150, 13, 0xd2d6_b55f_6ba2_28fc, 0xa527_b4f8_6fbf_e0b6, 0x291a_6d1e_47b3_7f6a),
    sc(9, 0, 0, 14, 0x63bb_6659_29d1_2475, 0x2824_2b37_3731_4aa2, 0xd3b2_b12f_62eb_5466),
    sc(11, 12, 70, 15, 0xe2d1_c17d_33a2_e123, 0xee96_e1ca_7e8d_9386, 0x2eef_90f8_9f07_4ede),
    sc(12, 0, 0, 16, 0x0ce8_0d6b_4562_1e71, 0x48ad_2ce7_20e6_8533, 0x5316_07bf_d3ee_d23f),
    sc(13, 0, 0, 17, 0x5c6d_f5c1_acb2_59e3, 0x8215_191a_669b_b5a1, 0x5a26_d1bd_0f8e_b146),
    sc(13, 8, 20, 18, 0x169e_acea_40cd_8392, 0x24cf_c71b_1c1b_d320, 0xdf37_6fb8_46c6_38d7),
    sc(13, 29, 300, 19, 0xf8b3_c14c_25a0_8e54, 0x43de_4b5a_adb8_0304, 0x672b_9b6c_9e22_d9b4),
    sc(16, 0, 200, 20, 0xfff9_66a5_1a05_6d40, 0xad8e_e08b_8df6_1668, 0xc7c0_8f60_997e_083c),
    sc(16, 3, 0, 21, 0x8ab2_c0e8_74e0_23e9, 0x8daa_fdc4_e4db_19a8, 0xfaf0_8213_b24c_1bb0),
    sc(20, 0, 0, 22, 0xb726_16d1_1cc8_90b0, 0x574f_3aee_2cb3_7bcc, 0xe798_922f_488e_3ef8),
    sc(20, 18, 60, 23, 0x12e8_ad6a_9f31_5a0f, 0x29da_e7ee_aaba_d9b9, 0xf02e_1b63_551b_3271),
    sc(24, 0, 0, 24, 0xa1c3_2039_fc83_9632, 0x0a0a_7743_6b44_68eb, 0x5543_5bfd_a1f6_8c42),
    sc(24, 7, 120, 25, 0x69e6_bf4c_e3fa_ba8a, 0xc8f1_d8df_486c_4174, 0xfdef_1c18_2ef6_ca61),
    sc(25, 0, 5, 26, 0x13ca_470e_988b_dbb7, 0xec4f_778f_87f4_60b5, 0x7e17_e5dd_cb4c_d871),
    sc(25, 22, 0, 27, 0x09d5_c262_0b28_a329, 0x243f_0143_f614_2602, 0x8cc9_269e_cc7b_6235),
    sc(30, 2, 350, 28, 0xdeae_8079_9586_b109, 0xc1c4_a08c_7ae5_5eec, 0xcde9_bed7_b366_a8e5),
    sc(32, 0, 0, 29, 0xcb35_7448_e92c_5df6, 0x40fd_6669_e10a_35c6, 0x90c7_5809_61d1_894a),
    sc(32, 10, 90, 30, 0x046f_2996_ff04_e5ce, 0x17d4_647d_5f9c_1d0d, 0x4456_0add_f4ad_132d),
    sc(36, 0, 180, 31, 0x8945_20d7_5f8a_63e7, 0xa36e_de6f_4edf_7f38, 0x8d68_d6d3_4f9d_2abd),
    sc(36, 14, 0, 32, 0x3aff_9814_dad8_1807, 0xbdbf_b4d5_73bc_f3f0, 0xc064_8b56_7e60_adb1),
    sc(40, 0, 0, 424_242, 0xf494_d3d6_7302_c0b0, 0x6e39_f1e8_10cc_2520, 0xd86f_1a51_f526_11cb),
    sc(40, 6, 25, 999_999, 0xf9ba_866e_acd8_6bd1, 0x14a8_6f40_d59a_3cc0, 0xa976_c805_c793_6774),
    sc(48, 0, 75, 123_456, 0xc1e9_e46e_e2d8_9863, 0x5f12_9190_b0e2_21b0, 0x77f2_db82_0d13_36cd),
    sc(48, 27, 220, 654_321, 0xf404_e0ba_153e_e1eb, 0xc07b_047d_7c95_fd1f, 0x36ba_2c95_4fb9_d8f2),
];

/// Rows whose replicas share instants: every leg alike, crossed with a RED
/// leg every fifth position and with loss plus churn.
#[rustfmt::skip]
const UNIFORM_SCENARIOS: [Scenario; 6] = [
    // legs, loss %, churn ms, seed, members, source shape, source order
    sc(8, 0, 0, 41, 0x456e_7256_6aba_f0b1, 0x3f6b_40ca_e42b_ee6b, 0x1694_8106_460e_e49b).shaped(Shape::Uniform),
    sc(8, 0, 0, 42, 0x456e_7256_6aba_f0b1, 0x3f6b_40ca_e42b_ee6b, 0x86d1_5cbf_a914_8693).shaped(Shape::UniformRed),
    sc(8, 10, 60, 43, 0xe7c7_55ff_3a6b_0e3b, 0x022f_fb5a_9db3_524a, 0x0225_ba5a_0548_d7fa).shaped(Shape::Uniform),
    sc(40, 0, 0, 44, 0x118c_c355_26ce_8800, 0x039a_5e48_5ab5_43b6, 0xc5d3_ffcd_0593_0cad).shaped(Shape::Uniform),
    sc(40, 0, 0, 45, 0x118c_c355_26ce_8800, 0x039a_5e48_5ab5_43b6, 0x98e8_3938_d5b1_155d).shaped(Shape::UniformRed),
    sc(40, 10, 60, 46, 0xb365_5d1e_4be8_d987, 0x9056_8a32_a881_da58, 0x7929_2406_f22a_9e5c).shaped(Shape::Uniform),
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

/// Runs one scenario and digests it three ways (see the file header).
fn run_scenario(s: &Scenario) -> Digests {
    let mut sim = Simulator::new(s.seed);
    let legs: Vec<StarLeg> = (0..s.legs)
        .map(|i| {
            let (bandwidth, delay, queue) = match s.shape {
                Shape::Mixed => (
                    50_000.0 + 10_000.0 * (i % 4) as f64,
                    0.005 + 0.002 * (i % 3) as f64,
                    QueueDiscipline::drop_tail(6),
                ),
                Shape::UniformRed if i % 5 == 4 => (80_000.0, 0.007, QueueDiscipline::red(6)),
                Shape::Uniform | Shape::UniformRed => {
                    (80_000.0, 0.007, QueueDiscipline::drop_tail(6))
                }
            };
            let mut leg = StarLeg::clean(bandwidth, delay).with_queue(queue);
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

    let source_log = &sim.agent::<MarkedSource>(source).unwrap().log;
    let mut members_digest = Fnv::new();
    for &id in &members {
        members_digest.log(id, &sim.agent::<RecordingMember>(id).unwrap().log);
    }
    for &link in &star.downstream_links {
        let stats = sim.link_stats(link);
        members_digest.word(stats.delivered);
        members_digest.word(stats.dropped_loss);
        members_digest.word(stats.dropped_queue);
    }

    let mut shape = Fnv::new();
    shape.word(source_log.len() as u64);
    for &(time, _, _, _, size) in source_log {
        shape.word(time.as_secs().to_bits());
        shape.word(u64::from(size));
    }
    let mut acked: Vec<(u64, u64)> = source_log.iter().map(|r| (r.2, r.3)).collect();
    acked.sort_unstable();
    for (seq, from) in acked {
        shape.word(seq);
        shape.word(from);
    }
    let mut ids: Vec<u64> = source_log.iter().map(|r| r.1).collect();
    ids.sort_unstable();
    for id in ids {
        shape.word(id);
    }

    let mut order = Fnv::new();
    order.log(source, source_log);

    Digests {
        members: members_digest.0,
        source_shape: shape.0,
        source_order: order.0,
    }
}

/// The rows of `table` whose run no longer digests to what they froze.
fn mismatches(table: &[Scenario]) -> Vec<String> {
    table
        .iter()
        .map(|s| (s, run_scenario(s)))
        .filter(|(s, d)| s.frozen != *d)
        .map(|(s, d)| {
            format!(
                "{:?} sc({}, {}, {}, {}) froze {:x?}, now digests to {d:x?}",
                s.shape, s.legs, s.loss_percent, s.churn_every_ms, s.seed, s.frozen
            )
        })
        .collect()
}

#[test]
fn fanout_reproduces_the_frozen_reference_digests() {
    let mismatches = mismatches(&SCENARIOS);
    assert!(
        mismatches.is_empty(),
        "multicast delivery diverged from the frozen clone-reference logs:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn same_instant_replicas_reproduce_the_recorded_digests() {
    let mismatches = mismatches(&UNIFORM_SCENARIOS);
    assert!(
        mismatches.is_empty(),
        "same-instant multicast delivery diverged from the recorded logs:\n{}",
        mismatches.join("\n")
    );
}
