//! Layer replays: each layer's public functions driven standalone, from the
//! benchmark's own files, at the sizes and operation mix the workload just
//! showed (queue depth, leg count, loss rate and receiver count are read
//! from the finished run).  A replay gives nanoseconds per operation; times
//! the operations the run counted it gives the layer's estimated share of
//! `wall_s`, printed beside the span shares.
//!
//! A replay is a bound, not a profile: it runs the layer alone, with warm
//! caches and no engine around it, so its share under-estimates what the
//! layer costs inside a run.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use netsim::events::SchedulerKind;
use netsim::link::{Link, LinkAccept, LossModel};
use netsim::packet::{Address, Dest, FlowId, GroupId, LinkId, NodeId, Packet, Payload, Port};
use netsim::queue::{Queue, QueueDiscipline};
use netsim::rng::stream_seed;
use netsim::routing::{Edge, MulticastState, RoutingTable, SourceTree};
use netsim::time::SimTime;
use tfmcc_experiments::event_bench::run_event_workload;
use tfmcc_feedback::round::FeedbackRound;
use tfmcc_model::throughput::padhye_throughput;
use tfmcc_proto::config::TfmccConfig;
use tfmcc_proto::feedback::FeedbackPlanner;
use tfmcc_proto::loss::LossHistory;
use tfmcc_proto::packets::{DataPacket, FeedbackPacket, ReceiverId};
use tfmcc_proto::receiver::TfmccReceiver;
use tfmcc_proto::sender::TfmccSender;

/// Operations a replay times, unless its size argument says otherwise.
const OPS: u64 = 1_000_000;

/// A uniform in `[0, 1)` from a counter, for replays that need one per
/// operation without timing a generator.
fn uniform(stream: u64, i: u64) -> f64 {
    (stream_seed(stream, i) >> 11) as f64 / (1u64 << 53) as f64
}

/// 4096 uniforms, for replays whose operation is too small to time a
/// generator call beside it.
fn uniforms(stream: u64) -> Vec<f64> {
    (0..4096).map(|i| uniform(stream, i)).collect()
}

fn ns_per(ops: u64, started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e9 / ops.max(1) as f64
}

fn data_packet() -> Packet {
    let src = Address::new(NodeId(0), Port(5));
    let dst = Dest::Multicast {
        group: GroupId(1),
        port: Port(5),
    };
    Packet::new(src, dst, 1000, FlowId(1), Payload::empty())
}

/// `netsim::events`: the hold model of `tfmcc_experiments::event_bench`
/// (pop, reschedule, one far-future schedule + cancel per four pops) on the
/// default calendar scheduler at `pending` live events.
pub fn events_ns_per_op(pending: usize) -> f64 {
    let (wall_s, _) = run_event_workload(pending.max(1), OPS, SchedulerKind::Calendar);
    wall_s * 1e9 / OPS as f64
}

/// `netsim::link`: `Link::offer` on an idle drop-tail link followed by its
/// `tx_complete`, cycling over `legs` links (the star's working set) with
/// Bernoulli loss `loss` — the path every packet of the star workloads
/// takes, since no leg is ever congested.
pub fn link_ns_per_pkt(legs: usize, bandwidth: f64, loss: f64) -> f64 {
    let legs = legs.max(1);
    let mut links: Vec<Link> = (0..legs)
        .map(|i| {
            let mut link = Link::new(
                LinkId(i),
                NodeId(0),
                NodeId(i + 1),
                bandwidth,
                0.02,
                QueueDiscipline::drop_tail(50),
                stream_seed(1, i as u64),
            );
            if loss > 0.0 {
                link.loss = LossModel::Bernoulli { p: loss };
            }
            link
        })
        .collect();
    let pkt = data_packet();
    let mut out = Vec::new();
    let started = Instant::now();
    for k in 0..OPS {
        let i = (k % legs as u64) as usize;
        // One packet per leg per 20 ms round: the link is idle again.
        let now = SimTime::from_secs(0.02 * (k / legs as u64) as f64);
        if let LinkAccept::Accepted {
            tx_complete_at: Some(done),
        } = links[i].offer(pkt.clone(), now)
        {
            black_box(links[i].tx_complete(done, &mut out));
            out.clear();
        }
    }
    ns_per(OPS, started)
}

/// `netsim::queue`: one `Queue::enqueue` + one `Queue::dequeue_tx` per
/// packet on a queue held around 40 of 100 packets, arrivals 0.5 ms apart.
pub fn queue_ns_per_pkt(discipline: QueueDiscipline) -> f64 {
    let mut queue = Queue::new(discipline);
    let pkt = data_packet();
    let draws = uniforms(2);
    let started = Instant::now();
    for k in 0..OPS as usize {
        let now = SimTime::from_secs(0.0005 * k as f64);
        black_box(queue.enqueue(pkt.clone(), now, draws[k % draws.len()]));
        if queue.len() > 40 {
            black_box(queue.dequeue_tx(now));
        }
    }
    ns_per(OPS, started)
}

/// The routing state of an `n`-leg star: node 0 the sender, node 1 the hub,
/// nodes `2..n+2` the receivers, all of them members of one group.
struct StarRouting {
    routes: RoutingTable,
    members: BTreeSet<NodeId>,
}

const SENDER: NodeId = NodeId(0);
const HUB: NodeId = NodeId(1);

impl StarRouting {
    fn new(n: usize) -> Self {
        let mut edges = Vec::with_capacity(2 * n + 2);
        let mut duplex = |a: NodeId, b: NodeId, delay: f64| {
            for (from, to) in [(a, b), (b, a)] {
                edges.push(Edge {
                    link: LinkId(edges.len()),
                    from,
                    to,
                    delay,
                });
            }
        };
        duplex(SENDER, HUB, 0.001);
        for i in 0..n {
            duplex(HUB, NodeId(i + 2), 0.02);
        }
        StarRouting {
            routes: RoutingTable::compute(n + 2, &edges),
            members: (0..n).map(|i| NodeId(i + 2)).collect(),
        }
    }
}

/// `netsim::routing` reads: `MulticastState::tree` + `SourceTree::out_links`
/// at the hub of an `n`-member star — what every multicast packet does at
/// each node it crosses.
pub fn routing_lookup_ns(n: usize) -> f64 {
    let star = StarRouting::new(n.max(1));
    let mut state = MulticastState::default();
    for &m in &star.members {
        state.join(GroupId(1), m);
    }
    let started = Instant::now();
    for _ in 0..OPS {
        let tree = state.tree(black_box(GroupId(1)), SENDER, &star.routes);
        black_box(tree.out_links(black_box(HUB)).len());
    }
    ns_per(OPS, started)
}

/// `netsim::routing` writes: `SourceTree::remove_member` then `add_member`
/// of one member of an `n`-member star, per membership change.
pub fn routing_join_leave_ns(n: usize) -> f64 {
    let n = n.max(1);
    let star = StarRouting::new(n);
    let mut tree = SourceTree::build(SENDER, &star.members, &star.routes);
    // Each change moves up to n link ids at the hub: size the loop so the
    // replay stays well under a second at 25 000 members.
    let changes = (400_000_000 / n as u64).clamp(2_000, 200_000);
    let started = Instant::now();
    for k in 0..changes / 2 {
        let member = NodeId(2 + (stream_seed(3, k) % n as u64) as usize);
        tree.remove_member(member);
        tree.add_member(member);
    }
    black_box(tree.edge_count());
    ns_per(changes / 2 * 2, started)
}

/// `packets` consecutive TFMCC data headers, 5 ms apart, from a real sender.
fn data_headers(packets: usize) -> Vec<DataPacket> {
    let mut sender = TfmccSender::new(TfmccConfig::default());
    (0..packets)
        .map(|k| sender.next_data(0.005 * k as f64))
        .collect()
}

/// Whether replay packet `k` is lost on the way to receiver `i`.
fn lost(k: usize, i: usize, loss: f64) -> bool {
    uniform(4 + i as u64, k as u64) < loss
}

/// `tfmcc_proto::receiver`: `TfmccReceiver::on_data` over `receivers`
/// receivers visited packet by packet, as the simulator visits them, each
/// losing packets independently with probability `loss`.  No report flows
/// back to the sender, so the headers stay in slow start.
pub fn receiver_on_data_ns(receivers: usize, loss: f64) -> f64 {
    let receivers = receivers.max(1);
    let headers = data_headers((OPS as usize / receivers).max(8));
    let mut state: Vec<TfmccReceiver> = (0..receivers)
        .map(|i| TfmccReceiver::new(ReceiverId(i as u64 + 1), TfmccConfig::default()))
        .collect();
    let mut delivered = 0u64;
    let started = Instant::now();
    for (k, header) in headers.iter().enumerate() {
        for (i, receiver) in state.iter_mut().enumerate() {
            if lost(k, i, loss) {
                continue;
            }
            let delay = 0.011 + 0.05 * i as f64 / receivers as f64;
            black_box(receiver.on_data(header.timestamp + delay, header));
            delivered += 1;
        }
    }
    ns_per(delivered, started)
}

/// `tfmcc_proto::loss`: `LossHistory::on_packet` alone, same visiting order
/// and loss pattern as [`receiver_on_data_ns`].
pub fn loss_on_packet_ns(receivers: usize, loss: f64) -> f64 {
    let receivers = receivers.max(1);
    let packets = (OPS as usize / receivers).max(8);
    let config = TfmccConfig::default();
    let mut state: Vec<LossHistory> = (0..receivers).map(|_| LossHistory::new(&config)).collect();
    let mut delivered = 0u64;
    let started = Instant::now();
    for k in 0..packets {
        for (i, history) in state.iter_mut().enumerate() {
            if lost(k, i, loss) {
                continue;
            }
            black_box(history.on_packet(k as u64, 0.005 * k as f64, 0.1));
            delivered += 1;
        }
    }
    ns_per(delivered, started)
}

/// `tfmcc_proto::feedback`: one biased feedback-timer draw
/// (`FeedbackPlanner::timer`).
pub fn feedback_timer_ns() -> f64 {
    let planner = FeedbackPlanner::from_config(&TfmccConfig::default());
    let (ratios, draws) = (uniforms(5), uniforms(6));
    let started = Instant::now();
    for k in 0..OPS as usize {
        let ratio = 0.4 + 0.6 * ratios[k % ratios.len()];
        black_box(planner.timer(ratio, 3.0, draws[k % draws.len()].max(1e-12)));
    }
    ns_per(OPS, started)
}

fn report(id: u64, round: u64, now: f64) -> FeedbackPacket {
    let rtt = 0.02 + 0.1 * uniform(7, id);
    let rate = 100_000.0 + 400_000.0 * uniform(8, id);
    FeedbackPacket {
        receiver: ReceiverId(id),
        timestamp: now,
        echo_timestamp: now - rtt,
        echo_delay: 0.001,
        calculated_rate: rate,
        loss_event_rate: 0.002,
        receive_rate: rate,
        rtt,
        has_rtt_measurement: true,
        feedback_round: round,
        leaving: false,
    }
}

/// `tfmcc_proto::sender` with `known` receivers in its aggregator:
/// `(on_feedback_ns, next_data_ns)`.
pub fn sender_ns(known: usize) -> (f64, f64) {
    let known = known.max(1) as u64;
    let mut sender = TfmccSender::new(TfmccConfig::default());
    for id in 1..=known {
        sender.on_feedback(0.0, &report(id, sender.feedback_round(), 0.0));
    }
    let ops = 200_000u64;
    let started = Instant::now();
    for k in 0..ops {
        let now = 1.0 + 1e-4 * k as f64;
        sender.on_feedback(now, &report(k % known + 1, sender.feedback_round(), now));
    }
    let on_feedback = ns_per(ops, started);
    let started = Instant::now();
    for k in 0..ops {
        black_box(sender.next_data(30.0 + 0.005 * k as f64));
    }
    (on_feedback, ns_per(ops, started))
}

/// `tfmcc_feedback::round`: `FeedbackRound::simulate` at 10⁴ receivers, per
/// receiver (the Monte-Carlo behind figures 2-6).
pub fn feedback_round_ns_per_receiver() -> f64 {
    let planner = FeedbackPlanner::from_config(&TfmccConfig::default());
    let round = FeedbackRound::new(planner, 3.0, 0.5);
    let (n, runs) = (10_000usize, 20usize);
    let started = Instant::now();
    black_box(round.simulate_uniform(n, runs, 9));
    ns_per((n * runs) as u64, started)
}

/// `tfmcc_model::throughput`: one evaluation of the control equation.
pub fn model_throughput_ns() -> f64 {
    let draws = uniforms(10);
    let started = Instant::now();
    for k in 0..OPS as usize {
        let p = 1e-4 + 0.1 * draws[k % draws.len()];
        black_box(padhye_throughput(1000.0, 0.1, p));
    }
    ns_per(OPS, started)
}
