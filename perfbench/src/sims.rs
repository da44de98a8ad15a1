//! The three simulation workloads: building them from a seed, running them,
//! checking their outputs and reading their counters — all through the
//! public API of `netsim`, `tfmcc-agents` and `tfmcc-proto`.

use std::hash::Hasher;
use std::time::Instant;

use netsim::prelude::*;
use tfmcc_agents::{PopulationSpec, TfmccReceiverAgent, TfmccSenderAgent, TfmccSessionBuilder};
use tfmcc_mc::Fnv1a;
use tfmcc_model::throughput::padhye_throughput;
use tfmcc_proto::config::TfmccConfig;
use tfmcc_proto::packets::ReceiverId;
use tfmcc_proto::receiver::ReceiverStats;
use tfmcc_proto::sender::{SenderStats, TfmccSender};

use crate::alloc;
use crate::trace::Wrap;

/// Layer name of the CBR source's spans.
pub const LAYER_SOURCE: &str = "netsim.apps.source";
/// Layer name of the group sinks' spans.
pub const LAYER_SINK: &str = "netsim.apps.sink";
/// Layer name of the TFMCC sender agent's spans.
pub const LAYER_SENDER: &str = "tfmcc-agents.sender";
/// Layer name of the TFMCC receiver agents' spans.
pub const LAYER_RECEIVER: &str = "tfmcc-agents.receiver";

/// Sizes of the simulation workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Legs (= sinks) of the `fanout_*` star.
    pub fanout_legs: usize,
    /// Simulated seconds of a `fanout_*` run.
    pub fanout_sim_secs: f64,
    /// Packet-level receivers of `tfmcc_star`.
    pub tfmcc_receivers: usize,
    /// Data packets the `tfmcc_star` sender emits before the run stops.
    pub tfmcc_packets: u64,
}

impl Sizes {
    /// The sizes the benchmark reports at, cut from the issue's (50 000 legs
    /// x 10 sim-s, 1 500 receivers x 120 sim-s) so that five or more
    /// repetitions fit one `--seconds` box and every run of every workload
    /// fits the driver's total-time cap.  Receiver counts are halved once;
    /// the rest of the cut is simulated time.
    ///
    /// `tfmcc_star` stops on a packet budget, not a simulated time: how fast
    /// a TFMCC session ramps up depends heavily on the seed's loss draws
    /// (9.5-17 M events in 80 sim-s over eight seeds), while the work per
    /// data packet does not.  6 000 packets take a session through slow
    /// start, CLR election and ramp-up into steady state (~75 sim-s).
    pub const STANDARD: Sizes = Sizes {
        fanout_legs: 25_000,
        fanout_sim_secs: 4.0,
        tfmcc_receivers: 750,
        tfmcc_packets: 6_000,
    };

    /// Toy sizes for the self-tests.
    pub const TOY: Sizes = Sizes {
        fanout_legs: 200,
        fanout_sim_secs: 2.0,
        tfmcc_receivers: 200,
        tfmcc_packets: 400,
    };
}

/// A simulation workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// Clean star, CBR multicast into group sinks: pure `netsim`.
    FanoutStar,
    /// The same with every tenth sink leaving and rejoining the group.
    FanoutChurn,
    /// One full TFMCC session on a heterogeneous lossy star.
    TfmccStar,
}

impl SimWorkload {
    /// The simulation seeds a run with `--seed seed` measures, each in its
    /// own share of the run's time.
    ///
    /// What a `tfmcc_star` event costs depends on how fast the seed's
    /// session ramps up (how many packets are in flight at once): over
    /// sixteen seeds the quiet-machine `wall_s` had a spread of 4.7 % and a
    /// range of 17 %.  A run therefore measures three seeds and reports their
    /// mean.  The `fanout_*` stars cost the same on every seed (the clean
    /// star draws no random number; the churn phase moves `wall_s` by 2 %)
    /// and keep all their repetitions for one.
    pub fn sub_seeds(self, seed: u64) -> Vec<u64> {
        match self {
            SimWorkload::FanoutStar | SimWorkload::FanoutChurn => vec![seed],
            SimWorkload::TfmccStar => (0..3)
                .map(|i| seed.wrapping_mul(3).wrapping_add(i))
                .collect(),
        }
    }
}

const GROUP: GroupId = GroupId(1);
const CBR_PORT: Port = Port(5);
const CBR_PACKET: u32 = 1000;
const CBR_RATE: f64 = 50_000.0;
const FANOUT_LEG_BANDWIDTH: f64 = 125_000.0;
const FANOUT_LEG_DELAY: f64 = 0.02;
const TFMCC_LEG_BANDWIDTH: f64 = 1_250_000.0;

/// A built, not yet run, simulation and the handles its read-out needs.
pub struct Built {
    /// The simulation.
    pub sim: Simulator,
    /// The star it runs on.
    pub star: Star,
    stop: Stop,
    /// Simulated seconds per `run_until` step.
    slice_secs: f64,
    kind: Kind,
}

/// When a run ends.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// At this simulated time.
    SimSecs(f64),
    /// At the first slice boundary after the TFMCC sender has emitted this
    /// many data packets.
    DataPackets(u64),
}

/// Simulated seconds per `fanout_*` slice: one CBR interval, so every slice
/// carries exactly one packet's fan-out (a shorter slice is mostly empty,
/// since identical legs deliver in lock-step).
const FANOUT_SLICE_SECS: f64 = CBR_PACKET as f64 / CBR_RATE;
/// Simulated seconds per `tfmcc_star` slice (~8 data packets at full rate,
/// so the packet budget is overshot by well under 1 %).
const TFMCC_SLICE_SECS: f64 = 0.05;
/// A `tfmcc_star` run that has not spent its packet budget by this simulated
/// time has stalled; it stops and fails its check.
const TFMCC_MAX_SIM_SECS: f64 = 600.0;

enum Kind {
    Fanout {
        source: AgentId,
        sinks: Vec<AgentId>,
        /// Sink `i` churns iff `i % 10 == churn_phase`.
        churn_phase: Option<usize>,
    },
    Tfmcc {
        sender: AgentId,
        receivers: Vec<AgentId>,
        /// `(one-way delay, downstream loss)` per leg.
        legs: Vec<(f64, f64)>,
    },
}

/// The `tfmcc_star` legs for `seed`: delays evenly spread over 10–60 ms,
/// downstream loss evenly spread over 0.05–0.2 %, paired by a seeded
/// permutation — every seed sees the same marginals, a different pairing.
pub fn tfmcc_legs(n: usize, seed: u64) -> Vec<(f64, f64)> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (netsim::rng::stream_seed(seed, i as u64) % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    let span = (n.max(2) - 1) as f64;
    (0..n)
        .map(|i| {
            let delay = 0.010 + 0.050 * i as f64 / span;
            let loss = 0.0005 + 0.0015 * perm[i] as f64 / span;
            (delay, loss)
        })
        .collect()
}

/// Builds `workload` for `seed`.  With [`Wrap::Plain`] the TFMCC session
/// comes from `TfmccSessionBuilder::build_population`, the API users call;
/// with [`Wrap::Traced`] it is hand-wired from the public agent
/// constructors exactly as `SessionManager::add_population_session` does, so
/// that each agent can be wrapped (a self-test pins the two digests equal).
pub fn build(workload: SimWorkload, sizes: &Sizes, seed: u64, wrap: &Wrap) -> Built {
    // Default engine configuration, pinned rather than read from the
    // environment: calendar scheduler, shared fan-out, one domain.
    let mut sim = Simulator::with_scheduler(seed, SchedulerKind::Calendar);
    sim.set_domains(1);
    sim.set_fanout_mode(FanoutMode::Shared);
    match workload {
        SimWorkload::FanoutStar | SimWorkload::FanoutChurn => {
            let n = sizes.fanout_legs;
            let legs = vec![StarLeg::clean(FANOUT_LEG_BANDWIDTH, FANOUT_LEG_DELAY); n];
            let star = star(&mut sim, &StarConfig::default(), &legs);
            let churn_phase =
                (workload == SimWorkload::FanoutChurn).then_some((seed % 10) as usize);
            let sinks = star
                .receivers
                .iter()
                .enumerate()
                .map(|(i, &node)| {
                    let mut sink = GroupSink::new(GROUP, 1.0);
                    if churn_phase == Some(i % 10) {
                        sink = sink.churning(0.25 + (i % 7) as f64 * 0.05);
                    }
                    sim.add_agent(node, CBR_PORT, wrap.boxed(sink, LAYER_SINK))
                })
                .collect();
            let dst = Dest::Multicast {
                group: GROUP,
                port: CBR_PORT,
            };
            let cbr = CbrSource::new(dst, FlowId(1), CBR_PACKET, CBR_RATE, 0.0);
            let source = sim.add_agent(star.sender, CBR_PORT, wrap.boxed(cbr, LAYER_SOURCE));
            Built {
                sim,
                star,
                stop: Stop::SimSecs(sizes.fanout_sim_secs),
                slice_secs: FANOUT_SLICE_SECS,
                kind: Kind::Fanout {
                    source,
                    sinks,
                    churn_phase,
                },
            }
        }
        SimWorkload::TfmccStar => {
            let legs = tfmcc_legs(sizes.tfmcc_receivers, seed);
            let star_legs: Vec<StarLeg> = legs
                .iter()
                .map(|&(delay, loss)| {
                    StarLeg::clean(TFMCC_LEG_BANDWIDTH, delay).with_downstream_loss(loss)
                })
                .collect();
            let star = star(&mut sim, &StarConfig::default(), &star_legs);
            // The rate series puts every sending-rate sample into the stats
            // registry, so the digest covers the whole rate trajectory.
            let builder = TfmccSessionBuilder {
                record_rate_series: true,
                ..TfmccSessionBuilder::default()
            };
            let (sender, receivers) = match wrap {
                Wrap::Plain => {
                    let specs: Vec<PopulationSpec> = star
                        .receivers
                        .iter()
                        .map(|&node| PopulationSpec::packet(node))
                        .collect();
                    let session = builder.build_population(&mut sim, star.sender, &specs);
                    (session.sender, session.receivers)
                }
                Wrap::Traced(_) => hand_wire(&mut sim, &star, &builder, wrap),
            };
            Built {
                sim,
                star,
                stop: Stop::DataPackets(sizes.tfmcc_packets),
                slice_secs: TFMCC_SLICE_SECS,
                kind: Kind::Tfmcc {
                    sender,
                    receivers,
                    legs,
                },
            }
        }
    }
}

fn hand_wire(
    sim: &mut Simulator,
    star: &Star,
    b: &TfmccSessionBuilder,
    wrap: &Wrap,
) -> (AgentId, Vec<AgentId>) {
    let sender_addr = Address::new(star.sender, b.sender_port);
    let sender_agent = TfmccSenderAgent::new(
        TfmccSender::new(b.config.clone()),
        b.group,
        b.data_port,
        b.flow,
    )
    .starting_at(b.start_at)
    .with_rate_series();
    let sender = sim.add_agent(
        star.sender,
        b.sender_port,
        wrap.boxed(sender_agent, LAYER_SENDER),
    );
    let receivers = star
        .receivers
        .iter()
        .enumerate()
        .map(|(i, &node)| {
            let agent = TfmccReceiverAgent::new(
                ReceiverId(i as u64 + 1),
                b.config.clone(),
                sender_addr,
                b.group,
                b.flow,
            )
            .with_meter_bin(b.meter_bin)
            .joining_at(0.0);
            sim.add_agent(node, b.data_port, wrap.boxed(agent, LAYER_RECEIVER))
        })
        .collect();
    (sender, receivers)
}

/// Wall time of a run, whole and per slice.
#[derive(Debug, Clone, Default)]
pub struct RunPhase {
    /// Host seconds of the whole run phase.
    pub wall_s: f64,
    /// Host milliseconds per slice.
    pub slice_ms: Vec<f64>,
    /// Live events in the queue at each slice boundary.
    pub pending: Vec<usize>,
}

impl Built {
    /// Runs the simulation to its stop condition in equal `run_until`
    /// steps, each timed and followed by a queue-depth reading.  Traced and
    /// untraced runs step identically, so they pop the same events in the
    /// same order.
    ///
    /// A sharded run (`domains > 1`) splits the world into shards and merges
    /// it back on every `run_until`, so it runs in one call instead.
    pub fn run(&mut self) -> RunPhase {
        let mut phase = RunPhase::default();
        let started = Instant::now();
        if let (Stop::SimSecs(end), true) = (self.stop, self.sim.domains() > 1) {
            self.sim.run_until(SimTime::from_secs(end));
            phase.wall_s = started.elapsed().as_secs_f64();
            return phase;
        }
        for i in 1.. {
            let t0 = Instant::now();
            let until = self.slice_secs * i as f64;
            self.sim.run_until(SimTime::from_secs(until));
            phase.slice_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            phase
                .pending
                .push(self.sim.scheduler_diagnostics().queued_events);
            let done = match self.stop {
                // Half a slice of slack absorbs the rounding of `i * slice`.
                Stop::SimSecs(end) => until >= end - 0.5 * self.slice_secs,
                Stop::DataPackets(budget) => {
                    self.data_packets() >= budget || until >= TFMCC_MAX_SIM_SECS
                }
            };
            if done {
                break;
            }
        }
        phase.wall_s = started.elapsed().as_secs_f64();
        phase
    }

    /// Data packets the TFMCC sender has emitted (0 on `fanout_*`).
    fn data_packets(&self) -> u64 {
        match &self.kind {
            Kind::Fanout { .. } => 0,
            Kind::Tfmcc { sender, .. } => {
                let agent = self.agent::<TfmccSenderAgent>(*sender);
                agent.protocol().stats().data_packets
            }
        }
    }

    /// Packets that may still be in flight to a sink when the run stops:
    /// the path latency in CBR intervals, rounded up, plus the packet sent
    /// at the final instant.
    fn fanout_in_flight() -> u64 {
        let star = StarConfig::default();
        let latency = star.sender_delay
            + FANOUT_LEG_DELAY
            + f64::from(CBR_PACKET) / star.sender_bandwidth
            + f64::from(CBR_PACKET) / FANOUT_LEG_BANDWIDTH;
        let interval = f64::from(CBR_PACKET) / CBR_RATE;
        (latency / interval).ceil() as u64 + 1
    }

    /// The workload's sanity check on a finished run.
    pub fn check(&self) -> Result<(), String> {
        match &self.kind {
            Kind::Fanout {
                source,
                sinks,
                churn_phase,
            } => {
                let sent = self.agent::<CbrSource>(*source).sent_packets();
                if sent == 0 {
                    return Err("the source sent nothing".into());
                }
                let slack = Self::fanout_in_flight();
                let mut delivered = 0u64;
                for (i, &id) in sinks.iter().enumerate() {
                    let got = self.agent::<GroupSink>(id).packets();
                    delivered += got;
                    if *churn_phase != Some(i % 10) && (got > sent || sent - got > slack) {
                        return Err(format!(
                            "sink {i} got {got} of {sent} packets (at most {slack} may be in flight)"
                        ));
                    }
                }
                if delivered > sent * sinks.len() as u64 {
                    return Err(format!(
                        "{delivered} deliveries exceed {sent} packets x {} sinks",
                        sinks.len()
                    ));
                }
                Ok(())
            }
            Kind::Tfmcc { sender, legs, .. } => {
                let proto = self.agent::<TfmccSenderAgent>(*sender).protocol();
                if let Stop::DataPackets(budget) = self.stop {
                    let sent = proto.stats().data_packets;
                    if sent < budget {
                        return Err(format!(
                            "the sender stalled: {sent} of {budget} data packets in {TFMCC_MAX_SIM_SECS} sim-s"
                        ));
                    }
                }
                if proto.clr().is_none() {
                    return Err("no CLR was elected".into());
                }
                let size = f64::from(TfmccConfig::default().packet_size);
                let hub_delay = StarConfig::default().sender_delay;
                let worst = legs
                    .iter()
                    .map(|&(delay, loss)| padhye_throughput(size, 2.0 * (delay + hub_delay), loss))
                    .fold(f64::INFINITY, f64::min);
                let rate = proto.current_rate();
                if !(0.2 * worst..=1.5 * worst).contains(&rate) {
                    return Err(format!(
                        "final rate {rate:.0} B/s outside [0.2, 1.5] x {worst:.0} B/s (worst leg)"
                    ));
                }
                Ok(())
            }
        }
    }

    fn agent<T: Agent>(&self, id: AgentId) -> &T {
        self.sim
            .agent::<T>(id)
            .expect("the handle was made for an agent of this type")
    }

    /// Whole-run counters read through public accessors.
    pub fn counters(&self) -> Counters {
        let mut c = Counters {
            events: self.sim.events_processed(),
            ..Counters::default()
        };
        // `star()` adds the duplex sender link, then one down and one up
        // link per leg, to an empty simulation: link ids are dense.
        for id in 0..2 + 2 * self.star.receivers.len() {
            let s = self.sim.link_stats(LinkId(id));
            c.link.enqueued += s.enqueued;
            c.link.dropped_queue += s.dropped_queue;
            c.link.dropped_loss += s.dropped_loss;
            c.link.delivered += s.delivered;
            c.link.delivered_bytes += s.delivered_bytes;
        }
        c.joins = self.sim.stats().counter("multicast.agent_joins") as u64;
        c.leaves = self.sim.stats().counter("multicast.agent_leaves") as u64;
        match &self.kind {
            Kind::Fanout { source, sinks, .. } => {
                c.source_packets = self.agent::<CbrSource>(*source).sent_packets();
                c.delivered = sinks
                    .iter()
                    .map(|&id| self.agent::<GroupSink>(id).packets())
                    .sum();
            }
            Kind::Tfmcc {
                sender, receivers, ..
            } => {
                let proto = self.agent::<TfmccSenderAgent>(*sender).protocol();
                c.sender = proto.stats();
                c.final_rate = proto.current_rate();
                c.known_receivers = proto.known_receivers();
                c.source_packets = c.sender.data_packets;
                for &id in receivers {
                    let r = self.agent::<TfmccReceiverAgent>(id).protocol().stats();
                    c.receiver.data_packets += r.data_packets;
                    c.receiver.feedback_sent += r.feedback_sent;
                    c.receiver.feedback_suppressed += r.feedback_suppressed;
                    c.receiver.rtt_measurements += r.rtt_measurements;
                }
                c.delivered = c.receiver.data_packets;
            }
        }
        c
    }

    /// A digest of the run's simulated statistics: the stats registry's own
    /// digest (every counter and, for `tfmcc_star`, the whole rate series)
    /// folded with the run's counters `c` (event count, link totals) and
    /// every agent's packet count.  Equal digests mean the two runs
    /// simulated the same thing.
    pub fn digest(&self, c: &Counters) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.sim.stats().digest());
        for v in [
            c.events,
            c.link.enqueued,
            c.link.dropped_queue,
            c.link.dropped_loss,
            c.link.delivered,
            c.link.delivered_bytes,
            c.source_packets,
            c.final_rate.to_bits(),
            c.sender.feedback_received,
            c.sender.clr_changes,
        ] {
            h.write_u64(v);
        }
        match &self.kind {
            Kind::Fanout { sinks, .. } => {
                for &id in sinks {
                    h.write_u64(self.agent::<GroupSink>(id).packets());
                }
            }
            Kind::Tfmcc { receivers, .. } => {
                for &id in receivers {
                    let r = self.agent::<TfmccReceiverAgent>(id).protocol();
                    h.write_u64(r.stats().data_packets);
                    h.write_u64(r.loss_event_rate().to_bits());
                }
            }
        }
        h.finish()
    }

    /// Mean downstream loss probability over the legs (0 on the clean
    /// `fanout_*` star).
    pub fn mean_leg_loss(&self) -> f64 {
        match &self.kind {
            Kind::Fanout { .. } => 0.0,
            Kind::Tfmcc { legs, .. } => {
                legs.iter().map(|&(_, loss)| loss).sum::<f64>() / legs.len() as f64
            }
        }
    }
}

/// Whole-run counters of a finished simulation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Events the engine dispatched.
    pub events: u64,
    /// Link counters summed over every link.
    pub link: LinkStats,
    /// Agent-level group joins.
    pub joins: u64,
    /// Agent-level group leaves.
    pub leaves: u64,
    /// Packets the source (CBR or TFMCC sender) emitted.
    pub source_packets: u64,
    /// Packets delivered to sinks / receivers.
    pub delivered: u64,
    /// TFMCC sender statistics (zero on `fanout_*`).
    pub sender: SenderStats,
    /// TFMCC receiver statistics summed over receivers (zero on `fanout_*`).
    pub receiver: ReceiverStats,
    /// The TFMCC sender's final rate in B/s (zero on `fanout_*`).
    pub final_rate: f64,
    /// Receivers the TFMCC sender has heard from (zero on `fanout_*`).
    pub known_receivers: usize,
}

/// One repetition of a simulation workload: set-up, run, read-out.
#[derive(Debug, Clone)]
pub struct SimRep {
    /// Host seconds building topology and agents, once per build of the
    /// repetition (see [`SETUP_BUILDS`]).
    pub setup_s: Vec<f64>,
    /// The run phase.
    pub phase: RunPhase,
    /// Peak live heap over set-up + run, above the heap held before it.
    pub peak_heap_bytes: i64,
    /// Live heap at the end of the run, above the heap held before it.
    pub end_heap_bytes: i64,
    /// Allocation calls during the run phase.
    pub run_alloc_calls: u64,
    /// Bytes allocated during the run phase.
    pub run_alloc_bytes: u64,
    /// The run's digest.
    pub digest: u64,
    /// The stats registry's own digest, which a sharded run must reproduce
    /// (its event count, and so [`Self::digest`], legitimately differs).
    pub stats_digest: u64,
    /// The sanity check's verdict.
    pub check: Result<(), String>,
    /// Whole-run counters.
    pub counters: Counters,
    /// Mean downstream loss probability over the legs.
    pub mean_leg_loss: f64,
    /// Bandwidth of a leg in B/s.
    pub leg_bandwidth: f64,
    /// Events per domain of a sharded run (empty at one domain).
    pub domain_events: Vec<u64>,
    /// Simulated seconds the run covered.
    pub sim_secs: f64,
}

/// Builds per repetition.  Set-up takes milliseconds, so it is built and
/// timed this many times; the last build is the one that runs.
pub const SETUP_BUILDS: usize = 5;

/// Runs one repetition.  `domains > 1` shards the run across that many
/// worker threads (a layer measurement; every end-to-end number is taken at
/// `domains = 1`).
pub fn rep(workload: SimWorkload, sizes: &Sizes, seed: u64, wrap: &Wrap, domains: usize) -> SimRep {
    let mut setup_s = Vec::with_capacity(SETUP_BUILDS);
    for _ in 1..SETUP_BUILDS {
        let t0 = Instant::now();
        let built = build(workload, sizes, seed, wrap);
        setup_s.push(t0.elapsed().as_secs_f64());
        drop(built);
    }
    let base = alloc::mark();
    alloc::reset_peak();
    let t0 = Instant::now();
    let mut built = build(workload, sizes, seed, wrap);
    built.sim.set_domains(domains);
    setup_s.push(t0.elapsed().as_secs_f64());
    built.finish(setup_s, base)
}

impl Built {
    /// Runs the built simulation and reads everything out.  `base` is the
    /// allocator reading taken before the build began, with the high-water
    /// mark restarted there.
    pub fn finish(mut self, setup_s: Vec<f64>, base: alloc::HeapMark) -> SimRep {
        let before_run = alloc::mark();
        let phase = self.run();
        let after_run = alloc::mark();
        let counters = self.counters();
        SimRep {
            setup_s,
            phase,
            peak_heap_bytes: alloc::peak_bytes() - base.live,
            end_heap_bytes: after_run.live - base.live,
            run_alloc_calls: after_run.calls - before_run.calls,
            run_alloc_bytes: after_run.bytes - before_run.bytes,
            digest: self.digest(&counters),
            stats_digest: self.sim.stats().digest(),
            check: self.check(),
            counters,
            mean_leg_loss: self.mean_leg_loss(),
            leg_bandwidth: match self.kind {
                Kind::Fanout { .. } => FANOUT_LEG_BANDWIDTH,
                Kind::Tfmcc { .. } => TFMCC_LEG_BANDWIDTH,
            },
            domain_events: self.sim.domain_event_counts().to_vec(),
            sim_secs: self.sim.now().as_secs(),
        }
    }
}
