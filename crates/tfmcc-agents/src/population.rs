//! The hybrid packet/fluid receiver tier: one agent stands for an entire
//! *population* of receivers.
//!
//! Packet-level receiver agents are exact but cost memory and events per
//! receiver; sessions of 10⁶ receivers are out of reach.  The fluid tier
//! replaces most of the population with a single [`FluidPopulationAgent`]
//! whose behaviour is computed analytically from `tfmcc-model`:
//!
//! * the population's `(count, loss distribution, RTT distribution)` is
//!   quantized into at most 64 rate bins
//!   ([`PopulationProfile::quantize`]), each bin carrying the calculated
//!   rate of its quantile receiver;
//! * per feedback round, every bin places one **deterministic**
//!   representative timer at the expected minimum of its members' biased
//!   exponential draws, and the suppression dynamics are evaluated in
//!   closed form ([`tfmcc_feedback::aggregate_round`]) — `O(bins)` work per
//!   round regardless of the receiver count;
//! * surviving bins report to the sender as
//!   [`PopulationReport`]s: ordinary feedback packets under synthetic
//!   receiver ids, weighted by the number of receivers the bin stands for,
//!   so [`TfmccSender::session_population`](tfmcc_proto::sender::TfmccSender::session_population)
//!   still counts every modeled receiver.
//!
//! The packet-level cohort — always including the current (or candidate)
//! CLR — runs unchanged through netsim; see
//! [`TfmccSessionBuilder::build_population`](crate::session::TfmccSessionBuilder::build_population)
//! for the wiring and the CLR-cohort promotion rule.

use netsim::packet::{Address, Dest, FlowId, GroupId, NodeId, Packet, Payload};
use netsim::sim::{Agent, Context};

use tfmcc_feedback::aggregate::{aggregate_round, aggregate_timers, AggregateBin};
use tfmcc_model::population::{Dist, PopulationProfile, RateBin};
use tfmcc_proto::config::TfmccConfig;
use tfmcc_proto::feedback::FeedbackPlanner;
use tfmcc_proto::packets::{DataPacket, FeedbackPacket, PopulationReport, ReceiverId};

/// Base of the synthetic [`ReceiverId`] space used by fluid population bins.
/// Packet-level receivers are numbered from 1, so any id at or above this
/// base is a fluid bin; population `p`'s bin `k` reports as
/// `FLUID_ID_BASE + (p << FLUID_ID_POP_SHIFT) + k`.
pub const FLUID_ID_BASE: u64 = 1 << 48;
/// Bit shift separating the population index from the bin index within the
/// synthetic id space (bins are capped at 64 ≪ 2¹⁶).
pub const FLUID_ID_POP_SHIFT: u32 = 16;

/// A fluid population attached to one node: `count` receivers whose loss and
/// RTT marginals are given as distributions, represented by a single agent.
#[derive(Debug, Clone)]
pub struct FluidSpec {
    /// Node the population's aggregate agent runs on (the multicast tree
    /// delivers one copy of the data stream to it).
    pub node: NodeId,
    /// Number of receivers the population stands for.
    pub count: u64,
    /// Marginal distribution of per-receiver loss-event rates, in `[0, 1)`.
    pub loss: Dist,
    /// Marginal distribution of per-receiver RTTs, in seconds.
    pub rtt: Dist,
    /// Number of quantile bins (1..=64) the population is quantized into.
    pub bins: usize,
}

impl FluidSpec {
    /// A population of `count` receivers with the default 8-bin
    /// quantization.
    pub fn new(node: NodeId, count: u64, loss: Dist, rtt: Dist) -> Self {
        FluidSpec {
            node,
            count,
            loss,
            rtt,
            bins: 8,
        }
    }

    /// The population's aggregate profile (validated on quantization).
    pub fn profile(&self) -> PopulationProfile {
        PopulationProfile {
            count: self.count,
            loss: self.loss,
            rtt: self.rtt,
            bins: self.bins,
        }
    }
}

/// One entry of a session's receiver population: either an exact
/// packet-level receiver or a fluid aggregate.
///
/// This is the unified surface the session builders accept — a session is
/// specified as a slice of `PopulationSpec`s, mixing the two tiers freely
/// (as long as at least one packet-level receiver anchors the CLR cohort).
#[derive(Debug, Clone)]
pub enum PopulationSpec {
    /// An exact packet-level receiver (join/leave/churn schedule included).
    Packet(crate::session::ReceiverSpec),
    /// A fluid population represented by one aggregate agent.
    Fluid(FluidSpec),
}

impl PopulationSpec {
    /// A packet-level receiver that participates for the whole simulation.
    pub fn packet(node: NodeId) -> Self {
        PopulationSpec::Packet(crate::session::ReceiverSpec::always(node))
    }

    /// Wraps a slice of packet-level receiver specs.
    pub fn packets(specs: &[crate::session::ReceiverSpec]) -> Vec<PopulationSpec> {
        specs.iter().map(|s| PopulationSpec::Packet(*s)).collect()
    }
}

/// Timer tokens encode `(generation, response index)`; the response index
/// fits in 6 bits because bins are capped at 64.
const TOKEN_STRIDE: u64 = 64;

/// Runs a fluid receiver population inside the simulator.
///
/// The agent joins the multicast group, tracks feedback rounds from the data
/// headers, and per round schedules the deterministic aggregate responses of
/// its quantized bins.  Its first observed round is a **census**: every bin
/// reports (unsuppressed) so the sender's aggregator learns the full rate
/// distribution and the population head-count; subsequent rounds apply the
/// closed-form suppression and typically produce a single report.
pub struct FluidPopulationAgent {
    profile: PopulationProfile,
    config: TfmccConfig,
    planner: FeedbackPlanner,
    bins: Vec<RateBin>,
    id_base: u64,
    sender_addr: Address,
    group: GroupId,
    flow: FlowId,
    flow_counter: String,
    current_round: Option<u64>,
    census_done: bool,
    /// `(bin index, weight)` of each response scheduled for the current
    /// round, indexed by the timer token's response slot.
    scheduled: Vec<(usize, u64)>,
    generation: u64,
    last_data_timestamp: f64,
    last_data_at: f64,
    last_sender_rate: f64,
    reports_sent: u64,
}

impl FluidPopulationAgent {
    /// Creates the agent for one fluid population.  `id_base` is the first
    /// synthetic receiver id (bin `k` reports as `id_base + k`); reports are
    /// unicast to `sender_addr` and tagged with `flow`.
    pub fn new(
        spec: &FluidSpec,
        config: TfmccConfig,
        id_base: u64,
        sender_addr: Address,
        group: GroupId,
        flow: FlowId,
    ) -> Self {
        let profile = spec.profile();
        profile.validate();
        let bins = profile.quantize(f64::from(config.packet_size));
        let planner = FeedbackPlanner::from_config(&config);
        let last_sender_rate = config.initial_rate();
        FluidPopulationAgent {
            profile,
            config,
            planner,
            bins,
            id_base,
            sender_addr,
            group,
            flow_counter: format!("tfmcc.population_reports.flow.{}", flow.0),
            flow,
            current_round: None,
            census_done: false,
            scheduled: Vec::new(),
            generation: 0,
            last_data_timestamp: 0.0,
            last_data_at: 0.0,
            last_sender_rate,
            reports_sent: 0,
        }
    }

    /// Number of receivers the population stands for.
    pub fn population(&self) -> u64 {
        self.profile.count
    }

    /// The quantized rate bins the agent reports from.
    pub fn bins(&self) -> &[RateBin] {
        &self.bins
    }

    /// Population-weighted reports sent so far.
    pub fn reports_sent(&self) -> u64 {
        self.reports_sent
    }

    fn send_report(&mut self, ctx: &mut Context<'_>, bin_index: usize, weight: u64) {
        let now = ctx.now().as_secs();
        let bin = self.bins[bin_index];
        let fb = FeedbackPacket {
            receiver: ReceiverId(self.id_base + bin_index as u64),
            timestamp: now,
            echo_timestamp: self.last_data_timestamp,
            echo_delay: (now - self.last_data_at).max(0.0),
            calculated_rate: bin.rate,
            loss_event_rate: bin.loss_rate,
            receive_rate: self.last_sender_rate,
            rtt: bin.rtt,
            has_rtt_measurement: true,
            feedback_round: self.current_round.unwrap_or(0),
            leaving: false,
        };
        let pkt = Packet::new(
            ctx.addr(),
            Dest::Unicast(self.sender_addr),
            PopulationReport::WIRE_SIZE,
            self.flow,
            Payload::new(PopulationReport {
                feedback: fb,
                weight,
            }),
        );
        ctx.send(pkt);
        self.reports_sent += 1;
        ctx.stats().add("tfmcc.population_reports", 1.0);
        ctx.stats().add(&self.flow_counter, 1.0);
    }
}

impl Agent for FluidPopulationAgent {
    fn start(&mut self, ctx: &mut Context<'_>) {
        ctx.join_group(self.group);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if token / TOKEN_STRIDE != self.generation {
            return; // stale timer from a superseded round
        }
        let slot = (token % TOKEN_STRIDE) as usize;
        let Some(&(bin_index, weight)) = self.scheduled.get(slot) else {
            return;
        };
        self.send_report(ctx, bin_index, weight);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        let Some(data) = packet.payload.downcast_ref::<DataPacket>() else {
            return;
        };
        let now = ctx.now().as_secs();
        self.last_data_timestamp = data.timestamp;
        self.last_data_at = now;
        self.last_sender_rate = data.current_rate;
        if self.current_round == Some(data.feedback_round) {
            return;
        }
        // A new feedback round: supersede any pending timers and lay out
        // this round's deterministic aggregate responses.
        self.current_round = Some(data.feedback_round);
        self.generation += 1;
        let sending_rate = data.current_rate.max(1.0);
        let window = self.config.feedback_window(data.max_rtt, sending_rate);
        let agg: Vec<AggregateBin> = self
            .bins
            .iter()
            .map(|b| AggregateBin {
                count: b.count,
                rate: b.rate,
                rtt: b.rtt,
            })
            .collect();
        let responses = if self.census_done {
            // Steady state: closed-form suppression; the echo of the first
            // response propagates back within roughly the maximum RTT.
            aggregate_round(&self.planner, &agg, sending_rate, window, data.max_rtt)
        } else {
            // First round: census — every bin reports so the sender learns
            // the full distribution and head-count.
            self.census_done = true;
            aggregate_timers(&self.planner, &agg, sending_rate, window)
        };
        self.scheduled.clear();
        for (slot, r) in responses.iter().enumerate() {
            self.scheduled.push((r.bin, r.weight));
            ctx.schedule(r.fire_at, self.generation * TOKEN_STRIDE + slot as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fluid_spec_builders_compose() {
        let mut spec = FluidSpec::new(
            NodeId(3),
            1_000_000,
            Dist::Point(0.01),
            Dist::Uniform { lo: 0.04, hi: 0.1 },
        );
        spec.bins = 16;
        assert_eq!(spec.bins, 16);
        let profile = spec.profile();
        assert_eq!(profile.count, 1_000_000);
        assert_eq!(profile.quantize(1000.0).len(), 16);
    }

    #[test]
    fn population_spec_helpers_cover_both_tiers() {
        let p = PopulationSpec::packet(NodeId(1));
        assert!(matches!(p, PopulationSpec::Packet(_)));
        let f = PopulationSpec::Fluid(FluidSpec::new(
            NodeId(2),
            10,
            Dist::Point(0.01),
            Dist::Point(0.05),
        ));
        assert!(matches!(f, PopulationSpec::Fluid(_)));
        let wrapped = PopulationSpec::packets(&[
            crate::session::ReceiverSpec::always(NodeId(1)),
            crate::session::ReceiverSpec::always(NodeId(2)),
        ]);
        assert_eq!(wrapped.len(), 2);
        assert!(wrapped
            .iter()
            .all(|s| matches!(s, PopulationSpec::Packet(_))));
    }

    #[test]
    fn fluid_ids_do_not_collide_with_packet_ids() {
        // Packet receivers are numbered 1.., fluid bins from FLUID_ID_BASE.
        assert!(FLUID_ID_BASE > u64::from(u32::MAX));
        let pop_1_bin_63 = FLUID_ID_BASE + (1 << FLUID_ID_POP_SHIFT) + 63;
        let pop_2_bin_0 = FLUID_ID_BASE + (2 << FLUID_ID_POP_SHIFT);
        assert!(pop_1_bin_63 < pop_2_bin_0);
    }
}
