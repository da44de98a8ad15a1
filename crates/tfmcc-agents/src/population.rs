//! The hybrid packet/fluid receiver tier: one agent stands for an entire
//! *population* of receivers.
//!
//! Packet-level receiver agents are exact but cost memory and events per
//! receiver; sessions of 10⁶ receivers are out of reach.  The fluid tier
//! replaces most of the population with a single [`FluidPopulationAgent`]
//! whose behaviour is computed in closed form:
//!
//! * the population's `(count, loss distribution, RTT distribution)` is
//!   quantized into [`FLUID_BINS`] rate bins
//!   ([`PopulationProfile::quantize`]): bin `k` of `Q` takes the
//!   `(k + ½)/Q` quantile of both marginals (a comonotone coupling — the
//!   lossiest receivers are also assumed to have the longest RTTs, the
//!   conservative pairing for the minimum calculated rate that drives
//!   TFMCC) and carries the calculated rate of that quantile receiver from
//!   the TCP throughput equation ([`padhye_throughput`], paper Eq. 1);
//! * per feedback round, every bin places **one** deterministic
//!   representative timer: the expected minimum `1/(n + 1)` of its `n`
//!   members' uniform draws, fed through the exact
//!   [`FeedbackPlanner::timer`] formula the packet-level receivers use.  The
//!   bin whose timer fires first reports; any other bin reports only if its
//!   timer fires before the first report has propagated back (one maximum
//!   RTT later) **and** [`FeedbackPlanner::should_cancel`] would not cancel
//!   it against the first bin's rate — `O(bins)` work per round regardless
//!   of the receiver count;
//! * reporting bins reach the sender as [`PopulationReport`]s: ordinary
//!   feedback packets under synthetic receiver ids, weighted by the number
//!   of receivers the bin stands for, so
//!   [`TfmccSender::session_population`](tfmcc_proto::sender::TfmccSender::session_population)
//!   still counts every modeled receiver.
//!
//! The packet-level cohort — always including the current (or candidate)
//! CLR — runs unchanged through netsim; see
//! [`TfmccSessionBuilder::build_population`](crate::session::TfmccSessionBuilder::build_population)
//! for the wiring and the CLR-cohort promotion rule.
//!
//! Rates are bytes per second, times are seconds, loss-event rates are
//! dimensionless fractions in `[0, 1)`.

use netsim::packet::{Address, Dest, FlowId, GroupId, NodeId, Packet, Payload};
use netsim::sim::{Agent, Context};

use tfmcc_model::order_stats::expected_min_uniform;
use tfmcc_model::throughput::padhye_throughput;
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
/// Number of quantile bins a fluid population is quantized into.
pub const FLUID_BINS: usize = 8;

/// A one-dimensional marginal distribution, described by its quantile
/// function.  Deliberately small: the hybrid tier needs deterministic
/// quantiles, not sampling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// Every receiver shares the same value.
    Point(f64),
    /// Uniform on `[lo, hi]`.
    Uniform {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (inclusive).
        hi: f64,
    },
}

impl Dist {
    /// The `q`-quantile of the distribution, `q` in `[0, 1)`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..1.0).contains(&q), "quantile level must be in [0, 1)");
        match *self {
            Dist::Point(v) => v,
            Dist::Uniform { lo, hi } => lo + q * (hi - lo),
        }
    }

    /// Panics (naming the offending parameter) unless the distribution's
    /// parameters are finite and ordered.
    pub fn validate(&self, what: &str) {
        match *self {
            Dist::Point(v) => {
                assert!(v.is_finite(), "{what}: point value must be finite, got {v}");
            }
            Dist::Uniform { lo, hi } => {
                assert!(
                    lo.is_finite() && hi.is_finite() && lo <= hi,
                    "{what}: uniform bounds must be finite with lo <= hi, got [{lo}, {hi}]"
                );
            }
        }
    }
}

/// The aggregate description of a fluid receiver population.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationProfile {
    /// Number of receivers the population stands for.
    pub count: u64,
    /// Marginal distribution of per-receiver loss-event rates, in `[0, 1)`.
    pub loss: Dist,
    /// Marginal distribution of per-receiver RTTs, in seconds (positive).
    pub rtt: Dist,
    /// Number of quantile bins the population is quantized into.
    pub bins: usize,
}

/// One quantized slice of a population: `count` receivers modeled at the
/// bin's quantile loss rate and RTT.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateBin {
    /// Receivers this bin stands for.
    pub count: u64,
    /// Loss-event rate at the bin's quantile.
    pub loss_rate: f64,
    /// RTT at the bin's quantile, seconds.
    pub rtt: f64,
    /// Calculated (TCP-equation) rate of the bin, bytes/s; infinite for a
    /// lossless bin.
    pub rate: f64,
}

impl PopulationProfile {
    /// Validates the profile, panicking with a message naming the offending
    /// field.  The panics are part of the documented API surface (see the
    /// `population_api` test).
    pub fn validate(&self) {
        assert!(self.count > 0, "a fluid population must have count > 0");
        assert!(
            (1..=64).contains(&self.bins),
            "fluid population bins must be in 1..=64, got {}",
            self.bins
        );
        self.loss.validate("fluid loss distribution");
        self.rtt.validate("fluid rtt distribution");
        // Check the quantile range actually produced, not just parameters.
        for k in 0..self.bins {
            let q = (k as f64 + 0.5) / self.bins as f64;
            let p = self.loss.quantile(q);
            assert!(
                (0.0..1.0).contains(&p),
                "fluid loss distribution must stay within [0, 1), \
                 quantile {q:.3} gives {p}"
            );
            let rtt = self.rtt.quantile(q);
            assert!(
                rtt.is_finite() && rtt > 0.0,
                "fluid rtt distribution must stay positive and finite, \
                 quantile {q:.3} gives {rtt}"
            );
        }
    }

    /// Quantizes the population into [`RateBin`]s for the given packet size,
    /// ordered by ascending quantile (so descending calculated rate never
    /// holds in general, but the comonotone coupling makes the *last* bin
    /// the lowest-rate one).  Receiver counts differ by at most one across
    /// bins and sum exactly to `count`.
    pub fn quantize(&self, packet_size: f64) -> Vec<RateBin> {
        self.validate();
        let bins = self.bins.min(self.count as usize).max(1);
        let base = self.count / bins as u64;
        let extra = (self.count % bins as u64) as usize;
        (0..bins)
            .map(|k| {
                let q = (k as f64 + 0.5) / bins as f64;
                let loss_rate = self.loss.quantile(q);
                let rtt = self.rtt.quantile(q);
                let rate = if loss_rate <= 0.0 {
                    // Lossless receivers are limited by the sender, not the
                    // equation; treat their calculated rate as unbounded.
                    f64::INFINITY
                } else {
                    padhye_throughput(packet_size, rtt, loss_rate)
                };
                RateBin {
                    count: base + u64::from(k < extra),
                    loss_rate,
                    rtt,
                    rate,
                }
            })
            .collect()
    }
}

/// One deterministic feedback round over `bins`: the `(fire_at, bin index)`
/// of every bin that reports, ordered by fire time (ties by bin index), with
/// `fire_at` in seconds from the round's start.  Bins with no receivers
/// never report.
///
/// * `planner` — the planner (bias constants, `N` estimate) the
///   packet-level receivers use,
/// * `sending_rate` — the sender's current rate (denominator of the bias
///   ratio),
/// * `window` — the feedback window `T` in seconds,
/// * `suppression_delay` — `None` for a census round, in which every bin
///   reports; otherwise how long after the first report fires the
///   suppressing echo reaches the other bins (typically about one RTT).
pub(crate) fn feedback_round(
    planner: &FeedbackPlanner,
    bins: &[RateBin],
    sending_rate: f64,
    window: f64,
    suppression_delay: Option<f64>,
) -> Vec<(f64, usize)> {
    assert!(
        sending_rate > 0.0,
        "aggregate round needs a positive sending rate"
    );
    let mut timers: Vec<(f64, usize)> = bins
        .iter()
        .enumerate()
        .filter(|(_, b)| b.count > 0)
        .map(|(i, b)| {
            let ratio = if b.rate.is_finite() {
                b.rate / sending_rate
            } else {
                1.0
            };
            let uniform = expected_min_uniform(b.count, 1.0);
            (planner.timer(ratio, window, uniform), i)
        })
        .collect();
    timers.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let (Some(delay), Some(&(first_at, first))) = (suppression_delay, timers.first()) else {
        return timers;
    };
    assert!(delay >= 0.0, "suppression delay must be non-negative");
    let horizon = first_at + delay;
    let first_rate = bins[first].rate;
    timers.retain(|&(at, i)| {
        i == first || (at <= horizon && !planner.should_cancel(bins[i].rate, first_rate))
    });
    timers
}

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
}

impl FluidSpec {
    /// A population of `count` receivers, quantized into [`FLUID_BINS`]
    /// bins.
    pub fn new(node: NodeId, count: u64, loss: Dist, rtt: Dist) -> Self {
        FluidSpec {
            node,
            count,
            loss,
            rtt,
        }
    }

    /// The population's aggregate profile (validated on quantization).
    pub fn profile(&self) -> PopulationProfile {
        PopulationProfile {
            count: self.count,
            loss: self.loss,
            rtt: self.rtt,
            bins: FLUID_BINS,
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

/// Timer tokens encode `(generation, report index)`; the report index fits
/// in 6 bits because bins are capped at 64.
const TOKEN_STRIDE: u64 = 64;

/// Runs a fluid receiver population inside the simulator.
///
/// The agent joins the multicast group, tracks feedback rounds from the data
/// headers, and per round schedules the deterministic reports of its
/// quantized bins.  Its first observed round is a **census**: every bin
/// reports (unsuppressed) so the sender's aggregator learns the full rate
/// distribution and the population head-count; subsequent rounds apply the
/// closed-form suppression and typically produce a single report.
pub struct FluidPopulationAgent {
    config: TfmccConfig,
    bins: Vec<RateBin>,
    id_base: u64,
    sender_addr: Address,
    group: GroupId,
    flow: FlowId,
    flow_counter: String,
    /// `None` until the first data packet, so the round it starts is the
    /// census.
    current_round: Option<u64>,
    /// The current round's `(fire_at, bin index)` reports, indexed by the
    /// timer token's report slot.
    scheduled: Vec<(f64, usize)>,
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
        let bins = spec.profile().quantize(f64::from(config.packet_size));
        let last_sender_rate = config.initial_rate();
        FluidPopulationAgent {
            config,
            bins,
            id_base,
            sender_addr,
            group,
            flow_counter: format!("tfmcc.population_reports.flow.{}", flow.0),
            flow,
            current_round: None,
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
        self.bins.iter().map(|b| b.count).sum()
    }

    /// The quantized rate bins the agent reports from.
    pub fn bins(&self) -> &[RateBin] {
        &self.bins
    }

    /// Population-weighted reports sent so far.
    pub fn reports_sent(&self) -> u64 {
        self.reports_sent
    }

    fn send_report(&mut self, ctx: &mut Context<'_>, bin_index: usize) {
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
                weight: bin.count,
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
        let Some(&(_, bin_index)) = self.scheduled.get(slot) else {
            return;
        };
        self.send_report(ctx, bin_index);
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
        // this round's reports.  The first round is the census; later ones
        // are suppressed, the first report's echo propagating back within
        // roughly the maximum RTT.
        let suppression_delay = self.current_round.map(|_| data.max_rtt);
        self.current_round = Some(data.feedback_round);
        self.generation += 1;
        let sending_rate = data.current_rate.max(1.0);
        let window = self.config.feedback_window(data.max_rtt, sending_rate);
        self.scheduled = feedback_round(
            &FeedbackPlanner::default(),
            &self.bins,
            sending_rate,
            window,
            suppression_delay,
        );
        for (slot, &(fire_at, _)) in self.scheduled.iter().enumerate() {
            ctx.schedule(fire_at, self.generation * TOKEN_STRIDE + slot as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(count: u64, bins: usize) -> PopulationProfile {
        PopulationProfile {
            count,
            loss: Dist::Uniform {
                lo: 0.001,
                hi: 0.01,
            },
            rtt: Dist::Uniform { lo: 0.04, hi: 0.12 },
            bins,
        }
    }

    #[test]
    fn quantile_functions_match_definitions() {
        assert_eq!(Dist::Point(3.0).quantile(0.7), 3.0);
        assert_eq!(Dist::Uniform { lo: 1.0, hi: 3.0 }.quantile(0.5), 2.0);
        assert_eq!(Dist::Uniform { lo: 1.0, hi: 3.0 }.quantile(0.0), 1.0);
    }

    #[test]
    fn bin_counts_sum_exactly() {
        for (count, bins) in [(10u64, 4usize), (1_000_000, 8), (3, 8), (7, 7)] {
            let q = profile(count, bins).quantize(1000.0);
            assert_eq!(q.iter().map(|b| b.count).sum::<u64>(), count);
            assert!(q.iter().all(|b| b.count > 0));
            // Counts are balanced to within one receiver.
            let min = q.iter().map(|b| b.count).min().unwrap();
            let max = q.iter().map(|b| b.count).max().unwrap();
            assert!(max - min <= 1, "count {count} bins {bins}: {min}..{max}");
        }
    }

    #[test]
    fn comonotone_coupling_makes_last_bin_slowest() {
        let q = profile(10_000, 8).quantize(1000.0);
        for w in q.windows(2) {
            assert!(w[1].loss_rate >= w[0].loss_rate);
            assert!(w[1].rtt >= w[0].rtt);
            assert!(w[1].rate <= w[0].rate);
        }
    }

    #[test]
    fn lossless_bins_have_unbounded_rate() {
        let p = PopulationProfile {
            count: 100,
            loss: Dist::Point(0.0),
            rtt: Dist::Point(0.1),
            bins: 4,
        };
        let q = p.quantize(1000.0);
        assert!(q.iter().all(|b| b.rate.is_infinite()));
    }

    #[test]
    #[should_panic(expected = "count > 0")]
    fn zero_count_panics() {
        profile(0, 8).validate();
    }

    #[test]
    #[should_panic(expected = "bins must be in 1..=64")]
    fn zero_bins_panics() {
        profile(10, 0).validate();
    }

    #[test]
    #[should_panic(expected = "loss distribution must stay within [0, 1)")]
    fn out_of_range_loss_panics() {
        PopulationProfile {
            count: 10,
            loss: Dist::Uniform { lo: 0.5, hi: 1.5 },
            rtt: Dist::Point(0.1),
            bins: 4,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "rtt distribution must stay positive")]
    fn non_positive_rtt_panics() {
        PopulationProfile {
            count: 10,
            loss: Dist::Point(0.01),
            rtt: Dist::Point(0.0),
            bins: 4,
        }
        .validate();
    }

    #[test]
    fn fluid_spec_builders_compose() {
        let spec = FluidSpec::new(
            NodeId(3),
            1_000_000,
            Dist::Point(0.01),
            Dist::Uniform { lo: 0.04, hi: 0.1 },
        );
        let profile = spec.profile();
        assert_eq!(profile.count, 1_000_000);
        assert_eq!(profile.quantize(1000.0).len(), FLUID_BINS);
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
