//! The TFMCC model: one sender, N receivers, an adversarial network.
//!
//! [`McWorld`] holds the *real* protocol state machines from `tfmcc-proto` —
//! nothing is mocked — plus an abstract network: a bag of in-flight messages
//! the scheduler delivers, drops, duplicates or reorders one
//! [`Action`] at a time.  The sender is run twice in lockstep, once on the
//! [`IncrementalAggregator`] and once on the [`ReferenceAggregator`], so the
//! aggregator-agreement invariant can compare them after every step.
//!
//! All nondeterminism of a real deployment is reified as explicit actions:
//! time only advances via [`Action::Tick`], messages only move via
//! [`Action::Deliver`] (any order — reordering is free), and loss,
//! duplication and receiver churn are budgeted actions.  The budgets plus
//! the time horizon make the reachable state space finite, so
//! [`explore`](crate::explore::explore) can exhaust it.
//!
//! [`IncrementalAggregator`]: tfmcc_proto::aggregator::IncrementalAggregator
//! [`ReferenceAggregator`]: tfmcc_proto::aggregator::ReferenceAggregator

use std::fmt;
use std::hash::Hasher;
use std::str::FromStr;

use tfmcc_proto::aggregator::ReferenceAggregator;
use tfmcc_proto::config::TfmccConfig;
use tfmcc_proto::packets::{DataPacket, FeedbackPacket, ReceiverId};
use tfmcc_proto::receiver::TfmccReceiver;
use tfmcc_proto::sender::TfmccSender;
use tfmcc_proto::step::{ReceiverStep, SenderStep, StateFingerprint};

use crate::explore::Model;
use crate::hasher::Fnv1a;
use crate::invariants::{default_invariants, Invariant};

/// Tolerance for timer-deadline comparisons, matching the receiver's own
/// `on_timer` slack.
const TIMER_EPS: f64 = 1e-9;

/// Checker configuration: the protocol parameters plus the adversary's
/// budgets, which bound the reachable state space.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Number of receivers (ids 1..=receivers).
    pub receivers: usize,
    /// Protocol parameters shared by the sender and all receivers.
    pub protocol: TfmccConfig,
    /// Seconds added to the clock by one [`Action::Tick`].
    pub tick: f64,
    /// Time horizon: no further ticks once the clock reaches it.
    pub max_time: f64,
    /// How many messages the adversary may drop.
    pub max_drops: u32,
    /// How many messages the adversary may duplicate.
    pub max_dups: u32,
    /// How many receivers may leave.
    pub max_leaves: u32,
    /// How many data transmissions the sender schedules.
    pub data_budget: u32,
    /// Cap on scheduled in-flight messages (spontaneous protocol output such
    /// as CLR reports may exceed it; only chosen actions are gated).
    pub max_in_flight: usize,
}

impl McConfig {
    /// Protocol parameters scaled for model checking: a 50 ms initial RTT
    /// with a tightened feedback window (`max(2·RTT_max, 2·s/rate)` = 0.1 s
    /// initially) and a short CLR timeout, so feedback timers actually fire
    /// and round boundaries and timeouts are all reachable inside a
    /// sub-second horizon.
    fn checking_protocol() -> TfmccConfig {
        TfmccConfig {
            initial_rtt: 0.05,
            feedback_t_rtt_multiple: 2.0,
            low_rate_q: 1.0,
            clr_timeout_multiple: 2.0,
            ..TfmccConfig::default()
        }
    }

    /// The named presets, from quickest to most thorough.
    pub fn preset_names() -> &'static [&'static str] {
        &["smoke2", "smoke3", "deep3"]
    }

    /// Looks up a preset by name.
    pub fn preset(name: &str) -> Option<McConfig> {
        match name {
            // Tiny 2-receiver space (~4k states): exhausts in well under a
            // second even in debug builds, used by unit tests.
            "smoke2" => Some(McConfig {
                receivers: 2,
                protocol: Self::checking_protocol(),
                tick: 0.05,
                max_time: 0.1,
                max_drops: 1,
                max_dups: 1,
                max_leaves: 1,
                data_budget: 1,
                max_in_flight: 4,
            }),
            // The CI-smoke configuration: 1 sender / 3 receivers, one
            // droppable + one duplicable message, one leave.  Exhausts at
            // ~7.7·10^4 distinct states in under a second (release), with
            // feedback timers firing inside the horizon.
            "smoke3" => Some(McConfig {
                receivers: 3,
                protocol: Self::checking_protocol(),
                tick: 0.05,
                max_time: 0.1,
                max_drops: 1,
                max_dups: 1,
                max_leaves: 1,
                data_budget: 1,
                max_in_flight: 4,
            }),
            // A much deeper space (>10^6 states): meant for the `mc_check`
            // binary with an explicit state cap, not for exhaustion in CI.
            "deep3" => Some(McConfig {
                receivers: 3,
                protocol: Self::checking_protocol(),
                tick: 0.05,
                max_time: 0.3,
                max_drops: 2,
                max_dups: 1,
                max_leaves: 2,
                data_budget: 2,
                max_in_flight: 8,
            }),
            _ => None,
        }
    }

    /// Basic sanity checks.
    pub fn validate(&self) -> Result<(), String> {
        if self.receivers == 0 {
            return Err("at least one receiver is required".into());
        }
        if !self.tick.is_finite() || self.tick <= 0.0 {
            return Err("tick must be positive".into());
        }
        if !self.max_time.is_finite() || self.max_time <= 0.0 {
            return Err("max_time must be positive".into());
        }
        self.protocol.validate()
    }
}

/// One schedulable step of the adversarial scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Advance the clock by one tick (runs the sender's timer logic).
    Tick,
    /// The sender transmits one data packet (fanned out per live receiver).
    SendData,
    /// Deliver the in-flight message at this index.
    Deliver(usize),
    /// Drop the in-flight message at this index (consumes the drop budget).
    Drop(usize),
    /// Duplicate the in-flight message at this index (consumes the
    /// duplication budget).
    Duplicate(usize),
    /// Fire this receiver's pending feedback timer (index into receivers).
    FireTimer(usize),
    /// This receiver leaves: its leave report enters the network — and can
    /// itself be dropped, which is exactly the CLR-loss scenario.
    Leave(usize),
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Tick => write!(f, "Tick"),
            Action::SendData => write!(f, "Send"),
            Action::Deliver(i) => write!(f, "Deliver:{i}"),
            Action::Drop(i) => write!(f, "Drop:{i}"),
            Action::Duplicate(i) => write!(f, "Dup:{i}"),
            Action::FireTimer(r) => write!(f, "Fire:{r}"),
            Action::Leave(r) => write!(f, "Leave:{r}"),
        }
    }
}

impl FromStr for Action {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let (head, arg) = match s.split_once(':') {
            Some((head, arg)) => (head, Some(arg)),
            None => (s, None),
        };
        let index = || -> Result<usize, String> {
            arg.ok_or_else(|| format!("action '{s}' needs an index"))?
                .parse::<usize>()
                .map_err(|e| format!("bad index in action '{s}': {e}"))
        };
        match head {
            "Tick" => Ok(Action::Tick),
            "Send" => Ok(Action::SendData),
            "Deliver" => Ok(Action::Deliver(index()?)),
            "Drop" => Ok(Action::Drop(index()?)),
            "Dup" => Ok(Action::Duplicate(index()?)),
            "Fire" => Ok(Action::FireTimer(index()?)),
            "Leave" => Ok(Action::Leave(index()?)),
            other => Err(format!("unknown action '{other}'")),
        }
    }
}

/// An in-flight message.
#[derive(Debug, Clone)]
pub enum NetMsg {
    /// A data packet addressed to one receiver (multicast fan-out is modelled
    /// as one copy per live receiver, so each copy is droppable on its own —
    /// receivers can observe different loss patterns).
    Data {
        /// Index of the destination receiver.
        to: usize,
        /// The packet.
        packet: DataPacket,
    },
    /// A receiver report travelling to the sender.
    Feedback {
        /// The report.
        packet: FeedbackPacket,
    },
}

impl StateFingerprint for NetMsg {
    fn fingerprint<H: Hasher>(&self, h: &mut H) {
        match self {
            NetMsg::Data { to, packet } => {
                h.write_u8(0);
                h.write_usize(*to);
                packet.fingerprint(h);
            }
            NetMsg::Feedback { packet } => {
                h.write_u8(1);
                packet.fingerprint(h);
            }
        }
    }
}

/// The complete model-checker state.
///
/// Fields are public so custom [`Invariant`] implementations can inspect
/// anything; mutation happens only inside [`McModel::apply`].
#[derive(Debug, Clone)]
pub struct McWorld {
    /// Global clock in seconds (every endpoint sees the same clock; clock
    /// skew is exercised by the simulator tests, not the checker).
    pub now: f64,
    /// The sender under test, on the incremental aggregator.
    pub sender: TfmccSender,
    /// Lockstep shadow sender on the reference aggregator.
    pub shadow: TfmccSender<ReferenceAggregator>,
    /// The receivers, index `r` carrying `ReceiverId(r + 1)`.
    pub receivers: Vec<TfmccReceiver>,
    /// Which receivers have left.
    pub departed: Vec<bool>,
    /// In-flight messages, deliverable in any order.
    pub network: Vec<NetMsg>,
    /// Remaining drop budget.
    pub drops_left: u32,
    /// Remaining duplication budget.
    pub dups_left: u32,
    /// Remaining leave budget.
    pub leaves_left: u32,
    /// Remaining data transmissions.
    pub data_left: u32,
    /// Highest feedback window observed during the current feedback round
    /// (the round-termination bound must use the *largest* window the round
    /// ran under, since the window moves with `max_rtt` and the rate).
    pub window_hwm: f64,
    /// Round the high-water mark belongs to.
    pub last_round: u64,
    /// Sender rate (bits) before the last action, for frame checks.
    pub prev_rate_bits: u64,
    /// Sender max-RTT (bits) before the last action.
    pub prev_max_rtt_bits: u64,
    /// Sender feedback round before the last action.
    pub prev_round: u64,
    /// Whether the last action legitimately touched the sender (tick, data
    /// transmission or feedback delivery).  Frame invariants require the
    /// sender's aggregates to be bit-identical otherwise.
    pub sender_touched: bool,
    /// First divergence between the sender's and the shadow's data packets,
    /// if any (checked by the aggregator-agreement invariant).
    pub shadow_mismatch: Option<String>,
}

impl McWorld {
    /// Number of receivers still in the group.
    pub fn live_receivers(&self) -> usize {
        self.departed.iter().filter(|d| !**d).count()
    }
}

impl StateFingerprint for McWorld {
    fn fingerprint<H: Hasher>(&self, h: &mut H) {
        h.write_u64(self.now.to_bits());
        self.sender.fingerprint(h);
        self.shadow.fingerprint(h);
        h.write_usize(self.receivers.len());
        for r in &self.receivers {
            r.fingerprint(h);
        }
        for &d in &self.departed {
            h.write_u8(d as u8);
        }
        // The network is a bag: the index order carries no semantics (it
        // only names the operand of the next action), so hash the sorted
        // per-message fingerprints to merge permutations of the same
        // multiset — their reachable futures are identical up to renaming.
        let mut msg_fps: Vec<u64> = self
            .network
            .iter()
            .map(|m| {
                let mut mh = Fnv1a::new();
                m.fingerprint(&mut mh);
                mh.finish()
            })
            .collect();
        msg_fps.sort_unstable();
        h.write_usize(msg_fps.len());
        for fp in msg_fps {
            h.write_u64(fp);
        }
        h.write_u32(self.drops_left);
        h.write_u32(self.dups_left);
        h.write_u32(self.leaves_left);
        h.write_u32(self.data_left);
        // Round bookkeeping feeds future invariant checks, so states that
        // differ here must not merge.  The prev_* frame snapshot does not:
        // it is overwritten at the start of every apply().
        h.write_u64(self.window_hwm.to_bits());
        h.write_u64(self.last_round);
        h.write_u8(self.shadow_mismatch.is_some() as u8);
    }
}

/// The TFMCC model: configuration plus the invariants to check after every
/// transition.
pub struct McModel {
    config: McConfig,
    invariants: Vec<Box<dyn Invariant>>,
}

impl McModel {
    /// Builds the model with the four shipped invariants.
    pub fn new(config: McConfig) -> Self {
        Self::with_invariants(config, default_invariants())
    }

    /// Builds the model with a custom invariant set.
    pub fn with_invariants(config: McConfig, invariants: Vec<Box<dyn Invariant>>) -> Self {
        config.validate().expect("invalid checker configuration");
        McModel { config, invariants }
    }

    /// The checker configuration.
    pub fn config(&self) -> &McConfig {
        &self.config
    }

    /// Names of the registered invariants.
    pub fn invariant_names(&self) -> Vec<&'static str> {
        self.invariants.iter().map(|i| i.name()).collect()
    }
}

impl Model for McModel {
    type State = McWorld;
    type Action = Action;

    fn initial(&self) -> McWorld {
        let sender = TfmccSender::new(self.config.protocol.clone());
        let shadow =
            TfmccSender::with_aggregator(self.config.protocol.clone(), ReferenceAggregator::new());
        let receivers: Vec<TfmccReceiver> = (0..self.config.receivers)
            .map(|r| TfmccReceiver::new(ReceiverId(r as u64 + 1), self.config.protocol.clone()))
            .collect();
        let window_hwm = sender.feedback_window();
        let last_round = sender.feedback_round();
        McWorld {
            now: 0.0,
            prev_rate_bits: sender.current_rate().to_bits(),
            prev_max_rtt_bits: sender.max_rtt().to_bits(),
            prev_round: sender.feedback_round(),
            sender,
            shadow,
            departed: vec![false; self.config.receivers],
            receivers,
            network: Vec::new(),
            drops_left: self.config.max_drops,
            dups_left: self.config.max_dups,
            leaves_left: self.config.max_leaves,
            data_left: self.config.data_budget,
            window_hwm,
            last_round,
            sender_touched: false,
            shadow_mismatch: None,
        }
    }

    fn enabled(&self, w: &McWorld) -> Vec<Action> {
        let mut actions = Vec::new();
        if w.now + self.config.tick <= self.config.max_time + TIMER_EPS {
            actions.push(Action::Tick);
        }
        let live = w.live_receivers();
        if w.data_left > 0 && live > 0 && w.network.len() + live <= self.config.max_in_flight {
            actions.push(Action::SendData);
        }
        for i in 0..w.network.len() {
            actions.push(Action::Deliver(i));
        }
        if w.drops_left > 0 {
            for i in 0..w.network.len() {
                actions.push(Action::Drop(i));
            }
        }
        if w.dups_left > 0 && w.network.len() < self.config.max_in_flight {
            for i in 0..w.network.len() {
                actions.push(Action::Duplicate(i));
            }
        }
        for (r, receiver) in w.receivers.iter().enumerate() {
            if w.departed[r] {
                continue;
            }
            if let Some(fire_at) = ReceiverStep::next_timer(receiver) {
                if fire_at <= w.now + TIMER_EPS {
                    actions.push(Action::FireTimer(r));
                }
            }
            if w.leaves_left > 0 {
                actions.push(Action::Leave(r));
            }
        }
        actions
    }

    fn apply(&self, state: &McWorld, action: &Action) -> McWorld {
        let mut w = state.clone();
        w.prev_rate_bits = w.sender.current_rate().to_bits();
        w.prev_max_rtt_bits = w.sender.max_rtt().to_bits();
        w.prev_round = w.sender.feedback_round();
        w.sender_touched = false;

        match *action {
            Action::Tick => {
                w.now += self.config.tick;
                SenderStep::on_tick(&mut w.sender, w.now);
                SenderStep::on_tick(&mut w.shadow, w.now);
                w.sender_touched = true;
            }
            Action::SendData => {
                w.data_left -= 1;
                let packet = SenderStep::next_data(&mut w.sender, w.now);
                let shadow_packet = SenderStep::next_data(&mut w.shadow, w.now);
                if packet != shadow_packet && w.shadow_mismatch.is_none() {
                    w.shadow_mismatch = Some(format!(
                        "data packets diverged at t={}: incremental {packet:?} vs reference {shadow_packet:?}",
                        w.now
                    ));
                }
                for r in 0..w.receivers.len() {
                    if !w.departed[r] {
                        w.network.push(NetMsg::Data {
                            to: r,
                            packet: packet.clone(),
                        });
                    }
                }
                w.sender_touched = true;
            }
            Action::Deliver(i) => match w.network.remove(i) {
                NetMsg::Data { to, packet } => {
                    if !w.departed[to] {
                        if let Some(fb) =
                            ReceiverStep::on_data(&mut w.receivers[to], w.now, &packet)
                        {
                            w.network.push(NetMsg::Feedback { packet: fb });
                        }
                    }
                }
                NetMsg::Feedback { packet } => {
                    SenderStep::on_feedback(&mut w.sender, w.now, &packet);
                    SenderStep::on_feedback(&mut w.shadow, w.now, &packet);
                    w.sender_touched = true;
                }
            },
            Action::Drop(i) => {
                w.network.remove(i);
                w.drops_left -= 1;
            }
            Action::Duplicate(i) => {
                let copy = w.network[i].clone();
                w.network.push(copy);
                w.dups_left -= 1;
            }
            Action::FireTimer(r) => {
                if let Some(fb) = ReceiverStep::on_timer(&mut w.receivers[r], w.now) {
                    w.network.push(NetMsg::Feedback { packet: fb });
                }
            }
            Action::Leave(r) => {
                let fb = ReceiverStep::leave(&mut w.receivers[r], w.now);
                w.departed[r] = true;
                w.leaves_left -= 1;
                // Data already in flight to the departed receiver evaporates.
                w.network
                    .retain(|m| !matches!(m, NetMsg::Data { to, .. } if *to == r));
                w.network.push(NetMsg::Feedback { packet: fb });
            }
        }

        // Track the feedback-window high-water mark per round.
        let round = w.sender.feedback_round();
        let window = w.sender.feedback_window();
        if round != w.last_round {
            w.last_round = round;
            w.window_hwm = window;
        } else if window > w.window_hwm {
            w.window_hwm = window;
        }
        w
    }

    fn fingerprint(&self, state: &McWorld) -> u64 {
        let mut h = Fnv1a::new();
        state.fingerprint(&mut h);
        h.finish()
    }

    fn check(&self, state: &McWorld) -> Result<(), (String, String)> {
        for invariant in &self.invariants {
            if let Err(message) = invariant.check(&self.config, state) {
                return Err((invariant.name().to_string(), message));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, run_schedule, Limits, Strategy};

    fn model(preset: &str) -> McModel {
        McModel::new(McConfig::preset(preset).expect("preset exists"))
    }

    #[test]
    fn presets_resolve_and_validate() {
        for name in McConfig::preset_names() {
            let config = McConfig::preset(name).expect("listed preset must resolve");
            config.validate().unwrap();
        }
        assert!(McConfig::preset("no-such-preset").is_none());
    }

    #[test]
    fn actions_round_trip_through_display() {
        let actions = [
            Action::Tick,
            Action::SendData,
            Action::Deliver(3),
            Action::Drop(0),
            Action::Duplicate(12),
            Action::FireTimer(2),
            Action::Leave(1),
        ];
        for a in actions {
            assert_eq!(a.to_string().parse::<Action>().unwrap(), a);
        }
        assert!("Frobnicate".parse::<Action>().is_err());
        assert!("Deliver".parse::<Action>().is_err());
        assert!("Deliver:x".parse::<Action>().is_err());
    }

    #[test]
    fn fingerprints_are_deterministic_and_order_insensitive() {
        let m = model("smoke2");
        let w = m.initial();
        assert_eq!(m.fingerprint(&w), m.fingerprint(&w.clone()));
        // Send, then compare the fingerprint of the two data copies in both
        // network orders: the bag hash must make them equal.
        let sent = m.apply(&w, &Action::SendData);
        assert_eq!(sent.network.len(), 2);
        let mut swapped = sent.clone();
        swapped.network.swap(0, 1);
        assert_eq!(m.fingerprint(&sent), m.fingerprint(&swapped));
        assert_ne!(m.fingerprint(&w), m.fingerprint(&sent));
    }

    #[test]
    fn leave_purges_pending_data_and_emits_droppable_report() {
        let m = model("smoke2");
        let w = m.initial();
        let sent = m.apply(&w, &Action::SendData);
        assert_eq!(sent.network.len(), 2);
        let left = m.apply(&sent, &Action::Leave(0));
        assert!(left.departed[0]);
        assert_eq!(left.live_receivers(), 1);
        // One data copy purged, one leave report added.
        assert_eq!(left.network.len(), 2);
        let reports = left
            .network
            .iter()
            .filter(|msg| matches!(msg, NetMsg::Feedback { packet } if packet.leaving))
            .count();
        assert_eq!(reports, 1);
        // Dropping the leave report must be a legal adversary move.
        let report_idx = left
            .network
            .iter()
            .position(|msg| matches!(msg, NetMsg::Feedback { .. }))
            .unwrap();
        assert!(m.enabled(&left).contains(&Action::Drop(report_idx)));
    }

    #[test]
    fn tick_stops_at_the_horizon() {
        let m = model("smoke2");
        let mut w = m.initial();
        let mut ticks = 0;
        while m.enabled(&w).contains(&Action::Tick) {
            w = m.apply(&w, &Action::Tick);
            ticks += 1;
            assert!(ticks < 1000, "tick must be bounded by max_time");
        }
        assert!(w.now <= m.config().max_time + 2e-9);
        assert!(w.now + m.config().tick > m.config().max_time);
    }

    #[test]
    fn smoke2_explores_clean_under_both_strategies() {
        let m = model("smoke2");
        let limits = Limits {
            max_states: 30_000,
            max_depth: usize::MAX,
        };
        let dfs = explore(&m, Strategy::Dfs, limits);
        assert!(dfs.violation.is_none(), "{:?}", dfs.violation);
        let bfs = explore(&m, Strategy::Bfs, limits);
        assert!(bfs.violation.is_none(), "{:?}", bfs.violation);
        // Both strategies see the same deduplicated state space (when
        // neither truncates).
        if !dfs.truncated && !bfs.truncated {
            assert_eq!(dfs.states_explored, bfs.states_explored);
        }
        assert!(dfs.states_explored > 100);
    }

    #[test]
    fn recorded_schedule_replays_deterministically() {
        let m = model("smoke2");
        // Drive an adversarial scenario by hand: send, lose one copy,
        // deliver the other, tick to the horizon.
        let mut schedule = vec![Action::SendData, Action::Drop(0), Action::Deliver(0)];
        let mut w = m.initial();
        for a in &schedule {
            w = m.apply(&w, a);
        }
        while m.enabled(&w).contains(&Action::Tick) {
            w = m.apply(&w, &Action::Tick);
            schedule.push(Action::Tick);
        }
        let replayed = run_schedule(&m, &schedule).expect("schedule must replay clean");
        assert_eq!(m.fingerprint(&replayed), m.fingerprint(&w));
    }
}
