//! Pluggable sender-side feedback aggregation.
//!
//! The TFMCC sender keeps per-receiver bookkeeping (most recent effective
//! rate, RTT, report timestamps) and derives three aggregates from it on the
//! hot path:
//!
//! * the **maximum RTT** over all known receivers, consulted on *every data
//!   packet* to size the feedback window ([`TfmccSender::on_tick`]);
//! * the **candidate CLR** (the receiver with the lowest finite calculated
//!   rate), consulted whenever the current limiting receiver leaves or times
//!   out;
//! * the **per-round suppression minimum** (the lowest-rate report of the
//!   current feedback round), echoed in every data packet.
//!
//! At 10⁵ receivers the original implementation's full scans (O(N) per data
//! packet for the maximum RTT, O(N) per CLR election) dominate the sender.
//! This module extracts the bookkeeping behind the [`FeedbackAggregator`]
//! trait with two implementations proven equivalent report-for-report by the
//! `aggregator_equivalence` property test:
//!
//! * [`ReferenceAggregator`] — the original scan-based path, kept as the
//!   executable specification;
//! * [`IncrementalAggregator`] — ordered indexes over RTTs and rates plus
//!   eagerly maintained counters: aggregate queries are O(1) (a `BTreeSet`
//!   end lookup) regardless of the receiver count, and each report costs
//!   O(log N) index maintenance instead of deferring O(N) scans to the
//!   per-packet path.
//!
//! The sender is generic over its aggregator, `TfmccSender<A =
//! IncrementalAggregator>`: [`TfmccSender::new`] runs on the incremental
//! path, and the two oracles — the equivalence proptest and the model
//! checker's shadow sender — build a `TfmccSender<ReferenceAggregator>` with
//! [`TfmccSender::with_aggregator`] to run the reference beside it.
//!
//! The indexes key floats by their order-preserving bits, never by the
//! float itself.  That is not a convention: `f64` has no total order, so a
//! raw float key in an ordered container does not compile.
//!
//! ```compile_fail,E0277
//! let mut rtts = std::collections::BTreeSet::new();
//! rtts.insert(0.25_f64);
//! ```
//!
//! [`TfmccSender::new`]: crate::sender::TfmccSender::new
//! [`TfmccSender::on_tick`]: crate::sender::TfmccSender::on_tick
//! [`TfmccSender::with_aggregator`]: crate::sender::TfmccSender::with_aggregator

use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hasher;

use crate::packets::{ReceiverId, SuppressionEcho};
use crate::step::{hash_f64, hash_opt_f64, StateFingerprint};

/// What the sender knows about one receiver.
#[derive(Debug, Clone)]
pub struct ReceiverInfo {
    /// Most recent effective calculated rate (bytes/second).
    pub rate: f64,
    /// RTT of this receiver (receiver-measured if available, otherwise the
    /// sender-side measurement), `None` if neither exists.
    pub rtt: Option<f64>,
    /// Whether the receiver itself has a valid RTT measurement.
    pub has_own_rtt: bool,
    /// Receiver-clock timestamp of its most recent report.
    pub last_report_timestamp: f64,
    /// Sender-clock time the most recent report arrived.
    pub last_report_at: f64,
    /// Number of receivers this entry stands for: 1 for an ordinary
    /// packet-level receiver, the bin population for a synthetic report
    /// injected by a fluid population.
    pub weight: u64,
}

/// The bookkeeping contract between [`TfmccSender`] and its aggregation
/// backend.  Both implementations must answer every query identically for
/// identical report sequences — the `aggregator_equivalence` property test
/// pins this.
///
/// [`TfmccSender`]: crate::sender::TfmccSender
pub trait FeedbackAggregator {
    /// Records (or replaces) the bookkeeping entry for `id`.
    fn upsert(&mut self, id: ReceiverId, info: ReceiverInfo);
    /// Removes `id`; returns whether it was known.
    fn remove(&mut self, id: ReceiverId) -> bool;
    /// The entry for `id`, if known.
    fn get(&self, id: ReceiverId) -> Option<&ReceiverInfo>;
    /// Number of known receivers.
    fn len(&self) -> usize;
    /// True when no receiver is known.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Total receiver population: the sum of entry weights.  Equals
    /// [`len`](FeedbackAggregator::len) when every entry is an ordinary
    /// packet-level receiver; population-weighted reports raise it to the
    /// number of receivers the session actually stands for.
    fn population(&self) -> u64;
    /// Number of known receivers with a valid receiver-side RTT measurement.
    fn receivers_with_rtt(&self) -> usize;
    /// The maximum RTT over all known receivers, falling back to
    /// `initial_rtt` whenever any receiver lacks its own measurement (or none
    /// is known at all), floored at 1 ms.
    fn max_rtt(&self, initial_rtt: f64) -> f64;
    /// The CLR candidate: the receiver with the lowest finite rate (ties
    /// broken towards the lowest id), with its rate and RTT (falling back to
    /// `initial_rtt`).
    fn clr_candidate(&self, initial_rtt: f64) -> Option<(ReceiverId, f64, f64)>;
    /// Offers a report's rate to the current feedback round's suppression
    /// minimum (kept only if strictly lower than the current minimum).
    fn observe_round_rate(&mut self, id: ReceiverId, echo_rate: f64);
    /// The lowest-rate report of the current feedback round, if any.
    fn round_min(&self) -> Option<SuppressionEcho>;
    /// Clears the per-round suppression state at a round boundary.
    fn reset_round(&mut self);
}

/// Shared per-round suppression logic: keep the strictly lowest finite rate,
/// first-reported winner on ties (both implementations must agree exactly).
fn offer_round_min(slot: &mut Option<SuppressionEcho>, id: ReceiverId, echo_rate: f64) {
    if echo_rate.is_finite() && slot.map(|m| echo_rate < m.rate).unwrap_or(true) {
        *slot = Some(SuppressionEcho {
            receiver: id,
            rate: echo_rate,
        });
    }
}

/// The original scan-based bookkeeping: a flat map, with every aggregate
/// recomputed by a full pass when queried.
#[derive(Debug, Clone, Default)]
pub struct ReferenceAggregator {
    receivers: BTreeMap<ReceiverId, ReceiverInfo>,
    round_min: Option<SuppressionEcho>,
}

impl ReferenceAggregator {
    /// Creates an empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl FeedbackAggregator for ReferenceAggregator {
    fn upsert(&mut self, id: ReceiverId, info: ReceiverInfo) {
        self.receivers.insert(id, info);
    }

    fn remove(&mut self, id: ReceiverId) -> bool {
        self.receivers.remove(&id).is_some()
    }

    fn get(&self, id: ReceiverId) -> Option<&ReceiverInfo> {
        self.receivers.get(&id)
    }

    fn len(&self) -> usize {
        self.receivers.len()
    }

    fn population(&self) -> u64 {
        self.receivers.values().map(|r| r.weight).sum()
    }

    fn receivers_with_rtt(&self) -> usize {
        self.receivers.values().filter(|r| r.has_own_rtt).count()
    }

    fn max_rtt(&self, initial_rtt: f64) -> f64 {
        let mut max = 0.0_f64;
        let mut any_without = self.receivers.is_empty();
        for info in self.receivers.values() {
            match info.rtt {
                Some(r) if info.has_own_rtt => max = max.max(r),
                Some(r) => {
                    // Sender-side measurement only: usable but keep the
                    // conservative floor as well.
                    max = max.max(r);
                    any_without = true;
                }
                None => any_without = true,
            }
        }
        if any_without {
            max = max.max(initial_rtt);
        }
        max.max(1e-3)
    }

    fn clr_candidate(&self, initial_rtt: f64) -> Option<(ReceiverId, f64, f64)> {
        self.receivers
            .iter()
            .filter(|(_, info)| info.rate.is_finite())
            .min_by(|a, b| {
                a.1.rate
                    .partial_cmp(&b.1.rate)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.cmp(b.0))
            })
            .map(|(id, info)| (*id, info.rate, info.rtt.unwrap_or(initial_rtt)))
    }

    fn observe_round_rate(&mut self, id: ReceiverId, echo_rate: f64) {
        offer_round_min(&mut self.round_min, id, echo_rate);
    }

    fn round_min(&self) -> Option<SuppressionEcho> {
        self.round_min
    }

    fn reset_round(&mut self) {
        self.round_min = None;
    }
}

/// Order-preserving bit mapping for `f64` index keys (standard total-order
/// trick; works for every finite value, positive or negative).  `-0.0` is
/// normalized to `+0.0` first: IEEE comparison (the reference path) treats
/// the two as equal, so they must share one key or the implementations
/// would tie-break differently.
fn f64_key(v: f64) -> u64 {
    debug_assert!(!v.is_nan(), "NaN cannot be indexed");
    let bits = (v + 0.0).to_bits();
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

/// Ordered-index bookkeeping: the RTTs and finite rates of all known
/// receivers live in `BTreeSet` indexes keyed by their order-preserving bit
/// patterns, and the "how many lack an own RTT measurement" counts are kept
/// eagerly, so [`max_rtt`](FeedbackAggregator::max_rtt) and
/// [`clr_candidate`](FeedbackAggregator::clr_candidate) are end lookups
/// instead of O(N) scans.  Each report costs two O(log N) index updates.
#[derive(Debug, Clone, Default)]
pub struct IncrementalAggregator {
    receivers: BTreeMap<ReceiverId, ReceiverInfo>,
    /// `(f64_key(rtt), id)` for every receiver with a known RTT.
    rtt_index: BTreeSet<(u64, ReceiverId)>,
    /// `(f64_key(rate), id)` for every receiver with a finite rate.
    rate_index: BTreeSet<(u64, ReceiverId)>,
    /// Receivers with a valid receiver-side RTT measurement.
    own_rtt_count: usize,
    /// Receivers *without* one (no RTT at all, or sender-side only).
    without_own_rtt_count: usize,
    /// Sum of entry weights, maintained eagerly.
    population: u64,
    round_min: Option<SuppressionEcho>,
}

impl IncrementalAggregator {
    /// Creates an empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    fn unindex(&mut self, id: ReceiverId, info: &ReceiverInfo) {
        if let Some(rtt) = info.rtt {
            self.rtt_index.remove(&(f64_key(rtt), id));
        }
        if info.rate.is_finite() {
            self.rate_index.remove(&(f64_key(info.rate), id));
        }
        if info.has_own_rtt {
            self.own_rtt_count -= 1;
        } else {
            self.without_own_rtt_count -= 1;
        }
        self.population -= info.weight;
    }
}

impl FeedbackAggregator for IncrementalAggregator {
    fn upsert(&mut self, id: ReceiverId, info: ReceiverInfo) {
        if let Some(old) = self.receivers.get(&id) {
            let old = old.clone();
            self.unindex(id, &old);
        }
        if let Some(rtt) = info.rtt {
            self.rtt_index.insert((f64_key(rtt), id));
        }
        if info.rate.is_finite() {
            self.rate_index.insert((f64_key(info.rate), id));
        }
        if info.has_own_rtt {
            self.own_rtt_count += 1;
        } else {
            self.without_own_rtt_count += 1;
        }
        self.population += info.weight;
        self.receivers.insert(id, info);
    }

    fn remove(&mut self, id: ReceiverId) -> bool {
        let Some(info) = self.receivers.remove(&id) else {
            return false;
        };
        self.unindex(id, &info);
        true
    }

    fn get(&self, id: ReceiverId) -> Option<&ReceiverInfo> {
        self.receivers.get(&id)
    }

    fn len(&self) -> usize {
        self.receivers.len()
    }

    fn population(&self) -> u64 {
        self.population
    }

    fn receivers_with_rtt(&self) -> usize {
        self.own_rtt_count
    }

    fn max_rtt(&self, initial_rtt: f64) -> f64 {
        let mut max = match self.rtt_index.last() {
            Some(&(key, id)) => {
                // The index key is order-preserving, but read the exact value
                // back from the entry so no bit pattern round-trips.
                let _ = key;
                self.receivers[&id]
                    .rtt
                    .expect("indexed receivers have RTTs")
            }
            None => 0.0,
        };
        if self.receivers.is_empty() || self.without_own_rtt_count > 0 {
            max = max.max(initial_rtt);
        }
        max.max(1e-3)
    }

    fn clr_candidate(&self, initial_rtt: f64) -> Option<(ReceiverId, f64, f64)> {
        let &(_, id) = self.rate_index.first()?;
        let info = &self.receivers[&id];
        Some((id, info.rate, info.rtt.unwrap_or(initial_rtt)))
    }

    fn observe_round_rate(&mut self, id: ReceiverId, echo_rate: f64) {
        offer_round_min(&mut self.round_min, id, echo_rate);
    }

    fn round_min(&self) -> Option<SuppressionEcho> {
        self.round_min
    }

    fn reset_round(&mut self) {
        self.round_min = None;
    }
}

impl StateFingerprint for ReceiverInfo {
    fn fingerprint<H: Hasher>(&self, h: &mut H) {
        hash_f64(h, self.rate);
        hash_opt_f64(h, self.rtt);
        h.write_u8(self.has_own_rtt as u8);
        hash_f64(h, self.last_report_timestamp);
        hash_f64(h, self.last_report_at);
        h.write_u64(self.weight);
    }
}

/// Hashes the bookkeeping shared by both implementations in a canonical
/// (id-sorted) order — the map is ordered, so plain iteration is canonical.
/// The incremental path's indexes and counters are pure functions of this
/// map, so they need no hashing of their own — and the two implementations
/// fingerprint identically for identical contents.
fn fingerprint_bookkeeping<H: Hasher>(
    h: &mut H,
    receivers: &BTreeMap<ReceiverId, ReceiverInfo>,
    round_min: Option<SuppressionEcho>,
) {
    h.write_usize(receivers.len());
    for (id, info) in receivers {
        h.write_u64(id.0);
        info.fingerprint(h);
    }
    match round_min {
        Some(echo) => {
            h.write_u8(1);
            h.write_u64(echo.receiver.0);
            hash_f64(h, echo.rate);
        }
        None => h.write_u8(0),
    }
}

impl StateFingerprint for ReferenceAggregator {
    fn fingerprint<H: Hasher>(&self, h: &mut H) {
        fingerprint_bookkeeping(h, &self.receivers, self.round_min);
    }
}

impl StateFingerprint for IncrementalAggregator {
    fn fingerprint<H: Hasher>(&self, h: &mut H) {
        fingerprint_bookkeeping(h, &self.receivers, self.round_min);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(rate: f64, rtt: Option<f64>, own: bool) -> ReceiverInfo {
        ReceiverInfo {
            rate,
            rtt,
            has_own_rtt: own,
            last_report_timestamp: 0.0,
            last_report_at: 0.0,
            weight: 1,
        }
    }

    fn both() -> [Box<dyn FeedbackAggregator>; 2] {
        [
            Box::new(ReferenceAggregator::new()),
            Box::new(IncrementalAggregator::new()),
        ]
    }

    #[test]
    fn f64_key_is_order_preserving() {
        let values = [-10.5, -1e-12, 0.0, 1e-12, 0.05, 0.5, 1.0, 1e9];
        for w in values.windows(2) {
            assert!(f64_key(w[0]) < f64_key(w[1]), "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn empty_aggregators_fall_back_to_initial_rtt() {
        for a in both() {
            assert_eq!(a.len(), 0);
            assert!(a.is_empty());
            assert_eq!(a.max_rtt(0.5), 0.5);
            assert!(a.clr_candidate(0.5).is_none());
            assert!(a.round_min().is_none());
        }
    }

    #[test]
    fn aggregates_match_between_implementations() {
        for mut a in both() {
            a.upsert(ReceiverId(1), info(50_000.0, Some(0.08), true));
            a.upsert(ReceiverId(2), info(f64::INFINITY, Some(0.30), false));
            a.upsert(ReceiverId(3), info(30_000.0, Some(0.05), true));
            assert_eq!(a.len(), 3);
            assert_eq!(a.receivers_with_rtt(), 2);
            // Receiver 2 lacks an own measurement: the 0.5 s initial RTT
            // stays in force and dominates its 0.3 s sender-side sample.
            assert_eq!(a.max_rtt(0.5), 0.5);
            assert_eq!(a.max_rtt(0.01), 0.30);
            let (id, rate, rtt) = a.clr_candidate(0.5).unwrap();
            assert_eq!((id, rate, rtt), (ReceiverId(3), 30_000.0, 0.05));
        }
    }

    #[test]
    fn upsert_replaces_and_remove_unindexes() {
        for mut a in both() {
            a.upsert(ReceiverId(1), info(50_000.0, Some(0.08), true));
            a.upsert(ReceiverId(1), info(90_000.0, Some(0.02), true));
            assert_eq!(a.len(), 1);
            assert_eq!(a.max_rtt(0.001), 0.02);
            assert_eq!(a.clr_candidate(0.5).unwrap().1, 90_000.0);
            assert!(a.remove(ReceiverId(1)));
            assert!(!a.remove(ReceiverId(1)));
            assert!(a.clr_candidate(0.5).is_none());
            assert_eq!(a.max_rtt(0.5), 0.5);
        }
    }

    #[test]
    fn clr_candidate_breaks_rate_ties_towards_lowest_id() {
        for mut a in both() {
            a.upsert(ReceiverId(9), info(10_000.0, Some(0.05), true));
            a.upsert(ReceiverId(2), info(10_000.0, Some(0.07), true));
            a.upsert(ReceiverId(5), info(10_000.0, Some(0.06), true));
            assert_eq!(a.clr_candidate(0.5).unwrap().0, ReceiverId(2));
        }
    }

    #[test]
    fn negative_zero_rates_tie_with_positive_zero() {
        // IEEE comparison says -0.0 == 0.0, so both implementations must
        // fall through to the id tie-break rather than ordering by sign bit.
        for mut a in both() {
            a.upsert(ReceiverId(5), info(-0.0, Some(0.05), true));
            a.upsert(ReceiverId(2), info(0.0, Some(0.05), true));
            assert_eq!(a.clr_candidate(0.5).unwrap().0, ReceiverId(2));
            // Removal must find the index entry despite the sign change.
            assert!(a.remove(ReceiverId(5)));
            assert!(a.remove(ReceiverId(2)));
            assert!(a.clr_candidate(0.5).is_none());
        }
    }

    #[test]
    fn round_minimum_keeps_first_on_ties_and_resets() {
        for mut a in both() {
            a.observe_round_rate(ReceiverId(1), f64::INFINITY);
            assert!(a.round_min().is_none(), "infinite rates are not echoed");
            a.observe_round_rate(ReceiverId(1), 40_000.0);
            a.observe_round_rate(ReceiverId(2), 40_000.0);
            assert_eq!(a.round_min().unwrap().receiver, ReceiverId(1));
            a.observe_round_rate(ReceiverId(3), 39_999.0);
            assert_eq!(a.round_min().unwrap().receiver, ReceiverId(3));
            a.reset_round();
            assert!(a.round_min().is_none());
        }
    }

    #[test]
    fn population_sums_weights_across_upserts_and_removals() {
        for mut a in both() {
            assert_eq!(a.population(), 0);
            a.upsert(ReceiverId(1), info(50_000.0, Some(0.08), true));
            let mut heavy = info(30_000.0, Some(0.05), true);
            heavy.weight = 125_000;
            a.upsert(ReceiverId(2), heavy.clone());
            assert_eq!(a.len(), 2);
            assert_eq!(a.population(), 125_001);
            // Replacing an entry replaces its weight, not adds to it.
            heavy.weight = 100;
            a.upsert(ReceiverId(2), heavy);
            assert_eq!(a.population(), 101);
            assert!(a.remove(ReceiverId(2)));
            assert_eq!(a.population(), 1);
            assert!(a.remove(ReceiverId(1)));
            assert_eq!(a.population(), 0);
        }
    }
}
