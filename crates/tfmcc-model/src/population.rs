//! Closed-form quantities for *aggregate receiver populations* — the math
//! behind the hybrid packet/fluid simulation tier.
//!
//! A fluid population stands in for `count` receivers whose loss-event rates
//! and round-trip times follow given marginal distributions.  Instead of
//! simulating each receiver, the population is quantized into a small number
//! of *rate bins*: bin `k` takes the `(k + ½)/Q` quantile of both marginals
//! (a comonotone coupling — the lossiest receivers are also assumed to have
//! the longest RTTs, which is the conservative pairing for the minimum
//! calculated rate that drives TFMCC) and computes its calculated rate from
//! the TCP throughput equation ([`crate::padhye_throughput`], paper Eq. 1).
//!
//! [`PopulationProfile::quantize`] yields the distribution of calculated
//! rates across the population as [`RateBin`]s, each carrying its receiver
//! count, loss rate, RTT and calculated rate — what a fluid population agent
//! reports to the sender in place of its members.
//!
//! All rates are bytes per second, times are seconds, loss-event rates are
//! dimensionless fractions in `[0, 1)`.

use crate::throughput::padhye_throughput;

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
    /// Exponential with the given mean, shifted by `offset` (quantile
    /// `offset − mean·ln(1−q)`).  Useful for long-tailed RTT populations.
    Exponential {
        /// Additive offset (the distribution's minimum).
        offset: f64,
        /// Mean of the exponential part.
        mean: f64,
    },
}

impl Dist {
    /// The `q`-quantile of the distribution, `q` in `[0, 1)`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..1.0).contains(&q), "quantile level must be in [0, 1)");
        match *self {
            Dist::Point(v) => v,
            Dist::Uniform { lo, hi } => lo + q * (hi - lo),
            Dist::Exponential { offset, mean } => offset - mean * (1.0 - q).ln(),
        }
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        match *self {
            Dist::Point(v) => v,
            Dist::Uniform { lo, hi } => 0.5 * (lo + hi),
            Dist::Exponential { offset, mean } => offset + mean,
        }
    }

    /// Smallest value the distribution can produce.
    pub fn min(&self) -> f64 {
        match *self {
            Dist::Point(v) => v,
            Dist::Uniform { lo, .. } => lo,
            Dist::Exponential { offset, .. } => offset,
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
            Dist::Exponential { offset, mean } => {
                assert!(
                    offset.is_finite() && mean.is_finite() && mean >= 0.0,
                    "{what}: exponential needs finite offset and mean >= 0, \
                     got offset {offset}, mean {mean}"
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
    /// Calculated (TCP-equation) rate of the bin, bytes/s.
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
        let e = Dist::Exponential {
            offset: 1.0,
            mean: 2.0,
        };
        assert!((e.quantile(0.0) - 1.0).abs() < 1e-12);
        assert!(e.quantile(0.9) > e.quantile(0.5));
        assert_eq!(e.mean(), 3.0);
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
}
