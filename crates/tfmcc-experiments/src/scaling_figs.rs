//! Figure 7 (loss path multiplicity / receiver-set scaling) and Figure 17
//! (loss events per RTT).
//!
//! Figure 7 is the paper's headline scaling sweep (receiver sets up to 10⁴).
//! Each Monte-Carlo estimate is sharded into seed replicas so the executor
//! can spread even a single receiver-count's trials over many workers; every
//! replica derives its seed from the sweep, so the averaged results are
//! byte-identical for any thread count.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use tfmcc_agents::population::{Dist, PopulationProfile};
use tfmcc_model::order_stats::scaling_throughput;
use tfmcc_model::throughput::{bytes_to_bits, loss_events_per_rtt, padhye_throughput};

use crate::exec::SweepRunner;
use crate::output::{Figure, Series};
use crate::scale::Scale;

/// Parameters of the Figure 7 scenario: 10 % loss, 50 ms RTT, 1000-byte
/// packets, an 8-interval loss history.
const LOSS_RATE: f64 = 0.1;
const RTT: f64 = 0.05;
const PACKET: f64 = 1000.0;
const HISTORY: usize = 8;

/// Samples the average loss interval a receiver with loss rate `p` would
/// measure: the mean of `HISTORY` geometric loss intervals.
fn sample_avg_interval(p: f64, rng: &mut SmallRng) -> f64 {
    let mut acc = 0.0;
    for _ in 0..HISTORY {
        // Geometric interval with mean 1/p, sampled via the exponential
        // approximation the paper's analysis uses.
        let u: f64 = rng.gen_range(1e-12..1.0);
        acc += (-u.ln() / p).max(1.0);
    }
    acc / HISTORY as f64
}

/// Monte-Carlo estimate of the expected TFMCC throughput when the sender
/// tracks the minimum calculated rate over `n` receivers with the given
/// per-receiver loss rates.
fn tracked_minimum_throughput(loss_rates: &[f64], trials: usize, rng: &mut SmallRng) -> f64 {
    let mut acc = 0.0;
    for _ in 0..trials {
        let mut min_rate = f64::INFINITY;
        for &p in loss_rates {
            let interval = sample_avg_interval(p, rng);
            let rate = padhye_throughput(PACKET, RTT, (1.0 / interval).min(1.0));
            min_rate = min_rate.min(rate);
        }
        acc += min_rate;
    }
    acc / trials as f64
}

/// The paper's "distributed" loss assignment: the vast majority of receivers
/// have 0.5–2 % loss, some 2–5 %, and on the order of `c·log(n)` receivers
/// 5–10 %.
fn stratified_loss_rates(n: usize, rng: &mut SmallRng) -> Vec<f64> {
    let high = ((n as f64).ln().ceil() as usize).clamp(1, n);
    let mid = (n / 10).clamp(high, n);
    (0..n)
        .map(|i| {
            if i < high {
                rng.gen_range(0.05..0.10)
            } else if i < mid {
                rng.gen_range(0.02..0.05)
            } else {
                rng.gen_range(0.005..0.02)
            }
        })
        .collect()
}

/// The fluid-tier estimate of the sender's tracked minimum rate for the
/// stratified population: the rate of the slowest quantile bin of the
/// high-loss stratum (the `~ln(n)` receivers at 5–10 % loss that govern
/// the minimum under the comonotone coupling).  Entirely closed-form, so
/// the receiver axis extends to 10⁶–10⁷ where Monte-Carlo sampling of
/// individual receivers is no longer feasible.
fn population_min_throughput(n: usize) -> f64 {
    let high = ((n as f64).ln().ceil() as u64).clamp(1, n as u64);
    let profile = PopulationProfile {
        count: high,
        loss: Dist::Uniform { lo: 0.05, hi: 0.10 },
        rtt: Dist::Point(RTT),
        bins: (high as usize).min(64),
    };
    let bins = profile.quantize(PACKET);
    bins.last().expect("at least one bin").rate
}

/// Averages replica estimates back into one point per receiver count,
/// in fixed (point) order so the reduction is deterministic.
fn mean_per_count(ns: &[usize], replicas: usize, estimates: &[f64]) -> Vec<(f64, f64)> {
    ns.iter()
        .zip(estimates.chunks(replicas))
        .map(|(&n, chunk)| {
            let mean = chunk.iter().sum::<f64>() / chunk.len() as f64;
            (n as f64, bytes_to_bits(mean) / 1000.0)
        })
        .collect()
}

/// Figure 7: throughput versus receiver-set size for constant (identical,
/// independent) loss and for the stratified loss distribution.
pub fn fig07_scaling(runner: &SweepRunner, scale: Scale) -> Figure {
    let ns: Vec<usize> = scale.pick(
        vec![1, 10, 100, 1000],
        vec![1, 3, 10, 30, 100, 300, 1000, 3000, 10_000],
    );
    // Shard the Monte-Carlo trials of each receiver count into seed
    // replicas: the estimate is the mean over replicas, and each replica is
    // one sweep point, so even the largest n parallelises.
    let replicas = scale.pick(4, 8);
    let trials_per_replica = scale.pick(20, 200) / replicas;
    let mut fig = Figure::new(
        "fig07",
        "Scaling of throughput with the receiver-set size",
        "number of receivers",
        "throughput (kbit/s)",
    );

    // The receiver count of every point, receivers-major: point seeds
    // follow the point index, so this order is part of the result.
    let grid: Vec<usize> = ns
        .iter()
        .flat_map(|&n| std::iter::repeat_n(n, replicas))
        .collect();
    let constant = runner.run(7, &grid, |&n, seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let rates = vec![LOSS_RATE; n];
        tracked_minimum_throughput(&rates, trials_per_replica, &mut rng)
    });
    fig.push_series(Series::new(
        "constant",
        mean_per_count(&ns, replicas, &constant),
    ));

    let distributed = runner.run(1007, &grid, |&n, seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let rates = stratified_loss_rates(n, &mut rng);
        tracked_minimum_throughput(&rates, trials_per_replica, &mut rng)
    });
    fig.push_series(Series::new(
        "distrib.",
        mean_per_count(&ns, replicas, &distributed),
    ));

    // Analytic (order statistics) reference for the constant case.
    let analytic: Vec<(f64, f64)> = ns
        .iter()
        .zip(runner.run(0, &ns, |&n, _| {
            scaling_throughput(n as u64, HISTORY as u32, LOSS_RATE, RTT, PACKET)
        }))
        .map(|(&n, bytes)| (n as f64, bytes_to_bits(bytes) / 1000.0))
        .collect();
    fig.push_series(Series::new("constant (analytic, sqrt model)", analytic));

    // The fluid-population extension of the stratified sweep: closed-form
    // minimum-rate estimates carry the receiver axis to 10⁶ (quick) and
    // 10⁷ (paper) — the regime the hybrid packet/fluid tier simulates.
    let extended_ns: Vec<usize> = scale.pick(
        vec![1000, 10_000, 100_000, 1_000_000],
        vec![10_000, 100_000, 1_000_000, 10_000_000],
    );
    let population: Vec<(f64, f64)> = extended_ns
        .iter()
        .zip(runner.run(0, &extended_ns, |&n, _| population_min_throughput(n)))
        .map(|(&n, bytes)| (n as f64, bytes_to_bits(bytes) / 1000.0))
        .collect();
    fig.push_series(Series::new("stratified (population model)", population));

    let fair = fig.series("constant").unwrap().points[0].1;
    let worst = fig.series("constant").unwrap().last_y().unwrap_or(0.0);
    let distrib_worst = fig.series("distrib.").unwrap().last_y().unwrap_or(0.0);
    let population_worst = fig
        .series("stratified (population model)")
        .unwrap()
        .last_y()
        .unwrap_or(0.0);
    fig.note(format!(
        "fair rate at n=1: {fair:.0} kbit/s; constant-loss degradation at largest n: {:.2}x; stratified distribution retains {:.0}% of the single-receiver rate (paper: ~1/6 and ~70%); population model holds {:.0} kbit/s at n=10^{:.0}",
        worst / fair.max(1e-9),
        100.0 * distrib_worst / fig.series("distrib.").unwrap().points[0].1.max(1e-9),
        population_worst,
        (*extended_ns.last().unwrap() as f64).log10()
    ));
    fig
}

/// Figure 17: loss events per RTT as a function of the loss event rate.
pub fn fig17_loss_events_per_rtt(runner: &SweepRunner, _scale: Scale) -> Figure {
    let mut fig = Figure::new(
        "fig17",
        "Loss events per RTT",
        "loss event rate",
        "loss events / RTT",
    );
    let mut ps = Vec::new();
    let mut p = 1e-4;
    while p <= 1.0 {
        ps.push(p);
        p *= 1.15;
    }
    let points: Vec<(f64, f64)> = ps
        .iter()
        .zip(runner.run(17, &ps, |&p, _| loss_events_per_rtt(p)))
        .map(|(&p, y)| (p, y))
        .collect();
    let peak = points.iter().map(|&(_, y)| y).fold(0.0, f64::max);
    fig.push_series(Series::new("loss events per RTT", points));
    fig.note(format!(
        "maximum {peak:.3} loss events per RTT (paper: approximately 0.13)"
    ));
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig07_constant_loss_degrades_and_stratified_degrades_less() {
        let fig = fig07_scaling(&SweepRunner::new(2), Scale::Quick);
        let constant = fig.series("constant").unwrap();
        let distrib = fig.series("distrib.").unwrap();
        let c_first = constant.points[0].1;
        let c_last = constant.last_y().unwrap();
        assert!(
            c_last < c_first * 0.6,
            "constant loss must degrade strongly"
        );
        let d_first = distrib.points[0].1;
        let d_last = distrib.last_y().unwrap();
        // The stratified distribution retains a much larger fraction.
        assert!(
            d_last / d_first > c_last / c_first,
            "stratified ({:.2}) should degrade less than constant ({:.2})",
            d_last / d_first,
            c_last / c_first
        );
        // Fair rate at n = 1 is in the ~300 kbit/s ballpark.
        assert!((150.0..=500.0).contains(&c_first), "fair rate {c_first}");
    }

    #[test]
    fn fig07_population_series_extends_the_axis_to_1e6() {
        let fig = fig07_scaling(&SweepRunner::new(2), Scale::Quick);
        let pop = fig.series("stratified (population model)").unwrap();
        assert_eq!(
            pop.points.last().unwrap().0,
            1_000_000.0,
            "the population-model axis must reach 10⁶ at quick scale"
        );
        // The fluid estimate degrades monotonically — larger populations push
        // the lossiest receiver's quantile toward the 10 % loss cap — but the
        // session keeps a usable rate even at 10⁶ receivers.
        for w in pop.points.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-9, "non-monotone: {:?}", pop.points);
        }
        assert!(
            pop.last_y().unwrap() > 10.0,
            "rate collapsed: {:?}",
            pop.points
        );
    }

    #[test]
    fn fig07_is_thread_count_invariant() {
        let serial = fig07_scaling(&SweepRunner::new(1), Scale::Quick);
        let parallel = fig07_scaling(&SweepRunner::new(8), Scale::Quick);
        assert_eq!(serial.to_json().render(), parallel.to_json().render());
    }

    #[test]
    fn fig17_peak_matches_paper() {
        let fig = fig17_loss_events_per_rtt(&SweepRunner::serial(), Scale::Quick);
        let peak = fig.series[0]
            .points
            .iter()
            .map(|&(_, y)| y)
            .fold(0.0, f64::max);
        assert!((0.10..=0.16).contains(&peak), "peak {peak}");
    }
}
