//! Order statistics for the loss-path-multiplicity analysis (paper Section 3).
//!
//! When `n` receivers see independent loss with the same probability, the loss
//! intervals at each receiver are (approximately) exponentially distributed
//! and TFMCC, which tracks the *minimum* calculated rate, ends up governed by
//! the minimum of `n` such estimates.  Because the TFMCC loss measure averages
//! `k` intervals, the per-receiver estimate is gamma distributed and the
//! degradation is driven by the expected minimum of `n` gamma variables.
//! These functions compute those expectations and the resulting throughput
//! degradation curve plotted in paper Figure 7 ("constant" series).

use crate::special::{gamma_cdf, harmonic};
use crate::throughput::{mathis_throughput, padhye_throughput};

/// Expected minimum of `n` i.i.d. Exponential(mean = `mean`) random variables.
///
/// Exact: `mean / n`.
pub fn expected_min_exponential(n: u64, mean: f64) -> f64 {
    assert!(n >= 1, "need at least one variable");
    assert!(mean > 0.0, "mean must be positive");
    mean / n as f64
}

/// Expected minimum of `n` i.i.d. Uniform(0, `max`) random variables.
///
/// Exact: `max / (n + 1)`.  The fluid receiver tier places each rate bin's
/// one feedback timer at this point of its members' uniform draws; the tests
/// use it as an independent cross-check of the numeric integration scheme.
pub fn expected_min_uniform(n: u64, max: f64) -> f64 {
    assert!(n >= 1);
    assert!(max > 0.0);
    max / (n as f64 + 1.0)
}

/// Expected maximum of `n` i.i.d. Exponential(mean = `mean`) variables:
/// `mean * H_n` (harmonic number).
pub fn expected_max_exponential(n: u64, mean: f64) -> f64 {
    assert!(n >= 1);
    assert!(mean > 0.0);
    mean * harmonic(n)
}

/// Expected minimum of `n` i.i.d. Gamma(shape, scale) random variables,
/// computed by numerically integrating `E[min] = ∫ (1 - F(x))^n dx`.
///
/// There is no simple closed form for first-order statistics of the gamma
/// distribution (the paper cites Gupta 1960); numeric integration over the
/// survival function is accurate and fast for the parameter ranges we need
/// (shape up to ~32, `n` up to 10⁵).
pub fn expected_min_gamma(n: u64, shape: f64, scale: f64) -> f64 {
    assert!(n >= 1);
    assert!(shape > 0.0 && scale > 0.0);
    let mean = shape * scale;
    // Integrate out to where the survival function raised to n is negligible.
    // The minimum concentrates near zero for large n, so an upper bound of a
    // few means is always sufficient; refine the grid near zero.
    let upper = mean * 8.0;
    let steps = 20_000usize;
    let dx = upper / steps as f64;
    let mut acc = 0.0;
    let mut prev = 1.0_f64; // (1 - F(0))^n = 1
    for i in 1..=steps {
        let x = i as f64 * dx;
        let surv = (1.0 - gamma_cdf(shape, scale, x)).max(0.0).powf(n as f64);
        acc += 0.5 * (prev + surv) * dx;
        prev = surv;
        if surv < 1e-12 && i as f64 * dx > mean {
            break;
        }
    }
    acc
}

/// Throughput degradation factor for a receiver set of size `n` whose loss
/// measurement averages `history_len` exponential loss intervals.
///
/// Returns the ratio (in `(0, 1]`) of the expected TFMCC throughput with `n`
/// receivers to the throughput with a single receiver, under independent loss
/// with identical rate at every receiver (paper Figure 7, "constant" curve).
///
/// Derivation: each receiver's average loss interval is the mean of
/// `history_len` Exp(mean = 1/p) intervals, i.e. Gamma(history_len,
/// 1/(history_len·p)); TFMCC tracks the minimum over `n` receivers of the
/// calculated rate, which under the square-root law is proportional to
/// `sqrt(avg loss interval)`, so the governing quantity is the expected
/// minimum interval.  Following the paper's own argument ("the average
/// sending rate would scale proportionally to 1/sqrt(n)"), the degradation is
/// evaluated with the square-root (Mathis) model; the closed-loop protocol
/// simulation in `tfmcc-experiments` (Figure 7) reproduces the effect with
/// the real estimator and tends to sit between this approximation and the
/// much harsher value the full Padhye model would predict at very high
/// effective loss rates.
pub fn scaling_degradation(
    n: u64,
    history_len: u32,
    loss_rate: f64,
    rtt: f64,
    packet_size: f64,
) -> f64 {
    assert!(n >= 1);
    assert!(history_len >= 1);
    assert!((0.0..1.0).contains(&loss_rate) && loss_rate > 0.0);
    let mean_interval = 1.0 / loss_rate;
    let shape = history_len as f64;
    let scale = mean_interval / shape;
    let min_interval = expected_min_gamma(n, shape, scale);
    let p_effective = (1.0 / min_interval).min(1.0);
    let base = mathis_throughput(packet_size, rtt, loss_rate);
    let degraded = mathis_throughput(packet_size, rtt, p_effective);
    (degraded / base).min(1.0)
}

/// Absolute expected TFMCC throughput (bytes/second) for the Figure 7
/// "constant loss" scenario.
pub fn scaling_throughput(
    n: u64,
    history_len: u32,
    loss_rate: f64,
    rtt: f64,
    packet_size: f64,
) -> f64 {
    scaling_degradation(n, history_len, loss_rate, rtt, packet_size)
        * padhye_throughput(packet_size, rtt, loss_rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, rel: f64) -> bool {
        (a - b).abs() <= rel * b.abs().max(1e-12)
    }

    #[test]
    fn exponential_minimum_exact() {
        assert!(close(expected_min_exponential(1, 2.0), 2.0, 1e-12));
        assert!(close(expected_min_exponential(4, 2.0), 0.5, 1e-12));
        assert!(close(expected_min_exponential(1000, 1.0), 1e-3, 1e-12));
    }

    #[test]
    fn exponential_maximum_harmonic() {
        assert!(close(expected_max_exponential(1, 3.0), 3.0, 1e-12));
        assert!(close(
            expected_max_exponential(4, 1.0),
            1.0 + 0.5 + 1.0 / 3.0 + 0.25,
            1e-12
        ));
    }

    #[test]
    fn gamma_min_with_shape_one_is_exponential() {
        // Gamma(1, scale) == Exponential(mean = scale).
        for &n in &[1u64, 2, 10, 100] {
            let g = expected_min_gamma(n, 1.0, 2.0);
            let e = expected_min_exponential(n, 2.0);
            assert!(close(g, e, 2e-3), "n={n}: gamma {g} vs exp {e}");
        }
    }

    #[test]
    fn gamma_min_decreases_with_n() {
        let mut last = f64::INFINITY;
        for &n in &[1u64, 2, 4, 16, 64, 256, 1024] {
            let m = expected_min_gamma(n, 8.0, 0.125);
            assert!(m < last);
            assert!(m > 0.0);
            last = m;
        }
    }

    #[test]
    fn gamma_min_single_is_mean() {
        // n = 1: the expected minimum is just the mean, shape*scale.
        let m = expected_min_gamma(1, 8.0, 0.5);
        assert!(close(m, 4.0, 2e-3), "{m}");
    }

    #[test]
    fn averaging_more_intervals_reduces_degradation() {
        // A longer loss history makes the minimum less extreme (paper: the
        // degradation can be alleviated by increasing the number of loss
        // intervals, at the expense of responsiveness).
        let d8 = scaling_degradation(10_000, 8, 0.1, 0.05, 1000.0);
        let d32 = scaling_degradation(10_000, 32, 0.1, 0.05, 1000.0);
        assert!(d32 > d8, "d32={d32} d8={d8}");
    }

    #[test]
    fn paper_figure7_shape() {
        // Figure 7: 10% loss, 50 ms RTT. A single receiver gets the fair rate
        // (degradation 1.0); at 10 000 receivers only a small fraction
        // (paper: about 1/6) of the fair rate remains.  The square-root
        // approximation used here is somewhat gentler than the closed-loop
        // protocol, so accept a band around the paper's value.
        let d1 = scaling_degradation(1, 8, 0.1, 0.05, 1000.0);
        assert!(d1 > 0.999, "single receiver must see no degradation: {d1}");
        let d10k = scaling_degradation(10_000, 8, 0.1, 0.05, 1000.0);
        assert!(
            (0.05..=0.6).contains(&d10k),
            "expected a substantial degradation at n=10⁴, got {d10k}"
        );
        // Monotone decrease along the sweep.
        let mut last = 1.1;
        for &n in &[1u64, 10, 100, 1000, 10_000] {
            let d = scaling_degradation(n, 8, 0.1, 0.05, 1000.0);
            assert!(d <= last + 1e-9);
            last = d;
        }
    }

    #[test]
    fn scaling_throughput_absolute_values() {
        // At n=1 the absolute throughput equals the fair rate (~300 kbit/s).
        let t1 = scaling_throughput(1, 8, 0.1, 0.05, 1000.0) * 8.0 / 1000.0;
        assert!((150.0..=450.0).contains(&t1), "fair rate {t1} kbit/s");
        let t10k = scaling_throughput(10_000, 8, 0.1, 0.05, 1000.0) * 8.0 / 1000.0;
        assert!(t10k < t1 / 2.0, "t10k={t10k} t1={t1}");
    }

    #[test]
    fn uniform_minimum_exact() {
        assert!(close(expected_min_uniform(1, 1.0), 0.5, 1e-12));
        assert!(close(expected_min_uniform(9, 1.0), 0.1, 1e-12));
    }
}
