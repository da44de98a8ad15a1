//! Special functions needed by the analytic models.
//!
//! Only what the rest of the crate requires is implemented: the natural log of
//! the gamma function (Lanczos approximation) and the regularized lower
//! incomplete gamma function `P(a, x)` (series + continued-fraction forms),
//! which together give the CDF of the gamma distribution used in the
//! loss-path-multiplicity analysis of paper Section 3.

/// Natural logarithm of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation with g = 7 and 9 coefficients, which is
/// accurate to roughly 15 significant digits over the positive real axis.
pub fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients for g = 7, n = 9.
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection formula keeps accuracy for small arguments.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized lower incomplete gamma function `P(a, x) = γ(a, x) / Γ(a)`.
///
/// `P(a, x)` is the CDF at `x` of a Gamma(shape = `a`, scale = 1) random
/// variable.  For `x < a + 1` the series representation converges quickly and
/// is used; otherwise the continued-fraction representation of the upper
/// function `Q(a, x)` is evaluated and `P = 1 - Q` returned.
pub fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_p requires a > 0, got {a}");
    assert!(x >= 0.0, "gamma_p requires x >= 0, got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_continued_fraction(a, x)
    }
}

/// CDF of a Gamma(shape, scale) distribution evaluated at `x`.
pub fn gamma_cdf(shape: f64, scale: f64, x: f64) -> f64 {
    assert!(scale > 0.0, "gamma_cdf requires scale > 0, got {scale}");
    if x <= 0.0 {
        0.0
    } else {
        gamma_p(shape, x / scale)
    }
}

fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut sum = 1.0 / a;
    let mut term = sum;
    let mut n = a;
    for _ in 0..500 {
        n += 1.0;
        term *= x / n;
        sum += term;
        if term.abs() < sum.abs() * 1e-15 {
            break;
        }
    }
    (sum.ln() + a * x.ln() - x - ln_gamma(a)).exp()
}

fn gamma_q_continued_fraction(a: f64, x: f64) -> f64 {
    // Modified Lentz's method for the continued fraction of Q(a, x).
    let tiny = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / tiny;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < tiny {
            d = tiny;
        }
        c = b + an / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-15 {
            break;
        }
    }
    (a * x.ln() - x - ln_gamma(a)).exp() * h
}

/// Harmonic number `H_n = sum_{k=1..n} 1/k`, exact summation for small `n`
/// and the asymptotic expansion for large `n`.
pub fn harmonic(n: u64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    if n <= 10_000 {
        (1..=n).map(|k| 1.0 / k as f64).sum()
    } else {
        let nf = n as f64;
        // Euler–Mascheroni constant.
        const GAMMA: f64 = 0.577_215_664_901_532_9;
        nf.ln() + GAMMA + 1.0 / (2.0 * nf) - 1.0 / (12.0 * nf * nf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol * b.abs().max(1.0),
            "expected {a} ≈ {b} (tol {tol})"
        );
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)! for integer n.
        let mut fact = 1.0_f64;
        for n in 1..15u32 {
            if n > 1 {
                fact *= (n - 1) as f64;
            }
            assert_close(ln_gamma(n as f64), fact.ln(), 1e-12);
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = sqrt(pi).
        assert_close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-12);
        // Γ(3/2) = sqrt(pi)/2.
        assert_close(
            ln_gamma(1.5),
            (std::f64::consts::PI.sqrt() / 2.0).ln(),
            1e-12,
        );
    }

    #[test]
    fn gamma_p_known_values() {
        // For shape 1 the gamma distribution is exponential: P(1, x) = 1 - e^-x.
        for &x in &[0.1, 0.5, 1.0, 2.0, 5.0, 10.0] {
            assert_close(gamma_p(1.0, x), 1.0 - (-x_f(x)).exp(), 1e-12);
        }
        // Median of Gamma(shape=2, scale=1) is about 1.6783.
        assert_close(gamma_p(2.0, 1.678_35), 0.5, 1e-4);
    }

    fn x_f(x: f64) -> f64 {
        x
    }

    #[test]
    fn gamma_p_is_monotone_and_bounded() {
        let mut last = 0.0;
        for i in 0..200 {
            let x = i as f64 * 0.1;
            let p = gamma_p(3.5, x);
            assert!((0.0..=1.0).contains(&p));
            assert!(p >= last - 1e-12);
            last = p;
        }
        assert!(gamma_p(3.5, 60.0) > 0.999_999);
    }

    #[test]
    fn gamma_cdf_scale_is_respected() {
        // Scaling x and the scale parameter together leaves the CDF unchanged.
        assert_close(gamma_cdf(2.0, 3.0, 6.0), gamma_cdf(2.0, 1.0, 2.0), 1e-12);
    }

    #[test]
    fn harmonic_small_and_large_agree() {
        assert_close(harmonic(1), 1.0, 1e-15);
        assert_close(harmonic(4), 1.0 + 0.5 + 1.0 / 3.0 + 0.25, 1e-15);
        // The asymptotic branch should agree with direct summation to ~1e-10.
        let direct: f64 = (1..=20_000u64).map(|k| 1.0 / k as f64).sum();
        assert_close(harmonic(20_000), direct, 1e-10);
    }
}
