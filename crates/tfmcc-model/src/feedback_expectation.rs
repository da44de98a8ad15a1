//! Expected number of feedback responses under exponential timer suppression.
//!
//! Paper Section 2.5.4 (Figure 4) plots the expected number of feedback
//! messages per round when `n` receivers draw exponentially distributed
//! random timers over `[0, T']` (paper Eq. 2) and a response suppresses all
//! timers that have not yet fired once it has propagated (one network delay
//! `D` after it is sent).
//!
//! A receiver responds iff its timer fires earlier than
//! `min(other timers) + D`, so the expected number of responses is
//!
//! ```text
//! E[R] = n * ∫ f(t) * (1 - F(t - D))^(n-1) dt
//! ```
//!
//! with `F` the timer CDF `F(t) = N^(t/T' - 1)` on `[0, T']` (with an atom of
//! size `1/N` at zero) and `f` its density.  The integral has no elementary
//! closed form once the atom and the boundary are handled, so we evaluate it
//! numerically on a fine grid; the result matches Monte-Carlo simulation of
//! feedback rounds (see `tfmcc-feedback`) to well under one response.

/// Parameters of the exponential feedback timer suppression model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedbackModel {
    /// Estimated upper bound `N` on the receiver-set size (paper uses 10 000).
    pub n_estimate: f64,
    /// Maximum feedback delay `T'` used for suppression, in units of the
    /// network delay `D` (i.e. `T' = x` means `x · D` seconds).
    pub t_max_in_delays: f64,
}

impl Default for FeedbackModel {
    fn default() -> Self {
        Self {
            n_estimate: 10_000.0,
            t_max_in_delays: 4.0,
        }
    }
}

impl FeedbackModel {
    /// CDF of a single feedback timer at time `t` (in network-delay units).
    ///
    /// `F(t) = N^(t/T' - 1)` for `0 <= t <= T'`, `0` below, `1` above.  The
    /// value at `t = 0` is `1/N`, the probability of an immediate response.
    pub fn timer_cdf(&self, t: f64) -> f64 {
        if t < 0.0 {
            0.0
        } else if t >= self.t_max_in_delays {
            1.0
        } else {
            self.n_estimate.powf(t / self.t_max_in_delays - 1.0)
        }
    }

    /// Expected number of responses in one feedback round with `n` receivers.
    pub fn expected_responses(&self, n: u64) -> f64 {
        expected_responses(n, self.n_estimate, self.t_max_in_delays, 1.0)
    }
}

/// Expected number of feedback responses in a single suppression round.
///
/// * `n` — actual number of receivers wishing to respond,
/// * `n_estimate` — the `N` used to parameterise the timers,
/// * `t_max` — maximum feedback delay `T'`,
/// * `delay` — one-way network delay `D` after which a response suppresses
///   others (same unit as `t_max`).
pub fn expected_responses(n: u64, n_estimate: f64, t_max: f64, delay: f64) -> f64 {
    assert!(n_estimate > 1.0, "n_estimate must exceed 1");
    assert!(t_max > 0.0, "t_max must be positive");
    assert!(delay >= 0.0, "delay must be non-negative");
    if n == 0 {
        return 0.0;
    }
    if n == 1 {
        return 1.0;
    }
    let nf = n as f64;
    let cdf = |t: f64| -> f64 {
        if t < 0.0 {
            0.0
        } else if t >= t_max {
            1.0
        } else {
            n_estimate.powf(t / t_max - 1.0)
        }
    };
    // P(response) for one receiver = E over its own timer t of
    // (1 - F(t - delay))^(n-1); the expectation over t is taken against the
    // timer distribution which has an atom of 1/N at t = 0 and density
    // F'(t) = F(t) * ln(N)/T' on (0, T'].
    let atom = 1.0 / n_estimate;
    // A receiver firing at exactly 0 can only be suppressed by another timer
    // earlier than -delay, which is impossible, so the atom always responds.
    let mut p_respond = atom;
    let steps = 4000;
    let ln_n = n_estimate.ln();
    let dt = t_max / steps as f64;
    let mut prev = {
        let t = 0.0_f64;
        cdf(t) * ln_n / t_max * (1.0 - cdf(t - delay)).powf(nf - 1.0)
    };
    for i in 1..=steps {
        let t = i as f64 * dt;
        let density = cdf(t) * ln_n / t_max;
        let val = density * (1.0 - cdf(t - delay)).powf(nf - 1.0);
        p_respond += 0.5 * (prev + val) * dt;
        prev = val;
    }
    nf * p_respond
}

/// [`expected_responses`] over a grid of `t_max` values and receiver
/// counts, as plotted in paper Figure 4.
///
/// Returns one row per `(t_max, n)` pair: `(t_max, n, expected_responses)`.
pub fn expected_responses_grid(
    t_max_values: &[f64],
    n_values: &[u64],
    n_estimate: f64,
) -> Vec<(f64, u64, f64)> {
    let mut out = Vec::with_capacity(t_max_values.len() * n_values.len());
    for &t in t_max_values {
        for &n in n_values {
            out.push((t, n, expected_responses(n, n_estimate, t, 1.0)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_receiver_always_responds_once() {
        assert_eq!(expected_responses(1, 10_000.0, 4.0, 1.0), 1.0);
        assert_eq!(expected_responses(0, 10_000.0, 4.0, 1.0), 0.0);
    }

    #[test]
    fn more_receivers_never_fewer_responses_than_one() {
        for &n in &[2u64, 10, 100, 1000, 10_000] {
            let r = expected_responses(n, 10_000.0, 4.0, 1.0);
            assert!(r >= 1.0, "n={n}: {r}");
        }
    }

    #[test]
    fn implosion_when_t_max_too_small() {
        // With a suppression window shorter than the network delay nobody is
        // suppressed: everyone responds.
        let r = expected_responses(500, 10_000.0, 0.5, 1.0);
        assert!(r > 450.0, "expected near-implosion, got {r}");
    }

    #[test]
    fn moderate_t_gives_handful_of_responses() {
        // Paper Section 2.5.4: T' of 3-4 RTTs gives a desirable, small number
        // of responses for n one to two orders of magnitude below N = 10000.
        for &n in &[100u64, 1000] {
            let r = expected_responses(n, 10_000.0, 4.0, 1.0);
            assert!(
                (1.0..=20.0).contains(&r),
                "n={n}: expected a handful of responses, got {r}"
            );
        }
    }

    #[test]
    fn responses_decrease_with_larger_t_max() {
        let n = 1000;
        let r3 = expected_responses(n, 10_000.0, 3.0, 1.0);
        let r4 = expected_responses(n, 10_000.0, 4.0, 1.0);
        let r6 = expected_responses(n, 10_000.0, 6.0, 1.0);
        assert!(r3 >= r4 && r4 >= r6, "r3={r3} r4={r4} r6={r6}");
    }

    #[test]
    fn underestimating_n_causes_implosion() {
        // If the true receiver count greatly exceeds N, many immediate
        // responses (the 1/N atom) occur: roughly n/N responses at least.
        let r = expected_responses(100_000, 1000.0, 4.0, 1.0);
        assert!(r > 90.0, "expected ≳100 immediate responses, got {r}");
    }

    #[test]
    fn cdf_shape() {
        let m = FeedbackModel::default();
        assert!((m.timer_cdf(0.0) - 1.0 / 10_000.0).abs() < 1e-12);
        assert_eq!(m.timer_cdf(-1.0), 0.0);
        assert_eq!(m.timer_cdf(4.0), 1.0);
        assert!(m.timer_cdf(2.0) > m.timer_cdf(1.0));
    }

    #[test]
    fn grid_covers_all_pairs() {
        let grid = expected_responses_grid(&[3.0, 4.0], &[10, 100, 1000], 10_000.0);
        assert_eq!(grid.len(), 6);
        assert!(grid.iter().all(|&(_, _, r)| r >= 1.0));
    }

    #[test]
    fn model_struct_matches_free_function() {
        let m = FeedbackModel::default();
        let a = m.expected_responses(500);
        let b = expected_responses(500, 10_000.0, 4.0, 1.0);
        assert_eq!(a, b);
    }
}
