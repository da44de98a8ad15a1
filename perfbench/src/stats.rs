//! Medians, percentiles, quartiles and the quiet-machine sum.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count); 0 for no
/// values.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The nearest-rank `q`-quantile, `q` in `[0, 1]`; 0 for no values.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Sum over units of each unit's fastest time across `reps`.
///
/// Each repetition times the same units in the same order (the slices of a
/// simulation run, the figure calls of a pass) and does the same work in
/// each.  What slows a unit down in one repetition and not in another is the
/// machine, not the program: the shared reference box slows down in bursts
/// of milliseconds to seconds, which move the median repetition by 10-20 %
/// from one minute to the next and this sum by 1-4 % (README, "How a run is
/// timed").  A repetition with another unit count than the first is left
/// out; 0 for no repetitions.
pub fn fastest_sum<R: AsRef<[f64]>>(reps: &[R]) -> f64 {
    let Some(first) = reps.first().map(AsRef::as_ref) else {
        return 0.0;
    };
    let same: Vec<&[f64]> = reps
        .iter()
        .map(AsRef::as_ref)
        .filter(|r| r.len() == first.len())
        .collect();
    (0..first.len())
        .map(|i| same.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method) — what the driver computes spreads
/// from.  `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(median(&ten), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fastest_sum_takes_each_units_minimum() {
        let reps = [vec![3.0, 1.0, 5.0], vec![2.0, 4.0, 4.5], vec![9.0]];
        assert_eq!(fastest_sum(&reps), 2.0 + 1.0 + 4.5);
        assert_eq!(fastest_sum::<Vec<f64>>(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }
}
