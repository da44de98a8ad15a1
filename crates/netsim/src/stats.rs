//! Measurement utilities: throughput meters, time series and counters.
//!
//! The paper's figures are throughput-vs-time plots binned over intervals of
//! a second or so, summary statistics over receiver-set sweeps, and event
//! counts (number of feedback messages).  [`ThroughputMeter`] provides the
//! binned byte counting, [`StatsRegistry`] the named series/counters used to
//! pull results out of a finished simulation.

use std::collections::BTreeMap;

use crate::time::SimTime;

/// Bins received (or sent) bytes into fixed-size time intervals so that a
/// throughput-vs-time series can be produced afterwards.
#[derive(Debug, Clone)]
pub struct ThroughputMeter {
    bin: f64,
    bins: Vec<u64>,
    total_bytes: u64,
    first_at: Option<SimTime>,
    last_at: Option<SimTime>,
}

impl ThroughputMeter {
    /// Creates a meter with `bin` second bins.
    pub fn new(bin: f64) -> Self {
        assert!(bin > 0.0, "bin width must be positive");
        ThroughputMeter {
            bin,
            bins: Vec::new(),
            total_bytes: 0,
            first_at: None,
            last_at: None,
        }
    }

    /// Records `bytes` observed at `now`.
    pub fn record(&mut self, now: SimTime, bytes: u64) {
        let idx = (now.as_secs() / self.bin) as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0);
        }
        self.bins[idx] += bytes;
        self.total_bytes += bytes;
        if self.first_at.is_none() {
            self.first_at = Some(now);
        }
        self.last_at = Some(now);
    }

    /// Total bytes recorded.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Throughput series as `(bin start time, bytes/second)` tuples.
    pub fn series(&self) -> Vec<(f64, f64)> {
        self.bins
            .iter()
            .enumerate()
            .map(|(i, &b)| (i as f64 * self.bin, b as f64 / self.bin))
            .collect()
    }

    /// Average throughput in bytes/second over `[from, to]`.
    pub fn average_between(&self, from: f64, to: f64) -> f64 {
        assert!(to > from, "invalid interval");
        let mut bytes = 0u64;
        for (i, &b) in self.bins.iter().enumerate() {
            let start = i as f64 * self.bin;
            let end = start + self.bin;
            if start >= from && end <= to {
                bytes += b;
            }
        }
        bytes as f64 / (to - from)
    }

    /// Average throughput in bytes/second over the whole recording.
    pub fn average(&self) -> f64 {
        match (self.first_at, self.last_at) {
            (Some(_), Some(last)) if last.as_secs() > 0.0 => {
                self.total_bytes as f64 / last.as_secs()
            }
            _ => 0.0,
        }
    }

    /// Per-bin rates (bytes/second) of the bins fully inside `[from, to]`.
    ///
    /// Bins exist only up to the last recorded sample, so a window reaching
    /// past the end of the data is truncated there rather than padded with
    /// zeros — callers comparing flows over a window should also assert on
    /// the average, which does cover silence.
    fn rates_between(&self, from: f64, to: f64) -> Vec<f64> {
        self.bins
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                let start = *i as f64 * self.bin;
                start >= from && start + self.bin <= to
            })
            .map(|(_, &b)| b as f64 / self.bin)
            .collect()
    }

    /// Coefficient of variation of the per-bin throughput over `[from, to]` —
    /// the smoothness measure used when comparing TFMCC with TCP.
    pub fn coefficient_of_variation(&self, from: f64, to: f64) -> f64 {
        let vals = self.rates_between(from, to);
        if vals.len() < 2 {
            return 0.0;
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
        var.sqrt() / mean
    }

    /// Mean absolute relative change between adjacent bins over `[from, to]`
    /// — the short-timescale smoothness measure used when comparing TFMCC
    /// with TCP.  A saw-toothing TCP flow scores high; an equation-based flow
    /// whose rate drifts slowly scores low even when its long-run average
    /// wanders (which [`Self::coefficient_of_variation`] would punish).
    pub fn mean_relative_change(&self, from: f64, to: f64) -> f64 {
        let vals = self.rates_between(from, to);
        if vals.len() < 2 {
            return 0.0;
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let mean_step =
            vals.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (vals.len() - 1) as f64;
        mean_step / mean
    }

    /// Maximum per-bin throughput in bytes/second.
    pub fn peak(&self) -> f64 {
        self.bins
            .iter()
            .map(|&b| b as f64 / self.bin)
            .fold(0.0, f64::max)
    }
}

/// Named counters and time series shared across a simulation run.
#[derive(Debug, Default)]
pub struct StatsRegistry {
    counters: BTreeMap<String, f64>,
    series: BTreeMap<String, Vec<(f64, f64)>>,
}

impl StatsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter.
    pub fn add(&mut self, name: &str, delta: f64) {
        *self.counters.entry(name.to_string()).or_insert(0.0) += delta;
    }

    /// Reads a counter (0 if never written).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Appends a `(time, value)` sample to the named series.
    pub fn sample(&mut self, name: &str, time: SimTime, value: f64) {
        self.series
            .entry(name.to_string())
            .or_default()
            .push((time.as_secs(), value));
    }

    /// Returns the samples of a series (empty if never written).
    pub fn series(&self, name: &str) -> &[(f64, f64)] {
        self.series.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Names of all recorded series, sorted (the registry map is ordered, so
    /// key iteration is already sorted).
    pub fn series_names(&self) -> Vec<String> {
        self.series.keys().cloned().collect()
    }

    /// Names of all counters, sorted.
    pub fn counter_names(&self) -> Vec<String> {
        self.counters.keys().cloned().collect()
    }

    /// A 64-bit FNV-1a digest over every counter and series (names plus the
    /// raw f64 bit patterns of the values).  Two registries digest equal iff
    /// they are bit-identical, which the equivalence tests, `scale_probe`
    /// and the benchmark compare across engine configurations and commits.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        for (name, value) in &self.counters {
            h.write(name.as_bytes());
            h.write(&value.to_bits().to_le_bytes());
        }
        for (name, samples) in &self.series {
            h.write(name.as_bytes());
            for &(t, v) in samples {
                h.write(&t.to_bits().to_le_bytes());
                h.write(&v.to_bits().to_le_bytes());
            }
        }
        h.finish()
    }
}

/// Minimal FNV-1a, kept local so the digest needs no dependencies and no
/// `std::hash` machinery (hasher state is explicit and deterministic).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_bins_bytes_by_time() {
        let mut m = ThroughputMeter::new(1.0);
        m.record(SimTime::from_secs(0.5), 1000);
        m.record(SimTime::from_secs(0.9), 1000);
        m.record(SimTime::from_secs(1.5), 500);
        let s = m.series();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0], (0.0, 2000.0));
        assert_eq!(s[1], (1.0, 500.0));
        assert_eq!(m.total_bytes(), 2500);
    }

    #[test]
    fn meter_average_between() {
        let mut m = ThroughputMeter::new(1.0);
        for i in 0..10 {
            m.record(SimTime::from_secs(i as f64 + 0.5), 1000);
        }
        assert_eq!(m.average_between(0.0, 10.0), 1000.0);
        assert_eq!(m.average_between(2.0, 4.0), 1000.0);
    }

    #[test]
    fn meter_cov_zero_for_constant_rate() {
        let mut m = ThroughputMeter::new(1.0);
        for i in 0..20 {
            m.record(SimTime::from_secs(i as f64 + 0.1), 1000);
        }
        assert!(m.coefficient_of_variation(0.0, 20.0) < 1e-12);
    }

    #[test]
    fn meter_cov_positive_for_bursty_rate() {
        let mut m = ThroughputMeter::new(1.0);
        for i in 0..20 {
            let bytes = if i % 2 == 0 { 2000 } else { 10 };
            m.record(SimTime::from_secs(i as f64 + 0.1), bytes);
        }
        assert!(m.coefficient_of_variation(0.0, 20.0) > 0.5);
    }

    #[test]
    fn meter_relative_change_separates_sawtooth_from_drift() {
        // A slow linear drift: large total variance, tiny bin-to-bin steps.
        let mut drifting = ThroughputMeter::new(1.0);
        for i in 0..20u64 {
            drifting.record(SimTime::from_secs(i as f64 + 0.1), 1000 + 100 * i);
        }
        // A saw-tooth at the same mean: small drift, large steps.
        let mut sawtooth = ThroughputMeter::new(1.0);
        for i in 0..20u64 {
            let bytes = if i % 2 == 0 { 2900 } else { 1000 };
            sawtooth.record(SimTime::from_secs(i as f64 + 0.1), bytes);
        }
        let drift_score = drifting.mean_relative_change(0.0, 20.0);
        let saw_score = sawtooth.mean_relative_change(0.0, 20.0);
        assert!(drift_score < 0.1, "drift score {drift_score}");
        assert!(saw_score > 0.5, "sawtooth score {saw_score}");
        // CoV, in contrast, cannot tell them apart.
        assert!(drifting.coefficient_of_variation(0.0, 20.0) > 0.2);
    }

    #[test]
    fn meter_peak_and_average() {
        let mut m = ThroughputMeter::new(0.5);
        m.record(SimTime::from_secs(0.1), 100);
        m.record(SimTime::from_secs(2.0), 1000);
        assert_eq!(m.peak(), 2000.0);
        assert!(m.average() > 0.0);
    }

    #[test]
    fn registry_counters_and_series() {
        let mut r = StatsRegistry::new();
        r.add("drops", 1.0);
        r.add("drops", 2.0);
        assert_eq!(r.counter("drops"), 3.0);
        assert_eq!(r.counter("missing"), 0.0);
        r.sample("rate", SimTime::from_secs(1.0), 42.0);
        r.sample("rate", SimTime::from_secs(2.0), 43.0);
        assert_eq!(r.series("rate").len(), 2);
        assert_eq!(r.series("rate")[1], (2.0, 43.0));
        assert_eq!(r.series_names(), vec!["rate".to_string()]);
        assert_eq!(r.counter_names(), vec!["drops".to_string()]);
    }
}
