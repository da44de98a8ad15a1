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
///
/// The bin being written is kept inline (`open`) and added to `bins` only
/// when a record lands in another bin, so the per-packet `record` of a
/// receiver touches the meter itself and not its bin vector.  Readers fold
/// the open bin in; byte counts are integers, so the folded bins equal the
/// ones an eager meter would hold.
#[derive(Debug, Clone)]
pub struct ThroughputMeter {
    bin: f64,
    /// Bytes per bin, without the open bin's.
    bins: Vec<u64>,
    /// `(bin index, bytes)` of the bin being written.
    open: Option<(usize, u64)>,
    total_bytes: u64,
    last_at: Option<SimTime>,
}

impl ThroughputMeter {
    /// Creates a meter with `bin` second bins.
    pub fn new(bin: f64) -> Self {
        assert!(bin > 0.0, "bin width must be positive");
        ThroughputMeter {
            bin,
            bins: Vec::new(),
            open: None,
            total_bytes: 0,
            last_at: None,
        }
    }

    /// Records `bytes` observed at `now`.
    pub fn record(&mut self, now: SimTime, bytes: u64) {
        let idx = (now.as_secs() / self.bin) as usize;
        match self.open {
            Some((open, ref mut open_bytes)) if open == idx => *open_bytes += bytes,
            previous => {
                if let Some((i, b)) = previous {
                    if i >= self.bins.len() {
                        self.bins.resize(i + 1, 0);
                    }
                    self.bins[i] += b;
                }
                self.open = Some((idx, bytes));
            }
        }
        self.total_bytes += bytes;
        self.last_at = Some(now);
    }

    /// Bytes per bin, the open bin folded in, from bin 0 to the last bin
    /// recorded into.
    fn bins(&self) -> impl Iterator<Item = u64> + '_ {
        let len = match self.open {
            Some((i, _)) => self.bins.len().max(i + 1),
            None => self.bins.len(),
        };
        (0..len).map(move |i| {
            let closed = self.bins.get(i).copied().unwrap_or(0);
            match self.open {
                Some((open, bytes)) if open == i => closed + bytes,
                _ => closed,
            }
        })
    }

    /// Total bytes recorded.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Time of the most recent record.
    pub fn last_at(&self) -> Option<SimTime> {
        self.last_at
    }

    /// Throughput series as `(bin start time, bytes/second)` tuples.
    pub fn series(&self) -> Vec<(f64, f64)> {
        self.bins()
            .enumerate()
            .map(|(i, b)| (i as f64 * self.bin, b as f64 / self.bin))
            .collect()
    }

    /// Average throughput in bytes/second over `[from, to]`.
    pub fn average_between(&self, from: f64, to: f64) -> f64 {
        assert!(to > from, "invalid interval");
        let mut bytes = 0u64;
        for (i, b) in self.bins().enumerate() {
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
        match self.last_at {
            Some(last) if last.as_secs() > 0.0 => self.total_bytes as f64 / last.as_secs(),
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
        self.bins()
            .enumerate()
            .filter(|(i, _)| {
                let start = *i as f64 * self.bin;
                start >= from && start + self.bin <= to
            })
            .map(|(_, b)| b as f64 / self.bin)
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
        self.bins().map(|b| b as f64 / self.bin).fold(0.0, f64::max)
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

    /// Adds `delta` to the named counter.  Only the first write of a name
    /// allocates its key.
    pub fn add(&mut self, name: &str, delta: f64) {
        match self.counters.get_mut(name) {
            Some(value) => *value += delta,
            // `0.0 + delta`, not `delta`: a first `-0.0` is stored as `+0.0`,
            // as accumulating onto a zeroed counter does.
            None => {
                self.counters.insert(name.to_string(), 0.0 + delta);
            }
        }
    }

    /// Reads a counter (0 if never written).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Appends a `(time, value)` sample to the named series.  Only the first
    /// sample of a name allocates its key.
    pub fn sample(&mut self, name: &str, time: SimTime, value: f64) {
        let sample = (time.as_secs(), value);
        match self.series.get_mut(name) {
            Some(samples) => samples.push(sample),
            None => self
                .series
                .entry(name.to_string())
                .or_default()
                .push(sample),
        }
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
    use proptest::prelude::*;

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

    #[test]
    fn registry_stores_a_first_negative_zero_as_accumulated() {
        let mut r = StatsRegistry::new();
        r.add("z", -0.0);
        assert_eq!(r.counter("z").to_bits(), (0.0f64 + -0.0).to_bits());
    }

    /// The pre-open-bin `record`: every byte goes straight into `bins`, so a
    /// meter filled this way has no open bin and its readers see exactly
    /// the eager bins.
    fn record_eager(m: &mut ThroughputMeter, now: SimTime, bytes: u64) {
        let idx = (now.as_secs() / m.bin) as usize;
        if idx >= m.bins.len() {
            m.bins.resize(idx + 1, 0);
        }
        m.bins[idx] += bytes;
        m.total_bytes += bytes;
        m.last_at = Some(now);
    }

    fn bits(xs: &[(f64, f64)]) -> Vec<(u64, u64)> {
        xs.iter().map(|(a, b)| (a.to_bits(), b.to_bits())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random record sequences — steps inside a bin, jumps across bins
        /// and returns to an earlier bin — with every reader compared bit
        /// for bit against the eager meter after each record.
        #[test]
        fn open_bin_meter_reads_bit_equal_to_the_eager_meter(
            bin in 0.1f64..2.0,
            steps in proptest::collection::vec(-3.0f64..2.0, 120..121),
            sizes in proptest::collection::vec(0u64..3000, 1..120),
            froms in proptest::collection::vec(0.0f64..20.0, 4..5),
            lens in proptest::collection::vec(0.05f64..15.0, 4..5),
        ) {
            let mut meter = ThroughputMeter::new(bin);
            let mut eager = ThroughputMeter::new(bin);
            let mut now = 0.0f64;
            for (&dt, &bytes) in steps.iter().zip(&sizes) {
                now = (now + dt).max(0.0);
                meter.record(SimTime::from_secs(now), bytes);
                record_eager(&mut eager, SimTime::from_secs(now), bytes);
                prop_assert_eq!(bits(&meter.series()), bits(&eager.series()));
                prop_assert_eq!(meter.average().to_bits(), eager.average().to_bits());
                prop_assert_eq!(meter.peak().to_bits(), eager.peak().to_bits());
                prop_assert_eq!(meter.total_bytes(), eager.total_bytes());
                prop_assert_eq!(meter.last_at(), eager.last_at());
                for (&from, &len) in froms.iter().zip(&lens) {
                    let to = from + len;
                    prop_assert_eq!(
                        meter.average_between(from, to).to_bits(),
                        eager.average_between(from, to).to_bits()
                    );
                    prop_assert_eq!(
                        meter.coefficient_of_variation(from, to).to_bits(),
                        eager.coefficient_of_variation(from, to).to_bits()
                    );
                    prop_assert_eq!(
                        meter.mean_relative_change(from, to).to_bits(),
                        eager.mean_relative_change(from, to).to_bits()
                    );
                }
            }
        }
    }
}
