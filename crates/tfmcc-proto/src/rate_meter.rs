//! Receive-rate measurement.
//!
//! Receivers report the rate at which data is arriving; the sender uses the
//! minimum over the group during slowstart (target = 2 × min receive rate,
//! paper Section 2.6) and the receiver uses it to initialise the loss history
//! at the first loss event (Appendix B).

use std::hash::Hasher;

use crate::step::{hash_f64, StateFingerprint};

/// Sliding-window receive-rate meter.
///
/// Samples live in a ring of arrival times that is recycled in place:
/// arrivals go in at the tail while [`ReceiveRateMeter::record`] expires
/// aged-out samples from the head, so the ring's capacity settles at the
/// peak window occupancy and the per-packet path stops allocating entirely
/// (the receiver allocation-count test pins this).
///
/// A session sends every data packet at one size, so a sample costs 8 B:
/// while the window holds samples of a single size, that size is stored
/// once.  A second ring of per-sample sizes, slot for slot with the times,
/// is allocated only when a sample of another size joins a non-empty
/// window, and then kept.
#[derive(Debug, Clone)]
pub struct ReceiveRateMeter {
    window: f64,
    /// Arrival times: `len` samples, oldest at slot `head`, wrapping.
    times: Box<[f64]>,
    /// Sample sizes in the slots of `times`, once the window mixed sizes.
    sizes: Option<Box<[u32]>>,
    head: u32,
    len: u32,
    /// The size of every sample in the window while `sizes` is `None`.
    size: u32,
    bytes_in_window: u64,
}

/// Initial ring capacity; covers a couple of RTTs of data at typical
/// simulated rates before the ring ever has to grow.
const INITIAL_SAMPLE_CAPACITY: usize = 64;

impl ReceiveRateMeter {
    /// Creates a meter averaging over `window` seconds.
    pub fn new(window: f64) -> Self {
        assert!(window > 0.0, "window must be positive");
        ReceiveRateMeter {
            window,
            times: vec![0.0; INITIAL_SAMPLE_CAPACITY].into_boxed_slice(),
            sizes: None,
            head: 0,
            len: 0,
            size: 0,
            bytes_in_window: 0,
        }
    }

    /// Changes the averaging window (e.g. once the RTT is known).
    pub fn set_window(&mut self, window: f64) {
        assert!(window > 0.0, "window must be positive");
        self.window = window;
    }

    /// Records the arrival of `bytes` at time `now`.
    pub fn record(&mut self, now: f64, bytes: u32) {
        // Expire first, so a new size after the window has emptied needs no
        // size ring; the new sample itself would never expire.
        self.expire(now);
        if self.sizes.is_none() && bytes != self.size {
            if self.len == 0 {
                self.size = bytes;
            } else {
                self.sizes = Some(vec![self.size; self.times.len()].into_boxed_slice());
            }
        }
        if self.len as usize == self.times.len() {
            self.grow();
        }
        let slot = self.slot(self.len);
        self.times[slot] = now;
        if let Some(sizes) = &mut self.sizes {
            sizes[slot] = bytes;
        }
        self.len += 1;
        self.bytes_in_window += u64::from(bytes);
    }

    /// The ring slot of the `i`-th oldest sample.
    fn slot(&self, i: u32) -> usize {
        let slot = self.head as usize + i as usize;
        if slot >= self.times.len() {
            slot - self.times.len()
        } else {
            slot
        }
    }

    /// The size of the sample in `slot`.
    fn size_at(&self, slot: usize) -> u32 {
        self.sizes.as_ref().map_or(self.size, |sizes| sizes[slot])
    }

    /// Doubles the full ring, oldest sample first at slot 0.
    fn grow(&mut self) {
        fn regrow<T: Copy + Default>(ring: &mut Box<[T]>, head: usize) {
            let mut v = std::mem::take(ring).into_vec();
            v.rotate_left(head);
            v.resize(2 * v.len(), T::default());
            *ring = v.into_boxed_slice();
        }
        let head = self.head as usize;
        regrow(&mut self.times, head);
        if let Some(sizes) = &mut self.sizes {
            regrow(sizes, head);
        }
        self.head = 0;
        assert!(
            u32::try_from(self.times.len()).is_ok(),
            "rate meter ring overflow"
        );
    }

    fn expire(&mut self, now: f64) {
        while self.len > 0 {
            let head = self.head as usize;
            if now - self.times[head] > self.window {
                self.bytes_in_window -= u64::from(self.size_at(head));
                self.head = self.slot(1) as u32;
                self.len -= 1;
            } else {
                break;
            }
        }
    }

    /// Receive rate in bytes/second over the window ending at `now`.
    ///
    /// Before a full window of data has been observed the rate is computed
    /// over the span actually covered, so early estimates are meaningful
    /// rather than biased low.
    pub fn rate(&mut self, now: f64) -> f64 {
        self.expire(now);
        if self.len == 0 {
            return 0.0;
        }
        let first = self.times[self.head as usize];
        // Use the observed span when it is shorter than the window, with a
        // small floor so a burst of back-to-back packets does not read as an
        // absurdly high rate.
        let floor = self.window.min(0.05);
        let span = (now - first).clamp(floor, self.window);
        self.bytes_in_window as f64 / span
    }

    /// Total bytes currently inside the window.
    pub fn bytes_in_window(&self) -> u64 {
        self.bytes_in_window
    }
}

impl StateFingerprint for ReceiveRateMeter {
    /// Hashes each sample as a `(time, size)` pair, oldest first, whether
    /// or not its size is stored per slot.
    fn fingerprint<H: Hasher>(&self, h: &mut H) {
        hash_f64(h, self.window);
        h.write_usize(self.len as usize);
        for i in 0..self.len {
            let slot = self.slot(i);
            hash_f64(h, self.times[slot]);
            h.write_u32(self.size_at(slot));
        }
        h.write_u64(self.bytes_in_window);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[test]
    fn steady_stream_measures_its_rate() {
        let mut m = ReceiveRateMeter::new(1.0);
        // 100 packets of 1000 B over 1 second = 100 kB/s.
        for i in 0..200 {
            m.record(i as f64 * 0.01, 1000);
        }
        let r = m.rate(2.0);
        assert!((90_000.0..=110_000.0).contains(&r), "rate {r}");
    }

    #[test]
    fn rate_drops_when_stream_stops() {
        let mut m = ReceiveRateMeter::new(0.5);
        for i in 0..50 {
            m.record(i as f64 * 0.01, 1000);
        }
        assert!(m.rate(0.5) > 50_000.0);
        // Much later the window is empty.
        assert_eq!(m.rate(10.0), 0.0);
        assert_eq!(m.bytes_in_window(), 0);
    }

    #[test]
    fn early_estimate_uses_observed_span() {
        let mut m = ReceiveRateMeter::new(2.0);
        m.record(0.0, 1000);
        m.record(0.1, 1000);
        let r = m.rate(0.1);
        // 2000 bytes over ~0.1 s ≈ 20 kB/s, not 2000/2.0 = 1 kB/s.
        assert!(r > 10_000.0, "rate {r}");
    }

    #[test]
    fn window_can_be_adjusted() {
        let mut m = ReceiveRateMeter::new(10.0);
        for i in 0..100 {
            m.record(i as f64 * 0.1, 1000);
        }
        m.set_window(1.0);
        let r = m.rate(10.0);
        assert!((8_000.0..=12_000.0).contains(&r), "rate {r}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_rejected() {
        let _ = ReceiveRateMeter::new(0.0);
    }

    #[test]
    fn one_size_never_allocates_the_size_ring() {
        let mut m = ReceiveRateMeter::new(0.1);
        for i in 0..1000 {
            m.record(i as f64 * 0.001, 1000);
        }
        assert!(m.sizes.is_none());
        // A new size after the window has emptied replaces the old one.
        m.record(5.0, 576);
        assert_eq!(m.rate(5.0), 576.0 / 0.05);
        assert!(m.sizes.is_none());
        // A second size inside a non-empty window needs the size ring.
        m.record(5.001, 1500);
        assert!(m.sizes.is_some());
        assert_eq!(m.bytes_in_window(), 576 + 1500);
    }

    /// The meter as it stood before the compact ring: one `(time, size)`
    /// pair per sample, pushed before expiring.
    struct Reference {
        window: f64,
        samples: VecDeque<(f64, u32)>,
        bytes_in_window: u64,
    }

    impl Reference {
        fn record(&mut self, now: f64, bytes: u32) {
            self.samples.push_back((now, bytes));
            self.bytes_in_window += u64::from(bytes);
            self.expire(now);
        }

        fn expire(&mut self, now: f64) {
            while let Some(&(t, b)) = self.samples.front() {
                if now - t > self.window {
                    self.samples.pop_front();
                    self.bytes_in_window -= u64::from(b);
                } else {
                    break;
                }
            }
        }

        fn rate(&mut self, now: f64) -> f64 {
            self.expire(now);
            let Some(&(first, _)) = self.samples.front() else {
                return 0.0;
            };
            let floor = self.window.min(0.05);
            let span = (now - first).clamp(floor, self.window);
            self.bytes_in_window as f64 / span
        }

        fn fingerprint<H: Hasher>(&self, h: &mut H) {
            hash_f64(h, self.window);
            h.write_usize(self.samples.len());
            for &(t, b) in &self.samples {
                hash_f64(h, t);
                h.write_u32(b);
            }
            h.write_u64(self.bytes_in_window);
        }
    }

    /// A hasher that keeps the byte stream it is fed.
    #[derive(Default)]
    struct Recorder(Vec<u8>);

    impl Hasher for Recorder {
        fn finish(&self) -> u64 {
            0
        }
        fn write(&mut self, bytes: &[u8]) {
            self.0.extend_from_slice(bytes);
        }
    }

    fn fingerprint_bytes(f: impl FnOnce(&mut Recorder)) -> Vec<u8> {
        let mut recorder = Recorder::default();
        f(&mut recorder);
        recorder.0
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// After every call on a random mix of arrivals, rate reads and
        /// window shrinks, the compact meter agrees bit for bit with the
        /// pair-per-sample reference: rate, bytes in window and the
        /// fingerprint's byte stream.  `sizes` picks the stream: one size
        /// (0), two sizes mixed at random (1), or a new size only after a
        /// pause that empties the window (2); only (1) may allocate the
        /// size ring.
        #[test]
        fn compact_meter_matches_the_pair_ring(
            sizes in 0u8..3,
            ops in proptest::collection::vec(0u8..32, 1..600),
            gaps in proptest::collection::vec(0.0f64..0.02, 600..601),
            shrinks in proptest::collection::vec(0.2f64..1.0, 600..601),
            picks in proptest::collection::vec(any::<bool>(), 600..601),
        ) {
            let mut m = ReceiveRateMeter::new(1.0);
            let mut r = Reference { window: 1.0, samples: VecDeque::new(), bytes_in_window: 0 };
            let (mut now, mut size) = (0.0, 1000u32);
            for (step, &op) in ops.iter().enumerate() {
                match op {
                    0 => {
                        let window = r.window * shrinks[step];
                        m.set_window(window);
                        r.window = window;
                    }
                    1 => {
                        now += gaps[step];
                        prop_assert_eq!(m.rate(now).to_bits(), r.rate(now).to_bits());
                    }
                    _ => {
                        now += gaps[step];
                        if sizes == 1 && picks[step] {
                            size = 1500;
                        } else if sizes == 1 {
                            size = 1000;
                        } else if sizes == 2 && op == 2 {
                            now += 2.0 * r.window;
                            size = if picks[step] { 576 } else { 1000 + step as u32 };
                        }
                        m.record(now, size);
                        r.record(now, size);
                    }
                }
                prop_assert_eq!(m.bytes_in_window(), r.bytes_in_window, "step {}", step);
                prop_assert_eq!(
                    fingerprint_bytes(|h| m.fingerprint(h)),
                    fingerprint_bytes(|h| r.fingerprint(h)),
                    "step {}", step
                );
                if sizes != 1 {
                    prop_assert!(m.sizes.is_none(), "step {}", step);
                }
            }
        }
    }
}
