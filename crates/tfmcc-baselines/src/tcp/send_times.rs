//! Send times of the sender's in-flight segments, for RTT sampling.

use std::collections::VecDeque;

/// Marks a segment that was retransmitted, so has no send time (Karn's
/// rule).  A send time is a simulation clock reading, which is never NaN.
const HOLE: f64 = f64::NAN;

/// Send time of each in-flight segment that was not retransmitted, keyed by
/// sequence number.
///
/// The sender only ever records a send time at `snd_nxt`, which grows
/// between two [`SendTimes::clear`]s, and forgets them from the low end as
/// ACKs advance.  So the times sit in a ring indexed from the sequence
/// number of its first slot: recording appends, and an ACK pops from the
/// front.  A `BTreeMap<u64, f64>` gives the same answers with a node per
/// segment and a fresh map per ACK.
#[derive(Debug, Default)]
pub(crate) struct SendTimes {
    /// Sequence number of `times[0]`; meaningless while `times` is empty.
    first: u64,
    times: VecDeque<f64>,
}

impl SendTimes {
    /// Records that `seq` was sent new at `at`.  `seq` is the sender's
    /// `snd_nxt`, one past the last recorded sequence number: besides a
    /// send, only a timeout moves `snd_nxt` (back, and it clears the ring)
    /// and an ACK beyond it (forward, and that empties the ring).
    pub(crate) fn insert(&mut self, seq: u64, at: f64) {
        if self.times.is_empty() {
            self.first = seq;
        }
        debug_assert_eq!(seq, self.first + self.times.len() as u64, "not snd_nxt");
        self.times.push_back(at);
    }

    /// Forgets the send time of `seq`, if any.
    pub(crate) fn remove(&mut self, seq: u64) {
        if let Some(slot) = self.slot(seq) {
            self.times[slot] = HOLE;
        }
    }

    /// True if a send time is recorded for `seq`.
    pub(crate) fn contains(&self, seq: u64) -> bool {
        self.slot(seq)
            .is_some_and(|slot| !self.times[slot].is_nan())
    }

    /// Forgets every send time below `ack`.
    pub(crate) fn drop_below(&mut self, ack: u64) {
        let n = ack.saturating_sub(self.first).min(self.times.len() as u64);
        self.times.drain(..n as usize);
        self.first += n;
    }

    /// Forgets every send time.
    pub(crate) fn clear(&mut self) {
        self.times.clear();
    }

    /// Number of recorded send times.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.times.iter().filter(|t| !t.is_nan()).count()
    }

    fn slot(&self, seq: u64) -> Option<usize> {
        let slot = usize::try_from(seq.checked_sub(self.first)?).ok()?;
        (slot < self.times.len()).then_some(slot)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    proptest! {
        /// The ring answers every `contains` and every length the way the
        /// `BTreeMap<u64, f64>` it replaced does, under random sequences of
        /// the sender's own operations (each drawn value picks one):
        /// sends at `snd_nxt`, retransmissions of `snd_una`, ACKs up to 12
        /// ahead — beyond `snd_nxt` after a timeout rolled it back — and a
        /// clear followed by a restart.
        #[test]
        fn ring_matches_a_btreemap_oracle(ops in proptest::collection::vec(0u64..96, 1..200)) {
            let mut ring = SendTimes::default();
            let mut oracle = BTreeMap::<u64, f64>::new();
            let (mut snd_una, mut snd_nxt) = (0u64, 0u64);
            for (step, op) in ops.into_iter().enumerate() {
                let now = step as f64 * 0.01;
                match op % 8 {
                    // `fill_window`: a new segment at `snd_nxt`.
                    0..=3 => {
                        ring.insert(snd_nxt, now);
                        oracle.insert(snd_nxt, now);
                        snd_nxt += 1;
                    }
                    // Fast retransmit of `snd_una` (Karn's rule).
                    4 => {
                        ring.remove(snd_una);
                        oracle.remove(&snd_una);
                    }
                    // A new cumulative ACK; after a timeout it may lie
                    // beyond `snd_nxt`.
                    5 | 6 => {
                        let ack = snd_una + 1 + op / 8;
                        prop_assert_eq!(ring.contains(ack - 1), oracle.contains_key(&(ack - 1)));
                        ring.drop_below(ack);
                        oracle = oracle.split_off(&ack);
                        snd_una = ack;
                        snd_nxt = snd_nxt.max(snd_una);
                    }
                    // Timeout: clear, retransmit `snd_una`, restart above it.
                    _ => {
                        ring.clear();
                        oracle.clear();
                        ring.remove(snd_una);
                        oracle.remove(&snd_una);
                        snd_nxt = snd_una + 1;
                    }
                }
                prop_assert_eq!(ring.len(), oracle.len());
                for seq in snd_una.saturating_sub(2)..snd_nxt + 2 {
                    prop_assert_eq!(ring.contains(seq), oracle.contains_key(&seq), "seq {}", seq);
                }
            }
        }
    }
}
