//! The event-queue core of the simulator: the [`CalendarQueue`].
//!
//! # The queue contract
//!
//! The queue stores `(time, seq, item)` entries, where `seq` is a
//! caller-owned sequence number, unique among live entries (the simulator
//! assigns one per scheduled event).  [`CalendarQueue::pop`] returns entries
//! in ascending `(time, seq)` order — time first, `seq` within a time.
//! [`CalendarQueue::pop_until`] takes the same entries in the same order,
//! one per call, but only while the head's time is `<= until`; this is how
//! the simulator dispatches and how it stops at a slice boundary.
//!
//! Entries may be scheduled at times *behind* the last popped entry's time: a
//! `pop_until` that finds its head beyond `until` leaves the calendar's
//! cursor parked on that head, ahead of the caller's clock, so inserts behind
//! the cursor have to work anyway, and the contract makes that unconditional
//! (the simulator itself never schedules into the past, see
//! `World::push_event`).  A late insert simply pops next (in `(time, seq)`
//! order among the remaining entries); it cannot, of course, retroactively
//! order before entries that were already popped.
//!
//! The unit tests below hold the queue to this order against a binary-heap
//! oracle, operation by operation; the simulator asserts it again for every
//! entry of every debug-profile simulation (see `Simulator::run_until`).
//!
//! # Cancellation
//!
//! Entries are cancelled by their `(time, seq)` key via
//! [`CalendarQueue::cancel`].  The caller (the simulator's timer table) only
//! cancels entries it knows are still queued, and the queue removes the entry
//! immediately: from the sorted run being served by key (binary search), from
//! a bucket whose year has not come up by `seq` (buckets are unsorted; the
//! scan is O(1) at the maintained load factor and O(burst) only for a timer
//! parked inside a same-instant burst).  A cancelled entry is never returned
//! from `pop` or `pop_until`, is not counted by [`CalendarQueue::len`] and
//! leaves nothing behind.

use std::collections::VecDeque;

use crate::time::SimTime;

/// The one event queue there is.  Exists only because `perfbench/src/sims.rs`
/// and `perfbench/src/replay.rs` still name it (the benchmark is frozen
/// outside `[benchmark]` PRs); delete it once those mentions are gone.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum SchedulerKind {
    /// The calendar queue.
    Calendar,
}

/// One queued entry.
#[derive(Debug)]
struct Entry<T> {
    time: SimTime,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Entry<T> {}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Minimum (and initial) bucket count of the calendar queue.
const MIN_BUCKETS: usize = 16;
/// Maximum bucket count (a resize never grows past this).
const MAX_BUCKETS: usize = 1 << 20;
/// Bucket width floor, so degenerate spreads cannot produce a zero width.
const MIN_WIDTH: f64 = 1e-9;
/// Pops per cost-observation window.  At each window boundary the queue
/// checks whether the wheel is actually hurting (long splices into the run
/// being served = width too wide for the local event density; long
/// empty-bucket scans = width too narrow) and only then rebuckets —
/// estimate-driven resizing would thrash on bursty gap patterns whose
/// window averages swing wildly while the wheel is performing fine.
const COST_WINDOW: u64 = 1024;
/// Rebucket when the average splice distance per insert exceeds this over a
/// window.
const MAX_AVG_SPLICE: u64 = 4;
/// Rebucket when the average empty-bucket scan steps per pop exceed this
/// over a window.
const MAX_AVG_SCAN: u64 = 8;
/// A drained buffer with more entry slots than this is freed, not reused:
/// retained capacity follows the live count, not the largest burst seen.
const KEEP_CAPACITY: usize = 64;
/// `min_year` of an empty bucket.
const NEVER: u64 = u64::MAX;

/// The calendar event queue (R. Brown, CACM 1988): a rotating wheel of
/// `nbuckets` time buckets of `width` seconds each.  An entry at time `t`
/// belongs to "year" `floor(t / width)` and waits in bucket
/// `year mod nbuckets`, an **unsorted, append-only** buffer, until the
/// rotation reaches its year; the bucket's due entries then move to the one
/// sorted run the queue owns, `current`, and pops come off its front.  A
/// sparse queue falls back to a direct minimum search over the per-bucket
/// minimum years.  Push and pop are amortized O(1) whatever a bucket holds
/// — a same-instant burst of any size is appended, moved and sorted once.
///
/// # Determinism
///
/// Pop order is exactly ascending `(time, seq)`:
///
/// * `current` holds every entry whose year has been reached, sorted by
///   `(time, seq)` (one sort per bucket visit, binary-search insertion for
///   entries scheduled into a reached year, late inserts included), so
///   entries leave in key order — FIFO by `seq` within a timestamp;
/// * the year is a monotone function of time, so no bucket can hold an
///   entry earlier than anything in `current`;
/// * resizing is triggered purely by deterministic operation counters
///   (entry counts, windowed splice/scan costs), so identical
///   schedule/pop/cancel sequences resize identically.
///
/// # Example: schedule/cancel round-trip
///
/// ```
/// use netsim::events::CalendarQueue;
/// use netsim::time::SimTime;
///
/// let mut q = CalendarQueue::new();
/// for seq in 0..100u64 {
///     q.schedule(SimTime::from_secs(seq as f64 * 0.25), seq, seq);
/// }
/// q.cancel(SimTime::from_secs(0.25), 1); // removed in place
/// assert_eq!(q.len(), 99);
/// assert_eq!(q.pop().map(|(_, seq, _)| seq), Some(0));
/// assert_eq!(q.pop().map(|(_, seq, _)| seq), Some(2));
/// ```
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// The wheel: entries whose year lies ahead of `cur_abs`, in arrival
    /// order.
    buckets: Vec<Vec<Entry<T>>>,
    /// Smallest year among each bucket's entries ([`NEVER`] when empty):
    /// the one word the rotation tests per bucket.
    min_year: Vec<u64>,
    /// Every entry whose year is `<= cur_abs`, sorted by `(time, seq)`.
    current: VecDeque<Entry<T>>,
    /// Seconds of simulated time covered by one bucket.
    width: f64,
    /// Cached `1.0 / width`; the bucket mapping multiplies by this instead
    /// of dividing (see [`Self::abs_bucket`]).
    inv_width: f64,
    /// Live entry count across `current` and all buckets.
    count: usize,
    /// The last year (`floor(time / width)`) moved into `current`;
    /// `cur_abs % nbuckets` is the wheel position.  A `pop_until` that
    /// stops at `until` can park it ahead of the caller's clock; inserts
    /// behind it go to `current`.
    cur_abs: u64,
    /// Sum of the time gaps between successive pops since the last
    /// rebucketing; `width` is re-derived from this (Brown's estimator: a
    /// bucket should span a few average inter-dequeue gaps).  Accumulated
    /// over the whole inter-rebucket span so bursty workloads average out.
    pop_gap_sum: f64,
    /// Pops since the last rebucketing (the gap estimator's denominator).
    gap_pops: u64,
    /// Time of the most recent pop (the gap estimator's reference point).
    last_pop_time: Option<SimTime>,
    /// Pops in the current cost window.
    win_pops: u64,
    /// Empty-bucket rotation steps in the current cost window.
    win_scan_steps: u64,
    /// Summed splice distances into `current` in the current cost window.
    win_insert_cost: u64,
    /// Inserts in the current cost window.
    win_inserts: u64,
    /// Pops since the last rebucketing, for the rebucket cooldown (a
    /// rebucketing is O(count), so one is allowed per ~count/2 pops at
    /// most, bounding the amortized cost).
    pops_since_rebucket: u64,
    /// Entries moved, scanned or compared by splices, bucket visits, slot
    /// cancels and rebuilds since construction (the tests' cost model).
    work: u64,
    /// Full rebucketings performed (diagnostics).
    pub rebuckets: u64,
}

impl<T> CalendarQueue<T> {
    /// Creates an empty calendar queue.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            min_year: vec![NEVER; MIN_BUCKETS],
            current: VecDeque::new(),
            width: 0.01,
            inv_width: 100.0,
            count: 0,
            cur_abs: 0,
            pop_gap_sum: 0.0,
            gap_pops: 0,
            last_pop_time: None,
            win_pops: 0,
            win_scan_steps: 0,
            win_insert_cost: 0,
            win_inserts: 0,
            pops_since_rebucket: 0,
            work: 0,
            rebuckets: 0,
        }
    }

    /// Current bucket count (for tests and diagnostics).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Current bucket width in simulated seconds (tests and diagnostics).
    pub fn bucket_width(&self) -> f64 {
        self.width
    }

    /// The absolute (non-wrapped) bucket number — the year — of `time` at
    /// bucket width `1 / inv_width`.  This is the one pure function defining
    /// where an entry waits and when it is due; every consumer (insert,
    /// cancel, bucket visit) goes through it, so float rounding at bucket
    /// boundaries cannot produce disagreement.
    fn year_of(time: SimTime, inv_width: f64) -> u64 {
        // `as u64` truncates toward zero, which is `floor` for the
        // non-negative times `SimTime` guarantees.
        (time.as_secs() * inv_width) as u64
    }

    fn abs_bucket(&self, time: SimTime) -> u64 {
        Self::year_of(time, self.inv_width)
    }

    /// The wheel position of `year` (the wheel size is a power of two).
    fn bucket_of(&self, year: u64) -> usize {
        (year & (self.buckets.len() as u64 - 1)) as usize
    }

    fn insert_entry(&mut self, entry: Entry<T>) {
        self.win_inserts += 1;
        let year = self.abs_bucket(entry.time);
        if year > self.cur_abs {
            let idx = self.bucket_of(year);
            self.min_year[idx] = self.min_year[idx].min(year);
            self.buckets[idx].push(entry);
            return;
        }
        // The year is being served, or lies behind a cursor that a look
        // parked ahead of the caller's clock: splice into the sorted run.
        // `seq` is unique, so an exact hit cannot happen; Err gives the
        // sorted insertion point either way.
        let key = entry.key();
        let (Ok(pos) | Err(pos)) = self.current.binary_search_by(|e| e.key().cmp(&key));
        // The splice moves min(pos, len - pos) entries; feed the cost
        // observer that decides when rebucketing pays off.
        let moved = pos.min(self.current.len() - pos) as u64;
        self.win_insert_cost += moved;
        self.work += moved;
        self.current.insert(pos, entry);
    }

    /// Makes `due` (in arrival order) the run being served.  A burst
    /// scheduled in `seq` order passes the linear check; colliding bursts
    /// are sorted runs, which the stable sort merges (it allocates scratch
    /// space even for sorted input, hence the check first).
    fn serve(&mut self, mut due: Vec<Entry<T>>) {
        self.work += due.len() as u64;
        if !due.is_sorted() {
            self.work += due.len() as u64 * u64::from(due.len().ilog2());
            due.sort();
        }
        self.current = due.into();
    }

    /// Frees a drained `current` that a burst grew; a small one is reused.
    fn release_current(&mut self) {
        if self.current.is_empty() && self.current.capacity() > KEEP_CAPACITY {
            self.current = VecDeque::new();
        }
    }

    /// Moves the due entries of bucket `idx` into the empty `current`: a
    /// buffer swap when the whole bucket is due, one order-preserving
    /// partition otherwise.
    fn load_bucket(&mut self, idx: usize) {
        let (cur, inv) = (self.cur_abs, self.inv_width);
        let year = |e: &Entry<T>| Self::year_of(e.time, inv);
        let bucket = &mut self.buckets[idx];
        self.work += bucket.len() as u64;
        let mut due: Vec<Entry<T>> = std::mem::take(&mut self.current).into();
        if bucket.iter().all(|e| year(e) <= cur) {
            std::mem::swap(bucket, &mut due);
        } else {
            due.extend(bucket.extract_if(.., |e| year(e) <= cur));
            if bucket.capacity() > KEEP_CAPACITY {
                bucket.shrink_to(2 * bucket.len());
            }
        }
        self.min_year[idx] = bucket.iter().map(year).min().unwrap_or(NEVER);
        self.serve(due);
    }

    /// Makes `current` non-empty by advancing the rotation to the next
    /// bucket with a due entry; `None` when the queue is empty.
    fn fill_current(&mut self) -> Option<()> {
        if !self.current.is_empty() {
            return Some(());
        }
        if self.count == 0 {
            return None;
        }
        // One full rotation, one word per bucket: the first bucket whose
        // minimum year has been reached holds the global minimum — years
        // are monotone in time and every earlier year has been served.
        // Comparing years (not times against a recomputed bucket boundary)
        // agrees with the insert mapping by construction, so float rounding
        // at bucket boundaries cannot strand an entry.
        let (cur, len) = (self.cur_abs, self.buckets.len() as u64);
        let next = (cur + 1..=cur + len).find(|&y| self.min_year[self.bucket_of(y)] <= y);
        self.win_scan_steps += next.map_or(len, |year| year - cur - 1);
        // Sparse queue (everything lives more than a rotation ahead): jump
        // straight to the smallest year on the wheel.
        let sparse = || *self.min_year.iter().min().expect("at least one bucket");
        self.cur_abs = next.unwrap_or_else(sparse);
        self.load_bucket(self.bucket_of(self.cur_abs));
        Some(())
    }

    /// Rebuilds the wheel at `new_buckets` buckets, re-deriving the bucket
    /// width from [`Self::estimate_width`] (a bucket should span ~3 average
    /// event separations — the classic sweet spot between splice cost and
    /// empty-bucket rotation cost).  Skipped entirely when neither the
    /// wheel size nor the width would change.
    fn resize(&mut self, new_buckets: usize) {
        let new_width = self.estimate_width().unwrap_or(self.width);
        self.reset_observers();
        // Rebucketing is O(count); skip it when neither the wheel size nor
        // the width would change materially — cost triggers can fire on
        // workloads (e.g. periodic same-instant waves) whose occasional
        // long cursor walk is already optimal for the width we have.
        let ratio = new_width / self.width;
        if new_buckets == self.buckets.len() && (0.667..=1.5).contains(&ratio) {
            return;
        }
        self.rebuckets += 1;
        self.work += self.count as u64;
        self.width = new_width;
        self.inv_width = 1.0 / new_width;
        // A fresh wheel: every old buffer, oversized or not, is handed back.
        let fresh = (0..new_buckets).map(|_| Vec::new()).collect();
        let old_buckets = std::mem::replace(&mut self.buckets, fresh);
        let old_current = std::mem::take(&mut self.current);
        self.min_year = vec![NEVER; new_buckets];
        // Restart the rotation at the caller's clock, not at the earliest
        // entry: the event just popped may still schedule a burst in front
        // of that entry, which must then reach a bucket, not `current`.
        self.cur_abs = self.last_pop_time.map_or(0, |at| self.abs_bucket(at));
        let mut due = Vec::new();
        for entry in old_current
            .into_iter()
            .chain(old_buckets.into_iter().flatten())
        {
            if self.abs_bucket(entry.time) <= self.cur_abs {
                due.push(entry);
            } else {
                self.insert_entry(entry);
            }
        }
        self.serve(due);
        self.reset_observers();
    }

    /// Restarts the gap estimator, the cost window and the rebucket
    /// cooldown.
    fn reset_observers(&mut self) {
        self.pop_gap_sum = 0.0;
        self.gap_pops = 0;
        self.win_pops = 0;
        self.win_scan_steps = 0;
        self.win_insert_cost = 0;
        self.win_inserts = 0;
        self.pops_since_rebucket = 0;
    }

    /// A bucket should span ~3 average event separations.  The estimate
    /// prefers the observed inter-dequeue gaps (Brown's estimator) and
    /// falls back to the global spread of queued times before enough pops
    /// have been seen.
    fn estimate_width(&self) -> Option<f64> {
        let separation = if self.gap_pops >= 64 {
            // Observed gaps; all-zero gaps (a burst of simultaneous events)
            // yield no estimate rather than falling back to the O(n) spread
            // scan on a hot path.
            (self.pop_gap_sum > 0.0).then(|| self.pop_gap_sum / self.gap_pops as f64)
        } else if self.count >= 2 {
            let (mut min_t, mut max_t) = (f64::INFINITY, f64::NEG_INFINITY);
            for e in self.buckets.iter().flatten().chain(&self.current) {
                min_t = min_t.min(e.time.as_secs());
                max_t = max_t.max(e.time.as_secs());
            }
            (max_t > min_t).then(|| (max_t - min_t) / self.count as f64)
        } else {
            None
        };
        separation.map(|sep| (3.0 * sep).max(MIN_WIDTH))
    }

    fn maybe_grow(&mut self) {
        let target = Self::bucket_target(self.count);
        if target > self.buckets.len() {
            self.resize(target);
        }
    }

    /// Wheel size for `count` live entries: the power of two near
    /// `count / 4`.  With the width spanning ~3 average separations, this
    /// makes one wheel rotation cover roughly the whole span of queued
    /// times while keeping the per-bucket minimum years cache-resident.
    fn bucket_target(count: usize) -> usize {
        (count / 4)
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS)
    }

    fn maybe_shrink(&mut self) {
        // Quartered, not halved: a shrink only once the wheel is 4x
        // oversized keeps a count hovering near a power-of-two boundary
        // from thrashing grow/shrink cycles.
        let target = Self::bucket_target(self.count.max(1));
        if target * 4 <= self.buckets.len() && self.buckets.len() > MIN_BUCKETS {
            self.resize(target.max(MIN_BUCKETS));
        }
    }

    /// Enqueues `item` at `time`.  `seq` must be unique among live entries;
    /// `time` may lie behind the last popped entry's time (a late insert
    /// pops next, see the [module documentation](self)).
    pub fn schedule(&mut self, time: SimTime, seq: u64, item: T) {
        self.insert_entry(Entry { time, seq, item });
        self.count += 1;
        self.maybe_grow();
    }

    /// Removes and returns the entry with the smallest `(time, seq)`.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.pop_until(SimTime::from_secs(f64::MAX))
    }

    /// Removes and returns the entry with the smallest `(time, seq)` if its
    /// time is `<= until`; `None` when the queue is empty or its head lies
    /// beyond `until`.  Such a look removes nothing and leaves the cursor
    /// parked on the head (see the [module documentation](self)).
    pub fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, u64, T)> {
        self.fill_current()?;
        if self.current.front().expect("filled run").time > until {
            return None;
        }
        let entry = self.current.pop_front().expect("filled run");
        self.note_pop(entry.time);
        Some((entry.time, entry.seq, entry.item))
    }

    /// The bookkeeping of a pop at `time`: hands back a drained run, feeds
    /// the gap estimator and the cost window, and shrinks or re-tunes the
    /// wheel.
    fn note_pop(&mut self, time: SimTime) {
        self.release_current();
        self.count -= 1;
        if let Some(prev) = self.last_pop_time {
            self.pop_gap_sum += (time - prev).max(0.0);
        }
        self.last_pop_time = Some(time);
        self.gap_pops += 1;
        self.win_pops += 1;
        self.pops_since_rebucket += 1;
        self.maybe_shrink();
        // Cost-triggered re-tuning: at each window boundary, rebucket (with
        // a freshly estimated width) only when the wheel is measurably
        // hurting and the O(count) rebucket cost has been amortized by
        // enough pops since the previous one.
        if self.win_pops >= COST_WINDOW {
            let splicing = self.win_insert_cost > MAX_AVG_SPLICE * self.win_inserts.max(1);
            let scanning = self.win_scan_steps > MAX_AVG_SCAN * self.win_pops;
            let cooled = self.pops_since_rebucket as usize >= self.count / 2;
            self.win_pops = 0;
            self.win_scan_steps = 0;
            self.win_insert_cost = 0;
            self.win_inserts = 0;
            if (splicing || scanning) && cooled {
                self.resize(Self::bucket_target(self.count.max(1)));
            }
        }
    }

    /// Cancels the queued entry with exactly this `(time, seq)` key.  The
    /// caller must only cancel keys it has scheduled and not yet popped or
    /// cancelled; the entry will never be returned from [`Self::pop`].
    pub fn cancel(&mut self, time: SimTime, seq: u64) {
        let year = self.abs_bucket(time);
        let found = if year <= self.cur_abs {
            let hit = self.current.binary_search_by(|e| e.key().cmp(&(time, seq)));
            let found = hit.ok().and_then(|pos| self.current.remove(pos));
            self.release_current();
            found
        } else {
            // Not due yet: the bucket is in arrival order, so scan by `seq`.
            let (idx, inv) = (self.bucket_of(year), self.inv_width);
            let bucket = &mut self.buckets[idx];
            self.work += bucket.len() as u64;
            let pos = bucket.iter().position(|e| e.seq == seq);
            let found = pos.map(|pos| bucket.remove(pos));
            let years = bucket.iter().map(|e| Self::year_of(e.time, inv));
            self.min_year[idx] = years.min().unwrap_or(NEVER);
            found
        };
        debug_assert!(found.is_some(), "cancel of an entry that is not queued");
        self.count -= usize::from(found.is_some());
    }

    /// Number of live (scheduled, not yet popped or cancelled) entries.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no live entries remain.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Entry slots currently allocated (live and spare alike): what the
    /// queue holds on to, as opposed to what it holds.  A diagnostic: it
    /// walks the whole wheel.
    pub fn capacity(&self) -> usize {
        self.current.capacity() + self.buckets.iter().map(Vec::capacity).sum::<usize>()
    }
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// Drains a queue completely, asserting (time, seq) never goes backward.
    fn drain<T>(q: &mut CalendarQueue<T>) -> Vec<(SimTime, u64)> {
        let mut out = Vec::new();
        let mut last: Option<(SimTime, u64)> = None;
        while let Some((time, seq, _)) = q.pop() {
            if let Some(prev) = last {
                assert!(
                    (time, seq) > prev,
                    "pop order went backward: {prev:?} then {:?}",
                    (time, seq)
                );
            }
            last = Some((time, seq));
            out.push((time, seq));
        }
        out
    }

    /// A deterministic pseudo-random stream for the comparison tests.
    struct Mix(u64);
    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A calendar queue and its oracle driven in lock step: every operation
    /// goes to both, and every result is compared on the spot.
    #[derive(Default)]
    struct Checked {
        calendar: CalendarQueue<u64>,
        /// The reference order: a binary heap of `(time, seq)` keys (every
        /// test item equals its `seq`).  `BinaryHeap` is not stable, but the
        /// key is total and `seq` unique, so its pop order is; a cancel
        /// removes the key outright, so there is no cancellation state to
        /// get wrong.
        oracle: BinaryHeap<Reverse<(SimTime, u64)>>,
    }

    impl Checked {
        fn schedule(&mut self, at: SimTime, seq: u64) {
            self.calendar.schedule(at, seq, seq);
            self.oracle.push(Reverse((at, seq)));
        }

        fn pop(&mut self) -> Option<(SimTime, u64)> {
            let got = self.calendar.pop();
            let want = self.oracle.pop().map(|Reverse((at, seq))| (at, seq, seq));
            assert_eq!(got, want, "pop diverged from the heap order");
            assert_eq!(self.calendar.len(), self.oracle.len());
            got.map(|(at, seq, _)| (at, seq))
        }

        /// `pop_until` on the calendar; the oracle pops its head key if
        /// that is `<= until`.  A head beyond `until` makes it a look:
        /// nothing leaves, and the calendar's cursor is parked on the head.
        fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, u64)> {
            let got = self.calendar.pop_until(until);
            let due = self
                .oracle
                .peek()
                .is_some_and(|&Reverse((at, _))| at <= until);
            let want = due
                .then(|| self.oracle.pop())
                .flatten()
                .map(|Reverse((at, seq))| (at, seq, seq));
            assert_eq!(got, want, "pop_until diverged from the heap order");
            assert_eq!(self.calendar.len(), self.oracle.len());
            got.map(|(at, seq, _)| (at, seq))
        }

        fn cancel(&mut self, at: SimTime, seq: u64) {
            self.calendar.cancel(at, seq);
            self.oracle.retain(|&Reverse(queued)| queued != (at, seq));
            assert_eq!(self.calendar.len(), self.oracle.len());
        }
    }

    /// The queue accepts inserts behind the last popped entry's time (the
    /// contract allows it unconditionally) and surfaces them next, in
    /// `(time, seq)` order among the remaining entries.
    #[test]
    fn accepts_late_inserts_behind_the_clock() {
        let mut q = Checked::default();
        q.schedule(t(1.0), 0);
        q.schedule(t(5.0), 1);
        assert_eq!(q.pop(), Some((t(1.0), 0)));
        // The last pop was at 1.0; insert two entries behind it and one
        // tying an existing time with a larger seq.
        q.schedule(t(0.5), 100);
        q.schedule(t(0.25), 101);
        q.schedule(t(5.0), 50);
        assert_eq!(q.pop_until(t(0.2)), None);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![(t(0.25), 101), (t(0.5), 100), (t(5.0), 1), (t(5.0), 50)]
        );
    }

    /// Runs a randomized schedule/pop/cancel workload against the calendar
    /// queue and the oracle in lock step.
    fn compare_impls(seed: u64, prefill: usize, ops: usize) {
        let mut q = Checked::default();
        let mut rng = Mix(seed);
        let mut seq = 0u64;
        let mut now = 0.0f64;
        let mut cancel_pool: Vec<(SimTime, u64)> = Vec::new();
        let mut popped = Vec::new();
        for _ in 0..prefill {
            let at = t(now + rng.unit() * 5.0);
            q.schedule(at, seq);
            if seq % 7 == 3 {
                cancel_pool.push((at, seq));
            }
            seq += 1;
        }
        for i in 0..ops {
            // Every third step takes one entry up to a bound, with `until`
            // sometimes short of the head (a look).
            let step = if i % 3 == 0 {
                q.pop_until(t(now + rng.unit() * 0.5))
            } else {
                q.pop()
            };
            if let Some((time, s)) = step {
                now = time.as_secs();
                popped.push(s);
            } else if q.calendar.is_empty() {
                break;
            }
            // Reschedule a little ahead, sometimes in bursts; every other
            // burst shares one instant.
            let burst = 1 + (i % 3);
            let shared = t(now + rng.unit() * 2.0);
            for _ in 0..burst {
                let at = if i % 2 == 0 {
                    shared
                } else {
                    t(now + rng.unit() * 2.0)
                };
                q.schedule(at, seq);
                if seq % 11 == 5 {
                    cancel_pool.push((at, seq));
                }
                seq += 1;
            }
            // Cancel an outstanding entry now and then (skipping any that
            // already popped).
            if i % 5 == 2 {
                while let Some((at, s)) = cancel_pool.pop() {
                    if !popped.contains(&s) {
                        q.cancel(at, s);
                        break;
                    }
                }
            }
        }
        while q.pop().is_some() {}
        assert!(q.calendar.is_empty(), "entries left behind (seed {seed})");
    }

    #[test]
    fn heap_and_calendar_pop_identically() {
        for seed in [1, 2, 7, 42, 1234] {
            compare_impls(seed, 64, 500);
        }
    }

    #[test]
    fn heap_and_calendar_pop_identically_at_scale() {
        compare_impls(99, 5000, 4000);
    }

    /// Drives a checked calendar queue through burst scenarios aimed with
    /// its own geometry.
    #[derive(Default)]
    struct BurstScript {
        q: Checked,
        seq: u64,
        now: f64,
    }

    impl BurstScript {
        fn schedule(&mut self, at: f64) {
            self.q.schedule(t(at), self.seq);
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(SimTime, u64)> {
            let popped = self.q.pop();
            if let Some((at, _)) = popped {
                self.now = at.as_secs();
            }
            popped
        }

        /// Schedules `n` entries at one instant; returns their `seq` range.
        fn burst(&mut self, at: f64, n: u64) -> std::ops::Range<u64> {
            let first = self.seq;
            for _ in 0..n {
                self.schedule(at);
            }
            first..self.seq
        }

        /// Pops until `n` entries of `burst` have come out.
        fn pop_from(&mut self, burst: &std::ops::Range<u64>, n: u64) {
            let mut seen = 0;
            while seen < n {
                let (_, seq) = self.pop().expect("burst entries are queued");
                seen += u64::from(burst.contains(&seq));
            }
        }

        /// The calendar's current `(bucket width, bucket count)`.
        fn geometry(&self) -> (f64, usize) {
            let calendar = &self.q.calendar;
            (calendar.bucket_width(), calendar.bucket_count())
        }

        /// The middle of the bucket `years` years after the one holding
        /// `now`, in the calendar's current geometry.
        fn mid_bucket(&self, years: u64) -> f64 {
            let (width, _) = self.geometry();
            ((self.now / width).floor() + years as f64 + 0.5) * width
        }
    }

    /// Same-instant bursts; two bursts colliding in one bucket a rotation
    /// apart, in both insertion orders; cancels hitting a bucket that is not
    /// yet due and the run being served; a look that parks the cursor
    /// followed by inserts behind it; a resize in the middle of a
    /// half-drained burst.  Returns how many collisions were on target.
    fn compare_bursts(seed: u64) -> u32 {
        let mut rng = Mix(seed);
        let mut s = BurstScript::default();
        let mut collisions = 0;
        for round in 0..12u64 {
            let k = 150 + rng.next() % 1500;
            let ahead = 2 + rng.next() % 6;
            let (width, rotation) = s.geometry();
            let (early_at, late_at) = (s.mid_bucket(ahead), s.mid_bucket(ahead + rotation as u64));
            let (early, late) = if round % 2 == 0 {
                let late = s.burst(late_at, k);
                (s.burst(early_at, k), late)
            } else {
                let early = s.burst(early_at, k);
                (early, s.burst(late_at, k))
            };
            collisions += u32::from(s.geometry() == (width, rotation));
            // A same-instant burst right at the clock, ahead of both; after
            // one entry, the rest is drained at the clock, entry by entry.
            let at_clock = s.burst(s.now, 1 + k / 8);
            s.pop_from(&at_clock, 1);
            let drained: Vec<u64> = std::iter::from_fn(|| s.q.pop_until(t(s.now)))
                .map(|(_, seq)| seq)
                .collect();
            let rest: Vec<u64> = (at_clock.start + 1..at_clock.end).collect();
            assert!(
                drained.ends_with(&rest),
                "the at-clock burst left out of order"
            );
            // Cancel inside a bucket that is not due yet, then — with the
            // early burst half drained — inside the run being served.
            s.q.cancel(t(late_at), late.start + k / 3);
            s.pop_from(&early, k / 2);
            s.q.cancel(t(early_at), early.end - 1);
            if round % 3 == 1 {
                // Grow the queue past its wheel while the burst is half
                // drained: the resize must carry the served run over.
                let rebuckets = s.q.calendar.rebuckets;
                let spread = 4 * s.q.calendar.len() as u64 + 64;
                for i in 0..spread {
                    s.schedule(s.now + rng.unit() * 3.0 + i as f64 * 1e-3);
                }
                assert!(
                    s.q.calendar.rebuckets > rebuckets,
                    "no resize (seed {seed})"
                );
            }
            s.pop_from(&early, k - k / 2 - 1);
            // Look at the clock, short of whatever comes next (which parks
            // the cursor on it), then insert behind it.
            if let Some(&Reverse((head, _))) = s.q.oracle.peek() {
                if head > t(s.now) {
                    s.q.pop_until(t(s.now));
                }
                for _ in 0..3 {
                    s.schedule(s.now + rng.unit() * (head.as_secs() - s.now));
                }
            }
            s.pop_from(&late, k / 4);
        }
        while s.q.pop_until(t(f64::MAX)).is_some() {}
        assert_eq!(s.q.calendar.len(), 0);
        collisions
    }

    #[test]
    fn heap_and_calendar_pop_identically_under_bursts() {
        for seed in [1, 2, 7, 42, 1234, 99_991] {
            let collisions = compare_bursts(seed);
            assert!(
                collisions >= 4,
                "only {collisions} collisions (seed {seed})"
            );
        }
    }

    /// Two equally large same-instant bursts sharing one bucket a rotation
    /// apart, the earlier one scheduled second: scheduling, visiting and
    /// draining them costs O(k) queue work (entries moved, scanned or
    /// compared) — not the k²/2 moves of splicing the second burst in front
    /// of the first inside a sorted bucket.
    #[test]
    fn colliding_bursts_cost_linear_work() {
        const K: u64 = 20_000;
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        // A standing far-future burst sizes the wheel, so the colliding
        // bursts meet a settled geometry (no resize while they arrive).
        for seq in 0..K {
            q.schedule(t(11.0), seq, seq);
        }
        for seq in K..2 * K {
            q.schedule(t(10.0), seq, seq);
        }
        let rebuckets = q.rebuckets;
        let year = q.abs_bucket(t(10.0)) - q.bucket_count() as u64;
        let early = t((year as f64 + 0.5) * q.bucket_width());
        assert_eq!(
            q.bucket_of(q.abs_bucket(early)),
            q.bucket_of(q.abs_bucket(t(10.0)))
        );
        for seq in 2 * K..3 * K {
            q.schedule(early, seq, seq);
        }
        assert_eq!(q.rebuckets, rebuckets, "the geometry must hold still");
        for seq in (2 * K..3 * K).chain(K..2 * K) {
            assert_eq!(q.pop().map(|(_, s, _)| s), Some(seq));
        }
        assert!(q.work <= 16 * K, "{} units of work for k = {K}", q.work);
    }

    /// Bursts walking across the wheel must not leave their buffers behind:
    /// allocated entry slots follow the live count, not the number of
    /// buckets a burst ever crossed.
    #[test]
    fn retained_capacity_follows_the_live_count() {
        const BURST: u64 = 25_000;
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        let mut peak_live = 0;
        for burst in 0..400u64 {
            for seq in burst * BURST..(burst + 1) * BURST {
                q.schedule(t(burst as f64 * 0.37), seq, seq);
            }
            peak_live = peak_live.max(q.len());
            // Drain the previous burst: at most two are ever live.
            for _ in 0..BURST.min(burst * BURST) {
                q.pop().expect("the previous burst is queued");
            }
        }
        assert_eq!(q.len() as u64, BURST);
        assert!(
            q.capacity() <= 4 * peak_live,
            "{} entry slots allocated for a peak of {peak_live} live entries",
            q.capacity()
        );
    }

    #[test]
    fn calendar_resizes_with_load() {
        let mut q: CalendarQueue<usize> = CalendarQueue::new();
        for seq in 0..10_000u64 {
            q.schedule(t(seq as f64 * 0.001), seq, seq as usize);
        }
        assert!(
            q.bucket_count() >= 4096,
            "expected the wheel to grow, still at {} buckets",
            q.bucket_count()
        );
        let order = drain(&mut q);
        assert_eq!(order.len(), 10_000);
        assert!(
            q.bucket_count() <= MIN_BUCKETS * 2,
            "expected the wheel to shrink after draining, still at {} buckets",
            q.bucket_count()
        );
    }

    #[test]
    fn identical_times_pop_in_seq_order() {
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        for seq in 0..100u64 {
            q.schedule(t(1.0), seq, seq);
        }
        let seqs: Vec<u64> = drain(&mut q).iter().map(|&(_, s)| s).collect();
        assert_eq!(seqs, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sparse_far_future_events_are_found() {
        // Everything lives many "years" past the initial rotation position;
        // the direct-search fallback must find the minimum, not spin.
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        q.schedule(t(5_000.0), 0, 0);
        q.schedule(t(90_000.0), 1, 1);
        q.schedule(t(5_500.0), 2, 2);
        assert_eq!(q.pop_until(t(4_999.0)), None);
        assert_eq!(
            drain(&mut q),
            vec![(t(5_000.0), 0), (t(5_500.0), 2), (t(90_000.0), 1)]
        );
    }

    /// A look at the queue can park the rotation cursor at a far-future
    /// bucket (that is how `run_until` stops: a `pop_until` whose head lies
    /// beyond `until`); a later insert *between* the last pop and that
    /// parked position must still pop first.
    #[test]
    fn insert_behind_a_peeked_cursor_is_not_stranded() {
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        q.schedule(t(1.0), 0, 0);
        q.schedule(t(2.0), 1, 1);
        assert_eq!(q.pop().map(|(_, s, _)| s), Some(0));
        // Parks the cursor at 2.0's bucket.
        assert_eq!(q.pop_until(t(1.0)), None);
        // Legal insert (>= last popped time) behind the parked cursor.
        q.schedule(t(1.5), 2, 2);
        assert_eq!(q.pop().map(|(ti, s, _)| (ti, s)), Some((t(1.5), 2)));
        assert_eq!(q.pop().map(|(ti, s, _)| (ti, s)), Some((t(2.0), 1)));
    }

    #[test]
    fn cancel_removes_entries_and_keeps_len_exact() {
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        for seq in 0..1000u64 {
            q.schedule(t(1.0 + seq as f64), seq, seq);
        }
        for seq in (0..1000u64).step_by(2) {
            q.cancel(t(1.0 + seq as f64), seq);
        }
        assert_eq!(q.len(), 500);
        let order = drain(&mut q);
        assert_eq!(order.len(), 500);
        assert!(order.iter().all(|&(_, s)| s % 2 == 1));
    }
}
