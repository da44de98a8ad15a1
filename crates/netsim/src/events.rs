//! The event-queue core of the simulator: the [`EventQueue`] abstraction and
//! its two implementations, a binary heap ([`HeapQueue`]) and a calendar
//! queue ([`CalendarQueue`]).
//!
//! # The scheduler contract
//!
//! A queue stores `(time, seq, item)` entries, where `seq` is a caller-owned
//! sequence number, unique among live entries (the simulator assigns one per
//! scheduled event).  [`EventQueue::pop`] must return entries in ascending
//! `(time, seq)` order — time first, `seq` within a time.  Entries may be
//! scheduled at times *behind* the last popped entry's time: a peek can
//! park the calendar's cursor ahead of the caller's clock, so inserts behind
//! the cursor have to work anyway, and the contract makes that unconditional
//! (the simulator itself never schedules into the past, see
//! `World::push_event`).  A late insert simply pops next (in
//! `(time, seq)` order among the remaining entries); it cannot, of course,
//! retroactively order before entries that were already popped.  Both
//! implementations honour all of this exactly, so swapping one for the other
//! reproduces every simulation bit for bit (the `scheduler_equivalence`
//! property test and the golden figure outputs pin this).
//!
//! # Cancellation
//!
//! Entries are cancelled by their `(time, seq)` key via
//! [`EventQueue::cancel`].  The caller (the simulator's timer table) only
//! cancels entries it knows are still queued, which is what lets both
//! implementations keep cancellation state bounded:
//!
//! * [`HeapQueue`] records the `seq` in a tombstone set and silently drains
//!   tombstoned entries when they surface at the top of the heap — the set
//!   never holds more than the number of cancelled entries still queued;
//! * [`CalendarQueue`] removes the entry from its bucket immediately
//!   (an O(bucket-length) splice, O(1) at the maintained load factor), so it
//!   needs no tombstones at all.
//!
//! A cancelled entry is never returned from `pop` and is not counted by
//! [`EventQueue::len`] in either implementation.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

use crate::time::SimTime;

/// How the simulator's event queue is implemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// The binary-heap scheduler (the fallback, `TFMCC_SCHEDULER=heap`):
    /// `O(log n)` push/pop on a `BinaryHeap`, cancellation via tombstones
    /// drained on pop.
    Heap,
    /// The calendar-queue scheduler (the default): amortized `O(1)` push/pop
    /// on a bucketed rotating wheel that resizes itself on load-factor
    /// drift, cancellation by in-place bucket removal.
    #[default]
    Calendar,
}

impl SchedulerKind {
    /// Reads the `TFMCC_SCHEDULER` environment override (`heap` /
    /// `binary-heap` or `calendar`, case-insensitive).  Returns `None` when
    /// unset; unknown values warn on stderr and are ignored so a typo cannot
    /// silently select a different scheduler.
    pub fn from_env() -> Option<Self> {
        let value = std::env::var("TFMCC_SCHEDULER").ok()?;
        match value.to_ascii_lowercase().as_str() {
            "heap" | "binary-heap" | "binary_heap" => Some(SchedulerKind::Heap),
            "calendar" => Some(SchedulerKind::Calendar),
            other => {
                eprintln!(
                    "warning: ignoring unknown TFMCC_SCHEDULER value '{other}' (use 'heap' or 'calendar')"
                );
                None
            }
        }
    }

    /// Resolves the scheduler for a new simulation: the `TFMCC_SCHEDULER`
    /// environment override when set, otherwise the built-in default
    /// ([`SchedulerKind::Calendar`]).
    pub fn resolve() -> Self {
        Self::from_env().unwrap_or_default()
    }

    /// Builds an empty event queue of this kind.
    pub fn build<T: Send + 'static>(self) -> Box<dyn EventQueue<T>> {
        match self {
            SchedulerKind::Heap => Box::new(HeapQueue::new()),
            SchedulerKind::Calendar => Box::new(CalendarQueue::new()),
        }
    }
}

/// A priority queue of timestamped events, popped in `(time, seq)` order.
///
/// See the [module documentation](self) for the ordering and cancellation
/// contract shared by all implementations.
pub trait EventQueue<T>: Send {
    /// Enqueues `item` at `time`.  `seq` must be unique among live entries;
    /// `time` may lie behind the last popped entry's time (a late insert
    /// pops next, see the [module documentation](self)).
    fn schedule(&mut self, time: SimTime, seq: u64, item: T);

    /// Removes and returns the entry with the smallest `(time, seq)`.
    fn pop(&mut self) -> Option<(SimTime, u64, T)>;

    /// The time of the entry [`Self::pop`] would return, without removing
    /// it.  Takes `&mut self` so implementations may drain cancelled entries
    /// or rotate their internal cursor while looking.
    fn peek_time(&mut self) -> Option<SimTime>;

    /// Cancels the queued entry with exactly this `(time, seq)` key.  The
    /// caller must only cancel keys it has scheduled and not yet popped or
    /// cancelled; the entry will never be returned from [`Self::pop`].
    fn cancel(&mut self, time: SimTime, seq: u64);

    /// Number of live (scheduled, not yet popped or cancelled) entries.
    fn len(&self) -> usize;

    /// True when no live entries remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of cancelled-but-still-stored entries (tombstones).  Zero for
    /// implementations that remove cancelled entries in place.
    fn tombstones(&self) -> usize {
        0
    }
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

/// The binary-heap event queue.
///
/// # Determinism
///
/// `BinaryHeap` is not a stable heap, but entries are ordered by the full
/// `(time, seq)` key and `seq` is unique, so the pop order is total and
/// deterministic: ascending time, insertion order within a time.  This is
/// the reference ordering the calendar queue must (and does) reproduce.
///
/// # Example: schedule/cancel round-trip
///
/// ```
/// use netsim::events::{EventQueue, HeapQueue};
/// use netsim::time::SimTime;
///
/// let mut q = HeapQueue::new();
/// q.schedule(SimTime::from_secs(0.3), 0, "late");
/// q.schedule(SimTime::from_secs(0.1), 1, "early");
/// q.schedule(SimTime::from_secs(0.2), 2, "cancelled");
/// q.cancel(SimTime::from_secs(0.2), 2);
/// assert_eq!(q.len(), 2);
/// assert_eq!(q.pop().map(|(_, _, item)| item), Some("early"));
/// assert_eq!(q.pop().map(|(_, _, item)| item), Some("late"));
/// assert_eq!(q.pop(), None);
/// assert_eq!(q.tombstones(), 0); // drained when the entry surfaced
/// ```
#[derive(Debug)]
pub struct HeapQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    /// `seq`s of cancelled entries still inside the heap; drained as the
    /// entries surface at the top (in `pop`/`peek_time`), so the set stays
    /// bounded by the number of cancelled entries still queued.
    tombstones: BTreeSet<u64>,
}

impl<T> HeapQueue<T> {
    /// Creates an empty heap queue.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::with_capacity(1024),
            tombstones: BTreeSet::new(),
        }
    }

    /// Drops cancelled entries sitting at the top of the heap.
    fn drain_tombstones(&mut self) {
        while let Some(Reverse(head)) = self.heap.peek() {
            if self.tombstones.remove(&head.seq) {
                self.heap.pop();
            } else {
                break;
            }
        }
    }
}

impl<T> Default for HeapQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send> EventQueue<T> for HeapQueue<T> {
    fn schedule(&mut self, time: SimTime, seq: u64, item: T) {
        self.heap.push(Reverse(Entry { time, seq, item }));
    }

    fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.drain_tombstones();
        let Reverse(entry) = self.heap.pop()?;
        Some((entry.time, entry.seq, entry.item))
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.drain_tombstones();
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    fn cancel(&mut self, _time: SimTime, seq: u64) {
        self.tombstones.insert(seq);
    }

    fn len(&self) -> usize {
        self.heap.len() - self.tombstones.len()
    }

    fn tombstones(&self) -> usize {
        self.tombstones.len()
    }
}

/// Minimum (and initial) bucket count of the calendar queue.
const MIN_BUCKETS: usize = 16;
/// Maximum bucket count (a resize never grows past this).
const MAX_BUCKETS: usize = 1 << 20;
/// Bucket width floor, so degenerate spreads cannot produce a zero width.
const MIN_WIDTH: f64 = 1e-9;
/// Pops per cost-observation window.  At each window boundary the queue
/// checks whether the wheel is actually hurting (long in-bucket splices =
/// width too wide for the local event density; long empty-bucket scans =
/// width too narrow) and only then rebuckets — estimate-driven resizing
/// would thrash on bursty gap patterns whose window averages swing wildly
/// while the wheel is performing fine.
const COST_WINDOW: u64 = 1024;
/// Rebucket when the average in-bucket splice distance per insert exceeds
/// this over a window.
const MAX_AVG_SPLICE: u64 = 4;
/// Rebucket when the average empty-bucket scan steps per pop exceed this
/// over a window.
const MAX_AVG_SCAN: u64 = 8;

/// The calendar event queue (R. Brown, CACM 1988): a rotating wheel of
/// `nbuckets` time buckets of `width` seconds each.  An entry at time `t`
/// lives in bucket `floor(t / width) mod nbuckets`; a pop scans from the
/// current bucket for an entry whose own "year" (absolute bucket number)
/// has been reached, falling back to a direct minimum search when the
/// queue is sparse.  Push, pop and
/// cancel are all amortized O(1) at the maintained load factor, versus the
/// heap's O(log n) — the difference `tfmcc_experiments::event_bench` times
/// at 10⁵ queued events.
///
/// # Determinism
///
/// Pop order is exactly ascending `(time, seq)`, identical to [`HeapQueue`]:
///
/// * buckets are kept sorted by `(time, seq)` (binary-search insertion), so
///   within a bucket-year entries leave in heap order — FIFO by `seq` within
///   a timestamp;
/// * the rotation only yields an entry when its time falls inside the
///   current bucket's year window, so no later bucket can hold an earlier
///   entry (given the no-past-scheduling invariant);
/// * resizing is triggered purely by deterministic operation counters
///   (entry counts, windowed splice/scan costs), so identical
///   schedule/pop/cancel sequences resize identically.
///
/// The `scheduler_equivalence` property test drives both implementations
/// over random churning topologies and asserts identical delivery sequences.
///
/// # Example: schedule/cancel round-trip
///
/// ```
/// use netsim::events::{CalendarQueue, EventQueue};
/// use netsim::time::SimTime;
///
/// let mut q = CalendarQueue::new();
/// for seq in 0..100u64 {
///     q.schedule(SimTime::from_secs(seq as f64 * 0.25), seq, seq);
/// }
/// q.cancel(SimTime::from_secs(0.25), 1); // removed in place, no tombstone
/// assert_eq!(q.len(), 99);
/// assert_eq!(q.tombstones(), 0);
/// assert_eq!(q.pop().map(|(_, seq, _)| seq), Some(0));
/// assert_eq!(q.pop().map(|(_, seq, _)| seq), Some(2));
/// ```
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// The wheel.  Each bucket is sorted ascending by `(time, seq)`.
    buckets: Vec<VecDeque<Entry<T>>>,
    /// Seconds of simulated time covered by one bucket.
    width: f64,
    /// Cached `1.0 / width`; the bucket mapping multiplies by this instead
    /// of dividing (see [`Self::abs_bucket`]).
    inv_width: f64,
    /// Live entry count across all buckets.
    count: usize,
    /// Absolute index (`floor(time / width)`) of the bucket the rotation is
    /// currently serving; `cur_abs % nbuckets` is the wheel position and
    /// `(cur_abs + 1) * width` the bucket's year boundary.
    cur_abs: u64,
    /// Set after a resize (or at construction): the rotation position is
    /// stale and the next pop must re-locate the global minimum directly.
    needs_reposition: bool,
    /// Sum of the time gaps between successive pops since the last
    /// rebucketing; `width` is re-derived from this (Brown's estimator: a
    /// bucket should span a few average inter-dequeue gaps).  Accumulated
    /// over the whole inter-rebucket span so bursty workloads average out.
    pop_gap_sum: f64,
    /// Pops since the last rebucketing (the gap estimator's denominator).
    gap_pops: u64,
    /// Time of the most recent pop (the gap estimator's reference point).
    last_pop_time: Option<f64>,
    /// Pops in the current cost window.
    win_pops: u64,
    /// Empty-bucket rotation steps in the current cost window.
    win_scan_steps: u64,
    /// Summed in-bucket splice distances in the current cost window.
    win_insert_cost: u64,
    /// Inserts in the current cost window.
    win_inserts: u64,
    /// Pops since the last rebucketing, for the rebucket cooldown (a
    /// rebucketing is O(count), so one is allowed per ~count/2 pops at
    /// most, bounding the amortized cost).
    pops_since_rebucket: u64,
    /// Full rebucketings performed (diagnostics).
    pub rebuckets: u64,
}

impl<T> CalendarQueue<T> {
    /// Creates an empty calendar queue.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| VecDeque::new()).collect(),
            width: 0.01,
            inv_width: 100.0,
            count: 0,
            cur_abs: 0,
            needs_reposition: true,
            pop_gap_sum: 0.0,
            gap_pops: 0,
            last_pop_time: None,
            win_pops: 0,
            win_scan_steps: 0,
            win_insert_cost: 0,
            win_inserts: 0,
            pops_since_rebucket: 0,
            rebuckets: 0,
        }
    }

    /// Current bucket count (for tests and diagnostics).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Current bucket width in simulated seconds (for tests and
    /// diagnostics).
    pub fn bucket_width(&self) -> f64 {
        self.width
    }

    /// Length of the fullest bucket (for tests and diagnostics).
    pub fn max_bucket_len(&self) -> usize {
        self.buckets.iter().map(|b| b.len()).max().unwrap_or(0)
    }

    fn bucket_index(&self, time: SimTime) -> usize {
        // The wheel size is always a power of two (see `bucket_target`).
        (self.abs_bucket(time) & (self.buckets.len() as u64 - 1)) as usize
    }

    /// The absolute (non-wrapped) bucket number of `time`.  This is the one
    /// pure function defining where an entry lives and when its year
    /// arrives; every consumer (insert, cancel, rotation) goes through it,
    /// so float rounding at bucket boundaries cannot produce disagreement.
    fn abs_bucket(&self, time: SimTime) -> u64 {
        // `as u64` truncates toward zero, which is `floor` for the
        // non-negative times `SimTime` guarantees.
        (time.as_secs() * self.inv_width) as u64
    }

    fn insert_entry(&mut self, entry: Entry<T>) {
        // The rotation cursor tracks the *next* entry to pop, which can sit
        // ahead of the caller's clock (e.g. a peek that ran past a
        // `run_until` horizon).  An insert landing behind it would be
        // skipped for a whole rotation, so flag a direct re-positioning.
        if self.abs_bucket(entry.time) < self.cur_abs {
            self.needs_reposition = true;
        }
        let idx = self.bucket_index(entry.time);
        let bucket = &mut self.buckets[idx];
        let key = entry.key();
        match bucket.binary_search_by(|e| e.key().cmp(&key)) {
            // `seq` is unique, so an exact hit cannot happen; Err gives the
            // sorted insertion point either way.
            Ok(pos) | Err(pos) => {
                // The splice moves min(pos, len - pos) entries; feed the
                // cost observer that decides when rebucketing pays off.
                self.win_insert_cost += pos.min(bucket.len() - pos) as u64;
                self.win_inserts += 1;
                bucket.insert(pos, entry);
            }
        }
    }

    /// Points `cur_abs` at the bucket holding the global minimum entry.
    fn reposition_to_min(&mut self) {
        debug_assert!(self.count > 0);
        let mut best: Option<(SimTime, u64, usize)> = None;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            if let Some(front) = bucket.front() {
                let key = (front.time, front.seq, idx);
                if best.is_none_or(|b| (key.0, key.1) < (b.0, b.1)) {
                    best = Some(key);
                }
            }
        }
        let (time, _, _) = best.expect("count > 0 implies a non-empty bucket");
        self.cur_abs = self.abs_bucket(time);
        self.needs_reposition = false;
    }

    /// Advances the rotation to the bucket whose front is the next entry to
    /// pop and returns its wheel index.
    fn position_next(&mut self) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        if self.needs_reposition {
            self.reposition_to_min();
        }
        let mask = self.buckets.len() as u64 - 1;
        // One full rotation: a bucket's front whose own absolute bucket
        // number has been reached is the global minimum — entries are
        // sorted within buckets, `abs_bucket` is monotone in time, and
        // no-past-scheduling keeps every entry at or after the last popped
        // time.  Comparing bucket numbers (rather than times against a
        // recomputed bucket-boundary product) makes the test agree with the
        // insert mapping by construction, so float rounding at bucket
        // boundaries cannot strand an entry.
        for _ in 0..self.buckets.len() {
            let idx = (self.cur_abs & mask) as usize;
            if let Some(front) = self.buckets[idx].front() {
                if self.abs_bucket(front.time) <= self.cur_abs {
                    return Some(idx);
                }
            }
            self.cur_abs += 1;
            self.win_scan_steps += 1;
        }
        // Sparse queue: everything lives more than a year ahead.  Jump the
        // rotation straight to the global minimum.
        self.reposition_to_min();
        let idx = (self.cur_abs & mask) as usize;
        Some(idx)
    }

    /// Rebuilds the wheel at `new_buckets` buckets, re-deriving the bucket
    /// width from [`Self::estimate_width`] (a bucket should span ~3 average
    /// event separations — the classic sweet spot between bucket scan cost
    /// and empty-bucket rotation cost).  Skipped entirely when neither the
    /// wheel size nor the width would change.
    fn resize(&mut self, new_buckets: usize) {
        let new_width = match self.estimate_width() {
            Some(w) => w,
            None => self.width,
        };
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
        let mut entries: Vec<Entry<T>> = Vec::with_capacity(self.count);
        for bucket in &mut self.buckets {
            entries.extend(bucket.drain(..));
        }
        self.width = new_width;
        self.inv_width = 1.0 / new_width;
        // Reuse the surviving buckets' backing storage (`clear` keeps
        // capacity); only a growth allocates new, empty deques.
        self.buckets.truncate(new_buckets);
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.buckets.resize_with(new_buckets, VecDeque::new);
        for entry in entries {
            self.insert_entry(entry);
        }
        self.reset_observers();
        self.needs_reposition = true;
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
            for e in self.buckets.iter().flatten() {
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
    /// times while keeping the bucket headers cache-resident; in-bucket
    /// splices stay a handful of entries either way.
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
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send> EventQueue<T> for CalendarQueue<T> {
    fn schedule(&mut self, time: SimTime, seq: u64, item: T) {
        self.insert_entry(Entry { time, seq, item });
        self.count += 1;
        self.maybe_grow();
    }

    fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        let idx = self.position_next()?;
        let entry = self.buckets[idx].pop_front().expect("positioned bucket");
        self.count -= 1;
        let now = entry.time.as_secs();
        if let Some(prev) = self.last_pop_time {
            self.pop_gap_sum += (now - prev).max(0.0);
        }
        self.last_pop_time = Some(now);
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
        Some((entry.time, entry.seq, entry.item))
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        let idx = self.position_next()?;
        self.buckets[idx].front().map(|e| e.time)
    }

    fn cancel(&mut self, time: SimTime, seq: u64) {
        let idx = self.bucket_index(time);
        let key = (time, seq);
        if let Ok(pos) = self.buckets[idx].binary_search_by(|e| e.key().cmp(&key)) {
            self.buckets[idx].remove(pos);
            self.count -= 1;
        } else {
            debug_assert!(false, "cancel of an entry that is not queued");
        }
    }

    fn len(&self) -> usize {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// Drains a queue completely, asserting (time, seq) never goes backward.
    fn drain<T>(q: &mut dyn EventQueue<T>) -> Vec<(SimTime, u64)> {
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

    /// Both implementations accept inserts behind the last popped entry's
    /// time (the scheduler contract allows it unconditionally) and surface
    /// them next, in `(time, seq)` order among the remaining entries.
    #[test]
    fn accepts_late_inserts_behind_the_clock() {
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        let mut calendar: CalendarQueue<u64> = CalendarQueue::new();
        for q in [
            &mut heap as &mut dyn EventQueue<u64>,
            &mut calendar as &mut dyn EventQueue<u64>,
        ] {
            q.schedule(t(1.0), 0, 0);
            q.schedule(t(5.0), 1, 1);
            assert_eq!(q.pop().map(|(time, ..)| time), Some(t(1.0)));
            // The last pop was at 1.0; insert two entries behind it and one
            // tying an existing time with a larger seq.
            q.schedule(t(0.5), 100, 2);
            q.schedule(t(0.25), 101, 3);
            q.schedule(t(5.0), 50, 4);
            assert_eq!(q.peek_time(), Some(t(0.25)));
            let order: Vec<(SimTime, u64)> = drain(q);
            assert_eq!(
                order,
                vec![(t(0.25), 101), (t(0.5), 100), (t(5.0), 1), (t(5.0), 50)]
            );
        }
    }

    /// Runs an identical schedule/pop/cancel workload against both queue
    /// implementations and asserts identical pop sequences.
    fn compare_impls(seed: u64, prefill: usize, ops: usize) {
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        let mut calendar: CalendarQueue<u64> = CalendarQueue::new();
        let run = |q: &mut dyn EventQueue<u64>| -> Vec<(SimTime, u64, u64)> {
            let mut rng = Mix(seed);
            let mut seq = 0u64;
            let mut now = 0.0f64;
            let mut cancel_pool: Vec<(SimTime, u64)> = Vec::new();
            let mut popped = Vec::new();
            for _ in 0..prefill {
                let at = t(now + rng.unit() * 5.0);
                q.schedule(at, seq, seq);
                if seq % 7 == 3 {
                    cancel_pool.push((at, seq));
                }
                seq += 1;
            }
            for i in 0..ops {
                match q.pop() {
                    Some((time, s, item)) => {
                        now = time.as_secs();
                        popped.push((time, s, item));
                    }
                    None => break,
                }
                // Reschedule a little ahead, sometimes in bursts.
                let burst = 1 + (i % 3);
                for _ in 0..burst {
                    let at = t(now + rng.unit() * 2.0);
                    q.schedule(at, seq, seq);
                    if seq % 11 == 5 {
                        cancel_pool.push((at, seq));
                    }
                    seq += 1;
                }
                // Cancel an outstanding entry now and then (skipping any that
                // already popped).
                if i % 5 == 2 {
                    while let Some((at, s)) = cancel_pool.pop() {
                        if popped.iter().all(|&(_, ps, _)| ps != s) {
                            q.cancel(at, s);
                            break;
                        }
                    }
                }
            }
            while let Some(e) = q.pop() {
                popped.push(e);
            }
            popped
        };
        let h = run(&mut heap);
        let c = run(&mut calendar);
        assert_eq!(h.len(), c.len(), "pop counts diverged (seed {seed})");
        assert_eq!(h, c, "pop sequences diverged (seed {seed})");
        assert_eq!(heap.tombstones(), 0, "tombstones must drain by exhaustion");
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
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            let mut q = kind.build::<u64>();
            for seq in 0..100u64 {
                q.schedule(t(1.0), seq, seq);
            }
            let order = drain(q.as_mut());
            let seqs: Vec<u64> = order.iter().map(|&(_, s)| s).collect();
            assert_eq!(seqs, (0..100).collect::<Vec<_>>(), "{kind:?}");
        }
    }

    #[test]
    fn sparse_far_future_events_are_found() {
        // Everything lives many "years" past the initial rotation position;
        // the direct-search fallback must find the minimum, not spin.
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            let mut q = kind.build::<u64>();
            q.schedule(t(5_000.0), 0, 0);
            q.schedule(t(90_000.0), 1, 1);
            q.schedule(t(5_500.0), 2, 2);
            assert_eq!(q.peek_time(), Some(t(5_000.0)), "{kind:?}");
            let order = drain(q.as_mut());
            assert_eq!(
                order,
                vec![(t(5_000.0), 0), (t(5_500.0), 2), (t(90_000.0), 1)]
            );
        }
    }

    /// A peek can park the rotation cursor at a far-future bucket (that is
    /// how `run_until` decides to stop); a later insert *between* the last
    /// pop and that parked position must still pop first.
    #[test]
    fn insert_behind_a_peeked_cursor_is_not_stranded() {
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            let mut q = kind.build::<u64>();
            q.schedule(t(1.0), 0, 0);
            q.schedule(t(2.0), 1, 1);
            assert_eq!(q.pop().map(|(_, s, _)| s), Some(0), "{kind:?}");
            // Parks the cursor at 2.0's bucket.
            assert_eq!(q.peek_time(), Some(t(2.0)), "{kind:?}");
            // Legal insert (>= last popped time) behind the parked cursor.
            q.schedule(t(1.5), 2, 2);
            assert_eq!(
                q.pop().map(|(ti, s, _)| (ti, s)),
                Some((t(1.5), 2)),
                "{kind:?}"
            );
            assert_eq!(
                q.pop().map(|(ti, s, _)| (ti, s)),
                Some((t(2.0), 1)),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn cancel_keeps_len_and_tombstones_bounded() {
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            let mut q = kind.build::<u64>();
            for seq in 0..1000u64 {
                q.schedule(t(1.0 + seq as f64), seq, seq);
            }
            for seq in 0..1000u64 {
                if seq % 2 == 0 {
                    q.cancel(t(1.0 + seq as f64), seq);
                }
            }
            assert_eq!(q.len(), 500, "{kind:?}");
            let order = drain(q.as_mut());
            assert_eq!(order.len(), 500, "{kind:?}");
            assert!(order.iter().all(|&(_, s)| s % 2 == 1), "{kind:?}");
            assert_eq!(q.tombstones(), 0, "{kind:?}: tombstones must drain");
        }
    }

    #[test]
    fn scheduler_kind_env_round_trip() {
        // `SchedulerKind::from_env` is exercised via the string matcher only;
        // mutating the process environment here would race other tests.
        assert_eq!(SchedulerKind::default(), SchedulerKind::Calendar);
        assert_eq!(SchedulerKind::Heap.build::<u8>().len(), 0);
        assert_eq!(SchedulerKind::Calendar.build::<u8>().len(), 0);
    }
}
