//! The timer table: where every scheduled, not yet fired or cancelled timer
//! sits in the event queue, so [`crate::sim::Context::cancel`] can remove
//! its entry in place.

use crate::time::SimTime;

/// Handle for a scheduled timer, usable to cancel it.
///
/// A slot of the simulator's timer table in the low half and the slot's
/// generation in the high half: once the timer fires or is cancelled the slot's
/// generation moves on, so a stale handle names nothing, even after its slot
/// is reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(pub(crate) u64);

impl TimerId {
    fn new(slot: u32, generation: u32) -> Self {
        TimerId(u64::from(generation) << 32 | u64::from(slot))
    }

    fn slot(self) -> usize {
        (self.0 & u64::from(u32::MAX)) as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

#[derive(Debug, Default)]
struct Slot {
    generation: u32,
    /// `(fire time, event seq)` while the slot holds a pending timer.
    pending: Option<(SimTime, u64)>,
}

/// Every pending timer's queue key, in a slab of generation-tagged slots
/// with a free list: arming, firing and cancelling are O(1), and the slab
/// stays as large as the most timers ever pending at once.
#[derive(Debug, Default)]
pub(crate) struct TimerTable {
    slots: Vec<Slot>,
    /// Vacant slots, most recently vacated last.
    free: Vec<u32>,
}

impl TimerTable {
    /// Records a timer queued under `(at, seq)` and returns its handle.
    pub(crate) fn insert(&mut self, at: SimTime, seq: u64) -> TimerId {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot::default());
            u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 pending timers")
        });
        let entry = &mut self.slots[slot as usize];
        entry.pending = Some((at, seq));
        TimerId::new(slot, entry.generation)
    }

    /// Retires `timer` and returns its queue key; `None` if it already fired
    /// or was cancelled.
    pub(crate) fn remove(&mut self, timer: TimerId) -> Option<(SimTime, u64)> {
        let entry = self.slots.get_mut(timer.slot())?;
        if entry.generation != timer.generation() {
            return None;
        }
        let key = entry.pending.take()?;
        entry.generation = entry.generation.wrapping_add(1);
        self.free.push(timer.slot() as u32);
        Some(key)
    }

    /// Number of pending timers.
    pub(crate) fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stale_handle_misses_the_reused_slot() {
        let mut table = TimerTable::default();
        let first = table.insert(SimTime::from_secs(1.0), 7);
        assert_eq!(table.remove(first), Some((SimTime::from_secs(1.0), 7)));
        let second = table.insert(SimTime::from_secs(2.0), 9);
        assert_eq!(first.slot(), second.slot());
        assert_eq!(table.remove(first), None);
        assert_eq!(table.len(), 1);
        assert_eq!(table.remove(second), Some((SimTime::from_secs(2.0), 9)));
        assert_eq!(table.remove(second), None);
        assert_eq!(table.len(), 0);
    }
}
