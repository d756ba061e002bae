//! A deterministic discrete-event queue.
//!
//! [`EventQueue`] pops events in `(time, insertion seq)` order. Its one
//! backing store is the calendar queue in [`crate::calendar`];
//! `tests/queue_equivalence.rs` checks its pop order against a
//! `BinaryHeap` oracle by property test, and `tests/async_golden.rs`
//! pins the trace bytes every trainer run produces on top of it.

use crate::calendar::CalendarQueue;
use crate::SimTime;

/// Names the event-queue backing. There is one, the calendar queue, and
/// this type exists only so `perfbench`'s header line can keep printing
/// `queue=calendar`.
#[derive(Debug, Clone, Copy)]
pub struct QueueKind;

impl QueueKind {
    /// The backing every [`EventQueue`] runs on.
    pub fn active() -> QueueKind {
        QueueKind
    }

    /// Stable lower-case name of the backing: `"calendar"`.
    pub fn name(&self) -> &'static str {
        "calendar"
    }
}

/// An event queue delivering payloads in `(time, insertion order)` order.
///
/// Ties at the same timestamp are broken by insertion sequence number, so
/// a simulation run is bit-reproducible regardless of queue internals.
#[derive(Debug)]
pub struct EventQueue<T> {
    calendar: CalendarQueue<T>,
    seq: u64,
    now: SimTime,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            calendar: CalendarQueue::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.calendar.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// Scheduling in the past is allowed (the event fires "now"): clock
    /// monotonicity is enforced at pop time by clamping to `now`.
    pub fn schedule(&mut self, at: SimTime, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.calendar.insert(at, seq, self.now, payload);
    }

    /// Pops the earliest event, advancing the clock to its timestamp
    /// (clamped to be monotone).
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let entry = self.calendar.pop(self.now)?;
        let fire_at = entry.time.max(self.now);
        self.now = fire_at;
        Some((fire_at, entry.payload))
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), "c");
        q.schedule(SimTime::from_micros(10), "a");
        q.schedule(SimTime::from_micros(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(100), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(100));
        // An event scheduled in the past fires at the current clock.
        q.schedule(SimTime::from_micros(50), ());
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_micros(100));
        assert_eq!(q.now(), SimTime::from_micros(100));
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), SimTime::ZERO);
    }
}
