//! Typed, bounded event journal.
//!
//! A ring buffer of the last `capacity` simulation events, stamped with
//! sim-time microseconds supplied by the caller (never a host clock). When
//! full, the oldest event is evicted; [`EventJournal::push`] reports the
//! eviction so the recorder can count and trace it as
//! [`EventKind::JournalDrop`].

use std::collections::VecDeque;

use crate::event::EventKind;

/// One journal entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEvent {
    /// Simulation time in microseconds (a logical clock for the
    /// synchronous trainer).
    pub at_us: u64,
    /// Event type.
    pub kind: EventKind,
    /// The end-system (or server) the event is about. `u64` so
    /// fleet-scale ids are never truncated or aliased.
    pub actor: u64,
}

impl JournalEvent {
    /// Render as one JSONL line (no trailing newline), fixed key order.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"at_us\":{},\"kind\":\"{}\",\"actor\":{}}}",
            self.at_us,
            self.kind.as_str(),
            self.actor
        )
    }
}

/// Bounded ring buffer keeping the most recent events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventJournal {
    events: VecDeque<JournalEvent>,
    capacity: usize,
    evicted: u64,
}

impl EventJournal {
    /// A journal keeping at most `capacity` events (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            events: VecDeque::with_capacity(capacity),
            capacity,
            evicted: 0,
        }
    }

    /// Append an event; returns `true` if an older event was evicted to
    /// make room.
    pub fn push(&mut self, at_us: u64, kind: EventKind, actor: u64) -> bool {
        let evicting = self.events.len() == self.capacity;
        if evicting {
            self.events.pop_front();
            self.evicted += 1;
        }
        self.events.push_back(JournalEvent { at_us, kind, actor });
        evicting
    }

    /// Events currently retained, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &JournalEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been journaled (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events evicted since creation.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Retained events of a given kind.
    pub fn count(&self, kind: EventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// JSONL export: one event per line, oldest first, trailing newline
    /// after every line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_most_recent_and_reports_evictions() {
        let mut j = EventJournal::new(3);
        assert!(!j.push(1, EventKind::Arrival, 0));
        assert!(!j.push(2, EventKind::ServiceStart, 0));
        assert!(!j.push(3, EventKind::GradientDelivered, 0));
        assert!(j.push(4, EventKind::Arrival, 1));
        assert_eq!(j.len(), 3);
        assert_eq!(j.evicted(), 1);
        let first = j.iter().next().unwrap();
        assert_eq!(first.at_us, 2);
    }

    #[test]
    fn jsonl_lines_are_stable() {
        let mut j = EventJournal::new(8);
        j.push(1_500, EventKind::Quarantine, 2);
        j.push(2_500, EventKind::Rollback, 7);
        assert_eq!(
            j.to_jsonl(),
            "{\"at_us\":1500,\"kind\":\"quarantine\",\"actor\":2}\n\
             {\"at_us\":2500,\"kind\":\"rollback\",\"actor\":7}\n"
        );
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut j = EventJournal::new(0);
        assert_eq!(j.capacity(), 1);
        assert!(!j.push(1, EventKind::Arrival, 0));
        assert!(j.push(2, EventKind::Arrival, 0));
        assert_eq!(j.len(), 1);
    }

    #[test]
    fn count_filters_by_kind() {
        let mut j = EventJournal::new(8);
        j.push(1, EventKind::Arrival, 0);
        j.push(2, EventKind::Arrival, 1);
        j.push(3, EventKind::NetworkDrop, 1);
        assert_eq!(j.count(EventKind::Arrival), 2);
        assert_eq!(j.count(EventKind::NetworkDrop), 1);
        assert_eq!(j.count(EventKind::Rollback), 0);
    }
}
