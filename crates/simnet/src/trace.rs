//! Event recording: one recorder decides which sinks an event reaches.
//!
//! Every trainer and the fleet record their protocol events, metric
//! samples and snapshots through an [`EventLog`]. A record always bumps
//! the log's counter bank (the source of every event-count report field),
//! appends to the trace when tracing is on, and appends to the journal
//! when telemetry is on and the kind is journaled. Trace and journal are
//! the same row type in the same ring type, a [`TraceLog`]: the trace
//! never evicts, and the journal keeps only its newest rows and records
//! each eviction as [`EventKind::JournalDrop`]. Metric samples and
//! snapshots reach the [`Telemetry`] only when it is on.

use std::collections::VecDeque;

use crate::{EndSystemId, SimTime};
use stsl_telemetry::{EventKind, MetricId, MetricRegistry, Snapshot};

/// One recorded event: a row of the trace or of the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub kind: EventKind,
    /// Which end-system it concerned.
    pub end_system: EndSystemId,
}

/// A queryable ring of recorded events, filled only by an [`EventLog`].
/// The trace never evicts; the journal keeps its newest `capacity` rows
/// and counts the ones it evicted.
#[derive(Debug, Clone)]
pub struct TraceLog {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    evicted: u64,
}

impl TraceLog {
    /// A ring that never evicts.
    fn unbounded() -> Self {
        TraceLog {
            events: VecDeque::new(),
            capacity: usize::MAX,
            evicted: 0,
        }
    }

    /// A ring keeping the newest `capacity` rows (at least one).
    fn bounded(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceLog {
            events: VecDeque::with_capacity(capacity),
            capacity,
            evicted: 0,
        }
    }

    /// Appends an event; returns `true` if the oldest row was evicted to
    /// make room.
    fn push(&mut self, at: SimTime, kind: EventKind, end_system: EndSystemId) -> bool {
        let evicting = self.events.len() == self.capacity;
        if evicting {
            self.events.pop_front();
            self.evicted += 1;
        }
        self.events.push_back(TraceEvent {
            at,
            kind,
            end_system,
        });
        evicting
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> &VecDeque<TraceEvent> {
        &self.events
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Rows evicted to make room (always 0 for the trace).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Count of retained events of `kind`.
    pub fn count(&self, kind: EventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Count of retained events of `kind` for one end-system.
    pub fn count_for(&self, kind: EventKind, end_system: EndSystemId) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == kind && e.end_system == end_system)
            .count()
    }

    /// Renders the log as CSV (`time_us,kind,end_system`) for external
    /// plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_us,kind,end_system\n");
        for e in &self.events {
            out.push_str(&format!(
                "{},{:?},{}\n",
                e.at.as_micros(),
                e.kind,
                e.end_system.0
            ));
        }
        out
    }
}

/// What [`EventLog::enable_telemetry`] turns on: the metric registry, the
/// emitted snapshots and the bounded journal. Read-only outside this
/// module; every write goes through the [`EventLog`].
#[derive(Debug, Clone)]
pub struct Telemetry {
    registry: MetricRegistry,
    snapshots: Vec<Snapshot>,
    journal: TraceLog,
}

impl Telemetry {
    /// The metric registry.
    pub fn registry(&self) -> &MetricRegistry {
        &self.registry
    }

    /// All emitted snapshots, in emission order.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// The most recently emitted snapshot.
    pub fn latest_snapshot(&self) -> Option<&Snapshot> {
        self.snapshots.last()
    }

    /// The journal: the newest journaled events.
    pub fn journal(&self) -> &TraceLog {
        &self.journal
    }

    /// Deterministic JSON export: all snapshots, the retained journal and
    /// the eviction count, with a fixed key order. A journal row's `kind`
    /// is [`EventKind::as_str`].
    pub fn export_json(&self) -> String {
        let mut out = String::from("{\"snapshots\":[");
        for (i, s) in self.snapshots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&s.to_json());
        }
        out.push_str("],\"journal\":[");
        for (i, e) in self.journal.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"at_us\":{},\"kind\":\"{}\",\"actor\":{}}}",
                e.at.as_micros(),
                e.kind.as_str(),
                e.end_system.0
            ));
        }
        out.push_str(&format!("],\"journal_evicted\":{}}}", self.journal.evicted));
        out
    }
}

/// The one recorder: a counter bank per [`EventKind`], plus an optional
/// trace and optional [`Telemetry`] for events, metric samples and
/// snapshots.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    counts: [u64; EventKind::COUNT],
    trace: Option<TraceLog>,
    telemetry: Option<Telemetry>,
}

impl EventLog {
    /// A log that only counts: no trace, no telemetry.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Starts a fresh trace; every later record is appended to it.
    pub fn enable_trace(&mut self) {
        self.trace = Some(TraceLog::unbounded());
    }

    /// Turns telemetry on, with a journal that keeps the newest
    /// `journal_capacity` journaled events (at least one): every later
    /// record of a journaled kind is journaled, and every later metric
    /// sample and snapshot is kept.
    pub fn enable_telemetry(&mut self, journal_capacity: usize) {
        self.telemetry = Some(Telemetry {
            registry: MetricRegistry::new(),
            snapshots: Vec::new(),
            journal: TraceLog::bounded(journal_capacity),
        });
    }

    /// Records one event: bumps its counter, traces it when tracing is
    /// on, and journals it when telemetry is on and the kind is
    /// journaled. A journal eviction is itself recorded as
    /// [`EventKind::JournalDrop`], right after the event that caused it.
    pub fn record(&mut self, at: SimTime, kind: EventKind, actor: EndSystemId) {
        self.counts[kind.index()] += 1;
        if let Some(trace) = &mut self.trace {
            trace.push(at, kind, actor);
        }
        let evicted = match &mut self.telemetry {
            Some(telemetry) if kind.journaled() => telemetry.journal.push(at, kind, actor),
            _ => false,
        };
        if evicted {
            self.record(at, EventKind::JournalDrop, actor);
        }
    }

    /// Records one metric sample; does nothing without telemetry.
    pub fn observe(&mut self, metric: MetricId, actor: EndSystemId, value: u64) {
        if let Some(telemetry) = &mut self.telemetry {
            telemetry.registry.record(metric, actor.0 as u64, value);
        }
    }

    /// Emits a snapshot of the registry at `at` and records it as
    /// [`EventKind::SnapshotEmit`] for `actor`; does nothing without
    /// telemetry.
    pub fn snapshot(&mut self, at: SimTime, actor: EndSystemId) {
        let Some(telemetry) = &mut self.telemetry else {
            return;
        };
        let seq = telemetry.snapshots.len() as u64;
        let snapshot = telemetry.registry.snapshot(at.as_micros(), seq);
        telemetry.snapshots.push(snapshot);
        self.record(at, EventKind::SnapshotEmit, actor);
    }

    /// Events of `kind` recorded since creation or the last
    /// [`EventLog::reset_counts`].
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Zeroes the counter bank; the trace and the journal keep their
    /// rows. Trainers call this when a run starts, so a report counts
    /// that run alone.
    pub fn reset_counts(&mut self) {
        self.counts = [0; EventKind::COUNT];
    }

    /// The trace, if [`EventLog::enable_trace`] was called.
    pub fn trace(&self) -> Option<&TraceLog> {
        self.trace.as_ref()
    }

    /// The telemetry, if [`EventLog::enable_telemetry`] was called.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn traced() -> EventLog {
        let mut log = EventLog::new();
        log.enable_trace();
        log
    }

    fn kinds(ring: &TraceLog) -> Vec<EventKind> {
        ring.events().iter().map(|e| e.kind).collect()
    }

    #[test]
    fn records_and_counts() {
        let mut log = traced();
        log.record(t(1), EventKind::Arrival, EndSystemId(0));
        log.record(t(2), EventKind::Arrival, EndSystemId(1));
        log.record(t(3), EventKind::ServiceStart, EndSystemId(0));
        let trace = log.trace().unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.count(EventKind::Arrival), 2);
        assert_eq!(trace.count_for(EventKind::Arrival, EndSystemId(0)), 1);
        assert_eq!(trace.count(EventKind::NetworkDrop), 0);
        assert_eq!(log.count(EventKind::Arrival), 2);
        assert_eq!(log.count(EventKind::NetworkDrop), 0);
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let mut log = traced();
        log.record(t(2), EventKind::SchedulerDrop, EndSystemId(3));
        let csv = log.trace().unwrap().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "time_us,kind,end_system");
        assert_eq!(lines[1], "2000,SchedulerDrop,3");
    }

    #[test]
    fn counts_without_trace_or_telemetry() {
        let mut log = EventLog::new();
        log.record(t(1), EventKind::Retransmit, EndSystemId(0));
        assert_eq!(log.count(EventKind::Retransmit), 1);
        assert!(log.trace().is_none());
        log.reset_counts();
        assert_eq!(log.count(EventKind::Retransmit), 0);
    }

    #[test]
    fn bounded_ring_keeps_the_newest_rows_and_counts_evictions() {
        let mut ring = TraceLog::bounded(3);
        assert!(!ring.push(t(1), EventKind::Arrival, EndSystemId(0)));
        assert!(!ring.push(t(2), EventKind::ServiceStart, EndSystemId(0)));
        assert!(!ring.push(t(3), EventKind::GradientDelivered, EndSystemId(0)));
        assert!(ring.push(t(4), EventKind::Arrival, EndSystemId(1)));
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.evicted(), 1);
        assert_eq!(ring.events()[0].at, t(2));
        assert_eq!(ring.count(EventKind::Arrival), 1);
        assert_eq!(ring.count_for(EventKind::Arrival, EndSystemId(1)), 1);
        assert_eq!(ring.count(EventKind::Rollback), 0);
    }

    #[test]
    fn zero_capacity_clamps_to_one_and_the_trace_never_evicts() {
        let mut ring = TraceLog::bounded(0);
        assert!(!ring.push(t(1), EventKind::Arrival, EndSystemId(0)));
        assert!(ring.push(t(2), EventKind::Arrival, EndSystemId(0)));
        assert_eq!(ring.len(), 1);
        let mut trace = TraceLog::unbounded();
        for i in 0..100 {
            assert!(!trace.push(t(i), EventKind::Arrival, EndSystemId(0)));
        }
        assert_eq!((trace.len(), trace.evicted()), (100, 0));
    }

    #[test]
    fn observe_and_snapshot_do_nothing_without_telemetry() {
        let mut log = traced();
        log.observe(MetricId::QueueDepth, EndSystemId(0), 3);
        log.snapshot(t(1), EndSystemId(1));
        assert!(log.telemetry().is_none());
        assert!(log.trace().unwrap().is_empty());
        assert_eq!(log.count(EventKind::SnapshotEmit), 0);
    }

    #[test]
    fn snapshot_emits_once_and_records_one_snapshot_emit() {
        let mut log = traced();
        log.enable_telemetry(8);
        log.observe(MetricId::QueueDepth, EndSystemId(2), 5);
        log.snapshot(t(4), EndSystemId(3));
        log.snapshot(t(5), EndSystemId(3));
        let telemetry = log.telemetry().unwrap();
        assert_eq!(telemetry.snapshots().len(), 2);
        let latest = telemetry.latest_snapshot().unwrap();
        assert_eq!((latest.at_us, latest.seq), (5_000, 1));
        let depth = telemetry
            .registry()
            .histogram(MetricId::QueueDepth, 2)
            .unwrap();
        assert_eq!(depth.max(), Some(5));
        assert_eq!(log.count(EventKind::SnapshotEmit), 2);
        let trace = log.trace().unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.count_for(EventKind::SnapshotEmit, EndSystemId(3)), 2);
        assert_eq!(telemetry.journal().count(EventKind::SnapshotEmit), 2);
    }

    #[test]
    fn evictions_are_counted_and_traced_after_their_cause() {
        let mut log = traced();
        log.enable_telemetry(1);
        log.record(t(1), EventKind::Arrival, EndSystemId(0));
        log.record(t(2), EventKind::ServiceStart, EndSystemId(0));
        // Unjournaled kinds never evict.
        log.record(t(3), EventKind::CorruptRejected, EndSystemId(1));
        assert_eq!(
            kinds(log.trace().unwrap()),
            [
                EventKind::Arrival,
                EventKind::ServiceStart,
                EventKind::JournalDrop,
                EventKind::CorruptRejected,
            ]
        );
        assert_eq!(log.count(EventKind::JournalDrop), 1);
        let journal = log.telemetry().unwrap().journal();
        assert_eq!(journal.evicted(), 1);
        assert_eq!(kinds(journal), [EventKind::ServiceStart]);
    }

    #[test]
    fn export_json_shape() {
        let (us, actor) = (SimTime::from_micros, EndSystemId(9));
        let mut log = EventLog::new();
        log.enable_telemetry(2);
        log.observe(MetricId::ServiceTime, actor, 50);
        log.record(us(1), EventKind::Quarantine, actor);
        log.record(us(2), EventKind::ServiceStart, actor);
        log.snapshot(us(100), actor);
        let json = log.telemetry().unwrap().export_json();
        assert!(json.starts_with("{\"snapshots\":[{\"at_us\":100,\"seq\":0,"));
        assert!(json.ends_with(
            "\"journal\":[{\"at_us\":2,\"kind\":\"service_start\",\"actor\":9},\
             {\"at_us\":100,\"kind\":\"snapshot_emit\",\"actor\":9}],\
             \"journal_evicted\":1}"
        ));
    }
}
