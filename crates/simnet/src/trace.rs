//! Event recording: one recorder decides which sinks an event reaches.
//!
//! Every trainer and the fleet record their protocol events, metric
//! samples and snapshots through an [`EventLog`]. A record always bumps
//! the log's counter bank (the source of every event-count report field),
//! appends to the [`TraceLog`] when tracing is on, and journals into the
//! attached [`TelemetryHub`] when the kind is journaled. Metric samples
//! and snapshots reach the hub only when one is attached. Experiments
//! slice the trace by time window or end-system afterwards, which is
//! useful for plotting queue dynamics without re-running the simulation.

use crate::{EndSystemId, SimTime};
use stsl_telemetry::{EventKind, MetricId, TelemetryHub};

/// One traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub kind: EventKind,
    /// Which end-system it concerned.
    pub end_system: EndSystemId,
}

/// An append-only, queryable event trace. Filled only by an
/// [`EventLog`] with tracing enabled.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
}

impl TraceLog {
    /// Appends an event.
    fn record(&mut self, at: SimTime, kind: EventKind, end_system: EndSystemId) {
        self.events.push(TraceEvent {
            at,
            kind,
            end_system,
        });
    }

    /// All recorded events, in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Count of events of `kind`.
    pub fn count(&self, kind: EventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Count of events of `kind` for one end-system.
    pub fn count_for(&self, kind: EventKind, end_system: EndSystemId) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == kind && e.end_system == end_system)
            .count()
    }

    /// Events with `from <= at < to`, in recording order.
    pub fn window(&self, from: SimTime, to: SimTime) -> Vec<TraceEvent> {
        self.events
            .iter()
            .copied()
            .filter(|e| e.at >= from && e.at < to)
            .collect()
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

/// The one recorder: a counter bank per [`EventKind`], plus an optional
/// trace and an optional telemetry hub for events, metric samples and
/// snapshots.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    counts: [u64; EventKind::COUNT],
    trace: Option<TraceLog>,
    hub: Option<TelemetryHub>,
}

impl EventLog {
    /// A log that only counts: no trace, no hub.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Starts a fresh trace; every later record is appended to it.
    pub fn enable_trace(&mut self) {
        self.trace = Some(TraceLog::default());
    }

    /// Attaches a telemetry hub: every later record of a journaled kind
    /// is journaled into it, and every later metric sample and snapshot
    /// goes to it.
    pub fn attach_hub(&mut self, hub: TelemetryHub) {
        self.hub = Some(hub);
    }

    /// Records one event: bumps its counter, traces it when tracing is
    /// on, and journals it when a hub is attached and the kind is
    /// journaled. A journal eviction is itself recorded as
    /// [`EventKind::JournalDrop`], right after the event that caused it.
    pub fn record(&mut self, at: SimTime, kind: EventKind, actor: EndSystemId) {
        self.counts[kind.index()] += 1;
        if let Some(trace) = &mut self.trace {
            trace.record(at, kind, actor);
        }
        if !kind.journaled() {
            return;
        }
        let evicted = self
            .hub
            .as_mut()
            .is_some_and(|hub| hub.journal(at.as_micros(), kind, actor.0 as u64));
        if evicted {
            self.record(at, EventKind::JournalDrop, actor);
        }
    }

    /// Records one metric sample into the attached hub; does nothing
    /// without one.
    pub fn observe(&mut self, metric: MetricId, actor: EndSystemId, value: u64) {
        if let Some(hub) = &mut self.hub {
            hub.record(metric, actor.0 as u64, value);
        }
    }

    /// Emits a hub snapshot at `at` and records it as
    /// [`EventKind::SnapshotEmit`] for `actor`; does nothing without a
    /// hub.
    pub fn snapshot(&mut self, at: SimTime, actor: EndSystemId) {
        let Some(hub) = &mut self.hub else {
            return;
        };
        hub.emit_snapshot(at.as_micros());
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

    /// The attached telemetry hub, if any.
    pub fn hub(&self) -> Option<&TelemetryHub> {
        self.hub.as_ref()
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
    fn window_is_half_open() {
        let mut log = traced();
        for ms in [1u64, 5, 10, 15] {
            log.record(t(ms), EventKind::Arrival, EndSystemId(0));
        }
        let w = log.trace().unwrap().window(t(5), t(15));
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].at, t(5));
        assert_eq!(w[1].at, t(10));
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
    fn counts_without_trace_or_hub() {
        let mut log = EventLog::new();
        log.record(t(1), EventKind::Retransmit, EndSystemId(0));
        assert_eq!(log.count(EventKind::Retransmit), 1);
        assert!(log.trace().is_none());
        log.reset_counts();
        assert_eq!(log.count(EventKind::Retransmit), 0);
    }

    #[test]
    fn observe_and_snapshot_do_nothing_without_a_hub() {
        let mut log = traced();
        log.observe(MetricId::QueueDepth, EndSystemId(0), 3);
        log.snapshot(t(1), EndSystemId(1));
        assert!(log.hub().is_none());
        assert!(log.trace().unwrap().is_empty());
        assert_eq!(log.count(EventKind::SnapshotEmit), 0);
    }

    #[test]
    fn snapshot_emits_once_and_records_one_snapshot_emit() {
        let mut log = traced();
        log.attach_hub(TelemetryHub::new(8));
        log.observe(MetricId::QueueDepth, EndSystemId(2), 5);
        log.snapshot(t(4), EndSystemId(3));
        let hub = log.hub().unwrap();
        assert_eq!(hub.snapshots().len(), 1);
        assert_eq!(hub.latest_snapshot().unwrap().at_us, 4_000);
        let depth = hub.registry().histogram(MetricId::QueueDepth, 2).unwrap();
        assert_eq!(depth.max(), Some(5));
        assert_eq!(log.count(EventKind::SnapshotEmit), 1);
        let trace = log.trace().unwrap();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.count_for(EventKind::SnapshotEmit, EndSystemId(3)), 1);
    }

    #[test]
    fn evictions_are_counted_and_traced_after_their_cause() {
        let mut log = traced();
        log.attach_hub(TelemetryHub::new(1));
        log.record(t(1), EventKind::Arrival, EndSystemId(0));
        log.record(t(2), EventKind::ServiceStart, EndSystemId(0));
        // Unjournaled kinds never evict.
        log.record(t(3), EventKind::CorruptRejected, EndSystemId(1));
        let kinds: Vec<EventKind> = log
            .trace()
            .unwrap()
            .events()
            .iter()
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            kinds,
            [
                EventKind::Arrival,
                EventKind::ServiceStart,
                EventKind::JournalDrop,
                EventKind::CorruptRejected,
            ]
        );
        assert_eq!(log.count(EventKind::JournalDrop), 1);
        let hub = log.hub().unwrap();
        assert_eq!(hub.journal_log().evicted(), 1);
        assert_eq!(hub.journal_log().count(EventKind::ServiceStart), 1);
    }
}
