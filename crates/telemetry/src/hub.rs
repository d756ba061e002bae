//! The [`TelemetryHub`]: the one handle instrumentation sites talk to.

use crate::event::EventKind;
use crate::journal::EventJournal;
use crate::registry::{MetricId, MetricRegistry, Snapshot};

/// Bundles the metric registry, the event journal and the emitted
/// snapshot series behind one mutable handle.
///
/// Boundary types are plain `u64` so the hub can be embedded
/// anywhere in the stack (including `stsl-simnet`) without a dependency
/// on simulation time types; callers pass `SimTime::as_micros()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryHub {
    registry: MetricRegistry,
    journal: EventJournal,
    snapshots: Vec<Snapshot>,
}

impl TelemetryHub {
    /// A hub whose journal retains at most `journal_capacity` events.
    pub fn new(journal_capacity: usize) -> Self {
        Self {
            registry: MetricRegistry::new(),
            journal: EventJournal::new(journal_capacity),
            snapshots: Vec::new(),
        }
    }

    /// Record one metric sample.
    pub fn record(&mut self, metric: MetricId, actor: u64, value: u64) {
        self.registry.record(metric, actor, value);
    }

    /// Journal an event; returns `true` if an older event was evicted.
    /// The trainers journal through `stsl_simnet::EventLog::record`,
    /// which also counts and traces that eviction.
    pub fn journal(&mut self, at_us: u64, kind: EventKind, actor: u64) -> bool {
        self.journal.push(at_us, kind, actor)
    }

    /// Emit a snapshot of the registry at sim-time `at_us`; returns its
    /// sequence number.
    pub fn emit_snapshot(&mut self, at_us: u64) -> u64 {
        let seq = self.snapshots.len() as u64;
        let snap = self.registry.snapshot(at_us, seq);
        self.snapshots.push(snap);
        seq
    }

    /// All emitted snapshots, in emission order.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// The most recently emitted snapshot.
    pub fn latest_snapshot(&self) -> Option<&Snapshot> {
        self.snapshots.last()
    }

    /// The metric registry (read-only).
    pub fn registry(&self) -> &MetricRegistry {
        &self.registry
    }

    /// The event journal (read-only).
    pub fn journal_log(&self) -> &EventJournal {
        &self.journal
    }

    /// Deterministic JSON export: all snapshots, the retained journal and
    /// the eviction count, with a fixed key order.
    pub fn export_json(&self) -> String {
        let mut out = String::from("{\"snapshots\":[");
        for (i, s) in self.snapshots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&s.to_json());
        }
        out.push_str("],\"journal\":[");
        for (i, e) in self.journal.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&e.to_json());
        }
        out.push_str(&format!(
            "],\"journal_evicted\":{}}}",
            self.journal.evicted()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_round_trip() {
        let mut hub = TelemetryHub::new(4);
        hub.record(MetricId::UplinkLatency, 0, 1_000);
        assert!(!hub.journal(5, EventKind::Arrival, 0));
        assert_eq!(hub.emit_snapshot(10), 0);
        assert_eq!(hub.emit_snapshot(20), 1);
        assert_eq!(hub.snapshots().len(), 2);
        assert_eq!(hub.latest_snapshot().unwrap().at_us, 20);
        assert_eq!(hub.journal_log().len(), 1);
    }

    #[test]
    fn export_json_shape() {
        let mut hub = TelemetryHub::new(2);
        hub.record(MetricId::ServiceTime, 9, 50);
        hub.journal(1, EventKind::ServiceStart, 9);
        hub.emit_snapshot(100);
        let json = hub.export_json();
        assert!(json.starts_with("{\"snapshots\":[{\"at_us\":100,"));
        assert!(json.contains("\"journal\":[{\"at_us\":1,\"kind\":\"service_start\",\"actor\":9}]"));
        assert!(json.ends_with("\"journal_evicted\":0}"));
    }

    #[test]
    fn export_is_identical_for_identical_event_streams() {
        let run = || {
            let mut hub = TelemetryHub::new(8);
            for i in 0..20u64 {
                hub.record(MetricId::QueueDepth, i % 3, i);
                hub.journal(i * 10, EventKind::Arrival, i % 3);
            }
            hub.emit_snapshot(500);
            hub.export_json()
        };
        assert_eq!(run(), run());
    }
}
