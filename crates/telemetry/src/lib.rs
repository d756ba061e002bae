//! Deterministic observability for spatio-temporal split learning.
//!
//! The paper's argument is statistical: geo-distributed end-systems with
//! heterogeneous link latencies bias training unless the server queues and
//! schedules arrivals. Scalar counters cannot show that bias — it lives in
//! the *distributions* of per-end-system latency, queue depth and gradient
//! staleness. This crate is the measurement layer:
//!
//! * [`Histogram`] — a log-linear HDR-style histogram with a fixed bucket
//!   layout, exact (associative, commutative, bitwise-deterministic) merge
//!   and p50/p90/p99/max readouts;
//! * [`EventKind`] — the one event vocabulary every trainer records, with
//!   its stable JSONL labels and the counter-bank layout;
//! * [`EventJournal`] — a typed, bounded ring buffer of sim-time-stamped
//!   events with JSONL export;
//! * [`MetricRegistry`] / [`Snapshot`] — per-metric, per-end-system
//!   histogram series keyed by `BTreeMap` (deterministic iteration) with
//!   periodic snapshot emission;
//! * [`TelemetryHub`] — the single handle instrumentation sites talk to;
//! * [`render_dashboard`] — a plain-text dashboard of the latest snapshot.
//!
//! # Determinism rules
//!
//! Everything in this crate is pure data-structure code: no clocks, no
//! threads, no randomness, no floating-point accumulation in merge paths.
//! Timestamps come *in* from the simulation (`at_us`), never from the host.
//! Exports are hand-rendered JSON with a fixed key order, so two runs that
//! record the same events produce byte-identical output regardless of
//! `STSL_THREADS`.
//!
//! # Examples
//!
//! ```
//! use stsl_telemetry::{EventKind, MetricId, TelemetryHub};
//!
//! let mut hub = TelemetryHub::new(64);
//! hub.record(MetricId::UplinkLatency, 0, 5_000);
//! hub.record(MetricId::UplinkLatency, 0, 7_000);
//! hub.journal(1_000, EventKind::Arrival, 0);
//! let seq = hub.emit_snapshot(10_000);
//! assert_eq!(seq, 0);
//! let snap = hub.latest_snapshot().unwrap();
//! assert_eq!(snap.metrics.len(), MetricId::ALL.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dashboard;
mod event;
mod histogram;
mod hub;
mod journal;
mod registry;

pub use dashboard::render_dashboard;
pub use event::EventKind;
pub use histogram::{bucket_index, bucket_lower, Histogram, BUCKETS, SUB_BITS};
pub use hub::TelemetryHub;
pub use journal::{EventJournal, JournalEvent};
pub use registry::{ActorSeries, MetricId, MetricRegistry, MetricSnapshot, Snapshot};
