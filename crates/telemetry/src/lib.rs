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
//!   its stable journal labels and the counter-bank layout;
//! * [`MetricRegistry`] / [`Snapshot`] — per-metric, per-end-system
//!   histogram series keyed by `BTreeMap` (deterministic iteration) with
//!   snapshot emission;
//! * [`render_dashboard`] — a plain-text dashboard of one snapshot.
//!
//! The recorder that owns a registry, its snapshots and the bounded event
//! journal is `stsl_simnet::EventLog`: instrumentation sites call its
//! `record`, `observe` and `snapshot`, and the journal is a
//! `stsl_simnet::TraceLog`, the ring type of the event trace.
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
//! use stsl_telemetry::{render_dashboard, MetricId, MetricRegistry};
//!
//! let mut registry = MetricRegistry::new();
//! registry.record(MetricId::UplinkLatency, 0, 5_000);
//! registry.record(MetricId::UplinkLatency, 0, 7_000);
//! let snap = registry.snapshot(10_000, 0);
//! assert_eq!(snap.metrics.len(), MetricId::ALL.len());
//! assert!(render_dashboard(&snap).contains("uplink_latency_us"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dashboard;
mod event;
mod histogram;
mod registry;

pub use dashboard::render_dashboard;
pub use event::EventKind;
pub use histogram::{bucket_index, bucket_lower, Histogram, BUCKETS, SUB_BITS};
pub use registry::{ActorSeries, MetricId, MetricRegistry, MetricSnapshot, Snapshot};
