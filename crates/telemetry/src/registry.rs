//! Metric registry: per-metric, per-end-system histogram series and
//! snapshot emission.
//!
//! Every [`MetricId`] variant appears in [`MetricId::ALL`] at its
//! [`MetricId::index`] (a unit test checks the order), so
//! [`MetricRegistry::snapshot`] exports it even when empty, under the
//! label its exhaustive [`MetricId::as_str`] gives it. Every metric must
//! be sampled somewhere: `tests/async_golden.rs` checks that its golden
//! runs sample every metric but the fleet-only [`MetricId::CohortSize`],
//! which the fleet's unit test covers.

use std::collections::BTreeMap;

use crate::histogram::Histogram;

/// The registered metrics. Values are `u64` microseconds except
/// [`MetricId::QueueDepth`], which counts queued batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetricId {
    /// Activation-message delivery latency, end-system → server.
    UplinkLatency,
    /// Gradient-message delivery latency, server → end-system.
    DownlinkLatency,
    /// Arrival-queue depth sampled after each enqueue.
    QueueDepth,
    /// Age of a batch when the scheduler hands it to the server (staleness
    /// at apply time).
    GradientStaleness,
    /// Server batch service time.
    ServiceTime,
    /// Active + suspect member count, sampled at each membership
    /// transition (a count, not microseconds).
    MembershipSize,
    /// Cumulative batches shed by the bounded ingress queue, sampled at
    /// each telemetry snapshot (a count, not microseconds).
    ShedRate,
    /// Cumulative updates refused or flagged by the defense layer
    /// (ingress anomalies, quarantine drops and robust-aggregation
    /// outliers), sampled at each telemetry snapshot when robust
    /// aggregation is active (a count, not microseconds).
    RejectedUpdateRate,
    /// Per-window trim fraction of the robust aggregation policy, in
    /// permille of the window, recorded at each window apply (a ratio,
    /// not microseconds).
    TrimFraction,
    /// Live end-systems sharing one cohort model replica, sampled per
    /// cohort at each fleet snapshot (a count, not microseconds). Keyed
    /// by cohort id, not end-system id, so fleet snapshots stay O(cohorts).
    CohortSize,
}

impl MetricId {
    /// Number of registered metrics.
    pub const COUNT: usize = 10;

    /// Every registered metric, in declaration (and export) order, so
    /// `ALL[m.index()] == m`. `snapshot` iterates this array.
    pub const ALL: [MetricId; MetricId::COUNT] = [
        MetricId::UplinkLatency,
        MetricId::DownlinkLatency,
        MetricId::QueueDepth,
        MetricId::GradientStaleness,
        MetricId::ServiceTime,
        MetricId::MembershipSize,
        MetricId::ShedRate,
        MetricId::RejectedUpdateRate,
        MetricId::TrimFraction,
        MetricId::CohortSize,
    ];

    /// Position of this metric in [`MetricId::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case label used in snapshot export.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricId::UplinkLatency => "uplink_latency_us",
            MetricId::DownlinkLatency => "downlink_latency_us",
            MetricId::QueueDepth => "queue_depth",
            MetricId::GradientStaleness => "gradient_staleness_us",
            MetricId::ServiceTime => "service_time_us",
            MetricId::MembershipSize => "membership_size",
            MetricId::ShedRate => "shed_rate",
            MetricId::RejectedUpdateRate => "rejected_update_rate",
            MetricId::TrimFraction => "trim_fraction",
            MetricId::CohortSize => "cohort_size",
        }
    }
}

/// Quantile readout of one end-system's histogram at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActorSeries {
    /// End-system index (the server uses the index one past the clients).
    /// `u64` so fleet-scale ids are never truncated or aliased.
    pub actor: u64,
    /// Samples recorded.
    pub count: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

/// One metric's per-end-system series at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSnapshot {
    /// Which metric.
    pub metric: MetricId,
    /// Per-end-system readouts, ascending by actor (empty if the metric
    /// recorded nothing yet).
    pub series: Vec<ActorSeries>,
}

/// A point-in-time export of every registered metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Simulation time of emission, microseconds.
    pub at_us: u64,
    /// 0-based emission sequence number.
    pub seq: u64,
    /// One entry per [`MetricId::ALL`] element, in that order.
    pub metrics: Vec<MetricSnapshot>,
}

impl Snapshot {
    /// Render as deterministic compact JSON (fixed key order, no floats).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"at_us\":{},\"seq\":{},\"metrics\":[",
            self.at_us, self.seq
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"metric\":\"{}\",\"series\":[",
                m.metric.as_str()
            ));
            for (j, s) in m.series.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"actor\":{},\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
                    s.actor, s.count, s.p50, s.p90, s.p99, s.max
                ));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// Per-metric, per-end-system histogram store.
///
/// Both levels are `BTreeMap`s: iteration order (and therefore snapshot
/// and export byte order) is fully determined by the recorded keys, never
/// by insertion order or hashing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricRegistry {
    series: BTreeMap<MetricId, BTreeMap<u64, Histogram>>,
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample for `(metric, actor)`.
    pub fn record(&mut self, metric: MetricId, actor: u64, value: u64) {
        self.series
            .entry(metric)
            .or_default()
            .entry(actor)
            .or_default()
            .record(value);
    }

    /// The histogram for `(metric, actor)`, if anything was recorded.
    pub fn histogram(&self, metric: MetricId, actor: u64) -> Option<&Histogram> {
        self.series.get(&metric).and_then(|m| m.get(&actor))
    }

    /// Emit a snapshot of **every** metric in [`MetricId::ALL`] —
    /// registered-but-silent metrics appear with an empty series rather
    /// than disappearing.
    pub fn snapshot(&self, at_us: u64, seq: u64) -> Snapshot {
        let metrics = MetricId::ALL
            .iter()
            .map(|&metric| MetricSnapshot {
                metric,
                series: self
                    .series
                    .get(&metric)
                    .map(|actors| {
                        actors
                            .iter()
                            .map(|(&actor, h)| ActorSeries {
                                actor,
                                count: h.count(),
                                p50: h.p50(),
                                p90: h.p90(),
                                p99: h.p99(),
                                max: h.max().unwrap_or(0),
                            })
                            .collect()
                    })
                    .unwrap_or_default(),
            })
            .collect();
        Snapshot {
            at_us,
            seq,
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_in_index_order() {
        for (i, metric) in MetricId::ALL.iter().enumerate() {
            assert_eq!(metric.index(), i, "{metric:?}");
        }
    }

    #[test]
    fn snapshot_exports_every_registered_metric() {
        let reg = MetricRegistry::new();
        let snap = reg.snapshot(0, 0);
        assert_eq!(snap.metrics.len(), MetricId::ALL.len());
        for (m, id) in snap.metrics.iter().zip(MetricId::ALL) {
            assert_eq!(m.metric, id);
            assert!(m.series.is_empty());
        }
    }

    #[test]
    fn record_and_read_back() {
        let mut reg = MetricRegistry::new();
        reg.record(MetricId::UplinkLatency, 1, 5_000);
        reg.record(MetricId::UplinkLatency, 1, 9_000);
        reg.record(MetricId::UplinkLatency, 0, 100);
        let snap = reg.snapshot(42, 3);
        assert_eq!(snap.at_us, 42);
        assert_eq!(snap.seq, 3);
        let uplink = &snap.metrics[0];
        assert_eq!(uplink.metric, MetricId::UplinkLatency);
        assert_eq!(uplink.series.len(), 2);
        assert_eq!(uplink.series[0].actor, 0);
        assert_eq!(uplink.series[0].count, 1);
        assert_eq!(uplink.series[1].actor, 1);
        assert_eq!(uplink.series[1].count, 2);
        assert_eq!(uplink.series[1].max, 9_000);
    }

    #[test]
    fn snapshot_json_is_stable() {
        let mut reg = MetricRegistry::new();
        reg.record(MetricId::QueueDepth, 0, 2);
        let json = reg.snapshot(10, 0).to_json();
        assert!(json.starts_with("{\"at_us\":10,\"seq\":0,\"metrics\":["));
        assert!(json.contains(
            "{\"metric\":\"queue_depth\",\"series\":[{\"actor\":0,\"count\":1,\"p50\":2,\"p90\":2,\"p99\":2,\"max\":2}]}"
        ));
        // Every registered metric appears, even the silent ones.
        for id in MetricId::ALL {
            assert!(json.contains(id.as_str()), "{} missing", id.as_str());
        }
    }

    #[test]
    fn metric_labels_are_unique() {
        for (i, a) in MetricId::ALL.iter().enumerate() {
            for b in &MetricId::ALL[i + 1..] {
                assert_ne!(a.as_str(), b.as_str());
            }
        }
    }
}
