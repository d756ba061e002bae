//! Fixture: a registry declaring every metric, shaped like the real
//! `crates/telemetry/src/registry.rs`. Never compiled.

pub enum MetricId {
    UplinkLatency,
    DownlinkLatency,
    QueueDepth,
    GradientStaleness,
    ServiceTime,
    MembershipSize,
    ShedRate,
    RejectedUpdateRate,
    TrimFraction,
    CohortSize,
}

impl MetricId {
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
