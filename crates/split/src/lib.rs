//! Spatio-temporal split learning (Kim, Park, Jung & Yoo — DSN 2021).
//!
//! Multiple end-systems (hospitals, in the paper's motivation) each keep
//! the first `k` blocks of a CNN **private** together with their local
//! data; one centralized server owns the remaining layers and the loss and
//! trains a single shared upper model on everyone's smashed activations.
//! The framework is *spatially* separated (geo-distributed end-systems)
//! and *temporally* separated (the split forward/backward pipeline), hence
//! the name.
//!
//! The crate provides:
//!
//! * [`CnnArch`] / [`CutPoint`] — the paper's Fig. 3 CNN and the
//!   client/server split;
//! * [`EndSystem`] / [`CentralServer`] — the two protocol roles;
//! * [`SpatioTemporalTrainer`] — synchronous in-process training
//!   (reproduces Table I);
//! * [`AsyncSplitTrainer`] — the same protocol over a simulated
//!   geo-distributed network with an [`ArrivalQueue`] and pluggable
//!   [`SchedulingPolicy`] (the queueing machinery §II calls for);
//! * baselines: [`baselines::CentralizedTrainer`],
//!   [`baselines::vanilla_split`] (Fig. 1), [`baselines::FedAvgTrainer`].
//!
//! # Examples
//!
//! ```
//! use stsl_split::{SplitConfig, SpatioTemporalTrainer, CutPoint};
//! use stsl_data::SyntheticCifar;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let train = SyntheticCifar::new(0).generate_sized(80, 16);
//! let test = SyntheticCifar::new(1).generate_sized(20, 16);
//! // Two hospitals keep L1 private; the server owns the rest.
//! let cfg = SplitConfig::tiny(CutPoint(1), 2).epochs(1);
//! let mut trainer = SpatioTemporalTrainer::new(cfg, &train)?;
//! let report = trainer.train(&test);
//! assert_eq!(report.per_client_accuracy.len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod async_trainer;
pub mod baselines;
mod checkpoint;
mod client;
mod config;
mod fleet;
mod guard;
mod membership;
mod model;
pub mod protocol;
mod report;
mod resilience;
mod scheduler;
mod server;
mod trainer;
mod ushaped;
mod walltime;

pub use aggregate::{
    combine, outlier_flags, AggregateError, AggregationOutcome, AggregationPolicy,
    RobustAggregator, RobustApply,
};
pub use async_trainer::{AsyncSplitTrainer, ComputeModel};
pub use checkpoint::{Checkpoint, CheckpointRing, RingLoad};
pub use client::{EndSystem, ProtocolError};
pub use config::{DeadlineConfig, OptimizerKind, OverloadConfig, SplitConfig};
pub use fleet::{FleetConfig, FleetJob, FleetTrainer};
pub use guard::{
    tensor_rms, validate_update, Anomaly, GuardConfig, HealthWatchdog, QuarantineStatus,
    QuarantineTracker,
};
pub use membership::{Membership, MembershipError, MembershipState, QuorumLost};
pub use model::{CnnArch, CutPoint, PoolKind, LAYERS_PER_BLOCK};
pub use report::{AsyncReport, CommReport, EpochStats, FleetReport, TrainReport};
pub use resilience::{BreakerDecision, CircuitBreaker, RetryPolicy};
pub use scheduler::{ArrivalJob, ArrivalQueue, QueuedJob, SchedulingPolicy, TokenBucket};
pub use server::{CentralServer, ServerStepOutput};
pub use trainer::{ConfigError, SpatioTemporalTrainer};
pub use ushaped::UShapedTrainer;
pub use walltime::WallTimer;
