//! Umbrella crate for the *Spatio-Temporal Split Learning* (DSN 2021)
//! reproduction: re-exports every subsystem under one roof so downstream
//! users can depend on a single crate.
//!
//! * [`tensor`] — dense f32 tensors and numeric kernels
//! * [`nn`] — layers, losses, optimizers, [`nn::Sequential`]
//! * [`data`] — CIFAR-10 reader, synthetic generator, partitioning
//! * [`parallel`] — deterministic scoped thread pool (`STSL_THREADS`)
//! * [`simnet`] — deterministic discrete-event network simulator, and
//!   the one event recorder (`EventLog`) that owns the trace and the
//!   telemetry
//! * [`split`] — the paper's contribution: multi-end-system split
//!   learning with a centralized server, schedulers and baselines
//! * [`privacy`] — Fig. 4 visualization, inversion attacks, leakage
//!   metrics
//! * [`telemetry`] — deterministic observability: the event vocabulary,
//!   histograms, the metric registry with snapshot export and the
//!   plain-text dashboard
//!
//! See `examples/quickstart.rs` for a complete training run and
//! DESIGN.md for the experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use stsl_data as data;
pub use stsl_nn as nn;
pub use stsl_parallel as parallel;
pub use stsl_privacy as privacy;
pub use stsl_simnet as simnet;
pub use stsl_split as split;
pub use stsl_telemetry as telemetry;
pub use stsl_tensor as tensor;

#[cfg(test)]
mod tests {
    //! Smoke tests for the re-exported facade: every path a downstream
    //! user would import must resolve and do something sensible.

    use super::*;

    #[test]
    fn tensor_and_nn_paths_compose() {
        use nn::{Layer, Mode};
        let x = tensor::Tensor::from_vec(vec![1.0, -2.0, 3.0, -4.0], [2, 2]);
        let mut relu = nn::layers::Relu::new();
        let y = relu.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), &[1.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn split_config_builds_through_facade() {
        let cfg = split::SplitConfig::tiny(split::CutPoint(1), 2);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.end_systems, 2);
    }

    #[test]
    fn data_generator_reachable() {
        let set = data::SyntheticCifar::new(1).generate_sized(8, 16);
        assert_eq!(set.len(), 8);
    }

    #[test]
    fn parallel_threading_controls_reachable() {
        assert!(parallel::max_threads() >= 1);
        let doubled = parallel::with_threads(2, || {
            parallel::par_map_indexed(4, parallel::ChunkPolicy::min_chunk(1), |i| i * 2)
        });
        assert_eq!(doubled, vec![0, 2, 4, 6]);
    }

    #[test]
    fn simnet_clock_reachable() {
        let t = simnet::SimTime::ZERO;
        assert_eq!(t.as_secs_f64(), 0.0);
    }

    #[test]
    fn telemetry_hub_reachable() {
        let mut log = simnet::EventLog::new();
        log.enable_telemetry(8);
        let actor = simnet::EndSystemId(0);
        log.observe(telemetry::MetricId::UplinkLatency, actor, 1_500);
        log.record(
            simnet::SimTime::from_micros(10),
            telemetry::EventKind::Arrival,
            actor,
        );
        log.snapshot(simnet::SimTime::from_micros(20), actor);
        let recorded = log.telemetry().expect("telemetry enabled");
        assert_eq!(recorded.journal().len(), 2);
        let snap = recorded.latest_snapshot().expect("snapshot emitted");
        assert_eq!(snap.seq, 0);
        assert!(telemetry::render_dashboard(snap).contains("uplink_latency_us"));
    }
}
