//! Comparing arrival-queue scheduling policies under latency skew.
//!
//! §II of the paper: far-away end-systems arrive "lately or sparsely" and
//! can bias learning, so "parameter scheduling is required". Four
//! end-systems sit 1–40 ms from a saturated server: under a fixed
//! simulated-time budget FIFO serves near sites proportionally more,
//! round-robin rebalances toward the starved far sites, and
//! staleness-drop bounds how old a served batch can be.
//!
//! ```text
//! cargo run --release --example scheduling_policies
//! ```

use stsl_data::SyntheticCifar;
use stsl_simnet::{SimDuration, StarTopology};
use stsl_split::{
    AsyncSplitTrainer, CnnArch, ComputeModel, CutPoint, RetryPolicy, SchedulingPolicy, SplitConfig,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let train = SyntheticCifar::new(20)
        .difficulty(0.1)
        .generate_sized(320, 16);
    let test = SyntheticCifar::new(21)
        .difficulty(0.1)
        .generate_sized(80, 16);

    // Four end-systems spread from 1 ms to 40 ms, and a server slow enough
    // to be the bottleneck — the regime where a queue forms and the
    // scheduling policy actually gets to choose between waiting batches.
    let topology = StarTopology::latency_gradient(4, 1.0, 40.0, 100.0);
    let compute = ComputeModel {
        client_batch: SimDuration::from_millis(4),
        server_batch: SimDuration::from_millis(12),
    };

    let policies = [
        SchedulingPolicy::Fifo,
        SchedulingPolicy::RoundRobin,
        SchedulingPolicy::StalenessDrop {
            max_age: SimDuration::from_millis(120),
        },
    ];
    println!(
        "{:<24} {:>22} {:>10} {:>7} {:>9}",
        "policy", "served per site", "imbalance", "drops", "accuracy"
    );
    for policy in policies {
        // Many epochs under a fixed 5-second simulated budget: per-client
        // service counts then reflect service *rates*, which is where the
        // policies differ (run-to-completion serves everything eventually).
        let config = SplitConfig::new(CutPoint(1), 4)
            .arch(CnnArch::tiny())
            .epochs(1_000)
            .batch_size(16)
            .seed(9);
        let mut trainer =
            AsyncSplitTrainer::new(config, &train, topology.clone(), policy, compute)?
                .with_retry_policy(RetryPolicy::from_timeout(SimDuration::from_millis(400)));
        let r = trainer.run_with_budget(&test, Some(SimDuration::from_millis(5_000)));
        let served = r
            .served_per_client
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join("/");
        println!(
            "{:<24} {:>22} {:>10.3} {:>7} {:>8.1}%",
            r.policy,
            served,
            r.service_imbalance,
            r.scheduler_drops,
            r.final_accuracy * 100.0
        );
    }
    println!("\nsee `cargo run -p stsl-bench --release --bin queue_sweep` for the full E4 sweep");
    Ok(())
}
