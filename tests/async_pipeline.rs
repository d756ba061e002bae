//! Integration of the async (network-simulated) trainer with the rest of
//! the stack, and its agreement with the synchronous trainer where they
//! must agree.

use spatio_temporal_split_learning::data::SyntheticCifar;
use spatio_temporal_split_learning::simnet::{Link, SimDuration, StarTopology};
use spatio_temporal_split_learning::split::{
    AsyncSplitTrainer, ComputeModel, CutPoint, RetryPolicy, SchedulingPolicy,
    SpatioTemporalTrainer, SplitConfig,
};

fn data(n: usize, seed: u64) -> spatio_temporal_split_learning::data::ImageDataset {
    SyntheticCifar::new(seed)
        .difficulty(0.08)
        .generate_sized(n, 16)
}

#[test]
fn async_serves_same_batch_count_as_sync() {
    let train = data(96, 1);
    let test = data(24, 2);
    let cfg = || {
        SplitConfig::tiny(CutPoint(1), 3)
            .epochs(2)
            .batch_size(16)
            .seed(10)
    };
    let mut sync = SpatioTemporalTrainer::new(cfg(), &train).expect("valid config");
    sync.train(&test);
    let sync_steps = sync.server_mut().steps();

    let topology = StarTopology::uniform(3, Link::wan(10.0, 100.0));
    let mut asynct = AsyncSplitTrainer::new(
        cfg(),
        &train,
        topology,
        SchedulingPolicy::Fifo,
        ComputeModel::default(),
    )
    .expect("valid config");
    let report = asynct.run(&test);
    let async_steps: u64 = report.served_per_client.iter().sum();
    assert_eq!(
        async_steps, sync_steps,
        "both trainers must process every batch exactly once"
    );
    assert_eq!(report.scheduler_drops, 0);
    assert_eq!(report.network_drops, 0);
}

#[test]
fn fifo_starves_far_clients_less_than_never_but_round_robin_is_fairer() {
    // One near + three far clients, slow server: FIFO lets the near client
    // inject more batches per unit time and get served disproportionately
    // while round-robin equalizes — §II's "biased learning" in miniature.
    let train = data(192, 3);
    let test = data(24, 4);
    let topology = StarTopology::new(vec![
        Link::wan(1.0, 100.0),
        Link::wan(120.0, 100.0),
        Link::wan(120.0, 100.0),
        Link::wan(120.0, 100.0),
    ]);
    let compute = ComputeModel {
        client_batch: SimDuration::from_millis(2),
        server_batch: SimDuration::from_millis(8),
    };
    let run = |policy| {
        let cfg = SplitConfig::tiny(CutPoint(1), 4)
            .epochs(2)
            .batch_size(16)
            .seed(6);
        let mut t = AsyncSplitTrainer::new(cfg, &train, topology.clone(), policy, compute)
            .expect("valid config")
            .with_retry_policy(RetryPolicy::from_timeout(SimDuration::from_millis(400)));
        t.run(&test)
    };
    let fifo = run(SchedulingPolicy::Fifo);
    let rr = run(SchedulingPolicy::RoundRobin);
    assert!(
        rr.service_imbalance <= fifo.service_imbalance + 1e-9,
        "round-robin ({:.4}) must not be less fair than fifo ({:.4})",
        rr.service_imbalance,
        fifo.service_imbalance
    );
    // Everyone eventually completes the same number of batches overall
    // (the protocol is closed-loop), so totals match.
    assert_eq!(
        fifo.served_per_client.iter().sum::<u64>(),
        rr.served_per_client.iter().sum::<u64>()
    );
}

#[test]
fn staleness_drop_bounds_queue_wait() {
    let train = data(128, 5);
    let test = data(16, 6);
    let topology = StarTopology::uniform(4, Link::wan(2.0, 100.0));
    // Server much slower than clients: a queue must form.
    let compute = ComputeModel {
        client_batch: SimDuration::from_millis(1),
        server_batch: SimDuration::from_millis(50),
    };
    let max_age = SimDuration::from_millis(60);
    let cfg = SplitConfig::tiny(CutPoint(1), 4)
        .epochs(1)
        .batch_size(16)
        .seed(2);
    let mut t = AsyncSplitTrainer::new(
        cfg,
        &train,
        topology,
        SchedulingPolicy::StalenessDrop { max_age },
        compute,
    )
    .expect("valid config")
    .with_retry_policy(RetryPolicy::from_timeout(SimDuration::from_millis(100)));
    let report = t.run(&test);
    assert!(
        report.mean_queue_wait_ms <= max_age.as_millis() as f64 + 1.0,
        "served batches waited {:.1} ms on average, above the {} ms staleness bound",
        report.mean_queue_wait_ms,
        max_age.as_millis()
    );
}

#[test]
fn ideal_network_has_near_zero_sim_overhead() {
    let train = data(48, 7);
    let test = data(16, 8);
    let topology = StarTopology::uniform(1, Link::ideal());
    let compute = ComputeModel {
        client_batch: SimDuration::from_micros(1),
        server_batch: SimDuration::from_micros(1),
    };
    let cfg = SplitConfig::tiny(CutPoint(1), 1)
        .epochs(1)
        .batch_size(16)
        .seed(0);
    let mut t = AsyncSplitTrainer::new(cfg, &train, topology, SchedulingPolicy::Fifo, compute)
        .expect("valid config")
        .with_retry_policy(RetryPolicy::from_timeout(SimDuration::from_millis(1)));
    let report = t.run(&test);
    assert!(
        report.sim_seconds < 0.01,
        "sim time {} too large for an ideal network",
        report.sim_seconds
    );
    assert_eq!(
        report.mean_queue_depth, 1.0,
        "single client: queue depth is always exactly 1 at arrival"
    );
}
