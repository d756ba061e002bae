//! End-to-end integration of the full stack: data → partition → split
//! training → evaluation → reports, across trainer variants.

use spatio_temporal_split_learning::data::{Partition, SyntheticCifar};
use spatio_temporal_split_learning::split::{
    baselines::{vanilla_split, CentralizedTrainer, FedAvgTrainer},
    CnnArch, CutPoint, SpatioTemporalTrainer, SplitConfig,
};

fn train_data(n: usize) -> spatio_temporal_split_learning::data::ImageDataset {
    SyntheticCifar::new(100)
        .difficulty(0.08)
        .generate_sized(n, 16)
}

fn test_data(n: usize) -> spatio_temporal_split_learning::data::ImageDataset {
    SyntheticCifar::new(200)
        .difficulty(0.08)
        .generate_sized(n, 16)
}

#[test]
fn every_cut_depth_trains_without_error() {
    let train = train_data(80);
    let test = test_data(20);
    for cut in 0..=3 {
        let cfg = SplitConfig::tiny(CutPoint(cut), 2)
            .epochs(1)
            .seed(cut as u64);
        let mut t = SpatioTemporalTrainer::new(cfg, &train).expect("valid config");
        let report = t.train(&test);
        assert_eq!(report.cut_blocks, cut);
        assert_eq!(report.epochs.len(), 1);
        assert!(report.final_accuracy >= 0.0 && report.final_accuracy <= 1.0);
        assert!(report.comm.uplink_messages > 0);
    }
}

#[test]
fn all_partition_schemes_work_end_to_end() {
    let train = train_data(120);
    let test = test_data(20);
    for partition in [
        Partition::Iid,
        Partition::Dirichlet { alpha: 0.5 },
        Partition::Shards {
            shards_per_client: 2,
        },
    ] {
        let cfg = SplitConfig::tiny(CutPoint(1), 3)
            .epochs(1)
            .partition(partition)
            .seed(8);
        let mut t = SpatioTemporalTrainer::new(cfg, &train).expect("valid config");
        let report = t.train(&test);
        assert_eq!(report.per_client_accuracy.len(), 3);
    }
}

#[test]
fn augmentation_path_trains() {
    let train = train_data(60);
    let test = test_data(20);
    let cfg = SplitConfig::tiny(CutPoint(1), 2)
        .epochs(1)
        .augment(true)
        .seed(3);
    let mut t = SpatioTemporalTrainer::new(cfg, &train).expect("valid config");
    let report = t.train(&test);
    assert!(report.epochs[0].train_loss.is_finite());
}

#[test]
fn adam_optimizer_path_trains() {
    use spatio_temporal_split_learning::split::OptimizerKind;
    let train = train_data(60);
    let test = test_data(20);
    let cfg = SplitConfig::tiny(CutPoint(1), 2)
        .epochs(1)
        .optimizer(OptimizerKind::Adam)
        .learning_rate(0.001)
        .seed(4);
    let mut t = SpatioTemporalTrainer::new(cfg, &train).expect("valid config");
    let report = t.train(&test);
    assert!(report.epochs[0].train_loss.is_finite());
}

#[test]
fn vanilla_split_equals_spatio_temporal_with_one_client() {
    let train = train_data(60);
    let test = test_data(20);
    let cfg = SplitConfig::tiny(CutPoint(2), 5).epochs(1).seed(12);
    let mut a = vanilla_split(cfg.clone(), &train).expect("valid config");
    let mut cfg_one = cfg;
    cfg_one.end_systems = 1;
    let mut b = SpatioTemporalTrainer::new(cfg_one, &train).expect("valid config");
    let ra = a.train(&test);
    let rb = b.train(&test);
    assert_eq!(ra.final_accuracy, rb.final_accuracy);
    assert_eq!(ra.comm, rb.comm);
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let train = train_data(90);
        let test = test_data(30);
        let cfg = SplitConfig::tiny(CutPoint(1), 3).epochs(2).seed(77);
        let mut t = SpatioTemporalTrainer::new(cfg, &train).expect("valid config");
        let r = t.train(&test);
        (
            r.final_accuracy,
            r.epochs.iter().map(|e| e.train_loss).collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn baselines_run_on_the_same_data() {
    let train = train_data(80);
    let test = test_data(20);
    let cfg = SplitConfig::tiny(CutPoint(0), 2).epochs(1).seed(5);
    let mut central = CentralizedTrainer::new(cfg.clone()).expect("valid config");
    let rc = central.train(&train, &test);
    assert_eq!(rc.end_systems, 1);
    let mut fed = FedAvgTrainer::new(cfg, &train, 1).expect("valid config");
    let rf = fed.train(1, &test);
    assert!(
        rf.comm.total_bytes() > 0,
        "fedavg must pay model-transfer bytes"
    );
    assert_eq!(
        rc.comm.total_bytes(),
        0,
        "centralized pays no training-loop bytes"
    );
}

#[test]
fn partition_respects_client_count_in_trainer() {
    let train = train_data(100);
    let shards = Partition::Iid.split(&train, 5, 0);
    let total: usize = shards.iter().map(|s| s.len()).sum();
    assert_eq!(total, train.len());
    let cfg = SplitConfig::tiny(CutPoint(1), 5).epochs(1);
    let mut t = SpatioTemporalTrainer::new(cfg, &train).expect("valid config");
    t.run_epoch(0);
    assert_eq!(t.server_mut().served_per_client().len(), 5);
    assert!(t.server_mut().served_per_client().iter().all(|&c| c > 0));
}

#[test]
fn paper_arch_one_batch_smoke() {
    // One real-sized batch through the full Fig. 3 CNN at cut 1.
    let train = SyntheticCifar::new(50)
        .difficulty(0.1)
        .generate_sized(32, 32);
    let cfg = SplitConfig::new(CutPoint(1), 1)
        .arch(CnnArch::paper())
        .epochs(1)
        .batch_size(32);
    let mut t = SpatioTemporalTrainer::new(cfg, &train).expect("valid config");
    let (loss, _) = t.run_epoch(0);
    assert!(loss.is_finite() && loss > 0.0);
}
