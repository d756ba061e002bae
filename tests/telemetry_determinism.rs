//! Telemetry determinism contract: histogram merge laws under randomized
//! inputs, and bitwise-identical telemetry exports (snapshots, journal,
//! dashboard) for any thread count.
//!
//! Thread counts are forced with [`parallel::with_threads`], which takes
//! precedence over `STSL_THREADS`, so the suite proves the same thing no
//! matter what CI sets the variable to.

use proptest::prelude::*;
use spatio_temporal_split_learning::data::SyntheticCifar;
use spatio_temporal_split_learning::parallel;
use spatio_temporal_split_learning::simnet::{Link, SimDuration, StarTopology};
use spatio_temporal_split_learning::split::{
    AsyncSplitTrainer, ComputeModel, CutPoint, SchedulingPolicy, SplitConfig,
};
use spatio_temporal_split_learning::telemetry::{render_dashboard, Histogram};

fn hist_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Merging histograms is associative: (a ∪ b) ∪ c == a ∪ (b ∪ c).
    #[test]
    fn histogram_merge_is_associative(
        a in prop::collection::vec(0u64..1_000_000, 0..40),
        b in prop::collection::vec(0u64..1_000_000, 0..40),
        c in prop::collection::vec(0u64..1_000_000, 0..40),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// Merging histograms is commutative: a ∪ b == b ∪ a.
    #[test]
    fn histogram_merge_is_commutative(
        a in prop::collection::vec(0u64..1_000_000, 0..60),
        b in prop::collection::vec(0u64..1_000_000, 0..60),
    ) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    /// Merging equals recording everything into one histogram, so sharded
    /// collection can never drift from centralized collection.
    #[test]
    fn histogram_merge_matches_union(
        a in prop::collection::vec(0u64..1_000_000, 0..60),
        b in prop::collection::vec(0u64..1_000_000, 0..60),
    ) {
        let mut merged = hist_of(&a);
        merged.merge(&hist_of(&b));
        let mut both: Vec<u64> = a.clone();
        both.extend_from_slice(&b);
        prop_assert_eq!(merged, hist_of(&both));
    }
}

/// A full asynchronous run with telemetry on exports bitwise identical
/// snapshots, journal and dashboard at 1, 2 and 4 threads.
#[test]
fn telemetry_export_bitwise_identical_across_threads() {
    let run = || {
        let train = SyntheticCifar::new(5)
            .difficulty(0.1)
            .generate_sized(48, 16);
        let test = SyntheticCifar::new(6)
            .difficulty(0.1)
            .generate_sized(16, 16);
        let cfg = SplitConfig::tiny(CutPoint(1), 3)
            .epochs(2)
            .batch_size(8)
            .seed(11);
        let top = StarTopology::new(vec![
            Link::wan(5.0, 100.0),
            Link::wan(40.0, 100.0),
            Link::wan(90.0, 100.0),
        ]);
        let mut t = AsyncSplitTrainer::new(
            cfg,
            &train,
            top,
            SchedulingPolicy::Fifo,
            ComputeModel::default(),
        )
        .unwrap()
        .with_telemetry(SimDuration::from_millis(100), 512);
        let report = t.run(&test);
        let telemetry = t.telemetry().expect("telemetry enabled");
        let dashboard = telemetry
            .latest_snapshot()
            .map(render_dashboard)
            .unwrap_or_default();
        (
            telemetry.export_json(),
            dashboard,
            report.snapshots_emitted,
            report.journal_dropped,
        )
    };
    let serial = parallel::with_threads(1, run);
    for threads in [2, 4] {
        let par = parallel::with_threads(threads, run);
        assert_eq!(
            serial, par,
            "telemetry export diverged at {threads} threads"
        );
    }
    assert!(serial.2 > 0, "the run should have emitted snapshots");
    assert!(serial.0.contains("gradient_staleness_us"));
}
