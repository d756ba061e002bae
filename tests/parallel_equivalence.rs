//! Bitwise serial/parallel equivalence — the contract of `stsl-parallel`.
//!
//! Every parallel kernel in the workspace partitions its output into
//! contiguous disjoint slices and keeps the per-element accumulation order
//! identical to the serial loop, so results must be **bitwise identical**
//! for any thread count. These tests pin that contract at every layer:
//! raw GEMM kernels, the conv2d forward/backward pipeline, one full
//! synchronous training epoch, and a four-end-system asynchronous epoch
//! including the scheduler's event order.
//!
//! Since the backend seam landed, the contract is **per backend**: the
//! scalar reference path and the cache-blocked path produce different
//! (ULP-bounded, see `kernel_conformance`) numbers from each other, but
//! *within* each backend results must not depend on the thread count —
//! blocked-kernel band and tile boundaries never change any element's
//! accumulation order. Every test therefore runs the full
//! {reference, blocked} × {1, 2, 4} threads matrix.
//!
//! Thread counts are forced with [`parallel::with_threads`], which takes
//! precedence over the `STSL_THREADS` environment variable, and backends
//! with [`tensor::with_backend`], so the suite proves the same thing no
//! matter what CI sets.

use spatio_temporal_split_learning::data::SyntheticCifar;
use spatio_temporal_split_learning::parallel;
use spatio_temporal_split_learning::simnet::StarTopology;
use spatio_temporal_split_learning::split::{
    AsyncSplitTrainer, ComputeModel, CutPoint, SchedulingPolicy, SpatioTemporalTrainer, SplitConfig,
};
use spatio_temporal_split_learning::tensor::init::rng_from_seed;
use spatio_temporal_split_learning::tensor::ops::conv::{
    conv2d_backward, conv2d_forward, ConvSpec, ConvWorkspace,
};
use spatio_temporal_split_learning::tensor::ops::matmul::{gemm, gemm_a_bt, gemm_at_b};
use spatio_temporal_split_learning::tensor::{with_backend, Backend, Tensor};

/// Both numeric backends; every test runs the full matrix against each.
const BACKENDS: [Backend; 2] = [Backend::Reference, Backend::Blocked];

/// Runs `f` once per thread count *under the given backend* and asserts
/// all results are bitwise equal to the single-threaded one.
fn assert_equal_across_threads_on<R: PartialEq + std::fmt::Debug>(
    backend: Backend,
    label: &str,
    mut f: impl FnMut() -> R,
) -> R {
    let serial = with_backend(backend, || parallel::with_threads(1, &mut f));
    for threads in [2, 4] {
        let parallel = with_backend(backend, || parallel::with_threads(threads, &mut f));
        assert_eq!(
            serial,
            parallel,
            "{label} [{}]: {threads}-thread result diverged from serial",
            backend.name()
        );
    }
    serial
}

/// Runs the {reference, blocked} × {1, 2, 4}-thread matrix and returns the
/// per-backend single-threaded results (which are *allowed* to differ
/// between backends — that difference is bounded by `kernel_conformance`).
fn assert_equal_across_threads<R: PartialEq + std::fmt::Debug>(
    label: &str,
    mut f: impl FnMut() -> R,
) -> R {
    let mut out = None;
    for backend in BACKENDS {
        out = Some(assert_equal_across_threads_on(backend, label, &mut f));
    }
    out.expect("at least one backend")
}

#[test]
fn gemm_kernels_bitwise_identical() {
    let (m, k, n) = (33, 29, 41);
    let mut rng = rng_from_seed(100);
    let a: Vec<f32> = Tensor::randn([m, k], &mut rng).as_slice().to_vec();
    let b: Vec<f32> = Tensor::randn([k, n], &mut rng).as_slice().to_vec();
    let at: Vec<f32> = Tensor::randn([k, m], &mut rng).as_slice().to_vec();
    let bt: Vec<f32> = Tensor::randn([n, k], &mut rng).as_slice().to_vec();

    assert_equal_across_threads("gemm", || gemm(&a, &b, m, k, n));
    assert_equal_across_threads("gemm_at_b", || gemm_at_b(&at, &b, m, k, n));
    assert_equal_across_threads("gemm_a_bt", || gemm_a_bt(&a, &bt, m, k, n));
}

#[test]
fn conv_pipeline_bitwise_identical() {
    let mut rng = rng_from_seed(101);
    let x = Tensor::randn([4, 3, 9, 9], &mut rng);
    let w = Tensor::randn([5, 3, 3, 3], &mut rng);
    let bias = Tensor::randn([5], &mut rng);
    let spec = ConvSpec::same(3);
    let dout = Tensor::randn([4, 5, 9, 9], &mut rng);

    assert_equal_across_threads("conv2d fwd+bwd", || {
        let mut ws = ConvWorkspace::new();
        let output = conv2d_forward(&x, &w, &bias, spec, true, &mut ws).unwrap();
        let cols = ws.cols().to_vec();
        let mut dweight = Tensor::zeros(w.shape().clone());
        let mut dbias = Tensor::zeros(bias.shape().clone());
        let dinput = conv2d_backward(&dout, &w, spec, &mut ws, &mut dweight, &mut dbias, true);
        (output, cols, dinput, dweight, dbias)
    });
}

#[test]
fn sync_training_step_bitwise_identical() {
    let train = SyntheticCifar::new(7)
        .difficulty(0.05)
        .generate_sized(64, 16);
    let test = SyntheticCifar::new(8)
        .difficulty(0.05)
        .generate_sized(16, 16);

    let (ckpt, loss, acc, eval) = assert_equal_across_threads("sync epoch", || {
        let cfg = SplitConfig::tiny(CutPoint(1), 2).epochs(1).seed(11);
        let mut t = SpatioTemporalTrainer::new(cfg, &train).unwrap();
        let (loss, acc) = t.run_epoch(0);
        let eval = t.evaluate(&test);
        let ckpt = t.checkpoint();
        (
            (ckpt.server_state, ckpt.client_states),
            loss.to_bits(),
            acc.to_bits(),
            eval.to_bits(),
        )
    });
    // Sanity: the run actually did something.
    assert!(!ckpt.0.is_empty());
    assert!(f32::from_bits(loss).is_finite());
    assert!(f32::from_bits(acc) >= 0.0);
    assert!(f32::from_bits(eval) >= 0.0);
}

#[test]
fn async_four_end_system_epoch_bitwise_identical() {
    let train = SyntheticCifar::new(9)
        .difficulty(0.05)
        .generate_sized(64, 16);
    let test = SyntheticCifar::new(10)
        .difficulty(0.05)
        .generate_sized(16, 16);

    let (csv, report_json) = assert_equal_across_threads("async epoch", || {
        let cfg = SplitConfig::tiny(CutPoint(1), 4)
            .epochs(1)
            .batch_size(8)
            .seed(13);
        // Heterogeneous latencies so arrival order interleaves non-trivially.
        let top = StarTopology::latency_gradient(4, 2.0, 40.0, 100.0);
        let mut t = AsyncSplitTrainer::new(
            cfg,
            &train,
            top,
            SchedulingPolicy::RoundRobin,
            ComputeModel::default(),
        )
        .unwrap();
        t.enable_trace();
        let report = t.run(&test);
        let csv = t.trace().expect("trace enabled").to_csv();
        (csv, serde_json::to_string(&report).unwrap())
    });

    // The trace must show all four end-systems reaching the server, and the
    // serialized report carries the exact final metrics — both were just
    // proven identical across thread counts, *including event order*.
    for client in 0..4 {
        assert!(
            csv.lines().any(|l| l.ends_with(&format!(",{client}"))),
            "end-system {client} missing from trace"
        );
    }
    assert!(report_json.contains("\"end_systems\":4"));
}
