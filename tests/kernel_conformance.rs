//! Kernel conformance: the blocked backend vs the scalar reference oracle.
//!
//! `stsl-tensor` ships two numeric backends behind [`Backend`]: the scalar
//! **reference** path (the historical kernels, unchanged summation order)
//! and the cache-**blocked** packed path. This suite proves, over
//! proptest-randomized shapes — odd, tall, skinny, unit dims and `k = 0` —
//! that the blocked backend is numerically conformant:
//!
//! * **Exact equality** wherever the blocked path preserves the reference
//!   accumulation order or the op is order-insensitive: `sum_axis`, `mean`,
//!   `max` / `min` / `argmax`, the softmax row maxima, and `k = 0` GEMM.
//! * **Asserted forward-error bounds** wherever blocking reorders
//!   accumulation. The bounds are *computed*, not hand-waved: each test
//!   derives the classic summation-error envelope and asserts the observed
//!   difference stays inside it element by element.
//!
//! ## The GEMM bound
//!
//! For one output element, both backends sum the same `k` products (plus
//! `alpha` scaling and the `c0` accumulate) in some order. Rounding each
//! partial sum of magnitude ≤ S = |alpha|·Σ|a_ik·b_kj| + |c0| loses at most
//! `eps·S`, and an order needs at most `k + 2` partials, so either backend
//! sits within `(k + 2)·eps·S` of the exact value and the two differ by at
//! most **`2·(k + 2)·eps·S`**. `S` itself is computed with the reference
//! GEMM on |A|, |B|; a 2× margin absorbs the rounding of `S`.
//!
//! ## The softmax bounds
//!
//! Both backends subtract the *bitwise identical* row max and call the same
//! `exp`; only the denominator sum (and, for `log_softmax`, the `ln` of it)
//! reorders. A `c`-term sum of positives in (0, 1] carries relative error
//! ≤ `c·eps` per backend, so softmax outputs (ref · denominator error)
//! differ by ≤ `4·c·eps·|ref|` and `log_softmax` (through `ln`, which turns
//! relative error of the argument into absolute error) by
//! ≤ `8·c·eps·max(1, |ref|)` — both with a tiny absolute floor for
//! subnormal outputs.

use proptest::prelude::*;
use spatio_temporal_split_learning::tensor::init::rng_from_seed;
use spatio_temporal_split_learning::tensor::ops::matmul::{gemm, gemm_a_bt, gemm_at_b, gemm_into};
use spatio_temporal_split_learning::tensor::{with_backend, Backend, Tensor};

const EPS: f32 = f32::EPSILON;
/// Absolute floor so bounds stay meaningful when the reference value
/// underflows to subnormals or exact zero.
const FLOOR: f32 = 1e-30;

fn reference<R>(f: impl FnOnce() -> R) -> R {
    with_backend(Backend::Reference, f)
}

fn blocked<R>(f: impl FnOnce() -> R) -> R {
    with_backend(Backend::Blocked, f)
}

/// Asserts `|got - want| ≤ bound(i)` element-wise, reporting the worst
/// offender with its index and bound on failure.
fn assert_within(
    label: &str,
    got: &[f32],
    want: &[f32],
    bound: impl Fn(usize) -> f32,
) -> Result<(), TestCaseError> {
    prop_assert!(got.len() == want.len(), "{}: length mismatch", label);
    for i in 0..got.len() {
        let diff = (got[i] - want[i]).abs();
        let b = bound(i);
        prop_assert!(
            diff <= b,
            "{}: element {} diverged: got {}, want {}, |diff| {} > bound {}",
            label,
            i,
            got[i],
            want[i],
            diff,
            b
        );
    }
    Ok(())
}

/// Forward-error envelope for one GEMM element (see module docs):
/// `2 (k + 2) eps (|alpha| absdot + |c0|)`.
fn gemm_bound(k: usize, alpha: f32, absdot: f32, c0: f32) -> f32 {
    2.0 * (k as f32 + 2.0) * EPS * (alpha.abs() * absdot + c0.abs()) + FLOOR
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Blocked GEMM (`C += alpha·A·B`) stays inside the summation-error
    /// envelope of the reference kernel on random shapes, including unit
    /// dims and `k = 0`.
    #[test]
    fn gemm_blocked_within_forward_error_of_reference(
        m in 1usize..48, k in 0usize..80, n in 1usize..48,
        alpha in -2.0f32..2.0, seed in 0u64..1_000
    ) {
        let mut rng = rng_from_seed(seed);
        let a = Tensor::randn([m, k.max(1)], &mut rng).as_slice()[..m * k].to_vec();
        let b = Tensor::randn([k.max(1), n], &mut rng).as_slice()[..k * n].to_vec();
        let c0 = Tensor::randn([m, n], &mut rng).as_slice().to_vec();

        let mut want = c0.clone();
        reference(|| gemm_into(&a, &b, &mut want, m, k, n, alpha));
        let mut got = c0.clone();
        blocked(|| gemm_into(&a, &b, &mut got, m, k, n, alpha));

        let abs_a: Vec<f32> = a.iter().map(|x| x.abs()).collect();
        let abs_b: Vec<f32> = b.iter().map(|x| x.abs()).collect();
        let absdot = reference(|| gemm(&abs_a, &abs_b, m, k, n));
        assert_within("gemm_into", &got, &want, |i| {
            gemm_bound(k, alpha, absdot[i], c0[i])
        })?;

        if k == 0 {
            // No terms to reorder: both backends must leave C bitwise at c0
            // (alpha · empty sum adds exactly nothing).
            prop_assert!(got == c0, "k = 0 must not touch C");
            prop_assert!(want == c0, "k = 0 must not touch C (reference)");
        }
    }

    /// The transposed entry points (`AᵀB`, `ABᵀ`) obey the same envelope —
    /// they share the microkernel, only the packing differs.
    #[test]
    fn transposed_gemm_variants_within_forward_error(
        m in 1usize..40, k in 1usize..64, n in 1usize..40, seed in 0u64..1_000
    ) {
        let mut rng = rng_from_seed(seed ^ 0x5a5a);
        let at = Tensor::randn([k, m], &mut rng).as_slice().to_vec();
        let b = Tensor::randn([k, n], &mut rng).as_slice().to_vec();
        let a = Tensor::randn([m, k], &mut rng).as_slice().to_vec();
        let bt = Tensor::randn([n, k], &mut rng).as_slice().to_vec();

        let abs = |v: &[f32]| v.iter().map(|x| x.abs()).collect::<Vec<f32>>();

        let want = reference(|| gemm_at_b(&at, &b, m, k, n));
        let got = blocked(|| gemm_at_b(&at, &b, m, k, n));
        let absdot = reference(|| gemm_at_b(&abs(&at), &abs(&b), m, k, n));
        assert_within("gemm_at_b", &got, &want, |i| gemm_bound(k, 1.0, absdot[i], 0.0))?;

        let want = reference(|| gemm_a_bt(&a, &bt, m, k, n));
        let got = blocked(|| gemm_a_bt(&a, &bt, m, k, n));
        let absdot = reference(|| gemm_a_bt(&abs(&a), &abs(&bt), m, k, n));
        assert_within("gemm_a_bt", &got, &want, |i| gemm_bound(k, 1.0, absdot[i], 0.0))?;
    }

    /// Softmax / log-softmax rows: max subtraction and `exp` are shared, so
    /// only the denominator reorders — outputs stay inside the `c·eps`
    /// relative envelope derived in the module docs.
    #[test]
    fn softmax_family_within_denominator_error(
        r in 1usize..24, c in 1usize..96, seed in 0u64..1_000, scale in 0.5f32..8.0
    ) {
        let mut rng = rng_from_seed(seed ^ 0xf00d);
        let mut x = Tensor::randn([r, c], &mut rng);
        x.scale_inplace(scale);

        let want = reference(|| x.softmax_rows());
        let got = blocked(|| x.softmax_rows());
        assert_within("softmax_rows", got.as_slice(), want.as_slice(), |i| {
            4.0 * c as f32 * EPS * want.as_slice()[i].abs() + FLOOR
        })?;
        // Each blocked row still sums to 1 within its own envelope.
        for row in 0..r {
            let s: f32 = got.as_slice()[row * c..(row + 1) * c].iter().sum();
            prop_assert!(
                (s - 1.0).abs() <= 2.0 * c as f32 * EPS + FLOOR,
                "softmax row {} sums to {}",
                row,
                s
            );
        }

        let want = reference(|| x.log_softmax_rows());
        let got = blocked(|| x.log_softmax_rows());
        assert_within("log_softmax_rows", got.as_slice(), want.as_slice(), |i| {
            8.0 * c as f32 * EPS * want.as_slice()[i].abs().max(1.0)
        })?;
    }

    /// `Tensor::sum` reorders into fixed lanes/blocks on the blocked
    /// backend; the result stays inside the flat-sum error envelope.
    #[test]
    fn sum_within_forward_error(len in 0usize..10_000, seed in 0u64..1_000) {
        let mut rng = rng_from_seed(seed ^ 0xbeef);
        let x = Tensor::randn([len.max(1)], &mut rng);
        let x = Tensor::from_vec(x.as_slice()[..len].to_vec(), [len]);

        let want = reference(|| x.sum());
        let got = blocked(|| x.sum());
        let abs_sum: f32 = x.as_slice().iter().map(|v| v.abs()).sum();
        let bound = 2.0 * (len as f32 + 2.0) * EPS * abs_sum + FLOOR;
        prop_assert!(
            (got - want).abs() <= bound,
            "sum diverged: blocked {}, reference {}, bound {}",
            got,
            want,
            bound
        );
    }

    /// Order-insensitive ops share one code path: results must be
    /// **bitwise identical** across backends, not merely close.
    #[test]
    fn order_insensitive_ops_bitwise_equal_across_backends(
        r in 1usize..16, c in 1usize..32, seed in 0u64..1_000
    ) {
        let mut rng = rng_from_seed(seed ^ 0xcafe);
        let x = Tensor::randn([r, c], &mut rng);

        let want = reference(|| {
            (
                x.sum_axis(0),
                x.sum_axis(1),
                x.mean_axis(0),
                x.max().to_bits(),
                x.min().to_bits(),
                x.argmax(),
                x.argmax_rows(),
            )
        });
        let got = blocked(|| {
            (
                x.sum_axis(0),
                x.sum_axis(1),
                x.mean_axis(0),
                x.max().to_bits(),
                x.min().to_bits(),
                x.argmax(),
                x.argmax_rows(),
            )
        });
        prop_assert_eq!(got, want);
    }
}

/// Deterministic shapes that historically break blocked kernels: every
/// microtile/panel boundary (`MR = 4`, `NR = 8`, `KC = 256`, `MC = 64`)
/// hit exactly, one past, and from below, plus unit and empty dims.
#[test]
fn gemm_edge_shapes_within_forward_error() {
    let shapes: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 0, 1),
        (5, 0, 7),
        (4, 8, 8),    // exact MR × NR microtile
        (5, 9, 9),    // one past the microtile in every dim
        (3, 7, 7),    // strictly inside a single microtile
        (64, 16, 8),  // exact MC row block
        (65, 16, 8),  // one past MC
        (4, 256, 8),  // exact KC panel
        (4, 257, 8),  // one past KC
        (4, 255, 8),  // one below KC
        (129, 1, 1),  // tall and skinny
        (1, 1, 129),  // wide and flat
        (1, 300, 1),  // pure dot product spanning two KC panels
        (67, 33, 41), // odd everything
    ];
    for &(m, k, n) in shapes {
        let mut rng = rng_from_seed(7 + (m * 31 + k * 7 + n) as u64);
        let a = Tensor::randn([m, k.max(1)], &mut rng).as_slice()[..m * k].to_vec();
        let b = Tensor::randn([k.max(1), n], &mut rng).as_slice()[..k * n].to_vec();

        let want = reference(|| gemm(&a, &b, m, k, n));
        let got = blocked(|| gemm(&a, &b, m, k, n));
        let abs_a: Vec<f32> = a.iter().map(|x| x.abs()).collect();
        let abs_b: Vec<f32> = b.iter().map(|x| x.abs()).collect();
        let absdot = reference(|| gemm(&abs_a, &abs_b, m, k, n));
        for i in 0..want.len() {
            let bound = 2.0 * (k as f32 + 2.0) * EPS * absdot[i] + FLOOR;
            assert!(
                (got[i] - want[i]).abs() <= bound,
                "({m},{k},{n}) element {i}: blocked {} vs reference {} exceeds bound {bound}",
                got[i],
                want[i]
            );
        }
    }
}

/// Outside any scope pin the blocked backend runs; a pin overrides it and
/// nested pins restore on exit.
#[test]
fn backend_scope_override_beats_ambient_default() {
    assert_eq!(Backend::active(), Backend::Blocked);
    reference(|| {
        assert_eq!(Backend::active(), Backend::Reference);
        blocked(|| assert_eq!(Backend::active(), Backend::Blocked));
        assert_eq!(Backend::active(), Backend::Reference);
    });
}
