//! Finite-difference gradient checking for whole networks.
//!
//! Used by the test suites to validate every layer's backward pass through
//! the exact code paths the trainers use.

use crate::layer::{Mode, ParamView};
use crate::loss::Loss;
use crate::Sequential;
use stsl_tensor::Tensor;

/// Outcome of a gradient check.
#[derive(Debug, Clone)]
pub struct GradCheckReport {
    /// Maximum relative error observed across all probed coordinates.
    pub max_rel_error: f32,
    /// Number of coordinates probed.
    pub probes: usize,
}

impl GradCheckReport {
    /// Whether the analytic gradients pass at tolerance `tol`.
    pub fn passes(&self, tol: f32) -> bool {
        self.max_rel_error <= tol
    }
}

/// Compares analytic parameter gradients of `net` against central finite
/// differences of the loss, probing every `stride`-th parameter coordinate.
///
/// # Panics
///
/// Panics if `stride == 0` or the network/loss shapes are inconsistent.
pub fn check_param_gradients(
    net: &mut Sequential,
    input: &Tensor,
    targets: &[usize],
    loss: &dyn Loss,
    stride: usize,
    eps: f32,
) -> GradCheckReport {
    assert!(stride > 0, "stride must be positive");
    // Analytic gradients.
    net.zero_grads();
    let logits = net.forward(input, Mode::Train);
    let out = loss.forward(&logits, targets);
    net.backward_params(&out.grad);

    // Collect flat copies of params and grads.
    let mut param_snapshot: Vec<Tensor> = Vec::new();
    let mut grad_snapshot: Vec<Tensor> = Vec::new();
    for_each_param(net, &mut |p| {
        param_snapshot.push(p.value.clone());
        grad_snapshot.push(p.grad.clone());
    });

    let mut max_rel = 0.0f32;
    let mut probes = 0usize;
    for (pi, grad) in grad_snapshot.iter().enumerate() {
        for ci in (0..grad.len()).step_by(stride) {
            let ana = grad.as_slice()[ci];
            let orig = param_snapshot[pi].as_slice()[ci];

            set_param_coord(net, pi, ci, orig + eps);
            let lp = eval_loss(net, input, targets, loss);
            set_param_coord(net, pi, ci, orig - eps);
            let lm = eval_loss(net, input, targets, loss);
            set_param_coord(net, pi, ci, orig);

            let num = (lp - lm) / (2.0 * eps);
            let rel = (num - ana).abs() / (1.0 + num.abs().max(ana.abs()));
            if rel > max_rel {
                max_rel = rel;
            }
            probes += 1;
        }
    }
    GradCheckReport {
        max_rel_error: max_rel,
        probes,
    }
}

fn eval_loss(net: &mut Sequential, input: &Tensor, targets: &[usize], loss: &dyn Loss) -> f32 {
    let logits = net.forward(input, Mode::Eval);
    loss.forward(&logits, targets).value
}

fn for_each_param(net: &mut Sequential, f: &mut dyn FnMut(ParamView<'_>)) {
    net.visit_params(f);
}

fn set_param_coord(net: &mut Sequential, target_param: usize, coord: usize, value: f32) {
    let mut i = 0;
    for_each_param(net, &mut |p| {
        if i == target_param {
            p.value.as_mut_slice()[coord] = value;
        }
        i += 1;
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
    use crate::loss::{MseLoss, SoftmaxCrossEntropy};
    use stsl_tensor::init::rng_from_seed;

    #[test]
    fn dense_relu_stack_passes() {
        let mut net = Sequential::new();
        net.push(Dense::new(6, 10, 0));
        net.push(Relu::new());
        net.push(Dense::new(10, 4, 1));
        let x = Tensor::randn([3, 6], &mut rng_from_seed(5));
        let report = check_param_gradients(
            &mut net,
            &x,
            &[0, 1, 3],
            &SoftmaxCrossEntropy::new(),
            7,
            1e-2,
        );
        assert!(
            report.passes(2e-2),
            "max rel error {}",
            report.max_rel_error
        );
        assert!(report.probes > 10);
    }

    #[test]
    fn conv_pool_dense_stack_passes() {
        let mut net = Sequential::new();
        net.push(Conv2d::new(1, 2, 3, 2));
        net.push(Relu::new());
        net.push(MaxPool2d::new(2));
        net.push(Flatten::new());
        net.push(Dense::new(2 * 2 * 2, 3, 3));
        let x = Tensor::randn([2, 1, 4, 4], &mut rng_from_seed(6));
        let report =
            check_param_gradients(&mut net, &x, &[0, 2], &SoftmaxCrossEntropy::new(), 5, 1e-2);
        assert!(
            report.passes(3e-2),
            "max rel error {}",
            report.max_rel_error
        );
    }

    #[test]
    fn mse_loss_gradients_pass() {
        let mut net = Sequential::new();
        net.push(Dense::new(4, 4, 9));
        let x = Tensor::randn([2, 4], &mut rng_from_seed(7));
        let report = check_param_gradients(&mut net, &x, &[1, 2], &MseLoss::new(), 3, 1e-2);
        assert!(
            report.passes(2e-2),
            "max rel error {}",
            report.max_rel_error
        );
    }

    /// Conv + pool + dense driven end to end through the **blocked** tensor
    /// backend: the analytic backward passes (im2col GEMMs, dense GEMMs)
    /// and the finite-difference loss probes all run on the packed
    /// microkernels, so a packing or microtile-edge bug shows up as a
    /// gradient mismatch here even though every unit test above passes on
    /// the reference path.
    #[test]
    fn conv_dense_stack_passes_on_blocked_backend() {
        stsl_tensor::with_backend(stsl_tensor::Backend::Blocked, || {
            let mut net = Sequential::new();
            net.push(Conv2d::new(1, 2, 3, 2));
            net.push(Relu::new());
            net.push(MaxPool2d::new(2));
            net.push(Flatten::new());
            net.push(Dense::new(2 * 2 * 2, 3, 3));
            let x = Tensor::randn([2, 1, 4, 4], &mut rng_from_seed(6));
            let report =
                check_param_gradients(&mut net, &x, &[0, 2], &SoftmaxCrossEntropy::new(), 5, 1e-2);
            assert!(
                report.passes(3e-2),
                "blocked backend: max rel error {}",
                report.max_rel_error
            );
        });
    }

    /// Dense + softmax cross-entropy on the blocked backend, probing every
    /// coordinate (`stride = 1`) so the blocked `log_softmax` denominator
    /// reduction is exercised by every finite-difference evaluation. Also
    /// pins that the reference backend agrees on the same network — both
    /// backends must pass at the same tolerance.
    #[test]
    fn dense_softmax_gradients_pass_on_both_backends() {
        for backend in [
            stsl_tensor::Backend::Reference,
            stsl_tensor::Backend::Blocked,
        ] {
            stsl_tensor::with_backend(backend, || {
                let mut net = Sequential::new();
                net.push(Dense::new(5, 8, 11));
                net.push(Relu::new());
                net.push(Dense::new(8, 4, 12));
                let x = Tensor::randn([3, 5], &mut rng_from_seed(13));
                let report = check_param_gradients(
                    &mut net,
                    &x,
                    &[0, 1, 3],
                    &SoftmaxCrossEntropy::new(),
                    1,
                    1e-2,
                );
                assert!(
                    report.passes(2e-2),
                    "{:?} backend: max rel error {}",
                    backend,
                    report.max_rel_error
                );
                assert!(report.probes > 50);
            });
        }
    }
}
