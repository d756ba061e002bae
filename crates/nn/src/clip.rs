//! Gradient clipping.

use crate::Sequential;

/// Scales all gradients of `net` so their **global** L2 norm does not
/// exceed `max_norm`. Returns the pre-clip norm.
///
/// Use between `backward` and the optimizer step to tame the occasional
/// exploding batch (deep split pipelines with momentum are prone to it).
///
/// # Panics
///
/// Panics if `max_norm` is not positive.
pub fn clip_grad_norm(net: &mut Sequential, max_norm: f32) -> f32 {
    assert!(max_norm > 0.0, "max_norm must be positive");
    let total_sq = net.grad_sq_norm();
    let norm = total_sq.sqrt();
    if norm > max_norm {
        let scale = max_norm / (norm + 1e-12);
        net.visit_params(&mut |p| p.grad.scale_inplace(scale));
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Dense;
    use crate::loss::{Loss, SoftmaxCrossEntropy};
    use crate::Mode;
    use stsl_tensor::init::rng_from_seed;
    use stsl_tensor::Tensor;

    fn net_with_grads(scale: f32) -> Sequential {
        let mut net = Sequential::new();
        net.push(Dense::new(4, 3, 0));
        let x = &Tensor::randn([2, 4], &mut rng_from_seed(1)) * scale;
        let logits = net.forward(&x, Mode::Train);
        let out = SoftmaxCrossEntropy::new().forward(&logits, &[0, 1]);
        net.backward(&out.grad);
        net
    }

    #[test]
    fn clipping_caps_global_norm() {
        let mut net = net_with_grads(100.0);
        let before = net.grad_sq_norm().sqrt();
        assert!(before > 1.0, "test needs large gradients, got {}", before);
        let reported = clip_grad_norm(&mut net, 1.0);
        assert!((reported - before).abs() < 1e-3);
        let after = net.grad_sq_norm().sqrt();
        assert!((after - 1.0).abs() < 1e-3, "post-clip norm {}", after);
    }

    #[test]
    fn small_gradients_pass_through_unchanged() {
        let mut net = net_with_grads(0.001);
        let before = net.grad_sq_norm();
        clip_grad_norm(&mut net, 10.0);
        assert_eq!(net.grad_sq_norm(), before);
    }

    #[test]
    fn clipping_preserves_gradient_direction() {
        let mut net = net_with_grads(50.0);
        let mut before = Vec::new();
        net.visit_params(&mut |p| before.push(p.grad.clone()));
        clip_grad_norm(&mut net, 0.5);
        let mut i = 0;
        net.visit_params(&mut |p| {
            // Each clipped gradient is a positive multiple of the original.
            let dot: f32 = p
                .grad
                .as_slice()
                .iter()
                .zip(before[i].as_slice())
                .map(|(a, b)| a * b)
                .sum();
            assert!(dot >= 0.0);
            i += 1;
        });
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_max_norm_rejected() {
        clip_grad_norm(&mut Sequential::new(), 0.0);
    }
}
