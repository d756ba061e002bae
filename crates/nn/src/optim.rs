//! First-order optimizers.
//!
//! Optimizers are driven through [`crate::Sequential::step`] (or any code
//! that walks a layer stack): for every parameter they receive a stable
//! integer id, the parameter and its gradient, and update the parameter in
//! place. Per-parameter state (momentum, Adam moments) is keyed by that id
//! and allocated lazily.

use std::collections::BTreeMap;
use stsl_tensor::Tensor;

/// A stateful first-order optimizer.
pub trait Optimizer: std::fmt::Debug + Send {
    /// Applies one update to `value` given `grad`.
    ///
    /// `param_id` must be stable across steps for the same parameter (the
    /// model guarantees this by enumerating parameters in layer order).
    fn update(&mut self, param_id: usize, value: &mut Tensor, grad: &Tensor);

    /// Signals that one optimization step (covering all parameters) has
    /// completed. Time-dependent optimizers (Adam) advance their step
    /// counter here.
    fn finish_step(&mut self) {}

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Replaces the learning rate (the divergence watchdog's post-rollback
    /// cooldown scales it).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Plain stochastic gradient descent with optional momentum:
/// `v = μv + g; w -= η v`.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: BTreeMap<usize, Tensor>,
}

impl Sgd {
    /// Creates momentum-free SGD.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            velocity: BTreeMap::new(),
        }
    }

    /// Adds classical momentum (builder style).
    pub fn momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }
}

impl Optimizer for Sgd {
    fn update(&mut self, param_id: usize, value: &mut Tensor, grad: &Tensor) {
        if self.momentum == 0.0 {
            value.axpy(-self.lr, grad);
            return;
        }
        let v = self
            .velocity
            .entry(param_id)
            .or_insert_with(|| Tensor::zeros(value.shape().clone()));
        v.scale_inplace(self.momentum);
        v.axpy(1.0, grad);
        value.axpy(-self.lr, v);
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba, 2015) with bias correction and the canonical
/// β₁ = 0.9, β₂ = 0.999.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    t: u32,
    moments: BTreeMap<usize, (Tensor, Tensor)>,
}

impl Adam {
    const BETA1: f32 = 0.9;
    const BETA2: f32 = 0.999;
    const EPS: f32 = 1e-8;

    /// Creates Adam with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            t: 0,
            moments: BTreeMap::new(),
        }
    }
}

impl Optimizer for Adam {
    fn update(&mut self, param_id: usize, value: &mut Tensor, grad: &Tensor) {
        let (m, v) = self.moments.entry(param_id).or_insert_with(|| {
            (
                Tensor::zeros(value.shape().clone()),
                Tensor::zeros(value.shape().clone()),
            )
        });
        // Step count for bias correction: t is advanced in finish_step, so
        // during the first step self.t == 0 and we correct with t+1.
        let t = (self.t + 1) as f32;
        let (b1, b2) = (Self::BETA1, Self::BETA2);
        let ms = m.as_mut_slice();
        let vs = v.as_mut_slice();
        let gs = grad.as_slice();
        let ws = value.as_mut_slice();
        let c1 = 1.0 - b1.powf(t);
        let c2 = 1.0 - b2.powf(t);
        for i in 0..ws.len() {
            ms[i] = b1 * ms[i] + (1.0 - b1) * gs[i];
            vs[i] = b2 * vs[i] + (1.0 - b2) * gs[i] * gs[i];
            let mhat = ms[i] / c1;
            let vhat = vs[i] / c2;
            ws[i] -= self.lr * mhat / (vhat.sqrt() + Self::EPS);
        }
    }

    fn finish_step(&mut self) {
        self.t += 1;
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad_grad(w: &Tensor) -> Tensor {
        // d/dw of 0.5 * ||w||^2 is w.
        w.clone()
    }

    #[test]
    fn sgd_descends_a_quadratic() {
        let mut w = Tensor::from_vec(vec![1.0, -2.0], [2]);
        let mut opt = Sgd::new(0.1);
        for _ in 0..100 {
            let g = quad_grad(&w);
            opt.update(0, &mut w, &g);
            opt.finish_step();
        }
        assert!(w.sq_norm() < 1e-6);
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let run = |momentum: f32| {
            let mut w = Tensor::from_vec(vec![1.0], [1]);
            let mut opt = Sgd::new(0.01).momentum(momentum);
            for _ in 0..50 {
                let g = quad_grad(&w);
                opt.update(0, &mut w, &g);
            }
            w.sq_norm()
        };
        assert!(
            run(0.9) < run(0.0),
            "momentum should converge faster on a quadratic"
        );
    }

    #[test]
    fn adam_descends_a_quadratic() {
        let mut w = Tensor::from_vec(vec![3.0, -4.0], [2]);
        let mut opt = Adam::new(0.1);
        for _ in 0..300 {
            let g = quad_grad(&w);
            opt.update(0, &mut w, &g);
            opt.finish_step();
        }
        assert!(w.sq_norm() < 1e-3, "norm {}", w.sq_norm());
    }

    #[test]
    fn adam_first_step_size_is_about_lr() {
        // With bias correction the very first Adam step has magnitude ≈ lr.
        let mut w = Tensor::from_vec(vec![10.0], [1]);
        let g = Tensor::from_vec(vec![0.001], [1]);
        let mut opt = Adam::new(0.1);
        opt.update(0, &mut w, &g);
        assert!((w.item() - (10.0 - 0.1)).abs() < 1e-3, "w = {}", w.item());
    }

    #[test]
    fn adam_state_is_per_parameter() {
        let mut w0 = Tensor::from_vec(vec![1.0], [1]);
        let mut w1 = Tensor::from_vec(vec![1.0], [1]);
        let mut opt = Adam::new(0.1);
        let g = Tensor::from_vec(vec![1.0], [1]);
        opt.update(0, &mut w0, &g);
        opt.update(1, &mut w1, &g);
        assert_eq!(
            w0.item(),
            w1.item(),
            "independent params get identical first steps"
        );
    }
}
