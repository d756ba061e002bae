//! The centralized server: upper layers, loss, and the single shared model
//! trained on every end-system's smashed activations.

use crate::aggregate::{AggregationPolicy, RobustAggregator, RobustApply};
use crate::client::EndSystem;
use crate::guard::{validate_update, Anomaly, GuardConfig};
use crate::protocol::{ActivationMsg, GradientMsg};
use stsl_data::ImageDataset;
use stsl_nn::loss::{Loss, SoftmaxCrossEntropy};
use stsl_nn::optim::Optimizer;
use stsl_nn::{Mode, Sequential};
use stsl_tensor::Tensor;

/// Result of the server processing one activation batch.
#[derive(Debug, Clone)]
pub struct ServerStepOutput {
    /// Gradient message to return to the originating end-system.
    pub gradient: GradientMsg,
    /// Mean loss on this batch.
    pub loss: f32,
    /// Training-batch accuracy (cheap progress signal).
    pub batch_accuracy: f32,
}

/// The centralized server of Fig. 2.
///
/// It owns layers `L_{k+1}..` plus the dense head and the loss, and is the
/// only place where data from *all* end-systems meets — which is exactly
/// why the paper's scheme achieves near-centralized accuracy.
#[derive(Debug)]
pub struct CentralServer {
    model: Sequential,
    loss: SoftmaxCrossEntropy,
    opt: Box<dyn Optimizer>,
    steps: u64,
    served_per_client: Vec<u64>,
    robust: Option<RobustAggregator>,
    last_robust: Option<RobustApply>,
}

impl CentralServer {
    /// Creates a server over the upper `model` half.
    pub fn new(model: Sequential, opt: Box<dyn Optimizer>, end_systems: usize) -> Self {
        CentralServer {
            model,
            loss: SoftmaxCrossEntropy::new(),
            opt,
            steps: 0,
            served_per_client: vec![0; end_systems],
            robust: None,
            last_robust: None,
        }
    }

    /// Enables windowed robust aggregation: per-batch gradients are
    /// buffered and combined under `policy` every `window` batches, and
    /// only the combined gradient reaches the optimizer (batches between
    /// window boundaries step nothing). `outlier_factor` scales the
    /// statistical-outlier threshold (see
    /// [`crate::aggregate::outlier_flags`]), and `refine` enables the
    /// two-pass outlier-exclusion recombine
    /// ([`RobustAggregator::refine_outliers`] — the trainer sets it when
    /// the integrity guard is on). A zero `window` is clamped to 1 and a
    /// non-finite or non-positive `outlier_factor` keeps the default.
    pub fn enable_robust_aggregation(
        &mut self,
        policy: AggregationPolicy,
        window: usize,
        outlier_factor: f32,
        refine: bool,
    ) {
        self.robust = Some(
            RobustAggregator::new(policy, window)
                .outlier_factor(outlier_factor)
                .refine_outliers(refine),
        );
    }

    /// Whether robust aggregation is active.
    pub fn robust_enabled(&self) -> bool {
        self.robust.is_some()
    }

    /// Resizes the aggregation window (no-op when robust aggregation is
    /// off). The trainer calls this as senders enter and leave
    /// quarantine so the window tracks the active cohort — a window
    /// waiting on updates from exiled senders would slow the optimizer
    /// cadence for everyone else. A zero `window` is clamped to 1.
    pub fn set_robust_window(&mut self, window: usize) {
        if let Some(agg) = self.robust.as_mut() {
            agg.set_window(window);
        }
    }

    /// Takes the outcome of the most recent robust window apply, if one
    /// happened since the last call (the trainer polls this after each
    /// served batch to drive counters, telemetry and quarantine).
    pub fn take_robust_apply(&mut self) -> Option<RobustApply> {
        self.last_robust.take()
    }

    /// Discards any buffered not-yet-combined updates (called on
    /// watchdog rollback so stale gradients never cross the restore
    /// boundary).
    pub fn clear_robust_buffer(&mut self) {
        if let Some(agg) = self.robust.as_mut() {
            agg.clear();
        }
        self.last_robust = None;
    }

    fn flat_grads(&mut self) -> Vec<f32> {
        let mut flat = Vec::new();
        self.model
            .visit_params(&mut |p| flat.extend_from_slice(p.grad.as_slice()));
        flat
    }

    fn write_grads(&mut self, combined: &[f32]) {
        let mut offset = 0usize;
        self.model.visit_params(&mut |p| {
            let dst = p.grad.as_mut_slice();
            dst.copy_from_slice(&combined[offset..offset + dst.len()]);
            offset += dst.len();
        });
        debug_assert_eq!(offset, combined.len(), "combined gradient length drift");
    }

    /// Total batches processed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Batches processed per originating end-system — the contribution
    /// histogram the scheduling experiments analyze for bias.
    pub fn served_per_client(&self) -> &[u64] {
        &self.served_per_client
    }

    /// Processes one activation batch: with a `guard`, ingress
    /// validation first (the activations must be finite and within the
    /// guard's RMS bound before they touch the model or optimizer); then
    /// forward through the upper layers, loss, backward, optimizer step,
    /// and the cut-layer gradient to send back.
    ///
    /// With robust aggregation enabled
    /// ([`CentralServer::enable_robust_aggregation`]) the per-batch
    /// gradient is buffered instead of applied; the optimizer steps only
    /// when a full window is combined. The cut-layer gradient returned to
    /// the sender is unchanged either way.
    ///
    /// # Errors
    ///
    /// Returns the guard's [`Anomaly`] without mutating any server state:
    /// no optimizer step, no counters.
    ///
    /// # Panics
    ///
    /// Panics if the message's client id is out of range or shapes are
    /// inconsistent with the model.
    pub fn process(
        &mut self,
        msg: &ActivationMsg,
        guard: Option<&GuardConfig>,
    ) -> Result<ServerStepOutput, Anomaly> {
        if let Some(g) = guard {
            validate_update(&msg.activations, g.max_activation_rms)?;
        }
        assert!(
            msg.from.0 < self.served_per_client.len(),
            "unknown end-system {}",
            msg.from
        );
        self.model.zero_grads();
        let logits = self.model.forward(&msg.activations, Mode::Train);
        let out = self.loss.forward(&logits, &msg.targets);
        let cut_grad = self.model.backward(&out.grad);
        if let Some(mut agg) = self.robust.take() {
            let flat = self.flat_grads();
            if let Some(apply) = agg.push(msg.from.0, flat) {
                self.write_grads(&apply.combined);
                self.model.step(self.opt.as_mut());
                self.last_robust = Some(apply);
            }
            self.robust = Some(agg);
        } else {
            self.model.step(self.opt.as_mut());
        }
        self.steps += 1;
        self.served_per_client[msg.from.0] += 1;
        let preds = logits.argmax_rows();
        let hits = preds
            .iter()
            .zip(&msg.targets)
            .filter(|(p, t)| p == t)
            .count();
        Ok(ServerStepOutput {
            gradient: GradientMsg {
                to: msg.from,
                batch_id: msg.batch_id,
                grad: cut_grad,
            },
            loss: out.value,
            batch_accuracy: hits as f32 / msg.targets.len().max(1) as f32,
        })
    }

    /// Current learning rate of the server optimizer.
    pub fn learning_rate(&self) -> f32 {
        self.opt.learning_rate()
    }

    /// Scales the server optimizer's learning rate (the watchdog's
    /// post-rollback cooldown).
    pub fn scale_learning_rate(&mut self, factor: f32) {
        let lr = self.opt.learning_rate();
        self.opt.set_learning_rate(lr * factor);
    }

    /// Inference through the upper layers only (activations already
    /// encoded by some end-system).
    pub fn infer(&mut self, activations: &Tensor) -> Tensor {
        self.model.forward(activations, Mode::Eval)
    }

    /// Evaluates accuracy on `test` using `encode` to run an end-system's
    /// private encoder, in batches of `batch_size`.
    pub fn evaluate_with_encoder(
        &mut self,
        test: &ImageDataset,
        batch_size: usize,
        mut encode: impl FnMut(&Tensor) -> Tensor,
    ) -> f32 {
        test.accuracy(batch_size, |images| {
            self.infer(&encode(images)).argmax_rows()
        })
    }

    /// Test accuracy of each end-system's private encoder under the
    /// shared upper model, in batches of `batch_size`.
    pub(crate) fn evaluate_encoders(
        &mut self,
        test: &ImageDataset,
        batch_size: usize,
        clients: &mut [EndSystem],
    ) -> Vec<f32> {
        clients
            .iter_mut()
            .map(|c| self.evaluate_with_encoder(test, batch_size, |x| c.encode(x)))
            .collect()
    }

    /// The upper model (for checkpointing in experiments).
    pub fn model_mut(&mut self) -> &mut Sequential {
        &mut self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CnnArch, CutPoint};
    use crate::protocol::BatchId;
    use stsl_data::SyntheticCifar;
    use stsl_nn::optim::Sgd;
    use stsl_simnet::EndSystemId;
    use stsl_tensor::init::rng_from_seed;

    fn make_server(cut: usize) -> (CentralServer, CnnArch) {
        let arch = CnnArch::tiny();
        let (_, upper) = arch.build_split(CutPoint(cut), 11);
        (CentralServer::new(upper, Box::new(Sgd::new(0.05)), 2), arch)
    }

    fn activation_msg(arch: &CnnArch, cut: usize, n: usize, from: usize) -> ActivationMsg {
        let dims = arch.cut_dims(CutPoint(cut), n);
        ActivationMsg {
            from: EndSystemId(from),
            batch_id: BatchId { epoch: 0, batch: 0 },
            activations: Tensor::randn(dims, &mut rng_from_seed(3)),
            targets: (0..n).map(|i| i % arch.classes).collect(),
        }
    }

    #[test]
    fn process_returns_matching_gradient() {
        let (mut server, arch) = make_server(1);
        let msg = activation_msg(&arch, 1, 4, 0);
        let out = server.process(&msg, None).unwrap();
        assert_eq!(out.gradient.grad.dims(), msg.activations.dims());
        assert_eq!(out.gradient.to, msg.from);
        assert_eq!(out.gradient.batch_id, msg.batch_id);
        assert!(out.loss > 0.0);
        assert_eq!(server.steps(), 1);
    }

    #[test]
    fn process_counts_per_client() {
        let (mut server, arch) = make_server(1);
        for from in [0, 1, 1] {
            server
                .process(&activation_msg(&arch, 1, 2, from), None)
                .unwrap();
        }
        assert_eq!(server.served_per_client(), &[1, 2]);
        assert_eq!(server.steps(), 3);
    }

    #[test]
    #[should_panic(expected = "unknown end-system")]
    fn process_rejects_unknown_client() {
        let (mut server, arch) = make_server(1);
        let _ = server.process(&activation_msg(&arch, 1, 2, 5), None);
    }

    #[test]
    fn repeated_steps_reduce_loss_on_fixed_batch() {
        let (mut server, arch) = make_server(0);
        let data = SyntheticCifar::new(1).generate_sized(16, arch.image_side);
        let (images, targets) = data.batch(&(0..16).collect::<Vec<_>>());
        let msg = ActivationMsg {
            from: EndSystemId(0),
            batch_id: BatchId { epoch: 0, batch: 0 },
            activations: images,
            targets,
        };
        let first = server.process(&msg, None).unwrap().loss;
        let mut last = first;
        for _ in 0..25 {
            last = server.process(&msg, None).unwrap().loss;
        }
        assert!(last < first * 0.8, "loss {} -> {}", first, last);
    }

    #[test]
    fn guarded_process_rejects_poison_without_state_change() {
        let (mut server, arch) = make_server(1);
        let guard = GuardConfig::default();
        let mut msg = activation_msg(&arch, 1, 4, 0);
        let weights_before = server.model_mut().state_dict();

        // NaN poison: rejected, nothing moves.
        msg.activations.as_mut_slice()[3] = f32::NAN;
        assert!(matches!(
            server.process(&msg, Some(&guard)),
            Err(crate::guard::Anomaly::NonFinite)
        ));
        assert_eq!(server.steps(), 0);
        assert_eq!(server.served_per_client(), &[0, 0]);
        assert_eq!(server.model_mut().state_dict(), weights_before);

        // Norm explosion: rejected.
        let mut huge = activation_msg(&arch, 1, 4, 0);
        huge.activations.map_inplace(|_| 1e6);
        assert!(matches!(
            server.process(&huge, Some(&guard)),
            Err(crate::guard::Anomaly::NormExplosion { .. })
        ));
        assert_eq!(server.steps(), 0);

        // A healthy batch flows through as it would unguarded.
        let clean = activation_msg(&arch, 1, 4, 0);
        let out = server.process(&clean, Some(&guard)).unwrap();
        assert_eq!(out.gradient.grad.dims(), clean.activations.dims());
        assert_eq!(server.steps(), 1);
    }

    #[test]
    fn learning_rate_cooldown_scales() {
        let (mut server, _) = make_server(1);
        assert_eq!(server.learning_rate(), 0.05);
        server.scale_learning_rate(0.5);
        assert!((server.learning_rate() - 0.025).abs() < 1e-9);
    }

    #[test]
    fn evaluate_with_identity_encoder() {
        let (mut server, arch) = make_server(0);
        let test = SyntheticCifar::new(2).generate_sized(20, arch.image_side);
        let acc = server.evaluate_with_encoder(&test, 8, |x| x.clone());
        assert!((0.0..=1.0).contains(&acc));
    }
}
