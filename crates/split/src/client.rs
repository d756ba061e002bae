//! The end-system: private lower layers plus a private data shard.

use crate::protocol::{ActivationMsg, BatchId, DecodeError, GradientMsg};
use stsl_data::{standard_augment, BatchPlan, ImageDataset};
use stsl_nn::optim::Optimizer;
use stsl_nn::{Mode, Sequential};
use stsl_simnet::EndSystemId;
use stsl_tensor::init::{derive_seed, rng_from_seed};
use stsl_tensor::Tensor;

/// A gradient message that does not answer the protocol's outstanding
/// request — either nothing is outstanding, or the batch ids disagree.
///
/// Under a faulty network these are runtime conditions, not programming
/// errors: a retransmitted gradient can arrive after its batch was
/// abandoned, or after a crash wiped the end-system's forward cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolError {
    /// A gradient arrived while no batch was outstanding.
    NoBatchOutstanding {
        /// The receiving end-system.
        client: EndSystemId,
    },
    /// A gradient arrived for a different batch than the outstanding one.
    BatchMismatch {
        /// The receiving end-system.
        client: EndSystemId,
        /// The batch the end-system is awaiting.
        expected: BatchId,
        /// The batch the gradient answers.
        got: BatchId,
    },
    /// A frame failed wire-level validation (bad magic, truncation,
    /// checksum mismatch, …).
    Decode(DecodeError),
}

impl From<DecodeError> for ProtocolError {
    fn from(e: DecodeError) -> Self {
        ProtocolError::Decode(e)
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::NoBatchOutstanding { client } => write!(
                f,
                "end-system {} received a gradient with no batch outstanding",
                client
            ),
            ProtocolError::BatchMismatch {
                client,
                expected,
                got,
            } => write!(
                f,
                "end-system {} got gradient for {} while awaiting {}",
                client, got, expected
            ),
            ProtocolError::Decode(e) => write!(f, "frame rejected: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// One end-system (a hospital in the paper's motivating scenario).
///
/// It owns:
/// * the first `k` blocks of the CNN, **privately initialized and never
///   shared or averaged** (the paper's "individual first hidden layers");
/// * a local data shard that never leaves the end-system;
/// * its own optimizer state for the private layers.
///
/// The protocol is strictly request/response per batch: a training-mode
/// forward must be answered by [`EndSystem::apply_gradient`] before the
/// next batch can be produced (enforced at runtime), mirroring how split
/// learning's backward pass needs the matching forward cache.
#[derive(Debug)]
pub struct EndSystem {
    id: EndSystemId,
    model: Sequential,
    data: ImageDataset,
    plan: BatchPlan,
    opt: Box<dyn Optimizer>,
    augment: bool,
    aug_rng: rand::rngs::StdRng,
    epoch: u64,
    batches: Vec<Vec<usize>>,
    cursor: usize,
    awaiting: Option<BatchId>,
    batches_sent: u64,
    grads_applied: u64,
    smash_noise: f32,
    noise_rng: rand::rngs::StdRng,
}

impl EndSystem {
    /// Creates an end-system.
    ///
    /// `model` is the private lower part (possibly empty for cut 0);
    /// `seed` drives batch shuffling and augmentation independently of
    /// other end-systems.
    pub fn new(
        id: EndSystemId,
        model: Sequential,
        data: ImageDataset,
        batch_size: usize,
        opt: Box<dyn Optimizer>,
        augment: bool,
        seed: u64,
    ) -> Self {
        let plan = BatchPlan::new(batch_size, derive_seed(seed, 1));
        EndSystem {
            id,
            model,
            data,
            plan,
            opt,
            augment,
            aug_rng: rng_from_seed(derive_seed(seed, 2)),
            epoch: 0,
            batches: Vec::new(),
            cursor: 0,
            awaiting: None,
            batches_sent: 0,
            grads_applied: 0,
            smash_noise: 0.0,
            noise_rng: rng_from_seed(derive_seed(seed, 3)),
        }
    }

    /// Enables the Gaussian noise defense: every activation tensor that
    /// leaves this end-system gets i.i.d. `N(0, sigma²)` noise added — a
    /// standard mitigation against inversion attacks on the smashed layer,
    /// trading accuracy for privacy (see the `noise_ablation` experiment).
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn with_smash_noise(mut self, sigma: f32) -> Self {
        assert!(sigma >= 0.0, "noise level must be non-negative");
        self.smash_noise = sigma;
        self
    }

    /// This end-system's identifier.
    pub fn id(&self) -> EndSystemId {
        self.id
    }

    /// Number of local samples.
    pub fn samples(&self) -> usize {
        self.data.len()
    }

    /// Batches this end-system produces per epoch.
    pub fn batches_per_epoch(&self) -> usize {
        self.plan.batches_per_epoch(self.data.len())
    }

    /// Total batches sent so far.
    pub fn batches_sent(&self) -> u64 {
        self.batches_sent
    }

    /// Total gradients applied so far.
    pub fn grads_applied(&self) -> u64 {
        self.grads_applied
    }

    /// The epoch most recently started by [`EndSystem::begin_epoch`]
    /// (0 before the first call).
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Starts epoch `epoch`, reshuffling the local shard.
    pub fn begin_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.batches = self.plan.epoch_indices(self.data.len(), epoch);
        self.cursor = 0;
    }

    /// Whether all batches of the current epoch have been produced.
    pub fn epoch_finished(&self) -> bool {
        self.cursor >= self.batches.len()
    }

    /// Computes the next batch's smashed activations for the server.
    ///
    /// Returns `None` when the epoch is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if the previous batch's gradient has not been applied yet.
    pub fn next_batch(&mut self) -> Option<ActivationMsg> {
        assert!(
            self.awaiting.is_none(),
            "end-system {} asked for a new batch while batch {} is outstanding",
            self.id,
            self.awaiting.map(|b| b.to_string()).unwrap_or_default()
        );
        if self.epoch_finished() {
            return None;
        }
        let indices = self.batches[self.cursor].clone();
        let batch_id = BatchId {
            epoch: self.epoch as u32,
            batch: self.cursor as u32,
        };
        self.cursor += 1;
        let (mut images, targets) = self.data.batch(&indices);
        if self.augment {
            images = standard_augment(&images, &mut self.aug_rng);
        }
        let mut activations = self.model.forward(&images, Mode::Train);
        if self.smash_noise > 0.0 {
            let noise = Tensor::randn(activations.dims().to_vec(), &mut self.noise_rng);
            activations.axpy(self.smash_noise, &noise);
        }
        self.awaiting = Some(batch_id);
        self.batches_sent += 1;
        Some(ActivationMsg {
            from: self.id,
            batch_id,
            activations,
            targets,
        })
    }

    /// Applies the server's cut-layer gradient: backpropagates through the
    /// private layers and steps the local optimizer.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] — without touching any state — if the
    /// gradient does not answer the outstanding batch.
    pub fn apply_gradient(&mut self, msg: &GradientMsg) -> Result<(), ProtocolError> {
        let expected = self
            .awaiting
            .ok_or(ProtocolError::NoBatchOutstanding { client: self.id })?;
        if msg.batch_id != expected {
            return Err(ProtocolError::BatchMismatch {
                client: self.id,
                expected,
                got: msg.batch_id,
            });
        }
        self.awaiting = None;
        self.grads_applied += 1;
        if self.model.is_empty() {
            return Ok(()); // cut 0: nothing to train locally
        }
        self.model.zero_grads();
        // Nothing reads the gradient w.r.t. the raw images.
        self.model.backward_params(&msg.grad);
        // Parameter-id base offset: unique per end-system so shared
        // optimizer state could never collide (each client has its own
        // optimizer anyway; the offset is defense in depth).
        self.model
            .step_with_base(self.opt.as_mut(), self.id.0 << 20);
        Ok(())
    }

    /// The batch currently awaiting a gradient, if any.
    pub fn outstanding(&self) -> Option<BatchId> {
        self.awaiting
    }

    /// Abandons the outstanding batch (used when the network dropped the
    /// activations or the server's scheduler discarded them).
    pub fn abandon_outstanding(&mut self) {
        self.awaiting = None;
    }

    /// Abandons the outstanding batch *and* rewinds the epoch cursor so the
    /// un-acked batch is produced again — the rejoin resync path: a client
    /// that departs mid-batch resumes from its last acked batch instead of
    /// silently skipping the one in flight. No-op when nothing is
    /// outstanding. Returns `true` when a batch was rewound.
    pub fn rewind_outstanding(&mut self) -> bool {
        if self.awaiting.take().is_some() {
            self.cursor = self.cursor.saturating_sub(1);
            true
        } else {
            false
        }
    }

    /// Runs the private encoder in inference mode (evaluation and the
    /// privacy experiments use this). No defense noise is added — this is
    /// the raw encoder output.
    pub fn encode(&mut self, images: &Tensor) -> Tensor {
        self.model.forward(images, Mode::Eval)
    }

    /// Like [`EndSystem::encode`], but with the configured noise defense
    /// applied — this is what an eavesdropper or honest-but-curious server
    /// actually observes on the wire when the defense is active.
    pub fn encode_protected(&mut self, images: &Tensor) -> Tensor {
        let mut out = self.model.forward(images, Mode::Eval);
        if self.smash_noise > 0.0 {
            let noise = Tensor::randn(out.dims().to_vec(), &mut self.noise_rng);
            out.axpy(self.smash_noise, &noise);
        }
        out
    }

    /// Read-only view of the local shard.
    pub fn data(&self) -> &ImageDataset {
        &self.data
    }

    /// The private lower model (for inspection in experiments).
    pub fn model_mut(&mut self) -> &mut Sequential {
        &mut self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CnnArch, CutPoint};
    use stsl_data::SyntheticCifar;
    use stsl_nn::optim::Sgd;

    fn make_client(cut: usize, n: usize) -> EndSystem {
        let arch = CnnArch::tiny();
        let (client_model, _) = arch.build_split(CutPoint(cut), 5);
        let data = SyntheticCifar::new(0).generate_sized(n, arch.image_side);
        EndSystem::new(
            EndSystemId(0),
            client_model,
            data,
            4,
            Box::new(Sgd::new(0.01)),
            false,
            7,
        )
    }

    #[test]
    fn produces_all_batches_per_epoch() {
        let mut c = make_client(1, 10);
        c.begin_epoch(0);
        assert_eq!(c.batches_per_epoch(), 3);
        let mut count = 0;
        while let Some(msg) = c.next_batch() {
            count += 1;
            // Answer with a zero gradient to unblock the next batch.
            let grad = Tensor::zeros(msg.activations.dims().to_vec());
            c.apply_gradient(&GradientMsg {
                to: c.id(),
                batch_id: msg.batch_id,
                grad,
            })
            .unwrap();
        }
        assert_eq!(count, 3);
        assert!(c.epoch_finished());
        assert_eq!(c.batches_sent(), 3);
        assert_eq!(c.grads_applied(), 3);
    }

    #[test]
    fn activations_have_cut_shape() {
        let mut c = make_client(2, 8);
        c.begin_epoch(0);
        let msg = c.next_batch().unwrap();
        assert_eq!(msg.activations.dims(), &[4, 16, 4, 4]);
        assert_eq!(msg.targets.len(), 4);
    }

    #[test]
    #[should_panic(expected = "outstanding")]
    fn two_batches_without_gradient_panics() {
        let mut c = make_client(1, 10);
        c.begin_epoch(0);
        c.next_batch();
        c.next_batch();
    }

    #[test]
    fn gradient_without_batch_is_a_typed_error() {
        let mut c = make_client(1, 10);
        c.begin_epoch(0);
        let grad = GradientMsg {
            to: EndSystemId(0),
            batch_id: BatchId { epoch: 0, batch: 0 },
            grad: Tensor::zeros([1]),
        };
        let err = c.apply_gradient(&grad).unwrap_err();
        assert_eq!(
            err,
            ProtocolError::NoBatchOutstanding {
                client: EndSystemId(0)
            }
        );
        assert!(err.to_string().contains("no batch outstanding"));
        assert_eq!(c.grads_applied(), 0);
    }

    #[test]
    fn mismatched_gradient_is_rejected_without_clearing_state() {
        let mut c = make_client(1, 10);
        c.begin_epoch(0);
        let msg = c.next_batch().unwrap();
        let stale = GradientMsg {
            to: c.id(),
            batch_id: BatchId { epoch: 9, batch: 9 },
            grad: Tensor::zeros(msg.activations.dims().to_vec()),
        };
        let err = c.apply_gradient(&stale).unwrap_err();
        assert!(matches!(err, ProtocolError::BatchMismatch { .. }));
        assert!(err.to_string().contains("awaiting"));
        // The outstanding batch is untouched; the right gradient still
        // applies.
        assert_eq!(c.outstanding(), Some(msg.batch_id));
        c.apply_gradient(&GradientMsg {
            to: c.id(),
            batch_id: msg.batch_id,
            grad: Tensor::zeros(msg.activations.dims().to_vec()),
        })
        .unwrap();
        assert_eq!(c.outstanding(), None);
    }

    #[test]
    fn gradient_updates_private_weights() {
        let mut c = make_client(1, 8);
        c.begin_epoch(0);
        let before = c.model_mut().state_dict();
        let msg = c.next_batch().unwrap();
        let grad = Tensor::ones(msg.activations.dims().to_vec());
        c.apply_gradient(&GradientMsg {
            to: c.id(),
            batch_id: msg.batch_id,
            grad,
        })
        .unwrap();
        let after = c.model_mut().state_dict();
        assert!(
            before.iter().zip(&after).any(|(a, b)| a != b),
            "weights did not move"
        );
    }

    #[test]
    fn abandon_unblocks_next_batch() {
        let mut c = make_client(1, 10);
        c.begin_epoch(0);
        c.next_batch();
        c.abandon_outstanding();
        assert!(c.next_batch().is_some());
    }

    #[test]
    fn rewind_replays_the_unacked_batch() {
        let mut c = make_client(1, 10);
        c.begin_epoch(0);
        let first = c.next_batch().unwrap();
        assert!(c.rewind_outstanding());
        // The same batch id (and indices) comes out again.
        let replay = c.next_batch().unwrap();
        assert_eq!(replay.batch_id, first.batch_id);
        assert_eq!(replay.targets, first.targets);
        // With nothing outstanding, rewind is a no-op.
        c.abandon_outstanding();
        assert!(!c.rewind_outstanding());
        let next = c.next_batch().unwrap();
        assert_eq!(next.batch_id.batch, first.batch_id.batch + 1);
    }

    #[test]
    fn smash_noise_perturbs_outgoing_activations_only() {
        let clean = make_client(1, 8);
        let noisy = make_client(1, 8).with_smash_noise(0.5);
        let mut clean = clean;
        let mut noisy = noisy;
        clean.begin_epoch(0);
        noisy.begin_epoch(0);
        let a = clean.next_batch().unwrap();
        let b = noisy.next_batch().unwrap();
        // Same data, same weights (same seeds) — only the noise differs.
        assert_ne!(a.activations, b.activations);
        let diff = (&a.activations - &b.activations).sq_norm() / a.activations.len() as f32;
        assert!(
            (diff - 0.25).abs() < 0.1,
            "noise variance {} should be ≈ σ² = 0.25",
            diff
        );
        // encode() stays clean; encode_protected() is noisy.
        let (images, _) = noisy.data().batch(&[0, 1]);
        let e1 = noisy.encode(&images);
        let e2 = noisy.encode(&images);
        assert_eq!(e1, e2);
        let p = noisy.encode_protected(&images);
        assert_ne!(p, e1);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_noise_rejected() {
        make_client(1, 8).with_smash_noise(-1.0);
    }

    #[test]
    fn cut_zero_client_passes_raw_images() {
        let mut c = make_client(0, 8);
        c.begin_epoch(0);
        let msg = c.next_batch().unwrap();
        assert_eq!(msg.activations.dims(), &[4, 3, 16, 16]);
        let grad = Tensor::zeros(msg.activations.dims().to_vec());
        c.apply_gradient(&GradientMsg {
            to: c.id(),
            batch_id: msg.batch_id,
            grad,
        })
        .unwrap();
    }
}
