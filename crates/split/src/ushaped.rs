//! U-shaped split learning: **no label sharing**.
//!
//! The paper's configuration (Fig. 1/2) sends labels to the server with
//! the smashed activations, because the server owns the output layer and
//! the loss. Vepakomma et al. (the paper's ref. [3]) describe the
//! *U-shaped* variant in which the end-system also keeps the network
//! **head** (the final classification layer and the loss), so labels never
//! leave the site — at the cost of a second round trip per batch:
//!
//! ```text
//! client lower  ──a──▶  server middle  ──f──▶  client head + loss
//! client lower  ◀─da──  server middle  ◀─df──  client head backward
//! ```
//!
//! This module implements that extension on the same layer machinery, as
//! the natural "future work" completion of the paper's framework.

use crate::config::SplitConfig;
use crate::model::CutPoint;
use crate::protocol::tensor_frame_len;
use crate::report::{CommReport, EpochStats, TrainReport};
use crate::trainer::ConfigError;
use stsl_data::{BatchPlan, ImageDataset};
use stsl_nn::loss::{Loss, SoftmaxCrossEntropy};
use stsl_nn::metrics::RunningMean;
use stsl_nn::optim::Optimizer;
use stsl_nn::{Mode, Sequential};
use stsl_tensor::init::derive_seed;

/// One end-system of the U-shaped protocol: private lower layers, private
/// head, private data, private labels.
#[derive(Debug)]
struct UClient {
    lower: Sequential,
    head: Sequential,
    data: ImageDataset,
    plan: BatchPlan,
    lower_opt: Box<dyn Optimizer>,
    head_opt: Box<dyn Optimizer>,
}

/// Trainer for U-shaped (label-private) split learning with multiple
/// end-systems sharing one server that owns only the middle layers.
#[derive(Debug)]
pub struct UShapedTrainer {
    config: SplitConfig,
    server_middle: Sequential,
    server_opt: Box<dyn Optimizer>,
    clients: Vec<UClient>,
    loss: SoftmaxCrossEntropy,
    comm: CommReport,
}

impl UShapedTrainer {
    /// Builds the trainer: the model is cut twice — after block
    /// `config.cut` (lower/middle boundary) and before the final dense
    /// layer (middle/head boundary).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid, the cut
    /// leaves no middle layers for the server, or the dataset is too
    /// small.
    pub fn new(config: SplitConfig, train: &ImageDataset) -> Result<Self, ConfigError> {
        config.validate().map_err(ConfigError)?;
        if train.len() < config.end_systems {
            return Err(ConfigError("dataset smaller than client count".into()));
        }
        let total_layers = 3 * config.arch.blocks() + 4; // blocks + flatten/dense/relu/dense
        let lower_end = CutPoint(config.cut.blocks()).layer_index();
        let head_start = total_layers - 1; // the final Dense
        if lower_end >= head_start {
            return Err(ConfigError(format!(
                "cut {} leaves no middle layers for the server",
                config.cut.blocks()
            )));
        }
        let shards = config
            .partition
            .split(train, config.end_systems, derive_seed(config.seed, 7));
        // The server middle comes from the shared seed.
        let (_, rest) = config.arch.build(config.seed).split_at(lower_end);
        let (server_middle, _) = rest.split_at(head_start - lower_end);
        let clients = shards
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                let client_seed = derive_seed(config.seed, 2000 + i as u64);
                let (lower, rest) = config.arch.build(client_seed).split_at(lower_end);
                let (_, head) = rest.split_at(head_start - lower_end);
                UClient {
                    lower,
                    head,
                    data: shard,
                    plan: BatchPlan::new(config.batch_size, derive_seed(client_seed, 1)),
                    lower_opt: config.build_optimizer(),
                    head_opt: config.build_optimizer(),
                }
            })
            .collect();
        Ok(UShapedTrainer {
            server_opt: config.build_optimizer(),
            config,
            server_middle,
            clients,
            loss: SoftmaxCrossEntropy::new(),
            comm: CommReport::default(),
        })
    }

    /// Runs one epoch (clients interleaved round-robin). Returns
    /// `(mean loss, mean batch accuracy)`.
    pub fn run_epoch(&mut self, epoch: usize) -> (f32, f32) {
        let mut loss_mean = RunningMean::new();
        let mut acc_mean = RunningMean::new();
        let schedules: Vec<Vec<Vec<usize>>> = self
            .clients
            .iter()
            .map(|c| c.plan.epoch_indices(c.data.len(), epoch as u64))
            .collect();
        let mut cursor = vec![0usize; self.clients.len()];
        let mut remaining = true;
        while remaining {
            remaining = false;
            for (i, client) in self.clients.iter_mut().enumerate() {
                let Some(indices) = schedules[i].get(cursor[i]) else {
                    continue;
                };
                cursor[i] += 1;
                remaining = true;
                let (images, targets) = client.data.batch(indices);
                // Leg 1: client lower forward, activations uplink.
                client.lower.zero_grads();
                let smashed = client.lower.forward(&images, Mode::Train);
                self.comm.uplink_bytes += tensor_frame_len(&smashed) as u64;
                self.comm.uplink_messages += 1;
                // Leg 2: server middle forward, features downlink.
                self.server_middle.zero_grads();
                let features = self.server_middle.forward(&smashed, Mode::Train);
                self.comm.downlink_bytes += tensor_frame_len(&features) as u64;
                self.comm.downlink_messages += 1;
                // Leg 3: client head + loss (labels stay here).
                client.head.zero_grads();
                let logits = client.head.forward(&features, Mode::Train);
                let out = self.loss.forward(&logits, &targets);
                let dfeatures = client.head.backward(&out.grad);
                // Leg 4: feature gradient uplink, middle backward.
                self.comm.uplink_bytes += tensor_frame_len(&dfeatures) as u64;
                self.comm.uplink_messages += 1;
                let dsmashed = self.server_middle.backward(&dfeatures);
                // Leg 5: cut gradient downlink, lower backward.
                self.comm.downlink_bytes += tensor_frame_len(&dsmashed) as u64;
                self.comm.downlink_messages += 1;
                client.lower.backward_params(&dsmashed);
                // Updates.
                client
                    .head
                    .step_with_base(client.head_opt.as_mut(), 1 << 16);
                self.server_middle.step(self.server_opt.as_mut());
                client.lower.step(client.lower_opt.as_mut());

                let preds = logits.argmax_rows();
                let hits = preds.iter().zip(&targets).filter(|(p, t)| p == t).count();
                loss_mean.push(out.value);
                acc_mean.push(hits as f32 / targets.len().max(1) as f32);
            }
        }
        (
            loss_mean.mean().unwrap_or(0.0),
            acc_mean.mean().unwrap_or(0.0),
        )
    }

    /// Test accuracy through client `i`'s lower + head around the shared
    /// middle.
    pub fn evaluate_client(&mut self, i: usize, test: &ImageDataset) -> f32 {
        let batch = self.config.batch_size.max(32);
        let client = &mut self.clients[i];
        let middle = &mut self.server_middle;
        test.accuracy(batch, |images| {
            let smashed = client.lower.forward(images, Mode::Eval);
            let features = middle.forward(&smashed, Mode::Eval);
            client.head.forward(&features, Mode::Eval).argmax_rows()
        })
    }

    /// Mean test accuracy across clients.
    pub fn evaluate(&mut self, test: &ImageDataset) -> f32 {
        let n = self.clients.len();
        let per: Vec<f32> = (0..n).map(|i| self.evaluate_client(i, test)).collect();
        stsl_tensor::mean_f32(&per)
    }

    /// Runs the configured training and reports like the other trainers.
    pub fn train(&mut self, test: &ImageDataset) -> TrainReport {
        let start = crate::WallTimer::start();
        let mut epochs = Vec::new();
        for e in 0..self.config.epochs {
            let (train_loss, train_accuracy) = self.run_epoch(e);
            let test_accuracy = self.evaluate(test);
            epochs.push(EpochStats {
                epoch: e,
                train_loss,
                train_accuracy,
                test_accuracy,
                anomalies_rejected: 0,
                rollbacks: 0,
            });
        }
        let per_client_accuracy: Vec<f32> = (0..self.clients.len())
            .map(|i| self.evaluate_client(i, test))
            .collect();
        let final_accuracy = stsl_tensor::mean_f32(&per_client_accuracy);
        TrainReport {
            label: format!("u-shaped {}", self.config.cut.label()),
            end_systems: self.config.end_systems,
            cut_blocks: self.config.cut.blocks(),
            epochs,
            final_accuracy,
            per_client_accuracy,
            comm: self.comm,
            wall_seconds: start.seconds(),
            anomalies_rejected: 0,
            rollbacks: 0,
        }
    }

    /// Communication totals so far. Note the doubled message count per
    /// batch relative to the label-sharing protocol.
    pub fn comm(&self) -> CommReport {
        self.comm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stsl_data::SyntheticCifar;

    fn data(n: usize, seed: u64) -> ImageDataset {
        SyntheticCifar::new(seed)
            .difficulty(0.05)
            .generate_sized(n, 16)
    }

    #[test]
    fn builds_and_trains_one_epoch() {
        let cfg = SplitConfig::tiny(CutPoint(1), 2).epochs(1).seed(1);
        let train = data(64, 1);
        let test = data(20, 2);
        let mut t = UShapedTrainer::new(cfg, &train).unwrap();
        let report = t.train(&test);
        assert_eq!(report.epochs.len(), 1);
        assert!(report.label.starts_with("u-shaped"));
        assert!(report.epochs[0].train_loss.is_finite());
    }

    #[test]
    fn four_messages_per_batch() {
        let cfg = SplitConfig::tiny(CutPoint(1), 1)
            .epochs(1)
            .batch_size(16)
            .seed(2);
        let train = data(32, 3);
        let mut t = UShapedTrainer::new(cfg, &train).unwrap();
        t.run_epoch(0);
        // 2 batches × 2 uplinks and 2 downlinks each.
        assert_eq!(t.comm().uplink_messages, 4);
        assert_eq!(t.comm().downlink_messages, 4);
    }

    #[test]
    fn bytes_per_batch_are_four_tensor_frames() {
        let cfg = SplitConfig::tiny(CutPoint(1), 1)
            .epochs(1)
            .batch_size(16)
            .seed(2);
        let mut t = UShapedTrainer::new(cfg, &data(16, 3)).unwrap();
        t.run_epoch(0);
        // Each leg is one tensor-only frame: 14-byte integrity header,
        // 12-byte payload header, rank byte, u32 dims, f32 values. The
        // smashed activations and their gradient are [16, 8, 8, 8]; the
        // server's features and their gradient are [16, 32].
        let smashed = 14 + 12 + 1 + 4 * 4 + 4 * 16 * 8 * 8 * 8;
        let features = 14 + 12 + 1 + 4 * 2 + 4 * 16 * 32;
        assert_eq!((smashed, features), (32_811, 2_083));
        let comm = t.comm();
        assert_eq!(comm.uplink_bytes, smashed + features);
        assert_eq!(comm.downlink_bytes, features + smashed);
        assert_eq!((comm.uplink_messages, comm.downlink_messages), (2, 2));
    }

    #[test]
    fn training_reduces_loss() {
        let cfg = SplitConfig::tiny(CutPoint(1), 2)
            .epochs(4)
            .seed(3)
            .learning_rate(0.01);
        let train = data(160, 4);
        let test = data(40, 5);
        let mut t = UShapedTrainer::new(cfg, &train).unwrap();
        let report = t.train(&test);
        assert!(
            report.epochs.last().unwrap().train_loss < report.epochs[0].train_loss,
            "loss {:?}",
            report
                .epochs
                .iter()
                .map(|e| e.train_loss)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn rejects_cut_that_leaves_no_middle() {
        // tiny arch: blocks = 3 -> layers = 13, head starts at 12; cut 4
        // exceeds blocks and cut 3 -> lower_end 9 < 12, fine. Construct a
        // degenerate arch where the cut eats everything up to the head.
        let mut cfg = SplitConfig::tiny(CutPoint(3), 1);
        cfg.arch.filters = vec![4]; // 1 block -> layers = 7, head_start = 6
        cfg.cut = CutPoint(1); // lower_end 3 < 6: ok
        assert!(UShapedTrainer::new(cfg.clone(), &data(16, 6)).is_ok());
        // No misconfiguration possible via CutPoint alone here; check the
        // dataset guard instead.
        assert!(UShapedTrainer::new(cfg, &data(0, 7)).is_err());
    }

    fn grads_of(net: &mut Sequential) -> Vec<stsl_tensor::Tensor> {
        let mut v = Vec::new();
        net.visit_params(&mut |p| v.push(p.grad.clone()));
        v
    }

    #[test]
    fn cut_boundary_gradients_match_monolithic_network() {
        use stsl_tensor::init::rng_from_seed;
        use stsl_tensor::Tensor;

        // Build the same seeded network twice: once monolithic, once cut
        // at both U-shaped boundaries (lower/middle and middle/head). A
        // forward/backward through the three segments must reproduce the
        // monolithic run bit for bit — logits, loss, every parameter
        // gradient, and the input gradient that crosses both cuts.
        let cfg = SplitConfig::tiny(CutPoint(2), 1);
        let arch = &cfg.arch;
        let total_layers = 3 * arch.blocks() + 4;
        let lower_end = CutPoint(2).layer_index();
        let head_start = total_layers - 1;
        let seed = 42u64;

        let mut rng = rng_from_seed(77);
        let x = Tensor::randn([4, 3, 16, 16], &mut rng);
        let targets = vec![0usize, 3, 7, 9];
        let loss = SoftmaxCrossEntropy::new();

        let mut full = arch.build(seed);
        full.zero_grads();
        let logits_full = full.forward(&x, Mode::Train);
        let out_full = loss.forward(&logits_full, &targets);
        let dx_full = full.backward(&out_full.grad);

        let (mut lower, rest) = arch.build(seed).split_at(lower_end);
        let (mut middle, mut head) = rest.split_at(head_start - lower_end);
        lower.zero_grads();
        middle.zero_grads();
        head.zero_grads();
        let smashed = lower.forward(&x, Mode::Train);
        let features = middle.forward(&smashed, Mode::Train);
        let logits = head.forward(&features, Mode::Train);
        assert_eq!(logits, logits_full, "split forward drifted");
        let out = loss.forward(&logits, &targets);
        assert_eq!(out.value, out_full.value);
        let dfeatures = head.backward(&out.grad);
        let dsmashed = middle.backward(&dfeatures);
        let dx = lower.backward(&dsmashed);
        assert_eq!(dx, dx_full, "input gradient drifted across the cuts");

        let full_grads = grads_of(&mut full);
        let mut split_grads = grads_of(&mut lower);
        split_grads.extend(grads_of(&mut middle));
        split_grads.extend(grads_of(&mut head));
        assert_eq!(full_grads.len(), split_grads.len());
        for (i, (a, b)) in full_grads.iter().zip(&split_grads).enumerate() {
            assert_eq!(a, b, "parameter gradient {} differs across the cut", i);
        }

        // Gradcheck through the composed pipeline: finite differences on
        // the first lower-layer parameter tensor (the one whose gradient
        // had to travel through both cut boundaries). This architecture
        // has no stochastic or stateful layers, so Eval-mode probes match
        // the Train-mode analytic gradients.
        let lower_grad0 = grads_of(&mut lower)[0].clone();
        let composed_loss =
            |lower: &mut Sequential, middle: &mut Sequential, head: &mut Sequential| -> f32 {
                let s = lower.forward(&x, Mode::Eval);
                let f = middle.forward(&s, Mode::Eval);
                let l = head.forward(&f, Mode::Eval);
                loss.forward(&l, &targets).value
            };
        fn first_param_coord(net: &mut Sequential, ci: usize) -> f32 {
            let mut got = 0.0f32;
            let mut i = 0;
            net.visit_params(&mut |p| {
                if i == 0 {
                    got = p.value.as_slice()[ci];
                }
                i += 1;
            });
            got
        }
        fn set_first_param_coord(net: &mut Sequential, ci: usize, v: f32) {
            let mut i = 0;
            net.visit_params(&mut |p| {
                if i == 0 {
                    p.value.as_mut_slice()[ci] = v;
                }
                i += 1;
            });
        }
        let eps = 1e-2f32;
        for ci in (0..lower_grad0.len()).step_by(lower_grad0.len() / 5) {
            let orig = first_param_coord(&mut lower, ci);
            set_first_param_coord(&mut lower, ci, orig + eps);
            let lp = composed_loss(&mut lower, &mut middle, &mut head);
            set_first_param_coord(&mut lower, ci, orig - eps);
            let lm = composed_loss(&mut lower, &mut middle, &mut head);
            set_first_param_coord(&mut lower, ci, orig);
            let num = (lp - lm) / (2.0 * eps);
            let ana = lower_grad0.as_slice()[ci];
            // Loose tolerance: an f32 central difference through three
            // relu/maxpool stages is coarse near kinks. The bitwise
            // monolithic comparison above is the exact check; this probe
            // only guards against sign/scale errors at the boundary.
            assert!(
                (num - ana).abs() < 1e-1 * (1.0 + num.abs().max(ana.abs())),
                "cut-boundary grad[{}]: {} vs {}",
                ci,
                num,
                ana
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let run = || {
            let cfg = SplitConfig::tiny(CutPoint(2), 2).epochs(1).seed(9);
            let mut t = UShapedTrainer::new(cfg, &data(48, 8)).unwrap();
            t.train(&data(16, 9)).final_accuracy
        };
        assert_eq!(run(), run());
    }
}
