//! Model-inversion attack on smashed activations.
//!
//! The honest-but-curious server sees cut-layer activations. To quantify
//! how much of the raw image they leak (experiment E3, backing the
//! qualitative Fig. 4), we train a linear decoder on an *auxiliary*
//! dataset of (activation, image) pairs — the standard
//! regression-inversion attack from the split-learning privacy
//! literature — then measure reconstruction fidelity (PSNR / SSIM /
//! distance correlation) on held-out victims. Deeper cuts destroy more
//! information and yield worse reconstructions: privacy and Table I's
//! accuracy trade off in opposite directions.

use crate::metrics::{distance_correlation, mse, psnr, ssim_global};
use stsl_data::ImageDataset;
use stsl_nn::layers::Dense;
use stsl_nn::loss::MseLoss;
use stsl_nn::optim::{Adam, Optimizer};
use stsl_nn::{Layer, Mode};
use stsl_tensor::Tensor;

/// A trained linear decoder from smashed activations back to images.
#[derive(Debug)]
pub struct InversionAttack {
    decoder: Dense,
    image_dims: Vec<usize>,
}

/// Fidelity of reconstructions on a victim set.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LeakageReport {
    /// Mean squared error of reconstructions.
    pub mse: f32,
    /// Peak signal-to-noise ratio (dB); higher = more leakage.
    pub psnr_db: f32,
    /// Global SSIM; higher = more leakage.
    pub ssim: f32,
    /// Distance correlation between raw images and smashed activations;
    /// higher = more statistical dependence = more leakage.
    pub dcor: f32,
}

impl InversionAttack {
    /// Trains the decoder: `encode` is the attacker's oracle access to the
    /// victim's encoder (query-only, as in the honest-but-curious server
    /// threat model), `aux` is public auxiliary data from a similar
    /// distribution.
    ///
    /// # Panics
    ///
    /// Panics if `aux` is empty or `epochs == 0`.
    pub fn train(
        mut encode: impl FnMut(&Tensor) -> Tensor,
        aux: &ImageDataset,
        epochs: usize,
        lr: f32,
        seed: u64,
    ) -> Self {
        assert!(!aux.is_empty(), "auxiliary dataset is empty");
        assert!(epochs > 0, "need at least one epoch");
        let (c, h, w) = aux.image_dims();
        let image_dims = vec![c, h, w];
        let image_len = c * h * w;
        // Probe the code width with one sample.
        let probe = encode(&aux.image(0).reshape([1, c, h, w]));
        let code_len = probe.len();
        let mut decoder = Dense::new(code_len, image_len, seed);
        let mut opt = Adam::new(lr);
        let loss = MseLoss::new();
        let batch = 16usize;
        for _epoch in 0..epochs {
            let mut start = 0;
            while start < aux.len() {
                let end = (start + batch).min(aux.len());
                let indices: Vec<usize> = (start..end).collect();
                let (images, _) = aux.batch(&indices);
                let n = indices.len();
                let codes = encode(&images).reshape([n, code_len]);
                let flat_targets = images.reshape([n, image_len]);
                decoder.zero_grads();
                let recon = decoder.forward(&codes, Mode::Train);
                let out = loss.dense(&recon, &flat_targets);
                decoder.backward_params(&out.grad);
                let mut param_id = 0usize;
                decoder.visit_params(&mut |p| {
                    opt.update(param_id, p.value, p.grad);
                    param_id += 1;
                });
                opt.finish_step();
                start = end;
            }
        }
        InversionAttack {
            decoder,
            image_dims,
        }
    }

    /// Reconstructs images from a batch of smashed activations.
    pub fn reconstruct(&mut self, codes: &Tensor) -> Tensor {
        let n = codes.dim(0);
        let code_len = codes.len() / n;
        let flat = self
            .decoder
            .forward(&codes.reshape([n, code_len]), Mode::Eval);
        let mut dims = vec![n];
        dims.extend_from_slice(&self.image_dims);
        flat.reshape(dims)
    }

    /// Measures reconstruction fidelity on a victim set.
    pub fn measure(
        &mut self,
        mut encode: impl FnMut(&Tensor) -> Tensor,
        victims: &ImageDataset,
    ) -> LeakageReport {
        assert!(!victims.is_empty(), "victim dataset is empty");
        let indices: Vec<usize> = (0..victims.len()).collect();
        let (images, _) = victims.batch(&indices);
        let codes = encode(&images);
        let n = images.dim(0);
        let recon = self.reconstruct(&codes);
        LeakageReport {
            mse: mse(&images, &recon),
            psnr_db: psnr(&images, &recon, 1.0),
            ssim: ssim_global(&images, &recon),
            dcor: distance_correlation(
                &images.reshape([n, images.len() / n]),
                &codes.reshape([n, codes.len() / n]),
            ),
        }
    }
}

/// Trains an attack and measures leakage in one call (the E3 sweep body).
pub fn measure_leakage(
    mut encode: impl FnMut(&Tensor) -> Tensor,
    aux: &ImageDataset,
    victims: &ImageDataset,
    epochs: usize,
    seed: u64,
) -> LeakageReport {
    let mut attack = InversionAttack::train(&mut encode, aux, epochs, 1e-2, seed);
    attack.measure(&mut encode, victims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stsl_data::SyntheticCifar;
    use stsl_nn::layers::{Conv2d, MaxPool2d, Relu};
    use stsl_nn::Sequential;

    fn encoder(blocks: usize, seed: u64) -> Sequential {
        let mut m = Sequential::new();
        let mut in_c = 3;
        for b in 0..blocks {
            let out_c = 8 << b;
            m.push(Conv2d::new(in_c, out_c, 3, seed + b as u64));
            m.push(Relu::new());
            m.push(MaxPool2d::new(2));
            in_c = out_c;
        }
        m
    }

    fn aux_and_victims() -> (ImageDataset, ImageDataset) {
        let aux = SyntheticCifar::new(10)
            .difficulty(0.05)
            .generate_sized(80, 16);
        let victims = SyntheticCifar::new(20)
            .difficulty(0.05)
            .generate_sized(24, 16);
        (aux, victims)
    }

    #[test]
    fn identity_encoder_reconstructs_nearly_perfectly() {
        // The regression needs more auxiliary samples than pixel dims to
        // be well-posed, so use small 8×8 images (192 dims, 600 samples).
        let aux = SyntheticCifar::new(10)
            .difficulty(0.05)
            .generate_sized(600, 8);
        let victims = SyntheticCifar::new(20)
            .difficulty(0.05)
            .generate_sized(24, 8);
        let report = measure_leakage(|x| x.clone(), &aux, &victims, 15, 0);
        assert!(report.psnr_db > 14.0, "psnr {}", report.psnr_db);
        assert!(report.dcor > 0.9, "dcor {}", report.dcor);
    }

    #[test]
    fn reconstruction_shape_matches_images() {
        let (aux, victims) = aux_and_victims();
        let mut enc = encoder(1, 0);
        let mut attack = InversionAttack::train(|x| enc.forward(x, Mode::Eval), &aux, 2, 1e-3, 0);
        let (images, _) = victims.batch(&[0, 1, 2]);
        let codes = enc.forward(&images, Mode::Eval);
        let recon = attack.reconstruct(&codes);
        assert_eq!(recon.dims(), images.dims());
    }

    #[test]
    fn deeper_cuts_leak_less() {
        let (aux, victims) = aux_and_victims();
        let mut shallow = encoder(1, 5);
        let mut deep = encoder(3, 5);
        let r_shallow = measure_leakage(|x| shallow.forward(x, Mode::Eval), &aux, &victims, 20, 1);
        let r_deep = measure_leakage(|x| deep.forward(x, Mode::Eval), &aux, &victims, 20, 1);
        assert!(
            r_shallow.psnr_db > r_deep.psnr_db,
            "shallow {} dB should leak more than deep {} dB",
            r_shallow.psnr_db,
            r_deep.psnr_db
        );
        assert!(
            r_shallow.dcor >= r_deep.dcor - 0.05,
            "dcor shallow {} vs deep {}",
            r_shallow.dcor,
            r_deep.dcor
        );
    }

    #[test]
    #[should_panic(expected = "auxiliary dataset is empty")]
    fn empty_aux_rejected() {
        let victims = SyntheticCifar::new(0).generate_sized(4, 16);
        let empty = victims.subset(&[]);
        InversionAttack::train(|x| x.clone(), &empty, 1, 1e-3, 0);
    }
}
