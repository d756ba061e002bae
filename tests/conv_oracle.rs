//! The sample-blocked convolution against the allocating path it
//! replaced, bit for bit.
//!
//! `oracle_forward` and `oracle_backward` are the earlier
//! `conv2d_forward`/`conv2d_backward`, kept here verbatim in structure:
//! one `im2col` of the whole batch, one GEMM into `[oc, n·h·w]` and a
//! reorder into NCHW; then a `dflat` copy of `dout`, `gemm_a_bt` for dW,
//! a row sum for db, `gemm_at_b` for the whole `[c·k·k, n·h·w]` column
//! gradient and one `col2im`. The shapes below are the awkward ones for
//! blocking: feature maps whose `h·w` neither divides nor is divided by
//! the 256-column panel, `c·k·k` above one panel, batches that leave a
//! ragged last block, stride 2 and valid padding. Every case runs on both
//! backends at 1, 2 and 4 threads.
//!
//! The layer-level tests drive one `Conv2d` through changing batch sizes
//! with evaluations interleaved (stale-scratch bugs), and check that
//! `backward_params` leaves the same parameter gradients as `backward`.

use spatio_temporal_split_learning::nn::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
use spatio_temporal_split_learning::nn::{Layer, Mode, Sequential};
use spatio_temporal_split_learning::parallel::with_threads;
use spatio_temporal_split_learning::tensor::init::rng_from_seed;
use spatio_temporal_split_learning::tensor::ops::conv::{
    col2im, conv2d_backward, conv2d_forward, im2col, ConvSpec, ConvWorkspace,
};
use spatio_temporal_split_learning::tensor::ops::matmul::{gemm, gemm_a_bt, gemm_at_b};
use spatio_temporal_split_learning::tensor::{with_backend, Backend, Tensor};

const BACKENDS: [Backend; 2] = [Backend::Reference, Backend::Blocked];

/// The earlier forward: output `[n, oc, oh, ow]` and columns `[ckk, l]`.
fn oracle_forward(x: &Tensor, w: &Tensor, b: &Tensor, spec: ConvSpec) -> (Tensor, Tensor) {
    let (n, c, h, wd) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    let oc = w.dim(0);
    let (oh, ow) = spec.output_hw(h, wd).unwrap();
    let cols = im2col(x, spec);
    let ckk = c * spec.kh * spec.kw;
    let hw = oh * ow;
    let l = n * hw;
    let flat = gemm(w.as_slice(), cols.as_slice(), oc, ckk, l);
    let mut out = vec![0.0f32; n * oc * hw];
    for ni in 0..n {
        for o in 0..oc {
            let bias = b.as_slice()[o];
            for p in 0..hw {
                out[(ni * oc + o) * hw + p] = flat[o * l + ni * hw + p] + bias;
            }
        }
    }
    (Tensor::from_vec(out, [n, oc, oh, ow]), cols)
}

/// The earlier backward: `(dinput, dweight, dbias)`.
fn oracle_backward(
    dout: &Tensor,
    cols: &Tensor,
    w: &Tensor,
    (n, c, h, wd): (usize, usize, usize, usize),
    spec: ConvSpec,
) -> (Tensor, Tensor, Tensor) {
    let oc = w.dim(0);
    let (oh, ow) = spec.output_hw(h, wd).unwrap();
    let hw = oh * ow;
    let l = n * hw;
    let ckk = c * spec.kh * spec.kw;
    let ds = dout.as_slice();
    let mut dflat = vec![0.0f32; oc * l];
    for o in 0..oc {
        for ni in 0..n {
            dflat[o * l + ni * hw..][..hw].copy_from_slice(&ds[(ni * oc + o) * hw..][..hw]);
        }
    }
    let dw = gemm_a_bt(&dflat, cols.as_slice(), oc, l, ckk);
    let db: Vec<f32> = (0..oc)
        .map(|o| dflat[o * l..(o + 1) * l].iter().sum())
        .collect();
    let dcols = gemm_at_b(w.as_slice(), &dflat, ckk, oc, l);
    let dinput = col2im(&Tensor::from_vec(dcols, [ckk, l]), n, c, h, wd, spec);
    (
        dinput,
        Tensor::from_vec(dw, [oc, c, spec.kh, spec.kw]),
        Tensor::from_vec(db, [oc]),
    )
}

/// What the earlier `Conv2d` accumulated into zeroed gradients:
/// `zeros.axpy(1.0, grad)`.
fn accumulated(grad: &Tensor) -> Tensor {
    let mut acc = Tensor::zeros(grad.shape().clone());
    acc.axpy(1.0, grad);
    acc
}

/// `(batch, in_channels, side, out_channels, spec)`.
type Case = (usize, usize, usize, usize, ConvSpec);

fn cases() -> Vec<Case> {
    let stride2 = ConvSpec {
        kh: 3,
        kw: 3,
        stride: 2,
        pad: 1,
    };
    let same3 = ConvSpec::same(3);
    vec![
        // h·w = 25: 13 samples leave a ragged last block.
        (13, 3, 5, 6, same3),
        // h·w = 49 with c·k·k = 288 > 256.
        (7, 32, 7, 9, same3),
        // h·w = 289, more than one 256-column panel per sample.
        (3, 2, 17, 5, same3),
        // Valid padding: 13×13 output from 17×17, c·k·k = 300.
        (5, 12, 17, 4, ConvSpec::valid(5)),
        // Stride 2 with padding: 9×9 -> 5×5.
        (6, 4, 9, 7, stride2),
        // Paper-like conv1 at a small batch: h·w = 256.
        (3, 16, 16, 32, same3),
        // h·w = 4: every 8-column strip straddles two samples.
        (9, 8, 2, 16, same3),
    ]
}

#[test]
fn blocked_conv_matches_the_allocating_oracle_bitwise() {
    for (ci, case) in cases().into_iter().enumerate() {
        let mut rng = rng_from_seed(900 + ci as u64);
        let (n, c, side, oc, spec) = case;
        let x = Tensor::randn([n, c, side, side], &mut rng);
        let w = Tensor::randn([oc, c, spec.kh, spec.kw], &mut rng);
        let b = Tensor::randn([oc], &mut rng);
        let (oh, ow) = spec.output_hw(side, side).unwrap();
        let dout = Tensor::randn([n, oc, oh, ow], &mut rng);
        let (hw, ckk) = (oh * ow, c * spec.kh * spec.kw);
        for backend in BACKENDS {
            let (want_out, want_cols, want_dx, want_dw, want_db) = with_backend(backend, || {
                with_threads(1, || {
                    let (out, cols) = oracle_forward(&x, &w, &b, spec);
                    let (dx, dw, db) = oracle_backward(&dout, &cols, &w, (n, c, side, side), spec);
                    (out, cols, dx, accumulated(&dw), accumulated(&db))
                })
            });
            for threads in [1usize, 2, 4] {
                let label = format!("case {ci} [{}] at {threads} threads", backend.name());
                with_backend(backend, || {
                    with_threads(threads, || {
                        let mut ws = ConvWorkspace::new();
                        let out = conv2d_forward(&x, &w, &b, spec, true, &mut ws).unwrap();
                        assert_eq!(out, want_out, "{label}: output");
                        // Sample-major columns hold the same entries.
                        let cols = ws.cols();
                        for s in 0..n {
                            for r in 0..ckk {
                                assert_eq!(
                                    &cols[(s * ckk + r) * hw..][..hw],
                                    &want_cols.as_slice()[r * n * hw + s * hw..][..hw],
                                    "{label}: columns"
                                );
                            }
                        }
                        let mut dw = Tensor::zeros(w.shape().clone());
                        let mut db = Tensor::zeros(b.shape().clone());
                        let dx = conv2d_backward(&dout, &w, spec, &mut ws, &mut dw, &mut db, true);
                        assert_eq!(dx.as_ref(), Some(&want_dx), "{label}: dX");
                        assert_eq!(dw, want_dw, "{label}: dW");
                        assert_eq!(db, want_db, "{label}: db");
                    })
                });
            }
        }
    }
}

/// A conv layer with the weights of `template`.
fn clone_conv(template: &mut Conv2d, seed: u64) -> Conv2d {
    let mut fresh = Conv2d::with_spec(
        template.in_channels(),
        template.out_channels(),
        template.spec(),
        seed,
    );
    fresh.load_param_tensors(&template.param_tensors());
    fresh
}

fn grads(layer: &mut dyn Layer) -> Vec<Tensor> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| out.push(p.grad.clone()));
    out
}

#[test]
fn reused_conv_buffers_match_a_fresh_layer_across_batch_sizes() {
    for backend in BACKENDS {
        for threads in [1usize, 2] {
            with_backend(backend, || {
                with_threads(threads, || {
                    let mut rng = rng_from_seed(77);
                    let mut reused = Conv2d::new(3, 8, 3, 5);
                    let probe = Tensor::randn([5, 3, 16, 16], &mut rng);
                    for (step, batch) in [32usize, 7, 32].into_iter().enumerate() {
                        let x = Tensor::randn([batch, 3, 16, 16], &mut rng);
                        let dout = Tensor::randn([batch, 8, 16, 16], &mut rng);
                        let mut fresh = clone_conv(&mut reused, 1000);
                        let label = format!("step {step} [{}] {threads}t", backend.name());

                        reused.zero_grads();
                        let y = reused.forward(&x, Mode::Train);
                        // An evaluation between a train forward and its
                        // backward must leave the saved columns alone.
                        let e = reused.forward(&probe, Mode::Eval);
                        let dx = reused.backward(&dout);

                        let want_e = clone_conv(&mut reused, 1001).forward(&probe, Mode::Eval);
                        let want_y = fresh.forward(&x, Mode::Train);
                        let want_dx = fresh.backward(&dout);
                        assert_eq!(y, want_y, "{label}: train forward");
                        assert_eq!(e, want_e, "{label}: eval forward");
                        assert_eq!(dx, want_dx, "{label}: dX");
                        assert_eq!(grads(&mut reused), grads(&mut fresh), "{label}: grads");

                        // And the params-only pass on the same buffers.
                        reused.zero_grads();
                        reused.forward(&x, Mode::Train);
                        reused.backward_params(&dout);
                        assert_eq!(grads(&mut reused), grads(&mut fresh), "{label}: params");
                    }
                })
            });
        }
    }
}

/// Conv → ReLU → pool → conv → ReLU → pool → flatten → dense.
fn small_cnn(seed: u64) -> Sequential {
    let mut net = Sequential::new();
    net.push(Conv2d::new(3, 4, 3, seed));
    net.push(Relu::new());
    net.push(MaxPool2d::new(2));
    net.push(Conv2d::new(4, 8, 3, seed + 1));
    net.push(Relu::new());
    net.push(MaxPool2d::new(2));
    net.push(Flatten::new());
    net.push(Dense::new(8 * 2 * 2, 5, seed + 2));
    net
}

fn all_grads(net: &mut Sequential) -> Vec<Tensor> {
    let mut out = Vec::new();
    net.visit_params(&mut |p| out.push(p.grad.clone()));
    out
}

#[test]
fn backward_params_leaves_the_gradients_backward_leaves() {
    let mut rng = rng_from_seed(31);
    let x = Tensor::randn([6, 3, 8, 8], &mut rng);
    for backend in BACKENDS {
        with_backend(backend, || {
            // One layer: the conv is both first and last.
            let mut full = Sequential::new();
            full.push(Conv2d::new(3, 4, 3, 9));
            let mut lean = Sequential::new();
            lean.push(Conv2d::new(3, 4, 3, 9));
            let dout = Tensor::randn([6, 4, 8, 8], &mut rng_from_seed(32));
            full.forward(&x, Mode::Train);
            full.backward(&dout);
            lean.forward(&x, Mode::Train);
            lean.backward_params(&dout);
            assert_eq!(all_grads(&mut full), all_grads(&mut lean), "one layer");

            // Several layers: only the first skips its input gradient.
            let mut full = small_cnn(40);
            let mut lean = small_cnn(40);
            let dlogits = Tensor::randn([6, 5], &mut rng_from_seed(33));
            full.forward(&x, Mode::Train);
            full.backward(&dlogits);
            lean.forward(&x, Mode::Train);
            lean.backward_params(&dlogits);
            assert_eq!(all_grads(&mut full), all_grads(&mut lean), "multi-layer");
        });
    }
}
