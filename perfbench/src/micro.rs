//! Isolated calls into each layer's public functions, timed at the
//! workload's own shapes (or at the named paper and tiny shapes).

use crate::stats::median;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use stsl_data::ImageDataset;
use stsl_simnet::{EndSystemId, EventQueue, SimDuration, SimTime};
use stsl_split::protocol::{crc32, ActivationMsg, BatchId, GradientMsg};
use stsl_split::{validate_update, ArrivalQueue, FleetJob, GuardConfig, SchedulingPolicy};
use stsl_telemetry::Histogram;
use stsl_tensor::init::rng_from_seed;
use stsl_tensor::ops::conv::{col2im, im2col, ConvSpec};
use stsl_tensor::ops::matmul::{gemm, gemm_a_bt, gemm_at_b};
use stsl_tensor::Tensor;

/// How long each isolated measurement runs.
const BUDGET: Duration = Duration::from_millis(250);

/// Median seconds per call of `f`, over rounds of `per_round` calls
/// repeated for at least [`BUDGET`] and at least five rounds.
fn secs_per_call(per_round: usize, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < 5 || start.elapsed() < BUDGET {
        let t = Instant::now();
        for _ in 0..per_round {
            f();
        }
        rounds.push(t.elapsed().as_secs_f64() / per_round as f64);
    }
    median(&rounds)
}

/// The shapes a workload's isolated calls run at.
#[derive(Debug, Clone)]
pub struct Shapes {
    /// Training mini-batch size.
    pub batch: usize,
    /// Smashed-activation dims of one batch at the cut (the wire frame).
    pub cut_dims: Vec<usize>,
}

/// `(M, K, N)` of the forward, dW and dX GEMMs of every 3×3 "same"
/// convolution of a CNN with `filters` on `side`×`side` RGB input at
/// batch `n`, as `stsl_tensor::ops::conv` lowers them.
fn conv_gemm_dims(filters: &[usize], side: usize, n: usize) -> Vec<[usize; 3]> {
    let mut dims = Vec::new();
    let (mut c, mut s) = (3, side);
    for &oc in filters {
        let (ckk, l) = (c * 9, n * s * s);
        dims.push([oc, ckk, l]); // forward: W · cols
        dims.push([oc, l, ckk]); // dW: dout · colsᵀ
        dims.push([ckk, oc, l]); // dX: Wᵀ · dout
        c = oc;
        s /= 2;
    }
    dims
}

/// GFLOP/s (2·M·K·N per product) over one pass of the conv-lowered GEMMs.
fn gemm_gflops(filters: &[usize], side: usize, n: usize) -> f64 {
    let mut rng = rng_from_seed(11);
    let dims = conv_gemm_dims(filters, side, n);
    let operands: Vec<(Vec<f32>, Vec<f32>)> = dims
        .iter()
        .map(|&[m, k, n]| {
            (
                Tensor::randn([m * k], &mut rng).as_slice().to_vec(),
                Tensor::randn([k * n], &mut rng).as_slice().to_vec(),
            )
        })
        .collect();
    let flops: f64 = dims.iter().map(|d| 2.0 * (d[0] * d[1] * d[2]) as f64).sum();
    let secs = secs_per_call(1, || {
        for (i, (&[m, k, n], (a, b))) in dims.iter().zip(&operands).enumerate() {
            // The three products of one convolution, in lowering order; the
            // operands are sized so each call sees the right lengths.
            let c = match i % 3 {
                0 => gemm(black_box(a), black_box(b), m, k, n),
                1 => gemm_a_bt(black_box(a), black_box(b), m, k, n),
                _ => gemm_at_b(black_box(a), black_box(b), m, k, n),
            };
            black_box(c);
        }
    });
    flops / secs / 1e9
}

/// The first two paper convolutions' inputs at batch 32: `(n, c, side)`.
const PAPER_IM2COL: [(usize, usize, usize); 2] = [(32, 3, 32), (32, 16, 16)];

/// GB/s of `im2col` and `col2im` (bytes read plus bytes written) at the
/// paper conv0 and conv1 shapes.
fn im2col_col2im_gb_s() -> (f64, f64) {
    let spec = ConvSpec::same(3);
    let mut rng = rng_from_seed(12);
    let images: Vec<Tensor> = PAPER_IM2COL
        .iter()
        .map(|&(n, c, s)| Tensor::randn([n, c, s, s], &mut rng))
        .collect();
    let cols: Vec<Tensor> = images.iter().map(|x| im2col(x, spec)).collect();
    let bytes: f64 = images
        .iter()
        .zip(&cols)
        .map(|(x, c)| 4.0 * (x.len() + c.len()) as f64)
        .sum();
    let unfold = secs_per_call(1, || {
        for x in &images {
            black_box(im2col(black_box(x), spec));
        }
    });
    let fold = secs_per_call(1, || {
        for (&(n, c, s), col) in PAPER_IM2COL.iter().zip(&cols) {
            black_box(col2im(black_box(col), n, c, s, s, spec));
        }
    });
    (bytes / unfold / 1e9, bytes / fold / 1e9)
}

/// Encode, decode and CRC throughput (MB/s) of the activation and
/// gradient frames at `cut_dims`; `None` if a frame fails to round-trip.
fn codec_mb_s(cut_dims: &[usize]) -> Option<[f64; 3]> {
    let mut rng = rng_from_seed(13);
    let batch_id = BatchId { epoch: 0, batch: 0 };
    let activation = ActivationMsg {
        from: EndSystemId(0),
        batch_id,
        activations: Tensor::randn(cut_dims.to_vec(), &mut rng),
        targets: (0..cut_dims[0]).map(|i| i % 10).collect(),
    };
    let gradient = GradientMsg {
        to: EndSystemId(0),
        batch_id,
        grad: Tensor::randn(cut_dims.to_vec(), &mut rng),
    };
    let (act_frame, grad_frame) = (activation.encode(), gradient.encode());
    if ActivationMsg::decode(act_frame.clone()).ok()? != activation
        || GradientMsg::decode(grad_frame.clone()).ok()? != gradient
    {
        return None;
    }
    let bytes = (activation.encoded_len() + gradient.encoded_len()) as f64;
    let encode = secs_per_call(4, || {
        black_box(activation.encode());
        black_box(gradient.encode());
    });
    // `decode` consumes its frame; copy the frames outside the timed
    // region so the copy is not billed to the decoder.
    const PER_ROUND: usize = 4;
    let mut rounds = Vec::new();
    let start = Instant::now();
    while rounds.len() < 5 || start.elapsed() < BUDGET {
        let acts = vec![act_frame.clone(); PER_ROUND];
        let grads = vec![grad_frame.clone(); PER_ROUND];
        let t = Instant::now();
        for (a, g) in acts.into_iter().zip(grads) {
            black_box(ActivationMsg::decode(a).is_ok());
            black_box(GradientMsg::decode(g).is_ok());
        }
        rounds.push(t.elapsed().as_secs_f64() / PER_ROUND as f64);
    }
    let decode = median(&rounds);
    let raw: Vec<u8> = act_frame.as_ref().to_vec();
    let crc = secs_per_call(4, || {
        black_box(crc32(black_box(&raw)));
    });
    let mb = 1e6;
    Some([
        bytes / encode / mb,
        bytes / decode / mb,
        raw.len() as f64 / crc / mb,
    ])
}

/// A fixed pseudo-random stream for the queue and histogram inputs.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 33
}

/// Nanoseconds per `pop` + `schedule` with `pending` events held in the
/// queue (the hold model: each popped event is rescheduled up to 200 ms
/// later, the fleet's think-time scale).
fn queue_ns_per_event(pending: usize) -> f64 {
    const HORIZON_US: u64 = 200_000;
    let mut rng = 7u64;
    let mut queue = EventQueue::new();
    for i in 0..pending {
        queue.schedule(SimTime::from_micros(lcg(&mut rng) % HORIZON_US), i);
    }
    let secs = secs_per_call(1_000, || {
        let (at, event) = queue.pop().expect("the queue holds its events");
        let delay = SimDuration::from_micros(1 + lcg(&mut rng) % HORIZON_US);
        queue.schedule(at + delay, black_box(event));
    });
    secs * 1e9
}

/// Nanoseconds per `push_shed` + `pop` on a FIFO fleet ingress queue held
/// at its 4096-job capacity.
fn scheduler_ns() -> f64 {
    const CAPACITY: usize = 4_096;
    let mut queue = ArrivalQueue::new(SchedulingPolicy::Fifo, 8).with_capacity(CAPACITY);
    let job = |i: usize| FleetJob {
        from: EndSystemId(i),
        cohort: (i % 8) as u32,
    };
    for i in 0..CAPACITY {
        queue.push(SimTime::from_micros(i as u64), job(i));
    }
    let mut t = CAPACITY as u64;
    let secs = secs_per_call(1_000, || {
        t += 1;
        let now = SimTime::from_micros(t);
        black_box(queue.push_shed(now, job(t as usize)));
        black_box(queue.pop(now));
    });
    secs * 1e9
}

/// Nanoseconds per `Histogram::record` over values spread across buckets.
fn histogram_record_ns() -> f64 {
    let mut rng = 3u64;
    let values: Vec<u64> = (0..4_096).map(|i| lcg(&mut rng) >> (i % 30)).collect();
    let mut hist = Histogram::new();
    let secs = secs_per_call(1, || {
        for &v in &values {
            hist.record(black_box(v));
        }
    });
    black_box(hist.count());
    secs / values.len() as f64 * 1e9
}

/// Every isolated-call metric, keyed by its per-layer name. `None` when a
/// call returned a wrong result (a failed self-check).
pub fn measure(shapes: &Shapes, train: &ImageDataset) -> Option<BTreeMap<&'static str, f64>> {
    let mut m = BTreeMap::new();
    m.insert(
        "tensor.gemm.paper_gflops",
        gemm_gflops(&[16, 32, 64, 128, 256], 32, 32),
    );
    m.insert("tensor.gemm.tiny_gflops", gemm_gflops(&[8, 16, 32], 16, 16));
    let (unfold, fold) = im2col_col2im_gb_s();
    m.insert("tensor.im2col.gb_s", unfold);
    m.insert("tensor.col2im.gb_s", fold);

    let indices: Vec<usize> = (0..shapes.batch).map(|i| i % train.len()).collect();
    let batch_s = secs_per_call(8, || {
        black_box(train.batch(black_box(&indices)));
    });
    m.insert("data.batch_ms", batch_s * 1e3);

    let [encode, decode, crc] = codec_mb_s(&shapes.cut_dims)?;
    m.insert("split.codec.encode_mb_s", encode);
    m.insert("split.codec.decode_mb_s", decode);
    m.insert("split.codec.crc_mb_s", crc);

    let activations = Tensor::randn(shapes.cut_dims.clone(), &mut rng_from_seed(14));
    let max_rms = GuardConfig::default().max_activation_rms;
    validate_update(&activations, max_rms).ok()?;
    let validate = secs_per_call(8, || {
        black_box(validate_update(black_box(&activations), max_rms).is_ok());
    });
    m.insert("split.guard.validate_us", validate * 1e6);
    m.insert("split.scheduler.push_pop_ns", scheduler_ns());

    m.insert(
        "simnet.queue.deep_ns_per_event",
        queue_ns_per_event(100_000),
    );
    m.insert("simnet.queue.shallow_ns_per_event", queue_ns_per_event(16));
    m.insert("telemetry.histogram.record_ns", histogram_record_ns());

    let join = secs_per_call(100, || {
        black_box(stsl_parallel::join(|| black_box(1), || black_box(2)));
    });
    m.insert("parallel.join_us", join * 1e6);
    Some(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_gemm_dims_follow_the_lowering() {
        // Tiny CNN at batch 2 on 16×16: conv0 maps 3→8 channels at 16×16.
        let dims = conv_gemm_dims(&[8, 16], 16, 2);
        assert_eq!(dims[0], [8, 27, 512]);
        assert_eq!(dims[1], [8, 512, 27]);
        assert_eq!(dims[2], [27, 8, 512]);
        // conv1 maps 8→16 channels at 8×8.
        assert_eq!(dims[3], [16, 72, 128]);
        // Every product of one convolution does the same multiply-adds.
        for conv in dims.chunks(3) {
            let macs: Vec<usize> = conv.iter().map(|d| d[0] * d[1] * d[2]).collect();
            assert!(macs.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn codec_round_trips_the_tiny_frame() {
        let rates = codec_mb_s(&[16, 8, 8, 8]).expect("frames round-trip");
        assert!(rates.iter().all(|r| r.is_finite() && *r > 0.0));
    }
}
