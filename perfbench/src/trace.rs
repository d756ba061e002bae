//! In-memory spans, the layer wrappers that record them, and the
//! interval arithmetic (self time, union coverage) the per-layer metrics
//! are computed with.
//!
//! Spans are recorded from the benchmark's own code: the `Layer` trait is
//! object-safe, so every layer of a client or server `Sequential` can be
//! peeled off with `split_at(1)`, wrapped in a [`TimedLayer`], and the
//! whole stack wrapped once more in a [`TimedModel`]. Parameter order is
//! unchanged, so training through the wrappers is bitwise identical.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use stsl_nn::{Layer, Mode, ParamView, Sequential};
use stsl_tensor::Tensor;

/// Where in the call tree a span sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The whole traced run.
    Root,
    /// One trainer call (`run_epoch`, `evaluate`, `run`).
    Phase,
    /// One pass through a client or server model.
    Model,
    /// One pass through a single layer (or its parameter visit).
    Layer,
}

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: Arc<str>,
    pub level: Level,
    /// Benchmark-assigned thread number (1 = first thread that recorded).
    pub thread: u64,
    /// Batch or step id: the wrapped model's training-pass count.
    pub step: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_NO: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from every thread; written out once the run ends.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    next_id: AtomicU64,
    /// Id of the open root span (0 = none). Spans opened on a thread with
    /// nothing open (pool workers) take it as their parent. Only an id is
    /// published, and workers are spawned after it is stored, so relaxed
    /// ordering suffices.
    root: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            root: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(self: &Arc<Self>, name: &Arc<str>, level: Level, step: u64) -> SpanGuard {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN
            .with(|open| {
                let mut open = open.borrow_mut();
                let parent = open.last().copied();
                open.push(id);
                parent
            })
            .or(match self.root.load(Ordering::Relaxed) {
                0 => None,
                root => Some(root),
            });
        if level == Level::Root {
            self.root.store(id, Ordering::Relaxed);
        }
        SpanGuard {
            rec: Arc::clone(self),
            id,
            parent,
            name: Arc::clone(name),
            level,
            step,
            start_ns: self.now_ns(),
        }
    }

    /// Every closed span, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span store poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// An open span; records itself when dropped.
pub struct SpanGuard {
    rec: Arc<Recorder>,
    id: u64,
    parent: Option<u64>,
    name: Arc<str>,
    level: Level,
    step: u64,
    start_ns: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end_ns = self.rec.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if open.last() == Some(&self.id) {
                open.pop();
            }
        });
        if self.level == Level::Root {
            self.rec.root.store(0, Ordering::Relaxed);
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: Arc::clone(&self.name),
            level: self.level,
            thread: THREAD_NO.with(|t| *t),
            step: self.step,
            start_ns: self.start_ns,
            end_ns,
        };
        // A poisoned store only loses this span; never panic in drop.
        if let Ok(mut spans) = self.rec.spans.lock() {
            spans.push(span);
        }
    }
}

/// Span names of one wrapped layer or model.
#[derive(Debug)]
struct Names {
    fwd: Arc<str>,
    bwd: Arc<str>,
    eval: Arc<str>,
    /// Parameter visits (optimizer step, gradient norms); `None` for
    /// parameter-free layers.
    param: Option<Arc<str>>,
}

impl Names {
    fn new(prefix: &str, has_params: bool) -> Self {
        Names {
            fwd: format!("{prefix}.fwd").into(),
            bwd: format!("{prefix}.bwd").into(),
            eval: format!("{prefix}.eval").into(),
            param: has_params.then(|| format!("{prefix}.param").into()),
        }
    }
}

/// One layer (held as a one-layer `Sequential`) behind a timer.
#[derive(Debug)]
struct TimedLayer {
    inner: Sequential,
    kind: &'static str,
    names: Names,
    rec: Arc<Recorder>,
    passes: u64,
}

impl Layer for TimedLayer {
    fn name(&self) -> &'static str {
        self.kind
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let name = match mode {
            Mode::Train => {
                self.passes += 1;
                &self.names.fwd
            }
            Mode::Eval => &self.names.eval,
        };
        let _span = self.rec.span(name, Level::Layer, self.passes);
        // Call the layer itself: `Sequential::forward` would clone the
        // input first and bill the copy to this layer.
        let mut out = None;
        self.inner
            .visit_layers(&mut |layer| out = Some(layer.forward(input, mode)));
        out.expect("a timed layer wraps exactly one layer")
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        let _span = self.rec.span(&self.names.bwd, Level::Layer, self.passes);
        let mut out = None;
        self.inner
            .visit_layers(&mut |layer| out = Some(layer.backward(dout)));
        out.expect("a timed layer wraps exactly one layer")
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamView<'_>)) {
        let _span = self
            .names
            .param
            .as_ref()
            .map(|name| self.rec.span(name, Level::Layer, self.passes));
        self.inner.visit_params(f);
    }

    fn zero_grads(&mut self) {
        self.inner.zero_grads();
    }

    fn param_tensors(&mut self) -> Vec<Tensor> {
        self.inner.state_dict()
    }

    fn load_param_tensors(&mut self, src: &[Tensor]) -> usize {
        load_layers(&mut self.inner, src)
    }

    fn param_count(&mut self) -> usize {
        self.inner.param_count()
    }

    fn output_dims(&self, input_dims: &[usize]) -> Vec<usize> {
        self.inner.output_dims(input_dims)
    }
}

/// A whole client or server model behind a timer; its layers are
/// [`TimedLayer`]s, so their spans nest inside the model's.
#[derive(Debug)]
struct TimedModel {
    inner: Sequential,
    names: Names,
    rec: Arc<Recorder>,
    passes: u64,
}

impl Layer for TimedModel {
    fn name(&self) -> &'static str {
        "timed_model"
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let name = match mode {
            Mode::Train => {
                self.passes += 1;
                &self.names.fwd
            }
            Mode::Eval => &self.names.eval,
        };
        let _span = self.rec.span(name, Level::Model, self.passes);
        self.inner.forward(input, mode)
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        let _span = self.rec.span(&self.names.bwd, Level::Model, self.passes);
        self.inner.backward(dout)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamView<'_>)) {
        self.inner.visit_params(f);
    }

    fn zero_grads(&mut self) {
        self.inner.zero_grads();
    }

    fn param_tensors(&mut self) -> Vec<Tensor> {
        self.inner.state_dict()
    }

    fn load_param_tensors(&mut self, src: &[Tensor]) -> usize {
        load_layers(&mut self.inner, src)
    }

    fn param_count(&mut self) -> usize {
        self.inner.param_count()
    }

    fn output_dims(&self, input_dims: &[usize]) -> Vec<usize> {
        self.inner.output_dims(input_dims)
    }
}

/// `Layer::load_param_tensors` over every layer of `model`, returning the
/// number of tensors consumed.
fn load_layers(model: &mut Sequential, src: &[Tensor]) -> usize {
    let mut used = 0;
    model.visit_layers(&mut |layer| used += layer.load_param_tensors(&src[used..]));
    used
}

/// The metric stem a layer's spans are named by: `conv<i>` with `i` the
/// convolution's index in the full network, else the layer family.
fn layer_stem(kind: &str, next_conv: &mut usize) -> String {
    match kind {
        "conv2d" => {
            *next_conv += 1;
            format!("conv{}", *next_conv - 1)
        }
        "maxpool2d" | "avgpool2d" => "pool".to_string(),
        other => other.to_string(),
    }
}

/// Wraps every layer of `model` in place. `role` names the model-level
/// spans (`server`, `client3`); `first_conv` is the index, in the full
/// network, of the model's first convolution.
pub fn wrap_model(model: &mut Sequential, rec: &Arc<Recorder>, role: &str, first_conv: usize) {
    let mut rest = std::mem::take(model);
    let mut timed = Sequential::new();
    let mut next_conv = first_conv;
    while !rest.is_empty() {
        let (mut one, tail) = rest.split_at(1);
        rest = tail;
        let kind = one.layer_names()[0];
        let stem = layer_stem(kind, &mut next_conv);
        let has_params = one.param_count() > 0;
        timed.push_boxed(Box::new(TimedLayer {
            inner: one,
            kind,
            names: Names::new(&stem, has_params),
            rec: Arc::clone(rec),
            passes: 0,
        }));
    }
    model.push_boxed(Box::new(TimedModel {
        inner: timed,
        names: Names::new(role, false),
        rec: Arc::clone(rec),
        passes: 0,
    }));
}

/// Total length of the union of `[start, end)` intervals, each clipped to
/// `window`.
pub fn union_ns(intervals: impl IntoIterator<Item = (u64, u64)>, window: (u64, u64)) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .into_iter()
        .map(|(s, e)| (s.max(window.0), e.min(window.1)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// A span's duration minus the part of it its children cover.
pub fn self_time_ns(span: &Span, spans: &[Span]) -> u64 {
    let children = spans
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| (c.start_ns, c.end_ns));
    span.duration_ns() - union_ns(children, (span.start_ns, span.end_ns))
}

/// Writes the spans as CSV (`id,parent,name,level,thread,step,start_ns,end_ns,self_ns`).
pub fn write_csv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "id,parent,name,level,thread,step,start_ns,end_ns,self_ns"
    )?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{:?},{},{},{},{},{}",
            s.id,
            s.parent.map_or(String::new(), |p| p.to_string()),
            s.name,
            s.level,
            s.thread,
            s.step,
            s.start_ns,
            s.end_ns,
            self_time_ns(s, spans)
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stsl_data::SyntheticCifar;
    use stsl_split::{CutPoint, SpatioTemporalTrainer, SplitConfig};

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s".into(),
            level: Level::Layer,
            thread: 1,
            step: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips_to_the_window() {
        assert_eq!(union_ns([(0, 10), (5, 15), (20, 30)], (0, 100)), 25);
        assert_eq!(union_ns([(0, 10), (10, 20)], (0, 100)), 20);
        assert_eq!(union_ns([(0, 50)], (10, 20)), 10);
        assert_eq!(union_ns([(30, 40)], (0, 20)), 0);
        assert_eq!(union_ns(Vec::new(), (0, 20)), 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_once() {
        // Two children overlap on [30, 40); a grandchild must not count.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
            span(4, Some(2), 12, 20),
        ];
        assert_eq!(self_time_ns(&spans[0], &spans), 50);
        assert_eq!(self_time_ns(&spans[1], &spans), 22);
        assert_eq!(self_time_ns(&spans[3], &spans), 8);
    }

    #[test]
    fn nested_spans_record_parents_and_fall_back_to_the_root() {
        let rec = Recorder::new();
        let (root, model, layer): (Arc<str>, Arc<str>, Arc<str>) =
            ("root".into(), "model".into(), "layer".into());
        {
            let _r = rec.span(&root, Level::Root, 0);
            {
                let _m = rec.span(&model, Level::Model, 1);
                let _l = rec.span(&layer, Level::Layer, 1);
            }
            std::thread::scope(|s| {
                s.spawn(|| drop(rec.span(&layer, Level::Layer, 2)));
            });
        }
        let spans = rec.spans();
        let id = |name: &str, step: u64| {
            spans
                .iter()
                .find(|s| &*s.name == name && s.step == step)
                .expect("span recorded")
        };
        let root_id = id("root", 0).id;
        assert_eq!(id("root", 0).parent, None);
        assert_eq!(id("model", 1).parent, Some(root_id));
        assert_eq!(id("layer", 1).parent, Some(id("model", 1).id));
        // A worker thread with nothing open hangs its span off the root.
        assert_eq!(id("layer", 2).parent, Some(root_id));
        assert_ne!(id("layer", 2).thread, id("layer", 1).thread);
    }

    fn tiny_trainer() -> SpatioTemporalTrainer {
        let train = SyntheticCifar::new(3)
            .difficulty(0.05)
            .generate_sized(64, 16);
        let cfg = SplitConfig::tiny(CutPoint(1), 2).batch_size(8).seed(4);
        SpatioTemporalTrainer::new(cfg, &train).expect("valid config")
    }

    fn params(t: &mut SpatioTemporalTrainer) -> Vec<u32> {
        let mut bits = Vec::new();
        for c in t.clients_mut() {
            for p in c.model_mut().state_dict() {
                bits.extend(p.as_slice().iter().map(|v| v.to_bits()));
            }
        }
        for p in t.server_mut().model_mut().state_dict() {
            bits.extend(p.as_slice().iter().map(|v| v.to_bits()));
        }
        bits
    }

    #[test]
    fn wrapped_models_train_bitwise_identically() {
        let test = SyntheticCifar::new(9)
            .difficulty(0.05)
            .generate_sized(16, 16);
        let mut plain = tiny_trainer();
        let mut timed = tiny_trainer();
        let rec = Recorder::new();
        for (i, c) in timed.clients_mut().iter_mut().enumerate() {
            wrap_model(c.model_mut(), &rec, &format!("client{i}"), 0);
        }
        wrap_model(timed.server_mut().model_mut(), &rec, "server", 1);
        for epoch in 0..2 {
            let (a, b) = (plain.run_epoch(epoch), timed.run_epoch(epoch));
            assert_eq!(a.0.to_bits(), b.0.to_bits(), "loss, epoch {epoch}");
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "accuracy, epoch {epoch}");
        }
        assert_eq!(
            plain.evaluate(&test).to_bits(),
            timed.evaluate(&test).to_bits()
        );
        assert_eq!(params(&mut plain), params(&mut timed));
        let spans = rec.spans();
        for name in [
            "conv0.fwd",
            "conv1.bwd",
            "relu.fwd",
            "pool.bwd",
            "dense.param",
        ] {
            assert!(spans.iter().any(|s| &*s.name == name), "no {name} span");
        }
        // Layer spans nest inside model spans.
        let conv1 = spans.iter().find(|s| &*s.name == "conv1.fwd").unwrap();
        let parent = spans.iter().find(|s| Some(s.id) == conv1.parent).unwrap();
        assert_eq!(&*parent.name, "server.fwd");
    }
}
