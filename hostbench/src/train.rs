//! The training workloads: the real `ThreadEngine` on HEP (hybrid
//! sync/async) and on the semi-supervised climate net, plus a short
//! compute-bound HEP probe that traced runs use for the HEP layers.
//!
//! A run is a sequence of *chunks*. Each chunk sets the workload up from
//! nothing — generates one of the seed's training sets, builds the
//! model, starts the engine and its parameter-server bank — and trains a
//! fixed number of iterations. Chunks repeat until the run's time is up;
//! the first is warm-up and is left out of the timings (not of the
//! set-up median).

use crate::inputs::{self, Seeds};
use crate::report::{Metrics, Report, HEP_LAYERS};
use crate::stats::{mean, median, quantile, secs};
use scidl_core::task::{GradTask, HepGradTask};
use scidl_core::{ThreadEngine, ThreadEngineConfig, ThreadRunSummary};
use scidl_data::climate::boxes_to_targets;
use scidl_data::{ClimateDataset, HepDataset};
use scidl_nn::arch::ClimateNet;
use scidl_nn::loss::mse_loss;
use scidl_nn::network::{Model, Network};
use scidl_nn::SoftmaxCrossEntropy;
use scidl_tensor::TensorRng;
use scidl_trace::{EventKind, IterRow, TraceSink};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Which network a workload trains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Net {
    /// `hep_small` on 32×32×3 HEP images, cross-entropy loss.
    Hep,
    /// `ClimateNet::small` on 64×64×4 frames, detection + reconstruction.
    Climate,
}

/// One training workload.
#[derive(Clone, Copy, Debug)]
pub struct TrainSpec {
    /// Network trained.
    pub net: Net,
    /// Compute groups.
    pub groups: usize,
    /// Worker threads per group.
    pub nodes: usize,
    /// Minibatch per group per update.
    pub batch_per_group: usize,
    /// Iterations per group in one chunk.
    pub iters: usize,
    /// Momentum-SGD learning rate at the parameter servers.
    pub lr: f32,
    /// Momentum at the parameter servers.
    pub momentum: f32,
    /// Training-set size.
    pub train_n: usize,
    /// Held-out set size for `loss_final`.
    pub eval_n: usize,
}

/// `train_hep_hybrid`: 2 groups × 2 nodes, batch 4 per group — tree
/// all-reduce inside a group, the per-layer PS bank between groups.
pub const HYBRID: TrainSpec = TrainSpec {
    net: Net::Hep,
    groups: 2,
    nodes: 2,
    batch_per_group: 4,
    iters: 1000,
    lr: 0.002,
    momentum: 0.5,
    train_n: 1024,
    eval_n: 2048,
};

/// `train_climate_semi`: 1 group × 2 nodes, batch 8, half the frames
/// labelled.
pub const CLIMATE: TrainSpec = TrainSpec {
    net: Net::Climate,
    groups: 1,
    nodes: 2,
    batch_per_group: 8,
    iters: 100,
    lr: 0.008,
    momentum: 0.9,
    train_n: 64,
    eval_n: 384,
};

/// The reference HEP step every traced run makes: one node, batch 64,
/// so the step is compute-bound. It measures the HEP layers and the
/// engine when the workload itself has none, and checks that the
/// layer-by-layer task ends bit-identical to `HepGradTask`.
const HEP_PROBE: TrainSpec = TrainSpec {
    net: Net::Hep,
    groups: 1,
    nodes: 1,
    batch_per_group: 64,
    iters: 10,
    lr: 0.01,
    momentum: 0.9,
    train_n: 256,
    // Never evaluated.
    eval_n: 0,
};

impl TrainSpec {
    fn config(&self, seeds: &Seeds) -> ThreadEngineConfig {
        let mut cfg = ThreadEngineConfig::new(self.groups, self.nodes, self.batch_per_group);
        cfg.iterations = self.iters;
        cfg.lr = self.lr;
        cfg.momentum = self.momentum;
        cfg.seed = seeds.engine;
        cfg
    }

    /// Minibatch each worker computes per iteration.
    pub fn per_node(&self) -> usize {
        self.batch_per_group / self.nodes
    }

    /// One group: the run is synchronous and bit-deterministic.
    fn synchronous(&self) -> bool {
        self.groups == 1
    }
}

fn build_hep(seed: u64) -> Network {
    scidl_nn::arch::hep_small(&mut TensorRng::new(seed))
}

/// The climate model with the loss weighting `climate_distributed` uses.
pub fn build_climate(seed: u64) -> ClimateNet {
    let mut net = ClimateNet::small(&mut TensorRng::new(seed ^ 0xD157));
    net.det_loss.lambda_obj = 8.0;
    net.lambda_recon = 0.5;
    net
}

/// Sub-call times (seconds) inside one HEP gradient call.
#[derive(Clone, Debug)]
struct HepSub {
    gather: f64,
    fwd: Vec<f64>,
    loss: f64,
    bwd: Vec<f64>,
    flat: f64,
}

/// Sub-call times (seconds) inside one climate gradient call.
#[derive(Clone, Debug)]
pub struct ClimateSub {
    /// `ClimateDataset::gather`.
    pub gather: f64,
    /// `boxes_to_targets`, on labelled batches only.
    pub targets: Option<f64>,
    /// `ClimateNet::forward_backward`.
    pub fwd_bwd: f64,
    /// Gradient clipping and `flat_grads`.
    pub flat: f64,
}

/// What a gradient call spent its time on, when it was timed inside.
#[derive(Clone, Debug)]
enum Sub {
    /// Layer-by-layer HEP step.
    Hep(HepSub),
    /// Climate step.
    Climate(ClimateSub),
}

impl Sub {
    fn total(&self) -> f64 {
        match self {
            Sub::Hep(s) => {
                s.gather + s.fwd.iter().sum::<f64>() + s.loss + s.bwd.iter().sum::<f64>() + s.flat
            }
            Sub::Climate(s) => s.gather + s.targets.unwrap_or(0.0) + s.fwd_bwd + s.flat,
        }
    }
}

/// One gradient call as the engine made it.
struct Call {
    thread: ThreadId,
    start: Instant,
    end: Instant,
    sub: Option<Sub>,
}

/// Collects every gradient call of a chunk, from all worker threads.
#[derive(Default)]
struct Recorder(Mutex<Vec<Call>>);

impl Recorder {
    fn push(&self, start: Instant, sub: Option<Sub>) {
        let end = Instant::now();
        let call = Call {
            thread: std::thread::current().id(),
            start,
            end,
            sub,
        };
        self.0.lock().expect("recorder poisoned").push(call);
    }

    fn take(&self) -> Vec<Call> {
        std::mem::take(&mut *self.0.lock().expect("recorder poisoned"))
    }
}

/// The HEP step the program's `HepGradTask` takes, split into the
/// public calls it is made of, each timed: gather, every layer's
/// forward, the loss, every layer's backward, then the flat gradient.
/// Bit-identical to `hep_gradient`.
fn hep_layered(model: &mut Network, ds: &HepDataset, idx: &[usize]) -> ((f32, Vec<f32>), HepSub) {
    let t = Instant::now();
    let (batch, labels) = ds.gather(idx);
    let gather = secs(t);
    model.zero_grads();
    let n = model.layers().len();
    let (mut fwd, mut bwd) = (vec![0.0; n], vec![0.0; n]);
    let mut x = batch;
    for (i, l) in model.layers_mut().iter_mut().enumerate() {
        let t = Instant::now();
        x = l.forward(&x);
        fwd[i] = secs(t);
    }
    let t = Instant::now();
    let (loss, mut g) = SoftmaxCrossEntropy::forward(&x, &labels);
    let loss_s = secs(t);
    for (i, l) in model.layers_mut().iter_mut().enumerate().rev() {
        let t = Instant::now();
        g = l.backward(&g);
        bwd[i] = secs(t);
    }
    let t = Instant::now();
    let grads = model.flat_grads();
    let flat = secs(t);
    (
        (loss, grads),
        HepSub {
            gather,
            fwd,
            loss: loss_s,
            bwd,
            flat,
        },
    )
}

/// The climate step of `experiments::climate_distributed`: gather,
/// targets for labelled batches, the combined forward/backward, gradient
/// clipping and the flat gradient — each timed.
pub fn climate_step(
    net: &mut ClimateNet,
    ds: &ClimateDataset,
    idx: &[usize],
    grid: usize,
    classes: usize,
) -> ((f32, Vec<f32>), ClimateSub) {
    let t = Instant::now();
    let (batch, boxes) = ds.gather(idx);
    let gather = secs(t);
    let labelled = boxes.iter().any(|b| !b.is_empty());
    net.zero_grads();
    let (targets, targets_s) = if labelled {
        let t = Instant::now();
        let tg = boxes_to_targets(&boxes, grid, classes);
        (Some(tg), Some(secs(t)))
    } else {
        (None, None)
    };
    let t = Instant::now();
    let (parts, recon) = net.forward_backward(&batch, targets.as_ref());
    let fwd_bwd = secs(t);
    let t = Instant::now();
    for b in net.param_blocks_mut() {
        scidl_tensor::ops::clip_norm(b.grad.data_mut(), 1.0);
    }
    let grads = net.flat_grads();
    let flat = secs(t);
    (
        (parts.total() + recon, grads),
        ClimateSub {
            gather,
            targets: targets_s,
            fwd_bwd,
            flat,
        },
    )
}

/// One chunk: set-up, a fixed number of iterations, and what it left.
struct Chunk {
    /// Which of the seed's training sets it trained on.
    set: u64,
    setup_s: f64,
    window_s: f64,
    calls: Vec<Call>,
    summary: ThreadRunSummary,
    rows: Vec<IterRow>,
    iter_wall: Vec<f64>,
    dropped: u64,
}

/// Whether a chunk installs a trace sink, and how it computes its HEP
/// gradients. The climate step is the same in every mode.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The program's `HepGradTask`, no trace sink.
    Untraced,
    /// The program's `HepGradTask` under an installed sink: differs from
    /// `Untraced` only in tracing, so the pair gives the tracing overhead.
    Sink,
    /// The benchmark's layer-by-layer task under an installed sink.
    Layered,
}

fn chunk(spec: &TrainSpec, seeds: &Seeds, set: u64, mode: Mode) -> Chunk {
    let t0 = Instant::now();
    let rec = Arc::new(Recorder::default());
    let cfg = spec.config(seeds);
    let r = Arc::clone(&rec);
    let sink = (mode != Mode::Untraced).then(|| Arc::new(TraceSink::new()));
    if let Some(s) = &sink {
        scidl_trace::install(Arc::clone(s));
    }
    let summary = match spec.net {
        Net::Hep => {
            let ds = Arc::new(inputs::hep_train(seeds, set, spec.train_n));
            let len = ds.len();
            if mode == Mode::Layered {
                ThreadEngine::run_with(
                    &cfg,
                    len,
                    build_hep,
                    move |m: &mut Network, idx: &[usize]| {
                        let start = Instant::now();
                        let (out, sub) = hep_layered(m, &ds, idx);
                        r.push(start, Some(Sub::Hep(sub)));
                        out
                    },
                )
            } else {
                let task = HepGradTask::new(ds);
                ThreadEngine::run_with(
                    &cfg,
                    len,
                    build_hep,
                    move |m: &mut Network, idx: &[usize]| {
                        let start = Instant::now();
                        let out = task.grad(m, idx);
                        r.push(start, None);
                        out
                    },
                )
            }
        }
        Net::Climate => {
            let ds = Arc::new(inputs::climate_train(seeds, set, spec.train_n));
            let net = build_climate(seeds.engine);
            let grid = net.grid_for(ds.samples[0].image.shape()).h;
            let classes = net.classes();
            let len = ds.len();
            ThreadEngine::run_with(
                &cfg,
                len,
                build_climate,
                move |m: &mut ClimateNet, idx: &[usize]| {
                    let start = Instant::now();
                    let (out, sub) = climate_step(m, &ds, idx, grid, classes);
                    r.push(start, Some(Sub::Climate(sub)));
                    out
                },
            )
        }
    };
    let end = Instant::now();
    let (rows, iter_wall, dropped) = match sink {
        Some(s) => {
            scidl_trace::uninstall();
            let walls = s
                .events()
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Iteration { .. }))
                .map(|e| e.dur_s)
                .collect();
            (s.rows(), walls, s.dropped())
        }
        None => (Vec::new(), Vec::new(), 0),
    };
    let calls = rec.take();
    let first = calls.iter().map(|c| c.start).min().unwrap_or(end);
    Chunk {
        set,
        setup_s: (first - t0).as_secs_f64(),
        window_s: (end - first).as_secs_f64(),
        calls,
        summary,
        rows,
        iter_wall,
        dropped,
    }
}

/// Per worker thread, each call paired with the start of the next one:
/// `(call duration, iteration interval)` in seconds.
fn iterations(calls: &[Call]) -> Vec<(f64, f64)> {
    let mut by_thread: HashMap<ThreadId, Vec<&Call>> = HashMap::new();
    for c in calls {
        by_thread.entry(c.thread).or_default().push(c);
    }
    let mut out = Vec::new();
    for v in by_thread.values_mut() {
        v.sort_by_key(|c| c.start);
        for w in v.windows(2) {
            let dur = (w[0].end - w[0].start).as_secs_f64();
            out.push((dur, (w[1].start - w[0].start).as_secs_f64()));
        }
    }
    out
}

/// Held-out loss of flat parameters `params`.
fn eval_loss(seeds: &Seeds, params: &[f32], eval: &EvalSet) -> f64 {
    match eval {
        EvalSet::Hep(ds) => {
            let mut net = build_hep(seeds.engine);
            net.set_flat_params(params);
            let idx: Vec<usize> = (0..ds.len()).collect();
            let mut sum = 0.0;
            for c in idx.chunks(64) {
                let (x, labels) = ds.gather(c);
                let (l, _) = SoftmaxCrossEntropy::forward(&net.infer(&x), &labels);
                sum += l as f64 * c.len() as f64;
            }
            sum / ds.len() as f64
        }
        EvalSet::Climate(ds) => {
            let mut net = build_climate(seeds.engine);
            net.set_flat_params(params);
            let grid = net.grid_for(ds.samples[0].image.shape()).h;
            let classes = net.classes();
            let idx: Vec<usize> = (0..ds.len()).collect();
            let mut sum = 0.0;
            // Large batches: the detection loss normalises by the
            // positives in a batch, which a 4-frame batch makes noisy.
            for c in idx.chunks(64) {
                // Held-out frames are scored against all their events,
                // whether or not training would have seen the labels.
                let (x, _) = ds.gather(c);
                let boxes: Vec<_> = c.iter().map(|&i| ds.samples[i].boxes.clone()).collect();
                let out = net.forward(&x);
                let mut l = mse_loss(&out.recon, &x).0 * net.lambda_recon;
                if boxes.iter().any(|b| !b.is_empty()) {
                    let t = boxes_to_targets(&boxes, grid, classes);
                    l += net
                        .det_loss
                        .forward(&out.conf, &out.class, &out.bbox, &t)
                        .0
                        .total();
                }
                sum += l as f64 * c.len() as f64;
            }
            sum / ds.len() as f64
        }
    }
}

enum EvalSet {
    Hep(HepDataset),
    Climate(ClimateDataset),
}

fn eval_set(spec: &TrainSpec, seeds: &Seeds) -> EvalSet {
    match spec.net {
        Net::Hep => EvalSet::Hep(inputs::hep_eval(seeds, spec.eval_n)),
        Net::Climate => EvalSet::Climate(inputs::climate_eval(seeds, spec.eval_n)),
    }
}

/// Output checks on every chunk; counts updates expected and applied.
/// On a synchronous workload, chunks that trained on the same set must
/// end with bit-identical parameters.
fn check_chunks(spec: &TrainSpec, chunks: &[&Chunk], rep: &mut Report) {
    let expected = (spec.groups * spec.iters) as u64;
    for (i, c) in chunks.iter().enumerate() {
        let s = &c.summary;
        rep.attempted += expected;
        rep.failed += expected.saturating_sub(s.updates);
        rep.check(s.updates == expected, || {
            format!("chunk {i}: {} updates, expected {expected}", s.updates)
        });
        let hist: u64 = s.staleness_histogram.iter().sum();
        rep.check(hist == s.updates, || {
            format!("chunk {i}: staleness histogram sums to {hist}")
        });
        rep.check(s.final_params.iter().all(|p| p.is_finite()), || {
            format!("chunk {i}: non-finite parameters")
        });
        if spec.synchronous() {
            if let Some(first) = chunks.iter().find(|o| o.set == c.set) {
                rep.check(s.final_params == first.summary.final_params, || {
                    format!(
                        "chunk {i}: parameters differ from an earlier run on training set {}",
                        c.set
                    )
                });
            }
        } else {
            rep.check(s.mean_staleness > 0.0, || {
                format!("chunk {i}: no staleness across groups")
            });
        }
    }
}

/// End-to-end timings, each the median of the chunk's own value over the
/// faster half of the chunks. The machine shares its host with other
/// guests, which now and then take its CPU (hypervisor steal) or the
/// other hardware thread of its cores, for seconds to minutes at a time.
/// Such interference only ever slows a chunk, so the faster half is the
/// part of the run that shows the program rather than the host, as long
/// as a spell covers less than half of the run.
struct Timings {
    img_s: f64,
    p50_s: f64,
    p90_s: f64,
    /// Chunks timed, and iterations in them.
    chunks: usize,
    samples: usize,
}

fn timings(spec: &TrainSpec, chunks: &[&Chunk]) -> Timings {
    // Every chunk trains the same number of images.
    let mut chunks = chunks.to_vec();
    chunks.sort_by(|a, b| a.window_s.total_cmp(&b.window_s));
    chunks.truncate(chunks.len().div_ceil(2));
    let images = (spec.groups * spec.iters * spec.batch_per_group) as f64;
    let rates: Vec<f64> = chunks.iter().map(|c| images / c.window_s).collect();
    let iters: Vec<Vec<f64>> = chunks
        .iter()
        .map(|c| iterations(&c.calls).into_iter().map(|(_, it)| it).collect())
        .collect();
    let per_chunk = |q: f64| iters.iter().map(|v| quantile(v, q)).collect::<Vec<f64>>();
    Timings {
        img_s: median(&rates),
        p50_s: median(&per_chunk(0.5)),
        p90_s: median(&per_chunk(0.9)),
        chunks: chunks.len(),
        samples: iters.iter().map(Vec::len).sum(),
    }
}

/// Chunks whose final parameters are evaluated for `loss_final`.
const MAX_EVALS: usize = 10;

/// Engine runs `check_no_leak` makes, and the heap growth it allows
/// between the second and the last (identical runs grow it by well under
/// 1 KiB each on the 2-core x86-64 host the benchmark was built on; one
/// leaked copy of `hep_small`'s parameters is 73 KB).
const LEAK_RUNS: usize = 6;
const LEAK_MAX_BYTES: f64 = 32.0 * 1024.0;

/// Runs a tenth of a chunk of the workload `LEAK_RUNS` times, dropping
/// everything each left, and checks that the heap in use barely grows
/// from the second run to the last: each engine run must free what it
/// allocated, in the engine and the PS bank alike.
fn check_no_leak(spec: &TrainSpec, seeds: &Seeds, rep: &mut Report) {
    let short = TrainSpec {
        iters: spec.iters / 10,
        ..*spec
    };
    let mut live = Vec::with_capacity(LEAK_RUNS);
    for _ in 0..LEAK_RUNS {
        drop(chunk(&short, seeds, 0, Mode::Untraced));
        live.push(crate::stats::heap_in_use());
    }
    let grown = live[LEAK_RUNS - 1] - live[1];
    // NaN where the allocator cannot report, which passes.
    rep.check(grown.is_nan() || grown <= LEAK_MAX_BYTES, || {
        format!(
            "heap in use grew by {grown} bytes over {} identical engine runs",
            LEAK_RUNS - 2
        )
    });
}

/// Untraced run: the end-to-end metrics. Chunk `i` trains on the seed's
/// training set `i`; the first is warm-up and untimed. A synchronous
/// workload then repeats set 0, which must end bit-identical.
pub fn run(spec: &TrainSpec, seeds: &Seeds, seconds: f64) -> Report {
    let mut rep = Report::default();
    let start = Instant::now();
    let mut cs = vec![chunk(spec, seeds, 0, Mode::Untraced)];
    // The footprint of one full set-up and training chunk. Later chunks
    // repeat the same work on fresh threads; what they add to the peak is
    // allocator arenas, by an amount that depends on thread timing, so the
    // metric is read here and `check_no_leak` looks for memory that
    // builds up across engine runs.
    let rss = crate::stats::peak_rss_mb();
    while cs.len() < 4 || start.elapsed() < Duration::from_secs_f64(seconds) {
        cs.push(chunk(spec, seeds, cs.len() as u64, Mode::Untraced));
    }
    check_no_leak(spec, seeds, &mut rep);
    let eval = eval_set(spec, seeds);
    let evaluated = cs.iter().take(MAX_EVALS);
    let losses: Vec<f64> = evaluated
        .map(|c| eval_loss(seeds, &c.summary.final_params, &eval))
        .collect();
    if spec.synchronous() {
        cs.push(chunk(spec, seeds, 0, Mode::Untraced));
    }
    check_chunks(spec, &cs.iter().collect::<Vec<_>>(), &mut rep);
    let timed: Vec<&Chunk> = cs[1..].iter().collect();
    let t = timings(spec, &timed);
    let setups: Vec<f64> = cs.iter().map(|c| c.setup_s).collect();
    let m = &mut rep.metrics;
    m.set("throughput_per_s", t.img_s, "1/s", t.chunks);
    m.set("latency_p50_ms", t.p50_s * 1e3, "ms", t.samples);
    m.set("latency_tail_ms", t.p90_s * 1e3, "ms", t.samples);
    m.set("loss_final", median(&losses), "loss", losses.len());
    m.set("setup_s", median(&setups), "s", setups.len());
    m.set("peak_rss_mb", rss, "MB", 1);
    rep
}

/// Traced run: untraced, sink-only and layer-by-layer chunks alternate
/// on the same training sets for `0.8 × seconds` (the climate step is
/// timed the same way in every mode, so there it needs no layered
/// chunks). The per-layer metrics come from the layered chunks, the
/// tracing overhead from the untraced and sink-only ones, which run the
/// same task. The first chunk of each kind is warm-up.
pub fn run_traced(spec: &TrainSpec, seeds: &Seeds, seconds: f64, rep: &mut Report) {
    let modes: &[Mode] = match spec.net {
        Net::Hep => &[Mode::Untraced, Mode::Sink, Mode::Layered],
        Net::Climate => &[Mode::Untraced, Mode::Sink],
    };
    let start = Instant::now();
    let mut by_mode: Vec<Vec<Chunk>> = modes.iter().map(|_| Vec::new()).collect();
    let mut set = 0;
    while set < 2 || start.elapsed().as_secs_f64() < 0.8 * seconds {
        for (cs, &mode) in by_mode.iter_mut().zip(modes) {
            cs.push(chunk(spec, seeds, set, mode));
        }
        set += 1;
    }
    let all: Vec<&Chunk> = by_mode.iter().flatten().collect();
    check_chunks(spec, &all, rep);
    let timed: Vec<Vec<&Chunk>> = by_mode.iter().map(|cs| cs[1..].iter().collect()).collect();
    let (plain, sink) = (timings(spec, &timed[0]), timings(spec, &timed[1]));
    rep.metrics.set(
        "trace.overhead_frac",
        (sink.p50_s - plain.p50_s) / plain.p50_s,
        "ratio",
        sink.samples,
    );
    record_layers(spec, timed.last().expect("a traced mode"), &mut rep.metrics);
    let dropped: u64 = by_mode[1..].iter().flatten().map(|c| c.dropped).sum();
    rep.check(dropped == 0, || {
        format!("trace sink dropped {dropped} events")
    });
}

/// A short run of the compute-bound HEP step: `HepGradTask` on set 0,
/// then the layered task on sets 0 and 1. The two set-0 chunks must end
/// bit-identical, and the layered task's timed sub-calls must explain at
/// least `MIN_EXPLAINED` of its gradient calls. Fills the HEP-layer and
/// engine metrics the workload's traced run did not produce.
pub fn probe_hep(seeds: &Seeds, rep: &mut Report) {
    const MIN_EXPLAINED: f64 = 0.95;
    let cs = [
        chunk(&HEP_PROBE, seeds, 0, Mode::Untraced),
        chunk(&HEP_PROBE, seeds, 0, Mode::Layered),
        chunk(&HEP_PROBE, seeds, 1, Mode::Layered),
    ];
    check_chunks(&HEP_PROBE, &cs.iter().collect::<Vec<_>>(), rep);
    let (mut sub, mut all) = (0.0, 0.0);
    for c in cs[1..].iter().flat_map(|c| &c.calls) {
        all += (c.end - c.start).as_secs_f64();
        sub += c.sub.as_ref().map_or(0.0, Sub::total);
    }
    rep.check(sub >= MIN_EXPLAINED * all, || {
        format!(
            "the layered HEP step's sub-calls explain {:.3} of its gradient calls",
            sub / all
        )
    });
    record_layers(
        &HEP_PROBE,
        &cs[1..].iter().collect::<Vec<_>>(),
        &mut rep.metrics,
    );
}

/// Per-node batch of the HEP step whose layer metrics a traced run
/// records: the workload's own, or the probe's.
pub fn hep_layers_batch(workload: &TrainSpec) -> usize {
    match workload.net {
        Net::Hep => workload.per_node(),
        Net::Climate => HEP_PROBE.per_node(),
    }
}

fn ms(xs: &[f64]) -> f64 {
    median(xs) * 1e3
}

/// Per-layer, step and engine metrics from traced chunks.
fn record_layers(spec: &TrainSpec, timed: &[&Chunk], m: &mut Metrics) {
    let its: Vec<(f64, f64)> = timed.iter().flat_map(|c| iterations(&c.calls)).collect();
    let calls: Vec<&Call> = timed.iter().flat_map(|c| c.calls.iter()).collect();
    let durs: Vec<f64> = calls
        .iter()
        .map(|c| (c.end - c.start).as_secs_f64())
        .collect();
    let subs: Vec<&Sub> = calls.iter().filter_map(|c| c.sub.as_ref()).collect();
    let n = calls.len();

    match spec.net {
        Net::Hep => {
            let hs: Vec<&HepSub> = subs
                .iter()
                .filter_map(|s| match s {
                    Sub::Hep(h) => Some(h),
                    _ => None,
                })
                .collect();
            for (i, l) in HEP_LAYERS.iter().enumerate() {
                let f: Vec<f64> = hs.iter().map(|h| h.fwd[i]).collect();
                let b: Vec<f64> = hs.iter().map(|h| h.bwd[i]).collect();
                m.set(&format!("nn.{l}.fwd_ms"), ms(&f), "ms", f.len());
                m.set(&format!("nn.{l}.bwd_ms"), ms(&b), "ms", b.len());
            }
            let col = |f: fn(&HepSub) -> f64| hs.iter().map(|h| f(h)).collect::<Vec<f64>>();
            m.set("nn.loss_ms", ms(&col(|h| h.loss)), "ms", hs.len());
            m.set("nn.flat_grads_ms", ms(&col(|h| h.flat)), "ms", hs.len());
            m.set("data.gather_ms", ms(&col(|h| h.gather)), "ms", hs.len());
            let fwd = median(&col(|h| h.fwd.iter().sum()));
            let bwd = median(&col(|h| h.bwd.iter().sum()));
            let compute = median(&col(|h| {
                h.fwd.iter().sum::<f64>() + h.bwd.iter().sum::<f64>()
            }));
            let net = build_hep(0);
            let flops = net.training_flops_per_image(scidl_tensor::Shape4::new(1, 3, 32, 32))
                as f64
                * spec.per_node() as f64;
            m.set("nn.train_gflops", flops / compute / 1e9, "GF/s", hs.len());
            m.set("nn.bwd_over_fwd", bwd / fwd, "ratio", hs.len());
        }
        Net::Climate => {
            let cs: Vec<&ClimateSub> = subs
                .iter()
                .filter_map(|s| match s {
                    Sub::Climate(c) => Some(c),
                    _ => None,
                })
                .collect();
            let gather: Vec<f64> = cs.iter().map(|c| c.gather).collect();
            let targets: Vec<f64> = cs.iter().filter_map(|c| c.targets).collect();
            let lab: Vec<f64> = cs
                .iter()
                .filter(|c| c.targets.is_some())
                .map(|c| c.fwd_bwd)
                .collect();
            let unl: Vec<f64> = cs
                .iter()
                .filter(|c| c.targets.is_none())
                .map(|c| c.fwd_bwd)
                .collect();
            m.set("data.gather_ms", ms(&gather), "ms", gather.len());
            if !targets.is_empty() {
                m.set("data.targets_ms", ms(&targets), "ms", targets.len());
                m.set("nn.fwd_bwd_labelled_ms", ms(&lab), "ms", lab.len());
            }
            if !unl.is_empty() {
                m.set("nn.fwd_bwd_unlabelled_ms", ms(&unl), "ms", unl.len());
            }
        }
    }

    // Step versus iteration, per worker.
    let steps: Vec<f64> = its.iter().map(|i| i.0).collect();
    let sync: Vec<f64> = its.iter().map(|i| i.1 - i.0).collect();
    let step_sum: f64 = steps.iter().sum();
    let iter_sum: f64 = its.iter().map(|i| i.1).sum();
    m.set("core.step_ms_p50", ms(&durs), "ms", n);
    m.set("core.sync_ms_p50", ms(&sync), "ms", sync.len());
    m.set("core.step_share", step_sum / iter_sum, "ratio", its.len());
    let unexplained: Vec<f64> = calls
        .iter()
        .filter_map(|c| {
            c.sub
                .as_ref()
                .map(|s| (c.end - c.start).as_secs_f64() - s.total())
        })
        .collect();
    let explained: f64 = subs.iter().map(|s| s.total()).sum::<f64>() / durs.iter().sum::<f64>();
    m.set(
        "core.step_unexplained_ms",
        ms(&unexplained),
        "ms",
        unexplained.len(),
    );
    m.set("core.step_explained", explained, "ratio", n);

    // The engine's own trace rows (one per group iteration, from the root).
    let rows: Vec<&IterRow> = timed.iter().flat_map(|c| c.rows.iter()).collect();
    let comm: Vec<f64> = rows.iter().map(|r| r.comm_s).collect();
    let ps: Vec<f64> = rows.iter().map(|r| r.ps_s).collect();
    let phases: f64 = rows.iter().map(|r| r.compute_s + r.comm_s + r.ps_s).sum();
    let wall: f64 = timed.iter().flat_map(|c| c.iter_wall.iter()).sum();
    m.set("comm.allreduce_ms_p50", ms(&comm), "ms", rows.len());
    m.set("comm.ps_ms_p50", ms(&ps), "ms", rows.len());
    m.set("core.phase_explained", phases / wall, "ratio", rows.len());
    let updates: u64 = timed.iter().map(|c| c.summary.updates).sum();
    let wire: u64 = timed.iter().map(|c| c.summary.wire_bytes).sum();
    let stale: Vec<f64> = timed.iter().map(|c| c.summary.mean_staleness).collect();
    let respawns: u64 = timed.iter().map(|c| c.summary.ps_respawns).sum();
    m.set(
        "comm.wire_bytes_per_update",
        wire as f64 / updates as f64,
        "B",
        updates as usize,
    );
    m.set(
        "comm.staleness_mean",
        mean(&stale),
        "updates",
        updates as usize,
    );
    m.set("comm.ps_respawns", respawns as f64, "count", timed.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::CLIMATE_LAYERS;

    #[test]
    fn layer_registry_matches_the_networks() {
        let hep: Vec<String> = build_hep(1)
            .layers()
            .iter()
            .map(|l| l.name().to_string())
            .collect();
        assert_eq!(hep, HEP_LAYERS);
        let c = build_climate(1);
        let climate: Vec<String> = c
            .encoder
            .layers()
            .iter()
            .chain(c.decoder.layers())
            .map(|l| l.name().to_string())
            .collect();
        assert_eq!(climate, CLIMATE_LAYERS);
    }

    #[test]
    fn layered_task_is_bit_identical_to_the_programs_step() {
        let ds = inputs::hep_train(&Seeds::new(3), 0, 16);
        let idx: Vec<usize> = (0..8).collect();
        let (mut a, mut b) = (build_hep(9), build_hep(9));
        let ((loss, grads), sub) = hep_layered(&mut a, &ds, &idx);
        let (want_loss, want_grads) = scidl_core::task::hep_gradient(&mut b, &ds, &idx);
        assert_eq!(loss, want_loss);
        assert_eq!(grads, want_grads);
        assert_eq!(sub.fwd.len(), HEP_LAYERS.len());
    }
}
