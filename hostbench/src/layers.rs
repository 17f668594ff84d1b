//! Per-layer measurements the benchmark makes by calling each layer's
//! public functions directly: the GEMM ceiling at `hep_small`'s lowered
//! convolution shapes, the climate encoder/decoder profile, and the
//! climate step when the workload itself trains no climate net.

use crate::inputs::{self, Seeds};
use crate::report::{Metrics, CLIMATE_LAYERS};
use crate::stats::median;
use crate::train::{build_climate, climate_step, CLIMATE};
use scidl_nn::profile::profile_network;
use scidl_tensor::{gemm, Shape4, TensorRng, Transpose};
use std::hint::black_box;
use std::time::Instant;

/// `(cout, cin·k·k, H·W)` of `hep_small`'s three convolutions on 32×32
/// input: the GEMM each lowers to is `cout × (cin·k·k)` times
/// `(cin·k·k) × (H·W)` per image.
const HEP_CONV_GEMMS: [(usize, usize, usize); 3] =
    [(8, 27, 32 * 32), (16, 72, 16 * 16), (32, 144, 8 * 8)];

/// Median seconds of `gemm` at `m × k × n`, timed for at least `min_s`.
fn time_gemm(m: usize, k: usize, n: usize, rng: &mut TensorRng, min_s: f64) -> f64 {
    let a: Vec<f32> = (0..m * k).map(|_| rng.uniform() as f32 - 0.5).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.uniform() as f32 - 0.5).collect();
    let mut c = vec![0.0f32; m * n];
    // One untimed call fills caches and any lazily built packing state.
    gemm(
        Transpose::No,
        Transpose::No,
        m,
        n,
        k,
        1.0,
        &a,
        &b,
        0.0,
        &mut c,
    );
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < 5 || start.elapsed().as_secs_f64() < min_s {
        let t = Instant::now();
        gemm(
            Transpose::No,
            Transpose::No,
            m,
            n,
            k,
            1.0,
            black_box(&a),
            black_box(&b),
            0.0,
            &mut c,
        );
        black_box(&mut c);
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

/// The GEMM rate over `hep_small`'s lowered convolutions, per image
/// (`N = H·W`) and over the whole per-node minibatch (`N = batch·H·W`),
/// and the layers' training rate as a share of the latter.
pub fn gemm_ceiling(seeds: &Seeds, batch: usize, m: &mut Metrics) {
    let mut rng = TensorRng::new(seeds.engine ^ 0x6E44);
    for (name, b) in [
        ("tensor.gemm_gflops_per_image", 1),
        ("tensor.gemm_gflops_whole_batch", batch),
    ] {
        let (mut flops, mut secs) = (0.0, 0.0);
        for &(cout, rows, cols) in &HEP_CONV_GEMMS {
            secs += time_gemm(cout, rows, cols * b, &mut rng, 0.1);
            flops += 2.0 * (cout * rows * cols * b) as f64;
        }
        m.set(name, flops / secs / 1e9, "GF/s", HEP_CONV_GEMMS.len());
    }
    if let (Some(layers), Some(ceiling)) = (
        m.get("nn.train_gflops"),
        m.get("tensor.gemm_gflops_whole_batch"),
    ) {
        m.set("nn.gemm_efficiency", layers / ceiling, "ratio", 1);
    }
}

/// Forward and backward time of every encoder and decoder layer, from
/// `scidl_nn::profile::profile_network` at the climate workload's
/// per-node shape.
pub fn climate_profile(seeds: &Seeds, m: &mut Metrics) {
    const REPS: usize = 12;
    let mut net = build_climate(seeds.engine);
    let input = Shape4::new(CLIMATE.per_node(), 4, 64, 64);
    let feat = net.encoder.out_shape(input);
    let mut profiles = profile_network(&mut net.encoder, input, 2, REPS);
    profiles.extend(profile_network(&mut net.decoder, feat, 2, REPS));
    for p in &profiles {
        debug_assert!(
            CLIMATE_LAYERS.contains(&p.name.as_str()),
            "unknown layer {}",
            p.name
        );
        m.set(
            &format!("nn.{}.fwd_ms", p.name),
            p.forward_stats.p50 * 1e3,
            "ms",
            REPS,
        );
        m.set(
            &format!("nn.{}.bwd_ms", p.name),
            p.backward_stats.p50 * 1e3,
            "ms",
            REPS,
        );
    }
}

/// The climate step on labelled and on unlabelled batches, for a run
/// whose own workload trains no climate net.
pub fn climate_probe(seeds: &Seeds, m: &mut Metrics) {
    const STEPS: usize = 8;
    let ds = inputs::climate_train(seeds, 0, 32);
    let mut net = build_climate(seeds.engine);
    let grid = net.grid_for(ds.samples[0].image.shape()).h;
    let classes = net.classes();
    let per = CLIMATE.per_node();
    let pick = |labelled: bool| -> Vec<usize> {
        let all: Vec<usize> = (0..ds.len())
            .filter(|&i| ds.samples[i].labelled == labelled)
            .collect();
        (0..per)
            .filter_map(|j| all.get(j % all.len().max(1)).copied())
            .collect()
    };
    let (lab, unl) = (pick(true), pick(false));
    let (mut gather, mut targets, mut fb_lab, mut fb_unl) = (vec![], vec![], vec![], vec![]);
    for _ in 0..STEPS {
        for idx in [&lab, &unl] {
            if idx.is_empty() {
                continue;
            }
            let (_, sub) = climate_step(&mut net, &ds, idx, grid, classes);
            gather.push(sub.gather);
            match sub.targets {
                Some(t) => {
                    targets.push(t);
                    fb_lab.push(sub.fwd_bwd);
                }
                None => fb_unl.push(sub.fwd_bwd),
            }
        }
    }
    let ms = |xs: &[f64]| median(xs) * 1e3;
    m.set("data.gather_ms", ms(&gather), "ms", gather.len());
    m.set("data.targets_ms", ms(&targets), "ms", targets.len());
    m.set("nn.fwd_bwd_labelled_ms", ms(&fb_lab), "ms", fb_lab.len());
    m.set("nn.fwd_bwd_unlabelled_ms", ms(&fb_unl), "ms", fb_unl.len());
}
