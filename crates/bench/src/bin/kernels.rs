//! Kernel throughput table — the per-node GFLOP/s trajectory.
//!
//! Times the packed register-tiled GEMM against the retained pre-packing
//! seed kernel on the paper's HEP/climate conv-lowered shapes (forward
//! NN, weight-gradient NT, backward-data TN, plus a square TT case), and
//! the end-to-end conv layer forward+backward on HEP/climate layer
//! geometries. These are the numbers that roll up into the paper's
//! ≈2 TFLOP/s-per-KNL-node Table 2 rates — on one sequential container
//! core the absolute scale is ~100× smaller, but the per-shape ratios
//! (and the packed-vs-seed speedup) are the tracked quantity.
//!
//! The conv lowering (`im2col` and its adjoint `col2im`) gets rows of its
//! own at the `hep_small` conv shapes (batch 2) and the
//! `ClimateNet::small` encoder and decoder shapes (batch 4): the time of
//! one batch and the rate in col elements per ns. They carry no assert —
//! the host is too noisy for a timing gate.
//!
//! Each GEMM shape is timed once per *detected ISA* (baseline SSE2
//! always; AVX2 where the host reports it) through the runtime-dispatch
//! layer, plus an int8 `gemm_i8` row per ISA on the serving-relevant
//! shapes. The bench asserts the AVX2 aggregate is faster-or-equal to
//! SSE2 — the dispatch must never pick a slower kernel.
//!
//! Emits a markdown table on stdout and writes
//! `results/kernels.{csv,txt}`.
//!
//! ```text
//! cargo run --release -p scidl-bench --bin kernels [--fast]
//! ```
//!
//! `--fast` (the CI smoke) runs one rep per shape instead of best-of-5
//! and skips the largest climate shape.

use scidl_bench::{csv, fnum, markdown_table};
use scidl_nn::{Conv2d, Layer};
use scidl_tensor::{
    col2im, gemm_i8_with_isa, gemm_unpacked, gemm_with_isa, im2col, ConvGeometry, Isa, Shape4,
    TensorRng, Transpose,
};
use std::time::Instant;

/// `(label, ta, tb, m, n, k)` — conv-lowered GEMM shapes (see the
/// criterion bench for the same list with the faster-or-equal assert).
const GEMM_SHAPES: &[(&str, Transpose, Transpose, usize, usize, usize)] = &[
    ("hep_fwd_nn", Transpose::No, Transpose::No, 128, 196, 1152),
    ("hep_fwd_wide_nn", Transpose::No, Transpose::No, 128, 784, 1152),
    ("climate_enc_nn", Transpose::No, Transpose::No, 64, 3136, 576),
    ("hep_wgrad_nt", Transpose::No, Transpose::Yes, 128, 1152, 196),
    ("hep_bwddata_tn", Transpose::Yes, Transpose::No, 1152, 196, 128),
    ("square_tt", Transpose::Yes, Transpose::Yes, 256, 256, 256),
];

/// `(label, cin, cout, hw, k, stride, batch)` — layer geometries from the
/// two paper networks (spatial size reduced to keep one-core runtime
/// sane; the full climate 768² plane is ~150× this work).
const CONV_LAYERS: &[(&str, usize, usize, usize, usize, usize, usize)] = &[
    ("hep_conv_3to128_k3", 3, 128, 64, 3, 1, 4),
    ("hep_conv_128to128_k3", 128, 128, 14, 3, 1, 4),
    ("climate_enc_16to64_k5s2", 16, 64, 64, 5, 2, 4),
];

/// `(label, geometry, batch)` — the lowering geometries of the benchmarked
/// nets. A deconv row is the mirror conv geometry its layer lowers with:
/// deconv output plane and channels, lowered back to the deconv input
/// plane.
const LOWERINGS: &[(&str, ConvGeometry, usize)] = &[
    ("hep_conv1", square(3, 32, 3, 1, 1), 2),
    ("hep_conv2", square(8, 16, 3, 1, 1), 2),
    ("hep_conv3", square(16, 8, 3, 1, 1), 2),
    ("climate_enc1", square(4, 64, 5, 2, 2), 4),
    ("climate_enc2", square(8, 32, 5, 2, 2), 4),
    ("climate_enc3", square(16, 16, 5, 2, 2), 4),
    ("climate_dec1", square(16, 16, 4, 2, 1), 4),
    ("climate_dec2", square(8, 32, 4, 2, 1), 4),
    ("climate_dec3", square(4, 64, 4, 2, 1), 4),
];

/// Lowering geometry of a square `hw x hw` plane (`cout` does not enter
/// the lowering).
const fn square(cin: usize, hw: usize, k: usize, stride: usize, pad: usize) -> ConvGeometry {
    ConvGeometry { cin, cout: 1, h: hw, w: hw, kh: k, kw: k, stride, pad }
}

fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up: populates the pack workspace pool
    let mut best = f64::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let reps = if fast { 1 } else { 5 };

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut csv_rows: Vec<Vec<String>> = Vec::new();

    // Aggregate per-ISA f32 rates for the dispatch acceptance assert.
    let mut sse2_total = 0.0f64;
    let mut avx2_total = 0.0f64;

    for &(label, ta, tb, m, n, k) in GEMM_SHAPES {
        if fast && m * n * k > 80_000_000 {
            continue;
        }
        let mut rng = TensorRng::new(11);
        let a: Vec<f32> = (0..m * k).map(|_| rng.uniform_range(-1.0, 1.0) as f32).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.uniform_range(-1.0, 1.0) as f32).collect();
        let mut out = vec![0.0f32; m * n];
        let flops = 2.0 * (m * n * k) as f64;
        let seed = flops / best_secs(reps, || {
            gemm_unpacked(ta, tb, m, n, k, 1.0, &a, &b, 0.0, &mut out);
        }) / 1e9;
        let dims = format!("{m}x{n}x{k}");
        for &isa in Isa::detected() {
            let packed = flops / best_secs(reps, || {
                gemm_with_isa(isa, ta, tb, m, n, k, 1.0, &a, &b, 0.0, &mut out);
            }) / 1e9;
            match isa {
                Isa::Sse2 => sse2_total += packed,
                Isa::Avx2 => avx2_total += packed,
            }
            let name = format!("gemm/{label}@{}", isa.name());
            rows.push(vec![
                name.clone(),
                dims.clone(),
                format!("{} GF/s", fnum(packed, 2)),
                format!("{} GF/s", fnum(seed, 2)),
                format!("{}x", fnum(packed / seed, 2)),
            ]);
            csv_rows.push(vec![
                name,
                dims.clone(),
                "GF/s".into(),
                fnum(packed, 3),
                fnum(seed, 3),
                fnum(packed / seed, 3),
                String::new(),
            ]);
        }
    }

    // Int8 serving kernel: same dot-product shapes the quantized dense /
    // conv path lowers to (B stored transposed). Rates are GOP/s — one
    // multiply-accumulate counted as 2 ops, like the f32 rows — and the
    // "seed" column is the scalar (sse2) int8 kernel, so the speedup
    // column reads as the SIMD gain *within* the int8 path.
    let i8_shapes: &[(&str, usize, usize, usize)] =
        &[("hep_fwd", 128, 196, 1152), ("square", 256, 256, 256)];
    for &(label, m, n, k) in i8_shapes {
        let mut s = 0x1157u64;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 255) as i16 - 127) as i8
        };
        let a: Vec<i8> = (0..m * k).map(|_| next()).collect();
        let b_t: Vec<i8> = (0..n * k).map(|_| next()).collect();
        let mut out = vec![0i32; m * n];
        let ops = 2.0 * (m * n * k) as f64;
        let scalar = ops / best_secs(reps, || {
            gemm_i8_with_isa(Isa::Sse2, m, n, k, &a, &b_t, &mut out);
        }) / 1e9;
        let dims = format!("{m}x{n}x{k}");
        for &isa in Isa::detected() {
            let rate = ops / best_secs(reps, || {
                gemm_i8_with_isa(isa, m, n, k, &a, &b_t, &mut out);
            }) / 1e9;
            let name = format!("gemm_i8/{label}@{}", isa.name());
            rows.push(vec![
                name.clone(),
                dims.clone(),
                format!("{} GOP/s", fnum(rate, 2)),
                format!("{} GOP/s", fnum(scalar, 2)),
                format!("{}x", fnum(rate / scalar, 2)),
            ]);
            csv_rows.push(vec![
                name,
                dims.clone(),
                "GOP/s".into(),
                fnum(rate, 3),
                fnum(scalar, 3),
                fnum(rate / scalar, 3),
                String::new(),
            ]);
        }
    }

    for &(label, cin, cout, hw, k, stride, batch) in CONV_LAYERS {
        let mut rng = TensorRng::new(13);
        let mut conv = Conv2d::new("c", cin, cout, k, stride, k / 2, &mut rng);
        let x = rng.uniform_tensor(Shape4::new(batch, cin, hw, hw), -1.0, 1.0);
        // forward + backward ≈ 3× the forward MACs (fwd, wgrad, bwd-data).
        let flops = 3.0 * batch as f64 * conv.forward_flops_per_image(x.shape().with_n(1)) as f64;
        let secs = best_secs(reps, || {
            let y = conv.forward(&x);
            let _ = conv.backward(&y);
        });
        let rate = flops / secs / 1e9;
        let dims = format!("{batch}x{cin}x{hw}x{hw}->k{k}s{stride}x{cout}");
        rows.push(vec![
            format!("conv/{label}"),
            dims.clone(),
            format!("{} GF/s", fnum(rate, 2)),
            String::from("-"),
            String::from("-"),
        ]);
        csv_rows.push(vec![
            format!("conv/{label}"),
            dims,
            "GF/s".into(),
            fnum(rate, 3),
            String::new(),
            String::new(),
            fnum(secs * 1e6, 2),
        ]);
    }

    let mut lower_rows: Vec<Vec<String>> = Vec::new();
    for &(label, geo, batch) in LOWERINGS {
        let item_len = geo.cin * geo.h * geo.w;
        let mut rng = TensorRng::new(17);
        let image: Vec<f32> = (0..batch * item_len).map(|_| rng.uniform_range(-1.0, 1.0) as f32).collect();
        let col_len = geo.col_rows() * geo.col_cols();
        let mut col = vec![0.0f32; col_len];
        let mut back = vec![0.0f32; image.len()];
        let elems = batch * col_len;
        // Repeat the batch to ≥ ~4M elements per timed rep so the clock's
        // granularity does not show.
        let iters = (4_000_000 / elems).max(1);
        let dims = format!("{batch}x{}x{}x{} k{}s{}p{}", geo.cin, geo.h, geo.w, geo.kh, geo.stride, geo.pad);
        let im2col_s = best_secs(reps, || {
            for _ in 0..iters {
                for item in image.chunks_exact(item_len) {
                    im2col(&geo, item, &mut col);
                }
            }
        }) / iters as f64;
        let col2im_s = best_secs(reps, || {
            for _ in 0..iters {
                for item in back.chunks_exact_mut(item_len) {
                    col2im(&geo, &col, item);
                }
            }
        }) / iters as f64;
        for (op, secs) in [("im2col", im2col_s), ("col2im", col2im_s)] {
            let name = format!("{op}/{label}");
            let (rate, us) = (elems as f64 / secs / 1e9, secs * 1e6);
            lower_rows.push(vec![
                name.clone(),
                dims.clone(),
                elems.to_string(),
                format!("{} us", fnum(us, 1)),
                format!("{} elem/ns", fnum(rate, 3)),
            ]);
            let csv_row = [name.as_str(), &dims, "elem/ns", &fnum(rate, 3), "", "", &fnum(us, 2)];
            csv_rows.push(csv_row.iter().map(|c| c.to_string()).collect());
        }
    }

    let headers = ["kernel", "shape", "packed", "seed", "speedup"];
    let table = markdown_table(&headers, &rows);
    println!("{table}");
    let lower_table = markdown_table(&["lowering", "shape", "col elements", "time", "rate"], &lower_rows);
    println!("{lower_table}");
    println!("(lowering rows: one whole batch, best of the reps; rate = col elements per ns)");
    println!(
        "(packed = register-tiled packed GEMM through the runtime ISA dispatch; \
         seed = pre-packing axpy baseline; gemm_i8 rows use the scalar int8 kernel \
         as their seed; conv rows time layer fwd+bwd through the packed kernel \
         at the active ISA)"
    );
    println!(
        "detected ISAs: {}",
        Isa::detected().iter().map(|i| i.name()).collect::<Vec<_>>().join(", ")
    );

    // --- acceptance: the dispatch never picks a slower kernel ----------
    if Isa::Avx2.is_available() {
        println!(
            "f32 aggregate: sse2 {} GF/s, avx2 {} GF/s ({}x)",
            fnum(sse2_total, 2),
            fnum(avx2_total, 2),
            fnum(avx2_total / sse2_total, 2)
        );
        assert!(
            avx2_total >= sse2_total,
            "acceptance: AVX2 aggregate ({avx2_total:.2} GF/s) must be faster-or-equal \
             to SSE2 ({sse2_total:.2} GF/s)"
        );
        println!("acceptance: avx2 faster-or-equal to sse2 — PASS");
    } else {
        println!("(avx2 not detected on this host; dispatch acceptance skipped)");
    }

    std::fs::create_dir_all("results").ok();
    let csv_text = csv(&["kernel", "shape", "unit", "rate", "seed_rate", "speedup", "time_us"], &csv_rows);
    match std::fs::write("results/kernels.csv", &csv_text) {
        Ok(()) => println!("written to results/kernels.csv"),
        Err(e) => println!("(could not write results/kernels.csv: {e})"),
    }
    let txt = format!(
        "Kernel throughput (one container core; paper's KNL nodes: ~2 TFLOP/s/node)\n\n{table}\n\
         Conv lowering (one whole batch, best of the reps; rate = col elements per ns)\n\n{lower_table}"
    );
    match std::fs::write("results/kernels.txt", &txt) {
        Ok(()) => println!("written to results/kernels.txt"),
        Err(e) => println!("(could not write results/kernels.txt: {e})"),
    }
}
