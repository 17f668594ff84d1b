//! im2col / col2im lowering for convolution and deconvolution.
//!
//! A convolution over an NCHW image is lowered to a GEMM by unrolling every
//! receptive field into a column: the `(C*KH*KW) x (OH*OW)` "col" matrix,
//! multiplied by the `(COUT) x (C*KH*KW)` filter matrix. `col2im` is the
//! adjoint scatter-add used by backward-data — and, per the paper's trick
//! (Sec. III-C), by the *forward* pass of deconvolution layers.

use crate::shape::Shape4;

/// Geometry of a 2-D convolution: input plane, kernel, stride and padding.
///
/// The same geometry object describes the matching deconvolution (whose
/// forward pass is this convolution's backward-data pass).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels.
    pub cin: usize,
    /// Output channels.
    pub cout: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Vertical and horizontal stride.
    pub stride: usize,
    /// Symmetric zero padding on each border.
    pub pad: usize,
}

impl ConvGeometry {
    /// Creates a square-kernel geometry.
    pub fn new(cin: usize, cout: usize, h: usize, w: usize, k: usize, stride: usize, pad: usize) -> Self {
        assert!(k > 0 && stride > 0, "kernel and stride must be positive");
        Self { cin, cout, h, w, kh: k, kw: k, stride, pad }
    }

    /// Output height: `(h + 2*pad - kh) / stride + 1`.
    #[inline]
    pub fn out_h(&self) -> usize {
        self.assert_kernel_fits();
        (self.h + 2 * self.pad - self.kh) / self.stride + 1
    }

    /// Output width: `(w + 2*pad - kw) / stride + 1`.
    #[inline]
    pub fn out_w(&self) -> usize {
        self.assert_kernel_fits();
        (self.w + 2 * self.pad - self.kw) / self.stride + 1
    }

    /// Both output extents subtract the kernel from the padded input, so a
    /// kernel wider *or* taller than the padded plane must be rejected
    /// before either subtraction can wrap.
    #[inline]
    fn assert_kernel_fits(&self) {
        assert!(
            self.h + 2 * self.pad >= self.kh && self.w + 2 * self.pad >= self.kw,
            "kernel {}x{} larger than padded input {}x{}",
            self.kh,
            self.kw,
            self.h + 2 * self.pad,
            self.w + 2 * self.pad
        );
    }

    /// Shape of an `n`-item input batch `(n, cin, h, w)`.
    pub fn in_shape(&self, n: usize) -> Shape4 {
        Shape4::new(n, self.cin, self.h, self.w)
    }

    /// Shape of an `n`-item output batch `(n, cout, out_h, out_w)`.
    pub fn out_shape(&self, n: usize) -> Shape4 {
        Shape4::new(n, self.cout, self.out_h(), self.out_w())
    }

    /// Rows of the col matrix: `cin * kh * kw`.
    #[inline]
    pub fn col_rows(&self) -> usize {
        self.cin * self.kh * self.kw
    }

    /// Columns of the col matrix: `out_h * out_w`.
    #[inline]
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Number of filter weights: `cout * cin * kh * kw`.
    #[inline]
    pub fn weight_len(&self) -> usize {
        self.cout * self.col_rows()
    }

    /// Multiply-accumulate count of the convolution forward pass for a
    /// single image. FLOPs are conventionally `2 *` this (mul + add), which
    /// is what the paper's SDE-based counting reports for these kernels.
    #[inline]
    pub fn macs_per_image(&self) -> u64 {
        (self.cout as u64) * (self.col_rows() as u64) * (self.col_cols() as u64)
    }
}

/// Output positions `[lo, hi)` along one axis whose tap
/// `o * stride + k - pad` lands inside an input extent of `n`; every other
/// output position of that tap reads padding. `lo == hi` when the tap only
/// ever reads padding.
#[inline]
fn valid_range(n: usize, k: usize, pad: usize, stride: usize, out: usize) -> (usize, usize) {
    let lo = pad.saturating_sub(k).div_ceil(stride).min(out);
    let hi = (n + pad).saturating_sub(k).div_ceil(stride).clamp(lo, out);
    (lo, hi)
}

/// `dst[j] = src[j * stride]`: the strided gather of one output row's
/// valid span. `src` is exactly `(dst.len() - 1) * stride + 1` long.
#[inline]
fn gather(dst: &mut [f32], src: &[f32], stride: usize) {
    match stride {
        1 => dst.copy_from_slice(src),
        // Every strided layer of the shipped nets is stride 2; a constant
        // stride lets the compiler vectorise the de-interleave.
        2 => gather_by(dst, src, 2),
        _ => gather_by(dst, src, stride),
    }
}

#[inline(always)]
fn gather_by(dst: &mut [f32], src: &[f32], stride: usize) {
    let (last, head) = dst.split_last_mut().expect("valid span is non-empty");
    for (d, tap) in head.iter_mut().zip(src.chunks_exact(stride)) {
        *d = tap[0];
    }
    *last = src[src.len() - 1];
}

/// `dst[j * stride] += src[j]`: the adjoint of [`gather`], with the same
/// length contract.
#[inline]
fn scatter_add(dst: &mut [f32], src: &[f32], stride: usize) {
    match stride {
        1 => {
            for (d, &v) in dst.iter_mut().zip(src) {
                *d += v;
            }
        }
        2 => scatter_add_by(dst, src, 2),
        _ => scatter_add_by(dst, src, stride),
    }
}

#[inline(always)]
fn scatter_add_by(dst: &mut [f32], src: &[f32], stride: usize) {
    let (last, head) = src.split_last().expect("valid span is non-empty");
    for (tap, &v) in dst.chunks_exact_mut(stride).zip(head) {
        tap[0] += v;
    }
    dst[dst.len() - 1] += *last;
}

/// Unrolls one image (`cin * h * w`, NCHW item) into the col matrix
/// (`col_rows() x col_cols()`, row-major). `col` must be exactly that size.
/// Out-of-bounds (padding) taps are written as zero.
///
/// Each `(c, ky, kx)` row computes once the output rows `[y0, y1)` and
/// columns `[x0, x1)` whose taps land inside the plane. Padding rows
/// become slice fills, padding columns zero stores down the column, and
/// the interior a contiguous copy (stride 1) or a strided gather per
/// output row, with no bounds test per element. When stride 1 keeps the
/// plane's width (`ow == w`, "same" padding), the whole interior is a
/// single copy.
pub fn im2col(geo: &ConvGeometry, image: &[f32], col: &mut [f32]) {
    assert_eq!(image.len(), geo.cin * geo.h * geo.w, "image length mismatch");
    assert_eq!(col.len(), geo.col_rows() * geo.col_cols(), "col length mismatch");
    let (oh, ow) = (geo.out_h(), geo.out_w());
    let (w, stride, pad) = (geo.w, geo.stride, geo.pad);

    let mut row = 0usize;
    for c in 0..geo.cin {
        let plane = &image[c * geo.h * w..(c + 1) * geo.h * w];
        for ky in 0..geo.kh {
            let (y0, y1) = valid_range(geo.h, ky, pad, stride, oh);
            for kx in 0..geo.kw {
                let (x0, x1) = valid_range(w, kx, pad, stride, ow);
                let out_row = &mut col[row * oh * ow..(row + 1) * oh * ow];
                row += 1;
                if y0 == y1 || x0 == x1 {
                    out_row.fill(0.0);
                    continue;
                }
                out_row[..y0 * ow].fill(0.0);
                out_row[y1 * ow..].fill(0.0);
                let interior = &mut out_row[y0 * ow..y1 * ow];
                // Input index of the first valid tap.
                let first = (y0 * stride + ky - pad) * w + x0 * stride + kx - pad;
                if stride == 1 && ow == w {
                    // Input and output rows share a pitch, so the valid
                    // block is one copy; it wraps taps into the padding
                    // columns, which are zeroed below.
                    let len = interior.len() - x0 - (ow - x1);
                    interior[x0..x0 + len].copy_from_slice(&plane[first..first + len]);
                } else {
                    let span = (x1 - x0 - 1) * stride + 1;
                    let bases = (first..).step_by(stride * w);
                    for (dst, base) in interior.chunks_exact_mut(ow).zip(bases) {
                        gather(&mut dst[x0..x1], &plane[base..base + span], stride);
                    }
                }
                // Padding columns (at most `ceil(pad / stride)` per side)
                // are zeroed down the column: two tiny fills per output
                // row would cost more than the row's copy.
                for x in (0..x0).chain(x1..ow) {
                    for d in interior[x..].iter_mut().step_by(ow) {
                        *d = 0.0;
                    }
                }
            }
        }
    }
}

/// Adjoint of [`im2col`]: scatter-adds a col matrix back into an image
/// buffer (`cin * h * w`). The image buffer is *accumulated into*, not
/// overwritten — callers zero it first when appropriate.
///
/// Rows are visited in `(c, ky, kx)` order and within one row every pixel
/// receives at most one term, so each pixel accumulates its terms in the
/// same order as a per-element loop would. Padding taps are skipped by the
/// same hoisted ranges as [`im2col`].
pub fn col2im(geo: &ConvGeometry, col: &[f32], image: &mut [f32]) {
    assert_eq!(image.len(), geo.cin * geo.h * geo.w, "image length mismatch");
    assert_eq!(col.len(), geo.col_rows() * geo.col_cols(), "col length mismatch");
    let (oh, ow) = (geo.out_h(), geo.out_w());
    let (w, stride, pad) = (geo.w, geo.stride, geo.pad);

    let mut row = 0usize;
    for c in 0..geo.cin {
        let plane = &mut image[c * geo.h * w..(c + 1) * geo.h * w];
        for ky in 0..geo.kh {
            let (y0, y1) = valid_range(geo.h, ky, pad, stride, oh);
            for kx in 0..geo.kw {
                let (x0, x1) = valid_range(w, kx, pad, stride, ow);
                let in_row = &col[row * oh * ow..(row + 1) * oh * ow];
                row += 1;
                if y0 == y1 || x0 == x1 {
                    continue;
                }
                let first = (y0 * stride + ky - pad) * w + x0 * stride + kx - pad;
                let span = (x1 - x0 - 1) * stride + 1;
                let bases = (first..).step_by(stride * w);
                for (src, base) in in_row[y0 * ow..y1 * ow].chunks_exact(ow).zip(bases) {
                    scatter_add(&mut plane[base..base + span], &src[x0..x1], stride);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_dims() {
        let g = ConvGeometry::new(3, 128, 224, 224, 3, 1, 1);
        assert_eq!((g.out_h(), g.out_w()), (224, 224));
        let g2 = ConvGeometry::new(16, 64, 768, 768, 5, 2, 2);
        assert_eq!((g2.out_h(), g2.out_w()), (384, 384));
        let g3 = ConvGeometry::new(1, 1, 5, 5, 3, 1, 0);
        assert_eq!((g3.out_h(), g3.out_w()), (3, 3));
    }

    #[test]
    fn macs_match_formula() {
        let g = ConvGeometry::new(3, 128, 224, 224, 3, 1, 1);
        assert_eq!(g.macs_per_image(), 128 * 3 * 9 * 224 * 224);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no pad: col matrix equals the image.
        let g = ConvGeometry::new(2, 1, 3, 3, 1, 1, 0);
        let image: Vec<f32> = (0..18).map(|i| i as f32).collect();
        let mut col = vec![0.0; g.col_rows() * g.col_cols()];
        im2col(&g, &image, &mut col);
        assert_eq!(col, image);
    }

    #[test]
    fn im2col_3x3_no_pad() {
        // Single channel 3x3 image, 3x3 kernel, output 1x1: the col matrix
        // is the image flattened.
        let g = ConvGeometry::new(1, 1, 3, 3, 3, 1, 0);
        let image: Vec<f32> = (1..=9).map(|i| i as f32).collect();
        let mut col = vec![0.0; 9];
        im2col(&g, &image, &mut col);
        assert_eq!(col, image);
    }

    #[test]
    fn im2col_padding_zeroes_border() {
        // 1x1 image, 3x3 kernel, pad 1: only the centre tap is non-zero.
        let g = ConvGeometry::new(1, 1, 1, 1, 3, 1, 1);
        let image = vec![5.0];
        let mut col = vec![-1.0; 9];
        im2col(&g, &image, &mut col);
        let expect = vec![0.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 0.0];
        assert_eq!(col, expect);
    }

    #[test]
    fn im2col_stride2() {
        let g = ConvGeometry::new(1, 1, 4, 4, 2, 2, 0);
        let image: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let mut col = vec![0.0; g.col_rows() * g.col_cols()];
        im2col(&g, &image, &mut col);
        // Rows = 4 kernel taps, cols = 4 output positions.
        // Tap (0,0) sees image[0], image[2], image[8], image[10].
        assert_eq!(&col[0..4], &[0.0, 2.0, 8.0, 10.0]);
        // Tap (1,1) sees image[5], image[7], image[13], image[15].
        assert_eq!(&col[12..16], &[5.0, 7.0, 13.0, 15.0]);
    }

    /// col2im(im2col(x)) multiplies each pixel by the number of receptive
    /// fields it participates in; for a 1x1 kernel that count is 1.
    #[test]
    fn col2im_is_adjoint_of_im2col_1x1() {
        let g = ConvGeometry::new(2, 1, 4, 4, 1, 1, 0);
        let image: Vec<f32> = (0..32).map(|i| i as f32 * 0.5).collect();
        let mut col = vec![0.0; g.col_rows() * g.col_cols()];
        im2col(&g, &image, &mut col);
        let mut back = vec![0.0; image.len()];
        col2im(&g, &col, &mut back);
        assert_eq!(back, image);
    }

    /// Adjoint property: <im2col(x), y> == <x, col2im(y)> for all x, y.
    #[test]
    fn adjoint_inner_product_identity() {
        let g = ConvGeometry::new(2, 3, 5, 6, 3, 2, 1);
        let ilen = g.cin * g.h * g.w;
        let clen = g.col_rows() * g.col_cols();
        let x: Vec<f32> = (0..ilen).map(|i| ((i * 37 + 11) % 17) as f32 - 8.0).collect();
        let y: Vec<f32> = (0..clen).map(|i| ((i * 53 + 3) % 13) as f32 - 6.0).collect();

        let mut cx = vec![0.0; clen];
        im2col(&g, &x, &mut cx);
        let lhs: f64 = cx.iter().zip(&y).map(|(a, b)| (*a as f64) * (*b as f64)).sum();

        let mut xy = vec![0.0; ilen];
        col2im(&g, &y, &mut xy);
        let rhs: f64 = x.iter().zip(&xy).map(|(a, b)| (*a as f64) * (*b as f64)).sum();

        assert!((lhs - rhs).abs() < 1e-6, "adjoint violated: {lhs} vs {rhs}");
    }

    #[test]
    #[should_panic(expected = "image length mismatch")]
    fn im2col_rejects_bad_image() {
        let g = ConvGeometry::new(1, 1, 3, 3, 3, 1, 0);
        let mut col = vec![0.0; 9];
        im2col(&g, &[0.0; 8], &mut col);
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn oversized_kernel_panics() {
        let g = ConvGeometry::new(1, 1, 2, 2, 5, 1, 0);
        let _ = g.out_h();
    }

    /// A plane tall enough for the kernel but too narrow must be rejected
    /// too, not wrap to a zero-width (stride 1) or astronomically wide
    /// (stride ≥ 2) output.
    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn kernel_wider_than_padded_input_panics() {
        let g = ConvGeometry::new(1, 1, 5, 2, 3, 1, 0);
        let _ = g.out_w();
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn kernel_wider_than_padded_input_panics_strided() {
        let g = ConvGeometry::new(1, 1, 5, 2, 3, 2, 0);
        let _ = g.out_shape(1);
    }

    #[test]
    fn valid_ranges_cover_exactly_the_in_plane_taps() {
        for n in 1..9 {
            for k in 0..6 {
                for pad in 0..6 {
                    for stride in 1..5 {
                        let out = 7;
                        let (lo, hi) = valid_range(n, k, pad, stride, out);
                        for o in 0..out {
                            let i = (o * stride + k) as isize - pad as isize;
                            let inside = i >= 0 && i < n as isize;
                            assert_eq!(inside, (lo..hi).contains(&o), "n={n} k={k} pad={pad} s={stride} o={o}");
                        }
                    }
                }
            }
        }
    }
}
