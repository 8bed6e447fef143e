//! 2-D convolution and transposed convolution as **implicit GEMM**, with
//! analytic gradients.
//!
//! Layout conventions (all row-major):
//! * activations: `(B, C, H, W)`
//! * conv2d weights: `(O, C, KH, KW)` — `O` output channels
//! * conv-transpose2d weights: `(C_in, C_out, KH, KW)` (PyTorch convention)
//!
//! Every call, forward or backward, runs **one GEMM per product over the
//! whole batch**. The batch is folded into the GEMM's column extent for
//! outputs and input gradients (`(C*KH*KW, B*OH*OW)` column matrix) and
//! into its shared extent for weight gradients; either way the folded
//! index is ordered `(sample, position)`. That matrix is **never
//! materialized**: the [`Im2colRhs`] packer implements [`gemm::PackRhs`]
//! for it and for its transpose, gathering patches straight into the
//! GEMM's packed sliver format, and the transposed / grad-input paths fuse
//! `col2im` into the GEMM epilogue via [`gemm::gemm_scatter`].
//!
//! Each call zero-pads its image batch once into a workspace buffer, so
//! every tap of the virtual column matrix lies inside that buffer: the
//! packer gathers through offset tables and the fused col2im accumulates
//! into a padded image that is cropped afterwards, and no element is ever
//! tested against an image edge.
//!
//! The reference [`im2col`] / [`col2im`] functions remain as the spec:
//! every implicit path is bitwise identical to the per-sample
//! materialize-then-multiply pipeline. The packers read the exact same
//! values; each output element's `k`-order is unchanged (a weight gradient
//! visits samples in ascending order, which is the per-sample accumulation
//! order); and the epilogue accumulates every image element in ascending
//! column-matrix row order, as [`col2im`] does.
//!
//! The transposed convolution is implemented as the exact adjoint of the
//! convolution: its forward pass is a `col2im` scatter, and its backward
//! pass reuses the `im2col` geometry. This guarantees that `conv_t`
//! forward is literally the gradient of `conv` with respect to its input,
//! a property the unit tests check.

use crate::ops::gemm::{self, Lhs, PackRhs, SliceRhs, KC, NR};
use crate::tensor::Tensor;
use crate::workspace;

/// Spatial output size of a convolution along one axis.
///
/// # Panics
/// Panics if the configuration yields a non-positive size.
pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    assert!(stride > 0, "stride must be positive");
    let padded = input + 2 * pad;
    assert!(
        padded >= kernel,
        "kernel {kernel} larger than padded input {padded}"
    );
    (padded - kernel) / stride + 1
}

/// Spatial output size of a transposed convolution along one axis.
///
/// # Panics
/// Panics if `input == 0` (the `(input - 1) * stride` term would otherwise
/// underflow and silently wrap in release builds), if `stride == 0`, or if
/// the padding exceeds the produced size.
pub fn conv_transpose_out_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    assert!(stride > 0, "stride must be positive");
    assert!(
        input > 0,
        "conv_transpose input dim must be positive (got 0)"
    );
    let full = (input - 1) * stride + kernel;
    assert!(
        full >= 2 * pad,
        "padding {pad} too large for transposed conv output {full}"
    );
    full - 2 * pad
}

/// Unfolds one `(C, H, W)` image into a `(C*KH*KW, OH*OW)` column matrix.
///
/// `cols` must be zero-initialised or will be fully overwritten (including
/// the zero-padding positions).
#[allow(clippy::too_many_arguments)]
pub fn im2col(
    image: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    cols: &mut [f32],
) {
    assert_eq!(image.len(), c * h * w, "im2col image size mismatch");
    assert_eq!(
        cols.len(),
        c * kh * kw * oh * ow,
        "im2col cols size mismatch"
    );
    let ohw = oh * ow;
    for ci in 0..c {
        let img_base = ci * h * w;
        for ki in 0..kh {
            for kj in 0..kw {
                let row = ((ci * kh + ki) * kw + kj) * ohw;
                for oy in 0..oh {
                    let iy = (oy * stride + ki) as isize - pad as isize;
                    let col_base = row + oy * ow;
                    if iy < 0 || iy >= h as isize {
                        cols[col_base..col_base + ow].fill(0.0);
                        continue;
                    }
                    let img_row = img_base + iy as usize * w;
                    for ox in 0..ow {
                        let ix = (ox * stride + kj) as isize - pad as isize;
                        cols[col_base + ox] = if ix < 0 || ix >= w as isize {
                            0.0
                        } else {
                            image[img_row + ix as usize]
                        };
                    }
                }
            }
        }
    }
}

/// Adjoint of [`im2col`]: scatters a `(C*KH*KW, OH*OW)` column matrix back
/// into a `(C, H, W)` image, *accumulating* overlapping contributions.
///
/// The caller must zero `image` first if a pure scatter is wanted.
#[allow(clippy::too_many_arguments)]
pub fn col2im(
    cols: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    image: &mut [f32],
) {
    assert_eq!(image.len(), c * h * w, "col2im image size mismatch");
    assert_eq!(
        cols.len(),
        c * kh * kw * oh * ow,
        "col2im cols size mismatch"
    );
    let ohw = oh * ow;
    for ci in 0..c {
        let img_base = ci * h * w;
        for ki in 0..kh {
            for kj in 0..kw {
                let row = ((ci * kh + ki) * kw + kj) * ohw;
                for oy in 0..oh {
                    let iy = (oy * stride + ki) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let img_row = img_base + iy as usize * w;
                    let col_base = row + oy * ow;
                    for ox in 0..ow {
                        let ix = (ox * stride + kj) as isize - pad as isize;
                        if ix >= 0 && ix < w as isize {
                            image[img_row + ix as usize] += cols[col_base + ox];
                        }
                    }
                }
            }
        }
    }
}

/// Batched convolution geometry over a zero-padded image batch: `b` images
/// of `(c, hp, wp)` (each already padded on every side), the kernel, and
/// the `(oh, ow)` output grid. It describes the virtual batched column
/// matrix `(c*kh*kw, b*oh*ow)`: row `(ci, ki, kj)`, column `(bi, oy, ox)`,
/// whose element sits at padded-batch offset `row_offset + col_offset`.
/// Every such offset is inside the padded batch, so neither the packer nor
/// the fused scatter tests any index against an image edge. Shared by both
/// so their index math cannot drift apart.
#[derive(Clone, Copy)]
struct ConvGeom {
    b: usize,
    c: usize,
    hp: usize,
    wp: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    oh: usize,
    ow: usize,
}

impl ConvGeom {
    /// Geometry of a `(b, c, h, w)` batch padded by `pad` on every side.
    fn new(
        (b, c, h, w): (usize, usize, usize, usize),
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
        oh: usize,
        ow: usize,
    ) -> Self {
        ConvGeom {
            b,
            c,
            hp: h + 2 * pad,
            wp: w + 2 * pad,
            kh,
            kw,
            stride,
            oh,
            ow,
        }
    }

    /// Rows of the column matrix: `c * kh * kw`.
    fn ckk(&self) -> usize {
        self.c * self.kh * self.kw
    }

    /// Columns of the batched column matrix: `b * oh * ow`.
    fn cols(&self) -> usize {
        self.b * self.oh * self.ow
    }

    /// Elements of one padded image.
    fn image_len(&self) -> usize {
        self.c * self.hp * self.wp
    }

    /// The implicit column matrix (or its transpose) over `xpad`, a padded
    /// batch of this geometry.
    fn im2col<'a>(&self, xpad: &'a [f32], transposed: bool) -> Im2colRhs<'a> {
        Im2colRhs {
            xpad,
            g: *self,
            transposed,
        }
    }

    /// Offset of row `(ci, ki, kj)`'s tap within one padded image.
    #[inline]
    fn row_offset(&self, row: usize) -> usize {
        let kj = row % self.kw;
        let ki = (row / self.kw) % self.kh;
        let ci = row / (self.kw * self.kh);
        (ci * self.hp + ki) * self.wp + kj
    }

    /// Offset of column `(bi, oy, ox)`'s patch origin in the padded batch.
    #[inline]
    fn col_offset(&self, col: usize) -> usize {
        let ohw = self.oh * self.ow;
        let bi = col / ohw;
        let pos = col - bi * ohw;
        let oy = pos / self.ow;
        let ox = pos - oy * self.ow;
        bi * self.image_len() + (oy * self.wp + ox) * self.stride
    }
}

/// Implicit im2col right-hand operand: the virtual `(c*kh*kw, b*oh*ow)`
/// column matrix of a padded batch — or, `transposed`, its
/// `(b*oh*ow, c*kh*kw)` transpose for `grad_weight += g · cols^T` products
/// whose shared extent runs over `(sample, position)` — gathered on the
/// fly. Element `[row][col]` is the value [`im2col`] writes at
/// `cols[row][oy*ow + ox]` for sample `bi` (a pad zero outside the image),
/// so a GEMM over this operand is bitwise identical to
/// materialize-then-multiply per sample.
struct Im2colRhs<'a> {
    xpad: &'a [f32],
    g: ConvGeom,
    transposed: bool,
}

impl PackRhs for Im2colRhs<'_> {
    fn pack_panel(&self, bp: &mut [f32], kb: usize, kc: usize, jb: usize, nc: usize) {
        // An element's offset is its row's tap offset plus its column's
        // patch origin; the GEMM's `k` runs over rows unless transposed.
        type OffsetFn = fn(&ConvGeom, usize) -> usize;
        let (k_offset, n_offset): (OffsetFn, OffsetFn) = if self.transposed {
            (ConvGeom::col_offset, ConvGeom::row_offset)
        } else {
            (ConvGeom::row_offset, ConvGeom::col_offset)
        };
        let mut panel_off = [0usize; KC];
        for (p, off) in panel_off[..kc].iter_mut().enumerate() {
            *off = k_offset(&self.g, kb + p);
        }
        for (s, sliver) in bp.chunks_exact_mut(kc * NR).enumerate() {
            let j0 = jb + s * NR;
            let jw = NR.min(jb + nc - j0);
            // Lanes past `jw` gather offset 0 and are zeroed below, so the
            // gather loop always runs the full, unrolled NR.
            let mut lane_off = [0usize; NR];
            for (jj, off) in lane_off[..jw].iter_mut().enumerate() {
                *off = n_offset(&self.g, j0 + jj);
            }
            for (&po, dst) in panel_off[..kc].iter().zip(sliver.chunks_exact_mut(NR)) {
                let src = &self.xpad[po..];
                for (d, &lo) in dst.iter_mut().zip(&lane_off) {
                    *d = src[lo];
                }
                dst[jw..].fill(0.0);
            }
        }
    }
}

/// Offsets of the `oh*ow` output positions' patch origins within one
/// padded image, `(oy*wp + ox) * stride`, for [`scatter_tile`]. They are
/// held as `u32` bit patterns in a workspace buffer — the workspace
/// recycles `f32` buffers only, and the entries are never used as numbers.
fn position_offsets(g: &ConvGeom) -> Vec<f32> {
    assert!(
        g.hp * g.wp <= u32::MAX as usize,
        "conv image plane too large for u32 offsets"
    );
    let mut pos = workspace::take_uninit(g.oh * g.ow);
    for (p, off) in pos.iter_mut().enumerate() {
        *off = f32::from_bits(g.col_offset(p) as u32);
    }
    pos
}

/// Fused-col2im epilogue for [`gemm::gemm_scatter`]: accumulates `rows`
/// finished rows of the batched column matrix (starting at global row
/// `r0`) into the padded image batch `acc`, walking each sample's
/// positions through the [`position_offsets`] table `pos`. Row blocks
/// arrive in ascending order and a row touches each image element at most
/// once, so every element accumulates in ascending row order —
/// [`col2im`]'s order, per sample. Contributions landing in the pad ring
/// are cropped away later.
fn scatter_tile(tile: &[f32], r0: usize, rows: usize, g: &ConvGeom, pos: &[f32], acc: &mut [f32]) {
    let n = g.cols();
    for (r, trow) in tile[..rows * n].chunks_exact(n).enumerate() {
        let base = g.row_offset(r0 + r);
        for (bi, src) in trow.chunks_exact(pos.len()).enumerate() {
            let dst = &mut acc[base + bi * g.image_len()..];
            for (&v, &off) in src.iter().zip(pos) {
                dst[off.to_bits() as usize] += v;
            }
        }
    }
}

/// Copies a `(planes, h, w)` stack into the interior of a zeroed
/// `(planes, h + 2*pad, w + 2*pad)` workspace buffer.
fn pad_batch(x: &[f32], planes: usize, h: usize, w: usize, pad: usize) -> Vec<f32> {
    let (hp, wp) = (h + 2 * pad, w + 2 * pad);
    let mut xpad = workspace::take_zeroed(planes * hp * wp);
    if h * w > 0 {
        for (src, dst) in x.chunks_exact(h * w).zip(xpad.chunks_exact_mut(hp * wp)) {
            for (srow, drow) in src
                .chunks_exact(w)
                .zip(dst[pad * wp..].chunks_exact_mut(wp))
            {
                drow[pad..pad + w].copy_from_slice(srow);
            }
        }
    }
    xpad
}

/// Inverse of [`pad_batch`]: writes the interior of a padded `(b, c, hp,
/// wp)` batch into `out` (`(b, c, h, w)`), adding `bias[ci]` when given.
fn crop_batch(
    xpad: &[f32],
    out: &mut [f32],
    c: usize,
    h: usize,
    w: usize,
    pad: usize,
    bias: Option<&[f32]>,
) {
    if h * w == 0 {
        return;
    }
    let (hp, wp) = (h + 2 * pad, w + 2 * pad);
    for (plane, (src, dst)) in xpad
        .chunks_exact(hp * wp)
        .zip(out.chunks_exact_mut(h * w))
        .enumerate()
    {
        for (srow, drow) in src[pad * wp..]
            .chunks_exact(wp)
            .zip(dst.chunks_exact_mut(w))
        {
            let srow = &srow[pad..pad + w];
            match bias {
                Some(bias) => {
                    let bv = bias[plane % c];
                    for (d, &s) in drow.iter_mut().zip(srow) {
                        *d = s + bv;
                    }
                }
                None => drow.copy_from_slice(srow),
            }
        }
    }
}

/// Copies a `(b, c, n)` batch into channel-major `(c, b*n)` order, the
/// batched GEMM operand layout, in a workspace buffer.
fn to_channel_major(x: &[f32], b: usize, c: usize, n: usize) -> Vec<f32> {
    let mut out = workspace::take_uninit(b * c * n);
    for bi in 0..b {
        for ci in 0..c {
            out[(ci * b + bi) * n..][..n].copy_from_slice(&x[(bi * c + ci) * n..][..n]);
        }
    }
    out
}

/// Inverse of [`to_channel_major`]: writes the channel-major `(c, b*n)`
/// product `src` into `out` as `(b, c, n)`, adding `bias[ci]` when given.
fn from_channel_major(
    src: &[f32],
    out: &mut [f32],
    b: usize,
    c: usize,
    n: usize,
    bias: Option<&[f32]>,
) {
    for bi in 0..b {
        for ci in 0..c {
            let s = &src[(ci * b + bi) * n..][..n];
            let d = &mut out[(bi * c + ci) * n..][..n];
            match bias {
                Some(bias) => {
                    for (d, &s) in d.iter_mut().zip(s) {
                        *d = s + bias[ci];
                    }
                }
                None => d.copy_from_slice(s),
            }
        }
    }
}

/// `grad_bias[ci] += Σ grad_out[bi][ci][..]`, one per-sample sum at a time
/// in ascending sample order.
fn accumulate_bias_grad(g: &[f32], b: usize, c: usize, n: usize, grad_bias: &mut [f32]) {
    for bi in 0..b {
        for (ci, gb) in grad_bias.iter_mut().enumerate() {
            *gb += g[(bi * c + ci) * n..][..n].iter().sum::<f32>();
        }
    }
}

/// Batched 2-D convolution forward pass.
///
/// * `input`: `(B, C, H, W)`
/// * `weight`: `(O, C, KH, KW)`
/// * `bias`: `(O,)` or empty tensor for no bias
///
/// Returns `(B, O, OH, OW)`.
pub fn conv2d_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    stride: usize,
    pad: usize,
) -> Tensor {
    let (b, c, h, w) = dims4(input, "conv2d input");
    let wd = weight.shape();
    assert_eq!(wd.len(), 4, "conv2d weight must be 4-D");
    let (o, wc, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
    assert_eq!(c, wc, "conv2d channel mismatch: input {c} vs weight {wc}");
    let has_bias = !bias.is_empty();
    if has_bias {
        assert_eq!(bias.len(), o, "conv2d bias size mismatch");
    }
    let oh = conv_out_dim(h, kh, stride, pad);
    let ow = conv_out_dim(w, kw, stride, pad);
    let g = ConvGeom::new((b, c, h, w), kh, kw, stride, pad, oh, ow);
    let n = g.cols();

    // One implicit GEMM over the batch: prod (o, b*ohw) = weight (o, ckk) x
    // cols (ckk, b*ohw), fully overwritten, then reordered to (b, o, ohw).
    let xpad = pad_batch(input.data(), b * c, h, w, pad);
    let mut prod = workspace::take_uninit(o * n);
    gemm::gemm_with(
        Lhs::RowMajor(weight.data()),
        &g.im2col(&xpad, false),
        &mut prod,
        o,
        g.ckk(),
        n,
        false,
    );
    let mut out = workspace::take_uninit(b * o * oh * ow);
    from_channel_major(
        &prod,
        &mut out,
        b,
        o,
        oh * ow,
        has_bias.then(|| bias.data()),
    );
    workspace::recycle(prod);
    workspace::recycle(xpad);
    Tensor::new(&[b, o, oh, ow], out)
}

/// Gradients of the batched conv2d.
///
/// Returns `(grad_input, grad_weight, grad_bias)` where `grad_bias` matches
/// `(O,)` (always produced; ignore it for bias-free layers).
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    pad: usize,
) -> (Tensor, Tensor, Tensor) {
    let mut grad_weight = Tensor::zeros(weight.shape());
    let mut grad_bias = Tensor::zeros(&[weight.shape()[0]]);
    let grad_input = conv2d_backward_acc(
        input,
        weight,
        grad_out,
        stride,
        pad,
        &mut grad_weight,
        &mut grad_bias,
    );
    (grad_input, grad_weight, grad_bias)
}

/// As [`conv2d_backward`], but **accumulates** the weight and bias gradients
/// into caller-owned tensors (`grad_weight += …`, `grad_bias += …`) and
/// returns only the freshly allocated input gradient.
///
/// This is the hot-path entry point for training layers: it avoids
/// allocating per-call gradient tensors and the extra accumulation pass.
/// Its temporaries — the padded input batch (reused as the padded
/// input-gradient accumulator), the channel-major `grad_out` copy, the
/// scatter's position table and the GEMM packing panels — are drawn from
/// [`crate::workspace`] and recycled before it returns.
pub fn conv2d_backward_acc(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    pad: usize,
    grad_weight: &mut Tensor,
    grad_bias: &mut Tensor,
) -> Tensor {
    let (b, c, h, w) = dims4(input, "conv2d input");
    let wd = weight.shape();
    let (o, _, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
    let (gb, go, oh, ow) = dims4(grad_out, "conv2d grad_out");
    assert_eq!(gb, b, "conv2d grad batch mismatch");
    assert_eq!(go, o, "conv2d grad channel mismatch");
    assert_eq!(
        grad_weight.shape(),
        weight.shape(),
        "conv2d grad_weight shape mismatch"
    );
    assert_eq!(grad_bias.len(), o, "conv2d grad_bias size mismatch");
    let g = ConvGeom::new((b, c, h, w), kh, kw, stride, pad, oh, ow);
    let (ckk, n) = (g.ckk(), g.cols());

    let mut xpad = pad_batch(input.data(), b * c, h, w, pad);
    let gcm = to_channel_major(grad_out.data(), b, o, oh * ow);

    // grad_weight += g (o, b*ohw) x cols^T (b*ohw, ckk): the shared extent
    // runs over samples in ascending order, as per-sample `+=` calls would.
    gemm::gemm_with(
        Lhs::RowMajor(&gcm),
        &g.im2col(&xpad, true),
        grad_weight.data_mut(),
        o,
        n,
        ckk,
        true,
    );

    // grad_input = col2im(W^T (ckk, o) x g (o, b*ohw)), with col2im fused
    // into the GEMM epilogue over the padded batch, which the weight
    // gradient no longer needs. `Lhs::ColMajor` reads W^T in place.
    xpad.fill(0.0);
    let pos = position_offsets(&g);
    gemm::gemm_scatter(
        Lhs::ColMajor(weight.data()),
        &SliceRhs::new(&gcm, false, o, n),
        ckk,
        o,
        n,
        |tile, r0, rows| scatter_tile(tile, r0, rows, &g, &pos, &mut xpad),
    );
    let mut grad_input = workspace::take_uninit(input.len());
    crop_batch(&xpad, &mut grad_input, c, h, w, pad, None);

    accumulate_bias_grad(grad_out.data(), b, o, oh * ow, grad_bias.data_mut());
    workspace::recycle(pos);
    workspace::recycle(gcm);
    workspace::recycle(xpad);
    Tensor::new(input.shape(), grad_input)
}

/// Batched 2-D transposed convolution forward pass.
///
/// * `input`: `(B, C_in, H, W)`
/// * `weight`: `(C_in, C_out, KH, KW)`
/// * `bias`: `(C_out,)` or empty
///
/// Returns `(B, C_out, OH, OW)` with `OH = (H-1)*stride - 2*pad + KH`.
pub fn conv_transpose2d_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    stride: usize,
    pad: usize,
) -> Tensor {
    let (b, cin, h, w) = dims4(input, "conv_t input");
    let wd = weight.shape();
    assert_eq!(wd.len(), 4, "conv_t weight must be 4-D");
    let (wcin, cout, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
    assert_eq!(
        cin, wcin,
        "conv_t channel mismatch: input {cin} vs weight {wcin}"
    );
    let has_bias = !bias.is_empty();
    if has_bias {
        assert_eq!(bias.len(), cout, "conv_t bias size mismatch");
    }
    let oh = conv_transpose_out_dim(h, kh, stride, pad);
    let ow = conv_transpose_out_dim(w, kw, stride, pad);

    // The conv whose adjoint we are: image batch (b, cout, oh, ow) ->
    // columns over the input's (h, w) grid.
    let g = ConvGeom::new((b, cout, oh, ow), kh, kw, stride, pad, h, w);
    let n = g.cols();
    // cols (ckk, b*hw) = W2^T (ckk, cin) x x (cin, b*hw), scattered into the
    // padded output batch tile by tile — the column matrix never exists.
    let xcm = to_channel_major(input.data(), b, cin, h * w);
    let mut opad = workspace::take_zeroed(b * g.image_len());
    let pos = position_offsets(&g);
    gemm::gemm_scatter(
        Lhs::ColMajor(weight.data()),
        &SliceRhs::new(&xcm, false, cin, n),
        g.ckk(),
        cin,
        n,
        |tile, r0, rows| scatter_tile(tile, r0, rows, &g, &pos, &mut opad),
    );
    let mut out = workspace::take_uninit(b * cout * oh * ow);
    crop_batch(
        &opad,
        &mut out,
        cout,
        oh,
        ow,
        pad,
        has_bias.then(|| bias.data()),
    );
    workspace::recycle(pos);
    workspace::recycle(opad);
    workspace::recycle(xcm);
    Tensor::new(&[b, cout, oh, ow], out)
}

/// Gradients of the batched transposed convolution.
///
/// Returns `(grad_input, grad_weight, grad_bias)`.
pub fn conv_transpose2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    pad: usize,
) -> (Tensor, Tensor, Tensor) {
    let mut grad_weight = Tensor::zeros(weight.shape());
    let mut grad_bias = Tensor::zeros(&[weight.shape()[1]]);
    let grad_input = conv_transpose2d_backward_acc(
        input,
        weight,
        grad_out,
        stride,
        pad,
        &mut grad_weight,
        &mut grad_bias,
    );
    (grad_input, grad_weight, grad_bias)
}

/// As [`conv_transpose2d_backward`], but **accumulates** the weight and bias
/// gradients into caller-owned tensors and returns only the input gradient.
/// The training layers use this to cut per-step allocations; its
/// temporaries — the padded `grad_out` batch, the channel-major input and
/// input-gradient buffers and the GEMM packing panels — are drawn from
/// [`crate::workspace`] and recycled before it returns.
pub fn conv_transpose2d_backward_acc(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    pad: usize,
    grad_weight: &mut Tensor,
    grad_bias: &mut Tensor,
) -> Tensor {
    let (b, cin, h, w) = dims4(input, "conv_t input");
    let wd = weight.shape();
    let (_, cout, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
    let (gb, gcout, oh, ow) = dims4(grad_out, "conv_t grad_out");
    assert_eq!(gb, b, "conv_t grad batch mismatch");
    assert_eq!(gcout, cout, "conv_t grad channel mismatch");
    assert_eq!(
        grad_weight.shape(),
        weight.shape(),
        "conv_t grad_weight shape mismatch"
    );
    assert_eq!(grad_bias.len(), cout, "conv_t grad_bias size mismatch");

    // dL/dcols = im2col(dL/dout) over the adjoint conv geometry, gathered
    // on the fly from the padded grad_out batch.
    let g = ConvGeom::new((b, cout, oh, ow), kh, kw, stride, pad, h, w);
    let (ckk, n) = (g.ckk(), g.cols());
    let gpad = pad_batch(grad_out.data(), b * cout, oh, ow, pad);

    // dL/dx (cin, b*hw) = W2 (cin, ckk) x gcols (ckk, b*hw), reordered to
    // (b, cin, hw).
    let mut prod = workspace::take_uninit(cin * n);
    gemm::gemm_with(
        Lhs::RowMajor(weight.data()),
        &g.im2col(&gpad, false),
        &mut prod,
        cin,
        ckk,
        n,
        false,
    );
    let mut grad_input = workspace::take_uninit(input.len());
    from_channel_major(&prod, &mut grad_input, b, cin, h * w, None);
    workspace::recycle(prod);

    // dL/dW2 += x (cin, b*hw) x gcols^T (b*hw, ckk), samples ascending.
    let xcm = to_channel_major(input.data(), b, cin, h * w);
    gemm::gemm_with(
        Lhs::RowMajor(&xcm),
        &g.im2col(&gpad, true),
        grad_weight.data_mut(),
        cin,
        n,
        ckk,
        true,
    );

    accumulate_bias_grad(grad_out.data(), b, cout, oh * ow, grad_bias.data_mut());
    workspace::recycle(xcm);
    workspace::recycle(gpad);
    Tensor::new(input.shape(), grad_input)
}

fn dims4(t: &Tensor, what: &str) -> (usize, usize, usize, usize) {
    let s = t.shape();
    assert_eq!(s.len(), 4, "{what} must be 4-D, got {:?}", s);
    (s[0], s[1], s[2], s[3])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use crate::rng::Rng64;

    /// Direct (quadruple-loop) convolution reference.
    fn conv_ref(
        input: &Tensor,
        weight: &Tensor,
        bias: &Tensor,
        stride: usize,
        pad: usize,
    ) -> Tensor {
        let (b, c, h, w) = dims4(input, "ref input");
        let (o, _, kh, kw) = dims4(weight, "ref weight");
        let oh = conv_out_dim(h, kh, stride, pad);
        let ow = conv_out_dim(w, kw, stride, pad);
        let mut out = Tensor::zeros(&[b, o, oh, ow]);
        for bi in 0..b {
            for oc in 0..o {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = if bias.is_empty() {
                            0.0
                        } else {
                            bias.data()[oc]
                        };
                        for ci in 0..c {
                            for ki in 0..kh {
                                for kj in 0..kw {
                                    let iy = (oy * stride + ki) as isize - pad as isize;
                                    let ix = (ox * stride + kj) as isize - pad as isize;
                                    if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                        acc += input.at(&[bi, ci, iy as usize, ix as usize])
                                            * weight.at(&[oc, ci, ki, kj]);
                                    }
                                }
                            }
                        }
                        *out.at_mut(&[bi, oc, oy, ox]) = acc;
                    }
                }
            }
        }
        out
    }

    /// Direct transposed-convolution reference (scatter form).
    fn conv_t_ref(
        input: &Tensor,
        weight: &Tensor,
        bias: &Tensor,
        stride: usize,
        pad: usize,
    ) -> Tensor {
        let (b, cin, h, w) = dims4(input, "ref input");
        let (_, cout, kh, kw) = dims4(weight, "ref weight");
        let oh = conv_transpose_out_dim(h, kh, stride, pad);
        let ow = conv_transpose_out_dim(w, kw, stride, pad);
        let mut out = Tensor::zeros(&[b, cout, oh, ow]);
        for bi in 0..b {
            for ci in 0..cin {
                for y in 0..h {
                    for x in 0..w {
                        let v = input.at(&[bi, ci, y, x]);
                        for oc in 0..cout {
                            for ki in 0..kh {
                                for kj in 0..kw {
                                    let oy = (y * stride + ki) as isize - pad as isize;
                                    let ox = (x * stride + kj) as isize - pad as isize;
                                    if oy >= 0 && oy < oh as isize && ox >= 0 && ox < ow as isize {
                                        *out.at_mut(&[bi, oc, oy as usize, ox as usize]) +=
                                            v * weight.at(&[ci, oc, ki, kj]);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        if !bias.is_empty() {
            for bi in 0..b {
                for oc in 0..cout {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            *out.at_mut(&[bi, oc, oy, ox]) += bias.data()[oc];
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn out_dim_formulas() {
        assert_eq!(conv_out_dim(28, 3, 1, 1), 28);
        assert_eq!(conv_out_dim(28, 3, 2, 1), 14);
        assert_eq!(conv_out_dim(5, 5, 1, 0), 1);
        assert_eq!(conv_transpose_out_dim(7, 5, 2, 2), 13);
        assert_eq!(conv_transpose_out_dim(14, 4, 2, 1), 28);
    }

    #[test]
    fn im2col_col2im_are_adjoint() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y.
        let mut rng = Rng64::seed_from_u64(42);
        let (c, h, w, kh, kw, stride, pad) = (2, 5, 4, 3, 3, 2, 1);
        let oh = conv_out_dim(h, kh, stride, pad);
        let ow = conv_out_dim(w, kw, stride, pad);
        let x = Tensor::randn(&[c * h * w], &mut rng);
        let y = Tensor::randn(&[c * kh * kw * oh * ow], &mut rng);
        let mut cols = vec![0.0f32; y.len()];
        im2col(x.data(), c, h, w, kh, kw, stride, pad, oh, ow, &mut cols);
        let mut img = vec![0.0f32; x.len()];
        col2im(y.data(), c, h, w, kh, kw, stride, pad, oh, ow, &mut img);
        let lhs: f32 = cols.iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(&img).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn conv_matches_reference_various_configs() {
        let mut rng = Rng64::seed_from_u64(1);
        for (b, c, h, w, o, k, s, p) in [
            (1, 1, 4, 4, 1, 3, 1, 0),
            (2, 3, 6, 5, 4, 3, 1, 1),
            (2, 2, 7, 7, 3, 3, 2, 1),
            (1, 4, 8, 8, 2, 5, 2, 2),
        ] {
            let x = Tensor::randn(&[b, c, h, w], &mut rng);
            let wt = Tensor::randn(&[o, c, k, k], &mut rng);
            let bias = Tensor::randn(&[o], &mut rng);
            let got = conv2d_forward(&x, &wt, &bias, s, p);
            let want = conv_ref(&x, &wt, &bias, s, p);
            assert_eq!(got.shape(), want.shape());
            assert_close(got.data(), want.data(), 1e-3);
        }
    }

    #[test]
    fn conv_t_matches_reference_various_configs() {
        let mut rng = Rng64::seed_from_u64(2);
        for (b, cin, h, w, cout, k, s, p) in [
            (1, 1, 3, 3, 1, 3, 1, 0),
            (2, 4, 4, 4, 2, 5, 2, 2),
            (1, 3, 5, 6, 2, 4, 2, 1),
            (2, 2, 7, 7, 3, 3, 1, 1),
        ] {
            let x = Tensor::randn(&[b, cin, h, w], &mut rng);
            let wt = Tensor::randn(&[cin, cout, k, k], &mut rng);
            let bias = Tensor::randn(&[cout], &mut rng);
            let got = conv_transpose2d_forward(&x, &wt, &bias, s, p);
            let want = conv_t_ref(&x, &wt, &bias, s, p);
            assert_eq!(got.shape(), want.shape());
            assert_close(got.data(), want.data(), 1e-3);
        }
    }

    /// Finite-difference gradient check of conv2d w.r.t. input, weight, bias.
    #[test]
    fn conv_gradients_match_finite_differences() {
        let mut rng = Rng64::seed_from_u64(3);
        let (b, c, h, w, o, k, s, p) = (2, 2, 5, 5, 3, 3, 2, 1);
        let x = Tensor::randn(&[b, c, h, w], &mut rng);
        let wt = Tensor::randn(&[o, c, k, k], &mut rng).scale(0.5);
        let bias = Tensor::randn(&[o], &mut rng);
        // Loss = <out, r> for a fixed random r so dL/dout = r.
        let out = conv2d_forward(&x, &wt, &bias, s, p);
        let r = Tensor::randn(out.shape(), &mut rng);
        let (gx, gw, gb) = conv2d_backward(&x, &wt, &r, s, p);

        let loss = |x_: &Tensor, w_: &Tensor, b_: &Tensor| conv2d_forward(x_, w_, b_, s, p).dot(&r);
        let eps = 1e-2f32;
        for (idx, analytic, which) in [(7usize, &gx, 0u8), (11, &gw, 1), (1, &gb, 2)] {
            let (mut xp, mut wp, mut bp) = (x.clone(), wt.clone(), bias.clone());
            let (mut xm, mut wm, mut bm) = (x.clone(), wt.clone(), bias.clone());
            match which {
                0 => {
                    xp.data_mut()[idx] += eps;
                    xm.data_mut()[idx] -= eps;
                }
                1 => {
                    wp.data_mut()[idx] += eps;
                    wm.data_mut()[idx] -= eps;
                }
                _ => {
                    bp.data_mut()[idx] += eps;
                    bm.data_mut()[idx] -= eps;
                }
            }
            let num = (loss(&xp, &wp, &bp) - loss(&xm, &wm, &bm)) / (2.0 * eps);
            let ana = analytic.data()[idx];
            assert!(
                (num - ana).abs() < 2e-2 * num.abs().max(1.0),
                "which={which} idx={idx}: numeric {num} vs analytic {ana}"
            );
        }
    }

    /// Finite-difference gradient check of conv-transpose2d.
    #[test]
    fn conv_t_gradients_match_finite_differences() {
        let mut rng = Rng64::seed_from_u64(4);
        let (b, cin, h, w, cout, k, s, p) = (2, 3, 4, 4, 2, 4, 2, 1);
        let x = Tensor::randn(&[b, cin, h, w], &mut rng);
        let wt = Tensor::randn(&[cin, cout, k, k], &mut rng).scale(0.5);
        let bias = Tensor::randn(&[cout], &mut rng);
        let out = conv_transpose2d_forward(&x, &wt, &bias, s, p);
        let r = Tensor::randn(out.shape(), &mut rng);
        let (gx, gw, gb) = conv_transpose2d_backward(&x, &wt, &r, s, p);

        let loss = |x_: &Tensor, w_: &Tensor, b_: &Tensor| {
            conv_transpose2d_forward(x_, w_, b_, s, p).dot(&r)
        };
        let eps = 1e-2f32;
        for (idx, analytic, which) in [(5usize, &gx, 0u8), (9, &gw, 1), (0, &gb, 2)] {
            let (mut xp, mut wp, mut bp) = (x.clone(), wt.clone(), bias.clone());
            let (mut xm, mut wm, mut bm) = (x.clone(), wt.clone(), bias.clone());
            match which {
                0 => {
                    xp.data_mut()[idx] += eps;
                    xm.data_mut()[idx] -= eps;
                }
                1 => {
                    wp.data_mut()[idx] += eps;
                    wm.data_mut()[idx] -= eps;
                }
                _ => {
                    bp.data_mut()[idx] += eps;
                    bm.data_mut()[idx] -= eps;
                }
            }
            let num = (loss(&xp, &wp, &bp) - loss(&xm, &wm, &bm)) / (2.0 * eps);
            let ana = analytic.data()[idx];
            assert!(
                (num - ana).abs() < 2e-2 * num.abs().max(1.0),
                "which={which} idx={idx}: numeric {num} vs analytic {ana}"
            );
        }
    }

    /// conv_t forward must equal the adjoint of conv forward:
    /// <conv(x), y> == <x, conv_t(y)> when they share (suitably reshaped) weights.
    #[test]
    fn conv_t_is_adjoint_of_conv() {
        let mut rng = Rng64::seed_from_u64(5);
        // Geometry chosen so the conv round-trips exactly:
        // (h + 2p - k) divisible by s makes conv_t(conv shape) == input shape.
        let (c, h, w, o, k, s, p) = (2, 7, 7, 3, 3, 2, 1);
        let oh = conv_out_dim(h, k, s, p);
        let ow = conv_out_dim(w, k, s, p);
        let x = Tensor::randn(&[1, c, h, w], &mut rng);
        let y = Tensor::randn(&[1, o, oh, ow], &mut rng);
        // conv weight (o, c, k, k); conv_t weight with cin=o, cout=c must be
        // the same tensor viewed as (o, c, k, k).
        let wt = Tensor::randn(&[o, c, k, k], &mut rng);
        let no_bias = Tensor::zeros(&[0]);
        let cx = conv2d_forward(&x, &wt, &no_bias, s, p);
        let cty = conv_transpose2d_forward(&y, &wt, &no_bias, s, p);
        let lhs = cx.dot(&y);
        let rhs = x.dot(&cty);
        assert!(
            (lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn conv_without_bias() {
        let mut rng = Rng64::seed_from_u64(6);
        let x = Tensor::randn(&[1, 1, 4, 4], &mut rng);
        let wt = Tensor::randn(&[1, 1, 3, 3], &mut rng);
        let out = conv2d_forward(&x, &wt, &Tensor::zeros(&[0]), 1, 0);
        let want = conv_ref(&x, &wt, &Tensor::zeros(&[0]), 1, 0);
        assert_close(out.data(), want.data(), 1e-4);
    }

    #[test]
    #[should_panic(expected = "input dim must be positive")]
    fn conv_transpose_out_dim_rejects_zero_input() {
        // Regression: `(input - 1) * stride` used to underflow (wrapping in
        // release builds) instead of failing with a clear message.
        conv_transpose_out_dim(0, 3, 2, 1);
    }

    #[test]
    fn zero_batch_conv_forward_backward() {
        // Regression: a zero-sample batch used to panic inside
        // parallel_for_chunks ("n == 0") instead of producing empty outputs.
        let mut rng = Rng64::seed_from_u64(7);
        let x = Tensor::zeros(&[0, 2, 5, 5]);
        let wt = Tensor::randn(&[3, 2, 3, 3], &mut rng);
        let bias = Tensor::randn(&[3], &mut rng);
        let out = conv2d_forward(&x, &wt, &bias, 2, 1);
        assert_eq!(out.shape(), &[0, 3, 3, 3]);
        let (gx, gw, gbias) = conv2d_backward(&x, &wt, &out, 2, 1);
        assert_eq!(gx.shape(), x.shape());
        assert!(gw.data().iter().all(|&v| v == 0.0));
        assert!(gbias.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn zero_batch_conv_transpose_forward_backward() {
        let mut rng = Rng64::seed_from_u64(8);
        let x = Tensor::zeros(&[0, 3, 4, 4]);
        let wt = Tensor::randn(&[3, 2, 4, 4], &mut rng);
        let bias = Tensor::randn(&[2], &mut rng);
        let out = conv_transpose2d_forward(&x, &wt, &bias, 2, 1);
        assert_eq!(out.shape(), &[0, 2, 8, 8]);
        let (gx, gw, gbias) = conv_transpose2d_backward(&x, &wt, &out, 2, 1);
        assert_eq!(gx.shape(), x.shape());
        assert!(gw.data().iter().all(|&v| v == 0.0));
        assert!(gbias.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn backward_acc_accumulates_into_existing_grads() {
        let mut rng = Rng64::seed_from_u64(9);
        let x = Tensor::randn(&[2, 2, 5, 5], &mut rng);
        let wt = Tensor::randn(&[3, 2, 3, 3], &mut rng);
        let g = Tensor::randn(&[2, 3, 3, 3], &mut rng);
        let (gx_ref, gw_ref, gb_ref) = conv2d_backward(&x, &wt, &g, 2, 1);
        // Accumulating twice into non-zero grads equals 2x the fresh result.
        let mut gw = Tensor::zeros(wt.shape());
        let mut gbias = Tensor::zeros(&[3]);
        let gx1 = conv2d_backward_acc(&x, &wt, &g, 2, 1, &mut gw, &mut gbias);
        let _ = conv2d_backward_acc(&x, &wt, &g, 2, 1, &mut gw, &mut gbias);
        crate::assert_close(gx1.data(), gx_ref.data(), 1e-5);
        crate::assert_close(gw.data(), gw_ref.scale(2.0).data(), 1e-4);
        crate::assert_close(gbias.data(), gb_ref.scale(2.0).data(), 1e-4);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn conv_rejects_channel_mismatch() {
        conv2d_forward(
            &Tensor::zeros(&[1, 2, 4, 4]),
            &Tensor::zeros(&[1, 3, 3, 3]),
            &Tensor::zeros(&[0]),
            1,
            0,
        );
    }
}
