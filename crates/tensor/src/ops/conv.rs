//! 2-D convolution: im2col + blocked-GEMM forward, two-pass deterministic
//! backward, plus the direct 7-loop reference kernel.
//!
//! Parallelism (on the `seal-pool` runtime) follows the determinism
//! contract of the whole tensor crate: task boundaries are derived from
//! the problem shape only — batch × output-channel tiles in the forward
//! pass, per-batch regions for `grad_input`, per-output-channel regions
//! for `grad_weights`/`grad_bias` — and every output element accumulates
//! in the same sequential order as the serial loops, so results are
//! bitwise identical for any `SEAL_THREADS`.

use super::matmul::{gemm, gemm_consume, gemm_shared_pack, kernel_mode, KernelMode, KC, NR};
use crate::{Shape, Tensor, TensorError};
use std::cell::RefCell;

/// Output channels per forward-pass task (one task builds one batch
/// image's im2col panel and produces up to this many output maps).
const CO_TILE: usize = 32;

thread_local! {
    /// Per-thread im2col scratch, reused across calls (grown, never
    /// shrunk) so steady-state convolutions allocate nothing.
    // seal-lint: allow(hot-path-alloc) — empty at birth, grow-only after
    static COLS: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread packed-im2col panel scratch for the planned path (the
    /// folded-batch path stages its GEMM output behind the panel).
    // seal-lint: allow(hot-path-alloc) — empty at birth, grow-only after
    static PACKED_COLS: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Geometry of a 2-D convolution: kernel size, stride and zero padding
/// (square in both dimensions, matching every CONV layer of VGG/ResNet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    /// Kernel height and width.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on every border.
    pub padding: usize,
}

impl Conv2dGeometry {
    /// The common `3×3 / stride 1 / pad 1` geometry.
    pub fn same3x3() -> Self {
        Conv2dGeometry {
            kernel: 3,
            stride: 1,
            padding: 1,
        }
    }

    /// Output spatial size for an input of `n` pixels along one dimension.
    ///
    /// Returns `None` when the kernel does not fit in the padded input.
    pub fn output_size(&self, n: usize) -> Option<usize> {
        let padded = n + 2 * self.padding;
        if padded < self.kernel || self.stride == 0 {
            return None;
        }
        Some((padded - self.kernel) / self.stride + 1)
    }
}

impl Default for Conv2dGeometry {
    fn default() -> Self {
        Conv2dGeometry::same3x3()
    }
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct Conv2dGradients {
    /// Gradient w.r.t. the input feature map, shaped like the input.
    pub grad_input: Tensor,
    /// Gradient w.r.t. the weights, shaped like the weights.
    pub grad_weights: Tensor,
    /// Gradient w.r.t. the per-output-channel bias.
    pub grad_bias: Tensor,
}

/// Validated conv dimensions: `(n, c_in, h, w, c_out, oh, ow, k)`.
type ConvDims = (usize, usize, usize, usize, usize, usize, usize, usize);

fn check_conv_shapes(
    input: &Tensor,
    weights: &Tensor,
    geom: &Conv2dGeometry,
) -> Result<ConvDims, TensorError> {
    if input.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input.shape().rank(),
            op: "conv2d input",
        });
    }
    if weights.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: weights.shape().rank(),
            op: "conv2d weights",
        });
    }
    let (n, c_in, h, w) = (
        input.shape().dim(0),
        input.shape().dim(1),
        input.shape().dim(2),
        input.shape().dim(3),
    );
    let (c_out, wc_in, kh, kw) = (
        weights.shape().dim(0),
        weights.shape().dim(1),
        weights.shape().dim(2),
        weights.shape().dim(3),
    );
    if wc_in != c_in {
        return Err(TensorError::ShapeMismatch {
            lhs: input.shape().clone(),
            rhs: weights.shape().clone(),
            op: "conv2d channel count",
        });
    }
    if kh != geom.kernel || kw != geom.kernel {
        return Err(TensorError::InvalidGeometry {
            reason: format!(
                "weight kernel {kh}x{kw} disagrees with geometry kernel {}",
                geom.kernel
            ),
        });
    }
    let oh = geom.output_size(h).ok_or_else(|| TensorError::InvalidGeometry {
        reason: format!("kernel {} does not fit height {h}", geom.kernel),
    })?;
    let ow = geom.output_size(w).ok_or_else(|| TensorError::InvalidGeometry {
        reason: format!("kernel {} does not fit width {w}", geom.kernel),
    })?;
    Ok((n, c_in, h, w, c_out, oh, ow, geom.kernel))
}

/// Fills `cols` (shape `[c_in·k·k] × [oh·ow]`, row-major) with the im2col
/// expansion of batch image `b_idx`: row `q = (ci·k + ky)·k + kx`, column
/// `oy·ow + ox`, zero where the receptive field falls in the padding. Row
/// order `q` matches the `ci → ky → kx` accumulation order of the direct
/// kernel, so the GEMM reduction visits products in the same sequence.
#[allow(clippy::too_many_arguments)]
// seal-lint: allow(panic-freedom) — gather offsets are bounded by the conv geometry validated in `Conv2dGeometry::checked_dims`
fn fill_im2col(
    cols: &mut [f32],
    x: &[f32],
    b_idx: usize,
    c_in: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    k: usize,
    stride: usize,
    pad: usize,
) {
    let s = oh * ow;
    for ci in 0..c_in {
        let x_base = (b_idx * c_in + ci) * h * w;
        for ky in 0..k {
            for kx in 0..k {
                let q = (ci * k + ky) * k + kx;
                let row = &mut cols[q * s..(q + 1) * s];
                for oy in 0..oh {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    let dst = &mut row[oy * ow..(oy + 1) * ow];
                    if iy < 0 || iy >= h as isize {
                        dst.fill(0.0);
                        continue;
                    }
                    let xrow = x_base + iy as usize * w;
                    for (ox, d) in dst.iter_mut().enumerate() {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        *d = if ix < 0 || ix >= w as isize {
                            0.0
                        } else {
                            x[xrow + ix as usize]
                        };
                    }
                }
            }
        }
    }
}

/// 2-D convolution forward pass (im2col + cache-blocked GEMM, parallel
/// over batch × output-channel tiles).
///
/// * `input` — `NCHW` activations.
/// * `weights` — `[c_out, c_in, k, k]` kernel matrix. The slice
///   `weights[:, i, :, :]` is *kernel row i* in the paper's terminology and
///   is the unit the SE scheme encrypts or bypasses.
/// * `bias` — optional `[c_out]` bias.
///
/// Each task owns a disjoint `[b, co_tile]` slab of the output, builds the
/// image's im2col panel in per-thread scratch reused across calls, and
/// reduces products in ascending `(ci, ky, kx)` order starting from the
/// bias — the same per-element order as [`conv2d_reference`], with
/// explicit `0.0` products where the window overlaps the padding.
///
/// # Errors
///
/// Shape/geometry mismatches produce the corresponding [`TensorError`].
// seal-lint: allow(panic-freedom) — patch offsets follow the validated conv geometry; shape errors are rejected before the loops
pub fn conv2d(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&Tensor>,
    geom: &Conv2dGeometry,
) -> Result<Tensor, TensorError> {
    let (n, c_in, h, w, c_out, oh, ow, k) = check_conv_shapes(input, weights, geom)?;
    if let Some(b) = bias {
        if b.len() != c_out {
            return Err(TensorError::LengthMismatch {
                expected: c_out,
                actual: b.len(),
            });
        }
    }
    let mut out = Tensor::zeros(Shape::nchw(n, c_out, oh, ow));
    let x = input.as_slice();
    let wt = weights.as_slice();
    let bias = bias.map(Tensor::as_slice);
    let (stride, pad) = (geom.stride, geom.padding);
    let s = oh * ow;
    let kdim = c_in * k * k;
    if s == 0 || c_out == 0 || n == 0 {
        return Ok(out);
    }

    // Fixed task tiling: one task per (batch image, CO_TILE output
    // channels). Boundaries depend only on the shape, never the thread
    // count.
    let tiles = c_out.div_ceil(CO_TILE);
    let mut ranges = Vec::with_capacity(n * tiles);
    for b_idx in 0..n {
        for t in 0..tiles {
            let co0 = t * CO_TILE;
            let co1 = (co0 + CO_TILE).min(c_out);
            ranges.push((b_idx * c_out + co0) * s..(b_idx * c_out + co1) * s);
        }
    }
    // Resolved once on the caller so every task uses the same kernel.
    let mode = kernel_mode();
    seal_pool::par_ranges_mut(out.as_mut_slice(), &ranges, |task, out_slab| {
        let b_idx = task / tiles;
        let co0 = (task % tiles) * CO_TILE;
        let co_count = out_slab.len() / s;
        COLS.with(|cols| {
            let mut cols = cols.borrow_mut();
            cols.clear();
            cols.resize(kdim * s, 0.0);
            fill_im2col(&mut cols, x, b_idx, c_in, h, w, oh, ow, k, stride, pad);
            if let Some(bv) = bias {
                for (row, &b) in out_slab.chunks_exact_mut(s).zip(&bv[co0..co0 + co_count]) {
                    row.fill(b);
                }
            }
            gemm(
                &wt[co0 * kdim..(co0 + co_count) * kdim],
                &cols,
                out_slab,
                co_count,
                kdim,
                s,
                mode,
            );
        });
    });
    Ok(out)
}

/// Static shape bundle for a planned (compiled) convolution: everything
/// [`conv2d_infer_packed`] needs that never changes between batches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvPlanDims {
    /// Input channels.
    pub c_in: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Output channels.
    pub c_out: usize,
    /// Output height (must equal `geom.output_size(h)`).
    pub oh: usize,
    /// Output width (must equal `geom.output_size(w)`).
    pub ow: usize,
    /// Kernel/stride/padding geometry.
    pub geom: Conv2dGeometry,
}

impl ConvPlanDims {
    /// True when one image has fewer output positions than one GEMM
    /// column strip. The planned convolutions then run a batch as **one**
    /// GEMM over every image's positions side by side instead of one
    /// mostly-padding strip per image. A shape-only rule, so the choice
    /// can never depend on the thread count or the kernel mode.
    pub fn folds_batch(&self) -> bool {
        self.oh * self.ow < NR
    }
}

/// Compile-time im2col gather table for a planned convolution: for each
/// cell of the packed-panel im2col representation, the source offset
/// inside one image's `c_in·h·w` block, or `-1` where the receptive field
/// falls in the zero padding (and in the pad lanes of the last strip).
///
/// The table depends only on the shape, so compiled-plan callers build
/// it **once at plan-compile time** and the steady-state fill
/// degenerates to a branch-light gather — no per-element index
/// arithmetic on the hot path at all.
///
/// Layout matches `pack_b_full` applied to the im2col matrix
/// (`[c_in·k·k] × [oh·ow]`): `strips = ceil(oh·ow / NR)`, panel `p` at
/// offset `p·KC·strips·NR`, strip-major inside, the last strip padded.
#[derive(Debug, Clone)]
pub struct Im2colGather {
    /// Source offsets for the packed panels (`strips·kdim·NR`).
    panels: Vec<i32>,
}

impl Im2colGather {
    /// Builds the gather table for `dims`. This allocates and runs the
    /// full index arithmetic — call it at plan-compile time, never per
    /// batch.
    // seal-lint: allow(panic-freedom) — precomputed gather indices are built from the same validated geometry they will be used under
    pub fn compile(dims: &ConvPlanDims) -> Im2colGather {
        let ConvPlanDims {
            c_in,
            h,
            w,
            oh,
            ow,
            geom,
            ..
        } = *dims;
        let (k, stride, pad) = (geom.kernel, geom.stride, geom.padding);
        let s = oh * ow;
        let kdim = c_in * k * k;
        let strips = s.div_ceil(NR);
        // Top-left input coordinate of every output position's receptive
        // field, computed once. One-time compile-step allocations.
        let origin: Vec<(isize, isize)> = (0..s)
            .map(|p| {
                (
                    (p / ow * stride) as isize - pad as isize,
                    (p % ow * stride) as isize - pad as isize,
                )
            })
            .collect(); // seal-lint: allow(hot-path-alloc)
        let mut panels = vec![0i32; strips * kdim * NR]; // seal-lint: allow(hot-path-alloc)
        let mut k0 = 0;
        while k0 < kdim {
            let kc = KC.min(kdim - k0);
            let base = k0 * strips * NR;
            for sidx in 0..strips {
                let dst = &mut panels[base + sidx * kc * NR..base + (sidx + 1) * kc * NR];
                for (kk, drow) in dst.chunks_exact_mut(NR).enumerate() {
                    let q = k0 + kk;
                    let (ci, ky, kx) = (q / (k * k), (q / k % k) as isize, (q % k) as isize);
                    for (c, d) in drow.iter_mut().enumerate() {
                        // Positions past `s` are the pad lanes of the
                        // last strip: they gather the explicit zero too.
                        *d = match origin.get(sidx * NR + c) {
                            Some(&(y0, x0))
                                if (0..h as isize).contains(&(y0 + ky))
                                    && (0..w as isize).contains(&(x0 + kx)) =>
                            {
                                (ci * h * w) as i32 + ((y0 + ky) * w as isize + x0 + kx) as i32
                            }
                            _ => -1,
                        };
                    }
                }
            }
            k0 += KC;
        }
        Im2colGather { panels }
    }

    /// Total number of gather cells (diagnostic/size accounting).
    pub fn len(&self) -> usize {
        self.panels.len()
    }

    /// Whether the table is empty (degenerate zero-volume shapes).
    pub fn is_empty(&self) -> bool {
        self.panels.is_empty()
    }
}

/// The first `len` floats of a per-thread scratch buffer, grown on first
/// need and never shrunk or cleared.
fn grown(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// Loads one gather cell: `-1` padding offsets wrap past the image length
/// and yield the explicit `0.0` the GEMM reduction expects.
#[inline(always)]
fn gather_cell(img: &[f32], g: i32) -> f32 {
    img.get(g as u32 as usize).copied().unwrap_or(0.0)
}

/// Fills the packed-panel im2col representation of one image directly
/// from its `c_in·h·w` block via the precompiled gather table. Every live
/// element of `panels` (pad lanes included) is overwritten, and there is
/// no index arithmetic: each cell is a bounds-folded load.
fn fill_im2col_packed(panels: &mut [f32], img: &[f32], gather: &Im2colGather) {
    for (d, &g) in panels.iter_mut().zip(&gather.panels) {
        *d = gather_cell(img, g);
    }
}

/// Fills the packed-panel im2col representation of a whole batch of a
/// [`ConvPlanDims::folds_batch`] shape: folded column `img·s + p` holds
/// output position `p` of image `img`, so the `n·s` columns fill
/// `ceil(n·s / NR)` strips instead of `n` mostly-padding ones. The
/// per-image table has a single strip, so row `q`'s source offsets are
/// `gather.panels[q·NR ..][..s]`.
// seal-lint: allow(panic-freedom) — `panels` is sized `ceil(n·s/NR)·kdim·NR` by the caller and every index below is `< (k0+kc)·strips·NR`; the table holds `kdim·NR` cells (checked on entry to `conv2d_infer_packed`)
fn fill_im2col_folded(
    panels: &mut [f32],
    x: &[f32],
    n: usize,
    s: usize,
    kdim: usize,
    gather: &Im2colGather,
) {
    let (plane, cols) = (x.len() / n, n * s);
    let strips = cols.div_ceil(NR);
    let mut k0 = 0;
    while k0 < kdim {
        let kc = KC.min(kdim - k0);
        let panel = &mut panels[k0 * strips * NR..(k0 + kc) * strips * NR];
        for kk in 0..kc {
            let offs = &gather.panels[(k0 + kk) * NR..(k0 + kk) * NR + s];
            let mut cell = |j: usize, v: f32| panel[(j / NR * kc + kk) * NR + j % NR] = v;
            let mut j = 0;
            for i in 0..n {
                let img = &x[i * plane..(i + 1) * plane];
                for &g in offs {
                    cell(j, gather_cell(img, g));
                    j += 1;
                }
            }
            for j in cols..strips * NR {
                cell(j, 0.0);
            }
        }
        k0 += KC;
    }
}

/// Planned convolution forward pass into a caller-owned output buffer —
/// the compiled-plan hot path. Builds each image's im2col expansion
/// *directly in packed panel layout* (per-thread scratch, grown once)
/// through the precompiled [`Im2colGather`] table, so both the per-call
/// `pack_b_panel` step of the generic GEMM *and* the per-element im2col
/// index arithmetic disappear, and writes `n · c_out · oh · ow`
/// activations into `out` without any heap allocation.
///
/// Parallelism: a single image parallelises over `MC`-row blocks of the
/// shared packed panel; a batch runs one task per image, each with its
/// own thread-local packed scratch — unless the shape
/// [folds](ConvPlanDims::folds_batch), in which case the whole batch is
/// one GEMM `[c_out × kdim]·[kdim × n·s]` over a shared pack, staged
/// channel-major and copied out to NCHW. Either way every output element
/// accumulates bias-first then ascending `(ci, ky, kx)` products inside
/// one task — the exact order of [`conv2d`] — so the result is bitwise
/// identical to the unplanned kernel (and therefore to `forward_infer`)
/// for any thread count in the same [`KernelMode`].
///
/// With `relu` set, each producing task clamps its freshly-written slab
/// to `max(0, ·)` before returning (fused write-back; opt-in).
///
/// # Errors
///
/// [`TensorError::LengthMismatch`] / [`TensorError::InvalidGeometry`] if
/// the buffers or `gather` table disagree with `dims` (the plan
/// compiler guarantees they never do).
#[allow(clippy::too_many_arguments)]
// seal-lint: allow(panic-freedom) — panel and column offsets derive from the validated geometry and the packed panel's own extents
pub fn conv2d_infer_packed(
    x: &[f32],
    n: usize,
    dims: &ConvPlanDims,
    gather: &Im2colGather,
    wt: &[f32],
    bias: &[f32],
    out: &mut [f32],
    relu: bool,
    mode: KernelMode,
) -> Result<(), TensorError> {
    let ConvPlanDims {
        c_in,
        h,
        w,
        c_out,
        oh,
        ow,
        geom,
    } = *dims;
    if geom.output_size(h) != Some(oh) || geom.output_size(w) != Some(ow) {
        return Err(TensorError::InvalidGeometry {
            reason: format!(
                "planned conv dims {oh}x{ow} disagree with geometry on {h}x{w} input"
            ),
        });
    }
    let s = oh * ow;
    let kdim = c_in * geom.kernel * geom.kernel;
    let packed_len = s.div_ceil(NR) * kdim * NR;
    for (expected, actual) in [
        (n * c_in * h * w, x.len()),
        (c_out * kdim, wt.len()),
        (c_out, bias.len()),
        (n * c_out * s, out.len()),
        (packed_len, gather.panels.len()),
    ] {
        if expected != actual {
            return Err(TensorError::LengthMismatch { expected, actual });
        }
    }
    if n == 0 || s == 0 || c_out == 0 {
        return Ok(());
    }
    let plane = c_in * h * w;
    if n > 1 && dims.folds_batch() {
        // Folded batch: one shared pack of all images' columns, one GEMM
        // (row-block parallel like the single-image path) into a
        // channel-major stage `[c_out × n·s]`, then a copy-out to NCHW.
        let cols = n * s;
        let folded_len = cols.div_ceil(NR) * kdim * NR;
        PACKED_COLS.with(|pc| {
            let mut scratch = pc.borrow_mut();
            let (panels, stage) =
                grown(&mut scratch, folded_len + c_out * cols).split_at_mut(folded_len);
            fill_im2col_folded(panels, x, n, s, kdim, gather);
            for (row, &b) in stage.chunks_exact_mut(cols).zip(bias) {
                row.fill(b);
            }
            gemm_shared_pack(wt, panels, stage, c_out, kdim, cols, mode, relu);
            for (co, row) in stage.chunks_exact(cols).enumerate() {
                for (img, px) in row.chunks_exact(s).enumerate() {
                    out[(img * c_out + co) * s..][..s].copy_from_slice(px);
                }
            }
        });
        return Ok(());
    }
    if n == 1 {
        // Single image: pack once on the caller, parallelise the consume
        // over MC-row (output-channel) blocks of the shared pack.
        PACKED_COLS.with(|pc| {
            let mut scratch = pc.borrow_mut();
            let panels = grown(&mut scratch, packed_len);
            fill_im2col_packed(panels, x, gather);
            for (row, &b) in out.chunks_exact_mut(s).zip(bias) {
                row.fill(b);
            }
            gemm_shared_pack(wt, panels, out, c_out, kdim, s, mode, relu);
        });
        return Ok(());
    }
    // Batch: one task per image, each building its own packed panel in
    // per-thread scratch — boundaries depend only on the shape.
    seal_pool::par_chunks_mut(out, c_out * s, |img, slab| {
        PACKED_COLS.with(|pc| {
            let mut scratch = pc.borrow_mut();
            let panels = grown(&mut scratch, packed_len);
            fill_im2col_packed(panels, &x[img * plane..(img + 1) * plane], gather);
            for (row, &b) in slab.chunks_exact_mut(s).zip(bias) {
                row.fill(b);
            }
            gemm_consume(wt, panels, slab, c_out, kdim, s, mode);
            if relu {
                for v in slab.iter_mut() {
                    *v = v.max(0.0);
                }
            }
        });
    });
    Ok(())
}

/// Direct 7-loop convolution — the readable reference the production
/// kernel is tested against, and the benchmark baseline. Skips padding
/// positions instead of multiplying by explicit zeros, so on non-finite
/// weights it may differ from [`conv2d`] in NaN placement.
///
/// # Errors
///
/// Shape/geometry mismatches produce the corresponding [`TensorError`].
pub fn conv2d_reference(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&Tensor>,
    geom: &Conv2dGeometry,
) -> Result<Tensor, TensorError> {
    let (n, c_in, h, w, c_out, oh, ow, k) = check_conv_shapes(input, weights, geom)?;
    if let Some(b) = bias {
        if b.len() != c_out {
            return Err(TensorError::LengthMismatch {
                expected: c_out,
                actual: b.len(),
            });
        }
    }
    let mut out = Tensor::zeros(Shape::nchw(n, c_out, oh, ow));
    let x = input.as_slice();
    let wt = weights.as_slice();
    let o = out.as_mut_slice();
    let (stride, pad) = (geom.stride, geom.padding);

    for b_idx in 0..n {
        for co in 0..c_out {
            let bias_v = bias.map_or(0.0, |b| b.as_slice()[co]);
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias_v;
                    for ci in 0..c_in {
                        let w_base = ((co * c_in + ci) * k) * k;
                        let x_base = (b_idx * c_in + ci) * h * w;
                        for ky in 0..k {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let xrow = x_base + iy as usize * w;
                            let wrow = w_base + ky * k;
                            for kx in 0..k {
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                acc += x[xrow + ix as usize] * wt[wrow + kx];
                            }
                        }
                    }
                    o[((b_idx * c_out + co) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    Ok(out)
}

/// 2-D convolution backward pass.
///
/// Given the upstream gradient `grad_output` (shaped like the forward
/// output), produces gradients w.r.t. input, weights and bias.
///
/// Runs as two deterministic parallel passes: `grad_input` parallel over
/// batch images (each image's gradient lives in a disjoint region and
/// accumulates in the serial loop's `co → oy → ox → ci → ky → kx` order),
/// then `grad_weights` + `grad_bias` parallel over output channels (each
/// channel's weight rows and bias cell accumulate in the serial
/// `b → oy → ox` order). Outputs are bitwise identical to the serial
/// kernel for any thread count.
///
/// # Errors
///
/// Shape/geometry mismatches produce the corresponding [`TensorError`].
pub fn conv2d_backward(
    input: &Tensor,
    weights: &Tensor,
    grad_output: &Tensor,
    geom: &Conv2dGeometry,
) -> Result<Conv2dGradients, TensorError> {
    let (n, c_in, h, w, c_out, oh, ow, k) = check_conv_shapes(input, weights, geom)?;
    let expected = Shape::nchw(n, c_out, oh, ow);
    if !grad_output.shape().same_dims(&expected) {
        return Err(TensorError::ShapeMismatch {
            lhs: grad_output.shape().clone(),
            rhs: expected,
            op: "conv2d_backward grad_output",
        });
    }

    let mut grad_input = Tensor::zeros(input.shape().clone());
    let mut grad_weights = Tensor::zeros(weights.shape().clone());
    let mut grad_bias = Tensor::zeros(Shape::vector(c_out));

    let x = input.as_slice();
    let wt = weights.as_slice();
    let go = grad_output.as_slice();
    let (stride, pad) = (geom.stride, geom.padding);
    let plane_in = c_in * h * w;

    // Pass A — grad_input, one task per batch image.
    seal_pool::par_chunks_mut(grad_input.as_mut_slice(), plane_in.max(1), |b_idx, gi| {
        if gi.is_empty() {
            return;
        }
        for co in 0..c_out {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = go[((b_idx * c_out + co) * oh + oy) * ow + ox];
                    if g == 0.0 {
                        continue;
                    }
                    for ci in 0..c_in {
                        let w_base = ((co * c_in + ci) * k) * k;
                        let gi_base = ci * h * w;
                        for ky in 0..k {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let girow = gi_base + iy as usize * w;
                            let wrow = w_base + ky * k;
                            for kx in 0..k {
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                gi[girow + ix as usize] += g * wt[wrow + kx];
                            }
                        }
                    }
                }
            }
        }
    });

    // Pass B — grad_weights + grad_bias, one task per output channel.
    let wrows = c_in * k * k;
    seal_pool::par_chunks_pair_mut(
        grad_weights.as_mut_slice(),
        wrows.max(1),
        grad_bias.as_mut_slice(),
        1,
        |co, gw, gb| {
            if gw.is_empty() {
                return;
            }
            for b_idx in 0..n {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = go[((b_idx * c_out + co) * oh + oy) * ow + ox];
                        if g == 0.0 {
                            continue;
                        }
                        gb[0] += g;
                        for ci in 0..c_in {
                            let w_base = ci * k * k;
                            let x_base = (b_idx * c_in + ci) * h * w;
                            for ky in 0..k {
                                let iy = (oy * stride + ky) as isize - pad as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                let xrow = x_base + iy as usize * w;
                                let wrow = w_base + ky * k;
                                for kx in 0..k {
                                    let ix = (ox * stride + kx) as isize - pad as isize;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    gw[wrow + kx] += g * x[xrow + ix as usize];
                                }
                            }
                        }
                    }
                }
            }
        },
    );

    Ok(Conv2dGradients {
        grad_input,
        grad_weights,
        grad_bias,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_input() -> Tensor {
        // 1x1x3x3 ascending values.
        Tensor::from_vec(
            (1..=9).map(|v| v as f32).collect(),
            Shape::nchw(1, 1, 3, 3),
        )
        .unwrap()
    }

    #[test]
    fn identity_kernel_preserves_input() {
        let input = simple_input();
        // 3x3 kernel with centre 1, pad 1 => identity.
        let mut wdata = vec![0.0f32; 9];
        wdata[4] = 1.0;
        let w = Tensor::from_vec(wdata, Shape::nchw(1, 1, 3, 3)).unwrap();
        let out = conv2d(&input, &w, None, &Conv2dGeometry::same3x3()).unwrap();
        assert_eq!(out.as_slice(), input.as_slice());
    }

    #[test]
    fn valid_convolution_sums_window() {
        let input = simple_input();
        let w = Tensor::ones(Shape::nchw(1, 1, 3, 3));
        let geom = Conv2dGeometry {
            kernel: 3,
            stride: 1,
            padding: 0,
        };
        let out = conv2d(&input, &w, None, &geom).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 1, 1]);
        assert_eq!(out.as_slice()[0], 45.0);
    }

    #[test]
    fn bias_added_per_output_channel() {
        let input = simple_input();
        let w = Tensor::zeros(Shape::nchw(2, 1, 3, 3));
        let bias = Tensor::from_vec(vec![1.5, -2.0], Shape::vector(2)).unwrap();
        let out = conv2d(&input, &w, Some(&bias), &Conv2dGeometry::same3x3()).unwrap();
        assert_eq!(out.at4(0, 0, 1, 1), 1.5);
        assert_eq!(out.at4(0, 1, 2, 2), -2.0);
    }

    #[test]
    fn stride_two_downsamples() {
        let input = Tensor::ones(Shape::nchw(1, 1, 4, 4));
        let w = Tensor::ones(Shape::nchw(1, 1, 1, 1));
        let geom = Conv2dGeometry {
            kernel: 1,
            stride: 2,
            padding: 0,
        };
        let out = conv2d(&input, &w, None, &geom).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 2, 2]);
    }

    #[test]
    fn channel_mismatch_rejected() {
        let input = Tensor::zeros(Shape::nchw(1, 2, 3, 3));
        let w = Tensor::zeros(Shape::nchw(1, 3, 3, 3));
        assert!(conv2d(&input, &w, None, &Conv2dGeometry::same3x3()).is_err());
    }

    /// The im2col + GEMM kernel must agree with the direct 7-loop
    /// reference bitwise on finite inputs, across strides/paddings/
    /// channel counts (including a c_out > CO_TILE split).
    #[test]
    fn im2col_matches_direct_reference_bitwise() {
        use crate::rng::rngs::StdRng;
        use crate::rng::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        let cases = [
            (2, 3, 8, 8, 5, 3, 1, 1),
            (1, 2, 7, 9, 4, 3, 2, 0),
            (2, 1, 6, 6, 40, 1, 1, 0), // c_out > CO_TILE: multi-tile split
            (1, 4, 5, 5, 3, 5, 1, 2),
        ];
        for &(n, c_in, h, w, c_out, k, stride, padding) in &cases {
            let geom = Conv2dGeometry {
                kernel: k,
                stride,
                padding,
            };
            let input = crate::uniform(&mut rng, Shape::nchw(n, c_in, h, w), -1.0, 1.0);
            let weights = crate::uniform(&mut rng, Shape::nchw(c_out, c_in, k, k), -0.5, 0.5);
            let bias = crate::uniform(&mut rng, Shape::vector(c_out), -0.1, 0.1);
            let fast = conv2d(&input, &weights, Some(&bias), &geom).unwrap();
            let reference = conv2d_reference(&input, &weights, Some(&bias), &geom).unwrap();
            let same = fast
                .as_slice()
                .iter()
                .zip(reference.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "im2col != direct for case {n}x{c_in}x{h}x{w} k{k}");
        }
    }

    /// Finite-difference check of the backward pass: perturb each weight and
    /// compare the numeric gradient of a scalar loss (sum of outputs) with
    /// the analytic gradient.
    #[test]
    fn backward_matches_finite_differences() {
        use crate::rng::rngs::StdRng;
        use crate::rng::SeedableRng;
        let mut rng = StdRng::seed_from_u64(42);
        let input = crate::uniform(&mut rng, Shape::nchw(1, 2, 4, 4), -1.0, 1.0);
        let weights = crate::uniform(&mut rng, Shape::nchw(3, 2, 3, 3), -0.5, 0.5);
        let geom = Conv2dGeometry::same3x3();

        let out = conv2d(&input, &weights, None, &geom).unwrap();
        let grad_out = Tensor::ones(out.shape().clone());
        let grads = conv2d_backward(&input, &weights, &grad_out, &geom).unwrap();

        let eps = 1e-2f32;
        for idx in [0usize, 7, 20, 53] {
            let mut wp = weights.clone();
            wp.as_mut_slice()[idx] += eps;
            let up = conv2d(&input, &wp, None, &geom).unwrap().sum();
            let mut wm = weights.clone();
            wm.as_mut_slice()[idx] -= eps;
            let dn = conv2d(&input, &wm, None, &geom).unwrap().sum();
            let numeric = (up - dn) / (2.0 * eps);
            let analytic = grads.grad_weights.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 0.05 * analytic.abs().max(1.0),
                "weight {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }

        // Same check for a couple of input elements.
        for idx in [0usize, 13, 31] {
            let mut xp = input.clone();
            xp.as_mut_slice()[idx] += eps;
            let up = conv2d(&xp, &weights, None, &geom).unwrap().sum();
            let mut xm = input.clone();
            xm.as_mut_slice()[idx] -= eps;
            let dn = conv2d(&xm, &weights, None, &geom).unwrap().sum();
            let numeric = (up - dn) / (2.0 * eps);
            let analytic = grads.grad_input.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 0.05 * analytic.abs().max(1.0),
                "input {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn grad_bias_counts_output_elements() {
        let input = Tensor::ones(Shape::nchw(1, 1, 3, 3));
        let w = Tensor::ones(Shape::nchw(1, 1, 3, 3));
        let geom = Conv2dGeometry::same3x3();
        let out = conv2d(&input, &w, None, &geom).unwrap();
        let grads =
            conv2d_backward(&input, &w, &Tensor::ones(out.shape().clone()), &geom).unwrap();
        assert_eq!(grads.grad_bias.as_slice(), &[9.0]);
    }

    /// The planned packed-im2col path must agree bitwise with the
    /// generic kernel (fusion off) across single-image, batched, tailed
    /// (`s % NR != 0`) and multi-k-panel cases.
    #[test]
    fn planned_packed_matches_conv2d_bitwise() {
        use crate::rng::rngs::StdRng;
        use crate::rng::SeedableRng;
        let mut rng = StdRng::seed_from_u64(9);
        let cases = [
            (1, 3, 8, 8, 5, 3, 1, 1),   // single image
            (3, 2, 7, 9, 4, 3, 2, 0),   // batch, odd spatial tail
            (2, 1, 6, 6, 40, 1, 1, 0),  // c_out > MC row split
            (1, 16, 6, 6, 8, 3, 1, 1),  // kdim > KC: multiple k-panels
        ];
        for &(n, c_in, h, w, c_out, k, stride, padding) in &cases {
            let geom = Conv2dGeometry {
                kernel: k,
                stride,
                padding,
            };
            let input = crate::uniform(&mut rng, Shape::nchw(n, c_in, h, w), -1.0, 1.0);
            let weights = crate::uniform(&mut rng, Shape::nchw(c_out, c_in, k, k), -0.5, 0.5);
            let bias = crate::uniform(&mut rng, Shape::vector(c_out), -0.1, 0.1);
            let reference = conv2d(&input, &weights, Some(&bias), &geom).unwrap();
            let (oh, ow) = (
                geom.output_size(h).unwrap(),
                geom.output_size(w).unwrap(),
            );
            let dims = ConvPlanDims {
                c_in,
                h,
                w,
                c_out,
                oh,
                ow,
                geom,
            };
            let gather = Im2colGather::compile(&dims);
            let mut out = vec![0.0f32; n * c_out * oh * ow];
            conv2d_infer_packed(
                input.as_slice(),
                n,
                &dims,
                &gather,
                weights.as_slice(),
                bias.as_slice(),
                &mut out,
                false,
                kernel_mode(),
            )
            .unwrap();
            let same = out
                .iter()
                .zip(reference.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "planned != conv2d for case {n}x{c_in}x{h}x{w} k{k}");

            // Fused ReLU clamps exactly.
            let mut fused = vec![0.0f32; out.len()];
            conv2d_infer_packed(
                input.as_slice(),
                n,
                &dims,
                &gather,
                weights.as_slice(),
                bias.as_slice(),
                &mut fused,
                true,
                kernel_mode(),
            )
            .unwrap();
            assert!(fused
                .iter()
                .zip(&out)
                .all(|(f, v)| f.to_bits() == v.max(0.0).to_bits()));
        }
    }

    #[test]
    fn planned_packed_rejects_bad_lengths() {
        let dims = ConvPlanDims {
            c_in: 1,
            h: 3,
            w: 3,
            c_out: 1,
            oh: 3,
            ow: 3,
            geom: Conv2dGeometry::same3x3(),
        };
        let x = vec![0.0f32; 9];
        let wt = vec![0.0f32; 9];
        let bias = vec![0.0f32; 1];
        let gather = Im2colGather::compile(&dims);
        let mut out = vec![0.0f32; 4]; // wrong
        assert!(matches!(
            conv2d_infer_packed(&x, 1, &dims, &gather, &wt, &bias, &mut out, false, kernel_mode()),
            Err(TensorError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn output_size_edge_cases() {
        let g = Conv2dGeometry {
            kernel: 5,
            stride: 1,
            padding: 0,
        };
        assert_eq!(g.output_size(4), None);
        assert_eq!(g.output_size(5), Some(1));
        let z = Conv2dGeometry {
            kernel: 1,
            stride: 0,
            padding: 0,
        };
        assert_eq!(z.output_size(4), None);
    }
}
