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
use super::pool::{max_pool_plane, PoolGeometry};
use super::quant::vectorized;
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
    /// Per-thread scratch of the planned path: the zero-padded image(s),
    /// then the packed im2col panels, then the GEMM output of a pooled
    /// (or folded-batch) convolution awaiting its epilogue.
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

/// The int8 plans fold a batch below this many output positions per
/// image. Its own constant, so the width of the `f32` strip cannot
/// regroup an int8 GEMM.
const I8_FOLD_BELOW: usize = 8;

impl ConvPlanDims {
    /// True when one image has fewer output positions than one `f32`
    /// GEMM column strip. The planned `f32` convolution then runs a batch
    /// as **one** GEMM over every image's positions side by side instead
    /// of one mostly-padding strip per image. A shape-only rule, so the
    /// choice can never depend on the thread count or the kernel mode.
    pub fn folds_batch(&self) -> bool {
        self.oh * self.ow < NR
    }

    /// The same rule for the int8 convolution, whose GEMM stacks the
    /// images' patch rows: true below eight output positions per image.
    pub fn folds_batch_i8(&self) -> bool {
        self.oh * self.ow < I8_FOLD_BELOW
    }

    fn kdim(&self) -> usize {
        self.c_in * self.geom.kernel * self.geom.kernel
    }

    /// Height and width of the zero-padded image.
    fn padded_hw(&self) -> (usize, usize) {
        (self.h + 2 * self.geom.padding, self.w + 2 * self.geom.padding)
    }
}

/// Compile-time geometry of a planned convolution's im2col fill.
/// [`conv2d_infer_packed`] zero-pads each image once, and cell `(q, p)` of
/// the im2col matrix — row `q = (ci, ky, kx)`, output position `p = (oy,
/// ox)` — is then the padded image's cell `taps[q] + cols[p]`: one offset
/// per *row* plus one per *column*, `kdim + oh·ow` words where a per-cell
/// table holds `kdim · oh·ow`, and no padding test anywhere because every
/// sum lands inside the padded image.
///
/// The panels it fills have the layout of `pack_b_full` applied to the
/// im2col matrix (`[c_in·k·k] × [oh·ow]`): `strips = ceil(oh·ow / NR)`,
/// panel `p` at offset `p·KC·strips·NR`, strip-major inside, the last
/// strip padded with explicit `0.0`.
#[derive(Debug, Clone)]
pub struct Im2colGather {
    dims: ConvPlanDims,
    /// `(ci·ph + ky)·pw + kx` for each im2col row, `ph × pw` the padded
    /// plane.
    taps: Vec<i32>,
    /// `cols[p] = oy·stride·pw + ox·stride` for each output position, cut
    /// into the 16-column strips of one image (a folded batch — one
    /// strip per image, by [`ConvPlanDims::folds_batch`] — cuts its own,
    /// across images, on the fly).
    strips: Vec<StripCols>,
    /// Largest entry of `taps` (kept so the fill can bound every source
    /// offset with one addition).
    max_tap: usize,
}

impl Im2colGather {
    /// Derives the row and column offsets for `dims` — `kdim + oh·ow`
    /// words; call it at plan-compile time.
    pub fn compile(dims: &ConvPlanDims) -> Im2colGather {
        let (k, stride) = (dims.geom.kernel, dims.geom.stride);
        let (ph, pw) = dims.padded_hw();
        // One-time compile-step allocations.
        let taps: Vec<i32> = (0..dims.kdim())
            .map(|q| offset((q / (k * k) * ph + q / k % k) * pw + q % k))
            .collect(); // seal-lint: allow(hot-path-alloc)
        let cols: Vec<i32> = (0..dims.oh * dims.ow)
            .map(|p| offset(p / dims.ow * stride * pw + p % dims.ow * stride))
            .collect(); // seal-lint: allow(hot-path-alloc)
        let strips = (0..cols.len().div_ceil(NR))
            .map(|strip| StripCols::new(strip, 1, 0, &cols))
            .collect(); // seal-lint: allow(hot-path-alloc)
        let max_tap = taps.iter().copied().max().unwrap_or(0) as usize;
        Im2colGather {
            dims: *dims,
            taps,
            strips,
            max_tap,
        }
    }

    /// Number of cells in the packed panels of one image (diagnostic/size
    /// accounting).
    pub fn len(&self) -> usize {
        self.strips.len() * self.taps.len() * NR
    }

    /// Whether the panels are empty (degenerate zero-volume shapes).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A padded-image offset as the 32-bit index the vector gather takes. One
/// that does not fit saturates, which `fill_panels`' bound check then
/// refuses — it never wraps into a small or negative index
/// ([`conv2d_infer_fused`] rejects such shapes before any fill).
fn offset(cell: usize) -> i32 {
    i32::try_from(cell).unwrap_or(i32::MAX)
}

/// The first `len` floats of a per-thread scratch buffer, grown on first
/// need and never shrunk or cleared.
fn grown(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// Zero-pads one image: channel plane `ci` of `img` (`h × w`) lands in
/// `dst[ci·ph·pw ..]` inside a border of `pad` explicit `0.0` cells. All of
/// `dst` is overwritten, so stale scratch never shows. The common map
/// widths copy their rows as fixed-width moves rather than `memcpy` calls
/// — a small map is mostly row starts.
fn pad_image(dst: &mut [f32], img: &[f32], dims: &ConvPlanDims) {
    dst.fill(0.0);
    match dims.w {
        1 => copy_rows::<1>(dst, img, dims),
        2 => copy_rows::<2>(dst, img, dims),
        4 => copy_rows::<4>(dst, img, dims),
        8 => copy_rows::<8>(dst, img, dims),
        16 => copy_rows::<16>(dst, img, dims),
        _ => copy_rows::<0>(dst, img, dims),
    }
}

/// The rows of `img` into the interior of the padded planes of `dst`; `W`
/// is the row width `dims.w` when that is known at compile time, else 0.
#[inline(always)]
// seal-lint: allow(panic-freedom) — `dst` is `c_in·(h+2·pad)·(w+2·pad)` and `img` `c_in·h·w`, both sliced by `conv2d_infer_fused` from lengths it checked
fn copy_rows<const W: usize>(dst: &mut [f32], img: &[f32], dims: &ConvPlanDims) {
    let (h, pad) = (dims.h, dims.geom.padding);
    let w = if W == 0 { dims.w } else { W };
    let (ph, pw) = dims.padded_hw();
    if img.is_empty() {
        return;
    }
    for (plane, src) in dst.chunks_exact_mut(ph * pw).zip(img.chunks_exact(h * w)) {
        let body = &mut plane[pad * pw + pad..];
        for (row, src_row) in body.chunks_mut(pw).zip(src.chunks_exact(w)) {
            row[..w].copy_from_slice(src_row);
        }
    }
}

/// Where the `NR` columns of one strip of a (folded) im2col matrix come
/// from: lane `l < valid` is column `strip·NR + l`, the padded-image cell
/// `tap + idx[l]` of whichever image the column belongs to; the lanes
/// from `valid` up are the pad lanes of the last strip.
#[derive(Debug, Clone)]
struct StripCols {
    idx: [i32; NR],
    valid: usize,
    /// All `NR` lanes valid and consecutive cells: a row is one copy.
    contiguous: bool,
    /// Largest entry of `idx`.
    max_idx: usize,
}

impl StripCols {
    /// Strip `strip` of `imgs` images laid `pp` floats apart, `cols` the
    /// column offsets of one image.
    // seal-lint: allow(panic-freedom) — `p < s = cols.len()` by the wrap below; a strip exists only when `s > 0`
    fn new(strip: usize, imgs: usize, pp: usize, cols: &[i32]) -> StripCols {
        let s = cols.len();
        let first = strip * NR;
        let valid = NR.min(imgs * s - first);
        let mut idx = [0i32; NR];
        let (mut base, mut p) = (first / s * pp, first % s);
        for lane in idx.iter_mut().take(valid) {
            *lane = offset(base + cols[p] as usize);
            p += 1;
            if p == s {
                (base, p) = (base + pp, 0);
            }
        }
        StripCols {
            idx,
            valid,
            contiguous: valid == NR && idx.windows(2).all(|w| w[0].checked_add(1) == Some(w[1])),
            max_idx: idx.iter().copied().max().unwrap_or(0) as usize,
        }
    }
}

/// Fills the packed-panel im2col representation of `imgs` zero-padded
/// images laid back to back in `padded` (more than one only for a shape
/// that [folds](ConvPlanDims::folds_batch)): column `img·s + p` holds output
/// position `p` of image `img`, so one image fills `ceil(s / NR)` strips
/// and a folded batch `ceil(imgs·s / NR)` instead of `imgs` mostly-padding
/// ones. Strip by strip, every packed row is `NR` cells `taps[q] +
/// idx[lane]` of `padded` — one vector copy where the strip's cells are
/// consecutive, one vector gather otherwise — with explicit `0.0` in the
/// pad lanes of the last strip. Every live element of `panels` is written;
/// no cell takes a padding test.
// seal-lint: allow(panic-freedom) — the assert is the bound the gather relies on; panel offsets enumerate `strips·kdim·NR` exactly once
fn fill_panels(
    panels: &mut [f32],
    padded: &[f32],
    imgs: usize,
    gather: &Im2colGather,
    mode: KernelMode,
) {
    let kdim = gather.taps.len();
    if kdim == 0 {
        return; // no input channel: no row to fill, no cell to bound
    }
    let s = gather.dims.oh * gather.dims.ow;
    let strips = (imgs * s).div_ceil(NR);
    let pp = padded.len() / imgs;
    for strip in 0..strips {
        let folded;
        let sc = if imgs == 1 {
            &gather.strips[strip]
        } else {
            // A folding shape has `s < NR`: one strip, whose valid lanes
            // are the image's column offsets.
            folded = StripCols::new(strip, imgs, pp, &gather.strips[0].idx[..s]);
            &folded
        };
        assert!(
            gather.max_tap + sc.max_idx < padded.len(),
            "im2col offsets leave the padded image"
        );
        let mut k0 = 0;
        while k0 < kdim {
            let kc = KC.min(kdim - k0);
            let rows = &mut panels[(k0 * strips + strip * kc) * NR..][..kc * NR];
            let taps = &gather.taps[k0..k0 + kc];
            match mode {
                // SAFETY: `mode` went through `KernelMode::degrade` at the
                // `conv2d_infer_fused` entry, so `Avx512` means the CPU
                // reports avx512f; `tap + idx[lane] ≤ max_tap + max_idx <
                // padded.len()` for every tap and lane by the assert
                // above (`offset` makes every entry non-negative).
                #[cfg(target_arch = "x86_64")]
                KernelMode::Avx512 => unsafe { strip_rows_avx512(rows, taps, padded, sc) },
                _ => strip_rows(rows, taps, padded, sc),
            }
            k0 += KC;
        }
    }
}

/// One strip's rows of one k-panel: row `kk` is the cells `taps[kk] +
/// idx[lane]` of `padded`, `0.0` in the pad lanes.
// seal-lint: allow(panic-freedom) — every offset is at most the `max_tap + max_idx` that `fill_panels` asserted inside `padded`
fn strip_rows(rows: &mut [f32], taps: &[i32], padded: &[f32], sc: &StripCols) {
    for (row, &tap) in rows.chunks_exact_mut(NR).zip(taps) {
        let tap = tap as usize;
        if sc.contiguous {
            row.copy_from_slice(&padded[tap + sc.idx[0] as usize..][..NR]);
        } else {
            for (d, &i) in row[..sc.valid].iter_mut().zip(&sc.idx) {
                *d = padded[tap + i as usize];
            }
            row[sc.valid..].fill(0.0);
        }
    }
}

/// [`strip_rows`] as one 512-bit load or one masked 512-bit gather per
/// row (masked-off pad lanes read nothing and come out `0.0`).
///
/// # Safety
///
/// The CPU must support AVX-512F, and `tap + sc.idx[lane]` must be a
/// valid index into `padded` for every `tap` of `taps` and every lane
/// below `sc.valid` — plus the fifteen cells that follow `idx[0]` when
/// `sc.contiguous`, which are the strip's other lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn strip_rows_avx512(rows: &mut [f32], taps: &[i32], padded: &[f32], sc: &StripCols) {
    use std::arch::x86_64::{
        __m512i, __mmask16, _mm512_loadu_ps, _mm512_loadu_si512, _mm512_mask_i32gather_ps,
        _mm512_setzero_ps, _mm512_storeu_ps,
    };
    let valid = (u16::MAX >> (NR - sc.valid)) as __mmask16;
    // SAFETY: `sc.idx` is exactly one 512-bit vector of i32; each `row`
    // is `NR` floats of `rows`, so the full-width store stays inside it;
    // the loads and the gather read `padded` only at the offsets the
    // caller vouches for.
    unsafe {
        let idx = _mm512_loadu_si512(sc.idx.as_ptr() as *const __m512i);
        for (row, &tap) in rows.chunks_exact_mut(NR).zip(taps) {
            let at = padded.as_ptr().add(tap as usize);
            let cells = if sc.contiguous {
                _mm512_loadu_ps(at.add(sc.idx[0] as usize))
            } else {
                _mm512_mask_i32gather_ps::<4>(_mm512_setzero_ps(), valid, idx, at)
            };
            _mm512_storeu_ps(row.as_mut_ptr(), cells);
        }
    }
}

/// Inference batch-norm constants of one layer, one value per channel:
/// `y = gamma·((x − mean)·inv_std) + beta`, with `inv_std = 1/√(σ² + ε)`
/// precomputed by the caller exactly as `forward_infer` computes it.
#[derive(Debug, Clone, Copy)]
pub struct BatchNormParams<'a> {
    /// Scale `γ`.
    pub gamma: &'a [f32],
    /// Shift `β`.
    pub beta: &'a [f32],
    /// Running mean `μ`.
    pub mean: &'a [f32],
    /// `1/√(σ² + ε)`.
    pub inv_std: &'a [f32],
}

impl BatchNormParams<'_> {
    /// Normalises channel `ch`'s `plane` in place — the association of
    /// `BatchNorm2d::forward_infer`, `γ·((x−μ)·inv_std)+β` — then clamps
    /// to `max(0, ·)` when `relu` is set. The one definition both the
    /// standalone batch-norm step and the fused epilogue run.
    #[inline(always)]
    // seal-lint: allow(panic-freedom) — callers check `ch <` the four lengths (plan compile; `conv2d_infer_fused` entry)
    pub fn apply(&self, ch: usize, plane: &mut [f32], relu: bool) {
        let (gamma, beta, mean, inv_std) =
            (self.gamma[ch], self.beta[ch], self.mean[ch], self.inv_std[ch]);
        for o in plane.iter_mut() {
            let y = gamma * ((*o - mean) * inv_std) + beta;
            *o = if relu { y.max(0.0) } else { y };
        }
    }
}

/// What a planned convolution does to each image's `c_out × oh·ow` slab
/// right after its GEMM, while the slab is still in cache: an optional
/// inference batch-norm, an optional ReLU, an optional max-pool — in that
/// order, each the same per-element expression the standalone op
/// evaluates, so fusing them changes no bit. With a max-pool only the
/// pooled activations reach the output buffer.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConvEpilogue<'a> {
    /// Per-channel batch-norm over the convolution's output.
    pub batch_norm: Option<BatchNormParams<'a>>,
    /// Clamp to `max(0, ·)` (after the batch-norm).
    pub relu: bool,
    /// Max-pool each channel plane (after the ReLU).
    pub max_pool: Option<PoolGeometry>,
}

impl ConvEpilogue<'_> {
    /// Batch-norm and ReLU over channel `ch`'s plane, in place.
    #[inline(always)]
    fn apply(&self, ch: usize, plane: &mut [f32]) {
        match &self.batch_norm {
            Some(bn) => bn.apply(ch, plane, self.relu),
            None if self.relu => {
                for v in plane.iter_mut() {
                    *v = v.max(0.0);
                }
            }
            None => {}
        }
    }

    /// Finishes one `oh × ow` channel plane the GEMM left in scratch:
    /// batch-norm and ReLU in place, then the max-pool (or a plain copy)
    /// into its final place `dst`.
    #[inline(always)]
    fn finish(&self, ch: usize, plane: &mut [f32], dst: &mut [f32], oh: usize, ow: usize) {
        self.apply(ch, plane);
        match &self.max_pool {
            Some(pool) => max_pool_plane(plane, dst, oh, ow, pool),
            None => dst.copy_from_slice(plane),
        }
    }
}

/// Planned convolution forward pass into a caller-owned output buffer —
/// [`conv2d_infer_fused`] with at most a ReLU behind the GEMM.
///
/// # Errors
///
/// As [`conv2d_infer_fused`].
#[allow(clippy::too_many_arguments)]
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
    let epilogue = ConvEpilogue {
        relu,
        ..ConvEpilogue::default()
    };
    conv2d_infer_fused(x, n, dims, gather, wt, bias, &epilogue, out, mode)
}

/// Planned convolution forward pass with a fused [`ConvEpilogue`] — the
/// compiled-plan hot path. Zero-pads each image once into per-thread
/// scratch (grown once), builds its im2col expansion *directly in packed
/// panel layout* as fixed-width runs of that padded image, so both the
/// per-call pack step of the generic GEMM *and* every per-element index
/// computation and padding test disappear, and writes `n · c_out` final
/// (pooled, when the epilogue pools) channel planes into `out` without
/// any heap allocation.
///
/// Parallelism: a single image parallelises over `MC`-row blocks of the
/// shared packed panel; a batch runs one task per image, each with its
/// own thread-local scratch — unless the shape
/// [folds](ConvPlanDims::folds_batch), in which case the whole batch is
/// one GEMM `[c_out × kdim]·[kdim × n·s]` over a shared pack, staged
/// channel-major and finished plane by plane into NCHW. Either way every
/// output element accumulates bias-first then ascending `(ci, ky, kx)`
/// products inside one task — the exact order of [`conv2d`], with an
/// explicit `0.0` factor wherever the window overlaps the padding — and
/// the epilogue is elementwise or a selection, so the result is bitwise
/// identical to the unplanned kernels run one after another (and
/// therefore to `forward_infer`) for any thread count in the same
/// [`KernelMode`].
///
/// # Errors
///
/// [`TensorError::LengthMismatch`] / [`TensorError::InvalidGeometry`] if
/// the buffers, `gather` or the epilogue disagree with `dims` (the plan
/// compiler guarantees they never do).
#[allow(clippy::too_many_arguments)]
// seal-lint: allow(panic-freedom) — panel and column offsets derive from the validated geometry and the packed panel's own extents
pub fn conv2d_infer_fused(
    x: &[f32],
    n: usize,
    dims: &ConvPlanDims,
    gather: &Im2colGather,
    wt: &[f32],
    bias: &[f32],
    epilogue: &ConvEpilogue,
    out: &mut [f32],
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
    if gather.dims != *dims {
        return Err(TensorError::InvalidGeometry {
            reason: format!("im2col geometry compiled for {:?}, not {dims:?}", gather.dims),
        });
    }
    // Positions per channel plane after the epilogue's max-pool.
    let pooled = match &epilogue.max_pool {
        None => oh * ow,
        Some(pool) => match (pool.output_size(oh), pool.output_size(ow)) {
            (Some(ph), Some(pw)) => ph * pw,
            _ => {
                return Err(TensorError::InvalidGeometry {
                    reason: format!("pool window {} does not fit {oh}x{ow}", pool.window),
                })
            }
        },
    };
    let s = oh * ow;
    let kdim = dims.kdim();
    let per_channel = epilogue
        .batch_norm
        .iter()
        .flat_map(|p| [p.gamma.len(), p.beta.len(), p.mean.len(), p.inv_std.len()])
        .chain([bias.len()]);
    for (expected, actual) in [
        (n * c_in * h * w, x.len()),
        (c_out * kdim, wt.len()),
        (n * c_out * pooled, out.len()),
    ]
    .into_iter()
    .chain(per_channel.map(|len| (c_out, len)))
    {
        if expected != actual {
            return Err(TensorError::LengthMismatch { expected, actual });
        }
    }
    if n == 0 || s == 0 || c_out == 0 {
        return Ok(());
    }
    let mode = mode.degrade();
    let plane = c_in * h * w;
    let (ph, pw) = dims.padded_hw();
    let padded_len = c_in * ph * pw;
    // The fill addresses the padded image(s) with 32-bit offsets.
    if n.saturating_mul(padded_len) > i32::MAX as usize {
        return Err(TensorError::InvalidGeometry {
            reason: format!("{n} padded images of {padded_len} floats exceed 32-bit offsets"),
        });
    }
    if n > 1 && dims.folds_batch() {
        // Folded batch: one shared pack of all images' columns, one GEMM
        // (row-block parallel like the single-image path) into a
        // channel-major stage `[c_out × n·s]`, each `s`-long piece of
        // which is one channel plane to finish into its NCHW place.
        let cols = n * s;
        let folded_len = cols.div_ceil(NR) * kdim * NR;
        PACKED_COLS.with(|pc| {
            let mut scratch = pc.borrow_mut();
            let scratch = grown(&mut scratch, n * padded_len + folded_len + c_out * cols);
            let (padded, rest) = scratch.split_at_mut(n * padded_len);
            let (panels, stage) = rest.split_at_mut(folded_len);
            for img in 0..n {
                let dst = &mut padded[img * padded_len..(img + 1) * padded_len];
                pad_image(dst, &x[img * plane..(img + 1) * plane], dims);
            }
            fill_panels(panels, padded, n, gather, mode);
            for (row, &b) in stage.chunks_exact_mut(cols).zip(bias) {
                row.fill(b);
            }
            gemm_shared_pack(wt, panels, stage, c_out, kdim, cols, mode, false);
            vectorized(
                mode,
                #[inline(always)]
                || {
                    for (co, row) in stage.chunks_exact_mut(cols).enumerate() {
                        for (img, px) in row.chunks_exact_mut(s).enumerate() {
                            let dst = &mut out[(img * c_out + co) * pooled..][..pooled];
                            epilogue.finish(co, px, dst, oh, ow);
                        }
                    }
                },
            );
        });
        return Ok(());
    }
    // One image: zero-pad, fill its packed panel, run the GEMM over it —
    // straight into `dst` when nothing pools, else into a scratch slab
    // whose planes are finished into `dst` — with the epilogue applied
    // while the slab is still in cache. A lone image parallelises over
    // row blocks of its pack; an image of a batch is already one task.
    let packed_len = s.div_ceil(NR) * kdim * NR;
    let slab_len = if epilogue.max_pool.is_some() { c_out * s } else { 0 };
    let run_image = |img: &[f32], dst: &mut [f32], row_parallel: bool| {
        PACKED_COLS.with(|pc| {
            let mut scratch = pc.borrow_mut();
            let scratch = grown(&mut scratch, padded_len + packed_len + slab_len);
            let (padded, rest) = scratch.split_at_mut(padded_len);
            let (panels, slab) = rest.split_at_mut(packed_len);
            pad_image(padded, img, dims);
            fill_panels(panels, padded, 1, gather, mode);
            let pooling = epilogue.max_pool.is_some();
            let acc: &mut [f32] = if pooling { &mut *slab } else { &mut *dst };
            for (row, &b) in acc.chunks_exact_mut(s).zip(bias) {
                row.fill(b);
            }
            if row_parallel {
                gemm_shared_pack(wt, panels, acc, c_out, kdim, s, mode, false);
            } else {
                gemm_consume(wt, panels, acc, c_out, kdim, s, mode);
            }
            vectorized(
                mode,
                #[inline(always)]
                || {
                    if pooling {
                        for (co, (px, d)) in slab
                            .chunks_exact_mut(s)
                            .zip(dst.chunks_exact_mut(pooled))
                            .enumerate()
                        {
                            epilogue.finish(co, px, d, oh, ow);
                        }
                    } else {
                        for (co, px) in dst.chunks_exact_mut(s).enumerate() {
                            epilogue.apply(co, px);
                        }
                    }
                },
            );
        });
    };
    if n == 1 {
        // Single image: pack once on the caller, parallelise the consume
        // over MC-row (output-channel) blocks of the shared pack.
        run_image(x, out, true);
        return Ok(());
    }
    // Batch: one task per image, each building its own packed panel in
    // per-thread scratch — boundaries depend only on the shape.
    seal_pool::par_chunks_mut(out, c_out * pooled, |img, dst| {
        run_image(&x[img * plane..(img + 1) * plane], dst, false);
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

    /// The strip-by-strip fill writes, byte for byte, the panels
    /// `pack_b_full` makes of the im2col matrix `fill_im2col` builds — one
    /// image or a folded batch side by side; strips that start mid-row,
    /// straddle images and end in pad lanes; strides, paddings and kernels
    /// the zoo does not have — over stale (NaN) scratch, with explicit
    /// `+0.0` in the padding and the pad lanes, and nothing written behind
    /// the panels.
    #[test]
    fn padded_image_fill_equals_the_packed_im2col_matrix_byte_for_byte() {
        use super::super::matmul::{pack_b_full, reset_kernel_mode, set_kernel_mode};
        use crate::rng::rngs::StdRng;
        use crate::rng::SeedableRng;
        const GUARD: usize = 32;
        let mut rng = StdRng::seed_from_u64(0x1C0);
        let mut checked = 0;
        for (k, stride, padding) in [(3, 1, 1), (3, 2, 1), (1, 1, 0), (1, 2, 0), (5, 1, 2), (3, 1, 0)] {
            let geom = Conv2dGeometry {
                kernel: k,
                stride,
                padding,
            };
            for (h, w) in [(1, 1), (2, 2), (4, 4), (3, 5), (6, 7), (8, 8), (5, 16), (2, 17), (3, 20), (4, 32)] {
                let (Some(oh), Some(ow)) = (geom.output_size(h), geom.output_size(w)) else {
                    continue;
                };
                for (c_in, imgs) in [(1, 1), (3, 1), (15, 1), (2, 3), (15, 8)] {
                    if imgs > 1 && oh * ow >= NR {
                        continue; // only shapes that fold run a batch as one fill
                    }
                    let dims = ConvPlanDims {
                        c_in,
                        h,
                        w,
                        c_out: 1,
                        oh,
                        ow,
                        geom,
                    };
                    let (s, kdim) = (oh * ow, dims.kdim());
                    let x = crate::uniform(&mut rng, Shape::nchw(imgs, c_in, h, w), -1.0, 1.0);
                    // The im2col matrix of the batch, images side by side.
                    let cols = imgs * s;
                    let mut matrix = vec![0.0f32; kdim * cols];
                    let mut one = vec![0.0f32; kdim * s];
                    for img in 0..imgs {
                        fill_im2col(&mut one, x.as_slice(), img, c_in, h, w, oh, ow, k, stride, padding);
                        for q in 0..kdim {
                            matrix[q * cols + img * s..][..s].copy_from_slice(&one[q * s..][..s]);
                        }
                    }
                    let mut want = Vec::new();
                    pack_b_full(&matrix, &mut want, kdim, cols);
                    let (ph, pw) = dims.padded_hw();
                    let padded_len = c_in * ph * pw;
                    let gather = Im2colGather::compile(&dims);
                    for mode in [KernelMode::Scalar, KernelMode::Avx2, KernelMode::Avx512] {
                        if set_kernel_mode(mode) != mode {
                            continue;
                        }
                        let mut padded = vec![f32::NAN; imgs * padded_len];
                        for img in 0..imgs {
                            pad_image(
                                &mut padded[img * padded_len..][..padded_len],
                                &x.as_slice()[img * c_in * h * w..][..c_in * h * w],
                                &dims,
                            );
                        }
                        let mut got = vec![f32::NAN; want.len() + GUARD];
                        fill_panels(&mut got[..want.len()], &padded, imgs, &gather, mode);
                        assert!(
                            got[want.len()..].iter().all(|v| v.is_nan()),
                            "{mode:?} {dims:?} x{imgs}: wrote behind the panels"
                        );
                        let same = got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits());
                        assert!(same, "{mode:?} {dims:?} x{imgs}: panels differ from the reference pack");
                        checked += 1;
                    }
                    reset_kernel_mode();
                }
            }
        }
        assert!(checked >= 150, "geometry filter dropped cases: {checked}");
    }

    /// A convolution over no input channel is its bias, planned or not.
    #[test]
    fn planned_conv_without_input_channels_is_the_bias() {
        let dims = ConvPlanDims {
            c_in: 0,
            h: 3,
            w: 3,
            c_out: 2,
            oh: 3,
            ow: 3,
            geom: Conv2dGeometry::same3x3(),
        };
        let gather = Im2colGather::compile(&dims);
        let bias = [1.5f32, -2.0];
        for n in [1usize, 3] {
            let mut out = vec![0.0f32; n * 2 * 9];
            conv2d_infer_packed(&[], n, &dims, &gather, &[], &bias, &mut out, false, kernel_mode())
                .unwrap();
            for (p, plane) in out.chunks_exact(9).enumerate() {
                assert!(plane.iter().all(|&v| v == bias[p % 2]));
            }
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
        // Fill geometry compiled for another shape.
        let other = Im2colGather::compile(&ConvPlanDims { h: 4, oh: 4, ..dims });
        let mut out = vec![0.0f32; 9];
        assert!(matches!(
            conv2d_infer_packed(&x, 1, &dims, &other, &wt, &bias, &mut out, false, kernel_mode()),
            Err(TensorError::InvalidGeometry { .. })
        ));
        // An epilogue whose pool does not fit, or whose batch-norm is short.
        let pooled = ConvEpilogue {
            max_pool: Some(PoolGeometry {
                window: 4,
                stride: 1,
            }),
            ..ConvEpilogue::default()
        };
        assert!(matches!(
            conv2d_infer_fused(&x, 1, &dims, &gather, &wt, &bias, &pooled, &mut out, kernel_mode()),
            Err(TensorError::InvalidGeometry { .. })
        ));
        let short = ConvEpilogue {
            batch_norm: Some(BatchNormParams {
                gamma: &[],
                beta: &[0.0],
                mean: &[0.0],
                inv_std: &[1.0],
            }),
            ..ConvEpilogue::default()
        };
        assert!(matches!(
            conv2d_infer_fused(&x, 1, &dims, &gather, &wt, &bias, &short, &mut out, kernel_mode()),
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
