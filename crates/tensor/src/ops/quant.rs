//! Deterministic int8 quantized inference kernels: symmetric per-channel
//! quantization, a packed int8 GEMM with i32 accumulation, and the
//! implicit-GEMM convolution the quantized compiled plans run over **u8
//! NHWC** activations ([`NhwcImage`], [`quantize_nhwc_u8`],
//! [`ImplicitConv`] / [`gemm_i8_conv`], [`Requantize`]) — every kernel
//! one body over how a row's k-quads are addressed, dense rows or conv
//! rows read straight out of the padded image. The per-op f32-NCHW
//! kernels ([`quantize_slice_u8`], [`PatchGather`] /
//! [`gather_patches_u8`], [`dequantize_transpose_bias_relu`]) remain as
//! the reference those are tested against.
//!
//! ## Number format
//!
//! Weights are quantized **symmetrically per output channel**: channel `c`
//! stores `q = clamp(round(w / scale_c), -127, 127)` with
//! `scale_c = max|w_c| / 127` (an all-zero channel gets `scale_c = 1.0` so
//! dequantization is always well-defined). The clamp to `-127` — never
//! `i8::MIN` — removes the two's-complement asymmetry: `|q| ≤ 127` always,
//! which is what makes the widening vector multiplies below overflow-free.
//! Activations are quantized symmetrically too (per row for linear layers,
//! per image for convolutions) and stored **offset-binary** as
//! `u8 = q + 128`, the form the AVX-512 VNNI `vpdpbusd` instruction
//! consumes directly; a padding cell is the quantized zero, byte `128`.
//!
//! ## Determinism
//!
//! Every kernel computes the *exact* integer sum
//! `acc(i,j) = Σ_k (a_u8(i,k) − 128) · b(k,j)` in `i32`. With
//! `|a − 128| ≤ 127`, `|b| ≤ 127` and `k ≤ MAX_QGEMM_K` no intermediate
//! can overflow — in the signed domain (`127·127·k < 2³¹`) *or* in the
//! offset domain the VNNI kernel accumulates in
//! (`255·127·k < 2³¹`, corrected afterwards by `128 · Σ_k b(k,j)` from
//! the pack-time column sums). Integer addition is associative, so the
//! scalar, AVX2 (`vpmaddwd` on sign-extended i16) and AVX-512 VNNI
//! (`vpdpbusd`) kernels all produce **bit-identical** i32 accumulators,
//! for any `SEAL_KERNEL` mode and any thread count — row-block task
//! boundaries depend only on the problem shape, exactly like the f32
//! GEMM in `matmul.rs`. (A `vpmaddubsw`-based fallback was considered
//! for pre-VNNI AVX-512 hosts and rejected: it saturates its i16
//! intermediates at ±2¹⁵, which breaks bit-exactness; those hosts run
//! the non-saturating `vpmaddwd` kernel instead.)
//!
//! The final dequantization `out = acc · (a_scale · b_scale_j) + bias_j`
//! is an independent per-element f32 expression, so it inherits the same
//! bitwise stability — as do the requantizing epilogue's max-pool
//! (selects values), integer-domain max|·| and elementwise quantize,
//! whatever vector width they are compiled for (see `vectorized`).

use super::matmul::{kernel_mode, KernelMode, MC, PAR_FLOP_THRESHOLD};
use super::prepack::PackedBI8;
use crate::cpu::cpu_features;
use crate::ops::{ConvPlanDims, PoolGeometry};
use crate::{Shape, Tensor, TensorError};
use std::cell::RefCell;

/// Columns per packed int8 strip (i32 lanes of one 512-bit accumulator),
/// and output pixels per segment of a pixel-lane convolution.
pub(crate) const QNR: usize = 16;
/// k-values interleaved per packed group (the `vpdpbusd` quad).
pub(crate) const QK: usize = 4;
/// Widest `c_out` the pixel-lane tile runs: one accumulator per output
/// channel, two segments per tile.
const PIXEL_MAX_C_OUT: usize = 8;
/// Bytes the pixel-lane tile can gather its 16 lanes from: the two
/// 64-byte registers one `vpermt2b` selects from.
const PIXEL_WINDOW: usize = 128;

/// Byte offset of column `c`'s quad `q` inside one packed strip: the
/// 64-byte group `q`, column `c` at bytes `4c ..`.
#[inline(always)]
pub(crate) fn quad_offset(q: usize, c: usize) -> usize {
    (q * QNR + c) * QK
}

/// Largest reduction depth the int8 GEMM accepts. Bound by the
/// offset-domain accumulator: the VNNI kernel sums `(a+128)·b ≤ 255·127`
/// per element before the column-sum correction, so `k` must satisfy
/// `255·127·k < 2³¹` (`k ≤ 66 322`); we round down for headroom. Every
/// real layer is far below this (VGG-16 fc1 has `k = 25 088`).
pub const MAX_QGEMM_K: usize = 66_000;

/// Which axis of a rank-2 weight matrix carries the quantization
/// channels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuantAxis {
    /// One scale per row (convolution weights `[c_out × k·k·c_in]`).
    Row,
    /// One scale per column (linear weights `[in × out]`).
    Col,
}

/// A symmetrically per-channel-quantized rank-2 tensor: `i8` payload plus
/// one `f32` scale per channel.
#[derive(Clone, Debug)]
pub struct QuantizedTensor {
    data: Vec<i8>,
    scales: Vec<f32>,
    rows: usize,
    cols: usize,
    axis: QuantAxis,
}

impl QuantizedTensor {
    /// Quantized payload, row-major `rows × cols`.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Per-channel scales (`rows` of them for [`QuantAxis::Row`], `cols`
    /// for [`QuantAxis::Col`]).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Logical row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Which axis the scales run along.
    pub fn axis(&self) -> QuantAxis {
        self.axis
    }
}

/// The symmetric scale for a channel with the given max-magnitude.
/// All-zero channels quantize through scale `1.0` (every element maps to
/// `q = 0`), so dequantization never divides by — or multiplies with —
/// zero noise.
#[inline(always)]
pub(crate) fn channel_scale(maxabs: f32) -> f32 {
    if maxabs > 0.0 {
        maxabs / 127.0
    } else {
        1.0
    }
}

/// Quantize one value against a channel scale: round-to-nearest (ties
/// away from zero), clamped to `[-127, 127]` — `i8::MIN` is intentionally
/// never produced (see the module docs on asymmetry).
///
/// The rule is `clamp(trunc(t + copysign(0.5, t)), -127, 127)` with
/// `t = x · inv_scale` and NaN mapping to 0 — exactly what the saturating
/// cast `(t + copysign(0.5, t)) as i32` followed by the integer clamp
/// yields. It is evaluated with the whole saturation moved *in front of*
/// the conversion (NaN → 0, then clamp to ±127.0, then a plain truncating
/// convert): truncation is monotone and maps ±127.0 to ±127, so clamping
/// before it equals clamping after, and the form has no per-lane fix-up
/// or integer clamp left, so it auto-vectorises into `cvttps2dq`; the two
/// forms agree on every f32
/// (`quantize_value_is_the_saturating_cast_rule`). This is the **single**
/// rounding definition every quantization path shares — weights at pack
/// time, activations on entry and in the requantizing epilogue (on ReLU
/// outputs through `quantize_byte_relu`, this rule with the branches
/// that cannot bind there dropped) — which is what keeps
/// scalar/AVX2/AVX-512 runs bit-identical.
#[inline(always)]
pub(crate) fn quantize_value(x: f32, inv_scale: f32) -> i8 {
    let t = x * inv_scale;
    let r = t + 0.5f32.copysign(t);
    // Written as selects (not `f32::clamp`/`max`) so NaN goes to 0 and
    // each line is one compare + blend per vector.
    let r = if r.is_nan() { 0.0 } else { r };
    let r = if r > 127.0 { 127.0 } else { r };
    let r = if r < -127.0 { -127.0 } else { r };
    // SAFETY: `r` is not NaN (replaced by 0.0 above) and lies in
    // [-127.0, 127.0] (the two selects above), so its truncation is
    // representable in i32 — the whole precondition of
    // `to_int_unchecked`.
    let q = unsafe { r.to_int_unchecked::<i32>() };
    // In [-127, 127] by the clamp above, so the cast keeps the value.
    q as i8
}

/// Symmetric per-channel quantization of a rank-2 tensor.
///
/// # Errors
///
/// [`TensorError::RankMismatch`] if `w` is not rank 2.
pub fn quantize_per_channel(w: &Tensor, axis: QuantAxis) -> Result<QuantizedTensor, TensorError> {
    if w.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: w.shape().rank(),
            op: "quantize_per_channel",
        });
    }
    let (rows, cols) = (w.shape().dim(0), w.shape().dim(1));
    let src = w.as_slice();
    let channels = match axis {
        QuantAxis::Row => rows,
        QuantAxis::Col => cols,
    };
    let mut scales = vec![0.0f32; channels]; // quantization runs at plan-compile time
    let mut maxabs = vec![0.0f32; channels]; // compile-time scratch
    for r in 0..rows {
        for c in 0..cols {
            let ch = match axis {
                QuantAxis::Row => r,
                QuantAxis::Col => c,
            };
            maxabs[ch] = maxabs[ch].max(src[r * cols + c].abs());
        }
    }
    for (s, &m) in scales.iter_mut().zip(&maxabs) {
        *s = channel_scale(m);
    }
    let mut data = vec![0i8; rows * cols]; // compile-time output
    for r in 0..rows {
        for c in 0..cols {
            let ch = match axis {
                QuantAxis::Row => r,
                QuantAxis::Col => c,
            };
            data[r * cols + c] = quantize_value(src[r * cols + c], 1.0 / scales[ch]);
        }
    }
    Ok(QuantizedTensor {
        data,
        scales,
        rows,
        cols,
        axis,
    })
}

/// Reconstructs the f32 tensor a [`QuantizedTensor`] approximates
/// (`w ≈ q · scale_channel`).
///
/// # Errors
///
/// [`TensorError::LengthMismatch`] never occurs for tensors built by
/// [`quantize_per_channel`]; the `Result` mirrors [`Tensor::from_vec`].
pub fn dequantize(q: &QuantizedTensor) -> Result<Tensor, TensorError> {
    let mut out = vec![0.0f32; q.rows * q.cols]; // diagnostic path
    for r in 0..q.rows {
        for c in 0..q.cols {
            let ch = match q.axis {
                QuantAxis::Row => r,
                QuantAxis::Col => c,
            };
            out[r * q.cols + c] = q.data[r * q.cols + c] as f32 * q.scales[ch];
        }
    }
    Tensor::from_vec(out, Shape::matrix(q.rows, q.cols))
}

/// The padded activation-row length for reduction depth `k`: `k` rounded
/// up to a multiple of the [`QK`] quad, the unit every kernel walks.
pub fn quantized_row_len(k: usize) -> usize {
    k.div_ceil(QK) * QK
}

/// [`quantize_value`] in the activation encoding: offset-binary `q + 128`
/// (`1 ..= 255`; byte `128` is the quantized zero).
#[inline(always)]
fn quantize_byte(x: f32, inv_scale: f32) -> u8 {
    (quantize_value(x, inv_scale) as i16 + 128) as u8
}

/// `max |x|` taken in the **integer** domain: for non-NaN floats the bit
/// pattern with the sign cleared orders exactly like the magnitude, so a
/// lane-parallel integer max replaces the dependent `f32::max` chain. NaN
/// lanes (patterns above `+inf`) are masked to 0 — the same "ignore NaN"
/// `f32::max` applies — and an empty or all-zero slice yields `0.0`.
#[inline(always)]
fn max_abs(x: &[f32]) -> f32 {
    let mut m = 0u32;
    for &v in x {
        m = m.max(abs_bits(v));
    }
    f32::from_bits(m)
}

/// One element of [`max_abs`]: `|v|`'s bit pattern, 0 for NaN. A pass
/// that already holds `v` folds `m.max(abs_bits(v))` into itself and
/// ends with the same `f32::from_bits(m)`.
#[inline(always)]
fn abs_bits(v: f32) -> u32 {
    const INF: u32 = 0x7f80_0000;
    let b = v.to_bits() & 0x7fff_ffff;
    if b > INF {
        0
    } else {
        b
    }
}

/// `m.max(abs_bits(v))` for a `v` that, when `relu`, came out of
/// `max(0, ·)`: such a value is never NaN and its sign bit is set only
/// for `−0.0`, so a signed max of its raw bits (with `m ≥ 0`) gives the
/// same `m` in one lane op instead of four.
#[inline(always)]
fn fold_abs_max(m: u32, v: f32, relu: bool) -> u32 {
    if relu {
        (m as i32).max(v.to_bits() as i32) as u32
    } else {
        m.max(abs_bits(v))
    }
}

/// [`quantize_byte`] of a value `max(0, ·)` produced — never NaN, its
/// sign bit set only for `−0.0` — in three lane ops fewer. For such an
/// `x`, `t = x · inv_scale` is `≥ +0`, `−0.0` or NaN (`0 · inf`, `inf ·
/// 0`); `t + 0.5` rounds every `t ≥ +0` as `t + copysign(0.5, t)` does,
/// and sends `−0.0` to `0.5`, which truncates to the same `q = 0` as
/// `−0.5`. So the lower clamp never binds, and the NaN select folds into
/// `max(·, 0)` (the compare-select keeps `0` when `r` is NaN).
/// It is not a second rounding rule but [`quantize_value`]'s, with the
/// branches that cannot bind on this domain dropped;
/// `relu_forms_match_the_general_forms` checks it against
/// [`quantize_byte`] on every class of value `max(0, ·)` makes.
#[inline(always)]
fn quantize_byte_relu(x: f32, inv_scale: f32) -> u8 {
    let r = x * inv_scale + 0.5;
    let r = if r > 0.0 { r } else { 0.0 };
    let r = if r < 127.0 { r } else { 127.0 };
    // SAFETY: `r` is not NaN (the first select maps it to 0.0) and lies
    // in [0.0, 127.0] (the two selects), so its truncation is
    // representable in i32 — the whole precondition of
    // `to_int_unchecked`.
    let q = unsafe { r.to_int_unchecked::<i32>() };
    (q + 128) as u8
}

/// One exact-i32 sum → f32: `acc · scale + bias`, then `max(0, ·)` when
/// `relu` — [`dequantize_transpose_bias_relu`]'s per-element expression.
#[inline(always)]
fn dequantize_value(acc: i32, scale: f32, bias: f32, relu: bool) -> f32 {
    let v = acc as f32 * scale + bias;
    if relu {
        v.max(0.0)
    } else {
        v
    }
}

/// Elementwise `out[i] = quantize_byte(x[i])` over the common length.
#[inline(always)]
fn quantize_into(x: &[f32], inv_scale: f32, out: &mut [u8]) {
    for (d, &v) in out.iter_mut().zip(x) {
        *d = quantize_byte(v, inv_scale);
    }
}

/// Runs `f` — a safe scalar loop nest built from `#[inline(always)]`
/// bodies — compiled for the vector ISA `mode` selects on this host, so
/// the auto-vectoriser may use 256/512-bit lanes. Every loop routed
/// through here is elementwise or an integer max, and Rust never
/// contracts `a * b + c` into an FMA, so the result is bit-identical to
/// the scalar build of the same source whichever instantiation runs.
///
/// Pass the closure as `#[inline(always)] || …`: only a body inlined into
/// the `target_feature` wrapper is compiled with its features (a body
/// left out of line is still correct, just baseline-width).
#[inline(always)]
pub(crate) fn vectorized<R>(mode: KernelMode, f: impl FnOnce() -> R) -> R {
    match i8_kernel(mode) {
        I8Kernel::Scalar => f(),
        // SAFETY: `I8Kernel::Avx2` is only selected when the cached
        // `cpu_features()` probe reports `avx2`.
        #[cfg(target_arch = "x86_64")]
        I8Kernel::Avx2 => unsafe { call_avx2(f) },
        // SAFETY: `I8Kernel::Vnni` is only selected when `cpu_features()`
        // reports avx512f/bw/vl (and vnni, which nothing here needs).
        #[cfg(target_arch = "x86_64")]
        I8Kernel::Vnni => unsafe { call_avx512(f) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => f(),
    }
}

/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn call_avx2<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// # Safety
///
/// The host must support AVX-512 F, BW and VL.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vl")]
unsafe fn call_avx512<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// Quantize `m` activation rows of width `k` symmetrically **per row**
/// into offset-binary u8 (`q + 128`), padding each row to
/// [`quantized_row_len`] with the quantized zero byte `128`. One scale
/// per row is written to `scales`.
///
/// Runs serially — it is `O(m·k)` against the GEMM's `O(m·k·n)` — and
/// elementwise, so its output never depends on the thread count or the
/// kernel mode.
// seal-lint: allow(panic-freedom) — slice extents are asserted once at entry; every row range below lies inside them
pub fn quantize_rows_u8(x: &[f32], m: usize, k: usize, out: &mut [u8], scales: &mut [f32]) {
    let ka = quantized_row_len(k);
    assert!(x.len() >= m * k, "quantize_rows_u8: input too short");
    assert!(out.len() >= m * ka, "quantize_rows_u8: output too short");
    assert!(scales.len() >= m, "quantize_rows_u8: scales too short");
    vectorized(
        kernel_mode(),
        #[inline(always)]
        || {
            for i in 0..m {
                let row = &x[i * k..(i + 1) * k];
                let scale = channel_scale(max_abs(row));
                scales[i] = scale;
                let dst = &mut out[i * ka..(i + 1) * ka];
                quantize_into(row, 1.0 / scale, dst);
                dst[k..].fill(128);
            }
        },
    );
}

/// Quantize a slice (one convolution input image) symmetrically
/// **per tensor** into offset-binary u8, returning the scale. The output
/// has the same length/layout as the input; padding bytes are introduced
/// later by the patch gather.
// seal-lint: allow(panic-freedom) — output length is asserted against the input
pub fn quantize_slice_u8(x: &[f32], out: &mut [u8]) -> f32 {
    assert!(out.len() >= x.len(), "quantize_slice_u8: output too short");
    vectorized(
        kernel_mode(),
        #[inline(always)]
        || {
            let scale = channel_scale(max_abs(x));
            quantize_into(x, 1.0 / scale, out);
            scale
        },
    )
}

thread_local! {
    /// Per-thread sign-extended (and de-offset) i16 copy of the A operand
    /// a GEMM call reads (dense rows, or the padded image of a conv) —
    /// the operand format of the AVX2 `vpmaddwd` kernel, widened once per
    /// call by the calling thread. Grown once, never cleared.
    // empty at birth, grow-only after
    static QA16: RefCell<Vec<i16>> = const { RefCell::new(Vec::new()) };
}

/// Which int8 micro-kernel a [`KernelMode`] maps to. The quantized path
/// has no FMA notion — `Fma` shares the AVX2 kernel — and an `Avx512`
/// request only selects VNNI when the cached CPUID probe reports it
/// (pre-VNNI AVX-512 hosts run the non-saturating `vpmaddwd` kernel, see
/// the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum I8Kernel {
    Scalar,
    Avx2,
    Vnni,
}

fn i8_kernel(mode: KernelMode) -> I8Kernel {
    let f = cpu_features();
    match mode {
        KernelMode::Scalar => I8Kernel::Scalar,
        KernelMode::Avx2 | KernelMode::Fma => {
            if f.avx2 {
                I8Kernel::Avx2
            } else {
                I8Kernel::Scalar
            }
        }
        KernelMode::Avx512 => {
            if f.avx512() && f.avx512vnni {
                I8Kernel::Vnni
            } else if f.avx2 {
                I8Kernel::Avx2
            } else {
                I8Kernel::Scalar
            }
        }
    }
}

/// Name of the int8 micro-kernel [`gemm_i8`] dispatches to on this host
/// in `mode` — `"scalar"`, `"avx2"` (`vpmaddwd`) or `"vnni"`
/// (`vpdpbusd`) — so reports can say which kernel actually ran.
pub fn i8_kernel_name(mode: KernelMode) -> &'static str {
    match i8_kernel(mode) {
        I8Kernel::Scalar => "scalar",
        I8Kernel::Avx2 => "avx2",
        I8Kernel::Vnni => "vnni",
    }
}

/// The k-quads of one A row: `count` runs of `quads` consecutive quads,
/// run `r` starting `r·stride` bytes past the row's first quad. Packed
/// quad `q = r·quads + t` is therefore the four bytes at `quad_off[q] =
/// r·stride + 4t` — compile-time constants every kernel walks as this
/// loop nest, with no table to load or bounds-check.
#[derive(Clone, Copy, Debug)]
struct Runs {
    count: usize,
    quads: usize,
    stride: usize,
}

impl Runs {
    /// `quad_off[q]` for every packed quad, in k order (the scalar
    /// kernel's walk; the vector kernels unroll it by hand).
    fn offsets(self) -> impl Iterator<Item = usize> {
        (0..self.count).flat_map(move |r| (0..self.quads).map(move |t| r * self.stride + t * QK))
    }
}

/// Where a kernel finds the A operand: row `i`'s quads start at
/// `base(i)` and follow [`Runs`]. The one thing [`gemm_i8`]'s dense rows
/// and [`gemm_i8_conv`]'s image rows differ in — every kernel body is
/// generic over it.
trait QuadRows: Sync {
    /// Offset of row `i`'s first quad.
    fn base(&self, i: usize) -> usize;
    /// The quad layout every row shares.
    fn runs(&self) -> Runs;
    /// `Some(step)` when the rows come in 16-pixel segments of one output
    /// row, row `i + 1`'s quads `step` bytes past row `i`'s, and the sums
    /// are stored **channel-planar** per segment (see [`out_index`]): a
    /// pixel-lane convolution. `None` for row-major sums.
    fn pixel_step(&self) -> Option<usize>;
    /// Each pixel's [`PixelBox`] when the rows are whole images of
    /// `boxes.len()` pixels stacked image-major, and the VNNI tile runs
    /// them pixel by pixel; empty for plain rows.
    fn boxes(&self) -> &[PixelBox];
}

/// Where the sum of row `i`, column `j` of an `n`-column output block
/// goes: `i·n + j` row-major, or — `planar` — lane `i mod 16` of column
/// `j`'s 16 sums in segment `i / 16`, `((i / 16)·n + j)·16 + i mod 16`.
/// A block starts on a segment boundary (`MC` is a multiple of 16), so
/// the block's sums are the same contiguous `rows × n` range either way.
#[inline(always)]
fn out_index(planar: bool, n: usize, i: usize, j: usize) -> usize {
    if planar {
        ((i / QNR) * n + j) * QNR + i % QNR
    } else {
        i * n + j
    }
}

/// Contiguous rows at stride `ka` bytes, each one run of `ka / 4` quads:
/// the quantized activation matrix of [`gemm_i8`].
struct DenseRows {
    ka: usize,
}

impl QuadRows for DenseRows {
    #[inline(always)]
    fn base(&self, i: usize) -> usize {
        i * self.ka
    }
    #[inline(always)]
    fn runs(&self) -> Runs {
        Runs {
            count: 1,
            quads: self.ka / QK,
            stride: 0,
        }
    }
    #[inline(always)]
    fn pixel_step(&self) -> Option<usize> {
        None
    }
    #[inline(always)]
    fn boxes(&self) -> &[PixelBox] {
        &[]
    }
}

/// Conv rows: one output pixel per row, addressed straight into padded
/// u8 NHWC images through the compile-time row table and run geometry of
/// an [`ImplicitConv`].
struct ConvRows<'a> {
    rows: &'a [u32],
    runs: Runs,
    pixel_step: Option<usize>,
    boxes: &'a [PixelBox],
}

impl QuadRows for ConvRows<'_> {
    #[inline(always)]
    // seal-lint: allow(panic-freedom) — `i` is below the row count `gemm_i8_conv` cut `rows` to
    fn base(&self, i: usize) -> usize {
        self.rows[i] as usize
    }
    #[inline(always)]
    fn runs(&self) -> Runs {
        self.runs
    }
    #[inline(always)]
    fn pixel_step(&self) -> Option<usize> {
        self.pixel_step
    }
    #[inline(always)]
    fn boxes(&self) -> &[PixelBox] {
        self.boxes
    }
}

/// `out[m×n] = a[m×ka] · B` over a pre-packed int8 weight matrix, exact
/// i32 accumulation, deterministic `MC`-row-block parallelism on the
/// seal-pool runtime.
///
/// `a` is offset-binary u8 (`q + 128`), row stride
/// [`quantized_row_len`]`(B.k())`; `out` receives the exact signed sums
/// `Σ (a−128)·b` (overwritten, not accumulated). All kernel modes and
/// thread counts produce bit-identical results.
// seal-lint: allow(panic-freedom) — operand extents are asserted once at entry
pub fn gemm_i8(a: &[u8], pack: &PackedBI8, out: &mut [i32], m: usize, mode: KernelMode) {
    if m == 0 || pack.n == 0 {
        return;
    }
    let ka = pack.kq * QK;
    assert!(a.len() >= m * ka, "gemm_i8: A buffer too short");
    assert!(out.len() >= m * pack.n, "gemm_i8: output buffer too short");
    gemm_i8_rows(&a[..m * ka], &DenseRows { ka }, pack, out, m, mode);
}

/// The shared entry behind [`gemm_i8`] and [`gemm_i8_conv`]: every read
/// of `rows` lies inside `a` (the caller cuts `a` to exactly the extent
/// its rows read, and asserts it) and `out` holds `m·n` sums; here the
/// rows' quad count is checked against the pack's, for pixel-lane rows
/// that the sums fit the tile (`n ≤ 8`, whole segments), and for rows
/// with pixel boxes that they are whole images and the pack holds the
/// boxes' column sums. Picks the kernel for `mode` — for pixel-lane rows
/// the VNNI pixel tile, which gathers with `vpermt2b`; a VNNI host
/// without VBMI runs the AVX2 body, which stores the same planar sums.
/// The scalar and AVX2 kernels walk every quad of the field box; the
/// dropped border products are 0 either way. The AVX2 kernel's i16
/// operand is `a` widened once, here, before any row block runs.
// seal-lint: allow(panic-freedom) — the asserts cannot fire from the plan: `gemm_i8`'s dense rows are one run of `kq` quads by construction, and a plan's `ImplicitConv` and `pack_conv_runs` pack come from the same dims (both `field_runs`); they guard the kernels' weight reads and planar stores against a mismatched pack from outside
fn gemm_i8_rows<R: QuadRows>(
    a: &[u8],
    rows: &R,
    pack: &PackedBI8,
    out: &mut [i32],
    m: usize,
    mode: KernelMode,
) {
    let runs = rows.runs();
    assert_eq!(
        runs.count * runs.quads,
        pack.kq,
        "gemm_i8: A rows do not match the pack"
    );
    let planar = rows.pixel_step().is_some();
    assert!(
        !planar || (pack.n <= PIXEL_MAX_C_OUT && m.is_multiple_of(QNR)),
        "gemm_i8: pixel-lane rows need c_out <= 8 and whole 16-pixel segments"
    );
    let boxes = rows.boxes().len();
    assert!(
        boxes == 0 || (m.is_multiple_of(boxes) && pack.box_sums.len() == boxes * pack.strips * QNR),
        "gemm_i8: pixel boxes need whole images and their column sums in the pack"
    );
    let kernel = match i8_kernel(mode) {
        I8Kernel::Vnni if planar && !cpu_features().avx512vbmi => I8Kernel::Avx2,
        kernel => kernel,
    };
    match kernel {
        I8Kernel::Scalar => row_blocks(pack, out, m, |r0, nr, o| {
            scalar_strips(a, rows, pack, o, r0, nr)
        }),
        #[cfg(target_arch = "x86_64")]
        I8Kernel::Avx2 => QA16.with(|qa| {
            let mut wide = qa.borrow_mut();
            if wide.len() < a.len() {
                wide.resize(a.len(), 0);
            }
            // SAFETY: `I8Kernel::Avx2` is only selected when the cached
            // `cpu_features()` probe reports `avx2` (a VNNI host has it).
            unsafe { widen_avx2(a, &mut wide) };
            let wide = &wide[..a.len()];
            row_blocks(pack, out, m, |r0, nr, o| {
                // SAFETY: as above; `wide` is `a` widened element for
                // element, so every offset `rows` forms is inside it.
                unsafe { consume_avx2(wide, rows, pack, o, r0, nr) }
            })
        }),
        // Pixel by pixel across the stacked images: one block, since a
        // pixel's rows are spread over the whole output.
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as below; the rows are whole images of `boxes` pixels
        // and the pack holds each box's column sums (asserted above).
        I8Kernel::Vnni if boxes > 0 => unsafe { consume_vnni(a, rows, pack, out, 0, m) },
        #[cfg(target_arch = "x86_64")]
        I8Kernel::Vnni => row_blocks(pack, out, m, |r0, nr, o| {
            // SAFETY: `I8Kernel::Vnni` is only selected when
            // `cpu_features()` reports avx512f/bw/vl **and** avx512vnni,
            // and kept for pixel-lane rows only with avx512vbmi, so
            // `vpdpbusd`, `vpermt2b` and the masked loads and stores are
            // available; every offset `rows` forms is inside `a` (see
            // above); pixel-lane rows hold `n ≤ 8` columns in whole
            // segments (asserted above).
            unsafe {
                if planar {
                    consume_vnni_pixels(a, rows, pack, o, r0, nr)
                } else {
                    consume_vnni(a, rows, pack, o, r0, nr)
                }
            }
        }),
        // `cpu_features()` reports nothing off x86-64, so the vector
        // kernels are never selected there.
        #[cfg(not(target_arch = "x86_64"))]
        _ => row_blocks(pack, out, m, |r0, nr, o| {
            scalar_strips(a, rows, pack, o, r0, nr)
        }),
    }
}

/// Runs `consume(row0, rows, out_block)` over the `MC`-row blocks of the
/// `m × n` output: on the seal-pool when the problem is large enough,
/// else as one block on the calling thread. Block boundaries depend only
/// on the shape.
// seal-lint: allow(panic-freedom) — `out` holds `m·n` sums (asserted by both entries)
fn row_blocks(
    pack: &PackedBI8,
    out: &mut [i32],
    m: usize,
    consume: impl Fn(usize, usize, &mut [i32]) + Sync,
) {
    let n = pack.n;
    let flops = 2usize
        .saturating_mul(m)
        .saturating_mul(pack.k)
        .saturating_mul(n);
    let out = &mut out[..m * n];
    if flops < PAR_FLOP_THRESHOLD || m <= MC {
        consume(0, m, out);
        return;
    }
    seal_pool::par_chunks_mut(out, MC * n, |blk, block| {
        consume(blk * MC, block.len() / n, block)
    });
}

/// Portable reference kernel over every packed strip: exact i32 sums in
/// ascending `k` order, for rows `r0 .. r0 + nr` into `out` (`nr × n`,
/// at [`out_index`]). Every packed strip — the last one zero-padded to
/// [`QNR`] columns at pack time — is walked; only its valid columns are
/// summed. Runs as `KernelMode::Scalar` and on non-x86 hosts — integer
/// accumulation makes it bit-identical to the vector kernels.
// seal-lint: allow(panic-freedom) — strip extents are derived from the pack dimensions; row offsets lie inside `a` (asserted at the gemm entry)
fn scalar_strips<R: QuadRows>(
    a: &[u8],
    rows: &R,
    pack: &PackedBI8,
    out: &mut [i32],
    r0: usize,
    nr: usize,
) {
    let (n, kq, planar) = (pack.n, pack.kq, rows.pixel_step().is_some());
    for i in 0..nr {
        let base = rows.base(r0 + i);
        for s in 0..pack.strips {
            let sdata = &pack.data[s * kq * QNR * QK..(s + 1) * kq * QNR * QK];
            let cols = QNR.min(n - s * QNR);
            for c in 0..cols {
                let mut acc = 0i32;
                for (q, off) in rows.runs().offsets().enumerate() {
                    let bq = &sdata[quad_offset(q, c)..][..QK];
                    let aq = &a[base + off..][..QK];
                    for t in 0..QK {
                        acc += (aq[t] as i32 - 128) * bq[t] as i32;
                    }
                }
                out[out_index(planar, n, i, s * QNR + c)] = acc;
            }
        }
    }
}

/// `wide[j] = a[j] − 128` — the de-offset i16 operand of [`consume_avx2`].
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn widen_avx2(a: &[u8], wide: &mut [i16]) {
    for (w, &v) in wide.iter_mut().zip(a) {
        *w = v as i16 - 128;
    }
}

/// AVX2 kernel: sign-extends packed i8 weights and reads de-offset i16 A
/// quads (`wide`, the operand widened once per call) and reduces them
/// with the **non-saturating** `vpmaddwd` (i16×i16 → i32 pairs; `|q| ≤
/// 127` keeps every pair sum ≤ 2·127² well inside i32). Accumulates
/// column-halved lanes and collapses them with plain i32 adds at the end
/// — associative, so the result equals the scalar kernel bit for bit.
/// Only the valid columns of the (zero-padded) last strip are written,
/// at [`out_index`].
///
/// # Safety
///
/// The host must support AVX2; `rows.runs()` must hold `pack.kq` quads,
/// and every `rows.base(i) + off + QK` for `i` in `r0 .. r0 + nr` and
/// `off` a quad offset of `rows.runs()` must be at most `wide.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// seal-lint: allow(panic-freedom) — every store lands at `out_index(i, j) < nr·n` for `i < nr`, `j < n`: the block the caller handed over
unsafe fn consume_avx2<R: QuadRows>(
    wide: &[i16],
    rows: &R,
    pack: &PackedBI8,
    out: &mut [i32],
    r0: usize,
    nr: usize,
) {
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi32, _mm256_cvtepi8_epi16, _mm256_madd_epi16,
        _mm256_set1_epi64x, _mm256_setzero_si256, _mm256_storeu_si256, _mm_loadu_si128,
    };
    let (n, kq, runs) = (pack.n, pack.kq, rows.runs());
    let planar = rows.pixel_step().is_some();
    for s in 0..pack.strips {
        let sdata = &pack.data[s * kq * QNR * QK..(s + 1) * kq * QNR * QK];
        let cols = QNR.min(n - s * QNR);
        for i in 0..nr {
            let base = rows.base(r0 + i);
            // SAFETY: `sdata` holds `kq = runs.count·runs.quads` groups of
            // `QNR·QK = 64` bytes, one per quad walked; each A quad is 4
            // i16 (8 bytes) at `base + off`, inside `wide` by this
            // function's contract. The loads are unaligned-tolerant
            // (`loadu`).
            unsafe {
                let mut acc = [_mm256_setzero_si256(); QK];
                let mut g = sdata.as_ptr();
                for r in 0..runs.count {
                    let ap = wide.as_ptr().add(base + r * runs.stride);
                    for t in 0..runs.quads {
                        let va =
                            _mm256_set1_epi64x((ap.add(t * QK) as *const i64).read_unaligned());
                        for (h, acc_h) in acc.iter_mut().enumerate() {
                            let bh = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                                g.add(h * QNR) as *const __m128i
                            ));
                            *acc_h = _mm256_add_epi32(*acc_h, _mm256_madd_epi16(va, bh));
                        }
                        g = g.add(QNR * QK);
                    }
                }
                // Collapse the column-halved lanes: each acc register
                // holds [c0a c0b c1a c1b c2a c2b c3a c3b] for its
                // 4-column quarter of the strip.
                let mut halves = [0i32; 2 * QNR];
                for (h, acc_h) in acc.iter().enumerate() {
                    _mm256_storeu_si256(halves.as_mut_ptr().add(h * 8) as *mut __m256i, *acc_h);
                }
                for c in 0..cols {
                    let j = s * QNR + c;
                    out[out_index(planar, n, i, j)] = halves[2 * c] + halves[2 * c + 1];
                }
            }
        }
    }
}

/// Rows of one VNNI register tile: independent `vpdpbusd` chains that
/// share each weight load — eight, so a strip's chains hide the
/// instruction's latency even when `c_out` fills one strip.
#[cfg(target_arch = "x86_64")]
const RMR: usize = 8;

/// Strips one VNNI register tile spans: `RMR × 3` accumulators (24 of
/// the 32 zmm registers), so each broadcast activation quad feeds every
/// strip of a layer up to 48 columns wide.
#[cfg(target_arch = "x86_64")]
const TILE_STRIPS: usize = 3;

/// AVX-512 VNNI kernel: one `vpdpbusd` per 4-deep k-quad accumulates
/// `u8 × i8` products of a broadcast activation quad against 16 packed
/// weight columns straight into i32 lanes — no i16 intermediate, no
/// saturation. The offset-binary A encoding is corrected after the k
/// loop by `128 · col_sums` (precomputed at pack time), restoring the
/// exact signed sums of the scalar kernel. The strips go in groups of up
/// to [`TILE_STRIPS`], each group's rows through [`vnni_tile`] [`RMR`] at
/// a time (the last `nr mod RMR` as one shorter tile), so one broadcast
/// of a row's quad feeds a `vpdpbusd` in every strip of the group. Rows
/// with [pixel boxes](PixelBox) — stacked images of a folded conv — go
/// pixel by pixel instead: a tile is up to [`RMR`] images' rows of one
/// pixel, and walks only that pixel's box, corrected by the box's column
/// sums.
///
/// # Safety
///
/// The host must support AVX-512 F/BW/VL and VNNI; `rows.runs()` must
/// hold `pack.kq` quads, every `rows.base(i) + off + QK` for `i` in `r0
/// .. r0 + nr` and `off` a quad offset of `rows.runs()` must be at most
/// `a.len()`, and `out` must hold `nr × pack.n` sums; with pixel boxes,
/// `nr` is whole images of `boxes.len()` pixels and `pack.box_sums` holds
/// every box's sums.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vnni")]
unsafe fn consume_vnni<R: QuadRows>(
    a: &[u8],
    rows: &R,
    pack: &PackedBI8,
    out: &mut [i32],
    r0: usize,
    nr: usize,
) {
    let mut s0 = 0;
    while s0 < pack.strips {
        let span = (pack.strips - s0).min(TILE_STRIPS);
        // SAFETY: strips `s0 .. s0 + span` exist; the rest is this
        // function's contract.
        unsafe {
            match span {
                1 => strip_group::<1, R>(a, rows, pack, out, r0, nr, s0),
                2 => strip_group::<2, R>(a, rows, pack, out, r0, nr, s0),
                _ => strip_group::<TILE_STRIPS, R>(a, rows, pack, out, r0, nr, s0),
            }
        }
        s0 += span;
    }
}

/// Strips `s0 .. s0 + S` of a [`consume_vnni`] call: every row of the
/// block through [`vnni_tile`]s that span those strips. Inlined into it.
///
/// # Safety
///
/// [`consume_vnni`]'s, with strips `s0 .. s0 + S` in the pack.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// seal-lint: allow(panic-freedom) — strip extents derive from the pack dimensions; row and output extents are the safety contract
unsafe fn strip_group<const S: usize, R: QuadRows>(
    a: &[u8],
    rows: &R,
    pack: &PackedBI8,
    out: &mut [i32],
    r0: usize,
    nr: usize,
    s0: usize,
) {
    use std::arch::x86_64::{__m512i, _mm512_loadu_si512, _mm512_setzero_si512, _mm512_slli_epi32};
    let (n, strip_bytes) = (pack.n, pack.kq * QNR * QK);
    // One mask bit per valid column of the group's last strip
    // (`1 ≤ cols ≤ QNR`).
    let cols = QNR.min(n - (s0 + S - 1) * QNR);
    // SAFETY: `col_sums` is padded to `strips·QNR` sums and `box_sums`
    // holds that many per box, so the 16-lane loads at `s·QNR` are in
    // bounds. Every tile covers block rows below `nr` (with boxes, images
    // `j < nr / boxes` of pixel `p`: row `j·boxes + p`) and stores at
    // `out[row·n + s·QNR ..]` for `s` in the group, inside the `nr × n`
    // block; the group's weights are `S` strips of `kq` 64-byte groups,
    // `strip_bytes` apart, from `s0·strip_bytes`, and a box walks a subset
    // of its strip's groups; the A quads lie inside `a` by the contract,
    // and a box's quads are a subset of its row's.
    unsafe {
        let sums = |table: &[i32], first: usize| {
            let mut corr = [_mm512_setzero_si512(); S];
            for (s, c) in corr.iter_mut().enumerate() {
                let sum = table.as_ptr().add((first + s) * QNR) as *const __m512i;
                *c = _mm512_slli_epi32(_mm512_loadu_si512(sum), 7);
            }
            corr
        };
        let runs = rows.runs();
        let weights = pack.data.as_ptr().add(s0 * strip_bytes);
        let valid = (u16::MAX >> (QNR - cols)) as std::arch::x86_64::__mmask16;
        let boxes = rows.boxes();
        if boxes.is_empty() {
            let tile = Tile {
                a,
                rows,
                out: out.as_mut_ptr().add(s0 * QNR),
                n,
                runs,
                a_off: 0,
                wskip: 0,
                row_step: 1,
                weights,
                strip_bytes,
                corr: sums(&pack.col_sums, s0),
                valid,
            };
            row_tiles(&tile, r0, nr, 0);
            return;
        }
        for (p, bx) in boxes.iter().enumerate() {
            let tile = Tile {
                a,
                rows,
                out: out.as_mut_ptr().add(s0 * QNR),
                n,
                runs: Runs {
                    count: bx.runs,
                    quads: bx.quads,
                    stride: runs.stride,
                },
                a_off: bx.run0 * runs.stride + bx.quad0 * QK,
                wskip: runs.quads - bx.quads,
                row_step: boxes.len(),
                weights: weights.add((bx.run0 * runs.quads + bx.quad0) * QNR * QK),
                strip_bytes,
                corr: sums(&pack.box_sums, bx.pixel * pack.strips + s0),
                valid,
            };
            row_tiles(&tile, r0, nr / boxes.len(), p);
        }
    }
}

/// `count` rows of `tile` — block rows `first + j·row_step` for `j <
/// count` — through [`vnni_tile`]s of [`RMR`] rows, the last `count mod
/// RMR` as one shorter tile.
///
/// # Safety
///
/// [`vnni_tile`]'s for every tile.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn row_tiles<const S: usize, R: QuadRows>(
    tile: &Tile<'_, R, S>,
    r0: usize,
    count: usize,
    first: usize,
) {
    let mut j0 = 0;
    // SAFETY: the contract.
    unsafe {
        while j0 + RMR <= count {
            vnni_tile::<RMR, S, R>(tile, r0, first + j0 * tile.row_step);
            j0 += RMR;
        }
        let i0 = first + j0 * tile.row_step;
        match count - j0 {
            1 => vnni_tile::<1, S, R>(tile, r0, i0),
            2 => vnni_tile::<2, S, R>(tile, r0, i0),
            3 => vnni_tile::<3, S, R>(tile, r0, i0),
            4 => vnni_tile::<4, S, R>(tile, r0, i0),
            5 => vnni_tile::<5, S, R>(tile, r0, i0),
            6 => vnni_tile::<6, S, R>(tile, r0, i0),
            7 => vnni_tile::<7, S, R>(tile, r0, i0),
            _ => {}
        }
    }
}

/// What every register tile of one strip group — of one pixel box, with
/// boxes — shares in a [`consume_vnni`] call: the operand and its rows,
/// the group's first output column in block row 0 (`n` sums per row),
/// the runs walked (`a_off` bytes into each row's field, `wskip` groups
/// skipped after each run), the step between a tile's block rows, the
/// first strip's weight groups (the next strip `strip_bytes` further),
/// each strip's `128 · col_sums` correction and the mask of the last
/// strip's valid columns.
#[cfg(target_arch = "x86_64")]
struct Tile<'t, R, const S: usize> {
    a: &'t [u8],
    rows: &'t R,
    out: *mut i32,
    n: usize,
    runs: Runs,
    a_off: usize,
    wskip: usize,
    row_step: usize,
    weights: *const i8,
    strip_bytes: usize,
    corr: [std::arch::x86_64::__m512i; S],
    valid: std::arch::x86_64::__mmask16,
}

/// One `MR × 16·S` VNNI register tile — block rows `i0 + m·row_step` for
/// `m < MR`, A rows `r0` further, `S` strips: `MR·S` independent accumulators, each
/// activation quad broadcast once for all `S` strips, each weight group
/// loaded once for all `MR` rows, the corrected sums stored — the last
/// strip's masked to its valid columns (masked-off lanes are neither
/// written nor fault-checked). Inlined into [`consume_vnni`], whose
/// target features it is compiled with.
///
/// # Safety
///
/// [`consume_vnni`]'s: AVX-512 VNNI available, every quad of the tile's
/// rows inside `tile.a`, `S` strips of `runs.count·(runs.quads +
/// wskip)` 64-byte groups at `tile.weights`, `tile.strip_bytes` apart,
/// and `16·S` lanes (the valid ones writable) at `tile.out + (i0 +
/// m·row_step)·n` for every `m < MR`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn vnni_tile<const MR: usize, const S: usize, R: QuadRows>(
    tile: &Tile<'_, R, S>,
    r0: usize,
    i0: usize,
) {
    use std::arch::x86_64::{
        __m512i, _mm512_dpbusd_epi32, _mm512_loadu_si512, _mm512_mask_storeu_epi32,
        _mm512_set1_epi32, _mm512_setzero_si512, _mm512_sub_epi32,
    };
    let runs = tile.runs;
    // SAFETY: this function's contract bounds every read of `tile.a` and
    // `tile.weights` and every store through `tile.out`.
    unsafe {
        let mut rowp = [tile.a.as_ptr(); MR];
        for (m, p) in rowp.iter_mut().enumerate() {
            *p = p.add(tile.rows.base(r0 + i0 + m * tile.row_step) + tile.a_off);
        }
        let mut acc = [[_mm512_setzero_si512(); S]; MR];
        let mut g = tile.weights;
        for r in 0..runs.count {
            for t in 0..runs.quads {
                let off = r * runs.stride + t * QK;
                let mut b = [_mm512_setzero_si512(); S];
                for (s, b) in b.iter_mut().enumerate() {
                    *b = _mm512_loadu_si512(g.add(s * tile.strip_bytes) as *const __m512i);
                }
                for m in 0..MR {
                    let aq = (rowp[m].add(off) as *const i32).read_unaligned();
                    let aq = _mm512_set1_epi32(aq);
                    for s in 0..S {
                        acc[m][s] = _mm512_dpbusd_epi32(acc[m][s], aq, b[s]);
                    }
                }
                g = g.add(QNR * QK);
            }
            g = g.add(tile.wskip * QNR * QK);
        }
        for (m, acc_m) in acc.iter().enumerate() {
            let row = tile.out.add((i0 + m * tile.row_step) * tile.n);
            for (s, acc_ms) in acc_m.iter().enumerate() {
                let fixed = _mm512_sub_epi32(*acc_ms, tile.corr[s]);
                let mask = if s + 1 == S { tile.valid } else { u16::MAX };
                _mm512_mask_storeu_epi32(row.add(s * QNR), mask, fixed);
            }
        }
    }
}

/// AVX-512 VNNI **pixel-lane** kernel for a convolution with `c_out ≤ 8`
/// (see [`ImplicitConv`]): the 16 lanes of a `vpdpbusd` are 16
/// neighbouring output pixels of one output row — a *segment* — and each
/// output channel has its own accumulator, so every lane multiplies four
/// bytes of a real receptive field however few channels there are.
///
/// Per kernel row of the field, the bytes all 16 pixels read (`15·step +
/// 4·quads ≤ 128` of them from the first pixel's run) are loaded masked
/// into two registers; quad `t` of every lane is then one `vpermt2b` of
/// those (lane `L` takes bytes `L·step + 4t ..`), and channel `c`'s
/// weight quad is a dword broadcast straight from the wide pack (group
/// `q`, column `c` at byte `4c`). After the `128 · col_sums` correction
/// each channel's 16 sums are one store into the **channel-planar**
/// segment ([`out_index`]). Two segments share each weight broadcast, so
/// `2·c_out` chains hide the instruction's latency.
///
/// # Safety
///
/// [`consume_vnni`]'s, plus AVX-512 VBMI; `rows.pixel_step()` is `Some`,
/// `pack.n ≤ 8`, `nr` is a multiple of 16 and each 16-row segment is 16
/// pixels `step` bytes apart; the masked loads read only bytes some
/// pixel's quads read.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vnni,avx512vbmi")]
unsafe fn consume_vnni_pixels<R: QuadRows>(
    a: &[u8],
    rows: &R,
    pack: &PackedBI8,
    out: &mut [i32],
    r0: usize,
    nr: usize,
) {
    // SAFETY: the contract above; `pack.n ≤ 8` picks the tile width.
    unsafe {
        match pack.n {
            1 => pixel_segments::<1, R>(a, rows, pack, out, r0, nr),
            2 => pixel_segments::<2, R>(a, rows, pack, out, r0, nr),
            3 => pixel_segments::<3, R>(a, rows, pack, out, r0, nr),
            4 => pixel_segments::<4, R>(a, rows, pack, out, r0, nr),
            5 => pixel_segments::<5, R>(a, rows, pack, out, r0, nr),
            6 => pixel_segments::<6, R>(a, rows, pack, out, r0, nr),
            7 => pixel_segments::<7, R>(a, rows, pack, out, r0, nr),
            _ => pixel_segments::<PIXEL_MAX_C_OUT, R>(a, rows, pack, out, r0, nr),
        }
    }
}

/// What every pixel tile of a [`consume_vnni_pixels`] call shares: the
/// operand and its rows, the block's planar output, the pack's weight
/// groups, the lane-gather index of quad 0, the two load masks and each
/// channel's `128 · col_sums` correction.
#[cfg(target_arch = "x86_64")]
struct PixelTile<'t, R, const C: usize> {
    a: &'t [u8],
    rows: &'t R,
    out: *mut i32,
    runs: Runs,
    weights: *const i8,
    gather: std::arch::x86_64::__m512i,
    lo: std::arch::x86_64::__mmask64,
    hi: std::arch::x86_64::__mmask64,
    corr: [std::arch::x86_64::__m512i; C],
}

/// The segments of a [`consume_vnni_pixels`] block, two per tile.
///
/// # Safety
///
/// [`consume_vnni_pixels`]'s, with `C = pack.n`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// seal-lint: allow(panic-freedom) — `pixel_step` is `Some` and `C ≤ 8` columns of col sums exist by the contract
unsafe fn pixel_segments<const C: usize, R: QuadRows>(
    a: &[u8],
    rows: &R,
    pack: &PackedBI8,
    out: &mut [i32],
    r0: usize,
    nr: usize,
) {
    use std::arch::x86_64::{_mm512_loadu_si512, _mm512_set1_epi32, _mm512_setzero_si512};
    let (step, runs) = (rows.pixel_step().unwrap_or(0), rows.runs());
    let span = (QNR - 1) * step + runs.quads * QK;
    let mask = |bytes: usize| match bytes {
        0 => 0,
        1..=63 => (1u64 << bytes) - 1,
        _ => u64::MAX,
    };
    let mut gather = [0u8; 64];
    for (j, g) in gather.iter_mut().enumerate() {
        *g = ((j / QK) * step + j % QK) as u8;
    }
    // SAFETY: `gather` is 64 bytes; the rest is the contract.
    unsafe {
        let mut corr = [_mm512_setzero_si512(); C];
        for (c, corr) in corr.iter_mut().enumerate() {
            *corr = _mm512_set1_epi32(pack.col_sums[c] << 7);
        }
        let tile = PixelTile {
            a,
            rows,
            out: out.as_mut_ptr(),
            runs,
            weights: pack.data.as_ptr(),
            gather: _mm512_loadu_si512(gather.as_ptr().cast()),
            lo: mask(span.min(64)),
            hi: mask(span.saturating_sub(64)),
            corr,
        };
        let mut seg = 0;
        while seg + 2 * QNR <= nr {
            pixel_tile::<C, 2, R>(&tile, r0, seg);
            seg += 2 * QNR;
        }
        if seg < nr {
            pixel_tile::<C, 1, R>(&tile, r0, seg);
        }
    }
}

/// `G` segments (block rows `i0 .. i0 + 16·G`) of `C` channels: `G·C`
/// accumulators, one `vpermt2b` per segment and quad, each weight quad
/// broadcast once for all `G` segments. Inlined into
/// [`consume_vnni_pixels`], whose target features it is compiled with.
///
/// # Safety
///
/// [`consume_vnni_pixels`]'s, for segments `i0 / 16 ..` of the block.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn pixel_tile<const C: usize, const G: usize, R: QuadRows>(
    tile: &PixelTile<'_, R, C>,
    r0: usize,
    i0: usize,
) {
    use std::arch::x86_64::{
        _mm512_add_epi8, _mm512_dpbusd_epi32, _mm512_maskz_loadu_epi8, _mm512_permutex2var_epi8,
        _mm512_set1_epi32, _mm512_set1_epi8, _mm512_setzero_si512, _mm512_storeu_si512,
        _mm512_sub_epi32,
    };
    let runs = tile.runs;
    // SAFETY: this function's contract bounds every read of `tile.a`
    // (the masks cover only bytes the segment's pixels read; masked-off
    // bytes are neither read nor fault-checked) and of `tile.weights`,
    // and every store through `tile.out`.
    unsafe {
        let mut segp = [tile.a.as_ptr(); G];
        for (g, p) in segp.iter_mut().enumerate() {
            *p = p.add(tile.rows.base(r0 + i0 + g * QNR));
        }
        let next_quad = _mm512_set1_epi8(QK as i8);
        let mut acc = [[_mm512_setzero_si512(); G]; C];
        let mut w = tile.weights;
        for r in 0..runs.count {
            let mut lo = [_mm512_setzero_si512(); G];
            let mut hi = [_mm512_setzero_si512(); G];
            for g in 0..G {
                let p = segp[g].add(r * runs.stride);
                lo[g] = _mm512_maskz_loadu_epi8(tile.lo, p.cast());
                hi[g] = _mm512_maskz_loadu_epi8(tile.hi, p.wrapping_add(64).cast());
            }
            let mut idx = tile.gather;
            for _ in 0..runs.quads {
                let mut x = [_mm512_setzero_si512(); G];
                for g in 0..G {
                    x[g] = _mm512_permutex2var_epi8(lo[g], idx, hi[g]);
                }
                for (c, acc_c) in acc.iter_mut().enumerate() {
                    let wq = _mm512_set1_epi32((w.add(c * QK) as *const i32).read_unaligned());
                    for g in 0..G {
                        acc_c[g] = _mm512_dpbusd_epi32(acc_c[g], x[g], wq);
                    }
                }
                idx = _mm512_add_epi8(idx, next_quad);
                w = w.add(QNR * QK);
            }
        }
        for (c, acc_c) in acc.iter().enumerate() {
            for (g, acc_gc) in acc_c.iter().enumerate() {
                let seg = i0 / QNR + g;
                let fixed = _mm512_sub_epi32(*acc_gc, tile.corr[c]);
                _mm512_storeu_si512(tile.out.add((seg * C + c) * QNR).cast(), fixed);
            }
        }
    }
}

/// Dequantize a GEMM accumulator into f32 with optional bias and fused
/// ReLU: `out[i,j] = acc[i,j] · (a_scale_i · b_scale_j) + bias_j`.
/// `a_scales` holds either one scale per row or a single shared scale.
/// Purely elementwise — bitwise stable for any thread count by
/// construction.
#[allow(clippy::too_many_arguments)]
// seal-lint: allow(panic-freedom) — extents are asserted up front
pub fn dequantize_bias_relu(
    acc: &[i32],
    a_scales: &[f32],
    b_scales: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    m: usize,
    n: usize,
    relu: bool,
) {
    assert!(
        acc.len() >= m * n && out.len() >= m * n,
        "dequantize: short buffers"
    );
    assert!(b_scales.len() >= n, "dequantize: missing channel scales");
    assert!(
        a_scales.len() >= m || a_scales.len() == 1,
        "dequantize: need 1 or m activation scales"
    );
    for i in 0..m {
        let sa = if a_scales.len() == 1 {
            a_scales[0]
        } else {
            a_scales[i]
        };
        for j in 0..n {
            let mut v = acc[i * n + j] as f32 * (sa * b_scales[j]);
            if let Some(b) = bias {
                v += b[j];
            }
            out[i * n + j] = if relu { v.max(0.0) } else { v };
        }
    }
}

/// Dequantize a **patch-major** convolution accumulator (`s × c_out`)
/// into the NCHW channel-major layout (`c_out × s`) with per-out-channel
/// scales, optional bias and fused ReLU. The transpose happens during
/// the (cheap, `O(s·c_out)`) write-back, so the GEMM itself runs in its
/// natural row-major orientation.
#[allow(clippy::too_many_arguments)]
// seal-lint: allow(panic-freedom) — extents are asserted up front
pub fn dequantize_transpose_bias_relu(
    acc: &[i32],
    a_scale: f32,
    w_scales: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    s: usize,
    c_out: usize,
    relu: bool,
) {
    assert!(
        acc.len() >= s * c_out && out.len() >= s * c_out,
        "dequantize_t: short buffers"
    );
    assert!(
        w_scales.len() >= c_out,
        "dequantize_t: missing channel scales"
    );
    for c in 0..c_out {
        let sc = a_scale * w_scales[c];
        let b = bias.map_or(0.0, |b| b[c]);
        let orow = &mut out[c * s..(c + 1) * s];
        for (j, o) in orow.iter_mut().enumerate() {
            let v = acc[j * c_out + c] as f32 * sc + b;
            *o = if relu { v.max(0.0) } else { v };
        }
    }
}

/// [`dequantize_transpose_bias_relu`] for the **channel-planar**
/// accumulator of a pixel-lane convolution ([`ImplicitConv::planar`]):
/// output pixel `p`'s channel `c` is `acc[((p / 16)·c_out + c)·16 + p mod
/// 16]`. Each channel's 16 sums of a segment are 16 consecutive pixels of
/// its NCHW plane, so both sides are read and written in runs of 16; the
/// per-element expression is the same, and so is every bit.
///
/// # Panics
///
/// If `s` is not a multiple of 16, or a buffer is short.
#[allow(clippy::too_many_arguments)]
// seal-lint: allow(panic-freedom) — extents are asserted up front
pub fn dequantize_planar_bias_relu(
    acc: &[i32],
    a_scale: f32,
    w_scales: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    s: usize,
    c_out: usize,
    relu: bool,
) {
    assert!(
        s.is_multiple_of(QNR),
        "dequantize_planar: pixels not in whole segments"
    );
    assert!(
        acc.len() >= s * c_out && out.len() >= s * c_out,
        "dequantize_planar: short buffers"
    );
    assert!(
        w_scales.len() >= c_out,
        "dequantize_planar: missing channel scales"
    );
    for c in 0..c_out {
        let sc = a_scale * w_scales[c];
        let b = bias.map_or(0.0, |b| b[c]);
        let plane = &mut out[c * s..(c + 1) * s];
        for (seg, o) in plane.chunks_exact_mut(QNR).enumerate() {
            let src = &acc[(seg * c_out + c) * QNR..][..QNR];
            for (o, &a) in o.iter_mut().zip(src) {
                *o = dequantize_value(a, sc, b, relu);
            }
        }
    }
}

/// Compile-time **patch-major** im2col gather table for the quantized
/// convolution path: row `j` (one output position) lists the `kdim`
/// source offsets of its receptive field inside one image's `c_in·h·w`
/// block, `-1` where the field falls into the zero padding. The patch
/// order matches the weight-matrix column order `(c_in, ky, kx)`, so
/// `patches[s × kdim] · Wᵀ[kdim × c_out]` is the convolution.
#[derive(Clone, Debug)]
pub struct PatchGather {
    offsets: Vec<i32>,
    s: usize,
    kdim: usize,
}

impl PatchGather {
    /// Builds the gather table for `dims`. Allocates and runs the full
    /// index arithmetic — call at plan-compile time, never per batch.
    // seal-lint: allow(panic-freedom) — offsets enumerate the s×kdim table allocated two lines up; bounds-checked against h/w before use
    pub fn compile(dims: &ConvPlanDims) -> PatchGather {
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
        let mut offsets = vec![0i32; s * kdim]; // one-time compile step
        for p in 0..s {
            let (oy, ox) = (p / ow, p % ow);
            for q in 0..kdim {
                let kx = q % k;
                let ky = (q / k) % k;
                let ci = q / (k * k);
                let iy = (oy * stride + ky) as isize - pad as isize;
                let ix = (ox * stride + kx) as isize - pad as isize;
                offsets[p * kdim + q] = if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize
                {
                    (ci * h * w + iy as usize * w + ix as usize) as i32
                } else {
                    -1
                };
            }
        }
        PatchGather { offsets, s, kdim }
    }

    /// Output positions (`oh·ow`) — the GEMM row count.
    pub fn spatial(&self) -> usize {
        self.s
    }

    /// Receptive-field size (`c_in·k·k`) — the GEMM reduction depth.
    pub fn kdim(&self) -> usize {
        self.kdim
    }

    /// Bytes one gathered patch matrix occupies (`s ×` padded row).
    pub fn patch_bytes(&self) -> usize {
        self.s * quantized_row_len(self.kdim)
    }
}

/// Gathers one quantized image into the patch-major A matrix of the int8
/// convolution GEMM: `out[j·ka + q] = img_q[offset]`, padding cells (and
/// the quad-alignment tail of each row) set to the quantized zero byte
/// `128`. Branch-light: `-1` offsets wrap past the image length and take
/// the `unwrap_or` arm, exactly like the f32 gather.
// seal-lint: allow(panic-freedom) — the destination extent is asserted against the compile-time table
pub fn gather_patches_u8(img_q: &[u8], gather: &PatchGather, out: &mut [u8]) {
    let ka = quantized_row_len(gather.kdim);
    let (s, kdim) = (gather.s, gather.kdim);
    assert!(out.len() >= s * ka, "gather_patches_u8: output too short");
    for j in 0..s {
        let row = &mut out[j * ka..(j + 1) * ka];
        let offs = &gather.offsets[j * kdim..(j + 1) * kdim];
        for (d, &g) in row.iter_mut().zip(offs) {
            *d = img_q.get(g as u32 as usize).copied().unwrap_or(128);
        }
        for d in row.iter_mut().skip(kdim) {
            *d = 128;
        }
    }
}

/// Geometry of one **u8 NHWC** activation image as an int8 step consumes
/// it: `c` interleaved channels per pixel, `h × w` pixels framed by `pad`
/// pixels of the quantized zero (byte `128`) on every side — the
/// consumer's convolution padding, materialised once by the producer so
/// the patch gather needs neither a table nor a bounds branch. A linear
/// layer's input row is the degenerate `1 × 1`, `pad 0` image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NhwcImage {
    /// Channels (bytes per pixel).
    pub c: usize,
    /// Unpadded height.
    pub h: usize,
    /// Unpadded width.
    pub w: usize,
    /// Border width in pixels.
    pub pad: usize,
}

impl NhwcImage {
    /// The input image of the convolution `dims`.
    pub fn for_conv(dims: &ConvPlanDims) -> NhwcImage {
        NhwcImage {
            c: dims.c_in,
            h: dims.h,
            w: dims.w,
            pad: dims.geom.padding,
        }
    }

    /// The input row of a linear layer over `features` values.
    pub fn flat(features: usize) -> NhwcImage {
        NhwcImage {
            c: features,
            h: 1,
            w: 1,
            pad: 0,
        }
    }

    /// Bytes of one padded pixel row.
    fn row_bytes(&self) -> usize {
        (self.w + 2 * self.pad) * self.c
    }

    /// Offset of interior pixel `(y, 0)`.
    fn interior_row(&self, y: usize) -> usize {
        (y + self.pad) * self.row_bytes() + self.pad * self.c
    }

    /// Bytes one image occupies in a batch buffer: the padded extent
    /// rounded up to the 4-byte quad (tail bytes are `128`), so a flat
    /// image is exactly one [`gemm_i8`] A row.
    pub fn stride(&self) -> usize {
        quantized_row_len((self.h + 2 * self.pad) * self.row_bytes())
    }

    /// Sets everything of one image in `out` but its interior — the
    /// border and the quad tail — to the quantized zero `128`, leaving
    /// the `h` interior rows of `w·c` bytes to the writer.
    #[inline(always)]
    // seal-lint: allow(panic-freedom) — callers assert `out.len() ≥ stride()`; every range below ends at or before it
    fn fill_border(&self, out: &mut [u8]) {
        let line = self.w * self.c;
        let Some(last) = self.h.checked_sub(1) else {
            out[..self.stride()].fill(128);
            return;
        };
        out[..self.interior_row(0)].fill(128);
        let gap = 2 * self.pad * self.c;
        if gap > 0 {
            for y in 0..last {
                let start = self.interior_row(y) + line;
                out[start..start + gap].fill(128);
            }
        }
        out[self.interior_row(last) + line..self.stride()].fill(128);
    }
}

/// Readable bytes a u8 image buffer must hold behind its last image's
/// [`NhwcImage::stride`]: [`gemm_i8_conv`] reads each receptive-field run
/// in whole 4-byte quads, so it may read up to 3 bytes past the padded
/// image (see [`ImplicitConv`]).
pub const PATCH_SLACK: usize = QK - 1;

/// Quantize one f32 **NCHW** image symmetrically per tensor into the
/// padded u8 NHWC image `img` (border and quad tail set to `128`),
/// returning the scale: the entry edge of the int8 data path. Scale and
/// interior bytes are exactly those of [`quantize_slice_u8`], transposed.
///
/// The interior is written row by row and only the border around it is
/// filled. Three channels (every zoo model's input is RGB) take one flat
/// loop per row that reads each plane's row contiguously and stores the
/// interleaved pixels; other widths quantize 16-pixel strips of one
/// channel and scatter them.
// seal-lint: allow(panic-freedom) — both extents are asserted at entry; every interior offset is below `img.stride()`
pub fn quantize_nhwc_u8(x: &[f32], img: &NhwcImage, out: &mut [u8], mode: KernelMode) -> f32 {
    const STRIP: usize = 16;
    let NhwcImage { c, h, w, .. } = *img;
    assert!(x.len() >= c * h * w, "quantize_nhwc_u8: input too short");
    assert!(
        out.len() >= img.stride(),
        "quantize_nhwc_u8: output too short"
    );
    vectorized(
        mode,
        #[inline(always)]
        || {
            let scale = channel_scale(max_abs(&x[..c * h * w]));
            let inv = 1.0 / scale;
            img.fill_border(out);
            for y in 0..h {
                let row = &mut out[img.interior_row(y)..][..w * c];
                let plane = |ci: usize| &x[(ci * h + y) * w..][..w];
                match c {
                    3 => {
                        let rgb = plane(0).iter().zip(plane(1)).zip(plane(2));
                        for (d, ((&r, &g), &b)) in row.chunks_exact_mut(3).zip(rgb) {
                            d[0] = quantize_byte(r, inv);
                            d[1] = quantize_byte(g, inv);
                            d[2] = quantize_byte(b, inv);
                        }
                    }
                    _ => {
                        for ci in 0..c {
                            // Quantize a strip of one channel's pixels with
                            // the vector body, then interleave its bytes.
                            for (strip, src) in plane(ci).chunks(STRIP).enumerate() {
                                let mut q = [0u8; STRIP];
                                quantize_into(src, inv, &mut q);
                                let dst = row[strip * STRIP * c + ci..].iter_mut().step_by(c);
                                for (d, &b) in dst.zip(&q[..src.len()]) {
                                    *d = b;
                                }
                            }
                        }
                    }
                }
            }
            scale
        },
    )
}

/// The part of the receptive field an int8 convolution reads and packs:
/// kernel rows `ky0 .. ky0 + rows` and, in each, kernel columns `kx0 ..
/// kx0 + cols` — the bounding box of its live taps
/// (`ConvPlanDims::tap_reach`; all of them when none is live). A tap
/// outside the box is *dead*: every output position reads the border
/// through it, whose byte is the zero point `128`, so its products are
/// exactly 0 and dropping its run or columns changes no sum.
/// [`PackedBI8::pack_conv_runs`] packs the box and [`ImplicitConv`]
/// reads it, both from this one function.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FieldRuns {
    pub(crate) ky0: usize,
    pub(crate) rows: usize,
    pub(crate) kx0: usize,
    pub(crate) cols: usize,
    /// Quads one run occupies: its `cols·c_in` bytes rounded up to the
    /// 4-byte quad, zero-weight-padded in the pack.
    pub(crate) quads: usize,
}

/// [`FieldRuns`] of the convolution `dims`. Plan-compile time.
// seal-lint: allow(panic-freedom) — `live` holds the `k·k` taps `tap_reach` returns, and `ky, kx < k`
pub(crate) fn field_runs(dims: &ConvPlanDims) -> FieldRuns {
    let k = dims.geom.kernel;
    let live: Vec<bool> = dims.tap_reach().iter().map(|&(live, _)| live).collect(); // plan-compile time
    let span = |on: &dyn Fn(usize) -> bool| {
        let first = (0..k).find(|&i| on(i))?;
        let last = (0..k).rev().find(|&i| on(i))?;
        Some((first, last - first + 1))
    };
    let ys = span(&|ky| (0..k).any(|kx| live[ky * k + kx]));
    let xs = span(&|kx| (0..k).any(|ky| live[ky * k + kx]));
    let ((ky0, rows), (kx0, cols)) = ys.zip(xs).unwrap_or(((0, k), (0, k)));
    FieldRuns {
        ky0,
        rows,
        kx0,
        cols,
        quads: (cols * dims.c_in).div_ceil(QK),
    }
}

/// The live box of one output pixel of a batch-folded int8 convolution:
/// the quads of the field box ([`FieldRuns`]) through which this pixel
/// reads the image — runs `run0 .. run0 + runs`, each from quad `quad0`
/// for `quads` quads. Every other quad of the field meets only border
/// bytes (the zero point `128`) for this pixel, or a run's zero pad
/// weights, so its products are exactly 0: the VNNI tile skips them,
/// correcting with the box's own column sums
/// ([`PackedBI8::pack_conv_runs`] keeps one set per box).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PixelBox {
    /// The output pixel, whose column sums the pack keeps at this index.
    pub(crate) pixel: usize,
    pub(crate) run0: usize,
    pub(crate) runs: usize,
    pub(crate) quad0: usize,
    pub(crate) quads: usize,
}

/// One [`PixelBox`] per output pixel of `dims`, in pixel order, when its
/// batch folds into one GEMM (`ConvPlanDims::folds_batch_i8`) and it
/// does not run the pixel-lane tile; none otherwise. Plan-compile time.
pub(crate) fn pixel_boxes(dims: &ConvPlanDims) -> Vec<PixelBox> {
    let field = field_runs(dims);
    if !dims.folds_batch_i8() || pixel_lanes(dims, field.quads) {
        return Vec::new(); // no allocation
    }
    let g = dims.geom;
    // The kernel offsets `k0 .. k0 + kn` through which output coordinate
    // `o` reads one of the `n` cells of an axis: (first − k0, count).
    let live = |o: usize, n: usize, k0: usize, kn: usize| {
        let inside = |k: usize| {
            (o * g.stride + k)
                .checked_sub(g.padding)
                .is_some_and(|i| i < n)
        };
        let first = (k0..k0 + kn).find(|&k| inside(k))?;
        let last = (k0..k0 + kn).rev().find(|&k| inside(k))?;
        Some((first - k0, last - first + 1))
    };
    (0..dims.oh * dims.ow)
        .map(|p| {
            let rows = live(p / dims.ow, dims.h, field.ky0, field.rows);
            let cols = live(p % dims.ow, dims.w, field.kx0, field.cols);
            match rows.zip(cols) {
                Some(((run0, runs), (x0, n))) => {
                    let quad0 = x0 * dims.c_in / QK;
                    let end = ((x0 + n) * dims.c_in).div_ceil(QK);
                    PixelBox {
                        pixel: p,
                        run0,
                        runs,
                        quad0,
                        quads: end - quad0,
                    }
                }
                // Nothing of the image: every product is 0.
                None => PixelBox {
                    pixel: p,
                    run0: 0,
                    runs: 0,
                    quad0: 0,
                    quads: 0,
                },
            }
        })
        .collect() // plan-compile time
}

/// How one image's sums lie in an int8 convolution's accumulator —
/// written by [`gemm_i8_conv`] and read by [`Requantize`] and the f32
/// readers, both sides told by the compiled [`ImplicitConv`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Layout {
    /// Pixel-major: pixel `p`'s channel `c` at `p·c_out + c`.
    RowMajor,
    /// Pixel-major in the [`window_major`] order of the 2×2 pool.
    WindowMajor,
    /// Channel-planar per 16-pixel segment ([`out_index`]): the
    /// pixel-lane tile's.
    Planar,
}

/// The pixel-major layout of a write-back that fuses `pool`: window-major
/// exactly through the 2×2 / stride-2 pool.
fn pixel_major(pool: Option<PoolGeometry>) -> Layout {
    if pool == Some(PoolGeometry::halving()) {
        Layout::WindowMajor
    } else {
        Layout::RowMajor
    }
}

/// Whether the convolution `dims`, reading `quads` quads per run, runs
/// the pixel-lane tile: at most 8 output channels, stride 1, output rows
/// in whole 16-pixel segments, and the bytes 16 neighbouring pixels read
/// of one run (`15·c_in + 4·quads`) inside the 128 one `vpermt2b`
/// gathers from. A function of the shape alone.
fn pixel_lanes(dims: &ConvPlanDims, quads: usize) -> bool {
    dims.c_out <= PIXEL_MAX_C_OUT
        && dims.geom.stride == 1
        && dims.ow > 0
        && dims.ow.is_multiple_of(QNR)
        && (QNR - 1) * dims.c_in + QK * quads <= PIXEL_WINDOW
}

/// Compile-time A-operand addressing of an **implicit-GEMM** int8
/// convolution: [`gemm_i8_conv`] reads every patch straight out of the
/// padded u8 NHWC image, so no patch matrix is ever built.
///
/// With channels innermost, the `(kx, c_in)` part of a receptive-field
/// row is one contiguous run of image bytes. Only the live box of the
/// field is read ([`FieldRuns`]: `rows` runs of `cols·c_in` bytes — all
/// `k` of `k·c_in` unless some taps only ever meet the border). GEMM row
/// `p` (one output pixel) starts at `rows[p]` — the box's top-left byte,
/// `oy·stride·row_bytes + ox·stride·c_in` plus `ky0·row_bytes +
/// kx0·c_in`, plus `j·`[`NhwcImage::stride`] for image `j` of a stacked
/// batch — and its quad `q` lies `quad_off[q] = (q / rq)·row_bytes + (q
/// mod rq)·4` further on: one run per kept `ky`, `rq = ceil(cols·c_in /
/// 4)` quads, `row_bytes` apart. A run whose length is not a multiple of
/// 4 is read in whole quads, so its last quad takes up to **3** bytes of
/// whatever follows — the next pixel, the next row's border, or (for the
/// very last run) the [`PATCH_SLACK`] behind the image. Those bytes meet
/// the **zero weights** [`PackedBI8::pack_conv_runs`] puts in the run's
/// pad positions: they add exactly 0 to the i32 sums (and to
/// `col_sums`), whatever they hold. Every read therefore stays below
/// `(images − 1)·stride + stride + 3`, inside `images·stride +
/// PATCH_SLACK`.
///
/// The accumulator's layout is fixed here, from the shape and the fused
/// pool, and both [`gemm_i8_conv`] and the readers take it from this
/// value: channel-planar when the conv runs the **pixel-lane** tile
/// ([`planar`](Self::planar)), else pixel-major — in the window-major
/// order of a fused 2×2 / stride-2 pool, row-major otherwise.
#[derive(Clone, Debug)]
pub struct ImplicitConv {
    /// Output positions per image.
    s: usize,
    /// Stacked images the row table covers.
    images: usize,
    /// Byte stride between stacked images.
    stride: usize,
    /// One past the last byte one image's rows read.
    extent: usize,
    rows: Vec<u32>,
    /// One run of `rq` quads per kept kernel row, `row_bytes` apart.
    runs: Runs,
    /// Output map, channels and the pool the write-back fuses.
    hw: (usize, usize),
    c_out: usize,
    pool: Option<PoolGeometry>,
    layout: Layout,
    /// Bytes between neighbouring output pixels' fields (`c_in`).
    step: usize,
    /// Each output pixel's live box when the batch folds (else empty).
    boxes: Vec<PixelBox>,
}

impl ImplicitConv {
    /// The row table and run geometry of the convolution `dims` for up to
    /// `images` images stacked at [`NhwcImage::stride`] (`1` unless the
    /// batch folds into one GEMM), for a write-back that fuses `pool`
    /// (`None` when none, or when the output is dequantized to f32). GEMM
    /// row `r` of an image holds output pixel `r` — or, through the 2×2 /
    /// stride-2 pool of a conv that is not pixel-lane, pixel `order[r]` of
    /// its [`window_major`] order. Allocates — call at plan-compile time.
    ///
    /// # Errors
    ///
    /// [`TensorError::InvalidGeometry`] if `images` is 0, `dims` is not a
    /// convolution whose output fits its padded input (its reads would
    /// leave the image + slack), the stacked images span more than `u32`
    /// offsets address, or the 2×2 pool of a window-major layout does not
    /// fit the output.
    pub fn compile(
        dims: &ConvPlanDims,
        images: usize,
        pool: Option<PoolGeometry>,
    ) -> Result<ImplicitConv, TensorError> {
        let field = field_runs(dims);
        let layout = if pixel_lanes(dims, field.quads) {
            Layout::Planar
        } else {
            pixel_major(pool)
        };
        let order = if layout == Layout::WindowMajor {
            let order =
                window_major(dims.oh, dims.ow).ok_or_else(|| TensorError::InvalidGeometry {
                    reason: format!("implicit conv: no 2x2 pool fits the output of {dims:?}"),
                })?;
            Some(order)
        } else {
            None
        };
        let img = NhwcImage::for_conv(dims);
        let stride = dims.geom.stride;
        let row_bytes = img.row_bytes();
        let s = dims.oh * dims.ow;
        let corner = field.ky0 * row_bytes + field.kx0 * dims.c_in;
        let origin =
            |p: usize| (p / dims.ow) * stride * row_bytes + (p % dims.ow) * stride * dims.c_in;
        let runs = Runs {
            count: field.rows,
            quads: field.quads,
            stride: row_bytes,
        };
        // One past the last byte read: the last pixel's last quad — at
        // most 3 bytes past the padded image for a conv whose output fits
        // it.
        let extent =
            (0..s).map(origin).max().unwrap_or(0) + corner + runs.offsets().max().unwrap_or(0) + QK;
        if images == 0
            || s == 0
            || extent > img.stride() + PATCH_SLACK
            || images * img.stride() + PATCH_SLACK > u32::MAX as usize
        {
            return Err(TensorError::InvalidGeometry {
                reason: format!(
                    "implicit conv: {images} image(s) of {dims:?} cannot be read in place"
                ),
            });
        }
        let pixel = |t: usize| order.as_ref().map_or(t, |o| o.get(t).copied().unwrap_or(t));
        let row = |r: usize| ((r / s) * img.stride() + corner + origin(pixel(r % s))) as u32;
        let rows = (0..images * s).map(row).collect(); // compile-time table
                                                       // The pixel boxes in GEMM row order, like the rows.
        let natural = pixel_boxes(dims);
        let boxes = if natural.is_empty() {
            natural
        } else {
            (0..s)
                .filter_map(|t| natural.get(pixel(t)).copied())
                .collect() // compile-time table
        };
        Ok(ImplicitConv {
            s,
            images,
            stride: img.stride(),
            extent,
            rows,
            runs,
            hw: (dims.oh, dims.ow),
            c_out: dims.c_out,
            pool,
            layout,
            step: dims.c_in,
            boxes,
        })
    }

    /// Quads per GEMM row: the kept runs `·` `ceil(cols·c_in / 4)`.
    pub fn quads(&self) -> usize {
        self.runs.count * self.runs.quads
    }

    /// Whether the conv runs the pixel-lane tile and its accumulator is
    /// **channel-planar** per 16-pixel segment: output pixel `p`'s
    /// channel `c` at `((p / 16)·c_out + c)·16 + p mod 16` of its image —
    /// read with [`dequantize_planar_bias_relu`] instead of
    /// [`dequantize_transpose_bias_relu`]. True exactly when `c_out ≤ 8`,
    /// stride is 1, `ow` is a multiple of 16 and `15·c_in + 4·rq ≤ 128`
    /// (`rq` the quads of one kept run).
    pub fn planar(&self) -> bool {
        self.layout == Layout::Planar
    }

    /// The fused write-back of this conv's accumulator — whatever its
    /// layout — through the pool it was compiled for, into `dst`: a
    /// [`Requantize`] over its output map. Plan-compile time.
    ///
    /// # Errors
    ///
    /// As [`Requantize::compile`]; also when `w_scales` does not hold one
    /// scale per output channel of the conv.
    pub fn requantize(
        &self,
        w_scales: &[f32],
        bias: &[f32],
        relu: bool,
        dst: NhwcImage,
    ) -> Result<Requantize, TensorError> {
        if w_scales.len() != self.c_out {
            return Err(TensorError::InvalidGeometry {
                reason: format!(
                    "requantize: {} channel scales for a conv of {} channels",
                    w_scales.len(),
                    self.c_out
                ),
            });
        }
        Requantize::with_layout(w_scales, bias, self.hw, relu, self.pool, dst, self.layout)
    }
}

/// Output pixels of an `oh × ow` map in **window-major** order for the
/// 2×2 / stride-2 max-pool (pooled map `ph × pw`): position `(2·ky + kx)·
/// ph·pw + py·pw + px` holds pixel `(2·py + ky, 2·px + kx)` — window
/// offset `(ky, kx)` of every pooled pixel in turn, each block in the
/// pooled image's own order — then the pixels no window covers (an odd
/// map's last row and column), row-major. `None` when the pool does not
/// fit.
fn window_major(oh: usize, ow: usize) -> Option<Vec<usize>> {
    let g = PoolGeometry::halving();
    let (ph, pw) = g.output_size(oh).zip(g.output_size(ow))?;
    let mut order = Vec::with_capacity(oh * ow); // plan-compile-time table
    for ky in 0..2 {
        for kx in 0..2 {
            for py in 0..ph {
                order.extend((0..pw).map(|px| (2 * py + ky) * ow + 2 * px + kx));
            }
        }
    }
    order.extend((0..oh * ow).filter(|&p| p / ow >= 2 * ph || p % ow >= 2 * pw));
    Some(order)
}

/// The int8 convolution of `images` stacked padded u8 NHWC images,
/// read in place: `out[j·s·c_out ..]` receives the exact signed sums of
/// image `j`'s output pixels — the accumulator a patch gather followed by
/// [`gemm_i8`] produces, in the layout `conv` fixed (row-major,
/// window-major or [planar](ImplicitConv::planar)) — in every mode and at
/// any thread count. `img` starts at image 0 and `pack` comes from
/// [`PackedBI8::pack_conv_runs`] for the same convolution.
///
/// The images must be padded ones: every border byte the zero point
/// `128`, as [`quantize_nhwc_u8`] and [`Requantize`] write them. The conv
/// leaves out the products of taps that read only the border — the dead
/// taps of the whole map, and of each pixel of a folded batch — since
/// against the zero point they are exactly 0.
///
/// # Panics
///
/// If `images` exceeds what `conv` was compiled for, `pack` does not
/// match its quads (or, for a planar conv, holds more than 8 columns),
/// `img` holds fewer than `images ·` [`NhwcImage::stride`] `+
/// PATCH_SLACK` bytes, or `out` fewer than `images · s · c_out` sums —
/// once, before anything is read or written.
// seal-lint: allow(panic-freedom) — the asserts are the documented extent contract; `images·s ≤ rows.len()` by the first
pub fn gemm_i8_conv(
    img: &[u8],
    conv: &ImplicitConv,
    images: usize,
    pack: &PackedBI8,
    out: &mut [i32],
    mode: KernelMode,
) {
    assert!(
        images <= conv.images,
        "gemm_i8_conv: more images than compiled for"
    );
    let m = images * conv.s;
    if m == 0 || pack.n == 0 {
        return;
    }
    assert!(
        img.len() >= images * conv.stride + PATCH_SLACK,
        "gemm_i8_conv: image (+ slack) too short"
    );
    assert!(
        out.len() >= m * pack.n,
        "gemm_i8_conv: output buffer too short"
    );
    let extent = (images - 1) * conv.stride + conv.extent;
    let rows = ConvRows {
        rows: &conv.rows[..m],
        runs: conv.runs,
        pixel_step: conv.planar().then_some(conv.step),
        boxes: &conv.boxes,
    };
    gemm_i8_rows(&img[..extent], &rows, pack, out, m, mode);
}

/// The fused write-back of an int8 step whose consumer is another int8
/// step: dequantize the exact-i32 accumulator, add bias, apply ReLU,
/// max-pool if a pool follows, take the per-image dynamic scale over the
/// *pooled* values and quantize them straight into the consumer's padded
/// u8 NHWC image.
///
/// Every f32 value is the expression of [`dequantize_transpose_bias_relu`]
/// (`acc as f32 · (a_scale · w_scale[c]) + bias[c]`, then `max(0, ·)`),
/// the pool is the window scan of `max_pool2d_into` (`v > best` from
/// `−inf`, so NaN never wins), and scale and bytes come from the shared
/// `max_abs` / `quantize_value` — so the image written here is byte for
/// byte what dequantizing to f32 NCHW, pooling there and calling
/// [`quantize_slice_u8`] produces (max-pool only selects existing values,
/// and the sign of a zero cannot reach a byte).
///
/// Each image takes two passes. The first dequantizes into the f32
/// stage — through the pool if one follows — and folds the integer
/// max|·| of every value it keeps; the second quantizes the kept values
/// into the interior and writes only the border and quad tail around it.
/// The per-channel constants are tiled over the accumulator image at
/// compile time in its own layout, so a pass without a pool is one flat
/// loop. A pixel-major accumulator ([`Requantize::compile`]) is the NHWC
/// image itself: through the 2×2 / stride-2 pool it is window-major and
/// the pool is one flat pass over the four window blocks; other pools
/// scan it row by row. A **planar** one ([`ImplicitConv::requantize`])
/// keeps its 16-pixel segments: the 2×2 pool takes each vertical pair of
/// segments, then each even and odd lane, into planar 8-pixel segments;
/// the second pass quantizes every row flat as before, and a third
/// reorders each segment's bytes into NHWC order in place (one
/// `vpermt2b` per 64 bytes where AVX-512 VBMI runs). Other pools scan it
/// row by row into NHWC values.
#[derive(Clone, Debug)]
pub struct Requantize {
    ow: usize,
    relu: bool,
    pool: Option<PoolGeometry>,
    dst: NhwcImage,
    /// Per-channel weight scales / biases tiled across the whole GEMM
    /// output image (`oh·ow·c_out`) in the accumulator's layout, so the
    /// dequantize loop is one flat elementwise loop however narrow
    /// `c_out` is.
    w_scales_img: Vec<f32>,
    bias_img: Vec<f32>,
    layout: Layout,
    /// Pixels per segment of the staged values: 16 (planar, no pool), 8
    /// (planar through the 2×2 pool) or 1 (pixel-major, the NHWC row).
    lanes: usize,
    /// NHWC byte `j` of a staged segment is its planar byte
    /// `interleave[j] = (j mod c)·lanes + j / c`.
    interleave: [u8; PIXEL_WINDOW],
}

impl Requantize {
    /// Write-back of a **pixel-major** GEMM output image of `oh × ow`
    /// positions by `w_scales.len()` channels into `dst`, through `pool`
    /// if given — window-major through the 2×2 / stride-2 pool, row-major
    /// otherwise: [`gemm_i8`]'s rows, and the layout of an
    /// [`ImplicitConv`] that is not [planar](ImplicitConv::planar) and
    /// was compiled for the same `pool` ([`ImplicitConv::requantize`]
    /// builds the write-back of any conv). Plan-compile-time: allocates
    /// the tiled constant rows.
    ///
    /// # Errors
    ///
    /// [`TensorError::InvalidGeometry`] when `bias` or `dst` disagree with
    /// the channel count, or `dst` is not the (pooled) output extent.
    pub fn compile(
        w_scales: &[f32],
        bias: &[f32],
        (oh, ow): (usize, usize),
        relu: bool,
        pool: Option<PoolGeometry>,
        dst: NhwcImage,
    ) -> Result<Requantize, TensorError> {
        Self::with_layout(w_scales, bias, (oh, ow), relu, pool, dst, pixel_major(pool))
    }

    fn with_layout(
        w_scales: &[f32],
        bias: &[f32],
        (oh, ow): (usize, usize),
        relu: bool,
        pool: Option<PoolGeometry>,
        dst: NhwcImage,
        layout: Layout,
    ) -> Result<Requantize, TensorError> {
        let c_out = w_scales.len();
        let pooled = match pool {
            None => Some((oh, ow)),
            Some(g) => g.output_size(oh).zip(g.output_size(ow)),
        };
        if bias.len() != c_out || dst.c != c_out || pooled != Some((dst.h, dst.w)) {
            return Err(TensorError::InvalidGeometry {
                reason: format!(
                    "requantize: {oh}x{ow}x{c_out} through {pool:?} does not produce {dst:?}"
                ),
            });
        }
        let planar = layout == Layout::Planar;
        let lanes = match pool {
            _ if !planar => 1,
            None => QNR,
            Some(g) if g == PoolGeometry::halving() => QNR / 2,
            Some(_) => 1,
        };
        let mut interleave = [0u8; PIXEL_WINDOW];
        if lanes > 1 {
            for (j, b) in interleave.iter_mut().take(lanes * c_out).enumerate() {
                *b = ((j % c_out) * lanes + j / c_out) as u8;
            }
        }
        // Plan-compile-time constants, in the accumulator's layout.
        let tile = |v: &[f32]| {
            (0..oh * ow * c_out)
                .map(|i| v[if planar { (i / QNR) % c_out } else { i % c_out }])
                .collect()
        };
        Ok(Requantize {
            ow,
            relu,
            pool,
            dst,
            w_scales_img: tile(w_scales),
            bias_img: tile(bias),
            layout,
            lanes,
            interleave,
        })
    }

    /// The image this write-back produces.
    pub fn dst(&self) -> &NhwcImage {
        &self.dst
    }

    /// f32 staging floats [`run`](Self::run) needs: the (pooled) output
    /// image, plus one GEMM output row of column maxima when a pool is
    /// scanned row by row.
    pub fn stage_len(&self) -> usize {
        let pooled = self.dst.h * self.dst.w * self.dst.c;
        pooled + self.row_scan().map_or(0, |_| self.ow * self.dst.c)
    }

    /// The pool [`run`](Self::run) scans row by row — every pool but the
    /// 2×2 / stride-2 one, which has a one-pass form in either layout.
    fn row_scan(&self) -> Option<PoolGeometry> {
        self.pool.filter(|&g| g != PoolGeometry::halving())
    }

    /// Requantize one image's accumulator `acc[oh·ow × c_out]` (in the
    /// layout this write-back was compiled for), quantized against
    /// activation scale `a_scale`, into `out` (one [`NhwcImage::stride`]
    /// of [`dst`](Self::dst)); returns the new image's scale.
    /// Bit-identical for every `mode`.
    // seal-lint: allow(panic-freedom) — the three extents are asserted at entry; row and pixel offsets derive from the geometry `compile` validated
    pub fn run(
        &self,
        acc: &[i32],
        a_scale: f32,
        stage: &mut [f32],
        out: &mut [u8],
        mode: KernelMode,
    ) -> f32 {
        assert!(
            acc.len() >= self.w_scales_img.len(),
            "requantize: accumulator too short"
        );
        assert!(
            stage.len() >= self.stage_len(),
            "requantize: stage too short"
        );
        assert!(
            out.len() >= self.dst.stride(),
            "requantize: output too short"
        );
        let vbmi = i8_kernel(mode) == I8Kernel::Vnni && cpu_features().avx512vbmi;
        vectorized(
            mode,
            #[inline(always)]
            || {
                // Two literal instantiations, so each inlined body sees
                // a constant `relu` and its loops stay branch-free.
                if self.relu {
                    self.run_body(acc, a_scale, stage, out, true, vbmi)
                } else {
                    self.run_body(acc, a_scale, stage, out, false, vbmi)
                }
            },
        )
    }

    /// The whole accumulator → f32 in one flat loop; returns the integer
    /// max|·| of the values it stored.
    #[inline(always)]
    // seal-lint: allow(panic-freedom) — all four slices are cut to `out.len()` up front
    fn dequantize(&self, acc: &[i32], a_scale: f32, out: &mut [f32], relu: bool) -> u32 {
        let n = out.len();
        let (acc, ws, bias) = (&acc[..n], &self.w_scales_img[..n], &self.bias_img[..n]);
        let mut m = 0u32;
        for i in 0..n {
            let v = dequantize_value(acc[i], a_scale * ws[i], bias[i], relu);
            out[i] = v;
            m = fold_abs_max(m, v, relu);
        }
        m
    }

    /// `out[i] = v` where the dequantized `v` of `acc[i]` beats it — one
    /// row of `max_pool2d_into`'s vertical `v > best` scan.
    #[inline(always)]
    // seal-lint: allow(panic-freedom) — all four slices are cut to `out.len()` up front
    fn dequantize_max(&self, acc: &[i32], a_scale: f32, out: &mut [f32], relu: bool) {
        let n = out.len();
        let (acc, ws, bias) = (&acc[..n], &self.w_scales_img[..n], &self.bias_img[..n]);
        for i in 0..n {
            let v = dequantize_value(acc[i], a_scale * ws[i], bias[i], relu);
            if v > out[i] {
                out[i] = v;
            }
        }
    }

    /// The windowed 2×2 pool in one pass: each pooled value in `vals`
    /// reads its four window-major blocks of `acc` and makes
    /// `max_pool2d_into`'s four compare-selects in the same order
    /// (column `kx = 0` from `−inf` over `ky`, column 1 likewise, then
    /// column 1 against column 0); returns the integer max|·| of `vals`.
    #[inline(always)]
    // seal-lint: allow(panic-freedom) — `run` asserted the accumulator holds the four blocks of `vals.len()` sums (the whole `oh·ow·c` image)
    fn pool_windowed(&self, acc: &[i32], a_scale: f32, vals: &mut [f32], relu: bool) -> u32 {
        let p = vals.len();
        let acc = &acc[..4 * p];
        let (ws, bias) = (&self.w_scales_img[..p], &self.bias_img[..p]);
        let (b00, rest) = acc.split_at(p);
        let (b01, rest) = rest.split_at(p);
        let (b10, b11) = rest.split_at(p);
        let (b11, b00, b01, b10) = (&b11[..p], &b00[..p], &b01[..p], &b10[..p]);
        let mut m = 0u32;
        for i in 0..p {
            let deq = |a: i32| dequantize_value(a, a_scale * ws[i], bias[i], relu);
            let over = |v: f32, best: f32| if v > best { v } else { best };
            let col0 = over(deq(b10[i]), over(deq(b00[i]), f32::NEG_INFINITY));
            let col1 = over(deq(b11[i]), over(deq(b01[i]), f32::NEG_INFINITY));
            let best = over(col1, col0);
            vals[i] = best;
            m = fold_abs_max(m, best, relu);
        }
        m
    }

    /// The 2×2 pool of a planar accumulator in one pass: pooled row `py`
    /// takes the segments of rows `2py` (`top`) and `2py + 1` (`bottom`),
    /// segment by segment — the vertical scan of each lane (from `−inf`,
    /// top then bottom), then lane `2j + 1` against lane `2j`, the order
    /// of `max_pool2d_into` — so pooled pixel `j` of a segment's channel
    /// is planar lane `j` of an 8-pixel segment. Returns the integer
    /// max|·| of `vals`.
    #[inline(always)]
    // seal-lint: allow(panic-freedom) — `compile` checked `dst` is the pooled `oh/2 × ow/2` image and `run` that the accumulator holds `oh·ow·c` sums; a row is whole segments of `16·c ≤ 128` sums
    fn pool_pairs(&self, acc: &[i32], a_scale: f32, vals: &mut [f32], relu: bool) -> u32 {
        let seg = QNR * self.dst.c;
        let row = self.ow * self.dst.c;
        let (ws, bias) = (&self.w_scales_img[..seg], &self.bias_img[..seg]);
        let over = |v: f32, best: f32| if v > best { v } else { best };
        let mut col = [0.0f32; PIXEL_WINDOW];
        let col = &mut col[..seg];
        let mut m = 0u32;
        for (py, pooled) in vals.chunks_exact_mut(row / 2).enumerate() {
            let top = acc[2 * py * row..][..row].chunks_exact(seg);
            let bottom = acc[(2 * py + 1) * row..][..row].chunks_exact(seg);
            for ((top, bottom), out) in top.zip(bottom).zip(pooled.chunks_exact_mut(seg / 2)) {
                let (top, bottom) = (&top[..seg], &bottom[..seg]);
                for i in 0..seg {
                    let deq = |a: i32| dequantize_value(a, a_scale * ws[i], bias[i], relu);
                    col[i] = over(deq(bottom[i]), over(deq(top[i]), f32::NEG_INFINITY));
                }
                for (o, pair) in out.iter_mut().zip(col.chunks_exact(2)) {
                    let best = over(pair[1], pair[0]);
                    *o = best;
                    m = fold_abs_max(m, best, relu);
                }
            }
        }
        m
    }

    /// One pooled row of the row-scan path from the accumulator rows
    /// `acc` of its windows: `max_pool2d_into`'s scan — vertical into
    /// `col_max` (from `−inf`, `v > best`, each row dequantized on the
    /// fly, in the accumulator's layout), then horizontal per pooled pixel
    /// and channel (first column taken, then `v > best`) into the NHWC
    /// `pooled` row.
    #[inline(always)]
    // seal-lint: allow(panic-freedom) — `acc` holds the window's rows; `compile` checked that every window of the pooled row lies inside `col_max`
    fn pool_row(
        &self,
        acc: &[i32],
        a_scale: f32,
        col_max: &mut [f32],
        g: PoolGeometry,
        pooled: &mut [f32],
        relu: bool,
    ) {
        let (row, c, window) = (col_max.len(), self.dst.c, g.window);
        let planar = self.layout == Layout::Planar;
        col_max.fill(f32::NEG_INFINITY);
        for a in acc.chunks_exact(row).take(window) {
            self.dequantize_max(a, a_scale, col_max, relu);
        }
        for (px, o) in pooled.chunks_exact_mut(c).enumerate() {
            let x = px * g.stride;
            for (ch, o) in o.iter_mut().enumerate() {
                let mut best = col_max[out_index(planar, c, x, ch)];
                for kx in 1..window {
                    let v = col_max[out_index(planar, c, x + kx, ch)];
                    if v > best {
                        best = v;
                    }
                }
                *o = best;
            }
        }
    }

    /// Reorders each segment of the quantized interior of `out` — the
    /// bytes of `lanes` pixels × `c` channels, quantized in the staged
    /// planar order — into NHWC order, in place: `vpermt2b` when `vbmi`,
    /// else through a copy.
    #[inline(always)]
    // seal-lint: allow(panic-freedom) — a segment is `lanes·c ≤ 128` bytes (`compile`), and every row lies inside the image `run` asserted
    fn interleave(&self, out: &mut [u8], vbmi: bool) {
        let (line, seg) = (self.dst.w * self.dst.c, self.lanes * self.dst.c);
        #[cfg(target_arch = "x86_64")]
        if vbmi {
            // SAFETY: `vbmi` is set only when the cached probe reports
            // avx512f/bw/vl and avx512vbmi; `run` asserted `out` holds the
            // image.
            unsafe { interleave_vbmi(out, &self.dst, seg, &self.interleave) };
            return;
        }
        let _ = vbmi;
        for y in 0..self.dst.h {
            for chunk in out[self.dst.interior_row(y)..][..line].chunks_exact_mut(seg) {
                let mut planar = [0u8; PIXEL_WINDOW];
                planar[..seg].copy_from_slice(chunk);
                for (d, &j) in chunk.iter_mut().zip(&self.interleave) {
                    *d = planar[j as usize];
                }
            }
        }
    }

    #[inline(always)]
    // seal-lint: allow(panic-freedom) — see `run`
    fn run_body(
        &self,
        acc: &[i32],
        a_scale: f32,
        stage: &mut [f32],
        out: &mut [u8],
        relu: bool,
        vbmi: bool,
    ) -> f32 {
        let line = self.dst.w * self.dst.c;
        let (vals, rest) = stage[..self.stage_len()].split_at_mut(self.dst.h * line);
        let m = match (self.pool, self.layout) {
            (None, _) => self.dequantize(acc, a_scale, vals, relu),
            (Some(g), _) if self.row_scan() == Some(g) => {
                let row = self.ow * self.dst.c;
                for (py, o) in vals.chunks_exact_mut(line).enumerate() {
                    let rows = &acc[py * g.stride * row..];
                    self.pool_row(rows, a_scale, rest, g, o, relu);
                }
                max_abs(vals).to_bits()
            }
            (Some(_), Layout::Planar) => self.pool_pairs(acc, a_scale, vals, relu),
            (Some(_), _) => self.pool_windowed(acc, a_scale, vals, relu),
        };
        let scale = channel_scale(f32::from_bits(m));
        let inv = 1.0 / scale;
        self.dst.fill_border(out);
        // A flat destination takes the single pixel as its whole row.
        for (y, v) in vals.chunks_exact(line).enumerate() {
            let dst = &mut out[self.dst.interior_row(y)..][..line];
            if relu {
                for (d, &v) in dst.iter_mut().zip(v) {
                    *d = quantize_byte_relu(v, inv);
                }
            } else {
                quantize_into(v, inv, dst);
            }
        }
        if self.lanes > 1 {
            self.interleave(out, vbmi);
        }
        scale
    }
}

/// [`Requantize`]'s interleave with AVX-512 VBMI: each `seg`-byte
/// segment of every interior row of `img` in `out` is loaded whole (two
/// masked 64-byte loads), reordered by one `vpermt2b` per 64 output bytes
/// (`out[j] = segment[perm[j]]`) and stored back with [`store_prefix`] —
/// not with masked stores, whose full 64-byte footprint would block the
/// next segment's load until it retires.
///
/// # Safety
///
/// The host must support AVX-512 F/BW and VBMI; `out` holds the image
/// `img`, whose interior rows are whole segments of `seg ≤ 128` bytes, a
/// multiple of 8; every `perm[j] < seg` for `j < seg`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
// seal-lint: allow(panic-freedom) — every row range lies inside the image the caller asserted
unsafe fn interleave_vbmi(out: &mut [u8], img: &NhwcImage, seg: usize, perm: &[u8; PIXEL_WINDOW]) {
    use std::arch::x86_64::{
        _mm512_loadu_si512, _mm512_maskz_loadu_epi8, _mm512_permutex2var_epi8,
    };
    let mask = |bytes: usize| match bytes {
        0 => 0,
        1..=63 => (1u64 << bytes) - 1,
        _ => u64::MAX,
    };
    let (lo, hi) = (mask(seg.min(64)), mask(seg.saturating_sub(64)));
    let line = img.w * img.c;
    // SAFETY: `perm` is 128 bytes; each segment's loads and stores touch
    // only its own `seg` bytes (the masks, the store lengths), inside
    // `out` by the contract.
    unsafe {
        let idx_lo = _mm512_loadu_si512(perm.as_ptr().cast());
        let idx_hi = _mm512_loadu_si512(perm.as_ptr().add(64).cast());
        for y in 0..img.h {
            for chunk in out[img.interior_row(y)..][..line].chunks_exact_mut(seg) {
                let p = chunk.as_mut_ptr();
                let a = _mm512_maskz_loadu_epi8(lo, p.cast());
                let b = _mm512_maskz_loadu_epi8(hi, p.wrapping_add(64).cast());
                store_prefix(p, _mm512_permutex2var_epi8(a, idx_lo, b), seg.min(64));
                if seg > 64 {
                    store_prefix(p.add(64), _mm512_permutex2var_epi8(a, idx_hi, b), seg - 64);
                }
            }
        }
    }
}

/// Stores the first `len` bytes of `v` at `p` (`len` a multiple of 8, at
/// most 64) in plain 32-, 16- and 8-byte stores.
///
/// # Safety
///
/// AVX-512 F available; `p .. p + len` writable.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn store_prefix(p: *mut u8, v: std::arch::x86_64::__m512i, len: usize) {
    use std::arch::x86_64::{
        _mm256_castsi256_si128, _mm256_extracti128_si256, _mm256_storeu_si256,
        _mm512_castsi512_si256, _mm512_extracti64x4_epi64, _mm512_storeu_si512, _mm_storel_epi64,
        _mm_storeu_si128,
    };
    // SAFETY: each store writes bytes below `p + len` (the contract).
    unsafe {
        if len == 64 {
            _mm512_storeu_si512(p.cast(), v);
            return;
        }
        let (mut q, mut rest) = (p, len);
        let mut half = _mm512_castsi512_si256(v);
        if rest >= 32 {
            _mm256_storeu_si256(q.cast(), half);
            half = _mm512_extracti64x4_epi64::<1>(v);
            (q, rest) = (q.add(32), rest - 32);
        }
        let mut quarter = _mm256_castsi256_si128(half);
        if rest >= 16 {
            _mm_storeu_si128(q.cast(), quarter);
            quarter = _mm256_extracti128_si256::<1>(half);
            (q, rest) = (q.add(16), rest - 16);
        }
        if rest >= 8 {
            _mm_storel_epi64(q.cast(), quarter);
        }
    }
}

fn matmul_i8_checks(lhs: &Tensor, rhs: &Tensor) -> Result<(usize, usize, usize), TensorError> {
    for t in [lhs, rhs] {
        if t.shape().rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: t.shape().rank(),
                op: "matmul_i8",
            });
        }
    }
    let (m, k) = (lhs.shape().dim(0), lhs.shape().dim(1));
    let (k2, n) = (rhs.shape().dim(0), rhs.shape().dim(1));
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            lhs: lhs.shape().clone(),
            rhs: rhs.shape().clone(),
            op: "matmul_i8",
        });
    }
    Ok((m, k, n))
}

/// Quantized matrix product: per-row symmetric activation quantization of
/// `lhs`, per-column (output-channel) quantization of `rhs`, exact-i32
/// int8 GEMM, dequantized back to f32. The convenience entry for tests
/// and benches; compiled plans pre-pack `rhs` once instead.
///
/// # Errors
///
/// Shape errors as [`super::matmul`]; [`TensorError::InvalidGeometry`]
/// when `k` exceeds [`MAX_QGEMM_K`].
pub fn matmul_i8(lhs: &Tensor, rhs: &Tensor) -> Result<Tensor, TensorError> {
    let (m, k, n) = matmul_i8_checks(lhs, rhs)?;
    let pack = PackedBI8::pack(rhs)?;
    let ka = quantized_row_len(k);
    let mut qa = vec![128u8; m * ka]; // convenience wrapper, plans use arena buffers
    let mut a_scales = vec![0.0f32; m]; // convenience wrapper
    quantize_rows_u8(lhs.as_slice(), m, k, &mut qa, &mut a_scales);
    let mut acc = vec![0i32; m * n]; // convenience wrapper
    gemm_i8(&qa, &pack, &mut acc, m, super::matmul::kernel_mode());
    let mut out = vec![0.0f32; m * n]; // convenience wrapper
    dequantize_bias_relu(&acc, &a_scales, pack.scales(), None, &mut out, m, n, false);
    Tensor::from_vec(out, Shape::matrix(m, n))
}

/// Naive reference for [`matmul_i8`]: identical quantization, then a
/// plain ascending-`k` triple loop over the quantized values in i32.
/// Every kernel mode and thread count must match it **bit for bit** —
/// this is the quantized analogue of `matmul_naive`.
///
/// # Errors
///
/// Same as [`matmul_i8`].
pub fn matmul_i8_reference(lhs: &Tensor, rhs: &Tensor) -> Result<Tensor, TensorError> {
    let (m, k, n) = matmul_i8_checks(lhs, rhs)?;
    if k > MAX_QGEMM_K {
        return Err(TensorError::InvalidGeometry {
            reason: format!("matmul_i8 reduction depth {k} exceeds MAX_QGEMM_K ({MAX_QGEMM_K})"),
        });
    }
    let qb = quantize_per_channel(rhs, QuantAxis::Col)?;
    let ka = quantized_row_len(k);
    let mut qa = vec![128u8; m * ka]; // reference path
    let mut a_scales = vec![0.0f32; m]; // reference path
    quantize_rows_u8(lhs.as_slice(), m, k, &mut qa, &mut a_scales);
    let mut out = vec![0.0f32; m * n]; // reference path
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0i32;
            for kk in 0..k {
                acc += (qa[i * ka + kk] as i32 - 128) * qb.data[kk * n + j] as i32;
            }
            out[i * n + j] = acc as f32 * (a_scales[i] * qb.scales[j]);
        }
    }
    Tensor::from_vec(out, Shape::matrix(m, n))
}

#[cfg(test)]
mod tests {
    use super::super::matmul::{reset_kernel_mode, set_kernel_mode};
    use super::*;
    use crate::rng::rngs::StdRng;
    use crate::rng::SeedableRng;

    fn modes() -> Vec<KernelMode> {
        vec![
            KernelMode::Scalar,
            KernelMode::Avx2,
            KernelMode::Avx512,
            KernelMode::Fma,
        ]
    }

    const SHAPES: [(usize, usize, usize); 6] = [
        (1, 1, 1),
        (3, 5, 7),
        (4, 16, 16),
        (33, 129, 17),
        (37, 200, 41),
        (64, 300, 72),
    ];

    /// Every kernel mode must reproduce the naive quantized reference
    /// bit for bit across awkward shapes (strip tails, row remainders,
    /// quad remainders).
    #[test]
    fn all_modes_match_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(91);
        for &(m, k, n) in &SHAPES {
            let a = crate::uniform(&mut rng, Shape::matrix(m, k), -2.0, 2.0);
            let b = crate::uniform(&mut rng, Shape::matrix(k, n), -2.0, 2.0);
            let reference = matmul_i8_reference(&a, &b).unwrap();
            for mode in modes() {
                if set_kernel_mode(mode) != mode {
                    continue;
                }
                let fast = matmul_i8(&a, &b).unwrap();
                let same = fast
                    .as_slice()
                    .iter()
                    .zip(reference.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(
                    same,
                    "{} != reference (bitwise) for {m}x{k}x{n}",
                    mode.name()
                );
            }
            reset_kernel_mode();
        }
    }

    /// The parallel row-block path (large m) must match the serial
    /// reference bitwise, whatever the pool size.
    #[test]
    fn parallel_path_matches_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(92);
        let a = crate::uniform(&mut rng, Shape::matrix(130, 90), -1.0, 1.0);
        let b = crate::uniform(&mut rng, Shape::matrix(90, 50), -1.0, 1.0);
        let reference = matmul_i8_reference(&a, &b).unwrap();
        for threads in [1usize, 2, 7] {
            let pool = seal_pool::Pool::new(threads);
            let fast = seal_pool::with_pool(&pool, || matmul_i8(&a, &b).unwrap());
            assert!(fast
                .as_slice()
                .iter()
                .zip(reference.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }

    /// Quantization is near-lossless for well-scaled data: the quantized
    /// product must track the f32 product within per-channel tolerance.
    #[test]
    fn quantized_product_tracks_f32() {
        let mut rng = StdRng::seed_from_u64(93);
        let a = crate::uniform(&mut rng, Shape::matrix(16, 64), -1.0, 1.0);
        let b = crate::uniform(&mut rng, Shape::matrix(64, 24), -1.0, 1.0);
        let exact = super::super::matmul(&a, &b).unwrap();
        let quant = matmul_i8(&a, &b).unwrap();
        for (q, e) in quant.as_slice().iter().zip(exact.as_slice()) {
            // ~1% relative to the reduction magnitude (64 × |ab| ≤ 64).
            assert!((q - e).abs() < 0.25, "quantized {q} too far from {e}");
        }
    }

    /// All-zero channels must quantize through scale 1.0 and reconstruct
    /// exactly.
    #[test]
    fn all_zero_channel_roundtrip() {
        let mut w = vec![0.5f32; 6 * 4];
        for r in 0..6 {
            w[r * 4 + 2] = 0.0; // column channel 2 all zero
        }
        let t = Tensor::from_vec(w, Shape::matrix(6, 4)).unwrap();
        let q = quantize_per_channel(&t, QuantAxis::Col).unwrap();
        assert_eq!(q.scales()[2], 1.0);
        assert!(q.data().iter().skip(2).step_by(4).all(|&v| v == 0));
        let back = dequantize(&q).unwrap();
        for (x, y) in back.as_slice().iter().zip(t.as_slice()) {
            assert!((x - y).abs() < 0.5 / 127.0);
        }
    }

    /// `i8::MIN` asymmetry: the most negative element of a channel maps
    /// to -127, never -128, so |q| ≤ 127 holds everywhere (the overflow
    /// bounds and the vpmaddwd kernel rely on it).
    #[test]
    fn i8_min_is_never_produced() {
        let t = Tensor::from_vec(vec![-3.0, 3.0, -1.5, 0.1], Shape::matrix(4, 1)).unwrap();
        let q = quantize_per_channel(&t, QuantAxis::Col).unwrap();
        assert!(q.data().iter().all(|&v| v != i8::MIN));
        assert_eq!(q.data()[0], -127);
        // Same on the activation side (offset-binary: 1 ≤ u8, never 0).
        let mut out = vec![0u8; quantized_row_len(4)];
        let mut scales = [0.0f32];
        quantize_rows_u8(&[-3.0, 3.0, -1.5, 0.1], 1, 4, &mut out, &mut scales);
        assert!(
            out.iter().all(|&v| v >= 1),
            "offset-binary 0 would mean q = -128"
        );
        assert_eq!(out[0], 1); // -127 + 128
    }

    /// Worst-case-K accumulation bound: at the maximum accepted depth
    /// with worst-case operands (every product 127·127, and the VNNI
    /// offset domain 255·127) neither accumulator wraps. Checked
    /// arithmetically here — the kernels are exercised at depth ≥ KC by
    /// the bitwise tests — plus the over-limit rejection.
    #[test]
    fn worst_case_k_fits_i32_and_over_limit_is_rejected() {
        let k = MAX_QGEMM_K as i64;
        assert!(127 * 127 * k < i32::MAX as i64, "signed domain overflows");
        assert!(255 * 127 * k < i32::MAX as i64, "offset domain overflows");
        assert!(128 * 127 * k < i32::MAX as i64, "correction term overflows");
        // And one real worst-case GEMM at a depth big enough to cross
        // many quads: +1/-1 alternating inputs, exact result known.
        let k = 4099usize;
        let a = Tensor::from_vec(vec![1.0f32; k], Shape::matrix(1, k)).unwrap();
        let b = Tensor::from_vec(
            (0..k)
                .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
                .collect(),
            Shape::matrix(k, 1),
        )
        .unwrap();
        let out = matmul_i8(&a, &b).unwrap();
        assert!((out.as_slice()[0] - 1.0).abs() < 1e-3);
        let reference = matmul_i8_reference(&a, &b).unwrap();
        assert_eq!(
            out.as_slice()[0].to_bits(),
            reference.as_slice()[0].to_bits()
        );
        // Over-limit depth is a typed error, not silent wraparound.
        let big = MAX_QGEMM_K + 1;
        let a = Tensor::zeros(Shape::matrix(1, big));
        let b = Tensor::zeros(Shape::matrix(big, 1));
        assert!(matches!(
            matmul_i8(&a, &b),
            Err(TensorError::InvalidGeometry { .. })
        ));
    }

    /// The rounding rule as first written: a saturating cast, then the
    /// integer clamp. `quantize_value` moves the saturation in front of
    /// the conversion; the two must agree on every f32.
    fn saturating_cast_rule(x: f32, inv_scale: f32) -> i8 {
        let t = x * inv_scale;
        ((t + 0.5f32.copysign(t)) as i32).clamp(-127, 127) as i8
    }

    #[test]
    fn quantize_value_is_the_saturating_cast_rule() {
        let mut xs = vec![
            0.0f32,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            f32::from_bits(1), // smallest denormal
            f32::MAX,
            f32::MIN,
            2_147_483_648.0, // 2³¹: the first value the cast saturates
            -2_147_483_904.0,
        ];
        // Every rounding and clamping boundary, one ulp either side.
        for b in [0.5f32, 1.5, 126.5, 127.0, 127.5, 128.0, 128.5, 255.5] {
            for v in [b, -b] {
                xs.extend([
                    v,
                    f32::from_bits(v.to_bits() - 1),
                    f32::from_bits(v.to_bits() + 1),
                ]);
            }
        }
        // A stride over all 2³² bit patterns (prime, so every exponent,
        // both signs and the NaN ranges are visited).
        xs.extend((0..u32::MAX).step_by(40_009).map(f32::from_bits));
        let invs = [
            1.0f32,
            127.0 / 0.37,
            1e-30,
            1e30,
            0.0,
            f32::INFINITY,
            f32::NAN,
            -3.0,
        ];
        for &inv in &invs {
            for &x in &xs {
                assert_eq!(
                    quantize_value(x, inv),
                    saturating_cast_rule(x, inv),
                    "x = {x:e} ({:#010x}), inv = {inv:e}",
                    x.to_bits()
                );
            }
        }
    }

    /// The ReLU lane forms equal the general ones on everything `max(0,
    /// ·)` can produce — `±0`, subnormals, every boundary of the rounding
    /// and clamp one ulp either side, `+inf` and a stride over all
    /// non-negative finite floats — against every kind of inverse scale,
    /// the NaN-producing `0` and `inf` among them.
    #[test]
    fn relu_forms_match_the_general_forms() {
        let mut xs = vec![
            0.0f32,
            -0.0,
            f32::INFINITY,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::MAX,
        ];
        for b in [0.5f32, 1.5, 126.5, 127.0, 127.5, 128.0, 128.5] {
            xs.extend([
                b,
                f32::from_bits(b.to_bits() - 1),
                f32::from_bits(b.to_bits() + 1),
            ]);
        }
        xs.extend((0..0x7f80_0000u32).step_by(40_009).map(f32::from_bits));
        let invs = [
            1.0f32,
            127.0 / 0.37,
            1e-30,
            1e30,
            0.0,
            f32::INFINITY,
            f32::from_bits(1),
        ];
        for &inv in &invs {
            for &x in &xs {
                assert_eq!(
                    quantize_byte_relu(x, inv),
                    quantize_byte(x, inv),
                    "x = {x:e} ({:#010x}), inv = {inv:e}",
                    x.to_bits()
                );
            }
        }
        let mut m = [0u32; 2];
        for &x in &xs {
            m = [fold_abs_max(m[0], x, true), fold_abs_max(m[1], x, false)];
            assert_eq!(m[0], m[1], "max|·| after {x:e}");
        }
    }

    /// `quantize_slice_u8` / `quantize_rows_u8` as first written: a serial
    /// `f32::max` chain for the scale, then the rounding rule per element.
    fn quantize_serial(x: &[f32], out: &mut [u8]) -> f32 {
        let maxabs = x.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let scale = channel_scale(maxabs);
        for (d, &v) in out.iter_mut().zip(x) {
            *d = (saturating_cast_rule(v, 1.0 / scale) as i16 + 128) as u8;
        }
        scale
    }

    /// The integer-domain max and the vector quantize body are byte- and
    /// scale-identical to the serial definition for every input class —
    /// NaN, ±inf, −0.0, denormals, all-zero rows (scale 1.0) — at every
    /// length across the vector tails, in every mode.
    #[test]
    fn quantize_slice_and_rows_match_the_serial_definition() {
        let mut rng = StdRng::seed_from_u64(94);
        let specials = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            f32::from_bits(1),
            3.0e38,
            -1.0e-20,
        ];
        for len in (0..70usize).chain([255, 256, 1000]) {
            for case in 0..6 {
                let mut x = crate::uniform(&mut rng, Shape::vector(len.max(1)), -4.0, 4.0)
                    .as_slice()[..len]
                    .to_vec();
                match case {
                    0 => {}
                    1 => x.iter_mut().for_each(|v| *v = 0.0),
                    2 => x.iter_mut().for_each(|v| *v = f32::NAN),
                    // One special value at a moving position.
                    _ => {
                        if let Some(v) = x.get_mut((len * case) / 7) {
                            *v = specials[(len + case) % specials.len()];
                        }
                        if case == 5 {
                            x.iter_mut().step_by(3).for_each(|v| *v = -0.0);
                        }
                    }
                }
                let mut want = vec![0u8; len];
                let want_scale = quantize_serial(&x, &mut want);
                if case == 1 || case == 2 {
                    assert_eq!(want_scale, 1.0, "all-zero / all-NaN rows use scale 1.0");
                }
                for mode in modes() {
                    if set_kernel_mode(mode) != mode {
                        continue;
                    }
                    let mut got = vec![0u8; len];
                    let scale = quantize_slice_u8(&x, &mut got);
                    assert_eq!(
                        scale.to_bits(),
                        want_scale.to_bits(),
                        "{mode:?} slice scale, len {len} case {case}"
                    );
                    assert_eq!(got, want, "{mode:?} slice bytes, len {len} case {case}");
                    // Two rows: this one, and its reverse.
                    let ka = quantized_row_len(len);
                    let rev: Vec<f32> = x.iter().rev().copied().collect();
                    let mut rows = vec![0u8; 2 * ka];
                    let mut scales = [0.0f32; 2];
                    quantize_rows_u8(
                        &[x.clone(), rev.clone()].concat(),
                        2,
                        len,
                        &mut rows,
                        &mut scales,
                    );
                    let mut want_rev = vec![0u8; len];
                    let rev_scale = quantize_serial(&rev, &mut want_rev);
                    assert_eq!(scales[0].to_bits(), want_scale.to_bits());
                    assert_eq!(scales[1].to_bits(), rev_scale.to_bits());
                    assert_eq!(rows[..len], want[..]);
                    assert_eq!(rows[ka..ka + len], want_rev[..]);
                    assert!(rows[len..ka]
                        .iter()
                        .chain(&rows[ka + len..])
                        .all(|&b| b == 128));
                }
                reset_kernel_mode();
            }
        }
    }

    /// Patch gather: padding cells read the quantized zero (byte 128)
    /// and patch order matches the (c_in, ky, kx) weight layout.
    #[test]
    fn patch_gather_pads_with_quantized_zero() {
        use super::super::Conv2dGeometry;
        let dims = ConvPlanDims {
            c_in: 1,
            h: 3,
            w: 3,
            c_out: 1,
            oh: 3,
            ow: 3,
            geom: Conv2dGeometry::same3x3(),
        };
        let g = PatchGather::compile(&dims);
        assert_eq!(g.spatial(), 9);
        assert_eq!(g.kdim(), 9);
        let img: Vec<f32> = (1..=9).map(|v| v as f32).collect();
        let mut img_q = vec![0u8; 9];
        let scale = quantize_slice_u8(&img, &mut img_q);
        assert!(scale > 0.0);
        let mut patches = vec![0u8; g.patch_bytes()];
        gather_patches_u8(&img_q, &g, &mut patches);
        let ka = quantized_row_len(9);
        // Top-left output position: the first patch row starts in padding.
        assert_eq!(patches[0], 128);
        // Its centre tap is the first pixel.
        assert_eq!(patches[4], img_q[0]);
        // Quad-alignment tail bytes are quantized zeros too.
        for j in 0..9 {
            for t in 9..ka {
                assert_eq!(patches[j * ka + t], 128);
            }
        }
    }
}
