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

/// Columns per packed int8 strip (i32 lanes of one 512-bit accumulator).
pub(crate) const QNR: usize = 16;
/// k-values interleaved per packed group (the `vpdpbusd` quad).
pub(crate) const QK: usize = 4;

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
/// yields. It is evaluated with the saturation moved *in front of* the
/// conversion (NaN → 0, then clamp to ±128.0, then a plain truncating
/// convert) because that form has no per-lane fix-up and so
/// auto-vectorises into `cvttps2dq`; the two forms agree on every f32
/// (`quantize_value_is_the_saturating_cast_rule`). This is the **single**
/// rounding definition every quantization path shares — weights at pack
/// time, activations on entry and in the requantizing epilogue — which is
/// what keeps scalar/AVX2/AVX-512 runs bit-identical.
#[inline(always)]
pub(crate) fn quantize_value(x: f32, inv_scale: f32) -> i8 {
    let t = x * inv_scale;
    let r = t + 0.5f32.copysign(t);
    // Written as selects (not `f32::clamp`/`max`) so NaN goes to 0 and
    // each line is one compare + blend per vector.
    let r = if r.is_nan() { 0.0 } else { r };
    let r = if r > 128.0 { 128.0 } else { r };
    let r = if r < -128.0 { -128.0 } else { r };
    // SAFETY: `r` is not NaN (replaced by 0.0 above) and lies in
    // [-128.0, 128.0] (the two selects above), so its truncation is
    // representable in i32 — the whole precondition of
    // `to_int_unchecked`.
    let q = unsafe { r.to_int_unchecked::<i32>() };
    q.clamp(-127, 127) as i8
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
    let mut scales = vec![0.0f32; channels]; // seal-lint: allow(hot-path-alloc) — quantization runs at plan-compile time
    let mut maxabs = vec![0.0f32; channels]; // seal-lint: allow(hot-path-alloc) — compile-time scratch
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
    let mut data = vec![0i8; rows * cols]; // seal-lint: allow(hot-path-alloc) — compile-time output
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
    let mut out = vec![0.0f32; q.rows * q.cols]; // seal-lint: allow(hot-path-alloc) — diagnostic path
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
    const INF: u32 = 0x7f80_0000;
    let mut m = 0u32;
    for &v in x {
        let b = v.to_bits() & 0x7fff_ffff;
        m = m.max(if b > INF { 0 } else { b });
    }
    f32::from_bits(m)
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
    // seal-lint: allow(hot-path-alloc) — empty at birth, grow-only after
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
}

/// Conv rows: one output pixel per row, addressed straight into padded
/// u8 NHWC images through the compile-time row table and run geometry of
/// an [`ImplicitConv`].
struct ConvRows<'a> {
    rows: &'a [u32],
    runs: Runs,
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
/// rows' quad count is checked against the pack's. Picks the kernel for
/// `mode`; the AVX2 kernel's i16 operand is `a` widened once, here,
/// before any row block runs.
// seal-lint: allow(panic-freedom) — the quad-count assert cannot fire from the plan: `gemm_i8`'s dense rows are one run of `kq` quads by construction, and a plan's `ImplicitConv` and `pack_conv_runs` pack come from the same dims (both `run_quads`); it guards the kernels' weight reads against a mismatched pack from outside
fn gemm_i8_rows<R: QuadRows>(
    a: &[u8],
    rows: &R,
    pack: &PackedBI8,
    out: &mut [i32],
    m: usize,
    mode: KernelMode,
) {
    let runs = rows.runs();
    assert_eq!(runs.count * runs.quads, pack.kq, "gemm_i8: A rows do not match the pack");
    match i8_kernel(mode) {
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
            // `cpu_features()` probe reports `avx2`.
            unsafe { widen_avx2(a, &mut wide) };
            let wide = &wide[..a.len()];
            row_blocks(pack, out, m, |r0, nr, o| {
                // SAFETY: as above; `wide` is `a` widened element for
                // element, so every offset `rows` forms is inside it.
                unsafe { consume_avx2(wide, rows, pack, o, r0, nr) }
            })
        }),
        #[cfg(target_arch = "x86_64")]
        I8Kernel::Vnni => row_blocks(pack, out, m, |r0, nr, o| {
            // SAFETY: `I8Kernel::Vnni` is only selected when
            // `cpu_features()` reports avx512f/bw/vl **and** avx512vnni,
            // so `vpdpbusd` and the masked store are available; every
            // offset `rows` forms is inside `a` (see above).
            unsafe { consume_vnni(a, rows, pack, o, r0, nr) }
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
/// ascending `k` order, for rows `r0 .. r0 + nr` into `out` (`nr × n`).
/// Every packed strip — the last one zero-padded to [`QNR`] columns at
/// pack time — is walked; only its valid columns are summed. Runs as
/// `KernelMode::Scalar` and on non-x86 hosts — integer accumulation makes
/// it bit-identical to the vector kernels.
// seal-lint: allow(panic-freedom) — strip extents are derived from the pack dimensions; row offsets lie inside `a` (asserted at the gemm entry)
fn scalar_strips<R: QuadRows>(
    a: &[u8],
    rows: &R,
    pack: &PackedBI8,
    out: &mut [i32],
    r0: usize,
    nr: usize,
) {
    let (n, kq) = (pack.n, pack.kq);
    for i in 0..nr {
        let base = rows.base(r0 + i);
        for s in 0..pack.strips {
            let sdata = &pack.data[s * kq * QNR * QK..(s + 1) * kq * QNR * QK];
            let cols = QNR.min(n - s * QNR);
            for c in 0..cols {
                let mut acc = 0i32;
                for (q, off) in rows.runs().offsets().enumerate() {
                    let bq = &sdata[(q * QNR + c) * QK..][..QK];
                    let aq = &a[base + off..][..QK];
                    for t in 0..QK {
                        acc += (aq[t] as i32 - 128) * bq[t] as i32;
                    }
                }
                out[i * n + s * QNR + c] = acc;
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
/// Only the valid columns of the (zero-padded) last strip are written.
///
/// # Safety
///
/// The host must support AVX2; `rows.runs()` must hold `pack.kq` quads,
/// and every `rows.base(i) + off + QK` for `i` in `r0 .. r0 + nr` and
/// `off` a quad offset of `rows.runs()` must be at most `wide.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// seal-lint: allow(panic-freedom) — `orow` ends at `i·n + min((s+1)·QNR, n) ≤ nr·n`, the block the caller handed over
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
                        let va = _mm256_set1_epi64x((ap.add(t * QK) as *const i64).read_unaligned());
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
                let orow = &mut out[i * n + s * QNR..i * n + s * QNR + cols];
                for (c, o) in orow.iter_mut().enumerate() {
                    *o = halves[2 * c] + halves[2 * c + 1];
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

/// AVX-512 VNNI kernel: one `vpdpbusd` per 4-deep k-quad accumulates
/// `u8 × i8` products of a broadcast activation quad against 16 packed
/// weight columns straight into i32 lanes — no i16 intermediate, no
/// saturation. The offset-binary A encoding is corrected after the k
/// loop by `128 · col_sums` (precomputed at pack time), restoring the
/// exact signed sums of the scalar kernel. Rows go through [`vnni_tile`]
/// [`RMR`] at a time, the last `nr mod RMR` as one shorter tile.
///
/// # Safety
///
/// The host must support AVX-512 F/BW/VL and VNNI; `rows.runs()` must
/// hold `pack.kq` quads, every `rows.base(i) + off + QK` for `i` in `r0
/// .. r0 + nr` and `off` a quad offset of `rows.runs()` must be at most
/// `a.len()`, and `out` must hold `nr × pack.n` sums.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vnni")]
// seal-lint: allow(panic-freedom) — strip extents derive from the pack dimensions; row and output extents are this function's safety contract
unsafe fn consume_vnni<R: QuadRows>(
    a: &[u8],
    rows: &R,
    pack: &PackedBI8,
    out: &mut [i32],
    r0: usize,
    nr: usize,
) {
    use std::arch::x86_64::{__m512i, _mm512_loadu_si512, _mm512_slli_epi32};
    let (n, kq, runs) = (pack.n, pack.kq, rows.runs());
    for s in 0..pack.strips {
        let sdata = &pack.data[s * kq * QNR * QK..(s + 1) * kq * QNR * QK];
        // One mask bit per valid column of this strip (`1 ≤ cols ≤ QNR`).
        let cols = QNR.min(n - s * QNR);
        let mut i0 = 0;
        // SAFETY: `col_sums` is padded to `strips·QNR`, so the 16-lane
        // load at `s·QNR` is in bounds. Every tile covers rows `r0 + i0
        // ..` below `r0 + nr` and stores at `out[(i0 + m)·n + s·QNR ..]`,
        // inside the `nr × n` block; `sdata` holds the `kq` 64-byte
        // groups the tile walks; the A quads lie inside `a` by this
        // function's contract.
        unsafe {
            let csum = _mm512_loadu_si512(pack.col_sums.as_ptr().add(s * QNR) as *const __m512i);
            let tile = Tile {
                a,
                rows,
                out: out.as_mut_ptr().add(s * QNR),
                n,
                runs,
                weights: sdata.as_ptr(),
                corr: _mm512_slli_epi32(csum, 7),
                valid: (u16::MAX >> (QNR - cols)) as std::arch::x86_64::__mmask16,
            };
            while i0 + RMR <= nr {
                vnni_tile::<RMR, R>(&tile, r0, i0);
                i0 += RMR;
            }
            match nr - i0 {
                1 => vnni_tile::<1, R>(&tile, r0, i0),
                2 => vnni_tile::<2, R>(&tile, r0, i0),
                3 => vnni_tile::<3, R>(&tile, r0, i0),
                4 => vnni_tile::<4, R>(&tile, r0, i0),
                5 => vnni_tile::<5, R>(&tile, r0, i0),
                6 => vnni_tile::<6, R>(&tile, r0, i0),
                7 => vnni_tile::<7, R>(&tile, r0, i0),
                _ => {}
            }
        }
    }
}

/// What every register tile of one packed strip shares in a
/// [`consume_vnni`] call: the operand and its rows, the strip's first
/// output column in block row 0 (`n` sums per row), its weight groups,
/// its `128 · col_sums` correction and the mask of its valid columns.
#[cfg(target_arch = "x86_64")]
struct Tile<'t, R> {
    a: &'t [u8],
    rows: &'t R,
    out: *mut i32,
    n: usize,
    runs: Runs,
    weights: *const i8,
    corr: std::arch::x86_64::__m512i,
    valid: std::arch::x86_64::__mmask16,
}

/// One `MR × 16` VNNI register tile — block rows `i0 .. i0 + MR`, A rows
/// `r0 + i0 ..`: `MR` independent accumulators, each weight group loaded
/// once for all of them, the corrected sums stored masked to the strip's
/// valid columns (masked-off lanes are neither written nor
/// fault-checked). Inlined into [`consume_vnni`], whose target features
/// it is compiled with.
///
/// # Safety
///
/// [`consume_vnni`]'s: AVX-512 VNNI available, every quad of the tile's
/// rows inside `tile.a`, `tile.weights` holding `runs.count·runs.quads`
/// 64-byte groups, and 16 lanes (the valid ones writable) at `tile.out +
/// (i0 + m)·n` for every `m < MR`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn vnni_tile<const MR: usize, R: QuadRows>(tile: &Tile<'_, R>, r0: usize, i0: usize) {
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
            *p = p.add(tile.rows.base(r0 + i0 + m));
        }
        let mut acc = [_mm512_setzero_si512(); MR];
        let mut g = tile.weights;
        for r in 0..runs.count {
            for t in 0..runs.quads {
                let off = r * runs.stride + t * QK;
                let b = _mm512_loadu_si512(g as *const __m512i);
                for m in 0..MR {
                    let aq = (rowp[m].add(off) as *const i32).read_unaligned();
                    acc[m] = _mm512_dpbusd_epi32(acc[m], _mm512_set1_epi32(aq), b);
                }
                g = g.add(QNR * QK);
            }
        }
        for (m, acc_m) in acc.iter().enumerate() {
            let fixed = _mm512_sub_epi32(*acc_m, tile.corr);
            _mm512_mask_storeu_epi32(tile.out.add((i0 + m) * tile.n), tile.valid, fixed);
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
    assert!(acc.len() >= m * n && out.len() >= m * n, "dequantize: short buffers");
    assert!(b_scales.len() >= n, "dequantize: missing channel scales");
    assert!(
        a_scales.len() >= m || a_scales.len() == 1,
        "dequantize: need 1 or m activation scales"
    );
    for i in 0..m {
        let sa = if a_scales.len() == 1 { a_scales[0] } else { a_scales[i] };
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
    assert!(acc.len() >= s * c_out && out.len() >= s * c_out, "dequantize_t: short buffers");
    assert!(w_scales.len() >= c_out, "dequantize_t: missing channel scales");
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
        let mut offsets = vec![0i32; s * kdim]; // seal-lint: allow(hot-path-alloc) — one-time compile step
        for p in 0..s {
            let (oy, ox) = (p / ow, p % ow);
            for q in 0..kdim {
                let kx = q % k;
                let ky = (q / k) % k;
                let ci = q / (k * k);
                let iy = (oy * stride + ky) as isize - pad as isize;
                let ix = (ox * stride + kx) as isize - pad as isize;
                offsets[p * kdim + q] =
                    if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
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
}

/// Readable bytes a u8 image buffer must hold behind its last image's
/// [`NhwcImage::stride`]: [`gemm_i8_conv`] reads each receptive-field run
/// in whole 4-byte quads, so it may read up to 3 bytes past the padded
/// image (see [`ImplicitConv`]).
pub const PATCH_SLACK: usize = 16;

/// Quantize one f32 **NCHW** image symmetrically per tensor into the
/// padded u8 NHWC image `img` (border and quad tail set to `128`),
/// returning the scale: the entry edge of the int8 data path. Scale and
/// interior bytes are exactly those of [`quantize_slice_u8`], transposed.
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
            out[..img.stride()].fill(128);
            for y in 0..h {
                let row = &mut out[img.interior_row(y)..][..w * c];
                for ci in 0..c {
                    // Quantize a strip of one channel's pixels with the
                    // vector body, then interleave its bytes.
                    let src = &x[(ci * h + y) * w..][..w];
                    for (strip, src) in src.chunks(STRIP).enumerate() {
                        let mut q = [0u8; STRIP];
                        quantize_into(src, inv, &mut q);
                        let dst = row[strip * STRIP * c + ci..].iter_mut().step_by(c);
                        for (d, &b) in dst.zip(&q[..src.len()]) {
                            *d = b;
                        }
                    }
                }
            }
            scale
        },
    )
}

/// Quads one receptive-field run of the convolution `dims` occupies in
/// the implicit-GEMM layout: the run's `k·c_in` bytes rounded up to the
/// 4-byte quad. [`PackedBI8::pack_conv_runs`] lays each `ky` run of
/// weights out at this width, zero-padded; [`ImplicitConv`] reads it.
pub(crate) fn run_quads(dims: &ConvPlanDims) -> usize {
    (dims.geom.kernel * dims.c_in).div_ceil(QK)
}

/// Compile-time A-operand addressing of an **implicit-GEMM** int8
/// convolution: [`gemm_i8_conv`] reads every patch straight out of the
/// padded u8 NHWC image, so no patch matrix is ever built.
///
/// With channels innermost, the `(kx, c_in)` part of a receptive-field
/// row is one contiguous run of `k·c_in` image bytes. GEMM row `p` (one
/// output pixel) starts at `rows[p]` — the field's top-left byte,
/// `oy·stride·row_bytes + ox·stride·c_in`, plus `j·`[`NhwcImage::stride`]
/// for image `j` of a stacked batch — and its quad `q` lies `quad_off[q]
/// = (q / rq)·row_bytes + (q mod rq)·4` further on: `k` runs (one per
/// `ky`) of `rq = ceil(k·c_in / 4)` quads, `row_bytes` apart. A run whose length is not a multiple
/// of 4 is read in whole quads, so its last quad takes up to 3 bytes of
/// whatever follows — the next pixel, the next row's border, or (for the
/// very last run) the [`PATCH_SLACK`] behind the image. Those bytes meet
/// the **zero weights** [`PackedBI8::pack_conv_runs`] puts in the run's
/// pad positions: they add exactly 0 to the i32 sums (and to `col_sums`),
/// whatever they hold. Every read therefore stays below `(images − 1)·
/// stride + stride + 3`, inside `images·stride + PATCH_SLACK`.
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
    /// `k` runs of `rq` quads, `row_bytes` apart.
    runs: Runs,
}

impl ImplicitConv {
    /// The row table and run geometry of the convolution `dims` for up to
    /// `images` images stacked at [`NhwcImage::stride`] (`1` unless the
    /// batch folds into one GEMM). Allocates — call at plan-compile time.
    ///
    /// # Errors
    ///
    /// [`TensorError::InvalidGeometry`] if `images` is 0, `dims` is not a
    /// convolution whose output fits its padded input (its reads would
    /// leave the image + slack), or the stacked images span more than
    /// `u32` offsets address.
    pub fn compile(dims: &ConvPlanDims, images: usize) -> Result<ImplicitConv, TensorError> {
        let img = NhwcImage::for_conv(dims);
        let (k, stride) = (dims.geom.kernel, dims.geom.stride);
        let (rq, row_bytes) = (run_quads(dims), img.row_bytes());
        let s = dims.oh * dims.ow;
        let field =
            |p: usize| (p / dims.ow) * stride * row_bytes + (p % dims.ow) * stride * dims.c_in;
        let runs = Runs {
            count: k,
            quads: rq,
            stride: row_bytes,
        };
        let extent = (0..s).map(field).max().unwrap_or(0) + runs.offsets().max().unwrap_or(0) + QK;
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
        let row = |r: usize| ((r / s) * img.stride() + field(r % s)) as u32;
        let rows = (0..images * s).map(row).collect(); // seal-lint: allow(hot-path-alloc) — compile-time table
        Ok(ImplicitConv {
            s,
            images,
            stride: img.stride(),
            extent,
            rows,
            runs,
        })
    }

    /// Quads per GEMM row: `k ·` `ceil(k·c_in / 4)`.
    pub fn quads(&self) -> usize {
        self.runs.count * self.runs.quads
    }
}

/// The int8 convolution of `images` stacked padded u8 NHWC images,
/// read in place: `out[(j·s + p) × c_out]` receives the exact signed sums
/// of output pixel `p` of image `j` — the accumulator a patch gather
/// followed by [`gemm_i8`] produces — in every mode and at any thread
/// count. `img` starts at image 0 and `pack` comes from
/// [`PackedBI8::pack_conv_runs`] for the same convolution.
///
/// # Panics
///
/// If `images` exceeds what `conv` was compiled for, `pack` does not
/// match its quads, `img` holds fewer than `images ·`
/// [`NhwcImage::stride`] `+ PATCH_SLACK` bytes, or `out` fewer than
/// `images · s · c_out` sums — once, before anything is read or written.
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
    };
    gemm_i8_rows(&img[..extent], &rows, pack, out, m, mode);
}

/// The fused write-back of an int8 step whose consumer is another int8
/// step: dequantize the exact-i32 accumulator, add bias, apply ReLU,
/// max-pool if a pool follows, take the per-image dynamic scale over the
/// *pooled* values and quantize them straight into the consumer's padded
/// u8 NHWC image.
///
/// The patch-major GEMM output `[oh·ow × c_out]` already **is** an NHWC
/// image, so there is no transpose. Every f32 value is the expression of
/// [`dequantize_transpose_bias_relu`] (`acc as f32 · (a_scale ·
/// w_scale[c]) + bias[c]`, then `max(0, ·)`), the pool is the window scan
/// of `max_pool2d_into` (`v > best` from `−inf`, so NaN never wins), and
/// scale and bytes come from the shared `max_abs` / `quantize_value` —
/// so the image written here is byte for byte what dequantizing to f32
/// NCHW, pooling there and calling [`quantize_slice_u8`] produces
/// (max-pool only selects existing values, and the sign of a zero cannot
/// reach a byte).
#[derive(Clone, Debug)]
pub struct Requantize {
    oh: usize,
    relu: bool,
    pool: Option<PoolGeometry>,
    dst: NhwcImage,
    /// Per-channel weight scales / biases tiled across one GEMM output
    /// row (`ow·c_out`), so the dequantize loop is flat and elementwise
    /// however narrow `c_out` is.
    w_scales_row: Vec<f32>,
    bias_row: Vec<f32>,
}

impl Requantize {
    /// Write-back of a GEMM output image of `oh × ow` positions by
    /// `w_scales.len()` channels into `dst`, through `pool` if given.
    /// Plan-compile-time: allocates the tiled constant rows.
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
        let tile = |v: &[f32]| v.iter().copied().cycle().take(ow * c_out).collect(); // seal-lint: allow(hot-path-alloc) — plan-compile-time constants
        Ok(Requantize {
            oh,
            relu,
            pool,
            dst,
            w_scales_row: tile(w_scales),
            bias_row: tile(bias),
        })
    }

    /// The image this write-back produces.
    pub fn dst(&self) -> &NhwcImage {
        &self.dst
    }

    /// f32 staging floats [`run`](Self::run) needs: the (pooled) output
    /// image, plus one GEMM output row of column maxima when pooling.
    pub fn stage_len(&self) -> usize {
        let row = if self.pool.is_some() {
            self.w_scales_row.len()
        } else {
            0
        };
        self.dst.h * self.dst.w * self.dst.c + row
    }

    /// Requantize one image's accumulator `acc[oh·ow × c_out]`, quantized
    /// against activation scale `a_scale`, into `out` (one
    /// [`NhwcImage::stride`] of [`dst`](Self::dst)); returns the new
    /// image's scale. Bit-identical for every `mode`.
    // seal-lint: allow(panic-freedom) — the three extents are asserted at entry; row and pixel offsets derive from the geometry `compile` validated
    pub fn run(
        &self,
        acc: &[i32],
        a_scale: f32,
        stage: &mut [f32],
        out: &mut [u8],
        mode: KernelMode,
    ) -> f32 {
        let row = self.w_scales_row.len();
        assert!(
            acc.len() >= self.oh * row,
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
        vectorized(
            mode,
            #[inline(always)]
            || self.run_body(acc, a_scale, stage, out),
        )
    }

    /// One GEMM output row → f32 (`dequantize_transpose_bias_relu`'s
    /// per-element expression), stored to `out` — or, with `keep_max`,
    /// only where it beats what `out` holds (`max_pool2d_into`'s scan).
    #[inline(always)]
    // seal-lint: allow(panic-freedom) — all four slices are cut to `out.len()` up front
    fn dequantize_row(&self, acc: &[i32], a_scale: f32, out: &mut [f32], keep_max: bool) {
        let n = out.len();
        let (acc, ws, bias) = (&acc[..n], &self.w_scales_row[..n], &self.bias_row[..n]);
        let relu = self.relu;
        for i in 0..n {
            let v = acc[i] as f32 * (a_scale * ws[i]) + bias[i];
            let v = if relu { v.max(0.0) } else { v };
            if !keep_max || v > out[i] {
                out[i] = v;
            }
        }
    }

    #[inline(always)]
    // seal-lint: allow(panic-freedom) — see `run`
    fn run_body(&self, acc: &[i32], a_scale: f32, stage: &mut [f32], out: &mut [u8]) -> f32 {
        let (c, row) = (self.dst.c, self.w_scales_row.len());
        let (ph, pw) = (self.dst.h, self.dst.w);
        let (vals, col_max) = stage[..self.stage_len()].split_at_mut(ph * pw * c);
        match self.pool {
            None => {
                for (o, a) in vals.chunks_exact_mut(row).zip(acc.chunks_exact(row)) {
                    self.dequantize_row(a, a_scale, o, false);
                }
            }
            Some(g) => {
                for (py, o) in vals.chunks_exact_mut(pw * c).enumerate() {
                    // Vertical scan into `col_max`, then horizontal.
                    col_max.fill(f32::NEG_INFINITY);
                    for ky in 0..g.window {
                        let a = &acc[(py * g.stride + ky) * row..][..row];
                        self.dequantize_row(a, a_scale, col_max, true);
                    }
                    for (px, o) in o.chunks_exact_mut(c).enumerate() {
                        o.copy_from_slice(&col_max[px * g.stride * c..][..c]);
                        for kx in 1..g.window {
                            let m = &col_max[(px * g.stride + kx) * c..][..c];
                            for (o, &v) in o.iter_mut().zip(m) {
                                if v > *o {
                                    *o = v;
                                }
                            }
                        }
                    }
                }
            }
        }
        let scale = channel_scale(max_abs(vals));
        let inv = 1.0 / scale;
        out[..self.dst.stride()].fill(128);
        // A flat destination takes the single pixel as its whole row.
        for (y, v) in vals.chunks_exact(pw * c).enumerate() {
            quantize_into(v, inv, &mut out[self.dst.interior_row(y)..][..pw * c]);
        }
        scale
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
    let mut qa = vec![128u8; m * ka]; // seal-lint: allow(hot-path-alloc) — convenience wrapper, plans use arena buffers
    let mut a_scales = vec![0.0f32; m]; // seal-lint: allow(hot-path-alloc) — convenience wrapper
    quantize_rows_u8(lhs.as_slice(), m, k, &mut qa, &mut a_scales);
    let mut acc = vec![0i32; m * n]; // seal-lint: allow(hot-path-alloc) — convenience wrapper
    gemm_i8(&qa, &pack, &mut acc, m, super::matmul::kernel_mode());
    let mut out = vec![0.0f32; m * n]; // seal-lint: allow(hot-path-alloc) — convenience wrapper
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
    let mut qa = vec![128u8; m * ka]; // seal-lint: allow(hot-path-alloc) — reference path
    let mut a_scales = vec![0.0f32; m]; // seal-lint: allow(hot-path-alloc) — reference path
    quantize_rows_u8(lhs.as_slice(), m, k, &mut qa, &mut a_scales);
    let mut out = vec![0.0f32; m * n]; // seal-lint: allow(hot-path-alloc) — reference path
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
                assert!(same, "{} != reference (bitwise) for {m}x{k}x{n}", mode.name());
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
        assert!(out.iter().all(|&v| v >= 1), "offset-binary 0 would mean q = -128");
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
            (0..k).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect(),
            Shape::matrix(k, 1),
        )
        .unwrap();
        let out = matmul_i8(&a, &b).unwrap();
        assert!((out.as_slice()[0] - 1.0).abs() < 1e-3);
        let reference = matmul_i8_reference(&a, &b).unwrap();
        assert_eq!(out.as_slice()[0].to_bits(), reference.as_slice()[0].to_bits());
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
