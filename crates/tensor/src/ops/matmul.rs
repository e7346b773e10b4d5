//! Matrix product: packed, cache-blocked GEMM with deterministic
//! row-block parallelism, plus the naive triple-loop references.
//!
//! The blocked kernel tiles the problem BLIS-style — `MC`-row blocks ×
//! `KC`-deep k-panels × `NR`-wide packed B strips, with a register tile
//! of up to `MR_MAX` rows × `NR` columns — and parallelises over
//! `MC`-row output blocks on the `seal-pool` work-sharing runtime. B is
//! packed exactly once per GEMM call into per-thread scratch (grown,
//! never cleared) and every parallel row-block task consumes that one
//! shared pack.
//!
//! One tail rule: B is packed into `ceil(n / NR)` strips, the last one
//! zero-padded to full width, and every strip — padded or not — goes
//! through the same register tile; only the valid columns of the last
//! strip are loaded from and stored to the output. Pad lanes are computed
//! and thrown away, so no column ever takes a scalar path — and a last
//! tile with fewer rows is the same body instantiated for that row count,
//! so no row does either.
//!
//! Determinism contract: every output element accumulates its `k`
//! products in strictly ascending `k` order within exactly one task (the
//! accumulator is re-loaded from the output buffer at each k-panel
//! boundary, which is exact for `f32`), so the result is bitwise
//! identical for any thread count. The micro-kernel implementation is
//! selected per calling thread by [`KernelMode`] (`SEAL_KERNEL`
//! environment variable; unset resolves to the widest of `avx512` →
//! `avx2` → `scalar` the host offers): those three evaluate the same
//! multiply-then-add expression tree and are bitwise identical to
//! [`matmul_naive`]; `fma` — selected only on request — contracts each
//! step into a fused multiply-add and is bitwise identical to its own
//! reference, [`matmul_naive_fma`], again for any thread count. Feature
//! availability comes from the shared cached-CPUID module [`crate::cpu`].

use crate::{Shape, Tensor, TensorError};
use std::cell::{Cell, RefCell};

/// Rows per parallel task (and per cache block of A).
pub(crate) const MC: usize = 32;
/// Depth of one packed k-panel of B.
pub(crate) const KC: usize = 128;
/// Most rows one register tile holds (see [`tile_rows`]).
const MR_MAX: usize = 8;
/// Micro-kernel columns — the width of one packed B strip, and of one
/// 512-bit register of `f32`. One layout for every [`KernelMode`].
pub(crate) const NR: usize = 16;
/// Lanes of one 256-bit register: the narrower kernels walk a strip as
/// two halves of this width.
const HALF: usize = NR / 2;
/// Below this many FLOPs (`2·m·k·n`) the parallel split is not worth the
/// pool round-trip and the kernel runs on the calling thread.
pub(crate) const PAR_FLOP_THRESHOLD: usize = 1_000_000;

/// Which micro-kernel implementation a GEMM uses.
///
/// Selected once per calling thread from the `SEAL_KERNEL` environment
/// variable (`scalar` | `avx2` | `avx512` | `fma`). Unset (or an unknown
/// value) resolves to the widest *bit-identical* mode the host offers —
/// `avx512`, else `avx2`, else `scalar` — and an explicit request the
/// CPU cannot run degrades along the same chain. `Scalar`, `Avx2` and
/// `Avx512` evaluate identical multiply-then-add expression trees, so
/// switching between them never changes output bits. `Fma` fuses each
/// multiply-add step (one rounding instead of two), therefore has its
/// own bitwise reference, [`matmul_naive_fma`], and is never chosen
/// unless asked for by name. Within any one mode the result is bitwise
/// identical for any thread count.
/// Availability is answered by the shared cached-CPUID module,
/// [`crate::cpu::cpu_features`], so no kernel family can disagree with
/// another about the host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelMode {
    /// Portable multiply-then-add kernel, no ISA assumptions.
    Scalar,
    /// The scalar expression tree compiled with 256-bit vectors enabled
    /// (bitwise identical to `Scalar`).
    Avx2,
    /// The widest kernels of an AVX-512 host: the `f32` register tile
    /// is one 512-bit accumulator per row — a packed strip is exactly
    /// sixteen lanes — stepped with a separate 512-bit multiply and add,
    /// so it stays bitwise identical to `Scalar`; the int8 path selects
    /// the VNNI `vpdpbusd` quantized GEMM kernel when the CPU has it
    /// (`ops::quant`).
    Avx512,
    /// Fused multiply-add kernel (`f32::mul_add` / `vfmadd`): faster and
    /// more accurate, but rounds differently from `Scalar`/`Avx2`.
    Fma,
}

impl KernelMode {
    /// True when the current CPU can run this kernel (per the cached
    /// [`crate::cpu::cpu_features`] probe).
    pub fn is_available(self) -> bool {
        let f = crate::cpu::cpu_features();
        match self {
            KernelMode::Scalar => true,
            KernelMode::Avx2 => f.avx2,
            KernelMode::Avx512 => f.avx2 && f.avx512(),
            KernelMode::Fma => f.avx2 && f.fma,
        }
    }

    /// The `SEAL_KERNEL` spelling of this mode.
    pub fn name(self) -> &'static str {
        match self {
            KernelMode::Scalar => "scalar",
            KernelMode::Avx2 => "avx2",
            KernelMode::Avx512 => "avx512",
            KernelMode::Fma => "fma",
        }
    }

    /// Degrade an (possibly unavailable) request to the nearest kernel
    /// the CPU actually offers, staying within the request's rounding
    /// class: `avx512 → avx2 → scalar` (multiply-then-add tree, so the
    /// degraded kernel is still bitwise identical to the requested one)
    /// and `fma → avx2 → scalar`. The public kernel entry points that take
    /// a caller's mode pass it through here, so a hand-built `Avx512` can
    /// never reach an instruction the host lacks.
    pub(crate) fn degrade(self) -> KernelMode {
        match self {
            m if m.is_available() => m,
            KernelMode::Fma | KernelMode::Avx512 if KernelMode::Avx2.is_available() => {
                KernelMode::Avx2
            }
            _ => KernelMode::Scalar,
        }
    }

    /// The mode a `SEAL_KERNEL` value (or its absence) selects on this
    /// host.
    fn resolve(request: Option<&str>) -> KernelMode {
        let requested = match request {
            Some("scalar") => KernelMode::Scalar,
            Some("avx2") => KernelMode::Avx2,
            Some("fma") => KernelMode::Fma,
            // `avx512`, unset, or an unknown value: the widest mode of
            // the multiply-then-add rounding class the host offers.
            _ => KernelMode::Avx512,
        };
        requested.degrade()
    }
}

thread_local! {
    /// Per-thread packed-B scratch, reused across calls (grown, never
    /// shrunk or cleared) so steady-state GEMMs allocate nothing.
    // seal-lint: allow(hot-path-alloc) — empty at birth, grow-only after
    static PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread kernel-mode override / lazily-resolved env default.
    static MODE: Cell<Option<KernelMode>> = const { Cell::new(None) };
}

/// The kernel mode the calling thread would use, resolving `SEAL_KERNEL`
/// on first use. Kernel entry points ([`matmul`], `conv2d`, the plan
/// executors) resolve this once on the caller and thread it through to
/// every pool task, so a per-thread override governs the whole call.
pub fn kernel_mode() -> KernelMode {
    MODE.with(|m| match m.get() {
        Some(mode) => mode,
        None => {
            let mode = KernelMode::resolve(std::env::var("SEAL_KERNEL").ok().as_deref());
            m.set(Some(mode));
            mode
        }
    })
}

/// Override the calling thread's kernel mode (tests / benches). An
/// unavailable request degrades (`fma → avx2 → scalar`); the mode
/// actually installed is returned.
pub fn set_kernel_mode(mode: KernelMode) -> KernelMode {
    let mode = mode.degrade();
    MODE.with(|m| m.set(Some(mode)));
    mode
}

/// Drop any thread-local override; the next GEMM re-reads `SEAL_KERNEL`.
pub fn reset_kernel_mode() {
    MODE.with(|m| m.set(None));
}

fn shape_checks(lhs: &Tensor, rhs: &Tensor) -> Result<(usize, usize, usize), TensorError> {
    for t in [lhs, rhs] {
        if t.shape().rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: t.shape().rank(),
                op: "matmul",
            });
        }
    }
    let (m, k) = (lhs.shape().dim(0), lhs.shape().dim(1));
    let (k2, n) = (rhs.shape().dim(0), rhs.shape().dim(1));
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            lhs: lhs.shape().clone(),
            rhs: rhs.shape().clone(),
            op: "matmul",
        });
    }
    Ok((m, k, n))
}

/// Matrix product `lhs · rhs` of two rank-2 tensors.
///
/// This is the paper's motivating workload: "matrix multiplication
/// computation that is the most common operation in DL algorithms"
/// (Sec. II-B, Fig. 1). The kernel is cache-blocked and runs on the
/// `seal-pool` runtime with bitwise-deterministic output for any
/// `SEAL_THREADS` (see the module docs for the contract).
///
/// # Errors
///
/// * [`TensorError::RankMismatch`] if either operand is not rank 2.
/// * [`TensorError::ShapeMismatch`] if the inner dimensions disagree.
///
/// ```
/// use seal_tensor::{ops::matmul, Shape, Tensor};
///
/// # fn main() -> Result<(), seal_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], Shape::matrix(2, 2))?;
/// let b = Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], Shape::matrix(2, 2))?;
/// assert_eq!(matmul(&a, &b)?.as_slice(), &[2.0, 1.0, 4.0, 3.0]);
/// # Ok(())
/// # }
/// ```
pub fn matmul(lhs: &Tensor, rhs: &Tensor) -> Result<Tensor, TensorError> {
    let (m, k, n) = shape_checks(lhs, rhs)?;
    let a = lhs.as_slice();
    let b = rhs.as_slice();
    let mut out = vec![0.0f32; m * n]; // seal-lint: allow(hot-path-alloc)
    gemm(a, b, &mut out, m, k, n, kernel_mode());
    Tensor::from_vec(out, Shape::matrix(m, n))
}

/// Naive textbook triple loop (i-j-k dot products; no blocking, no
/// packing, no parallelism, no fast paths). The blocked kernel in
/// `scalar`/`avx2` mode is tested to match it within 0 ULP — every
/// output element sums its products in ascending `k` order in both
/// kernels — and benchmarks use it as the cache-blocking speedup
/// baseline.
///
/// No `a == 0.0` skip either: `0.0 × NaN` and `0.0 × ±inf` must
/// contribute their NaN to the sum exactly as IEEE-754 dictates.
///
/// # Errors
///
/// Same shape errors as [`matmul`].
pub fn matmul_naive(lhs: &Tensor, rhs: &Tensor) -> Result<Tensor, TensorError> {
    let (m, k, n) = shape_checks(lhs, rhs)?;
    let a = lhs.as_slice();
    let b = rhs.as_slice();
    let mut out = vec![0.0f32; m * n]; // seal-lint: allow(hot-path-alloc)
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let mut acc = 0.0f32;
            for (kk, &av) in arow.iter().enumerate() {
                acc += av * b[kk * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(out, Shape::matrix(m, n))
}

/// The fused-multiply-add analogue of [`matmul_naive`]: the same
/// ascending-`k` triple loop with every step contracted through
/// `f32::mul_add` (one rounding per step). This is the 0-ULP reference
/// for the blocked kernel in [`KernelMode::Fma`].
///
/// # Errors
///
/// Same shape errors as [`matmul`].
pub fn matmul_naive_fma(lhs: &Tensor, rhs: &Tensor) -> Result<Tensor, TensorError> {
    let (m, k, n) = shape_checks(lhs, rhs)?;
    let a = lhs.as_slice();
    let b = rhs.as_slice();
    let mut out = vec![0.0f32; m * n]; // seal-lint: allow(hot-path-alloc)
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let mut acc = 0.0f32;
            for (kk, &av) in arow.iter().enumerate() {
                acc = av.mul_add(b[kk * n + j], acc);
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(out, Shape::matrix(m, n))
}

/// `out[m×n] += a[m×k] · b[k×n]` with deterministic row-block
/// parallelism. `out` may be pre-initialised (e.g. with a bias); each
/// element's products are added in ascending `k` order on top of it.
///
/// Packs all of B once into per-thread scratch, then consumes the shared
/// pack from every row-block task.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    mode: KernelMode,
) {
    if m == 0 || n == 0 {
        return;
    }
    PACK.with(|pack| {
        let mut pack = pack.borrow_mut();
        pack_b_full(b, &mut pack, k, n);
        gemm_shared_pack(a, &pack, out, m, k, n, mode, false);
    });
}

/// Row-block parallel driver over an already-packed B: one task per
/// `MC`-row block (boundaries depend only on `m`, never on the thread
/// count), every task consuming the same shared pack. When
/// `epilogue_relu` is set, each task clamps its freshly-written block to
/// `max(0, ·)` before returning (the plan's fused-ReLU write-back).
#[allow(clippy::too_many_arguments)]
// seal-lint: allow(panic-freedom) — tile offsets are bounded by the blocking scheme; dims are asserted once at the gemm entry
pub(crate) fn gemm_shared_pack(
    a: &[f32],
    pack: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    mode: KernelMode,
    epilogue_relu: bool,
) {
    if m == 0 || n == 0 {
        return;
    }
    let flops = 2usize.saturating_mul(m).saturating_mul(k).saturating_mul(n);
    if flops < PAR_FLOP_THRESHOLD || m <= MC {
        gemm_consume(a, pack, out, m, k, n, mode);
        if epilogue_relu {
            for v in out.iter_mut() {
                *v = v.max(0.0);
            }
        }
        return;
    }
    seal_pool::par_chunks_mut(out, MC * n, |blk, out_block| {
        let row0 = blk * MC;
        let rows = out_block.len() / n;
        gemm_consume(
            &a[row0 * k..(row0 + rows) * k],
            pack,
            out_block,
            rows,
            k,
            n,
            mode,
        );
        if epilogue_relu {
            for v in out_block.iter_mut() {
                *v = v.max(0.0);
            }
        }
    });
}

/// Rows of one register tile for a block of `rows` output rows: the
/// block is cut into `ceil(rows / MR_MAX)` tiles of equal height, so the
/// row counts the served models produce — `c_out` 6, 12, 24, 48, a
/// batch-8 linear, an `MC`-row parallel block — leave no shorter last
/// tile. A function of the shape only; and since every output element is
/// produced by exactly one tile in ascending `k` order whatever the
/// tile's height, the rule cannot change a bit of the result.
fn tile_rows(rows: usize) -> usize {
    rows.div_ceil(rows.div_ceil(MR_MAX).max(1))
}

/// Serial cache-blocked consume over a row range: walks the k-panels of
/// an already-packed B (strip-major panels laid out back to back, panel
/// `p` at offset `p·KC·strips·NR` with `strips = ceil(n / NR)`), feeding
/// each strip — the zero-padded last one included — to the register tile
/// together with its count of valid columns. Rows go [`tile_rows`] at a
/// time; a shorter last tile is the same body instantiated for fewer
/// rows. Accumulation order per output element is ascending `k`, carried
/// through `out` across k-panels.
#[allow(clippy::too_many_arguments)]
// seal-lint: allow(panic-freedom) — tile offsets are bounded by the blocking scheme; dims are asserted once at the gemm entry
pub(crate) fn gemm_consume(
    a: &[f32],
    pack: &[f32],
    out: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
    mode: KernelMode,
) {
    let strips = n.div_ceil(NR);
    let mr = tile_rows(rows);
    let mut k0 = 0;
    while k0 < k {
        let kc = KC.min(k - k0);
        let base = k0 * strips * NR;
        let mut i0 = 0;
        while i0 < rows {
            let tile = tile_fn(mode, mr.min(rows - i0));
            for s in 0..strips {
                let bp = &pack[base + s * kc * NR..base + (s + 1) * kc * NR];
                let nc = NR.min(n - s * NR);
                // SAFETY: `tile_fn` hands out the `target_feature` body of
                // `mode`, and every `mode` that gets here went through
                // `KernelMode::degrade` — in `kernel_mode` /
                // `set_kernel_mode`, or at the public entry point that
                // took it from its caller — so the cached CPU probe
                // reported its features.
                unsafe { tile(&a[i0 * k + k0..], k, bp, &mut out[i0 * n + s * NR..], n, nc) };
            }
            i0 += mr;
        }
        k0 += KC;
    }
}

/// Packs all `k` rows of B into back-to-back k-panels of
/// `strips = ceil(n / NR)` NR-wide strip-major panels: panel `p` (rows
/// `p·KC ..`) lives at offset `p·KC·strips·NR`, and within it
/// `pack[s][kk][c] = b[(p·KC+kk)·n + s·NR+c]`, with `0.0` in the pad
/// lanes (`s·NR+c ≥ n`) of the last strip. The destination is grown once
/// and never cleared — every live element, pad lanes included, is
/// overwritten — so steady-state packing performs no allocation and no
/// redundant zeroing.
// seal-lint: allow(panic-freedom) — pack offsets enumerate `k x n` exactly once; the destination is sized for the padded panel
pub(crate) fn pack_b_full(b: &[f32], pack: &mut Vec<f32>, k: usize, n: usize) {
    let strips = n.div_ceil(NR);
    let need = strips * k * NR;
    if pack.len() < need {
        pack.resize(need, 0.0);
    }
    let mut k0 = 0;
    while k0 < k {
        let kc = KC.min(k - k0);
        let base = k0 * strips * NR;
        for s in 0..strips {
            let nc = NR.min(n - s * NR);
            let dst = &mut pack[base + s * kc * NR..base + (s + 1) * kc * NR];
            for (kk, drow) in dst.chunks_exact_mut(NR).enumerate() {
                let src = &b[(k0 + kk) * n + s * NR..(k0 + kk) * n + s * NR + nc];
                if nc == NR {
                    drow.copy_from_slice(src); // fixed-width copy
                } else {
                    drow[..nc].copy_from_slice(src);
                    drow[nc..].fill(0.0);
                }
            }
        }
        k0 += KC;
    }
}

/// One accumulation step: multiply-then-add (two roundings), or the
/// contracted `mul_add` (one rounding) of [`KernelMode::Fma`].
#[inline(always)]
fn step<const FMA: bool>(acc: f32, a: f32, b: f32) -> f32 {
    if FMA {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// A register tile: `c[r·ldc ..][..nc] += a[r·lda ..][..kc] · bp` for its
/// `ROWS` rows, `bp` one packed strip (`kc × NR`) and `nc ≤ NR` the
/// strip's valid columns. `a` starts at the tile's first row and k-panel
/// column, `c` at its first row and the strip's first column.
///
/// # Safety
///
/// The CPU must support the `target_feature`s of the body behind the
/// pointer (see [`tile_fn`]).
type TileFn = unsafe fn(a: &[f32], lda: usize, bp: &[f32], c: &mut [f32], ldc: usize, nc: usize);

/// The register tile of `mode` for `rows ∈ 1..=MR_MAX` rows. `Scalar`,
/// `Avx2` and `Avx512` evaluate the same multiply-then-add expression
/// tree — the first two as [`tile_halves`] built for their vector width,
/// `Avx512` as [`tile_avx512`]'s explicit 512-bit multiply and add —
/// `Fma` contracts each step with `mul_add`.
// seal-lint: allow(panic-freedom) — `rows` is `min(tile_rows(·), ·) ∈ 1..=MR_MAX` at the one call site
fn tile_fn(mode: KernelMode, rows: usize) -> TileFn {
    macro_rules! by_rows {
        ($tile:ident) => {{
            const TILES: [TileFn; MR_MAX] = [
                $tile::<1>,
                $tile::<2>,
                $tile::<3>,
                $tile::<4>,
                $tile::<5>,
                $tile::<6>,
                $tile::<7>,
                $tile::<8>,
            ];
            TILES[rows - 1]
        }};
    }
    #[cfg(target_arch = "x86_64")]
    match mode {
        KernelMode::Scalar => by_rows!(tile_scalar),
        KernelMode::Avx2 => by_rows!(tile_avx2),
        KernelMode::Avx512 => by_rows!(tile_avx512),
        KernelMode::Fma => by_rows!(tile_fma),
    }
    #[cfg(not(target_arch = "x86_64"))]
    match mode {
        KernelMode::Fma => by_rows!(tile_scalar_fma),
        _ => by_rows!(tile_scalar),
    }
}

fn tile_scalar<const ROWS: usize>(
    a: &[f32],
    lda: usize,
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    nc: usize,
) {
    tile_halves::<false, ROWS>(a, lda, bp, c, ldc, nc);
}

#[cfg(not(target_arch = "x86_64"))]
fn tile_scalar_fma<const ROWS: usize>(
    a: &[f32],
    lda: usize,
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    nc: usize,
) {
    tile_halves::<true, ROWS>(a, lda, bp, c, ldc, nc);
}

/// The multiply-then-add tile compiled with 256-bit vectors enabled. The
/// body is identical — no FMA contraction is enabled, so `mul` + `add`
/// round exactly like the baseline build and results stay bitwise equal.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tile_avx2<const ROWS: usize>(
    a: &[f32],
    lda: usize,
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    nc: usize,
) {
    tile_halves::<false, ROWS>(a, lda, bp, c, ldc, nc);
}

/// The contracted tile compiled with 256-bit vectors and FMA enabled, so
/// each `mul_add` lowers to one `vfmadd` instruction.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn tile_fma<const ROWS: usize>(
    a: &[f32],
    lda: usize,
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    nc: usize,
) {
    tile_halves::<true, ROWS>(a, lda, bp, c, ldc, nc);
}

/// The portable `ROWS × NR` tile, walked as two `HALF`-lane halves of the
/// strip so its accumulators fit sixteen 256-bit registers: each half
/// loads its valid columns of `c` (pad lanes start at `0.0` and are never
/// stored), streams the `kc` packed B rows against `ROWS` rows of A, and
/// stores the valid columns back. A half with no valid column is skipped.
#[inline(always)]
// seal-lint: allow(panic-freedom) — register-tile offsets are bounded by `ROWS`/`NR` and the extents `gemm_consume` sliced
fn tile_halves<const FMA: bool, const ROWS: usize>(
    a: &[f32],
    lda: usize,
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    nc: usize,
) {
    let kc = bp.len() / NR;
    let a_rows: [&[f32]; ROWS] = std::array::from_fn(|r| &a[r * lda..r * lda + kc]);
    for h0 in (0..nc).step_by(HALF) {
        let lanes = HALF.min(nc - h0);
        let mut acc = [[0.0f32; HALF]; ROWS];
        for (r, acc_r) in acc.iter_mut().enumerate() {
            acc_r[..lanes].copy_from_slice(&c[r * ldc + h0..][..lanes]);
        }
        for (kk, bv) in bp.chunks_exact(NR).enumerate() {
            let bv = &bv[h0..h0 + HALF];
            for (acc_r, a_row) in acc.iter_mut().zip(&a_rows) {
                let av = a_row[kk];
                for (o, &bvv) in acc_r.iter_mut().zip(bv) {
                    *o = step::<FMA>(*o, av, bvv);
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            c[r * ldc + h0..][..lanes].copy_from_slice(&acc_r[..lanes]);
        }
    }
}

/// The `ROWS × 16` tile of an AVX-512 host: one 512-bit accumulator per
/// row, one packed B row per `k` step multiplied by each row's broadcast
/// A value and then added — `_mm512_mul_ps` and `_mm512_add_ps`, never a
/// fused multiply-add, so every lane rounds twice per step exactly like
/// the scalar tree. The valid columns of a partial strip are loaded and
/// stored under a lane mask; pad lanes start at `0.0` and never reach
/// memory.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
// seal-lint: allow(panic-freedom) — the asserts are the extents the raw accesses below rely on
unsafe fn tile_avx512<const ROWS: usize>(
    a: &[f32],
    lda: usize,
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    nc: usize,
) {
    use std::arch::x86_64::{
        __mmask16, _mm512_add_ps, _mm512_loadu_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps,
        _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
    };
    let kc = bp.len() / NR;
    assert!((1..=NR).contains(&nc), "tile: valid columns out of range");
    assert!(a.len() >= (ROWS - 1) * lda + kc, "tile: A rows too short");
    assert!(c.len() >= (ROWS - 1) * ldc + nc, "tile: C rows too short");
    // One mask bit per valid column of this strip.
    let valid = (u16::MAX >> (NR - nc)) as __mmask16;
    let (ap, bp, cp) = (a.as_ptr(), bp.as_ptr(), c.as_mut_ptr());
    let mut acc = [_mm512_setzero_ps(); ROWS];
    // SAFETY: row `r` of C is `c[r·ldc ..][..nc]`, inside `c` by the
    // assert above, and the masked load and store touch only lanes
    // `0..nc` of it (masked-off lanes are neither accessed nor
    // fault-checked). `bp` holds `kc` whole `NR`-float rows (`kc =
    // len / NR`), so the full-width load at `kk·NR` is in bounds for
    // `kk < kc`. Row `r` of A is `a[r·lda ..][..kc]`, inside `a` by the
    // assert above.
    unsafe {
        for (r, acc_r) in acc.iter_mut().enumerate() {
            *acc_r = _mm512_maskz_loadu_ps(valid, cp.add(r * ldc));
        }
        for kk in 0..kc {
            let b = _mm512_loadu_ps(bp.add(kk * NR));
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*ap.add(r * lda + kk));
                *acc_r = _mm512_add_ps(*acc_r, _mm512_mul_ps(av, b));
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            _mm512_mask_storeu_ps(cp.add(r * ldc), valid, *acc_r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], Shape::matrix(2, 3)).unwrap();
        let id = Tensor::eye(3);
        assert_eq!(matmul(&a, &id).unwrap(), a);
    }

    #[test]
    fn rectangular_product() {
        // [1 2 3] · [[1],[2],[3]] = [14]
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], Shape::matrix(1, 3)).unwrap();
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], Shape::matrix(3, 1)).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape().dims(), &[1, 1]);
        assert_eq!(c.as_slice(), &[14.0]);
    }

    #[test]
    fn inner_dim_mismatch_is_error() {
        let a = Tensor::zeros(Shape::matrix(2, 3));
        let b = Tensor::zeros(Shape::matrix(4, 5));
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn rank_mismatch_is_error() {
        let a = Tensor::zeros(Shape::vector(3));
        let b = Tensor::zeros(Shape::matrix(3, 3));
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn matches_naive_reference() {
        use crate::rng::rngs::StdRng;
        use crate::rng::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        let a = crate::uniform(&mut rng, Shape::matrix(7, 5), -1.0, 1.0);
        let b = crate::uniform(&mut rng, Shape::matrix(5, 9), -1.0, 1.0);
        let fast = matmul(&a, &b).unwrap();
        for i in 0..7 {
            for j in 0..9 {
                let mut acc = 0.0f32;
                for k in 0..5 {
                    acc += a.at2(i, k) * b.at2(k, j);
                }
                assert!((fast.at2(i, j) - acc).abs() < 1e-4);
            }
        }
    }

    /// Awkward shapes exercising every edge path (short last tiles,
    /// column tails either side of a strip, multiple k-panels).
    const SHAPES: [(usize, usize, usize); 8] = [
        (1, 1, 1),
        (3, 5, 7),
        (4, 8, 8),
        (9, 20, 16),
        (7, 130, 31),
        (33, 129, 17),
        (37, 200, 41),
        (64, 300, 72),
    ];

    /// The determinism contract: blocked output is bitwise identical to
    /// the naive triple loop (0 ULP) across awkward shapes, in both
    /// non-fused kernel modes.
    #[test]
    fn blocked_matches_naive_bitwise() {
        use crate::rng::rngs::StdRng;
        use crate::rng::SeedableRng;
        let mut rng = StdRng::seed_from_u64(42);
        for &(m, k, n) in &SHAPES {
            let a = crate::uniform(&mut rng, Shape::matrix(m, k), -2.0, 2.0);
            let b = crate::uniform(&mut rng, Shape::matrix(k, n), -2.0, 2.0);
            let naive = matmul_naive(&a, &b).unwrap();
            for mode in [KernelMode::Scalar, KernelMode::Avx2, KernelMode::Avx512] {
                if set_kernel_mode(mode) != mode {
                    continue; // CPU can't run this mode
                }
                let fast = matmul(&a, &b).unwrap();
                let same = fast
                    .as_slice()
                    .iter()
                    .zip(naive.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "{} != naive (bitwise) for {m}x{k}x{n}", mode.name());
            }
            reset_kernel_mode();
        }
    }

    /// The FMA kernel has its own reference: bitwise identical to the
    /// `mul_add` triple loop across the same awkward shapes.
    #[test]
    fn fma_matches_fused_naive_bitwise() {
        use crate::rng::rngs::StdRng;
        use crate::rng::SeedableRng;
        if set_kernel_mode(KernelMode::Fma) != KernelMode::Fma {
            reset_kernel_mode();
            return; // no FMA on this CPU
        }
        let mut rng = StdRng::seed_from_u64(43);
        for &(m, k, n) in &SHAPES {
            let a = crate::uniform(&mut rng, Shape::matrix(m, k), -2.0, 2.0);
            let b = crate::uniform(&mut rng, Shape::matrix(k, n), -2.0, 2.0);
            let fast = matmul(&a, &b).unwrap();
            let naive = matmul_naive_fma(&a, &b).unwrap();
            let same = fast
                .as_slice()
                .iter()
                .zip(naive.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "fma != naive_fma (bitwise) for {m}x{k}x{n}");
        }
        reset_kernel_mode();
    }

    /// Regression for the removed `av == 0.0` fast path: `0 × NaN` and
    /// `0 × inf` must produce NaN, exactly as IEEE-754 (and the naive
    /// loop) dictate.
    #[test]
    fn zero_times_nonfinite_propagates_nan() {
        let a = Tensor::from_vec(vec![0.0, 0.0], Shape::matrix(1, 2)).unwrap();
        let b = Tensor::from_vec(vec![f32::NAN, f32::INFINITY], Shape::matrix(2, 1)).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert!(c.as_slice()[0].is_nan(), "0·NaN + 0·inf must be NaN");
        let naive = matmul_naive(&a, &b).unwrap();
        assert!(naive.as_slice()[0].is_nan());
    }

    /// Large-enough product to take the parallel path (shared pack,
    /// row-block tasks); must still match the naive reference bitwise.
    #[test]
    fn parallel_path_matches_naive_bitwise() {
        use crate::rng::rngs::StdRng;
        use crate::rng::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        let a = crate::uniform(&mut rng, Shape::matrix(97, 83), -1.0, 1.0);
        let b = crate::uniform(&mut rng, Shape::matrix(83, 65), -1.0, 1.0);
        let fast = matmul(&a, &b).unwrap();
        let naive = matmul_naive(&a, &b).unwrap();
        assert!(fast
            .as_slice()
            .iter()
            .zip(naive.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn tile_rows_cut_a_block_into_the_fewest_tiles_of_equal_height() {
        for rows in 1..=200usize {
            let mr = tile_rows(rows);
            assert!((1..=MR_MAX).contains(&mr), "{rows} -> {mr}");
            assert_eq!(rows.div_ceil(mr), rows.div_ceil(MR_MAX), "{rows} -> {mr}");
        }
        // The served row counts leave no shorter last tile.
        for rows in [6usize, 8, 12, 24, 32, 48] {
            assert_eq!(rows % tile_rows(rows), 0, "{rows}");
        }
    }

    #[test]
    fn env_dispatch_degrades_unavailable_requests() {
        // Whatever the CPU, `scalar` is always honoured and the degrade
        // chain never installs an unavailable kernel.
        assert_eq!(set_kernel_mode(KernelMode::Scalar), KernelMode::Scalar);
        let fma = set_kernel_mode(KernelMode::Fma);
        assert!(fma.is_available());
        let avx512 = set_kernel_mode(KernelMode::Avx512);
        assert!(avx512.is_available());
        // An unavailable avx512 request must stay in the multiply-then-add
        // rounding class (avx2 or scalar), never degrade into fma.
        assert_ne!(avx512, KernelMode::Fma);
        reset_kernel_mode();
    }

    #[test]
    fn unset_resolves_to_the_widest_bit_identical_mode_and_names_keep_their_meaning() {
        let widest = [KernelMode::Avx512, KernelMode::Avx2, KernelMode::Scalar]
            .into_iter()
            .find(|m| m.is_available())
            .unwrap();
        for unset in [None, Some(""), Some("no-such-kernel")] {
            assert_eq!(KernelMode::resolve(unset), widest, "{unset:?}");
        }
        // An explicit name selects exactly that kernel wherever the CPU
        // has it — in particular `fma` is reachable only by name.
        for mode in [
            KernelMode::Scalar,
            KernelMode::Avx2,
            KernelMode::Avx512,
            KernelMode::Fma,
        ] {
            if mode.is_available() {
                assert_eq!(KernelMode::resolve(Some(mode.name())), mode);
            }
        }
    }
}
