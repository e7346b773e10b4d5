//! Ahead-of-time B-operand packing for the blocked GEMM.
//!
//! [`PackedB`] captures a constant right-hand operand (a Linear layer's
//! transposed weight matrix, say) in exactly the strip-major k-panel
//! layout the micro-kernel consumes — `ceil(n / NR)` strips, the last
//! zero-padded to full width. [`matmul_prepacked`] then runs the same consume
//! core as [`matmul`](super::matmul) while skipping the per-call pack
//! step entirely — the payoff the compiled-inference-plan layer is built
//! on. Because both paths funnel through one consume routine, prepacked
//! results are bitwise identical to the on-the-fly-packed kernel for any
//! thread count and kernel mode.

use super::matmul::{gemm_shared_pack, kernel_mode, pack_b_full, KernelMode};
use super::quant::{channel_scale, quantize_value, run_quads, MAX_QGEMM_K, QK, QNR};
use super::ConvPlanDims;
use crate::{Shape, Tensor, TensorError};

/// A `k×n` right-hand GEMM operand packed once, ahead of time, into the
/// blocked kernel's panel layout.
#[derive(Clone, Debug)]
pub struct PackedB {
    k: usize,
    n: usize,
    /// Strip-major k-panels, panel `p` at offset `p·KC·strips·NR`,
    /// `strips = ceil(n / NR)` with the last strip zero-padded.
    panels: Vec<f32>,
}

impl PackedB {
    /// Pack a rank-2 tensor (the `rhs` of a future [`matmul_prepacked`]).
    ///
    /// # Errors
    ///
    /// [`TensorError::RankMismatch`] if `b` is not rank 2.
    pub fn pack(b: &Tensor) -> Result<PackedB, TensorError> {
        if b.shape().rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: b.shape().rank(),
                op: "pack_b",
            });
        }
        Ok(Self::from_slice(
            b.as_slice(),
            b.shape().dim(0),
            b.shape().dim(1),
        ))
    }

    /// Pack a row-major `k×n` slice. Panics if `b.len() != k*n`.
    // seal-lint: allow(panic-freedom) — the length assert is the documented `# Panics` contract
    pub fn from_slice(b: &[f32], k: usize, n: usize) -> PackedB {
        assert_eq!(b.len(), k * n, "PackedB::from_slice: length mismatch");
        // One-time compile/pack step, not the per-call execute path.
        let mut panels = Vec::new(); // seal-lint: allow(hot-path-alloc)
        pack_b_full(b, &mut panels, k, n);
        PackedB { k, n, panels }
    }

    /// Inner (contraction) dimension of the packed operand.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output-column dimension of the packed operand.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes held by the packed panels (pad lanes included).
    pub fn byte_size(&self) -> usize {
        self.panels.len() * std::mem::size_of::<f32>()
    }
}

/// A `k×n` right-hand GEMM operand quantized symmetrically **per output
/// channel** (one f32 scale per column) and packed ahead of time into the
/// int8 kernel's quad-interleaved strip layout: strip `s` covers columns
/// `s·QNR ..`, and within it group `q` stores, for each of the `QNR`
/// columns, the 4 consecutive k-values `4q .. 4q+4` — the operand shape
/// one AVX-512 VNNI `vpdpbusd` (or one sign-extended AVX2 `vpmaddwd`
/// pair) consumes. Both `k` (to a multiple of 4) and `n` (to a multiple
/// of `QNR`) are zero-padded at pack time; zeros contribute nothing to
/// the integer sums, so the logical result is unchanged.
///
/// `col_sums` carries `Σ_k b(k,j)` per (padded) column — the pack-time
/// constant the VNNI kernel subtracts (×128) to undo the offset-binary
/// activation encoding.
#[derive(Clone, Debug)]
pub struct PackedBI8 {
    pub(crate) k: usize,
    pub(crate) n: usize,
    /// `k.div_ceil(4)` — quads per column.
    pub(crate) kq: usize,
    /// `n.div_ceil(QNR)` — packed strips, the last possibly partial.
    pub(crate) strips: usize,
    /// Quad-interleaved payload, `strips · kq · QNR · 4` bytes.
    pub(crate) data: Vec<i8>,
    /// Per padded column: `Σ_k b(k,j)` (0 for pad columns).
    pub(crate) col_sums: Vec<i32>,
    /// Per logical column: the symmetric quantization scale.
    scales: Vec<f32>,
}

impl PackedBI8 {
    /// Quantize and pack a rank-2 tensor (`k×n`, e.g. a Linear layer's
    /// `in×out` weight matrix) with per-output-channel (per-column)
    /// scales.
    ///
    /// # Errors
    ///
    /// [`TensorError::RankMismatch`] if `b` is not rank 2;
    /// [`TensorError::InvalidGeometry`] if `k` exceeds the int8
    /// accumulator bound `MAX_QGEMM_K`.
    // seal-lint: allow(panic-freedom) — the accessor indexes a rank-2 tensor whose k×n extent was just read from its own shape
    pub fn pack(b: &Tensor) -> Result<PackedBI8, TensorError> {
        if b.shape().rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: b.shape().rank(),
                op: "pack_b_i8",
            });
        }
        let (k, n) = (b.shape().dim(0), b.shape().dim(1));
        let src = b.as_slice();
        Self::pack_with(k, n, |kk, j| src[kk * n + j])
    }

    /// Quantize and pack convolution weights `w[c_out × kdim]` as the
    /// **transposed** operand `B = Wᵀ [kdim × c_out]`, so the per-column
    /// channel scales are the per-output-channel scales of the
    /// convolution.
    ///
    /// # Errors
    ///
    /// [`TensorError::LengthMismatch`] if `w.len() != c_out·kdim`;
    /// [`TensorError::InvalidGeometry`] if `kdim` exceeds `MAX_QGEMM_K`.
    // seal-lint: allow(panic-freedom) — the accessor transposes within `c_out·kdim`, length-checked on entry
    pub fn pack_conv(w: &[f32], c_out: usize, kdim: usize) -> Result<PackedBI8, TensorError> {
        if w.len() != c_out * kdim {
            return Err(TensorError::LengthMismatch {
                expected: c_out * kdim,
                actual: w.len(),
            });
        }
        Self::pack_with(kdim, c_out, |kk, j| w[j * kdim + kk])
    }

    /// Quantize and pack convolution weights `w[c_out × c_in·k·k]` (the
    /// `(c_in, ky, kx)` column order of `Conv2d`) for the implicit-GEMM
    /// convolution [`gemm_i8_conv`](super::gemm_i8_conv): columns in
    /// `(ky, kx, c_in)` order — the image's byte order — with each `ky`
    /// run of `k·c_in` weights padded with **zero** weights to whole
    /// quads; its [`k`](Self::k) is that padded depth, `k ·
    /// 4·ceil(k·c_in/4)`. Scales, quantized values and column sums are
    /// exactly those of [`pack_conv`](Self::pack_conv) of the same weights
    /// (each output channel keeps the same weights; pads add zeros), so
    /// the exact i32 sums are too.
    ///
    /// # Errors
    ///
    /// [`TensorError::LengthMismatch`] if `w.len() != c_out·c_in·k·k`;
    /// [`TensorError::InvalidGeometry`] if the padded depth exceeds
    /// `MAX_QGEMM_K`.
    // seal-lint: allow(panic-freedom) — compile time; `src` and `dst` are one output channel's rows, cut to `kdim` / `kp` by `chunks_exact`, and every index stays below those
    pub fn pack_conv_runs(w: &[f32], dims: &ConvPlanDims) -> Result<PackedBI8, TensorError> {
        let (c_in, k, c_out) = (dims.c_in, dims.geom.kernel, dims.c_out);
        let kdim = c_in * k * k;
        if w.len() != c_out * kdim {
            return Err(TensorError::LengthMismatch {
                expected: c_out * kdim,
                actual: w.len(),
            });
        }
        // Weight rows in packed k order; pad positions stay 0.
        let width = run_quads(dims) * QK;
        let kp = k * width;
        let mut runs = vec![0.0f32; c_out * kp]; // seal-lint: allow(hot-path-alloc) — plan-compile-time staging
        for (dst, src) in runs.chunks_exact_mut(kp).zip(w.chunks_exact(kdim)) {
            for ky in 0..k {
                for kx in 0..k {
                    for ci in 0..c_in {
                        dst[ky * width + kx * c_in + ci] = src[(ci * k + ky) * k + kx];
                    }
                }
            }
        }
        Self::pack_with(kp, c_out, |kk, j| runs[j * kp + kk])
    }

    /// Shared pack core over an element accessor `get(kk, col)`.
    // seal-lint: allow(panic-freedom) — pack offsets enumerate the padded layout exactly once over buffers sized right here
    fn pack_with(
        k: usize,
        n: usize,
        get: impl Fn(usize, usize) -> f32,
    ) -> Result<PackedBI8, TensorError> {
        if k > MAX_QGEMM_K {
            return Err(TensorError::InvalidGeometry {
                reason: format!(
                    "int8 GEMM reduction depth {k} exceeds MAX_QGEMM_K ({MAX_QGEMM_K}); \
                     the i32 accumulator could overflow"
                ),
            });
        }
        let kq = k.div_ceil(QK);
        let strips = n.div_ceil(QNR);
        // Pack-time (plan-compile-time) allocations, not the execute path.
        let mut scales = vec![0.0f32; n]; // seal-lint: allow(hot-path-alloc)
        for (j, s) in scales.iter_mut().enumerate() {
            let mut maxabs = 0.0f32;
            for kk in 0..k {
                maxabs = maxabs.max(get(kk, j).abs());
            }
            *s = channel_scale(maxabs);
        }
        let mut data = vec![0i8; strips * kq * QNR * QK]; // seal-lint: allow(hot-path-alloc)
        let mut col_sums = vec![0i32; strips * QNR]; // seal-lint: allow(hot-path-alloc)
        for s in 0..strips {
            let sdata = &mut data[s * kq * QNR * QK..(s + 1) * kq * QNR * QK];
            for q in 0..kq {
                for c in 0..QNR {
                    let j = s * QNR + c;
                    for t in 0..QK {
                        let kk = q * QK + t;
                        let v = if j < n && kk < k {
                            quantize_value(get(kk, j), 1.0 / scales[j])
                        } else {
                            0
                        };
                        sdata[(q * QNR + c) * QK + t] = v;
                        col_sums[s * QNR + c] += v as i32;
                    }
                }
            }
        }
        Ok(PackedBI8 {
            k,
            n,
            kq,
            strips,
            data,
            col_sums,
            scales,
        })
    }

    /// Inner (contraction) dimension of the packed operand.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output-column dimension of the packed operand.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Per-output-channel quantization scales (`n` of them).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Bytes held by the packed payload + column sums + scales.
    pub fn byte_size(&self) -> usize {
        self.data.len()
            + self.col_sums.len() * std::mem::size_of::<i32>()
            + self.scales.len() * std::mem::size_of::<f32>()
    }
}

/// Matrix product `lhs · rhs` where `rhs` was packed ahead of time.
///
/// Bitwise identical to [`matmul`](super::matmul) of the same operands
/// (any thread count, any [`KernelMode`]) — only the per-call
/// pack step is skipped.
///
/// # Errors
///
/// * [`TensorError::RankMismatch`] if `lhs` is not rank 2.
/// * [`TensorError::ShapeMismatch`] if `lhs.dim(1) != rhs.k()`.
pub fn matmul_prepacked(lhs: &Tensor, rhs: &PackedB) -> Result<Tensor, TensorError> {
    if lhs.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: lhs.shape().rank(),
            op: "matmul_prepacked",
        });
    }
    let (m, k) = (lhs.shape().dim(0), lhs.shape().dim(1));
    if k != rhs.k {
        return Err(TensorError::ShapeMismatch {
            lhs: lhs.shape().clone(),
            rhs: Shape::matrix(rhs.k, rhs.n),
            op: "matmul_prepacked",
        });
    }
    let mut out = vec![0.0f32; m * rhs.n]; // seal-lint: allow(hot-path-alloc)
    gemm_prepacked(lhs.as_slice(), rhs, &mut out, m, kernel_mode(), false);
    Tensor::from_vec(out, Shape::matrix(m, rhs.n))
}

/// `out[m×n] += a[m×k] · packed` into a caller-owned buffer — the
/// allocation-free plan entry point. `out` may be pre-initialised (bias);
/// products land on top in ascending `k` order. With `epilogue_relu`
/// each producing task clamps its block to `max(0, ·)` on write-back.
///
/// # Panics
///
/// If `a.len() < m·k` or `out.len() != m·n`.
// seal-lint: allow(panic-freedom) — the dim asserts are the documented `# Panics` contract matching A and the packed panel
pub fn gemm_prepacked(
    a: &[f32],
    b: &PackedB,
    out: &mut [f32],
    m: usize,
    mode: KernelMode,
    epilogue_relu: bool,
) {
    assert!(a.len() >= m * b.k, "gemm_prepacked: lhs too short");
    assert_eq!(out.len(), m * b.n, "gemm_prepacked: out length mismatch");
    gemm_shared_pack(
        a,
        &b.panels,
        out,
        m,
        b.k,
        b.n,
        mode.degrade(),
        epilogue_relu,
    );
}

#[cfg(test)]
mod tests {
    use super::super::matmul::{matmul, matmul_naive_fma, reset_kernel_mode, set_kernel_mode};
    use super::*;
    use crate::rng::rngs::StdRng;
    use crate::rng::SeedableRng;

    const SHAPES: [(usize, usize, usize); 6] = [
        (1, 1, 1),
        (3, 5, 7),
        (4, 8, 8),
        (33, 129, 17),
        (37, 200, 41),
        (97, 83, 65),
    ];

    #[test]
    fn prepacked_matches_matmul_bitwise_in_every_mode() {
        let mut rng = StdRng::seed_from_u64(17);
        for &(m, k, n) in &SHAPES {
            let a = crate::uniform(&mut rng, Shape::matrix(m, k), -2.0, 2.0);
            let b = crate::uniform(&mut rng, Shape::matrix(k, n), -2.0, 2.0);
            let pb = PackedB::pack(&b).unwrap();
            for mode in [
                KernelMode::Scalar,
                KernelMode::Avx2,
                KernelMode::Avx512,
                KernelMode::Fma,
            ] {
                if set_kernel_mode(mode) != mode {
                    continue;
                }
                let plain = matmul(&a, &b).unwrap();
                let packed = matmul_prepacked(&a, &pb).unwrap();
                let same = plain
                    .as_slice()
                    .iter()
                    .zip(packed.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(
                    same,
                    "prepacked != matmul ({}) for {m}x{k}x{n}",
                    mode.name()
                );
            }
            reset_kernel_mode();
        }
    }

    #[test]
    fn prepacked_fma_matches_fused_naive() {
        if set_kernel_mode(super::KernelMode::Fma) != super::KernelMode::Fma {
            reset_kernel_mode();
            return;
        }
        let mut rng = StdRng::seed_from_u64(19);
        let a = crate::uniform(&mut rng, Shape::matrix(37, 200, ), -1.0, 1.0);
        let b = crate::uniform(&mut rng, Shape::matrix(200, 41), -1.0, 1.0);
        let pb = PackedB::pack(&b).unwrap();
        let packed = matmul_prepacked(&a, &pb).unwrap();
        let naive = matmul_naive_fma(&a, &b).unwrap();
        assert!(packed
            .as_slice()
            .iter()
            .zip(naive.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
        reset_kernel_mode();
    }

    #[test]
    fn pack_rejects_bad_rank() {
        let v = Tensor::zeros(Shape::vector(4));
        assert!(matches!(
            PackedB::pack(&v),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn prepacked_rejects_inner_mismatch() {
        let a = Tensor::zeros(Shape::matrix(2, 3));
        let b = PackedB::pack(&Tensor::zeros(Shape::matrix(4, 5))).unwrap();
        assert!(matches!(
            matmul_prepacked(&a, &b),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }
}
