//! Compile-only guard for the stand-alone `benchmark/` package.
//!
//! `benchmark/src/replay.rs` lives outside this workspace (its own
//! `[workspace]`), so `scripts/check.sh` never compiles it — but it calls
//! the `seal_tensor::ops` items below by name and matches `KernelMode`
//! exhaustively on its four variants. Each is pinned here with the exact
//! signature the benchmark relies on, so renaming one, changing its
//! arguments or adding a kernel mode fails in this workspace's build
//! rather than in the benchmark pipeline.

use seal_tensor::ops::{
    conv2d_infer_packed, gather_patches_u8, gemm_i8, gemm_prepacked, kernel_mode, quantize_rows_u8,
    quantized_row_len, ConvPlanDims, Im2colGather, KernelMode, PackedB, PackedBI8, PatchGather,
};
use seal_tensor::TensorError;

#[test]
fn the_names_and_signatures_the_benchmark_uses_still_exist() {
    #[allow(clippy::type_complexity)]
    let _: fn(
        &[f32],
        usize,
        &ConvPlanDims,
        &Im2colGather,
        &[f32],
        &[f32],
        &mut [f32],
        bool,
        KernelMode,
    ) -> Result<(), TensorError> = conv2d_infer_packed;
    let _: fn(&[f32], &PackedB, &mut [f32], usize, KernelMode, bool) = gemm_prepacked;
    let _: fn(&[u8], &PackedBI8, &mut [i32], usize, KernelMode) = gemm_i8;
    let _: fn(&[u8], &PatchGather, &mut [u8]) = gather_patches_u8;
    let _: fn(&[f32], usize, usize, &mut [u8], &mut [f32]) = quantize_rows_u8;
    let _: fn(usize) -> usize = quantized_row_len;
    let _: fn() -> KernelMode = kernel_mode;
    let _: fn(&ConvPlanDims) -> Im2colGather = Im2colGather::compile;
    let _: fn(&ConvPlanDims) -> PatchGather = PatchGather::compile;
    let _: fn(&PatchGather) -> usize = PatchGather::spatial;
    let _: fn(&[f32], usize, usize) -> PackedB = PackedB::from_slice;
    let _: fn(&[f32], usize, usize) -> Result<PackedBI8, TensorError> = PackedBI8::pack_conv;
    // No wildcard arm: a fifth variant must break this match, as it
    // would break `benchmark/src/replay.rs::kernel_mode_code`.
    match kernel_mode() {
        KernelMode::Scalar | KernelMode::Avx2 | KernelMode::Fma | KernelMode::Avx512 => {}
    }
}
