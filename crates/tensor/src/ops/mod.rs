//! Numeric kernels: matrix multiply, 2-D convolution, pooling.
//!
//! Forward *and* backward primitives live here so that `seal-nn` layers are
//! thin orchestration over well-tested math. All kernels use the `NCHW`
//! layout for activations and `[out_ch, in_ch, kh, kw]` for convolution
//! weights — the "kernel matrix" of the paper, where a *kernel row* is the
//! slice `[*, in_ch_i, :, :]` coupled to input channel `i` and a *kernel
//! column* is `[out_ch_j, *, :, :]` coupled to output channel `j`.

mod conv;
mod matmul;
mod pool;
mod prepack;
mod quant;

pub use conv::{
    conv2d, conv2d_backward, conv2d_infer_fused, conv2d_infer_packed, conv2d_reference,
    BatchNormParams, Conv2dGeometry, Conv2dGradients, ConvEpilogue, ConvPlanDims, Im2colGather,
};
pub use matmul::{
    kernel_mode, matmul, matmul_naive, matmul_naive_fma, reset_kernel_mode, set_kernel_mode,
    KernelMode,
};
pub use pool::{
    avg_pool2d, avg_pool2d_backward, avg_pool2d_into, max_pool2d, max_pool2d_backward,
    max_pool2d_into, PoolGeometry,
};
pub use prepack::{gemm_prepacked, matmul_prepacked, PackedB, PackedBI8};
pub use quant::{
    dequantize, dequantize_bias_relu, dequantize_planar_bias_relu, dequantize_transpose_bias_relu,
    gather_patches_u8, gemm_i8, gemm_i8_conv, i8_kernel_name, matmul_i8, matmul_i8_reference,
    quantize_nhwc_u8, quantize_per_channel, quantize_rows_u8, quantize_slice_u8, quantized_row_len,
    ImplicitConv, NhwcImage, PatchGather, QuantAxis, QuantizedTensor, Requantize, MAX_QGEMM_K,
    PATCH_SLACK,
};
