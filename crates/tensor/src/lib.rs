//! # seal-tensor
//!
//! Dense `f32` tensor substrate for the SEAL reproduction.
//!
//! This crate provides the numeric foundation used by [`seal-nn`] to train
//! and evaluate the victim and substitute CNN models of the paper
//! *SEALing Neural Network Models in Encrypted Deep Learning Accelerators*
//! (DAC 2021): row-major tensors, matrix multiplication, 2-D convolution
//! (forward and backward), pooling, and deterministic random initialisation.
//!
//! The implementation is deliberately dependency-free — the deterministic
//! generator behind weight initialisation lives in-tree in [`rng`] — and
//! runs its hot kernels (cache-blocked matmul, im2col conv2d, pooling,
//! elementwise maps) on the hermetic `seal-pool` work-sharing runtime.
//! Determinism is a hard contract: task and chunk boundaries are derived
//! from the problem shape only and every output element accumulates in a
//! fixed sequential order, so results are bitwise identical for any
//! `SEAL_THREADS` — including the single-thread fallback.
//!
//! ## Example
//!
//! ```
//! use seal_tensor::{Tensor, Shape};
//!
//! # fn main() -> Result<(), seal_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], Shape::matrix(2, 2))?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! # Ok(())
//! # }
//! ```
//!
//! [`seal-nn`]: https://example.com/seal

#![warn(missing_docs)]
#![warn(missing_unsafe_on_extern)]
#![warn(missing_debug_implementations)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

mod error;
mod init;
mod shape;
mod tensor;

pub mod cpu;
pub mod ops;
pub mod rng;

pub use error::TensorError;
pub use init::{fill_uniform, he_normal, uniform, xavier_uniform};
pub use shape::Shape;
pub use tensor::Tensor;

/// Elements per task in parallel elementwise paths ([`Tensor::par_map`]
/// and the `seal-nn` layer kernels). A shape-independent constant so chunk
/// boundaries — and therefore outputs — never depend on the thread count.
pub const ELEMWISE_CHUNK: usize = 8192;
