//! # seal-nn
//!
//! A from-scratch neural-network framework sufficient to reproduce the
//! security experiments of the SEAL paper (DAC 2021): CNN layers with
//! forward *and* backward passes, softmax cross-entropy, SGD with momentum, a
//! sequential model container, and builders for the paper's three networks
//! (VGG-16, ResNet-18, ResNet-34 in their CIFAR-10 form).
//!
//! Two views of a network coexist:
//!
//! * **Trainable models** ([`Sequential`]) — real weights, used for the
//!   victim/substitute training of Figures 3–4. A width `scale` lets the
//!   learning experiments run on CPU-sized variants while keeping depth and
//!   topology faithful.
//! * **Topologies** ([`NetworkTopology`]) — shape-only descriptions with
//!   exact byte/FLOP counts per layer, used by `seal-core` and `seal-gpusim`
//!   for the performance experiments (Figures 5–8), which depend only on
//!   tensor shapes, never on trained values.
//!
//! ## Example
//!
//! ```
//! use seal_tensor::rng::SeedableRng;
//! use seal_nn::models;
//! use seal_tensor::{Shape, Tensor};
//!
//! # fn main() -> Result<(), seal_nn::NnError> {
//! let mut rng = seal_tensor::rng::rngs::StdRng::seed_from_u64(1);
//! // A width-reduced VGG-16 for 16×16 inputs: same 16-layer topology.
//! let mut model = models::vgg16(&mut rng, &models::VggConfig::reduced())?;
//! let x = Tensor::zeros(Shape::nchw(2, 3, 16, 16));
//! let logits = model.forward(&x, false)?;
//! assert_eq!(logits.shape().dims()[1], 10);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_unsafe_on_extern)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

mod error;
mod layer;
mod loss;
mod model;
mod optim;
mod serialize;
mod train;

pub mod layers;
pub mod models;
pub mod plan;
pub mod shape_check;
pub mod topo;

pub use error::NnError;
pub use layer::{KernelMatrix, Layer, LayerKind, Param};
pub use loss::SoftmaxCrossEntropy;
pub use model::Sequential;
pub use optim::{Optimizer, Sgd};
pub use plan::CompiledModel;
pub use serialize::{load_weights, save_weights};
pub use shape_check::{check_model, ShapeMismatch, ShapeReport, ShapeStep};
pub use topo::{DType, LayerRole, LayerTopo, NetworkTopology};
pub use train::{accuracy, fit, FitConfig, FitReport};
