//! # seal
//!
//! Umbrella crate for the SEAL reproduction — *SEALing Neural Network
//! Models in Encrypted Deep Learning Accelerators* (DAC 2021).
//!
//! Re-exports every workspace crate under a stable path:
//!
//! | Module | Contents |
//! |---|---|
//! | [`tensor`] | dense f32 tensors, conv/pool/matmul kernels |
//! | [`crypto`] | AES-128, direct & counter-mode encryption, engine model, counter cache |
//! | [`nn`] | from-scratch NN framework + VGG-16/ResNet-18/ResNet-34 |
//! | [`data`] | synthetic CIFAR-10 stand-in datasets |
//! | [`gpusim`] | cycle-level GPU memory-system simulator (GTX480 model) |
//! | [`core`] | SEAL smart encryption: importance ranking, plans, traffic, `emalloc` |
//! | [`attack`] | substitute models, Jacobian augmentation, I-FGSM, transferability |
//! | [`serve`] | batched multi-threaded inference serving with encrypted-weight streaming |
//! | [`net`] | hand-rolled epoll TCP reactor, length-prefixed framing, blocking client |
//! | [`plan`] | compiled inference plans: weight pre-packing, activation arenas, op fusion |
//! | [`pool`] | deterministic work-sharing thread pool behind every parallel kernel |
//! | [`faults`] | seed-deterministic fault injection (tampers, stalls, panics) + `Backoff` |
//!
//! ## Quickstart
//!
//! ```
//! use seal::core::{simulate_network, EncryptionPlan, Scheme, SePolicy};
//! use seal::gpusim::GpuConfig;
//! use seal::nn::models::vgg16_topology;
//!
//! # fn main() -> Result<(), seal::core::CoreError> {
//! let topo = vgg16_topology();
//! let plan = EncryptionPlan::from_topology(&topo, SePolicy::paper_default())?;
//! let cfg = GpuConfig::gtx480();
//! let direct = simulate_network(&cfg, &topo, &plan, Scheme::Direct)?;
//! let seal = simulate_network(&cfg, &topo, &plan, Scheme::SealDirect)?;
//! assert!(seal.overall_ipc() > direct.overall_ipc());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_unsafe_on_extern)]
#![forbid(unsafe_code)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

pub use seal_attack as attack;
pub use seal_crypto as crypto;
pub use seal_data as data;
pub use seal_faults as faults;
pub use seal_gpusim as gpusim;
pub use seal_net as net;
pub use seal_nn as nn;
pub use seal_pool as pool;
pub use seal_serve as serve;
pub use seal_tensor as tensor;

/// Compiled inference plans for the serving hot path: weight
/// pre-packing, ping-pong activation arenas and fused epilogues — the f32
/// plan bitwise-identical to `forward_infer`, the int8 plan within
/// quantization tolerance of it.
pub mod plan {
    pub use seal_nn::plan::*;
}

/// The SEAL contribution: criticality-aware smart encryption.
pub mod core {
    pub use seal_core::traffic::{network_traffic, LayerTrafficSplit};
    pub use seal_core::workload::{
        layer_workload, matmul_workload, network_workloads, simulate_network,
        simulate_network_batched, NetworkSimResult,
    };
    pub use seal_core::*;
}
