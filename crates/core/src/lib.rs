//! # seal-core
//!
//! The SEAL contribution of the paper *SEALing Neural Network Models in
//! Encrypted Deep Learning Accelerators* (DAC 2021): **criticality-aware
//! smart encryption** (SE) for DL accelerators.
//!
//! Standard memory encryption pushes every byte of NN traffic through an
//! AES engine that is ~3.7× slower than the GDDR bus. The SE scheme instead
//!
//! 1. ranks each CONV/FC layer's *kernel rows* by ℓ1-norm
//!    ([`ImportanceMetric`]),
//! 2. encrypts only the most important fraction — 50% by the paper's
//!    security study — plus the feature-map channels algebraically coupled
//!    to those rows ([`EncryptionPlan`]),
//! 3. fully encrypts the boundary layers (first two CONV, last CONV, all
//!    FC) so the adversary cannot solve for weights from observed
//!    inputs/outputs,
//! 4. lets everything else bypass the engine via `emalloc`-style tagged
//!    allocations ([`SecureHeap`]).
//!
//! The coupling invariant of the paper's Eqs. (1)–(3) — an encrypted
//! operand never multiplies a plaintext one in an equation visible on the
//! bus — is checkable with [`verify_assignment`].
//!
//! [`traffic`] and [`workload`] convert a network topology plus a plan into
//! the encrypted/plain byte split and into `seal-gpusim` workloads, which
//! is how every performance figure of the paper is regenerated.
//!
//! ## Example
//!
//! ```
//! use seal_core::{EncryptionPlan, Scheme, SePolicy};
//! use seal_nn::models::vgg16_topology;
//!
//! # fn main() -> Result<(), seal_core::CoreError> {
//! let topo = vgg16_topology();
//! let plan = EncryptionPlan::from_topology(&topo, SePolicy::default())?;
//! // With the paper's 50% ratio, well under half the traffic is encrypted.
//! let split = seal_core::traffic::network_traffic(&topo, &plan, Scheme::SealCounter)?;
//! let enc: u64 = split.iter().map(|l| l.encrypted_bytes()).sum();
//! let total: u64 = split.iter().map(|l| l.total_bytes()).sum();
//! assert!((enc as f64) < 0.7 * total as f64);
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

mod emalloc;
mod error;
mod importance;
mod plan;
mod scheme;
mod security;
mod verify;

pub mod traffic;
pub mod workload;

pub use emalloc::{RegionId, SecureHeap};
pub use error::CoreError;
pub use importance::{rank_rows, select_encrypted_rows, ImportanceMetric};
pub use plan::{EncryptionPlan, LayerPlan, SePolicy};
pub use scheme::Scheme;
pub use security::{recommended_ratio, security_level, SecurityLevel};
pub use verify::{
    analyze_plan, derive_assignment, verify_assignment, verify_heap_layout, verify_region_layout,
    ChannelAssignment, PlanFinding, SecurityViolation,
};
