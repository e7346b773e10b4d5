//! # seal-gpusim
//!
//! A cycle-granularity GPU **memory-system** simulator standing in for
//! GPGPU-Sim v3.2.2 in the SEAL reproduction.
//!
//! The paper's entire performance story is a bandwidth mismatch: a GDDR5
//! memory subsystem (~177 GB/s across 6 channels on the modelled GTX480)
//! throttled by per-memory-controller AES engines (~8 GB/s each, 48 GB/s
//! total) whenever traffic must be encrypted. This crate models exactly the
//! machinery that produces that story:
//!
//! * an SM front end that issues memory requests at a rate set by the
//!   workload's instruction count (compute/issue-bound ceiling) and by a
//!   bounded window of outstanding requests (latency tolerance);
//! * six memory controllers with address-interleaved request streams, a
//!   pipelined DRAM service model with a per-workload row-locality
//!   efficiency, and one [`EnginePipeline`](seal_crypto::EnginePipeline)
//!   AES engine each;
//! * counter-mode metadata handling: a per-MC slice of the on-chip counter
//!   cache, with misses generating real extra DRAM traffic — the reason the
//!   paper's `Counter` scheme is no faster than `Direct` on GPUs;
//! * IPC / latency / utilisation reporting per run.
//!
//! What it does **not** model (and the paper's conclusions do not need):
//! SASS pipelines, warp scheduling, L1/L2 coherence. Compute is an
//! issue-rate ceiling; caches appear as the traffic model baked into each
//! [`Workload`]'s region passes (see `seal-core`'s im2col/GEMM derivation).
//!
//! ## Example
//!
//! ```
//! use seal_gpusim::{EncryptionMode, GpuConfig, Region, Simulator, Workload};
//!
//! # fn main() -> Result<(), seal_gpusim::SimError> {
//! let wl = Workload::builder("stream")
//!     .region(Region::read("data", 0x0, 8 << 20).encrypted(true))
//!     .instructions(1_000_000)
//!     .build()?;
//! let base = Simulator::new(GpuConfig::gtx480(), EncryptionMode::None)?.run(&wl)?;
//! let enc = Simulator::new(GpuConfig::gtx480(), EncryptionMode::Direct)?.run(&wl)?;
//! assert!(enc.ipc() < base.ipc(), "encryption throttles a streaming load");
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

mod config;
mod dram;
mod error;
mod mc;
mod report;
mod sim;
mod workload;

pub use config::{EncryptionMode, GpuConfig};
pub use dram::{BankedChannel, DramTiming};
pub use error::SimError;
pub use mc::MemoryController;
pub use report::{McReport, SimReport};
pub use sim::Simulator;
pub use workload::{AccessPattern, MemoryRequest, Region, Workload, WorkloadBuilder};
