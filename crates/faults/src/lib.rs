//! # seal-faults
//!
//! Seed-deterministic fault injection for the SEAL stack — the adversarial
//! half of the paper's threat model, turned into a reproducible test
//! substrate. The paper assumes the memory bus is hostile; GuardNN and
//! Seculator treat integrity verification (MAC/version checks with
//! recovery) as inseparable from memory encryption. This crate supplies
//! the *faults* that the rest of the workspace must detect and survive:
//!
//! * ciphertext/counter bit-flips and counter-cache corruption for
//!   `seal-crypto` (detected by per-block MAC tags, recovered by bounded
//!   re-fetch with exponential backoff),
//! * engine stalls and counter-cache miss-storms for the cost lanes,
//! * worker panics for `seal-pool` supervised workers
//!   (panic-quarantine + respawn),
//! * slow / oversized / deadline-busting requests for `seal-serve`
//!   (deadline load-shedding + circuit-breaker admission).
//!
//! ## Determinism contract
//!
//! A [`FaultPlan`] is a *pure function* of `(seed, config)`: every
//! decision is derived by hashing the seed with a stable event key (a
//! request index, a cumulative sample count), never from wall-clock time
//! or thread interleaving. Two runs with the same seed therefore inject
//! the identical fault schedule regardless of scheduling — which is what
//! lets the chaos smoke test assert bit-identical fault/recovery counts
//! across runs.
//!
//! ```
//! use seal_faults::{FaultConfig, FaultPlan};
//!
//! let plan = FaultPlan::new(42, FaultConfig::chaos_smoke()).unwrap();
//! // Decisions are reproducible: the same request index always draws the
//! // same fault (or none).
//! assert_eq!(plan.request_fault(7), plan.request_fault(7));
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

mod backoff;
mod plan;

pub use backoff::{backoff_cycles, Backoff};
pub use plan::{
    FaultConfig, FaultError, FaultKind, FaultPlan, NetFault, NetFaultCounts, RequestFault,
    RequestFaultCounts, ALL_FAULTS,
};
