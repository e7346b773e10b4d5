//! Seeded violations of the lints the library crates set at their roots.
//! Never used: each module is read by `cargo clippy` only.

// The same lint attributes as the workspace's library crate roots.
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
// The fixtures' private functions are never called, and literal unwraps
// are the seeds here, not a style question.
#![allow(dead_code, clippy::unnecessary_literal_unwrap)]

pub mod bad_concurrency;
pub mod bad_gated_field;
pub mod bad_panics;
pub mod bad_raw_syscall;
pub mod bad_thread_spawn;
pub mod crypto;
