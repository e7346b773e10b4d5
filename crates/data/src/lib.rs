//! # seal-data
//!
//! Dataset substrate for the SEAL reproduction.
//!
//! The paper trains on CIFAR-10. No dataset downloads are available in this
//! environment, so this crate provides a deterministic **synthetic
//! class-conditional image distribution** with the same tensor format
//! (`3×H×W`, 10 classes): each class has a procedural prototype (a mixture
//! of oriented sinusoidal gratings and radial blobs keyed by the class
//! index) and samples are prototype + pixel noise + random shift.
//!
//! What the paper's experiments require of the data is only that
//!
//! 1. models train to clearly-above-chance accuracy,
//! 2. a white-box copy of the victim far outperforms a black-box retrain,
//! 3. knowing more *important* weights yields better substitutes.
//!
//! All three orderings are preserved by this distribution (verified in the
//! integration tests). The 90%/10% victim/adversary split of Sec. III-B1 is
//! provided by [`Dataset::split`].
//!
//! ## Example
//!
//! ```
//! use seal_tensor::rng::SeedableRng;
//! use seal_data::{Dataset, SyntheticCifar};
//!
//! # fn main() -> Result<(), seal_data::DataError> {
//! let mut rng = seal_tensor::rng::rngs::StdRng::seed_from_u64(0);
//! let gen = SyntheticCifar::new(16, 10);
//! let data = gen.generate(&mut rng, 100)?;
//! let (victim, adversary) = data.split(0.9, &mut rng)?;
//! assert_eq!(victim.len() + adversary.len(), 100);
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

mod dataset;
mod error;
mod synthetic;

pub use dataset::Dataset;
pub use error::DataError;
pub use synthetic::SyntheticCifar;
