//! # seal-attack
//!
//! The adversary's toolbox from Sec. III-B of the SEAL paper: everything
//! needed to *evaluate* how much security a given encryption ratio buys.
//!
//! * [`substitute`] — builds the three substitute models the paper
//!   compares: **white-box** (a copy of the victim), **black-box**
//!   (retrained from scratch on query-labelled data) and **SEAL** models
//!   (unencrypted weights copied and frozen, encrypted weights randomly
//!   initialised and fine-tuned — exactly the partial-knowledge attack of
//!   Sec. III-B1).
//! * [`jacobian`] — Papernot-style Jacobian-based dataset augmentation, the
//!   paper's method for growing the adversary's 10% data slice into a
//!   useful training set.
//! * [`fgsm`] — I-FGSM adversarial example generation (Kurakin et al.),
//!   used for the transferability study of Fig. 4.
//! * [`transfer`] — transferability measurement: the fraction of
//!   substitute-crafted adversarial examples that also fool the victim.
//! * [`experiment`] — end-to-end orchestration reproducing Figs. 3 and 4.
//!
//! ## Example
//!
//! ```no_run
//! use seal_attack::experiment::{ExperimentConfig, ModelArch};
//!
//! # fn main() -> Result<(), seal_attack::AttackError> {
//! let cfg = ExperimentConfig::quick(ModelArch::Vgg16, 42);
//! let outcome = seal_attack::experiment::run_ip_stealing(&cfg, &[0.2, 0.5])?;
//! // White-box dominates; 50%-ratio SEAL sits near the black-box floor.
//! assert!(outcome.white_box_accuracy >= outcome.black_box_accuracy);
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

pub mod experiment;
pub mod fgsm;
pub mod jacobian;
pub mod substitute;
pub mod transfer;

pub use error::AttackError;
