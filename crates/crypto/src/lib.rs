//! # seal-crypto
//!
//! Memory-encryption substrate for the SEAL reproduction: a from-scratch
//! AES-128 block cipher, the two memory-encryption modes the paper compares
//! (direct encryption and counter-mode encryption), a performance model of a
//! pipelined hardware AES engine (Table I of the paper), and a set-associative
//! counter cache (Figure 1b).
//!
//! Two distinct concerns live here:
//!
//! * **Functional encryption** ([`Aes128`], [`DirectCipher`], [`CtrCipher`]) —
//!   real bit-level encryption used by `seal-core`'s `emalloc` regions and by
//!   the examples to show that bus-visible bytes are actually ciphertext.
//! * **Performance modelling** ([`EngineSpec`], [`EnginePipeline`],
//!   [`CounterCache`]) — the latency/throughput behaviour that `seal-gpusim`
//!   attaches to each memory controller. The paper's entire performance story
//!   is the ~8 GB/s engine throttling a ~29.5 GB/s GDDR5 channel.
//!
//! ## Example
//!
//! ```
//! use seal_crypto::{Aes128, CtrCipher, Key128};
//!
//! let key = Key128::new([0x42; 16]);
//! let cipher = CtrCipher::new(Aes128::new(&key), 0xDEAD_BEEF);
//! let plain = b"neural network weights".to_vec();
//! let ct = cipher.encrypt(0x1000, &plain);
//! assert_ne!(ct, plain);
//! assert_eq!(cipher.decrypt(0x1000, &ct), plain);
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

mod aes;
mod counter_cache;
mod ctr;
mod direct;
mod engine;
mod error;
mod key;
mod mac;
mod tenant;

pub use aes::{Aes128, BLOCK_BYTES};
pub use counter_cache::{
    CounterCache, CounterCacheConfig, CounterCacheStats, CounterGeometry, ReadOnlyRegion,
    RunOutcome, MAX_READ_ONLY_REGIONS,
};
pub use ctr::CtrCipher;
pub use direct::DirectCipher;
pub use engine::{EnginePipeline, EngineSpec, TABLE_I_ENGINES};
pub use error::CryptoError;
pub use key::Key128;
pub use mac::{block_tag, first_bad_block, tag_buffer, BlockTag, TaggedCiphertext, TAG_BYTES};
pub use tenant::{TenantCrypto, MAX_TENANTS, TENANT_SPAN};
