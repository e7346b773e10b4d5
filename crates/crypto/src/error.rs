use std::error::Error;
use std::fmt;

/// Error type for the crypto crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CryptoError {
    /// A buffer that must be a whole number of AES blocks is not.
    UnalignedBuffer {
        /// Length of the offending buffer.
        len: usize,
        /// Required alignment in bytes.
        block: usize,
    },
    /// A cache or engine configuration parameter is invalid.
    InvalidConfig {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// Integrity verification failed: a per-block MAC tag did not match
    /// the ciphertext (bus tamper, counter desync or replay).
    TagMismatch {
        /// Line address whose verification failed.
        addr: u64,
        /// Index of the first block whose tag mismatched.
        block: usize,
    },
    /// Bounded re-fetch recovery gave up: the line still failed MAC
    /// verification after the configured number of retries.
    RecoveryExhausted {
        /// Line address that could not be recovered.
        addr: u64,
        /// Number of re-fetch attempts made before giving up.
        attempts: u32,
    },
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::UnalignedBuffer { len, block } => {
                write!(
                    f,
                    "buffer of {len} bytes is not a multiple of the {block}-byte block"
                )
            }
            CryptoError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            CryptoError::TagMismatch { addr, block } => {
                write!(f, "MAC tag mismatch at address {addr:#x}, block {block}: ciphertext or counter tampered")
            }
            CryptoError::RecoveryExhausted { addr, attempts } => {
                write!(f, "integrity recovery exhausted for address {addr:#x} after {attempts} re-fetch attempts")
            }
        }
    }
}

impl Error for CryptoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CryptoError>();
    }

    #[test]
    fn display_mentions_sizes() {
        let e = CryptoError::UnalignedBuffer { len: 17, block: 16 };
        assert!(e.to_string().contains("17"));
        assert!(e.to_string().contains("16"));
    }
}
