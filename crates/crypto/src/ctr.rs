//! Counter-mode memory encryption.
//!
//! Counter mode (Yan et al., ISCA'06) hides the AES latency by encrypting a
//! *counter* — not the data — into a one-time pad while the data is still in
//! flight from DRAM; the pad is then XORed with the data. The cost is a
//! per-line counter that must itself be fetched from memory on a counter
//! cache miss, which is exactly the extra traffic the paper's `Counter`
//! scheme pays in Figure 1.
//!
//! The pad seed is `(address, counter)`, so re-encrypting a line after a
//! write bumps its counter to keep the pad single-use.

#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

use std::collections::HashMap;

use crate::mac::{first_bad_block, tag_buffer};
use crate::{Aes128, CryptoError, TaggedCiphertext, BLOCK_BYTES};

/// Counter-mode cipher with per-line write counters.
///
/// ```
/// use seal_crypto::{Aes128, CtrCipher, Key128};
///
/// let c = CtrCipher::new(Aes128::new(&Key128::from_seed(3)), 0);
/// let data = vec![7u8; 64];
/// let ct = c.encrypt(0x40, &data);
/// assert_eq!(c.decrypt(0x40, &ct), data);
/// ```
#[derive(Debug, Clone)]
pub struct CtrCipher {
    aes: Aes128,
    /// Global nonce mixed into every pad (distinguishes key epochs).
    nonce: u64,
    /// Per-line write counters, keyed by line address.
    counters: HashMap<u64, u64>,
}

impl CtrCipher {
    /// Creates a counter-mode cipher with the given epoch nonce.
    pub fn new(aes: Aes128, nonce: u64) -> Self {
        CtrCipher {
            aes,
            nonce,
            counters: HashMap::new(),
        }
    }

    /// Current write counter for `addr` (0 if never written).
    pub fn counter(&self, addr: u64) -> u64 {
        self.counters.get(&addr).copied().unwrap_or(0)
    }

    /// Encrypts `data` at `addr` using the line's current counter.
    ///
    /// The pad is `AES_k(nonce ‖ addr ‖ ctr ‖ block_idx)` truncated to the
    /// data length, so buffers need not be block-aligned.
    pub fn encrypt(&self, addr: u64, data: &[u8]) -> Vec<u8> {
        self.xor_pad(addr, self.counter(addr), data)
    }

    /// Decrypts `data` at `addr` (CTR decryption = encryption).
    pub fn decrypt(&self, addr: u64, data: &[u8]) -> Vec<u8> {
        self.xor_pad(addr, self.counter(addr), data)
    }

    /// Records a write-back of the line at `addr`, bumping its counter so
    /// the next pad differs. Returns the new counter value.
    pub fn bump_counter(&mut self, addr: u64) -> u64 {
        let c = self.counters.entry(addr).or_insert(0);
        *c += 1;
        *c
    }

    /// Overwrites the write counter for `addr`.
    ///
    /// Legitimate uses are counter re-fetch after a detected corruption
    /// and fault-injection harnesses modelling a tampered counter block;
    /// a desynchronised counter makes [`decrypt_verified`]
    /// (Self::decrypt_verified) fail rather than decrypt to garbage.
    pub fn set_counter(&mut self, addr: u64, value: u64) {
        if value == 0 {
            self.counters.remove(&addr);
        } else {
            self.counters.insert(addr, value);
        }
    }

    /// Encrypts `data` at `addr` and computes per-block MAC tags bound to
    /// the address and current counter (see the crate's `mac` module for
    /// the construction).
    pub fn encrypt_tagged(&self, addr: u64, data: &[u8]) -> TaggedCiphertext {
        let bytes = self.xor_pad(addr, self.counter(addr), data);
        let tags = tag_buffer(&self.aes, addr, self.counter(addr), &bytes);
        TaggedCiphertext { bytes, tags }
    }

    /// Verifies every block tag of `ct`, then decrypts.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::TagMismatch`] naming the first failing block
    /// when the ciphertext or tags were tampered with, or when the line's
    /// counter no longer matches the one the tags were computed under —
    /// a tampered counter never decrypts silently.
    pub fn decrypt_verified(
        &self,
        addr: u64,
        ct: &TaggedCiphertext,
    ) -> Result<Vec<u8>, CryptoError> {
        if let Some(block) =
            first_bad_block(&self.aes, addr, self.counter(addr), &ct.bytes, &ct.tags)
        {
            return Err(CryptoError::TagMismatch { addr, block });
        }
        Ok(self.xor_pad(addr, self.counter(addr), &ct.bytes))
    }

    fn xor_pad(&self, addr: u64, ctr: u64, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len());
        for (i, chunk) in data.chunks(BLOCK_BYTES).enumerate() {
            let mut seed = [0u8; BLOCK_BYTES];
            seed[..8].copy_from_slice(&(self.nonce ^ addr).to_le_bytes());
            seed[8..].copy_from_slice(&(ctr.wrapping_mul(1 << 20) + i as u64).to_le_bytes());
            let pad = self.aes.encrypt_block(&seed);
            for (b, p) in chunk.iter().zip(pad.iter()) {
                out.push(b ^ p);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Key128;

    fn cipher() -> CtrCipher {
        CtrCipher::new(Aes128::new(&Key128::from_seed(11)), 0xFEED)
    }

    #[test]
    fn roundtrip_various_lengths() {
        let c = cipher();
        for len in [0usize, 1, 15, 16, 17, 64, 100] {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let ct = c.encrypt(0x100, &data);
            assert_eq!(c.decrypt(0x100, &ct), data, "len {len}");
        }
    }

    #[test]
    fn pad_depends_on_address() {
        let c = cipher();
        let data = vec![0u8; 32];
        assert_ne!(c.encrypt(0x100, &data), c.encrypt(0x140, &data));
    }

    #[test]
    fn bump_counter_changes_pad() {
        let mut c = cipher();
        let data = vec![0u8; 32];
        let before = c.encrypt(0x200, &data);
        assert_eq!(c.bump_counter(0x200), 1);
        let after = c.encrypt(0x200, &data);
        assert_ne!(before, after);
        // And decryption still works with the bumped counter.
        assert_eq!(c.decrypt(0x200, &after), data);
    }

    #[test]
    fn nonce_separates_key_epochs() {
        let a = CtrCipher::new(Aes128::new(&Key128::from_seed(11)), 1);
        let b = CtrCipher::new(Aes128::new(&Key128::from_seed(11)), 2);
        let data = vec![9u8; 16];
        assert_ne!(a.encrypt(0, &data), b.encrypt(0, &data));
    }

    #[test]
    fn tagged_roundtrip_and_tamper_detection() {
        let c = cipher();
        let data: Vec<u8> = (0..50).map(|i| i as u8).collect();
        let mut tc = c.encrypt_tagged(0x400, &data);
        assert_eq!(c.decrypt_verified(0x400, &tc).unwrap(), data);
        // Ciphertext flip → TagMismatch naming the flipped block.
        let block = tc.flip_ciphertext_bit(37 * 8 + 2).unwrap();
        match c.decrypt_verified(0x400, &tc) {
            Err(CryptoError::TagMismatch { addr, block: b }) => {
                assert_eq!(addr, 0x400);
                assert_eq!(b, block);
            }
            other => panic!("expected TagMismatch, got {other:?}"),
        }
        // Tag flip → also detected.
        let mut tc = c.encrypt_tagged(0x400, &data);
        assert!(tc.flip_tag_bit(1, 9));
        assert!(matches!(
            c.decrypt_verified(0x400, &tc),
            Err(CryptoError::TagMismatch { block: 1, .. })
        ));
    }

    #[test]
    fn desynced_counter_never_decrypts_silently() {
        let mut c = cipher();
        c.set_counter(0x500, 6);
        let data = vec![0xC3u8; 32];
        let tc = c.encrypt_tagged(0x500, &data);
        // A tampered / rolled-back counter block desynchronises the pad;
        // verification must catch it instead of returning garbage.
        c.set_counter(0x500, 5);
        assert!(matches!(
            c.decrypt_verified(0x500, &tc),
            Err(CryptoError::TagMismatch { .. })
        ));
        // Restoring the true counter (the recovery re-fetch) heals it.
        c.set_counter(0x500, 6);
        assert_eq!(c.decrypt_verified(0x500, &tc).unwrap(), data);
        // set_counter(_, 0) is equivalent to "never written".
        c.set_counter(0x500, 0);
        assert_eq!(c.counter(0x500), 0);
    }

    #[test]
    fn ciphertext_is_not_plaintext() {
        let c = cipher();
        let data = vec![0x55u8; 64];
        assert_ne!(c.encrypt(0x300, &data), data);
    }
}
