//! Per-block MAC tags for memory-encryption integrity.
//!
//! SEAL's threat model puts an adversary on the memory bus; GuardNN and
//! Seculator therefore pair memory encryption with integrity verification
//! so a flipped ciphertext (or counter) bit is *detected* instead of
//! silently decrypting to garbage weights. We model the common hardware
//! scheme: each 16-byte ciphertext block carries a truncated AES-based MAC
//! bound to the block's address, write counter and block index, stored
//! alongside the line (the way ECC bits or GuardNN's per-line MACs are).
//!
//! The tag for block `i` of the line at `addr` with write counter `ctr` is
//!
//! ```text
//! tag = AES_k( ct_block ⊕ AES_k(header(addr, ctr, i)) )[..8]
//! ```
//!
//! i.e. a one-block encrypted-header CBC-MAC truncated to 8 bytes. The
//! header binding means ciphertext relocated to another address, replayed
//! from an older counter epoch, or reordered within the line fails
//! verification just like a bit-flip does.

use crate::{Aes128, BLOCK_BYTES};

/// Bytes kept from the full AES output per block tag (64-bit tags, as in
/// GuardNN's per-line MAC budget).
pub const TAG_BYTES: usize = 8;

/// One truncated per-block MAC tag.
pub type BlockTag = [u8; TAG_BYTES];

/// Ciphertext plus its per-block integrity tags.
///
/// Fields are public so fault-injection harnesses can flip ciphertext or
/// tag bits and assert the flip is caught; production code should treat
/// the pair as opaque and only pass it to `decrypt_verified`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaggedCiphertext {
    /// The ciphertext bytes (same length as the plaintext).
    pub bytes: Vec<u8>,
    /// One tag per [`BLOCK_BYTES`] chunk of `bytes` (the final chunk may
    /// be partial; it is zero-padded for tag computation).
    pub tags: Vec<BlockTag>,
}

impl TaggedCiphertext {
    /// Flips bit `bit` (counting from byte 0, LSB first) of the
    /// ciphertext, wrapping around the buffer length. Returns the block
    /// index the flip landed in, or `None` for an empty ciphertext.
    ///
    /// This is the canonical tamper primitive used by the chaos suite: a
    /// deterministic single-bit bus error.
    pub fn flip_ciphertext_bit(&mut self, bit: u64) -> Option<usize> {
        if self.bytes.is_empty() {
            return None;
        }
        let total_bits = self.bytes.len() as u64 * 8;
        let bit = bit % total_bits;
        let byte = (bit / 8) as usize;
        self.bytes[byte] ^= 1u8 << (bit % 8);
        Some(byte / BLOCK_BYTES)
    }

    /// Flips one bit of the tag of block `block` (wrapping on both the
    /// block count and the tag width). Returns `false` for an empty
    /// ciphertext.
    pub fn flip_tag_bit(&mut self, block: u64, bit: u64) -> bool {
        if self.tags.is_empty() {
            return false;
        }
        let idx = (block % self.tags.len() as u64) as usize;
        let bit = bit % (TAG_BYTES as u64 * 8);
        let byte = (bit / 8) as usize;
        self.tags[idx][byte] ^= 1u8 << (bit % 8);
        true
    }
}

/// Header block binding a tag to its location and counter epoch.
fn header(addr: u64, ctr: u64, block_idx: u64) -> [u8; BLOCK_BYTES] {
    let mut h = [0u8; BLOCK_BYTES];
    // Mix the counter and block index into disjoint halves; the address
    // occupies the first half XORed with a domain constant so the header
    // can never collide with a CTR pad seed for the same line.
    h[..8].copy_from_slice(&(addr ^ 0x4D41_435F_5345_414C).to_le_bytes()); // "MAC_SEAL"
    h[8..].copy_from_slice(&(ctr.wrapping_mul(1 << 20) ^ block_idx.rotate_left(40)).to_le_bytes());
    h
}

/// Computes the truncated MAC tag of one ciphertext block.
///
/// `ct_block` may be shorter than [`BLOCK_BYTES`] (final partial chunk);
/// it is zero-padded, which is safe here because the plaintext length is
/// fixed by the caller's layout, not attacker-controlled.
pub fn block_tag(aes: &Aes128, addr: u64, ctr: u64, block_idx: u64, ct_block: &[u8]) -> BlockTag {
    let masked = aes.encrypt_block(&header(addr, ctr, block_idx));
    let mut input = [0u8; BLOCK_BYTES];
    input[..ct_block.len().min(BLOCK_BYTES)]
        .copy_from_slice(&ct_block[..ct_block.len().min(BLOCK_BYTES)]);
    for (b, m) in input.iter_mut().zip(masked.iter()) {
        *b ^= m;
    }
    let full = aes.encrypt_block(&input);
    let mut tag = [0u8; TAG_BYTES];
    tag.copy_from_slice(&full[..TAG_BYTES]);
    tag
}

/// Computes the tags for every [`BLOCK_BYTES`] chunk of `bytes`.
pub fn tag_buffer(aes: &Aes128, addr: u64, ctr: u64, bytes: &[u8]) -> Vec<BlockTag> {
    bytes
        .chunks(BLOCK_BYTES)
        .enumerate()
        .map(|(i, chunk)| block_tag(aes, addr, ctr, i as u64, chunk))
        .collect()
}

/// Index of the first chunk of `bytes` whose recomputed tag differs from
/// the stored one (also flags a tag-count mismatch as block 0).
pub fn first_bad_block(
    aes: &Aes128,
    addr: u64,
    ctr: u64,
    bytes: &[u8],
    tags: &[BlockTag],
) -> Option<usize> {
    let chunks = bytes.len().div_ceil(BLOCK_BYTES);
    if tags.len() != chunks {
        return Some(0);
    }
    for (i, (chunk, tag)) in bytes.chunks(BLOCK_BYTES).zip(tags.iter()).enumerate() {
        if block_tag(aes, addr, ctr, i as u64, chunk) != *tag {
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Key128;

    fn aes() -> Aes128 {
        Aes128::new(&Key128::from_seed(99))
    }

    #[test]
    fn tags_are_deterministic_and_context_bound() {
        let aes = aes();
        let ct = [0x5Au8; 16];
        let t = block_tag(&aes, 0x1000, 3, 0, &ct);
        assert_eq!(t, block_tag(&aes, 0x1000, 3, 0, &ct));
        assert_ne!(t, block_tag(&aes, 0x2000, 3, 0, &ct), "address-bound");
        assert_ne!(t, block_tag(&aes, 0x1000, 4, 0, &ct), "counter-bound");
        assert_ne!(t, block_tag(&aes, 0x1000, 3, 1, &ct), "index-bound");
        assert_ne!(t, block_tag(&aes, 0x1000, 3, 0, &[0x5B; 16]), "data-bound");
    }

    #[test]
    fn buffer_tagging_covers_partial_tail() {
        let aes = aes();
        let bytes = vec![7u8; 40]; // 2.5 blocks → 3 tags
        let tags = tag_buffer(&aes, 0x40, 0, &bytes);
        assert_eq!(tags.len(), 3);
        assert_eq!(first_bad_block(&aes, 0x40, 0, &bytes, &tags), None);
    }

    #[test]
    fn any_single_bit_flip_is_caught() {
        let aes = aes();
        let bytes: Vec<u8> = (0..48).map(|i| i as u8).collect();
        let tags = tag_buffer(&aes, 0x80, 5, &bytes);
        for bit in 0..bytes.len() * 8 {
            let mut tampered = bytes.clone();
            tampered[bit / 8] ^= 1 << (bit % 8);
            let bad = first_bad_block(&aes, 0x80, 5, &tampered, &tags);
            assert_eq!(bad, Some(bit / 8 / BLOCK_BYTES), "bit {bit}");
        }
    }

    #[test]
    fn tag_count_mismatch_is_flagged() {
        let aes = aes();
        let bytes = vec![1u8; 32];
        let mut tags = tag_buffer(&aes, 0, 0, &bytes);
        tags.pop();
        assert_eq!(first_bad_block(&aes, 0, 0, &bytes, &tags), Some(0));
    }

    #[test]
    fn flip_helpers_wrap_and_report_block() {
        let mut tc = TaggedCiphertext {
            bytes: vec![0u8; 32],
            tags: vec![[0u8; TAG_BYTES]; 2],
        };
        assert_eq!(tc.flip_ciphertext_bit(17 * 8), Some(1));
        assert_eq!(tc.bytes[17], 1);
        assert_eq!(tc.flip_ciphertext_bit(32 * 8), Some(0), "wraps");
        assert!(tc.flip_tag_bit(5, 3));
        assert_eq!(tc.tags[1][0], 8);
        let mut empty = TaggedCiphertext {
            bytes: vec![],
            tags: vec![],
        };
        assert_eq!(empty.flip_ciphertext_bit(0), None);
        assert!(!empty.flip_tag_bit(0, 0));
    }
}
