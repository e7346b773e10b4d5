//! Lint fixture: seeded truncating casts in a crypto hot-path file name.
//!
//! Like `seal-crypto`'s `aes.rs`, `ctr.rs` and `engine.rs`, the file
//! turns on `clippy::cast_possible_truncation`.

#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

/// Drops the top 32 bits — the seeded violation.
pub fn bad_counter_fold(counter: u64) -> u32 {
    counter as u32
}

/// Drops bits twice on one line.
pub fn bad_split(word: u64) -> (u8, u16) {
    (word as u8, word as u16)
}

/// Widening casts are fine.
#[expect(
    clippy::cast_possible_truncation,
    reason = "u64 to usize is lossless on the 64-bit hosts the workspace supports"
)]
pub fn good_widen(byte: u8) -> usize {
    byte as usize + (byte as u64 as usize)
}

/// Masked on purpose, suppressed.
pub fn masked_low_byte(word: u64) -> u8 {
    (word & 0xff) as u8 // masked: clippy sees the value fits
}
