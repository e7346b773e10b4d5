//! Lint fixture: a `#[cfg(test)]` struct field — a gated item that ends
//! in `,` with no brace of its own.
//!
//! The test region must end with the field: the gated line stays exempt,
//! and the violation seeded *after* the struct is still reported (the old
//! token scan once ran through the struct's closing brace and swallowed
//! the rest of the file).
//! Line numbers matter: update `expected.txt` when editing.

/// A cache with a test-only probe counter.
pub struct Cache {
    /// Resident lines.
    pub lines: Vec<u64>,
    #[cfg(test)]
    probes: std::cell::Cell<Option<u64>>,
}

/// Seeded violation after the gated field.
pub fn first_line(cache: &Cache) -> u64 {
    cache.lines.first().copied().unwrap()
}
