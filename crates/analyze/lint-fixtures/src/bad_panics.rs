//! Lint fixture: seeded panic-API and documentation violations.
//!
//! `scripts/check.sh` runs clippy on this file and asserts each seeded
//! finding is reported (and each suppression honoured).
//! Line numbers matter: update `expected.txt` when editing.

pub fn undocumented_public_api() -> u32 {
    let x: Option<u32> = Some(1);
    x.unwrap()
}

/// Documented, but full of panic-prone calls.
pub fn documented_but_panicky(input: Option<&str>) -> String {
    let s = input.expect("caller must pass input");
    if s.is_empty() {
        panic!("empty input");
    }
    s.to_string()
}

/// Unfinished work markers.
pub fn unfinished(flag: bool) -> u8 {
    if flag {
        todo!()
    } else {
        unimplemented!()
    }
}

/// A justified invariant, suppressed on the function.
#[expect(clippy::unwrap_used, reason = "a justified invariant")]
pub fn suppressed_inline() -> u32 {
    Some(7).unwrap()
}

/// A justified invariant, suppressed on the statement.
pub fn suppressed_above() -> u32 {
    #[expect(clippy::expect_used, reason = "static value is present")]
    let v = Some(7).expect("static value is present");
    v
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_unwrap_freely() {
        let v: Vec<u8> = Vec::new();
        assert!(v.first().copied().unwrap_or(0) == 0);
        Some(1).unwrap();
        Some(2).expect("fine in tests");
    }
}
