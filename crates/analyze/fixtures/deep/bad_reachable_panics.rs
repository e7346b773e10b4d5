//! Seeded panic-freedom violation: an `unwrap` and index arithmetic in a
//! helper reachable from the serve-loop root pattern (`worker_loop`).
//!
//! The `unwrap` carries another rule's `allow` so this file shows that
//! the reachability pass still fires: `allow(retry-backoff)` is not a
//! panic-freedom justification.

/// Root: matches the default panic-freedom root pattern.
fn worker_loop(q: &[u32]) -> u32 {
    let mut acc = 0;
    for i in 0..q.len() {
        acc += step(q, i);
    }
    acc
}

/// Reachable from the root; both sites below must be reported.
fn step(q: &[u32], i: usize) -> u32 {
    // seal-lint: allow(retry-backoff) — deep-pass seed; must not mask it
    let head = q.first().unwrap();
    head + q[i + 1]
}

/// Justified at fn granularity — the pass must stay silent here.
// seal-lint: allow(panic-freedom) — bound re-checked by every caller
fn checked_step(q: &[u32], i: usize) -> u32 {
    q[i + 1]
}

/// Not reachable from any root: no finding even though it can panic.
fn offline_tool(q: &[u32]) -> u32 {
    if q.is_empty() {
        // Deep-pass seed; unreachable from roots.
        panic!("empty queue");
    }
    q[0]
}
