//! Fixture: raw thread creation the old `thread-spawn` rule flagged;
//! `clippy.toml`'s `disallowed-methods` reports it now. Outside
//! `crates/pool/`, spawning threads directly bypasses the work-sharing
//! runtime's determinism contract (fixed chunk boundaries, panic-safe
//! join, the `SEAL_THREADS` override).

use std::thread;

/// Fires a detached worker, invisible to the pool's shutdown and panic
/// accounting.
fn detached_worker() -> thread::JoinHandle<()> {
    std::thread::spawn(|| {})
}

/// Hand-rolled scoped fan-out instead of `seal_pool::scoped_map`.
fn handrolled_fanout(items: &[u64]) -> u64 {
    let mut total = 0;
    thread::scope(|s| {
        let h = s.spawn(|| items.iter().sum::<u64>());
        total = h.join().unwrap_or(0);
    });
    total
}

/// The audited alternative — delegating to the pool — must stay clean.
/// (Here stubbed; the real entry points live in `seal-pool`.)
fn delegating(items: &[u64]) -> u64 {
    items.iter().sum()
}
