//! Fixture: concurrency anti-patterns the old `lock-unwrap` rule flagged;
//! `clippy::unwrap_used` / `expect_used` report them now.
//! Panicking on a poisoned mutex or a dead worker turns one thread's
//! failure into a runtime-wide cascade.

use std::sync::{Mutex, RwLock};
use std::thread::JoinHandle;

/// Drains a shared queue, panicking if another holder poisoned the mutex.
fn drain_panicking(queue: &Mutex<Vec<u64>>) -> Vec<u64> {
    let mut guard = queue.lock().unwrap();
    guard.drain(..).collect()
}

/// Joins a worker thread, turning its panic into ours.
fn join_panicking(handle: JoinHandle<u64>) -> u64 {
    handle.join().expect("worker thread panicked")
}

/// Reads shared stats through an RwLock, panicking on poison.
fn snapshot_panicking(stats: &RwLock<u64>) -> u64 {
    *stats.read().unwrap()
}

/// The accepted idiom — recover the guard from a poisoned lock — must
/// stay clean.
fn drain_recovering(queue: &Mutex<Vec<u64>>) -> Vec<u64> {
    let mut guard = queue.lock().unwrap_or_else(|e| e.into_inner());
    guard.drain(..).collect()
}
