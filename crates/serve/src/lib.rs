//! # seal-serve — batched inference serving with encrypted-weight streaming
//!
//! A hermetic (std-only) serving runtime that turns the paper's memory-
//! encryption story into an end-to-end systems measurement. The runtime is
//! real — a hand-rolled worker pool pulls dynamic batches off a bounded
//! weighted-fair queue and runs each tenant's compiled inference plan — while
//! the memory encryption is virtual: every realized batch's weight and
//! feature-map traffic is priced under three schemes at once (no
//! encryption, full counter-mode, and SEAL smart encryption at the
//! configured ratio), each lane with its own AES engine pipeline, counter
//! cache and virtual clock. Because all lanes see the identical batch
//! stream, the paper's ordering — `Baseline < SEAL-C < Counter` in cycles
//! — shows up deterministically as serving latency and throughput.
//!
//! ## Layers
//!
//! | module | role |
//! |---|---|
//! | `machine` | the one serving machine: admission, request lifecycle, `worker_loop`, shed/drain/respawn |
//! | [`fair`] | the queue: per-tenant bounded lanes drained by deficit round-robin, deadline batching, poison barriers |
//! | [`server`] | the in-process front end: `submit` → per-request channel, one solo tenant |
//! | [`netserve`] | the TCP front end: seal-net reactor + frame admission + wire replies |
//! | [`breaker`] | event-counted circuit breaker gating admission |
//! | [`model`] | the zoo: reduced `Sequential` + full-size costing topology |
//! | [`cost`] | per-scheme virtual pipelines pricing each realized batch (and its fault recoveries) |
//! | [`metrics`] | latency percentiles, queue-depth and batch statistics |
//! | [`loadgen`] | closed-loop, open-loop and chaos load generators |
//! | [`arrivals`] | deterministic Pareto arrival schedules + tenant assignment |
//! | [`tenant`] | multi-tenant registry: per-tenant keys, counter windows, models, breakers |
//! | [`netload`] | open-loop TCP load generator with network-fault realisation |
//! | [`netreport`] | `results/serve_net.json` writer + net-smoke acceptance checks |
//! | [`report`] | `results/serve_*.json` writer + smoke acceptance checks |
//! | [`queue`] | `BoundedQueue`, a one-lane facade over [`fair`] kept for the benchmark ruler |
//!
//! ## Fault model
//!
//! With a [`seal_faults::FaultConfig`] armed in the [`ServerConfig`], the
//! server runs under a seed-deterministic chaos schedule: ciphertext
//! tampers (caught by per-block MACs, recovered with priced re-fetch
//! retries), engine stalls, counter miss storms, worker panics (caught by
//! the `seal-pool` supervisor and respawned), oversized/slow/deadline-bust
//! requests (rejected, delayed, shed). Degradation is a ladder — retry on
//! [`ServeError::QueueFull`], shed with [`ServeError::DeadlineExceeded`],
//! circuit-break with [`ServeError::CircuitOpen`] — and every rung is a
//! typed error, never a hang or a silently corrupted answer.
//!
//! ## Quick start
//!
//! ```
//! use seal_serve::{loadgen, Server, ServerConfig};
//!
//! let config = ServerConfig { model: "mlp".into(), ..ServerConfig::smoke() };
//! let server = Server::start(config).unwrap();
//! let load = loadgen::run_closed(&server, 8, 2, 42).unwrap();
//! let stats = server.shutdown().unwrap();
//! assert_eq!(load.completed, 8);
//! assert_eq!(stats.batches.samples, 8);
//! ```

pub mod arrivals;
pub mod breaker;
pub mod config;
pub mod cost;
pub mod error;
pub mod fair;
pub mod loadgen;
mod machine;
pub mod metrics;
pub mod model;
pub mod netload;
pub mod netreport;
pub mod netserve;
pub mod queue;
pub mod report;
pub mod server;
pub mod tenant;

pub use arrivals::{assign_tenants, ArrivalSchedule};
pub use breaker::{BreakerState, BreakerStats, CircuitBreaker};
pub use config::ServerConfig;
pub use cost::{CostModel, FaultStats, SchemeSummary, COSTED_SCHEMES};
pub use error::ServeError;
pub use fair::{FairBatch, FairQueue};
pub use loadgen::{ChaosReport, LoadMode, LoadReport};
pub use metrics::{BatchStats, LatencyHistogram, QueueDepthStats};
pub use model::{ServedModel, ZOO};
pub use netload::{
    run_drain, run_tcp, DrainLoadConfig, DrainLoadReport, NetLoadConfig, NetLoadReport, TenantLoad,
};
pub use netreport::{DrainPhase, NetPhase, NetSmoke};
pub use netserve::{NetServer, NetServerConfig, NetStats};
pub use queue::{BoundedQueue, PushRefused};
pub use report::{ChaosRun, ChaosSmoke, QuantComparison, QuantLaneDelta, ServeReport};
pub use server::{Response, ResponseHandle, ServeStats, Server};
pub use tenant::{TenantRegistry, TenantSpec, TenantState};

/// Poison-recovering lock: queue, metrics and cost state are plain data
/// that stay valid after any worker panic, so the guard is always usable
/// and a panicking worker never takes the runtime down with it.
pub(crate) fn locked<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The unit tests' allocator: counts the heap allocations of the threads
/// that ask for it (the `plan_zero_alloc.rs` pattern, per thread — the
/// tests of this crate run in parallel, and a wire test's reactor and
/// client allocate on threads of their own).
#[cfg(test)]
pub(crate) mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};

    thread_local! {
        // No destructor and no lazy initialiser: safe to touch from
        // inside the allocator at any point of a thread's life.
        static COUNTER: Cell<Option<&'static AtomicU64>> = const { Cell::new(None) };
    }

    /// From now on every allocation this thread makes bumps `counter`.
    pub fn count_this_thread(counter: &'static AtomicU64) {
        COUNTER.with(|c| c.set(Some(counter)));
    }

    struct Counting;

    fn note() {
        if let Ok(Some(counter)) = COUNTER.try_with(Cell::get) {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    // SAFETY: every call is forwarded unchanged to `System`; `note` only
    // reads a `const`-initialised thread-local and bumps an atomic, so it
    // neither allocates nor unwinds.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note();
            // SAFETY: the caller's contract for `alloc`, passed through.
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            note();
            // SAFETY: the caller's contract for `alloc_zeroed`, passed through.
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note();
            // SAFETY: the caller's contract for `realloc`, passed through.
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: the caller's contract for `dealloc`, passed through.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;
}
