//! The in-process front end: [`Server::submit`] hands a tensor to the
//! serving machine (`machine.rs`: breaker admission, the fair queue, the
//! one worker loop) as the single tenant of a one-tenant registry, and a
//! [`ResponseHandle`] waits on the request's one-shot reply cell.
//!
//! Every degradation is a *typed* rejection delivered through that cell —
//! a submitted request always learns its fate (success, shed, panic,
//! drain), never hangs — and a worker panic is recorded in the final
//! [`ServeStats`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

use seal_faults::RequestFault;
use seal_pool::SupervisorReport;
use seal_tensor::{Shape, Tensor};

use crate::breaker::BreakerStats;
use crate::cost::{FaultStats, SchemeSummary};
use crate::machine::{Machine, Origin};
use crate::metrics::{BatchStats, LatencyHistogram, QueueDepthStats};
use crate::tenant::{TenantRegistry, TenantState};
use crate::{locked, ServeError, ServerConfig};

/// The answer to one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Id assigned at submission.
    pub id: u64,
    /// Predicted class index.
    pub prediction: usize,
    /// Size of the batch this request rode in.
    pub batch_size: usize,
    /// Time spent queued before a worker picked the request up.
    pub queue_wait: Duration,
    /// Total latency from submission to prediction.
    pub latency: Duration,
}

/// What a local request and its [`ResponseHandle`] share: the outcome
/// once stored, and the waiting thread while it is parked.
///
/// **Store, then wake.** A worker [`store`](Reply::store)s the outcome of
/// every rider of a batch before it [`wake`](Reply::wake)s any of them,
/// and a wake unparks only a thread that is parked on that cell. So a
/// caller waiting on a batch's handles — in any order — is woken at most
/// once per batch: when it runs again, every sibling outcome is already
/// in place and it never parks on them. No wake is lost: the waiter
/// checks for the outcome and registers itself under one lock, and the
/// store takes that lock too, so a store either comes first (the waiter
/// never parks) or finds the waiter registered, for the wake pass to
/// unpark.
#[derive(Debug, Default)]
struct ReplyCell {
    slot: Mutex<Slot>,
}

#[derive(Debug, Default)]
struct Slot {
    outcome: Option<Result<Response, ServeError>>,
    /// Nothing more will arrive: the outcome was stored, or its
    /// [`Reply`] was dropped unanswered.
    closed: bool,
    /// The waiter, while it is parked on this cell.
    parked: Option<Thread>,
}

/// The worker's end of a reply cell, riding in the queued request. A
/// `Reply` dropped unanswered — its worker died holding it — closes the
/// cell, and the handle resolves as [`ServeError::WorkerLost`].
#[derive(Debug)]
pub(crate) struct Reply(Arc<ReplyCell>);

impl Reply {
    /// Stores the request's fate; the first store wins. Wakes no one.
    pub(crate) fn store(&self, outcome: Result<Response, ServeError>) {
        let mut slot = locked(&self.0.slot);
        if !slot.closed {
            (slot.outcome, slot.closed) = (Some(outcome), true);
        }
        #[cfg(test)]
        REPLY_TRACE.with(|t| t.borrow_mut().push('S'));
    }

    /// Unparks the waiter if one is parked on this cell.
    pub(crate) fn wake(&self) {
        let parked = locked(&self.0.slot).parked.take();
        if let Some(waiter) = parked {
            waiter.unpark();
            #[cfg(test)]
            REPLY_TRACE.with(|t| t.borrow_mut().push('W'));
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        locked(&self.0.slot).closed = true;
        self.wake();
    }
}

#[cfg(test)]
thread_local! {
    /// Test hook: what this thread's [`Reply`]s did, in order — `S` a
    /// store, `W` a wake that unparked a waiter.
    pub(crate) static REPLY_TRACE: std::cell::RefCell<String> = const { std::cell::RefCell::new(String::new()) };
}

/// Client-side handle to an in-flight request.
#[derive(Debug)]
pub struct ResponseHandle {
    id: u64,
    cell: Arc<ReplyCell>,
}

impl ResponseHandle {
    /// A fresh handle and the [`Reply`] its request carries.
    pub(crate) fn new(id: u64) -> (ResponseHandle, Reply) {
        let cell = Arc::new(ReplyCell::default());
        (
            ResponseHandle {
                id,
                cell: Arc::clone(&cell),
            },
            Reply(cell),
        )
    }

    /// Test hook: reports whether a thread is parked on this handle's
    /// cell, after the handle itself has moved to that thread.
    #[cfg(test)]
    pub(crate) fn parked_probe(&self) -> impl Fn() -> bool + Send + 'static {
        let cell = Arc::clone(&self.cell);
        move || locked(&cell.slot).parked.is_some()
    }

    /// Parks until the outcome is stored, the cell closes, or `timeout`
    /// (`None`: never) elapses.
    fn wait_for(self, timeout: Option<Duration>) -> Result<Response, ServeError> {
        let deadline = timeout.map(|waited| (Instant::now() + waited, waited));
        loop {
            let mut slot = locked(&self.cell.slot);
            // Registered only while parked, so no later wake is stale.
            slot.parked = None;
            if let Some(outcome) = slot.outcome.take() {
                return outcome;
            }
            if slot.closed {
                return Err(ServeError::WorkerLost {
                    request_id: self.id,
                });
            }
            let now = Instant::now();
            if let Some((_, waited)) = deadline.filter(|&(due, _)| now >= due) {
                return Err(ServeError::ResponseTimeout {
                    request_id: self.id,
                    waited,
                });
            }
            slot.parked = Some(std::thread::current());
            drop(slot);
            // A wake meant for another cell, or a spurious one, just
            // goes round the loop again.
            match deadline {
                Some((due, _)) => std::thread::park_timeout(due - now),
                None => std::thread::park(),
            }
        }
    }

    /// The request id this handle waits on.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the request resolves.
    ///
    /// # Errors
    ///
    /// The request's typed fate: [`ServeError::DeadlineExceeded`] if shed,
    /// [`ServeError::WorkerPanicked`] if its worker hit a planned panic,
    /// [`ServeError::DrainedAtShutdown`] if shutdown drained it, or
    /// [`ServeError::WorkerLost`] if the worker died without answering.
    pub fn wait(self) -> Result<Response, ServeError> {
        self.wait_for(None)
    }

    /// [`wait`](Self::wait) bounded by `timeout`: converts a would-be hang
    /// into a typed [`ServeError::ResponseTimeout`]. The chaos harness
    /// waits this way so "server never hangs" is a checkable property.
    ///
    /// # Errors
    ///
    /// Everything [`wait`](Self::wait) returns, plus
    /// [`ServeError::ResponseTimeout`] when `timeout` elapses first.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Response, ServeError> {
        self.wait_for(Some(timeout))
    }
}

/// Final runtime statistics returned by [`Server::shutdown`].
#[derive(Debug)]
pub struct ServeStats {
    /// Server-side per-request latency (all completed requests).
    pub latency: LatencyHistogram,
    /// Batch-size statistics across all workers.
    pub batches: BatchStats,
    /// Queue depth observed at each submission.
    pub queue_depth: QueueDepthStats,
    /// Per-scheme virtual cost accounting for the realized batch stream.
    pub schemes: Vec<SchemeSummary>,
    /// Typed model/worker errors encountered while serving (empty on a
    /// clean run).
    pub worker_errors: Vec<ServeError>,
    /// Requests shed past their deadline (each got a typed
    /// [`ServeError::DeadlineExceeded`]).
    pub shed: u64,
    /// Requests rejected by an injected worker panic (each got a typed
    /// [`ServeError::WorkerPanicked`] *before* the panic unwound).
    pub panicked: u64,
    /// Requests still queued when the last worker exited, drained with a
    /// typed [`ServeError::DrainedAtShutdown`] instead of being dropped.
    pub drained: u64,
    /// Panic/respawn/quarantine history aggregated across all supervised
    /// workers.
    pub supervision: SupervisorReport,
    /// Circuit-breaker trip/rejection/probe counters.
    pub breaker: BreakerStats,
    /// Injected-fault and recovery accounting from the cost model's chaos
    /// schedule (`None` when the server ran without fault injection).
    pub faults: Option<FaultStats>,
    /// The GEMM kernel mode this process resolves (`SEAL_KERNEL`
    /// spelling: `scalar|avx2|avx512|fma`).
    pub kernel_mode: &'static str,
    /// The int8 micro-kernel that mode dispatches to on this host
    /// (`scalar|avx2|vnni`).
    pub int8_kernel: &'static str,
}

/// A running inference server.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Machine>,
    next_id: AtomicU64,
}

impl Server {
    /// Validates `config`, loads the model, builds the per-scheme cost
    /// lanes and spawns the supervised worker pool.
    ///
    /// # Errors
    ///
    /// Propagates configuration, model-zoo and cost-model failures;
    /// [`ServeError::WorkerSpawn`] if a worker thread cannot start.
    pub fn start(config: ServerConfig) -> Result<Self, ServeError> {
        config.validate()?;
        let registry = Arc::new(TenantRegistry::solo(&config)?);
        // One lane whose DRR credit covers a whole batch, so scheduling
        // never caps what the batching rule would take.
        let quantum = config.max_batch as u64;
        let shared = Machine::new(config, registry, quantum);
        shared.spawn_workers("seal-serve-worker")?;
        Ok(Server {
            shared,
            next_id: AtomicU64::new(0),
        })
    }

    /// The solo tenant everything is served and accounted under.
    fn tenant(&self) -> &TenantState {
        self.shared.registry.by_index(0)
    }

    /// The configuration this server was started with.
    pub fn config(&self) -> &ServerConfig {
        &self.shared.config
    }

    /// Per-sample input shape requests must match.
    pub fn input_shape(&self) -> &Shape {
        self.tenant().model().input_shape()
    }

    /// Draws a deterministic random request input for this model.
    pub fn sample_input(&self, rng: &mut seal_tensor::rng::rngs::StdRng) -> Tensor {
        self.tenant().model().sample(rng)
    }

    /// Submits one sample for classification.
    ///
    /// Never blocks: if the bounded queue is at capacity the request is
    /// refused with [`ServeError::QueueFull`] — that is the backpressure
    /// contract callers build retry/drop policies on.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShapeMismatch`] for a wrongly-shaped input,
    /// [`ServeError::CircuitOpen`] while the breaker refuses admission,
    /// [`ServeError::QueueFull`] under backpressure and
    /// [`ServeError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, input: Tensor) -> Result<ResponseHandle, ServeError> {
        self.submit_with_fault(input, None)
    }

    /// [`submit`](Self::submit) with a planned chaos fault riding on the
    /// request: `WorkerPanic` poisons the serving worker, `Slow` inflates
    /// its batch's service time, `DeadlineBust` makes the request born
    /// expired so it is guaranteed to be shed.
    pub fn submit_with_fault(
        &self,
        input: Tensor,
        fault: Option<RequestFault>,
    ) -> Result<ResponseHandle, ServeError> {
        if input.shape() != self.input_shape() {
            return Err(ServeError::ShapeMismatch {
                got: input.shape().to_string(),
                want: self.input_shape().to_string(),
            });
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (handle, reply) = ResponseHandle::new(id);
        self.shared
            .admit(0, id, fault, Origin::Local { input, reply })?;
        Ok(handle)
    }

    /// Stops accepting work, lets the workers drain the queue, joins every
    /// supervisor and returns the collected statistics — including a drain
    /// report for any request no worker was left to serve.
    ///
    /// # Errors
    ///
    /// This method itself does not fail; model errors and worker panics
    /// encountered while serving are reported in
    /// [`ServeStats::worker_errors`] and [`ServeStats::supervision`].
    pub fn shutdown(self) -> Result<ServeStats, ServeError> {
        let (supervision, drained, worker_errors) = self.shared.stop();
        let tenant = self.tenant();
        let cost = locked(&tenant.cost);
        let mode = seal_tensor::ops::kernel_mode();
        Ok(ServeStats {
            // Taken, not cloned: the histogram holds every sample.
            latency: std::mem::take(&mut *locked(&tenant.latency)),
            batches: *locked(&self.shared.batches),
            queue_depth: self.shared.queue.depth_stats(),
            schemes: cost.summaries(),
            worker_errors,
            shed: tenant.shed.load(Ordering::Relaxed),
            panicked: self.shared.panicked.load(Ordering::Relaxed),
            drained,
            supervision,
            breaker: locked(&tenant.breaker).stats(),
            faults: cost.fault_stats(),
            kernel_mode: mode.name(),
            int8_kernel: seal_tensor::ops::i8_kernel_name(mode),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_tensor::rng::rngs::StdRng;
    use seal_tensor::rng::SeedableRng;

    fn mlp_config() -> ServerConfig {
        ServerConfig {
            model: "mlp".into(),
            workers: 2,
            max_batch: 4,
            batch_deadline: Duration::from_micros(200),
            queue_capacity: 32,
            ..ServerConfig::smoke()
        }
    }

    #[test]
    fn submit_answer_shutdown_roundtrip() {
        let server = Server::start(mlp_config()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let handles: Vec<ResponseHandle> = (0..10)
            .map(|_| server.submit(server.sample_input(&mut rng)).unwrap())
            .collect();
        for h in handles {
            let r = h.wait().unwrap();
            assert!(r.prediction < 10);
            assert!(r.queue_wait <= r.latency);
            assert!(r.batch_size >= 1);
        }
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.latency.len(), 10);
        assert_eq!(stats.batches.samples, 10);
        assert!(stats.worker_errors.is_empty());
        assert_eq!((stats.shed, stats.panicked, stats.drained), (0, 0, 0));
        assert_eq!(stats.supervision, SupervisorReport::default());
        assert!(stats.faults.is_none(), "no chaos schedule was armed");
    }

    #[test]
    fn wrong_shape_is_rejected_at_submission() {
        let server = Server::start(mlp_config()).unwrap();
        let bad = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        match server.submit(bad) {
            Err(ServeError::ShapeMismatch { got, want }) => {
                assert_ne!(got, want);
            }
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
        server.shutdown().unwrap();
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        let mut config = mlp_config();
        config.workers = 1;
        let server = Server::start(config).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let handles: Vec<ResponseHandle> = (0..8)
            .map(|_| server.submit(server.sample_input(&mut rng)).unwrap())
            .collect();
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.batches.samples, 8, "shutdown must drain the queue");
        assert_eq!(stats.drained, 0, "a live worker served everything");
        for h in handles {
            h.wait().unwrap();
        }
    }

    #[test]
    fn submissions_after_shutdown_are_refused() {
        let server = Server::start(mlp_config()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let probe = server.sample_input(&mut rng);
        server.shared.queue.close();
        assert!(matches!(
            server.submit(probe),
            Err(ServeError::ShuttingDown)
        ));
        server.shutdown().unwrap();
    }

    #[test]
    fn deadline_bust_is_shed_with_a_typed_rejection() {
        let server = Server::start(mlp_config()).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let h = server
            .submit_with_fault(
                server.sample_input(&mut rng),
                Some(RequestFault::DeadlineBust),
            )
            .unwrap();
        match h.wait() {
            Err(ServeError::DeadlineExceeded { deadline, .. }) => {
                assert_eq!(deadline, Duration::ZERO, "born expired");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // A healthy request behind the shed one is still served.
        let ok = server.submit(server.sample_input(&mut rng)).unwrap();
        ok.wait().unwrap();
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.batches.samples, 1, "shed requests are never costed");
    }

    #[test]
    fn breaker_trips_sheds_then_recovers_via_probe() {
        let mut config = mlp_config();
        config.breaker_trip_threshold = 1;
        config.breaker_probe_interval = 1;
        let server = Server::start(config).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        // One shed trips the threshold-1 breaker...
        let h = server
            .submit_with_fault(
                server.sample_input(&mut rng),
                Some(RequestFault::DeadlineBust),
            )
            .unwrap();
        assert!(matches!(h.wait(), Err(ServeError::DeadlineExceeded { .. })));
        // ...so the next submission is refused at admission...
        match server.submit(server.sample_input(&mut rng)) {
            Err(ServeError::CircuitOpen { shed_streak }) => assert_eq!(shed_streak, 1),
            other => panic!("expected CircuitOpen, got {other:?}"),
        }
        // ...which half-opens it (probe_interval 1): the probe is admitted
        // and its success closes the breaker again.
        let probe = server.submit(server.sample_input(&mut rng)).unwrap();
        probe.wait().unwrap();
        let after = server.submit(server.sample_input(&mut rng)).unwrap();
        after.wait().unwrap();
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.breaker.trips, 1);
        assert_eq!(stats.breaker.rejections, 1);
        assert_eq!(stats.breaker.probes, 1);
    }

    #[test]
    fn injected_panic_rejects_its_request_and_respawns_the_worker() {
        let mut config = mlp_config();
        config.workers = 1;
        let server = Server::start(config).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let poisoned = server
            .submit_with_fault(
                server.sample_input(&mut rng),
                Some(RequestFault::WorkerPanic),
            )
            .unwrap();
        let pid = poisoned.id();
        match poisoned.wait() {
            Err(ServeError::WorkerPanicked { request_id }) => assert_eq!(request_id, pid),
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        // The respawned worker keeps serving.
        let ok = server.submit(server.sample_input(&mut rng)).unwrap();
        ok.wait().unwrap();
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.panicked, 1);
        assert_eq!(stats.supervision.panics, 1);
        assert_eq!(stats.supervision.respawns, 1);
        assert!(!stats.supervision.quarantined);
    }

    #[test]
    fn quarantined_pool_drains_leftovers_with_typed_rejections() {
        let mut config = mlp_config();
        config.workers = 1;
        config.worker_respawn_budget = 0; // first panic quarantines
        let server = Server::start(config).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let poisoned = server
            .submit_with_fault(
                server.sample_input(&mut rng),
                Some(RequestFault::WorkerPanic),
            )
            .unwrap();
        assert!(matches!(
            poisoned.wait(),
            Err(ServeError::WorkerPanicked { .. })
        ));
        // With the only worker quarantined, these can never be served —
        // shutdown must drain them with a typed rejection, not drop them.
        let orphans: Vec<ResponseHandle> = (0..5)
            .map(|_| server.submit(server.sample_input(&mut rng)).unwrap())
            .collect();
        let stats = server.shutdown().unwrap();
        assert!(stats.supervision.quarantined);
        assert_eq!(stats.drained, 5);
        for h in orphans {
            let id = h.id();
            match h.wait() {
                Err(ServeError::DrainedAtShutdown { request_id }) => assert_eq!(request_id, id),
                other => panic!("expected DrainedAtShutdown, got {other:?}"),
            }
        }
    }
}
