//! The serving runtime: supervised worker pool, request lifecycle with
//! deadline shedding and circuit-breaker admission, drain-at-shutdown.
//!
//! ```text
//!  submit() ─► breaker.admit ─► BoundedQueue ─► worker: pop_batch_with
//!     │           │                  │             ├─ shed expired  ──► Err(DeadlineExceeded)
//!     │      CircuitOpen        QueueFull          ├─ poisoned      ──► Err(WorkerPanicked) + panic
//!     │                                            └─ healthy ─► infer ─► CostModel ─► Ok(Response)
//!     └◄── ResponseHandle ◄── per-request mpsc<Result<Response, ServeError>>
//! ```
//!
//! Every degradation is a *typed* rejection delivered on the request's
//! channel — a submitted request always learns its fate (success, shed,
//! panic, drain), never hangs. Workers run under `seal-pool`'s panic
//! supervisor: an injected or organic panic is caught, the worker
//! respawned (until its budget quarantines it), and the panic recorded in
//! the final [`ServeStats`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use seal_faults::RequestFault;
use seal_pool::{spawn_supervised, SupervisedWorker, SupervisorReport};
use seal_tensor::{Shape, Tensor};

use crate::breaker::{BreakerStats, CircuitBreaker};
use crate::cost::{CostModel, FaultStats, SchemeSummary};
use crate::metrics::{BatchStats, LatencyHistogram, QueueDepthStats};
use crate::queue::{BoundedQueue, PushRefused};
use crate::{ServeError, ServedModel, ServerConfig};

/// Poison-recovering lock: metrics and cost state stay valid after any
/// worker panic, so the guard is always usable.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One queued inference request.
#[derive(Debug)]
struct Request {
    id: u64,
    input: Tensor,
    enqueued: Instant,
    /// Absolute shed deadline; `None` = serve no matter how late. An
    /// injected deadline-bust request is born with `deadline == enqueued`,
    /// i.e. already expired.
    deadline: Option<Instant>,
    /// Chaos fault riding on this request, if any.
    fault: Option<RequestFault>,
    tx: mpsc::Sender<Result<Response, ServeError>>,
}

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

/// Client-side handle to an in-flight request.
#[derive(Debug)]
pub struct ResponseHandle {
    id: u64,
    rx: mpsc::Receiver<Result<Response, ServeError>>,
}

impl ResponseHandle {
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
        self.rx
            .recv()
            .map_err(|_| ServeError::WorkerLost { request_id: self.id })?
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
        match self.rx.recv_timeout(timeout) {
            Ok(outcome) => outcome,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ServeError::ResponseTimeout {
                request_id: self.id,
                waited: timeout,
            }),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Err(ServeError::WorkerLost { request_id: self.id })
            }
        }
    }
}

/// Everything the workers share.
#[derive(Debug)]
struct Shared {
    queue: BoundedQueue<Request>,
    model: ServedModel,
    cost: Mutex<CostModel>,
    latency: Mutex<LatencyHistogram>,
    batches: Mutex<BatchStats>,
    errors: Mutex<Vec<ServeError>>,
    breaker: Mutex<CircuitBreaker>,
    shed: AtomicU64,
    panicked: AtomicU64,
    slow_delay: Duration,
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
    shared: Arc<Shared>,
    workers: Vec<SupervisedWorker>,
    next_id: AtomicU64,
    config: ServerConfig,
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
        if config.kernel_threads > 0 {
            // Best-effort: the kernel pool is process-global and
            // first-configuration-wins; a later server (or an earlier
            // SEAL_THREADS resolution) keeping its setting is fine
            // because outputs are thread-count independent.
            let _ = seal_pool::configure(config.kernel_threads);
        }
        let model = ServedModel::load(&config.model, config.seed)?;
        let cost = CostModel::new(model.topology(), &config)?;
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            model,
            cost: Mutex::new(cost),
            latency: Mutex::new(LatencyHistogram::new()),
            batches: Mutex::new(BatchStats::default()),
            errors: Mutex::new(Vec::new()),
            breaker: Mutex::new(CircuitBreaker::new(
                config.breaker_trip_threshold,
                config.breaker_probe_interval,
            )),
            shed: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            slow_delay: config.chaos_slow_delay,
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let max_batch = config.max_batch;
                let deadline = config.batch_deadline;
                let use_plan = config.use_plan;
                let quantized = config.quantized;
                spawn_supervised(
                    format!("seal-serve-worker-{i}"),
                    config.worker_respawn_budget,
                    move || worker_loop(&shared, max_batch, deadline, use_plan, quantized),
                )
                .map_err(|e| ServeError::WorkerSpawn {
                    worker: i,
                    source: e,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Server {
            shared,
            workers,
            next_id: AtomicU64::new(0),
            config,
        })
    }

    /// The configuration this server was started with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Per-sample input shape requests must match.
    pub fn input_shape(&self) -> &Shape {
        self.shared.model.input_shape()
    }

    /// Draws a deterministic random request input for this model.
    pub fn sample_input(&self, rng: &mut seal_tensor::rng::rngs::StdRng) -> Tensor {
        self.shared.model.sample(rng)
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
        if input.shape() != self.shared.model.input_shape() {
            return Err(ServeError::ShapeMismatch {
                got: input.shape().to_string(),
                want: self.shared.model.input_shape().to_string(),
            });
        }
        locked(&self.shared.breaker)
            .admit()
            .map_err(|shed_streak| ServeError::CircuitOpen { shed_streak })?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        let enqueued = Instant::now();
        let deadline = if fault == Some(RequestFault::DeadlineBust) {
            Some(enqueued)
        } else if self.config.request_deadline > Duration::ZERO {
            Some(enqueued + self.config.request_deadline)
        } else {
            None
        };
        let request = Request {
            id,
            input,
            enqueued,
            deadline,
            fault,
            tx,
        };
        self.shared.queue.try_push(request).map_err(|(_, why)| match why {
            PushRefused::Full => ServeError::QueueFull {
                capacity: self.shared.queue.capacity(),
            },
            PushRefused::Closed => ServeError::ShuttingDown,
        })?;
        Ok(ResponseHandle { id, rx })
    }

    /// Requests served so far plus those still queued or in flight.
    pub fn submitted(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
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
        self.shared.queue.close();
        let mut supervision = SupervisorReport::default();
        for w in self.workers {
            let report = w.join();
            supervision.panics += report.panics;
            supervision.respawns += report.respawns;
            supervision.quarantined |= report.quarantined;
            if report.last_panic.is_some() {
                supervision.last_panic = report.last_panic;
            }
        }
        // Workers drain the closed queue before exiting, so leftovers only
        // exist when every worker quarantined; they are rejected with a
        // typed error, never silently dropped.
        let leftovers = self.shared.queue.drain_remaining();
        let drained = leftovers.len() as u64;
        for request in leftovers {
            let _ = request.tx.send(Err(ServeError::DrainedAtShutdown {
                request_id: request.id,
            }));
        }
        let latency = locked(&self.shared.latency).clone();
        let batches = *locked(&self.shared.batches);
        let cost = locked(&self.shared.cost);
        let schemes = cost.summaries();
        let faults = cost.fault_stats();
        drop(cost);
        let worker_errors = std::mem::take(&mut *locked(&self.shared.errors));
        let mode = seal_tensor::ops::kernel_mode();
        Ok(ServeStats {
            latency,
            batches,
            queue_depth: self.shared.queue.depth_stats(),
            schemes,
            worker_errors,
            shed: self.shared.shed.load(Ordering::Relaxed),
            panicked: self.shared.panicked.load(Ordering::Relaxed),
            drained,
            supervision,
            breaker: locked(&self.shared.breaker).stats(),
            faults,
            kernel_mode: mode.name(),
            int8_kernel: seal_tensor::ops::i8_kernel_name(mode),
        })
    }
}

/// A worker: assemble a batch, shed the expired, honour planned faults,
/// run the rest, price them, answer every rider.
///
/// With `use_plan` the worker compiles one inference plan at startup
/// (weights pre-packed, arena pre-sized; rebuilt after a supervised
/// respawn) and serves every batch through it — bitwise identical
/// predictions, no steady-state allocation. A plan that fails to compile
/// is recorded once and the worker falls back to `forward_infer`.
/// With `quantized` the plan runs the deterministic int8 path instead
/// (bounded quantization error, lanes priced at int8 traffic).
fn worker_loop(
    shared: &Shared,
    max_batch: usize,
    deadline: Duration,
    use_plan: bool,
    quantized: bool,
) {
    let mut plan = if use_plan {
        match shared.model.compile_plan(max_batch, quantized) {
            Ok(plan) => Some(plan),
            Err(e) => {
                locked(&shared.errors).push(e);
                None
            }
        }
    } else {
        None
    };
    let poisoned = |r: &Request| r.fault == Some(RequestFault::WorkerPanic);
    while let Some(batch) = shared.queue.pop_batch_with(max_batch, deadline, poisoned) {
        let picked_up = Instant::now();
        // Load shedding: an expired request gets a typed rejection and the
        // breaker hears about it; it never holds up the healthy remainder.
        let mut live = Vec::with_capacity(batch.len());
        for request in batch {
            match request.deadline {
                Some(dl) if picked_up >= dl => {
                    shared.shed.fetch_add(1, Ordering::Relaxed);
                    locked(&shared.breaker).on_shed();
                    let _ = request.tx.send(Err(ServeError::DeadlineExceeded {
                        request_id: request.id,
                        waited: picked_up.duration_since(request.enqueued),
                        deadline: dl.duration_since(request.enqueued),
                    }));
                }
                _ => live.push(request),
            }
        }
        let Some(first) = live.first() else { continue };
        // Poisoned requests arrive as singleton batches (queue barrier).
        // The rider is told *before* the panic unwinds, so it can never
        // hang on a dead worker; the supervisor respawns this loop.
        if poisoned(first) {
            let request = live.swap_remove(0);
            shared.panicked.fetch_add(1, Ordering::Relaxed);
            let _ = request.tx.send(Err(ServeError::WorkerPanicked {
                request_id: request.id,
            }));
            // This panic IS the injected fault — the supervisor's
            // catch/respawn path is the code under test.
            // seal-lint: allow(panic, panic-freedom)
            panic!("injected panic serving request {}", request.id);
        }
        // An injected slow request inflates its whole batch's service time.
        if shared.slow_delay > Duration::ZERO
            && live.iter().any(|r| r.fault == Some(RequestFault::Slow))
        {
            std::thread::sleep(shared.slow_delay);
        }
        let batch_size = live.len();
        let inputs: Vec<&Tensor> = live.iter().map(|r| &r.input).collect();
        let outcome = shared.model.concat_batch(&inputs).and_then(|t| match plan.as_mut() {
            Some(p) => Ok(p.classify(&t)?),
            None => shared.model.classify(&t),
        });
        drop(inputs);
        match outcome {
            Ok(predictions) => {
                locked(&shared.cost).cost_batch(batch_size);
                locked(&shared.batches).observe(batch_size);
                locked(&shared.breaker).on_success();
                let done = Instant::now();
                {
                    let mut latency = locked(&shared.latency);
                    for request in &live {
                        latency.record(done.duration_since(request.enqueued).as_micros() as u64);
                    }
                }
                for (request, prediction) in live.into_iter().zip(predictions) {
                    let latency = done.duration_since(request.enqueued);
                    // A dropped handle is fine — the server-side stats
                    // above already recorded the request.
                    let _ = request.tx.send(Ok(Response {
                        id: request.id,
                        prediction,
                        batch_size,
                        queue_wait: picked_up.duration_since(request.enqueued),
                        latency,
                    }));
                }
            }
            Err(e) => {
                // Dropping the requests' senders wakes every rider with
                // `WorkerLost`; the batch dies, the worker lives on.
                locked(&shared.errors).push(e);
            }
        }
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
    fn planned_and_unplanned_predictions_are_identical() {
        // Serving plans are compiled without fusion, so the planned path
        // must be bitwise identical to `forward_infer` — same predictions
        // for the same weights and inputs, on every zoo model.
        for model in crate::ZOO {
            let mut answers = Vec::new();
            for use_plan in [false, true] {
                let config = ServerConfig {
                    model: model.into(),
                    use_plan,
                    ..mlp_config()
                };
                let server = Server::start(config).unwrap();
                let mut rng = StdRng::seed_from_u64(99);
                let preds: Vec<usize> = (0..6)
                    .map(|_| server.submit(server.sample_input(&mut rng)).unwrap())
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.wait().unwrap().prediction)
                    .collect();
                let stats = server.shutdown().unwrap();
                assert!(
                    stats.worker_errors.is_empty(),
                    "{model}: plan compile/serve errors: {:?}",
                    stats.worker_errors
                );
                answers.push(preds);
            }
            assert_eq!(
                answers[0], answers[1],
                "{model}: planned predictions diverge from unplanned"
            );
        }
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
