//! The one serving machine behind both front ends: one queue, one request
//! lifecycle, one worker loop (`admit → FairQueue → worker_loop → answer`;
//! DESIGN.md §6c draws it).
//!
//! [`Server`](crate::Server) runs it over a one-tenant registry and
//! answers through per-request reply cells; [`NetServer`](crate::NetServer)
//! runs it over the tenant table and answers with wire frames. Either
//! way a batch's answers are all stored before any is delivered, so a
//! batch costs each waiting thread (or connection) at most one wake. Every
//! degradation is a *typed* rejection delivered to the request's origin —
//! an admitted request always learns its fate (success, shed, panic,
//! drain), never hangs. Workers run under `seal-pool`'s panic supervisor:
//! an injected or organic panic is caught and the worker respawned (until
//! its budget quarantines it).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use seal_faults::RequestFault;
use seal_net::reactor::{ReplyBatch, Responder};
use seal_net::ConnId;
use seal_nn::CompiledModel;
use seal_pool::{spawn_supervised, SupervisedWorker, SupervisorReport};
use seal_tensor::rng::rngs::StdRng;
use seal_tensor::rng::SeedableRng;
use seal_tensor::Tensor;

use crate::fair::{FairBatch, FairQueue};
use crate::metrics::BatchStats;
use crate::queue::PushRefused;
use crate::server::{Reply, Response};
use crate::tenant::TenantRegistry;
use crate::{locked, netserve, ServeError, ServerConfig};

/// Where a request came from, which is where its answer goes.
#[derive(Debug)]
pub(crate) enum Origin {
    /// An in-process [`Server::submit`](crate::Server::submit): the input
    /// rides along, the answer goes to the caller's reply cell.
    Local { input: Tensor, reply: Reply },
    /// A wire frame: the worker derives the input from `user`, the answer
    /// is a frame for `conn` carrying `pad` filler bytes.
    Wire { conn: ConnId, user: u64, pad: u64 },
}

/// One queued inference request.
#[derive(Debug)]
pub(crate) struct Request {
    /// Server-assigned id (in-process) or the frame's `seq` (wire).
    id: u64,
    enqueued: Instant,
    /// Absolute shed deadline; `None` = serve no matter how late. An
    /// injected deadline-bust request is born with `deadline == enqueued`,
    /// i.e. already expired.
    deadline: Option<Instant>,
    /// Chaos fault riding on this request, if any.
    fault: Option<RequestFault>,
    origin: Origin,
}

impl Request {
    /// The deadline this request has missed if a worker picks it up at
    /// `picked_up` — the one shed rule: due *at or before* pick-up.
    fn missed(&self, picked_up: Instant) -> Option<Instant> {
        self.deadline.filter(|&deadline| picked_up >= deadline)
    }
}

/// Everything admission and the workers share.
#[derive(Debug)]
pub(crate) struct Machine {
    pub registry: Arc<TenantRegistry>,
    pub queue: FairQueue<Request>,
    /// Set once by the TCP front end, before any frame can be admitted.
    pub responder: OnceLock<Responder>,
    pub batches: Mutex<BatchStats>,
    pub panicked: AtomicU64,
    pub config: ServerConfig,
    errors: Mutex<Vec<ServeError>>,
    workers: Mutex<Vec<SupervisedWorker>>,
}

impl Machine {
    /// Sizes the kernel pool and builds the queue from an already
    /// validated `config`: `queue_capacity` split into one lane per tenant
    /// (so the lanes sum to the configured bound), drained with `quantum`
    /// DRR credit per unit weight.
    pub fn new(config: ServerConfig, registry: Arc<TenantRegistry>, quantum: u64) -> Arc<Machine> {
        let lane_capacity = (config.queue_capacity / registry.len().max(1)).max(1);
        if config.kernel_threads > 0 {
            // Best-effort: the kernel pool is process-global and
            // first-configuration-wins; a later server (or an earlier
            // SEAL_THREADS resolution) keeping its setting is fine
            // because outputs are thread-count independent.
            let _ = seal_pool::configure(config.kernel_threads);
        }
        Arc::new(Machine {
            queue: FairQueue::new(&registry.weights(), lane_capacity, quantum),
            registry,
            responder: OnceLock::new(),
            batches: Mutex::new(BatchStats::default()),
            panicked: AtomicU64::new(0),
            config,
            errors: Mutex::new(Vec::new()),
            workers: Mutex::new(Vec::new()),
        })
    }

    /// Spawns `config.workers` supervised [`worker_loop`]s named
    /// `<name>-<i>`; [`stop`](Self::stop) joins them.
    pub fn spawn_workers(self: &Arc<Self>, name: &str) -> Result<(), ServeError> {
        for i in 0..self.config.workers {
            let machine = Arc::clone(self);
            let run = move || worker_loop(&machine);
            let budget = self.config.worker_respawn_budget;
            let worker = spawn_supervised(format!("{name}-{i}"), budget, run)
                .map_err(|source| ServeError::WorkerSpawn { worker: i, source })?;
            locked(&self.workers).push(worker);
        }
        Ok(())
    }

    /// Admission: the tenant's breaker, then its lane. Never blocks and
    /// never touches a model. A refusal (`CircuitOpen`, `QueueFull`,
    /// `ShuttingDown`) is counted on the tenant.
    pub fn admit(
        &self,
        tenant_index: usize,
        id: u64,
        fault: Option<RequestFault>,
        origin: Origin,
    ) -> Result<(), ServeError> {
        let tenant = self.registry.by_index(tenant_index);
        if let Err(shed_streak) = locked(&tenant.breaker).admit() {
            tenant.rejected_breaker.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::CircuitOpen { shed_streak });
        }
        let enqueued = Instant::now();
        let deadline = if fault == Some(RequestFault::DeadlineBust) {
            Some(enqueued)
        } else if self.config.request_deadline > Duration::ZERO {
            // `ZERO` disables organic shedding (chaos presets rely on it:
            // whether a backlogged request beats a wall-clock deadline is
            // not a function of the fault seed).
            Some(enqueued + self.config.request_deadline)
        } else {
            None
        };
        let request = Request {
            id,
            enqueued,
            deadline,
            fault,
            origin,
        };
        let Err((_, why)) = self.queue.try_push(tenant_index, request) else {
            return Ok(());
        };
        match why {
            PushRefused::Full => {
                tenant.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
                let capacity = self.queue.per_tenant_capacity();
                Err(ServeError::QueueFull { capacity })
            }
            PushRefused::Closed => {
                tenant.rejected_drain.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::ShuttingDown)
            }
        }
    }

    /// Records a request's fate for wherever it came from — stored in a
    /// local caller's reply cell, encoded onto `replies` for a wire one —
    /// without waking anyone: the caller [`deliver`](Self::deliver)s the
    /// batch once every rider is answered.
    fn answer(
        &self,
        tenant: u32,
        request: &Request,
        outcome: Result<Response, ServeError>,
        replies: &mut ReplyBatch,
    ) {
        match &request.origin {
            // A dropped handle is fine — the server-side stats already
            // recorded the request.
            Origin::Local { reply, .. } => reply.store(outcome),
            Origin::Wire { conn, user, pad } => {
                let outcome = outcome.as_ref().map(|r| r.prediction);
                replies.push(*conn, |out| {
                    netserve::encode_reply(out, tenant, request.id, *user, *pad, outcome);
                });
            }
        }
    }

    /// Hands over the answers [`answer`](Self::answer) recorded for
    /// `riders`: wakes the local riders' parked waiters — only now, after
    /// the last store, so a caller waiting on several of them wakes once —
    /// and posts the wire replies to the reactor in one mailbox append, at
    /// most one wake and one socket write per connection.
    fn deliver(&self, riders: &[Request], replies: &mut ReplyBatch) {
        for request in riders {
            if let Origin::Local { reply, .. } = &request.origin {
                reply.wake();
            }
        }
        if let Some(responder) = self.responder.get() {
            responder.send(replies);
        }
    }

    /// Rejects everything still queued with a typed `DrainedAtShutdown`,
    /// counted per tenant in `rejected_drain`, and returns how many there
    /// were — never silently dropped. Workers drain a closed queue before
    /// exiting, so leftovers only exist when a drain window expired or
    /// every worker quarantined.
    pub fn drain_leftovers(&self) -> u64 {
        let mut drained = 0;
        let mut replies = ReplyBatch::new();
        for batch in self.queue.drain_remaining() {
            let tenant = self.registry.by_index(batch.tenant_index);
            for request in &batch.items {
                tenant.rejected_drain.fetch_add(1, Ordering::Relaxed);
                drained += 1;
                let gone = ServeError::DrainedAtShutdown {
                    request_id: request.id,
                };
                self.answer(batch.tenant, request, Err(gone), &mut replies);
            }
            self.deliver(&batch.items, &mut replies);
        }
        drained
    }

    /// Closes the queue, joins every worker, drains the leftovers and
    /// hands back `(merged supervision, drained, worker errors)`.
    pub fn stop(&self) -> (SupervisorReport, u64, Vec<ServeError>) {
        self.queue.close();
        let mut supervision = SupervisorReport::default();
        for w in std::mem::take(&mut *locked(&self.workers)) {
            let report = w.join();
            supervision.panics += report.panics;
            supervision.respawns += report.respawns;
            supervision.quarantined |= report.quarantined;
            if report.last_panic.is_some() {
                supervision.last_panic = report.last_panic;
            }
        }
        let drained = self.drain_leftovers();
        let errors = std::mem::take(&mut *locked(&self.errors));
        (supervision, drained, errors)
    }
}

/// What one worker keeps from batch to batch, so that a warm worker's
/// side of a wire batch allocates nothing.
struct Worker<'m> {
    m: &'m Machine,
    /// Per tenant: `None` until first needed, then `Some(None)` if the
    /// plan failed to compile (recorded once; its batches fail like a
    /// model error) or `Some(Some(plan))` — weights pre-packed, arena
    /// pre-sized; rebuilt after a supervised respawn.
    plans: Vec<Option<Option<CompiledModel>>>,
    /// The batch being served, `[riders, …]`: inputs are gathered here.
    input: Tensor,
    /// Its predicted classes.
    classes: Vec<usize>,
    /// Its wire replies, handed to the reactor in one piece.
    replies: ReplyBatch,
}

/// A worker: pop a single-tenant batch, serve it, deliver its answers.
pub(crate) fn worker_loop(m: &Machine) {
    let mut worker = Worker::new(m);
    let (max_batch, linger) = (m.config.max_batch, m.config.batch_deadline);
    // Each batch's rider list goes back to the queue to be refilled.
    let mut riders = Vec::new();
    while let Some(mut batch) = m.queue.pop_batch_with(max_batch, linger, poisoned, riders) {
        worker.handle(&mut batch);
        riders = batch.items;
    }
}

/// Poisoned requests arrive as singleton batches (queue barrier).
fn poisoned(r: &Request) -> bool {
    r.fault == Some(RequestFault::WorkerPanic)
}

impl<'m> Worker<'m> {
    fn new(m: &'m Machine) -> Self {
        let mut plans = Vec::new();
        plans.resize_with(m.registry.len(), || None);
        Worker {
            m,
            plans,
            input: Tensor::default(),
            classes: Vec::new(),
            replies: ReplyBatch::new(),
        }
    }

    /// Serves one batch, then delivers its answers.
    fn handle(&mut self, batch: &mut FairBatch<Request>) {
        self.serve(batch);
        self.m.deliver(&batch.items, &mut self.replies);
    }

    /// One batch: shed the expired, honour planned faults, run the rest
    /// through the tenant's plan, price them on the tenant's lanes,
    /// answer every rider (the caller delivers the answers). With
    /// `quantized` the plan runs the deterministic int8 path (lanes
    /// priced at int8 traffic).
    fn serve(&mut self, batch: &mut FairBatch<Request>) {
        let Worker {
            m,
            plans,
            input,
            classes,
            replies,
        } = self;
        let config = &m.config;
        let picked_up = Instant::now();
        // Lanes are built from the registry, one per tenant.
        let tenant = m.registry.by_index(batch.tenant_index);
        let tenant_id = batch.tenant;
        // Load shedding: an expired request gets a typed rejection and the
        // breaker hears about it; it never holds up the healthy remainder.
        // (Leaving the batch, a local rider's `Reply` drops — which wakes
        // its waiter.)
        batch.items.retain(|request| {
            let Some(deadline) = request.missed(picked_up) else {
                return true;
            };
            tenant.shed.fetch_add(1, Ordering::Relaxed);
            locked(&tenant.breaker).on_shed();
            let shed = ServeError::DeadlineExceeded {
                request_id: request.id,
                waited: picked_up.duration_since(request.enqueued),
                deadline: deadline.duration_since(request.enqueued),
            };
            m.answer(tenant_id, request, Err(shed), replies);
            false
        });
        let live = batch.items.as_slice();
        let Some(first) = live.first() else { return };
        // The rider is told *before* the panic unwinds, so it can never
        // hang on a dead worker; the supervisor respawns this loop.
        #[expect(
            clippy::panic,
            reason = "This panic IS the injected fault — the supervisor's \
                      catch/respawn path is the code under test."
        )]
        if poisoned(first) {
            m.panicked.fetch_add(1, Ordering::Relaxed);
            let request_id = first.id;
            let panicked = ServeError::WorkerPanicked { request_id };
            m.answer(tenant_id, first, Err(panicked), replies);
            m.deliver(std::slice::from_ref(first), replies);
            // seal-lint: allow(panic-freedom)
            panic!("injected panic serving request {request_id}");
        }
        // An injected slow request inflates its whole batch's service time.
        if config.chaos_slow_delay > Duration::ZERO
            && live.iter().any(|r| r.fault == Some(RequestFault::Slow))
        {
            std::thread::sleep(config.chaos_slow_delay);
        }
        let model = tenant.model();
        let plan = plans[batch.tenant_index].get_or_insert_with(|| {
            let compiled = model.compile_plan(config.max_batch, config.quantized);
            compiled.map_err(|e| locked(&m.errors).push(e)).ok()
        });
        let classified = plan.as_mut().and_then(|plan| {
            // One tensor for every tenant: a registry's tenants share one
            // model architecture, so this happens on a worker's first batch.
            if input.shape().dims().get(1..) != model.input_shape().dims().get(1..) {
                *input = Tensor::zeros(model.input_shape().clone());
            }
            input.resize_leading(live.len());
            let rows = input
                .as_mut_slice()
                .chunks_exact_mut(model.input_shape().volume());
            for (row, request) in rows.zip(live) {
                match &request.origin {
                    // `Server::submit` admitted only inputs of the model's shape.
                    Origin::Local { input, .. } => row.copy_from_slice(input.as_slice()),
                    // A wire user's input is a pure function of their id,
                    // so the whole 10^5-user workload is reproducible
                    // without shipping tensors.
                    Origin::Wire { user, .. } => {
                        model.sample_into(&mut StdRng::seed_from_u64(*user), row);
                    }
                }
            }
            let classified = plan.classify_into(input, classes);
            classified
                .map_err(|e| locked(&m.errors).push(e.into()))
                .ok()
        });
        if classified.is_none() {
            // The batch dies, the worker lives on: every rider learns its
            // worker lost it (a typed `REJECT_MODEL` on the wire).
            for r in live {
                let lost = ServeError::WorkerLost { request_id: r.id };
                m.answer(tenant_id, r, Err(lost), replies);
            }
            return;
        }
        let batch_size = live.len();
        locked(&tenant.cost).cost_batch(batch_size);
        locked(&m.batches).observe(batch_size);
        locked(&tenant.breaker).on_success();
        let done = Instant::now();
        {
            let mut latency = locked(&tenant.latency);
            for request in live {
                latency.record(done.duration_since(request.enqueued).as_micros() as u64);
            }
        }
        tenant
            .completed
            .fetch_add(batch_size as u64, Ordering::Relaxed);
        for (request, &prediction) in live.iter().zip(classes.iter()) {
            let response = Response {
                id: request.id,
                prediction,
                batch_size,
                queue_wait: picked_up.duration_since(request.enqueued),
                latency: done.duration_since(request.enqueued),
            };
            m.answer(tenant_id, request, Ok(response), replies);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::server::{ResponseHandle, REPLY_TRACE};

    #[test]
    fn a_deadline_equal_to_the_pick_up_instant_is_missed() {
        let now = Instant::now();
        let (_handle, reply) = ResponseHandle::new(0);
        let input = Tensor::zeros(seal_tensor::Shape::nchw(1, 1, 1, 1));
        let mut request = Request {
            id: 0,
            enqueued: now,
            deadline: Some(now),
            fault: None,
            origin: Origin::Local { input, reply },
        };
        assert_eq!(request.missed(now), Some(now), "due at pick-up is shed");
        request.deadline = Some(now + Duration::from_nanos(1));
        assert_eq!(request.missed(now), None, "due after pick-up is served");
        request.deadline = None;
        assert_eq!(request.missed(now + Duration::from_secs(3600)), None);
    }

    /// A machine with no worker threads of its own: these tests serve its
    /// batches on the test thread, so the reply trace is theirs.
    fn bare_machine() -> Arc<Machine> {
        let config = ServerConfig {
            model: "mlp".into(),
            max_batch: 8,
            queue_capacity: 64,
            ..ServerConfig::smoke()
        };
        let registry = Arc::new(TenantRegistry::solo(&config).unwrap());
        Machine::new(config, registry, 8)
    }

    /// Admits local requests `ids` and hands back their handles.
    fn admit_local(
        m: &Machine,
        ids: std::ops::Range<u64>,
        rng: &mut StdRng,
    ) -> Vec<ResponseHandle> {
        let model = m.registry.by_index(0).model();
        ids.map(|id| {
            let (handle, reply) = ResponseHandle::new(id);
            let input = model.sample(rng);
            m.admit(0, id, None, Origin::Local { input, reply })
                .unwrap();
            handle
        })
        .collect()
    }

    /// One thread waits on a batch's eight handles — in order, reversed,
    /// shuffled — and is parked on the first of them when the batch is
    /// served. The worker stores all eight answers before it wakes any,
    /// so that thread is woken exactly once per batch, and it still
    /// receives every answer on the right handle.
    #[test]
    fn a_batch_wakes_its_waiting_thread_once_in_any_wait_order() {
        let m = bare_machine();
        let mut worker = Worker::new(&m);
        let mut rng = StdRng::seed_from_u64(25);
        let orders: [Vec<usize>; 3] = [
            (0..8).collect(),
            (0..8).rev().collect(),
            vec![3, 7, 0, 5, 1, 6, 2, 4],
        ];
        for (b, order) in orders.iter().enumerate() {
            let base = 8 * b as u64;
            let mut handles: Vec<Option<ResponseHandle>> =
                admit_local(&m, base..base + 8, &mut rng)
                    .into_iter()
                    .map(Some)
                    .collect();
            let parked = handles[order[0]].as_ref().unwrap().parked_probe();
            let ordered: Vec<ResponseHandle> =
                order.iter().map(|&i| handles[i].take().unwrap()).collect();
            let waiter = seal_pool::spawn_worker("reply-waiter", move || {
                ordered
                    .into_iter()
                    .map(|h| (h.id(), h.wait()))
                    .collect::<Vec<_>>()
            })
            .unwrap();
            while !parked() {
                std::thread::yield_now();
            }
            REPLY_TRACE.with(|t| t.borrow_mut().clear());
            let mut batch = m
                .queue
                .pop_batch_with(8, Duration::ZERO, poisoned, Vec::new())
                .unwrap();
            worker.handle(&mut batch);
            let trace = REPLY_TRACE.with(|t| t.take());
            assert_eq!(
                trace, "SSSSSSSSW",
                "wait order {order:?}: one wake, after the last store"
            );
            let answers = waiter.join().unwrap();
            for ((id, outcome), &i) in answers.iter().zip(order) {
                assert_eq!(*id, base + i as u64);
                let response = outcome.as_ref().unwrap();
                assert_eq!((response.id, response.batch_size), (*id, 8));
            }
        }
    }

    /// A worker that dies holding a batch — the riders dropped during the
    /// unwind, unanswered — resolves every handle as `WorkerLost`, the
    /// waiting one included.
    #[test]
    fn riders_of_a_batch_lost_to_a_panic_resolve_as_worker_lost() {
        let m = bare_machine();
        let mut handles = admit_local(&m, 0..8, &mut StdRng::seed_from_u64(26));
        let last = handles.pop().unwrap();
        let parked = last.parked_probe();
        let waiter = seal_pool::spawn_worker("lost-waiter", move || last.wait()).unwrap();
        while !parked() {
            std::thread::yield_now();
        }
        let batch = m
            .queue
            .pop_batch_with(8, Duration::ZERO, poisoned, Vec::new())
            .unwrap();
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _held = batch;
            // The organic worker panic under test.
            panic!("worker dies mid-batch");
        }));
        assert!(died.is_err());
        assert!(matches!(
            waiter.join().unwrap(),
            Err(ServeError::WorkerLost { request_id: 7 })
        ));
        for (id, h) in handles.into_iter().enumerate() {
            match h.wait_timeout(Duration::from_secs(5)) {
                Err(ServeError::WorkerLost { request_id }) => assert_eq!(request_id, id as u64),
                other => panic!("expected WorkerLost, got {other:?}"),
            }
        }
    }
}
