//! The TCP load generator: an open-loop, heavy-tailed, multi-tenant
//! driver for the [`NetServer`](crate::netserve::NetServer).
//!
//! The generator replays the deterministic [`ArrivalSchedule`] (bitwise
//! identical per seed), assigns each
//! arrival a simulated user id (`user = arrival index`, so 10^5 arrivals
//! mean 10^5 distinct users) and a tenant (hash-proportional to the
//! weighted-fair shares), and drives the server over real loopback TCP
//! with a bounded per-client pipeline window.
//!
//! When a [`FaultConfig`] is armed, the seed-deterministic
//! [`FaultPlan::net_fault`] schedule decides which arrival slots become
//! network chaos instead of requests: malformed frames, truncated frames,
//! slow-loris stalls, mid-request disconnects, never-reading slow-reader
//! probes, pipeline-abuse bursts and connect storms. Every fault is
//! realised against a live socket and every outcome is a typed count —
//! the chaos smoke asserts the whole ledger is identical across
//! same-seed runs. [`run_drain`] exercises the graceful-drain protocol
//! separately: settled requests, a GOAWAY per client, typed rejects for
//! post-drain sends, and seed-planned disconnect-during-drain clients.

use std::collections::HashMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use seal_faults::{Backoff, FaultConfig, FaultPlan, NetFault, NetFaultCounts};
use seal_net::{Frame, FrameClient, FrameKind};

use crate::arrivals::{assign_tenants, ArrivalSchedule};
use crate::metrics::LatencyHistogram;
use crate::netserve::{
    parse_reject, CHAOS_MAX_PIPELINE, CHAOS_PIPELINE_STRIKES, REJECT_BREAKER, REJECT_DRAINED,
    REJECT_QUEUE_FULL, REJECT_SHED,
};
use crate::ServeError;

/// Bounded retries for a queue-full reject before the arrival is dropped.
const RETRY_LIMIT: u32 = 64;

/// Base delay of the queue-full retry backoff schedule.
const RETRY_BASE: Duration = Duration::from_micros(100);

/// Saturation of the queue-full retry backoff schedule.
const RETRY_MAX: Duration = Duration::from_micros(6400);

/// How many bytes of a valid frame a truncation/slow-loris fault puts on
/// the wire before stalling or vanishing (mid-header: always mid-frame).
const PARTIAL_BYTES: usize = 10;

/// Receive-buffer cap a slow-reader probe connects with, small enough
/// that one padded response can never fit client-side.
const SLOW_READER_RCVBUF: usize = 8 * 1024;

/// Padded requests one slow-reader probe sends (and never reads).
const SLOW_READER_REQUESTS: u64 = 4;

/// Response pad each slow-reader request asks for: well past the chaos
/// preset's `max_outbox_bytes`, so the first reply already overflows.
const SLOW_READER_PAD: u64 = 256 * 1024;

/// Connections one connect-storm fault opens and immediately abandons.
pub const STORM_CONNS: u64 = 8;

/// Frames one pipeline-abuse burst writes in a single send: enough to
/// fill the chaos pipeline cap, exhaust every strike and leave margin.
const ABUSE_BURST: usize = CHAOS_MAX_PIPELINE + CHAOS_PIPELINE_STRIKES as usize + 16;

/// Configuration of one TCP load run.
#[derive(Debug, Clone)]
pub struct NetLoadConfig {
    /// Total arrivals; each arrival is a distinct simulated user.
    pub users: u64,
    /// Client connections driving the schedule in parallel.
    pub concurrency: usize,
    /// Mean Pareto inter-arrival gap in microseconds.
    pub mean_gap_us: f64,
    /// Pareto shape parameter.
    pub alpha: f64,
    /// Seed for the arrival schedule and tenant assignment.
    pub seed: u64,
    /// Network fault schedule; `None` runs clean.
    pub faults: Option<FaultConfig>,
    /// Seed of the fault plan (independent of the workload seed).
    pub fault_seed: u64,
    /// Max in-flight requests per client connection.
    pub window: usize,
    /// Per-read socket timeout; a recv past this is a hang violation.
    pub read_timeout: Duration,
}

impl NetLoadConfig {
    /// A clean fairness-phase preset over `users` arrivals.
    pub fn fairness(users: u64, seed: u64) -> NetLoadConfig {
        NetLoadConfig {
            users,
            concurrency: 4,
            mean_gap_us: 60.0,
            alpha: 1.5,
            seed,
            faults: None,
            fault_seed: 0,
            window: 32,
            read_timeout: Duration::from_secs(10),
        }
    }

    /// A chaos-phase preset: the net-smoke fault mix over `users`
    /// arrivals, paced gently so fault counts stay timing-independent.
    pub fn chaos(users: u64, seed: u64, fault_seed: u64) -> NetLoadConfig {
        NetLoadConfig {
            users,
            concurrency: 4,
            mean_gap_us: 120.0,
            alpha: 1.5,
            seed,
            faults: Some(FaultConfig::net_smoke()),
            fault_seed,
            window: 16,
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// Client-observed per-tenant ledger for one run.
#[derive(Debug, Clone)]
pub struct TenantLoad {
    /// Tenant wire id.
    pub tenant: u32,
    /// Weighted-fair share.
    pub weight: u32,
    /// Requests actually sent for this tenant (fault slots excluded).
    pub assigned: u64,
    /// Responses received.
    pub completed: u64,
    /// Queue-full rejects that were retried.
    pub retries: u64,
    /// Arrivals dropped after exhausting the retry budget.
    pub dropped_queue_full: u64,
    /// Arrivals refused by the tenant's breaker.
    pub breaker_rejected: u64,
    /// Arrivals shed past their deadline (typed reject).
    pub shed: u64,
    /// Rejects with any other code (drain, model, protocol).
    pub other_rejected: u64,
    /// Valid requests abandoned by a disconnect fault (response dropped
    /// server-side by design).
    pub abandoned: u64,
    /// Client-observed end-to-end latency of completed requests.
    pub latency: LatencyHistogram,
}

impl TenantLoad {
    fn new(tenant: u32, weight: u32) -> TenantLoad {
        TenantLoad {
            tenant,
            weight,
            assigned: 0,
            completed: 0,
            retries: 0,
            dropped_queue_full: 0,
            breaker_rejected: 0,
            shed: 0,
            other_rejected: 0,
            abandoned: 0,
            latency: LatencyHistogram::new(),
        }
    }

    fn merge(&mut self, other: &TenantLoad) {
        self.assigned += other.assigned;
        self.completed += other.completed;
        self.retries += other.retries;
        self.dropped_queue_full += other.dropped_queue_full;
        self.breaker_rejected += other.breaker_rejected;
        self.shed += other.shed;
        self.other_rejected += other.other_rejected;
        self.abandoned += other.abandoned;
        self.latency.merge(&other.latency);
    }
}

/// What one TCP load run observed, client side.
#[derive(Debug, Clone)]
pub struct NetLoadReport {
    /// Arrivals driven.
    pub users: u64,
    /// Client connections used.
    pub concurrency: usize,
    /// Faults the plan assigned to the arrival stream.
    pub planned: NetFaultCounts,
    /// Faults actually realised on the wire (must equal `planned`).
    pub realized: NetFaultCounts,
    /// Settle roundtrips (one per tenant lane, on one extra connection)
    /// a faulted run performs after the load: lanes are FIFO and the
    /// reply mailbox is ordered, so these completing proves every
    /// abandoned probe request was already served and its typed close
    /// realised — the server-side ledger cannot race the shutdown.
    /// Zero on clean runs.
    pub settle_completed: u64,
    /// Per-tenant ledgers, in weight-table order.
    pub per_tenant: Vec<TenantLoad>,
    /// Wall-clock duration in seconds (not deterministic).
    pub wall_seconds: f64,
}

impl NetLoadReport {
    /// Jain's fairness index over weight-normalised completions:
    /// `J = (Σx)² / (n·Σx²)` with `x_i = completed_i / weight_i`.
    /// 1.0 is perfectly weighted-fair; `1/n` is maximally unfair.
    pub fn jain_index(&self) -> f64 {
        let xs: Vec<f64> = self
            .per_tenant
            .iter()
            .map(|t| t.completed as f64 / f64::from(t.weight.max(1)))
            .collect();
        let n = xs.len() as f64;
        let sum: f64 = xs.iter().sum();
        let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
        if n == 0.0 || sum_sq == 0.0 {
            return 0.0;
        }
        (sum * sum) / (n * sum_sq)
    }

    /// Total completed requests across tenants.
    pub fn total_completed(&self) -> u64 {
        self.per_tenant.iter().map(|t| t.completed).sum()
    }

    /// Connections the server must have accepted for this run: the base
    /// client pool, one reconnect per connection-trashing fault, one
    /// probe connection per slow-reader/pipeline-abuse fault and
    /// [`STORM_CONNS`] per connect storm.
    pub fn expected_accepted(&self) -> u64 {
        self.concurrency as u64
            + u64::from(self.settle_completed > 0)
            + self.realized.malformed
            + self.realized.truncated
            + self.realized.slow_loris
            + self.realized.disconnects
            + self.realized.drain_disconnects
            + self.realized.slow_reader
            + self.realized.pipeline_abuse
            + STORM_CONNS * self.realized.connect_storm
    }

    /// The deterministic part of the ledger, flattened for same-seed
    /// comparison: planned/realised fault counts plus every per-tenant
    /// counter except retries (timing-dependent) and latency.
    pub fn deterministic_signature(&self) -> Vec<u64> {
        let mut sig = vec![
            self.users,
            self.planned.malformed,
            self.planned.truncated,
            self.planned.slow_loris,
            self.planned.disconnects,
            self.planned.slow_reader,
            self.planned.pipeline_abuse,
            self.planned.connect_storm,
            self.planned.drain_disconnects,
            self.realized.malformed,
            self.realized.truncated,
            self.realized.slow_loris,
            self.realized.disconnects,
            self.realized.slow_reader,
            self.realized.pipeline_abuse,
            self.realized.connect_storm,
            self.realized.drain_disconnects,
            self.settle_completed,
            self.expected_accepted(),
        ];
        for t in &self.per_tenant {
            sig.extend_from_slice(&[
                u64::from(t.tenant),
                t.assigned,
                t.completed,
                t.dropped_queue_full,
                t.breaker_rejected,
                t.shed,
                t.abandoned,
            ]);
        }
        sig
    }
}

/// A request in flight on one client connection.
struct Pending {
    tenant_idx: usize,
    sent: Instant,
    /// Queue-full retry schedule; `attempts()` doubles as the retry count
    /// bounded by [`RETRY_LIMIT`].
    backoff: Backoff,
}

/// Shared, read-only context for the client threads.
struct LoadCtx<'a> {
    port: u16,
    weights: &'a [(u32, u32)],
    schedule: &'a ArrivalSchedule,
    assignment: &'a [usize],
    plan: Option<&'a FaultPlan>,
    window: usize,
    concurrency: usize,
    read_timeout: Duration,
    started: Instant,
}

/// Per-client local tallies, merged after the scoped clients join.
struct ClientLocal {
    per_tenant: Vec<TenantLoad>,
    realized: NetFaultCounts,
    /// Slow-reader probe sockets, parked open (never read) so the
    /// server-side close stays typed as slow-reader; `run_tcp` drops
    /// them only after the settle wave confirms every close landed.
    holds: Vec<FrameClient>,
}

/// Drives `cfg.users` deterministic arrivals at the server on `port`
/// through real TCP, realising any planned network faults on the wire.
/// `weights` must be the server registry's own `(tenant, weight)` table.
///
/// # Errors
///
/// Returns [`ServeError::InvalidConfig`] for bad parameters and a typed
/// [`ServeError::Net`] for connection failures or a response that never
/// arrived within the read timeout (the hang violation).
pub fn run_tcp(
    port: u16,
    weights: &[(u32, u32)],
    cfg: &NetLoadConfig,
) -> Result<NetLoadReport, ServeError> {
    if cfg.concurrency == 0 || cfg.window == 0 {
        return Err(ServeError::InvalidConfig {
            reason: "net loadgen needs concurrency >= 1 and window >= 1".into(),
        });
    }
    if weights.is_empty() {
        return Err(ServeError::InvalidConfig {
            reason: "net loadgen needs a non-empty tenant weight table".into(),
        });
    }
    let plan = match cfg.faults {
        Some(faults) => Some(FaultPlan::new(cfg.fault_seed, faults)?),
        None => None,
    };
    let schedule =
        ArrivalSchedule::pareto(cfg.seed, cfg.users as usize, cfg.mean_gap_us, cfg.alpha);
    let assignment = assign_tenants(cfg.seed, cfg.users, weights);
    let started = Instant::now();
    let ctx = LoadCtx {
        port,
        weights,
        schedule: &schedule,
        assignment: &assignment,
        plan: plan.as_ref(),
        window: cfg.window,
        concurrency: cfg.concurrency,
        read_timeout: cfg.read_timeout,
        started,
    };

    let locals: Vec<Result<ClientLocal, ServeError>> =
        seal_pool::scoped_map((0..cfg.concurrency).collect(), |client: usize| {
            client_loop(client, &ctx)
        });

    let mut per_tenant: Vec<TenantLoad> = weights
        .iter()
        .map(|&(t, w)| TenantLoad::new(t, w))
        .collect();
    let mut realized = NetFaultCounts::default();
    let mut holds = Vec::new();
    for local in locals {
        let mut local = local?;
        holds.append(&mut local.holds);
        for (agg, part) in per_tenant.iter_mut().zip(&local.per_tenant) {
            agg.merge(part);
        }
        realized.malformed += local.realized.malformed;
        realized.truncated += local.realized.truncated;
        realized.slow_loris += local.realized.slow_loris;
        realized.disconnects += local.realized.disconnects;
        realized.slow_reader += local.realized.slow_reader;
        realized.pipeline_abuse += local.realized.pipeline_abuse;
        realized.connect_storm += local.realized.connect_storm;
        realized.drain_disconnects += local.realized.drain_disconnects;
    }
    // Faulted runs leave abandoned requests in flight; settle each lane
    // with one answered roundtrip so every typed close has landed before
    // the caller snapshots server stats.
    let mut settle_completed = 0u64;
    if plan.is_some() {
        let mut settle = FrameClient::connect(port, cfg.read_timeout)?;
        for (i, &(tenant, _)) in weights.iter().enumerate() {
            settle.send(&Frame::request(
                tenant,
                i as u64,
                1u64.to_le_bytes().to_vec(),
            ))?;
            if settle.recv()?.kind == FrameKind::Response {
                settle_completed += 1;
            }
        }
    }
    drop(holds);
    Ok(NetLoadReport {
        users: cfg.users,
        concurrency: cfg.concurrency,
        planned: plan
            .as_ref()
            .map(|p| p.planned_net_faults(cfg.users))
            .unwrap_or_default(),
        realized,
        settle_completed,
        per_tenant,
        wall_seconds: started.elapsed().as_secs_f64(),
    })
}

/// One client: drives every arrival index `i ≡ client (mod concurrency)`,
/// pacing against the global schedule as a lower bound.
fn client_loop(client: usize, ctx: &LoadCtx<'_>) -> Result<ClientLocal, ServeError> {
    let mut conn = FrameClient::connect(ctx.port, ctx.read_timeout)?;
    let mut outstanding: HashMap<u64, Pending> = HashMap::new();
    let mut local = ClientLocal {
        per_tenant: ctx
            .weights
            .iter()
            .map(|&(t, w)| TenantLoad::new(t, w))
            .collect(),
        realized: NetFaultCounts::default(),
        holds: Vec::new(),
    };
    let offsets = ctx.schedule.offsets_us();

    let mut i = client;
    while i < offsets.len() {
        let fire = ctx.started + Duration::from_micros(offsets[i]);
        let now = Instant::now();
        if now < fire {
            std::thread::sleep(fire - now);
        }
        match ctx.plan.and_then(|p| p.net_fault(i as u64)) {
            None => {
                // `while`, not `if`: a queue-full retry re-inserts its seq,
                // so one drained frame does not always shrink the window.
                // Without the loop, sustained backpressure creeps the
                // pipeline past the server's in-flight cap and an honest
                // client gets closed for abuse.
                while outstanding.len() >= ctx.window {
                    drain_one(&mut conn, &mut outstanding, &mut local, ctx)?;
                }
                let tenant_idx = ctx.assignment[i];
                let seq = i as u64;
                conn.send(&Frame::request(
                    ctx.weights[tenant_idx].0,
                    seq,
                    seq.to_le_bytes().to_vec(),
                ))?;
                outstanding.insert(
                    seq,
                    Pending {
                        tenant_idx,
                        sent: Instant::now(),
                        backoff: Backoff::new(RETRY_BASE, RETRY_MAX),
                    },
                );
                local.per_tenant[tenant_idx].assigned += 1;
            }
            Some(fault) => {
                // Chaos may trash the connection: settle the pipeline
                // first so no healthy in-flight request is collateral.
                drain_all(&mut conn, &mut outstanding, &mut local, ctx)?;
                realize_fault(fault, i, &mut conn, &mut local, ctx)?;
            }
        }
        i += ctx.concurrency;
    }
    drain_all(&mut conn, &mut outstanding, &mut local, ctx)?;
    Ok(local)
}

/// Realises one planned network fault. The four connection-trashing
/// classes act on the client's own socket and reconnect it; the probe
/// classes (slow reader, pipeline abuse, connect storm) run on dedicated
/// sockets and leave the main connection untouched.
fn realize_fault(
    fault: NetFault,
    index: usize,
    conn: &mut FrameClient,
    local: &mut ClientLocal,
    ctx: &LoadCtx<'_>,
) -> Result<(), ServeError> {
    let tenant_idx = ctx.assignment[index];
    let seq = index as u64;
    let valid = Frame::request(ctx.weights[tenant_idx].0, seq, seq.to_le_bytes().to_vec()).encode();
    let mut trashed = true;
    match fault {
        NetFault::MalformedFrame => {
            // Bad magic: the reactor must type it as a protocol error and
            // close; nothing useful can come back.
            conn.send_raw(&[
                0xDE, 0xAD, 0xBE, 0xEF, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            ])?;
            let _ = conn.recv(); // server closes; Closed (or raced reject)
            local.realized.malformed += 1;
        }
        NetFault::TruncatedFrame => {
            // Mid-frame EOF: send a partial header, then vanish.
            conn.send_raw(&valid[..PARTIAL_BYTES])?;
            let _ = conn.shutdown_write();
            let _ = conn.recv(); // drains the FIN so close ordering is fixed
            local.realized.truncated += 1;
        }
        NetFault::SlowLoris => {
            // Partial frame + stall: hold until the server's mid-frame
            // idle sweep reaps the connection (recv returns Closed).
            conn.send_raw(&valid[..PARTIAL_BYTES])?;
            let _ = conn.recv();
            local.realized.slow_loris += 1;
        }
        NetFault::Disconnect => {
            // Valid request, then gone before the response: the server
            // serves it and its reply is dropped (counted server-side).
            conn.send_raw(&valid)?;
            local.realized.disconnects += 1;
            local.per_tenant[tenant_idx].abandoned += 1;
        }
        NetFault::DrainDisconnect => {
            // Same wire behaviour as Disconnect; planned by drain-phase
            // schedules so the ledger separates the two intents.
            conn.send_raw(&valid)?;
            local.realized.drain_disconnects += 1;
            local.per_tenant[tenant_idx].abandoned += 1;
        }
        NetFault::SlowReader => {
            // Byzantine reader: a dedicated connection with a tiny
            // receive buffer asks for bulky padded responses and never
            // reads one. The server's bounded outbox must overflow and
            // close it; parking the socket in `holds` (instead of
            // dropping it) keeps that close typed as slow-reader. All
            // requests go out in ONE write: the first reply's overflow
            // closes the connection immediately, so a later send would
            // race an RST and the unread tail would never be admitted —
            // a single burst is read (and admitted) atomically before
            // any reply can exist.
            let mut probe =
                FrameClient::connect_with_rcvbuf(ctx.port, ctx.read_timeout, SLOW_READER_RCVBUF)?;
            let mut burst = Vec::with_capacity(SLOW_READER_REQUESTS as usize * 64);
            for k in 0..SLOW_READER_REQUESTS {
                let mut body = seq.to_le_bytes().to_vec();
                body.extend_from_slice(&SLOW_READER_PAD.to_le_bytes());
                burst.extend_from_slice(
                    &Frame::request(ctx.weights[tenant_idx].0, k, body).encode(),
                );
            }
            probe.send_raw(&burst)?;
            local.holds.push(probe);
            local.realized.slow_reader += 1;
            local.per_tenant[tenant_idx].abandoned += SLOW_READER_REQUESTS;
            trashed = false;
        }
        NetFault::PipelineAbuse => {
            // One write of far more requests than the chaos pipeline cap:
            // the first `CHAOS_MAX_PIPELINE` are admitted, the next
            // `CHAOS_PIPELINE_STRIKES` draw typed rejects, then the
            // server closes the connection as a repeat offender.
            let mut probe = FrameClient::connect(ctx.port, ctx.read_timeout)?;
            let mut burst = Vec::with_capacity(ABUSE_BURST * (valid.len() + 8));
            for k in 0..ABUSE_BURST {
                burst.extend_from_slice(
                    &Frame::request(
                        ctx.weights[tenant_idx].0,
                        k as u64,
                        seq.to_le_bytes().to_vec(),
                    )
                    .encode(),
                );
            }
            probe.send_raw(&burst)?;
            // Drain the typed rejects until the server hangs up.
            while probe.recv().is_ok() {}
            local.realized.pipeline_abuse += 1;
            local.per_tenant[tenant_idx].abandoned += CHAOS_MAX_PIPELINE as u64;
            trashed = false;
        }
        NetFault::ConnectStorm => {
            // A burst of connections that never speak: the accept loop
            // must absorb all of them without disturbing service.
            for _ in 0..STORM_CONNS {
                drop(FrameClient::connect(ctx.port, ctx.read_timeout)?);
            }
            local.realized.connect_storm += 1;
            trashed = false;
        }
    }
    if trashed {
        *conn = FrameClient::connect(ctx.port, ctx.read_timeout)?;
    }
    Ok(())
}

/// Receives one frame and settles its pending request: completion,
/// typed reject, or a bounded queue-full retry.
fn drain_one(
    conn: &mut FrameClient,
    outstanding: &mut HashMap<u64, Pending>,
    local: &mut ClientLocal,
    ctx: &LoadCtx<'_>,
) -> Result<(), ServeError> {
    let frame = conn.recv()?;
    if frame.kind == FrameKind::Goaway {
        // A drain/retirement notice, not a reply: load phases never
        // drain, but the frame must not be misattributed to a pending
        // request (GOAWAY carries seq 0).
        return Ok(());
    }
    let Some(mut pending) = outstanding.remove(&frame.seq) else {
        // A reply for a request this client no longer tracks (should not
        // happen on a healthy run); ignore rather than misattribute.
        return Ok(());
    };
    let ledger = &mut local.per_tenant[pending.tenant_idx];
    match frame.kind {
        FrameKind::Response => {
            ledger.completed += 1;
            ledger
                .latency
                .record(pending.sent.elapsed().as_micros() as u64);
        }
        _ => {
            let code = parse_reject(&frame.payload).map(|(c, _)| c).unwrap_or(0);
            if code == REJECT_QUEUE_FULL && pending.backoff.attempts() < RETRY_LIMIT {
                // Retryable backpressure: back off briefly, resend the
                // same request under the same seq.
                ledger.retries += 1;
                std::thread::sleep(pending.backoff.next_delay());
                conn.send(&Frame::request(
                    ctx.weights[pending.tenant_idx].0,
                    frame.seq,
                    frame.seq.to_le_bytes().to_vec(),
                ))?;
                outstanding.insert(
                    frame.seq,
                    Pending {
                        tenant_idx: pending.tenant_idx,
                        sent: Instant::now(),
                        backoff: pending.backoff,
                    },
                );
            } else if code == REJECT_QUEUE_FULL {
                ledger.dropped_queue_full += 1;
            } else if code == REJECT_BREAKER {
                ledger.breaker_rejected += 1;
            } else if code == REJECT_SHED {
                ledger.shed += 1;
            } else {
                ledger.other_rejected += 1;
            }
        }
    }
    Ok(())
}

/// Settles every in-flight request on this connection.
fn drain_all(
    conn: &mut FrameClient,
    outstanding: &mut HashMap<u64, Pending>,
    local: &mut ClientLocal,
    ctx: &LoadCtx<'_>,
) -> Result<(), ServeError> {
    while !outstanding.is_empty() {
        drain_one(conn, outstanding, local, ctx)?;
    }
    Ok(())
}

/// Configuration of one graceful-drain exercise.
#[derive(Debug, Clone)]
pub struct DrainLoadConfig {
    /// Concurrent client connections, each settled before the drain.
    pub clients: usize,
    /// Settled (send, await response) requests per client pre-drain.
    pub pre_requests: u64,
    /// Requests each surviving client sends *after* its GOAWAY, all of
    /// which must come back as typed [`REJECT_DRAINED`] rejects.
    pub post_requests: u64,
    /// Seed of the per-client [`FaultConfig::drain_smoke`] roll deciding
    /// which clients disconnect mid-drain instead of behaving.
    pub fault_seed: u64,
    /// Per-read socket timeout (hang bound).
    pub read_timeout: Duration,
}

impl DrainLoadConfig {
    /// A small deterministic drain exercise.
    pub fn smoke(fault_seed: u64) -> DrainLoadConfig {
        DrainLoadConfig {
            clients: 4,
            pre_requests: 8,
            post_requests: 4,
            fault_seed,
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// Client-observed ledger of one [`run_drain`] exercise. Every field is
/// a pure function of the seeds, so two same-seed runs must produce
/// identical reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DrainLoadReport {
    /// Clients driven.
    pub clients: u64,
    /// Settled requests each client sent pre-drain.
    pub pre_requests: u64,
    /// Requests each surviving client sent post-drain.
    pub post_requests: u64,
    /// Pre-drain requests answered with a Response.
    pub pre_completed: u64,
    /// GOAWAY control frames observed (one per connected client).
    pub goaways: u64,
    /// Post-drain requests answered with [`REJECT_DRAINED`].
    pub post_rejected: u64,
    /// Replies of any unexpected kind or code (must stay zero).
    pub wrong_replies: u64,
    /// Disconnect-during-drain clients the plan scheduled.
    pub planned_disconnects: u64,
    /// Disconnect-during-drain clients realised on the wire.
    pub realized_disconnects: u64,
}

impl DrainLoadReport {
    /// The whole report, flattened for same-seed comparison.
    pub fn deterministic_signature(&self) -> Vec<u64> {
        vec![
            self.clients,
            self.pre_requests,
            self.post_requests,
            self.pre_completed,
            self.goaways,
            self.post_rejected,
            self.wrong_replies,
            self.planned_disconnects,
            self.realized_disconnects,
        ]
    }
}

/// Exercises the graceful-drain protocol against the server on `port`:
/// every client settles `pre_requests`, then `begin_drain` is invoked
/// (once, by client 0, after a barrier), every client must observe a
/// GOAWAY, and post-drain requests must draw typed [`REJECT_DRAINED`]
/// rejects. A seed-deterministic [`FaultConfig::drain_smoke`] roll makes
/// some clients vanish mid-drain instead (the server must still account
/// for their final request in its `rejected_drain` ledger).
///
/// The caller owns the server and must follow up with
/// `NetServer::finish_drain` to bound the window and collect stats.
///
/// # Errors
///
/// Returns [`ServeError::InvalidConfig`] for bad parameters and a typed
/// [`ServeError::Net`] for connect/send failures or replies that never
/// arrived within the read timeout.
pub fn run_drain(
    port: u16,
    weights: &[(u32, u32)],
    cfg: &DrainLoadConfig,
    begin_drain: impl Fn() + Sync,
) -> Result<DrainLoadReport, ServeError> {
    if cfg.clients == 0 {
        return Err(ServeError::InvalidConfig {
            reason: "drain exercise needs clients >= 1".into(),
        });
    }
    if weights.is_empty() {
        return Err(ServeError::InvalidConfig {
            reason: "drain exercise needs a non-empty tenant weight table".into(),
        });
    }
    let plan = FaultPlan::new(cfg.fault_seed, FaultConfig::drain_smoke())?;
    let barrier = Barrier::new(cfg.clients);
    let locals: Vec<Result<DrainLoadReport, ServeError>> =
        seal_pool::scoped_map((0..cfg.clients).collect(), |client: usize| {
            drain_client(client, port, weights, cfg, &plan, &barrier, &begin_drain)
        });
    let mut report = DrainLoadReport {
        clients: cfg.clients as u64,
        pre_requests: cfg.pre_requests,
        post_requests: cfg.post_requests,
        planned_disconnects: plan
            .planned_net_faults(cfg.clients as u64)
            .drain_disconnects,
        ..DrainLoadReport::default()
    };
    for local in locals {
        let local = local?;
        report.pre_completed += local.pre_completed;
        report.goaways += local.goaways;
        report.post_rejected += local.post_rejected;
        report.wrong_replies += local.wrong_replies;
        report.realized_disconnects += local.realized_disconnects;
    }
    Ok(report)
}

/// One drain-exercise client (see [`run_drain`]).
fn drain_client(
    client: usize,
    port: u16,
    weights: &[(u32, u32)],
    cfg: &DrainLoadConfig,
    plan: &FaultPlan,
    barrier: &Barrier,
    begin_drain: &(impl Fn() + Sync),
) -> Result<DrainLoadReport, ServeError> {
    let mut conn = FrameClient::connect(port, cfg.read_timeout)?;
    let mut report = DrainLoadReport::default();
    // Phase A: settled traffic, every request answered before the next.
    for k in 0..cfg.pre_requests {
        let tenant_idx = (client + k as usize) % weights.len();
        let user = (client as u64) << 32 | k;
        conn.send(&Frame::request(
            weights[tenant_idx].0,
            k,
            user.to_le_bytes().to_vec(),
        ))?;
        let reply = conn.recv()?;
        if reply.kind == FrameKind::Response && reply.seq == k {
            report.pre_completed += 1;
        } else {
            report.wrong_replies += 1;
        }
    }
    // Phase B: one client flips the server into drain mode; everyone
    // must observe the GOAWAY broadcast.
    barrier.wait();
    if client == 0 {
        begin_drain();
    }
    let notice = conn.recv()?;
    if notice.kind == FrameKind::Goaway {
        report.goaways += 1;
    } else {
        report.wrong_replies += 1;
    }
    // Phase C: behave or vanish, per the seed-deterministic roll.
    match plan.net_fault(client as u64) {
        Some(NetFault::DrainDisconnect) => {
            // One last request, then gone: the server must still account
            // for it (typed drain reject into a dead connection).
            let user = client as u64;
            conn.send(&Frame::request(
                weights[client % weights.len()].0,
                1_000_000,
                user.to_le_bytes().to_vec(),
            ))?;
            report.realized_disconnects += 1;
        }
        _ => {
            for k in 0..cfg.post_requests {
                let tenant_idx = (client + k as usize) % weights.len();
                let seq = 1_000 + k;
                let user = (client as u64) << 32 | k;
                conn.send(&Frame::request(
                    weights[tenant_idx].0,
                    seq,
                    user.to_le_bytes().to_vec(),
                ))?;
                let reply = conn.recv()?;
                let code = parse_reject(&reply.payload).map(|(c, _)| c);
                if reply.kind == FrameKind::Reject && code == Some(REJECT_DRAINED) {
                    report.post_rejected += 1;
                } else {
                    report.wrong_replies += 1;
                }
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netserve::{NetServer, NetServerConfig};

    #[test]
    fn clean_tcp_load_completes_every_user() {
        let server = NetServer::start(NetServerConfig::smoke(3)).unwrap();
        let weights = server.registry().weights();
        let mut cfg = NetLoadConfig::fairness(300, 21);
        cfg.concurrency = 3;
        let report = run_tcp(server.port(), &weights, &cfg).unwrap();
        assert_eq!(report.total_completed(), 300);
        let assigned: u64 = report.per_tenant.iter().map(|t| t.assigned).sum();
        assert_eq!(assigned, 300);
        assert!(report.jain_index() > 0.9, "jain {}", report.jain_index());
        let stats = server.shutdown().unwrap();
        let served: u64 = stats.tenants.iter().map(|t| t.1).sum();
        assert_eq!(served, 300);
        assert!(stats.worker_errors.is_empty());
    }

    #[test]
    fn chaos_tcp_load_realizes_the_planned_faults() {
        let server = NetServer::start(NetServerConfig::chaos_smoke(2)).unwrap();
        let weights = server.registry().weights();
        let cfg = NetLoadConfig::chaos(400, 5, 77);
        let report = run_tcp(server.port(), &weights, &cfg).unwrap();
        assert_eq!(
            report.realized, report.planned,
            "every planned fault on the wire"
        );
        let faults = report.planned.total();
        assert!(faults > 0, "net_smoke rates must fire within 400 slots");
        assert_eq!(report.total_completed() + faults, 400);
        assert_eq!(report.settle_completed, weights.len() as u64);
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.reactor.protocol_errors, report.planned.malformed);
        assert_eq!(stats.reactor.truncated, report.planned.truncated);
        assert_eq!(stats.reactor.idle_reaped, report.planned.slow_loris);
        // The governance ledger: every byzantine probe drew its typed
        // close, the accept loop saw exactly the planned connections,
        // and nothing was retired or drained in a chaos-only run.
        assert_eq!(stats.reactor.slow_reader_closed, report.planned.slow_reader);
        assert_eq!(stats.reactor.pipeline_closed, report.planned.pipeline_abuse);
        assert_eq!(
            stats.reactor.pipeline_rejects,
            report.planned.pipeline_abuse * u64::from(CHAOS_PIPELINE_STRIKES)
        );
        assert_eq!(stats.reactor.accepted, report.expected_accepted());
        assert_eq!(stats.reactor.goaways_sent, 0);
        // Abandoned requests (disconnects, never-read probes, closed
        // abusers) are served or typed — the server accounts for all.
        let served: u64 = stats.tenants.iter().map(|t| t.1).sum();
        let abandoned_served = report.planned.disconnects
            + report.planned.slow_reader * SLOW_READER_REQUESTS
            + report.planned.pipeline_abuse * CHAOS_MAX_PIPELINE as u64;
        assert_eq!(
            served,
            report.total_completed() + abandoned_served + report.settle_completed
        );
        assert_eq!(stats.drained, 0);
    }

    #[test]
    fn same_seed_runs_have_identical_signatures() {
        let mut signatures = Vec::new();
        for _ in 0..2 {
            let server = NetServer::start(NetServerConfig::chaos_smoke(2)).unwrap();
            let weights = server.registry().weights();
            let report =
                run_tcp(server.port(), &weights, &NetLoadConfig::chaos(200, 9, 13)).unwrap();
            signatures.push(report.deterministic_signature());
            server.shutdown().unwrap();
        }
        assert_eq!(signatures[0], signatures[1]);
    }

    #[test]
    fn queue_full_retry_backoff_schedule_is_unchanged() {
        // Regression: the shared Backoff must reproduce the legacy
        // ad-hoc `100us << min(attempt, 6)` schedule exactly, so swapping
        // it in cannot perturb retry timing (and with it, determinism).
        let mut backoff = Backoff::new(RETRY_BASE, RETRY_MAX);
        for attempt in 0..(RETRY_LIMIT + 4) {
            let legacy = Duration::from_micros(100u64 << attempt.min(6));
            assert_eq!(backoff.next_delay(), legacy, "attempt {attempt}");
        }
    }

    #[test]
    fn drain_exercise_answers_every_client() {
        let server = NetServer::start(NetServerConfig::smoke(2)).unwrap();
        let weights = server.registry().weights();
        let cfg = DrainLoadConfig::smoke(31);
        let report = run_drain(server.port(), &weights, &cfg, || server.begin_drain()).unwrap();
        let stats = server.finish_drain(Duration::from_secs(5)).unwrap();

        let clients = cfg.clients as u64;
        assert_eq!(report.wrong_replies, 0);
        assert_eq!(report.goaways, clients, "one GOAWAY per client");
        assert_eq!(report.pre_completed, clients * cfg.pre_requests);
        assert_eq!(report.realized_disconnects, report.planned_disconnects);
        assert_eq!(
            report.post_rejected,
            (clients - report.realized_disconnects) * cfg.post_requests,
            "every post-drain request typed-rejected"
        );
        assert_eq!(stats.reactor.goaways_sent, clients);
        // Server-side "never silently dropped" ledger: each post-drain
        // send (including each vanished client's final request) is a
        // typed drain reject; everything pre-drain completed.
        let rejected_drain: u64 = stats.tenants.iter().map(|t| t.5).sum();
        assert_eq!(
            rejected_drain,
            report.post_rejected + report.realized_disconnects
        );
        let served: u64 = stats.tenants.iter().map(|t| t.1).sum();
        assert_eq!(served, report.pre_completed);
        assert_eq!(stats.drained, 0);
    }

    #[test]
    fn bad_parameters_are_typed_errors() {
        let cfg = NetLoadConfig {
            concurrency: 0,
            ..NetLoadConfig::fairness(1, 1)
        };
        assert!(run_tcp(1, &[(0, 1)], &cfg).is_err());
        let cfg = NetLoadConfig::fairness(1, 1);
        assert!(run_tcp(1, &[], &cfg).is_err());
    }
}
