//! The TCP-facing multi-tenant inference server.
//!
//! Wires the seal-net reactor to the serving stack: the reactor's handler
//! does *admission only* (parse the request body, resolve the tenant,
//! hand the request to the serving machine's breaker and weighted-fair
//! lane); the machine's workers (`machine.rs`, shared with the in-process
//! [`Server`](crate::Server)) pop strictly single-tenant batches, run the
//! tenant's own model under the tenant's own cost lanes, and deliver
//! replies encoded here back through the reactor's `Responder` mailbox.
//!
//! ## Wire contract (over the seal-net frame protocol)
//!
//! * Request payload: 8 bytes, a little-endian simulated **user id** —
//!   or 16 bytes, the user id followed by a requested response **pad**
//!   (`u64` LE, capped at [`MAX_RESPONSE_PAD`]). The server derives the
//!   inference input deterministically from the id, so a small frame
//!   stands in for a full tensor upload and 10^5+ distinct users stay
//!   cheap enough to drive over loopback; the pad lets chaos clients
//!   request arbitrarily bulky responses (slow-reader probes).
//! * Response payload: predicted class (`u32` LE), the echoed user id
//!   (`u64` LE), then `pad` zero bytes.
//! * Reject payload: one code byte (see the `REJECT_*` constants) plus a
//!   human-readable message. Rejects echo the request's `seq`, so clients
//!   can match and — for [`REJECT_QUEUE_FULL`] — retry.
//!
//! Every failure is a typed reject or a typed close; the admission path
//! never blocks the reactor thread and never touches model weights.

use std::sync::Arc;
use std::time::Duration;

use seal_net::frame::encode_with;
use seal_net::reactor::{Handler, Reactor, ReactorConfig, ReactorControl, ReactorStats};
use seal_net::{ConnId, Frame, FrameKind};
use seal_pool::SupervisorReport;

use crate::machine::{Machine, Origin};
use crate::tenant::{TenantRegistry, TenantSpec};
use crate::{ServeError, ServerConfig};

/// Reject code: the tenant's admission lane is full (retryable).
pub const REJECT_QUEUE_FULL: u8 = 1;
/// Reject code: the tenant's circuit breaker is open.
pub const REJECT_BREAKER: u8 = 2;
/// Reject code: the frame named a tenant that is not registered.
pub const REJECT_UNKNOWN_TENANT: u8 = 3;
/// Reject code: the request payload is not an 8-byte user id.
pub const REJECT_BAD_PAYLOAD: u8 = 4;
/// Reject code: the frame kind was not `Request`.
pub const REJECT_BAD_KIND: u8 = 5;
/// Reject code: the request waited past its deadline and was shed.
pub const REJECT_SHED: u8 = 6;
/// Reject code: the request was still queued when the server shut down.
pub const REJECT_DRAINED: u8 = 7;
/// Reject code: the model failed on this batch (server-side error).
pub const REJECT_MODEL: u8 = 8;
/// Reject code: the connection pipelined past its in-flight cap; the
/// frame was refused without admission (repeat offenders are closed).
pub const REJECT_PIPELINE: u8 = 9;

/// Largest response pad a request may ask for (16-byte payload form).
pub const MAX_RESPONSE_PAD: u64 = 512 * 1024;

/// Pipelining cap the chaos preset configures — the abuse probe in
/// `netload` bursts past exactly this, so the two must agree.
pub const CHAOS_MAX_PIPELINE: usize = 32;
/// Over-cap strikes the chaos preset tolerates before a typed close.
pub const CHAOS_PIPELINE_STRIKES: u32 = 8;

/// Builds a reject payload: code byte + message text.
pub fn reject_payload(code: u8, message: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + message.len());
    out.push(code);
    out.extend_from_slice(message.as_bytes());
    out
}

/// Splits a reject payload back into its code and message.
pub fn parse_reject(payload: &[u8]) -> Option<(u8, String)> {
    let (&code, rest) = payload.split_first()?;
    Some((code, String::from_utf8_lossy(rest).into_owned()))
}

/// The reject payload a typed serving error travels as: its `REJECT_*`
/// code plus its message. Anything that is not an admission refusal, a
/// shed or a drain is a server-side failure, [`REJECT_MODEL`].
fn reject_for(error: &ServeError) -> Vec<u8> {
    let code = match error {
        ServeError::QueueFull { .. } => REJECT_QUEUE_FULL,
        ServeError::CircuitOpen { .. } => REJECT_BREAKER,
        ServeError::UnknownTenant { .. } => REJECT_UNKNOWN_TENANT,
        ServeError::DeadlineExceeded { .. } => REJECT_SHED,
        ServeError::ShuttingDown | ServeError::DrainedAtShutdown { .. } => REJECT_DRAINED,
        _ => REJECT_MODEL,
    };
    reject_payload(code, &error.to_string())
}

/// Appends the reply frame to request `seq` of `tenant` to `out`: the
/// predicted class and the echoed `user` id followed by `pad` zero bytes
/// (filler that makes the reply bulky enough to exercise write-side
/// backpressure), or the typed reject for `outcome`'s error. A response
/// is written in place — no payload buffer of its own.
pub(crate) fn encode_reply(
    out: &mut Vec<u8>,
    tenant: u32,
    seq: u64,
    user: u64,
    pad: u64,
    outcome: Result<usize, &ServeError>,
) {
    match outcome {
        // Admission capped `pad` at `MAX_RESPONSE_PAD`; `encode_with`
        // zero-fills it behind the twelve bytes written here.
        Ok(class) => encode_with(
            out,
            FrameKind::Response,
            tenant,
            seq,
            12 + pad as usize,
            |out| {
                out.extend_from_slice(&(class as u32).to_le_bytes());
                out.extend_from_slice(&user.to_le_bytes());
            },
        ),
        Err(error) => Frame::reject(tenant, seq, reject_for(error)).encode_into(out),
    }
}

/// Configuration of the TCP front-end, wrapping the in-process
/// [`ServerConfig`] (model, workers, batching, deadlines, breaker) with
/// the network- and tenancy-specific knobs.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// The in-process serving configuration reused for model loading,
    /// batching, deadlines and breaker thresholds.
    pub base: ServerConfig,
    /// The tenant table (ids and weighted-fair shares).
    pub tenants: Vec<TenantSpec>,
    /// Master seed for per-tenant key/nonce/counter-window derivation.
    pub master_seed: u64,
    /// TCP port to bind (0 picks an ephemeral port).
    pub port: u16,
    /// Maximum simultaneous connections the reactor accepts.
    pub max_conns: usize,
    /// Mid-frame idle limit (slow-loris defence); zero disables.
    pub idle_mid_frame: Duration,
    /// Deficit-round-robin quantum (requests credited per unit weight per
    /// scheduler visit).
    pub quantum: u64,
    /// Per-connection in-flight frame cap (0 = unlimited); excess frames
    /// are refused with [`REJECT_PIPELINE`].
    pub max_pipeline: usize,
    /// Over-cap strikes before a connection is closed as pipeline abuse.
    pub pipeline_strikes: u32,
    /// Per-connection lifetime frame budget (0 = unlimited); exhausted
    /// connections are retired with a GOAWAY.
    pub keepalive_frames: u64,
    /// Byte cap on a connection's pending reply buffer (0 = unbounded);
    /// overflowing peers are closed as slow readers.
    pub max_outbox_bytes: usize,
    /// Deadline for a peer to drain pending replies; stalled peers are
    /// closed as slow readers. Zero disables the stall reaper.
    pub write_stall: Duration,
    /// Explicit `SO_SNDBUF` on accepted sockets (0 = kernel default);
    /// chaos presets pin it so slow-reader behaviour is deterministic.
    pub sndbuf: usize,
}

impl NetServerConfig {
    /// A small smoke preset: `tenants` skew-weighted mlp tenants on an
    /// ephemeral port.
    pub fn smoke(tenants: u32) -> NetServerConfig {
        NetServerConfig {
            base: ServerConfig::net_smoke(),
            tenants: TenantSpec::skewed(tenants),
            master_seed: 0x5EA1_6E65,
            port: 0,
            max_conns: 256,
            idle_mid_frame: Duration::from_millis(200),
            quantum: 2,
            // Governance at permissive defaults: well over the load
            // generator's per-connection window, no keepalive budget.
            max_pipeline: 64,
            pipeline_strikes: 8,
            keepalive_frames: 0,
            max_outbox_bytes: 4 * 1024 * 1024,
            write_stall: Duration::from_secs(5),
            sndbuf: 0,
        }
    }

    /// The byzantine-client chaos preset: [`smoke`](Self::smoke) with the
    /// lifecycle limits tightened so the injected slow-reader and
    /// pipeline-abuse probes hit them deterministically.
    ///
    /// * `sndbuf` pinned small + `max_outbox_bytes` well under one padded
    ///   response, so a never-reading probe overflows on its first reply;
    /// * `max_pipeline`/`pipeline_strikes` pinned to the
    ///   [`CHAOS_MAX_PIPELINE`]/[`CHAOS_PIPELINE_STRIKES`] contract the
    ///   abuse probe bursts past;
    /// * lane capacity raised so an abuse burst is never confounded by
    ///   queue-full rejects (which would settle in-flight accounting).
    pub fn chaos_smoke(tenants: u32) -> NetServerConfig {
        let mut config = NetServerConfig::smoke(tenants);
        // One worker: strictly serial serving plus the ordered reply
        // mailbox make the end-of-run settle wave a real barrier — once
        // a lane's settle answers, every earlier request in that lane
        // has been served and its reply flushed (or typed-closed).
        config.base.workers = 1;
        config.base.queue_capacity = 1024;
        // A chaos schedule opens hundreds of short-lived connections
        // (storms, probes, per-fault reconnects). On a loaded host the
        // reactor can lag closing dead ones, so the cap must hold the
        // plan's whole connection population at once — an over-capacity
        // drop would be a timing-dependent client error, not chaos.
        config.max_conns = 1024;
        // No organic deadline sheds: under CI load a backlogged lane
        // could shed an abandoned probe request, and whether that beats
        // the worker is wall-clock, not seed. The ledger must be a pure
        // function of the fault plan.
        config.base.request_deadline = Duration::ZERO;
        config.idle_mid_frame = Duration::from_millis(40);
        config.max_pipeline = CHAOS_MAX_PIPELINE;
        config.pipeline_strikes = CHAOS_PIPELINE_STRIKES;
        config.max_outbox_bytes = 128 * 1024;
        config.write_stall = Duration::from_secs(5);
        config.sndbuf = 16 * 1024;
        config
    }
}

/// The reactor-side admission handler: parse, resolve tenant, hand the
/// request to the machine — or reject, typed, immediately.
struct Admission {
    machine: Arc<Machine>,
}

impl Admission {
    fn admit(&mut self, conn: ConnId, frame: &Frame) -> Result<(), Vec<u8>> {
        if frame.kind != FrameKind::Request {
            return Err(reject_payload(REJECT_BAD_KIND, "expected a Request frame"));
        }
        let Some(index) = self.machine.registry.index_of(frame.tenant) else {
            return Err(reject_for(&ServeError::UnknownTenant {
                tenant: frame.tenant,
            }));
        };
        let body = frame.payload.as_slice();
        let le_u64 =
            |b: &[u8]| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
        let (user, pad) = match body.len() {
            8 => (le_u64(body), 0),
            16 => {
                let user = le_u64(&body[..8]);
                let pad = le_u64(&body[8..]);
                if pad > MAX_RESPONSE_PAD {
                    return Err(reject_payload(
                        REJECT_BAD_PAYLOAD,
                        &format!("requested pad {pad} exceeds cap {MAX_RESPONSE_PAD}"),
                    ));
                }
                (user, pad)
            }
            _ => {
                return Err(reject_payload(
                    REJECT_BAD_PAYLOAD,
                    "request body must be 8 bytes (user id) or 16 (user id + pad)",
                ));
            }
        };
        self.machine
            .admit(index, frame.seq, None, Origin::Wire { conn, user, pad })
            .map_err(|e| reject_for(&e))
    }
}

impl Handler for Admission {
    fn on_frame(&mut self, conn: ConnId, frame: Frame, reply: &mut Vec<Vec<u8>>) {
        if let Err(payload) = self.admit(conn, &frame) {
            reply.push(Frame::reject(frame.tenant, frame.seq, payload).encode());
        }
    }

    fn on_pipeline_exceeded(&mut self, _conn: ConnId, frame: &Frame, reply: &mut Vec<Vec<u8>>) {
        reply.push(
            Frame::reject(
                frame.tenant,
                frame.seq,
                reject_payload(REJECT_PIPELINE, "pipelined past the in-flight cap"),
            )
            .encode(),
        );
    }
}

/// Aggregate statistics of one [`NetServer`] run.
#[derive(Debug)]
pub struct NetStats {
    /// Connection/frame/protocol counters from the reactor.
    pub reactor: ReactorStats,
    /// Worker supervision totals (panics, respawns, quarantine).
    pub supervision: SupervisorReport,
    /// Requests still queued at shutdown (rejected, never dropped).
    pub drained: u64,
    /// Requests typed-rejected with [`REJECT_DRAINED`] because they were
    /// still queued when the graceful-drain window expired.
    pub drain_rejected: u64,
    /// Deterministic per-tenant counters, in registry order:
    /// `(tenant, completed, rejected_queue_full, rejected_breaker, shed,
    /// rejected_drain)`.
    pub tenants: Vec<(u32, u64, u64, u64, u64, u64)>,
    /// Fleet-wide virtual-lane rows: every tenant's cost lanes rolled up
    /// per scheme (counter hit rates, prefetch/read-only stats,
    /// slowdowns). Timing-dependent — reported, never part of a
    /// deterministic signature.
    pub schemes: Vec<crate::cost::SchemeSummary>,
    /// Server-side errors recorded by workers (model/batch failures).
    pub worker_errors: Vec<ServeError>,
}

/// A running TCP inference server: reactor + registry + fair queue +
/// worker pool.
#[derive(Debug)]
pub struct NetServer {
    shared: Arc<Machine>,
    control: ReactorControl,
    reactor: Option<std::thread::JoinHandle<ReactorStats>>,
    port: u16,
}

impl NetServer {
    /// Validates the configuration, builds the tenant registry, binds the
    /// TCP listener and spawns the reactor and the supervised workers.
    ///
    /// # Errors
    ///
    /// Propagates configuration, registry-build, socket and spawn
    /// failures, all typed.
    pub fn start(config: NetServerConfig) -> Result<NetServer, ServeError> {
        config.base.validate()?;
        let registry = Arc::new(TenantRegistry::build(
            &config.base,
            config.master_seed,
            &config.tenants,
        )?);
        let shared = Machine::new(config.base, registry, config.quantum);

        let reactor = Reactor::bind(
            ReactorConfig {
                port: config.port,
                backlog: 128,
                max_conns: config.max_conns,
                idle_mid_frame: config.idle_mid_frame,
                max_pipeline: config.max_pipeline,
                pipeline_strikes: config.pipeline_strikes,
                keepalive_frames: config.keepalive_frames,
                max_outbox_bytes: config.max_outbox_bytes,
                write_stall: config.write_stall,
                sndbuf: config.sndbuf,
            },
            Admission {
                machine: Arc::clone(&shared),
            },
        )
        .map_err(|e| ServeError::Net(seal_net::NetError::io("bind")(e)))?;
        let port = reactor.port();
        // Before the reactor runs, so before any frame can be admitted.
        let _ = shared.responder.set(reactor.responder());
        let control = reactor.control();

        let reactor_join = seal_pool::spawn_worker("seal-net-reactor", move || reactor.run())
            .map_err(|e| ServeError::WorkerSpawn {
                worker: 0,
                source: e,
            })?;
        shared.spawn_workers("seal-net-worker")?;

        Ok(NetServer {
            shared,
            control,
            reactor: Some(reactor_join),
            port,
        })
    }

    /// The bound TCP port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The tenant registry (read-only view for reports and tests).
    pub fn registry(&self) -> &TenantRegistry {
        &self.shared.registry
    }

    /// Joins the reactor thread, surfacing a panic as a typed error.
    fn join_reactor(&mut self) -> Result<ReactorStats, ServeError> {
        match self.reactor.take() {
            Some(handle) => handle
                .join()
                .map_err(|_| ServeError::WorkerLost { request_id: 0 }),
            None => Ok(ReactorStats::default()),
        }
    }

    /// Folds the reactor's books, a stopped machine's `(supervision,
    /// drained, worker errors)` and the tenant ledgers into a [`NetStats`].
    fn net_stats(
        &self,
        reactor: ReactorStats,
        (supervision, drained, worker_errors): (SupervisorReport, u64, Vec<ServeError>),
        drain_rejected: u64,
    ) -> NetStats {
        NetStats {
            reactor,
            supervision,
            drained,
            drain_rejected,
            tenants: self.shared.registry.counter_snapshot(),
            schemes: self.shared.registry.scheme_rollup(),
            worker_errors,
        }
    }

    /// Stops the reactor, closes the fair queue, joins the workers and
    /// returns the aggregated run statistics. Requests still queued are
    /// counted as drained (their connections are gone with the reactor,
    /// so no reject frame can reach them — but they are never silently
    /// lost from the accounting). For an orderly stop that *answers*
    /// every queued request instead, see [`finish_drain`](Self::finish_drain).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::WorkerLost`] only if the reactor thread
    /// itself panicked (a harness bug, not chaos).
    pub fn shutdown(mut self) -> Result<NetStats, ServeError> {
        self.control.shutdown();
        let reactor = self.join_reactor()?;
        Ok(self.net_stats(reactor, self.shared.stop(), 0))
    }

    /// Enters drain mode: the fair queue closes (new admissions are
    /// typed-rejected with [`REJECT_DRAINED`]) and the reactor stops
    /// accepting connections and broadcasts a GOAWAY control frame to
    /// every connected peer. Existing connections keep being served —
    /// call [`finish_drain`](Self::finish_drain) to bound the window and
    /// tear down. Idempotent.
    pub fn begin_drain(&self) {
        self.shared.queue.close();
        self.control.drain();
    }

    /// Completes a drain started by [`begin_drain`](Self::begin_drain):
    /// waits up to `window` for the queue to empty, then typed-rejects
    /// whatever is still queued ([`REJECT_DRAINED`], counted per tenant
    /// in `rejected_drain` and in [`NetStats::drain_rejected`]) while the
    /// reactor is still alive to deliver those rejects. Every request
    /// accepted before the drain is thus *answered* — served, shed or
    /// typed-rejected — never silently dropped.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::WorkerLost`] only if the reactor thread
    /// itself panicked.
    pub fn finish_drain(mut self, window: Duration) -> Result<NetStats, ServeError> {
        // If the window expires, the backlog is answered, typed, while
        // the reactor can still flush frames to the peers.
        self.shared.queue.wait_empty(window);
        let drain_rejected = self.shared.drain_leftovers();
        // The queue is closed and empty, so workers exit on their own;
        // joining them first guarantees their final responses are in the
        // responder mailbox before the reactor's shutdown flush.
        let stopped = self.shared.stop();
        self.control.shutdown();
        let reactor = self.join_reactor()?;
        Ok(self.net_stats(reactor, stopped, drain_rejected))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_net::{FrameClient, FrameDecoder};
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn roundtrip_user(client: &mut FrameClient, tenant: u32, seq: u64, user: u64) -> Frame {
        client
            .send(&Frame::request(tenant, seq, user.to_le_bytes().to_vec()))
            .unwrap();
        client.recv().unwrap()
    }

    /// A raw client holding one decoder across reads, so coalesced
    /// replies are never lost between calls.
    struct Wire {
        stream: TcpStream,
        dec: FrameDecoder,
    }

    impl Wire {
        fn connect(port: u16) -> Wire {
            let stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
            stream.set_nodelay(true).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            Wire {
                stream,
                dec: FrameDecoder::new(),
            }
        }

        /// Next frame, or `None` on orderly EOF / reset.
        fn read_frame(&mut self) -> Option<Frame> {
            let mut buf = [0u8; 64 * 1024];
            loop {
                if let Some(frame) = self.dec.next_frame().unwrap() {
                    return Some(frame);
                }
                match self.stream.read(&mut buf) {
                    Ok(0) | Err(_) => return None,
                    Ok(n) => self.dec.push(&buf[..n]),
                }
            }
        }
    }

    fn request_bytes(tenant: u32, seq: u64, user: u64) -> Vec<u8> {
        Frame::request(tenant, seq, user.to_le_bytes().to_vec()).encode()
    }

    #[test]
    fn serves_requests_over_real_tcp() {
        let server = NetServer::start(NetServerConfig::smoke(2)).unwrap();
        let mut client = FrameClient::connect(server.port(), Duration::from_secs(10)).unwrap();
        for seq in 0..20u64 {
            let reply = roundtrip_user(&mut client, (seq % 2) as u32, seq, 1000 + seq);
            assert_eq!(reply.kind, FrameKind::Response, "reply: {reply:?}");
            assert_eq!(reply.seq, seq);
            assert_eq!(reply.payload.len(), 12);
            let echoed = u64::from_le_bytes(reply.payload[4..12].try_into().unwrap());
            assert_eq!(echoed, 1000 + seq);
        }
        drop(client);
        let stats = server.shutdown().unwrap();
        let completed: u64 = stats.tenants.iter().map(|t| t.1).sum();
        assert_eq!(completed, 20);
        assert!(stats.worker_errors.is_empty());
        assert_eq!(stats.drained, 0);
    }

    #[test]
    fn typed_rejects_for_bad_tenant_payload_and_kind() {
        let server = NetServer::start(NetServerConfig::smoke(2)).unwrap();
        let mut client = FrameClient::connect(server.port(), Duration::from_secs(10)).unwrap();

        client
            .send(&Frame::request(99, 1, 7u64.to_le_bytes().to_vec()))
            .unwrap();
        let reply = client.recv().unwrap();
        assert_eq!(reply.kind, FrameKind::Reject);
        assert_eq!(
            parse_reject(&reply.payload).unwrap().0,
            REJECT_UNKNOWN_TENANT
        );

        client.send(&Frame::request(0, 2, vec![1, 2, 3])).unwrap();
        let reply = client.recv().unwrap();
        assert_eq!(parse_reject(&reply.payload).unwrap().0, REJECT_BAD_PAYLOAD);

        client
            .send(&Frame::response(0, 3, 7u64.to_le_bytes().to_vec()))
            .unwrap();
        let reply = client.recv().unwrap();
        assert_eq!(parse_reject(&reply.payload).unwrap().0, REJECT_BAD_KIND);

        drop(client);
        server.shutdown().unwrap();
    }

    #[test]
    fn predictions_are_deterministic_and_tenant_private() {
        // The same (tenant, user) pair answers identically across two
        // independent server instances — and different tenants (private
        // weight seeds) disagree on at least some users.
        let mut answers = Vec::new();
        for _ in 0..2 {
            let server = NetServer::start(NetServerConfig::smoke(2)).unwrap();
            let mut client = FrameClient::connect(server.port(), Duration::from_secs(10)).unwrap();
            let mut round = Vec::new();
            for user in 0..16u64 {
                for tenant in 0..2u32 {
                    let reply =
                        roundtrip_user(&mut client, tenant, user * 2 + u64::from(tenant), user);
                    assert_eq!(reply.kind, FrameKind::Response);
                    round.push(u32::from_le_bytes(reply.payload[0..4].try_into().unwrap()));
                }
            }
            drop(client);
            server.shutdown().unwrap();
            answers.push(round);
        }
        assert_eq!(answers[0], answers[1], "same seed, same answers");
    }

    #[test]
    fn padded_requests_get_bulky_zero_filled_responses() {
        let server = NetServer::start(NetServerConfig::smoke(1)).unwrap();
        let mut client = FrameClient::connect(server.port(), Duration::from_secs(10)).unwrap();
        let mut payload = 77u64.to_le_bytes().to_vec();
        payload.extend_from_slice(&1024u64.to_le_bytes());
        client.send(&Frame::request(0, 1, payload)).unwrap();
        let reply = client.recv().unwrap();
        assert_eq!(reply.kind, FrameKind::Response);
        assert_eq!(reply.payload.len(), 12 + 1024);
        let echoed = u64::from_le_bytes(reply.payload[4..12].try_into().unwrap());
        assert_eq!(echoed, 77);
        assert!(reply.payload[12..].iter().all(|&b| b == 0), "pad is zeros");
        drop(client);
        server.shutdown().unwrap();
    }

    #[test]
    fn oversized_pad_is_a_typed_payload_reject() {
        let server = NetServer::start(NetServerConfig::smoke(1)).unwrap();
        let mut client = FrameClient::connect(server.port(), Duration::from_secs(10)).unwrap();
        let mut payload = 77u64.to_le_bytes().to_vec();
        payload.extend_from_slice(&(MAX_RESPONSE_PAD + 1).to_le_bytes());
        client.send(&Frame::request(0, 1, payload)).unwrap();
        let reply = client.recv().unwrap();
        assert_eq!(reply.kind, FrameKind::Reject);
        assert_eq!(parse_reject(&reply.payload).unwrap().0, REJECT_BAD_PAYLOAD);
        drop(client);
        server.shutdown().unwrap();
    }

    #[test]
    fn pipeline_overrun_is_rejected_with_the_typed_code() {
        let mut config = NetServerConfig::smoke(1);
        config.max_pipeline = 1;
        config.pipeline_strikes = 100; // rejects only, no close
        let server = NetServer::start(config).unwrap();
        let mut wire = Wire::connect(server.port());
        // One write: the reactor sees all 8 frames in a single read
        // batch, before any worker response can settle in-flight.
        let burst: Vec<u8> = (1..=8u64)
            .flat_map(|seq| request_bytes(0, seq, seq))
            .collect();
        wire.stream.write_all(&burst).unwrap();
        let mut responses = 0u32;
        let mut pipeline_rejects = 0u32;
        for _ in 0..8 {
            let frame = wire.read_frame().expect("a reply per request");
            match frame.kind {
                FrameKind::Response => responses += 1,
                FrameKind::Reject => {
                    assert_eq!(parse_reject(&frame.payload).unwrap().0, REJECT_PIPELINE);
                    pipeline_rejects += 1;
                }
                other => panic!("unexpected reply kind {other:?}"),
            }
        }
        assert_eq!((responses, pipeline_rejects), (1, 7));
        drop(wire);
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.reactor.pipeline_rejects, 7);
        assert_eq!(stats.reactor.pipeline_closed, 0);
    }

    #[test]
    fn drain_answers_every_accepted_request() {
        let server = NetServer::start(NetServerConfig::smoke(1)).unwrap();
        let mut wire = Wire::connect(server.port());
        const BURST: u64 = 48;
        let burst: Vec<u8> = (0..BURST)
            .flat_map(|seq| request_bytes(0, seq, seq))
            .collect();
        wire.stream.write_all(&burst).unwrap();
        // One reply back means the whole burst was admitted (a single
        // read batch) — drain with a zero window so the backlog must be
        // typed-rejected rather than served out.
        let first = wire.read_frame().expect("first reply");
        assert_ne!(first.kind, FrameKind::Goaway);
        server.begin_drain();
        let stats = server.finish_drain(Duration::ZERO).unwrap();

        // Server-side ledger: every admitted request is accounted —
        // completed, shed or drain-rejected. Nothing silently dropped.
        let (_, completed, queue_full, breaker, shed, rejected_drain) = stats.tenants[0];
        assert_eq!(queue_full + breaker, 0);
        assert_eq!(completed + shed + rejected_drain, BURST);
        assert_eq!(stats.drained, 0, "drain leaves nothing unanswered");
        assert!(stats.drain_rejected <= rejected_drain);
        assert_eq!(stats.reactor.goaways_sent, 1);

        // Client side: every remaining reply arrives before EOF.
        let mut answered = 1u64;
        let mut goaways = 0u64;
        while let Some(frame) = wire.read_frame() {
            if frame.kind == FrameKind::Goaway {
                goaways += 1;
            } else {
                answered += 1;
            }
        }
        assert_eq!(answered, BURST, "all requests answered on the wire");
        assert_eq!(goaways, 1, "drain broadcast one GOAWAY");
    }

    /// The `plan_zero_alloc.rs` contract, one level up: once every
    /// tenant has been served a full batch (plan compiled, batch tensor,
    /// rider list, class list, reply buffer and both mailbox buffers at
    /// their largest), `worker_loop` serves wire batches of any size
    /// without touching the heap. The real loop runs on a thread whose
    /// allocations are counted; the reactor and this client are not.
    #[test]
    fn a_warm_worker_loop_serves_wire_batches_without_allocating() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static WORKER_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
        const TENANTS: u32 = 3;

        let mut config = NetServerConfig::smoke(TENANTS);
        // A linger and a DRR quantum that make every burst below one batch
        // and one post, so no buffer's high-water mark depends on how far
        // the reactor had got with the post before.
        config.base.batch_deadline = Duration::from_millis(20);
        let max_batch = config.base.max_batch as u64;
        config.quantum = max_batch;
        let registry =
            TenantRegistry::build(&config.base, config.master_seed, &config.tenants).unwrap();
        let machine = Machine::new(config.base, Arc::new(registry), config.quantum);
        let admission = Admission {
            machine: Arc::clone(&machine),
        };
        let reactor = Reactor::bind(ReactorConfig::default(), admission).unwrap();
        let (port, control) = (reactor.port(), reactor.control());
        machine.responder.set(reactor.responder()).unwrap();
        let reactor = seal_pool::spawn_worker("alloc-reactor", move || reactor.run()).unwrap();
        let worker = {
            let machine = Arc::clone(&machine);
            seal_pool::spawn_worker("alloc-worker", move || {
                crate::alloc_count::count_this_thread(&WORKER_ALLOCATIONS);
                // Kernels inline on this thread, where they are counted.
                seal_pool::with_pool(&seal_pool::Pool::new(1), || {
                    crate::machine::worker_loop(&machine);
                });
            })
            .unwrap()
        };

        let mut wire = Wire::connect(port);
        let mut seq = 0u64;
        // `riders` requests of one tenant in one write, then their replies.
        let mut burst = |tenant: u32, riders: u64| {
            let bytes: Vec<u8> = (seq..seq + riders)
                .flat_map(|s| request_bytes(tenant, s, 1000 + s))
                .collect();
            wire.stream.write_all(&bytes).unwrap();
            for _ in 0..riders {
                let reply = wire.read_frame().expect("a reply per request");
                assert_eq!(reply.kind, FrameKind::Response, "reply: {reply:?}");
            }
            seq += riders;
        };
        for _ in 0..2 {
            for tenant in 0..TENANTS {
                burst(tenant, max_batch);
            }
        }
        let warm = WORKER_ALLOCATIONS.load(Ordering::SeqCst);
        assert!(
            warm > 0,
            "the counter sees the worker (plans were compiled)"
        );
        for round in 0..20 {
            for tenant in 0..TENANTS {
                burst(tenant, [max_batch, 5, 1][round % 3]);
            }
        }
        let steady = WORKER_ALLOCATIONS.load(Ordering::SeqCst) - warm;
        assert_eq!(steady, 0, "60 warm wire batches allocated {steady} times");

        machine.queue.close();
        worker.join().unwrap();
        control.shutdown();
        let stats = reactor.join().unwrap();
        assert_eq!(stats.frames_in, stats.frames_out);
        assert_eq!(stats.dropped_responses, 0);
    }

    #[test]
    fn rejected_config_is_typed() {
        let mut config = NetServerConfig::smoke(1);
        config.base.workers = 0;
        assert!(matches!(
            NetServer::start(config),
            Err(ServeError::InvalidConfig { .. })
        ));
        let config = NetServerConfig::smoke(0);
        assert!(NetServer::start(config).is_err(), "no tenants");
    }
}
