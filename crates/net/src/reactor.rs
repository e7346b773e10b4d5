//! The epoll reactor: one thread, edge-triggered readiness, per-connection
//! state machines.
//!
//! Design (DESIGN §6h):
//!
//! * **One reactor thread** owns the listener, the epoll instance, and all
//!   connection state; nothing here is shared mutably, so the hot loop is
//!   lock-free. Worker threads hand completed responses back a batch at
//!   a time through a [`Responder`]: one append to a mutex-guarded
//!   mailbox, and a nudge over a nonblocking wake pipe only when that
//!   append found the mailbox empty.
//! * **Edge-triggered** registration means every readiness edge must be
//!   drained to `EAGAIN`; the per-connection state machine does exactly
//!   that (read → decode frames → handler; flush outbox → re-arm
//!   `EPOLLOUT` only while bytes remain).
//! * **Append first, write once**: replies are appended to the outboxes
//!   first — everything a mailbox held, or every immediate reply to the
//!   frames of one `read` — and each touched connection is flushed once
//!   afterwards.
//! * **Every malformed input is a typed close, never a hang**: framing
//!   errors kill the connection after an optional handler-built reject
//!   frame; a peer that stalls mid-frame (slow-loris) is reaped by the
//!   idle sweep; a peer that disconnects mid-request just loses its
//!   response (counted, not fatal).
//! * **Connection-lifecycle governance** (DESIGN §6j): a pipelining cap
//!   bounds in-flight frames per connection (excess → typed reject,
//!   repeat offenders → typed close), a keepalive budget retires
//!   long-lived connections with a GOAWAY frame once their in-flight
//!   work settles, the outbound reply buffer is byte-bounded and a
//!   write-stall reaper closes peers that stop reading (slow readers),
//!   and [`ReactorControl::drain`] switches the reactor into a graceful
//!   drain: accepts freeze, every connection gets a GOAWAY, and
//!   in-flight requests keep flowing until the owner shuts down.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::frame::{Frame, FrameDecoder, FrameError};
use crate::sys;

/// Why the reactor closed a connection — handed to
/// [`Handler::on_close`] so policy code can count fault classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CloseReason {
    /// The peer closed cleanly with no partial frame buffered.
    PeerClosed,
    /// The peer closed (or errored) mid-frame: a truncated frame.
    TruncatedFrame,
    /// The peer stalled mid-frame past the idle limit: slow-loris.
    IdleMidFrame,
    /// The byte stream was malformed; the typed decode error is attached.
    Protocol(FrameError),
    /// An OS-level read/write error.
    Io,
    /// The peer kept pipelining past the cap after repeated typed
    /// rejects: byzantine, closed.
    PipelineAbuse,
    /// The peer stopped draining its responses: the outbound buffer
    /// overflowed `max_outbox_bytes` or stalled past `write_stall`.
    SlowReader,
    /// The connection's keepalive frame budget ran out; it was retired
    /// with a GOAWAY once its in-flight work settled.
    KeepaliveExhausted,
    /// The reactor is shutting down.
    Shutdown,
}

impl CloseReason {
    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            CloseReason::PeerClosed => "peer_closed",
            CloseReason::TruncatedFrame => "truncated_frame",
            CloseReason::IdleMidFrame => "idle_mid_frame",
            CloseReason::Protocol(_) => "protocol",
            CloseReason::Io => "io",
            CloseReason::PipelineAbuse => "pipeline_abuse",
            CloseReason::SlowReader => "slow_reader",
            CloseReason::KeepaliveExhausted => "keepalive_exhausted",
            CloseReason::Shutdown => "shutdown",
        }
    }
}

/// Stable identifier for one accepted connection.
pub type ConnId = u64;

/// Policy callbacks driven by the reactor thread. Implementations must not
/// block: admission and queueing decisions are fine, inference is not.
pub trait Handler: Send {
    /// A complete frame arrived on `conn`. Immediate replies (admission
    /// rejects, echoes) are pushed as encoded frames onto `reply`.
    fn on_frame(&mut self, conn: ConnId, frame: Frame, reply: &mut Vec<Vec<u8>>);

    /// The byte stream on `conn` is malformed; the connection will be
    /// closed after any `reply` frames flush. Default: no reply.
    fn on_protocol_error(&mut self, conn: ConnId, err: &FrameError, reply: &mut Vec<Vec<u8>>) {
        let _ = (conn, err, reply);
    }

    /// `conn` pipelined past `max_pipeline` and this frame was **not**
    /// delivered to [`Handler::on_frame`]. Push a typed reject onto
    /// `reply` so the client learns why. Default: no reply (the strike
    /// counting and eventual close happen regardless).
    fn on_pipeline_exceeded(&mut self, conn: ConnId, frame: &Frame, reply: &mut Vec<Vec<u8>>) {
        let _ = (conn, frame, reply);
    }

    /// `conn` is gone. Always called exactly once per accepted connection.
    fn on_close(&mut self, conn: ConnId, reason: &CloseReason) {
        let _ = (conn, reason);
    }
}

/// Tuning knobs for [`Reactor::bind`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Port to bind on loopback; 0 = kernel-assigned (tests, smoke runs).
    pub port: u16,
    /// Listen backlog.
    pub backlog: i32,
    /// Hard cap on concurrently-open connections; the accept loop closes
    /// the excess immediately (backpressure at the edge).
    pub max_conns: usize,
    /// A connection stalled **mid-frame** longer than this is closed as
    /// [`CloseReason::IdleMidFrame`]. Zero disables the sweep. Idle
    /// connections *between* frames are never reaped — persistent
    /// connections are the normal client idiom.
    pub idle_mid_frame: Duration,
    /// Max frames per connection delivered to the handler but not yet
    /// answered (pipelining cap). An over-cap frame is *not* delivered:
    /// the handler gets [`Handler::on_pipeline_exceeded`] to push a
    /// typed reject, and a strike is recorded. Zero = unlimited.
    pub max_pipeline: usize,
    /// Over-cap strikes tolerated before the connection is closed as
    /// [`CloseReason::PipelineAbuse`]. Clamped to at least 1.
    pub pipeline_strikes: u32,
    /// Lifetime frame budget per connection (keepalive budget). When a
    /// connection's `frames_seen` reaches it, the reactor queues a
    /// GOAWAY frame and retires the connection once its in-flight work
    /// settles ([`CloseReason::KeepaliveExhausted`]). Zero = unlimited.
    pub keepalive_frames: u64,
    /// Byte cap on a connection's pending (unwritten) outbound buffer.
    /// Exceeding it closes the connection as [`CloseReason::SlowReader`]
    /// — the peer is not draining responses. Zero = unbounded.
    pub max_outbox_bytes: usize,
    /// A connection whose outbound buffer has been non-empty for longer
    /// than this without fully draining is closed as
    /// [`CloseReason::SlowReader`]. Zero disables the stall reaper.
    pub write_stall: Duration,
    /// Explicit `SO_SNDBUF` for accepted sockets (disables kernel
    /// autotuning, making slow-reader behaviour deterministic in tests).
    /// Zero = kernel default.
    pub sndbuf: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            port: 0,
            backlog: 128,
            max_conns: 1024,
            idle_mid_frame: Duration::from_millis(200),
            max_pipeline: 256,
            pipeline_strikes: 8,
            keepalive_frames: 0,
            max_outbox_bytes: 4 * 1024 * 1024,
            write_stall: Duration::from_secs(5),
            sndbuf: 0,
        }
    }
}

/// Counters the reactor reports at shutdown. All byte/frame counts are
/// deterministic for a deterministic client schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections rejected at accept because `max_conns` was reached.
    pub over_capacity: u64,
    /// Complete frames decoded and delivered to the handler.
    pub frames_in: u64,
    /// Encoded frames written out (replies + worker responses).
    pub frames_out: u64,
    /// Connections closed with a malformed byte stream.
    pub protocol_errors: u64,
    /// Connections closed mid-frame by the peer (truncated frames).
    pub truncated: u64,
    /// Connections reaped by the slow-loris sweep.
    pub idle_reaped: u64,
    /// Worker responses dropped because the connection was already gone.
    pub dropped_responses: u64,
    /// Accept attempts deferred on transient `EMFILE`/`ENFILE` fd
    /// exhaustion (retried after a capped backoff, never fatal).
    pub accept_deferred: u64,
    /// Frames refused (not delivered) because the connection was over
    /// its pipelining cap.
    pub pipeline_rejects: u64,
    /// Connections closed as [`CloseReason::PipelineAbuse`].
    pub pipeline_closed: u64,
    /// Connections closed as [`CloseReason::SlowReader`] (outbox
    /// overflow or write stall).
    pub slow_reader_closed: u64,
    /// Connections retired as [`CloseReason::KeepaliveExhausted`].
    pub keepalive_closed: u64,
    /// GOAWAY control frames sent (keepalive retirement + drain).
    pub goaways_sent: u64,
    /// `write` system calls made on connection sockets (see
    /// [`frames_per_write`](Self::frames_per_write)). Follows thread
    /// timing, like `dropped_responses`.
    pub socket_writes: u64,
    /// Wake-pipe writes made by [`Responder::send`]: one per mailbox
    /// that went from empty to non-empty. Follows thread timing.
    pub wakeups: u64,
}

/// Encoded replies on their way to the reactor, in answer order: one
/// byte buffer plus, per run of consecutive frames for the same
/// connection, how many frames and bytes belong to it. A worker fills one
/// per batch and hands it over with a single [`Responder::send`]; both
/// sides keep their buffers, so a steady stream allocates nothing.
#[derive(Debug, Default)]
pub struct ReplyBatch {
    bytes: Vec<u8>,
    runs: Vec<Run>,
}

/// `frames` whole frames, `len` bytes, all for `conn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    conn: ConnId,
    frames: u64,
    len: usize,
}

impl ReplyBatch {
    /// An empty batch.
    pub fn new() -> ReplyBatch {
        ReplyBatch::default()
    }

    /// Adds one frame for `conn`: `encode` must append exactly one encoded
    /// frame to the buffer it is given (and touch nothing before it).
    pub fn push(&mut self, conn: ConnId, encode: impl FnOnce(&mut Vec<u8>)) {
        let start = self.bytes.len();
        encode(&mut self.bytes);
        let len = self.bytes.len() - start;
        match self.runs.last_mut() {
            Some(run) if run.conn == conn => {
                run.frames += 1;
                run.len += len;
            }
            _ => self.runs.push(Run {
                conn,
                frames: 1,
                len,
            }),
        }
    }

    /// `true` when no frame has been pushed since the last send.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.runs.clear();
    }
}

/// The worker → reactor response mailbox.
///
/// **No lost wake.** [`post`](Self::post) reports whether it found the
/// mailbox empty, and only then does the poster write the wake pipe. The
/// reactor answers every wake by draining the pipe and *then* taking the
/// whole mailbox, so each pipe write is followed by a `take` that starts
/// after it. Call the posts between two takes a generation. The post that
/// opens a generation finds the mailbox empty and therefore writes the
/// pipe after posting; the `take` that answers that write comes after the
/// opening post, so the first take after the opening post exists — and it
/// empties the mailbox, opener and every later post of the generation
/// included. A post that finds the mailbox non-empty is in a generation
/// someone else opened and is covered by that opener's wake. The
/// interleaving test below enumerates this; dropping the wake on the
/// empty → non-empty post fails it.
#[derive(Debug, Default)]
struct Mailbox {
    pending: Mutex<ReplyBatch>,
    /// Pipe writes made for empty → non-empty posts ([`ReactorStats::wakeups`]).
    wakeups: AtomicU64,
}

impl Mailbox {
    /// Appends `replies` (leaving it empty, buffers kept) and returns
    /// `true` when the mailbox was empty before: the caller owes a wake.
    fn post(&self, replies: &mut ReplyBatch) -> bool {
        let mut pending = locked(&self.pending);
        let was_empty = pending.is_empty();
        pending.bytes.extend_from_slice(&replies.bytes);
        pending.runs.extend_from_slice(&replies.runs);
        drop(pending);
        replies.clear();
        was_empty
    }

    /// Swaps everything posted so far into `into` (whose old contents are
    /// discarded, buffers kept for the posters to refill).
    fn take(&self, into: &mut ReplyBatch) {
        into.clear();
        std::mem::swap(&mut *locked(&self.pending), into);
    }
}

impl ReactorStats {
    /// `frames_out ÷ socket_writes`: how many frames one `write` system
    /// call carried (0 before the first write).
    pub fn frames_per_write(&self) -> f64 {
        self.frames_out as f64 / self.socket_writes.max(1) as f64
    }
}

/// The worker-side handle for delivering responses to connections. Clone
/// freely; a send is one mailbox append plus, if the mailbox was empty,
/// one pipe nudge.
#[derive(Debug, Clone)]
pub struct Responder {
    mailbox: Arc<Mailbox>,
    wake: Arc<sys::WakePipe>,
}

impl Responder {
    /// Hands every frame in `replies` to the reactor and leaves `replies`
    /// empty for reuse. Delivery is best-effort: frames for a connection
    /// that has closed in the meantime are dropped and counted.
    pub fn send(&self, replies: &mut ReplyBatch) {
        if replies.is_empty() || !self.mailbox.post(replies) {
            return;
        }
        self.mailbox.wakeups.fetch_add(1, Ordering::Relaxed);
        // A failed wake means the reactor is gone; the shutdown path will
        // account for undelivered responses.
        let _ = self.wake.wake();
    }
}

/// The shutdown/drain handle: flips flags and nudges the reactor loop.
#[derive(Debug, Clone)]
pub struct ReactorControl {
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    wake: Arc<sys::WakePipe>,
}

impl ReactorControl {
    /// Asks the reactor to stop; it closes every connection (reason
    /// [`CloseReason::Shutdown`]) and returns its stats.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        let _ = self.wake.wake();
    }

    /// Begins a graceful drain: the reactor stops accepting, sends every
    /// open connection a GOAWAY frame, and keeps serving in-flight and
    /// already-buffered frames until [`ReactorControl::shutdown`]. The
    /// owning server bounds the drain window and decides when to stop.
    pub fn drain(&self) {
        self.draining.store(true, Ordering::Release);
        let _ = self.wake.wake();
    }
}

/// Poison-tolerant lock: a panicked peer must not cascade.
fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

const LISTENER_TOKEN: u64 = 0;
const WAKE_TOKEN: u64 = 1;
const FIRST_CONN: u64 = 2;

struct Conn {
    fd: sys::Fd,
    decoder: FrameDecoder,
    outbox: Vec<u8>,
    out_pos: usize,
    watching_write: bool,
    mid_frame_since: Option<Instant>,
    /// Frames delivered to the handler but not yet answered.
    in_flight: u64,
    /// Lifetime frames received (keepalive budget accounting).
    frames_seen: u64,
    /// Over-pipelining strikes so far.
    strikes: u32,
    /// GOAWAY sent for keepalive exhaustion; close once settled.
    retiring: bool,
    /// Set when the outbox first became non-empty after a flush; cleared
    /// when it fully drains. Drives the write-stall reaper.
    write_pending_since: Option<Instant>,
    /// Listed in `Reactor::touched`: got mailbox bytes this turn and is
    /// owed one flush.
    touched: bool,
}

impl Conn {
    fn new(fd: sys::Fd) -> Conn {
        Conn {
            fd,
            decoder: FrameDecoder::new(),
            outbox: Vec::new(),
            out_pos: 0,
            watching_write: false,
            mid_frame_since: None,
            in_flight: 0,
            frames_seen: 0,
            strikes: 0,
            retiring: false,
            write_pending_since: None,
            touched: false,
        }
    }

    fn pending_out(&self) -> bool {
        self.out_pos < self.outbox.len()
    }

    fn pending_bytes(&self) -> usize {
        self.outbox.len() - self.out_pos
    }

    /// A retiring connection is done once no request awaits an answer
    /// and everything owed has been written out.
    fn retirement_complete(&self) -> bool {
        self.retiring && self.in_flight == 0 && !self.pending_out()
    }
}

/// The reactor: owns the listener, the epoll set and all connections, and
/// runs the event loop on the caller's thread (spawn it via
/// `seal_pool::spawn_worker`).
pub struct Reactor<H: Handler> {
    config: ReactorConfig,
    epoll: sys::Epoll,
    listener: sys::Fd,
    port: u16,
    wake: Arc<sys::WakePipe>,
    mailbox: Arc<Mailbox>,
    /// What the last `Mailbox::take` brought in (its buffers go back to
    /// the posters on the next take).
    inbound: ReplyBatch,
    /// Connections `inbound` had bytes for, each to be flushed once.
    touched: Vec<ConnId>,
    stop: Arc<AtomicBool>,
    drain_flag: Arc<AtomicBool>,
    draining: bool,
    conns: HashMap<ConnId, Conn>,
    next_id: ConnId,
    handler: H,
    stats: ReactorStats,
    reply_scratch: Vec<Vec<u8>>,
    read_buf: Vec<u8>,
    accept_backoff: seal_faults::Backoff,
    accept_retry_at: Option<Instant>,
}

impl<H: Handler> Reactor<H> {
    /// Binds the listener and registers it plus the wake pipe with epoll.
    ///
    /// # Errors
    ///
    /// Propagates socket/epoll setup failures as [`std::io::Error`].
    pub fn bind(config: ReactorConfig, handler: H) -> std::io::Result<Reactor<H>> {
        let epoll = sys::Epoll::new()?;
        let (listener, port) = sys::listen_tcp(config.port, config.backlog)?;
        let wake = Arc::new(sys::WakePipe::new()?);
        epoll.add(&listener, LISTENER_TOKEN, sys::Interest { writable: false })?;
        epoll.add(wake.reader(), WAKE_TOKEN, sys::Interest { writable: false })?;
        Ok(Reactor {
            config,
            epoll,
            listener,
            port,
            wake,
            mailbox: Arc::new(Mailbox::default()),
            inbound: ReplyBatch::new(),
            touched: Vec::new(),
            stop: Arc::new(AtomicBool::new(false)),
            drain_flag: Arc::new(AtomicBool::new(false)),
            draining: false,
            conns: HashMap::new(),
            next_id: FIRST_CONN,
            handler,
            stats: ReactorStats::default(),
            reply_scratch: Vec::new(),
            read_buf: vec![0u8; 64 * 1024],
            accept_backoff: seal_faults::Backoff::new(
                Duration::from_millis(1),
                Duration::from_millis(200),
            ),
            accept_retry_at: None,
        })
    }

    /// The actual bound port (useful with `port: 0`).
    pub fn port(&self) -> u16 {
        self.port
    }

    /// A clonable response handle for worker threads.
    pub fn responder(&self) -> Responder {
        Responder {
            mailbox: Arc::clone(&self.mailbox),
            wake: Arc::clone(&self.wake),
        }
    }

    /// A clonable shutdown/drain handle.
    pub fn control(&self) -> ReactorControl {
        ReactorControl {
            stop: Arc::clone(&self.stop),
            draining: Arc::clone(&self.drain_flag),
            wake: Arc::clone(&self.wake),
        }
    }

    /// Runs the event loop until [`ReactorControl::shutdown`], then closes
    /// every connection and returns the final stats. Never panics on
    /// malformed peers; OS-level epoll failure ends the loop with stats so
    /// far (the owning server surfaces the condition as drained requests).
    pub fn run(mut self) -> ReactorStats {
        // Sweep at half the tightest enabled deadline so an overdue
        // stall is caught within 1.5× its configured limit.
        let tightest = [self.config.idle_mid_frame, self.config.write_stall]
            .into_iter()
            .filter(|d| !d.is_zero())
            .min();
        let sweep_every = match tightest {
            None => Duration::from_millis(500),
            Some(limit) => (limit / 2).max(Duration::from_millis(10)),
        };
        let mut events = Vec::with_capacity(64);
        let mut last_sweep = Instant::now();
        while !self.stop.load(Ordering::Acquire) {
            if !self.draining && self.drain_flag.load(Ordering::Acquire) {
                self.begin_drain();
            }
            events.clear();
            let timeout_ms = sweep_every.as_millis().min(1000) as i32;
            if self.epoll.wait(&mut events, timeout_ms).is_err() {
                break;
            }
            for ev in events.drain(..) {
                match ev.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKE_TOKEN => {
                        self.wake.drain();
                        self.deliver_mailbox();
                    }
                    token => self.conn_ready(token, ev),
                }
            }
            if self.accept_retry_at.is_some_and(|at| Instant::now() >= at) {
                self.accept_retry_at = None;
                self.accept_ready();
            }
            if last_sweep.elapsed() >= sweep_every {
                self.sweep();
                last_sweep = Instant::now();
            }
        }
        // Shutdown must not lose what was asked for before it, whichever
        // thread ran first: a drain requested but not yet seen still
        // broadcasts its GOAWAYs, and one last non-blocking pass hands
        // the handler every frame that reached its socket before the
        // stop (a peer that sent and vanished is still counted). Then
        // deliver anything still in the mailbox (dead conns are counted
        // as dropped) and close all connections.
        if !self.draining && self.drain_flag.load(Ordering::Acquire) {
            self.begin_drain();
        }
        events.clear();
        if self.epoll.wait(&mut events, 0).is_ok() {
            for ev in events.drain(..).filter(|ev| ev.token >= FIRST_CONN) {
                self.conn_ready(ev.token, ev);
            }
        }
        self.wake.drain();
        self.deliver_mailbox();
        let ids: Vec<ConnId> = self.conns.keys().copied().collect();
        for id in ids {
            self.close_conn(id, CloseReason::Shutdown);
        }
        self.stats.wakeups = self.mailbox.wakeups.load(Ordering::Relaxed);
        self.stats
    }

    fn accept_ready(&mut self) {
        if self.draining {
            return; // listener is already out of the epoll set
        }
        // Edge-triggered: accept until the queue is empty. Transient
        // errno values are classified, not fatal (satellite: fd
        // exhaustion defers with a capped backoff instead of silently
        // ending the loop). The `continue` arm is not a hot retry: an
        // aborted connection is consumed from the accept queue, so every
        // iteration makes progress; the fd-exhaustion arm breaks out and
        // defers re-accept until the `accept_backoff` deadline (honoured
        // by the epoll timeout) instead of sleeping the reactor thread.
        // seal-lint: allow(retry-backoff)
        loop {
            match sys::accept_nonblocking(&self.listener) {
                Ok(Some(fd)) => {
                    self.accept_backoff.reset();
                    if self.conns.len() >= self.config.max_conns {
                        // `fd` drops at the end of this arm, closing the
                        // excess connection immediately: backpressure at
                        // the edge.
                        self.stats.over_capacity += 1;
                    } else {
                        let _ = sys::set_nodelay(&fd);
                        if self.config.sndbuf > 0 {
                            let _ = sys::set_sndbuf(&fd, self.config.sndbuf);
                        }
                        let id = self.next_id;
                        self.next_id += 1;
                        if self
                            .epoll
                            .add(&fd, id, sys::Interest { writable: false })
                            .is_ok()
                        {
                            self.stats.accepted += 1;
                            self.conns.insert(id, Conn::new(fd));
                        }
                    }
                }
                Ok(None) => break, // EAGAIN: queue drained
                Err(ref e) if sys::is_conn_aborted(e) => {
                    // Peer gave up while queued; harmless, keep going.
                    continue;
                }
                Err(ref e) if sys::is_fd_exhausted(e) => {
                    // Out of file descriptors (EMFILE/ENFILE). Closing
                    // an existing conn would punish the innocent; defer
                    // the accept and retry after a capped backoff — an
                    // in-flight close usually frees an fd first.
                    self.stats.accept_deferred += 1;
                    self.accept_retry_at = Some(Instant::now() + self.accept_backoff.next_delay());
                    break;
                }
                Err(_) => break, // unknown errno: drop this edge, not the reactor
            }
        }
    }

    /// Moves everything the workers posted into the outboxes — settling
    /// each connection's in-flight count by the frames it was sent — and
    /// only then writes: one flush per connection that got bytes.
    fn deliver_mailbox(&mut self) {
        self.mailbox.take(&mut self.inbound);
        let mut bytes = self.inbound.bytes.as_slice();
        for run in &self.inbound.runs {
            let (frames, rest) = bytes.split_at(run.len);
            bytes = rest;
            let Some(conn) = self.conns.get_mut(&run.conn) else {
                self.stats.dropped_responses += run.frames;
                continue;
            };
            conn.outbox.extend_from_slice(frames);
            conn.in_flight = conn.in_flight.saturating_sub(run.frames);
            self.stats.frames_out += run.frames;
            if !std::mem::replace(&mut conn.touched, true) {
                self.touched.push(run.conn);
            }
        }
        let mut touched = std::mem::take(&mut self.touched);
        for id in touched.drain(..) {
            if let Some(conn) = self.conns.get_mut(&id) {
                conn.touched = false;
            }
            self.flush_conn(id);
            self.finish_retirement(id);
        }
        self.touched = touched;
    }

    /// Closes `id` if it is retiring and fully settled.
    fn finish_retirement(&mut self, id: ConnId) {
        if self.conns.get(&id).is_some_and(Conn::retirement_complete) {
            self.stats.keepalive_closed += 1;
            self.close_conn(id, CloseReason::KeepaliveExhausted);
        }
    }

    /// Queues a GOAWAY control frame on `id`; the caller flushes. `retire`
    /// marks the connection for close-once-settled (keepalive
    /// exhaustion); drain GOAWAYs leave the connection serving until
    /// shutdown.
    fn queue_goaway(&mut self, id: ConnId, reason: &str, retire: bool) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        Frame::goaway(reason).encode_into(&mut conn.outbox);
        if retire {
            conn.retiring = true;
        }
        self.stats.goaways_sent += 1;
        self.stats.frames_out += 1;
    }

    /// Enters drain mode: unregister the listener (accepts freeze) and
    /// tell every open connection via GOAWAY. In-flight frames keep
    /// flowing; the owning server decides when to stop.
    fn begin_drain(&mut self) {
        self.draining = true;
        let _ = self.epoll.delete(&self.listener);
        let ids: Vec<ConnId> = self.conns.keys().copied().collect();
        for id in ids {
            self.queue_goaway(id, "draining", false);
            self.flush_conn(id);
        }
    }

    fn conn_ready(&mut self, token: ConnId, ev: sys::Event) {
        if !self.conns.contains_key(&token) {
            return; // already closed this tick
        }
        if ev.readable || ev.closed {
            if let Some(reason) = self.read_conn(token) {
                self.close_conn(token, reason);
                return;
            }
            if ev.closed {
                // Read side drained; peer is gone. Mid-frame leftovers mean
                // the final frame was truncated.
                let mid = self
                    .conns
                    .get(&token)
                    .is_some_and(|c| c.decoder.mid_frame());
                let reason = if mid {
                    CloseReason::TruncatedFrame
                } else {
                    CloseReason::PeerClosed
                };
                self.close_conn(token, reason);
                return;
            }
        }
        if ev.writable {
            self.flush_conn(token);
        }
    }

    /// Drains the read edge on `token`. Returns `Some(reason)` when the
    /// connection must close; the read side's reason stands, and the
    /// closing connection's last words (its answers so far, a
    /// protocol-error reject, the strikes' rejects) get one best-effort
    /// write.
    fn read_conn(&mut self, token: ConnId) -> Option<CloseReason> {
        let reason = self.decode_readable(token);
        if reason.is_some() {
            let _ = self.write_out(token);
        }
        reason
    }

    /// Reads to `EAGAIN`, decoding and governing every complete frame.
    /// What the frames of one read were answered with on the spot
    /// (rejects, strikes, echoes, a GOAWAY) is queued on the outbox and
    /// written once, after the last of them — a single frame's reply
    /// leaves before the next `read`, a burst's replies leave together.
    fn decode_readable(&mut self, token: ConnId) -> Option<CloseReason> {
        loop {
            let conn = self.conns.get_mut(&token)?;
            let n = match conn.fd.read(&mut self.read_buf) {
                Ok(0) => {
                    return Some(if conn.decoder.mid_frame() {
                        CloseReason::TruncatedFrame
                    } else {
                        CloseReason::PeerClosed
                    });
                }
                Ok(n) => n,
                Err(e) if sys::is_would_block(&e) => return None,
                Err(_) => return Some(CloseReason::Io),
            };
            conn.decoder.push(&self.read_buf[..n]);
            // Decode every complete frame in the buffer.
            loop {
                let conn = self.conns.get_mut(&token)?;
                match conn.decoder.next_frame() {
                    Ok(Some(frame)) => {
                        conn.mid_frame_since = None;
                        conn.frames_seen += 1;
                        self.stats.frames_in += 1;
                        if let Some(reason) = self.govern_frame(token, frame) {
                            return Some(reason);
                        }
                    }
                    Ok(None) => {
                        if conn.decoder.mid_frame() {
                            if conn.mid_frame_since.is_none() {
                                conn.mid_frame_since = Some(Instant::now());
                            }
                        } else {
                            conn.mid_frame_since = None;
                        }
                        break;
                    }
                    Err(err) => {
                        self.stats.protocol_errors += 1;
                        self.reply_scratch.clear();
                        let mut reply = std::mem::take(&mut self.reply_scratch);
                        self.handler.on_protocol_error(token, &err, &mut reply);
                        // The conn is closing; settlement is moot.
                        self.queue_replies(token, &mut reply, false);
                        self.reply_scratch = reply;
                        return Some(CloseReason::Protocol(err));
                    }
                }
            }
            // If this closes the connection (slow reader, I/O error,
            // retirement), the next `get_mut` ends the loop.
            self.flush_conn(token);
            self.finish_retirement(token);
        }
    }

    /// Applies pipelining-cap / keepalive-budget policy to a decoded
    /// frame, delivering it to the handler when admitted. Returns
    /// `Some(reason)` when the connection must close.
    fn govern_frame(&mut self, token: ConnId, frame: Frame) -> Option<CloseReason> {
        let conn = self.conns.get_mut(&token)?;
        if conn.retiring {
            // The peer kept sending after its keepalive GOAWAY.
            self.stats.keepalive_closed += 1;
            return Some(CloseReason::KeepaliveExhausted);
        }
        let cap = self.config.max_pipeline;
        if cap > 0 && conn.in_flight >= cap as u64 {
            conn.strikes += 1;
            let strikes = conn.strikes;
            self.stats.pipeline_rejects += 1;
            self.reply_scratch.clear();
            let mut reply = std::mem::take(&mut self.reply_scratch);
            self.handler.on_pipeline_exceeded(token, &frame, &mut reply);
            // The reject does not settle anything: the over-cap frame
            // was never counted in-flight.
            self.queue_replies(token, &mut reply, false);
            self.reply_scratch = reply;
            if strikes >= self.config.pipeline_strikes.max(1) {
                self.stats.pipeline_closed += 1;
                return Some(CloseReason::PipelineAbuse);
            }
            return None;
        }
        conn.in_flight += 1;
        let budget = self.config.keepalive_frames;
        let exhausted = budget > 0 && conn.frames_seen >= budget;
        self.reply_scratch.clear();
        let mut reply = std::mem::take(&mut self.reply_scratch);
        self.handler.on_frame(token, frame, &mut reply);
        self.queue_replies(token, &mut reply, true);
        self.reply_scratch = reply;
        if exhausted {
            self.queue_goaway(token, "keepalive budget exhausted", true);
        }
        None
    }

    /// Appends a handler's immediate replies to `token`'s outbox; the
    /// read loop writes them once per `read`.
    fn queue_replies(&mut self, token: ConnId, reply: &mut Vec<Vec<u8>>, settles: bool) {
        if reply.is_empty() {
            return;
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            for bytes in reply.drain(..) {
                conn.outbox.extend_from_slice(&bytes);
                if settles {
                    // An immediate reply answers one in-flight frame.
                    conn.in_flight = conn.in_flight.saturating_sub(1);
                }
                self.stats.frames_out += 1;
            }
        } else {
            self.stats.dropped_responses += reply.len() as u64;
            reply.clear();
        }
    }

    /// Writes `token`'s pending outbox and closes it, typed and counted,
    /// if the write failed or left more than `max_outbox_bytes` behind.
    fn flush_conn(&mut self, token: ConnId) {
        if let Some(reason) = self.write_out(token) {
            if reason == CloseReason::SlowReader {
                // The peer is not reading: its share of reply memory is
                // spent. Typed close, counted.
                self.stats.slow_reader_closed += 1;
            }
            self.close_conn(token, reason);
        }
    }

    /// Writes pending outbox bytes until `EAGAIN` or empty, adjusting the
    /// `EPOLLOUT` registration to match. Returns why the connection must
    /// close, if it must: `Io` or `SlowReader`.
    fn write_out(&mut self, token: ConnId) -> Option<CloseReason> {
        let conn = self.conns.get_mut(&token)?;
        while conn.pending_out() {
            self.stats.socket_writes += 1;
            match conn.fd.write(&conn.outbox[conn.out_pos..]) {
                Ok(n) => conn.out_pos += n,
                Err(e) if sys::is_would_block(&e) => break,
                Err(_) => return Some(CloseReason::Io),
            }
        }
        if !conn.pending_out() {
            conn.outbox.clear();
            conn.out_pos = 0;
            conn.write_pending_since = None;
        } else if conn.write_pending_since.is_none() {
            conn.write_pending_since = Some(Instant::now());
        }
        let overflow =
            self.config.max_outbox_bytes > 0 && conn.pending_bytes() > self.config.max_outbox_bytes;
        let want_write = conn.pending_out() && !overflow;
        if want_write != conn.watching_write {
            conn.watching_write = want_write;
            let _ = self.epoll.modify(
                &conn.fd,
                token,
                sys::Interest {
                    writable: want_write,
                },
            );
        }
        overflow.then_some(CloseReason::SlowReader)
    }

    /// Periodic housekeeping: slow-loris reaps, write-stall reaps, and
    /// retirement finalization the event edges may have missed.
    fn sweep(&mut self) {
        let idle_limit = self.config.idle_mid_frame;
        let stall_limit = self.config.write_stall;
        let mut overdue: Vec<(ConnId, CloseReason)> = Vec::new();
        for (id, c) in &self.conns {
            if !idle_limit.is_zero()
                && c.mid_frame_since
                    .is_some_and(|since| since.elapsed() >= idle_limit)
            {
                overdue.push((*id, CloseReason::IdleMidFrame));
            } else if !stall_limit.is_zero()
                && c.write_pending_since
                    .is_some_and(|since| since.elapsed() >= stall_limit)
            {
                overdue.push((*id, CloseReason::SlowReader));
            } else if c.retirement_complete() {
                overdue.push((*id, CloseReason::KeepaliveExhausted));
            }
        }
        for (id, reason) in overdue {
            match reason {
                CloseReason::IdleMidFrame => self.stats.idle_reaped += 1,
                CloseReason::SlowReader => self.stats.slow_reader_closed += 1,
                CloseReason::KeepaliveExhausted => self.stats.keepalive_closed += 1,
                _ => {}
            }
            self.close_conn(id, reason);
        }
    }

    fn close_conn(&mut self, token: ConnId, reason: CloseReason) {
        if let Some(conn) = self.conns.remove(&token) {
            // Protocol errors and idle reaps were counted at detection.
            if reason == CloseReason::TruncatedFrame {
                self.stats.truncated += 1;
            }
            let _ = self.epoll.delete(&conn.fd);
            self.handler.on_close(token, &reason);
            // conn.fd drops here, closing the socket.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameKind;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::mpsc;

    /// Echo handler: responds to every request with the payload reversed;
    /// forwards close reasons on a channel.
    struct Echo {
        closes: mpsc::Sender<CloseReason>,
    }

    impl Handler for Echo {
        fn on_frame(&mut self, _conn: ConnId, frame: Frame, reply: &mut Vec<Vec<u8>>) {
            let mut payload = frame.payload.clone();
            payload.reverse();
            reply.push(Frame::response(frame.tenant, frame.seq, payload).encode());
        }

        fn on_protocol_error(&mut self, _conn: ConnId, err: &FrameError, reply: &mut Vec<Vec<u8>>) {
            reply.push(Frame::reject(0, 0, format!("{err}").into_bytes()).encode());
        }

        fn on_close(&mut self, _conn: ConnId, reason: &CloseReason) {
            let _ = self.closes.send(reason.clone());
        }
    }

    fn start_echo(
        config: ReactorConfig,
    ) -> (
        u16,
        ReactorControl,
        std::thread::JoinHandle<ReactorStats>,
        mpsc::Receiver<CloseReason>,
    ) {
        let (tx, rx) = mpsc::channel();
        let reactor = Reactor::bind(config, Echo { closes: tx }).unwrap();
        let port = reactor.port();
        let control = reactor.control();
        let handle = seal_pool::spawn_worker("test-reactor", move || reactor.run()).unwrap();
        (port, control, handle, rx)
    }

    fn read_frame(stream: &mut TcpStream) -> Frame {
        let mut dec = FrameDecoder::new();
        let mut buf = [0u8; 4096];
        loop {
            if let Some(f) = dec.next_frame().unwrap() {
                return f;
            }
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0, "peer closed before a full frame arrived");
            dec.push(&buf[..n]);
        }
    }

    #[test]
    fn echo_roundtrip_over_tcp() {
        let (port, control, handle, _rx) = start_echo(ReactorConfig::default());
        let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        // An immediate reply left unwritten must fail this test, not hang it.
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        for seq in 0..10u64 {
            let req = Frame::request(3, seq, vec![1, 2, 3, seq as u8]);
            stream.write_all(&req.encode()).unwrap();
            let resp = read_frame(&mut stream);
            assert_eq!(resp.kind, FrameKind::Response);
            assert_eq!(resp.seq, seq);
            assert_eq!(resp.payload, vec![seq as u8, 3, 2, 1]);
        }
        drop(stream);
        control.shutdown();
        let stats = handle.join().unwrap();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.frames_in, 10);
        assert_eq!(stats.frames_out, 10);
        assert_eq!(stats.protocol_errors, 0);
    }

    #[test]
    fn malformed_stream_gets_typed_reject_and_close() {
        let (port, control, handle, rx) = start_echo(ReactorConfig::default());
        let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        stream.write_all(&[0u8; 64]).unwrap(); // garbage, bad magic
        let resp = read_frame(&mut stream);
        assert_eq!(resp.kind, FrameKind::Reject);
        assert!(String::from_utf8_lossy(&resp.payload).contains("magic"));
        // The server closes after the reject.
        let mut rest = Vec::new();
        let _ = stream.read_to_end(&mut rest);
        let reason = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(
            reason,
            CloseReason::Protocol(FrameError::BadMagic { .. })
        ));
        control.shutdown();
        let stats = handle.join().unwrap();
        assert_eq!(stats.protocol_errors, 1);
    }

    #[test]
    fn truncated_frame_detected_on_disconnect() {
        let (port, control, handle, rx) = start_echo(ReactorConfig::default());
        let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        let wire = Frame::request(1, 1, vec![9; 100]).encode();
        stream.write_all(&wire[..wire.len() / 2]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        drop(stream); // disconnect mid-frame
        let reason = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(reason, CloseReason::TruncatedFrame);
        control.shutdown();
        let stats = handle.join().unwrap();
        assert_eq!(stats.truncated, 1);
        assert_eq!(stats.frames_in, 0);
    }

    #[test]
    fn slow_loris_is_reaped() {
        let config = ReactorConfig {
            idle_mid_frame: Duration::from_millis(50),
            ..ReactorConfig::default()
        };
        let (port, control, handle, rx) = start_echo(config);
        let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        let wire = Frame::request(1, 1, vec![9; 100]).encode();
        stream.write_all(&wire[..10]).unwrap();
        stream.flush().unwrap();
        // Stall. The sweep must kill the connection without our help.
        let reason = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(reason, CloseReason::IdleMidFrame);
        control.shutdown();
        let stats = handle.join().unwrap();
        assert_eq!(stats.idle_reaped, 1);
    }

    #[test]
    fn responder_delivers_worker_responses() {
        struct Park {
            tx: mpsc::Sender<(ConnId, Frame)>,
        }
        impl Handler for Park {
            fn on_frame(&mut self, conn: ConnId, frame: Frame, _reply: &mut Vec<Vec<u8>>) {
                let _ = self.tx.send((conn, frame));
            }
        }
        let (tx, rx) = mpsc::channel();
        let reactor = Reactor::bind(ReactorConfig::default(), Park { tx }).unwrap();
        let port = reactor.port();
        let control = reactor.control();
        let responder = reactor.responder();
        let handle = seal_pool::spawn_worker("test-reactor", move || reactor.run()).unwrap();

        let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        // A lost wake must fail this test, not hang it.
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream
            .write_all(&Frame::request(8, 77, vec![5]).encode())
            .unwrap();
        // "Worker": receive the parked request, respond via the responder.
        let (conn, frame) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(frame.seq, 77);
        let mut replies = ReplyBatch::new();
        replies.push(conn, |out| {
            Frame::response(8, 77, vec![42]).encode_into(out)
        });
        responder.send(&mut replies);
        assert!(
            replies.is_empty(),
            "a send leaves the batch ready for reuse"
        );
        let resp = read_frame(&mut stream);
        assert_eq!(resp.payload, vec![42]);
        control.shutdown();
        let stats = handle.join().unwrap();
        assert_eq!(stats.frames_out, 1);
        assert_eq!(stats.dropped_responses, 0);
    }

    #[test]
    fn response_to_dead_conn_is_dropped_not_fatal() {
        struct Park {
            tx: mpsc::Sender<ConnId>,
        }
        impl Handler for Park {
            fn on_frame(&mut self, conn: ConnId, _frame: Frame, _reply: &mut Vec<Vec<u8>>) {
                let _ = self.tx.send(conn);
            }
        }
        let (tx, rx) = mpsc::channel();
        let reactor = Reactor::bind(ReactorConfig::default(), Park { tx }).unwrap();
        let port = reactor.port();
        let control = reactor.control();
        let responder = reactor.responder();
        let handle = seal_pool::spawn_worker("test-reactor", move || reactor.run()).unwrap();

        let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        stream
            .write_all(&Frame::request(1, 5, vec![]).encode())
            .unwrap();
        let conn = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        drop(stream); // client vanishes mid-request
        std::thread::sleep(Duration::from_millis(50));
        let mut replies = ReplyBatch::new();
        replies.push(conn, |out| Frame::response(1, 5, vec![1]).encode_into(out));
        responder.send(&mut replies);
        std::thread::sleep(Duration::from_millis(50));
        control.shutdown();
        let stats = handle.join().unwrap();
        assert_eq!(stats.dropped_responses, 1);
    }

    #[test]
    fn reply_batch_merges_consecutive_frames_for_one_connection() {
        let mut replies = ReplyBatch::new();
        for (conn, seq) in [(7, 0), (7, 1), (9, 2), (7, 3)] {
            replies.push(conn, |out| {
                Frame::response(0, seq, vec![seq as u8; 3]).encode_into(out)
            });
        }
        let frame = crate::frame::HEADER_LEN + 3;
        let run = |conn, frames| Run {
            conn,
            frames,
            len: frames as usize * frame,
        };
        assert_eq!(replies.runs, [run(7, 2), run(9, 1), run(7, 1)]);
        assert_eq!(replies.bytes.len(), 4 * frame);
    }

    /// Every interleaving of three posters and two reactor turns, each
    /// split where another thread can get in: a poster between its
    /// mailbox append and the wake it owes, the reactor between draining
    /// the pipe and taking the mailbox. Takes may also run unprompted (a
    /// stale wake), which only adds schedules. At no point may the
    /// mailbox hold a post with no wake in the pipe, none owed and no
    /// take about to happen — that post would wait for ever.
    #[test]
    fn no_interleaving_of_posts_and_takes_strands_a_post() {
        const POSTS: usize = 3;
        const TAKES: usize = 2;
        const OPS: usize = POSTS + TAKES;

        fn replay(schedule: &[usize]) {
            let mailbox = Mailbox::default();
            let mut pipe = 0u32; // wake bytes written and not yet drained
            let mut step = [0u8; OPS];
            let mut owes_wake = [false; POSTS];
            let mut taking = [false; TAKES]; // drained, about to take
            let mut inbound = ReplyBatch::new();
            let mut taken: Vec<ConnId> = Vec::new();
            for &op in schedule {
                match (op, step[op]) {
                    (post, 0) if post < POSTS => {
                        let mut replies = ReplyBatch::new();
                        replies.push(post as ConnId, |out| out.push(0));
                        owes_wake[post] = mailbox.post(&mut replies);
                    }
                    (post, _) if post < POSTS => {
                        pipe += u32::from(std::mem::take(&mut owes_wake[post]));
                    }
                    (take, 0) => {
                        pipe = 0;
                        taking[take - POSTS] = true;
                    }
                    (take, _) => {
                        mailbox.take(&mut inbound);
                        taken.extend(inbound.runs.iter().map(|run| run.conn));
                        taking[take - POSTS] = false;
                    }
                }
                step[op] += 1;
                let waiting = !locked(&mailbox.pending).is_empty();
                let covered = pipe > 0 || owes_wake.contains(&true) || taking.contains(&true);
                assert!(
                    !waiting || covered,
                    "schedule {schedule:?}: a post is stranded after op {op}"
                );
            }
            mailbox.take(&mut inbound);
            taken.extend(inbound.runs.iter().map(|run| run.conn));
            taken.sort_unstable();
            assert_eq!(
                taken,
                [0, 1, 2],
                "schedule {schedule:?} lost or repeated a post"
            );
        }

        fn extend(schedule: &mut Vec<usize>, left: &mut [u8; OPS], count: &mut u32) {
            if left.iter().all(|&n| n == 0) {
                replay(schedule);
                *count += 1;
                return;
            }
            for op in 0..OPS {
                if left[op] > 0 {
                    left[op] -= 1;
                    schedule.push(op);
                    extend(schedule, left, count);
                    schedule.pop();
                    left[op] += 1;
                }
            }
        }

        let mut count = 0;
        extend(&mut Vec::new(), &mut [2; OPS], &mut count);
        assert_eq!(count, 113_400, "10! / 2^5 schedules");
    }

    #[test]
    fn over_capacity_connections_are_shed() {
        let config = ReactorConfig {
            max_conns: 1,
            ..ReactorConfig::default()
        };
        let (port, control, handle, _rx) = start_echo(config);
        let mut keep = TcpStream::connect(("127.0.0.1", port)).unwrap();
        // Prove the first conn is established end-to-end before the probe.
        keep.write_all(&Frame::request(0, 1, vec![]).encode())
            .unwrap();
        let _ = read_frame(&mut keep);
        let mut probe = TcpStream::connect(("127.0.0.1", port)).unwrap();
        // The reactor accepts then immediately closes the excess conn.
        let mut buf = [0u8; 16];
        probe
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let n = probe.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "excess connection should see EOF");
        control.shutdown();
        let stats = handle.join().unwrap();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.over_capacity, 1);
    }
}
