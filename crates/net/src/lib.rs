//! seal-net: the hand-rolled TCP serving edge.
//!
//! The ROADMAP's north star is serving "millions of users"; this crate is
//! the network edge that makes "users" mean something — real sockets, a
//! real wire protocol, real backpressure — while keeping the workspace's
//! zero-external-crate rule. It provides three layers:
//!
//! * [`sys`] — the raw syscall boundary. Every `extern "C"` declaration
//!   and every `unsafe` block in the crate lives in that one file, wrapped
//!   in owned-fd safe types; the seal-analyze `raw-syscall` lint keeps it
//!   that way workspace-wide.
//! * [`frame`] — the length-prefixed, versioned binary frame protocol
//!   (magic, version, kind, tenant id, correlation seq, payload), with an
//!   incremental decoder whose every failure mode is a typed error.
//! * [`reactor`] — a single-threaded edge-triggered epoll reactor:
//!   nonblocking accept, per-connection read/decode/write state machines,
//!   a wake pipe + [`reactor::Responder`] mailbox that takes a worker's
//!   replies a batch at a time (one append, at most one wake, one socket
//!   write per connection), a mid-frame idle sweep (slow-loris defence)
//!   and typed close reasons for every way a connection can die.
//!   Connection-lifecycle governance
//!   (pipelining caps, keepalive budgets, write backpressure with a
//!   slow-reader reaper, GOAWAY-based graceful drain) lives here too —
//!   see DESIGN §6j.
//!
//! Policy — tenants, admission, fairness, inference — deliberately lives
//! above, in `seal-serve`: the reactor only moves frames. The
//! load-generator side ([`client`]) is a plain blocking `std::net` client
//! so tests and chaos injectors share one protocol implementation.

pub mod client;
pub mod error;
pub mod frame;
pub mod reactor;
pub mod sys;

pub use client::FrameClient;
pub use error::NetError;
pub use frame::{Frame, FrameDecoder, FrameError, FrameKind, HEADER_LEN, MAX_PAYLOAD};
pub use reactor::{
    CloseReason, ConnId, Handler, Reactor, ReactorConfig, ReactorControl, ReactorStats, ReplyBatch,
    Responder,
};
