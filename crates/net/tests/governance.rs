//! Connection-lifecycle governance integration tests (DESIGN §6j):
//! pipelining caps with strike-based closes, keepalive budgets with
//! GOAWAY retirement, write-side backpressure (outbox byte cap + the
//! write-stall reaper), and the graceful drain protocol.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Duration;

use seal_net::{
    CloseReason, ConnId, Frame, FrameClient, FrameDecoder, FrameKind, Handler, NetError, Reactor,
    ReactorConfig, ReactorControl, ReactorStats,
};

/// Echoes every request's payload reversed; forwards closes on a channel
/// and answers over-cap frames with a typed reject.
struct Echo {
    closes: mpsc::Sender<CloseReason>,
}

impl Handler for Echo {
    fn on_frame(&mut self, _conn: ConnId, frame: Frame, reply: &mut Vec<Vec<u8>>) {
        let mut payload = frame.payload.clone();
        payload.reverse();
        reply.push(Frame::response(frame.tenant, frame.seq, payload).encode());
    }

    fn on_pipeline_exceeded(&mut self, _conn: ConnId, frame: &Frame, reply: &mut Vec<Vec<u8>>) {
        reply.push(Frame::reject(frame.tenant, frame.seq, b"pipeline".to_vec()).encode());
    }

    fn on_close(&mut self, _conn: ConnId, reason: &CloseReason) {
        let _ = self.closes.send(reason.clone());
    }
}

/// Parks every request without replying, so in-flight never settles.
struct Park {
    closes: mpsc::Sender<CloseReason>,
}

impl Handler for Park {
    fn on_frame(&mut self, _conn: ConnId, _frame: Frame, _reply: &mut Vec<Vec<u8>>) {}

    fn on_pipeline_exceeded(&mut self, _conn: ConnId, frame: &Frame, reply: &mut Vec<Vec<u8>>) {
        reply.push(Frame::reject(frame.tenant, frame.seq, b"pipeline".to_vec()).encode());
    }

    fn on_close(&mut self, _conn: ConnId, reason: &CloseReason) {
        let _ = self.closes.send(reason.clone());
    }
}

type Started = (
    u16,
    ReactorControl,
    std::thread::JoinHandle<ReactorStats>,
    mpsc::Receiver<CloseReason>,
);

fn start<H: Handler + 'static>(
    config: ReactorConfig,
    make: impl FnOnce(mpsc::Sender<CloseReason>) -> H,
) -> Started {
    let (tx, rx) = mpsc::channel();
    let reactor = Reactor::bind(config, make(tx)).unwrap();
    let port = reactor.port();
    let control = reactor.control();
    let handle = seal_pool::spawn_worker("gov-reactor", move || reactor.run()).unwrap();
    (port, control, handle, rx)
}

/// A raw stream plus a *persistent* decoder: server flushes coalesce on
/// loopback, so frames must survive across reads.
struct Wire {
    stream: TcpStream,
    dec: FrameDecoder,
}

impl Wire {
    fn connect(port: u16) -> Wire {
        let stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        Wire {
            stream,
            dec: FrameDecoder::new(),
        }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).unwrap();
    }

    /// Next frame, or `None` on EOF / reset.
    fn read_frame(&mut self) -> Option<Frame> {
        let mut buf = [0u8; 4096];
        loop {
            if let Some(f) = self.dec.next_frame().unwrap() {
                return Some(f);
            }
            let n = self.stream.read(&mut buf).ok()?;
            if n == 0 {
                return None;
            }
            self.dec.push(&buf[..n]);
        }
    }
}

#[test]
fn pipeline_cap_rejects_then_closes_repeat_offender() {
    let config = ReactorConfig {
        max_pipeline: 2,
        pipeline_strikes: 3,
        ..ReactorConfig::default()
    };
    let (port, control, handle, rx) = start(config, |tx| Park { closes: tx });
    let mut wire = Wire::connect(port);
    // One atomic burst: 2 admitted (parked forever), 3 over-cap strikes.
    let mut burst = Vec::new();
    for seq in 0..5u64 {
        burst.extend_from_slice(&Frame::request(1, seq, vec![seq as u8]).encode());
    }
    wire.send(&burst);
    // Each strike earns a typed reject; the third closes the connection.
    for seq in 2..5u64 {
        let reject = wire.read_frame().expect("reject frame");
        assert_eq!(reject.kind, FrameKind::Reject);
        assert_eq!(reject.seq, seq);
        assert_eq!(reject.payload, b"pipeline");
    }
    assert!(
        wire.read_frame().is_none(),
        "expected EOF after abuse close"
    );
    let reason = rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(reason, CloseReason::PipelineAbuse);
    control.shutdown();
    let stats = handle.join().unwrap();
    assert_eq!(stats.frames_in, 5);
    assert_eq!(stats.pipeline_rejects, 3);
    assert_eq!(stats.pipeline_closed, 1);
}

#[test]
fn keepalive_budget_retires_with_goaway() {
    let config = ReactorConfig {
        keepalive_frames: 3,
        ..ReactorConfig::default()
    };
    let (port, control, handle, rx) = start(config, |tx| Echo { closes: tx });
    let mut wire = Wire::connect(port);
    for seq in 0..3u64 {
        wire.send(&Frame::request(7, seq, vec![1, 2, 3]).encode());
        let resp = wire.read_frame().expect("echoed response");
        assert_eq!(resp.kind, FrameKind::Response);
        assert_eq!(resp.seq, seq);
    }
    // The budget-exhausting frame is still answered, then GOAWAY + close.
    let goaway = wire.read_frame().expect("goaway frame");
    assert_eq!(goaway.kind, FrameKind::Goaway);
    assert_eq!(goaway.payload, b"keepalive budget exhausted");
    assert!(wire.read_frame().is_none(), "expected EOF after retirement");
    let reason = rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(reason, CloseReason::KeepaliveExhausted);
    control.shutdown();
    let stats = handle.join().unwrap();
    assert_eq!(stats.keepalive_closed, 1);
    assert_eq!(stats.goaways_sent, 1);
    assert_eq!(stats.frames_in, 3);
}

#[test]
fn slow_reader_overflowing_outbox_is_closed() {
    let config = ReactorConfig {
        sndbuf: 16 * 1024,
        max_outbox_bytes: 64 * 1024,
        write_stall: Duration::ZERO, // isolate the byte-cap path
        ..ReactorConfig::default()
    };
    let (port, control, handle, rx) = start(config, |tx| Echo { closes: tx });
    let mut client =
        FrameClient::connect_with_rcvbuf(port, Duration::from_secs(5), 8 * 1024).unwrap();
    // A 512 KiB echo cannot fit in the capped socket buffers, so the
    // outbox retains far more than 64 KiB and the reactor must close us.
    client
        .send(&Frame::request(1, 1, vec![0xAB; 512 * 1024]))
        .unwrap();
    let reason = rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(reason, CloseReason::SlowReader);
    control.shutdown();
    let stats = handle.join().unwrap();
    assert_eq!(stats.slow_reader_closed, 1);
    drop(client);
}

#[test]
fn write_stall_reaper_closes_unread_conn_within_deadline() {
    let stall = Duration::from_millis(100);
    let config = ReactorConfig {
        sndbuf: 16 * 1024,
        max_outbox_bytes: 0, // unbounded: only the stall deadline applies
        write_stall: stall,
        ..ReactorConfig::default()
    };
    let (port, control, handle, rx) = start(config, |tx| Echo { closes: tx });
    let mut client =
        FrameClient::connect_with_rcvbuf(port, Duration::from_secs(5), 8 * 1024).unwrap();
    client
        .send(&Frame::request(1, 1, vec![0xCD; 512 * 1024]))
        .unwrap();
    let started = std::time::Instant::now();
    // Never read: the stall reaper must fire on its own.
    let reason = rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(reason, CloseReason::SlowReader);
    // Sweep cadence is limit/2, so the reap lands within ~1.5× the
    // deadline; allow generous slack for CI scheduling.
    assert!(
        started.elapsed() < stall * 20,
        "reap took {:?}, deadline {stall:?}",
        started.elapsed()
    );
    control.shutdown();
    let stats = handle.join().unwrap();
    assert_eq!(stats.slow_reader_closed, 1);
    drop(client);
}

#[test]
fn drain_sends_goaway_freezes_accepts_and_keeps_serving() {
    let (port, control, handle, _rx) = start(ReactorConfig::default(), |tx| Echo { closes: tx });
    let mut wire = Wire::connect(port);
    wire.send(&Frame::request(1, 1, vec![1, 2]).encode());
    assert_eq!(wire.read_frame().unwrap().kind, FrameKind::Response);

    control.drain();
    let goaway = wire.read_frame().expect("goaway on drain");
    assert_eq!(goaway.kind, FrameKind::Goaway);
    assert_eq!(goaway.payload, b"draining");

    // Accepts are frozen: the kernel may complete the handshake from the
    // backlog, but the reactor never services the socket.
    let mut late = TcpStream::connect(("127.0.0.1", port)).unwrap();
    late.set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    late.write_all(&Frame::request(1, 9, vec![]).encode())
        .unwrap();
    let mut buf = [0u8; 16];
    assert!(
        matches!(late.read(&mut buf), Err(_) | Ok(0)),
        "drained reactor must not serve new connections"
    );

    // Existing connections keep flowing until shutdown.
    wire.send(&Frame::request(1, 2, vec![3, 4]).encode());
    let resp = wire.read_frame().expect("in-flight service during drain");
    assert_eq!(resp.kind, FrameKind::Response);
    assert_eq!(resp.seq, 2);

    control.shutdown();
    let stats = handle.join().unwrap();
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.goaways_sent, 1);
    assert_eq!(stats.frames_in, 2);
}

#[test]
fn capped_rcvbuf_client_still_roundtrips_when_reading() {
    // Sanity for the slow-reader *client* helper: a capped-rcvbuf client
    // that does read behaves like any other client.
    let (port, control, handle, _rx) = start(ReactorConfig::default(), |tx| Echo { closes: tx });
    let mut client =
        FrameClient::connect_with_rcvbuf(port, Duration::from_secs(5), 8 * 1024).unwrap();
    client
        .send(&Frame::request(2, 11, vec![9; 100_000]))
        .unwrap();
    let resp = client.recv().unwrap();
    assert_eq!(resp.kind, FrameKind::Response);
    assert_eq!(resp.payload.len(), 100_000);
    drop(client);
    control.shutdown();
    let _ = handle.join().unwrap();
    // NetError is part of the governance surface for callers.
    let err = FrameClient::connect(1, Duration::from_millis(100)).unwrap_err();
    assert!(matches!(err, NetError::Io { .. }));
}
