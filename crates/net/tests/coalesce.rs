//! The batch-granular reply path (DESIGN §6h): a worker's replies reach
//! the reactor one [`ReplyBatch`] at a time, and the reactor appends a
//! whole mailbox to the outboxes before it writes — once per connection.
//! These tests pin what must survive multi-frame appends: answer order,
//! per-frame counters, settlement by frame count and the typed closes.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Duration;

use seal_net::{
    CloseReason, ConnId, Frame, FrameClient, FrameDecoder, FrameKind, Handler, Reactor,
    ReactorConfig, ReactorControl, ReactorStats, ReplyBatch, Responder,
};

const WAIT: Duration = Duration::from_secs(5);

/// Parks every request on a channel for the test's "worker" to answer
/// through the [`Responder`]; over-cap frames draw a typed reject.
struct Park {
    frames: mpsc::Sender<(ConnId, Frame)>,
    closes: mpsc::Sender<(ConnId, CloseReason)>,
}

impl Handler for Park {
    fn on_frame(&mut self, conn: ConnId, frame: Frame, _reply: &mut Vec<Vec<u8>>) {
        let _ = self.frames.send((conn, frame));
    }

    fn on_pipeline_exceeded(&mut self, _conn: ConnId, frame: &Frame, reply: &mut Vec<Vec<u8>>) {
        reply.push(Frame::reject(frame.tenant, frame.seq, b"pipeline".to_vec()).encode());
    }

    fn on_close(&mut self, conn: ConnId, reason: &CloseReason) {
        let _ = self.closes.send((conn, reason.clone()));
    }
}

struct Parked {
    port: u16,
    control: ReactorControl,
    responder: Responder,
    reactor: std::thread::JoinHandle<ReactorStats>,
    frames: mpsc::Receiver<(ConnId, Frame)>,
    closes: mpsc::Receiver<(ConnId, CloseReason)>,
}

impl Parked {
    fn start(config: ReactorConfig) -> Parked {
        let (frames_tx, frames) = mpsc::channel();
        let (closes_tx, closes) = mpsc::channel();
        let handler = Park {
            frames: frames_tx,
            closes: closes_tx,
        };
        let reactor = Reactor::bind(config, handler).unwrap();
        Parked {
            port: reactor.port(),
            control: reactor.control(),
            responder: reactor.responder(),
            reactor: seal_pool::spawn_worker("coalesce-reactor", move || reactor.run()).unwrap(),
            frames,
            closes,
        }
    }

    /// The next `n` parked requests, in arrival order.
    fn parked(&self, n: usize) -> Vec<(ConnId, Frame)> {
        (0..n)
            .map(|_| self.frames.recv_timeout(WAIT).expect("a parked request"))
            .collect()
    }

    /// Answers `requests` (payload `fill` repeated `len` times) with one
    /// [`ReplyBatch`] and one send.
    fn answer(&self, requests: &[(ConnId, Frame)], len: usize) {
        let mut replies = ReplyBatch::new();
        for (conn, frame) in requests {
            let payload = vec![frame.seq as u8; len];
            replies.push(*conn, |out| {
                Frame::response(frame.tenant, frame.seq, payload).encode_into(out);
            });
        }
        self.responder.send(&mut replies);
    }

    fn stop(self) -> ReactorStats {
        self.control.shutdown();
        self.reactor.join().unwrap()
    }
}

/// A raw stream with a persistent decoder: coalesced replies span reads.
struct Wire {
    stream: TcpStream,
    dec: FrameDecoder,
}

impl Wire {
    fn connect(port: u16) -> Wire {
        let stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        stream.set_read_timeout(Some(WAIT)).unwrap();
        Wire {
            stream,
            dec: FrameDecoder::new(),
        }
    }

    /// Requests `seqs` of tenant 1 in one write, so one readable event
    /// carries them all.
    fn burst(&mut self, seqs: std::ops::Range<u64>) {
        let bytes: Vec<u8> = seqs
            .flat_map(|seq| Frame::request(1, seq, vec![seq as u8]).encode())
            .collect();
        self.stream.write_all(&bytes).unwrap();
    }

    /// Next frame, or `None` on EOF / reset / timeout.
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
fn a_burst_answered_in_batches_costs_at_most_one_write_and_one_wake_per_batch() {
    let server = Parked::start(ReactorConfig::default());
    let mut wire = Wire::connect(server.port);
    wire.burst(0..48);
    let requests = server.parked(48);
    // Answer in reverse arrival order, so "answer order" is not an
    // accident of request order, in batches of 1, 5, 8, 1, 5, 8, …
    let answers: Vec<_> = requests.into_iter().rev().collect();
    let mut batches = 0u64;
    let mut rest = answers.as_slice();
    for size in [1usize, 5, 8].into_iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (batch, tail) = rest.split_at(size.min(rest.len()));
        server.answer(batch, 4);
        batches += 1;
        rest = tail;
    }
    assert_eq!(batches, 11);
    for (_, request) in &answers {
        let reply = wire.read_frame().expect("a reply per request");
        assert_eq!(reply.kind, FrameKind::Response);
        assert_eq!(reply.seq, request.seq, "replies leave in answer order");
        assert_eq!(reply.payload, vec![request.seq as u8; 4]);
    }
    let stats = server.stop();
    assert_eq!(stats.frames_in, 48);
    assert_eq!(stats.frames_out, 48);
    assert_eq!(stats.dropped_responses, 0);
    assert!(
        (1..=batches).contains(&stats.socket_writes),
        "{} socket writes for {batches} batches",
        stats.socket_writes
    );
    assert!(
        (1..=batches).contains(&stats.wakeups),
        "{} wakes for {batches} batches",
        stats.wakeups
    );
}

#[test]
fn an_append_that_crosses_the_outbox_cap_closes_once_as_slow_reader() {
    let server = Parked::start(ReactorConfig {
        sndbuf: 16 * 1024,
        max_outbox_bytes: 64 * 1024,
        write_stall: Duration::ZERO, // isolate the byte-cap path
        ..ReactorConfig::default()
    });
    // A capped receive window that nobody reads: replies back up.
    let mut client = FrameClient::connect_with_rcvbuf(server.port, WAIT, 8 * 1024).unwrap();
    let burst: Vec<u8> = (0..4u64)
        .flat_map(|seq| Frame::request(1, seq, vec![]).encode())
        .collect();
    client.send_raw(&burst).unwrap();
    let requests = server.parked(4);
    // Four 256 KiB replies in one append: the cap is crossed by the
    // first, and all four are in the outbox before the one write.
    server.answer(&requests, 256 * 1024);
    let (_, reason) = server.closes.recv_timeout(WAIT).unwrap();
    assert_eq!(reason, CloseReason::SlowReader);
    assert!(
        server.closes.recv_timeout(Duration::from_millis(100)).is_err(),
        "one connection, one close"
    );
    let stats = server.stop();
    assert_eq!(stats.slow_reader_closed, 1);
    assert_eq!(stats.frames_out, 4, "every appended frame is counted");
    assert_eq!(stats.dropped_responses, 0);
    drop(client);
}

#[test]
fn a_retiring_connection_closes_after_the_append_that_settles_its_last_frame() {
    let server = Parked::start(ReactorConfig {
        keepalive_frames: 3,
        ..ReactorConfig::default()
    });
    let mut wire = Wire::connect(server.port);
    wire.burst(0..3);
    let requests = server.parked(3);
    let goaway = wire.read_frame().expect("the budget's GOAWAY");
    assert_eq!(goaway.kind, FrameKind::Goaway);
    // Two of three settled: the connection must stay up for the third.
    server.answer(&requests[..2], 1);
    for seq in 0..2 {
        assert_eq!(wire.read_frame().expect("a reply").seq, seq);
    }
    assert!(
        server.closes.recv_timeout(Duration::from_millis(100)).is_err(),
        "still owed an answer"
    );
    server.answer(&requests[2..], 1);
    assert_eq!(wire.read_frame().expect("the last reply").seq, 2);
    assert!(wire.read_frame().is_none(), "EOF once everything is settled");
    let (_, reason) = server.closes.recv_timeout(WAIT).unwrap();
    assert_eq!(reason, CloseReason::KeepaliveExhausted);
    let stats = server.stop();
    assert_eq!(stats.keepalive_closed, 1);
    assert_eq!(stats.frames_out, 4, "three replies and the GOAWAY");
}

#[test]
fn one_append_of_n_frames_frees_n_pipeline_slots() {
    let server = Parked::start(ReactorConfig {
        max_pipeline: 4,
        pipeline_strikes: 100,
        ..ReactorConfig::default()
    });
    let mut wire = Wire::connect(server.port);
    wire.burst(0..4);
    let requests = server.parked(4);
    server.answer(&requests, 1);
    for seq in 0..4 {
        assert_eq!(wire.read_frame().expect("a reply").seq, seq);
    }
    // The replies were written, so their slots were settled before: a
    // second full window must be admitted whole.
    wire.burst(4..8);
    let requests = server.parked(4);
    server.answer(&requests, 1);
    for seq in 4..8 {
        let reply = wire.read_frame().expect("a reply");
        assert_eq!((reply.kind, reply.seq), (FrameKind::Response, seq));
    }
    let stats = server.stop();
    assert_eq!(stats.pipeline_rejects, 0);
    assert_eq!(stats.frames_in, 8);
    assert_eq!(stats.frames_out, 8);
}

#[test]
fn a_batch_is_split_per_connection_and_a_dead_connection_drops_by_frames() {
    let server = Parked::start(ReactorConfig::default());
    let (mut a, mut b, mut gone) = (
        Wire::connect(server.port),
        Wire::connect(server.port),
        Wire::connect(server.port),
    );
    // One connection at a time, so the parked order is known.
    a.burst(0..2);
    let for_a = server.parked(2);
    b.burst(10..12);
    let for_b = server.parked(2);
    gone.burst(20..22);
    let for_gone = server.parked(2);
    drop(gone);
    let (closed, reason) = server.closes.recv_timeout(WAIT).unwrap();
    assert_eq!((closed, reason), (for_gone[0].0, CloseReason::PeerClosed));

    // One batch, riders interleaved: A, B, gone, gone, A, B.
    let riders = [
        for_a[0].clone(),
        for_b[0].clone(),
        for_gone[0].clone(),
        for_gone[1].clone(),
        for_a[1].clone(),
        for_b[1].clone(),
    ];
    server.answer(&riders, 2);
    for (wire, seqs) in [(&mut a, [0, 1]), (&mut b, [10, 11])] {
        for seq in seqs {
            let reply = wire.read_frame().expect("a reply");
            assert_eq!((reply.kind, reply.seq), (FrameKind::Response, seq));
        }
    }
    let stats = server.stop();
    assert_eq!(stats.frames_out, 4);
    assert_eq!(stats.dropped_responses, 2, "dropped frames, not dropped runs");
    assert_eq!(stats.wakeups, 1);
    assert_eq!(stats.socket_writes, 2, "one write per live connection");
}
