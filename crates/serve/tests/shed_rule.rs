//! The one shed rule, through both front ends: a request is shed exactly
//! when its deadline is at or before the instant a worker picks it up
//! (the boundary itself is unit-tested next to the rule, in
//! `machine.rs`). A born-expired request always sheds;
//! `request_deadline == 0` never sheds organically.

use std::time::Duration;

use seal_faults::RequestFault;
use seal_net::{Frame, FrameClient, FrameKind};
use seal_serve::netserve::{parse_reject, REJECT_SHED};
use seal_serve::{NetServer, NetServerConfig, ServeError, Server, ServerConfig};
use seal_tensor::rng::rngs::StdRng;
use seal_tensor::rng::SeedableRng;

/// One serial worker on the `mlp`, one request per batch.
fn config(request_deadline: Duration) -> ServerConfig {
    ServerConfig {
        model: "mlp".into(),
        workers: 1,
        max_batch: 1,
        request_deadline,
        chaos_slow_delay: Duration::from_millis(20),
        ..ServerConfig::smoke()
    }
}

#[test]
fn in_process_requests_shed_only_when_born_expired() {
    let server = Server::start(config(Duration::ZERO)).unwrap();
    let mut rng = StdRng::seed_from_u64(8);
    let mut submit = |fault| {
        let input = server.sample_input(&mut rng);
        server.submit_with_fault(input, fault).unwrap()
    };
    let slow = submit(Some(RequestFault::Slow));
    let queued: Vec<_> = (0..4).map(|_| submit(None)).collect();
    let bust = submit(Some(RequestFault::DeadlineBust));
    slow.wait().unwrap();
    for handle in queued {
        let waited = handle.wait().unwrap().queue_wait;
        assert!(
            waited >= Duration::from_millis(10),
            "sat out the slow batch"
        );
    }
    match bust.wait() {
        Err(ServeError::DeadlineExceeded { deadline, .. }) => assert_eq!(deadline, Duration::ZERO),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(server.shutdown().unwrap().shed, 1);
}

#[test]
fn wire_requests_shed_by_the_same_rule() {
    // A 1 ns deadline has always passed by pick-up; zero means none.
    for (request_deadline, want_shed) in [(Duration::ZERO, 0), (Duration::from_nanos(1), 1)] {
        let mut net = NetServerConfig::smoke(1);
        net.base = config(request_deadline);
        let server = NetServer::start(net).unwrap();
        let mut client = FrameClient::connect(server.port(), Duration::from_secs(10)).unwrap();
        let request = Frame::request(0, 1, 7u64.to_le_bytes().to_vec());
        client.send(&request).unwrap();
        let reply = client.recv().unwrap();
        if want_shed == 0 {
            assert_eq!(reply.kind, FrameKind::Response);
        } else {
            assert_eq!(parse_reject(&reply.payload).unwrap().0, REJECT_SHED);
        }
        drop(client);
        assert_eq!(server.shutdown().unwrap().tenants[0].4, want_shed);
    }
}
