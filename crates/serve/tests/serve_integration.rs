//! End-to-end tests of the serving runtime through the public library API:
//! a closed-loop run over the CONV model with the full acceptance checks,
//! open-loop pacing, and admission-control backpressure.

use std::time::Duration;

use seal_core::Scheme;
use seal_serve::{loadgen, ServeReport, Server, ServerConfig};
use seal_tensor::rng::rngs::StdRng;
use seal_tensor::rng::SeedableRng;

fn scheme_throughput(report: &ServeReport, scheme: Scheme) -> f64 {
    report
        .stats
        .schemes
        .iter()
        .find(|r| r.scheme == scheme)
        .map(|r| r.throughput_rps)
        .unwrap_or(0.0)
}

#[test]
fn closed_loop_vgg16_satisfies_the_acceptance_checks() {
    let config = ServerConfig {
        workers: 2,
        max_batch: 8,
        ..ServerConfig::smoke()
    };
    let server = Server::start(config.clone()).unwrap();
    let load = loadgen::run_closed(&server, 24, 4, 11).unwrap();
    let stats = server.shutdown().unwrap();
    assert_eq!(load.completed, 24);
    assert_eq!(stats.batches.samples, 24);
    assert!(stats.worker_errors.is_empty(), "{:?}", stats.worker_errors);

    let report = ServeReport {
        config,
        load,
        stats,
        quant_comparison: None,
    };
    let violations = report.smoke_violations();
    assert!(violations.is_empty(), "{violations:?}");

    // The tentpole claim, stated directly: on the same model and request
    // stream, SEAL smart encryption (50% ratio) serves strictly faster
    // than full encryption and strictly slower than no encryption.
    let base = scheme_throughput(&report, Scheme::Baseline);
    let seal = scheme_throughput(&report, Scheme::SealCounter);
    let full = scheme_throughput(&report, Scheme::Counter);
    assert!(
        base > seal && seal > full,
        "throughput must order Baseline > SEAL-C > Counter: {base} {seal} {full}"
    );
}

#[test]
fn open_loop_emits_a_complete_json_report() {
    let config = ServerConfig {
        model: "mlp".into(),
        ..ServerConfig::smoke()
    };
    let server = Server::start(config.clone()).unwrap();
    let load = loadgen::run_open(&server, 30, 2000.0, 13).unwrap();
    let stats = server.shutdown().unwrap();
    assert_eq!(load.completed + load.rejected, 30);

    let report = ServeReport {
        config,
        load,
        stats,
        quant_comparison: None,
    };
    let json = report.to_json();
    for needle in ["\"mode\": \"open\"", "\"schemes\"", "\"SEAL-C\""] {
        assert!(json.contains(needle), "missing {needle}");
    }
}

#[test]
fn tiny_queue_exerts_backpressure_on_an_open_loop() {
    // One worker on the slow CONV model behind a queue of one: a burst of
    // un-paced submissions must hit admission control.
    let config = ServerConfig {
        workers: 1,
        max_batch: 1,
        batch_deadline: Duration::ZERO,
        queue_capacity: 1,
        ..ServerConfig::smoke()
    };
    let server = Server::start(config).unwrap();
    let mut rng = StdRng::seed_from_u64(17);
    let mut accepted = Vec::new();
    let mut rejected = 0usize;
    for _ in 0..200 {
        match server.submit(server.sample_input(&mut rng)) {
            Ok(h) => accepted.push(h),
            Err(seal_serve::ServeError::QueueFull { capacity }) => {
                assert_eq!(capacity, 1);
                rejected += 1;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(rejected > 0, "a queue of 1 must reject some of 200 rapid submissions");
    assert!(!accepted.is_empty());
    for h in accepted {
        h.wait().unwrap();
    }
    let stats = server.shutdown().unwrap();
    assert!(stats.queue_depth.depth_max <= 1);
}

#[test]
fn quantized_serving_shrinks_every_encrypting_lane() {
    // The same 16-request closed-loop workload served twice: f32 plan vs
    // int8 quantized plan. Every prediction still lands, and each
    // encrypting lane of the quantized run moves ~4× fewer encrypted
    // bytes and finishes sooner in virtual cycles.
    // Singleton batches: encrypted weights stream once per *batch*, so
    // with wall-clock batching the two runs' byte counts would depend on
    // how their 16 requests happened to group (one run forming 4 batches
    // and the other 16 breaks the 3× below without any lane changing).
    let f_config = ServerConfig {
        workers: 2,
        max_batch: 1,
        ..ServerConfig::smoke()
    };
    let q_config = ServerConfig {
        quantized: true,
        ..f_config.clone()
    };
    let run = |config: ServerConfig| {
        let server = Server::start(config).unwrap();
        let load = loadgen::run_closed(&server, 16, 4, 29).unwrap();
        let stats = server.shutdown().unwrap();
        assert_eq!(load.completed, 16);
        assert!(stats.worker_errors.is_empty(), "{:?}", stats.worker_errors);
        stats
    };
    let f_stats = run(f_config);
    let q_stats = run(q_config);
    for scheme in [Scheme::SealCounter, Scheme::Counter] {
        let f = f_stats.stats_scheme(scheme).unwrap();
        let q = q_stats.stats_scheme(scheme).unwrap();
        assert!(
            q.enc_bytes * 3 < f.enc_bytes,
            "{scheme:?}: int8 enc {} vs f32 {}",
            q.enc_bytes,
            f.enc_bytes
        );
        assert!(
            q.makespan_cycles < f.makespan_cycles,
            "{scheme:?}: int8 makespan {} vs f32 {}",
            q.makespan_cycles,
            f.makespan_cycles
        );
    }
    // Baseline encrypts nothing in either dtype.
    assert_eq!(q_stats.stats_scheme(Scheme::Baseline).unwrap().enc_bytes, 0);
}

#[test]
fn resnet18_serves_through_the_same_pipeline() {
    let config = ServerConfig {
        model: "resnet18".into(),
        workers: 2,
        ..ServerConfig::smoke()
    };
    let server = Server::start(config).unwrap();
    let load = loadgen::run_closed(&server, 8, 2, 23).unwrap();
    let stats = server.shutdown().unwrap();
    assert_eq!(load.completed, 8);
    let seal = stats
        .stats_scheme(Scheme::SealCounter)
        .expect("SEAL-C lane present");
    assert!(seal.enc_bytes > 0);
}

/// Helper trait kept test-local: row lookup on [`seal_serve::ServeStats`].
trait SchemeLookup {
    fn stats_scheme(&self, s: Scheme) -> Option<&seal_serve::SchemeSummary>;
}

impl SchemeLookup for seal_serve::ServeStats {
    fn stats_scheme(&self, s: Scheme) -> Option<&seal_serve::SchemeSummary> {
        self.schemes.iter().find(|r| r.scheme == s)
    }
}
