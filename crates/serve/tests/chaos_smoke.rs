//! End-to-end chaos suite: the server under a seeded `FaultPlan` covering
//! every fault class must stay live (every request completes or is shed
//! with a typed error — no hangs), must detect every injected tamper via
//! its per-block MACs (zero silent corruptions), and must produce
//! identical fault/recovery counts for identical seeds.

use seal_serve::{loadgen, ChaosRun, ChaosSmoke, Server, ServerConfig};

fn chaos_run(seed: u64, requests: usize) -> ChaosRun {
    let server = Server::start(ServerConfig::chaos_smoke(seed)).expect("start");
    let load = loadgen::run_chaos(&server, requests, 4).expect("chaos loop");
    let stats = server.shutdown().expect("shutdown");
    ChaosRun { load, stats }
}

#[test]
fn chaos_smoke_is_live_deterministic_and_never_silent() {
    let seed = 42;
    let smoke = ChaosSmoke {
        seed,
        runs: [chaos_run(seed, 160), chaos_run(seed, 160)],
    };
    let violations = smoke.violations();
    assert!(violations.is_empty(), "chaos violations: {violations:?}");
    assert!(smoke.deterministic());

    let run = &smoke.runs[0];
    // The schedule actually exercised every fault class at this size.
    assert!(run.load.injected.worker_panics > 0);
    assert!(run.load.injected.oversized > 0);
    assert!(run.load.injected.slow > 0);
    assert!(run.load.injected.deadline_busts > 0);
    let faults = run.stats.faults.expect("chaos armed");
    assert!(faults.tampers_injected > 0);
    assert!(faults.stalls_injected > 0);
    assert!(faults.storms_injected > 0);
    assert!(
        faults.recoveries > 0,
        "recovery was priced through the engine"
    );
    assert!(faults.recovery_cycles > 0);
    assert!(faults.stall_cycles > 0);
}

#[test]
fn different_seeds_produce_different_schedules() {
    let a = chaos_run(1, 160);
    let b = chaos_run(2, 160);
    assert!(a.load.fully_accounted() && b.load.fully_accounted());
    assert_eq!(
        a.load.timeouts + b.load.timeouts,
        0,
        "liveness holds per seed"
    );
    assert_ne!(
        a.deterministic_counts(),
        b.deterministic_counts(),
        "the plan must actually depend on its seed"
    );
}

#[test]
fn chaos_json_artifact_carries_the_verdict() {
    let seed = 7;
    let smoke = ChaosSmoke {
        seed,
        runs: [chaos_run(seed, 80), chaos_run(seed, 80)],
    };
    let json = smoke.to_json();
    for needle in [
        "\"fault_seed\": 7",
        "\"deterministic\": true",
        "\"violations\": 0",
        "\"tampers_injected\"",
        "\"silent_corruptions\": 0",
        "\"supervisor_respawns\"",
    ] {
        assert!(json.contains(needle), "missing {needle} in:\n{json}");
    }
}
