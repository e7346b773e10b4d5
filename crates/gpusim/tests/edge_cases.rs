//! Edge-case and failure-injection tests for the simulator.

use seal_gpusim::{EncryptionMode, GpuConfig, Region, Simulator, Workload};

fn tiny(encrypted: bool) -> Workload {
    Workload::builder("tiny")
        .region(Region::read("r", 0, 4096).encrypted(encrypted))
        .instructions(0)
        .build()
        .unwrap()
}

#[test]
fn zero_instruction_workload_is_pure_memory() {
    // No front-end budget: time is entirely memory-side.
    let r = Simulator::new(GpuConfig::gtx480(), EncryptionMode::None)
        .unwrap()
        .run(&tiny(false))
        .unwrap();
    assert_eq!(r.instructions, 0);
    assert_eq!(r.ipc(), 0.0);
    assert!(r.cycles > 0.0);
}

#[test]
fn workload_without_requests_takes_its_frontend_time() {
    // Every region yields nothing (empty, zero passes, zero-row matrix):
    // no request is issued and the run lasts exactly the front-end time.
    let wl = Workload::builder("idle")
        .region(Region::read("empty", 0, 0).encrypted(true))
        .region(Region::read("unread", 1 << 20, 4096).passes(0.0))
        .region(Region::write("no_rows", 1 << 21, 4096).tiled(0, 512, 2, 128, 1.0))
        .region(Region::read("no_reads", 1 << 22, 4096).tiled_reuse(512, 0.0))
        .instructions(816_000)
        .build()
        .unwrap();
    assert_eq!(wl.requests(128).len(), 0);
    assert_eq!(wl.requests(128).next(), None);
    for mode in [
        EncryptionMode::None,
        EncryptionMode::Direct,
        EncryptionMode::Counter,
    ] {
        let cfg = GpuConfig::gtx480();
        let frontend = 816_000.0 / (cfg.peak_issue_per_cycle * wl.frontend_efficiency());
        let r = Simulator::new(cfg, mode).unwrap().run(&wl).unwrap();
        assert_eq!(r.requests, 0);
        assert_eq!(r.cycles, frontend, "{mode}");
        assert!(r.per_mc.iter().all(|m| m.lines == 0 && m.dram_busy == 0.0));
    }
}

#[test]
fn single_request_latency_is_dram_latency_plus_service() {
    let cfg = GpuConfig::gtx480();
    let one = Workload::builder("one")
        .region(Region::read("r", 0, 128))
        .instructions(0)
        .build()
        .unwrap();
    let r = Simulator::new(cfg.clone(), EncryptionMode::None)
        .unwrap()
        .run(&one)
        .unwrap();
    let expected = cfg.dram_latency_cycles as f64 + cfg.line_service_cycles() / 0.8;
    assert!(
        (r.cycles - expected).abs() < 1.0,
        "{} vs {expected}",
        r.cycles
    );
}

#[test]
fn window_of_one_serialises_everything() {
    let mut cfg = GpuConfig::gtx480();
    cfg.max_outstanding = 1;
    let wl = Workload::builder("serial")
        .region(Region::read("r", 0, 128 * 100))
        .instructions(0)
        .build()
        .unwrap();
    let serial = Simulator::new(cfg, EncryptionMode::None)
        .unwrap()
        .run(&wl)
        .unwrap();
    let parallel = Simulator::new(GpuConfig::gtx480(), EncryptionMode::None)
        .unwrap()
        .run(&wl)
        .unwrap();
    // One-at-a-time pays the full DRAM latency per line.
    assert!(serial.cycles > parallel.cycles * 10.0);
    assert!(serial.cycles > 100.0 * 220.0);
}

#[test]
fn eight_engines_per_mc_remove_the_encryption_penalty() {
    // 8 × 8 GB/s per channel ≫ channel bandwidth: direct ≈ baseline.
    let cfg = GpuConfig::gtx480().with_engines_per_mc(8);
    let wl = Workload::builder("wide")
        .region(Region::read("r", 0, 8 << 20).encrypted(true))
        .instructions(1000)
        .build()
        .unwrap();
    let base = Simulator::new(cfg.clone(), EncryptionMode::None)
        .unwrap()
        .run(&wl)
        .unwrap();
    let enc = Simulator::new(cfg, EncryptionMode::Direct)
        .unwrap()
        .run(&wl)
        .unwrap();
    assert!(
        enc.cycles < base.cycles * 1.1,
        "{} vs {}",
        enc.cycles,
        base.cycles
    );
}

#[test]
fn invalid_gpu_configs_are_rejected_up_front() {
    for mutate in [
        (|c: &mut GpuConfig| c.num_sms = 0) as fn(&mut GpuConfig),
        |c| c.core_clock_ghz = 0.0,
        |c| c.total_dram_gbps = -1.0,
        |c| c.line_bytes = 0,
        |c| c.max_outstanding = 0,
        |c| c.engines_per_mc = 0,
    ] {
        let mut cfg = GpuConfig::gtx480();
        mutate(&mut cfg);
        assert!(
            Simulator::new(cfg, EncryptionMode::None).is_err(),
            "invalid config accepted"
        );
    }
}

#[test]
fn counter_mode_with_minimum_cache_still_completes() {
    // A counter cache too small for one set per MC gets clamped to one
    // set; the run must still terminate and account correctly.
    let cfg = GpuConfig::gtx480().with_counter_cache_kb(1);
    let r = Simulator::new(cfg, EncryptionMode::Counter)
        .unwrap()
        .run(&tiny(true))
        .unwrap();
    assert_eq!(r.requests, 32);
    assert!(r.counter_hit_rate() >= 0.0);
}

#[test]
fn mixed_read_write_traffic_accounts_correctly() {
    let wl = Workload::builder("rw")
        .region(Region::read("r", 0, 128 * 60).encrypted(true))
        .region(Region::write("w", 1 << 33, 128 * 40).encrypted(true))
        .instructions(0)
        .build()
        .unwrap();
    let r = Simulator::new(GpuConfig::gtx480(), EncryptionMode::Direct)
        .unwrap()
        .run(&wl)
        .unwrap();
    assert_eq!(r.requests, 100);
    let enc: u64 = r.per_mc.iter().map(|m| m.encrypted_lines).sum();
    assert_eq!(enc, 100);
}
