//! Property-based tests of the simulator's conservation and ordering
//! invariants.
//!
//! Workloads are generated with the in-tree deterministic RNG
//! (`seal_tensor::rng`); each property runs a fixed number of seeded
//! cases and reports the failing seed.

use seal_gpusim::{EncryptionMode, GpuConfig, Region, Simulator, Workload};
use seal_tensor::rng::rngs::StdRng;
use seal_tensor::rng::{Rng, SeedableRng};

const CASES: u64 = 32;

fn arb_workload(rng: &mut StdRng) -> Workload {
    let kb1 = rng.gen_range(1u64..64);
    let kb2 = rng.gen_range(0u64..64);
    let write2: bool = rng.gen_range(0u32..2) == 1;
    let inst = rng.gen_range(0u64..2_000_000);
    let passes10 = rng.gen_range(1u64..40);
    let mut b = Workload::builder("prop").instructions(inst).region(
        Region::read("a", 0, kb1 * 16 * 1024)
            .encrypted(true)
            .passes(passes10 as f64 / 10.0),
    );
    if kb2 > 0 {
        let r = if write2 {
            Region::write("b", 1 << 33, kb2 * 16 * 1024)
        } else {
            Region::read("b", 1 << 33, kb2 * 16 * 1024)
        };
        b = b.region(r.encrypted(false));
    }
    b.build().expect("valid workload")
}

/// Request conservation: every trace line is serviced by exactly one
/// controller.
#[test]
fn every_request_is_serviced_once() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let wl = arb_workload(&mut rng);
        let r = Simulator::new(GpuConfig::gtx480(), EncryptionMode::Direct)
            .unwrap()
            .run(&wl)
            .unwrap();
        let serviced: u64 = r.per_mc.iter().map(|m| m.lines).sum();
        assert_eq!(serviced, r.requests, "case {case}");
        assert_eq!(r.requests, wl.requests(128).len() as u64, "case {case}");
    }
}

/// Encrypted-line accounting matches the workload's encrypted bytes.
#[test]
fn encrypted_lines_match_encrypted_bytes() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xE2C + case);
        let wl = arb_workload(&mut rng);
        let r = Simulator::new(GpuConfig::gtx480(), EncryptionMode::Direct)
            .unwrap()
            .run(&wl)
            .unwrap();
        let enc_lines: u64 = r.per_mc.iter().map(|m| m.encrypted_lines).sum();
        let expected = wl.requests(128).filter(|q| q.encrypted).count() as u64;
        assert_eq!(enc_lines, expected, "case {case}");
    }
}

/// Cycle counts are ordered: baseline ≤ direct, and the counter mode is
/// within a small factor of direct (it can win on read latency but never
/// by much, and loses at most its counter traffic).
#[test]
fn mode_ordering() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x0D3 + case);
        let wl = arb_workload(&mut rng);
        let run = |m| {
            Simulator::new(GpuConfig::gtx480(), m)
                .unwrap()
                .run(&wl)
                .unwrap()
                .cycles
        };
        let base = run(EncryptionMode::None);
        let direct = run(EncryptionMode::Direct);
        let counter = run(EncryptionMode::Counter);
        assert!(base <= direct + 1e-6, "case {case}");
        assert!(base <= counter + 1e-6, "case {case}");
        assert!(
            counter <= direct * 1.6 + 1000.0,
            "case {case}: counter {counter} vs direct {direct}"
        );
    }
}

/// Utilisations are well-formed fractions.
#[test]
fn utilisations_are_fractions() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xF2AC + case);
        let wl = arb_workload(&mut rng);
        for mode in [EncryptionMode::None, EncryptionMode::Counter] {
            let r = Simulator::new(GpuConfig::gtx480(), mode).unwrap().run(&wl).unwrap();
            assert!((0.0..=1.0 + 1e-9).contains(&r.dram_utilisation()), "case {case}");
            assert!((0.0..=1.0 + 1e-9).contains(&r.engine_utilisation()), "case {case}");
            assert!((0.0..=1.0).contains(&r.counter_hit_rate()), "case {case}");
        }
    }
}

/// Doubling engine count never slows an encrypted run down.
#[test]
fn more_engines_never_slower() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xE61E + case);
        let wl = arb_workload(&mut rng);
        let one = Simulator::new(GpuConfig::gtx480().with_engines_per_mc(1), EncryptionMode::Direct)
            .unwrap()
            .run(&wl)
            .unwrap()
            .cycles;
        let two = Simulator::new(GpuConfig::gtx480().with_engines_per_mc(2), EncryptionMode::Direct)
            .unwrap()
            .run(&wl)
            .unwrap()
            .cycles;
        assert!(two <= one + 1e-6, "case {case}: two engines {two} vs one {one}");
    }
}
