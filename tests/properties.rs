//! Property-based tests over the cross-crate invariants that the SEAL
//! design relies on.
//!
//! The generators are hand-rolled over the in-tree deterministic RNG
//! (`seal_tensor::rng`) so the suite runs hermetically, with no external
//! property-testing dependency. Each property runs a fixed number of
//! seeded cases; a failure message always includes the case seed.

use seal::core::{
    derive_assignment, network_traffic, select_encrypted_rows, verify_assignment, EncryptionPlan,
    ImportanceMetric, Scheme, SePolicy,
};
use seal::crypto::{Aes128, CtrCipher, DirectCipher, Key128};
use seal::gpusim::{EncryptionMode, GpuConfig, Region, Simulator, Workload};
use seal::nn::NetworkTopology;
use seal::tensor::rng::rngs::StdRng;
use seal::tensor::rng::{Rng, SeedableRng};
use seal::tensor::Shape;

const CASES: u64 = 32;

/// A small random CNN topology: alternating conv/pool stages ending in an
/// FC head, always geometrically valid.
fn arb_topology(rng: &mut StdRng) -> NetworkTopology {
    let stages = rng.gen_range(2usize..6);
    let base = rng.gen_range(1usize..5);
    let pool: bool = rng.gen_range(0u32..2) == 1;
    let mut b = NetworkTopology::build("random", Shape::nchw(1, 3, 32, 32)).unwrap();
    let mut hw = 32usize;
    for s in 0..stages {
        let ch = base * 8 * (s + 1);
        b = b.conv(format!("conv{s}"), ch, 3, 1, 1).unwrap();
        if pool && hw >= 4 {
            b = b.pool(format!("pool{s}"), 2, 2).unwrap();
            hw /= 2;
        }
    }
    b.fc("fc", 10).unwrap().finish()
}

fn arb_bytes(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..max_len);
    let mut data = vec![0u8; len];
    rng.fill(&mut data);
    data
}

/// Every plan derived from any topology at any ratio satisfies the
/// Eqs. 1–3 coupling invariant.
#[test]
fn any_plan_is_algebraically_sound() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let topo = arb_topology(&mut rng);
        let ratio: f64 = rng.gen_range(0.0..=1.0);
        let plan =
            EncryptionPlan::from_topology(&topo, SePolicy::default().with_ratio(ratio)).unwrap();
        assert!(
            verify_assignment(&derive_assignment(&plan)).is_ok(),
            "case {case} ratio {ratio}"
        );
    }
}

/// Traffic splits conserve bytes and encrypted bytes grow monotonically
/// with the ratio.
#[test]
fn traffic_is_conserved_and_monotone() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x7AF1C + case);
        let topo = arb_topology(&mut rng);
        let lo: f64 = rng.gen_range(0.0..0.5);
        let hi = lo + rng.gen_range(0.0..0.5);
        let enc_at = |r: f64| -> (u64, u64) {
            let plan =
                EncryptionPlan::from_topology(&topo, SePolicy::default().with_ratio(r)).unwrap();
            let splits = network_traffic(&topo, &plan, Scheme::SealDirect).unwrap();
            (
                splits.iter().map(|l| l.encrypted_bytes()).sum(),
                splits.iter().map(|l| l.total_bytes()).sum(),
            )
        };
        let (enc_lo, tot_lo) = enc_at(lo);
        let (enc_hi, tot_hi) = enc_at(hi);
        // Conservation: totals do not depend on the ratio (up to rounding).
        assert!(
            (tot_lo as i64 - tot_hi as i64).unsigned_abs() < 64,
            "case {case}: totals {tot_lo} vs {tot_hi}"
        );
        // Monotonicity (up to per-layer rounding of row counts).
        assert!(
            enc_hi + 64 * topo.layers().len() as u64 >= enc_lo,
            "case {case}: encrypted bytes shrank from {enc_lo} to {enc_hi}"
        );
    }
}

/// Row selection always returns the requested fraction of rows, sorted
/// and unique, for every metric.
#[test]
fn row_selection_is_well_formed() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5E1EC7 + case);
        let n = rng.gen_range(1usize..256);
        let norms: Vec<f32> = (0..n).map(|_| rng.gen_range(0.0f32..100.0)).collect();
        let ratio: f64 = rng.gen_range(0.0..=1.0);
        let metric = match case % 3 {
            0 => ImportanceMetric::L1,
            1 => ImportanceMetric::Random(7),
            _ => ImportanceMetric::InverseL1,
        };
        let rows = select_encrypted_rows(&norms, ratio, metric).unwrap();
        let expected = (norms.len() as f64 * ratio).round() as usize;
        assert_eq!(rows.len(), expected, "case {case}");
        assert!(
            rows.windows(2).all(|w| w[0] < w[1]),
            "case {case}: sorted unique"
        );
        assert!(rows.iter().all(|&r| r < norms.len()), "case {case}");
    }
}

/// AES-CTR and direct encryption both roundtrip arbitrary buffers at
/// arbitrary addresses.
#[test]
fn ciphers_roundtrip() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC1F3E5 + case);
        let data = arb_bytes(&mut rng, 512);
        let addr: u64 = rng.gen();
        let seed: u64 = rng.gen();
        let ctr = CtrCipher::new(Aes128::new(&Key128::from_seed(seed)), seed ^ 0xFF);
        assert_eq!(
            ctr.decrypt(addr, &ctr.encrypt(addr, &data)),
            data,
            "case {case}"
        );

        let direct = DirectCipher::new(Aes128::new(&Key128::from_seed(seed)));
        let padded_len = data.len().div_ceil(16) * 16;
        let mut padded = data.clone();
        padded.resize(padded_len, 0);
        let ct = direct.encrypt(addr, &padded).unwrap();
        assert_eq!(direct.decrypt(addr, &ct).unwrap(), padded, "case {case}");
    }
}

/// Simulated encrypted execution is never faster than baseline, and
/// larger encrypted fractions are never faster than smaller ones.
#[test]
fn encryption_never_speeds_things_up() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x51B - case);
        let kb = rng.gen_range(1u64..32);
        let enc_kb = rng.gen_range(0u64..32).min(kb);
        let wl = Workload::builder("p")
            .region(Region::read("enc", 0, enc_kb.max(1) * 64 * 1024).encrypted(true))
            .region(Region::read(
                "plain",
                1 << 33,
                (kb - enc_kb).max(1) * 64 * 1024,
            ))
            .instructions(1_000_000)
            .build()
            .unwrap();
        let base = Simulator::new(GpuConfig::gtx480(), EncryptionMode::None)
            .unwrap()
            .run(&wl)
            .unwrap();
        let enc = Simulator::new(GpuConfig::gtx480(), EncryptionMode::Direct)
            .unwrap()
            .run(&wl)
            .unwrap();
        assert!(enc.cycles + 1e-6 >= base.cycles, "case {case}");
    }
}

/// The simulator is deterministic: identical runs produce identical
/// reports.
#[test]
fn simulator_is_deterministic() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xDE7 + case);
        let kb = rng.gen_range(1u64..16);
        let mode = [
            EncryptionMode::None,
            EncryptionMode::Direct,
            EncryptionMode::Counter,
        ][case as usize % 3];
        let wl = Workload::builder("d")
            .region(Region::read("r", 0, kb * 64 * 1024).encrypted(true))
            .instructions(500_000)
            .build()
            .unwrap();
        let a = Simulator::new(GpuConfig::gtx480(), mode)
            .unwrap()
            .run(&wl)
            .unwrap();
        let b = Simulator::new(GpuConfig::gtx480(), mode)
            .unwrap()
            .run(&wl)
            .unwrap();
        assert_eq!(a, b, "case {case}");
    }
}
