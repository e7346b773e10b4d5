//! Cross-crate integration tests: the full plan → traffic → simulation
//! pipeline must reproduce the paper's qualitative results on every
//! network.

use seal::core::{
    derive_assignment, network_traffic, simulate_network, verify_assignment, EncryptionPlan,
    Scheme, SePolicy,
};
use seal::gpusim::GpuConfig;
use seal::nn::models::{resnet18_topology, resnet34_topology, vgg16_topology};
use seal::nn::NetworkTopology;

fn networks() -> Vec<NetworkTopology> {
    vec![vgg16_topology(), resnet18_topology(), resnet34_topology()]
}

#[test]
fn paper_scheme_ordering_holds_on_every_network() {
    let cfg = GpuConfig::gtx480();
    for topo in networks() {
        let plan = EncryptionPlan::from_topology(&topo, SePolicy::paper_default()).unwrap();
        let ipc: Vec<f64> = Scheme::ALL
            .iter()
            .map(|&s| {
                simulate_network(&cfg, &topo, &plan, s)
                    .unwrap()
                    .overall_ipc()
            })
            .collect();
        let (base, direct, counter, seal_d, seal_c) = (ipc[0], ipc[1], ipc[2], ipc[3], ipc[4]);
        assert!(base > seal_d, "{}: baseline fastest", topo.name());
        assert!(seal_d > direct, "{}: SEAL-D beats Direct", topo.name());
        assert!(seal_c > counter, "{}: SEAL-C beats Counter", topo.name());
        assert!(
            counter <= direct * 1.02,
            "{}: counter mode is no faster than direct",
            topo.name()
        );
    }
}

#[test]
fn direct_encryption_costs_30_to_55_percent_overall() {
    // Paper Fig. 7: 30–38%. Allow a wider band for the simulator stand-in
    // while requiring the order of magnitude to match.
    let cfg = GpuConfig::gtx480();
    for topo in networks() {
        let plan = EncryptionPlan::from_topology(&topo, SePolicy::paper_default()).unwrap();
        let base = simulate_network(&cfg, &topo, &plan, Scheme::Baseline).unwrap();
        let direct = simulate_network(&cfg, &topo, &plan, Scheme::Direct).unwrap();
        let drop = 1.0 - direct.overall_ipc() / base.overall_ipc();
        assert!(
            (0.20..=0.55).contains(&drop),
            "{}: drop {drop:.2} outside the plausible band",
            topo.name()
        );
    }
}

#[test]
fn seal_speedup_over_direct_is_in_the_papers_range() {
    // Paper: ×1.4 (SEAL-D) and ×1.34 (SEAL-C) on average.
    let cfg = GpuConfig::gtx480();
    let mut speedups = Vec::new();
    for topo in networks() {
        let plan = EncryptionPlan::from_topology(&topo, SePolicy::paper_default()).unwrap();
        let direct = simulate_network(&cfg, &topo, &plan, Scheme::Direct).unwrap();
        let seal = simulate_network(&cfg, &topo, &plan, Scheme::SealDirect).unwrap();
        speedups.push(seal.overall_ipc() / direct.overall_ipc());
    }
    let mean = speedups.iter().sum::<f64>() / speedups.len() as f64;
    assert!(
        (1.15..=1.65).contains(&mean),
        "mean SEAL-D speedup {mean:.2} strays from the paper's 1.4x"
    );
}

#[test]
fn vgg_is_more_bandwidth_hungry_than_resnets() {
    // Paper: "Direct and Counter deliver higher performance in ResNets
    // than those in VGG".
    let cfg = GpuConfig::gtx480();
    let rel = |topo: &NetworkTopology| {
        let plan = EncryptionPlan::from_topology(topo, SePolicy::paper_default()).unwrap();
        let base = simulate_network(&cfg, topo, &plan, Scheme::Baseline).unwrap();
        let direct = simulate_network(&cfg, topo, &plan, Scheme::Direct).unwrap();
        direct.overall_ipc() / base.overall_ipc()
    };
    let vgg = rel(&vgg16_topology());
    let r18 = rel(&resnet18_topology());
    let r34 = rel(&resnet34_topology());
    assert!(vgg < r18, "vgg {vgg:.2} vs resnet18 {r18:.2}");
    assert!(vgg < r34, "vgg {vgg:.2} vs resnet34 {r34:.2}");
}

#[test]
fn latency_increases_match_fig8_ordering() {
    let cfg = GpuConfig::gtx480();
    for topo in networks() {
        let plan = EncryptionPlan::from_topology(&topo, SePolicy::paper_default()).unwrap();
        let lat = |s: Scheme| {
            simulate_network(&cfg, &topo, &plan, s)
                .unwrap()
                .latency_ms(cfg.core_clock_ghz)
        };
        let (base, direct, seal) = (
            lat(Scheme::Baseline),
            lat(Scheme::Direct),
            lat(Scheme::SealDirect),
        );
        assert!(
            direct > base * 1.2,
            "{}: direct adds ≥20% latency",
            topo.name()
        );
        assert!(
            seal < direct * 0.95,
            "{}: SEAL cuts latency vs direct",
            topo.name()
        );
        assert!(
            seal >= base,
            "{}: SEAL is not faster than no encryption",
            topo.name()
        );
    }
}

#[test]
fn every_plan_passes_the_coupling_invariant() {
    for topo in networks() {
        for ratio in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let plan = EncryptionPlan::from_topology(&topo, SePolicy::default().with_ratio(ratio))
                .unwrap();
            let assignment = derive_assignment(&plan);
            assert!(
                verify_assignment(&assignment).is_ok(),
                "{} at ratio {ratio}",
                topo.name()
            );
        }
    }
}

#[test]
fn traffic_split_conserves_bytes_across_schemes() {
    for topo in networks() {
        let plan = EncryptionPlan::from_topology(&topo, SePolicy::paper_default()).unwrap();
        let reference: u64 = topo.total_traffic_bytes();
        for scheme in Scheme::ALL {
            let splits = network_traffic(&topo, &plan, scheme).unwrap();
            let total: u64 = splits.iter().map(|l| l.total_bytes()).sum();
            // Rounding of fractional channel splits may shift single bytes.
            assert!(
                (total as i64 - reference as i64).unsigned_abs() < 64,
                "{} under {scheme}: {total} vs {reference}",
                topo.name()
            );
        }
    }
}

#[test]
fn seal_encrypted_fraction_sits_between_zero_and_full() {
    for topo in networks() {
        let plan = EncryptionPlan::from_topology(&topo, SePolicy::paper_default()).unwrap();
        let splits = network_traffic(&topo, &plan, Scheme::SealCounter).unwrap();
        let enc: u64 = splits.iter().map(|l| l.encrypted_bytes()).sum();
        let total: u64 = splits.iter().map(|l| l.total_bytes()).sum();
        let frac = enc as f64 / total as f64;
        assert!(
            (0.3..0.9).contains(&frac),
            "{}: encrypted fraction {frac}",
            topo.name()
        );
    }
}
