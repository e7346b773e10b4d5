//! The paper's extension claim: the SE scheme applies to fully connected
//! networks (and hence RNN-style stacks of FC layers). These tests drive
//! the whole pipeline — plan, coupling invariant, traffic, simulation —
//! on an FC-only model.

use seal::core::{
    derive_assignment, network_traffic, simulate_network, verify_assignment, EncryptionPlan,
    Scheme, SePolicy,
};
use seal::gpusim::GpuConfig;
use seal::nn::models::{mlp, mlp_topology, MlpConfig};
use seal::tensor::Shape;
use seal_tensor::rng::SeedableRng;

#[test]
fn se_plans_apply_to_fc_only_networks() {
    let cfg = MlpConfig::rnn_like();
    let topo = mlp_topology(&cfg, Shape::nchw(1, 3, 32, 32)).unwrap();
    let plan = EncryptionPlan::from_topology(&topo, SePolicy::paper_default()).unwrap();
    assert_eq!(plan.layers().len(), 9);
    // The boundary rule fully encrypts every FC layer by default…
    assert!(plan.layers().iter().all(|l| l.fully_encrypted));

    // …so the interesting FC case disables it and applies SE everywhere.
    let policy = SePolicy {
        ratio: 0.5,
        boundary_full_encryption: false,
        metric: seal::core::ImportanceMetric::L1,
    };
    let plan = EncryptionPlan::from_topology(&topo, policy).unwrap();
    assert!(plan.layers().iter().all(|l| !l.fully_encrypted));
    for l in plan.layers() {
        let frac = l.encrypted_fraction();
        assert!((frac - 0.5).abs() < 0.05, "{}: {frac}", l.name);
    }
    assert!(verify_assignment(&derive_assignment(&plan)).is_ok());
}

#[test]
fn seal_speeds_up_encrypted_fc_inference() {
    let cfg = MlpConfig::rnn_like();
    let topo = mlp_topology(&cfg, Shape::nchw(1, 3, 32, 32)).unwrap();
    let policy = SePolicy {
        ratio: 0.5,
        boundary_full_encryption: false,
        metric: seal::core::ImportanceMetric::L1,
    };
    let plan = EncryptionPlan::from_topology(&topo, policy).unwrap();
    let gpu = GpuConfig::gtx480();
    let base = simulate_network(&gpu, &topo, &plan, Scheme::Baseline).unwrap();
    let direct = simulate_network(&gpu, &topo, &plan, Scheme::Direct).unwrap();
    let seal = simulate_network(&gpu, &topo, &plan, Scheme::SealDirect).unwrap();
    // FC layers are weight-streaming: fully encrypted inference is
    // heavily engine-bound, and SEAL at 50% recovers a large part.
    assert!(direct.overall_ipc() < base.overall_ipc() * 0.8);
    assert!(seal.overall_ipc() > direct.overall_ipc() * 1.2);
}

#[test]
fn fc_traffic_split_follows_the_plan() {
    let cfg = MlpConfig::rnn_like();
    let topo = mlp_topology(&cfg, Shape::nchw(1, 3, 32, 32)).unwrap();
    let policy = SePolicy {
        ratio: 0.3,
        boundary_full_encryption: false,
        metric: seal::core::ImportanceMetric::L1,
    };
    let plan = EncryptionPlan::from_topology(&topo, policy).unwrap();
    let splits = network_traffic(&topo, &plan, Scheme::SealCounter).unwrap();
    for s in &splits {
        let w = s.weight_enc as f64 / (s.weight_enc + s.weight_plain) as f64;
        assert!((w - 0.3).abs() < 0.05, "{}: weight fraction {w}", s.name);
    }
}

#[test]
fn mlp_plans_work_from_trained_models_too() {
    let mut rng = seal_tensor::rng::rngs::StdRng::seed_from_u64(3);
    let model = mlp(&mut rng, &MlpConfig::reduced()).unwrap();
    let plan = EncryptionPlan::from_model(&model, SePolicy::default().with_ratio(0.4)).unwrap();
    assert_eq!(plan.layers().len(), 4);
    // FC plans select input columns by real ℓ1 norms.
    let mats = model.kernel_matrices();
    for (m, lp) in mats.iter().zip(plan.layers()) {
        assert_eq!(m.rows, lp.rows);
    }
}
