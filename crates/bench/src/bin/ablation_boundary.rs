//! Ablation — boundary-layer full encryption.
//!
//! SEAL fully encrypts the first two CONV layers, the last CONV layer and
//! the FC layers "to prevent the adversary from calculating the weight
//! parameters via input and output layers". This ablation measures both
//! sides of that choice on VGG-16 at the 50% ratio:
//!
//! * performance: the extra encrypted traffic the boundary rule costs;
//! * security: substitute accuracy with the rule on vs. off.

use seal_attack::experiment::{prepare, ExperimentConfig, ModelArch};
use seal_attack::substitute::apply_seal_knowledge;
use seal_bench::{banner, cell, header, row, RunMode};
use seal_core::workload::simulate_network;
use seal_core::{traffic::network_traffic, EncryptionPlan, Scheme, SePolicy};
use seal_gpusim::GpuConfig;
use seal_nn::models::vgg16_topology;
use seal_nn::{fit, FitConfig, Sgd};
use seal_tensor::rng::rngs::StdRng;
use seal_tensor::rng::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mode = RunMode::from_args();
    banner(
        "Ablation — boundary-layer full encryption (VGG-16, 50%)",
        mode,
    );

    // Performance side: traffic + IPC on the full-size topology.
    let topo = vgg16_topology();
    let cfg = GpuConfig::gtx480();
    header(
        &["boundary rule", "enc. traffic", "SEAL-D IPC vs base"],
        &[14, 13, 19],
    );
    for on in [true, false] {
        let policy = SePolicy {
            ratio: 0.5,
            boundary_full_encryption: on,
            metric: seal_core::ImportanceMetric::L1,
        };
        let plan = EncryptionPlan::from_topology(&topo, policy)?;
        let splits = network_traffic(&topo, &plan, Scheme::SealDirect)?;
        let enc: u64 = splits.iter().map(|l| l.encrypted_bytes()).sum();
        let total: u64 = splits.iter().map(|l| l.total_bytes()).sum();
        let base = simulate_network(&cfg, &topo, &plan, Scheme::Baseline)?.overall_ipc();
        let seal = simulate_network(&cfg, &topo, &plan, Scheme::SealDirect)?.overall_ipc();
        row(&[
            cell(if on { "on (paper)" } else { "off" }, 14),
            cell(format!("{:.0}%", enc as f64 / total as f64 * 100.0), 13),
            cell(format!("{:.2}", seal / base), 19),
        ]);
    }

    // Security side: substitute accuracy with/without the rule.
    println!();
    let ecfg = if mode.is_full() {
        ExperimentConfig::full(ModelArch::Vgg16, 21)
    } else {
        ExperimentConfig::quick(ModelArch::Vgg16, 21)
    };
    let ctx = prepare(&ecfg)?;
    header(&["boundary rule", "substitute accuracy"], &[14, 20]);
    for on in [true, false] {
        let policy = SePolicy {
            ratio: 0.5,
            boundary_full_encryption: on,
            metric: seal_core::ImportanceMetric::L1,
        };
        let plan = EncryptionPlan::from_model(&ctx.victim, policy)?;
        let mut rng = StdRng::seed_from_u64(99);
        let mut vc = seal_nn::models::VggConfig::reduced();
        vc.base_width = ecfg.base_width;
        vc.input_hw = ecfg.image_hw;
        vc.fc_width = (ecfg.base_width * 8).max(16);
        let mut sub = seal_nn::models::vgg16(&mut rng, &vc)?;
        apply_seal_knowledge(&ctx.victim, &mut sub, &plan, &mut rng)?;
        let mut opt = Sgd::new(ecfg.lr).with_momentum(0.9);
        fit(
            &mut sub,
            ctx.adversary_data.images(),
            ctx.adversary_data.labels(),
            &mut opt,
            &FitConfig::new(ecfg.substitute_epochs, ecfg.batch_size),
            &mut rng,
        )?;
        let acc = ctx.test_accuracy(&mut sub)?;
        row(&[
            cell(if on { "on (paper)" } else { "off" }, 14),
            cell(format!("{:.1}%", acc * 100.0), 20),
        ]);
    }
    println!();
    println!("the boundary rule buys extra protection for a modest traffic increase.");
    Ok(())
}
