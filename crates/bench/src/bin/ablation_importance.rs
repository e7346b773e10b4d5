//! Ablation — does criticality-awareness matter?
//!
//! SEAL encrypts the rows with the *largest* ℓ1-norms. This ablation
//! compares, at the same 50% ratio, three selection rules:
//!
//! * `L1` — the paper's choice (encrypt the most important rows);
//! * `Random` — criticality-blind selection;
//! * `InverseL1` — adversarially bad (encrypt the *least* important rows).
//!
//! Performance is identical by construction (same fraction of traffic),
//! so the delta is purely security: the substitute accuracy an adversary
//! achieves with the leaked rows.

use seal_attack::experiment::{prepare, ExperimentConfig, ModelArch};
use seal_attack::substitute::apply_seal_knowledge;
use seal_bench::{banner, cell, header, row, RunMode};
use seal_core::{EncryptionPlan, ImportanceMetric, SePolicy};
use seal_nn::{fit, FitConfig, Sgd};
use seal_tensor::rng::rngs::StdRng;
use seal_tensor::rng::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mode = RunMode::from_args();
    banner("Ablation — importance metric (security at 50% ratio)", mode);

    let cfg = if mode.is_full() {
        ExperimentConfig::full(ModelArch::Vgg16, 7)
    } else {
        ExperimentConfig::quick(ModelArch::Vgg16, 7)
    };
    let ctx = prepare(&cfg)?;
    println!("victim accuracy: {:.1}%\n", ctx.victim_accuracy * 100.0);

    header(&["selection rule", "substitute accuracy"], &[16, 20]);
    for (name, metric) in [
        ("L1 (paper)", ImportanceMetric::L1),
        ("Random", ImportanceMetric::Random(13)),
        ("InverseL1", ImportanceMetric::InverseL1),
    ] {
        let policy = SePolicy {
            ratio: 0.5,
            boundary_full_encryption: true,
            metric,
        };
        let plan = EncryptionPlan::from_model(&ctx.victim, policy)?;
        let mut rng = StdRng::seed_from_u64(1234);
        let quick = if mode.is_full() {
            ExperimentConfig::full(ModelArch::Vgg16, 7)
        } else {
            ExperimentConfig::quick(ModelArch::Vgg16, 7)
        };
        let mut sub = {
            // Rebuild a fresh substitute with the same architecture.
            let c = quick;
            let mut r = StdRng::seed_from_u64(555);
            let mut m = seal_nn::models::vgg16(&mut r, &{
                let mut vc = seal_nn::models::VggConfig::reduced();
                vc.base_width = c.base_width;
                vc.input_hw = c.image_hw;
                vc.fc_width = (c.base_width * 8).max(16);
                vc
            })?;
            apply_seal_knowledge(&ctx.victim, &mut m, &plan, &mut rng)?;
            m
        };
        let mut opt = Sgd::new(cfg.lr).with_momentum(0.9);
        fit(
            &mut sub,
            ctx.adversary_data.images(),
            ctx.adversary_data.labels(),
            &mut opt,
            &FitConfig::new(cfg.substitute_epochs, cfg.batch_size),
            &mut rng,
        )?;
        let acc = ctx.test_accuracy(&mut sub)?;
        row(&[cell(name, 16), cell(format!("{:.1}%", acc * 100.0), 20)]);
    }
    println!();
    println!("lower substitute accuracy = better protection. L1 should be ≤ Random ≤ InverseL1,");
    println!("because hiding the high-magnitude rows denies the adversary the useful weights.");
    Ok(())
}
