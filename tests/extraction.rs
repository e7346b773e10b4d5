//! Integration test of the full security-evaluation pipeline (a compact
//! version of the Figs. 3–4 experiments).

use seal::attack::experiment::{prepare, ExperimentConfig, ModelArch};
use seal::attack::fgsm::{craft_batch, FgsmConfig};
use seal::attack::transfer::{transferability, SuccessCriterion};

fn compact_config(arch: ModelArch, seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(arch, seed);
    cfg.train_samples = 200;
    cfg.test_samples = 80;
    cfg.augment_rounds = 2;
    cfg.victim_epochs = 12;
    cfg.substitute_epochs = 10;
    cfg
}

#[test]
fn white_box_dominates_and_victim_learns() {
    let cfg = compact_config(ModelArch::Vgg16, 32);
    let mut ctx = prepare(&cfg).unwrap();
    assert!(
        ctx.victim_accuracy > 0.35,
        "victim must beat chance clearly: {}",
        ctx.victim_accuracy
    );
    let mut white = ctx.white_box_substitute().unwrap();
    let wacc = ctx.test_accuracy(&mut white).unwrap();
    assert!(
        (wacc - ctx.victim_accuracy).abs() < 1e-6,
        "white-box IS the victim"
    );

    let mut black = ctx.black_box_substitute(0).unwrap();
    let bacc = ctx.test_accuracy(&mut black).unwrap();
    assert!(wacc >= bacc, "white {wacc} >= black {bacc}");
}

#[test]
fn white_box_examples_transfer_better_than_black_box() {
    let cfg = compact_config(ModelArch::Vgg16, 57);
    let mut ctx = prepare(&cfg).unwrap();
    let fgsm = FgsmConfig {
        step: 0.1,
        epsilon: 0.6,
        iterations: 10,
    };
    let n = 25usize;

    let mut white = ctx.white_box_substitute().unwrap();
    let adv_w = craft_batch(&mut white, &ctx.test_data, n, &fgsm).unwrap();
    let t_white = transferability(&mut ctx.victim, &adv_w, SuccessCriterion::Untargeted).unwrap();

    let mut black = ctx.black_box_substitute(0).unwrap();
    let adv_b = craft_batch(&mut black, &ctx.test_data, n, &fgsm).unwrap();
    let t_black = transferability(&mut ctx.victim, &adv_b, SuccessCriterion::Untargeted).unwrap();

    // White-box examples are crafted on the victim itself; they must
    // transfer near-perfectly and far better than black-box ones.
    assert!(t_white > 0.7, "white-box transferability {t_white}");
    assert!(t_white >= t_black, "white {t_white} >= black {t_black}");
}

#[test]
fn resnet_pipeline_runs_end_to_end() {
    let mut cfg = compact_config(ModelArch::ResNet18, 73);
    cfg.train_samples = 140;
    cfg.substitute_epochs = 6;
    let mut ctx = prepare(&cfg).unwrap();
    // The SEAL substitute path must work through residual blocks (plans,
    // masks and knowledge transfer recurse into them).
    let mut sub = ctx.seal_substitute(0.5).unwrap();
    let acc = ctx.test_accuracy(&mut sub).unwrap();
    assert!((0.0..=1.0).contains(&acc));
}
