//! Model-extraction demo: play the adversary of Sec. III-B.
//!
//! Trains a victim on the synthetic CIFAR stand-in, then mounts the three
//! attacks the paper compares — white-box copy, black-box retrain, and
//! the SEAL partial-knowledge attack at two ratios — reporting substitute
//! accuracy and I-FGSM transferability for each.
//!
//! ```text
//! cargo run --release --example model_extraction
//! ```

use seal::attack::experiment::{prepare, ExperimentConfig, ModelArch};
use seal::attack::fgsm::{craft_batch, FgsmConfig};
use seal::attack::transfer::{transferability, SuccessCriterion};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = ExperimentConfig::quick(ModelArch::Vgg16, 2024);
    config.train_samples = 300;
    let mut ctx = prepare(&config)?;
    println!(
        "victim trained: {:.1}% test accuracy; adversary holds {} victim-labelled samples",
        ctx.victim_accuracy * 100.0,
        ctx.adversary_data.len()
    );

    let fgsm = FgsmConfig {
        step: 0.1,
        epsilon: 0.6,
        iterations: 12,
    };
    let examples = 30usize;

    println!(
        "\n{:<22} {:>10} {:>17}",
        "adversary knowledge", "accuracy", "transferability"
    );
    // White-box: bus snooping on an unencrypted accelerator.
    let mut white = ctx.white_box_substitute()?;
    let acc = ctx.test_accuracy(&mut white)?;
    let adv = craft_batch(&mut white, &ctx.test_data, examples, &fgsm)?;
    let t = transferability(&mut ctx.victim, &adv, SuccessCriterion::Untargeted)?;
    println!(
        "{:<22} {:>9.1}% {:>17.2}",
        "white-box (no enc)",
        acc * 100.0,
        t
    );

    // SEAL at a leaky ratio and at the recommended ratio.
    for ratio in [0.2f64, 0.5] {
        let mut sub = ctx.seal_substitute(ratio)?;
        let acc = ctx.test_accuracy(&mut sub)?;
        let adv = craft_batch(&mut sub, &ctx.test_data, examples, &fgsm)?;
        let t = transferability(&mut ctx.victim, &adv, SuccessCriterion::Untargeted)?;
        println!(
            "{:<22} {:>9.1}% {:>17.2}",
            format!("SEAL @ {:.0}%", ratio * 100.0),
            acc * 100.0,
            t
        );
    }

    // Black-box: full memory encryption.
    let mut black = ctx.black_box_substitute(0)?;
    let acc = ctx.test_accuracy(&mut black)?;
    let adv = craft_batch(&mut black, &ctx.test_data, examples, &fgsm)?;
    let t = transferability(&mut ctx.victim, &adv, SuccessCriterion::Untargeted)?;
    println!(
        "{:<22} {:>9.1}% {:>17.2}",
        "black-box (full enc)",
        acc * 100.0,
        t
    );

    println!("\nthe 50% SEAL ratio buys black-box-equivalent protection while leaving");
    println!("half of every SE layer's traffic outside the AES engine.");
    Ok(())
}
