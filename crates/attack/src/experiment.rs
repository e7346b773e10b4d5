//! End-to-end reproduction of the paper's security experiments.
//!
//! [`run_ip_stealing`] reproduces Fig. 3 (substitute-model inference
//! accuracy vs. encryption ratio) and [`run_transferability`] reproduces
//! Fig. 4 (I-FGSM transferability vs. encryption ratio), both following
//! Sec. III-B1's protocol: 90%/10% victim/adversary data split, victim
//! query labelling, Jacobian-based augmentation, and the three substitute
//! kinds (white-box / black-box / SEAL at each ratio).

use seal_core::{EncryptionPlan, SePolicy};
use seal_data::{Dataset, SyntheticCifar};
use seal_nn::models::{resnet, vgg16, ResNetConfig, VggConfig};
use seal_nn::{accuracy, fit, FitConfig, Sequential, Sgd};
use seal_tensor::rng::rngs::StdRng;
use seal_tensor::rng::SeedableRng;

use crate::fgsm::{craft_batch, FgsmConfig};
use crate::jacobian::{augment, query_labels};
use crate::substitute::{apply_seal_knowledge, copy_all_weights};
use crate::transfer::{transferability, SuccessCriterion};
use crate::AttackError;

/// Which of the paper's three CNNs to attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelArch {
    /// VGG-16 (13 CONV + 3 FC).
    Vgg16,
    /// ResNet-18 (17 CONV + 1 FC).
    ResNet18,
    /// ResNet-34 (33 CONV + 1 FC).
    ResNet34,
}

impl std::fmt::Display for ModelArch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ModelArch::Vgg16 => "VGG-16",
            ModelArch::ResNet18 => "ResNet-18",
            ModelArch::ResNet34 => "ResNet-34",
        };
        f.write_str(s)
    }
}

/// Tunable knobs of the extraction experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Network under attack.
    pub arch: ModelArch,
    /// Master seed (data, init, training order).
    pub seed: u64,
    /// Image edge length.
    pub image_hw: usize,
    /// First-stage channel width of the reduced models.
    pub base_width: usize,
    /// Labelled samples in the training pool (victim + adversary).
    pub train_samples: usize,
    /// Held-out test samples for accuracy measurement.
    pub test_samples: usize,
    /// Fraction of the pool isolated for the victim (paper: 0.9).
    pub victim_fraction: f64,
    /// Jacobian augmentation rounds for the adversary.
    pub augment_rounds: usize,
    /// Victim training epochs.
    pub victim_epochs: usize,
    /// Substitute training epochs.
    pub substitute_epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Synthetic dataset noise level.
    pub noise: f32,
}

impl ExperimentConfig {
    /// A seconds-scale configuration for tests and smoke runs.
    pub fn quick(arch: ModelArch, seed: u64) -> Self {
        ExperimentConfig {
            arch,
            seed,
            image_hw: 8,
            base_width: 4,
            train_samples: 400,
            test_samples: 100,
            victim_fraction: 0.9,
            augment_rounds: 3,
            victim_epochs: 15,
            substitute_epochs: 15,
            batch_size: 16,
            lr: 0.01,
            noise: 0.2,
        }
    }

    /// The minutes-scale configuration the figure harnesses default to:
    /// deeper training, more data, two augmentation rounds.
    pub fn full(arch: ModelArch, seed: u64) -> Self {
        ExperimentConfig {
            arch,
            seed,
            image_hw: 16,
            base_width: 6,
            train_samples: 500,
            test_samples: 200,
            victim_fraction: 0.9,
            augment_rounds: 4,
            victim_epochs: 20,
            substitute_epochs: 20,
            batch_size: 16,
            lr: 0.01,
            noise: 0.25,
        }
    }

    fn build_model(&self, rng: &mut StdRng) -> Result<Sequential, AttackError> {
        let m = match self.arch {
            ModelArch::Vgg16 => {
                let mut cfg = VggConfig::reduced();
                cfg.base_width = self.base_width;
                cfg.input_hw = self.image_hw;
                cfg.fc_width = (self.base_width * 8).max(16);
                vgg16(rng, &cfg)?
            }
            ModelArch::ResNet18 | ModelArch::ResNet34 => {
                let depth = if self.arch == ModelArch::ResNet18 {
                    18
                } else {
                    34
                };
                let mut cfg = ResNetConfig::reduced(depth);
                cfg.base_width = self.base_width;
                cfg.input_hw = self.image_hw;
                resnet(rng, &cfg)?
            }
        };
        Ok(m)
    }

    fn fit_config(&self, epochs: usize) -> FitConfig {
        FitConfig::new(epochs, self.batch_size)
    }
}

/// Everything both experiments need: a trained victim, the adversary's
/// augmented query-labelled dataset, and a held-out test set.
#[derive(Debug)]
pub struct AttackContext {
    /// The trained victim model.
    pub victim: Sequential,
    /// Victim accuracy on the test set.
    pub victim_accuracy: f32,
    /// The adversary's (augmented, victim-labelled) training set.
    pub adversary_data: Dataset,
    /// Held-out test set with true labels.
    pub test_data: Dataset,
    config: ExperimentConfig,
}

/// Trains the victim and prepares the adversary's data per Sec. III-B1.
///
/// # Errors
///
/// Propagates model/data errors.
pub fn prepare(config: &ExperimentConfig) -> Result<AttackContext, AttackError> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let gen = SyntheticCifar::new(config.image_hw, 10).with_noise(config.noise);
    let pool = gen.generate(&mut rng, config.train_samples)?;
    let test_data = gen.generate(&mut rng, config.test_samples)?;
    let (victim_set, adversary_seed) = pool.split(config.victim_fraction, &mut rng)?;

    let mut victim = config.build_model(&mut rng)?;
    let mut opt = Sgd::new(config.lr).with_momentum(0.9);
    fit(
        &mut victim,
        victim_set.images(),
        victim_set.labels(),
        &mut opt,
        &config.fit_config(config.victim_epochs),
        &mut rng,
    )?;
    let victim_accuracy = accuracy(
        &mut victim,
        test_data.images(),
        test_data.labels(),
        config.batch_size,
    )?;

    // The adversary does not know true labels: it queries the victim.
    let queried = query_labels(&mut victim, adversary_seed.images())?;
    let seeds = adversary_seed.with_labels(queried)?;
    // Jacobian augmentation uses a provisional substitute to pick
    // directions; labels always come from the victim.
    let mut probe = config.build_model(&mut rng)?;
    let adversary_data = augment(&mut probe, &mut victim, &seeds, 0.1, config.augment_rounds)?;

    Ok(AttackContext {
        victim,
        victim_accuracy,
        adversary_data,
        test_data,
        config: config.clone(),
    })
}

impl AttackContext {
    /// Builds and trains the black-box substitute (architecture known,
    /// weights retrained from scratch on the adversary's data).
    ///
    /// # Errors
    ///
    /// Propagates model errors.
    pub fn black_box_substitute(&mut self, seed_offset: u64) -> Result<Sequential, AttackError> {
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xB1AC ^ seed_offset);
        let mut sub = self.config.build_model(&mut rng)?;
        self.train_substitute(&mut sub, &mut rng)?;
        Ok(sub)
    }

    /// Builds the white-box substitute (exact copy).
    ///
    /// # Errors
    ///
    /// Propagates model errors.
    pub fn white_box_substitute(&mut self) -> Result<Sequential, AttackError> {
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xFFFF);
        let mut sub = self.config.build_model(&mut rng)?;
        copy_all_weights(&self.victim, &mut sub)?;
        Ok(sub)
    }

    /// Builds and fine-tunes a SEAL substitute at the given encryption
    /// ratio: known rows copied and frozen, unknown rows retrained.
    ///
    /// # Errors
    ///
    /// Propagates model and plan errors.
    pub fn seal_substitute(&mut self, ratio: f64) -> Result<Sequential, AttackError> {
        let plan =
            EncryptionPlan::from_model(&self.victim, SePolicy::paper_default().with_ratio(ratio))?;
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x5EA1 ^ (ratio * 1000.0) as u64);
        let mut sub = self.config.build_model(&mut rng)?;
        apply_seal_knowledge(&self.victim, &mut sub, &plan, &mut rng)?;
        self.train_substitute(&mut sub, &mut rng)?;
        Ok(sub)
    }

    /// Accuracy of a substitute on the held-out test set (the IP-stealing
    /// quality metric of Fig. 3).
    ///
    /// # Errors
    ///
    /// Propagates model errors.
    pub fn test_accuracy(&self, substitute: &mut Sequential) -> Result<f32, AttackError> {
        Ok(accuracy(
            substitute,
            self.test_data.images(),
            self.test_data.labels(),
            self.config.batch_size,
        )?)
    }

    fn train_substitute(
        &mut self,
        sub: &mut Sequential,
        rng: &mut StdRng,
    ) -> Result<(), AttackError> {
        let mut opt = Sgd::new(self.config.lr).with_momentum(0.9);
        fit(
            sub,
            self.adversary_data.images(),
            self.adversary_data.labels(),
            &mut opt,
            &self.config.fit_config(self.config.substitute_epochs),
            rng,
        )?;
        Ok(())
    }
}

/// Fig. 3 outcome: substitute accuracy per knowledge level.
#[derive(Debug, Clone, PartialEq)]
pub struct IpStealingOutcome {
    /// Victim accuracy on the test set.
    pub victim_accuracy: f32,
    /// White-box substitute accuracy (≈ victim).
    pub white_box_accuracy: f32,
    /// Black-box substitute accuracy (the security floor).
    pub black_box_accuracy: f32,
    /// `(ratio, accuracy)` per requested SEAL ratio.
    pub seal_accuracies: Vec<(f64, f32)>,
}

/// Runs the Fig. 3 IP-stealing experiment over the given SEAL ratios.
///
/// # Errors
///
/// Propagates model/data errors.
pub fn run_ip_stealing(
    config: &ExperimentConfig,
    ratios: &[f64],
) -> Result<IpStealingOutcome, AttackError> {
    let mut ctx = prepare(config)?;
    let mut white = ctx.white_box_substitute()?;
    let white_box_accuracy = ctx.test_accuracy(&mut white)?;
    let mut black = ctx.black_box_substitute(0)?;
    let black_box_accuracy = ctx.test_accuracy(&mut black)?;
    let mut seal_accuracies = Vec::with_capacity(ratios.len());
    for &r in ratios {
        let mut sub = ctx.seal_substitute(r)?;
        seal_accuracies.push((r, ctx.test_accuracy(&mut sub)?));
    }
    Ok(IpStealingOutcome {
        victim_accuracy: ctx.victim_accuracy,
        white_box_accuracy,
        black_box_accuracy,
        seal_accuracies,
    })
}

/// Fig. 4 outcome: transferability per knowledge level.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferabilityOutcome {
    /// Transferability of white-box-crafted examples.
    pub white_box: f64,
    /// Transferability of black-box-crafted examples (the floor).
    pub black_box: f64,
    /// `(ratio, transferability)` per requested SEAL ratio.
    pub seal: Vec<(f64, f64)>,
}

/// Runs the Fig. 4 adversarial-attack experiment: craft `examples` I-FGSM
/// examples per substitute and measure their success rate on the victim.
///
/// # Errors
///
/// Propagates model/data errors.
pub fn run_transferability(
    config: &ExperimentConfig,
    ratios: &[f64],
    examples: usize,
    fgsm: &FgsmConfig,
) -> Result<TransferabilityOutcome, AttackError> {
    let mut ctx = prepare(config)?;
    let criterion = SuccessCriterion::Untargeted;

    let mut white = ctx.white_box_substitute()?;
    let adv = craft_batch(&mut white, &ctx.test_data, examples, fgsm)?;
    let white_box = transferability(&mut ctx.victim, &adv, criterion)?;

    let mut black = ctx.black_box_substitute(0)?;
    let adv = craft_batch(&mut black, &ctx.test_data, examples, fgsm)?;
    let black_box = transferability(&mut ctx.victim, &adv, criterion)?;

    let mut seal = Vec::with_capacity(ratios.len());
    for &r in ratios {
        let mut sub = ctx.seal_substitute(r)?;
        let adv = craft_batch(&mut sub, &ctx.test_data, examples, fgsm)?;
        seal.push((r, transferability(&mut ctx.victim, &adv, criterion)?));
    }
    Ok(TransferabilityOutcome {
        white_box,
        black_box,
        seal,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sub-quick config for unit tests (seconds, not minutes).
    fn test_config(arch: ModelArch, seed: u64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::quick(arch, seed);
        cfg.train_samples = 160;
        cfg.test_samples = 60;
        cfg.augment_rounds = 2;
        cfg.victim_epochs = 10;
        cfg.substitute_epochs = 8;
        cfg
    }

    #[test]
    fn quick_ip_stealing_preserves_paper_orderings() {
        let cfg = test_config(ModelArch::Vgg16, 7);
        let out = run_ip_stealing(&cfg, &[0.1, 0.9]).unwrap();
        // White-box equals the victim by construction.
        assert!((out.white_box_accuracy - out.victim_accuracy).abs() < 1e-6);
        // The victim must be clearly better than chance for the experiment
        // to mean anything.
        assert!(out.victim_accuracy > 0.3, "victim {}", out.victim_accuracy);
        // White-box dominates black-box.
        assert!(out.white_box_accuracy >= out.black_box_accuracy);
    }

    #[test]
    fn prepare_builds_victim_labelled_adversary_data() {
        let cfg = test_config(ModelArch::Vgg16, 3);
        let ctx = prepare(&cfg).unwrap();
        // 10% of 160 = 16 seeds, doubled twice: 16 × 2² = 64.
        assert_eq!(ctx.adversary_data.len(), 64);
        assert_eq!(ctx.test_data.len(), 60);
    }

    #[test]
    fn seal_substitute_keeps_known_rows_after_training() {
        let cfg = test_config(ModelArch::Vgg16, 11);
        let mut ctx = prepare(&cfg).unwrap();
        let plan =
            EncryptionPlan::from_model(&ctx.victim, SePolicy::paper_default().with_ratio(0.5))
                .unwrap();
        let mut sub = ctx.seal_substitute(0.5).unwrap();

        let vmats = ctx.victim.kernel_matrices();
        // Check one SE layer: frozen (known) elements equal the victim's.
        let sub_weights = sub.kernel_weights_mut();
        for ((_vm, lp), (_, sp)) in vmats.iter().zip(plan.layers()).zip(sub_weights).take(6) {
            if lp.fully_encrypted {
                continue;
            }
            let mask = sp.mask.as_ref().expect("SE layer has mask");
            assert!(mask.contains(&0.0), "has frozen weights");
        }
    }
}
