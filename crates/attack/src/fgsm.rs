//! I-FGSM adversarial example generation (Kurakin et al., "Adversarial
//! examples in the physical world").
//!
//! The paper crafts 1,000 adversarial examples per substitute model with
//! I-FGSM, targeted at "a pre-assigned incorrect output", and verifies a
//! 100% success rate *against the substitute* before measuring
//! transferability to the victim (Fig. 4).

use seal_data::Dataset;
use seal_nn::{Sequential, SoftmaxCrossEntropy};
use seal_tensor::Tensor;

use crate::AttackError;

/// I-FGSM parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FgsmConfig {
    /// Per-step magnitude `α`.
    pub step: f32,
    /// ℓ∞ budget `ε` around the original image.
    pub epsilon: f32,
    /// Number of iterations.
    pub iterations: usize,
}

impl Default for FgsmConfig {
    /// `α = ε/4` over 10 iterations with `ε = 0.3` (in units of the
    /// synthetic images' dynamic range).
    fn default() -> Self {
        FgsmConfig {
            step: 0.075,
            epsilon: 0.3,
            iterations: 10,
        }
    }
}

/// One crafted adversarial example.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversarialExample {
    /// The perturbed input (`[1,C,H,W]`).
    pub image: Tensor,
    /// Ground-truth label of the clean input.
    pub true_label: usize,
    /// The pre-assigned incorrect target class.
    pub target: usize,
    /// Whether the example fools the substitute it was crafted on.
    pub fools_substitute: bool,
}

/// Crafts a targeted I-FGSM example on `substitute`:
/// `x ← clip_ε(x − α · sign(∇ₓ CE(f(x), target)))`.
///
/// # Errors
///
/// Returns [`AttackError::InvalidParameter`] for degenerate configs and
/// propagates model errors.
pub fn craft_targeted(
    substitute: &mut Sequential,
    clean: &Tensor,
    true_label: usize,
    target: usize,
    config: &FgsmConfig,
) -> Result<AdversarialExample, AttackError> {
    if config.step <= 0.0 || config.epsilon <= 0.0 || config.iterations == 0 {
        return Err(AttackError::InvalidParameter {
            reason: "fgsm needs positive step, epsilon and iterations".into(),
        });
    }
    let mut x = clean.clone();
    let mut loss = SoftmaxCrossEntropy::new();
    for _ in 0..config.iterations {
        let logits = substitute.forward(&x, false)?;
        loss.forward(&logits, &[target])?;
        let grad_logits = loss.backward()?;
        substitute.zero_grad();
        let grad_in = substitute.backward(&grad_logits)?;
        // Descend the target loss, clipped to the ε-ball around `clean`.
        let data = x.as_mut_slice();
        for ((v, g), orig) in data
            .iter_mut()
            .zip(grad_in.as_slice())
            .zip(clean.as_slice())
        {
            *v =
                (*v - config.step * g.signum()).clamp(orig - config.epsilon, orig + config.epsilon);
        }
    }
    let fooled = substitute.predict(&x)? == vec![target];
    Ok(AdversarialExample {
        image: x,
        true_label,
        target,
        fools_substitute: fooled,
    })
}

/// Crafts an **untargeted** I-FGSM example: ascend the loss of the true
/// label, `x ← clip_ε(x + α · sign(∇ₓ CE(f(x), true_label)))`. Success is
/// any misclassification.
///
/// # Errors
///
/// Returns [`AttackError::InvalidParameter`] for degenerate configs and
/// propagates model errors.
pub fn craft_untargeted(
    substitute: &mut Sequential,
    clean: &Tensor,
    true_label: usize,
    config: &FgsmConfig,
) -> Result<AdversarialExample, AttackError> {
    if config.step <= 0.0 || config.epsilon <= 0.0 || config.iterations == 0 {
        return Err(AttackError::InvalidParameter {
            reason: "fgsm needs positive step, epsilon and iterations".into(),
        });
    }
    let mut x = clean.clone();
    let mut loss = SoftmaxCrossEntropy::new();
    for _ in 0..config.iterations {
        let logits = substitute.forward(&x, false)?;
        loss.forward(&logits, &[true_label])?;
        let grad_logits = loss.backward()?;
        substitute.zero_grad();
        let grad_in = substitute.backward(&grad_logits)?;
        let data = x.as_mut_slice();
        for ((v, g), orig) in data
            .iter_mut()
            .zip(grad_in.as_slice())
            .zip(clean.as_slice())
        {
            // Ascend the true-label loss.
            *v =
                (*v + config.step * g.signum()).clamp(orig - config.epsilon, orig + config.epsilon);
        }
    }
    let pred = substitute.predict(&x)?[0];
    Ok(AdversarialExample {
        image: x,
        true_label,
        target: pred,
        fools_substitute: pred != true_label,
    })
}

/// Crafts up to `count` adversarial examples from a dataset, targeting
/// `(label + 1) mod classes` for each sample — a fixed pre-assigned
/// incorrect class per the paper.
///
/// # Errors
///
/// Propagates crafting errors.
pub fn craft_batch(
    substitute: &mut Sequential,
    data: &Dataset,
    count: usize,
    config: &FgsmConfig,
) -> Result<Vec<AdversarialExample>, AttackError> {
    let n = count.min(data.len());
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let (x, y) = data.sample(i)?;
        let target = (y + 1) % data.num_classes();
        out.push(craft_targeted(substitute, &x, y, target, config)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_data::SyntheticCifar;
    use seal_nn::layers::{Flatten, Linear};
    use seal_nn::{fit, FitConfig, Sgd};
    use seal_tensor::rng::rngs::StdRng;
    use seal_tensor::rng::SeedableRng;

    fn trained_model(hw: usize, data: &Dataset) -> Sequential {
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = Sequential::new("m")
            .with(Box::new(Flatten::new("f")))
            .with(Box::new(
                Linear::new(&mut rng, "fc", 3 * hw * hw, 10).unwrap(),
            ));
        let mut opt = Sgd::new(0.05).with_momentum(0.9);
        fit(
            &mut m,
            data.images(),
            data.labels(),
            &mut opt,
            &FitConfig::new(12, 16),
            &mut rng,
        )
        .unwrap();
        m
    }

    #[test]
    fn crafted_examples_fool_their_substitute() {
        let data = SyntheticCifar::new(6, 10)
            .with_noise(0.1)
            .generate(&mut StdRng::seed_from_u64(1), 120)
            .unwrap();
        let mut model = trained_model(6, &data);
        let examples = craft_batch(
            &mut model,
            &data,
            20,
            &FgsmConfig {
                step: 0.15,
                epsilon: 1.5,
                iterations: 20,
            },
        )
        .unwrap();
        let fooled = examples.iter().filter(|e| e.fools_substitute).count();
        assert!(
            fooled >= 16,
            "I-FGSM should fool the model it was crafted on: {fooled}/20"
        );
    }

    #[test]
    fn perturbation_respects_epsilon() {
        let data = SyntheticCifar::new(6, 10)
            .generate(&mut StdRng::seed_from_u64(2), 4)
            .unwrap();
        let mut model = trained_model(6, &data);
        let (clean, y) = data.sample(0).unwrap();
        let cfg = FgsmConfig {
            step: 0.2,
            epsilon: 0.25,
            iterations: 8,
        };
        let adv = craft_targeted(&mut model, &clean, y, (y + 1) % 10, &cfg).unwrap();
        let max_dev = adv
            .image
            .as_slice()
            .iter()
            .zip(clean.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_dev <= 0.2501, "ℓ∞ deviation {max_dev}");
    }

    #[test]
    fn degenerate_config_rejected() {
        let data = SyntheticCifar::new(4, 10)
            .generate(&mut StdRng::seed_from_u64(3), 1)
            .unwrap();
        let mut model = trained_model(4, &data);
        let (x, y) = data.sample(0).unwrap();
        let bad = FgsmConfig {
            step: 0.0,
            epsilon: 0.1,
            iterations: 1,
        };
        assert!(craft_targeted(&mut model, &x, y, 1, &bad).is_err());
    }

    #[test]
    fn untargeted_crafting_fools_the_substitute() {
        let data = SyntheticCifar::new(6, 10)
            .with_noise(0.1)
            .generate(&mut StdRng::seed_from_u64(8), 120)
            .unwrap();
        let mut model = trained_model(6, &data);
        let cfg = FgsmConfig {
            step: 0.15,
            epsilon: 1.5,
            iterations: 20,
        };
        let mut fooled = 0;
        for i in 0..15 {
            let (x, y) = data.sample(i).unwrap();
            let adv = craft_untargeted(&mut model, &x, y, &cfg).unwrap();
            if adv.fools_substitute {
                fooled += 1;
            }
        }
        assert!(
            fooled >= 12,
            "untargeted I-FGSM fools the source model: {fooled}/15"
        );
    }

    #[test]
    fn target_is_preassigned_incorrect_class() {
        let data = SyntheticCifar::new(4, 10)
            .generate(&mut StdRng::seed_from_u64(4), 6)
            .unwrap();
        let mut model = trained_model(4, &data);
        let examples = craft_batch(&mut model, &data, 6, &FgsmConfig::default()).unwrap();
        for e in examples {
            assert_ne!(e.target, e.true_label);
            assert_eq!(e.target, (e.true_label + 1) % 10);
        }
    }
}
