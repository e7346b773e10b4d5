use seal_tensor::rng::rngs::StdRng;
use seal_tensor::rng::{Rng, SeedableRng};
use seal_tensor::{Shape, Tensor};

use crate::{Layer, LayerKind, NnError};

/// Inverted dropout: during training, each activation is zeroed with
/// probability `p` and survivors are scaled by `1/(1-p)`; evaluation is
/// the identity. The original VGG-16 uses `p = 0.5` between its FC
/// layers.
///
/// The layer owns a seeded RNG so whole-model training stays reproducible
/// from a single seed.
#[derive(Debug)]
pub struct Dropout {
    name: String,
    p: f32,
    rng: StdRng,
    cached_mask: Option<Vec<f32>>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] unless `0 ≤ p < 1`.
    pub fn new(name: impl Into<String>, p: f32, seed: u64) -> Result<Self, NnError> {
        if !(0.0..1.0).contains(&p) {
            return Err(NnError::InvalidConfig {
                reason: format!("dropout probability {p} outside [0, 1)"),
            });
        }
        Ok(Dropout {
            name: name.into(),
            p,
            rng: StdRng::seed_from_u64(seed),
            cached_mask: None,
        })
    }

    /// The drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Activation
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError> {
        if !train || self.p == 0.0 {
            self.cached_mask = None;
            return Ok(input.clone());
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mask: Vec<f32> = (0..input.len())
            .map(|_| {
                if self.rng.gen::<f32>() < keep {
                    scale
                } else {
                    0.0
                }
            })
            .collect();
        let data = input
            .as_slice()
            .iter()
            .zip(&mask)
            .map(|(v, m)| v * m)
            .collect();
        self.cached_mask = Some(mask);
        Ok(Tensor::from_vec(data, input.shape().clone())?)
    }

    fn forward_infer(&self, input: &Tensor) -> Result<Tensor, NnError> {
        // Inverted dropout is the identity at inference time.
        Ok(input.clone())
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        match &self.cached_mask {
            // Eval-mode or p=0 forward: identity.
            None => Ok(grad_output.clone()),
            Some(mask) => {
                if mask.len() != grad_output.len() {
                    return Err(NnError::InvalidConfig {
                        reason: "dropout backward shape differs from forward".into(),
                    });
                }
                let data = grad_output
                    .as_slice()
                    .iter()
                    .zip(mask)
                    .map(|(g, m)| g * m)
                    .collect();
                Ok(Tensor::from_vec(data, grad_output.shape().clone())?)
            }
        }
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape, NnError> {
        Ok(input.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new("d", 0.5, 1).unwrap();
        let x = Tensor::full(Shape::vector(64), 3.0);
        assert_eq!(d.forward(&x, false).unwrap(), x);
        // Backward after eval forward is identity too.
        let g = Tensor::ones(Shape::vector(64));
        assert_eq!(d.backward(&g).unwrap(), g);
    }

    #[test]
    fn training_keeps_expectation() {
        let mut d = Dropout::new("d", 0.5, 2).unwrap();
        let x = Tensor::ones(Shape::vector(10_000));
        let y = d.forward(&x, true).unwrap();
        let mean = y.sum() / y.len() as f32;
        assert!(
            (mean - 1.0).abs() < 0.05,
            "inverted dropout preserves E[x]: {mean}"
        );
        // Survivors are scaled by 2.
        assert!(y
            .as_slice()
            .iter()
            .all(|v| *v == 0.0 || (*v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn backward_uses_the_same_mask() {
        let mut d = Dropout::new("d", 0.3, 3).unwrap();
        let x = Tensor::ones(Shape::vector(100));
        let y = d.forward(&x, true).unwrap();
        let g = d.backward(&Tensor::ones(Shape::vector(100))).unwrap();
        for (yy, gg) in y.as_slice().iter().zip(g.as_slice()) {
            assert_eq!(yy, gg, "gradient gated exactly like the activation");
        }
    }

    #[test]
    fn invalid_probability_rejected() {
        assert!(Dropout::new("d", 1.0, 0).is_err());
        assert!(Dropout::new("d", -0.1, 0).is_err());
        assert!(Dropout::new("d", 0.0, 0).is_ok());
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut d = Dropout::new("d", 0.5, seed).unwrap();
            d.forward(&Tensor::ones(Shape::vector(32)), true).unwrap()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
