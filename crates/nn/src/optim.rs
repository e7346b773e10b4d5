use seal_tensor::Tensor;

use crate::{NnError, Sequential};

/// An optimisation algorithm stepping a model's parameters.
///
/// Implementations must respect [`Param::mask`](crate::Param::mask): frozen elements (mask `0`)
/// never move — this is how the SEAL-substitute adversary keeps the known
/// (unencrypted) weights fixed while fine-tuning the rest.
pub trait Optimizer: std::fmt::Debug {
    /// Applies one update step from the gradients accumulated in `model`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors (which indicate a model was mutated between
    /// steps).
    fn step(&mut self, model: &mut Sequential) -> Result<(), NnError>;

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Replaces the learning rate (for schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Stochastic gradient descent with momentum and weight decay.
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates plain SGD.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    /// Adds momentum.
    #[must_use]
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Adds L2 weight decay.
    #[must_use]
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, model: &mut Sequential) -> Result<(), NnError> {
        let mut params = model.params_mut();
        if self.velocity.len() != params.len() {
            self.velocity = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape().clone()))
                .collect();
        }
        for (p, v) in params.iter_mut().zip(&mut self.velocity) {
            p.mask_grad();
            if self.weight_decay > 0.0 {
                // Decay also respects the mask (frozen weights stay exact).
                let decayed = match &p.mask {
                    Some(mask) => {
                        let mut d = p.value.clone();
                        for (dv, m) in d.as_mut_slice().iter_mut().zip(mask) {
                            *dv *= m;
                        }
                        d
                    }
                    None => p.value.clone(),
                };
                p.grad.axpy(self.weight_decay, &decayed)?;
            }
            if self.momentum > 0.0 {
                let mut new_v = v.scale(self.momentum);
                new_v.axpy(1.0, &p.grad)?;
                *v = new_v;
                p.value.axpy(-self.lr, v)?;
            } else {
                let grad = p.grad.clone();
                p.value.axpy(-self.lr, &grad)?;
            }
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use seal_tensor::rng::rngs::StdRng;
    use seal_tensor::rng::SeedableRng;
    use seal_tensor::{Shape, Tensor};

    fn model_with_grad(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Sequential::new("m").with(Box::new(Linear::new(&mut rng, "fc", 2, 2).unwrap()));
        let x = Tensor::ones(Shape::matrix(1, 2));
        let y = m.forward(&x, true).unwrap();
        m.backward(&Tensor::ones(y.shape().clone())).unwrap();
        m
    }

    #[test]
    fn sgd_moves_against_gradient() {
        let mut m = model_with_grad(1);
        let before: Vec<f32> = m.params()[0].value.as_slice().to_vec();
        let grad: Vec<f32> = m.params()[0].grad.as_slice().to_vec();
        Sgd::new(0.1).step(&mut m).unwrap();
        let after: Vec<f32> = m.params()[0].value.as_slice().to_vec();
        for i in 0..before.len() {
            assert!((after[i] - (before[i] - 0.1 * grad[i])).abs() < 1e-6);
        }
    }

    #[test]
    fn momentum_accumulates() {
        let mut m = model_with_grad(2);
        let mut opt = Sgd::new(0.1).with_momentum(0.9);
        let before = m.params()[0].value.as_slice()[0];
        let g = m.params()[0].grad.as_slice()[0];
        opt.step(&mut m).unwrap();
        // Re-accumulate the same gradient and step again: velocity compounds.
        let x = Tensor::ones(Shape::matrix(1, 2));
        let y = m.forward(&x, true).unwrap();
        m.zero_grad();
        m.backward(&Tensor::ones(y.shape().clone())).unwrap();
        opt.step(&mut m).unwrap();
        let after = m.params()[0].value.as_slice()[0];
        // Two plain steps would move 2·lr·g; momentum moves more.
        assert!((before - after).abs() > 2.0 * 0.1 * g.abs() * 0.9);
    }

    #[test]
    fn frozen_elements_never_move_sgd() {
        let mut m = model_with_grad(3);
        let frozen_val;
        {
            let params = m.params_mut();
            let p = params.into_iter().next().unwrap();
            let mut mask = vec![1.0f32; p.len()];
            mask[0] = 0.0;
            p.mask = Some(mask);
            frozen_val = p.value.as_slice()[0];
        }
        Sgd::new(0.5)
            .with_momentum(0.9)
            .with_weight_decay(0.01)
            .step(&mut m)
            .unwrap();
        assert_eq!(m.params()[0].value.as_slice()[0], frozen_val);
        // Unfrozen neighbour did move.
        assert!(m.params()[0].grad.as_slice()[1] != 0.0);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Sgd::new(0.1);
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }
}
