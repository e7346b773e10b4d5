use seal_tensor::ops::BatchNormParams;
use seal_tensor::{Shape, Tensor};

use crate::{Layer, LayerKind, NnError, Param};

/// Per-channel batch normalisation over `NCHW` activations.
///
/// Training mode normalises with batch statistics and updates running
/// estimates with `momentum`; evaluation mode uses the running estimates.
#[derive(Debug)]
pub struct BatchNorm2d {
    name: String,
    channels: usize,
    eps: f32,
    momentum: f32,
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    /// Cached normalised activations + inverse std per channel for backward.
    cached: Option<BnCache>,
}

#[derive(Debug)]
struct BnCache {
    xhat: Tensor,
    inv_std: Vec<f32>,
    count_per_channel: usize,
    /// Whether the cached statistics came from the batch (training) or the
    /// running estimates (evaluation). Evaluation-mode statistics are
    /// constants, so the backward pass omits the mean/variance terms —
    /// needed by I-FGSM and Jacobian augmentation, which differentiate the
    /// *inference* function.
    batch_stats: bool,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` channels.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for zero channels.
    pub fn new(name: impl Into<String>, channels: usize) -> Result<Self, NnError> {
        if channels == 0 {
            return Err(NnError::InvalidConfig {
                reason: "batchnorm needs at least one channel".into(),
            });
        }
        Ok(BatchNorm2d {
            name: name.into(),
            channels,
            eps: 1e-5,
            momentum: 0.1,
            gamma: Param::new(Tensor::ones(Shape::vector(channels))),
            beta: Param::new(Tensor::zeros(Shape::vector(channels))),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            cached: None,
        })
    }

    /// Number of channels this layer normalises.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The per-channel scale parameter γ.
    pub fn gamma(&self) -> &Param {
        &self.gamma
    }

    /// The per-channel shift parameter β.
    pub fn beta(&self) -> &Param {
        &self.beta
    }

    /// Running per-channel mean used at inference time.
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }

    /// The inference normaliser `1/√(σ² + ε)` of each channel, from the
    /// running variance: what [`Layer::forward_infer`] multiplies by and
    /// the compiled plans snapshot.
    pub(crate) fn inv_std(&self) -> Vec<f32> {
        self.running_var
            .iter()
            .map(|v| 1.0 / (v + self.eps).sqrt())
            .collect()
    }

    fn check_input(&self, input: &Tensor) -> Result<(usize, usize, usize), NnError> {
        if input.shape().rank() != 4 || input.shape().dim(1) != self.channels {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "batchnorm {} expects NCHW with {} channels, got {}",
                    self.name,
                    self.channels,
                    input.shape()
                ),
            });
        }
        Ok((
            input.shape().dim(0),
            input.shape().dim(2),
            input.shape().dim(3),
        ))
    }
}

impl Layer for BatchNorm2d {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Norm
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError> {
        let (n, h, w) = self.check_input(input)?;
        let c = self.channels;
        let spatial = h * w;
        let count = n * spatial;
        let x = input.as_slice();

        let mut mean = vec![0.0f32; c];
        let mut var = vec![0.0f32; c];
        if train {
            // One task per channel; each channel's sums run in the serial
            // loop's `b`-then-spatial order, so statistics are bitwise
            // identical for any thread count.
            seal_pool::par_chunks_pair_mut(&mut mean, 1, &mut var, 1, |ch, m, v| {
                for b in 0..n {
                    let base = (b * c + ch) * spatial;
                    for xv in &x[base..base + spatial] {
                        m[0] += xv;
                    }
                }
                m[0] /= count as f32;
                for b in 0..n {
                    let base = (b * c + ch) * spatial;
                    for xv in &x[base..base + spatial] {
                        let d = xv - m[0];
                        v[0] += d * d;
                    }
                }
                v[0] /= count as f32;
            });
            for ch in 0..c {
                self.running_mean[ch] =
                    (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean[ch];
                self.running_var[ch] =
                    (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var[ch];
            }
        } else {
            mean.copy_from_slice(&self.running_mean);
            var.copy_from_slice(&self.running_var);
        }

        let inv_std: Vec<f32> = var.iter().map(|v| 1.0 / (v + self.eps).sqrt()).collect();
        let gamma = self.gamma.value.as_slice();
        let beta = self.beta.value.as_slice();

        let mut xhat = Tensor::zeros(input.shape().clone());
        let mut out = Tensor::zeros(input.shape().clone());
        if spatial > 0 {
            // One task per (batch, channel) plane.
            seal_pool::par_chunks_pair_mut(
                xhat.as_mut_slice(),
                spatial,
                out.as_mut_slice(),
                spatial,
                |p, xh, o| {
                    let ch = p % c;
                    let base = p * spatial;
                    for (i, (xh, o)) in xh.iter_mut().zip(o.iter_mut()).enumerate() {
                        let v = (x[base + i] - mean[ch]) * inv_std[ch];
                        *xh = v;
                        *o = gamma[ch] * v + beta[ch];
                    }
                },
            );
        }
        self.cached = Some(BnCache {
            xhat,
            inv_std,
            count_per_channel: count,
            batch_stats: train,
        });
        Ok(out)
    }

    // seal-lint: allow(panic-freedom) — per-channel offsets are products of the NCHW dims validated by `check_model` before serving
    fn forward_infer(&self, input: &Tensor) -> Result<Tensor, NnError> {
        let (_, h, w) = self.check_input(input)?;
        let c = self.channels;
        let inv_std = self.inv_std();
        let bn = BatchNormParams {
            gamma: self.gamma.value.as_slice(),
            beta: self.beta.value.as_slice(),
            mean: &self.running_mean,
            inv_std: &inv_std,
        };
        let mut out = input.clone();
        // The plans' per-plane batch-norm, whose association is `forward`'s,
        // so eval-mode outputs match bitwise.
        if h * w > 0 {
            seal_pool::par_chunks_mut(out.as_mut_slice(), h * w, |p, plane| {
                bn.apply(p % c, plane, false)
            });
        }
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let cache = self
            .cached
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: self.name.clone(),
            })?;
        let (n, h, w) = self.check_input(grad_output)?;
        let c = self.channels;
        let spatial = h * w;
        let m = cache.count_per_channel as f32;

        let go = grad_output.as_slice();
        let xh = cache.xhat.as_slice();
        let gamma = self.gamma.value.as_slice();

        // Per-channel sums of dy and dy·x̂ — one task per channel, each in
        // the serial loop's `b`-then-spatial accumulation order.
        let mut sum_dy = vec![0.0f32; c];
        let mut sum_dy_xhat = vec![0.0f32; c];
        seal_pool::par_chunks_pair_mut(&mut sum_dy, 1, &mut sum_dy_xhat, 1, |ch, sd, sdx| {
            for b in 0..n {
                let base = (b * c + ch) * spatial;
                for i in base..base + spatial {
                    sd[0] += go[i];
                    sdx[0] += go[i] * xh[i];
                }
            }
        });
        {
            let gg = self.gamma.grad.as_mut_slice();
            let gb = self.beta.grad.as_mut_slice();
            for ch in 0..c {
                gg[ch] += sum_dy_xhat[ch];
                gb[ch] += sum_dy[ch];
            }
        }

        let mut grad_input = Tensor::zeros(grad_output.shape().clone());
        if spatial > 0 {
            let (inv_std, batch_stats) = (&cache.inv_std, cache.batch_stats);
            let (sum_dy, sum_dy_xhat) = (&sum_dy, &sum_dy_xhat);
            seal_pool::par_chunks_mut(grad_input.as_mut_slice(), spatial, |p, gi| {
                let ch = p % c;
                let base = p * spatial;
                let scale = gamma[ch] * inv_std[ch];
                for (i, gi) in gi.iter_mut().enumerate() {
                    *gi = if batch_stats {
                        scale * (go[base + i] - sum_dy[ch] / m - xh[base + i] * sum_dy_xhat[ch] / m)
                    } else {
                        // Running statistics are constants w.r.t. the input.
                        scale * go[base + i]
                    };
                }
            });
        }
        Ok(grad_input)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape, NnError> {
        if input.rank() != 4 || input.dim(1) != self.channels {
            return Err(NnError::InvalidConfig {
                reason: format!("batchnorm expects NCHW with {} channels", self.channels),
            });
        }
        Ok(input.clone())
    }

    fn norm_params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn norm_params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn export_state(&self) -> Vec<f32> {
        let mut s = self.running_mean.clone();
        s.extend_from_slice(&self.running_var);
        s
    }

    fn import_state(&mut self, state: &[f32]) -> Result<(), NnError> {
        if state.len() != 2 * self.channels {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "batchnorm {} expects {} state values, got {}",
                    self.name,
                    2 * self.channels,
                    state.len()
                ),
            });
        }
        self.running_mean.copy_from_slice(&state[..self.channels]);
        self.running_var.copy_from_slice(&state[self.channels..]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_tensor::rng::rngs::StdRng;
    use seal_tensor::rng::SeedableRng;

    #[test]
    fn training_output_is_normalised() {
        let mut bn = BatchNorm2d::new("bn", 2).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let x = seal_tensor::uniform(&mut rng, Shape::nchw(4, 2, 3, 3), -5.0, 5.0);
        let y = bn.forward(&x, true).unwrap();
        // Per-channel mean ≈ 0, var ≈ 1.
        let spatial = 9;
        for ch in 0..2 {
            let mut vals = Vec::new();
            for b in 0..4 {
                for i in 0..spatial {
                    vals.push(y.as_slice()[(b * 2 + ch) * spatial + i]);
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let mut bn = BatchNorm2d::new("bn", 1).unwrap();
        let x = Tensor::full(Shape::nchw(2, 1, 2, 2), 3.0);
        // Warm running stats with several training steps.
        for _ in 0..50 {
            bn.forward(&x, true).unwrap();
        }
        let y = bn.forward(&x, false).unwrap();
        // Constant input, running mean → 3, var → 0: output ≈ 0.
        assert!(y.l1_norm() / (y.len() as f32) < 0.5);
    }

    #[test]
    fn backward_matches_finite_differences_on_gamma() {
        let mut bn = BatchNorm2d::new("bn", 2).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let x = seal_tensor::uniform(&mut rng, Shape::nchw(2, 2, 2, 2), -1.0, 1.0);
        let y = bn.forward(&x, true).unwrap();
        bn.backward(&Tensor::ones(y.shape().clone())).unwrap();
        let analytic = bn.gamma.grad.as_slice()[0];

        let eps = 1e-3f32;
        bn.gamma.value.as_mut_slice()[0] += eps;
        let up = bn.forward(&x, true).unwrap().sum();
        bn.gamma.value.as_mut_slice()[0] -= 2.0 * eps;
        let dn = bn.forward(&x, true).unwrap().sum();
        let numeric = (up - dn) / (2.0 * eps);
        assert!(
            (numeric - analytic).abs() < 0.05 * analytic.abs().max(1.0),
            "{numeric} vs {analytic}"
        );
    }

    #[test]
    fn backward_grad_input_finite_difference() {
        let mut bn = BatchNorm2d::new("bn", 1).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let x = seal_tensor::uniform(&mut rng, Shape::nchw(1, 1, 2, 2), -1.0, 1.0);
        let y = bn.forward(&x, true).unwrap();
        // Weighted scalar loss so dL/dx is nontrivial (sum is invariant to
        // mean shifts under batchnorm).
        let wts: Vec<f32> = (0..4).map(|i| (i + 1) as f32).collect();
        let go = Tensor::from_vec(wts.clone(), y.shape().clone()).unwrap();
        let gi = bn.backward(&go).unwrap();

        let eps = 1e-3f32;
        for idx in 0..4 {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let yp = bn.forward(&xp, true).unwrap();
            let up: f32 = yp.as_slice().iter().zip(&wts).map(|(a, b)| a * b).sum();
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let ym = bn.forward(&xm, true).unwrap();
            let dn: f32 = ym.as_slice().iter().zip(&wts).map(|(a, b)| a * b).sum();
            let numeric = (up - dn) / (2.0 * eps);
            let analytic = gi.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 0.05 * analytic.abs().max(0.5),
                "idx {idx}: {numeric} vs {analytic}"
            );
        }
    }

    #[test]
    fn channel_mismatch_rejected() {
        let mut bn = BatchNorm2d::new("bn", 3).unwrap();
        assert!(bn
            .forward(&Tensor::zeros(Shape::nchw(1, 2, 2, 2)), true)
            .is_err());
        assert!(BatchNorm2d::new("z", 0).is_err());
    }
}
