use seal_tensor::ops::{conv2d, conv2d_backward, Conv2dGeometry};
use seal_tensor::rng::Rng;
use seal_tensor::{he_normal, Shape, Tensor};

use crate::{Layer, LayerKind, NnError, Param};

/// A 2-D convolution layer.
///
/// Weights are stored as the paper's *kernel matrix* `[c_out, c_in, k, k]`:
/// `weights[:, i, :, :]` is kernel row `i` (coupled to input channel `i`) —
/// the unit whose ℓ1-norm the SE scheme ranks, and whose encryption decision
/// propagates to input-feature-map channel `i`.
#[derive(Debug)]
pub struct Conv2d {
    name: String,
    geom: Conv2dGeometry,
    weights: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with He-normal weights and zero bias.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for zero channel counts or kernel.
    pub fn new(
        rng: &mut impl Rng,
        name: impl Into<String>,
        in_channels: usize,
        out_channels: usize,
        geom: Conv2dGeometry,
    ) -> Result<Self, NnError> {
        if in_channels == 0 || out_channels == 0 || geom.kernel == 0 {
            return Err(NnError::InvalidConfig {
                reason: "conv2d needs positive channels and kernel".into(),
            });
        }
        let fan_in = in_channels * geom.kernel * geom.kernel;
        let shape = Shape::nchw(out_channels, in_channels, geom.kernel, geom.kernel);
        Ok(Conv2d {
            name: name.into(),
            geom,
            weights: Param::new(he_normal(rng, shape, fan_in)),
            bias: Param::new(Tensor::zeros(Shape::vector(out_channels))),
            cached_input: None,
        })
    }

    /// The convolution geometry.
    pub fn geometry(&self) -> &Conv2dGeometry {
        &self.geom
    }

    /// Number of input channels (`n_x`, kernel rows).
    pub fn in_channels(&self) -> usize {
        self.weights.value.shape().dim(1)
    }

    /// Number of output channels (`n_y`, kernel columns).
    pub fn out_channels(&self) -> usize {
        self.weights.value.shape().dim(0)
    }

    /// The weight parameter (the kernel matrix).
    pub fn weights(&self) -> &Param {
        &self.weights
    }

    /// Mutable weight parameter.
    pub fn weights_mut(&mut self) -> &mut Param {
        &mut self.weights
    }

    /// The per-output-channel bias parameter.
    pub fn bias(&self) -> &Param {
        &self.bias
    }

    /// ℓ1-norm of kernel row `i` — the sum of absolute weights of every
    /// kernel that reads input channel `i`, the paper's importance measure.
    ///
    /// # Panics
    ///
    /// Panics if `i >= in_channels()`.
    pub fn kernel_row_l1(&self, i: usize) -> f32 {
        assert!(i < self.in_channels(), "kernel row {i} out of range");
        let (co, ci, k) = (self.out_channels(), self.in_channels(), self.geom.kernel);
        let w = self.weights.value.as_slice();
        let mut acc = 0.0f32;
        for o in 0..co {
            let base = ((o * ci + i) * k) * k;
            for v in &w[base..base + k * k] {
                acc += v.abs();
            }
        }
        acc
    }

    /// ℓ1-norms of all kernel rows, in row order.
    pub fn kernel_row_l1_all(&self) -> Vec<f32> {
        (0..self.in_channels())
            .map(|i| self.kernel_row_l1(i))
            .collect()
    }
}

impl Layer for Conv2d {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Conv
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor, NnError> {
        let out = self.forward_infer(input)?;
        self.cached_input = Some(input.clone());
        Ok(out)
    }

    fn forward_infer(&self, input: &Tensor) -> Result<Tensor, NnError> {
        Ok(conv2d(
            input,
            &self.weights.value,
            Some(&self.bias.value),
            &self.geom,
        )?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: self.name.clone(),
            })?;
        let grads = conv2d_backward(input, &self.weights.value, grad_output, &self.geom)?;
        self.weights.grad.axpy(1.0, &grads.grad_weights)?;
        self.bias.grad.axpy(1.0, &grads.grad_bias)?;
        Ok(grads.grad_input)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weights, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weights, &self.bias]
    }

    fn kernel_matrices(&self) -> Vec<crate::layer::KernelMatrix> {
        vec![crate::layer::KernelMatrix {
            name: self.name.clone(),
            kind: LayerKind::Conv,
            rows: self.in_channels(),
            row_l1: self.kernel_row_l1_all(),
        }]
    }

    fn kernel_weights_mut(&mut self) -> Vec<(String, &mut Param)> {
        vec![(self.name.clone(), &mut self.weights)]
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape, NnError> {
        if input.rank() != 4 {
            return Err(NnError::InvalidConfig {
                reason: format!("conv2d expects NCHW input, got {input}"),
            });
        }
        if input.dim(1) != self.in_channels() {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "conv2d has {} input channels but input carries {}",
                    self.in_channels(),
                    input.dim(1)
                ),
            });
        }
        let oh = self
            .geom
            .output_size(input.dim(2))
            .ok_or_else(|| NnError::InvalidConfig {
                reason: "kernel does not fit input height".into(),
            })?;
        let ow = self
            .geom
            .output_size(input.dim(3))
            .ok_or_else(|| NnError::InvalidConfig {
                reason: "kernel does not fit input width".into(),
            })?;
        Ok(Shape::nchw(input.dim(0), self.out_channels(), oh, ow))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_tensor::rng::rngs::StdRng;
    use seal_tensor::rng::SeedableRng;

    fn conv(rng_seed: u64) -> Conv2d {
        let mut rng = StdRng::seed_from_u64(rng_seed);
        Conv2d::new(&mut rng, "c", 3, 4, Conv2dGeometry::same3x3()).unwrap()
    }

    #[test]
    fn forward_shape_matches_output_shape() {
        let mut c = conv(1);
        let x = Tensor::zeros(Shape::nchw(2, 3, 8, 8));
        let y = c.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &c.output_shape(x.shape()).unwrap());
        assert_eq!(y.shape().dims(), &[2, 4, 8, 8]);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut c = conv(2);
        let g = Tensor::zeros(Shape::nchw(1, 4, 8, 8));
        assert!(matches!(
            c.backward(&g),
            Err(NnError::BackwardBeforeForward { .. })
        ));
    }

    #[test]
    fn backward_accumulates_param_grads() {
        let mut c = conv(3);
        let x = Tensor::ones(Shape::nchw(1, 3, 4, 4));
        let y = c.forward(&x, true).unwrap();
        let gi = c.backward(&Tensor::ones(y.shape().clone())).unwrap();
        assert_eq!(gi.shape(), x.shape());
        assert!(c.weights().grad.l1_norm() > 0.0);
    }

    #[test]
    fn kernel_row_l1_sums_row_slice() {
        let mut c = conv(4);
        // Overwrite weights deterministically: row i gets value i+1.
        let (co, ci, k) = (c.out_channels(), c.in_channels(), 3usize);
        {
            let w = c.weights_mut().value.as_mut_slice();
            for o in 0..co {
                for i in 0..ci {
                    for kk in 0..k * k {
                        w[((o * ci + i) * k) * k + kk] = (i + 1) as f32;
                    }
                }
            }
        }
        let norms = c.kernel_row_l1_all();
        // Row i: co * k*k * (i+1).
        for (i, n) in norms.iter().enumerate() {
            assert_eq!(*n, (co * k * k) as f32 * (i + 1) as f32);
        }
        assert!(norms[0] < norms[1] && norms[1] < norms[2]);
    }

    #[test]
    fn zero_channels_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(Conv2d::new(&mut rng, "bad", 0, 4, Conv2dGeometry::same3x3()).is_err());
    }
}
