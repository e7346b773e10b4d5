use seal_tensor::{Shape, Tensor};

use crate::{Layer, NnError, Param};

/// A feed-forward stack of layers.
///
/// This is the model container for both victim and substitute networks.
/// Residual topologies fit too, because a
/// [`ResidualBlock`](crate::layers::ResidualBlock) is itself a [`Layer`].
#[derive(Debug, Default)]
pub struct Sequential {
    name: String,
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty model.
    pub fn new(name: impl Into<String>) -> Self {
        Sequential {
            name: name.into(),
            layers: Vec::new(),
        }
    }

    /// Model name (e.g. `vgg16`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Builder-style append.
    #[must_use]
    pub fn with(mut self, layer: Box<dyn Layer>) -> Self {
        self.push(layer);
        self
    }

    /// The layers, in execution order.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Runs the full forward pass.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train)?;
        }
        Ok(x)
    }

    /// Runs the full forward pass in inference mode through a shared model.
    ///
    /// Unlike [`forward`](Self::forward) this takes `&self` and caches no
    /// per-layer state, so an `Arc<Sequential>` can serve concurrent
    /// requests from many worker threads (the `seal-serve` runtime relies
    /// on this).
    ///
    /// # Errors
    ///
    /// Propagates the first layer error.
    pub fn forward_infer(&self, input: &Tensor) -> Result<Tensor, NnError> {
        let mut x = input.clone();
        for layer in &self.layers {
            x = layer.forward_infer(&x)?;
        }
        Ok(x)
    }

    /// Runs the full backward pass, returning the gradient w.r.t. the model
    /// input (used by I-FGSM and Jacobian augmentation in `seal-attack`).
    ///
    /// # Errors
    ///
    /// Propagates the first layer error.
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// All trainable parameters, in a stable order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Shared view of all parameters.
    pub fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Zeroes every parameter gradient.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total scalar parameter count.
    pub fn num_parameters(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Output shape for a given input shape without running the model.
    ///
    /// # Errors
    ///
    /// Propagates the first incompatible layer.
    pub fn output_shape(&self, input: &Shape) -> Result<Shape, NnError> {
        let mut s = input.clone();
        for layer in &self.layers {
            s = layer.output_shape(&s)?;
        }
        Ok(s)
    }

    /// Kernel matrices of every CONV/FC layer, in execution order
    /// (recursing through residual blocks) — the inventory the SEAL smart
    /// encryption scheme ranks.
    pub fn kernel_matrices(&self) -> Vec<crate::layer::KernelMatrix> {
        self.layers
            .iter()
            .flat_map(|l| l.kernel_matrices())
            .collect()
    }

    /// Mutable weight parameters of every kernel matrix, paired with layer
    /// names, in the same order as [`kernel_matrices`](Self::kernel_matrices).
    pub fn kernel_weights_mut(&mut self) -> Vec<(String, &mut Param)> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.kernel_weights_mut())
            .collect()
    }

    /// Normalisation parameters of every layer, in order.
    pub fn norm_params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.norm_params()).collect()
    }

    /// Mutable normalisation parameters of every layer, in order.
    pub fn norm_params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.norm_params_mut())
            .collect()
    }

    /// Exports all non-parameter layer state (batch-norm running stats) in
    /// layer order.
    pub fn export_state(&self) -> Vec<Vec<f32>> {
        self.layers.iter().map(|l| l.export_state()).collect()
    }

    /// Imports state previously produced by [`export_state`](Self::export_state).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] on layer-count or length
    /// mismatch.
    pub fn import_state(&mut self, state: &[Vec<f32>]) -> Result<(), NnError> {
        if state.len() != self.layers.len() {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "state for {} layers but model has {}",
                    state.len(),
                    self.layers.len()
                ),
            });
        }
        for (l, s) in self.layers.iter_mut().zip(state) {
            l.import_state(s)?;
        }
        Ok(())
    }

    /// Class predictions (argmax over logits) for a batch.
    ///
    /// Runs in inference mode via [`forward_infer`](Self::forward_infer),
    /// so a shared model needs no exclusive access to classify.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors.
    pub fn predict(&self, input: &Tensor) -> Result<Vec<usize>, NnError> {
        let logits = self.forward_infer(input)?;
        Ok(Self::argmax_rows(&logits))
    }

    /// Row-wise argmax over a `[batch, classes]` logits tensor.
    // seal-lint: allow(panic-freedom) — row strides come from the logits tensor's own shape, so every offset is in bounds
    pub fn argmax_rows(logits: &Tensor) -> Vec<usize> {
        let (batch, classes) = (logits.shape().dim(0), logits.shape().dim(1));
        let data = logits.as_slice();
        (0..batch)
            .map(|b| {
                let row = &data[b * classes..(b + 1) * classes];
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Flatten, Linear, ReLU};
    use seal_tensor::rng::rngs::StdRng;
    use seal_tensor::rng::SeedableRng;

    fn tiny_mlp(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new("mlp")
            .with(Box::new(Flatten::new("f")))
            .with(Box::new(Linear::new(&mut rng, "fc1", 8, 16).unwrap()))
            .with(Box::new(ReLU::new("r")))
            .with(Box::new(Linear::new(&mut rng, "fc2", 16, 4).unwrap()))
    }

    #[test]
    fn forward_backward_roundtrip() {
        let mut m = tiny_mlp(1);
        let x = Tensor::ones(Shape::nchw(2, 2, 2, 2));
        let y = m.forward(&x, true).unwrap();
        assert_eq!(y.shape().dims(), &[2, 4]);
        let gi = m.backward(&Tensor::ones(y.shape().clone())).unwrap();
        assert_eq!(gi.shape(), x.shape());
    }

    #[test]
    fn zero_grad_clears_all() {
        let mut m = tiny_mlp(2);
        let x = Tensor::ones(Shape::nchw(1, 2, 2, 2));
        let y = m.forward(&x, true).unwrap();
        m.backward(&Tensor::ones(y.shape().clone())).unwrap();
        assert!(m.params().iter().any(|p| p.grad.l1_norm() > 0.0));
        m.zero_grad();
        assert!(m.params().iter().all(|p| p.grad.l1_norm() == 0.0));
    }

    #[test]
    fn num_parameters_counts_weights_and_biases() {
        let m = tiny_mlp(3);
        // fc1: 8*16+16, fc2: 16*4+4.
        assert_eq!(m.num_parameters(), 8 * 16 + 16 + 16 * 4 + 4);
    }

    #[test]
    fn output_shape_without_running() {
        let m = tiny_mlp(4);
        let s = m.output_shape(&Shape::nchw(5, 2, 2, 2)).unwrap();
        assert_eq!(s.dims(), &[5, 4]);
    }

    #[test]
    fn predict_returns_argmax_per_row() {
        let m = Sequential::new("id");
        let x = Tensor::from_vec(vec![0.1, 0.9, 0.8, 0.2], Shape::matrix(2, 2)).unwrap();
        assert_eq!(m.predict(&x).unwrap(), vec![1, 0]);
    }

    #[test]
    fn model_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        // A model (including boxed dyn layers) must be shareable across
        // serving worker threads behind an Arc.
        assert_send_sync::<Sequential>();
        assert_send_sync::<std::sync::Arc<Sequential>>();
        assert_send_sync::<Box<dyn crate::Layer>>();
    }

    #[test]
    fn forward_infer_matches_eval_forward_and_leaves_no_state() {
        let mut m = tiny_mlp(5);
        let x = Tensor::ones(Shape::nchw(2, 2, 2, 2));
        let infer = m.forward_infer(&x).unwrap();
        let eval = m.forward(&x, false).unwrap();
        assert_eq!(infer, eval, "inference path must match eval-mode forward");
        // forward_infer on a fresh model must not enable backward.
        let fresh = tiny_mlp(5);
        fresh.forward_infer(&x).unwrap();
        let mut fresh = fresh;
        assert!(matches!(
            fresh.backward(&Tensor::ones(infer.shape().clone())),
            Err(NnError::BackwardBeforeForward { .. })
        ));
    }
}
