//! The served model: the repo's dual view of each zoo network.
//!
//! A [`ServedModel`] pairs the *trainable reduced* `Sequential` (which the
//! workers actually run, through a compiled plan) with the
//! *full-size* [`NetworkTopology`] whose exact byte counts drive the
//! encryption cost model. This mirrors how the rest of the workspace
//! separates functional behaviour from performance accounting.

use seal_nn::models::{
    mlp, mlp_topology, resnet, resnet18_topology, vgg16, vgg16_topology, MlpConfig, ResNetConfig,
    VggConfig,
};
use seal_nn::{CompiledModel, NetworkTopology, PlanOptions, Sequential};
use seal_tensor::rng::rngs::StdRng;
use seal_tensor::rng::SeedableRng;
use seal_tensor::{Shape, Tensor};

use crate::ServeError;

/// Names accepted by [`ServedModel::load`], in zoo order.
pub const ZOO: [&str; 3] = ["mlp", "vgg16", "resnet18"];

/// A model ready to serve: immutable weights shared across worker threads
/// plus the topology used to price its weight streaming.
#[derive(Debug)]
pub struct ServedModel {
    name: String,
    model: Sequential,
    topology: NetworkTopology,
    input: Shape,
}

impl ServedModel {
    /// Loads a zoo model by name with weights seeded from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] for names outside [`ZOO`] and
    /// propagates model-construction failures.
    pub fn load(name: &str, seed: u64) -> Result<Self, ServeError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let (model, topology, input) = match name {
            "mlp" => {
                let cfg = MlpConfig::reduced();
                let input = Shape::nchw(1, 3, 8, 8);
                (
                    mlp(&mut rng, &cfg)?,
                    mlp_topology(&cfg, input.clone())?,
                    input,
                )
            }
            "vgg16" => {
                let cfg = VggConfig::reduced();
                let input = Shape::nchw(1, cfg.input_channels, cfg.input_hw, cfg.input_hw);
                (vgg16(&mut rng, &cfg)?, vgg16_topology(), input)
            }
            "resnet18" => {
                let cfg = ResNetConfig::reduced(18);
                let input = Shape::nchw(1, cfg.input_channels, cfg.input_hw, cfg.input_hw);
                (resnet(&mut rng, &cfg)?, resnet18_topology(), input)
            }
            other => {
                return Err(ServeError::UnknownModel {
                    name: other.to_string(),
                })
            }
        };
        Ok(ServedModel {
            name: name.to_string(),
            model,
            topology,
            input,
        })
    }

    /// The zoo name this model was loaded under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Per-sample input shape (`[1, C, H, W]`).
    pub fn input_shape(&self) -> &Shape {
        &self.input
    }

    /// The full-size topology the cost model prices.
    pub fn topology(&self) -> &NetworkTopology {
        &self.topology
    }

    /// The underlying trainable model the workers run.
    pub fn model(&self) -> &Sequential {
        &self.model
    }

    /// Compiles an inference plan for this model: weights pre-packed,
    /// activation arena sized for batches up to `max_batch`.
    ///
    /// With `quantized == false` the plan is compiled with
    /// [`PlanOptions::default`] (no fusion), so planned predictions are
    /// **bitwise identical** to the model's own `predict` — the speedup
    /// comes from pre-packing, the allocation-free arena, and skipping the
    /// per-call weight transpose. With `quantized == true` the plan runs
    /// the int8 path ([`PlanOptions::quantized`]): weights are packed as
    /// per-channel-scaled int8 panels and each CONV/FC runs the
    /// deterministic int8 GEMM, so predictions carry bounded quantization
    /// error instead (bitwise identical across thread counts and kernel
    /// modes, but not to the f32 path).
    ///
    /// # Errors
    ///
    /// Propagates plan-compilation failures (an unplannable layer); the
    /// server records it once and fails that model's batches.
    pub fn compile_plan(
        &self,
        max_batch: usize,
        quantized: bool,
    ) -> Result<CompiledModel, ServeError> {
        let options = if quantized {
            PlanOptions::quantized()
        } else {
            PlanOptions::default()
        };
        Ok(CompiledModel::compile(
            &self.model,
            &self.input,
            max_batch,
            options,
        )?)
    }

    /// Draws one deterministic random sample shaped for this model.
    pub fn sample(&self, rng: &mut StdRng) -> Tensor {
        seal_tensor::uniform(rng, self.input.clone(), -1.0, 1.0)
    }

    /// Draws what [`sample`](Self::sample) would draw from `rng`, written
    /// into `row` — one sample's slot of a batch tensor the caller owns.
    /// Filling row after row this way gives, bit for bit, the
    /// [`concat_batch`](Self::concat_batch) of the [`sample`](Self::sample)s.
    ///
    /// # Panics
    ///
    /// Debug builds assert that `row` is one input volume long; a shorter
    /// or longer row would be filled all the same, with other draws.
    pub fn sample_into(&self, rng: &mut StdRng, row: &mut [f32]) {
        debug_assert_eq!(row.len(), self.input.volume());
        seal_tensor::fill_uniform(rng, row, -1.0, 1.0);
    }

    /// Concatenates per-sample `[1, …]` tensors into one `[n, …]` batch.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] on an empty list or a sample
    /// whose shape differs from the model's input shape.
    pub fn concat_batch(&self, samples: &[&Tensor]) -> Result<Tensor, ServeError> {
        if samples.is_empty() {
            return Err(ServeError::InvalidConfig {
                reason: "cannot batch zero samples".into(),
            });
        }
        let mut data = Vec::with_capacity(self.input.volume() * samples.len());
        for s in samples {
            if s.shape() != &self.input {
                return Err(ServeError::InvalidConfig {
                    reason: format!(
                        "sample shape {} does not match model input {}",
                        s.shape(),
                        self.input
                    ),
                });
            }
            data.extend_from_slice(s.as_slice());
        }
        let mut dims = self.input.dims().to_vec();
        dims[0] = samples.len();
        let shape = Shape::new(dims);
        Ok(Tensor::from_vec(data, shape)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_loads_and_classifies() {
        for name in ZOO {
            let m = ServedModel::load(name, 3).unwrap();
            assert_eq!(m.name(), name);
            let mut rng = StdRng::seed_from_u64(5);
            let (a, b) = (m.sample(&mut rng), m.sample(&mut rng));
            let batch = m.concat_batch(&[&a, &b]).unwrap();
            let preds = m.compile_plan(2, false).unwrap().classify(&batch).unwrap();
            assert_eq!(preds.len(), 2);
            assert!(preds.iter().all(|&p| p < 10));
        }
    }

    #[test]
    fn sample_into_rows_are_bitwise_the_concat_of_samples() {
        for name in ZOO {
            let m = ServedModel::load(name, 3).unwrap();
            let volume = m.input_shape().volume();
            // One tensor reused across batch sizes, as a worker does.
            let mut batch = Tensor::zeros(m.input_shape().clone());
            for n in [1usize, 5, 8] {
                let users: Vec<u64> = (0..n as u64).map(|k| (24 << 32) ^ (k * 7919)).collect();
                batch.resize_leading(n);
                for (row, &user) in batch.as_mut_slice().chunks_exact_mut(volume).zip(&users) {
                    m.sample_into(&mut StdRng::seed_from_u64(user), row);
                }
                let samples: Vec<Tensor> = users
                    .iter()
                    .map(|&user| m.sample(&mut StdRng::seed_from_u64(user)))
                    .collect();
                let want = m.concat_batch(&samples.iter().collect::<Vec<_>>()).unwrap();
                assert_eq!(batch.shape(), want.shape(), "{name} at batch {n}");
                let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&batch), bits(&want), "{name} at batch {n}");
            }
        }
    }

    #[test]
    fn unknown_model_is_rejected() {
        assert!(matches!(
            ServedModel::load("gpt5", 0),
            Err(ServeError::UnknownModel { .. })
        ));
    }

    #[test]
    fn concat_batch_validates_shapes() {
        let m = ServedModel::load("mlp", 0).unwrap();
        assert!(m.concat_batch(&[]).is_err());
        let wrong = Tensor::zeros(Shape::nchw(1, 1, 8, 8));
        assert!(m.concat_batch(&[&wrong]).is_err());
    }

    #[test]
    fn same_seed_same_weights() {
        let a = ServedModel::load("mlp", 11).unwrap();
        let b = ServedModel::load("mlp", 11).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let x = a.sample(&mut rng);
        let classify = |m: &ServedModel| m.compile_plan(1, false).unwrap().classify(&x).unwrap();
        assert_eq!(classify(&a), classify(&b));
    }
}
