//! Fully connected networks (the paper's extension target).
//!
//! Sec. III-A closes with: "the SE scheme can also be applied to
//! full-connected (FC) layers since each FC layer also includes a kernel
//! matrix like the CONV layer. Therefore, the proposed SE scheme can be
//! applied to other deep neural networks, e.g., recurrent neural
//! networks, that are composed of many FC layers." This module provides
//! the FC-only network that exercises that claim end to end (plans,
//! traffic, simulation and the substitute attack all work on it).

use seal_tensor::rng::Rng;
use seal_tensor::Shape;

use crate::layers::{Flatten, Linear, ReLU};
use crate::{NetworkTopology, NnError, Sequential};

/// Configuration of a fully connected classifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlpConfig {
    /// Flattened input features.
    pub input_features: usize,
    /// Hidden layer widths, in order.
    pub hidden: Vec<usize>,
    /// Output classes.
    pub num_classes: usize,
}

impl MlpConfig {
    /// A deep-narrow MLP comparable to an unrolled RNN cell stack: eight
    /// 256-wide FC layers (the shape the paper's RNN remark points at).
    pub fn rnn_like() -> Self {
        MlpConfig {
            input_features: 3 * 32 * 32,
            hidden: vec![256; 8],
            num_classes: 10,
        }
    }

    /// A tiny trainable variant for CPU experiments.
    pub fn reduced() -> Self {
        MlpConfig {
            input_features: 3 * 8 * 8,
            hidden: vec![32, 32, 32],
            num_classes: 10,
        }
    }
}

/// Builds a trainable MLP: `flatten → (linear → relu)* → linear`.
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] for empty geometry.
pub fn mlp(rng: &mut impl Rng, config: &MlpConfig) -> Result<Sequential, NnError> {
    if config.input_features == 0 || config.num_classes == 0 {
        return Err(NnError::InvalidConfig {
            reason: "mlp needs positive input features and classes".into(),
        });
    }
    let mut model = Sequential::new("mlp");
    model.push(Box::new(Flatten::new("flatten")));
    let mut prev = config.input_features;
    for (i, &width) in config.hidden.iter().enumerate() {
        model.push(Box::new(Linear::new(
            rng,
            format!("fc{}", i + 1),
            prev,
            width,
        )?));
        model.push(Box::new(ReLU::new(format!("relu{}", i + 1))));
        prev = width;
    }
    model.push(Box::new(Linear::new(
        rng,
        format!("fc{}", config.hidden.len() + 1),
        prev,
        config.num_classes,
    )?));
    Ok(model)
}

/// The shape-only topology of the same MLP (input is expressed as a
/// `1×C×H×W` image for uniformity with the CNN topologies; `C·H·W` must
/// equal `input_features`).
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] if the image shape disagrees with
/// the config.
pub fn mlp_topology(config: &MlpConfig, input: Shape) -> Result<NetworkTopology, NnError> {
    let features: usize = input.dims()[1..].iter().product();
    if features != config.input_features {
        return Err(NnError::InvalidConfig {
            reason: format!(
                "input shape {input} has {features} features, config expects {}",
                config.input_features
            ),
        });
    }
    let mut b = NetworkTopology::build("mlp", input)?;
    for (i, &width) in config.hidden.iter().enumerate() {
        b = b.fc(format!("fc{}", i + 1), width)?;
    }
    b = b.fc(format!("fc{}", config.hidden.len() + 1), config.num_classes)?;
    Ok(b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_tensor::rng::rngs::StdRng;
    use seal_tensor::rng::SeedableRng;
    use seal_tensor::Tensor;

    #[test]
    fn mlp_runs_forward_and_backward() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = mlp(&mut rng, &MlpConfig::reduced()).unwrap();
        let x = Tensor::zeros(Shape::nchw(2, 3, 8, 8));
        let y = m.forward(&x, true).unwrap();
        assert_eq!(y.shape().dims(), &[2, 10]);
        let gi = m.backward(&Tensor::ones(y.shape().clone())).unwrap();
        assert_eq!(gi.shape(), x.shape());
    }

    #[test]
    fn mlp_exposes_fc_kernel_matrices() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = mlp(&mut rng, &MlpConfig::reduced()).unwrap();
        let mats = m.kernel_matrices();
        assert_eq!(mats.len(), 4, "3 hidden + 1 output FC layers");
        assert!(mats.iter().all(|k| k.kind == crate::LayerKind::Fc));
        assert_eq!(mats[0].rows, 3 * 8 * 8);
    }

    #[test]
    fn topology_matches_model_geometry() {
        let cfg = MlpConfig::rnn_like();
        let topo = mlp_topology(&cfg, Shape::nchw(1, 3, 32, 32)).unwrap();
        assert_eq!(topo.fc_indices().len(), 9);
        assert_eq!(topo.conv_indices().len(), 0);
        // First layer weight bytes: 3072 × 256 × 4.
        assert_eq!(topo.layers()[0].weight_bytes(), 3072 * 256 * 4);
    }

    #[test]
    fn topology_rejects_mismatched_input() {
        let cfg = MlpConfig::reduced();
        assert!(mlp_topology(&cfg, Shape::nchw(1, 3, 32, 32)).is_err());
    }
}
