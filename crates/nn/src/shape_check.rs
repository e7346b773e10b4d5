//! Static shape inference over model layer chains.
//!
//! Validates that every layer of a [`Sequential`] accepts the shape its
//! predecessor produces — Conv2d/Linear/Pool/Flatten chains are checked at
//! construction time, *without* allocating activations or running a
//! forward pass. The model zoo is checked here in the tests below: a
//! model that fails would only blow up later, deep inside a training loop
//! or a traffic calculation.
//!
//! Diagnostics name **both** ends of a broken edge (the layer that rejected
//! the shape and the producer that emitted it) so mismatches in deep stacks
//! are attributable at a glance.

use seal_tensor::Shape;

use crate::{LayerKind, Sequential};

/// One resolved step of the shape chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeStep {
    /// Layer name.
    pub layer: String,
    /// Layer classification.
    pub kind: LayerKind,
    /// Shape entering the layer.
    pub input: Shape,
    /// Shape leaving the layer.
    pub output: Shape,
}

/// The fully inferred shape chain of a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeReport {
    /// Model input shape the chain was inferred from.
    pub input: Shape,
    /// Per-layer steps in execution order.
    pub steps: Vec<ShapeStep>,
}

impl ShapeReport {
    /// The model's final output shape (the input shape for empty models).
    pub fn output(&self) -> &Shape {
        self.steps.last().map_or(&self.input, |s| &s.output)
    }
}

/// A layer rejected the shape produced by its predecessor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeMismatch {
    /// The layer that rejected its input shape.
    pub layer: String,
    /// Classification of the rejecting layer.
    pub kind: LayerKind,
    /// The upstream layer that produced the offending shape (`None` when
    /// the model input itself is incompatible with the first layer).
    pub producer: Option<String>,
    /// The offending shape.
    pub shape: Shape,
    /// The underlying layer error.
    pub reason: String,
}

impl std::fmt::Display for ShapeMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.producer {
            Some(p) => write!(
                f,
                "layer `{}` ({:?}) cannot accept shape {:?} produced by `{p}`: {}",
                self.layer,
                self.kind,
                self.shape.dims(),
                self.reason
            ),
            None => write!(
                f,
                "layer `{}` ({:?}) cannot accept the model input shape {:?}: {}",
                self.layer,
                self.kind,
                self.shape.dims(),
                self.reason
            ),
        }
    }
}

impl std::error::Error for ShapeMismatch {}

/// Infers the shape chain of `model` from `input`, failing on the first
/// incompatible edge.
///
/// # Errors
///
/// Returns a [`ShapeMismatch`] naming the rejecting layer and the upstream
/// layer that produced the shape.
pub fn check_model(model: &Sequential, input: &Shape) -> Result<ShapeReport, ShapeMismatch> {
    let mut steps = Vec::with_capacity(model.layers().len());
    let mut shape = input.clone();
    let mut producer: Option<String> = None;
    for layer in model.layers() {
        let output = layer.output_shape(&shape).map_err(|e| ShapeMismatch {
            layer: layer.name().to_string(),
            kind: layer.kind(),
            producer: producer.clone(),
            shape: shape.clone(),
            reason: e.to_string(),
        })?;
        steps.push(ShapeStep {
            layer: layer.name().to_string(),
            kind: layer.kind(),
            input: shape,
            output: output.clone(),
        });
        producer = Some(layer.name().to_string());
        shape = output;
    }
    Ok(ShapeReport {
        input: input.clone(),
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Flatten, Linear, MaxPool2d, ReLU};
    use seal_tensor::ops::{Conv2dGeometry, PoolGeometry};
    use seal_tensor::rng::rngs::StdRng;
    use seal_tensor::rng::SeedableRng;

    fn conv(rng: &mut StdRng, name: &str, in_ch: usize, out_ch: usize) -> Box<Conv2d> {
        Box::new(Conv2d::new(rng, name, in_ch, out_ch, Conv2dGeometry::same3x3()).unwrap())
    }

    #[test]
    fn well_formed_chain_reports_every_step() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = Sequential::new("ok")
            .with(conv(&mut rng, "conv1", 3, 8))
            .with(Box::new(ReLU::new("relu1")))
            .with(Box::new(MaxPool2d::new("pool1", PoolGeometry::halving())))
            .with(Box::new(Flatten::new("flatten")))
            .with(Box::new(
                Linear::new(&mut rng, "fc", 8 * 8 * 8, 10).unwrap(),
            ));
        let report = check_model(&model, &Shape::nchw(1, 3, 16, 16)).unwrap();
        assert_eq!(report.steps.len(), 5);
        assert_eq!(report.output().dims(), &[1, 10]);
        assert_eq!(report.steps[3].output.dims(), &[1, 8 * 8 * 8]);
    }

    #[test]
    fn mismatched_conv_to_linear_names_both_layers() {
        let mut rng = StdRng::seed_from_u64(2);
        // conv emits [1, 8, 16, 16]; fc expects flattened 64 features.
        let model = Sequential::new("bad")
            .with(conv(&mut rng, "conv1", 3, 8))
            .with(Box::new(Flatten::new("flatten")))
            .with(Box::new(Linear::new(&mut rng, "fc1", 64, 10).unwrap()));
        let err = check_model(&model, &Shape::nchw(1, 3, 16, 16)).unwrap_err();
        assert_eq!(err.layer, "fc1");
        assert_eq!(err.producer.as_deref(), Some("flatten"));
        let msg = err.to_string();
        assert!(msg.contains("fc1") && msg.contains("flatten"), "{msg}");
    }

    #[test]
    fn the_reduced_model_zoo_shape_checks() {
        use crate::models::{resnet, vgg16, ResNetConfig, VggConfig};
        let mut rng = StdRng::seed_from_u64(0xA11A);
        let vcfg = VggConfig::reduced();
        let mut zoo = vec![(
            vgg16(&mut rng, &vcfg).unwrap(),
            Shape::nchw(1, vcfg.input_channels, vcfg.input_hw, vcfg.input_hw),
        )];
        for depth in [18, 34] {
            let rcfg = ResNetConfig::reduced(depth);
            zoo.push((
                resnet(&mut rng, &rcfg).unwrap(),
                Shape::nchw(1, rcfg.input_channels, rcfg.input_hw, rcfg.input_hw),
            ));
        }
        for (model, input) in &zoo {
            if let Err(e) = check_model(model, input) {
                panic!("{}: {e}", model.name());
            }
        }
    }

    #[test]
    fn first_layer_mismatch_blames_model_input() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = Sequential::new("bad").with(conv(&mut rng, "conv1", 3, 8));
        let err = check_model(&model, &Shape::nchw(1, 4, 16, 16)).unwrap_err();
        assert_eq!(err.layer, "conv1");
        assert!(err.producer.is_none());
        assert!(err.to_string().contains("model input"), "{err}");
    }

    #[test]
    fn empty_model_is_identity() {
        let report = check_model(&Sequential::new("id"), &Shape::vector(7)).unwrap();
        assert!(report.steps.is_empty());
        assert_eq!(report.output().dims(), &[7]);
    }
}
