//! VGG-16 (Simonyan & Zisserman) in its CIFAR-10 form: 13 CONV + 3 FC
//! layers — the paper's "13/16" convolutional layer count.

use seal_tensor::ops::{Conv2dGeometry, PoolGeometry};
use seal_tensor::rng::Rng;
use seal_tensor::Shape;

use crate::layers::{BatchNorm2d, Conv2d, Dropout, Flatten, Linear, MaxPool2d, ReLU};
use crate::{NetworkTopology, NnError, Sequential};

/// Per-stage output channels of full VGG-16 and the conv count per stage.
const VGG16_STAGES: [(usize, usize); 5] = [(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)];

/// Configuration for a trainable VGG-16 instance.
#[derive(Debug, Clone, PartialEq)]
pub struct VggConfig {
    /// Channel width of the first stage (64 for the full model); later
    /// stages scale as ×2, ×4, ×8, ×8.
    pub base_width: usize,
    /// Input spatial size (CIFAR-10: 32).
    pub input_hw: usize,
    /// Input channels (3 for RGB).
    pub input_channels: usize,
    /// Hidden width of the first two FC layers.
    pub fc_width: usize,
    /// Number of output classes.
    pub num_classes: usize,
    /// Insert batch normalisation after every convolution (the VGG-BN
    /// variant). The full model follows the original paper (no BN); the
    /// reduced CPU models enable it for trainability at tiny widths.
    pub batch_norm: bool,
    /// Dropout probability between the FC layers (0.5 in the original
    /// VGG; 0 disables, used by the reduced models whose data is scarce).
    pub dropout: f32,
}

impl VggConfig {
    /// The full-size CIFAR-10 VGG-16.
    pub fn full() -> Self {
        VggConfig {
            base_width: 64,
            input_hw: 32,
            input_channels: 3,
            fc_width: 512,
            num_classes: 10,
            batch_norm: false,
            dropout: 0.5,
        }
    }

    /// A width-reduced variant for CPU-scale training in the security
    /// experiments (same 16-layer topology; pooling stops once the feature
    /// map reaches 1×1).
    pub fn reduced() -> Self {
        VggConfig {
            base_width: 6,
            input_hw: 16,
            input_channels: 3,
            fc_width: 48,
            num_classes: 10,
            batch_norm: true,
            dropout: 0.0,
        }
    }

    fn stage_widths(&self) -> [usize; 5] {
        let b = self.base_width;
        [b, b * 2, b * 4, b * 8, b * 8]
    }
}

impl Default for VggConfig {
    fn default() -> Self {
        VggConfig::full()
    }
}

/// Builds a trainable VGG-16 with the given configuration.
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] for impossible geometry (e.g. zero
/// width).
pub fn vgg16(rng: &mut impl Rng, config: &VggConfig) -> Result<Sequential, NnError> {
    if config.base_width == 0 || config.input_hw == 0 {
        return Err(NnError::InvalidConfig {
            reason: "vgg16 needs positive width and input size".into(),
        });
    }
    let mut model = Sequential::new("vgg16");
    let mut in_ch = config.input_channels;
    let mut hw = config.input_hw;
    for (stage, (&width, &(_, convs))) in config
        .stage_widths()
        .iter()
        .zip(VGG16_STAGES.iter())
        .enumerate()
    {
        for c in 0..convs {
            let name = format!("conv{}_{}", stage + 1, c + 1);
            model.push(Box::new(Conv2d::new(
                rng,
                &name,
                in_ch,
                width,
                Conv2dGeometry::same3x3(),
            )?));
            if config.batch_norm {
                model.push(Box::new(BatchNorm2d::new(
                    format!("bn{}_{}", stage + 1, c + 1),
                    width,
                )?));
            }
            model.push(Box::new(ReLU::new(format!("relu{}_{}", stage + 1, c + 1))));
            in_ch = width;
        }
        // Pool while the feature map can still halve; reduced inputs skip
        // the final pools (documented substitution — same layer count of
        // weight layers, which is what the SE scheme cares about).
        if hw >= 2 {
            model.push(Box::new(MaxPool2d::new(
                format!("pool{}", stage + 1),
                PoolGeometry::halving(),
            )));
            hw /= 2;
        }
    }
    model.push(Box::new(Flatten::new("flatten")));
    let flat = in_ch * hw * hw;
    model.push(Box::new(Linear::new(rng, "fc1", flat, config.fc_width)?));
    model.push(Box::new(ReLU::new("relu_fc1")));
    if config.dropout > 0.0 {
        model.push(Box::new(Dropout::new("drop1", config.dropout, rng.gen())?));
    }
    model.push(Box::new(Linear::new(
        rng,
        "fc2",
        config.fc_width,
        config.fc_width,
    )?));
    model.push(Box::new(ReLU::new("relu_fc2")));
    if config.dropout > 0.0 {
        model.push(Box::new(Dropout::new("drop2", config.dropout, rng.gen())?));
    }
    model.push(Box::new(Linear::new(
        rng,
        "fc3",
        config.fc_width,
        config.num_classes,
    )?));
    Ok(model)
}

/// The full-size VGG-16 topology on 3×32×32 inputs: 13 CONV, 5 POOL, 3 FC.
///
/// # Panics
///
/// Never panics for the fixed full-size geometry.
#[expect(clippy::expect_used, reason = "static geometry is valid")]
pub fn vgg16_topology() -> NetworkTopology {
    let mut b = NetworkTopology::build("vgg16", Shape::nchw(1, 3, 32, 32))
        .expect("static geometry is valid");
    for (stage, &(width, convs)) in VGG16_STAGES.iter().enumerate() {
        for c in 0..convs {
            b = b
                .conv(format!("conv{}_{}", stage + 1, c + 1), width, 3, 1, 1)
                .expect("static geometry is valid");
        }
        b = b
            .pool(format!("pool{}", stage + 1), 2, 2)
            .expect("static geometry is valid");
    }
    b = b.fc("fc1", 512).expect("static geometry is valid");
    b = b.fc("fc2", 512).expect("static geometry is valid");
    b = b.fc("fc3", 10).expect("static geometry is valid");
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_tensor::rng::rngs::StdRng;
    use seal_tensor::rng::SeedableRng;
    use seal_tensor::Tensor;

    #[test]
    fn full_topology_has_paper_layer_counts() {
        let t = vgg16_topology();
        assert_eq!(t.conv_indices().len(), 13, "13/16 CONV layers");
        assert_eq!(t.fc_indices().len(), 3);
        assert_eq!(t.pool_indices().len(), 5);
        // Weight count of CIFAR VGG-16 ≈ 15 M params.
        let params = t.total_weight_bytes() / 4;
        assert!(params > 14_000_000 && params < 16_000_000, "{params}");
    }

    #[test]
    fn conv_stage_channel_progression() {
        let t = vgg16_topology();
        let convs = t.conv_indices();
        assert_eq!(t.layers()[convs[0]].out_channels(), 64);
        assert_eq!(t.layers()[convs[2]].out_channels(), 128);
        assert_eq!(t.layers()[convs[4]].out_channels(), 256);
        assert_eq!(t.layers()[convs[7]].out_channels(), 512);
        assert_eq!(t.layers()[convs[12]].out_channels(), 512);
    }

    #[test]
    fn reduced_model_runs_forward() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = vgg16(&mut rng, &VggConfig::reduced()).unwrap();
        let x = Tensor::zeros(Shape::nchw(2, 3, 16, 16));
        let y = m.forward(&x, false).unwrap();
        assert_eq!(y.shape().dims(), &[2, 10]);
        // 13 conv + 3 fc = 16 weight layers × 2 params.
        let weight_layers = m
            .layers()
            .iter()
            .filter(|l| matches!(l.kind(), crate::LayerKind::Conv | crate::LayerKind::Fc))
            .count();
        assert_eq!(weight_layers, 16);
    }

    #[test]
    fn full_model_matches_topology_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = vgg16(&mut rng, &VggConfig::full()).unwrap();
        let out = m.output_shape(&Shape::nchw(1, 3, 32, 32)).unwrap();
        assert_eq!(out.dims(), &[1, 10]);
    }

    #[test]
    fn zero_width_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut cfg = VggConfig::reduced();
        cfg.base_width = 0;
        assert!(vgg16(&mut rng, &cfg).is_err());
    }
}
