//! ResNet-18 / ResNet-34 (He et al.) in CIFAR-10 form: a 3×3 stem
//! convolution, four stages of basic blocks, global average pooling and one
//! FC classifier — the paper's "17/18" and "33/34" CONV layer counts.

use seal_tensor::ops::{Conv2dGeometry, PoolGeometry};
use seal_tensor::rng::Rng;
use seal_tensor::Shape;

use crate::layers::{AvgPool2d, BatchNorm2d, Conv2d, Flatten, Linear, ReLU, ResidualBlock};
use crate::{Layer, NetworkTopology, NnError, Sequential};

/// Blocks per stage for the two depths.
const RESNET18_BLOCKS: [usize; 4] = [2, 2, 2, 2];
const RESNET34_BLOCKS: [usize; 4] = [3, 4, 6, 3];

/// Configuration for a trainable ResNet instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResNetConfig {
    /// 18 or 34.
    pub depth: usize,
    /// Channel width of the first stage (64 for the full model).
    pub base_width: usize,
    /// Input spatial size (CIFAR-10: 32).
    pub input_hw: usize,
    /// Input channels.
    pub input_channels: usize,
    /// Number of output classes.
    pub num_classes: usize,
    /// Include batch normalisation (full model: yes; can be disabled for
    /// the smallest CPU experiments).
    pub batch_norm: bool,
}

impl ResNetConfig {
    /// Full-size CIFAR-10 ResNet of the given depth (18 or 34).
    pub fn full(depth: usize) -> Self {
        ResNetConfig {
            depth,
            base_width: 64,
            input_hw: 32,
            input_channels: 3,
            num_classes: 10,
            batch_norm: true,
        }
    }

    /// Width-reduced variant for CPU-scale training.
    pub fn reduced(depth: usize) -> Self {
        ResNetConfig {
            depth,
            base_width: 6,
            input_hw: 16,
            input_channels: 3,
            num_classes: 10,
            batch_norm: true,
        }
    }

    fn blocks(&self) -> Result<[usize; 4], NnError> {
        match self.depth {
            18 => Ok(RESNET18_BLOCKS),
            34 => Ok(RESNET34_BLOCKS),
            d => Err(NnError::InvalidConfig {
                reason: format!("resnet depth {d} unsupported (18 or 34)"),
            }),
        }
    }
}

/// Builds a trainable ResNet-18 or ResNet-34.
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] for unsupported depth or geometry.
pub fn resnet(rng: &mut impl Rng, config: &ResNetConfig) -> Result<Sequential, NnError> {
    if config.base_width == 0 || config.input_hw < 8 {
        return Err(NnError::InvalidConfig {
            reason: "resnet needs positive width and input ≥ 8".into(),
        });
    }
    let blocks = config.blocks()?;
    let name = format!("resnet{}", config.depth);
    let mut model = Sequential::new(name);

    let b = config.base_width;
    let widths = [b, b * 2, b * 4, b * 8];

    // Stem: conv3-64 (CIFAR form: stride 1, no max-pool).
    model.push(Box::new(Conv2d::new(
        rng,
        "conv1",
        config.input_channels,
        widths[0],
        Conv2dGeometry::same3x3(),
    )?));
    if config.batch_norm {
        model.push(Box::new(BatchNorm2d::new("bn1", widths[0])?));
    }
    model.push(Box::new(ReLU::new("relu1")));

    let mut in_ch = widths[0];
    let mut hw = config.input_hw;
    for (stage, (&width, &nblocks)) in widths.iter().zip(blocks.iter()).enumerate() {
        for blk in 0..nblocks {
            let stride = if stage > 0 && blk == 0 { 2 } else { 1 };
            let bname = format!("stage{}_block{}", stage + 1, blk + 1);
            let mut main: Vec<Box<dyn Layer>> = Vec::new();
            main.push(Box::new(Conv2d::new(
                rng,
                format!("{bname}_conv1"),
                in_ch,
                width,
                Conv2dGeometry {
                    kernel: 3,
                    stride,
                    padding: 1,
                },
            )?));
            if config.batch_norm {
                main.push(Box::new(BatchNorm2d::new(format!("{bname}_bn1"), width)?));
            }
            main.push(Box::new(ReLU::new(format!("{bname}_relu"))));
            main.push(Box::new(Conv2d::new(
                rng,
                format!("{bname}_conv2"),
                width,
                width,
                Conv2dGeometry::same3x3(),
            )?));
            if config.batch_norm {
                main.push(Box::new(BatchNorm2d::new(format!("{bname}_bn2"), width)?));
            }
            let shortcut: Vec<Box<dyn Layer>> = if stride != 1 || in_ch != width {
                let mut sc: Vec<Box<dyn Layer>> = vec![Box::new(Conv2d::new(
                    rng,
                    format!("{bname}_proj"),
                    in_ch,
                    width,
                    Conv2dGeometry {
                        kernel: 1,
                        stride,
                        padding: 0,
                    },
                )?)];
                if config.batch_norm {
                    sc.push(Box::new(BatchNorm2d::new(format!("{bname}_bnp"), width)?));
                }
                sc
            } else {
                Vec::new()
            };
            model.push(Box::new(ResidualBlock::new(bname, main, shortcut)?));
            in_ch = width;
            if stride == 2 {
                hw /= 2;
            }
        }
    }

    // Global average pool to 1×1, flatten, classify.
    model.push(Box::new(AvgPool2d::new(
        "gap",
        PoolGeometry {
            window: hw,
            stride: hw,
        },
    )));
    model.push(Box::new(Flatten::new("flatten")));
    model.push(Box::new(Linear::new(rng, "fc", in_ch, config.num_classes)?));
    Ok(model)
}

#[expect(clippy::expect_used, reason = "static geometry is valid")]
fn resnet_topology(depth: usize, blocks: [usize; 4]) -> NetworkTopology {
    let mut b = NetworkTopology::build(format!("resnet{depth}"), Shape::nchw(1, 3, 32, 32))
        .expect("static geometry is valid");
    b = b
        .conv("conv1", 64, 3, 1, 1)
        .expect("static geometry is valid");
    let widths = [64usize, 128, 256, 512];
    let mut in_ch = 64;
    for (stage, (&width, &nblocks)) in widths.iter().zip(blocks.iter()).enumerate() {
        for blk in 0..nblocks {
            let stride = if stage > 0 && blk == 0 { 2 } else { 1 };
            let bname = format!("stage{}_block{}", stage + 1, blk + 1);
            b = b
                .conv(format!("{bname}_conv1"), width, 3, stride, 1)
                .expect("static geometry is valid");
            b = b
                .conv(format!("{bname}_conv2"), width, 3, 1, 1)
                .expect("static geometry is valid");
            let _ = in_ch;
            in_ch = width;
        }
    }
    // Global average pool then classifier.
    let hw = b.current_shape().dim(2);
    b = b.pool("gap", hw, hw).expect("static geometry is valid");
    b = b.fc("fc", 10).expect("static geometry is valid");
    b.finish()
}

/// The full-size ResNet-18 topology (17 CONV + 1 FC).
pub fn resnet18_topology() -> NetworkTopology {
    resnet_topology(18, RESNET18_BLOCKS)
}

/// The full-size ResNet-34 topology (33 CONV + 1 FC).
pub fn resnet34_topology() -> NetworkTopology {
    resnet_topology(34, RESNET34_BLOCKS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_tensor::rng::rngs::StdRng;
    use seal_tensor::rng::SeedableRng;
    use seal_tensor::Tensor;

    #[test]
    fn resnet18_topology_has_paper_counts() {
        let t = resnet18_topology();
        assert_eq!(t.conv_indices().len(), 17, "17/18 CONV layers");
        assert_eq!(t.fc_indices().len(), 1);
        let params = t.total_weight_bytes() / 4;
        // CIFAR ResNet-18 ≈ 11 M params (projections excluded from the
        // paper's count; ours counts only the 17+1 named layers).
        assert!(params > 10_000_000 && params < 12_500_000, "{params}");
    }

    #[test]
    fn resnet34_topology_has_paper_counts() {
        let t = resnet34_topology();
        assert_eq!(t.conv_indices().len(), 33, "33/34 CONV layers");
        assert_eq!(t.fc_indices().len(), 1);
    }

    #[test]
    fn reduced_resnet18_runs_forward_and_backward() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = resnet(&mut rng, &ResNetConfig::reduced(18)).unwrap();
        let x = Tensor::zeros(Shape::nchw(2, 3, 16, 16));
        let y = m.forward(&x, true).unwrap();
        assert_eq!(y.shape().dims(), &[2, 10]);
        let gi = m.backward(&Tensor::ones(y.shape().clone())).unwrap();
        assert_eq!(gi.shape(), x.shape());
    }

    #[test]
    fn reduced_resnet34_runs_forward() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut cfg = ResNetConfig::reduced(34);
        cfg.base_width = 4;
        let mut m = resnet(&mut rng, &cfg).unwrap();
        let x = Tensor::zeros(Shape::nchw(1, 3, 16, 16));
        let y = m.forward(&x, false).unwrap();
        assert_eq!(y.shape().dims(), &[1, 10]);
    }

    #[test]
    fn unsupported_depth_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(resnet(&mut rng, &ResNetConfig::full(50)).is_err());
    }

    #[test]
    fn downsampling_halves_spatial_three_times() {
        let t = resnet18_topology();
        // Input 32×32; stages 2–4 downsample → final conv fmaps are 4×4.
        let last_conv = *t.conv_indices().last().unwrap();
        assert_eq!(t.layers()[last_conv].ofmap.dims(), &[1, 512, 4, 4]);
    }
}
