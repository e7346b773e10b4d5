use seal_tensor::{Shape, Tensor};

use crate::{Layer, LayerKind, NnError, Param};

/// A ResNet basic block: `y = relu(F(x) + S(x))`, where `F` is the main
/// branch (conv-bn-relu-conv-bn) and `S` the shortcut (identity, or a
/// strided 1×1 projection when shapes change).
///
/// The block owns its sub-layers; its parameters are the concatenation of
/// the branches' parameters, so optimizers and the SEAL importance scan see
/// through the container.
#[derive(Debug)]
pub struct ResidualBlock {
    name: String,
    main: Vec<Box<dyn Layer>>,
    shortcut: Vec<Box<dyn Layer>>,
    relu_mask: Option<Vec<bool>>,
}

impl ResidualBlock {
    /// Creates a residual block from a main branch and a (possibly empty =
    /// identity) shortcut branch.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the main branch is empty.
    pub fn new(
        name: impl Into<String>,
        main: Vec<Box<dyn Layer>>,
        shortcut: Vec<Box<dyn Layer>>,
    ) -> Result<Self, NnError> {
        if main.is_empty() {
            return Err(NnError::InvalidConfig {
                reason: "residual block needs a non-empty main branch".into(),
            });
        }
        Ok(ResidualBlock {
            name: name.into(),
            main,
            shortcut,
            relu_mask: None,
        })
    }

    /// The layers of the main branch (read-only).
    pub fn main_branch(&self) -> &[Box<dyn Layer>] {
        &self.main
    }

    /// The layers of the shortcut branch (empty = identity).
    pub fn shortcut_branch(&self) -> &[Box<dyn Layer>] {
        &self.shortcut
    }

    fn run_branch(
        layers: &mut [Box<dyn Layer>],
        input: &Tensor,
        train: bool,
    ) -> Result<Tensor, NnError> {
        let mut x = input.clone();
        for layer in layers {
            x = layer.forward(&x, train)?;
        }
        Ok(x)
    }

    fn backprop_branch(layers: &mut [Box<dyn Layer>], grad: &Tensor) -> Result<Tensor, NnError> {
        let mut g = grad.clone();
        for layer in layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }
}

impl Layer for ResidualBlock {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Block
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError> {
        let f = Self::run_branch(&mut self.main, input, train)?;
        let s = if self.shortcut.is_empty() {
            input.clone()
        } else {
            Self::run_branch(&mut self.shortcut, input, train)?
        };
        let pre = f.add(&s)?;
        self.relu_mask = Some(pre.as_slice().iter().map(|v| *v > 0.0).collect());
        Ok(pre.map(|v| v.max(0.0)))
    }

    fn forward_infer(&self, input: &Tensor) -> Result<Tensor, NnError> {
        let mut f = input.clone();
        for layer in &self.main {
            f = layer.forward_infer(&f)?;
        }
        let s = if self.shortcut.is_empty() {
            input.clone()
        } else {
            let mut s = input.clone();
            for layer in &self.shortcut {
                s = layer.forward_infer(&s)?;
            }
            s
        };
        Ok(f.add(&s)?.map(|v| v.max(0.0)))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let mask = self
            .relu_mask
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: self.name.clone(),
            })?;
        let gated: Vec<f32> = grad_output
            .as_slice()
            .iter()
            .zip(mask)
            .map(|(g, m)| if *m { *g } else { 0.0 })
            .collect();
        let gated = Tensor::from_vec(gated, grad_output.shape().clone())?;

        let g_main = Self::backprop_branch(&mut self.main, &gated)?;
        let g_short = if self.shortcut.is_empty() {
            gated
        } else {
            Self::backprop_branch(&mut self.shortcut, &gated)?
        };
        Ok(g_main.add(&g_short)?)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.main
            .iter_mut()
            .chain(self.shortcut.iter_mut())
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn params(&self) -> Vec<&Param> {
        self.main
            .iter()
            .chain(self.shortcut.iter())
            .flat_map(|l| l.params())
            .collect()
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape, NnError> {
        let mut s = input.clone();
        for layer in &self.main {
            s = layer.output_shape(&s)?;
        }
        Ok(s)
    }

    fn kernel_matrices(&self) -> Vec<crate::layer::KernelMatrix> {
        self.main
            .iter()
            .chain(self.shortcut.iter())
            .flat_map(|l| l.kernel_matrices())
            .collect()
    }

    fn kernel_weights_mut(&mut self) -> Vec<(String, &mut Param)> {
        self.main
            .iter_mut()
            .chain(self.shortcut.iter_mut())
            .flat_map(|l| l.kernel_weights_mut())
            .collect()
    }

    fn norm_params(&self) -> Vec<&Param> {
        self.main
            .iter()
            .chain(self.shortcut.iter())
            .flat_map(|l| l.norm_params())
            .collect()
    }

    fn norm_params_mut(&mut self) -> Vec<&mut Param> {
        self.main
            .iter_mut()
            .chain(self.shortcut.iter_mut())
            .flat_map(|l| l.norm_params_mut())
            .collect()
    }

    fn export_state(&self) -> Vec<f32> {
        self.main
            .iter()
            .chain(self.shortcut.iter())
            .flat_map(|l| l.export_state())
            .collect()
    }

    fn import_state(&mut self, state: &[f32]) -> Result<(), NnError> {
        let mut off = 0usize;
        for layer in self.main.iter_mut().chain(self.shortcut.iter_mut()) {
            let need = layer.export_state().len();
            if off + need > state.len() {
                return Err(NnError::InvalidConfig {
                    reason: "residual block state too short".into(),
                });
            }
            layer.import_state(&state[off..off + need])?;
            off += need;
        }
        if off != state.len() {
            return Err(NnError::InvalidConfig {
                reason: "residual block state too long".into(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{BatchNorm2d, Conv2d, ReLU};
    use seal_tensor::ops::Conv2dGeometry;
    use seal_tensor::rng::rngs::StdRng;
    use seal_tensor::rng::SeedableRng;

    fn identity_block(rng: &mut StdRng, ch: usize) -> ResidualBlock {
        let main: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::new(rng, "c1", ch, ch, Conv2dGeometry::same3x3()).unwrap()),
            Box::new(BatchNorm2d::new("b1", ch).unwrap()),
            Box::new(ReLU::new("r1")),
            Box::new(Conv2d::new(rng, "c2", ch, ch, Conv2dGeometry::same3x3()).unwrap()),
            Box::new(BatchNorm2d::new("b2", ch).unwrap()),
        ];
        ResidualBlock::new("block", main, Vec::new()).unwrap()
    }

    #[test]
    fn identity_shortcut_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut block = identity_block(&mut rng, 4);
        let x = Tensor::ones(Shape::nchw(2, 4, 6, 6));
        let y = block.forward(&x, true).unwrap();
        assert_eq!(y.shape(), x.shape());
        assert_eq!(&block.output_shape(x.shape()).unwrap(), x.shape());
    }

    #[test]
    fn backward_flows_through_both_branches() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut block = identity_block(&mut rng, 2);
        let x = seal_tensor::uniform(&mut rng, Shape::nchw(1, 2, 4, 4), -1.0, 1.0);
        let y = block.forward(&x, true).unwrap();
        let gi = block.backward(&Tensor::ones(y.shape().clone())).unwrap();
        assert_eq!(gi.shape(), x.shape());
        // Identity path guarantees gradient reaches the input even if the
        // conv weights were zero.
        assert!(gi.l1_norm() > 0.0);
    }

    #[test]
    fn params_include_both_branches() {
        let mut rng = StdRng::seed_from_u64(3);
        let shortcut: Vec<Box<dyn Layer>> = vec![Box::new(
            Conv2d::new(
                &mut rng,
                "proj",
                2,
                4,
                Conv2dGeometry {
                    kernel: 1,
                    stride: 2,
                    padding: 0,
                },
            )
            .unwrap(),
        )];
        let main: Vec<Box<dyn Layer>> = vec![Box::new(
            Conv2d::new(
                &mut rng,
                "c1",
                2,
                4,
                Conv2dGeometry {
                    kernel: 3,
                    stride: 2,
                    padding: 1,
                },
            )
            .unwrap(),
        )];
        let mut block = ResidualBlock::new("down", main, shortcut).unwrap();
        // conv weights+bias per branch = 2 params each.
        assert_eq!(block.params_mut().len(), 4);
        let x = Tensor::ones(Shape::nchw(1, 2, 8, 8));
        let y = block.forward(&x, true).unwrap();
        assert_eq!(y.shape().dims(), &[1, 4, 4, 4]);
    }

    #[test]
    fn empty_main_branch_rejected() {
        assert!(ResidualBlock::new("bad", Vec::new(), Vec::new()).is_err());
    }
}
