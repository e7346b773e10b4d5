use seal_tensor::ops::{
    avg_pool2d, avg_pool2d_backward, max_pool2d, max_pool2d_backward, max_pool2d_into, PoolGeometry,
};
use seal_tensor::{Shape, Tensor};

use crate::{Layer, LayerKind, NnError};

fn pool_output_shape(input: &Shape, geom: &PoolGeometry) -> Result<Shape, NnError> {
    if input.rank() != 4 {
        return Err(NnError::InvalidConfig {
            reason: format!("pooling expects NCHW input, got {input}"),
        });
    }
    let oh = geom
        .output_size(input.dim(2))
        .ok_or_else(|| NnError::InvalidConfig {
            reason: "pool window does not fit input height".into(),
        })?;
    let ow = geom
        .output_size(input.dim(3))
        .ok_or_else(|| NnError::InvalidConfig {
            reason: "pool window does not fit input width".into(),
        })?;
    Ok(Shape::nchw(input.dim(0), input.dim(1), oh, ow))
}

/// Max pooling layer.
#[derive(Debug)]
pub struct MaxPool2d {
    name: String,
    geom: PoolGeometry,
    cached: Option<(Shape, Vec<usize>)>,
}

impl MaxPool2d {
    /// Creates a max-pool layer.
    pub fn new(name: impl Into<String>, geom: PoolGeometry) -> Self {
        MaxPool2d {
            name: name.into(),
            geom,
            cached: None,
        }
    }

    /// The pooling geometry.
    pub fn geometry(&self) -> &PoolGeometry {
        &self.geom
    }
}

impl Layer for MaxPool2d {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Pool
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor, NnError> {
        let (out, argmax) = max_pool2d(input, &self.geom)?;
        self.cached = Some((input.shape().clone(), argmax));
        Ok(out)
    }

    fn forward_infer(&self, input: &Tensor) -> Result<Tensor, NnError> {
        let shape = input.shape();
        let mut out = Tensor::zeros(pool_output_shape(shape, &self.geom)?);
        let (n, c, h, w) = (shape.dim(0), shape.dim(1), shape.dim(2), shape.dim(3));
        max_pool2d_into(input.as_slice(), out.as_mut_slice(), n, c, h, w, &self.geom)?;
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let (shape, argmax) =
            self.cached
                .as_ref()
                .ok_or_else(|| NnError::BackwardBeforeForward {
                    layer: self.name.clone(),
                })?;
        Ok(max_pool2d_backward(shape, grad_output, argmax)?)
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape, NnError> {
        pool_output_shape(input, &self.geom)
    }
}

/// Average pooling layer (window = input size gives global average pooling,
/// as used before the ResNet classifier).
#[derive(Debug)]
pub struct AvgPool2d {
    name: String,
    geom: PoolGeometry,
    cached_shape: Option<Shape>,
}

impl AvgPool2d {
    /// Creates an average-pool layer.
    pub fn new(name: impl Into<String>, geom: PoolGeometry) -> Self {
        AvgPool2d {
            name: name.into(),
            geom,
            cached_shape: None,
        }
    }

    /// The pooling geometry.
    pub fn geometry(&self) -> &PoolGeometry {
        &self.geom
    }
}

impl Layer for AvgPool2d {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Pool
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor, NnError> {
        let out = avg_pool2d(input, &self.geom)?;
        self.cached_shape = Some(input.shape().clone());
        Ok(out)
    }

    fn forward_infer(&self, input: &Tensor) -> Result<Tensor, NnError> {
        Ok(avg_pool2d(input, &self.geom)?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let shape = self
            .cached_shape
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: self.name.clone(),
            })?;
        Ok(avg_pool2d_backward(shape, grad_output, &self.geom)?)
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape, NnError> {
        pool_output_shape(input, &self.geom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_roundtrip() {
        let mut p = MaxPool2d::new("p", PoolGeometry::halving());
        let x =
            Tensor::from_vec((0..16).map(|v| v as f32).collect(), Shape::nchw(1, 1, 4, 4)).unwrap();
        let y = p.forward(&x, true).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        let gi = p.backward(&Tensor::ones(y.shape().clone())).unwrap();
        assert_eq!(gi.sum(), 4.0);
    }

    #[test]
    fn avg_pool_conserves_gradient() {
        let mut p = AvgPool2d::new("p", PoolGeometry::halving());
        let x = Tensor::ones(Shape::nchw(1, 2, 4, 4));
        let y = p.forward(&x, true).unwrap();
        let gi = p.backward(&Tensor::ones(y.shape().clone())).unwrap();
        assert!((gi.sum() - 8.0).abs() < 1e-5);
    }

    #[test]
    fn output_shape_agrees_with_forward() {
        let mut p = MaxPool2d::new(
            "p",
            PoolGeometry {
                window: 3,
                stride: 2,
            },
        );
        let x = Tensor::zeros(Shape::nchw(2, 3, 9, 9));
        let y = p.forward(&x, false).unwrap();
        assert_eq!(y.shape(), &p.output_shape(x.shape()).unwrap());
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut p = AvgPool2d::new("p", PoolGeometry::halving());
        assert!(p.backward(&Tensor::zeros(Shape::nchw(1, 1, 1, 1))).is_err());
    }
}
