//! Shape-only network descriptions with exact byte and FLOP accounting.
//!
//! The paper's performance experiments (Figures 5–8) depend only on layer
//! *shapes*: how many bytes of weights and feature maps cross the memory bus
//! and how much arithmetic hides behind each byte. A [`NetworkTopology`]
//! captures exactly that for the full-size VGG-16/ResNet-18/ResNet-34,
//! without ever allocating full weight tensors.
//!
//! `seal-core` consumes topologies to budget encrypted vs. plain traffic;
//! `seal-gpusim` turns each layer into a memory-request workload.

use seal_tensor::Shape;

use crate::NnError;

/// What a topology layer does, with its geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerRole {
    /// Convolution with a kernel matrix.
    Conv {
        /// Input channels (`n_x`, kernel rows).
        in_channels: usize,
        /// Output channels (`n_y`, kernel columns).
        out_channels: usize,
        /// Square kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Padding.
        padding: usize,
    },
    /// Pooling.
    Pool {
        /// Square window size.
        window: usize,
        /// Stride.
        stride: usize,
    },
    /// Fully connected layer.
    Fc {
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
    },
}

/// One layer of a [`NetworkTopology`] with resolved activation shapes.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTopo {
    /// Layer name, unique within the network (e.g. `conv3_2`).
    pub name: String,
    /// Role and geometry.
    pub role: LayerRole,
    /// Input feature map shape (batch 1, `NCHW`).
    pub ifmap: Shape,
    /// Output feature map shape (batch 1, `NCHW`).
    pub ofmap: Shape,
}

const F32_BYTES: u64 = 4;

/// Numeric storage format of a served model's weights and activations —
/// the knob that reprices every byte-accounting method below. Int8 moves
/// one quarter of the f32 bytes across the memory bus (quantized weights
/// carry a small per-output-channel f32 scale sideband, counted with the
/// weights), which is exactly the lever the quantized compiled plans pull
/// on the encrypted-traffic economics: the AES engine prices *bytes*, so
/// int8 shrinks the encrypted stream of every scheme by ~4×.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DType {
    /// 32-bit float (the default everywhere).
    #[default]
    F32,
    /// Symmetric per-output-channel int8, as produced by the quantized
    /// compiled plans (`CompiledModel::compile` with `quantized`).
    Int8,
}

impl DType {
    /// Bytes one tensor element occupies.
    pub fn bytes_per_element(self) -> u64 {
        match self {
            DType::F32 => F32_BYTES,
            DType::Int8 => 1,
        }
    }

    /// Display name (`"f32"` / `"int8"`).
    pub fn name(self) -> &'static str {
        match self {
            DType::F32 => "f32",
            DType::Int8 => "int8",
        }
    }
}

impl LayerTopo {
    /// Bytes of weights (0 for pooling).
    pub fn weight_bytes(&self) -> u64 {
        self.weight_bytes_dt(DType::F32)
    }

    /// Bytes of weights under `dtype`. Int8 weights additionally carry one
    /// f32 scale per output channel (the symmetric per-channel sideband).
    pub fn weight_bytes_dt(&self, dtype: DType) -> u64 {
        let (elems, channels) = match self.role {
            LayerRole::Conv {
                in_channels,
                out_channels,
                kernel,
                ..
            } => (in_channels * out_channels * kernel * kernel, out_channels),
            LayerRole::Pool { .. } => (0, 0),
            LayerRole::Fc {
                in_features,
                out_features,
            } => (in_features * out_features, out_features),
        };
        let sideband = match dtype {
            DType::F32 => 0,
            DType::Int8 => channels as u64 * F32_BYTES,
        };
        elems as u64 * dtype.bytes_per_element() + sideband
    }

    /// Bytes of the input feature map.
    pub fn ifmap_bytes(&self) -> u64 {
        self.ifmap_bytes_dt(DType::F32)
    }

    /// Bytes of the input feature map under `dtype`.
    pub fn ifmap_bytes_dt(&self, dtype: DType) -> u64 {
        self.ifmap.volume() as u64 * dtype.bytes_per_element()
    }

    /// Bytes of the output feature map.
    pub fn ofmap_bytes(&self) -> u64 {
        self.ofmap_bytes_dt(DType::F32)
    }

    /// Bytes of the output feature map under `dtype`.
    pub fn ofmap_bytes_dt(&self, dtype: DType) -> u64 {
        self.ofmap.volume() as u64 * dtype.bytes_per_element()
    }

    /// Total bytes read + written by this layer (weights + ifmap read,
    /// ofmap write) assuming no cache reuse.
    pub fn traffic_bytes(&self) -> u64 {
        self.traffic_bytes_dt(DType::F32)
    }

    /// [`traffic_bytes`](Self::traffic_bytes) under `dtype`.
    pub fn traffic_bytes_dt(&self, dtype: DType) -> u64 {
        self.weight_bytes_dt(dtype) + self.ifmap_bytes_dt(dtype) + self.ofmap_bytes_dt(dtype)
    }

    /// Multiply–accumulate-derived FLOP count for this layer.
    pub fn flops(&self) -> u64 {
        match self.role {
            LayerRole::Conv {
                in_channels,
                kernel,
                ..
            } => {
                let per_output = 2 * kernel as u64 * kernel as u64 * in_channels as u64;
                per_output * self.ofmap.volume() as u64
            }
            LayerRole::Pool { window, .. } => (window * window) as u64 * self.ofmap.volume() as u64,
            LayerRole::Fc {
                in_features,
                out_features,
            } => 2 * in_features as u64 * out_features as u64,
        }
    }

    /// Arithmetic intensity in FLOPs per byte of memory traffic — the
    /// quantity that decides whether a layer is compute- or
    /// bandwidth-bound. POOL layers sit far below CONV layers here, which
    /// is why the paper's Figure 6 shows them suffering more under
    /// encryption than Figure 5's CONV layers.
    pub fn arithmetic_intensity(&self) -> f64 {
        self.flops() as f64 / self.traffic_bytes().max(1) as f64
    }

    /// Number of input channels feeding this layer (0 for FC).
    pub fn in_channels(&self) -> usize {
        match self.role {
            LayerRole::Conv { in_channels, .. } => in_channels,
            LayerRole::Pool { .. } => self.ifmap.dim(1),
            LayerRole::Fc { .. } => 0,
        }
    }

    /// Number of output channels (0 for FC).
    pub fn out_channels(&self) -> usize {
        match self.role {
            LayerRole::Conv { out_channels, .. } => out_channels,
            LayerRole::Pool { .. } => self.ofmap.dim(1),
            LayerRole::Fc { .. } => 0,
        }
    }

    /// Returns `true` for layers that carry a kernel matrix (CONV or FC) and
    /// are therefore subject to the SE scheme.
    pub fn has_kernel_matrix(&self) -> bool {
        matches!(self.role, LayerRole::Conv { .. } | LayerRole::Fc { .. })
    }
}

/// A whole network as an ordered list of [`LayerTopo`]s.
///
/// Built with a fluent API that tracks the running activation shape:
///
/// ```
/// use seal_nn::NetworkTopology;
/// use seal_tensor::Shape;
///
/// # fn main() -> Result<(), seal_nn::NnError> {
/// let net = NetworkTopology::build("toy", Shape::nchw(1, 3, 32, 32))?
///     .conv("conv1", 64, 3, 1, 1)?
///     .pool("pool1", 2, 2)?
///     .finish();
/// assert_eq!(net.layers().len(), 2);
/// assert_eq!(net.layers()[1].ofmap.dims(), &[1, 64, 16, 16]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkTopology {
    name: String,
    input: Shape,
    layers: Vec<LayerTopo>,
}

/// Fluent builder for [`NetworkTopology`].
#[derive(Debug)]
pub struct TopologyBuilder {
    topo: NetworkTopology,
    current: Shape,
}

impl NetworkTopology {
    /// Starts building a topology from an `NCHW` input shape (batch must
    /// be 1; the simulator scales to batches separately).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for a non-4-D or non-unit-batch
    /// input.
    pub fn build(name: impl Into<String>, input: Shape) -> Result<TopologyBuilder, NnError> {
        if input.rank() != 4 || input.dim(0) != 1 {
            return Err(NnError::InvalidConfig {
                reason: format!("topology input must be [1,C,H,W], got {input}"),
            });
        }
        Ok(TopologyBuilder {
            current: input.clone(),
            topo: NetworkTopology {
                name: name.into(),
                input,
                layers: Vec::new(),
            },
        })
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The input activation shape.
    pub fn input(&self) -> &Shape {
        &self.input
    }

    /// The layers in execution order.
    pub fn layers(&self) -> &[LayerTopo] {
        &self.layers
    }

    /// Indices of CONV layers, in order.
    pub fn conv_indices(&self) -> Vec<usize> {
        self.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| matches!(l.role, LayerRole::Conv { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of POOL layers, in order.
    pub fn pool_indices(&self) -> Vec<usize> {
        self.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| matches!(l.role, LayerRole::Pool { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of FC layers, in order.
    pub fn fc_indices(&self) -> Vec<usize> {
        self.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| matches!(l.role, LayerRole::Fc { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// Total weight bytes of the whole model.
    pub fn total_weight_bytes(&self) -> u64 {
        self.total_weight_bytes_dt(DType::F32)
    }

    /// Total weight bytes under `dtype`.
    pub fn total_weight_bytes_dt(&self, dtype: DType) -> u64 {
        self.layers.iter().map(|l| l.weight_bytes_dt(dtype)).sum()
    }

    /// Total memory traffic of one inference pass, in bytes.
    pub fn total_traffic_bytes(&self) -> u64 {
        self.total_traffic_bytes_dt(DType::F32)
    }

    /// Total memory traffic of one inference pass under `dtype`.
    pub fn total_traffic_bytes_dt(&self, dtype: DType) -> u64 {
        self.layers.iter().map(|l| l.traffic_bytes_dt(dtype)).sum()
    }

    /// Total FLOPs of one inference pass.
    pub fn total_flops(&self) -> u64 {
        self.layers.iter().map(|l| l.flops()).sum()
    }
}

impl TopologyBuilder {
    /// Appends a convolution producing `out_channels` channels.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the kernel does not fit.
    pub fn conv(
        mut self,
        name: impl Into<String>,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self, NnError> {
        let (c, h, w) = (
            self.current.dim(1),
            self.current.dim(2),
            self.current.dim(3),
        );
        let geom = seal_tensor::ops::Conv2dGeometry {
            kernel,
            stride,
            padding,
        };
        let oh = geom.output_size(h).ok_or_else(|| NnError::InvalidConfig {
            reason: format!("conv kernel {kernel} does not fit height {h}"),
        })?;
        let ow = geom.output_size(w).ok_or_else(|| NnError::InvalidConfig {
            reason: format!("conv kernel {kernel} does not fit width {w}"),
        })?;
        let ofmap = Shape::nchw(1, out_channels, oh, ow);
        self.topo.layers.push(LayerTopo {
            name: name.into(),
            role: LayerRole::Conv {
                in_channels: c,
                out_channels,
                kernel,
                stride,
                padding,
            },
            ifmap: self.current.clone(),
            ofmap: ofmap.clone(),
        });
        self.current = ofmap;
        Ok(self)
    }

    /// Appends a pooling layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the window does not fit.
    pub fn pool(
        mut self,
        name: impl Into<String>,
        window: usize,
        stride: usize,
    ) -> Result<Self, NnError> {
        let (c, h, w) = (
            self.current.dim(1),
            self.current.dim(2),
            self.current.dim(3),
        );
        let geom = seal_tensor::ops::PoolGeometry { window, stride };
        let oh = geom.output_size(h).ok_or_else(|| NnError::InvalidConfig {
            reason: format!("pool window {window} does not fit height {h}"),
        })?;
        let ow = geom.output_size(w).ok_or_else(|| NnError::InvalidConfig {
            reason: format!("pool window {window} does not fit width {w}"),
        })?;
        let ofmap = Shape::nchw(1, c, oh, ow);
        self.topo.layers.push(LayerTopo {
            name: name.into(),
            role: LayerRole::Pool { window, stride },
            ifmap: self.current.clone(),
            ofmap: ofmap.clone(),
        });
        self.current = ofmap;
        Ok(self)
    }

    /// Appends a fully connected layer; the running activation is flattened
    /// implicitly.
    ///
    /// # Errors
    ///
    /// This method currently cannot fail but returns `Result` for builder
    /// uniformity.
    pub fn fc(mut self, name: impl Into<String>, out_features: usize) -> Result<Self, NnError> {
        let in_features: usize = self.current.dims()[1..].iter().product();
        let ofmap = Shape::nchw(1, out_features, 1, 1);
        self.topo.layers.push(LayerTopo {
            name: name.into(),
            role: LayerRole::Fc {
                in_features,
                out_features,
            },
            ifmap: self.current.clone(),
            ofmap: ofmap.clone(),
        });
        self.current = ofmap;
        Ok(self)
    }

    /// The current running activation shape.
    pub fn current_shape(&self) -> &Shape {
        &self.current
    }

    /// Finalises the topology.
    pub fn finish(self) -> NetworkTopology {
        self.topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> NetworkTopology {
        NetworkTopology::build("toy", Shape::nchw(1, 3, 8, 8))
            .unwrap()
            .conv("c1", 16, 3, 1, 1)
            .unwrap()
            .pool("p1", 2, 2)
            .unwrap()
            .fc("fc", 10)
            .unwrap()
            .finish()
    }

    #[test]
    fn shapes_flow_through_builder() {
        let t = toy();
        assert_eq!(t.layers()[0].ofmap.dims(), &[1, 16, 8, 8]);
        assert_eq!(t.layers()[1].ofmap.dims(), &[1, 16, 4, 4]);
        assert_eq!(t.layers()[2].ofmap.dims(), &[1, 10, 1, 1]);
    }

    #[test]
    fn byte_accounting() {
        let t = toy();
        let conv = &t.layers()[0];
        assert_eq!(conv.weight_bytes(), (16 * 3 * 9) as u64 * 4);
        assert_eq!(conv.ifmap_bytes(), (3 * 64) as u64 * 4);
        assert_eq!(conv.ofmap_bytes(), (16 * 64) as u64 * 4);
        let pool = &t.layers()[1];
        assert_eq!(pool.weight_bytes(), 0);
        let fc = &t.layers()[2];
        assert_eq!(fc.weight_bytes(), (16 * 16 * 10) as u64 * 4);
    }

    #[test]
    fn flops_and_intensity() {
        let t = toy();
        let conv = &t.layers()[0];
        assert_eq!(conv.flops(), 2 * 9 * 3 * 16 * 64);
        let pool = &t.layers()[1];
        assert!(pool.arithmetic_intensity() < conv.arithmetic_intensity());
    }

    #[test]
    fn role_index_helpers() {
        let t = toy();
        assert_eq!(t.conv_indices(), vec![0]);
        assert_eq!(t.pool_indices(), vec![1]);
        assert_eq!(t.fc_indices(), vec![2]);
    }

    #[test]
    fn totals_are_sums() {
        let t = toy();
        let sum: u64 = t.layers().iter().map(|l| l.traffic_bytes()).sum();
        assert_eq!(t.total_traffic_bytes(), sum);
        assert!(t.total_flops() > 0);
        assert!(t.total_weight_bytes() > 0);
    }

    #[test]
    fn bad_input_shapes_rejected() {
        assert!(NetworkTopology::build("x", Shape::matrix(3, 3)).is_err());
        assert!(NetworkTopology::build("x", Shape::nchw(2, 3, 8, 8)).is_err());
        let b = NetworkTopology::build("x", Shape::nchw(1, 3, 4, 4)).unwrap();
        assert!(b.conv("c", 8, 7, 1, 0).is_err());
    }

    #[test]
    fn int8_traffic_is_a_quarter_plus_scale_sideband() {
        let t = toy();
        let conv = &t.layers()[0];
        // Weights: one byte per element plus a f32 scale per out channel.
        assert_eq!(
            conv.weight_bytes_dt(DType::Int8),
            (16 * 3 * 9) as u64 + 16 * 4
        );
        // Feature maps: exactly a quarter of the f32 bytes.
        assert_eq!(conv.ifmap_bytes_dt(DType::Int8) * 4, conv.ifmap_bytes());
        assert_eq!(conv.ofmap_bytes_dt(DType::Int8) * 4, conv.ofmap_bytes());
        // F32 variants delegate exactly.
        assert_eq!(conv.traffic_bytes_dt(DType::F32), conv.traffic_bytes());
        assert_eq!(
            t.total_traffic_bytes_dt(DType::F32),
            t.total_traffic_bytes()
        );
        // The whole-model int8 stream is strictly below a third of f32
        // (a quarter plus the small scale sidebands).
        let q = t.total_traffic_bytes_dt(DType::Int8);
        assert!(q * 3 < t.total_traffic_bytes(), "{q}");
        assert!(t.total_weight_bytes_dt(DType::Int8) < t.total_weight_bytes());
    }

    #[test]
    fn kernel_matrix_flag() {
        let t = toy();
        assert!(t.layers()[0].has_kernel_matrix());
        assert!(!t.layers()[1].has_kernel_matrix());
        assert!(t.layers()[2].has_kernel_matrix());
    }
}
