use std::fmt;

use crate::{Shape, TensorError};

/// A dense, row-major `f32` tensor.
///
/// `Tensor` is the workhorse value type of the SEAL reproduction: network
/// weights, feature maps, gradients and adversarial perturbations are all
/// tensors. Storage is a flat `Vec<f32>` indexed with row-major strides
/// derived from the [`Shape`].
///
/// ```
/// use seal_tensor::{Tensor, Shape};
///
/// # fn main() -> Result<(), seal_tensor::TensorError> {
/// let t = Tensor::zeros(Shape::nchw(1, 2, 3, 3));
/// assert_eq!(t.len(), 18);
/// assert_eq!(t.shape().rank(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor from a flat buffer and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// `shape.volume()`.
    pub fn from_vec(data: Vec<f32>, shape: Shape) -> Result<Self, TensorError> {
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// A tensor of the given shape filled with zeros.
    pub fn zeros(shape: Shape) -> Self {
        Tensor {
            data: vec![0.0; shape.volume()],
            shape,
        }
    }

    /// A tensor of the given shape filled with ones.
    pub fn ones(shape: Shape) -> Self {
        Tensor {
            data: vec![1.0; shape.volume()],
            shape,
        }
    }

    /// A tensor of the given shape filled with `value`.
    pub fn full(shape: Shape, value: f32) -> Self {
        Tensor {
            data: vec![value; shape.volume()],
            shape,
        }
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(Shape::matrix(n, n));
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// The shape of this tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The elements as a contiguous row-major slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The elements as a mutable contiguous row-major slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterprets the tensor with a new shape of equal volume.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the volumes differ.
    pub fn reshape(mut self, shape: Shape) -> Result<Self, TensorError> {
        if shape.volume() != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: self.data.len(),
            });
        }
        self.shape = shape;
        Ok(self)
    }

    /// Resizes the outermost dimension to `n` in place: the rows that
    /// stay keep their values, new rows are zero. The buffer keeps its
    /// capacity, so a batch tensor reused across batch sizes allocates
    /// only until it has held its largest batch once. A rank-0 tensor has
    /// no outermost dimension and keeps its single element.
    ///
    /// ```
    /// use seal_tensor::{Shape, Tensor};
    ///
    /// let mut batch = Tensor::ones(Shape::nchw(2, 1, 2, 2));
    /// batch.resize_leading(3);
    /// assert_eq!(batch.shape(), &Shape::nchw(3, 1, 2, 2));
    /// assert_eq!(batch.as_slice()[4..], [1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
    /// batch.resize_leading(1);
    /// assert_eq!(batch.len(), 4);
    /// ```
    pub fn resize_leading(&mut self, n: usize) {
        self.shape.set_leading(n);
        self.data.resize(self.shape.volume(), 0.0);
    }

    /// Element at a 2-D index (rank-2 tensors).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the index is out of bounds.
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.shape.rank(), 2);
        self.data[r * self.shape.dim(1) + c]
    }

    /// Element at a 4-D `NCHW` index (rank-4 tensors).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 4 or the index is out of bounds.
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        debug_assert_eq!(self.shape.rank(), 4);
        let (cc, hh, ww) = (self.shape.dim(1), self.shape.dim(2), self.shape.dim(3));
        self.data[((n * cc + c) * hh + h) * ww + w]
    }

    /// Sets the element at a 4-D `NCHW` index.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 4 or the index is out of bounds.
    pub fn set4(&mut self, n: usize, c: usize, h: usize, w: usize, v: f32) {
        debug_assert_eq!(self.shape.rank(), 4);
        let (cc, hh, ww) = (self.shape.dim(1), self.shape.dim(2), self.shape.dim(3));
        self.data[((n * cc + c) * hh + h) * ww + w] = v;
    }

    /// Element-wise sum of two tensors of identical shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise difference `self - other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, "mul", |a, b| a * b)
    }

    /// In-place scaled accumulate: `self += alpha * other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<(), TensorError> {
        if !self.shape.same_dims(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
                op: "axpy",
            });
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Returns a copy scaled by `alpha`.
    pub fn scale(&self, alpha: f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|v| v * alpha).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` element-wise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().copied().map(f).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` element-wise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Applies `f` element-wise on the `seal-pool` runtime, returning a
    /// new tensor. The shared `par_chunks` path for elementwise layers:
    /// fixed-size chunks (independent of the thread count) keep the
    /// output bitwise identical to [`Tensor::map`] for any pure `f`.
    // seal-lint: allow(panic-freedom) — chunk offsets are derived from the buffer's own length, so the final clamp keeps them in bounds
    pub fn par_map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let mut data = vec![0.0f32; self.data.len()];
        if !data.is_empty() {
            let src = self.as_slice();
            seal_pool::par_chunks_mut(&mut data, crate::ELEMWISE_CHUNK, |ci, chunk| {
                let base = ci * crate::ELEMWISE_CHUNK;
                let src = &src[base..base + chunk.len()];
                for (d, &s) in chunk.iter_mut().zip(src) {
                    *d = f(s);
                }
            });
        }
        Tensor {
            data,
            shape: self.shape.clone(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Sum of absolute values (the ℓ1-norm the SE scheme ranks kernel rows by).
    pub fn l1_norm(&self) -> f32 {
        self.data.iter().map(|v| v.abs()).sum()
    }

    /// Euclidean norm.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Largest element, or `f32::NEG_INFINITY` for an empty tensor.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Index of the largest element, or `None` for an empty tensor.
    pub fn argmax(&self) -> Option<usize> {
        if self.data.is_empty() {
            return None;
        }
        let mut best = 0usize;
        for (i, v) in self.data.iter().enumerate() {
            if *v > self.data[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// Matrix product of two rank-2 tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices and
    /// [`TensorError::ShapeMismatch`] when inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        crate::ops::matmul(self, other)
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    // seal-lint: allow(panic-freedom) — the `r * cols + c` offsets enumerate exactly the `rows x cols` extent of the tensor
    pub fn transpose(&self) -> Result<Tensor, TensorError> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.shape.rank(),
                op: "transpose",
            });
        }
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0f32; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Tensor::from_vec(out, Shape::matrix(c, r))
    }

    /// Serialised size of this tensor in bytes (`4 * len`), as it would
    /// occupy accelerator DRAM. Used by the traffic model in `seal-core`.
    pub fn byte_size(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    fn zip_with(
        &self,
        other: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor, TensorError> {
        if !self.shape.same_dims(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
                op,
            });
        }
        Ok(Tensor {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| f(*a, *b))
                .collect(),
            shape: self.shape.clone(),
        })
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} [", self.shape)?;
        let preview = self.data.iter().take(8);
        for (i, v) in preview.enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.data.len() > 8 {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<f32> for Tensor {
    /// Collects into a rank-1 tensor.
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        let data: Vec<f32> = iter.into_iter().collect();
        let shape = Shape::vector(data.len());
        Tensor { data, shape }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        let err = Tensor::from_vec(vec![1.0; 5], Shape::matrix(2, 2)).unwrap_err();
        assert!(matches!(err, TensorError::LengthMismatch { .. }));
    }

    #[test]
    fn eye_has_unit_diagonal() {
        let t = Tensor::eye(3);
        assert_eq!(t.at2(0, 0), 1.0);
        assert_eq!(t.at2(1, 2), 0.0);
        assert_eq!(t.sum(), 3.0);
    }

    #[test]
    fn elementwise_ops_respect_shapes() {
        let a = Tensor::full(Shape::vector(3), 2.0);
        let b = Tensor::full(Shape::vector(3), 5.0);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[7.0, 7.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[10.0, 10.0, 10.0]);
        let c = Tensor::full(Shape::vector(4), 1.0);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::zeros(Shape::vector(2));
        let g = Tensor::full(Shape::vector(2), 3.0);
        a.axpy(-0.5, &g).unwrap();
        assert_eq!(a.as_slice(), &[-1.5, -1.5]);
    }

    #[test]
    fn norms_and_argmax() {
        let t = Tensor::from_vec(vec![-3.0, 4.0], Shape::vector(2)).unwrap();
        assert_eq!(t.l1_norm(), 7.0);
        assert!((t.l2_norm() - 5.0).abs() < 1e-6);
        assert_eq!(t.argmax(), Some(1));
        assert_eq!(Tensor::zeros(Shape::vector(0)).argmax(), None);
    }

    #[test]
    fn transpose_roundtrip() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], Shape::matrix(2, 3)).unwrap();
        let tt = t.transpose().unwrap();
        assert_eq!(tt.shape().dims(), &[3, 2]);
        assert_eq!(tt.transpose().unwrap(), t);
        assert_eq!(tt.at2(2, 1), 6.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], Shape::vector(4)).unwrap();
        let m = t.clone().reshape(Shape::matrix(2, 2)).unwrap();
        assert_eq!(m.at2(1, 0), 3.0);
        assert!(t.reshape(Shape::matrix(3, 3)).is_err());
    }

    #[test]
    fn nchw_indexing() {
        let mut t = Tensor::zeros(Shape::nchw(2, 3, 4, 5));
        t.set4(1, 2, 3, 4, 9.0);
        assert_eq!(t.at4(1, 2, 3, 4), 9.0);
        assert_eq!(t.sum(), 9.0);
    }

    #[test]
    fn byte_size_is_four_per_element() {
        assert_eq!(Tensor::zeros(Shape::vector(10)).byte_size(), 40);
    }

    #[test]
    fn collect_builds_vector_tensor() {
        let t: Tensor = (0..4).map(|i| i as f32).collect();
        assert_eq!(t.shape().dims(), &[4]);
    }
}
