use std::fmt;

/// The dimensions of a [`Tensor`](crate::Tensor), stored outermost-first.
///
/// Tensors in this crate are row-major: the last dimension is contiguous.
/// A 4-D activation tensor uses the `NCHW` convention (batch, channels,
/// height, width) matching the paper's description of CONV-layer feature
/// maps.
///
/// ```
/// use seal_tensor::Shape;
///
/// let s = Shape::nchw(8, 3, 32, 32);
/// assert_eq!(s.volume(), 8 * 3 * 32 * 32);
/// assert_eq!(s.rank(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from explicit dimensions.
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        Shape(dims.into())
    }

    /// A rank-1 shape with `n` elements.
    pub fn vector(n: usize) -> Self {
        Shape(vec![n])
    }

    /// A rank-2 shape with `rows × cols` elements.
    pub fn matrix(rows: usize, cols: usize) -> Self {
        Shape(vec![rows, cols])
    }

    /// A rank-4 activation shape: batch, channels, height, width.
    pub fn nchw(n: usize, c: usize, h: usize, w: usize) -> Self {
        Shape(vec![n, c, h, w])
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of all dimensions; 1 for rank 0).
    pub fn volume(&self) -> usize {
        self.0.iter().product()
    }

    /// The dimensions as a slice, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Sets the outermost dimension; a rank-0 shape has none and keeps
    /// its volume of 1.
    pub(crate) fn set_leading(&mut self, n: usize) {
        if let Some(dim) = self.0.first_mut() {
            *dim = n;
        }
    }

    /// Dimension `i`, panicking if out of range.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rank()`.
    pub fn dim(&self, i: usize) -> usize {
        self.0[i]
    }

    /// Row-major strides for this shape, in elements.
    ///
    /// ```
    /// use seal_tensor::Shape;
    /// assert_eq!(Shape::nchw(2, 3, 4, 5).strides(), vec![60, 20, 5, 1]);
    /// ```
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Returns `true` if the two shapes have identical dimensions.
    pub fn same_dims(&self, other: &Shape) -> bool {
        self.0 == other.0
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape(dims.to_vec())
    }
}

impl AsRef<[usize]> for Shape {
    fn as_ref(&self) -> &[usize] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_of_empty_shape_is_one() {
        assert_eq!(Shape::new(Vec::new()).volume(), 1);
    }

    #[test]
    fn volume_with_zero_dim_is_zero() {
        assert_eq!(Shape::new(vec![3, 0, 5]).volume(), 0);
    }

    #[test]
    fn strides_are_row_major() {
        assert_eq!(Shape::matrix(3, 4).strides(), vec![4, 1]);
        assert_eq!(Shape::vector(7).strides(), vec![1]);
    }

    #[test]
    fn display_formats_dims() {
        assert_eq!(Shape::nchw(1, 3, 32, 32).to_string(), "[1x3x32x32]");
    }

    #[test]
    fn conversions_from_arrays_and_slices() {
        let a: Shape = [2, 3].into();
        let b = Shape::from(vec![2, 3]);
        assert!(a.same_dims(&b));
        assert_eq!(a.as_ref(), &[2, 3]);
    }
}
