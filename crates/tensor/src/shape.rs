//! Tensor shapes and row-major index arithmetic.

#![expect(
    clippy::indexing_slicing,
    reason = "`dim` and `offset` document their panic on a bad axis (# Panics); rows, cols and strides index below a rank they have just matched on"
)]

use std::fmt;

/// The shape of a dense, row-major tensor.
///
/// A `Shape` is an ordered list of dimension sizes. Scalars are represented by
/// the empty shape. Most of the SALIENT compute path uses rank-1 and rank-2
/// tensors (feature matrices, weight matrices, label vectors).
///
/// # Examples
///
/// ```
/// use salient_tensor::Shape;
///
/// let s = Shape::matrix(3, 4);
/// assert_eq!(s.len(), 12);
/// assert_eq!(s.rank(), 2);
/// assert_eq!(s.dims(), &[3, 4]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from a list of dimension sizes.
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        Shape(dims.into())
    }

    /// The shape of a scalar (rank 0, one element).
    pub(crate) fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// The shape of a length-`n` vector.
    pub(crate) fn vector(n: usize) -> Self {
        Shape(vec![n])
    }

    /// The shape of an `rows × cols` matrix.
    pub fn matrix(rows: usize, cols: usize) -> Self {
        Shape(vec![rows, cols])
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of all dimensions; 1 for scalars).
    pub fn len(&self) -> usize {
        self.0.iter().product()
    }

    /// Whether the shape contains zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// The size of dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d >= self.rank()`.
    pub fn dim(&self, d: usize) -> usize {
        self.0[d]
    }

    /// Number of rows; for a vector this is its length, for a scalar 1.
    pub fn rows(&self) -> usize {
        match self.0.len() {
            0 => 1,
            _ => self.0[0],
        }
    }

    /// Number of columns of a rank-2 shape; 1 for vectors and scalars.
    pub(crate) fn cols(&self) -> usize {
        match self.0.len() {
            0 | 1 => 1,
            _ => self.0[1..].iter().product(),
        }
    }

    /// Row-major strides for this shape: `[2, 3, 4]` has `[12, 4, 1]`.
    pub(crate) fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Linear row-major offset of a multi-dimensional index: the strides of
    /// `[2, 3, 4]` are `[12, 4, 1]`.
    ///
    /// ```
    /// # use salient_tensor::Shape;
    /// assert_eq!(Shape::new([2, 3, 4]).offset(&[1, 2, 3]), 12 + 2 * 4 + 3);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or any coordinate is out of bounds.
    pub fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(
            idx.len(),
            self.0.len(),
            "index rank {} does not match shape rank {}",
            idx.len(),
            self.0.len()
        );
        let mut off = 0usize;
        let strides = self.strides();
        for (d, (&i, &s)) in idx.iter().zip(strides.iter()).enumerate() {
            assert!(
                i < self.0[d],
                "index {i} out of bounds for dimension {d} of size {}",
                self.0[d]
            );
            off += i * s;
        }
        off
    }

    /// Whether two shapes are compatible for elementwise binary ops with
    /// row-broadcasting: identical shapes, or `other` is a single row / scalar
    /// broadcast across the rows of `self`.
    pub(crate) fn broadcasts_with(&self, other: &Shape) -> bool {
        if self == other {
            return true;
        }
        if other.rank() == 0 {
            return true;
        }
        // A [1, c] or [c] row vector broadcasts over [r, c].
        self.rank() == 2 && other.len() == self.cols()
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.0)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(v: Vec<usize>) -> Self {
        Shape(v)
    }
}

impl From<&[usize]> for Shape {
    fn from(v: &[usize]) -> Self {
        Shape(v.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(v: [usize; N]) -> Self {
        Shape(v.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_has_one_element() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.rows(), 1);
        assert_eq!(s.cols(), 1);
    }

    #[test]
    fn matrix_dims_and_strides() {
        let s = Shape::matrix(3, 5);
        assert_eq!(s.rank(), 2);
        assert_eq!(s.len(), 15);
        assert_eq!(s.strides(), vec![5, 1]);
        assert_eq!(s.offset(&[2, 3]), 13);
        let s = Shape::new([2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.offset(&[1, 2, 3]), 23);
    }

    #[test]
    fn vector_strides() {
        let s = Shape::vector(7);
        assert_eq!(s.strides(), vec![1]);
        assert_eq!(s.offset(&[6]), 6);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_out_of_bounds_panics() {
        Shape::matrix(2, 2).offset(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn offset_wrong_rank_panics() {
        Shape::matrix(2, 2).offset(&[1]);
    }

    #[test]
    fn broadcast_rules() {
        let m = Shape::matrix(4, 3);
        assert!(m.broadcasts_with(&Shape::matrix(4, 3)));
        assert!(m.broadcasts_with(&Shape::vector(3)));
        assert!(m.broadcasts_with(&Shape::scalar()));
        assert!(!m.broadcasts_with(&Shape::vector(4)));
        assert!(!m.broadcasts_with(&Shape::matrix(3, 4)));
    }

    #[test]
    fn zero_dim_is_empty() {
        assert!(Shape::matrix(0, 3).is_empty());
        assert!(!Shape::matrix(1, 3).is_empty());
    }
}
