//! Tensor shapes: a scalar, a vector or a matrix, with the dims inline.

use std::fmt;

/// The shape of a dense, row-major tensor: rank 0 (a scalar), 1 (a vector)
/// or 2 (a matrix).
///
/// The dims live inline, so a `Shape` is `Copy` and making or cloning a
/// tensor allocates nothing for it. An axis the rank does not have is held
/// as 1, which makes [`Shape::rows`], [`Shape::cols`] and [`Shape::len`]
/// plain reads for every rank.
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
/// assert_eq!(Shape::from_dims(&[2, 3, 4]), None);
/// ```
///
/// A rank above 2 does not compile:
///
/// ```compile_fail
/// let t = salient_tensor::Tensor::zeros([2, 3, 4]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    rank: u8,
    /// `[rows, cols]`; an axis past `rank` is 1.
    dims: [usize; 2],
}

impl Shape {
    /// The shape of a scalar (rank 0, one element).
    pub(crate) const fn scalar() -> Self {
        Shape { rank: 0, dims: [1, 1] }
    }

    /// The shape of a length-`n` vector.
    pub(crate) const fn vector(n: usize) -> Self {
        Shape { rank: 1, dims: [n, 1] }
    }

    /// The shape of an `rows × cols` matrix.
    pub const fn matrix(rows: usize, cols: usize) -> Self {
        Shape { rank: 2, dims: [rows, cols] }
    }

    /// The shape with these dims, or `None` for a rank above 2: the one way
    /// to build a shape from a list known only at run time.
    pub fn from_dims(dims: &[usize]) -> Option<Self> {
        match *dims {
            [] => Some(Shape::scalar()),
            [n] => Some(Shape::vector(n)),
            [rows, cols] => Some(Shape::matrix(rows, cols)),
            _ => None,
        }
    }

    /// Number of dimensions: 0, 1 or 2.
    pub fn rank(&self) -> usize {
        usize::from(self.rank)
    }

    /// Total number of elements (1 for a scalar).
    pub fn len(&self) -> usize {
        self.dims[0] * self.dims[1]
    }

    /// The dimension sizes, `rank()` of them.
    pub fn dims(&self) -> &[usize] {
        self.dims.split_at(self.rank()).0
    }

    /// Number of rows; for a vector this is its length, for a scalar 1.
    pub fn rows(&self) -> usize {
        self.dims[0]
    }

    /// Number of columns of a matrix; 1 for vectors and scalars.
    pub(crate) fn cols(&self) -> usize {
        self.dims[1]
    }

    /// Linear row-major offset of an index with one coordinate per axis.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or any coordinate is out of bounds.
    pub(crate) fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(
            idx.len(),
            self.rank(),
            "index rank {} does not match shape rank {}",
            idx.len(),
            self.rank()
        );
        assert!(
            idx.iter().zip(self.dims()).all(|(i, n)| i < n),
            "index {idx:?} out of bounds for shape {self}"
        );
        match *idx {
            [row, col] => row * self.cols() + col,
            [i] => i,
            _ => 0,
        }
    }

    /// Whether two shapes are compatible for elementwise binary ops with
    /// row-broadcasting: identical shapes, or `other` is a single row / scalar
    /// broadcast across the rows of `self`.
    pub(crate) fn broadcasts_with(&self, other: Shape) -> bool {
        if *self == other || other.rank() == 0 {
            return true;
        }
        // A [1, c] or [c] row vector broadcasts over [r, c].
        self.rank() == 2 && other.len() == self.cols()
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.dims())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(v: [usize; N]) -> Self {
        const { assert!(N <= 2, "a tensor is a scalar, a vector or a matrix") };
        let mut dims = [1; 2];
        for (d, n) in dims.iter_mut().zip(v) {
            *d = n;
        }
        Shape { rank: N as u8, dims }
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
        assert_eq!(s, Shape::from([]));
    }

    #[test]
    fn matrix_dims_and_offsets() {
        let s = Shape::matrix(3, 5);
        assert_eq!(s.rank(), 2);
        assert_eq!(s.len(), 15);
        assert_eq!(s.offset(&[2, 3]), 13);
        assert_eq!(s, Shape::from([3, 5]));
    }

    #[test]
    fn vector_offsets() {
        let s = Shape::vector(7);
        assert_eq!((s.rows(), s.cols()), (7, 1));
        assert_eq!(s.offset(&[6]), 6);
        assert_eq!(s, Shape::from([7]));
    }

    #[test]
    fn from_dims_takes_rank_two_and_below() {
        for dims in [&[][..], &[4], &[4, 2]] {
            let s = Shape::from_dims(dims).unwrap();
            assert_eq!(s.dims(), dims);
        }
        assert_eq!(Shape::from_dims(&[1, 1, 1]), None);
        assert_eq!(Shape::from_dims(&[0; 8]), None);
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
        assert!(m.broadcasts_with(Shape::matrix(4, 3)));
        assert!(m.broadcasts_with(Shape::vector(3)));
        assert!(m.broadcasts_with(Shape::scalar()));
        assert!(!m.broadcasts_with(Shape::vector(4)));
        assert!(!m.broadcasts_with(Shape::matrix(3, 4)));
    }

    #[test]
    fn zero_dim_is_empty() {
        assert_eq!(Shape::matrix(0, 3).len(), 0);
        assert_eq!(Shape::vector(0).len(), 0);
    }
}
