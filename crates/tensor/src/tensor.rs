//! The dense, row-major, reference-counted `f32` tensor.

#![expect(
    clippy::indexing_slicing,
    reason = "storage holds at least shape.len() elements; row and gather_rows assert the row index, item the length, and Debug reads two elements only when there are more than eight"
)]

use crate::kernels::{put_f32, take_f32, take_f32_stale, take_f32_zeroed};
use crate::shape::Shape;
use std::fmt;
use std::sync::Arc;

/// A tensor's buffer. When the last tensor sharing it drops, the buffer is
/// offered to the dropping thread's scratch pool (`kernels::put_f32`), and
/// every constructor below that needs a fresh buffer takes one from there:
/// a loop that builds and drops the same shapes (a train step and its tape)
/// stops allocating once it has run once.
struct Storage(Vec<f32>);

impl Drop for Storage {
    fn drop(&mut self) {
        put_f32(std::mem::take(&mut self.0));
    }
}

/// A dense, row-major tensor of `f32` values.
///
/// Storage is shared via [`Arc`], so clones (and [`Tensor::narrow_rows`]
/// prefix views) are cheap; mutation goes through [`Tensor::data_mut`],
/// which copies on write when the storage is shared.
/// This mirrors the "caller decides where to copy" guideline: the training
/// loop keeps a single owner per parameter, so updates are in place, while
/// activations can be shared freely across the autograd tape.
///
/// # Examples
///
/// ```
/// use salient_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
/// assert_eq!(t.at(&[1, 0]), 3.0);
/// assert_eq!(t.sum(), 10.0);
/// ```
#[derive(Clone)]
pub struct Tensor {
    /// At least `shape.len()` elements; a row-prefix view shares a longer
    /// buffer and reads only its own prefix.
    data: Arc<Storage>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the number of elements of
    /// `shape`.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.len(),
            "buffer of {} elements cannot have shape {shape}",
            data.len()
        );
        Tensor {
            data: Arc::new(Storage(data)),
            shape,
        }
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Tensor::from_vec(take_f32_zeroed(shape.len()), shape)
    }

    /// Creates a tensor in a recycled buffer whose every element `fill`
    /// must overwrite: the slice arrives holding unspecified stale values,
    /// not zeros, so a producer that writes all of it (a widen, a copy)
    /// pays no fill pass.
    pub fn filled_by(shape: impl Into<Shape>, fill: impl FnOnce(&mut [f32])) -> Self {
        let shape = shape.into();
        let mut data = take_f32_stale(shape.len());
        fill(&mut data);
        Tensor::from_vec(data, shape)
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let mut data = take_f32(shape.len());
        data.resize(shape.len(), value);
        Tensor::from_vec(data, shape)
    }

    /// Creates a rank-0 tensor holding a single value.
    pub(crate) fn scalar(value: f32) -> Self {
        Tensor::from_vec(vec![value], Shape::scalar())
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.shape.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.shape.is_empty()
    }

    /// Number of rows (see [`Shape::rows`]).
    pub fn rows(&self) -> usize {
        self.shape.rows()
    }

    /// Number of columns (see [`Shape::cols`]).
    pub fn cols(&self) -> usize {
        self.shape.cols()
    }

    /// Read-only view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data.0[..self.shape.len()]
    }

    /// Mutable view of the underlying buffer, copying if the storage is
    /// currently shared with another tensor.
    pub fn data_mut(&mut self) -> &mut [f32] {
        if Arc::get_mut(&mut self.data).is_none_or(|s| s.0.len() != self.shape.len()) {
            let mut own = take_f32(self.len());
            own.extend_from_slice(self.data());
            self.data = Arc::new(Storage(own));
        }
        #[expect(clippy::expect_used, reason = "the branch above leaves the storage unshared")]
        let storage = Arc::get_mut(&mut self.data).expect("storage is unshared");
        storage.0.as_mut_slice()
    }

    /// The element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds or has the wrong rank.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data()[self.shape.offset(idx)]
    }

    /// The single value of a scalar (or one-element) tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.len(), 1, "item() on tensor of shape {}", self.shape);
        self.data()[0]
    }

    /// A read-only view of row `r` of a rank-2 tensor (or the whole buffer
    /// for rank ≤ 1 when `r == 0`).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        let cols = self.cols();
        let rows = self.rows();
        assert!(r < rows, "row {r} out of bounds for {} rows", rows);
        &self.data()[r * cols..(r + 1) * cols]
    }

    /// Returns a tensor with the same data but a different shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub(crate) fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            self.len(),
            shape.len(),
            "cannot reshape {} to {shape}",
            self.shape
        );
        Tensor {
            data: Arc::clone(&self.data),
            shape,
        }
    }

    /// The first `k` rows (PyG's `x[:k]`, the `x_target` slice in the
    /// bipartite GNN layer) as a view sharing this tensor's storage.
    ///
    /// # Panics
    ///
    /// Panics if `k > self.rows()`.
    pub(crate) fn narrow_rows(&self, k: usize) -> Tensor {
        assert!(k <= self.rows(), "narrow to {k} rows of {}", self.rows());
        Tensor {
            data: Arc::clone(&self.data),
            shape: Shape::matrix(k, self.cols()),
        }
    }

    /// Gathers rows by index into a new tensor (feature slicing).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, idx: &[usize]) -> Tensor {
        let cols = self.cols();
        let rows = self.rows();
        let mut out = take_f32(idx.len() * cols);
        for &i in idx {
            assert!(i < rows, "gather index {i} out of bounds for {rows} rows");
            out.extend_from_slice(&self.data()[i * cols..(i + 1) * cols]);
        }
        Tensor::from_vec(out, Shape::matrix(idx.len(), cols))
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Maximum element.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn max(&self) -> f32 {
        assert!(!self.is_empty(), "max() of empty tensor");
        self.data().iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// The L2 norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data().iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = take_f32(self.len());
        out.extend(self.data().iter().map(|&x| f(x)));
        Tensor::from_vec(out, self.shape.clone())
    }

    /// Elementwise binary zip with another tensor of identical shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub(crate) fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "zip shape mismatch {} vs {}",
            self.shape, other.shape
        );
        let mut out = take_f32(self.len());
        out.extend(self.data().iter().zip(other.data()).map(|(&a, &b)| f(a, b)));
        Tensor::from_vec(out, self.shape.clone())
    }

    /// In-place `self += alpha * other` (used by optimizers and all-reduce).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub(crate) fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "axpy shape mismatch {} vs {}",
            self.shape, other.shape
        );
        let dst = self.data_mut();
        for (d, s) in dst.iter_mut().zip(other.data()) {
            *d += alpha * s;
        }
    }

    /// In-place multiply by a scalar.
    pub(crate) fn scale(&mut self, alpha: f32) {
        for d in self.data_mut() {
            *d *= alpha;
        }
    }

    /// In-place set to zero, preserving shape and (if unshared) allocation.
    pub(crate) fn zero_(&mut self) {
        for d in self.data_mut() {
            *d = 0.0;
        }
    }

    /// Whether every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data().iter().all(|x| x.is_finite())
    }

    /// Maximum absolute difference to another tensor of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        self.data()
            .iter()
            .zip(other.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data() == other.data()
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={}, ", self.shape)?;
        if self.len() <= 8 {
            write!(f, "data={:?})", self.data())
        } else {
            write!(f, "data=[{}, {}, ...])", self.data()[0], self.data()[1])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_and_at() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        assert_eq!(t.at(&[0, 0]), 1.0);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
    }

    #[test]
    #[should_panic(expected = "cannot have shape")]
    fn from_vec_wrong_len_panics() {
        Tensor::from_vec(vec![1.0; 5], [2, 3]);
    }

    #[test]
    fn clone_is_shallow_until_mutated() {
        let mut a = Tensor::zeros([4]);
        let b = a.clone();
        a.data_mut()[0] = 7.0;
        assert_eq!(a.at(&[0]), 7.0);
        assert_eq!(b.at(&[0]), 0.0, "copy-on-write must not affect clones");
    }

    #[test]
    fn narrow_and_gather() {
        let t = Tensor::from_vec((0..12).map(|i| i as f32).collect(), [4, 3]);
        let head = t.narrow_rows(2);
        assert_eq!(head.shape().dims(), &[2, 3]);
        assert_eq!(head.data(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let picked = t.gather_rows(&[3, 0]);
        assert_eq!(picked.data(), &[9.0, 10.0, 11.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0], [3]);
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.max(), 3.0);
        assert!((t.mean() - 2.0 / 3.0).abs() < 1e-6);
        assert!((t.norm() - (14.0f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::ones([3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]);
        a.axpy(2.0, &b);
        assert_eq!(a.data(), &[3.0, 5.0, 7.0]);
        a.scale(0.5);
        assert_eq!(a.data(), &[1.5, 2.5, 3.5]);
    }

    #[test]
    fn reshape_shares_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let v = t.reshape([4]);
        assert_eq!(v.at(&[3]), 4.0);
    }

    #[test]
    fn row_view() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        assert_eq!(t.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn finite_check() {
        assert!(Tensor::ones([2]).all_finite());
        assert!(!Tensor::full([2], f32::NAN).all_finite());
    }
}
