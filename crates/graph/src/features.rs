//! Node feature storage in host memory, dtype-aware.
//!
//! By default features are stored row-major in IEEE binary16, exactly as the
//! paper's tuned baseline does ("half-precision floating point for feature
//! vectors in host memory to reduce bandwidth pressure in slicing and
//! CPU-to-GPU data transfers", §3): slicing then moves 2 bytes per value and
//! the (simulated) device widens to `f32` once, after the transfer. The same
//! matrix can instead hold full-precision rows ([`Dtype::F32`], selected per
//! dataset; the `salient` binary reads it from `SALIENT_DTYPE`) so the byte-volume
//! lever is measurable: the two layouts run the identical slice/transfer
//! code paths and differ only in bytes moved.
//!
//! The storage itself is a [`FeatureSlab`] — an enum over packed `F16` or
//! `f32` buffers — with borrowed views ([`FeatureRows`] /
//! [`FeatureRowsMut`]) so staging buffers (pinned slots, worker-private
//! scratch) can carry either dtype without generics spreading through the
//! pipeline crates.

#![expect(
    clippy::indexing_slicing,
    reason = "row ranges derive from node ids validated against num_nodes when the dataset is built"
)]

use salient_tensor::{kernels, Dtype, FeatureRows, Tensor, F16};

/// A packed, dtype-tagged feature buffer: the backing storage for the
/// dataset's feature matrix and for every staging buffer that carries sliced
/// rows toward the trainer.
#[derive(Clone, Debug)]
pub enum FeatureSlab {
    /// Packed binary16 values (2 bytes per feature).
    Half(Vec<F16>),
    /// Full-precision values (4 bytes per feature).
    Full(Vec<f32>),
}

impl FeatureSlab {
    /// A slab of `len` zeros in the given dtype. Either dtype takes zeroed
    /// memory from the allocator instead of storing zeros itself, so a large
    /// slab costs nothing until its pages are used: staging buffers are made
    /// with this and overwritten by the first slice.
    pub fn new(dtype: Dtype, len: usize) -> Self {
        match dtype {
            Dtype::F16 => FeatureSlab::Half(F16::zeros(len)),
            Dtype::F32 => FeatureSlab::Full(vec![0.0; len]),
        }
    }

    /// Quantizes (or copies) an `f32` buffer into a slab of the given dtype.
    pub fn from_f32(dtype: Dtype, values: &[f32]) -> Self {
        match dtype {
            Dtype::F16 => FeatureSlab::Half(salient_tensor::quantize(values)),
            Dtype::F32 => FeatureSlab::Full(values.to_vec()),
        }
    }

    /// The element dtype.
    pub fn dtype(&self) -> Dtype {
        match self {
            FeatureSlab::Half(_) => Dtype::F16,
            FeatureSlab::Full(_) => Dtype::F32,
        }
    }

    /// Number of values (not bytes).
    pub fn len(&self) -> usize {
        match self {
            FeatureSlab::Half(v) => v.len(),
            FeatureSlab::Full(v) => v.len(),
        }
    }

    /// Whether the slab holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes occupied by the packed values — the quantity a slice or
    /// host-to-device copy of this slab actually moves.
    pub fn bytes(&self) -> usize {
        self.len() * self.dtype().size_of()
    }

    /// Resizes to `len` values, zero-filling any growth.
    pub fn resize(&mut self, len: usize) {
        match self {
            FeatureSlab::Half(v) => v.resize(len, F16::ZERO),
            FeatureSlab::Full(v) => v.resize(len, 0.0),
        }
    }

    /// Borrowed view of the whole slab.
    pub fn rows(&self) -> FeatureRows<'_> {
        self.view(0, self.len())
    }

    /// Borrowed view of `len` values starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn view(&self, start: usize, len: usize) -> FeatureRows<'_> {
        match self {
            FeatureSlab::Half(v) => FeatureRows::Half(&v[start..start + len]),
            FeatureSlab::Full(v) => FeatureRows::Full(&v[start..start + len]),
        }
    }

    /// Mutable view of the whole slab.
    pub fn rows_mut(&mut self) -> FeatureRowsMut<'_> {
        let len = self.len();
        self.view_mut(0, len)
    }

    /// Mutable view of `len` values starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn view_mut(&mut self, start: usize, len: usize) -> FeatureRowsMut<'_> {
        match self {
            FeatureSlab::Half(v) => FeatureRowsMut::Half(&mut v[start..start + len]),
            FeatureSlab::Full(v) => FeatureRowsMut::Full(&mut v[start..start + len]),
        }
    }

}

/// A mutable, dtype-tagged run of packed feature values.
#[derive(Debug)]
pub enum FeatureRowsMut<'a> {
    /// Binary16 values.
    Half(&'a mut [F16]),
    /// Full-precision values.
    Full(&'a mut [f32]),
}

impl FeatureRowsMut<'_> {
    /// The element dtype.
    pub fn dtype(&self) -> Dtype {
        match self {
            FeatureRowsMut::Half(_) => Dtype::F16,
            FeatureRowsMut::Full(_) => Dtype::F32,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            FeatureRowsMut::Half(v) => v.len(),
            FeatureRowsMut::Full(v) => v.len(),
        }
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies packed values from `src` without changing representation (the
    /// shared-memory copy stage: same dtype in, same dtype out).
    ///
    /// # Panics
    ///
    /// Panics if the dtypes differ or the lengths mismatch.
    #[expect(clippy::panic, reason = "documented dtype contract (# Panics): staging buffers are built at the store's dtype, so a mismatch is a wiring bug")]
    pub fn copy_from(&mut self, src: FeatureRows<'_>) {
        match (self, src) {
            (FeatureRowsMut::Half(d), FeatureRows::Half(s)) => d.copy_from_slice(s),
            (FeatureRowsMut::Full(d), FeatureRows::Full(s)) => d.copy_from_slice(s),
            _ => panic!("feature copy across dtypes (staging buffers must share the store's dtype)"),
        }
    }
}

/// A dense `num_nodes × dim` feature matrix in packed [`Dtype::F16`] or
/// [`Dtype::F32`] storage.
///
/// # Examples
///
/// ```
/// use salient_graph::FeatureMatrix;
///
/// let f = FeatureMatrix::from_f32(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
/// assert_eq!(f.dim(), 3);
/// let row = f.row_f32(1);
/// assert_eq!(row, vec![4.0, 5.0, 6.0]);
/// ```
#[derive(Clone, Debug)]
pub struct FeatureMatrix {
    data: FeatureSlab,
    num_nodes: usize,
    dim: usize,
}

impl FeatureMatrix {
    /// Quantizes an `f32` buffer into half-precision storage (the paper's
    /// default host layout). Use [`FeatureMatrix::from_f32_dtype`] to pick
    /// the dtype explicitly.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != num_nodes * dim`.
    pub fn from_f32(num_nodes: usize, dim: usize, values: &[f32]) -> Self {
        Self::from_f32_dtype(Dtype::F16, num_nodes, dim, values)
    }

    /// Packs an `f32` buffer into storage of the given dtype.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != num_nodes * dim`.
    pub fn from_f32_dtype(dtype: Dtype, num_nodes: usize, dim: usize, values: &[f32]) -> Self {
        assert_eq!(values.len(), num_nodes * dim, "feature buffer size mismatch");
        FeatureMatrix {
            data: FeatureSlab::from_f32(dtype, values),
            num_nodes,
            dim,
        }
    }

    /// A `num_nodes × dim` matrix of zeros, for [`FeatureMatrix::set_row`]
    /// to fill: its pages are not touched until a row is written.
    pub(crate) fn zeros(dtype: Dtype, num_nodes: usize, dim: usize) -> Self {
        FeatureMatrix {
            data: FeatureSlab::new(dtype, num_nodes * dim),
            num_nodes,
            dim,
        }
    }

    /// Stores `values` as row `v`, narrowed to the matrix's dtype as
    /// [`FeatureMatrix::from_f32_dtype`] would.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `values.len() != dim`.
    pub(crate) fn set_row(&mut self, v: usize, values: &[f32]) {
        assert!(v < self.num_nodes, "node {v} out of range");
        match self.data.view_mut(v * self.dim, self.dim) {
            FeatureRowsMut::Half(d) => salient_tensor::narrow_into(values, d),
            FeatureRowsMut::Full(d) => d.copy_from_slice(values),
        }
    }

    /// Number of nodes (rows).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Feature dimensionality (columns).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The storage dtype.
    pub fn dtype(&self) -> Dtype {
        self.data.dtype()
    }

    /// The packed backing storage.
    pub fn slab(&self) -> &FeatureSlab {
        &self.data
    }

    /// Bytes occupied by the feature storage.
    pub fn memory_bytes(&self) -> usize {
        self.data.bytes()
    }

    /// The packed row of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn row(&self, v: u32) -> FeatureRows<'_> {
        let v = v as usize;
        assert!(v < self.num_nodes, "node {v} out of range");
        self.data.view(v * self.dim, self.dim)
    }

    /// Hints the cache that [`FeatureMatrix::row`]`(v)` is about to be read,
    /// one hint per cache line the row touches: a sampler that has just
    /// given `v` a local id knows the slice will copy this row next. A pure
    /// hint, like [`crate::CsrGraph::prefetch_neighbors`]: nothing is read,
    /// and the address arithmetic wraps, so any `v` is accepted.
    #[inline]
    pub fn prefetch_row(&self, v: u32) {
        const LINE: usize = 64;
        let (base, row_bytes) = match &self.data {
            FeatureSlab::Half(d) => (d.as_ptr().cast::<u8>(), self.dim * size_of::<F16>()),
            FeatureSlab::Full(d) => (d.as_ptr().cast::<u8>(), self.dim * size_of::<f32>()),
        };
        let row = base.wrapping_add((v as usize).wrapping_mul(row_bytes));
        for offset in (0..row_bytes).step_by(LINE) {
            kernels::prefetch_read(row.wrapping_add(offset));
        }
        // A row that does not start on a line ends on one the steps missed.
        if row_bytes > 0 {
            kernels::prefetch_read(row.wrapping_add(row_bytes - 1));
        }
    }

    /// Row `v` widened to `f32`.
    pub fn row_f32(&self, v: u32) -> Vec<f32> {
        self.row(v).to_f32_vec()
    }

    /// Serially slices the rows `ids` into `out` at the matrix's own dtype —
    /// the exact data-movement kernel of the paper's batch preparation (a
    /// half-stored matrix moves 2 bytes per value here, which is the whole
    /// point of the layout).
    ///
    /// The kernel is deliberately *serial*: SALIENT's batch-prep threads each
    /// run a serial slice to keep cache locality and avoid inter-thread
    /// contention (§4.2).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != ids.len() * dim`, the dtypes differ, or any id
    /// is out of range.
    #[expect(clippy::panic, reason = "documented dtype contract (# Panics); a mismatch is a wiring bug caught on the first batch, not a runtime fault")]
    pub fn slice_into(&self, ids: &[u32], out: FeatureRowsMut<'_>) {
        assert_eq!(out.len(), ids.len() * self.dim, "slice output size mismatch");
        let dim = self.dim;
        match (&self.data, out) {
            (FeatureSlab::Half(src), FeatureRowsMut::Half(dst)) => {
                for (i, &v) in ids.iter().enumerate() {
                    let v = v as usize;
                    assert!(v < self.num_nodes, "node {v} out of range");
                    dst[i * dim..(i + 1) * dim].copy_from_slice(&src[v * dim..(v + 1) * dim]);
                }
            }
            (FeatureSlab::Full(src), FeatureRowsMut::Full(dst)) => {
                for (i, &v) in ids.iter().enumerate() {
                    let v = v as usize;
                    assert!(v < self.num_nodes, "node {v} out of range");
                    dst[i * dim..(i + 1) * dim].copy_from_slice(&src[v * dim..(v + 1) * dim]);
                }
            }
            _ => panic!("slice output dtype must match the feature store"),
        }
    }

    /// Slices rows and widens to an `f32` [`Tensor`] in one pass (used by
    /// eval and the gather-style training paths after the "transfer").
    /// Dispatches to the parallel gather kernels: the fused f16 gather for
    /// half storage, the plain row gather for full storage.
    pub fn gather_f32(&self, ids: &[u32]) -> Tensor {
        let out = match &self.data {
            FeatureSlab::Half(v) => kernels::gather_rows_forward_f16(v, self.dim, ids),
            FeatureSlab::Full(v) => kernels::gather_rows_forward(v, self.dim, ids),
        };
        Tensor::from_vec(out, [ids.len(), self.dim])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_rows() {
        let f = FeatureMatrix::from_f32(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(f.row_f32(0), vec![1.0, 2.0]);
        assert_eq!(f.row_f32(2), vec![5.0, 6.0]);
        assert_eq!(f.dtype(), Dtype::F16);
        assert_eq!(f.memory_bytes(), 12);
    }

    #[test]
    fn full_precision_store_doubles_bytes() {
        let vals: Vec<f32> = (0..6).map(|i| i as f32).collect();
        let half = FeatureMatrix::from_f32_dtype(Dtype::F16, 3, 2, &vals);
        let full = FeatureMatrix::from_f32_dtype(Dtype::F32, 3, 2, &vals);
        assert_eq!(full.dtype(), Dtype::F32);
        assert_eq!(full.memory_bytes(), 2 * half.memory_bytes());
        assert_eq!(full.row_f32(1), vec![2.0, 3.0]);
        // Same representable values ⇒ rows compare equal across dtypes.
        assert_eq!(full.row(2), half.row(2));
    }

    #[test]
    fn slice_into_gathers_rows() {
        let vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        for dtype in [Dtype::F16, Dtype::F32] {
            let f = FeatureMatrix::from_f32_dtype(dtype, 3, 2, &vals);
            let mut out = FeatureSlab::new(dtype, 4);
            f.slice_into(&[2, 0], out.rows_mut());
            assert_eq!(out.rows().to_f32_vec(), vec![5.0, 6.0, 1.0, 2.0]);
            assert_eq!(out.bytes(), 4 * dtype.size_of());
        }
    }

    #[test]
    fn prefetch_row_accepts_the_last_node_and_beyond() {
        let vals: Vec<f32> = (0..3 * 40).map(|i| i as f32).collect();
        for dtype in [Dtype::F16, Dtype::F32] {
            let f = FeatureMatrix::from_f32_dtype(dtype, 3, 40, &vals);
            f.prefetch_row(2);
            f.prefetch_row(u32::MAX);
            assert_eq!(f.row_f32(2), vals[80..].to_vec());
        }
        FeatureMatrix::from_f32(2, 0, &[]).prefetch_row(1);
    }

    #[test]
    fn gather_f32_matches_slice() {
        let vals: Vec<f32> = (0..12).map(|i| i as f32).collect();
        for dtype in [Dtype::F16, Dtype::F32] {
            let f = FeatureMatrix::from_f32_dtype(dtype, 4, 3, &vals);
            let t = f.gather_f32(&[1, 3]);
            assert_eq!(t.shape().dims(), &[2, 3]);
            assert_eq!(t.data(), &[3.0, 4.0, 5.0, 9.0, 10.0, 11.0]);
        }
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn slice_into_checks_output_len() {
        let f = FeatureMatrix::from_f32(2, 2, &[0.0; 4]);
        let mut out = FeatureSlab::new(Dtype::F16, 3);
        f.slice_into(&[0], out.rows_mut());
    }

    #[test]
    #[should_panic(expected = "dtype must match")]
    fn slice_into_checks_dtype() {
        let f = FeatureMatrix::from_f32(2, 2, &[0.0; 4]);
        let mut out = FeatureSlab::new(Dtype::F32, 2);
        f.slice_into(&[0], out.rows_mut());
    }

    #[test]
    fn quantization_error_is_half_precision() {
        let xs: Vec<f32> = (0..100).map(|i| (i as f32) * 0.3117 - 15.0).collect();
        let f = FeatureMatrix::from_f32(10, 10, &xs);
        for (i, &x) in xs.iter().enumerate() {
            let got = f.row_f32((i / 10) as u32)[i % 10];
            assert!((got - x).abs() <= x.abs() * 1e-3 + 1e-3);
        }
    }

    #[test]
    fn slab_widen_and_copy_round_trip() {
        let vals: Vec<f32> = (0..8).map(|i| i as f32 * 0.5).collect();
        for dtype in [Dtype::F16, Dtype::F32] {
            let slab = FeatureSlab::from_f32(dtype, &vals);
            let mut wide = vec![0.0f32; slab.len()];
            slab.rows().widen_into(&mut wide);
            assert_eq!(wide, vals);
            let mut copy = FeatureSlab::new(dtype, slab.len());
            copy.rows_mut().copy_from(slab.rows());
            assert_eq!(copy.rows(), slab.rows());
        }
    }
}
