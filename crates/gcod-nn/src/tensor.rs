//! Row-major dense matrix used throughout the GNN substrate.

use crate::{NnError, Result};
use gcod_runtime::Pool;
use serde::{Deserialize, Serialize};

/// Rows of the right-hand matrix one blocked-matmul inner pass streams: a
/// 64-row × 128-column f32 block is 32 KiB, L1/L2-resident on any core, and
/// reused across every output row of a worker's range.
const MATMUL_K_BLOCK: usize = 64;

/// Output columns one blocked-matmul pass touches before moving on; only
/// bites for very wide outputs, keeping the output-row segment and the
/// right-hand block cache-resident together.
const MATMUL_COL_BLOCK: usize = 1024;

/// Below this many elements a transpose is pure-serial: the pool dispatch
/// cost (see [`crate::POOL_DISPATCH_MIN_MACS`]) dominates smaller moves.
const TRANSPOSE_PARALLEL_MIN_ELEMS: usize = 1 << 16;

/// A dense 2-D tensor stored row-major in `f32`.
///
/// This deliberately stays a plain matrix: every operation GCN training
/// needs (dense matmul, transpose, row-wise softmax, ReLU, elementwise
/// arithmetic, reductions) is provided as a method, and the sparse side
/// lives in [`crate::sparse_ops`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// A tensor of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Builds a tensor from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(NnError::ShapeMismatch {
                context: format!("data length {} != {rows} * {cols}", data.len()),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    /// Underlying data slice (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying data slice (row-major).
    pub(crate) fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: f32) {
        self.data[r * self.cols + c] = value;
    }

    /// One row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Dense matrix multiplication `self × other`: cache-blocked and
    /// pool-parallel with the default block geometry and the global pool's
    /// lane count.
    ///
    /// Bit-for-bit identical to [`Tensor::matmul_serial`] for every worker
    /// count and block size: each output element accumulates its `k` terms
    /// in the same ascending order regardless of how rows are split across
    /// workers or how `k`/column blocks tile the traversal, so f32 summation
    /// order — and therefore the result — never changes.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        self.matmul_with(other, 0)
    }

    /// [`Tensor::matmul`] with an explicit worker count (0 = the global
    /// pool's lane count). Results are identical for every count; only
    /// wall-clock changes.
    ///
    /// Products too small to amortise a pool submission stay on the calling
    /// thread *regardless* of the requested count — the worker knob bounds
    /// parallelism, it never forces dispatch overhead onto tiny operations.
    /// Use [`Tensor::matmul_blocked`] to drive the pooled path
    /// unconditionally (the differential tests do).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when the inner dimensions differ.
    pub fn matmul_with(&self, other: &Tensor, workers: usize) -> Result<Tensor> {
        let macs = self.rows as u64 * self.cols as u64 * other.cols as u64;
        let workers = if macs < crate::POOL_DISPATCH_MIN_MACS {
            1
        } else {
            workers
        };
        self.matmul_blocked(other, workers, MATMUL_K_BLOCK, MATMUL_COL_BLOCK)
    }

    /// Fully explicit blocked matmul: `workers` parallel lanes (0 = pool
    /// default), `k_block` rows of `other` per inner pass and `col_block`
    /// output columns per tile (0 = the whole axis as one block). An
    /// explicit worker count is honoured unconditionally — no small-product
    /// cut-off — so tests can drive the pooled path on tiny fixtures.
    ///
    /// Exposed for the differential tests; every geometry is bit-identical
    /// to [`Tensor::matmul_serial`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when the inner dimensions differ.
    pub fn matmul_blocked(
        &self,
        other: &Tensor,
        workers: usize,
        k_block: usize,
        col_block: usize,
    ) -> Result<Tensor> {
        if self.cols != other.rows {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "matmul: {}x{} × {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        let (m, inner, n) = (self.rows, self.cols, other.cols);
        let mut out = Tensor::zeros(m, n);
        if m == 0 || inner == 0 || n == 0 {
            return Ok(out);
        }
        let k_block = if k_block == 0 { inner } else { k_block };
        let col_block = if col_block == 0 { n } else { col_block };
        let pool = Pool::global();
        let macs = m as u64 * inner as u64 * n as u64;
        let workers = if workers == 0 && macs < crate::POOL_DISPATCH_MIN_MACS {
            1
        } else {
            pool.effective_workers(workers)
        };
        pool.parallel_for_ranges(
            m,
            out.data_mut(),
            workers,
            |_| 1,
            |rows, chunk| {
                // j-tile outer, k-tile middle: for any fixed output element the
                // k tiles — and the `k`s inside each tile — arrive in ascending
                // order, matching the serial i-k-j reference exactly. The tile
                // of `other` loaded by one (j0, k0) pass stays cache-resident
                // across every row of this worker's range.
                for j0 in (0..n).step_by(col_block) {
                    let j1 = (j0 + col_block).min(n);
                    for k0 in (0..inner).step_by(k_block) {
                        let k1 = (k0 + k_block).min(inner);
                        for (local, i) in rows.clone().enumerate() {
                            let a_row = &self.data[i * inner + k0..i * inner + k1];
                            let out_row = &mut chunk[local * n + j0..local * n + j1];
                            let b_rows = other.data[k0 * n..k1 * n].chunks_exact(n);
                            for (&a, b_row) in a_row.iter().zip(b_rows) {
                                for (o, &b) in out_row.iter_mut().zip(&b_row[j0..j1]) {
                                    *o += a * b;
                                }
                            }
                        }
                    }
                }
            },
        );
        Ok(out)
    }

    /// The serial reference matmul: the plain i-k-j scalar loop, kept as the
    /// oracle the blocked/parallel implementation is differentially tested
    /// against.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when the inner dimensions differ.
    pub fn matmul_serial(&self, other: &Tensor) -> Result<Tensor> {
        if self.cols != other.rows {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "matmul: {}x{} × {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        let mut out = Tensor::zeros(self.rows, other.cols);
        // i-k-j loop order keeps the inner loop contiguous over `other` and
        // `out`.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                let other_row = &other.data[k * other.cols..(k + 1) * other.cols];
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(other_row) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Transpose. Pool-parallel over output rows for large tensors; pure
    /// data movement, so the result is trivially identical for every worker
    /// count.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        if self.data.is_empty() {
            return out;
        }
        let workers = if self.data.len() < TRANSPOSE_PARALLEL_MIN_ELEMS {
            1
        } else {
            0 // pool default
        };
        let (rows, cols) = (self.rows, self.cols);
        let data = &self.data;
        Pool::global().parallel_for_ranges(
            cols,
            out.data_mut(),
            workers,
            |_| 1,
            |col_range, chunk| {
                for (local, c) in col_range.enumerate() {
                    let out_row = &mut chunk[local * rows..(local + 1) * rows];
                    for (r, slot) in out_row.iter_mut().enumerate() {
                        *slot = data[r * cols + c];
                    }
                }
            },
        );
        out
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, |a, b| a + b, "add")
    }

    /// Elementwise addition in place (`self += other`), avoiding the
    /// allocation of [`Tensor::add`]. Numerically identical to it.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when shapes differ.
    pub(crate) fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "add_assign: {}x{} vs {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when shapes differ.
    #[cfg(test)]
    pub(crate) fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, |a, b| a - b, "sub")
    }

    /// Combines two same-shape tensors elementwise with `op` (`name` labels
    /// the shape error). This is the primitive behind [`Tensor::add`],
    /// [`Tensor::sub`] and friends; it is public so fused elementwise
    /// passes (e.g. the ReLU backward) can run in one allocation.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when shapes differ.
    pub(crate) fn zip_with<F>(&self, other: &Tensor, op: F, name: &str) -> Result<Tensor>
    where
        F: Fn(f32, f32) -> f32,
    {
        if self.shape() != other.shape() {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "{name}: {}x{} vs {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| op(a, b))
            .collect();
        Ok(Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Adds `row` to every row of the tensor in place (bias broadcast).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `row.cols() != self.cols()` or
    /// `row.rows() != 1`.
    pub fn add_row_broadcast_in_place(&mut self, row: &Tensor) -> Result<()> {
        if row.rows != 1 || row.cols != self.cols {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "broadcast row must be 1x{}, got {}x{}",
                    self.cols, row.rows, row.cols
                ),
            });
        }
        for chunk in self.data.chunks_exact_mut(self.cols.max(1)) {
            for (slot, &b) in chunk.iter_mut().zip(&row.data) {
                *slot += b;
            }
        }
        Ok(())
    }

    /// Applies a function elementwise.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// ReLU non-linearity.
    pub(crate) fn relu(&self) -> Tensor {
        self.map(|v| v.max(0.0))
    }

    /// ReLU in place (allocation-free form of [`Tensor::relu`], numerically
    /// identical).
    pub(crate) fn relu_in_place(&mut self) {
        for v in &mut self.data {
            *v = v.max(0.0);
        }
    }

    /// Row-wise softmax (numerically stabilised).
    pub(crate) fn softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        for r in 0..self.rows {
            let row = &mut out.data[r * self.cols..(r + 1) * self.cols];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
        out
    }

    /// Stacks the given rows (in order, duplicates allowed) into a new
    /// `rows.len() × cols` tensor.
    ///
    /// This is the gather half of batched inference serving: a fused forward
    /// pass computes logits for the whole graph once, and each request's
    /// node rows are stacked out of that one result. Each output row is a
    /// bitwise copy, so gathering commutes exactly with any per-row
    /// computation.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when any row index is out of
    /// bounds.
    pub fn gather_rows(&self, rows: &[usize]) -> Result<Tensor> {
        let mut data = Vec::with_capacity(rows.len() * self.cols);
        for &r in rows {
            if r >= self.rows {
                return Err(NnError::ShapeMismatch {
                    context: format!("row index {r} out of bounds for {} rows", self.rows),
                });
            }
            data.extend_from_slice(self.row(r));
        }
        Ok(Tensor {
            rows: rows.len(),
            cols: self.cols,
            data,
        })
    }

    /// Index of the maximum value in each row.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("values are finite"))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Sum of all elements.
    #[cfg(test)]
    pub(crate) fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    #[cfg(test)]
    pub(crate) fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    #[cfg(test)]
    pub(crate) fn norm(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Tensor::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let mut eye = Tensor::zeros(3, 3);
        for i in 0..3 {
            eye.set(i, i, 1.0);
        }
        assert_eq!(a.matmul(&eye).unwrap(), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(NnError::ShapeMismatch { .. })));
        assert!(a.matmul_serial(&b).is_err());
        assert!(a.matmul_blocked(&b, 2, 1, 1).is_err());
    }

    fn patterned(rows: usize, cols: usize, salt: u64) -> Tensor {
        let data = (0..rows * cols)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
                ((h % 1024) as f32 - 512.0) / 128.0
            })
            .collect();
        Tensor::from_vec(rows, cols, data).unwrap()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_serial_reference() {
        let a = patterned(37, 23, 1);
        let b = patterned(23, 19, 2);
        let reference = a.matmul_serial(&b).unwrap();
        assert_eq!(bits(&a.matmul(&b).unwrap()), bits(&reference));
        for workers in [0usize, 1, 2, 4] {
            let out = a.matmul_with(&b, workers).unwrap();
            assert_eq!(bits(&out), bits(&reference), "{workers} workers");
        }
        for (kb, jb) in [(1, 1), (3, 5), (0, 0), (23, 19), (100, 100)] {
            let out = a.matmul_blocked(&b, 2, kb, jb).unwrap();
            assert_eq!(bits(&out), bits(&reference), "blocks {kb}x{jb}");
        }
    }

    #[test]
    fn matmul_handles_degenerate_shapes() {
        // Zero rows, zero inner dimension, zero columns.
        assert_eq!(
            Tensor::zeros(0, 3)
                .matmul(&Tensor::zeros(3, 2))
                .unwrap()
                .shape(),
            (0, 2)
        );
        assert_eq!(
            Tensor::zeros(2, 0).matmul(&Tensor::zeros(0, 4)).unwrap(),
            Tensor::zeros(2, 4)
        );
        assert_eq!(
            Tensor::zeros(2, 3)
                .matmul(&Tensor::zeros(3, 0))
                .unwrap()
                .shape(),
            (2, 0)
        );
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn relu_clamps_negatives() {
        let a = Tensor::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -3.0]).unwrap();
        assert_eq!(a.relu().data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]).unwrap();
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Largest logit keeps the largest probability.
        assert_eq!(s.argmax_rows(), vec![2, 2]);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let a = Tensor::from_vec(1, 2, vec![1000.0, 1001.0]).unwrap();
        let s = a.softmax_rows();
        assert!(s.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec(1, 3, vec![4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[3.0, 3.0, 3.0]);
    }

    #[test]
    fn broadcast_bias() {
        let mut x = Tensor::zeros(2, 3);
        let bias = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap();
        x.add_row_broadcast_in_place(&bias).unwrap();
        assert_eq!(x.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(x.row(1), &[1.0, 2.0, 3.0]);
        assert!(x.add_row_broadcast_in_place(&Tensor::zeros(1, 2)).is_err());
        assert!(x.add_row_broadcast_in_place(&Tensor::zeros(2, 3)).is_err());
    }

    #[test]
    fn in_place_ops_match_their_allocating_forms() {
        let a = patterned(5, 4, 3);
        let b = patterned(5, 4, 9);

        let mut sum = a.clone();
        sum.add_assign(&b).unwrap();
        assert_eq!(bits(&sum), bits(&a.add(&b).unwrap()));
        assert!(sum.add_assign(&Tensor::zeros(2, 2)).is_err());

        let mut rectified = a.clone();
        rectified.relu_in_place();
        assert_eq!(bits(&rectified), bits(&a.relu()));
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert!((a.norm() - 30.0f32.sqrt()).abs() < 1e-6);
        assert_eq!(Tensor::zeros(0, 0).mean(), 0.0);
    }
}
