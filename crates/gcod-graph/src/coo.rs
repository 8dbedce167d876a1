//! Coordinate (COO) sparse matrix format.
//!
//! COO is the construction-friendly format: a flat list of `(row, col, value)`
//! triplets. The GCoD accelerator's denser branch consumes COO inputs
//! (Sec. V-B of the paper), and every other format in this crate can be built
//! from it.

use crate::{CscMatrix, CsrMatrix, GraphError, Result};
use serde::{Deserialize, Serialize};

/// A sparse matrix stored as coordinate triplets.
///
/// Triplets are kept in insertion order until [`CooMatrix::sort_and_dedup`]
/// or a conversion is requested. Duplicate coordinates are summed on
/// deduplication, matching the usual sparse-assembly semantics.
///
/// # Example
///
/// ```
/// use gcod_graph::CooMatrix;
///
/// # fn main() -> Result<(), gcod_graph::GraphError> {
/// let mut coo = CooMatrix::new(3, 3);
/// coo.push(0, 1, 1.0)?;
/// coo.push(1, 0, 1.0)?;
/// coo.push(2, 2, 2.0)?;
/// assert_eq!(coo.nnz(), 3);
/// let csr = coo.to_csr();
/// assert_eq!(csr.get(2, 2), 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    row_indices: Vec<u32>,
    col_indices: Vec<u32>,
    values: Vec<f32>,
}

impl CooMatrix {
    /// Creates an empty matrix with the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            row_indices: Vec::new(),
            col_indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates an empty matrix with the given shape and entry capacity.
    pub fn with_capacity(rows: usize, cols: usize, capacity: usize) -> Self {
        Self {
            rows,
            cols,
            row_indices: Vec::with_capacity(capacity),
            col_indices: Vec::with_capacity(capacity),
            values: Vec::with_capacity(capacity),
        }
    }

    /// Builds a COO matrix from parallel triplet vectors.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DimensionMismatch`] if the vectors have different
    /// lengths and [`GraphError::IndexOutOfBounds`] if any coordinate exceeds
    /// the shape.
    pub(crate) fn from_triplets(
        rows: usize,
        cols: usize,
        row_indices: Vec<u32>,
        col_indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self> {
        if row_indices.len() != col_indices.len() || row_indices.len() != values.len() {
            return Err(GraphError::DimensionMismatch {
                context: format!(
                    "triplet vectors disagree: rows {}, cols {}, values {}",
                    row_indices.len(),
                    col_indices.len(),
                    values.len()
                ),
            });
        }
        for &r in &row_indices {
            if r as usize >= rows {
                return Err(GraphError::IndexOutOfBounds {
                    index: r as usize,
                    bound: rows,
                    axis: "row",
                });
            }
        }
        for &c in &col_indices {
            if c as usize >= cols {
                return Err(GraphError::IndexOutOfBounds {
                    index: c as usize,
                    bound: cols,
                    axis: "column",
                });
            }
        }
        Ok(Self {
            rows,
            cols,
            row_indices,
            col_indices,
            values,
        })
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let idx: Vec<u32> = (0..n as u32).collect();
        Self {
            rows: n,
            cols: n,
            row_indices: idx.clone(),
            col_indices: idx,
            values: vec![1.0; n],
        }
    }

    /// Appends one entry.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::IndexOutOfBounds`] if the coordinate is outside
    /// the matrix shape.
    pub fn push(&mut self, row: usize, col: usize, value: f32) -> Result<()> {
        if row >= self.rows {
            return Err(GraphError::IndexOutOfBounds {
                index: row,
                bound: self.rows,
                axis: "row",
            });
        }
        if col >= self.cols {
            return Err(GraphError::IndexOutOfBounds {
                index: col,
                bound: self.cols,
                axis: "column",
            });
        }
        self.row_indices.push(row as u32);
        self.col_indices.push(col as u32);
        self.values.push(value);
        Ok(())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries (before deduplication this counts duplicates).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Density of the matrix: `nnz / (rows * cols)`.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
        }
    }

    /// Row index slice.
    pub(crate) fn row_indices(&self) -> &[u32] {
        &self.row_indices
    }

    /// Column index slice.
    pub(crate) fn col_indices(&self) -> &[u32] {
        &self.col_indices
    }

    /// Value slice.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Iterates over `(row, col, value)` triplets in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        self.row_indices
            .iter()
            .zip(&self.col_indices)
            .zip(&self.values)
            .map(|((&r, &c), &v)| (r as usize, c as usize, v))
    }

    /// Sorts entries by `(row, col)` and sums duplicate coordinates.
    pub fn sort_and_dedup(&mut self) {
        let mut order: Vec<usize> = (0..self.values.len()).collect();
        order.sort_unstable_by_key(|&i| (self.row_indices[i], self.col_indices[i]));
        let mut rows = Vec::with_capacity(order.len());
        let mut cols = Vec::with_capacity(order.len());
        let mut vals: Vec<f32> = Vec::with_capacity(order.len());
        for &i in &order {
            let (r, c, v) = (self.row_indices[i], self.col_indices[i], self.values[i]);
            if let (Some(&lr), Some(&lc)) = (rows.last(), cols.last()) {
                if lr == r && lc == c {
                    *vals.last_mut().expect("values nonempty when rows nonempty") += v;
                    continue;
                }
            }
            rows.push(r);
            cols.push(c);
            vals.push(v);
        }
        self.row_indices = rows;
        self.col_indices = cols;
        self.values = vals;
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Self {
        Self {
            rows: self.cols,
            cols: self.rows,
            row_indices: self.col_indices.clone(),
            col_indices: self.row_indices.clone(),
            values: self.values.clone(),
        }
    }

    /// Converts to CSR (sorting and summing duplicates).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut sorted = self.clone();
        sorted.sort_and_dedup();
        let mut indptr = vec![0u64; self.rows + 1];
        for &r in &sorted.row_indices {
            indptr[r as usize + 1] += 1;
        }
        for i in 0..self.rows {
            indptr[i + 1] += indptr[i];
        }
        CsrMatrix::from_parts_unchecked(
            self.rows,
            self.cols,
            indptr,
            sorted.col_indices,
            sorted.values,
        )
    }

    /// Converts to CSC (sorting and summing duplicates).
    pub fn to_csc(&self) -> CscMatrix {
        self.transpose().to_csr().into_csc_of_transpose()
    }

    /// Keeps only the entries for which `predicate(row, col, value)` is true.
    pub fn retain<F>(&mut self, mut predicate: F)
    where
        F: FnMut(usize, usize, f32) -> bool,
    {
        let mut keep_rows = Vec::with_capacity(self.values.len());
        let mut keep_cols = Vec::with_capacity(self.values.len());
        let mut keep_vals = Vec::with_capacity(self.values.len());
        for i in 0..self.values.len() {
            let (r, c, v) = (
                self.row_indices[i] as usize,
                self.col_indices[i] as usize,
                self.values[i],
            );
            if predicate(r, c, v) {
                keep_rows.push(r as u32);
                keep_cols.push(c as u32);
                keep_vals.push(v);
            }
        }
        self.row_indices = keep_rows;
        self.col_indices = keep_cols;
        self.values = keep_vals;
    }

    /// Storage footprint in bytes of the triplet representation.
    pub fn storage_bytes(&self) -> usize {
        self.nnz() * (2 * std::mem::size_of::<u32>() + std::mem::size_of::<f32>())
    }
}

impl FromIterator<(usize, usize, f32)> for CooMatrix {
    /// Collects triplets into a matrix whose shape is the tightest bound of
    /// the seen coordinates.
    fn from_iter<I: IntoIterator<Item = (usize, usize, f32)>>(iter: I) -> Self {
        let mut rows = 0usize;
        let mut cols = 0usize;
        let mut ri = Vec::new();
        let mut ci = Vec::new();
        let mut vals = Vec::new();
        for (r, c, v) in iter {
            rows = rows.max(r + 1);
            cols = cols.max(c + 1);
            ri.push(r as u32);
            ci.push(c as u32);
            vals.push(v);
        }
        Self {
            rows,
            cols,
            row_indices: ri,
            col_indices: ci,
            values: vals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooMatrix {
        let mut coo = CooMatrix::new(4, 4);
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        coo.push(1, 2, 1.0).unwrap();
        coo.push(2, 0, 1.0).unwrap();
        coo.push(2, 3, 1.0).unwrap();
        coo.push(3, 1, 1.0).unwrap();
        coo
    }

    #[test]
    fn push_and_nnz() {
        let coo = sample();
        assert_eq!(coo.nnz(), 6);
        assert_eq!(coo.rows(), 4);
        assert_eq!(coo.cols(), 4);
    }

    #[test]
    fn push_rejects_out_of_bounds() {
        let mut coo = CooMatrix::new(2, 2);
        assert!(matches!(
            coo.push(2, 0, 1.0),
            Err(GraphError::IndexOutOfBounds { axis: "row", .. })
        ));
        assert!(matches!(
            coo.push(0, 5, 1.0),
            Err(GraphError::IndexOutOfBounds { axis: "column", .. })
        ));
    }

    #[test]
    fn from_triplets_validates_lengths() {
        let err = CooMatrix::from_triplets(2, 2, vec![0], vec![0, 1], vec![1.0]);
        assert!(matches!(err, Err(GraphError::DimensionMismatch { .. })));
    }

    #[test]
    fn sort_and_dedup_sums_duplicates() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 0, 2.5).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        coo.sort_and_dedup();
        assert_eq!(coo.nnz(), 2);
        assert_eq!(coo.values()[0], 3.5);
    }

    #[test]
    fn identity_has_unit_diagonal() {
        let eye = CooMatrix::identity(5);
        assert_eq!(eye.nnz(), 5);
        for (r, c, v) in eye.iter() {
            assert_eq!(r, c);
            assert_eq!(v, 1.0);
        }
    }

    #[test]
    fn transpose_swaps_indices() {
        let coo = sample();
        let t = coo.transpose();
        assert_eq!(t.rows(), coo.cols());
        let orig: Vec<_> = coo.iter().collect();
        let trans: Vec<_> = t.iter().collect();
        for ((r, c, _), (tr, tc, _)) in orig.iter().zip(&trans) {
            assert_eq!(*r, *tc);
            assert_eq!(*c, *tr);
        }
    }

    #[test]
    fn density_of_empty_is_zero() {
        let coo = CooMatrix::new(0, 0);
        assert_eq!(coo.density(), 0.0);
    }

    #[test]
    fn retain_filters_entries() {
        let mut coo = sample();
        coo.retain(|r, _, _| r < 2);
        assert_eq!(coo.nnz(), 3);
        assert!(coo.iter().all(|(r, _, _)| r < 2));
    }

    #[test]
    fn from_iterator_infers_shape() {
        let coo: CooMatrix = vec![(0, 0, 1.0), (3, 2, 2.0)].into_iter().collect();
        assert_eq!(coo.rows(), 4);
        assert_eq!(coo.cols(), 3);
        assert_eq!(coo.nnz(), 2);
    }

    #[test]
    fn to_csr_roundtrip_values() {
        let coo = sample();
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), coo.nnz());
        for (r, c, v) in coo.iter() {
            assert_eq!(csr.get(r, c), v);
        }
    }
}
