//! Compressed sparse row (CSR) matrix format.
//!
//! CSR is the workhorse format for row-wise traversal: aggregation of a
//! node's in-neighbours, SpMM with row-major dense operands, and the
//! "gathered aggregation" dataflow of HyGCN all walk rows.

use crate::{CooMatrix, CscMatrix, GraphError, Result};
use serde::{Deserialize, Serialize};

/// A sparse matrix in compressed sparse row format.
///
/// Invariants (enforced by [`CsrMatrix::from_parts`]):
/// * `indptr.len() == rows + 1`, `indptr[0] == 0`, non-decreasing,
/// * `indices.len() == values.len() == indptr[rows]`,
/// * every column index is `< cols`,
/// * column indices are sorted within each row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<u64>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix, validating all invariants.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DimensionMismatch`] or
    /// [`GraphError::IndexOutOfBounds`] when an invariant is violated.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<u64>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self> {
        if indptr.len() != rows + 1 {
            return Err(GraphError::DimensionMismatch {
                context: format!("indptr length {} != rows + 1 = {}", indptr.len(), rows + 1),
            });
        }
        if indptr.first().copied().unwrap_or(0) != 0 {
            return Err(GraphError::DimensionMismatch {
                context: "indptr must start at 0".to_string(),
            });
        }
        if indptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(GraphError::DimensionMismatch {
                context: "indptr must be non-decreasing".to_string(),
            });
        }
        let nnz = *indptr.last().unwrap_or(&0) as usize;
        if indices.len() != nnz || values.len() != nnz {
            return Err(GraphError::DimensionMismatch {
                context: format!(
                    "nnz {} disagrees with indices {} / values {}",
                    nnz,
                    indices.len(),
                    values.len()
                ),
            });
        }
        for &c in &indices {
            if c as usize >= cols {
                return Err(GraphError::IndexOutOfBounds {
                    index: c as usize,
                    bound: cols,
                    axis: "column",
                });
            }
        }
        for r in 0..rows {
            let (start, end) = (indptr[r] as usize, indptr[r + 1] as usize);
            if indices[start..end].windows(2).any(|w| w[0] >= w[1]) {
                return Err(GraphError::DimensionMismatch {
                    context: format!("row {r} has unsorted or duplicate column indices"),
                });
            }
        }
        Ok(Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        })
    }

    /// Builds a CSR matrix without validation. Used internally by conversions
    /// that construct valid data by construction.
    pub(crate) fn from_parts_unchecked(
        rows: usize,
        cols: usize,
        indptr: Vec<u64>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        debug_assert_eq!(indptr.len(), rows + 1);
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// An empty matrix with the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        CooMatrix::identity(n).to_csr()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Density: `nnz / (rows * cols)`.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
        }
    }

    /// Row pointer array (`rows + 1` entries).
    pub fn indptr(&self) -> &[u64] {
        &self.indptr
    }

    /// Column indices, row-by-row.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Non-zero values, row-by-row.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Number of non-zeros in row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub(crate) fn row_nnz(&self, row: usize) -> usize {
        (self.indptr[row + 1] - self.indptr[row]) as usize
    }

    /// Column indices and values of row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row(&self, row: usize) -> (&[u32], &[f32]) {
        let start = self.indptr[row] as usize;
        let end = self.indptr[row + 1] as usize;
        (&self.indices[start..end], &self.values[start..end])
    }

    /// Value at `(row, col)`, `0.0` when not stored.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        if row >= self.rows || col >= self.cols {
            return 0.0;
        }
        let (cols_slice, vals) = self.row(row);
        match cols_slice.binary_search(&(col as u32)) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    /// Iterates `(row, col, value)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter()
                .zip(vals)
                .map(move |(&c, &v)| (r, c as usize, v))
        })
    }

    /// Out-degree per row (number of stored entries).
    pub fn row_degrees(&self) -> Vec<usize> {
        (0..self.rows).map(|r| self.row_nnz(r)).collect()
    }

    /// Converts back to COO.
    pub fn to_coo(&self) -> CooMatrix {
        let mut rows_idx = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            for _ in self.indptr[r]..self.indptr[r + 1] {
                rows_idx.push(r as u32);
            }
        }
        CooMatrix::from_triplets(
            self.rows,
            self.cols,
            rows_idx,
            self.indices.clone(),
            self.values.clone(),
        )
        .expect("CSR invariants imply valid COO")
    }

    /// Converts to CSC.
    pub fn to_csc(&self) -> CscMatrix {
        self.to_coo().to_csc()
    }

    /// Transposes the matrix (result is again CSR).
    pub fn transpose(&self) -> CsrMatrix {
        self.to_coo().transpose().to_csr()
    }

    /// Reinterprets this CSR matrix (assumed to be the transpose of the
    /// logical matrix) as a CSC matrix of the original.
    pub(crate) fn into_csc_of_transpose(self) -> CscMatrix {
        CscMatrix::from_parts_unchecked(
            self.cols,
            self.rows,
            self.indptr,
            self.indices,
            self.values,
        )
    }

    /// Extracts the sub-matrix restricted to `row_set` × `col_set`, relabelled
    /// to the positions within those sets.
    ///
    /// Both sets must be sorted ascending; entries outside the sets are
    /// dropped.
    pub fn submatrix(&self, row_set: &[usize], col_set: &[usize]) -> CsrMatrix {
        let mut col_pos = vec![usize::MAX; self.cols];
        for (new, &old) in col_set.iter().enumerate() {
            if old < self.cols {
                col_pos[old] = new;
            }
        }
        let mut coo = CooMatrix::with_capacity(row_set.len(), col_set.len(), self.nnz());
        for (new_r, &old_r) in row_set.iter().enumerate() {
            if old_r >= self.rows {
                continue;
            }
            let (cols, vals) = self.row(old_r);
            for (&c, &v) in cols.iter().zip(vals) {
                let nc = col_pos[c as usize];
                if nc != usize::MAX {
                    coo.push(new_r, nc, v)
                        .expect("indices are in range by construction");
                }
            }
        }
        coo.to_csr()
    }

    /// Column indices and values of row `row` restricted to the half-open
    /// column range `[col_start, col_end)`.
    ///
    /// Because column indices are sorted within a row, the restriction is a
    /// contiguous sub-slice found by binary search — this is the primitive
    /// cache-tiled SpMM kernels use to walk one row column-tile by
    /// column-tile without re-scanning the whole row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub(crate) fn row_slice_in_cols(
        &self,
        row: usize,
        col_start: usize,
        col_end: usize,
    ) -> (&[u32], &[f32]) {
        let (cols, vals) = self.row(row);
        let lo = cols.partition_point(|&c| (c as usize) < col_start);
        let hi = lo + cols[lo..].partition_point(|&c| (c as usize) < col_end);
        (&cols[lo..hi], &vals[lo..hi])
    }

    /// The half-open tile boundaries covering `[0, extent)` in steps of
    /// `tile` (the last tile may be shorter). A `tile` of 0 is treated as one
    /// tile spanning the whole extent.
    ///
    /// Used by the blocked SpMM kernels in `gcod-nn` so every consumer
    /// agrees on how an axis is tiled.
    pub fn tile_bounds(extent: usize, tile: usize) -> Vec<(usize, usize)> {
        if extent == 0 {
            return Vec::new();
        }
        let tile = if tile == 0 { extent } else { tile };
        (0..extent)
            .step_by(tile)
            .map(|start| (start, (start + tile).min(extent)))
            .collect()
    }

    /// Counts the non-zeros that fall inside the square block
    /// `[row_start, row_end) × [col_start, col_end)`.
    pub fn block_nnz(
        &self,
        row_start: usize,
        row_end: usize,
        col_start: usize,
        col_end: usize,
    ) -> usize {
        (row_start..row_end.min(self.rows))
            .map(|r| self.row_slice_in_cols(r, col_start, col_end).0.len())
            .sum()
    }

    /// Storage footprint in bytes (indptr + indices + values).
    pub fn storage_bytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<u64>()
            + self.indices.len() * std::mem::size_of::<u32>()
            + self.values.len() * std::mem::size_of::<f32>()
    }

    /// Applies a symmetric permutation `P A P^T`: entry `(i, j)` moves to
    /// `(perm[i], perm[j])`.
    pub fn permute_symmetric(&self, perm: &crate::Permutation) -> CsrMatrix {
        let mut coo = CooMatrix::with_capacity(self.rows, self.cols, self.nnz());
        for (r, c, v) in self.iter() {
            coo.push(perm.apply(r), perm.apply(c), v)
                .expect("permutation preserves bounds");
        }
        coo.to_csr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> CsrMatrix {
        // Path graph 0-1-2-...-(n-1), symmetric.
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n - 1 {
            coo.push(i, i + 1, 1.0).unwrap();
            coo.push(i + 1, i, 1.0).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn from_parts_validates_indptr_length() {
        let err = CsrMatrix::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]);
        assert!(matches!(err, Err(GraphError::DimensionMismatch { .. })));
    }

    #[test]
    fn from_parts_validates_sorted_columns() {
        let err = CsrMatrix::from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]);
        assert!(matches!(err, Err(GraphError::DimensionMismatch { .. })));
    }

    #[test]
    fn from_parts_validates_column_bounds() {
        let err = CsrMatrix::from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]);
        assert!(matches!(err, Err(GraphError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn get_returns_zero_for_missing() {
        let m = chain(4);
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(0, 3), 0.0);
        assert_eq!(m.get(10, 10), 0.0);
    }

    #[test]
    fn row_degrees_of_chain() {
        let m = chain(5);
        assert_eq!(m.row_degrees(), vec![1, 2, 2, 2, 1]);
    }

    #[test]
    fn roundtrip_coo_csr_csc() {
        let m = chain(6);
        let coo = m.to_coo();
        let csc = m.to_csc();
        assert_eq!(coo.nnz(), m.nnz());
        assert_eq!(csc.nnz(), m.nnz());
        for (r, c, v) in m.iter() {
            assert_eq!(csc.get(r, c), v);
        }
    }

    #[test]
    fn transpose_of_symmetric_is_equal() {
        let m = chain(5);
        assert_eq!(m.transpose(), m);
    }

    #[test]
    fn submatrix_extracts_block() {
        let m = chain(6);
        let sub = m.submatrix(&[0, 1, 2], &[0, 1, 2]);
        assert_eq!(sub.rows(), 3);
        assert_eq!(sub.cols(), 3);
        assert_eq!(sub.nnz(), 4); // edges 0-1 and 1-2 in both directions
    }

    #[test]
    fn block_nnz_counts_quadrants() {
        let m = chain(4);
        let total = m.block_nnz(0, 4, 0, 4);
        assert_eq!(total, m.nnz());
        let diag_upper = m.block_nnz(0, 2, 0, 2);
        assert_eq!(diag_upper, 2);
    }

    #[test]
    fn row_slice_in_cols_matches_linear_scan() {
        let m = chain(8);
        for r in 0..m.rows() {
            for (c0, c1) in [(0, 8), (2, 5), (0, 0), (5, 5), (7, 8), (0, 3)] {
                let (cols, vals) = m.row_slice_in_cols(r, c0, c1);
                let (all_cols, all_vals) = m.row(r);
                let expected: Vec<(u32, f32)> = all_cols
                    .iter()
                    .zip(all_vals)
                    .filter(|(&c, _)| (c as usize) >= c0 && (c as usize) < c1)
                    .map(|(&c, &v)| (c, v))
                    .collect();
                let got: Vec<(u32, f32)> = cols.iter().zip(vals).map(|(&c, &v)| (c, v)).collect();
                assert_eq!(got, expected, "row {r} cols [{c0}, {c1})");
            }
        }
    }

    #[test]
    fn tile_bounds_cover_the_extent_exactly() {
        assert_eq!(CsrMatrix::tile_bounds(10, 4), vec![(0, 4), (4, 8), (8, 10)]);
        assert_eq!(CsrMatrix::tile_bounds(8, 4), vec![(0, 4), (4, 8)]);
        assert_eq!(CsrMatrix::tile_bounds(3, 8), vec![(0, 3)]);
        assert_eq!(CsrMatrix::tile_bounds(0, 4), Vec::new());
        // tile = 0 degrades to a single all-covering tile.
        assert_eq!(CsrMatrix::tile_bounds(5, 0), vec![(0, 5)]);
        // Tiles partition [0, extent): consecutive, non-overlapping, complete.
        let bounds = CsrMatrix::tile_bounds(17, 5);
        assert_eq!(bounds.first().unwrap().0, 0);
        assert_eq!(bounds.last().unwrap().1, 17);
        for w in bounds.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }

    #[test]
    fn zeros_has_no_entries() {
        let z = CsrMatrix::zeros(3, 7);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.rows(), 3);
        assert_eq!(z.cols(), 7);
        assert_eq!(z.get(1, 1), 0.0);
    }

    #[test]
    fn identity_diagonal() {
        let eye = CsrMatrix::identity(4);
        for i in 0..4 {
            assert_eq!(eye.get(i, i), 1.0);
        }
        assert_eq!(eye.nnz(), 4);
    }

    #[test]
    fn storage_bytes_positive() {
        let m = chain(4);
        assert!(m.storage_bytes() > 0);
    }
}
