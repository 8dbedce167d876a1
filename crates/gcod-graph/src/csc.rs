//! Compressed sparse column (CSC) matrix format.
//!
//! The GCoD accelerator's sparser branch stores the off-diagonal adjacency
//! workload in CSC (Sec. V-B): the distributed aggregation dataflow consumes
//! one column of the adjacency matrix per step, which is exactly what CSC
//! makes cheap.

use crate::{CooMatrix, CsrMatrix, GraphError, Result};
use serde::{Deserialize, Serialize};

/// A sparse matrix in compressed sparse column format.
///
/// Invariants mirror [`CsrMatrix`] with rows and columns swapped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<u64>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl CscMatrix {
    /// Builds a CSC matrix, validating the compressed-column invariants.
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
        if indptr.len() != cols + 1 {
            return Err(GraphError::DimensionMismatch {
                context: format!("indptr length {} != cols + 1 = {}", indptr.len(), cols + 1),
            });
        }
        if indptr.first().copied().unwrap_or(0) != 0 || indptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(GraphError::DimensionMismatch {
                context: "indptr must start at 0 and be non-decreasing".to_string(),
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
        for &r in &indices {
            if r as usize >= rows {
                return Err(GraphError::IndexOutOfBounds {
                    index: r as usize,
                    bound: rows,
                    axis: "row",
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

    pub(crate) fn from_parts_unchecked(
        rows: usize,
        cols: usize,
        indptr: Vec<u64>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        debug_assert_eq!(indptr.len(), cols + 1);
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
            indptr: vec![0; cols + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
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

    /// Column pointer array (`cols + 1` entries).
    pub fn indptr(&self) -> &[u64] {
        &self.indptr
    }

    /// Row indices, column-by-column.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Non-zero values, column-by-column.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Row indices and values of column `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col >= self.cols()`.
    pub fn col(&self, col: usize) -> (&[u32], &[f32]) {
        let start = self.indptr[col] as usize;
        let end = self.indptr[col + 1] as usize;
        (&self.indices[start..end], &self.values[start..end])
    }

    /// Value at `(row, col)`, `0.0` when not stored.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        if row >= self.rows || col >= self.cols {
            return 0.0;
        }
        let (rows_slice, vals) = self.col(col);
        match rows_slice.binary_search(&(row as u32)) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    /// Iterates `(row, col, value)` in column-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        (0..self.cols).flat_map(move |c| {
            let (rows, vals) = self.col(c);
            rows.iter()
                .zip(vals)
                .map(move |(&r, &v)| (r as usize, c, v))
        })
    }

    /// Converts back to COO.
    pub fn to_coo(&self) -> CooMatrix {
        self.iter()
            .collect::<CooMatrix>()
            .with_shape(self.rows, self.cols)
    }

    /// Converts to CSR.
    pub fn to_csr(&self) -> CsrMatrix {
        self.to_coo().to_csr()
    }

    /// Storage footprint in bytes (indptr + indices + values).
    pub fn storage_bytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<u64>()
            + self.indices.len() * std::mem::size_of::<u32>()
            + self.values.len() * std::mem::size_of::<f32>()
    }
}

impl CooMatrix {
    /// Returns a copy of `self` with the shape replaced (used when a
    /// collected iterator under-estimates trailing empty rows/columns).
    pub(crate) fn with_shape(mut self, rows: usize, cols: usize) -> CooMatrix {
        // Rebuild through triplets to keep validation in one place.
        let ri = self.row_indices().to_vec();
        let ci = self.col_indices().to_vec();
        let vals = self.values().to_vec();
        self = CooMatrix::from_triplets(rows, cols, ri, ci, vals)
            .expect("shape extension keeps indices valid");
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star() -> CscMatrix {
        // Node 0 connected to 1..4 (directed both ways).
        let mut coo = CooMatrix::new(5, 5);
        for i in 1..5 {
            coo.push(0, i, 1.0).unwrap();
            coo.push(i, 0, 1.0).unwrap();
        }
        coo.to_csc()
    }

    #[test]
    fn get_matches_construction() {
        let m = star();
        assert_eq!(m.get(0, 3), 1.0);
        assert_eq!(m.get(3, 0), 1.0);
        assert_eq!(m.get(2, 3), 0.0);
    }

    #[test]
    fn from_parts_validates() {
        assert!(CscMatrix::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(CscMatrix::from_parts(2, 2, vec![0, 1, 1], vec![9], vec![1.0]).is_err());
        assert!(CscMatrix::from_parts(2, 2, vec![0, 1, 1], vec![1], vec![1.0]).is_ok());
    }

    #[test]
    fn roundtrip_csr() {
        let m = star();
        let csr = m.to_csr();
        assert_eq!(csr.nnz(), m.nnz());
        for (r, c, v) in m.iter() {
            assert_eq!(csr.get(r, c), v);
        }
    }

    #[test]
    fn zeros_shape() {
        let z = CscMatrix::zeros(4, 2);
        assert_eq!(z.rows(), 4);
        assert_eq!(z.cols(), 2);
        assert_eq!(z.nnz(), 0);
    }

    #[test]
    fn csc_storage_smaller_than_coo_for_column_heavy() {
        // CSC shares one pointer per column; COO stores a row and column per
        // entry. For a matrix with many entries per column CSC must win.
        let mut coo = CooMatrix::new(64, 4);
        for c in 0..4usize {
            for r in 0..64usize {
                coo.push(r, c, 1.0).unwrap();
            }
        }
        let csc = coo.to_csc();
        assert!(csc.storage_bytes() < coo.storage_bytes());
    }
}
