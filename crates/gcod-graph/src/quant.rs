//! Reduced-precision (int8 / int16) sparse storage.
//!
//! The GCoD algorithm half quantizes weights, activations and the
//! aggregation operands to narrow integers; the kernels in `gcod-nn` then
//! compute directly on the integer payloads and accumulate in a wider
//! integer type. This module owns the storage side: a symmetric per-matrix
//! scale plus an integer value array sharing the CSR index structure with
//! the f32 original. Keeping the quantized form a *separate* type (rather
//! than a variant inside [`CsrMatrix`]) keeps every existing f32 code path
//! untouched and makes "which precision is this?" a compile-time question
//! in the kernel layer.
//!
//! Quantization is symmetric and per-matrix: `value ≈ scale * q` with
//! `scale = max_abs / qmax` (`qmax` = 127 for int8, 32767 for int16) and
//! `q = round(value / scale)` clamped to `±qmax`. The round-trip error of
//! any single element is therefore at most `scale / 2` (plus clamping,
//! which the scale choice rules out).

use crate::CsrMatrix;

/// Integer width of a quantized payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantWidth {
    /// 8-bit signed integers, accumulated in `i32` by the kernels.
    I8,
    /// 16-bit signed integers, accumulated in `i64` by the kernels.
    I16,
}

impl QuantWidth {
    /// Bytes per stored scalar.
    pub fn bytes(self) -> usize {
        match self {
            QuantWidth::I8 => 1,
            QuantWidth::I16 => 2,
        }
    }

    /// Largest representable magnitude (symmetric range, so the most
    /// negative code `-qmax - 1` is never produced).
    pub fn qmax(self) -> f32 {
        match self {
            QuantWidth::I8 => 127.0,
            QuantWidth::I16 => 32767.0,
        }
    }

    /// Human-readable name (used in bench row keys and reports).
    pub fn name(self) -> &'static str {
        match self {
            QuantWidth::I8 => "int8",
            QuantWidth::I16 => "int16",
        }
    }

    /// The symmetric per-tensor scale for `data`: `max_abs / qmax`, or 1.0
    /// for an all-zero (or empty) slice so dequantization stays exact.
    pub fn scale_for(self, data: &[f32]) -> f32 {
        let max_abs = data.iter().fold(0.0f32, |acc, &v| acc.max(v.abs()));
        if max_abs > 0.0 {
            max_abs / self.qmax()
        } else {
            1.0
        }
    }
}

/// The integer payload of a quantized matrix: one variant per supported
/// width, so kernels can match once per call and run a monomorphic inner
/// loop over a typed slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuantValues {
    /// 8-bit payload.
    I8(Vec<i8>),
    /// 16-bit payload.
    I16(Vec<i16>),
}

impl QuantValues {
    /// Quantizes `data` with the given `scale` (see
    /// [`QuantWidth::scale_for`]).
    pub fn quantize(data: &[f32], width: QuantWidth, scale: f32) -> Self {
        let qmax = width.qmax();
        match width {
            QuantWidth::I8 => QuantValues::I8(
                data.iter()
                    .map(|&v| (v / scale).round().clamp(-qmax, qmax) as i8)
                    .collect(),
            ),
            QuantWidth::I16 => QuantValues::I16(
                data.iter()
                    .map(|&v| (v / scale).round().clamp(-qmax, qmax) as i16)
                    .collect(),
            ),
        }
    }

    /// The width of this payload.
    pub fn width(&self) -> QuantWidth {
        match self {
            QuantValues::I8(_) => QuantWidth::I8,
            QuantValues::I16(_) => QuantWidth::I16,
        }
    }

    /// Number of stored scalars.
    pub fn len(&self) -> usize {
        match self {
            QuantValues::I8(v) => v.len(),
            QuantValues::I16(v) => v.len(),
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dequantizes the whole payload to f32 with `scale`.
    pub fn dequantize(&self, scale: f32) -> Vec<f32> {
        match self {
            QuantValues::I8(v) => v.iter().map(|&q| q as f32 * scale).collect(),
            QuantValues::I16(v) => v.iter().map(|&q| q as f32 * scale).collect(),
        }
    }

    /// Payload bytes (excluding the scale).
    pub fn storage_bytes(&self) -> usize {
        self.len() * self.width().bytes()
    }
}

/// A CSR matrix whose values are symmetric per-matrix quantized integers:
/// `value ≈ scale * q`. The index structure (`indptr`, `indices`) is shared
/// verbatim with the f32 original, so the sparsity pattern — and therefore
/// every tiling / partitioning decision — is identical between the f32 and
/// quantized paths; only the value payload narrows.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedCsr {
    rows: usize,
    cols: usize,
    indptr: Vec<u64>,
    indices: Vec<u32>,
    scale: f32,
    values: QuantValues,
}

impl QuantizedCsr {
    /// Quantizes a CSR matrix at the given width.
    pub fn quantize(csr: &CsrMatrix, width: QuantWidth) -> Self {
        let scale = width.scale_for(csr.values());
        Self {
            rows: csr.rows(),
            cols: csr.cols(),
            indptr: csr.indptr().to_vec(),
            indices: csr.indices().to_vec(),
            scale,
            values: QuantValues::quantize(csr.values(), width, scale),
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

    /// Integer width of the value payload.
    pub fn width(&self) -> QuantWidth {
        self.values.width()
    }

    /// The symmetric quantization scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Row pointer array (`rows + 1` entries), identical to the source CSR.
    pub fn indptr(&self) -> &[u64] {
        &self.indptr
    }

    /// Column indices row-by-row, identical to the source CSR.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The quantized value payload.
    pub fn values(&self) -> &QuantValues {
        &self.values
    }

    /// The half-open value/index range of row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row_range(&self, row: usize) -> std::ops::Range<usize> {
        self.indptr[row] as usize..self.indptr[row + 1] as usize
    }

    /// Dequantizes back to an f32 CSR matrix.
    ///
    /// # Errors
    ///
    /// Never in practice — the index structure is copied from a valid CSR —
    /// but the validating constructor's error type is propagated rather than
    /// unwrapped.
    #[cfg(test)]
    fn dequantize(&self) -> crate::Result<CsrMatrix> {
        CsrMatrix::from_parts(
            self.rows,
            self.cols,
            self.indptr.clone(),
            self.indices.clone(),
            self.values.dequantize(self.scale),
        )
    }

    /// Storage footprint in bytes (indptr + indices + quantized values +
    /// scale).
    pub fn storage_bytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<u64>()
            + self.indices.len() * std::mem::size_of::<u32>()
            + self.values.storage_bytes()
            + std::mem::size_of::<f32>()
    }

    /// Worst-case absolute round-trip error against the original values.
    pub fn max_error(&self, original: &CsrMatrix) -> f32 {
        self.values
            .dequantize(self.scale)
            .iter()
            .zip(original.values())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn sample(rows: usize, cols: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                if (i * 7 + j * 3) % 5 == 0 {
                    let v = ((i * cols + j) as f32 - 4.0) / 3.0;
                    coo.push(i, j, v).unwrap();
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn widths_report_bytes_and_qmax() {
        assert_eq!(QuantWidth::I8.bytes(), 1);
        assert_eq!(QuantWidth::I16.bytes(), 2);
        assert_eq!(QuantWidth::I8.qmax(), 127.0);
        assert_eq!(QuantWidth::I16.qmax(), 32767.0);
        assert_eq!(QuantWidth::I8.name(), "int8");
        assert_eq!(QuantWidth::I16.name(), "int16");
    }

    #[test]
    fn quantized_csr_preserves_structure() {
        let m = sample(9, 7);
        for width in [QuantWidth::I8, QuantWidth::I16] {
            let q = QuantizedCsr::quantize(&m, width);
            assert_eq!(q.rows(), m.rows());
            assert_eq!(q.cols(), m.cols());
            assert_eq!(q.nnz(), m.nnz());
            assert_eq!(q.indptr(), m.indptr());
            assert_eq!(q.indices(), m.indices());
            assert_eq!(q.width(), width);
            for r in 0..m.rows() {
                assert_eq!(q.row_range(r).len(), m.row_nnz(r));
            }
        }
    }

    #[test]
    fn roundtrip_error_within_half_scale() {
        let m = sample(12, 12);
        for width in [QuantWidth::I8, QuantWidth::I16] {
            let q = QuantizedCsr::quantize(&m, width);
            assert!(
                q.max_error(&m) <= q.scale() / 2.0 + 1e-6,
                "{} error {} > scale/2 {}",
                width.name(),
                q.max_error(&m),
                q.scale() / 2.0
            );
            let back = q.dequantize().unwrap();
            assert_eq!(back.indptr(), m.indptr());
            assert_eq!(back.indices(), m.indices());
        }
    }

    #[test]
    fn int16_is_strictly_tighter_than_int8() {
        let m = sample(16, 16);
        let q8 = QuantizedCsr::quantize(&m, QuantWidth::I8);
        let q16 = QuantizedCsr::quantize(&m, QuantWidth::I16);
        assert!(q16.scale() < q8.scale());
        assert!(q16.max_error(&m) <= q8.max_error(&m));
    }

    #[test]
    fn storage_shrinks_with_width() {
        let m = sample(32, 32);
        let q8 = QuantizedCsr::quantize(&m, QuantWidth::I8);
        let q16 = QuantizedCsr::quantize(&m, QuantWidth::I16);
        // Index structure dominates, but the value payload must narrow.
        assert!(q8.storage_bytes() < q16.storage_bytes());
        assert!(q16.storage_bytes() < m.storage_bytes());
        assert_eq!(q8.values().storage_bytes(), m.nnz());
        assert_eq!(q16.values().storage_bytes(), m.nnz() * 2);
        // Exact totals: u64 indptr, u32 indices, then the values (f32, or
        // the quantized width plus one f32 scale).
        let index_bytes = (m.rows() + 1) * 8 + m.nnz() * 4;
        assert_eq!(m.storage_bytes(), index_bytes + m.nnz() * 4);
        assert_eq!(q8.storage_bytes(), index_bytes + m.nnz() + 4);
        assert_eq!(q16.storage_bytes(), index_bytes + m.nnz() * 2 + 4);
    }

    #[test]
    fn zero_matrix_quantizes_cleanly() {
        let z = CsrMatrix::zeros(4, 4);
        let q = QuantizedCsr::quantize(&z, QuantWidth::I8);
        assert_eq!(q.scale(), 1.0);
        assert_eq!(q.dequantize().unwrap(), z);
        assert!(q.values().is_empty());
    }
}
