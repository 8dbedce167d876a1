//! Integer SpMM and GEMM kernels for the quantized compute path.
//!
//! These are the compute half of [`crate::quant`]: the storage types hold
//! int8/int16 payloads behind symmetric scales, and the kernels here
//! multiply those payloads directly — products and sums stay in a widened
//! integer accumulator (`i32` for int8, `i64` for int16) and only the final
//! per-element accumulator is converted to f32 and scaled. Dequantization
//! therefore happens **once per operator**, at the output boundary, never
//! inside the accumulation loop.
//!
//! ## Exactness contract
//!
//! Integer addition is associative and commutative, so — unlike the f32
//! kernel suite, whose bit-identity rests on every schedule preserving
//! ascending-column accumulation order — the quantized kernels are
//! bit-exact against the scalar references for *any* traversal order,
//! worker count or tile geometry. The differential harness in
//! `tests/quant_differential.rs` pins this: [`ParallelQuantSpmm`] against
//! [`quant_spmm_reference`], and [`quant_matmul_blocked`] at every block
//! geometry against [`quant_matmul_reference`].
//!
//! ## Overflow bounds
//!
//! * int8: `|a·b| ≤ 127² = 16 129`, so an `i32` accumulator is safe for
//!   rows/inner-dimensions up to ~133 000 terms — far beyond any row degree
//!   or hidden width in the evaluated datasets.
//! * int16: `|a·b| ≤ 32 767² ≈ 1.07e9` overflows `i32` after two terms, so
//!   the int16 path accumulates in `i64` (safe to ~8.6e9 terms).
//!
//! The final `acc as f32 * scale` conversion rounds once, deterministically,
//! per output element — identical on every schedule.

use crate::quant::QuantizedTensor;
use crate::sparse_ops;
use crate::{NnError, Result, Tensor};
use gcod_graph::{QuantValues, QuantizedCsr};
use gcod_runtime::Pool;

/// Rows of the right-hand operand one blocked integer-GEMM pass streams;
/// same geometry rationale as the f32 `Tensor::matmul` blocking.
const QUANT_K_BLOCK: usize = 64;

/// Output columns one blocked integer-GEMM pass touches before moving on.
const QUANT_COL_BLOCK: usize = 1024;

/// An integer element type the quantized kernels can compute on, paired
/// with its widened accumulator.
trait QuantInt: Copy + Send + Sync {
    /// The widened accumulator (`i32` for i8, `i64` for i16).
    type Acc: Copy + Send;

    /// The zero accumulator.
    const ZERO: Self::Acc;

    /// `acc + a * b` in the widened domain.
    fn mul_acc(acc: Self::Acc, a: Self, b: Self) -> Self::Acc;

    /// Converts a finished accumulator to f32 and applies the combined
    /// scale. One deterministic rounding per output element.
    fn acc_to_f32(acc: Self::Acc, scale: f32) -> f32;
}

impl QuantInt for i8 {
    type Acc = i32;
    const ZERO: i32 = 0;

    #[inline]
    fn mul_acc(acc: i32, a: i8, b: i8) -> i32 {
        acc + a as i32 * b as i32
    }

    #[inline]
    fn acc_to_f32(acc: i32, scale: f32) -> f32 {
        acc as f32 * scale
    }
}

impl QuantInt for i16 {
    type Acc = i64;
    const ZERO: i64 = 0;

    #[inline]
    fn mul_acc(acc: i64, a: i16, b: i16) -> i64 {
        acc + a as i64 * b as i64
    }

    #[inline]
    fn acc_to_f32(acc: i64, scale: f32) -> f32 {
        acc as f32 * scale
    }
}

fn check_quant_spmm_shapes(kernel: &str, a: &QuantizedCsr, x: &QuantizedTensor) -> Result<()> {
    if a.cols() != x.rows() {
        return Err(NnError::ShapeMismatch {
            context: format!(
                "quant-spmm[{kernel}]: adjacency {}x{} × features {}x{}",
                a.rows(),
                a.cols(),
                x.rows(),
                x.cols()
            ),
        });
    }
    if a.width() != x.width() {
        return Err(NnError::ShapeMismatch {
            context: format!(
                "quant-spmm[{kernel}]: adjacency is {} but features are {}",
                a.width().name(),
                x.width().name()
            ),
        });
    }
    Ok(())
}

/// Accumulates one CSR row into `acc` (one slot per feature column) in the
/// widened integer domain.
#[inline]
fn quant_row_into_acc<T: QuantInt>(
    cols: &[u32],
    vals: &[T],
    x_vals: &[T],
    x_cols: usize,
    acc: &mut [T::Acc],
) {
    for (&c, &v) in cols.iter().zip(vals) {
        let x_row = &x_vals[c as usize * x_cols..(c as usize + 1) * x_cols];
        for (slot, &xv) in acc.iter_mut().zip(x_row) {
            *slot = T::mul_acc(*slot, v, xv);
        }
    }
}

/// The one quantized SpMM row loop: computes output rows `rows` of `A · X`
/// into `chunk` (exactly those rows of the output), one row at a time with a
/// private widened-integer accumulator and one dequantizing conversion per
/// element. The scalar oracle runs it over the single range `0..rows`; the
/// pooled kernel over one cost-balanced range per lane.
fn spmm_rows_typed<T: QuantInt>(
    a: &QuantizedCsr,
    a_vals: &[T],
    x_vals: &[T],
    x_cols: usize,
    scale: f32,
    rows: std::ops::Range<usize>,
    chunk: &mut [f32],
) {
    let mut acc = vec![T::ZERO; x_cols];
    for (local, r) in rows.enumerate() {
        acc.fill(T::ZERO);
        let range = a.row_range(r);
        quant_row_into_acc(
            &a.indices()[range.clone()],
            &a_vals[range],
            x_vals,
            x_cols,
            &mut acc,
        );
        let out_row = &mut chunk[local * x_cols..(local + 1) * x_cols];
        for (o, &slot) in out_row.iter_mut().zip(acc.iter()) {
            *o = T::acc_to_f32(slot, scale);
        }
    }
}

fn spmm_typed<T: QuantInt>(
    a: &QuantizedCsr,
    a_vals: &[T],
    x_vals: &[T],
    x_cols: usize,
    scale: f32,
    lanes: usize,
) -> Tensor {
    let rows = a.rows();
    let mut out = Tensor::zeros(rows, x_cols);
    if lanes <= 1 {
        spmm_rows_typed(a, a_vals, x_vals, x_cols, scale, 0..rows, out.data_mut());
    } else {
        let indptr = a.indptr();
        Pool::global().parallel_for_ranges(
            rows,
            out.data_mut(),
            lanes,
            |r| indptr[r + 1] - indptr[r],
            |range, chunk| spmm_rows_typed(a, a_vals, x_vals, x_cols, scale, range, chunk),
        );
    }
    out
}

/// Shape/width checks plus the width dispatch shared by the oracle
/// (`lanes == 1`) and the pooled kernel.
fn quant_spmm(kernel: &str, a: &QuantizedCsr, x: &QuantizedTensor, lanes: usize) -> Result<Tensor> {
    check_quant_spmm_shapes(kernel, a, x)?;
    let scale = a.scale() * x.scale();
    Ok(match (a.values(), x.values()) {
        (QuantValues::I8(av), QuantValues::I8(xv)) => spmm_typed(a, av, xv, x.cols(), scale, lanes),
        (QuantValues::I16(av), QuantValues::I16(xv)) => {
            spmm_typed(a, av, xv, x.cols(), scale, lanes)
        }
        _ => unreachable!("width equality checked above"),
    })
}

/// The scalar fixed-point SpMM oracle: one row at a time, non-zeros in
/// ascending column order, a widened integer accumulator per output element,
/// one dequantizing conversion at the end of each row.
///
/// Every [`QuantSpmmKernel`] must be bit-exact against this — and because
/// the accumulation is *integer*, that exactness holds for any schedule,
/// not just order-preserving ones.
///
/// # Errors
///
/// Returns [`NnError::ShapeMismatch`] when `a.cols() != x.rows()` or the
/// operand widths differ.
pub fn quant_spmm_reference(a: &QuantizedCsr, x: &QuantizedTensor) -> Result<Tensor> {
    quant_spmm("reference", a, x, 1)
}

/// A sparse × dense multiplication kernel over quantized operands:
/// `A · X` with `A` a [`QuantizedCsr`] and `X` a [`QuantizedTensor`] of the
/// same width. The result is the dequantized f32 product.
///
/// Implementations must be bit-exact against [`quant_spmm_reference`] at
/// every worker count — the integer accumulation contract (see the module
/// docs) makes that a property of the arithmetic, not of the schedule.
pub trait QuantSpmmKernel: std::fmt::Debug + Send + Sync {
    /// Stable kernel name used in reports and benchmark labels.
    fn name(&self) -> &'static str;

    /// Computes `A · X`, dequantized to f32.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `A.cols() != X.rows()` or the
    /// operand widths differ.
    fn spmm(&self, a: &QuantizedCsr, x: &QuantizedTensor) -> Result<Tensor>;
}

/// The scalar quantized SpMM kernel: [`quant_spmm_reference`] behind the
/// kernel trait. Every [`crate::kernels::KernelKind`] except `ParallelCsr`
/// maps here on the quantized path (the tiled/degree-binned schedules have
/// no quantized analogue yet; see ROADMAP).
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveQuantSpmm;

impl QuantSpmmKernel for NaiveQuantSpmm {
    fn name(&self) -> &'static str {
        "quant-naive"
    }

    fn spmm(&self, a: &QuantizedCsr, x: &QuantizedTensor) -> Result<Tensor> {
        quant_spmm_reference(a, x)
    }
}

/// Row-range-parallel quantized SpMM over the persistent
/// [`gcod_runtime::Pool`], mirroring the f32 `ParallelCsr` kernel: output
/// rows are partitioned into contiguous ranges balanced by non-zero count,
/// each worker accumulates its rows in a private widened-integer buffer and
/// writes the dequantized f32 row into its output chunk.
#[derive(Debug, Clone, Copy)]
pub struct ParallelQuantSpmm {
    /// Parallel lanes; 0 (the default) selects the global pool's lane count.
    pub workers: usize,
    /// MAC count below which `spmm` stays on the calling thread (same
    /// rationale and default as the f32 `ParallelCsr`); 0 forces the pooled
    /// path on any size, which the differential tests use.
    pub scalar_cutoff_macs: u64,
}

impl Default for ParallelQuantSpmm {
    fn default() -> Self {
        Self {
            workers: 0,
            scalar_cutoff_macs: crate::POOL_DISPATCH_MIN_MACS,
        }
    }
}

impl ParallelQuantSpmm {
    /// A parallel quantized kernel with an explicit worker count (0 = auto).
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers,
            ..Self::default()
        }
    }

    /// Explicit worker count *and* scalar cut-off (0 = always pooled).
    pub fn with_workers_and_cutoff(workers: usize, scalar_cutoff_macs: u64) -> Self {
        Self {
            workers,
            scalar_cutoff_macs,
        }
    }
}

impl QuantSpmmKernel for ParallelQuantSpmm {
    fn name(&self) -> &'static str {
        "quant-parallel"
    }

    fn spmm(&self, a: &QuantizedCsr, x: &QuantizedTensor) -> Result<Tensor> {
        let lanes = Pool::global()
            .effective_workers(self.workers)
            .clamp(1, a.rows().max(1));
        let too_small = sparse_ops::spmm_macs(a.nnz(), x.cols()) < self.scalar_cutoff_macs;
        let lanes = if x.cols() == 0 || too_small { 1 } else { lanes };
        quant_spmm(self.name(), a, x, lanes)
    }
}

/// Instantiates the quantized SpMM kernel matching a f32 [`KernelKind`]
/// selection: `ParallelCsr` maps to [`ParallelQuantSpmm`] with the given
/// worker count, every other kind to the scalar [`NaiveQuantSpmm`] (the
/// tiled and degree-binned schedules have no quantized analogue yet).
///
/// [`KernelKind`]: crate::kernels::KernelKind
pub fn quant_kernel_for(
    kind: crate::kernels::KernelKind,
    workers: usize,
) -> Box<dyn QuantSpmmKernel> {
    match kind {
        crate::kernels::KernelKind::ParallelCsr => {
            Box::new(ParallelQuantSpmm::with_workers(workers))
        }
        _ => Box::new(NaiveQuantSpmm),
    }
}

fn check_quant_matmul_shapes(a: &QuantizedTensor, b: &QuantizedTensor) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(NnError::ShapeMismatch {
            context: format!(
                "quant-matmul: {}x{} × {}x{}",
                a.rows(),
                a.cols(),
                b.rows(),
                b.cols()
            ),
        });
    }
    if a.width() != b.width() {
        return Err(NnError::ShapeMismatch {
            context: format!(
                "quant-matmul: left is {} but right is {}",
                a.width().name(),
                b.width().name()
            ),
        });
    }
    Ok(())
}

/// The scalar fixed-point GEMM oracle: the plain i-k-j loop with a widened
/// integer accumulator row, dequantized once per output element.
///
/// # Errors
///
/// Returns [`NnError::ShapeMismatch`] when the inner dimensions or operand
/// widths differ.
pub fn quant_matmul_reference(a: &QuantizedTensor, b: &QuantizedTensor) -> Result<Tensor> {
    check_quant_matmul_shapes(a, b)?;
    let scale = a.scale() * b.scale();
    let (m, inner, n) = (a.rows(), a.cols(), b.cols());
    Ok(match (a.values(), b.values()) {
        (QuantValues::I8(av), QuantValues::I8(bv)) => matmul_ref_typed(av, bv, m, inner, n, scale),
        (QuantValues::I16(av), QuantValues::I16(bv)) => {
            matmul_ref_typed(av, bv, m, inner, n, scale)
        }
        _ => unreachable!("width equality checked above"),
    })
}

fn matmul_ref_typed<T: QuantInt>(
    a: &[T],
    b: &[T],
    m: usize,
    inner: usize,
    n: usize,
    scale: f32,
) -> Tensor {
    let mut out = Tensor::zeros(m, n);
    if m == 0 || inner == 0 || n == 0 {
        return out;
    }
    let mut acc = vec![T::ZERO; n];
    for i in 0..m {
        acc.fill(T::ZERO);
        for k in 0..inner {
            let av = a[i * inner + k];
            let b_row = &b[k * n..(k + 1) * n];
            for (slot, &bv) in acc.iter_mut().zip(b_row) {
                *slot = T::mul_acc(*slot, av, bv);
            }
        }
        for (o, &slot) in out.row_mut(i).iter_mut().zip(acc.iter()) {
            *o = T::acc_to_f32(slot, scale);
        }
    }
    out
}

/// Blocked, pool-parallel quantized GEMM with the default block geometry.
/// Small products stay on the calling thread (same cut-off as the f32
/// `Tensor::matmul_with`); results are bit-exact against
/// [`quant_matmul_reference`] for every worker count.
///
/// # Errors
///
/// Returns [`NnError::ShapeMismatch`] when the inner dimensions or operand
/// widths differ.
pub fn quant_matmul(a: &QuantizedTensor, b: &QuantizedTensor, workers: usize) -> Result<Tensor> {
    let macs = a.rows() as u64 * a.cols() as u64 * b.cols() as u64;
    let workers = if macs < crate::POOL_DISPATCH_MIN_MACS {
        1
    } else {
        workers
    };
    quant_matmul_blocked(a, b, workers, QUANT_K_BLOCK, QUANT_COL_BLOCK)
}

/// Fully explicit blocked quantized GEMM: `workers` parallel lanes (0 = pool
/// default), `k_block` rows of `b` per inner pass and `col_block` output
/// columns per tile (0 = the whole axis as one block). An explicit worker
/// count is honoured unconditionally so tests can drive the pooled path on
/// tiny fixtures.
///
/// Each worker accumulates its row range in a private widened-integer buffer
/// across all k/column tiles, converting to f32 only after the last tile —
/// so any block geometry is bit-exact against [`quant_matmul_reference`]
/// by integer associativity, not by order preservation.
///
/// # Errors
///
/// Returns [`NnError::ShapeMismatch`] when the inner dimensions or operand
/// widths differ.
pub fn quant_matmul_blocked(
    a: &QuantizedTensor,
    b: &QuantizedTensor,
    workers: usize,
    k_block: usize,
    col_block: usize,
) -> Result<Tensor> {
    check_quant_matmul_shapes(a, b)?;
    let scale = a.scale() * b.scale();
    let (m, inner, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Tensor::zeros(m, n);
    if m == 0 || inner == 0 || n == 0 {
        return Ok(out);
    }
    let k_block = if k_block == 0 { inner } else { k_block };
    let col_block = if col_block == 0 { n } else { col_block };
    let workers = Pool::global().effective_workers(workers);
    match (a.values(), b.values()) {
        (QuantValues::I8(av), QuantValues::I8(bv)) => matmul_blocked_typed(
            av, bv, inner, n, scale, workers, k_block, col_block, &mut out,
        ),
        (QuantValues::I16(av), QuantValues::I16(bv)) => matmul_blocked_typed(
            av, bv, inner, n, scale, workers, k_block, col_block, &mut out,
        ),
        _ => unreachable!("width equality checked above"),
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn matmul_blocked_typed<T: QuantInt>(
    a: &[T],
    b: &[T],
    inner: usize,
    n: usize,
    scale: f32,
    workers: usize,
    k_block: usize,
    col_block: usize,
    out: &mut Tensor,
) {
    let m = out.rows();
    Pool::global().parallel_for_ranges(
        m,
        out.data_mut(),
        workers,
        |_| 1,
        |rows, chunk| {
            // Integer accumulators for this worker's whole row range: tiles
            // add into it in any order, one f32 conversion at the very end.
            let mut acc = vec![T::ZERO; rows.len() * n];
            for j0 in (0..n).step_by(col_block) {
                let j1 = (j0 + col_block).min(n);
                for k0 in (0..inner).step_by(k_block) {
                    let k1 = (k0 + k_block).min(inner);
                    for (local, i) in rows.clone().enumerate() {
                        let a_row = &a[i * inner + k0..i * inner + k1];
                        let acc_row = &mut acc[local * n + j0..local * n + j1];
                        let b_rows = b[k0 * n..k1 * n].chunks_exact(n);
                        for (&av, b_row) in a_row.iter().zip(b_rows) {
                            for (slot, &bv) in acc_row.iter_mut().zip(&b_row[j0..j1]) {
                                *slot = T::mul_acc(*slot, av, bv);
                            }
                        }
                    }
                }
            }
            for (o, &slot) in chunk.iter_mut().zip(acc.iter()) {
                *o = T::acc_to_f32(slot, scale);
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::QuantizedTensor;
    use gcod_graph::{CooMatrix, CsrMatrix, QuantWidth};

    fn skewed_matrix(rows: usize, cols: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(rows, cols);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for r in 0..rows {
            // Every 8th row is a hub touching many columns.
            let degree = if r % 8 == 0 { cols.min(24) } else { 3 };
            for d in 0..degree {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let c = (state as usize + d) % cols;
                let v = ((state % 255) as f32 - 127.0) / 64.0;
                let _ = coo.push(r, c, v);
            }
        }
        coo.to_csr()
    }

    fn patterned(rows: usize, cols: usize, salt: u64) -> Tensor {
        let data = (0..rows * cols)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
                ((h % 2048) as f32 - 1024.0) / 256.0
            })
            .collect();
        Tensor::from_vec(rows, cols, data).unwrap()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn parallel_quant_spmm_is_bit_exact_at_every_worker_count() {
        let m = skewed_matrix(41, 29);
        let x = patterned(29, 13, 7);
        for width in [QuantWidth::I8, QuantWidth::I16] {
            let a_q = gcod_graph::QuantizedCsr::quantize(&m, width);
            let x_q = QuantizedTensor::quantize(&x, width);
            let reference = quant_spmm_reference(&a_q, &x_q).unwrap();
            for workers in [0usize, 1, 2, 3, 5] {
                let kernel = ParallelQuantSpmm::with_workers_and_cutoff(workers, 0);
                let out = kernel.spmm(&a_q, &x_q).unwrap();
                assert_eq!(
                    bits(&out),
                    bits(&reference),
                    "{} workers, {}",
                    workers,
                    width.name()
                );
            }
        }
    }

    #[test]
    fn blocked_quant_matmul_is_bit_exact_for_every_geometry() {
        let a = patterned(23, 17, 1);
        let b = patterned(17, 11, 2);
        for width in [QuantWidth::I8, QuantWidth::I16] {
            let a_q = QuantizedTensor::quantize(&a, width);
            let b_q = QuantizedTensor::quantize(&b, width);
            let reference = quant_matmul_reference(&a_q, &b_q).unwrap();
            for workers in [0usize, 1, 2, 4] {
                let out = quant_matmul(&a_q, &b_q, workers).unwrap();
                assert_eq!(bits(&out), bits(&reference), "{workers}w {}", width.name());
            }
            for (kb, jb) in [(1, 1), (3, 5), (0, 0), (17, 11), (100, 100)] {
                let out = quant_matmul_blocked(&a_q, &b_q, 2, kb, jb).unwrap();
                assert_eq!(
                    bits(&out),
                    bits(&reference),
                    "blocks {kb}x{jb} {}",
                    width.name()
                );
            }
        }
    }

    #[test]
    fn quant_spmm_tracks_f32_spmm_within_quantization_error() {
        let m = skewed_matrix(32, 32);
        let x = patterned(32, 8, 3);
        let f32_out = sparse_ops::spmm(&m, &x).unwrap();
        let a_q = gcod_graph::QuantizedCsr::quantize(&m, QuantWidth::I16);
        let x_q = QuantizedTensor::quantize(&x, QuantWidth::I16);
        let q_out = quant_spmm_reference(&a_q, &x_q).unwrap();
        let rel = f32_out.sub(&q_out).unwrap().norm() / f32_out.norm().max(1e-9);
        assert!(rel < 1e-3, "int16 spmm drifts {rel} from f32");
    }

    #[test]
    fn width_mismatch_is_rejected() {
        let m = skewed_matrix(8, 8);
        let x = patterned(8, 4, 5);
        let a8 = gcod_graph::QuantizedCsr::quantize(&m, QuantWidth::I8);
        let x16 = QuantizedTensor::quantize(&x, QuantWidth::I16);
        assert!(quant_spmm_reference(&a8, &x16).is_err());
        assert!(NaiveQuantSpmm.spmm(&a8, &x16).is_err());
        let a_t8 = QuantizedTensor::quantize(&x, QuantWidth::I8);
        assert!(quant_matmul_reference(&a_t8, &x16).is_err());
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let m = skewed_matrix(6, 9);
        let x = patterned(5, 4, 1);
        let a_q = gcod_graph::QuantizedCsr::quantize(&m, QuantWidth::I8);
        let x_q = QuantizedTensor::quantize(&x, QuantWidth::I8);
        assert!(quant_spmm_reference(&a_q, &x_q).is_err());
        assert!(ParallelQuantSpmm::default().spmm(&a_q, &x_q).is_err());
        let b_q = QuantizedTensor::quantize(&patterned(3, 4, 2), QuantWidth::I8);
        assert!(quant_matmul_reference(&x_q, &b_q).is_err());
        assert!(quant_matmul(&x_q, &b_q, 2).is_err());
    }

    #[test]
    fn degenerate_shapes_are_handled() {
        let empty = CsrMatrix::zeros(0, 0);
        let a_q = gcod_graph::QuantizedCsr::quantize(&empty, QuantWidth::I8);
        let x_q = QuantizedTensor::quantize(&Tensor::zeros(0, 4), QuantWidth::I8);
        assert_eq!(quant_spmm_reference(&a_q, &x_q).unwrap().shape(), (0, 4));
        let a_t = QuantizedTensor::quantize(&Tensor::zeros(2, 0), QuantWidth::I16);
        let b_t = QuantizedTensor::quantize(&Tensor::zeros(0, 3), QuantWidth::I16);
        let out = quant_matmul_reference(&a_t, &b_t).unwrap();
        assert_eq!(out.shape(), (2, 3));
        assert!(out.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn kernel_kind_mapping_routes_parallel_only() {
        use crate::kernels::KernelKind;
        assert_eq!(
            quant_kernel_for(KernelKind::ParallelCsr, 2).name(),
            "quant-parallel"
        );
        for kind in [
            KernelKind::NaiveCsr,
            KernelKind::TiledCsr,
            KernelKind::DegreeBinned,
        ] {
            assert_eq!(quant_kernel_for(kind, 2).name(), "quant-naive");
        }
    }
}
