//! Dense matrix kernels: GEMM, transposed products, bias broadcast.
//!
//! The kernels here are deliberately plain loop nests with a cached
//! row-major layout — no SIMD intrinsics — so the same code builds on
//! any target. The inner loops are arranged `i → k → j` so the
//! innermost accesses are contiguous in both `B` and `C`, which lets
//! LLVM auto-vectorize them. The matrix products split their output
//! rows across the scoped-thread pool in [`crate::par`]. The dense
//! layers' forward `x · Wᵀ` runs [`matmul`] over a `Wᵀ` the layer
//! transposes once and keeps: its `i → k → j` loop skips zero
//! activations and vectorizes over the output features. [`matmul_nt`]
//! computes the same product from `W` directly, one dot product per
//! output (binary spike operands take a sparse gather path); it is
//! the reference the layer is tested against. [`SpikeIndex`] is the
//! row index the conv backward pass gathers its dW product over.
//!
//! # Exactness
//!
//! Every optimization here preserves results bit-for-bit against the
//! plain serial triple loop, for any thread count and block size:
//!
//! * Parallelism and cache blocking only change *which rows/columns
//!   are computed when*; each output element still accumulates its
//!   `k` terms in ascending inner-index order, and no accumulation
//!   crosses a worker boundary.
//! * The sparse paths skip exactly the terms whose spike factor is
//!   `0.0`. Each such product is `±0.0`, and an IEEE-754
//!   accumulation that starts at `+0.0` can never reach `-0.0`
//!   (round-to-nearest returns `+0.0` both for `+0.0 + -0.0` and for
//!   exact cancellation of nonzero terms), so `acc + ±0.0 == acc`
//!   bitwise and dropping the term is a no-op. The kept terms are
//!   `a * 1.0 == a`, exactly.
//! * Hence `matmul(a, &transpose(b))` equals `matmul_nt(a, b)` bitwise
//!   for finite `b`: both start each output at `+0.0` and add its
//!   terms in ascending inner-index order; `matmul` skips the terms
//!   whose `a` factor is `±0.0`, and `matmul_nt` adds them as `±0.0`
//!   (or, on a spike row, adds the `1.0 · b` terms as `b`). A
//!   non-finite `b` entry breaks the equality: `0.0 · ∞` is NaN.

use crate::error::{Result, TensorError};
use crate::kobs::DensityGauge;
use crate::par;
use crate::shape::Shape;
use crate::tensor::Tensor;

static MATMUL_LHS_DENSITY: DensityGauge = DensityGauge::new(
    "snn_tensor_matmul_lhs_density_ratio",
    "fraction of nonzero elements in the most recent matmul/matmul_nt left operand",
);

/// Computes `C = A · B` for row-major rank-2 tensors.
///
/// `A` is `[m, k]`, `B` is `[k, n]`, result is `[m, n]`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if either operand is not
/// rank 2 and [`TensorError::GemmInnerDim`] if the inner dimensions
/// disagree.
///
/// # Examples
///
/// ```
/// use snn_tensor::{linalg, Shape, Tensor};
///
/// let a = Tensor::from_vec(Shape::d2(2, 2), vec![1.0, 2.0, 3.0, 4.0])?;
/// let b = Tensor::from_vec(Shape::d2(2, 1), vec![1.0, 1.0])?;
/// let c = linalg::matmul(&a, &b)?;
/// assert_eq!(c.as_slice(), &[3.0, 7.0]);
/// # Ok::<(), snn_tensor::TensorError>(())
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = dims2(a, "matmul lhs")?;
    let (k2, n) = dims2(b, "matmul rhs")?;
    if k != k2 {
        return Err(TensorError::GemmInnerDim { lhs_cols: k, rhs_rows: k2 });
    }
    let _span = snn_obs::span!("matmul");
    MATMUL_LHS_DENSITY.record(a.as_slice());
    let mut c = Tensor::zeros(Shape::d2(m, n));
    if m == 0 || n == 0 {
        return Ok(c);
    }
    let (av, bv) = (a.as_slice(), b.as_slice());
    let cv = c.as_mut_slice();
    par::for_each_block(cv, n, par::min_granules_for(2 * k * n), |row0, cblock| {
        let rows = cblock.len() / n;
        gemm_into(&av[row0 * k..(row0 + rows) * k], bv, cblock, rows, k, n);
    });
    Ok(c)
}

/// Computes `C = Aᵀ · B` without materializing the transpose.
///
/// `A` is `[k, m]`, `B` is `[k, n]`, result is `[m, n]`. This is the
/// shape that arises for weight gradients (`dW = Xᵀ · dY`).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] or
/// [`TensorError::GemmInnerDim`] on malformed operands.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (k, m) = dims2(a, "matmul_tn lhs")?;
    let (k2, n) = dims2(b, "matmul_tn rhs")?;
    if k != k2 {
        return Err(TensorError::GemmInnerDim { lhs_cols: k, rhs_rows: k2 });
    }
    let _span = snn_obs::span!("matmul_tn");
    let mut c = Tensor::zeros(Shape::d2(m, n));
    if m == 0 || n == 0 {
        return Ok(c);
    }
    let (av, bv) = (a.as_slice(), b.as_slice());
    let cv = c.as_mut_slice();
    par::for_each_block(cv, n, par::min_granules_for(2 * k * n), |row0, cblock| {
        // C[i,j] = sum_p A[p,i] * B[p,j]; `p` stays the outer loop so
        // every element accumulates in the same ascending-`p` order
        // as the serial kernel.
        for p in 0..k {
            let arow = &av[p * m..(p + 1) * m];
            let brow = &bv[p * n..(p + 1) * n];
            for (i, crow) in cblock.chunks_exact_mut(n).enumerate() {
                let aval = arow[row0 + i];
                if aval == 0.0 {
                    continue; // spike matrices are mostly zero; skip the row
                }
                for (cval, &bval) in crow.iter_mut().zip(brow) {
                    *cval += aval * bval;
                }
            }
        }
    });
    Ok(c)
}

/// Computes `C = A · Bᵀ` without materializing the transpose.
///
/// `A` is `[m, k]`, `B` is `[n, k]`, result is `[m, n]`. This is the
/// shape that arises for input gradients (`dX = dY · Wᵀ` with `W`
/// stored `[n, k]` = `[out, in]`).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] or
/// [`TensorError::GemmInnerDim`] on malformed operands.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = dims2(a, "matmul_nt lhs")?;
    let (n, k2) = dims2(b, "matmul_nt rhs")?;
    if k != k2 {
        return Err(TensorError::GemmInnerDim { lhs_cols: k, rhs_rows: k2 });
    }
    let _span = snn_obs::span!("matmul_nt");
    MATMUL_LHS_DENSITY.record(a.as_slice());
    let mut c = Tensor::zeros(Shape::d2(m, n));
    if m == 0 || n == 0 {
        return Ok(c);
    }
    let (av, bv) = (a.as_slice(), b.as_slice());
    let cv = c.as_mut_slice();
    let mut scratch: Vec<Vec<u32>> = Vec::new();
    par::for_each_block_with(
        cv,
        n,
        par::min_granules_for(2 * k * n),
        &mut scratch,
        Vec::new,
        |nz, row0, cblock| {
            for (i, crow) in cblock.chunks_exact_mut(n).enumerate() {
                let arow = &av[(row0 + i) * k..(row0 + i + 1) * k];
                if gather_binary_row(arow, nz) {
                    // Spike row: every nonzero of `arow` is exactly
                    // 1.0, so each dot product is a gather-sum over
                    // `B` in ascending-`p` order — bitwise identical
                    // to the dense loop (see the module docs).
                    for (j, cval) in crow.iter_mut().enumerate() {
                        let brow = &bv[j * k..(j + 1) * k];
                        let mut acc = 0.0f32;
                        for &p in nz.iter() {
                            acc += brow[p as usize];
                        }
                        *cval = acc;
                    }
                } else {
                    for (j, cval) in crow.iter_mut().enumerate() {
                        let brow = &bv[j * k..(j + 1) * k];
                        let mut acc = 0.0f32;
                        for (&x, &y) in arow.iter().zip(brow) {
                            acc += x * y;
                        }
                        *cval = acc;
                    }
                }
            }
        },
    );
    Ok(c)
}

/// Collects the nonzero positions of `row` into `nz` if the row is
/// binary (every entry exactly 0.0 or 1.0) and at most half nonzero
/// — the regime where the gather-sum beats the dense dot. Returns
/// `false` (leaving `nz` unspecified) otherwise.
fn gather_binary_row(row: &[f32], nz: &mut Vec<u32>) -> bool {
    nz.clear();
    let max_nnz = row.len() / 2;
    for (p, &v) in row.iter().enumerate() {
        if v == 0.0 {
            continue;
        }
        if v != 1.0 || nz.len() >= max_nnz {
            return false;
        }
        nz.push(p as u32);
    }
    true
}

/// Raw GEMM on slices: `C += A · B`, `A` `[m,k]`, `B` `[k,n]`, `C`
/// `[m,n]`, all row-major.
///
/// Exposed for the convolution kernels which operate on scratch
/// buffers.
///
/// # Panics
///
/// Debug-asserts the slice lengths match the given dimensions.
pub fn gemm_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    // Cache blocking over columns: 512 f32 columns = 2 KiB per `B`
    // row, so the panel of `B` rows a block touches stays resident
    // while every `A` row sweeps it. Blocking only reorders which
    // elements are touched when — each `C` element still accumulates
    // its terms in ascending-`p` order, so results are bitwise
    // identical for any block size.
    const COL_BLOCK: usize = 512;
    let mut j0 = 0;
    while j0 < n {
        let jb = COL_BLOCK.min(n - j0);
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let crow = &mut c[i * n + j0..i * n + j0 + jb];
            for (p, &aval) in arow.iter().enumerate() {
                if aval == 0.0 {
                    continue;
                }
                let brow = &b[p * n + j0..p * n + j0 + jb];
                for (cval, &bval) in crow.iter_mut().zip(brow) {
                    *cval += aval * bval;
                }
            }
        }
        j0 += jb;
    }
}

/// Row-compressed index of the nonzero positions of a binary (0/1)
/// matrix — the sparse operand the conv backward pass gathers its dW
/// product over (forward sparse convs take the event route instead).
///
/// The buffers are reused across [`SpikeIndex::build`] calls, so a
/// per-layer index allocates only on the first timestep of a
/// sequence.
#[derive(Debug, Clone, Default)]
pub struct SpikeIndex {
    /// `ptr[r]..ptr[r + 1]` brackets row `r`'s entries in `idx`.
    ptr: Vec<u32>,
    /// Column indices of the 1.0 entries, row by row, ascending.
    idx: Vec<u32>,
}

impl SpikeIndex {
    /// Empty index; populated by [`SpikeIndex::build`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-indexes `values` (row-major `[rows, cols]`). Returns
    /// `false` — leaving the index unusable — if any entry is not
    /// exactly 0.0 or 1.0, or if more than `max_nnz` entries are
    /// nonzero (callers pass the density bound above which the dense
    /// kernel wins anyway); either way the scan aborts at the first
    /// disqualifying entry.
    pub fn build(&mut self, values: &[f32], rows: usize, cols: usize, max_nnz: usize) -> bool {
        debug_assert_eq!(values.len(), rows * cols);
        self.ptr.clear();
        self.idx.clear();
        self.ptr.reserve(rows + 1);
        self.ptr.push(0);
        for row in values.chunks_exact(cols) {
            for (j, &v) in row.iter().enumerate() {
                if v == 0.0 {
                    continue;
                }
                if v != 1.0 || self.idx.len() >= max_nnz {
                    return false;
                }
                self.idx.push(j as u32);
            }
            self.ptr.push(self.idx.len() as u32);
        }
        true
    }

    /// Nonzero column indices of row `r`, ascending.
    pub fn row(&self, r: usize) -> &[u32] {
        &self.idx[self.ptr[r] as usize..self.ptr[r + 1] as usize]
    }

    /// Total nonzero count.
    pub fn nnz(&self) -> usize {
        self.idx.len()
    }
}

/// Adds a length-`n` bias row to every row of a `[m, n]` tensor in
/// place.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `bias` is not rank 1 of
/// length `n`.
pub fn add_bias_rows(x: &mut Tensor, bias: &Tensor) -> Result<()> {
    let (m, n) = dims2(x, "add_bias_rows input")?;
    if bias.shape().rank() != 1 || bias.len() != n {
        return Err(TensorError::ShapeMismatch {
            lhs: x.shape(),
            rhs: bias.shape(),
            op: "add_bias_rows",
        });
    }
    let bv = bias.as_slice().to_vec();
    let xv = x.as_mut_slice();
    for i in 0..m {
        for (xval, &bval) in xv[i * n..(i + 1) * n].iter_mut().zip(&bv) {
            *xval += bval;
        }
    }
    Ok(())
}

/// Sums a `[m, n]` tensor over its rows, producing a length-`n`
/// rank-1 tensor. This is the bias-gradient reduction.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if `x` is not rank 2.
pub fn sum_rows(x: &Tensor) -> Result<Tensor> {
    let (m, n) = dims2(x, "sum_rows")?;
    let mut out = Tensor::zeros(Shape::d1(n));
    let (xv, ov) = (x.as_slice(), out.as_mut_slice());
    for i in 0..m {
        for (o, &v) in ov.iter_mut().zip(&xv[i * n..(i + 1) * n]) {
            *o += v;
        }
    }
    Ok(out)
}

/// Returns the transpose of a rank-2 tensor.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if `x` is not rank 2.
pub fn transpose(x: &Tensor) -> Result<Tensor> {
    let (m, n) = dims2(x, "transpose")?;
    let mut out = Tensor::zeros(Shape::d2(n, m));
    let (xv, ov) = (x.as_slice(), out.as_mut_slice());
    for i in 0..m {
        for j in 0..n {
            ov[j * m + i] = xv[i * n + j];
        }
    }
    Ok(out)
}

fn dims2(t: &Tensor, _what: &'static str) -> Result<(usize, usize)> {
    if t.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: t.shape().rank(),
            op: "matrix kernel",
        });
    }
    Ok((t.shape().dim(0), t.shape().dim(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2(r: usize, c: usize, v: Vec<f32>) -> Tensor {
        Tensor::from_vec(Shape::d2(r, c), v).unwrap()
    }

    #[test]
    fn matmul_known_values() {
        let a = t2(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = t2(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = t2(2, 2, vec![1., 2., 3., 4.]);
        let id = t2(2, 2, vec![1., 0., 0., 1.]);
        assert_eq!(matmul(&a, &id).unwrap(), a);
        assert_eq!(matmul(&id, &a).unwrap(), a);
    }

    #[test]
    fn matmul_rejects_bad_dims() {
        let a = t2(2, 3, vec![0.; 6]);
        let b = t2(2, 3, vec![0.; 6]);
        assert!(matches!(matmul(&a, &b), Err(TensorError::GemmInnerDim { .. })));
        let v = Tensor::zeros(Shape::d1(3));
        assert!(matmul(&v, &b).is_err());
    }

    #[test]
    fn tn_matches_explicit_transpose() {
        let a = t2(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let b = t2(3, 4, (0..12).map(|i| i as f32).collect());
        let want = matmul(&transpose(&a).unwrap(), &b).unwrap();
        let got = matmul_tn(&a, &b).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        let a = t2(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = t2(4, 3, (0..12).map(|i| i as f32).collect());
        let want = matmul(&a, &transpose(&b).unwrap()).unwrap();
        let got = matmul_nt(&a, &b).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn bias_and_sum_rows_are_adjoint_shapes() {
        let mut x = Tensor::zeros(Shape::d2(3, 2));
        let b = Tensor::from_vec(Shape::d1(2), vec![1., -1.]).unwrap();
        add_bias_rows(&mut x, &b).unwrap();
        assert_eq!(x.as_slice(), &[1., -1., 1., -1., 1., -1.]);
        let s = sum_rows(&x).unwrap();
        assert_eq!(s.as_slice(), &[3., -3.]);
    }

    #[test]
    fn bias_rejects_wrong_len() {
        let mut x = Tensor::zeros(Shape::d2(3, 2));
        let b = Tensor::zeros(Shape::d1(3));
        assert!(add_bias_rows(&mut x, &b).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = t2(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let tt = transpose(&transpose(&a).unwrap()).unwrap();
        assert_eq!(tt, a);
    }

    #[test]
    fn gemm_skips_zero_rows_correctly() {
        // A with a zero entry must produce the same result as the naive
        // triple loop.
        let a = t2(2, 2, vec![0., 1., 2., 0.]);
        let b = t2(2, 2, vec![5., 6., 7., 8.]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[7., 8., 10., 12.]);
    }

    #[test]
    fn spike_index_accepts_binary_rejects_other() {
        let mut s = SpikeIndex::new();
        let spikes = [0., 1., 0., 0., 1., 1.];
        assert!(s.build(&spikes, 2, 3, 6));
        assert_eq!(s.nnz(), 3);
        assert_eq!(s.row(0), &[1]);
        assert_eq!(s.row(1), &[1, 2]);
        assert!(!s.build(&[0.5, 0.0], 1, 2, 2), "non-binary must be rejected");
        assert!(!s.build(&spikes, 2, 3, 2), "density bound must be enforced");
    }

    #[test]
    fn matmuls_are_thread_count_invariant() {
        // Large enough that the row count clears the per-worker
        // work floor, so threads > 1 genuinely run in parallel.
        let (m, k, n) = (512, 33, 40);
        let a = t2(m, k, (0..m * k).map(|i| (i as f32 * 0.37).sin()).collect());
        let b = t2(k, n, (0..k * n).map(|i| (i as f32 * 0.53).cos()).collect());
        let at = transpose(&a).unwrap();
        let bt = transpose(&b).unwrap();
        let serial = crate::par::with_num_threads(1, || {
            (matmul(&a, &b).unwrap(), matmul_tn(&at, &b).unwrap(), matmul_nt(&a, &bt).unwrap())
        });
        for threads in [2, 3, 8] {
            let parallel = crate::par::with_num_threads(threads, || {
                (matmul(&a, &b).unwrap(), matmul_tn(&at, &b).unwrap(), matmul_nt(&a, &bt).unwrap())
            });
            assert_eq!(serial, parallel);
        }
    }
}
