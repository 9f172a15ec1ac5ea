//! The dense `f32` tensor type used throughout the workspace.

use std::fmt;
use std::ops::{Add, Mul, Sub};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::{Result, TensorError};
use crate::shape::Shape;

/// A dense, row-major tensor of `f32` values with rank 1–4.
///
/// `Tensor` is the workhorse value type for activations, weights, and
/// gradients. It intentionally stays simple: contiguous storage, eager
/// operations, explicit shapes. All neural-network kernels (GEMM,
/// convolution, pooling) live in sibling modules and operate on
/// `Tensor` values.
///
/// Storage is copy-on-write ([`Arc`]-shared): [`Clone`] and
/// [`Tensor::reshape`] are O(1) pointer copies, and the underlying
/// buffer is duplicated only when a shared tensor is mutated. The
/// BPTT engine caches a spike tensor per layer per timestep *and*
/// hands the same tensor to the next layer, so sharing those buffers
/// removes one full activation copy per step.
///
/// # Examples
///
/// ```
/// use snn_tensor::{Shape, Tensor};
///
/// let a = Tensor::from_vec(Shape::d2(2, 2), vec![1.0, 2.0, 3.0, 4.0])?;
/// let b = Tensor::full(Shape::d2(2, 2), 0.5);
/// let c = a.zip(&b, |x, y| x * y)?;
/// assert_eq!(c.as_slice(), &[0.5, 1.0, 1.5, 2.0]);
/// # Ok::<(), snn_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Arc<Vec<f32>>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Tensor { data: Arc::new(vec![0.0; shape.len()]), shape }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        Tensor { data: Arc::new(vec![value; shape.len()]), shape }
    }

    /// Creates a tensor from raw row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLength`] if `data.len()` does not
    /// match the element count of `shape`.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self> {
        let shape = shape.into();
        if data.len() != shape.len() {
            return Err(TensorError::DataLength { expected: shape.len(), actual: data.len() });
        }
        Ok(Tensor { shape, data: Arc::new(data) })
    }

    /// Creates a tensor by evaluating `f` at every linear index.
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut(usize) -> f32) -> Self {
        let shape = shape.into();
        let data = (0..shape.len()).map(&mut f).collect();
        Tensor { shape, data: Arc::new(data) }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the raw row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the raw row-major data.
    ///
    /// If the storage is shared with other tensors (via [`Clone`] or
    /// [`Tensor::reshape`]), this first detaches a private copy
    /// (copy-on-write); on uniquely owned tensors it is free.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        let data: &mut Vec<f32> = Arc::make_mut(&mut self.data);
        data
    }

    /// True when `self` and `other` share one storage buffer and have
    /// the same shape.
    ///
    /// Storage is copy-on-write, so shared storage implies identical
    /// contents: any mutation through either tensor detaches a copy
    /// first. A caller that keeps a clone to compare against later
    /// also keeps the buffer alive, so its address cannot be reused
    /// by an unrelated tensor.
    pub fn same_storage(&self, other: &Tensor) -> bool {
        self.shape == other.shape && Arc::ptr_eq(&self.data, &other.data)
    }

    /// Value at a rank-2 index.
    #[inline]
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        self.data[self.shape.offset2(i, j)]
    }

    /// Value at a rank-4 index.
    #[inline]
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.shape.offset4(n, c, h, w)]
    }

    /// Sets the value at a rank-4 index.
    #[inline]
    pub fn set4(&mut self, n: usize, c: usize, h: usize, w: usize, v: f32) {
        let off = self.shape.offset4(n, c, h, w);
        Arc::make_mut(&mut self.data)[off] = v;
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeCount`] if the element counts
    /// differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Tensor> {
        let shape = shape.into();
        if shape.len() != self.len() {
            return Err(TensorError::ReshapeCount { from: self.len(), to: shape.len() });
        }
        Ok(Tensor { shape, data: self.data.clone() })
    }

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { shape: self.shape, data: Arc::new(self.data.iter().map(|&x| f(x)).collect()) }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        self.check_same_shape(other, "zip")?;
        let data = self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect();
        Ok(Tensor { shape: self.shape, data: Arc::new(data) })
    }

    /// Elementwise `self += other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        self.check_same_shape(other, "add_assign")?;
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// Elementwise `self += scale * other` (AXPY).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn axpy(&mut self, scale: f32, other: &Tensor) -> Result<()> {
        self.check_same_shape(other, "axpy")?;
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.data.iter()) {
            *a += scale * b;
        }
        Ok(())
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_in_place(&mut self, s: f32) {
        for x in self.as_mut_slice() {
            *x *= s;
        }
    }

    /// Returns a copy scaled by `s`.
    pub fn scaled(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Fills the tensor with `value`.
    pub fn fill(&mut self, value: f32) {
        self.as_mut_slice().fill(value);
    }

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&x| x as f64).sum()
    }

    /// Mean of all elements.
    ///
    /// Returns 0.0 for an empty tensor.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Maximum element, or `f32::NEG_INFINITY` for an empty tensor.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element, or `f32::INFINITY` for an empty tensor.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Number of non-zero elements (NaN counts, `±0.0` does not); see
    /// [`crate::spike::count_nonzero`].
    pub fn count_nonzero(&self) -> usize {
        crate::spike::count_nonzero(&self.data)
    }

    /// Fraction of elements equal to zero (1.0 for an empty tensor).
    ///
    /// This is the *sparsity* measure used by the accelerator workload
    /// model: spike tensors are {0, 1}-valued, so `density = 1 -
    /// sparsity` equals the firing rate.
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 1.0;
        }
        1.0 - self.count_nonzero() as f64 / self.data.len() as f64
    }

    /// Sum of squares of all elements.
    pub fn sq_norm(&self) -> f64 {
        self.data.iter().map(|&x| (x as f64) * (x as f64)).sum()
    }

    /// Index of the maximum element of a rank-1 tensor or a row of a
    /// rank-2 tensor.
    ///
    /// For rank-2 tensors `row` selects the row; for rank-1 tensors it
    /// must be 0.
    ///
    /// # Panics
    ///
    /// Panics if the tensor rank is not 1 or 2, or `row` is out of
    /// range.
    pub fn argmax_row(&self, row: usize) -> usize {
        let (start, len) = match self.shape.rank() {
            1 => {
                assert_eq!(row, 0, "rank-1 tensor has a single row");
                (0, self.len())
            }
            2 => {
                let cols = self.shape.dim(1);
                assert!(row < self.shape.dim(0), "row {row} out of range");
                (row * cols, cols)
            }
            r => panic!("argmax_row expects rank 1 or 2, got rank {r}"),
        };
        let slice = &self.data[start..start + len];
        let mut best = 0usize;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in slice.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Extracts one item of the leading (batch) axis as a tensor of
    /// rank `rank-1` (or rank 1 if the source is rank 1... the source
    /// must be rank >= 2).
    ///
    /// # Panics
    ///
    /// Panics if the tensor rank is < 2 or `index` is out of range.
    pub fn batch_item(&self, index: usize) -> Tensor {
        assert!(self.shape.rank() >= 2, "batch_item requires rank >= 2");
        let n = self.shape.dim(0);
        assert!(index < n, "batch index {index} out of range for {n}");
        let item_len = self.len() / n;
        let dims = self.shape.dims();
        let item_shape = Shape::from_dims(&dims[1..]);
        let start = index * item_len;
        Tensor {
            shape: item_shape,
            data: Arc::new(self.data[start..start + item_len].to_vec()),
        }
    }

    /// Stacks rank-R tensors of identical shape into a rank-(R+1)
    /// tensor along a new leading axis.
    ///
    /// # Errors
    ///
    /// Returns an error if `items` is empty, shapes differ, or the
    /// result would exceed rank 4.
    pub fn stack(items: &[Tensor]) -> Result<Tensor> {
        let first = items.first().ok_or_else(|| {
            TensorError::BadGeometry("cannot stack an empty list of tensors".into())
        })?;
        if first.shape.rank() >= 4 {
            return Err(TensorError::BadGeometry(
                "stacking rank-4 tensors would exceed the maximum rank".into(),
            ));
        }
        let mut data = Vec::with_capacity(first.len() * items.len());
        for it in items {
            if it.shape != first.shape {
                return Err(TensorError::ShapeMismatch {
                    lhs: first.shape,
                    rhs: it.shape,
                    op: "stack",
                });
            }
            data.extend_from_slice(&it.data);
        }
        let mut dims = vec![items.len()];
        dims.extend_from_slice(first.shape.dims());
        Ok(Tensor { shape: Shape::from_dims(&dims), data: Arc::new(data) })
    }

    fn check_same_shape(&self, other: &Tensor, op: &'static str) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch { lhs: self.shape, rhs: other.shape, op });
        }
        Ok(())
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const MAX_SHOWN: usize = 16;
        write!(f, "Tensor{} [", self.shape)?;
        for (i, v) in self.data.iter().take(MAX_SHOWN).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.len() > MAX_SHOWN {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

impl Add<&Tensor> for &Tensor {
    type Output = Tensor;

    /// Elementwise addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch; use [`Tensor::zip`] for a fallible
    /// variant.
    fn add(self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a + b).expect("tensor addition shape mismatch")
    }
}

impl Sub<&Tensor> for &Tensor {
    type Output = Tensor;

    /// Elementwise subtraction.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch; use [`Tensor::zip`] for a fallible
    /// variant.
    fn sub(self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a - b).expect("tensor subtraction shape mismatch")
    }
}

impl Mul<&Tensor> for &Tensor {
    type Output = Tensor;

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch; use [`Tensor::zip`] for a fallible
    /// variant.
    fn mul(self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a * b).expect("tensor multiplication shape mismatch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(Shape::d2(2, 3), vec![1., 2., 3., 4., 5., 6.]).unwrap();
        assert_eq!(t.at2(0, 0), 1.0);
        assert_eq!(t.at2(1, 2), 6.0);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn same_storage_tracks_clones_until_mutation() {
        let a = Tensor::ones(Shape::d2(2, 3));
        let mut b = a.clone();
        assert!(a.same_storage(&b));
        assert!(!a.same_storage(&a.reshape(Shape::d1(6)).unwrap()));
        assert!(!a.same_storage(&Tensor::ones(Shape::d2(2, 3))));
        b.as_mut_slice()[0] = 2.0;
        assert!(!a.same_storage(&b), "a write detaches the copy");
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        let err = Tensor::from_vec(Shape::d1(3), vec![1.0]).unwrap_err();
        assert_eq!(err, TensorError::DataLength { expected: 3, actual: 1 });
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn(Shape::d1(12), |i| i as f32);
        let r = t.reshape(Shape::d3(2, 2, 3)).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(Shape::d2(5, 5)).is_err());
    }

    #[test]
    fn map_zip_arith() {
        let a = Tensor::from_vec(Shape::d1(3), vec![1., 2., 3.]).unwrap();
        let b = Tensor::from_vec(Shape::d1(3), vec![4., 5., 6.]).unwrap();
        assert_eq!((&a + &b).as_slice(), &[5., 7., 9.]);
        assert_eq!((&b - &a).as_slice(), &[3., 3., 3.]);
        assert_eq!((&a * &b).as_slice(), &[4., 10., 18.]);
        assert_eq!(a.map(|x| x * 2.0).as_slice(), &[2., 4., 6.]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(Shape::d2(2, 2), vec![1., -2., 3., 0.]).unwrap();
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.mean(), 0.5);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
        assert_eq!(t.count_nonzero(), 3);
        assert!((t.sparsity() - 0.25).abs() < 1e-12);
        assert_eq!(t.sq_norm(), 1.0 + 4.0 + 9.0);
    }

    #[test]
    fn argmax_rows() {
        let t = Tensor::from_vec(Shape::d2(2, 3), vec![0., 5., 1., 9., 2., 3.]).unwrap();
        assert_eq!(t.argmax_row(0), 1);
        assert_eq!(t.argmax_row(1), 0);
        let v = Tensor::from_vec(Shape::d1(4), vec![0., 1., 3., 2.]).unwrap();
        assert_eq!(v.argmax_row(0), 2);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::ones(Shape::d1(3));
        let g = Tensor::from_vec(Shape::d1(3), vec![1., 2., 3.]).unwrap();
        a.axpy(-0.5, &g).unwrap();
        assert_eq!(a.as_slice(), &[0.5, 0.0, -0.5]);
        a.scale_in_place(2.0);
        assert_eq!(a.as_slice(), &[1.0, 0.0, -1.0]);
    }

    #[test]
    fn stack_and_batch_item() {
        let a = Tensor::full(Shape::d2(2, 2), 1.0);
        let b = Tensor::full(Shape::d2(2, 2), 2.0);
        let s = Tensor::stack(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(s.shape(), Shape::d3(2, 2, 2));
        assert_eq!(s.batch_item(0), a);
        assert_eq!(s.batch_item(1), b);
    }

    #[test]
    fn stack_rejects_mismatch_and_empty() {
        let a = Tensor::zeros(Shape::d1(2));
        let b = Tensor::zeros(Shape::d1(3));
        assert!(Tensor::stack(&[a, b]).is_err());
        assert!(Tensor::stack(&[]).is_err());
    }

    #[test]
    fn display_truncates() {
        let t = Tensor::zeros(Shape::d1(100));
        let s = t.to_string();
        assert!(s.contains('…'));
        assert!(s.starts_with("Tensor[100]"));
    }

    #[test]
    fn clone_eq() {
        let t = Tensor::from_fn(Shape::d2(3, 3), |i| i as f32 * 0.5);
        let u = t.clone();
        assert_eq!(t, u);
    }

    #[test]
    fn tensor_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tensor>();
    }
}
