//! Dense row-major `f32` tensors.
//!
//! [`Tensor`] is the single storage type used throughout the workspace: the
//! autograd graph ([`crate::graph::Graph`]) stores one `Tensor` per node, and
//! [`crate::param::ParamStore`] stores one per parameter (plus one for its
//! gradient). Shapes are dynamic (`Vec<usize>`); all data lives in one
//! contiguous `Vec<f32>` in row-major order.
//!
//! Storage is arena-backed: constructors draw their buffers from the
//! thread-local freelists in [`crate::arena`], and `Drop` returns them, so
//! steady-state graph construction recycles the same allocations step after
//! step instead of hitting the global allocator (see the arena module docs
//! and the counting-allocator test in `crates/nn/tests/arena_alloc.rs`).

use crate::arena;
use std::fmt;

/// A dense row-major tensor of `f32` values.
#[derive(PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        // Manual impl so clones draw from the arena; the derived impl would
        // clone straight from the global allocator.
        let mut data = arena::take_f32(self.data.len());
        data.extend_from_slice(&self.data);
        Self { shape: arena::take_usize_copy(&self.shape), data }
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        arena::put_f32(std::mem::take(&mut self.data));
        arena::put_usize(std::mem::take(&mut self.shape));
    }
}

impl Tensor {
    /// Creates a tensor from raw data and a shape. Panics if the element
    /// count implied by `shape` does not match `data.len()`.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            numel,
            data.len(),
            "shape {:?} implies {} elements but data has {}",
            shape,
            numel,
            data.len()
        );
        Self { shape: arena::take_usize_copy(shape), data }
    }

    /// A tensor wrapping an arena-recycled copy of `data`. Panics if the
    /// element count implied by `shape` does not match `data.len()`.
    pub fn from_slice(shape: &[usize], data: &[f32]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            numel,
            data.len(),
            "shape {:?} implies {} elements but data has {}",
            shape,
            numel,
            data.len()
        );
        let mut buf = arena::take_f32(data.len());
        buf.extend_from_slice(data);
        Self { shape: arena::take_usize_copy(shape), data: buf }
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let numel: usize = shape.iter().product();
        let mut data = arena::take_f32(numel);
        data.resize(numel, value);
        Self { shape: arena::take_usize_copy(shape), data }
    }

    /// A zero-filled tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// A one-filled tensor.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// A rank-0-like scalar stored as shape `[1]`.
    pub fn scalar(value: f32) -> Self {
        Self::full(&[1], value)
    }

    /// The shape of the tensor.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Immutable view of the underlying buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The single element of a one-element tensor. Panics otherwise.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() on tensor of shape {:?}", self.shape);
        self.data[0]
    }

    /// Reinterprets the buffer under a new shape with the same element count.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let numel: usize = shape.iter().product();
        assert_eq!(numel, self.numel(), "reshape {:?} -> {:?}", self.shape, shape);
        Tensor::from_slice(shape, &self.data)
    }

    /// Element at a 2-D index of a rank-2 tensor.
    #[inline]
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.ndim(), 2);
        self.data[i * self.shape[1] + j]
    }

    /// Mutable element at a 2-D index of a rank-2 tensor.
    #[inline]
    pub fn at2_mut(&mut self, i: usize, j: usize) -> &mut f32 {
        debug_assert_eq!(self.ndim(), 2);
        let cols = self.shape[1];
        &mut self.data[i * cols + j]
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut data = arena::take_f32(self.data.len());
        data.extend(self.data.iter().map(|&x| f(x)));
        Tensor { shape: arena::take_usize_copy(&self.shape), data }
    }

    /// Elementwise binary combination with a same-shape tensor.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip shape mismatch");
        let mut data = arena::take_f32(self.data.len());
        data.extend(self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)));
        Tensor { shape: arena::take_usize_copy(&self.shape), data }
    }

    /// `self += other` elementwise; shapes must match.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += c * other` elementwise; shapes must match.
    pub fn add_scaled(&mut self, other: &Tensor, c: f32) {
        assert_eq!(self.shape, other.shape, "add_scaled shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += c * b;
        }
    }

    /// Multiplies every element by `c` in place.
    pub fn scale_inplace(&mut self, c: f32) {
        for x in &mut self.data {
            *x *= c;
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Sum over all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean over all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element; `f32::NEG_INFINITY` for an empty tensor.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element; `f32::INFINITY` for an empty tensor.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Euclidean (L2) norm over all elements.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Row-major matrix multiply of rank-2 tensors: `[m,k] x [k,n] -> [m,n]`.
    ///
    /// Runs the blocked kernel in [`crate::ops::gemm`] under the process-wide
    /// kernel thread budget. `0 · NaN` and `0 · ∞` propagate as `NaN` (no
    /// zero-skipping), and results are bit-identical for every thread count.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Self::empty_product(self.shape.first(), other.shape.last());
        self.matmul_into(other, &mut out);
        out
    }

    /// An empty tensor whose data buffer is arena-sized for an `[m, n]`
    /// product (a capacity hint for the `_into` fills; harmless if the ranks
    /// turn out wrong — the fill asserts).
    fn empty_product(m: Option<&usize>, n: Option<&usize>) -> Tensor {
        let (m, n) = (m.copied().unwrap_or(0), n.copied().unwrap_or(0));
        Tensor { shape: arena::take_usize(2), data: arena::take_f32(m.saturating_mul(n)) }
    }

    /// [`Self::matmul`] writing into `out`, reusing its allocation. `out` is
    /// reshaped to `[m, n]`; any previous contents are overwritten.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.ndim(), 2, "matmul lhs must be rank 2");
        assert_eq!(other.ndim(), 2, "matmul rhs must be rank 2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dims {} vs {}", k, k2);
        out.set_shape2(m, n);
        crate::ops::gemm::gemm(
            &self.data,
            &other.data,
            &mut out.data,
            m,
            k,
            n,
            crate::ops::gemm::kernel_threads(),
        );
    }

    /// `self · otherᵀ` for `self: [m,k]`, `other: [n,k]` → `[m,n]`, without
    /// the caller materializing the transpose.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        // `other` is `[n, k]`: the product's width is its first extent.
        let mut out = Self::empty_product(self.shape.first(), other.shape.first());
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// [`Self::matmul_nt`] writing into `out`, reusing its allocation.
    pub fn matmul_nt_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.ndim(), 2, "matmul_nt lhs must be rank 2");
        assert_eq!(other.ndim(), 2, "matmul_nt rhs must be rank 2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul_nt inner dims {} vs {}", k, k2);
        out.set_shape2(m, n);
        crate::ops::gemm::gemm_nt(
            &self.data,
            &other.data,
            &mut out.data,
            m,
            k,
            n,
            crate::ops::gemm::kernel_threads(),
        );
    }

    /// `selfᵀ · other` for `self: [k,m]`, `other: [k,n]` → `[m,n]`, without
    /// the caller materializing the transpose.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let m = self.shape.last().copied().unwrap_or(0);
        let n = other.shape.last().copied().unwrap_or(0);
        let mut out =
            Tensor { shape: arena::take_usize(2), data: arena::take_f32(m.saturating_mul(n)) };
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// [`Self::matmul_tn`] writing into `out`, reusing its allocation.
    pub fn matmul_tn_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.ndim(), 2, "matmul_tn lhs must be rank 2");
        assert_eq!(other.ndim(), 2, "matmul_tn rhs must be rank 2");
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul_tn inner dims {} vs {}", k, k2);
        out.set_shape2(m, n);
        crate::ops::gemm::gemm_tn(&self.data, &other.data, &mut out.data, m, k, n);
    }

    /// Transpose of a rank-2 tensor.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "transpose requires rank 2");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = arena::take_f32_zeroed(m * n);
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(&[n, m], out)
    }

    /// Resets this tensor in place to shape `[m, n]` with a zero-extended
    /// buffer of exactly `m·n` elements, keeping both allocations.
    fn set_shape2(&mut self, m: usize, n: usize) {
        self.shape.clear();
        self.shape.extend_from_slice(&[m, n]);
        self.data.resize(m * n, 0.0);
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.numel() <= 16 {
            write!(f, ", data={:?}", self.data)?;
        } else {
            write!(
                f,
                ", data=[{:.4}, {:.4}, ...; n={}]",
                self.data[0],
                self.data[1],
                self.numel()
            )?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.at2(1, 2), 6.0);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn from_vec_shape_mismatch_panics() {
        let _ = Tensor::from_vec(&[2, 2], vec![1., 2., 3.]);
    }

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros(&[3]).sum(), 0.0);
        assert_eq!(Tensor::ones(&[4]).sum(), 4.0);
        assert_eq!(Tensor::full(&[2, 2], 2.5).sum(), 10.0);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    #[should_panic(expected = "item")]
    fn item_on_multi_element_panics() {
        Tensor::zeros(&[2]).item();
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let r = t.reshape(&[3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(&[2, 2], vec![3., -1., 2., 5.]);
        let eye = Tensor::from_vec(&[2, 2], vec![1., 0., 0., 1.]);
        assert_eq!(a.matmul(&eye).data(), a.data());
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().at2(2, 1), 6.0);
    }

    #[test]
    fn map_zip_arithmetic() {
        let a = Tensor::from_vec(&[3], vec![1., 2., 3.]);
        let b = Tensor::from_vec(&[3], vec![4., 5., 6.]);
        assert_eq!(a.map(|x| x * 2.0).data(), &[2., 4., 6.]);
        assert_eq!(a.zip(&b, |x, y| x + y).data(), &[5., 7., 9.]);
    }

    #[test]
    fn add_scaled_and_norms() {
        let mut a = Tensor::from_vec(&[2], vec![3., 4.]);
        assert_eq!(a.l2_norm(), 5.0);
        let b = Tensor::from_vec(&[2], vec![1., 1.]);
        a.add_scaled(&b, 2.0);
        assert_eq!(a.data(), &[5., 6.]);
        a.fill_zero();
        assert_eq!(a.sum(), 0.0);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(&[4], vec![-1., 0., 2.5, 2.]);
        assert_eq!(a.max(), 2.5);
        assert_eq!(a.min(), -1.0);
        assert!((a.mean() - 0.875).abs() < 1e-6);
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Tensor::zeros(&[2]);
        assert!(!a.has_non_finite());
        a.data_mut()[1] = f32::NAN;
        assert!(a.has_non_finite());
    }
}
