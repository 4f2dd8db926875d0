//! Dense f32 tensor in NCHW layout.

use crate::shape::Shape4;
use std::fmt;

/// A dense, heap-allocated f32 tensor in NCHW layout.
///
/// This is a deliberately small type: storage plus indexing plus the
/// handful of reductions the experiments need. All layer arithmetic
/// lives in `bnn-nn`; all integer arithmetic lives in `bnn-quant`.
///
/// # Example
///
/// ```
/// use bnn_tensor::{Tensor, Shape4};
///
/// let mut t = Tensor::zeros(Shape4::new(1, 1, 2, 2));
/// *t.at_mut(0, 0, 1, 1) = 3.0;
/// assert_eq!(t.at(0, 0, 1, 1), 3.0);
/// assert_eq!(t.iter().sum::<f32>(), 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape4,
}

impl Tensor {
    /// A tensor of zeros.
    pub fn zeros(shape: Shape4) -> Tensor {
        Tensor {
            data: vec![0.0; shape.len()],
            shape,
        }
    }

    /// A tensor filled with `value`.
    pub fn full(shape: Shape4, value: f32) -> Tensor {
        Tensor {
            data: vec![value; shape.len()],
            shape,
        }
    }

    /// Wrap an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != shape.len()`.
    pub fn from_vec(shape: Shape4, data: Vec<f32>) -> Tensor {
        assert_eq!(
            data.len(),
            shape.len(),
            "buffer length must match shape {shape}"
        );
        Tensor { data, shape }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> Shape4 {
        self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read element `(n, c, h, w)`.
    #[inline]
    pub fn at(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.shape.index(n, c, h, w)]
    }

    /// Mutable reference to element `(n, c, h, w)`.
    #[inline]
    pub fn at_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        let i = self.shape.index(n, c, h, w);
        &mut self.data[i]
    }

    /// Flat immutable view of the data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Iterator over elements in layout order.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    /// The contiguous slice holding batch item `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn item(&self, n: usize) -> &[f32] {
        assert!(n < self.shape.n, "batch index {n} out of range");
        let sz = self.shape.item_len();
        &self.data[n * sz..(n + 1) * sz]
    }

    /// Mutable slice of batch item `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn item_mut(&mut self, n: usize) -> &mut [f32] {
        assert!(n < self.shape.n, "batch index {n} out of range");
        let sz = self.shape.item_len();
        &mut self.data[n * sz..(n + 1) * sz]
    }

    /// A new tensor holding only batch item `n` (copy).
    pub fn select_item(&self, n: usize) -> Tensor {
        Tensor::from_vec(self.shape.with_n(1), self.item(n).to_vec())
    }

    /// Reinterpret with a new shape of identical element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: Shape4) -> Tensor {
        assert_eq!(
            self.shape.len(),
            shape.len(),
            "reshape must preserve element count"
        );
        self.shape = shape;
        self
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace<F: FnMut(f32) -> f32>(&mut self, mut f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Mean of all elements (0 for the empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        (self.data.iter().map(|&x| f64::from(x)).sum::<f64>() / self.data.len() as f64) as f32
    }

    /// Population variance of all elements (0 for the empty tensor).
    pub fn variance(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let mean = f64::from(self.mean());
        (self
            .data
            .iter()
            .map(|&x| (f64::from(x) - mean).powi(2))
            .sum::<f64>()
            / self.data.len() as f64) as f32
    }

    /// Minimum element (`+inf` for the empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Maximum element (`-inf` for the empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Index of the largest element of batch item `n` (ties → first).
    pub fn argmax_item(&self, n: usize) -> usize {
        let item = self.item(n);
        let mut best = 0;
        for (i, &v) in item.iter().enumerate() {
            if v > item[best] {
                best = i;
            }
        }
        best
    }

    /// Maximum absolute difference against another tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, "{:?}", self.data)
        } else {
            write!(
                f,
                "[{:.4}, {:.4}, …, {:.4}] (mean {:.4})",
                self.data[0],
                self.data[1],
                self.data[self.data.len() - 1],
                self.mean()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_full_from_vec() {
        let s = Shape4::new(1, 2, 2, 2);
        assert!(Tensor::zeros(s).iter().all(|&x| x == 0.0));
        assert!(Tensor::full(s, 2.5).iter().all(|&x| x == 2.5));
        let t = Tensor::from_vec(s, (0..8).map(|i| i as f32).collect());
        assert_eq!(t.at(0, 1, 1, 1), 7.0);
    }

    #[test]
    #[should_panic(expected = "buffer length must match")]
    fn from_vec_rejects_wrong_len() {
        let _ = Tensor::from_vec(Shape4::new(1, 1, 2, 2), vec![0.0; 3]);
    }

    #[test]
    fn item_slicing() {
        let s = Shape4::new(2, 1, 2, 1);
        let t = Tensor::from_vec(s, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.item(0), &[1.0, 2.0]);
        assert_eq!(t.item(1), &[3.0, 4.0]);
        let sel = t.select_item(1);
        assert_eq!(sel.shape().n, 1);
        assert_eq!(sel.as_slice(), &[3.0, 4.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(Shape4::vec(1, 4), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.variance(), 1.25);
        assert_eq!(t.min(), 1.0);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.argmax_item(0), 3);
    }

    #[test]
    fn argmax_ties_prefer_first() {
        let t = Tensor::from_vec(Shape4::vec(1, 3), vec![5.0, 5.0, 1.0]);
        assert_eq!(t.argmax_item(0), 0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(Shape4::new(1, 1, 2, 3), vec![0., 1., 2., 3., 4., 5.]);
        let r = t.clone().reshape(Shape4::vec(1, 6));
        assert_eq!(r.as_slice(), t.as_slice());
    }

    #[test]
    fn max_abs_diff_works() {
        let a = Tensor::from_vec(Shape4::vec(1, 2), vec![1.0, 2.0]);
        let b = Tensor::from_vec(Shape4::vec(1, 2), vec![1.5, 2.0]);
        assert_eq!(a.max_abs_diff(&b), 0.5);
    }

    #[test]
    fn map_inplace_applies() {
        let mut t = Tensor::from_vec(Shape4::vec(1, 3), vec![-1.0, 0.0, 2.0]);
        t.map_inplace(|x| x * 2.0);
        assert_eq!(t.as_slice(), &[-2.0, 0.0, 4.0]);
    }
}
