//! The core tensor type: a node of the computation graph.

use std::cell::{Ref, RefCell, RefMut};
use std::fmt;
use std::rc::Rc;

use crate::ops::Op;
use crate::{kernels, recycle};

/// A 2-D `f32` tensor that is also a node of a dynamically built
/// computation graph.
///
/// Tensors are cheaply clonable handles ([`Rc`] internally); cloning shares
/// the underlying data and graph node. Scalars are `(1, 1)` tensors, row
/// vectors `(1, n)`.
///
/// # Examples
///
/// ```
/// use nptsn_tensor::Tensor;
///
/// let a = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
/// let b = a.scale(2.0);
/// assert_eq!(b.to_vec(), vec![2.0, 4.0, 6.0]);
/// assert_eq!(b.shape(), (1, 3));
/// ```
#[derive(Clone)]
pub struct Tensor {
    pub(crate) node: Rc<Node>,
}

pub(crate) struct Node {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) data: RefCell<Vec<f32>>,
    pub(crate) grad: RefCell<Vec<f32>>,
    pub(crate) op: Op,
    pub(crate) requires_grad: bool,
}

impl Tensor {
    pub(crate) fn from_node(node: Node) -> Tensor {
        Tensor { node: Rc::new(node) }
    }

    pub(crate) fn new_internal(
        rows: usize,
        cols: usize,
        data: Vec<f32>,
        op: Op,
        requires_grad: bool,
    ) -> Tensor {
        debug_assert_eq!(data.len(), rows * cols);
        Tensor::from_node(Node {
            rows,
            cols,
            data: RefCell::new(data),
            grad: RefCell::new(Vec::new()),
            op,
            requires_grad,
        })
    }

    /// Creates a constant leaf tensor (no gradient is tracked through it).
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != rows * cols` or either dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Tensor {
        assert!(rows > 0 && cols > 0, "tensor dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "data length must match the shape");
        Tensor::new_internal(rows, cols, data, Op::Leaf, false)
    }

    /// Creates a trainable parameter leaf: gradients accumulate into it on
    /// [`backward`](Tensor::backward).
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != rows * cols` or either dimension is zero.
    pub fn param(rows: usize, cols: usize, data: Vec<f32>) -> Tensor {
        assert!(rows > 0 && cols > 0, "tensor dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "data length must match the shape");
        Tensor::new_internal(rows, cols, data, Op::Leaf, true)
    }

    /// A `(rows, cols)` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Tensor {
        Tensor::from_vec(rows, cols, vec![value; rows * cols])
    }

    /// A `(1, 1)` constant scalar.
    pub fn scalar(value: f32) -> Tensor {
        Tensor::from_vec(1, 1, vec![value])
    }

    /// The `(rows, cols)` shape.
    pub fn shape(&self) -> (usize, usize) {
        (self.node.rows, self.node.cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.node.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.node.cols
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.node.rows * self.node.cols
    }

    /// Whether the tensor has zero elements (never true; shapes are
    /// positive).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether gradients flow into this tensor.
    pub fn requires_grad(&self) -> bool {
        self.node.requires_grad
    }

    /// A copy of the data in row-major order.
    pub fn to_vec(&self) -> Vec<f32> {
        self.node.data.borrow().clone()
    }

    /// Borrow of the raw row-major data.
    pub fn data(&self) -> Ref<'_, Vec<f32>> {
        self.node.data.borrow()
    }

    /// The element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics for out-of-range indices.
    pub fn at(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.node.rows && col < self.node.cols, "index out of range");
        self.node.data.borrow()[row * self.node.cols + col]
    }

    /// The value of a `(1, 1)` tensor.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not a scalar.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() requires a scalar tensor");
        self.node.data.borrow()[0]
    }

    /// A copy of the accumulated gradient (zeros if none accumulated yet).
    pub fn grad(&self) -> Vec<f32> {
        let g = self.node.grad.borrow();
        if g.is_empty() {
            vec![0.0; self.len()]
        } else {
            g.clone()
        }
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        self.node.grad.borrow_mut().clear();
    }

    /// Overwrites the data of a leaf tensor in place (used by optimizers and
    /// by parameter synchronization across rollout workers).
    ///
    /// # Panics
    ///
    /// Panics when the length differs from the tensor's element count or
    /// when called on a non-leaf tensor (graph nodes are immutable).
    pub fn set_data(&self, data: &[f32]) {
        assert!(matches!(self.node.op, Op::Leaf), "only leaf tensors may be overwritten");
        assert_eq!(data.len(), self.len(), "data length must match the shape");
        self.node.data.borrow_mut().copy_from_slice(data);
    }

    /// Applies `update` to every element of a leaf tensor's data, passing
    /// the element index and current value (in-place optimizer steps).
    ///
    /// # Panics
    ///
    /// Panics when called on a non-leaf tensor.
    pub fn update_data(&self, mut update: impl FnMut(usize, f32) -> f32) {
        assert!(matches!(self.node.op, Op::Leaf), "only leaf tensors may be overwritten");
        let mut data = self.node.data.borrow_mut();
        for (i, v) in data.iter_mut().enumerate() {
            *v = update(i, *v);
        }
    }

    /// Adds `delta` into the accumulated gradient, starting from `+0.0`
    /// when none has accumulated yet: what
    /// [`backward`](Tensor::backward) does with every contribution.
    pub(crate) fn accumulate_grad(&self, delta: &[f32]) {
        assert_eq!(delta.len(), self.len(), "gradient length must match the shape");
        let mut g = self.node.grad.borrow_mut();
        if g.is_empty() {
            if g.capacity() < delta.len() {
                *g = recycle::copied(delta);
            } else {
                g.extend_from_slice(delta);
            }
            from_zero(&mut g);
        } else {
            kernels::acc_in_place(&mut g, delta);
        }
    }

    /// [`Tensor::accumulate_grad`] of a delta it may keep as the gradient.
    pub(crate) fn accumulate_owned_grad(&self, mut delta: Vec<f32>) {
        from_zero(&mut delta);
        self.accumulate_sum_grad(delta);
    }

    /// [`Tensor::accumulate_owned_grad`] of a delta that holds no `-0.0`,
    /// such as a [`kernels::matmul`] product: every element is a sum that
    /// started at `+0.0`, so adding it into a fresh gradient changes none.
    pub(crate) fn accumulate_sum_grad(&self, delta: Vec<f32>) {
        assert_eq!(delta.len(), self.len(), "gradient length must match the shape");
        let mut g = self.node.grad.borrow_mut();
        if g.is_empty() {
            recycle::give_back(std::mem::replace(&mut *g, delta));
        } else {
            kernels::acc_in_place(&mut g, &delta);
            recycle::give_back(delta);
        }
    }

    /// The accumulated gradient, for additions in place: `+0.0` where none
    /// has accumulated yet.
    pub(crate) fn grad_mut(&self) -> RefMut<'_, Vec<f32>> {
        let mut g = self.node.grad.borrow_mut();
        if g.is_empty() {
            if g.capacity() < self.len() {
                *g = recycle::zeroed(self.len());
            } else {
                g.resize(self.len(), 0.0);
            }
        }
        g
    }
}

/// `x + 0.0` for every `x`: what adding `x` into a fresh gradient gives
/// (a `-0.0` becomes `+0.0`; every other value stays).
fn from_zero(values: &mut [f32]) {
    for v in values {
        *v += 0.0;
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        recycle::give_back(std::mem::take(self.data.get_mut()));
        recycle::give_back(std::mem::take(self.grad.get_mut()));
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tensor")
            .field("shape", &self.shape())
            .field("requires_grad", &self.node.requires_grad)
            .field("data", &self.node.data.borrow())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
        assert_eq!(t.at(1, 2), 6.0);
        assert!(!t.requires_grad());
        assert!(Tensor::param(1, 1, vec![0.0]).requires_grad());
        assert_eq!(Tensor::scalar(7.0).item(), 7.0);
        assert_eq!(Tensor::full(2, 2, 3.0).to_vec(), vec![3.0; 4]);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn shape_mismatch_panics() {
        let _ = Tensor::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn item_requires_scalar() {
        let _ = Tensor::from_vec(1, 2, vec![1.0, 2.0]).item();
    }

    #[test]
    fn grad_starts_zero_and_clears() {
        let p = Tensor::param(1, 2, vec![1.0, 2.0]);
        assert_eq!(p.grad(), vec![0.0, 0.0]);
        p.accumulate_grad(&[1.0, 1.0]);
        p.accumulate_grad(&[0.5, -1.0]);
        assert_eq!(p.grad(), vec![1.5, 0.0]);
        p.zero_grad();
        assert_eq!(p.grad(), vec![0.0, 0.0]);
    }

    #[test]
    fn set_and_update_data() {
        let p = Tensor::param(1, 2, vec![1.0, 2.0]);
        p.set_data(&[3.0, 4.0]);
        assert_eq!(p.to_vec(), vec![3.0, 4.0]);
        p.update_data(|i, v| v + i as f32);
        assert_eq!(p.to_vec(), vec![3.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "leaf")]
    fn non_leaf_data_is_immutable() {
        let p = Tensor::param(1, 1, vec![1.0]);
        let y = p.scale(2.0);
        y.set_data(&[0.0]);
    }

    #[test]
    fn clone_shares_storage() {
        let p = Tensor::param(1, 1, vec![1.0]);
        let q = p.clone();
        p.set_data(&[5.0]);
        assert_eq!(q.item(), 5.0);
    }
}
