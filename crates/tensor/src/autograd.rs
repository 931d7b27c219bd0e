//! Reverse-mode automatic differentiation on a per-batch tape.
//!
//! Each training iteration builds a fresh [`Tape`]: the forward pass records
//! one node per operation, and [`Tape::backward`] walks the nodes in reverse
//! to produce a [`Gradients`] map. Trainable tensors live outside the tape in
//! [`Param`]s (identified by a stable [`ParamId`]), so a model can be reused
//! across batches, threads hold independent tapes, and the DDP layer can
//! all-reduce gradients by parameter identity.

#![expect(
    clippy::indexing_slicing,
    reason = "node ids are indices this tape handed out at push and nodes only grows"
)]

use crate::f16::FeatureRows;
use crate::shape::Shape;
use crate::tensor::Tensor;
use std::cell::{OnceCell, RefCell};
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Stable identity of a trainable parameter, unique within the process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ParamId(u64);

static NEXT_PARAM_ID: AtomicU64 = AtomicU64::new(0);

impl ParamId {
    fn fresh() -> Self {
        // Relaxed: ids only need to be unique, not ordered with anything.
        ParamId(NEXT_PARAM_ID.fetch_add(1, Ordering::Relaxed))
    }
}

/// A trainable parameter: a value tensor plus an accumulated gradient.
///
/// # Examples
///
/// ```
/// use salient_tensor::{Param, Tensor};
///
/// let p = Param::new("w", Tensor::ones([2, 2]));
/// assert_eq!(p.grad().sum(), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Param {
    id: ParamId,
    name: String,
    value: Tensor,
    grad: Tensor,
}

impl Param {
    /// Creates a parameter with a zeroed gradient of the same shape.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param {
            id: ParamId::fresh(),
            name: name.into(),
            value,
            grad,
        }
    }

    /// The parameter's stable identity.
    pub fn id(&self) -> ParamId {
        self.id
    }

    /// The parameter's name (for debugging and checkpoints).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current value.
    pub fn value(&self) -> &Tensor {
        &self.value
    }

    /// Mutable access to the value (used by optimizers).
    pub(crate) fn value_mut(&mut self) -> &mut Tensor {
        &mut self.value
    }

    /// Replaces the value, keeping identity and gradient shape.
    ///
    /// # Panics
    ///
    /// Panics if the new value's shape differs from the old.
    pub fn set_value(&mut self, value: Tensor) {
        assert_eq!(
            self.value.shape(),
            value.shape(),
            "set_value must preserve shape"
        );
        self.value = value;
    }

    /// The accumulated gradient.
    pub fn grad(&self) -> &Tensor {
        &self.grad
    }

    /// Mutable access to the gradient (used by DDP all-reduce).
    pub fn grad_mut(&mut self) -> &mut Tensor {
        &mut self.grad
    }

    /// Adds `g` into the accumulated gradient.
    ///
    /// # Panics
    ///
    /// Panics if the gradient shape differs from the value shape.
    pub(crate) fn accumulate_grad(&mut self, g: &Tensor) {
        self.grad.axpy(1.0, g);
    }

    /// Resets the accumulated gradient to zero.
    pub(crate) fn zero_grad(&mut self) {
        self.grad.zero_();
    }
}

/// Maps a node's output gradient (handed over by value, so an op may
/// rewrite it in place) to contributions for those parents that need one.
pub(crate) type BackwardFn = Box<dyn Fn(Tensor) -> Vec<(usize, Tensor)>>;

/// An owner of packed feature rows — a pinned staging slot — that a tape can
/// hold for a step instead of a widened copy ([`Tape::constant_rows`]).
pub trait RowStore {
    /// The rows, at the width they are stored.
    fn rows(&self) -> FeatureRows<'_>;
}

/// A node's forward value: a tensor, or the store a [`Tape::constant_rows`]
/// leaf was lent, with its row width and — once an op asks for the rows as a
/// tensor — their widened copy. [`Var::sage_conv`] reads either as rows;
/// cloning shares the buffers or the store.
#[derive(Clone)]
pub(crate) enum Rows {
    Wide(Tensor),
    Packed { store: Rc<dyn RowStore>, cols: usize, wide: OnceCell<Tensor> },
}

impl Rows {
    pub(crate) fn get(&self) -> FeatureRows<'_> {
        match self {
            Rows::Wide(t) => FeatureRows::Full(t.data()),
            Rows::Packed { store, .. } => store.rows(),
        }
    }

    /// The shape of the rows, as [`Var::shape`] returns it.
    fn shape(&self) -> Shape {
        match self {
            Rows::Wide(t) => t.shape(),
            Rows::Packed { store, cols, .. } => Shape::matrix(store.rows().len() / cols, *cols),
        }
    }
}

pub(crate) struct Node {
    value: Rows,
    /// Whether some tracked leaf (a parameter or a [`Tape::leaf`]) feeds
    /// this node. Only such nodes carry a `backward` or receive a gradient.
    pub(crate) needs_grad: bool,
    pub(crate) backward: Option<BackwardFn>,
    /// Set when this node is a leaf bound to a parameter.
    pub(crate) param: Option<ParamId>,
}

pub(crate) struct TapeInner {
    pub(crate) nodes: RefCell<Vec<Node>>,
    /// `false` for a [`Tape::no_grad`] tape: no leaf is tracked.
    track: bool,
}

/// A recording of one forward pass, able to run backpropagation.
///
/// The tape is single-threaded by design (one per rank / per worker); the
/// parallelism in SALIENT lives in batch preparation, not inside a batch's
/// backward pass.
///
/// Work follows need: [`Tape::constant`] inputs are not differentiated, so
/// an op fed only by constants records its value and nothing else, and an
/// op with mixed parents computes contributions only for the tracked ones.
///
/// # Examples
///
/// ```
/// use salient_tensor::{Tape, Tensor};
///
/// let tape = Tape::new();
/// let x = tape.leaf(Tensor::from_vec(vec![2.0], [1]));
/// let y = x.mul(&x); // y = x^2
/// let grads = tape.backward(&y.sum_all());
/// // dy/dx = 2x = 4
/// assert_eq!(grads.wrt(&x).unwrap().data(), &[4.0]);
/// ```
#[derive(Clone)]
pub struct Tape {
    pub(crate) inner: Rc<TapeInner>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Tape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tape({} nodes)", self.inner.nodes.borrow().len())
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::tracking(true)
    }

    /// Creates an empty tape for inference: [`Tape::param`] and
    /// [`Tape::leaf`] record untracked values, so by the needs-grad rule no
    /// op on it saves an operand, an edge list or a backward closure.
    pub fn no_grad() -> Self {
        Self::tracking(false)
    }

    fn tracking(track: bool) -> Self {
        Tape {
            inner: Rc::new(TapeInner {
                nodes: RefCell::new(Vec::new()),
                track,
            }),
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.inner.nodes.borrow().len()
    }

    /// Whether the tape has recorded any node.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn push(&self, node: Node) -> Var {
        let mut nodes = self.inner.nodes.borrow_mut();
        nodes.push(node);
        Var {
            tape: Rc::clone(&self.inner),
            id: nodes.len() - 1,
        }
    }

    fn input(&self, value: Tensor, needs_grad: bool, param: Option<ParamId>) -> Var {
        self.push(Node {
            value: Rows::Wide(value),
            needs_grad: needs_grad && self.inner.track,
            backward: None,
            param,
        })
    }

    /// Records the result of an op. `backward` — and with it whatever the
    /// op saves for its backward pass — is built only when `needs_grad`
    /// (some parent is tracked).
    pub(crate) fn record(
        &self,
        value: Tensor,
        needs_grad: bool,
        backward: impl FnOnce() -> BackwardFn,
    ) -> Var {
        self.push(Node {
            value: Rows::Wide(value),
            needs_grad,
            backward: needs_grad.then(backward),
            param: None,
        })
    }

    /// Records an input that is not differentiated (sliced features,
    /// labels-as-data): no gradient is computed for it or kept.
    pub fn constant(&self, value: Tensor) -> Var {
        self.input(value, false, None)
    }

    /// Records the `cols`-wide rows of `store` as a constant without copying
    /// them, and keeps its handle on the store until the tape is dropped (a
    /// pinned slot goes back to its pool then, also when the drop is an
    /// unwind).
    /// [`Var::sage_conv`] reads the rows packed, an `F16` widened in
    /// registers; any other op sees them widened into a tensor, once.
    ///
    /// # Panics
    ///
    /// Panics if the store's length is not a multiple of `cols`.
    pub fn constant_rows(&self, store: Rc<dyn RowStore>, cols: usize) -> Var {
        let len = store.rows().len();
        assert!(cols > 0 && len % cols == 0, "{len} values are not rows of {cols}");
        self.push(Node {
            value: Rows::Packed { store, cols, wide: OnceCell::new() },
            needs_grad: false,
            backward: None,
            param: None,
        })
    }

    /// Records a tracked non-parameter input; its gradient is available
    /// from [`Gradients::wrt`] after [`Tape::backward`].
    pub fn leaf(&self, value: Tensor) -> Var {
        self.input(value, true, None)
    }

    /// Records a leaf bound to a trainable parameter; its gradient appears in
    /// [`Gradients::by_param`] after [`Tape::backward`].
    pub fn param(&self, param: &Param) -> Var {
        self.input(param.value().clone(), true, Some(param.id()))
    }

    /// Runs reverse-mode differentiation from `output`, which must be a
    /// scalar, and returns the gradients of every tracked leaf it depends
    /// on. An intermediate node's gradient is released as soon as its
    /// backward has consumed it.
    ///
    /// # Panics
    ///
    /// Panics if `output` is not on this tape or is not a scalar.
    pub fn backward(&self, output: &Var) -> Gradients {
        assert!(
            Rc::ptr_eq(&self.inner, &output.tape),
            "backward() var from a different tape"
        );
        let nodes = self.inner.nodes.borrow();
        let out = &nodes[output.id];
        let shape = out.value.shape();
        assert_eq!(shape.len(), 1, "backward() requires a scalar output, got shape {shape}");
        let mut by_node: Vec<Option<Tensor>> = vec![None; output.id + 1];
        let mut by_param: HashMap<ParamId, Tensor> = HashMap::new();
        if out.needs_grad {
            by_node[output.id] = Some(Tensor::full(shape, 1.0));
        }
        for id in (0..=output.id).rev() {
            let Some(grad) = by_node[id].take() else {
                continue;
            };
            let node = &nodes[id];
            match (&node.backward, node.param) {
                (Some(backward), _) => {
                    for (pid, contrib) in backward(grad) {
                        debug_assert!(pid < id, "gradient must flow to earlier node");
                        debug_assert!(nodes[pid].needs_grad, "contribution nobody needs");
                        accumulate(&mut by_node[pid], contrib);
                    }
                }
                (None, Some(pid)) => match by_param.entry(pid) {
                    Entry::Occupied(mut acc) => acc.get_mut().axpy(1.0, &grad),
                    Entry::Vacant(slot) => {
                        slot.insert(grad);
                    }
                },
                (None, None) => by_node[id] = Some(grad),
            }
        }
        Gradients { by_node, by_param }
    }
}

/// Of an op's `(parent is tracked, parent id, gradient)` triples, the
/// contributions the tape wants: those of tracked parents.
pub(crate) fn tracked_only<const N: usize>(
    contribs: [(bool, usize, Tensor); N],
) -> Vec<(usize, Tensor)> {
    let tracked = contribs.into_iter().filter(|c| c.0);
    tracked.map(|(_, id, grad)| (id, grad)).collect()
}

fn accumulate(slot: &mut Option<Tensor>, contrib: Tensor) {
    match slot {
        Some(acc) => acc.axpy(1.0, &contrib),
        None => *slot = Some(contrib),
    }
}

/// The result of a backward pass: gradients of the tracked leaves.
#[derive(Debug)]
pub struct Gradients {
    by_node: Vec<Option<Tensor>>,
    by_param: HashMap<ParamId, Tensor>,
}

impl Gradients {
    /// Gradient with respect to a [`Tape::leaf`], if it was reached.
    pub fn wrt(&self, var: &Var) -> Option<&Tensor> {
        self.by_node.get(var.id).and_then(|g| g.as_ref())
    }

    /// Gradient with respect to a parameter, if it was used in the forward
    /// pass.
    pub fn by_param(&self, id: ParamId) -> Option<&Tensor> {
        self.by_param.get(&id)
    }

    /// Accumulates all parameter gradients into the matching [`Param`]s.
    ///
    /// Parameters that did not participate in the forward pass are left
    /// untouched.
    pub fn apply_to<'a>(&self, params: impl IntoIterator<Item = &'a mut Param>) {
        for p in params {
            if let Some(g) = self.by_param.get(&p.id()) {
                p.accumulate_grad(g);
            }
        }
    }
}

/// A value recorded on a [`Tape`]. Cloning is cheap (it is an id plus a
/// reference-counted tape handle).
#[derive(Clone)]
pub struct Var {
    pub(crate) tape: Rc<TapeInner>,
    pub(crate) id: usize,
}

impl Var {
    /// The forward value of this variable.
    pub fn value(&self) -> Tensor {
        match &self.tape.nodes.borrow()[self.id].value {
            Rows::Wide(t) => t.clone(),
            lent @ Rows::Packed { wide, .. } => {
                wide.get_or_init(|| Tensor::filled_by(lent.shape(), |w| lent.get().widen_into(w))).clone()
            }
        }
    }

    /// The forward value as rows: a [`Tape::constant_rows`] leaf's as they
    /// are stored, any other's as its tensor.
    pub(crate) fn rows(&self) -> Rows {
        self.tape.nodes.borrow()[self.id].value.clone()
    }

    /// The shape of the forward value.
    pub fn shape(&self) -> Shape {
        self.tape.nodes.borrow()[self.id].value.shape()
    }

    /// Whether a tracked leaf feeds this variable, i.e. whether ops on it
    /// record a backward pass.
    pub fn needs_grad(&self) -> bool {
        self.tape.nodes.borrow()[self.id].needs_grad
    }

    /// Records a one-parent op: `backward()` builds the map from the output
    /// gradient to this variable's contribution.
    pub(crate) fn unary<B>(&self, value: Tensor, backward: impl FnOnce() -> B) -> Var
    where
        B: Fn(Tensor) -> Tensor + 'static,
    {
        let ia = self.id;
        self.tape().record(value, self.needs_grad(), || {
            let back = backward();
            Box::new(move |g| vec![(ia, back(g))])
        })
    }

    pub(crate) fn tape(&self) -> Tape {
        Tape {
            inner: Rc::clone(&self.tape),
        }
    }

    pub(crate) fn same_tape(&self, other: &Var) {
        assert!(
            Rc::ptr_eq(&self.tape, &other.tape),
            "operands recorded on different tapes"
        );
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Var(id={}, value={:?})", self.id, self.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_ids_are_unique() {
        let a = Param::new("a", Tensor::zeros([1]));
        let b = Param::new("b", Tensor::zeros([1]));
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn leaf_has_no_param_grad() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(3.0));
        let g = tape.backward(&x);
        assert!(g.by_param.is_empty());
        assert_eq!(g.wrt(&x).unwrap().item(), 1.0);
    }

    #[test]
    fn constants_and_no_grad_tapes_record_no_backward() {
        let p = Param::new("w", Tensor::scalar(2.0));
        let tape = Tape::new();
        let c = tape.constant(Tensor::scalar(3.0));
        let y = c.mul(&c).scale(2.0);
        assert!(!y.needs_grad());
        assert!(tape.inner.nodes.borrow().iter().all(|n| n.backward.is_none()));
        let g = tape.backward(&y);
        assert!(g.wrt(&c).is_none(), "a constant receives no gradient");
        // A mixed op contributes to its tracked parent only.
        let z = c.mul(&tape.param(&p));
        assert!(z.needs_grad());
        let g = tape.backward(&z);
        assert_eq!(g.by_param(p.id()).unwrap().item(), 3.0);
        assert!(g.wrt(&c).is_none());

        let tape = Tape::no_grad();
        let w = tape.param(&p);
        let y = tape.leaf(Tensor::scalar(1.0)).mul(&w).relu();
        assert!(!w.needs_grad() && !y.needs_grad());
        assert!(tape.inner.nodes.borrow().iter().all(|n| n.backward.is_none()));
        assert!(tape.backward(&y).by_param.is_empty());
    }

    #[test]
    fn intermediate_gradients_are_released() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(3.0));
        let mid = x.scale(2.0);
        let g = tape.backward(&mid.mul(&mid));
        assert!(g.wrt(&mid).is_none(), "only leaves keep their gradient");
        assert_eq!(g.wrt(&x).unwrap().item(), 24.0);
    }

    #[test]
    fn param_grad_accumulates_across_uses() {
        let p = Param::new("w", Tensor::scalar(5.0));
        let tape = Tape::new();
        let w1 = tape.param(&p);
        let w2 = tape.param(&p);
        let y = w1.add(&w2); // y = w + w
        let g = tape.backward(&y);
        assert_eq!(g.by_param(p.id()).unwrap().item(), 2.0);
    }

    #[test]
    fn apply_to_accumulates() {
        let mut p = Param::new("w", Tensor::scalar(1.0));
        let tape = Tape::new();
        let w = tape.param(&p);
        let y = w.scale(3.0);
        let g = tape.backward(&y);
        g.apply_to([&mut p]);
        g.apply_to([&mut p]);
        assert_eq!(p.grad().item(), 6.0, "two applications accumulate");
        p.zero_grad();
        assert_eq!(p.grad().item(), 0.0);
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_requires_scalar() {
        let tape = Tape::new();
        let x = tape.constant(Tensor::zeros([2]));
        tape.backward(&x);
    }

    #[test]
    fn diamond_dependency_accumulates() {
        // y = x*x + x*x; dy/dx = 4x.
        let tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(3.0));
        let a = x.mul(&x);
        let b = x.mul(&x);
        let y = a.add(&b);
        let g = tape.backward(&y);
        assert_eq!(g.wrt(&x).unwrap().item(), 12.0);
    }
}
