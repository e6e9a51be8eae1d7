//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] is a single-use tape: every operation appends a node holding
//! the forward value and a backward closure that maps the node's output
//! gradient to gradients for its parents. [`Graph::backward`] walks the tape
//! in reverse (tape order is a topological order by construction) and
//! accumulates gradients.
//!
//! Model parameters live outside the tape in a [`ParamStore`]; a forward
//! pass *binds* them onto the tape with [`Graph::bind`], and after
//! `backward` the accumulated gradients are scattered back with
//! [`Graph::write_grads`]. This keeps modules plain data and lets one store
//! drive many tapes (one per minibatch).

use std::cell::RefCell;

use crate::tensor::Tensor;

/// Handle to a node on a [`Graph`] tape.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

type BackwardFn = Box<dyn Fn(&Tensor) -> Vec<Tensor> + Send>;

struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    parents: Vec<Var>,
    backward: Option<BackwardFn>,
    /// Whether gradients should flow into/through this node.
    needs_grad: bool,
}

/// A single-use autodiff tape.
#[derive(Default)]
pub struct Graph {
    nodes: RefCell<Vec<Node>>,
    bindings: RefCell<Vec<(ParamId, Var)>>,
    /// Training-mode flag consulted by stochastic ops such as dropout.
    train: std::cell::Cell<bool>,
}

impl Graph {
    /// Creates an empty tape in training mode.
    pub fn new() -> Self {
        let g = Graph::default();
        g.train.set(true);
        g
    }

    /// Creates an empty tape in inference mode (dropout disabled).
    pub fn inference() -> Self {
        Graph::default()
    }

    /// Whether the tape is in training mode.
    pub fn is_train(&self) -> bool {
        self.train.get()
    }

    /// Appends a leaf node that does not require gradients (an input).
    pub fn input(&self, value: Tensor) -> Var {
        self.push(Node {
            value,
            grad: None,
            parents: vec![],
            backward: None,
            needs_grad: false,
        })
    }

    /// Appends a leaf node that accumulates gradients (a free parameter).
    pub fn leaf(&self, value: Tensor) -> Var {
        self.push(Node {
            value,
            grad: None,
            parents: vec![],
            backward: None,
            needs_grad: true,
        })
    }

    /// Binds parameter `id` from `store` onto the tape, recording the
    /// binding so [`Graph::write_grads`] can scatter the gradient back.
    pub fn bind(&self, store: &ParamStore, id: ParamId) -> Var {
        let v = self.leaf(store.value(id).clone());
        self.bindings.borrow_mut().push((id, v));
        v
    }

    /// Appends an op node produced by one of the op constructors.
    pub(crate) fn op(&self, value: Tensor, parents: Vec<Var>, backward: BackwardFn) -> Var {
        let needs_grad = {
            let nodes = self.nodes.borrow();
            parents.iter().any(|p| nodes[p.0].needs_grad)
        };
        self.push(Node {
            value,
            grad: None,
            parents,
            backward: Some(backward),
            needs_grad,
        })
    }

    fn push(&self, node: Node) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(node);
        Var(nodes.len() - 1)
    }

    /// Clones the forward value of `v`.
    pub fn value(&self, v: Var) -> Tensor {
        self.nodes.borrow()[v.0].value.clone()
    }

    /// Shape of the forward value of `v` (no clone).
    pub fn shape_of(&self, v: Var) -> Vec<usize> {
        self.nodes.borrow()[v.0].value.shape().to_vec()
    }

    /// Runs `f` against the forward value of `v` without cloning it.
    pub fn with_value<R>(&self, v: Var, f: impl FnOnce(&Tensor) -> R) -> R {
        f(&self.nodes.borrow()[v.0].value)
    }

    /// Clones the accumulated gradient of `v`, if any.
    pub fn grad(&self, v: Var) -> Option<Tensor> {
        self.nodes.borrow()[v.0].grad.clone()
    }

    /// Number of nodes currently on the tape.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// True when the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    /// Reverse-mode sweep seeding `loss` with gradient 1.
    ///
    /// `loss` must be a scalar. Safe to call once per tape.
    pub fn backward(&self, loss: Var) {
        {
            let mut nodes = self.nodes.borrow_mut();
            let l = &mut nodes[loss.0];
            assert_eq!(
                l.value.len(),
                1,
                "backward() from non-scalar {:?}",
                l.value.shape()
            );
            l.grad = Some(Tensor::ones(l.value.shape()));
        }
        for i in (0..=loss.0).rev() {
            // Take what we need out of the node, then release the borrow so
            // the backward closure can't deadlock on re-entrancy.
            let (grad, backward, parents) = {
                let mut nodes = self.nodes.borrow_mut();
                let node = &mut nodes[i];
                if node.grad.is_none() || !node.needs_grad {
                    continue;
                }
                let grad = node.grad.clone().unwrap();
                let backward = node.backward.take();
                let parents = node.parents.clone();
                (grad, backward, parents)
            };
            let Some(backward) = backward else { continue };
            let parent_grads = backward(&grad);
            assert_eq!(
                parent_grads.len(),
                parents.len(),
                "backward arity mismatch at node {i}"
            );
            let mut nodes = self.nodes.borrow_mut();
            for (p, pg) in parents.iter().zip(parent_grads) {
                let pn = &mut nodes[p.0];
                if !pn.needs_grad {
                    continue;
                }
                debug_assert_eq!(
                    pn.value.shape(),
                    pg.shape(),
                    "gradient shape mismatch for parent {} of node {i}",
                    p.0
                );
                match &mut pn.grad {
                    Some(g) => g.add_assign(&pg),
                    None => pn.grad = Some(pg),
                }
            }
        }
    }

    /// Scatters gradients of bound parameters back into `store`
    /// (accumulating — call [`ParamStore::zero_grads`] between steps).
    pub fn write_grads(&self, store: &mut ParamStore) {
        let nodes = self.nodes.borrow();
        for &(id, v) in self.bindings.borrow().iter() {
            if let Some(g) = &nodes[v.0].grad {
                store.grad_mut(id).add_assign(g);
            }
        }
    }

    /// Heap bytes held by the tape: every distinct value/gradient buffer,
    /// deduplicated by storage identity.
    ///
    /// Because backward closures capture copy-on-write clones of node
    /// values, their captures alias buffers already counted here; only
    /// fused-op stashes (e.g. kept activations) fall outside this measure.
    pub fn tape_bytes(&self) -> usize {
        let nodes = self.nodes.borrow();
        let mut seen = std::collections::HashSet::new();
        let mut total = 0;
        for node in nodes.iter() {
            for t in std::iter::once(&node.value).chain(node.grad.as_ref()) {
                if seen.insert(t.storage_id()) {
                    total += t.storage_bytes();
                }
            }
        }
        total
    }
}

impl Drop for Graph {
    fn drop(&mut self) {
        // Recycle uniquely-owned tape buffers into the kernel arena so the
        // next tape (same model, same shapes) reuses them. Backward
        // closures go first: they hold copy-on-write aliases of node
        // values, and the node must be the last owner for recycling to
        // reclaim the buffer.
        let nodes = self.nodes.get_mut();
        for node in nodes.iter_mut() {
            node.backward = None;
        }
        for node in nodes.drain(..) {
            node.value.recycle();
            if let Some(grad) = node.grad {
                grad.recycle();
            }
        }
    }
}

/// Handle to a parameter in a [`ParamStore`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

/// Owns parameter tensors and their gradient accumulators.
#[derive(Default)]
pub struct ParamStore {
    values: Vec<Tensor>,
    grads: Vec<Tensor>,
    names: Vec<String>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter, returning its id.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        self.grads.push(Tensor::zeros(value.shape()));
        self.values.push(value);
        self.names.push(name.into());
        ParamId(self.values.len() - 1)
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutable value (used by optimizers).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id.0]
    }

    /// Accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.grads[id.0]
    }

    /// Mutable gradient accumulator.
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.grads[id.0]
    }

    /// Registered name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Number of parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total scalar parameter count.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(|t| t.len()).sum()
    }

    /// All parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.values.len()).map(ParamId)
    }

    /// Zeroes every gradient accumulator.
    pub fn zero_grads(&mut self) {
        for g in self.grads.iter_mut() {
            g.data_mut().iter_mut().for_each(|x| *x = 0.0);
        }
    }

    /// Global L2 norm across all gradients.
    pub fn grad_norm(&self) -> f32 {
        self.grads
            .iter()
            .map(|g| g.data().iter().map(|x| x * x).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Clips gradients to a maximum global L2 norm; returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for g in self.grads.iter_mut() {
                g.scale_assign(s);
            }
        }
        norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_is_send() {
        // A tape must stay movable between threads.
        fn assert_send<T: Send>() {}
        assert_send::<Graph>();
    }

    #[test]
    fn leaf_receives_unit_grad() {
        let g = Graph::new();
        let x = g.leaf(Tensor::scalar(2.0));
        g.backward(x);
        assert_eq!(g.grad(x).unwrap().item(), 1.0);
    }

    #[test]
    fn input_gets_no_grad() {
        let g = Graph::new();
        let x = g.input(Tensor::scalar(2.0));
        let y = crate::ops::scale(&g, x, 3.0);
        g.backward(y);
        assert!(g.grad(x).is_none());
    }

    #[test]
    fn grads_accumulate_across_uses() {
        let g = Graph::new();
        let x = g.leaf(Tensor::scalar(3.0));
        let y = crate::ops::add(&g, x, x); // y = 2x
        g.backward(y);
        assert_eq!(g.grad(x).unwrap().item(), 2.0);
    }

    #[test]
    fn param_store_roundtrip() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::new(vec![1.0, 2.0], &[2]));
        assert_eq!(store.num_scalars(), 2);
        assert_eq!(store.name(id), "w");

        let g = Graph::new();
        let w = g.bind(&store, id);
        let s = crate::ops::sum_all(&g, w);
        g.backward(s);
        g.write_grads(&mut store);
        assert_eq!(store.grad(id).data(), &[1.0, 1.0]);

        store.zero_grads();
        assert_eq!(store.grad(id).data(), &[0.0, 0.0]);
    }

    #[test]
    fn clip_grad_norm_scales() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::new(vec![0.0], &[1]));
        *store.grad_mut(id) = Tensor::new(vec![3.0], &[1]);
        let pre = store.clip_grad_norm(1.0);
        assert!((pre - 3.0).abs() < 1e-6);
        assert!((store.grad(id).data()[0] - 1.0).abs() < 1e-6);
    }
}
