//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] is a short-lived tape: the caller builds a forward computation
//! by calling op methods, each of which appends a node (insertion order is a
//! topological order, since ops can only reference already-built nodes), then
//! calls [`Graph::backward`] on a scalar loss node. Gradients flow backwards
//! and are accumulated into the [`ParamStore`] slots of parameter leaves.
//!
//! Parameters enter a graph via [`Graph::param`], which shares the store's
//! current value by a refcount bump instead of copying it. A graph
//! therefore never borrows the store, and one store can feed many
//! sequential graphs (the PPO epoch pattern). Store writes are
//! copy-on-write, so a graph still alive across an optimizer step keeps
//! reading the values it was built with.
//!
//! Tapes recycle themselves: dropping a `Graph` parks its node storage (and
//! any op-held index/context buffers) in thread-local freelists that the
//! next `Graph::new` on the same thread reuses, and `backward` recycles its
//! gradient-slot vector the same way. Together with the arena-backed
//! [`Tensor`] this makes steady-state training steps allocation-free inside
//! the graph (see `crates/nn/tests/arena_alloc.rs`).

use crate::arena;
use crate::op::Op;
use crate::ops::conv::{conv2d_forward, conv2d_input_grad, conv2d_weight_grads, ConvCfg};
use crate::ops::join::{relu_join_matmul, relu_join_matmul_backward};
use crate::ops::norm::{layer_norm_backward, layer_norm_forward};
use crate::ops::softmax::{log_softmax_backward, log_softmax_rows, softmax_backward, softmax_rows};
use crate::param::{ParamId, ParamStore};
use crate::tensor::Tensor;
use std::cell::RefCell;
use std::sync::Arc;

/// Handle to one node of a [`Graph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeId(usize);

/// Inline parent list. Every op has at most 3 parents (`Conv2d`,
/// `LayerNorm`), so parents live inside the node instead of one heap `Vec`
/// per node.
#[derive(Clone, Copy)]
struct Parents {
    ids: [NodeId; 3],
    len: u8,
}

impl Parents {
    fn new(ps: &[NodeId]) -> Self {
        assert!(ps.len() <= 3, "ops have at most 3 parents");
        let mut ids = [NodeId(usize::MAX); 3];
        ids[..ps.len()].copy_from_slice(ps);
        Self { ids, len: ps.len() as u8 }
    }
}

impl std::ops::Index<usize> for Parents {
    type Output = NodeId;
    fn index(&self, i: usize) -> &NodeId {
        assert!(i < usize::from(self.len), "parent index out of range");
        &self.ids[i]
    }
}

/// A node's forward value: computed by the node, or a parameter value
/// shared with the [`ParamStore`].
enum NodeValue {
    Owned(Tensor),
    Shared(Arc<Tensor>),
}

impl std::ops::Deref for NodeValue {
    type Target = Tensor;

    fn deref(&self) -> &Tensor {
        match self {
            NodeValue::Owned(t) => t,
            NodeValue::Shared(t) => t,
        }
    }
}

struct Node {
    value: NodeValue,
    parents: Parents,
    op: Op,
    /// True if this node is, or depends on, a non-frozen parameter leaf.
    needs_grad: bool,
    param: Option<ParamId>,
}

thread_local! {
    /// Retired node vectors, reused by the next `Graph::new` on this thread.
    static NODE_STORAGE: RefCell<Vec<Vec<Node>>> = const { RefCell::new(Vec::new()) };
    /// Retired gradient-slot vectors from `backward` / `grad_of`.
    static GRAD_STORAGE: RefCell<Vec<Vec<Option<Tensor>>>> = const { RefCell::new(Vec::new()) };
}

/// How many retired vectors each thread-local store parks.
const MAX_RETIRED: usize = 8;

fn take_grad_buffer(len: usize) -> Vec<Option<Tensor>> {
    let mut v = GRAD_STORAGE.try_with(|s| s.borrow_mut().pop()).ok().flatten().unwrap_or_default();
    v.clear();
    v.resize_with(len, || None);
    v
}

fn release_grad_buffer(mut v: Vec<Option<Tensor>>) {
    v.clear(); // remaining gradient tensors recycle through the arena
    let _ = GRAD_STORAGE.try_with(|s| {
        let mut s = s.borrow_mut();
        if s.len() < MAX_RETIRED {
            s.push(v);
        }
    });
}

/// A forward tape plus the machinery to run reverse-mode backprop over it.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Drop for Graph {
    fn drop(&mut self) {
        let mut nodes = std::mem::take(&mut self.nodes);
        for node in nodes.drain(..) {
            // Op-held buffers go back to the arena; node value tensors
            // recycle themselves on drop.
            match node.op {
                Op::PickColumn { indices } | Op::GatherRows { indices } => {
                    arena::put_usize(indices);
                }
                Op::LayerNorm { ctx, .. } => {
                    arena::put_f32(ctx.mean);
                    arena::put_f32(ctx.rstd);
                }
                _ => {}
            }
        }
        let _ = NODE_STORAGE.try_with(|s| {
            let mut s = s.borrow_mut();
            if s.len() < MAX_RETIRED {
                s.push(nodes);
            }
        });
    }
}

impl Graph {
    /// An empty tape (reusing a retired tape's storage when one is parked).
    pub fn new() -> Self {
        let nodes = NODE_STORAGE
            .try_with(|s| s.borrow_mut().pop())
            .ok()
            .flatten()
            .unwrap_or_else(|| Vec::with_capacity(64));
        Self { nodes }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.nodes[id.0].value
    }

    /// The shape of a node's value.
    pub fn shape(&self, id: NodeId) -> &[usize] {
        self.nodes[id.0].value.shape()
    }

    fn push(
        &mut self,
        value: Tensor,
        parents: &[NodeId],
        op: Op,
        param: Option<ParamId>,
        needs_grad: bool,
    ) -> NodeId {
        self.push_value(NodeValue::Owned(value), parents, op, param, needs_grad)
    }

    fn push_value(
        &mut self,
        value: NodeValue,
        parents: &[NodeId],
        op: Op,
        param: Option<ParamId>,
        needs_grad: bool,
    ) -> NodeId {
        self.nodes.push(Node { value, parents: Parents::new(parents), op, needs_grad, param });
        NodeId(self.nodes.len() - 1)
    }

    fn any_needs_grad(&self, parents: &[NodeId]) -> bool {
        parents.iter().any(|p| self.nodes[p.0].needs_grad)
    }

    // ---- graph inputs -----------------------------------------------------

    /// A constant input: no gradient flows into it.
    ///
    /// In debug builds the value is boundary-checked
    /// (shape consistency, no NaN/Inf) — see [`crate::check`].
    pub fn leaf(&mut self, value: Tensor) -> NodeId {
        crate::check::assert_valid(&value, "graph leaf");
        self.push(value, &[], Op::Leaf, None, false)
    }

    /// A parameter input: shares the store's current value (a refcount
    /// bump, no copy); backward accumulates into the store's gradient slot
    /// (unless frozen).
    ///
    /// In debug builds the parameter value is
    /// boundary-checked (shape consistency, no NaN/Inf).
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> NodeId {
        let needs = !store.is_frozen(id);
        let value = Arc::clone(store.shared_value(id));
        crate::check::assert_valid(&value, "graph param");
        self.push_value(NodeValue::Shared(value), &[], Op::Leaf, Some(id), needs)
    }

    // ---- elementwise ops --------------------------------------------------

    /// Elementwise `a + b` (same shape).
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).zip(self.value(b), |x, y| x + y);
        let ng = self.any_needs_grad(&[a, b]);
        self.push(v, &[a, b], Op::Add, None, ng)
    }

    /// Elementwise `a - b` (same shape).
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).zip(self.value(b), |x, y| x - y);
        let ng = self.any_needs_grad(&[a, b]);
        self.push(v, &[a, b], Op::Sub, None, ng)
    }

    /// Elementwise `a * b` (same shape).
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).zip(self.value(b), |x, y| x * y);
        let ng = self.any_needs_grad(&[a, b]);
        self.push(v, &[a, b], Op::Mul, None, ng)
    }

    /// Elementwise negation.
    pub fn neg(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(|x| -x);
        let ng = self.any_needs_grad(&[a]);
        self.push(v, &[a], Op::Neg, None, ng)
    }

    /// `x[rows, cols] + b[cols]` with `b` broadcast over rows (bias add).
    pub fn add_row_broadcast(&mut self, x: NodeId, b: NodeId) -> NodeId {
        let xv = self.value(x);
        let bv = self.value(b);
        assert_eq!(xv.ndim(), 2, "add_row_broadcast lhs must be rank 2");
        assert_eq!(bv.shape(), &[xv.shape()[1]], "bias width mismatch");
        let cols = xv.shape()[1];
        let mut out = xv.clone();
        if cols > 0 {
            for row in out.data_mut().chunks_exact_mut(cols) {
                for (o, &bias) in row.iter_mut().zip(bv.data()) {
                    *o += bias;
                }
            }
        }
        let ng = self.any_needs_grad(&[x, b]);
        self.push(out, &[x, b], Op::AddRowBroadcast, None, ng)
    }

    /// `c * a` for a known scalar.
    pub fn scale(&mut self, a: NodeId, c: f32) -> NodeId {
        let v = self.value(a).map(|x| c * x);
        let ng = self.any_needs_grad(&[a]);
        self.push(v, &[a], Op::Scale(c), None, ng)
    }

    /// Elementwise ReLU.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(|x| x.max(0.0));
        let ng = self.any_needs_grad(&[a]);
        self.push(v, &[a], Op::Relu, None, ng)
    }

    /// Elementwise tanh.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(f32::tanh);
        let ng = self.any_needs_grad(&[a]);
        self.push(v, &[a], Op::Tanh, None, ng)
    }

    /// Elementwise sigmoid.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        let ng = self.any_needs_grad(&[a]);
        self.push(v, &[a], Op::Sigmoid, None, ng)
    }

    /// Elementwise exp.
    pub fn exp(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(f32::exp);
        let ng = self.any_needs_grad(&[a]);
        self.push(v, &[a], Op::Exp, None, ng)
    }

    /// Elementwise ln(max(x, eps)).
    pub fn ln(&mut self, a: NodeId, eps: f32) -> NodeId {
        let v = self.value(a).map(|x| x.max(eps).ln());
        let ng = self.any_needs_grad(&[a]);
        self.push(v, &[a], Op::Ln { eps }, None, ng)
    }

    /// Elementwise square.
    pub fn square(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(|x| x * x);
        let ng = self.any_needs_grad(&[a]);
        self.push(v, &[a], Op::Square, None, ng)
    }

    /// Elementwise clamp to `[lo, hi]`.
    pub fn clamp(&mut self, a: NodeId, lo: f32, hi: f32) -> NodeId {
        assert!(lo <= hi, "clamp bounds inverted");
        let v = self.value(a).map(|x| x.clamp(lo, hi));
        let ng = self.any_needs_grad(&[a]);
        self.push(v, &[a], Op::Clamp { lo, hi }, None, ng)
    }

    /// Elementwise min(a, b).
    pub fn min_elem(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).zip(self.value(b), f32::min);
        let ng = self.any_needs_grad(&[a, b]);
        self.push(v, &[a, b], Op::MinElem, None, ng)
    }

    /// Elementwise max(a, b).
    pub fn max_elem(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).zip(self.value(b), f32::max);
        let ng = self.any_needs_grad(&[a, b]);
        self.push(v, &[a, b], Op::MaxElem, None, ng)
    }

    // ---- linear algebra ---------------------------------------------------

    /// Rank-2 matrix multiply.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).matmul(self.value(b));
        let ng = self.any_needs_grad(&[a, b]);
        self.push(v, &[a, b], Op::MatMul, None, ng)
    }

    /// `relu(x[e] + table[w]) · w` for every row `e` of `x:[B, F]` and
    /// every row `w` of `table:[W, F]` → `[B·W, N]`, row `e·W + w`
    /// (env-major, worker-minor). The `[B·W, F]` joined rows are written
    /// straight into the GEMM's packed panels and never stored; backward
    /// recomputes them (see [`crate::ops::join`]).
    pub fn relu_join_matmul(&mut self, x: NodeId, table: NodeId, w: NodeId) -> NodeId {
        let v = relu_join_matmul(self.value(x), self.value(table), self.value(w));
        let ng = self.any_needs_grad(&[x, table, w]);
        self.push(v, &[x, table, w], Op::ReluJoinMatMul, None, ng)
    }

    // ---- reductions -------------------------------------------------------

    /// Sum over all elements → `[1]`.
    pub fn sum_all(&mut self, a: NodeId) -> NodeId {
        let v = Tensor::scalar(self.value(a).sum());
        let ng = self.any_needs_grad(&[a]);
        self.push(v, &[a], Op::SumAll, None, ng)
    }

    /// Mean over all elements → `[1]`.
    pub fn mean_all(&mut self, a: NodeId) -> NodeId {
        let v = Tensor::scalar(self.value(a).mean());
        let ng = self.any_needs_grad(&[a]);
        self.push(v, &[a], Op::MeanAll, None, ng)
    }

    /// Per-row mean of `[rows, cols]` → `[rows, 1]`.
    #[allow(clippy::needless_range_loop)]
    pub fn mean_rows(&mut self, a: NodeId) -> NodeId {
        let av = self.value(a);
        assert_eq!(av.ndim(), 2, "mean_rows requires rank 2");
        let (rows, cols) = (av.shape()[0], av.shape()[1]);
        let mut out = arena::take_f32_zeroed(rows);
        for r in 0..rows {
            out[r] = av.data()[r * cols..(r + 1) * cols].iter().sum::<f32>() / cols as f32;
        }
        let v = Tensor::from_vec(&[rows, 1], out);
        let ng = self.any_needs_grad(&[a]);
        self.push(v, &[a], Op::MeanRows, None, ng)
    }

    // ---- shape ops ----------------------------------------------------------

    /// Reinterprets a node's value under a new shape.
    pub fn reshape(&mut self, a: NodeId, shape: &[usize]) -> NodeId {
        let v = self.value(a).reshape(shape);
        let ng = self.any_needs_grad(&[a]);
        self.push(v, &[a], Op::Reshape, None, ng)
    }

    /// Concatenates two rank-2 tensors along the column axis.
    pub fn concat_cols(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let av = self.value(a);
        let bv = self.value(b);
        assert_eq!(av.ndim(), 2, "concat_cols lhs must be rank 2");
        assert_eq!(bv.ndim(), 2, "concat_cols rhs must be rank 2");
        assert_eq!(av.shape()[0], bv.shape()[0], "concat_cols row mismatch");
        let (rows, ca, cb) = (av.shape()[0], av.shape()[1], bv.shape()[1]);
        let mut out = arena::take_f32_zeroed(rows * (ca + cb));
        for r in 0..rows {
            out[r * (ca + cb)..r * (ca + cb) + ca]
                .copy_from_slice(&av.data()[r * ca..(r + 1) * ca]);
            out[r * (ca + cb) + ca..(r + 1) * (ca + cb)]
                .copy_from_slice(&bv.data()[r * cb..(r + 1) * cb]);
        }
        let v = Tensor::from_vec(&[rows, ca + cb], out);
        let ng = self.any_needs_grad(&[a, b]);
        self.push(v, &[a, b], Op::ConcatCols { left_cols: ca }, None, ng)
    }

    /// Columns `[start, start + len)` of a rank-2 tensor → `[rows, len]`.
    pub fn slice_cols(&mut self, a: NodeId, start: usize, len: usize) -> NodeId {
        let av = self.value(a);
        assert_eq!(av.ndim(), 2, "slice_cols requires rank 2");
        let cols = av.shape()[1];
        assert!(start + len <= cols, "slice_cols [{start}, {}) out of {cols} columns", start + len);
        let rows = av.shape()[0];
        let mut out = arena::take_f32(rows * len);
        if cols > 0 {
            for row in av.data().chunks_exact(cols) {
                out.extend_from_slice(&row[start..start + len]);
            }
        }
        let v = Tensor::from_vec(&[rows, len], out);
        let ng = self.any_needs_grad(&[a]);
        self.push(v, &[a], Op::SliceCols { start }, None, ng)
    }

    // ---- distribution ops ---------------------------------------------------

    /// Row-wise softmax.
    pub fn softmax(&mut self, a: NodeId) -> NodeId {
        let v = softmax_rows(self.value(a));
        let ng = self.any_needs_grad(&[a]);
        self.push(v, &[a], Op::Softmax, None, ng)
    }

    /// Row-wise log-softmax.
    pub fn log_softmax(&mut self, a: NodeId) -> NodeId {
        let v = log_softmax_rows(self.value(a));
        let ng = self.any_needs_grad(&[a]);
        self.push(v, &[a], Op::LogSoftmax, None, ng)
    }

    /// Picks `x[r, indices[r]]` per row → `[rows, 1]`.
    pub fn pick_column(&mut self, a: NodeId, indices: Vec<usize>) -> NodeId {
        let av = self.value(a);
        assert_eq!(av.ndim(), 2, "pick_column requires rank 2");
        let (rows, cols) = (av.shape()[0], av.shape()[1]);
        assert_eq!(indices.len(), rows, "one index per row required");
        let mut out = arena::take_f32_zeroed(rows);
        for (r, &ix) in indices.iter().enumerate() {
            assert!(ix < cols, "pick index {ix} out of {cols} columns");
            out[r] = av.at2(r, ix);
        }
        let v = Tensor::from_vec(&[rows, 1], out);
        let ng = self.any_needs_grad(&[a]);
        self.push(v, &[a], Op::PickColumn { indices }, None, ng)
    }

    /// Gathers rows from a `[vocab, dim]` table → `[len, dim]`.
    pub fn gather_rows(&mut self, table: NodeId, indices: Vec<usize>) -> NodeId {
        let tv = self.value(table);
        assert_eq!(tv.ndim(), 2, "gather_rows table must be rank 2");
        let (vocab, dim) = (tv.shape()[0], tv.shape()[1]);
        let mut out = arena::take_f32(indices.len() * dim);
        for &ix in &indices {
            assert!(ix < vocab, "gather index {ix} out of {vocab} rows");
            out.extend_from_slice(&tv.data()[ix * dim..(ix + 1) * dim]);
        }
        let v = Tensor::from_vec(&[indices.len(), dim], out);
        let ng = self.any_needs_grad(&[table]);
        self.push(v, &[table], Op::GatherRows { indices }, None, ng)
    }

    // ---- NN primitives ------------------------------------------------------

    /// 2-D convolution `x:[B,Cin,H,W] * w:[Cout,Cin,K,K] + b:[Cout]`.
    pub fn conv2d(&mut self, x: NodeId, w: NodeId, b: NodeId, cfg: ConvCfg) -> NodeId {
        let f = conv2d_forward(self.value(x), self.value(w), self.value(b), &cfg);
        let ng = self.any_needs_grad(&[x, w, b]);
        self.push(f.output, &[x, w, b], Op::Conv2d { cfg, padded: f.padded }, None, ng)
    }

    /// Layer norm over each item's trailing features of `x:[B, ...]`.
    pub fn layer_norm(&mut self, x: NodeId, gamma: NodeId, beta: NodeId, eps: f32) -> NodeId {
        self.layer_norm_op(x, gamma, beta, eps, false)
    }

    /// `relu(layer_norm(x))` as one node: the same op with its ReLU on.
    pub fn layer_norm_relu(&mut self, x: NodeId, gamma: NodeId, beta: NodeId, eps: f32) -> NodeId {
        self.layer_norm_op(x, gamma, beta, eps, true)
    }

    fn layer_norm_op(
        &mut self,
        x: NodeId,
        gamma: NodeId,
        beta: NodeId,
        eps: f32,
        relu: bool,
    ) -> NodeId {
        let (v, ctx) =
            layer_norm_forward(self.value(x), self.value(gamma), self.value(beta), eps, relu);
        let ng = self.any_needs_grad(&[x, gamma, beta]);
        self.push(v, &[x, gamma, beta], Op::LayerNorm { ctx, relu }, None, ng)
    }

    // ---- backward -----------------------------------------------------------

    /// Runs reverse-mode backprop from `loss` (which must be a single-element
    /// tensor), accumulating parameter gradients into `store`. Returns the
    /// loss value.
    ///
    /// In debug builds every parameter gradient leaving
    /// the tape is boundary-checked: a NaN/Inf gradient aborts here, at the
    /// graph boundary, instead of silently corrupting the optimizer state.
    pub fn backward(&self, loss: NodeId, store: &mut ParamStore) -> f32 {
        let grads = self.compute_grads(loss);
        for (node, grad) in self.nodes.iter().zip(&grads) {
            if let (Some(pid), Some(g)) = (node.param, grad.as_ref()) {
                crate::check::assert_valid(g, "parameter gradient");
                store.accumulate_grad(pid, g);
            }
        }
        release_grad_buffer(grads);
        self.nodes[loss.0].value.item()
    }

    /// The gradient of `loss` with respect to an arbitrary node (e.g. a leaf
    /// input), or `None` if no gradient reached it. Used by gradient-check
    /// tests and by RND/ICM feature analysis.
    pub fn grad_of(&self, loss: NodeId, node: NodeId) -> Option<Tensor> {
        let mut grads = self.compute_grads_tracking_all(loss);
        let g = grads[node.0].take();
        release_grad_buffer(grads);
        g
    }

    fn compute_grads(&self, loss: NodeId) -> Vec<Option<Tensor>> {
        self.run_backward(loss, false)
    }

    fn compute_grads_tracking_all(&self, loss: NodeId) -> Vec<Option<Tensor>> {
        self.run_backward(loss, true)
    }

    fn run_backward(&self, loss: NodeId, track_all: bool) -> Vec<Option<Tensor>> {
        assert_eq!(
            self.nodes[loss.0].value.numel(),
            1,
            "backward requires a scalar loss, got shape {:?}",
            self.nodes[loss.0].value.shape()
        );
        let mut grads: Vec<Option<Tensor>> = take_grad_buffer(self.nodes.len());
        grads[loss.0] = Some(Tensor::ones(self.nodes[loss.0].value.shape()));

        for i in (0..self.nodes.len()).rev() {
            let Some(gout) = grads[i].take() else { continue };
            let node = &self.nodes[i];
            // When not tracking all grads we can skip subtrees with no
            // trainable parameters.
            let relevant = |p: NodeId| {
                track_all || self.nodes[p.0].needs_grad || self.nodes[p.0].param.is_some()
            };
            let send = |grads: &mut Vec<Option<Tensor>>, p: NodeId, g: Tensor| {
                if !relevant(p) {
                    return;
                }
                match &mut grads[p.0] {
                    Some(acc) => acc.add_assign(&g),
                    slot @ None => *slot = Some(g),
                }
            };

            match &node.op {
                Op::Leaf => {
                    // Terminal; re-install the grad so param accumulation and
                    // grad_of can read it.
                    grads[i] = Some(gout);
                    continue;
                }
                Op::Add => {
                    send(&mut grads, node.parents[0], gout.clone());
                    send(&mut grads, node.parents[1], gout);
                }
                Op::Sub => {
                    send(&mut grads, node.parents[0], gout.clone());
                    send(&mut grads, node.parents[1], gout.map(|g| -g));
                }
                Op::Mul => {
                    let a = node.parents[0];
                    let b = node.parents[1];
                    send(&mut grads, a, gout.zip(self.value(b), |g, y| g * y));
                    send(&mut grads, b, gout.zip(self.value(a), |g, x| g * x));
                }
                Op::Neg => send(&mut grads, node.parents[0], gout.map(|g| -g)),
                Op::AddRowBroadcast => {
                    let x = node.parents[0];
                    let b = node.parents[1];
                    let cols = self.value(x).shape()[1];
                    let mut gb = Tensor::zeros(&[cols]);
                    if cols > 0 {
                        for row in gout.data().chunks_exact(cols) {
                            for (acc, &g) in gb.data_mut().iter_mut().zip(row) {
                                *acc += g;
                            }
                        }
                    }
                    send(&mut grads, x, gout);
                    send(&mut grads, b, gb);
                }
                Op::Scale(c) => {
                    let c = *c;
                    send(&mut grads, node.parents[0], gout.map(|g| c * g));
                }
                Op::MatMul => {
                    let a = node.parents[0];
                    let b = node.parents[1];
                    // dA = g·Bᵀ, dB = Aᵀ·g via the transpose-packing kernels
                    // (no materialized transpose tensors).
                    let ga = gout.matmul_nt(self.value(b));
                    let gb = self.value(a).matmul_tn(&gout);
                    send(&mut grads, a, ga);
                    send(&mut grads, b, gb);
                }
                Op::ReluJoinMatMul => {
                    let (x, table, w) = (node.parents[0], node.parents[1], node.parents[2]);
                    let g = relu_join_matmul_backward(
                        &gout,
                        self.value(x),
                        self.value(table),
                        self.value(w),
                        relevant(x) || relevant(table),
                        relevant(w),
                    );
                    for (p, grad) in [(x, g.gx), (table, g.gtable), (w, g.gw)] {
                        if let Some(grad) = grad {
                            send(&mut grads, p, grad);
                        }
                    }
                }
                Op::Relu => {
                    let x = self.value(node.parents[0]);
                    send(
                        &mut grads,
                        node.parents[0],
                        gout.zip(x, |g, v| if v > 0.0 { g } else { 0.0 }),
                    );
                }
                Op::Tanh => {
                    let y = &node.value;
                    send(&mut grads, node.parents[0], gout.zip(y, |g, t| g * (1.0 - t * t)));
                }
                Op::Sigmoid => {
                    let y = &node.value;
                    send(&mut grads, node.parents[0], gout.zip(y, |g, s| g * s * (1.0 - s)));
                }
                Op::Exp => {
                    let y = &node.value;
                    send(&mut grads, node.parents[0], gout.zip(y, |g, e| g * e));
                }
                Op::Ln { eps } => {
                    let eps = *eps;
                    let x = self.value(node.parents[0]);
                    send(&mut grads, node.parents[0], gout.zip(x, |g, v| g / v.max(eps)));
                }
                Op::Square => {
                    let x = self.value(node.parents[0]);
                    send(&mut grads, node.parents[0], gout.zip(x, |g, v| 2.0 * v * g));
                }
                Op::Clamp { lo, hi } => {
                    let (lo, hi) = (*lo, *hi);
                    let x = self.value(node.parents[0]);
                    send(
                        &mut grads,
                        node.parents[0],
                        gout.zip(x, |g, v| if v > lo && v < hi { g } else { 0.0 }),
                    );
                }
                Op::MinElem | Op::MaxElem => {
                    let take_first = matches!(node.op, Op::MinElem);
                    let a = node.parents[0];
                    let b = node.parents[1];
                    let av = self.value(a);
                    let bv = self.value(b);
                    let mut ga = Tensor::zeros(av.shape());
                    let mut gb = Tensor::zeros(bv.shape());
                    for (((g, &x), &y), (sa, sb)) in gout
                        .data()
                        .iter()
                        .zip(av.data())
                        .zip(bv.data())
                        .zip(ga.data_mut().iter_mut().zip(gb.data_mut().iter_mut()))
                    {
                        // Ties route to the first operand.
                        let first_wins = if take_first { x <= y } else { x >= y };
                        if first_wins {
                            *sa = *g;
                        } else {
                            *sb = *g;
                        }
                    }
                    send(&mut grads, a, ga);
                    send(&mut grads, b, gb);
                }
                Op::SumAll => {
                    let g = gout.item();
                    let p = node.parents[0];
                    send(&mut grads, p, Tensor::full(self.value(p).shape(), g));
                }
                Op::MeanAll => {
                    let p = node.parents[0];
                    let n = self.value(p).numel() as f32;
                    let g = gout.item() / n;
                    send(&mut grads, p, Tensor::full(self.value(p).shape(), g));
                }
                Op::MeanRows => {
                    let p = node.parents[0];
                    let (rows, cols) = (self.value(p).shape()[0], self.value(p).shape()[1]);
                    let mut gp = Tensor::zeros(&[rows, cols]);
                    for r in 0..rows {
                        let g = gout.data()[r] / cols as f32;
                        for c in 0..cols {
                            *gp.at2_mut(r, c) = g;
                        }
                    }
                    send(&mut grads, p, gp);
                }
                Op::Reshape => {
                    let p = node.parents[0];
                    let g = gout.reshape(self.value(p).shape());
                    send(&mut grads, p, g);
                }
                Op::ConcatCols { left_cols } => {
                    let a = node.parents[0];
                    let b = node.parents[1];
                    let ca = *left_cols;
                    let rows = gout.shape()[0];
                    let total = gout.shape()[1];
                    let cb = total - ca;
                    let mut ga = Tensor::zeros(&[rows, ca]);
                    let mut gb = Tensor::zeros(&[rows, cb]);
                    for r in 0..rows {
                        ga.data_mut()[r * ca..(r + 1) * ca]
                            .copy_from_slice(&gout.data()[r * total..r * total + ca]);
                        gb.data_mut()[r * cb..(r + 1) * cb]
                            .copy_from_slice(&gout.data()[r * total + ca..(r + 1) * total]);
                    }
                    send(&mut grads, a, ga);
                    send(&mut grads, b, gb);
                }
                Op::SliceCols { start } => {
                    let p = node.parents[0];
                    let (rows, cols) = (self.value(p).shape()[0], self.value(p).shape()[1]);
                    let (start, len) = (*start, gout.shape()[1]);
                    let mut gp = Tensor::zeros(&[rows, cols]);
                    if len > 0 {
                        for (gr, g) in
                            gp.data_mut().chunks_exact_mut(cols).zip(gout.data().chunks_exact(len))
                        {
                            gr[start..start + len].copy_from_slice(g);
                        }
                    }
                    send(&mut grads, p, gp);
                }
                Op::Softmax => {
                    send(&mut grads, node.parents[0], softmax_backward(&node.value, &gout));
                }
                Op::LogSoftmax => {
                    send(&mut grads, node.parents[0], log_softmax_backward(&node.value, &gout));
                }
                Op::PickColumn { indices } => {
                    let p = node.parents[0];
                    let (rows, cols) = (self.value(p).shape()[0], self.value(p).shape()[1]);
                    let mut gp = Tensor::zeros(&[rows, cols]);
                    for (r, &ix) in indices.iter().enumerate() {
                        *gp.at2_mut(r, ix) += gout.data()[r];
                    }
                    send(&mut grads, p, gp);
                }
                Op::GatherRows { indices } => {
                    let p = node.parents[0];
                    let (vocab, dim) = (self.value(p).shape()[0], self.value(p).shape()[1]);
                    let mut gp = Tensor::zeros(&[vocab, dim]);
                    for (r, &ix) in indices.iter().enumerate() {
                        for d in 0..dim {
                            gp.data_mut()[ix * dim + d] += gout.data()[r * dim + d];
                        }
                    }
                    send(&mut grads, p, gp);
                }
                Op::Conv2d { cfg, padded } => {
                    let x = node.parents[0];
                    let w = node.parents[1];
                    let b = node.parents[2];
                    // The state leaf feeding the first conv needs no
                    // gradient: skip its input-gradient kernel outright.
                    if relevant(x) {
                        let xs = self.value(x).shape();
                        send(&mut grads, x, conv2d_input_grad(&gout, self.value(w), xs, cfg));
                    }
                    let (gw, gb) = conv2d_weight_grads(&gout, padded, cfg);
                    send(&mut grads, w, gw);
                    send(&mut grads, b, gb);
                }
                Op::LayerNorm { ctx, relu } => {
                    let x = node.parents[0];
                    let gamma = node.parents[1];
                    let beta = node.parents[2];
                    let out = relu.then_some(&*node.value);
                    let g = layer_norm_backward(&gout, self.value(x), self.value(gamma), ctx, out);
                    send(&mut grads, x, g.gx);
                    send(&mut grads, gamma, g.ggamma);
                    send(&mut grads, beta, g.gbeta);
                }
            }
        }
        grads
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::param::ParamStore;

    /// d/dx of sum(f(x)) via central differences on a leaf.
    fn numeric_grad(build: &dyn Fn(&mut Graph, NodeId) -> NodeId, x0: &Tensor) -> Tensor {
        let eps = 1e-3f32;
        let mut out = Tensor::zeros(x0.shape());
        for i in 0..x0.numel() {
            let mut xp = x0.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x0.clone();
            xm.data_mut()[i] -= eps;
            let fp = {
                let mut g = Graph::new();
                let x = g.leaf(xp);
                let y = build(&mut g, x);
                g.value(y).item()
            };
            let fm = {
                let mut g = Graph::new();
                let x = g.leaf(xm);
                let y = build(&mut g, x);
                g.value(y).item()
            };
            out.data_mut()[i] = (fp - fm) / (2.0 * eps);
        }
        out
    }

    fn analytic_grad(build: &dyn Fn(&mut Graph, NodeId) -> NodeId, x0: &Tensor) -> Tensor {
        let mut g = Graph::new();
        let x = g.leaf(x0.clone());
        let y = build(&mut g, x);
        g.grad_of(y, x).expect("gradient must reach the input")
    }

    fn check(build: &dyn Fn(&mut Graph, NodeId) -> NodeId, x0: &Tensor, tol: f32) {
        let num = numeric_grad(build, x0);
        let ana = analytic_grad(build, x0);
        for i in 0..x0.numel() {
            assert!(
                (num.data()[i] - ana.data()[i]).abs() < tol,
                "coord {i}: numeric {} analytic {}",
                num.data()[i],
                ana.data()[i]
            );
        }
    }

    fn test_input(n: usize) -> Tensor {
        Tensor::from_vec(&[1, n], (0..n).map(|i| 0.4 * (i as f32 * 0.83).sin() + 0.1).collect())
    }

    #[test]
    fn grad_elementwise_chain() {
        // f = sum(tanh(relu(2x + 1))^2)
        let x0 = test_input(6);
        check(
            &|g, x| {
                let a = g.scale(x, 2.0);
                let ones = Tensor::ones(g.value(a).shape());
                let one = g.leaf(ones);
                let b = g.add(a, one);
                let c = g.relu(b);
                let d = g.tanh(c);
                let e = g.square(d);
                g.sum_all(e)
            },
            &x0,
            1e-2,
        );
    }

    #[test]
    fn grad_mul_sub_exp() {
        let x0 = test_input(5);
        check(
            &|g, x| {
                let e = g.exp(x);
                let m = g.mul(e, x);
                let s = g.sub(m, x);
                g.mean_all(s)
            },
            &x0,
            1e-2,
        );
    }

    #[test]
    fn grad_sigmoid_ln() {
        let x0 = test_input(5);
        check(
            &|g, x| {
                let s = g.sigmoid(x);
                let l = g.ln(s, 1e-8);
                g.sum_all(l)
            },
            &x0,
            1e-2,
        );
    }

    #[test]
    fn grad_matmul_both_sides() {
        let x0 = Tensor::from_vec(&[2, 3], (0..6).map(|i| (i as f32 * 0.7).cos()).collect());
        let w = Tensor::from_vec(&[3, 2], vec![0.2, -0.4, 0.3, 0.1, -0.2, 0.5]);
        let wc = w.clone();
        check(
            &move |g, x| {
                let w = g.leaf(wc.clone());
                let y = g.matmul(x, w);
                g.sum_all(y)
            },
            &x0,
            1e-2,
        );
    }

    #[test]
    fn grad_softmax_pick_nll() {
        // Negative log likelihood through log_softmax + pick_column — the PPO
        // log-prob path.
        let x0 = Tensor::from_vec(&[2, 4], (0..8).map(|i| (i as f32 * 0.31).sin()).collect());
        check(
            &|g, x| {
                let ls = g.log_softmax(x);
                let p = g.pick_column(ls, vec![1, 3]);
                let n = g.neg(p);
                g.sum_all(n)
            },
            &x0,
            1e-2,
        );
    }

    #[test]
    fn grad_clamp_min_max() {
        let x0 = test_input(6);
        let other = Tensor::from_vec(&[1, 6], vec![0.1, -0.1, 0.3, 0.0, 0.2, -0.3]);
        let oc = other.clone();
        check(
            &move |g, x| {
                let o = g.leaf(oc.clone());
                let c = g.clamp(x, -0.25, 0.25);
                let mn = g.min_elem(c, o);
                let mx = g.max_elem(mn, x);
                g.sum_all(mx)
            },
            &x0,
            2e-2,
        );
    }

    #[test]
    fn grad_concat_and_mean_rows() {
        let x0 = Tensor::from_vec(&[2, 3], (0..6).map(|i| (i as f32 * 0.51).sin()).collect());
        check(
            &|g, x| {
                let sq = g.square(x);
                let c = g.concat_cols(x, sq);
                let m = g.mean_rows(c);
                g.sum_all(m)
            },
            &x0,
            1e-2,
        );
    }

    #[test]
    fn grad_slice_cols() {
        let x0 = Tensor::from_vec(&[2, 3], (0..6).map(|i| (i as f32 * 0.37).sin()).collect());
        check(
            &|g, x| {
                let left = g.slice_cols(x, 0, 2);
                let right = g.slice_cols(x, 1, 2);
                let m = g.mul(left, right);
                g.sum_all(m)
            },
            &x0,
            1e-2,
        );
    }

    #[test]
    fn grad_reshape_passthrough() {
        let x0 = Tensor::from_vec(&[1, 6], (0..6).map(|i| i as f32 * 0.1).collect());
        check(
            &|g, x| {
                let r = g.reshape(x, &[2, 3]);
                let s = g.square(r);
                g.sum_all(s)
            },
            &x0,
            1e-2,
        );
    }

    #[test]
    fn grad_gather_rows_scatter_adds() {
        let mut store = ParamStore::new();
        let table = store.add("t", Tensor::from_vec(&[3, 2], vec![1., 2., 3., 4., 5., 6.]));
        let mut g = Graph::new();
        let t = g.param(&store, table);
        // Row 1 gathered twice: its gradient must be 2.
        let gat = g.gather_rows(t, vec![1, 1, 0]);
        let loss = g.sum_all(gat);
        g.backward(loss, &mut store);
        assert_eq!(store.grad(table).data(), &[1., 1., 2., 2., 0., 0.]);
    }

    #[test]
    fn backward_accumulates_into_params() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(&[1, 1], vec![3.0]));
        // loss = (w * 2)^2 = 4 w^2, dloss/dw = 8w = 24.
        let mut g = Graph::new();
        let wn = g.param(&store, w);
        let x = g.scale(wn, 2.0);
        let sq = g.square(x);
        let loss = g.sum_all(sq);
        let lv = g.backward(loss, &mut store);
        assert!((lv - 36.0).abs() < 1e-5);
        assert!((store.grad(w).data()[0] - 24.0).abs() < 1e-4);
    }

    #[test]
    fn param_nodes_share_the_store_value() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]));
        let mut g = Graph::new();
        let wn = g.param(&store, w);
        assert_eq!(g.value(wn).data().as_ptr(), store.value(w).data().as_ptr());
    }

    #[test]
    fn a_graph_held_across_an_adam_step_keeps_the_old_values() {
        use crate::optim::{Adam, Optimizer};
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(&[3], vec![1.0, -2.0, 0.5]));
        let before = store.value(w).clone();
        let mut g = Graph::new();
        let wn = g.param(&store, w);
        let sq = g.square(wn);
        let loss = g.sum_all(sq);
        g.backward(loss, &mut store);
        Adam::new(0.1).step(&mut store);
        assert_ne!(store.value(w), &before, "the step must move the store");
        assert_eq!(g.value(wn), &before, "the live graph must keep the old values");
        assert_ne!(g.value(wn).data().as_ptr(), store.value(w).data().as_ptr());
        // Once no graph shares it, a write lands in place.
        drop(g);
        let ptr = store.value(w).data().as_ptr();
        store.value_mut(w).data_mut()[0] = 7.0;
        assert_eq!(store.value(w).data().as_ptr(), ptr);
    }

    #[test]
    fn frozen_param_gets_no_grad() {
        let mut store = ParamStore::new();
        let w = store.add_frozen("w", Tensor::from_vec(&[1, 1], vec![2.0]));
        let mut g = Graph::new();
        let wn = g.param(&store, w);
        let sq = g.square(wn);
        let loss = g.sum_all(sq);
        g.backward(loss, &mut store);
        assert_eq!(store.grad(w).data(), &[0.0]);
    }

    #[test]
    fn diamond_graph_accumulates() {
        // y = x*x + x*x (the same mul node used twice via add).
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(&[1], vec![3.0]));
        let mut g = Graph::new();
        let x = g.param(&store, w);
        let m = g.mul(x, x);
        let y = g.add(m, m);
        let loss = g.sum_all(y);
        g.backward(loss, &mut store);
        // d(2x^2)/dx = 4x = 12.
        assert!((store.grad(w).data()[0] - 12.0).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_on_non_scalar_panics() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::zeros(&[2]));
        let mut g = Graph::new();
        let x = g.param(&store, w);
        g.backward(x, &mut store);
    }

    #[test]
    fn grad_conv_layernorm_pipeline() {
        // End-to-end: conv -> flatten -> layer_norm -> mean, checked against
        // finite differences through the whole tape.
        let cfg = ConvCfg { in_channels: 1, out_channels: 2, kernel: 3, stride: 1, padding: 1 };
        let x0 = Tensor::from_vec(&[1, 1, 3, 3], (0..9).map(|i| (i as f32 * 0.45).sin()).collect());
        let w = Tensor::from_vec(
            &[2, 1, 3, 3],
            (0..18).map(|i| (i as f32 * 0.21).cos() * 0.3).collect(),
        );
        let b = Tensor::from_vec(&[2], vec![0.1, -0.1]);
        let gamma = Tensor::ones(&[18]);
        let beta = Tensor::zeros(&[18]);
        let (wc, bc, gc, bec) = (w.clone(), b.clone(), gamma.clone(), beta.clone());
        check(
            &move |g, x| {
                let w = g.leaf(wc.clone());
                let b = g.leaf(bc.clone());
                let gamma = g.leaf(gc.clone());
                let beta = g.leaf(bec.clone());
                let y = g.conv2d(x, w, b, cfg);
                let flat = g.reshape(y, &[1, 18]);
                let n = g.layer_norm(flat, gamma, beta, 1e-5);
                let t = g.tanh(n);
                g.mean_all(t)
            },
            &x0,
            2e-2,
        );
    }

    #[test]
    fn conv_on_a_state_leaf_skips_only_the_input_gradient() {
        // `backward` drops the gradient of a leaf that needs none, so it
        // never computes it; `grad_of` still does. Both must give exactly
        // the gradients of the op-level backward.
        let cfg = ConvCfg { in_channels: 2, out_channels: 3, kernel: 3, stride: 2, padding: 1 };
        let x0 =
            Tensor::from_vec(&[2, 2, 5, 5], (0..100).map(|i| (i as f32 * 0.37).sin()).collect());
        let mut store = ParamStore::new();
        let w0 =
            Tensor::from_vec(&[3, 2, 3, 3], (0..54).map(|i| (i as f32 * 0.21).cos()).collect());
        let wid = store.add("w", w0.clone());
        let bid = store.add("b", Tensor::from_vec(&[3], vec![0.1, -0.2, 0.3]));
        let mut g = Graph::new();
        let x = g.leaf(x0.clone());
        let w = g.param(&store, wid);
        let b = g.param(&store, bid);
        let y = g.conv2d(x, w, b, cfg);
        let loss = g.sum_all(y);
        g.backward(loss, &mut store);

        let f = crate::ops::conv::conv2d_forward(&x0, &w0, store.value(bid), &cfg);
        let gout = Tensor::ones(f.output.shape());
        let (gw, gb) = crate::ops::conv::conv2d_weight_grads(&gout, &f.padded, &cfg);
        let gx = crate::ops::conv::conv2d_input_grad(&gout, &w0, x0.shape(), &cfg);
        assert_eq!(store.grad(wid).data(), gw.data());
        assert_eq!(store.grad(bid).data(), gb.data());
        assert_eq!(g.grad_of(loss, x).expect("input gradient").data(), gx.data());
    }

    #[test]
    #[cfg(debug_assertions)]
    fn nan_leaf_is_rejected_at_the_graph_boundary() {
        let res = std::panic::catch_unwind(|| {
            let mut g = Graph::new();
            g.leaf(Tensor::from_vec(&[2], vec![1.0, f32::NAN]));
        });
        assert!(res.is_err(), "a NaN entering the tape must abort at the boundary");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn nonfinite_parameter_gradient_is_rejected_by_backward() {
        // x is finite but huge; d/dx sum(x²) = 2x overflows to +Inf, so the
        // gradient leaving the tape is non-finite and must abort in
        // backward() rather than corrupt the optimizer state.
        let res = std::panic::catch_unwind(|| {
            let mut store = ParamStore::new();
            let id = store.add("w", Tensor::from_vec(&[1], vec![3.0e38]));
            let mut g = Graph::new();
            let x = g.param(&store, id);
            let sq = g.square(x);
            let loss = g.sum_all(sq);
            g.backward(loss, &mut store);
        });
        assert!(res.is_err(), "an overflowing gradient must abort at the boundary");
    }
}
