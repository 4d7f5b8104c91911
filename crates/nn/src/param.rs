//! Trainable-parameter storage.
//!
//! A [`ParamStore`] owns every trainable tensor of a model together with a
//! same-shaped gradient accumulator. Layers hold [`ParamId`]s into the store;
//! the autograd graph accumulates into the gradient slots during
//! [`crate::graph::Graph::backward`]; optimizers consume them.
//!
//! Keeping parameters out of the graph lets one store be shared across the
//! many short-lived graphs a PPO epoch builds, and makes the chief–employee
//! gradient exchange a plain flat-buffer copy.
//!
//! Each value is held as an `Arc<Tensor>`: a graph takes a parameter by
//! bumping the refcount instead of copying it, and every write goes through
//! [`Arc::make_mut`], so a write while a graph still holds the value gives
//! the store a fresh copy and leaves the graph's view unchanged — exactly
//! what a per-graph copy would have done (copy-on-write, DESIGN.md §12).

use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Handle to one parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The raw index of the parameter within its store.
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Clone, Debug)]
struct Param {
    name: String,
    /// Shared with every graph that took it through [`Graph::param`]
    /// (copy-on-write).
    ///
    /// [`Graph::param`]: crate::graph::Graph::param
    value: Arc<Tensor>,
    grad: Tensor,
    /// Frozen parameters receive no gradient and are skipped by optimizers
    /// (used for the static embedding of the spatial curiosity model).
    frozen: bool,
}

/// Owns parameter values and their gradient accumulators.
#[derive(Clone, Debug, Default)]
pub struct ParamStore {
    params: Vec<Param>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a trainable parameter, returning its handle.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        self.push(name.into(), value, false)
    }

    /// Registers a frozen (non-trainable) parameter.
    pub fn add_frozen(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        self.push(name.into(), value, true)
    }

    fn push(&mut self, name: String, value: Tensor, frozen: bool) -> ParamId {
        let grad = Tensor::zeros(value.shape());
        self.params.push(Param { name, value: Arc::new(value), grad, frozen });
        ParamId(self.params.len() - 1)
    }

    /// Number of registered parameters (tensor count, not scalar count).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True if no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar parameters across all tensors.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.numel()).sum()
    }

    /// The value tensor of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    /// The shared value of a parameter, for [`Graph::param`]'s refcount
    /// bump.
    ///
    /// [`Graph::param`]: crate::graph::Graph::param
    pub(crate) fn shared_value(&self, id: ParamId) -> &Arc<Tensor> {
        &self.params[id.0].value
    }

    /// Mutable access to the value tensor of a parameter. Copies the value
    /// first if a graph still shares it.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        Arc::make_mut(&mut self.params[id.0].value)
    }

    /// The gradient accumulator of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].grad
    }

    /// The registered name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// Whether the parameter is frozen.
    pub fn is_frozen(&self, id: ParamId) -> bool {
        self.params[id.0].frozen
    }

    /// Accumulates `delta` into the gradient slot of `id` (no-op if frozen).
    pub fn accumulate_grad(&mut self, id: ParamId, delta: &Tensor) {
        let p = &mut self.params[id.0];
        if !p.frozen {
            p.grad.add_assign(delta);
        }
    }

    /// Zeroes every gradient accumulator.
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad.fill_zero();
        }
    }

    /// Iterator over all parameter handles.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    /// Applies `f(offset, value, grad)` to every trainable parameter, where
    /// `offset` is the parameter's first index in the flat layout of
    /// [`Self::flat_grads`] (copying a value first if a graph still shares
    /// it).
    pub fn for_each_trainable(&mut self, mut f: impl FnMut(usize, &mut Tensor, &Tensor)) {
        let mut offset = 0;
        for p in &mut self.params {
            if !p.frozen {
                f(offset, Arc::make_mut(&mut p.value), &p.grad);
            }
            offset += p.grad.numel();
        }
    }

    /// Flattens every gradient (trainable and frozen alike, frozen grads are
    /// zero) into one contiguous buffer — the wire format of the
    /// chief–employee gradient buffers.
    pub fn flat_grads(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_scalars());
        for p in &self.params {
            out.extend_from_slice(p.grad.data());
        }
        out
    }

    /// Overwrites every gradient slot with `sum / count`, element by
    /// element, from a flat buffer with the layout of [`Self::flat_grads`]:
    /// the chief's mean of the summed employee gradients. A quotient of
    /// `-0.0` is stored as `+0.0`, as zeroing the slot and adding it would.
    pub fn load_flat_grads_mean(&mut self, sum: &[f32], count: f32) {
        assert_eq!(sum.len(), self.num_scalars(), "flat gradient length mismatch");
        let mut offset = 0;
        for p in &mut self.params {
            let n = p.grad.numel();
            for (g, &s) in p.grad.data_mut().iter_mut().zip(&sum[offset..offset + n]) {
                *g = 0.0 + s / count;
            }
            offset += n;
        }
    }

    /// Flattens every parameter value into one contiguous buffer — the wire
    /// format for broadcasting fresh chief parameters to employees.
    pub fn flat_values(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.flat_values_into(&mut out);
        out
    }

    /// [`Self::flat_values`] into `out`, reusing its allocation.
    pub fn flat_values_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.num_scalars());
        for p in &self.params {
            out.extend_from_slice(p.value.data());
        }
    }

    /// Overwrites every parameter value from a flat buffer with identical
    /// layout (the inverse of [`Self::flat_values`]).
    pub fn load_flat_values(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.num_scalars(), "flat value length mismatch");
        let mut offset = 0;
        for p in &mut self.params {
            let n = p.value.numel();
            Arc::make_mut(&mut p.value).data_mut().copy_from_slice(&flat[offset..offset + n]);
            offset += n;
        }
    }

    /// Takes parameter values from another store with identical layout.
    /// The two stores share the values until either one writes them.
    pub fn copy_values_from(&mut self, other: &ParamStore) {
        assert_eq!(self.len(), other.len(), "store layout mismatch");
        for (dst, src) in self.params.iter_mut().zip(&other.params) {
            assert_eq!(dst.value.shape(), src.value.shape(), "param shape mismatch");
            dst.value = Arc::clone(&src.value);
        }
    }

    /// Global L2 norm across all trainable gradients.
    pub fn grad_global_norm(&self) -> f32 {
        self.params
            .iter()
            .filter(|p| !p.frozen)
            .map(|p| p.grad.data().iter().map(|g| g * g).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Scales every trainable gradient so the global norm is at most
    /// `max_norm`. Returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_global_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for p in &mut self.params {
                if !p.frozen {
                    p.grad.scale_inplace(scale);
                }
            }
        }
        norm
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn store_with_two() -> (ParamStore, ParamId, ParamId) {
        let mut s = ParamStore::new();
        let a = s.add("a", Tensor::from_vec(&[2], vec![1.0, 2.0]));
        let b = s.add("b", Tensor::from_vec(&[3], vec![3.0, 4.0, 5.0]));
        (s, a, b)
    }

    #[test]
    fn add_and_lookup() {
        let (s, a, b) = store_with_two();
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_scalars(), 5);
        assert_eq!(s.value(a).data(), &[1.0, 2.0]);
        assert_eq!(s.name(b), "b");
        assert!(!s.is_frozen(a));
    }

    #[test]
    fn grads_accumulate_and_zero() {
        let (mut s, a, _) = store_with_two();
        s.accumulate_grad(a, &Tensor::from_vec(&[2], vec![0.5, 0.5]));
        s.accumulate_grad(a, &Tensor::from_vec(&[2], vec![0.5, 0.5]));
        assert_eq!(s.grad(a).data(), &[1.0, 1.0]);
        s.zero_grads();
        assert_eq!(s.grad(a).data(), &[0.0, 0.0]);
    }

    #[test]
    fn frozen_params_reject_grads() {
        let mut s = ParamStore::new();
        let f = s.add_frozen("emb", Tensor::ones(&[4]));
        s.accumulate_grad(f, &Tensor::ones(&[4]));
        assert_eq!(s.grad(f).data(), &[0.0; 4]);
    }

    #[test]
    fn flat_grads_roundtrip() {
        let (mut s, a, b) = store_with_two();
        s.accumulate_grad(a, &Tensor::from_vec(&[2], vec![1.0, 2.0]));
        s.accumulate_grad(b, &Tensor::from_vec(&[3], vec![3.0, 4.0, 5.0]));
        let flat = s.flat_grads();
        assert_eq!(flat, vec![1.0, 2.0, 3.0, 4.0, 5.0]);

        let (mut s2, _, _) = store_with_two();
        s2.accumulate_grad(ParamId(0), &Tensor::from_vec(&[2], vec![9.0, 9.0]));
        s2.load_flat_grads_mean(&flat, 2.0);
        assert_eq!(s2.flat_grads(), vec![0.5, 1.0, 1.5, 2.0, 2.5]);
        // A -0.0 mean lands as +0.0, the bits of zeroing and then adding.
        s2.load_flat_grads_mean(&[-0.0, 0.0, 1.0, 1.0, 1.0], 2.0);
        assert_eq!(s2.grad(ParamId(0)).data()[0].to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn flat_values_roundtrip() {
        let (s, _, _) = store_with_two();
        let (mut s2, _, _) = store_with_two();
        s2.value_mut(ParamId(0)).fill_zero();
        s2.load_flat_values(&s.flat_values());
        assert_eq!(s2.flat_values(), s.flat_values());
    }

    #[test]
    fn clip_grad_norm_scales_down_only() {
        let (mut s, a, _) = store_with_two();
        s.accumulate_grad(a, &Tensor::from_vec(&[2], vec![3.0, 4.0]));
        let pre = s.clip_grad_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((s.grad_global_norm() - 1.0).abs() < 1e-6);
        // A second clip with a larger bound leaves gradients untouched.
        let pre2 = s.clip_grad_norm(10.0);
        assert!((pre2 - 1.0).abs() < 1e-6);
        assert!((s.grad_global_norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn load_flat_grads_mean_wrong_len_panics() {
        let (mut s, _, _) = store_with_two();
        s.load_flat_grads_mean(&[1.0, 2.0], 1.0);
    }
}
