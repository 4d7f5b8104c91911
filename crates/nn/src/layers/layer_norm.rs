//! Layer-norm layer with learnable scale and shift.

use crate::graph::{Graph, NodeId};
use crate::param::{ParamId, ParamStore};
use crate::tensor::Tensor;

/// Layer normalization over each item's trailing `feat` floats of a
/// `[B, ...]` input: `[B, feat]` rows or `[B, C, H, W]` conv outputs alike.
#[derive(Clone, Debug)]
pub struct LayerNormLayer {
    gamma: ParamId,
    beta: ParamId,
    feat: usize,
    eps: f32,
}

impl LayerNormLayer {
    /// Registers `gamma = 1`, `beta = 0` in `store`.
    pub fn new(store: &mut ParamStore, name: &str, feat: usize) -> Self {
        let gamma = store.add(format!("{name}.gamma"), Tensor::ones(&[feat]));
        let beta = store.add(format!("{name}.beta"), Tensor::zeros(&[feat]));
        Self { gamma, beta, feat, eps: 1e-5 }
    }

    /// Applies layer norm to a `[B, ...]` node.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        self.check(g, x);
        let gamma = g.param(store, self.gamma);
        let beta = g.param(store, self.beta);
        g.layer_norm(x, gamma, beta, self.eps)
    }

    /// Applies `relu(layer_norm(x))` to a `[B, ...]` node, as one op.
    pub fn forward_relu(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        self.check(g, x);
        let gamma = g.param(store, self.gamma);
        let beta = g.param(store, self.beta);
        g.layer_norm_relu(x, gamma, beta, self.eps)
    }

    fn check(&self, g: &Graph, x: NodeId) {
        let item: usize = g.shape(x).iter().skip(1).product();
        assert_eq!(item, self.feat, "LayerNorm feature width mismatch");
    }

    /// Feature width.
    pub fn feat(&self) -> usize {
        self.feat
    }

    /// Parameter handles `(gamma, beta)`.
    pub fn params(&self) -> (ParamId, ParamId) {
        (self.gamma, self.beta)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn fresh_layer_is_pure_normalization() {
        let mut store = ParamStore::new();
        let ln = LayerNormLayer::new(&mut store, "ln", 4);
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(&[1, 4], vec![2., 4., 6., 8.]));
        let y = ln.forward(&mut g, &store, x);
        let mean: f32 = g.value(y).data().iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
    }

    #[test]
    fn gamma_beta_are_trainable() {
        let mut store = ParamStore::new();
        let ln = LayerNormLayer::new(&mut store, "ln", 2);
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(&[1, 2], vec![0., 1.]));
        let y = ln.forward(&mut g, &store, x);
        let loss = g.sum_all(y);
        g.backward(loss, &mut store);
        let (gamma, beta) = ln.params();
        // beta gradient is exactly 1 per feature for a sum loss.
        assert_eq!(store.grad(beta).data(), &[1.0, 1.0]);
        // gamma gradient is the normalized input.
        assert!(store.grad(gamma).data()[0] < 0.0);
        assert!(store.grad(gamma).data()[1] > 0.0);
    }
}
