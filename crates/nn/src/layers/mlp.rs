//! Multi-layer perceptron: a stack of [`Linear`] layers with a fixed
//! activation between them.

use crate::graph::{Graph, NodeId};
use crate::layers::Linear;
use crate::param::ParamStore;
use rand::Rng;

/// Hidden-layer activation function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit, `max(0, x)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// No activation (pure affine stack).
    Identity,
}

impl Activation {
    fn apply(self, g: &mut Graph, x: NodeId) -> NodeId {
        match self {
            Activation::Relu => g.relu(x),
            Activation::Tanh => g.tanh(x),
            Activation::Sigmoid => g.sigmoid(x),
            Activation::Identity => x,
        }
    }
}

/// A feed-forward network `dims[0] -> dims[1] -> ... -> dims.last()`,
/// applying `activation` after every layer except the last.
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

impl Mlp {
    /// Builds the stack, registering all parameters in `store`. `dims` must
    /// list at least an input and an output width.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dims: &[usize],
        activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(dims.len() >= 2, "Mlp needs at least [in, out] dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, &format!("{name}.l{i}"), w[0], w[1], rng))
            .collect();
        Self { layers, activation }
    }

    /// Applies the network to a `[B, dims[0]]` node.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, mut x: NodeId) -> NodeId {
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.forward(g, store, x);
            if i != last {
                x = self.activation.apply(g, x);
            }
        }
        x
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        match self.layers.last() {
            Some(l) => l.out_dim(),
            None => unreachable!("Mlp::new requires at least two dims, so layers is non-empty"),
        }
    }

    /// The constituent dense layers.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes_flow_through() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[5, 8, 3], Activation::Relu, &mut rng);
        assert_eq!(mlp.in_dim(), 5);
        assert_eq!(mlp.out_dim(), 3);
        let mut g = Graph::new();
        let x = g.leaf(Tensor::ones(&[7, 5]));
        let y = mlp.forward(&mut g, &store, x);
        assert_eq!(g.shape(y), &[7, 3]);
    }

    #[test]
    fn mlp_learns_xor() {
        // The classic nonlinear sanity check: a 2-4-1 tanh MLP must fit XOR.
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[2, 8, 1], Activation::Tanh, &mut rng);
        let xs = Tensor::from_vec(&[4, 2], vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let ys = Tensor::from_vec(&[4, 1], vec![0., 1., 1., 0.]);
        let mut last = f32::INFINITY;
        for _ in 0..2000 {
            store.zero_grads();
            let mut g = Graph::new();
            let x = g.leaf(xs.clone());
            let t = g.leaf(ys.clone());
            let p = mlp.forward(&mut g, &store, x);
            let s = g.sigmoid(p);
            let d = g.sub(s, t);
            let sq = g.square(d);
            let loss = g.mean_all(sq);
            last = g.backward(loss, &mut store);
            store.for_each_trainable(|_, v, gr| v.add_scaled(gr, -1.0));
        }
        assert!(last < 0.02, "XOR loss stuck at {last}");
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn single_dim_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        Mlp::new(&mut store, "m", &[4], Activation::Relu, &mut rng);
    }
}
