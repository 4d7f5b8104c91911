//! Fully connected layer: `y = x·W + b`.

use crate::graph::{Graph, NodeId};
use crate::init;
use crate::param::{ParamId, ParamStore};
use rand::Rng;

/// A dense layer mapping `[B, in_dim] -> [B, out_dim]`.
#[derive(Clone, Debug)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers weights (Kaiming-normal) and zero biases in `store`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let w =
            store.add(format!("{name}.w"), init::kaiming_normal(&[in_dim, out_dim], in_dim, rng));
        let b = store.add(format!("{name}.b"), crate::tensor::Tensor::zeros(&[out_dim]));
        Self { w, b, in_dim, out_dim }
    }

    /// Like [`Self::new`] but with the small-scale initialization used for
    /// policy/value output heads (keeps initial policies near uniform).
    pub fn new_head(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let w = store.add(format!("{name}.w"), init::policy_head(&[in_dim, out_dim], rng));
        let b = store.add(format!("{name}.b"), crate::tensor::Tensor::zeros(&[out_dim]));
        Self { w, b, in_dim, out_dim }
    }

    /// Applies the layer to a `[B, in_dim]` node.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        assert_eq!(
            g.shape(x),
            &[g.shape(x)[0], self.in_dim],
            "Linear expected [B, {}], got {:?}",
            self.in_dim,
            g.shape(x)
        );
        let w = g.param(store, self.w);
        let b = g.param(store, self.b);
        let xw = g.matmul(x, w);
        g.add_row_broadcast(xw, b)
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Parameter handles `(w, b)`.
    pub fn params(&self) -> (ParamId, ParamId) {
        (self.w, self.b)
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
    fn forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "fc", 3, 2, &mut rng);
        // Overwrite with known values: W = 0, b = [1, 2] -> y == b.
        store.value_mut(layer.params().0).fill_zero();
        *store.value_mut(layer.params().1) = Tensor::from_vec(&[2], vec![1.0, 2.0]);

        let mut g = Graph::new();
        let x = g.leaf(Tensor::ones(&[4, 3]));
        let y = layer.forward(&mut g, &store, x);
        assert_eq!(g.shape(y), &[4, 2]);
        for r in 0..4 {
            assert_eq!(g.value(y).at2(r, 0), 1.0);
            assert_eq!(g.value(y).at2(r, 1), 2.0);
        }
    }

    #[test]
    fn gradient_descent_fits_linear_map() {
        // One dense layer must fit y = 2x - 1 with plain SGD.
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "fc", 1, 1, &mut rng);
        let xs: Vec<f32> = (0..8).map(|i| i as f32 / 4.0 - 1.0).collect();
        let ys: Vec<f32> = xs.iter().map(|x| 2.0 * x - 1.0).collect();
        for _ in 0..400 {
            store.zero_grads();
            let mut g = Graph::new();
            let x = g.leaf(Tensor::from_vec(&[8, 1], xs.clone()));
            let t = g.leaf(Tensor::from_vec(&[8, 1], ys.clone()));
            let p = layer.forward(&mut g, &store, x);
            let d = g.sub(p, t);
            let sq = g.square(d);
            let loss = g.mean_all(sq);
            g.backward(loss, &mut store);
            store.for_each_trainable(|_, v, gr| v.add_scaled(gr, -0.3));
        }
        let (w, b) = layer.params();
        assert!((store.value(w).data()[0] - 2.0).abs() < 0.05, "w={:?}", store.value(w));
        assert!((store.value(b).data()[0] + 1.0).abs() < 0.05, "b={:?}", store.value(b));
    }

    #[test]
    #[should_panic(expected = "Linear expected")]
    fn wrong_input_width_panics() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "fc", 3, 2, &mut rng);
        let mut g = Graph::new();
        let x = g.leaf(Tensor::ones(&[1, 4]));
        layer.forward(&mut g, &store, x);
    }
}
