//! Convolutional layer wrapping [`crate::ops::conv`].

use crate::graph::{Graph, NodeId};
use crate::init;
use crate::ops::conv::ConvCfg;
use crate::param::{ParamId, ParamStore};
use crate::tensor::Tensor;
use rand::Rng;

/// A 2-D convolution layer `[B, C_in, H, W] -> [B, C_out, HO, WO]`.
#[derive(Clone, Debug)]
pub struct Conv2dLayer {
    w: ParamId,
    b: ParamId,
    cfg: ConvCfg,
}

impl Conv2dLayer {
    /// Registers a Kaiming-initialized kernel and zero bias in `store`.
    pub fn new(store: &mut ParamStore, name: &str, cfg: ConvCfg, rng: &mut impl Rng) -> Self {
        let fan_in = cfg.in_channels * cfg.kernel * cfg.kernel;
        let w = store.add(
            format!("{name}.w"),
            init::kaiming_normal(
                &[cfg.out_channels, cfg.in_channels, cfg.kernel, cfg.kernel],
                fan_in,
                rng,
            ),
        );
        let b = store.add(format!("{name}.b"), Tensor::zeros(&[cfg.out_channels]));
        Self { w, b, cfg }
    }

    /// Applies the convolution to a `[B, C_in, H, W]` node.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let w = g.param(store, self.w);
        let b = g.param(store, self.b);
        g.conv2d(x, w, b, self.cfg)
    }

    /// The layer's static configuration.
    pub fn cfg(&self) -> &ConvCfg {
        &self.cfg
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let cfg = ConvCfg { in_channels: 3, out_channels: 8, kernel: 3, stride: 2, padding: 1 };
        let layer = Conv2dLayer::new(&mut store, "c1", cfg, &mut rng);
        let mut g = Graph::new();
        let x = g.leaf(Tensor::ones(&[2, 3, 16, 16]));
        let y = layer.forward(&mut g, &store, x);
        assert_eq!(g.shape(y), &[2, 8, 8, 8]);
    }

    #[test]
    fn training_reduces_loss_on_edge_filter_task() {
        // Teach a single conv to detect a vertical edge via SGD: loss must
        // drop by an order of magnitude.
        let mut rng = StdRng::seed_from_u64(9);
        let mut store = ParamStore::new();
        let cfg = ConvCfg { in_channels: 1, out_channels: 1, kernel: 3, stride: 1, padding: 1 };
        let layer = Conv2dLayer::new(&mut store, "c", cfg, &mut rng);

        // Input: step image; target: response at the step location only.
        let mut img = vec![0.0f32; 36];
        for r in 0..6 {
            for c in 3..6 {
                img[r * 6 + c] = 1.0;
            }
        }
        let x = Tensor::from_vec(&[1, 1, 6, 6], img);
        let mut tgt = vec![0.0f32; 36];
        for r in 0..6 {
            tgt[r * 6 + 3] = 1.0;
        }
        let target = Tensor::from_vec(&[1, 1, 6, 6], tgt);

        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..400 {
            store.zero_grads();
            let mut g = Graph::new();
            let xn = g.leaf(x.clone());
            let tn = g.leaf(target.clone());
            let y = layer.forward(&mut g, &store, xn);
            let d = g.sub(y, tn);
            let sq = g.square(d);
            let loss = g.mean_all(sq);
            let lv = g.backward(loss, &mut store);
            if step == 0 {
                first = lv;
            }
            last = lv;
            store.for_each_trainable(|_, v, gr| v.add_scaled(gr, -0.1));
        }
        assert!(last < first / 10.0, "loss {first} -> {last}");
    }
}
