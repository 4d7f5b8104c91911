//! Embedding table with optional freezing.
//!
//! The spatial curiosity model of DRL-CEWS uses a *static* (randomly
//! initialized, never trained) embedding of grid positions — Burda et al.'s
//! observation that random features are stable curiosity targets. The same
//! layer with `trainable = true` serves as an ordinary embedding.

use crate::graph::{Graph, NodeId};
use crate::init;
use crate::param::{ParamId, ParamStore};
use crate::tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A `[vocab, dim]` lookup table.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Embedding {
    table: ParamId,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// Registers a N(0,1)-initialized table; `trainable = false` freezes it.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        vocab: usize,
        dim: usize,
        trainable: bool,
        rng: &mut impl Rng,
    ) -> Self {
        let t = init::randn(&[vocab, dim], 1.0, rng);
        let table = if trainable {
            store.add(format!("{name}.table"), t)
        } else {
            store.add_frozen(format!("{name}.table"), t)
        };
        Self { table, vocab, dim }
    }

    /// Looks up a batch of indices → `[len, dim]`.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, indices: Vec<usize>) -> NodeId {
        let t = g.param(store, self.table);
        g.gather_rows(t, indices)
    }

    /// Direct (graph-free) lookup for inference-time feature extraction.
    pub fn lookup(&self, store: &ParamStore, index: usize) -> Vec<f32> {
        assert!(index < self.vocab, "embedding index {index} out of {}", self.vocab);
        let t = store.value(self.table);
        t.data()[index * self.dim..(index + 1) * self.dim].to_vec()
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The table's parameter handle.
    pub fn param(&self) -> ParamId {
        self.table
    }

    /// The full table tensor.
    pub fn table<'s>(&self, store: &'s ParamStore) -> &'s Tensor {
        store.value(self.table)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lookup_matches_forward() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "e", 10, 4, false, &mut rng);
        let direct = emb.lookup(&store, 7);
        let mut g = Graph::new();
        let node = emb.forward(&mut g, &store, vec![7]);
        assert_eq!(g.value(node).data(), &direct[..]);
    }

    #[test]
    fn frozen_embedding_never_changes() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "e", 5, 3, false, &mut rng);
        let before = emb.table(&store).clone();
        let mut g = Graph::new();
        let node = emb.forward(&mut g, &store, vec![0, 1, 2]);
        let sq = g.square(node);
        let loss = g.sum_all(sq);
        g.backward(loss, &mut store);
        store.for_each_trainable(|_, v, gr| v.add_scaled(gr, -0.1));
        assert_eq!(emb.table(&store), &before);
    }

    #[test]
    fn trainable_embedding_receives_grads() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "e", 5, 3, true, &mut rng);
        let mut g = Graph::new();
        let node = emb.forward(&mut g, &store, vec![2]);
        let loss = g.sum_all(node);
        g.backward(loss, &mut store);
        let grad = store.grad(emb.param());
        assert_eq!(&grad.data()[6..9], &[1.0, 1.0, 1.0]);
        assert_eq!(&grad.data()[..6], &[0.0; 6]);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_vocab_lookup_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "e", 3, 2, false, &mut rng);
        emb.lookup(&store, 3);
    }
}
