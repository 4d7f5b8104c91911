//! # vc-nn — from-scratch tensors, autograd and layers for DRL-CEWS
//!
//! The DRL-CEWS reproduction needs a small but complete deep-learning stack:
//! the paper trains a CNN state encoder, PPO policy/value heads, and a
//! curiosity forward model with Adam — none of which can come from an
//! external ML framework in this workspace. This crate provides that stack:
//!
//! * [`tensor::Tensor`] — dense row-major `f32` storage;
//! * [`graph::Graph`] — a tape-based reverse-mode autograd with the op
//!   vocabulary PPO and curiosity losses need (matmul, conv2d, layer norm,
//!   softmax/log-softmax, clip/min for the PPO surrogate, …);
//! * [`param::ParamStore`] — parameter + gradient storage with the flat
//!   buffer views used by the chief–employee gradient exchange;
//! * [`layers`] — Linear, Conv2d, LayerNorm, Embedding, Mlp;
//! * [`optim`] — Adam and learning-rate schedules;
//! * [`serialize`] — binary checkpoints.
//!
//! ## Quick example
//!
//! ```
//! use vc_nn::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut store = ParamStore::new();
//! let net = Mlp::new(&mut store, "net", &[2, 16, 1], Activation::Tanh, &mut rng);
//! let mut opt = Adam::new(1e-2);
//!
//! for _ in 0..10 {
//!     store.zero_grads();
//!     let mut g = Graph::new();
//!     let x = g.leaf(Tensor::from_vec(&[4, 2], vec![0.; 8]));
//!     let y = net.forward(&mut g, &store, x);
//!     let sq = g.square(y);
//!     let loss = g.mean_all(sq);
//!     g.backward(loss, &mut store);
//!     opt.step(&mut store);
//! }
//! ```

/// Thread-local buffer freelists backing tensor and kernel allocations.
pub mod arena;
/// Debug-build invariant checks over tensors and gradients.
pub mod check;
/// The [`NnError`](error::NnError) type.
pub mod error;
/// The autograd tape.
pub mod graph;
/// Weight-initialization schemes.
pub mod init;
/// Composite layers (MLP, CNN encoder, embeddings).
pub mod layers;
/// The operation set recorded on the tape.
pub mod op;
/// Forward/backward kernels for the heavier operations.
pub mod ops;
/// Optimizers and learning-rate schedules.
pub mod optim;
/// Named parameter storage with gradient accumulation.
pub mod param;
/// Checkpoint save/load.
pub mod serialize;
/// Sync primitive facade: std normally, `loom` models under `--cfg loom`.
pub mod sync;
/// The dense row-major tensor.
pub mod tensor;

/// Convenience re-exports of the types nearly every consumer needs.
pub mod prelude {
    pub use crate::arena::{arena_stats, reset_arena_stats, ArenaStats};
    pub use crate::error::NnError;
    pub use crate::graph::{Graph, NodeId};
    pub use crate::layers::{Activation, Conv2dLayer, Embedding, LayerNormLayer, Linear, Mlp};
    pub use crate::ops::conv::ConvCfg;
    pub use crate::ops::gemm::{
        kernel_counters, kernel_telemetry_enabled, kernel_threads, reset_kernel_counters,
        set_kernel_telemetry, set_kernel_threads, KernelCounters,
    };
    pub use crate::ops::pool::{pool_stats, PoolStats};
    pub use crate::optim::{Adam, LrSchedule, Optimizer};
    pub use crate::param::{ParamId, ParamStore};
    pub use crate::serialize::{
        load_checkpoint_v2, save_checkpoint_v2, write_checkpoint_file, AdamState, CheckpointError,
        TrainCheckpoint,
    };
    pub use crate::tensor::Tensor;
}
