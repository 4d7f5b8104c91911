//! The operation vocabulary of the autograd graph.
//!
//! Each [`Op`] variant carries exactly the forward-pass context its backward
//! rule needs (saved zero-bordered conv inputs, layer-norm statistics,
//! picked indices, …). The backward rules themselves live in
//! [`crate::graph`], dispatching on this enum.

use crate::ops::conv::ConvCfg;
use crate::ops::norm::LayerNormCtx;
use crate::tensor::Tensor;

/// One differentiable operation in the graph.
#[derive(Debug)]
pub enum Op {
    /// Constant input (no backward). Parameters are `Leaf`s whose node also
    /// carries a `ParamId`.
    Leaf,
    /// Elementwise `a + b`, same shape.
    Add,
    /// Elementwise `a - b`, same shape.
    Sub,
    /// Elementwise `a * b`, same shape.
    Mul,
    /// Elementwise `-a`.
    Neg,
    /// `x[rows, cols] + b[cols]`, broadcasting `b` over rows.
    AddRowBroadcast,
    /// `c * a` for a compile-time-known scalar.
    Scale(f32),
    /// Rank-2 matrix multiply.
    MatMul,
    /// `x[B, F]`, `table[W, F]` and `w[F, N]` into `[B·W, N]`: row `e·W + w`
    /// is `relu(x[e] + table[w]) · w`. The joined rows are never stored;
    /// backward recomputes them.
    ReluJoinMatMul,
    /// Elementwise max(x, 0).
    Relu,
    /// Elementwise tanh.
    Tanh,
    /// Elementwise logistic sigmoid.
    Sigmoid,
    /// Elementwise exp.
    Exp,
    /// Elementwise ln(max(x, eps)); the clamp keeps log-of-probability
    /// pipelines finite.
    Ln {
        /// Floor applied before the logarithm.
        eps: f32,
    },
    /// Elementwise x².
    Square,
    /// Elementwise clamp to `[lo, hi]`; gradient passes only strictly inside.
    Clamp {
        /// Lower bound.
        lo: f32,
        /// Upper bound.
        hi: f32,
    },
    /// Elementwise min(a, b); gradient follows the selected side.
    MinElem,
    /// Elementwise max(a, b); gradient follows the selected side.
    MaxElem,
    /// Sum over all elements, producing shape `[1]`.
    SumAll,
    /// Mean over all elements, producing shape `[1]`.
    MeanAll,
    /// Per-row mean of a `[rows, cols]` tensor, producing `[rows, 1]`.
    MeanRows,
    /// Shape reinterpretation (same buffer length).
    Reshape,
    /// Column-wise concatenation of two rank-2 tensors.
    ConcatCols {
        /// Width of the first (left) parent.
        left_cols: usize,
    },
    /// A contiguous column range of a rank-2 tensor.
    SliceCols {
        /// First column taken from the parent.
        start: usize,
    },
    /// Row-wise softmax of a rank-2 tensor.
    Softmax,
    /// Row-wise log-softmax of a rank-2 tensor.
    LogSoftmax,
    /// `out[r, 0] = x[r, indices[r]]` — the per-row action pick used for
    /// log π(a|s).
    PickColumn {
        /// Column picked per row.
        indices: Vec<usize>,
    },
    /// Row gather from a table `[vocab, dim]`: `out[r, :] = table[indices[r], :]`.
    GatherRows {
        /// Table row picked per output row.
        indices: Vec<usize>,
    },
    /// 2-D convolution; saves the zero-bordered input for backward.
    Conv2d {
        /// Shape/stride/padding of the convolution.
        cfg: ConvCfg,
        /// Saved zero-bordered input `[B, C_in, H + 2p, W + 2p]`: the
        /// weight-gradient kernel gathers its taps from it.
        padded: Tensor,
    },
    /// Layer norm over each item's trailing features, then `max(·, 0)`
    /// when `relu` is set; saves per-row statistics.
    LayerNorm {
        /// Saved per-row statistics for the backward pass.
        ctx: LayerNormCtx,
        /// Whether the output is `relu(norm)`; backward then masks the
        /// upstream gradient by `output > 0`.
        relu: bool,
    },
}

impl Op {
    /// Human-readable operation name (used in graph debugging).
    pub fn name(&self) -> &'static str {
        match self {
            Op::Leaf => "leaf",
            Op::Add => "add",
            Op::Sub => "sub",
            Op::Mul => "mul",
            Op::Neg => "neg",
            Op::AddRowBroadcast => "add_row_broadcast",
            Op::Scale(_) => "scale",
            Op::MatMul => "matmul",
            Op::ReluJoinMatMul => "relu_join_matmul",
            Op::Relu => "relu",
            Op::Tanh => "tanh",
            Op::Sigmoid => "sigmoid",
            Op::Exp => "exp",
            Op::Ln { .. } => "ln",
            Op::Square => "square",
            Op::Clamp { .. } => "clamp",
            Op::MinElem => "min_elem",
            Op::MaxElem => "max_elem",
            Op::SumAll => "sum_all",
            Op::MeanAll => "mean_all",
            Op::MeanRows => "mean_rows",
            Op::Reshape => "reshape",
            Op::ConcatCols { .. } => "concat_cols",
            Op::SliceCols { .. } => "slice_cols",
            Op::Softmax => "softmax",
            Op::LogSoftmax => "log_softmax",
            Op::PickColumn { .. } => "pick_column",
            Op::GatherRows { .. } => "gather_rows",
            Op::Conv2d { .. } => "conv2d",
            Op::LayerNorm { .. } => "layer_norm",
        }
    }
}
