//! Forward/backward kernels for the heavier operations, kept as pure
//! functions so they can be unit-tested and benchmarked independently of the
//! autograd graph.

/// 2-D convolution as a direct gather-tile kernel.
pub mod conv;
/// Blocked GEMM kernels and the kernel threading knob.
pub mod gemm;
/// The fleet heads' fused `relu(x[e] + table[w]) · W` and its backward.
pub mod join;
/// Layer normalization.
pub mod norm;
/// The persistent kernel thread pool (the only thread-creating module).
pub mod pool;
/// SIMD micro-kernels for the blocked GEMM (the one sanctioned `unsafe`
/// module; bit-compatible scalar fallback for non-x86/miri/loom builds).
pub(crate) mod simd;
/// Row-wise softmax and log-softmax.
pub mod softmax;
