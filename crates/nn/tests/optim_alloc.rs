//! Pins the chief's apply step to zero heap allocations: after one warm
//! round (which sizes Adam's flat moments), installing the mean of the
//! summed employee gradients, clipping their norm and taking the Adam step
//! allocate nothing.
//!
//! Like `arena_alloc`, the test installs a counting `GlobalAlloc` wrapper;
//! it has its own test binary so no other test's allocations can land in
//! the measured rounds.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod counting_alloc;

use counting_alloc::allocs;
use vc_nn::optim::{Adam, Optimizer};
use vc_nn::param::ParamStore;
use vc_nn::tensor::Tensor;

#[test]
fn apply_step_performs_zero_heap_allocations_after_one_round() {
    let mut store = ParamStore::new();
    store.add_frozen("embedding", Tensor::ones(&[16, 4]));
    store.add("conv.w", Tensor::from_vec(&[8, 27], (0..216).map(|i| i as f32 * 1e-3).collect()));
    store.add("fc.b", Tensor::zeros(&[32]));
    let n = store.num_scalars();
    // Summed gradients of two employees, one set large enough to clip and
    // one small enough not to; the frozen entries are zero, as shipped.
    let sums: Vec<Vec<f32>> = [40.0f32, 1e-3]
        .iter()
        .map(|&scale| (0..n).map(|i| if i < 64 { 0.0 } else { scale * (i % 7) as f32 }).collect())
        .collect();
    let mut adam = Adam::new(3e-4);
    let mut apply = |store: &mut ParamStore, sum: &[f32]| {
        store.load_flat_grads_mean(sum, 2.0);
        store.clip_grad_norm(0.5);
        adam.step(store);
    };
    apply(&mut store, &sums[0]);
    for round in 1..=20 {
        let before = allocs();
        apply(&mut store, &sums[round % 2]);
        let allocs = allocs() - before;
        assert_eq!(allocs, 0, "apply round {round} allocated {allocs} time(s)");
    }
}
