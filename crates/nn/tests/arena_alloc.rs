//! Pins the tensor arena's central guarantee: after a short warmup, a full
//! forward + backward training step through the graph performs **zero** heap
//! allocations. Every activation, gradient, scratch buffer, tape node and
//! shape vector must come out of (and return to) the per-thread freelists.
//!
//! A second case holds the fleet heads' `relu_join_matmul` to the same
//! standard at B = 1, W = 1000: its GEMM panel and the join it recomputes
//! in backward both come from the arena.
//!
//! The test installs a counting `GlobalAlloc` wrapper, warms the arena with a
//! few steps, then asserts the allocation counter does not move across
//! subsequent steps. Any new `Vec` sneaking into the hot path shows up as a
//! nonzero delta with the step index that regressed.
#![allow(unsafe_code)]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use vc_nn::arena;
use vc_nn::graph::Graph;
use vc_nn::ops::conv::ConvCfg;
use vc_nn::ops::gemm::set_kernel_threads;
use vc_nn::param::{ParamId, ParamStore};
use vc_nn::tensor::Tensor;

/// Counts every `alloc`/`realloc` hitting the global allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The counter is process-wide, so the tests here take turns: one test's
/// warm-up must not land inside another's measured step.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct Model {
    store: ParamStore,
    conv_w: ParamId,
    conv_b: ParamId,
    gamma: ParamId,
    beta: ParamId,
    lin_w: ParamId,
    lin_b: ParamId,
    cfg: ConvCfg,
}

const BATCH: usize = 2;
const CH: usize = 3;
const HW: usize = 8;
const FEAT: usize = 8 * HW * HW; // conv keeps spatial dims (stride 1, pad 1)
const ACTIONS: usize = 9;

fn build_model() -> Model {
    let mut store = ParamStore::new();
    let cfg = ConvCfg { in_channels: CH, out_channels: 8, kernel: 3, stride: 1, padding: 1 };
    let kw: Vec<f32> = (0..8 * CH * 9).map(|i| ((i as f32 * 0.37).sin()) * 0.1).collect();
    let conv_w = store.add("conv.w", Tensor::from_vec(&[8, CH, 3, 3], kw));
    let conv_b = store.add("conv.b", Tensor::zeros(&[8]));
    let gamma = store.add("ln.gamma", Tensor::ones(&[FEAT]));
    let beta = store.add("ln.beta", Tensor::zeros(&[FEAT]));
    let lw: Vec<f32> = (0..FEAT * ACTIONS).map(|i| ((i as f32 * 0.13).cos()) * 0.05).collect();
    let lin_w = store.add("lin.w", Tensor::from_vec(&[FEAT, ACTIONS], lw));
    let lin_b = store.add("lin.b", Tensor::zeros(&[ACTIONS]));
    Model { store, conv_w, conv_b, gamma, beta, lin_w, lin_b, cfg }
}

/// One full training step: conv → layer-norm → relu → linear →
/// log-softmax → pick → mean loss, then backward + grad reset.
fn train_step(m: &mut Model, input: &[f32]) -> f32 {
    let mut g = Graph::new();
    let x = g.leaf(Tensor::from_slice(&[BATCH, CH, HW, HW], input));
    let w = g.param(&m.store, m.conv_w);
    let b = g.param(&m.store, m.conv_b);
    let y = g.conv2d(x, w, b, m.cfg);
    let yf = g.reshape(y, &[BATCH, FEAT]);
    let gamma = g.param(&m.store, m.gamma);
    let beta = g.param(&m.store, m.beta);
    let ln = g.layer_norm(yf, gamma, beta, 1e-5);
    let h = g.relu(ln);
    let lw = g.param(&m.store, m.lin_w);
    let lb = g.param(&m.store, m.lin_b);
    let logits = g.matmul(h, lw);
    let logits = g.add_row_broadcast(logits, lb);
    let lp = g.log_softmax(logits);
    // Action indices must also come from the arena — a `vec![..]` here
    // would be a per-step allocation of exactly the kind this test bans.
    let mut idx = arena::take_usize(BATCH);
    idx.extend_from_slice(&[1, 4]);
    let picked = g.pick_column(lp, idx);
    let mean = g.mean_all(picked);
    let loss = g.neg(mean);
    let l = g.backward(loss, &mut m.store);
    m.store.zero_grads();
    l
}

#[test]
fn steady_state_training_step_performs_zero_heap_allocations() {
    let _turn = serial();
    set_kernel_threads(1);
    let mut m = build_model();
    let input: Vec<f32> =
        (0..BATCH * CH * HW * HW).map(|i| ((i as f32 * 0.21).sin()) * 0.5).collect();

    // Warm the freelists: the first steps populate every buffer size class
    // the graph will ever request.
    let mut loss = 0.0;
    for _ in 0..5 {
        loss = train_step(&mut m, &input);
    }
    assert!(loss.is_finite(), "warmup produced non-finite loss {loss}");

    for step in 0..5 {
        let before = ALLOCS.load(Ordering::Relaxed);
        let l = train_step(&mut m, &input);
        let delta = ALLOCS.load(Ordering::Relaxed) - before;
        assert!(l.is_finite(), "step {step} produced non-finite loss {l}");
        assert_eq!(
            delta, 0,
            "steady-state step {step} hit the global allocator {delta} time(s); \
             some graph/kernel buffer is bypassing the arena"
        );
    }
}

const WORKERS: usize = 1000;
const HEAD_FEAT: usize = 128;
const HEAD_OUT: usize = 11;

/// One fleet-head step at B = 1, W = 1000: `relu_join_matmul` forward,
/// a squared loss, and backward into all three operands.
fn fleet_head_step(store: &mut ParamStore, ids: [ParamId; 3]) -> f32 {
    let mut g = Graph::new();
    let x = g.param(store, ids[0]);
    let table = g.param(store, ids[1]);
    let w = g.param(store, ids[2]);
    let y = g.relu_join_matmul(x, table, w);
    let sq = g.square(y);
    let loss = g.mean_all(sq);
    let l = g.backward(loss, store);
    store.zero_grads();
    l
}

#[test]
fn steady_state_fleet_head_step_performs_zero_heap_allocations() {
    let _turn = serial();
    set_kernel_threads(1);
    let mut store = ParamStore::new();
    let wave = |n: usize, f: f32| -> Vec<f32> { (0..n).map(|i| (i as f32 * f).sin()).collect() };
    let ids = [
        store.add("x", Tensor::from_vec(&[1, HEAD_FEAT], wave(HEAD_FEAT, 0.37))),
        store
            .add("table", Tensor::from_vec(&[WORKERS, HEAD_FEAT], wave(WORKERS * HEAD_FEAT, 0.11))),
        store.add("w", Tensor::from_vec(&[HEAD_FEAT, HEAD_OUT], wave(HEAD_FEAT * HEAD_OUT, 0.07))),
    ];
    for _ in 0..5 {
        fleet_head_step(&mut store, ids);
    }
    for step in 0..5 {
        let before = ALLOCS.load(Ordering::Relaxed);
        let l = fleet_head_step(&mut store, ids);
        let delta = ALLOCS.load(Ordering::Relaxed) - before;
        assert!(l.is_finite(), "step {step} produced non-finite loss {l}");
        assert_eq!(
            delta, 0,
            "steady-state fleet-head step {step} hit the global allocator {delta} time(s); \
             the join scratch or a GEMM panel is bypassing the arena"
        );
    }
}
