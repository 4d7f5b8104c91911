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
use std::sync::OnceLock;
use std::time::{Duration, Instant};

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

/// Allocations and loss of each measured step.
type Steps = Vec<(u64, f32)>;

/// Measured steps of both cases, and the training case's last warm-up loss.
struct Measured {
    warm_loss: f32,
    training: Steps,
    fleet_head: Steps,
}

const MEASURED_STEPS: usize = 5;

/// Both cases, measured once by whichever test runs first; each test then
/// asserts its own case. The counter is process-wide, and the test harness
/// allocates when it starts a test and when it reports a finished one. So
/// the two cases are measured back to back, before either test can finish,
/// and only once no thread has allocated for a while, when the harness has
/// started both tests. (Measured one per test, the harness reporting the
/// first test landed in the second's window: 3 failures in 200 runs at the
/// default thread count, none in 200 with `--test-threads=1`.)
fn measured() -> &'static Measured {
    static MEASURED: OnceLock<Measured> = OnceLock::new();
    MEASURED.get_or_init(|| {
        set_kernel_threads(1);
        let mut m = build_model();
        let input: Vec<f32> =
            (0..BATCH * CH * HW * HW).map(|i| ((i as f32 * 0.21).sin()) * 0.5).collect();
        let (mut store, ids) = build_fleet_head();
        // Warm the freelists: the first steps populate every buffer size
        // class the steps will ever request.
        let mut warm_loss = 0.0;
        for _ in 0..5 {
            warm_loss = train_step(&mut m, &input);
            fleet_head_step(&mut store, ids);
        }
        let mut training = Vec::with_capacity(MEASURED_STEPS);
        let mut fleet_head = Vec::with_capacity(MEASURED_STEPS);
        quiesce();
        for _ in 0..MEASURED_STEPS {
            training.push(counted(|| train_step(&mut m, &input)));
        }
        for _ in 0..MEASURED_STEPS {
            fleet_head.push(counted(|| fleet_head_step(&mut store, ids)));
        }
        Measured { warm_loss, training, fleet_head }
    })
}

/// The allocations `step` makes, with its result.
fn counted(step: impl FnOnce() -> f32) -> (u64, f32) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let l = step();
    (ALLOCS.load(Ordering::Relaxed) - before, l)
}

/// Returns once no thread has allocated for 20 ms, or after 2 s.
fn quiesce() {
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut last = ALLOCS.load(Ordering::Relaxed);
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        let now = ALLOCS.load(Ordering::Relaxed);
        if now == last {
            return;
        }
        last = now;
    }
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
    let m = measured();
    assert!(m.warm_loss.is_finite(), "warmup produced non-finite loss {}", m.warm_loss);
    for (step, &(delta, l)) in m.training.iter().enumerate() {
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

/// The fleet-head case's store and parameter ids.
fn build_fleet_head() -> (ParamStore, [ParamId; 3]) {
    let mut store = ParamStore::new();
    let wave = |n: usize, f: f32| -> Vec<f32> { (0..n).map(|i| (i as f32 * f).sin()).collect() };
    let ids = [
        store.add("x", Tensor::from_vec(&[1, HEAD_FEAT], wave(HEAD_FEAT, 0.37))),
        store
            .add("table", Tensor::from_vec(&[WORKERS, HEAD_FEAT], wave(WORKERS * HEAD_FEAT, 0.11))),
        store.add("w", Tensor::from_vec(&[HEAD_FEAT, HEAD_OUT], wave(HEAD_FEAT * HEAD_OUT, 0.07))),
    ];
    (store, ids)
}

#[test]
fn steady_state_fleet_head_step_performs_zero_heap_allocations() {
    for (step, &(delta, l)) in measured().fleet_head.iter().enumerate() {
        assert!(l.is_finite(), "step {step} produced non-finite loss {l}");
        assert_eq!(
            delta, 0,
            "steady-state fleet-head step {step} hit the global allocator {delta} time(s); \
             the join scratch or a GEMM panel is bypassing the arena"
        );
    }
}
