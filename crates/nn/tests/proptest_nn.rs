//! Randomized property tests for the tensor algebra, autograd and
//! serialization invariants of `vc-nn`.
//!
//! The original proptest harness is unavailable offline, so each property
//! runs over a fixed number of seeded random cases instead — same
//! assertions, deterministic inputs.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vc_nn::ops::softmax::{log_softmax_rows, softmax_rows};
use vc_nn::prelude::*;

const CASES: usize = 64;

/// A rank-2 tensor with bounded entries.
fn tensor2(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
    Tensor::from_vec(&[rows, cols], data)
}

fn close(a: f32, b: f32, tol: f32) -> bool {
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

#[test]
fn matmul_is_right_distributive() {
    let mut rng = StdRng::seed_from_u64(51);
    for _ in 0..CASES {
        let a = tensor2(&mut rng, 3, 4);
        let b = tensor2(&mut rng, 4, 2);
        let c = tensor2(&mut rng, 4, 2);
        let bc = b.zip(&c, |x, y| x + y);
        let lhs = a.matmul(&bc);
        let rhs = a.matmul(&b).zip(&a.matmul(&c), |x, y| x + y);
        for i in 0..lhs.numel() {
            assert!(close(lhs.data()[i], rhs.data()[i], 1e-4));
        }
    }
}

#[test]
fn matmul_scalar_commutes() {
    let mut rng = StdRng::seed_from_u64(52);
    for _ in 0..CASES {
        let a = tensor2(&mut rng, 2, 3);
        let b = tensor2(&mut rng, 3, 3);
        let k = rng.gen_range(-2.0f32..2.0);
        let lhs = a.map(|x| k * x).matmul(&b);
        let rhs = a.matmul(&b).map(|x| k * x);
        for i in 0..lhs.numel() {
            assert!(close(lhs.data()[i], rhs.data()[i], 1e-4));
        }
    }
}

#[test]
fn transpose_reverses_matmul() {
    let mut rng = StdRng::seed_from_u64(53);
    for _ in 0..CASES {
        let a = tensor2(&mut rng, 3, 2);
        let b = tensor2(&mut rng, 2, 4);
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        assert_eq!(lhs.shape(), rhs.shape());
        for i in 0..lhs.numel() {
            assert!(close(lhs.data()[i], rhs.data()[i], 1e-4));
        }
    }
}

#[test]
fn softmax_rows_are_distributions() {
    let mut rng = StdRng::seed_from_u64(54);
    for _ in 0..CASES {
        let x = tensor2(&mut rng, 4, 6);
        let y = softmax_rows(&x);
        for r in 0..4 {
            let row: Vec<f32> = (0..6).map(|c| y.at2(r, c)).collect();
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
            assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }
}

#[test]
fn log_softmax_is_log_of_softmax() {
    let mut rng = StdRng::seed_from_u64(55);
    for _ in 0..CASES {
        let x = tensor2(&mut rng, 3, 5);
        let ls = log_softmax_rows(&x);
        let s = softmax_rows(&x);
        for i in 0..x.numel() {
            assert!(close(ls.data()[i], s.data()[i].max(1e-20).ln(), 1e-3));
        }
    }
}

#[test]
fn softmax_invariant_under_row_shift() {
    let mut rng = StdRng::seed_from_u64(56);
    for _ in 0..CASES {
        let x = tensor2(&mut rng, 2, 4);
        let shift = rng.gen_range(-5.0f32..5.0);
        let y1 = softmax_rows(&x);
        let y2 = softmax_rows(&x.map(|v| v + shift));
        for i in 0..x.numel() {
            assert!(close(y1.data()[i], y2.data()[i], 1e-4));
        }
    }
}

#[test]
fn autograd_product_rule() {
    // d/dx sum(x ⊙ y) = y.
    let mut rng = StdRng::seed_from_u64(57);
    for _ in 0..CASES {
        let x = tensor2(&mut rng, 1, 5);
        let y = tensor2(&mut rng, 1, 5);
        let mut g = Graph::new();
        let xn = g.leaf(x.clone());
        let yn = g.leaf(y.clone());
        let m = g.mul(xn, yn);
        let loss = g.sum_all(m);
        let grad = g.grad_of(loss, xn).unwrap();
        for i in 0..5 {
            assert!(close(grad.data()[i], y.data()[i], 1e-5));
        }
    }
}

#[test]
fn autograd_chain_rule_scale() {
    // d/dx sum((k·x)²) = 2k²x.
    let mut rng = StdRng::seed_from_u64(58);
    for _ in 0..CASES {
        let x = tensor2(&mut rng, 1, 4);
        let k = rng.gen_range(-3.0f32..3.0);
        let mut g = Graph::new();
        let xn = g.leaf(x.clone());
        let s = g.scale(xn, k);
        let sq = g.square(s);
        let loss = g.sum_all(sq);
        let grad = g.grad_of(loss, xn).unwrap();
        for i in 0..4 {
            assert!(close(grad.data()[i], 2.0 * k * k * x.data()[i], 1e-3));
        }
    }
}

#[test]
fn grad_clip_bounds_norm() {
    let mut rng = StdRng::seed_from_u64(59);
    for _ in 0..CASES {
        let data: Vec<f32> = (0..16).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
        let max_norm = rng.gen_range(0.1f32..5.0);
        let mut store = ParamStore::new();
        let id = store.add("p", Tensor::zeros(&[16]));
        store.accumulate_grad(id, &Tensor::from_vec(&[16], data));
        store.clip_grad_norm(max_norm);
        assert!(store.grad_global_norm() <= max_norm + 1e-4);
    }
}

#[test]
fn checkpoint_roundtrip() {
    let mut rng = StdRng::seed_from_u64(60);
    for _ in 0..CASES {
        let data: Vec<f32> = (0..12).map(|_| rng.gen_range(-5.0f32..5.0)).collect();
        let mut store = ParamStore::new();
        store.add("a", Tensor::from_vec(&[3, 4], data.clone()));
        store.add_frozen("b", Tensor::from_vec(&[12], data));
        let ck = TrainCheckpoint { policy: store, ..TrainCheckpoint::default() };
        let restored = load_checkpoint_v2(&save_checkpoint_v2(&ck)).unwrap().policy;
        assert_eq!(restored.flat_values(), ck.policy.flat_values());
    }
}

#[test]
fn flat_grads_linear_in_accumulation() {
    let mut rng = StdRng::seed_from_u64(61);
    for _ in 0..CASES {
        let data: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut store = ParamStore::new();
        let id = store.add("p", Tensor::zeros(&[8]));
        let g = Tensor::from_vec(&[8], data);
        store.accumulate_grad(id, &g);
        let once = store.flat_grads();
        store.accumulate_grad(id, &g);
        let twice = store.flat_grads();
        for i in 0..8 {
            assert!(close(twice[i], 2.0 * once[i], 1e-5));
        }
    }
}

#[test]
fn adam_moves_against_gradient() {
    use vc_nn::optim::{Adam, Optimizer};
    // One Adam step on f(w) = w²/2 (grad = w) must move toward 0 unless
    // already there.
    let mut rng = StdRng::seed_from_u64(62);
    for _ in 0..CASES {
        let start = rng.gen_range(-3.0f32..3.0);
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_vec(&[1], vec![start]));
        let mut opt = Adam::new(0.01);
        store.accumulate_grad(id, &Tensor::from_vec(&[1], vec![start]));
        opt.step(&mut store);
        let after = store.value(id).data()[0];
        // Adam's bias-corrected first step is ≈ lr regardless of gradient
        // size, so tiny starts can overshoot zero; only assert when the
        // distance to the optimum exceeds the step size.
        if start.abs() > 0.05 {
            assert!(after.abs() < start.abs());
        }
    }
}
