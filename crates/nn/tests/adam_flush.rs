//! Pins `Adam`'s subnormal flush against the two-loop, per-tensor step it
//! replaced, over a run long enough for the moments of dead and vanishing
//! gradients to reach the subnormal range.
//!
//! The oracle below is that earlier step verbatim (moments as one tensor per
//! parameter, the gradient cloned, `m`/`v` updated in one loop and the
//! parameter in a second), with gradients installed the earlier way too
//! (zeroed slots plus an added `g / count`). The checks, at every step:
//! - parameter bits equal the oracle's;
//! - each moment equals the oracle's wherever the oracle's is normal or
//!   zero (where the oracle's is subnormal, ours is `0.0`);
//! - no moment is ever subnormal;
//! - a copy resumed mid-run through `flat_moments`/`restore_state`
//!   continues bit-exactly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use vc_nn::optim::{Adam, Optimizer};
use vc_nn::param::{ParamId, ParamStore};
use vc_nn::tensor::Tensor;

/// The per-tensor Adam step as it stood before the flush.
struct OracleAdam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl OracleAdam {
    fn step(&mut self, store: &mut ParamStore) {
        if self.m.is_empty() {
            for id in store.ids().collect::<Vec<_>>() {
                self.m.push(Tensor::zeros(store.value(id).shape()));
                self.v.push(Tensor::zeros(store.value(id).shape()));
            }
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let ids: Vec<_> = store.ids().collect();
        for (i, &id) in ids.iter().enumerate() {
            if store.is_frozen(id) {
                continue;
            }
            let g = store.grad(id).clone();
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            for ((mj, vj), &gj) in m.data_mut().iter_mut().zip(v.data_mut()).zip(g.data()) {
                *mj = self.beta1 * *mj + (1.0 - self.beta1) * gj;
                *vj = self.beta2 * *vj + (1.0 - self.beta2) * gj * gj;
            }
            let value = store.value_mut(id);
            for ((pj, &mj), &vj) in value.data_mut().iter_mut().zip(m.data()).zip(v.data()) {
                let mhat = mj / bc1;
                let vhat = vj / bc2;
                *pj -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }

    fn flat(ts: &[Tensor]) -> Vec<f32> {
        ts.iter().flat_map(|t| t.data().iter().copied()).collect()
    }
}

const STEPS: usize = 3000;
const RESUME_AT: usize = 1500;
/// Employees whose summed gradient the chief divides by.
const COUNT: f32 = 2.0;

/// Frozen `[4]`, then three trainable `[8]` tensors: one driven toward a
/// target (gradients stay normal), one whose gradient is exactly zero after
/// step 5, one whose gradient shrinks by 0.97 a step (through 1e-20 near
/// step 1360, subnormal near step 2700).
fn store() -> (ParamStore, [ParamId; 4]) {
    let mut s = ParamStore::new();
    let frozen = s.add_frozen("frozen", Tensor::ones(&[4]));
    let init = |k: f32| (0..8).map(|j| (j as f32 - 3.5) * 0.25 + k).collect::<Vec<_>>();
    let live = s.add("live", Tensor::from_vec(&[8], init(0.1)));
    let dies = s.add("dies", Tensor::from_vec(&[8], init(-0.3)));
    let shrinks = s.add("shrinks", Tensor::from_vec(&[8], init(0.7)));
    (s, [frozen, live, dies, shrinks])
}

/// The summed (pre-division) flat gradient at `step`, frozen entries zero.
fn grad_sum(store: &ParamStore, ids: &[ParamId; 4], step: usize) -> Vec<f32> {
    let mut flat = vec![0.0; 4];
    let live = store.value(ids[1]).data();
    flat.extend(live.iter().enumerate().map(|(j, &p)| COUNT * 2.0 * (p - (0.05 + j as f32 * 0.1))));
    let alive = step < 5;
    flat.extend((0..8).map(|j| if alive { (j as f32 - 4.0) * 0.3 } else { 0.0 }));
    let scale = 0.05 * 0.97f32.powi(step as i32);
    flat.extend((0..8).map(|j| if j % 3 == 0 { -scale } else { scale * (1.0 + j as f32) }));
    flat
}

/// The earlier gradient install: zero every slot, then add `g / count`.
fn install_oracle(store: &mut ParamStore, ids: &[ParamId; 4], sum: &[f32]) {
    store.zero_grads();
    let mut off = 0;
    for &id in ids {
        let n = store.value(id).numel();
        let scaled: Vec<f32> = sum[off..off + n].iter().map(|g| g / COUNT).collect();
        store.accumulate_grad(id, &Tensor::from_vec(&[n], scaled));
        off += n;
    }
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn assert_moments_match(ours: &[f32], oracle: &[f32], what: &str, step: usize) {
    for (j, (&o, &r)) in ours.iter().zip(oracle).enumerate() {
        assert!(!o.is_subnormal(), "{what}[{j}] = {o:e} is subnormal at step {step}");
        if r.is_subnormal() {
            assert_eq!(o, 0.0, "{what}[{j}] at step {step}: oracle {r:e} should flush to 0");
        } else if r == 0.0 {
            assert_eq!(o, 0.0, "{what}[{j}] at step {step}");
        } else {
            assert_eq!(o.to_bits(), r.to_bits(), "{what}[{j}] at step {step}: {o:e} vs {r:e}");
        }
    }
}

/// One full run for a set of hyperparameters; returns how many moments the
/// oracle held subnormal at the end (first, second), so the caller can
/// check that the run reached the regime under test.
fn run(lr: f32, beta1: f32, beta2: f32) -> (usize, usize) {
    let eps = 1e-8;
    let (mut ours, ids) = store();
    let (mut theirs, _) = store();
    let mut adam = Adam::with_betas(lr, beta1, beta2, eps);
    let mut oracle = OracleAdam { lr, beta1, beta2, eps, t: 0, m: Vec::new(), v: Vec::new() };
    let mut resumed: Option<(ParamStore, Adam)> = None;
    for step in 0..STEPS {
        if step == RESUME_AT {
            let (mut s, _) = store();
            s.load_flat_values(&ours.flat_values());
            let mut a = Adam::with_betas(lr, beta1, beta2, eps);
            let (m, v) = adam.flat_moments();
            a.restore_state(&s, adam.steps(), &m, &v).unwrap();
            resumed = Some((s, a));
        }
        let sum = grad_sum(&ours, &ids, step);
        assert_eq!(sum, grad_sum(&theirs, &ids, step), "gradients diverged at step {step}");
        ours.load_flat_grads_mean(&sum, COUNT);
        ours.clip_grad_norm(1.0);
        adam.step(&mut ours);
        install_oracle(&mut theirs, &ids, &sum);
        theirs.clip_grad_norm(1.0);
        oracle.step(&mut theirs);

        assert_eq!(
            bits(&ours.flat_values()),
            bits(&theirs.flat_values()),
            "parameters diverged at step {step}"
        );
        let (m, v) = adam.flat_moments();
        assert_moments_match(&m, &OracleAdam::flat(&oracle.m), "m", step);
        assert_moments_match(&v, &OracleAdam::flat(&oracle.v), "v", step);
        if let Some((s, a)) = &mut resumed {
            s.load_flat_grads_mean(&sum, COUNT);
            s.clip_grad_norm(1.0);
            a.step(s);
            assert_eq!(bits(&s.flat_values()), bits(&ours.flat_values()), "resume, step {step}");
            let (rm, rv) = a.flat_moments();
            assert_eq!((bits(&rm), bits(&rv)), (bits(&m), bits(&v)), "resume, step {step}");
        }
    }
    let subnormal =
        |ts: &[Tensor]| OracleAdam::flat(ts).iter().filter(|x| x.is_subnormal()).count();
    (subnormal(&oracle.m), subnormal(&oracle.v))
}

#[test]
fn flushed_adam_matches_the_per_tensor_step_over_a_long_run() {
    // Canonical betas: the oracle ends with at least the 7 dead lanes and
    // the 8 vanishing ones holding subnormal first moments.
    let (m_sub, _) = run(3e-3, 0.9, 0.999);
    assert!(m_sub >= 15, "the run reached only {m_sub} subnormal first moments");
    // A short second-moment memory drives the dead lanes' second moments
    // subnormal within the run as well.
    let (m_sub, v_sub) = run(3e-3, 0.9, 0.95);
    assert!(m_sub >= 15 && v_sub >= 7, "too few subnormal moments reached ({m_sub}, {v_sub})");
}
