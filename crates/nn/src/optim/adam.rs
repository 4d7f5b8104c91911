//! Adam optimizer (Kingma & Ba, 2015) — the optimizer the chief thread of
//! DRL-CEWS applies to the summed employee gradients.

use super::Optimizer;
use crate::param::ParamStore;

/// Adam with bias-corrected first/second moment estimates.
///
/// The moments are two flat buffers in the store's registration order,
/// frozen parameters included (their entries stay zero), so they are the
/// checkpoint's `n×f32 m, n×f32 v` as they stand.
///
/// A moment whose magnitude falls below `f32::MIN_POSITIVE` is stored as
/// `0.0`. A gradient entry that is exactly zero round after round decays
/// its first moment by `β₁` into the subnormal range, where round-to-nearest
/// holds it at one to four units of `2⁻¹⁴⁹` for good, and every later
/// step would pay a microcode assist on that lane. The flush changes a
/// moment only where the gradient is below about `1e-30` in magnitude,
/// and a parameter only where the parameter itself is tiny (DESIGN.md
/// §10). It is done per element, not with the thread-global FTZ/DAZ
/// flags, which would change every other kernel on the calling thread.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    /// Adam with the canonical β₁ = 0.9, β₂ = 0.999, ε = 1e-8.
    pub fn new(lr: f32) -> Self {
        Self::with_betas(lr, 0.9, 0.999, 1e-8)
    }

    /// Adam with explicit hyperparameters.
    pub fn with_betas(lr: f32, beta1: f32, beta2: f32, eps: f32) -> Self {
        assert!((0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2), "betas in [0,1)");
        Self { lr, beta1, beta2, eps, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Number of update steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Copies of the first/second moment estimates for checkpointing, in
    /// parameter-registration order. Both vectors are empty before the
    /// first [`Optimizer::step`] (moments are lazily allocated).
    pub fn flat_moments(&self) -> (Vec<f32>, Vec<f32>) {
        (self.m.clone(), self.v.clone())
    }

    /// Restores the optimizer state captured by [`Self::steps`] and
    /// [`Self::flat_moments`] for `store` (which must be the store this
    /// optimizer steps). Empty moment slices reset to the pre-first-step
    /// lazy state. Moments are taken as given; subnormal ones from a
    /// checkpoint written before the flush are flushed by the next step.
    ///
    /// # Errors
    ///
    /// [`MomentLengthMismatch`] when the flat moments don't cover `store`'s
    /// scalars exactly.
    pub fn restore_state(
        &mut self,
        store: &ParamStore,
        t: u64,
        m_flat: &[f32],
        v_flat: &[f32],
    ) -> Result<(), MomentLengthMismatch> {
        let expected = if m_flat.is_empty() && v_flat.is_empty() { 0 } else { store.num_scalars() };
        if m_flat.len() != expected || v_flat.len() != expected {
            return Err(MomentLengthMismatch {
                expected,
                got: if m_flat.len() != expected { m_flat.len() } else { v_flat.len() },
            });
        }
        self.t = t;
        self.m = m_flat.to_vec();
        self.v = v_flat.to_vec();
        Ok(())
    }
}

/// [`Adam::restore_state`] was given moment vectors whose total scalar
/// count doesn't match the parameter store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MomentLengthMismatch {
    /// Scalars the store holds.
    pub expected: usize,
    /// Scalars the offending moment vector holds.
    pub got: usize,
}

impl std::fmt::Display for MomentLengthMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Adam moment length mismatch: store has {} scalars, snapshot has {}",
            self.expected, self.got
        )
    }
}

impl std::error::Error for MomentLengthMismatch {}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore) {
        if self.m.is_empty() {
            let n = store.num_scalars();
            self.m = vec![0.0; n];
            self.v = vec![0.0; n];
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let (m, v) = (&mut self.m, &mut self.v);
        store.for_each_trainable(|offset, value, grad| {
            let n = grad.numel();
            let lanes = value
                .data_mut()
                .iter_mut()
                .zip(&mut m[offset..offset + n])
                .zip(&mut v[offset..offset + n])
                .zip(grad.data());
            for (((pj, mj), vj), &gj) in lanes {
                *mj = flush_subnormal(beta1 * *mj + (1.0 - beta1) * gj);
                *vj = flush_subnormal(beta2 * *vj + (1.0 - beta2) * gj * gj);
                let mhat = *mj / bc1;
                let vhat = *vj / bc2;
                *pj -= lr * mhat / (vhat.sqrt() + eps);
            }
        });
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// `x`, or `0.0` when `|x| < f32::MIN_POSITIVE` (NaN and ±∞ pass through).
#[inline(always)]
fn flush_subnormal(x: f32) -> f32 {
    if x.abs() < f32::MIN_POSITIVE {
        0.0
    } else {
        x
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    /// Minimize f(w) = (w - target)² from a given start.
    fn minimize(lr: f32, start: f32, target: f32, iters: usize) -> f32 {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(&[1], vec![start]));
        let mut opt = Adam::new(lr);
        for _ in 0..iters {
            store.zero_grads();
            let grad = Tensor::from_vec(&[1], vec![2.0 * (store.value(w).data()[0] - target)]);
            store.accumulate_grad(w, &grad);
            opt.step(&mut store);
        }
        store.value(w).data()[0]
    }

    #[test]
    fn converges_on_quadratic() {
        let w = minimize(0.1, 10.0, -3.0, 500);
        assert!((w + 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn first_step_size_is_lr() {
        // Adam's bias correction makes the very first step ≈ lr regardless
        // of gradient magnitude.
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(&[1], vec![0.0]));
        let mut opt = Adam::new(0.05);
        store.accumulate_grad(w, &Tensor::from_vec(&[1], vec![1234.0]));
        opt.step(&mut store);
        assert!((store.value(w).data()[0] + 0.05).abs() < 1e-4);
    }

    #[test]
    fn frozen_params_untouched() {
        let mut store = ParamStore::new();
        let f = store.add_frozen("f", Tensor::from_vec(&[1], vec![7.0]));
        let w = store.add("w", Tensor::from_vec(&[1], vec![1.0]));
        let mut opt = Adam::new(0.1);
        store.accumulate_grad(w, &Tensor::ones(&[1]));
        opt.step(&mut store);
        assert_eq!(store.value(f).data(), &[7.0]);
        assert!(store.value(w).data()[0] < 1.0);
    }

    #[test]
    fn adam_outpaces_sgd_on_ill_conditioned_quadratic() {
        // f(w) = 0.5 (1000 w0^2 + w1^2): per-coordinate scaling is exactly
        // what Adam's second moment fixes and plain SGD cannot (a stable SGD
        // lr for w0 crawls on w1).
        fn run(step: &mut dyn FnMut(&mut ParamStore), iters: usize) -> f32 {
            let mut store = ParamStore::new();
            let w = store.add("w", Tensor::from_vec(&[2], vec![1.0, 1.0]));
            for _ in 0..iters {
                store.zero_grads();
                let v = store.value(w).data().to_vec();
                store.accumulate_grad(w, &Tensor::from_vec(&[2], vec![1000.0 * v[0], v[1]]));
                step(&mut store);
            }
            let v = store.value(w).data();
            0.5 * (1000.0 * v[0] * v[0] + v[1] * v[1])
        }
        // Largest stable SGD lr is ~1/1000; Adam normalizes per coordinate.
        let mut sgd = |s: &mut ParamStore| s.for_each_trainable(|_, v, g| v.add_scaled(g, -1e-3));
        let sgd_loss = run(&mut sgd, 300);
        let mut adam = Adam::new(0.05);
        let adam_loss = run(&mut |s: &mut ParamStore| adam.step(s), 300);
        assert!(
            adam_loss < sgd_loss / 10.0,
            "Adam {adam_loss} should dominate SGD {sgd_loss} here"
        );
    }

    #[test]
    fn state_roundtrip_resumes_identically() {
        // Two optimizers stepped identically, one through a mid-run
        // state transfer, must produce bit-identical trajectories.
        fn setup() -> (ParamStore, crate::param::ParamId) {
            let mut store = ParamStore::new();
            let w = store.add("w", Tensor::from_vec(&[2], vec![5.0, -4.0]));
            (store, w)
        }
        fn grad_step(store: &mut ParamStore, w: crate::param::ParamId, opt: &mut Adam) {
            store.zero_grads();
            let v = store.value(w).data().to_vec();
            store.accumulate_grad(w, &Tensor::from_vec(&[2], vec![2.0 * v[0], 0.5 * v[1]]));
            opt.step(store);
        }
        let (mut s1, w1) = setup();
        let mut o1 = Adam::new(0.05);
        for _ in 0..5 {
            grad_step(&mut s1, w1, &mut o1);
        }
        // Transfer: fresh store/optimizer resumed from snapshots.
        let (mut s2, w2) = setup();
        s2.load_flat_values(&s1.flat_values());
        let mut o2 = Adam::new(0.05);
        let (m, v) = o1.flat_moments();
        o2.restore_state(&s2, o1.steps(), &m, &v).unwrap();
        assert_eq!(o2.steps(), 5);
        for _ in 0..5 {
            grad_step(&mut s1, w1, &mut o1);
            grad_step(&mut s2, w2, &mut o2);
        }
        assert_eq!(s1.value(w1).data(), s2.value(w2).data());
    }

    #[test]
    fn restore_state_rejects_wrong_lengths() {
        let mut store = ParamStore::new();
        store.add("w", Tensor::zeros(&[3]));
        let mut opt = Adam::new(0.1);
        let err = opt.restore_state(&store, 1, &[0.0; 2], &[0.0; 3]).unwrap_err();
        assert_eq!(err, super::MomentLengthMismatch { expected: 3, got: 2 });
        // Empty moments reset to the lazy pre-step state.
        opt.restore_state(&store, 0, &[], &[]).unwrap();
        assert_eq!(opt.steps(), 0);
    }

    #[test]
    fn step_counter_advances() {
        let mut store = ParamStore::new();
        store.add("w", Tensor::zeros(&[1]));
        let mut opt = Adam::new(0.1);
        assert_eq!(opt.steps(), 0);
        opt.step(&mut store);
        opt.step(&mut store);
        assert_eq!(opt.steps(), 2);
    }
}
