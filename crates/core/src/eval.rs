//! Evaluation of trained policies (the testing process of Section VI-D):
//! only the policy network π drives the workers; the environment supplies
//! states and metrics.

use crate::trainer::Trainer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vc_baselines::scheduler::Scheduler;
use vc_env::prelude::*;
use vc_nn::prelude::*;
use vc_rl::prelude::*;

/// A trained actor–critic wrapped as a [`Scheduler`], so learned policies
/// and engineered baselines run through the same evaluation harness.
pub struct PolicyScheduler {
    net: ActorCritic,
    store: ParamStore,
    opts: PolicyOptions,
    name: &'static str,
}

impl PolicyScheduler {
    /// Snapshot of a trainer's current global policy. Evaluation samples
    /// stochastically (the paper's testing process keeps the policy
    /// distributional) under the action-validity masking it was trained with.
    pub fn from_trainer(trainer: &Trainer, name: &'static str) -> Self {
        Self {
            net: trainer.net().clone(),
            store: trainer.store().clone(),
            opts: PolicyOptions {
                mode: SampleMode::Stochastic,
                mask_invalid: trainer.config().mask_invalid,
            },
            name,
        }
    }
}

impl Scheduler for PolicyScheduler {
    /// Samples from `rng`, the caller's stream, so [`evaluate`]'s `seed`
    /// decides the policy's draws.
    fn decide(&mut self, env: &CrowdsensingEnv, rng: &mut StdRng) -> Vec<WorkerAction> {
        sample_action(&self.net, &self.store, env, self.opts, rng).actions
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

/// Runs `episodes` evaluation episodes on the configured scenario and
/// returns the mean metrics. Episodes share the scenario (the paper
/// evaluates on the designed map it trained on) and differ only through the
/// schedulers' own stochasticity, seeded by `seed`.
pub fn evaluate(
    scheduler: &mut dyn Scheduler,
    env_cfg: &EnvConfig,
    episodes: usize,
    seed: u64,
) -> Metrics {
    assert!(episodes > 0, "need at least one evaluation episode");
    let mut env = CrowdsensingEnv::new(env_cfg.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut acc = Metrics::default();
    for _ep in 0..episodes {
        env.reset();
        let m = vc_baselines::scheduler::run_episode(scheduler, &mut env, &mut rng);
        acc.data_collection_ratio += m.data_collection_ratio;
        acc.remaining_data_ratio += m.remaining_data_ratio;
        acc.energy_efficiency += m.energy_efficiency;
        acc.fairness_index += m.fairness_index;
    }
    let n = episodes as f32;
    Metrics {
        data_collection_ratio: acc.data_collection_ratio / n,
        remaining_data_ratio: acc.remaining_data_ratio / n,
        energy_efficiency: acc.energy_efficiency / n,
        fairness_index: acc.fairness_index / n,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::trainer::{CuriosityChoice, TrainerConfig};
    use vc_baselines::prelude::*;

    #[test]
    fn policy_scheduler_runs_episodes() {
        let mut env_cfg = EnvConfig::tiny();
        env_cfg.horizon = 10;
        let mut cfg = TrainerConfig::drl_cews(env_cfg.clone()).quick();
        cfg.curiosity = CuriosityChoice::None;
        let t = crate::trainer::Trainer::new(cfg).unwrap();
        let mut sched = PolicyScheduler::from_trainer(&t, "drl-cews");
        let m = evaluate(&mut sched, &env_cfg, 2, 0);
        assert!((0.0..=1.0).contains(&m.data_collection_ratio));
        assert_eq!(sched.name(), "drl-cews");
    }

    #[test]
    fn evaluate_averages_over_scenarios() {
        let mut env_cfg = EnvConfig::tiny();
        env_cfg.horizon = 20;
        env_cfg.num_pois = 40;
        let single = evaluate(&mut RandomScheduler, &env_cfg, 1, 3);
        let multi = evaluate(&mut RandomScheduler, &env_cfg, 4, 3);
        // Later episodes consume fresh scheduler randomness, so averaging
        // them in must shift the result away from the first draw.
        assert!((single.data_collection_ratio - multi.data_collection_ratio).abs() > 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_episodes_panics() {
        evaluate(&mut RandomScheduler, &EnvConfig::tiny(), 0, 0);
    }

    fn quick_trainer(env_cfg: &EnvConfig) -> Trainer {
        let mut cfg = TrainerConfig::drl_cews(env_cfg.clone()).quick();
        cfg.curiosity = CuriosityChoice::None;
        Trainer::new(cfg).unwrap()
    }

    /// Records every joint action the wrapped scheduler decides.
    struct Recording<'a> {
        inner: &'a mut PolicyScheduler,
        moves: Vec<usize>,
    }

    impl Scheduler for Recording<'_> {
        fn decide(&mut self, env: &CrowdsensingEnv, rng: &mut StdRng) -> Vec<WorkerAction> {
            let actions = self.inner.decide(env, rng);
            self.moves
                .extend(actions.iter().map(|a| a.movement.index() * 2 + usize::from(a.charge)));
            actions
        }

        fn name(&self) -> &'static str {
            self.inner.name()
        }
    }

    #[test]
    fn policy_evaluation_seed_drives_the_action_stream() {
        let mut env_cfg = EnvConfig::tiny();
        env_cfg.horizon = 12;
        let t = quick_trainer(&env_cfg);
        let stream = |seed: u64| {
            let mut inner = PolicyScheduler::from_trainer(&t, "drl-cews");
            let mut rec = Recording { inner: &mut inner, moves: Vec::new() };
            evaluate(&mut rec, &env_cfg, 2, seed);
            rec.moves
        };
        let (a, b) = (stream(9), stream(12345));
        assert_eq!(a.len(), b.len());
        assert_eq!(a, stream(9), "one seed must give one action stream");
        assert_ne!(a, b, "seeds 9 and 12345 must draw different actions");
    }

    #[test]
    fn policy_evaluation_is_bitwise_reproducible() {
        let mut env_cfg = EnvConfig::tiny();
        env_cfg.horizon = 12;
        for mask_invalid in [true, false] {
            let mut cfg = TrainerConfig::drl_cews(env_cfg.clone()).quick();
            cfg.curiosity = CuriosityChoice::None;
            cfg.mask_invalid = mask_invalid;
            let t = crate::trainer::Trainer::new(cfg).unwrap();
            // One scheduler, evaluated twice: all of its randomness comes
            // from `seed`, so nothing carries over from the first run.
            let mut sched = PolicyScheduler::from_trainer(&t, "drl-cews");
            let a = evaluate(&mut sched, &env_cfg, 3, 9);
            let b = evaluate(&mut sched, &env_cfg, 3, 9);
            let bits = |m: &Metrics| {
                [
                    m.data_collection_ratio.to_bits(),
                    m.remaining_data_ratio.to_bits(),
                    m.energy_efficiency.to_bits(),
                    m.fairness_index.to_bits(),
                ]
            };
            assert_eq!(bits(&a), bits(&b), "mask_invalid={mask_invalid}");
        }
    }
}
