//! `train_paper`: one `Trainer::train_episode` of DRL-CEWS on the paper map
//! per operation — the paper's end-to-end training cost (Fig. 3).

use crate::stats::{self, Failure, Samples, Tally};
use crate::{derive_seed, nproc, peak_rss_mb, secs, E2e, Traced, SETUP_REPS};
use drl_cews::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use vc_curiosity::prelude::TransitionView;
use vc_env::prelude::*;
use vc_nn::prelude::*;
use vc_rl::prelude::*;
use vc_telemetry::{Telemetry, SPAN_SECONDS_BOUNDS};

/// Employee threads, capped at the host's hardware threads.
const EMPLOYEES: usize = 2;
/// Episodes each set-up trains before timing starts (arena and pool warm).
const WARMUP_EPISODES: usize = 2;
/// Single-thread replica rollouts in the traced pass.
const REPLICA_ROLLOUTS: usize = 3;
/// Sample-buffer headroom: far above any plausible episode rate.
const MAX_EPISODES_PER_S: f64 = 1000.0;
/// Allowed child-sum residual, as a share of the parent.
const RESIDUAL: f64 = 0.10;

/// The workload's trainer configuration: DRL-CEWS (sparse reward,
/// shared-embedding spatial curiosity, PPO defaults of 4 epochs and
/// minibatch 250) on the paper map, its PoI layout drawn from `seed`.
fn config(seed: u64) -> TrainerConfig {
    let mut env = EnvConfig::paper_default();
    env.seed = derive_seed(seed, "train.map");
    let mut cfg = TrainerConfig::drl_cews(env);
    cfg.num_employees = EMPLOYEES.min(nproc());
    cfg.seed = derive_seed(seed, "train.trainer");
    cfg
}

fn unit(x: f32) -> bool {
    x.is_finite() && (0.0..=1.0).contains(&x)
}

/// One checked episode: `Ok`, κ/ξ/ρ finite and in [0, 1], and
/// `rounds_trained` advanced by exactly `epochs`.
fn episode(trainer: &mut Trainer) -> (f64, Result<(), Failure>) {
    let rounds = trainer.rounds_trained();
    let t0 = Instant::now();
    let result = trainer.train_episode();
    let took = secs(t0) * 1e3;
    let outcome = match result {
        Err(_) => Err(Failure::Refused),
        Ok(s) => {
            let advanced = trainer.rounds_trained() - rounds == trainer.config().ppo.epochs as u64;
            if advanced && unit(s.kappa) && unit(s.xi) && unit(s.rho) {
                Ok(())
            } else {
                Err(Failure::Invalid)
            }
        }
    };
    (took, outcome)
}

fn setup(cfg: &TrainerConfig, telemetry: Telemetry) -> Trainer {
    let mut trainer = Trainer::with_telemetry(cfg.clone(), telemetry)
        .unwrap_or_else(|e| panic!("trainer failed to start: {e}"));
    for _ in 0..WARMUP_EPISODES {
        trainer.train_episode().unwrap_or_else(|e| panic!("warm-up episode failed: {e}"));
    }
    trainer
}

/// Episodes until `seconds` have passed. Samples are stamped with the
/// busy time so far; the whole loop is the program's work.
fn episodes_for(trainer: &mut Trainer, seconds: f64) -> (Samples, Tally) {
    let mut samples = Samples::with_capacity((seconds * MAX_EPISODES_PER_S) as usize);
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut busy_ms = 0.0;
    while secs(start) < seconds {
        let (took, outcome) = episode(trainer);
        busy_ms += took;
        if outcome.is_ok() {
            samples.push(busy_ms / 1e3, took);
        }
        tally.record(outcome);
    }
    (samples, tally)
}

pub fn run(seed: u64, seconds: f64) -> E2e {
    let cfg = config(seed);
    let mut setup_s = Vec::new();
    let mut trainer = None;
    for _ in 0..SETUP_REPS {
        // The previous trainer's threads are joined outside the timing.
        drop(trainer.take());
        let t0 = Instant::now();
        trainer = Some(setup(&cfg, Telemetry::off()));
        setup_s.push(secs(t0));
    }
    let mut trainer = trainer.expect("at least one set-up");
    let (samples, tally) = episodes_for(&mut trainer, seconds);
    E2e {
        setup_s,
        samples,
        units_per_op: (cfg.num_employees * cfg.env.horizon) as f64,
        unit_name: "env transitions trained",
        tally,
        peak_rss_mb: peak_rss_mb(),
    }
}

pub fn trace(seed: u64, seconds: f64) -> Traced {
    let cfg = config(seed);
    let mut t = Traced::default();
    let tel = Telemetry::new();
    tel.set_on(false);
    set_kernel_telemetry(false);
    let mut trainer = setup(&cfg, tel.clone());

    // Untraced half, then the same trainer with telemetry on.
    let (plain, tally) = episodes_for(&mut trainer, seconds / 2.0);
    let plain = plain.latencies_ms();
    t.tally.merge(&tally);
    tel.set_on(true);
    set_kernel_telemetry(true);
    reset_kernel_counters();
    let (pool0, arena0) = (pool_stats(), arena_stats());
    let (traced, tally) = episodes_for(&mut trainer, seconds / 2.0);
    let traced = traced.latencies_ms();
    t.tally.merge(&tally);
    let (kernels, pool1, arena1) = (kernel_counters(), pool_stats(), arena_stats());
    set_kernel_telemetry(false);
    tel.set_on(false);

    let eps = traced.len() as f64;
    let episode_ms = traced.iter().sum::<f64>() / eps;
    // (total ms, observations) of one of the trainer's span histograms.
    let hist = |name: &str| {
        let h = tel.histogram(name, &SPAN_SECONDS_BOUNDS);
        (h.sum() * 1e3, h.count() as f64)
    };
    let (rollout, n_roll) = hist("chief_rollout_seconds");
    let (gather, n_gather) = hist("chief_gather_seconds");
    let (broadcast, n_bc) = hist("chief_broadcast_seconds");
    let (apply, n_apply) = hist("trainer_apply_seconds");
    let per = |what: &str, n: f64| format!("per {what}, {n} {what}s");
    t.push("rl.chief_rollout_ms", rollout / n_roll, "ms", per("rollout", n_roll));
    t.push("rl.chief_gather_ms", gather / n_gather, "ms", per("round", n_gather));
    t.push("rl.chief_broadcast_ms", broadcast / n_bc, "ms", per("call", n_bc));
    t.push("trainer.apply_ms", apply / n_apply, "ms", per("round", n_apply));
    let parts = [rollout / eps, gather / eps, apply / eps, broadcast / eps];
    t.push(
        "trainer.residual_share",
        stats::residual_share(episode_ms, &parts),
        "share",
        format!("1 - (rollout+gather+apply+broadcast)/episode over {eps} traced episodes"),
    );
    t.check_sum(
        "train_paper episode = rollout + gather + apply + broadcast",
        episode_ms,
        &parts,
        RESIDUAL,
    );
    push_nn(&mut t, "train_paper", eps, kernels, (pool0, pool1), (arena0, arena1));
    let p50 = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    t.push(
        "trace.overhead_share.train_paper",
        p50(&traced) / p50(&plain) - 1.0,
        "share",
        format!("traced p50 over untraced p50, {} and {} episodes", traced.len(), plain.len()),
    );

    let replica_ms = replica(&mut t, &cfg, &trainer);
    t.push(
        "rl.chief_wait_ms",
        rollout / n_roll - replica_ms,
        "ms",
        "chief rollout barrier minus single-thread replica rollout".into(),
    );
    t
}

/// Per-operation kernel work from the process-wide vc-nn counters.
pub fn push_nn(
    t: &mut Traced,
    workload: &str,
    ops: f64,
    kernels: KernelCounters,
    pool: (PoolStats, PoolStats),
    arena: (ArenaStats, ArenaStats),
) {
    let base = format!("per {workload} operation, {ops} operations");
    t.push(
        &format!("nn.gemm_calls_per_op.{workload}"),
        kernels.gemm_calls as f64 / ops,
        "count",
        base.clone(),
    );
    t.push(
        &format!("nn.gemm_gflop_per_op.{workload}"),
        kernels.gemm_flops as f64 / 1e9 / ops,
        "GFLOP",
        base.clone(),
    );
    t.push(
        &format!("nn.pool_dispatches_per_op.{workload}"),
        (pool.1.dispatches - pool.0.dispatches) as f64 / ops,
        "count",
        base,
    );
    let hits = (arena.1.hits - arena.0.hits) as f64;
    let misses = (arena.1.misses - arena.0.misses) as f64;
    t.push(
        &format!("nn.arena_hit_ratio.{workload}"),
        if hits + misses > 0.0 { hits / (hits + misses) } else { 1.0 },
        "share",
        format!("{hits} hits of {} takes", hits + misses),
    );
}

/// Replays one employee's rollout on this thread through the public calls
/// the employee makes, timing each, then one PPO and one curiosity
/// gradient computation. Returns the median replica rollout in ms.
fn replica(t: &mut Traced, cfg: &TrainerConfig, trainer: &Trainer) -> f64 {
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(1000));
    let mut store = ParamStore::new();
    let net = ActorCritic::new(
        &mut store,
        NetConfig::for_scenario(cfg.env.grid, cfg.env.num_workers),
        &mut StdRng::seed_from_u64(cfg.seed),
    );
    store.copy_values_from(trainer.store());
    let mut curiosity = cfg.curiosity.build(&cfg.env, cfg.seed.wrapping_add(77));
    curiosity.params_mut().load_flat_values(&trainer.curiosity().params().flat_values());
    let mut env = CrowdsensingEnv::new(cfg.env.clone());
    let opts = PolicyOptions { mode: SampleMode::Stochastic, mask_invalid: cfg.mask_invalid };
    let mut buffer = RolloutBuffer::new();

    let (mut step, mut encode, mut sample, mut reward) = (vec![], vec![], vec![], vec![]);
    let (mut gae, mut value, mut total, mut ppo, mut cgrads) =
        (vec![], vec![], vec![], vec![], vec![]);
    let us = |t0: Instant| secs(t0) * 1e6;
    for _ in 0..REPLICA_ROLLOUTS {
        let start = Instant::now();
        env.reset();
        buffer.clear();
        curiosity.clear_buffer();
        while !env.done() {
            let t0 = Instant::now();
            let state = vc_env::state::encode(&env);
            encode.push(us(t0));
            let t0 = Instant::now();
            let sampled = sample_action(&net, &store, &env, opts, &mut rng);
            sample.push(us(t0));
            let positions: Vec<Point> = env.workers().iter().map(|w| w.pos).collect();
            let t0 = Instant::now();
            let result = env.step(&sampled.actions);
            step.push(us(t0));
            let next_positions: Vec<Point> = env.workers().iter().map(|w| w.pos).collect();
            let t0 = Instant::now();
            let next_state = vc_env::state::encode(&env);
            encode.push(us(t0));
            let r_ext = extrinsic_reward(cfg.reward_mode, env.config(), &result.outcomes);
            let t0 = Instant::now();
            let r_int = curiosity.intrinsic_reward(&TransitionView {
                state: &state,
                next_state: &next_state,
                positions: &positions,
                next_positions: &next_positions,
                moves: &sampled.moves,
            });
            reward.push(us(t0));
            buffer.push(Transition {
                state,
                moves: sampled.moves,
                charges: sampled.charges,
                move_mask: sampled.move_mask,
                charge_mask: sampled.charge_mask,
                logp: sampled.logp,
                reward: r_ext + r_int,
                value: sampled.value,
            });
        }
        let t0 = Instant::now();
        let v_last = state_value(&net, &store, &env);
        value.push(us(t0));
        let t0 = Instant::now();
        finish_rollout(&mut buffer, &cfg.ppo, v_last);
        gae.push(us(t0));
        total.push(secs(start) * 1e3);

        let batches = buffer.minibatch_indices(cfg.ppo.minibatch, &mut rng);
        let t0 = Instant::now();
        store.zero_grads();
        std::hint::black_box(compute_ppo_grads(&net, &mut store, &buffer, &batches[0], &cfg.ppo));
        ppo.push(us(t0));
        let t0 = Instant::now();
        curiosity.params_mut().zero_grads();
        curiosity.compute_grads(cfg.ppo.minibatch, &mut rng);
        cgrads.push(us(t0));
    }
    let med = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    let n = |v: &[f64], what: &str| format!("median of {} {what}", v.len());
    t.push("env.step_us", med(&step), "us", n(&step, "steps at 2 workers"));
    t.push("env.encode_us", med(&encode), "us", n(&encode, "encodes at 2 workers"));
    t.push("rl.sample_us", med(&sample), "us", n(&sample, "sample_action calls"));
    t.push("curiosity.reward_us", med(&reward), "us", n(&reward, "intrinsic_reward calls"));
    t.push("rl.gae_us", med(&gae), "us", n(&gae, "finish_rollout calls"));
    t.push("rl.ppo_grads_us", med(&ppo), "us", n(&ppo, "minibatches"));
    t.push("curiosity.grads_us", med(&cgrads), "us", n(&cgrads, "rounds"));
    let replica_ms = med(&total);
    t.push("rl.replica_rollout_ms", replica_ms, "ms", n(&total, "single-thread rollouts"));
    // Per rollout: every step's parts plus the bootstrap value and GAE.
    let steps = cfg.env.horizon as f64;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let parts_ms = [
        steps * mean(&step) / 1e3,
        2.0 * steps * mean(&encode) / 1e3,
        steps * mean(&sample) / 1e3,
        steps * mean(&reward) / 1e3,
        (mean(&value) + mean(&gae)) / 1e3,
    ];
    t.check_sum(
        "replica rollout = steps x (step + 2 encode + sample + reward) + value + gae",
        mean(&total),
        &parts_ms,
        RESIDUAL,
    );
    replica_ms
}
