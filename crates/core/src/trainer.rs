//! The DRL-CEWS training loop (Algorithms 1–2).
//!
//! A [`Trainer`] owns the *global* PPO and curiosity parameter stores and
//! their Adam optimizers (the chief), and drives M employee threads, each
//! holding a local model copy and a local environment. One
//! [`Trainer::train_episode`] runs:
//!
//! 1. broadcast global parameters;
//! 2. every employee rolls out one episode (exploration, Alg. 1 lines 4–15),
//!    adding the intrinsic curiosity reward to the extrinsic reward;
//! 3. K synchronized update rounds (exploitation, lines 17–23): employees
//!    compute minibatch gradients; the chief sums them through the gradient
//!    buffers, averages over M, clips, steps Adam, and re-broadcasts.
//!
//! The same trainer realizes both **DRL-CEWS** (sparse reward + spatial
//! curiosity) and the **DPPO** comparator (dense reward, no curiosity) via
//! [`TrainerConfig`] presets, so the comparison in Figs. 5–8 shares one
//! implementation.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::{Duration, Instant};
use vc_curiosity::prelude::*;
use vc_env::prelude::*;
use vc_nn::optim::{Adam, LrSchedule, Optimizer};
use vc_nn::prelude::*;
use vc_rl::prelude::*;
use vc_telemetry::{Field, Telemetry};

/// Errors from building or driving a [`Trainer`].
#[derive(Clone, Debug, PartialEq)]
pub enum TrainerError {
    /// The environment configuration failed validation.
    Env(EnvError),
    /// The chief–employee executor failed (employee death, closed channel,
    /// malformed gradients).
    Chief(ChiefError),
    /// A durable checkpoint could not be decoded or does not match this
    /// trainer's models.
    Checkpoint(CheckpointError),
}

impl fmt::Display for TrainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainerError::Env(e) => write!(f, "invalid trainer environment: {e}"),
            TrainerError::Chief(e) => write!(f, "chief executor failed: {e}"),
            TrainerError::Checkpoint(e) => write!(f, "bad training checkpoint: {e}"),
        }
    }
}

impl std::error::Error for TrainerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainerError::Env(e) => Some(e),
            TrainerError::Chief(e) => Some(e),
            TrainerError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<CheckpointError> for TrainerError {
    fn from(e: CheckpointError) -> Self {
        TrainerError::Checkpoint(e)
    }
}

impl From<EnvError> for TrainerError {
    fn from(e: EnvError) -> Self {
        TrainerError::Env(e)
    }
}

impl From<ChiefError> for TrainerError {
    fn from(e: ChiefError) -> Self {
        TrainerError::Chief(e)
    }
}

/// Which intrinsic-reward model the trainer attaches.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum CuriosityChoice {
    /// No intrinsic reward.
    None,
    /// The paper's spatial curiosity model.
    Spatial {
        /// Position-feature extractor variant.
        feature: FeatureKind,
        /// Predictor structure (joint or per-worker).
        structure: StructureKind,
        /// Intrinsic-reward scale η.
        eta: f32,
    },
    /// Random network distillation on the full state.
    Rnd {
        /// Intrinsic-reward scale η.
        eta: f32,
    },
    /// Pathak-style ICM on the full state.
    Icm {
        /// Intrinsic-reward scale η.
        eta: f32,
    },
    /// Count-based novelty bonus (parameter-free reference).
    Count {
        /// Intrinsic-reward scale η.
        eta: f32,
    },
}

impl CuriosityChoice {
    /// The paper's final choice: shared structure + embedding feature,
    /// η = 0.3.
    pub fn paper_spatial() -> Self {
        CuriosityChoice::Spatial {
            feature: FeatureKind::Embedding,
            structure: StructureKind::Shared,
            eta: 0.3,
        }
    }

    /// Instantiates the model for a scenario.
    pub fn build(self, env_cfg: &EnvConfig, seed: u64) -> Box<dyn Curiosity> {
        match self {
            CuriosityChoice::None => Box::new(NoCuriosity::new()),
            CuriosityChoice::Spatial { feature, structure, eta } => {
                let mut cfg = vc_curiosity::spatial::SpatialCuriosityConfig::paper_default(
                    env_cfg.grid,
                    env_cfg.size_x,
                    env_cfg.size_y,
                    env_cfg.num_workers,
                );
                cfg.feature = feature;
                cfg.structure = structure;
                cfg.eta = eta;
                cfg.seed = seed;
                Box::new(SpatialCuriosity::new(cfg))
            }
            CuriosityChoice::Rnd { eta } => {
                let mut cfg = RndConfig::for_state(vc_env::state::state_len(env_cfg));
                cfg.eta = eta;
                cfg.seed = seed;
                Box::new(Rnd::new(cfg))
            }
            CuriosityChoice::Icm { eta } => {
                let mut cfg =
                    IcmConfig::for_state(vc_env::state::state_len(env_cfg), env_cfg.num_workers);
                cfg.eta = eta;
                cfg.seed = seed;
                Box::new(Icm::new(cfg))
            }
            CuriosityChoice::Count { eta } => {
                let mut cfg =
                    CountCuriosityConfig::for_space(env_cfg.grid, env_cfg.size_x, env_cfg.size_y);
                cfg.eta = eta;
                Box::new(CountCuriosity::new(cfg))
            }
        }
    }

    /// Short label for experiment reports.
    pub fn label(&self) -> String {
        match self {
            CuriosityChoice::None => "none".into(),
            CuriosityChoice::Spatial { feature, structure, .. } => {
                let f = match feature {
                    FeatureKind::Embedding => "embedding",
                    FeatureKind::Direct => "direct",
                };
                let s = match structure {
                    StructureKind::Shared => "shared",
                    StructureKind::Independent => "independent",
                };
                format!("{s}-{f}")
            }
            CuriosityChoice::Rnd { .. } => "rnd".into(),
            CuriosityChoice::Icm { .. } => "icm".into(),
            CuriosityChoice::Count { .. } => "count".into(),
        }
    }
}

/// Fault-tolerance policy for the chief–employee executor, in
/// serialization-friendly units (see `ChiefConfig` in `vc-rl` for the
/// runtime semantics).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Gather-round timeout in milliseconds; `None` waits forever (a hung
    /// employee then wedges the synchronous barrier).
    pub round_timeout_ms: Option<u64>,
    /// Total employee respawns allowed before a death aborts the run.
    pub restart_budget: usize,
    /// Base of the exponential respawn backoff, in milliseconds.
    pub backoff_base_ms: u64,
    /// Deterministic fault-injection script (empty in production runs).
    pub faults: FaultPlan,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            round_timeout_ms: None,
            restart_budget: 16,
            backoff_base_ms: 10,
            faults: FaultPlan::none(),
        }
    }
}

impl FaultConfig {
    fn to_chief(&self) -> ChiefConfig {
        ChiefConfig {
            round_timeout: self.round_timeout_ms.map(Duration::from_millis),
            restart_budget: self.restart_budget,
            backoff_base: Duration::from_millis(self.backoff_base_ms),
            backoff_cap: Duration::from_secs(5),
            // Derive the jitter stream from the training seed's fault
            // config deterministically: resumes reproduce the schedule.
            backoff_seed: 0xBAC0_FF5E ^ self.restart_budget as u64,
            faults: self.faults.clone(),
        }
    }
}

/// Full trainer configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Crowdsensing environment configuration.
    pub env: EnvConfig,
    /// PPO hyperparameters shared by every employee.
    pub ppo: PpoConfig,
    /// Extrinsic-reward shaping (sparse or dense).
    pub reward_mode: RewardMode,
    /// Intrinsic-reward model attached to the trainer.
    pub curiosity: CuriosityChoice,
    /// Number of employee threads M (8 in the paper's final setting).
    pub num_employees: usize,
    /// Learning rate for the curiosity forward model.
    pub curiosity_lr: f32,
    /// Policy learning-rate schedule, evaluated against
    /// [`Self::schedule_horizon`] episodes.
    pub lr_schedule: LrSchedule,
    /// Episode count over which `lr_schedule` anneals (progress saturates
    /// at 1 beyond it). Ignored for the constant schedule.
    pub schedule_horizon: usize,
    /// Mask invalid moves/charges at sampling time. Defaults to `true`: on
    /// this CPU-scale substrate, burning episodes on learning wall avoidance
    /// from the collision penalty alone is wasted budget. Set `false` for
    /// the paper-faithful penalty-only ablation.
    pub mask_invalid: bool,
    /// Master seed for network init, employees and sampling.
    pub seed: u64,
    /// Fault-tolerance policy (restart budget, round timeout, injection).
    pub fault: FaultConfig,
}

impl TrainerConfig {
    /// The full DRL-CEWS method: sparse reward + shared-embedding spatial
    /// curiosity, 8 employees, batch 250.
    pub fn drl_cews(env: EnvConfig) -> Self {
        Self {
            env,
            ppo: PpoConfig::default(),
            reward_mode: RewardMode::Sparse,
            curiosity: CuriosityChoice::paper_spatial(),
            num_employees: 8,
            curiosity_lr: 3e-3,
            lr_schedule: LrSchedule::Constant,
            schedule_horizon: 2500,
            mask_invalid: true,
            seed: 1,
            fault: FaultConfig::default(),
        }
    }

    /// The DPPO comparator (Heess et al.): dense reward (Eqn 20), no
    /// curiosity, per-batch advantage normalization, 8 employees, batch 250.
    pub fn dppo(env: EnvConfig) -> Self {
        Self {
            env,
            ppo: PpoConfig { normalize_adv: true, minibatch: 250, ..PpoConfig::default() },
            reward_mode: RewardMode::Dense,
            curiosity: CuriosityChoice::None,
            num_employees: 8,
            curiosity_lr: 1e-3,
            lr_schedule: LrSchedule::Constant,
            schedule_horizon: 2500,
            mask_invalid: true,
            seed: 1,
            fault: FaultConfig::default(),
        }
    }

    /// Scales the configuration down for fast CI / unit-test runs.
    pub fn quick(mut self) -> Self {
        self.num_employees = 2;
        self.ppo.epochs = 1;
        self.ppo.minibatch = 32;
        self
    }
}

/// One employee thread's state: local env, local models, local buffer.
struct CewsEmployee {
    env: CrowdsensingEnv,
    store: ParamStore,
    net: ActorCritic,
    curiosity: Box<dyn Curiosity>,
    buffer: RolloutBuffer,
    ppo: PpoConfig,
    reward_mode: RewardMode,
    opts: PolicyOptions,
    rng: StdRng,
}

impl CewsEmployee {
    fn shaped_state(&self) -> Vec<f32> {
        vc_env::state::encode(&self.env)
    }
}

impl Employee for CewsEmployee {
    fn load_params(&mut self, ppo: &[f32], curiosity: &[f32]) {
        self.store.load_flat_values(ppo);
        if !curiosity.is_empty() {
            self.curiosity.params_mut().load_flat_values(curiosity);
        }
    }

    fn rollout(&mut self) -> EpisodeStats {
        // All employees train on the *same* designed scenario (the paper
        // trains and evaluates on one map, Fig. 2b); experience diversity
        // comes from each employee's independent stochastic policy draws.
        self.env.reset();
        self.buffer.clear();
        self.curiosity.clear_buffer();

        let mut ext_total = 0.0f32;
        let mut int_total = 0.0f32;
        while !self.env.done() {
            let state = self.shaped_state();
            let sampled =
                sample_action(&self.net, &self.store, &self.env, self.opts, &mut self.rng);
            let positions: Vec<Point> = self.env.workers().iter().map(|w| w.pos).collect();
            let result = self.env.step(&sampled.actions);
            let next_positions: Vec<Point> = self.env.workers().iter().map(|w| w.pos).collect();
            let next_state = self.shaped_state();

            let r_ext = extrinsic_reward(self.reward_mode, self.env.config(), &result.outcomes);
            let r_int = self.curiosity.intrinsic_reward(&TransitionView {
                state: &state,
                next_state: &next_state,
                positions: &positions,
                next_positions: &next_positions,
                moves: &sampled.moves,
            });
            ext_total += r_ext;
            int_total += r_int;

            self.buffer.push(Transition {
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
        let v_last = state_value(&self.net, &self.store, &self.env);
        finish_rollout(&mut self.buffer, &self.ppo, v_last);

        let m = self.env.metrics();
        EpisodeStats {
            kappa: m.data_collection_ratio,
            xi: m.remaining_data_ratio,
            rho: m.energy_efficiency,
            ext_reward: ext_total,
            int_reward: int_total,
            collisions: self.env.workers().iter().map(|w| w.collisions).sum(),
        }
    }

    fn compute_grads(&mut self) -> GradPair {
        self.store.zero_grads();
        let batches = self.buffer.minibatch_indices(self.ppo.minibatch, &mut self.rng);
        let mut stats = PpoStats::default();
        if let Some(batch) = batches.first() {
            stats = compute_ppo_grads(&self.net, &mut self.store, &self.buffer, batch, &self.ppo);
        }
        let ppo = self.store.flat_grads();
        self.curiosity.params_mut().zero_grads();
        self.curiosity.compute_grads(self.ppo.minibatch, &mut self.rng);
        let cur = if self.curiosity.params().is_empty() {
            Vec::new()
        } else {
            self.curiosity.params().flat_grads()
        };
        GradPair { ppo, curiosity: cur, stats }
    }

    fn snapshot_rng(&self) -> [u64; 4] {
        self.rng.state()
    }

    fn restore_rng(&mut self, state: [u64; 4]) {
        self.rng = StdRng::from_state(state);
    }
}

/// The chief: global stores, optimizers, and the employee executor.
pub struct Trainer {
    cfg: TrainerConfig,
    store: ParamStore,
    net: ActorCritic,
    curiosity_store_len: usize,
    curiosity: Box<dyn Curiosity>,
    ppo_opt: Adam,
    curiosity_opt: Adam,
    executor: ChiefExecutor,
    episodes: usize,
    rounds: u64,
    history: Vec<EpisodeStats>,
    last_ppo_stats: PpoStats,
    /// The last gather round; kept so its gradient vectors are reused.
    report: RoundReport,
    telemetry: Telemetry,
}

impl Trainer {
    /// Builds the global models and spawns the employee threads.
    ///
    /// # Errors
    ///
    /// [`TrainerError::Env`] on an invalid environment config,
    /// [`TrainerError::Chief`] when no employees are requested or a thread
    /// fails to spawn.
    pub fn new(cfg: TrainerConfig) -> Result<Self, TrainerError> {
        Self::with_telemetry(cfg, Telemetry::off())
    }

    /// Like [`Self::new`], with a telemetry registry threaded through the
    /// whole stack: the chief executor (round timings, quarantine/restart
    /// counters, per-employee gradient-norm histograms), every employee's
    /// environment (collision/charge counters, per-episode κ/ξ/ρ), and —
    /// when the handle is enabled — the dense-kernel call/FLOP tallies in
    /// `vc_nn`. The config stays serializable; the handle lives only here.
    ///
    /// # Errors
    ///
    /// Same as [`Self::new`].
    pub fn with_telemetry(cfg: TrainerConfig, telemetry: Telemetry) -> Result<Self, TrainerError> {
        cfg.env.validate()?;
        // Size the dense-kernel thread budget to the cores left after each
        // employee thread claims one. Purely a throughput knob: kernel
        // results are bit-identical for every setting.
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let kernel_threads = (cores / cfg.num_employees.max(1)).max(1);
        vc_nn::prelude::set_kernel_threads(kernel_threads);
        // Pre-grow the persistent kernel pool so the first large GEMM of the
        // run doesn't pay worker-spawn latency mid-rollout. The pool is
        // process-global and grow-only; with `kernel_threads == 1` every
        // matmul stays on the calling thread and no workers are reserved.
        if kernel_threads > 1 {
            vc_nn::ops::pool::ensure_workers(kernel_threads - 1);
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let net_cfg = NetConfig::for_scenario(cfg.env.grid, cfg.env.num_workers);
        let net = ActorCritic::new(&mut store, net_cfg, &mut rng);
        let curiosity = cfg.curiosity.build(&cfg.env, cfg.seed.wrapping_add(77));

        // The employee factory outlives construction: the executor re-invokes
        // it to build replacements for dead employees, which then receive the
        // current global snapshot via the chief's respawn path. A respawned
        // employee's RNG restarts its seeded stream — acceptable, since the
        // original stream died with the panicked thread.
        let fac_env = cfg.env.clone();
        let fac_curiosity = cfg.curiosity;
        let fac_telemetry = telemetry.clone();
        let (fac_ppo, fac_reward, fac_mask, fac_seed) =
            (cfg.ppo, cfg.reward_mode, cfg.mask_invalid, cfg.seed);
        let factory = move |id: usize| -> Box<dyn Employee> {
            // Same init seed ⇒ identical parameter layout; values are
            // overwritten by the first broadcast anyway.
            let mut erng = StdRng::seed_from_u64(fac_seed);
            let mut estore = ParamStore::new();
            let enet = ActorCritic::new(&mut estore, net_cfg, &mut erng);
            let mut emp_env = CrowdsensingEnv::new(fac_env.clone());
            emp_env.set_telemetry(fac_telemetry.clone());
            Box::new(CewsEmployee {
                env: emp_env,
                store: estore,
                net: enet,
                curiosity: fac_curiosity.build(&fac_env, fac_seed.wrapping_add(77)),
                buffer: RolloutBuffer::new(),
                ppo: fac_ppo,
                reward_mode: fac_reward,
                opts: PolicyOptions { mode: SampleMode::Stochastic, mask_invalid: fac_mask },
                rng: StdRng::seed_from_u64(fac_seed.wrapping_add(1000 + id as u64)),
            })
        };
        let mut executor =
            ChiefExecutor::spawn_with(cfg.num_employees, factory, cfg.fault.to_chief())?;
        executor.set_telemetry(telemetry.clone());
        if telemetry.is_on() {
            vc_nn::prelude::set_kernel_telemetry(true);
        }

        let ppo_opt = Adam::new(cfg.ppo.lr);
        let curiosity_opt = Adam::new(cfg.curiosity_lr);
        let curiosity_store_len = curiosity.params().num_scalars();
        Ok(Self {
            cfg,
            store,
            net,
            curiosity_store_len,
            curiosity,
            ppo_opt,
            curiosity_opt,
            executor,
            episodes: 0,
            rounds: 0,
            history: Vec::new(),
            last_ppo_stats: PpoStats::default(),
            report: RoundReport::default(),
            telemetry,
        })
    }

    /// Rebuilds a trainer from a v2 checkpoint produced by
    /// [`Self::checkpoint_v2`]: the embedded JSON config reconstructs the
    /// trainer, then parameters, optimizer moments, per-employee RNG
    /// streams and counters are restored, continuing the run bit-exactly
    /// for every curiosity model except [`CuriosityChoice::Count`], whose
    /// per-employee visit counts are not checkpointed (a resumed count run
    /// restarts them from zero).
    ///
    /// # Errors
    ///
    /// [`TrainerError::Checkpoint`] on a corrupt or incompatible
    /// checkpoint, plus everything [`Self::new`] can return.
    pub fn resume_from(data: &[u8]) -> Result<Self, TrainerError> {
        Self::resume_from_with_telemetry(data, Telemetry::off())
    }

    /// [`Self::resume_from`] with a telemetry registry attached to the
    /// rebuilt trainer (the handle itself is never checkpointed).
    ///
    /// # Errors
    ///
    /// Same as [`Self::resume_from`].
    pub fn resume_from_with_telemetry(
        data: &[u8],
        telemetry: Telemetry,
    ) -> Result<Self, TrainerError> {
        let ck = vc_nn::serialize::load_checkpoint_v2(data)?;
        let cfg: TrainerConfig = serde_json::from_str(&ck.meta).map_err(|_| {
            TrainerError::Checkpoint(CheckpointError::Inconsistent(
                "metadata is not a TrainerConfig",
            ))
        })?;
        let mut trainer = Trainer::with_telemetry(cfg, telemetry)?;
        trainer.restore_v2(data)?;
        Ok(trainer)
    }

    /// The trainer configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.cfg
    }

    /// Episodes trained so far.
    pub fn episodes_trained(&self) -> usize {
        self.episodes
    }

    /// Per-episode stats history (mean over employees).
    pub fn history(&self) -> &[EpisodeStats] {
        &self.history
    }

    /// The global policy network.
    pub fn net(&self) -> &ActorCritic {
        &self.net
    }

    /// The global parameter store.
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// The chief-side curiosity model (for Fig. 9 heat maps).
    pub fn curiosity(&self) -> &dyn Curiosity {
        self.curiosity.as_ref()
    }

    /// Diagnostics from the most recent update round (mean over employees):
    /// policy entropy, value loss, and the KL proxy.
    pub fn last_ppo_stats(&self) -> PpoStats {
        self.last_ppo_stats
    }

    fn broadcast(&mut self) -> Result<(), ChiefError> {
        let (store, curiosity) = (&self.store, &self.curiosity);
        let with_curiosity = self.curiosity_store_len != 0;
        self.executor.broadcast_params_with(|ppo, cur| {
            store.flat_values_into(ppo);
            if with_curiosity {
                curiosity.params().flat_values_into(cur);
            } else {
                cur.clear();
            }
        })
    }

    /// Writes one `"round"` line to the telemetry JSONL sink (the
    /// `round_timings.jsonl` schema): phase timings in milliseconds plus
    /// the round's health counters. No-op when telemetry is off.
    #[allow(clippy::too_many_arguments)] // flat timing record, not an API
    fn emit_round_event(
        &self,
        round: u64,
        gather_ms: f64,
        apply_ms: f64,
        broadcast_ms: f64,
        sync_ms: f64,
        report: &RoundReport,
    ) {
        if !self.telemetry.is_on() {
            return;
        }
        self.telemetry.event(
            "round",
            &[
                ("episode", Field::U64(self.episodes as u64)),
                ("round", Field::U64(round)),
                ("gather_ms", Field::F64(gather_ms)),
                ("apply_ms", Field::F64(apply_ms)),
                ("broadcast_ms", Field::F64(broadcast_ms)),
                ("sync_ms", Field::F64(sync_ms)),
                ("contributors", Field::U64(report.contributors as u64)),
                ("quarantined", Field::U64(report.quarantined.len() as u64)),
                ("failed", Field::U64(report.failed.len() as u64)),
                ("respawned", Field::U64(report.respawned.len() as u64)),
            ],
        );
    }

    /// The telemetry handle this trainer records into (disabled for
    /// [`Self::new`]-built trainers).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Scrapes the process-wide dense-kernel counters (`vc_nn`) into
    /// `nn_gemm_calls` / `nn_gemm_flops` gauges, plus the persistent-pool
    /// (`nn_pool_*`) and tensor-arena (`nn_arena_*`) health counters, so a
    /// Prometheus dump includes the kernel tallies. Call before
    /// [`Telemetry::prometheus`].
    pub fn publish_kernel_telemetry(&self) {
        if !self.telemetry.is_on() {
            return;
        }
        let k = vc_nn::prelude::kernel_counters();
        self.telemetry.gauge("nn_gemm_calls").set(k.gemm_calls as f64);
        self.telemetry.gauge("nn_gemm_flops").set(k.gemm_flops as f64);
        let p = vc_nn::prelude::pool_stats();
        self.telemetry.gauge("nn_pool_workers").set(p.workers as f64);
        self.telemetry.gauge("nn_pool_dispatches").set(p.dispatches as f64);
        self.telemetry.gauge("nn_pool_jobs_executed").set(p.jobs_executed as f64);
        self.telemetry.gauge("nn_pool_jobs_helped").set(p.jobs_helped as f64);
        self.telemetry.gauge("nn_pool_parks").set(p.parks as f64);
        let a = vc_nn::prelude::arena_stats();
        self.telemetry.gauge("nn_arena_hits").set(a.hits as f64);
        self.telemetry.gauge("nn_arena_misses").set(a.misses as f64);
        self.telemetry.gauge("nn_arena_held_bytes").set(a.held_bytes as f64);
    }

    /// One full episode of the chief–employee loop; returns the mean
    /// employee stats (over the employees that completed their rollout).
    ///
    /// Faults are absorbed, not fatal: panicked/hung employees are
    /// respawned within the restart budget, and an update round whose
    /// every contribution was quarantined is skipped rather than applying
    /// a zero (or poisoned) gradient.
    ///
    /// # Errors
    ///
    /// [`TrainerError::Chief`] when the executor hits an unrecoverable
    /// failure: restart budget exhausted, malformed gradients, protocol
    /// violation.
    pub fn train_episode(&mut self) -> Result<EpisodeStats, TrainerError> {
        let tel_on = self.telemetry.is_on();
        // Anneal the policy learning rate against the schedule horizon.
        let progress = self.episodes as f32 / self.cfg.schedule_horizon.max(1) as f32;
        self.ppo_opt.set_learning_rate(self.cfg.lr_schedule.at(self.cfg.ppo.lr, progress));
        self.broadcast()?;
        // Rollout is the synchronization barrier of the episode: the chief
        // blocks until every (surviving) employee has finished exploring.
        let sync_timer = tel_on.then(Instant::now);
        let rollout = self.executor.rollout_all()?;
        let sync_ms = sync_timer.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e3);
        for _k in 0..self.cfg.ppo.epochs {
            let round = self.rounds;
            let gather_timer = tel_on.then(Instant::now);
            self.executor.gather_grads_into(&mut self.report)?;
            let gather_ms = gather_timer.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e3);
            self.rounds += 1;
            let report = &self.report;
            if report.contributors == 0 {
                // Every warm employee died or was quarantined this round;
                // there is no gradient to apply.
                self.emit_round_event(round, gather_ms, 0.0, 0.0, sync_ms, report);
                continue;
            }
            self.last_ppo_stats = report.stats;
            let apply_timer = tel_on.then(Instant::now);
            // Average over the employees that actually contributed so the
            // step size is independent of (surviving) M.
            let m = report.contributors as f32;
            self.store.load_flat_grads_mean(&report.ppo, m);
            self.store.clip_grad_norm(self.cfg.ppo.max_grad_norm);
            self.ppo_opt.step(&mut self.store);

            if !report.curiosity.is_empty() {
                let cstore = self.curiosity.params_mut();
                cstore.load_flat_grads_mean(&report.curiosity, m);
                cstore.clip_grad_norm(self.cfg.ppo.max_grad_norm);
                self.curiosity_opt.step(cstore);
            }
            let apply_ms = apply_timer.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e3);
            let bc_timer = tel_on.then(Instant::now);
            self.broadcast()?;
            let broadcast_ms = bc_timer.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e3);
            if tel_on {
                self.telemetry
                    .histogram("trainer_apply_seconds", &vc_telemetry::SPAN_SECONDS_BOUNDS)
                    .observe(apply_ms / 1e3);
            }
            self.emit_round_event(round, gather_ms, apply_ms, broadcast_ms, sync_ms, &self.report);
        }
        self.episodes += 1;
        let mean = EpisodeStats::mean(&rollout.stats);
        self.history.push(mean);
        Ok(mean)
    }

    /// Trains for `episodes` episodes, returning per-episode mean stats.
    ///
    /// # Errors
    ///
    /// Stops at the first failing episode — see [`Self::train_episode`].
    pub fn train(&mut self, episodes: usize) -> Result<Vec<EpisodeStats>, TrainerError> {
        (0..episodes).map(|_| self.train_episode()).collect()
    }

    /// Warm-starts the global policy from a checkpoint written by
    /// [`Self::checkpoint_v2`]: copies only the policy parameters, leaving
    /// optimizer moments, RNG streams, counters and the curiosity model as
    /// they are (`vc_train --load-ckpt`). [`Self::restore_v2`] restores the
    /// full training state instead.
    ///
    /// # Errors
    ///
    /// [`TrainerError::Checkpoint`] on a corrupt checkpoint or one whose
    /// policy layout doesn't match this trainer; the parameters are left
    /// untouched.
    pub fn restore(&mut self, data: &[u8]) -> Result<(), TrainerError> {
        let ck = vc_nn::serialize::load_checkpoint_v2(data)?;
        self.load_policy(&ck.policy)
    }

    /// Copies `policy` into the global store after checking that it has
    /// this trainer's parameter layout.
    fn load_policy(&mut self, policy: &ParamStore) -> Result<(), TrainerError> {
        let same_layout = policy.len() == self.store.len()
            && policy
                .ids()
                .zip(self.store.ids())
                .all(|(a, b)| policy.value(a).shape() == self.store.value(b).shape());
        if !same_layout {
            return Err(TrainerError::Checkpoint(CheckpointError::Inconsistent(
                "policy shape doesn't match this trainer",
            )));
        }
        self.store.copy_values_from(policy);
        Ok(())
    }

    /// Global gradient gather rounds completed so far.
    pub fn rounds_trained(&self) -> u64 {
        self.rounds
    }

    /// Employee respawns spent from the restart budget so far.
    pub fn restarts_used(&self) -> usize {
        self.executor.restarts_used()
    }

    /// Serializes the complete training state — both parameter stores,
    /// Adam moments, per-employee RNG streams, counters, and the trainer
    /// config as JSON metadata — in the durable v2 format (CRC32 footer).
    /// Pair with [`Self::resume_from`] / [`Self::restore_v2`].
    ///
    /// # Errors
    ///
    /// [`TrainerError::Chief`] when an employee fails to report its RNG
    /// state (and cannot be respawned).
    pub fn checkpoint_v2(&mut self) -> Result<Vec<u8>, TrainerError> {
        let rng_states = self.executor.snapshot_rngs()?;
        let (m, v) = self.ppo_opt.flat_moments();
        let ppo_opt = AdamState { t: self.ppo_opt.steps(), m, v };
        let (curiosity, curiosity_opt) = if self.curiosity_store_len == 0 {
            (None, None)
        } else {
            let (cm, cv) = self.curiosity_opt.flat_moments();
            (
                Some(self.curiosity.params().clone()),
                Some(AdamState { t: self.curiosity_opt.steps(), m: cm, v: cv }),
            )
        };
        let meta = serde_json::to_string(&self.cfg).map_err(|_| {
            TrainerError::Checkpoint(CheckpointError::Inconsistent(
                "trainer config failed to serialize",
            ))
        })?;
        let ck = TrainCheckpoint {
            policy: self.store.clone(),
            curiosity,
            ppo_opt,
            curiosity_opt,
            rng_states,
            episodes: self.episodes as u64,
            rounds: self.rounds,
            meta,
        };
        Ok(vc_nn::serialize::save_checkpoint_v2(&ck))
    }

    /// Restores the full training state captured by [`Self::checkpoint_v2`]
    /// into this (compatibly configured) trainer: parameters, optimizer
    /// moments, per-employee RNG streams, and the episode/round counters.
    ///
    /// # Errors
    ///
    /// [`TrainerError::Checkpoint`] on a corrupt checkpoint or one whose
    /// shapes don't match this trainer's models; [`TrainerError::Chief`]
    /// when the RNG streams can't be delivered to the employees.
    pub fn restore_v2(&mut self, data: &[u8]) -> Result<(), TrainerError> {
        let ck = vc_nn::serialize::load_checkpoint_v2(data)?;
        self.load_policy(&ck.policy)?;
        self.ppo_opt
            .restore_state(&self.store, ck.ppo_opt.t, &ck.ppo_opt.m, &ck.ppo_opt.v)
            .map_err(|_| {
                TrainerError::Checkpoint(CheckpointError::Inconsistent(
                    "ppo Adam moments don't match the policy",
                ))
            })?;
        if let (Some(cur), Some(copt)) = (&ck.curiosity, &ck.curiosity_opt) {
            if self.curiosity_store_len != 0 {
                if cur.num_scalars() != self.curiosity_store_len {
                    return Err(TrainerError::Checkpoint(CheckpointError::Inconsistent(
                        "curiosity shape doesn't match this trainer",
                    )));
                }
                self.curiosity.params_mut().copy_values_from(cur);
                let cstore = self.curiosity.params();
                self.curiosity_opt.restore_state(cstore, copt.t, &copt.m, &copt.v).map_err(
                    |_| {
                        TrainerError::Checkpoint(CheckpointError::Inconsistent(
                            "curiosity Adam moments don't match the model",
                        ))
                    },
                )?;
            }
        }
        if !ck.rng_states.is_empty() {
            self.executor.restore_rngs(&ck.rng_states)?;
        }
        self.episodes = ck.episodes as usize;
        self.rounds = ck.rounds;
        self.executor.set_round(ck.rounds);
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn tiny_trainer(curiosity: CuriosityChoice, reward: RewardMode, employees: usize) -> Trainer {
        let mut env = EnvConfig::tiny();
        env.horizon = 12;
        let mut cfg = TrainerConfig::drl_cews(env).quick();
        cfg.curiosity = curiosity;
        cfg.reward_mode = reward;
        cfg.num_employees = employees;
        Trainer::new(cfg).unwrap()
    }

    #[test]
    fn new_rejects_invalid_configs_with_typed_errors() {
        let mut env = EnvConfig::tiny();
        env.grid = 0;
        let err = match Trainer::new(TrainerConfig::drl_cews(env)) {
            Err(e) => e,
            Ok(_) => panic!("zero-grid config must be rejected"),
        };
        assert!(matches!(err, TrainerError::Env(EnvError::InvalidConfig(_))), "{err}");

        let mut cfg = TrainerConfig::drl_cews(EnvConfig::tiny()).quick();
        cfg.num_employees = 0;
        let err = match Trainer::new(cfg) {
            Err(e) => e,
            Ok(_) => panic!("zero-employee config must be rejected"),
        };
        assert_eq!(err, TrainerError::Chief(ChiefError::NoEmployees));
        // The chain is inspectable through std::error::Error::source.
        let src = std::error::Error::source(&err).map(ToString::to_string);
        assert_eq!(src.as_deref(), Some("need at least one employee"));
    }

    #[test]
    fn presets_match_paper_settings() {
        let cews = TrainerConfig::drl_cews(EnvConfig::paper_default());
        assert_eq!(cews.reward_mode, RewardMode::Sparse);
        assert_eq!(cews.num_employees, 8);
        assert_eq!(cews.curiosity, CuriosityChoice::paper_spatial());
        let dppo = TrainerConfig::dppo(EnvConfig::paper_default());
        assert_eq!(dppo.reward_mode, RewardMode::Dense);
        assert_eq!(dppo.curiosity, CuriosityChoice::None);
        assert_eq!(dppo.ppo.minibatch, 250);
        assert!(dppo.ppo.normalize_adv);
    }

    #[test]
    fn train_episode_produces_stats_and_moves_params() {
        let mut t = tiny_trainer(CuriosityChoice::paper_spatial(), RewardMode::Sparse, 2);
        let before = t.store().flat_values();
        let stats = t.train_episode().unwrap();
        assert_eq!(t.episodes_trained(), 1);
        assert!(stats.int_reward > 0.0, "spatial curiosity must pay out early");
        assert!((0.0..=1.0).contains(&stats.kappa));
        assert_ne!(t.store().flat_values(), before, "global params did not move");
        assert_eq!(t.history().len(), 1);
    }

    #[test]
    fn curiosity_params_are_trained_too() {
        let mut t = tiny_trainer(CuriosityChoice::paper_spatial(), RewardMode::Sparse, 2);
        let before = t.curiosity.params().flat_values();
        t.train_episode().unwrap();
        assert_ne!(t.curiosity.params().flat_values(), before, "curiosity params frozen");
    }

    #[test]
    fn dense_no_curiosity_variant_runs() {
        let mut t = tiny_trainer(CuriosityChoice::None, RewardMode::Dense, 2);
        let stats = t.train_episode().unwrap();
        assert_eq!(stats.int_reward, 0.0);
    }

    #[test]
    fn single_employee_works() {
        let mut t = tiny_trainer(CuriosityChoice::None, RewardMode::Sparse, 1);
        t.train(2).unwrap();
        assert_eq!(t.episodes_trained(), 2);
    }

    #[test]
    fn checkpoint_roundtrip_restores_policy() {
        let mut t = tiny_trainer(CuriosityChoice::None, RewardMode::Dense, 2);
        t.train_episode().unwrap();
        let ckpt = t.checkpoint_v2().unwrap();
        let saved = t.store().flat_values();
        t.train_episode().unwrap(); // diverge
        assert_ne!(t.store().flat_values(), saved);
        t.restore(&ckpt).unwrap();
        assert_eq!(t.store().flat_values(), saved);
    }

    #[test]
    fn rnd_and_icm_variants_run() {
        for choice in [
            CuriosityChoice::Rnd { eta: 0.3 },
            CuriosityChoice::Icm { eta: 0.3 },
            CuriosityChoice::Count { eta: 0.3 },
        ] {
            let mut t = tiny_trainer(choice, RewardMode::Sparse, 1);
            let stats = t.train_episode().unwrap();
            assert!(stats.int_reward > 0.0, "{} produced no intrinsic reward", choice.label());
        }
    }

    #[test]
    fn curiosity_labels() {
        assert_eq!(CuriosityChoice::paper_spatial().label(), "shared-embedding");
        assert_eq!(CuriosityChoice::None.label(), "none");
        assert_eq!(CuriosityChoice::Rnd { eta: 0.1 }.label(), "rnd");
    }
}
