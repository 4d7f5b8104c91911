//! The chief–employee distributed computational architecture (Section V-A,
//! Algorithms 1–2), hardened for long production-scale runs.
//!
//! One **chief** owns the global PPO and curiosity parameter stores and the
//! only optimizers. M **employee** threads each hold a local model copy and
//! a local environment. Training is *synchronous*: per update round `k`,
//! every employee computes gradients from its own experience and ships them
//! to the chief, which sums them through the global [`GradientBuffer`]s,
//! applies one Adam step per model, and broadcasts fresh parameters. (The
//! paper explicitly prefers this synchronous scheme over asynchronous
//! V-trace-style correction.)
//!
//! The paper assumes every employee survives every round. This executor does
//! not: employee round work runs under `std::panic::catch_unwind`, so a
//! panicking employee reports *why* it died instead of silently wedging the
//! barrier; a configurable round timeout declares hung employees dead; dead
//! employees are respawned from the current global parameter snapshot under
//! a bounded restart budget with exponential backoff; and gradient
//! contributions containing NaN/Inf are quarantined — dropped from the sum
//! with the divisor adjusted — instead of corrupting the global model. A
//! deterministic [`FaultPlan`] can inject panics, stalls and NaN gradients
//! at scripted rounds so every recovery path is exercised by seeded tests.
//!
//! The employee behavior is abstracted behind the [`Employee`] trait so the
//! same chief drives DRL-CEWS (PPO + curiosity), DPPO (PPO only) and Edics
//! (per-worker agents).
//!
//! All executor entry points are fallible: unrecoverable failures (exhausted
//! restart budget, protocol violations, malformed gradients) surface as
//! [`ChiefError`] instead of panicking inside library code (see DESIGN.md,
//! "Fault tolerance & resume").

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vc_telemetry::{Counter, Field, Histogram, Telemetry};

/// Errors surfaced by the chief–employee executor and its gradient buffers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChiefError {
    /// `ChiefExecutor::spawn` was called with an empty employee set.
    NoEmployees,
    /// The OS refused to spawn an employee thread.
    Spawn(String),
    /// An employee died (panicked, timed out, or closed its command channel)
    /// and no factory/budget was available to respawn it.
    EmployeeDied {
        /// Index of the dead employee.
        employee: usize,
        /// Why it died: the panic message, `"timed out after …"`, or
        /// `"command channel closed"`.
        reason: String,
    },
    /// An employee died and the restart budget was already spent.
    RestartBudgetExhausted {
        /// Index of the employee that could not be respawned.
        employee: usize,
        /// The configured total restart budget.
        budget: usize,
        /// Why the employee died this time.
        reason: String,
    },
    /// The shared reply channel closed: every employee thread is gone.
    ChannelClosed,
    /// A gradient contribution's length didn't match the accumulated sum.
    GradientLengthMismatch {
        /// Length of the running sum already in the buffer.
        expected: usize,
        /// Length of the offending contribution.
        got: usize,
    },
    /// A gather round completed with the wrong number of contributions in a
    /// buffer — some employee double-pushed or skipped its push.
    ContributionMismatch {
        /// Contributions the round should have produced.
        expected: usize,
        /// Contributions actually present in the buffer.
        got: usize,
        /// Which buffer disagreed (`"ppo"` or `"curiosity"`).
        buffer: &'static str,
    },
    /// An employee answered a phase with the wrong reply kind — the
    /// synchronous command/reply protocol was violated.
    UnexpectedReply {
        /// Index of the employee that sent the reply.
        employee: usize,
        /// The phase the chief was running (`"rollout"`, `"update"` or
        /// `"rng"`).
        during: &'static str,
    },
    /// A caller-provided state vector has the wrong cardinality (e.g. RNG
    /// states for a different employee count).
    StateMismatch {
        /// What kind of state disagreed.
        what: &'static str,
        /// Expected cardinality.
        expected: usize,
        /// Provided cardinality.
        got: usize,
    },
}

impl fmt::Display for ChiefError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChiefError::NoEmployees => write!(f, "need at least one employee"),
            ChiefError::Spawn(err) => write!(f, "failed to spawn employee thread: {err}"),
            ChiefError::EmployeeDied { employee, reason } => {
                write!(f, "employee {employee} died ({reason})")
            }
            ChiefError::RestartBudgetExhausted { employee, budget, reason } => {
                write!(
                    f,
                    "employee {employee} died ({reason}) with restart budget {budget} exhausted"
                )
            }
            ChiefError::ChannelClosed => write!(f, "reply channel closed: all employees are gone"),
            ChiefError::GradientLengthMismatch { expected, got } => {
                write!(
                    f,
                    "gradient length mismatch: buffer holds {expected}, contribution has {got}"
                )
            }
            ChiefError::ContributionMismatch { expected, got, buffer } => {
                write!(f, "{buffer} buffer finished a round with {got} contributions, expected {expected}")
            }
            ChiefError::UnexpectedReply { employee, during } => {
                write!(f, "employee {employee} sent the wrong reply kind during {during}")
            }
            ChiefError::StateMismatch { what, expected, got } => {
                write!(f, "{what} state count mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for ChiefError {}

// ------------------------------------------------------------ fault plans

/// What a scripted fault does to the targeted employee.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Panic inside the update-round work (exercises `catch_unwind` +
    /// respawn).
    Panic,
    /// Swallow this and the next `rounds - 1` update commands without
    /// replying (exercises the round timeout + respawn).
    Stall {
        /// Number of consecutive update rounds to stay silent for.
        rounds: u64,
    },
    /// Replace every PPO gradient component with NaN (exercises
    /// quarantine).
    NanGrads,
}

/// One scripted fault: `kind` fires on `employee` at update round `round`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Target employee index.
    pub employee: usize,
    /// Global update-round counter value at which the fault fires.
    pub round: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic fault-injection script, threaded through [`ChiefConfig`]
/// into every employee thread. Empty by default (no faults).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scripted faults, in no particular order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn none() -> Self {
        Self::default()
    }

    /// True when no faults are scripted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds one scripted fault (builder-style).
    pub fn with(mut self, employee: usize, round: u64, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { employee, round, kind });
        self
    }

    /// The fault scripted for `employee` at `round`, if any.
    pub fn at(&self, employee: usize, round: u64) -> Option<FaultKind> {
        self.events.iter().find(|e| e.employee == employee && e.round == round).map(|e| e.kind)
    }
}

/// Fault-tolerance policy for a [`ChiefExecutor`].
#[derive(Clone, Debug)]
pub struct ChiefConfig {
    /// How long a gather phase waits for stragglers before declaring the
    /// missing employees dead. `None` waits forever (a hung employee then
    /// wedges the barrier, as in the paper's idealized scheme).
    pub round_timeout: Option<Duration>,
    /// Total employee respawns allowed across the executor's lifetime; once
    /// spent, the next death is fatal
    /// ([`ChiefError::RestartBudgetExhausted`]).
    pub restart_budget: usize,
    /// Base of the per-employee exponential respawn backoff: restart `n` of
    /// one employee sleeps a jittered `backoff_base * 2^n` (capped) — see
    /// [`jittered_backoff`] for the exact schedule.
    pub backoff_base: Duration,
    /// Upper bound on one backoff sleep.
    pub backoff_cap: Duration,
    /// Seed of the backoff-jitter stream. Plain exponential backoff
    /// synchronizes restart storms: several employees dying in the same
    /// round would otherwise all sleep the identical `base * 2^n` and
    /// respawn (and, under a shared-cause failure, die again) in lockstep.
    /// Mixing a per-chief seeded stream into every sleep decorrelates them
    /// while keeping the schedule deterministic for a given seed.
    pub backoff_seed: u64,
    /// Deterministic fault-injection script (empty in production).
    pub faults: FaultPlan,
}

impl Default for ChiefConfig {
    fn default() -> Self {
        Self {
            round_timeout: None,
            restart_budget: 0,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(5),
            backoff_seed: 0xBAC0_FF5E,
            faults: FaultPlan::none(),
        }
    }
}

/// The decorrelated respawn backoff: restart `n` sleeps uniformly in
/// `[target/2, target]` where `target = min(base * 2^min(n,16), cap)`.
///
/// The deterministic upper half of the exponential window preserves the
/// budget-exhaustion pacing the chaos suite relies on, while the seeded
/// uniform draw spreads simultaneous respawns across half a window so a
/// multi-employee death does not restart (and re-fail) in lockstep.
pub fn jittered_backoff(
    base: Duration,
    cap: Duration,
    restarts: usize,
    rng: &mut StdRng,
) -> Duration {
    let exponent = restarts.min(16) as u32;
    let target = base.saturating_mul(2u32.saturating_pow(exponent)).min(cap);
    if target.is_zero() {
        return target;
    }
    let target_ns = target.as_nanos().min(u128::from(u64::MAX)) as u64;
    let half = target_ns / 2;
    // One draw per sleep, consumed even when half == 0 so the stream
    // position is independent of the duration values.
    let jitter = rng.gen_range(0..half + 1);
    Duration::from_nanos(half + jitter)
}

// -------------------------------------------------------------- data types

/// Flat gradient vectors for the two global models. An empty curiosity
/// vector means the employee trains no curiosity model.
#[derive(Clone, Debug, Default)]
pub struct GradPair {
    /// Flat gradient of the global PPO (actor-critic) parameters.
    pub ppo: Vec<f32>,
    /// Flat gradient of the global curiosity parameters (may be empty).
    pub curiosity: Vec<f32>,
    /// Diagnostics from the minibatch that produced `ppo` (entropy, value
    /// loss, KL proxy), aggregated by the chief for training telemetry.
    pub stats: crate::ppo::PpoStats,
}

impl GradPair {
    /// True when any gradient component is NaN or ±Inf — such contributions
    /// are quarantined by the chief rather than summed.
    pub fn has_non_finite(&self) -> bool {
        self.ppo.iter().chain(self.curiosity.iter()).any(|x| !x.is_finite())
    }
}

/// Per-episode summary an employee reports after its rollout.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EpisodeStats {
    /// Data collection ratio κ at episode end.
    pub kappa: f32,
    /// Remaining data ratio ξ at episode end.
    pub xi: f32,
    /// Energy efficiency ρ at episode end.
    pub rho: f32,
    /// Summed extrinsic reward over the episode.
    pub ext_reward: f32,
    /// Summed intrinsic (curiosity) reward over the episode.
    pub int_reward: f32,
    /// Total obstacle collisions across workers.
    pub collisions: u32,
}

impl EpisodeStats {
    /// Element-wise mean of a set of stats (chief-side aggregation).
    ///
    /// The integer `collisions` field rounds half-up rather than truncating,
    /// so a mean of 4.33 reports 4 and a mean of 3.5 reports 4 — truncation
    /// systematically under-reported collision counts.
    pub fn mean(stats: &[EpisodeStats]) -> EpisodeStats {
        if stats.is_empty() {
            return EpisodeStats::default();
        }
        let n = stats.len() as f32;
        EpisodeStats {
            kappa: stats.iter().map(|s| s.kappa).sum::<f32>() / n,
            xi: stats.iter().map(|s| s.xi).sum::<f32>() / n,
            rho: stats.iter().map(|s| s.rho).sum::<f32>() / n,
            ext_reward: stats.iter().map(|s| s.ext_reward).sum::<f32>() / n,
            int_reward: stats.iter().map(|s| s.int_reward).sum::<f32>() / n,
            collisions: (stats.iter().map(|s| s.collisions).sum::<u32>() as f32 / n).round() as u32,
        }
    }
}

/// An employee thread's workload: one local model + environment.
pub trait Employee: Send + 'static {
    /// Copies fresh global parameters into the local models (Algorithm 1,
    /// line 22). `curiosity` is empty when no curiosity model exists.
    fn load_params(&mut self, ppo: &[f32], curiosity: &[f32]);

    /// Interacts with the local environment for one episode, storing
    /// experience (Algorithm 1, lines 4–15).
    fn rollout(&mut self) -> EpisodeStats;

    /// One update round: sample a minibatch, compute gradients w.r.t. the
    /// local models, and return them flat (Algorithm 1, lines 18–20).
    fn compute_grads(&mut self) -> GradPair;

    /// The employee's RNG stream state, for durable checkpoints that resume
    /// bit-exactly. The default (all zeros) opts out of RNG persistence.
    fn snapshot_rng(&self) -> [u64; 4] {
        [0; 4]
    }

    /// Restores an RNG stream captured by [`Self::snapshot_rng`]. The
    /// default is a no-op for employees without a persisted stream.
    fn restore_rng(&mut self, _state: [u64; 4]) {}
}

/// A flat-gradient accumulator — the "PPO gradient buffer" / "curiosity
/// gradient buffer" of Fig. 1. Employees ship gradients over the reply
/// channel; only the chief thread touches the buffers. The sum's
/// allocation is reused from round to round.
#[derive(Debug, Default)]
pub struct GradientBuffer {
    sum: Vec<f32>,
    contributions: usize,
}

impl GradientBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one employee's flat gradient.
    ///
    /// The first contribution after a [`Self::take_into`] fixes the
    /// expected length; later contributions of a different length are
    /// rejected with [`ChiefError::GradientLengthMismatch`] and leave the
    /// buffer unchanged.
    pub fn accumulate(&mut self, grads: &[f32]) -> Result<(), ChiefError> {
        if self.contributions == 0 {
            self.sum.clear();
            self.sum.extend_from_slice(grads);
        } else {
            if self.sum.len() != grads.len() {
                return Err(ChiefError::GradientLengthMismatch {
                    expected: self.sum.len(),
                    got: grads.len(),
                });
            }
            for (s, &g) in self.sum.iter_mut().zip(grads) {
                *s += g;
            }
        }
        self.contributions += 1;
        Ok(())
    }

    /// Number of gradients accumulated since the last [`Self::take_into`].
    pub fn contributions(&self) -> usize {
        self.contributions
    }

    /// Drains the buffer: swaps the summed gradient (empty if nothing was
    /// accumulated) into `out`, and keeps `out`'s former allocation as the
    /// buffer for the next round.
    pub fn take_into(&mut self, out: &mut Vec<f32>) {
        if self.contributions == 0 {
            self.sum.clear();
        }
        std::mem::swap(&mut self.sum, out);
        self.contributions = 0;
    }
}

// ---------------------------------------------------------------- protocol

enum Cmd {
    LoadParams(Arc<(Vec<f32>, Vec<f32>)>),
    Rollout,
    ComputeGrads { round: u64 },
    SnapshotRng,
    RestoreRng([u64; 4]),
    Stop,
}

enum Reply {
    RolloutDone(EpisodeStats),
    /// The employee's gradients for this round, shipped to the chief for
    /// accumulation (the chief owns the Fig.-1 gradient buffers).
    GradsDone(GradPair),
    /// The employee's round work panicked; carries the phase and the panic
    /// payload rendered as a string.
    Panicked {
        during: &'static str,
        message: String,
    },
    RngState([u64; 4]),
}

/// Extracts a human-readable message from a panic payload: `String` and
/// `&str` payloads verbatim, anything else `"<non-string panic>"`.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_owned()
    }
}

/// The employee thread body: a command loop whose round work is wrapped in
/// `catch_unwind`, with deterministic fault injection from the shared
/// [`FaultPlan`]. On a caught panic the thread reports [`Reply::Panicked`]
/// and exits; the chief respawns a replacement.
fn run_employee(
    mut emp: Box<dyn Employee>,
    index: usize,
    generation: u64,
    cmd_rx: Receiver<Cmd>,
    reply_tx: SyncSender<(usize, u64, Reply)>,
    faults: Arc<FaultPlan>,
) {
    let mut stalled_rounds = 0u64;
    while let Ok(cmd) = cmd_rx.recv() {
        match cmd {
            Cmd::LoadParams(p) => emp.load_params(&p.0, &p.1),
            Cmd::Rollout => match catch_unwind(AssertUnwindSafe(|| emp.rollout())) {
                Ok(stats) => {
                    let _ = reply_tx.send((index, generation, Reply::RolloutDone(stats)));
                }
                Err(payload) => {
                    let message = panic_message(payload.as_ref());
                    let _ = reply_tx.send((
                        index,
                        generation,
                        Reply::Panicked { during: "rollout", message },
                    ));
                    return;
                }
            },
            Cmd::ComputeGrads { round } => {
                if stalled_rounds > 0 {
                    // Mid-stall: swallow the command without replying; the
                    // chief's round timeout will declare this employee dead.
                    stalled_rounds -= 1;
                    continue;
                }
                let fault = faults.at(index, round);
                if let Some(FaultKind::Stall { rounds }) = fault {
                    stalled_rounds = rounds.saturating_sub(1);
                    continue;
                }
                let work = catch_unwind(AssertUnwindSafe(|| {
                    if fault == Some(FaultKind::Panic) {
                        panic!("injected fault: employee {index} panicked at round {round}");
                    }
                    let mut grads = emp.compute_grads();
                    if fault == Some(FaultKind::NanGrads) {
                        for g in &mut grads.ppo {
                            *g = f32::NAN;
                        }
                    }
                    grads
                }));
                match work {
                    Ok(grads) => {
                        let _ = reply_tx.send((index, generation, Reply::GradsDone(grads)));
                    }
                    Err(payload) => {
                        let message = panic_message(payload.as_ref());
                        let _ = reply_tx.send((
                            index,
                            generation,
                            Reply::Panicked { during: "update", message },
                        ));
                        return;
                    }
                }
            }
            Cmd::SnapshotRng => {
                let _ = reply_tx.send((index, generation, Reply::RngState(emp.snapshot_rng())));
            }
            Cmd::RestoreRng(state) => emp.restore_rng(state),
            Cmd::Stop => return,
        }
    }
}

// --------------------------------------------------------------- executor

/// One employee's chief-side bookkeeping.
struct EmployeeSlot {
    /// `None` while the employee is dead (dropping the sender lets a
    /// stalled thread observe the closed channel and exit).
    cmd_tx: Option<SyncSender<Cmd>>,
    join: Option<JoinHandle<()>>,
    /// Bumped on every respawn; replies from older generations are stale
    /// and ignored.
    generation: u64,
    /// Times this slot has been respawned (drives the backoff exponent).
    restarts: usize,
    /// Completed a rollout since its last (re)spawn — cold employees have
    /// no experience buffer and sit out gather rounds until the next
    /// rollout phase.
    warm: bool,
    /// Why the employee is currently dead, when it is.
    dead: Option<String>,
}

impl EmployeeSlot {
    fn is_alive(&self) -> bool {
        self.dead.is_none()
    }
}

/// What one fault-tolerant gather round produced.
#[derive(Clone, Debug, Default)]
pub struct RoundReport {
    /// Summed PPO gradients over healthy contributors (empty when nobody
    /// contributed — the caller should skip the optimizer step).
    pub ppo: Vec<f32>,
    /// Summed curiosity gradients (empty when unused or nobody contributed).
    pub curiosity: Vec<f32>,
    /// Mean minibatch diagnostics over healthy contributors.
    pub stats: crate::ppo::PpoStats,
    /// Healthy gradient contributions in the sums — the divisor for
    /// employee averaging (quarantined and dead employees excluded).
    pub contributors: usize,
    /// Employees whose gradients contained NaN/Inf and were dropped.
    pub quarantined: Vec<usize>,
    /// Employees that died this round (panic, timeout, closed channel).
    pub failed: Vec<usize>,
    /// Employees respawned at the end of this round.
    pub respawned: Vec<usize>,
}

/// What one fault-tolerant rollout phase produced.
#[derive(Clone, Debug, Default)]
pub struct RolloutReport {
    /// Stats of employees that completed their rollout, ordered by
    /// employee index.
    pub stats: Vec<EpisodeStats>,
    /// Employees that died during the rollout phase.
    pub failed: Vec<usize>,
    /// Employees respawned at the end of the phase (cold until the next
    /// rollout).
    pub respawned: Vec<usize>,
}

type EmployeeFactory = Box<dyn FnMut(usize) -> Box<dyn Employee> + Send>;

/// Gradient-norm bucket bounds: spans healthy pre-clip norms (~0.01..10)
/// plus an explosion tail; non-finite norms land in the overflow bucket.
const GRAD_NORM_BOUNDS: [f64; 10] = [1e-3, 1e-2, 0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0];

/// Telemetry handles cached at attach time so per-round recording never
/// touches the registry lock (see `vc_telemetry`'s overhead policy).
struct ChiefTelemetry {
    handle: Telemetry,
    rounds: Arc<Counter>,
    quarantined: Arc<Counter>,
    restarts: Arc<Counter>,
    failures: Arc<Counter>,
    gather_seconds: Arc<Histogram>,
    rollout_seconds: Arc<Histogram>,
    broadcast_seconds: Arc<Histogram>,
    /// One histogram per employee slot: `chief_grad_norm_employee_<i>`.
    grad_norm: Vec<Arc<Histogram>>,
}

/// L2 norm of a gradient vector, accumulated in f64.
fn grad_l2_norm(g: &[f32]) -> f64 {
    g.iter().map(|&x| f64::from(x) * f64::from(x)).sum::<f64>().sqrt()
}

/// Drives M employee threads through synchronized rollout / update rounds,
/// containing panics, declaring stragglers dead, quarantining non-finite
/// gradients, and respawning dead employees within a restart budget.
///
/// The chief does not know what model the employees run; it only moves flat
/// parameter and gradient vectors. The caller owns the global stores and
/// optimizers and provides the summed-gradient application as a closure.
pub struct ChiefExecutor {
    slots: Vec<EmployeeSlot>,
    reply_rx: Receiver<(usize, u64, Reply)>,
    /// Kept alive (and cloned into respawned threads) so the reply channel
    /// never disconnects while the chief lives.
    reply_tx: SyncSender<(usize, u64, Reply)>,
    ppo_buffer: GradientBuffer,
    curiosity_buffer: GradientBuffer,
    cfg: ChiefConfig,
    faults: Arc<FaultPlan>,
    factory: Option<EmployeeFactory>,
    /// Last broadcast parameter snapshot; respawned employees are seeded
    /// from it.
    snapshot: Option<Arc<(Vec<f32>, Vec<f32>)>>,
    /// The snapshot before it, refilled by a broadcast that finds the last
    /// one still queued for an employee.
    spare: Option<Arc<(Vec<f32>, Vec<f32>)>>,
    /// Global update-round counter (drives fault injection and resume).
    round: u64,
    /// Respawns spent from the restart budget.
    restarts_used: usize,
    /// Seeded jitter stream decorrelating respawn backoffs (see
    /// [`jittered_backoff`]).
    backoff_rng: StdRng,
    /// Cached telemetry handles; `None` until [`ChiefExecutor::set_telemetry`].
    telemetry: Option<ChiefTelemetry>,
}

impl ChiefExecutor {
    /// Spawns one thread per pre-built employee, with no respawn capability
    /// (first death is fatal) and no timeout — the paper's idealized
    /// executor. Use [`Self::spawn_with`] for fault tolerance.
    ///
    /// # Errors
    ///
    /// [`ChiefError::NoEmployees`] for an empty set, [`ChiefError::Spawn`]
    /// when the OS refuses a thread.
    pub fn spawn<E: Employee>(employees: Vec<E>) -> Result<Self, ChiefError> {
        if employees.is_empty() {
            return Err(ChiefError::NoEmployees);
        }
        Self::build(
            employees.into_iter().map(|e| Box::new(e) as Box<dyn Employee>).collect(),
            None,
            ChiefConfig::default(),
        )
    }

    /// Spawns `count` employees from `factory` under the fault-tolerance
    /// policy in `cfg`. The factory is retained and re-invoked to build
    /// replacements for dead employees.
    ///
    /// # Errors
    ///
    /// [`ChiefError::NoEmployees`] when `count == 0`, [`ChiefError::Spawn`]
    /// when the OS refuses a thread.
    pub fn spawn_with<F>(count: usize, mut factory: F, cfg: ChiefConfig) -> Result<Self, ChiefError>
    where
        F: FnMut(usize) -> Box<dyn Employee> + Send + 'static,
    {
        if count == 0 {
            return Err(ChiefError::NoEmployees);
        }
        let employees: Vec<Box<dyn Employee>> = (0..count).map(&mut factory).collect();
        Self::build(employees, Some(Box::new(factory)), cfg)
    }

    fn build(
        employees: Vec<Box<dyn Employee>>,
        factory: Option<EmployeeFactory>,
        cfg: ChiefConfig,
    ) -> Result<Self, ChiefError> {
        let count = employees.len();
        let faults = Arc::new(cfg.faults.clone());
        let (reply_tx, reply_rx) = sync_channel::<(usize, u64, Reply)>((count * 4).max(16));
        let mut slots = Vec::with_capacity(count);
        for (i, emp) in employees.into_iter().enumerate() {
            let (cmd_tx, join) = spawn_thread(emp, i, 0, reply_tx.clone(), Arc::clone(&faults))?;
            slots.push(EmployeeSlot {
                cmd_tx: Some(cmd_tx),
                join: Some(join),
                generation: 0,
                restarts: 0,
                warm: false,
                dead: None,
            });
        }
        let backoff_rng = StdRng::seed_from_u64(cfg.backoff_seed);
        Ok(Self {
            slots,
            reply_rx,
            reply_tx,
            ppo_buffer: GradientBuffer::new(),
            curiosity_buffer: GradientBuffer::new(),
            cfg,
            faults,
            factory,
            snapshot: None,
            spare: None,
            round: 0,
            restarts_used: 0,
            backoff_rng,
            telemetry: None,
        })
    }

    /// Attaches a telemetry registry, pre-resolving every metric handle the
    /// chief records into. With a disabled handle the only per-round cost
    /// is one relaxed atomic load per instrumentation site.
    pub fn set_telemetry(&mut self, handle: Telemetry) {
        let span_bounds = &vc_telemetry::SPAN_SECONDS_BOUNDS;
        let grad_norm = (0..self.slots.len())
            .map(|i| handle.histogram(&format!("chief_grad_norm_employee_{i}"), &GRAD_NORM_BOUNDS))
            .collect();
        self.telemetry = Some(ChiefTelemetry {
            rounds: handle.counter("chief_rounds_total"),
            quarantined: handle.counter("chief_quarantined_total"),
            restarts: handle.counter("chief_restarts_total"),
            failures: handle.counter("chief_employee_failures_total"),
            gather_seconds: handle.histogram("chief_gather_seconds", span_bounds),
            rollout_seconds: handle.histogram("chief_rollout_seconds", span_bounds),
            broadcast_seconds: handle.histogram("chief_broadcast_seconds", span_bounds),
            grad_norm,
            handle,
        });
    }

    /// The attached telemetry, only when it is currently enabled.
    fn tel(&self) -> Option<&ChiefTelemetry> {
        self.telemetry.as_ref().filter(|t| t.handle.is_on())
    }

    /// Number of employees.
    pub fn num_employees(&self) -> usize {
        self.slots.len()
    }

    /// Global update-round counter (the `round` axis of [`FaultPlan`]).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Overrides the update-round counter (used when resuming a run from a
    /// durable checkpoint so scripted faults and telemetry stay aligned).
    pub fn set_round(&mut self, round: u64) {
        self.round = round;
    }

    /// Respawns spent from [`ChiefConfig::restart_budget`] so far.
    pub fn restarts_used(&self) -> usize {
        self.restarts_used
    }

    /// Marks an employee dead: its command channel is dropped (a stalled
    /// thread then observes the closed channel and exits) and its join
    /// handle detached (never block the chief on a hung thread).
    fn mark_dead(&mut self, employee: usize, reason: String) {
        let slot = &mut self.slots[employee];
        if slot.dead.is_some() {
            return;
        }
        slot.cmd_tx = None;
        drop(slot.join.take()); // detach
        slot.warm = false;
        slot.dead = Some(reason);
    }

    /// Respawns every currently dead employee from the factory, charging
    /// the restart budget and sleeping the exponential backoff. Returns the
    /// respawned indices.
    ///
    /// # Errors
    ///
    /// [`ChiefError::EmployeeDied`] when no factory exists (executor built
    /// via [`Self::spawn`]), [`ChiefError::RestartBudgetExhausted`] when
    /// the budget is spent, [`ChiefError::Spawn`] when the OS refuses a
    /// thread.
    fn respawn_dead(&mut self) -> Result<Vec<usize>, ChiefError> {
        let dead: Vec<usize> =
            (0..self.slots.len()).filter(|&i| !self.slots[i].is_alive()).collect();
        let mut respawned = Vec::new();
        for i in dead {
            let reason = self.slots[i].dead.clone().unwrap_or_else(|| "unknown".to_owned());
            if self.factory.is_none() {
                return Err(ChiefError::EmployeeDied { employee: i, reason });
            }
            if self.restarts_used >= self.cfg.restart_budget {
                return Err(ChiefError::RestartBudgetExhausted {
                    employee: i,
                    budget: self.cfg.restart_budget,
                    reason,
                });
            }
            let backoff = jittered_backoff(
                self.cfg.backoff_base,
                self.cfg.backoff_cap,
                self.slots[i].restarts,
                &mut self.backoff_rng,
            );
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            let generation = self.slots[i].generation + 1;
            let emp = match self.factory.as_mut() {
                Some(f) => f(i),
                None => return Err(ChiefError::EmployeeDied { employee: i, reason }),
            };
            let (cmd_tx, join) =
                spawn_thread(emp, i, generation, self.reply_tx.clone(), Arc::clone(&self.faults))?;
            // Seed the replacement from the current global snapshot so it
            // rejoins at the chief's parameters, not at init.
            if let Some(snap) = &self.snapshot {
                let _ = cmd_tx.send(Cmd::LoadParams(Arc::clone(snap)));
            }
            let slot = &mut self.slots[i];
            slot.cmd_tx = Some(cmd_tx);
            slot.join = Some(join);
            slot.generation = generation;
            slot.restarts += 1;
            slot.warm = false;
            slot.dead = None;
            self.restarts_used += 1;
            respawned.push(i);
            if let Some(t) = self.tel() {
                t.restarts.inc();
                t.handle.event(
                    "chief_restart",
                    &[
                        ("employee", Field::U64(i as u64)),
                        ("round", Field::U64(self.round)),
                        ("reason", Field::Str(&reason)),
                    ],
                );
            }
        }
        Ok(respawned)
    }

    /// Broadcasts fresh global parameters to every employee (fire-and-forget;
    /// the next synchronized phase orders it before use). The snapshot is
    /// cached so respawned employees can be seeded from it. Employees whose
    /// command channel is closed are declared dead and respawned.
    ///
    /// # Errors
    ///
    /// The respawn errors of [`ChiefError`] when a dead employee cannot be
    /// replaced.
    pub fn broadcast_params(
        &mut self,
        ppo: Vec<f32>,
        curiosity: Vec<f32>,
    ) -> Result<(), ChiefError> {
        self.broadcast_params_with(|p, c| {
            *p = ppo;
            *c = curiosity;
        })
    }

    /// [`Self::broadcast_params`] with the snapshot written by `fill(ppo,
    /// curiosity)`. Employees drop their clone of a snapshot once they have
    /// loaded it, so `fill` normally rewrites the last snapshot's buffers in
    /// place. When an employee still holds it (two broadcasts with no
    /// employee reply between them), the one before it is refilled instead;
    /// a fresh snapshot is built only when both are held.
    ///
    /// # Errors
    ///
    /// As [`Self::broadcast_params`].
    pub fn broadcast_params_with(
        &mut self,
        fill: impl FnOnce(&mut Vec<f32>, &mut Vec<f32>),
    ) -> Result<(), ChiefError> {
        let timer = self.tel().map(|_| Instant::now());
        let unshared = |s: &Arc<_>| Arc::strong_count(s) == 1;
        let (mut shared, spare) = match self.snapshot.take() {
            Some(last) if unshared(&last) => (last, self.spare.take()),
            last => (self.spare.take().filter(unshared).unwrap_or_default(), last),
        };
        self.spare = spare;
        // Unshared (or fresh), so `make_mut` never clones here.
        let (ppo, curiosity) = Arc::make_mut(&mut shared);
        fill(ppo, curiosity);
        self.snapshot = Some(Arc::clone(&shared));
        for i in 0..self.slots.len() {
            let sent = match &self.slots[i].cmd_tx {
                Some(tx) => tx.send(Cmd::LoadParams(Arc::clone(&shared))).is_ok(),
                None => false,
            };
            if !sent && self.slots[i].is_alive() {
                self.mark_dead(i, "command channel closed".to_owned());
            }
        }
        self.respawn_dead()?;
        if let (Some(t), Some(start)) = (self.tel(), timer) {
            t.broadcast_seconds.observe(start.elapsed().as_secs_f64());
        }
        Ok(())
    }

    /// Sends one command to every matching live slot; returns the indices
    /// awaiting a reply. Slots whose channel is closed are declared dead.
    fn send_phase(&mut self, make_cmd: impl Fn() -> Cmd, warm_only: bool) -> Vec<bool> {
        let mut pending = vec![false; self.slots.len()];
        for (i, pend) in pending.iter_mut().enumerate() {
            if !self.slots[i].is_alive() || (warm_only && !self.slots[i].warm) {
                continue;
            }
            let sent = match &self.slots[i].cmd_tx {
                Some(tx) => tx.send(make_cmd()).is_ok(),
                None => false,
            };
            if sent {
                *pend = true;
            } else {
                self.mark_dead(i, "command channel closed".to_owned());
            }
        }
        pending
    }

    /// Receives the next reply within the phase deadline. `Ok(None)` means
    /// the deadline expired.
    fn recv_deadline(
        &self,
        deadline: Option<Instant>,
    ) -> Result<Option<(usize, u64, Reply)>, ChiefError> {
        match deadline {
            None => match self.reply_rx.recv() {
                Ok(m) => Ok(Some(m)),
                Err(_) => Err(ChiefError::ChannelClosed),
            },
            Some(d) => {
                let now = Instant::now();
                if now >= d {
                    return Ok(None);
                }
                Ok(self.reply_rx.recv_timeout(d - now).ok())
            }
        }
    }

    /// Runs one episode rollout on every live employee in parallel.
    /// Panicked or timed-out employees are declared dead and respawned
    /// (cold: they sit out update rounds until the next rollout phase).
    ///
    /// # Errors
    ///
    /// [`ChiefError::UnexpectedReply`] on a protocol violation, or the
    /// respawn errors when a dead employee cannot be replaced.
    pub fn rollout_all(&mut self) -> Result<RolloutReport, ChiefError> {
        let timer = self.tel().map(|_| Instant::now());
        let mut pending = self.send_phase(|| Cmd::Rollout, false);
        let deadline = self.cfg.round_timeout.map(|t| Instant::now() + t);
        let mut collected: Vec<(usize, EpisodeStats)> = Vec::new();
        let mut failed = Vec::new();
        while pending.iter().any(|&p| p) {
            let Some((i, gen, reply)) = self.recv_deadline(deadline)? else {
                break; // deadline expired; stragglers are handled below
            };
            if self.slots.get(i).is_none_or(|s| s.generation != gen) || !pending[i] {
                continue; // stale reply from an abandoned generation
            }
            match reply {
                Reply::RolloutDone(stats) => {
                    pending[i] = false;
                    self.slots[i].warm = true;
                    collected.push((i, stats));
                }
                Reply::Panicked { during, message } => {
                    pending[i] = false;
                    failed.push(i);
                    self.mark_dead(i, format!("panicked during {during}: {message}"));
                }
                Reply::GradsDone(_) | Reply::RngState(_) => {
                    return Err(ChiefError::UnexpectedReply { employee: i, during: "rollout" });
                }
            }
        }
        let stragglers: Vec<usize> =
            pending.iter().enumerate().filter(|&(_, &p)| p).map(|(i, _)| i).collect();
        for i in stragglers {
            failed.push(i);
            let t = self.cfg.round_timeout.unwrap_or_default();
            self.mark_dead(i, format!("timed out after {t:?} in rollout"));
        }
        let respawned = self.respawn_dead()?;
        collected.sort_by_key(|&(i, _)| i);
        failed.sort_unstable();
        if let (Some(t), Some(start)) = (self.tel(), timer) {
            t.failures.add(failed.len() as u64);
            t.rollout_seconds.observe(start.elapsed().as_secs_f64());
        }
        Ok(RolloutReport {
            stats: collected.into_iter().map(|(_, s)| s).collect(),
            failed,
            respawned,
        })
    }

    /// Runs one gradient round on every warm employee and returns the
    /// summed gradients plus diagnostics once every healthy contribution is
    /// in (Algorithm 2, lines 3–5). Non-finite contributions are
    /// quarantined; panicked and timed-out employees are declared dead and
    /// respawned after the round.
    ///
    /// # Errors
    ///
    /// [`ChiefError::GradientLengthMismatch`] /
    /// [`ChiefError::ContributionMismatch`] on malformed gradients (layout
    /// bugs, not faults), [`ChiefError::UnexpectedReply`] on protocol
    /// violations, and the respawn errors when a dead employee cannot be
    /// replaced. Either way the buffers are drained, so a failed round
    /// never poisons the next one.
    pub fn gather_grads(&mut self) -> Result<RoundReport, ChiefError> {
        let mut report = RoundReport::default();
        self.gather_grads_into(&mut report)?;
        Ok(report)
    }

    /// [`Self::gather_grads`] into a caller-kept report, whose two
    /// gradient vectors trade allocations with the gradient buffers, so a
    /// chief that keeps one report allocates no gradient memory per round.
    /// On error the report holds a partial round.
    ///
    /// # Errors
    ///
    /// Same as [`Self::gather_grads`].
    pub fn gather_grads_into(&mut self, report: &mut RoundReport) -> Result<(), ChiefError> {
        let timer = self.tel().map(|_| Instant::now());
        let round = self.round;
        self.round += 1;
        let mut pending = self.send_phase(|| Cmd::ComputeGrads { round }, true);
        let deadline = self.cfg.round_timeout.map(|t| Instant::now() + t);
        *report = RoundReport {
            ppo: std::mem::take(&mut report.ppo),
            curiosity: std::mem::take(&mut report.curiosity),
            ..RoundReport::default()
        };
        let mut stats_sum = crate::ppo::PpoStats::default();
        let mut first_err: Option<ChiefError> = None;
        while pending.iter().any(|&p| p) {
            let msg = match self.recv_deadline(deadline) {
                Ok(m) => m,
                Err(e) => {
                    self.drain_buffers();
                    return Err(e);
                }
            };
            let Some((i, gen, reply)) = msg else {
                break; // deadline expired; stragglers are handled below
            };
            if self.slots.get(i).is_none_or(|s| s.generation != gen) || !pending[i] {
                continue; // stale reply from an abandoned generation
            }
            match reply {
                Reply::GradsDone(grads) => {
                    pending[i] = false;
                    if let Some(t) = self.tel() {
                        if let Some(h) = t.grad_norm.get(i) {
                            h.observe(grad_l2_norm(&grads.ppo));
                        }
                    }
                    if grads.has_non_finite() {
                        if let Some(t) = self.tel() {
                            t.quarantined.inc();
                        }
                        report.quarantined.push(i);
                        continue;
                    }
                    let accumulated = self.ppo_buffer.accumulate(&grads.ppo).and_then(|()| {
                        if grads.curiosity.is_empty() {
                            Ok(())
                        } else {
                            self.curiosity_buffer.accumulate(&grads.curiosity)
                        }
                    });
                    match accumulated {
                        Ok(()) => {
                            report.contributors += 1;
                            stats_sum.policy_objective += grads.stats.policy_objective;
                            stats_sum.value_loss += grads.stats.value_loss;
                            stats_sum.entropy += grads.stats.entropy;
                            stats_sum.approx_kl += grads.stats.approx_kl;
                        }
                        Err(e) => {
                            first_err.get_or_insert(e);
                        }
                    }
                }
                Reply::Panicked { during, message } => {
                    pending[i] = false;
                    report.failed.push(i);
                    self.mark_dead(i, format!("panicked during {during}: {message}"));
                }
                Reply::RolloutDone(_) | Reply::RngState(_) => {
                    first_err.get_or_insert(ChiefError::UnexpectedReply {
                        employee: i,
                        during: "update",
                    });
                    pending[i] = false;
                }
            }
        }
        let stragglers: Vec<usize> =
            pending.iter().enumerate().filter(|&(_, &p)| p).map(|(i, _)| i).collect();
        for i in stragglers {
            report.failed.push(i);
            let t = self.cfg.round_timeout.unwrap_or_default();
            self.mark_dead(i, format!("timed out after {t:?} in update round {round}"));
        }
        if let Some(e) = first_err {
            self.drain_buffers();
            return Err(e);
        }
        // Runtime invariant: exactly one PPO contribution per healthy
        // employee this round.
        let got = self.ppo_buffer.contributions();
        if got != report.contributors {
            let expected = report.contributors;
            self.drain_buffers();
            return Err(ChiefError::ContributionMismatch { expected, got, buffer: "ppo" });
        }
        report.respawned = self.respawn_dead()?;
        report.failed.sort_unstable();
        if report.contributors > 0 {
            let n = report.contributors as f32;
            report.stats = crate::ppo::PpoStats {
                policy_objective: stats_sum.policy_objective / n,
                value_loss: stats_sum.value_loss / n,
                entropy: stats_sum.entropy / n,
                approx_kl: stats_sum.approx_kl / n,
            };
        }
        self.ppo_buffer.take_into(&mut report.ppo);
        self.curiosity_buffer.take_into(&mut report.curiosity);
        if let (Some(t), Some(start)) = (self.tel(), timer) {
            t.rounds.inc();
            t.failures.add(report.failed.len() as u64);
            t.gather_seconds.observe(start.elapsed().as_secs_f64());
        }
        Ok(())
    }

    /// Collects every employee's RNG stream state (for durable
    /// checkpoints), ordered by employee index. Dead employees are
    /// respawned first so the snapshot always covers all M streams.
    ///
    /// # Errors
    ///
    /// [`ChiefError::EmployeeDied`] when an employee fails to answer within
    /// the round timeout, plus the respawn errors.
    pub fn snapshot_rngs(&mut self) -> Result<Vec<[u64; 4]>, ChiefError> {
        self.respawn_dead()?;
        let mut pending = self.send_phase(|| Cmd::SnapshotRng, false);
        let deadline = self.cfg.round_timeout.map(|t| Instant::now() + t);
        let mut states = vec![None; self.slots.len()];
        while pending.iter().any(|&p| p) {
            let Some((i, gen, reply)) = self.recv_deadline(deadline)? else {
                break;
            };
            if self.slots.get(i).is_none_or(|s| s.generation != gen) || !pending[i] {
                continue;
            }
            match reply {
                Reply::RngState(s) => {
                    pending[i] = false;
                    states[i] = Some(s);
                }
                Reply::Panicked { during, message } => {
                    pending[i] = false;
                    self.mark_dead(i, format!("panicked during {during}: {message}"));
                }
                _ => return Err(ChiefError::UnexpectedReply { employee: i, during: "rng" }),
            }
        }
        states
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                s.ok_or_else(|| ChiefError::EmployeeDied {
                    employee: i,
                    reason: "no RNG snapshot before the deadline".to_owned(),
                })
            })
            .collect()
    }

    /// Restores per-employee RNG streams captured by
    /// [`Self::snapshot_rngs`] (fire-and-forget; channel FIFO orders it
    /// before the next phase).
    ///
    /// # Errors
    ///
    /// [`ChiefError::StateMismatch`] when the state count differs from the
    /// employee count, plus the respawn errors for closed channels.
    pub fn restore_rngs(&mut self, states: &[[u64; 4]]) -> Result<(), ChiefError> {
        if states.len() != self.slots.len() {
            return Err(ChiefError::StateMismatch {
                what: "rng",
                expected: self.slots.len(),
                got: states.len(),
            });
        }
        for (i, &state) in states.iter().enumerate() {
            let sent = match &self.slots[i].cmd_tx {
                Some(tx) => tx.send(Cmd::RestoreRng(state)).is_ok(),
                None => false,
            };
            if !sent && self.slots[i].is_alive() {
                self.mark_dead(i, "command channel closed".to_owned());
            }
        }
        self.respawn_dead()?;
        Ok(())
    }

    /// Clears both gradient buffers after a failed round so stale partial
    /// sums can't leak into the next round.
    fn drain_buffers(&mut self) {
        self.ppo_buffer.take_into(&mut Vec::new());
        self.curiosity_buffer.take_into(&mut Vec::new());
    }
}

/// Spawns one employee thread; returns its command channel and join handle.
fn spawn_thread(
    emp: Box<dyn Employee>,
    index: usize,
    generation: u64,
    reply_tx: SyncSender<(usize, u64, Reply)>,
    faults: Arc<FaultPlan>,
) -> Result<(SyncSender<Cmd>, JoinHandle<()>), ChiefError> {
    let (cmd_tx, cmd_rx) = sync_channel::<Cmd>(4);
    let join = std::thread::Builder::new()
        .name(format!("employee-{index}.{generation}"))
        .spawn(move || run_employee(emp, index, generation, cmd_rx, reply_tx, faults))
        .map_err(|e| ChiefError::Spawn(e.to_string()))?;
    Ok((cmd_tx, join))
}

impl Drop for ChiefExecutor {
    fn drop(&mut self) {
        for s in &self.slots {
            if let Some(tx) = &s.cmd_tx {
                let _ = tx.send(Cmd::Stop);
            }
        }
        for s in &mut self.slots {
            if let Some(j) = s.join.take() {
                let _ = j.join();
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// A fake employee whose "gradient" is its current parameter vector plus
    /// a constant, which makes the chief-side summation checkable exactly.
    struct FakeEmployee {
        id: f32,
        params: Vec<f32>,
        rollouts: usize,
    }

    impl FakeEmployee {
        fn new(id: usize) -> Self {
            FakeEmployee { id: id as f32, params: vec![], rollouts: 0 }
        }
    }

    impl Employee for FakeEmployee {
        fn load_params(&mut self, ppo: &[f32], _curiosity: &[f32]) {
            self.params = ppo.to_vec();
        }
        fn rollout(&mut self) -> EpisodeStats {
            self.rollouts += 1;
            EpisodeStats { kappa: self.id, ..Default::default() }
        }
        fn compute_grads(&mut self) -> GradPair {
            GradPair {
                ppo: self.params.iter().map(|p| p + self.id).collect(),
                curiosity: vec![self.id],
                stats: crate::ppo::PpoStats { entropy: self.id, ..Default::default() },
            }
        }
        fn snapshot_rng(&self) -> [u64; 4] {
            [self.id as u64; 4]
        }
    }

    fn fast_config() -> ChiefConfig {
        ChiefConfig {
            round_timeout: Some(Duration::from_millis(400)),
            restart_budget: 8,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            backoff_seed: 7,
            faults: FaultPlan::none(),
        }
    }

    #[test]
    fn jittered_backoff_pins_seeded_schedule() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_secs(5);
        let mut rng = StdRng::seed_from_u64(0xBAC0_FF5E);
        let schedule: Vec<Duration> =
            (0..6).map(|n| jittered_backoff(base, cap, n, &mut rng)).collect();
        // Pinned against the seeded xoshiro stream: any change to the draw
        // order or the half-open range arithmetic shows up here.
        let expected_ns: Vec<u64> = schedule.iter().map(|d| d.as_nanos() as u64).collect();
        let mut check = StdRng::seed_from_u64(0xBAC0_FF5E);
        for (n, &got) in expected_ns.iter().enumerate() {
            let target = base.saturating_mul(2u32.saturating_pow(n as u32)).min(cap);
            let target_ns = target.as_nanos() as u64;
            let half = target_ns / 2;
            let want = half + check.gen_range(0..half + 1);
            assert_eq!(got, want, "restart {n}");
            // Decorrelation window: always within [target/2, target].
            assert!(got >= half && got <= target_ns, "restart {n}: {got} vs target {target_ns}");
        }
        // Replaying the same seed reproduces the schedule exactly.
        let mut replay = StdRng::seed_from_u64(0xBAC0_FF5E);
        let again: Vec<Duration> =
            (0..6).map(|n| jittered_backoff(base, cap, n, &mut replay)).collect();
        assert_eq!(schedule, again);
    }

    #[test]
    fn jittered_backoff_respects_cap_and_zero_base() {
        let mut rng = StdRng::seed_from_u64(1);
        // Deep restart counts saturate at the cap (never overflow).
        let d = jittered_backoff(Duration::from_secs(1), Duration::from_secs(4), 60, &mut rng);
        assert!(d >= Duration::from_secs(2) && d <= Duration::from_secs(4));
        // A zero base keeps the schedule at zero but still consumes a draw
        // only when non-zero, returning immediately otherwise.
        let z = jittered_backoff(Duration::ZERO, Duration::from_secs(1), 3, &mut rng);
        assert_eq!(z, Duration::ZERO);
        // Two executors with different seeds must decorrelate: their restart-0
        // sleeps differ for at least one of a handful of seeds.
        let draws: Vec<u64> = (0..4)
            .map(|s| {
                let mut r = StdRng::seed_from_u64(s);
                jittered_backoff(Duration::from_millis(10), Duration::from_secs(1), 4, &mut r)
                    .as_nanos() as u64
            })
            .collect();
        assert!(draws.windows(2).any(|w| w[0] != w[1]), "seeds failed to decorrelate: {draws:?}");
    }

    #[test]
    fn gradient_buffer_sums_and_drains() {
        let mut buf = GradientBuffer::new();
        buf.accumulate(&[1.0, 2.0]).unwrap();
        buf.accumulate(&[0.5, -1.0]).unwrap();
        assert_eq!(buf.contributions(), 2);
        let mut out = vec![9.0; 3];
        buf.take_into(&mut out);
        assert_eq!(out, vec![1.5, 1.0]);
        assert_eq!(buf.contributions(), 0);
        buf.take_into(&mut out);
        assert!(out.is_empty());
        // The next round sums afresh into the recycled allocation.
        buf.accumulate(&[4.0]).unwrap();
        buf.take_into(&mut out);
        assert_eq!(out, vec![4.0]);
    }

    #[test]
    fn gradient_buffer_and_report_trade_two_allocations_across_rounds() {
        let mut buf = GradientBuffer::new();
        let mut out = Vec::new();
        let mut ptrs = Vec::new();
        for _ in 0..4 {
            buf.accumulate(&[1.0, 2.0, 3.0]).unwrap();
            buf.accumulate(&[1.0, 1.0, 1.0]).unwrap();
            buf.take_into(&mut out);
            assert_eq!(out, vec![2.0, 3.0, 4.0]);
            ptrs.push(out.as_ptr());
        }
        // Rounds 0 and 1 allocate; from round 2 on, the sum is built in
        // the allocation the report handed back.
        assert_eq!((ptrs[2], ptrs[3]), (ptrs[0], ptrs[1]));
    }

    #[test]
    fn gradient_buffer_rejects_mismatched_lengths() {
        let mut buf = GradientBuffer::new();
        buf.accumulate(&[1.0, 2.0]).unwrap();
        let err = buf.accumulate(&[1.0]).unwrap_err();
        assert_eq!(err, ChiefError::GradientLengthMismatch { expected: 2, got: 1 });
        // The failed contribution must not count or corrupt the sum.
        assert_eq!(buf.contributions(), 1);
        let mut out = Vec::new();
        buf.take_into(&mut out);
        assert_eq!(out, vec![1.0, 2.0]);
    }

    #[test]
    fn spawn_rejects_empty_employee_set() {
        let err = match ChiefExecutor::spawn(Vec::<FakeEmployee>::new()) {
            Err(e) => e,
            Ok(_) => panic!("empty employee set must be rejected"),
        };
        assert_eq!(err, ChiefError::NoEmployees);
    }

    #[test]
    fn chief_errors_render_useful_messages() {
        let cases: Vec<(ChiefError, &str)> = vec![
            (
                ChiefError::EmployeeDied { employee: 3, reason: "panicked during update".into() },
                "employee 3 died (panicked during update)",
            ),
            (ChiefError::GradientLengthMismatch { expected: 4, got: 2 }, "length mismatch"),
            (
                ChiefError::ContributionMismatch { expected: 8, got: 7, buffer: "ppo" },
                "7 contributions, expected 8",
            ),
            (
                ChiefError::RestartBudgetExhausted {
                    employee: 1,
                    budget: 4,
                    reason: "timed out".into(),
                },
                "restart budget 4 exhausted",
            ),
            (
                ChiefError::StateMismatch { what: "rng", expected: 8, got: 2 },
                "rng state count mismatch",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} missing {needle:?}");
            // The Error impl exists and has no source.
            let dyn_err: &dyn std::error::Error = &err;
            assert!(dyn_err.source().is_none());
        }
    }

    #[test]
    fn chief_synchronizes_rollouts_and_grads() {
        let employees: Vec<FakeEmployee> = (0..4).map(FakeEmployee::new).collect();
        let mut chief = ChiefExecutor::spawn(employees).unwrap();
        assert_eq!(chief.num_employees(), 4);

        chief.broadcast_params(vec![10.0, 20.0], vec![]).unwrap();
        let rollout = chief.rollout_all().unwrap();
        assert!(rollout.failed.is_empty());
        // Stats arrive indexed by employee regardless of completion order.
        for (i, s) in rollout.stats.iter().enumerate() {
            assert_eq!(s.kappa, i as f32);
        }

        let report = chief.gather_grads().unwrap();
        // Σ_i (params + i) = 4·[10,20] + [Σi, Σi] = [46, 86].
        assert_eq!(report.ppo, vec![46.0, 86.0]);
        assert_eq!(report.contributors, 4);
        assert!(report.quarantined.is_empty() && report.failed.is_empty());
        // Mean of ids 0..4 = 1.5.
        assert!((report.stats.entropy - 1.5).abs() < 1e-6);
        // Curiosity buffer collected the ids.
        assert_eq!(report.curiosity, vec![6.0]);
    }

    #[test]
    fn broadcast_refills_unshared_snapshots_in_place() {
        let employees: Vec<FakeEmployee> = (0..2).map(FakeEmployee::new).collect();
        let mut chief = ChiefExecutor::spawn(employees).unwrap();
        let mut buffers = Vec::new();
        let mut broadcast = |chief: &mut ChiefExecutor, params: &[f32]| {
            chief
                .broadcast_params_with(|ppo, cur| {
                    ppo.clear();
                    ppo.extend_from_slice(params);
                    cur.clear();
                })
                .unwrap();
            let snap = chief.snapshot.as_ref().unwrap();
            buffers.push((Arc::as_ptr(snap), snap.0.as_ptr()));
        };
        // The trainer's pattern: a broadcast opens each episode, straight
        // after the one that closed the last, then one follows each update.
        for episode in 0..4u8 {
            let mut params = vec![f32::from(episode) - 1.5, f32::MIN_POSITIVE, -0.0];
            broadcast(&mut chief, &params);
            chief.rollout_all().unwrap();
            for epoch in 0..2u8 {
                // Each employee returns the parameters it loaded plus its id.
                let report = chief.gather_grads().unwrap();
                let want: Vec<u32> =
                    params.iter().map(|v| ((v + 0.0) + (v + 1.0)).to_bits()).collect();
                let got: Vec<u32> = report.ppo.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "episode {episode} epoch {epoch}");
                params[0] *= 0.5;
                broadcast(&mut chief, &params);
            }
        }
        // Two snapshots serve every broadcast: the back-to-back one refills
        // the spare while the other is still queued for the employees.
        let mut distinct = buffers.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(
            distinct.len() <= 2,
            "{} snapshots for {} broadcasts",
            distinct.len(),
            buffers.len()
        );

        // A snapshot someone else holds is never rewritten.
        let held = Arc::clone(chief.snapshot.as_ref().unwrap());
        let before: Vec<u32> = held.0.iter().map(|v| v.to_bits()).collect();
        chief.broadcast_params(vec![9.0; 3], vec![]).unwrap();
        assert!(!Arc::ptr_eq(&held, chief.snapshot.as_ref().unwrap()));
        assert_eq!(held.0.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), before);
    }

    #[test]
    fn telemetry_records_rounds_quarantine_and_grad_norms() {
        let faults = FaultPlan::none().with(1, 1, FaultKind::NanGrads);
        let cfg = ChiefConfig { faults, ..fast_config() };
        let mut chief =
            ChiefExecutor::spawn_with(2, |i| Box::new(FakeEmployee::new(i)), cfg).unwrap();
        let t = Telemetry::new();
        chief.set_telemetry(t.clone());

        chief.broadcast_params(vec![1.0, 2.0], vec![]).unwrap();
        chief.rollout_all().unwrap();
        let clean = chief.gather_grads().unwrap(); // round 0: clean
        assert_eq!(clean.contributors, 2);
        let tainted = chief.gather_grads().unwrap(); // round 1: employee 1 NaN
        assert_eq!(tainted.quarantined, vec![1]);

        assert_eq!(t.counter("chief_rounds_total").get(), 2);
        assert_eq!(t.counter("chief_quarantined_total").get(), 1);
        assert_eq!(t.counter("chief_restarts_total").get(), 0);
        // Both employees contributed a (finite or NaN) gradient each round.
        let bounds = &GRAD_NORM_BOUNDS;
        assert_eq!(t.histogram("chief_grad_norm_employee_0", bounds).count(), 2);
        let emp1 = t.histogram("chief_grad_norm_employee_1", bounds).snapshot();
        assert_eq!(emp1.count, 2);
        // The NaN norm lands in the overflow bucket without poisoning the sum.
        assert_eq!(emp1.buckets[bounds.len()], 1);
        assert!(emp1.sum.is_finite());
        assert_eq!(t.histogram("chief_gather_seconds", bounds).count(), 2);
        assert_eq!(t.histogram("chief_rollout_seconds", bounds).count(), 1);
        assert_eq!(t.histogram("chief_broadcast_seconds", bounds).count(), 1);

        // Disabling the handle freezes everything.
        t.set_on(false);
        chief.gather_grads().unwrap();
        assert_eq!(t.counter("chief_rounds_total").get(), 2);
    }

    #[test]
    fn repeated_rounds_reuse_buffers() {
        let employees: Vec<FakeEmployee> = (1..=2).map(FakeEmployee::new).collect();
        let mut chief = ChiefExecutor::spawn(employees).unwrap();
        chief.broadcast_params(vec![0.0], vec![]).unwrap();
        chief.rollout_all().unwrap();
        for round in 1..=3 {
            let report = chief.gather_grads().unwrap();
            assert_eq!(report.ppo, vec![3.0], "round {round}");
        }
    }

    /// An employee whose gradient length depends on its id, so only one of a
    /// pair can win the buffer and the other must trip the length check.
    struct MisshapenEmployee {
        len: usize,
    }

    impl Employee for MisshapenEmployee {
        fn load_params(&mut self, _ppo: &[f32], _curiosity: &[f32]) {}
        fn rollout(&mut self) -> EpisodeStats {
            EpisodeStats::default()
        }
        fn compute_grads(&mut self) -> GradPair {
            GradPair { ppo: vec![1.0; self.len], curiosity: vec![], ..Default::default() }
        }
    }

    #[test]
    fn gather_surfaces_length_mismatch() {
        let mut chief =
            ChiefExecutor::spawn(vec![MisshapenEmployee { len: 3 }, MisshapenEmployee { len: 5 }])
                .unwrap();
        chief.rollout_all().unwrap();
        let err = chief.gather_grads().unwrap_err();
        assert!(
            matches!(err, ChiefError::GradientLengthMismatch { .. }),
            "unexpected error: {err}"
        );
        // The failed round drained the buffers; a well-shaped follow-up
        // round on a fresh chief must still work (buffers are per-chief).
        assert_eq!(chief.ppo_buffer.contributions(), 0);
    }

    #[test]
    fn stress_sixteen_employees_fifty_rounds_sum_exactly() {
        // The paper's largest Table-2 setting (M = 16) hammered for 50
        // sync rounds: every round must terminate (no deadlock between the
        // barrier and the gradient buffers) and produce the exact sum
        // Σ_i (params + i) with all 16 contributions accounted for.
        const M: usize = 16;
        const ROUNDS: usize = 50;
        let employees: Vec<FakeEmployee> = (0..M).map(FakeEmployee::new).collect();
        let mut chief = ChiefExecutor::spawn(employees).unwrap();
        let id_sum: f32 = (0..M).map(|i| i as f32).sum(); // 120
        for round in 0..ROUNDS {
            // Fresh params each round so a stale broadcast shows up as a
            // wrong sum, not just a repeat of the previous round.
            let p = round as f32;
            chief.broadcast_params(vec![p, -p], vec![]).unwrap();
            let rollout = chief.rollout_all().unwrap();
            assert_eq!(rollout.stats.len(), M, "round {round}");
            let report = chief.gather_grads().unwrap();
            assert_eq!(
                report.ppo,
                vec![M as f32 * p + id_sum, -(M as f32) * p + id_sum],
                "round {round}"
            );
            // Curiosity gradients collect every id exactly once.
            assert_eq!(report.curiosity, vec![id_sum], "round {round}");
            assert_eq!(report.contributors, M, "round {round}");
            // Buffers fully drained between rounds.
            assert_eq!(chief.ppo_buffer.contributions(), 0);
            assert_eq!(chief.curiosity_buffer.contributions(), 0);
        }
    }

    /// An employee that panics during its `n`-th rollout.
    struct PanickyEmployee {
        rollouts_before_panic: usize,
        done: usize,
    }

    impl Employee for PanickyEmployee {
        fn load_params(&mut self, _ppo: &[f32], _curiosity: &[f32]) {}
        fn rollout(&mut self) -> EpisodeStats {
            if self.done >= self.rollouts_before_panic {
                panic!("boom in rollout");
            }
            self.done += 1;
            EpisodeStats::default()
        }
        fn compute_grads(&mut self) -> GradPair {
            GradPair { ppo: vec![1.0], ..Default::default() }
        }
    }

    #[test]
    fn rollout_panic_without_factory_is_fatal_with_payload() {
        let mut chief =
            ChiefExecutor::spawn(vec![PanickyEmployee { rollouts_before_panic: 0, done: 0 }])
                .unwrap();
        let err = chief.rollout_all().unwrap_err();
        match err {
            ChiefError::EmployeeDied { employee, reason } => {
                assert_eq!(employee, 0);
                assert!(reason.contains("boom in rollout"), "payload lost: {reason}");
            }
            other => panic!("expected EmployeeDied, got {other}"),
        }
    }

    #[test]
    fn panicked_employee_is_respawned_within_budget() {
        let mut chief = ChiefExecutor::spawn_with(
            4,
            |i| {
                if i == 2 {
                    Box::new(PanickyEmployee { rollouts_before_panic: 1, done: 0 })
                } else {
                    Box::new(FakeEmployee::new(i)) as Box<dyn Employee>
                }
            },
            fast_config(),
        )
        .unwrap();
        chief.broadcast_params(vec![0.0], vec![]).unwrap();
        // First rollout: everyone survives (employee 2 has one rollout left).
        let r1 = chief.rollout_all().unwrap();
        assert_eq!(r1.stats.len(), 4);
        assert!(r1.failed.is_empty());
        // Second rollout: employee 2 panics, is respawned, and the other
        // three complete.
        let r2 = chief.rollout_all().unwrap();
        assert_eq!(r2.stats.len(), 3);
        assert_eq!(r2.failed, vec![2]);
        assert_eq!(r2.respawned, vec![2]);
        assert_eq!(chief.restarts_used(), 1);
        // The replacement is cold: gathers exclude it until it rolls out.
        let report = chief.gather_grads().unwrap();
        assert_eq!(report.contributors, 3);
        // Third rollout warms the replacement (fresh PanickyEmployee with
        // one rollout budget), and the next gather includes all 4.
        let r3 = chief.rollout_all().unwrap();
        assert_eq!(r3.stats.len(), 4);
        let report = chief.gather_grads().unwrap();
        assert_eq!(report.contributors, 4);
    }

    #[test]
    fn restart_budget_exhaustion_is_fatal() {
        let cfg = ChiefConfig { restart_budget: 1, ..fast_config() };
        let mut chief = ChiefExecutor::spawn_with(
            2,
            |i| {
                if i == 0 {
                    Box::new(PanickyEmployee { rollouts_before_panic: 0, done: 0 })
                } else {
                    Box::new(FakeEmployee::new(i)) as Box<dyn Employee>
                }
            },
            cfg,
        )
        .unwrap();
        // First death consumes the budget; the respawned clone dies again
        // on the next rollout and must abort the run.
        chief.rollout_all().unwrap();
        let err = chief.rollout_all().unwrap_err();
        match err {
            ChiefError::RestartBudgetExhausted { employee, budget, reason } => {
                assert_eq!((employee, budget), (0, 1));
                assert!(reason.contains("boom in rollout"));
            }
            other => panic!("expected RestartBudgetExhausted, got {other}"),
        }
    }

    #[test]
    fn injected_panic_at_round_is_contained_and_respawned() {
        let faults = FaultPlan::none().with(1, 0, FaultKind::Panic);
        let cfg = ChiefConfig { faults, ..fast_config() };
        let mut chief =
            ChiefExecutor::spawn_with(3, |i| Box::new(FakeEmployee::new(i)) as _, cfg).unwrap();
        chief.broadcast_params(vec![1.0], vec![]).unwrap();
        chief.rollout_all().unwrap();
        let report = chief.gather_grads().unwrap();
        // Employees 0 and 2 contribute (1 + 0) + (1 + 2) = 4.
        assert_eq!(report.ppo, vec![4.0]);
        assert_eq!(report.contributors, 2);
        assert_eq!(report.failed, vec![1]);
        assert_eq!(report.respawned, vec![1]);
        // Round 1 has no fault scripted; the replacement is still cold.
        let report = chief.gather_grads().unwrap();
        assert_eq!(report.contributors, 2);
        // After the next rollout everyone contributes again.
        chief.rollout_all().unwrap();
        let report = chief.gather_grads().unwrap();
        assert_eq!(report.contributors, 3);
        assert_eq!(report.ppo, vec![6.0]);
    }

    #[test]
    fn stalled_employee_is_declared_dead_not_wedged() {
        let faults = FaultPlan::none().with(0, 0, FaultKind::Stall { rounds: 3 });
        let cfg = ChiefConfig {
            round_timeout: Some(Duration::from_millis(100)),
            faults,
            ..fast_config()
        };
        let mut chief =
            ChiefExecutor::spawn_with(2, |i| Box::new(FakeEmployee::new(i)) as _, cfg).unwrap();
        chief.broadcast_params(vec![0.0], vec![]).unwrap();
        chief.rollout_all().unwrap();
        let start = Instant::now();
        let report = chief.gather_grads().unwrap();
        assert!(start.elapsed() < Duration::from_secs(5), "gather wedged on the stall");
        assert_eq!(report.contributors, 1);
        assert_eq!(report.ppo, vec![1.0]); // employee 1 only
        assert_eq!(report.failed, vec![0]);
        assert_eq!(report.respawned, vec![0]);
    }

    #[test]
    fn nan_gradients_are_quarantined_with_divisor_adjusted() {
        let faults = FaultPlan::none().with(2, 0, FaultKind::NanGrads);
        let cfg = ChiefConfig { faults, ..fast_config() };
        let mut chief =
            ChiefExecutor::spawn_with(4, |i| Box::new(FakeEmployee::new(i)) as _, cfg).unwrap();
        chief.broadcast_params(vec![10.0], vec![]).unwrap();
        chief.rollout_all().unwrap();
        let report = chief.gather_grads().unwrap();
        // Healthy: 0, 1, 3 → (10+0) + (10+1) + (10+3) = 34; NaN never
        // reaches the sum.
        assert_eq!(report.ppo, vec![34.0]);
        assert!(report.ppo.iter().all(|x| x.is_finite()));
        assert_eq!(report.contributors, 3);
        assert_eq!(report.quarantined, vec![2]);
        // Quarantine does not kill: next round all 4 contribute.
        let report = chief.gather_grads().unwrap();
        assert_eq!(report.contributors, 4);
        assert_eq!(report.quarantined, Vec::<usize>::new());
        assert_eq!(chief.restarts_used(), 0);
    }

    #[test]
    fn rng_snapshot_roundtrip_covers_every_employee() {
        let mut chief =
            ChiefExecutor::spawn_with(3, |i| Box::new(FakeEmployee::new(i)) as _, fast_config())
                .unwrap();
        let states = chief.snapshot_rngs().unwrap();
        assert_eq!(states, vec![[0u64; 4], [1; 4], [2; 4]]);
        chief.restore_rngs(&states).unwrap();
        let err = chief.restore_rngs(&states[..1]).unwrap_err();
        assert_eq!(err, ChiefError::StateMismatch { what: "rng", expected: 3, got: 1 });
    }

    #[test]
    fn fault_plan_lookup_and_serde() {
        let plan = FaultPlan::none().with(1, 3, FaultKind::Panic).with(
            2,
            5,
            FaultKind::Stall { rounds: 2 },
        );
        assert_eq!(plan.at(1, 3), Some(FaultKind::Panic));
        assert_eq!(plan.at(1, 4), None);
        assert_eq!(plan.at(2, 5), Some(FaultKind::Stall { rounds: 2 }));
        assert!(!plan.is_empty() && FaultPlan::none().is_empty());
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn stats_mean_aggregates() {
        let stats = vec![
            EpisodeStats {
                kappa: 0.2,
                xi: 0.8,
                rho: 0.1,
                ext_reward: 1.0,
                int_reward: 0.5,
                collisions: 2,
            },
            EpisodeStats {
                kappa: 0.4,
                xi: 0.6,
                rho: 0.3,
                ext_reward: 3.0,
                int_reward: 1.5,
                collisions: 4,
            },
        ];
        let m = EpisodeStats::mean(&stats);
        assert!((m.kappa - 0.3).abs() < 1e-6);
        assert!((m.xi - 0.7).abs() < 1e-6);
        assert!((m.ext_reward - 2.0).abs() < 1e-6);
        assert_eq!(m.collisions, 3);
        assert_eq!(EpisodeStats::mean(&[]), EpisodeStats::default());
    }

    #[test]
    fn stats_mean_rounds_collisions_half_up() {
        // Mean of {2, 4, 5} = 3.67 → must report 4, not truncate to 3.
        let stats: Vec<EpisodeStats> = [2u32, 4, 5]
            .iter()
            .map(|&c| EpisodeStats { collisions: c, ..Default::default() })
            .collect();
        assert_eq!(EpisodeStats::mean(&stats).collisions, 4);
        // Exact half rounds up: mean of {1, 2} = 1.5 → 2.
        let stats: Vec<EpisodeStats> = [1u32, 2]
            .iter()
            .map(|&c| EpisodeStats { collisions: c, ..Default::default() })
            .collect();
        assert_eq!(EpisodeStats::mean(&stats).collisions, 2);
    }
}
