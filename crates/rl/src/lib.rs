//! # vc-rl — PPO and the chief–employee training architecture
//!
//! The reinforcement-learning machinery of the DRL-CEWS reproduction:
//!
//! * [`net::ActorCriticNet`] — the paper's CNN encoder (3 conv, layer
//!   norm, FC) with route-planning, charging and value heads, in two head
//!   variants: [`net::ActorCritic`] (the paper's per-worker head columns)
//!   and [`net::FleetActorCritic`] (heads shared across workers, for
//!   1000-worker fleets);
//! * [`policy`] — joint-action sampling with optional validity masking, one
//!   generic path for both variants;
//! * [`buffer::RolloutBuffer`] — the per-episode replay buffer `D`;
//! * [`gae`] — discounted returns (Eqn 11) and GAE-λ advantages;
//! * [`ppo`] — the clipped-surrogate gradient computation (Eqns 8/12);
//! * [`chief`] — the synchronous chief–employee executor with global PPO and
//!   curiosity gradient buffers (Fig. 1, Algorithms 1–2).
//!
//! Employees *compute* gradients; only the chief *applies* them — this crate
//! keeps that separation explicit: [`ppo::compute_ppo_grads`] accumulates
//! into a local store, [`vc_nn::param::ParamStore::flat_grads`] ships them,
//! and the chief's Adam steps the global store.

/// The rollout buffer of transitions.
pub mod buffer;
/// The chief/employee distributed-PPO executor.
pub mod chief;
/// Return and advantage estimators.
pub mod gae;
/// The shared actor–critic network.
pub mod net;
/// Action sampling from policy heads.
pub mod policy;
/// The clipped-surrogate PPO update.
pub mod ppo;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::buffer::{RolloutBuffer, Transition};
    pub use crate::chief::{
        ChiefConfig, ChiefError, ChiefExecutor, Employee, EpisodeStats, FaultEvent, FaultKind,
        FaultPlan, GradPair, GradientBuffer, RolloutReport, RoundReport,
    };
    pub use crate::gae::{discounted_returns, gae_advantages, normalize_advantages};
    pub use crate::net::{
        ActorCritic, FleetActorCritic, NetConfig, NetOutputs, CHARGE_CHOICES, MOVES_PER_WORKER,
    };
    pub use crate::policy::{
        sample_action, sample_action_fleet, sample_actions_batched, state_value,
        state_values_batched, PolicyOptions, SampleMode, SampledAction,
    };
    pub use crate::ppo::{compute_ppo_grads, finish_rollout, PpoConfig, PpoStats};
}
