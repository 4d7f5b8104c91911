//! # vc-baselines — comparison schedulers for the DRL-CEWS evaluation
//!
//! The baselines and state-of-the-art comparators of Section VII-B:
//!
//! * [`greedy::GreedyScheduler`] — one-step lookahead, no charging plan;
//! * [`dnc::DncScheduler`] — D&C (Lian et al., ICDE 2017): prediction-based
//!   two-step lookahead with station seeking;
//! * [`edics::Edics`] — the authors' earlier multi-agent DRL algorithm
//!   (one independent dense-reward PPO agent per worker);
//! * [`scheduler::RandomScheduler`] — the uniform-random floor;
//! * [`hungarian::HungarianScheduler`] — the per-slot optimal-assignment
//!   oracle (Kuhn–Munkres over the worker × PoI distance matrix), the cost
//!   optimum every other per-slot assignment is audited against;
//! * [`sweep::SweepScheduler`] — a deterministic O(W) serpentine patrol,
//!   the action source for fleet-scale runs where lookahead schedulers
//!   would dominate the step cost.
//!
//! The remaining comparator, **DPPO** (Heess et al.), shares its entire
//! machinery with DRL-CEWS minus curiosity and sparse rewards; it is
//! provided by the `drl-cews` crate as a trainer preset
//! (`TrainerConfig::dppo`) so the two share one audited implementation.

pub mod dnc;
pub mod edics;
pub mod greedy;
pub mod hungarian;
pub mod scheduler;
pub mod sweep;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::dnc::DncScheduler;
    pub use crate::edics::{Edics, EdicsConfig};
    pub use crate::greedy::GreedyScheduler;
    pub use crate::hungarian::{solve, Assignment, HungarianError, HungarianScheduler};
    pub use crate::scheduler::{run_episode, RandomScheduler, Scheduler};
    pub use crate::sweep::SweepScheduler;
}
