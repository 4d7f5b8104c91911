//! # vc-env — the crowdsensing simulator of the DRL-CEWS reproduction
//!
//! A deterministic discrete-time 2-D simulator of the paper's system model
//! (Section III): intelligent workers (drones / driverless cars) roam a
//! bounded space containing unevenly distributed PoIs, rectangular obstacles
//! — including the hard-exploration corner room of Fig. 2(b) — and charging
//! stations with finite service range.
//!
//! The paper evaluated on a Unity 3-D scene; the learning problem, however,
//! lives entirely on the 2-D "crowdsensing space" that scene renders, which
//! is what this crate implements exactly: the collection model (Eqns 1–2),
//! the energy model (Eqn 3), the evaluation metrics κ/ξ/ρ (Eqns 4–6), the
//! sparse extrinsic reward (Eqns 18–19) and the dense baseline reward
//! (Eqn 20), plus the 3-channel state encoding of Section V.
//!
//! ```
//! use vc_env::prelude::*;
//!
//! let mut env = CrowdsensingEnv::new(EnvConfig::tiny());
//! let actions = vec![WorkerAction::go(Move::East); env.workers().len()];
//! let result = env.step(&actions);
//! assert_eq!(result.t, 1);
//! let m = env.metrics();
//! assert!(m.data_collection_ratio >= 0.0);
//! ```

pub mod action;
pub mod analysis;
pub mod builder;
pub mod config;
pub mod entities;
pub mod env;
pub mod error;
pub mod fleet;
pub mod geometry;
pub mod metrics;
pub mod pathfind;
pub mod recording;
pub mod reward;
pub mod scenario;
pub mod scenario_gen;
pub mod state;
pub mod summary;
pub mod trajectory;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::action::{Move, WorkerAction, NUM_MOVES};
    pub use crate::analysis::MetricSeries;
    pub use crate::builder::MapBuilder;
    pub use crate::config::{EnvConfig, PoiDistribution};
    pub use crate::entities::{ChargingStation, Poi, Worker};
    pub use crate::env::{CrowdsensingEnv, StepResult, WorkerOutcome};
    pub use crate::error::EnvError;
    pub use crate::fleet::{FleetState, FleetStepView};
    pub use crate::geometry::{Point, Rect};
    pub use crate::metrics::{jain_index, Metrics};
    pub use crate::pathfind::DistanceField;
    pub use crate::recording::{Recorder, Recording};
    pub use crate::reward::{dense_reward, extrinsic_reward, sparse_reward, RewardMode};
    pub use crate::scenario_gen::{GeneratedScenario, ScenarioFamily};
    pub use crate::state::{encode, encode_into, state_len, state_shape, STATE_CHANNELS};
    pub use crate::summary::{EpisodeSummary, WorkerSummary};
    pub use crate::trajectory::{HeatMap, Trajectory};
}
