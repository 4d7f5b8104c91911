//! Episode recording and deterministic replay.
//!
//! A [`Recording`] captures the scenario config plus every joint action of
//! an episode. Because the simulator is deterministic, replaying the
//! recording reproduces the episode exactly — the debugging/visualization
//! backbone for trajectory figures and for auditing surprising evaluation
//! results.

use crate::action::WorkerAction;
use crate::config::EnvConfig;
use crate::entities::{ChargingStation, Poi, Worker};
use crate::env::{CrowdsensingEnv, StepResult};
use crate::error::EnvError;
use crate::metrics::Metrics;
use serde::{Deserialize, Serialize};

/// A replayable episode: config + initial entities + action log.
///
/// The entities are snapshotted explicitly (not re-derived from the config
/// seed) so that hand-placed [`crate::builder::MapBuilder`] scenarios replay
/// exactly like seeded ones.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Recording {
    /// The scenario configuration at record time.
    pub config: EnvConfig,
    /// The workers at slot 0.
    pub workers: Vec<Worker>,
    /// The PoIs at slot 0.
    pub pois: Vec<Poi>,
    /// The charging stations at slot 0.
    pub stations: Vec<ChargingStation>,
    /// `actions[t]` is the joint action taken at slot `t`.
    pub actions: Vec<Vec<WorkerAction>>,
    /// Final metrics at recording time (for integrity checks on replay).
    pub final_metrics: Metrics,
}

impl Recording {
    /// Number of recorded slots.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True if no actions were recorded.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Serializes to JSON.
    ///
    /// # Errors
    ///
    /// [`EnvError::Serialize`] when the JSON encoder refuses the recording
    /// (it never does for recordings produced by [`Recorder`]).
    pub fn to_json(&self) -> Result<String, EnvError> {
        serde_json::to_string(self).map_err(|e| EnvError::Serialize(e.to_string()))
    }

    /// Deserializes from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Replays the episode on a fresh environment, calling `observe` after
    /// every step, and returns the final environment.
    ///
    /// # Panics
    ///
    /// If the replayed final metrics diverge from the recorded ones (a
    /// determinism breach); use [`Self::try_replay`] to handle the error.
    pub fn replay(&self, observe: impl FnMut(&CrowdsensingEnv, &StepResult)) -> CrowdsensingEnv {
        self.try_replay(observe).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Self::replay`].
    ///
    /// # Errors
    ///
    /// [`EnvError::InvalidConfig`] when the recorded config no longer
    /// validates, [`EnvError::ReplayDivergence`] when the replayed final
    /// metrics differ from the recorded ones.
    pub fn try_replay(
        &self,
        mut observe: impl FnMut(&CrowdsensingEnv, &StepResult),
    ) -> Result<CrowdsensingEnv, EnvError> {
        let mut env = CrowdsensingEnv::try_from_parts(
            self.config.clone(),
            self.workers.clone(),
            self.pois.clone(),
            self.stations.clone(),
        )?;
        for actions in &self.actions {
            let result = env.step(actions);
            observe(&env, &result);
        }
        if env.metrics() != self.final_metrics {
            return Err(EnvError::ReplayDivergence);
        }
        Ok(env)
    }
}

/// Records an episode as it is driven.
#[derive(Debug)]
pub struct Recorder {
    config: EnvConfig,
    workers: Vec<Worker>,
    pois: Vec<Poi>,
    stations: Vec<ChargingStation>,
    actions: Vec<Vec<WorkerAction>>,
}

impl Recorder {
    /// Starts recording for an environment (capture it *before* stepping so
    /// the slot-0 entity snapshot is pristine).
    pub fn new(env: &CrowdsensingEnv) -> Self {
        assert_eq!(env.time(), 0, "start recording before the first step");
        Self {
            config: env.config().clone(),
            workers: env.workers().iter().collect(),
            pois: env.pois().iter().collect(),
            stations: env.stations().to_vec(),
            actions: Vec::new(),
        }
    }

    /// Logs one joint action (call once per `env.step`).
    pub fn log(&mut self, actions: &[WorkerAction]) {
        self.actions.push(actions.to_vec());
    }

    /// Finishes the recording, capturing the final metrics for replay
    /// verification.
    pub fn finish(self, env: &CrowdsensingEnv) -> Recording {
        assert_eq!(
            env.time(),
            self.actions.len(),
            "one logged action set per executed step required"
        );
        Recording {
            config: self.config,
            workers: self.workers,
            pois: self.pois,
            stations: self.stations,
            actions: self.actions,
            final_metrics: env.metrics(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::action::Move;
    use crate::config::EnvConfig;

    fn drive(cfg: EnvConfig, moves: &[Move]) -> Recording {
        let mut env = CrowdsensingEnv::new(cfg);
        let mut rec = Recorder::new(&env);
        for &mv in moves {
            let actions = vec![WorkerAction::go(mv); env.workers().len()];
            rec.log(&actions);
            env.step(&actions);
        }
        rec.finish(&env)
    }

    #[test]
    fn record_and_replay_roundtrip() {
        let rec = drive(EnvConfig::tiny(), &[Move::East, Move::North, Move::East, Move::Stay]);
        assert_eq!(rec.len(), 4);
        let mut observed = 0;
        let env = rec.replay(|_, _| observed += 1);
        assert_eq!(observed, 4);
        assert_eq!(env.metrics(), rec.final_metrics);
    }

    #[test]
    fn json_roundtrip_preserves_recording() {
        let rec = drive(EnvConfig::tiny(), &[Move::South, Move::West]);
        let back = Recording::from_json(&rec.to_json().unwrap()).unwrap();
        assert_eq!(back, rec);
        back.replay(|_, _| {});
    }

    #[test]
    fn tampered_recording_is_detected() {
        let mut rec = drive(EnvConfig::tiny(), &[Move::East, Move::East]);
        rec.final_metrics.data_collection_ratio += 0.5;
        let err = rec.try_replay(|_, _| {}).unwrap_err();
        assert_eq!(err, crate::error::EnvError::ReplayDivergence);
    }

    #[test]
    #[should_panic(expected = "determinism breach")]
    fn tampered_recording_panics_via_replay() {
        let mut rec = drive(EnvConfig::tiny(), &[Move::East, Move::East]);
        rec.final_metrics.data_collection_ratio += 0.5;
        rec.replay(|_, _| {});
    }

    #[test]
    #[should_panic(expected = "before the first step")]
    fn recorder_must_start_fresh() {
        let mut env = CrowdsensingEnv::new(EnvConfig::tiny());
        env.step(&vec![WorkerAction::go(Move::Stay); env.workers().len()]);
        Recorder::new(&env);
    }

    #[test]
    #[should_panic(expected = "one logged action set")]
    fn unlogged_steps_are_rejected() {
        let mut env = CrowdsensingEnv::new(EnvConfig::tiny());
        let rec = Recorder::new(&env);
        env.step(&vec![WorkerAction::go(Move::Stay); env.workers().len()]);
        rec.finish(&env);
    }
}
