//! Regeneration of every table and figure of Section VII.
//!
//! Each submodule reproduces one artifact of the paper's evaluation; the
//! `vc-experiments` binary dispatches to them. All experiments are
//! parameterized by a [`Scale`], because the original evaluation trained
//! thousands of GPU episodes per point — the **shape** of each result (who
//! wins, by roughly what factor, where crossovers fall) is the reproduction
//! target, not the absolute wall-clock-bound numbers.

pub mod ablations;
pub mod fig2c;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig9;
pub mod sweeps;
pub mod table2;

use vc_env::prelude::*;

/// How much compute an experiment run spends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Training episodes per DRL run.
    pub train_episodes: usize,
    /// Evaluation episodes per measurement.
    pub eval_episodes: usize,
    /// Episode horizon `T`.
    pub horizon: usize,
    /// Default PoI count (sweeps override it).
    pub num_pois: usize,
    /// Sweep points per axis (full = the paper's 5).
    pub sweep_points: usize,
    /// Default number of employee threads for trained methods.
    pub employees: usize,
    /// PPO update rounds per episode.
    pub epochs: usize,
    /// Minibatch size.
    pub minibatch: usize,
}

impl Scale {
    /// Seconds-scale runs for unit tests.
    pub fn smoke() -> Self {
        Self {
            train_episodes: 2,
            eval_episodes: 1,
            horizon: 10,
            num_pois: 30,
            sweep_points: 2,
            employees: 1,
            epochs: 1,
            minibatch: 16,
        }
    }

    /// Minutes-scale runs that show the qualitative shape (the setting used
    /// for the recorded EXPERIMENTS.md results on a 1-core container).
    pub fn quick() -> Self {
        Self {
            train_episodes: 400,
            eval_episodes: 2,
            horizon: 200,
            num_pois: 100,
            sweep_points: 2,
            employees: 2,
            epochs: 6,
            minibatch: 128,
        }
    }

    /// Paper-scale runs (hours/days on this substrate; matches Section VII).
    pub fn full() -> Self {
        Self {
            train_episodes: 2500,
            eval_episodes: 5,
            horizon: 400,
            num_pois: 200,
            sweep_points: 5,
            employees: 8,
            epochs: 4,
            minibatch: 250,
        }
    }

    /// Parses a scale name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "smoke" => Some(Self::smoke()),
            "quick" => Some(Self::quick()),
            "full" => Some(Self::full()),
            _ => None,
        }
    }

    /// The base environment this scale runs on (paper map, scaled horizon /
    /// PoI count).
    pub fn base_env(&self) -> EnvConfig {
        let mut cfg = EnvConfig::paper_default();
        cfg.horizon = self.horizon;
        cfg.num_pois = self.num_pois;
        cfg
    }

    /// Applies this scale's training knobs to a trainer config.
    pub fn tune(&self, mut cfg: crate::trainer::TrainerConfig) -> crate::trainer::TrainerConfig {
        cfg.num_employees = self.employees;
        cfg.ppo.epochs = self.epochs;
        cfg.ppo.minibatch = self.minibatch;
        cfg
    }

    /// Picks `n` evenly spread values from a full sweep axis, always
    /// including the endpoints.
    pub fn pick<T: Copy>(&self, axis: &[T]) -> Vec<T> {
        let n = self.sweep_points.clamp(2, axis.len());
        if n >= axis.len() {
            return axis.to_vec();
        }
        (0..n).map(|i| axis[i * (axis.len() - 1) / (n - 1)]).collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn scale_names_roundtrip() {
        for name in ["smoke", "quick", "full"] {
            assert!(Scale::from_name(name).is_some());
        }
        assert!(Scale::from_name("huge").is_none());
    }

    #[test]
    fn pick_includes_endpoints() {
        let s = Scale { sweep_points: 3, ..Scale::smoke() };
        let axis = [100, 200, 300, 400, 500];
        let picked = s.pick(&axis);
        assert_eq!(picked.first(), Some(&100));
        assert_eq!(picked.last(), Some(&500));
        assert_eq!(picked.len(), 3);
        let all = Scale { sweep_points: 9, ..Scale::smoke() }.pick(&axis);
        assert_eq!(all, axis.to_vec());
    }

    #[test]
    fn base_env_is_valid() {
        for s in [Scale::smoke(), Scale::quick(), Scale::full()] {
            assert!(s.base_env().validate().is_ok());
        }
    }

    #[test]
    fn tune_applies_training_knobs() {
        let s = Scale::smoke();
        let cfg = s.tune(crate::trainer::TrainerConfig::drl_cews(s.base_env()));
        assert_eq!(cfg.num_employees, s.employees);
        assert_eq!(cfg.ppo.epochs, s.epochs);
        assert_eq!(cfg.ppo.minibatch, s.minibatch);
    }

    #[test]
    fn full_scale_matches_paper_settings() {
        let f = Scale::full();
        assert_eq!(f.employees, 8);
        assert_eq!(f.minibatch, 250);
        assert_eq!(f.train_episodes, 2500);
        assert_eq!(f.sweep_points, 5);
    }
}
