//! Fig. 9: curiosity-value heat maps over training, DRL-CEWS vs DPPO
//! (W = 1, P = 300).
//!
//! At a handful of training checkpoints we roll the current policy through
//! an evaluation episode and deposit the spatial curiosity model's
//! per-location prediction error at every visited cell. The paper's
//! observations to reproduce: brightness (curiosity value) fades as training
//! progresses, and DRL-CEWS — whose policy actually *consumes* the intrinsic
//! reward — covers a larger area than DPPO.
//!
//! For the DPPO row the curiosity model is attached *passively* (η = 0): it
//! trains on DPPO's transitions and can be visualized, but contributes
//! nothing to the reward, exactly mirroring the paper's contrast.

use super::Scale;
use crate::report::{f2, Table};
use crate::trainer::{CuriosityChoice, Trainer, TrainerConfig, TrainerError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vc_env::prelude::*;
use vc_rl::prelude::*;

/// One heat-map snapshot.
pub struct Snapshot {
    /// Training episode the snapshot was taken at.
    pub episode: usize,
    /// Curiosity prediction-error heat map over the space.
    pub heatmap: HeatMap,
}

/// Rolls the trainer's current policy for one episode, depositing curiosity
/// prediction errors at visited locations.
/// # Panics
///
/// Panics if the trainer was not built with a spatial curiosity model; both
/// [`configs`] entries attach one (the DPPO row passively, with η = 0).
pub fn snapshot(trainer: &Trainer, env_cfg: &EnvConfig, episode: usize, seed: u64) -> Snapshot {
    let Some(spatial) = trainer.curiosity().as_spatial() else {
        panic!("fig9 requires a spatial curiosity model");
    };
    let mut env = CrowdsensingEnv::new(env_cfg.clone());
    env.reset_with_seed(seed);
    let mut heatmap = HeatMap::new(env_cfg.grid);
    let mut rng = StdRng::seed_from_u64(seed);
    let opts = PolicyOptions { mode: SampleMode::Stochastic, mask_invalid: false };
    while !env.done() {
        let sampled = sample_action(trainer.net(), trainer.store(), &env, opts, &mut rng);
        let before: Vec<Point> = env.workers().iter().map(|w| w.pos).collect();
        env.step(&sampled.actions);
        for (wi, pos) in before.iter().enumerate() {
            let next = env.workers().get(wi).pos;
            let err = spatial.prediction_error(wi, pos, sampled.moves[wi], &next);
            heatmap.deposit(env_cfg, pos, err);
        }
    }
    Snapshot { episode, heatmap }
}

/// Trains one method and collects heat maps at evenly spaced checkpoints.
///
/// # Errors
///
/// Propagates trainer construction/training failures.
pub fn heatmaps_over_training(
    scale: &Scale,
    label: &str,
    cfg: TrainerConfig,
    checkpoints: usize,
) -> Result<Vec<(String, Snapshot)>, TrainerError> {
    let env_cfg = cfg.env.clone();
    let mut trainer = Trainer::new(cfg)?;
    let per = (scale.train_episodes / checkpoints.max(1)).max(1);
    let mut out = Vec::new();
    out.push((label.to_string(), snapshot(&trainer, &env_cfg, 0, 555)));
    for c in 1..=checkpoints {
        trainer.train(per)?;
        out.push((label.to_string(), snapshot(&trainer, &env_cfg, c * per, 555)));
    }
    Ok(out)
}

/// The two compared configurations (shared env: W = 1, P = 300).
pub fn configs(scale: &Scale) -> Vec<(&'static str, TrainerConfig)> {
    let mut env = scale.base_env();
    env.num_workers = 1;
    env.num_pois = 300;
    let cews = scale.tune(TrainerConfig::drl_cews(env.clone()));
    let mut dppo = scale.tune(TrainerConfig::dppo(env));
    // Passive curiosity: trained and visualizable, but η = 0 keeps it out of
    // DPPO's reward.
    dppo.curiosity = CuriosityChoice::Spatial {
        feature: vc_curiosity::features::FeatureKind::Embedding,
        structure: vc_curiosity::spatial::StructureKind::Shared,
        eta: 0.0,
    };
    vec![("drl-cews", cews), ("dppo", dppo)]
}

/// Regenerates Fig. 9: prints the heat maps and returns the summary table
/// (total curiosity and visited area per checkpoint).
pub fn run(scale: &Scale) -> Result<(Table, Vec<(String, Snapshot)>), TrainerError> {
    let mut table = Table::new(
        "Fig. 9: curiosity value at visited locations over training (W=1, P=300)",
        &["method", "episode", "mean curiosity", "visited cells"],
    );
    let mut all = Vec::new();
    for (label, cfg) in configs(scale) {
        let snaps = heatmaps_over_training(scale, label, cfg, 4)?;
        for (l, s) in snaps {
            let visited = s.heatmap.visited_cells();
            let mean = if visited > 0 { s.heatmap.total() / visited as f32 } else { 0.0 };
            table.push_row(vec![l.clone(), s.episode.to_string(), f2(mean), visited.to_string()]);
            all.push((l, s));
        }
    }
    Ok((table, all))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_visits_cells_and_deposits_curiosity() {
        let scale = Scale::smoke();
        let (_, cfg) = configs(&scale).into_iter().next().unwrap();
        let env_cfg = cfg.env.clone();
        let trainer = Trainer::new(cfg).unwrap();
        let s = snapshot(&trainer, &env_cfg, 0, 1);
        assert!(s.heatmap.visited_cells() > 0);
        assert!(s.heatmap.total() > 0.0, "fresh model must register curiosity");
    }

    #[test]
    fn dppo_config_has_passive_curiosity() {
        let scale = Scale::smoke();
        let cfgs = configs(&scale);
        let (_, dppo) = &cfgs[1];
        match dppo.curiosity {
            CuriosityChoice::Spatial { eta, .. } => assert_eq!(eta, 0.0),
            _ => panic!("dppo fig9 config must carry a passive spatial model"),
        }
        assert_eq!(dppo.env.num_workers, 1);
    }
}
