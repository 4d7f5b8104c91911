//! Post-earthquake rescue — the paper's motivating scenario (Section VII-A).
//!
//! Drones sweep a damage map whose PoIs are audio life detectors and
//! infrared cameras clustered around collapsed buildings, including a
//! semi-destroyed corner area reachable only through a narrow passage. The
//! example trains DRL-CEWS with the spatial curiosity model, prints the
//! training progress, then renders each drone's trajectory and the curiosity
//! heat map over the visited area.
//!
//! Run with: `cargo run --release --example earthquake_rescue [episodes]`

#![allow(clippy::unwrap_used, clippy::expect_used)]

use drl_cews::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vc_env::prelude::*;
use vc_rl::prelude::*;

fn main() {
    // The Fig. 2(b) map: collapsed buildings, a corner room with a narrow
    // passage at its top wall, 4 charging stations, 2 drones.
    let mut env_cfg = EnvConfig::paper_default();
    env_cfg.num_pois = 120;
    env_cfg.horizon = 200;

    let mut cfg = TrainerConfig::drl_cews(env_cfg.clone());
    cfg.num_employees = 2;
    cfg.ppo.epochs = 4;
    cfg.ppo.minibatch = 128;

    let episodes: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(150);

    println!("== drone-assisted post-earthquake rescue ==");
    println!(
        "map {}x{}, {} sensors, {} charging stations, horizon {} slots",
        env_cfg.size_x, env_cfg.size_y, env_cfg.num_pois, env_cfg.num_stations, env_cfg.horizon
    );
    let mut trainer = Trainer::new(cfg).unwrap();
    for ep in 0..episodes {
        let s = trainer.train_episode().unwrap();
        if ep % 25 == 0 || ep + 1 == episodes {
            println!(
                "episode {ep:>4}: kappa={:.3} xi={:.3} rho={:.3} curiosity={:.1}",
                s.kappa, s.xi, s.rho, s.int_reward
            );
        }
    }

    // Fly one evaluation mission, recording the trajectory and the curiosity
    // value at every visited location.
    let spatial = trainer.curiosity().as_spatial().expect("spatial curiosity configured");
    let mut env = CrowdsensingEnv::new(env_cfg.clone());
    env.reset_with_seed(env_cfg.seed.wrapping_add(999));
    let mut rng = StdRng::seed_from_u64(17);
    let mut trajectory = Trajectory::new(env_cfg.num_workers);
    let mut heat = HeatMap::new(env_cfg.grid);
    trajectory.record(env.workers().iter().map(|w| w.pos));
    let opts = PolicyOptions { mode: SampleMode::Stochastic, mask_invalid: true };
    while !env.done() {
        let a = sample_action(trainer.net(), trainer.store(), &env, opts, &mut rng);
        let before: Vec<Point> = env.workers().iter().map(|w| w.pos).collect();
        env.step(&a.actions);
        for (wi, pos) in before.iter().enumerate() {
            let next = env.workers().get(wi).pos;
            heat.deposit(&env_cfg, pos, spatial.prediction_error(wi, pos, a.moves[wi], &next));
        }
        trajectory.record(env.workers().iter().map(|w| w.pos));
    }

    let m = env.metrics();
    println!(
        "\nmission result: kappa={:.3} xi={:.3} rho={:.3}",
        m.data_collection_ratio, m.remaining_data_ratio, m.energy_efficiency
    );
    for w in 0..env_cfg.num_workers {
        println!(
            "\ndrone {w} trajectory (S start, E end, # rubble, * path), length {:.1}:",
            trajectory.path_length(w)
        );
        println!("{}", trajectory.ascii(&env_cfg, w));
    }
    println!("\ncuriosity heat map of the mission ({} cells visited):", heat.visited_cells());
    println!("{}", heat.ascii());
}
