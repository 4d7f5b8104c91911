//! The Greedy baseline (Section VII-B).
//!
//! Per slot and per worker: enumerate the reachable positions at `t+1`,
//! compute the data each would collect, and move to the maximizer — a pure
//! one-step lookahead with no coordination and no route planning toward
//! charging stations. A worker only charges opportunistically when it is
//! already inside a station's range with a depleted battery, which is why
//! (as the paper observes) Greedy workers get trapped in drained regions
//! and additional stations barely help it.

use crate::scheduler::Scheduler;
use rand::rngs::StdRng;
use vc_env::prelude::*;

/// Battery fraction below which an in-range Greedy worker tops up.
const CHARGE_THRESHOLD: f32 = 0.35;

/// One-step-lookahead scheduler.
#[derive(Debug, Default)]
pub struct GreedyScheduler;

impl GreedyScheduler {
    /// Picks the valid move maximizing immediate collection for one worker.
    /// Ties among *positive* gains break uniformly at random; when nothing
    /// is within one step's sensing range the worker stays put — the
    /// "trapped in a drained region" behavior the paper reports for Greedy
    /// (Section VII-I).
    fn best_move(env: &CrowdsensingEnv, wi: usize, rng: &mut StdRng) -> Move {
        use rand::Rng;
        let mut best = vec![Move::Stay];
        let mut best_gain = 0.0f32;
        for mv in Move::ALL {
            let Some(target) = env.peek_move(wi, mv) else { continue };
            let gain = env.potential_collection(&target);
            if gain > best_gain + 1e-9 {
                best_gain = gain;
                best.clear();
                best.push(mv);
            } else if gain > 0.0 && (gain - best_gain).abs() <= 1e-9 {
                best.push(mv);
            }
        }
        best[rng.gen_range(0..best.len())]
    }
}

impl Scheduler for GreedyScheduler {
    fn decide(&mut self, env: &CrowdsensingEnv, rng: &mut StdRng) -> Vec<WorkerAction> {
        (0..env.workers().len())
            .map(|wi| {
                let w = env.workers().get(wi);
                if w.energy_ratio() < CHARGE_THRESHOLD && env.can_charge(wi) {
                    return WorkerAction::charge();
                }
                WorkerAction::go(Self::best_move(env, wi, rng))
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "greedy"
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    use rand::SeedableRng;

    #[test]
    fn moves_toward_adjacent_data() {
        let mut cfg = EnvConfig::tiny();
        cfg.num_pois = 1;
        let mut env = CrowdsensingEnv::new(cfg);
        // Put the worker one step west of the PoI.
        let poi = env.pois().get(0).pos;
        env.teleport_worker(0, Point::new((poi.x - 1.0).max(0.0), poi.y));
        let mut rng = StdRng::seed_from_u64(0);
        let acts = GreedyScheduler.decide(&env, &mut rng);
        let target = env.peek_move(0, acts[0].movement).unwrap();
        assert!(
            target.dist(&poi) <= env.config().sensing_range + 1e-5,
            "greedy did not step into sensing range: {target:?} vs {poi:?}"
        );
    }

    #[test]
    fn freezes_when_no_data_anywhere_nearby() {
        // The paper's trapped behavior: with nothing in one-step reach,
        // greedy has no incentive to move and stays put.
        let mut cfg = EnvConfig::tiny();
        cfg.num_pois = 0;
        let env = CrowdsensingEnv::new(cfg);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(GreedyScheduler.decide(&env, &mut rng)[0].movement, Move::Stay);
        }
    }

    #[test]
    fn charges_when_low_and_in_range() {
        let mut cfg = EnvConfig::tiny();
        cfg.num_pois = 0;
        let mut env = CrowdsensingEnv::new(cfg);
        env.teleport_worker(0, env.stations()[0].pos);
        env.set_worker_energy(0, 5.0);
        let mut rng = StdRng::seed_from_u64(0);
        let acts = GreedyScheduler.decide(&env, &mut rng);
        assert!(acts[0].charge);
    }

    #[test]
    fn does_not_seek_stations_when_low_but_out_of_range() {
        let mut cfg = EnvConfig::tiny();
        cfg.num_pois = 0;
        let mut env = CrowdsensingEnv::new(cfg);
        // Far from the single station, low battery: Greedy has no station-
        // seeking behavior, so it just stays (no data anywhere).
        let st = env.stations()[0].pos;
        let far =
            Point::new(if st.x < 4.0 { 7.5 } else { 0.5 }, if st.y < 4.0 { 7.5 } else { 0.5 });
        env.teleport_worker(0, far);
        env.set_worker_energy(0, 5.0);
        let mut rng = StdRng::seed_from_u64(0);
        let acts = GreedyScheduler.decide(&env, &mut rng);
        assert!(!acts[0].charge, "greedy must not plan toward a distant station");
    }

    #[test]
    fn exploits_fast_then_traps() {
        // Greedy drains its local neighborhood quickly (strong early) but,
        // once nothing is within a step, freezes — so its collection stops
        // growing while a wanderer's would keep climbing.
        let mut cfg = EnvConfig::paper_default();
        cfg.horizon = 200;
        let mut env = CrowdsensingEnv::new(cfg);
        let mut rng = StdRng::seed_from_u64(3);
        let mut kappa_at_50 = 0.0;
        let mut steps = 0;
        while !env.done() {
            let acts = GreedyScheduler.decide(&env, &mut rng);
            env.step(&acts);
            steps += 1;
            if steps == 50 {
                kappa_at_50 = env.metrics().data_collection_ratio;
            }
        }
        let kappa_end = env.metrics().data_collection_ratio;
        assert!(kappa_at_50 > 0.0, "greedy collected nothing early");
        // Trapped: the last 150 slots add little.
        assert!(
            kappa_end < kappa_at_50 * 2.5,
            "greedy kept growing ({kappa_at_50} -> {kappa_end}); trap behavior lost"
        );
    }
}
