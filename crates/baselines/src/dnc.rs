//! The D&C (divide-and-concur) baseline of Lian et al., ICDE 2017
//! (Section VII-B).
//!
//! A prediction-based two-step lookahead: for every reachable position at
//! `t+1`, D&C also derives the positions reachable at `t+2` and scores the
//! move by the *expected collected data over both steps*, accounting for the
//! data the first step would already drain. Unlike Greedy it also plans
//! charging: a low-battery worker charges in range or routes toward the
//! nearest station, which is why added stations help D&C in Fig. 6(d).

use crate::scheduler::Scheduler;
use rand::rngs::StdRng;
use vc_env::prelude::*;

/// Battery fraction below which D&C switches to charging behavior.
const CHARGE_THRESHOLD: f32 = 0.35;

/// Two-step-lookahead scheduler with station seeking.
#[derive(Debug, Default)]
pub struct DncScheduler {
    /// Seek stations by obstacle-aware hop distance instead of straight-line
    /// distance. Off by default (the recorded experiments use the
    /// straight-line variant); turning it on stops low-battery workers from
    /// steering into walls that stand between them and the nearest station.
    pub pathfind_stations: bool,
}

impl DncScheduler {
    /// The obstacle-aware variant.
    pub fn with_pathfinding() -> Self {
        Self { pathfind_stations: true }
    }

    /// Expected collection at `pos` after the PoIs in `drained` (in range of
    /// an earlier position) have been collected once.
    fn collection_after(env: &CrowdsensingEnv, pos: &Point, drained: &Point) -> f32 {
        let cfg = env.config();
        let g = cfg.sensing_range;
        env.pois()
            .iter()
            .filter(|p| p.pos.dist(pos) <= g)
            .map(|p| {
                let step = cfg.collect_rate * p.initial_data;
                let mut remaining = p.data;
                if p.pos.dist(drained) <= g {
                    remaining = (remaining - step.min(remaining)).max(0.0);
                }
                step.min(remaining)
            })
            .sum()
    }

    /// Two-step lookahead value of moving to `first`.
    fn two_step_value(env: &CrowdsensingEnv, wi: usize, first: &Point) -> f32 {
        let q1 = env.potential_collection(first);
        let cfg = env.config();
        let mut best_q2 = 0.0f32;
        for mv in Move::ALL {
            let (dx, dy) = mv.displacement(cfg.max_step);
            let second = first.offset(dx, dy);
            if !env.path_clear(first, &second) {
                continue;
            }
            let q2 = Self::collection_after(env, &second, first);
            if q2 > best_q2 {
                best_q2 = q2;
            }
        }
        let _ = wi;
        q1 + best_q2
    }

    /// The valid move minimizing distance to the nearest charging station —
    /// straight-line by default, obstacle-aware hops with
    /// [`Self::with_pathfinding`].
    fn move_toward_station(&self, env: &CrowdsensingEnv, wi: usize) -> Move {
        let fields: Option<Vec<vc_env::pathfind::DistanceField>> =
            self.pathfind_stations.then(|| {
                env.stations()
                    .iter()
                    .map(|s| vc_env::pathfind::DistanceField::from(env.config(), &s.pos))
                    .collect()
            });
        let mut best = Move::Stay;
        let mut best_d = f32::INFINITY;
        for mv in Move::ALL {
            let Some(target) = env.peek_move(wi, mv) else { continue };
            let d = match &fields {
                Some(fields) => fields
                    .iter()
                    .filter_map(|f| f.distance_to(env.config(), &target))
                    .map(|h| h as f32)
                    .fold(f32::INFINITY, f32::min),
                None => {
                    env.stations().iter().map(|s| s.pos.dist(&target)).fold(f32::INFINITY, f32::min)
                }
            };
            if d < best_d {
                best_d = d;
                best = mv;
            }
        }
        best
    }
}

impl Scheduler for DncScheduler {
    fn decide(&mut self, env: &CrowdsensingEnv, _rng: &mut StdRng) -> Vec<WorkerAction> {
        (0..env.workers().len())
            .map(|wi| {
                let w = env.workers().get(wi);
                if w.energy_ratio() < CHARGE_THRESHOLD {
                    if env.can_charge(wi) {
                        return WorkerAction::charge();
                    }
                    if !env.stations().is_empty() {
                        return WorkerAction::go(self.move_toward_station(env, wi));
                    }
                }
                let mut best = Move::Stay;
                let mut best_v = f32::NEG_INFINITY;
                for mv in Move::ALL {
                    let Some(target) = env.peek_move(wi, mv) else { continue };
                    let v = Self::two_step_value(env, wi, &target);
                    if v > best_v {
                        best_v = v;
                        best = mv;
                    }
                }
                WorkerAction::go(best)
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "d&c"
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::greedy::GreedyScheduler;
    use crate::scheduler::run_episode;
    use rand::SeedableRng;

    #[test]
    fn lookahead_prefers_richer_two_step_path() {
        // One PoI two steps east; nothing one step away. Greedy sees zero
        // everywhere and stays; D&C's lookahead walks east. Placed
        // explicitly so the scenario does not depend on the PRNG draw.
        let mut env = vc_env::builder::MapBuilder::new(8.0, 8.0, 16)
            .worker(2.0, 4.0)
            .poi(4.0, 4.0, 10.0)
            .build();
        let poi = env.pois().get(0).pos;
        let start = env.workers().get(0).pos;
        env.teleport_worker(0, start);
        let mut rng = StdRng::seed_from_u64(0);

        let g = GreedyScheduler.decide(&env, &mut rng);
        assert_eq!(g[0].movement, Move::Stay, "greedy should see nothing in one step");

        let d = DncScheduler::default().decide(&env, &mut rng);
        let target = env.peek_move(0, d[0].movement).unwrap();
        assert!(target.dist(&poi) < start.dist(&poi), "D&C should approach the PoI");
    }

    #[test]
    fn seeks_station_when_low() {
        let mut cfg = EnvConfig::tiny();
        cfg.num_pois = 0;
        let mut env = CrowdsensingEnv::new(cfg);
        let st = env.stations()[0].pos;
        let far =
            Point::new(if st.x < 4.0 { 7.5 } else { 0.5 }, if st.y < 4.0 { 7.5 } else { 0.5 });
        env.teleport_worker(0, far);
        env.set_worker_energy(0, 8.0);
        let mut rng = StdRng::seed_from_u64(0);
        let acts = DncScheduler::default().decide(&env, &mut rng);
        let target = env.peek_move(0, acts[0].movement).unwrap();
        assert!(target.dist(&st) < far.dist(&st), "should move toward the station");
    }

    #[test]
    fn charges_in_range_when_low() {
        let mut cfg = EnvConfig::tiny();
        cfg.num_pois = 0;
        let mut env = CrowdsensingEnv::new(cfg);
        env.teleport_worker(0, env.stations()[0].pos);
        env.set_worker_energy(0, 8.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(DncScheduler::default().decide(&env, &mut rng)[0].charge);
    }

    #[test]
    fn pathfinding_variant_routes_around_walls() {
        // Station behind a wall: straight-line seeking presses into the
        // wall; the pathfinding variant detours.
        let mut cfg = EnvConfig::tiny();
        cfg.num_pois = 0;
        cfg.num_stations = 1;
        cfg.obstacles = vec![Rect::new(3.8, 0.0, 4.2, 6.0)];
        let mut env = CrowdsensingEnv::new(cfg);
        // Force a known geometry: worker west of the wall, station east.
        env.teleport_worker(0, Point::new(2.5, 2.5));
        let station_pos = Point::new(6.0, 2.5);
        // Rebuild the env with the station where we need it via MapBuilder.
        let mut env = vc_env::builder::MapBuilder::new(8.0, 8.0, 8)
            .obstacle(3.8, 0.0, 4.2, 6.0)
            .station(station_pos.x, station_pos.y)
            .worker(2.5, 2.5)
            .configure(|c| c.num_pois = 0)
            .build();
        env.set_worker_energy(0, 8.0);
        let mut rng = StdRng::seed_from_u64(0);

        let naive = DncScheduler::default().decide(&env, &mut rng)[0];
        let smart = DncScheduler::with_pathfinding().decide(&env, &mut rng)[0];
        let naive_target = env.peek_move(0, naive.movement).unwrap();
        let smart_target = env.peek_move(0, smart.movement).unwrap();
        // The naive variant heads straight at the station (east-ish); the
        // pathfinding variant must make progress in hop distance.
        let field = vc_env::pathfind::DistanceField::from(env.config(), &station_pos);
        let here = field.distance_to(env.config(), &env.workers().get(0).pos).unwrap();
        let smart_hops = field.distance_to(env.config(), &smart_target).unwrap();
        assert!(smart_hops < here, "pathfinding variant made no hop progress");
        // (The naive move may or may not make hop progress; assert only that
        // both produced legal moves.)
        let _ = naive_target;
    }

    #[test]
    fn outperforms_greedy_over_long_horizon() {
        // With a long horizon the energy budget binds; D&C's charging and
        // lookahead must collect at least as much as Greedy (the paper's
        // consistent ordering).
        let run = |sched: &mut dyn Scheduler| {
            let mut cfg = EnvConfig::paper_default();
            cfg.horizon = 150;
            let mut env = CrowdsensingEnv::new(cfg);
            let mut rng = StdRng::seed_from_u64(5);
            run_episode(sched, &mut env, &mut rng).data_collection_ratio
        };
        let dnc = run(&mut DncScheduler::default());
        let greedy = run(&mut GreedyScheduler);
        assert!(dnc >= greedy, "D&C {dnc} must not lose to Greedy {greedy}");
    }
}
