//! Oracle suite for the one-pass action masks and the static cell index:
//! `FleetState::action_masks` (and its single-worker forms `valid_moves` /
//! `can_charge`) must equal the per-worker loop below — `peek_move` over
//! every move with `Stay` forced legal, plus a linear station scan — and
//! `potential_collection` must equal a full PoI scan bit for bit, across
//! every scenario family, the paper map with its obstacles, exhausted
//! workers and workers parked on the map edges.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vc_env::prelude::*;
use vc_env::scenario_gen::generate;

/// The per-worker masks as a loop over the public queries: `[W·9]` moves
/// and `[W]` charge.
fn oracle_masks(env: &CrowdsensingEnv) -> (Vec<bool>, Vec<bool>) {
    let w = env.workers().len();
    let mut moves = Vec::with_capacity(w * NUM_MOVES);
    let mut charge = Vec::with_capacity(w);
    for wi in 0..w {
        for m in Move::ALL {
            moves.push(m == Move::Stay || env.peek_move(wi, m).is_some());
        }
        let pos = env.workers().get(wi).pos;
        charge.push(env.stations().iter().any(|s| s.in_range(&pos)));
    }
    (moves, charge)
}

/// `potential_collection` as a full scan over every PoI in index order.
fn oracle_collection(env: &CrowdsensingEnv, pos: &Point) -> f32 {
    let cfg = env.config();
    env.pois()
        .iter()
        .filter(|p| p.pos.dist(pos) <= cfg.sensing_range)
        .map(|p| (cfg.collect_rate * p.initial_data).min(p.data))
        .sum()
}

/// Asserts the columnar pass, its single-worker forms and the lookahead
/// all agree with the oracles in the env's current state.
fn assert_masks_match(env: &CrowdsensingEnv, label: &str) {
    let w = env.workers().len();
    let (want_moves, want_charge) = oracle_masks(env);
    let mut moves = vec![false; w * NUM_MOVES];
    let mut charge = vec![false; w];
    env.fleet().action_masks(&mut moves, &mut charge);
    for wi in 0..w {
        let lanes = wi * NUM_MOVES..(wi + 1) * NUM_MOVES;
        assert_eq!(moves[lanes.clone()], want_moves[lanes.clone()], "{label}: worker {wi} moves");
        assert_eq!(env.valid_moves(wi)[..], want_moves[lanes], "{label}: valid_moves({wi})");
        assert_eq!(charge[wi], want_charge[wi], "{label}: worker {wi} charge");
        assert_eq!(env.can_charge(wi), want_charge[wi], "{label}: can_charge({wi})");
        // Lookahead from every reachable target, as the planners query it.
        let pos = env.workers().get(wi).pos;
        for m in Move::ALL {
            let Some(target) = env.peek_move(wi, m) else { continue };
            for p in [pos, target] {
                let got = env.potential_collection(&p);
                let want = oracle_collection(env, &p);
                assert_eq!(got.to_bits(), want.to_bits(), "{label}: collection at {p:?}");
            }
        }
    }
}

/// Steps `env` with random actions, checking the masks before every slot.
fn check_rollout(env: &mut CrowdsensingEnv, steps: usize, seed: u64, label: &str) {
    let mut rng = StdRng::seed_from_u64(seed);
    for k in 0..steps {
        if env.done() {
            break;
        }
        assert_masks_match(env, &format!("{label} step {k}"));
        let actions: Vec<WorkerAction> = (0..env.workers().len())
            .map(|_| {
                if rng.gen::<f32>() < 0.2 {
                    WorkerAction::charge()
                } else {
                    WorkerAction::go(Move::from_index(rng.gen_range(0..NUM_MOVES)))
                }
            })
            .collect();
        env.step(&actions);
    }
}

#[test]
fn masks_match_the_per_worker_loop_on_all_five_families() {
    for family in ScenarioFamily::ALL {
        for seed in [11u64, 407] {
            let scn = generate(family, seed).unwrap_or_else(|e| panic!("{family:?}/{seed}: {e}"));
            let mut env = scn.try_env().unwrap_or_else(|e| panic!("{family:?}/{seed}: {e}"));
            check_rollout(&mut env, 25, seed ^ 0x3A5C, &format!("{family:?}/{seed}"));
        }
    }
}

#[test]
fn masks_match_on_the_paper_map_with_obstacles() {
    let cfg = EnvConfig::paper_default();
    assert!(!cfg.obstacles.is_empty(), "the paper map must carry obstacles");
    let mut env = CrowdsensingEnv::new(cfg.clone());
    // Park workers against every obstacle edge, where half the moves clip it.
    for (wi, r) in cfg.obstacles.iter().enumerate().take(env.workers().len()) {
        env.teleport_worker(wi, Point::new(r.x0, r.y0 + 0.5 * r.height()));
    }
    check_rollout(&mut env, 40, 5, "paper");
}

#[test]
fn masks_match_for_exhausted_workers() {
    let mut env = CrowdsensingEnv::new(EnvConfig::paper_default());
    for wi in 0..env.workers().len() {
        env.set_worker_energy(wi, if wi % 2 == 0 { 0.0 } else { 1e-3 });
    }
    assert_masks_match(&env, "exhausted");
    // A battery that cannot pay one step: moves fail on cost alone.
    let mut low = env.clone();
    low.set_worker_energy(1, 0.5 * low.config().beta * low.config().max_step);
    assert_masks_match(&low, "under one step");
    check_rollout(&mut env, 10, 17, "exhausted rollout");
}

#[test]
fn masks_match_for_workers_on_the_map_edges_and_station_rims() {
    let mut cfg = EnvConfig::paper_default();
    cfg.num_workers = 12;
    let mut env = CrowdsensingEnv::new(cfg.clone());
    let (sx, sy) = (cfg.size_x, cfg.size_y);
    let spots = [
        Point::new(0.0, 0.0),
        Point::new(sx, 0.0),
        Point::new(0.0, sy),
        Point::new(sx, sy),
        Point::new(sx, 0.5 * sy),
        Point::new(0.5 * sx, sy),
        Point::new(0.0, 0.5 * sy),
        Point::new(0.5 * sx, 0.0),
    ];
    for (wi, p) in spots.iter().enumerate() {
        env.teleport_worker(wi, *p);
    }
    // Station centres and points exactly one range east of a station.
    let st = env.stations()[0].clone();
    env.teleport_worker(8, st.pos);
    env.teleport_worker(9, Point::new(st.pos.x + st.range, st.pos.y));
    env.teleport_worker(10, Point::new(st.pos.x, st.pos.y - st.range));
    env.teleport_worker(11, Point::new(st.pos.x + st.range * 1.0001, st.pos.y));
    assert_masks_match(&env, "edges");
    check_rollout(&mut env, 20, 29, "edges rollout");
}

#[test]
fn station_choice_and_masks_hold_with_unequal_station_ranges() {
    // Hand-placed stations of very different reach: the index is queried
    // with the largest and filtered per station, so a worker charging next
    // to a short-range station with a long-range one also in reach is still
    // served by the lowest free index.
    let mut cfg = EnvConfig::tiny();
    cfg.num_workers = 3;
    cfg.num_pois = 0;
    let workers = vec![Worker::new(Point::new(4.0, 4.0), 40.0); 3];
    let stations = vec![
        ChargingStation::new(Point::new(0.5, 0.5), 6.0),
        ChargingStation::new(Point::new(4.0, 4.0), 0.1),
        ChargingStation::new(Point::new(7.9, 7.9), 0.05),
    ];
    let mut env = CrowdsensingEnv::from_parts(cfg, workers, Vec::new(), stations);
    for wi in 0..3 {
        env.set_worker_energy(wi, 5.0);
    }
    assert_masks_match(&env, "unequal ranges");
    let r = env.step(&[WorkerAction::charge(); 3]);
    let served: Vec<bool> = r.outcomes.iter().map(|o| o.charged > 0.0).collect();
    // Stations 0 and 1 both cover (4, 4); station 2 does not.
    assert_eq!(served, [true, true, false]);
    env.teleport_worker(2, Point::new(7.9, 7.9));
    assert_masks_match(&env, "far corner");
    assert!(env.can_charge(2), "only the short-range corner station covers it");
}
