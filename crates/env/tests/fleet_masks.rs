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

/// Stations in the corners, on the edges, inside and off a map whose
/// sides are not a multiple of the largest range, with unequal ranges:
/// exact in binary, so `station ± range` is exactly `range` away.
fn rim_stations(size_x: f32, size_y: f32) -> Vec<ChargingStation> {
    vec![
        // Off the map: they reach only off-map positions.
        ChargingStation::new(Point::new(3.0, -2.0), 1.0),
        ChargingStation::new(Point::new(5.0, size_y + 3.0), 1.0),
        ChargingStation::new(Point::new(0.0, 0.0), 0.75),
        ChargingStation::new(Point::new(size_x, 0.0), 1.25),
        ChargingStation::new(Point::new(0.0, size_y), 0.375),
        ChargingStation::new(Point::new(size_x, size_y), 2.0),
        ChargingStation::new(Point::new(5.0, 0.0), 0.625),
        ChargingStation::new(Point::new(size_x, 3.125), 0.25),
        ChargingStation::new(Point::new(0.0, 4.5), 0.5),
        ChargingStation::new(Point::new(4.5, 4.5), 0.875),
    ]
}

/// Each worker's charge grant when all of them request charging: the
/// linear scan in worker order, one worker per station.
fn oracle_grants(stations: &[ChargingStation], spots: &[Point]) -> Vec<bool> {
    let mut busy = vec![false; stations.len()];
    spots
        .iter()
        .map(|p| match (0..stations.len()).find(|&si| !busy[si] && stations[si].in_range(p)) {
            Some(si) => {
                busy[si] = true;
                true
            }
            None => false,
        })
        .collect()
}

/// Builds a PoI-free env on `stations` with one worker at each spot,
/// checks the masks against the per-worker loop, then has every worker
/// request charging and checks who is served against the linear scan.
fn check_spots(cfg: &EnvConfig, stations: &[ChargingStation], spots: &[Point], label: &str) {
    let mut cfg = cfg.clone();
    cfg.num_workers = spots.len();
    cfg.num_pois = 0;
    cfg.num_stations = stations.len();
    let workers: Vec<Worker> = spots.iter().map(|&p| Worker::new(p, 40.0)).collect();
    let mut env = CrowdsensingEnv::from_parts(cfg, workers, Vec::new(), stations.to_vec());
    // `from_parts` keeps the positions as given, NaN and off-map included.
    for (wi, p) in spots.iter().enumerate() {
        let got = env.workers().get(wi).pos;
        assert_eq!((got.x.to_bits(), got.y.to_bits()), (p.x.to_bits(), p.y.to_bits()));
    }
    assert_masks_match(&env, label);
    // Half-empty batteries, so every served worker charges a positive amount.
    for wi in 0..spots.len() {
        env.set_worker_energy(wi, 20.0);
    }
    let r = env.step(&vec![WorkerAction::charge(); spots.len()]);
    let served: Vec<bool> = r.outcomes.iter().map(|o| o.charged > 0.0).collect();
    for (wi, &want) in oracle_grants(stations, spots).iter().enumerate() {
        assert_eq!(served[wi], want, "{label}: charge grant of worker {wi} at {:?}", spots[wi]);
    }
}

/// The flat config the station-reach cases run on: 10.25 × 7.75, no
/// obstacles, so a cell of the largest range (2.0) does not divide it.
fn rim_config() -> EnvConfig {
    let mut cfg = EnvConfig::tiny();
    cfg.size_x = 10.25;
    cfg.size_y = 7.75;
    cfg
}

#[test]
fn charge_masks_hold_at_exactly_the_range_and_one_ulp_beyond() {
    let cfg = rim_config();
    let stations = rim_stations(cfg.size_x, cfg.size_y);
    let mut spots = Vec::new();
    for s in &stations {
        let (x, y, r) = (s.pos.x, s.pos.y, s.range);
        for (px, py) in [(x + r, y), (x - r, y), (x, y + r), (x, y - r)] {
            let exact = Point::new(px, py);
            assert_eq!(s.pos.dist(&exact), r, "{exact:?} must sit exactly on the rim");
            spots.push(exact);
        }
        // One ulp beyond the rim and one ulp inside it, in each direction.
        spots.extend([
            Point::new((x + r).next_up(), y),
            Point::new((x - r).next_down(), y),
            Point::new(x, (y + r).next_up()),
            Point::new(x, (y - r).next_down()),
            Point::new((x + r).next_down(), y),
            Point::new((x - r).next_up(), y),
            Point::new(x, (y + r).next_down()),
            Point::new(x, (y - r).next_up()),
        ]);
    }
    // Each case alone, so the one-per-station grants do not hide a miss.
    for (i, p) in spots.iter().enumerate() {
        check_spots(&cfg, &stations, &[*p], &format!("rim spot {i}"));
    }
    check_spots(&cfg, &stations, &spots, "all rim spots");
}

#[test]
fn charge_masks_hold_across_the_cells_around_every_station() {
    // A 1/16 lattice from half a unit outside the map to half a unit past
    // it: every cell next to a flagged one, the map edges and the partial
    // last row and column of cells.
    let cfg = rim_config();
    let stations = rim_stations(cfg.size_x, cfg.size_y);
    let step = 0.0625f32;
    let (nx, ny) = (((cfg.size_x + 1.0) / step) as i32, ((cfg.size_y + 1.0) / step) as i32);
    let spots: Vec<Point> = (0..=ny)
        .flat_map(|j| {
            (0..=nx).map(move |i| Point::new(-0.5 + i as f32 * step, -0.5 + j as f32 * step))
        })
        .collect();
    let mut spots = spots;
    // A ring of points on and a few ulps either side of every rim, where
    // rounding inside `dist` decides the answer.
    for s in &stations {
        for k in 0..48 {
            let (sin, cos) = (k as f32 * std::f32::consts::TAU / 48.0).sin_cos();
            let on = Point::new(s.pos.x + s.range * cos, s.pos.y + s.range * sin);
            let mut x = on.x.next_down().next_down();
            for _ in 0..5 {
                spots.push(Point::new(x, on.y));
                x = x.next_up();
            }
        }
    }
    let reachable = spots.iter().filter(|p| stations.iter().any(|s| s.in_range(p))).count();
    assert!(reachable > 0 && reachable < spots.len() / 4, "{reachable} of {}", spots.len());
    check_spots(&cfg, &stations, &spots, "lattice");
}

#[test]
fn charge_masks_hold_for_negative_nan_and_off_map_positions() {
    let cfg = rim_config();
    let stations = rim_stations(cfg.size_x, cfg.size_y);
    let (sx, sy) = (cfg.size_x, cfg.size_y);
    let spots = [
        // In range of the corner station at the origin, yet off the map.
        Point::new(-0.75, 0.0),
        Point::new(0.0, -0.75),
        Point::new(-0.5, -0.5),
        Point::new(-0.0, -0.0),
        Point::new(-1e-7, 0.25),
        Point::new(-3.0, 4.0),
        // Past the far edges, in range of the far-corner station.
        Point::new(sx + 2.0, sy),
        Point::new(sx, sy + 2.0),
        Point::new(sx + 1.0, sy + 1.0),
        Point::new(sx + 100.0, 3.125),
        Point::new(f32::NAN, 0.0),
        Point::new(0.0, f32::NAN),
        Point::new(f32::NAN, f32::NAN),
        // In range of the off-map stations only.
        Point::new(3.0, -1.5),
        Point::new(3.0, -1.0),
        Point::new(5.0, sy + 2.5),
        Point::new(5.0, sy + 2.0),
        Point::new(f32::NEG_INFINITY, 0.0),
        Point::new(f32::INFINITY, f32::INFINITY),
    ];
    for (i, p) in spots.iter().enumerate() {
        check_spots(&cfg, &stations, &[*p], &format!("off-map spot {i} {p:?}"));
    }
    assert!(stations[2].in_range(&spots[0]) && stations[5].in_range(&spots[6]));
    assert!(stations[0].in_range(&spots[13]) && stations[1].in_range(&spots[15]));
}

#[test]
fn exhausted_workers_may_only_stay_even_where_travel_is_free() {
    // With `beta = 0` no move costs energy, so only the exhausted test
    // keeps an empty battery from moving.
    let mut cfg = EnvConfig::paper_default();
    cfg.beta = 0.0;
    let mut env = CrowdsensingEnv::new(cfg);
    env.set_worker_energy(0, 0.0);
    assert_masks_match(&env, "free travel");
    let stay = Move::Stay.index();
    assert!(env.valid_moves(0).iter().enumerate().all(|(mi, &ok)| ok == (mi == stay)));
    assert!(env.valid_moves(1).iter().filter(|&&ok| ok).count() > 1);
}
