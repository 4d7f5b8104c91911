//! The cached-cell state encoder against the AoS scan it replaced.
//!
//! `vc_env::state::encode` reads the obstacle layer and each PoI's grid
//! cell from caches built when the env loads its columns, and sums the PoI
//! data and access channels from the `FleetState` columns. The reference
//! below is the previous encoder, verbatim in behavior: it re-tests every
//! grid cell against every obstacle and walks the AoS `pois()` view,
//! recomputing `cell_of` per PoI. The two must agree bit for bit on every
//! scenario family, after steps, after `reset` / `reset_with_seed`, and
//! after the serving path's snapshot projection (`set_poi_data` through
//! `batcher::apply_snapshot`). The test lives in vc-serve because that
//! projection does.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vc_env::prelude::*;
use vc_env::scenario_gen::generate;
use vc_env::state::{cell_of, OBSTACLE_MARK, STATION_MARK};
use vc_serve::batcher::apply_snapshot;
use vc_serve::protocol::{ScheduleRequest, WorkerState};

/// The AoS-scan encoder the cached version replaced.
fn reference_encode(env: &CrowdsensingEnv) -> Vec<f32> {
    let cfg = env.config();
    let g2 = cfg.grid * cfg.grid;
    let idx = |cx: usize, cy: usize| cy * cfg.grid + cx;
    let mut out = vec![0.0f32; 3 * g2];
    let (ch_workers, rest) = out.split_at_mut(g2);
    let (ch_map, ch_access) = rest.split_at_mut(g2);

    let w_total = env.workers().len() as f32;
    for (wi, w) in env.workers().iter().enumerate() {
        let (cx, cy) = cell_of(cfg, &w.pos);
        ch_workers[idx(cx, cy)] += if cfg.paper_worker_channel {
            w.energy_ratio()
        } else {
            (wi as f32 + 1.0 + 0.5 * w.energy_ratio()) / w_total
        };
    }
    for cy in 0..cfg.grid {
        for cx in 0..cfg.grid {
            let (x0, y0) = (cx as f32 * cfg.cell_x(), cy as f32 * cfg.cell_y());
            let (x1, y1) = (x0 + cfg.cell_x(), y0 + cfg.cell_y());
            if cfg.obstacles.iter().any(|r| r.overlaps_box(x0, y0, x1, y1)) {
                ch_map[idx(cx, cy)] = OBSTACLE_MARK;
            }
        }
    }
    for p in env.pois().iter() {
        let (cx, cy) = cell_of(cfg, &p.pos);
        ch_map[idx(cx, cy)] += p.data;
    }
    for s in env.stations() {
        let (cx, cy) = cell_of(cfg, &s.pos);
        ch_map[idx(cx, cy)] += STATION_MARK;
    }
    let horizon = cfg.horizon as f32;
    for p in env.pois().iter() {
        let (cx, cy) = cell_of(cfg, &p.pos);
        ch_access[idx(cx, cy)] += p.access_time as f32 / horizon;
    }
    out
}

fn assert_encodings_match(env: &CrowdsensingEnv, label: &str) {
    let fast = encode(env);
    let slow = reference_encode(env);
    assert_eq!(fast.len(), slow.len(), "{label}: length");
    for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: element {i} is {a}, reference {b}");
    }
}

fn random_actions(n: usize, rng: &mut StdRng) -> Vec<WorkerAction> {
    (0..n)
        .map(|_| {
            if rng.gen::<f32>() < 0.2 {
                WorkerAction::charge()
            } else {
                WorkerAction::go(Move::from_index(rng.gen_range(0..NUM_MOVES)))
            }
        })
        .collect()
}

/// Steps `env` for `slots` slots, checking the encoding before each.
fn step_and_check(env: &mut CrowdsensingEnv, slots: usize, rng: &mut StdRng, label: &str) {
    for k in 0..slots {
        if env.done() {
            break;
        }
        assert_encodings_match(env, &format!("{label} slot {k}"));
        let actions = random_actions(env.workers().len(), rng);
        env.step(&actions);
    }
    assert_encodings_match(env, &format!("{label} after steps"));
}

#[test]
fn every_family_encodes_identically_through_steps_and_resets() {
    for family in ScenarioFamily::ALL {
        let label = format!("{family:?}");
        let scn = generate(family, 23).unwrap_or_else(|e| panic!("{label}: {e}"));
        let mut env = scn.try_env().unwrap_or_else(|e| panic!("{label}: {e}"));
        let mut rng = StdRng::seed_from_u64(0xE4C0DE);
        step_and_check(&mut env, 30, &mut rng, &label);
        env.reset();
        assert_encodings_match(&env, &format!("{label} after reset"));
        step_and_check(&mut env, 10, &mut rng, &format!("{label} after reset"));
        env.reset_with_seed(9001);
        assert_encodings_match(&env, &format!("{label} after reset_with_seed"));
        step_and_check(&mut env, 10, &mut rng, &format!("{label} after reset_with_seed"));
    }
}

#[test]
fn poi_overwrites_and_snapshots_encode_identically() {
    for family in ScenarioFamily::ALL {
        let label = format!("{family:?}");
        let mut env = generate(family, 61).unwrap().try_env().unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        step_and_check(&mut env, 5, &mut rng, &label);

        for pi in (0..env.pois().len()).step_by(3) {
            let d = rng.gen_range(-1.0f32..2.0) * env.pois().get(pi).initial_data;
            env.set_poi_data(pi, d);
        }
        assert_encodings_match(&env, &format!("{label} after set_poi_data"));

        let (sx, sy) = (env.config().size_x, env.config().size_y);
        let req = ScheduleRequest {
            id: 1,
            deadline_ms: 0,
            workers: (0..env.workers().len())
                .map(|_| WorkerState {
                    x: rng.gen_range(-5.0..sx + 5.0),
                    y: rng.gen_range(-5.0..sy + 5.0),
                    energy: rng.gen_range(0.0..env.config().initial_energy),
                })
                .collect(),
            poi_data: (0..env.pois().len() + 3).map(|_| rng.gen_range(0.0f32..1.5)).collect(),
        };
        apply_snapshot(&mut env, &req);
        assert_encodings_match(&env, &format!("{label} after apply_snapshot"));
        step_and_check(&mut env, 5, &mut rng, &format!("{label} after apply_snapshot"));
    }
}
