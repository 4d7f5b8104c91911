//! Differential property suite for the struct-of-arrays stepping engine:
//! `CrowdsensingEnv::step` (the columnar `step_fleet` path) must be
//! **bitwise** identical to `step_reference` below (the per-entity AoS
//! loop, kept here as the oracle) — same outcomes, same worker state, same
//! PoI drain, same κ/ξ/ρ — across every scenario family, degenerate fleet
//! shapes, and a fleet of more than a thousand workers.
//!
//! `f32` equality on non-NaN values is bit equality, so `assert_eq!` over
//! the `PartialEq` entity structs is exactly the "SoA ≡ AoS bitwise" claim.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vc_env::prelude::*;
use vc_env::scenario_gen::generate;

/// The oracle's own AoS copy of the fleet, snapshotted from an env before
/// its first step.
struct AosState {
    cfg: EnvConfig,
    workers: Vec<Worker>,
    pois: Vec<Poi>,
    stations: Vec<ChargingStation>,
    initial_total_data: f32,
    /// Per-worker collection ratio at the last Υ¹ pulse.
    sparse_level: Vec<f32>,
    t: usize,
}

impl AosState {
    fn snapshot(env: &CrowdsensingEnv) -> Self {
        let pois: Vec<Poi> = env.pois().iter().collect();
        Self {
            cfg: env.config().clone(),
            workers: env.workers().iter().collect(),
            initial_total_data: pois.iter().map(|p| p.initial_data).sum(),
            pois,
            stations: env.stations().to_vec(),
            sparse_level: vec![0.0; env.workers().len()],
            t: env.time(),
        }
    }

    fn done(&self) -> bool {
        self.t >= self.cfg.horizon
    }
}

/// Whether the segment `from -> to` stays inside the map and clear of every
/// obstacle.
fn path_clear(cfg: &EnvConfig, from: &Point, to: &Point) -> bool {
    if to.x < 0.0 || to.x > cfg.size_x || to.y < 0.0 || to.y > cfg.size_y {
        return false;
    }
    !cfg.obstacles.iter().any(|r| r.intersects_segment(from, to))
}

/// The per-entity AoS step loop: workers resolve in index order, each
/// scanning every station and every PoI.
fn step_reference(s: &mut AosState, actions: &[WorkerAction]) -> Vec<WorkerOutcome> {
    assert_eq!(actions.len(), s.workers.len(), "one action per worker required");
    assert!(!s.done(), "episode already finished");

    let mut outcomes = vec![WorkerOutcome::default(); s.workers.len()];
    // Stations serve one worker per slot (the paper's charging
    // competition); earlier-indexed workers win ties.
    let mut station_busy = vec![false; s.stations.len()];

    for (wi, action) in actions.iter().enumerate() {
        let out = &mut outcomes[wi];
        let (start, energy, capacity, exhausted) = {
            let w = &s.workers[wi];
            (w.pos, w.energy, w.capacity, w.exhausted())
        };

        if action.charge {
            out.charging = true;
            let slot = s
                .stations
                .iter()
                .enumerate()
                .find(|(si, st)| !station_busy[*si] && st.in_range(&start));
            if let Some((si, _)) = slot {
                station_busy[si] = true;
                let sigma = s.cfg.charge_rate.min(capacity - energy).max(0.0);
                let worker = &mut s.workers[wi];
                worker.energy += sigma;
                worker.total_charged += sigma;
                out.charged = sigma;
                out.charge_pulse = sigma / capacity >= s.cfg.epsilon2;
            }
            // An out-of-range (or crowded-out) charge request wastes the
            // slot but costs nothing.
            continue;
        }

        if exhausted {
            continue; // b_t = 0 ⇒ the worker stops movement.
        }

        // Route planning.
        let (dx, dy) = action.movement.displacement(s.cfg.max_step);
        let target = start.offset(dx, dy);
        let legal = action.movement == Move::Stay
            || (path_clear(&s.cfg, &start, &target) && s.cfg.beta * start.dist(&target) <= energy);

        let end = if legal {
            target
        } else {
            s.workers[wi].collisions += 1;
            out.collided = true;
            start
        };
        let traveled = start.dist(&end);
        out.traveled = traveled;

        // Data collection from PoIs within the sensing range of the new
        // position (workers are processed in index order, so earlier
        // workers drain shared PoIs first — the paper's competition).
        let mut q = 0.0;
        let g = s.cfg.sensing_range;
        let lambda = s.cfg.collect_rate;
        for poi in &mut s.pois {
            if poi.pos.dist(&end) <= g {
                q += poi.collect(lambda);
            }
        }

        // Energy accounting (Eqn 3), floored at an empty battery.
        let e = s.cfg.beta * traveled + s.cfg.alpha * q;
        let consumed = e.min(energy);
        let worker = &mut s.workers[wi];
        worker.pos = end;
        worker.energy -= consumed;
        worker.total_collected += q;
        worker.total_consumed += consumed;
        out.collected = q;
        out.consumed = consumed;

        // Sparse-reward Υ¹ bookkeeping: pulse each time the per-worker
        // collection ratio climbs another ε₁ above the last pulse level.
        if s.initial_total_data > 0.0 {
            let ratio = worker.total_collected / s.initial_total_data;
            if ratio - s.sparse_level[wi] >= s.cfg.epsilon1 {
                s.sparse_level[wi] = ratio;
                out.data_pulse = true;
            }
        }
    }

    s.t += 1;
    outcomes
}

/// κ/ξ/ρ of Definitions 4–6 over the AoS entities.
fn reference_metrics(workers: &[Worker], pois: &[Poi]) -> Metrics {
    let initial_total: f32 = pois.iter().map(|p| p.initial_data).sum();
    let collected_total: f32 = workers.iter().map(|w| w.total_collected).sum();
    let kappa = if initial_total > 0.0 { (collected_total / initial_total).min(1.0) } else { 0.0 };
    let xi = if pois.is_empty() {
        0.0
    } else {
        pois.iter().map(Poi::remaining_fraction).sum::<f32>() / pois.len() as f32
    };
    let fairness = jain_index(pois.iter().map(Poi::collected_fraction));
    let per_worker_eff = if workers.is_empty() {
        0.0
    } else {
        workers
            .iter()
            .map(
                |w| if w.total_consumed > 0.0 { w.total_collected / w.total_consumed } else { 0.0 },
            )
            .sum::<f32>()
            / workers.len() as f32
    };
    Metrics {
        data_collection_ratio: kappa,
        remaining_data_ratio: xi,
        energy_efficiency: fairness * per_worker_eff,
        fairness_index: fairness,
    }
}

/// Mixed action stream: mostly movement (all 9 moves), some charge requests
/// so station competition is exercised.
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

/// Steps `soa` on the columnar path and an AoS snapshot of it through
/// `step_reference` with identical actions, asserting full bitwise state
/// agreement after every slot.
fn assert_paths_identical(soa: &mut CrowdsensingEnv, steps: usize, rng: &mut StdRng, label: &str) {
    let mut reference = AosState::snapshot(soa);
    for k in 0..steps {
        if soa.done() {
            break;
        }
        let actions = random_actions(soa.workers().len(), rng);
        let ra = soa.step(&actions);
        let rb = step_reference(&mut reference, &actions);
        assert_eq!(ra.outcomes, rb, "{label}: outcomes diverged at step {k}");
        assert_eq!(ra.t, reference.t, "{label}: time diverged at step {k}");
        assert_eq!(ra.done, reference.done(), "{label}: done flag diverged at step {k}");
        let workers: Vec<Worker> = soa.workers().iter().collect();
        assert_eq!(workers, reference.workers, "{label}: workers diverged at step {k}");
        let pois: Vec<Poi> = soa.pois().iter().collect();
        assert_eq!(pois, reference.pois, "{label}: PoIs diverged at step {k}");
    }
    let (ma, mb) = (soa.metrics(), reference_metrics(&reference.workers, &reference.pois));
    assert_eq!(ma.data_collection_ratio, mb.data_collection_ratio, "{label}: κ diverged");
    assert_eq!(ma.remaining_data_ratio, mb.remaining_data_ratio, "{label}: ξ diverged");
    assert_eq!(ma.energy_efficiency, mb.energy_efficiency, "{label}: ρ diverged");
    assert_eq!(ma.fairness_index, mb.fairness_index, "{label}: fairness diverged");
}

#[test]
fn all_five_families_step_bitwise_identically() {
    for family in ScenarioFamily::ALL {
        for seed in [11u64, 407u64] {
            let scn = generate(family, seed).unwrap_or_else(|e| panic!("{family:?}/{seed}: {e}"));
            let mut soa = scn.try_env().unwrap_or_else(|e| panic!("{family:?}/{seed}: {e}"));
            let mut rng = StdRng::seed_from_u64(seed ^ 0xF1EE7);
            let label = format!("{family:?}/{seed}");
            assert_paths_identical(&mut soa, 50, &mut rng, &label);
        }
    }
}

#[test]
fn degenerate_fleet_with_zero_alive_workers() {
    let mut soa = CrowdsensingEnv::new(EnvConfig::paper_default());
    for wi in 0..soa.workers().len() {
        soa.set_worker_energy(wi, 0.0);
    }
    let mut rng = StdRng::seed_from_u64(99);
    assert_paths_identical(&mut soa, 20, &mut rng, "all-exhausted");
    assert!(soa.workers().iter().all(|w| w.exhausted()), "fleet should stay dead");
}

#[test]
fn degenerate_fleet_stacked_on_one_cell() {
    let mut cfg = EnvConfig::paper_default();
    cfg.num_workers = 6;
    let mut soa = CrowdsensingEnv::new(cfg);
    // Pile every worker onto the first station: maximal PoI/station
    // contention, where index-order resolution matters most.
    let spot = soa.stations()[0].pos;
    for wi in 0..soa.workers().len() {
        soa.teleport_worker(wi, spot);
    }
    let mut rng = StdRng::seed_from_u64(123);
    assert_paths_identical(&mut soa, 30, &mut rng, "stacked");
}

#[test]
fn degenerate_fleet_with_more_workers_than_pois() {
    let mut cfg = EnvConfig::tiny();
    cfg.num_workers = 8;
    cfg.num_pois = 3;
    cfg.seed = 5;
    let mut soa = CrowdsensingEnv::new(cfg);
    let mut rng = StdRng::seed_from_u64(321);
    assert_paths_identical(&mut soa, 30, &mut rng, "workers>pois");
}

#[test]
fn fleet_above_a_thousand_workers_matches_the_oracle() {
    let mut cfg = EnvConfig::paper_default();
    cfg.size_x = 64.0;
    cfg.size_y = 64.0;
    cfg.grid = 16;
    cfg.num_workers = 1124;
    cfg.num_pois = 800;
    cfg.num_stations = 16;
    cfg.obstacles.clear();
    cfg.seed = 77;
    let mut soa = CrowdsensingEnv::new(cfg);
    let mut rng = StdRng::seed_from_u64(777);
    assert_paths_identical(&mut soa, 4, &mut rng, "w=1124");
}
