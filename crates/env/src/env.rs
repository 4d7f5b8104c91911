//! The discrete-time crowdsensing environment.
//!
//! Each call to [`CrowdsensingEnv::step`] advances one time slot: every
//! worker either charges (if validly requested), moves (if the path is
//! legal), or stalls, then collects data from PoIs within its sensing range
//! (Eqn 1) and pays the energy bill of Eqn (3). The environment reports a
//! per-worker [`WorkerOutcome`] from which both the paper's sparse reward
//! (Eqns 18–19) and the dense baseline reward (Eqn 20) are computed.
//!
//! The environment's mutable state lives once, in the [`FleetState`]
//! columns; [`CrowdsensingEnv::workers`] and [`CrowdsensingEnv::pois`] are
//! borrowed views over them (DESIGN.md §16).

use crate::action::{Move, WorkerAction, NUM_MOVES};
use crate::config::EnvConfig;
use crate::entities::{ChargingStation, Poi, Worker};
use crate::fleet::{self, FleetScratch, FleetState, FleetStepView, Pois, Workers};
use crate::geometry::Point;
use crate::metrics::{self, Metrics};
use std::cell::RefCell;
use std::sync::Arc;
use vc_nn::arena;
use vc_telemetry::{Counter, Field, Gauge, Telemetry};

/// What happened to one worker during a slot.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkerOutcome {
    /// Data collected this slot, `q_t^w`.
    pub collected: f32,
    /// Energy consumed this slot, `e_t^w`.
    pub consumed: f32,
    /// Energy charged this slot, `σ_t^w`.
    pub charged: f32,
    /// Distance actually traveled.
    pub traveled: f32,
    /// The worker hit an obstacle or the boundary.
    pub collided: bool,
    /// The worker spent the slot charging.
    pub charging: bool,
    /// Sparse-reward pulse `Υ¹` fired (collection ratio crossed another ε₁).
    pub data_pulse: bool,
    /// Sparse-reward pulse `Υ²` fired (charged ≥ ε₂·b₀ this slot).
    pub charge_pulse: bool,
}

/// Result of one environment step.
#[derive(Clone, Debug)]
pub struct StepResult {
    /// Per-worker outcomes, indexed like the action slice.
    pub outcomes: Vec<WorkerOutcome>,
    /// Time slot index after the step (1-based).
    pub t: usize,
    /// True once the horizon `T` is reached.
    pub done: bool,
}

thread_local! {
    /// Recycled `outcomes` buffers: [`StepResult`] returns its vector here
    /// on drop and [`CrowdsensingEnv::step`] leases it back, so steady-state
    /// stepping reuses the same allocation instead of churning the heap.
    static OUTCOME_SHELF: RefCell<Vec<Vec<WorkerOutcome>>> = const { RefCell::new(Vec::new()) };
}

/// Most `Vec<WorkerOutcome>` buffers kept on the recycle shelf.
const OUTCOME_SHELF_CAP: usize = 8;

impl Drop for StepResult {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.outcomes);
        if buf.capacity() == 0 {
            return;
        }
        // `try_with`: TLS may already be torn down during thread exit.
        let _ = OUTCOME_SHELF.try_with(|shelf| {
            let mut shelf = shelf.borrow_mut();
            if shelf.len() < OUTCOME_SHELF_CAP {
                shelf.push(buf);
            }
        });
    }
}

/// Leases a recycled outcome buffer (empty, capacity preserved).
fn take_outcome_buf() -> Vec<WorkerOutcome> {
    OUTCOME_SHELF
        .try_with(|shelf| shelf.borrow_mut().pop())
        .ok()
        .flatten()
        .map(|mut v| {
            v.clear();
            v
        })
        .unwrap_or_default()
}

/// The simulator.
#[derive(Clone, Debug)]
pub struct CrowdsensingEnv {
    cfg: EnvConfig,
    /// Pristine copy of the scenario, restored by [`Self::reset`]. Hand-
    /// placed scenarios (see `builder`) live only here, not in the seed.
    template: (Vec<Worker>, Vec<Poi>, Vec<ChargingStation>),
    t: usize,
    /// The mutable fleet state, stored once as columns; `workers()`,
    /// `pois()` and `stations()` read through it (DESIGN.md §16).
    fleet: FleetState,
    /// Persistent arena-backed per-step scratch (zero steady-state allocs).
    scratch: FleetScratch,
    /// Cached telemetry handles; `None` until [`Self::set_telemetry`], so
    /// an uninstrumented env pays nothing per step.
    telemetry: Option<EnvTelemetry>,
}

/// Telemetry handles cached at attach time (see `vc_telemetry`'s overhead
/// policy): collision / charge / episode counters plus the per-episode
/// κ/ξ/ρ gauges updated when an episode completes.
#[derive(Clone, Debug)]
struct EnvTelemetry {
    handle: Telemetry,
    collisions: Arc<Counter>,
    charge_slots: Arc<Counter>,
    episodes: Arc<Counter>,
    kappa: Arc<Gauge>,
    xi: Arc<Gauge>,
    rho: Arc<Gauge>,
}

impl CrowdsensingEnv {
    /// Builds and resets an environment from a config (validated).
    ///
    /// # Panics
    ///
    /// On an invalid config; use [`Self::try_new`] to handle the error.
    pub fn new(cfg: EnvConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Self::new`].
    ///
    /// # Errors
    ///
    /// [`crate::error::EnvError::InvalidConfig`] when the config fails
    /// [`EnvConfig::validate`].
    pub fn try_new(cfg: EnvConfig) -> Result<Self, crate::error::EnvError> {
        cfg.validate()?;
        let scenario = crate::scenario::build(&cfg);
        Self::try_from_parts(cfg, scenario.workers, scenario.pois, scenario.stations)
    }

    /// Builds an environment from explicit entities (the `builder` path).
    /// The entities become the reset template.
    ///
    /// # Panics
    ///
    /// On an invalid config; use [`Self::try_from_parts`] to handle the
    /// error.
    pub fn from_parts(
        cfg: EnvConfig,
        workers: Vec<Worker>,
        pois: Vec<Poi>,
        stations: Vec<ChargingStation>,
    ) -> Self {
        Self::try_from_parts(cfg, workers, pois, stations).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Self::from_parts`].
    ///
    /// # Errors
    ///
    /// [`crate::error::EnvError::InvalidConfig`] when the config fails
    /// [`EnvConfig::validate`].
    pub fn try_from_parts(
        cfg: EnvConfig,
        workers: Vec<Worker>,
        pois: Vec<Poi>,
        stations: Vec<ChargingStation>,
    ) -> Result<Self, crate::error::EnvError> {
        cfg.validate()?;
        let mut env = Self {
            cfg,
            template: (workers, pois, stations),
            t: 0,
            fleet: FleetState::default(),
            scratch: FleetScratch::default(),
            telemetry: None,
        };
        env.reset();
        Ok(env)
    }

    /// Attaches a telemetry registry: per-step collision and charge-grant
    /// counters, and a per-episode κ/ξ/ρ event + gauges emitted when the
    /// horizon is reached. Cloned envs share the registry. With a disabled
    /// handle each step pays one relaxed atomic load.
    pub fn set_telemetry(&mut self, handle: Telemetry) {
        self.telemetry = Some(EnvTelemetry {
            collisions: handle.counter("env_collisions_total"),
            charge_slots: handle.counter("env_charge_slots_total"),
            episodes: handle.counter("env_episodes_total"),
            kappa: handle.gauge("env_kappa"),
            xi: handle.gauge("env_xi"),
            rho: handle.gauge("env_rho"),
            handle,
        });
    }

    /// The attached telemetry, only when it is currently enabled.
    fn tel(&self) -> Option<&EnvTelemetry> {
        self.telemetry.as_ref().filter(|t| t.handle.is_on())
    }

    /// Restores the pristine scenario (same map, full batteries, full data)
    /// and rewinds time.
    pub fn reset(&mut self) {
        let (workers, pois, stations) = &self.template;
        self.fleet.load(&self.cfg, workers, pois, stations);
        self.t = 0;
    }

    /// Re-generates a fresh random scenario from a new seed (fresh worker
    /// spawns / PoI draw while keeping all other parameters) and makes it
    /// the new reset template.
    pub fn reset_with_seed(&mut self, seed: u64) {
        self.cfg.seed = seed;
        let scenario = crate::scenario::build(&self.cfg);
        self.template = (scenario.workers, scenario.pois, scenario.stations);
        self.reset();
    }

    // ---- accessors ---------------------------------------------------------

    /// The static configuration.
    pub fn config(&self) -> &EnvConfig {
        &self.cfg
    }

    /// Current worker states, read through the columns.
    pub fn workers(&self) -> Workers<'_> {
        self.fleet.workers()
    }

    /// Current PoI states, read through the columns.
    pub fn pois(&self) -> Pois<'_> {
        self.fleet.pois()
    }

    /// Charging stations.
    pub fn stations(&self) -> &[ChargingStation] {
        &self.fleet.stations
    }

    /// The struct-of-arrays fleet state (columnar read access).
    pub fn fleet(&self) -> &FleetState {
        &self.fleet
    }

    /// Current time slot (0 before the first step).
    pub fn time(&self) -> usize {
        self.t
    }

    /// True once the horizon is reached.
    pub fn done(&self) -> bool {
        self.t >= self.cfg.horizon
    }

    /// Total initial data `Σ_p δ₀^p`.
    pub fn initial_total_data(&self) -> f32 {
        self.fleet.initial_total_data
    }

    /// Current paper metrics (κ, ξ, ρ).
    pub fn metrics(&self) -> Metrics {
        metrics::compute(&self.fleet)
    }

    // ---- scenario surgery ----------------------------------------------------

    /// Moves a worker to an arbitrary position (test/ablation helper; does
    /// not validate obstacles or spend energy).
    pub fn teleport_worker(&mut self, worker: usize, pos: Point) {
        self.fleet.x[worker] = pos.x;
        self.fleet.y[worker] = pos.y;
    }

    /// Overwrites a worker's remaining energy (test/ablation helper).
    pub fn set_worker_energy(&mut self, worker: usize, energy: f32) {
        self.fleet.energy[worker] = energy.clamp(0.0, self.fleet.capacity[worker]);
    }

    /// Overwrites a PoI's remaining data, clamped to `[0, initial]` (the
    /// serving path uses this to project a reported fleet snapshot onto
    /// the policy's training scenario).
    pub fn set_poi_data(&mut self, poi: usize, data: f32) {
        self.fleet.poi_data[poi] = data.clamp(0.0, self.fleet.poi_initial[poi]);
    }

    // ---- queries for planners ----------------------------------------------

    /// Whether the segment `from -> to` is a legal move (inside the space and
    /// not through any obstacle).
    pub fn path_clear(&self, from: &Point, to: &Point) -> bool {
        self.fleet.motion.path_clear(from, to)
    }

    /// The position a worker would reach with `mv`, or `None` if the move is
    /// illegal (collision / boundary) or the worker cannot pay the travel
    /// energy.
    pub fn peek_move(&self, worker: usize, mv: Move) -> Option<Point> {
        let pos = Point::new(self.fleet.x[worker], self.fleet.y[worker]);
        let energy = self.fleet.energy[worker];
        if energy <= 0.0 {
            return if mv == Move::Stay { Some(pos) } else { None };
        }
        let (dx, dy) = mv.displacement(self.cfg.max_step);
        let target = pos.offset(dx, dy);
        if !self.path_clear(&pos, &target) {
            return None;
        }
        let travel_cost = self.cfg.beta * pos.dist(&target);
        if travel_cost > energy {
            return None;
        }
        Some(target)
    }

    /// Per-move legality mask for a worker: `Stay` is always legal, any
    /// other move exactly when [`Self::peek_move`] returns a target. One
    /// worker of [`FleetState::action_masks`].
    pub fn valid_moves(&self, worker: usize) -> [bool; NUM_MOVES] {
        let mut mask = [false; NUM_MOVES];
        self.fleet.move_mask_into(worker, &mut mask);
        mask
    }

    /// Whether a worker is currently within range of any charging station.
    /// One worker of [`FleetState::action_masks`].
    pub fn can_charge(&self, worker: usize) -> bool {
        self.fleet.can_charge(worker)
    }

    /// The data a worker standing at `pos` would collect this slot
    /// (Σ min(λδ₀, δ_t) over in-range PoIs, in ascending PoI order) — the
    /// lookahead quantity used by the Greedy and D&C planners.
    pub fn potential_collection(&self, pos: &Point) -> f32 {
        let f = &self.fleet;
        let mut ids = arena::take_usize(16);
        f.poi_index.in_range_into(*pos, self.cfg.sensing_range, &mut ids);
        let q = ids
            .iter()
            .map(|&i| (self.cfg.collect_rate * f.poi_initial[i]).min(f.poi_data[i]))
            .sum();
        arena::put_usize(ids);
        q
    }

    // ---- dynamics -----------------------------------------------------------

    /// Advances one time slot. `actions` must have one entry per worker.
    ///
    /// Thin wrapper over [`Self::step_fleet`] that materializes the
    /// columnar outcomes into a `Vec<WorkerOutcome>` (recycled across steps
    /// via the drop shelf, so steady-state stepping stays allocation-free).
    pub fn step(&mut self, actions: &[WorkerAction]) -> StepResult {
        let mut outcomes = take_outcome_buf();
        let view = self.step_fleet(actions);
        outcomes.extend((0..actions.len()).map(|wi| view.outcome(wi)));
        let (t, done) = (view.t, view.done);
        StepResult { outcomes, t, done }
    }

    /// Advances one time slot on the struct-of-arrays fast path, returning
    /// a borrowed columnar view of the per-worker outcomes.
    ///
    /// This is the allocation-free fleet-scale entry point: the physics runs
    /// over [`FleetState`] columns in two sequential passes (per-worker
    /// motion, then in-order PoI and station resolution), and the
    /// `workers()` / `pois()` views read the updated columns directly.
    /// Bitwise-identical to the per-entity AoS oracle of
    /// `tests/fleet_equivalence.rs`.
    pub fn step_fleet(&mut self, actions: &[WorkerAction]) -> FleetStepView<'_> {
        assert_eq!(actions.len(), self.fleet.num_workers(), "one action per worker required");
        assert!(!self.done(), "episode already finished; call reset()");

        fleet::step_columns(&self.cfg, &mut self.fleet, &mut self.scratch, actions);

        self.t += 1;
        let done = self.done();
        if let Some(tel) = self.tel() {
            let collided = self.scratch.out_collided.iter().filter(|&&c| c != 0).count() as u64;
            if collided > 0 {
                tel.collisions.add(collided);
            }
            let charged = self.scratch.out_charged.iter().filter(|&&c| c > 0.0).count() as u64;
            if charged > 0 {
                tel.charge_slots.add(charged);
            }
            if done {
                self.emit_episode_telemetry(tel);
            }
        }
        FleetStepView {
            collected: &self.scratch.out_collected,
            consumed: &self.scratch.out_consumed,
            charged: &self.scratch.out_charged,
            traveled: &self.scratch.out_traveled,
            collided: &self.scratch.out_collided,
            charging: &self.scratch.out_charging,
            data_pulse: &self.scratch.out_data_pulse,
            charge_pulse: &self.scratch.out_charge_pulse,
            t: self.t,
            done,
        }
    }

    /// Emits the end-of-episode telemetry event and gauges.
    fn emit_episode_telemetry(&self, tel: &EnvTelemetry) {
        let m = metrics::compute(&self.fleet);
        tel.kappa.set(f64::from(m.data_collection_ratio));
        tel.xi.set(f64::from(m.remaining_data_ratio));
        tel.rho.set(f64::from(m.energy_efficiency));
        tel.episodes.inc();
        let collisions: u64 = self.fleet.collisions.iter().map(|&c| u64::from(c)).sum();
        let charged_total: f64 = self.fleet.total_charged.iter().map(|&c| f64::from(c)).sum();
        tel.handle.event(
            "episode",
            &[
                ("t", Field::U64(self.t as u64)),
                ("kappa", Field::F64(f64::from(m.data_collection_ratio))),
                ("xi", Field::F64(f64::from(m.remaining_data_ratio))),
                ("rho", Field::F64(f64::from(m.energy_efficiency))),
                ("fairness", Field::F64(f64::from(m.fairness_index))),
                ("collisions", Field::U64(collisions)),
                ("charged", Field::F64(charged_total)),
            ],
        );
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::config::EnvConfig;
    use crate::geometry::Rect;

    fn env_with(cfg: EnvConfig) -> CrowdsensingEnv {
        CrowdsensingEnv::new(cfg)
    }

    fn stay_all(env: &CrowdsensingEnv) -> Vec<WorkerAction> {
        vec![WorkerAction::go(Move::Stay); env.workers().len()]
    }

    #[test]
    fn horizon_terminates_episode() {
        let mut env = env_with(EnvConfig::tiny());
        let mut steps = 0;
        while !env.done() {
            env.step(&stay_all(&env));
            steps += 1;
        }
        assert_eq!(steps, env.config().horizon);
    }

    #[test]
    fn telemetry_counts_collisions_and_emits_episode_metrics() {
        let t = Telemetry::new();
        let mut env = env_with(EnvConfig::tiny());
        env.set_telemetry(t.clone());
        // Walking east off the map edge is illegal every slot → collision.
        env.teleport_worker(0, Point::new(7.9, 4.0));
        while !env.done() {
            env.step(&[WorkerAction::go(Move::East)]);
        }
        let horizon = env.config().horizon as u64;
        assert_eq!(t.counter("env_collisions_total").get(), horizon);
        assert_eq!(t.counter("env_episodes_total").get(), 1);
        let m = env.metrics();
        assert_eq!(t.gauge("env_rho").get(), f64::from(m.energy_efficiency));
        // A disabled handle freezes the counters.
        t.set_on(false);
        env.reset();
        env.step(&[WorkerAction::go(Move::East)]);
        assert_eq!(t.counter("env_collisions_total").get(), horizon);
    }

    #[test]
    #[should_panic(expected = "already finished")]
    fn stepping_after_done_panics() {
        let mut env = env_with(EnvConfig::tiny());
        for _ in 0..env.config().horizon {
            env.step(&stay_all(&env));
        }
        env.step(&stay_all(&env));
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut env = env_with(EnvConfig::tiny());
        let initial_pois: Vec<Poi> = env.pois().iter().collect();
        for _ in 0..5 {
            env.step(&[WorkerAction::go(Move::East)]);
        }
        env.reset();
        assert_eq!(env.time(), 0);
        assert_eq!(env.pois().iter().collect::<Vec<_>>(), initial_pois);
        assert_eq!(env.workers().get(0).total_collected, 0.0);
    }

    #[test]
    fn movement_consumes_travel_energy() {
        let mut cfg = EnvConfig::tiny();
        cfg.num_pois = 0;
        let mut env = env_with(cfg);
        let e0 = env.workers().get(0).energy;
        let p0 = env.workers().get(0).pos;
        let mv = Move::ALL
            .iter()
            .copied()
            .find(|&m| m != Move::Stay && env.peek_move(0, m).is_some())
            .expect("some move must be legal");
        let r = env.step(&[WorkerAction::go(mv)]);
        assert!((r.outcomes[0].traveled - env.config().max_step).abs() < 1e-5);
        let expected = env.config().beta * env.config().max_step;
        assert!((e0 - env.workers().get(0).energy - expected).abs() < 1e-5);
        assert!(env.workers().get(0).pos.dist(&p0) > 0.0);
    }

    #[test]
    fn boundary_collision_stalls_and_penalizes() {
        let mut env = env_with(EnvConfig::tiny());
        // March west until the wall rejects the move.
        let mut collided = false;
        for _ in 0..env.config().horizon {
            let r = env.step(&[WorkerAction::go(Move::West)]);
            if r.outcomes[0].collided {
                collided = true;
                assert_eq!(r.outcomes[0].traveled, 0.0);
                break;
            }
        }
        assert!(collided, "never reached the boundary");
        assert!(env.workers().get(0).collisions >= 1);
        assert!(env.workers().get(0).pos.x >= 0.0);
    }

    #[test]
    fn obstacle_blocks_movement() {
        let mut cfg = EnvConfig::tiny();
        // Wall directly covering most of the map's middle.
        cfg.obstacles = vec![Rect::new(3.9, 0.0, 4.1, 8.0)];
        cfg.num_pois = 0;
        cfg.seed = 7;
        let mut env = env_with(cfg);
        // Plant the worker just west of the wall.
        env.teleport_worker(0, Point::new(3.5, 4.0));
        let r = env.step(&[WorkerAction::go(Move::East)]);
        assert!(r.outcomes[0].collided);
        assert_eq!(env.workers().get(0).pos, Point::new(3.5, 4.0));
    }

    #[test]
    fn collection_obeys_rate_cap() {
        let mut cfg = EnvConfig::tiny();
        cfg.num_pois = 1;
        let mut env = env_with(cfg);
        // Teleport the worker onto the PoI and stay: collection is capped at
        // λ·δ₀ per slot.
        let poi_pos = env.pois().get(0).pos;
        let delta0 = env.pois().get(0).initial_data;
        env.teleport_worker(0, poi_pos);
        let r = env.step(&stay_all(&env));
        let expected = env.config().collect_rate * delta0;
        assert!((r.outcomes[0].collected - expected).abs() < 1e-6);
        // Five slots drain it completely (λ = 0.2).
        for _ in 0..5 {
            env.step(&stay_all(&env));
        }
        assert!(env.pois().get(0).data < 1e-6);
        assert_eq!(
            env.metrics().data_collection_ratio,
            env.workers().get(0).total_collected / delta0
        );
    }

    #[test]
    fn collection_costs_alpha_energy() {
        let mut cfg = EnvConfig::tiny();
        cfg.num_pois = 1;
        let mut env = env_with(cfg);
        env.teleport_worker(0, env.pois().get(0).pos);
        let e0 = env.workers().get(0).energy;
        let r = env.step(&stay_all(&env));
        let expected = env.config().alpha * r.outcomes[0].collected; // no travel
        assert!((e0 - env.workers().get(0).energy - expected).abs() < 1e-5);
    }

    #[test]
    fn charging_requires_station_range() {
        let mut cfg = EnvConfig::tiny();
        cfg.num_pois = 0;
        let mut env = env_with(cfg.clone());
        let station = env.stations()[0].pos;
        // Out of range: no energy gained.
        env.teleport_worker(
            0,
            Point::new((station.x + 3.0).min(cfg.size_x), (station.y + 3.0).min(cfg.size_y)),
        );
        env.set_worker_energy(0, 10.0);
        let r = env.step(&[WorkerAction::charge()]);
        assert_eq!(r.outcomes[0].charged, 0.0);
        // In range: gains charge_rate (capped by capacity headroom).
        env.teleport_worker(0, station);
        let r = env.step(&[WorkerAction::charge()]);
        let expected = env.config().charge_rate.min(env.workers().get(0).capacity - 10.0);
        assert!((r.outcomes[0].charged - expected).abs() < 1e-5);
        assert!(r.outcomes[0].charge_pulse); // 20/40 ≥ ε₂ = 0.4
    }

    #[test]
    fn charge_capped_at_capacity() {
        let mut cfg = EnvConfig::tiny();
        cfg.num_pois = 0;
        let mut env = env_with(cfg);
        env.teleport_worker(0, env.stations()[0].pos);
        // Nearly full battery: tiny top-up, and no ε₂ pulse.
        env.set_worker_energy(0, env.workers().get(0).capacity - 1.0);
        let r = env.step(&[WorkerAction::charge()]);
        assert!((r.outcomes[0].charged - 1.0).abs() < 1e-5);
        assert!(!r.outcomes[0].charge_pulse);
        assert_eq!(env.workers().get(0).energy, env.workers().get(0).capacity);
    }

    #[test]
    fn station_serves_one_worker_per_slot() {
        let mut cfg = EnvConfig::tiny();
        cfg.num_workers = 2;
        cfg.num_pois = 0;
        let mut env = env_with(cfg);
        let station = env.stations()[0].pos;
        env.teleport_worker(0, station);
        env.teleport_worker(1, station);
        env.set_worker_energy(0, 5.0);
        env.set_worker_energy(1, 5.0);
        let r = env.step(&[WorkerAction::charge(), WorkerAction::charge()]);
        assert!(r.outcomes[0].charged > 0.0, "first worker wins the station");
        assert_eq!(r.outcomes[1].charged, 0.0, "second worker is crowded out");
    }

    #[test]
    fn exhausted_worker_cannot_move() {
        let mut cfg = EnvConfig::tiny();
        cfg.num_pois = 0;
        let mut env = env_with(cfg);
        env.set_worker_energy(0, 0.0);
        let p0 = env.workers().get(0).pos;
        let r = env.step(&[WorkerAction::go(Move::East)]);
        assert_eq!(env.workers().get(0).pos, p0);
        assert_eq!(r.outcomes[0].traveled, 0.0);
        assert!(!r.outcomes[0].collided, "exhaustion is a stall, not a collision");
    }

    #[test]
    fn data_pulse_fires_on_epsilon1_crossings() {
        let mut cfg = EnvConfig::tiny();
        cfg.num_pois = 1;
        cfg.epsilon1 = 0.05;
        let mut env = env_with(cfg);
        env.teleport_worker(0, env.pois().get(0).pos);
        // Each slot collects λ = 20% of the single PoI's data, which is 20%
        // of total data: every collecting slot crosses ε₁ = 5%.
        let r = env.step(&stay_all(&env));
        assert!(r.outcomes[0].data_pulse);
    }

    #[test]
    fn valid_moves_mask_is_consistent_with_peek() {
        let env = env_with(EnvConfig::paper_default());
        for wi in 0..env.workers().len() {
            let mask = env.valid_moves(wi);
            for (i, m) in Move::ALL.iter().enumerate() {
                if *m == Move::Stay {
                    assert!(mask[i]);
                } else {
                    assert_eq!(mask[i], env.peek_move(wi, *m).is_some());
                }
            }
        }
    }

    #[test]
    fn potential_collection_matches_actual() {
        let mut cfg = EnvConfig::tiny();
        cfg.num_pois = 10;
        let mut env = env_with(cfg);
        let pos = env.pois().get(0).pos;
        env.teleport_worker(0, pos);
        let predicted = env.potential_collection(&pos);
        let r = env.step(&stay_all(&env));
        assert!((predicted - r.outcomes[0].collected).abs() < 1e-5);
    }

    #[test]
    fn energy_never_negative_data_never_grows() {
        let mut env = env_with(EnvConfig::paper_default());
        let moves = [Move::East, Move::North, Move::SouthWest, Move::Stay, Move::West];
        let mut prev_remaining: f32 = env.pois().iter().map(|p| p.data).sum();
        for k in 0..env.config().horizon {
            let acts: Vec<WorkerAction> = (0..env.workers().len())
                .map(|w| WorkerAction::go(moves[(k + w) % moves.len()]))
                .collect();
            env.step(&acts);
            for w in env.workers().iter() {
                assert!(w.energy >= 0.0, "negative energy");
                assert!(w.energy <= w.capacity + 1e-4);
            }
            let remaining: f32 = env.pois().iter().map(|p| p.data).sum();
            assert!(remaining <= prev_remaining + 1e-4, "data regrew");
            prev_remaining = remaining;
        }
    }
}
