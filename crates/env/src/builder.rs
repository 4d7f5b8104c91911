//! Fluent scenario construction for custom maps.
//!
//! [`MapBuilder`] assembles an [`EnvConfig`] plus explicit entity placements
//! (PoIs, stations, worker spawns) for scenarios that the seeded random
//! generator cannot express — benchmark fixtures, regression scenarios, and
//! the hand-designed maps of downstream applications.

use crate::config::EnvConfig;
use crate::entities::{ChargingStation, Poi, Worker};
use crate::env::CrowdsensingEnv;
use crate::error::EnvError;
use crate::geometry::{Point, Rect};

/// Builder for hand-placed scenarios.
#[derive(Clone, Debug)]
pub struct MapBuilder {
    cfg: EnvConfig,
    pois: Vec<(Point, f32)>,
    stations: Vec<Point>,
    spawns: Vec<Point>,
}

impl MapBuilder {
    /// Starts from an empty `size × size` space with no random entities.
    pub fn new(size_x: f32, size_y: f32, grid: usize) -> Self {
        let mut cfg = EnvConfig::paper_default();
        cfg.size_x = size_x;
        cfg.size_y = size_y;
        cfg.grid = grid;
        cfg.obstacles.clear();
        cfg.num_pois = 0;
        cfg.num_stations = 0;
        cfg.num_workers = 0;
        Self { cfg, pois: Vec::new(), stations: Vec::new(), spawns: Vec::new() }
    }

    /// Sets the episode horizon.
    pub fn horizon(mut self, t: usize) -> Self {
        self.cfg.horizon = t;
        self
    }

    /// Sets the initial energy budget b₀.
    pub fn energy(mut self, b0: f32) -> Self {
        self.cfg.initial_energy = b0;
        self
    }

    /// Adds a rectangular obstacle.
    pub fn obstacle(mut self, x0: f32, y0: f32, x1: f32, y1: f32) -> Self {
        self.cfg.obstacles.push(Rect::new(x0, y0, x1, y1));
        self
    }

    /// Adds a PoI with initial data `delta0`.
    pub fn poi(mut self, x: f32, y: f32, delta0: f32) -> Self {
        assert!(delta0 > 0.0, "PoI data must be positive");
        self.pois.push((Point::new(x, y), delta0));
        self
    }

    /// Adds a line of `n` equally spaced PoIs from `(x0,y0)` to `(x1,y1)`.
    pub fn poi_line(mut self, x0: f32, y0: f32, x1: f32, y1: f32, n: usize, delta0: f32) -> Self {
        assert!(n >= 1);
        for i in 0..n {
            let t = if n == 1 { 0.5 } else { i as f32 / (n - 1) as f32 };
            self.pois.push((Point::new(x0 + t * (x1 - x0), y0 + t * (y1 - y0)), delta0));
        }
        self
    }

    /// Adds a charging station.
    pub fn station(mut self, x: f32, y: f32) -> Self {
        self.stations.push(Point::new(x, y));
        self
    }

    /// Adds a worker spawn point.
    pub fn worker(mut self, x: f32, y: f32) -> Self {
        self.spawns.push(Point::new(x, y));
        self
    }

    /// Overrides any other config field.
    pub fn configure(mut self, f: impl FnOnce(&mut EnvConfig)) -> Self {
        f(&mut self.cfg);
        self
    }

    /// The resulting config (counts synced to the placed entities).
    pub fn config(&self) -> EnvConfig {
        let mut cfg = self.cfg.clone();
        cfg.num_pois = self.pois.len();
        cfg.num_stations = self.stations.len();
        cfg.num_workers = self.spawns.len();
        cfg
    }

    /// Builds the environment with the hand-placed entities.
    ///
    /// # Panics
    ///
    /// If no worker spawn was added or an entity sits inside an obstacle;
    /// use [`Self::try_build`] to handle the error.
    pub fn build(self) -> CrowdsensingEnv {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Self::build`].
    ///
    /// # Errors
    ///
    /// [`EnvError::NoWorkerSpawn`] without a spawn point,
    /// [`EnvError::InvalidConfig`] when the synthesized config is
    /// inconsistent, and [`EnvError::EntityInObstacle`] when a PoI, spawn or
    /// station lands inside an obstacle rectangle.
    pub fn try_build(self) -> Result<CrowdsensingEnv, EnvError> {
        if self.spawns.is_empty() {
            return Err(EnvError::NoWorkerSpawn);
        }
        let cfg = self.config();
        cfg.validate()?;
        for (p, _) in &self.pois {
            if cfg.obstacles.iter().any(|r| r.contains(p)) {
                return Err(EnvError::EntityInObstacle { kind: "PoI", x: p.x, y: p.y });
            }
        }
        for (kind, p) in self
            .spawns
            .iter()
            .map(|p| ("worker", p))
            .chain(self.stations.iter().map(|p| ("station", p)))
        {
            if cfg.obstacles.iter().any(|r| r.contains(p)) {
                return Err(EnvError::EntityInObstacle { kind, x: p.x, y: p.y });
            }
        }
        let workers = self.spawns.iter().map(|p| Worker::new(*p, cfg.initial_energy)).collect();
        let pois = self.pois.iter().map(|(p, d)| Poi::new(*p, *d)).collect();
        let stations =
            self.stations.iter().map(|p| ChargingStation::new(*p, cfg.charge_range)).collect();
        CrowdsensingEnv::try_from_parts(cfg, workers, pois, stations)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::action::{Move, WorkerAction};

    #[test]
    fn builds_hand_placed_scenario() {
        let env = MapBuilder::new(8.0, 8.0, 8)
            .horizon(20)
            .energy(30.0)
            .poi(4.0, 4.0, 0.9)
            .poi_line(1.0, 1.0, 7.0, 1.0, 4, 0.5)
            .station(2.0, 6.0)
            .worker(4.0, 3.0)
            .build();
        assert_eq!(env.pois().len(), 5);
        assert_eq!(env.stations().len(), 1);
        assert_eq!(env.workers().len(), 1);
        assert_eq!(env.workers().get(0).energy, 30.0);
        assert_eq!(env.config().horizon, 20);
    }

    #[test]
    fn built_env_steps_normally() {
        let mut env = MapBuilder::new(8.0, 8.0, 8).poi(4.0, 4.5, 1.0).worker(4.0, 4.0).build();
        let r = env.step(&[WorkerAction::go(Move::Stay)]);
        // The PoI is within sensing range 0.8 of the spawn.
        assert!(r.outcomes[0].collected > 0.0);
    }

    #[test]
    fn poi_line_endpoints() {
        let b = MapBuilder::new(8.0, 8.0, 8).poi_line(1.0, 2.0, 5.0, 2.0, 3, 0.4).worker(0.5, 0.5);
        let env = b.build();
        assert_eq!(env.pois().get(0).pos, Point::new(1.0, 2.0));
        assert_eq!(env.pois().get(2).pos, Point::new(5.0, 2.0));
        assert_eq!(env.pois().get(1).pos, Point::new(3.0, 2.0));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn missing_worker_panics() {
        MapBuilder::new(8.0, 8.0, 8).poi(1.0, 1.0, 0.5).build();
    }

    #[test]
    #[should_panic(expected = "inside an obstacle")]
    fn poi_inside_obstacle_panics() {
        MapBuilder::new(8.0, 8.0, 8)
            .obstacle(3.0, 3.0, 5.0, 5.0)
            .poi(4.0, 4.0, 0.5)
            .worker(1.0, 1.0)
            .build();
    }

    #[test]
    fn try_build_reports_typed_errors() {
        let err = MapBuilder::new(8.0, 8.0, 8).poi(1.0, 1.0, 0.5).try_build().unwrap_err();
        assert_eq!(err, EnvError::NoWorkerSpawn);
        let err = MapBuilder::new(8.0, 8.0, 8)
            .obstacle(3.0, 3.0, 5.0, 5.0)
            .station(4.0, 4.0)
            .worker(1.0, 1.0)
            .try_build()
            .unwrap_err();
        assert_eq!(err, EnvError::EntityInObstacle { kind: "station", x: 4.0, y: 4.0 });
    }

    #[test]
    fn reset_regenerates_hand_placed_scenario() {
        let mut env = MapBuilder::new(8.0, 8.0, 8).poi(4.0, 4.5, 1.0).worker(4.0, 4.0).build();
        let initial: Vec<Poi> = env.pois().iter().collect();
        env.step(&[WorkerAction::go(Move::Stay)]);
        assert_ne!(env.pois().iter().collect::<Vec<_>>(), initial);
        env.reset();
        assert_eq!(
            env.pois().iter().collect::<Vec<_>>(),
            initial,
            "reset must restore the designed map"
        );
        assert_eq!(env.time(), 0);
    }
}
