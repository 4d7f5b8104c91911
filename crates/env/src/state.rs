//! State-tensor encoding (Section V, "State").
//!
//! The observation is a 3-channel `grid × grid` matrix:
//!
//! 1. **worker channel** — each worker's normalized energy budget placed at
//!    its current cell, offset by an identity mark: the cell holds
//!    `(w + 1 + energy_ratio/2) / W`, so every worker occupies a disjoint
//!    value band that encodes both who it is and how much battery it has
//!    (the paper's single shared channel is ambiguous for factored heads);
//! 2. **map channel** — remaining PoI data (normalized per cell), charging
//!    stations (+2) and obstacles (−1);
//! 3. **access-time channel** — per-PoI access counters `h_t(p)` normalized
//!    by the horizon, making coverage fairness visible to the policy.

use crate::config::EnvConfig;
use crate::entities::energy_ratio;
use crate::env::CrowdsensingEnv;
use crate::geometry::Point;

/// Number of observation channels.
pub const STATE_CHANNELS: usize = 3;
/// Marker value for a charging station in the map channel.
pub const STATION_MARK: f32 = 2.0;
/// Marker value for an obstacle cell in the map channel.
pub const OBSTACLE_MARK: f32 = -1.0;

/// Maps a continuous position to its grid cell `(col, row)`.
pub fn cell_of(cfg: &EnvConfig, p: &Point) -> (usize, usize) {
    let cx = ((p.x / cfg.cell_x()) as usize).min(cfg.grid - 1);
    let cy = ((p.y / cfg.cell_y()) as usize).min(cfg.grid - 1);
    (cx, cy)
}

/// Flat index into one channel.
fn idx(cfg: &EnvConfig, cx: usize, cy: usize) -> usize {
    cy * cfg.grid + cx
}

/// Encodes the current environment state into a flat `[3 * grid * grid]`
/// buffer laid out channel-major (`[C, H, W]` row-major), ready to be viewed
/// as a conv input `[1, 3, grid, grid]`.
pub fn encode(env: &CrowdsensingEnv) -> Vec<f32> {
    let mut out = Vec::with_capacity(state_len(env.config()));
    encode_into(env, &mut out);
    out
}

/// Appends the encoded state to `out` (same layout as [`encode`]), reusing
/// the buffer's existing capacity — the batched rollout path stacks `E`
/// observations into one arena-leased vector without `E` temporaries.
pub fn encode_into(env: &CrowdsensingEnv, out: &mut Vec<f32>) {
    let cfg = env.config();
    let g2 = cfg.grid * cfg.grid;
    let base = out.len();
    out.resize(base + STATE_CHANNELS * g2, 0.0);
    let (ch_workers, rest) = out[base..].split_at_mut(g2);
    let (ch_map, ch_access) = rest.split_at_mut(g2);

    let fleet = env.fleet();
    let w_total = fleet.num_workers() as f32;
    for wi in 0..fleet.num_workers() {
        let (cx, cy) = cell_of(cfg, &Point::new(fleet.x[wi], fleet.y[wi]));
        let ratio = energy_ratio(fleet.energy[wi], fleet.capacity[wi]);
        ch_workers[idx(cfg, cx, cy)] += if cfg.paper_worker_channel {
            // Ablation: the paper's literal encoding (energy only).
            ratio
        } else {
            (wi as f32 + 1.0 + 0.5 * ratio) / w_total
        };
    }

    // Obstacles first, then PoIs and stations layered on top. The static
    // layers (obstacle cells, each PoI's cell) are cached by
    // `FleetState::load`; PoI sums run over the columns in index order.
    for &c in &fleet.obstacle_cells {
        ch_map[c as usize] = OBSTACLE_MARK;
    }
    let horizon = cfg.horizon as f32;
    for ((&c, &data), &access) in fleet.poi_cell.iter().zip(&fleet.poi_data).zip(&fleet.poi_access)
    {
        ch_map[c as usize] += data;
        ch_access[c as usize] += access as f32 / horizon;
    }
    for s in &fleet.stations {
        let (cx, cy) = cell_of(cfg, &s.pos);
        ch_map[idx(cfg, cx, cy)] += STATION_MARK;
    }
}

/// Rebuilds the static encoder layers of a scenario into reusable buffers:
/// the flat map-channel cell of every PoI (`cell_of` of its position) and
/// every cell an obstacle overlaps with positive area — thin walls (the
/// corner-room's 0.5-wide walls) must be visible to the policy even though
/// they never contain a cell center.
pub(crate) fn static_cells(
    cfg: &EnvConfig,
    poi_x: &[f32],
    poi_y: &[f32],
    poi_cell: &mut Vec<u32>,
    obstacle_cells: &mut Vec<u32>,
) {
    poi_cell.clear();
    poi_cell.extend(poi_x.iter().zip(poi_y).map(|(&x, &y)| {
        let (cx, cy) = cell_of(cfg, &Point::new(x, y));
        idx(cfg, cx, cy) as u32
    }));
    obstacle_cells.clear();
    for cy in 0..cfg.grid {
        for cx in 0..cfg.grid {
            let (x0, y0) = (cx as f32 * cfg.cell_x(), cy as f32 * cfg.cell_y());
            let (x1, y1) = (x0 + cfg.cell_x(), y0 + cfg.cell_y());
            if cfg.obstacles.iter().any(|r| r.overlaps_box(x0, y0, x1, y1)) {
                obstacle_cells.push(idx(cfg, cx, cy) as u32);
            }
        }
    }
}

/// The `[C, H, W]` shape of one encoded observation.
pub fn state_shape(cfg: &EnvConfig) -> [usize; 3] {
    [STATE_CHANNELS, cfg.grid, cfg.grid]
}

/// Number of scalars in one encoded observation.
pub fn state_len(cfg: &EnvConfig) -> usize {
    STATE_CHANNELS * cfg.grid * cfg.grid
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::action::{Move, WorkerAction};
    use crate::config::EnvConfig;

    #[test]
    fn shape_and_length_agree() {
        let cfg = EnvConfig::paper_default();
        let env = CrowdsensingEnv::new(cfg.clone());
        let s = encode(&env);
        assert_eq!(s.len(), state_len(&cfg));
        assert_eq!(state_shape(&cfg), [3, 16, 16]);
    }

    #[test]
    fn worker_channel_holds_energy_ratio() {
        let cfg = EnvConfig::tiny();
        let mut env = CrowdsensingEnv::new(cfg.clone());
        env.set_worker_energy(0, cfg.initial_energy / 2.0);
        let s = encode(&env);
        let (cx, cy) = cell_of(&cfg, &env.workers().get(0).pos);
        let v = s[cy * cfg.grid + cx];
        // Single worker at half battery: (0 + 1 + 0.5*0.5) / 1 = 1.25.
        assert!((v - 1.25).abs() < 1e-6);
        // Exactly one nonzero cell in channel 1 for a single worker.
        let nonzero = s[..cfg.grid * cfg.grid].iter().filter(|&&x| x != 0.0).count();
        assert_eq!(nonzero, 1);
    }

    #[test]
    fn map_channel_marks_obstacles_stations_pois() {
        let cfg = EnvConfig::paper_default();
        let env = CrowdsensingEnv::new(cfg.clone());
        let s = encode(&env);
        let g2 = cfg.grid * cfg.grid;
        let map = &s[g2..2 * g2];
        assert!(map.contains(&OBSTACLE_MARK), "no obstacle cells marked");
        assert!(map.iter().any(|&v| v >= STATION_MARK), "no station cells marked");
        assert!(map.iter().any(|&v| v > 0.0 && v < STATION_MARK), "no PoI data visible");
    }

    #[test]
    fn access_channel_tracks_collection() {
        let mut cfg = EnvConfig::tiny();
        cfg.num_pois = 1;
        let mut env = CrowdsensingEnv::new(cfg.clone());
        env.teleport_worker(0, env.pois().get(0).pos);
        let before = encode(&env);
        env.step(&[WorkerAction::go(Move::Stay)]);
        let after = encode(&env);
        let g2 = cfg.grid * cfg.grid;
        let sum_before: f32 = before[2 * g2..].iter().sum();
        let sum_after: f32 = after[2 * g2..].iter().sum();
        assert_eq!(sum_before, 0.0);
        assert!((sum_after - 1.0 / cfg.horizon as f32).abs() < 1e-6);
    }

    #[test]
    fn paper_worker_channel_ablation_drops_identity() {
        let mut cfg = EnvConfig::tiny();
        cfg.paper_worker_channel = true;
        let mut env = CrowdsensingEnv::new(cfg.clone());
        env.set_worker_energy(0, cfg.initial_energy / 2.0);
        let s = encode(&env);
        let (cx, cy) = cell_of(&cfg, &env.workers().get(0).pos);
        assert!((s[cy * cfg.grid + cx] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn positions_on_far_edge_stay_in_grid() {
        let cfg = EnvConfig::tiny();
        let (cx, cy) = cell_of(&cfg, &Point::new(cfg.size_x, cfg.size_y));
        assert_eq!((cx, cy), (cfg.grid - 1, cfg.grid - 1));
    }

    #[test]
    fn encoding_changes_as_data_depletes() {
        let mut cfg = EnvConfig::tiny();
        cfg.num_pois = 5;
        let mut env = CrowdsensingEnv::new(cfg);
        env.teleport_worker(0, env.pois().get(0).pos);
        let s0 = encode(&env);
        for _ in 0..6 {
            env.step(&[WorkerAction::go(Move::Stay)]);
        }
        let s1 = encode(&env);
        assert_ne!(s0, s1);
    }
}
