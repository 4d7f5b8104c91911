//! Trajectory recording and spatial heat maps.
//!
//! Used for Fig. 2(c) (worker trajectories) and Fig. 9 (curiosity-value heat
//! maps over visited locations).

use crate::config::EnvConfig;
use crate::geometry::Point;
use crate::state::cell_of;

/// A per-worker sequence of visited positions.
#[derive(Clone, Debug, Default)]
pub struct Trajectory {
    /// `points[w]` is worker `w`'s position at each recorded slot.
    pub points: Vec<Vec<Point>>,
}

impl Trajectory {
    /// An empty recorder for `num_workers` workers.
    pub fn new(num_workers: usize) -> Self {
        Self { points: vec![Vec::new(); num_workers] }
    }

    /// Appends the current position of every worker.
    pub fn record(&mut self, positions: impl Iterator<Item = Point>) {
        for (track, p) in self.points.iter_mut().zip(positions) {
            track.push(p);
        }
    }

    /// Number of recorded slots (0 if no workers).
    pub fn len(&self) -> usize {
        self.points.first().map_or(0, Vec::len)
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total path length of one worker's track.
    pub fn path_length(&self, worker: usize) -> f32 {
        self.points[worker].windows(2).map(|w| w[0].dist(&w[1])).sum()
    }

    /// Renders one worker's track as an ASCII grid (for terminal reports).
    pub fn ascii(&self, cfg: &EnvConfig, worker: usize) -> String {
        let mut grid = vec![vec!['.'; cfg.grid]; cfg.grid];
        for r in &cfg.obstacles {
            for cy in 0..cfg.grid {
                for cx in 0..cfg.grid {
                    let c = Point::new(
                        (cx as f32 + 0.5) * cfg.cell_x(),
                        (cy as f32 + 0.5) * cfg.cell_y(),
                    );
                    if r.contains(&c) {
                        grid[cy][cx] = '#';
                    }
                }
            }
        }
        for p in &self.points[worker] {
            let (cx, cy) = cell_of(cfg, p);
            grid[cy][cx] = '*';
        }
        if let (Some(first), Some(last)) = (self.points[worker].first(), self.points[worker].last())
        {
            let (cx, cy) = cell_of(cfg, first);
            grid[cy][cx] = 'S';
            let (cx, cy) = cell_of(cfg, last);
            grid[cy][cx] = 'E';
        }
        // Row 0 is the south edge; print north-up.
        grid.iter().rev().map(|row| row.iter().collect::<String>()).collect::<Vec<_>>().join("\n")
    }
}

/// A scalar field over the grid accumulating values at visited cells — the
/// curiosity heat map of Fig. 9.
#[derive(Clone, Debug)]
pub struct HeatMap {
    grid: usize,
    values: Vec<f32>,
    counts: Vec<u32>,
}

impl HeatMap {
    /// An empty map over `grid × grid` cells.
    pub fn new(grid: usize) -> Self {
        Self { grid, values: vec![0.0; grid * grid], counts: vec![0; grid * grid] }
    }

    /// Grid resolution per axis.
    pub fn grid(&self) -> usize {
        self.grid
    }

    /// Adds a sample at the cell containing `p`.
    pub fn deposit(&mut self, cfg: &EnvConfig, p: &Point, value: f32) {
        let (cx, cy) = cell_of(cfg, p);
        let i = cy * self.grid + cx;
        self.values[i] += value;
        self.counts[i] += 1;
    }

    /// Mean sample value at a cell, or 0 if unvisited.
    pub fn mean_at(&self, cx: usize, cy: usize) -> f32 {
        let i = cy * self.grid + cx;
        if self.counts[i] == 0 {
            0.0
        } else {
            self.values[i] / self.counts[i] as f32
        }
    }

    /// Total deposited value over all cells.
    pub fn total(&self) -> f32 {
        self.values.iter().sum()
    }

    /// Number of distinct visited cells ("brightness area" of Fig. 9).
    pub fn visited_cells(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Maximum mean cell value.
    pub fn peak(&self) -> f32 {
        (0..self.grid * self.grid)
            .map(|i| self.mean_at(i % self.grid, i / self.grid))
            .fold(0.0f32, f32::max)
    }

    /// ASCII rendering with intensity ramp ` .:-=+*#%@` (north-up).
    pub fn ascii(&self) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let peak = self.peak().max(1e-9);
        let mut rows = Vec::with_capacity(self.grid);
        for cy in (0..self.grid).rev() {
            let row: String = (0..self.grid)
                .map(|cx| {
                    let v = self.mean_at(cx, cy) / peak;
                    let k = ((v * (RAMP.len() - 1) as f32).round() as usize).min(RAMP.len() - 1);
                    RAMP[k] as char
                })
                .collect();
            rows.push(row);
        }
        rows.join("\n")
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::config::EnvConfig;

    #[test]
    fn trajectory_records_per_worker() {
        let mut t = Trajectory::new(2);
        t.record([Point::new(0.0, 0.0), Point::new(1.0, 1.0)].into_iter());
        t.record([Point::new(3.0, 4.0), Point::new(1.0, 1.0)].into_iter());
        assert_eq!(t.len(), 2);
        assert_eq!(t.path_length(0), 5.0);
        assert_eq!(t.path_length(1), 0.0);
    }

    #[test]
    fn ascii_marks_start_end_and_obstacles() {
        let cfg = EnvConfig::paper_default();
        let mut t = Trajectory::new(1);
        t.record([Point::new(0.5, 0.5)].into_iter());
        t.record([Point::new(1.5, 0.5)].into_iter());
        t.record([Point::new(2.5, 0.5)].into_iter());
        let art = t.ascii(&cfg, 0);
        assert!(art.contains('S'));
        assert!(art.contains('E'));
        assert!(art.contains('#'));
        assert_eq!(art.lines().count(), cfg.grid);
    }

    #[test]
    fn heatmap_means_and_coverage() {
        let cfg = EnvConfig::tiny();
        let mut h = HeatMap::new(cfg.grid);
        h.deposit(&cfg, &Point::new(0.5, 0.5), 2.0);
        h.deposit(&cfg, &Point::new(0.5, 0.5), 4.0);
        h.deposit(&cfg, &Point::new(5.5, 5.5), 1.0);
        assert_eq!(h.mean_at(0, 0), 3.0);
        assert_eq!(h.visited_cells(), 2);
        assert_eq!(h.total(), 7.0);
        assert_eq!(h.peak(), 3.0);
    }

    #[test]
    fn heatmap_ascii_shape() {
        let cfg = EnvConfig::tiny();
        let mut h = HeatMap::new(cfg.grid);
        h.deposit(&cfg, &Point::new(0.5, 0.5), 1.0);
        let art = h.ascii();
        assert_eq!(art.lines().count(), cfg.grid);
        assert!(art.lines().all(|l| l.chars().count() == cfg.grid));
        // Peak cell renders as the brightest glyph.
        assert!(art.contains('@'));
    }

    #[test]
    fn empty_heatmap_is_blank() {
        let h = HeatMap::new(4);
        assert_eq!(h.visited_cells(), 0);
        assert!(h.ascii().chars().all(|c| c == ' ' || c == '\n'));
    }
}
