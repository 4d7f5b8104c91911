//! Count-based novelty bonus — the classic exploration baseline the spatial
//! curiosity model approaches in the limit.
//!
//! `r^int = η / √(1 + N(cell, move))`, where `N` counts how often the
//! worker has taken that move from that cell. No parameters, no gradients —
//! included to quantify how much of the spatial model's benefit is explained
//! by pure visitation novelty versus its learned prediction dynamics.

use crate::traits::{Curiosity, TransitionView};
use rand::rngs::StdRng;
use vc_env::geometry::Point;
use vc_nn::param::ParamStore;

const NUM_MOVES: usize = vc_env::action::NUM_MOVES;

/// Count-based curiosity configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CountCuriosityConfig {
    /// Bonus scale η.
    pub eta: f32,
    /// Grid resolution for position discretization.
    pub grid: usize,
    /// Space width (for normalizing x).
    pub size_x: f32,
    /// Space height (for normalizing y).
    pub size_y: f32,
}

impl CountCuriosityConfig {
    /// Defaults matched to a scenario.
    pub fn for_space(grid: usize, size_x: f32, size_y: f32) -> Self {
        Self { eta: 0.3, grid, size_x, size_y }
    }
}

/// The count-based intrinsic-reward model.
pub struct CountCuriosity {
    cfg: CountCuriosityConfig,
    counts: Vec<u32>,
    /// Empty store: this model has nothing to train.
    store: ParamStore,
}

impl CountCuriosity {
    /// A fresh model with all counts zero.
    pub fn new(cfg: CountCuriosityConfig) -> Self {
        let n = cfg.grid * cfg.grid * NUM_MOVES;
        Self { cfg, counts: vec![0; n], store: ParamStore::new() }
    }

    fn pair_index(&self, pos: &Point, mv: usize) -> usize {
        let g = self.cfg.grid;
        let cx = ((pos.x / self.cfg.size_x * g as f32) as usize).min(g - 1);
        let cy = ((pos.y / self.cfg.size_y * g as f32) as usize).min(g - 1);
        (cy * g + cx) * NUM_MOVES + mv
    }

    /// Visit count of a (position, move) pair.
    pub fn count(&self, pos: &Point, mv: usize) -> u32 {
        self.counts[self.pair_index(pos, mv)]
    }

    /// The bonus a pair would pay *before* being visited again.
    pub fn bonus(&self, pos: &Point, mv: usize) -> f32 {
        self.cfg.eta / (1.0 + self.count(pos, mv) as f32).sqrt()
    }

    /// Number of distinct visited pairs.
    pub fn visited_pairs(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }
}

impl Curiosity for CountCuriosity {
    fn intrinsic_reward(&mut self, t: &TransitionView<'_>) -> f32 {
        assert_eq!(t.positions.len(), t.moves.len());
        let w = t.positions.len();
        let mut total = 0.0;
        for wi in 0..w {
            let idx = self.pair_index(&t.positions[wi], t.moves[wi]);
            total += self.cfg.eta / (1.0 + self.counts[idx] as f32).sqrt();
            self.counts[idx] += 1;
        }
        total / w.max(1) as f32
    }

    /// Counts update online in [`Self::intrinsic_reward`]; nothing to train.
    fn compute_grads(&mut self, _minibatch: usize, _rng: &mut StdRng) {}

    fn clear_buffer(&mut self) {}

    fn params(&self) -> &ParamStore {
        &self.store
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn name(&self) -> &'static str {
        "count"
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn model() -> CountCuriosity {
        CountCuriosity::new(CountCuriosityConfig::for_space(8, 8.0, 8.0))
    }

    fn view<'a>(pos: &'a [Point], moves: &'a [usize]) -> TransitionView<'a> {
        TransitionView { state: &[], next_state: &[], positions: pos, next_positions: pos, moves }
    }

    #[test]
    fn bonus_decays_with_repeat_visits() {
        let mut c = model();
        let pos = [Point::new(2.5, 2.5)];
        let moves = [3usize];
        let r1 = c.intrinsic_reward(&view(&pos, &moves));
        let r2 = c.intrinsic_reward(&view(&pos, &moves));
        let r3 = c.intrinsic_reward(&view(&pos, &moves));
        assert!((r1 - 0.3).abs() < 1e-6, "first visit pays eta, got {r1}");
        assert!(r2 < r1 && r3 < r2, "bonus must be strictly decreasing: {r1} {r2} {r3}");
        assert_eq!(c.count(&pos[0], 3), 3);
    }

    #[test]
    fn novel_pairs_pay_full_bonus() {
        let mut c = model();
        let a = [Point::new(1.5, 1.5)];
        let moves = [2usize];
        for _ in 0..10 {
            c.intrinsic_reward(&view(&a, &moves));
        }
        // An unvisited pair still pays η.
        assert!((c.bonus(&Point::new(6.5, 6.5), 7) - 0.3).abs() < 1e-6);
        assert_eq!(c.visited_pairs(), 1);
    }

    #[test]
    fn counts_are_per_move_not_per_cell() {
        let mut c = model();
        let p = [Point::new(4.0, 4.0)];
        c.intrinsic_reward(&view(&p, &[1usize]));
        assert_eq!(c.count(&p[0], 1), 1);
        assert_eq!(c.count(&p[0], 2), 0);
    }

    #[test]
    fn is_inert_to_training_machinery() {
        use rand::SeedableRng;
        let mut c = model();
        let mut rng = StdRng::seed_from_u64(0);
        c.compute_grads(32, &mut rng);
        c.clear_buffer();
        assert!(c.params().is_empty());
        assert_eq!(c.name(), "count");
    }

    #[test]
    fn worker_average_matches_manual() {
        let mut c = model();
        let pos = [Point::new(1.0, 1.0), Point::new(6.0, 6.0)];
        let moves = [0usize, 5];
        let r = c.intrinsic_reward(&view(&pos, &moves));
        // Two fresh pairs, each paying eta; mean is eta.
        assert!((r - 0.3).abs() < 1e-6);
    }
}
