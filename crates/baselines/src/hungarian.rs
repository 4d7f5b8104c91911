//! Hungarian (Kuhn–Munkres) optimal assignment: the per-slot oracle.
//!
//! [`solve`] computes a minimum-cost assignment of rows (workers) to columns
//! (targets) of a dense cost matrix in O(n²·m) — the shortest-augmenting-path
//! formulation with row/column potentials, the same optimum SciPy's
//! `linear_sum_assignment` returns. Rectangular matrices are supported on
//! both sides: with more columns than rows every row is assigned; with more
//! rows than columns the optimum assigns `cols` rows and leaves the rest
//! unmatched (`None`).
//!
//! [`HungarianScheduler`] wraps the solver behind the [`Scheduler`] trait:
//! each slot it builds the worker × PoI distance matrix, solves for the
//! optimal pairing, and steps every worker toward its assigned PoI. It is
//! fully deterministic (the rng parameter is unused), which makes it the
//! reference point of the differential audits: on the same matrix no
//! assignment — greedy, random or learned — can cost less.

use crate::scheduler::Scheduler;
use rand::rngs::StdRng;
use std::fmt;
use vc_env::prelude::*;

/// Typed failures of the assignment oracle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HungarianError {
    /// A cost cell is NaN or infinite; potentials would be poisoned.
    NonFiniteCost {
        /// Row of the offending cell.
        row: usize,
        /// Column of the offending cell.
        col: usize,
    },
    /// `costs.len()` disagrees with `rows * cols`.
    ShapeMismatch {
        /// Declared row count.
        rows: usize,
        /// Declared column count.
        cols: usize,
        /// Actual slice length.
        len: usize,
    },
}

impl fmt::Display for HungarianError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HungarianError::NonFiniteCost { row, col } => {
                write!(f, "cost matrix cell ({row}, {col}) is not finite")
            }
            HungarianError::ShapeMismatch { rows, cols, len } => {
                write!(f, "cost slice has {len} cells, expected {rows}x{cols}")
            }
        }
    }
}

impl std::error::Error for HungarianError {}

/// A minimum-cost assignment.
#[derive(Clone, Debug, PartialEq)]
pub struct Assignment {
    /// For each row, the column it is matched to (`None` when `rows > cols`
    /// left this row out of the optimum).
    pub assigned: Vec<Option<usize>>,
    /// Sum of the matched cells' costs.
    pub total_cost: f32,
}

/// Solves the minimum-cost assignment over a row-major `rows × cols` matrix.
///
/// # Errors
///
/// [`HungarianError::ShapeMismatch`] when the slice length is wrong, and
/// [`HungarianError::NonFiniteCost`] when any cell is NaN or infinite —
/// typed rejection instead of a silently wrong matching.
pub fn solve(costs: &[f32], rows: usize, cols: usize) -> Result<Assignment, HungarianError> {
    if costs.len() != rows * cols {
        return Err(HungarianError::ShapeMismatch { rows, cols, len: costs.len() });
    }
    if let Some(i) = costs.iter().position(|c| !c.is_finite()) {
        // cols > 0 here: with cols == 0 the slice is empty.
        return Err(HungarianError::NonFiniteCost { row: i / cols, col: i % cols });
    }
    if rows == 0 || cols == 0 {
        return Ok(Assignment { assigned: vec![None; rows], total_cost: 0.0 });
    }
    if rows > cols {
        // Solve the transpose (square-or-wide), then flip the matching back:
        // the optimum uses every column, i.e. assigns `cols` of the rows.
        let mut t = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                t[c * rows + r] = costs[r * cols + c];
            }
        }
        let flipped = solve(&t, cols, rows)?;
        let mut assigned = vec![None; rows];
        for (c, r) in flipped.assigned.iter().enumerate() {
            if let Some(r) = r {
                assigned[*r] = Some(c);
            }
        }
        return Ok(Assignment { assigned, total_cost: flipped.total_cost });
    }

    // Shortest augmenting paths with potentials, 1-indexed; `p[j]` is the
    // row matched to column j (0 = free). f64 accumulators keep the
    // potential updates stable for near-degenerate f32 inputs.
    let (n, m) = (rows, cols);
    let mut u = vec![0.0f64; n + 1];
    let mut v = vec![0.0f64; m + 1];
    let mut p = vec![0usize; m + 1];
    let mut way = vec![0usize; m + 1];
    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![f64::INFINITY; m + 1];
        let mut used = vec![false; m + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = f64::INFINITY;
            let mut j1 = 0usize;
            for j in 1..=m {
                if used[j] {
                    continue;
                }
                let cur = f64::from(costs[(i0 - 1) * m + (j - 1)]) - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=m {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }
    let mut assigned = vec![None; n];
    let mut total = 0.0f64;
    for j in 1..=m {
        if p[j] != 0 {
            assigned[p[j] - 1] = Some(j - 1);
            total += f64::from(costs[(p[j] - 1) * m + (j - 1)]);
        }
    }
    Ok(Assignment { assigned, total_cost: total as f32 })
}

/// A PoI must hold at least this much data to be an assignment target.
const MIN_TARGET_DATA: f32 = 1e-3;

/// Battery fraction below which an in-range worker tops up (matches the
/// Greedy baseline's opportunistic charging so the comparison isolates the
/// assignment quality).
const CHARGE_THRESHOLD: f32 = 0.35;

/// Optimal-assignment scheduler: per slot, Hungarian-match workers to the
/// nearest-by-optimum PoIs and step toward the match.
#[derive(Debug, Default)]
pub struct HungarianScheduler;

impl HungarianScheduler {
    /// Builds this slot's cost matrix: row-major worker × target Euclidean
    /// distances, over PoIs still holding data. Returns the matrix and the
    /// target PoI indices (matrix columns).
    pub fn cost_matrix(env: &CrowdsensingEnv) -> (Vec<f32>, Vec<usize>) {
        let targets: Vec<usize> = env
            .pois()
            .iter()
            .enumerate()
            .filter(|(_, p)| p.data > MIN_TARGET_DATA)
            .map(|(i, _)| i)
            .collect();
        let mut costs = Vec::with_capacity(env.workers().len() * targets.len());
        for w in env.workers().iter() {
            for &pi in &targets {
                costs.push(w.pos.dist(&env.pois().get(pi).pos));
            }
        }
        (costs, targets)
    }
}

impl Scheduler for HungarianScheduler {
    fn decide(&mut self, env: &CrowdsensingEnv, _rng: &mut StdRng) -> Vec<WorkerAction> {
        let (costs, targets) = Self::cost_matrix(env);
        let w = env.workers().len();
        // Distances are finite by construction; an empty target set simply
        // leaves everyone unassigned.
        let assignment = solve(&costs, w, targets.len()).ok();
        (0..w)
            .map(|wi| {
                let worker = env.workers().get(wi);
                if worker.energy_ratio() < CHARGE_THRESHOLD && env.can_charge(wi) {
                    return WorkerAction::charge();
                }
                let goal = assignment
                    .as_ref()
                    .and_then(|a| a.assigned[wi])
                    .map(|ti| env.pois().get(targets[ti]).pos);
                let Some(goal) = goal else {
                    return WorkerAction::go(Move::Stay);
                };
                // Step toward the assigned PoI among valid moves; ties keep
                // the earlier move in enum order (deterministic).
                let mut best = Move::Stay;
                let mut best_d = worker.pos.dist(&goal);
                for mv in Move::ALL {
                    if let Some(next) = env.peek_move(wi, mv) {
                        let d = next.dist(&goal);
                        if d + 1e-6 < best_d {
                            best_d = d;
                            best = mv;
                        }
                    }
                }
                WorkerAction::go(best)
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "hungarian"
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn two_by_two_picks_the_cross() {
        // [9 1; 1 9]: optimum is the anti-diagonal, cost 2.
        let a = solve(&[9.0, 1.0, 1.0, 9.0], 2, 2).unwrap();
        assert_eq!(a.assigned, vec![Some(1), Some(0)]);
        assert!((a.total_cost - 2.0).abs() < 1e-6);
    }

    #[test]
    fn wide_matrix_assigns_every_row() {
        let a = solve(&[5.0, 1.0, 3.0, 2.0, 4.0, 6.0], 2, 3).unwrap();
        assert!(a.assigned.iter().all(Option::is_some));
        assert!((a.total_cost - 3.0).abs() < 1e-6); // 1.0 + 2.0
    }

    #[test]
    fn tall_matrix_leaves_rows_unmatched() {
        // 3 workers, 1 PoI: exactly one match, the cheapest row.
        let a = solve(&[3.0, 1.0, 2.0], 3, 1).unwrap();
        assert_eq!(a.assigned, vec![None, Some(0), None]);
        assert!((a.total_cost - 1.0).abs() < 1e-6);
    }

    #[test]
    fn non_finite_costs_are_rejected_with_position() {
        let err = solve(&[1.0, f32::NAN, 2.0, 3.0], 2, 2).unwrap_err();
        assert_eq!(err, HungarianError::NonFiniteCost { row: 0, col: 1 });
        let err = solve(&[1.0, 2.0, f32::INFINITY], 1, 3).unwrap_err();
        assert_eq!(err, HungarianError::NonFiniteCost { row: 0, col: 2 });
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let err = solve(&[1.0, 2.0, 3.0], 2, 2).unwrap_err();
        assert_eq!(err, HungarianError::ShapeMismatch { rows: 2, cols: 2, len: 3 });
    }

    #[test]
    fn empty_matrices_are_trivially_solved() {
        assert_eq!(solve(&[], 0, 0).unwrap().total_cost, 0.0);
        let a = solve(&[], 3, 0).unwrap();
        assert_eq!(a.assigned, vec![None, None, None]);
    }

    #[test]
    fn scheduler_episode_is_deterministic() {
        let cfg = EnvConfig::tiny();
        let run = || {
            let mut env = CrowdsensingEnv::new(cfg.clone());
            let mut rng = StdRng::seed_from_u64(0);
            crate::scheduler::run_episode(&mut HungarianScheduler, &mut env, &mut rng)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn scheduler_walks_toward_its_assignment() {
        let mut cfg = EnvConfig::tiny();
        cfg.num_pois = 1;
        let mut env = CrowdsensingEnv::new(cfg);
        let poi = env.pois().get(0).pos;
        let wx = if poi.x >= 4.0 { poi.x - 3.0 } else { poi.x + 3.0 };
        env.teleport_worker(0, Point::new(wx, poi.y));
        let before = env.workers().get(0).pos.dist(&poi);
        let mut rng = StdRng::seed_from_u64(0);
        let acts = HungarianScheduler.decide(&env, &mut rng);
        env.step(&acts);
        let after = env.workers().get(0).pos.dist(&poi);
        assert!(after < before, "did not close in on the assigned PoI ({before} -> {after})");
    }
}
