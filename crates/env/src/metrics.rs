//! The paper's three evaluation metrics (Definitions 4–6).
//!
//! * `κ` — average data collection ratio (Eqn 4). The printed equation
//!   carries a spurious `1/W` factor that contradicts both Table II (κ up to
//!   0.937 with W = 2) and Fig. 6(b) (κ *increases* with W); we implement the
//!   consistent reading `κ = Σ_w Q^w / Σ_p δ₀^p`.
//! * `ξ` — average remaining data ratio (Eqn 5; the printed `δ₀/δ₀` is a
//!   typo for `δ_t^p / δ₀^p`).
//! * `ρ` — energy efficiency (Eqn 6): Jain's fairness index over per-PoI
//!   collection fractions, times the mean per-worker data-per-energy.

use crate::entities::collected_fraction;
use crate::fleet::FleetState;
use serde::{Deserialize, Serialize};

/// Snapshot of the three paper metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Average data collection ratio `κ_t`.
    pub data_collection_ratio: f32,
    /// Average remaining data ratio `ξ_t` (lower is better coverage).
    pub remaining_data_ratio: f32,
    /// Energy efficiency `ρ_t`.
    pub energy_efficiency: f32,
    /// The Jain fairness factor of `ρ` on its own (diagnostic).
    pub fairness_index: f32,
}

/// Jain's fairness index `(Σx)² / (n·Σx²)` over the given values; 1 when all
/// equal, `1/n` when one value dominates. Returns 0 for all-zero input.
pub fn jain_index(values: impl Iterator<Item = f32> + Clone) -> f32 {
    let n = values.clone().count();
    if n == 0 {
        return 0.0;
    }
    let sum: f32 = values.clone().sum();
    let sum_sq: f32 = values.map(|v| v * v).sum();
    if sum_sq <= 0.0 {
        0.0
    } else {
        (sum * sum) / (n as f32 * sum_sq)
    }
}

/// Computes all metrics from the fleet's columns. Every sum runs in entity
/// index order.
pub fn compute(fleet: &FleetState) -> Metrics {
    let initial_total = fleet.initial_total_data;
    let collected_total: f32 = fleet.total_collected.iter().sum();
    let kappa = if initial_total > 0.0 { (collected_total / initial_total).min(1.0) } else { 0.0 };

    let fractions =
        fleet.poi_initial.iter().zip(&fleet.poi_data).map(|(&i, &d)| collected_fraction(i, d));
    let n_pois = fleet.poi_initial.len();
    let xi = if n_pois == 0 {
        0.0
    } else {
        fractions.clone().map(|c| 1.0 - c).sum::<f32>() / n_pois as f32
    };

    // Jain fairness over per-PoI collection fractions. Eqn (6) divides each
    // fraction by λ, but Jain's index is scale invariant so the factor
    // cancels exactly.
    let fairness = jain_index(fractions);

    let n_workers = fleet.total_collected.len();
    let per_worker_eff = if n_workers == 0 {
        0.0
    } else {
        fleet
            .total_collected
            .iter()
            .zip(&fleet.total_consumed)
            .map(|(&collected, &consumed)| if consumed > 0.0 { collected / consumed } else { 0.0 })
            .sum::<f32>()
            / n_workers as f32
    };

    Metrics {
        data_collection_ratio: kappa,
        remaining_data_ratio: xi,
        energy_efficiency: fairness * per_worker_eff,
        fairness_index: fairness,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::config::EnvConfig;
    use crate::entities::{Poi, Worker};
    use crate::geometry::Point;

    fn compute(workers: &[Worker], pois: &[Poi]) -> Metrics {
        let mut fleet = FleetState::default();
        fleet.load(&EnvConfig::tiny(), workers, pois, &[]);
        super::compute(&fleet)
    }

    fn poi(initial: f32, remaining: f32) -> Poi {
        let mut p = Poi::new(Point::new(0.0, 0.0), initial);
        p.data = remaining;
        p
    }

    fn worker(collected: f32, consumed: f32) -> Worker {
        let mut w = Worker::new(Point::new(0.0, 0.0), 40.0);
        w.total_collected = collected;
        w.total_consumed = consumed;
        w
    }

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain_index([1.0, 1.0, 1.0].into_iter()), 1.0);
        let one_hot = jain_index([1.0, 0.0, 0.0, 0.0].into_iter());
        assert!((one_hot - 0.25).abs() < 1e-6);
        assert_eq!(jain_index(std::iter::empty()), 0.0);
        assert_eq!(jain_index([0.0, 0.0].into_iter()), 0.0);
    }

    #[test]
    fn jain_index_scale_invariant() {
        let a = jain_index([0.2, 0.5, 0.9].into_iter());
        let b = jain_index([2.0, 5.0, 9.0].into_iter());
        assert!((a - b).abs() < 1e-6);
    }

    #[test]
    fn kappa_is_total_fraction() {
        let pois = vec![poi(1.0, 1.0), poi(1.0, 1.0)];
        let workers = vec![worker(0.5, 1.0), worker(0.5, 1.0)];
        let m = compute(&workers, &pois);
        assert!((m.data_collection_ratio - 0.5).abs() < 1e-6);
    }

    #[test]
    fn xi_is_mean_remaining_fraction() {
        let pois = vec![poi(1.0, 0.0), poi(1.0, 1.0)];
        let m = compute(&[], &pois);
        assert!((m.remaining_data_ratio - 0.5).abs() < 1e-6);
    }

    #[test]
    fn rho_rewards_fair_coverage() {
        // Same total collection and energy, but one case covers both PoIs
        // evenly and the other drains a single PoI: fair coverage must score
        // a higher ρ.
        let even = vec![poi(1.0, 0.5), poi(1.0, 0.5)];
        let skew = vec![poi(1.0, 0.0), poi(1.0, 1.0)];
        let workers = vec![worker(1.0, 2.0)];
        let rho_even = compute(&workers, &even).energy_efficiency;
        let rho_skew = compute(&workers, &skew).energy_efficiency;
        assert!(rho_even > rho_skew, "even {rho_even} vs skew {rho_skew}");
    }

    #[test]
    fn zero_energy_worker_contributes_zero_efficiency() {
        let pois = vec![poi(1.0, 0.5)];
        let workers = vec![worker(0.5, 0.0)];
        let m = compute(&workers, &pois);
        assert_eq!(m.energy_efficiency, 0.0);
    }

    #[test]
    fn empty_world_is_all_zero() {
        let m = compute(&[], &[]);
        assert_eq!(m, Metrics::default());
    }

    #[test]
    fn metrics_are_bounded() {
        let pois = vec![poi(1.0, 0.2), poi(0.5, 0.5), poi(0.8, 0.0)];
        let workers = vec![worker(1.6, 3.0), worker(0.0, 0.5)];
        let m = compute(&workers, &pois);
        assert!((0.0..=1.0).contains(&m.data_collection_ratio));
        assert!((0.0..=1.0).contains(&m.remaining_data_ratio));
        assert!((0.0..=1.0).contains(&m.fairness_index));
        assert!(m.energy_efficiency >= 0.0);
    }
}
