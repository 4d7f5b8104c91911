//! Runtime entities of the crowdsensing space: intelligent workers, PoIs and
//! charging stations (Definitions 2–3 of the paper).

use crate::geometry::Point;
use serde::{Deserialize, Serialize};

/// An intelligent worker (drone / driverless car).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Worker {
    /// Current position `(x_t^w, y_t^w)`.
    pub pos: Point,
    /// Current energy budget `b_t^w`.
    pub energy: f32,
    /// Battery capacity (equals the initial budget `b₀`).
    pub capacity: f32,
    /// Total data collected so far, `Q_t^w`.
    pub total_collected: f32,
    /// Total energy consumed so far, `E_t^w`.
    pub total_consumed: f32,
    /// Total energy charged so far, `Σ_k σ_k^w`.
    pub total_charged: f32,
    /// Collision count (obstacle hits / boundary violations).
    pub collisions: u32,
}

impl Worker {
    /// A fresh worker at `pos` with full battery `b0`.
    pub fn new(pos: Point, b0: f32) -> Self {
        Self {
            pos,
            energy: b0,
            capacity: b0,
            total_collected: 0.0,
            total_consumed: 0.0,
            total_charged: 0.0,
            collisions: 0,
        }
    }

    /// True if the battery is exhausted (the worker "stops movement").
    pub fn exhausted(&self) -> bool {
        self.energy <= 0.0
    }

    /// Energy as a fraction of capacity, in `[0, 1]`.
    pub fn energy_ratio(&self) -> f32 {
        energy_ratio(self.energy, self.capacity)
    }
}

/// A point of interest holding collectible data (Definition 3).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Poi {
    /// Fixed location `(x^p, y^p)`.
    pub pos: Point,
    /// Initial data value `δ₀^p ∈ (0, 1)`.
    pub initial_data: f32,
    /// Remaining data value `δ_t^p`.
    pub data: f32,
    /// Access-time counter `h_t(p)`: number of slots in which this PoI was
    /// sensed (state channel 3).
    pub access_time: u32,
}

impl Poi {
    /// A fresh PoI with `δ_t = δ₀`.
    pub fn new(pos: Point, initial_data: f32) -> Self {
        Self { pos, initial_data, data: initial_data, access_time: 0 }
    }

    /// Fraction of the initial data already collected, in `[0, 1]`.
    pub fn collected_fraction(&self) -> f32 {
        collected_fraction(self.initial_data, self.data)
    }

    /// Fraction of the initial data still remaining, in `[0, 1]`.
    pub fn remaining_fraction(&self) -> f32 {
        1.0 - self.collected_fraction()
    }

    /// Removes up to `min(λ·δ₀, δ_t)` data (Eqn 1), returning the amount
    /// actually collected, and bumps the access time if anything was taken.
    pub fn collect(&mut self, lambda: f32) -> f32 {
        let amount = (lambda * self.initial_data).min(self.data);
        if amount > 0.0 {
            self.data -= amount;
            self.access_time += 1;
        }
        amount
    }
}

/// [`Worker::energy_ratio`] on raw column values.
pub(crate) fn energy_ratio(energy: f32, capacity: f32) -> f32 {
    (energy / capacity).clamp(0.0, 1.0)
}

/// [`Poi::collected_fraction`] on raw column values.
pub(crate) fn collected_fraction(initial_data: f32, data: f32) -> f32 {
    if initial_data <= 0.0 {
        0.0
    } else {
        ((initial_data - data) / initial_data).clamp(0.0, 1.0)
    }
}

/// A charging station with a finite service range.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChargingStation {
    /// Fixed location.
    pub pos: Point,
    /// Effective charging range (pump pipe length).
    pub range: f32,
}

impl ChargingStation {
    /// A station at `pos` with the given range.
    pub fn new(pos: Point, range: f32) -> Self {
        Self { pos, range }
    }

    /// True if a worker at `p` can be served.
    pub fn in_range(&self, p: &Point) -> bool {
        self.pos.dist(p) <= self.range
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn worker_lifecycle() {
        let mut w = Worker::new(Point::new(1.0, 1.0), 40.0);
        assert!(!w.exhausted());
        assert_eq!(w.energy_ratio(), 1.0);
        w.energy = 0.0;
        assert!(w.exhausted());
        assert_eq!(w.energy_ratio(), 0.0);
    }

    #[test]
    fn poi_collect_caps_at_rate_then_remainder() {
        let mut p = Poi::new(Point::new(0.0, 0.0), 1.0);
        // λ = 0.4 → collects 0.4, 0.4, then the remaining 0.2.
        assert!((p.collect(0.4) - 0.4).abs() < 1e-6);
        assert!((p.collect(0.4) - 0.4).abs() < 1e-6);
        assert!((p.collect(0.4) - 0.2).abs() < 1e-6);
        assert_eq!(p.collect(0.4), 0.0);
        assert_eq!(p.data, 0.0);
        assert_eq!(p.access_time, 3); // the empty visit does not count
        assert_eq!(p.collected_fraction(), 1.0);
    }

    #[test]
    fn poi_fractions_complementary() {
        let mut p = Poi::new(Point::new(0.0, 0.0), 0.8);
        p.collect(0.25);
        let c = p.collected_fraction();
        let r = p.remaining_fraction();
        assert!((c + r - 1.0).abs() < 1e-6);
        assert!((c - 0.25).abs() < 1e-6);
    }

    #[test]
    fn station_range_check() {
        let s = ChargingStation::new(Point::new(5.0, 5.0), 0.8);
        assert!(s.in_range(&Point::new(5.5, 5.0)));
        assert!(s.in_range(&Point::new(5.0, 5.75)));
        assert!(!s.in_range(&Point::new(6.0, 6.0)));
    }
}
