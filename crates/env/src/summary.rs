//! Episode-level accounting built from per-step outcomes.
//!
//! [`EpisodeSummary`] accumulates [`crate::env::StepResult`]s into the
//! per-worker and fleet-level statistics that experiment reports and
//! examples narrate: collection/energy totals, charging behavior,
//! collision counts, and utilization (fraction of slots spent productively).

use crate::env::StepResult;

/// Per-worker accumulated activity.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkerSummary {
    /// Total data collected.
    pub collected: f32,
    /// Total energy consumed.
    pub consumed: f32,
    /// Total energy charged.
    pub charged: f32,
    /// Total distance traveled.
    pub traveled: f32,
    /// Slots spent charging.
    pub charge_slots: u32,
    /// Slots in which data was collected.
    pub productive_slots: u32,
    /// Obstacle/boundary collisions.
    pub collisions: u32,
    /// Sparse Υ¹ pulses earned.
    pub data_pulses: u32,
    /// Sparse Υ² pulses earned.
    pub charge_pulses: u32,
}

impl WorkerSummary {
    /// Data collected per unit of energy consumed (0 when unused).
    pub fn efficiency(&self) -> f32 {
        if self.consumed > 0.0 {
            self.collected / self.consumed
        } else {
            0.0
        }
    }
}

/// Fleet-level episode summary.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpisodeSummary {
    /// Per-worker breakdown.
    pub workers: Vec<WorkerSummary>,
    /// Number of recorded slots.
    pub slots: u32,
}

impl EpisodeSummary {
    /// An empty summary for `num_workers` workers.
    pub fn new(num_workers: usize) -> Self {
        Self { workers: vec![WorkerSummary::default(); num_workers], slots: 0 }
    }

    /// Accumulates one step result.
    pub fn record(&mut self, result: &StepResult) {
        assert_eq!(result.outcomes.len(), self.workers.len(), "worker count changed mid-episode");
        self.slots += 1;
        for (w, out) in self.workers.iter_mut().zip(&result.outcomes) {
            w.collected += out.collected;
            w.consumed += out.consumed;
            w.charged += out.charged;
            w.traveled += out.traveled;
            w.charge_slots += out.charging as u32;
            w.productive_slots += (out.collected > 0.0) as u32;
            w.collisions += out.collided as u32;
            w.data_pulses += out.data_pulse as u32;
            w.charge_pulses += out.charge_pulse as u32;
        }
    }

    /// Total data collected across the fleet.
    pub fn total_collected(&self) -> f32 {
        self.workers.iter().map(|w| w.collected).sum()
    }

    /// Total energy consumed across the fleet.
    pub fn total_consumed(&self) -> f32 {
        self.workers.iter().map(|w| w.consumed).sum()
    }

    /// Fraction of worker-slots that collected data, in `[0, 1]`.
    pub fn utilization(&self) -> f32 {
        let total_slots = self.slots as f32 * self.workers.len() as f32;
        if total_slots == 0.0 {
            0.0
        } else {
            self.workers.iter().map(|w| w.productive_slots as f32).sum::<f32>() / total_slots
        }
    }

    /// Fraction of worker-slots spent charging.
    pub fn charge_fraction(&self) -> f32 {
        let total_slots = self.slots as f32 * self.workers.len() as f32;
        if total_slots == 0.0 {
            0.0
        } else {
            self.workers.iter().map(|w| w.charge_slots as f32).sum::<f32>() / total_slots
        }
    }

    /// One-line human-readable digest.
    pub fn digest(&self) -> String {
        format!(
            "{} slots: collected {:.2}, consumed {:.2}, charged {:.2}, utilization {:.0}%, charging {:.0}%, collisions {}",
            self.slots,
            self.total_collected(),
            self.total_consumed(),
            self.workers.iter().map(|w| w.charged).sum::<f32>(),
            self.utilization() * 100.0,
            self.charge_fraction() * 100.0,
            self.workers.iter().map(|w| w.collisions).sum::<u32>(),
        )
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::action::{Move, WorkerAction};
    use crate::builder::MapBuilder;

    #[test]
    fn summary_matches_env_accounting() {
        let mut env = MapBuilder::new(8.0, 8.0, 8)
            .poi(4.0, 4.5, 1.0)
            .poi(4.5, 4.0, 0.8)
            .station(2.0, 2.0)
            .worker(4.0, 4.0)
            .horizon(12)
            .build();
        let mut summary = EpisodeSummary::new(1);
        while !env.done() {
            let r = env.step(&[WorkerAction::go(Move::Stay)]);
            summary.record(&r);
        }
        assert_eq!(summary.slots, 12);
        let w = env.workers().get(0);
        assert!((summary.total_collected() - w.total_collected).abs() < 1e-5);
        assert!((summary.total_consumed() - w.total_consumed).abs() < 1e-5);
        assert!(summary.utilization() > 0.0);
        assert_eq!(summary.charge_fraction(), 0.0);
    }

    #[test]
    fn charging_slots_are_counted() {
        let mut env = MapBuilder::new(8.0, 8.0, 8)
            .station(4.0, 4.0)
            .worker(4.0, 4.0)
            .horizon(4)
            .energy(40.0)
            .build();
        env.set_worker_energy(0, 10.0);
        let mut summary = EpisodeSummary::new(1);
        let r = env.step(&[WorkerAction::charge()]);
        summary.record(&r);
        assert_eq!(summary.workers[0].charge_slots, 1);
        assert!(summary.workers[0].charged > 0.0);
        assert!(summary.charge_fraction() > 0.0);
        assert_eq!(summary.workers[0].charge_pulses, 1);
    }

    #[test]
    fn efficiency_guards_division() {
        let w = WorkerSummary::default();
        assert_eq!(w.efficiency(), 0.0);
        let w = WorkerSummary { collected: 2.0, consumed: 4.0, ..Default::default() };
        assert_eq!(w.efficiency(), 0.5);
    }

    #[test]
    fn digest_mentions_key_fields() {
        let mut s = EpisodeSummary::new(2);
        s.slots = 5;
        let d = s.digest();
        assert!(d.contains("5 slots"));
        assert!(d.contains("utilization"));
    }

    #[test]
    #[should_panic(expected = "worker count")]
    fn mismatched_worker_count_panics() {
        let mut env = MapBuilder::new(8.0, 8.0, 8).worker(1.0, 1.0).worker(2.0, 2.0).build();
        let r = env.step(&[WorkerAction::go(Move::Stay); 2]);
        let mut s = EpisodeSummary::new(1);
        s.record(&r);
    }
}
