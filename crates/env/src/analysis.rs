//! Per-slot metric time series — the data behind training/mission curves.
//!
//! [`MetricSeries`] samples κ/ξ/ρ after every step of a live episode or a
//! [`crate::recording::Recording`] replay, producing the per-slot curves
//! that the paper plots its training figures from (and that downstream
//! users plot mission progress from).

use crate::env::CrowdsensingEnv;
use crate::metrics::Metrics;
use crate::recording::Recording;

/// κ/ξ/ρ sampled once per time slot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricSeries {
    /// Data collection ratio κ per slot.
    pub kappa: Vec<f32>,
    /// Remaining data ratio ξ per slot.
    pub xi: Vec<f32>,
    /// Energy efficiency ρ per slot.
    pub rho: Vec<f32>,
}

impl MetricSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded slots.
    pub fn len(&self) -> usize {
        self.kappa.len()
    }

    /// True if nothing has been sampled.
    pub fn is_empty(&self) -> bool {
        self.kappa.is_empty()
    }

    /// Samples the environment's current metrics.
    pub fn sample(&mut self, env: &CrowdsensingEnv) {
        let m = env.metrics();
        self.push(m);
    }

    /// Appends an already-computed metrics snapshot.
    pub fn push(&mut self, m: Metrics) {
        self.kappa.push(m.data_collection_ratio);
        self.xi.push(m.remaining_data_ratio);
        self.rho.push(m.energy_efficiency);
    }

    /// Builds the series by replaying a recording.
    pub fn from_recording(recording: &Recording) -> Self {
        let mut series = Self::new();
        recording.replay(|env, _| series.sample(env));
        series
    }

    /// The slot at which κ first reaches `threshold`, if ever — the
    /// "time-to-coverage" statistic.
    pub fn time_to_kappa(&self, threshold: f32) -> Option<usize> {
        self.kappa.iter().position(|&k| k >= threshold)
    }

    /// Area under the κ curve, normalized to `[0, 1]` — rewards collecting
    /// *early*, which distinguishes two policies with equal final κ.
    pub fn kappa_auc(&self) -> f32 {
        if self.kappa.is_empty() {
            return 0.0;
        }
        self.kappa.iter().sum::<f32>() / self.kappa.len() as f32
    }

    /// Renders one channel as a CSV column block (`slot,kappa,xi,rho`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("slot,kappa,xi,rho\n");
        for i in 0..self.len() {
            out.push_str(&format!(
                "{i},{:.6},{:.6},{:.6}\n",
                self.kappa[i], self.xi[i], self.rho[i]
            ));
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::action::{Move, WorkerAction};
    use crate::builder::MapBuilder;
    use crate::recording::Recorder;

    fn scenario() -> CrowdsensingEnv {
        MapBuilder::new(8.0, 8.0, 8)
            .poi(4.0, 4.5, 1.0)
            .poi(4.5, 4.0, 1.0)
            .worker(4.0, 4.0)
            .horizon(10)
            .build()
    }

    #[test]
    fn series_is_monotone_in_kappa() {
        let mut env = scenario();
        let mut series = MetricSeries::new();
        while !env.done() {
            env.step(&[WorkerAction::go(Move::Stay)]);
            series.sample(&env);
        }
        assert_eq!(series.len(), 10);
        for w in series.kappa.windows(2) {
            assert!(w[1] >= w[0] - 1e-6, "kappa decreased: {w:?}");
        }
        // ξ mirrors κ downward.
        assert!(series.xi.last().unwrap() < series.xi.first().unwrap());
    }

    #[test]
    fn time_to_kappa_and_auc() {
        let mut s = MetricSeries::new();
        for k in [0.0f32, 0.2, 0.5, 0.9] {
            s.push(Metrics { data_collection_ratio: k, ..Default::default() });
        }
        assert_eq!(s.time_to_kappa(0.5), Some(2));
        assert_eq!(s.time_to_kappa(0.95), None);
        assert!((s.kappa_auc() - 0.4).abs() < 1e-6);
        assert_eq!(MetricSeries::new().kappa_auc(), 0.0);
    }

    #[test]
    fn from_recording_matches_live_series() {
        let mut env = scenario();
        let mut recorder = Recorder::new(&env);
        let mut live = MetricSeries::new();
        while !env.done() {
            let actions = [WorkerAction::go(Move::Stay)];
            recorder.log(&actions);
            env.step(&actions);
            live.sample(&env);
        }
        let recording = recorder.finish(&env);
        let replayed = MetricSeries::from_recording(&recording);
        assert_eq!(replayed, live);
    }

    #[test]
    fn csv_has_one_row_per_slot() {
        let mut s = MetricSeries::new();
        s.push(Metrics::default());
        s.push(Metrics::default());
        let csv = s.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("slot,kappa,xi,rho"));
    }

    #[test]
    fn early_collector_wins_auc_over_late_collector() {
        // Same final κ, different timing: the AUC statistic must prefer the
        // early collector.
        let mut early = MetricSeries::new();
        let mut late = MetricSeries::new();
        for i in 0..10 {
            let e = if i < 2 { 0.0 } else { 0.8 };
            let l = if i < 8 { 0.0 } else { 0.8 };
            early.push(Metrics { data_collection_ratio: e, ..Default::default() });
            late.push(Metrics { data_collection_ratio: l, ..Default::default() });
        }
        assert!(early.kappa_auc() > late.kappa_auc());
        assert_eq!(early.kappa.last(), late.kappa.last());
    }
}
