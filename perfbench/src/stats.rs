//! The benchmark's own statistics: percentiles under the "ten samples
//! beyond" rule, success accounting, child-sum residuals and the peak-RSS
//! read. Everything here is pure so the unit tests can pin it.

/// Percentiles the report considers, lowest first.
const PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// One reported percentile with the sample count it rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The percentile, e.g. `90.0`.
    pub pct: f64,
    /// Its value (nearest-rank).
    pub value: f64,
    /// Samples in the set.
    pub n: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// Rank (1-based, nearest-rank method) of percentile `pct` among `n` samples.
/// The slack keeps a product like 99.9 % × 10 000 on its exact integer.
fn rank(pct: f64, n: usize) -> usize {
    ((pct / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending sample; `None` when empty.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(pct, sorted.len()) - 1])
}

/// Median of an unsorted sample (sorts a copy); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(&sorted(values), 50.0)
}

/// An ascending copy of `values` (NaN sorts last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The highest of [`PERCENTILES`] with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median lacks them.
pub fn highest_supported(sorted: &[f64]) -> Option<Percentile> {
    let n = sorted.len();
    PERCENTILES
        .iter()
        .rev()
        .map(|&pct| (pct, n.saturating_sub(rank(pct, n.max(1)))))
        .find(|&(_, beyond)| n > 0 && beyond >= MIN_BEYOND)
        .and_then(|(pct, beyond)| {
            percentile(sorted, pct).map(|value| Percentile { pct, value, n, beyond })
        })
}

/// Completed operations in recording order: when each finished (seconds
/// on the run's clock) and how long it took (ms). The buffer is allocated
/// and touched up front, so recording adds nothing to the peak RSS the run
/// reports unless it outgrows its capacity.
pub struct Samples {
    done_s: Vec<f32>,
    latency_ms: Vec<f32>,
}

impl Samples {
    /// A buffer for up to `capacity` samples, its pages already resident.
    pub fn with_capacity(capacity: usize) -> Self {
        let touched = |n: usize| {
            // `resize` writes every element; a zeroed allocation would stay
            // unmapped until first use.
            let mut v = Vec::with_capacity(n);
            v.resize(n, 1f32);
            v.clear();
            v
        };
        Samples { done_s: touched(capacity), latency_ms: touched(capacity) }
    }

    /// Records one operation.
    pub fn push(&mut self, done_s: f64, latency_ms: f64) {
        self.done_s.push(done_s as f32);
        self.latency_ms.push(latency_ms as f32);
    }

    /// Appends another buffer's samples.
    pub fn extend(&mut self, other: &Samples) {
        self.done_s.extend_from_slice(&other.done_s);
        self.latency_ms.extend_from_slice(&other.latency_ms);
    }

    /// Samples recorded.
    pub fn len(&self) -> usize {
        self.done_s.len()
    }

    /// Latencies in ms, in recording order.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.latency_ms.iter().map(|&v| f64::from(v)).collect()
    }

    /// Completion times in seconds, ascending.
    pub fn done_s(&self) -> Vec<f64> {
        sorted(&self.done_s.iter().map(|&v| f64::from(v)).collect::<Vec<_>>())
    }
}

/// Completions per second in each of up to `windows` consecutive windows
/// of equal completion count (one completion per window when there are
/// fewer). `done_s` is ascending, on a clock starting at 0.
pub fn window_rates(done_s: &[f64], windows: usize) -> Vec<f64> {
    let k = done_s.len().div_ceil(windows.max(1)).max(1);
    (0..done_s.len() / k)
        .map(|i| {
            let start = if i == 0 { 0.0 } else { done_s[i * k - 1] };
            k as f64 / (done_s[(i + 1) * k - 1] - start)
        })
        .collect()
}

/// Why an attempted operation did not count as correct.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failure {
    /// The program answered with a typed rejection or error.
    Refused,
    /// No answer arrived (lost reply, broken connection).
    Lost,
    /// An answer arrived but failed the correctness check.
    Invalid,
}

/// Outcome accounting for one run: every attempt ends as exactly one of
/// ok / refused / lost / invalid.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that completed and passed the check.
    pub ok: u64,
    /// Typed rejections.
    pub refused: u64,
    /// Lost replies.
    pub lost: u64,
    /// Answers that failed the check.
    pub invalid: u64,
}

impl Tally {
    /// Records one operation's outcome.
    pub fn record(&mut self, outcome: Result<(), Failure>) {
        self.attempted += 1;
        match outcome {
            Ok(()) => self.ok += 1,
            Err(Failure::Refused) => self.refused += 1,
            Err(Failure::Lost) => self.lost += 1,
            Err(Failure::Invalid) => self.invalid += 1,
        }
    }

    /// Attempts that did not end ok.
    pub fn failed(&self) -> u64 {
        self.refused + self.lost + self.invalid
    }

    /// Ok operations over attempted ones (0 when nothing was attempted).
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.ok as f64 / self.attempted as f64
        }
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.refused += other.refused;
        self.lost += other.lost;
        self.invalid += other.invalid;
    }
}

/// The share of `parent` its `children` leave unexplained:
/// `(parent − Σ children) / parent`. Negative when the children overshoot.
pub fn residual_share(parent: f64, children: &[f64]) -> f64 {
    if parent == 0.0 {
        return if children.iter().sum::<f64>() == 0.0 { 0.0 } else { f64::NEG_INFINITY };
    }
    (parent - children.iter().sum::<f64>()) / parent
}

/// Whether `children` sum to `parent` within `tolerance` (a share of the
/// parent, either side).
pub fn sums_within(parent: f64, children: &[f64], tolerance: f64) -> bool {
    residual_share(parent, children).abs() <= tolerance
}

/// Peak resident set size in MiB from the text of `/proc/<pid>/status`
/// (its `VmHWM` line, in kB).
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb / 1024.0)
}

/// The host's cumulative (stolen, total) CPU ticks from the text of
/// `/proc/stat` — its aggregate `cpu` line.
pub fn parse_steal_ticks(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> =
        line.split_whitespace().skip(1).map(str::parse).collect::<Result<_, _>>().ok()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// The host's cumulative (stolen, total) CPU ticks, when readable.
pub fn steal_ticks() -> Option<(u64, u64)> {
    parse_steal_ticks(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_peak_rss_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 90.0), Some(90.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&[7.0], 99.9), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        // 19 samples: the median leaves 9 beyond, so nothing qualifies.
        assert_eq!(highest_supported(&ramp(19)), None);
        assert_eq!(highest_supported(&[]), None);
        // 20 samples: the median has exactly 10 beyond.
        let p = highest_supported(&ramp(20)).unwrap();
        assert_eq!((p.pct, p.value, p.n, p.beyond), (50.0, 10.0, 20, 10));
        // 99 samples: p90 has rank 90 and 9 beyond, so p50 it is.
        assert_eq!(highest_supported(&ramp(99)).unwrap().pct, 50.0);
        // 100 samples: p90 has exactly 10 beyond; p99 only 1.
        let p = highest_supported(&ramp(100)).unwrap();
        assert_eq!((p.pct, p.value, p.beyond), (90.0, 90.0, 10));
        // 1000 samples reach p99; 10000 reach p99.9.
        assert_eq!(highest_supported(&ramp(1000)).unwrap().pct, 99.0);
        let p = highest_supported(&ramp(10_000)).unwrap();
        assert_eq!((p.pct, p.beyond), (99.9, 10));
    }

    #[test]
    fn window_rates_split_by_completion_count() {
        // One completion per ms: 1000/s in every window.
        let even: Vec<f64> = (1..=1000).map(|i| i as f64 / 1000.0).collect();
        let rates = window_rates(&even, 10);
        assert_eq!(rates.len(), 10);
        assert!(rates.iter().all(|r| (r - 1000.0).abs() < 1e-6));
        // A 1 s stall before completion 501 slows one window only.
        let stalled: Vec<f64> =
            even.iter().enumerate().map(|(i, t)| if i >= 500 { t + 1.0 } else { *t }).collect();
        let rates = sorted(&window_rates(&stalled, 10));
        assert!((rates[0] - 100.0 / 1.1).abs() < 1e-6);
        assert!((percentile(&rates, 90.0).unwrap() - 1000.0).abs() < 1e-6);
        // Fewer completions than windows: one completion per window.
        assert_eq!(window_rates(&[0.5, 1.0, 2.0], 10), vec![2.0, 2.0, 1.0]);
        assert!(window_rates(&[], 10).is_empty());
    }

    #[test]
    fn samples_keep_order_and_capacity() {
        let mut s = Samples::with_capacity(4);
        s.push(0.5, 2.0);
        s.push(0.25, 1.0);
        let mut all = Samples::with_capacity(4);
        all.extend(&s);
        assert_eq!(all.len(), 2);
        assert_eq!(all.latencies_ms(), vec![2.0, 1.0]);
        assert_eq!(all.done_s(), vec![0.25, 0.5]);
    }

    #[test]
    fn tally_counts_refused_and_lost_as_failed() {
        let mut t = Tally::default();
        for _ in 0..7 {
            t.record(Ok(()));
        }
        t.record(Err(Failure::Refused));
        t.record(Err(Failure::Lost));
        t.record(Err(Failure::Invalid));
        assert_eq!((t.attempted, t.ok, t.failed()), (10, 7, 3));
        assert_eq!(t.ok_share(), 0.7);
        let mut all = Tally::default();
        all.merge(&t);
        all.merge(&t);
        assert_eq!((all.attempted, all.refused, all.lost, all.invalid), (20, 2, 2, 2));
        assert_eq!(Tally::default().ok_share(), 0.0);
        let mut clean = Tally::default();
        clean.record(Ok(()));
        assert_eq!(clean.ok_share(), 1.0);
    }

    #[test]
    fn child_sum_residual() {
        assert_eq!(residual_share(10.0, &[4.0, 5.0]), 0.1);
        assert_eq!(residual_share(10.0, &[6.0, 6.0]), -0.2);
        assert!(sums_within(10.0, &[4.0, 5.0], 0.1));
        assert!(!sums_within(10.0, &[4.0, 5.0], 0.05));
        assert!(!sums_within(10.0, &[6.0, 6.0], 0.1));
        assert_eq!(residual_share(0.0, &[]), 0.0);
        assert!(!sums_within(0.0, &[1.0], 0.5));
    }

    #[test]
    fn steal_parses_the_cpu_line() {
        let stat = "cpu  10 0 5 80 1 0 1 3 0 0\ncpu0 5 0 2 40 0 0 0 1 0 0\n";
        assert_eq!(parse_steal_ticks(stat), Some((3, 100)));
        assert_eq!(parse_steal_ticks("cpu0 1 2 3\n"), None);
        assert_eq!(parse_steal_ticks("cpu  1 2 3\n"), None);
    }

    #[test]
    fn peak_rss_parses_vmhwm() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(50.0));
        assert_eq!(parse_peak_rss_mb("VmRSS:\t 40000 kB\n"), None);
        assert_eq!(parse_peak_rss_mb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_peak_rss_mb("VmHWM:\t 1024 MB\n"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
