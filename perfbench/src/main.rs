//! `perfbench` — the repository benchmark: three workloads measured end to
//! end, and a traced run that breaks them down layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_paper|fleet_w1000|serve_closed|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run prints the end-to-end metrics of one workload.
//! With `--trace 1` it runs every workload's traced pass and prints the
//! per-layer metrics. The last line of standard output is always one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for the workloads, metrics and design.

mod fleet;
mod serve;
mod stats;
mod train;

use serde::Value;
use stats::{Samples, Tally};
use std::process::ExitCode;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// Windows the timed phase is cut into for `throughput_per_s`.
const RATE_WINDOWS: usize = 400;

/// The window-rate percentile reported as `throughput_per_s`, and the
/// latency percentile reported as `latency_ms_p10`. Stalls only ever add
/// time, and on a host that steals CPU from this machine they hit the
/// slower half of the distribution; the fast tail tracks the program.
const FAST_RATE_PCT: f64 = 90.0;
const FAST_LATENCY_PCT: f64 = 10.0;

/// The workloads, in report order.
const WORKLOADS: [&str; 3] = ["train_paper", "fleet_w1000", "serve_closed"];

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == name).ok_or(format!("missing {name}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{name} needs a value"))
    };
    let workload = flag("--workload")?.to_owned();
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {WORKLOADS:?} or all)"));
    }
    let seed = flag("--seed")?.parse().map_err(|_| "--seed must be an integer".to_owned())?;
    let seconds: f64 =
        flag("--seconds")?.parse().map_err(|_| "--seconds must be a number".to_owned())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match flag("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// Derives an independent sub-seed for one input stream (splitmix64 of the
/// workload seed and a stream tag).
pub fn derive_seed(seed: u64, tag: &str) -> u64 {
    let mut z = tag.bytes().fold(seed ^ 0x9E37_79B9_7F4A_7C15, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    });
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hardware threads available to the process (the load generator's cap).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Seconds elapsed since `t` as `f64`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// What one untraced workload run measured.
pub struct E2e {
    /// Duration of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Every operation that completed.
    pub samples: Samples,
    /// Work units (transitions, slots or replies) per operation.
    pub units_per_op: f64,
    /// What the unit is, for the printed report.
    pub unit_name: &'static str,
    /// Outcome of every timed operation.
    pub tally: Tally,
    /// Peak RSS in MiB, read as the timed phase ends (before the
    /// benchmark's own post-processing allocates).
    pub peak_rss_mb: f64,
}

/// This process's peak RSS in MiB (NaN when unreadable).
pub fn peak_rss_mb() -> f64 {
    stats::peak_rss_mb().unwrap_or(f64::NAN)
}

/// One printed metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// What the value rests on (sample count, denominator), printed only.
    pub base: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &str, base: String) -> Self {
        Metric { name: name.into(), value, unit: unit.to_owned(), base }
    }
}

/// End-to-end metrics of one run, in `BENCHMARK.json` order.
fn e2e_metrics(r: &E2e) -> Vec<Metric> {
    let lat = stats::sorted(&r.samples.latencies_ms());
    let rates = stats::sorted(&stats::window_rates(&r.samples.done_s(), RATE_WINDOWS));
    let rate = stats::percentile(&rates, FAST_RATE_PCT).unwrap_or(f64::NAN);
    let n = lat.len();
    let pct = |p: f64| stats::percentile(&lat, p).unwrap_or(f64::NAN);
    vec![
        Metric::new(
            "setup_s",
            stats::median(&r.setup_s).unwrap_or(f64::NAN),
            "s",
            format!("median of {} set-ups", r.setup_s.len()),
        ),
        Metric::new("peak_rss_mb", r.peak_rss_mb, "MiB", "VmHWM as the timed phase ends".into()),
        Metric::new(
            "ok_share",
            r.tally.ok_share(),
            "share",
            format!("{} ok of {} attempted", r.tally.ok, r.tally.attempted),
        ),
        Metric::new(
            "throughput_per_s",
            rate * r.units_per_op,
            "1/s",
            format!("{}, p{FAST_RATE_PCT} of {} windows", r.unit_name, rates.len()),
        ),
        Metric::new("latency_ms_p10", pct(FAST_LATENCY_PCT), "ms", format!("n={n}")),
    ]
}

/// Printed only: the median and tail, and the host's CPU steal.
fn print_tail(r: &E2e, steal: Option<f64>) {
    let lat = stats::sorted(&r.samples.latencies_ms());
    for pct in [50.0, 90.0, 99.0] {
        if let Some(v) = stats::percentile(&lat, pct) {
            println!("  (latency_ms_p{pct} {v:.4} ms, n={}; printed only)", lat.len());
        }
    }
    let rates = stats::window_rates(&r.samples.done_s(), RATE_WINDOWS);
    if let Some(v) = stats::median(&rates) {
        println!("  (median window rate {:.3}/s; printed only)", v * r.units_per_op);
    }
    if let Some(share) = steal {
        println!("  (host CPU steal during the run: {:.1}%)", share * 100.0);
    }
    match stats::highest_supported(&lat) {
        Some(p) => println!(
            "  (highest supported percentile: p{} = {:.4} ms, n={}, {} beyond)",
            p.pct, p.value, p.n, p.beyond
        ),
        None => println!("  (fewer than 20 samples: no percentile has 10 beyond)"),
    }
    let t = &r.tally;
    println!(
        "  (attempted {}, ok {}, refused {}, lost {}, invalid {})",
        t.attempted, t.ok, t.refused, t.lost, t.invalid
    );
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<40} {:>14.6} {:<6} [{}]", m.name, m.value, m.unit, m.base);
    }
}

/// The final JSON line. Non-finite values are emitted as `null`, which the
/// consumer rejects — they mean a measurement is missing.
fn json_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { format!("{:?}", m.value) } else { "null".into() };
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed(),
        body.join(", ")
    )
}

fn run_e2e(workload: &str, seed: u64, seconds: f64) -> E2e {
    match workload {
        "train_paper" => train::run(seed, seconds),
        "fleet_w1000" => fleet::run(seed, seconds),
        _ => serve::run(seed, seconds),
    }
}

/// `--workload all`: every workload in its own child process (so each
/// reports its own peak RSS), then one merged JSON line.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate self: {e}"))?;
    let mut tally = Tally::default();
    let mut correct = true;
    let mut merged = Vec::new();
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("cannot run {w}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let (report, last) = text.trim_end().rsplit_once('\n').unwrap_or(("", &text));
        println!("{report}");
        if !out.status.success() {
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            return Err(format!("workload {w} failed"));
        }
        let result: Value =
            serde_json::from_str(last).map_err(|_| format!("workload {w}: bad result line"))?;
        let count = |key: &str| result.get(key).and_then(Value::as_u64).unwrap_or(0);
        let (attempted, failed) = (count("attempted"), count("failed"));
        correct &= result.get("correct").and_then(Value::as_bool) == Some(true);
        tally.attempted += attempted;
        tally.ok += attempted - failed;
        tally.invalid += failed;
        if let Some(Value::Map(metrics)) = result.get("metrics") {
            for (name, m) in metrics {
                let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or_default();
                merged.push(Metric::new(format!("{w}.{name}"), value, unit, String::new()));
            }
        }
    }
    println!("{}", json_line(correct, &tally, &merged));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args).unwrap_or_else(|e| {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        });
    }
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc()
    );
    if args.trace {
        let mut traced = Vec::new();
        let mut tally = Tally::default();
        let mut failed_checks = 0;
        let share = args.seconds / WORKLOADS.len() as f64;
        for w in WORKLOADS {
            let t = match w {
                "train_paper" => train::trace(args.seed, share),
                "fleet_w1000" => fleet::trace(args.seed, share),
                _ => serve::trace(args.seed, share),
            };
            failed_checks += t.checks_failed;
            tally.merge(&t.tally);
            traced.extend(t.metrics);
        }
        traced.push(Metric::new(
            "trace.checks_failed",
            failed_checks as f64,
            "count",
            "child-sum checks outside their stated residual".into(),
        ));
        print_metrics("per-layer metrics (traced run)", &traced);
        let correct = tally.failed() == 0 && tally.attempted > 0;
        println!("{}", json_line(correct, &tally, &traced));
    } else {
        let before = stats::steal_ticks();
        let r = run_e2e(&args.workload, args.seed, args.seconds);
        let steal = before
            .zip(stats::steal_ticks())
            .map(|((s0, t0), (s1, t1))| (s1 - s0) as f64 / (t1 - t0).max(1) as f64);
        let metrics = e2e_metrics(&r);
        print_metrics(&format!("end-to-end metrics ({})", args.workload), &metrics);
        print_tail(&r, steal);
        let correct = r.tally.failed() == 0 && r.tally.attempted > 0;
        println!("{}", json_line(correct, &r.tally, &metrics));
    }
    ExitCode::SUCCESS
}

/// What one workload's traced pass measured.
#[derive(Default)]
pub struct Traced {
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Child-sum checks outside their stated residual.
    pub checks_failed: usize,
    /// Outcome of every operation of the pass.
    pub tally: Tally,
}

impl Traced {
    /// Adds a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &str, base: String) {
        self.metrics.push(Metric::new(name, value, unit, base));
    }

    /// Records a child-sum check of `children` against `parent` within
    /// `tolerance`, printing the parts.
    pub fn check_sum(&mut self, what: &str, parent: f64, children: &[f64], tolerance: f64) {
        let residual = stats::residual_share(parent, children);
        let ok = stats::sums_within(parent, children, tolerance);
        println!(
            "  child-sum check {}: {what}: parent {parent:.4}, children {children:.4?}, \
             residual {:+.1}% (allowed ±{:.0}%)",
            if ok { "ok" } else { "FAILED" },
            residual * 100.0,
            tolerance * 100.0
        );
        self.checks_failed += usize::from(!ok);
    }
}
