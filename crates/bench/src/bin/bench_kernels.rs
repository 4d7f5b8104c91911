//! Kernel benchmark ladders with an in-run gate. Times the dense-kernel
//! hot path (naive vs blocked GEMM, with thread ladders through the
//! persistent pool, and the paper trunk's three convs at batch 1, 100 and
//! 250), appends a run record to `BENCH_kernels.json`, then gates the run
//! against itself: `matmul_blocked 256x256x256` on one thread
//! must reach at least [`MIN_BLOCKED_SPEEDUP`]× the GFLOP/s of
//! `matmul_naive` at the same shape, both timed in this process on this
//! host. Otherwise the run prints both numbers and exits non-zero, as it
//! does when either record is missing. No record is compared against a
//! number from another run or from the committed file, which is history
//! only.
//!
//! End-to-end paths are timed by `perfbench/` instead: `train_paper`
//! gates the training episode (rollout, PPO update, chief barrier) and
//! `fleet_w1000` the 1000-worker fleet slot (factored-head sampling and
//! the struct-of-arrays step).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p vc-bench --bin bench_kernels [-- --smoke] [--out PATH]
//! ```
//!
//! `--smoke` runs the conv ladder for a couple of iterations — enough to
//! validate the pipeline and the emitted JSON schema (used by
//! `cargo xtask bench --smoke` and CI). The matmuls, which the gate reads,
//! run at full iteration count in both modes.
//!
//! Each run record is `{schema_version, mode, unix_time_s, target_features,
//! simd_kernel, results: [...]}` with one result per `(op, shape,
//! threads)`: `{op, shape, threads, iters, ns_per_iter, gflops}`. The file
//! as a whole is a JSON array of runs — the trajectory. Schema version 2
//! added `target_features` (the CPU features detected at run time, e.g.
//! `avx2,fma`) and `simd_kernel` (which GEMM micro-kernel flavor the run
//! exercised); version-1 records in the history stay valid.

#![allow(clippy::unwrap_used, clippy::expect_used)] // a broken bench fixture should abort loudly

use serde::Value;
use std::time::Instant;
use vc_nn::ops::conv::{conv2d_backward, conv2d_forward};
use vc_nn::ops::gemm;
use vc_nn::prelude::*;

/// The gated shape: the blocked kernel's headline square GEMM.
const GATE_SHAPE: &str = "256x256x256";

/// Least GFLOP/s ratio of `matmul_blocked` (one thread) over
/// `matmul_naive` at [`GATE_SHAPE`] within one run. The AVX2 and scalar
/// flavors clear it on a 2-vCPU x86-64 host (3.0–3.9× with the AVX2 tile,
/// 2.4–2.8× with the flavor capped at `Scalar`); a `gemm` that lost its
/// blocking reads about 1×.
const MIN_BLOCKED_SPEEDUP: f64 = 2.0;

/// One timed benchmark case.
struct Rec {
    op: &'static str,
    shape: String,
    threads: usize,
    iters: u64,
    ns_per_iter: f64,
    flops: f64,
}

impl Rec {
    fn gflops(&self) -> f64 {
        if self.ns_per_iter > 0.0 && self.flops > 0.0 {
            self.flops / self.ns_per_iter
        } else {
            0.0
        }
    }

    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("op".into(), Value::Str(self.op.into())),
            ("shape".into(), Value::Str(self.shape.clone())),
            ("threads".into(), Value::UInt(self.threads as u64)),
            ("iters".into(), Value::UInt(self.iters)),
            ("ns_per_iter".into(), Value::Float(self.ns_per_iter)),
            ("gflops".into(), Value::Float(self.gflops())),
        ])
    }
}

/// The in-run gate: returns the GFLOP/s ratio of `matmul_blocked` on one
/// thread over `matmul_naive` at [`GATE_SHAPE`], or why the run fails —
/// a ratio under [`MIN_BLOCKED_SPEEDUP`], or a missing record.
fn gemm_gate(recs: &[Rec]) -> Result<f64, String> {
    let find = |op: &str| {
        recs.iter()
            .find(|r| r.op == op && r.shape == GATE_SHAPE && r.threads == 1)
            .ok_or_else(|| format!("run has no `{op} {GATE_SHAPE} t1` record"))
    };
    let naive = find("matmul_naive")?.gflops();
    let blocked = find("matmul_blocked")?.gflops();
    let ratio = blocked / naive;
    if ratio >= MIN_BLOCKED_SPEEDUP {
        Ok(ratio)
    } else {
        Err(format!(
            "matmul_blocked {GATE_SHAPE} t1 {blocked:.2} GFLOP/s is {ratio:.2}x \
             matmul_naive's {naive:.2} GFLOP/s, under {MIN_BLOCKED_SPEEDUP:.1}x"
        ))
    }
}

/// Times `f` after one warm-up pass: runs `reps` batches of `iters`
/// iterations and reports the fastest batch's ns/iter. Minimum-of-batches
/// filters scheduler noise, which on a shared box otherwise dominates
/// sub-millisecond kernels.
fn time_ns_reps(iters: u64, reps: u32, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// Deterministic pseudo-random fill (no RNG state shared with training).
fn lcg_fill(seed: u32, len: usize) -> Vec<f32> {
    let mut s = seed.wrapping_mul(2654435761).wrapping_add(1);
    (0..len)
        .map(|_| {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            (s >> 9) as f32 / (1u32 << 23) as f32 - 0.5
        })
        .collect()
}

fn bench_matmuls(out: &mut Vec<Rec>) {
    /// Timed batches per record; the fastest batch is reported.
    const REPS: u32 = 5;
    /// Iterations per batch for the shapes at or above `PAR_THRESHOLD`.
    const ITERS: u64 = 20;
    // The last two are the network's own shapes: the batch-of-one `fc`
    // layer (the small-M route) and the 1000-worker fleet head.
    let shapes: &[(usize, usize, usize)] =
        &[(64, 64, 64), (256, 256, 256), (33, 65, 127), (1, 256, 128), (1000, 128, 11)];
    for &(m, k, n) in shapes {
        let a = lcg_fill(1, m * k);
        let b = lcg_fill(2, k * n);
        let mut c = vec![0.0f32; m * n];
        let flops = 2.0 * m as f64 * k as f64 * n as f64;
        let shape = format!("{m}x{k}x{n}");
        // Sub-threshold shapes finish in ~10 µs; scale their batches up so
        // one batch is milliseconds, not microseconds, of work.
        let iters = if m * k * n < gemm::PAR_THRESHOLD { ITERS * 40 } else { ITERS };
        if (m, k, n) == (256, 256, 256) {
            // The baseline the blocked kernel is gated against.
            let ns = time_ns_reps(iters, REPS, || {
                gemm::matmul_naive(
                    std::hint::black_box(&a),
                    std::hint::black_box(&b),
                    &mut c,
                    m,
                    k,
                    n,
                );
            });
            out.push(Rec {
                op: "matmul_naive",
                shape: shape.clone(),
                threads: 1,
                iters,
                ns_per_iter: ns,
                flops,
            });
        }
        // The headline 256³ shape carries the full thread ladder so the
        // trajectory shows how pooled dispatch scales (t8 included per the
        // ROADMAP scaling target); small shapes keep t1/t2, which is enough
        // to catch the dispatch threshold misfiring. The network shapes
        // run single-threaded, as sampling does.
        let thread_ladder: &[usize] = match (m, k, n) {
            (256, 256, 256) => &[1, 2, 4, 8],
            (1, 256, 128) | (1000, 128, 11) => &[1],
            _ => &[1, 2],
        };
        for &threads in thread_ladder {
            let ns = time_ns_reps(iters, REPS, || {
                gemm::gemm(
                    std::hint::black_box(&a),
                    std::hint::black_box(&b),
                    &mut c,
                    m,
                    k,
                    n,
                    threads,
                );
            });
            out.push(Rec {
                op: "matmul_blocked",
                shape: shape.clone(),
                threads,
                iters,
                ns_per_iter: ns,
                flops,
            });
        }
    }
}

/// Times `conv2d_forward` and a full `conv2d_backward` (input, weight and
/// bias gradients) of one layer on an `[bsz, C_in, side, side]` input.
fn bench_conv_case(
    cfg: ConvCfg,
    bsz: usize,
    side: usize,
    shape: String,
    (iters, reps): (u64, u32),
    out: &mut Vec<Rec>,
) {
    let (cin, cout, k) = (cfg.in_channels, cfg.out_channels, cfg.kernel);
    let x = Tensor::from_vec(&[bsz, cin, side, side], lcg_fill(3, bsz * cin * side * side));
    let wt = Tensor::from_vec(&[cout, cin, k, k], lcg_fill(4, cout * cin * k * k));
    let bias = Tensor::from_vec(&[cout], lcg_fill(5, cout));
    let so = cfg.out_size(side).unwrap();
    let flops = 2.0 * (bsz * cout * so * so * cin * k * k) as f64;

    let ns = time_ns_reps(iters, reps, || {
        std::hint::black_box(conv2d_forward(std::hint::black_box(&x), &wt, &bias, &cfg));
    });
    out.push(Rec {
        op: "conv2d_forward",
        shape: shape.clone(),
        threads: gemm::kernel_threads(),
        iters,
        ns_per_iter: ns,
        flops,
    });

    let f = conv2d_forward(&x, &wt, &bias, &cfg);
    let gout = Tensor::ones(f.output.shape());
    let ns = time_ns_reps(iters, reps, || {
        std::hint::black_box(conv2d_backward(
            std::hint::black_box(&gout),
            &f.padded,
            &wt,
            x.shape(),
            &cfg,
        ));
    });
    out.push(Rec {
        op: "conv2d_backward",
        shape,
        threads: gemm::kernel_threads(),
        iters,
        ns_per_iter: ns,
        flops: 2.0 * flops, // the weight and input gradients, each of forward volume
    });
}

/// The paper trunk's three convs (Section V-B) on the paper grid at a
/// rollout batch (1), the trainer's minibatch (100) and a large batch (250).
fn bench_conv_ladder(smoke: bool, out: &mut Vec<Rec>) {
    let layers = [
        (
            "conv1",
            ConvCfg { in_channels: 3, out_channels: 8, kernel: 3, stride: 2, padding: 1 },
            16,
        ),
        (
            "conv2",
            ConvCfg { in_channels: 8, out_channels: 16, kernel: 3, stride: 2, padding: 1 },
            8,
        ),
        (
            "conv3",
            ConvCfg { in_channels: 16, out_channels: 16, kernel: 3, stride: 1, padding: 1 },
            4,
        ),
    ];
    for bsz in [1usize, 100, 250] {
        let timing = match (smoke, bsz) {
            (true, _) => (2, 1),
            (false, 1) => (2000, 5),
            (false, _) => (20, 5),
        };
        for (name, cfg, side) in layers {
            let shape = format!(
                "{name} b{bsz}c{}->{} {side}x{side}k3s{}",
                cfg.in_channels, cfg.out_channels, cfg.stride
            );
            bench_conv_case(cfg, bsz, side, shape, timing, out);
        }
    }
}

/// Comma-separated list of the CPU features the GEMM kernels care about,
/// as detected at run time (what the *host* has, independent of what the
/// binary was compiled for — the pair localizes "why did GFLOP/s move"
/// across heterogeneous bench hosts).
fn detected_target_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut feats = Vec::new();
        if std::arch::is_x86_feature_detected!("avx2") {
            feats.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            feats.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            feats.push("avx512f");
        }
        if feats.is_empty() {
            "none".into()
        } else {
            feats.join(",")
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "non-x86".into()
    }
}

/// Validates one run record against the trajectory schema. Version-2 runs
/// additionally carry `target_features` / `simd_kernel`; earlier records in
/// the committed history must stay valid, so those keys are only required
/// when `schema_version >= 2`.
fn validate_run(run: &Value) -> Result<(), String> {
    for key in ["schema_version", "mode", "unix_time_s", "results"] {
        if run.get(key).is_none() {
            return Err(format!("run record missing `{key}`"));
        }
    }
    let version = run.get("schema_version").and_then(Value::as_u64).unwrap_or(0);
    if version >= 2 {
        for key in ["target_features", "simd_kernel"] {
            if run.get(key).and_then(Value::as_str).is_none() {
                return Err(format!("schema v{version} run record missing string `{key}`"));
            }
        }
    }
    let results = run
        .get("results")
        .and_then(Value::as_seq)
        .ok_or_else(|| "`results` must be an array".to_owned())?;
    if results.is_empty() {
        return Err("`results` must be non-empty".into());
    }
    for (i, rec) in results.iter().enumerate() {
        for key in ["op", "shape", "threads", "iters", "ns_per_iter", "gflops"] {
            if rec.get(key).is_none() {
                return Err(format!("result {i} missing `{key}`"));
            }
        }
        if rec.get("op").and_then(Value::as_str).is_none() {
            return Err(format!("result {i}: `op` must be a string"));
        }
    }
    Ok(())
}

/// Validates a whole trajectory file (array of run records).
fn validate_trajectory(text: &str) -> Result<usize, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let runs = v.as_seq().ok_or_else(|| "trajectory must be a JSON array of runs".to_owned())?;
    for run in runs {
        validate_run(run)?;
    }
    Ok(runs.len())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_kernels.json".to_owned());

    let mut recs = Vec::new();
    bench_matmuls(&mut recs);
    bench_conv_ladder(smoke, &mut recs);

    println!("{:<16} {:>24} {:>8} {:>14} {:>10}", "op", "shape", "threads", "ns/iter", "GFLOP/s");
    for r in &recs {
        println!(
            "{:<16} {:>24} {:>8} {:>14.0} {:>10.2}",
            r.op,
            r.shape,
            r.threads,
            r.ns_per_iter,
            r.gflops()
        );
    }

    // Append this run to the trajectory (tolerating a missing or corrupt
    // existing file — the trajectory restarts rather than blocking the run).
    let mut runs: Vec<Value> = std::fs::read_to_string(&out_path)
        .ok()
        .and_then(|t| serde_json::from_str::<Value>(&t).ok())
        .and_then(|v| v.as_seq().map(<[Value]>::to_vec))
        .unwrap_or_default();
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let simd_kernel = gemm::kernel_flavor().name();
    let run = Value::Map(vec![
        ("schema_version".into(), Value::UInt(2)),
        ("mode".into(), Value::Str(if smoke { "smoke" } else { "full" }.into())),
        ("unix_time_s".into(), Value::UInt(unix_s)),
        ("target_features".into(), Value::Str(detected_target_features())),
        ("simd_kernel".into(), Value::Str(simd_kernel.into())),
        ("results".into(), Value::Seq(recs.iter().map(Rec::to_value).collect())),
    ]);
    if let Err(e) = validate_run(&run) {
        eprintln!("bench_kernels: BUG: emitted run fails its own schema: {e}");
        std::process::exit(1);
    }
    runs.push(run);
    let text = serde_json::to_string_pretty(&Value::Seq(runs)).expect("serialize trajectory");
    std::fs::write(&out_path, &text).expect("write trajectory file");

    // Re-read and validate the artifact end to end, so schema drift fails
    // the bench (and CI) immediately.
    let reread = std::fs::read_to_string(&out_path).expect("re-read trajectory file");
    match validate_trajectory(&reread) {
        Ok(n) => println!("wrote {out_path}: {n} run(s), schema ok"),
        Err(e) => {
            eprintln!("bench_kernels: schema validation failed: {e}");
            std::process::exit(1);
        }
    }

    match gemm_gate(&recs) {
        Ok(ratio) => println!(
            "gate ok: matmul_blocked {GATE_SHAPE} t1 is {ratio:.2}x matmul_naive \
             (floor {MIN_BLOCKED_SPEEDUP:.1}x)"
        ),
        Err(e) => {
            eprintln!("bench_kernels: gate FAIL: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record at the gated shape whose GFLOP/s is `gflops`.
    fn rec(op: &'static str, threads: usize, gflops: f64) -> Rec {
        let flops = 2.0 * 256f64.powi(3);
        Rec { op, shape: GATE_SHAPE.into(), threads, iters: 20, ns_per_iter: flops / gflops, flops }
    }

    #[test]
    fn gate_passes_a_blocked_kernel_at_three_and_a_half_times_naive() {
        let run = [rec("matmul_naive", 1, 10.0), rec("matmul_blocked", 1, 35.0)];
        let ratio = gemm_gate(&run).unwrap();
        assert!((ratio - 3.5).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn gate_fails_a_blocked_kernel_at_one_and_a_half_times_naive() {
        let run = [rec("matmul_naive", 1, 10.0), rec("matmul_blocked", 1, 15.0)];
        let err = gemm_gate(&run).unwrap_err();
        assert!(err.contains("15.00") && err.contains("10.00"), "{err}");
    }

    #[test]
    fn gate_fails_a_run_missing_either_gated_record() {
        let no_naive = [rec("matmul_blocked", 1, 35.0), rec("matmul_blocked", 2, 60.0)];
        assert!(gemm_gate(&no_naive).unwrap_err().contains("matmul_naive"));
        // A blocked record at another thread count does not stand in for t1.
        let no_blocked_t1 = [rec("matmul_naive", 1, 10.0), rec("matmul_blocked", 2, 60.0)];
        assert!(gemm_gate(&no_blocked_t1).unwrap_err().contains("matmul_blocked"));
        assert!(gemm_gate(&[]).is_err());
    }
}
