//! Kernel & episode benchmark trajectory: times the dense-kernel hot path
//! (naive vs blocked GEMM, whole-batch conv forward/backward, and the paper
//! trunk's three convs at batch 1, 100 and 250) and one real
//! training episode, then appends a run record to `BENCH_kernels.json` so
//! the perf history accumulates commit over commit.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p vc-bench --bin bench_kernels [-- --smoke] [--out PATH]
//! ```
//!
//! `--smoke` runs each target for a couple of iterations — enough to
//! validate the pipeline and the emitted JSON schema without meaningful
//! statistics (used by `cargo xtask bench --smoke` and CI).
//!
//! Each run record is `{schema_version, mode, unix_time_s, target_features,
//! simd_kernel, results: [...]}` with one result per `(op, shape,
//! threads)`: `{op, shape, threads, iters, ns_per_iter, gflops}`. The file
//! as a whole is a JSON array of runs — the trajectory. Schema version 2
//! added `target_features` (the CPU features detected at run time, e.g.
//! `avx2,fma`) and `simd_kernel` (which GEMM micro-kernel flavor the run
//! exercised); version-1 records in the history stay valid.

#![allow(clippy::unwrap_used, clippy::expect_used)] // a broken bench fixture should abort loudly

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;
use std::time::Instant;
use vc_bench::{bench_trainer, chief_stress_trainer};
use vc_env::prelude::*;
use vc_nn::ops::conv::{conv2d_backward, conv2d_forward};
use vc_nn::ops::gemm;
use vc_nn::prelude::*;
use vc_rl::prelude::*;

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
    fn to_value(&self) -> Value {
        let gflops = if self.ns_per_iter > 0.0 && self.flops > 0.0 {
            self.flops / self.ns_per_iter
        } else {
            0.0
        };
        Value::Map(vec![
            ("op".into(), Value::Str(self.op.into())),
            ("shape".into(), Value::Str(self.shape.clone())),
            ("threads".into(), Value::UInt(self.threads as u64)),
            ("iters".into(), Value::UInt(self.iters)),
            ("ns_per_iter".into(), Value::Float(self.ns_per_iter)),
            ("gflops".into(), Value::Float(gflops)),
        ])
    }
}

/// Times `f` after one warm-up pass: runs `reps` batches of `iters`
/// iterations and reports the fastest batch's ns/iter. Minimum-of-batches
/// filters scheduler noise, which on a shared box otherwise dominates
/// sub-millisecond kernels and makes the trajectory (and the smoke
/// regression gate reading it) flap.
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

/// Single-batch timing for the expensive end-to-end records.
fn time_ns(iters: u64, f: impl FnMut()) -> f64 {
    time_ns_reps(iters, 1, f)
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

fn bench_matmuls(iters: u64, out: &mut Vec<Rec>) {
    /// Timed batches per record; the fastest batch is reported.
    const REPS: u32 = 5;
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
        let iters = if m * k * n < gemm::PAR_THRESHOLD { iters * 40 } else { iters };
        if (m, k, n) == (256, 256, 256) {
            // The baseline the blocked kernel is measured against.
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

/// Times one environment step's worth of policy inference, sequentially
/// (`E` batch-of-one forwards) and batched (one `[E, C, H, W]` forward).
fn bench_rollout_step(iters: u64, out: &mut Vec<Rec>) {
    let env_cfg = EnvConfig::tiny();
    let envs: Vec<CrowdsensingEnv> =
        (0..8).map(|_| CrowdsensingEnv::new(env_cfg.clone())).collect();
    let mut rng = StdRng::seed_from_u64(11);
    let mut store = ParamStore::new();
    let net = ActorCritic::new(
        &mut store,
        NetConfig::for_scenario(env_cfg.grid, env_cfg.num_workers),
        &mut rng,
    );
    let opts = PolicyOptions::default();
    let shape = format!("envs{}", envs.len());

    let ns = time_ns(iters, || {
        for env in &envs {
            std::hint::black_box(sample_action(&net, &store, env, opts, &mut rng));
        }
    });
    out.push(Rec {
        op: "rollout_step_seq",
        shape: shape.clone(),
        threads: gemm::kernel_threads(),
        iters,
        ns_per_iter: ns,
        flops: 0.0,
    });

    let refs: Vec<&CrowdsensingEnv> = envs.iter().collect();
    let ns = time_ns(iters, || {
        std::hint::black_box(sample_actions_batched(&net, &store, &refs, opts, &mut rng));
    });
    out.push(Rec {
        op: "rollout_step_batched",
        shape,
        threads: gemm::kernel_threads(),
        iters,
        ns_per_iter: ns,
        flops: 0.0,
    });
}

/// Times one PPO gradient computation over a synthetic rollout buffer — the
/// whole-update hot path: minibatch assembly, batched forward, surrogate
/// loss, backward.
fn bench_ppo_update(iters: u64, out: &mut Vec<Rec>) {
    let env_cfg = EnvConfig::tiny();
    let env = CrowdsensingEnv::new(env_cfg.clone());
    let mut rng = StdRng::seed_from_u64(13);
    let mut store = ParamStore::new();
    let net = ActorCritic::new(
        &mut store,
        NetConfig::for_scenario(env_cfg.grid, env_cfg.num_workers),
        &mut rng,
    );
    let w = env_cfg.num_workers;
    let state_len = vc_env::state::encode(&env).len();
    let ppo = PpoConfig::default();
    let mut buffer = RolloutBuffer::new();
    let steps = 32usize;
    for i in 0..steps {
        buffer.push(Transition {
            state: lcg_fill(100 + i as u32, state_len),
            moves: (0..w).map(|j| (i + j) % MOVES_PER_WORKER).collect(),
            charges: (0..w).map(|j| (i + j) % CHARGE_CHOICES).collect(),
            move_mask: vec![true; w * MOVES_PER_WORKER],
            charge_mask: vec![true; w * CHARGE_CHOICES],
            logp: -2.0,
            reward: (i as f32 * 0.7).sin(),
            value: 0.0,
        });
    }
    finish_rollout(&mut buffer, &ppo, 0.0);
    let indices: Vec<usize> = (0..steps).collect();

    let ns = time_ns(iters, || {
        store.zero_grads();
        std::hint::black_box(compute_ppo_grads(&net, &mut store, &buffer, &indices, &ppo));
    });
    out.push(Rec {
        op: "ppo_update",
        shape: format!("batch{steps} workers{w}"),
        threads: gemm::kernel_threads(),
        iters,
        ns_per_iter: ns,
        flops: 0.0,
    });
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
        flops: 2.0 * flops, // two whole-batch GEMMs of forward volume
    });
}

fn bench_conv(iters: u64, out: &mut Vec<Rec>) {
    // The paper's CNN encoder front: [B=32, 3, 16, 16], 3→16 channels, 3x3.
    let cfg = ConvCfg { in_channels: 3, out_channels: 16, kernel: 3, stride: 1, padding: 1 };
    bench_conv_case(cfg, 32, 16, "b32c3->16 16x16k3".into(), (iters, 1), out);
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

fn bench_episode(iters: u64, out: &mut Vec<Rec>) {
    let mut trainer = bench_trainer(2, 16);
    let ns = time_ns(iters, || {
        trainer.train_episode().expect("bench episode failed");
    });
    out.push(Rec {
        op: "train_episode",
        shape: "employees2 minibatch16".into(),
        threads: 2,
        iters,
        ns_per_iter: ns,
        flops: 0.0,
    });
}

/// Times one environment step (greedy decide + step) per scenario family:
/// the default paper-style grid against the obstacle-dense maze and the
/// recharge-scarce map. The three records separate "the simulator got
/// slower" from "a family's geometry makes stepping slower" (collision
/// segment tests scale with obstacle count, so the maze is the stress row).
fn bench_env_step(iters: u64, out: &mut Vec<Rec>) {
    use vc_baselines::prelude::*;
    use vc_env::scenario_gen::generate;
    /// Timed batches per record; the fastest batch is reported.
    const REPS: u32 = 5;
    let families = [
        ScenarioFamily::DefaultGrid,
        ScenarioFamily::CityBlockMaze,
        ScenarioFamily::RechargeScarce,
    ];
    for family in families {
        let scn = generate(family, 7).expect("bench scenario generation failed");
        let mut env = scn.try_env().expect("bench scenario instantiation failed");
        let workers = env.workers().len();
        let obstacles = env.config().obstacles.len();
        let mut sched = GreedyScheduler;
        let mut rng = StdRng::seed_from_u64(7);
        let ns = time_ns_reps(iters, REPS, || {
            if env.done() {
                env.reset();
            }
            let actions = sched.decide(&env, &mut rng);
            env.step(std::hint::black_box(&actions));
        });
        out.push(Rec {
            op: "env_step",
            shape: format!("{} w{workers} obs{obstacles}", family.name()),
            threads: 1,
            iters,
            ns_per_iter: ns,
            flops: 0.0,
        });
    }
}

/// Times the struct-of-arrays fleet path. The `env_step` worker ladder
/// (10 → 100 → 1000 workers on an otherwise identical 160×160 map with
/// 20 000 PoIs) isolates how columnar stepping scales with fleet size
/// alone: a slot has no O(P) fixed cost, so it grows with the workers'
/// own phase-A and PoI-drain work. Actions come from the O(W)
/// [`SweepScheduler`] so the decide cost stays negligible next to the
/// step being measured — a lookahead baseline would cost O(W·moves·P)
/// and drown the signal. The `fleet_rollout` record closes the loop: one
/// factored-head policy forward ([`FleetActorCritic`]) plus one fleet step
/// at 1000 workers.
fn bench_fleet(iters: u64, rollout_iters: u64, out: &mut Vec<Rec>) {
    use vc_baselines::prelude::*;
    /// Timed batches per record; the fastest batch is reported.
    const REPS: u32 = 5;
    let mega = |workers: usize| {
        let mut cfg = EnvConfig::paper_default();
        cfg.size_x = 160.0;
        cfg.size_y = 160.0;
        cfg.grid = 16;
        cfg.num_workers = workers;
        cfg.num_pois = 20_000;
        cfg.num_stations = 64;
        cfg.horizon = 1_000_000; // episodes never end mid-measurement
        cfg.obstacles.clear();
        cfg.poi_distribution = PoiDistribution::Uniform;
        cfg.seed = 2020;
        cfg
    };
    for workers in [10usize, 100, 1000] {
        let mut env = CrowdsensingEnv::new(mega(workers));
        let mut sched = SweepScheduler::new();
        let mut rng = StdRng::seed_from_u64(7);
        let ns = time_ns_reps(iters, REPS, || {
            if env.done() {
                env.reset();
            }
            let actions = sched.decide(&env, &mut rng);
            env.step(std::hint::black_box(&actions));
        });
        out.push(Rec {
            op: "env_step",
            shape: format!("fleet w{workers} pois20000"),
            threads: 1,
            iters,
            ns_per_iter: ns,
            flops: 0.0,
        });
    }
    let mut env = CrowdsensingEnv::new(mega(1000));
    let mut rng = StdRng::seed_from_u64(11);
    let mut store = ParamStore::new();
    let net = FleetActorCritic::new(
        &mut store,
        NetConfig::for_scenario(env.config().grid, env.config().num_workers),
        &mut rng,
    );
    let opts = PolicyOptions::default();
    let ns = time_ns_reps(rollout_iters, REPS, || {
        if env.done() {
            env.reset();
        }
        let sampled = sample_action(&net, &store, &env, opts, &mut rng);
        env.step(std::hint::black_box(&sampled.actions));
    });
    out.push(Rec {
        op: "fleet_rollout",
        shape: "fleet w1000 pois20000".into(),
        threads: gemm::kernel_threads(),
        iters: rollout_iters,
        ns_per_iter: ns,
        flops: 0.0,
    });
}

/// Times the telemetry-off chief stress loop: 16 employees × `rounds`
/// gather rounds on a small map. This is the acceptance substrate for the
/// "disabled telemetry costs ≤ 2%" budget — the instrumented broadcast /
/// gather / apply path runs at full round rate with a `Telemetry::off`
/// handle, so regressions in the disabled-path overhead show up here.
fn bench_chief_stress(iters: u64, rounds: usize, out: &mut Vec<Rec>) {
    let employees = 16usize;
    let mut trainer = chief_stress_trainer(employees, rounds);
    let ns = time_ns(iters, || {
        trainer.train_episode().expect("chief stress episode failed");
    });
    out.push(Rec {
        op: "chief_stress",
        shape: format!("employees{employees} rounds{rounds}"),
        threads: employees,
        iters,
        ns_per_iter: ns,
        flops: 0.0,
    });
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
    let iters: u64 = if smoke { 2 } else { 20 };

    let mut recs = Vec::new();
    // Matmuls always run at full iteration count — they are cheap, and the
    // smoke run's GFLOP/s feed the `xtask bench --smoke` regression gate,
    // which needs statistically meaningful numbers.
    bench_matmuls(20, &mut recs);
    bench_conv(iters, &mut recs);
    bench_conv_ladder(smoke, &mut recs);
    bench_rollout_step(if smoke { 2 } else { 10 }, &mut recs);
    bench_ppo_update(if smoke { 1 } else { 5 }, &mut recs);
    bench_episode(if smoke { 1 } else { 3 }, &mut recs);
    bench_env_step(if smoke { 50 } else { 2000 }, &mut recs);
    bench_fleet(if smoke { 20 } else { 500 }, if smoke { 2 } else { 10 }, &mut recs);
    bench_chief_stress(1, if smoke { 5 } else { 50 }, &mut recs);

    println!("{:<16} {:>24} {:>8} {:>14} {:>10}", "op", "shape", "threads", "ns/iter", "GFLOP/s");
    for r in &recs {
        let gflops =
            if r.ns_per_iter > 0.0 && r.flops > 0.0 { r.flops / r.ns_per_iter } else { 0.0 };
        println!(
            "{:<16} {:>24} {:>8} {:>14.0} {:>10.2}",
            r.op, r.shape, r.threads, r.ns_per_iter, gflops
        );
    }
    let naive = recs.iter().find(|r| r.op == "matmul_naive");
    let blocked = recs
        .iter()
        .find(|r| r.op == "matmul_blocked" && r.shape == "256x256x256" && r.threads == 1);
    if let (Some(nv), Some(bl)) = (naive, blocked) {
        println!("speedup matmul 256x256x256 (1 thread): {:.2}x", nv.ns_per_iter / bl.ns_per_iter);
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
    let simd_kernel = if gemm::simd_kernel_active() { "avx2" } else { "scalar" };
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
}
