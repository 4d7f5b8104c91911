//! Train a DRL-CEWS (or variant) policy from the command line and compare
//! it against the engineered baselines.
//!
//! ```text
//! vc-train [--config ENV_JSON] [--episodes N] [--employees M] [--epochs K] [--minibatch B]
//!          [--lr F] [--ent F] [--eta F] [--reward sparse|dense]
//!          [--curiosity spatial|rnd|icm|none] [--mask] [--pois P]
//!          [--workers W] [--horizon T] [--seed S] [--log-every N]
//!          [--probe] [--save-ckpt PATH] [--load-ckpt PATH] [--save-csv PATH]
//!          [--record PATH]
//!          [--resume PATH] [--ckpt-every N] [--ckpt-keep K]
//!          [--round-timeout-ms MS] [--restart-budget N] [--inject SPEC]...
//!          [--telemetry-dir DIR] [--metrics-dump PATH]
//! ```
//!
//! Telemetry:
//!
//! * `--telemetry-dir DIR` enables the telemetry registry, streams one JSON
//!   line per update round (gather/apply/sync/broadcast timings, health
//!   counters) plus per-episode environment events to
//!   `DIR/round_timings.jsonl`, and writes a Prometheus-style dump of every
//!   metric to `DIR/metrics.prom` at exit.
//! * `--metrics-dump PATH` writes the Prometheus dump to PATH (also
//!   enables telemetry when `--telemetry-dir` is absent; no JSONL stream
//!   in that case).
//!
//! Checkpoints, fault tolerance & resume — every checkpoint is one durable
//! v2 file (DESIGN.md §9):
//!
//! * `--save-ckpt PATH` writes the final training state at exit; the file
//!   is accepted by `--resume`, `--load-ckpt` and `vc_serve --checkpoint`.
//! * `--load-ckpt PATH` warm-starts: it copies only the policy parameters
//!   of a v2 checkpoint into the trainer built from the command line.
//! * `--ckpt-every N` writes a durable v2 checkpoint (full training state:
//!   parameters, Adam moments, RNG streams, counters, config) every N
//!   episodes to `<base>.ep<E>`, where `<base>` is the `--save-ckpt` path
//!   (default `vc-train.ckpt`); `--ckpt-keep K` retains the last K (default
//!   3). Writes are atomic (tmp file + fsync + rename).
//! * `--resume PATH` rebuilds the trainer from a v2 checkpoint — including
//!   its embedded config, so the other training flags are ignored — and
//!   continues toward `--episodes` total episodes bit-exactly (for every
//!   curiosity model but `count`, whose visit counts are not checkpointed).
//! * `--inject SPEC` scripts a deterministic fault for testing recovery:
//!   `panic:J@K` (employee J panics at update round K), `stall:J@K:D`
//!   (stalls for D rounds), `nan:J@K` (emits NaN gradients). Repeatable.
//!   Pair stalls with `--round-timeout-ms` so the barrier can't wedge.

use drl_cews::prelude::*;
use vc_baselines::prelude::*;
use vc_env::prelude::*;
use vc_rl::chief::FaultKind;

/// Prints a CLI-level error and exits with status 2.
fn fail(msg: &str) -> ! {
    eprintln!("vc-train: {msg}");
    std::process::exit(2);
}

fn parse_f32(v: Option<String>, flag: &str) -> f32 {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| fail(&format!("{flag} needs a number")))
}

fn parse_usize(v: Option<String>, flag: &str) -> usize {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| fail(&format!("{flag} needs an integer")))
}

fn need(v: Option<String>, what: &str) -> String {
    v.unwrap_or_else(|| fail(&format!("{what} needs a path")))
}

/// Parses a `--inject` spec: `panic:J@K`, `nan:J@K`, or `stall:J@K:D`.
fn parse_inject(spec: &str) -> Option<(usize, u64, FaultKind)> {
    let (kind, rest) = spec.split_once(':')?;
    let (target, kind) = match kind {
        "panic" => (rest, FaultKind::Panic),
        "nan" => (rest, FaultKind::NanGrads),
        "stall" => {
            let (target, dur) = rest.rsplit_once(':')?;
            (target, FaultKind::Stall { rounds: dur.parse().ok()? })
        }
        _ => return None,
    };
    let (j, k) = target.split_once('@')?;
    Some((j.parse().ok()?, k.parse().ok()?, kind))
}

fn main() {
    let mut env = EnvConfig::paper_default();
    env.num_pois = 100;
    env.horizon = 200;
    let mut cfg = TrainerConfig::drl_cews(env);
    cfg.num_employees = 2;
    cfg.ppo.epochs = 2;
    cfg.ppo.minibatch = 64;
    let mut episodes = 300usize;
    let mut log_every = 10usize;
    let mut probe = false;
    let mut save_ckpt: Option<String> = None;
    let mut load_ckpt: Option<String> = None;
    let mut save_csv: Option<String> = None;
    let mut record: Option<String> = None;
    let mut resume: Option<String> = None;
    let mut ckpt_every: Option<usize> = None;
    let mut ckpt_keep = 3usize;
    let mut telemetry_dir: Option<String> = None;
    let mut metrics_dump: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--config" => {
                // Load a full EnvConfig from JSON (as produced by serde /
                // MapBuilder::config); later flags may still override fields.
                let path = need(args.next(), "--config");
                let json = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
                cfg.env = serde_json::from_str(&json)
                    .unwrap_or_else(|e| fail(&format!("invalid EnvConfig JSON in {path}: {e}")));
            }
            "--episodes" => episodes = parse_usize(args.next(), "--episodes"),
            "--employees" => cfg.num_employees = parse_usize(args.next(), "--employees"),
            "--epochs" => cfg.ppo.epochs = parse_usize(args.next(), "--epochs"),
            "--minibatch" => cfg.ppo.minibatch = parse_usize(args.next(), "--minibatch"),
            "--lr" => cfg.ppo.lr = parse_f32(args.next(), "--lr"),
            "--gamma" => cfg.ppo.gamma = parse_f32(args.next(), "--gamma"),
            "--ent" => cfg.ppo.ent_coef = parse_f32(args.next(), "--ent"),
            "--eta" => {
                let eta = parse_f32(args.next(), "--eta");
                cfg.curiosity = match cfg.curiosity {
                    CuriosityChoice::Spatial { feature, structure, .. } => {
                        CuriosityChoice::Spatial { feature, structure, eta }
                    }
                    CuriosityChoice::Rnd { .. } => CuriosityChoice::Rnd { eta },
                    CuriosityChoice::Icm { .. } => CuriosityChoice::Icm { eta },
                    CuriosityChoice::Count { .. } => CuriosityChoice::Count { eta },
                    CuriosityChoice::None => CuriosityChoice::None,
                };
            }
            "--reward" => {
                cfg.reward_mode = match args.next().as_deref() {
                    Some("sparse") => vc_env::reward::RewardMode::Sparse,
                    Some("dense") => vc_env::reward::RewardMode::Dense,
                    other => fail(&format!("--reward sparse|dense, got {other:?}")),
                };
            }
            "--curiosity" => {
                cfg.curiosity = match args.next().as_deref() {
                    Some("spatial") => CuriosityChoice::paper_spatial(),
                    Some("rnd") => CuriosityChoice::Rnd { eta: 0.3 },
                    Some("icm") => CuriosityChoice::Icm { eta: 0.3 },
                    Some("count") => CuriosityChoice::Count { eta: 0.3 },
                    Some("none") => CuriosityChoice::None,
                    other => {
                        fail(&format!("--curiosity spatial|rnd|icm|count|none, got {other:?}"))
                    }
                };
            }
            "--mask" => cfg.mask_invalid = true,
            "--clip-value" => cfg.ppo.clip_value = true,
            "--pois" => cfg.env.num_pois = parse_usize(args.next(), "--pois"),
            "--workers" => cfg.env.num_workers = parse_usize(args.next(), "--workers"),
            "--horizon" => cfg.env.horizon = parse_usize(args.next(), "--horizon"),
            "--seed" => cfg.seed = parse_usize(args.next(), "--seed") as u64,
            "--log-every" => log_every = parse_usize(args.next(), "--log-every"),
            "--probe" => probe = true,
            "--save-ckpt" => save_ckpt = Some(need(args.next(), "--save-ckpt")),
            "--load-ckpt" => load_ckpt = Some(need(args.next(), "--load-ckpt")),
            "--save-csv" => save_csv = Some(need(args.next(), "--save-csv")),
            "--record" => record = Some(need(args.next(), "--record")),
            "--resume" => resume = Some(need(args.next(), "--resume")),
            "--ckpt-every" => ckpt_every = Some(parse_usize(args.next(), "--ckpt-every")),
            "--ckpt-keep" => ckpt_keep = parse_usize(args.next(), "--ckpt-keep"),
            "--round-timeout-ms" => {
                cfg.fault.round_timeout_ms =
                    Some(parse_usize(args.next(), "--round-timeout-ms") as u64);
            }
            "--restart-budget" => {
                cfg.fault.restart_budget = parse_usize(args.next(), "--restart-budget");
            }
            "--telemetry-dir" => telemetry_dir = Some(need(args.next(), "--telemetry-dir")),
            "--metrics-dump" => metrics_dump = Some(need(args.next(), "--metrics-dump")),
            "--inject" => {
                let spec = need(args.next(), "--inject");
                let (employee, round, kind) = parse_inject(&spec).unwrap_or_else(|| {
                    fail(&format!("--inject wants panic:J@K, nan:J@K or stall:J@K:D, got {spec:?}"))
                });
                cfg.fault.faults = cfg.fault.faults.clone().with(employee, round, kind);
            }
            other => fail(&format!("unknown flag {other}")),
        }
    }

    // Telemetry: enabled by either flag; the JSONL stream needs a dir.
    let telemetry = if telemetry_dir.is_some() || metrics_dump.is_some() {
        let t = vc_telemetry::Telemetry::new();
        if let Some(dir) = &telemetry_dir {
            let path = std::path::Path::new(dir).join("round_timings.jsonl");
            t.attach_jsonl(&path)
                .unwrap_or_else(|e| fail(&format!("cannot open {}: {e}", path.display())));
        }
        Some(t)
    } else {
        None
    };
    let handle = telemetry.clone().unwrap_or_else(vc_telemetry::Telemetry::off);

    let mut trainer = match &resume {
        Some(path) => {
            let data = std::fs::read(path)
                .unwrap_or_else(|e| fail(&format!("cannot read checkpoint {path}: {e}")));
            let t = Trainer::resume_from_with_telemetry(&data, handle.clone())
                .unwrap_or_else(|e| fail(&format!("cannot resume from {path}: {e}")));
            println!(
                "resumed from {path}: {} episodes / {} rounds trained (training flags other \
                 than --episodes come from the checkpoint)",
                t.episodes_trained(),
                t.rounds_trained()
            );
            t
        }
        None => Trainer::with_telemetry(cfg, handle.clone())
            .unwrap_or_else(|e| fail(&format!("cannot start trainer: {e}"))),
    };
    // Print the banner from the trainer's own config: on --resume it comes
    // from the checkpoint, not from the command line.
    let tcfg = trainer.config();
    println!(
        "training: {} reward, curiosity={}, M={}, K={}, batch={}, lr={}, ent={}, mask={}, \
         env: W={} P={} T={}",
        match tcfg.reward_mode {
            vc_env::reward::RewardMode::Sparse => "sparse",
            vc_env::reward::RewardMode::Dense => "dense",
        },
        tcfg.curiosity.label(),
        tcfg.num_employees,
        tcfg.ppo.epochs,
        tcfg.ppo.minibatch,
        tcfg.ppo.lr,
        tcfg.ppo.ent_coef,
        tcfg.mask_invalid,
        tcfg.env.num_workers,
        tcfg.env.num_pois,
        tcfg.env.horizon,
    );
    let env = trainer.config().env.clone();
    if let Some(path) = load_ckpt {
        let data = std::fs::read(&path)
            .unwrap_or_else(|e| fail(&format!("cannot read checkpoint {path}: {e}")));
        trainer
            .restore(&data)
            .unwrap_or_else(|e| fail(&format!("cannot restore checkpoint {path}: {e}")));
        println!("restored policy from {path} (pass --episodes 0 to evaluate only)");
    }
    let ckpt_base = save_ckpt.clone().unwrap_or_else(|| "vc-train.ckpt".to_owned());
    let mut rotated: Vec<String> = Vec::new();
    let start = std::time::Instant::now();
    let first_ep = trainer.episodes_trained();
    for ep in first_ep..episodes.max(first_ep) {
        let s = trainer
            .train_episode()
            .unwrap_or_else(|e| fail(&format!("training failed at episode {ep}: {e}")));
        if let Some(every) = ckpt_every {
            if every > 0 && (ep + 1) % every == 0 {
                let bytes = trainer
                    .checkpoint_v2()
                    .unwrap_or_else(|e| fail(&format!("cannot snapshot training state: {e}")));
                let path = format!("{ckpt_base}.ep{}", ep + 1);
                vc_nn::serialize::write_checkpoint_file(std::path::Path::new(&path), &bytes)
                    .unwrap_or_else(|e| fail(&format!("cannot write checkpoint {path}: {e}")));
                println!("checkpoint (v2, resumable) -> {path}");
                rotated.push(path);
                while rotated.len() > ckpt_keep.max(1) {
                    std::fs::remove_file(rotated.remove(0)).ok();
                }
            }
        }
        if ep % log_every == 0 || ep + 1 == episodes {
            let probe_err = if probe {
                trainer.curiosity().as_spatial().map(|sp| {
                    let mut total = 0.0f32;
                    let mut n = 0;
                    for i in 0..8 {
                        for mv in [1usize, 3, 5, 7] {
                            let x = 1.0 + i as f32 * 1.8;
                            let from = vc_env::geometry::Point::new(x, x);
                            let (dx, dy) = vc_env::action::Move::from_index(mv).displacement(1.0);
                            let to = from.offset(dx, dy);
                            total += sp.prediction_error(0, &from, mv, &to);
                            n += 1;
                        }
                    }
                    total / n as f32
                })
            } else {
                None
            };
            println!(
                "episode {ep:>4}: kappa={:.3} xi={:.3} rho={:.3} r_ext={:+.2} r_int={:.2} coll={}{}",
                s.kappa, s.xi, s.rho, s.ext_reward, s.int_reward, s.collisions,
                probe_err.map(|e| format!(" probe_err={e:.3}")).unwrap_or_default()
            );
        }
    }
    println!(
        "trained {} episodes ({} total) in {:.1}s{}",
        trainer.episodes_trained() - first_ep,
        trainer.episodes_trained(),
        start.elapsed().as_secs_f32(),
        if trainer.restarts_used() > 0 {
            format!(", {} employee respawn(s)", trainer.restarts_used())
        } else {
            String::new()
        }
    );

    if let Some(path) = save_ckpt {
        // Atomic write: a crash here can never truncate an existing
        // checkpoint.
        let bytes = trainer
            .checkpoint_v2()
            .unwrap_or_else(|e| fail(&format!("cannot snapshot training state: {e}")));
        vc_nn::serialize::write_checkpoint_file(std::path::Path::new(&path), &bytes)
            .unwrap_or_else(|e| fail(&format!("cannot write checkpoint {path}: {e}")));
        println!("checkpoint (v2, resumable) -> {path}");
    }
    if let Some(path) = save_csv {
        drl_cews::training_log::write_csv(trainer.history(), std::path::Path::new(&path))
            .unwrap_or_else(|e| fail(&format!("cannot write training CSV {path}: {e}")));
        println!("training curve -> {path}");
    }
    if let Some(path) = record {
        // Record one evaluation episode with the trained policy.
        use rand::SeedableRng;
        use vc_rl::prelude::*;
        let mut rec_env = vc_env::env::CrowdsensingEnv::new(env.clone());
        let mut recorder = vc_env::recording::Recorder::new(&rec_env);
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let opts = PolicyOptions {
            mode: SampleMode::Stochastic,
            mask_invalid: trainer.config().mask_invalid,
        };
        while !rec_env.done() {
            let a = sample_action(trainer.net(), trainer.store(), &rec_env, opts, &mut rng);
            recorder.log(&a.actions);
            rec_env.step(&a.actions);
        }
        let recording = recorder.finish(&rec_env);
        let json = recording
            .to_json()
            .unwrap_or_else(|e| fail(&format!("cannot serialize recording: {e}")));
        std::fs::write(&path, json)
            .unwrap_or_else(|e| fail(&format!("cannot write recording {path}: {e}")));
        println!("evaluation recording -> {path} (replay with vc_replay)");
    }

    let mut policy = PolicyScheduler::from_trainer(&trainer, "trained");
    for (name, m) in [
        ("trained", evaluate(&mut policy, &env, 4, 1)),
        ("d&c", evaluate(&mut DncScheduler::default(), &env, 4, 1)),
        ("greedy", evaluate(&mut GreedyScheduler, &env, 4, 1)),
        ("random", evaluate(&mut RandomScheduler, &env, 4, 1)),
    ] {
        println!(
            "  {name:>8}: kappa={:.3} xi={:.3} rho={:.3}",
            m.data_collection_ratio, m.remaining_data_ratio, m.energy_efficiency
        );
    }

    if let Some(t) = &telemetry {
        trainer.publish_kernel_telemetry();
        t.flush().unwrap_or_else(|e| fail(&format!("cannot flush telemetry log: {e}")));
        let mut prom_paths: Vec<std::path::PathBuf> = Vec::new();
        if let Some(dir) = &telemetry_dir {
            prom_paths.push(std::path::Path::new(dir).join("metrics.prom"));
            println!("round timings -> {dir}/round_timings.jsonl");
        }
        if let Some(path) = &metrics_dump {
            prom_paths.push(std::path::PathBuf::from(path));
        }
        for path in prom_paths {
            t.write_prometheus(&path)
                .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
            println!("metrics dump -> {}", path.display());
        }
    }
}
