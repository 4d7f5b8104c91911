//! `serve_load` — load generator and fault injector for the `vc_serve`
//! daemon, recording latency percentiles and shed behaviour into the
//! `BENCH_serve.json` trajectory.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p vc-bench --bin serve_load [-- --smoke] [--out PATH]
//!          [--clients N] [--per-client N] [--no-faults]
//! ```
//!
//! The generator starts a daemon in-process on a loopback port, then runs a
//! burst-overload phase (many concurrent clients against a deliberately
//! small admission queue) while — unless `--no-faults` — injecting faults
//! alongside the load:
//!
//! * **corrupt hot-reload** — a truncated checkpoint is offered for reload
//!   repeatedly; every attempt must be rejected with rollback, and a valid
//!   reload afterwards must swap cleanly;
//! * **wedged clients** — connections that claim a frame and stall, which
//!   the daemon's read timeout must reap without collateral damage;
//! * **malformed frames** — garbage payloads that must be answered with
//!   typed `BadRequest` errors in-band.
//!
//! Every load request must be answered (a schedule or a typed rejection);
//! a lost response, a daemon crash, or a corrupt reload that swaps in fails
//! the run with a non-zero exit. Each run appends a record
//! `{schema_version, mode, unix_time_s, results: [{metric, value}]}` with
//! `p50_us` / `p99_us` latency, `shed_rate`, and the fault tallies.

#![allow(clippy::unwrap_used, clippy::expect_used)] // a broken bench fixture should abort loudly

use drl_cews::prelude::*;
use serde::Value;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vc_env::prelude::EnvConfig;
use vc_serve::prelude::*;
use vc_telemetry::Telemetry;

/// Outcome tallies from the load phase.
#[derive(Default)]
struct Tally {
    served_policy: u64,
    served_greedy: u64,
    queue_full: u64,
    deadline: u64,
    internal: u64,
    lost: u64,
    latencies_us: Vec<f64>,
}

fn checkpoint_bytes() -> Vec<u8> {
    let mut env = EnvConfig::tiny();
    env.horizon = 8;
    let mut cfg = TrainerConfig::drl_cews(env).quick();
    cfg.num_employees = 1;
    let mut trainer = Trainer::new(cfg).unwrap();
    trainer.checkpoint_v2().unwrap()
}

fn snapshot(id: u64) -> ScheduleRequest {
    ScheduleRequest {
        id,
        deadline_ms: 150,
        workers: vec![WorkerState { x: 1.0, y: 1.0, energy: 10.0 }],
        poi_data: vec![0.5; 4],
    }
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One load client: its own connection, sequential requests, everything
/// answered or the run is marked lost.
fn load_client(addr: &str, first_id: u64, count: u64) -> Tally {
    let mut tally = Tally::default();
    let Ok(mut client) = ServeClient::connect_tcp(addr, Duration::from_secs(10)) else {
        tally.lost += count;
        return tally;
    };
    for i in 0..count {
        let started = Instant::now();
        match client.schedule(snapshot(first_id + i)) {
            Ok(Response::Schedule(reply)) => {
                let us = started.elapsed().as_secs_f64() * 1e6;
                tally.latencies_us.push(us);
                if reply.mode == "greedy" {
                    tally.served_greedy += 1;
                } else {
                    tally.served_policy += 1;
                }
            }
            Ok(Response::Rejected(WireError::QueueFull { .. })) => tally.queue_full += 1,
            Ok(Response::Rejected(WireError::DeadlineExceeded { .. })) => tally.deadline += 1,
            Ok(Response::Rejected(_)) => tally.internal += 1,
            Ok(_) | Err(_) => tally.lost += 1,
        }
    }
    tally
}

/// Corrupt-reload injector: alternates rejected and accepted reloads while
/// the load runs. Returns `(rejected, accepted)`; any truncated reload
/// that *swapped in* panics the injector (caught as a failed run).
fn reload_chaos(addr: &str, truncated: &Path, good: &Path, rounds: u32) -> (u64, u64) {
    let mut client = ServeClient::connect_tcp(addr, Duration::from_secs(10)).unwrap();
    let mut rejected = 0;
    let mut accepted = 0;
    for _ in 0..rounds {
        match client.request(&Request::Reload { path: truncated.display().to_string() }).unwrap() {
            Response::Reloaded { ok: false, .. } => rejected += 1,
            other => panic!("corrupt reload was not rejected: {other:?}"),
        }
        match client.request(&Request::Reload { path: good.display().to_string() }).unwrap() {
            Response::Reloaded { ok: true, .. } => accepted += 1,
            other => panic!("valid reload did not swap: {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    (rejected, accepted)
}

/// Malformed-frame injector: every garbage frame must be answered with a
/// typed `BadRequest` on the same connection. Returns how many were.
fn malformed_chaos(addr: &str, rounds: u32) -> u64 {
    let mut client = ServeClient::connect_tcp(addr, Duration::from_secs(10)).unwrap();
    let mut answered = 0;
    for i in 0..rounds {
        let garbage: &[u8] = if i % 2 == 0 { b"{\"not\":\"a request\"}" } else { b"\xFF\xFE\x00" };
        client.send_raw(garbage).unwrap();
        match client.read_response().unwrap() {
            Response::Rejected(WireError::BadRequest { .. }) => answered += 1,
            other => panic!("malformed frame got a non-BadRequest answer: {other:?}"),
        }
    }
    answered
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let faults = !args.iter().any(|a| a == "--no-faults");
    let flag =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned();
    let out_path = flag("--out").unwrap_or_else(|| "BENCH_serve.json".to_owned());
    let clients: u64 =
        flag("--clients").and_then(|v| v.parse().ok()).unwrap_or(if smoke { 4 } else { 8 });
    let per_client: u64 =
        flag("--per-client").and_then(|v| v.parse().ok()).unwrap_or(if smoke { 25 } else { 250 });

    // Fixture: one good and one truncated checkpoint on disk.
    let dir = std::env::temp_dir().join(format!("vc_serve_load_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create fixture dir");
    let bytes = checkpoint_bytes();
    let good = dir.join("good.v2");
    let truncated = dir.join("truncated.v2");
    std::fs::write(&good, &bytes).expect("write good checkpoint");
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).expect("write truncated checkpoint");

    // A deliberately small queue so the burst actually sheds.
    let cfg = ServeConfig {
        queue_cap: 8,
        batch_max: 4,
        default_deadline: Duration::from_millis(150),
        slo: Duration::from_millis(10),
        trip_after: 2,
        recover_after: 4,
        read_timeout: Duration::from_millis(500),
        pop_wait: Duration::from_millis(2),
        ..ServeConfig::default()
    };
    let artifact = drl_cews::serving::PolicyArtifact::from_bytes(&bytes).expect("load artifact");
    let server = Server::start(artifact, cfg, Telemetry::new(), Some("127.0.0.1:0"), None)
        .expect("start daemon");
    let addr = server.tcp_addr().expect("tcp addr").to_string();
    println!("serve_load: daemon on {addr} ({clients} clients x {per_client} requests)");

    // Fault injectors run alongside the load.
    let stop_wedge = Arc::new(AtomicBool::new(false));
    let mut fault_threads = Vec::new();
    let mut malformed_threads = Vec::new();
    if faults {
        let rounds = if smoke { 3 } else { 20 };
        let (a, t, g) = (addr.clone(), truncated.clone(), good.clone());
        fault_threads.push(
            std::thread::Builder::new()
                .name("fault-reload".into())
                .spawn(move || reload_chaos(&a, &t, &g, rounds))
                .expect("spawn reload chaos"),
        );
        let a = addr.clone();
        malformed_threads.push(
            std::thread::Builder::new()
                .name("fault-malformed".into())
                .spawn(move || malformed_chaos(&a, rounds))
                .expect("spawn malformed chaos"),
        );
        // Two wedged connections held open for the whole load phase.
        for _ in 0..2 {
            let mut c =
                ServeClient::connect_tcp(&addr, Duration::from_secs(10)).expect("wedge connect");
            c.wedge().expect("wedge");
            let stop = Arc::clone(&stop_wedge);
            fault_threads.push(
                std::thread::Builder::new()
                    .name("fault-wedge".into())
                    .spawn(move || {
                        // ordering: plain test latch
                        while !stop.load(Ordering::Relaxed) {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        drop(c);
                        (0, 0)
                    })
                    .expect("spawn wedge holder"),
            );
        }
    }

    // Burst-overload load phase.
    let started = Instant::now();
    let mut load_threads = Vec::new();
    for c in 0..clients {
        let addr = addr.clone();
        load_threads.push(
            std::thread::Builder::new()
                .name(format!("load-{c}"))
                .spawn(move || load_client(&addr, c * 1_000_000, per_client))
                .expect("spawn load client"),
        );
    }
    let mut total = Tally::default();
    for handle in load_threads {
        let t = handle.join().expect("load client panicked");
        total.served_policy += t.served_policy;
        total.served_greedy += t.served_greedy;
        total.queue_full += t.queue_full;
        total.deadline += t.deadline;
        total.internal += t.internal;
        total.lost += t.lost;
        total.latencies_us.extend(t.latencies_us);
    }
    let wall_s = started.elapsed().as_secs_f64();

    // ordering: plain test latch
    stop_wedge.store(true, Ordering::Relaxed);
    let mut reload_rejected = 0;
    let mut reload_accepted = 0;
    for handle in fault_threads {
        let (r, a) = handle.join().expect("fault injector panicked");
        reload_rejected += r;
        reload_accepted += a;
    }
    let malformed_answered = malformed_threads
        .into_iter()
        .map(|h| h.join().expect("malformed injector panicked"))
        .sum::<u64>();

    let generation = server.generation();
    let rollbacks = server.rollbacks();
    let report = server.shutdown(Duration::from_secs(3));

    total.latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let served = total.served_policy + total.served_greedy;
    let shed = total.queue_full + total.deadline;
    let answered = served + shed + total.internal;
    let sent = clients * per_client;
    let p50 = percentile(&total.latencies_us, 0.50);
    let p99 = percentile(&total.latencies_us, 0.99);
    let shed_rate = if answered > 0 { shed as f64 / answered as f64 } else { 0.0 };

    println!(
        "serve_load: {served} served ({} policy, {} greedy), {shed} shed \
         ({} queue-full, {} deadline), {} internal, {} lost, {:.1}s wall",
        total.served_policy,
        total.served_greedy,
        total.queue_full,
        total.deadline,
        total.internal,
        total.lost,
        wall_s
    );
    println!(
        "serve_load: p50 {p50:.0}us p99 {p99:.0}us shed rate {:.1}% | reloads \
         {reload_rejected} rejected / {reload_accepted} swapped (gen {generation}, \
         {rollbacks} rollbacks) | {malformed_answered} malformed answered | drain \
         rejected {} pool quiesced {}",
        shed_rate * 100.0,
        report.rejected_in_drain,
        report.pool_quiesced,
    );

    // Invariants — any violation fails the run.
    let mut failed = false;
    if total.lost > 0 || answered != sent {
        eprintln!("serve_load: FAIL: {} of {sent} requests unanswered", sent - answered);
        failed = true;
    }
    if total.internal > 0 {
        eprintln!("serve_load: FAIL: {} internal errors", total.internal);
        failed = true;
    }
    if served == 0 {
        eprintln!("serve_load: FAIL: nothing was served under load");
        failed = true;
    }
    if faults && (reload_rejected == 0 || reload_accepted == 0) {
        eprintln!("serve_load: FAIL: reload chaos did not exercise both paths");
        failed = true;
    }
    if faults && rollbacks < reload_rejected {
        eprintln!("serve_load: FAIL: rollback counter lost rejections");
        failed = true;
    }

    // Append the run record to the trajectory.
    let metric = |name: &str, value: f64| {
        Value::Map(vec![
            ("metric".into(), Value::Str(name.into())),
            ("value".into(), Value::Float(value)),
        ])
    };
    let results = vec![
        metric("p50_us", p50),
        metric("p99_us", p99),
        metric("shed_rate", shed_rate),
        metric("served_policy", total.served_policy as f64),
        metric("served_greedy", total.served_greedy as f64),
        metric("shed_queue_full", total.queue_full as f64),
        metric("shed_deadline", total.deadline as f64),
        metric("reload_rejected", reload_rejected as f64),
        metric("reload_accepted", reload_accepted as f64),
        metric("malformed_answered", malformed_answered as f64),
        metric("wall_s", wall_s),
        metric("clients", clients as f64),
        metric("per_client", per_client as f64),
    ];
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let run = Value::Map(vec![
        ("schema_version".into(), Value::UInt(1)),
        ("mode".into(), Value::Str(if smoke { "smoke" } else { "full" }.into())),
        ("unix_time_s".into(), Value::UInt(unix_s)),
        ("results".into(), Value::Seq(results)),
    ]);
    let mut runs: Vec<Value> = std::fs::read_to_string(&out_path)
        .ok()
        .and_then(|t| serde_json::from_str::<Value>(&t).ok())
        .and_then(|v| v.as_seq().map(<[Value]>::to_vec))
        .unwrap_or_default();
    runs.push(run);
    let text = serde_json::to_string_pretty(&Value::Seq(runs)).expect("serialize trajectory");
    std::fs::write(&out_path, &text).expect("write trajectory file");
    println!("serve_load: wrote {out_path}");

    let _ = std::fs::remove_dir_all(&dir);
    if failed {
        std::process::exit(1);
    }
}
