//! Graceful-shutdown integration test: with clients mid-flight, shutdown
//! must answer every request (a schedule or a typed `ShuttingDown`
//! rejection — never silence), finish within its deadline, quiesce the
//! kernel pool, and flush the telemetry JSONL sink.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use drl_cews::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vc_serve::prelude::*;
use vc_telemetry::Telemetry;

fn checkpoint_artifact() -> drl_cews::serving::PolicyArtifact {
    let mut env = vc_env::prelude::EnvConfig::tiny();
    env.horizon = 8;
    let mut cfg = TrainerConfig::drl_cews(env).quick();
    cfg.num_employees = 1;
    let mut trainer = Trainer::new(cfg).unwrap();
    let bytes = trainer.checkpoint_v2().unwrap();
    drl_cews::serving::PolicyArtifact::from_bytes(&bytes).unwrap()
}

fn snapshot(id: u64) -> ScheduleRequest {
    ScheduleRequest {
        id,
        deadline_ms: 1_000,
        workers: vec![WorkerState { x: 1.0, y: 1.0, energy: 10.0 }],
        poi_data: vec![0.5; 4],
    }
}

#[test]
fn shutdown_answers_every_inflight_request_and_flushes_telemetry() {
    let dir = std::env::temp_dir().join(format!("vc_serve_shutdown_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let jsonl = dir.join("serve.jsonl");

    let telemetry = Telemetry::new();
    telemetry.attach_jsonl(&jsonl).unwrap();

    let cfg = ServeConfig {
        queue_cap: 64,
        batch_max: 4,
        default_deadline: Duration::from_secs(1),
        pop_wait: Duration::from_millis(5),
        read_timeout: Duration::from_secs(5),
        ..ServeConfig::default()
    };
    let server =
        Server::start(checkpoint_artifact(), cfg, telemetry, Some("127.0.0.1:0"), None).unwrap();
    let addr = server.tcp_addr().unwrap().to_string();

    // Connect every client BEFORE shutdown so each has a live handler
    // thread; then hammer schedules until the daemon starts refusing.
    const CLIENTS: usize = 4;
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let mut client = ServeClient::connect_tcp(&addr, Duration::from_secs(10)).unwrap();
        let stop = Arc::clone(&stop);
        handles.push(
            std::thread::Builder::new()
                .name(format!("shutdown-client-{c}"))
                .spawn(move || {
                    let mut sent = 0usize;
                    let mut answered = 0usize;
                    let mut refused = 0usize;
                    for i in 0..200u64 {
                        // ordering: plain test latch
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let id = c as u64 * 1_000 + i;
                        sent += 1;
                        match client.schedule(snapshot(id)) {
                            Ok(Response::Schedule(reply)) => {
                                assert_eq!(reply.id, id);
                                assert_eq!(reply.actions.len(), 1);
                                answered += 1;
                            }
                            Ok(Response::Rejected(err)) => {
                                assert_eq!(err.id(), id);
                                if matches!(err, WireError::ShuttingDown { .. }) {
                                    refused += 1;
                                    break;
                                }
                                answered += 1;
                            }
                            Ok(other) => panic!("unexpected response {other:?}"),
                            Err(_) => {
                                // The connection died without an answer —
                                // only legal if the request was never
                                // admitted (write raced the teardown), and
                                // that can only happen after shutdown began.
                                assert!(
                                    stop.load(Ordering::Relaxed), // ordering: test latch
                                    "connection failed before shutdown began"
                                );
                                sent -= 1;
                                break;
                            }
                        }
                    }
                    (sent, answered, refused)
                })
                .unwrap(),
        );
    }

    // Let traffic flow, then pull the plug mid-flight.
    std::thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::Relaxed); // ordering: test latch
    let began = Instant::now();
    let report = server.shutdown(Duration::from_secs(3));
    let took = began.elapsed();
    assert!(took < Duration::from_secs(10), "shutdown exceeded its deadline wildly: {took:?}");
    assert!(report.pool_quiesced, "kernel pool failed to quiesce in the drain budget");

    let mut total_sent = 0;
    let mut total_answered = 0;
    let mut total_refused = 0;
    for handle in handles {
        let (sent, answered, refused) = handle.join().unwrap();
        total_sent += sent;
        total_answered += answered;
        total_refused += refused;
    }
    // The core guarantee: every request that reached the daemon got a
    // response — a schedule, a typed shed, or a typed ShuttingDown.
    assert_eq!(total_answered + total_refused, total_sent, "requests were silently lost");
    assert!(total_answered > 0, "no request was ever served before shutdown");

    // The JSONL sink was flushed on shutdown: the lifecycle events are on
    // disk, including the final shutdown summary.
    let telemetry_log = std::fs::read_to_string(&jsonl).unwrap();
    assert!(
        telemetry_log.lines().any(|l| l.contains("serve_start")),
        "missing serve_start event: {telemetry_log:?}"
    );
    assert!(
        telemetry_log.lines().any(|l| l.contains("serve_shutdown")),
        "telemetry JSONL was not flushed with the shutdown summary: {telemetry_log:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drop_shuts_down_cleanly_and_removes_uds_socket() {
    let dir = std::env::temp_dir().join(format!("vc_serve_drop_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("vc.sock");

    let cfg = ServeConfig {
        pop_wait: Duration::from_millis(5),
        shutdown_deadline: Duration::from_secs(2),
        ..ServeConfig::default()
    };
    let server =
        Server::start(checkpoint_artifact(), cfg, Telemetry::new(), None, Some(&sock)).unwrap();
    assert!(sock.exists());

    // One request over the Unix socket proves the transport.
    let mut client = ServeClient::connect_uds(&sock, Duration::from_secs(5)).unwrap();
    assert!(matches!(client.schedule(snapshot(1)).unwrap(), Response::Schedule(_)));

    // Drop = graceful shutdown: the socket file is reclaimed.
    drop(server);
    assert!(!sock.exists(), "uds socket file leaked after Drop");

    let _ = std::fs::remove_dir_all(&dir);
}
