//! Chaos integration test for the daemon: sustained overload plus injected
//! faults (malformed frames, oversized frames, wedged clients, corrupt
//! hot-reloads), each on its own and all of them during a burst load. The
//! acceptance bar: the daemon never crashes, every admitted request gets
//! exactly one response or typed rejection, corrupt reloads roll back, and
//! degraded batches still produce valid greedy assignments.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use drl_cews::prelude::*;
use std::path::PathBuf;
use std::sync::{Barrier, OnceLock};
use std::time::Duration;
use vc_env::prelude::*;
use vc_serve::prelude::*;
use vc_telemetry::Telemetry;

/// One tiny trained-for-zero-episodes checkpoint shared by every test
/// (building the trainer dominates test time).
fn checkpoint_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut env = EnvConfig::tiny();
        env.horizon = 8;
        let mut cfg = TrainerConfig::drl_cews(env).quick();
        cfg.num_employees = 1;
        let mut trainer = Trainer::new(cfg).unwrap();
        trainer.checkpoint_v2().unwrap()
    })
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vc_serve_chaos_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_checkpoint(dir: &std::path::Path, name: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, checkpoint_bytes()).unwrap();
    path
}

fn artifact() -> drl_cews::serving::PolicyArtifact {
    drl_cews::serving::PolicyArtifact::from_bytes(checkpoint_bytes()).unwrap()
}

fn start(cfg: ServeConfig) -> (Server, String) {
    let server =
        Server::start(artifact(), cfg, Telemetry::new(), Some("127.0.0.1:0"), None).unwrap();
    let addr = server.tcp_addr().unwrap().to_string();
    (server, addr)
}

/// A snapshot matching the tiny scenario (1 worker).
fn snapshot(id: u64, deadline_ms: u64) -> ScheduleRequest {
    ScheduleRequest {
        id,
        deadline_ms,
        workers: vec![WorkerState { x: 1.0, y: 1.0, energy: 10.0 }],
        poi_data: vec![0.5; 4],
    }
}

fn fast_cfg() -> ServeConfig {
    ServeConfig {
        read_timeout: Duration::from_millis(300),
        pop_wait: Duration::from_millis(5),
        shutdown_deadline: Duration::from_secs(2),
        ..ServeConfig::default()
    }
}

#[test]
fn malformed_and_oversized_frames_get_typed_errors_not_crashes() {
    let (server, addr) = start(fast_cfg());
    let timeout = Duration::from_secs(5);

    // Garbage JSON is answered in-band and the connection stays usable.
    let mut c = ServeClient::connect_tcp(&addr, timeout).unwrap();
    c.send_raw(b"{\"nope\":1}").unwrap();
    match c.read_response().unwrap() {
        Response::Rejected(WireError::BadRequest { id: 0, .. }) => {}
        other => panic!("expected BadRequest, got {other:?}"),
    }
    c.send_raw(b"\xFF\xFE\x00garbage").unwrap();
    assert!(matches!(c.read_response().unwrap(), Response::Rejected(WireError::BadRequest { .. })));
    assert!(matches!(c.request(&Request::Ping).unwrap(), Response::Pong));

    // An oversized frame gets one BadRequest, then the connection drops
    // (framing is unrecoverable), and the daemon keeps serving others.
    let mut big = ServeClient::connect_tcp(&addr, timeout).unwrap();
    big.send_raw(&vec![b'x'; vc_serve::protocol::MAX_FRAME_BYTES + 1]).unwrap();
    assert!(matches!(
        big.read_response().unwrap(),
        Response::Rejected(WireError::BadRequest { .. })
    ));
    assert!(big.read_response().is_err());
    let mut after = ServeClient::connect_tcp(&addr, timeout).unwrap();
    assert!(matches!(after.request(&Request::Ping).unwrap(), Response::Pong));

    let report = server.shutdown(Duration::from_secs(2));
    assert!(report.pool_quiesced);
}

#[test]
fn wedged_client_is_bounded_and_does_not_block_others() {
    let (server, addr) = start(fast_cfg());
    let timeout = Duration::from_secs(5);

    // Client A claims a 64-byte frame, sends 3 bytes, and stalls.
    let mut wedged = ServeClient::connect_tcp(&addr, timeout).unwrap();
    wedged.wedge().unwrap();

    // Client B is served normally while A is wedged.
    let mut ok = ServeClient::connect_tcp(&addr, timeout).unwrap();
    match ok.schedule(snapshot(1, 0)).unwrap() {
        Response::Schedule(reply) => {
            assert_eq!(reply.id, 1);
            assert_eq!(reply.actions.len(), 1);
        }
        other => panic!("expected a schedule, got {other:?}"),
    }

    // A's connection dies once the daemon's read timeout fires; it never
    // gets a response, and never wedges the daemon. (The same timeout also
    // reclaims B's now-idle connection, so the health check reconnects.)
    std::thread::sleep(Duration::from_millis(400));
    assert!(wedged.read_response().is_err());
    let mut fresh = ServeClient::connect_tcp(&addr, timeout).unwrap();
    assert!(matches!(fresh.request(&Request::Ping).unwrap(), Response::Pong));
    drop(server);
}

#[test]
fn burst_overload_sheds_typed_and_answers_every_request() {
    let cfg = ServeConfig {
        queue_cap: 2,
        batch_max: 2,
        default_deadline: Duration::from_millis(100),
        slo: Duration::from_millis(5),
        trip_after: 2,
        recover_after: 3,
        ..fast_cfg()
    };
    let (server, addr) = start(cfg);

    const CLIENTS: usize = 6;
    const PER_CLIENT: usize = 5;
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let addr = addr.clone();
        handles.push(
            std::thread::Builder::new()
                .name(format!("chaos-client-{c}"))
                .spawn(move || {
                    let mut client =
                        ServeClient::connect_tcp(&addr, Duration::from_secs(10)).unwrap();
                    let mut outcomes = Vec::new();
                    for i in 0..PER_CLIENT {
                        let id = (c * PER_CLIENT + i) as u64;
                        outcomes.push(client.schedule(snapshot(id, 0)).unwrap());
                    }
                    outcomes
                })
                .unwrap(),
        );
    }

    let mut served = 0usize;
    let mut shed = 0usize;
    for handle in handles {
        for resp in handle.join().unwrap() {
            match resp {
                Response::Schedule(reply) => {
                    assert_eq!(reply.actions.len(), 1);
                    assert!(reply.actions[0].move_index < 9);
                    served += 1;
                }
                Response::Rejected(WireError::QueueFull { retry_after_ms, .. }) => {
                    assert!(retry_after_ms >= 1);
                    shed += 1;
                }
                Response::Rejected(WireError::DeadlineExceeded { waited_ms: _, .. }) => {
                    shed += 1;
                }
                other => panic!("unexpected outcome under overload: {other:?}"),
            }
        }
    }
    // Every single request was answered, one way or the other.
    assert_eq!(served + shed, CLIENTS * PER_CLIENT);
    assert!(served > 0, "nothing was served under overload");

    // The daemon is still healthy afterwards.
    let mut c = ServeClient::connect_tcp(&addr, Duration::from_secs(5)).unwrap();
    assert!(matches!(c.request(&Request::Ping).unwrap(), Response::Pong));
    drop(server);
}

#[test]
fn faults_during_burst_load_lose_no_request() {
    let dir = temp_dir("load");
    let good = write_checkpoint(&dir, "good.v2");
    let truncated = dir.join("truncated.v2");
    let bytes = checkpoint_bytes();
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
    // A small queue and a tight SLO: the load may shed or degrade while
    // the faults land, and every request must still be answered.
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
    let (server, addr) = start(cfg);
    let connect = || ServeClient::connect_tcp(&addr, Duration::from_secs(10)).unwrap();
    const CLIENTS: u64 = 4;
    const PER_CLIENT: u64 = 25;
    const ROUNDS: u32 = 3;

    // Two connections that claim a frame and stall through the whole load;
    // the injectors and the clients connect, then start together.
    let wedged: Vec<ServeClient> = (0..2)
        .map(|_| {
            let mut c = connect();
            c.wedge().unwrap();
            c
        })
        .collect();
    let go = Barrier::new(CLIENTS as usize + 2);
    let (outcomes, (rejected, swapped)) = std::thread::scope(|s| {
        let reloads = s.spawn(|| {
            let mut c = connect();
            go.wait();
            let (mut rejected, mut swapped) = (0u64, 0u64);
            for _ in 0..ROUNDS {
                match c.request(&Request::Reload { path: truncated.display().to_string() }) {
                    Ok(Response::Reloaded { ok: false, .. }) => rejected += 1,
                    other => panic!("corrupt reload was not rejected: {other:?}"),
                }
                match c.request(&Request::Reload { path: good.display().to_string() }) {
                    Ok(Response::Reloaded { ok: true, .. }) => swapped += 1,
                    other => panic!("valid reload did not swap: {other:?}"),
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            (rejected, swapped)
        });
        s.spawn(|| {
            let mut c = connect();
            go.wait();
            for i in 0..ROUNDS {
                let garbage: &[u8] =
                    if i % 2 == 0 { b"{\"not\":\"a request\"}" } else { b"\xFF\xFE\x00" };
                c.send_raw(garbage).unwrap();
                match c.read_response() {
                    Ok(Response::Rejected(WireError::BadRequest { .. })) => {}
                    other => panic!("malformed frame got a non-BadRequest answer: {other:?}"),
                }
            }
        });
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let go = &go;
                s.spawn(move || {
                    let mut client = connect();
                    go.wait();
                    (0..PER_CLIENT)
                        .map(|i| client.schedule(snapshot(c * 1_000_000 + i, 150)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let outcomes: Vec<_> = clients.into_iter().flat_map(|h| h.join().unwrap()).collect();
        (outcomes, reloads.join().unwrap())
    });
    drop(wedged);

    let (mut served, mut shed) = (0u64, 0u64);
    let mut internal = Vec::new();
    let mut lost = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(Response::Schedule(_)) => served += 1,
            Ok(Response::Rejected(
                WireError::QueueFull { .. } | WireError::DeadlineExceeded { .. },
            )) => shed += 1,
            Ok(Response::Rejected(e)) => internal.push(e),
            other => lost.push(other),
        }
    }
    assert!(lost.is_empty(), "{} requests got no answer: {lost:?}", lost.len());
    assert_eq!(served + shed + internal.len() as u64, CLIENTS * PER_CLIENT);
    assert!(internal.is_empty(), "internal errors under load: {internal:?}");
    assert!(served > 0, "nothing was served under load");
    assert!(rejected > 0 && swapped > 0, "reloads rejected {rejected}, swapped {swapped}");
    assert!(server.rollbacks() >= rejected, "rollback counter lost rejections");

    let _ = std::fs::remove_dir_all(&dir);
    drop(server);
}

#[test]
fn corrupt_reload_rolls_back_and_valid_reload_swaps() {
    let dir = temp_dir("reload");
    let good = write_checkpoint(&dir, "good.v2");
    let truncated_path = dir.join("truncated.v2");
    let bytes = checkpoint_bytes();
    std::fs::write(&truncated_path, &bytes[..bytes.len() / 2]).unwrap();

    let (server, addr) = start(fast_cfg());
    let mut c = ServeClient::connect_tcp(&addr, Duration::from_secs(5)).unwrap();

    // Corrupt candidate: rejected, generation unchanged, daemon healthy.
    let resp = c.request(&Request::Reload { path: truncated_path.display().to_string() }).unwrap();
    match resp {
        Response::Reloaded { ok, detail } => {
            assert!(!ok, "truncated checkpoint must not swap in");
            assert!(!detail.is_empty());
        }
        other => panic!("expected Reloaded, got {other:?}"),
    }
    assert_eq!(server.generation(), 0);
    assert_eq!(server.rollbacks(), 1);

    // Missing file: same rollback path.
    let resp =
        c.request(&Request::Reload { path: dir.join("nope.v2").display().to_string() }).unwrap();
    assert!(matches!(resp, Response::Reloaded { ok: false, .. }));
    assert_eq!(server.rollbacks(), 2);

    // Valid candidate: swaps, generation bumps, scheduling still works.
    let resp = c.request(&Request::Reload { path: good.display().to_string() }).unwrap();
    assert!(matches!(resp, Response::Reloaded { ok: true, .. }));
    assert_eq!(server.generation(), 1);
    match c.request(&Request::Stats).unwrap() {
        Response::Stats(stats) => assert_eq!(stats.generation, 1),
        other => panic!("expected Stats, got {other:?}"),
    }
    assert!(matches!(c.schedule(snapshot(9, 0)).unwrap(), Response::Schedule(_)));

    let _ = std::fs::remove_dir_all(&dir);
    drop(server);
}

#[test]
fn degraded_mode_serves_valid_greedy_assignments() {
    // A zero SLO means every batch breaches it, so the ladder trips on the
    // very first batch and (with a huge recover_after) stays degraded.
    let cfg =
        ServeConfig { slo: Duration::ZERO, trip_after: 1, recover_after: 1_000_000, ..fast_cfg() };
    let (server, addr) = start(cfg);
    let mut c = ServeClient::connect_tcp(&addr, Duration::from_secs(5)).unwrap();

    let mut saw_greedy = false;
    for id in 0..5 {
        match c.schedule(snapshot(id, 0)).unwrap() {
            Response::Schedule(reply) => {
                assert_eq!(reply.actions.len(), 1);
                assert!(reply.actions[0].move_index < Move::ALL.len() as u64);
                if reply.mode == "greedy" {
                    saw_greedy = true;
                }
            }
            other => panic!("expected a schedule, got {other:?}"),
        }
    }
    assert!(saw_greedy, "shed ladder never degraded to the greedy baseline");
    match c.request(&Request::Stats).unwrap() {
        Response::Stats(stats) => assert!(stats.degraded),
        other => panic!("expected Stats, got {other:?}"),
    }
    drop(server);
}

#[test]
fn bad_requests_are_rejected_before_admission() {
    let (server, addr) = start(fast_cfg());
    let mut c = ServeClient::connect_tcp(&addr, Duration::from_secs(5)).unwrap();

    // Wrong worker count.
    let mut wrong = snapshot(3, 0);
    wrong.workers.push(WorkerState { x: 0.0, y: 0.0, energy: 1.0 });
    assert!(matches!(
        c.schedule(wrong).unwrap(),
        Response::Rejected(WireError::BadRequest { id: 3, .. })
    ));

    // Non-finite coordinates. The client-side encoder writes non-finite
    // floats as `null`, so inject the overflow on the wire: `1e999` parses
    // to infinity and must be caught by server-side validation.
    let mut inf = snapshot(4, 0);
    inf.workers[0].x = 12345.5;
    let payload = String::from_utf8(vc_serve::protocol::encode_request(&Request::Schedule(inf)))
        .unwrap()
        .replace("12345.5", "1e999");
    c.send_raw(payload.as_bytes()).unwrap();
    assert!(matches!(
        c.read_response().unwrap(),
        Response::Rejected(WireError::BadRequest { id: 4, .. })
    ));
    drop(server);
}
