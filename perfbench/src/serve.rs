//! `serve_closed`: an in-process `vc_serve::Server` on `ServeConfig::default()`
//! serving the paper scenario, driven by `nproc` closed-loop TCP clients
//! that each send their next `ScheduleRequest` only after the last reply.

use crate::stats::{self, Failure, Samples, Tally};
use crate::{derive_seed, nproc, peak_rss_mb, secs, train, E2e, Traced, SETUP_REPS};
use drl_cews::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};
use vc_env::prelude::*;
use vc_nn::prelude::*;
use vc_rl::prelude::*;
use vc_serve::batcher::{
    apply_snapshot, process_batch, ServeMetrics, BATCH_OCCUPANCY_BOUNDS, REQUEST_SECONDS_BOUNDS,
};
use vc_serve::model::PolicyBundle;
use vc_serve::prelude::*;
use vc_serve::protocol::{decode_response, encode_request, encode_response};
use vc_serve::queue::Pending;
use vc_serve::shed::ShedLadder;
use vc_telemetry::{HistogramSnapshot, Telemetry};

/// Requests each client sends during set-up, before timing starts.
const WARMUP_PER_CLIENT: u64 = 200;
/// Paper-map episodes the request snapshots are taken from.
const SNAPSHOT_EPISODES: usize = 4;
/// Per-request deadline: generous, so a scheduler stall on a shared host
/// is measured as latency rather than shed.
const DEADLINE_MS: u64 = 2_000;
/// Sample-buffer headroom per client: far above any plausible reply rate.
const MAX_REPLIES_PER_S: f64 = 10_000.0;
/// Timed repetitions of each traced probe.
const PROBE_REPS: usize = 200;
/// Allowed child-sum residual, as a share of the parent.
const RESIDUAL: f64 = 0.25;

/// The served scenario: the paper map with its PoI layout drawn from `seed`.
fn env_config(seed: u64) -> EnvConfig {
    let mut env = EnvConfig::paper_default();
    env.seed = derive_seed(seed, "serve.map");
    env
}

/// Fleet snapshots from seeded paper-map episodes driven by random legal
/// moves; the request ids are filled in when sent.
fn snapshots(seed: u64) -> Vec<ScheduleRequest> {
    let mut env = CrowdsensingEnv::new(env_config(seed));
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, "serve.snapshots"));
    let mut out = Vec::new();
    for _ in 0..SNAPSHOT_EPISODES {
        env.reset();
        while !env.done() {
            out.push(ScheduleRequest {
                id: 0,
                deadline_ms: DEADLINE_MS,
                workers: env
                    .workers()
                    .iter()
                    .map(|w| WorkerState { x: w.pos.x, y: w.pos.y, energy: w.energy })
                    .collect(),
                poi_data: env.pois().iter().map(|p| p.data).collect(),
            });
            let actions: Vec<WorkerAction> = (0..env.workers().len())
                .map(|wi| {
                    let legal: Vec<usize> = env
                        .valid_moves(wi)
                        .iter()
                        .enumerate()
                        .filter_map(|(i, &ok)| ok.then_some(i))
                        .collect();
                    let movement = Move::from_index(legal[rng.gen_range(0..legal.len())]);
                    let charge = env.can_charge(wi) && rng.gen::<f32>() < 0.5;
                    WorkerAction { movement, charge }
                })
                .collect();
            env.step(&actions);
        }
    }
    out
}

/// The served checkpoint: an untrained DRL-CEWS trainer on the scenario,
/// written in the v2 format.
fn checkpoint(seed: u64) -> Vec<u8> {
    let mut cfg = TrainerConfig::drl_cews(env_config(seed));
    cfg.num_employees = 1;
    cfg.seed = derive_seed(seed, "serve.trainer");
    let mut trainer = Trainer::new(cfg).unwrap_or_else(|e| panic!("trainer failed: {e}"));
    trainer.checkpoint_v2().unwrap_or_else(|e| panic!("checkpoint failed: {e}")).to_vec()
}

/// What the clients saw.
struct Seen {
    /// Replies, stamped with the time since the load started.
    samples: Samples,
    /// Sum of the replies' admission-queue waits.
    queued_ms: f64,
    /// Replies served by the policy (the rest by the greedy fallback).
    policy: u64,
    tally: Tally,
    last_reply: Option<ScheduleReply>,
    /// Peak RSS in MiB as the load ended, before the clients' samples were
    /// merged.
    peak_rss_mb: f64,
}

impl Seen {
    fn new(capacity: usize) -> Self {
        Seen {
            samples: Samples::with_capacity(capacity),
            queued_ms: 0.0,
            policy: 0,
            tally: Tally::default(),
            last_reply: None,
            peak_rss_mb: f64::NAN,
        }
    }

    fn merge(&mut self, other: Seen) {
        self.samples.extend(&other.samples);
        self.queued_ms += other.queued_ms;
        self.policy += other.policy;
        self.tally.merge(&other.tally);
        self.last_reply = other.last_reply.or(self.last_reply.take());
    }
}

/// A running daemon with its connected clients.
struct Rig {
    server: Server,
    addr: String,
    clients: Vec<ServeClient>,
    /// Requests sent so far, for unique ids.
    sent: u64,
}

fn connect(addr: &str) -> ServeClient {
    ServeClient::connect_tcp(addr, Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("cannot connect to {addr}: {e}"))
}

/// Checks one reply against its request.
fn check(reply: &ScheduleReply, id: u64, workers: usize) -> Result<(), Failure> {
    let ok = reply.id == id
        && reply.actions.len() == workers
        && reply.actions.iter().all(|a| a.move_index < NUM_MOVES as u64)
        && (reply.mode == "policy" || reply.mode == "greedy");
    if ok {
        Ok(())
    } else {
        Err(Failure::Invalid)
    }
}

/// One closed-loop client: sends until `stop` says so, each request only
/// after the previous reply.
fn client_loop(
    client: &mut ServeClient,
    addr: &str,
    first_id: u64,
    snaps: &[ScheduleRequest],
    stop: &dyn Fn(u64) -> bool,
    (start, capacity): (Instant, usize),
) -> Seen {
    let mut seen = Seen::new(capacity);
    let mut i = 0u64;
    while !stop(i) {
        // Clients' ids differ in their high bits, so each starts at its own
        // snapshot and walks the list from there.
        let mut req = snaps[((first_id + i) % snaps.len() as u64) as usize].clone();
        req.id = first_id + i;
        let workers = req.workers.len();
        let t0 = Instant::now();
        let resp = client.schedule(req);
        let took = secs(t0) * 1e3;
        let outcome = match resp {
            Ok(Response::Schedule(reply)) => {
                let outcome = check(&reply, first_id + i, workers);
                if outcome.is_ok() {
                    seen.samples.push(secs(start), took);
                    seen.queued_ms += reply.queued_ms;
                    seen.policy += u64::from(reply.mode == "policy");
                }
                seen.last_reply = Some(reply);
                outcome
            }
            Ok(Response::Rejected(_)) => Err(Failure::Refused),
            Ok(_) => Err(Failure::Invalid),
            Err(_) => {
                // The connection is gone; later requests use a new one.
                *client = connect(addr);
                Err(Failure::Lost)
            }
        };
        seen.tally.record(outcome);
        i += 1;
    }
    seen
}

impl Rig {
    fn setup(seed: u64, snaps: &[ScheduleRequest], telemetry: Telemetry) -> Rig {
        let artifact = PolicyArtifact::from_bytes(&checkpoint(seed))
            .unwrap_or_else(|e| panic!("artifact rejected: {e}"));
        let server =
            Server::start(artifact, ServeConfig::default(), telemetry, Some("127.0.0.1:0"), None)
                .unwrap_or_else(|e| panic!("server failed to start: {e}"));
        let addr = server.tcp_addr().expect("tcp listener").to_string();
        let clients = (0..nproc()).map(|_| connect(&addr)).collect();
        let mut rig = Rig { server, addr, clients, sent: 0 };
        let warm = rig.drive(snaps, &|i| i >= WARMUP_PER_CLIENT, WARMUP_PER_CLIENT as usize);
        assert_eq!(warm.tally.failed(), 0, "warm-up requests failed");
        rig
    }

    /// Runs every client's closed loop concurrently until `stop`; each
    /// client's sample buffer holds `capacity` replies before growing.
    fn drive(
        &mut self,
        snaps: &[ScheduleRequest],
        stop: &(dyn Fn(u64) -> bool + Sync),
        capacity: usize,
    ) -> Seen {
        let base = self.sent;
        let addr = self.addr.as_str();
        let clock = (Instant::now(), capacity);
        let seen: Vec<Seen> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let first = base + ((c as u64 + 1) << 40);
                    s.spawn(move || client_loop(client, addr, first, snaps, stop, clock))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let mut all = Seen::new(0);
        all.peak_rss_mb = peak_rss_mb();
        self.sent += seen.iter().map(|s| s.tally.attempted).max().unwrap_or(0);
        for s in seen {
            all.merge(s);
        }
        all
    }

    fn shutdown(self) {
        drop(self.clients);
        let _ = self.server.shutdown(Duration::from_secs(2));
    }
}

/// Closed-loop load for `seconds`.
fn load_for(rig: &mut Rig, snaps: &[ScheduleRequest], seconds: f64) -> Seen {
    let start = Instant::now();
    rig.drive(snaps, &|_| secs(start) >= seconds, (seconds * MAX_REPLIES_PER_S) as usize)
}

pub fn run(seed: u64, seconds: f64) -> E2e {
    let snaps = snapshots(seed);
    let mut setup_s = Vec::new();
    let mut rig: Option<Rig> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = rig.take() {
            old.shutdown();
        }
        let t0 = Instant::now();
        rig = Some(Rig::setup(seed, &snaps, Telemetry::off()));
        setup_s.push(secs(t0));
    }
    let mut rig = rig.expect("at least one set-up");
    let seen = load_for(&mut rig, &snaps, seconds);
    rig.shutdown();
    E2e {
        setup_s,
        samples: seen.samples,
        units_per_op: 1.0,
        unit_name: "replies",
        tally: seen.tally,
        peak_rss_mb: seen.peak_rss_mb,
    }
}

/// Median µs of `reps` calls of `f`.
fn probe(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|i| {
            let t0 = Instant::now();
            f(i);
            secs(t0) * 1e6
        })
        .collect();
    stats::median(&times).unwrap_or(f64::NAN)
}

/// A histogram's mean observation between two snapshots, and how many.
fn delta_mean(a: &HistogramSnapshot, b: &HistogramSnapshot) -> (f64, u64) {
    let n = b.count - a.count;
    ((b.sum - a.sum) / n as f64, n)
}

pub fn trace(seed: u64, seconds: f64) -> Traced {
    let snaps = snapshots(seed);
    let mut t = Traced::default();
    let tel = Telemetry::new();
    tel.set_on(false);
    let mut rig = Rig::setup(seed, &snaps, tel.clone());
    let plain = load_for(&mut rig, &snaps, seconds / 2.0);
    t.tally.merge(&plain.tally);

    // The daemon's histograms record whether or not the handle is on, so
    // the traced half reads them as differences.
    let request_h = tel.histogram("serve_request_seconds", &REQUEST_SECONDS_BOUNDS);
    let occupancy_h = tel.histogram("serve_batch_occupancy", &BATCH_OCCUPANCY_BOUNDS);
    let (req0, occ0) = (request_h.snapshot(), occupancy_h.snapshot());
    tel.set_on(true);
    set_kernel_telemetry(true);
    reset_kernel_counters();
    let (pool0, arena0) = (pool_stats(), arena_stats());
    let seen = load_for(&mut rig, &snaps, seconds / 2.0);
    let (kernels, pool1, arena1) = (kernel_counters(), pool_stats(), arena_stats());
    set_kernel_telemetry(false);
    tel.set_on(false);
    let (req1, occ1) = (request_h.snapshot(), occupancy_h.snapshot());
    rig.shutdown();
    t.tally.merge(&seen.tally);

    let (lat, plain_lat) = (seen.samples.latencies_ms(), plain.samples.latencies_ms());
    let replies = lat.len() as f64;
    let (server_s, requests) = delta_mean(&req0, &req1);
    let server_ms = server_s * 1e3;
    let (batch_mean, batches) = delta_mean(&occ0, &occ1);
    let client_ms = lat.iter().sum::<f64>() / replies;
    let queue_ms = seen.queued_ms / replies;
    let base = format!("mean over {replies} traced replies");
    t.push("serve.client_ms", client_ms, "ms", base.clone());
    t.push("serve.server_ms", server_ms, "ms", format!("mean over {requests} requests"));
    t.push("serve.queue_wait_ms", queue_ms, "ms", base.clone());
    t.push(
        "serve.wire_ms",
        client_ms - server_ms,
        "ms",
        "serve.client_ms - serve.server_ms".into(),
    );
    t.push("serve.batch_size_mean", batch_mean, "count", format!("{batches} batches"));
    t.push("serve.policy_share", seen.policy as f64 / replies, "share", base);
    train::push_nn(&mut t, "serve_closed", replies, kernels, (pool0, pool1), (arena0, arena1));
    let med = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    t.push(
        "trace.overhead_share.serve_closed",
        med(&lat) / med(&plain_lat) - 1.0,
        "share",
        format!("traced p50 over untraced p50, {} and {} replies", lat.len(), plain_lat.len()),
    );

    // Probes from outside: the client codec, the per-request env build, and
    // the batch step and batched inference at the batch sizes the daemon
    // actually formed (occupancy buckets have upper bounds 1, 2, 4, …).
    let reply = Response::Schedule(seen.last_reply.clone().expect("at least one reply"));
    let reply_bytes = encode_response(&reply);
    let codec_us = probe(PROBE_REPS, |i| {
        let req = Request::Schedule(snaps[i % snaps.len()].clone());
        std::hint::black_box(encode_request(&req));
        std::hint::black_box(decode_response(&reply_bytes));
    });
    t.push("serve.codec_us", codec_us, "us", format!("median of {PROBE_REPS} round trips"));
    let bundle = PolicyBundle {
        artifact: PolicyArtifact::from_bytes(&checkpoint(seed))
            .unwrap_or_else(|e| panic!("artifact rejected: {e}")),
        generation: 0,
    };
    let artifact = &bundle.artifact;
    let make_env_us = probe(PROBE_REPS, |i| {
        let base = artifact.make_env().expect("artifact env");
        let mut env = base.clone();
        apply_snapshot(&mut env, &snaps[i % snaps.len()]);
        std::hint::black_box(env);
    });
    t.push("env.make_env_us", make_env_us, "us", format!("median of {PROBE_REPS} requests"));

    let cfg = ServeConfig::default();
    let metrics = ServeMetrics::new(&Telemetry::off());
    let mut ladder = ShedLadder::new(cfg.slo, cfg.trip_after, cfg.recover_after);
    let opts = PolicyOptions { mode: SampleMode::Greedy, mask_invalid: artifact.mask_invalid };
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, "serve.probe"));
    let (mut sample_us, mut batch_us) = (0.0, 0.0);
    for (i, bound) in occ1.bounds.iter().enumerate() {
        let weight = (occ1.buckets[i] - occ0.buckets[i]) as f64 / batches as f64;
        if weight == 0.0 {
            continue;
        }
        let size = (*bound as usize).clamp(1, nproc());
        let envs: Vec<CrowdsensingEnv> = (0..size)
            .map(|k| {
                let mut env = artifact.make_env().expect("artifact env");
                apply_snapshot(&mut env, &snaps[k % snaps.len()]);
                env
            })
            .collect();
        let refs: Vec<&CrowdsensingEnv> = envs.iter().collect();
        sample_us += weight
            * probe(PROBE_REPS, |_| {
                let s =
                    sample_actions_batched(&artifact.net, &artifact.store, &refs, opts, &mut rng);
                std::hint::black_box(s);
            });
        batch_us += weight
            * probe(PROBE_REPS, |i| {
                let (tx, rx) = sync_channel(size);
                let batch = (0..size)
                    .map(|k| Pending {
                        req: snaps[(i + k) % snaps.len()].clone(),
                        enqueued: Instant::now(),
                        deadline: Duration::from_millis(DEADLINE_MS),
                        reply: tx.clone(),
                    })
                    .collect();
                process_batch(batch, &bundle, &mut ladder, &mut rng, &metrics);
                std::hint::black_box(rx.try_iter().count());
            });
    }
    let weighted = format!("per batch, weighted over {batches} observed batches");
    t.push("rl.sample_batched_us", sample_us, "us", weighted.clone());
    t.push("serve.batch_us", batch_us, "us", weighted);
    t.check_sum(
        "serve_closed server time = queue wait + batch step",
        server_ms,
        &[queue_ms, batch_us / 1e3],
        RESIDUAL,
    );
    t.check_sum(
        "serve batch step = make_env per request + batched inference",
        batch_us,
        &[make_env_us * batch_mean, sample_us],
        RESIDUAL,
    );
    t
}
