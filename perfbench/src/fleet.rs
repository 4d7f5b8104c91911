//! `fleet_w1000`: one fleet slot per operation — `sample_action_fleet`
//! through the factored `FleetActorCritic`, then `CrowdsensingEnv::step` —
//! at 1000 workers and 20 000 PoIs, single-threaded.

use crate::stats::{self, Failure, Samples, Tally};
use crate::{derive_seed, peak_rss_mb, secs, train, E2e, Traced, SETUP_REPS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use vc_env::prelude::*;
use vc_nn::prelude::*;
use vc_rl::prelude::*;

const WORKERS: usize = 1000;
/// Slots each set-up steps before timing starts.
const WARMUP_SLOTS: usize = 20;
/// Sample-buffer headroom: far above any plausible slot rate.
const MAX_SLOTS_PER_S: f64 = 5_000.0;
/// Allowed child-sum residual, as a share of the parent.
const RESIDUAL: f64 = 0.10;

/// The 160×160 obstacle-free map of the kernel bench's fleet ladder, with
/// its PoI and station layout drawn from `seed`. Episodes keep the paper's
/// horizon, so every run cycles through the same energy and data regime
/// instead of draining the fleet further the faster it steps.
fn config(seed: u64) -> EnvConfig {
    let mut cfg = EnvConfig::paper_default();
    cfg.size_x = 160.0;
    cfg.size_y = 160.0;
    cfg.grid = 16;
    cfg.num_workers = WORKERS;
    cfg.num_pois = 20_000;
    cfg.num_stations = 64;
    cfg.obstacles.clear();
    cfg.poi_distribution = PoiDistribution::Uniform;
    cfg.seed = derive_seed(seed, "fleet.map");
    cfg
}

const OPTS: PolicyOptions = PolicyOptions { mode: SampleMode::Stochastic, mask_invalid: true };

/// A built fleet: environment, factored policy and sampling stream.
struct Fleet {
    env: CrowdsensingEnv,
    store: ParamStore,
    net: FleetActorCritic,
    rng: StdRng,
}

impl Fleet {
    fn setup(seed: u64) -> Fleet {
        let env = CrowdsensingEnv::try_new(config(seed))
            .unwrap_or_else(|e| panic!("fleet scenario invalid: {e}"));
        let mut store = ParamStore::new();
        let mut init = StdRng::seed_from_u64(derive_seed(seed, "fleet.init"));
        let net = FleetActorCritic::new(
            &mut store,
            NetConfig::for_scenario(env.config().grid, WORKERS),
            &mut init,
        );
        let rng = StdRng::seed_from_u64(derive_seed(seed, "fleet.sample"));
        let mut f = Fleet { env, store, net, rng };
        for _ in 0..WARMUP_SLOTS {
            assert!(f.slot(false).2.is_ok(), "warm-up slot failed its check");
        }
        f
    }

    /// One checked slot: its sample and step times in µs and its outcome.
    /// With `soa` the step goes through `step_fleet` instead of `step`.
    fn slot(&mut self, soa: bool) -> (f64, f64, Result<(), Failure>) {
        if self.env.done() {
            self.env.reset();
        }
        let t0 = Instant::now();
        let sampled = sample_action_fleet(&self.net, &self.store, &self.env, OPTS, &mut self.rng);
        let sample_us = secs(t0) * 1e6;
        // The legality check reads the pre-step state and is not timed.
        let legal = sampled.actions.len() == WORKERS
            && sampled.actions.iter().enumerate().all(|(wi, a)| {
                self.env.valid_moves(wi)[a.movement.index()]
                    && (!a.charge || self.env.can_charge(wi))
            });
        let t1 = Instant::now();
        if soa {
            std::hint::black_box(self.env.step_fleet(&sampled.actions));
        } else {
            std::hint::black_box(self.env.step(&sampled.actions));
        }
        let step_us = secs(t1) * 1e6;
        let m = self.env.metrics();
        let finite = [
            m.data_collection_ratio,
            m.remaining_data_ratio,
            m.energy_efficiency,
            m.fairness_index,
        ]
        .iter()
        .all(|v| v.is_finite());
        let outcome = if legal && finite { Ok(()) } else { Err(Failure::Invalid) };
        (sample_us, step_us, outcome)
    }

    /// Slots until `seconds` have passed. Samples are stamped with the
    /// busy time so far, which leaves out the untimed checks.
    fn slots_for(&mut self, seconds: f64) -> (Samples, Tally) {
        let mut samples = Samples::with_capacity((seconds * MAX_SLOTS_PER_S) as usize);
        let mut tally = Tally::default();
        let start = Instant::now();
        let mut busy_ms = 0.0;
        while secs(start) < seconds {
            let (sample_us, step_us, outcome) = self.slot(false);
            let took = (sample_us + step_us) / 1e3;
            busy_ms += took;
            if outcome.is_ok() {
                samples.push(busy_ms / 1e3, took);
            }
            tally.record(outcome);
        }
        (samples, tally)
    }
}

pub fn run(seed: u64, seconds: f64) -> E2e {
    let mut setup_s = Vec::new();
    let mut fleet = None;
    for _ in 0..SETUP_REPS {
        drop(fleet.take());
        let t0 = Instant::now();
        fleet = Some(Fleet::setup(seed));
        setup_s.push(secs(t0));
    }
    let mut fleet = fleet.expect("at least one set-up");
    let (samples, tally) = fleet.slots_for(seconds);
    let peak_rss_mb = peak_rss_mb();
    E2e { setup_s, samples, units_per_op: 1.0, unit_name: "fleet slots", tally, peak_rss_mb }
}

pub fn trace(seed: u64, seconds: f64) -> Traced {
    let mut t = Traced::default();
    let mut fleet = Fleet::setup(seed);
    let (plain, tally) = fleet.slots_for(seconds / 2.0);
    let plain = plain.latencies_ms();
    t.tally.merge(&tally);

    // Traced half: kernel tallies on; slots alternate between `step` and
    // `step_fleet` so the AoS wrapper's cost shows as their difference.
    set_kernel_telemetry(true);
    reset_kernel_counters();
    let (pool0, arena0) = (pool_stats(), arena_stats());
    let (mut sample, mut step_aos, mut step_soa) = (vec![], vec![], vec![]);
    let (mut encode, mut traced) = (vec![], vec![]);
    let start = Instant::now();
    let mut i = 0usize;
    while secs(start) < seconds / 2.0 {
        let t0 = Instant::now();
        std::hint::black_box(vc_env::state::encode(&fleet.env));
        encode.push(secs(t0) * 1e6);
        let soa = i % 2 == 1;
        let (sample_us, step_us, outcome) = fleet.slot(soa);
        sample.push(sample_us);
        if soa {
            step_soa.push(step_us);
        } else {
            step_aos.push(step_us);
            traced.push((sample_us + step_us) / 1e3);
        }
        t.tally.record(outcome);
        i += 1;
    }
    let (kernels, pool1, arena1) = (kernel_counters(), pool_stats(), arena_stats());
    set_kernel_telemetry(false);

    let med = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    let n = |v: &[f64], what: &str| format!("median of {} {what}", v.len());
    t.push("rl.sample_fleet_us", med(&sample), "us", n(&sample, "sample_action_fleet calls"));
    t.push("env.fleet_step_us", med(&step_aos), "us", n(&step_aos, "step calls at w1000"));
    t.push("env.fleet_step_soa_us", med(&step_soa), "us", n(&step_soa, "step_fleet calls"));
    t.push(
        "env.fleet_aos_wrapper_us",
        med(&step_aos) - med(&step_soa),
        "us",
        "env.fleet_step_us minus env.fleet_step_soa_us".into(),
    );
    t.push("env.fleet_encode_us", med(&encode), "us", n(&encode, "encodes at w1000"));
    train::push_nn(&mut t, "fleet_w1000", i as f64, kernels, (pool0, pool1), (arena0, arena1));
    t.push(
        "trace.overhead_share.fleet_w1000",
        med(&traced) / med(&plain) - 1.0,
        "share",
        format!("traced p50 over untraced p50, {} and {} slots", traced.len(), plain.len()),
    );
    t.check_sum(
        "fleet_w1000 untraced slot p50 = sample p50 + step p50",
        med(&plain),
        &[med(&sample) / 1e3, med(&step_aos) / 1e3],
        RESIDUAL,
    );
    t
}
