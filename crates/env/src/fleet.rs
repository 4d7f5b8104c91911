//! Struct-of-arrays fleet state: the columnar stepping engine behind
//! [`crate::env::CrowdsensingEnv`].
//!
//! [`FleetState`] is the only copy of the mutable fleet state: one column
//! per worker and PoI field, plus the static station list. Readers see the
//! entities through the borrowed [`Workers`] and [`Pois`] views, which
//! assemble a [`Worker`] or [`Poi`] by value from the columns on access, so
//! nothing is copied back after a step. Stepping runs tight columnar loops,
//! and a 1000-worker fleet advances with zero steady-state heap allocations
//! (see `tests/fleet_alloc.rs`).
//!
//! One step is split into two phases that together reproduce the paper's
//! per-worker loop **bitwise** (proven against the AoS oracle in
//! `tests/fleet_equivalence.rs` and by the unmodified golden-trace
//! fixtures):
//!
//! * **Phase A** — per-worker physics with no cross-worker dependency:
//!   action decoding, exhaustion, route legality (boundary, obstacles,
//!   travel-energy budget) and the tentative end position. Each worker only
//!   reads its own columns plus static geometry, so the phase is pure per
//!   index and the kernel pool can split it across column chunks above
//!   [`FLEET_PAR_MIN_WORKERS`].
//! * **Phase B** — sequential resolution in worker-index order of the two
//!   competitive resources, exactly as the paper specifies: charging
//!   stations serve one worker per slot (earlier index wins) and PoIs are
//!   drained in index order (earlier workers collect first). Per-worker
//!   energy/pulse accounting rides along in the same order.
//!
//! The PoI in-range scan uses a uniform cell index ([`PoiGrid`]) so the
//! per-worker candidate set is O(local density) instead of O(P). Candidates
//! are sorted back into global PoI index order before draining, and the
//! exact distance predicate is re-applied per candidate, so both the drain
//! *set* and the floating-point accumulation *order* match a full PoI scan
//! bit for bit.

use crate::action::{Move, WorkerAction};
use crate::config::EnvConfig;
use crate::entities::{ChargingStation, Poi, Worker};
use crate::geometry::{Point, Rect};
use std::sync::{mpsc, Arc};
use vc_nn::arena;
use vc_nn::ops::gemm::kernel_threads;
use vc_nn::ops::pool;

/// Worker occupied the slot with a (possibly stalled) move.
const MODE_MOVE: u8 = 0;
/// Worker requested charging (legal even when exhausted).
const MODE_CHARGE: u8 = 1;
/// Worker is out of energy and stalls.
const MODE_EXHAUSTED: u8 = 2;
/// Phase-A packed flag bit: the move was illegal (collision).
const FLAG_COLLIDED: usize = 1 << 2;

/// Fleet size above which phase A is split across kernel-pool chunks.
///
/// Measured threshold: phase A costs tens of nanoseconds per worker while a
/// pooled dispatch (job boxing, input snapshot, result channel) costs tens
/// of microseconds, so fan-out only pays once a chunk carries roughly a
/// thousand workers. Below this the sequential columnar loop wins outright.
pub const FLEET_PAR_MIN_WORKERS: usize = 1024;

// ---- spatial index --------------------------------------------------------

/// Uniform-cell spatial index over PoI positions (CSR layout).
///
/// Cells at least as wide as the largest query radius would be ideal, but
/// correctness never depends on the cell size: a query walks every cell
/// overlapping the `[x±g, y±g]` box, so the candidate set is always a
/// superset of the true in-range set and the exact predicate filters it.
#[derive(Clone, Debug, Default)]
struct PoiGrid {
    nx: usize,
    ny: usize,
    cell: f32,
    /// CSR row starts, `nx*ny + 1` entries.
    start: Vec<usize>,
    /// PoI indices grouped by cell; within a cell they keep ascending order.
    ids: Vec<u32>,
}

impl PoiGrid {
    fn cell_index(&self, x: f32, y: f32) -> (usize, usize) {
        let cx = ((x / self.cell) as usize).min(self.nx - 1);
        let cy = ((y / self.cell) as usize).min(self.ny - 1);
        (cx, cy)
    }

    /// Rebuilds the index for the given PoI columns.
    fn build(&mut self, cfg: &EnvConfig, xs: &[f32], ys: &[f32]) {
        // Cell edge: the sensing range (so a query box spans ~3×3 cells),
        // floored so huge maps stay within a bounded cell count.
        self.cell = cfg.sensing_range.max(cfg.size_x.max(cfg.size_y) / 256.0).max(1e-6);
        self.nx = ((cfg.size_x / self.cell).ceil() as usize).max(1);
        self.ny = ((cfg.size_y / self.cell).ceil() as usize).max(1);
        let cells = self.nx * self.ny;
        self.start.clear();
        self.start.resize(cells + 1, 0);
        // Counting sort: pass 1 tallies, pass 2 scatters in ascending PoI
        // order so each cell's id run stays index-sorted.
        for i in 0..xs.len() {
            let (cx, cy) = self.cell_index(xs[i], ys[i]);
            self.start[cy * self.nx + cx + 1] += 1;
        }
        for c in 0..cells {
            self.start[c + 1] += self.start[c];
        }
        self.ids.clear();
        self.ids.resize(xs.len(), 0);
        let mut cursor = self.start.clone();
        for i in 0..xs.len() {
            let (cx, cy) = self.cell_index(xs[i], ys[i]);
            let slot = cursor[cy * self.nx + cx];
            self.ids[slot] = i as u32;
            cursor[cy * self.nx + cx] += 1;
        }
    }

    /// Pushes every PoI index whose cell overlaps the `[x±g, y±g]` box.
    /// The result is a superset of the in-range set, unsorted across cells.
    fn candidates_into(&self, x: f32, y: f32, g: f32, out: &mut Vec<usize>) {
        let (cx0, cy0) = self.cell_index((x - g).max(0.0), (y - g).max(0.0));
        let (cx1, cy1) = self.cell_index(x + g, y + g);
        for cy in cy0..=cy1 {
            for cx in cx0..=cx1 {
                let c = cy * self.nx + cx;
                for &id in &self.ids[self.start[c]..self.start[c + 1]] {
                    out.push(id as usize);
                }
            }
        }
    }
}

// ---- columnar state -------------------------------------------------------

/// The fleet's state, one column per worker and PoI field (DESIGN.md §16).
///
/// This is the environment's only copy of the mutable state; [`Workers`]
/// and [`Pois`] read entities through it.
#[derive(Clone, Debug, Default)]
pub struct FleetState {
    // Worker columns.
    pub(crate) x: Vec<f32>,
    pub(crate) y: Vec<f32>,
    pub(crate) energy: Vec<f32>,
    /// Per-worker battery capacity (the family-specific battery scale of
    /// heterogeneous fleets).
    pub(crate) capacity: Vec<f32>,
    pub(crate) total_collected: Vec<f32>,
    pub(crate) total_consumed: Vec<f32>,
    pub(crate) total_charged: Vec<f32>,
    pub(crate) collisions: Vec<u32>,
    /// Per-worker collection ratio at the last Υ¹ pulse.
    pub(crate) sparse_level: Vec<f32>,
    // PoI columns.
    pub(crate) poi_x: Vec<f32>,
    pub(crate) poi_y: Vec<f32>,
    pub(crate) poi_initial: Vec<f32>,
    pub(crate) poi_data: Vec<f32>,
    pub(crate) poi_access: Vec<u32>,
    /// Total initial data `Σ_p δ₀^p`.
    pub(crate) initial_total_data: f32,
    /// Charging stations (static).
    pub(crate) stations: Vec<ChargingStation>,
    /// Flat observation-grid cell of each PoI (PoIs never move).
    pub(crate) poi_cell: Vec<u32>,
    /// Observation-grid cells overlapped by an obstacle (static layer).
    pub(crate) obstacle_cells: Vec<u32>,
    grid: PoiGrid,
    /// The static inputs of phase A.
    pub(crate) motion: Motion,
}

impl FleetState {
    /// Number of workers in the fleet.
    pub fn num_workers(&self) -> usize {
        self.x.len()
    }

    /// Worker x-coordinate column.
    pub fn worker_xs(&self) -> &[f32] {
        &self.x
    }

    /// Worker energy column.
    pub fn energies(&self) -> &[f32] {
        &self.energy
    }

    /// Rebuilds every column from AoS entities, reusing buffer capacity.
    pub(crate) fn load(
        &mut self,
        cfg: &EnvConfig,
        workers: &[Worker],
        pois: &[Poi],
        stations: &[ChargingStation],
    ) {
        fn fill<T: Copy>(col: &mut Vec<T>, it: impl Iterator<Item = T>) {
            col.clear();
            col.extend(it);
        }
        fill(&mut self.x, workers.iter().map(|w| w.pos.x));
        fill(&mut self.y, workers.iter().map(|w| w.pos.y));
        fill(&mut self.energy, workers.iter().map(|w| w.energy));
        fill(&mut self.capacity, workers.iter().map(|w| w.capacity));
        fill(&mut self.total_collected, workers.iter().map(|w| w.total_collected));
        fill(&mut self.total_consumed, workers.iter().map(|w| w.total_consumed));
        fill(&mut self.total_charged, workers.iter().map(|w| w.total_charged));
        fill(&mut self.collisions, workers.iter().map(|w| w.collisions));
        fill(&mut self.sparse_level, workers.iter().map(|_| 0.0));
        fill(&mut self.poi_x, pois.iter().map(|p| p.pos.x));
        fill(&mut self.poi_y, pois.iter().map(|p| p.pos.y));
        fill(&mut self.poi_initial, pois.iter().map(|p| p.initial_data));
        fill(&mut self.poi_data, pois.iter().map(|p| p.data));
        fill(&mut self.poi_access, pois.iter().map(|p| p.access_time));
        self.initial_total_data = pois.iter().map(|p| p.initial_data).sum();
        self.stations.clear();
        self.stations.extend_from_slice(stations);
        self.grid.build(cfg, &self.poi_x, &self.poi_y);
        crate::state::static_cells(
            cfg,
            &self.poi_x,
            &self.poi_y,
            &mut self.poi_cell,
            &mut self.obstacle_cells,
        );
        self.motion = Motion {
            size_x: cfg.size_x,
            size_y: cfg.size_y,
            beta: cfg.beta,
            max_step: cfg.max_step,
            obstacles: Arc::new(cfg.obstacles.clone()),
        };
    }

    /// The workers, as a view over the columns.
    pub(crate) fn workers(&self) -> Workers<'_> {
        let read = |f: &FleetState, i: usize| Worker {
            pos: Point::new(f.x[i], f.y[i]),
            energy: f.energy[i],
            capacity: f.capacity[i],
            total_collected: f.total_collected[i],
            total_consumed: f.total_consumed[i],
            total_charged: f.total_charged[i],
            collisions: f.collisions[i],
        };
        View { fleet: self, len: self.x.len(), read }
    }

    /// The PoIs, as a view over the columns.
    pub(crate) fn pois(&self) -> Pois<'_> {
        let read = |f: &FleetState, i: usize| Poi {
            pos: Point::new(f.poi_x[i], f.poi_y[i]),
            initial_data: f.poi_initial[i],
            data: f.poi_data[i],
            access_time: f.poi_access[i],
        };
        View { fleet: self, len: self.poi_x.len(), read }
    }
}

// ---- read views -----------------------------------------------------------

/// Borrowed read view of one entity kind ([`Workers`], [`Pois`]):
/// [`Self::get`] assembles entity `i` by value from the columns, so a read
/// costs O(1) and nothing is copied up front.
#[derive(Clone, Copy)]
pub struct View<'a, T> {
    fleet: &'a FleetState,
    len: usize,
    read: fn(&FleetState, usize) -> T,
}

/// The workers, read through the columns.
pub type Workers<'a> = View<'a, Worker>;
/// The PoIs, read through the columns.
pub type Pois<'a> = View<'a, Poi>;

impl<'a, T: 'a> View<'a, T> {
    /// Number of entities.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are none.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entity `i`, by value.
    ///
    /// # Panics
    ///
    /// If `i` is out of range.
    pub fn get(&self, i: usize) -> T {
        (self.read)(self.fleet, i)
    }

    /// Every entity in index order, by value.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = T> + 'a {
        let (fleet, read) = (self.fleet, self.read);
        (0..self.len).map(move |i| read(fleet, i))
    }
}

// ---- per-step scratch -----------------------------------------------------

/// Persistent per-step scratch: phase-A output columns, outcome columns and
/// the station/candidate buffers. All `f32`/`usize` buffers are leased from
/// the kernel arena once and reused, so a steady-state step allocates
/// nothing (pinned by `tests/fleet_alloc.rs`).
#[derive(Debug, Default)]
pub struct FleetScratch {
    end_x: Vec<f32>,
    end_y: Vec<f32>,
    traveled: Vec<f32>,
    mode: Vec<u8>,
    collided: Vec<u8>,
    station_busy: Vec<bool>,
    /// PoI candidate indices for the worker currently draining (sorted back
    /// into global index order before use).
    cand: Vec<usize>,
    // Outcome columns (the SoA form of `WorkerOutcome`).
    pub(crate) out_collected: Vec<f32>,
    pub(crate) out_consumed: Vec<f32>,
    pub(crate) out_charged: Vec<f32>,
    pub(crate) out_traveled: Vec<f32>,
    pub(crate) out_collided: Vec<u8>,
    pub(crate) out_charging: Vec<u8>,
    pub(crate) out_data_pulse: Vec<u8>,
    pub(crate) out_charge_pulse: Vec<u8>,
    /// Whether the arena-backed buffers have been leased yet.
    leased: bool,
}

impl Clone for FleetScratch {
    /// Scratch holds no state worth copying; a clone starts empty and
    /// re-leases its buffers on first use.
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl Drop for FleetScratch {
    fn drop(&mut self) {
        if !self.leased {
            return;
        }
        for buf in [
            std::mem::take(&mut self.end_x),
            std::mem::take(&mut self.end_y),
            std::mem::take(&mut self.traveled),
            std::mem::take(&mut self.out_collected),
            std::mem::take(&mut self.out_consumed),
            std::mem::take(&mut self.out_charged),
            std::mem::take(&mut self.out_traveled),
        ] {
            arena::put_f32(buf);
        }
        arena::put_usize(std::mem::take(&mut self.cand));
    }
}

impl FleetScratch {
    /// Sizes every buffer for `w` workers / `p` PoIs / `s` stations and
    /// resets the per-step columns. Allocation-free once capacities fit.
    fn prepare(&mut self, w: usize, p: usize, s: usize) {
        if !self.leased {
            self.end_x = arena::take_f32(w);
            self.end_y = arena::take_f32(w);
            self.traveled = arena::take_f32(w);
            self.out_collected = arena::take_f32(w);
            self.out_consumed = arena::take_f32(w);
            self.out_charged = arena::take_f32(w);
            self.out_traveled = arena::take_f32(w);
            self.cand = arena::take_usize(p.max(16));
            self.leased = true;
        }
        for col in [
            &mut self.end_x,
            &mut self.end_y,
            &mut self.traveled,
            &mut self.out_collected,
            &mut self.out_consumed,
            &mut self.out_charged,
            &mut self.out_traveled,
        ] {
            col.clear();
            col.resize(w, 0.0);
        }
        for col in [
            &mut self.mode,
            &mut self.collided,
            &mut self.out_collided,
            &mut self.out_charging,
            &mut self.out_data_pulse,
            &mut self.out_charge_pulse,
        ] {
            col.clear();
            col.resize(w, 0);
        }
        self.station_busy.clear();
        self.station_busy.resize(s, false);
    }
}

/// Borrowed view of one `step_fleet` outcome: per-worker outcome columns.
///
/// This is the allocation-free sibling of
/// [`crate::env::StepResult`] — the columns live in the environment's
/// persistent scratch and are overwritten by the next step.
#[derive(Debug)]
pub struct FleetStepView<'a> {
    /// Data collected this slot, per worker.
    pub collected: &'a [f32],
    /// Energy consumed this slot, per worker.
    pub consumed: &'a [f32],
    /// Energy charged this slot, per worker.
    pub charged: &'a [f32],
    /// Distance traveled this slot, per worker.
    pub traveled: &'a [f32],
    /// 1 where the worker collided.
    pub collided: &'a [u8],
    /// 1 where the worker spent the slot charging.
    pub charging: &'a [u8],
    /// 1 where the sparse data pulse Υ¹ fired.
    pub data_pulse: &'a [u8],
    /// 1 where the sparse charge pulse Υ² fired.
    pub charge_pulse: &'a [u8],
    /// Time slot index after the step (1-based).
    pub t: usize,
    /// True once the horizon is reached.
    pub done: bool,
}

impl FleetStepView<'_> {
    /// Materializes one worker's outcome struct from the columns.
    pub fn outcome(&self, wi: usize) -> crate::env::WorkerOutcome {
        crate::env::WorkerOutcome {
            collected: self.collected[wi],
            consumed: self.consumed[wi],
            charged: self.charged[wi],
            traveled: self.traveled[wi],
            collided: self.collided[wi] != 0,
            charging: self.charging[wi] != 0,
            data_pulse: self.data_pulse[wi] != 0,
            charge_pulse: self.charge_pulse[wi] != 0,
        }
    }
}

// ---- phase A: independent per-worker physics ------------------------------

/// The static inputs of phase A: map bounds, travel cost, step length and
/// obstacles. Pooled jobs clone it; the obstacle list is shared, not copied.
#[derive(Clone, Debug, Default)]
pub(crate) struct Motion {
    size_x: f32,
    size_y: f32,
    beta: f32,
    max_step: f32,
    obstacles: Arc<Vec<Rect>>,
}

impl Motion {
    /// Whether the segment `from -> to` stays inside the map and clear of
    /// every obstacle.
    #[inline]
    pub(crate) fn path_clear(&self, from: &Point, to: &Point) -> bool {
        if to.x < 0.0 || to.x > self.size_x || to.y < 0.0 || to.y > self.size_y {
            return false;
        }
        !self.obstacles.iter().any(|r| r.intersects_segment(from, to))
    }

    /// One worker's phase-A physics: mode classification, route legality
    /// and the tentative end position. Pure in its inputs — this is what
    /// makes the phase chunkable.
    #[inline]
    fn worker(
        &self,
        x: f32,
        y: f32,
        energy: f32,
        mv: Move,
        charge: bool,
    ) -> (u8, bool, f32, f32, f32) {
        if charge {
            return (MODE_CHARGE, false, x, y, 0.0);
        }
        if energy <= 0.0 {
            return (MODE_EXHAUSTED, false, x, y, 0.0);
        }
        let start = Point::new(x, y);
        let (dx, dy) = mv.displacement(self.max_step);
        let target = start.offset(dx, dy);
        let legal = mv == Move::Stay
            || (self.path_clear(&start, &target) && self.beta * start.dist(&target) <= energy);
        let (end, collided) = if legal { (target, false) } else { (start, true) };
        let traveled = start.dist(&end);
        (MODE_MOVE, collided, end.x, end.y, traveled)
    }
}

/// Inputs snapshotted for pooled phase-A jobs (`'static`, shared read-only).
struct ParSnapshot {
    motion: Motion,
    x: Vec<f32>,
    y: Vec<f32>,
    energy: Vec<f32>,
    /// Per-worker action code: `mv.index()` | `FLAG_CHARGE` bit.
    act: Vec<usize>,
}

/// Charge-request bit in the packed action code.
const ACT_CHARGE: usize = 1 << 8;

/// Phase A over a worker range, writing the scratch columns directly.
#[allow(clippy::too_many_arguments)]
fn phase_a_range(
    snap: &ParSnapshot,
    lo: usize,
    hi: usize,
    end_x: &mut [f32],
    end_y: &mut [f32],
    traveled: &mut [f32],
    flags: &mut [usize],
) {
    for i in lo..hi {
        let code = snap.act[i];
        let mv = Move::from_index(code & 0xff);
        let (mode, collided, ex, ey, tr) =
            snap.motion.worker(snap.x[i], snap.y[i], snap.energy[i], mv, code & ACT_CHARGE != 0);
        end_x[i - lo] = ex;
        end_y[i - lo] = ey;
        traveled[i - lo] = tr;
        flags[i - lo] = mode as usize | if collided { FLAG_COLLIDED } else { 0 };
    }
}

/// Runs phase A, sequentially or pool-chunked above the fleet threshold.
fn phase_a(fleet: &FleetState, scr: &mut FleetScratch, actions: &[WorkerAction]) {
    let w = actions.len();
    let threads = kernel_threads().min(w / FLEET_PAR_MIN_WORKERS).max(1);
    if threads <= 1 {
        // Sequential columnar loop: same scalar kernel, no snapshot copies.
        for (i, a) in actions.iter().enumerate() {
            let (mode, collided, ex, ey, tr) =
                fleet.motion.worker(fleet.x[i], fleet.y[i], fleet.energy[i], a.movement, a.charge);
            scr.end_x[i] = ex;
            scr.end_y[i] = ey;
            scr.traveled[i] = tr;
            scr.mode[i] = mode;
            scr.collided[i] = u8::from(collided);
        }
        return;
    }

    // Pooled dispatch (the GEMM idiom): snapshot the dynamic columns into an
    // `Arc`, fan chunk jobs out to the pool, keep chunk 0 for the caller,
    // and drain results over a per-call channel while helping the pool.
    // The per-worker kernel is pure, so chunk boundaries cannot change any
    // result bit — pooled and sequential phase A are identical.
    pool::ensure_workers(threads - 1);
    let mut act = arena::take_usize(w);
    act.extend(actions.iter().map(|a| a.movement.index() | if a.charge { ACT_CHARGE } else { 0 }));
    let mut x = arena::take_f32(w);
    x.extend_from_slice(&fleet.x);
    let mut y = arena::take_f32(w);
    y.extend_from_slice(&fleet.y);
    let mut energy = arena::take_f32(w);
    energy.extend_from_slice(&fleet.energy);
    let snap = Arc::new(ParSnapshot { motion: fleet.motion.clone(), x, y, energy, act });

    let chunk = w.div_ceil(threads);
    type ChunkOut = (usize, usize, Vec<f32>, Vec<f32>, Vec<f32>, Vec<usize>);
    let (tx, rx) = mpsc::channel::<ChunkOut>();
    let mut jobs: Vec<pool::Job> = Vec::new();
    let mut lo = chunk; // chunk 0 stays with the caller
    while lo < w {
        let hi = (lo + chunk).min(w);
        let snap = Arc::clone(&snap);
        let tx = tx.clone();
        jobs.push(Box::new(move || {
            let n = hi - lo;
            let mut ex = arena::take_f32(n);
            ex.resize(n, 0.0);
            let mut ey = arena::take_f32(n);
            ey.resize(n, 0.0);
            let mut tr = arena::take_f32(n);
            tr.resize(n, 0.0);
            let mut fl = arena::take_usize(n);
            fl.resize(n, 0);
            phase_a_range(&snap, lo, hi, &mut ex, &mut ey, &mut tr, &mut fl);
            let _ = tx.send((lo, hi, ex, ey, tr, fl));
        }));
        lo = hi;
    }
    drop(tx);
    let mut pending = jobs.len();
    pool::submit(jobs);

    // The caller's chunk, computed in place.
    {
        let hi = chunk.min(w);
        let mut fl = arena::take_usize(hi);
        fl.resize(hi, 0);
        phase_a_range(
            &snap,
            0,
            hi,
            &mut scr.end_x[..hi],
            &mut scr.end_y[..hi],
            &mut scr.traveled[..hi],
            &mut fl,
        );
        for (i, &f) in fl.iter().enumerate() {
            scr.mode[i] = (f & 0x3) as u8;
            scr.collided[i] = u8::from(f & FLAG_COLLIDED != 0);
        }
        arena::put_usize(fl);
    }

    while pending > 0 {
        match rx.try_recv() {
            Ok((lo, hi, ex, ey, tr, fl)) => {
                scr.end_x[lo..hi].copy_from_slice(&ex);
                scr.end_y[lo..hi].copy_from_slice(&ey);
                scr.traveled[lo..hi].copy_from_slice(&tr);
                for (off, &f) in fl.iter().enumerate() {
                    scr.mode[lo + off] = (f & 0x3) as u8;
                    scr.collided[lo + off] = u8::from(f & FLAG_COLLIDED != 0);
                }
                arena::put_f32(ex);
                arena::put_f32(ey);
                arena::put_f32(tr);
                arena::put_usize(fl);
                pending -= 1;
            }
            Err(mpsc::TryRecvError::Empty) => {
                if !pool::try_run_one() {
                    std::thread::yield_now();
                }
            }
            Err(mpsc::TryRecvError::Disconnected) => {
                panic!("fleet phase-A pool job panicked ({pending} chunk(s) lost)");
            }
        }
    }
    if let Ok(snap) = Arc::try_unwrap(snap) {
        arena::put_f32(snap.x);
        arena::put_f32(snap.y);
        arena::put_f32(snap.energy);
        arena::put_usize(snap.act);
    }
}

// ---- the step kernel ------------------------------------------------------

/// Advances the fleet columns by one slot, filling the scratch outcome
/// columns. Bitwise-equivalent to the per-entity AoS loop kept as the
/// oracle of `tests/fleet_equivalence.rs`.
pub(crate) fn step_columns(
    cfg: &EnvConfig,
    fleet: &mut FleetState,
    scr: &mut FleetScratch,
    actions: &[WorkerAction],
) {
    let w = actions.len();
    scr.prepare(w, fleet.poi_x.len(), fleet.stations.len());

    phase_a(fleet, scr, actions);

    // Phase B: worker-index-order resolution of stations and PoIs — the
    // paper's competition semantics, identical to the per-entity loop.
    let g = cfg.sensing_range;
    let lambda = cfg.collect_rate;
    // Index-driven on purpose: the body reads and writes a dozen parallel
    // columns at `wi`; iterating any single one obscures that.
    #[allow(clippy::needless_range_loop)]
    for wi in 0..w {
        match scr.mode[wi] {
            MODE_CHARGE => {
                scr.out_charging[wi] = 1;
                let pos = Point::new(fleet.x[wi], fleet.y[wi]);
                let slot = fleet
                    .stations
                    .iter()
                    .zip(&scr.station_busy)
                    .position(|(s, &busy)| !busy && s.in_range(&pos));
                if let Some(si) = slot {
                    scr.station_busy[si] = true;
                    let capacity = fleet.capacity[wi];
                    let sigma = cfg.charge_rate.min(capacity - fleet.energy[wi]).max(0.0);
                    fleet.energy[wi] += sigma;
                    fleet.total_charged[wi] += sigma;
                    scr.out_charged[wi] = sigma;
                    scr.out_charge_pulse[wi] = u8::from(sigma / capacity >= cfg.epsilon2);
                }
                // An out-of-range (or crowded-out) charge request wastes the
                // slot but costs nothing.
            }
            MODE_EXHAUSTED => {} // b_t = 0 ⇒ the worker stops movement.
            _ => {
                if scr.collided[wi] != 0 {
                    fleet.collisions[wi] += 1;
                    scr.out_collided[wi] = 1;
                }
                let traveled = scr.traveled[wi];
                scr.out_traveled[wi] = traveled;
                let end = Point::new(scr.end_x[wi], scr.end_y[wi]);

                // Drain in ascending PoI index order: the candidate list is
                // sorted so the floating-point sum order matches a full
                // index-order scan (skipped PoIs contribute exactly 0.0,
                // which cannot change the accumulator's bits).
                let mut q = 0.0;
                scr.cand.clear();
                fleet.grid.candidates_into(end.x, end.y, g, &mut scr.cand);
                scr.cand.sort_unstable();
                for &pi in &scr.cand {
                    if Point::new(fleet.poi_x[pi], fleet.poi_y[pi]).dist(&end) <= g {
                        // `Poi::collect` on columns.
                        let amount = (lambda * fleet.poi_initial[pi]).min(fleet.poi_data[pi]);
                        if amount > 0.0 {
                            fleet.poi_data[pi] -= amount;
                            fleet.poi_access[pi] += 1;
                        }
                        q += amount;
                    }
                }

                // Energy accounting (Eqn 3), floored at an empty battery.
                let e = cfg.beta * traveled + cfg.alpha * q;
                let consumed = e.min(fleet.energy[wi]);
                fleet.x[wi] = end.x;
                fleet.y[wi] = end.y;
                fleet.energy[wi] -= consumed;
                fleet.total_collected[wi] += q;
                fleet.total_consumed[wi] += consumed;
                scr.out_collected[wi] = q;
                scr.out_consumed[wi] = consumed;

                if fleet.initial_total_data > 0.0 {
                    let ratio = fleet.total_collected[wi] / fleet.initial_total_data;
                    if ratio - fleet.sparse_level[wi] >= cfg.epsilon1 {
                        fleet.sparse_level[wi] = ratio;
                        scr.out_data_pulse[wi] = 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn poi_grid_candidates_cover_in_range_set() {
        let cfg = EnvConfig::paper_default();
        let xs: Vec<f32> = (0..200).map(|i| (i as f32 * 0.53) % cfg.size_x).collect();
        let ys: Vec<f32> = (0..200).map(|i| (i as f32 * 0.91) % cfg.size_y).collect();
        let mut grid = PoiGrid::default();
        grid.build(&cfg, &xs, &ys);
        let g = cfg.sensing_range;
        for (qx, qy) in [(0.0, 0.0), (8.0, 8.0), (15.9, 0.1), (3.3, 12.7)] {
            let mut cand = Vec::new();
            grid.candidates_into(qx, qy, g, &mut cand);
            let here = Point::new(qx, qy);
            for i in 0..xs.len() {
                if Point::new(xs[i], ys[i]).dist(&here) <= g {
                    assert!(cand.contains(&i), "in-range PoI {i} missing at ({qx},{qy})");
                }
            }
        }
    }

    #[test]
    fn poi_grid_cell_runs_are_index_sorted() {
        let cfg = EnvConfig::tiny();
        let xs = [1.0, 1.1, 7.0, 1.05, 0.9];
        let ys = [1.0, 1.1, 7.0, 1.05, 0.9];
        let mut grid = PoiGrid::default();
        grid.build(&cfg, &xs, &ys);
        for c in 0..grid.nx * grid.ny {
            let run = &grid.ids[grid.start[c]..grid.start[c + 1]];
            assert!(run.windows(2).all(|p| p[0] < p[1]), "cell {c} not sorted: {run:?}");
        }
    }
}
