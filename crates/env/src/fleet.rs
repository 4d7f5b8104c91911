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
//!   reads its own columns plus static geometry; one sequential loop runs
//!   it over the fleet.
//! * **Phase B** — sequential resolution in worker-index order of the two
//!   competitive resources, exactly as the paper specifies: charging
//!   stations serve one worker per slot (earlier index wins) and PoIs are
//!   drained in index order (earlier workers collect first). Per-worker
//!   energy/pulse accounting rides along in the same order.
//!
//! Both range queries — the PoIs a worker senses and the stations it can
//! charge at — go through a static [`CellIndex`], so their cost is
//! O(local density) instead of O(P) or O(S). The index applies the exact
//! distance predicate to positions copied in cell order and emits in-range
//! PoI ids in ascending order, so both the drain *set* and the
//! floating-point accumulation *order* match a full PoI scan bit for bit;
//! the station choice takes the lowest in-range free index, as a full
//! station scan does. A static per-cell flag (`StationReach`) answers
//! "no station can reach this cell" before the station query, and can only
//! over-report, so charge checks stay exact.
//!
//! The action masks ([`FleetState::action_masks`]) run one branch-free
//! body per worker, `FleetState::move_mask_into`, which also serves
//! `valid_moves`; the charge lane is `can_charge`.

use crate::action::{Move, WorkerAction, NUM_MOVES};
use crate::config::EnvConfig;
use crate::entities::{ChargingStation, Poi, Worker};
use crate::geometry::{Point, Rect};
use vc_nn::arena;

/// Worker occupied the slot with a (possibly stalled) move.
const MODE_MOVE: u8 = 0;
/// Worker requested charging (legal even when exhausted).
const MODE_CHARGE: u8 = 1;
/// Worker is out of energy and stalls.
const MODE_EXHAUSTED: u8 = 2;

// ---- spatial index --------------------------------------------------------

/// Static uniform-cell spatial index over fixed positions (PoIs or charging
/// stations), CSR layout, built once per [`FleetState::load`].
///
/// Each entry's position is copied next to its id in cell order, so a query
/// walks one contiguous run of `(x, y, id)` entries per cell row and never
/// touches the entity columns. Correctness never depends on the cell size:
/// a query visits every cell overlapping a box a little wider than
/// `[x±r, y±r]`, so its candidates are a superset of the entries the exact
/// predicate admits, and the caller applies that predicate to the copied
/// positions — the same values a full scan reads.
#[derive(Clone, Debug, Default)]
pub(crate) struct CellIndex {
    nx: usize,
    ny: usize,
    cell: f32,
    /// CSR run starts, `nx*ny + 1` entries: cell `c` holds entries
    /// `start[c]..start[c + 1]`.
    start: Vec<u32>,
    /// The entries in cell order; ids ascend within each cell.
    entries: Vec<Entry>,
}

/// One indexed position and the id of the entity standing there.
#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    x: f32,
    y: f32,
    id: u32,
}

impl Entry {
    fn pos(&self) -> Point {
        Point::new(self.x, self.y)
    }
}

impl CellIndex {
    /// The cell holding `(x, y)`, clamped into the grid (negative and NaN
    /// coordinates land in the first cell, coordinates past the map in the
    /// last). Monotone in each coordinate, so the clamped cell of a point in
    /// a box lies within the clamped cells of the box corners.
    fn cell_of(&self, x: f32, y: f32) -> (usize, usize) {
        let cx = ((x / self.cell) as usize).min(self.nx - 1);
        let cy = ((y / self.cell) as usize).min(self.ny - 1);
        (cx, cy)
    }

    /// Rebuilds the index over the positions `(xs[i], ys[i])` of a
    /// `size_x × size_y` map with square cells of edge `cell`.
    fn build(&mut self, cell: f32, size_x: f32, size_y: f32, xs: &[f32], ys: &[f32]) {
        self.cell = cell.max(1e-6);
        self.nx = ((size_x / self.cell).ceil() as usize).max(1);
        self.ny = ((size_y / self.cell).ceil() as usize).max(1);
        let cells = self.nx * self.ny;
        let flat: Vec<usize> = xs
            .iter()
            .zip(ys)
            .map(|(&x, &y)| {
                let (cx, cy) = self.cell_of(x, y);
                cy * self.nx + cx
            })
            .collect();
        // Counting sort: tally, prefix-sum, then scatter in ascending id
        // order so each cell's run stays id-sorted.
        self.start.clear();
        self.start.resize(cells + 1, 0);
        for &c in &flat {
            self.start[c + 1] += 1;
        }
        for c in 0..cells {
            self.start[c + 1] += self.start[c];
        }
        let mut cursor = self.start.clone();
        self.entries.clear();
        self.entries.resize(flat.len(), Entry::default());
        for (i, &c) in flat.iter().enumerate() {
            let k = cursor[c] as usize;
            cursor[c] += 1;
            self.entries[k] = Entry { x: xs[i], y: ys[i], id: i as u32 };
        }
    }

    /// The entries whose cell overlaps the query box around `q`, as one
    /// contiguous run per cell row: a superset of the entries within `r`
    /// of `q`, in no global id order.
    #[inline]
    fn runs(&self, q: Point, r: f32) -> impl Iterator<Item = &[Entry]> + '_ {
        // A few ulps past `r`: rounding inside `dist` can admit an entry
        // whose true offset exceeds `r` by a few ulps, and rounding in
        // `q ± reach` must not cut such an entry's cell off either.
        let reach = r + (r + q.x.abs() + q.y.abs()) * (8.0 * f32::EPSILON);
        let (cx0, cy0) = self.cell_of(q.x - reach, q.y - reach);
        let (cx1, cy1) = self.cell_of(q.x + reach, q.y + reach);
        (cy0..=cy1).map(move |cy| {
            let row = cy * self.nx;
            &self.entries[self.start[row + cx0] as usize..self.start[row + cx1 + 1] as usize]
        })
    }

    /// Appends the id of every entry with `pos.dist(q) <= r` — the exact
    /// predicate of a full scan — to `out`, in ascending id order.
    pub(crate) fn in_range_into(&self, q: Point, r: f32, out: &mut Vec<usize>) {
        let base = out.len();
        for run in self.runs(q, r) {
            for e in run {
                if e.pos().dist(&q) <= r {
                    out.push(e.id as usize);
                }
            }
        }
        out[base..].sort_unstable();
    }
}

/// Static per-cell flags over the map: a cell is flagged when some
/// station's range, widened by the ulps slack of [`CellIndex::runs`],
/// touches the cell's box. Built once per [`FleetState::load`].
///
/// A point maps to cell `(⌊x/cell⌋, ⌊y/cell⌋)` with no clamping; negative,
/// NaN and past-the-grid positions have no cell and take the exact query.
/// The slack covers both the rounding of `x / cell` and that of
/// `ChargingStation::in_range`'s `dist`, so a station that admits a point
/// always flags the point's cell: the flag can only over-report.
#[derive(Clone, Debug, Default)]
struct StationReach {
    nx: usize,
    ny: usize,
    cell: f32,
    /// `nx * ny` flags, row-major.
    flag: Vec<bool>,
}

impl StationReach {
    /// Rebuilds the flags of a `size_x × size_y` map with square cells of
    /// edge `cell`, visiting only the cells around each station.
    fn build(&mut self, cell: f32, size_x: f32, size_y: f32, stations: &[ChargingStation]) {
        self.cell = cell.max(1e-6);
        self.nx = ((size_x / self.cell).ceil() as usize).max(1);
        self.ny = ((size_y / self.cell).ceil() as usize).max(1);
        self.flag.clear();
        self.flag.resize(self.nx * self.ny, false);
        let c = f64::from(self.cell);
        // The largest `|x| + |y|` of a point that has a cell.
        let corner = (self.nx + self.ny) as f64 * c;
        for s in stations {
            let (px, py, r) = (f64::from(s.pos.x), f64::from(s.pos.y), f64::from(s.range));
            let reach = r + (r + corner + px.abs() + py.abs()) * (8.0 * f64::from(f32::EPSILON));
            // The cells the box `p ± reach` overlaps, one cell wider on each
            // side against rounding; the distance test below decides.
            let cells = |p: f64, n: usize| {
                let lo = (((p - reach) / c) as usize).saturating_sub(1).min(n - 1);
                let hi = (((p + reach) / c) as usize).saturating_add(1).min(n - 1);
                lo..=hi
            };
            // Distance from `p` to the interval `[k·c, (k+1)·c]` (0 inside;
            // NaN for a NaN station, which flags nothing).
            let gap = |p: f64, k: usize| (k as f64 * c - p).max(p - (k + 1) as f64 * c).max(0.0);
            for cy in cells(py, self.ny) {
                let gy = gap(py, cy);
                for cx in cells(px, self.nx) {
                    let gx = gap(px, cx);
                    if (gx * gx + gy * gy).sqrt() <= reach {
                        self.flag[cy * self.nx + cx] = true;
                    }
                }
            }
        }
    }

    /// False only when no station can have `pos` in range.
    #[inline]
    fn may_reach(&self, pos: Point) -> bool {
        if pos.x >= 0.0 && pos.y >= 0.0 {
            let (cx, cy) = ((pos.x / self.cell) as usize, (pos.y / self.cell) as usize);
            if cx < self.nx && cy < self.ny {
                return self.flag[cy * self.nx + cx];
            }
        }
        true
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
    /// Cell index over the PoI positions, queried with the sensing range.
    pub(crate) poi_index: CellIndex,
    /// Cell index over the station positions, queried with
    /// [`Self::station_reach`] and filtered by each station's own range.
    station_index: CellIndex,
    /// The largest station range.
    station_reach: f32,
    /// Which cells some station's range can touch.
    reach: StationReach,
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
        // PoI cells as wide as the sensing range (a query spans ~3×3 cells),
        // floored so huge maps keep a bounded cell count.
        let span = cfg.size_x.max(cfg.size_y);
        let poi_cell = cfg.sensing_range.max(span / 256.0);
        self.poi_index.build(poi_cell, cfg.size_x, cfg.size_y, &self.poi_x, &self.poi_y);
        // Station cells are at least as wide as the largest range and hold
        // about one station each: stations are few, so a sparse grid buys
        // nothing.
        self.station_reach = stations.iter().map(|s| s.range).fold(0.0, f32::max);
        let per_station = (cfg.size_x * cfg.size_y / stations.len().max(1) as f32).sqrt();
        let station_cell = self.station_reach.max(span / 256.0).max(per_station);
        let (sx, sy): (Vec<f32>, Vec<f32>) = stations.iter().map(|s| (s.pos.x, s.pos.y)).unzip();
        self.station_index.build(station_cell, cfg.size_x, cfg.size_y, &sx, &sy);
        // Flag cells as wide as the largest range, floored like the PoI
        // cells: a station flags about 3×3 of them.
        self.reach.build(self.station_reach.max(span / 256.0), cfg.size_x, cfg.size_y, stations);
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
            dx: Move::ALL.map(|m| m.displacement(cfg.max_step).0),
            dy: Move::ALL.map(|m| m.displacement(cfg.max_step).1),
            obstacles: cfg.obstacles.clone(),
        };
    }

    /// Fills every worker's action masks in one pass: `moves` (`[W·9]`,
    /// worker-major, lanes in [`Move::ALL`] order) marks the moves
    /// [`crate::env::CrowdsensingEnv::valid_moves`] allows, and `charge`
    /// (`[W]`) the workers [`crate::env::CrowdsensingEnv::can_charge`]
    /// admits — both are single-worker calls of the same kernels.
    ///
    /// # Panics
    ///
    /// If a mask length disagrees with the fleet size.
    pub fn action_masks(&self, moves: &mut [bool], charge: &mut [bool]) {
        let w = self.num_workers();
        assert_eq!(moves.len(), w * NUM_MOVES, "move mask must be [W·9]");
        assert_eq!(charge.len(), w, "charge mask must be [W]");
        for (wi, (mv, ch)) in moves.chunks_exact_mut(NUM_MOVES).zip(charge).enumerate() {
            self.move_mask_into(wi, mv);
            *ch = self.can_charge(wi);
        }
    }

    /// Worker `wi`'s move mask into `out` (`[9]`, [`Move::ALL`] order):
    /// `Stay` is always legal, any other move exactly when `peek_move`
    /// would return a target.
    ///
    /// One branch-free body computes every lane: the target `x + dx`, its
    /// travel cost `beta·sqrt(..)` (IEEE `sqrt`, so vector lanes round like
    /// the scalar `Point::dist`), the in-map test, `!(cost > energy)` and
    /// the exhausted test `energy <= 0`, then one `&&` per obstacle, a loop
    /// that runs zero times on an obstacle-free map. The tests are pure, so
    /// evaluating all of them gives `peek_move`'s answer, NaN cases
    /// included: a NaN comparison rejects nothing.
    #[inline]
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // the negations keep NaN legal
    pub(crate) fn move_mask_into(&self, wi: usize, out: &mut [bool]) {
        let m = &self.motion;
        let (x, y, energy) = (self.x[wi], self.y[wi], self.energy[wi]);
        let live = !(energy <= 0.0);
        let tx = m.dx.map(|dx| x + dx);
        let ty = m.dy.map(|dy| y + dy);
        let mut ok = [false; NUM_MOVES];
        for ((ok, &tx), &ty) in ok.iter_mut().zip(&tx).zip(&ty) {
            let (ex, ey) = (x - tx, y - ty);
            let cost = m.beta * (ex * ex + ey * ey).sqrt();
            let outside = (tx < 0.0) | (tx > m.size_x) | (ty < 0.0) | (ty > m.size_y);
            *ok = live & !outside & !(cost > energy);
        }
        let from = Point::new(x, y);
        for r in &m.obstacles {
            for ((ok, &tx), &ty) in ok.iter_mut().zip(&tx).zip(&ty) {
                *ok = *ok && !r.intersects_segment(&from, &Point::new(tx, ty));
            }
        }
        ok[Move::Stay.index()] = true;
        out.copy_from_slice(&ok);
    }

    /// Whether worker `wi` stands within range of any charging station.
    #[inline]
    pub(crate) fn can_charge(&self, wi: usize) -> bool {
        let pos = Point::new(self.x[wi], self.y[wi]);
        self.reach.may_reach(pos)
            && self
                .station_index
                .runs(pos, self.station_reach)
                .flatten()
                .any(|e| self.stations[e.id as usize].in_range(&pos))
    }

    /// The lowest-index station that is not `busy` and has `pos` in range.
    #[inline]
    fn free_station(&self, pos: Point, busy: &[bool]) -> Option<usize> {
        if !self.reach.may_reach(pos) {
            return None;
        }
        self.station_index
            .runs(pos, self.station_reach)
            .flatten()
            .map(|e| e.id as usize)
            .filter(|&si| !busy[si] && self.stations[si].in_range(&pos))
            .min()
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
    /// In-range PoI ids of the worker currently draining, ascending.
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

/// The static inputs of phase A and the move masks: map bounds, travel
/// cost, every move's displacement and the obstacles.
#[derive(Clone, Debug, Default)]
pub(crate) struct Motion {
    size_x: f32,
    size_y: f32,
    beta: f32,
    /// Each move's displacement, in [`Move::ALL`] order.
    dx: [f32; NUM_MOVES],
    dy: [f32; NUM_MOVES],
    obstacles: Vec<Rect>,
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
    /// and the tentative end position. Pure in its inputs.
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
        let (dx, dy) = (self.dx[mv.index()], self.dy[mv.index()]);
        let target = start.offset(dx, dy);
        let legal = mv == Move::Stay
            || (self.path_clear(&start, &target) && self.beta * start.dist(&target) <= energy);
        let (end, collided) = if legal { (target, false) } else { (start, true) };
        let traveled = start.dist(&end);
        (MODE_MOVE, collided, end.x, end.y, traveled)
    }
}

/// Runs phase A: the sequential columnar loop over the workers.
fn phase_a(fleet: &FleetState, scr: &mut FleetScratch, actions: &[WorkerAction]) {
    for (i, a) in actions.iter().enumerate() {
        let (mode, collided, ex, ey, tr) =
            fleet.motion.worker(fleet.x[i], fleet.y[i], fleet.energy[i], a.movement, a.charge);
        scr.end_x[i] = ex;
        scr.end_y[i] = ey;
        scr.traveled[i] = tr;
        scr.mode[i] = mode;
        scr.collided[i] = u8::from(collided);
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
                if let Some(si) = fleet.free_station(pos, &scr.station_busy) {
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

                // Drain in ascending PoI index order, the order of a full
                // scan, so the floating-point sum is bit-identical to it.
                let mut q = 0.0;
                scr.cand.clear();
                fleet.poi_index.in_range_into(end, g, &mut scr.cand);
                for &pi in &scr.cand {
                    // `Poi::collect` on columns.
                    let amount = (lambda * fleet.poi_initial[pi]).min(fleet.poi_data[pi]);
                    if amount > 0.0 {
                        fleet.poi_data[pi] -= amount;
                        fleet.poi_access[pi] += 1;
                    }
                    q += amount;
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

    /// The ids a full scan admits, ascending.
    fn full_scan(xs: &[f32], ys: &[f32], q: Point, r: f32) -> Vec<usize> {
        (0..xs.len()).filter(|&i| Point::new(xs[i], ys[i]).dist(&q) <= r).collect()
    }

    fn index(cell: f32, size: f32, xs: &[f32], ys: &[f32]) -> CellIndex {
        let mut idx = CellIndex::default();
        idx.build(cell, size, size, xs, ys);
        idx
    }

    /// A PoI-grid query returns exactly a full scan's in-range ids, in
    /// ascending order.
    #[test]
    fn poi_grid_candidates_cover_in_range_set() {
        let cfg = EnvConfig::paper_default();
        let xs: Vec<f32> = (0..200).map(|i| (i as f32 * 0.53) % cfg.size_x).collect();
        let ys: Vec<f32> = (0..200).map(|i| (i as f32 * 0.91) % cfg.size_y).collect();
        let g = cfg.sensing_range;
        let idx = index(g, cfg.size_x, &xs, &ys);
        for (qx, qy) in [(0.0, 0.0), (8.0, 8.0), (15.9, 0.1), (3.3, 12.7), (-1.0, 17.0)] {
            let q = Point::new(qx, qy);
            let mut got = Vec::new();
            idx.in_range_into(q, g, &mut got);
            assert_eq!(got, full_scan(&xs, &ys, q, g), "query ({qx},{qy})");
        }
    }

    #[test]
    fn entries_on_cell_boundaries_and_the_far_map_edge_are_found() {
        // Cells of edge 1 on a 4×4 map: every entry sits on a cell boundary,
        // and the last column/row sits exactly at `size`, which clamps into
        // the last cell.
        let (size, cell) = (4.0f32, 1.0f32);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for y in 0..=4 {
            for x in 0..=4 {
                xs.push(x as f32);
                ys.push(y as f32);
            }
        }
        let idx = index(cell, size, &xs, &ys);
        for (qx, qy, r) in
            [(4.0, 4.0, 1.0), (4.0, 0.0, 1.0), (2.0, 2.0, 1.0), (3.0, 1.0, 0.0), (0.5, 4.0, 0.5)]
        {
            let q = Point::new(qx, qy);
            let mut got = Vec::new();
            idx.in_range_into(q, r, &mut got);
            let want = full_scan(&xs, &ys, q, r);
            assert!(!want.is_empty(), "query ({qx},{qy}) r={r} must hit a lattice point");
            assert_eq!(got, want, "query ({qx},{qy}) r={r}");
        }
    }

    /// Each cell's run is id-sorted and carries its entries' positions.
    #[test]
    fn poi_grid_cell_runs_are_index_sorted() {
        let xs = [1.0, 1.1, 7.0, 1.05, 0.9];
        let ys = [1.0, 1.1, 7.0, 1.05, 0.9];
        let idx = index(0.8, 8.0, &xs, &ys);
        for c in 0..idx.nx * idx.ny {
            let run = &idx.entries[idx.start[c] as usize..idx.start[c + 1] as usize];
            assert!(run.windows(2).all(|p| p[0].id < p[1].id), "cell {c} not sorted: {run:?}");
            for e in run {
                assert_eq!((e.x, e.y), (xs[e.id as usize], ys[e.id as usize]));
            }
        }
    }

    #[test]
    fn station_reach_flags_cover_points_that_rounding_admits() {
        // Cells of edge 1. The point sits on the corner of its cell nearest
        // each station, and each station's range is the rounded distance,
        // so `in_range` admits the point; where the true distance exceeds
        // the range, the exact disk misses the point's cell and only the
        // slack flags it.
        let p = Point::new(2.0, 2.0);
        let mut rounded_in = 0;
        for i in 0..400 {
            let s = Point::new(1.7 - i as f32 * 1.3e-3, 1.6 - i as f32 * 0.7e-3);
            let station = ChargingStation::new(s, s.dist(&p));
            assert!(station.in_range(&p));
            let exact = (f64::from(s.x) - 2.0).hypot(f64::from(s.y) - 2.0);
            rounded_in += usize::from(exact > f64::from(station.range));
            let mut reach = StationReach::default();
            reach.build(1.0, 4.0, 4.0, &[station]);
            assert!(reach.may_reach(p), "station {i} at {s:?} admits {p:?} but no flag");
            // The far cells stay clear, so the flag rules something out.
            assert!(!reach.may_reach(Point::new(3.5, 3.5)));
        }
        assert!(rounded_in > 0, "no station exercised the rounding case");
    }

    #[test]
    fn unequal_station_ranges_still_pick_the_lowest_free_index() {
        // Station 0 reaches far, station 1 sits on the worker with a short
        // range, station 2 is out of reach: the index is queried with the
        // largest range and filtered per station.
        let mut cfg = EnvConfig::tiny();
        cfg.num_pois = 0;
        let stations = [
            ChargingStation::new(Point::new(1.0, 1.0), 5.0),
            ChargingStation::new(Point::new(4.0, 4.0), 0.2),
            ChargingStation::new(Point::new(7.5, 0.5), 0.3),
        ];
        let workers = [Worker::new(Point::new(4.0, 4.1), 40.0)];
        let mut fleet = FleetState::default();
        fleet.load(&cfg, &workers, &[], &stations);
        let pos = Point::new(4.0, 4.1);
        assert!(fleet.can_charge(0));
        assert_eq!(fleet.free_station(pos, &[false, false, false]), Some(0));
        assert_eq!(fleet.free_station(pos, &[true, false, false]), Some(1));
        assert_eq!(fleet.free_station(pos, &[true, true, false]), None);
        // Only the short-range station covers this spot.
        let far = Point::new(7.4, 0.6);
        assert_eq!(fleet.free_station(far, &[false, false, false]), Some(2));
        assert_eq!(fleet.free_station(far, &[false, false, true]), None);
    }
}
