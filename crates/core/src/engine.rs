//! Query-scale spectra synthesis: a precomputed localization engine
//! (paper §2.5, engineered for many queries per deployment).
//!
//! [`crate::synthesis::localize`] evaluates `L(x) = Π Pᵢ(θᵢ(x))` at every
//! cell of the ~10 cm search grid for every query — an `atan2` plus a
//! spectrum interpolation per (cell, AP), ~7·10⁵ of them for the paper's
//! office. But `θᵢ(x)` depends only on the deployment geometry (AP poses,
//! region, pitch), never on the query. [`LocalizationEngine`] hoists all of
//! that out of the query path:
//!
//! - **Bearing grids** — for each AP, the spectrum-bin index of every grid
//!   cell's bearing, quantized once to a `u16` (error ≤ half a bin). A
//!   query turns the inner loop into table lookups.
//! - **Log-domain accumulation** — each query builds one small per-AP LUT
//!   `ln(max(P[bin], floor))`, so the likelihood product becomes a sum and
//!   the floor is applied in log space, once per bin instead of per cell.
//! - **Coarse-to-fine search** — the grid is tiled into ~50 cm blocks; for
//!   each block the engine precomputes the (circular) interval of spectrum
//!   bins its cells subtend per AP, dilated by one bin so the interval max
//!   also bounds the *interpolated* likelihood anywhere in the block.
//!   Each query builds a circular sparse range-max table per LUT
//!   (⌊log₂ bins⌋ + 1 levels), so a block's per-AP bound costs two
//!   lookups instead of a scan over its interval; `max` is exact, so the
//!   bounds are bit-identical to that scan.
//! - **A total visit order** — blocks pop lazily from a binary heap in
//!   (bound descending, block index ascending) order, and cells rank by
//!   (quantized score descending, cell index ascending). The search stops
//!   once the best unvisited bound falls strictly below the worst kept
//!   cell, so a block that could hold a tied cell is still opened. A
//!   cell's score sums the same per-AP terms in the same order as its
//!   block's bound, each no larger, and rounded addition is monotone, so
//!   the kept cells are exactly the exhaustive scan's top cells under
//!   that order: the answer depends on the data alone, not on how a sort
//!   breaks ties. The branch-and-bound inspects a few percent of the grid.
//!
//! The selected top cells are re-evaluated with the *exact* interpolated
//! likelihood and refined with the same hill climb as the legacy path, so
//! engine and legacy results agree to sub-millimeter (the
//! `engine_parity` proptest pins this down). The legacy `heatmap` /
//! `localize` functions remain as the straight-line reference
//! implementation.
//!
//! Memory: one `u16` per cell per AP — ≈ 1.4 MB for six APs over the
//! 41 m × 23 m office at 10 cm — plus four bytes per 50 cm block per AP.
//! The caches depend only on (poses, region, bins): rebuild on deployment
//! change, never per query. A query's scratch adds one range-max table,
//! ≈ 58 KB at 720 bins, refilled for each observation in turn.

use crate::parallel::{available_threads, parallel_map};
use crate::spectrum::AoaSpectrum;
use crate::synthesis::{
    hill_climb, likelihood, ApObservation, ApPose, Heatmap, LocationEstimate, SearchRegion,
    LIKELIHOOD_FLOOR,
};
use at_channel::geometry::Point;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::f64::consts::TAU;
use std::sync::{Arc, Mutex, OnceLock};

/// Coarse block edge length the engine targets, meters.
const COARSE_BLOCK_M: f64 = 0.5;

/// Fine cells carried from the coarse-to-fine search into exact
/// re-evaluation (a superset of the 3 hill-climb starts, so the exact
/// top-3 ordering is robust to the ≤ half-bin quantization of the grid).
const CANDIDATE_CELLS: usize = 8;

/// Hill-climb starts (paper §2.5: "the three highest-likelihood cells").
const HILL_CLIMB_STARTS: usize = 3;

/// Entries the process-wide per-AP grid cache retains before it is
/// cleared wholesale (a topology churning through hundreds of poses must
/// not hold every historical grid forever).
const GRID_CACHE_CAP: usize = 512;

/// One AP's precomputed bearing caches: the fine per-cell bin grid and
/// the dilated coarse block intervals. Depends only on
/// `(pose, region, bins)` — never on the epoch or the rest of the
/// topology — which is what makes it shareable across epochs.
#[derive(Debug)]
struct ApGrid {
    fine: Vec<u16>,
    blocks: Vec<(u16, u16)>,
}

/// Cache key: the exact bit patterns of everything an AP's grid depends
/// on. Bit-level equality (not float equality) so a cache hit is
/// guaranteed byte-identical to a recompute.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct GridKey {
    pose: [u64; 3],
    region: [u64; 5],
    bins: usize,
}

impl GridKey {
    fn new(pose: &ApPose, region: &SearchRegion, bins: usize) -> Self {
        Self {
            pose: [
                pose.center.x.to_bits(),
                pose.center.y.to_bits(),
                pose.axis_angle.to_bits(),
            ],
            region: [
                region.min.x.to_bits(),
                region.min.y.to_bits(),
                region.max.x.to_bits(),
                region.max.y.to_bits(),
                region.resolution.to_bits(),
            ],
            bins,
        }
    }
}

static GRID_CACHE: OnceLock<Mutex<HashMap<GridKey, Arc<ApGrid>>>> = OnceLock::new();

/// `(hits, misses)` of the grid cache per key since process start.
#[cfg(test)]
static GRID_CACHE_COUNTS: OnceLock<Mutex<HashMap<GridKey, (u64, u64)>>> = OnceLock::new();

#[cfg(test)]
fn count_grid_lookup(key: GridKey, hit: bool) {
    let mut counts = GRID_CACHE_COUNTS
        .get_or_init(Default::default)
        .lock()
        .expect("grid cache counts lock");
    let (hits, misses) = counts.entry(key).or_default();
    *if hit { hits } else { misses } += 1;
}

/// `(hits, misses)` of the grid cache for one AP's grid since process
/// start. An epoch rebuild that keeps an AP unchanged shows up as one hit
/// on its key. Counted per key because other tests build engines on
/// parallel threads: process-wide deltas would count their lookups too.
#[cfg(test)]
fn grid_cache_stats(pose: &ApPose, region: SearchRegion, bins: usize) -> (u64, u64) {
    let key = GridKey::new(pose, &region, bins);
    GRID_CACHE_COUNTS
        .get_or_init(Default::default)
        .lock()
        .expect("grid cache counts lock")
        .get(&key)
        .copied()
        .unwrap_or_default()
}

/// Looks up (or computes and caches) one AP's grid. The computation is a
/// pure function of the key, so concurrent misses for the same key are
/// benign — last insert wins with an identical value.
fn ap_grid(pose: &ApPose, region: SearchRegion, bins: usize) -> Arc<ApGrid> {
    let key = GridKey::new(pose, &region, bins);
    let cache = GRID_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache.lock().expect("grid cache lock").get(&key) {
        #[cfg(test)]
        count_grid_lookup(key, true);
        return Arc::clone(hit);
    }
    #[cfg(test)]
    count_grid_lookup(key, false);
    let grid = Arc::new(build_ap_grid(pose, region, bins));
    let mut map = cache.lock().expect("grid cache lock");
    if map.len() >= GRID_CACHE_CAP {
        map.clear();
    }
    map.insert(key, Arc::clone(&grid));
    grid
}

/// Computes one AP's fine bearing grid (rows in parallel) and its coarse
/// block intervals.
fn build_ap_grid(pose: &ApPose, region: SearchRegion, bins: usize) -> ApGrid {
    let (nx, ny) = region.grid_size();
    let stride = coarse_stride(&region);
    let bx = nx.div_ceil(stride);
    let by = ny.div_ceil(stride);
    let rows: Vec<usize> = (0..ny).collect();
    let fine: Vec<u16> = parallel_map(&rows, available_threads(), |_, &iy| {
        (0..nx)
            .map(|ix| {
                let theta = pose.bearing_to(region.cell_center(ix, iy));
                (((theta / TAU) * bins as f64).round() as usize % bins) as u16
            })
            .collect::<Vec<u16>>()
    })
    .concat();
    let mut blocks: Vec<(u16, u16)> = Vec::with_capacity(bx * by);
    for byi in 0..by {
        for bxi in 0..bx {
            let mut cell_bins = Vec::with_capacity(stride * stride);
            for iy in (byi * stride)..((byi + 1) * stride).min(ny) {
                for ix in (bxi * stride)..((bxi + 1) * stride).min(nx) {
                    cell_bins.push(fine[iy * nx + ix]);
                }
            }
            blocks.push(circular_cover(&mut cell_bins, bins));
        }
    }
    ApGrid { fine, blocks }
}

fn coarse_stride(region: &SearchRegion) -> usize {
    ((COARSE_BLOCK_M / region.resolution).round() as usize).clamp(1, 256)
}

/// A coarse block or a fine cell with its quantized log-likelihood score
/// (a block's is its upper bound). The order is total, so the search's
/// answer depends on the data alone: a higher score ranks higher, and
/// among equal scores the lower index does.
#[derive(Clone, Copy, Debug)]
struct Ranked {
    score: f64,
    index: usize,
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then(other.index.cmp(&self.index))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

/// Gauge name: heap bytes retained by localize scratch arenas (set when an
/// arena grows; steady-state queries never touch it).
pub(crate) const SCRATCH_BYTES_GAUGE: &str = "at_localize_scratch_bytes";

/// Counter name: scratch arena growth events. Zero growth per interval
/// means the warm path is allocation-free.
pub(crate) const SCRATCH_GROW_COUNTER: &str = "at_localize_scratch_grow_total";

/// A reusable per-worker workspace for engine queries.
///
/// Everything a query needs to allocate — normalized spectrum copies for
/// exact re-evaluation, flat log-likelihood LUTs, a range-max table,
/// block bounds, the best-first block heap, the kept cells, and the
/// planar row accumulator — lives here and is recycled between queries.
/// After the first query of a given shape (observation count × spectrum
/// bins), a repeat query performs **zero** heap allocations (the
/// `zero_alloc` integration test pins this down with a counting
/// allocator).
///
/// Ownership model: one scratch per *thread of execution*. Engine entry
/// points that don't take a scratch borrow a thread-local default, so
/// every caller gets recycling for free; each at-serve fusion worker
/// passes its own arena through `fuse_with_scratch`. A scratch is bound
/// to no particular engine — it adapts to whatever engine/query shape it
/// is used with, growing monotonically to the largest shape seen.
#[derive(Clone, Debug, Default)]
pub struct LocalizeScratch {
    /// Normalized owned observations for exact re-evaluation / hill climb
    /// (slot `i` is recycled in place; only the first `n` are live).
    exact: Vec<ApObservation>,
    /// Flat per-observation log-likelihood LUTs, `n × bins` row-major.
    luts: Vec<f64>,
    /// AP index of each LUT row.
    lut_aps: Vec<usize>,
    /// The circular range-max table of the LUT row being bounded,
    /// `levels × bins` (see [`fill_range_max`]).
    sparse: Vec<f64>,
    /// Per coarse block: accumulated likelihood upper bound.
    bounds: Vec<f64>,
    /// Unvisited blocks by bound, best first.
    heap: BinaryHeap<Ranked>,
    /// Current top cells by quantized score, ascending (worst first).
    top: Vec<Ranked>,
    /// Exact re-evaluated candidates, descending by likelihood.
    cells: Vec<(Point, f64)>,
    /// One block row of AP-major planar accumulation.
    row_acc: Vec<f64>,
    /// Footprint last published to the scratch gauge.
    reported: usize,
}

impl LocalizeScratch {
    /// An empty workspace; buffers are grown on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes currently retained by the workspace's buffers.
    pub(crate) fn footprint_bytes(&self) -> usize {
        let spectra: usize = self
            .exact
            .iter()
            .map(|o| o.spectrum.bins() * std::mem::size_of::<f64>())
            .sum();
        spectra
            + self.exact.capacity() * std::mem::size_of::<ApObservation>()
            + self.luts.capacity() * std::mem::size_of::<f64>()
            + self.lut_aps.capacity() * std::mem::size_of::<usize>()
            + self.sparse.capacity() * std::mem::size_of::<f64>()
            + self.bounds.capacity() * std::mem::size_of::<f64>()
            + self.heap.capacity() * std::mem::size_of::<Ranked>()
            + self.top.capacity() * std::mem::size_of::<Ranked>()
            + self.cells.capacity() * std::mem::size_of::<(Point, f64)>()
            + self.row_acc.capacity() * std::mem::size_of::<f64>()
    }

    /// The most recent query's exact candidates, descending by likelihood.
    fn candidates(&self) -> &[(Point, f64)] {
        &self.cells
    }

    /// Publishes the footprint gauge when (and only when) the arena grew —
    /// the steady state compares two integers and does nothing else.
    fn note_growth(&mut self) {
        let bytes = self.footprint_bytes();
        if bytes != self.reported {
            self.reported = bytes;
            at_obs::metrics::global()
                .gauge(SCRATCH_BYTES_GAUGE, &[])
                .set(bytes as f64);
            at_obs::count!(SCRATCH_GROW_COUNTER);
        }
    }
}

thread_local! {
    /// The default workspace engine entry points use when the caller
    /// doesn't pass one: per-thread, so the public API stays
    /// allocation-free after warm-up without threading scratch through
    /// every call site.
    static DEFAULT_SCRATCH: RefCell<LocalizeScratch> = RefCell::new(LocalizeScratch::new());
}

/// Runs `f` with the calling thread's default scratch. Falls back to a
/// fresh workspace if the thread-local is already borrowed (re-entrant
/// use through a callback).
pub(crate) fn with_default_scratch<R>(f: impl FnOnce(&mut LocalizeScratch) -> R) -> R {
    DEFAULT_SCRATCH.with(|s| match s.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut LocalizeScratch::new()),
    })
}

/// A reusable, deployment-bound localization engine.
///
/// Build once per (AP poses, search region, spectrum resolution) with
/// [`LocalizationEngine::new`], then call [`LocalizationEngine::localize`]
/// for every query — any client, any subset of the deployment's APs.
#[derive(Clone, Debug)]
pub struct LocalizationEngine {
    region: SearchRegion,
    poses: Vec<ApPose>,
    bins: usize,
    nx: usize,
    ny: usize,
    /// Coarse tiling: block edge in cells, and block-grid dimensions.
    stride: usize,
    bx: usize,
    by: usize,
    /// Spectrum-bin index of each cell's bearing: one contiguous AP-major
    /// slab, `fine[ap · nx·ny + iy · nx + ix]`. Row segments are
    /// contiguous, so the fusion inner loop streams them planar, AP by AP.
    fine: Vec<u16>,
    /// Dilated circular bin interval `(start, len)` covering every cell
    /// bearing of a block, AP-major: `blocks[ap · bx·by + block]`.
    blocks: Vec<(u16, u16)>,
}

impl LocalizationEngine {
    /// Precomputes the bearing caches for a deployment.
    ///
    /// `bins` is the angular resolution of the spectra that queries will
    /// carry (the pipeline default is 720).
    ///
    /// Per-AP grids are fetched from the process-wide cache keyed by the
    /// exact `(pose, region, bins)` bits, so rebuilding for a new topology
    /// epoch pays only for the APs whose pose actually changed — an add/
    /// remove/move of one AP out of `n` recomputes one grid, not `n`. Cache
    /// hits are byte-identical to recomputes, so engines for the same
    /// geometry are bit-exact regardless of what epoch path produced them.
    ///
    /// # Panics
    /// Panics if `poses` is empty or `bins` doesn't fit the `u16` grid.
    pub fn new(poses: &[ApPose], region: SearchRegion, bins: usize) -> Self {
        assert!(!poses.is_empty(), "need at least one AP pose");
        assert!(
            (8..=u16::MAX as usize + 1).contains(&bins),
            "bins out of range"
        );
        let (nx, ny) = region.grid_size();
        let stride = coarse_stride(&region);
        let bx = nx.div_ceil(stride);
        let by = ny.div_ceil(stride);

        // Per-AP grids (cached or computed), concatenated into the
        // AP-major slabs the fusion inner loop streams.
        let mut fine: Vec<u16> = Vec::with_capacity(poses.len() * nx * ny);
        let mut blocks: Vec<(u16, u16)> = Vec::with_capacity(poses.len() * bx * by);
        for pose in poses {
            let grid = ap_grid(pose, region, bins);
            fine.extend_from_slice(&grid.fine);
            blocks.extend_from_slice(&grid.blocks);
        }

        Self {
            region,
            poses: poses.to_vec(),
            bins,
            nx,
            ny,
            stride,
            bx,
            by,
            fine,
            blocks,
        }
    }

    /// The AP poses the engine was built for, in index order.
    pub(crate) fn poses(&self) -> &[ApPose] {
        &self.poses
    }

    /// The spectrum resolution queries must match.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// The precomputed spectrum-bin index of cell `(ix, iy)`'s bearing from
    /// AP `ap` (diagnostic accessor; the quantization unit tests check its
    /// error stays within half a bin).
    pub fn bearing_bin(&self, ap: usize, ix: usize, iy: usize) -> usize {
        self.fine[ap * self.nx * self.ny + iy * self.nx + ix] as usize
    }

    /// Localizes a client from `(AP index, processed spectrum)` pairs — any
    /// non-empty subset of the deployment's APs.
    ///
    /// Equivalent to [`crate::synthesis::localize`] over the same
    /// observations (same top cells, same hill climb), but via the
    /// precomputed caches and coarse-to-fine search. Uses the calling
    /// thread's default [`LocalizeScratch`], so repeat queries allocate
    /// nothing; pass an explicit arena via
    /// [`Self::localize_with`] to control pooling.
    pub fn localize(&self, observations: &[(usize, &AoaSpectrum)]) -> LocationEstimate {
        with_default_scratch(|scratch| self.localize_with(observations, scratch))
    }

    /// [`Self::localize`] with a caller-owned workspace (zero heap
    /// allocations once `scratch` has warmed to the query shape).
    pub fn localize_with(
        &self,
        observations: &[(usize, &AoaSpectrum)],
        scratch: &mut LocalizeScratch,
    ) -> LocationEstimate {
        self.localize_indexed(observations.len(), &|i| observations[i], scratch)
    }

    /// The accessor-based core of [`Self::localize`]: observations are
    /// supplied as `get(i) -> (AP index, spectrum)` for `i < n`, so callers
    /// (the fusion pipeline, the serve tier) can feed borrowed spectra
    /// straight from their own storage without materializing a slice.
    ///
    /// # Panics
    /// Panics if `n == 0`, any AP index is out of range, or any spectrum's
    /// resolution differs from the engine's.
    pub(crate) fn localize_indexed<'a, F>(
        &self,
        n: usize,
        get: &F,
        scratch: &mut LocalizeScratch,
    ) -> LocationEstimate
    where
        F: Fn(usize) -> (usize, &'a AoaSpectrum),
    {
        assert!(n > 0, "need at least one AP observation");
        let _t = at_obs::time_stage!(at_obs::stages::FUSION, "aps" => n);
        self.fill_exact(n, get, scratch);
        self.search_core(n, get, HILL_CLIMB_STARTS, scratch);
        let exact = &scratch.exact[..n];
        let starts = scratch.candidates();
        let mut best = LocationEstimate {
            position: starts[0].0,
            likelihood: starts[0].1,
        };
        for &(start, _) in starts {
            let refined = hill_climb(exact, start, self.region);
            if refined.likelihood > best.likelihood {
                best = refined;
            }
        }
        scratch.note_growth();
        best
    }

    /// The `k` best grid cells for a query, by *exact* likelihood,
    /// descending — the coarse-to-fine equivalent of
    /// `heatmap(..).top_cells(k)` (the parity tests compare the two).
    pub fn top_candidates(
        &self,
        observations: &[(usize, &AoaSpectrum)],
        k: usize,
    ) -> Vec<(Point, f64)> {
        assert!(!observations.is_empty(), "need at least one AP observation");
        with_default_scratch(|scratch| {
            let get = |i: usize| observations[i];
            self.fill_exact(observations.len(), &get, scratch);
            self.search_core(observations.len(), &get, k, scratch);
            scratch.note_growth();
            scratch.candidates().to_vec()
        })
    }

    /// Fills the full fine-grid heatmap (Fig. 14's rendering data) from the
    /// bearing caches, one row per parallel work item with AP-major planar
    /// accumulation over the contiguous bin-index slabs. Values use the
    /// quantized (nearest-bin) spectra, which is what a visualization
    /// needs; the exhaustive-interpolating reference is
    /// [`crate::synthesis::heatmap`].
    pub fn heatmap(&self, observations: &[(usize, &AoaSpectrum)]) -> Heatmap {
        assert!(!observations.is_empty(), "need at least one AP observation");
        with_default_scratch(|scratch| {
            let get = |i: usize| observations[i];
            self.fill_luts(observations.len(), &get, scratch);
            let luts = &scratch.luts;
            let lut_aps = &scratch.lut_aps;
            let (bins, ncells) = (self.bins, self.nx * self.ny);
            let rows: Vec<usize> = (0..self.ny).collect();
            let values = parallel_map(&rows, available_threads(), |_, &iy| {
                let mut row = vec![0.0f64; self.nx];
                for (j, &ap) in lut_aps.iter().enumerate() {
                    let lut = &luts[j * bins..(j + 1) * bins];
                    let seg_start = ap * ncells + iy * self.nx;
                    let seg = &self.fine[seg_start..seg_start + self.nx];
                    for (acc, &bin) in row.iter_mut().zip(seg) {
                        *acc += lut[bin as usize];
                    }
                }
                for v in &mut row {
                    *v = v.exp();
                }
                row
            })
            .concat();
            Heatmap {
                region: self.region,
                values,
                nx: self.nx,
                ny: self.ny,
            }
        })
    }

    /// Recycles `scratch.exact[..n]` into normalized owned observations
    /// for exact re-evaluation / hill climb (mirrors
    /// `synthesis::normalize_observations`, reusing each slot's spectrum
    /// allocation when the resolution matches).
    fn fill_exact<'a, F>(&self, n: usize, get: &F, scratch: &mut LocalizeScratch)
    where
        F: Fn(usize) -> (usize, &'a AoaSpectrum),
    {
        for i in 0..n {
            let (ap, spectrum) = get(i);
            assert!(ap < self.poses.len(), "AP index {ap} out of range");
            assert_eq!(
                spectrum.bins(),
                self.bins,
                "spectrum resolution doesn't match the engine's bearing grids"
            );
            let pose = self.poses[ap];
            match scratch.exact.get_mut(i) {
                Some(slot) if slot.spectrum.bins() == spectrum.bins() => {
                    slot.pose = pose;
                    slot.spectrum.copy_normalized_from(spectrum);
                }
                Some(slot) => {
                    *slot = ApObservation {
                        pose,
                        spectrum: spectrum.normalized(),
                    };
                }
                None => scratch.exact.push(ApObservation {
                    pose,
                    spectrum: spectrum.normalized(),
                }),
            }
        }
    }

    /// Fills the flat per-observation log-likelihood LUTs
    /// `ln(max(P[bin]/max(P), floor))` into `scratch.luts` /
    /// `scratch.lut_aps`.
    fn fill_luts<'a, F>(&self, n: usize, get: &F, scratch: &mut LocalizeScratch)
    where
        F: Fn(usize) -> (usize, &'a AoaSpectrum),
    {
        scratch.luts.clear();
        scratch.lut_aps.clear();
        for i in 0..n {
            let (ap, spectrum) = get(i);
            assert!(ap < self.poses.len(), "AP index {ap} out of range");
            assert_eq!(
                spectrum.bins(),
                self.bins,
                "spectrum resolution doesn't match the engine's bearing grids"
            );
            let max = spectrum.max_value();
            let scale = if max > 0.0 { 1.0 / max } else { 1.0 };
            scratch.luts.extend(
                spectrum
                    .values()
                    .iter()
                    .map(|&v| (v * scale).max(LIKELIHOOD_FLOOR).ln()),
            );
            scratch.lut_aps.push(ap);
        }
    }

    /// Best-first coarse-to-fine search leaving the top-`k` cells by exact
    /// likelihood, descending, in `scratch.cells`. Requires
    /// [`Self::fill_exact`] to have populated `scratch.exact[..n]`.
    fn search_core<'a, F>(&self, n: usize, get: &F, k: usize, scratch: &mut LocalizeScratch)
    where
        F: Fn(usize) -> (usize, &'a AoaSpectrum),
    {
        self.fill_luts(n, get, scratch);
        let keep = CANDIDATE_CELLS.max(k).min(self.nx * self.ny);
        let (bins, ncells, nblocks) = (self.bins, self.nx * self.ny, self.bx * self.by);
        let LocalizeScratch {
            exact,
            luts,
            lut_aps,
            sparse,
            bounds,
            heap,
            top,
            cells,
            row_acc,
            ..
        } = scratch;

        // Upper-bound every coarse block, AP-major: each observation adds
        // its dilated-interval max into the per-block accumulator, read in
        // O(1) from the observation's range-max table. The per-block sum
        // order is the observation order, and `max` is exact, so bounds are
        // bit-identical to a serial max over every covered bin.
        sparse.resize(range_max_levels(bins) * bins, 0.0);
        bounds.clear();
        bounds.resize(nblocks, 0.0);
        for (j, &ap) in lut_aps.iter().enumerate() {
            fill_range_max(&luts[j * bins..(j + 1) * bins], sparse);
            let intervals = &self.blocks[ap * nblocks..(ap + 1) * nblocks];
            for (acc, &(start, len)) in bounds.iter_mut().zip(intervals) {
                *acc += range_max(sparse, bins, start as usize, len as usize);
            }
        }

        // Visit blocks lazily from a heap, best first in the total order
        // (bound descending, block index ascending), so the visit never
        // depends on how a sort breaks ties. `clear` + `extend` into the
        // empty heap is one O(n) rebuild.
        heap.clear();
        heap.extend(
            bounds
                .iter()
                .enumerate()
                .map(|(b, &score)| Ranked { score, index: b }),
        );

        // Refine best-first: expand blocks into fine cells until no
        // unrefined block can hold a cell ranked above the current
        // `keep`-th. A block whose bound equals that cell's score may still
        // hold a tied cell with a lower index, so it is opened too. Each
        // block row is scored by AP-major planar accumulation over the
        // contiguous `fine` row segments (log-domain adds into one
        // cache-resident row accumulator), summing the same per-AP terms in
        // the same order as the block's bound, so no cell exceeds it.
        if row_acc.len() < self.stride {
            row_acc.resize(self.stride, 0.0);
        }
        top.clear();
        while let Some(Ranked {
            score: bound,
            index: b,
        }) = heap.pop()
        {
            if top.len() == keep && bound < top[0].score {
                break;
            }
            let (bxi, byi) = (b % self.bx, b / self.bx);
            let x0 = bxi * self.stride;
            let x1 = ((bxi + 1) * self.stride).min(self.nx);
            let y0 = byi * self.stride;
            let y1 = ((byi + 1) * self.stride).min(self.ny);
            for iy in y0..y1 {
                let acc = &mut row_acc[..x1 - x0];
                acc.fill(0.0);
                for (j, &ap) in lut_aps.iter().enumerate() {
                    let lut = &luts[j * bins..(j + 1) * bins];
                    let seg_start = ap * ncells + iy * self.nx;
                    let seg = &self.fine[seg_start + x0..seg_start + x1];
                    for (a, &bin) in acc.iter_mut().zip(seg) {
                        *a += lut[bin as usize];
                    }
                }
                for (dx, &score) in acc.iter().enumerate() {
                    let cell = Ranked {
                        score,
                        index: iy * self.nx + x0 + dx,
                    };
                    // `top` stays ascending, worst first.
                    if top.len() < keep {
                        top.push(cell);
                        let mut i = top.len() - 1;
                        while i > 0 && top[i] < top[i - 1] {
                            top.swap(i, i - 1);
                            i -= 1;
                        }
                    } else if cell > top[0] {
                        top[0] = cell;
                        let mut i = 0;
                        while i + 1 < top.len() && top[i] > top[i + 1] {
                            top.swap(i, i + 1);
                            i += 1;
                        }
                    }
                }
            }
        }

        // Exact re-evaluation of the survivors, best ranked first, then the
        // final ordering: a stable insertion sort, descending, so cells
        // whose exact likelihoods tie keep their quantized rank.
        cells.clear();
        for &Ranked { index: cell, .. } in top.iter().rev() {
            let p = self.region.cell_center(cell % self.nx, cell / self.nx);
            cells.push((p, likelihood(&exact[..n], p)));
        }
        for i in 1..cells.len() {
            let mut j = i;
            while j > 0 && cells[j].1 > cells[j - 1].1 {
                cells.swap(j, j - 1);
                j -= 1;
            }
        }
        cells.truncate(k);
    }
}

/// Levels of a circular range-max table over `bins` bins: one per power
/// of two up to `bins`, i.e. ⌊log₂ bins⌋ + 1.
fn range_max_levels(bins: usize) -> usize {
    bins.ilog2() as usize + 1
}

/// Fills `table` (`levels × bins`, row-major) with the circular sparse
/// range-max table of `lut`: `table[k·bins + i]` is the max of the `2ᵏ`
/// bins starting at `i`, wrapping past the last bin. Level 0 is the LUT
/// itself; each level folds two halves of the one below.
fn fill_range_max(lut: &[f64], table: &mut [f64]) {
    let bins = lut.len();
    table[..bins].copy_from_slice(lut);
    for k in 1..range_max_levels(bins) {
        let half = 1 << (k - 1);
        let (below, level) = table[(k - 1) * bins..(k + 1) * bins].split_at_mut(bins);
        // Two runs instead of a per-bin modulo: the second wraps.
        for ((m, &a), &b) in level
            .iter_mut()
            .zip(&below[..bins - half])
            .zip(&below[half..])
        {
            *m = a.max(b);
        }
        for ((m, &a), &b) in level[bins - half..]
            .iter_mut()
            .zip(&below[bins - half..])
            .zip(&below[..half])
        {
            *m = a.max(b);
        }
    }
}

/// The max over the circular bin interval `(start, len)` from a table
/// built by [`fill_range_max`]: the two (overlapping) power-of-two spans
/// that cover it. `-∞` for an empty interval, like a max over no bins.
fn range_max(table: &[f64], bins: usize, start: usize, len: usize) -> f64 {
    if len == 0 {
        return f64::NEG_INFINITY;
    }
    let k = len.ilog2() as usize;
    let level = &table[k * bins..(k + 1) * bins];
    let mut tail = start + len - (1 << k);
    if tail >= bins {
        tail -= bins;
    }
    level[start].max(level[tail])
}

/// The minimal circular interval (over `bins` bins) covering every value in
/// `cell_bins`, dilated by one bin on each side so the interval max also
/// bounds linear interpolation between neighboring bins. Returns
/// `(start, len)`.
fn circular_cover(cell_bins: &mut Vec<u16>, bins: usize) -> (u16, u16) {
    if cell_bins.is_empty() {
        return (0, 0);
    }
    cell_bins.sort_unstable();
    cell_bins.dedup();
    if cell_bins.len() == 1 {
        let start = (cell_bins[0] as usize + bins - 1) % bins;
        return (start as u16, 3.min(bins) as u16);
    }
    // The minimal cover is the complement of the largest circular gap
    // between consecutive occupied bins.
    let mut gap_len = 0usize;
    let mut gap_after = 0usize; // index whose successor-gap is largest
    for i in 0..cell_bins.len() {
        let a = cell_bins[i] as usize;
        let b = cell_bins[(i + 1) % cell_bins.len()] as usize;
        let g = (b + bins - a) % bins;
        if g > gap_len {
            gap_len = g;
            gap_after = i;
        }
    }
    let start = cell_bins[(gap_after + 1) % cell_bins.len()] as usize;
    let len = bins - gap_len + 1;
    // Dilate by one bin on each side, capped at the full circle.
    let start = (start + bins - 1) % bins;
    let len = (len + 2).min(bins);
    ((start % bins) as u16, len as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesis::{heatmap, localize};
    use at_channel::geometry::{angle_diff, pt, Point};
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// An epoch rebuild that keeps `k` APs pays only for the changed
    /// ones: the process-wide grid cache serves the unchanged APs, and
    /// the slabs it yields are byte-identical to a cold build. The cache
    /// is counted per key, so engines that other tests build on parallel
    /// threads cannot move the counts checked here.
    #[test]
    fn epoch_rebuild_reuses_cached_grids_bit_exactly() {
        let poses: Vec<ApPose> = (0..4)
            .map(|i| ApPose {
                center: pt(f64::from(i) * 3.0 + 100.0, 50.5),
                axis_angle: f64::from(i) * 0.7,
            })
            .collect();
        let region = SearchRegion::new(pt(100.0, 50.0), pt(106.0, 55.0));
        let e0 = LocalizationEngine::new(&poses, region, 720);

        // Remove AP 1: three grids survive unchanged.
        let mut fewer = poses.clone();
        fewer.remove(1);
        let stats = |poses: &[ApPose]| {
            poses
                .iter()
                .map(|pose| grid_cache_stats(pose, region, 720))
                .collect::<Vec<_>>()
        };
        let before = stats(&fewer);
        let e1 = LocalizationEngine::new(&fewer, region, 720);
        for ((h0, m0), (h1, m1)) in before.into_iter().zip(stats(&fewer)) {
            assert_eq!(h1 - h0, 1, "three unchanged APs must hit the cache");
            assert_eq!(m1 - m0, 0);
        }

        // The reused slabs are byte-identical to the original build's.
        let (nx, ny) = (e0.nx, e0.ny);
        let cells = nx * ny;
        assert_eq!(e1.fine[..cells], e0.fine[..cells]); // old AP 0
        assert_eq!(e1.fine[cells..2 * cells], e0.fine[2 * cells..3 * cells]); // old AP 2
                                                                              // And a from-scratch engine over the same poses is bit-identical
                                                                              // to the cache-served one.
        let fresh = LocalizationEngine::new(&fewer, region, 720);
        assert_eq!(fresh.fine, e1.fine);
        assert_eq!(fresh.blocks, e1.blocks);
    }

    /// A spectrum with a single Gaussian lobe at `theta` radians (plus the
    /// mirror image a plain ULA would produce).
    fn lobe(theta: f64, width: f64) -> AoaSpectrum {
        AoaSpectrum::from_fn(720, |t| {
            let d1 = angle_diff(t, theta);
            let d2 = angle_diff(t, TAU - theta);
            (-(d1 / width).powi(2)).exp() + 0.8 * (-(d2 / width).powi(2)).exp() + 1e-5
        })
    }

    fn fixture(target: Point) -> (Vec<ApPose>, Vec<AoaSpectrum>, SearchRegion) {
        let poses = vec![
            ApPose {
                center: pt(0.0, 0.0),
                axis_angle: 0.3,
            },
            ApPose {
                center: pt(12.0, 0.0),
                axis_angle: 2.0,
            },
            ApPose {
                center: pt(6.0, 9.0),
                axis_angle: 4.1,
            },
        ];
        let spectra = poses
            .iter()
            .map(|p| lobe(p.bearing_to(target), 0.08))
            .collect();
        (
            poses,
            spectra,
            SearchRegion::new(pt(0.0, 0.0), pt(12.0, 9.0)),
        )
    }

    fn indexed(spectra: &[AoaSpectrum]) -> Vec<(usize, &AoaSpectrum)> {
        spectra.iter().enumerate().collect()
    }

    #[test]
    fn engine_matches_legacy_localize() {
        for target in [pt(6.0, 4.0), pt(2.3, 7.1), pt(10.8, 1.2)] {
            let (poses, spectra, region) = fixture(target);
            let engine = LocalizationEngine::new(&poses, region, 720);
            let obs: Vec<ApObservation> = poses
                .iter()
                .zip(&spectra)
                .map(|(pose, s)| ApObservation {
                    pose: *pose,
                    spectrum: s.clone(),
                })
                .collect();
            let legacy = localize(&obs, region);
            let fast = engine.localize(&indexed(&spectra));
            assert!(
                fast.position.distance(legacy.position) < 1e-3,
                "target {target:?}: engine {:?} vs legacy {:?}",
                fast.position,
                legacy.position
            );
        }
    }

    #[test]
    fn engine_supports_ap_subsets() {
        let target = pt(4.0, 5.0);
        let (poses, spectra, region) = fixture(target);
        let engine = LocalizationEngine::new(&poses, region, 720);
        // Query with APs {0, 2} only.
        let obs: Vec<(usize, &AoaSpectrum)> = vec![(0, &spectra[0]), (2, &spectra[2])];
        let est = engine.localize(&obs);
        let legacy = localize(
            &[
                ApObservation {
                    pose: poses[0],
                    spectrum: spectra[0].clone(),
                },
                ApObservation {
                    pose: poses[2],
                    spectrum: spectra[2].clone(),
                },
            ],
            region,
        );
        assert!(est.position.distance(legacy.position) < 1e-3);
    }

    #[test]
    fn top_candidates_match_exhaustive_top_cells() {
        let target = pt(7.4, 3.3);
        let (poses, spectra, region) = fixture(target);
        let engine = LocalizationEngine::new(&poses, region, 720);
        let obs: Vec<ApObservation> = poses
            .iter()
            .zip(&spectra)
            .map(|(pose, s)| ApObservation {
                pose: *pose,
                spectrum: s.clone(),
            })
            .collect();
        let reference = heatmap(&obs, region).top_cells(3);
        let fast = engine.top_candidates(&indexed(&spectra), 3);
        assert_eq!(reference.len(), fast.len());
        for (r, f) in reference.iter().zip(&fast) {
            assert!(
                r.0.distance(f.0) < 1e-9,
                "cell order differs: {reference:?} vs {fast:?}"
            );
            assert!((r.1 - f.1).abs() <= 1e-9 * r.1.max(1.0));
        }
    }

    #[test]
    fn engine_heatmap_tracks_exact_heatmap() {
        let target = pt(5.0, 6.0);
        let (poses, spectra, region) = fixture(target);
        let region = region.with_resolution(0.25);
        let engine = LocalizationEngine::new(&poses, region, 720);
        let obs: Vec<ApObservation> = poses
            .iter()
            .zip(&spectra)
            .map(|(pose, s)| ApObservation {
                pose: *pose,
                spectrum: s.clone(),
            })
            .collect();
        let exact = heatmap(&obs, region);
        let fast = engine.heatmap(&indexed(&spectra));
        assert_eq!((exact.nx, exact.ny), (fast.nx, fast.ny));
        // Quantized values track the interpolated ones closely, and the
        // peak cell is the same.
        assert!(
            exact.top_cells(1)[0].0.distance(fast.top_cells(1)[0].0) < 1e-9,
            "heatmap peaks differ"
        );
        for (a, b) in exact.values.iter().zip(&fast.values) {
            assert!((a - b).abs() <= 0.35 * a.max(*b) + 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn bearing_bins_quantize_within_half_a_bin() {
        let (poses, _, region) = fixture(pt(6.0, 4.0));
        let engine = LocalizationEngine::new(&poses, region, 720);
        let half_bin = TAU / 720.0 / 2.0;
        let (nx, ny) = (engine.nx, engine.ny);
        for (ap, pose) in poses.iter().enumerate() {
            for iy in (0..ny).step_by(7) {
                for ix in (0..nx).step_by(7) {
                    let truth = pose.bearing_to(region.cell_center(ix, iy));
                    let stored = engine.bearing_bin(ap, ix, iy) as f64 * TAU / 720.0;
                    assert!(
                        angle_diff(truth, stored) <= half_bin + 1e-12,
                        "AP {ap} cell ({ix},{iy}): {truth} vs {stored}"
                    );
                }
            }
        }
    }

    /// The serial max over every bin of a circular interval: the loop the
    /// range-max table replaced, kept as its oracle.
    fn serial_range_max(lut: &[f64], start: usize, len: usize) -> f64 {
        let bins = lut.len();
        let mut m = f64::NEG_INFINITY;
        let end = start + len;
        if end <= bins {
            for &v in &lut[start..end] {
                m = m.max(v);
            }
        } else {
            for &v in &lut[start..bins] {
                m = m.max(v);
            }
            for &v in &lut[..end - bins] {
                m = m.max(v);
            }
        }
        m
    }

    /// Checks the table against the serial max at every `(start, len)`,
    /// wrapping intervals, `len == bins`, `len == 1` and `len == 0`
    /// included.
    fn assert_range_max_matches_serial(lut: &[f64]) {
        let bins = lut.len();
        let mut table = vec![0.0; range_max_levels(bins) * bins];
        fill_range_max(lut, &mut table);
        for start in 0..bins {
            for len in 0..=bins {
                assert_eq!(
                    range_max(&table, bins, start, len).to_bits(),
                    serial_range_max(lut, start, len).to_bits(),
                    "bins {bins}, start {start}, len {len}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Over random LUTs (log-floored like the engine's, with repeated
        /// peaks so maxima tie), the table's range max is the serial max
        /// bit for bit.
        #[test]
        fn range_max_table_matches_the_serial_max(
            values in vec(0.0f64..1.0, 8..160),
            peaks in vec((0usize..160, 0.5f64..1.0), 0..6),
        ) {
            let mut values = values;
            for &(at, v) in &peaks {
                let n = values.len();
                values[at % n] = v;
                values[(at * 7 + 3) % n] = v;
            }
            let lut: Vec<f64> = values.iter().map(|&v| v.max(LIKELIHOOD_FLOOR).ln()).collect();
            assert_range_max_matches_serial(&lut);
        }
    }

    /// The engine's own resolution, on a real spectrum's LUT: 720 bins
    /// are not a power of two, so the top level's two spans overlap.
    #[test]
    fn range_max_table_matches_the_serial_max_at_720_bins() {
        let spectrum = lobe(1.3, 0.08);
        let max = spectrum.max_value();
        let lut: Vec<f64> = spectrum
            .values()
            .iter()
            .map(|&v| (v / max).max(LIKELIHOOD_FLOOR).ln())
            .collect();
        assert_range_max_matches_serial(&lut);
    }

    /// The exhaustive reference for the engine's search: every cell's
    /// quantized score (the same per-AP sum), ranked by (score descending,
    /// cell index ascending); the best `keep` re-evaluated exactly and
    /// stably sorted by exact likelihood, descending; truncated to `k`.
    /// Returns every cell ranked, best first, and the candidates.
    fn exhaustive_search(
        engine: &LocalizationEngine,
        obs: &[(usize, &AoaSpectrum)],
        k: usize,
    ) -> (Vec<Ranked>, Vec<(Point, f64)>) {
        let mut scratch = LocalizeScratch::new();
        let get = |i: usize| obs[i];
        engine.fill_exact(obs.len(), &get, &mut scratch);
        engine.fill_luts(obs.len(), &get, &mut scratch);
        let (bins, ncells) = (engine.bins, engine.nx * engine.ny);
        let mut ranked: Vec<Ranked> = (0..ncells)
            .map(|cell| {
                let mut score = 0.0;
                for (j, &ap) in scratch.lut_aps.iter().enumerate() {
                    score += scratch.luts[j * bins + engine.fine[ap * ncells + cell] as usize];
                }
                Ranked { score, index: cell }
            })
            .collect();
        ranked.sort_by(|a, b| b.cmp(a));
        let keep = CANDIDATE_CELLS.max(k).min(ncells);
        let mut cells: Vec<(Point, f64)> = ranked[..keep]
            .iter()
            .map(|r| {
                let p = engine
                    .region
                    .cell_center(r.index % engine.nx, r.index / engine.nx);
                (p, likelihood(&scratch.exact[..obs.len()], p))
            })
            .collect();
        cells.sort_by(|a, b| b.1.total_cmp(&a.1));
        cells.truncate(k);
        (ranked, cells)
    }

    /// The engine's kept cells and candidates equal the exhaustive
    /// reference bit for bit; returns how many cells tie the `keep`-th
    /// quantized score.
    fn assert_search_matches_exhaustive(
        engine: &LocalizationEngine,
        obs: &[(usize, &AoaSpectrum)],
        k: usize,
    ) -> usize {
        let (ranked, reference) = exhaustive_search(engine, obs, k);
        let keep = CANDIDATE_CELLS.max(k).min(ranked.len());
        let mut scratch = LocalizeScratch::new();
        let get = |i: usize| obs[i];
        engine.fill_exact(obs.len(), &get, &mut scratch);
        engine.search_core(obs.len(), &get, k, &mut scratch);
        let kept: Vec<(u64, usize)> = scratch
            .top
            .iter()
            .rev()
            .map(|r| (r.score.to_bits(), r.index))
            .collect();
        let want: Vec<(u64, usize)> = ranked[..keep]
            .iter()
            .map(|r| (r.score.to_bits(), r.index))
            .collect();
        assert_eq!(kept, want, "kept cells differ from the exhaustive ranking");
        let bits = |c: &[(Point, f64)]| {
            c.iter()
                .map(|(p, l)| (p.x.to_bits(), p.y.to_bits(), l.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            bits(&engine.top_candidates(obs, k)),
            bits(&reference),
            "top_candidates differ from the exhaustive reference"
        );
        let cutoff = ranked[keep - 1].score;
        ranked.iter().filter(|r| r.score == cutoff).count()
    }

    /// One AP: every cell along the bearing ray falls in the peak bin and
    /// ties exactly, so only the cell-index tie-break decides which of
    /// them the search keeps.
    #[test]
    fn one_ap_ties_resolve_by_cell_index_like_an_exhaustive_scan() {
        let (poses, spectra, region) = fixture(pt(7.0, 5.0));
        let engine = LocalizationEngine::new(&poses, region, 720);
        for (ap, spectrum) in spectra.iter().enumerate() {
            for k in [1, 3, CANDIDATE_CELLS + 4] {
                let ties = assert_search_matches_exhaustive(&engine, &[(ap, spectrum)], k);
                assert!(
                    ties > CANDIDATE_CELLS.max(k),
                    "AP {ap}: only {ties} cells tie the cutoff"
                );
            }
        }
    }

    /// Two APs mirrored about the region's horizontal midline, each
    /// hearing the mirror image of the other's spectrum.
    #[test]
    fn mirror_symmetric_two_ap_query_matches_an_exhaustive_scan() {
        let region = SearchRegion::new(pt(0.0, 0.0), pt(12.0, 8.0));
        let poses = [
            ApPose {
                center: pt(0.0, 0.0),
                axis_angle: 0.0,
            },
            ApPose {
                center: pt(0.0, 8.0),
                axis_angle: 0.0,
            },
        ];
        let engine = LocalizationEngine::new(&poses, region, 720);
        let target = pt(6.0, 4.0);
        let theta = poses[0].bearing_to(target);
        let up = AoaSpectrum::from_fn(720, |t| {
            (-(angle_diff(t, theta) / 0.1).powi(2)).exp() + 1e-5
        });
        let down = AoaSpectrum::from_fn(720, |t| {
            (-(angle_diff(t, TAU - theta) / 0.1).powi(2)).exp() + 1e-5
        });
        for k in [1, 3, CANDIDATE_CELLS + 4] {
            assert_search_matches_exhaustive(&engine, &[(0, &up), (1, &down)], k);
        }
    }

    #[test]
    fn circular_cover_handles_wrap() {
        // Bins straddling the 0 wrap: cover must stay short.
        let (start, len) = circular_cover(&mut vec![718, 719, 0, 1], 720);
        assert_eq!((start, len), (717, 6));
        // A single bin covers itself plus the dilation.
        let (start, len) = circular_cover(&mut vec![10], 720);
        assert_eq!((start, len), (9, 3));
        // Antipodal bins: cover is the smaller arc plus dilation.
        let (_, len) = circular_cover(&mut vec![0, 100], 720);
        assert_eq!(len, 103);
        // Empty blocks (outside the grid) are inert.
        assert_eq!(circular_cover(&mut Vec::new(), 720), (0, 0));
    }

    #[test]
    #[should_panic(expected = "spectrum resolution")]
    fn mismatched_bins_rejected() {
        let (poses, _, region) = fixture(pt(6.0, 4.0));
        let engine = LocalizationEngine::new(&poses, region, 360);
        let spec = lobe(1.0, 0.1); // 720 bins
        engine.localize(&[(0, &spec)]);
    }
}
