//! The `K`-dimensional torus: the paper's "higher constant dimension"
//! generalization (§3, footnote 3 — "our argument generalizes to higher
//! constant dimension").
//!
//! Everything needed by the allocation process is nearest-neighbour
//! search; this module provides it for any constant dimension `K` via
//! const generics. It holds the one point type and the one site set of
//! every torus dimension — the paper's 2-D torus is `K = 2`, whose exact
//! Voronoi geometry [`crate::voronoi`] adds to [`KdSites<2>`]:
//!
//! * [`KdPoint<K>`] — points of `[0,1)^K` with wrapped displacement,
//!   offset and Euclidean distance (diameter `√K/2`).
//! * [`KdGrid<K>`] — the exact bucket-grid index: an expanding search
//!   over Chebyshev *shells* of cells. Every cell in shell `r` is at
//!   least `(r−1)·w` away in L∞ (hence L2), so the search stops as soon
//!   as the best distance found is below that. Buckets are flat CSR with
//!   the site coordinates *packed* in CSR order (queries never touch the
//!   original site slice). A batched fast path over the 3^K
//!   neighbourhood scans the probe's own cell, then the 2^K
//!   *near-orthant* (the cells displaced only toward the probe), then
//!   the rest — with exact early exits after each stage (own-face,
//!   far-face, block-boundary distances) and an exact per-cell
//!   branch-and-bound lower bound that skips any bucket the current
//!   best already excludes — and a monomorphized `[isize; K]` shell
//!   walker (no `dyn` dispatch, no fixed dimension cap). When a shell
//!   would wrap onto itself the search falls back to one residual sweep
//!   that skips every cell already covered by completed shells. The
//!   same walkers answer the radius query [`KdGrid::within`] that
//!   Voronoi construction and the Lemma 8 sectors need.
//! * [`KdSites<K>`] — the server set with ownership and radius queries,
//!   including the block-resolving [`KdSites::owners_into`] the insertion
//!   engine batches probes through.
//!
//! Exact Voronoi *volumes* in `K > 2` dimensions would need convex
//! polytope clipping; there, region sizes are Monte-Carlo estimates
//! ([`KdSites::mc_cell_volumes`]; they are only used by the region-size
//! tie-breaks, which are themselves heuristics), while `K = 2` has exact
//! cell areas. `K = 1` reproduces the ring with nearest-neighbour
//! ownership — cross-checked in the tests.

use crate::point::{wrap01, wrap_delta};
use rand::Rng;

/// A point on the unit `K`-torus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KdPoint<const K: usize> {
    /// Coordinates, each in `[0, 1)`.
    pub coords: [f64; K],
}

impl<const K: usize> KdPoint<K> {
    /// Creates a point, wrapping every coordinate into `[0, 1)`.
    ///
    /// # Panics
    /// Panics if any coordinate is not finite.
    #[must_use]
    pub fn new(coords: [f64; K]) -> Self {
        let mut wrapped = [0.0; K];
        for (w, &c) in wrapped.iter_mut().zip(&coords) {
            assert!(c.is_finite(), "coordinate must be finite, got {c}");
            *w = wrap01(c);
        }
        Self { coords: wrapped }
    }

    /// Samples a uniformly random point.
    #[must_use]
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut coords = [0.0; K];
        for c in &mut coords {
            *c = rng.gen::<f64>();
        }
        Self { coords }
    }

    /// Squared toroidal Euclidean distance.
    #[inline]
    #[must_use]
    pub fn dist2(&self, other: &KdPoint<K>) -> f64 {
        let mut acc = 0.0;
        for k in 0..K {
            let d = wrap_delta(other.coords[k] - self.coords[k]);
            acc += d * d;
        }
        acc
    }

    /// Toroidal Euclidean distance, in `[0, √K/2]`.
    #[must_use]
    pub fn dist(&self, other: &KdPoint<K>) -> f64 {
        self.dist2(other).sqrt()
    }

    /// The shortest displacement vector from `self` to `other`, with
    /// every component in `[-0.5, 0.5)`.
    #[inline]
    #[must_use]
    pub fn delta(&self, other: &KdPoint<K>) -> [f64; K] {
        let mut d = [0.0; K];
        for (k, slot) in d.iter_mut().enumerate() {
            *slot = wrap_delta(other.coords[k] - self.coords[k]);
        }
        d
    }

    /// The point displaced by `delta` (wraps).
    ///
    /// # Panics
    /// Panics if a displaced coordinate is not finite.
    #[must_use]
    pub fn offset(&self, delta: [f64; K]) -> KdPoint<K> {
        let mut coords = self.coords;
        for (c, d) in coords.iter_mut().zip(delta) {
            *c += d;
        }
        KdPoint::new(coords)
    }
}

/// Stack capacity for the 3^K-neighbourhood bucket bounds of the fast
/// path (holds every `K ≤ 4`, i.e. 3⁴ = 81 cells). Larger dimensions
/// fall back to the exact shell walk — a gate, not a cap: results are
/// identical, only the batching differs.
const BLOCK_CAP: usize = 96;

/// Probes per internal batch of [`KdGrid::nearest_batch`]: phase 1
/// derives every probe's cell and loads its bucket bounds, phase 2 runs
/// the per-probe scans, so the bounds cache misses overlap across probes.
const PROBE_BATCH: usize = 32;

/// Counting-sort CSR construction: given each site's bucket id, returns
/// `(offsets, indices)` with the site indices grouped by bucket and
/// ascending within a bucket (the scan-order tie-break contract).
///
/// # Panics
/// Panics if a bucket id is out of range or the arrays would overflow
/// `u32`.
fn csr_buckets(n_buckets: usize, bucket_of_site: &[usize]) -> (Vec<u32>, Vec<u32>) {
    assert!(
        u32::try_from(bucket_of_site.len()).is_ok(),
        "too many sites"
    );
    assert!(u32::try_from(n_buckets + 1).is_ok(), "grid too large");
    let mut offsets = vec![0u32; n_buckets + 1];
    for &b in bucket_of_site {
        offsets[b + 1] += 1;
    }
    for b in 0..n_buckets {
        offsets[b + 1] += offsets[b];
    }
    let mut cursor = offsets.clone();
    let mut indices = vec![0u32; bucket_of_site.len()];
    for (i, &b) in bucket_of_site.iter().enumerate() {
        indices[cursor[b] as usize] = i as u32;
        cursor[b] += 1;
    }
    (offsets, indices)
}

/// An exact bucket-grid nearest-neighbour index over the `K`-torus.
///
/// Buckets use a flat CSR layout:
/// `offsets[b]..offsets[b+1]` delimits bucket `b` in one contiguous
/// `indices` array, ascending within a bucket; `packed` duplicates the
/// site coordinates in `indices` order so a bucket scan streams
/// contiguous `[f64; K]` blocks instead of gathering random entries of
/// the caller's site slice.
#[derive(Debug, Clone)]
pub struct KdGrid<const K: usize> {
    g: usize,
    cell_w: f64,
    offsets: Vec<u32>,
    indices: Vec<u32>,
    packed: Vec<[f64; K]>,
}

impl<const K: usize> KdGrid<K> {
    /// Sites-per-cell target of [`KdGrid::build`]. A couple of sites per
    /// cell (rather than ~1) makes each bucket load pay for several
    /// candidate distances and widens the cells relative to the
    /// nearest-neighbour distance, so the near-orthant certificate of
    /// the fast path ends most queries within 2^K bucket loads (the
    /// empirical optimum across K ∈ {3, 4} at n = 2^16; see the
    /// committed `results/bench/` numbers). The same tuning serves
    /// `K = 2`: it replaced a ~1-site-per-cell 2-D grid that was no
    /// faster per query at n = 2^10, 2^16 and 2^20 (2^20 random probes
    /// on a 2-vCPU host).
    const SITES_PER_CELL: usize = 2;

    /// Builds a grid with `g = max(1, ⌊(n/2)^(1/K)⌋)` cells per side
    /// (~`SITES_PER_CELL` sites per cell).
    ///
    /// # Panics
    /// Panics if `sites` is empty or `K == 0`.
    #[must_use]
    pub fn build(sites: &[KdPoint<K>]) -> Self {
        assert!(K >= 1, "dimension must be at least 1");
        let per_cell = (sites.len() as f64 / Self::SITES_PER_CELL as f64).max(1.0);
        let g = per_cell.powf(1.0 / K as f64).floor().max(1.0) as usize;
        Self::with_cells_per_side(sites, g)
    }

    /// Builds a grid with an explicit side length.
    ///
    /// # Panics
    /// Panics if `sites` is empty, `g == 0`, or `g^K` overflows.
    #[must_use]
    pub fn with_cells_per_side(sites: &[KdPoint<K>], g: usize) -> Self {
        assert!(!sites.is_empty(), "grid needs at least one site");
        assert!(g > 0, "grid side must be positive");
        let cells = g.checked_pow(K as u32).expect("grid size overflow");
        let bucket_ids: Vec<usize> = sites
            .iter()
            .map(|p| Self::bucket_index_for(&Self::cell_of(p, g), g))
            .collect();
        let (offsets, indices) = csr_buckets(cells, &bucket_ids);
        let packed = indices.iter().map(|&i| sites[i as usize].coords).collect();
        Self {
            g,
            cell_w: 1.0 / g as f64,
            offsets,
            indices,
            packed,
        }
    }

    /// The site indices of bucket `b` (ascending); test-only introspection
    /// (the query paths scan the packed coordinates directly).
    #[cfg(test)]
    fn bucket(&self, b: usize) -> &[u32] {
        &self.indices[self.offsets[b] as usize..self.offsets[b + 1] as usize]
    }

    /// The grid cell containing `p` — the one center/bucket derivation
    /// shared by construction and every query path, so the two can never
    /// drift. The `min` guards against FP edge cases at the top seam.
    #[inline]
    fn cell_of(p: &KdPoint<K>, g: usize) -> [usize; K] {
        let mut cell = [0usize; K];
        for (slot, &coord) in cell.iter_mut().zip(&p.coords) {
            *slot = ((coord * g as f64) as usize).min(g - 1);
        }
        cell
    }

    /// Row-major bucket index of a cell (last axis fastest).
    #[inline]
    fn bucket_index_for(cell: &[usize; K], g: usize) -> usize {
        let mut idx = 0usize;
        for &c in cell {
            idx = idx * g + c;
        }
        idx
    }

    /// `3^K` when the full neighbourhood block fits the fast path's stack
    /// scratch, `None` otherwise (huge `K`: exact shell walk instead).
    #[inline]
    fn block_cells() -> Option<usize> {
        3usize.checked_pow(K as u32).filter(|&c| c <= BLOCK_CAP)
    }

    /// Scans CSR positions `lo..hi`, tracking the best *position* (not
    /// site id) so the `indices` array stays out of the inner loop.
    #[inline]
    fn scan_range(
        &self,
        p: &KdPoint<K>,
        lo: usize,
        hi: usize,
        best_j: &mut usize,
        best_d2: &mut f64,
    ) {
        for (off, site) in self.packed[lo..hi].iter().enumerate() {
            let mut d2 = 0.0;
            for (s, c) in site.iter().zip(&p.coords) {
                let d = wrap_delta(s - c);
                d2 += d * d;
            }
            // Branchless update (min + select): the comparison is a
            // data-dependent coin flip, and a mispredict here costs more
            // than the whole distance computation above.
            let better = d2 < *best_d2;
            *best_j = if better { lo + off } else { *best_j };
            *best_d2 = if better { d2 } else { *best_d2 };
        }
    }

    /// Enumerates (wrapped) cells at Chebyshev shell `r` around `center`
    /// and calls `visit` with each bucket index. `2r+1 < g` must hold
    /// (no self-wrapping), which the caller guarantees. Monomorphized
    /// over the visitor; the odometer lives in a `[isize; K]` array.
    fn for_shell<F: FnMut(usize)>(&self, center: &[usize; K], r: usize, mut visit: F) {
        // Odometer over the cube [-r, r]^K keeping only L∞ == r points.
        let g = self.g as isize;
        let r = r as isize;
        let mut offsets = [-r; K];
        loop {
            if offsets.iter().any(|&o| o.abs() == r) {
                let mut idx = 0usize;
                for k in 0..K {
                    let c = (center[k] as isize + offsets[k]).rem_euclid(g) as usize;
                    idx = idx * self.g + c;
                }
                visit(idx);
            }
            // Advance the odometer.
            let mut k = 0;
            loop {
                if k == K {
                    return;
                }
                offsets[k] += 1;
                if offsets[k] <= r {
                    break;
                }
                offsets[k] = -r;
                k += 1;
            }
        }
    }

    /// Enumerates every cell whose *wrapped* Chebyshev distance from
    /// `center` is at least `min_shell` — the residual sweep when a shell
    /// would wrap onto itself. Shells `< min_shell` are complete by then,
    /// so this visits exactly the cells no earlier shell scanned.
    fn for_unvisited<F: FnMut(usize)>(&self, center: &[usize; K], min_shell: usize, mut visit: F) {
        let g = self.g;
        let mut coords = [0usize; K];
        loop {
            let mut cheb = 0usize;
            for k in 0..K {
                let d = coords[k].abs_diff(center[k]);
                cheb = cheb.max(d.min(g - d));
            }
            if cheb >= min_shell {
                visit(Self::bucket_index_for(&coords, g));
            }
            // Advance (last axis fastest: ascending bucket order).
            let mut k = K;
            loop {
                if k == 0 {
                    return;
                }
                k -= 1;
                coords[k] += 1;
                if coords[k] < g {
                    break;
                }
                coords[k] = 0;
            }
        }
    }

    /// Exact nearest site to `p`. Ties break toward the site scanned
    /// first — deterministic for a fixed site set.
    ///
    /// Self-contained: scans the packed coordinate copy, never the site
    /// slice the grid was built from. The common case (`g ≥ 4`, answer
    /// inside the probe's 3^K cell block — almost always, with ~1 site
    /// per cell) runs a batched fast path: the probe's own cell first
    /// with an exact cell-boundary early exit, then the remaining
    /// 3^K − 1 buckets with all bounds loaded before any distance work
    /// and an exact block-boundary exit. Only unresolved queries resume
    /// the expanding-shell search at shell 2.
    #[must_use]
    pub fn nearest(&self, p: &KdPoint<K>) -> usize {
        let g = self.g;
        let center = Self::cell_of(p, g);
        let b = Self::bucket_index_for(&center, g);
        self.nearest_with_center(
            p,
            &center,
            self.offsets[b] as usize,
            self.offsets[b + 1] as usize,
        )
    }

    /// [`KdGrid::nearest`] with the probe's cell and its bucket bounds
    /// already derived (the batch path computes them a block at a time).
    #[inline]
    fn nearest_with_center(
        &self,
        p: &KdPoint<K>,
        center: &[usize; K],
        center_lo: usize,
        center_hi: usize,
    ) -> usize {
        let g = self.g;
        let n_cells = match Self::block_cells() {
            Some(c) if g >= 4 => c,
            // 3^K would self-wrap (tiny g) or overflow the stack scratch
            // (huge K): the shell loop handles both exactly.
            _ => return self.nearest_from_shell(p, center, 0, usize::MAX, f64::INFINITY),
        };
        let w = self.cell_w;
        let mut best_j = usize::MAX;
        let mut best_d2 = f64::INFINITY;
        self.scan_range(p, center_lo, center_hi, &mut best_j, &mut best_d2);
        // Per-axis geometry: `f` is the probe's offset inside its cell,
        // `near_edge` the distance to the nearest of its 2K faces,
        // `far_edge` the distance to the nearest *far* face (the closest
        // any cell displaced away from the probe can be), and `dir` the
        // digit (0 = minus, 2 = plus neighbour) of the nearer side.
        // `near_edge` is clamped at zero so FP seam skew cannot turn
        // "impossible" into "tiny radius" when squared; the far/block
        // formulas are true distances either way.
        let mut near_edge = f64::INFINITY;
        let mut far_edge = f64::INFINITY;
        let mut dir = [0usize; K];
        let mut near2 = [0.0f64; K];
        let mut far2 = [0.0f64; K];
        for k in 0..K {
            let f = p.coords[k] - center[k] as f64 * w;
            let to_minus = f;
            let to_plus = w - f;
            let near = to_minus.min(to_plus);
            let far = to_minus.max(to_plus);
            near_edge = near_edge.min(near);
            far_edge = far_edge.min(far);
            dir[k] = if to_minus <= to_plus { 0 } else { 2 };
            let near = near.max(0.0);
            near2[k] = near * near;
            far2[k] = far * far;
        }
        let block_edge = w + near_edge;
        // Capped at the block boundary: under FP seam skew a negative
        // cell offset can make every far-face distance exceed the true
        // block-boundary distance, and outside-block sites are only
        // guaranteed to be at least the latter away.
        let far_edge = far_edge.min(block_edge);
        let near_edge = near_edge.max(0.0);
        // A hit closer than the probe's own nearest cell face cannot be
        // beaten from any other cell: done after a single bucket.
        if best_d2 <= near_edge * near_edge {
            return self.indices[best_j] as usize;
        }
        // Wrapped neighbour coordinate per axis (digit 0/1/2 = minus /
        // center / plus), shared by both block passes below.
        let mut nbr = [[0usize; 3]; K];
        for (k, n) in nbr.iter_mut().enumerate() {
            let c = center[k];
            *n = [
                if c == 0 { g - 1 } else { c - 1 },
                c,
                if c + 1 == g { 0 } else { c + 1 },
            ];
        }
        // Near-orthant pass: the 2^K − 1 cells displaced only *toward*
        // the probe (per axis: not at all, or to the nearer side). The
        // true nearest site is almost always inside this orthant, and
        // every cell outside it is displaced to a far side on some
        // axis, i.e. at least `far_edge` away — an exact certificate
        // that usually ends the query after at most 2^K of the block's
        // 3^K cells. Each cell carries its exact squared lower bound
        // (the root-sum-square of the displaced-axis margins), so a
        // bucket is loaded only if its cell could still beat the
        // current best — branch-and-bound
        // with zero memory traffic for pruned cells. Bucket bounds of
        // surviving cells are loaded before any distance work so their
        // cache misses overlap.
        let orthant = 1usize << K;
        let mut lo = [0u32; BLOCK_CAP];
        let mut hi = [0u32; BLOCK_CAP];
        let mut bound_of = [0.0f64; BLOCK_CAP];
        let mut cnt = 0usize;
        for mask in 1..orthant {
            let mut bound = 0.0f64;
            let mut idx = 0usize;
            for (k, nb) in nbr.iter().enumerate() {
                if mask & (1 << k) != 0 {
                    idx = idx * g + nb[dir[k]];
                    bound += near2[k];
                } else {
                    idx = idx * g + nb[1];
                }
            }
            if bound < best_d2 {
                lo[cnt] = self.offsets[idx];
                hi[cnt] = self.offsets[idx + 1];
                bound_of[cnt] = bound;
                cnt += 1;
            }
        }
        for i in 0..cnt {
            if bound_of[i] < best_d2 {
                self.scan_range(p, lo[i] as usize, hi[i] as usize, &mut best_j, &mut best_d2);
            }
        }
        if best_j != usize::MAX && best_d2 <= far_edge * far_edge {
            return self.indices[best_j] as usize;
        }
        // Remainder pass: the other 3^K − 2^K block cells (at least one
        // axis displaced to the far side), with the same exact per-cell
        // lower bound — near margin² for near-side axes, far margin²
        // for far-side axes — pruning every cell the current best
        // already excludes. After them every unscanned site lies
        // outside the block, i.e. at least the block-boundary distance
        // away (exact, not the coarser (r−1)·w shell bound).
        let mut digits = [0usize; K];
        for _ in 0..n_cells {
            let mut idx = 0usize;
            let mut in_orthant = true;
            let mut bound = 0.0f64;
            for k in 0..K {
                let digit = digits[k];
                idx = idx * g + nbr[k][digit];
                if digit != 1 {
                    if digit == dir[k] {
                        bound += near2[k];
                    } else {
                        in_orthant = false;
                        bound += far2[k];
                    }
                }
            }
            if !in_orthant && bound < best_d2 {
                self.scan_range(
                    p,
                    self.offsets[idx] as usize,
                    self.offsets[idx + 1] as usize,
                    &mut best_j,
                    &mut best_d2,
                );
            }
            // Base-3 odometer, last axis fastest.
            let mut k = K;
            while k > 0 {
                k -= 1;
                digits[k] += 1;
                if digits[k] < 3 {
                    break;
                }
                digits[k] = 0;
            }
        }
        if best_j != usize::MAX && best_d2 <= block_edge * block_edge {
            return self.indices[best_j] as usize;
        }
        // Rare: nothing conclusive within the block — resume the
        // expanding-shell search at shell 2.
        self.nearest_from_shell(p, center, 2, best_j, best_d2)
    }

    /// The expanding-shell search, starting at Chebyshev shell `start`
    /// with the best candidate found so far (shells `< start` must
    /// already have been scanned by the caller). `best_j` is a CSR
    /// position, not a site id; the returned value is the resolved site
    /// id.
    fn nearest_from_shell(
        &self,
        p: &KdPoint<K>,
        center: &[usize; K],
        start: usize,
        mut best_j: usize,
        mut best_d2: f64,
    ) -> usize {
        let g = self.g;
        let max_shell = g / 2 + 1;
        for r in start..=max_shell {
            if r > 0 {
                // Every cell at shell >= r is at least (r-1)*w away (L∞,
                // hence L2). Squared on both sides: no sqrt anywhere on
                // the query path.
                let unreachable = (r as f64 - 1.0) * self.cell_w;
                if best_j != usize::MAX && best_d2 <= unreachable * unreachable {
                    break;
                }
            }
            if 2 * r + 1 >= g {
                // Shell r would wrap onto itself. Shells < r are
                // complete, so sweep only the cells they never visited
                // (wrapped Chebyshev distance >= r) exactly once.
                self.for_unvisited(center, r, |b| {
                    self.scan_range(
                        p,
                        self.offsets[b] as usize,
                        self.offsets[b + 1] as usize,
                        &mut best_j,
                        &mut best_d2,
                    );
                });
                break;
            }
            self.for_shell(center, r, |b| {
                self.scan_range(
                    p,
                    self.offsets[b] as usize,
                    self.offsets[b + 1] as usize,
                    &mut best_j,
                    &mut best_d2,
                );
            });
        }
        debug_assert!(best_j != usize::MAX, "kd grid search found no site");
        self.indices[best_j] as usize
    }

    /// Resolves a block of probes to their nearest sites — the batched
    /// entry point behind [`KdSites::owners_into`]. Processes probes in
    /// internal batches of `PROBE_BATCH` probes: phase 1 derives every
    /// probe's cell and loads its own-bucket bounds (one tight
    /// homogeneous loop whose cache misses overlap), phase 2 runs the
    /// per-probe fast path with the center work already amortized.
    /// Equivalent to `nearest` probe by probe. (A heavier variant that
    /// also pre-gathers the `2^K` near-orthant bounds and warms their
    /// packed lines was measured *slower* on the reference core — the
    /// grid is cache-resident at these `n`, so the extra gathers cost
    /// more than the latency they hide; the DRAM-regime staging lives
    /// where it pays, in `RingPartition::successor_indices_into`.)
    ///
    /// # Panics
    /// Panics if `probes` and `out` differ in length.
    pub fn nearest_batch(&self, probes: &[KdPoint<K>], out: &mut [usize]) {
        assert_eq!(probes.len(), out.len(), "probe/output blocks must match");
        let g = self.g;
        let mut centers = [[0usize; K]; PROBE_BATCH];
        let mut ranges = [(0usize, 0usize); PROBE_BATCH];
        for (probes, out) in probes.chunks(PROBE_BATCH).zip(out.chunks_mut(PROBE_BATCH)) {
            for (i, p) in probes.iter().enumerate() {
                let center = Self::cell_of(p, g);
                let b = Self::bucket_index_for(&center, g);
                centers[i] = center;
                ranges[i] = (self.offsets[b] as usize, self.offsets[b + 1] as usize);
            }
            for (i, (p, slot)) in probes.iter().zip(out.iter_mut()).enumerate() {
                *slot = self.nearest_with_center(p, &centers[i], ranges[i].0, ranges[i].1);
            }
        }
    }

    /// All site indices within distance `radius` of `p` (inclusive), in
    /// ascending order; empty for a negative or NaN radius. Exact: the
    /// query scans the Chebyshev shells a site within `radius` can
    /// occupy, and once a shell would wrap onto itself (radii
    /// approaching half the torus) one residual sweep covers every
    /// remaining cell exactly once.
    #[must_use]
    pub fn within(&self, p: &KdPoint<K>, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        if radius.is_nan() || radius < 0.0 {
            return out;
        }
        let r2 = radius * radius;
        let center = Self::cell_of(p, self.g);
        let mut collect = |b: usize| {
            let (lo, hi) = (self.offsets[b] as usize, self.offsets[b + 1] as usize);
            for (j, &coords) in (lo..hi).zip(&self.packed[lo..hi]) {
                if p.dist2(&KdPoint { coords }) <= r2 {
                    out.push(self.indices[j] as usize);
                }
            }
        };
        // A site within `radius` sits at most ⌈radius·g⌉ cells from the
        // probe's cell on every axis; the slack absorbs FP roundoff in
        // the distance test and the cell derivation. The loop ends at
        // the first self-wrapping shell, so a huge reach is harmless.
        let slack = radius * (1.0 + 1e-9) + 1e-12;
        let reach = (slack * self.g as f64).ceil() as usize;
        for r in 0..=reach {
            if 2 * r + 1 >= self.g {
                self.for_unvisited(&center, r, &mut collect);
                break;
            }
            self.for_shell(&center, r, &mut collect);
        }
        out.sort_unstable();
        out
    }
}

/// Brute-force nearest site in `K` dimensions (the oracle).
///
/// # Panics
/// Panics if `sites` is empty.
#[must_use]
pub fn kd_nearest_brute<const K: usize>(p: &KdPoint<K>, sites: &[KdPoint<K>]) -> usize {
    assert!(!sites.is_empty());
    let mut best = 0usize;
    let mut best_d2 = f64::INFINITY;
    for (i, s) in sites.iter().enumerate() {
        let d2 = p.dist2(s);
        if d2 < best_d2 {
            best_d2 = d2;
            best = i;
        }
    }
    best
}

/// `n` server sites on the `K`-torus with exact ownership queries.
#[derive(Debug, Clone)]
pub struct KdSites<const K: usize> {
    points: Vec<KdPoint<K>>,
    grid: KdGrid<K>,
}

impl<const K: usize> KdSites<K> {
    /// Places `n ≥ 1` sites uniformly at random.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[must_use]
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        assert!(n > 0, "need at least one site");
        let points: Vec<KdPoint<K>> = (0..n).map(|_| KdPoint::random(rng)).collect();
        let grid = KdGrid::build(&points);
        Self { points, grid }
    }

    /// Builds from explicit positions.
    ///
    /// # Panics
    /// Panics if `points` is empty.
    #[must_use]
    pub fn from_points(points: Vec<KdPoint<K>>) -> Self {
        assert!(!points.is_empty(), "need at least one site");
        let grid = KdGrid::build(&points);
        Self { points, grid }
    }

    /// Number of sites.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Always false (construction requires ≥ 1 site).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// All site positions.
    #[must_use]
    pub fn points(&self) -> &[KdPoint<K>] {
        &self.points
    }

    /// Position of site `i`.
    #[must_use]
    pub fn point(&self, i: usize) -> &KdPoint<K> {
        &self.points[i]
    }

    /// Exact nearest site to `p`.
    #[must_use]
    pub fn owner(&self, p: &KdPoint<K>) -> usize {
        self.grid.nearest(p)
    }

    /// Exact nearest site for a whole block of probes at once
    /// (equivalent to [`KdSites::owner`] probe by probe; the batch
    /// amortizes the per-probe cell derivation — see
    /// [`KdGrid::nearest_batch`]).
    ///
    /// # Panics
    /// Panics if `probes` and `out` differ in length.
    pub fn owners_into(&self, probes: &[KdPoint<K>], out: &mut [usize]) {
        self.grid.nearest_batch(probes, out);
    }

    /// Brute-force owner: the `O(n)` oracle used to validate the grid.
    #[must_use]
    pub fn owner_brute(&self, p: &KdPoint<K>) -> usize {
        kd_nearest_brute(p, &self.points)
    }

    /// All sites within distance `radius` of `p` (inclusive), in
    /// ascending index order — exact, via [`KdGrid::within`].
    #[must_use]
    pub fn within(&self, p: &KdPoint<K>, radius: f64) -> Vec<usize> {
        self.grid.within(p, radius)
    }

    /// Monte-Carlo estimate of every site's Voronoi cell volume from
    /// `samples` uniform probes (exact polytope volumes are out of scope
    /// for `K > 2`; this estimator is used only by region-size
    /// tie-breaks, which are heuristic anyway).
    #[must_use]
    pub fn mc_cell_volumes<R: Rng + ?Sized>(&self, samples: usize, rng: &mut R) -> Vec<f64> {
        let mut hits = vec![0u64; self.len()];
        for _ in 0..samples {
            hits[self.owner(&KdPoint::random(rng))] += 1;
        }
        hits.iter().map(|&h| h as f64 / samples as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo2c_util::rng::Xoshiro256pp;

    fn random_sites<const K: usize>(n: usize, seed: u64) -> Vec<KdPoint<K>> {
        let mut rng = Xoshiro256pp::from_u64(seed);
        (0..n).map(|_| KdPoint::random(&mut rng)).collect()
    }

    #[test]
    fn kd_grid_matches_brute_in_dim_1_2_3() {
        let mut rng = Xoshiro256pp::from_u64(2);
        macro_rules! check_dim {
            ($k:literal) => {{
                for &n in &[2usize, 10, 200] {
                    let sites = random_sites::<$k>(n, 100 + n as u64 + $k);
                    let grid = KdGrid::build(&sites);
                    for _ in 0..300 {
                        let p = KdPoint::<$k>::random(&mut rng);
                        let fast = grid.nearest(&p);
                        let slow = kd_nearest_brute(&p, &sites);
                        assert!(
                            (p.dist2(&sites[fast]) - p.dist2(&sites[slow])).abs() < 1e-15,
                            "K={} n={n}",
                            $k
                        );
                    }
                }
            }};
        }
        check_dim!(1);
        check_dim!(2);
        check_dim!(3);
    }

    #[test]
    fn wraparound_neighbours_found() {
        // Probe near the origin; the nearest site is across both seams.
        let sites = [
            KdPoint::new([0.98, 0.98]),
            KdPoint::new([0.5, 0.5]),
            KdPoint::new([0.25, 0.75]),
        ];
        let grid = KdGrid::with_cells_per_side(&sites, 8);
        let probe = KdPoint::new([0.01, 0.01]);
        assert_eq!(grid.nearest(&probe), 0);
        assert_eq!(grid.within(&probe, 0.05), vec![0]);
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn empty_sites_rejected() {
        let _ = KdGrid::<2>::build(&[]);
    }

    #[test]
    fn kd1_matches_ring_nearest_ownership() {
        use geo2c_ring::{Ownership, RingPartition, RingPoint};
        let mut rng = Xoshiro256pp::from_u64(3);
        let coords: Vec<f64> = (0..50).map(|_| rng.gen::<f64>()).collect();
        let sites = KdSites::<1>::from_points(coords.iter().map(|&x| KdPoint::new([x])).collect());
        let part =
            RingPartition::from_positions(coords.iter().map(|&x| RingPoint::new(x)).collect());
        for _ in 0..500 {
            let x = rng.gen::<f64>();
            let kd_owner_pos = sites.point(sites.owner(&KdPoint::new([x]))).coords[0];
            let ring_owner_pos = part
                .position(part.owner(RingPoint::new(x), Ownership::Nearest))
                .coord();
            assert!(
                (kd_owner_pos - ring_owner_pos).abs() < 1e-12
                    // allow exact ties resolved differently
                    || (RingPoint::new(x).distance(RingPoint::new(kd_owner_pos))
                        - RingPoint::new(x).distance(RingPoint::new(ring_owner_pos)))
                    .abs()
                        < 1e-12,
                "1-D owners differ at x={x}"
            );
        }
    }

    #[test]
    fn mc_volumes_partition_unity() {
        let mut rng = Xoshiro256pp::from_u64(5);
        let sites = KdSites::<3>::random(16, &mut rng);
        let volumes = sites.mc_cell_volumes(50_000, &mut rng);
        let total: f64 = volumes.iter().sum();
        // Exact: volumes are fractions of the same sample set.
        assert!((total - 1.0).abs() < 1e-9);
        // Every cell should get a roughly fair share (1/16 each ± spread).
        for (i, v) in volumes.iter().enumerate() {
            assert!(*v > 0.0, "cell {i} got no probes");
            assert!(*v < 0.4, "cell {i} implausibly large: {v}");
        }
    }

    #[test]
    fn kd_point_wraps_and_rejects_nan() {
        let p = KdPoint::new([1.25, -0.25, 3.0]);
        assert!((p.coords[0] - 0.25).abs() < 1e-12);
        assert!((p.coords[1] - 0.75).abs() < 1e-12);
        assert_eq!(p.coords[2], 0.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn kd_point_nan_rejected() {
        let _ = KdPoint::new([f64::NAN]);
    }

    #[test]
    fn high_dim_max_distance() {
        // Diameter of the K-torus is √K/2.
        let a = KdPoint::new([0.0, 0.0, 0.0, 0.0]);
        let b = KdPoint::new([0.5, 0.5, 0.5, 0.5]);
        assert!((a.dist(&b) - 1.0).abs() < 1e-12); // √4/2 = 1
    }

    #[test]
    fn clustered_sites_exact_in_3d() {
        let mut rng = Xoshiro256pp::from_u64(6);
        let sites: Vec<KdPoint<3>> = (0..40)
            .map(|_| {
                KdPoint::new([
                    0.5 + 0.02 * (rng.gen::<f64>() - 0.5),
                    0.5 + 0.02 * (rng.gen::<f64>() - 0.5),
                    0.5 + 0.02 * (rng.gen::<f64>() - 0.5),
                ])
            })
            .collect();
        let grid = KdGrid::build(&sites);
        for _ in 0..200 {
            let p = KdPoint::<3>::random(&mut rng);
            let fast = grid.nearest(&p);
            let slow = kd_nearest_brute(&p, &sites);
            assert!((p.dist2(&sites[fast]) - p.dist2(&sites[slow])).abs() < 1e-15);
        }
    }

    #[test]
    fn csr_buckets_partition_sites_with_packed_coords() {
        // Every site appears exactly once, ascending within its bucket,
        // and the packed copy mirrors `indices` order exactly.
        let sites = random_sites::<3>(120, 11);
        let grid = KdGrid::with_cells_per_side(&sites, 5);
        let mut seen = vec![false; sites.len()];
        for b in 0..125 {
            let bucket = grid.bucket(b);
            for w in bucket.windows(2) {
                assert!(w[0] < w[1], "bucket {b} not ascending");
            }
            for &i in bucket {
                assert!(!seen[i as usize], "site {i} in two buckets");
                seen[i as usize] = true;
                let cell = KdGrid::cell_of(&sites[i as usize], 5);
                assert_eq!(KdGrid::bucket_index_for(&cell, 5), b, "site {i} misfiled");
            }
        }
        assert!(seen.iter().all(|&s| s), "missing sites");
        for (j, &i) in grid.indices.iter().enumerate() {
            assert_eq!(grid.packed[j], sites[i as usize].coords, "packed order");
        }
    }

    #[test]
    fn nearest_batch_matches_single_queries() {
        let mut rng = Xoshiro256pp::from_u64(12);
        for &n in &[1usize, 7, 300] {
            let sites = random_sites::<3>(n, 500 + n as u64);
            let grid = KdGrid::build(&sites);
            // 77 spans multiple internal probe batches plus a ragged tail.
            let probes: Vec<KdPoint<3>> = (0..77).map(|_| KdPoint::random(&mut rng)).collect();
            let mut batched = vec![0usize; probes.len()];
            grid.nearest_batch(&probes, &mut batched);
            let singles: Vec<usize> = probes.iter().map(|p| grid.nearest(p)).collect();
            assert_eq!(batched, singles, "n={n}");
        }
    }

    #[test]
    fn residual_sweep_skips_completed_shells_but_stays_exact() {
        // Clustered sites + distant probes force deep shells that wrap
        // (the residual sweep); a degenerate g=2 grid hits it at r=1.
        let mut rng = Xoshiro256pp::from_u64(13);
        let sites: Vec<KdPoint<4>> = (0..30)
            .map(|_| {
                let mut c = [0.0; 4];
                for x in &mut c {
                    *x = 0.25 + 1e-3 * rng.gen::<f64>();
                }
                KdPoint::new(c)
            })
            .collect();
        for g in [1usize, 2, 3, 5] {
            let grid = KdGrid::with_cells_per_side(&sites, g);
            for _ in 0..100 {
                let p = KdPoint::<4>::random(&mut rng);
                let fast = grid.nearest(&p);
                let slow = kd_nearest_brute(&p, &sites);
                assert!(
                    (p.dist2(&sites[fast]) - p.dist2(&sites[slow])).abs() < 1e-15,
                    "g={g}"
                );
            }
        }
    }

    #[test]
    fn unvisited_sweep_covers_exactly_the_cells_outside_completed_shells() {
        // For every cell the sweep visits, the wrapped Chebyshev distance
        // must be >= min_shell, and together with shells 0..min_shell it
        // must cover every cell exactly once.
        let sites = random_sites::<2>(40, 14);
        let grid = KdGrid::<2>::with_cells_per_side(&sites, 6);
        let center = [2usize, 5];
        for min_shell in 0..=3usize {
            let mut counts = vec![0usize; 36];
            for r in 0..min_shell {
                grid.for_shell(&center, r, |b| counts[b] += 1);
            }
            grid.for_unvisited(&center, min_shell, |b| counts[b] += 1);
            assert!(
                counts.iter().all(|&c| c == 1),
                "min_shell={min_shell}: {counts:?}"
            );
        }
    }
}
