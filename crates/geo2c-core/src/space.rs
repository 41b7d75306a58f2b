//! The [`Space`] abstraction and its concrete geometries.
//!
//! A *space* is a set of `n` servers owning regions of a probability
//! space: sampling a uniform probe location and returning the owning
//! server is the single operation the allocation process needs. The
//! non-uniformity of the region sizes is exactly what distinguishes the
//! paper's setting from classical balanced allocations:
//!
//! | Space | Region | Size distribution |
//! |-------|--------|-------------------|
//! | [`UniformSpace`] | abstract bin | exactly `1/n` each (classical) |
//! | [`RingSpace`] | arc of the unit circle | `Beta(1, n−1)`-like gaps, max `Θ(log n/n)` |
//! | [`TorusSpace`] | Voronoi cell of a `KdSites<2>` on the unit torus (exact areas) | max `Θ(log n/n)` |
//! | [`KdTorusSpace<K>`] | Voronoi cell on the unit `K`-torus (Monte-Carlo volumes) | max `Θ(log n/n)` |
//!
//! The two torus spaces share one site set type and one draw path; they
//! differ only in how region sizes are computed and in their
//! construction stream.
//!
//! Vöcking's split-interval scheme additionally needs "sample a probe in
//! the `j`-th of `d` equal divisions of the space"; each space divides
//! along its natural coordinate (bin index ranges / ring intervals /
//! slabs along the first torus axis).

use geo2c_ring::{Ownership, RingPartition, RingPoint};
use geo2c_torus::{KdPoint, KdSites};
use geo2c_util::rng::LaneSource;
use rand::Rng;
use std::sync::OnceLock;

/// A geometric space of `n` servers, each owning a region whose measure is
/// the probability a uniform probe lands there.
///
/// [`Space::sample_owner`] is the one probe operation; every other draw
/// is defined by it. Both engines draw every independent-probe ball's
/// owners through [`Space::sample_owners_lanes`], which must equal `d`
/// `sample_owner` calls on each ball's probe lane. The serving engine's
/// retry redraws call `sample_owner` directly on the event's retry lane,
/// and Vöcking's split scheme draws through
/// [`Space::sample_owner_in_division`].
pub trait Space {
    /// Number of servers (bins).
    fn num_servers(&self) -> usize;

    /// Samples a uniform probe location and returns the owning server.
    fn sample_owner<R: Rng + ?Sized>(&self, rng: &mut R) -> usize;

    /// Samples the probe owners for `out.len() / d` balls under RNG
    /// stream contract v2: ball `i` of the block draws its `d` probe
    /// locations, in order, from `lanes.probe(i)` and nothing else. This
    /// is the batched entry point both engines drive for every
    /// non-split strategy ([`crate::sim::run_trial`] and the serving
    /// engine hand it 64-ball blocks through
    /// [`crate::sim::EventOwnerBlocks`]), so per-space overrides can run
    /// the coordinate draws and the owner lookups as tight homogeneous
    /// loops across the whole block.
    ///
    /// **Lane contract:** implementations must consume, per ball,
    /// exactly the randomness of `d` successive [`Space::sample_owner`]
    /// calls on that ball's probe lane (owner resolution consumes no
    /// randomness, and no lane but the ball's own probe lane is
    /// touched). The `lane_equivalence` suite pins every space to this
    /// contract; it is what keeps the committed distributions stable
    /// across hot-path refactors now that the engine batches across
    /// balls for the paper-default random tie-break too.
    ///
    /// # Panics
    /// Implementations may panic if `out.len()` is not a multiple of `d`.
    fn sample_owners_lanes<L: LaneSource>(&self, lanes: &L, d: usize, out: &mut [usize]) {
        lane_owners_generic(self, lanes, d, out);
    }

    /// Samples a probe restricted to the `j`-th of `d` equal divisions of
    /// the space (for Vöcking's always-go-left variant).
    ///
    /// # Panics
    /// Implementations panic if `j >= d` or `d == 0`.
    fn sample_owner_in_division<R: Rng + ?Sized>(&self, rng: &mut R, j: usize, d: usize) -> usize;

    /// The measure (arc length / cell area / `1/n`) of `server`'s region.
    fn region_size(&self, server: usize) -> f64;

    /// A scalar position for the "leftmost" tie-break (Table 3's
    /// *arc-left*): the server's coordinate on the ring, its site
    /// x-coordinate on the torus, or its index for uniform bins.
    fn position_key(&self, server: usize) -> f64;
}

/// Probe-slot budget for the cross-ball `sample_owners_lanes` overrides'
/// stack buffers: a full 64-ball × `d = 2` engine block in one pass, and
/// whole-ball chunks (`LANE_BLOCK / d` balls at a time) for larger `d`.
pub(crate) const LANE_BLOCK: usize = 128;

/// The chunking skeleton shared by every batched `sample_owners_lanes`
/// override: fills a stack buffer with each ball's `d` probe points —
/// drawn, in order, from that ball's lane via `draw` — in whole-ball
/// chunks of at most [`LANE_BLOCK`] slots, then hands each filled chunk
/// to the space's batched `lookup`. Keeping the ball/lane bookkeeping in
/// one place means the lane contract can only be got wrong once.
///
/// Callers must have handled `d == 0` / `d > LANE_BLOCK` (the
/// [`lane_owners_generic`] fallback) already.
pub(crate) fn lane_owners_chunked<P: Copy, L: LaneSource>(
    lanes: &L,
    d: usize,
    out: &mut [usize],
    zero: P,
    mut draw: impl FnMut(&mut L::Lane) -> P,
    mut lookup: impl FnMut(&[P], &mut [usize]),
) {
    debug_assert!((1..=LANE_BLOCK).contains(&d));
    assert_eq!(out.len() % d, 0, "owner block not a whole number of balls");
    let mut points = [zero; LANE_BLOCK];
    let balls_per_chunk = LANE_BLOCK / d;
    let mut ball = 0u64;
    for chunk in out.chunks_mut(balls_per_chunk * d) {
        let points = &mut points[..chunk.len()];
        for (b, ball_points) in points.chunks_mut(d).enumerate() {
            let mut probe = lanes.probe(ball + b as u64);
            for p in ball_points.iter_mut() {
                *p = draw(&mut probe);
            }
        }
        lookup(points, chunk);
        ball += (chunk.len() / d) as u64;
    }
}

/// The generic lane-sampling loop (also the [`Space::sample_owners_lanes`]
/// default): per ball, `d` successive [`Space::sample_owner`] draws from
/// that ball's probe lane. Overrides fall back to this for `d` too large
/// for their stack buffers; the per-space fast paths are bound to it by
/// the `lane_equivalence` suite.
pub(crate) fn lane_owners_generic<S: Space + ?Sized, L: LaneSource>(
    space: &S,
    lanes: &L,
    d: usize,
    out: &mut [usize],
) {
    assert!(d > 0, "need at least one probe per ball");
    assert_eq!(out.len() % d, 0, "owner block not a whole number of balls");
    for (ball, window) in out.chunks_mut(d).enumerate() {
        let mut probe = lanes.probe(ball as u64);
        for slot in window {
            *slot = space.sample_owner(&mut probe);
        }
    }
}

// ---------------------------------------------------------------------------
// Uniform bins (classical baseline)
// ---------------------------------------------------------------------------

/// The classical Azar-et-al. setting: `n` equiprobable bins.
///
/// This is the baseline the paper's guarantees are measured against: the
/// geometric spaces match its `log log n / log d + O(1)` maximum load
/// despite their non-uniform region sizes.
#[derive(Debug, Clone)]
pub struct UniformSpace {
    n: usize,
}

impl UniformSpace {
    /// Creates `n ≥ 1` uniform bins.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one bin");
        Self { n }
    }
}

impl Space for UniformSpace {
    fn num_servers(&self) -> usize {
        self.n
    }

    fn sample_owner<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        rng.gen_range(0..self.n)
    }

    fn sample_owner_in_division<R: Rng + ?Sized>(&self, rng: &mut R, j: usize, d: usize) -> usize {
        assert!(d > 0 && j < d, "division {j} of {d}");
        // Bin index ranges [j*n/d, (j+1)*n/d); Vöcking's groups.
        let lo = j * self.n / d;
        let hi = ((j + 1) * self.n / d).max(lo + 1).min(self.n);
        rng.gen_range(lo..hi)
    }

    fn region_size(&self, _server: usize) -> f64 {
        1.0 / self.n as f64
    }

    fn position_key(&self, server: usize) -> f64 {
        server as f64 / self.n as f64
    }
}

// ---------------------------------------------------------------------------
// Ring (Section 2)
// ---------------------------------------------------------------------------

/// The paper's Theorem 1 space: `n` random points on the unit circle; bins
/// are the induced arcs.
#[derive(Debug, Clone)]
pub struct RingSpace {
    partition: RingPartition,
    ownership: Ownership,
    region_sizes: Vec<f64>,
}

impl RingSpace {
    /// Places `n` servers uniformly at random, successor (Chord) ownership.
    #[must_use]
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        Self::with_ownership(RingPartition::random(n, rng), Ownership::Successor)
    }

    /// Wraps an existing partition with the given ownership convention.
    #[must_use]
    pub fn with_ownership(partition: RingPartition, ownership: Ownership) -> Self {
        let region_sizes = (0..partition.len())
            .map(|i| partition.region_size(i, ownership))
            .collect();
        Self {
            partition,
            ownership,
            region_sizes,
        }
    }

    /// The underlying partition.
    #[must_use]
    pub fn partition(&self) -> &RingPartition {
        &self.partition
    }

    /// The ownership convention in use.
    #[must_use]
    pub fn ownership(&self) -> Ownership {
        self.ownership
    }

    /// Owner of an explicit ring point (used by the DHT layer).
    #[must_use]
    pub fn owner_of(&self, p: RingPoint) -> usize {
        self.partition.owner(p, self.ownership)
    }
}

impl Space for RingSpace {
    fn num_servers(&self) -> usize {
        self.partition.len()
    }

    fn sample_owner<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.partition.owner(RingPoint::random(rng), self.ownership)
    }

    fn sample_owners_lanes<L: LaneSource>(&self, lanes: &L, d: usize, out: &mut [usize]) {
        // Lane contract: ball i draws its d coordinates, in order, from
        // lanes.probe(i); then the owner lookups run as one batch over
        // the whole chunk: every probe's integer bucket pick and
        // bucket_first gather first, then every branch-free finish, so
        // the out-of-order core overlaps the cache misses of many
        // independent successor searches.
        if d == 0 || d > LANE_BLOCK {
            lane_owners_generic(self, lanes, d, out);
            return;
        }
        lane_owners_chunked(
            lanes,
            d,
            out,
            RingPoint::new(0.0),
            |probe| RingPoint::new(probe.gen::<f64>()),
            |points, chunk| self.partition.owners_into(points, self.ownership, chunk),
        );
    }

    fn sample_owner_in_division<R: Rng + ?Sized>(&self, rng: &mut R, j: usize, d: usize) -> usize {
        assert!(d > 0 && j < d, "division {j} of {d}");
        // Uniform point in the interval [j/d, (j+1)/d) of the circle.
        let x = (j as f64 + rng.gen::<f64>()) / d as f64;
        self.partition.owner(RingPoint::new(x), self.ownership)
    }

    fn region_size(&self, server: usize) -> f64 {
        self.region_sizes[server]
    }

    fn position_key(&self, server: usize) -> f64 {
        self.partition.position(server).coord()
    }
}

// ---------------------------------------------------------------------------
// Torus (Section 3)
// ---------------------------------------------------------------------------

/// The batched lane draw of every torus space ([`TorusSpace`] and
/// [`KdTorusSpace<K>`]). Lane contract: ball `i` draws its `K`
/// coordinates per probe, in order, from `lanes.probe(i)`; the lookups
/// then run through the grid's batched fast path for the whole chunk.
fn kd_owners_lanes<S: Space, const K: usize, L: LaneSource>(
    space: &S,
    sites: &KdSites<K>,
    lanes: &L,
    d: usize,
    out: &mut [usize],
) {
    if d == 0 || d > LANE_BLOCK {
        lane_owners_generic(space, lanes, d, out);
        return;
    }
    lane_owners_chunked(
        lanes,
        d,
        out,
        KdPoint { coords: [0.0; K] },
        KdPoint::random,
        |points, chunk| sites.owners_into(points, chunk),
    );
}

/// The division draw of every torus space: a probe in the slab
/// `[j/d, (j+1)/d)` along the first axis (a vertical strip on the 2-D
/// torus), the remaining coordinates uniform.
fn kd_owner_in_division<const K: usize, R: Rng + ?Sized>(
    sites: &KdSites<K>,
    rng: &mut R,
    j: usize,
    d: usize,
) -> usize {
    assert!(d > 0 && j < d, "division {j} of {d}");
    let mut coords = [0.0f64; K];
    coords[0] = (j as f64 + rng.gen::<f64>()) / d as f64;
    for c in coords.iter_mut().skip(1) {
        *c = rng.gen::<f64>();
    }
    sites.owner(&KdPoint::new(coords))
}

/// The paper's Section 3 space: `n` random sites on the unit torus; bins
/// are their Voronoi cells.
///
/// It probes exactly like [`KdTorusSpace<2>`] (the same site set and the
/// same draw code); it differs in its region sizes and its construction
/// stream. Cell areas (needed only by the region-size tie-breaks) are
/// exact, computed lazily on first use and cached: the construction
/// costs `O(1)` expected clips per cell but is unnecessary for the
/// random/leftmost tie-breaks the headline tables use. [`Self::random`]
/// draws the sites and nothing else, where [`KdTorusSpace::random`]
/// draws a Monte-Carlo volume seed first.
#[derive(Debug)]
pub struct TorusSpace {
    sites: KdSites<2>,
    areas: OnceLock<Vec<f64>>,
}

impl TorusSpace {
    /// Places `n` sites uniformly at random.
    #[must_use]
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        Self::from_sites(KdSites::random(n, rng))
    }

    /// Wraps an existing site set.
    #[must_use]
    pub fn from_sites(sites: KdSites<2>) -> Self {
        Self {
            sites,
            areas: OnceLock::new(),
        }
    }

    /// The underlying site set.
    #[must_use]
    pub fn sites(&self) -> &KdSites<2> {
        &self.sites
    }

    fn areas(&self) -> &[f64] {
        self.areas.get_or_init(|| self.sites.cell_areas())
    }
}

impl Space for TorusSpace {
    fn num_servers(&self) -> usize {
        self.sites.len()
    }

    fn sample_owner<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.sites.owner(&KdPoint::random(rng))
    }

    fn sample_owners_lanes<L: LaneSource>(&self, lanes: &L, d: usize, out: &mut [usize]) {
        kd_owners_lanes(self, &self.sites, lanes, d, out);
    }

    fn sample_owner_in_division<R: Rng + ?Sized>(&self, rng: &mut R, j: usize, d: usize) -> usize {
        kd_owner_in_division(&self.sites, rng, j, d)
    }

    fn region_size(&self, server: usize) -> f64 {
        self.areas()[server]
    }

    fn position_key(&self, server: usize) -> f64 {
        self.sites.point(server).coords[0]
    }
}

// ---------------------------------------------------------------------------
// k-dimensional torus (Section 3, footnote 3: "higher constant dimension")
// ---------------------------------------------------------------------------

/// The `K`-dimensional generalization: `n` random sites on the unit
/// `K`-torus, bins are their Voronoi cells (experiment E13).
///
/// Region sizes (used only by the region tie-breaks) are Monte-Carlo
/// estimates computed lazily from a deterministic internal stream —
/// exact polytope volumes in `K > 2` dimensions are out of scope.
#[derive(Debug)]
pub struct KdTorusSpace<const K: usize> {
    sites: KdSites<K>,
    volumes: OnceLock<Vec<f64>>,
    volume_seed: u64,
}

impl<const K: usize> KdTorusSpace<K> {
    /// Samples per site used by the lazy Monte-Carlo volume estimator.
    const VOLUME_SAMPLES_PER_SITE: usize = 64;

    /// Places `n` sites uniformly at random.
    #[must_use]
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        let volume_seed = rng.gen::<u64>();
        Self {
            sites: KdSites::random(n, rng),
            volumes: OnceLock::new(),
            volume_seed,
        }
    }

    /// The underlying site set.
    #[must_use]
    pub fn sites(&self) -> &KdSites<K> {
        &self.sites
    }

    fn volumes(&self) -> &[f64] {
        self.volumes.get_or_init(|| {
            let mut rng = geo2c_util::rng::Xoshiro256pp::from_u64(self.volume_seed);
            self.sites
                .mc_cell_volumes(Self::VOLUME_SAMPLES_PER_SITE * self.sites.len(), &mut rng)
        })
    }
}

impl<const K: usize> Space for KdTorusSpace<K> {
    fn num_servers(&self) -> usize {
        self.sites.len()
    }

    fn sample_owner<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.sites.owner(&KdPoint::random(rng))
    }

    fn sample_owners_lanes<L: LaneSource>(&self, lanes: &L, d: usize, out: &mut [usize]) {
        kd_owners_lanes(self, &self.sites, lanes, d, out);
    }

    fn sample_owner_in_division<R: Rng + ?Sized>(&self, rng: &mut R, j: usize, d: usize) -> usize {
        kd_owner_in_division(&self.sites, rng, j, d)
    }

    fn region_size(&self, server: usize) -> f64 {
        self.volumes()[server]
    }

    fn position_key(&self, server: usize) -> f64 {
        self.sites.point(server).coords[0]
    }
}

// ---------------------------------------------------------------------------
// Enum dispatch for the experiment binaries
// ---------------------------------------------------------------------------

/// Which geometry to build (CLI-friendly enum for the bench binaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpaceKind {
    /// Classical uniform bins.
    Uniform,
    /// Random arcs on the unit circle (Table 1).
    Ring,
    /// Random Voronoi cells on the unit torus (Table 2).
    Torus,
}

impl SpaceKind {
    /// Builds a fresh random space of this kind with `n` servers.
    #[must_use]
    pub fn build<R: Rng + ?Sized>(self, n: usize, rng: &mut R) -> AnySpace {
        match self {
            SpaceKind::Uniform => AnySpace::Uniform(UniformSpace::new(n)),
            SpaceKind::Ring => AnySpace::Ring(RingSpace::random(n, rng)),
            SpaceKind::Torus => AnySpace::Torus(TorusSpace::random(n, rng)),
        }
    }

    /// Human-readable name used in table headers.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpaceKind::Uniform => "uniform",
            SpaceKind::Ring => "ring",
            SpaceKind::Torus => "torus",
        }
    }
}

/// Enum-dispatched space so binaries can pick geometry at runtime.
#[derive(Debug)]
pub enum AnySpace {
    /// Classical uniform bins.
    Uniform(UniformSpace),
    /// Random arcs.
    Ring(RingSpace),
    /// Random Voronoi cells.
    Torus(TorusSpace),
}

impl Space for AnySpace {
    fn num_servers(&self) -> usize {
        match self {
            AnySpace::Uniform(s) => s.num_servers(),
            AnySpace::Ring(s) => s.num_servers(),
            AnySpace::Torus(s) => s.num_servers(),
        }
    }

    fn sample_owner<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        match self {
            AnySpace::Uniform(s) => s.sample_owner(rng),
            AnySpace::Ring(s) => s.sample_owner(rng),
            AnySpace::Torus(s) => s.sample_owner(rng),
        }
    }

    fn sample_owners_lanes<L: LaneSource>(&self, lanes: &L, d: usize, out: &mut [usize]) {
        // Dispatch once per cross-ball block, not once per probe.
        match self {
            AnySpace::Uniform(s) => s.sample_owners_lanes(lanes, d, out),
            AnySpace::Ring(s) => s.sample_owners_lanes(lanes, d, out),
            AnySpace::Torus(s) => s.sample_owners_lanes(lanes, d, out),
        }
    }

    fn sample_owner_in_division<R: Rng + ?Sized>(&self, rng: &mut R, j: usize, d: usize) -> usize {
        match self {
            AnySpace::Uniform(s) => s.sample_owner_in_division(rng, j, d),
            AnySpace::Ring(s) => s.sample_owner_in_division(rng, j, d),
            AnySpace::Torus(s) => s.sample_owner_in_division(rng, j, d),
        }
    }

    fn region_size(&self, server: usize) -> f64 {
        match self {
            AnySpace::Uniform(s) => s.region_size(server),
            AnySpace::Ring(s) => s.region_size(server),
            AnySpace::Torus(s) => s.region_size(server),
        }
    }

    fn position_key(&self, server: usize) -> f64 {
        match self {
            AnySpace::Uniform(s) => s.position_key(server),
            AnySpace::Ring(s) => s.position_key(server),
            AnySpace::Torus(s) => s.position_key(server),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo2c_util::rng::Xoshiro256pp;

    fn hit_rates<S: Space>(space: &S, samples: usize, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256pp::from_u64(seed);
        let mut hits = vec![0u64; space.num_servers()];
        for _ in 0..samples {
            hits[space.sample_owner(&mut rng)] += 1;
        }
        hits.iter().map(|&h| h as f64 / samples as f64).collect()
    }

    #[test]
    fn uniform_space_probes_all_bins_equally() {
        let space = UniformSpace::new(16);
        let rates = hit_rates(&space, 160_000, 1);
        for (i, r) in rates.iter().enumerate() {
            assert!((r - 1.0 / 16.0).abs() < 0.005, "bin {i}: {r}");
            assert!((space.region_size(i) - 1.0 / 16.0).abs() < 1e-12);
        }
    }

    #[test]
    fn ring_space_hit_rates_match_region_sizes() {
        let mut rng = Xoshiro256pp::from_u64(2);
        let space = RingSpace::random(8, &mut rng);
        let rates = hit_rates(&space, 200_000, 3);
        let total: f64 = (0..8).map(|i| space.region_size(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for (i, &rate) in rates.iter().enumerate() {
            assert!(
                (rate - space.region_size(i)).abs() < 0.01,
                "server {i}: rate {rate} vs size {}",
                space.region_size(i)
            );
        }
    }

    #[test]
    fn torus_space_hit_rates_match_region_sizes() {
        let mut rng = Xoshiro256pp::from_u64(4);
        let space = TorusSpace::random(8, &mut rng);
        let rates = hit_rates(&space, 200_000, 5);
        let total: f64 = (0..8).map(|i| space.region_size(i)).sum();
        assert!((total - 1.0).abs() < 1e-7);
        for (i, &rate) in rates.iter().enumerate() {
            assert!(
                (rate - space.region_size(i)).abs() < 0.01,
                "server {i}: rate {rate} vs size {}",
                space.region_size(i)
            );
        }
    }

    #[test]
    fn divisions_partition_the_ring() {
        // Sampling from division j must land in arcs intersecting
        // [j/d, (j+1)/d); with d divisions, union of owners over many
        // samples covers all servers, and each division's owners own arcs
        // overlapping the sub-interval.
        let mut rng = Xoshiro256pp::from_u64(6);
        let space = RingSpace::random(32, &mut rng);
        let d = 4;
        for j in 0..d {
            for _ in 0..200 {
                let owner = space.sample_owner_in_division(&mut rng, j, d);
                assert!(owner < 32);
            }
        }
    }

    #[test]
    fn uniform_divisions_use_index_ranges() {
        let space = UniformSpace::new(100);
        let mut rng = Xoshiro256pp::from_u64(7);
        for j in 0..4 {
            for _ in 0..200 {
                let owner = space.sample_owner_in_division(&mut rng, j, 4);
                assert!(owner >= j * 25 && owner < (j + 1) * 25, "j={j}: {owner}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "division")]
    fn division_bounds_checked() {
        let space = UniformSpace::new(8);
        let mut rng = Xoshiro256pp::from_u64(8);
        let _ = space.sample_owner_in_division(&mut rng, 3, 3);
    }

    #[test]
    fn torus_division_lands_in_strip() {
        let mut rng = Xoshiro256pp::from_u64(9);
        // A 2-site torus split left/right at x=0.25 / 0.75: probes from
        // division 0 (x ∈ [0, 0.5)) should mostly hit site 0.
        let sites =
            KdSites::from_points(vec![KdPoint::new([0.25, 0.5]), KdPoint::new([0.75, 0.5])]);
        let space = TorusSpace::from_sites(sites);
        let mut hits0 = 0;
        for _ in 0..1000 {
            if space.sample_owner_in_division(&mut rng, 0, 2) == 0 {
                hits0 += 1;
            }
        }
        assert_eq!(hits0, 1000, "strip [0,0.5) is exactly site 0's cell");
    }

    #[test]
    fn space_kind_parse_and_build() {
        let mut rng = Xoshiro256pp::from_u64(10);
        for (name, kind) in [
            ("uniform", SpaceKind::Uniform),
            ("ring", SpaceKind::Ring),
            ("torus", SpaceKind::Torus),
        ] {
            assert_eq!(kind.name(), name);
            let space = kind.build(4, &mut rng);
            assert_eq!(space.num_servers(), 4);
        }
    }

    #[test]
    fn any_space_delegates() {
        let mut rng = Xoshiro256pp::from_u64(11);
        let space = SpaceKind::Ring.build(16, &mut rng);
        let total: f64 = (0..16).map(|i| space.region_size(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let owner = space.sample_owner(&mut rng);
        assert!(owner < 16);
        let key = space.position_key(owner);
        assert!((0.0..1.0).contains(&key));
    }

    #[test]
    fn kd_space_hit_rates_match_mc_volumes() {
        let mut rng = Xoshiro256pp::from_u64(20);
        let space = KdTorusSpace::<3>::random(8, &mut rng);
        let rates = hit_rates(&space, 100_000, 21);
        let total: f64 = (0..8).map(|i| space.region_size(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for (i, &rate) in rates.iter().enumerate() {
            // Both are MC estimates; compare loosely.
            assert!(
                (rate - space.region_size(i)).abs() < 0.03,
                "site {i}: rate {rate} vs volume {}",
                space.region_size(i)
            );
        }
    }

    #[test]
    fn kd_space_two_choices_beat_one() {
        use crate::sim::run_trial;
        use crate::strategy::Strategy;
        let n = 512;
        let mut one_total = 0u64;
        let mut two_total = 0u64;
        for seed in 0..10 {
            let mut rng = Xoshiro256pp::from_u64(400 + seed);
            let space = KdTorusSpace::<3>::random(n, &mut rng);
            one_total +=
                u64::from(run_trial(&space, &Strategy::one_choice(), n, &mut rng).max_load);
            two_total +=
                u64::from(run_trial(&space, &Strategy::two_choice(), n, &mut rng).max_load);
        }
        assert!(
            two_total < one_total,
            "3-torus: d=2 {two_total} !< d=1 {one_total}"
        );
    }

    #[test]
    fn kd_space_division_uses_first_axis_slab() {
        let mut rng = Xoshiro256pp::from_u64(22);
        let space = KdTorusSpace::<2>::random(64, &mut rng);
        for j in 0..4 {
            for _ in 0..100 {
                let owner = space.sample_owner_in_division(&mut rng, j, 4);
                assert!(owner < 64);
            }
        }
    }

    #[test]
    fn lane_sampling_matches_generic_reference() {
        // Every fast sample_owners_lanes override must produce exactly
        // the owners of the generic per-probe loop on the same lanes —
        // across chunk boundaries and for d that does not divide the
        // chunk budget. (The exhaustive property test lives in
        // tests/lane_equivalence.rs; this pins the overrides directly.)
        use geo2c_util::rng::BallLanes;
        let mut rng = Xoshiro256pp::from_u64(33);
        let lanes = BallLanes::new(99).block(7);
        for kind in [SpaceKind::Uniform, SpaceKind::Ring, SpaceKind::Torus] {
            let space = kind.build(64, &mut rng);
            for d in [1usize, 2, 3, 5] {
                let balls = 101; // crosses several LANE_BLOCK chunks
                let mut fast = vec![0usize; balls * d];
                let mut slow = vec![0usize; balls * d];
                space.sample_owners_lanes(&lanes, d, &mut fast);
                lane_owners_generic(&space, &lanes, d, &mut slow);
                assert_eq!(fast, slow, "{kind:?} d={d}");
            }
        }
        let space = KdTorusSpace::<3>::random(64, &mut rng);
        for d in [1usize, 2, 4] {
            let mut fast = vec![0usize; 101 * d];
            let mut slow = vec![0usize; 101 * d];
            space.sample_owners_lanes(&lanes, d, &mut fast);
            lane_owners_generic(&space, &lanes, d, &mut slow);
            assert_eq!(fast, slow, "kd3 d={d}");
        }
    }

    #[test]
    fn position_keys_are_distinct_for_ring() {
        let mut rng = Xoshiro256pp::from_u64(12);
        let space = RingSpace::random(64, &mut rng);
        let mut keys: Vec<f64> = (0..64).map(|i| space.position_key(i)).collect();
        keys.sort_by(|a, b| a.partial_cmp(b).unwrap());
        keys.dedup();
        assert_eq!(keys.len(), 64);
    }
}
