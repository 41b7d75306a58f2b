//! The random arc partition: `n` servers on the circle and the bins they
//! induce.
//!
//! [`RingPartition`] is the substrate of the paper's Theorem 1: server
//! positions are sorted once at construction, and every point-to-owner
//! query is answered in `O(1)` expected time by a bucket-index accelerant
//! over the sorted positions (jump to the probe's bucket, scan forward a
//! few slots; a bounded linear scan falls back to binary search on
//! adversarially clustered inputs, so the worst case stays `O(log n)`).
//! [`RingPartition::successor_index_binary`] keeps the plain
//! `partition_point` binary search as the oracle the property tests pin
//! the fast path against. Two ownership conventions are provided:
//!
//! * [`Ownership::Successor`] — a point belongs to the first server at or
//!   after it in the clockwise direction. This is the consistent-hashing /
//!   Chord convention, and (up to reflection) the paper's "counterclockwise
//!   arc" convention: server `i` owns the arc `(p_{i-1}, p_i]`, whose length
//!   is the gap to its predecessor.
//! * [`Ownership::Nearest`] — a point belongs to the closest server under
//!   the symmetric ring distance, i.e. the 1-D Voronoi cell
//!   `(p_i − g_prev/2, p_i + g_next/2]`.
//!
//! Every distributional statement in the paper is invariant under the choice
//! (both make the bin-size vector a function of the i.i.d. uniform gaps);
//! the experiments default to `Successor` to match the DHT application.

use crate::point::RingPoint;
use rand::Rng;

/// How a probe point on the circle is mapped to an owning server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Ownership {
    /// Clockwise successor (consistent hashing / Chord; the paper's arcs).
    #[default]
    Successor,
    /// Symmetric nearest neighbour (1-D Voronoi cells).
    Nearest,
}

/// `n` servers placed on the unit circle, with `O(log n)` ownership queries
/// and per-server region sizes.
#[derive(Debug, Clone)]
pub struct RingPartition {
    /// Server positions, sorted ascending by coordinate. Index in this
    /// vector is the server id used throughout the workspace.
    positions: Vec<RingPoint>,
    /// Raw coordinates of `positions` (structure-of-arrays copy): the
    /// successor scan touches only this dense `f64` array.
    coords: Vec<f64>,
    /// Bucket accelerant: `bucket_first[b]` is the first index `i` with
    /// `coords[i] ≥ b / B` for `B = bucket_first.len() − 1 = n` buckets
    /// (`bucket_first[B] == n`). A successor query jumps here and scans.
    bucket_first: Vec<u32>,
}

impl RingPartition {
    /// Forward-scan budget before [`Self::successor_index`] falls back to
    /// binary search (only reachable on heavily clustered positions).
    const SCAN_LIMIT: usize = 16;

    /// Places `n ≥ 1` servers independently and uniformly at random.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[must_use]
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        assert!(n > 0, "a ring partition needs at least one server");
        let mut positions: Vec<RingPoint> = (0..n).map(|_| RingPoint::random(rng)).collect();
        positions.sort();
        Self::index(positions)
    }

    /// Builds a partition from explicit positions (sorted internally).
    ///
    /// # Panics
    /// Panics if `positions` is empty.
    #[must_use]
    pub fn from_positions(mut positions: Vec<RingPoint>) -> Self {
        assert!(
            !positions.is_empty(),
            "a ring partition needs at least one server"
        );
        positions.sort();
        Self::index(positions)
    }

    /// Builds the bucket accelerant over already-sorted positions.
    fn index(positions: Vec<RingPoint>) -> Self {
        let n = positions.len();
        assert!(u32::try_from(n).is_ok(), "too many servers");
        let coords: Vec<f64> = positions.iter().map(|p| p.coord()).collect();
        let mut bucket_first = vec![0u32; n + 1];
        let mut i = 0usize;
        for (b, slot) in bucket_first.iter_mut().enumerate() {
            let lo = b as f64 / n as f64;
            while i < n && coords[i] < lo {
                i += 1;
            }
            *slot = i as u32;
        }
        Self {
            positions,
            coords,
            bucket_first,
        }
    }

    /// Number of servers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Always false: construction requires at least one server.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// All server positions in ascending order.
    #[must_use]
    pub fn positions(&self) -> &[RingPoint] {
        &self.positions
    }

    /// Position of server `i`.
    #[must_use]
    pub fn position(&self, i: usize) -> RingPoint {
        self.positions[i]
    }

    /// Index of the clockwise successor of `p`: the first server at
    /// coordinate ≥ `p`, wrapping to server 0 past the top of the circle.
    ///
    /// `O(1)` expected time for random positions: jump to the probe's
    /// bucket (one bucket per server on average) and scan forward; a
    /// bounded scan falls back to binary search so clustered layouts stay
    /// `O(log n)`. Always equal to [`Self::successor_index_binary`]
    /// (pinned by the property tests in `tests/successor_equivalence.rs`).
    #[must_use]
    pub fn successor_index(&self, p: RingPoint) -> usize {
        let start = self.bucket_start(p.coord());
        self.finish_scan(p.coord(), start)
    }

    /// The bucket-accelerant's first stage: the index of the first
    /// position in the coordinate `x`'s bucket. Shared by the per-point
    /// query and the staged batch so the two can never drift.
    #[inline]
    fn bucket_start(&self, x: f64) -> usize {
        let n = self.coords.len();
        let mut b = ((x * n as f64) as usize).min(n - 1);
        // floor(x·n) can land a bucket high after FP rounding; the
        // invariant we rely on is fl(b/n) ≤ x, checked with the exact
        // expression the index was built from (≤ 1 step in practice).
        while b > 0 && b as f64 / n as f64 > x {
            b -= 1;
        }
        self.bucket_first[b] as usize
    }

    /// The bucket-accelerant's second stage: the bounded forward scan
    /// from `start` (with the binary-search fallback for dense clusters)
    /// yielding the successor index of coordinate `x`. Shared by the
    /// per-point query and the staged batch.
    #[inline]
    fn finish_scan(&self, x: f64, start: usize) -> usize {
        let n = self.coords.len();
        let mut i = start;
        let end = (i + Self::SCAN_LIMIT).min(n);
        while i < end && self.coords[i] < x {
            i += 1;
        }
        if i == end && i < n && self.coords[i] < x {
            // Dense cluster in this bucket: finish with binary search.
            i += self.coords[i..].partition_point(|&c| c < x);
        }
        if i == n {
            0
        } else {
            i
        }
    }

    /// Batched [`Self::successor_index`]: writes the successor of
    /// `points[j]` into `out[j]`, exactly equal to the per-point query
    /// (pinned by `tests/successor_equivalence.rs`).
    ///
    /// The point of the batch is *memory-level parallelism*, not fewer
    /// instructions: a single query chains two dependent DRAM accesses
    /// (`bucket_first[b]`, then `coords[start..]`), so a loop of
    /// independent queries is latency-bound once `n` outgrows the cache.
    /// The batch splits the chain into per-block passes — gather every
    /// query's bucket start, touch every scan's first `coords` line
    /// (both loops are pure independent loads the out-of-order core
    /// overlaps), then finish the scans against warm lines.
    ///
    /// # Panics
    /// Panics if `points.len() != out.len()`.
    pub fn successor_indices_into(&self, points: &[RingPoint], out: &mut [usize]) {
        assert_eq!(points.len(), out.len(), "output sized for the points");
        /// Queries staged per pass: 128 warm lines ≤ 8 KiB, safely L1.
        const BATCH: usize = 128;
        let n = self.coords.len();
        let mut starts = [0u32; BATCH];
        for (pts, outs) in points.chunks(BATCH).zip(out.chunks_mut(BATCH)) {
            // Pass 1: bucket index arithmetic + one independent gather of
            // bucket_first per query.
            for (start, p) in starts.iter_mut().zip(pts.iter()) {
                *start = self.bucket_start(p.coord()) as u32;
            }
            // Pass 2: touch the first coords line of every scan — the
            // loads are independent now that the starts are known, so
            // their misses overlap instead of serializing per query.
            let mut warm = 0.0f64;
            for &start in &starts[..pts.len()] {
                warm += self.coords[(start as usize).min(n - 1)];
            }
            std::hint::black_box(warm);
            // Pass 3: finish each scan against warm lines.
            for ((slot, p), &start) in outs.iter_mut().zip(pts.iter()).zip(starts.iter()) {
                *slot = self.finish_scan(p.coord(), start as usize);
            }
        }
    }

    /// Batched [`Self::owner`]: the staged successor batch for
    /// [`Ownership::Successor`]; the per-point query in a plain loop for
    /// [`Ownership::Nearest`] (not on the simulation hot path).
    ///
    /// # Panics
    /// Panics if `points.len() != out.len()`.
    pub fn owners_into(&self, points: &[RingPoint], ownership: Ownership, out: &mut [usize]) {
        match ownership {
            Ownership::Successor => self.successor_indices_into(points, out),
            Ownership::Nearest => {
                assert_eq!(points.len(), out.len(), "output sized for the points");
                for (slot, &p) in out.iter_mut().zip(points.iter()) {
                    *slot = self.nearest_index(p);
                }
            }
        }
    }

    /// The plain `partition_point` binary search (`O(log n)`): the oracle
    /// [`Self::successor_index`] is validated against, kept for tests,
    /// ablation benches, and as a reference implementation.
    #[must_use]
    pub fn successor_index_binary(&self, p: RingPoint) -> usize {
        let idx = self.positions.partition_point(|s| s.coord() < p.coord());
        if idx == self.positions.len() {
            0
        } else {
            idx
        }
    }

    /// Index of the server nearest to `p` under the symmetric ring
    /// distance. Ties (equidistant predecessor/successor) go to the
    /// successor, deterministically.
    #[must_use]
    pub fn nearest_index(&self, p: RingPoint) -> usize {
        let n = self.positions.len();
        if n == 1 {
            return 0;
        }
        let succ = self.successor_index(p);
        let pred = (succ + n - 1) % n;
        let d_succ = p.distance(self.positions[succ]);
        let d_pred = p.distance(self.positions[pred]);
        if d_pred < d_succ {
            pred
        } else {
            succ
        }
    }

    /// Owner of `p` under the given convention.
    #[must_use]
    pub fn owner(&self, p: RingPoint, ownership: Ownership) -> usize {
        match ownership {
            Ownership::Successor => self.successor_index(p),
            Ownership::Nearest => self.nearest_index(p),
        }
    }

    /// Length of the arc `(p_{i-1}, p_i]` owned by server `i` under
    /// [`Ownership::Successor`]; the full circle when `n == 1`.
    #[must_use]
    pub fn arc_length(&self, i: usize) -> f64 {
        let n = self.positions.len();
        if n == 1 {
            return 1.0;
        }
        let pred = (i + n - 1) % n;
        let gap = self.positions[pred].clockwise_to(self.positions[i]);
        // Adjacent duplicates make a zero gap; the wrap gap of the first
        // server after the last is what clockwise_to already returns.
        if i == 0 && gap == 0.0 && self.positions[pred] == self.positions[i] {
            // All servers at one point: server 0 owns everything.
            return if self.positions.iter().all(|&q| q == self.positions[0]) {
                1.0
            } else {
                0.0
            };
        }
        gap
    }

    /// All successor-arc lengths, indexed by server. Sums to 1.
    #[must_use]
    pub fn arc_lengths(&self) -> Vec<f64> {
        (0..self.len()).map(|i| self.arc_length(i)).collect()
    }

    /// Size of the region owned by server `i` under `ownership`:
    /// the successor arc, or the 1-D Voronoi cell (half of each adjacent
    /// gap). Both variants sum to 1 over all servers.
    #[must_use]
    pub fn region_size(&self, i: usize, ownership: Ownership) -> f64 {
        match ownership {
            Ownership::Successor => self.arc_length(i),
            Ownership::Nearest => {
                let n = self.positions.len();
                if n == 1 {
                    return 1.0;
                }
                let next = (i + 1) % n;
                let g_prev = self.arc_length(i);
                let g_next = self.positions[i].clockwise_to(self.positions[next]);
                let g_next = if next == i { 1.0 } else { g_next };
                (g_prev + g_next) / 2.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo2c_util::rng::Xoshiro256pp;

    fn fixed() -> RingPartition {
        RingPartition::from_positions(vec![
            RingPoint::new(0.1),
            RingPoint::new(0.4),
            RingPoint::new(0.8),
        ])
    }

    #[test]
    fn successor_basic_and_wrap() {
        let part = fixed();
        assert_eq!(part.successor_index(RingPoint::new(0.05)), 0);
        assert_eq!(part.successor_index(RingPoint::new(0.1)), 0); // closed at server
        assert_eq!(part.successor_index(RingPoint::new(0.2)), 1);
        assert_eq!(part.successor_index(RingPoint::new(0.75)), 2);
        assert_eq!(part.successor_index(RingPoint::new(0.9)), 0); // wraps
    }

    #[test]
    fn nearest_basic_and_wrap() {
        let part = fixed();
        assert_eq!(part.nearest_index(RingPoint::new(0.12)), 0);
        assert_eq!(part.nearest_index(RingPoint::new(0.3)), 1);
        assert_eq!(part.nearest_index(RingPoint::new(0.97)), 0); // 0.13 to 0.1 via wrap vs 0.17 to 0.8
        assert_eq!(part.nearest_index(RingPoint::new(0.92)), 2);
    }

    #[test]
    fn arc_lengths_sum_to_one() {
        let mut rng = Xoshiro256pp::from_u64(5);
        for n in [1usize, 2, 3, 17, 256] {
            let part = RingPartition::random(n, &mut rng);
            let total: f64 = part.arc_lengths().iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "n={n}: arcs sum to {total}");
        }
    }

    #[test]
    fn voronoi_regions_sum_to_one() {
        let mut rng = Xoshiro256pp::from_u64(6);
        for n in [1usize, 2, 5, 64] {
            let part = RingPartition::random(n, &mut rng);
            let total: f64 = (0..n)
                .map(|i| part.region_size(i, Ownership::Nearest))
                .sum();
            assert!((total - 1.0).abs() < 1e-9, "n={n}: cells sum to {total}");
        }
    }

    #[test]
    fn fixed_arc_lengths() {
        let part = fixed();
        let arcs = part.arc_lengths();
        // Server 0 at 0.1 owns (0.8, 0.1]: length 0.3 (wrap).
        assert!((arcs[0] - 0.3).abs() < 1e-12);
        assert!((arcs[1] - 0.3).abs() < 1e-12);
        assert!((arcs[2] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn single_server_owns_everything() {
        let part = RingPartition::from_positions(vec![RingPoint::new(0.5)]);
        assert_eq!(part.successor_index(RingPoint::new(0.99)), 0);
        assert_eq!(part.nearest_index(RingPoint::new(0.0)), 0);
        assert_eq!(part.arc_length(0), 1.0);
        assert_eq!(part.region_size(0, Ownership::Nearest), 1.0);
    }

    #[test]
    fn successor_matches_linear_scan() {
        let mut rng = Xoshiro256pp::from_u64(7);
        let part = RingPartition::random(50, &mut rng);
        for _ in 0..2000 {
            let p = RingPoint::random(&mut rng);
            let fast = part.successor_index(p);
            // Brute force: the server whose arc (pred, pos] contains p.
            let slow = (0..part.len())
                .min_by(|&a, &b| {
                    p.clockwise_to(part.position(a))
                        .partial_cmp(&p.clockwise_to(part.position(b)))
                        .unwrap()
                })
                .unwrap();
            assert_eq!(fast, slow, "at {}", p.coord());
        }
    }

    #[test]
    fn nearest_matches_linear_scan() {
        let mut rng = Xoshiro256pp::from_u64(8);
        let part = RingPartition::random(50, &mut rng);
        for _ in 0..2000 {
            let p = RingPoint::random(&mut rng);
            let fast = part.nearest_index(p);
            let slow_dist = (0..part.len())
                .map(|i| p.distance(part.position(i)))
                .fold(f64::INFINITY, f64::min);
            assert!(
                (p.distance(part.position(fast)) - slow_dist).abs() < 1e-12,
                "nearest mismatch at {}",
                p.coord()
            );
        }
    }

    #[test]
    fn region_fractions_match_hit_rates() {
        // Monte-Carlo: the empirical probability of hitting each region
        // should approximate its size, for both ownership conventions.
        let mut rng = Xoshiro256pp::from_u64(9);
        let part = RingPartition::random(8, &mut rng);
        for ownership in [Ownership::Successor, Ownership::Nearest] {
            let mut hits = vec![0u32; part.len()];
            let samples = 200_000;
            for _ in 0..samples {
                hits[part.owner(RingPoint::random(&mut rng), ownership)] += 1;
            }
            for (i, &h) in hits.iter().enumerate() {
                let expected = part.region_size(i, ownership);
                let got = f64::from(h) / f64::from(samples);
                assert!(
                    (got - expected).abs() < 0.01,
                    "{ownership:?} server {i}: size {expected} vs hit rate {got}"
                );
            }
        }
    }

    #[test]
    fn fast_successor_matches_binary_oracle() {
        let mut rng = Xoshiro256pp::from_u64(11);
        for n in [1usize, 2, 3, 50, 1000] {
            let part = RingPartition::random(n, &mut rng);
            for _ in 0..2000 {
                let p = RingPoint::random(&mut rng);
                assert_eq!(
                    part.successor_index(p),
                    part.successor_index_binary(p),
                    "n={n} at {p}"
                );
            }
            // Probe exactly at and adjacent to every server position.
            for i in 0..n {
                for delta in [-1e-12, 0.0, 1e-12] {
                    let p = part.position(i).offset(delta);
                    assert_eq!(part.successor_index(p), part.successor_index_binary(p));
                }
            }
        }
    }

    #[test]
    fn clustered_positions_hit_the_binary_fallback() {
        // 200 servers packed into one bucket-width: the forward scan
        // exceeds SCAN_LIMIT and must fall back without losing exactness.
        let mut rng = Xoshiro256pp::from_u64(12);
        let mut positions: Vec<RingPoint> = (0..200)
            .map(|i| RingPoint::new(0.5 + 1e-6 * i as f64))
            .collect();
        positions.push(RingPoint::new(0.1));
        let part = RingPartition::from_positions(positions);
        for _ in 0..2000 {
            let p = RingPoint::random(&mut rng);
            assert_eq!(part.successor_index(p), part.successor_index_binary(p));
        }
        for i in 0..part.len() {
            let p = part.position(i);
            assert_eq!(part.successor_index(p), part.successor_index_binary(p));
        }
    }

    #[test]
    fn duplicate_positions_resolve_identically() {
        let part = RingPartition::from_positions(vec![
            RingPoint::new(0.25),
            RingPoint::new(0.25),
            RingPoint::new(0.25),
            RingPoint::new(0.75),
        ]);
        for x in [0.0, 0.25, 0.2500001, 0.5, 0.75, 0.9] {
            let p = RingPoint::new(x);
            assert_eq!(
                part.successor_index(p),
                part.successor_index_binary(p),
                "{x}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let mut rng = Xoshiro256pp::from_u64(1);
        let _ = RingPartition::random(0, &mut rng);
    }
}
