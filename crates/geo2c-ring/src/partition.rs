//! The random arc partition: `n` servers on the circle and the bins they
//! induce.
//!
//! [`RingPartition`] is the substrate of the paper's Theorem 1: server
//! positions are sorted once at construction, and every point-to-owner
//! query is answered in `O(1)` expected time by a bucket-index accelerant
//! over the sorted positions. There are `n` buckets, and a coordinate's
//! bucket is the integer floor `⌊⌊x·2^64⌋·n / 2^64⌋`: one float scale
//! that is exact, a cast, and a 64×64-bit multiply, with no division and
//! no rounding guard. The index is built with the same function, so the
//! two always agree. A query jumps to its bucket's first server and
//! counts how many of the next four lie below it, branch-free. A bounded
//! scan continues past them, and binary search takes over on
//! adversarially clustered inputs, so the worst case stays `O(log n)`.
//! [`RingPartition::successor_index_binary`] keeps the plain
//! `partition_point` binary search as the oracle the property tests pin
//! the fast path against.
//!
//! One ownership convention is provided, the paper's: a point belongs to
//! the first server at or after it in the clockwise direction. This is
//! the consistent-hashing / Chord convention and (up to reflection) the
//! paper's "counterclockwise arc" convention: server `i` owns the arc
//! `(p_{i-1}, p_i]`, whose length is the gap to its predecessor. The
//! nearest-site circle (1-D Voronoi cells) is `geo2c_torus::KdSites<1>`.

use crate::point::RingPoint;
use rand::Rng;
use std::cmp::Ordering;

/// `n` servers placed on the unit circle, with `O(1)`-expected successor
/// queries and per-server arc lengths.
#[derive(Debug, Clone)]
pub struct RingPartition {
    /// Server coordinates, sorted ascending. Index in this vector is the
    /// server id used throughout the workspace.
    coords: Vec<f64>,
    /// Bucket accelerant: `bucket_first[b]` is the first index `i` with
    /// `bucket_of(coords[i], n) ≥ b`, for `n` buckets
    /// (`bucket_first[n] == n`). A successor query jumps here and scans.
    bucket_first: Vec<u32>,
}

/// The bucket of coordinate `x ∈ [0, 1)` among `n` buckets, in integer
/// arithmetic: `⌊⌊x·2^64⌋ · n / 2^64⌋`.
///
/// Scaling by 2^64 is exact, so the cast takes the exact floor of
/// `x·2^64` (a coordinate at or above 1 would saturate to bucket
/// `n − 1`). For `x ≥ 2^-12`, where `x·2^64` is an integer, the result
/// is exactly `⌊x·n⌋`; below that it may be one less. Either way the
/// map is non-decreasing in `x`, which is all the index needs: a server
/// in a lower bucket than the probe lies strictly below it.
#[inline]
fn bucket_of(x: f64, n: usize) -> usize {
    /// 2^64, exactly.
    const SCALE: f64 = 18_446_744_073_709_551_616.0;
    ((u128::from((x * SCALE) as u64) * n as u128) >> 64) as usize
}

impl RingPartition {
    /// Forward-scan budget before [`Self::successor_index`] falls back to
    /// binary search (only reachable on heavily clustered positions).
    const SCAN_LIMIT: usize = 16;

    /// Slots at the start of a bucket that [`Self::finish_scan`] resolves
    /// with one count instead of a loop.
    const HEAD: usize = 4;

    /// Places `n ≥ 1` servers independently and uniformly at random.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[must_use]
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        assert!(n > 0, "a ring partition needs at least one server");
        Self::index((0..n).map(|_| RingPoint::random(rng).coord()).collect())
    }

    /// Builds a partition from explicit positions (sorted internally).
    ///
    /// # Panics
    /// Panics if `positions` is empty.
    #[must_use]
    pub fn from_positions(positions: Vec<RingPoint>) -> Self {
        assert!(
            !positions.is_empty(),
            "a ring partition needs at least one server"
        );
        Self::index(positions.into_iter().map(RingPoint::coord).collect())
    }

    /// Sorts the coordinates and builds the bucket accelerant: one pass
    /// files each coordinate under [`bucket_of`], so the index and the
    /// queries share one bucket function.
    fn index(mut coords: Vec<f64>) -> Self {
        let n = coords.len();
        assert!(u32::try_from(n).is_ok(), "too many servers");
        // Canonical coordinates are finite, so `partial_cmp` never fails
        // and this stable sort gives `Vec<RingPoint>::sort`'s order; the
        // infallible comparator compiles to the plain `<` that one uses.
        coords.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
        let mut bucket_first = Vec::with_capacity(n + 1);
        for (i, &c) in coords.iter().enumerate() {
            // Sorted coords have non-decreasing buckets, so this only
            // grows: every bucket up to b not yet filed starts at i.
            bucket_first.resize(bucket_of(c, n) + 1, i as u32);
        }
        bucket_first.resize(n + 1, n as u32);
        Self {
            coords,
            bucket_first,
        }
    }

    /// Number of servers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// Always false: construction requires at least one server.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Position of server `i`.
    #[must_use]
    pub fn position(&self, i: usize) -> RingPoint {
        RingPoint::new(self.coords[i])
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
    /// query and the staged batch so the two can never drift. The bucket
    /// is [`bucket_of`]'s integer floor, the function the index was built
    /// with, so no division or rounding guard is needed.
    #[inline]
    fn bucket_start(&self, x: f64) -> usize {
        self.bucket_first[bucket_of(x, self.coords.len())] as usize
    }

    /// The bucket-accelerant's second stage: the successor index of
    /// coordinate `x`, searching forward from `start`. Shared by the
    /// per-point query and the staged batch.
    ///
    /// The first [`Self::HEAD`] slots are resolved branch-free: the
    /// coordinates are sorted, so the number of them below `x` is the
    /// successor's offset. A random layout puts about one server in a
    /// bucket, so that settles nearly every query; past the head a
    /// bounded scan continues, and dense clusters finish with binary
    /// search.
    #[inline]
    fn finish_scan(&self, x: f64, start: usize) -> usize {
        let n = self.coords.len();
        let mut i = start;
        let head: Option<&[f64; Self::HEAD]> = self
            .coords
            .get(start..start + Self::HEAD)
            .and_then(|s| s.try_into().ok());
        if let Some(head) = head {
            let below: usize = head.iter().map(|&c| usize::from(c < x)).sum();
            if below < Self::HEAD {
                return start + below;
            }
            i += Self::HEAD;
        }
        let end = (start + Self::SCAN_LIMIT).min(n);
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
    /// instructions: a single query chains two dependent loads
    /// (`bucket_first[b]`, then `coords[start..]`), so a loop of
    /// independent queries is latency-bound once `n` outgrows the cache.
    /// The batch splits the chain into two per-block passes: gather every
    /// query's bucket start (pure independent loads the out-of-order core
    /// overlaps), then finish every scan. The finish loads are
    /// independent too, and the branch-free head leaves almost no branch
    /// to mispredict, so they overlap without help. A third pass that
    /// touched each scan's first `coords` line first was measured and
    /// dropped: at `n = 2^16` and `2^20` the batch ran faster without it.
    ///
    /// # Panics
    /// Panics if `points.len() != out.len()`.
    pub fn successor_indices_into(&self, points: &[RingPoint], out: &mut [usize]) {
        assert_eq!(points.len(), out.len(), "output sized for the points");
        /// Queries staged per pass.
        const BATCH: usize = 128;
        let mut starts = [0u32; BATCH];
        for (pts, outs) in points.chunks(BATCH).zip(out.chunks_mut(BATCH)) {
            // Pass 1: the bucket of every query, and one independent
            // gather of bucket_first each.
            for (start, p) in starts.iter_mut().zip(pts.iter()) {
                *start = self.bucket_start(p.coord()) as u32;
            }
            // Pass 2: finish each query from its bucket start.
            for ((slot, p), &start) in outs.iter_mut().zip(pts.iter()).zip(starts.iter()) {
                *slot = self.finish_scan(p.coord(), start as usize);
            }
        }
    }

    /// The plain `partition_point` binary search (`O(log n)`): the oracle
    /// [`Self::successor_index`] is validated against, kept for tests,
    /// ablation benches, and as a reference implementation.
    #[must_use]
    pub fn successor_index_binary(&self, p: RingPoint) -> usize {
        let idx = self.coords.partition_point(|&c| c < p.coord());
        if idx == self.coords.len() {
            0
        } else {
            idx
        }
    }

    /// Length of the arc `(p_{i-1}, p_i]` owned by server `i`; the full
    /// circle when every server sits at one point (`n == 1` included),
    /// where server 0 owns everything.
    #[must_use]
    pub fn arc_length(&self, i: usize) -> f64 {
        let n = self.coords.len();
        let pred = (i + n - 1) % n;
        let gap = self.position(pred).clockwise_to(self.position(i));
        // Adjacent duplicates make a zero gap. At server 0 the gap wraps
        // from the largest coordinate, so it is zero only when the
        // sorted coordinates all coincide.
        if i == 0 && gap == 0.0 {
            return 1.0;
        }
        gap
    }

    /// All successor-arc lengths, indexed by server. Sums to 1.
    #[must_use]
    pub fn arc_lengths(&self) -> Vec<f64> {
        (0..self.len()).map(|i| self.arc_length(i)).collect()
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
    fn arc_lengths_sum_to_one() {
        let mut rng = Xoshiro256pp::from_u64(5);
        for n in [1usize, 2, 3, 17, 256] {
            let part = RingPartition::random(n, &mut rng);
            let total: f64 = part.arc_lengths().iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "n={n}: arcs sum to {total}");
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
        assert_eq!(part.arc_length(0), 1.0);
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
    fn region_fractions_match_hit_rates() {
        // Monte-Carlo: the empirical probability of hitting each arc
        // should approximate its length.
        let mut rng = Xoshiro256pp::from_u64(9);
        let part = RingPartition::random(8, &mut rng);
        let mut hits = vec![0u32; part.len()];
        let samples = 200_000;
        for _ in 0..samples {
            hits[part.successor_index(RingPoint::random(&mut rng))] += 1;
        }
        for (i, &h) in hits.iter().enumerate() {
            let expected = part.arc_length(i);
            let got = f64::from(h) / f64::from(samples);
            assert!(
                (got - expected).abs() < 0.01,
                "server {i}: arc {expected} vs hit rate {got}"
            );
        }
    }

    /// The arc of server `i` as first principles define it: the clockwise
    /// gap from its predecessor, or the whole circle when every server
    /// sits at one point.
    fn reference_arc(part: &RingPartition, i: usize) -> f64 {
        let n = part.len();
        if i == 0 && (0..n).all(|j| part.position(j) == part.position(0)) {
            return 1.0;
        }
        part.position((i + n - 1) % n)
            .clockwise_to(part.position(i))
    }

    #[test]
    fn arc_length_matches_the_predecessor_gap_bit_for_bit() {
        let top = 1.0 - f64::EPSILON / 2.0;
        let mut layouts: Vec<Vec<f64>> = vec![
            vec![0.3],
            vec![0.0],
            vec![top],
            vec![0.4; 5],
            vec![0.0; 3],
            vec![top; 2],
            vec![0.0, top],
            vec![0.0, 0.0, top, top],
            vec![0.1, 0.1, 0.1, 0.6],
            vec![0.2, 0.5, 0.5, 0.5, 0.9, 0.9],
        ];
        let mut rng = Xoshiro256pp::from_u64(10);
        for n in [1usize, 2, 3, 17, 256] {
            layouts.push((0..n).map(|_| rng.gen::<f64>()).collect());
            // Random layouts with duplicate runs.
            layouts.push(
                (0..n)
                    .map(|_| f64::from(rng.gen_range(0..8u32)) / 8.0)
                    .collect(),
            );
        }
        for coords in layouts {
            let part =
                RingPartition::from_positions(coords.iter().map(|&x| RingPoint::new(x)).collect());
            for i in 0..part.len() {
                assert_eq!(
                    part.arc_length(i).to_bits(),
                    reference_arc(&part, i).to_bits(),
                    "server {i} of {coords:?}"
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
    fn bucket_first_files_every_coord_under_its_bucket() {
        let mut rng = Xoshiro256pp::from_u64(13);
        let mut layouts: Vec<RingPartition> = [1usize, 2, 3, 7, 64, 1000, 4099]
            .into_iter()
            .map(|n| RingPartition::random(n, &mut rng))
            .collect();
        // Servers exactly on the bucket seams k/n, and a dense cluster.
        layouts.push(RingPartition::from_positions(
            (0..4099)
                .map(|k| RingPoint::new(k as f64 / 4099.0))
                .collect(),
        ));
        layouts.push(RingPartition::from_positions(
            (0..300)
                .map(|i| RingPoint::new(0.5 + 1e-9 * i as f64))
                .collect(),
        ));
        for part in &layouts {
            let n = part.len();
            let first = &part.bucket_first;
            assert_eq!(first.len(), n + 1);
            assert_eq!(first[n] as usize, n, "n={n}: the last bucket ends at n");
            assert!(first.windows(2).all(|w| w[0] <= w[1]), "n={n}: decreasing");
            // The highest bucket among coords[..i] and the lowest among
            // coords[i..], so every coord is checked, not just neighbours.
            let buckets: Vec<usize> = part.coords.iter().map(|&c| bucket_of(c, n)).collect();
            let below_max: Vec<usize> = buckets
                .iter()
                .scan(0, |m, &b| {
                    *m = b.max(*m);
                    Some(*m)
                })
                .collect();
            let mut from_min = buckets.clone();
            for i in (0..n.saturating_sub(1)).rev() {
                from_min[i] = from_min[i].min(from_min[i + 1]);
            }
            for (b, &f) in first.iter().enumerate() {
                let f = f as usize;
                assert!(
                    f == 0 || below_max[f - 1] < b,
                    "n={n}: a coord before bucket_first[{b}] is in bucket ≥ {b}"
                );
                assert!(
                    f == n || from_min[f] >= b,
                    "n={n}: a coord from bucket_first[{b}] on is in a bucket below {b}"
                );
            }
        }
    }

    /// `⌊x·n⌋` for `x ∈ [0, 1)`, exact: `x = mantissa · 2^exp` with
    /// `exp ≤ −53`, so the product is a shift of an integer product.
    fn exact_floor(x: f64, n: usize) -> usize {
        let bits = x.to_bits();
        let biased = (bits >> 52) as i32;
        let fraction = bits & ((1 << 52) - 1);
        let (mantissa, exp) = if biased == 0 {
            (fraction, -1074)
        } else {
            (fraction | 1 << 52, biased - 1075)
        };
        let shift = exp.unsigned_abs();
        if shift >= 128 {
            0
        } else {
            ((u128::from(mantissa) * n as u128) >> shift) as usize
        }
    }

    #[test]
    fn bucket_of_is_the_exact_floor_from_two_to_the_minus_twelve() {
        let two_to_minus_12 = 1.0 / 4096.0;
        for n in [1usize, 3, 7, 1000, 4096, 4099, 1 << 20, u32::MAX as usize] {
            let mut last = 0;
            for k in 0..n.min(5000) {
                let seam = k as f64 / n as f64;
                for x in [
                    f64::from_bits(seam.to_bits().saturating_sub(1)),
                    seam,
                    f64::from_bits(seam.to_bits() + 1),
                ] {
                    let (b, floor) = (bucket_of(x, n), exact_floor(x, n));
                    if x >= two_to_minus_12 {
                        assert_eq!(b, floor, "n={n} x={x:e}");
                    } else {
                        assert!(b == floor || b + 1 == floor, "n={n} x={x:e}");
                    }
                    assert!(b < n && b >= last, "n={n}: not monotone at {x:e}");
                    last = b;
                }
            }
            assert_eq!(bucket_of(0.0, n), 0);
            assert_eq!(bucket_of(1.0 - f64::EPSILON / 2.0, n), n - 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let mut rng = Xoshiro256pp::from_u64(1);
        let _ = RingPartition::random(0, &mut rng);
    }
}
