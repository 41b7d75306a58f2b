//! Item placement policies and their load / lookup-cost trade-off.
//!
//! Three ways to place `m` items on a Chord ring of `n` physical servers
//! (experiment E11 compares all three):
//!
//! 1. **Plain consistent hashing** — item `k` lives at
//!    `successor(hash(k))`. Free lookups, but the max load is
//!    `Θ(log n)·m/n` because arc lengths are non-uniform.
//! 2. **Virtual servers** — same placement on a ring where each physical
//!    server runs `v = Θ(log n)` virtual nodes. Load tightens to
//!    `Θ(m/n · (1 + O(1/√log n)))`-ish, but every node needs `v` finger
//!    tables (Chord's own mitigation, criticized by the paper as costly).
//! 3. **`d`-choice (the paper / \[3])** — item `k` hashes to `d` locations
//!    `hash(k, j)`; it is *stored* at the location whose physical owner is
//!    least loaded, and the owner of the *primary* location (`j = 0`)
//!    keeps a redirection pointer. Lookups route to the primary owner and
//!    pay one extra hop when redirected. Max load drops to
//!    `m/n + O(log log n)` by Theorem 1.
//!
//! The placement is sequential (each item sees current loads), exactly the
//! paper's insertion model.

use crate::chord::ChordRing;
use crate::id::{hash_with_salt, NodeId};
use geo2c_util::hist::Counter;
use geo2c_util::stats::RunningStats;
use rand::Rng;

/// How items are placed on the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Plain consistent hashing (`d = 1`).
    Consistent,
    /// `d`-choice placement with redirection pointers at the primary
    /// location.
    DChoice {
        /// Number of hash locations per item (`d ≥ 1`; `d = 1` reduces to
        /// [`PlacementPolicy::Consistent`]).
        d: usize,
    },
}

impl PlacementPolicy {
    /// Short label for tables.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            PlacementPolicy::Consistent => "consistent".to_string(),
            PlacementPolicy::DChoice { d } => format!("{d}-choice"),
        }
    }

    /// Number of hash locations probed per item (`≥ 1`).
    #[must_use]
    pub fn d(&self) -> usize {
        match self {
            PlacementPolicy::Consistent => 1,
            PlacementPolicy::DChoice { d } => (*d).max(1),
        }
    }
}

/// Routes one item: probes `hash(key, j)` for `j ∈ 0..d` and picks the
/// least-loaded physical owner, first probe winning ties (so the primary
/// location wins when loads are level and a `d = 1` probe is exactly
/// consistent hashing). Returns `(owner, winning probe index)`.
///
/// This is the crate's one placement loop: [`evaluate`] places its items
/// with it, `churn::churn_experiment` its initial and re-placed items,
/// and `replication::place_replicated` each item's primary copy (its
/// replicas follow the winning probe's successor list).
#[must_use]
pub fn place_key(ring: &ChordRing, d: usize, key: u64, loads: &[u32]) -> (usize, usize) {
    assert!(d >= 1, "at least one probe per item");
    let mut best_owner = usize::MAX;
    let mut best_load = u32::MAX;
    let mut best_j = 0usize;
    for j in 0..d {
        let owner = ring.owner_of(hash_with_salt(key, j as u64));
        if loads[owner] < best_load {
            best_load = loads[owner];
            best_owner = owner;
            best_j = j;
        }
    }
    (best_owner, best_j)
}

/// Load-balance statistics over *physical* servers.
#[derive(Debug, Clone)]
pub struct LoadMetrics {
    /// Largest number of items on any physical server.
    pub max: u32,
    /// Mean items per server (= m/n).
    pub mean: f64,
    /// Standard deviation of the per-server load.
    pub stddev: f64,
    /// Full load distribution (value = load, count = #servers).
    pub histogram: Counter,
}

impl LoadMetrics {
    fn from_loads(loads: &[u32]) -> Self {
        let mut stats = RunningStats::new();
        let mut histogram = Counter::new();
        for &l in loads {
            stats.push(f64::from(l));
            histogram.add(u64::from(l));
        }
        Self {
            max: loads.iter().copied().max().unwrap_or(0),
            mean: stats.mean(),
            stddev: stats.stddev(),
            histogram,
        }
    }
}

/// Lookup-cost statistics over sampled queries.
#[derive(Debug, Clone)]
pub struct LookupMetrics {
    /// Mean hops per lookup (including any redirection hop).
    pub mean_hops: f64,
    /// Worst sampled lookup.
    pub max_hops: u32,
    /// Fraction of lookups that paid a redirection hop.
    pub redirect_rate: f64,
}

/// The outcome of placing `m` items under a policy and sampling lookups.
#[derive(Debug, Clone)]
pub struct PlacementReport {
    /// Items per physical server.
    pub loads: Vec<u32>,
    /// Aggregated load statistics.
    pub load: LoadMetrics,
    /// Aggregated lookup statistics (if lookups were sampled).
    pub lookup: Option<LookupMetrics>,
    /// How many items ended up away from their primary location.
    pub redirected_items: u64,
}

/// Places items `0..m` sequentially under `policy` and returns per-item
/// storage decisions: `(stored_physical, was_redirected)`.
fn place_items(ring: &ChordRing, policy: PlacementPolicy, m: u64) -> (Vec<u32>, Vec<bool>) {
    let n = ring.num_physical();
    let mut loads = vec![0u32; n];
    let mut redirected = vec![false; m as usize];
    let d = policy.d();
    for k in 0..m {
        let (owner, j) = place_key(ring, d, k, &loads);
        loads[owner] += 1;
        redirected[k as usize] = j != 0;
    }
    (loads, redirected)
}

/// Places `m` items and samples `lookup_samples` random lookups (random
/// item, random start node), returning the full report.
///
/// Lookup cost model: route to the owner of the item's *primary* location
/// (standard Chord lookup), plus one redirection hop if the item was
/// stored at an alternative location (\[3]'s pointer scheme).
#[must_use]
pub fn evaluate<R: Rng + ?Sized>(
    ring: &ChordRing,
    policy: PlacementPolicy,
    m: u64,
    lookup_samples: usize,
    rng: &mut R,
) -> PlacementReport {
    let (loads, redirected) = place_items(ring, policy, m);
    let redirected_items = redirected.iter().filter(|&&r| r).count() as u64;

    let lookup = if lookup_samples > 0 && m > 0 {
        let mut stats = RunningStats::new();
        let mut max_hops = 0u32;
        let mut redirects = 0u64;
        for _ in 0..lookup_samples {
            let item = rng.gen_range(0..m);
            let start = rng.gen_range(0..ring.num_virtual());
            let primary: NodeId = hash_with_salt(item, 0);
            let (_owner, mut hops) = ring.lookup(start, primary);
            if redirected[item as usize] {
                hops += 1;
                redirects += 1;
            }
            stats.push(f64::from(hops));
            max_hops = max_hops.max(hops);
        }
        Some(LookupMetrics {
            mean_hops: stats.mean(),
            max_hops,
            redirect_rate: redirects as f64 / lookup_samples as f64,
        })
    } else {
        None
    };

    PlacementReport {
        load: LoadMetrics::from_loads(&loads),
        loads,
        lookup,
        redirected_items,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo2c_util::rng::Xoshiro256pp;

    #[test]
    fn conservation_of_items() {
        let mut rng = Xoshiro256pp::from_u64(1);
        let ring = ChordRing::new(32, &mut rng);
        for policy in [
            PlacementPolicy::Consistent,
            PlacementPolicy::DChoice { d: 2 },
            PlacementPolicy::DChoice { d: 4 },
        ] {
            let report = evaluate(&ring, policy, 500, 0, &mut rng);
            let total: u64 = report.loads.iter().map(|&l| u64::from(l)).sum();
            assert_eq!(total, 500, "{}", policy.label());
            assert!((report.load.mean - 500.0 / 32.0).abs() < 1e-9);
        }
    }

    #[test]
    fn consistent_placement_never_redirects() {
        let mut rng = Xoshiro256pp::from_u64(2);
        let ring = ChordRing::new(16, &mut rng);
        let report = evaluate(&ring, PlacementPolicy::Consistent, 200, 100, &mut rng);
        assert_eq!(report.redirected_items, 0);
        let lookup = report.lookup.unwrap();
        assert_eq!(lookup.redirect_rate, 0.0);
    }

    #[test]
    fn d1_choice_equals_consistent() {
        let mut rng = Xoshiro256pp::from_u64(3);
        let ring = ChordRing::new(16, &mut rng);
        let a = evaluate(&ring, PlacementPolicy::Consistent, 300, 0, &mut rng);
        let b = evaluate(&ring, PlacementPolicy::DChoice { d: 1 }, 300, 0, &mut rng);
        assert_eq!(a.loads, b.loads);
    }

    #[test]
    fn two_choice_tightens_load() {
        // The paper's DHT claim: max load with d=2 beats plain consistent
        // hashing (aggregated over a few rings to damp variance).
        let mut rng = Xoshiro256pp::from_u64(4);
        let n = 128;
        let m = 1024;
        let mut plain_total = 0u64;
        let mut choice_total = 0u64;
        for _ in 0..5 {
            let ring = ChordRing::new(n, &mut rng);
            plain_total += u64::from(
                evaluate(&ring, PlacementPolicy::Consistent, m, 0, &mut rng)
                    .load
                    .max,
            );
            choice_total += u64::from(
                evaluate(&ring, PlacementPolicy::DChoice { d: 2 }, m, 0, &mut rng)
                    .load
                    .max,
            );
        }
        assert!(
            choice_total < plain_total,
            "2-choice {choice_total} !< consistent {plain_total}"
        );
    }

    #[test]
    fn two_choice_beats_virtual_servers_on_max_load() {
        // At equal ring sizes, d=2 on a plain ring should at least match
        // the virtual-server mitigation (the paper's headline for §1.1).
        let mut rng = Xoshiro256pp::from_u64(5);
        let n = 128;
        let m = 2048;
        let v = 7; // ≈ log2 n
        let mut virt_total = 0u64;
        let mut choice_total = 0u64;
        for _ in 0..5 {
            let plain = ChordRing::new(n, &mut rng);
            let virt = ChordRing::with_virtual_servers(n, v, &mut rng);
            virt_total += u64::from(
                evaluate(&virt, PlacementPolicy::Consistent, m, 0, &mut rng)
                    .load
                    .max,
            );
            choice_total += u64::from(
                evaluate(&plain, PlacementPolicy::DChoice { d: 2 }, m, 0, &mut rng)
                    .load
                    .max,
            );
        }
        assert!(
            choice_total <= virt_total,
            "2-choice {choice_total} !<= virtual servers {virt_total}"
        );
    }

    #[test]
    fn redirect_rate_reflects_placement() {
        // With d=2 roughly half the items go to the alternate location
        // (less at the start when loads are all zero and ties go primary
        // …we break ties by first-best, i.e. primary wins ties).
        let mut rng = Xoshiro256pp::from_u64(6);
        let ring = ChordRing::new(64, &mut rng);
        let report = evaluate(
            &ring,
            PlacementPolicy::DChoice { d: 2 },
            2000,
            500,
            &mut rng,
        );
        let frac = report.redirected_items as f64 / 2000.0;
        assert!(frac > 0.1 && frac < 0.6, "redirect fraction {frac}");
        let lookup = report.lookup.unwrap();
        assert!(lookup.redirect_rate > 0.0);
        assert!(lookup.mean_hops >= 1.0);
    }

    #[test]
    fn lookup_cost_overhead_is_at_most_one_hop() {
        // Mean lookup cost with redirection ≤ consistent mean + 1.
        let mut rng = Xoshiro256pp::from_u64(7);
        let ring = ChordRing::new(256, &mut rng);
        let plain = evaluate(&ring, PlacementPolicy::Consistent, 1000, 1000, &mut rng)
            .lookup
            .unwrap();
        let choice = evaluate(
            &ring,
            PlacementPolicy::DChoice { d: 2 },
            1000,
            1000,
            &mut rng,
        )
        .lookup
        .unwrap();
        assert!(
            choice.mean_hops <= plain.mean_hops + 1.0 + 0.5,
            "choice {} vs plain {}",
            choice.mean_hops,
            plain.mean_hops
        );
    }

    #[test]
    fn zero_items() {
        let mut rng = Xoshiro256pp::from_u64(8);
        let ring = ChordRing::new(4, &mut rng);
        let report = evaluate(&ring, PlacementPolicy::DChoice { d: 2 }, 0, 10, &mut rng);
        assert_eq!(report.load.max, 0);
        assert!(report.lookup.is_none());
    }

    #[test]
    fn labels() {
        assert_eq!(PlacementPolicy::Consistent.label(), "consistent");
        assert_eq!(PlacementPolicy::DChoice { d: 3 }.label(), "3-choice");
    }
}
