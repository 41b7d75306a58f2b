//! Successor-list replication: reliability for two-choice placement.
//!
//! The paper's conclusion notes that applying two choices to Chord-like
//! systems must preserve "reliability and other useful features". The
//! standard Chord reliability mechanism replicates each item on the `r`
//! distinct *physical* successors of its owning virtual node (CFS \[4]
//! stores a block's replicas on the successor list). This module combines
//! that mechanism with each placement policy so the trade-off can be
//! measured (experiment E17):
//!
//! * storage cost is `r×` regardless of policy;
//! * **availability** after a fraction of nodes fail is governed by `r`
//!   (an item is lost only if all `r` replica holders fail);
//! * the **load** penalty of replication differs by policy: replicas land
//!   on ring-adjacent nodes, so a hot primary's overflow spills onto its
//!   neighbourhood — two-choice placement keeps primaries balanced, which
//!   keeps replica load balanced too.

use crate::chord::ChordRing;
use crate::id::hash_with_salt;
use crate::placement::{place_key, PlacementPolicy};
use rand::seq::SliceRandom;
use rand::Rng;

/// The outcome of a replicated placement.
#[derive(Debug, Clone)]
pub struct ReplicatedPlacement {
    /// Total items (primaries + replicas) per physical node.
    pub loads: Vec<u32>,
    /// `replica_sets[k]` lists the distinct physical nodes holding item `k`.
    pub replica_sets: Vec<Vec<u32>>,
}

impl ReplicatedPlacement {
    /// Largest total load on any physical node.
    #[must_use]
    pub fn max_load(&self) -> u32 {
        self.loads.iter().copied().max().unwrap_or(0)
    }
}

/// Finds the first `r` *distinct physical* nodes on the ring starting at
/// (and including) virtual node `start`, walking clockwise.
#[must_use]
pub fn distinct_physical_successors(ring: &ChordRing, start: usize, r: usize) -> Vec<u32> {
    let v = ring.num_virtual();
    let mut out: Vec<u32> = Vec::with_capacity(r);
    let mut i = start;
    for _ in 0..v {
        let phys = ring.physical_of(i) as u32;
        if !out.contains(&phys) {
            out.push(phys);
            if out.len() == r {
                break;
            }
        }
        i = (i + 1) % v;
    }
    out
}

/// Places `m` items under `policy` and replicates each on the `r`
/// distinct physical successors of its storage location (the storage
/// node itself is replica 0).
///
/// # Panics
/// Panics if `r == 0`.
#[must_use]
pub fn place_replicated(
    ring: &ChordRing,
    policy: PlacementPolicy,
    m: u64,
    r: usize,
) -> ReplicatedPlacement {
    assert!(r >= 1, "need at least one replica (the primary)");
    let d = policy.d();
    let mut loads = vec![0u32; ring.num_physical()];
    let mut replica_sets = Vec::with_capacity(m as usize);
    for k in 0..m {
        // Primary placement: least-loaded owner among the d locations
        // (loads count everything the node stores, replicas included —
        // that is the disk/bandwidth the system actually cares about).
        // The replicas walk on from the winning location's virtual node.
        let (_, j) = place_key(ring, d, k, &loads);
        let primary = ring.successor_index(hash_with_salt(k, j as u64));
        let holders = distinct_physical_successors(ring, primary, r);
        for &h in &holders {
            loads[h as usize] += 1;
        }
        replica_sets.push(holders);
    }
    ReplicatedPlacement {
        loads,
        replica_sets,
    }
}

/// Availability report after failing a random node subset.
#[derive(Debug, Clone, Copy)]
pub struct AvailabilityReport {
    /// Fraction of items with at least one surviving replica.
    pub available: f64,
    /// Number of failed physical nodes.
    pub failed: usize,
}

/// Fails `⌊n·fail_fraction⌋` uniformly random physical nodes and reports
/// the fraction of items that remain available.
#[must_use]
pub fn availability_after_failures<R: Rng + ?Sized>(
    placement: &ReplicatedPlacement,
    n: usize,
    fail_fraction: f64,
    rng: &mut R,
) -> AvailabilityReport {
    let failures = ((n as f64) * fail_fraction).floor() as usize;
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut failed = vec![false; n];
    for &node in order.iter().take(failures.min(n.saturating_sub(1))) {
        failed[node] = true;
    }
    let mut available = 0u64;
    for holders in &placement.replica_sets {
        if holders.iter().any(|&h| !failed[h as usize]) {
            available += 1;
        }
    }
    AvailabilityReport {
        available: available as f64 / placement.replica_sets.len().max(1) as f64,
        failed: failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo2c_util::rng::Xoshiro256pp;

    #[test]
    fn r1_matches_unreplicated_load_total() {
        let mut rng = Xoshiro256pp::from_u64(1);
        let ring = ChordRing::new(32, &mut rng);
        let placement = place_replicated(&ring, PlacementPolicy::DChoice { d: 2 }, 500, 1);
        let total: u64 = placement.loads.iter().map(|&l| u64::from(l)).sum();
        assert_eq!(total, 500);
        assert!(placement.replica_sets.iter().all(|s| s.len() == 1));
        // One replica is exactly the unreplicated placement: both run
        // `place_key`.
        let plain =
            crate::placement::evaluate(&ring, PlacementPolicy::DChoice { d: 2 }, 500, 0, &mut rng);
        assert_eq!(placement.loads, plain.loads);
    }

    #[test]
    fn replication_multiplies_storage() {
        let mut rng = Xoshiro256pp::from_u64(2);
        let ring = ChordRing::new(32, &mut rng);
        for r in [2usize, 3] {
            let placement = place_replicated(&ring, PlacementPolicy::Consistent, 400, r);
            let total: u64 = placement.loads.iter().map(|&l| u64::from(l)).sum();
            assert_eq!(total, 400 * r as u64, "r={r}");
            // All replica sets have r distinct members.
            for set in &placement.replica_sets {
                assert_eq!(set.len(), r);
                let mut dedup = set.clone();
                dedup.sort_unstable();
                dedup.dedup();
                assert_eq!(dedup.len(), r);
            }
        }
    }

    #[test]
    fn distinct_successors_skip_same_physical() {
        let mut rng = Xoshiro256pp::from_u64(3);
        // Virtual servers: consecutive virtual nodes often share a
        // physical owner; the successor walk must skip duplicates.
        let ring = ChordRing::with_virtual_servers(8, 4, &mut rng);
        for start in 0..ring.num_virtual() {
            let succ = distinct_physical_successors(&ring, start, 3);
            assert_eq!(succ.len(), 3);
            let mut dedup = succ.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "start={start}");
            assert_eq!(succ[0] as usize, ring.physical_of(start));
        }
    }

    #[test]
    fn more_replicas_cannot_exceed_physical_count() {
        let mut rng = Xoshiro256pp::from_u64(4);
        let ring = ChordRing::new(4, &mut rng);
        let placement = place_replicated(&ring, PlacementPolicy::Consistent, 100, 10);
        // Only 4 physical nodes exist; sets cap at 4.
        assert!(placement.replica_sets.iter().all(|s| s.len() == 4));
    }

    #[test]
    fn availability_improves_with_r() {
        // Replica holders are ring-adjacent, so per-draw availability has
        // heavy-tailed variance (one failed run of the ring kills whole
        // neighbourhoods); average over failure draws.
        let mut rng = Xoshiro256pp::from_u64(5);
        let ring = ChordRing::new(128, &mut rng);
        let mut avail = Vec::new();
        for r in [1usize, 2, 4] {
            let placement = place_replicated(&ring, PlacementPolicy::DChoice { d: 2 }, 4096, r);
            let mut rng2 = Xoshiro256pp::from_u64(99);
            let mean: f64 = (0..20)
                .map(|_| availability_after_failures(&placement, 128, 0.3, &mut rng2).available)
                .sum::<f64>()
                / 20.0;
            avail.push(mean);
        }
        assert!(avail[0] < avail[1] && avail[1] < avail[2], "{avail:?}");
        // r=1 loses ≈ the fail fraction (30%); r=4 loses ≈ 0.3⁴ ≈ 1%.
        assert!(
            (avail[0] - 0.7).abs() < 0.05,
            "r=1 availability {}",
            avail[0]
        );
        assert!(avail[2] > 0.97, "r=4 availability {}", avail[2]);
    }

    #[test]
    fn two_choice_keeps_replicated_load_balanced() {
        let mut rng = Xoshiro256pp::from_u64(6);
        let n = 128;
        let m = 4096;
        let r = 3;
        let mut plain_total = 0u64;
        let mut choice_total = 0u64;
        for _ in 0..4 {
            let ring = ChordRing::new(n, &mut rng);
            plain_total +=
                u64::from(place_replicated(&ring, PlacementPolicy::Consistent, m, r).max_load());
            choice_total += u64::from(
                place_replicated(&ring, PlacementPolicy::DChoice { d: 2 }, m, r).max_load(),
            );
        }
        assert!(
            choice_total < plain_total,
            "replicated 2-choice {choice_total} !< consistent {plain_total}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_rejected() {
        let mut rng = Xoshiro256pp::from_u64(7);
        let ring = ChordRing::new(4, &mut rng);
        let _ = place_replicated(&ring, PlacementPolicy::Consistent, 10, 0);
    }
}
