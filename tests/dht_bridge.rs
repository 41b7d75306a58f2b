//! Integration between the DHT application crate and the abstract
//! ring/allocation machinery: the Chord identifier ring must behave
//! exactly like the unit-circle partition, and the §1.1 load-balancing
//! claims must hold end-to-end.

use two_choices::core::sim::run_trial;
use two_choices::core::space::RingSpace;
use two_choices::core::strategy::Strategy;
use two_choices::dht::chord::ChordRing;
use two_choices::dht::id::{key_id, NodeId};
use two_choices::dht::placement::{evaluate, PlacementPolicy};
use two_choices::ring::{RingPartition, RingPoint};
use two_choices::util::rng::Xoshiro256pp;
use two_choices::util::stats::RunningStats;

/// The u64 identifier ring and the [0,1) circle are the same geometry:
/// building a RingPartition from the ChordRing's ids must give matching
/// ownership for matching probe points.
#[test]
fn chord_ring_is_the_unit_circle() {
    let mut rng = Xoshiro256pp::from_u64(1);
    let ring = ChordRing::new(64, &mut rng);
    let positions: Vec<RingPoint> = (0..ring.num_virtual())
        .map(|i| RingPoint::new(ring.id(i).to_unit()))
        .collect();
    let part = RingPartition::from_positions(positions);

    for k in 0..2000u64 {
        let key = key_id(k);
        let chord_owner_id = ring.id(ring.successor_index(key));
        let circle_owner = part.successor_index(RingPoint::new(key.to_unit()));
        let circle_owner_pos = part.position(circle_owner).coord();
        // Owners must be the same ring position (compare positions: the
        // index spaces differ because RingPartition sorts).
        assert!(
            (chord_owner_id.to_unit() - circle_owner_pos).abs() < 1e-12,
            "key {k}: chord owner {} vs circle owner {}",
            chord_owner_id.to_unit(),
            circle_owner_pos
        );
    }
}

/// Max load of plain consistent hashing grows like Θ(log n / log log n) ×
/// (m/n); two-choice flattens it — the DHT-level restatement of Table 1.
#[test]
fn dht_two_choice_flattens_load_across_seeds() {
    let n = 256;
    let m = 4096u64;
    let mut plain = RunningStats::new();
    let mut choice = RunningStats::new();
    for seed in 0..8 {
        let mut rng = Xoshiro256pp::from_u64(seed);
        let ring = ChordRing::new(n, &mut rng);
        plain.push(f64::from(
            evaluate(&ring, PlacementPolicy::Consistent, m, 0, &mut rng)
                .load
                .max,
        ));
        choice.push(f64::from(
            evaluate(&ring, PlacementPolicy::DChoice { d: 2 }, m, 0, &mut rng)
                .load
                .max,
        ));
    }
    assert!(
        choice.mean() < plain.mean() - 5.0,
        "2-choice {} vs consistent {}",
        choice.mean(),
        plain.mean()
    );
}

/// The DHT placement process and the abstract ring simulation are the
/// same process: run both at the same scale and compare the resulting max
/// loads statistically.
#[test]
fn dht_placement_matches_abstract_simulation() {
    let n = 512;
    let m = 512;
    let mut dht_stats = RunningStats::new();
    let mut abstract_stats = RunningStats::new();
    for seed in 0..10 {
        let mut rng = Xoshiro256pp::from_u64(100 + seed);
        let ring = ChordRing::new(n, &mut rng);
        let report = evaluate(
            &ring,
            PlacementPolicy::DChoice { d: 2 },
            m as u64,
            0,
            &mut rng,
        );
        dht_stats.push(f64::from(report.load.max));

        let mut rng2 = Xoshiro256pp::from_u64(200 + seed);
        let space = RingSpace::random(n, &mut rng2);
        let result = run_trial(&space, &Strategy::two_choice(), m, &mut rng2);
        abstract_stats.push(f64::from(result.max_load));
    }
    // Same distribution family: means within 1 ball of each other.
    assert!(
        (dht_stats.mean() - abstract_stats.mean()).abs() <= 1.0,
        "dht {} vs abstract {}",
        dht_stats.mean(),
        abstract_stats.mean()
    );
}

/// Virtual servers and two-choices are *different mechanisms for the same
/// goal*; verify both beat plain hashing and that two-choices at least
/// matches virtual servers, the comparison the `dht` suite member reports.
#[test]
fn three_schemes_ordering() {
    let n = 256;
    let m = 4096u64;
    let v = 8;
    let mut plain = RunningStats::new();
    let mut virt = RunningStats::new();
    let mut choice = RunningStats::new();
    for seed in 0..6 {
        let mut rng = Xoshiro256pp::from_u64(300 + seed);
        let ring1 = ChordRing::new(n, &mut rng);
        let ringv = ChordRing::with_virtual_servers(n, v, &mut rng);
        plain.push(f64::from(
            evaluate(&ring1, PlacementPolicy::Consistent, m, 0, &mut rng)
                .load
                .max,
        ));
        virt.push(f64::from(
            evaluate(&ringv, PlacementPolicy::Consistent, m, 0, &mut rng)
                .load
                .max,
        ));
        choice.push(f64::from(
            evaluate(&ring1, PlacementPolicy::DChoice { d: 2 }, m, 0, &mut rng)
                .load
                .max,
        ));
    }
    assert!(
        virt.mean() < plain.mean(),
        "virtual {} !< plain {}",
        virt.mean(),
        plain.mean()
    );
    assert!(choice.mean() < plain.mean());
    // The paper's pitch: 2-choice at least matches virtual servers.
    assert!(
        choice.mean() <= virt.mean() + 1.0,
        "2-choice {} should ~match virtual servers {}",
        choice.mean(),
        virt.mean()
    );
}

/// Lookup hop counts stay logarithmic even on rings with virtual servers
/// (more virtual nodes = bigger ring).
#[test]
fn lookups_stay_logarithmic_with_virtual_servers() {
    let mut rng = Xoshiro256pp::from_u64(9);
    let ring = ChordRing::with_virtual_servers(128, 8, &mut rng);
    let virtual_n = ring.num_virtual() as f64;
    let mut hops = RunningStats::new();
    for k in 0..1000u64 {
        use rand::Rng;
        let start = rng.gen_range(0..ring.num_virtual());
        let (_owner, h) = ring.lookup(start, NodeId(rng.gen::<u64>() ^ k));
        hops.push(f64::from(h));
    }
    assert!(
        hops.mean() <= virtual_n.log2(),
        "mean hops {} vs log2 V {}",
        hops.mean(),
        virtual_n.log2()
    );
}
