//! Failure-injection: the substrate must stay correct (no panics, balls
//! conserved, owners valid) on adversarial/degenerate configurations that
//! random placement would essentially never produce.

use two_choices::core::sim::run_trial;
use two_choices::core::space::{RingSpace, Space, TorusSpace};
use two_choices::core::strategy::{Strategy, TieBreak};
use two_choices::ring::{RingPartition, RingPoint};
use two_choices::torus::{KdPoint, KdSites};
use two_choices::util::rng::Xoshiro256pp;

fn all_strategies() -> Vec<Strategy> {
    vec![
        Strategy::one_choice(),
        Strategy::two_choice(),
        Strategy::d_choice(5),
        Strategy::with_tie_break(2, TieBreak::SmallerRegion),
        Strategy::with_tie_break(2, TieBreak::LargerRegion),
        Strategy::with_tie_break(2, TieBreak::Leftmost),
        Strategy::voecking(3),
    ]
}

#[test]
fn nearly_coincident_ring_servers() {
    // All servers packed into a 1e-9 sliver: one arc is ~the whole circle.
    let mut rng = Xoshiro256pp::from_u64(1);
    let positions: Vec<RingPoint> = (0..64)
        .map(|i| RingPoint::new(0.5 + i as f64 * 1e-11))
        .collect();
    let part = RingPartition::from_positions(positions);
    let total: f64 = part.arc_lengths().iter().sum();
    assert!((total - 1.0).abs() < 1e-9);
    let space = RingSpace::from_partition(part);
    for strategy in all_strategies() {
        let r = run_trial(&space, &strategy, 256, &mut rng);
        assert_eq!(r.total_balls(), 256, "{}", strategy.label());
        assert!(r.loads.iter().enumerate().all(|(i, _)| i < 64));
    }
}

#[test]
fn exactly_coincident_ring_servers() {
    // Duplicated positions produce zero-length arcs; the partition must
    // still cover the circle and lookups must stay in range.
    let positions = vec![
        RingPoint::new(0.25),
        RingPoint::new(0.25),
        RingPoint::new(0.25),
        RingPoint::new(0.75),
    ];
    let part = RingPartition::from_positions(positions);
    let total: f64 = part.arc_lengths().iter().sum();
    assert!((total - 1.0).abs() < 1e-12);
    let mut rng = Xoshiro256pp::from_u64(2);
    for _ in 0..500 {
        let owner = part.successor_index(RingPoint::random(&mut rng));
        assert!(owner < 4);
    }
}

#[test]
fn grid_aligned_torus_sites() {
    // Perfectly regular lattice: every Voronoi cell is an axis square;
    // ties along shared edges must resolve deterministically.
    let g = 8;
    let pts: Vec<KdPoint<2>> = (0..g)
        .flat_map(|i| {
            (0..g).map(move |j| {
                KdPoint::new([(i as f64 + 0.5) / g as f64, (j as f64 + 0.5) / g as f64])
            })
        })
        .collect();
    let sites = KdSites::from_points(pts);
    let areas = sites.cell_areas();
    let expect = 1.0 / (g * g) as f64;
    for (i, a) in areas.iter().enumerate() {
        assert!((a - expect).abs() < 1e-9, "cell {i}: {a}");
    }
    let total: f64 = areas.iter().sum();
    assert!((total - 1.0).abs() < 1e-9);
}

#[test]
fn collinear_torus_sites() {
    // All sites on one horizontal line: cells are vertical bands; the
    // grid NN search must stay exact despite the empty rows.
    let pts: Vec<KdPoint<2>> = (0..16)
        .map(|i| KdPoint::new([i as f64 / 16.0, 0.5]))
        .collect();
    let sites = KdSites::from_points(pts);
    let mut rng = Xoshiro256pp::from_u64(3);
    for _ in 0..500 {
        let p = KdPoint::random(&mut rng);
        let fast = sites.owner(&p);
        let slow = sites.owner_brute(&p);
        assert!((p.dist2(sites.point(fast)) - p.dist2(sites.point(slow))).abs() < 1e-15);
    }
    let total: f64 = sites.cell_areas().iter().sum();
    assert!((total - 1.0).abs() < 1e-9);
}

#[test]
fn clustered_torus_space_full_trial() {
    // Tight cluster + far stragglers: giant cells for the stragglers.
    let mut rng = Xoshiro256pp::from_u64(4);
    let mut pts: Vec<KdPoint<2>> = (0..60)
        .map(|i| KdPoint::new([0.5 + (i as f64) * 1e-4, 0.5 + (i as f64) * 7e-5]))
        .collect();
    pts.push(KdPoint::new([0.01, 0.01]));
    pts.push(KdPoint::new([0.99, 0.02]));
    let space = TorusSpace::from_sites(KdSites::from_points(pts));
    for strategy in all_strategies() {
        let r = run_trial(&space, &strategy, 200, &mut rng);
        assert_eq!(r.total_balls(), 200, "{}", strategy.label());
    }
    let total: f64 = (0..space.num_servers()).map(|i| space.region_size(i)).sum();
    assert!((total - 1.0).abs() < 1e-6, "areas sum to {total}");
}

#[test]
fn tiny_systems() {
    // n = 1 and n = 2 with every strategy; m >> n.
    let mut rng = Xoshiro256pp::from_u64(5);
    for n in [1usize, 2] {
        let ring = RingSpace::random(n, &mut rng);
        let torus = TorusSpace::random(n, &mut rng);
        for strategy in all_strategies() {
            let r = run_trial(&ring, &strategy, 100, &mut rng);
            assert_eq!(r.total_balls(), 100);
            let r = run_trial(&torus, &strategy, 100, &mut rng);
            assert_eq!(r.total_balls(), 100);
        }
    }
}

#[test]
fn probes_on_exact_server_positions() {
    // A probe exactly at a server's coordinate belongs to that server
    // (closed-at-server convention) — exercised deliberately.
    let part =
        RingPartition::from_positions((0..8).map(|i| RingPoint::new(i as f64 / 8.0)).collect());
    for i in 0..8 {
        let owner = part.successor_index(RingPoint::new(i as f64 / 8.0));
        assert_eq!(part.position(owner).coord(), i as f64 / 8.0);
    }
}
