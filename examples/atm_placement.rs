//! The paper's 2-D motivating example (§1.1): assigning bank customers to
//! ATMs spread over a city.
//!
//! ATMs are random points on the torus (the "city"); each customer is
//! suggested `d` candidate locations (home, work, …) and registers with
//! the nearest machine to the candidate whose machine is least loaded.
//! The paper's footnote 2 notes that real customers are *not* uniformly
//! distributed; the second half of this example repeats the experiment
//! with customers drawn from population clusters and shows the two-choice
//! benefit survives (as the footnote predicts), even though Theorem 1's
//! hypotheses no longer hold.
//!
//! ```text
//! cargo run --release --example atm_placement
//! ```

use two_choices::core::experiment::ClusterMix;
use two_choices::torus::{KdPoint, KdSites};
use two_choices::util::rng::Xoshiro256pp;

/// Assigns `customers` to machines, each considering `d` candidate
/// locations drawn from `sample`, and returns the loads.
fn assign<F: FnMut(&mut Xoshiro256pp) -> KdPoint<2>>(
    atms: &KdSites<2>,
    customers: usize,
    d: usize,
    rng: &mut Xoshiro256pp,
    mut sample: F,
) -> Vec<u32> {
    let mut loads = vec![0u32; atms.len()];
    for _ in 0..customers {
        let mut best = usize::MAX;
        let mut best_load = u32::MAX;
        for _ in 0..d {
            let machine = atms.owner(&sample(rng));
            if loads[machine] < best_load {
                best_load = loads[machine];
                best = machine;
            }
        }
        loads[best] += 1;
    }
    loads
}

fn report(title: &str, loads_by_d: &[(usize, Vec<u32>)]) {
    println!("{title}");
    println!("{:>4} {:>10} {:>10}", "d", "max load", "stddev");
    for (d, loads) in loads_by_d {
        let max = loads.iter().copied().max().unwrap_or(0);
        let mean = loads.iter().map(|&l| f64::from(l)).sum::<f64>() / loads.len() as f64;
        let var = loads
            .iter()
            .map(|&l| (f64::from(l) - mean).powi(2))
            .sum::<f64>()
            / loads.len() as f64;
        println!("{d:>4} {max:>10} {:>10.2}", var.sqrt());
    }
    println!();
}

fn main() {
    let n_atms = 4096;
    let customers = 4096;
    let mut rng = Xoshiro256pp::from_u64(99);
    let atms = KdSites::random(n_atms, &mut rng);

    // --- Uniform customers: exactly the paper's Section 3 model. --------
    let uniform: Vec<(usize, Vec<u32>)> = [1usize, 2, 3]
        .iter()
        .map(|&d| {
            let loads = assign(&atms, customers, d, &mut rng, KdPoint::random);
            (d, loads)
        })
        .collect();
    report(
        &format!("Uniform customers ({n_atms} ATMs, {customers} customers):"),
        &uniform,
    );

    // --- Clustered customers: downtown + two suburbs + uniform rest. ----
    let mix = ClusterMix {
        centers: vec![(0.5, 0.5), (0.2, 0.8), (0.8, 0.25)],
        sigma: 0.05,
        cluster_weight: 0.7,
    };
    let clustered: Vec<(usize, Vec<u32>)> = [1usize, 2, 3]
        .iter()
        .map(|&d| {
            let loads = assign(&atms, customers, d, &mut rng, |rng| {
                let (x, y) = mix.sample(rng);
                KdPoint::new([x, y])
            });
            (d, loads)
        })
        .collect();
    report(
        "Clustered customers (70% from 3 population centres, sigma = 0.05):",
        &clustered,
    );

    println!("Clustering overloads downtown machines under d = 1; giving each");
    println!("customer d = 2 candidate machines recovers most of the balance —");
    println!("the behaviour the paper's footnote 2 anticipates beyond Theorem 1.");
}
