//! A minimal fork-join runner for embarrassingly parallel Monte-Carlo trials.
//!
//! The paper's experimental tables are distributions over 1000 independent
//! trials; each trial is a full balls-into-bins simulation. Trials share no
//! state, so the only parallel machinery needed is "run `f(0..n)` on `t`
//! threads and collect results in index order". We implement that directly
//! on [`crossbeam::scope`] with an atomic work counter (dynamic scheduling:
//! trial costs vary because `n` differs per sweep point) rather than pulling
//! in a full work-stealing framework.
//!
//! Determinism: callers derive each trial's RNG from the *trial index*
//! ([`crate::rng::StreamSeeder`]), so scheduling order cannot affect results.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Returns the number of worker threads to use by default: the value of the
/// `GEO2C_THREADS` environment variable if set, otherwise the machine's
/// available parallelism.
#[must_use]
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("GEO2C_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Applies `f` to every index in `0..n` using `threads` workers and returns
/// the results in index order.
///
/// Scheduling is dynamic: workers repeatedly claim the next unclaimed index
/// from a shared atomic counter, so a few slow trials do not straggle the
/// whole sweep. With `threads <= 1` (or `n <= 1`) the work runs inline on
/// the caller's thread.
///
/// # Panics
///
/// Propagates a panic from any worker (the scope joins all threads first).
///
/// ```
/// let squares = geo2c_util::parallel::parallel_map(8, 4, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(n);
    if threads == 1 {
        return (0..n).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut collected: Vec<(usize, T)> = Vec::with_capacity(n);

    crossbeam::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let next = &next;
            let f = &f;
            handles.push(scope.spawn(move |_| {
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(i)));
                }
                local
            }));
        }
        for handle in handles {
            collected.extend(handle.join().expect("worker panicked"));
        }
    })
    .expect("crossbeam scope failed");

    collected.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(collected.len(), n);
    collected.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input() {
        let v: Vec<u32> = parallel_map(0, 4, |_| unreachable!());
        assert!(v.is_empty());
    }

    #[test]
    fn single_threaded_path() {
        let v = parallel_map(5, 1, |i| i + 10);
        assert_eq!(v, vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn results_in_index_order_under_contention() {
        let n = 1000;
        let v = parallel_map(n, 8, |i| i * 3);
        assert_eq!(v.len(), n);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i * 3);
        }
    }

    #[test]
    fn more_threads_than_items() {
        let v = parallel_map(3, 64, |i| i);
        assert_eq!(v, vec![0, 1, 2]);
    }

    #[test]
    fn uneven_work_is_completed() {
        // Simulate wildly varying trial costs.
        let v = parallel_map(64, 4, |i| {
            let mut acc = 0u64;
            for k in 0..((i as u64) % 7) * 10_000 {
                acc = acc.wrapping_add(k);
            }
            std::hint::black_box(acc);
            i as u64
        });
        assert_eq!(v, (0..64).collect::<Vec<u64>>());
    }

    #[test]
    fn matches_sequential_for_rng_workload() {
        use crate::rng::StreamSeeder;
        use rand::Rng;
        let seeder = StreamSeeder::new(77);
        let work = |i: usize| -> u64 {
            let mut rng = seeder.stream(i as u64);
            (0..100).map(|_| rng.gen_range(0..1000u64)).sum()
        };
        let seq: Vec<u64> = (0..32).map(work).collect();
        let par = parallel_map(32, 4, work);
        assert_eq!(seq, par);
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }
}
