//! The one seeded trial runner behind every Monte-Carlo experiment.
//!
//! The paper's experimental tables are distributions over 1000 independent
//! trials; each trial is a full balls-into-bins simulation. Trials share no
//! state, so the only parallel machinery needed is "run trial `0..n` on `t`
//! threads and collect results in trial order". We implement that directly
//! on [`crossbeam::scope`] with an atomic work counter (dynamic scheduling:
//! trial costs vary because `n` differs per sweep point) rather than pulling
//! in a full work-stealing framework.
//!
//! Determinism: [`run_trials`] hands trial `t` the stream
//! [`StreamSeeder::stream`]`(t)` and nothing else, so a trial is a pure
//! function of `(seed, label, t)` and scheduling order cannot affect
//! results.

use crate::rng::{StreamSeeder, Xoshiro256pp};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Returns the number of worker threads to use by default: the machine's
/// available parallelism.
#[must_use]
pub fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `trial` once per trial index `t` in `0..trials`, each time on the
/// trial's private stream `seeder.stream(t)`, using `threads` workers, and
/// returns the results in trial order.
///
/// Scheduling is dynamic: workers repeatedly claim the next unclaimed trial
/// from a shared atomic counter, so a few slow trials do not straggle the
/// whole sweep. With `threads <= 1` (or `trials <= 1`) the work runs inline
/// on the caller's thread.
///
/// # Panics
///
/// Propagates the first panic of any trial, with its own payload.
///
/// ```
/// use geo2c_util::{parallel::run_trials, StreamSeeder};
/// use rand::Rng;
///
/// let seeder = StreamSeeder::new(0).child("dice");
/// let rolls = run_trials(&seeder, 8, 4, |rng| rng.gen_range(1..=6u32));
/// let sequential: Vec<u32> = (0..8).map(|t| seeder.stream(t).gen_range(1..=6)).collect();
/// assert_eq!(rolls, sequential);
/// ```
pub fn run_trials<T, F>(seeder: &StreamSeeder, trials: usize, threads: usize, trial: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut Xoshiro256pp) -> T + Sync,
{
    let run = |t: usize| trial(&mut seeder.stream(t as u64));
    let threads = threads.max(1).min(trials);
    if threads <= 1 {
        return (0..trials).map(run).collect();
    }

    let next = AtomicUsize::new(0);
    let mut collected: Vec<(usize, T)> = Vec::with_capacity(trials);

    crossbeam::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let next = &next;
            let run = &run;
            handles.push(scope.spawn(move |_| {
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    let t = next.fetch_add(1, Ordering::Relaxed);
                    if t >= trials {
                        break;
                    }
                    local.push((t, run(t)));
                }
                local
            }));
        }
        for handle in handles {
            match handle.join() {
                Ok(local) => collected.extend(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    })
    .expect("crossbeam scope failed");

    collected.sort_by_key(|&(t, _)| t);
    debug_assert_eq!(collected.len(), trials);
    collected.into_iter().map(|(_, x)| x).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, RngCore};

    fn seeder() -> StreamSeeder {
        StreamSeeder::new(77).child("runner")
    }

    /// The reference: trial `t` run on the caller's thread, in order.
    fn sequential<T>(trials: usize, trial: impl Fn(&mut Xoshiro256pp) -> T) -> Vec<T> {
        let seeder = seeder();
        (0..trials as u64)
            .map(|t| trial(&mut seeder.stream(t)))
            .collect()
    }

    #[test]
    fn empty_input() {
        let v: Vec<u32> = run_trials(&seeder(), 0, 4, |_| unreachable!());
        assert!(v.is_empty());
    }

    #[test]
    fn single_threaded_path() {
        let v = run_trials(&seeder(), 5, 1, |rng| rng.next_u64());
        assert_eq!(v, sequential(5, |rng| rng.next_u64()));
    }

    #[test]
    fn results_in_index_order_under_contention() {
        let n = 1000;
        let v = run_trials(&seeder(), n, 8, |rng| rng.next_u64());
        assert_eq!(v.len(), n);
        assert_eq!(v, sequential(n, |rng| rng.next_u64()));
    }

    #[test]
    fn more_threads_than_items() {
        let v = run_trials(&seeder(), 3, 64, |rng| rng.next_u64());
        assert_eq!(v, sequential(3, |rng| rng.next_u64()));
    }

    #[test]
    fn uneven_work_is_completed() {
        // Wildly varying trial costs, drawn from the trial's own stream.
        let work = |rng: &mut Xoshiro256pp| {
            let mut acc = 0u64;
            for k in 0..rng.gen_range(0..7u64) * 10_000 {
                acc = acc.wrapping_add(k);
            }
            std::hint::black_box(acc);
            rng.next_u64()
        };
        assert_eq!(run_trials(&seeder(), 64, 4, work), sequential(64, work));
    }

    #[test]
    fn matches_sequential_for_rng_workload() {
        let work =
            |rng: &mut Xoshiro256pp| -> u64 { (0..100).map(|_| rng.gen_range(0..1000u64)).sum() };
        for threads in [1, 2, 4, 7] {
            assert_eq!(
                run_trials(&seeder(), 32, threads, work),
                sequential(32, work)
            );
        }
    }

    #[test]
    #[should_panic(expected = "trial 5 failed")]
    fn a_panicking_trial_propagates_out_of_the_runner() {
        let poisoned = seeder().stream(5).next_u64();
        let _ = run_trials(&seeder(), 16, 3, |rng| {
            assert_ne!(rng.next_u64(), poisoned, "trial 5 failed");
        });
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }
}
