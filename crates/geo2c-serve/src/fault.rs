//! Deterministic fault injection: crash/recover schedules that replay
//! byte-identically with the event stream they interleave into.
//!
//! A [`FaultPlan`] is a time-sorted list of [`FaultAction`]s, each pinned
//! to an arrival-event timestamp. [`ServeEngine::run_with_faults`]
//! applies every action scheduled at event `t` immediately before
//! processing event `t`, so the engine state after any prefix is a pure
//! function of `(space, config, root, plan)` — chunking, pausing, or
//! checkpoint/resuming a run never changes a single byte (pinned by the
//! `tests/fault_recovery.rs` chaos suite).
//!
//! Randomized schedules draw fault `i`'s crash time, victim, and
//! downtime from `SplitMix64::mixed(root, i, FAULT_TAG)`
//! ([`FaultPlan::random_churn`]) — the fault-lane extension of RNG
//! stream contract v2, so the schedule itself is one more replayable
//! lane family, decorrelated from every probe/tie/life/retry lane.
//! Correlated region-of-space outages ([`FaultPlan::region_outage`])
//! crash a contiguous run of servers at once: on the sorted-by-position
//! spaces ([`geo2c_core::space::RingSpace`] sorts its servers by
//! coordinate at construction), a contiguous index range *is* a
//! contiguous arc of the space, which is what makes the outage
//! geometrically correlated rather than a scattered sample.

use crate::engine::ServeEngine;
use crate::wheel::DepartureQueue;
use geo2c_core::load::LoadState;
use geo2c_core::space::Space;
use geo2c_util::rng::{SplitMix64, FAULT_TAG};
use rand::RngCore as _;

/// One scheduled fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail this server ([`ServeEngine::fail_server`]).
    Crash(usize),
    /// Recover this server ([`ServeEngine::recover_server`]).
    Recover(usize),
}

/// A deterministic, time-sorted fault schedule. Timestamps are arrival
/// events: an action at time `t` is applied immediately before event `t`
/// is processed. The empty plan leaves a run byte-identical to one that
/// never heard of faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// `(event, action)` pairs, sorted by event (stable, so same-instant
    /// actions apply in insertion order).
    events: Vec<(u64, FaultAction)>,
}

impl FaultPlan {
    /// A plan from explicit `(event, action)` pairs; sorted by event
    /// with same-instant order preserved.
    #[must_use]
    pub fn new(mut events: Vec<(u64, FaultAction)>) -> Self {
        events.sort_by_key(|&(at, _)| at);
        Self { events }
    }

    /// The plan with no faults.
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// The scheduled `(event, action)` pairs, in application order.
    #[must_use]
    pub fn events(&self) -> &[(u64, FaultAction)] {
        &self.events
    }

    /// Number of scheduled actions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A correlated region outage: servers `start, start+1, …` (`count`
    /// of them, wrapping modulo `n`) crash at event `at` and — when
    /// `recover_at` is given — all recover at that event. On a
    /// sorted-by-position space a contiguous index range is a contiguous
    /// region of the space.
    ///
    /// # Panics
    /// Panics if `count > n` or a recovery predates the crash.
    #[must_use]
    pub fn region_outage(
        n: usize,
        start: usize,
        count: usize,
        at: u64,
        recover_at: Option<u64>,
    ) -> Self {
        assert!(count <= n, "region larger than the space");
        if let Some(up) = recover_at {
            assert!(up >= at, "recovery predates the crash");
        }
        let mut events = Vec::with_capacity(count * if recover_at.is_some() { 2 } else { 1 });
        for i in 0..count {
            let server = (start + i) % n;
            events.push((at, FaultAction::Crash(server)));
            if let Some(up) = recover_at {
                events.push((up, FaultAction::Recover(server)));
            }
        }
        Self::new(events)
    }

    /// A randomized crash-and-repair schedule on the `FAULT_TAG` lane:
    /// fault `i` draws its crash time (uniform in `0..horizon`), victim
    /// (uniform in `0..n`), and downtime (uniform in
    /// `1..=2·mean_downtime`, so the mean is `mean_downtime + ½`) from
    /// `SplitMix64::mixed(root, i, FAULT_TAG)`, then schedules the
    /// matching recovery — a pure function of `(root, i)`, replayable
    /// independently of every other lane. A recovery past the end of the
    /// clock is filed at `u64::MAX`, never wrapped before its crash.
    ///
    /// # Panics
    /// Panics if `n`, `horizon`, or `mean_downtime` is zero, or if
    /// `mean_downtime` exceeds `u64::MAX / 2`.
    #[must_use]
    pub fn random_churn(
        root: u64,
        n: usize,
        horizon: u64,
        faults: usize,
        mean_downtime: u64,
    ) -> Self {
        assert!(n > 0 && horizon > 0 && mean_downtime > 0);
        assert!(
            mean_downtime <= u64::MAX / 2,
            "mean downtime above u64::MAX / 2"
        );
        let mut events = Vec::with_capacity(faults * 2);
        for i in 0..faults {
            let mut lane = SplitMix64::mixed(root, i as u64, FAULT_TAG);
            let at = lane.next_u64() % horizon;
            let server = (lane.next_u64() % n as u64) as usize;
            let downtime = 1 + lane.next_u64() % (2 * mean_downtime);
            events.push((at, FaultAction::Crash(server)));
            events.push((at.saturating_add(downtime), FaultAction::Recover(server)));
        }
        Self::new(events)
    }
}

impl<S: Space, L: LoadState, Q: DepartureQueue> ServeEngine<S, L, Q> {
    /// Runs `events` arrival events, applying every [`FaultPlan`] action
    /// scheduled in `[clock, clock + events)` immediately before its
    /// event. Actions scheduled before the current clock are skipped (a
    /// resumed engine already applied them in an earlier chunk); actions
    /// at or beyond the end of this chunk stay pending for the next one
    /// — so running a plan in chunks is byte-identical to one long run.
    ///
    /// Between consecutive fault instants the engine runs fault-free, so
    /// each gap goes through the batched [`ServeEngine::run`] loop (owner
    /// blocks + warming sweep) rather than stepping event by event.
    ///
    /// # Panics
    /// Panics if the event clock would pass `u64::MAX`.
    pub fn run_with_faults(&mut self, events: u64, plan: &FaultPlan) {
        let end = self.clock_after(events);
        let schedule = plan.events();
        let mut cursor = schedule.partition_point(|&(at, _)| at < self.arrivals());
        while self.arrivals() < end {
            let t = self.arrivals();
            while let Some(&(at, action)) = schedule.get(cursor) {
                if at > t {
                    break;
                }
                match action {
                    FaultAction::Crash(server) => self.fail_server(server),
                    FaultAction::Recover(server) => self.recover_server(server),
                }
                cursor += 1;
            }
            // Every action at or before `t` is applied, so the stretch
            // up to the next scheduled instant is fault-free: batch it.
            let next_fault = schedule.get(cursor).map_or(u64::MAX, |&(at, _)| at);
            let run_to = end.min(next_fault);
            debug_assert!(run_to > t, "actions at t were just applied");
            self.run(run_to - t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Placement, ServeConfig, SessionLife};
    use geo2c_core::space::UniformSpace;
    use geo2c_core::strategy::Strategy;

    fn config() -> ServeConfig {
        ServeConfig {
            strategy: Strategy::two_choice(),
            capacity: None,
            life: SessionLife::Fixed(7),
            retries: 0,
        }
    }

    #[test]
    #[should_panic(expected = "event clock overflow")]
    fn run_with_faults_rejects_an_event_count_that_overflows_the_clock() {
        let mut engine = crate::engine::tests::engine_at_the_clock_limit(config());
        engine.run_with_faults(2, &FaultPlan::empty());
    }

    #[test]
    fn plans_sort_by_time_and_preserve_same_instant_order() {
        let plan = FaultPlan::new(vec![
            (9, FaultAction::Crash(1)),
            (3, FaultAction::Crash(0)),
            (9, FaultAction::Recover(1)),
        ]);
        assert_eq!(
            plan.events(),
            &[
                (3, FaultAction::Crash(0)),
                (9, FaultAction::Crash(1)),
                (9, FaultAction::Recover(1)),
            ]
        );
        assert_eq!(plan.len(), 3);
        assert!(FaultPlan::empty().is_empty());
    }

    #[test]
    fn region_outage_wraps_and_schedules_recovery() {
        let plan = FaultPlan::region_outage(4, 3, 2, 10, Some(20));
        let crashes: Vec<usize> = plan
            .events()
            .iter()
            .filter_map(|&(at, a)| match a {
                FaultAction::Crash(s) if at == 10 => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(crashes, vec![3, 0], "wraps modulo n");
        let recovers = plan
            .events()
            .iter()
            .filter(|&&(at, a)| at == 20 && matches!(a, FaultAction::Recover(_)))
            .count();
        assert_eq!(recovers, 2);
    }

    #[test]
    #[should_panic(expected = "mean downtime above u64::MAX / 2")]
    fn random_churn_rejects_a_mean_downtime_whose_range_overflows() {
        let _ = FaultPlan::random_churn(3, 8, 100, 4, u64::MAX / 2 + 1);
    }

    #[test]
    fn random_churn_saturates_recoveries_at_the_end_of_the_clock() {
        // Crashes anywhere on a clock of u64::MAX with the longest
        // accepted downtimes: every recovery that would pass the end of
        // the clock is filed at u64::MAX, after its crash, so each
        // server's last action brings it back.
        let n = 4;
        let plan = FaultPlan::random_churn(5, n, u64::MAX, 64, u64::MAX / 2);
        assert_eq!(plan.len(), 128);
        let saturated =
            |&(at, a): &(u64, FaultAction)| at == u64::MAX && matches!(a, FaultAction::Recover(_));
        assert!(plan.events().iter().any(saturated), "no recovery saturated");
        for server in 0..n {
            let last = plan.events().iter().rev().find(|&&(_, a)| {
                matches!(a, FaultAction::Crash(s) | FaultAction::Recover(s) if s == server)
            });
            assert!(
                !matches!(last, Some((_, FaultAction::Crash(_)))),
                "server {server} ends down"
            );
        }
    }

    #[test]
    fn random_churn_is_a_pure_function_of_its_root() {
        let a = FaultPlan::random_churn(11, 32, 1000, 8, 50);
        let b = FaultPlan::random_churn(11, 32, 1000, 8, 50);
        let c = FaultPlan::random_churn(12, 32, 1000, 8, 50);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 16, "every crash schedules its recovery");
        for &(_, action) in a.events() {
            match action {
                FaultAction::Crash(s) | FaultAction::Recover(s) => assert!(s < 32),
            }
        }
    }

    #[test]
    fn faults_apply_before_their_event_and_empty_plans_change_nothing() {
        let space = UniformSpace::new(1);
        let plan = FaultPlan::new(vec![
            (3, FaultAction::Crash(0)),
            (5, FaultAction::Recover(0)),
        ]);
        let mut engine = ServeEngine::new(space, config(), 4);
        engine.run_with_faults(2, &plan); // events 0, 1: healthy
        assert_eq!(engine.shed(), 0);
        engine.run_with_faults(2, &plan); // event 2 healthy, 3 down
        assert_eq!(engine.shed(), 1);
        engine.run_with_faults(2, &plan); // event 4 down, 5 recovered
        assert_eq!(engine.shed(), 2);
        assert!(matches!(engine.step(), Placement::Admitted(0)));

        // Chunked == one-shot under the same plan.
        let mut oneshot = ServeEngine::new(UniformSpace::new(1), config(), 4);
        oneshot.run_with_faults(7, &plan);
        assert_eq!(oneshot.state(), engine.state());

        // The empty plan is the plain run.
        let mut faulted = ServeEngine::new(UniformSpace::new(1), config(), 4);
        let mut plain = ServeEngine::new(UniformSpace::new(1), config(), 4);
        faulted.run_with_faults(50, &FaultPlan::empty());
        plain.run(50);
        assert_eq!(faulted.state(), plain.state());
    }
}
