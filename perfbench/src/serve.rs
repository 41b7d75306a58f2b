//! The two serving workloads and the timed loop they share.
//!
//! * `serve_steady`: a closed loop with one caller that calls
//!   `ServeEngine::run(64)` back to back on a warmed ring of `2^serve_exp`
//!   servers — no capacity bound, no retries, no faults, flat loads.
//! * `serve_durable_churn`: a closed loop with one caller that calls
//!   `DurableEngine::run_journaled(64, &plan)` back to back, over
//!   nibble-packed loads, a random-churn fault plan, one
//!   retry, a capacity bound and a checkpoint every 4096 events; after the
//!   timed loop it crashes the engine and times `Recovery::resume`.

use crate::layers::{self, push_attribution, push_state_layers, WheelCosts};
use crate::report::{mean, median, ns, ns_since, quantile, Outcome, Windows};
use crate::{paper, Args};
use geo2c_core::load::{LoadState, PackedLoads};
use geo2c_core::space::{RingSpace, Space, UniformSpace};
use geo2c_core::strategy::Strategy;
use geo2c_serve::engine::EngineState;
use geo2c_serve::journal::{decode_state, encode_state, CHECKPOINT_FILE, JOURNAL_FILE};
use geo2c_serve::{
    DepartureWheel, DurableEngine, FaultAction, FaultPlan, Recovery, ServeConfig, ServeEngine,
    SessionLife,
};
use geo2c_util::frame::{scan_frames, Header, Tail};
use geo2c_util::rng::{EventLanes, Xoshiro256pp};
use rand::RngCore as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Arrival events per batch: one `EventOwnerBlocks` block.
pub const BATCH: u64 = 64;

/// `serve_durable_churn` checkpoints every 4096 events: one batch in 64.
const CHECKPOINT_EVERY: u64 = 4096;

/// `serve_durable_churn` admission bound: the integer bound closest to
/// shedding 1% of arrivals (3 sheds about 0.2%, 2 about 6.7%).
const CAPACITY: u32 = 3;

/// `serve_durable_churn` share of servers down at any time.
const DOWN_SHARE: f64 = 0.02;

/// Mean downtime of a crashed server, in mean session lifetimes (`n`
/// events). Longer downtimes need fewer faults for the same down share,
/// which keeps the fault plan small beside the engine.
const DOWNTIME_LIVES: u64 = 16;

/// The torn partial frame appended to the journal before recovery: a
/// frame header promising 9 payload bytes followed by only 3 of them.
const TORN: [u8; 11] = [9, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF, 1, 0, 0];

/// Batches run past the last checkpoint before the crash, so recovery
/// replays exactly `TAIL_BATCHES * BATCH` events.
const TAIL_BATCHES: u64 = 16;

/// Batches between sampled conservation checks.
const CHECK_EVERY: u64 = 256;

/// Fresh-space trial pairs the traced serving runs time at the
/// `paper_trials` sizes for the `space.*`, `trial.*` and `torus.*` rows.
const OFFPATH_PAIRS: u64 = 3;

/// Seed domains, so the workloads' inputs never share streams.
const STEADY_TAG: u64 = 0x5EAD_7001;
const CHURN_TAG: u64 = 0xC4A2_7002;
const REFERENCE_TAG: u64 = 0x4EF0_7003;

/// The serving configuration: `d = 2`, random tie-break, exponential
/// sessions of mean `n` events; the churn workload adds the capacity
/// bound and one retry.
fn config(n: usize, churn: bool) -> ServeConfig {
    ServeConfig {
        strategy: Strategy::d_choice(2),
        capacity: churn.then_some(CAPACITY),
        life: SessionLife::Exponential { mean: n as f64 },
        retries: u32::from(churn),
    }
}

/// Warm-up events before timing: four mean lifetimes, by which the
/// in-service population is within 2% of its steady state.
fn warm_events(n: usize) -> u64 {
    4 * n as u64
}

/// Session-flow counters of an engine, for deltas over the timed loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct Flow {
    arrivals: u64,
    shed: u64,
    shed_capacity: u64,
    shed_unavailable: u64,
    evicted: u64,
    rescued: u64,
    /// Retry probe sets drawn: Σ attempt·admissions on that attempt plus
    /// the full budget for every shed arrival.
    attempts: u64,
}

impl Flow {
    fn of<S: Space, L: LoadState>(e: &ServeEngine<S, L, DepartureWheel>) -> Self {
        let on_attempt: u64 = e
            .retry_by_attempt()
            .iter()
            .enumerate()
            .map(|(j, &count)| (j as u64 + 1) * count)
            .sum();
        Self {
            arrivals: e.arrivals(),
            shed: e.shed(),
            shed_capacity: e.shed_capacity(),
            shed_unavailable: e.shed_unavailable(),
            evicted: e.evicted(),
            rescued: e.admitted_on_retry(),
            attempts: on_attempt + u64::from(e.config().retries) * e.shed(),
        }
    }

    fn since(self, start: Flow) -> Flow {
        Flow {
            arrivals: self.arrivals - start.arrivals,
            shed: self.shed - start.shed,
            shed_capacity: self.shed_capacity - start.shed_capacity,
            shed_unavailable: self.shed_unavailable - start.shed_unavailable,
            evicted: self.evicted - start.evicted,
            rescued: self.rescued - start.rescued,
            attempts: self.attempts - start.attempts,
        }
    }

    /// Admitted ÷ arrivals.
    fn availability(self) -> f64 {
        if self.arrivals == 0 {
            1.0
        } else {
            (self.arrivals - self.shed) as f64 / self.arrivals as f64
        }
    }
}

/// The engine and fault-path counters of the timed loop.
pub fn push_counter_rows(out: &mut Outcome, flow: &Flow, fault_actions: f64) {
    out.layer("engine.shed_capacity", flow.shed_capacity as f64, "count");
    out.layer(
        "engine.shed_unavailable",
        flow.shed_unavailable as f64,
        "count",
    );
    out.layer("engine.evicted", flow.evicted as f64, "count");
    out.layer("fault.actions", fault_actions, "count");
    out.layer("retry.attempts", flow.attempts as f64, "count");
    out.layer("retry.rescued", flow.rescued as f64, "count");
    let ratio = if flow.attempts == 0 {
        0.0
    } else {
        flow.rescued as f64 / flow.attempts as f64
    };
    out.layer("retry.rescue_ratio", ratio, "ratio");
}

/// The serving quality readings, taken at fixed event counts into the
/// timed loop so they are pure functions of the seed: the live maximum
/// load at 16 evenly spaced points (their mean is `max_load`), and
/// `peak_load` and admitted ÷ arrivals at the last point.
struct Quality {
    start: u64,
    step: u64,
    end: u64,
    max_loads: Vec<f64>,
    at_end: Option<(u32, Flow)>,
}

impl Quality {
    fn new(start: u64, events: u64) -> Self {
        let step = (events / 16).max(BATCH);
        Self {
            start,
            step,
            end: step * 16,
            max_loads: Vec::new(),
            at_end: None,
        }
    }

    fn observe<S: Space, L: LoadState>(
        &mut self,
        e: &ServeEngine<S, L, DepartureWheel>,
        flow0: Flow,
    ) {
        let done = e.arrivals() - self.start;
        if done == 0 || done > self.end || !done.is_multiple_of(self.step) {
            return;
        }
        self.max_loads.push(f64::from(e.load_stats().max));
        if done == self.end {
            self.at_end = Some((e.peak_load(), Flow::of(e).since(flow0)));
        }
    }

    fn done(&self) -> bool {
        self.at_end.is_some()
    }

    fn push(&self, out: &mut Outcome) {
        let (peak, flow) = self
            .at_end
            .expect("the loop runs to the last quality point");
        out.e2e("max_load", mean(&self.max_loads), "count");
        out.e2e("availability", flow.availability(), "ratio");
        out.layer("engine.peak_load", f64::from(peak), "count");
        out.note(format!(
            "max_load: mean live maximum load at {} points every {} events; availability and \
             engine.peak_load at event {}",
            self.max_loads.len(),
            self.step,
            self.end
        ));
    }
}

/// Σ live loads equals the in-service session count.
fn conserved<S: Space, L: LoadState>(e: &ServeEngine<S, L, DepartureWheel>) -> bool {
    e.live_loads().map(u64::from).sum::<u64>() == e.in_service()
}

/// In-service sessions booked by a state's counters.
fn in_service_of(s: &EngineState) -> u64 {
    let c = &s.counters;
    c.arrivals - c.departed - c.shed - c.evicted
}

// ---------------------------------------------------------------------------
// The timed loop
// ---------------------------------------------------------------------------

/// A serving engine as the timed loop drives it: one 64-event batch per
/// call, plus the hooks the journaled rig fills in.
trait Served {
    type S: Space;
    type L: LoadState;

    fn engine(&self) -> &ServeEngine<Self::S, Self::L, DepartureWheel>;

    /// Runs one 64-event batch.
    fn batch(&mut self) -> Result<(), String>;

    /// Durable checkpoints taken so far.
    fn checkpoints(&self) -> u64 {
        0
    }

    /// Journal bytes appended so far.
    fn journal_bytes(&self) -> u64 {
        0
    }

    /// Fault-plan actions, and crashes among them, applied to events
    /// `[from, to)`.
    fn actions_in(&self, _from: u64, _to: u64) -> (u64, u64) {
        (0, 0)
    }

    /// Batches the engine's inputs still cover.
    fn batches_left(&self) -> u64 {
        u64::MAX
    }

    /// Starts a traced segment.
    fn begin_segment(&mut self) {}

    /// Runs the batch just run once more on a twin, if there is one, and
    /// returns its time (ns).
    fn twin_batch(&mut self) -> Option<f64> {
        None
    }

    /// Ends a traced segment.
    fn end_segment(&mut self, _out: &mut Outcome) {}
}

impl Served for ServeEngine<RingSpace> {
    type S = RingSpace;
    type L = Vec<u32>;

    fn engine(&self) -> &ServeEngine<RingSpace> {
        self
    }

    fn batch(&mut self) -> Result<(), String> {
        self.run(BATCH);
        Ok(())
    }
}

/// How long one `drive` call runs and how it traces its batches.
struct Pace {
    seconds: f64,
    min_batches: u64,
    max_batches: u64,
    /// Events into the loop over which the quality readings are taken.
    milestone: Option<u64>,
    /// Tail quantile of the untraced batch times.
    tail_q: f64,
    trace: bool,
    /// Batches per traced/untraced segment; `0` traces every batch.
    segment: u64,
}

/// What the batches of one `drive` call measured.
struct Drive {
    /// Untraced batches: busy time, and the caller's gap before each
    /// (traced runs only).
    busy: Windows,
    gaps: Vec<f64>,
    /// Traced batches: busy time overall, split by whether `checkpoints()`
    /// advanced, and the plain batches' excess over their twin.
    traced_busy: Vec<f64>,
    checkpoint_busy: Vec<f64>,
    plain_busy: Vec<f64>,
    frame_overhead: Vec<f64>,
    /// The state captured once per traced segment (at its first
    /// checkpoint batch, or its last batch if none checkpoints), with
    /// `ServeEngine::state` timings.
    state: Option<EngineState>,
    state_us: Vec<f64>,
    quality: Option<Quality>,
    flow: Flow,
    events: u64,
    journal_bytes: u64,
    fault_actions: u64,
    crashes: u64,
    traced_drained: u64,
}

impl Drive {
    fn push_note(&self, out: &mut Outcome, stopped_at_horizon: bool) {
        out.note(format!(
            "harness: {} bytes of untraced batch samples{}",
            self.busy.heap_bytes(),
            if stopped_at_horizon {
                "; the loop stopped early, at the end of the fault plan"
            } else {
                ""
            }
        ));
    }
}

/// Runs batches back to back until `pace` says stop, timing and checking
/// each: every batch advances 64 arrivals, and every `CHECK_EVERY`th
/// batch conserves load. Traced segments also run each batch on the
/// engine's twin and capture one engine state.
fn drive<E: Served>(e: &mut E, pace: &Pace, out: &mut Outcome) -> Drive {
    let mut d = Drive {
        busy: Windows::new(pace.tail_q),
        gaps: Vec::new(),
        traced_busy: Vec::new(),
        checkpoint_busy: Vec::new(),
        plain_busy: Vec::new(),
        frame_overhead: Vec::new(),
        state: None,
        state_us: Vec::new(),
        quality: pace
            .milestone
            .map(|m| Quality::new(e.engine().arrivals(), m)),
        flow: Flow::default(),
        events: 0,
        journal_bytes: 0,
        fault_actions: 0,
        crashes: 0,
        traced_drained: 0,
    };
    let flow0 = Flow::of(e.engine());
    let journal0 = e.journal_bytes();
    let horizon = e.batches_left();
    let max_batches = pace.max_batches.min(horizon);
    let mut in_segment = false;
    let mut captured = false;
    let start = Instant::now();
    let mut prev: Option<(Instant, bool)> = None;
    let mut i = 0u64;
    loop {
        let traced = pace.trace && (pace.segment == 0 || (i / pace.segment) % 2 == 1);
        if traced && !in_segment {
            e.begin_segment();
            in_segment = true;
            captured = false;
        } else if !traced && in_segment {
            e.end_segment(out);
            in_segment = false;
        }
        if i.is_multiple_of(CHECK_EVERY) {
            out.check(conserved(e.engine()), || {
                "live loads differ from in-service sessions".into()
            });
        }
        let (before, checkpoints, departed) = (
            e.engine().arrivals(),
            e.checkpoints(),
            e.engine().departed(),
        );
        let s = Instant::now();
        let result = e.batch();
        let end = Instant::now();
        match result {
            Err(err) => out.error(err),
            Ok(()) => out.check(e.engine().arrivals() == before + BATCH, || {
                format!("batch at event {before} did not advance 64 arrivals")
            }),
        }
        let busy = ns(end - s);
        let (actions, crashes) = e.actions_in(before, before + BATCH);
        d.fault_actions += actions;
        d.crashes += crashes;
        if traced {
            let advanced = e.checkpoints() > checkpoints;
            d.traced_busy.push(busy);
            d.traced_drained += e.engine().departed() - departed;
            let twin_ns = e.twin_batch();
            if advanced {
                d.checkpoint_busy.push(busy);
            } else {
                d.plain_busy.push(busy);
                d.frame_overhead.extend(twin_ns.map(|t| busy - t));
            }
            let segment_end = pace.segment > 0 && i % pace.segment == pace.segment - 1;
            if !captured && (advanced || segment_end) {
                let t = Instant::now();
                let state = e.engine().state();
                d.state_us.push(ns_since(t) / 1e3);
                out.check(
                    state.departures.len() as u64 == in_service_of(&state),
                    || "captured state: departure entries differ from in-service sessions".into(),
                );
                d.state = Some(state);
                captured = true;
            }
        } else {
            d.busy.push(busy);
            // The harness gap: how long the caller took to issue this
            // batch after the previous untraced one completed.
            if let (true, Some((end, false))) = (pace.trace, prev) {
                d.gaps.push(ns(s - end));
            }
        }
        i += 1;
        if let Some(q) = d.quality.as_mut() {
            q.observe(e.engine(), flow0);
        }
        prev = Some((Instant::now(), traced));
        let timed_out = start.elapsed().as_secs_f64() >= pace.seconds;
        let quality_done = d.quality.as_ref().is_none_or(Quality::done);
        let traced_some = !pace.trace || !d.traced_busy.is_empty();
        if i >= max_batches || (timed_out && i >= pace.min_batches && quality_done && traced_some) {
            break;
        }
    }
    if in_segment {
        e.end_segment(out);
    }
    d.flow = Flow::of(e.engine()).since(flow0);
    d.events = d.flow.arrivals;
    d.journal_bytes = e.journal_bytes() - journal0;
    d.push_note(out, i >= horizon);
    d
}

// ---------------------------------------------------------------------------
// Layer rows shared by the serving workloads
// ---------------------------------------------------------------------------

/// The probe rows that take only a space, lanes and a load vector.
struct SpaceCosts {
    owner_block_ns: f64,
    life_lane_ns: f64,
    load: layers::LoadCosts,
}

fn space_costs<L: LoadState + Clone>(
    out: &mut Outcome,
    space: &RingSpace,
    root: u64,
    t: u64,
    loads: &L,
) -> SpaceCosts {
    let n = space.num_servers();
    let lanes = EventLanes::new(root);
    let owners = layers::event_owners(space, &lanes, t, 1 << 14);
    let load = layers::load_costs(space, &Strategy::d_choice(2), loads, &owners, &lanes, t);
    let costs = SpaceCosts {
        owner_block_ns: layers::owner_block_ns(space, &lanes, t, 256),
        life_lane_ns: layers::life_lane_ns(&lanes, t, 1 << 16),
        load,
    };
    out.layer(
        "rng.probe_lanes_ns",
        layers::owners_ns(&UniformSpace::new(n), &lanes, t, 256),
        "ns",
    );
    out.layer("rng.life_lane_ns", costs.life_lane_ns, "ns");
    out.layer(
        "ring.owners_ns",
        layers::owners_ns(space, &lanes, t, 256),
        "ns",
    );
    out.layer("sim.owner_block_ns", costs.owner_block_ns, "ns");
    out.layer("strategy.place_ns", load.place_ns, "ns");
    out.layer("load.min_load_ns", load.min_load_ns, "ns");
    out.layer("load.bump_dec_ns", load.bump_dec_ns, "ns");
    out.layer(
        "load.bytes_per_bin",
        loads.heap_bytes() as f64 / n as f64,
        "bytes",
    );
    costs
}

/// The per-batch layer sum of the serving hot path: per event one owner
/// pre-draw, one placement, one bump and one dec, one lifetime-lane draw
/// and one wheel schedule; per drained entry one wheel drain; per crash
/// one purge.
fn steady_parts(
    c: &SpaceCosts,
    w: &WheelCosts,
    drained_per_batch: f64,
    crashes_per_batch: f64,
) -> Vec<(&'static str, f64)> {
    let b = BATCH as f64;
    vec![
        ("sim.owner_block", b * c.owner_block_ns),
        ("strategy.place", b * c.load.place_ns),
        ("load.bump_dec", b * c.load.bump_dec_ns),
        ("rng.life_lane", b * c.life_lane_ns),
        ("wheel.schedule", b * w.schedule_ns),
        ("wheel.drain", drained_per_batch * w.drain_ns),
        ("wheel.purge", crashes_per_batch * w.purge_ns),
    ]
}

/// `trace_overhead_pct`: the mean traced batch against the mean untraced
/// one.
fn push_trace_overhead(out: &mut Outcome, d: &Drive, untraced_mean: f64) {
    let traced_mean = mean(&d.traced_busy);
    out.layer(
        "trace_overhead_pct",
        (traced_mean / untraced_mean - 1.0) * 100.0,
        "%",
    );
    out.note(format!(
        "trace overhead: {} traced batches at {traced_mean:.0} ns vs {} untraced at {untraced_mean:.0} ns",
        d.traced_busy.len(),
        d.busy.len()
    ));
}

// ---------------------------------------------------------------------------
// serve_steady
// ---------------------------------------------------------------------------

pub fn run_steady(args: &Args) -> Outcome {
    let sc = args.scale;
    let n = 1usize << sc.serve_exp;
    let cfg = config(n, false);
    let mut out = Outcome::default();

    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..sc.setup_reps {
        drop(kept.take());
        let t = Instant::now();
        let mut rng = Xoshiro256pp::from_u64(args.seed ^ STEADY_TAG);
        let space = RingSpace::random(n, &mut rng);
        let root = rng.next_u64();
        let mut engine = ServeEngine::new(space, cfg, root);
        engine.run(warm_events(n));
        setup_s.push(t.elapsed().as_secs_f64());
        kept = Some((engine, root));
    }
    let (mut engine, root) = kept.expect("at least one set-up");

    // p90, not p99: one batch in 16 carries the wheel's level-1 cascade,
    // a linked-list walk whose cost follows the host's memory latency; its
    // p99 spread 40% across runs on the reference host. The cascade still
    // shows in events_per_s.
    let pace = Pace {
        seconds: args.seconds,
        min_batches: sc.min_batches,
        max_batches: u64::MAX,
        milestone: Some(sc.milestone),
        tail_q: 0.9,
        trace: args.trace,
        segment: sc.segment,
    };
    let mut d = drive(&mut engine, &pace, &mut out);
    let stats = d.busy.stats();
    out.e2e("setup_s", median(&mut setup_s), "s");
    out.e2e("events_per_s", BATCH as f64 * stats.ops_per_s, "1/s");
    out.e2e("batch_p50_us", stats.p50 / 1e3, "us");
    out.e2e("batch_tail_us", stats.tail / 1e3, "us");
    out.note(stats.note(
        "batch_p50_us/batch_tail_us/events_per_s (64-event batch)",
        0.9,
    ));
    d.quality
        .as_ref()
        .expect("steady reads quality")
        .push(&mut out);

    if !args.trace {
        return out;
    }
    let captured = d.state.take().unwrap_or_else(|| {
        let t = Instant::now();
        let s = engine.state();
        d.state_us.push(ns_since(t) / 1e3);
        s
    });
    let space = engine.space();
    let costs = space_costs(&mut out, space, root, engine.arrivals(), &captured.loads);
    out.layer("load.spilled_bins", 0.0, "count");
    let (wheel, _) = push_state_layers(&mut out, &captured, median(&mut d.state_us), args.seed);
    push_counter_rows(&mut out, &d.flow, 0.0);
    out.layer(
        "harness.gen_lag_p99_us",
        quantile(&mut d.gaps, 0.99) / 1e3,
        "us",
    );
    paper::push_trial_rows(&mut out, sc, args.seed ^ STEADY_TAG, OFFPATH_PAIRS);
    reference_probe(args, &mut out, false);

    let drained = d.traced_drained as f64 / d.traced_busy.len().max(1) as f64;
    push_attribution(
        &mut out,
        stats.mean,
        &steady_parts(&costs, &wheel, drained, 0.0),
        "the lifetime ln/ceil in sample_life, the admission verdict, peak-load bookkeeping, \
         the load-warming sweep, tie-lane keying and loop control",
    );
    push_trace_overhead(&mut out, &d, stats.mean);
    out
}

// ---------------------------------------------------------------------------
// The journaled rig (serve_durable_churn, and the reference probe)
// ---------------------------------------------------------------------------

type Durable = DurableEngine<RingSpace, PackedLoads, DepartureWheel>;
type Plain = ServeEngine<RingSpace, PackedLoads, DepartureWheel>;

/// A warmed journaled engine plus everything needed to recover it.
struct Rig {
    space: RingSpace,
    cfg: ServeConfig,
    root: u64,
    plan: FaultPlan,
    /// Events the fault plan covers.
    horizon: u64,
    dir: PathBuf,
    durable: Durable,
    /// A plain `ServeEngine` copy of the engine during a traced segment.
    twin: Option<Plain>,
}

impl Rig {
    /// Builds the space, the fault plan and the journal directory, then
    /// warms the engine to steady state under the durability discipline.
    fn setup(n: usize, seed: u64, horizon: u64, dir: PathBuf) -> Result<Self, String> {
        let mut rng = Xoshiro256pp::from_u64(seed);
        let space = RingSpace::random(n, &mut rng);
        let root = rng.next_u64();
        // Faults arrive at rate faults/horizon per event and each keeps
        // its server down `downtime` events on average, so the share of
        // servers down is faults·downtime / (horizon·n).
        let downtime = DOWNTIME_LIVES * n as u64;
        let faults = (DOWN_SHARE * horizon as f64 * n as f64 / downtime as f64) as usize;
        let plan = FaultPlan::random_churn(rng.next_u64(), n, horizon, faults, downtime);
        let cfg = config(n, true);
        let _ = fs::remove_dir_all(&dir);
        let mut durable = Durable::create_with(
            &dir,
            space.clone(),
            cfg,
            root,
            CHECKPOINT_EVERY,
            PackedLoads::nibble(n),
        )
        .map_err(|e| format!("create journal: {e}"))?;
        for _ in 0..warm_events(n) / BATCH {
            durable
                .run_journaled(BATCH, &plan)
                .map_err(|e| format!("warm-up: {e}"))?;
        }
        Ok(Self {
            space,
            cfg,
            root,
            plan,
            horizon,
            dir,
            durable,
            twin: None,
        })
    }

    /// Bytes the fault plan holds.
    fn plan_bytes(&self) -> usize {
        self.plan.len() * std::mem::size_of::<(u64, FaultAction)>()
    }
}

impl Served for Rig {
    type S = RingSpace;
    type L = PackedLoads;

    fn engine(&self) -> &Plain {
        self.durable.engine()
    }

    fn batch(&mut self) -> Result<(), String> {
        self.durable
            .run_journaled(BATCH, &self.plan)
            .map_err(|e| e.to_string())
    }

    fn checkpoints(&self) -> u64 {
        self.durable.checkpoints()
    }

    fn journal_bytes(&self) -> u64 {
        self.durable.journal_bytes()
    }

    fn actions_in(&self, from: u64, to: u64) -> (u64, u64) {
        let events = self.plan.events();
        let lo = events.partition_point(|&(at, _)| at < from);
        let hi = events.partition_point(|&(at, _)| at < to);
        let crashes = events[lo..hi]
            .iter()
            .filter(|(_, a)| matches!(a, FaultAction::Crash(_)))
            .count();
        ((hi - lo) as u64, crashes as u64)
    }

    /// Batches before the plan's horizon, keeping room for the run to the
    /// next checkpoint and the tail that `crash_and_recover` adds.
    fn batches_left(&self) -> u64 {
        let left = self.horizon.saturating_sub(self.engine().arrivals()) / BATCH;
        left.saturating_sub(CHECKPOINT_EVERY / BATCH + TAIL_BATCHES)
    }

    /// The twin starts as a plain copy of the journaled engine.
    fn begin_segment(&mut self) {
        self.twin = Some(self.engine().clone());
    }

    /// The same batch on the twin, through `ServeEngine::run_with_faults`.
    fn twin_batch(&mut self) -> Option<f64> {
        let twin = self.twin.as_mut()?;
        let t = Instant::now();
        twin.run_with_faults(BATCH, &self.plan);
        Some(ns_since(t))
    }

    /// The twin must hold exactly the journaled engine's state
    /// (journaling only observes the run).
    fn end_segment(&mut self, out: &mut Outcome) {
        if let Some(twin) = self.twin.take() {
            out.check(twin.state() == self.engine().state(), || {
                "journaled engine diverged from its plain twin".into()
            });
        }
    }
}

/// The journal rows measured by a traced `drive`; returns the frame
/// overhead per plain batch (ns).
fn push_journal_rows(out: &mut Outcome, d: &mut Drive) -> f64 {
    let frame_overhead = median(&mut d.frame_overhead);
    out.layer(
        "journal.checkpoint_batch_us",
        median(&mut d.checkpoint_busy) / 1e3,
        "us",
    );
    out.layer(
        "journal.plain_batch_us",
        median(&mut d.plain_busy) / 1e3,
        "us",
    );
    out.layer("journal.frame_overhead_us", frame_overhead / 1e3, "us");
    out.layer(
        "journal.bytes_per_event",
        d.journal_bytes as f64 / d.events.max(1) as f64,
        "bytes",
    );
    out.note(format!(
        "journal: {} checkpoint and {} plain traced batches",
        d.checkpoint_busy.len(),
        d.plain_busy.len()
    ));
    frame_overhead
}

/// Runs the rig past its next checkpoint plus `TAIL_BATCHES`, records the
/// state, drops the engine, then `repeats` times appends a torn partial
/// frame to the journal and times `Recovery::resume`, checking that it
/// rebuilds the recorded state byte for byte and truncates exactly the
/// tear. Pushes the recovery and frame-scan rows; removes the directory.
fn crash_and_recover(rig: Rig, repeats: usize, out: &mut Outcome) {
    let Rig {
        space,
        cfg,
        root,
        plan,
        dir,
        mut durable,
        ..
    } = rig;
    let n = space.num_servers();
    let result = (|| -> Result<(Vec<f64>, Vec<f64>, f64, u64), String> {
        let c0 = durable.checkpoints();
        loop {
            durable
                .run_journaled(BATCH, &plan)
                .map_err(|e| e.to_string())?;
            let since = durable.engine().arrivals() - durable.checkpoint_event();
            if durable.checkpoints() > c0 && since == TAIL_BATCHES * BATCH {
                break;
            }
        }
        let recorded = durable.engine().state();
        let recorded_bytes = encode_state(&recorded);
        drop(durable);

        let journal = dir.join(JOURNAL_FILE);
        let (mut resume_ms, mut scan_us) = (Vec::new(), Vec::new());
        let mut replayed = 0;
        for _ in 0..repeats {
            fs::OpenOptions::new()
                .append(true)
                .open(&journal)
                .and_then(|mut f| f.write_all(&TORN))
                .map_err(|e| format!("tear journal: {e}"))?;
            let bytes = fs::read(&journal).map_err(|e| e.to_string())?;
            let t = Instant::now();
            let frames = scan_frames(&bytes[Header::LEN..]);
            scan_us.push(ns_since(t) / 1e3);
            let torn_seen = matches!(frames.map(|f| f.tail), Ok(Tail::Torn { .. }));
            let t = Instant::now();
            let resumed = Recovery::resume::<_, _, DepartureWheel>(
                &dir,
                space.clone(),
                cfg,
                root,
                &plan,
                PackedLoads::nibble(n),
            )
            .map_err(|e| format!("resume: {e}"))?;
            resume_ms.push(ns_since(t) / 1e6);
            replayed = resumed.replayed;
            let exact = encode_state(&resumed.engine.state()) == recorded_bytes;
            out.check(
                exact && torn_seen && resumed.torn_bytes == TORN.len() as u64 && replayed == TAIL_BATCHES * BATCH,
                || {
                    format!(
                        "recovery: exact={exact} torn_seen={torn_seen} torn_bytes={} replayed={replayed}",
                        resumed.torn_bytes
                    )
                },
            );
        }
        // Replay cost alone: restore the checkpoint, then time the
        // deterministic re-run of the journaled tail.
        let ckpt = fs::read(dir.join(CHECKPOINT_FILE)).map_err(|e| e.to_string())?;
        let frames = scan_frames(&ckpt[Header::LEN..]).map_err(|e| e.to_string())?;
        let state = decode_state(frames.payloads[0]).map_err(|e| e.to_string())?;
        let mut engine: Plain = ServeEngine::restore_with_scheduler(
            space.clone(),
            cfg,
            root,
            &state,
            PackedLoads::nibble(n),
        );
        let t = Instant::now();
        engine.run_with_faults(replayed, &plan);
        let replay_ns = ns_since(t) / replayed.max(1) as f64;
        out.check(engine.state() == recorded, || {
            "restored checkpoint + replay differs from the crashed engine".into()
        });
        Ok((resume_ms, scan_us, replay_ns, replayed))
    })();
    let _ = fs::remove_dir_all(&dir);
    let (mut resume_ms, mut scan_us, replay_ns, replayed) = result.unwrap_or_else(|err| {
        out.error(err);
        (Vec::new(), Vec::new(), 0.0, 0)
    });
    out.layer("frame.scan_us", median(&mut scan_us), "us");
    out.layer("recovery.replayed_events", replayed as f64, "count");
    out.layer("recovery.torn_bytes", TORN.len() as f64, "bytes");
    out.layer("recovery.replay_ns_per_event", replay_ns, "ns");
    out.layer("recovery.resume_ms", median(&mut resume_ms), "ms");
}

/// Times the durability layers for a workload that does not journal: a
/// reference journaled engine (the churn configuration on a ring of
/// `2^serve_exp` servers, keyed by the workload's seed) runs
/// `probe_batches` traced closed-loop batches, then crashes and recovers.
/// With `state_layers`, its checkpointed state also feeds the wheel,
/// state and codec probes. None of these rows enters the attribution.
pub fn reference_probe(args: &Args, out: &mut Outcome, state_layers: bool) {
    let sc = args.scale;
    let n = 1usize << sc.serve_exp;
    let dir = scratch_dir(&args.scratch, "reference");
    let rig = Rig::setup(n, args.seed ^ REFERENCE_TAG, sc.horizon, dir.clone());
    let mut rig = match rig {
        Ok(rig) => rig,
        Err(err) => {
            let _ = fs::remove_dir_all(&dir);
            out.error(err);
            return;
        }
    };
    let pace = Pace {
        seconds: 0.0,
        min_batches: sc.probe_batches,
        max_batches: sc.probe_batches,
        milestone: None,
        tail_q: 0.99,
        trace: true,
        segment: 0,
    };
    let mut d = drive(&mut rig, &pace, out);
    push_journal_rows(out, &mut d);
    if state_layers {
        let state = d.state.take().unwrap_or_else(|| rig.engine().state());
        push_state_layers(out, &state, median(&mut d.state_us), args.seed);
    }
    crash_and_recover(rig, sc.recoveries, out);
}

fn scratch_dir(scratch: &Path, what: &str) -> PathBuf {
    scratch.join(format!("{what}-{}", std::process::id()))
}

// ---------------------------------------------------------------------------
// serve_durable_churn
// ---------------------------------------------------------------------------

pub fn run_churn(args: &Args) -> Outcome {
    let sc = args.scale;
    let n = 1usize << sc.serve_exp;
    let mut out = Outcome::default();
    let dir = scratch_dir(&args.scratch, "churn");

    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..sc.setup_reps {
        drop(kept.take());
        let t = Instant::now();
        match Rig::setup(n, args.seed ^ CHURN_TAG, sc.horizon, dir.clone()) {
            Ok(rig) => {
                setup_s.push(t.elapsed().as_secs_f64());
                kept = Some(rig);
            }
            Err(err) => out.error(err),
        }
    }
    let Some(mut rig) = kept else {
        let _ = fs::remove_dir_all(&dir);
        return out;
    };
    out.note(format!(
        "fault plan: {} actions over {} events ({} bytes)",
        rig.plan.len(),
        rig.horizon,
        rig.plan_bytes()
    ));

    // p99 lands on the checkpoint batches (1 in 64): the stall a caller
    // sees behind a checkpoint.
    let pace = Pace {
        seconds: args.seconds,
        min_batches: sc.min_batches,
        max_batches: u64::MAX,
        milestone: Some(sc.milestone),
        tail_q: 0.99,
        trace: args.trace,
        segment: sc.segment,
    };
    let mut d = drive(&mut rig, &pace, &mut out);
    out.e2e("setup_s", median(&mut setup_s), "s");
    let busy = d.busy.stats();
    out.e2e("events_per_s", BATCH as f64 * busy.ops_per_s, "1/s");
    out.e2e("batch_p50_us", busy.p50 / 1e3, "us");
    out.e2e("batch_tail_us", busy.tail / 1e3, "us");
    out.note(busy.note(
        "batch_p50_us/batch_tail_us/events_per_s (64-event batch)",
        0.99,
    ));
    d.quality
        .as_ref()
        .expect("churn reads quality")
        .push(&mut out);

    if !args.trace {
        crash_and_recover(rig, sc.recoveries, &mut out);
        return out;
    }
    let state = d.state.take().unwrap_or_else(|| {
        let t = Instant::now();
        let s = rig.engine().state();
        d.state_us.push(ns_since(t) / 1e3);
        s
    });
    let packed = layers::packed_from(&state.loads);
    let costs = space_costs(
        &mut out,
        &rig.space,
        rig.root,
        rig.engine().arrivals(),
        &packed,
    );
    out.layer("load.spilled_bins", packed.spilled_bins() as f64, "count");
    let (wheel, codec) = push_state_layers(&mut out, &state, median(&mut d.state_us), args.seed);
    push_counter_rows(&mut out, &d.flow, d.fault_actions as f64);
    out.layer(
        "harness.gen_lag_p99_us",
        quantile(&mut d.gaps, 0.99) / 1e3,
        "us",
    );
    let batches = (d.busy.len() + d.traced_busy.len() as u64).max(1) as f64;
    let checkpoint_share = d.checkpoint_busy.len() as f64 / d.traced_busy.len().max(1) as f64;
    let drained = d.traced_drained as f64 / d.traced_busy.len().max(1) as f64;
    let crashes = d.crashes as f64 / batches;
    let frame_overhead = push_journal_rows(&mut out, &mut d);
    paper::push_trial_rows(&mut out, sc, args.seed ^ CHURN_TAG, OFFPATH_PAIRS);
    crash_and_recover(rig, sc.recoveries, &mut out);

    let mut parts = steady_parts(&costs, &wheel, drained, crashes);
    parts.push(("journal.frame", (1.0 - checkpoint_share) * frame_overhead));
    parts.push((
        "checkpoint.state+encode+crc",
        checkpoint_share
            * (median(&mut d.state_us) * 1e3
                + codec.encode_us * 1e3
                + codec.crc_ns_per_kb * codec.checkpoint_bytes / 1024.0),
    ));
    push_attribution(
        &mut out,
        busy.mean,
        &parts,
        "the checkpoint file write, rename and journal truncation, fault application \
         (fail/recover), the retry path, the lifetime ln/ceil, the admission verdict and \
         the load-warming sweep",
    );
    push_trace_overhead(&mut out, &d, busy.mean);
    out
}
