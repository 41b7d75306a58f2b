//! Per-layer probes: each times one public call of one workspace layer
//! in a tight loop over inputs taken from the running workload (its
//! space, lane root, load vector and engine state), and reports the cost
//! per call. The traced run multiplies these costs by the calls each
//! end-to-end operation makes to get the layer sum behind
//! `attribution_gap_pct`.

use crate::report::{median_of, ns_since, Outcome};
use geo2c_core::load::{LoadState, PackedLoads};
use geo2c_core::sim::EventOwnerBlocks;
use geo2c_core::space::Space;
use geo2c_core::strategy::Strategy;
use geo2c_serve::engine::EngineState;
use geo2c_serve::journal::{decode_state, encode_state};
use geo2c_serve::{DepartureQueue, DepartureWheel};
use geo2c_util::frame::{append_frame, crc32, Header};
use geo2c_util::rng::{EventLanes, LaneSource, Xoshiro256pp};
use rand::RngCore as _;
use std::hint::black_box;
use std::time::Instant;

/// Timed passes per probe; the median pass is reported.
const PASSES: usize = 5;

/// Probes per event / ball in every workload (`d = 2`).
pub const D: usize = 2;

/// The failed-server load sentinel the serving engine pins.
const FAILED_LOAD: u32 = u32::MAX;

/// Per-probe cost of `space.sample_owners_lanes` over `blocks` 64-ball
/// blocks of `d = 2` probes starting at ball `first`: lane keying, probe
/// draws and (for geometric spaces) the owner lookup.
pub fn owners_ns<S: Space, L: LaneSource>(space: &S, lanes: &L, first: u64, blocks: u64) -> f64 {
    let mut buf = [0usize; 64 * D];
    median_of(PASSES, || {
        let t = Instant::now();
        let mut acc = 0usize;
        for b in 0..blocks {
            space.sample_owners_lanes(&lanes.block(first + b * 64), D, &mut buf);
            acc = acc.wrapping_add(buf[0] ^ buf[64 * D - 1]);
        }
        black_box(acc);
        ns_since(t) / (blocks * 64 * D as u64) as f64
    })
}

/// Per-call cost of `EventLanes::life(t).next_u64()`: keying the
/// lifetime lane of event `t` and drawing its one word.
pub fn life_lane_ns(lanes: &EventLanes, first: u64, count: u64) -> f64 {
    median_of(PASSES, || {
        let t = Instant::now();
        let mut acc = 0u64;
        for e in first..first + count {
            acc ^= lanes.life(e).next_u64();
        }
        black_box(acc);
        ns_since(t) / count as f64
    })
}

/// Per-event cost of `EventOwnerBlocks::block`: the serving engine's
/// owner pre-draw, one 64-event block per call.
pub fn owner_block_ns<S: Space, L: LaneSource>(
    space: &S,
    lanes: &L,
    first: u64,
    blocks: u64,
) -> f64 {
    let first = first - first % EventOwnerBlocks::BLOCK_EVENTS;
    median_of(PASSES, || {
        let mut cache = EventOwnerBlocks::new(D);
        let t = Instant::now();
        let mut acc = 0usize;
        for b in 0..blocks {
            let block = cache.block(space, lanes, first + b * EventOwnerBlocks::BLOCK_EVENTS);
            acc = acc.wrapping_add(block[0]);
        }
        black_box(acc);
        ns_since(t) / (blocks * EventOwnerBlocks::BLOCK_EVENTS) as f64
    })
}

/// The `d`-probe owner windows of `events` consecutive events from
/// `first`, exactly as the engine draws them.
pub fn event_owners<S: Space, L: LaneSource>(
    space: &S,
    lanes: &L,
    first: u64,
    events: u64,
) -> Vec<usize> {
    let mut cache = EventOwnerBlocks::new(D);
    (first..first + events)
        .flat_map(|e| cache.owners(space, lanes, e).to_vec())
        .collect()
}

/// Load-vector layer costs on one workload's load vector.
#[derive(Debug, Clone, Copy)]
pub struct LoadCosts {
    /// `Strategy::place_from_loads` per decision (tie lane keyed inside).
    pub place_ns: f64,
    /// `LoadRead::min_load_of` per `d`-probe window.
    pub min_load_ns: f64,
    /// One `LoadState::bump` plus one `LoadState::dec`.
    pub bump_dec_ns: f64,
}

/// Times the load-vector calls over the owner windows `owners` (from
/// [`event_owners`]) against `loads`; ties draw from `lanes.tie(first + i)`.
pub fn load_costs<S: Space, L: LoadState + Clone, T: LaneSource>(
    space: &S,
    strategy: &Strategy,
    loads: &L,
    owners: &[usize],
    lanes: &T,
    first: u64,
) -> LoadCosts {
    let calls = (owners.len() / D).max(1) as f64;
    let place_ns = median_of(PASSES, || {
        let t = Instant::now();
        let mut acc = 0usize;
        for (i, window) in owners.chunks_exact(D).enumerate() {
            let mut tie = lanes.tie(first + i as u64);
            acc ^= strategy.place_from_loads(space, loads, window, &mut tie);
        }
        black_box(acc);
        ns_since(t) / calls
    });
    let min_load_ns = median_of(PASSES, || {
        let t = Instant::now();
        let mut acc = 0u32;
        for window in owners.chunks_exact(D) {
            acc = acc.wrapping_add(loads.min_load_of(window));
        }
        black_box(acc);
        ns_since(t) / calls
    });
    // Failed servers hold the sentinel, which the engine never bumps.
    let live: Vec<usize> = owners
        .iter()
        .copied()
        .filter(|&s| loads.load(s) != FAILED_LOAD)
        .collect();
    let bump_dec_ns = median_of(PASSES, || {
        let mut scratch = loads.clone();
        let t = Instant::now();
        let mut acc = 0u32;
        for &s in &live {
            acc = acc.wrapping_add(scratch.bump(s));
            acc = acc.wrapping_add(scratch.dec(s));
        }
        black_box(acc);
        ns_since(t) / live.len().max(1) as f64
    });
    LoadCosts {
        place_ns,
        min_load_ns,
        bump_dec_ns,
    }
}

/// A nibble-packed copy of `loads` (the churn workload's backing).
pub fn packed_from(loads: &[u32]) -> PackedLoads {
    let mut packed = PackedLoads::nibble(loads.len());
    for (s, &l) in loads.iter().enumerate() {
        if l != 0 {
            packed.set(s, l);
        }
    }
    packed
}

/// Timing-wheel costs on one engine state's outstanding departures.
#[derive(Debug, Clone, Copy)]
pub struct WheelCosts {
    pub schedule_ns: f64,
    pub drain_ns: f64,
    pub purge_ns: f64,
    pub in_flight: f64,
}

/// Feeds `state`'s `(deadline, server)` entries, in a seeded shuffle of
/// their arrival order, into a fresh `DepartureWheel` and times
/// `schedule` per entry, `purge_server` per call and `drain_due` per
/// drained entry over the next `n / 4` events.
pub fn wheel_costs(state: &EngineState, seed: u64) -> WheelCosts {
    let n = state.loads.len();
    let now = state.counters.arrivals;
    let mut entries = state.departures.clone();
    let mut rng = Xoshiro256pp::from_u64(seed);
    for i in (1..entries.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        entries.swap(i, j);
    }
    let filled = || {
        let mut wheel = DepartureWheel::with_origin(n, now);
        for &(when, server) in &entries {
            wheel.schedule(when, server);
        }
        wheel
    };
    let schedule_ns = median_of(PASSES, || {
        let t = Instant::now();
        black_box(filled().len());
        ns_since(t) / entries.len().max(1) as f64
    });
    let wheel = filled();
    let purges = n.min(4096);
    let purge_ns = median_of(PASSES, || {
        let mut w = wheel.clone();
        let t = Instant::now();
        let mut acc = 0u64;
        for s in 0..purges {
            acc += w.purge_server(s as u32);
        }
        black_box(acc);
        ns_since(t) / purges as f64
    });
    let window = (n as u64 / 4).max(64);
    let drain_ns = median_of(PASSES, || {
        let mut w = wheel.clone();
        let mut count = 0u64;
        let t = Instant::now();
        w.drain_due(now + window - 1, |_| count += 1);
        ns_since(t) / count.max(1) as f64
    });
    WheelCosts {
        schedule_ns,
        drain_ns,
        purge_ns,
        in_flight: entries.len() as f64,
    }
}

/// State-codec and frame costs on one engine state.
#[derive(Debug, Clone, Copy)]
pub struct CodecCosts {
    pub encode_us: f64,
    pub decode_us: f64,
    pub crc_ns_per_kb: f64,
    /// Bytes of a checkpoint file holding this state (header + frame).
    pub checkpoint_bytes: f64,
    /// Whether `decode_state(encode_state(s)) == s`.
    pub round_trips: bool,
}

pub fn codec_costs(state: &EngineState) -> CodecCosts {
    let payload = encode_state(state);
    let encode_us = median_of(PASSES, || {
        let t = Instant::now();
        black_box(encode_state(state).len());
        ns_since(t) / 1e3
    });
    let decode_us = median_of(PASSES, || {
        let t = Instant::now();
        black_box(decode_state(&payload).is_ok());
        ns_since(t) / 1e3
    });
    let crc_ns_per_kb = median_of(PASSES, || {
        let t = Instant::now();
        black_box(crc32(&payload));
        ns_since(t) / (payload.len() as f64 / 1024.0)
    });
    let mut framed = Vec::new();
    append_frame(&mut framed, &payload);
    CodecCosts {
        encode_us,
        decode_us,
        crc_ns_per_kb,
        checkpoint_bytes: (Header::LEN + framed.len()) as f64,
        round_trips: decode_state(&payload).ok().as_ref() == Some(state),
    }
}

/// Pushes the wheel, engine-state and state-codec rows measured on
/// `state` (`state_us` is the caller's timing of `ServeEngine::state`).
pub fn push_state_layers(
    out: &mut Outcome,
    state: &EngineState,
    state_us: f64,
    seed: u64,
) -> (WheelCosts, CodecCosts) {
    let wheel = wheel_costs(state, seed);
    let codec = codec_costs(state);
    out.check(codec.round_trips, || {
        "state codec did not round-trip".into()
    });
    out.layer("wheel.schedule_ns", wheel.schedule_ns, "ns");
    out.layer("wheel.drain_ns", wheel.drain_ns, "ns");
    out.layer("wheel.purge_ns", wheel.purge_ns, "ns");
    out.layer("wheel.in_flight", wheel.in_flight, "count");
    out.layer("engine.state_us", state_us, "us");
    out.layer("journal.encode_us", codec.encode_us, "us");
    out.layer("journal.decode_us", codec.decode_us, "us");
    out.layer("journal.checkpoint_bytes", codec.checkpoint_bytes, "bytes");
    out.layer("frame.crc_ns_per_kb", codec.crc_ns_per_kb, "ns/KiB");
    (wheel, codec)
}

/// `attribution_gap_pct`: how much of the untraced per-operation time the
/// layer sum leaves unexplained. Flags gaps above 15% with the private
/// steps that fill them.
pub fn push_attribution(out: &mut Outcome, e2e_ns: f64, parts: &[(&str, f64)], private: &str) {
    let sum: f64 = parts.iter().map(|&(_, v)| v).sum();
    let gap = if e2e_ns > 0.0 {
        (e2e_ns - sum) / e2e_ns * 100.0
    } else {
        0.0
    };
    let split = parts
        .iter()
        .map(|(name, v)| format!("{name}={:.0}ns", v))
        .collect::<Vec<_>>()
        .join(" ");
    out.note(format!(
        "attribution: e2e {e2e_ns:.0} ns/op, layer sum {sum:.0} ns/op, gap {gap:.1}% ({split})"
    ));
    if gap.abs() > 15.0 {
        out.note(format!(
            "FLAG attribution gap {gap:.1}% exceeds 15%; unattributed private steps: {private}"
        ));
    }
    out.layer("attribution_gap_pct", gap, "%");
}
