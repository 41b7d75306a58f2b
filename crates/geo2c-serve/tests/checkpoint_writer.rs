//! Byte identity of the direct checkpoint writer.
//!
//! [`DurableEngine`] encodes `checkpoint.bin` straight from the engine's
//! load backing and departure queue, without building an
//! [`EngineState`]. The file must hold exactly
//! `header ‖ frame(encode_state(&engine.state()))`, and `encode_state`
//! must match [`reference_image`], an encoder written from the codec's
//! definition with no code shared with the crate's writer. Pinned across:
//!
//! * the flat, nibble-packed and byte-packed load backings × the timing
//!   wheel and the heap oracle, whose files must all be identical;
//! * failed servers (the [`FAILED_LOAD`] sentinel and the failure
//!   bitset), capacity sheds and retries;
//! * engines restored from a checkpoint taken at an arbitrary clock
//!   (almost never on the wheel's 1024-event slot grid), checkpointed
//!   again before and after further events;
//! * lifetimes that reach the end of the clock: `Fixed(u64::MAX)` and
//!   huge exponential means, whose deadlines are too far ahead to pack
//!   beside the server bits and take the wheel's far-entry path.

use geo2c_core::load::{LoadState, PackedLoads};
use geo2c_core::space::{RingSpace, Space as _};
use geo2c_core::strategy::Strategy;
use geo2c_serve::engine::{EngineState, ServeConfig, SessionLife, FAILED_LOAD};
use geo2c_serve::fault::{FaultAction, FaultPlan};
use geo2c_serve::journal::{
    encode_state, fingerprint, DurableEngine, Recovery, Resumed, CHECKPOINT_FILE, CHECKPOINT_MAGIC,
    FORMAT_VERSION,
};
use geo2c_serve::wheel::{DepartureQueue, DepartureWheel, HeapQueue};
use geo2c_util::frame::{append_frame, Header};
use geo2c_util::rng::Xoshiro256pp;
use proptest::prelude::*;
use rand::RngCore;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique per-test scratch directory under the system temp dir.
fn temp_dir(tag: &str) -> PathBuf {
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    let id = UNIQUE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("geo2c-writer-{}-{tag}-{id}", std::process::id()))
}

/// The checkpoint codec, written from its definition: a version byte,
/// LEB128 varints for the counters, the retry histogram, the peak, the
/// server count and every load, the failure bitset (bit `s` of byte
/// `s / 8`), then the departure count and per departure the deadline's
/// delta from its predecessor and the server.
fn reference_image(state: &EngineState) -> Vec<u8> {
    fn var(out: &mut Vec<u8>, mut value: u64) {
        while value >= 0x80 {
            out.push((value as u8) | 0x80);
            value >>= 7;
        }
        out.push(value as u8);
    }
    let (c, r) = (&state.counters, &state.retry);
    let mut out = vec![1];
    for word in [
        c.arrivals,
        c.departed,
        c.shed,
        c.evicted,
        r.shed_capacity,
        r.shed_unavailable,
        r.admitted_on_retry,
        r.by_attempt.len() as u64,
    ] {
        var(&mut out, word);
    }
    for &count in &r.by_attempt {
        var(&mut out, count);
    }
    var(&mut out, u64::from(state.peak_load));
    var(&mut out, state.loads.len() as u64);
    for &load in &state.loads {
        var(&mut out, u64::from(load));
    }
    let mut bits = vec![0u8; (state.loads.len() + 7) / 8];
    for (s, &load) in state.loads.iter().enumerate() {
        if load == FAILED_LOAD {
            bits[s / 8] |= 1 << (s % 8);
        }
    }
    out.extend_from_slice(&bits);
    var(&mut out, state.departures.len() as u64);
    let mut prev = 0;
    for &(when, server) in &state.departures {
        var(&mut out, when - prev);
        var(&mut out, u64::from(server));
        prev = when;
    }
    out
}

/// One generated scenario, run on every backing × scheduler pair.
struct Case {
    space: RingSpace,
    config: ServeConfig,
    root: u64,
    plan: FaultPlan,
    every: u64,
    /// Events before the crash.
    p: u64,
    /// Events after the resume.
    q: u64,
}

impl Case {
    /// Forces a checkpoint, checks `checkpoint.bin` byte for byte and
    /// returns it.
    fn assert_checkpoint<L: LoadState, Q: DepartureQueue>(
        &self,
        durable: &mut DurableEngine<RingSpace, L, Q>,
        dir: &Path,
        what: &str,
    ) -> Vec<u8> {
        durable.checkpoint_now().unwrap();
        let state = durable.engine().state();
        let payload = encode_state(&state);
        assert_eq!(
            payload,
            reference_image(&state),
            "{what}: encode_state differs from the codec definition"
        );
        let binds = [
            self.root,
            fingerprint(self.space.num_servers(), &self.config),
        ];
        let mut expected = Header {
            magic: CHECKPOINT_MAGIC,
            version: FORMAT_VERSION,
            binds,
        }
        .encode()
        .to_vec();
        append_frame(&mut expected, &payload);
        let written = fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
        assert!(
            written == expected,
            "{what}: checkpoint.bin ({} bytes) differs from header ‖ frame(encode_state(state())) ({} bytes)",
            written.len(),
            expected.len()
        );
        written
    }

    /// Runs the scenario on load backing `L` (built by `fresh`) and
    /// scheduler `Q`: checkpoints a fresh run, then restores from it
    /// mid-stream and checkpoints the resumed engine before and after
    /// further events. Returns the three checkpoint files.
    fn run<L: LoadState, Q: DepartureQueue>(
        &self,
        fresh: impl Fn() -> L,
        what: &str,
    ) -> Vec<Vec<u8>> {
        let dir = temp_dir(what);
        let mut durable: DurableEngine<RingSpace, L, Q> = DurableEngine::create_with(
            &dir,
            self.space.clone(),
            self.config,
            self.root,
            self.every,
            fresh(),
        )
        .unwrap();
        durable.run_journaled(self.p, &self.plan).unwrap();
        let mut files = vec![self.assert_checkpoint(&mut durable, &dir, what)];
        // Crash after some journaled events past that checkpoint, then
        // resume from the last one: the queue is rebuilt at its clock.
        durable.run_journaled(self.q / 2, &self.plan).unwrap();
        drop(durable);
        let resumed: Resumed<RingSpace, L, Q> = Recovery::resume(
            &dir,
            self.space.clone(),
            self.config,
            self.root,
            &self.plan,
            fresh(),
        )
        .unwrap();
        let mut durable = resumed.into_durable(self.every).unwrap();
        files.push(self.assert_checkpoint(&mut durable, &dir, what));
        durable.run_journaled(self.q, &self.plan).unwrap();
        files.push(self.assert_checkpoint(&mut durable, &dir, what));
        fs::remove_dir_all(&dir).ok();
        files
    }
}

/// `(kind, ttl, mean)` → a lifetime: short fixed, short exponential,
/// the end of the clock, or a mean of 10^16–10^18 events, whose
/// deadlines straddle `2^58` (the widest offset that packs beside the
/// six server bits of up to 64 servers).
fn life_from(kind: u8, ttl: u64, mean: f64) -> SessionLife {
    match kind {
        0 => SessionLife::Fixed(ttl),
        1 => SessionLife::Exponential { mean },
        2 => SessionLife::Fixed(u64::MAX),
        _ => SessionLife::Exponential { mean: mean * 1e16 },
    }
}

proptest! {
    /// `checkpoint.bin` is `header ‖ frame(encode_state(state()))` on
    /// every backing and scheduler, fresh and restored, with failed
    /// servers, retries and end-of-clock deadlines.
    #[test]
    fn direct_writer_matches_encode_state_everywhere(
        seed in 0u64..1 << 48,
        n in 1usize..48,
        p in 1u64..1600,
        q in 0u64..1000,
        every in 128u64..1500,
        d in 1usize..4,
        cap in 0u32..6,
        life in (0u8..4, 1u64..200, 0.5f64..150.0),
        retries in 0u32..3,
        raw_plan in proptest::collection::vec((0u64..900, 0usize..48, 0u8..2), 0..10),
    ) {
        let mut rng = Xoshiro256pp::from_u64(seed ^ 0x00C4_EC4B);
        let space = RingSpace::random(n, &mut rng);
        let root = rng.next_u64();
        let plan = FaultPlan::new(
            raw_plan
                .iter()
                .filter(|&&(_, s, _)| s < n)
                .map(|&(at, s, kind)| {
                    (at, if kind == 1 { FaultAction::Recover(s) } else { FaultAction::Crash(s) })
                })
                .collect(),
        );
        let case = Case {
            space,
            config: ServeConfig {
                strategy: Strategy::d_choice(d),
                capacity: (cap > 0).then_some(cap),
                life: life_from(life.0, life.1, life.2),
                retries,
            },
            root,
            plan,
            every,
            p,
            q,
        };
        // The heap's plain sort is the reference; the state is the same
        // on every backing and scheduler, so every file must be too.
        let reference = case.run::<_, HeapQueue>(|| vec![0u32; n], "flat-heap");
        let same = |files: Vec<Vec<u8>>| files == reference;
        prop_assert!(same(case.run::<_, HeapQueue>(|| PackedLoads::nibble(n), "nibble-heap")));
        prop_assert!(same(case.run::<_, HeapQueue>(|| PackedLoads::byte(n), "byte-heap")));
        prop_assert!(same(case.run::<_, DepartureWheel>(|| vec![0u32; n], "flat-wheel")));
        prop_assert!(same(case.run::<_, DepartureWheel>(|| PackedLoads::nibble(n), "nibble-wheel")));
        prop_assert!(same(case.run::<_, DepartureWheel>(|| PackedLoads::byte(n), "byte-wheel")));
    }
}
