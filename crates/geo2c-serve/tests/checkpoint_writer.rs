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
//!   beside the server bits and take the wheel's far-entry path;
//! * staged checkpoints: an engine whose image spans several journaled
//!   chunks, with arrivals, drains, crashes and capacity sheds running
//!   while it is pending. The finished file is the image of the state at
//!   its boundary; `checkpoint_now` mid-job finishes the job, then writes
//!   its own image; a boundary reached mid-job finishes the old image
//!   first.

use geo2c_core::load::{LoadState, PackedLoads};
use geo2c_core::space::{RingSpace, Space as _};
use geo2c_core::strategy::Strategy;
use geo2c_serve::engine::{EngineState, ServeConfig, SessionLife, FAILED_LOAD};
use geo2c_serve::fault::{FaultAction, FaultPlan};
use geo2c_serve::journal::{
    encode_state, fingerprint, DurableEngine, Recovery, Resumed, CHECKPOINT_FILE, CHECKPOINT_MAGIC,
    CHECKPOINT_TMP, FORMAT_VERSION, JOURNAL_FILE,
};
use geo2c_serve::wheel::{DepartureQueue, DepartureWheel, HeapQueue};
use geo2c_util::frame::{append_frame, scan_frames, Header};
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

/// The boundary of the staged scenario: the first checkpoint's event.
const STAGED_AT: u64 = 24_576;

/// A scenario whose checkpoint image spans several journaled chunks: 256
/// servers filled to a capacity bound of 90 by sessions that last about
/// 2^20 events, so about 19k departures are pending at [`STAGED_AT`] and
/// arrivals shed from then on. Servers crash and recover every 90 events
/// after it, so purges run while an image is staged.
fn staged_case(every: u64) -> Case {
    let n = 256;
    let mut rng = Xoshiro256pp::from_u64(0x57A6_ED00);
    let space = RingSpace::random(n, &mut rng);
    let root = rng.next_u64();
    let plan = FaultPlan::new(
        (0..12u64)
            .map(|k| {
                let at = STAGED_AT + 10 + 90 * k;
                let server = (k / 2 * 37) as usize % n;
                let action = if k % 2 == 0 {
                    FaultAction::Crash(server)
                } else {
                    FaultAction::Recover(server)
                };
                (at, action)
            })
            .collect(),
    );
    Case {
        space,
        config: ServeConfig {
            strategy: Strategy::two_choice(),
            capacity: Some(90),
            life: SessionLife::Exponential {
                mean: f64::from(1 << 20),
            },
            retries: 1,
        },
        root,
        plan,
        every,
        p: STAGED_AT,
        q: 0,
    }
}

impl Case {
    /// `header ‖ frame(encode_state(state))`: the checkpoint file of
    /// `state`.
    fn image_file(&self, state: &EngineState) -> Vec<u8> {
        let binds = [
            self.root,
            fingerprint(self.space.num_servers(), &self.config),
        ];
        let mut file = Header {
            magic: CHECKPOINT_MAGIC,
            version: FORMAT_VERSION,
            binds,
        }
        .encode()
        .to_vec();
        append_frame(&mut file, &encode_state(state));
        file
    }

    /// A durable engine for the scenario in a fresh directory.
    fn create<L: LoadState, Q: DepartureQueue>(
        &self,
        dir: &Path,
        loads: L,
    ) -> DurableEngine<RingSpace, L, Q> {
        DurableEngine::create_with(
            dir,
            self.space.clone(),
            self.config,
            self.root,
            self.every,
            loads,
        )
        .unwrap()
    }
}

/// The progress markers `journal.bin` holds, in file order.
fn journal_markers(dir: &Path) -> Vec<u64> {
    let bytes = fs::read(dir.join(JOURNAL_FILE)).unwrap();
    scan_frames(&bytes[Header::LEN..])
        .unwrap()
        .payloads
        .iter()
        .map(|payload| u64::from_le_bytes(payload[1..9].try_into().unwrap()))
        .collect()
}

/// Runs 64-event chunks until the engine's durable checkpoint count
/// reaches `count`, returning how many chunks it took.
fn chunks_until<L: LoadState, Q: DepartureQueue>(
    durable: &mut DurableEngine<RingSpace, L, Q>,
    plan: &FaultPlan,
    count: u64,
) -> u64 {
    let mut chunks = 0;
    while durable.checkpoints() < count {
        durable.run_journaled(64, plan).unwrap();
        chunks += 1;
        assert!(
            chunks < 16,
            "a staged checkpoint must finish within 16 chunks"
        );
    }
    chunks
}

/// The staged checkpoint's file is the image of the state at its
/// boundary, though arrivals, drains, crashes and capacity sheds ran on
/// while it was built; the compaction keeps exactly the frames after the
/// boundary, and the directory resumes to the live engine.
fn assert_staged_image_is_the_boundary_state<L: LoadState, Q: DepartureQueue>(
    fresh: impl Fn() -> L,
    what: &str,
) {
    let case = staged_case(STAGED_AT);
    let dir = temp_dir(what);
    let mut durable: DurableEngine<RingSpace, L, Q> = case.create(&dir, fresh());
    durable.run_journaled(STAGED_AT, &case.plan).unwrap();
    let at_boundary = durable.engine().state();
    assert!(
        at_boundary.departures.len() > 15_000,
        "{what}: too few departures to stage"
    );
    assert_eq!(
        (durable.checkpoints(), durable.checkpoint_event()),
        (0, 0),
        "{what}: the boundary's image must be staged, not written whole"
    );
    let (shed, evicted, departed) = {
        let e = durable.engine();
        (e.shed_capacity(), e.evicted(), e.departed())
    };
    let chunks = chunks_until(&mut durable, &case.plan, 1);
    assert!(chunks >= 2, "{what}: image finished after {chunks} chunk");
    assert_eq!(durable.checkpoint_event(), STAGED_AT, "{what}");
    let e = durable.engine();
    assert!(
        e.shed_capacity() > shed && e.evicted() > evicted && e.departed() > departed,
        "{what}: sheds, crashes and departures must run while the image is pending"
    );
    assert!(
        fs::read(dir.join(CHECKPOINT_FILE)).unwrap() == case.image_file(&at_boundary),
        "{what}: checkpoint.bin is not the image of the boundary state"
    );
    let after: Vec<u64> = (1..=chunks).map(|k| STAGED_AT + 64 * k).collect();
    assert_eq!(journal_markers(&dir), after, "{what}: compaction");
    let live = durable.engine().state();
    drop(durable);
    let resumed: Resumed<RingSpace, L, Q> = Recovery::resume(
        &dir,
        case.space.clone(),
        case.config,
        case.root,
        &case.plan,
        fresh(),
    )
    .unwrap();
    assert_eq!(
        (resumed.checkpoint_event, resumed.replayed),
        (STAGED_AT, 64 * chunks),
        "{what}"
    );
    assert_eq!(resumed.engine.state(), live, "{what}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn staged_checkpoints_write_the_image_of_their_boundary() {
    assert_staged_image_is_the_boundary_state::<_, DepartureWheel>(
        || PackedLoads::nibble(256),
        "staged-nibble-wheel",
    );
    assert_staged_image_is_the_boundary_state::<_, HeapQueue>(
        || vec![0u32; 256],
        "staged-flat-heap",
    );
}

/// `checkpoint_now` while an image is pending finishes that image, then
/// writes its own whole: the pending image becomes the spare.
#[test]
fn checkpoint_now_mid_job_finishes_the_job_then_writes_its_own() {
    let case = staged_case(STAGED_AT);
    let dir = temp_dir("now-mid-job");
    let mut durable: DurableEngine<RingSpace, PackedLoads, DepartureWheel> =
        case.create(&dir, PackedLoads::nibble(256));
    durable.run_journaled(STAGED_AT, &case.plan).unwrap();
    let at_boundary = durable.engine().state();
    durable.run_journaled(64, &case.plan).unwrap();
    assert_eq!(durable.checkpoints(), 0, "still pending");
    let now = durable.engine().state();
    durable.checkpoint_now().unwrap();
    assert_eq!(
        (durable.checkpoints(), durable.checkpoint_event()),
        (2, STAGED_AT + 64)
    );
    assert!(fs::read(dir.join(CHECKPOINT_FILE)).unwrap() == case.image_file(&now));
    assert!(
        fs::read(dir.join(CHECKPOINT_TMP)).unwrap() == case.image_file(&at_boundary),
        "the finished job's image is the spare"
    );
    assert_eq!(journal_markers(&dir), Vec::<u64>::new());
    fs::remove_dir_all(&dir).ok();
}

/// With a checkpoint interval shorter than an image takes to stage, each
/// boundary finds the previous image pending and finishes it before it
/// takes its own snapshot. The engine here is a resumed one: its first
/// boundary is already behind it, so its first call snapshots at once.
/// The image needs at least three budgets (the staged test above), and
/// the next boundary comes after two: the boundary's and one chunk's.
#[test]
fn a_boundary_reached_mid_job_finishes_the_old_image_first() {
    let case = staged_case(STAGED_AT);
    let dir = temp_dir("boundary-mid-job");
    let mut durable: DurableEngine<RingSpace, Vec<u32>, DepartureWheel> =
        case.create(&dir, vec![0; 256]);
    durable.run_journaled(STAGED_AT, &case.plan).unwrap();
    chunks_until(&mut durable, &case.plan, 1);
    drop(durable);
    let resumed: Resumed<RingSpace, Vec<u32>, DepartureWheel> = Recovery::resume(
        &dir,
        case.space.clone(),
        case.config,
        case.root,
        &case.plan,
        vec![0; 256],
    )
    .unwrap();
    let mut durable = resumed.into_durable(64).unwrap();
    let first = durable.engine().arrivals();
    let at_first = durable.engine().state();
    // Snapshot at `first`, one chunk, then the boundary at `first + 64`
    // finishes the first image before it snapshots again.
    durable.run_journaled(64, &case.plan).unwrap();
    assert_eq!(
        (durable.checkpoints(), durable.checkpoint_event()),
        (1, first)
    );
    assert!(fs::read(dir.join(CHECKPOINT_FILE)).unwrap() == case.image_file(&at_first));
    assert_eq!(journal_markers(&dir), vec![first + 64]);
    let at_second = durable.engine().state();
    durable.run_journaled(64, &case.plan).unwrap();
    assert_eq!(
        (durable.checkpoints(), durable.checkpoint_event()),
        (2, first + 64)
    );
    assert!(fs::read(dir.join(CHECKPOINT_FILE)).unwrap() == case.image_file(&at_second));
    fs::remove_dir_all(&dir).ok();
}
