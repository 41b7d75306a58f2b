//! Crash-point injection suite for the durability layer: a process that
//! dies at *any* byte of its checkpoint/journal lifecycle must recover
//! to a state byte-equal to the run that never crashed.
//!
//! The harness simulates crashes the way they actually land on disk —
//! truncating the journal at an arbitrary byte offset, flipping bits in
//! the tail frame, forging the residue of a crash inside a checkpoint
//! rotation (mid spare rewrite, after `bin → old`, after `tmp → bin`)
//! and between the rotation and the journal compaction — then drives
//! [`Recovery::resume`] and replays to the reference horizon. Pinned
//! across the flat and packed load backings and both schedulers
//! (timing wheel and heap oracle):
//!
//! 1. **Truncation crashes.** Cutting the journal anywhere past its
//!    header loses at most the torn tail: resume lands on an earlier
//!    durable marker and replays to byte equality.
//! 2. **Tail bit flips.** Garbling the final frame (its CRC or payload)
//!    is indistinguishable from a torn append and recovers the same way.
//! 3. **Mid-rotation / mid-compaction crashes.** A torn or stale spare
//!    (`checkpoint.tmp`) is ignored and removed; a `checkpoint.old` with
//!    no `checkpoint.bin` is moved back into place; journal frames the
//!    checkpoint already covers are skipped, not replayed twice. The
//!    rotation itself is pinned: `checkpoint.bin` and the spare swap
//!    between two inodes, and the spare holds the previous image.
//! 4. **Real corruption is loud.** A bad frame *followed by durable
//!    frames* — or any damage to the checkpoint, which only ever takes
//!    its name once complete — returns [`JournalError::Corrupt`] instead
//!    of silently truncating.
//! 5. **Staged-checkpoint crashes.** An engine whose image spans several
//!    chunks dies while the image is pending, after its rotation but
//!    before the journal compaction, or between the compaction's rewrite
//!    and its `set_len`. Each resumes byte-equal, replaying at most the
//!    checkpoint interval plus the chunks an image can span.

use geo2c_core::load::PackedLoads;
use geo2c_core::space::{RingSpace, Space as _};
use geo2c_core::strategy::Strategy;
use geo2c_serve::engine::{ServeConfig, ServeEngine, SessionLife};
use geo2c_serve::fault::{FaultAction, FaultPlan};
use geo2c_serve::journal::{
    DurableEngine, JournalError, Recovery, Resumed, CHECKPOINT_FILE, CHECKPOINT_OLD,
    CHECKPOINT_TMP, JOURNAL_FILE,
};
use geo2c_serve::wheel::{DepartureWheel, HeapQueue};
use geo2c_util::frame::{append_frame, scan_frames, Header, Tail};
use geo2c_util::rng::Xoshiro256pp;
use proptest::prelude::*;
use proptest::strategy::Strategy as _;
use rand::RngCore;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique per-test scratch directory under the system temp dir (the
/// offline vendor set has no `tempfile` crate).
fn temp_dir(tag: &str) -> PathBuf {
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    let id = UNIQUE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("geo2c-crash-{}-{tag}-{id}", std::process::id()))
}

/// `(kind, ttl, mean)` → a [`SessionLife`] (no `prop_oneof!` in the
/// shim proptest; variant selection is an explicit generated flag).
fn lives() -> impl proptest::strategy::Strategy<Value = SessionLife> {
    (0u8..2, 1u64..120, 0.5f64..120.0).prop_map(|(kind, ttl, mean)| {
        if kind == 0 {
            SessionLife::Fixed(ttl)
        } else {
            SessionLife::Exponential { mean }
        }
    })
}

/// `0..=10`, with the top value standing in for "unbounded".
fn capacities() -> impl proptest::strategy::Strategy<Value = Option<u32>> {
    (0u32..11).prop_map(|cap| if cap == 10 { None } else { Some(cap) })
}

/// Raw `(event, server, kind)` triples → a [`FaultPlan`] over `n`
/// servers (out-of-range victims dropped, `kind == 1` recovers).
fn plan_from(raw: &[(u64, usize, u8)], n: usize) -> FaultPlan {
    FaultPlan::new(
        raw.iter()
            .filter(|&&(_, s, _)| s < n)
            .map(|&(at, s, kind)| {
                let action = if kind == 1 {
                    FaultAction::Recover(s)
                } else {
                    FaultAction::Crash(s)
                };
                (at, action)
            })
            .collect(),
    )
}

/// A fresh journal directory for an engine on the flat backing.
fn create(
    dir: &PathBuf,
    space: &RingSpace,
    config: ServeConfig,
    root: u64,
    every: u64,
) -> DurableEngine<RingSpace> {
    let loads = vec![0; space.num_servers()];
    DurableEngine::create_with(dir, space.clone(), config, root, every, loads).unwrap()
}

/// Runs the journaled engine to `p` events in `chunk`-sized calls (each
/// call appends at least one progress frame), as a long-running service
/// would.
#[allow(clippy::too_many_arguments)]
fn journaled_to(
    dir: &PathBuf,
    space: &RingSpace,
    config: ServeConfig,
    root: u64,
    every: u64,
    plan: &FaultPlan,
    p: u64,
    chunk: u64,
) -> DurableEngine<RingSpace> {
    let mut durable = create(dir, space, config, root, every);
    let mut left = p;
    while left > 0 {
        let step = chunk.min(left);
        durable.run_journaled(step, plan).unwrap();
        left -= step;
    }
    durable
}

/// Resumes from `dir` on every backing × scheduler combination, replays
/// each to `horizon`, and asserts byte equality with `reference`.
fn assert_recovers_everywhere(
    dir: &PathBuf,
    space: &RingSpace,
    config: ServeConfig,
    root: u64,
    plan: &FaultPlan,
    horizon: u64,
    reference: &geo2c_serve::engine::EngineState,
) {
    let n = space.num_servers();
    let packed: Resumed<_, PackedLoads, DepartureWheel> =
        Recovery::resume(dir, space.clone(), config, root, plan, PackedLoads::byte(n)).unwrap();
    assert!(
        packed.engine.arrivals() <= horizon,
        "resumed past the crash"
    );
    assert_eq!(
        packed.engine.arrivals(),
        packed.checkpoint_event + packed.replayed
    );
    let mut engine = packed.engine;
    engine.run_with_faults(horizon - engine.arrivals(), plan);
    assert_eq!(engine.state(), *reference, "packed+wheel recovery diverged");

    let flat: Resumed<_, Vec<u32>, HeapQueue> =
        Recovery::resume(dir, space.clone(), config, root, plan, vec![0; n]).unwrap();
    let mut engine = flat.engine;
    engine.run_with_faults(horizon - engine.arrivals(), plan);
    assert_eq!(engine.state(), *reference, "flat+heap recovery diverged");
}

proptest! {
    /// Property 1: truncate the journal at an arbitrary byte offset past
    /// its header — every cut point recovers to byte equality, on the
    /// packed/wheel and flat/heap engines alike.
    #[test]
    fn truncation_crash_recovers_byte_identically(
        seed in 0u64..1 << 48,
        n in 1usize..32,
        p in 1u64..240,
        q in 0u64..120,
        every in 1u64..80,
        chunk in 1u64..50,
        cut_frac in 0.0f64..1.0,
        d in 1usize..4,
        capacity in capacities(),
        life in lives(),
        retries in 0u32..3,
        raw_plan in proptest::collection::vec((0u64..360, 0usize..32, 0u8..2), 0..8),
    ) {
        let mut rng = Xoshiro256pp::from_u64(seed ^ 0x000C_4A54);
        let space = RingSpace::random(n, &mut rng);
        let root = rng.next_u64();
        let plan = plan_from(&raw_plan, n);
        let config = ServeConfig { strategy: Strategy::d_choice(d), capacity, life, retries };

        let mut reference = ServeEngine::new(space.clone(), config, root);
        reference.run_with_faults(p + q, &plan);
        let reference = reference.state();

        let dir = temp_dir("truncate");
        journaled_to(&dir, &space, config, root, every, &plan, p, chunk);

        // Crash: the journal survives only up to an arbitrary byte.
        let path = dir.join(JOURNAL_FILE);
        let len = fs::metadata(&path).unwrap().len();
        let body = len - Header::LEN as u64;
        let cut = Header::LEN as u64 + (body as f64 * cut_frac) as u64;
        fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(cut).unwrap();

        assert_recovers_everywhere(&dir, &space, config, root, &plan, p + q, &reference);
        fs::remove_dir_all(&dir).ok();
    }

    /// Property 2: flip any bit of the tail frame's CRC or payload — a
    /// crash-garbled append — and recovery truncates it and replays to
    /// byte equality. (A flipped *length* field can make the damage look
    /// like mid-file corruption, which is rejected loudly instead — see
    /// `corrupt_non_tail_frames_and_checkpoints_fail_loudly`.)
    #[test]
    fn tail_bit_flip_recovers_byte_identically(
        seed in 0u64..1 << 48,
        n in 1usize..24,
        p in 1u64..200,
        q in 0u64..100,
        every in 4u64..60,
        chunk in 1u64..40,
        flip_byte in 0usize..13,
        flip_bit in 0u32..8,
        d in 1usize..4,
        capacity in capacities(),
        life in lives(),
        retries in 0u32..3,
    ) {
        let mut rng = Xoshiro256pp::from_u64(seed ^ 0xF11B);
        let space = RingSpace::random(n, &mut rng);
        let root = rng.next_u64();
        let plan = FaultPlan::random_churn(root ^ 0xD0, n, (p + q).max(1), 3, 40);
        let config = ServeConfig { strategy: Strategy::d_choice(d), capacity, life, retries };

        let mut reference = ServeEngine::new(space.clone(), config, root);
        reference.run_with_faults(p + q, &plan);
        let reference = reference.state();

        let dir = temp_dir("bitflip");
        journaled_to(&dir, &space, config, root, every, &plan, p, chunk);

        let path = dir.join(JOURNAL_FILE);
        let mut bytes = fs::read(&path).unwrap();
        if bytes.len() > Header::LEN {
            // Each progress frame is 17 bytes: 4 length + 4 CRC +
            // 9 payload. Flip a bit in the final frame's CRC/payload
            // region (the 13 bytes after its length field).
            let at = bytes.len() - 13 + flip_byte;
            bytes[at] ^= 1 << flip_bit;
            fs::write(&path, &bytes).unwrap();
        }

        assert_recovers_everywhere(&dir, &space, config, root, &plan, p + q, &reference);
        fs::remove_dir_all(&dir).ok();
    }
}

/// Edge case: a directory that has only ever checkpointed — the empty
/// journal right after `create`, and the checkpoint-only journal right
/// after a compaction — resumes with zero replay.
#[test]
fn empty_and_checkpoint_only_journals_resume_with_zero_replay() {
    let mut rng = Xoshiro256pp::from_u64(71);
    let space = RingSpace::random(16, &mut rng);
    let config = ServeConfig {
        strategy: Strategy::two_choice(),
        capacity: Some(5),
        life: SessionLife::Exponential { mean: 30.0 },
        retries: 1,
    };
    let root = rng.next_u64();
    let plan = FaultPlan::empty();
    let dir = temp_dir("empty");

    let mut durable = create(&dir, &space, config, root, 128);
    let fresh: Resumed<_, Vec<u32>, DepartureWheel> =
        Recovery::resume(&dir, space.clone(), config, root, &plan, vec![0; 16]).unwrap();
    assert_eq!(fresh.engine.arrivals(), 0, "nothing ran yet");
    assert_eq!((fresh.replayed, fresh.torn_bytes), (0, 0));

    // Run exactly to a checkpoint boundary: the journal compacts back to
    // its bare header, and the checkpoint alone carries the state.
    durable.run_journaled(256, &plan).unwrap();
    assert_eq!(durable.checkpoint_event(), 256);
    assert_eq!(
        fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len(),
        Header::LEN as u64,
        "compaction must leave a header-only journal"
    );
    let resumed: Resumed<_, PackedLoads, HeapQueue> = Recovery::resume(
        &dir,
        space.clone(),
        config,
        root,
        &plan,
        PackedLoads::nibble(16),
    )
    .unwrap();
    assert_eq!(resumed.checkpoint_event, 256);
    assert_eq!(resumed.replayed, 0);
    let mut plain = ServeEngine::new(space, config, root);
    plain.run(256);
    assert_eq!(resumed.engine.state(), plain.state(), "nibble+heap resume");
    fs::remove_dir_all(&dir).ok();
}

/// Edge case: crash exactly between the checkpoint temp-file write and
/// its rename. The stale `checkpoint.tmp` must be ignored (and cleaned
/// up); recovery restores the *old* checkpoint and replays the journal.
#[test]
fn crash_between_checkpoint_write_and_rename_resumes_from_the_old_checkpoint() {
    let mut rng = Xoshiro256pp::from_u64(73);
    let n = 24;
    let space = RingSpace::random(n, &mut rng);
    let config = ServeConfig {
        strategy: Strategy::two_choice(),
        capacity: None,
        life: SessionLife::Exponential { mean: 50.0 },
        retries: 0,
    };
    let root = rng.next_u64();
    let plan = FaultPlan::random_churn(root ^ 0xD0, n, 500, 2, 60);
    let dir = temp_dir("midrename");

    // Interval beyond the horizon: checkpoint.bin stays the event-0 seed
    // image while the journal accumulates frames.
    let mut durable = create(&dir, &space, config, root, 10_000);
    for _ in 0..5 {
        durable.run_journaled(100, &plan).unwrap();
    }
    let old_checkpoint = fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
    let journal_bytes = fs::read(dir.join(JOURNAL_FILE)).unwrap();

    // Forge the residue of `checkpoint_now` dying before its rename: the
    // new image sits only in the temp file, the real checkpoint and the
    // journal are exactly as they were.
    durable.checkpoint_now().unwrap();
    let new_checkpoint = fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
    fs::write(dir.join(CHECKPOINT_TMP), &new_checkpoint).unwrap();
    fs::write(dir.join(CHECKPOINT_FILE), &old_checkpoint).unwrap();
    fs::write(dir.join(JOURNAL_FILE), &journal_bytes).unwrap();

    let resumed: Resumed<_, Vec<u32>, DepartureWheel> =
        Recovery::resume(&dir, space.clone(), config, root, &plan, vec![0; n]).unwrap();
    assert_eq!(resumed.checkpoint_event, 0, "old checkpoint wins");
    assert_eq!(resumed.replayed, 500, "the journal carries all progress");
    assert!(
        !dir.join(CHECKPOINT_TMP).exists(),
        "stale temp file must be cleaned up"
    );
    let mut plain = ServeEngine::new(space, config, root);
    plain.run_with_faults(500, &plan);
    assert_eq!(resumed.engine.state(), plain.state());
    fs::remove_dir_all(&dir).ok();
}

/// Edge case: crash between the checkpoint rename and the journal
/// compaction. The journal still holds frames the new checkpoint already
/// covers; recovery must skip them (zero replay), not re-run them.
#[test]
fn crash_between_rename_and_compaction_skips_stale_frames() {
    let mut rng = Xoshiro256pp::from_u64(79);
    let n = 20;
    let space = RingSpace::random(n, &mut rng);
    let config = ServeConfig {
        strategy: Strategy::two_choice(),
        capacity: Some(8),
        life: SessionLife::Fixed(40),
        retries: 2,
    };
    let root = rng.next_u64();
    let plan = FaultPlan::empty();
    let dir = temp_dir("midcompact");

    let mut durable = create(&dir, &space, config, root, 10_000);
    for _ in 0..4 {
        durable.run_journaled(75, &plan).unwrap();
    }
    let pre_compaction = fs::read(dir.join(JOURNAL_FILE)).unwrap();
    durable.checkpoint_now().unwrap(); // renames, then compacts
                                       // Resurrect the pre-compaction journal: exactly the on-disk state if
                                       // the crash hit between those two steps.
    fs::write(dir.join(JOURNAL_FILE), &pre_compaction).unwrap();

    let resumed: Resumed<_, Vec<u32>, DepartureWheel> =
        Recovery::resume(&dir, space.clone(), config, root, &plan, vec![0; n]).unwrap();
    assert_eq!(resumed.checkpoint_event, 300);
    assert_eq!(resumed.replayed, 0, "stale frames must not replay");
    let mut plain = ServeEngine::new(space, config, root);
    plain.run(300);
    assert_eq!(resumed.engine.state(), plain.state());
    fs::remove_dir_all(&dir).ok();
}

/// Where a checkpoint rotation can die: while the spare is rewritten in
/// place, or between its renames (`bin → old`, `tmp → bin`,
/// `old → tmp`). A crash after the last rename is the mid-compaction
/// case above.
#[derive(Clone, Copy, Debug)]
enum Window {
    /// Half the new image is written over the spare's previous bytes.
    MidSpareWrite,
    /// `checkpoint.bin` has moved to `checkpoint.old`; nothing is at
    /// `checkpoint.bin`.
    AfterBinToOld,
    /// The new image is `checkpoint.bin`; the previous one is still
    /// `checkpoint.old`.
    AfterTmpToBin,
}

/// Forges the on-disk residue of a process death inside one checkpoint
/// rotation at `window`, resumes, and checks that the resumed engine,
/// a continued journaled run with a later checkpoint, and a second
/// resume all match the uninterrupted run.
fn assert_rotation_crash_recovers(window: Window) {
    let mut rng = Xoshiro256pp::from_u64(101);
    let n = 24;
    let space = RingSpace::random(n, &mut rng);
    let config = ServeConfig {
        strategy: Strategy::two_choice(),
        capacity: Some(6),
        life: SessionLife::Exponential { mean: 40.0 },
        retries: 1,
    };
    let root = rng.next_u64();
    let plan = FaultPlan::random_churn(root ^ 0xD0, n, 900, 3, 50);
    let dir = temp_dir("rotation");
    let [bin, tmp, old] = [CHECKPOINT_FILE, CHECKPOINT_TMP, CHECKPOINT_OLD].map(|f| dir.join(f));

    // Checkpoints at 200 and 400, frames at 450 and 500: the spare holds
    // the event-200 image, `checkpoint.bin` the event-400 one.
    let mut durable = journaled_to(&dir, &space, config, root, 200, &plan, 500, 50);
    let spare_before = fs::read(&tmp).unwrap();
    let image_before = fs::read(&bin).unwrap();
    let journal_before = fs::read(dir.join(JOURNAL_FILE)).unwrap();
    // The rotation at event 500 completes; the crash is forged from
    // the files on either side of it, with the journal not yet
    // compacted.
    durable.checkpoint_now().unwrap();
    drop(durable);
    let image_after = fs::read(&bin).unwrap();
    assert_eq!(
        fs::read(&tmp).unwrap(),
        image_before,
        "spare holds the old image"
    );
    fs::write(dir.join(JOURNAL_FILE), &journal_before).unwrap();
    let restored_from = match window {
        Window::MidSpareWrite => {
            let half = image_after.len() / 2;
            let mut torn = spare_before.clone();
            torn.resize(torn.len().max(half), 0);
            torn[..half].copy_from_slice(&image_after[..half]);
            fs::write(&bin, &image_before).unwrap();
            fs::write(&tmp, &torn).unwrap();
            &image_before
        }
        Window::AfterBinToOld => {
            fs::write(&old, &image_before).unwrap();
            fs::write(&tmp, &image_after).unwrap();
            fs::remove_file(&bin).unwrap();
            &image_before
        }
        Window::AfterTmpToBin => {
            fs::write(&old, &image_before).unwrap();
            fs::remove_file(&tmp).unwrap();
            &image_after
        }
    };

    let resumed: Resumed<_, Vec<u32>, DepartureWheel> =
        Recovery::resume(&dir, space.clone(), config, root, &plan, vec![0; n]).unwrap();
    let expected_checkpoint = match window {
        Window::AfterTmpToBin => 500,
        Window::MidSpareWrite | Window::AfterBinToOld => 400,
    };
    assert_eq!(
        (resumed.checkpoint_event, resumed.engine.arrivals()),
        (expected_checkpoint, 500),
        "{window:?}"
    );
    let mut reference = ServeEngine::new(space.clone(), config, root);
    reference.run_with_faults(500, &plan);
    assert_eq!(resumed.engine.state(), reference.state(), "{window:?}");
    assert_eq!(
        &fs::read(&bin).unwrap(),
        restored_from,
        "{window:?}: checkpoint.bin is the image resume restored from"
    );
    assert!(!old.exists(), "{window:?}: checkpoint.old is residue");

    // Continue journaled past a later checkpoint, then resume again.
    let mut durable = resumed.into_durable(200).unwrap();
    for _ in 0..8 {
        durable.run_journaled(50, &plan).unwrap();
    }
    assert!(
        durable.checkpoints() >= 1,
        "{window:?}: no later checkpoint"
    );
    reference.run_with_faults(400, &plan);
    assert_eq!(durable.engine().state(), reference.state(), "{window:?}");
    drop(durable);
    let again: Resumed<_, PackedLoads, HeapQueue> =
        Recovery::resume(&dir, space, config, root, &plan, PackedLoads::byte(n)).unwrap();
    assert_eq!(again.engine.state(), reference.state(), "{window:?}");
    fs::remove_dir_all(&dir).ok();
}

/// Crash window 1: the spare is half rewritten. `checkpoint.bin` is
/// intact, and the torn spare is removed.
#[test]
fn crash_mid_spare_write_resumes_from_the_intact_checkpoint() {
    assert_rotation_crash_recovers(Window::MidSpareWrite);
}

/// Crash window 2: after `bin → old`, before `tmp → bin`. Resume moves
/// the previous image back to `checkpoint.bin` and replays the
/// uncompacted journal.
#[test]
fn crash_after_bin_to_old_restores_the_previous_image() {
    assert_rotation_crash_recovers(Window::AfterBinToOld);
}

/// Crash window 3: after `tmp → bin`, before `old → tmp`. The new image
/// is the checkpoint; the stale frames it covers are skipped.
#[test]
fn crash_after_tmp_to_bin_resumes_from_the_new_image() {
    assert_rotation_crash_recovers(Window::AfterTmpToBin);
}

/// The rotation's mechanism: after the first periodic checkpoint,
/// `checkpoint.bin` and the spare swap between the same two inodes on
/// every checkpoint (no file is created or replaced), and the spare
/// holds the previous checkpoint's bytes.
#[cfg(unix)]
#[test]
fn checkpoints_rotate_two_inodes_through_the_spare() {
    use std::os::unix::fs::MetadataExt as _;

    let mut rng = Xoshiro256pp::from_u64(103);
    let n = 16;
    let space = RingSpace::random(n, &mut rng);
    let config = ServeConfig {
        strategy: Strategy::two_choice(),
        capacity: None,
        life: SessionLife::Exponential { mean: 30.0 },
        retries: 0,
    };
    let root = rng.next_u64();
    let plan = FaultPlan::empty();
    let dir = temp_dir("inodes");
    let ino = |name: &str| fs::metadata(dir.join(name)).unwrap().ino();

    let mut durable = create(&dir, &space, config, root, 100);
    durable.run_journaled(100, &plan).unwrap();
    let (bin, spare) = (ino(CHECKPOINT_FILE), ino(CHECKPOINT_TMP));
    assert_ne!(bin, spare);
    let mut previous = fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
    for round in 0..4 {
        durable.run_journaled(100, &plan).unwrap();
        let expected = if round % 2 == 0 {
            (spare, bin)
        } else {
            (bin, spare)
        };
        assert_eq!(
            (ino(CHECKPOINT_FILE), ino(CHECKPOINT_TMP)),
            expected,
            "round {round}"
        );
        assert_eq!(fs::read(dir.join(CHECKPOINT_TMP)).unwrap(), previous);
        assert!(!dir.join(CHECKPOINT_OLD).exists());
        previous = fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
    }
    assert_eq!(durable.checkpoints(), 5);
    fs::remove_dir_all(&dir).ok();
}

/// Edge case: damage that cannot be a crash artifact fails loudly. A
/// corrupt frame with durable frames after it, and any damage to the
/// atomically-renamed checkpoint, must both surface as
/// [`JournalError::Corrupt`] — never a silent truncation.
#[test]
fn corrupt_non_tail_frames_and_checkpoints_fail_loudly() {
    let mut rng = Xoshiro256pp::from_u64(83);
    let n = 12;
    let space = RingSpace::random(n, &mut rng);
    let config = ServeConfig {
        strategy: Strategy::two_choice(),
        capacity: None,
        life: SessionLife::Fixed(25),
        retries: 0,
    };
    let root = rng.next_u64();
    let plan = FaultPlan::empty();
    let dir = temp_dir("loud");

    let mut durable = create(&dir, &space, config, root, 10_000);
    for _ in 0..4 {
        durable.run_journaled(50, &plan).unwrap();
    }

    // Flip a payload bit of the *first* frame: three intact frames
    // follow, so this is real corruption.
    let journal_path = dir.join(JOURNAL_FILE);
    let pristine = fs::read(&journal_path).unwrap();
    let mut bytes = pristine.clone();
    bytes[Header::LEN + 8] ^= 0x04;
    fs::write(&journal_path, &bytes).unwrap();
    let before = fs::metadata(&journal_path).unwrap().len();
    let result: Result<Resumed<_, Vec<u32>, DepartureWheel>, _> =
        Recovery::resume(&dir, space.clone(), config, root, &plan, vec![0; n]);
    match result {
        Err(JournalError::Corrupt { at, .. }) => assert_eq!(at, Header::LEN),
        other => panic!("corrupt non-tail frame must fail loudly, got {other:?}"),
    }
    assert_eq!(
        fs::metadata(&journal_path).unwrap().len(),
        before,
        "loud corruption must not truncate the file"
    );
    fs::write(&journal_path, &pristine).unwrap();

    // Any damage to the checkpoint: it was renamed atomically, so even a
    // torn-looking tail is corruption there.
    let ckpt_path = dir.join(CHECKPOINT_FILE);
    let good = fs::read(&ckpt_path).unwrap();
    let mut bad = good.clone();
    let mid = Header::LEN + (bad.len() - Header::LEN) / 2;
    bad[mid] ^= 0x20;
    fs::write(&ckpt_path, &bad).unwrap();
    let result: Result<Resumed<_, Vec<u32>, DepartureWheel>, _> =
        Recovery::resume(&dir, space.clone(), config, root, &plan, vec![0; n]);
    assert!(
        matches!(result, Err(JournalError::Corrupt { .. })),
        "a damaged checkpoint must fail loudly"
    );
    fs::write(&ckpt_path, &good[..good.len() - 3]).unwrap();
    let result: Result<Resumed<_, Vec<u32>, DepartureWheel>, _> =
        Recovery::resume(&dir, space, config, root, &plan, vec![0; n]);
    assert!(
        matches!(result, Err(JournalError::Corrupt { .. })),
        "a short checkpoint must fail loudly too"
    );
    fs::remove_dir_all(&dir).ok();
}

/// A resumed engine can re-enter the durability discipline: continuing
/// journaled after a crash reaches the same bytes as a run that was
/// journaled end to end without crashing.
#[test]
fn resumed_engines_continue_journaled_and_stay_byte_identical() {
    let mut rng = Xoshiro256pp::from_u64(89);
    let n = 28;
    let space = RingSpace::random(n, &mut rng);
    let config = ServeConfig {
        strategy: Strategy::two_choice(),
        capacity: Some(6),
        life: SessionLife::Exponential { mean: 45.0 },
        retries: 1,
    };
    let root = rng.next_u64();
    let plan = FaultPlan::random_churn(root ^ 0xD0, n, 800, 3, 50);
    let dir = temp_dir("reenter");

    let durable = journaled_to(&dir, &space, config, root, 64, &plan, 500, 37);
    drop(durable);
    // Crash: lose the last half of the journal body.
    let path = dir.join(JOURNAL_FILE);
    let len = fs::metadata(&path).unwrap().len();
    let cut = Header::LEN as u64 + (len - Header::LEN as u64) / 2;
    fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(cut)
        .unwrap();

    let resumed: Resumed<_, Vec<u32>, DepartureWheel> =
        Recovery::resume(&dir, space.clone(), config, root, &plan, vec![0; n]).unwrap();
    let recovered_to = resumed.engine.arrivals();
    let mut durable = resumed.into_durable(64).unwrap();
    durable.run_journaled(800 - recovered_to, &plan).unwrap();

    let mut reference = ServeEngine::new(space.clone(), config, root);
    reference.run_with_faults(800, &plan);
    assert_eq!(durable.engine().state(), reference.state());

    // And the continued directory is itself recoverable.
    let again: Resumed<_, PackedLoads, DepartureWheel> =
        Recovery::resume(&dir, space, config, root, &plan, PackedLoads::byte(n)).unwrap();
    assert_eq!(again.engine.state(), reference.state());
    fs::remove_dir_all(&dir).ok();
}

/// The held journal handle appends at the *repaired* tail: after
/// `resume` truncates a torn append, the continued engine's frames must
/// follow the last intact frame directly — garbage left in between would
/// make the second resume fail loudly, and a frame lost to a stale
/// offset would make it replay short.
#[test]
fn continued_journal_appends_at_the_repaired_tail() {
    let mut rng = Xoshiro256pp::from_u64(97);
    let n = 20;
    let space = RingSpace::random(n, &mut rng);
    let config = ServeConfig {
        strategy: Strategy::two_choice(),
        capacity: Some(5),
        life: SessionLife::Exponential { mean: 40.0 },
        retries: 1,
    };
    let root = rng.next_u64();
    let plan = FaultPlan::random_churn(root ^ 0xD0, n, 900, 3, 50);
    let dir = temp_dir("repaired");

    // An interval past the horizon keeps every frame of both runs in the
    // journal: no compaction can hide a misplaced append.
    drop(journaled_to(
        &dir, &space, config, root, 10_000, &plan, 400, 50,
    ));
    let path = dir.join(JOURNAL_FILE);
    let intact = fs::metadata(&path).unwrap().len();
    // Crash mid-append: a frame header promising 9 payload bytes, then 3.
    fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap()
        .write_all(&[9, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF, 1, 0, 0])
        .unwrap();

    let resumed: Resumed<_, Vec<u32>, DepartureWheel> =
        Recovery::resume(&dir, space.clone(), config, root, &plan, vec![0; n]).unwrap();
    assert_eq!((resumed.torn_bytes, resumed.engine.arrivals()), (11, 400));
    let mut durable = resumed.into_durable(10_000).unwrap();
    for _ in 0..10 {
        durable.run_journaled(50, &plan).unwrap();
    }
    assert_eq!(
        fs::metadata(&path).unwrap().len(),
        intact + 10 * 17,
        "continued frames follow the last intact one"
    );
    let mut reference = ServeEngine::new(space.clone(), config, root);
    reference.run_with_faults(900, &plan);
    assert_eq!(durable.engine().state(), reference.state());
    drop(durable);

    let again: Resumed<_, PackedLoads, HeapQueue> =
        Recovery::resume(&dir, space, config, root, &plan, PackedLoads::byte(n)).unwrap();
    assert_eq!(
        (again.checkpoint_event, again.replayed, again.torn_bytes),
        (0, 900, 0)
    );
    assert_eq!(again.engine.state(), reference.state());
    fs::remove_dir_all(&dir).ok();
}

/// Where a staged checkpoint can die: while its image is pending, after
/// its rotation but before the journal compaction, or after the
/// compaction's rewrite but before its `set_len`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StagedWindow {
    /// The second image is still being built; nothing of it is on disk.
    Pending,
    /// The second image is `checkpoint.bin`; the journal still holds
    /// every frame since the first one.
    AfterRotation,
    /// The frames after the second image are rewritten after the header,
    /// and the rest of the old journal still follows them.
    MidCompaction,
}

/// Forges the on-disk residue of a process death at `window` of a staged
/// checkpoint, resumes, and checks the resumed engine against the
/// uninterrupted run on every backing and scheduler.
fn assert_staged_crash_recovers(window: StagedWindow) {
    // 256 servers filled to a capacity bound of 90 by sessions that last
    // about 2^20 events: about 19k pending departures by the second
    // boundary, an image that spans several 64-event chunks.
    let mut rng = Xoshiro256pp::from_u64(107);
    let n = 256;
    let space = RingSpace::random(n, &mut rng);
    let config = ServeConfig {
        strategy: Strategy::two_choice(),
        capacity: Some(90),
        life: SessionLife::Exponential {
            mean: f64::from(1 << 20),
        },
        retries: 1,
    };
    let root = rng.next_u64();
    let every = 12_288;
    let plan = FaultPlan::random_churn(root ^ 0xD0, n, 3 * every, 24, 2_000);
    let dir = temp_dir("staged");
    let journal = dir.join(JOURNAL_FILE);

    // One call runs through both boundaries: the first image is durable,
    // the second was snapshotted at the end of the call.
    let mut durable = create(&dir, &space, config, root, every);
    durable.run_journaled(2 * every, &plan).unwrap();
    assert_eq!(
        (durable.checkpoints(), durable.checkpoint_event()),
        (1, every),
        "the second image must be pending"
    );
    let crash_at = if window == StagedWindow::Pending {
        durable.run_journaled(64, &plan).unwrap();
        assert_eq!(durable.checkpoints(), 1, "still pending");
        durable.engine().arrivals()
    } else {
        // Run to the chunk that completes the image, keeping the journal
        // as it was before that chunk.
        let mut before = fs::read(&journal).unwrap();
        durable.run_journaled(64, &plan).unwrap();
        while durable.checkpoints() == 1 {
            before = fs::read(&journal).unwrap();
            durable.run_journaled(64, &plan).unwrap();
        }
        let at = durable.engine().arrivals();
        let compacted = fs::read(&journal).unwrap();
        // The journal before the compaction: the completing chunk's
        // frame appended to what was there.
        let mut record = vec![1u8];
        record.extend_from_slice(&at.to_le_bytes());
        append_frame(&mut before, &record);
        if window == StagedWindow::MidCompaction {
            let kept = &compacted[Header::LEN..];
            assert!(!kept.is_empty() && kept.len() < before.len() - Header::LEN);
            before[Header::LEN..Header::LEN + kept.len()].copy_from_slice(kept);
            // Whole, valid frames only, the kept ones (with the latest
            // marker) first.
            let frames = scan_frames(&before[Header::LEN..]).unwrap();
            assert_eq!(frames.tail, Tail::Clean);
            let kept_frames = scan_frames(kept).unwrap().payloads;
            assert_eq!(frames.payloads[..kept_frames.len()], kept_frames[..]);
            assert_eq!(
                kept_frames
                    .last()
                    .map(|p| u64::from_le_bytes(p[1..9].try_into().unwrap())),
                Some(at)
            );
        }
        fs::write(&journal, &before).unwrap();
        at
    };
    drop(durable);

    let mut reference = ServeEngine::new(space.clone(), config, root);
    reference.run_with_faults(crash_at, &plan);
    let reference = reference.state();
    let resumed: Resumed<_, Vec<u32>, DepartureWheel> =
        Recovery::resume(&dir, space.clone(), config, root, &plan, vec![0; n]).unwrap();
    let checkpoint = match window {
        StagedWindow::Pending => every,
        StagedWindow::AfterRotation | StagedWindow::MidCompaction => 2 * every,
    };
    assert_eq!(
        (resumed.checkpoint_event, resumed.engine.arrivals()),
        (checkpoint, crash_at),
        "{window:?}"
    );
    assert!(
        resumed.replayed <= every + 16 * 64,
        "{window:?}: replayed {} events",
        resumed.replayed
    );
    assert_eq!(resumed.engine.state(), reference, "{window:?}");
    assert_recovers_everywhere(&dir, &space, config, root, &plan, crash_at, &reference);
    fs::remove_dir_all(&dir).ok();
}

/// Staged window 1: death while an image is pending. The previous
/// checkpoint and the uncompacted journal carry the run.
#[test]
fn crash_while_a_staged_checkpoint_is_pending_resumes_from_the_previous_one() {
    assert_staged_crash_recovers(StagedWindow::Pending);
}

/// Staged window 2: death after the rotation, before the compaction.
/// The frames the new image covers are skipped.
#[test]
fn crash_after_a_staged_rotation_before_compaction_skips_covered_frames() {
    assert_staged_crash_recovers(StagedWindow::AfterRotation);
}

/// Staged window 3: death between the compaction's rewrite and its
/// `set_len`. Every frame is whole, and the latest marker wins.
#[test]
fn crash_mid_compaction_leaves_whole_frames_and_resumes_to_the_latest_marker() {
    assert_staged_crash_recovers(StagedWindow::MidCompaction);
}
