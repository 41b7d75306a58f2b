//! Decoder robustness: no bytes read from disk can panic the process.
//!
//! Three properties:
//!
//! 1. **Arbitrary bytes.** [`Header::decode`], [`scan_frames`] and
//!    [`decode_state`] return `Ok` or `Err` on any input.
//! 2. **Mutated and truncated images.** The same holds for real engine
//!    states with bytes overwritten or cut off. An image that still
//!    decodes goes through the fallible restore, and a restored engine
//!    runs and reports its load statistics.
//! 3. **Mutated checkpoints through `Recovery::resume`.** A real
//!    checkpoint's payload is mutated and re-framed with a valid CRC, so
//!    the damage reaches decode and restore instead of stopping at the
//!    frame check. Resume returns `Ok` or `Err`. Journal frames are left
//!    intact: a CRC-valid progress marker may declare any replay length.
//! 4. **Hostile residue files.** Arbitrary or mutated bytes in the
//!    checkpoint rotation's other names: in `checkpoint.old` with no
//!    `checkpoint.bin`, resume returns `Err` or the uninterrupted run;
//!    in the spare `checkpoint.tmp` beside a valid `checkpoint.bin`, the
//!    spare is ignored and removed. So is a valid but older
//!    `checkpoint.old` beside a valid `checkpoint.bin`.
//!
//! Alongside, the codec round-trips every engine state, failed servers
//! included.

use geo2c_core::space::{RingSpace, Space as _};
use geo2c_core::strategy::Strategy;
use geo2c_serve::engine::{EngineState, ServeConfig, ServeEngine, SessionLife};
use geo2c_serve::fault::FaultPlan;
use geo2c_serve::journal::{
    decode_state, encode_state, DurableEngine, JournalError, Recovery, Resumed, CHECKPOINT_FILE,
    CHECKPOINT_MAGIC, CHECKPOINT_OLD, CHECKPOINT_TMP, FORMAT_VERSION, JOURNAL_MAGIC,
};
use geo2c_serve::wheel::DepartureWheel;
use geo2c_util::frame::{append_frame, scan_frames, Header, FRAME_OVERHEAD};
use geo2c_util::rng::Xoshiro256pp;
use proptest::prelude::*;
use rand::RngCore;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    let id = UNIQUE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("geo2c-decode-{}-{tag}-{id}", std::process::id()))
}

/// A small engine with failed servers, sheds and retries behind it.
struct Scenario {
    space: RingSpace,
    config: ServeConfig,
    root: u64,
    plan: FaultPlan,
}

impl Scenario {
    fn new(seed: u64, n: usize, capacity: u32, retries: u32) -> Self {
        let mut rng = Xoshiro256pp::from_u64(seed ^ 0xDEC0);
        let space = RingSpace::random(n, &mut rng);
        let root = rng.next_u64();
        Self {
            plan: FaultPlan::random_churn(root ^ 0xD0, n, 400, 4, 80),
            space,
            config: ServeConfig {
                strategy: Strategy::two_choice(),
                capacity: Some(capacity),
                life: SessionLife::Exponential { mean: 30.0 },
                retries,
            },
            root,
        }
    }

    fn state_after(&self, events: u64) -> EngineState {
        let mut engine = ServeEngine::new(self.space.clone(), self.config, self.root);
        engine.run_with_faults(events, &self.plan);
        engine.state()
    }

    /// A journal directory at `dir` run `events` events past its
    /// creation, checkpointing every `every`.
    fn journaled(&self, dir: &Path, every: u64, events: u64) {
        let mut durable: DurableEngine<_> = DurableEngine::create_with(
            dir,
            self.space.clone(),
            self.config,
            self.root,
            every,
            vec![0; self.space.num_servers()],
        )
        .unwrap();
        durable.run_journaled(events, &self.plan).unwrap();
    }

    fn resume(
        &self,
        dir: &Path,
    ) -> Result<Resumed<RingSpace, Vec<u32>, DepartureWheel>, JournalError> {
        Recovery::resume(
            dir,
            self.space.clone(),
            self.config,
            self.root,
            &self.plan,
            vec![0; self.space.num_servers()],
        )
    }
}

/// Overwrites `image` at each `(position, byte)` edit, positions taken
/// modulo the length.
fn mutate(image: &mut [u8], edits: &[(usize, u8)]) {
    if image.is_empty() {
        return;
    }
    let len = image.len();
    for &(at, byte) in edits {
        image[at % len] = byte;
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_the_decoders(
        bytes in proptest::collection::vec(any::<u8>(), 0..160),
        with_magic in any::<bool>(),
    ) {
        let mut bytes = bytes;
        if with_magic {
            // Past the magic and version, so the binding words and the
            // frame scan behind them see the random bytes.
            let mut framed = Header { magic: CHECKPOINT_MAGIC, version: FORMAT_VERSION, binds: [0; 2] }
                .encode()[..12]
                .to_vec();
            framed.extend_from_slice(&bytes);
            bytes = framed;
        }
        let _ = Header::decode(&bytes, CHECKPOINT_MAGIC, FORMAT_VERSION);
        let _ = Header::decode(&bytes, JOURNAL_MAGIC, FORMAT_VERSION);
        let _ = scan_frames(&bytes);
        let _ = scan_frames(bytes.get(Header::LEN..).unwrap_or_default());
        let _ = decode_state(&bytes);
    }

    #[test]
    fn state_codec_round_trips_engines_with_failed_servers(
        seed in 0u64..1 << 48,
        n in 1usize..40,
        events in 0u64..500,
        capacity in 0u32..6,
        retries in 0u32..3,
    ) {
        let state = Scenario::new(seed, n, capacity, retries).state_after(events);
        prop_assert_eq!(decode_state(&encode_state(&state)).unwrap(), state);
    }

    #[test]
    fn mutated_and_truncated_state_images_never_panic(
        seed in 0u64..1 << 48,
        n in 1usize..24,
        events in 0u64..400,
        retries in 0u32..3,
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
        cut in 0.0f64..1.0,
    ) {
        let scenario = Scenario::new(seed, n, 4, retries);
        let image = encode_state(&scenario.state_after(events));
        let _ = decode_state(&image[..(image.len() as f64 * cut) as usize]);
        let mut mutated = image.clone();
        mutate(&mut mutated, &edits);
        let mut framed = Vec::new();
        append_frame(&mut framed, &mutated);
        framed[FRAME_OVERHEAD / 2] ^= 1; // a CRC that no longer matches
        let _ = scan_frames(&framed);
        if let Ok(state) = decode_state(&mutated) {
            let restored = ServeEngine::<_, Vec<u32>, DepartureWheel>::try_restore_with_scheduler(
                scenario.space.clone(),
                scenario.config,
                scenario.root,
                &state,
                vec![0; n],
            );
            if let Ok(mut engine) = restored {
                engine.run_with_faults(50, &scenario.plan);
                let _ = engine.load_stats();
            }
        }
    }

    #[test]
    fn resume_never_panics_on_a_crc_valid_mutated_checkpoint(
        seed in 0u64..1 << 48,
        n in 1usize..24,
        events in 1u64..300,
        retries in 0u32..3,
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
    ) {
        let scenario = Scenario::new(seed, n, 4, retries);
        let dir = temp_dir("resume");
        let mut durable: DurableEngine<_> = DurableEngine::create_with(
            &dir,
            scenario.space.clone(),
            scenario.config,
            scenario.root,
            64,
            vec![0; n],
        )
        .unwrap();
        durable.run_journaled(events, &scenario.plan).unwrap();
        drop(durable);

        let path = dir.join(CHECKPOINT_FILE);
        let bytes = fs::read(&path).unwrap();
        let mut payload = bytes[Header::LEN + FRAME_OVERHEAD..].to_vec();
        mutate(&mut payload, &edits);
        let mut forged = bytes[..Header::LEN].to_vec();
        append_frame(&mut forged, &payload);
        fs::write(&path, &forged).unwrap();

        let resumed: Result<Resumed<_, Vec<u32>, DepartureWheel>, _> = Recovery::resume(
            &dir,
            scenario.space.clone(),
            scenario.config,
            scenario.root,
            &scenario.plan,
            vec![0; scenario.space.num_servers()],
        );
        if let Ok(resumed) = resumed {
            let _ = resumed.engine.load_stats();
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_residue_files_are_rejected_or_ignored(
        seed in 0u64..1 << 48,
        n in 1usize..24,
        events in 1u64..300,
        retries in 0u32..3,
        noise in proptest::collection::vec(any::<u8>(), 0..160),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
        arbitrary in any::<bool>(),
    ) {
        let scenario = Scenario::new(seed, n, 4, retries);
        let expected = scenario.state_after(events);
        let dir = temp_dir("residue");
        scenario.journaled(&dir, 64, events);
        let [bin, tmp, old] = [CHECKPOINT_FILE, CHECKPOINT_TMP, CHECKPOINT_OLD].map(|f| dir.join(f));
        // Arbitrary bytes, or the real checkpoint with bytes overwritten
        // and no re-framing: the CRC must catch the damage.
        let hostile = if arbitrary {
            noise
        } else {
            let mut image = fs::read(&bin).unwrap();
            mutate(&mut image, &edits);
            image
        };

        // A hostile spare beside a valid checkpoint is residue.
        fs::write(&tmp, &hostile).unwrap();
        let resumed = scenario.resume(&dir).unwrap();
        prop_assert_eq!(resumed.engine.state(), expected.clone());
        prop_assert!(!tmp.exists(), "the spare must be removed");

        // A hostile `checkpoint.old` with no `checkpoint.bin` is taken as
        // the checkpoint: resume rejects it or rebuilds the same run.
        fs::remove_file(&bin).unwrap();
        fs::write(&old, &hostile).unwrap();
        if let Ok(resumed) = scenario.resume(&dir) {
            prop_assert_eq!(resumed.engine.state(), expected);
        }
        prop_assert!(!old.exists(), "checkpoint.old must not remain");
        fs::remove_dir_all(&dir).ok();
    }
}

/// A valid but older `checkpoint.old` beside a valid `checkpoint.bin` is
/// the residue of a crash after the rotation's second rename: ignored
/// and removed.
#[test]
fn an_older_valid_checkpoint_old_beside_the_checkpoint_is_ignored() {
    let scenario = Scenario::new(7, 20, 4, 1);
    let dir = temp_dir("older");
    // Checkpoints at 64, 128 and 192: the spare holds the event-128 image.
    scenario.journaled(&dir, 64, 200);
    let old = dir.join(CHECKPOINT_OLD);
    fs::copy(dir.join(CHECKPOINT_TMP), &old).unwrap();
    let resumed = scenario.resume(&dir).unwrap();
    assert_eq!((resumed.checkpoint_event, resumed.replayed), (192, 8));
    assert_eq!(resumed.engine.state(), scenario.state_after(200));
    assert!(!old.exists(), "checkpoint.old must be removed");
    fs::remove_dir_all(&dir).ok();
}
