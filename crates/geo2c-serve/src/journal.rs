//! Durable checkpoints and a write-ahead journal: crash recovery that is
//! *provably exact*, not best-effort.
//!
//! RNG stream contract v2 makes an engine's state a pure function of
//! `(space, config, root, plan, events)` — replaying any event prefix
//! reproduces it byte for byte. Durability therefore needs to persist
//! only two things: a periodic [`EngineState`] checkpoint, and *progress
//! markers* saying how far past the checkpoint the run had advanced. No
//! per-event payload ever hits the disk; recovery restores the last
//! durable checkpoint and re-derives everything after it from the lanes.
//!
//! ## On-disk layout
//!
//! A journal directory holds two files, both starting with a
//! [`frame::Header`] (magic, format version, and two binding words — the
//! lane root and a fingerprint of `(num_servers, config)` — so a
//! checkpoint can never be restored into an engine it was not taken
//! from):
//!
//! * **`checkpoint.bin`** — one CRC-guarded frame holding the versioned
//!   binary [`EngineState`] codec ([`encode_state`]). Always written as
//!   a temp file (`checkpoint.tmp`) and atomically renamed into place,
//!   so the file is either the old checkpoint or the new one — never a
//!   half-written hybrid.
//! * **`journal.bin`** — appended [`frame`] records, one per executed
//!   chunk, each saying "events `< to_event` are durable". After every
//!   durable checkpoint the journal is truncated back to its header
//!   (compaction): the checkpoint subsumes it.
//!
//! ## Write discipline
//!
//! A [`DurableEngine`] opens `journal.bin` once, in append mode, and
//! holds that handle for its whole life. Each progress frame is exactly
//! one `write(2)` on it, issued before [`DurableEngine::run_journaled`]
//! returns, with no userspace buffer in between: once `run_journaled`
//! reports a chunk, its frame belongs to the kernel. Compaction truncates
//! through the same handle, and append mode lands the next frame right
//! after the header. [`Resumed::into_durable`] opens the handle only
//! after [`Recovery::resume`] has cut any torn tail, so continued frames
//! follow the last intact one.
//!
//! ## Crash model
//!
//! The failure this layer survives — and the one
//! `tests/crash_recovery.rs` injects — is **process death**: every
//! completed `write(2)` and `rename(2)` stays in the kernel and reaches
//! the disk later. Nothing here calls `fsync`, so an OS crash or power
//! loss can lose recent frames or the latest checkpoint rename, and is
//! **not** covered; that needs a sync policy that flushes the files and
//! the directory.
//!
//! ## Crash semantics
//!
//! [`Recovery::resume`] scans the journal with
//! [`frame::scan_frames`], truncates a torn tail (the residue of a crash
//! mid-append), restores the checkpoint through
//! [`ServeEngine::try_restore_with_scheduler`] (a CRC-valid image that
//! breaks the engine's invariants is [`JournalError::Restore`], never a
//! panic), skips any journal frames the checkpoint already covers (the
//! residue of a crash between the checkpoint rename and the journal
//! truncation), and replays deterministically up to the last durable
//! marker. A frame that fails its CRC *with durable frames after it* is
//! real corruption, not a crash artifact, and fails loudly
//! ([`JournalError::Corrupt`]). The `tests/crash_recovery.rs` suite
//! drives arbitrary byte truncations, tail bit flips, and mid-rename
//! crashes through this path and pins `resume + replay ≡ uninterrupted
//! run` across load backings and schedulers.

use crate::engine::{Counters, EngineState, RestoreError, RetryStats, ServeConfig, ServeEngine};
use crate::fault::FaultPlan;
use crate::wheel::{DepartureQueue, DepartureWheel};
use geo2c_core::load::LoadState;
use geo2c_core::space::Space;
use geo2c_util::frame::{self, append_frame, scan_frames, Header, HeaderError, Tail};
use geo2c_util::rng::mix;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Magic identifying a checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"G2CCKPT\0";
/// Magic identifying a journal file.
pub const JOURNAL_MAGIC: [u8; 8] = *b"G2CJRNL\0";
/// On-disk format version shared by both files.
pub const FORMAT_VERSION: u32 = 1;
/// Version byte of the [`EngineState`] codec inside a checkpoint frame.
const STATE_VERSION: u8 = 1;

/// Checkpoint file name inside a journal directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";
/// Temp file a checkpoint is staged in before its atomic rename.
pub const CHECKPOINT_TMP: &str = "checkpoint.tmp";
/// Journal file name inside a journal directory.
pub const JOURNAL_FILE: &str = "journal.bin";

/// Journal record: events below `to_event` are durable (record tag, then
/// the event as `u64` LE). The only record kind in format version 1.
const RECORD_ADVANCE: u8 = 1;

/// Why a checkpoint or journal could not be used.
#[derive(Debug)]
pub enum JournalError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// The directory has no checkpoint — nothing durable to resume from.
    MissingCheckpoint(PathBuf),
    /// A file's magic or format version was wrong.
    Header {
        /// The offending file.
        file: PathBuf,
        /// What the header check rejected.
        source: HeaderError,
    },
    /// A file was written by a different engine: its binding words
    /// (lane root, configuration fingerprint) do not match.
    Binding {
        /// The offending file.
        file: PathBuf,
    },
    /// A frame failed its CRC where a crash artifact is impossible —
    /// real corruption, never silently truncated.
    Corrupt {
        /// The offending file.
        file: PathBuf,
        /// Byte offset of the corrupt frame, from the start of the file.
        at: usize,
    },
    /// A CRC-valid frame held an undecodable record or state image.
    Codec(&'static str),
    /// A CRC-valid, decodable checkpoint that no engine could have
    /// written: it breaks an invariant the restore path checks.
    Restore(RestoreError),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(err) => write!(f, "journal I/O error: {err}"),
            Self::MissingCheckpoint(dir) => {
                write!(f, "no checkpoint in {}: nothing to resume", dir.display())
            }
            Self::Header { file, source } => {
                write!(f, "{}: {source}", file.display())
            }
            Self::Binding { file } => write!(
                f,
                "{}: binding mismatch (different root or engine configuration)",
                file.display()
            ),
            Self::Corrupt { file, at } => write!(
                f,
                "{}: corrupt frame at byte {at} with durable frames after it",
                file.display()
            ),
            Self::Codec(what) => write!(f, "undecodable journal payload: {what}"),
            Self::Restore(err) => write!(f, "checkpoint cannot be restored: {err}"),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(err) => Some(err),
            Self::Header { source, .. } => Some(source),
            Self::Restore(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(err: io::Error) -> Self {
        Self::Io(err)
    }
}

impl From<RestoreError> for JournalError {
    fn from(err: RestoreError) -> Self {
        Self::Restore(err)
    }
}

/// A fingerprint of the engine's construction-time shape, bound into
/// every durable file header: restoring a checkpoint under a different
/// space size or [`ServeConfig`] would replay a different pure function,
/// so it is rejected before any state is trusted.
#[must_use]
pub fn fingerprint(num_servers: usize, config: &ServeConfig) -> u64 {
    // Fold the config's canonical debug rendering through the SplitMix64
    // finalizer; stable across runs and platforms, and any field change
    // (strategy, capacity, lifetime model, retry budget) changes it.
    let desc = format!("{config:?}");
    let mut h = mix(num_servers as u64 ^ 0x6A09_E667_F3BC_C908);
    for chunk in desc.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = mix(h ^ u64::from_le_bytes(word));
    }
    h
}

/// The binding words of every file an engine writes: its lane root and
/// the [`fingerprint`] of its shape.
fn binding_words(root: u64, num_servers: usize, config: &ServeConfig) -> [u64; 2] {
    [root, fingerprint(num_servers, config)]
}

/// A file header under this format version, encoded.
fn encoded_header(magic: [u8; 8], binds: [u64; 2]) -> [u8; Header::LEN] {
    Header {
        magic,
        version: FORMAT_VERSION,
        binds,
    }
    .encode()
}

/// Opens `dir`'s journal in append mode: the handle a [`DurableEngine`]
/// holds for its whole life.
fn open_journal(dir: &Path) -> io::Result<File> {
    fs::OpenOptions::new()
        .append(true)
        .open(dir.join(JOURNAL_FILE))
}

/// Encodes an [`EngineState`] into the versioned checkpoint codec.
///
/// Every integer is LEB128 varint-encoded, and the sorted departure
/// deadlines are delta-encoded against their predecessor: a
/// steady-state checkpoint is dominated by small loads (≈ 1 byte each)
/// and near-adjacent deadlines (≈ 1-byte deltas), so the image is
/// roughly a third the size of fixed-width fields — which is most of
/// the checkpoint's write cost at scale.
#[must_use]
pub fn encode_state(state: &EngineState) -> Vec<u8> {
    let n = state.loads.len();
    let mut out = Vec::with_capacity(32 + 2 * n + n / 8 + 4 * state.departures.len());
    out.push(STATE_VERSION);
    for word in [
        state.counters.arrivals,
        state.counters.departed,
        state.counters.shed,
        state.counters.evicted,
        state.retry.shed_capacity,
        state.retry.shed_unavailable,
        state.retry.admitted_on_retry,
    ] {
        put_var(&mut out, word);
    }
    put_var(&mut out, state.retry.by_attempt.len() as u64);
    for &count in &state.retry.by_attempt {
        put_var(&mut out, count);
    }
    put_var(&mut out, u64::from(state.peak_load));
    put_var(&mut out, n as u64);
    for &load in &state.loads {
        put_var(&mut out, u64::from(load));
    }
    // Failure flags as a bitset: bit s of byte s / 8.
    let mut bits = vec![0u8; (n + 7) / 8];
    for (s, &down) in state.failed.iter().enumerate() {
        if down {
            bits[s / 8] |= 1 << (s % 8);
        }
    }
    out.extend_from_slice(&bits);
    put_var(&mut out, state.departures.len() as u64);
    let mut prev_when = 0u64;
    for &(when, server) in &state.departures {
        // `state.departures` is sorted ascending, so the delta is
        // non-negative; an unsorted vector would be rejected by the
        // restore path anyway, but fail loudly here rather than encode
        // an undecodable wrap.
        let delta = when
            .checked_sub(prev_when)
            .expect("EngineState::departures must be sorted ascending");
        put_var(&mut out, delta);
        put_var(&mut out, u64::from(server));
        prev_when = when;
    }
    out
}

/// LEB128: 7 value bits per byte, high bit = continuation.
fn put_var(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push((value as u8) | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Decodes the versioned checkpoint codec back into an [`EngineState`].
///
/// # Errors
/// [`JournalError::Codec`] when the version byte is unknown or the
/// payload is shorter or longer than its own counts declare. (Semantic
/// validity — conservation, sentinels, the departure map — is the
/// restore path's job; see [`ServeEngine::try_restore_with_scheduler`].)
pub fn decode_state(bytes: &[u8]) -> Result<EngineState, JournalError> {
    let mut r = Reader { buf: bytes, at: 0 };
    if r.u8()? != STATE_VERSION {
        return Err(JournalError::Codec("unknown state codec version"));
    }
    let counters = Counters {
        arrivals: r.var()?,
        departed: r.var()?,
        shed: r.var()?,
        evicted: r.var()?,
    };
    let shed_capacity = r.var()?;
    let shed_unavailable = r.var()?;
    let admitted_on_retry = r.var()?;
    let attempts = r.count()?;
    let mut by_attempt = Vec::with_capacity(attempts);
    for _ in 0..attempts {
        by_attempt.push(r.var()?);
    }
    let peak_load = r.var_u32()?;
    let n = r.count()?;
    let mut loads = Vec::with_capacity(n);
    for _ in 0..n {
        loads.push(r.var_u32()?);
    }
    let bits = r.bytes((n + 7) / 8)?;
    let failed = (0..n).map(|s| bits[s / 8] & (1 << (s % 8)) != 0).collect();
    let entries = r.count()?;
    let mut departures = Vec::with_capacity(entries);
    let mut prev_when = 0u64;
    for _ in 0..entries {
        let when = prev_when
            .checked_add(r.var()?)
            .ok_or(JournalError::Codec("departure deadline delta overflows"))?;
        let server = r.var_u32()?;
        departures.push((when, server));
        prev_when = when;
    }
    if r.at != bytes.len() {
        return Err(JournalError::Codec("trailing bytes after the state image"));
    }
    Ok(EngineState {
        loads,
        failed,
        departures,
        counters,
        retry: RetryStats {
            shed_capacity,
            shed_unavailable,
            admitted_on_retry,
            by_attempt,
        },
        peak_load,
    })
}

/// Bounds-checked little-endian cursor over a codec payload.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn bytes(&mut self, len: usize) -> Result<&'a [u8], JournalError> {
        let end = self
            .at
            .checked_add(len)
            .filter(|&end| end <= self.buf.len())
            .ok_or(JournalError::Codec("state image shorter than its counts"))?;
        let slice = &self.buf[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, JournalError> {
        Ok(self.bytes(1)?[0])
    }

    /// LEB128 varint, the inverse of [`put_var`]. Rejects encodings
    /// that overflow a `u64` (including over-long paddings).
    fn var(&mut self) -> Result<u64, JournalError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let bits = u64::from(byte & 0x7F);
            if shift == 63 && bits > 1 {
                break; // the 10th byte may only carry the top bit
            }
            value |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(JournalError::Codec("varint overflows u64"))
    }

    fn var_u32(&mut self) -> Result<u32, JournalError> {
        u32::try_from(self.var()?).map_err(|_| JournalError::Codec("varint overflows u32"))
    }

    /// An element count read from the payload. Every element takes at
    /// least one byte, so a count larger than the bytes that remain is
    /// rejected before anything is allocated for it.
    fn count(&mut self) -> Result<usize, JournalError> {
        let count = self.var()?;
        if count > (self.buf.len() - self.at) as u64 {
            return Err(JournalError::Codec(
                "element count exceeds the bytes that remain",
            ));
        }
        Ok(count as usize)
    }
}

/// A [`ServeEngine`] wrapped with the durability discipline: chunked
/// runs append a progress frame per chunk to the journal handle it
/// holds, and every [`checkpoint interval`](DurableEngine::create) events
/// the full state is checkpointed (temp file + atomic rename) and the
/// journal compacted. Construction inputs are bound into both file
/// headers.
#[derive(Debug)]
pub struct DurableEngine<S: Space, L: LoadState = Vec<u32>, Q: DepartureQueue = DepartureWheel> {
    engine: ServeEngine<S, L, Q>,
    dir: PathBuf,
    every: u64,
    /// `journal.bin`, open in append mode for the engine's whole life.
    journal: File,
    /// `checkpoint.bin`'s header, encoded once: its fingerprint renders
    /// the whole configuration.
    checkpoint_header: [u8; Header::LEN],
    /// Event count of the last durable checkpoint.
    checkpoint_event: u64,
    /// Journal bytes appended since this handle opened (frames only).
    journal_bytes: u64,
    /// Checkpoints written since this handle opened.
    checkpoints: u64,
}

impl<S: Space> DurableEngine<S> {
    /// Creates a journal directory for a fresh engine on the default
    /// flat load backing and timing-wheel scheduler, checkpointing every
    /// `every` events. Writes the initial (event-0) checkpoint and an
    /// empty journal before returning, so a crash at any later point
    /// has something durable to resume from.
    ///
    /// # Errors
    /// Any filesystem failure creating the directory or its files.
    ///
    /// # Panics
    /// As [`ServeEngine::new`], plus if `every` is zero.
    pub fn create(
        dir: impl Into<PathBuf>,
        space: S,
        config: ServeConfig,
        root: u64,
        every: u64,
    ) -> Result<Self, JournalError> {
        let n = space.num_servers();
        Self::create_with(dir, space, config, root, every, vec![0u32; n])
    }
}

impl<S: Space, L: LoadState, Q: DepartureQueue> DurableEngine<S, L, Q> {
    /// [`DurableEngine::create`] with explicit load-state backing and
    /// scheduler type parameters.
    ///
    /// # Errors
    /// Any filesystem failure creating the directory or its files.
    ///
    /// # Panics
    /// As [`ServeEngine::with_scheduler`], plus if `every` is zero.
    pub fn create_with(
        dir: impl Into<PathBuf>,
        space: S,
        config: ServeConfig,
        root: u64,
        every: u64,
        loads: L,
    ) -> Result<Self, JournalError> {
        assert!(every >= 1, "checkpoint interval must be at least 1 event");
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let binds = binding_words(root, space.num_servers(), &config);
        let engine = ServeEngine::with_scheduler(space, config, root, loads);
        fs::write(dir.join(JOURNAL_FILE), encoded_header(JOURNAL_MAGIC, binds))?;
        let mut durable = Self {
            engine,
            journal: open_journal(&dir)?,
            checkpoint_header: encoded_header(CHECKPOINT_MAGIC, binds),
            dir,
            every,
            checkpoint_event: 0,
            journal_bytes: 0,
            checkpoints: 0,
        };
        durable.write_checkpoint()?;
        durable.checkpoints = 0; // the seed image is not a progress stat
        Ok(durable)
    }

    /// Runs `events` arrival events under `plan`, journaled: the run is
    /// chunked at checkpoint boundaries, each chunk appends one progress
    /// frame, and each boundary writes a durable checkpoint and compacts
    /// the journal. Byte-identical to
    /// [`ServeEngine::run_with_faults`] for the same inputs — the
    /// journal only observes the run.
    ///
    /// # Errors
    /// Any filesystem failure appending to the journal or writing a
    /// checkpoint; the in-memory engine keeps the events it ran.
    pub fn run_journaled(&mut self, events: u64, plan: &FaultPlan) -> Result<(), JournalError> {
        let end = self.engine.arrivals() + events;
        loop {
            let boundary = self.checkpoint_event + self.every;
            if self.engine.arrivals() >= boundary {
                // Reached (or resumed past) the boundary: make it durable.
                self.write_checkpoint()?;
                continue;
            }
            if self.engine.arrivals() >= end {
                return Ok(());
            }
            let chunk_end = end.min(boundary);
            self.engine
                .run_with_faults(chunk_end - self.engine.arrivals(), plan);
            self.append_progress()?;
        }
    }

    /// Appends one "durable up to the current event" frame.
    fn append_progress(&mut self) -> Result<(), JournalError> {
        let mut record = Vec::with_capacity(9);
        record.push(RECORD_ADVANCE);
        record.extend_from_slice(&self.engine.arrivals().to_le_bytes());
        let mut framed = Vec::with_capacity(record.len() + frame::FRAME_OVERHEAD);
        append_frame(&mut framed, &record);
        // One write(2) on the held append-mode handle, no userspace
        // buffer: the frame is the kernel's before this returns.
        self.journal.write_all(&framed)?;
        self.journal_bytes += framed.len() as u64;
        Ok(())
    }

    /// Writes the current state as a durable checkpoint (temp file +
    /// atomic rename), then compacts the journal back to its header.
    fn write_checkpoint(&mut self) -> Result<(), JournalError> {
        let mut bytes = self.checkpoint_header.to_vec();
        append_frame(&mut bytes, &encode_state(&self.engine.state()));
        let tmp = self.dir.join(CHECKPOINT_TMP);
        fs::write(&tmp, &bytes)?;
        fs::rename(&tmp, self.dir.join(CHECKPOINT_FILE))?;
        // The checkpoint subsumes every journal frame: compact through
        // the held handle (append mode puts the next frame right after
        // the header). A crash between the rename and this truncation
        // leaves frames at or before the checkpoint event, which
        // recovery skips.
        self.journal.set_len(Header::LEN as u64)?;
        self.checkpoint_event = self.engine.arrivals();
        self.checkpoints += 1;
        Ok(())
    }

    /// Forces a checkpoint now, off the periodic boundary (e.g. at a
    /// clean shutdown).
    ///
    /// # Errors
    /// As [`DurableEngine::run_journaled`].
    pub fn checkpoint_now(&mut self) -> Result<(), JournalError> {
        self.write_checkpoint()
    }

    /// The wrapped engine.
    #[must_use]
    pub fn engine(&self) -> &ServeEngine<S, L, Q> {
        &self.engine
    }

    /// Journal bytes appended through this handle (framing included).
    #[must_use]
    pub fn journal_bytes(&self) -> u64 {
        self.journal_bytes
    }

    /// Checkpoints written through this handle (the creation-time seed
    /// image excluded).
    #[must_use]
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// Event count of the last durable checkpoint.
    #[must_use]
    pub fn checkpoint_event(&self) -> u64 {
        self.checkpoint_event
    }
}

/// What [`Recovery::resume`] rebuilt, with enough bookkeeping to
/// measure recovery cost (the `durability` experiment family plots
/// `replayed` against the checkpoint interval).
#[derive(Debug)]
pub struct Resumed<S: Space, L: LoadState, Q: DepartureQueue> {
    /// The rebuilt engine, advanced to the last durable event.
    pub engine: ServeEngine<S, L, Q>,
    /// Event count of the checkpoint the rebuild started from.
    pub checkpoint_event: u64,
    /// Events replayed from the journal's progress markers.
    pub replayed: u64,
    /// Bytes of torn journal tail truncated during the scan.
    pub torn_bytes: u64,
}

impl<S: Space, L: LoadState, Q: DepartureQueue> Resumed<S, L, Q> {
    /// Continues the resumed engine under the durability discipline,
    /// journaling to the same directory with checkpoint interval
    /// `every`. Opens the journal handle the engine then holds; the
    /// resume already cut any torn tail, so new frames follow the last
    /// intact one.
    ///
    /// # Errors
    /// Any filesystem failure opening `dir`'s journal.
    ///
    /// # Panics
    /// If `every` is zero.
    pub fn into_durable(
        self,
        dir: impl Into<PathBuf>,
        root: u64,
        every: u64,
    ) -> Result<DurableEngine<S, L, Q>, JournalError> {
        assert!(every >= 1, "checkpoint interval must be at least 1 event");
        let dir = dir.into();
        let binds = binding_words(
            root,
            self.engine.space().num_servers(),
            self.engine.config(),
        );
        Ok(DurableEngine {
            journal: open_journal(&dir)?,
            checkpoint_header: encoded_header(CHECKPOINT_MAGIC, binds),
            engine: self.engine,
            dir,
            every,
            checkpoint_event: self.checkpoint_event,
            journal_bytes: 0,
            checkpoints: 0,
        })
    }
}

/// The recovery manager: rebuilds an engine from a journal directory.
pub struct Recovery;

impl Recovery {
    /// Resumes from `dir`: verifies and restores the last durable
    /// checkpoint, scans the journal (truncating a torn tail, skipping
    /// frames the checkpoint already covers), and deterministically
    /// replays up to the last durable progress marker. `space`, `config`,
    /// `root`, and `plan` must be the construction inputs of the
    /// crashed run — the file headers reject the first three if not.
    /// `loads` is a fresh all-zero backing of the caller's chosen
    /// [`LoadState`]; the scheduler type is the caller's `Q`.
    ///
    /// # Errors
    /// [`JournalError`] on filesystem failure, a missing checkpoint, a
    /// header/binding mismatch, real (non-tail) corruption, an
    /// undecodable payload, or a CRC-valid checkpoint that fails the
    /// restore path's validation ([`JournalError::Restore`]).
    ///
    /// # Panics
    /// As [`ServeEngine::with_scheduler`] on a `config` or `loads` the
    /// engine rejects — the caller's inputs, never bytes read from disk.
    pub fn resume<S: Space, L: LoadState, Q: DepartureQueue>(
        dir: impl AsRef<Path>,
        space: S,
        config: ServeConfig,
        root: u64,
        plan: &FaultPlan,
        loads: L,
    ) -> Result<Resumed<S, L, Q>, JournalError> {
        let dir = dir.as_ref();
        let binds = binding_words(root, space.num_servers(), &config);

        // A stale temp file is the residue of a crash between the
        // checkpoint write and its rename; the real checkpoint is intact.
        let _ = fs::remove_file(dir.join(CHECKPOINT_TMP));

        let ckpt_path = dir.join(CHECKPOINT_FILE);
        let ckpt = match fs::read(&ckpt_path) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == io::ErrorKind::NotFound => {
                return Err(JournalError::MissingCheckpoint(dir.to_path_buf()));
            }
            Err(err) => return Err(err.into()),
        };
        let state = decode_state(checked_body(&ckpt_path, &ckpt, CHECKPOINT_MAGIC, binds)?)?;
        drop(ckpt);
        let engine = ServeEngine::try_restore_with_scheduler(space, config, root, &state, loads)?;
        // The engine now holds everything the image did: free the image
        // before the journal scan and the replay allocate.
        let checkpoint_event = state.counters.arrivals;
        drop(state);

        let journal_path = dir.join(JOURNAL_FILE);
        let journal = fs::read(&journal_path)?;
        let header = Header::decode(&journal, JOURNAL_MAGIC, FORMAT_VERSION).map_err(|source| {
            JournalError::Header {
                file: journal_path.clone(),
                source,
            }
        })?;
        if header.binds != binds {
            return Err(JournalError::Binding { file: journal_path });
        }
        let frames = scan_frames(&journal[Header::LEN..]).map_err(|err| JournalError::Corrupt {
            file: journal_path.clone(),
            at: Header::LEN + err.at,
        })?;
        let torn_bytes = match frames.tail {
            Tail::Clean => 0,
            Tail::Torn { at } => {
                // Physically repair the file so the next writer appends
                // onto a clean tail.
                let keep = (Header::LEN + at) as u64;
                let torn = journal.len() as u64 - keep;
                let file = fs::OpenOptions::new().write(true).open(&journal_path)?;
                file.set_len(keep)?;
                torn
            }
        };
        // The last durable marker wins; markers at or before the
        // checkpoint are residue of a crash before journal compaction.
        let mut target = checkpoint_event;
        for payload in frames.payloads {
            if payload.len() != 9 || payload[0] != RECORD_ADVANCE {
                return Err(JournalError::Codec("unknown journal record"));
            }
            let to_event = u64::from_le_bytes(payload[1..9].try_into().unwrap());
            target = target.max(to_event);
        }
        let mut engine = engine;
        let replayed = target - engine.arrivals();
        engine.run_with_faults(replayed, plan);
        Ok(Resumed {
            engine,
            checkpoint_event,
            replayed,
            torn_bytes,
        })
    }
}

/// Verifies a checkpoint file's header, binding, and single clean frame,
/// returning the state payload. A checkpoint is written by atomic
/// rename, so *any* damage — torn tail included — is corruption.
fn checked_body<'a>(
    path: &Path,
    bytes: &'a [u8],
    magic: [u8; 8],
    binds: [u64; 2],
) -> Result<&'a [u8], JournalError> {
    let header =
        Header::decode(bytes, magic, FORMAT_VERSION).map_err(|source| JournalError::Header {
            file: path.to_path_buf(),
            source,
        })?;
    if header.binds != binds {
        return Err(JournalError::Binding {
            file: path.to_path_buf(),
        });
    }
    let frames = scan_frames(&bytes[Header::LEN..]).map_err(|err| JournalError::Corrupt {
        file: path.to_path_buf(),
        at: Header::LEN + err.at,
    })?;
    match (frames.payloads.as_slice(), frames.tail) {
        ([payload], Tail::Clean) => Ok(payload),
        (_, Tail::Torn { at }) => Err(JournalError::Corrupt {
            file: path.to_path_buf(),
            at: Header::LEN + at,
        }),
        (payloads, Tail::Clean) => {
            let at = Header::LEN
                + payloads
                    .first()
                    .map_or(0, |p| p.len() + frame::FRAME_OVERHEAD);
            Err(JournalError::Corrupt {
                file: path.to_path_buf(),
                at,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SessionLife;
    use geo2c_core::space::RingSpace;
    use geo2c_core::strategy::Strategy;
    use geo2c_util::rng::Xoshiro256pp;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        let id = UNIQUE.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("geo2c-journal-{}-{tag}-{id}", std::process::id()))
    }

    fn config() -> ServeConfig {
        ServeConfig {
            strategy: Strategy::two_choice(),
            capacity: Some(6),
            life: SessionLife::Exponential { mean: 40.0 },
            retries: 1,
        }
    }

    fn space(n: usize, seed: u64) -> RingSpace {
        RingSpace::random(n, &mut Xoshiro256pp::from_u64(seed))
    }

    #[test]
    fn state_codec_round_trips_exactly() {
        let mut engine = ServeEngine::new(space(32, 3), config(), 500);
        engine.run(700);
        engine.fail_server(4);
        engine.run(100);
        let state = engine.state();
        let decoded = decode_state(&encode_state(&state)).unwrap();
        assert_eq!(decoded, state);
        // And the trivial image round-trips too.
        let fresh = ServeEngine::new(space(32, 3), config(), 500).state();
        assert_eq!(decode_state(&encode_state(&fresh)).unwrap(), fresh);
    }

    #[test]
    fn state_codec_rejects_short_versioned_or_padded_payloads() {
        let state = ServeEngine::new(space(8, 5), config(), 9).state();
        let bytes = encode_state(&state);
        assert!(matches!(
            decode_state(&bytes[..bytes.len() - 1]),
            Err(JournalError::Codec(_))
        ));
        let mut wrong_version = bytes.clone();
        wrong_version[0] = 99;
        assert!(matches!(
            decode_state(&wrong_version),
            Err(JournalError::Codec(_))
        ));
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(decode_state(&padded), Err(JournalError::Codec(_))));
    }

    #[test]
    fn state_codec_rejects_counts_larger_than_the_payload() {
        // Version, seven zero counters, then 2^62 retry attempts: a
        // count no payload this short can hold must be refused before
        // anything is sized from it.
        let mut bytes = vec![STATE_VERSION, 0, 0, 0, 0, 0, 0, 0];
        put_var(&mut bytes, 1 << 62);
        assert!(bytes.len() < 20);
        assert!(matches!(decode_state(&bytes), Err(JournalError::Codec(_))));
        // The same for the server and departure counts of a real image.
        let state = ServeEngine::new(space(8, 5), config(), 9).state();
        let good = encode_state(&state);
        // Version, seven counters, the one-attempt histogram, peak load.
        let n_at = 1 + 7 + 2 + 1;
        assert_eq!(good[n_at], 8);
        let mut huge_n = good[..n_at].to_vec();
        put_var(&mut huge_n, u64::MAX >> 1);
        assert!(matches!(decode_state(&huge_n), Err(JournalError::Codec(_))));
        let mut huge_entries = good[..good.len() - 1].to_vec();
        put_var(&mut huge_entries, 1 << 40);
        assert!(matches!(
            decode_state(&huge_entries),
            Err(JournalError::Codec(_))
        ));
    }

    #[test]
    fn fingerprint_distinguishes_every_config_field_and_the_space_size() {
        let base = config();
        let fp = fingerprint(64, &base);
        assert_eq!(fp, fingerprint(64, &base), "deterministic");
        assert_ne!(fp, fingerprint(65, &base));
        assert_ne!(fp, fingerprint(64, &ServeConfig { retries: 2, ..base }));
        assert_ne!(
            fp,
            fingerprint(
                64,
                &ServeConfig {
                    capacity: Some(7),
                    ..base
                }
            )
        );
        assert_ne!(
            fp,
            fingerprint(
                64,
                &ServeConfig {
                    life: SessionLife::Fixed(40),
                    ..base
                }
            )
        );
        assert_ne!(
            fp,
            fingerprint(
                64,
                &ServeConfig {
                    strategy: Strategy::d_choice(3),
                    ..base
                }
            )
        );
    }

    #[test]
    fn journaled_runs_match_plain_runs_and_resume_cleanly() {
        let dir = temp_dir("clean");
        let plan = FaultPlan::random_churn(7, 24, 900, 3, 60);
        let mut durable = DurableEngine::create(&dir, space(24, 11), config(), 42, 256).unwrap();
        durable.run_journaled(900, &plan).unwrap();
        assert_eq!(durable.checkpoints(), 3, "900 events / 256 interval");
        assert!(durable.journal_bytes() > 0);

        let mut plain = ServeEngine::new(space(24, 11), config(), 42);
        plain.run_with_faults(900, &plan);
        assert_eq!(durable.engine().state(), plain.state());

        // A clean (uncrashed) directory resumes to the last marker.
        let resumed: Resumed<_, Vec<u32>, DepartureWheel> =
            Recovery::resume(&dir, space(24, 11), config(), 42, &plan, vec![0; 24]).unwrap();
        assert_eq!(resumed.engine.state(), plain.state());
        assert_eq!(resumed.checkpoint_event, 768);
        assert_eq!(resumed.replayed, 900 - 768);
        assert_eq!(resumed.torn_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_the_wrong_root_or_config() {
        let dir = temp_dir("binding");
        let plan = FaultPlan::empty();
        let mut durable = DurableEngine::create(&dir, space(16, 2), config(), 9, 128).unwrap();
        durable.run_journaled(300, &plan).unwrap();
        let wrong_root: Result<Resumed<_, Vec<u32>, DepartureWheel>, _> =
            Recovery::resume(&dir, space(16, 2), config(), 10, &plan, vec![0; 16]);
        assert!(matches!(wrong_root, Err(JournalError::Binding { .. })));
        let wrong_config: Result<Resumed<_, Vec<u32>, DepartureWheel>, _> = Recovery::resume(
            &dir,
            space(16, 2),
            ServeConfig {
                retries: 3,
                ..config()
            },
            9,
            &plan,
            vec![0; 16],
        );
        assert!(matches!(wrong_config, Err(JournalError::Binding { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_without_a_checkpoint_reports_missing() {
        let dir = temp_dir("missing");
        fs::create_dir_all(&dir).unwrap();
        let result: Result<Resumed<_, Vec<u32>, DepartureWheel>, _> = Recovery::resume(
            &dir,
            space(8, 1),
            config(),
            1,
            &FaultPlan::empty(),
            vec![0; 8],
        );
        assert!(matches!(result, Err(JournalError::MissingCheckpoint(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_a_crc_valid_checkpoint_that_breaks_the_invariants() {
        // The image decodes and passes its CRC, but books more exits
        // than arrivals: an error to return, not a process to abort.
        let dir = temp_dir("invalid");
        let plan = FaultPlan::empty();
        let mut durable = DurableEngine::create(&dir, space(16, 4), config(), 5, 1_000).unwrap();
        durable.run_journaled(200, &plan).unwrap();
        let mut state = durable.engine().state();
        drop(durable);
        state.counters.departed = state.counters.arrivals + 1;
        let path = dir.join(CHECKPOINT_FILE);
        let mut bytes = fs::read(&path).unwrap()[..Header::LEN].to_vec();
        append_frame(&mut bytes, &encode_state(&state));
        fs::write(&path, &bytes).unwrap();
        let result: Result<Resumed<_, Vec<u32>, DepartureWheel>, _> =
            Recovery::resume(&dir, space(16, 4), config(), 5, &plan, vec![0; 16]);
        assert!(matches!(
            result,
            Err(JournalError::Restore(RestoreError::ExitsExceedArrivals))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn errors_render_their_file_and_cause() {
        let err = JournalError::Corrupt {
            file: PathBuf::from("/tmp/j/journal.bin"),
            at: 77,
        };
        let text = err.to_string();
        assert!(text.contains("journal.bin") && text.contains("77"));
        assert!(JournalError::MissingCheckpoint(PathBuf::from("/tmp/j"))
            .to_string()
            .contains("nothing to resume"));
        assert!(JournalError::Restore(RestoreError::ShedSplit)
            .to_string()
            .contains("shed counter"));
    }
}
