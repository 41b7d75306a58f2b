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
//!   binary [`EngineState`] codec ([`encode_state`]). A new image is
//!   written into a spare and *rotated* in (below), so the name always
//!   holds one complete image — the old checkpoint or the new one, never
//!   a half-written hybrid.
//! * **`journal.bin`** — [`frame`] records, one per executed chunk, each
//!   saying "events `< to_event` are durable". Once a checkpoint is
//!   durable the journal is compacted to the records after its event:
//!   the checkpoint subsumes the rest.
//!
//! The rotation passes through two more names: **`checkpoint.tmp`**, the
//! spare, which after a checkpoint holds the previous image, and
//! **`checkpoint.old`**, which exists only if a process died
//! mid-rotation.
//!
//! ## Write discipline
//!
//! A [`DurableEngine`] opens `journal.bin` once for writing, positioned
//! at the end of its frames, and holds that handle for its whole life.
//! Each progress frame is exactly one `write(2)` at that position,
//! issued before [`DurableEngine::run_journaled`] returns, with no
//! userspace buffer in between: once `run_journaled` reports a chunk,
//! its frame belongs to the kernel. [`Resumed::into_durable`] opens the
//! handle only after [`Recovery::resume`] has cut any torn tail, so
//! continued frames follow the last intact one.
//!
//! ## Staged checkpoints
//!
//! At each boundary — every `every` events — the engine takes a
//! *snapshot*: its counters, retry statistics and peak load, its loads
//! copied into a retained flat buffer, and a gather mark on its
//! departure queue ([`DepartureQueue::begin_gather`]), which records
//! the queue's extent without reading a single entry. The image is a
//! pure function of that snapshot, so the engine runs on while the
//! image is built. Every chunk after the boundary spends one fixed work
//! budget on it, after its progress frame, through these stages in
//! order:
//!
//! 1. the departure gather: the entries live at the boundary and filed
//!    since the previous image's mark, packed into sort keys a slice at
//!    a time while the queue keeps scheduling, draining and purging
//!    ([`DepartureQueue::gather_some`]);
//! 2. the gathered keys' radix passes and shared-deadline fix-up
//!    (`DepartureKeys::sort_some`);
//! 3. the merge (`DepartureKeys::merge_some`): one pass over the
//!    previous image's sorted keys that drops those drained since and
//!    those of servers purged since, rebases the rest to the new
//!    boundary and merges the freshly sorted keys in;
//! 4. the load section — the file header, a [`frame::FRAME_OVERHEAD`]-byte
//!    placeholder, the image's head, every load, the failure bitset;
//! 5. the departure emit, straight from the merged keys;
//! 6. a streaming CRC ([`frame::Crc32`]) over the payload, which then
//!    seals the frame's length and CRC in place;
//! 7. the files: the spare write, the rotation and the compaction
//!    (below), run whole in a chunk with enough budget left for them.
//!
//! The merged keys stay in the writer as the next image's previous one,
//! so each image re-reads only the sessions filed in its interval. The
//! same stages gather every entry instead, and merge nothing, for the
//! first image after [`DurableEngine::create_with`] or
//! [`Resumed::into_durable`], an image whose mark wraps the wheel's
//! generation stamp, an image after one with deadlines too far ahead to
//! pack, and every image of a scheduler that cannot tell when an entry
//! was filed (the [`crate::wheel::HeapQueue`] oracle).
//!
//! The image is built in byte order in one retained buffer, so the load
//! section runs before the departure emit. [`encode_state`] runs the
//! same section writers over an [`EngineState`], so the two produce
//! identical bytes. An image estimated to fit one budget — up to 2^12
//! servers and their sessions: every test engine and every
//! `durability` experiment size — is written whole inside the boundary
//! call, so it is durable before that call returns, exactly as if it
//! were not staged. A larger image costs the boundary only the snapshot;
//! 2^16 servers with about as many sessions take 8 chunks after it (7
//! for about one image in five), and 11 for an image gathered whole (the `serve_durable_churn` benchmark
//! workload, counts set by work units, never by wall time). A boundary
//! reached while an image is still pending finishes it first, and so does
//! [`DurableEngine::checkpoint_now`] before it writes its own image
//! whole. Nothing is written on drop: dropping the engine is a process
//! death.
//!
//! ## Rotation and compaction
//!
//! The sealed image goes through a **rotation** that never replaces a
//! file by rename (on ext4 a replacing rename starts writeback of the
//! new file inside `rename(2)`, which made it the checkpoint's costliest
//! step):
//!
//! 1. The spare `checkpoint.tmp` is opened without truncation, written
//!    from offset 0 in one `write(2)`, and cut to the image's length.
//! 2. `checkpoint.bin → checkpoint.old`, `checkpoint.tmp →
//!    checkpoint.bin`, `checkpoint.old → checkpoint.tmp`: three renames,
//!    each onto a free name. The previous image becomes the next spare.
//! 3. The journal is compacted: the progress frames appended since the
//!    snapshot — exactly the records after the checkpoint's event — are
//!    rewritten right after the header in one `write(2)`, and the file
//!    is cut after them with `set_len`. The handle is left at the new
//!    end.
//!
//! The spare is opened afresh on every checkpoint and never held: a held
//! handle would follow its inode through the renames. The seed image
//! [`DurableEngine::create_with`] writes has no checkpoint to rotate
//! out, so it is the spare renamed once to `checkpoint.bin`.
//!
//! ## Crash model
//!
//! The failure this layer survives — and the one
//! `tests/crash_recovery.rs` injects — is **process death**: every
//! completed `write(2)` and `rename(2)` stays in the kernel and reaches
//! the disk later. Staging changes nothing here: until its rotation an
//! image exists only in memory, so a death while one is pending leaves
//! the previous checkpoint and an uncompacted journal, and replay covers
//! at most `every` events plus the chunks an image spans. Nothing here
//! calls `fsync`, so an OS crash or power loss can lose recent frames or
//! the latest checkpoint rotation, and is **not** covered; that needs a
//! sync policy that flushes the files and the directory. For the
//! rotation, such a `SyncPolicy` must fsync the spare before the first
//! rename and the directory after the last.
//!
//! ## Crash semantics
//!
//! A process death inside a rotation leaves one of four residues, and
//! [`Recovery::resume`] settles each before it reads anything:
//!
//! * **mid spare write** — `checkpoint.bin` is intact and the spare is
//!   torn; the spare is removed.
//! * **after `bin → old`** — there is no `checkpoint.bin`, and
//!   `checkpoint.old` holds the previous complete image; it is renamed
//!   back to `checkpoint.bin`, and the uncompacted journal replays past
//!   it.
//! * **after `tmp → bin`** — `checkpoint.bin` is the new image; the
//!   leftover `checkpoint.old` is removed.
//! * **after `old → tmp`** — the rotation is complete, and only the
//!   compaction is missing (below).
//!
//! Rolling back to the previous image is always exact: the state is a
//! pure function of the event count, so any valid earlier checkpoint
//! replayed to the last marker rebuilds the same engine.
//!
//! Resume then scans the journal with [`frame::scan_frames`], truncates
//! a torn tail (the residue of a crash mid-append), restores the
//! checkpoint through [`ServeEngine::try_restore_with_scheduler`] (a
//! CRC-valid image that breaks the engine's invariants is
//! [`JournalError::Restore`], never a panic), skips any journal frames
//! the checkpoint already covers, and replays deterministically up to
//! the last durable marker. Frames the checkpoint covers are the residue
//! of a crash between the rotation and the compaction. A crash between
//! the compaction's rewrite and its `set_len` leaves the kept frames
//! followed by old ones; every progress frame has the same length, so
//! all of them are whole and valid, and the latest marker is still the
//! largest. A frame that fails its CRC *with durable frames after it* is
//! real corruption, not a crash artifact, and fails loudly
//! ([`JournalError::Corrupt`]). The `tests/crash_recovery.rs` suite
//! drives arbitrary byte truncations, tail bit flips, a crash in every
//! rotation window and in every window of a staged checkpoint through
//! this path and pins `resume + replay ≡ uninterrupted run` across load
//! backings and schedulers.

use crate::engine::{
    Counters, EngineState, RestoreError, RetryStats, ServeConfig, ServeEngine, FAILED_LOAD,
};
use crate::fault::FaultPlan;
use crate::wheel::{ceil_div, DepartureKeys, DepartureQueue, DepartureWheel};
use geo2c_core::load::LoadState;
use geo2c_core::space::Space;
use geo2c_util::frame::{self, scan_frames, Crc32, Header, HeaderError, Tail};
use geo2c_util::rng::mix;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Seek as _, SeekFrom, Write as _};
use std::ops::Range;
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
/// The spare: each checkpoint is rewritten into it in place, then rotated
/// in as `checkpoint.bin`, and the previous image becomes the next spare.
pub const CHECKPOINT_TMP: &str = "checkpoint.tmp";
/// The free name `checkpoint.bin` passes through while the spare is
/// rotated in; present only after a crash mid-rotation.
pub const CHECKPOINT_OLD: &str = "checkpoint.old";
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

/// Opens `dir`'s journal for positioned writes at its end: the handle a
/// [`DurableEngine`] holds for its whole life.
fn open_journal(dir: &Path) -> io::Result<File> {
    let mut journal = fs::OpenOptions::new()
        .write(true)
        .open(dir.join(JOURNAL_FILE))?;
    journal.seek(SeekFrom::End(0))?;
    Ok(journal)
}

/// Encodes an [`EngineState`] into the versioned checkpoint codec.
///
/// Every integer is LEB128 varint-encoded, and the sorted departure
/// deadlines are delta-encoded against their predecessor: a
/// steady-state checkpoint is dominated by small loads (≈ 1 byte each)
/// and near-adjacent deadlines (≈ 1-byte deltas), so the image is
/// roughly a third the size of fixed-width fields — which is most of
/// the checkpoint's write cost at scale. The bytes are exactly those a
/// [`DurableEngine`] checkpoint frames, which it encodes from its
/// snapshot through the same section writers.
///
/// # Panics
/// If `state.departures` is not sorted ascending.
#[must_use]
pub fn encode_state(state: &EngineState) -> Vec<u8> {
    let n = state.loads.len();
    // Small loads and near-adjacent deadlines take a byte or two each,
    // servers up to three.
    let mut out = Vec::with_capacity(32 + 2 * n + n / 8 + 4 * state.departures.len());
    let mut w = Cursor::at(&mut out, 0);
    write_head(&mut w, &state.counters, &state.retry, state.peak_load, n);
    let mut bits = vec![0u8; (n + 7) / 8];
    write_loads(&mut w, &state.loads, 0..n, &mut bits);
    write_bits(&mut w, &bits, state.departures.len());
    write_departures(&mut w, &mut 0, state.departures.iter().copied());
    let len = w.at;
    out.truncate(len);
    out
}

/// Longest LEB128 encoding of a `u64`.
const MAX_VAR: usize = 10;
/// Longest LEB128 encoding of a `u32`.
const MAX_VAR_U32: usize = 5;

// The state image's sections, in byte order: the head, the loads, the
// failure bitset with the departure count, then the departures. They
// are the one encoder behind `encode_state` and the staged checkpoint,
// which writes the loads and departures a slice per call. Every field
// goes through a `Cursor` that keeps room for its longest encoding.

/// The version byte, seven counters, the retry histogram, the peak load
/// and the server count.
fn write_head(w: &mut Cursor<'_>, counters: &Counters, retry: &RetryStats, peak: u32, n: usize) {
    w.room(1 + MAX_VAR * (8 + retry.by_attempt.len()) + MAX_VAR_U32 + MAX_VAR);
    w.bytes(&[STATE_VERSION]);
    for word in [
        counters.arrivals,
        counters.departed,
        counters.shed,
        counters.evicted,
        retry.shed_capacity,
        retry.shed_unavailable,
        retry.admitted_on_retry,
    ] {
        w.var(word);
    }
    w.var(retry.by_attempt.len() as u64);
    for &count in &retry.by_attempt {
        w.var(count);
    }
    w.var(u64::from(peak));
    w.var(n as u64);
}

/// The loads of `servers`, marking each failed one in the failure
/// bitset `bits` (bit `s` of byte `s / 8`). Eight loads whose OR is below
/// 0x80 are eight one-byte varints and no failure sentinel, so they go
/// out as one 8-byte store; a word with a wider load takes them one at a
/// time.
fn write_loads(w: &mut Cursor<'_>, loads: &[u32], servers: Range<usize>, bits: &mut [u8]) {
    w.room(MAX_VAR_U32 * servers.len());
    let (out, mut at) = (&mut w.out[..], w.at);
    let mut s = servers.start;
    let mut words = loads[servers].chunks_exact(8);
    for word in &mut words {
        if word.iter().fold(0, |or, &load| or | load) < 0x80 {
            let bytes: [u8; 8] = std::array::from_fn(|i| word[i] as u8);
            out[at..at + 8].copy_from_slice(&bytes);
            at += 8;
        } else {
            at = put_loads(out, at, bits, s, word);
        }
        s += 8;
    }
    w.at = put_loads(out, at, bits, s, words.remainder());
}

/// `loads` of the servers from `first` on, one varint each into `out`
/// from `at`, marking the failed ones in `bits`; returns the end.
fn put_loads(out: &mut [u8], mut at: usize, bits: &mut [u8], first: usize, loads: &[u32]) -> usize {
    for (s, &load) in (first..).zip(loads) {
        if load == FAILED_LOAD {
            bits[s / 8] |= 1 << (s % 8);
        }
        at = put_var(out, at, u64::from(load));
    }
    at
}

/// The failure bitset — redundant with the sentinel loads, and kept so
/// the image format stays unchanged — and the departure count.
fn write_bits(w: &mut Cursor<'_>, bits: &[u8], entries: usize) {
    w.room(bits.len() + MAX_VAR);
    w.bytes(bits);
    w.var(entries as u64);
}

/// Departures in ascending order, each as its deadline's delta from
/// `prev_when` (the previous deadline, carried across calls) and its
/// server.
///
/// # Panics
/// If a deadline precedes its predecessor.
fn write_departures(
    w: &mut Cursor<'_>,
    prev_when: &mut u64,
    departures: impl Iterator<Item = (u64, u32)>,
) {
    let mut prev = *prev_when;
    for (when, server) in departures {
        // An unsorted `EngineState` would be rejected by the restore
        // path anyway, but fail loudly here rather than encode an
        // undecodable wrap.
        let delta = when
            .checked_sub(prev)
            .expect("departures must be visited in ascending order");
        w.room(MAX_VAR + MAX_VAR_U32);
        w.at = put_departure(w.out, w.at, delta, u64::from(server), server < 1 << 28);
        prev = when;
    }
    *prev_when = prev;
}

/// Packed departure keys in ascending order — offsets from `base` above
/// `bits` server bits — written exactly as [`write_departures`] writes
/// their pairs, with room made once for the whole slice: no delta
/// exceeds the last deadline's distance from `prev_when`.
fn write_packed_departures(
    w: &mut Cursor<'_>,
    prev_when: &mut u64,
    keys: &[u64],
    base: u64,
    bits: u32,
) {
    let Some(&last) = keys.last() else {
        return;
    };
    let mask = (1u64 << bits) - 1;
    let widest = var_len(base + (last >> bits) - *prev_when) + var_len(mask);
    // The last server's 4-byte store may reach 3 bytes past its varint.
    w.room(keys.len() * widest + 3);
    let (out, mut at) = (&mut w.out[..], w.at);
    // Hoisted, so the loop is specialised to its server width.
    let narrow = bits <= 28;
    let mut prev = *prev_when;
    for &key in keys {
        let when = base + (key >> bits);
        debug_assert!(when >= prev, "departure keys out of order");
        at = put_departure(out, at, when - prev, key & mask, narrow);
        prev = when;
    }
    w.at = at;
    *prev_when = prev;
}

/// One departure into `out` from `at`, returning the end: its deadline's
/// delta, almost always one byte (a predictable branch), then its
/// server, written branch-free by [`put_var_u28`] when `narrow` says it
/// is below 2^28. `out` must have room for both varints and 3 bytes more.
#[inline(always)]
fn put_departure(out: &mut [u8], mut at: usize, delta: u64, server: u64, narrow: bool) -> usize {
    if delta < 0x80 {
        out[at] = delta as u8;
        at += 1;
    } else {
        at = put_var(out, at, delta);
    }
    if narrow {
        put_var_u28(out, at, server as u32)
    } else {
        put_var(out, at, server)
    }
}

/// LEB128 — 7 value bits per byte, high bit = continuation — of `value`
/// into `out` from `at`; returns the end.
#[inline]
fn put_var(out: &mut [u8], mut at: usize, mut value: u64) -> usize {
    while value >= 0x80 {
        out[at] = (value as u8) | 0x80;
        at += 1;
        value >>= 7;
    }
    out[at] = value as u8;
    at + 1
}

/// [`put_var`] of a `value` below 2^28, branch-free: its length comes
/// from three compares and its bytes go out in one 4-byte store, so
/// `out` must have 4 bytes from `at` whatever the length.
#[inline]
fn put_var_u28(out: &mut [u8], at: usize, value: u32) -> usize {
    debug_assert!(value < 1 << 28);
    let len = 1
        + usize::from(value >= 0x80)
        + usize::from(value >= 0x4000)
        + usize::from(value >= 0x20_0000);
    // The four 7-bit groups, one a byte, and the continuation bit of
    // every byte before the last.
    let groups = (value & 0x7F)
        | (value << 1 & 0x7F00)
        | (value << 2 & 0x7F_0000)
        | (value << 3 & 0x7F00_0000);
    let more = 0x0080_8080 & ((1 << (8 * (len - 1))) - 1);
    out[at..at + 4].copy_from_slice(&(groups | more).to_le_bytes());
    at + len
}

/// Bytes the LEB128 encoding of `value` takes.
fn var_len(value: u64) -> usize {
    ceil_div((u64::BITS - value.leading_zeros()).max(1) as usize, 7)
}

/// A write cursor into a `Vec` that keeps room ahead of itself: the
/// writer asks for room once per field, for the field's longest
/// encoding, and then stores each byte by index instead of pushing it.
/// The room is the buffer's whole capacity, so it is zeroed once per
/// allocation; the bytes past the cursor are scratch, and the writer
/// keeps the cursor's position as the image's length.
struct Cursor<'a> {
    out: &'a mut Vec<u8>,
    at: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor writing into `out` from byte `at` (at most its length).
    fn at(out: &'a mut Vec<u8>, at: usize) -> Self {
        debug_assert!(at <= out.len());
        Self { out, at }
    }

    /// Makes sure `len` bytes can be written from the cursor.
    #[inline]
    fn room(&mut self, len: usize) {
        if self.out.len() - self.at < len {
            let room = (self.at + len).max(self.out.capacity());
            self.out.resize(room, 0);
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        let end = self.at + bytes.len();
        self.out[self.at..end].copy_from_slice(bytes);
        self.at = end;
    }

    /// LEB128 ([`put_var`]).
    #[inline]
    fn var(&mut self, value: u64) {
        self.at = put_var(self.out, self.at, value);
    }
}

/// Decodes the versioned checkpoint codec back into an [`EngineState`].
///
/// # Errors
/// [`JournalError::Codec`] when the version byte is unknown, the payload
/// is shorter or longer than its own counts declare, or the failure
/// bitset disagrees with the [`FAILED_LOAD`] sentinels in the loads.
/// (Semantic validity — conservation, the departure map — is the
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
    let flagged = |s: usize| bits[s / 8] & (1 << (s % 8)) != 0;
    if (0..n).any(|s| flagged(s) != (loads[s] == FAILED_LOAD)) {
        return Err(JournalError::Codec(
            "failure bitset disagrees with the sentinel loads",
        ));
    }
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

    /// LEB128 varint, the inverse of [`Cursor::var`]. Rejects encodings
    /// that overflow a `u64` (including over-long paddings).
    fn var(&mut self) -> Result<u64, JournalError> {
        // One-byte fast path: small loads, servers and near-adjacent
        // deadline deltas make most of an image's varints a single byte.
        if let Some(&byte) = self.buf.get(self.at) {
            if byte < 0x80 {
                self.at += 1;
                return Ok(u64::from(byte));
            }
        }
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

/// Work units each journaled chunk spends on a pending checkpoint. A unit
/// is one departure key counted by a radix pass; every stage charges in
/// that currency (`GATHER_COST` per arena node a whole gather walks and
/// `WALK_COST` per node a gather since the previous mark walks,
/// `SCATTER_COST` and `SHARED_COST` per key in the sort, `MERGE_COST`
/// per key the merge visits, [`LOAD_COST`], [`EMIT_COST`], [`CRC_COST`],
/// [`FILES_COST`]), calibrated with a per-stage timer on the
/// `serve_durable_churn` image (2^16 servers, about 2^16 sessions, about
/// 4k of them filed since the previous image; shared 2-vCPU Xeon, five
/// runs of 300 images, the range over runs):
///
/// | stage  | ns per unit |
/// |--------|-------------|
/// | gather | 1.06–1.21   |
/// | sort   | 0.96–1.08   |
/// | merge  | 1.00–1.15   |
/// | loads  | 1.22–1.30   |
/// | emit   | 1.06–1.24   |
/// | CRC    | 1.03–1.16   |
/// | files  | 0.95–1.30   |
///
/// The gather row is the walk bounded by the previous mark, and the
/// sort row the sort of the keys it packs, which fit in cache. The runs
/// differ more than the stages within a run: in each run every stage
/// sits within 14% of the run's mean but the loads, which read 11–19%
/// above it at one unit a load, the smallest charge. A budget is
/// therefore about 0.15–0.2 ms of work in any stage. An image of 2^12
/// servers and their sessions — every test engine and every
/// `durability` experiment size — is estimated at under 0.8 budgets even
/// when gathered whole, so it is written whole inside the boundary call;
/// the 2^16 image takes just over 6 budgets of encoding and its files
/// land on the 8th chunk, or on the 7th for about one image in five
/// (about 10 budgets and the 11th chunk when gathered whole).
const CHECKPOINT_BUDGET: usize = 9 << 14;
/// Units per server of the load section: about 1 ns a load, most of them
/// written eight to a word.
const LOAD_COST: usize = 1;
/// Units per departure of the departure emit: about 3.5–6.5 ns a
/// departure.
const EMIT_COST: usize = 5;
/// The CRC stage charges [`CRC_COST`] units per this many payload bytes:
/// about 0.3 ns a byte on [`Crc32`]'s four lanes.
const CRC_BYTES: usize = 3;
/// Units per [`CRC_BYTES`] payload bytes of the CRC stage.
const CRC_COST: usize = 1;
/// Units the file stage takes: the spare write, the rotation and the
/// compaction run whole, in a chunk with at least this much budget left.
const FILES_COST: usize = 3 << 15;

// A chunk's budget must have room for the files, or they would never run.
const _: () = assert!(FILES_COST < CHECKPOINT_BUDGET);

/// The units an image of `n` servers and `entries` departures is
/// estimated to take after its sort and merge: the loads, the emit, and
/// a CRC over about a byte per load and four per departure.
fn image_units(n: usize, entries: usize) -> usize {
    LOAD_COST * n + EMIT_COST * entries + (n + 4 * entries) * CRC_COST / CRC_BYTES
}

/// Where a staged checkpoint is: its stages run in this order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Stage {
    /// No checkpoint is pending.
    #[default]
    Idle,
    /// Gathering the departures marked at the boundary.
    Gather,
    /// Sorting the gathered departure keys.
    Sort,
    /// Merging them with the previous image's.
    Merge,
    /// Encoding the loads; servers before `at` are written.
    Loads { at: usize },
    /// Emitting the departures; entries before `at` are written.
    Departures { at: usize },
    /// Checksumming the payload; image bytes before `at` are covered.
    Crc { at: usize },
    /// The frame is sealed: the image waits for its files.
    Sealed,
}

/// A checkpoint image built in stages from a snapshot taken at the
/// boundary event, with the buffers every checkpoint reuses. The image
/// is a pure function of the snapshot, so the engine runs on while it is
/// built.
#[derive(Debug, Default)]
struct Staged {
    stage: Stage,
    /// The boundary event the snapshot was taken at.
    event: u64,
    counters: Counters,
    retry: RetryStats,
    peak_load: u32,
    /// The loads, copied out of the backing at the boundary.
    loads: Vec<u32>,
    /// The departures live at the boundary: gathered by the first stage
    /// (only those filed since the previous image, if it is in here),
    /// then sorted and merged.
    keys: DepartureKeys,
    /// Header, frame placeholder and payload; bytes past `written` are
    /// scratch.
    image: Vec<u8>,
    written: usize,
    /// The failure bitset, filled by the load section.
    bits: Vec<u8>,
    /// The last deadline the departure emit wrote.
    prev_when: u64,
    crc: Crc32,
    /// The progress frames appended since the snapshot, in order: the
    /// journal the compaction leaves behind it.
    kept: Vec<u8>,
}

impl Staged {
    /// The boundary event of the pending checkpoint, if one is pending.
    fn pending(&self) -> Option<u64> {
        (self.stage != Stage::Idle).then_some(self.event)
    }

    /// Takes the snapshot the image is built from: the counters and the
    /// loads, copied into the retained buffers, and a gather mark on the
    /// departure queue. Returns whether the image is estimated to fit
    /// one [`CHECKPOINT_BUDGET`].
    fn snapshot<S: Space, L: LoadState, Q: DepartureQueue>(
        &mut self,
        engine: &mut ServeEngine<S, L, Q>,
    ) -> bool {
        debug_assert_eq!(self.stage, Stage::Idle, "a pending image was not finished");
        let (counters, retry, peak_load, loads, departures) = engine.image_inputs_mut();
        // One arrival an event: at most this many sessions were filed
        // since the previous image.
        let fresh =
            usize::try_from(counters.arrivals.saturating_sub(self.event)).unwrap_or(usize::MAX);
        self.event = counters.arrivals;
        self.counters = *counters;
        self.retry.clone_from(retry);
        self.peak_load = peak_load;
        loads.copy_into(&mut self.loads);
        let gather = departures.begin_gather(&mut self.keys);
        let entries = departures.len();
        self.written = 0;
        self.kept.clear();
        self.stage = Stage::Gather;
        let units =
            gather + self.keys.sort_units(entries, fresh) + image_units(self.loads.len(), entries);
        units <= CHECKPOINT_BUDGET
    }

    /// Spends up to `budget` units (taking what it spends off it) on the
    /// stages, gathering from `engine`'s departure queue; returns whether
    /// the image is sealed (never, with no checkpoint pending). A stage's
    /// last slice may overrun the budget by less than one item.
    fn encode_some<S: Space, L: LoadState, Q: DepartureQueue>(
        &mut self,
        header: &[u8; Header::LEN],
        engine: &mut ServeEngine<S, L, Q>,
        budget: &mut usize,
    ) -> bool {
        let n = self.loads.len();
        loop {
            match self.stage {
                Stage::Idle | Stage::Sealed => return self.stage == Stage::Sealed,
                _ if *budget == 0 => return false,
                Stage::Gather => {
                    let (.., departures) = engine.image_inputs_mut();
                    if departures.gather_some(&mut self.keys, budget) {
                        self.stage = Stage::Sort;
                    }
                }
                Stage::Sort => {
                    if self.keys.sort_some(budget) {
                        self.stage = Stage::Merge;
                    }
                }
                Stage::Merge => {
                    if self.keys.merge_some(budget) {
                        self.stage = Stage::Loads { at: 0 };
                    }
                }
                Stage::Loads { at } => {
                    let mut w = Cursor::at(&mut self.image, self.written);
                    if at == 0 {
                        // The file header, the frame placeholder, the head.
                        w.room(Header::LEN + frame::FRAME_OVERHEAD);
                        w.bytes(header);
                        w.bytes(&[0; frame::FRAME_OVERHEAD]);
                        write_head(&mut w, &self.counters, &self.retry, self.peak_load, n);
                        self.bits.clear();
                        self.bits.resize((n + 7) / 8, 0);
                    }
                    let end = n.min(at.saturating_add(ceil_div(*budget, LOAD_COST)));
                    write_loads(&mut w, &self.loads[..], at..end, &mut self.bits);
                    *budget = budget.saturating_sub((end - at) * LOAD_COST);
                    self.stage = if end < n {
                        Stage::Loads { at: end }
                    } else {
                        write_bits(&mut w, &self.bits, self.keys.len());
                        self.prev_when = 0;
                        Stage::Departures { at: 0 }
                    };
                    self.written = w.at;
                }
                Stage::Departures { at } => {
                    let (packed, far) = self.keys.image();
                    let entries = packed.len() + far.len();
                    let end = entries.min(at.saturating_add(ceil_div(*budget, EMIT_COST)));
                    let mut w = Cursor::at(&mut self.image, self.written);
                    if at < packed.len() {
                        let slice = &packed[at..end.min(packed.len())];
                        let (base, bits) = (self.keys.base(), self.keys.server_bits());
                        write_packed_departures(&mut w, &mut self.prev_when, slice, base, bits);
                    }
                    if end > packed.len() {
                        let slice = &far[at.saturating_sub(packed.len())..end - packed.len()];
                        write_departures(&mut w, &mut self.prev_when, slice.iter().copied());
                    }
                    self.written = w.at;
                    *budget = budget.saturating_sub((end - at) * EMIT_COST);
                    self.stage = if end < entries {
                        Stage::Departures { at: end }
                    } else {
                        self.crc = Crc32::new();
                        Stage::Crc {
                            at: Header::LEN + frame::FRAME_OVERHEAD,
                        }
                    };
                }
                Stage::Crc { at } => {
                    let end = self.written.min(
                        at.saturating_add(ceil_div(*budget, CRC_COST).saturating_mul(CRC_BYTES)),
                    );
                    self.crc.update(&self.image[at..end]);
                    *budget = budget.saturating_sub(ceil_div(end - at, CRC_BYTES) * CRC_COST);
                    self.stage = if end < self.written {
                        Stage::Crc { at: end }
                    } else {
                        let crc = self.crc.finish();
                        frame::seal_frame_with(&mut self.image[Header::LEN..self.written], crc);
                        Stage::Sealed
                    };
                }
            }
        }
    }

    /// The sealed file: header, then the framed image.
    fn sealed(&self) -> &[u8] {
        debug_assert_eq!(self.stage, Stage::Sealed);
        &self.image[..self.written]
    }
}

/// A [`ServeEngine`] wrapped with the durability discipline: chunked
/// runs append a progress frame per chunk to the journal handle it
/// holds, and every [`checkpoint interval`](DurableEngine::create_with)
/// events the state is snapshotted, encoded in stages over the next few
/// chunks, and made durable (spare rewrite + rotation), after which the
/// journal is compacted — see the [module docs](self). Construction
/// inputs are bound into both file headers.
#[derive(Debug)]
pub struct DurableEngine<S: Space, L: LoadState = Vec<u32>, Q: DepartureQueue = DepartureWheel> {
    engine: ServeEngine<S, L, Q>,
    dir: PathBuf,
    every: u64,
    /// `journal.bin`, open for writing at the end of its frames for the
    /// engine's whole life.
    journal: File,
    /// `checkpoint.bin`'s header, encoded once: its fingerprint renders
    /// the whole configuration.
    checkpoint_header: [u8; Header::LEN],
    /// Event count of the last durable checkpoint.
    checkpoint_event: u64,
    /// Journal bytes appended since this handle opened (frames only).
    journal_bytes: u64,
    /// Checkpoints made durable since this handle opened.
    checkpoints: u64,
    /// The checkpoint being built, if any, and its reused buffers.
    staged: Staged,
}

impl<S: Space, L: LoadState, Q: DepartureQueue> DurableEngine<S, L, Q> {
    /// Creates a journal directory for a fresh engine on the all-zero
    /// `loads` backing and the scheduler `Q`, checkpointing every `every`
    /// events. Writes the initial (event-0) checkpoint and an empty
    /// journal before returning, so a crash at any later point has
    /// something durable to resume from.
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
            staged: Staged::default(),
        };
        // The seed image is the one write with no checkpoint to rotate
        // out: the spare becomes `checkpoint.bin` by a single rename.
        durable.staged.snapshot(&mut durable.engine);
        let mut unbounded = usize::MAX;
        let sealed = durable.staged.encode_some(
            &durable.checkpoint_header,
            &mut durable.engine,
            &mut unbounded,
        );
        debug_assert!(sealed);
        durable.write_spare()?;
        durable.staged.stage = Stage::Idle;
        fs::rename(
            durable.dir.join(CHECKPOINT_TMP),
            durable.dir.join(CHECKPOINT_FILE),
        )?;
        Ok(durable)
    }

    /// Runs `events` arrival events under `plan`, journaled: the run is
    /// chunked at checkpoint boundaries and each chunk appends one
    /// progress frame. At each boundary the state is snapshotted (a
    /// checkpoint still pending from the previous boundary is finished
    /// first), and every later chunk spends one fixed work budget on the
    /// image until it is durable; then the journal is compacted. A small
    /// engine's image fits one budget and is written whole at the
    /// boundary, durable before the boundary's call returns.
    /// Byte-identical to [`ServeEngine::run_with_faults`] for the same
    /// inputs — the journal only observes the run.
    ///
    /// # Errors
    /// Any filesystem failure appending to the journal or writing a
    /// checkpoint; the in-memory engine keeps the events it ran.
    ///
    /// # Panics
    /// Panics if the event clock would pass `u64::MAX`.
    pub fn run_journaled(&mut self, events: u64, plan: &FaultPlan) -> Result<(), JournalError> {
        let end = self.engine.clock_after(events);
        loop {
            let last = self.staged.pending().unwrap_or(self.checkpoint_event);
            let boundary = last + self.every;
            if self.engine.arrivals() >= boundary {
                // Reached (or resumed past) the boundary: snapshot it. An
                // image that fits one budget is written whole now; a
                // larger one starts on the next chunk's budget.
                self.finish_checkpoint()?;
                if self.staged.snapshot(&mut self.engine) {
                    self.finish_checkpoint()?;
                }
                continue;
            }
            if self.engine.arrivals() >= end {
                return Ok(());
            }
            let chunk_end = end.min(boundary);
            self.engine
                .run_with_faults(chunk_end - self.engine.arrivals(), plan);
            self.append_progress()?;
            self.stage_checkpoint(CHECKPOINT_BUDGET)?;
        }
    }

    /// Appends one "durable up to the current event" frame.
    fn append_progress(&mut self) -> Result<(), JournalError> {
        // The record tag and the event, framed in place on the stack.
        let mut framed = [0u8; frame::FRAME_OVERHEAD + 9];
        framed[frame::FRAME_OVERHEAD] = RECORD_ADVANCE;
        framed[frame::FRAME_OVERHEAD + 1..].copy_from_slice(&self.engine.arrivals().to_le_bytes());
        frame::seal_frame(&mut framed);
        // One write(2) at the end of the journal, no userspace buffer:
        // the frame is the kernel's before this returns.
        self.journal.write_all(&framed)?;
        self.journal_bytes += framed.len() as u64;
        if self.staged.pending().is_some() {
            self.staged.kept.extend_from_slice(&framed);
        }
        Ok(())
    }

    /// Spends `budget` units on the pending checkpoint, if any; once its
    /// image is sealed with [`FILES_COST`] units left, makes it durable.
    fn stage_checkpoint(&mut self, mut budget: usize) -> Result<(), JournalError> {
        let sealed =
            self.staged
                .encode_some(&self.checkpoint_header, &mut self.engine, &mut budget);
        if sealed && budget >= FILES_COST {
            self.complete_checkpoint()?;
        }
        Ok(())
    }

    /// Runs the pending checkpoint, if any, to the end.
    fn finish_checkpoint(&mut self) -> Result<(), JournalError> {
        self.stage_checkpoint(usize::MAX)
    }

    /// Writes the sealed image into the spare `checkpoint.tmp`, rewritten
    /// in place: opened without truncation, written from offset 0, then
    /// cut to the image's length.
    fn write_spare(&self) -> Result<(), JournalError> {
        let bytes = self.staged.sealed();
        // Opened afresh each time, never held: a held handle would follow
        // its inode through the rotation's renames.
        let mut spare = fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(self.dir.join(CHECKPOINT_TMP))?;
        spare.write_all(bytes)?;
        spare.set_len(bytes.len() as u64)?;
        Ok(())
    }

    /// Makes the sealed image durable (spare rewrite + rotation), then
    /// compacts the journal to the progress frames appended since its
    /// snapshot.
    fn complete_checkpoint(&mut self) -> Result<(), JournalError> {
        self.write_spare()?;
        // Rotate the spare in through the free name `checkpoint.old`: no
        // rename replaces an existing file, and the previous image
        // becomes the next spare.
        let [bin, tmp, old] =
            [CHECKPOINT_FILE, CHECKPOINT_TMP, CHECKPOINT_OLD].map(|f| self.dir.join(f));
        fs::rename(&bin, &old)?;
        fs::rename(&tmp, &bin)?;
        fs::rename(&old, &tmp)?;
        // The checkpoint subsumes every frame up to its event: rewrite
        // the later ones right after the header in one write(2), then cut
        // the file there. Every frame has the same length, so a crash
        // between the two leaves whole frames only, and the latest marker
        // among them. A crash before the rewrite leaves frames at or
        // before the checkpoint event, which recovery skips.
        let kept = &self.staged.kept;
        self.journal.seek(SeekFrom::Start(Header::LEN as u64))?;
        self.journal.write_all(kept)?;
        self.journal.set_len((Header::LEN + kept.len()) as u64)?;
        self.checkpoint_event = self.staged.event;
        self.checkpoints += 1;
        self.staged.stage = Stage::Idle;
        Ok(())
    }

    /// Forces a checkpoint of the current state now, off the periodic
    /// boundary (e.g. at a clean shutdown): a checkpoint still pending
    /// is finished first, then this one is written whole before the call
    /// returns.
    ///
    /// # Errors
    /// As [`DurableEngine::run_journaled`].
    pub fn checkpoint_now(&mut self) -> Result<(), JournalError> {
        self.finish_checkpoint()?;
        self.staged.snapshot(&mut self.engine);
        self.finish_checkpoint()
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

    /// Checkpoints made durable through this handle (the creation-time
    /// seed image excluded). A checkpoint counts once its rotation is
    /// done, not when its snapshot is taken.
    #[must_use]
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// Event count of the last durable checkpoint: the boundary its
    /// snapshot was taken at, which trails the engine while a later
    /// checkpoint is still being staged.
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
    /// The directory the engine was resumed from.
    dir: PathBuf,
    /// The binding words both of its files carry.
    binds: [u64; 2],
}

impl<S: Space, L: LoadState, Q: DepartureQueue> Resumed<S, L, Q> {
    /// Continues the resumed engine under the durability discipline,
    /// journaling to the directory it was resumed from, under the same
    /// binding words, with checkpoint interval `every`. Opens the
    /// journal handle the engine then holds; the resume already cut any
    /// torn tail, so new frames follow the last intact one.
    ///
    /// # Errors
    /// Any filesystem failure opening the directory's journal.
    ///
    /// # Panics
    /// If `every` is zero.
    pub fn into_durable(self, every: u64) -> Result<DurableEngine<S, L, Q>, JournalError> {
        assert!(every >= 1, "checkpoint interval must be at least 1 event");
        Ok(DurableEngine {
            journal: open_journal(&self.dir)?,
            checkpoint_header: encoded_header(CHECKPOINT_MAGIC, self.binds),
            engine: self.engine,
            dir: self.dir,
            every,
            checkpoint_event: self.checkpoint_event,
            journal_bytes: 0,
            checkpoints: 0,
            staged: Staged::default(),
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

        // No `checkpoint.bin` beside a `checkpoint.old` is a crash between
        // the rotation's first two renames: the old name holds the
        // previous complete image, and the journal still reaches past it.
        let ckpt_path = dir.join(CHECKPOINT_FILE);
        let old_path = dir.join(CHECKPOINT_OLD);
        if !ckpt_path.try_exists()? && old_path.try_exists()? {
            fs::rename(&old_path, &ckpt_path)?;
        }
        // Whatever the spare and the old name still hold is residue: the
        // checkpoint is `checkpoint.bin`.
        for residue in [CHECKPOINT_TMP, CHECKPOINT_OLD] {
            let _ = fs::remove_file(dir.join(residue));
        }

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
            dir: dir.to_path_buf(),
            binds,
        })
    }
}

/// Verifies a checkpoint file's header, binding, and single clean frame,
/// returning the state payload. A checkpoint takes its name only once
/// complete, so *any* damage — torn tail included — is corruption.
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
    use geo2c_util::frame::append_frame;
    use geo2c_util::rng::Xoshiro256pp;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        let id = UNIQUE.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("geo2c-journal-{}-{tag}-{id}", std::process::id()))
    }

    /// Appends `value` as a LEB128 varint, for hand-built payloads.
    fn push_var(out: &mut Vec<u8>, mut value: u64) {
        while value >= 0x80 {
            out.push((value as u8) | 0x80);
            value >>= 7;
        }
        out.push(value as u8);
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

    /// A durable engine over `space(n, seed)` on the flat backing.
    fn create(dir: &Path, n: usize, seed: u64, root: u64, every: u64) -> DurableEngine<RingSpace> {
        DurableEngine::create_with(dir, space(n, seed), config(), root, every, vec![0; n]).unwrap()
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
    fn checkpoint_image_bytes_are_pinned() {
        // Failed servers, capacity sheds, unavailable sheds and retry
        // rescues on a fixed seed. The length and CRC were recorded when
        // the engine still kept a failure vector beside the sentinel
        // loads, so they pin that deriving the bitset from the sentinels
        // left the on-disk format unchanged.
        let config = ServeConfig {
            strategy: Strategy::two_choice(),
            capacity: Some(3),
            life: SessionLife::Exponential { mean: 40.0 },
            retries: 2,
        };
        let mut engine = ServeEngine::new(space(16, 21), config, 1234);
        engine.run(600);
        engine.fail_server(3);
        engine.fail_server(11);
        engine.run(300);
        engine.fail_server(9);
        engine.recover_server(3);
        engine.run(100);
        assert_eq!(
            (engine.shed_capacity(), engine.shed_unavailable()),
            (206, 4)
        );
        assert_eq!(engine.retry_by_attempt(), &[181, 94]);
        let image = encode_state(&engine.state());
        assert_eq!((image.len(), frame::crc32(&image)), (103, 0x5616_746E));
    }

    #[test]
    fn a_multi_lane_checkpoint_image_is_pinned() {
        // 2^13 servers on one choice, no capacity bound and lives of
        // about 2^24 events: the widest arcs hold loads past 0x80, three
        // servers are down, and the image is far above the CRC's lane
        // threshold. The length and CRC were recorded before the load
        // section went word-at-a-time, the emit branch-free and the CRC
        // four-lane, so they pin that all three left the bytes unchanged.
        let n = 1 << 13;
        let config = ServeConfig {
            strategy: Strategy::d_choice(1),
            capacity: None,
            life: SessionLife::Exponential {
                mean: f64::from(1 << 24),
            },
            retries: 0,
        };
        let mut engine = ServeEngine::new(space(n, 29), config, 4321);
        engine.run(200_000);
        for server in [7, 4096, 8191] {
            engine.fail_server(server);
        }
        engine.run(60_000);
        let state = engine.state();
        let wide = state
            .loads
            .iter()
            .filter(|&&l| (0x80..FAILED_LOAD).contains(&l));
        assert!(wide.count() > 100, "too few two-byte loads");
        let image = encode_state(&state);
        assert_eq!((image.len(), frame::crc32(&image)), (892_847, 0x67EF_55D4));
        // The staged writer emits the departures from packed keys, a
        // path `encode_state` does not take: it writes the same bytes,
        // sliced or whole.
        let header = encoded_header(CHECKPOINT_MAGIC, [3, 4]);
        let mut expected = header.to_vec();
        append_frame(&mut expected, &image);
        let mut staged = Staged::default();
        for budget in [CHECKPOINT_BUDGET, usize::MAX] {
            staged.snapshot(&mut engine);
            while !staged.encode_some(&header, &mut engine, &mut budget.clone()) {}
            assert!(staged.sealed() == &expected[..], "budget {budget}");
            staged.stage = Stage::Idle;
        }
    }

    #[test]
    fn staged_images_are_the_same_bytes_however_the_budget_slices_them() {
        // Failed servers and live sessions; budgets from one unit per
        // call (every stage, the CRC included, cut into many slices) to
        // unbounded, all into the same reused buffers.
        let header = encoded_header(CHECKPOINT_MAGIC, [1, 2]);
        let mut staged = Staged::default();
        let mut engine = ServeEngine::new(space(32, 3), config(), 500);
        for events in [700, 100, 5] {
            engine.run(events);
            engine.fail_server(events as usize % 32);
            let mut expected = header.to_vec();
            append_frame(&mut expected, &encode_state(&engine.state()));
            for budget in [1, 2, 3, 7, 64, usize::MAX] {
                staged.snapshot(&mut engine);
                let mut calls = 1;
                while !staged.encode_some(&header, &mut engine, &mut budget.clone()) {
                    calls += 1;
                }
                assert!(budget >= 64 || calls > 10, "budget {budget}: {calls} calls");
                assert_eq!(staged.sealed(), &expected[..], "budget {budget}");
                staged.stage = Stage::Idle;
            }
        }
    }

    /// The bytes and failure bitset `write_loads` leaves for `loads`,
    /// written a slice per range of `cuts` (each cut a range's start).
    fn load_section(loads: &[u32], cuts: &[usize]) -> (Vec<u8>, Vec<u8>) {
        let mut out = Vec::new();
        let mut bits = vec![0u8; (loads.len() + 7) / 8];
        let mut w = Cursor::at(&mut out, 0);
        let ends = cuts[1..].iter().copied().chain([loads.len()]);
        for (start, end) in cuts.iter().copied().zip(ends) {
            write_loads(&mut w, loads, start..end, &mut bits);
        }
        let len = w.at;
        out.truncate(len);
        (out, bits)
    }

    #[test]
    fn load_sections_written_in_slices_match_the_whole() {
        // The staged writer starts a slice at any server, so its 8-load
        // words fall anywhere: cut a mixed section at every pair of
        // points and compare with one pass.
        let mut loads: Vec<u32> = (0..37).map(|s| (s * 29) % 0x80).collect();
        loads[9] = FAILED_LOAD;
        loads[20] = 0x80;
        loads[30] = 0x4000;
        let whole = load_section(&loads, &[0]);
        assert_eq!(whole.0.len(), 37 + 4 + 1 + 2);
        for a in 0..=loads.len() {
            for b in a..=loads.len() {
                assert_eq!(load_section(&loads, &[0, a, b]), whole, "cuts {a}, {b}");
            }
        }
    }

    #[test]
    fn departure_emits_match_leb128_at_every_server_width() {
        // Servers on both sides of every varint length bound, at server
        // widths up to the 28 bits the branch-free store takes and past
        // them, and deltas of zero to three bytes: the pair emit, and the
        // packed emit cut at every key, against plain LEB128.
        let base = 1000;
        for bits in [1, 7, 8, 14, 15, 21, 22, 28, 29, 32] {
            let top = (1u64 << bits) - 1;
            let servers = [
                0,
                0x7F,
                0x80,
                0x3FFF,
                0x4000,
                0x1F_FFFF,
                0x20_0000,
                0xFFF_FFFF,
                0x1000_0000,
                top,
            ];
            let mut offset = 0;
            let keys: Vec<u64> = (0..servers.len())
                .map(|i| {
                    offset += [0, 1, 0x7F, 0x80, 1 << 20][i % 5];
                    offset << bits | servers[i].min(top)
                })
                .collect();
            let pairs: Vec<(u64, u32)> = keys
                .iter()
                .map(|&k| (base + (k >> bits), (k & top) as u32))
                .collect();
            let mut want = Vec::new();
            let mut prev = 0;
            for &(when, server) in &pairs {
                push_var(&mut want, when - prev);
                push_var(&mut want, u64::from(server));
                prev = when;
            }
            let mut got = Vec::new();
            let mut w = Cursor::at(&mut got, 0);
            write_departures(&mut w, &mut 0, pairs.iter().copied());
            let len = w.at;
            got.truncate(len);
            assert_eq!(got, want, "bits {bits}: pairs");
            for cut in 0..=keys.len() {
                let mut got = Vec::new();
                let mut w = Cursor::at(&mut got, 0);
                let mut prev = 0;
                write_packed_departures(&mut w, &mut prev, &keys[..cut], base, bits);
                write_packed_departures(&mut w, &mut prev, &keys[cut..], base, bits);
                let len = w.at;
                got.truncate(len);
                assert_eq!(got, want, "bits {bits}, cut {cut}");
            }
        }
    }

    #[test]
    fn state_codec_rejects_a_failure_bitset_that_disagrees_with_the_sentinels() {
        // No sessions, so the image ends with the 2-byte failure bitset
        // of the 12 servers and a zero departure count.
        let mut engine = ServeEngine::new(space(12, 7), config(), 3);
        engine.fail_server(5);
        let good = encode_state(&engine.state());
        let at = good.len() - 3;
        assert_eq!(good[at..], [1 << 5, 0, 0]);
        // A set bit over a live load, and a sentinel load without its bit.
        for bit in [2, 5] {
            let mut bad = good.clone();
            bad[at] ^= 1 << bit;
            assert!(matches!(decode_state(&bad), Err(JournalError::Codec(_))));
        }
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
        push_var(&mut bytes, 1 << 62);
        assert!(bytes.len() < 20);
        assert!(matches!(decode_state(&bytes), Err(JournalError::Codec(_))));
        // The same for the server and departure counts of a real image.
        let state = ServeEngine::new(space(8, 5), config(), 9).state();
        let good = encode_state(&state);
        // Version, seven counters, the one-attempt histogram, peak load.
        let n_at = 1 + 7 + 2 + 1;
        assert_eq!(good[n_at], 8);
        let mut huge_n = good[..n_at].to_vec();
        push_var(&mut huge_n, u64::MAX >> 1);
        assert!(matches!(decode_state(&huge_n), Err(JournalError::Codec(_))));
        let mut huge_entries = good[..good.len() - 1].to_vec();
        push_var(&mut huge_entries, 1 << 40);
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
        let mut durable = create(&dir, 24, 11, 42, 256);
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
        let mut durable = create(&dir, 16, 2, 9, 128);
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
        let mut durable = create(&dir, 16, 4, 5, 1_000);
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
