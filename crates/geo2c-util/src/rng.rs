//! Deterministic, splittable random number generation.
//!
//! All simulations in this workspace are Monte-Carlo experiments whose
//! results must be *exactly* reproducible: the committed numbers in
//! `EXPERIMENTS.md` were produced by specific seeds, and the parallel trial
//! runner must give trial `i` the same stream no matter how trials are
//! scheduled onto threads.
//!
//! We therefore implement two tiny, well-known generators in-tree rather
//! than relying on `rand`'s unspecified `StdRng` algorithm:
//!
//! * [`SplitMix64`] — Steele, Lea & Flood's 64-bit mixer. Used exclusively
//!   for *seed derivation* (it equidistributes even pathological seeds such
//!   as 0, 1, 2, …).
//! * [`Xoshiro256pp`] — Blackman & Vigna's xoshiro256++, the workhorse
//!   generator for the simulations. It is extremely fast (a few ns per
//!   `u64`), has a 2^256−1 period, and passes BigCrush.
//!
//! Both implement [`rand::RngCore`]/[`rand::SeedableRng`], so they compose
//! with the `rand` distribution machinery (`gen_range`, `gen::<f64>()`, …).
//!
//! # Stream derivation
//!
//! [`StreamSeeder`] maps `(experiment seed, trial index)` to an independent
//! generator. Internally it feeds both values through SplitMix64 so that
//! consecutive trial indices yield statistically unrelated streams.
//!
//! ```
//! use geo2c_util::rng::StreamSeeder;
//! use rand::Rng;
//!
//! let seeder = StreamSeeder::new(42);
//! let mut a = seeder.stream(0);
//! let mut b = seeder.stream(1);
//! // Streams are deterministic ...
//! assert_eq!(seeder.stream(0).gen::<u64>(), a.gen::<u64>());
//! // ... and distinct per trial.
//! assert_ne!(a.gen::<u64>(), b.gen::<u64>());
//! ```
//!
//! # Per-ball lanes (RNG stream contract v2)
//!
//! The insertion engine's randomness is *laned*: each ball `b` of a trial
//! draws its probe coordinates from its own counter-keyed generator
//! ([`BallLanes::probe`]) and resolves load ties from a second one
//! ([`BallLanes::tie`]), both derived from a single root
//! ([`SplitMix64::mixed`] with the [`PROBE_TAG`] / [`TIE_TAG`] domain
//! separators). Because no two balls — and no ball's probe and tie
//! draws — share a stream, probe generation is independent of tie
//! resolution and of every other ball, which is what lets the engine
//! draw many balls' probe blocks in one batched call regardless of the
//! tie-break policy. [`LaneSource`] abstracts the keying so alternative
//! probe sources (e.g. [`TabulationLanes`]) plug into the same engine.

use rand::{Error, RngCore, SeedableRng};

/// Golden-ratio increment used by SplitMix64.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 pseudo-random generator (Steele, Lea & Flood, OOPSLA 2014).
///
/// A counter-based generator: each output is a strong 64-bit mix of an
/// internal counter that advances by the golden-ratio constant. Its value
/// here is seed *expansion*: any 64-bit state — including 0 — produces a
/// high-entropy output sequence, which makes it the standard tool for
/// seeding larger-state generators such as xoshiro.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator whose counter starts at `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Counter-keyed lane constructor (RNG stream contract v2): the
    /// generator for lane `lane` of root `seed` in domain `tag`, with
    /// the key `mix(mix(seed ^ tag) ^ mix(lane + γ))`.
    ///
    /// Every input goes through the full avalanche [`mix`] before
    /// keying the counter, so sequential lane indices (ball 0, 1, 2, …)
    /// and sequential roots land at statistically unrelated counter
    /// positions — the same discipline [`StreamSeeder`] applies per
    /// trial, one level down. [`BallLanes`] precomputes the
    /// `mix(seed ^ tag)` half so per-ball lane construction costs two
    /// mixes.
    #[must_use]
    pub fn mixed(seed: u64, lane: u64, tag: u64) -> Self {
        Self::new(mix(mix(seed ^ tag) ^ mix(lane.wrapping_add(GOLDEN_GAMMA))))
    }

    /// Returns the next 64-bit output and advances the counter.
    // Deliberately named after the reference C API; this is not an Iterator.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix(self.state)
    }
}

/// The SplitMix64 finalizer: a bijective avalanche mix of `z`.
#[inline]
#[must_use]
pub fn mix(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RngCore for SplitMix64 {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        fill_bytes_via_u64(self, dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for SplitMix64 {
    type Seed = [u8; 8];

    fn from_seed(seed: Self::Seed) -> Self {
        Self::new(u64::from_le_bytes(seed))
    }

    fn seed_from_u64(state: u64) -> Self {
        Self::new(state)
    }
}

/// xoshiro256++ pseudo-random generator (Blackman & Vigna, 2019).
///
/// 256 bits of state, period 2^256 − 1, ~0.8 ns per output on modern
/// hardware. This is the generator every simulation trial uses; see the
/// module docs for why we pin the algorithm in-tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Creates a generator by expanding `seed` through SplitMix64, per the
    /// reference implementation's seeding recommendation.
    #[must_use]
    pub fn from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next();
        }
        // The all-zero state is the one fixed point; SplitMix64 cannot emit
        // four consecutive zeros, but guard anyway for from_seed paths.
        if s == [0, 0, 0, 0] {
            s = [GOLDEN_GAMMA, 1, 2, 3];
        }
        Self { s }
    }

    #[inline]
    fn step(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

impl RngCore for Xoshiro256pp {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.step() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.step()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        fill_bytes_via_u64(self, dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for Xoshiro256pp {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut s = [0u64; 4];
        for (i, chunk) in seed.chunks_exact(8).enumerate() {
            s[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        if s == [0, 0, 0, 0] {
            s = [GOLDEN_GAMMA, 1, 2, 3];
        }
        Self { s }
    }

    fn seed_from_u64(state: u64) -> Self {
        Self::from_u64(state)
    }
}

/// Little-endian `u64`-at-a-time byte filling shared by both generators.
fn fill_bytes_via_u64<R: RngCore>(rng: &mut R, dest: &mut [u8]) {
    let mut chunks = dest.chunks_exact_mut(8);
    for chunk in &mut chunks {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    let rem = chunks.into_remainder();
    if !rem.is_empty() {
        let bytes = rng.next_u64().to_le_bytes();
        rem.copy_from_slice(&bytes[..rem.len()]);
    }
}

/// Derives independent per-trial generators from a single experiment seed.
///
/// The derivation is `xoshiro256++` seeded by
/// `SplitMix64(mix(seed) ^ mix(trial + φ))`, so that neither sequential
/// seeds nor sequential trial indices produce correlated streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSeeder {
    root: u64,
}

impl StreamSeeder {
    /// Creates a seeder rooted at `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { root: mix(seed) }
    }

    /// Returns the generator for `trial`. Calling this twice with the same
    /// index yields identical streams.
    #[must_use]
    pub fn stream(&self, trial: u64) -> Xoshiro256pp {
        Xoshiro256pp::from_u64(self.root ^ mix(trial.wrapping_add(GOLDEN_GAMMA)))
    }

    /// Derives a child seeder for a named sub-experiment, so that e.g. the
    /// "table1" and "table2" sweeps of the same run never share streams.
    #[must_use]
    pub fn child(&self, label: &str) -> Self {
        let mut h = self.root;
        for &b in label.as_bytes() {
            h = mix(h ^ u64::from(b));
        }
        Self { root: h }
    }
}

// ---------------------------------------------------------------------------
// Per-ball lanes (RNG stream contract v2)
// ---------------------------------------------------------------------------

/// Domain-separation tag for probe-coordinate lanes (contract v2).
pub const PROBE_TAG: u64 = 0xA076_1D64_78BD_642F;

/// Domain-separation tag for tie-resolution lanes (contract v2).
pub const TIE_TAG: u64 = 0xE703_7ED1_A0B4_28DB;

/// Domain-separation tag for session-lifetime lanes (the serving
/// engine's event streams; see [`EventLanes`]).
pub const LIFE_TAG: u64 = 0x8CB9_2BA7_2F3D_8DD7;

/// Domain-separation tag for fault-schedule lanes: fault event `i` of a
/// randomized fault plan draws its crash time, victim, and downtime from
/// `SplitMix64::mixed(root, i, FAULT_TAG)`, so a fault schedule is a
/// pure function of its root and replays byte-identically with the
/// event stream it interleaves into.
pub const FAULT_TAG: u64 = 0x1F8B_08D9_66A3_553B;

/// Domain-separation tag for probe-*retry* lanes (the serving engine's
/// graceful-degradation path; see [`EventLanes::retry`]): when every
/// primary probe of event `e` is failed or at capacity, retry attempt
/// `j` redraws its probes (and any tie randomness) sequentially from
/// the event's private retry lane — never from the primary probe/tie
/// lanes, so a retry budget of zero leaves the primary streams
/// untouched and replays the retry-free engine byte-identically.
pub const RETRY_TAG: u64 = 0x53C5_BF3D_9AE1_6D2D;

/// A source of per-ball generator lanes: the abstraction the insertion
/// engine draws through under stream contract v2.
///
/// Implementations must guarantee that `probe(b)`, `tie(b)` and every
/// lane of every other ball are mutually decorrelated streams, and that
/// the mapping is pure: calling `probe(b)` twice yields identical
/// generators. [`BallLanes`] (SplitMix64 lanes) is the engine default;
/// [`TabulationLanes`] swaps the mixer for a simple tabulation hash.
pub trait LaneSource {
    /// The per-lane generator type.
    type Lane: RngCore;

    /// The probe-coordinate lane for ball `ball` (relative to this
    /// source's base offset).
    fn probe(&self, ball: u64) -> Self::Lane;

    /// The tie-resolution lane for ball `ball`.
    fn tie(&self, ball: u64) -> Self::Lane;

    /// A view of the same lanes with all ball indices shifted by
    /// `first_ball`: `source.block(k).probe(i) == source.probe(k + i)`.
    /// The engine hands each cross-ball block a shifted view so spaces
    /// index lanes by position within the block.
    #[must_use]
    fn block(&self, first_ball: u64) -> Self;
}

/// SplitMix64 per-ball lanes keyed from one root (the engine default).
///
/// `BallLanes::new(root).probe(b)` is exactly
/// [`SplitMix64::mixed`]`(root, b, PROBE_TAG)` (and `tie(b)` the same
/// with [`TIE_TAG`]); the `mix(root ^ tag)` halves are precomputed so a
/// lane costs two [`mix`] evaluations.
///
/// ```
/// use geo2c_util::rng::{BallLanes, LaneSource, SplitMix64, PROBE_TAG};
/// use rand::RngCore;
///
/// let lanes = BallLanes::new(7);
/// assert_eq!(
///     lanes.probe(3).next_u64(),
///     SplitMix64::mixed(7, 3, PROBE_TAG).next_u64(),
/// );
/// // Shifted views address the same lanes.
/// assert_eq!(lanes.block(2).probe(1).next_u64(), lanes.probe(3).next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BallLanes {
    probe_root: u64,
    tie_root: u64,
    base: u64,
}

impl BallLanes {
    /// Lanes keyed from `root` (one draw of the trial's stream).
    #[must_use]
    pub fn new(root: u64) -> Self {
        Self {
            probe_root: mix(root ^ PROBE_TAG),
            tie_root: mix(root ^ TIE_TAG),
            base: 0,
        }
    }

    #[inline]
    fn lane(half_mixed_root: u64, ball: u64) -> SplitMix64 {
        SplitMix64::new(mix(half_mixed_root ^ mix(ball.wrapping_add(GOLDEN_GAMMA))))
    }
}

impl LaneSource for BallLanes {
    type Lane = SplitMix64;

    #[inline]
    fn probe(&self, ball: u64) -> SplitMix64 {
        Self::lane(self.probe_root, self.base.wrapping_add(ball))
    }

    #[inline]
    fn tie(&self, ball: u64) -> SplitMix64 {
        Self::lane(self.tie_root, self.base.wrapping_add(ball))
    }

    fn block(&self, first_ball: u64) -> Self {
        Self {
            base: self.base.wrapping_add(first_ball),
            ..*self
        }
    }
}

/// Per-event lanes for open-ended serving streams: the [`BallLanes`]
/// probe/tie pair plus a session-*lifetime* lane per event under
/// [`LIFE_TAG`] and a probe-*retry* lane per event under [`RETRY_TAG`].
///
/// Event `e` of a stream rooted at `root` draws its probe coordinates
/// from [`SplitMix64::mixed`]`(root, e, PROBE_TAG)`, resolves routing
/// ties on the [`TIE_TAG`] lane, draws its session lifetime on the
/// [`LIFE_TAG`] lane, and — only when every primary probe is failed or
/// at capacity — redraws fresh probe sets on the [`RETRY_TAG`] lane:
/// four mutually decorrelated streams per event, none shared with any
/// other event. That is what makes serving runs *prefix-replayable*:
/// the state after the first `p` events is a pure function of
/// `(root, p)` (plus the fault schedule applied so far), no matter how
/// many events follow or how the engine batches its probe draws. The
/// retry lane is untouched on the happy path, so a retry budget of zero
/// replays the retry-free engine byte-identically.
///
/// ```
/// use geo2c_util::rng::{EventLanes, LaneSource, SplitMix64, LIFE_TAG, PROBE_TAG, RETRY_TAG};
/// use rand::RngCore;
///
/// let lanes = EventLanes::new(7);
/// // Probe/tie lanes are exactly the BallLanes keying …
/// assert_eq!(
///     lanes.probe(3).next_u64(),
///     SplitMix64::mixed(7, 3, PROBE_TAG).next_u64(),
/// );
/// // … and the lifetime/retry lanes are the same keying under their tags.
/// assert_eq!(
///     lanes.life(3).next_u64(),
///     SplitMix64::mixed(7, 3, LIFE_TAG).next_u64(),
/// );
/// assert_eq!(
///     lanes.retry(3).next_u64(),
///     SplitMix64::mixed(7, 3, RETRY_TAG).next_u64(),
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventLanes {
    balls: BallLanes,
    life_root: u64,
    retry_root: u64,
    base: u64,
}

impl EventLanes {
    /// Lanes keyed from `root` (one draw of the trial's stream).
    #[must_use]
    pub fn new(root: u64) -> Self {
        Self {
            balls: BallLanes::new(root),
            life_root: mix(root ^ LIFE_TAG),
            retry_root: mix(root ^ RETRY_TAG),
            base: 0,
        }
    }

    /// The session-lifetime lane for event `event`.
    #[inline]
    #[must_use]
    pub fn life(&self, event: u64) -> SplitMix64 {
        BallLanes::lane(self.life_root, self.base.wrapping_add(event))
    }

    /// The probe-retry lane for event `event`: retry attempt `j` draws
    /// its probe set (and any tie randomness) *sequentially* from this
    /// single per-event lane, so consumption depends only on how many
    /// attempts the event needed — never on other events.
    #[inline]
    #[must_use]
    pub fn retry(&self, event: u64) -> SplitMix64 {
        BallLanes::lane(self.retry_root, self.base.wrapping_add(event))
    }
}

impl LaneSource for EventLanes {
    type Lane = SplitMix64;

    #[inline]
    fn probe(&self, event: u64) -> SplitMix64 {
        self.balls.probe(event)
    }

    #[inline]
    fn tie(&self, event: u64) -> SplitMix64 {
        self.balls.tie(event)
    }

    fn block(&self, first_event: u64) -> Self {
        Self {
            balls: self.balls.block(first_event),
            life_root: self.life_root,
            retry_root: self.retry_root,
            base: self.base.wrapping_add(first_event),
        }
    }
}

// ---------------------------------------------------------------------------
// Simple tabulation hashing (Dahlgaard et al., SODA 2016)
// ---------------------------------------------------------------------------

/// Bytes of the hashed key; one lookup table per byte.
const TAB_BYTES: usize = 8;

/// A simple tabulation hash over 64-bit keys: `h(x) = ⊕ᵢ Tᵢ[byteᵢ(x)]`,
/// eight tables of 256 random words each.
///
/// Simple tabulation is only 3-independent, yet Dahlgaard, Knudsen,
/// Rotenberg & Thorup (SODA 2016) prove the two-choice maximum load
/// survives it — making it the natural "weak hashing" ablation for this
/// reproduction: [`TabulationLanes`] exposes it through the same
/// [`LaneSource`] interface the SplitMix64 lanes use, so the insertion
/// engine runs unmodified on either probe source and the max-load
/// distributions can be compared head-to-head (the `tabulation`
/// experiment in `EXPERIMENTS.md`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TabulationHash {
    tables: Box<[[u64; 256]; TAB_BYTES]>,
}

impl TabulationHash {
    /// Fills the eight tables from `seed` via SplitMix64.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = SplitMix64::new(mix(seed));
        let mut tables = Box::new([[0u64; 256]; TAB_BYTES]);
        for table in tables.iter_mut() {
            for slot in table.iter_mut() {
                *slot = sm.next();
            }
        }
        Self { tables }
    }

    /// Hashes one 64-bit key: XOR of one entry per key byte.
    #[inline]
    #[must_use]
    pub fn hash(&self, x: u64) -> u64 {
        let mut h = 0u64;
        for (i, table) in self.tables.iter().enumerate() {
            h ^= table[((x >> (8 * i)) & 0xFF) as usize];
        }
        h
    }
}

/// Per-ball lanes whose generators are counter-mode tabulation hashing:
/// output `j` of a lane is `h(key + j)` for the lane's key.
///
/// Keys are derived exactly like [`BallLanes`] keys (mixed root ⊕ mixed
/// ball index under the probe/tie tags), so the *keying* is identical
/// and only the per-output mixer differs — isolating the hash-quality
/// question the Dahlgaard et al. comparison asks.
#[derive(Debug, Clone, Copy)]
pub struct TabulationLanes<'a> {
    hash: &'a TabulationHash,
    probe_root: u64,
    tie_root: u64,
    base: u64,
}

impl<'a> TabulationLanes<'a> {
    /// Lanes keyed from `root`, hashing through `hash`.
    #[must_use]
    pub fn new(hash: &'a TabulationHash, root: u64) -> Self {
        Self {
            hash,
            probe_root: mix(root ^ PROBE_TAG),
            tie_root: mix(root ^ TIE_TAG),
            base: 0,
        }
    }
}

impl<'a> LaneSource for TabulationLanes<'a> {
    type Lane = TabulationLane<'a>;

    fn probe(&self, ball: u64) -> TabulationLane<'a> {
        TabulationLane {
            hash: self.hash,
            key: self.probe_root ^ mix(self.base.wrapping_add(ball).wrapping_add(GOLDEN_GAMMA)),
            counter: 0,
        }
    }

    fn tie(&self, ball: u64) -> TabulationLane<'a> {
        TabulationLane {
            hash: self.hash,
            key: self.tie_root ^ mix(self.base.wrapping_add(ball).wrapping_add(GOLDEN_GAMMA)),
            counter: 0,
        }
    }

    fn block(&self, first_ball: u64) -> Self {
        Self {
            base: self.base.wrapping_add(first_ball),
            ..*self
        }
    }
}

/// One counter-mode lane of a [`TabulationHash`] (see
/// [`TabulationLanes`]).
#[derive(Debug, Clone, Copy)]
pub struct TabulationLane<'a> {
    hash: &'a TabulationHash,
    key: u64,
    counter: u64,
}

impl RngCore for TabulationLane<'_> {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let out = self.hash.hash(self.key.wrapping_add(self.counter));
        self.counter = self.counter.wrapping_add(1);
        out
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        fill_bytes_via_u64(self, dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed = 1234567 from the public-domain
        // splitmix64.c (Vigna). First three outputs.
        let mut sm = SplitMix64::new(1234567);
        assert_eq!(sm.next(), 6457827717110365317);
        assert_eq!(sm.next(), 3203168211198807973);
        assert_eq!(sm.next(), 9817491932198370423);
    }

    #[test]
    fn splitmix_zero_seed_is_fine() {
        let mut sm = SplitMix64::new(0);
        let a = sm.next();
        let b = sm.next();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn xoshiro_reference_vector() {
        // Cross-checked against an independent Python implementation of the
        // reference xoshiro256++ seeded by splitmix64(7).
        let mut rng = Xoshiro256pp::from_u64(7);
        assert_eq!(rng.next_u64(), 1021219803524665661);
        assert_eq!(rng.next_u64(), 3174977118032272916);
        assert_eq!(rng.next_u64(), 13236943193235544178);
        assert_eq!(rng.next_u64(), 7880630202246103356);
    }

    #[test]
    fn xoshiro_deterministic_and_distinct_seeds() {
        let mut a1 = Xoshiro256pp::from_u64(7);
        let mut a2 = Xoshiro256pp::from_u64(7);
        let mut b = Xoshiro256pp::from_u64(8);
        let xs1: Vec<u64> = (0..8).map(|_| a1.next_u64()).collect();
        let xs2: Vec<u64> = (0..8).map(|_| a2.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs1, xs2);
        assert_ne!(xs1, ys);
    }

    #[test]
    fn xoshiro_from_seed_round_trips_state_words() {
        let mut seed = [0u8; 32];
        seed[..8].copy_from_slice(&1u64.to_le_bytes());
        seed[8..16].copy_from_slice(&2u64.to_le_bytes());
        seed[16..24].copy_from_slice(&3u64.to_le_bytes());
        seed[24..].copy_from_slice(&4u64.to_le_bytes());
        let rng = Xoshiro256pp::from_seed(seed);
        assert_eq!(rng.s, [1, 2, 3, 4]);
    }

    #[test]
    fn xoshiro_zero_seed_does_not_stick_at_zero() {
        let mut rng = Xoshiro256pp::from_seed([0u8; 32]);
        assert_ne!(rng.next_u64(), rng.next_u64());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = Xoshiro256pp::from_u64(3);
        for _ in 0..10_000 {
            let v: usize = rng.gen_range(0..17);
            assert!(v < 17);
        }
    }

    #[test]
    fn stream_seeder_is_reproducible_and_label_sensitive() {
        let s = StreamSeeder::new(5);
        assert_eq!(s.stream(3).next_u64(), s.stream(3).next_u64());
        assert_ne!(s.stream(3).next_u64(), s.stream(4).next_u64());
        let c1 = s.child("table1");
        let c2 = s.child("table2");
        assert_ne!(c1.stream(0).next_u64(), c2.stream(0).next_u64());
        assert_eq!(
            s.child("table1").stream(0).next_u64(),
            c1.stream(0).next_u64()
        );
    }

    #[test]
    fn sequential_trial_streams_look_independent() {
        // Crude independence check: across 64 consecutive trial indices, the
        // first outputs should have no duplicated values and roughly half
        // the bits set.
        let s = StreamSeeder::new(1);
        let outs: Vec<u64> = (0..64).map(|t| s.stream(t).next_u64()).collect();
        let mut dedup = outs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), outs.len());
        let ones: u32 = outs.iter().map(|x| x.count_ones()).sum();
        let frac = f64::from(ones) / (64.0 * 64.0);
        assert!((frac - 0.5).abs() < 0.05, "bit fraction {frac}");
    }

    #[test]
    fn fill_bytes_handles_non_multiple_of_eight() {
        let mut rng = Xoshiro256pp::from_u64(11);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn lane_reference_vectors_pin_contract_v2() {
        // The v2 lane keying is a *committed distribution contract*: the
        // numbers in results/*.json were produced through these exact
        // streams. Any change to the keying is a new contract version and
        // must regenerate the expectations — these vectors make such a
        // change impossible to miss. (First output of
        // SplitMix64::mixed(root, lane, tag) for pinned inputs, computed
        // once from the definition `mix(mix(root^tag) ^ mix(lane+γ))`.)
        let vector = |root: u64, lane: u64, tag: u64| SplitMix64::mixed(root, lane, tag).next();
        // Self-consistency with the documented definition.
        let manual = |root: u64, lane: u64, tag: u64| {
            SplitMix64::new(mix(mix(root ^ tag) ^ mix(lane.wrapping_add(GOLDEN_GAMMA)))).next()
        };
        for (root, lane) in [(0u64, 0u64), (42, 0), (42, 1), (7, u64::MAX)] {
            assert_eq!(vector(root, lane, PROBE_TAG), manual(root, lane, PROBE_TAG));
            assert_eq!(vector(root, lane, TIE_TAG), manual(root, lane, TIE_TAG));
            assert_eq!(vector(root, lane, FAULT_TAG), manual(root, lane, FAULT_TAG));
            assert_eq!(vector(root, lane, RETRY_TAG), manual(root, lane, RETRY_TAG));
        }
        // Frozen absolute values (independently computed from the
        // definition): recomputed == committed.
        let frozen: [(u64, u64, u64, u64); 4] = [
            (0, 0, PROBE_TAG, 13102172009130172927),
            (42, 1, TIE_TAG, 12934604033053490546),
            (0, 0, FAULT_TAG, 1420821127466699168),
            (42, 1, RETRY_TAG, 1939868151124495579),
        ];
        for (root, lane, tag, value) in frozen {
            assert_eq!(vector(root, lane, tag), value);
        }
        // Domain separation: the four tags give four distinct lanes for
        // the same (root, lane) pair.
        let tags = [PROBE_TAG, TIE_TAG, FAULT_TAG, RETRY_TAG];
        for (i, &a) in tags.iter().enumerate() {
            for &b in &tags[i + 1..] {
                assert_ne!(vector(5, 9, a), vector(5, 9, b));
            }
        }
    }

    #[test]
    fn ball_lanes_match_mixed_and_shift_correctly() {
        let lanes = BallLanes::new(123);
        for ball in [0u64, 1, 63, 64, 1_000_000] {
            assert_eq!(
                lanes.probe(ball).next(),
                SplitMix64::mixed(123, ball, PROBE_TAG).next(),
                "probe lane {ball}"
            );
            assert_eq!(
                lanes.tie(ball).next(),
                SplitMix64::mixed(123, ball, TIE_TAG).next(),
                "tie lane {ball}"
            );
        }
        let block = lanes.block(64).block(3);
        assert_eq!(block.probe(2).next(), lanes.probe(69).next());
        assert_eq!(block.tie(0).next(), lanes.tie(67).next());
    }

    #[test]
    fn event_lanes_extend_ball_lanes_with_lifetime_and_retry_lanes() {
        let lanes = EventLanes::new(321);
        let balls = BallLanes::new(321);
        for event in [0u64, 1, 63, 64, 9999] {
            assert_eq!(lanes.probe(event).next(), balls.probe(event).next());
            assert_eq!(lanes.tie(event).next(), balls.tie(event).next());
            assert_eq!(
                lanes.life(event).next(),
                SplitMix64::mixed(321, event, LIFE_TAG).next(),
                "life lane {event}"
            );
            assert_eq!(
                lanes.retry(event).next(),
                SplitMix64::mixed(321, event, RETRY_TAG).next(),
                "retry lane {event}"
            );
            // The four lanes of one event are mutually distinct streams.
            let outs = [
                lanes.probe(event).next(),
                lanes.tie(event).next(),
                lanes.life(event).next(),
                lanes.retry(event).next(),
            ];
            for (i, &a) in outs.iter().enumerate() {
                for &b in &outs[i + 1..] {
                    assert_ne!(a, b, "lane collision at event {event}");
                }
            }
        }
        // Shifted views address the same lanes, life/retry lanes included.
        let block = lanes.block(64).block(3);
        assert_eq!(block.probe(2).next(), lanes.probe(69).next());
        assert_eq!(block.life(2).next(), lanes.life(69).next());
        assert_eq!(block.retry(2).next(), lanes.retry(69).next());
    }

    #[test]
    fn lanes_are_mutually_decorrelated() {
        // First outputs across many lanes: no duplicates, balanced bits —
        // the same crude independence check the trial streams get.
        let lanes = BallLanes::new(9);
        let mut outs: Vec<u64> = (0..128).map(|b| lanes.probe(b).next()).collect();
        outs.extend((0..128).map(|b| lanes.tie(b).next()));
        let mut dedup = outs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), outs.len());
        let ones: u32 = outs.iter().map(|x| x.count_ones()).sum();
        let frac = f64::from(ones) / (256.0 * 64.0);
        assert!((frac - 0.5).abs() < 0.05, "bit fraction {frac}");
    }

    #[test]
    fn tabulation_hash_is_deterministic_and_seed_sensitive() {
        let a = TabulationHash::from_seed(1);
        let b = TabulationHash::from_seed(1);
        let c = TabulationHash::from_seed(2);
        assert_eq!(a, b);
        for x in [0u64, 1, u64::MAX, 0xDEAD_BEEF] {
            assert_eq!(a.hash(x), b.hash(x));
        }
        assert!((0..64u64).any(|x| a.hash(x) != c.hash(x)));
    }

    #[test]
    fn tabulation_lane_is_counter_mode_and_keyed_like_splitmix_lanes() {
        let hash = TabulationHash::from_seed(3);
        let lanes = TabulationLanes::new(&hash, 77);
        let mut lane = lanes.probe(5);
        let first = lane.next_u64();
        let second = lane.next_u64();
        assert_ne!(first, second);
        // Re-derived lane restarts the counter.
        assert_eq!(lanes.probe(5).next_u64(), first);
        // Distinct balls and domains give distinct streams.
        assert_ne!(lanes.probe(6).next_u64(), first);
        assert_ne!(lanes.tie(5).next_u64(), first);
        // Shifted views address the same lanes.
        assert_eq!(
            lanes.block(4).probe(1).next_u64(),
            lanes.probe(5).next_u64()
        );
    }

    #[test]
    fn tabulation_lane_outputs_are_roughly_uniform() {
        // Counter-mode tabulation over one lane: top-4-bit buckets of 16k
        // outputs stay within ±25% of uniform (binomial s.d. ≈ 3%).
        let hash = TabulationHash::from_seed(8);
        let lanes = TabulationLanes::new(&hash, 1);
        let mut lane = lanes.probe(0);
        let mut buckets = [0u32; 16];
        let total = 16_384;
        for _ in 0..total {
            buckets[(lane.next_u64() >> 60) as usize] += 1;
        }
        for (i, &b) in buckets.iter().enumerate() {
            let frac = f64::from(b) / f64::from(total);
            assert!(
                (frac - 1.0 / 16.0).abs() < 0.25 / 16.0,
                "bucket {i}: {frac}"
            );
        }
    }
}
