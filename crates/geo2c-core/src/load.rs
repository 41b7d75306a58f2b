//! Compact load-state backings for streaming-scale trials.
//!
//! The two-choices bound says max load stays `O(log log n + d)`, so a
//! `u32` per bin wastes most of its bits at any realistic scale. This
//! module abstracts the engine's load vector behind two traits and
//! provides packed backings that exploit the bound:
//!
//! * [`LoadRead`] — the read side a [`crate::strategy::Strategy`] needs
//!   to resolve a probe set (per-bin load, least-loaded-of-`d`).
//! * [`LoadState`] — the mutation side the insertion and serving engines
//!   need (bump, decrement, sentinel overwrite).
//! * [`PackedLoads`] — nibble (2 bins/byte) or byte (1 bin/byte) storage
//!   with a branchless in-line bump and overflow *spill* to a sparse side
//!   table, so the common case is 0.5–1 byte/bin while arbitrary `u32`
//!   values (the serving engine's failed-server sentinel included) still
//!   round-trip exactly.
//!
//! Every backing is pinned placement-identical to the flat `Vec<u32>`
//! reference by the `loadvec_equivalence` proptest suite: same loads,
//! same tie-break draws, same RNG stream (contract v2), byte for byte.

use std::collections::HashMap;

/// The read side of a load vector: what tie-breaking needs.
pub trait LoadRead {
    /// Number of bins tracked.
    fn num_servers(&self) -> usize;

    /// The exact load of `server`.
    fn load(&self, server: usize) -> u32;

    /// `min(load(s) for s in servers)` — the least-loaded-of-`d` scan.
    /// Flat and packed backings override this with a branchless unrolled
    /// / register-wide lane compare; the default loop is the reference.
    ///
    /// Returns `u32::MAX` for an empty slice (the fold identity).
    fn min_load_of(&self, servers: &[usize]) -> u32 {
        let mut min = u32::MAX;
        for &s in servers {
            min = min.min(self.load(s));
        }
        min
    }

    /// A cheap read used only to pull `server`'s cache line into L1
    /// ahead of the resolution pass — the value is discarded, so packed
    /// backings may skip the spill lookup.
    fn warm(&self, server: usize) -> u32 {
        self.load(server)
    }

    /// Overwrites `out` with every bin's load, in bin order, reusing its
    /// storage: a snapshot that can be taken over and over without
    /// allocating. Flat and packed backings override the per-bin loop
    /// with a bulk copy or unpack.
    fn copy_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend((0..self.num_servers()).map(|s| self.load(s)));
    }
}

/// The mutation side of a load vector: what the engines need.
pub trait LoadState: LoadRead {
    /// Adds one ball to `server`, returning the new load.
    fn bump(&mut self, server: usize) -> u32;

    /// Removes one ball from `server` (serving departures), returning
    /// the new load. Decrementing an empty bin is a logic error (panics
    /// in debug builds, like `Vec<u32>` underflow).
    fn dec(&mut self, server: usize) -> u32;

    /// Overwrites `server`'s load with an arbitrary value — the serving
    /// engine pins failed servers at `u32::MAX`, which packed backings
    /// must round-trip exactly (via spill).
    fn set(&mut self, server: usize, value: u32);

    /// The full load image as a flat vector, for cross-backing
    /// comparison and reporting.
    fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::new();
        self.copy_into(&mut out);
        out
    }

    /// Bytes of backing storage attributed to this load vector — the
    /// `bytes/bin` metric is `heap_bytes / num_servers`. Counts the
    /// packed array plus one `(key, value)` record per spill entry;
    /// allocator slack is not modelled.
    fn heap_bytes(&self) -> usize;
}

impl LoadRead for [u32] {
    #[inline]
    fn num_servers(&self) -> usize {
        self.len()
    }

    #[inline]
    fn load(&self, server: usize) -> u32 {
        self[server]
    }

    fn copy_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(self);
    }

    /// Branchless unrolled least-of-`d`: the common probe counts
    /// (`d ≤ 4`) compile to a pure `min` tree — no loop counter, no
    /// loop-carried dependency — and larger sets gather into
    /// `MIN_LANES`-wide blocks that fold pairwise, mirroring the
    /// packed backings' lane compare. The length dispatch is one
    /// perfectly-predicted jump per call (a strategy's `d` never
    /// changes mid-stream).
    #[inline]
    fn min_load_of(&self, servers: &[usize]) -> u32 {
        match *servers {
            [] => u32::MAX,
            [a] => self[a],
            [a, b] => self[a].min(self[b]),
            [a, b, c] => self[a].min(self[b]).min(self[c]),
            [a, b, c, d] => self[a].min(self[b]).min(self[c].min(self[d])),
            _ => {
                let mut min = u32::MAX;
                for chunk in servers.chunks(MIN_LANES) {
                    let mut lanes = [u32::MAX; MIN_LANES];
                    for (lane, &s) in lanes.iter_mut().zip(chunk) {
                        *lane = self[s];
                    }
                    let fold = lanes[0]
                        .min(lanes[1])
                        .min(lanes[2].min(lanes[3]))
                        .min(lanes[4].min(lanes[5]).min(lanes[6].min(lanes[7])));
                    min = min.min(fold);
                }
                min
            }
        }
    }
}

impl LoadState for [u32] {
    #[inline]
    fn bump(&mut self, server: usize) -> u32 {
        self[server] += 1;
        self[server]
    }

    #[inline]
    fn dec(&mut self, server: usize) -> u32 {
        self[server] -= 1;
        self[server]
    }

    #[inline]
    fn set(&mut self, server: usize, value: u32) {
        self[server] = value;
    }

    fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(self)
    }
}

impl<const N: usize> LoadRead for [u32; N] {
    #[inline]
    fn num_servers(&self) -> usize {
        N
    }

    #[inline]
    fn load(&self, server: usize) -> u32 {
        self[server]
    }

    #[inline]
    fn min_load_of(&self, servers: &[usize]) -> u32 {
        self.as_slice().min_load_of(servers)
    }
}

impl LoadRead for Vec<u32> {
    #[inline]
    fn num_servers(&self) -> usize {
        self.len()
    }

    #[inline]
    fn load(&self, server: usize) -> u32 {
        self[server]
    }

    #[inline]
    fn min_load_of(&self, servers: &[usize]) -> u32 {
        self.as_slice().min_load_of(servers)
    }

    fn copy_into(&self, out: &mut Vec<u32>) {
        self.as_slice().copy_into(out);
    }
}

impl LoadState for Vec<u32> {
    #[inline]
    fn bump(&mut self, server: usize) -> u32 {
        self.as_mut_slice().bump(server)
    }

    #[inline]
    fn dec(&mut self, server: usize) -> u32 {
        self.as_mut_slice().dec(server)
    }

    #[inline]
    fn set(&mut self, server: usize, value: u32) {
        self[server] = value;
    }

    fn heap_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<u32>()
    }
}

/// In-line width of one [`PackedLoads`] bin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackedWidth {
    /// Two bins per byte: loads `0..=14` in line, `15` the spill mark.
    Nibble,
    /// One bin per byte: loads `0..=254` in line, `255` the spill mark.
    Byte,
}

impl PackedWidth {
    /// The largest load stored in line; `max_inline + 1` is the spill
    /// sentinel.
    #[must_use]
    pub fn max_inline(self) -> u32 {
        match self {
            PackedWidth::Nibble => 14,
            PackedWidth::Byte => 254,
        }
    }
}

/// Bytes attributed to one spill record: the bin index plus the value.
const SPILL_RECORD_BYTES: usize = std::mem::size_of::<usize>() + std::mem::size_of::<u32>();

/// A packed load vector: 0.5 or 1 byte per bin in line, with loads above
/// the in-line cap *spilled* to a sparse side table.
///
/// The invariant is strict: a bin's raw cell holds its exact load when
/// that load fits in line, and holds the sentinel (with the exact value
/// in `spill`) when it does not. Loads cross back below the cap on
/// [`LoadState::dec`] and are un-spilled, so the side table tracks only
/// the bins currently above the cap — under the two-choices bound,
/// normally none.
///
/// ```
/// use geo2c_core::load::{LoadState, PackedLoads};
///
/// let mut loads = PackedLoads::nibble(4);
/// for _ in 0..20 {
///     loads.bump(2); // saturates the nibble at 14, then spills
/// }
/// assert_eq!(loads.to_vec(), vec![0, 0, 20, 0]);
/// assert_eq!(loads.dec(2), 19);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedLoads {
    raw: Vec<u8>,
    spill: HashMap<usize, u32>,
    n: usize,
    width: PackedWidth,
    /// `width.max_inline()` as the raw-cell type (hot-path compares).
    max_inline: u8,
    /// `max_inline + 1`: the raw-cell value marking a spilled bin.
    sentinel: u8,
}

impl PackedLoads {
    /// An all-zero packed vector of `n` bins at `width`.
    #[must_use]
    pub fn new(n: usize, width: PackedWidth) -> Self {
        let cells = match width {
            PackedWidth::Nibble => n / 2 + n % 2,
            PackedWidth::Byte => n,
        };
        let max_inline = width.max_inline() as u8;
        Self {
            raw: vec![0; cells],
            spill: HashMap::new(),
            n,
            width,
            max_inline,
            sentinel: max_inline + 1,
        }
    }

    /// An all-zero nibble-packed vector (2 bins/byte).
    #[must_use]
    pub fn nibble(n: usize) -> Self {
        Self::new(n, PackedWidth::Nibble)
    }

    /// An all-zero byte-packed vector (1 bin/byte).
    #[must_use]
    pub fn byte(n: usize) -> Self {
        Self::new(n, PackedWidth::Byte)
    }

    /// The in-line width.
    #[must_use]
    pub fn width(&self) -> PackedWidth {
        self.width
    }

    /// Number of bins currently above the in-line cap.
    #[must_use]
    pub fn spilled_bins(&self) -> usize {
        self.spill.len()
    }

    #[inline]
    fn raw_cell(&self, server: usize) -> u8 {
        match self.width {
            PackedWidth::Byte => self.raw[server],
            PackedWidth::Nibble => (self.raw[server >> 1] >> ((server & 1) << 2)) & 0xF,
        }
    }

    #[inline]
    fn set_raw_cell(&mut self, server: usize, value: u8) {
        match self.width {
            PackedWidth::Byte => self.raw[server] = value,
            PackedWidth::Nibble => {
                let shift = ((server & 1) << 2) as u8;
                let cell = &mut self.raw[server >> 1];
                *cell = (*cell & !(0xF << shift)) | (value << shift);
            }
        }
    }

    /// The saturating-overflow arm of [`LoadState::bump`], out of line so
    /// the in-line increment stays branch-predictable.
    #[cold]
    fn bump_spill(&mut self, server: usize, raw: u8) -> u32 {
        if raw == self.max_inline {
            // In-line cap reached: mark the cell and open a spill entry.
            self.set_raw_cell(server, self.sentinel);
            let value = u32::from(self.max_inline) + 1;
            self.spill.insert(server, value);
            value
        } else {
            debug_assert_eq!(raw, self.sentinel);
            let value = self
                .spill
                .get_mut(&server)
                .expect("sentinel cell without spill entry");
            *value += 1;
            *value
        }
    }

    /// The spilled arm of [`LoadState::dec`]: decrement the side-table
    /// value and pull the bin back in line once it fits again.
    #[cold]
    fn dec_spill(&mut self, server: usize) -> u32 {
        let value = {
            let entry = self
                .spill
                .get_mut(&server)
                .expect("sentinel cell without spill entry");
            *entry -= 1;
            *entry
        };
        if value <= u32::from(self.max_inline) {
            self.spill.remove(&server);
            self.set_raw_cell(server, value as u8);
        }
        value
    }

    /// Exact minimum when every raw cell in `servers` is the sentinel.
    #[cold]
    fn min_load_spilled(&self, servers: &[usize]) -> u32 {
        let mut min = u32::MAX;
        for &s in servers {
            min = min.min(self.load(s));
        }
        min
    }
}

/// Lane width of the gathered min-of-`d` compare: eight raw cells fold in
/// registers (the compiler lowers the fixed-size min tree to `pmin`-style
/// branch-free code), covering every `d ≤ 8` probe set in one pass.
const MIN_LANES: usize = 8;

impl LoadRead for PackedLoads {
    #[inline]
    fn num_servers(&self) -> usize {
        self.n
    }

    #[inline]
    fn load(&self, server: usize) -> u32 {
        let raw = self.raw_cell(server);
        if raw < self.sentinel {
            u32::from(raw)
        } else {
            self.spill[&server]
        }
    }

    /// Gathers the raw cells into a fixed-width lane block and folds the
    /// minimum branch-free. Any in-line cell beats every spilled cell
    /// (spilled values exceed the in-line cap by construction), so the
    /// side table is consulted only when *all* candidates have spilled.
    fn min_load_of(&self, servers: &[usize]) -> u32 {
        let mut min_raw = u8::MAX;
        for chunk in servers.chunks(MIN_LANES) {
            let mut lanes = [u8::MAX; MIN_LANES];
            for (lane, &s) in lanes.iter_mut().zip(chunk) {
                *lane = self.raw_cell(s);
            }
            let folded = lanes.iter().fold(u8::MAX, |m, &v| m.min(v));
            min_raw = min_raw.min(folded);
        }
        if min_raw < self.sentinel {
            u32::from(min_raw)
        } else if servers.is_empty() {
            u32::MAX
        } else {
            self.min_load_spilled(servers)
        }
    }

    #[inline]
    fn warm(&self, server: usize) -> u32 {
        u32::from(self.raw_cell(server))
    }

    /// Unpacks the in-line cells in one sweep, then writes each spilled
    /// bin's value over its sentinel.
    fn copy_into(&self, out: &mut Vec<u32>) {
        out.clear();
        match self.width {
            PackedWidth::Byte => out.extend(self.raw.iter().map(|&cell| u32::from(cell))),
            PackedWidth::Nibble => {
                out.resize(2 * self.raw.len(), 0);
                for (pair, &cell) in out.chunks_exact_mut(2).zip(&self.raw) {
                    pair[0] = u32::from(cell & 0xF);
                    pair[1] = u32::from(cell >> 4);
                }
                out.truncate(self.n);
            }
        }
        for (&server, &value) in &self.spill {
            out[server] = value;
        }
    }
}

impl LoadState for PackedLoads {
    #[inline]
    fn bump(&mut self, server: usize) -> u32 {
        let raw = self.raw_cell(server);
        if raw < self.max_inline {
            self.set_raw_cell(server, raw + 1);
            u32::from(raw) + 1
        } else {
            self.bump_spill(server, raw)
        }
    }

    #[inline]
    fn dec(&mut self, server: usize) -> u32 {
        let raw = self.raw_cell(server);
        if raw < self.sentinel {
            self.set_raw_cell(server, raw - 1);
            u32::from(raw) - 1
        } else {
            self.dec_spill(server)
        }
    }

    fn set(&mut self, server: usize, value: u32) {
        if value <= u32::from(self.max_inline) {
            self.spill.remove(&server);
            self.set_raw_cell(server, value as u8);
        } else {
            self.set_raw_cell(server, self.sentinel);
            self.spill.insert(server, value);
        }
    }

    fn heap_bytes(&self) -> usize {
        self.raw.len() + self.spill.len() * SPILL_RECORD_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backings(n: usize) -> Vec<(&'static str, Box<dyn LoadState>)> {
        vec![
            ("flat", Box::new(vec![0u32; n])),
            ("nibble", Box::new(PackedLoads::nibble(n))),
            ("byte", Box::new(PackedLoads::byte(n))),
        ]
    }

    #[test]
    fn copy_into_overwrites_a_reused_buffer_with_every_load() {
        // An odd bin count (a trailing half nibble), spilled bins and the
        // failure sentinel, copied into a buffer that is longer and
        // dirty from an earlier copy.
        let n = 13;
        for (name, mut state) in backings(n) {
            for s in 0..n {
                state.set(s, (s as u32 * 5) % 23);
            }
            state.set(4, u32::MAX);
            let model: Vec<u32> = (0..n).map(|s| state.load(s)).collect();
            let mut out = vec![7; 3 * n];
            state.copy_into(&mut out);
            assert_eq!(out, model, "{name}");
            state.set(4, 1);
            state.copy_into(&mut out);
            assert_eq!(out[4], 1, "{name}: a cleared spill is not copied");
        }
    }

    #[test]
    fn bump_dec_set_round_trip_across_backings() {
        // A scripted mutation sequence, mirrored against a flat model.
        let n = 21; // odd: exercises the trailing nibble half-cell
        for (name, mut state) in backings(n) {
            let mut model = vec![0u32; n];
            assert_eq!(state.num_servers(), n, "{name}");
            for step in 0..2000usize {
                let s = (step * 7 + step / 3) % n;
                match step % 5 {
                    0..=2 => {
                        model[s] += 1;
                        assert_eq!(state.bump(s), model[s], "{name} bump step {step}");
                    }
                    3 if model[s] > 0 => {
                        model[s] -= 1;
                        assert_eq!(state.dec(s), model[s], "{name} dec step {step}");
                    }
                    _ => {
                        let v = (step as u32 * 31) % 40;
                        model[s] = v;
                        state.set(s, v);
                    }
                }
                assert_eq!(state.load(s), model[s], "{name} load step {step}");
            }
            assert_eq!(state.to_vec(), model, "{name} final image");
        }
    }

    #[test]
    fn min_load_of_matches_scalar_reference() {
        let n = 40;
        for (name, mut state) in backings(n) {
            // A spread of loads straddling both in-line caps.
            for s in 0..n {
                state.set(s, (s as u32 * 5) % 23);
            }
            state.set(7, 300); // above both caps: spilled
            state.set(8, 16); // above the nibble cap only
            for probes in [
                &[0usize][..],
                &[7],
                &[7, 8],
                &[3, 7, 8, 15],
                &[9, 9, 9],
                &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], // > MIN_LANES
            ] {
                let want = probes.iter().map(|&s| state.load(s)).min().unwrap();
                assert_eq!(state.min_load_of(probes), want, "{name} {probes:?}");
            }
            assert_eq!(state.min_load_of(&[]), u32::MAX, "{name} empty");
        }
    }

    #[test]
    fn nibble_saturation_spills_and_unspills() {
        let mut loads = PackedLoads::nibble(3);
        for i in 1..=14 {
            assert_eq!(loads.bump(1), i);
            assert_eq!(loads.spilled_bins(), 0, "in line through the cap");
        }
        assert_eq!(loads.bump(1), 15, "first spilled value");
        assert_eq!(loads.spilled_bins(), 1);
        assert_eq!(loads.bump(1), 16);
        assert_eq!(loads.load(1), 16);
        assert_eq!(loads.dec(1), 15);
        assert_eq!(loads.dec(1), 14, "back below the cap");
        assert_eq!(loads.spilled_bins(), 0, "un-spilled");
        assert_eq!(loads.to_vec(), vec![0, 14, 0]);
    }

    #[test]
    fn failed_load_sentinel_round_trips() {
        // The serving engine pins failed servers at u32::MAX; packed
        // backings must reproduce it exactly and lose to any live bin.
        for (name, mut state) in backings(9) {
            state.set(4, u32::MAX);
            state.bump(2);
            assert_eq!(state.load(4), u32::MAX, "{name}");
            assert_eq!(state.min_load_of(&[4, 2]), 1, "{name}");
            assert_eq!(state.min_load_of(&[4, 4]), u32::MAX, "{name}");
            state.set(4, 0);
            assert_eq!(state.load(4), 0, "{name} sentinel cleared");
        }
    }

    #[test]
    fn heap_bytes_reflect_packing() {
        let n = 1 << 12;
        assert_eq!(vec![0u32; n].heap_bytes(), 4 * n);
        assert_eq!(PackedLoads::byte(n).heap_bytes(), n);
        assert_eq!(PackedLoads::nibble(n).heap_bytes(), n / 2);
        // Spill entries are charged.
        let mut spilled = PackedLoads::nibble(n);
        spilled.set(0, 1000);
        assert_eq!(spilled.heap_bytes(), n / 2 + SPILL_RECORD_BYTES);
    }
}
