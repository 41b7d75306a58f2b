//! Departure scheduling: a hierarchical timing wheel and the binary-heap
//! oracle it is proven against.
//!
//! Departure deadlines are arrival-event timestamps — small integers
//! that only ever move forward — so a comparison-based priority queue is
//! overkill: a timing wheel gives O(1) [`DepartureQueue::schedule`],
//! O(due) [`DepartureQueue::drain_due`], and — because every server
//! carries an epoch that a purge bumps — O(1)
//! [`DepartureQueue::purge_server`] where the heap had to rebuild itself
//! wholesale on every fault.
//!
//! Layout: `LEVELS` levels of `SLOTS` buckets each, plus one
//! overflow list. Level `l` holds entries due within `SLOTS^(l+1)`
//! events; an entry's level-`l` slot is bits `10l..10(l+1)` of its
//! deadline. When the clock crosses a `SLOTS^l` boundary the matching
//! level-`l` slot *cascades*: its entries re-file one level down (an
//! entry first filed at level `l` re-files at `d & !(SLOTS^l − 1)`,
//! which is at most `d`, so nothing is ever late), and by the time the
//! clock reaches a deadline its entries all sit in the level-0 slot
//! `deadline mod SLOTS`, where the drain pops them without a single
//! comparison. The slots are wide (1024) so that a typical session —
//! mean lifetime on the order of the server count — re-files **once**
//! on its way down rather than walking a tall tower of narrow levels.
//!
//! Slot lists are singly linked and only ever popped wholesale (drain
//! and cascade take the entire list), which is what makes lazy purging
//! work: [`DepartureQueue::purge_server`] never touches a node. It bumps
//! the server's epoch and zeroes its pending count; entries scheduled
//! under the old epoch become *stale* in place, keep cascading toward
//! their deadline, and are dropped silently when the drain reaches them.
//! Fault handling costs O(1) at the fault, and the hot path pays one
//! epoch compare per drained entry instead of threading every node onto
//! a per-server purge list.
//!
//! The checkpoint image is sorted in two halves. The gather,
//! [`DepartureQueue::gather`], packs each live entry into a `u64` key
//! `(deadline − base) << server_bits | server` of a [`DepartureKeys`];
//! the wheel fills it in one sequential pass over its arena, with its
//! clock as the base. Every filed deadline is at least the clock, so the
//! key orders like `(deadline, server)`.
//!
//! A checkpoint writer gathers in slices instead, while the engine runs
//! on, and gathers only what it lacks. [`DepartureQueue::begin_gather`]
//! only *marks* the queue: the wheel bumps a generation stamp and
//! records its arena length, and [`DepartureQueue::gather_some`] then
//! walks the arena up to that length a bounded share at a time. When
//! the keys still hold the sorted image of the wheel's previous mark,
//! the walk packs only the nodes filed since that mark — the stamp
//! bound `since ≤ stamp < current` — and the rest of the image is merged
//! from the previous one (below). Otherwise `since` is 0 and the walk
//! packs every node filed before the mark. Three hooks keep the walk
//! exact:
//!
//! * **The filed-between test.** Every node carries the stamp that was
//!   current when it was scheduled, in what was the node's padding, so a
//!   node carrying the current stamp was filed after the mark (a fresh
//!   node or a recycled one), and one below `since` is in the previous
//!   image; the walk skips both. When the stamp wraps, every node is
//!   restamped below the new one, and that mark's walk takes `since = 0`.
//! * **The drain-time pre-image.** A node in the walk's stamp range that
//!   the drain releases at or past the walk's cursor saves its
//!   `(deadline, server)` if it was live at the mark, and the next slice
//!   packs it. Without a gather pending the drain runs its plain loop:
//!   the hook is chosen once per slot.
//! * **Epochs at the mark.** A server purged after the mark records its
//!   epoch at the mark (the first purge only), so the walk judges its
//!   nodes live or stale as they were at the mark.
//!
//! From its first mark on, the wheel also records the set of servers
//! purged since the latest mark — a bitset of `n` bits, so at most `n`
//! servers and each once — and hands it to the keys at the next mark. A
//! wheel that is never marked records nothing.
//!
//! The [`HeapQueue`] oracle keeps the trait's default: it gathers whole
//! at the mark, and its slices have nothing left to do.
//!
//! The sort, `DepartureKeys::sort_some`, is an LSD radix sort that cuts
//! the offset bits into balanced digits of at most 11 bits over exactly
//! the bits they use — two passes for lifetimes that average 2^16 events
//! — each a sequential sweep over the keys with no node reads. One
//! arrival per event keeps each shared deadline's run of keys short, so a
//! final compare sweep puts each shared deadline's servers in order. An
//! offset too wide to sit beside the server bits (only a deadline
//! saturated near the end of the clock) goes to a side list, sorted by
//! comparison and visited last, since it orders after every packed key.
//!
//! The merge, `DepartureKeys::merge_some`, finishes an image gathered
//! since the previous mark: one pass over the previous image's sorted
//! keys drops those due before the new base (drained since) and those of
//! the servers purged since the previous mark, rebases the rest, and
//! merges them with the freshly sorted keys into the radix sort's
//! scratch buffer, which then trades places with the previous keys. An
//! image gathered whole takes its sorted keys as they are. An image with
//! far entries is never built on: the next one is gathered whole. Sort
//! and merge are resumable, a bounded share of their sweeps per call, so
//! a checkpoint writer can spread them over several calls.
//! [`DepartureQueue::for_each_sorted`] and [`DepartureQueue::entries`]
//! are the gather, the sort and the merge in one call.
//!
//! Nodes live in a slab arena with an internal free list, so steady
//! state schedule/drain churn allocates nothing. Same-deadline drain
//! order differs from the heap's (LIFO slot lists vs server-number
//! order) — the engine's departures commute within a deadline (each one
//! only decrements its own server's load), which is exactly the
//! heap-order-invariance contract the `wheel_oracle` proptests pin:
//! wheel and heap drain the same multiset per deadline and agree on
//! [`DepartureQueue::for_each_sorted`] bit-for-bit.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// The scheduling interface [`crate::engine::ServeEngine`] is generic
/// over: the production [`DepartureWheel`] and the [`HeapQueue`] oracle
/// implement it, and the `wheel_oracle` property suite drives both
/// through arbitrary schedule/drain/purge interleavings.
pub trait DepartureQueue {
    /// An empty queue for `num_servers` servers whose clock starts at
    /// `now` (a restored checkpoint starts mid-stream).
    #[must_use]
    fn with_origin(num_servers: usize, now: u64) -> Self;

    /// Schedules `server`'s session to depart at event `when`.
    ///
    /// # Panics
    /// May panic if `when` precedes the current clock or `server` is out
    /// of range (the wheel checks both; the heap oracle cannot).
    fn schedule(&mut self, when: u64, server: u32);

    /// Pops every entry with deadline `≤ t`, advancing the clock to
    /// `t + 1`, and calls `f(server)` for each. Entries sharing a
    /// deadline may be delivered in any order (engine departures
    /// commute); deadlines are delivered in order.
    fn drain_due(&mut self, t: u64, f: impl FnMut(u32));

    /// Removes every entry belonging to `server` (its sessions were just
    /// evicted), returning how many were dropped.
    fn purge_server(&mut self, server: u32) -> u64;

    /// Outstanding entries.
    #[must_use]
    fn len(&self) -> usize;

    /// Whether no entries are outstanding.
    #[must_use]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Packs every outstanding entry into `keys` (cleared first, its
    /// buffers reused): the gather half of the sorted image, taken at a
    /// checkpoint boundary.
    fn gather(&self, keys: &mut DepartureKeys);

    /// Marks the outstanding entries for a sliced gather into `keys`:
    /// [`DepartureQueue::gather_some`], then the sort and merge of
    /// `keys`, give exactly the entries outstanding now, however the
    /// queue is scheduled, drained and purged in between. If `keys` holds
    /// the sorted image of this queue's previous mark, the slices may
    /// gather only the entries filed since it and leave the rest to the
    /// merge. Returns the work units the slices will charge in all. The
    /// default gathers whole here and charges nothing.
    fn begin_gather(&mut self, keys: &mut DepartureKeys) -> usize {
        self.gather(keys);
        0
    }

    /// Advances the gather [`DepartureQueue::begin_gather`] marked by
    /// about `budget` work units, taking the units spent off `budget`;
    /// returns whether every marked entry is in `keys`.
    fn gather_some(&mut self, _keys: &mut DepartureKeys, _budget: &mut usize) -> bool {
        true
    }

    /// Calls `f(deadline, server)` for every outstanding entry in
    /// ascending `(deadline, server)` order — the checkpoint image,
    /// identical across implementations: [`DepartureQueue::gather`],
    /// then [`DepartureKeys::sort`].
    fn for_each_sorted(&self, mut f: impl FnMut(u64, u32)) {
        let mut keys = DepartureKeys::default();
        self.gather(&mut keys);
        keys.sort();
        for (when, server) in keys.sorted_from(0) {
            f(when, server);
        }
    }

    /// Every outstanding `(deadline, server)` pair, sorted: the
    /// [`DepartureQueue::for_each_sorted`] image, collected.
    #[must_use]
    fn entries(&self) -> Vec<(u64, u32)> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each_sorted(|when, server| out.push((when, server)));
        out
    }
}

/// Null link in the wheel's intrusive lists.
const NONE: u32 = u32::MAX;
/// log2 of the slots per level.
const SLOT_BITS: u32 = 10;
/// Buckets per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Bucketed levels; level `l` spans deadline deltas below `SLOTS^(l+1)`.
const LEVELS: usize = 2;
/// Flat index of the overflow list (deltas of `SLOTS^LEVELS` and beyond).
const OVERFLOW: usize = LEVELS * SLOTS;
/// Events covered by the bucketed levels combined: `SLOTS^LEVELS`.
const WHEEL_SPAN: u64 = 1 << (SLOT_BITS * LEVELS as u32);

/// One scheduled departure on a singly-linked slot list. Free nodes are
/// chained through `next` and marked by `server == NONE`. The `epoch`
/// snapshots the server's epoch at schedule time; a mismatch at drain
/// means the server was purged in between and the entry is stale. The
/// `stamp` is the wheel's mark generation at schedule time: a node
/// carrying the current one was filed after the latest gather mark.
#[derive(Debug, Clone, Copy)]
struct Node {
    deadline: u64,
    server: u32,
    epoch: u32,
    next: u32,
    stamp: u32,
}

// The stamp sits in what was padding: the arena's footprint is fixed.
const _: () = assert!(std::mem::size_of::<Node>() == 24);

/// Work units [`DepartureQueue::gather_some`] charges per arena node a
/// whole gather's walk visits: a node read, an epoch read at a random
/// server and a key push, about four times a radix count (measured on a
/// 2-vCPU Xeon at 2^16 servers).
const GATHER_COST: usize = 4;

/// Work units [`DepartureQueue::gather_some`] charges per arena node a
/// walk bounded by `since` visits: mostly a sequential node read and a
/// stamp compare, since only the few nodes filed since the previous mark
/// are packed (about 2.1–3.0 ns a node where one node in sixteen is, on
/// a 2-vCPU Xeon at 2^16 servers).
const WALK_COST: usize = 2;

/// Per-server purge state: the current epoch and how many live (current
/// epoch) entries the server has filed in the wheel.
#[derive(Debug, Clone, Copy, Default)]
struct ServerMeta {
    epoch: u32,
    pending: u32,
}

/// The hierarchical timing wheel. See the module docs for the layout,
/// the cascade invariant, and the lazy-purge epoch scheme.
#[derive(Debug, Clone)]
pub struct DepartureWheel {
    /// Slab arena; nodes are recycled through an internal free list.
    nodes: Vec<Node>,
    /// Head of the free list (chained through `next`).
    free: u32,
    /// List heads: `level * SLOTS + slot`, then the overflow at the end.
    slots: Vec<u32>,
    /// Per-server epoch + live pending count.
    meta: Vec<ServerMeta>,
    /// The next event the wheel will drain.
    now: u64,
    /// Live (non-stale) entries — what [`DepartureQueue::len`] reports.
    live: usize,
    /// Nodes filed in some slot, stale ones included. Guards the
    /// empty-wheel clock jump: stale nodes still need to be walked to
    /// (and released at) their deadlines.
    filed: usize,
    /// Generation of the latest gather mark; every node filed since
    /// carries it, and no node filed before does.
    stamp: u32,
    /// The sliced gather in progress, if any.
    walk: Walk,
    /// Bit `s` is set if server `s` was purged since the latest mark;
    /// empty until the first mark, so an unmarked wheel records nothing.
    purged: Vec<u64>,
}

/// A sliced gather's progress: the arena walk over the nodes that
/// existed at the mark, the pre-images the drain saved ahead of it, and
/// the epochs at the mark of the servers purged since.
#[derive(Debug, Clone, Default)]
struct Walk {
    /// The next arena index the walk visits; nodes before it are done.
    at: u32,
    /// The arena length at the mark; 0 when no gather is pending.
    end: u32,
    /// The lowest stamp the walk packs: nodes filed before the previous
    /// mark are in the previous image (0 when gathering whole).
    since: u32,
    /// `(deadline, server)` of entries live at the mark that the drain
    /// released before the walk reached them.
    drained: Vec<(u64, u32)>,
    /// Servers purged since the mark, and their epochs at the mark.
    purged: HashMap<u32, u32>,
}

impl DepartureWheel {
    /// The flat slot a deadline files under, given the current clock.
    #[inline]
    fn home_for(&self, when: u64) -> usize {
        let delta = when - self.now;
        let mut level = 0;
        while level < LEVELS && delta >= 1 << (SLOT_BITS * (level as u32 + 1)) {
            level += 1;
        }
        if level == LEVELS {
            OVERFLOW
        } else {
            level * SLOTS + ((when >> (SLOT_BITS * level as u32)) as usize & (SLOTS - 1))
        }
    }

    /// Pops a node off the free list (or grows the arena).
    #[inline]
    fn alloc(&mut self, deadline: u64, server: u32, epoch: u32) -> u32 {
        if self.free == NONE {
            let idx = self.nodes.len() as u32;
            self.nodes.push(Node {
                deadline,
                server,
                epoch,
                next: NONE,
                stamp: self.stamp,
            });
            idx
        } else {
            let idx = self.free;
            let node = &mut self.nodes[idx as usize];
            self.free = node.next;
            node.deadline = deadline;
            node.server = server;
            node.epoch = epoch;
            node.stamp = self.stamp;
            idx
        }
    }

    /// Returns a node to the free list.
    #[inline]
    fn release(&mut self, idx: u32) {
        let node = &mut self.nodes[idx as usize];
        node.server = NONE;
        node.next = self.free;
        self.free = idx;
    }

    /// Pushes `idx` onto the front of slot `home`.
    #[inline]
    fn link_slot(&mut self, idx: u32, home: usize) {
        self.nodes[idx as usize].next = self.slots[home];
        self.slots[home] = idx;
    }

    /// Re-files every entry of `home` against the current clock — one
    /// level down, or into level 0 once its window is the active one.
    #[inline]
    fn cascade(&mut self, home: usize) {
        let mut idx = self.slots[home];
        self.slots[home] = NONE;
        while idx != NONE {
            let next = self.nodes[idx as usize].next;
            let new_home = self.home_for(self.nodes[idx as usize].deadline);
            self.link_slot(idx, new_home);
            idx = next;
        }
    }

    /// Whether the pending walk packs `node` if it was live at the mark:
    /// it was filed after the previous image's mark (`since`) and before
    /// this one.
    #[inline]
    fn in_walk(&self, node: &Node) -> bool {
        (self.walk.since..self.stamp).contains(&node.stamp)
    }

    /// Units the walk charges per node it visits.
    fn walk_cost(&self) -> usize {
        if self.walk.since == 0 {
            GATHER_COST
        } else {
            WALK_COST
        }
    }

    /// Whether `node`, filed before the gather mark, was live at the
    /// mark: its epoch is its server's epoch then — the current one,
    /// unless the server was purged since.
    #[inline]
    fn live_at_mark(&self, node: &Node) -> bool {
        node.epoch == self.meta[node.server as usize].epoch
            || self.walk.purged.get(&node.server) == Some(&node.epoch)
    }

    /// Pops the level-0 slot `home`, whose entries are all due at `cur`:
    /// releases every node and calls `f` for the live ones. With `WALK` (a
    /// gather pending), a node the walk has yet to visit first saves its
    /// pre-image if the gather must see it.
    #[inline]
    fn drain_slot<const WALK: bool>(&mut self, home: usize, cur: u64, f: &mut impl FnMut(u32)) {
        let mut idx = self.slots[home];
        self.slots[home] = NONE;
        while idx != NONE {
            let node = self.nodes[idx as usize];
            debug_assert_eq!(node.deadline, cur);
            if WALK && idx >= self.walk.at && self.in_walk(&node) && self.live_at_mark(&node) {
                self.walk.drained.push((node.deadline, node.server));
            }
            self.release(idx);
            self.filed -= 1;
            let meta = &mut self.meta[node.server as usize];
            // Epoch mismatch: the server was purged after this entry was
            // scheduled — drop it silently.
            if node.epoch == meta.epoch {
                meta.pending -= 1;
                self.live -= 1;
                f(node.server);
            }
            idx = node.next;
        }
    }
}

impl DepartureQueue for DepartureWheel {
    fn with_origin(num_servers: usize, now: u64) -> Self {
        Self {
            nodes: Vec::new(),
            free: NONE,
            slots: vec![NONE; OVERFLOW + 1],
            meta: vec![ServerMeta::default(); num_servers],
            now,
            live: 0,
            filed: 0,
            stamp: 0,
            walk: Walk::default(),
            purged: Vec::new(),
        }
    }

    #[inline]
    fn schedule(&mut self, when: u64, server: u32) {
        assert!(when >= self.now, "departure scheduled in the past");
        let meta = &mut self.meta[server as usize];
        meta.pending += 1;
        let epoch = meta.epoch;
        let idx = self.alloc(when, server, epoch);
        let home = self.home_for(when);
        self.link_slot(idx, home);
        self.live += 1;
        self.filed += 1;
    }

    #[inline]
    fn drain_due(&mut self, t: u64, mut f: impl FnMut(u32)) {
        while self.now <= t {
            if self.filed == 0 {
                // Nothing filed anywhere (stale included): jump the clock.
                self.now = t + 1;
                return;
            }
            let cur = self.now;
            // Cascade every level whose window begins at `cur`, highest
            // first, so re-filed entries settle through lower levels (or
            // into level 0) in this same pass.
            if cur & (SLOTS as u64 - 1) == 0 {
                if cur % WHEEL_SPAN == 0 {
                    self.cascade(OVERFLOW);
                }
                for level in (1..LEVELS).rev() {
                    let span = 1u64 << (SLOT_BITS * level as u32);
                    if cur & (span - 1) == 0 {
                        let slot = (cur >> (SLOT_BITS * level as u32)) as usize & (SLOTS - 1);
                        self.cascade(level * SLOTS + slot);
                    }
                }
            }
            // Level-0 slot `cur mod SLOTS` now holds exactly the entries
            // due at `cur`. The walk's hook is chosen once per slot, so
            // the drain without a gather pending is the plain loop.
            let home = cur as usize & (SLOTS - 1);
            if self.walk.end == 0 {
                self.drain_slot::<false>(home, cur, &mut f);
            } else {
                self.drain_slot::<true>(home, cur, &mut f);
            }
            self.now = cur + 1;
        }
    }

    fn purge_server(&mut self, server: u32) -> u64 {
        let meta = &mut self.meta[server as usize];
        if self.walk.end > 0 {
            // The walk judges this server's nodes by its epoch at the mark.
            self.walk.purged.entry(server).or_insert(meta.epoch);
        }
        if let Some(word) = self.purged.get_mut(server as usize / 64) {
            *word |= 1 << (server % 64);
        }
        let purged = u64::from(meta.pending);
        meta.pending = 0;
        meta.epoch = meta.epoch.wrapping_add(1);
        self.live -= purged as usize;
        purged
    }

    #[inline]
    fn len(&self) -> usize {
        self.live
    }

    fn gather(&self, keys: &mut DepartureKeys) {
        // One sequential arena pass; the clock is at most every filed
        // deadline, so it is the base the offsets count from.
        keys.begin(self.now, self.meta.len(), self.live);
        for node in &self.nodes {
            if node.server == NONE || node.epoch != self.meta[node.server as usize].epoch {
                continue;
            }
            keys.push(node.deadline, node.server);
        }
    }

    fn begin_gather(&mut self, keys: &mut DepartureKeys) -> usize {
        debug_assert_eq!(self.walk.end, 0, "a gather is already pending");
        let previous = self.stamp;
        self.stamp = previous.wrapping_add(1);
        // Nodes filed before the previous mark are in `keys`' image of
        // it, unless the generation wraps now: then every node is
        // restamped below the new one, and the image is gathered whole.
        let since = if self.stamp == 0 {
            for node in &mut self.nodes {
                node.stamp = 0;
            }
            self.stamp = 1;
            0
        } else if keys.holds_mark(previous) {
            previous
        } else {
            0
        };
        let n = self.meta.len();
        if since == 0 {
            keys.begin_marked(self.now, n, self.live, self.stamp, None);
        } else {
            keys.begin_marked(self.now, n, 0, self.stamp, Some(&mut self.purged));
        }
        // Record the purges from this mark on, into a cleared set.
        self.purged.clear();
        self.purged.resize(ceil_div(n, 64), 0);
        self.walk.at = 0;
        self.walk.end = self.nodes.len() as u32;
        self.walk.since = since;
        self.nodes.len() * self.walk_cost()
    }

    fn gather_some(&mut self, keys: &mut DepartureKeys, budget: &mut usize) -> bool {
        for (when, server) in self.walk.drained.drain(..) {
            keys.push(when, server);
        }
        let (at, end) = (self.walk.at as usize, self.walk.end as usize);
        let cost = self.walk_cost();
        let stop = end.min(at.saturating_add(ceil_div(*budget, cost)));
        for node in &self.nodes[at..stop] {
            if self.in_walk(node) && node.server != NONE && self.live_at_mark(node) {
                keys.push(node.deadline, node.server);
            }
        }
        *budget = budget.saturating_sub((stop - at) * cost);
        if stop < end {
            self.walk.at = stop as u32;
            return false;
        }
        self.walk.at = 0;
        self.walk.end = 0;
        self.walk.purged.clear();
        true
    }
}

/// The live entries of a [`DepartureQueue`] packed as sort keys, and the
/// sort that puts them in `(deadline, server)` order: filled by
/// [`DepartureQueue::gather`] (or in slices, by
/// [`DepartureQueue::gather_some`]), sorted and merged whole by
/// [`DepartureKeys::sort`] or a bounded share at a time by
/// `DepartureKeys::sort_some` and `DepartureKeys::merge_some`, then read
/// by [`DepartureKeys::sorted_from`]. Its buffers are kept across
/// gathers, so a writer that gathers at every checkpoint allocates only
/// while the queue grows, and its sorted keys are the previous image a
/// [`DepartureWheel`]'s next marked gather builds on.
#[derive(Debug, Default)]
pub struct DepartureKeys {
    /// The clock the packed offsets count from: at most every deadline.
    base: u64,
    /// Bits the server number takes at the bottom of a key.
    server_bits: u32,
    /// `(deadline − base) << server_bits | server`, one per gathered
    /// entry: every entry, or only those filed since the previous mark.
    keys: Vec<u64>,
    /// Entries whose offset is too wide to pack beside the server bits.
    far: Vec<(u64, u32)>,
    /// OR of every key: the offset bits the radix passes must cover.
    span: u64,
    /// The radix passes' second buffer, and the merge's output.
    scratch: Vec<u64>,
    /// Digit counts, then bucket starts, of the radix pass in progress.
    starts: Vec<usize>,
    /// How far the sort and merge have come.
    step: SortStep,
    /// The image's packed keys in order: the previous image's (counting
    /// from `sorted_base`) until the merge, then this image's.
    sorted: Vec<u64>,
    /// The base the keys of `sorted` count from.
    sorted_base: u64,
    /// Whether the merge builds on the previous image in `sorted`: the
    /// gather took only the entries filed since its mark.
    incremental: bool,
    /// Bit `s` is set if server `s` was purged since the previous mark:
    /// the merge drops its keys from the previous image.
    purged: Vec<u64>,
    /// The wheel mark this image is taken at (0 for none).
    mark: u32,
}

/// The sort's progress through its sweeps over the keys.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum SortStep {
    /// Counting radix pass `pass`'s digits; keys before `at` are counted.
    Count { pass: u32, at: usize },
    /// Scattering by pass `pass`'s digit; keys before `at` are moved.
    Scatter { pass: u32, at: usize },
    /// Ordering the servers of shared offsets; keys before `at` are in
    /// their final order.
    Shared { at: usize },
    /// Merging the previous image's keys from `at` on with the gathered
    /// keys from `fresh` on; the merged keys so far are in `scratch`.
    Merge { at: usize, fresh: usize },
    /// Sorted and merged (or never gathered).
    #[default]
    Done,
}

impl DepartureKeys {
    /// Clears the keys for a gather of about `entries` entries on
    /// `num_servers` servers whose deadlines are all at least `base`.
    pub fn begin(&mut self, base: u64, num_servers: usize, entries: usize) {
        self.begin_marked(base, num_servers, entries, 0, None);
    }

    /// [`DepartureKeys::begin`] for an image taken at wheel mark `mark`.
    /// With `purged` — the servers purged since the previous mark, which
    /// this takes in exchange for a spent set — the gather holds only the
    /// entries filed since the previous image, and the merge adds what
    /// remains of that image.
    pub(crate) fn begin_marked(
        &mut self,
        base: u64,
        num_servers: usize,
        entries: usize,
        mark: u32,
        purged: Option<&mut Vec<u64>>,
    ) {
        self.incremental = purged.is_some();
        match purged {
            Some(purged) => std::mem::swap(&mut self.purged, purged),
            // A whole gather needs nothing of the previous image: it
            // gathers into that image's buffer, so that the keys hold two
            // buffers of the image's size, not three.
            None => std::mem::swap(&mut self.keys, &mut self.sorted),
        }
        self.base = base;
        self.server_bits = bit_len(num_servers.saturating_sub(1) as u64);
        self.keys.clear();
        self.keys.reserve(entries);
        self.far.clear();
        self.span = 0;
        self.step = SortStep::Count { pass: 0, at: 0 };
        self.mark = mark;
    }

    /// Whether the keys hold the finished image of wheel mark `mark`,
    /// all packed, which the next marked gather can build on.
    pub(crate) fn holds_mark(&self, mark: u32) -> bool {
        mark != 0 && self.mark == mark && self.step == SortStep::Done && self.far.is_empty()
    }

    /// Adds the entry `(deadline, server)`.
    ///
    /// # Panics
    /// May panic (in debug builds) if `deadline` is below the base.
    #[inline]
    pub fn push(&mut self, deadline: u64, server: u32) {
        let offset = deadline - self.base;
        if offset <= u64::MAX >> self.server_bits {
            let key = offset << self.server_bits | u64::from(server);
            self.keys.push(key);
            self.span |= key;
        } else {
            self.far.push((deadline, server));
        }
    }

    /// Entries in the image, once merged.
    pub(crate) fn len(&self) -> usize {
        debug_assert_eq!(self.step, SortStep::Done, "departure keys not merged");
        self.sorted.len() + self.far.len()
    }

    /// Work units `DepartureKeys::sort_some` and
    /// `DepartureKeys::merge_some` are estimated to take for an image of
    /// `entries` entries, at most `fresh` of them filed since the
    /// previous mark: the sort of the gathered keys at two radix passes,
    /// and the merge's pass over the image if it builds on the previous
    /// one. An estimate for pacing, not a bound.
    pub(crate) fn sort_units(&self, entries: usize, fresh: usize) -> usize {
        let per_key = 2 * (1 + SCATTER_COST) + SHARED_COST;
        if self.incremental {
            per_key * fresh.min(entries) + MERGE_COST * entries
        } else {
            per_key * entries
        }
    }

    /// Sorts and merges the gathered entries (what remains of it, if
    /// `DepartureKeys::sort_some` began it), so that
    /// [`DepartureKeys::sorted_from`] reads the image.
    pub fn sort(&mut self) {
        let mut unbounded = usize::MAX;
        let done = self.sort_some(&mut unbounded) && self.merge_some(&mut unbounded);
        debug_assert!(done);
    }

    /// Advances the sort by about `budget` work units and takes the
    /// units spent off `budget`; returns whether the sort is complete and
    /// the merge may begin. A radix pass counts every key's digit (one
    /// unit a key), then scatters every key ([`SCATTER_COST`] units a
    /// key); the shared-offset sweep takes [`SHARED_COST`] units a key. A
    /// run of keys sharing an offset is sorted whole, so a call may
    /// overrun its budget by the run's cost.
    pub(crate) fn sort_some(&mut self, budget: &mut usize) -> bool {
        let len = self.keys.len();
        let (passes, width) = radix_plan(bit_len(self.span >> self.server_bits));
        loop {
            match self.step {
                SortStep::Merge { .. } | SortStep::Done => return true,
                _ if *budget == 0 => return false,
                SortStep::Count { pass, .. } if pass == passes => {
                    self.step = SortStep::Shared { at: 1 };
                }
                SortStep::Count { pass, at } => {
                    let (shift, mask) = (self.server_bits + pass * width, (1u64 << width) - 1);
                    let digit = |key: u64| ((key >> shift) & mask) as usize;
                    if at == 0 {
                        self.starts.clear();
                        self.starts.resize(1 << width, 0);
                    }
                    let end = len.min(at.saturating_add(*budget));
                    for &key in &self.keys[at..end] {
                        self.starts[digit(key)] += 1;
                    }
                    *budget -= end - at;
                    self.step = if end < len {
                        SortStep::Count { pass, at: end }
                    } else if len == 0 || self.starts[digit(self.keys[0])] == len {
                        // A digit every key shares would move nothing.
                        SortStep::Count {
                            pass: pass + 1,
                            at: 0,
                        }
                    } else {
                        let mut next = 0;
                        for start in &mut self.starts {
                            let count = *start;
                            *start = next;
                            next += count;
                        }
                        self.scratch.resize(len, 0);
                        SortStep::Scatter { pass, at: 0 }
                    };
                }
                SortStep::Scatter { pass, at } => {
                    let (shift, mask) = (self.server_bits + pass * width, (1u64 << width) - 1);
                    let end = len.min(at.saturating_add(ceil_div(*budget, SCATTER_COST)));
                    for &key in &self.keys[at..end] {
                        let d = ((key >> shift) & mask) as usize;
                        self.scratch[self.starts[d]] = key;
                        self.starts[d] += 1;
                    }
                    *budget = budget.saturating_sub((end - at) * SCATTER_COST);
                    self.step = if end < len {
                        SortStep::Scatter { pass, at: end }
                    } else {
                        std::mem::swap(&mut self.keys, &mut self.scratch);
                        SortStep::Count {
                            pass: pass + 1,
                            at: 0,
                        }
                    };
                }
                SortStep::Shared { at } => {
                    let limit = at.saturating_add(ceil_div(*budget, SHARED_COST));
                    let end = sort_shared_offsets(&mut self.keys, self.server_bits, at, limit);
                    *budget = budget.saturating_sub((end - at) * SHARED_COST);
                    if end < len {
                        self.step = SortStep::Shared { at: end };
                    } else {
                        // A far offset exceeds every packed one.
                        self.far.sort_unstable();
                        self.begin_merge();
                    }
                }
            }
        }
    }

    /// Starts the merge once the gathered keys are sorted. An image
    /// gathered whole takes them as its sorted keys; one gathered since
    /// the previous mark skips the previous image's keys due before the
    /// new base — a prefix, as they are sorted — and merges the rest.
    fn begin_merge(&mut self) {
        if !self.incremental {
            std::mem::swap(&mut self.sorted, &mut self.keys);
            self.sorted_base = self.base;
            self.step = SortStep::Done;
            return;
        }
        let drained = match self.rebase() {
            Some(cut) => self.sorted.partition_point(|&key| key < cut),
            None => self.sorted.len(),
        };
        self.scratch.clear();
        self.scratch
            .reserve(self.sorted.len() - drained + self.keys.len());
        self.step = SortStep::Merge {
            at: drained,
            fresh: 0,
        };
    }

    /// What a previous image's key loses when rebased to this image's
    /// base: its offset's shift, in place above the server bits. `None`
    /// if the shift is wider than any packed offset, so that every key
    /// of the previous image is due before the new base.
    fn rebase(&self) -> Option<u64> {
        let shift = self.base - self.sorted_base;
        (shift <= u64::MAX >> self.server_bits).then(|| shift << self.server_bits)
    }

    /// Advances the merge by about `budget` work units, [`MERGE_COST`]
    /// a key it visits, and takes the units spent off `budget`; returns
    /// whether the image is complete.
    pub(crate) fn merge_some(&mut self, budget: &mut usize) -> bool {
        let SortStep::Merge { mut at, mut fresh } = self.step else {
            return self.step == SortStep::Done;
        };
        if *budget == 0 {
            return false;
        }
        let cut = self.rebase().unwrap_or(0);
        let mask = (1u64 << self.server_bits) - 1;
        let limit = ceil_div(*budget, MERGE_COST);
        let (previous, gathered) = (&self.sorted, &self.keys);
        let mut steps = 0;
        while steps < limit && at < previous.len() {
            let key = previous[at] - cut;
            match gathered.get(fresh) {
                Some(&next) if next < key => {
                    self.scratch.push(next);
                    fresh += 1;
                }
                _ => {
                    let server = (key & mask) as usize;
                    if self.purged[server / 64] >> (server % 64) & 1 == 0 {
                        self.scratch.push(key);
                    }
                    at += 1;
                }
            }
            steps += 1;
        }
        if at == previous.len() {
            let end = gathered.len().min(fresh + (limit - steps));
            self.scratch.extend_from_slice(&gathered[fresh..end]);
            steps += end - fresh;
            fresh = end;
        }
        *budget = budget.saturating_sub(steps * MERGE_COST);
        if at < previous.len() || fresh < gathered.len() {
            self.step = SortStep::Merge { at, fresh };
            return false;
        }
        std::mem::swap(&mut self.sorted, &mut self.scratch);
        self.sorted_base = self.base;
        self.step = SortStep::Done;
        true
    }

    /// The image's entries from position `at` on, in ascending
    /// `(deadline, server)` order.
    ///
    /// # Panics
    /// In debug builds, if the sort or merge is not complete.
    pub fn sorted_from(&self, at: usize) -> impl Iterator<Item = (u64, u32)> + '_ {
        let (packed, far) = self.image();
        let (base, bits) = (self.base, self.server_bits);
        let mask = (1u64 << bits) - 1;
        packed[at.min(packed.len())..]
            .iter()
            .map(move |&key| (base + (key >> bits), (key & mask) as u32))
            .chain(
                far[at.saturating_sub(packed.len()).min(far.len())..]
                    .iter()
                    .copied(),
            )
    }

    /// The image: its packed keys in order, counting from
    /// `DepartureKeys::base` above `DepartureKeys::server_bits` server
    /// bits, then its far entries in order.
    ///
    /// # Panics
    /// In debug builds, if the sort or merge is not complete.
    pub(crate) fn image(&self) -> (&[u64], &[(u64, u32)]) {
        debug_assert_eq!(self.step, SortStep::Done, "departure keys not sorted");
        (&self.sorted, &self.far)
    }

    /// The deadline the packed keys' offsets count from.
    pub(crate) fn base(&self) -> u64 {
        self.base
    }

    /// The bits below a packed key's offset that hold its server.
    pub(crate) fn server_bits(&self) -> u32 {
        self.server_bits
    }
}

/// Widest digit of the [`DepartureKeys`] radix sort: 2^11 bucket
/// counters stay cache-resident.
const RADIX_BITS: u32 = 11;

/// Work units `DepartureKeys::sort_some` charges per key scattered: a
/// scatter writes each key to one of up to 2^11 places, and the first
/// pass, whose digits are uniform, writes to all of them at once — about
/// three times the time of counting a digit over the two passes
/// (measured on a 2-vCPU Xeon at 2^16 keys).
const SCATTER_COST: usize = 3;

/// Work units `DepartureKeys::sort_some` charges per key of the
/// shared-offset sweep: a compare with its predecessor, and the sort of
/// the runs a shared deadline makes, which are common at the front of
/// the image where about one session departs per event.
const SHARED_COST: usize = 3;

/// Work units `DepartureKeys::merge_some` charges per key it visits: a
/// read of the previous image's key and of the freshly sorted one, a
/// compare, a look-up in the purged bitset and a sequential write (about
/// 3.3–4.5 ns a key on a 2-vCPU Xeon at 2^16 keys).
const MERGE_COST: usize = 3;

/// `⌈a / b⌉` without overflow (`div_ceil` is newer than the MSRV).
pub(crate) fn ceil_div(a: usize, b: usize) -> usize {
    a / b + usize::from(a % b != 0)
}

/// Bits needed to write `x` (0 for 0).
fn bit_len(x: u64) -> u32 {
    u64::BITS - x.leading_zeros()
}

/// `(passes, width)`: the fewest balanced digits of at most
/// [`RADIX_BITS`] covering a `bits`-bit field; pass `p` sorts by bits
/// `p·width ..` of it, least significant first.
fn radix_plan(bits: u32) -> (u32, u32) {
    // (a + b - 1) / b: `div_ceil` is newer than the MSRV.
    let passes = (bits + RADIX_BITS - 1) / RADIX_BITS;
    let divisor = passes.max(1);
    (passes, (bits + divisor - 1) / divisor)
}

/// Finishes a sort of `keys` that so far orders only their offsets (the
/// bits above `server_bits`): each run of keys sharing an offset is put
/// in server order, sweeping on from `i` (keys before it are final)
/// until at least `limit`. Returns where the sweep stopped — `keys.len()`
/// or more once it is through. Only a run holding an out-of-order pair
/// is touched, and each such run is sorted once, so a sweep over
/// distinct deadlines costs one compare per key and a run of any length
/// stays `O(r log r)`.
fn sort_shared_offsets(keys: &mut [u64], server_bits: u32, mut i: usize, limit: usize) -> usize {
    let limit = limit.min(keys.len());
    while i < limit {
        if keys[i] >= keys[i - 1] {
            i += 1;
            continue;
        }
        let offset = keys[i] >> server_bits;
        let shared = |key: &u64| key >> server_bits == offset;
        let start = keys[..i]
            .iter()
            .rposition(|k| !shared(k))
            .map_or(0, |p| p + 1);
        let end = keys[i..]
            .iter()
            .position(|k| !shared(k))
            .map_or(keys.len(), |p| i + p);
        keys[start..end].sort_unstable();
        i = end;
    }
    i
}

/// The binary-heap scheduler the wheel replaced, kept as the proptest
/// oracle: same [`DepartureQueue`] contract, with `purge_server` doing
/// the original O(len) filter-and-rebuild.
#[derive(Debug, Clone, Default)]
pub struct HeapQueue {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl DepartureQueue for HeapQueue {
    fn with_origin(_num_servers: usize, _now: u64) -> Self {
        Self::default()
    }

    fn schedule(&mut self, when: u64, server: u32) {
        self.heap.push(Reverse((when, server)));
    }

    fn drain_due(&mut self, t: u64, mut f: impl FnMut(u32)) {
        while let Some(&Reverse((when, server))) = self.heap.peek() {
            if when > t {
                break;
            }
            self.heap.pop();
            f(server);
        }
    }

    fn purge_server(&mut self, server: u32) -> u64 {
        let before = self.heap.len();
        if self.heap.iter().any(|&Reverse((_, s))| s == server) {
            let kept: Vec<_> = std::mem::take(&mut self.heap)
                .into_iter()
                .filter(|&Reverse((_, s))| s != server)
                .collect();
            self.heap = kept.into();
        }
        (before - self.heap.len()) as u64
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn gather(&self, keys: &mut DepartureKeys) {
        // The earliest deadline is a base no entry precedes.
        let base = self.heap.peek().map_or(0, |&Reverse((when, _))| when);
        let servers = self
            .heap
            .iter()
            .map(|&Reverse((_, server))| server as usize + 1)
            .max()
            .unwrap_or(0);
        keys.begin(base, servers, self.heap.len());
        for &Reverse((when, server)) in self.heap.iter() {
            keys.push(when, server);
        }
    }

    /// A plain comparison sort of the heap's pairs, kept independent of
    /// [`DepartureKeys`] so the oracle checks the wheel's sort too.
    fn for_each_sorted(&self, mut f: impl FnMut(u64, u32)) {
        let mut out: Vec<(u64, u32)> = self.heap.iter().map(|&Reverse(pair)| pair).collect();
        out.sort_unstable();
        for (when, server) in out {
            f(when, server);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains `[queue.now, t]`, returning the drained servers sorted.
    fn drain_sorted<Q: DepartureQueue>(queue: &mut Q, t: u64) -> Vec<u32> {
        let mut out = Vec::new();
        queue.drain_due(t, |s| out.push(s));
        out.sort_unstable();
        out
    }

    #[test]
    fn drains_in_deadline_order_across_every_level() {
        let mut wheel = DepartureWheel::with_origin(8, 0);
        // Deltas spanning level 0 (3, 900), level 1 (5_000, 800_000),
        // and the overflow.
        let deadlines = [3u64, 900, 5_000, 800_000, WHEEL_SPAN + 17];
        for (i, &d) in deadlines.iter().enumerate() {
            wheel.schedule(d, i as u32);
        }
        assert_eq!(wheel.len(), 5);
        let mut drained = Vec::new();
        for &d in &deadlines {
            wheel.drain_due(d - 1, |_| panic!("nothing due before {d}"));
            wheel.drain_due(d, |s| drained.push(s));
        }
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn same_deadline_entries_drain_together() {
        let mut wheel = DepartureWheel::with_origin(4, 0);
        for server in 0..4 {
            wheel.schedule(70, server);
        }
        wheel.schedule(71, 0);
        assert_eq!(drain_sorted(&mut wheel, 70), vec![0, 1, 2, 3]);
        assert_eq!(drain_sorted(&mut wheel, 71), vec![0]);
    }

    #[test]
    fn purge_drops_only_the_victims_sessions() {
        let mut wheel = DepartureWheel::with_origin(3, 0);
        for (when, server) in [(10, 0), (10, 1), (20, 0), (30, 2), (20, 0)] {
            wheel.schedule(when, server);
        }
        assert_eq!(wheel.purge_server(0), 3);
        assert_eq!(wheel.purge_server(0), 0, "idempotent once empty");
        assert_eq!(wheel.len(), 2);
        assert_eq!(wheel.entries(), vec![(10, 1), (30, 2)]);
        assert_eq!(drain_sorted(&mut wheel, 30), vec![1, 2]);
    }

    #[test]
    fn entries_scheduled_after_a_purge_are_live_again() {
        // The epoch scheme must not confuse a server's new sessions with
        // its purged ones, even at the same deadline.
        let mut wheel = DepartureWheel::with_origin(2, 0);
        wheel.schedule(10, 0);
        assert_eq!(wheel.purge_server(0), 1);
        wheel.schedule(10, 0);
        assert_eq!(wheel.len(), 1);
        assert_eq!(wheel.entries(), vec![(10, 0)]);
        assert_eq!(drain_sorted(&mut wheel, 10), vec![0]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn empty_wheel_jumps_the_clock_instead_of_walking_slots() {
        let mut wheel = DepartureWheel::with_origin(2, 0);
        wheel.drain_due(10_000_000, |_| panic!("empty"));
        // The clock jumped: a short-delta schedule lands on level 0.
        wheel.schedule(10_000_001, 1);
        assert_eq!(drain_sorted(&mut wheel, 10_000_001), vec![1]);
    }

    #[test]
    fn stale_entries_pin_the_clock_walk_but_not_the_len() {
        // After a purge the wheel reports empty, yet the stale node is
        // still filed: the clock must walk (not jump) to its deadline so
        // it gets released, and the drain must stay silent.
        let mut wheel = DepartureWheel::with_origin(2, 0);
        wheel.schedule(50, 1);
        wheel.purge_server(1);
        assert!(wheel.is_empty());
        assert_eq!(drain_sorted(&mut wheel, 100), Vec::<u32>::new());
        // The node was released at its deadline: a fresh schedule at the
        // same arena size recycles it.
        let arena = wheel.nodes.len();
        wheel.schedule(200, 0);
        assert_eq!(wheel.nodes.len(), arena, "stale node was recycled");
    }

    #[test]
    fn mid_stream_origin_files_against_the_restored_clock() {
        // A restored checkpoint constructs the wheel at now = arrivals:
        // deltas (not absolute deadlines) pick the level.
        let origin = 123_456_789;
        let mut wheel = DepartureWheel::with_origin(2, origin);
        wheel.schedule(origin, 0);
        wheel.schedule(origin + 63, 1);
        wheel.schedule(origin + WHEEL_SPAN + 1, 0);
        assert_eq!(drain_sorted(&mut wheel, origin), vec![0]);
        assert_eq!(drain_sorted(&mut wheel, origin + 63), vec![1]);
        assert_eq!(drain_sorted(&mut wheel, origin + WHEEL_SPAN + 1), vec![0]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn slab_recycles_nodes_through_the_free_list() {
        let mut wheel = DepartureWheel::with_origin(1, 0);
        for round in 0u64..100 {
            wheel.schedule(round + 1, 0);
            wheel.schedule(round + 2, 0);
            wheel.drain_due(round, |_| {});
        }
        wheel.drain_due(200, |_| {});
        assert!(wheel.is_empty());
        // Peak concurrency per round: 3 pending + 2 freshly scheduled.
        assert!(
            wheel.nodes.len() <= 5,
            "steady churn must recycle, not grow: {} nodes",
            wheel.nodes.len()
        );
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_behind_the_clock_panics() {
        let mut wheel = DepartureWheel::with_origin(1, 0);
        wheel.drain_due(10, |_| {});
        wheel.schedule(5, 0);
    }

    /// `wheel.entries()` against a plain sort of the pairs it must hold.
    fn assert_entries_match_a_plain_sort(wheel: &DepartureWheel, mut expected: Vec<(u64, u32)>) {
        expected.sort_unstable();
        assert_eq!(wheel.entries(), expected);
    }

    #[test]
    fn entries_of_empty_and_all_stale_wheels_are_empty() {
        assert_entries_match_a_plain_sort(&DepartureWheel::with_origin(4, 0), Vec::new());
        // Purged entries stay filed (stale) until the drain reaches them,
        // but never enter the image.
        let mut wheel = DepartureWheel::with_origin(3, 0);
        for (when, server) in [(5, 0), (9, 1), (5, 2), (WHEEL_SPAN + 3, 1)] {
            wheel.schedule(when, server);
        }
        for server in 0..3 {
            wheel.purge_server(server);
        }
        assert_eq!(wheel.filed, 4);
        assert_entries_match_a_plain_sort(&wheel, Vec::new());
    }

    #[test]
    fn entries_order_a_shared_deadline_by_server() {
        // Scheduled in descending server order, so both the LIFO slot
        // lists and the arena hold them out of order.
        let n = 3000;
        let mut wheel = DepartureWheel::with_origin(n, 100);
        let mut expected = Vec::new();
        for server in (0..n as u32).rev() {
            for when in [777, 778] {
                wheel.schedule(when, server);
                expected.push((when, server));
            }
        }
        assert_entries_match_a_plain_sort(&wheel, expected);
    }

    #[test]
    fn entries_sort_overflow_deadlines_against_a_moving_clock() {
        // Deltas across level 0, level 1 and the overflow list (≥ 2^20
        // ahead), then a drain that moves the clock under them.
        let origin = 3_000_000;
        let mut wheel = DepartureWheel::with_origin(64, origin);
        let mut expected = Vec::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..3000u64 {
            x = x
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x1405_7B7E_F767_814F);
            let delta = match i % 3 {
                0 => x >> 54,
                1 => x >> 44,
                _ => WHEEL_SPAN + (x >> 30),
            };
            let server = (x >> 20) as u32 % 64;
            wheel.schedule(origin + delta, server);
            expected.push((origin + delta, server));
        }
        assert_entries_match_a_plain_sort(&wheel, expected.clone());
        let t = origin + 5_000;
        wheel.drain_due(t, |_| {});
        expected.retain(|&(when, _)| when > t);
        assert_entries_match_a_plain_sort(&wheel, expected);
    }

    #[test]
    fn entries_cover_a_span_up_to_the_end_of_the_clock() {
        // Offsets near u64::MAX − now put all 64 offset bits in play.
        let mut wheel = DepartureWheel::with_origin(3, 7);
        let expected = vec![
            (u64::MAX, 1),
            (u64::MAX, 0),
            (7, 2),
            (1 << 63, 0),
            (u64::MAX - 1, 1),
            (8, 0),
            (u64::MAX, 1),
        ];
        for &(when, server) in &expected {
            wheel.schedule(when, server);
        }
        assert_entries_match_a_plain_sort(&wheel, expected);
    }

    #[test]
    fn sorting_in_slices_matches_a_plain_sort() {
        // Shared deadlines, a 40-bit spread (four radix passes) and far
        // entries, sorted a few units at a time into reused keys.
        let n = 500;
        let origin = 1_000;
        let mut wheel = DepartureWheel::with_origin(n, origin);
        let mut expected = Vec::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..4000u64 {
            x = x
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x1405_7B7E_F767_814F);
            let when = match i % 4 {
                0 => origin + (x >> 60),
                1 => origin + (x >> 24),
                2 => u64::MAX - (x >> 54),
                _ => origin + (x >> 50),
            };
            let server = (x >> 32) as u32 % n as u32;
            wheel.schedule(when, server);
            expected.push((when, server));
        }
        expected.sort_unstable();
        let mut keys = DepartureKeys::default();
        for budget in [1, 5, 999, 4000, usize::MAX] {
            wheel.gather(&mut keys);
            let mut calls = 1;
            while !keys.sort_some(&mut budget.clone()) {
                calls += 1;
            }
            assert!(
                budget >= 4000 || calls > 1,
                "budget {budget} sorted in one call"
            );
            assert!(
                keys.merge_some(&mut 1),
                "a whole gather has nothing to merge"
            );
            assert_eq!(keys.len(), expected.len());
            let sorted: Vec<_> = keys.sorted_from(0).collect();
            assert_eq!(sorted, expected, "budget {budget}");
            for at in [1, 2999, 3001, 3999, 4000] {
                assert!(keys.sorted_from(at).eq(expected[at..].iter().copied()));
            }
        }
    }

    /// Gathers `wheel` in slices of `budget` units.
    fn gather_in_slices(wheel: &mut DepartureWheel, keys: &mut DepartureKeys, budget: usize) {
        while !wheel.gather_some(keys, &mut budget.clone()) {}
        keys.sort();
    }

    #[test]
    fn the_filed_after_mark_stays_exact_when_its_generation_wraps() {
        // Nodes stamped 0 and 1 survive until the generation wraps: the
        // restamp must keep them out of reach of the new stamps, or the
        // walk would skip them as filed after the mark.
        let mut wheel = DepartureWheel::with_origin(4, 0);
        wheel.schedule(5, 3);
        wheel.stamp = 1;
        wheel.schedule(6, 3);
        wheel.stamp = u32::MAX - 1;
        let mut keys = DepartureKeys::default();
        for round in 0..4 {
            wheel.schedule(20 + round, 1);
            let expected = wheel.entries();
            wheel.begin_gather(&mut keys);
            wheel.schedule(40 + round, 2);
            gather_in_slices(&mut wheel, &mut keys, 1);
            assert!(keys.sorted_from(0).eq(expected), "round {round}");
        }
        assert_eq!(wheel.stamp, 3, "wrapped to 1, then counted on");
    }

    /// Marks `wheel` into `keys`, gathers in slices of `budget` units,
    /// and checks the image against the wheel's whole sort; returns the
    /// walk's `since` bound and the units the mark estimated.
    fn mark_and_check(wheel: &mut DepartureWheel, keys: &mut DepartureKeys) -> (u32, usize) {
        let expected = wheel.entries();
        let units = wheel.begin_gather(keys);
        let since = wheel.walk.since;
        gather_in_slices(wheel, keys, 3);
        assert!(keys.sorted_from(0).eq(expected), "since {since}");
        (since, units)
    }

    #[test]
    fn a_mark_whose_stamp_wraps_gathers_whole() {
        let mut wheel = DepartureWheel::with_origin(4, 0);
        for (when, server) in [(5, 0), (9, 1), (30, 2), (40, 3), (41, 1)] {
            wheel.schedule(when, server);
        }
        wheel.stamp = u32::MAX - 1;
        let mut keys = DepartureKeys::default();
        let nodes = wheel.nodes.len();
        assert_eq!(
            mark_and_check(&mut wheel, &mut keys),
            (0, nodes * GATHER_COST)
        );
        // Entries drained, purged and filed since: the next mark would
        // build on the image above, but its stamp wraps.
        wheel.drain_due(6, |_| {});
        wheel.purge_server(1);
        wheel.schedule(50, 0);
        assert_eq!(wheel.stamp, u32::MAX);
        let nodes = wheel.nodes.len();
        assert_eq!(
            mark_and_check(&mut wheel, &mut keys),
            (0, nodes * GATHER_COST)
        );
        assert_eq!(wheel.stamp, 1, "restamped below the new generation");
        // The mark after it builds on its image again.
        wheel.purge_server(2);
        wheel.schedule(45, 1);
        let nodes = wheel.nodes.len();
        assert_eq!(
            mark_and_check(&mut wheel, &mut keys),
            (1, nodes * WALK_COST)
        );
        assert_eq!(keys.len(), 3);
    }

    #[test]
    fn purges_are_recorded_from_the_first_mark_on_once_a_server() {
        let n = 70;
        let mut wheel = DepartureWheel::with_origin(n, 0);
        for server in 0..n as u32 {
            wheel.schedule(10 + u64::from(server), server);
        }
        for _ in 0..3 {
            for server in 0..n as u32 {
                wheel.purge_server(server);
            }
        }
        assert!(
            wheel.purged.is_empty(),
            "a wheel never marked records nothing"
        );
        let mut keys = DepartureKeys::default();
        mark_and_check(&mut wheel, &mut keys);
        let recorded = |set: &[u64]| set.iter().map(|w| w.count_ones()).sum::<u32>();
        assert_eq!(recorded(&wheel.purged), 0);
        for _ in 0..3 {
            for server in (0..n as u32).rev() {
                wheel.purge_server(server);
            }
            assert_eq!(wheel.purged.len(), ceil_div(n, 64), "one bit a server");
            assert_eq!(recorded(&wheel.purged), n as u32);
        }
        // Handed to the keys at the next mark; the wheel records afresh.
        mark_and_check(&mut wheel, &mut keys);
        assert_eq!(recorded(&keys.purged), n as u32);
        assert_eq!(recorded(&wheel.purged), 0);
    }

    #[test]
    fn a_sliced_gather_sees_the_entries_at_its_mark() {
        // Purged before the mark (stale), purged after it (live at the
        // mark), drained ahead of the walk and behind it, and nodes reused
        // or appended after the mark.
        let mut wheel = DepartureWheel::with_origin(6, 0);
        for (when, server) in [(3, 0), (9, 1), (4, 2), (12, 3), (3, 4), (30, 5), (2, 5)] {
            wheel.schedule(when, server);
        }
        wheel.purge_server(2);
        let expected = wheel.entries();
        let mut keys = DepartureKeys::default();
        assert_eq!(wheel.begin_gather(&mut keys), 7 * GATHER_COST);
        assert!(
            !wheel.gather_some(&mut keys, &mut GATHER_COST.clone()),
            "one node"
        );
        wheel.purge_server(3);
        wheel.purge_server(3);
        wheel.drain_due(3, |_| {});
        wheel.schedule(7, 2);
        wheel.schedule(8, 4);
        wheel.schedule(50, 0);
        wheel.purge_server(1);
        gather_in_slices(&mut wheel, &mut keys, 2 * GATHER_COST);
        assert!(keys.sorted_from(0).eq(expected));
        assert!(wheel.walk.purged.is_empty() && wheel.walk.drained.is_empty());
        assert_eq!(
            wheel.entries(),
            vec![(7, 2), (8, 4), (30, 5), (50, 0)],
            "the walk leaves the queue as it was"
        );
    }

    #[test]
    fn heap_oracle_matches_on_a_mixed_script() {
        let mut wheel = DepartureWheel::with_origin(8, 0);
        let mut heap = HeapQueue::with_origin(8, 0);
        let script = [
            (2u64, 3u32),
            (2, 5),
            (64, 1),
            (64, 3),
            (4_100, 2),
            (70_000, 3),
            (WHEEL_SPAN + 9, 6),
        ];
        for &(when, server) in &script {
            wheel.schedule(when, server);
            heap.schedule(when, server);
        }
        assert_eq!(wheel.entries(), heap.entries());
        assert_eq!(wheel.purge_server(3), heap.purge_server(3));
        assert_eq!(wheel.entries(), heap.entries());
        for t in [2u64, 64, 4_100, 70_000, WHEEL_SPAN + 9] {
            assert_eq!(drain_sorted(&mut wheel, t), drain_sorted(&mut heap, t));
        }
        assert!(wheel.is_empty() && heap.is_empty());
    }
}
