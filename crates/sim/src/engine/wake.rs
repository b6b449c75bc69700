//! The wake set of the event-driven sparse engine: a hierarchical timing
//! wheel.
//!
//! A [`WakeQueue`] holds, for every live packet, the one slot in which it
//! will next access the channel. The classic structure for this is a binary
//! heap — but a heap pays `O(log n)` scattered memory touches *per access*,
//! and at paper scale those heap ops dominate the whole simulation. PRs 2–6
//! replaced the heap with a flat 4096-bucket calendar ring; that ring in
//! turn degraded at million-station scale, where the long sleep gaps of the
//! quantized LowSensing ladder overflowed its window and churned its far
//! heap. This module is the next rung: a **multi-level timing wheel** in
//! the kernel-timer cascade style.
//!
//! # Levels as aligned blocks
//!
//! The wheel has four ring levels plus a far heap. Level `k` covers a
//! *suffix of the current `2^SHIFT[k+1]`-aligned block* of the slot axis,
//! at granularity `2^SHIFT[k]`:
//!
//! ```text
//! level  granularity  buckets  covers (given current base b)
//! L0     1 slot       4096     [b,  E0)   E0 = end of b's 2^12 block
//! L1     2^12 slots    256     [E0, E1)   E1 = end of b's 2^20 block
//! L2     2^20 slots    256     [E1, E2)   E2 = end of b's 2^28 block
//! L3     2^28 slots    256     [E2, E3)   E3 = end of b's 2^36 block
//! far    exact heap      —     [E3, ∞)    keyed (slot, seq, id)
//! ```
//!
//! An event is pushed into the unique level whose range contains its slot:
//! an O(1) append, no search. L0 keeps the flat ring's cache-line bucket
//! (inline-6 cell + occupancy bitmap), so the hot path at the 16384-station
//! tier — where almost every delay lands in the current 4096-slot block —
//! is the same machine code as before. Coarse buckets store `(slot, id)`
//! pairs with a cached per-bucket minimum slot.
//!
//! When [`advance_to`](WakeQueue::advance_to) crosses a block boundary, the
//! one coarse bucket that has just become *current* is drained and its
//! events **cascade** down, each re-placed by the same rule under the new
//! block ends. Crossing a `2^SHIFT[k+1]` boundary drains exactly one level-
//! `k+1` bucket (crossing the `2^36` block end instead migrates the now-
//! covered prefix of the far heap): finer levels are provably empty at that
//! moment, because the engine only ever advances to (at most) the next
//! pending slot, and every event in a finer level or an earlier coarse
//! bucket would have a slot *before* the boundary being crossed. That makes
//! the cascade `O(events moved)` with no scan of untouched buckets or of
//! the far heap — the flat ring it replaced re-peeked its far heap on
//! every advance. A `moved` counter (see
//! [`cascade_moves`](WakeQueue::cascade_moves)) counts exactly the events
//! re-placed, and each event cascades at most once per level: at most 4
//! touches ever, amortized O(1) per schedule.
//!
//! # Insertion-order drain through cascades
//!
//! Within one slot the engine processes packets in **insertion order**: the
//! order in which their events were [`schedule`](WakeQueue::schedule)d,
//! across the whole run (the `(slot, seq)` order of the
//! [`run_sparse_reference`](crate::engine::sparse_reference) oracle, where
//! `seq` is the global schedule-call index). The wheel preserves it
//! *structurally*, storing no `seq` in any ring level:
//!
//! * **Within a bucket**, events for the same slot appear in ascending seq:
//!   direct pushes arrive in call order; a cascade re-places a drained
//!   bucket in stored order, preserving same-slot relative order at the
//!   destination; far migration pops `(slot, seq)`-keyed entries, so one
//!   slot's migrants arrive consecutively in ascending seq.
//! * **Across sources**, same-slot events cannot interleave out of order,
//!   because the block ends `E0..E3` are monotone (they only move when
//!   `advance_to` crosses a boundary, and only forward). For a fixed slot
//!   `s`, every event scheduled while `s` lay beyond some end `Ek` has a
//!   smaller seq than every event scheduled after `Ek` moved past `s` —
//!   and the cascade (or far migration) that carries the early events into
//!   the finer level fires at the *exact* `advance_to` that first makes
//!   direct pushes to that finer level possible for `s`. Migrants land
//!   before any subsequent direct push can, at every level. (This is the
//!   monotone-horizon argument a single-level ring makes for its one
//!   far/ring boundary, applied per level; naive delta-based level
//!   selection, where an event's level depends on `slot - now` at schedule
//!   time, would *break* it — a later push could take a shortcut into a
//!   fine level while an earlier same-slot event still waited upstairs.)
//!
//! [`take`](WakeQueue::take) therefore still hands back the L0 bucket
//! as-is: no per-slot sort, no seq comparisons, and
//! `run_sparse_reference` plus the sparse-equivalence suite keep pinning
//! the engine bit-identical on top of it. See docs/ARCHITECTURE.md ("The
//! hierarchical wake wheel").

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::engine::table::{prefetch_read, prefetch_write_ptr};
use crate::time::Slot;

/// log2 of each level's granularity in slots: L0 is slot-granular, L1
/// buckets span `2^12` slots, L2 `2^20`, L3 `2^28`. The far heap takes over
/// past the current `2^36` block.
const SHIFT: [u32; 4] = [0, 12, 20, 28];

/// log2 of the span covered by all ring levels together (one L3 block).
const TOP_BITS: u32 = 36;

/// Number of slot-granular L0 buckets: one whole `2^12` block, so bucket
/// `slot & L0_MASK` is direct-mapped with no wraparound within a block.
const L0_SLOTS: usize = 1 << SHIFT[1];
const L0_MASK: usize = L0_SLOTS - 1;
const WORDS: usize = L0_SLOTS / 64;

/// Buckets per coarse level (L1–L3): each splits its parent block into 256
/// child blocks, `index = (slot >> SHIFT[level]) & COARSE_MASK`.
const COARSE_SLOTS: usize = 256;
const COARSE_MASK: usize = COARSE_SLOTS - 1;
const COARSE_WORDS: usize = COARSE_SLOTS / 64;

/// Retained capacity (in events) of a drained L0 bucket's spill vector. A
/// pathological collision burst can balloon one bucket to tens of
/// thousands of entries; without a cap that memory is pinned for the rest
/// of the run in all 4096 buckets. Oversized spills are shrunk back to
/// this bound after draining.
const BUCKET_CAP: usize = 64;

/// Retained capacity (in events) of a drained coarse bucket. Coarse
/// buckets legitimately hold thousands of events (a whole child block's
/// worth at million-station scale), so the cap is generous; it only
/// reclaims true outliers.
const COARSE_CAP: usize = 1024;

/// Events stored inline in an L0 bucket before spilling to its vector.
/// Sized so one bucket is exactly one cache line: the common push touches a
/// single line instead of a `Vec` header plus a separately allocated data
/// line. Steady-state occupancy (live packets spread over the block) is a
/// handful of events per bucket, so the spill path is rare.
const INLINE: usize = 6;

/// End of the `2^bits`-aligned block containing `t`, saturating at
/// `u64::MAX`. The saturation mirrors the NEVER-sentinel convention of
/// [`crate::time`]: a slot at `u64::MAX` is never strictly below a
/// saturated end, so it parks in the far heap.
#[inline]
fn block_end(t: Slot, bits: u32) -> Slot {
    let block = (t >> bits) + 1;
    if block > (u64::MAX >> bits) {
        u64::MAX
    } else {
        block << bits
    }
}

/// One L0 bucket: a cache-line cell holding its slot's pending ids in
/// insertion order — the first [`INLINE`] inline, the rest in `spill`.
#[derive(Debug)]
#[repr(align(64))]
struct Bucket {
    /// Ids pushed while `len < INLINE`; `inline[..len]` is valid.
    inline: [u32; INLINE],
    /// Inline occupancy (spilling starts only once this hits `INLINE`).
    len: u32,
    /// Overflow beyond the inline cell, still in push order.
    spill: Vec<u32>,
}

impl Bucket {
    fn new() -> Self {
        Bucket {
            inline: [0; INLINE],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// Total pending events in this bucket.
    #[inline]
    fn count(&self) -> usize {
        self.len as usize + self.spill.len()
    }

    /// Appends `id`, preserving push order across the inline/spill split.
    #[inline]
    fn push(&mut self, id: u32) {
        let n = self.len as usize;
        if n < INLINE {
            self.inline[n] = id;
            self.len += 1;
        } else {
            self.spill.push(id);
        }
    }
}

/// A pending event parked in a coarse level: its exact slot rides along so
/// the cascade can re-place it without consulting anything else.
#[derive(Debug, Clone, Copy)]
struct Event {
    slot: Slot,
    id: u32,
}

/// One coarse bucket: the events of one child block, in arrival order
/// (which preserves same-slot seq order — see the module docs), plus the
/// cached minimum slot so `next_slot` never scans event lists.
#[derive(Debug)]
struct CoarseBucket {
    /// Minimum slot among `events`; meaningless when `events` is empty.
    min_slot: Slot,
    /// The block's pending events in arrival order.
    events: Vec<Event>,
}

impl CoarseBucket {
    fn new() -> Self {
        CoarseBucket {
            min_slot: 0,
            events: Vec::new(),
        }
    }
}

/// One coarse ring (L1–L3): 256 buckets plus an occupancy bitmap. Bucket
/// indices are monotone in slot over the level's covered range (all of it
/// lies inside one parent block), so "first set bit" is "earliest block".
#[derive(Debug)]
struct CoarseLevel {
    /// One bit per bucket: set iff the bucket is non-empty.
    occupied: [u64; COARSE_WORDS],
    buckets: Box<[CoarseBucket; COARSE_SLOTS]>,
}

impl CoarseLevel {
    fn new() -> Self {
        let buckets: Box<[CoarseBucket; COARSE_SLOTS]> = (0..COARSE_SLOTS)
            .map(|_| CoarseBucket::new())
            .collect::<Vec<_>>()
            .try_into()
            .expect("COARSE_SLOTS buckets");
        CoarseLevel {
            occupied: [0; COARSE_WORDS],
            buckets,
        }
    }

    /// Index of the first non-empty bucket, if any.
    #[inline]
    fn first_occupied(&self) -> Option<usize> {
        for (w, &bits) in self.occupied.iter().enumerate() {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
    }
}

/// Retained capacity (in events) of the engine-side per-slot scratch
/// vectors (participants / senders / listeners). Sized to hold the largest
/// cohorts ordinary workloads produce so the shrink never fires on the hot
/// path; see [`cap_scratch`].
pub(crate) const SCRATCH_CAP: usize = 4096;

/// Releases the excess capacity of a per-slot scratch vector after a
/// pathological burst.
///
/// Shrinks only when capacity exceeds *twice* `cap` — the hysteresis keeps
/// a workload that legitimately hovers around `cap` from reallocating every
/// slot — and shrinks back to `cap`, not zero, so the steady state keeps
/// its warm allocation.
#[inline]
pub(crate) fn cap_scratch<T>(v: &mut Vec<T>, cap: usize) {
    if v.capacity() > 2 * cap {
        v.shrink_to(cap);
    }
}

/// Hierarchical timing wheel of pending wake events, keyed by absolute
/// slot.
///
/// Slots must be consumed in nondecreasing order via
/// [`WakeQueue::advance_to`] + [`WakeQueue::take`]; events may only be
/// scheduled at or after the current base slot, and the base may only
/// advance to (at most) the earliest pending slot — the engine's natural
/// stepping discipline, which the cascade's single-bucket-drain invariant
/// relies on. Within one slot, events come back in insertion order (the
/// order of the `schedule` calls).
#[derive(Debug)]
pub struct WakeQueue {
    /// Current clock: the start of L0's covered range `[base, ends[0])`.
    base: Slot,
    /// Cached block ends `E0..E3` for the current base (see module docs):
    /// `ends[k]` = end of base's `2^SHIFT[k+1]`-block (`2^36` for `k = 3`),
    /// saturating. Level `k` covers `[ends[k-1], ends[k])`.
    ends: [Slot; 4],
    /// Pending events per ring level (`counts[0]` is L0). The level
    /// ordering invariant (every L0 slot < every L1 slot < … < far) makes
    /// `next_slot` a first-non-empty-level scan.
    counts: [usize; 4],
    /// Position of the next `schedule` call in the run's global schedule
    /// stream. Only far-heap entries store it (ring levels preserve seq
    /// order structurally — see the module docs).
    seq: u64,
    /// Debug counter: total events re-placed by cascades and far
    /// migrations since construction. Pinned by tests to prove the wheel
    /// moves `O(events)` per boundary crossing, never rescanning.
    moved: u64,
    /// One bit per L0 bucket: set iff the bucket is non-empty.
    occupied: [u64; WORDS],
    /// `buckets[slot & L0_MASK]` holds the ids waking in `slot`, in
    /// insertion order, inline-first (see [`Bucket`]). A boxed fixed-size
    /// array (not a `Vec`) so masked indexing is provably in bounds and the
    /// per-event push carries no bounds check.
    buckets: Box<[Bucket; L0_SLOTS]>,
    /// The coarse rings L1–L3 (`coarse[k]` has granularity
    /// `2^SHIFT[k + 1]`).
    coarse: [CoarseLevel; 3],
    /// Events beyond the current `2^36` block, keyed `(slot, seq, id)` and
    /// migrated inward (in that order) when the block boundary is crossed.
    far: BinaryHeap<Reverse<(Slot, u64, u32)>>,
}

impl Default for WakeQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl WakeQueue {
    /// An empty queue with its clock at slot 0.
    pub fn new() -> Self {
        let buckets: Box<[Bucket; L0_SLOTS]> = (0..L0_SLOTS)
            .map(|_| Bucket::new())
            .collect::<Vec<_>>()
            .try_into()
            .expect("L0_SLOTS buckets");
        WakeQueue {
            base: 0,
            ends: [1 << SHIFT[1], 1 << SHIFT[2], 1 << SHIFT[3], 1 << TOP_BITS],
            counts: [0; 4],
            seq: 0,
            moved: 0,
            occupied: [0; WORDS],
            buckets,
            coarse: [CoarseLevel::new(), CoarseLevel::new(), CoarseLevel::new()],
            far: BinaryHeap::new(),
        }
    }

    /// Whether no event is pending anywhere.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.counts == [0; 4] && self.far.is_empty()
    }

    /// Total events re-placed by cascades and far migrations so far.
    ///
    /// A debug/observability counter: each boundary crossing must move
    /// exactly the events of the one bucket (or far-heap prefix) that
    /// became current — tests pin this to prove the cascade is `O(events
    /// moved)`, with no hidden rescans of untouched buckets or the far
    /// heap.
    #[inline]
    pub fn cascade_moves(&self) -> u64 {
        self.moved
    }

    /// Approximate heap footprint of the queue in bytes: the fixed rings
    /// plus every live spill/event/heap allocation at its current
    /// capacity. Feeds the bytes-per-station budget in the capacity bench;
    /// the fixed part (~290 KiB) amortizes to well under a byte per
    /// station at the 1M tier.
    pub fn footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = size_of::<Self>() + L0_SLOTS * size_of::<Bucket>();
        for b in self.buckets.iter() {
            bytes += b.spill.capacity() * size_of::<u32>();
        }
        for level in &self.coarse {
            bytes += COARSE_SLOTS * size_of::<CoarseBucket>();
            for b in level.buckets.iter() {
                bytes += b.events.capacity() * size_of::<Event>();
            }
        }
        bytes + self.far.capacity() * size_of::<Reverse<(Slot, u64, u32)>>()
    }

    /// Schedules packet `id` to wake in `slot` (which must be ≥ the current
    /// base).
    #[inline]
    pub fn schedule(&mut self, slot: Slot, id: u32) {
        debug_assert!(slot >= self.base, "scheduling into the past");
        let seq = self.seq;
        self.seq += 1;
        if slot < self.ends[3] {
            self.place(slot, id);
        } else {
            self.far.push(Reverse((slot, seq, id)));
        }
    }

    /// Hints the memory a `schedule(slot, _)` a few calls from now will
    /// touch. A dense slot's schedule pass lands all over the rings —
    /// every push a cold bucket — so running this a short distance ahead
    /// of the pushes keeps several bucket misses in flight at once.
    ///
    /// For a coarse bucket the push appends to the events vector, whose
    /// tail line is only reachable *through* the header — a dependent
    /// chain no single hint covers — so this reads the header (plain
    /// loads, off every critical path) and hints the tail line the push
    /// will write.
    #[inline]
    pub fn prefetch_schedule(&self, slot: Slot) {
        if slot < self.ends[0] {
            // L0 pushes normally land in the bucket's inline cell — one
            // cache line, one hint.
            prefetch_read(&self.buckets[(slot as usize) & L0_MASK]);
        } else if slot < self.ends[3] {
            let lvl = if slot < self.ends[1] {
                0
            } else if slot < self.ends[2] {
                1
            } else {
                2
            };
            let idx = ((slot >> SHIFT[lvl + 1]) as usize) & COARSE_MASK;
            let events = &self.coarse[lvl].buckets[idx].events;
            prefetch_write_ptr(events.as_ptr().wrapping_add(events.len()) as *const u8);
        }
        // Far-heap pushes only touch the heap's tail, which stays hot.
    }

    /// Pushes an event into the unique ring level covering `slot` under
    /// the current block ends. Caller guarantees `slot < ends[3]`.
    #[inline]
    fn place(&mut self, slot: Slot, id: u32) {
        if slot < self.ends[0] {
            let idx = (slot as usize) & L0_MASK;
            self.buckets[idx].push(id);
            self.occupied[idx / 64] |= 1u64 << (idx % 64);
            self.counts[0] += 1;
        } else {
            self.place_coarse(slot, id);
        }
    }

    /// The coarse-level arm of [`place`](Self::place), out of line so the
    /// dominant L0 push stays branch-light.
    fn place_coarse(&mut self, slot: Slot, id: u32) {
        let lvl = if slot < self.ends[1] {
            0
        } else if slot < self.ends[2] {
            1
        } else {
            2
        };
        let idx = ((slot >> SHIFT[lvl + 1]) as usize) & COARSE_MASK;
        let level = &mut self.coarse[lvl];
        let bucket = &mut level.buckets[idx];
        if bucket.events.is_empty() || slot < bucket.min_slot {
            bucket.min_slot = slot;
        }
        bucket.events.push(Event { slot, id });
        level.occupied[idx / 64] |= 1u64 << (idx % 64);
        self.counts[lvl + 1] += 1;
    }

    /// Debug-only invariant check used by the model proptest: the spill
    /// vector of an L0 bucket may be non-empty only when the inline cell is
    /// full.
    #[cfg(test)]
    pub(crate) fn bucket_shape(&self, slot: Slot) -> (usize, usize) {
        let b = &self.buckets[(slot as usize) & L0_MASK];
        (b.len as usize, b.spill.len())
    }

    /// Debug-only: retained spill capacity of coarse level `lvl`, bucket
    /// `idx`.
    #[cfg(test)]
    pub(crate) fn coarse_capacity(&self, lvl: usize, idx: usize) -> usize {
        self.coarse[lvl].buckets[idx].events.capacity()
    }

    /// The earliest slot with a pending event, if any.
    pub fn next_slot(&self) -> Option<Slot> {
        // Level ordering invariant: every L0 slot < ends[0] ≤ every L1
        // slot < ends[1] ≤ … < ends[3] ≤ every far slot, so the first
        // non-empty level holds the minimum.
        if self.counts[0] > 0 {
            return Some(self.next_l0_slot());
        }
        for lvl in 0..3 {
            if self.counts[lvl + 1] > 0 {
                let idx = self.coarse[lvl]
                    .first_occupied()
                    .expect("count > 0 but no occupied coarse bucket");
                return Some(self.coarse[lvl].buckets[idx].min_slot);
            }
        }
        self.far.peek().map(|Reverse((s, _, _))| *s)
    }

    /// Scans the L0 occupancy bitmap upward from `base` for the earliest
    /// non-empty bucket. Caller guarantees `counts[0] > 0`. No wraparound:
    /// L0 covers exactly base's `2^12` block, so every occupied index is at
    /// or above `base & L0_MASK`.
    fn next_l0_slot(&self) -> Slot {
        let start = (self.base as usize) & L0_MASK;
        let (w0, b0) = (start / 64, start % 64);
        let first = self.occupied[w0] & (!0u64 << b0);
        if first != 0 {
            return self.slot_at(w0 * 64 + first.trailing_zeros() as usize);
        }
        for w in w0 + 1..WORDS {
            let m = self.occupied[w];
            if m != 0 {
                return self.slot_at(w * 64 + m.trailing_zeros() as usize);
            }
        }
        unreachable!("counts[0] > 0 but no occupied L0 bucket at or after base");
    }

    /// Absolute slot of the L0 bucket at bitmap index `idx` within the
    /// current block.
    #[inline]
    fn slot_at(&self, idx: usize) -> Slot {
        (self.base & !(L0_MASK as u64)) + idx as u64
    }

    /// Moves the clock forward to `t`, cascading coarse events whose block
    /// has become current.
    ///
    /// `t` must be at most the earliest pending slot (the engine only ever
    /// advances to the next event or arrival). That discipline is what
    /// makes one bucket per crossing sufficient: when `t` crosses a
    /// `2^SHIFT[k+1]` boundary, every ring level finer than `k+1` — and
    /// every level-`k+1` bucket earlier than `t`'s — could hold only slots
    /// strictly below `t`, so they are empty, and only the bucket
    /// containing `t` needs to cascade. The whole call is `O(events
    /// moved)`.
    pub fn advance_to(&mut self, t: Slot) {
        debug_assert!(t >= self.base, "time moved backwards");
        if t < self.ends[0] {
            // Same L0 block: the common case, no boundary crossed.
            self.base = t;
            return;
        }
        let old = self.base;
        self.base = t;
        self.ends = [
            block_end(t, SHIFT[1]),
            block_end(t, SHIFT[2]),
            block_end(t, SHIFT[3]),
            block_end(t, TOP_BITS),
        ];
        if (t >> TOP_BITS) != (old >> TOP_BITS) {
            // Crossed the whole ring span: every ring level is empty (any
            // ring event's slot was below the old block end ≤ t). Migrate
            // the far prefix that the new block now covers; pops come out
            // `(slot, seq)`-ordered, so same-slot migrants land in seq
            // order, before any later direct push can reach those slots.
            debug_assert!(self.counts == [0; 4], "ring events at a top crossing");
            while let Some(&Reverse((s, _, _))) = self.far.peek() {
                if s >= self.ends[3] {
                    break;
                }
                let Reverse((s, _, id)) = self.far.pop().expect("peeked entry");
                self.moved += 1;
                self.place(s, id);
            }
        } else if (t >> SHIFT[3]) != (old >> SHIFT[3]) {
            self.cascade(2, ((t >> SHIFT[3]) as usize) & COARSE_MASK);
        } else if (t >> SHIFT[2]) != (old >> SHIFT[2]) {
            self.cascade(1, ((t >> SHIFT[2]) as usize) & COARSE_MASK);
        } else {
            // t ≥ old ends[0], so the 2^12 boundary was crossed.
            self.cascade(0, ((t >> SHIFT[1]) as usize) & COARSE_MASK);
        }
    }

    /// Drains coarse bucket `idx` of level `lvl` and re-places its events
    /// under the (already updated) block ends. Finer levels are empty when
    /// this runs (see [`advance_to`](Self::advance_to)), so re-placed
    /// events land in fresh buckets and per-slot order is the bucket's
    /// stored order.
    fn cascade(&mut self, lvl: usize, idx: usize) {
        let (w, b) = (idx / 64, idx % 64);
        if self.coarse[lvl].occupied[w] & (1u64 << b) == 0 {
            return;
        }
        debug_assert!(
            self.counts[..=lvl].iter().all(|&c| c == 0),
            "finer levels non-empty at a level-{} crossing",
            lvl + 1
        );
        self.coarse[lvl].occupied[w] &= !(1u64 << b);
        let mut events = std::mem::take(&mut self.coarse[lvl].buckets[idx].events);
        self.counts[lvl + 1] -= events.len();
        self.moved += events.len() as u64;
        for e in &events {
            // The drained bucket is `t`'s own block, so every event lands
            // strictly finer — never back in the bucket being drained.
            self.place(e.slot, e.id);
        }
        events.clear();
        cap_scratch(&mut events, COARSE_CAP);
        self.coarse[lvl].buckets[idx].events = events;
    }

    /// Drains every event scheduled for slot `t` (which must lie inside the
    /// current L0 block — the engine always `advance_to(t)`s first),
    /// appending the ids to `out` in insertion order (the order of the
    /// `schedule` calls). Entries already in `out` are left untouched.
    pub fn take(&mut self, t: Slot, out: &mut Vec<u32>) {
        debug_assert!(
            t >= self.base && t < self.ends[0],
            "take outside the current L0 block"
        );
        let idx = (t as usize) & L0_MASK;
        let bucket = &mut self.buckets[idx];
        let n = bucket.count();
        if n == 0 {
            return;
        }
        self.counts[0] -= n;
        self.occupied[idx / 64] &= !(1u64 << (idx % 64));
        // Inline entries were pushed strictly before any spill entry, so
        // inline-then-spill is push order.
        out.extend_from_slice(&bucket.inline[..bucket.len as usize]);
        bucket.len = 0;
        out.append(&mut bucket.spill);
        cap_scratch(&mut bucket.spill, BUCKET_CAP);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains the queue fully, returning (slot, insertion-ordered ids) per
    /// event slot.
    fn drain(q: &mut WakeQueue) -> Vec<(Slot, Vec<u32>)> {
        let mut events = Vec::new();
        let mut out = Vec::new();
        while let Some(s) = q.next_slot() {
            q.advance_to(s);
            out.clear();
            q.take(s, &mut out);
            assert!(!out.is_empty(), "next_slot pointed at an empty slot");
            events.push((s, out.clone()));
        }
        events
    }

    #[test]
    fn empty_queue_has_no_next() {
        let q = WakeQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.next_slot(), None);
        assert_eq!(q.cascade_moves(), 0);
    }

    #[test]
    fn orders_by_slot_then_insertion() {
        let mut q = WakeQueue::new();
        q.schedule(5, 2);
        q.schedule(3, 7);
        q.schedule(5, 1);
        q.schedule(3, 0);
        let events = drain(&mut q);
        // Within a slot, ids come back in schedule-call order, not sorted.
        assert_eq!(events, vec![(3, vec![7, 0]), (5, vec![2, 1])]);
        assert!(q.is_empty());
    }

    #[test]
    fn coarse_events_cascade_in_insertion_order() {
        let mut q = WakeQueue::new();
        q.schedule(2, 1);
        q.schedule(1_000_000, 3); // parks in L1 at base 0
        q.schedule(1_000_000, 2);
        q.schedule(50_000, 9);
        let events = drain(&mut q);
        // Slot 1_000_000 drains [3, 2]: the cascade re-places the coarse
        // bucket in stored (schedule-call) order, not id order.
        assert_eq!(
            events,
            vec![(2, vec![1]), (50_000, vec![9]), (1_000_000, vec![3, 2])]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn coarse_migrants_precede_direct_pushes_in_their_slot() {
        // An event scheduled while its slot lay beyond the current L0
        // block must drain before one scheduled directly once the block
        // advanced — that is the (slot, seq) order, since the coarse
        // schedule happened first.
        let target = (1u64 << 12) + 50;
        let mut q = WakeQueue::new();
        q.schedule(target, 9); // L1 (beyond L0's block at base 0)
        q.schedule(200, 1);
        let mut out = Vec::new();
        q.advance_to(200);
        q.take(200, &mut out);
        assert_eq!(out, vec![1]);
        // Cross the L0 block boundary: the cascade lands 9 in L0 first,
        // then a direct push appends after it despite the smaller id.
        q.advance_to(1u64 << 12);
        q.schedule(target, 4);
        q.advance_to(target);
        out.clear();
        q.take(target, &mut out);
        assert_eq!(out, vec![9, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn far_migrants_precede_direct_pushes_in_their_slot() {
        // Events scheduled while their slot lay past the 2^36 ring span
        // wait in the far heap and migrate inward when the clock crosses
        // into that block. A direct push to the same slot after the
        // crossing has a larger seq, so it must drain after the migrants,
        // whether they land straight in L0 or in a coarse level that
        // cascades down later.
        let top = 1u64 << 36;
        let near = top + 100; // migrates into L0
        let coarse = top + (5u64 << 20) + 7; // migrates into L2
        let mut q = WakeQueue::new();
        q.schedule(near, 9);
        q.schedule(coarse, 8);
        q.schedule(near, 5);
        q.schedule(coarse, 6);
        q.schedule(200, 1);
        let mut out = Vec::new();
        q.advance_to(200);
        q.take(200, &mut out);
        assert_eq!(out, vec![1]);
        q.advance_to(top);
        assert_eq!(
            q.cascade_moves(),
            4,
            "the far prefix migrates at the crossing"
        );
        q.schedule(near, 2);
        q.schedule(coarse, 0);
        assert_eq!(
            drain(&mut q),
            vec![(near, vec![9, 5, 2]), (coarse, vec![8, 6, 0])]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn schedule_and_take_at_block_edge_slots() {
        // At an unaligned base, L0 covers `[base, E0)` with E0 the end of
        // base's 2^12 block: `E0 - 1` is the last slot L0 holds (and the
        // last one `take` may ask for without advancing), while `E0` parks
        // in L1 and cascades in only once the clock crosses.
        let base = 3 * (1u64 << 12) + 17;
        let e0 = 4 * (1u64 << 12);
        let mut q = WakeQueue::new();
        q.advance_to(base);
        q.schedule(e0 - 1, 7); // last L0 slot
        q.schedule(e0, 8); // first L1 slot
        q.schedule(base, 3); // the clock's own slot is schedulable too
        assert_eq!(q.next_slot(), Some(base));
        let mut out = Vec::new();
        q.take(base, &mut out);
        assert_eq!(out, vec![3]);
        assert_eq!(q.next_slot(), Some(e0 - 1));
        out.clear();
        q.take(e0 - 1, &mut out);
        assert_eq!(out, vec![7]);
        assert_eq!(q.next_slot(), Some(e0));
        assert_eq!(q.cascade_moves(), 0);
        q.advance_to(e0);
        assert_eq!(q.cascade_moves(), 1);
        out.clear();
        q.take(e0, &mut out);
        assert_eq!(out, vec![8]);
        assert!(q.is_empty());
    }

    #[test]
    fn schedules_exactly_at_each_level_boundary() {
        // One event at the last L0 slot and one exactly at each block end:
        // each must park one level up (ends are exclusive) and still drain
        // in global slot order, cascading down as the clock crosses.
        let mut q = WakeQueue::new();
        q.schedule((1u64 << 12) - 1, 0); // last slot of L0's block
        q.schedule(1u64 << 12, 1); // == ends[0]: first L1 slot
        q.schedule(1u64 << 20, 2); // == ends[1]: first L2 slot
        q.schedule(1u64 << 28, 3); // == ends[2]: first L3 slot
        q.schedule(1u64 << 36, 4); // == ends[3]: far heap
        let events = drain(&mut q);
        assert_eq!(
            events,
            vec![
                ((1u64 << 12) - 1, vec![0]),
                (1u64 << 12, vec![1]),
                (1u64 << 20, vec![2]),
                (1u64 << 28, vec![3]),
                (1u64 << 36, vec![4]),
            ]
        );
        // Each event cascaded/migrated exactly once: straight into L0 (its
        // wake slot is the first slot of every nested new block).
        assert_eq!(q.cascade_moves(), 4);
        assert!(q.is_empty());
    }

    #[test]
    fn one_jump_across_a_whole_coarse_level() {
        // A far-horizon jam gap: after draining slot 7 the next event sits
        // past the entire L1 range, and the engine advances there in ONE
        // advance_to call. The crossing must drain exactly the one L2
        // bucket that became current — counted via the moves counter.
        let mut q = WakeQueue::new();
        q.schedule(7, 1);
        let l2_slot = (3u64 << 20) + 5;
        q.schedule(l2_slot, 2);
        let mut out = Vec::new();
        q.advance_to(7);
        q.take(7, &mut out);
        assert_eq!(out, vec![1]);
        assert_eq!(q.next_slot(), Some(l2_slot));
        q.advance_to(l2_slot); // crosses a 2^20 boundary in one jump
        out.clear();
        q.take(l2_slot, &mut out);
        assert_eq!(out, vec![2]);
        assert_eq!(q.cascade_moves(), 1, "one event, one move, no rescans");

        // Same shape one level up: an L3 event reached in a single jump
        // across the whole L2 range.
        let l3_slot = (2u64 << 28) + 9;
        q.schedule(l3_slot, 3);
        q.advance_to(l3_slot);
        out.clear();
        q.take(l3_slot, &mut out);
        assert_eq!(out, vec![3]);
        assert_eq!(q.cascade_moves(), 2);

        // And across the whole ring span: a far-heap event in one jump.
        let far_slot = (1u64 << 36) + 3;
        q.schedule(far_slot, 4);
        q.advance_to(far_slot);
        out.clear();
        q.take(far_slot, &mut out);
        assert_eq!(out, vec![4]);
        assert_eq!(q.cascade_moves(), 3);
        assert!(q.is_empty());
    }

    #[test]
    fn cascade_moves_each_event_at_most_once_per_level() {
        let mut q = WakeQueue::new();
        // Five events in one L1 block well ahead of the clock.
        let block = 3u64 << 12;
        for id in 0..5u32 {
            q.schedule(block + id as u64, id);
        }
        assert_eq!(q.cascade_moves(), 0);
        // Advancing within the current L0 block cascades nothing.
        q.advance_to(100);
        assert_eq!(q.cascade_moves(), 0);
        // Crossing into the block cascades exactly the five events, once.
        q.advance_to(block);
        assert_eq!(q.cascade_moves(), 5);
        // Further advances inside the block move nothing more.
        let mut out = Vec::new();
        for id in 0..5u32 {
            q.advance_to(block + id as u64);
            out.clear();
            q.take(block + id as u64, &mut out);
            assert_eq!(out, vec![id]);
        }
        assert_eq!(q.cascade_moves(), 5);
        assert!(q.is_empty());

        // An event two levels up pays one move per level it descends:
        // L2 → L1 when its 2^20 block becomes current, L1 → L0 when its
        // 2^12 block does.
        let slot = (1u64 << 20) + (5u64 << 12) + 7;
        q.schedule(slot, 42);
        q.advance_to(1u64 << 20); // 2^20 crossing: L2 → L1
        assert_eq!(q.cascade_moves(), 6);
        q.advance_to(slot); // 2^12 crossing: L1 → L0
        assert_eq!(q.cascade_moves(), 7);
        out.clear();
        q.take(slot, &mut out);
        assert_eq!(out, vec![42]);
        assert!(q.is_empty());
    }

    #[test]
    fn matches_seq_keyed_reference_heap_on_random_workload() {
        // The reference oracle keys its heap (slot, seq): pop order within
        // a slot is schedule-call order. The wheel must drain in exactly
        // that order on a workload mixing delays across every level.
        use crate::rng::SimRng;
        let mut rng = SimRng::new(42);
        let mut q = WakeQueue::new();
        let mut heap: BinaryHeap<Reverse<(Slot, u64, u32)>> = BinaryHeap::new();
        let mut seq = 0u64;
        for id in 0..512u32 {
            let s = rng.range_u64(64);
            q.schedule(s, id);
            heap.push(Reverse((s, seq, id)));
            seq += 1;
        }
        let mut processed = 0u32;
        while let Some(s) = q.next_slot() {
            q.advance_to(s);
            let mut got = Vec::new();
            q.take(s, &mut got);
            for &id in &got {
                let Reverse((hs, _, hid)) = heap.pop().expect("heap in sync");
                assert_eq!((hs, hid), (s, id));
                processed += 1;
                // Reschedule a while: delay magnitudes sweep L0 through
                // the far heap (id-dependent so slots collide often).
                if processed < 4_000 {
                    let magnitude = [12, 13, 21, 29, 37][(id % 5) as usize];
                    let d = 1 + rng.range_u64(1u64 << magnitude);
                    q.schedule(s + d, id);
                    heap.push(Reverse((s + d, seq, id)));
                    seq += 1;
                }
            }
        }
        assert!(heap.is_empty());
        assert!(q.is_empty());
    }

    #[test]
    fn take_on_eventless_slot_is_a_noop() {
        let mut q = WakeQueue::new();
        q.schedule(10, 1);
        q.advance_to(5);
        let mut out = Vec::new();
        q.take(5, &mut out);
        assert!(out.is_empty());
        assert_eq!(q.next_slot(), Some(10));
    }

    #[test]
    fn block_ends_saturate_near_u64_max() {
        // All block ends saturate to u64::MAX at the top of the slot axis;
        // a slot at u64::MAX itself is never strictly below a saturated
        // end, so it parks in the far heap — the NEVER-sentinel
        // convention.
        assert_eq!(block_end(u64::MAX - 100, SHIFT[1]), u64::MAX);
        assert_eq!(block_end(u64::MAX - 100, TOP_BITS), u64::MAX);
        assert_eq!(block_end(5, SHIFT[1]), 1 << 12);
        let mut q = WakeQueue::new();
        let base = u64::MAX - 100;
        q.advance_to(base);
        q.schedule(u64::MAX - 3, 7); // inside the saturated L0 block
        q.schedule(u64::MAX, 8); // not < any end: stays far
        assert_eq!(q.next_slot(), Some(u64::MAX - 3));
        q.advance_to(u64::MAX - 3);
        let mut out = Vec::new();
        q.take(u64::MAX - 3, &mut out);
        assert_eq!(out, vec![7]);
        assert_eq!(q.next_slot(), Some(u64::MAX));
        assert!(!q.is_empty());
    }

    #[test]
    fn oversized_bucket_capacity_is_released_after_drain() {
        // A collision burst parks far more events in one slot than the
        // steady state ever will; the drained bucket must give the memory
        // back instead of pinning it for the rest of the run.
        let mut q = WakeQueue::new();
        let burst = 16 * BUCKET_CAP as u32;
        for id in 0..burst {
            q.schedule(7, id);
        }
        let mut out = Vec::new();
        q.advance_to(7);
        q.take(7, &mut out);
        assert_eq!(out.len(), burst as usize);
        assert_eq!(out, (0..burst).collect::<Vec<_>>());
        assert!(
            q.buckets[7].spill.capacity() <= BUCKET_CAP,
            "bucket kept {} spill capacity",
            q.buckets[7].spill.capacity()
        );
        // A modest bucket keeps its warm spill allocation (hysteresis).
        for id in 0..BUCKET_CAP as u32 {
            q.schedule(9, id);
        }
        let before = q.buckets[9].spill.capacity();
        out.clear();
        q.take(9, &mut out);
        assert_eq!(q.buckets[9].spill.capacity(), before);
    }

    #[test]
    fn oversized_coarse_bucket_capacity_is_released_after_cascade() {
        let mut q = WakeQueue::new();
        // Flood one L1 bucket (block [2^12, 2^13)) far past the retained
        // cap, spreading events over its 4096 slots.
        let burst = 4 * COARSE_CAP as u32;
        let block = 1u64 << 12;
        for id in 0..burst {
            q.schedule(block + (id as u64 % (1 << 12)), id);
        }
        let idx = ((block >> SHIFT[1]) as usize) & COARSE_MASK;
        assert!(q.coarse_capacity(0, idx) >= burst as usize);
        q.advance_to(block); // cascade drains the bucket into L0
        assert_eq!(q.cascade_moves(), burst as u64);
        assert!(
            q.coarse_capacity(0, idx) <= COARSE_CAP,
            "coarse bucket kept {} capacity",
            q.coarse_capacity(0, idx)
        );
        // Everything is still there, in per-slot insertion order.
        let mut seen = 0u32;
        let mut out = Vec::new();
        while let Some(s) = q.next_slot() {
            q.advance_to(s);
            out.clear();
            q.take(s, &mut out);
            // Same-slot ids were scheduled in ascending id order.
            assert!(out.windows(2).all(|w| w[0] < w[1]), "order lost at {s}");
            seen += out.len() as u32;
        }
        assert_eq!(seen, burst);
    }

    #[test]
    fn footprint_grows_with_pending_events_and_is_station_scale() {
        let mut q = WakeQueue::new();
        let empty = q.footprint_bytes();
        assert!(empty > 0);
        let n = 100_000u32;
        for id in 0..n {
            // Spread over L0–L2 like a large quantized-ladder steady state.
            q.schedule(1 + (id as u64 * 37) % (1 << 22), id);
        }
        let full = q.footprint_bytes();
        assert!(full > empty);
        // The dominant term is the per-event storage: comfortably under
        // the 64 bytes/station capacity budget even with the fixed rings.
        assert!(
            (full - empty) / n as usize <= 64,
            "{} bytes per pending event",
            (full - empty) / n as usize
        );
    }

    mod model {
        //! The wheel against an insertion-order `BTreeMap` model.
        //!
        //! The model is the contract in its simplest form: a
        //! `BTreeMap<Slot, Vec<u32>>` whose per-slot `Vec` is append-only
        //! push order. It covers the wheel's full delta range: random
        //! workloads sweep level-boundary rollovers (deltas straddling
        //! 2^12/2^20/2^28), cascade-at-horizon (exactly-at-block-end
        //! schedules, which must park one level up), wraparound past the
        //! whole ring span (deltas beyond 2^36, through the far heap), and
        //! starting bases near block boundaries — and every drained slot
        //! must hand back exactly the model's ids, in the model's order.

        use super::*;
        use proptest::prelude::*;
        use proptest::test_runner::TestCaseError;
        use std::collections::BTreeMap;

        /// Takes slot `t` from both structures and asserts they agree.
        fn take_and_check(
            q: &mut WakeQueue,
            model: &mut BTreeMap<Slot, Vec<u32>>,
            t: Slot,
        ) -> Result<(), TestCaseError> {
            prop_assert_eq!(Some(t), model.keys().next().copied());
            q.advance_to(t);
            let mut got = Vec::new();
            q.take(t, &mut got);
            let want = model.remove(&t).expect("model has the slot");
            prop_assert_eq!(&got, &want);
            Ok(())
        }

        /// Wake delays concentrated at the wheel's decision boundaries:
        /// in-block, straddling each block end (including exactly-at-end,
        /// which must park one level up), and past the whole ring span.
        /// (The in-block range is repeated to weight the uniform choice
        /// toward the hot path.)
        fn delta() -> impl Strategy<Value = u64> {
            prop_oneof![
                0u64..(1 << 12) + 3,
                0u64..(1 << 12) + 3,
                0u64..(1 << 12) + 3,
                (1u64 << 12) - 3..(1u64 << 13) + 3,
                (1u64 << 12) - 3..(1u64 << 13) + 3,
                (1u64 << 20) - 3..(1u64 << 20) + (1 << 13),
                (1u64 << 20) - 3..(1u64 << 20) + (1 << 13),
                (1u64 << 28) - 3..(1u64 << 28) + (1 << 13),
                (1u64 << 36) - 3..(1u64 << 36) + (1 << 13),
            ]
        }

        /// Starting clocks near block boundaries of every level, so the
        /// very first schedules already sit at rollover edges.
        fn start() -> impl Strategy<Value = u64> {
            prop_oneof![
                0u64..3 * (1u64 << 12),
                0u64..3 * (1u64 << 12),
                0u64..3 * (1u64 << 12),
                (1u64 << 20) - (1 << 12)..(1u64 << 20) + (1 << 12),
                (1u64 << 28) - (1 << 12)..(1u64 << 28) + (1 << 12),
                (1u64 << 36) - (1 << 12)..(1u64 << 36) + (1 << 12),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn drains_in_model_order(
                start in start(),
                batches in proptest::collection::vec(
                    proptest::collection::vec(delta(), 1..8),
                    1..40,
                ),
            ) {
                let mut q = WakeQueue::new();
                let mut model: BTreeMap<Slot, Vec<u32>> = BTreeMap::new();
                q.advance_to(start);
                let mut now = start;
                let mut next_id = 0u32;
                for batch in &batches {
                    for &delta in batch {
                        let slot = now + delta;
                        q.schedule(slot, next_id);
                        model.entry(slot).or_default().push(next_id);
                        next_id += 1;
                        // Inline/spill split invariant for in-block pushes:
                        // spilling only happens once the inline cell is
                        // full.
                        if slot < block_end(now, SHIFT[1]) {
                            let (inline, spill) = q.bucket_shape(slot);
                            prop_assert!(spill == 0 || inline == INLINE);
                        }
                    }
                    // Drain one event slot, keeping the two in lockstep.
                    let next = q.next_slot().expect("events pending");
                    take_and_check(&mut q, &mut model, next)?;
                    now = next;
                }
                // Drain the rest.
                while let Some(next) = q.next_slot() {
                    take_and_check(&mut q, &mut model, next)?;
                }
                prop_assert!(model.is_empty());
                prop_assert!(q.is_empty());
            }
        }
    }

    #[test]
    fn cap_scratch_shrinks_only_past_hysteresis() {
        let mut v: Vec<u32> = Vec::with_capacity(10 * SCRATCH_CAP);
        cap_scratch(&mut v, SCRATCH_CAP);
        assert!(v.capacity() <= SCRATCH_CAP, "capacity {}", v.capacity());
        let mut warm: Vec<u32> = Vec::with_capacity(2 * SCRATCH_CAP);
        cap_scratch(&mut warm, SCRATCH_CAP);
        assert_eq!(warm.capacity(), 2 * SCRATCH_CAP, "within band: untouched");
        // Live entries survive a shrink.
        let mut live: Vec<u32> = Vec::with_capacity(3 * SCRATCH_CAP);
        live.extend(0..10);
        cap_scratch(&mut live, SCRATCH_CAP);
        assert_eq!(live, (0..10).collect::<Vec<_>>());
    }
}
