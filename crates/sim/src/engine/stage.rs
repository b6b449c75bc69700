//! Address-ordered staging of a slot's participant set.
//!
//! At million-station scale the sparse engine's per-slot passes are bound
//! by memory, not math: a slot's participants arrive in insertion order,
//! which is *random* with respect to their positions in the hot state
//! lane, so every state touch is an independent cache (and, past a few
//! hundred MB, TLB) miss into a lane far larger than any cache level. The
//! fix is to split address order from processing order:
//!
//! 1. **Permute** — [`StagePlan::build_order`] sorts the participants by
//!    id with an LSD radix pass over 8-bit digits — counting + stable
//!    scatter, no comparison sort on the hot path. Id order *is* dense-
//!    address order (the table appends injections in id order and
//!    compaction is order-preserving), so the sort never touches a table
//!    lane, stays in L1, and still yields the address-ascending
//!    permutation plus its inverse `pos_of` (insertion position → scratch
//!    position).
//! 2. **Gather** — [`StagePlan::gather`] resolves the sorted ids through
//!    the remap lane, then copies their states into a contiguous scratch,
//!    both in ascending address order. Each sweep is a stream of mutually
//!    independent loads with an explicit prefetch running ahead, so misses
//!    overlap in the memory pipeline instead of serializing (see the
//!    method docs for why the sweeps are deliberately *not* fused).
//! 3. **Process** — the split/observe/wake/sender passes run against the
//!    scratch, indexing it *through `pos_of` in canonical insertion
//!    order*. Every RNG draw, observation, hook call, and contention
//!    accumulation therefore happens in exactly the (slot, seq) order the
//!    three-way oracle suite pins — bit-identical by construction; only
//!    the memory addresses moved.
//! 4. **Scatter** — [`PacketTable::scatter_from`] writes the mutated
//!    states back through the same address-sorted handles, a second
//!    streaming sweep, before the winner's depart path reads the table.
//!
//! Staging is gated ([`staging_applies`]): it pays two extra copies of
//! every participant state, which is pure overhead when the state lane
//! already fits in cache or when the participant set is too small to
//! amortize the permutation. Below the gate the engine runs the direct
//! path — the exact pre-staging machine code.

use crate::engine::table::{Dense, PacketTable};
use crate::engine::wake::{cap_scratch, SCRATCH_CAP};
use crate::packet::PacketId;

/// Minimum participants in a slot before staging pays: below this the
/// radix pass and the two copies cost more than the misses they save.
pub const STAGE_MIN_PARTICIPANTS: usize = 64;

/// Minimum hot-state-lane size before staging pays: lanes under ~4 MiB
/// live comfortably in the last-level cache, where insertion-order access
/// already hits and the gather/scatter copies are pure overhead.
pub const STAGE_MIN_LANE_BYTES: usize = 4 << 20;

/// Whether a slot with `participants` packets over a state lane of
/// `lane_bytes` should run the staged gather/scatter path.
///
/// The dual gate keeps small runs on the direct path (the 16384-tier
/// bench, and every scenario in the pinned feedback recordings, never
/// stages) while batch workloads over multi-MB lanes — the memory-wall
/// regime — stage every dense slot.
#[inline]
pub fn staging_applies(participants: usize, lane_bytes: usize) -> bool {
    participants >= STAGE_MIN_PARTICIPANTS && lane_bytes >= STAGE_MIN_LANE_BYTES
}

/// The per-slot address-sorting plan: reusable buffers for the radix
/// permutation, the address-ascending handle list, and the inverse
/// permutation mapping insertion order to scratch positions.
///
/// One plan lives for the whole run; [`build_order`](Self::build_order)
/// and [`gather`](Self::gather) refill it per staged slot and
/// [`cap`](Self::cap) returns pathological-slot excess at end-of-slot
/// like every other engine scratch vector.
#[derive(Debug, Default)]
pub struct StagePlan {
    /// Dense indices, permuted in place by the radix passes.
    keys: Vec<u32>,
    /// Insertion positions carried alongside `keys` through the sort.
    pos: Vec<u32>,
    /// Ping-pong buffers for the stable radix scatter.
    tmp_keys: Vec<u32>,
    tmp_pos: Vec<u32>,
    /// The participants' dense handles in ascending address order.
    handles: Vec<Dense>,
    /// Inverse permutation: `pos_of[k]` is the scratch position of the
    /// participant at insertion position `k`.
    pos_of: Vec<u32>,
}

impl StagePlan {
    /// An empty plan; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the slot's ordering: radix-sorts the participants by id
    /// (LSD over 8-bit digits, skipping digit columns that cannot
    /// distinguish any keys) and fills [`pos_of`](Self::pos_of). The
    /// handle list is produced by the subsequent [`gather`](Self::gather),
    /// which runs the remap-lane resolve and the state copy as two
    /// separate prefetched sweeps.
    ///
    /// Sorting by *id* yields exactly the address-ascending order: the
    /// table appends injections in id order and compaction preserves the
    /// relative order of the survivors, so for live packets dense position
    /// ascends with id (see [`PacketTable`]'s module docs). Keying the
    /// sort on the ids the caller already holds keeps the whole ordering
    /// step in L1 — no table lane is touched at all.
    ///
    /// Draws no randomness and mutates no engine state, so building the
    /// plan before the split pass leaves the RNG stream untouched.
    pub fn build_order(&mut self, participants: &[u32]) {
        let n = participants.len();
        self.keys.clear();
        self.keys.extend_from_slice(participants);
        self.pos.clear();
        self.pos.extend(0..n as u32);

        // One scan fills the histograms of every 8-bit digit column; the
        // scatter passes then run only over columns that actually
        // distinguish keys (a column whose occupied bucket holds every
        // key cannot reorder anything). Keys are distinct ids, but the
        // scatter is stable anyway.
        let mut counts = [[0u32; 256]; 4];
        for &k in &self.keys {
            counts[0][(k & 0xff) as usize] += 1;
            counts[1][((k >> 8) & 0xff) as usize] += 1;
            counts[2][((k >> 16) & 0xff) as usize] += 1;
            counts[3][(k >> 24) as usize] += 1;
        }
        self.tmp_keys.resize(n, 0);
        self.tmp_pos.resize(n, 0);
        for (digit, counts) in counts.iter_mut().enumerate() {
            if counts.iter().all(|&c| c == 0 || c as usize == n) {
                // Single occupied bucket: this digit column is constant.
                continue;
            }
            let shift = 8 * digit as u32;
            let mut sum = 0u32;
            for c in counts.iter_mut() {
                let here = *c;
                *c = sum;
                sum += here;
            }
            for (&k, &p) in self.keys.iter().zip(&self.pos) {
                let slot = &mut counts[((k >> shift) & 0xff) as usize];
                self.tmp_keys[*slot as usize] = k;
                self.tmp_pos[*slot as usize] = p;
                *slot += 1;
            }
            std::mem::swap(&mut self.keys, &mut self.tmp_keys);
            std::mem::swap(&mut self.pos, &mut self.tmp_pos);
        }
        // Ping-pong may leave the tmp buffers longer than `n` from an
        // earlier, larger slot; the truncates keep the invariant that all
        // four buffers are exactly the slot's length.
        self.keys.truncate(n);
        self.pos.truncate(n);

        self.pos_of.clear();
        self.pos_of.resize(n, 0);
        for (j, &k) in self.pos.iter().enumerate() {
            self.pos_of[k as usize] = j as u32;
        }
    }

    /// The gather: resolves the address-sorted ids through the remap lane
    /// (recording the handles for [`scatter_from`]'s write-back), then
    /// copies their states into `scratch` in ascending address order.
    ///
    /// Deliberately **two** sweeps, not one fused loop: inside a fused
    /// loop every state read depends on the remap read just before it, a
    /// two-deep miss chain that halves the memory-level parallelism the
    /// out-of-order window can extract (measured ~80 cyc/access fused vs
    /// ~55 split at the million-station tier). Kept separate, each sweep
    /// is a stream of fully independent loads, and an explicit prefetch a
    /// few iterations ahead keeps more misses in flight than the reorder
    /// window alone covers.
    ///
    /// [`scatter_from`]: PacketTable::scatter_from
    pub fn gather<P: Clone>(&mut self, table: &PacketTable<P>, scratch: &mut Vec<P>) {
        // How far ahead each sweep hints. The remap lane is cache-dense
        // (4 B entries, often L2/L3-resident), so a short lead suffices;
        // the state lane misses to DRAM, so the copy sweep hints further
        // out to cover the longer latency.
        const RESOLVE_AHEAD: usize = 16;
        const COPY_AHEAD: usize = 32;

        self.handles.clear();
        self.handles.reserve(self.keys.len());
        for (i, &id) in self.keys.iter().enumerate() {
            if let Some(&ahead) = self.keys.get(i + RESOLVE_AHEAD) {
                table.prefetch_resolve(PacketId(ahead));
            }
            self.handles.push(table.resolve(PacketId(id)));
        }
        debug_assert!(
            self.handles.windows(2).all(|w| w[0].0 < w[1].0),
            "id order diverged from dense-address order"
        );

        scratch.clear();
        scratch.reserve(self.handles.len());
        for (i, &d) in self.handles.iter().enumerate() {
            if let Some(&ahead) = self.handles.get(i + COPY_AHEAD) {
                table.prefetch_state(ahead);
            }
            scratch.push(table.state_at(d).clone());
        }
    }

    /// The participants' dense handles in ascending address order — the
    /// gather/scatter order.
    #[inline]
    pub fn handles(&self) -> &[Dense] {
        &self.handles
    }

    /// The inverse permutation: `pos_of()[k]` is the scratch position
    /// holding the state of the participant at insertion position `k`.
    #[inline]
    pub fn pos_of(&self) -> &[u32] {
        &self.pos_of
    }

    /// Allocated bytes across all plan buffers, counted against the
    /// engine's bytes-per-station capacity budget by the bench probe.
    pub fn footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.keys.capacity()
            + self.pos.capacity()
            + self.tmp_keys.capacity()
            + self.tmp_pos.capacity()
            + self.pos_of.capacity())
            * size_of::<u32>()
            + self.handles.capacity() * size_of::<Dense>()
    }

    /// End-of-slot hysteresis: returns pathological-slot excess capacity,
    /// same policy as the engine's other scratch vectors.
    pub fn cap(&mut self) {
        cap_scratch(&mut self.keys, SCRATCH_CAP);
        cap_scratch(&mut self.pos, SCRATCH_CAP);
        cap_scratch(&mut self.tmp_keys, SCRATCH_CAP);
        cap_scratch(&mut self.tmp_pos, SCRATCH_CAP);
        cap_scratch(&mut self.handles, SCRATCH_CAP);
        cap_scratch(&mut self.pos_of, SCRATCH_CAP);
    }
}

/// A slot's state arena: where the listener/sender passes read and write
/// participant states, addressed by per-slot position.
///
/// Two implementations make the direct and staged paths one piece of
/// code: for [`PacketTable`] a position is a dense-lane index (the direct
/// path — identical machine code to the pre-staging engine), for `Vec<P>`
/// it is a scratch index (the staged path). The passes are generic over
/// this trait, so bit-identity between the paths is by monomorphization of
/// the same statements, not by keeping two copies in sync.
pub(crate) trait SlotArena<P> {
    /// The state at per-slot position `pos`.
    fn at_mut(&mut self, pos: u32) -> &mut P;
    /// Four distinct positions' states as a batch-lane array for the
    /// 4-wide observe/draw surface.
    fn four_at(&mut self, pos: [u32; 4]) -> [&mut P; 4];
}

impl<P> SlotArena<P> for PacketTable<P> {
    #[inline]
    fn at_mut(&mut self, pos: u32) -> &mut P {
        self.state_at_mut(Dense(pos))
    }
    #[inline]
    fn four_at(&mut self, pos: [u32; 4]) -> [&mut P; 4] {
        self.lanes4_at(pos.map(Dense))
    }
}

impl<P> SlotArena<P> for Vec<P> {
    #[inline]
    fn at_mut(&mut self, pos: u32) -> &mut P {
        &mut self[pos as usize]
    }
    #[inline]
    fn four_at(&mut self, pos: [u32; 4]) -> [&mut P; 4] {
        self.as_mut_slice()
            .get_disjoint_mut(pos.map(|p| p as usize))
            .expect("scratch positions are distinct")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_of(n: u32) -> PacketTable<u64> {
        let mut t = PacketTable::new();
        for id in 0..n {
            t.insert(PacketId(id), 1000 + id as u64);
        }
        t
    }

    /// Splitmix-style scramble for deterministic pseudo-random id orders.
    fn scramble(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    #[test]
    fn plan_sorts_by_address_and_inverts_exactly() {
        let t = table_of(1000);
        // Participants in a scrambled (insertion) order.
        let mut ids: Vec<u32> = (0..1000).collect();
        ids.sort_by_key(|&id| scramble(id as u64));
        let mut plan = StagePlan::new();
        plan.build_order(&ids);
        let mut scratch: Vec<u64> = Vec::new();
        plan.gather(&t, &mut scratch);

        // Handles are strictly ascending by dense address.
        let addrs: Vec<usize> = plan.handles().iter().map(|d| d.index()).collect();
        assert!(addrs.windows(2).all(|w| w[0] < w[1]), "not address-sorted");
        assert_eq!(addrs.len(), 1000);

        // The inverse permutation routes insertion position k to the
        // scratch slot holding that participant's handle and state.
        for (k, &id) in ids.iter().enumerate() {
            let j = plan.pos_of()[k] as usize;
            assert_eq!(plan.handles()[j], t.resolve(PacketId(id)), "k={k}");
            assert_eq!(scratch[j], 1000 + id as u64, "k={k}");
        }
    }

    #[test]
    fn plan_handles_survivors_after_compaction() {
        let mut t = table_of(300);
        for id in (0..300).step_by(2) {
            t.retire(PacketId(id));
        }
        t.compact();
        let ids: Vec<u32> = (1..300).step_by(2).rev().collect();
        let mut plan = StagePlan::new();
        plan.build_order(&ids);
        let mut scratch: Vec<u64> = Vec::new();
        plan.gather(&t, &mut scratch);
        let addrs: Vec<usize> = plan.handles().iter().map(|d| d.index()).collect();
        assert!(addrs.windows(2).all(|w| w[0] < w[1]));
        for (k, &id) in ids.iter().enumerate() {
            let j = plan.pos_of()[k] as usize;
            assert_eq!(plan.handles()[j], t.resolve(PacketId(id)));
        }
    }

    #[test]
    fn plan_reuse_shrinks_cleanly_between_slots() {
        // A big slot followed by a tiny one: the second build must not see
        // stale entries from the first, and cap() returns the excess.
        let t = table_of(20_000);
        let big: Vec<u32> =
            (0..20_000)
                .map(|k| (scramble(k) % 20_000) as u32)
                .fold(Vec::new(), |mut v, id| {
                    if !v.contains(&id) && v.len() < 6000 {
                        v.push(id);
                    }
                    v
                });
        let mut plan = StagePlan::new();
        let mut scratch: Vec<u64> = Vec::new();
        plan.build_order(&big);
        plan.gather(&t, &mut scratch);
        assert_eq!(plan.handles().len(), big.len());

        plan.build_order(&[7, 3, 11]);
        plan.gather(&t, &mut scratch);
        assert_eq!(plan.handles().len(), 3);
        assert_eq!(plan.pos_of().len(), 3);
        let addrs: Vec<usize> = plan.handles().iter().map(|d| d.index()).collect();
        assert_eq!(addrs, vec![3, 7, 11]);
        assert_eq!(plan.pos_of(), &[1, 0, 2]);

        plan.cap();
        assert!(plan.footprint_bytes() <= 6 * SCRATCH_CAP * 8);
    }

    #[test]
    fn gate_requires_both_fanout_and_lane_size() {
        assert!(staging_applies(
            STAGE_MIN_PARTICIPANTS,
            STAGE_MIN_LANE_BYTES
        ));
        assert!(!staging_applies(
            STAGE_MIN_PARTICIPANTS - 1,
            STAGE_MIN_LANE_BYTES
        ));
        assert!(!staging_applies(
            STAGE_MIN_PARTICIPANTS,
            STAGE_MIN_LANE_BYTES - 1
        ));
        // With 16 B `LowSensing` states: the 16384 bench tier (256 KiB
        // lane) and 100k stations (1.6 MB) never stage.
        assert!(!staging_applies(2000, 16_384 * 16));
        assert!(!staging_applies(2000, 100_000 * 16));
        // The 300k and 1M tiers do.
        assert!(staging_applies(2000, 300_000 * 16));
        assert!(staging_applies(2000, 1_000_000 * 16));
    }

    #[test]
    fn staged_arena_matches_table_arena() {
        // The same mutations through both SlotArena impls land on the same
        // logical packets.
        let mut t = table_of(64);
        let ids: Vec<u32> = (0..64).collect();
        let mut plan = StagePlan::new();
        plan.build_order(&ids);
        let mut scratch: Vec<u64> = Vec::new();
        plan.gather(&t, &mut scratch);

        for k in 0..64u32 {
            *SlotArena::at_mut(&mut scratch, plan.pos_of()[k as usize]) += 5;
        }
        let quad = [
            plan.pos_of()[0],
            plan.pos_of()[1],
            plan.pos_of()[2],
            plan.pos_of()[3],
        ];
        let lanes = SlotArena::four_at(&mut scratch, quad);
        *lanes[2] += 100;

        t.scatter_from(plan.handles(), &scratch);
        assert_eq!(*t.state(PacketId(0)), 1005);
        assert_eq!(*t.state(PacketId(2)), 1107);
        assert_eq!(*t.state(PacketId(63)), 1068);
    }
}
