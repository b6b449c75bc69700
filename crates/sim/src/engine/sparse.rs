//! The sparse (event-driven) engine.
//!
//! Exploits the [`SparseProtocol`] contract — per-packet state is frozen
//! between channel accesses — to jump directly from access to access. Slots
//! in which no packet accesses the channel are provably silent for every
//! would-be listener, so they are accounted in bulk (`O(1)` per gap, with
//! jam counts drawn from the jammer's range sampler) instead of simulated.
//!
//! Scheduling runs on the hierarchical timing-wheel
//! [`WakeQueue`](crate::engine::wake) rather than a binary heap, so a
//! channel access costs `O(1)` amortized bookkeeping instead of `O(log n)`
//! scattered heap traffic even at million-station horizons; per-packet
//! state lives in the epoch-compacted
//! [`PacketTable`], which keeps the live
//! population dense in memory as the run drains; and the listener loop runs
//! four packets at a time through the protocol layer's batched observe/draw
//! surface ([`SparseProtocol::observe4`] / [`SparseProtocol::next_wake4`]),
//! which evaluates the per-listen transcendentals SIMD-wide (see
//! `BENCH_engine.json`, which records this engine and the reference on a
//! bit-identical workload).
//!
//! Within a slot, the passes address states by per-slot *position*, with
//! two position spaces behind one generic pass body (`slot_passes`, over
//! the [`SlotArena`](crate::engine::stage) arena trait). On the **direct**
//! path the split pass resolves each participant's id → dense index
//! **once**, and the observe/wake passes touch only the hot state lane
//! (see [`table`](crate::engine::table)), never re-reading the remap. On
//! the **staged** path — taken when the participant set is large *and* the
//! state lane has outgrown the cache
//! ([`staging_applies`]) — the
//! engine radix-sorts the participants by dense address, **gathers** their
//! states into prefetched contiguous scratch sweeps, runs the same
//! passes against the scratch in canonical insertion order via the inverse
//! permutation, and **scatters** the mutated states back before the depart
//! path reads the table (see [`stage`](crate::engine::stage)). Either way,
//! handles never span a compaction: the engine compacts only at
//! end-of-slot, after a depart.
//!
//! Within one slot, packets are processed in **insertion order** — the
//! order their wake events were scheduled — which the wheel hands back for
//! free, with no per-slot sort. The previous heap-based loop is
//! retained as
//! [`run_sparse_reference`](crate::engine::sparse_reference::run_sparse_reference)
//! with its heap re-keyed on `(slot, insertion_seq)` so it pops the exact
//! same order, and the `sparse_equivalence` tests pin this engine to
//! **bit-identical** [`RunResult`]s against it: same RNG draw order, same
//! floating-point accumulation order, same hook sequence. Any edit here
//! must preserve that ordering exactly.
//!
//! Cost: `O(accesses + arrivals + event slots)` in total, amortized. An
//! access is one wheel push plus at most four cascade moves (a wake more
//! than `2^36` slots out adds one `O(log n)` far-heap push); an event slot
//! adds one bounded bitmap scan for the next pending slot (at most 64 L0
//! words, or 4 words per coarse level); a silent gap is `O(1)`. No slot
//! sorts its participants: insertion order comes out of the wheel, and the
//! staged path's address permutation is a radix sort, linear in the
//! participant count. Because `LOW-SENSING BACKOFF` performs only polylog
//! accesses per packet — the very property the paper proves —
//! million-packet Monte Carlo runs are cheap. Exactness relative to the
//! dense engine is enforced by the cross-engine statistical tests.

use crate::arrivals::ArrivalProcess;
use crate::config::SimConfig;
use crate::engine::core::EngineCore;
use crate::engine::stage::{staging_applies, SlotArena, StagePlan};
use crate::engine::table::PacketTable;
use crate::engine::wake::{cap_scratch, WakeQueue, SCRATCH_CAP};
use crate::feedback::{with_model, FeedbackModel, Observation, SlotOutcome};
use crate::hooks::{EnginePhase, EngineSample, Hooks};
use crate::jamming::Jammer;
use crate::metrics::{RunResult, Totals};
use crate::packet::PacketId;
use crate::protocol::SparseProtocol;
use crate::rng::SimRng;
use crate::time::{offset, wake_slot, Slot};

/// Runs an event-driven simulation.
///
/// Semantically equivalent to [`run_dense`](crate::engine::dense::run_dense)
/// for protocols honouring the [`SparseProtocol`] contract, but exponentially
/// faster when packets sleep most of the time.
///
/// # Examples
///
/// ```
/// use lowsense_sim::prelude::*;
/// use lowsense_sim::dist::geometric;
///
/// #[derive(Clone)]
/// struct Fixed(f64);
/// impl Protocol for Fixed {
///     fn intent(&mut self, rng: &mut SimRng) -> Intent {
///         if rng.bernoulli(self.0) { Intent::Send } else { Intent::Sleep }
///     }
///     fn observe(&mut self, _obs: &Observation) {}
///     fn send_probability(&self) -> f64 { self.0 }
///     fn next_wake(&mut self, rng: &mut SimRng) -> Option<u64> {
///         Some(geometric(rng, self.0))
///     }
/// }
/// impl SparseProtocol for Fixed {
///     fn send_on_access(&mut self, _rng: &mut SimRng) -> bool { true }
/// }
///
/// let result = run_sparse(
///     &SimConfig::new(1),
///     Batch::new(4),
///     NoJam,
///     |_rng| Fixed(0.05),
///     &mut NoHooks,
/// );
/// assert_eq!(result.totals.successes, 4);
/// ```
pub fn run_sparse<P, F, A, J, H>(
    cfg: &SimConfig,
    arrivals: A,
    jammer: J,
    factory: F,
    hooks: &mut H,
) -> RunResult
where
    P: SparseProtocol,
    F: FnMut(&mut SimRng) -> P,
    A: ArrivalProcess,
    J: Jammer,
    H: Hooks<P>,
{
    with_model!(cfg.model, |model| {
        run_sparse_with(cfg, arrivals, jammer, model, factory, hooks)
    })
}

/// The slot's listener (observe + wake) and sender passes, generic over
/// the [`SlotArena`] the participant states live in: the packet table on
/// the direct path (a position is a dense-lane index), the staged scratch
/// on the staged path (a position is a scratch index, routed through the
/// stage plan's inverse permutation by the caller). Both paths are this
/// one function monomorphized, so every RNG draw, observation, hook call,
/// and contention accumulation happens in the same canonical insertion
/// order on either path — bit-identity between the paths is by
/// construction, not by keeping two loop bodies in sync.
///
/// The listener loop is split into an observation pass, a wake-draw pass,
/// and a schedule pass, each sweeping the whole cohort before the next
/// starts. Observations draw no randomness and scheduling draws nothing
/// and touches no state, so the only RNG draws are the wake draws — and
/// those run in the slot's insertion order in all three shapes
/// (interleaved reference loop, two-pass, three-pass): the RNG stream,
/// the hook sequence, the contention accumulation order, and the
/// `queue.schedule` call order are all exactly the reference oracle's.
/// The observe and wake passes run four listeners at a time through the
/// protocol's batched observe/draw surface (`observe4` / `next_wake4`),
/// whose contract is bit-identical lanes in cohort order; the wake pass
/// parks its `wake_slot` results in the caller's `wakes` buffer so the
/// schedule pass streams the queue without re-touching the state arena.
/// Cohort collection is trivial: `listeners` is already in the slot's
/// insertion order (the reference oracle's processing order), so the
/// cohorts are consecutive quadruples, with the tail (< 4 packets) going
/// through the scalar methods the defaults fall back to anyway. Each of
/// the four passes ends with a [`Hooks::on_phase`] report.
#[allow(clippy::too_many_arguments)]
fn slot_passes<P, A, J, M, H, S>(
    arena: &mut S,
    core: &mut EngineCore<A, J, M>,
    queue: &mut WakeQueue,
    hooks: &mut H,
    te: Slot,
    outcome: &SlotOutcome,
    model: M,
    contention: &mut f64,
    senders: &[PacketId],
    senders_pos: &[u32],
    listeners: &[PacketId],
    listeners_pos: &[u32],
    wakes: &mut Vec<Option<Slot>>,
) where
    P: SparseProtocol,
    A: ArrivalProcess,
    J: Jammer,
    M: FeedbackModel,
    H: Hooks<P>,
    S: SlotArena<P>,
{
    let fb = model.listener_feedback(outcome);
    let obs = Observation::listener(te, fb);

    // Observation pass: every listener sees the slot's feedback before any
    // wake draw happens. Observations draw no randomness, so reordering
    // them ahead of the draws leaves the RNG stream untouched, and the
    // contention f64s are added in the same insertion order as the
    // reference loop.
    let mut quads = listeners.chunks_exact(4);
    let mut quads_pos = listeners_pos.chunks_exact(4);
    for (quad, quad_pos) in quads.by_ref().zip(quads_pos.by_ref()) {
        let mut lanes = arena.four_at([quad_pos[0], quad_pos[1], quad_pos[2], quad_pos[3]]);
        if hooks.wants_observe() {
            let before = [
                lanes[0].clone(),
                lanes[1].clone(),
                lanes[2].clone(),
                lanes[3].clone(),
            ];
            P::observe4(&mut lanes, &obs);
            for (k, &id) in quad.iter().enumerate() {
                core.metrics.note_listen(id);
                *contention += lanes[k].send_probability() - before[k].send_probability();
                hooks.on_observe(te, id, &before[k], &*lanes[k]);
            }
        } else {
            // Inert hooks: the `before` states exist only to feed
            // `on_observe`, so skip the clones and keep just the prior
            // send probabilities. The contention update below adds the
            // exact same f64s in the exact same order as the cloning
            // branch, so results stay bit-identical.
            let before_sp = [
                lanes[0].send_probability(),
                lanes[1].send_probability(),
                lanes[2].send_probability(),
                lanes[3].send_probability(),
            ];
            P::observe4(&mut lanes, &obs);
            for (k, &id) in quad.iter().enumerate() {
                core.metrics.note_listen(id);
                *contention += lanes[k].send_probability() - before_sp[k];
            }
        }
    }
    for (&id, &pos) in quads.remainder().iter().zip(quads_pos.remainder()) {
        core.metrics.note_listen(id);
        let p = arena.at_mut(pos);
        if hooks.wants_observe() {
            let before = p.clone();
            p.observe(&obs);
            *contention += p.send_probability() - before.send_probability();
            hooks.on_observe(te, id, &before, p);
        } else {
            // Same clone elision as the quad path (see above): identical
            // arithmetic, no state pair materialized for inert hooks.
            let before_sp = p.send_probability();
            p.observe(&obs);
            *contention += p.send_probability() - before_sp;
        }
    }
    hooks.on_phase(EnginePhase::Observe);

    // Wake-draw pass: the slot's only RNG draws, in the slot's insertion
    // order — exactly the reference loop's stream. The resolved wake
    // slots park in `wakes` (parallel to `listeners`) instead of going to
    // the queue one by one.
    wakes.clear();
    let mut quads_pos = listeners_pos.chunks_exact(4);
    for quad_pos in quads_pos.by_ref() {
        let mut lanes = arena.four_at([quad_pos[0], quad_pos[1], quad_pos[2], quad_pos[3]]);
        let delays = P::next_wake4(&mut lanes, &mut core.rng);
        wakes.extend(delays.iter().map(|&d| wake_slot(te + 1, d)));
    }
    for &pos in quads_pos.remainder() {
        let delay = arena.at_mut(pos).next_wake(&mut core.rng);
        wakes.push(wake_slot(te + 1, delay));
    }
    hooks.on_phase(EnginePhase::Wake);

    // Schedule pass: pure queue traffic, no state-arena or RNG touches,
    // same `queue.schedule` call sequence as the reference loop (listener
    // insertion order), so every bucket's insertion order is preserved.
    // The lookahead hints the bucket a few pushes out — a dense slot
    // scatters its schedules across the whole wheel, so each push would
    // otherwise stall on a cold bucket line.
    for (i, (&id, &wake)) in listeners.iter().zip(wakes.iter()).enumerate() {
        if let Some(&Some(ahead)) = wakes.get(i + 16) {
            queue.prefetch_schedule(ahead);
        }
        if let Some(slot) = wake {
            queue.schedule(slot, id.0);
        }
    }
    hooks.on_phase(EnginePhase::Sched);

    let winner = match *outcome {
        SlotOutcome::Success { id } => Some(id),
        _ => None,
    };
    for (&id, &pos) in senders.iter().zip(senders_pos) {
        core.metrics.note_send(id);
        let succeeded = winner == Some(id);
        let obs = Observation::sender(te, model.sender_feedback(outcome, succeeded), succeeded);
        let p = arena.at_mut(pos);
        if hooks.wants_observe() {
            let before = p.clone();
            p.observe(&obs);
            *contention += p.send_probability() - before.send_probability();
            hooks.on_observe(te, id, &before, p);
        } else {
            // Same clone elision as the listener paths above.
            let before_sp = p.send_probability();
            p.observe(&obs);
            *contention += p.send_probability() - before_sp;
        }
        if !succeeded {
            let delay = p.next_wake(&mut core.rng);
            if let Some(slot) = wake_slot(te + 1, delay) {
                queue.schedule(slot, id.0);
            }
        }
    }
    hooks.on_phase(EnginePhase::Senders);
}

/// The sparse loop body for one monomorphized feedback model. Its RNG
/// draws, observations, hook calls, and contention sums happen in the same
/// order as in
/// [`run_sparse_reference`](crate::engine::sparse_reference::run_sparse_reference),
/// which keeps a `(slot, seq)`-keyed heap instead of the wheel and one
/// interleaved per-packet pass instead of `slot_passes`; the equivalence
/// suite pins the two bit-identical.
///
/// The loop reports the end of every pass through [`Hooks::on_phase`], in
/// [`EnginePhase`] order: an event slot emits `Control, Inject, Take`, then
/// either `Resolve` (nobody accessed) or `[Permute, Gather,] Split,
/// Resolve, Observe, Wake, Sched, Senders, [Scatter,] Depart`, the
/// bracketed phases on staged slots only. Phase reports read nothing and
/// write nothing the run depends on; with inert hooks they compile away.
fn run_sparse_with<P, F, A, J, M, H>(
    cfg: &SimConfig,
    arrivals: A,
    jammer: J,
    model: M,
    mut factory: F,
    hooks: &mut H,
) -> RunResult
where
    P: SparseProtocol,
    F: FnMut(&mut SimRng) -> P,
    A: ArrivalProcess,
    J: Jammer,
    M: FeedbackModel,
    H: Hooks<P>,
{
    let mut core = EngineCore::new(cfg, arrivals, jammer, model);

    // Epoch-compacted packet table: live states stay dense in memory as
    // the run drains, and the id → dense-index remap keeps original ids
    // valid for the queue, hooks, metrics, and traces throughout.
    let mut packets: PacketTable<P> = PacketTable::new();
    // Each live packet has exactly one scheduled access event in the queue.
    let mut queue = WakeQueue::new();
    let mut active_count: u64 = 0;
    let mut contention = 0.0f64;

    let mut participants: Vec<u32> = Vec::new();
    let mut senders: Vec<PacketId> = Vec::new();
    let mut listeners: Vec<PacketId> = Vec::new();
    // Per-slot arena positions, parallel to `senders` / `listeners`: dense
    // indices on the direct path (the id → index remap is paid once in the
    // split pass), scratch indices on the staged path. The observe and
    // wake passes index the slot's arena directly either way.
    let mut senders_pos: Vec<u32> = Vec::new();
    let mut listeners_pos: Vec<u32> = Vec::new();
    // Resolved wake slots, parallel to `listeners`, handed from the
    // wake-draw pass to the schedule pass (see `slot_passes`).
    let mut wakes: Vec<Option<Slot>> = Vec::new();
    // Staged gather/scatter state (see crate::engine::stage): the address
    // permutation plan and the contiguous per-slot state scratch. Only
    // touched for slots past the staging gate.
    let mut stage = StagePlan::new();
    let mut scratch: Vec<P> = Vec::new();

    // First slot not yet accounted.
    let mut now: Slot = 0;

    // Out-of-band flight-recorder sampling, clocked on processed event
    // slots. `sample_period` is contractually constant, so with the
    // `NoHooks` default the whole branch is dead code after monomorphization
    // — and even when live, a sample only *reads* accounting state the
    // engine already maintains (after the slot resolved), so sampled and
    // unsampled runs stay bit-identical.
    let sample_every: Option<u64> = hooks.sample_period();
    let mut event_slots: u64 = 0;

    // Builds one snapshot from already-final accounting state.
    #[allow(clippy::too_many_arguments)]
    fn engine_sample(
        totals: &Totals,
        te: Slot,
        event_slots: u64,
        backlog: u64,
        contention: f64,
        footprint_bytes: u64,
        state_bytes: u64,
        stage_bytes: u64,
    ) -> EngineSample {
        EngineSample {
            slot: te,
            event_slots,
            backlog,
            arrivals: totals.arrivals,
            successes: totals.successes,
            active_slots: totals.active_slots,
            empty_active: totals.empty_active,
            collision_slots: totals.collision_slots,
            jammed_active: totals.jammed_active,
            sends: totals.sends,
            listens: totals.listens,
            overhead_slots: totals.overhead_slots,
            contention,
            footprint_bytes,
            state_bytes,
            stage_bytes,
        }
    }

    // Accounts a silent gap `[from, to)`, forwarding active gaps to hooks.
    fn gap<A: ArrivalProcess, J: Jammer, M: FeedbackModel, P, H: Hooks<P>>(
        core: &mut EngineCore<A, J, M>,
        hooks: &mut H,
        from: Slot,
        to: Slot,
        backlog: u64,
        contention: f64,
    ) {
        if let Some(jammed) = core.account_gap(from, to, backlog, contention) {
            hooks.on_gap(from, to, jammed);
        }
    }

    loop {
        if core.steps_exhausted() {
            break;
        }
        let next_access: Option<Slot> = queue.next_slot();
        let next_arrival: Option<Slot> = core
            .peek_arrival(now, active_count, contention)
            .map(|(s, _)| s);
        let te = match (next_access, next_arrival) {
            (None, None) => {
                // Nothing will ever happen again. If packets remain (a
                // degenerate protocol that never accesses), the rest of the
                // horizon is provably silent: account it in bulk, then stop.
                if active_count > 0 {
                    let end = offset(core.limits().max_slot, 1);
                    if end > now {
                        gap(&mut core, hooks, now, end, active_count, contention);
                    }
                }
                break;
            }
            (a, b) => a.unwrap_or(Slot::MAX).min(b.unwrap_or(Slot::MAX)),
        };
        if te > core.limits().max_slot {
            // Account the remaining gap up to the limit, then stop.
            let end = offset(core.limits().max_slot, 1);
            if end > now {
                gap(&mut core, hooks, now, end, active_count, contention);
            }
            break;
        }

        // Account the silent gap [now, te).
        if te > now {
            gap(&mut core, hooks, now, te, active_count, contention);
            core.checkpoint(te - 1, active_count, contention);
        }

        // Move the wheel's clock up to the slot being processed, cascading
        // any coarse bucket whose block has become current.
        queue.advance_to(te);
        hooks.on_phase(EnginePhase::Control);

        // Inject all arrivals scheduled for slot te.
        while let Some((ta, count)) = core.peek_arrival(te, active_count, contention) {
            if ta != te {
                break;
            }
            core.consume_arrival();
            for _ in 0..count {
                let id = core.note_inject(te);
                let mut p = factory(&mut core.rng);
                contention += p.send_probability();
                hooks.on_inject(te, id, &p);
                active_count += 1;
                // Fresh packets may access from their injection slot onward.
                let delay = p.next_wake(&mut core.rng);
                packets.insert(id, p);
                if let Some(slot) = wake_slot(te, delay) {
                    queue.schedule(slot, id.0);
                }
            }
        }
        hooks.on_phase(EnginePhase::Inject);

        // Collect every packet accessing the channel in slot te, in
        // insertion order (the (slot, seq)-keyed reference heap's pop
        // order).
        participants.clear();
        queue.take(te, &mut participants);
        hooks.on_phase(EnginePhase::Take);

        if participants.is_empty() {
            // Arrival-only slot: nobody accesses; resolve as empty/jammed
            // for accounting (no listener exists to observe it).
            if active_count > 0 {
                let jam = core.adaptive_jam(te, active_count, contention);
                let outcome = core.resolve(te, jam, &[]);
                hooks.on_slot(te, &outcome);
                core.checkpoint(te, active_count, contention);
            }
            event_slots += 1;
            if let Some(period) = sample_every {
                if event_slots.is_multiple_of(period) {
                    hooks.on_sample(&engine_sample(
                        &core.metrics.totals,
                        te,
                        event_slots,
                        active_count,
                        contention,
                        queue.footprint_bytes() as u64,
                        packets.lane_bytes() as u64,
                        (stage.footprint_bytes() + scratch.capacity() * size_of::<P>()) as u64,
                    ));
                }
            }
            now = te + 1;
            core.step_done();
            hooks.on_phase(EnginePhase::Resolve);
            continue;
        }

        // Split participants into senders and pure listeners. Below the
        // staging gate (the direct path) the split resolves each packet's
        // dense handle exactly once and later passes index the hot state
        // lane through it. Past the gate — a high-fanout slot over a
        // cache-busting state lane — the slot is staged: the participants'
        // states are gathered into `scratch` in ascending dense-address
        // order (one streaming sweep instead of a miss per packet), the
        // split and every later pass run against the scratch in canonical
        // insertion order via the plan's inverse permutation, and the
        // mutated states are scattered back before the depart path reads
        // the table. Either way no handle survives past this slot's
        // (potential) end-of-slot compaction.
        let staged = staging_applies(
            participants.len(),
            packets.dense_len() * std::mem::size_of::<P>(),
        );
        senders.clear();
        listeners.clear();
        senders_pos.clear();
        listeners_pos.clear();
        if staged {
            // Ordering and gather draw no randomness, so the RNG stream
            // starts exactly where the direct path's split would start it.
            // `build_order` sorts the ids in L1 (id order is dense-address
            // order); `gather` resolves and copies in two prefetched
            // ascending sweeps.
            stage.build_order(&participants);
            hooks.on_phase(EnginePhase::Permute);
            stage.gather(&packets, &mut scratch);
            hooks.on_phase(EnginePhase::Gather);
            let pos_of = stage.pos_of();
            for (k, &id) in participants.iter().enumerate() {
                let pos = pos_of[k];
                if scratch[pos as usize].send_on_access(&mut core.rng) {
                    senders.push(PacketId(id));
                    senders_pos.push(pos);
                } else {
                    listeners.push(PacketId(id));
                    listeners_pos.push(pos);
                }
            }
        } else {
            for &id in &participants {
                let d = packets.resolve(PacketId(id));
                if packets.state_at_mut(d).send_on_access(&mut core.rng) {
                    senders.push(PacketId(id));
                    senders_pos.push(d.0);
                } else {
                    listeners.push(PacketId(id));
                    listeners_pos.push(d.0);
                }
            }
        }
        hooks.on_phase(EnginePhase::Split);

        let jam = core.jam_decision(te, active_count, contention, &senders);
        let outcome = core.resolve(te, jam, &senders);
        hooks.on_slot(te, &outcome);
        hooks.on_phase(EnginePhase::Resolve);

        // The observe/wake/sender passes, against whichever arena holds
        // this slot's states (see `slot_passes`). On the staged path the
        // mutated scratch is scattered back through the address-sorted
        // handles before the winner's depart block below reads the table.
        if staged {
            slot_passes(
                &mut scratch,
                &mut core,
                &mut queue,
                hooks,
                te,
                &outcome,
                model,
                &mut contention,
                &senders,
                &senders_pos,
                &listeners,
                &listeners_pos,
                &mut wakes,
            );
            packets.scatter_from(stage.handles(), &scratch);
            hooks.on_phase(EnginePhase::Scatter);
        } else {
            slot_passes(
                &mut packets,
                &mut core,
                &mut queue,
                hooks,
                te,
                &outcome,
                model,
                &mut contention,
                &senders,
                &senders_pos,
                &listeners,
                &listeners_pos,
                &mut wakes,
            );
        }

        let winner = match outcome {
            SlotOutcome::Success { id } => Some(id),
            _ => None,
        };
        if let Some(id) = winner {
            let p = packets.state(id);
            contention -= p.send_probability();
            hooks.on_depart(te, id, p);
            packets.retire(id);
            core.note_depart(id, te);
            active_count -= 1;
            // End of the epoch? Compacting between slots moves memory
            // only: processing order is owned by the queue and ids stay
            // valid, so results are bit-identical either way.
            packets.maybe_compact();
        }

        // A pathological collision burst can balloon the per-slot scratch;
        // give the excess back so one bad slot does not pin memory for the
        // rest of the run.
        cap_scratch(&mut participants, SCRATCH_CAP);
        cap_scratch(&mut senders, SCRATCH_CAP);
        cap_scratch(&mut listeners, SCRATCH_CAP);
        cap_scratch(&mut senders_pos, SCRATCH_CAP);
        cap_scratch(&mut listeners_pos, SCRATCH_CAP);
        cap_scratch(&mut wakes, SCRATCH_CAP);
        cap_scratch(&mut scratch, SCRATCH_CAP);
        stage.cap();

        core.checkpoint(te, active_count, contention);
        event_slots += 1;
        if let Some(period) = sample_every {
            if event_slots.is_multiple_of(period) {
                hooks.on_sample(&engine_sample(
                    &core.metrics.totals,
                    te,
                    event_slots,
                    active_count,
                    contention,
                    queue.footprint_bytes() as u64,
                    packets.lane_bytes() as u64,
                    (stage.footprint_bytes() + scratch.capacity() * size_of::<P>()) as u64,
                ));
            }
        }
        now = te + 1;
        core.step_done();
        hooks.on_phase(EnginePhase::Depart);
    }

    core.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{Batch, Bernoulli, Trace};
    use crate::config::Limits;
    use crate::dist::geometric;
    use crate::feedback::Intent;
    use crate::hooks::NoHooks;
    use crate::jamming::{NoJam, PeriodicBurst, RandomJam, ReactiveAny};
    use crate::protocol::Protocol;

    /// Memoryless access-probability protocol; sends on every access.
    #[derive(Clone)]
    struct Fixed(f64);
    impl Protocol for Fixed {
        fn intent(&mut self, rng: &mut SimRng) -> Intent {
            if rng.bernoulli(self.0) {
                Intent::Send
            } else {
                Intent::Sleep
            }
        }
        fn observe(&mut self, _obs: &Observation) {}
        fn send_probability(&self) -> f64 {
            self.0
        }
        fn next_wake(&mut self, rng: &mut SimRng) -> Option<u64> {
            Some(geometric(rng, self.0))
        }
    }
    impl SparseProtocol for Fixed {
        fn send_on_access(&mut self, _rng: &mut SimRng) -> bool {
            true
        }
    }

    #[test]
    fn batch_drains() {
        let r = run_sparse(
            &SimConfig::new(1),
            Batch::new(16),
            NoJam,
            |_| Fixed(0.02),
            &mut NoHooks,
        );
        assert_eq!(r.totals.successes, 16);
        assert!(r.drained());
        let t = &r.totals;
        assert_eq!(
            t.active_slots,
            t.empty_active + t.successes + t.collision_slots + t.jammed_active
        );
    }

    #[test]
    fn gap_slots_are_counted_as_active_empties() {
        // One packet with tiny access probability: almost all slots are
        // silent gaps, but they are active (the packet is in the system).
        let r = run_sparse(
            &SimConfig::new(2),
            Batch::new(1),
            NoJam,
            |_| Fixed(0.001),
            &mut NoHooks,
        );
        assert_eq!(r.totals.successes, 1);
        assert!(r.totals.active_slots > 50, "{}", r.totals.active_slots);
        assert_eq!(
            r.totals.active_slots,
            r.totals.empty_active + r.totals.successes
        );
    }

    #[test]
    fn jam_counts_in_gaps_match_rate() {
        let cfg = SimConfig::new(3).limits(Limits::until_slot(100_000));
        let r = run_sparse(
            &cfg,
            Batch::new(1),
            RandomJam::new(0.2),
            |_| Fixed(1e-7), // essentially never accesses within the horizon
            &mut NoHooks,
        );
        let frac = r.totals.jammed_active as f64 / r.totals.active_slots as f64;
        assert!((frac - 0.2).abs() < 0.02, "jam fraction {frac}");
        assert_eq!(r.totals.successes, 0);
    }

    #[test]
    fn deterministic_jammer_exact_in_gaps() {
        let cfg = SimConfig::new(4).limits(Limits::until_slot(999));
        let r = run_sparse(
            &cfg,
            Batch::new(1),
            PeriodicBurst::new(10, 3, 0),
            |_| Fixed(1e-9),
            &mut NoHooks,
        );
        assert_eq!(r.totals.active_slots, 1000);
        assert_eq!(r.totals.jammed_active, 300);
    }

    #[test]
    fn inactive_gaps_not_accounted() {
        let r = run_sparse(
            &SimConfig::new(5),
            Trace::new(vec![(0, 1), (5000, 1)]),
            NoJam,
            |_| Fixed(0.5),
            &mut NoHooks,
        );
        assert_eq!(r.totals.successes, 2);
        assert!(
            r.totals.active_slots < 100,
            "active slots {}",
            r.totals.active_slots
        );
    }

    #[test]
    fn reactive_any_starves_until_budget_spent() {
        let r = run_sparse(
            &SimConfig::new(6),
            Batch::new(1),
            ReactiveAny::new(10),
            |_| Fixed(0.5),
            &mut NoHooks,
        );
        // The first 10 transmissions are jammed; the 11th succeeds.
        assert_eq!(r.totals.successes, 1);
        assert_eq!(r.totals.sends, 11);
        assert_eq!(r.totals.jammed_active, 10);
    }

    #[test]
    fn bernoulli_stream_reaches_all_packets() {
        let r = run_sparse(
            &SimConfig::new(7),
            Bernoulli::new(0.01).with_total(200),
            NoJam,
            |_| Fixed(0.2),
            &mut NoHooks,
        );
        assert_eq!(r.totals.arrivals, 200);
        assert_eq!(r.totals.successes, 200);
    }

    #[test]
    fn max_slot_limit_stops_run() {
        let cfg = SimConfig::new(8).limits(Limits::until_slot(500));
        let r = run_sparse(&cfg, Batch::new(3), NoJam, |_| Fixed(1e-9), &mut NoHooks);
        assert_eq!(r.totals.successes, 0);
        assert_eq!(r.totals.active_slots, 501); // slots 0..=500
        assert_eq!(r.totals.backlog(), 3);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            run_sparse(
                &SimConfig::new(42),
                Batch::new(64),
                RandomJam::new(0.05),
                |_| Fixed(0.03),
                &mut NoHooks,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.totals, b.totals);
        assert_eq!(a.access_counts(), b.access_counts());
    }

    #[test]
    fn hooks_gap_coverage_is_complete() {
        // Sum of gap lengths + event slots == active slots.
        #[derive(Default)]
        struct GapSum {
            gap_slots: u64,
            event_slots: u64,
        }
        impl Hooks<Fixed> for GapSum {
            fn on_gap(&mut self, from: Slot, to: Slot, _jammed: u64) {
                self.gap_slots += to - from;
            }
            fn on_slot(&mut self, _t: Slot, _o: &SlotOutcome) {
                self.event_slots += 1;
            }
        }
        let mut hooks = GapSum::default();
        let r = run_sparse(
            &SimConfig::new(9),
            Batch::new(8),
            NoJam,
            |_| Fixed(0.01),
            &mut hooks,
        );
        assert_eq!(hooks.gap_slots + hooks.event_slots, r.totals.active_slots);
    }

    #[test]
    fn phase_reports_follow_the_loop_grammar() {
        // Every event slot reports `Control, Inject, Take`, then either
        // `Resolve` alone (nobody accessed) or the full direct-path pass
        // sequence. A jammed 64-packet stream has both kinds (its arrival
        // slots mostly see no access) and stays far below the staging
        // gate, so `Permute`/`Gather`/`Scatter` must never appear.
        #[derive(Default)]
        struct PhaseLog {
            phases: Vec<EnginePhase>,
            slots: u64,
        }
        impl Hooks<Fixed> for PhaseLog {
            fn on_slot(&mut self, _t: Slot, _o: &SlotOutcome) {
                self.slots += 1;
            }
            fn on_phase(&mut self, phase: EnginePhase) {
                self.phases.push(phase);
            }
        }
        use EnginePhase::*;
        let mut log = PhaseLog::default();
        let r = run_sparse(
            &SimConfig::new(11),
            Bernoulli::new(0.05).with_total(64),
            RandomJam::new(0.2),
            |_| Fixed(0.02),
            &mut log,
        );
        assert_eq!(r.totals.successes, 64);
        let (mut empty, mut busy) = (0u64, 0u64);
        let mut rest = &log.phases[..];
        while !rest.is_empty() {
            assert!(rest.starts_with(&[Control, Inject, Take]), "{rest:?}");
            rest = &rest[3..];
            if rest.first() == Some(&Resolve) {
                empty += 1;
                rest = &rest[1..];
            } else {
                let busy_slot = [Split, Resolve, Observe, Wake, Sched, Senders, Depart];
                assert!(rest.starts_with(&busy_slot), "{rest:?}");
                busy += 1;
                rest = &rest[busy_slot.len()..];
            }
        }
        assert!(empty > 0 && busy > 0, "empty {empty}, busy {busy}");
        assert_eq!(
            empty + busy,
            log.slots,
            "one report sequence per event slot"
        );
    }

    #[test]
    fn depart_ids_stay_original_across_table_compaction() {
        // 300 packets drain to zero, which walks the packet table through
        // several epoch compactions (threshold 32 dead, half-full). Hooks
        // must keep seeing injection-order ids throughout — the table's
        // dense shuffling is invisible — and each packet departs exactly
        // once.
        #[derive(Default)]
        struct Departs {
            seen: Vec<u32>,
        }
        impl Hooks<Fixed> for Departs {
            fn on_depart(&mut self, _t: Slot, id: PacketId, _state: &Fixed) {
                self.seen.push(id.0);
            }
        }
        let mut hooks = Departs::default();
        let r = run_sparse(
            &SimConfig::new(21),
            Batch::new(300),
            NoJam,
            |_| Fixed(0.02),
            &mut hooks,
        );
        assert_eq!(r.totals.successes, 300);
        hooks.seen.sort_unstable();
        assert_eq!(hooks.seen, (0..300).collect::<Vec<_>>());
    }

    #[test]
    fn never_waking_protocol_accounts_whole_horizon() {
        /// Accesses the channel exactly never.
        #[derive(Clone)]
        struct Mute;
        impl Protocol for Mute {
            fn intent(&mut self, _rng: &mut SimRng) -> Intent {
                Intent::Sleep
            }
            fn observe(&mut self, _obs: &Observation) {}
            fn send_probability(&self) -> f64 {
                0.0
            }
            // Deliberately relies on the default `next_wake` → None.
        }
        impl SparseProtocol for Mute {
            fn send_on_access(&mut self, _rng: &mut SimRng) -> bool {
                false
            }
        }
        let cfg = SimConfig::new(10).limits(Limits::until_slot(999));
        let r = run_sparse(&cfg, Batch::new(2), NoJam, |_| Mute, &mut NoHooks);
        assert_eq!(r.totals.successes, 0);
        assert_eq!(r.totals.active_slots, 1000);
        assert_eq!(r.totals.empty_active, 1000);
    }
}
