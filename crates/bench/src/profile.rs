//! Phase-by-phase cycle profile of the sparse engine's hot loop.
//!
//! [`run_profiled`] is an **instrumented replica** of `run_sparse`'s loop
//! (same statements, same order, with a TSC read between phases), and
//! [`profile_sparse_smoke`] runs it over the standard smoke workload while
//! validating every rep against the real engine — the replica's `RunResult`
//! totals must equal `run_sparse`'s on the same scenario, so the numbers
//! cannot silently describe a stale copy of the loop.
//!
//! Phase timestamps cost ~8 cycles each (`rdtsc`) and are placed per slot
//! and per pass — the listener work is three whole-cohort passes (observe,
//! wake draws, schedule), so a dense slot pays three reads for all its
//! listeners, not three per 4-listener quad. Treat the shares as accurate
//! to a point or two.
//!
//! The replica is also where the capacity tier's memory budget is measured:
//! a [`CapacityProbe`] passed to [`run_profiled`] samples the wake wheel's
//! footprint, the packet table's bookkeeping lanes, and the staged
//! gather/scatter buffers (address plan + state scratch) every 1024 event
//! slots, yielding the peak engine-overhead bytes per live station that the
//! million-station tier budgets (protocol state is reported separately —
//! its size belongs to the protocol, not the engine).

use lowsense::{LowSensing, Params};
use lowsense_sim::arrivals::{ArrivalProcess, Batch};
use lowsense_sim::config::{Limits, SimConfig};
use lowsense_sim::engine::{staging_applies, Dense, EngineCore, PacketTable, StagePlan, WakeQueue};
use lowsense_sim::feedback::{Observation, SlotOutcome};
use lowsense_sim::hooks::{Hooks, NoHooks};
use lowsense_sim::jamming::{Jammer, NoJam};
use lowsense_sim::metrics::{MetricsConfig, RunResult};
use lowsense_sim::packet::PacketId;
use lowsense_sim::protocol::{Protocol, SparseProtocol};
use lowsense_sim::rng::SimRng;
use lowsense_sim::scenario::scenarios;
use lowsense_sim::time::{offset, wake_slot, Slot};

/// Cycle (or nanosecond, off x86) timestamp for phase accounting.
#[inline(always)]
pub fn tsc() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `rdtsc` has no preconditions; it only reads the counter.
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        use std::time::Instant;
        static START: OnceLock<Instant> = OnceLock::new();
        START.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// One instrumented phase of the loop: a stable machine-readable slug (the
/// JSON key in `BENCH_engine.json`) and the human description.
pub struct Phase {
    /// Stable key used in JSON output and CI canaries.
    pub slug: &'static str,
    /// What the phase covers, for the human-readable table.
    pub label: &'static str,
}

/// The thirteen phases of the sparse hot loop, in loop order.
///
/// The `permute`, `gather`, and `scatter` phases cover the staged
/// gather/scatter path and accumulate zero cycles on slots below the
/// staging gate (small tiers run the direct path, where `split` reads the
/// state lane in insertion order). On staged slots, `split` covers only
/// the `send_on_access` draws against the contiguous scratch — the
/// address-sorted state-lane traffic it used to pay is what `permute` +
/// `gather` + `scatter` now account for explicitly.
pub const PHASES: [Phase; 13] = [
    Phase {
        slug: "control",
        label: "control (next event, gaps, advance)",
    },
    Phase {
        slug: "inject",
        label: "inject (arrivals, factory, first wake)",
    },
    Phase {
        slug: "take",
        label: "take (bucket drain)",
    },
    Phase {
        slug: "permute",
        label: "permute (radix id→address sort, staged slots)",
    },
    Phase {
        slug: "gather",
        label: "gather (resolve + state copy-in sweeps, staged slots)",
    },
    Phase {
        slug: "split",
        label: "split (send_on_access draws)",
    },
    Phase {
        slug: "resolve",
        label: "resolve (jam decision, slot outcome)",
    },
    Phase {
        slug: "observe",
        label: "observe (listener cohorts, contention)",
    },
    Phase {
        slug: "wake",
        label: "wake (listener delay draws)",
    },
    Phase {
        slug: "sched",
        label: "sched (calendar pushes)",
    },
    Phase {
        slug: "senders",
        label: "senders (observe, reschedule)",
    },
    Phase {
        slug: "scatter",
        label: "scatter (address-ordered state copy-back, staged slots)",
    },
    Phase {
        slug: "depart",
        label: "depart (retire, compaction, checkpoint)",
    },
];

/// Accumulated cycles per phase across every profiled rep.
#[derive(Default)]
pub struct Profile {
    /// Cycle totals, indexed like [`PHASES`].
    pub cycles: [u64; PHASES.len()],
}

impl Profile {
    #[inline(always)]
    fn add(&mut self, phase: usize, from: u64, to: u64) {
        self.cycles[phase] += to.wrapping_sub(from);
    }

    /// Total cycles across all phases.
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Fraction of total cycles spent in phase `i`.
    pub fn share(&self, i: usize) -> f64 {
        self.cycles[i] as f64 / self.total().max(1) as f64
    }
}

/// A profiled run of the standard smoke workload: the per-phase cycle
/// totals plus the access count they amortize over.
pub struct SmokeProfile {
    /// Accumulated per-phase cycles over all reps.
    pub profile: Profile,
    /// Channel accesses (sends + listens) across all reps — the engines'
    /// unit of work, and the denominator of [`SmokeProfile::cyc_per_access`].
    pub accesses: u64,
    /// Number of measured reps.
    pub reps: u64,
}

impl SmokeProfile {
    /// Instrumented-loop cycles per channel access, all phases summed.
    pub fn cyc_per_access(&self) -> f64 {
        self.profile.total() as f64 / self.accesses.max(1) as f64
    }
}

/// Publishes a smoke profile into a telemetry sink under the same stable
/// names the rest of the workspace observes through: one
/// `bench.phase.<slug>.cycles` counter and `.share` gauge per [`PHASES`]
/// entry, plus the headline `bench.cyc_per_access`. With the
/// [`NoTelemetry`](lowsense_obs::NoTelemetry) default this compiles to
/// nothing — the same off-path contract as the engine hooks.
pub fn publish_phases<T: lowsense_obs::Telemetry>(smoke: &SmokeProfile, out: &mut T) {
    if !out.enabled() {
        return;
    }
    out.add("bench.reps", smoke.reps);
    out.add("bench.accesses", smoke.accesses);
    out.set("bench.cyc_per_access", smoke.cyc_per_access());
    for (i, phase) in PHASES.iter().enumerate() {
        out.add(
            &format!("bench.phase.{}.cycles", phase.slug),
            smoke.profile.cycles[i],
        );
        out.set(
            &format!("bench.phase.{}.share", phase.slug),
            smoke.profile.share(i),
        );
    }
}

/// Peak memory observed by [`run_profiled`]'s periodic sampling.
///
/// "Engine overhead" is the wake wheel's resident footprint plus the packet
/// table's bookkeeping lanes (ids + remap) — everything the engine spends
/// *per station* beyond the protocol state itself. The protocol-state lane
/// is tracked separately: its size is the protocol's contract
/// (`LowSensing` alone is 16 B), not the engine's.
#[derive(Default)]
pub struct CapacityProbe {
    /// Peak bytes across the wake wheel, the table's id/remap lanes, and
    /// the staging buffers (plan + state scratch).
    pub peak_engine_bytes: usize,
    /// Peak bytes in the protocol-state lane.
    pub peak_state_bytes: usize,
    /// Peak bytes in the staged gather/scatter machinery alone (the stage
    /// plan's permutation buffers plus the per-slot state scratch) — a
    /// sub-slice of [`peak_engine_bytes`](Self::peak_engine_bytes), broken
    /// out so the staging cost stays visible in `BENCH_engine.json`.
    pub peak_stage_bytes: usize,
    /// Largest live-station count seen at any sample point.
    pub peak_live: u64,
    /// Number of samples taken (one per 1024 event slots).
    pub samples: u64,
}

impl CapacityProbe {
    fn sample<P>(
        &mut self,
        queue: &WakeQueue,
        packets: &PacketTable<P>,
        stage: &StagePlan,
        scratch_bytes: usize,
        live: u64,
    ) {
        let staging = stage.footprint_bytes() + scratch_bytes;
        let engine = queue.footprint_bytes() + packets.lane_bytes() + staging;
        self.peak_engine_bytes = self.peak_engine_bytes.max(engine);
        self.peak_state_bytes = self.peak_state_bytes.max(packets.state_bytes());
        self.peak_stage_bytes = self.peak_stage_bytes.max(staging);
        self.peak_live = self.peak_live.max(live);
        self.samples += 1;
    }

    /// Peak engine-overhead bytes per peak live station — the figure the
    /// million-station tier's ≤ 64 B/station budget is checked against.
    pub fn bytes_per_station(&self) -> f64 {
        self.peak_engine_bytes as f64 / self.peak_live.max(1) as f64
    }
}

/// `run_sparse` for `LowSensing`/`NoJam`/`NoHooks` (the smoke workload),
/// statement-for-statement, with phase timestamps. Inert hooks only: the
/// clone-elision branch is the one the benchmark exercises.
///
/// When `probe` is given, engine memory is sampled once per 1024 event
/// slots (a cold path on 0.1% of slots; the phase shares are unaffected).
/// Local mirror of the engine's per-slot scratch hysteresis (the sim-crate
/// originals are crate-private): shrink back to `cap` only once capacity
/// exceeds twice `cap`, so steady-state slots never reallocate but a
/// pathological burst's allocation is released instead of being carried —
/// and counted by the capacity probe — for the rest of the run.
const SCRATCH_CAP: usize = 4096;

#[inline]
fn cap_scratch<T>(v: &mut Vec<T>, cap: usize) {
    if v.capacity() > 2 * cap {
        v.shrink_to(cap);
    }
}

pub fn run_profiled<A: ArrivalProcess, J: Jammer>(
    cfg: &SimConfig,
    arrivals: A,
    jammer: J,
    profile: &mut Profile,
    mut probe: Option<&mut CapacityProbe>,
) -> RunResult {
    type P = LowSensing;
    let factory = |_: &mut SimRng| LowSensing::new(Params::default());
    let hooks = &mut NoHooks;

    let mut core = EngineCore::new(cfg, arrivals, jammer);
    let mut packets: PacketTable<P> = PacketTable::new();
    let mut queue = WakeQueue::new();
    let mut active_count: u64 = 0;
    let mut contention = 0.0f64;
    let mut participants: Vec<u32> = Vec::new();
    let mut senders: Vec<PacketId> = Vec::new();
    let mut listeners: Vec<PacketId> = Vec::new();
    let mut senders_at: Vec<Dense> = Vec::new();
    let mut listeners_at: Vec<Dense> = Vec::new();
    // Staged-path mirrors of the `_at` vectors: scratch positions instead
    // of dense handles, plus the address plan and the state scratch.
    let mut senders_pos: Vec<u32> = Vec::new();
    let mut listeners_pos: Vec<u32> = Vec::new();
    let mut wakes: Vec<Option<Slot>> = Vec::new();
    let mut stage = StagePlan::new();
    let mut scratch: Vec<P> = Vec::new();
    let mut event_slots: u64 = 0;
    let mut now: Slot = 0;

    let mut t0 = tsc();
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
                if active_count > 0 {
                    let end = offset(core.limits().max_slot, 1);
                    if end > now {
                        core.account_gap(now, end, active_count, contention);
                    }
                }
                break;
            }
            (a, b) => a.unwrap_or(Slot::MAX).min(b.unwrap_or(Slot::MAX)),
        };
        if te > core.limits().max_slot {
            let end = offset(core.limits().max_slot, 1);
            if end > now {
                core.account_gap(now, end, active_count, contention);
            }
            break;
        }
        if te > now {
            core.account_gap(now, te, active_count, contention);
            core.checkpoint(te - 1, active_count, contention);
        }
        queue.advance_to(te);
        let t1 = tsc();
        profile.add(0, t0, t1);

        while let Some((ta, count)) = core.peek_arrival(te, active_count, contention) {
            if ta != te {
                break;
            }
            core.consume_arrival();
            for _ in 0..count {
                let id = core.note_inject(te);
                let mut p = factory(&mut core.rng);
                contention += p.send_probability();
                <NoHooks as Hooks<P>>::on_inject(hooks, te, id, &p);
                active_count += 1;
                let delay = p.next_wake(&mut core.rng);
                packets.insert(id, p);
                if let Some(slot) = wake_slot(te, delay) {
                    queue.schedule(slot, id.0);
                }
            }
        }
        let t2 = tsc();
        profile.add(1, t1, t2);

        // Capacity sampling sits right after injection — the instant the
        // queue and table are fullest on a batch workload.
        event_slots += 1;
        if event_slots % 1024 == 1 {
            if let Some(p) = probe.as_deref_mut() {
                p.sample(
                    &queue,
                    &packets,
                    &stage,
                    scratch.capacity() * std::mem::size_of::<P>(),
                    active_count,
                );
            }
        }

        participants.clear();
        queue.take(te, &mut participants);
        let t3 = tsc();
        profile.add(2, t2, t3);

        if participants.is_empty() {
            if active_count > 0 {
                let jam = core.adaptive_jam(te, active_count, contention);
                let outcome = core.resolve(te, jam, &[]);
                <NoHooks as Hooks<P>>::on_slot(hooks, te, &outcome);
                core.checkpoint(te, active_count, contention);
            }
            now = te + 1;
            core.step_done();
            t0 = tsc();
            profile.add(6, t3, t0);
            continue;
        }

        // Split, with the same staging gate as the engine: direct slots
        // resolve handles in insertion order; staged slots first build the
        // address plan (permute), stream the states into the scratch
        // (gather), and split against the scratch through the inverse
        // permutation.
        let staged = staging_applies(
            participants.len(),
            packets.dense_len() * std::mem::size_of::<P>(),
        );
        senders.clear();
        listeners.clear();
        senders_at.clear();
        listeners_at.clear();
        senders_pos.clear();
        listeners_pos.clear();
        let t4;
        if staged {
            stage.build_order(&participants);
            let tperm = tsc();
            profile.add(3, t3, tperm);
            stage.gather(&packets, &mut scratch);
            let tgath = tsc();
            profile.add(4, tperm, tgath);
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
            t4 = tsc();
            profile.add(5, tgath, t4);
        } else {
            for &id in &participants {
                let d = packets.resolve(PacketId(id));
                let p = packets.state_at_mut(d);
                if p.send_on_access(&mut core.rng) {
                    senders.push(PacketId(id));
                    senders_at.push(d);
                } else {
                    listeners.push(PacketId(id));
                    listeners_at.push(d);
                }
            }
            t4 = tsc();
            profile.add(5, t3, t4);
        }

        let jam = core.jam_decision(te, active_count, contention, &senders);
        let outcome = core.resolve(te, jam, &senders);
        <NoHooks as Hooks<P>>::on_slot(hooks, te, &outcome);
        let fb = outcome.feedback();
        let obs = Observation {
            slot: te,
            feedback: fb,
            sent: false,
            succeeded: false,
        };
        let tp = tsc();
        profile.add(6, t4, tp);

        let winner = match outcome {
            SlotOutcome::Success { id } => Some(id),
            _ => None,
        };
        // The listener and sender passes, per path. The staged arm indexes
        // the scratch by position; the direct arm is the pre-staging loop
        // verbatim. Phase indices are shared (observe 7, wake 8, sched 9,
        // senders 10); only the staged arm accrues scatter (11). The
        // listener work is three whole-cohort passes mirroring
        // `slot_passes` — one timestamp per pass, not per quad.
        let t6 = if staged {
            let mut quads = listeners.chunks_exact(4);
            let mut quads_pos = listeners_pos.chunks_exact(4);
            for (quad, quad_pos) in quads.by_ref().zip(quads_pos.by_ref()) {
                let mut lanes = scratch
                    .get_disjoint_mut([
                        quad_pos[0] as usize,
                        quad_pos[1] as usize,
                        quad_pos[2] as usize,
                        quad_pos[3] as usize,
                    ])
                    .expect("scratch positions are distinct");
                let before_sp = [
                    lanes[0].send_probability(),
                    lanes[1].send_probability(),
                    lanes[2].send_probability(),
                    lanes[3].send_probability(),
                ];
                P::observe4(&mut lanes, &obs);
                for (k, &id) in quad.iter().enumerate() {
                    core.metrics.note_listen(id);
                    contention += lanes[k].send_probability() - before_sp[k];
                }
            }
            for (&id, &pos) in quads.remainder().iter().zip(quads_pos.remainder()) {
                core.metrics.note_listen(id);
                let p = &mut scratch[pos as usize];
                let before_sp = p.send_probability();
                p.observe(&obs);
                contention += p.send_probability() - before_sp;
            }
            let tq = tsc();
            profile.add(7, tp, tq);

            wakes.clear();
            let mut quads_pos = listeners_pos.chunks_exact(4);
            for quad_pos in quads_pos.by_ref() {
                let mut lanes = scratch
                    .get_disjoint_mut([
                        quad_pos[0] as usize,
                        quad_pos[1] as usize,
                        quad_pos[2] as usize,
                        quad_pos[3] as usize,
                    ])
                    .expect("scratch positions are distinct");
                let delays = P::next_wake4(&mut lanes, &mut core.rng);
                wakes.extend(delays.iter().map(|&d| wake_slot(te + 1, d)));
            }
            for &pos in quads_pos.remainder() {
                let delay = scratch[pos as usize].next_wake(&mut core.rng);
                wakes.push(wake_slot(te + 1, delay));
            }
            let tr = tsc();
            profile.add(8, tq, tr);

            for (i, (&id, &wake)) in listeners.iter().zip(wakes.iter()).enumerate() {
                if let Some(&Some(ahead)) = wakes.get(i + 16) {
                    queue.prefetch_schedule(ahead);
                }
                if let Some(slot) = wake {
                    queue.schedule(slot, id.0);
                }
            }
            let t5 = tsc();
            profile.add(9, tr, t5);

            for (&id, &pos) in senders.iter().zip(&senders_pos) {
                core.metrics.note_send(id);
                let succeeded = winner == Some(id);
                let obs = Observation {
                    slot: te,
                    feedback: fb,
                    sent: true,
                    succeeded,
                };
                let p = &mut scratch[pos as usize];
                let before_sp = p.send_probability();
                p.observe(&obs);
                contention += p.send_probability() - before_sp;
                if !succeeded {
                    let delay = p.next_wake(&mut core.rng);
                    if let Some(slot) = wake_slot(te + 1, delay) {
                        queue.schedule(slot, id.0);
                    }
                }
            }
            let t6s = tsc();
            profile.add(10, t5, t6s);

            packets.scatter_from(stage.handles(), &scratch);
            let t6 = tsc();
            profile.add(11, t6s, t6);
            t6
        } else {
            let mut quads = listeners.chunks_exact(4);
            let mut quads_at = listeners_at.chunks_exact(4);
            for (quad, quad_at) in quads.by_ref().zip(quads_at.by_ref()) {
                let mut lanes = packets.lanes4_at([quad_at[0], quad_at[1], quad_at[2], quad_at[3]]);
                let before_sp = [
                    lanes[0].send_probability(),
                    lanes[1].send_probability(),
                    lanes[2].send_probability(),
                    lanes[3].send_probability(),
                ];
                P::observe4(&mut lanes, &obs);
                for (k, &id) in quad.iter().enumerate() {
                    core.metrics.note_listen(id);
                    contention += lanes[k].send_probability() - before_sp[k];
                }
            }
            for (&id, &d) in quads.remainder().iter().zip(quads_at.remainder()) {
                core.metrics.note_listen(id);
                let p = packets.state_at_mut(d);
                let before_sp = p.send_probability();
                p.observe(&obs);
                contention += p.send_probability() - before_sp;
            }
            let tq = tsc();
            profile.add(7, tp, tq);

            wakes.clear();
            let mut quads_at = listeners_at.chunks_exact(4);
            for quad_at in quads_at.by_ref() {
                let mut lanes = packets.lanes4_at([quad_at[0], quad_at[1], quad_at[2], quad_at[3]]);
                let delays = P::next_wake4(&mut lanes, &mut core.rng);
                wakes.extend(delays.iter().map(|&d| wake_slot(te + 1, d)));
            }
            for &d in quads_at.remainder() {
                let delay = packets.state_at_mut(d).next_wake(&mut core.rng);
                wakes.push(wake_slot(te + 1, delay));
            }
            let tr = tsc();
            profile.add(8, tq, tr);

            for (i, (&id, &wake)) in listeners.iter().zip(wakes.iter()).enumerate() {
                if let Some(&Some(ahead)) = wakes.get(i + 16) {
                    queue.prefetch_schedule(ahead);
                }
                if let Some(slot) = wake {
                    queue.schedule(slot, id.0);
                }
            }
            let t5 = tsc();
            profile.add(9, tr, t5);

            for (&id, &d) in senders.iter().zip(&senders_at) {
                core.metrics.note_send(id);
                let succeeded = winner == Some(id);
                let obs = Observation {
                    slot: te,
                    feedback: fb,
                    sent: true,
                    succeeded,
                };
                let p = packets.state_at_mut(d);
                let before_sp = p.send_probability();
                p.observe(&obs);
                contention += p.send_probability() - before_sp;
                if !succeeded {
                    let delay = p.next_wake(&mut core.rng);
                    if let Some(slot) = wake_slot(te + 1, delay) {
                        queue.schedule(slot, id.0);
                    }
                }
            }
            let t6 = tsc();
            profile.add(10, t5, t6);
            t6
        };

        if let Some(id) = winner {
            let p = packets.state(id);
            contention -= p.send_probability();
            <NoHooks as Hooks<P>>::on_depart(hooks, te, id, p);
            packets.retire(id);
            core.metrics.note_depart(id, te);
            active_count -= 1;
            packets.maybe_compact();
        }
        // Mirror of the engine's end-of-slot scratch hysteresis, so the
        // capacity probe sees the same steady-state allocations the real
        // loop carries (a burst's staging buffers are released, not held
        // at their high-water mark for the rest of the run).
        cap_scratch(&mut participants, SCRATCH_CAP);
        cap_scratch(&mut senders, SCRATCH_CAP);
        cap_scratch(&mut listeners, SCRATCH_CAP);
        cap_scratch(&mut senders_at, SCRATCH_CAP);
        cap_scratch(&mut listeners_at, SCRATCH_CAP);
        cap_scratch(&mut senders_pos, SCRATCH_CAP);
        cap_scratch(&mut listeners_pos, SCRATCH_CAP);
        cap_scratch(&mut wakes, SCRATCH_CAP);
        cap_scratch(&mut scratch, SCRATCH_CAP);
        stage.cap();
        core.checkpoint(te, active_count, contention);
        now = te + 1;
        core.step_done();
        t0 = tsc();
        profile.add(12, t6, t0);
    }

    core.finish()
}

/// Profiles the standard smoke workload (`sparse_lsb_16384` shape with
/// `packets` packets): one discarded warm-up, then `reps` measured seeds,
/// each validated against the real `run_sparse` totals.
///
/// # Panics
///
/// Panics if the instrumented replica's totals ever diverge from the real
/// engine's — the guarantee that the profile describes the current loop.
pub fn profile_sparse_smoke(packets: u64, reps: u64) -> SmokeProfile {
    let mut profile = Profile::default();
    let mut accesses = 0u64;
    // Warm-up, discarded.
    let _ = run_profiled(
        &SimConfig::new(0).metrics(MetricsConfig::totals_only()),
        Batch::new(packets),
        NoJam,
        &mut Profile::default(),
        None,
    );
    for seed in 1..=reps {
        let cfg = SimConfig::new(seed).metrics(MetricsConfig::totals_only());
        let r = run_profiled(&cfg, Batch::new(packets), NoJam, &mut profile, None);
        accesses += r.totals.accesses();

        // Keep the replica honest: it must reproduce the real engine.
        let real = scenarios::batch_drain(packets)
            .totals_only()
            .seeded(seed)
            .run_sparse(|_| LowSensing::new(Params::default()));
        assert_eq!(
            r.totals, real.totals,
            "instrumented replica diverged from run_sparse (seed {seed})"
        );
    }
    SmokeProfile {
        profile,
        accesses,
        reps,
    }
}

/// Profiles the million-station capacity workload: `stations` stations
/// batch-injected at slot 0, horizon capped at `until_slot`, `reps`
/// measured seeds (no warm-up — at this scale one rep amortizes its own
/// cache warming). Returns the phase profile plus the [`CapacityProbe`]
/// peaks sampled across all reps.
///
/// # Panics
///
/// Panics if the instrumented replica's totals ever diverge from the real
/// `run_sparse` on the same capped scenario.
pub fn profile_sparse_capacity(
    stations: u64,
    until_slot: Slot,
    reps: u64,
) -> (SmokeProfile, CapacityProbe) {
    let mut profile = Profile::default();
    let mut probe = CapacityProbe::default();
    let mut accesses = 0u64;
    for seed in 1..=reps {
        let cfg = SimConfig::new(seed)
            .metrics(MetricsConfig::totals_only())
            .limits(Limits::until_slot(until_slot));
        let r = run_profiled(
            &cfg,
            Batch::new(stations),
            NoJam,
            &mut profile,
            Some(&mut probe),
        );
        accesses += r.totals.accesses();

        // Keep the replica honest at capacity scale too.
        let real = scenarios::batch_drain(stations)
            .totals_only()
            .until_slot(until_slot)
            .seeded(seed)
            .run_sparse(|_| LowSensing::new(Params::default()));
        assert_eq!(
            r.totals, real.totals,
            "instrumented replica diverged from run_sparse (capacity seed {seed})"
        );
    }
    (
        SmokeProfile {
            profile,
            accesses,
            reps,
        },
        probe,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowsense_obs::{NoTelemetry, Registry};

    #[test]
    fn publish_phases_uses_stable_slug_names() {
        let mut profile = Profile::default();
        profile.cycles[0] = 75; // control
        profile.cycles[6] = 25; // resolve
        let smoke = SmokeProfile {
            profile,
            accesses: 10,
            reps: 1,
        };
        let mut reg = Registry::new();
        publish_phases(&smoke, &mut reg);
        assert_eq!(reg.counter("bench.phase.control.cycles"), 75);
        assert_eq!(reg.counter("bench.phase.resolve.cycles"), 25);
        assert_eq!(reg.counter("bench.phase.gather.cycles"), 0);
        assert_eq!(reg.gauge("bench.cyc_per_access"), Some(10.0));
        let share = reg.gauge("bench.phase.control.share").unwrap();
        assert!((share - 0.75).abs() < 1e-12);
        // Every slug appears exactly once among the counters.
        let phase_counters = reg
            .counters()
            .filter(|(k, _)| k.starts_with("bench.phase."))
            .count();
        assert_eq!(phase_counters, PHASES.len());
        // The disabled sink takes the zero-cost early return.
        publish_phases(&smoke, &mut NoTelemetry);
    }
}
