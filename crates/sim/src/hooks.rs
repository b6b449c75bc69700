//! Analysis hooks: observe a run without perturbing it.
//!
//! The engines are generic over a [`Hooks`] implementation that gets called
//! at every state transition. This is how the `lowsense` crate's potential
//! function `Φ(t)` (paper §4.2) is tracked incrementally without the
//! simulator knowing anything about windows, and how tests assert engine
//! invariants. [`NoHooks`] compiles to nothing: every callback it leaves
//! defaulted is an empty body, inlined away after monomorphization.
//!
//! The sparse engine additionally reports the end of each pass of its slot
//! loop through [`Hooks::on_phase`] (the dense, grouped, and reference
//! engines never call it). That is how the bench crate's cycle profiler
//! times the production loop itself rather than a copy of it.

use crate::feedback::SlotOutcome;
use crate::metrics::implicit_throughput;
use crate::packet::PacketId;
use crate::time::Slot;

/// One out-of-band snapshot of engine state, handed to
/// [`Hooks::on_sample`] every [`Hooks::sample_period`] event slots.
///
/// Every field is copied from accounting state the engine already
/// maintains (`Totals`, the live backlog/contention registers, and the
/// sparse-path memory footprints) *after* the slot resolved — taking a
/// sample never touches RNG state, packet ordering, or f64 accumulation,
/// so sampled and unsampled runs produce bit-identical `RunResult`s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineSample {
    /// Wall-clock slot the sample was taken at (the slot just resolved).
    pub slot: Slot,
    /// Event slots processed so far (slots the sparse engine actually
    /// simulated; gaps are excluded). This is the sampling clock.
    pub event_slots: u64,
    /// Packets currently in the system.
    pub backlog: u64,
    /// Packets injected so far (`N_t`).
    pub arrivals: u64,
    /// Packets delivered so far (`T_t`).
    pub successes: u64,
    /// Active slots so far (`S_t`).
    pub active_slots: u64,
    /// Active slots with zero senders and no jam, so far.
    pub empty_active: u64,
    /// Active slots with ≥ 2 senders and no jam, so far.
    pub collision_slots: u64,
    /// Jammed active slots so far (`J_t`).
    pub jammed_active: u64,
    /// Total transmissions so far.
    pub sends: u64,
    /// Total pure listens so far.
    pub listens: u64,
    /// Extra physical slots charged by the feedback model so far.
    pub overhead_slots: u64,
    /// Contention `C(t)` after the slot resolved.
    pub contention: f64,
    /// Wake-wheel heap footprint in bytes
    /// ([`WakeQueue::footprint_bytes`](crate::engine::wake::WakeQueue::footprint_bytes)).
    /// Only the sparse engine emits samples, and every sample carries it.
    pub footprint_bytes: u64,
    /// Packet-table bookkeeping bytes: the allocated id and id → index
    /// remap lanes, *not* the protocol-state lane.
    pub state_bytes: u64,
    /// Staged gather/scatter bytes: the stage plan's permutation buffers
    /// plus the per-slot state scratch (0 until a slot has staged).
    pub stage_bytes: u64,
}

impl EngineSample {
    /// Implicit throughput `(N_t + J_t) / S_t` at this sample (0/0 ⇒ 1).
    pub fn implicit_throughput(&self) -> f64 {
        implicit_throughput(self.arrivals, self.jammed_active, self.active_slots)
    }
}

/// One pass of the sparse engine's slot loop, in loop order.
///
/// [`Hooks::on_phase`] reports each phase as it *ends*. `Permute`,
/// `Gather`, and `Scatter` occur only on slots past the staging gate
/// ([`staging_applies`](crate::engine::stage::staging_applies)); below it
/// `Split` reads the state lane directly. A slot with no participant ends
/// at `Resolve`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnginePhase {
    /// Next event, silent-gap accounting, wake-set advance.
    Control,
    /// Arrivals: protocol factory and first wake draw.
    Inject,
    /// Draining the slot's wake bucket.
    Take,
    /// Radix id → address sort (staged slots).
    Permute,
    /// Handle resolution and state copy-in sweeps (staged slots).
    Gather,
    /// The `send_on_access` draws.
    Split,
    /// Jam decision and slot outcome.
    Resolve,
    /// Listener observations and contention update.
    Observe,
    /// Listener wake-delay draws.
    Wake,
    /// Listener wake-set pushes.
    Sched,
    /// Sender observations and reschedules.
    Senders,
    /// Address-ordered state copy-back (staged slots).
    Scatter,
    /// Retire, compaction, checkpoint, sampling.
    Depart,
}

impl EnginePhase {
    /// Every phase, in loop order; `ALL[p as usize] == p`.
    pub const ALL: [EnginePhase; 13] = [
        EnginePhase::Control,
        EnginePhase::Inject,
        EnginePhase::Take,
        EnginePhase::Permute,
        EnginePhase::Gather,
        EnginePhase::Split,
        EnginePhase::Resolve,
        EnginePhase::Observe,
        EnginePhase::Wake,
        EnginePhase::Sched,
        EnginePhase::Senders,
        EnginePhase::Scatter,
        EnginePhase::Depart,
    ];

    /// `(slug, label)` per phase, indexed like [`EnginePhase::ALL`].
    const NAMES: [(&'static str, &'static str); 13] = [
        ("control", "control (next event, gaps, advance)"),
        ("inject", "inject (arrivals, factory, first wake)"),
        ("take", "take (bucket drain)"),
        ("permute", "permute (radix id→address sort, staged slots)"),
        (
            "gather",
            "gather (resolve + state copy-in sweeps, staged slots)",
        ),
        ("split", "split (send_on_access draws)"),
        ("resolve", "resolve (jam decision, slot outcome)"),
        ("observe", "observe (listener cohorts, contention)"),
        ("wake", "wake (listener delay draws)"),
        ("sched", "sched (wheel pushes)"),
        ("senders", "senders (observe, reschedule)"),
        (
            "scatter",
            "scatter (address-ordered state copy-back, staged slots)",
        ),
        ("depart", "depart (retire, compaction, checkpoint)"),
    ];

    /// Stable machine-readable key (the JSON key in `BENCH_engine.json`).
    pub fn slug(self) -> &'static str {
        Self::NAMES[self as usize].0
    }

    /// What the phase covers, for human-readable tables.
    pub fn label(self) -> &'static str {
        Self::NAMES[self as usize].1
    }
}

/// Callbacks invoked by the engines as the run evolves.
///
/// All methods have empty default bodies; implement only what you need.
/// Every engine calls the state-transition callbacks; only the sparse
/// engine calls [`Hooks::on_phase`]. `P` is the protocol type, so hooks
/// can inspect protocol state (e.g. a backoff window) before and after
/// each observation.
///
/// Packet identity is always the original injection-order [`PacketId`]:
/// engines that relocate per-packet state internally (the sparse engine's
/// epoch-compacted table remaps ids to dense indices) resolve the remap
/// before calling any hook, so one id refers to one packet for the whole
/// run.
pub trait Hooks<P> {
    /// Whether this hook set actually inspects observation state pairs.
    ///
    /// Engines clone each listener's state solely to hand
    /// [`Hooks::on_observe`] its `before`/`after` pair; a hook set that
    /// leaves `on_observe` defaulted can return `false` and the hot
    /// listener path skips the clone (and the call) entirely. This is a
    /// pure engine-side elision: all accounting (contention deltas,
    /// metrics, RNG draws) is unchanged, so `RunResult`s are bit-identical
    /// either way — only the no-op calls disappear. Implementations must
    /// return a constant (the engines monomorphize it into a dead-branch
    /// removal, and may consult it once per run or once per slot).
    fn wants_observe(&self) -> bool {
        true
    }

    /// A packet entered the system in slot `t` with initial state `state`.
    fn on_inject(&mut self, t: Slot, id: PacketId, state: &P) {
        let _ = (t, id, state);
    }

    /// A packet succeeded in slot `t`; `state` is its final state.
    fn on_depart(&mut self, t: Slot, id: PacketId, state: &P) {
        let _ = (t, id, state);
    }

    /// A packet observed slot `t`; `before`/`after` bracket the state
    /// update its observation caused.
    fn on_observe(&mut self, t: Slot, id: PacketId, before: &P, after: &P) {
        let _ = (t, id, before, after);
    }

    /// Slot `t` resolved with `outcome` (called for event slots only in the
    /// sparse engine; silent gaps arrive via [`Hooks::on_gap`]).
    fn on_slot(&mut self, t: Slot, outcome: &SlotOutcome) {
        let _ = (t, outcome);
    }

    /// The sparse engine skipped slots `[from, to)` during which no packet
    /// accessed the channel and all per-packet state was constant;
    /// `jammed` of them were jammed.
    fn on_gap(&mut self, from: Slot, to: Slot, jammed: u64) {
        let _ = (from, to, jammed);
    }

    /// How often (in processed event slots) this hook set wants an
    /// [`EngineSample`]; `None` (the default) disables sampling and the
    /// engine's sampling branch compiles away entirely. Like
    /// [`Hooks::wants_observe`], implementations must return a constant:
    /// engines consult it once per run and monomorphize the dead branch
    /// out.
    fn sample_period(&self) -> Option<u64> {
        None
    }

    /// A periodic out-of-band engine snapshot, delivered every
    /// [`Hooks::sample_period`] event slots after the slot resolves.
    fn on_sample(&mut self, sample: &EngineSample) {
        let _ = sample;
    }

    /// The sparse engine finished `phase` of the current event slot (see
    /// [`EnginePhase`] for the order). Only the sparse engine calls this.
    /// The default body is empty, so hook sets that leave it alone pay
    /// nothing after monomorphization.
    fn on_phase(&mut self, phase: EnginePhase) {
        let _ = phase;
    }
}

/// The trivial hook set: observes nothing, costs nothing — every callback
/// keeps its empty default body, so a `NoHooks` run compiles to the bare
/// loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoHooks;

impl<P> Hooks<P> for NoHooks {
    fn wants_observe(&self) -> bool {
        false
    }
}

/// Combines two hook sets; both observe every event, in order.
#[derive(Debug, Clone, Default)]
pub struct Both<A, B>(pub A, pub B);

impl<P, A: Hooks<P>, B: Hooks<P>> Hooks<P> for Both<A, B> {
    fn wants_observe(&self) -> bool {
        self.0.wants_observe() || self.1.wants_observe()
    }

    fn on_inject(&mut self, t: Slot, id: PacketId, state: &P) {
        self.0.on_inject(t, id, state);
        self.1.on_inject(t, id, state);
    }

    fn on_depart(&mut self, t: Slot, id: PacketId, state: &P) {
        self.0.on_depart(t, id, state);
        self.1.on_depart(t, id, state);
    }

    fn on_observe(&mut self, t: Slot, id: PacketId, before: &P, after: &P) {
        self.0.on_observe(t, id, before, after);
        self.1.on_observe(t, id, before, after);
    }

    fn on_slot(&mut self, t: Slot, outcome: &SlotOutcome) {
        self.0.on_slot(t, outcome);
        self.1.on_slot(t, outcome);
    }

    fn on_gap(&mut self, from: Slot, to: Slot, jammed: u64) {
        self.0.on_gap(from, to, jammed);
        self.1.on_gap(from, to, jammed);
    }

    fn sample_period(&self) -> Option<u64> {
        match (self.0.sample_period(), self.1.sample_period()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn on_sample(&mut self, sample: &EngineSample) {
        self.0.on_sample(sample);
        self.1.on_sample(sample);
    }

    fn on_phase(&mut self, phase: EnginePhase) {
        self.0.on_phase(phase);
        self.1.on_phase(phase);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counter {
        injects: u32,
        departs: u32,
        observes: u32,
        slots: u32,
        gaps: u32,
        phases: u32,
    }

    impl Hooks<u8> for Counter {
        fn on_inject(&mut self, _t: Slot, _id: PacketId, _s: &u8) {
            self.injects += 1;
        }
        fn on_depart(&mut self, _t: Slot, _id: PacketId, _s: &u8) {
            self.departs += 1;
        }
        fn on_observe(&mut self, _t: Slot, _id: PacketId, _b: &u8, _a: &u8) {
            self.observes += 1;
        }
        fn on_slot(&mut self, _t: Slot, _o: &SlotOutcome) {
            self.slots += 1;
        }
        fn on_gap(&mut self, _f: Slot, _t: Slot, _j: u64) {
            self.gaps += 1;
        }
        fn on_phase(&mut self, _p: EnginePhase) {
            self.phases += 1;
        }
    }

    #[test]
    fn both_fans_out() {
        let mut both = Both(Counter::default(), Counter::default());
        Hooks::<u8>::on_inject(&mut both, 0, PacketId(0), &0);
        Hooks::<u8>::on_depart(&mut both, 0, PacketId(0), &0);
        Hooks::<u8>::on_observe(&mut both, 0, PacketId(0), &0, &1);
        Hooks::<u8>::on_slot(&mut both, 0, &SlotOutcome::Empty);
        Hooks::<u8>::on_gap(&mut both, 0, 5, 1);
        Hooks::<u8>::on_phase(&mut both, EnginePhase::Control);
        for c in [&both.0, &both.1] {
            assert_eq!(
                (c.injects, c.departs, c.observes, c.slots, c.gaps, c.phases),
                (1, 1, 1, 1, 1, 1)
            );
        }
    }

    #[test]
    fn no_hooks_is_callable() {
        let mut h = NoHooks;
        Hooks::<u8>::on_inject(&mut h, 0, PacketId(0), &0);
        Hooks::<u8>::on_gap(&mut h, 0, 1, 0);
        Hooks::<u8>::on_phase(&mut h, EnginePhase::Depart);
    }

    struct Sampler {
        period: u64,
        samples: u32,
    }

    impl Hooks<u8> for Sampler {
        fn sample_period(&self) -> Option<u64> {
            Some(self.period)
        }
        fn on_sample(&mut self, _s: &EngineSample) {
            self.samples += 1;
        }
    }

    fn zero_sample() -> EngineSample {
        EngineSample {
            slot: 0,
            event_slots: 0,
            backlog: 0,
            arrivals: 0,
            successes: 0,
            active_slots: 0,
            empty_active: 0,
            collision_slots: 0,
            jammed_active: 0,
            sends: 0,
            listens: 0,
            overhead_slots: 0,
            contention: 0.0,
            footprint_bytes: 0,
            state_bytes: 0,
            stage_bytes: 0,
        }
    }

    #[test]
    fn sample_period_defaults_off_and_both_takes_min() {
        assert_eq!(Hooks::<u8>::sample_period(&NoHooks), None);
        let a = Sampler {
            period: 64,
            samples: 0,
        };
        let b = Sampler {
            period: 16,
            samples: 0,
        };
        let mut both = Both(a, b);
        assert_eq!(Hooks::<u8>::sample_period(&both), Some(16));
        Hooks::<u8>::on_sample(&mut both, &zero_sample());
        assert_eq!((both.0.samples, both.1.samples), (1, 1));
        // One-sided: the present period wins.
        let one = Both(
            NoHooks,
            Sampler {
                period: 8,
                samples: 0,
            },
        );
        assert_eq!(Hooks::<u8>::sample_period(&one), Some(8));
    }

    #[test]
    fn sample_implicit_throughput_matches_totals_convention() {
        let mut s = zero_sample();
        assert_eq!(s.implicit_throughput(), 1.0, "0/0 => 1");
        s.arrivals = 4;
        s.jammed_active = 2;
        s.active_slots = 12;
        assert!((s.implicit_throughput() - 0.5).abs() < 1e-12);
    }
}
