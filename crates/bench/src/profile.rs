//! Phase-by-phase cycle profile of the sparse engine's hot loop.
//!
//! [`EngineProbe`] is a [`Hooks`] set for the production `run_sparse`
//! loop. The engine reports the end of every pass of its slot loop through
//! [`Hooks::on_phase`]; the probe charges the `rdtsc` delta since the
//! previous report to the phase that just ended, so the phase cycles of a
//! run telescope to the time spent inside it. [`profile_sparse_smoke`] and
//! [`profile_sparse_capacity`] run the standard smoke and capacity
//! workloads through `Scenario::run_sparse_hooked` with the probe attached
//! — there is no second copy of the loop to keep in sync.
//!
//! Phase timestamps cost ~8 cycles each (`rdtsc`) and are placed per slot
//! and per pass — the listener work is three whole-cohort passes (observe,
//! wake draws, schedule), so a dense slot pays three reads for all its
//! listeners, not three per 4-listener quad. Treat the shares as accurate
//! to a point or two. The probe leaves `wants_observe` off, so the probed
//! run takes the same clone-eliding listener path as a `NoHooks` run.
//!
//! The probe also measures the capacity tier's memory budget: it asks for
//! an [`EngineSample`] every 1024 event slots and keeps the peak of the
//! wake wheel's footprint, the packet table's bookkeeping lanes, and the
//! staged gather/scatter buffers (address plan + state scratch), yielding
//! the peak engine-overhead bytes per live station that the
//! million-station tier budgets (protocol state is reported separately —
//! its size belongs to the protocol, not the engine).

use lowsense::{LowSensing, Params};
use lowsense_sim::arrivals::Batch;
use lowsense_sim::hooks::{EnginePhase, EngineSample, Hooks};
use lowsense_sim::jamming::NoJam;
use lowsense_sim::metrics::RunResult;
use lowsense_sim::scenario::{scenarios, Scenario};
use lowsense_sim::time::Slot;

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

/// Accumulated cycles per phase across every profiled rep.
#[derive(Default)]
pub struct Profile {
    /// Cycle totals, indexed like [`EnginePhase::ALL`].
    pub cycles: [u64; EnginePhase::ALL.len()],
}

impl Profile {
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
    /// Cycles between two `rdtsc` reads bracketing each measured run,
    /// summed over reps — the wall-clock span the phases must account for.
    pub span: u64,
}

impl SmokeProfile {
    /// Profiled cycles per channel access, all phases summed.
    pub fn cyc_per_access(&self) -> f64 {
        self.profile.total() as f64 / self.accesses.max(1) as f64
    }

    /// Share of the bracketed wall-clock span that the phases account for
    /// (just under 1: only run setup before the first report and the
    /// final result assembly fall outside every phase).
    pub fn coverage(&self) -> f64 {
        self.profile.total() as f64 / self.span.max(1) as f64
    }
}

/// Publishes a smoke profile into a telemetry sink under the same stable
/// names the rest of the workspace observes through: one
/// `bench.phase.<slug>.cycles` counter and `.share` gauge per
/// [`EnginePhase::ALL`] entry, plus the headline `bench.cyc_per_access`.
/// With the [`NoTelemetry`](lowsense_obs::NoTelemetry) default this
/// compiles to nothing — the same off-path contract as the engine hooks.
pub fn publish_phases<T: lowsense_obs::Telemetry>(smoke: &SmokeProfile, out: &mut T) {
    if !out.enabled() {
        return;
    }
    out.add("bench.reps", smoke.reps);
    out.add("bench.accesses", smoke.accesses);
    out.set("bench.cyc_per_access", smoke.cyc_per_access());
    for (i, phase) in EnginePhase::ALL.iter().enumerate() {
        out.add(
            &format!("bench.phase.{}.cycles", phase.slug()),
            smoke.profile.cycles[i],
        );
        out.set(
            &format!("bench.phase.{}.share", phase.slug()),
            smoke.profile.share(i),
        );
    }
}

/// Peak memory over a run's periodic [`EngineSample`]s.
///
/// "Engine overhead" is the wake wheel's resident footprint plus the packet
/// table's bookkeeping lanes (ids + remap) plus the staging buffers —
/// everything the engine spends *per station* beyond the protocol state
/// itself. The protocol-state lane is reported separately: its size is the
/// protocol's contract (`LowSensing` alone is 16 B), not the engine's.
#[derive(Default)]
pub struct CapacityPeaks {
    /// Peak bytes across the wake wheel, the table's id/remap lanes, and
    /// the staging buffers (plan + state scratch).
    pub peak_engine_bytes: u64,
    /// Peak bytes in the staged gather/scatter machinery alone (the stage
    /// plan's permutation buffers plus the per-slot state scratch) — a
    /// sub-slice of [`peak_engine_bytes`](Self::peak_engine_bytes), broken
    /// out so the staging cost stays visible in `BENCH_engine.json`.
    pub peak_stage_bytes: u64,
    /// Largest live-station count seen at any sample point.
    pub peak_live: u64,
    /// Number of samples taken (one per 1024 event slots).
    pub samples: u64,
}

impl CapacityPeaks {
    fn sample(&mut self, s: &EngineSample) {
        let engine = s.footprint_bytes + s.state_bytes + s.stage_bytes;
        self.peak_engine_bytes = self.peak_engine_bytes.max(engine);
        self.peak_stage_bytes = self.peak_stage_bytes.max(s.stage_bytes);
        self.peak_live = self.peak_live.max(s.backlog);
        self.samples += 1;
    }

    /// Protocol-state bytes at the peak live count: one `LowSensing` per
    /// live station (its 16 B size is pinned by a layout unit test).
    pub fn state_bytes(&self) -> u64 {
        self.peak_live * std::mem::size_of::<LowSensing>() as u64
    }

    /// Peak engine-overhead bytes per peak live station — the figure the
    /// million-station tier's ≤ 64 B/station budget is checked against.
    pub fn bytes_per_station(&self) -> f64 {
        self.peak_engine_bytes as f64 / self.peak_live.max(1) as f64
    }
}

/// The phase and memory probe for `LowSensing` runs of the sparse engine.
///
/// Each [`Hooks::on_phase`] report charges the cycles since the previous
/// report (or since [`EngineProbe::run`] started the clock) to the phase
/// that just ended. Every 1024 event slots the engine hands over an
/// [`EngineSample`], folded into [`CapacityPeaks`].
#[derive(Default)]
pub struct EngineProbe {
    /// Accumulated per-phase cycles.
    pub profile: Profile,
    /// Memory peaks over every sample.
    pub capacity: CapacityPeaks,
    last: u64,
}

impl EngineProbe {
    /// Runs `scenario` on the production sparse engine with the probe
    /// attached, starting the phase clock at the call.
    pub fn run(&mut self, scenario: &Scenario<Batch, NoJam>) -> RunResult {
        self.last = tsc();
        scenario.run_sparse_hooked(|_| LowSensing::new(Params::default()), self)
    }
}

impl Hooks<LowSensing> for EngineProbe {
    fn wants_observe(&self) -> bool {
        false
    }

    #[inline(always)]
    fn on_phase(&mut self, phase: EnginePhase) {
        let now = tsc();
        self.profile.cycles[phase as usize] += now.wrapping_sub(self.last);
        self.last = now;
    }

    fn sample_period(&self) -> Option<u64> {
        Some(1024)
    }

    fn on_sample(&mut self, sample: &EngineSample) {
        self.capacity.sample(sample);
    }
}

/// Profiles `reps` seeds of `scenario` (seeds `1..=reps`) into one probe,
/// bracketing each run with two `rdtsc` reads for [`SmokeProfile::span`].
fn profile_reps(scenario: &Scenario<Batch, NoJam>, reps: u64) -> (SmokeProfile, CapacityPeaks) {
    let mut probe = EngineProbe::default();
    let (mut accesses, mut span) = (0u64, 0u64);
    for seed in 1..=reps {
        let seeded = scenario.seeded(seed);
        let start = tsc();
        let r = probe.run(&seeded);
        span += tsc().wrapping_sub(start);
        accesses += r.totals.accesses();
    }
    let smoke = SmokeProfile {
        profile: probe.profile,
        accesses,
        reps,
        span,
    };
    (smoke, probe.capacity)
}

/// Profiles the standard smoke workload (`sparse_lsb_16384` shape with
/// `packets` packets): one discarded warm-up, then `reps` measured seeds.
pub fn profile_sparse_smoke(packets: u64, reps: u64) -> SmokeProfile {
    let scenario = scenarios::batch_drain(packets).totals_only();
    // Warm-up on the same instantiation, discarded.
    EngineProbe::default().run(&scenario.seeded(0));
    profile_reps(&scenario, reps).0
}

/// Profiles the million-station capacity workload: `stations` stations
/// batch-injected at slot 0, horizon capped at `until_slot`, `reps`
/// measured seeds (no warm-up — at this scale one rep amortizes its own
/// cache warming). Returns the phase profile plus the [`CapacityPeaks`]
/// sampled across all reps.
pub fn profile_sparse_capacity(
    stations: u64,
    until_slot: Slot,
    reps: u64,
) -> (SmokeProfile, CapacityPeaks) {
    let scenario = scenarios::batch_drain(stations)
        .totals_only()
        .until_slot(until_slot);
    profile_reps(&scenario, reps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowsense_obs::{NoTelemetry, Registry};

    #[test]
    fn publish_phases_uses_stable_slug_names() {
        let mut profile = Profile::default();
        // The probe indexes cycles by `phase as usize`; publishing walks
        // `EnginePhase::ALL`. Both must land on the same slug.
        profile.cycles[EnginePhase::Control as usize] = 75;
        profile.cycles[EnginePhase::Resolve as usize] = 25;
        let smoke = SmokeProfile {
            profile,
            accesses: 10,
            reps: 1,
            span: 100,
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
        assert_eq!(phase_counters, EnginePhase::ALL.len());
        // The disabled sink takes the zero-cost early return.
        publish_phases(&smoke, &mut NoTelemetry);
    }

    /// The phases reconcile with the wall clock: bracketing a probed run
    /// with two `rdtsc` reads, the per-phase cycles must account for at
    /// least 90% of the span (only setup before the first report and the
    /// result assembly after the last fall outside every phase).
    #[test]
    fn phase_cycles_cover_the_bracketed_run() {
        let scenario = scenarios::batch_drain(2048).totals_only().seeded(3);
        let mut probe = EngineProbe::default();
        let start = tsc();
        let r = probe.run(&scenario);
        let span = tsc().wrapping_sub(start);
        assert_eq!(r.totals.successes, 2048);
        let covered = probe.profile.total();
        assert!(
            covered as f64 >= 0.9 * span as f64,
            "phases cover {covered} of {span} cycles"
        );
        // Probed and bare runs are the same run.
        let bare = scenario.run_sparse(|_| LowSensing::new(Params::default()));
        assert_eq!(r.totals, bare.totals);
        assert!(probe.capacity.samples > 0);
    }
}
