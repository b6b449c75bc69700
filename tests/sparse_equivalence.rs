//! Bit-for-bit equivalence of the timing-wheel sparse engine against the
//! retained heap-based reference loop.
//!
//! The optimized engine (`run_sparse`) promises *identical executions*, not
//! just statistical agreement: the same RNG draw order, the same
//! floating-point accumulation order, the same hook sequence. Since PR 4
//! the shared processing order within a slot is **insertion order**: the
//! reference keys its heap `(slot, insertion_seq)` while the wheel drains
//! buckets in push order through every cascade, two implementations of the
//! same order — which is what lets the fast engine skip per-slot sorting
//! and run its packet table through epoch compaction without these
//! comparisons noticing. The reference differs from the engine in both the
//! wake set and the loop, so one comparison checks both. The tests hold
//! the two to that promise across the canonical scenario registry
//! (including its jammed and reactive-adversary scenarios), every protocol
//! of the suite, all three channel models, metric configurations, and
//! seeds, by comparing complete [`RunResult`]s — totals, per-packet
//! statistics, and trajectory series — with exact equality.

use lowsense::{lsb, LowSensing, Params};
use lowsense_baselines::{
    CjpConfig, CjpMwu, Coupling, LowSensingVariant, PolynomialBackoff, ProbBeb, SlottedAloha,
    UpdateRule, VariantConfig, WindowedBeb,
};
use lowsense_sim::engine::{staging_applies, STAGE_MIN_PARTICIPANTS};
use lowsense_sim::prelude::*;
use proptest::prelude::*;

/// Exact comparison of every field of two [`RunResult`]s.
fn assert_identical(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(a.seed, b.seed, "{what}: seed");
    assert_eq!(a.totals, b.totals, "{what}: totals");
    match (&a.per_packet, &b.per_packet) {
        (None, None) => {}
        (Some(pa), Some(pb)) => assert_eq!(pa, pb, "{what}: per-packet stats"),
        _ => panic!("{what}: per-packet presence differs"),
    }
    assert_eq!(a.series.len(), b.series.len(), "{what}: series length");
    for (i, (sa, sb)) in a.series.iter().zip(&b.series).enumerate() {
        assert_eq!(sa, sb, "{what}: series point {i}");
    }
}

/// Wheel vs heap reference on one scenario: the production engine and
/// the heap-based loop must agree bit for bit.
fn assert_wheel_vs_heap<A, J, P, F>(s: &Scenario<A, J>, factory: F, what: &str)
where
    A: ArrivalProcess + Clone,
    J: Jammer + Clone,
    P: SparseProtocol,
    F: FnMut(&mut SimRng) -> P + Clone,
{
    let wheel = s.run_sparse(factory.clone());
    let heap = s.run_sparse_reference(factory);
    assert_identical(&wheel, &heap, &format!("{what}: wheel vs heap reference"));
}

/// The protocols the suite sweeps, as table inputs. They differ in
/// scheduling shape — deterministic countdowns (windowed BEB, polynomial),
/// memoryless draws (ALOHA, probabilistic BEB), the degenerate every-slot
/// listener (CJP), and multiplicative ladders (LSB and its variant) — so
/// together they exercise every queue path: L0 pushes, coarse placements,
/// cascades, and the far heap.
#[derive(Clone, Copy, Debug)]
enum Proto {
    Lsb,
    ProbBeb,
    /// Slotted ALOHA with this send probability.
    Aloha(f64),
    WindowedBeb,
    Polynomial,
    Cjp,
    Variant,
}

/// [`assert_wheel_vs_heap`] for one [`Proto`].
fn assert_proto_wheel_vs_heap<A, J>(s: &Scenario<A, J>, proto: Proto, what: &str)
where
    A: ArrivalProcess + Clone,
    J: Jammer + Clone,
{
    match proto {
        Proto::Lsb => assert_wheel_vs_heap(s, lsb(), what),
        Proto::ProbBeb => assert_wheel_vs_heap(s, |_: &mut SimRng| ProbBeb::new(0.25), what),
        Proto::Aloha(p) => {
            assert_wheel_vs_heap(s, move |_: &mut SimRng| SlottedAloha::new(p), what)
        }
        Proto::WindowedBeb => {
            assert_wheel_vs_heap(s, |rng: &mut SimRng| WindowedBeb::new(4, 16, rng), what)
        }
        Proto::Polynomial => assert_wheel_vs_heap(
            s,
            |rng: &mut SimRng| PolynomialBackoff::new(4, 2, rng),
            what,
        ),
        Proto::Cjp => {
            assert_wheel_vs_heap(s, |_: &mut SimRng| CjpMwu::new(CjpConfig::default()), what)
        }
        Proto::Variant => {
            let cfg = VariantConfig {
                update: UpdateRule::Factor(2.0),
                coupling: Coupling::Independent,
                ..VariantConfig::paper(0.5, 4.0)
            };
            assert_wheel_vs_heap(s, move |_: &mut SimRng| LowSensingVariant::new(cfg), what)
        }
    }
}

/// Every registry scenario (clean, jammed, bursty, reactive, streaming,
/// model variants) under LSB at one registry size and a set of seeds.
fn assert_registry_wheel_vs_heap(size: u64, seeds: &[u64]) {
    for scenario in scenarios::registry(size) {
        for &seed in seeds {
            let s = scenario.seeded(seed);
            let what = format!("{} (size {size}, seed {seed})", s.name());
            assert_wheel_vs_heap(&s, lsb(), &what);
        }
    }
}

/// Every registry scenario, LSB protocol, three seeds: identical results.
#[test]
fn registry_is_bit_identical_under_lsb() {
    assert_registry_wheel_vs_heap(96, &[1, 7, 1234]);
}

/// The registry again at a smaller size and two further seeds. (The name
/// dates from when this test also compared a second wake set; it now runs
/// wheel vs heap reference like the rest of this file.)
#[test]
fn registry_three_way_bit_identical() {
    assert_registry_wheel_vs_heap(64, &[2, 77]);
}

/// The trajectory series (geometric checkpoints, including the in-gap
/// checkpoint path) must match sample-for-sample.
#[test]
fn registry_series_bit_identical() {
    for scenario in scenarios::registry(64) {
        let s = scenario.seeded(3).series(1.3);
        let fast = s.run_sparse(lsb());
        let reference = s.run_sparse_reference(lsb());
        assert_identical(&fast, &reference, s.name());
        assert!(
            !fast.series.is_empty(),
            "{}: series should have samples",
            s.name()
        );
    }
}

/// Protocols on a jammed batch, as (seed, horizon cap, protocol) rows.
fn assert_jammed_batch_wheel_vs_heap(cases: &[(u64, Option<u64>, Proto)]) {
    for &(seed, cap, proto) in cases {
        let mut s = scenarios::random_jam_batch(48, 0.15).seed(seed);
        if let Some(cap) = cap {
            s = s.until_slot(cap);
        }
        assert_proto_wheel_vs_heap(&s, proto, &format!("{proto:?} (seed {seed}, cap {cap:?})"));
    }
}

/// Baseline protocols exercise different scheduling shapes: deterministic
/// countdowns (BEB, polynomial), memoryless draws (ALOHA, ProbBeb), and the
/// degenerate every-slot listener (CJP), which runs under a horizon cap.
#[test]
fn baselines_bit_identical_on_jammed_batch() {
    use Proto::*;
    assert_jammed_batch_wheel_vs_heap(&[
        (11, None, Aloha(1.0 / 48.0)),
        (11, None, WindowedBeb),
        (11, None, ProbBeb),
        (11, None, Polynomial),
        (11, Some(5_000), Cjp),
    ]);
}

/// All seven protocols of the suite on a capped jammed batch at another
/// seed, so together they exercise every queue path. (The name dates from
/// when this test also compared a second wake set; it now runs wheel vs
/// heap reference like the rest of this file.)
#[test]
fn seven_protocols_three_way_bit_identical() {
    use Proto::*;
    let cap = Some(5_000);
    assert_jammed_batch_wheel_vs_heap(&[
        (23, cap, Lsb),
        (23, cap, ProbBeb),
        (23, cap, Aloha(1.0 / 48.0)),
        (23, cap, WindowedBeb),
        (23, cap, Polynomial),
        (23, cap, Cjp),
        (23, cap, Variant),
    ]);
}

/// Reactive jamming consults the adversary with the slot's sender set; the
/// engines must present identical sets in identical order, or the jam
/// decisions diverge, not just the floats. One reactive-DoS run and one
/// sniper run, at the given seeds.
fn assert_reactive_wheel_vs_heap(dos_seed: u64, sniper_seed: u64) {
    let s = scenarios::reactive_dos_batch(64, 40).seed(dos_seed);
    assert_wheel_vs_heap(&s, lsb(), &format!("reactive-dos (seed {dos_seed})"));
    let sniper = Scenario::named("sniper")
        .arrivals(Batch::new(32))
        .jammer(WithReactive::new(
            RandomJam::new(0.1),
            ReactiveTargeted::new(PacketId(3), 8),
        ))
        .seed(sniper_seed);
    assert_wheel_vs_heap(&sniper, lsb(), &format!("sniper (seed {sniper_seed})"));
}

/// Reactive adversaries at their first pair of seeds.
#[test]
fn reactive_adversaries_bit_identical() {
    assert_reactive_wheel_vs_heap(5, 9);
}

/// Reactive adversaries at a second pair of seeds. (The name dates from
/// when this test also compared a second wake set; it now runs wheel vs
/// heap reference like the rest of this file.)
#[test]
fn reactive_adversaries_three_way_bit_identical() {
    assert_reactive_wheel_vs_heap(15, 19);
}

/// Far-future wake-ups land in the wheel's coarse levels and cascade down;
/// tiny access probabilities exercise that path hard.
#[test]
fn far_horizon_wakeups_bit_identical() {
    let s = Scenario::named("long-sleepers")
        .arrivals(Trace::new(vec![(0, 8), (20_000, 8), (90_000, 8)]))
        .seed(2)
        .until_slot(400_000);
    let factory = |_: &mut SimRng| LowSensing::with_window(Params::default(), 5e7);
    assert_wheel_vs_heap(&s, factory, "long-sleepers");
}

/// Step budgets cut runs mid-flight; both engines must stop on the same
/// step with the same partial accounting.
#[test]
fn step_budget_cutoff_bit_identical() {
    let s = scenarios::batch_drain(64).seed(4).limits(Limits {
        max_slot: u64::MAX / 2,
        max_steps: 500,
    });
    assert_wheel_vs_heap(&s, lsb(), "budget");
}

/// Delays whose absolute wake slot saturates past the representable
/// horizon are "never" in both engines — even with the slot clock opened
/// all the way up, neither engine may process (or park forever) a
/// saturated event.
#[test]
fn saturated_wake_slots_bit_identical() {
    #[derive(Clone)]
    struct FarFuture;
    impl Protocol for FarFuture {
        fn intent(&mut self, _rng: &mut SimRng) -> Intent {
            Intent::Sleep
        }
        fn observe(&mut self, _obs: &Observation) {}
        fn send_probability(&self) -> f64 {
            0.0
        }
        fn next_wake(&mut self, _rng: &mut SimRng) -> Option<u64> {
            Some(u64::MAX - 1) // finite, but offset() saturates to NEVER
        }
    }
    impl SparseProtocol for FarFuture {
        fn send_on_access(&mut self, _rng: &mut SimRng) -> bool {
            false
        }
    }
    let s = Scenario::named("saturated-wakes")
        .arrivals(Trace::new(vec![(0, 2), (10, 1)]))
        .seed(1)
        .limits(Limits {
            max_slot: u64::MAX,
            max_steps: 1_000,
        });
    let fast = s.run_sparse(|_| FarFuture);
    let reference = s.run_sparse_reference(|_| FarFuture);
    assert_identical(&fast, &reference, "saturated-wakes");
    assert_eq!(fast.totals.successes, 0);
    assert_eq!(fast.totals.arrivals, 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One registry sweep mixing batch-capable protocols with scalar-only
    /// ones (`PolynomialBackoff` and `CjpMwu` ride the defaulted
    /// fallbacks): whichever path a listener cohort takes, the
    /// timing-wheel engine must stay bit-identical to the heap
    /// reference. Of the batch-capable set, `LowSensing` and
    /// `LowSensingVariant` actually reach their overrides through the
    /// engine's listener cohorts; the oblivious always-send baselines
    /// (`ProbBeb`, `SlottedAloha`, `WindowedBeb`) never listen, so their
    /// overrides are pinned by direct unit tests in `lowsense-baselines`
    /// and these cases regression-test their (shared) scalar path.
    #[test]
    fn mixed_batch_and_scalar_protocols_bit_identical(
        scenario_idx in 0usize..64,
        protocol in 0usize..7,
        seed in 0u64..1_000_000,
    ) {
        let registry = scenarios::registry(32);
        // CJP listens every slot, so cap the horizon to keep the sweep fast;
        // the cap applies to every case for comparability.
        let s = registry[scenario_idx % registry.len()]
            .seeded(seed)
            .until_slot(10_000);
        let what = format!("{} (seed {seed}, protocol {protocol})", s.name());
        let protocols = [
            // Batch-capable protocols.
            Proto::Lsb,
            Proto::ProbBeb,
            Proto::Aloha(0.03),
            Proto::WindowedBeb,
            // Scalar-only protocols (defaulted observe4/next_wake4), plus
            // the engine-reachable batched variant.
            Proto::Polynomial,
            Proto::Cjp,
            Proto::Variant,
        ];
        assert_proto_wheel_vs_heap(&s, protocols[protocol], &what);
    }
}

/// The channel-model axis: the full registry, run under each alternative
/// [`ChannelModel`], must stay bit-identical between the wheel and the heap
/// reference. The models change what protocols hear (no-CD collapses
/// collisions into silence) and how the physical clock advances (costly
/// collisions accumulate skew), so this pins that both hooks live in the
/// *shared* core and act identically in both loops.
#[test]
fn model_axis_wheel_vs_heap_bit_identical() {
    for model in [
        ChannelModel::NoCollisionDetection,
        ChannelModel::CostlyCollisions { alpha: 0.5 },
    ] {
        for scenario in scenarios::registry(48) {
            // Horizon-capped: full-sensing LSB can escalate forever when
            // no-CD hides collisions, and equivalence only needs bounded
            // identical runs.
            let s = scenario.seeded(31).model(model).until_slot(10_000);
            let what = format!("{} under {}", s.name(), model.label());
            assert_wheel_vs_heap(&s, lsb(), &what);
        }
    }
}

/// Baseline protocols under the alternative models on a jammed batch:
/// sender-only protocols (BEB family) exercise `sender_feedback`, the
/// polynomial ladder exercises the scalar observation path, and the jam
/// mix keeps the no-overhead-for-jams rule of `CostlyCollisions` honest
/// in both loops.
#[test]
fn baselines_wheel_vs_heap_bit_identical_under_models() {
    for model in [
        ChannelModel::NoCollisionDetection,
        ChannelModel::CostlyCollisions { alpha: 0.5 },
    ] {
        let s = scenarios::random_jam_batch(48, 0.15)
            .seed(11)
            .model(model)
            .until_slot(5_000);
        for proto in [Proto::WindowedBeb, Proto::ProbBeb, Proto::Polynomial] {
            let what = format!("{proto:?} under {}", model.label());
            assert_proto_wheel_vs_heap(&s, proto, &what);
        }
    }
}

/// Every public engine entry point reads its channel from
/// `SimConfig::model`. The equivalence tests above compare the engines with
/// each other, so they would still pass if every entry ignored the model;
/// this one compares each entry with itself across models. Two stations
/// that send every slot collide in all 100 slots of the horizon: costly
/// collisions must charge overhead for them, the ternary channel must not,
/// and the logical collision count must not move.
#[test]
fn every_entry_point_honours_the_config_model() {
    #[derive(Clone)]
    struct AlwaysSend;
    impl Protocol for AlwaysSend {
        fn intent(&mut self, _rng: &mut SimRng) -> Intent {
            Intent::Send
        }
        fn observe(&mut self, _obs: &Observation) {}
        fn send_probability(&self) -> f64 {
            1.0
        }
        fn next_wake(&mut self, _rng: &mut SimRng) -> Option<u64> {
            Some(0)
        }
    }
    impl SparseProtocol for AlwaysSend {
        fn send_on_access(&mut self, _rng: &mut SimRng) -> bool {
            true
        }
    }
    impl SymmetricProtocol for AlwaysSend {
        fn send_probability(&self) -> f64 {
            1.0
        }
        fn on_feedback(&mut self, _fb: Feedback) {}
    }

    type Entry = fn(&SimConfig) -> RunResult;
    let entries: [(&str, Entry); 4] = [
        ("run_dense", |c| {
            run_dense(c, Batch::new(2), NoJam, |_| AlwaysSend, &mut NoHooks)
        }),
        ("run_grouped", |c| {
            run_grouped(c, Batch::new(2), NoJam, |_| AlwaysSend)
        }),
        ("run_sparse", |c| {
            run_sparse(c, Batch::new(2), NoJam, |_| AlwaysSend, &mut NoHooks)
        }),
        ("run_sparse_reference", |c| {
            run_sparse_reference(c, Batch::new(2), NoJam, |_| AlwaysSend, &mut NoHooks)
        }),
    ];
    let ternary = SimConfig::new(5).limits(Limits::until_slot(99));
    let costly = ternary.model(ChannelModel::CostlyCollisions { alpha: 0.5 });
    for (name, run) in entries {
        let t = run(&ternary).totals;
        let c = run(&costly).totals;
        assert_eq!(t.collision_slots, 100, "{name}: ternary collisions");
        assert_eq!(t.overhead_slots, 0, "{name}: ternary charged overhead");
        assert!(c.overhead_slots > 0, "{name}: ignored the costly model");
        assert_eq!(
            c.collision_slots, t.collision_slots,
            "{name}: the model changed the logical trajectory"
        );
    }
}

/// `totals_only` runs (the benchmark configuration) are equivalent too.
#[test]
fn totals_only_bit_identical() {
    let s = scenarios::random_jam_batch(256, 0.2).totals_only().seed(8);
    assert_wheel_vs_heap(&s, lsb(), "totals-only");
}

/// Counts the event slots the staging gate admits, from out-of-band
/// samples taken after every event slot: the slot's participants are the
/// growth in sends + listens, and the backlog after the slot bounds the
/// dense state lane the gate saw from below, so a slot counted here was
/// certainly staged. The engine's own `Permute`/`Gather`/`Scatter` phase
/// reports are counted alongside, so the suite can check that the engine
/// *did* stage those slots, not only that the gate says it would.
#[derive(Default)]
struct StageCount {
    accesses: u64,
    busy_slots: u64,
    staged_slots: u64,
    /// `Permute`, `Gather`, `Scatter` reports, in that order.
    staged_phases: [u64; 3],
}

impl<P> Hooks<P> for StageCount {
    fn wants_observe(&self) -> bool {
        false
    }

    fn sample_period(&self) -> Option<u64> {
        Some(1)
    }

    fn on_sample(&mut self, sample: &EngineSample) {
        let accesses = sample.sends + sample.listens;
        let participants = (accesses - self.accesses) as usize;
        self.accesses = accesses;
        if participants >= STAGE_MIN_PARTICIPANTS {
            self.busy_slots += 1;
            let lane = sample.backlog as usize * std::mem::size_of::<P>();
            if staging_applies(participants, lane) {
                self.staged_slots += 1;
            }
        }
    }

    fn on_phase(&mut self, phase: EnginePhase) {
        match phase {
            EnginePhase::Permute => self.staged_phases[0] += 1,
            EnginePhase::Gather => self.staged_phases[1] += 1,
            EnginePhase::Scatter => self.staged_phases[2] += 1,
            _ => {}
        }
    }
}

/// The staged gather/scatter path against the heap reference, under all
/// three feedback models. 300k stations put the state lane (4.8 MB of 16 B
/// `LowSensing` states) past the 4 MiB staging gate, and the small
/// starting window keeps early slots at thousand-packet participant sets —
/// so the wheel engine runs the address-sorted staged path
/// while the heap reference runs its unstaged per-element loop. Bit-identity
/// here is the inverse-permutation argument made executable: staging may
/// only reorder memory traffic, never a draw, an observation, or an
/// accumulation. Horizon-capped: coverage needs the high-fanout prefix,
/// not a full drain. The wheel leg runs with a sampling probe that asserts
/// every high-fanout slot clears the gate, so a change to the state size
/// or the gate cannot quietly turn this into a direct-path test.
#[test]
fn staged_high_fanout_300k_wheel_vs_heap_bit_identical() {
    const N: u64 = 300_000;
    let factory = |_: &mut SimRng| LowSensing::with_window(Params::default(), 64.0);
    // Ternary with full per-packet metrics: the strongest pin (every
    // packet's access counts and latencies must survive the permutation).
    let s = scenarios::high_fanout_batch(N, 128).seeded(6);
    let mut count = StageCount::default();
    let wheel = s.run_sparse_hooked(factory, &mut count);
    assert!(count.busy_slots > 0, "no high-fanout slot ran");
    assert_eq!(
        count.staged_slots, count.busy_slots,
        "every high-fanout slot must stage"
    );
    assert_eq!(
        count.staged_phases, [count.staged_slots; 3],
        "the engine must permute, gather, and scatter exactly the predicted slots"
    );
    // The probed run is the wheel leg: hooks only read, and the
    // observability suite pins that sampling never perturbs a result.
    let heap = s.run_sparse_reference(factory);
    let what = "high-fanout-batch under ternary: wheel vs heap reference";
    assert_identical(&wheel, &heap, what);
    // The alternative models with totals-only metrics and a shorter
    // horizon: the staged slots still dominate the run, and totals (which
    // fold every contention float in accumulation order) keep the
    // bit-identity bar while the debug-build suite stays fast.
    for model in [
        ChannelModel::NoCollisionDetection,
        ChannelModel::CostlyCollisions { alpha: 0.5 },
    ] {
        let s = scenarios::high_fanout_batch(N, 96)
            .totals_only()
            .seeded(6)
            .model(model);
        let what = format!("{} under {}", s.name(), model.label());
        assert_wheel_vs_heap(&s, factory, &what);
    }
}
