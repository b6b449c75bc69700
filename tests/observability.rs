//! Observability is out-of-band: attaching the full telemetry stack — the
//! flight recorder's periodic sampler plus its stall detector — to a sparse
//! run must leave the `RunResult` **bit-identical** to the bare run, for
//! every registry scenario under every channel model. The sampler reads only
//! already-final accounting state after a slot resolves; it draws no
//! randomness and reorders nothing, so equality here is exact, not
//! statistical.
//!
//! The suite has three layers:
//!
//! 1. **On/off equivalence** — every `(registry scenario, channel model)`
//!    combination is run three times: bare, with a [`FlightRecorder`]
//!    attached, and with a hook set counting the engine's
//!    [`Hooks::on_phase`] reports; the full-result FNV hashes (totals,
//!    per-packet table, series, all f64s by bit pattern) must agree combo
//!    by combo.
//! 2. **Pinned grand hash** — the fold of all those per-combo hashes is
//!    pinned to a recorded constant, so the *runs themselves* cannot drift
//!    silently under cover of "both sides changed together".
//! 3. **Stall detection on real runs** — the recorder flags the no-CD
//!    low-sensing livelock (the PR 8 `nocd_batch` collapse) with a
//!    collision-dominated diagnosis naming the Jiang–Zheng channel, and
//!    stays silent on a healthy draining batch.

use lowsense::{LowSensing, Params};
use lowsense_obs::{FlightRecorder, StallConfig, StallDetector, StallKind};
use lowsense_sim::feedback::ChannelModel;
use lowsense_sim::hooks::{EnginePhase, Hooks};
use lowsense_sim::metrics::RunResult;
use lowsense_sim::scenario::{scenarios, DynScenario};

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// Folds every field of a [`RunResult`] — counters, the per-packet table,
/// the trajectory series, floats by bit pattern — into one FNV-1a word.
/// Two results hash equal iff they are bit-identical.
fn result_hash(r: &RunResult) -> u64 {
    let mut h = mix(FNV_OFFSET, r.seed);
    let t = &r.totals;
    for v in [
        t.arrivals,
        t.successes,
        t.active_slots,
        t.jammed_active,
        t.empty_active,
        t.collision_slots,
        t.sends,
        t.listens,
        t.max_backlog,
        t.last_slot,
        t.overhead_slots,
    ] {
        h = mix(h, v);
    }
    match &r.per_packet {
        None => h = mix(h, u64::MAX),
        Some(ps) => {
            h = mix(h, ps.len() as u64);
            for p in ps {
                h = mix(h, p.injected);
                h = mix(h, p.departed.map_or(u64::MAX, |d| d));
                h = mix(h, ((p.sends as u64) << 32) | p.listens as u64);
            }
        }
    }
    h = mix(h, r.series.len() as u64);
    for s in &r.series {
        for v in [
            s.slot,
            s.active_slots,
            s.arrivals,
            s.jammed_active,
            s.backlog,
            s.sends,
            s.listens,
            s.overhead_slots,
            s.contention.to_bits(),
        ] {
            h = mix(h, v);
        }
    }
    h
}

/// The registry size the grid runs at, and the uniform horizon cap. The cap
/// matters: forcing `NoCollisionDetection` onto arrival-bounded scenarios
/// puts `LowSensing` into the Jiang–Zheng livelock, which never terminates
/// on its own.
const N: u64 = 24;
const HORIZON: u64 = 16_384;

/// Every `(registry entry, channel model)` cell of the equivalence grid,
/// horizon-capped and seeded identically on both sides.
fn grid() -> Vec<(DynScenario, &'static str)> {
    let models = [
        (ChannelModel::Ternary, "ternary"),
        (ChannelModel::NoCollisionDetection, "no-cd"),
        (ChannelModel::CostlyCollisions { alpha: 0.5 }, "costly"),
    ];
    let mut cells = Vec::new();
    for scenario in scenarios::registry(N) {
        for (model, tag) in models {
            cells.push((scenario.seeded(7).model(model).until_slot(HORIZON), tag));
        }
    }
    cells
}

fn bare_run(s: &DynScenario) -> RunResult {
    s.run_sparse(|_| LowSensing::new(Params::default()))
}

fn recorded_run(s: &DynScenario, rec: &mut FlightRecorder) -> RunResult {
    s.run_sparse_hooked(|_| LowSensing::new(Params::default()), rec)
}

/// Counts the sparse engine's phase reports, the way the bench crate's
/// cycle probe consumes them.
#[derive(Default)]
struct PhaseCount([u64; EnginePhase::ALL.len()]);

impl Hooks<LowSensing> for PhaseCount {
    fn wants_observe(&self) -> bool {
        false
    }

    fn on_phase(&mut self, phase: EnginePhase) {
        self.0[phase as usize] += 1;
    }
}

/// Layer 1: telemetry on vs off, combo by combo. Any inequality is the
/// recorder or the phase probe perturbing the simulation — the one thing
/// they must never do.
#[test]
fn flight_recorder_never_perturbs_any_registry_run() {
    let mut sampled = 0u64;
    let mut phases = PhaseCount::default();
    for (scenario, tag) in grid() {
        let off = bare_run(&scenario);
        let mut rec = FlightRecorder::new(scenario.name(), 64, 256);
        let on = recorded_run(&scenario, &mut rec);
        assert_eq!(
            result_hash(&off),
            result_hash(&on),
            "{} [{tag}]: attaching the flight recorder changed the run",
            scenario.name()
        );
        sampled += rec.samples().len() as u64 + rec.dropped();
        let probed =
            scenario.run_sparse_hooked(|_| LowSensing::new(Params::default()), &mut phases);
        assert_eq!(
            result_hash(&off),
            result_hash(&probed),
            "{} [{tag}]: counting phase reports changed the run",
            scenario.name()
        );
    }
    // Equivalence must not be vacuous: the recorder really was sampling,
    // and the engine really was reporting phases.
    assert!(sampled > 0, "no combo produced a single flight sample");
    let control = phases.0[EnginePhase::Control as usize];
    assert!(control > 0, "no combo reported a single phase");
    assert_eq!(control, phases.0[EnginePhase::Take as usize]);
}

/// Layer 2: the grand fold of every per-combo hash, pinned. If this moves
/// without an intentional engine/protocol change, the runs drifted.
#[test]
fn equivalence_grid_grand_hash_is_pinned() {
    let mut grand = FNV_OFFSET;
    for (scenario, _) in grid() {
        grand = mix(grand, result_hash(&bare_run(&scenario)));
    }
    assert_eq!(
        grand, GRAND_HASH,
        "observability equivalence grid drifted (got 0x{grand:016x}); \
         if the engine or LowSensing changed intentionally, re-pin"
    );
}

/// Recorded from the grid above (registry n=24, seed 7, horizon 16384).
const GRAND_HASH: u64 = 0x2f4aa5e23a14763a;

/// Layer 3a: the PR 8 collapse, observed live. `LowSensing` under the
/// no-CD channel reads collisions as silence, holds its window small, and
/// collides forever; the stall detector must flag the stretch as
/// collision-dominated and the rendered diagnosis must name the channel.
#[test]
fn stall_detector_flags_nocd_lsb_livelock() {
    let scenario = scenarios::nocd_batch(64).until_slot(64 * 200).seeded(3);
    let mut rec = FlightRecorder::new("nocd-livelock", 16, 4096).with_detector(StallDetector::new(
        StallConfig {
            window: 512,
            dominance: 0.9,
        },
    ));
    let result = scenario
        .boxed()
        .run_sparse_hooked(|_| LowSensing::new(Params::default()), &mut rec);
    assert!(!result.drained(), "nocd_batch unexpectedly drained");
    assert!(
        !rec.stalls().is_empty(),
        "no stall flagged on the no-CD livelock run"
    );
    let stall = &rec.stalls()[0];
    assert_eq!(stall.kind, StallKind::CollisionDominated);
    let diagnosis = stall.diagnosis();
    assert!(
        diagnosis.contains("2111.06650"),
        "diagnosis does not name the Jiang-Zheng no-CD channel: {diagnosis}"
    );
    // The exported flight log carries the stall record end to end.
    let jsonl = rec.to_jsonl();
    assert!(jsonl.contains("\"t\":\"stall\""));
    assert!(jsonl.contains("collision-dominated"));
}

/// Layer 3b: no false positives on a healthy drain — same detector
/// settings, a scenario that empties its backlog.
#[test]
fn stall_detector_silent_on_draining_batch() {
    let scenario = scenarios::batch_drain(64).seeded(3);
    let mut rec =
        FlightRecorder::new("drain", 16, 4096).with_detector(StallDetector::new(StallConfig {
            window: 512,
            dominance: 0.9,
        }));
    let result = scenario
        .boxed()
        .run_sparse_hooked(|_| LowSensing::new(Params::default()), &mut rec);
    assert!(result.drained(), "batch_drain failed to drain");
    assert!(
        rec.stalls().is_empty(),
        "false-positive stall on a draining run: {:?}",
        rec.stalls()[0].diagnosis()
    );
}
