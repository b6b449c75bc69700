//! The engine workloads: one LSB batch per run on `Scenario::run_sparse`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use lowsense::{LowSensing, Params};
use lowsense_obs::FlightRecorder;
use lowsense_sim::arrivals::Batch;
use lowsense_sim::jamming::NoJam;
use lowsense_sim::metrics::RunResult;
use lowsense_sim::scenario::{scenarios, Scenario};

use crate::machine::peak_rss_mib;
use crate::report::{median, quantile, ratio, result_hash, sub_seed, totals_hold, Outcome};
use crate::trace::{take_protocol_stats, EngineProbe, TracedLsb};
use crate::{for_units, Ctx};

/// One engine workload.
pub struct EngineWorkload {
    /// Stations injected in slot 0.
    stations: u64,
    /// Last slot simulated; `None` runs the batch until it drains.
    horizon: Option<u64>,
    /// First-slot-capped runs before each measured run; their median is
    /// `setup_s`.
    setup_reps: u64,
    /// Fewest measured runs, whatever `--seconds` says.
    min_runs: u64,
    /// Compare the check seed against the heap reference engine.
    check_reference: bool,
    /// Also time runs with a flight recorder attached (`--trace 1`).
    time_recorder: bool,
}

/// `drain_16k`: a 16384-station drain whose state stays in cache.
pub fn drain_16k(tiny: bool) -> EngineWorkload {
    EngineWorkload {
        stations: if tiny { 512 } else { 16_384 },
        horizon: None,
        setup_reps: if tiny { 1 } else { 2 },
        min_runs: 3,
        check_reference: true,
        time_recorder: true,
    }
}

/// `resident_1M`: a million resident stations, horizon capped.
pub fn resident_1m(tiny: bool) -> EngineWorkload {
    EngineWorkload {
        stations: if tiny { 4096 } else { 1_000_000 },
        horizon: Some(if tiny { 64 } else { RESIDENT_HORIZON }),
        setup_reps: if tiny { 1 } else { 2 },
        min_runs: 2,
        check_reference: false,
        time_recorder: false,
    }
}

/// Horizon of `resident_1M`: past the first 4096-slot block, so coarse
/// wheel levels cascade into level 0 once during the run.
const RESIDENT_HORIZON: u64 = 5_000;

/// Sample period of the flight recorder whose overhead `drain_16k` reports.
const RECORDER_PERIOD: u64 = 64;
const RECORDER_CAPACITY: usize = 4096;

fn lsb(_: &mut lowsense_sim::rng::SimRng) -> LowSensing {
    LowSensing::new(Params::default())
}

impl EngineWorkload {
    fn scenario(&self, seed: u64) -> Scenario<Batch, NoJam> {
        let sc = scenarios::batch_drain(self.stations)
            .totals_only()
            .seeded(seed);
        match self.horizon {
            Some(h) => sc.until_slot(h),
            None => sc,
        }
    }

    /// Runs `f` on the scenario for `seed`, timing it and catching panics.
    /// Counts the run in `out` and checks its `Totals`.
    fn timed(
        &self,
        out: &mut Outcome,
        sc: &Scenario<Batch, NoJam>,
        f: impl FnOnce(&Scenario<Batch, NoJam>) -> RunResult,
        must_drain: bool,
    ) -> Option<(RunResult, f64)> {
        let t0 = Instant::now();
        let r = catch_unwind(AssertUnwindSafe(|| f(sc)));
        let wall = t0.elapsed().as_secs_f64();
        let ok = r.as_ref().is_ok_and(|r| totals_hold(&r.totals, must_drain));
        out.unit(ok);
        r.ok().filter(|_| ok).map(|r| (r, wall))
    }

    fn must_drain(&self) -> bool {
        self.horizon.is_none()
    }

    /// `--trace 0`: set-up time, wall time per run, peak memory.
    pub fn measure(&self, ctx: &Ctx, out: &mut Outcome) {
        let mut setup = Vec::new();
        let mut walls = Vec::new();
        let mut check_hash = None;
        for_units(ctx, self.min_runs, |i| {
            // Set-up samples are spread over the whole loop, so they see
            // the same machine as the runs.
            let capped = self.scenario(sub_seed(ctx.seed, i)).until_slot(0);
            for _ in 0..self.setup_reps {
                if let Some((_, wall)) = self.timed(out, &capped, |s| s.run_sparse(lsb), false) {
                    setup.push(wall);
                }
            }
            let sc = self.scenario(sub_seed(ctx.seed, i));
            if let Some((r, wall)) = self.timed(out, &sc, |s| s.run_sparse(lsb), self.must_drain())
            {
                walls.push(wall);
                if i == 0 {
                    check_hash = Some(result_hash(&r));
                }
            }
        });
        out.set("peak_rss_mib", peak_rss_mib());
        out.set("wall_s", median(&mut walls));
        out.set("setup_s", median(&mut setup));
        self.check_reference(ctx, out, check_hash);
    }

    /// On the check seed (the first sub-seed), the production loop must
    /// match the heap reference engine bit for bit. Runs outside any timed
    /// region.
    fn check_reference(&self, ctx: &Ctx, out: &mut Outcome, hash: Option<u64>) {
        if !self.check_reference {
            return;
        }
        let sc = self.scenario(sub_seed(ctx.seed, 0));
        let reference = self.timed(out, &sc, |s| s.run_sparse_reference(lsb), self.must_drain());
        out.check(
            hash.is_some() && reference.map(|(r, _)| result_hash(&r)) == hash,
            "run_sparse matches run_sparse_reference on the check seed",
        );
    }

    /// `--trace 1`: bare and traced runs back to back on the same seeds
    /// (and, for `drain_16k`, a run with a flight recorder attached).
    pub fn trace(&self, ctx: &Ctx, out: &mut Outcome) {
        let mut probe = EngineProbe::default();
        let (mut bare_s, mut traced_s, mut recorded_s) = (0.0, 0.0, 0.0);
        let (mut accesses, mut calls, mut proto_ticks) = (0u64, 0u64, 0.0);
        let mut runs = 0u64;
        let mut check_hash = None;
        take_protocol_stats();
        for_units(ctx, 1, |i| {
            let sc = self.scenario(sub_seed(ctx.seed, i));
            let drain = self.must_drain();
            let bare = self.timed(out, &sc, |s| s.run_sparse(lsb), drain);
            probe.start_run();
            let traced = self.timed(
                out,
                &sc,
                |s| s.run_sparse_hooked(|rng| TracedLsb(lsb(rng)), &mut probe),
                drain,
            );
            let stats = take_protocol_stats();
            let recorded = self.time_recorder.then(|| {
                let mut rec = FlightRecorder::new("drain_16k", RECORDER_PERIOD, RECORDER_CAPACITY);
                self.timed(out, &sc, |s| s.run_sparse_hooked(lsb, &mut rec), drain)
            });
            let (Some((b, bw)), Some((t, tw))) = (bare, traced) else {
                return;
            };
            let bh = result_hash(&b);
            out.check(
                bh == result_hash(&t),
                "traced run is bit-identical to the bare run",
            );
            if i == 0 {
                check_hash = Some(bh);
            }
            if let Some(rec) = recorded {
                match rec {
                    Some((r, rw)) => {
                        out.check(
                            bh == result_hash(&r),
                            "recorded run is bit-identical to the bare run",
                        );
                        recorded_s += rw;
                    }
                    None => out.check(false, "recorded run completed"),
                }
            }
            bare_s += bw;
            traced_s += tw;
            accesses += b.totals.accesses();
            calls += stats.calls;
            proto_ticks += stats.ticks;
            runs += 1;
        });
        self.check_reference(ctx, out, check_hash);

        // The layers split the bare wall time: protocol calls (estimated
        // from the traced runs) and the engine's own work. What tracing
        // adds on top shows as `trace.overhead`.
        let proto_ns = proto_ticks / ctx.tsc_ghz;
        let bare_ns = bare_s * 1e9;
        let acc = accesses as f64;
        out.set("accesses_per_s", ratio(acc, bare_s));
        out.set("trace.overhead", ratio(traced_s, bare_s) - 1.0);
        out.set("protocol.calls_per_access", ratio(calls as f64, acc));
        out.set("protocol.ns_per_call", ratio(proto_ns, calls as f64));
        out.set("protocol.share", ratio(proto_ns, bare_ns));
        out.set("engine.self_ns_per_access", ratio(bare_ns - proto_ns, acc));
        out.set(
            "engine.event_slots",
            ratio(probe.event_slots as f64, runs as f64),
        );
        out.set(
            "engine.gap_slot_frac",
            ratio(
                probe.gap_slots as f64,
                (probe.gap_slots + probe.event_slots) as f64,
            ),
        );
        let mut parts: Vec<f64> = probe.participants.iter().map(|&p| p as f64).collect();
        let total_parts: f64 = parts.iter().sum();
        out.set("engine.participants_p50", quantile(&mut parts, 0.5));
        out.set("engine.participants_p99", quantile(&mut parts, 0.99));
        out.set(
            "stage.slot_frac",
            ratio(probe.staged_slots as f64, probe.event_slots as f64),
        );
        out.set(
            "stage.access_frac",
            ratio(probe.staged_accesses as f64, total_parts),
        );
        out.set("wake.peak_bytes", probe.peak_wake_bytes as f64);
        out.set("table.peak_state_bytes", probe.peak_table_bytes as f64);
        out.set("engine.bytes_per_station", probe.peak_bytes_per_station);
        if self.time_recorder {
            out.set("obs.recorder_overhead", ratio(recorded_s, bare_s) - 1.0);
        }
    }
}
