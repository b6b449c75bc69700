//! Perf smoke target: slots/second per engine, machine readable.
//!
//! ```text
//! cargo bench -p lowsense-bench --bench smoke
//! ```
//!
//! Runs one representative scenario per engine and writes
//! `BENCH_engine.json` (at the workspace root) with slots-per-second and
//! accesses-per-second figures, so successive PRs have a perf trajectory
//! to compare against. Schema 3 added a `campaign` section timing the tiny
//! face-off sweep (cells per second on the shard pool); schema 4 added a
//! `phases` section with the production loop's cycle profile (see the
//! `phases` bench — same probe, embedded here so CI can gate on
//! `cyc_per_access` and the per-phase shares); schema 5 adds the
//! million-station capacity tier `sparse_lsb_1M` (n = 10^6 batch-injected,
//! short horizon) and a `capacity` section with its measured
//! bytes-per-station budget — engine overhead only (wake wheel + table
//! bookkeeping lanes), with protocol state reported separately (as peak
//! live stations × `size_of::<LowSensing>()`); schema 6
//! adds the channel-model smoke entry `sparse_lsb_16384_nocd` (the same
//! LSB batch on the no-collision-detection channel, horizon capped because
//! full-sensing LSB livelocks there — the entry times the model dispatch
//! path, not a drain); schema 7 adds a mid tier between 16384 and 1M
//! (engine + phases entries, tracking the scaling curve; now
//! `sparse_lsb_300k`, the first round size past the staging gate with 16 B
//! `LowSensing` states), grows the phase shares from 10 to 13 slugs (the staged
//! gather/scatter path's `permute`/`gather`/`scatter`), and breaks the
//! staging buffers out as `stage_bytes` in the capacity section:
//!
//! ```json
//! {
//!   "schema": "lowsense-bench-engine/7",
//!   "engines": { "<name>": { "slots": N, "seconds": S, "slots_per_sec": R,
//!                            "accesses": A, "accesses_per_sec": Q } },
//!   "campaign": { "<name>": { "cells": C, "runs": U, "seconds": S,
//!                             "cells_per_sec": R } },
//!   "phases": { "<name>": { "accesses": A, "cyc_per_access": X,
//!                           "shares": { "<slug>": F, ... } } },
//!   "capacity": { "<name>": { "stations": N, "horizon": H,
//!                             "engine_bytes": B, "state_bytes": SB,
//!                             "stage_bytes": GB,
//!                             "bytes_per_station": X, "samples": K } }
//! }
//! ```
//!
//! `slots` and `slots_per_sec` are kept for trajectory continuity with the
//! schema/1 files of earlier PRs, but **engine comparisons should use
//! `accesses_per_sec`**: the event-driven engines account silent gap slots
//! at `O(1)` per gap, so a workload that backs off further (e.g. the
//! jammed entry) inflates its slot count with nearly-free skipped slots,
//! while a channel access costs the same work in every run. Accesses are
//! the engines' real unit of work (see docs/ARCHITECTURE.md).
//!
//! Each profiled tier also prints, on stdout only, the share of its
//! `rdtsc`-bracketed wall-clock span that the phase cycles account for —
//! the check that the per-layer profile adds up to the end-to-end time.

use std::io::Write as _;
use std::time::Instant;

use lowsense::{LowSensing, Params};
use lowsense_baselines::{CjpConfig, CjpMwu};
use lowsense_bench::profile::{profile_sparse_capacity, profile_sparse_smoke, SmokeProfile};
use lowsense_experiments::campaigns;
use lowsense_sim::hooks::EnginePhase;
use lowsense_sim::metrics::RunResult;
use lowsense_sim::scenario::scenarios;

const REPS: u64 = 5;
/// The capacity tier: a million stations batch-injected, horizon capped so
/// the smoke target stays a smoke target (the wheel makes the horizon
/// cheap; station count is what this tier stresses).
const CAP_STATIONS: u64 = 1_000_000;
const CAP_HORIZON: u64 = 100_000;
/// The mid tier between the 16384 drain and the 1M capacity tier: first
/// round size past the staged gather/scatter gate (4.8 MB of 16 B states
/// against the 4 MiB gate), same horizon cap as the 1M tier so cyc/access
/// figures are comparable.
const MID_STATIONS: u64 = 300_000;
/// Fewer reps at capacity scale — one warm-up plus two measured seeds.
const CAP_REPS: u64 = 2;
// Benches run with CWD = the package dir; anchor the report at the
// workspace root so its location does not depend on how cargo was invoked.
const OUT_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");

struct Sample {
    name: &'static str,
    slots: u64,
    accesses: u64,
    seconds: f64,
}

impl Sample {
    fn slots_per_sec(&self) -> f64 {
        self.slots as f64 / self.seconds.max(1e-12)
    }

    fn accesses_per_sec(&self) -> f64 {
        self.accesses as f64 / self.seconds.max(1e-12)
    }
}

/// Times `reps` runs of `run`, counting simulated (active) slots and
/// channel accesses (sends + listens, the engines' real unit of work).
fn measure_reps(name: &'static str, reps: u64, mut run: impl FnMut(u64) -> RunResult) -> Sample {
    // Warm-up run; result intentionally discarded.
    let _ = run(0);
    let start = Instant::now();
    let mut slots = 0u64;
    let mut accesses = 0u64;
    for seed in 1..=reps {
        let totals = run(seed).totals;
        slots += totals.active_slots;
        accesses += totals.accesses();
    }
    Sample {
        name,
        slots,
        accesses,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// [`measure_reps`] at the standard `REPS`.
fn measure(name: &'static str, run: impl FnMut(u64) -> RunResult) -> Sample {
    measure_reps(name, REPS, run)
}

fn main() {
    let samples = vec![
        measure("dense_lsb_512", |seed| {
            scenarios::batch_drain(512)
                .totals_only()
                .seeded(seed)
                .run_dense(|_| LowSensing::new(Params::default()))
        }),
        measure("sparse_lsb_16384", |seed| {
            scenarios::batch_drain(16_384)
                .totals_only()
                .seeded(seed)
                .run_sparse(|_| LowSensing::new(Params::default()))
        }),
        // The retained heap-based loop on the identical workload, so every
        // BENCH_engine.json records the old-vs-new sparse ratio directly
        // (the two runs are bit-identical, making slots/sec comparable).
        measure("sparse_ref_lsb_16384", |seed| {
            scenarios::batch_drain(16_384)
                .totals_only()
                .seeded(seed)
                .run_sparse_reference(|_| LowSensing::new(Params::default()))
        }),
        measure("sparse_lsb_16384_jammed", |seed| {
            scenarios::random_jam_batch(16_384, 0.2)
                .totals_only()
                .seeded(seed)
                .run_sparse(|_| LowSensing::new(Params::default()))
        }),
        // The reference loop on the jammed workload too, so the CI
        // bit-exactness canary covers a jam-feedback path (back-offs, gap
        // jam counting) and not only the clean drain.
        measure("sparse_ref_lsb_16384_jammed", |seed| {
            scenarios::random_jam_batch(16_384, 0.2)
                .totals_only()
                .seeded(seed)
                .run_sparse_reference(|_| LowSensing::new(Params::default()))
        }),
        // The no-CD channel entry: the same LSB batch with collisions
        // reported as silence. LSB never drains here (it walks the wrong
        // way and livelocks at maximum aggression), so the horizon is hard
        // capped and fewer reps suffice — the entry exists to time the
        // feedback-model dispatch in the slot loop, and to keep a perf
        // trajectory for the non-ternary resolve path.
        measure_reps("sparse_lsb_16384_nocd", 2, |seed| {
            scenarios::nocd_batch(16_384)
                .totals_only()
                .until_slot(10_000)
                .seeded(seed)
                .run_sparse(|_| LowSensing::new(Params::default()))
        }),
        // The mid tier: 3·10^5 stations, the first smoke point whose state
        // lane overflows the cache and runs the staged gather/scatter
        // path. Tracks the scaling curve between the in-cache 16384 drain
        // and the 1M capacity tier.
        measure_reps("sparse_lsb_300k", CAP_REPS, |seed| {
            scenarios::batch_drain(MID_STATIONS)
                .totals_only()
                .until_slot(CAP_HORIZON)
                .seeded(seed)
                .run_sparse(|_| LowSensing::new(Params::default()))
        }),
        // The capacity tier: 10^6 stations on the hierarchical wheel, horizon
        // capped. Stresses station count (queue fill, table lanes, cascade
        // traffic), not horizon length.
        measure_reps("sparse_lsb_1M", CAP_REPS, |seed| {
            scenarios::batch_drain(CAP_STATIONS)
                .totals_only()
                .until_slot(CAP_HORIZON)
                .seeded(seed)
                .run_sparse(|_| LowSensing::new(Params::default()))
        }),
        measure("grouped_cjp_4096", |seed| {
            scenarios::batch_drain(4096)
                .totals_only()
                .seeded(seed)
                .run_grouped(|_| CjpMwu::new(CjpConfig::default()))
        }),
    ];

    // The campaign smoke entry: the tiny face-off sweep (the same spec the
    // CI determinism canary runs), timed end to end on the shard pool —
    // cells/sec is the sweep layer's unit of work.
    let campaign_spec = campaigns::faceoff_small_spec(42);
    let _warm = campaign_spec.run();
    let campaign_start = Instant::now();
    let campaign_reps = 3u32;
    for _ in 0..campaign_reps {
        let result = campaign_spec.run();
        assert_eq!(result.cells.len(), campaign_spec.cell_count());
    }
    let campaign_seconds = campaign_start.elapsed().as_secs_f64();
    let campaign_cells = campaign_spec.cell_count() as u64 * campaign_reps as u64;
    let campaign_runs = campaign_spec.unit_count() as u64 * campaign_reps as u64;
    let cells_per_sec = campaign_cells as f64 / campaign_seconds.max(1e-12);

    // The cycle profile of the sparse hot loop: `run_sparse` itself with
    // the phase probe attached, as the `phases` bench prints it.
    let phase_profile = profile_sparse_smoke(16_384, 5);

    // The mid tier's phase profile: the first point where the staged
    // permute/gather/scatter slugs accrue cycles (one seed; memory peaks
    // unused here).
    let (mid_profile, _) = profile_sparse_capacity(MID_STATIONS, CAP_HORIZON, 1);

    // The capacity tier's phase profile and memory budget, from the same
    // probe's periodic engine samples (one seed, capped horizon).
    let (cap_profile, cap_probe) = profile_sparse_capacity(CAP_STATIONS, CAP_HORIZON, 1);
    assert!(
        cap_probe.peak_live >= CAP_STATIONS / 2,
        "capacity probe sampled only {} live stations",
        cap_probe.peak_live
    );

    let mut json =
        String::from("{\n  \"schema\": \"lowsense-bench-engine/7\",\n  \"engines\": {\n");
    for (i, s) in samples.iter().enumerate() {
        let sep = if i + 1 == samples.len() { "" } else { "," };
        json.push_str(&format!(
            "    \"{}\": {{ \"slots\": {}, \"seconds\": {:.6}, \"slots_per_sec\": {:.1}, \
             \"accesses\": {}, \"accesses_per_sec\": {:.1} }}{sep}\n",
            s.name,
            s.slots,
            s.seconds,
            s.slots_per_sec(),
            s.accesses,
            s.accesses_per_sec()
        ));
    }
    json.push_str("  },\n  \"campaign\": {\n");
    json.push_str(&format!(
        "    \"campaign_faceoff_small\": {{ \"cells\": {}, \"runs\": {}, \"seconds\": {:.6}, \
         \"cells_per_sec\": {:.1} }}\n",
        campaign_cells, campaign_runs, campaign_seconds, cells_per_sec
    ));
    json.push_str("  },\n  \"phases\": {\n");
    let push_phases = |json: &mut String, name: &str, p: &SmokeProfile, sep: &str| {
        json.push_str(&format!(
            "    \"{name}\": {{ \"accesses\": {}, \"cyc_per_access\": {:.2}, \"shares\": {{ ",
            p.accesses,
            p.cyc_per_access()
        ));
        for (i, phase) in EnginePhase::ALL.iter().enumerate() {
            let sep = if i + 1 == EnginePhase::ALL.len() {
                ""
            } else {
                ", "
            };
            json.push_str(&format!(
                "\"{}\": {:.4}{sep}",
                phase.slug(),
                p.profile.share(i)
            ));
        }
        json.push_str(&format!(" }} }}{sep}\n"));
    };
    push_phases(&mut json, "sparse_lsb_16384", &phase_profile, ",");
    push_phases(&mut json, "sparse_lsb_300k", &mid_profile, ",");
    push_phases(&mut json, "sparse_lsb_1M", &cap_profile, "");
    json.push_str("  },\n  \"capacity\": {\n");
    json.push_str(&format!(
        "    \"sparse_lsb_1M\": {{ \"stations\": {}, \"horizon\": {}, \"engine_bytes\": {}, \
         \"state_bytes\": {}, \"stage_bytes\": {}, \"bytes_per_station\": {:.2}, \"samples\": {} }}\n",
        cap_probe.peak_live,
        CAP_HORIZON,
        cap_probe.peak_engine_bytes,
        cap_probe.state_bytes(),
        cap_probe.peak_stage_bytes,
        cap_probe.bytes_per_station(),
        cap_probe.samples
    ));
    json.push_str("  }\n}\n");

    for s in &samples {
        println!(
            "smoke: {:<28} {:>12} slots in {:>8.3}s  ({:>12.0} slots/sec, {:>12.0} accesses/sec)",
            s.name,
            s.slots,
            s.seconds,
            s.slots_per_sec(),
            s.accesses_per_sec()
        );
    }
    println!(
        "smoke: {:<28} {:>12} cells in {:>8.3}s  ({:>12.1} cells/sec, {} runs)",
        "campaign_faceoff_small", campaign_cells, campaign_seconds, cells_per_sec, campaign_runs
    );
    let share = |p: &SmokeProfile, phase: EnginePhase| 100.0 * p.profile.share(phase as usize);
    println!(
        "smoke: {:<28} {:>12} accesses  ({:.1} cyc/access; observe {:.1}%, wake {:.1}%)",
        "phases_sparse_lsb_16384",
        phase_profile.accesses,
        phase_profile.cyc_per_access(),
        share(&phase_profile, EnginePhase::Observe),
        share(&phase_profile, EnginePhase::Wake),
    );
    println!(
        "smoke: {:<28} {:>12} accesses  ({:.1} cyc/access; permute {:.1}%, gather {:.1}%, scatter {:.1}%)",
        "phases_sparse_lsb_300k",
        mid_profile.accesses,
        mid_profile.cyc_per_access(),
        share(&mid_profile, EnginePhase::Permute),
        share(&mid_profile, EnginePhase::Gather),
        share(&mid_profile, EnginePhase::Scatter),
    );
    println!(
        "smoke: {:<28} {:>12} accesses  ({:.1} cyc/access; {:.1} engine B/station, {:.1} state B/station)",
        "capacity_sparse_lsb_1M",
        cap_profile.accesses,
        cap_profile.cyc_per_access(),
        cap_probe.bytes_per_station(),
        cap_probe.state_bytes() as f64 / cap_probe.peak_live.max(1) as f64,
    );
    for (name, p) in [
        ("sparse_lsb_16384", &phase_profile),
        ("sparse_lsb_300k", &mid_profile),
        ("sparse_lsb_1M", &cap_profile),
    ] {
        println!(
            "smoke: coverage {:<19} phases account for {:.2}% of the bracketed span ({} of {} cycles)",
            name,
            100.0 * p.coverage(),
            p.profile.total(),
            p.span,
        );
    }
    let mut f = std::fs::File::create(OUT_FILE).expect("create BENCH_engine.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_engine.json");
    println!("smoke: wrote BENCH_engine.json");
}
