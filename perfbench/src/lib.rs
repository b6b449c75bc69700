//! The workspace benchmark: four workloads through the public APIs, with
//! end-to-end metrics from bare runs and per-layer metrics from a separate
//! traced run. See `README.md` in this directory and `BENCHMARK.json` at
//! the repository root.
//!
//! The `perfbench` binary is the command line; this library holds the
//! workloads so the benchmark's own tests can reach them.

mod engine;
pub mod json;
pub mod machine;
pub mod report;
mod repro;
mod sweep;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use report::Outcome;

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["drain_16k", "resident_1M", "sweep_faceoff", "repro_quick"];

/// What a workload needs from the command line and the machine.
pub struct Ctx {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// How long the measuring loop keeps starting new units.
    pub seconds: f64,
    /// Shrink every workload to a dry-run size.
    pub tiny: bool,
    /// Where artifacts and progress streams go.
    pub out_dir: PathBuf,
    /// Timestamp-counter ticks per nanosecond.
    pub tsc_ghz: f64,
}

/// Runs `unit(0)`, `unit(1)`, … for about `ctx.seconds`: at least
/// `min_units` of them, then a further one only while it is expected (at
/// the mean unit time so far) to finish within the budget.
pub fn for_units(ctx: &Ctx, min_units: u64, mut unit: impl FnMut(u64)) {
    let start = Instant::now();
    let mut i = 0;
    loop {
        let spent = start.elapsed().as_secs_f64();
        if i >= min_units.max(1) && spent + spent / i as f64 > ctx.seconds {
            return;
        }
        unit(i);
        i += 1;
    }
}

/// Appends to `samples` the per-call time of `f`, in seconds, over
/// `batches` batches each at least 2 ms long — for set-up steps too short
/// to time one by one.
pub fn time_batches<T>(mut f: impl FnMut() -> T, batches: usize, samples: &mut Vec<f64>) {
    let mut per_batch = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..per_batch {
            std::hint::black_box(f());
        }
        if t0.elapsed() >= Duration::from_millis(2) {
            break;
        }
        per_batch *= 2;
    }
    for _ in 0..batches {
        let t0 = Instant::now();
        for _ in 0..per_batch {
            std::hint::black_box(f());
        }
        samples.push(t0.elapsed().as_secs_f64() / per_batch as f64);
    }
}

/// Runs `workload` (one of [`WORKLOADS`]) bare (`trace == false`) or
/// traced, and returns what it measured and checked.
pub fn run(workload: &str, trace: bool, ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let tiny = ctx.tiny;
    match (workload, trace) {
        ("drain_16k", false) => engine::drain_16k(tiny).measure(ctx, &mut out),
        ("drain_16k", true) => engine::drain_16k(tiny).trace(ctx, &mut out),
        ("resident_1M", false) => engine::resident_1m(tiny).measure(ctx, &mut out),
        ("resident_1M", true) => engine::resident_1m(tiny).trace(ctx, &mut out),
        ("sweep_faceoff", false) => sweep::measure(ctx, &mut out),
        ("sweep_faceoff", true) => sweep::trace(ctx, &mut out),
        ("repro_quick", false) => repro::measure(ctx, &mut out),
        ("repro_quick", true) => repro::trace(ctx, &mut out),
        _ => panic!("unknown workload {workload}"),
    }
    out.set("fail_ratio", out.fail_ratio());
    out
}

impl Ctx {
    /// A context for `seed` and `seconds`, with the timer calibrated on
    /// this machine and outputs under this directory's `out/`.
    pub fn new(seed: u64, seconds: f64, tiny: bool) -> std::io::Result<Ctx> {
        let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
        std::fs::create_dir_all(&out_dir)?;
        Ok(Ctx {
            seed,
            seconds,
            tiny,
            out_dir,
            tsc_ghz: machine::tsc_ghz(Duration::from_millis(50)),
        })
    }
}
