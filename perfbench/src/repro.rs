//! `repro_quick`: every registry experiment at `Scale::Quick`, tables
//! rendered — one `repro --quick all` pass.
//!
//! The experiments fix their own seeds, so the workload seed only sets the
//! order the experiments run in.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use lowsense_experiments::{registry, Cell, Experiment, Scale, Table};

use crate::machine::{cpu_seconds, nproc, peak_rss_mib};
use crate::report::{median, ratio, repro_exp_metric, sub_seed, Outcome};
use crate::{for_units, time_batches, Ctx};

/// Registry-construction batches timed before each pass.
const SETUP_BATCHES: usize = 15;

/// The registry in a seed-determined order (Fisher–Yates). `--tiny` keeps
/// the first three.
fn ordered(ctx: &Ctx, pass: u64) -> Vec<Experiment> {
    let mut exps = registry();
    for i in (1..exps.len()).rev() {
        let j = (sub_seed(ctx.seed, pass * 1000 + i as u64) % (i as u64 + 1)) as usize;
        exps.swap(i, j);
    }
    if ctx.tiny {
        exps.truncate(3);
    }
    exps
}

/// A table passes when it has rows and every number in it is finite.
fn table_ok(t: &Table) -> bool {
    !t.rows.is_empty()
        && t.rows
            .iter()
            .flatten()
            .all(|c| !matches!(c, Cell::Float(v, _) if !v.is_finite()))
}

/// Runs one experiment and renders its tables; counts it in `out`.
fn run_one(e: &Experiment, out: &mut Outcome) -> f64 {
    let t0 = Instant::now();
    let tables = catch_unwind(AssertUnwindSafe(|| {
        let tables = (e.run)(Scale::Quick);
        let rendered: usize = tables.iter().map(|t| t.render().len()).sum();
        (tables, rendered)
    }));
    let wall = t0.elapsed().as_secs_f64();
    let ok = match &tables {
        Ok((tables, rendered)) => {
            !tables.is_empty() && *rendered > 0 && tables.iter().all(table_ok)
        }
        Err(_) => false,
    };
    if !ok {
        eprintln!("perfbench: experiment {} failed", e.id);
    }
    out.unit(ok);
    wall
}

/// `--trace 0`: registry construction time, wall time per pass, peak
/// memory.
pub fn measure(ctx: &Ctx, out: &mut Outcome) {
    let (mut setup, mut walls) = (Vec::new(), Vec::new());
    for_units(ctx, 1, |pass| {
        time_batches(registry, SETUP_BATCHES, &mut setup);
        let exps = ordered(ctx, pass);
        let t0 = Instant::now();
        for e in &exps {
            run_one(e, out);
        }
        walls.push(t0.elapsed().as_secs_f64());
    });
    out.set("peak_rss_mib", peak_rss_mib());
    out.set("wall_s", median(&mut walls));
    out.set("setup_s", median(&mut setup));
}

/// `--trace 1`: alternating bare and per-experiment-timed passes. Reports
/// the median time of each experiment and the process CPU utilisation of
/// the timed passes.
pub fn trace(ctx: &Ctx, out: &mut Outcome) {
    let ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
    let mut per_exp: Vec<Vec<f64>> = vec![Vec::new(); ids.len()];
    let (mut bare_s, mut traced_s, mut cpu_s) = (0.0, 0.0, 0.0);
    for_units(ctx, 1, |pass| {
        let exps = ordered(ctx, pass);
        let t0 = Instant::now();
        for e in &exps {
            run_one(e, out);
        }
        bare_s += t0.elapsed().as_secs_f64();

        let (t1, c1) = (Instant::now(), cpu_seconds());
        for e in &exps {
            let wall = run_one(e, out);
            let k = ids.iter().position(|id| *id == e.id).expect("registry id");
            per_exp[k].push(wall);
        }
        traced_s += t1.elapsed().as_secs_f64();
        cpu_s += cpu_seconds() - c1;
    });
    for (id, walls) in ids.iter().zip(per_exp.iter_mut()) {
        out.set(repro_exp_metric(id), median(walls));
    }
    out.set("trace.overhead", ratio(traced_s, bare_s) - 1.0);
    out.set("repro.cpu_util", ratio(cpu_s, traced_s * nproc() as f64));
}
