//! `sweep_faceoff`: the full protocol face-off campaign on the shard pool,
//! rendered and written as an artifact.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use lowsense_campaign::{CampaignResult, CampaignSpec, ProgressConfig};
use lowsense_experiments::campaigns::faceoff_spec;
use lowsense_experiments::common::pow2_sweep;

use crate::json::Json;
use crate::machine::peak_rss_mib;
use crate::report::{median, ratio, sub_seed, sweep_unit_metric, Outcome};
use crate::{for_units, time_batches, Ctx};

/// Worker threads of the shard pool.
const SHARDS: usize = 2;

/// Spec-construction batches timed before each pass.
const SETUP_BATCHES: usize = 51;

fn spec(tiny: bool, seed: u64) -> CampaignSpec {
    if tiny {
        faceoff_spec(&[64, 128], 2, seed)
    } else {
        faceoff_spec(&pow2_sweep(6, 15), 12, seed)
    }
}

/// One finished pass.
struct Pass {
    result: CampaignResult,
    /// The artifact's bytes as written.
    artifact: Vec<u8>,
    /// Seconds for the whole pass.
    wall: f64,
    /// Seconds for `render` and `write_json`.
    artifact_s: f64,
}

/// Runs one pass — spec, sweep, render, artifact write — and counts every
/// cell in `out`: a cell fails unless all its replicates ran and drained.
/// A panicking sweep fails all its cells. `progress` turns on the JSONL
/// progress stream.
fn pass(ctx: &Ctx, out: &mut Outcome, seed: u64, progress: Option<&Path>) -> Option<Pass> {
    let artifact_path = ctx.out_dir.join("faceoff.json");
    let t0 = Instant::now();
    let spec = spec(ctx.tiny, seed);
    let cells = spec.cell_count();
    let run = catch_unwind(AssertUnwindSafe(|| match progress {
        None => Ok(spec.run_sharded(SHARDS)),
        Some(p) => spec.run_sharded_progress(
            SHARDS,
            &ProgressConfig {
                stderr: false,
                jsonl: Some(p.to_path_buf()),
            },
        ),
    }));
    let result = match run {
        Ok(Ok(r)) => r,
        _ => {
            for _ in 0..cells {
                out.unit(false);
            }
            return None;
        }
    };
    let t1 = Instant::now();
    let table = result.render();
    let written = result.write_json(&artifact_path);
    let artifact_s = t1.elapsed().as_secs_f64();
    let wall = t0.elapsed().as_secs_f64();
    out.check(!table.is_empty(), "face-off table renders");
    out.check(written.is_ok(), "face-off artifact writes");
    for cell in &result.cells {
        let s = &cell.stats;
        out.unit(
            s.runs == u64::from(result.replicates) && s.arrivals > 0 && s.successes == s.arrivals,
        );
    }
    let artifact = std::fs::read(&artifact_path).unwrap_or_default();
    Some(Pass {
        result,
        artifact,
        wall,
        artifact_s,
    })
}

/// `--trace 0`: spec construction time, wall time per pass, peak memory.
pub fn measure(ctx: &Ctx, out: &mut Outcome) {
    let (mut setup, mut walls) = (Vec::new(), Vec::new());
    for_units(ctx, 2, |i| {
        let seed = sub_seed(ctx.seed, i);
        time_batches(|| spec(ctx.tiny, seed), SETUP_BATCHES, &mut setup);
        if let Some(p) = pass(ctx, out, seed, None) {
            walls.push(p.wall);
        }
    });
    out.set("peak_rss_mib", peak_rss_mib());
    out.set("wall_s", median(&mut walls));
    out.set("setup_s", median(&mut setup));
}

/// `--trace 1`: a bare pass and a pass with the progress stream on, same
/// campaign seed. Their results and artifact bytes must match; the stream
/// gives per-unit wall times.
pub fn trace(ctx: &Ctx, out: &mut Outcome) {
    let seed = sub_seed(ctx.seed, 0);
    let bare = pass(ctx, out, seed, None);
    let progress_path: PathBuf = ctx.out_dir.join("faceoff-progress.jsonl");
    let traced = pass(ctx, out, seed, Some(&progress_path));
    let (Some(bare), Some(traced)) = (bare, traced) else {
        out.check(false, "both face-off passes completed");
        return;
    };
    out.check(
        bare.result == traced.result && bare.artifact == traced.artifact,
        "progress-on artifact is byte-identical to progress-off",
    );
    let accesses: u64 = bare
        .result
        .cells
        .iter()
        .map(|c| c.stats.sends + c.stats.listens)
        .sum();
    out.set("accesses_per_s", ratio(accesses as f64, bare.wall));
    out.set("trace.overhead", ratio(traced.wall, bare.wall) - 1.0);
    out.set("campaign.artifact_s", traced.artifact_s);
    out.set("campaign.artifact_bytes", traced.artifact.len() as f64);

    let units = match read_units(&progress_path, &traced.result) {
        Ok(u) => u,
        Err(e) => {
            out.check(false, &format!("progress stream parses: {e}"));
            return;
        }
    };
    out.check(
        units.len() == traced.result.cells.len() * traced.result.replicates as usize,
        "progress stream reports every unit once",
    );
    let mut per_protocol = vec![0.0; traced.result.protocols.len()];
    for &(protocol, secs) in &units {
        per_protocol[protocol] += secs;
    }
    for (label, secs) in traced.result.protocols.iter().zip(&per_protocol) {
        out.set(sweep_unit_metric(label), *secs);
    }
    // Pool utilisation over the sweep proper: the pass less its render
    // and artifact write (spec construction is microseconds).
    let busy: f64 = per_protocol.iter().sum();
    let sweep_s = traced.wall - traced.artifact_s;
    out.set("campaign.pool_util", ratio(busy, SHARDS as f64 * sweep_s));
}

/// `(protocol index, wall seconds)` of every unit record in the progress
/// stream. Units are cell-major over replicates, cells scenario-major over
/// protocols (the face-off has no model axis).
fn read_units(path: &Path, result: &CampaignResult) -> Result<Vec<(usize, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let protocols = result.protocols.len();
    let mut units = Vec::new();
    for line in text.lines() {
        let rec = Json::parse(line)?;
        if rec.get("t").and_then(Json::as_str) != Some("unit") {
            continue;
        }
        let cell = rec
            .get("cell")
            .and_then(Json::as_f64)
            .ok_or("unit without cell")?;
        let ms = rec
            .get("wall_ms")
            .and_then(Json::as_f64)
            .ok_or("unit without wall_ms")?;
        units.push((cell as usize % protocols, ms / 1e3));
    }
    Ok(units)
}
