//! The metric catalogue, the result line, and the shared statistics and
//! correctness helpers every workload uses.

use std::collections::BTreeMap;

use lowsense_experiments::campaigns::faceoff_spec;
use lowsense_sim::metrics::{RunResult, Totals};

use crate::json::quote;

/// End-to-end metrics, `(name, unit)`: printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] =
    &[("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")];

/// Fixed per-layer metrics, `(name, unit)`. With `--trace 1` every workload
/// prints all of these plus one `sweep.unit_s.<protocol>` per face-off
/// protocol and one `repro.exp_s.<id>` per registry experiment; a layer the
/// workload never reaches reads 0.
const PER_LAYER_FIXED: &[(&str, &str)] = &[
    ("accesses_per_s", "1/s"),
    ("fail_ratio", "ratio"),
    ("trace.overhead", "ratio"),
    ("protocol.calls_per_access", "ratio"),
    ("protocol.ns_per_call", "ns"),
    ("protocol.share", "ratio"),
    ("engine.self_ns_per_access", "ns"),
    ("engine.event_slots", "count"),
    ("engine.gap_slot_frac", "ratio"),
    ("engine.participants_p50", "count"),
    ("engine.participants_p99", "count"),
    ("stage.slot_frac", "ratio"),
    ("stage.access_frac", "ratio"),
    ("wake.peak_bytes", "B"),
    ("table.peak_state_bytes", "B"),
    ("engine.bytes_per_station", "B"),
    ("campaign.pool_util", "ratio"),
    ("campaign.artifact_s", "s"),
    ("campaign.artifact_bytes", "B"),
    ("repro.cpu_util", "ratio"),
    ("obs.recorder_overhead", "ratio"),
];

/// `label` reduced to the metric-name alphabet `[A-Za-z0-9_.-]`: every run
/// of other characters becomes one `-`, trimmed at the ends.
pub fn metric_slug(label: &str) -> String {
    let mut out = String::new();
    for c in label.chars() {
        if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') {
            out.push(c);
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_matches('-').to_string()
}

/// `sweep.unit_s.<protocol>` for a face-off protocol label.
pub fn sweep_unit_metric(label: &str) -> String {
    format!("sweep.unit_s.{}", metric_slug(label))
}

/// `repro.exp_s.<id>` for a registry experiment id.
pub fn repro_exp_metric(id: &str) -> String {
    format!("repro.exp_s.{}", metric_slug(id))
}

/// Every per-layer metric, `(name, unit)`, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    // An empty face-off (no scenario points, so no runs) names the
    // protocol axis without this file repeating it.
    let faceoff = faceoff_spec(&[], 1, 0).run_serial();
    out.extend(
        faceoff
            .protocols
            .iter()
            .map(|l| (sweep_unit_metric(l), "s")),
    );
    out.extend(
        lowsense_experiments::registry()
            .iter()
            .map(|e| (repro_exp_metric(e.id), "s")),
    );
    out
}

/// What one invocation measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// A cross-check beyond the per-unit failures (reference oracle,
    /// traced vs bare identity) did not hold.
    pub checks_failed: bool,
    metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// The value of `name`, 0 if the workload never set it.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Counts one unit of work, failed or not.
    pub fn unit(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a failed cross-check and says which on stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("perfbench: check failed: {what}");
            self.checks_failed = true;
        }
    }

    pub fn fail_ratio(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// The result line: exactly the `catalogue` metrics, each defaulting
    /// to 0 when the workload did not reach its layer. A non-finite value
    /// marks the run incorrect and prints as 0.
    pub fn to_json(&self, catalogue: &[(String, &str)]) -> String {
        let mut finite = true;
        let body: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let mut v = self.get(name);
                if !v.is_finite() {
                    eprintln!("perfbench: metric {name} is not finite");
                    finite = false;
                    v = 0.0;
                }
                format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    quote(name),
                    quote(unit)
                )
            })
            .collect();
        let correct = finite && !self.checks_failed && self.failed == 0 && self.attempted > 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The `q`-quantile (nearest rank) of `v`; 0 for an empty slice.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// SplitMix64 finalizer: the `i`-th sub-seed of workload seed `seed`.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i.wrapping_add(1)))
        .wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// Folds every field of a [`RunResult`] — counters, the per-packet table,
/// the trajectory series, floats by bit pattern — into one FNV-1a word.
/// Two results hash equal iff they are bit-identical (up to collisions).
pub fn result_hash(r: &RunResult) -> u64 {
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

/// The `Totals` invariants every engine run must keep: the active slots
/// partition into empty, success, collision and jammed slots, deliveries
/// never exceed arrivals, and a run that should drain left no backlog.
pub fn totals_hold(t: &Totals, must_drain: bool) -> bool {
    let partition =
        t.active_slots == t.empty_active + t.successes + t.collision_slots + t.jammed_active;
    partition && t.successes <= t.arrivals && (!must_drain || t.successes == t.arrivals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_stay_in_the_name_alphabet() {
        assert_eq!(metric_slug("poly(k=2)"), "poly-k-2");
        assert_eq!(metric_slug("low-sensing"), "low-sensing");
        assert_eq!(sweep_unit_metric("cjp-mwu"), "sweep.unit_s.cjp-mwu");
    }

    #[test]
    fn per_layer_names_are_unique() {
        let names = per_layer();
        let set: std::collections::BTreeSet<_> = names.iter().map(|(n, _)| n).collect();
        assert_eq!(set.len(), names.len());
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(quantile(&mut v, 0.99), 5.0);
        assert_eq!(quantile(&mut v, 0.5), 3.0);
        assert_eq!(median(&mut [1.0, 2.0]), 1.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn sub_seeds_are_distinct_and_repeatable() {
        let a: Vec<u64> = (0..64).map(|i| sub_seed(7, i)).collect();
        let set: std::collections::BTreeSet<_> = a.iter().collect();
        assert_eq!(set.len(), a.len());
        assert_eq!(sub_seed(7, 3), a[3]);
        assert_ne!(sub_seed(8, 3), a[3]);
    }

    #[test]
    fn totals_invariants_catch_broken_runs() {
        let good = Totals {
            arrivals: 4,
            successes: 4,
            active_slots: 10,
            empty_active: 3,
            collision_slots: 2,
            jammed_active: 1,
            ..Totals::default()
        };
        assert!(totals_hold(&good, true));
        let undrained = Totals {
            successes: 3,
            empty_active: 4,
            ..good
        };
        assert!(totals_hold(&undrained, false));
        assert!(!totals_hold(&undrained, true));
        let torn = Totals {
            empty_active: 9,
            ..good
        };
        assert!(!totals_hold(&torn, false));
    }

    #[test]
    fn result_line_defaults_unreached_layers_to_zero() {
        let mut o = Outcome::default();
        o.unit(true);
        o.set("wall_s", 1.5);
        let cat = vec![("wall_s".to_string(), "s"), ("setup_s".to_string(), "s")];
        let line = o.to_json(&cat);
        let v = crate::json::Json::parse(&line).unwrap();
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s").and_then(|s| s.get("value")),
            Some(&crate::json::Json::Num(0.0))
        );
        assert_eq!(v.get("correct"), Some(&crate::json::Json::Bool(true)));
        o.set("wall_s", f64::NAN);
        let v = crate::json::Json::parse(&o.to_json(&cat)).unwrap();
        assert_eq!(v.get("correct"), Some(&crate::json::Json::Bool(false)));
    }
}
