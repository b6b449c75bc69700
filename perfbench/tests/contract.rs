//! The benchmark keeps its own contract: every name it prints is declared
//! in `BENCHMARK.json` with the same unit, and a tiny dry run of every
//! workload, bare and traced, prints every declared metric and passes its
//! own correctness checks.

use std::process::Command;

use lowsense_perfbench::json::Json;
use lowsense_perfbench::WORKLOADS;

const BIN: &str = env!("CARGO_BIN_EXE_perfbench");

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of the `section` array.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{section} is an array"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Runs the binary and returns (exit success, stdout lines).
fn perfbench(args: &[&str]) -> (bool, Vec<String>) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    (
        out.status.success(),
        stdout.lines().map(String::from).collect(),
    )
}

#[test]
fn declared_names_are_well_formed_and_unique() {
    let mut all: Vec<String> = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        for (name, unit) in declared(section) {
            assert!(valid_name(&name), "bad metric name {name:?}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit for {name}");
            all.push(name);
        }
    }
    let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(
        workloads, WORKLOADS,
        "BENCHMARK.json lists the harness's workloads"
    );
    all.extend(workloads);
    let unique: std::collections::BTreeSet<_> = all.iter().collect();
    assert_eq!(unique.len(), all.len(), "names are used once");
}

#[test]
fn tiny_runs_print_exactly_the_declared_metrics() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(section);
        for w in WORKLOADS {
            let args = [
                "--workload",
                w,
                "--seed",
                "3",
                "--seconds",
                "0",
                "--trace",
                trace,
                "--tiny",
            ];
            let (ok, lines) = perfbench(&args);
            assert!(ok, "{w} --trace {trace} exits 0");
            let machine = Json::parse(&lines[lines.len() - 2]).expect("machine line");
            assert!(machine
                .get("machine")
                .and_then(|m| m.get("tsc_ghz"))
                .is_some());
            let result = Json::parse(lines.last().expect("result line")).expect("result parses");
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{w} --trace {trace}"
            );
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
                    >= 1.0
            );
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{w}: metrics object");
            };
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| {
                    let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
                    assert!(
                        v.get("value").and_then(Json::as_f64).is_some(),
                        "{k} has a value"
                    );
                    (k.clone(), unit.to_string())
                })
                .collect();
            let mut want_sorted = want.clone();
            want_sorted.sort();
            assert_eq!(
                got, want_sorted,
                "{w} --trace {trace} prints the declared metrics"
            );
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "drain_16k",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "drain_16k",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &["--workload", "drain_16k", "--seed", "1", "--seconds", "1"],
    ] {
        let (ok, lines) = perfbench(args);
        assert!(!ok, "{args:?} must fail");
        assert!(lines.is_empty(), "{args:?} printed {lines:?}");
    }
}
