//! The benchmark's command line. See `README.md` in this directory and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload drain_16k --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The line before it records the machine. Bad arguments exit with code 2
//! and print no result.

use std::process::ExitCode;

use lowsense_perfbench::report::{self, END_TO_END};
use lowsense_perfbench::{json, machine, run, Ctx, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <drain_16k|resident_1M|sweep_faceoff|repro_quick> \
                     --seed <u64> --seconds <n> --trace <0|1> [--tiny]";

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
        (None, None, None, None, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds >= 0.0 && seconds.is_finite()) {
        return Err(format!(
            "--seconds must be a non-negative number, not {seconds}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ctx = match Ctx::new(args.seed, args.seconds, args.tiny) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: cannot create the output directory: {e}");
            return ExitCode::from(1);
        }
    };
    let out = run(&args.workload, args.trace, &ctx);

    let catalogue: Vec<(String, &str)> = if args.trace {
        report::per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let line = out.to_json(&catalogue);
    for (name, unit) in &catalogue {
        eprintln!("  {name:<32} {:>16.6} {unit}", out.get(name));
    }
    eprintln!(
        "  attempted {} failed {} checks {}",
        out.attempted,
        out.failed,
        if out.checks_failed { "FAILED" } else { "ok" }
    );
    println!(
        "{{\"machine\": {{\"nproc\": {}, \"cpu_model\": {}, \"tsc_ghz\": {}}}, \"workload\": {}, \"seed\": {}, \"tiny\": {}}}",
        machine::nproc(),
        json::quote(&machine::cpu_model()),
        ctx.tsc_ghz,
        json::quote(&args.workload),
        args.seed,
        args.tiny,
    );
    println!("{line}");
    ExitCode::SUCCESS
}
