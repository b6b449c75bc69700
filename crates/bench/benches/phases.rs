//! Phase-by-phase cycle profile of the sparse engine's hot loop.
//!
//! ```text
//! cargo bench -p lowsense-bench --bench phases            # human table
//! cargo bench -p lowsense-bench --bench phases -- --json  # machine readable
//! ```
//!
//! Runs the `sparse_lsb_16384` smoke workload on the production sparse
//! engine with the phase probe of `lowsense_bench::profile` attached, and
//! prints the share of cycles each phase consumes. This is
//! the measurement tool behind the locality work on the sparse engine (see
//! ROADMAP): when a perf target is missed, the recorded breakdown comes
//! from here. The `smoke` bench embeds the same numbers in
//! `BENCH_engine.json`; `--json` prints the breakdown alone, in the same
//! shape as that file's `phases` entry.

use lowsense_bench::profile::profile_sparse_smoke;
use lowsense_sim::hooks::EnginePhase;

const PACKETS: u64 = 16_384;
const REPS: u64 = 5;

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let smoke = profile_sparse_smoke(PACKETS, REPS);
    let total = smoke.profile.total();

    if json {
        println!("{{");
        println!("  \"schema\": \"lowsense-bench-phases/1\",");
        println!("  \"workload\": \"sparse_lsb_16384\",");
        println!("  \"reps\": {},", smoke.reps);
        println!("  \"accesses\": {},", smoke.accesses);
        println!("  \"total_cycles\": {total},");
        println!("  \"cyc_per_access\": {:.2},", smoke.cyc_per_access());
        println!("  \"shares\": {{");
        for (i, phase) in EnginePhase::ALL.iter().enumerate() {
            let sep = if i + 1 == EnginePhase::ALL.len() {
                ""
            } else {
                ","
            };
            println!(
                "    \"{}\": {:.4}{sep}",
                phase.slug(),
                smoke.profile.share(i)
            );
        }
        println!("  }}");
        println!("}}");
        return;
    }

    println!(
        "phases: sparse_lsb_16384, {} reps, {} accesses",
        smoke.reps, smoke.accesses
    );
    println!(
        "phases: {} total cycles, {:.1} per access",
        total,
        smoke.cyc_per_access()
    );
    for (i, phase) in EnginePhase::ALL.iter().enumerate() {
        println!(
            "phases: {:>5.1}%  {:>7.1} cyc/access  {}",
            100.0 * smoke.profile.share(i),
            smoke.profile.cycles[i] as f64 / smoke.accesses.max(1) as f64,
            phase.label(),
        );
    }
}
