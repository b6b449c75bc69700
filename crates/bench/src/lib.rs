//! Shared measurement machinery for the bench targets.
//!
//! The phase probe here is consumed by two benches: `phases` (the
//! human-readable breakdown, with a `--json` mode) and `smoke` (which
//! records `cyc_per_access` and per-phase shares into `BENCH_engine.json`
//! so CI can gate on them). Both time the production `run_sparse` loop
//! through its `Hooks::on_phase` reports, so the two can never disagree
//! about what was measured — and neither can drift from the engine.

pub mod profile;
