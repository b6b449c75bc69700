//! The acceptance pin for the campaign subsystem: the ported face-off
//! sweep's artifact is **byte-identical across shard counts {1, 2, 8}**
//! on the same campaign seed, and equal to the serial reference executor.
//! (The CI canary additionally diffs the `campaign` binary's on-disk
//! artifacts at 1 vs 4 shards.)

use lowsense::lsb;
use lowsense_campaign::seed::cell_seed;
use lowsense_campaign::CampaignSpec;
use lowsense_experiments::campaigns;
use lowsense_experiments::exp::{t4, t7};
use lowsense_sim::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

#[test]
fn faceoff_artifact_is_byte_identical_across_shard_counts() {
    let spec = campaigns::faceoff_small_spec(42);
    let oracle = spec.run_serial();
    let json = oracle.to_json();
    assert!(json.contains("\"schema\": \"lowsense-campaign/2\""));
    for shards in [1, 2, 8] {
        let run = spec.run_sharded(shards);
        assert_eq!(run, oracle, "cell statistics drifted at {shards} shards");
        assert_eq!(
            run.to_json(),
            json,
            "artifact bytes drifted at {shards} shards"
        );
    }
}

#[test]
fn feedback_grid_artifact_is_byte_identical_across_shard_counts() {
    let spec = campaigns::feedback_grid_small_spec(42);
    let oracle = spec.run_serial();
    let json = oracle.to_json();
    assert!(json.contains("\"models\": [\"ternary\", \"no-cd\", \"costly(alpha=0.5)\"]"));
    for shards in [1, 4] {
        let run = spec.run_sharded(shards);
        assert_eq!(run, oracle, "cell statistics drifted at {shards} shards");
        assert_eq!(
            run.to_json(),
            json,
            "artifact bytes drifted at {shards} shards"
        );
    }
}

#[test]
fn faceoff_campaign_seed_is_load_bearing() {
    let a = campaigns::faceoff_small_spec(1).run_sharded(2).to_json();
    let b = campaigns::faceoff_small_spec(2).run_sharded(2).to_json();
    assert_ne!(a, b, "different campaign seeds must give different sweeps");
}

#[test]
fn ported_energy_campaign_is_shard_count_invariant() {
    // The T4 energy sweep exercises per-packet accumulators (Welford +
    // sketch + histogram); pin those across shard counts too.
    let spec = t4::energy_spec(&[64, 128], 3, 7);
    let oracle = spec.run_serial();
    for shards in [2, 8] {
        assert_eq!(spec.run_sharded(shards), oracle, "{shards} shards");
    }
}

#[test]
fn ported_reactive_campaign_is_shard_count_invariant() {
    // The T7 sweep adds a custom metric; its accumulator must merge in
    // canonical order as well.
    let spec = t7::reactive_spec(128, &[0, 8], 3, 9);
    let oracle = spec.run_serial();
    let json = oracle.to_json();
    assert!(json.contains("target_accesses"));
    for shards in [2, 8] {
        assert_eq!(spec.run_sharded(shards).to_json(), json, "{shards} shards");
    }
}

/// The text a campaign executor panicked with.
fn panic_text(run: impl FnOnce() -> lowsense_campaign::CampaignResult) -> String {
    let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("the campaign must panic");
    match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(payload) => payload
            .downcast_ref::<&str>()
            .expect("string payload")
            .to_string(),
    }
}

/// A panicking cell names itself: both executors re-raise one message that
/// carries the campaign, the cell and its labels, the replicate, the run
/// seed, and the original panic text.
#[test]
fn panicking_cell_names_itself_identically_on_every_executor() {
    let spec = CampaignSpec::new("panicky")
        .seed(42)
        .replicates(2)
        .scenario(scenarios::batch_drain(8).boxed())
        .scenario(scenarios::batch_drain(16).boxed())
        .protocol("lsb", |sc, _| sc.run_sparse(lsb()))
        .protocol("boom", |sc, _| {
            if sc.name() == "batch-drain(n=16)"
                && sc.channel_model() == ChannelModel::NoCollisionDetection
            {
                panic!("boom in the protocol closure");
            }
            sc.run_sparse(lsb())
        })
        .models([ChannelModel::Ternary, ChannelModel::NoCollisionDetection]);
    let serial = panic_text(|| spec.run_serial());
    let sharded = panic_text(|| spec.run_sharded(3));
    assert_eq!(serial, sharded, "executors disagree on the failing run");
    let cell = spec.cell_index_model(1, 1, 1);
    let run_seed = cell_seed(42, cell as u64, 0);
    for part in [
        "campaign \"panicky\" (seed 42)".to_string(),
        format!("cell {cell} [batch-drain(n=16) × boom × no-cd]"),
        "replicate 0".to_string(),
        format!("run seed {run_seed}"),
        "boom in the protocol closure".to_string(),
    ] {
        assert!(serial.contains(&part), "{part:?} missing from {serial:?}");
    }

    let opaque = CampaignSpec::new("opaque")
        .scenario(scenarios::batch_drain(4).boxed())
        .protocol("boom", |_, _| std::panic::panic_any(7_u32));
    let msg = panic_text(|| opaque.run_serial());
    assert!(msg.ends_with("<non-string payload>"), "{msg:?}");
}
