//! Simulation engines.
//!
//! Three engines share one semantics (the model of paper §1.1) and one
//! substrate: every engine is a *stepping strategy* over the shared
//! [`EngineCore`](self::core::EngineCore), which owns the RNG, arrival cursor, jamming decision
//! order, slot resolution, metrics, and limits. The strategies differ only
//! in their per-packet bookkeeping and slot visit order:
//!
//! * [`dense`] — slot-by-slot reference engine, `O(packets)` per slot. The
//!   oracle the others are validated against.
//! * [`sparse`] — event-driven engine for [`SparseProtocol`] implementations:
//!   a hierarchical timing-wheel wake set ([`wake`]) makes a channel access
//!   `O(1)` amortized out to million-station horizons, per-packet state
//!   lives in an epoch-compacted dense table ([`table`]) split into
//!   per-field lanes, silent slots are skipped exactly, and high-fanout
//!   slots over cache-busting state lanes run the address-ordered staged
//!   gather/scatter path ([`stage`]). Slots are processed in insertion
//!   order — the staging permutation reorders memory traffic only, never
//!   the processing order.
//! * [`sparse_reference`] — the retained heap-based sparse loop, keyed
//!   `(slot, insertion_seq)`; the bit-for-bit equivalence oracle for
//!   [`sparse`], which differs from it in both wake set and loop.
//! * [`grouped`] — cohort engine for [`SymmetricProtocol`] baselines that
//!   listen every slot, `O(groups)` per slot.
//!
//! Every engine's loop body is additionally generic over a
//! [`FeedbackModel`](crate::feedback::FeedbackModel). Each engine has one
//! public `run_*` entry point, which reads the run's channel from
//! [`SimConfig::model`](crate::config::SimConfig::model) and picks the
//! matching monomorphized body once per run, so the model is never
//! dispatched inside the slot loop.
//!
//! Most code should not call the `run_*` entry points directly but go
//! through the [scenario layer](crate::scenario), which composes arrivals,
//! jamming, limits, metrics, and the channel model into named, reusable
//! run descriptions.
//!
//! [`SparseProtocol`]: crate::protocol::SparseProtocol
//! [`SymmetricProtocol`]: grouped::SymmetricProtocol

pub mod core;
pub mod dense;
pub mod grouped;
pub mod sparse;
pub mod sparse_reference;
pub mod stage;
pub mod table;
pub mod wake;

pub use dense::run_dense;
pub use grouped::{run_grouped, SymmetricProtocol};
pub use sparse::run_sparse;
pub use sparse_reference::run_sparse_reference;
pub use stage::{staging_applies, STAGE_MIN_LANE_BYTES, STAGE_MIN_PARTICIPANTS};
