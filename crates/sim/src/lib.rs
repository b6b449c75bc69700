//! # lowsense-sim — slotted multiple-access channel simulator
//!
//! The substrate for reproducing *"Fully Energy-Efficient Randomized
//! Backoff: Slow Feedback Loops Yield Fast Contention Resolution"* (Bender,
//! Fineman, Gilbert, Kuszmaul, Young — PODC 2024): a discrete-slot
//! multiple-access channel with **ternary feedback**, adversarial packet
//! **arrivals**, adaptive and reactive **jamming**, and exact simulation
//! engines.
//!
//! The model (paper §1.1): time is slotted; each active packet per slot
//! either sleeps, listens, or sends. A slot with exactly one sender is a
//! *success* and the sender departs; with two or more senders, a
//! *collision*; jammed slots are noisy for everyone. Listeners learn only
//! the ternary outcome (empty / success / noisy) under the default model;
//! [`feedback`] also provides the related papers' channel models
//! (no collision detection, costly collisions) as first-class
//! [`FeedbackModel`](feedback::FeedbackModel)s every engine is generic
//! over.
//!
//! ## Quick start
//!
//! ```
//! use lowsense_sim::prelude::*;
//! use lowsense_sim::dist::geometric;
//!
//! /// Slotted-ALOHA-style protocol: send with fixed probability.
//! #[derive(Clone)]
//! struct Aloha(f64);
//!
//! impl Protocol for Aloha {
//!     fn intent(&mut self, rng: &mut SimRng) -> Intent {
//!         if rng.bernoulli(self.0) { Intent::Send } else { Intent::Sleep }
//!     }
//!     fn observe(&mut self, _obs: &Observation) {}
//!     fn send_probability(&self) -> f64 { self.0 }
//!     fn next_wake(&mut self, rng: &mut SimRng) -> Option<u64> {
//!         Some(geometric(rng, self.0))
//!     }
//! }
//!
//! impl SparseProtocol for Aloha {
//!     fn send_on_access(&mut self, _rng: &mut SimRng) -> bool { true }
//! }
//!
//! let result = run_sparse(
//!     &SimConfig::new(7),
//!     Batch::new(32),
//!     NoJam,
//!     |_rng| Aloha(1.0 / 32.0),
//!     &mut NoHooks,
//! );
//! assert_eq!(result.totals.successes, 32);
//! assert!(result.totals.throughput() > 0.05);
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |--------|----------|
//! | [`rng`], [`dist`] | deterministic PRNG + exact samplers |
//! | [`time`], [`packet`], [`feedback`] | model vocabulary |
//! | [`protocol`] | [`Protocol`](protocol::Protocol) / [`SparseProtocol`](protocol::SparseProtocol) traits |
//! | [`arrivals`], [`jamming`] | adversary strategies |
//! | [`engine`] | shared [`EngineCore`](engine::core::EngineCore) + dense / sparse / grouped strategies |
//! | [`scenario`] | declarative run descriptions + the canonical scenario registry |
//! | [`metrics`] | totals, per-packet stats, trajectory series |
//! | [`hooks`] | zero-cost analysis callbacks |
//! | [`trace`] | bounded event log for debugging protocol implementations |

// Deny, not forbid: the one sanctioned exception is the effect-free
// `prefetcht0` hint in `engine::table` (see `prefetch_read` there), which
// carries its own narrowly-scoped `allow`.
#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod arrivals;
pub mod config;
pub mod dist;
pub mod engine;
pub mod feedback;
pub mod hooks;
pub mod jamming;
pub mod metrics;
pub mod packet;
pub mod protocol;
pub mod rng;
pub mod scenario;
pub mod time;
pub mod trace;
pub mod view;

/// Convenient glob import for simulation code.
pub mod prelude {
    pub use crate::arrivals::{
        AdversarialQueuing, ArrivalProcess, BacklogTriggered, Batch, Bernoulli, Placement,
        PoissonArrivals, Trace,
    };
    pub use crate::config::{Limits, SimConfig};
    pub use crate::engine::{
        run_dense, run_grouped, run_sparse, run_sparse_reference, SymmetricProtocol,
    };
    pub use crate::feedback::{
        resolve_slot, ChannelModel, CostlyCollisions, Feedback, FeedbackModel, Intent,
        NoCollisionDetection, Observation, SlotOutcome, Ternary,
    };
    pub use crate::hooks::{Both, EnginePhase, EngineSample, Hooks, NoHooks};
    pub use crate::jamming::{
        BacklogJam, BudgetedRandomJam, Jammer, NoJam, PeriodicBurst, RandomJam, ReactiveAny,
        ReactiveTargeted, WindowPrefixJam, WithReactive,
    };
    pub use crate::metrics::{Metrics, MetricsConfig, RunResult, SeriesPoint, Totals};
    pub use crate::packet::{PacketId, PacketStats};
    pub use crate::protocol::{Protocol, SparseProtocol};
    pub use crate::rng::SimRng;
    pub use crate::scenario::{scenarios, DynScenario, Scenario};
    pub use crate::time::Slot;
    pub use crate::view::SystemView;
}
