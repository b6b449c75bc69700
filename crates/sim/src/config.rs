//! Run configuration shared by all engines.

use crate::arrivals::ArrivalProcess;
use crate::feedback::ChannelModel;
use crate::metrics::MetricsConfig;
use crate::rng::SimRng;
use crate::time::Slot;
use crate::view::SystemView;

/// Safety limits for a run.
///
/// Runs normally end when every injected packet has been delivered and the
/// arrival process is exhausted; the limits below bound runaway executions
/// (infinite streams, degenerate protocols).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Hard cap on the slot clock; the run stops before processing any slot
    /// beyond it.
    pub max_slot: Slot,
    /// Hard cap on resolved event slots (sparse engine) or simulated slots
    /// (dense engines).
    pub max_steps: u64,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_slot: u64::MAX / 2,
            max_steps: u64::MAX,
        }
    }
}

impl Limits {
    /// Limits that stop the clock after `max_slot`.
    pub fn until_slot(max_slot: Slot) -> Self {
        Limits {
            max_slot,
            ..Limits::default()
        }
    }
}

/// Configuration for one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Seed of the run's deterministic RNG.
    pub seed: u64,
    /// What to record.
    pub metrics: MetricsConfig,
    /// Safety limits.
    pub limits: Limits,
    /// The channel the run resolves slots through.
    pub model: ChannelModel,
}

impl SimConfig {
    /// Default-configured run with the given seed.
    pub fn new(seed: u64) -> Self {
        SimConfig {
            seed,
            metrics: MetricsConfig::default(),
            limits: Limits::default(),
            model: ChannelModel::Ternary,
        }
    }

    /// Replaces the metrics configuration.
    pub fn metrics(mut self, metrics: MetricsConfig) -> Self {
        self.metrics = metrics;
        self
    }

    /// Replaces the limits.
    pub fn limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Selects the channel model (default: the paper's ternary channel).
    pub fn model(mut self, model: ChannelModel) -> Self {
        self.model = model;
        self
    }
}

/// Caching adapter between engines and an [`ArrivalProcess`].
///
/// Enforces the consumption contract documented in
/// [`crate::arrivals`]: non-adaptive processes are queried once per event and
/// the result cached; adaptive processes are re-queried with a fresh view on
/// every peek.
#[derive(Debug)]
pub struct ArrivalCursor<A> {
    process: A,
    pending: Option<(Slot, u32)>,
    exhausted: bool,
}

impl<A: ArrivalProcess> ArrivalCursor<A> {
    /// Wraps an arrival process.
    pub fn new(process: A) -> Self {
        ArrivalCursor {
            process,
            pending: None,
            exhausted: false,
        }
    }

    /// The next arrival event at slot ≥ `after`, if any.
    pub fn peek(
        &mut self,
        after: Slot,
        view: &SystemView<'_>,
        rng: &mut SimRng,
    ) -> Option<(Slot, u32)> {
        if self.process.is_adaptive() {
            // Adaptive processes derive plans from the view; never cache.
            return self.process.next_arrival(after, view, rng);
        }
        if self.pending.is_none() && !self.exhausted {
            self.pending = self.process.next_arrival(after, view, rng);
            if self.pending.is_none() {
                self.exhausted = true;
            }
        }
        self.pending
    }

    /// Marks the last peeked event as consumed.
    pub fn consume(&mut self) {
        self.pending = None;
    }

    /// Underlying process (for hints).
    pub fn process(&self) -> &A {
        &self.process
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{BacklogTriggered, Batch};
    use crate::metrics::Totals;

    #[test]
    fn cursor_caches_non_adaptive() {
        let totals = Totals::default();
        let view = SystemView {
            slot: 0,
            backlog: 0,
            contention: 0.0,
            totals: &totals,
        };
        let mut rng = SimRng::new(1);
        let mut c = ArrivalCursor::new(Batch::new(5));
        assert_eq!(c.peek(0, &view, &mut rng), Some((0, 5)));
        // Repeated peeks return the cached event without consuming.
        assert_eq!(c.peek(0, &view, &mut rng), Some((0, 5)));
        c.consume();
        assert_eq!(c.peek(1, &view, &mut rng), None);
        assert_eq!(c.peek(2, &view, &mut rng), None, "exhaustion latches");
    }

    #[test]
    fn cursor_requeries_adaptive() {
        let mut totals = Totals::default();
        let mut rng = SimRng::new(2);
        let mut c = ArrivalCursor::new(BacklogTriggered::new(4, 8));
        {
            let view = SystemView {
                slot: 0,
                backlog: 0,
                contention: 0.0,
                totals: &totals,
            };
            assert_eq!(c.peek(0, &view, &mut rng), Some((0, 4)));
        }
        totals.arrivals = 4;
        {
            let view = SystemView {
                slot: 1,
                backlog: 4,
                contention: 0.0,
                totals: &totals,
            };
            // Busy: the adaptive process now declines, despite earlier Some.
            assert_eq!(c.peek(1, &view, &mut rng), None);
        }
        totals.successes = 4;
        {
            let view = SystemView {
                slot: 2,
                backlog: 0,
                contention: 0.0,
                totals: &totals,
            };
            assert_eq!(c.peek(2, &view, &mut rng), Some((2, 4)));
        }
    }

    #[test]
    fn config_builders() {
        let cfg = SimConfig::new(7)
            .metrics(MetricsConfig::totals_only())
            .limits(Limits::until_slot(100));
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.limits.max_slot, 100);
        assert!(!cfg.metrics.per_packet);
    }
}
