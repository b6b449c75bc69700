//! Declarative scenario layer: named, reusable run descriptions.
//!
//! A [`Scenario`] composes **arrivals × jammer × channel model × limits ×
//! metrics × seed** into one value (the last four are its [`SimConfig`]);
//! the protocol joins at the final step, when a run method is called with a
//! factory. Experiments, examples, tests, and benches all
//! construct runs through this layer, so adding a workload is a one-liner
//! everywhere:
//!
//! ```
//! use lowsense_sim::prelude::*;
//!
//! #[derive(Clone)]
//! struct Aloha(f64);
//! impl Protocol for Aloha {
//!     fn intent(&mut self, rng: &mut SimRng) -> Intent {
//!         if rng.bernoulli(self.0) { Intent::Send } else { Intent::Sleep }
//!     }
//!     fn observe(&mut self, _obs: &Observation) {}
//!     fn send_probability(&self) -> f64 { self.0 }
//!     fn next_wake(&mut self, rng: &mut SimRng) -> Option<u64> {
//!         Some(lowsense_sim::dist::geometric(rng, self.0))
//!     }
//! }
//! impl SparseProtocol for Aloha {
//!     fn send_on_access(&mut self, _rng: &mut SimRng) -> bool { true }
//! }
//!
//! let scenario = Scenario::named("noisy-batch")
//!     .arrivals(Batch::new(32))
//!     .jammer(RandomJam::new(0.1))
//!     .seed(7);
//! let result = scenario.run_sparse(|_| Aloha(1.0 / 32.0));
//! assert!(result.drained());
//! // The same description replays under any engine or seed.
//! let again = scenario.seeded(8).run_dense(|_| Aloha(1.0 / 32.0));
//! assert!(again.drained());
//! ```
//!
//! The [`scenarios`] module is the registry of canonical instances (batch
//! drain, Poisson stream, adversarial queuing, random/burst/reactive
//! jamming, the mixed-protocol face-off workload); [`DynScenario`] erases
//! the arrival/jammer types so heterogeneous scenario sets can be swept in
//! one loop.

use std::borrow::Cow;
use std::fmt;

use crate::arrivals::ArrivalProcess;
use crate::config::{Limits, SimConfig};
use crate::engine::{run_dense, run_grouped, run_sparse, run_sparse_reference, SymmetricProtocol};
use crate::feedback::ChannelModel;
use crate::hooks::{Hooks, NoHooks};
use crate::jamming::{Jammer, NoJam};
use crate::metrics::{MetricsConfig, RunResult};
use crate::packet::PacketId;
use crate::protocol::{Protocol, SparseProtocol};
use crate::rng::SimRng;
use crate::time::Slot;
use crate::view::SystemView;

/// Placeholder arrival slot of a freshly [`named`](Scenario::named)
/// scenario. Deliberately **not** an [`ArrivalProcess`]: a scenario cannot
/// run until [`Scenario::arrivals`] replaces it, so forgetting the workload
/// is a compile error instead of a vacuously green zero-packet run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoArrivals;

/// A named, reusable description of one simulation run: arrivals, jamming,
/// and the run's [`SimConfig`] (channel model, limits, metrics, seed). See
/// the [module docs](self) for an example.
#[derive(Debug, Clone)]
pub struct Scenario<A = NoArrivals, J = NoJam> {
    name: Cow<'static, str>,
    arrivals: A,
    jammer: J,
    cfg: SimConfig,
}

impl Scenario<NoArrivals, NoJam> {
    /// Starts a scenario description: no workload yet (set one with
    /// [`Scenario::arrivals`] — the run methods only exist once it is set),
    /// no jamming, seed 0, default limits and metrics.
    pub fn named(name: impl Into<Cow<'static, str>>) -> Self {
        Scenario {
            name: name.into(),
            arrivals: NoArrivals,
            jammer: NoJam,
            cfg: SimConfig::new(0),
        }
    }
}

impl<A, J> Scenario<A, J> {
    /// The scenario's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Replaces the arrival process.
    pub fn arrivals<A2: ArrivalProcess>(self, arrivals: A2) -> Scenario<A2, J> {
        Scenario {
            name: self.name,
            arrivals,
            jammer: self.jammer,
            cfg: self.cfg,
        }
    }

    /// Replaces the jammer.
    pub fn jammer<J2: Jammer>(self, jammer: J2) -> Scenario<A, J2> {
        Scenario {
            name: self.name,
            arrivals: self.arrivals,
            jammer,
            cfg: self.cfg,
        }
    }

    /// Selects the channel model the run resolves slots through
    /// (default: the paper's ternary channel).
    pub fn model(mut self, model: ChannelModel) -> Self {
        self.cfg.model = model;
        self
    }

    /// The scenario's channel model.
    pub fn channel_model(&self) -> ChannelModel {
        self.cfg.model
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Replaces the safety limits.
    pub fn limits(mut self, limits: Limits) -> Self {
        self.cfg.limits = limits;
        self
    }

    /// Stops the slot clock after `max_slot` (shorthand for
    /// [`Limits::until_slot`]).
    pub fn until_slot(self, max_slot: Slot) -> Self {
        self.limits(Limits::until_slot(max_slot))
    }

    /// Replaces the metrics configuration.
    pub fn metrics(mut self, metrics: MetricsConfig) -> Self {
        self.cfg.metrics = metrics;
        self
    }

    /// Records totals only (the cheapest metrics configuration).
    pub fn totals_only(self) -> Self {
        self.metrics(MetricsConfig::totals_only())
    }

    /// Enables the trajectory series with checkpoint spacing `factor` on
    /// top of the current metrics configuration.
    pub fn series(mut self, factor: f64) -> Self {
        self.cfg.metrics = self.cfg.metrics.with_series(factor);
        self
    }

    /// The [`SimConfig`] this scenario resolves to.
    pub fn sim_config(&self) -> SimConfig {
        self.cfg
    }
}

impl<A, J> Scenario<A, J>
where
    A: ArrivalProcess + Clone,
    J: Jammer + Clone,
{
    /// A copy of the scenario with a different seed — the Monte Carlo
    /// idiom: `(0..seeds).map(|s| scenario.seeded(s).run_sparse(..))`.
    pub fn seeded(&self, seed: u64) -> Self {
        self.clone().seed(seed)
    }

    /// Runs the scenario on the [dense engine](crate::engine::dense).
    pub fn run_dense<P, F>(&self, factory: F) -> RunResult
    where
        P: Protocol,
        F: FnMut(&mut SimRng) -> P,
    {
        self.run_dense_hooked(factory, &mut NoHooks)
    }

    /// [`Scenario::run_dense`] with analysis hooks attached.
    pub fn run_dense_hooked<P, F, H>(&self, factory: F, hooks: &mut H) -> RunResult
    where
        P: Protocol,
        F: FnMut(&mut SimRng) -> P,
        H: Hooks<P>,
    {
        let (a, j) = (self.arrivals.clone(), self.jammer.clone());
        run_dense(&self.cfg, a, j, factory, hooks)
    }

    /// Runs the scenario on the [sparse engine](crate::engine::sparse).
    pub fn run_sparse<P, F>(&self, factory: F) -> RunResult
    where
        P: SparseProtocol,
        F: FnMut(&mut SimRng) -> P,
    {
        self.run_sparse_hooked(factory, &mut NoHooks)
    }

    /// [`Scenario::run_sparse`] with analysis hooks attached.
    pub fn run_sparse_hooked<P, F, H>(&self, factory: F, hooks: &mut H) -> RunResult
    where
        P: SparseProtocol,
        F: FnMut(&mut SimRng) -> P,
        H: Hooks<P>,
    {
        let (a, j) = (self.arrivals.clone(), self.jammer.clone());
        run_sparse(&self.cfg, a, j, factory, hooks)
    }

    /// Runs the scenario on the retained heap-based sparse loop
    /// ([`run_sparse_reference`]) — the equivalence oracle for
    /// [`Scenario::run_sparse`]. Slower; intended for validation only.
    pub fn run_sparse_reference<P, F>(&self, factory: F) -> RunResult
    where
        P: SparseProtocol,
        F: FnMut(&mut SimRng) -> P,
    {
        let (a, j) = (self.arrivals.clone(), self.jammer.clone());
        run_sparse_reference(&self.cfg, a, j, factory, &mut NoHooks)
    }

    /// Runs the scenario on the [grouped engine](crate::engine::grouped).
    pub fn run_grouped<P, F>(&self, factory: F) -> RunResult
    where
        P: SymmetricProtocol,
        F: FnMut(&mut SimRng) -> P,
    {
        let (a, j) = (self.arrivals.clone(), self.jammer.clone());
        run_grouped(&self.cfg, a, j, factory)
    }
}

impl<A, J> Scenario<A, J>
where
    A: ArrivalProcess + Clone + Send + Sync + 'static,
    J: Jammer + Clone + Send + Sync + 'static,
{
    /// Erases the arrival/jammer types so scenarios with different
    /// adversaries can live in one collection (see [`DynScenario`]).
    ///
    /// The erased scenario stays `Send + Sync`, so campaign sweeps can
    /// share one description across shard threads.
    pub fn boxed(self) -> DynScenario {
        Scenario {
            name: self.name,
            arrivals: BoxedArrivals(Box::new(self.arrivals)),
            jammer: BoxedJammer(Box::new(self.jammer)),
            cfg: self.cfg,
        }
    }
}

/// A [`Scenario`] with type-erased arrivals and jammer, so heterogeneous
/// scenario sets (the [`scenarios::registry`]) can be iterated uniformly.
pub type DynScenario = Scenario<BoxedArrivals, BoxedJammer>;

trait AnyArrivals: ArrivalProcess + Send + Sync {
    fn clone_box(&self) -> Box<dyn AnyArrivals>;
}

impl<T: ArrivalProcess + Clone + Send + Sync + 'static> AnyArrivals for T {
    fn clone_box(&self) -> Box<dyn AnyArrivals> {
        Box::new(self.clone())
    }
}

/// Type-erased, cloneable arrival process.
pub struct BoxedArrivals(Box<dyn AnyArrivals>);

impl Clone for BoxedArrivals {
    fn clone(&self) -> Self {
        BoxedArrivals(self.0.clone_box())
    }
}

impl fmt::Debug for BoxedArrivals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("BoxedArrivals(..)")
    }
}

impl ArrivalProcess for BoxedArrivals {
    fn next_arrival(
        &mut self,
        after: Slot,
        view: &SystemView<'_>,
        rng: &mut SimRng,
    ) -> Option<(Slot, u32)> {
        self.0.next_arrival(after, view, rng)
    }

    fn is_adaptive(&self) -> bool {
        self.0.is_adaptive()
    }

    fn total_hint(&self) -> Option<u64> {
        self.0.total_hint()
    }
}

trait AnyJammer: Jammer + Send + Sync {
    fn clone_box(&self) -> Box<dyn AnyJammer>;
}

impl<T: Jammer + Clone + Send + Sync + 'static> AnyJammer for T {
    fn clone_box(&self) -> Box<dyn AnyJammer> {
        Box::new(self.clone())
    }
}

/// Type-erased, cloneable jammer.
pub struct BoxedJammer(Box<dyn AnyJammer>);

impl Clone for BoxedJammer {
    fn clone(&self) -> Self {
        BoxedJammer(self.0.clone_box())
    }
}

impl fmt::Debug for BoxedJammer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("BoxedJammer(..)")
    }
}

impl Jammer for BoxedJammer {
    fn jams(&mut self, t: Slot, view: &SystemView<'_>, rng: &mut SimRng) -> bool {
        self.0.jams(t, view, rng)
    }

    fn count_range(
        &mut self,
        from: Slot,
        to: Slot,
        view: &SystemView<'_>,
        rng: &mut SimRng,
    ) -> u64 {
        self.0.count_range(from, to, view, rng)
    }

    fn reactive_jams(
        &mut self,
        t: Slot,
        senders: &[PacketId],
        view: &SystemView<'_>,
        rng: &mut SimRng,
    ) -> bool {
        self.0.reactive_jams(t, senders, view, rng)
    }

    fn is_reactive(&self) -> bool {
        self.0.is_reactive()
    }
}

/// The registry of canonical scenarios.
///
/// Each constructor returns a fully typed [`Scenario`] that callers may
/// specialize further with the builder methods; [`scenarios::registry`]
/// returns one
/// bounded, type-erased instance of each for uniform sweeps (smoke tests,
/// cross-engine equivalence, perf baselines).
pub mod scenarios {
    use super::{ChannelModel, DynScenario, Scenario};
    use crate::arrivals::{
        AdversarialQueuing, BacklogTriggered, Batch, Bernoulli, Placement, PoissonArrivals,
    };
    use crate::jamming::{NoJam, PeriodicBurst, RandomJam, ReactiveAny, WindowPrefixJam};

    /// `n` packets in one slot, clean channel — the classical batch/static
    /// instance (Corollary 1.4's workload).
    pub fn batch_drain(n: u64) -> Scenario<Batch, NoJam> {
        Scenario::named(format!("batch-drain(n={n})")).arrivals(Batch::new(n))
    }

    /// Batch of `n` under random jamming at rate `rho` (Corollary 1.4 with
    /// the jam credit).
    pub fn random_jam_batch(n: u64, rho: f64) -> Scenario<Batch, RandomJam> {
        Scenario::named(format!("random-jam-batch(n={n},rho={rho})"))
            .arrivals(Batch::new(n))
            .jammer(RandomJam::new(rho))
    }

    /// Batch of `n` under deterministic bursty jamming: the first
    /// `burst_len` slots of every `period`-slot cycle are destroyed.
    pub fn burst_jam_batch(n: u64, period: u64, burst_len: u64) -> Scenario<Batch, PeriodicBurst> {
        Scenario::named(format!("burst-jam-batch(n={n},{burst_len}/{period})"))
            .arrivals(Batch::new(n))
            .jammer(PeriodicBurst::new(period, burst_len, 0))
    }

    /// Batch of `n` under reactive denial-of-service: the first `budget`
    /// transmission slots are jammed (§1.3).
    pub fn reactive_dos_batch(n: u64, budget: u64) -> Scenario<Batch, ReactiveAny> {
        Scenario::named(format!("reactive-dos-batch(n={n},budget={budget})"))
            .arrivals(Batch::new(n))
            .jammer(ReactiveAny::new(budget))
    }

    /// Poisson stream: mean `rate` packets per slot, `total` packets in
    /// all, clean channel.
    pub fn poisson_stream(rate: f64, total: u64) -> Scenario<PoissonArrivals, NoJam> {
        Scenario::named(format!("poisson-stream(rate={rate},total={total})"))
            .arrivals(PoissonArrivals::new(rate).with_total(total))
    }

    /// Bernoulli stream: one packet per slot with probability `rate`,
    /// `total` packets in all, clean channel.
    pub fn bernoulli_stream(rate: f64, total: u64) -> Scenario<Bernoulli, NoJam> {
        Scenario::named(format!("bernoulli-stream(rate={rate},total={total})"))
            .arrivals(Bernoulli::new(rate).with_total(total))
    }

    /// Adversarial-queuing arrivals (Corollary 1.5): at most
    /// `lambda · granularity` packets per window, placed adversarially.
    /// Unbounded — pair with [`Scenario::until_slot`] or an arrival total.
    pub fn adversarial_queuing(
        lambda: f64,
        granularity: u64,
        placement: Placement,
    ) -> Scenario<AdversarialQueuing, NoJam> {
        Scenario::named(format!(
            "adversarial-queuing(lambda={lambda},S={granularity},{placement:?})"
        ))
        .arrivals(AdversarialQueuing::new(lambda, granularity, placement))
    }

    /// [`adversarial_queuing`] bounded to `total` packets.
    pub fn adversarial_queuing_total(
        lambda: f64,
        granularity: u64,
        placement: Placement,
        total: u64,
    ) -> Scenario<AdversarialQueuing, NoJam> {
        Scenario::named(format!(
            "adversarial-queuing(lambda={lambda},S={granularity},{placement:?},total={total})"
        ))
        .arrivals(AdversarialQueuing::new(lambda, granularity, placement).with_total(total))
    }

    /// Adversarial queuing with the matching window-prefix jammer — the
    /// joint arrival+jam budget of Corollary 1.5. Unbounded; pair with
    /// [`Scenario::until_slot`].
    pub fn queuing_jammed(
        lambda_arrivals: f64,
        lambda_jam: f64,
        granularity: u64,
    ) -> Scenario<AdversarialQueuing, WindowPrefixJam> {
        Scenario::named(format!(
            "queuing-jammed(arr={lambda_arrivals},jam={lambda_jam},S={granularity})"
        ))
        .arrivals(AdversarialQueuing::new(
            lambda_arrivals,
            granularity,
            Placement::Front,
        ))
        .jammer(WindowPrefixJam::new(lambda_jam, granularity))
    }

    /// Adaptive saturation: a burst of `burst` packets lands whenever the
    /// system drains, until `total` packets have been injected — keeps the
    /// system permanently busy.
    pub fn saturated(burst: u32, total: u64) -> Scenario<BacklogTriggered, NoJam> {
        Scenario::named(format!("saturated(burst={burst},total={total})"))
            .arrivals(BacklogTriggered::new(burst, total))
    }

    /// The mixed-protocol face-off workload: a clean batch of `n` with
    /// per-packet metrics, meant to be run once per contending protocol
    /// (LSB vs. BEB vs. CJP vs. …) on the same seed for paired comparisons.
    pub fn protocol_faceoff(n: u64) -> Scenario<Batch, NoJam> {
        Scenario::named(format!("protocol-faceoff(n={n})")).arrivals(Batch::new(n))
    }

    /// Batch of `n` on the no-collision-detection channel (Jiang–Zheng,
    /// arXiv:2111.06650): listeners cannot tell collisions from silence.
    pub fn nocd_batch(n: u64) -> Scenario<Batch, NoJam> {
        Scenario::named(format!("nocd-batch(n={n})"))
            .arrivals(Batch::new(n))
            .model(ChannelModel::NoCollisionDetection)
    }

    /// The staging-coverage workload: a batch of `n` with a hard horizon
    /// cap, meant to be run with a *small-window* protocol factory (e.g.
    /// `LowSensing::with_window(params, 64.0)`) so early slots carry
    /// thousand-packet participant sets. With `n` large enough that the
    /// state lane spills past the staged gather/scatter gate (see
    /// [`staging_applies`](crate::engine::stage::staging_applies)), the
    /// sparse engine runs the address-sorted staged path while the heap
    /// reference runs its unstaged per-element loop — the scenario the
    /// wheel-vs-heap equivalence suite uses to pin the two paths against
    /// each other. Not part of [`registry`]: at staging-relevant sizes it is too
    /// heavy for the registry's every-protocol sweeps.
    pub fn high_fanout_batch(n: u64, horizon: u64) -> Scenario<Batch, NoJam> {
        Scenario::named(format!("high-fanout-batch(n={n},horizon={horizon})"))
            .arrivals(Batch::new(n))
            .until_slot(horizon)
    }

    /// Jammed batch of `n` on the costly-collisions channel
    /// (Anderton–Young, arXiv:1705.09271): a `k`-way collision occupies
    /// `1 + ceil(alpha·k)` physical slots.
    pub fn costly_jam_batch(n: u64, alpha: f64, rho: f64) -> Scenario<Batch, RandomJam> {
        Scenario::named(format!("costly-jam-batch(n={n},alpha={alpha},rho={rho})"))
            .arrivals(Batch::new(n))
            .jammer(RandomJam::new(rho))
            .model(ChannelModel::CostlyCollisions { alpha })
    }

    /// One bounded, type-erased instance of every canonical scenario,
    /// scaled to roughly `n` packets. The order is stable; names identify
    /// the entries.
    pub fn registry(n: u64) -> Vec<DynScenario> {
        let n = n.max(4);
        let granularity = 128;
        vec![
            batch_drain(n).boxed(),
            random_jam_batch(n, 0.2).boxed(),
            burst_jam_batch(n, 16, 4).boxed(),
            reactive_dos_batch(n, n / 4).boxed(),
            poisson_stream(0.05, n).boxed(),
            bernoulli_stream(0.02, n).boxed(),
            adversarial_queuing(0.1, granularity, Placement::Front)
                .until_slot(granularity * 100)
                .boxed(),
            queuing_jammed(0.08, 0.05, granularity)
                .until_slot(granularity * 100)
                .boxed(),
            saturated(32, n).boxed(),
            protocol_faceoff(n).boxed(),
            // Model-variant entries are appended so the indices (and pinned
            // per-name recordings) of the original ten stay stable. The
            // no-CD entry is horizon-capped: a full-sensing protocol that
            // reads collisions as silence can keep escalating forever, and
            // the registry promises bounded runs for *any* protocol.
            nocd_batch(n).until_slot(n.saturating_mul(200)).boxed(),
            costly_jam_batch(n, 0.5, 0.1).boxed(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::scenarios;
    use super::*;
    use crate::arrivals::{Batch, Trace};
    use crate::dist::geometric;
    use crate::feedback::{Intent, Observation};
    use crate::jamming::RandomJam;

    /// Memoryless p-sender used to exercise the scenario layer.
    #[derive(Clone)]
    struct Fixed(f64);

    impl Protocol for Fixed {
        fn intent(&mut self, rng: &mut SimRng) -> Intent {
            if rng.bernoulli(self.0) {
                Intent::Send
            } else {
                Intent::Sleep
            }
        }
        fn observe(&mut self, _obs: &Observation) {}
        fn send_probability(&self) -> f64 {
            self.0
        }
        fn next_wake(&mut self, rng: &mut SimRng) -> Option<u64> {
            Some(geometric(rng, self.0))
        }
    }

    impl SparseProtocol for Fixed {
        fn send_on_access(&mut self, _rng: &mut SimRng) -> bool {
            true
        }
    }

    impl SymmetricProtocol for Fixed {
        fn send_probability(&self) -> f64 {
            self.0
        }
        fn on_feedback(&mut self, _fb: crate::feedback::Feedback) {}
    }

    #[test]
    fn builder_composes_config() {
        let s = Scenario::named("cfg")
            .arrivals(Batch::new(3))
            .jammer(RandomJam::new(0.1))
            .seed(9)
            .until_slot(100)
            .totals_only();
        assert_eq!(s.name(), "cfg");
        let cfg = s.sim_config();
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.limits.max_slot, 100);
        assert!(!cfg.metrics.per_packet);
    }

    #[test]
    fn scenario_is_reusable_across_runs_and_engines() {
        let s = scenarios::batch_drain(16).seed(1);
        let a = s.run_sparse(|_| Fixed(0.05));
        let b = s.run_sparse(|_| Fixed(0.05));
        assert_eq!(a.totals, b.totals, "same description, same run");
        let dense = s.run_dense(|_| Fixed(0.05));
        assert_eq!(dense.totals.successes, 16);
        let grouped = s.run_grouped(|_| Fixed(0.05));
        assert_eq!(grouped.totals.successes, 16);
    }

    #[test]
    fn seeded_varies_only_the_seed() {
        let s = scenarios::batch_drain(8);
        let a = s.seeded(1).run_sparse(|_| Fixed(0.1));
        let b = s.seeded(2).run_sparse(|_| Fixed(0.1));
        assert_eq!(a.seed, 1);
        assert_eq!(b.seed, 2);
        assert_eq!(a.totals.successes, b.totals.successes);
    }

    #[test]
    fn boxed_scenario_runs_like_the_typed_one() {
        let typed = scenarios::random_jam_batch(12, 0.15).seed(5);
        let erased = typed.clone().boxed();
        let a = typed.run_sparse(|_| Fixed(0.08));
        let b = erased.run_sparse(|_| Fixed(0.08));
        assert_eq!(a.totals, b.totals, "type erasure must not change the run");
    }

    #[test]
    fn series_shorthand_records_trajectory() {
        let r = scenarios::batch_drain(50)
            .series(1.5)
            .run_sparse(|_| Fixed(0.05));
        assert!(!r.series.is_empty());
    }

    #[test]
    fn registry_names_are_unique_and_runs_complete() {
        let reg = scenarios::registry(16);
        let mut names: Vec<String> = reg.iter().map(|s| s.name().to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), reg.len(), "duplicate scenario names");
        for s in &reg {
            let r = s.seeded(3).run_sparse(|_| Fixed(0.05));
            let t = &r.totals;
            assert!(t.successes <= t.arrivals, "{}", s.name());
            assert_eq!(
                t.active_slots,
                t.empty_active + t.successes + t.collision_slots + t.jammed_active,
                "{}: slot classes must partition active slots",
                s.name()
            );
        }
    }

    #[test]
    fn hooked_runs_observe_the_run() {
        #[derive(Default)]
        struct CountSlots(u64, u64);
        impl Hooks<Fixed> for CountSlots {
            fn on_slot(&mut self, _t: Slot, _o: &crate::feedback::SlotOutcome) {
                self.0 += 1;
            }
            fn on_gap(&mut self, from: Slot, to: Slot, _jammed: u64) {
                self.1 += to - from;
            }
        }
        let mut hooks = CountSlots::default();
        let r = scenarios::batch_drain(8)
            .seed(2)
            .run_sparse_hooked(|_| Fixed(0.02), &mut hooks);
        assert_eq!(hooks.0 + hooks.1, r.totals.active_slots);
    }

    #[test]
    fn zero_packet_batch_is_a_clean_noop_on_every_engine() {
        // A Batch of 0 exhausts immediately: no arrivals, no active slots,
        // throughput defined as 1 (0/0 convention), on all four engines.
        let s = scenarios::batch_drain(0).seed(3);
        for r in [
            s.run_sparse(|_| Fixed(0.1)),
            s.run_sparse_reference(|_| Fixed(0.1)),
            s.run_dense(|_| Fixed(0.1)),
            s.run_grouped(|_| Fixed(0.1)),
        ] {
            assert_eq!(r.totals.arrivals, 0);
            assert_eq!(r.totals.active_slots, 0);
            assert_eq!(r.totals.last_slot, 0);
            assert!(r.drained());
            assert_eq!(r.totals.throughput(), 1.0);
            assert_eq!(r.access_counts(), Vec::<u64>::new());
        }
    }

    #[test]
    fn totals_only_metrics_equal_full_metrics_totals() {
        // Disabling per-packet recording must not change the execution —
        // only what is recorded. Totals agree exactly per engine.
        let full = scenarios::random_jam_batch(32, 0.1).seed(6);
        let cheap = full.clone().totals_only();
        let a = full.run_sparse(|_| Fixed(0.07));
        let b = cheap.run_sparse(|_| Fixed(0.07));
        assert_eq!(a.totals, b.totals);
        assert!(a.per_packet.is_some() && b.per_packet.is_none());
        let c = full.run_dense(|_| Fixed(0.07));
        let d = cheap.run_dense(|_| Fixed(0.07));
        assert_eq!(c.totals, d.totals);
        let e = full.run_grouped(|_| Fixed(0.07));
        let f = cheap.run_grouped(|_| Fixed(0.07));
        assert_eq!(e.totals, f.totals);
    }

    #[test]
    fn seed_determinism_holds_across_all_engines() {
        // Same seed ⇒ identical run, per engine; different seed ⇒ a
        // different execution (for a workload long enough to mix).
        let s = scenarios::random_jam_batch(24, 0.15);
        let runs = |seed: u64| {
            (
                s.seeded(seed).run_sparse(|_| Fixed(0.05)).totals,
                s.seeded(seed).run_sparse_reference(|_| Fixed(0.05)).totals,
                s.seeded(seed).run_dense(|_| Fixed(0.05)).totals,
                s.seeded(seed).run_grouped(|_| Fixed(0.05)).totals,
            )
        };
        assert_eq!(runs(9), runs(9), "same seed must replay identically");
        let (a, _, c, d) = runs(9);
        let (a2, _, c2, d2) = runs(10);
        assert!(
            a != a2 || c != c2 || d != d2,
            "different seeds should not all coincide"
        );
    }

    #[test]
    fn arrivals_replacement_keeps_other_settings() {
        let s = scenarios::batch_drain(4)
            .seed(11)
            .totals_only()
            .arrivals(Trace::new(vec![(0, 2), (10, 2)]));
        let r = s.run_sparse(|_| Fixed(0.2));
        assert_eq!(r.seed, 11);
        assert_eq!(r.totals.arrivals, 4);
        assert!(r.per_packet.is_none());
    }
}
