//! The dense (slot-by-slot) reference engine.
//!
//! Simulates every active slot explicitly: each active packet draws an
//! [`Intent`] per slot, the channel resolves, observations are delivered.
//! Cost is `O(active packets)` per slot, so this engine is the semantic
//! oracle for tests and small runs; large-scale experiments use the
//! [sparse engine](crate::engine::sparse), which is validated against this
//! one.
//!
//! The engine is a stepping strategy over the shared
//! [`EngineCore`]: it owns only the packet table
//! and the slot-by-slot visit order.

use crate::arrivals::ArrivalProcess;
use crate::config::SimConfig;
use crate::engine::core::EngineCore;
use crate::feedback::{with_model, FeedbackModel, Intent, Observation, SlotOutcome};
use crate::hooks::Hooks;
use crate::jamming::Jammer;
use crate::metrics::RunResult;
use crate::packet::PacketId;
use crate::protocol::Protocol;
use crate::rng::SimRng;
use crate::time::Slot;

/// Runs a dense simulation.
///
/// `factory` creates the protocol state for each injected packet. The run
/// ends when the arrival process is exhausted and no packet remains, or when
/// a [limit](crate::config::Limits) trips.
///
/// # Examples
///
/// ```
/// use lowsense_sim::prelude::*;
///
/// // Two packets with a fixed send probability resolve quickly.
/// #[derive(Clone)]
/// struct Fixed(f64);
/// impl Protocol for Fixed {
///     fn intent(&mut self, rng: &mut SimRng) -> Intent {
///         if rng.bernoulli(self.0) { Intent::Send } else { Intent::Sleep }
///     }
///     fn observe(&mut self, _obs: &Observation) {}
///     fn send_probability(&self) -> f64 { self.0 }
/// }
///
/// let result = run_dense(
///     &SimConfig::new(1),
///     Batch::new(2),
///     NoJam,
///     |_rng| Fixed(0.3),
///     &mut NoHooks,
/// );
/// assert_eq!(result.totals.successes, 2);
/// ```
pub fn run_dense<P, F, A, J, H>(
    cfg: &SimConfig,
    arrivals: A,
    jammer: J,
    factory: F,
    hooks: &mut H,
) -> RunResult
where
    P: Protocol,
    F: FnMut(&mut SimRng) -> P,
    A: ArrivalProcess,
    J: Jammer,
    H: Hooks<P>,
{
    with_model!(cfg.model, |model| run_dense_with(
        cfg, arrivals, jammer, model, factory, hooks
    ))
}

/// The dense slot loop, monomorphized per [`FeedbackModel`].
fn run_dense_with<P, F, A, J, M, H>(
    cfg: &SimConfig,
    arrivals: A,
    jammer: J,
    model: M,
    mut factory: F,
    hooks: &mut H,
) -> RunResult
where
    P: Protocol,
    F: FnMut(&mut SimRng) -> P,
    A: ArrivalProcess,
    J: Jammer,
    M: FeedbackModel,
    H: Hooks<P>,
{
    let mut core = EngineCore::new(cfg, arrivals, jammer, model);

    // Packet table indexed by id; `active` lists live ids with `pos` as the
    // reverse index so departures are O(1).
    let mut packets: Vec<Option<P>> = Vec::new();
    let mut active: Vec<PacketId> = Vec::new();
    let mut pos: Vec<u32> = Vec::new();
    let mut contention = 0.0f64;

    let mut senders: Vec<PacketId> = Vec::new();
    let mut listeners: Vec<PacketId> = Vec::new();

    let mut t: Slot = 0;

    loop {
        if !core.within_limits(t) {
            break;
        }
        // Peek the next arrival with the pre-slot view.
        let next_arrival = core.peek_arrival(t, active.len() as u64, contention);
        if active.is_empty() {
            match next_arrival {
                Some((ta, _)) if ta > t => {
                    // Inactive gap: skipped, not accounted (paper ignores
                    // inactive slots).
                    t = ta;
                    continue;
                }
                Some(_) => {}
                None => break,
            }
        }

        // Inject all arrival events that target slot t.
        while let Some((ta, count)) = core.peek_arrival(t, active.len() as u64, contention) {
            if ta != t {
                break;
            }
            core.consume_arrival();
            for _ in 0..count {
                let id = core.note_inject(t);
                let p = factory(&mut core.rng);
                contention += p.send_probability();
                hooks.on_inject(t, id, &p);
                debug_assert_eq!(packets.len(), id.index());
                packets.push(Some(p));
                pos.push(active.len() as u32);
                active.push(id);
            }
        }

        // Draw per-packet intents.
        senders.clear();
        listeners.clear();
        for &id in &active {
            let p = packets[id.index()].as_mut().expect("active packet state");
            match p.intent(&mut core.rng) {
                Intent::Send => senders.push(id),
                Intent::Listen => listeners.push(id),
                Intent::Sleep => {}
            }
        }

        let jam = core.jam_decision(t, active.len() as u64, contention, &senders);
        let outcome = core.resolve(t, jam, &senders);
        hooks.on_slot(t, &outcome);
        let fb = model.listener_feedback(&outcome);

        // Pure listeners.
        for &id in &listeners {
            core.metrics.note_listen(id);
            let slot_obs = Observation::listener(t, fb);
            let p = packets[id.index()].as_mut().expect("listener state");
            let before = p.clone();
            p.observe(&slot_obs);
            contention += p.send_probability() - before.send_probability();
            hooks.on_observe(t, id, &before, p);
        }

        // Senders (the winner, if any, departs after observing).
        let winner = match outcome {
            SlotOutcome::Success { id } => Some(id),
            _ => None,
        };
        for &id in &senders {
            core.metrics.note_send(id);
            let succeeded = winner == Some(id);
            let slot_obs =
                Observation::sender(t, model.sender_feedback(&outcome, succeeded), succeeded);
            let p = packets[id.index()].as_mut().expect("sender state");
            let before = p.clone();
            p.observe(&slot_obs);
            contention += p.send_probability() - before.send_probability();
            hooks.on_observe(t, id, &before, p);
        }
        if let Some(id) = winner {
            let p = packets[id.index()].take().expect("winner state");
            contention -= p.send_probability();
            hooks.on_depart(t, id, &p);
            core.note_depart(id, t);
            // O(1) removal from `active` via the position index.
            let i = pos[id.index()] as usize;
            let last = *active.last().expect("non-empty active list");
            active.swap_remove(i);
            if i < active.len() {
                pos[last.index()] = i as u32;
            }
        }

        core.checkpoint(t, active.len() as u64, contention);
        t += 1;
        core.step_done();
    }

    core.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{Batch, Trace};
    use crate::config::Limits;
    use crate::hooks::NoHooks;
    use crate::jamming::{NoJam, PeriodicBurst, RandomJam};
    use crate::metrics::MetricsConfig;

    /// Always-send protocol: a batch of one succeeds instantly; more than
    /// one livelocks (bounded by limits).
    #[derive(Clone)]
    struct Greedy;
    impl Protocol for Greedy {
        fn intent(&mut self, _rng: &mut SimRng) -> Intent {
            Intent::Send
        }
        fn observe(&mut self, _obs: &Observation) {}
        fn send_probability(&self) -> f64 {
            1.0
        }
    }

    /// Memoryless p-sender.
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
    }

    #[test]
    fn single_greedy_packet_succeeds_immediately() {
        let r = run_dense(
            &SimConfig::new(1),
            Batch::new(1),
            NoJam,
            |_| Greedy,
            &mut NoHooks,
        );
        assert_eq!(r.totals.successes, 1);
        assert_eq!(r.totals.active_slots, 1);
        assert_eq!(r.totals.sends, 1);
        assert!(r.drained());
        assert_eq!(r.latencies(), vec![1]);
    }

    #[test]
    fn two_greedy_packets_livelock_until_limit() {
        let cfg = SimConfig::new(1).limits(Limits::until_slot(99));
        let r = run_dense(&cfg, Batch::new(2), NoJam, |_| Greedy, &mut NoHooks);
        assert_eq!(r.totals.successes, 0);
        assert_eq!(r.totals.collision_slots, 100);
        assert_eq!(r.totals.backlog(), 2);
    }

    #[test]
    fn batch_of_fixed_senders_drains() {
        let r = run_dense(
            &SimConfig::new(2),
            Batch::new(20),
            NoJam,
            |_| Fixed(0.05),
            &mut NoHooks,
        );
        assert_eq!(r.totals.successes, 20);
        assert!(r.drained());
        // Slot classification partitions active slots.
        let t = &r.totals;
        assert_eq!(
            t.active_slots,
            t.empty_active + t.successes + t.collision_slots + t.jammed_active
        );
    }

    #[test]
    fn inactive_gaps_are_not_accounted() {
        // Two single-packet batches far apart: active slots ≪ wall clock.
        let r = run_dense(
            &SimConfig::new(3),
            Trace::new(vec![(0, 1), (1000, 1)]),
            NoJam,
            |_| Greedy,
            &mut NoHooks,
        );
        assert_eq!(r.totals.successes, 2);
        assert_eq!(r.totals.active_slots, 2);
        assert_eq!(r.totals.last_slot, 1000);
    }

    #[test]
    fn jammed_slots_block_success_and_are_counted() {
        // Jam every slot: the greedy singleton can never succeed.
        let cfg = SimConfig::new(4).limits(Limits::until_slot(49));
        let r = run_dense(
            &cfg,
            Batch::new(1),
            PeriodicBurst::new(1, 1, 0),
            |_| Greedy,
            &mut NoHooks,
        );
        assert_eq!(r.totals.successes, 0);
        assert_eq!(r.totals.jammed_active, 50);
    }

    #[test]
    fn random_jam_rate_reflected_in_totals() {
        let cfg = SimConfig::new(5).limits(Limits::until_slot(20_000));
        let r = run_dense(
            &cfg,
            Batch::new(2),
            RandomJam::new(0.25),
            |_| Fixed(0.0001), // nearly never sends; slots are mostly empty/jam
            &mut NoHooks,
        );
        let frac = r.totals.jammed_active as f64 / r.totals.active_slots as f64;
        assert!((frac - 0.25).abs() < 0.02, "jam fraction {frac}");
    }

    #[test]
    fn energy_accounting_matches_outcomes() {
        let r = run_dense(
            &SimConfig::new(6),
            Batch::new(10),
            NoJam,
            |_| Fixed(0.1),
            &mut NoHooks,
        );
        // Every success is one send; collisions are ≥2 sends each.
        let t = &r.totals;
        assert!(t.sends >= t.successes + 2 * t.collision_slots);
        assert_eq!(t.listens, 0, "Fixed never listens");
        let per_packet: u64 = r.access_counts().iter().sum();
        assert_eq!(per_packet, t.sends);
    }

    #[test]
    fn series_checkpoints_record_trajectory() {
        let cfg = SimConfig::new(7).metrics(MetricsConfig::default().with_series(1.5));
        let r = run_dense(&cfg, Batch::new(50), NoJam, |_| Fixed(0.02), &mut NoHooks);
        assert!(!r.series.is_empty());
        // Implicit throughput at the end equals overall throughput (drained).
        assert!(r.drained());
        let last = r.series.last().unwrap();
        assert!(last.active_slots <= r.totals.active_slots);
        // Backlog is monotonically drained for a batch workload.
        let first = r.series.first().unwrap();
        assert!(first.backlog >= last.backlog);
    }

    #[test]
    fn hooks_see_every_transition() {
        #[derive(Default)]
        struct Count {
            injects: u64,
            departs: u64,
            observes: u64,
            slots: u64,
        }
        impl Hooks<Fixed> for Count {
            fn on_inject(&mut self, _t: Slot, _id: PacketId, _s: &Fixed) {
                self.injects += 1;
            }
            fn on_depart(&mut self, _t: Slot, _id: PacketId, _s: &Fixed) {
                self.departs += 1;
            }
            fn on_observe(&mut self, _t: Slot, _id: PacketId, _b: &Fixed, _a: &Fixed) {
                self.observes += 1;
            }
            fn on_slot(&mut self, _t: Slot, _o: &SlotOutcome) {
                self.slots += 1;
            }
        }
        let mut hooks = Count::default();
        let r = run_dense(
            &SimConfig::new(8),
            Batch::new(10),
            NoJam,
            |_| Fixed(0.1),
            &mut hooks,
        );
        assert_eq!(hooks.injects, 10);
        assert_eq!(hooks.departs, 10);
        assert_eq!(hooks.slots, r.totals.active_slots);
        // Every send produced exactly one observation (Fixed never listens).
        assert_eq!(hooks.observes, r.totals.sends);
    }

    #[test]
    fn costly_collisions_dilate_the_clock_but_not_the_logic() {
        use crate::feedback::ChannelModel;
        let cfg = SimConfig::new(1).limits(Limits::until_slot(99));
        let r = run_dense(&cfg, Batch::new(2), NoJam, |_| Greedy, &mut NoHooks);
        let costly = cfg.model(ChannelModel::CostlyCollisions { alpha: 0.5 });
        let rc = run_dense(&costly, Batch::new(2), NoJam, |_| Greedy, &mut NoHooks);
        // Same logical trajectory: 100 two-way collisions either way.
        assert_eq!(r.totals.collision_slots, 100);
        assert_eq!(rc.totals.collision_slots, 100);
        assert_eq!(rc.totals.sends, r.totals.sends);
        // Each 2-way collision charges ceil(0.5·2) = 1 extra physical slot.
        assert_eq!(rc.totals.overhead_slots, 100);
        // The final slot is recorded at physical time: logical 99 shifted by
        // the 99 collisions resolved before it.
        assert_eq!(r.totals.last_slot, 99);
        assert_eq!(rc.totals.last_slot, 99 + 99);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            run_dense(
                &SimConfig::new(99),
                Batch::new(30),
                RandomJam::new(0.1),
                |_| Fixed(0.05),
                &mut NoHooks,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.totals, b.totals);
        assert_eq!(a.access_counts(), b.access_counts());
    }
}
