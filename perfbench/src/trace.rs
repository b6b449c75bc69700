//! Outside-in tracing of the engine workloads.
//!
//! Two probes wrap the public seams of a sparse run without touching the
//! library:
//!
//! * [`TracedLsb`] implements the simulator's `Protocol` and
//!   `SparseProtocol` traits around `LowSensing`, delegating every method
//!   (`next_wake4` included). It counts every call but times only every
//!   [`SAMPLE_EVERY`]-th one, less the timer's own in-place cost. Timing
//!   each call would slow the 16384-station drain several-fold and so
//!   measure a different program.
//! * [`EngineProbe`] is a `Hooks` set: it counts event slots, skipped gap
//!   slots, injections and departures. At each event slot the wrapper's
//!   access-decision count since the last slot gives the slot's
//!   participants, and with the live count the engine's public staging
//!   gate says whether the slot was staged. A periodic `EngineSample`
//!   gives the wake-set and packet-table sizes.
//!
//! Delegation is exact and hooks only read, so a traced run returns the
//! same `RunResult` as the bare run, bit for bit; the workloads check it.

use std::cell::Cell;

use lowsense::LowSensing;
use lowsense_sim::engine::staging_applies;
use lowsense_sim::feedback::{Intent, Observation, SlotOutcome};
use lowsense_sim::hooks::{EngineSample, Hooks};
use lowsense_sim::packet::PacketId;
use lowsense_sim::protocol::{Protocol, SparseProtocol, BATCH_LANES};
use lowsense_sim::rng::SimRng;
use lowsense_sim::time::Slot;

use crate::machine::time_in_place;

/// One call in this many is timed. Prime, so the sampled subset does not
/// lock onto a periodic call pattern.
pub const SAMPLE_EVERY: u64 = 61;

/// Timed calls longer than this many ticks are dropped from the means: an
/// interrupt or a fault landed inside the call.
const OUTLIER_TICKS: u64 = 20_000;

/// The protocol methods the wrapper counts separately.
#[derive(Debug, Clone, Copy)]
enum Method {
    Intent,
    Observe,
    SendProbability,
    NextWake,
    SendOnAccess,
    Observe4,
    NextWake4,
}

const METHODS: usize = 7;

struct Probe {
    calls: [Cell<u64>; METHODS],
    timed: [Cell<u64>; METHODS],
    ticks: [Cell<i64>; METHODS],
}

thread_local! {
    static PROBE: Probe = const {
        Probe {
            calls: [const { Cell::new(0) }; METHODS],
            timed: [const { Cell::new(0) }; METHODS],
            ticks: [const { Cell::new(0) }; METHODS],
        }
    };
}

#[inline(always)]
fn probe<R>(m: Method, f: impl FnOnce() -> R) -> R {
    PROBE.with(|p| {
        let k = m as usize;
        let calls = p.calls[k].get() + 1;
        p.calls[k].set(calls);
        if calls % SAMPLE_EVERY != 0 {
            return f();
        }
        let (r, dt) = time_in_place(f);
        if dt.unsigned_abs() < OUTLIER_TICKS {
            p.timed[k].set(p.timed[k].get() + 1);
            p.ticks[k].set(p.ticks[k].get() + dt);
        }
        r
    })
}

/// Calls of `send_on_access` on this thread so far: the engine asks every
/// participant of a slot exactly once, before the slot resolves.
fn access_decisions() -> u64 {
    PROBE.with(|p| p.calls[Method::SendOnAccess as usize].get())
}

/// Protocol-layer totals since the last [`take_protocol_stats`] on this
/// thread.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProtocolStats {
    /// Calls into the protocol, all methods.
    pub calls: u64,
    /// Estimated ticks spent inside them: per method, the mean of the timed
    /// calls times the call count.
    pub ticks: f64,
}

/// Reads and resets this thread's protocol counters.
pub fn take_protocol_stats() -> ProtocolStats {
    PROBE.with(|p| {
        let mut out = ProtocolStats::default();
        for k in 0..METHODS {
            let (calls, timed, ticks) = (p.calls[k].take(), p.timed[k].take(), p.ticks[k].take());
            out.calls += calls;
            if timed > 0 {
                out.ticks += (ticks as f64 / timed as f64).max(0.0) * calls as f64;
            }
        }
        out
    })
}

/// `LowSensing` with call counting and sampled call timing. Same size and
/// alignment as the wrapped state, so the engine's staging gate (which
/// reads the state size) sees the same lane.
#[derive(Clone, Copy, PartialEq, Debug)]
#[repr(transparent)]
pub struct TracedLsb(pub LowSensing);

fn inner4<'a>(states: &'a mut [&mut TracedLsb; BATCH_LANES]) -> [&'a mut LowSensing; BATCH_LANES] {
    let [a, b, c, d] = states;
    [&mut a.0, &mut b.0, &mut c.0, &mut d.0]
}

impl Protocol for TracedLsb {
    #[inline]
    fn intent(&mut self, rng: &mut SimRng) -> Intent {
        probe(Method::Intent, || self.0.intent(rng))
    }

    #[inline]
    fn observe(&mut self, obs: &Observation) {
        probe(Method::Observe, || self.0.observe(obs))
    }

    #[inline]
    fn send_probability(&self) -> f64 {
        probe(Method::SendProbability, || self.0.send_probability())
    }

    #[inline]
    fn next_wake(&mut self, rng: &mut SimRng) -> Option<u64> {
        probe(Method::NextWake, || self.0.next_wake(rng))
    }
}

impl SparseProtocol for TracedLsb {
    #[inline]
    fn send_on_access(&mut self, rng: &mut SimRng) -> bool {
        probe(Method::SendOnAccess, || self.0.send_on_access(rng))
    }

    #[inline]
    fn observe4(states: &mut [&mut Self; BATCH_LANES], obs: &Observation) {
        probe(Method::Observe4, || {
            LowSensing::observe4(&mut inner4(states), obs)
        })
    }

    #[inline]
    fn next_wake4(
        states: &mut [&mut Self; BATCH_LANES],
        rng: &mut SimRng,
    ) -> [Option<u64>; BATCH_LANES] {
        probe(Method::NextWake4, || {
            LowSensing::next_wake4(&mut inner4(states), rng)
        })
    }
}

/// Event slots between the samples that read the memory footprints:
/// computing the wake-set footprint walks every wheel bucket.
const FOOTPRINT_PERIOD: u64 = 64;

/// Engine-layer observations of one or more traced runs. Reads the
/// [`TracedLsb`] counters, so it only makes sense on a `TracedLsb` run.
#[derive(Debug, Default)]
pub struct EngineProbe {
    /// Slots the engine simulated.
    pub event_slots: u64,
    /// Slots it skipped as silent gaps.
    pub gap_slots: u64,
    /// Channel accesses in each event slot.
    pub participants: Vec<u32>,
    /// Event slots that took the staged gather/scatter path.
    pub staged_slots: u64,
    /// Accesses in those slots.
    pub staged_accesses: u64,
    /// Largest wake-set footprint sampled, in bytes.
    pub peak_wake_bytes: u64,
    /// Largest packet-table lane size sampled, in bytes.
    pub peak_table_bytes: u64,
    /// Largest (wake + table) bytes per injected station sampled.
    pub peak_bytes_per_station: f64,
    injected: u64,
    departed: u64,
    prev_decisions: u64,
}

impl EngineProbe {
    /// Resets the per-run state before the next run.
    pub fn start_run(&mut self) {
        self.injected = 0;
        self.departed = 0;
        self.prev_decisions = access_decisions();
    }
}

impl<P> Hooks<P> for EngineProbe {
    fn wants_observe(&self) -> bool {
        false
    }

    fn on_inject(&mut self, _t: Slot, _id: PacketId, _state: &P) {
        self.injected += 1;
    }

    fn on_depart(&mut self, _t: Slot, _id: PacketId, _state: &P) {
        self.departed += 1;
    }

    // Called once per event slot after the senders are chosen and before
    // anyone observes or departs, so the access decisions since the last
    // call are this slot's participants and the live count is the backlog
    // the engine's staging gate saw.
    fn on_slot(&mut self, _t: Slot, _outcome: &SlotOutcome) {
        self.event_slots += 1;
        let decisions = access_decisions();
        let participants = decisions - self.prev_decisions;
        self.prev_decisions = decisions;
        self.participants.push(participants as u32);
        // Live packets bound the dense lane from below; the two agree
        // whenever no departed entry awaits compaction (always, in a batch
        // that has not started to drain).
        let live = (self.injected - self.departed) as usize;
        if staging_applies(participants as usize, live * std::mem::size_of::<P>()) {
            self.staged_slots += 1;
            self.staged_accesses += participants;
        }
    }

    fn on_gap(&mut self, from: Slot, to: Slot, _jammed: u64) {
        self.gap_slots += to - from;
    }

    fn sample_period(&self) -> Option<u64> {
        Some(FOOTPRINT_PERIOD)
    }

    fn on_sample(&mut self, s: &EngineSample) {
        self.peak_wake_bytes = self.peak_wake_bytes.max(s.footprint_bytes);
        self.peak_table_bytes = self.peak_table_bytes.max(s.state_bytes);
        if s.arrivals > 0 {
            let per = (s.footprint_bytes + s.state_bytes) as f64 / s.arrivals as f64;
            self.peak_bytes_per_station = self.peak_bytes_per_station.max(per);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowsense::Params;
    use lowsense_sim::scenario::scenarios;

    use crate::report::result_hash;

    fn traced(_: &mut SimRng) -> TracedLsb {
        TracedLsb(LowSensing::new(Params::default()))
    }

    #[test]
    fn wrapper_keeps_state_layout() {
        use std::mem::{align_of, size_of};
        assert_eq!(size_of::<TracedLsb>(), size_of::<LowSensing>());
        assert_eq!(align_of::<TracedLsb>(), align_of::<LowSensing>());
    }

    #[test]
    fn traced_run_is_bit_identical_and_counted() {
        let sc = scenarios::batch_drain(600).seeded(11);
        let bare = sc.run_sparse(|_| LowSensing::new(Params::default()));
        take_protocol_stats();
        let mut hooks = EngineProbe::default();
        hooks.start_run();
        let run = sc.run_sparse_hooked(traced, &mut hooks);
        let stats = take_protocol_stats();
        assert_eq!(result_hash(&bare), result_hash(&run));
        assert!(stats.calls >= bare.totals.accesses());
        assert_eq!(hooks.participants.len() as u64, hooks.event_slots);
        let summed: u64 = hooks.participants.iter().map(|&p| p as u64).sum();
        assert_eq!(summed, bare.totals.accesses());
        assert_eq!(
            hooks.event_slots + hooks.gap_slots,
            bare.totals.last_slot + 1
        );
        assert_eq!(
            hooks.staged_slots, 0,
            "600 stations stay under the staging gate"
        );
    }

    #[test]
    fn staging_prediction_matches_the_gate() {
        // 16384 states of 64 bytes stay under the 4 MiB lane gate; 70000
        // cross it, so their crowded first slots stage.
        for (n, staged) in [(16_384u64, false), (70_000, true)] {
            let sc = scenarios::batch_drain(n)
                .totals_only()
                .until_slot(3)
                .seeded(5);
            let mut hooks = EngineProbe::default();
            hooks.start_run();
            sc.run_sparse_hooked(traced, &mut hooks);
            take_protocol_stats();
            assert_eq!(hooks.staged_slots > 0, staged, "n = {n}");
            assert!(hooks.staged_accesses <= hooks.participants.iter().map(|&p| p as u64).sum());
        }
    }
}
