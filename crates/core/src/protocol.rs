//! The `LOW-SENSING BACKOFF` protocol (paper Figure 1).
//!
//! Per slot, a packet with window `w`:
//!
//! 1. **listens** with probability `c·ln³(w)/w`;
//! 2. conditioned on listening, **sends** with probability `1/(c·ln³ w)`
//!    — so the unconditional send probability is exactly `1/w`;
//! 3. on hearing **silence** backs on: `w ← max(w/(1+1/(c·ln w)), w_min)`;
//! 4. on hearing **noise** backs off: `w ← w·(1+1/(c·ln w))`.
//!
//! Hearing a *successful* slot (another packet's lone transmission) changes
//! nothing. Sending and listening are deliberately coupled — a sender has
//! already "decided to listen" — which the energy analysis exploits
//! (Theorem 5.25: every listen carries a `1/(c·ln³ w)` chance of being a
//! send, so long listen streaks imply success).
//!
//! # Representation: the quantized window ladder
//!
//! The window is not stored as a float. Since it only moves by the
//! multiplicative back-off/back-on steps above, the reachable windows form
//! a discrete [`crate::ladder`] precomputed once per parameter set:
//! the state is a **level index** on a shared, interned ladder, a window
//! update is a level increment/decrement, every probability is read from
//! the current rung's 32-byte table row, and the steady state runs with
//! **zero** `ln` calls and **zero** divides —
//! the only transcendental left is the `ln U` of the wake draw (one
//! [`fast_ln`](lowsense_sim::dist::fast_ln) multiply via
//! [`geometric_inv`]). See `crates/core/src/ladder.rs` and
//! docs/ARCHITECTURE.md § "The quantized window ladder" for why the
//! quantization preserves the analysis's invariants.

use lowsense_sim::dist::{geometric4_inv, geometric_inv};
use lowsense_sim::feedback::{Feedback, Intent, Observation};
use lowsense_sim::protocol::{Protocol, SparseProtocol};
use lowsense_sim::rng::SimRng;

use crate::ladder::{self, Ladder, LadderRow};
use crate::params::Params;

/// Per-packet state of `LOW-SENSING BACKOFF`.
///
/// # Examples
///
/// ```
/// use lowsense::{LowSensing, Params};
/// use lowsense_sim::prelude::*;
///
/// let p = LowSensing::new(Params::default());
/// assert_eq!(p.window(), 4.0);
/// // Fresh packets send with probability exactly 1/w_min.
/// assert!((p.send_probability() - 0.25).abs() < 1e-12);
/// ```
// 16 bytes: the ladder pointer and the rung index, which is the whole of
// the paper's per-packet state `w`. 16-byte aligned so no state straddles a
// cache line. Every probability is read from `ladder.row(level)`: a ladder
// is a few hundred 32-byte rows shared by every packet on it, so the rows
// stay in L1 while the per-packet state lane stays as small as it can be.
#[derive(Clone, Copy)]
#[repr(align(16))]
pub struct LowSensing {
    ladder: &'static Ladder,
    level: u32,
}

impl LowSensing {
    /// A freshly injected packet: window starts at `w_min`.
    pub fn new(params: Params) -> Self {
        Self::with_window(params, params.w_min())
    }

    /// A packet with an explicit starting window (clamped to `≥ w_min`);
    /// used by tests and ablations. The starting window becomes the
    /// ladder's anchor rung, so `window()` reports it exactly.
    pub fn with_window(params: Params, w: f64) -> Self {
        let ladder = ladder::shared(params, w);
        LowSensing {
            ladder,
            level: ladder.anchor_level(),
        }
    }

    /// The current rung's row.
    #[inline]
    fn row(&self) -> &'static LadderRow {
        self.ladder.row(self.level)
    }

    /// Current window size `w_u(t)`.
    #[inline]
    pub fn window(&self) -> f64 {
        self.row().w
    }

    /// The parameters this packet runs with.
    #[inline]
    pub fn params(&self) -> &Params {
        self.ladder.params()
    }

    /// The interned window ladder this packet steps along.
    #[inline]
    pub fn ladder(&self) -> &'static Ladder {
        self.ladder
    }

    /// Current rung index on [`LowSensing::ladder`] (0 = the `w_min`
    /// floor).
    #[inline]
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Probability of accessing the channel (listening) this slot.
    #[inline]
    pub fn access_probability(&self) -> f64 {
        self.row().p_listen
    }
}

// The ladder reference compares by identity: `ladder::shared` interns one
// table per (params, anchor), so two packets on the same ladder pointer
// have the same parameters, and equal levels then imply equal windows.
impl PartialEq for LowSensing {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.ladder, other.ladder) && self.level == other.level
    }
}

impl std::fmt::Debug for LowSensing {
    // Manual: deriving would dump the whole interned ladder into every
    // assertion message.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let row = self.row();
        f.debug_struct("LowSensing")
            .field("params", self.params())
            .field("level", &self.level)
            .field("w", &row.w)
            .field("p_listen", &row.p_listen)
            .field("p_send_given_listen", &row.p_send_given_listen)
            .field("inv_ln_q_listen", &row.inv_ln_q_listen)
            .finish()
    }
}

impl Protocol for LowSensing {
    #[inline]
    fn intent(&mut self, rng: &mut SimRng) -> Intent {
        let row = self.row();
        if !rng.bernoulli(row.p_listen) {
            return Intent::Sleep;
        }
        if rng.bernoulli(row.p_send_given_listen) {
            Intent::Send
        } else {
            Intent::Listen
        }
    }

    #[inline]
    fn observe(&mut self, obs: &Observation) {
        // Transcendental-free, divide-free window update: one rung up or
        // down the precomputed ladder, clamped at the `w_min` floor (rung
        // 0) and the saturation rung (top).
        //
        // `obs.feedback` is whatever the run's `FeedbackModel` reports —
        // the algorithm assumes the paper's full-sensing ternary channel.
        // Under no-collision-detection it still runs, but collisions
        // arrive as `Empty` and the update walks the wrong way (contention
        // reads as silence); that degradation is measured, not corrected,
        // by the feedback-grid campaign.
        self.level = match obs.feedback {
            Feedback::Empty => self.level.saturating_sub(1),
            Feedback::Noisy => (self.level + 1).min(self.ladder.top_level()),
            // Someone else's success: no update (Figure 1 has rules only for
            // silent and noisy slots). Our own success departs us anyway.
            Feedback::Success => return,
        };
    }

    #[inline]
    fn send_probability(&self) -> f64 {
        let row = self.row();
        row.p_listen * row.p_send_given_listen
    }

    #[inline]
    fn next_wake(&mut self, rng: &mut SimRng) -> Option<u64> {
        // Exact inversion sampling, `k = ⌊ln U / ln(1-p_listen)⌋`, with the
        // logarithm of `1-p` cached (pre-inverted) in the ladder row: one
        // inlined transcendental and one multiply per draw.
        let row = self.row();
        Some(geometric_inv(rng, row.p_listen, row.inv_ln_q_listen))
    }
}

impl SparseProtocol for LowSensing {
    #[inline]
    fn send_on_access(&mut self, rng: &mut SimRng) -> bool {
        rng.bernoulli(self.row().p_send_given_listen)
    }

    // No `observe4` override: the scalar `observe` is a clamped level step
    // with nothing to batch, so the trait's default (four scalar calls,
    // trivially bit-identical) is already optimal. The single source of the
    // derived-row arithmetic is `ladder::derive`.

    #[inline]
    fn next_wake4(states: &mut [&mut Self; 4], rng: &mut SimRng) -> [Option<u64>; 4] {
        // Uniforms are drawn in ascending lane order, degenerate lanes
        // drawing nothing, and the four `ln U` evaluations are 4-wide —
        // `geometric4_inv` is bit-identical per lane to the scalar
        // `next_wake`, which the batch contract requires.
        let rows = [
            states[0].row(),
            states[1].row(),
            states[2].row(),
            states[3].row(),
        ];
        let p_listen = rows.map(|r| r.p_listen);
        let inv = rows.map(|r| r.inv_ln_q_listen);
        geometric4_inv(rng, p_listen, inv).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> LowSensing {
        LowSensing::new(Params::default())
    }

    fn obs(feedback: Feedback) -> Observation {
        Observation {
            slot: 0,
            feedback,
            sent: false,
            succeeded: false,
        }
    }

    #[test]
    fn send_probability_is_one_over_w() {
        let mut p = fresh();
        for _ in 0..200 {
            assert!(
                (p.send_probability() - 1.0 / p.window()).abs() < 1e-12,
                "w={}",
                p.window()
            );
            p.observe(&obs(Feedback::Noisy));
        }
    }

    #[test]
    fn noisy_grows_empty_shrinks_success_noops() {
        let mut p = fresh();
        let w0 = p.window();
        p.observe(&obs(Feedback::Noisy));
        let w1 = p.window();
        assert!(w1 > w0);
        p.observe(&obs(Feedback::Success));
        assert_eq!(p.window(), w1, "success leaves the window unchanged");
        p.observe(&obs(Feedback::Empty));
        assert!(p.window() < w1);
    }

    #[test]
    fn back_on_exactly_inverts_back_off() {
        // The quantization's defining property (the continuous update only
        // round-tripped approximately): up-then-down restores the exact
        // prior state, bit for bit.
        let mut p = fresh();
        for _ in 0..7 {
            p.observe(&obs(Feedback::Noisy));
        }
        let before = p;
        p.observe(&obs(Feedback::Noisy));
        p.observe(&obs(Feedback::Empty));
        assert_eq!(p, before);
        assert_eq!(p.window().to_bits(), before.window().to_bits());
    }

    #[test]
    fn window_never_below_minimum() {
        let mut p = fresh();
        for _ in 0..50 {
            p.observe(&obs(Feedback::Empty));
            assert!(p.window() >= p.params().w_min());
        }
        assert_eq!(p.window(), p.params().w_min());
    }

    #[test]
    fn window_saturates_at_the_ladder_top() {
        let mut p = fresh();
        let top = p.ladder().top_level();
        for _ in 0..(top as u64 + 100) {
            p.observe(&obs(Feedback::Noisy));
        }
        assert_eq!(p.level(), top);
        let w_top = p.window();
        p.observe(&obs(Feedback::Noisy));
        assert_eq!(p.window(), w_top, "noise at the top rung is a no-op");
        // The saturation rung is unobservable in any simulable horizon.
        assert!(p.access_probability() <= 1e-21);
    }

    #[test]
    fn intent_rates_match_probabilities() {
        let mut p = LowSensing::with_window(Params::default(), 64.0);
        let mut rng = SimRng::new(1);
        let n = 400_000;
        let (mut sends, mut listens) = (0u64, 0u64);
        for _ in 0..n {
            match p.intent(&mut rng) {
                Intent::Send => sends += 1,
                Intent::Listen => listens += 1,
                Intent::Sleep => {}
            }
        }
        let access_rate = (sends + listens) as f64 / n as f64;
        let send_rate = sends as f64 / n as f64;
        assert!(
            (access_rate - p.access_probability()).abs() < 0.005,
            "access {access_rate} vs {}",
            p.access_probability()
        );
        assert!(
            (send_rate - 1.0 / 64.0).abs() < 0.002,
            "send {send_rate} vs {}",
            1.0 / 64.0
        );
    }

    #[test]
    fn sparse_delay_matches_access_probability() {
        let mut p = LowSensing::with_window(Params::default(), 64.0);
        let mut rng = SimRng::new(2);
        let n = 100_000;
        let sum: u64 = (0..n).map(|_| p.next_wake(&mut rng).unwrap()).sum();
        let mean = sum as f64 / n as f64;
        let expect = (1.0 - p.access_probability()) / p.access_probability();
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "mean {mean} expect {expect}"
        );
    }

    #[test]
    fn sparse_send_on_access_rate() {
        let mut p = LowSensing::with_window(Params::default(), 64.0);
        let mut rng = SimRng::new(3);
        let n = 200_000;
        let sends = (0..n).filter(|_| p.send_on_access(&mut rng)).count();
        let rate = sends as f64 / n as f64;
        let expect = p.params().send_probability_given_listen(64.0);
        assert!((rate - expect).abs() < 0.005, "rate {rate} expect {expect}");
    }

    #[test]
    fn listening_dominates_sending_at_large_windows() {
        // "Fully energy-efficient" hinges on listens being rare too: the
        // access probability c·ln³(w)/w vanishes as w grows.
        let p = LowSensing::with_window(Params::default(), 1e6);
        assert!(p.access_probability() < 0.002);
        assert!(p.send_probability() < 2e-6);
    }

    #[test]
    fn with_window_clamps() {
        let p = LowSensing::with_window(Params::default(), 1.0);
        assert_eq!(p.window(), 4.0);
    }

    #[test]
    fn state_is_one_16_byte_aligned_rung_reference() {
        // Ladder pointer plus level: four states per cache line, none
        // straddling one.
        assert_eq!(std::mem::size_of::<LowSensing>(), 16);
        assert_eq!(std::mem::align_of::<LowSensing>(), 16);
    }

    #[test]
    fn batched_lanes_match_scalar_bitwise() {
        // Long mixed feedback walks: after every batched observe4 +
        // next_wake4 round, all four lane states and delays must equal the
        // scalar path's exactly (PartialEq on LowSensing compares the ladder
        // and the level). Clamped parameters (p_listen = 1 at
        // small w) exercise the degenerate no-draw lanes.
        for params in [
            Params::default(),
            Params::new(1.0, 8.0).unwrap(),
            Params::new(2.0, 4.0).unwrap(), // clamps p_listen to 1 near w=e³
        ] {
            let mut scalar: Vec<LowSensing> = (0..4)
                .map(|i| LowSensing::with_window(params, 4.0 + 17.0 * i as f64))
                .collect();
            let mut batched = scalar.clone();
            let mut rng_s = SimRng::new(123);
            let mut rng_b = SimRng::new(123);
            let mut seq = SimRng::new(9);
            for step in 0..3_000 {
                let fb = match seq.range_u64(3) {
                    0 => Feedback::Empty,
                    1 => Feedback::Noisy,
                    _ => Feedback::Success,
                };
                let o = obs(fb);
                let mut delays_s = [None; 4];
                for (lane, p) in scalar.iter_mut().enumerate() {
                    p.observe(&o);
                    delays_s[lane] = p.next_wake(&mut rng_s);
                }
                let [a, b, c, d] = &mut batched[..] else {
                    unreachable!()
                };
                let mut lanes = [a, b, c, d];
                LowSensing::observe4(&mut lanes, &o);
                let delays_b = LowSensing::next_wake4(&mut lanes, &mut rng_b);
                assert_eq!(delays_s, delays_b, "step {step}");
                assert_eq!(scalar, batched, "step {step}");
            }
            assert_eq!(rng_s.next_u64(), rng_b.next_u64(), "stream lockstep");
        }
    }

    #[test]
    fn no_cd_channel_misreads_collisions_as_silence() {
        // On the no-collision-detection channel a collision is delivered to
        // listeners as `Empty`, so the window update walks *down* — the
        // exact inversion of the full-sensing response. This test pins that
        // documented hazard at the unit level.
        let mut p = fresh();
        p.observe(&obs(Feedback::Noisy));
        let w_backed_off = p.window();
        // What a ternary listener would be told about a collision slot:
        let mut ternary = p;
        ternary.observe(&obs(Feedback::Noisy));
        assert!(ternary.window() > w_backed_off);
        // What a no-CD listener is told about the same collision slot:
        let mut nocd = p;
        nocd.observe(&obs(Feedback::Empty));
        assert!(nocd.window() < w_backed_off);
    }

    #[test]
    fn runs_bounded_and_accounted_on_the_no_cd_channel() {
        // The algorithm must still *run* under the weaker channel — the
        // engines cap the horizon and the accounting stays partitioned —
        // even though draining is not guaranteed there.
        use lowsense_sim::arrivals::Batch;
        use lowsense_sim::config::{Limits, SimConfig};
        use lowsense_sim::engine::run_sparse;
        use lowsense_sim::feedback::ChannelModel;
        use lowsense_sim::hooks::NoHooks;
        use lowsense_sim::jamming::NoJam;
        let cfg = SimConfig::new(21)
            .limits(Limits {
                max_slot: 20_000,
                max_steps: u64::MAX,
            })
            .model(ChannelModel::NoCollisionDetection);
        let r = run_sparse(&cfg, Batch::new(48), NoJam, |_| fresh(), &mut NoHooks);
        let t = &r.totals;
        assert!(t.last_slot <= 20_000);
        assert!(t.successes <= t.arrivals);
        assert_eq!(
            t.active_slots,
            t.empty_active + t.successes + t.collision_slots + t.jammed_active,
            "slot classes must partition active slots"
        );
    }
}
