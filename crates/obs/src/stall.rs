//! Stall/livelock detection over the engine sample stream.
//!
//! A backoff system has two characteristic failure shapes, and both leave
//! the same macroscopic fingerprint — **backlog refuses to drop while the
//! channel burns slots without successes**:
//!
//! * **Collision-dominated**: send probabilities stay too high and every
//!   slot multi-collides. The canonical instance is full-sensing
//!   LOW-SENSING BACKOFF on a no-collision-detection channel: listeners
//!   read collisions as silence, shrink their windows, collide *harder*,
//!   and the loop closes — the Jiang–Zheng livelock (arXiv:2111.06650)
//!   that PR 8 pinned behind a horizon cap.
//! * **Silence-dominated**: windows overshoot and the backlog sits idle,
//!   everyone asleep — over-backoff, the dual failure.
//!
//! [`StallDetector`] watches consecutive [`EngineSample`]s and fires a
//! [`StallEvent`] when, over a configurable window of event slots, the
//! backlog never dropped below its value at the window start *and*
//! non-success slots (collisions + empty) dominate the active slots spent.
//! Detection is a pure function of the sample stream, so it inherits the
//! stream's determinism: same run, same events.

use lowsense_sim::hooks::EngineSample;
use lowsense_sim::time::Slot;

use crate::{esc, num};

/// Tuning knobs for [`StallDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallConfig {
    /// Event slots a no-progress stretch must span before it counts as a
    /// stall.
    pub window: u64,
    /// Fraction of the stretch's active slots that must be non-success
    /// (collision or empty) for the stall to fire.
    pub dominance: f64,
}

impl Default for StallConfig {
    fn default() -> Self {
        StallConfig {
            window: 2048,
            dominance: 0.95,
        }
    }
}

/// Which failure shape dominated a stalled stretch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// Mostly collision slots: windows too small / contention too high.
    CollisionDominated,
    /// Mostly empty active slots: windows too large / over-backoff.
    SilenceDominated,
    /// Neither shape holds ≥ 2/3 of the wasted slots.
    Mixed,
}

impl StallKind {
    /// Stable lowercase tag used in JSONL exports.
    pub fn tag(&self) -> &'static str {
        match self {
            StallKind::CollisionDominated => "collision-dominated",
            StallKind::SilenceDominated => "silence-dominated",
            StallKind::Mixed => "mixed",
        }
    }
}

/// One detected no-progress stretch.
#[derive(Debug, Clone, PartialEq)]
pub struct StallEvent {
    /// Wall-clock slot at which the stall was flagged.
    pub slot: Slot,
    /// Event-slot clock at the flag point.
    pub event_slots: u64,
    /// Event slots the stretch spanned.
    pub span: u64,
    /// Backlog at the flag point (≥ the backlog at the stretch start).
    pub backlog: u64,
    /// Successes delivered during the stretch (0 in a true livelock).
    pub successes: u64,
    /// Fraction of the stretch's active slots that were collisions.
    pub collision_share: f64,
    /// Fraction of the stretch's active slots that were empty.
    pub empty_share: f64,
    /// The dominant failure shape.
    pub kind: StallKind,
}

impl StallEvent {
    /// Renders a one-paragraph human diagnosis of the stretch.
    pub fn diagnosis(&self) -> String {
        let head = format!(
            "stall: backlog {} non-decreasing across {} event slots \
             (successes {}, collisions {:.0}%, empty {:.0}%)",
            self.backlog,
            self.span,
            self.successes,
            self.collision_share * 100.0,
            self.empty_share * 100.0,
        );
        match self.kind {
            StallKind::CollisionDominated => format!(
                "{head} — collision-dominated: send windows are not growing \
                 despite persistent collisions. On a no-collision-detection \
                 channel this is the signature of the Jiang-Zheng livelock \
                 (arXiv:2111.06650): a full-sensing protocol such as \
                 LOW-SENSING BACKOFF reads collisions as silence, shrinks \
                 its window, and collides harder forever."
            ),
            StallKind::SilenceDominated => format!(
                "{head} — silence-dominated: backoff windows have overshot \
                 the backlog and stations sleep through almost every slot \
                 (over-backoff); expect drain time far beyond the \
                 paper's bounds."
            ),
            StallKind::Mixed => format!(
                "{head} — mixed collision/silence waste: contention is \
                 oscillating around the stable point without delivering; \
                 check jamming pressure and feedback-model cost parameters."
            ),
        }
    }

    /// Serializes the event as one JSONL record (used by the flight
    /// recorder's export).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"t\":\"stall\",\"slot\":{},\"event_slots\":{},\"span\":{},\
             \"backlog\":{},\"successes\":{},\"collision_share\":{},\
             \"empty_share\":{},\"kind\":\"{}\",\"diagnosis\":\"{}\"}}",
            self.slot,
            self.event_slots,
            self.span,
            self.backlog,
            self.successes,
            num(self.collision_share),
            num(self.empty_share),
            self.kind.tag(),
            esc(&self.diagnosis()),
        )
    }
}

/// Incremental detector over a stream of [`EngineSample`]s.
///
/// Feed every sample (in order) to [`StallDetector::feed`]; it returns
/// `Some(StallEvent)` at most once per spanned window. After firing, the
/// stretch re-anchors at the firing sample, so a persistent livelock
/// yields one event per `window` event slots rather than one per sample.
#[derive(Debug, Clone, Default)]
pub struct StallDetector {
    cfg: StallConfig,
    anchor: Option<EngineSample>,
}

impl StallDetector {
    /// A detector with the given configuration.
    pub fn new(cfg: StallConfig) -> Self {
        StallDetector { cfg, anchor: None }
    }

    /// The active configuration.
    pub fn config(&self) -> StallConfig {
        self.cfg
    }

    /// Advances the detector by one sample; returns a stall event if the
    /// window just closed over a no-progress stretch.
    pub fn feed(&mut self, s: &EngineSample) -> Option<StallEvent> {
        let Some(anchor) = self.anchor else {
            self.anchor = Some(*s);
            return None;
        };
        // Progress = the backlog dropped below the stretch start. (Mere
        // successes are not enough: under saturating arrivals, delivering
        // slower than the offered load is still a degradation worth
        // flagging.)
        if s.backlog < anchor.backlog {
            self.anchor = Some(*s);
            return None;
        }
        let span = s.event_slots.saturating_sub(anchor.event_slots);
        if span < self.cfg.window {
            return None;
        }
        let active = s.active_slots.saturating_sub(anchor.active_slots);
        let collisions = s.collision_slots.saturating_sub(anchor.collision_slots);
        let empty = s.empty_active.saturating_sub(anchor.empty_active);
        let successes = s.successes.saturating_sub(anchor.successes);
        // The stretch is re-anchored either way: if it was healthy, the
        // window simply slides; if it fired, the next window accumulates
        // fresh evidence.
        self.anchor = Some(*s);
        if active == 0 {
            return None;
        }
        let wasted = (collisions + empty) as f64 / active as f64;
        if wasted < self.cfg.dominance {
            return None;
        }
        let collision_share = collisions as f64 / active as f64;
        let empty_share = empty as f64 / active as f64;
        let kind = if collision_share >= 2.0 * empty_share {
            StallKind::CollisionDominated
        } else if empty_share >= 2.0 * collision_share {
            StallKind::SilenceDominated
        } else {
            StallKind::Mixed
        };
        Some(StallEvent {
            slot: s.slot,
            event_slots: s.event_slots,
            span,
            backlog: s.backlog,
            successes,
            collision_share,
            empty_share,
            kind,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(event_slots: u64, backlog: u64) -> EngineSample {
        EngineSample {
            slot: event_slots,
            event_slots,
            backlog,
            arrivals: backlog,
            successes: 0,
            active_slots: event_slots,
            empty_active: 0,
            collision_slots: 0,
            jammed_active: 0,
            sends: 0,
            listens: 0,
            overhead_slots: 0,
            contention: 1.0,
            footprint_bytes: 0,
            state_bytes: 0,
            stage_bytes: 0,
        }
    }

    fn det(window: u64) -> StallDetector {
        StallDetector::new(StallConfig {
            window,
            dominance: 0.9,
        })
    }

    #[test]
    fn fires_on_pure_collision_stretch() {
        let mut d = det(10);
        let mut a = sample(0, 8);
        assert!(d.feed(&a).is_none(), "first sample only anchors");
        a.event_slots = 12;
        a.active_slots = 12;
        a.collision_slots = 12;
        a.slot = 12;
        let ev = d.feed(&a).expect("window spanned with zero progress");
        assert_eq!(ev.kind, StallKind::CollisionDominated);
        assert_eq!(ev.span, 12);
        assert_eq!(ev.successes, 0);
        assert!((ev.collision_share - 1.0).abs() < 1e-12);
        let diag = ev.diagnosis();
        assert!(diag.contains("LOW-SENSING BACKOFF"));
        assert!(diag.contains("2111.06650"), "names the no-CD livelock");
    }

    #[test]
    fn silence_dominated_is_classified() {
        let mut d = det(10);
        d.feed(&sample(0, 8));
        let mut s = sample(20, 8);
        s.active_slots = 20;
        s.empty_active = 19;
        s.successes = 1;
        let ev = d.feed(&s).expect("95% empty > 90% dominance");
        assert_eq!(ev.kind, StallKind::SilenceDominated);
        assert!(ev.diagnosis().contains("over-backoff"));
    }

    #[test]
    fn progress_resets_the_stretch() {
        let mut d = det(10);
        d.feed(&sample(0, 8));
        // Backlog drops: anchor moves, no event even after a long span.
        let mut s = sample(50, 7);
        s.active_slots = 50;
        s.collision_slots = 50;
        assert!(d.feed(&s).is_none(), "progress re-anchors");
        // From the new anchor, a fresh collision stretch fires again.
        let mut s2 = sample(65, 7);
        s2.active_slots = 65;
        s2.collision_slots = 65;
        assert!(d.feed(&s2).is_some());
    }

    #[test]
    fn healthy_mix_slides_without_firing() {
        let mut d = det(10);
        d.feed(&sample(0, 8));
        // Half the stretch succeeds: wasted share 0.5 < 0.9 dominance.
        let mut s = sample(30, 8);
        s.active_slots = 30;
        s.collision_slots = 15;
        s.successes = 15;
        assert!(d.feed(&s).is_none());
    }

    #[test]
    fn stall_json_is_one_flat_record() {
        let mut d = det(4);
        d.feed(&sample(0, 3));
        let mut s = sample(8, 3);
        s.active_slots = 8;
        s.collision_slots = 8;
        let ev = d.feed(&s).unwrap();
        let json = ev.to_json();
        assert!(json.starts_with("{\"t\":\"stall\""));
        assert!(json.contains("\"kind\":\"collision-dominated\""));
        assert!(!json.contains('\n'));
    }
}
