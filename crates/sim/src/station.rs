//! The station abstraction every MAC protocol implements.

use crate::channel::{Action, Observation};
use crate::message::{Frame, Message};
use crate::metrics::PhaseHint;
use crate::time::Ticks;

/// How a station relates to an upcoming stretch of **busy** decision
/// slots (see [`Station::hold_hint`]).
///
/// The engine only fast-forwards a busy run when exactly one live station
/// answers [`HoldHint::Hold`] and every other live station answers
/// [`HoldHint::Quiet`]; any [`HoldHint::Contend`] vetoes the run and the
/// slot goes through the reference path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HoldHint {
    /// No promise: the station must be polled this slot (the conservative
    /// default).
    Contend,
    /// The station guarantees it polls [`Action::Idle`] for the next `n`
    /// decision slots, *even if* each of those slots carries a successful
    /// transmission by another station. `u64::MAX` means "for as long as
    /// nothing new is delivered to me".
    Quiet(u64),
    /// The station commits to transmitting exactly one frame per decision
    /// slot for the next `n` slots, provided every one of those frames
    /// goes out uncontested and nothing new is delivered to it meanwhile.
    Hold(u64),
}

/// A station's promise about a run of *loaded idle cycles* — the
/// contention regime in which every backlogged station sits the whole time
/// tree search out (its deadline class lies beyond the horizon) and then
/// collides at the attempt slot, deterministically, cycle after cycle (see
/// [`Station::attempt_cycle_hint`]).
///
/// Each cycle is `probes` provably silent probe slots followed by one
/// destructively collided attempt slot, so an entire run is a pure
/// function of its start time and the cycle count: the engine resolves it
/// analytically in one step instead of stepping every contender through
/// every slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttemptCycleHint {
    /// Silent probe slots at the start of each cycle (the protocol's
    /// time-tree branching degree for DDCR).
    pub probes: u64,
    /// Consecutive cycles the promise covers from `now`; `0` vetoes a
    /// bulk run without vetoing the slot-by-slot paths.
    pub cycles: u64,
    /// `Some(source id)` when this station transmits — and collides — at
    /// every attempt slot of the run; `None` for a provably silent
    /// observer. A run needs at least two contenders (a lone transmitter
    /// would resolve `Busy`, zero would be pure silence).
    pub contender: Option<u32>,
}

/// Whether a station needs per-slot engagement at all, or can be parked
/// by the engine's active-set scheduler (see [`Station::wake_hint`]).
///
/// The active-set tier keeps per-slot cost proportional to *contenders*
/// rather than *population*: a [`WakeHint::Dormant`] station is removed
/// from the poll loop entirely, its channel observations are deferred into
/// a catch-up log, and it is replayed in one batch on its next wake (a
/// delivery, a fault/membership transition, or an engine event that could
/// invalidate the promise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeHint {
    /// No promise: the station must stay in the per-slot loops (the
    /// conservative default, correct for every implementation).
    Active,
    /// A standing promise, holding until the next [`Station::deliver`] or
    /// until broken by a channel event the station itself would react to:
    ///
    /// * every [`Station::poll`] answers [`Action::Idle`] regardless of
    ///   what the channel carries meanwhile;
    /// * [`Station::backlog`] is `0` and stays `0` under any sequence of
    ///   deferred observations;
    /// * the tier-gating hints never veto a run the live stations admit:
    ///   the engine answers them on the station's behalf as
    ///   [`Station::next_ready`] `None`, [`Station::hold_hint`]
    ///   `Quiet(u64::MAX)`, and an [`Station::attempt_cycle_hint`] silent
    ///   observer compatible with whatever cycle shape the contenders
    ///   agree on. A station that answers [`Station::phase_hint`] with
    ///   `Some` may instead rely on the **phase witness** — the engine
    ///   keeps the first active station with a phase hint live — when
    ///   every veto it would raise comes from shared state the witness
    ///   holds too (DDCR: a static tree search in progress, a cycle not
    ///   at its start);
    /// * [`Station::phase_hint`] equals that of any live synced replica, so
    ///   the witness attributes slots for every parked replica;
    /// * the observation entry points ([`Station::observe`],
    ///   [`Station::skip_silence`], [`Station::skip_busy`],
    ///   [`Station::skip_attempt_cycles`]) may be deferred and replayed
    ///   later, in channel order with identical arguments, leaving the
    ///   station in exactly the state immediate calls would have;
    /// * crucially, the promise may only *stop* holding through an
    ///   observation — so any channel event that breaks it is visible to
    ///   the stations the engine kept live, which report `Active` in turn.
    Dormant,
}

/// A station (message source `s_i`) attached to the broadcast medium.
///
/// The engine drives each station through a strict slot-synchronous cycle:
///
/// 1. [`Station::deliver`] hands over messages whose arrival time has been
///    reached (the local queue `Q_i` is the station's own business);
/// 2. [`Station::poll`] asks for this slot's [`Action`];
/// 3. after resolving all actions, [`Station::observe`] reports the channel
///    [`Observation`] — identically to every station, which is what makes
///    replicated deterministic protocols such as CSMA/DDCR possible.
///
/// Implementations must be deterministic functions of their inputs (plus
/// any seeded RNG they own) so that simulations are reproducible.
///
/// `Send` is a supertrait so whole engines can migrate between worker
/// threads across federation rounds (see [`crate::federation`]); station
/// state is plain data for every in-tree protocol, so this costs nothing.
pub trait Station: Send {
    /// Accepts a newly arrived message into the local queue. Implementations
    /// must enqueue the message (never drop it on arrival) so the engine's
    /// backlog accounting stays exact.
    fn deliver(&mut self, message: Message);

    /// Decides the action for the decision slot starting at `now`.
    fn poll(&mut self, now: Ticks) -> Action;

    /// Hears the channel outcome of the slot that started at `now`;
    /// `next_free` is when the channel becomes free again (equal to
    /// `now + x` for silence/destructive collisions, or the end of the
    /// surviving frame otherwise).
    fn observe(&mut self, now: Ticks, next_free: Ticks, observation: &Observation);

    /// Number of messages still queued locally (for run-to-completion
    /// termination checks).
    fn backlog(&self) -> usize;

    /// Idle fast-forward hint: the earliest slot-start time at or after
    /// which this station might transmit (or otherwise needs per-slot
    /// engagement), assuming the channel stays silent until then.
    ///
    /// The engine uses the hint to jump silence runs in one step instead of
    /// polling every station every slot. The contract:
    ///
    /// * `Some(t)` with `t <= now` — no promise; the engine polls this slot
    ///   normally (the conservative default).
    /// * `Some(t)` with `t > now` — the station guarantees it polls
    ///   [`Action::Idle`] at every decision slot starting before `t`,
    ///   provided the channel stays silent over that span.
    /// * `None` — the station stays idle indefinitely (until a new message
    ///   is [`Station::deliver`]ed to it).
    ///
    /// When the engine skips a silence run it does **not** call
    /// [`Station::observe`] for the skipped slots; it calls
    /// [`Station::skip_silence`] once instead, and that call must leave the
    /// station in exactly the state the per-slot silence observations would
    /// have. The default is `Some(now)`: fully backward compatible, never
    /// skipped.
    fn next_ready(&self, now: Ticks) -> Option<Ticks> {
        Some(now)
    }

    /// Absorbs a fast-forwarded run of `slots` silent decision slots, the
    /// first starting at `from`, each `slot` ticks wide.
    ///
    /// Called by the engine instead of per-slot [`Station::observe`] when a
    /// silence run is skipped (see [`Station::next_ready`]). Must be
    /// behaviourally identical to observing `slots` consecutive
    /// [`Observation::Silence`] outcomes; in particular it must not change
    /// the station's [`Station::backlog`]. The default replays the silence
    /// observations one by one — correct for every implementation, O(1)
    /// overrides are an optimisation.
    fn skip_silence(&mut self, from: Ticks, slots: u64, slot: Ticks) {
        for i in 0..slots {
            let at = from + slot * i;
            self.observe(at, at + slot, &Observation::Silence);
        }
    }

    /// An injected omission failure: the station loses power at `now`.
    ///
    /// Returns the messages lost from its local queue (the engine records
    /// them in [`crate::ChannelStats::lost`]). While down the engine fences
    /// the station completely — no [`Station::deliver`], [`Station::poll`]
    /// or [`Station::observe`] calls reach it. The default keeps the queue
    /// and freezes: correct for stateless stations; protocol stations
    /// should drop volatile state and report what was lost.
    fn crash(&mut self, _now: Ticks) -> Vec<Message> {
        Vec::new()
    }

    /// The station comes back up at `now` after a [`Station::crash`].
    ///
    /// Default: no-op (resume as frozen). Replicated protocol stations must
    /// instead enter a resynchronization mode and stay off the channel
    /// until their replica state is provably consistent again.
    fn restart(&mut self, _now: Ticks) {}

    /// A short label for traces and error messages.
    fn label(&self) -> String {
        format!("station(backlog={})", self.backlog())
    }

    /// Busy fast-forward hint: how this station relates to the next
    /// stretch of busy (single-transmitter) decision slots.
    ///
    /// Queried by the engine after deliveries, before polling, when busy
    /// fast-forward is enabled. The engine jumps a run of back-to-back
    /// successful transmissions only when exactly one live station answers
    /// [`HoldHint::Hold`] and all others answer [`HoldHint::Quiet`]; the
    /// run length is capped by every hint, the next pending arrival, the
    /// next scheduled fault ordinal, and the run limit. During the run the
    /// holder is still polled and observed slot by slot (its frames carry
    /// real payload state); the quiet stations are caught up once at the
    /// end via [`Station::skip_busy`]. The default `Contend` never
    /// fast-forwards and is correct for every implementation.
    fn hold_hint(&self, _now: Ticks) -> HoldHint {
        HoldHint::Contend
    }

    /// Absorbs a fast-forwarded run of busy decision slots: `frames` were
    /// transmitted back to back by another station, the first slot
    /// starting at `from`, each occupying exactly its frame duration;
    /// `slot` is the medium's slot width in ticks.
    ///
    /// Called by the engine instead of per-slot [`Station::observe`] on
    /// every quiet station when a busy run is skipped (see
    /// [`Station::hold_hint`]). Must be behaviourally identical to
    /// observing the corresponding [`Observation::Busy`] outcomes one by
    /// one. The default replays them — correct for every implementation,
    /// O(1) overrides are an optimisation.
    fn skip_busy(&mut self, from: Ticks, frames: &[Frame], _slot: Ticks) {
        let mut at = from;
        for frame in frames {
            let next_free = at + frame.duration();
            self.observe(at, next_free, &Observation::Busy(*frame));
            at = next_free;
        }
    }

    /// Observability hook: attributes the decision slot about to be
    /// resolved to a protocol phase (see [`PhaseHint`]).
    ///
    /// Queried by the engine before the slot's [`Station::poll`] and
    /// [`Station::observe`] calls, only when metrics are enabled, and only
    /// on live (not parked) stations: the first that answers `Some`
    /// attributes the slot. A replicated protocol should answer from its
    /// shared automaton state while synced — every synced replica giving
    /// the same answer — and `None` otherwise; the answer must not depend
    /// on `poll`. The default `None` (for stations with no phase
    /// structure) leaves the slot unattributed.
    fn phase_hint(&self) -> Option<PhaseHint> {
        None
    }

    /// Analytic contention fast-forward hint: whether the next stretch of
    /// decision slots is a run of deterministic loaded idle cycles this
    /// station can promise its exact behaviour through (see
    /// [`AttemptCycleHint`]).
    ///
    /// Queried by the engine after deliveries, before polling, when
    /// contention fast-forward is enabled and the medium destroys
    /// collisions. A bulk run starts only when **every** live station
    /// answers `Some` with the same cycle shape and at least two are
    /// contenders; the run covers the minimum promised cycle count, cut
    /// at whole-cycle boundaries by the next pending arrival, the fault
    /// fence, and the run limit. Stations are then caught up once through
    /// [`Station::skip_attempt_cycles`] instead of `probes + 1` polls and
    /// observes per cycle. The default `None` (for protocols without this
    /// cycle structure) refuses bulk runs and is always correct.
    fn attempt_cycle_hint(&self, _now: Ticks, _slot: Ticks) -> Option<AttemptCycleHint> {
        None
    }

    /// Absorbs a bulk run of `cycles` loaded idle cycles starting at
    /// `from`, each `probes` silent probe slots followed by one
    /// destructively collided attempt slot of width `slot`.
    ///
    /// Called on every live station after a run promised through
    /// [`Station::attempt_cycle_hint`] (and replayed from the active-set
    /// catch-up log on wake); must leave the station bitwise identical to
    /// observing those `cycles · (probes + 1)` outcomes one by one. Only
    /// ever invoked on stations whose hint (or dormancy promise) covered
    /// the run; the default replays the outcomes — correct for every
    /// implementation, O(1) overrides are an optimisation.
    fn skip_attempt_cycles(&mut self, from: Ticks, cycles: u64, probes: u64, slot: Ticks) {
        let mut at = from;
        for _ in 0..cycles {
            for _ in 0..probes {
                self.observe(at, at + slot, &Observation::Silence);
                at += slot;
            }
            self.observe(at, at + slot, &Observation::Collision { survivor: None });
            at += slot;
        }
    }

    /// Active-set scheduler hint: whether this station can be parked out
    /// of the per-slot loops entirely (see [`WakeHint`]).
    ///
    /// Queried by the engine at the end of each resolved operation when
    /// the active-set tier is enabled. Stations update the answer on
    /// [`Station::deliver`] and on observations (it is a pure function of
    /// their state); a parked station is never polled and receives its
    /// deferred observations in one batched catch-up on its next wake.
    /// The default `Active` never parks and is correct for every
    /// implementation.
    fn wake_hint(&self) -> WakeHint {
        WakeHint::Active
    }

    /// Publishes an epoch-anchored resynchronization checkpoint for the
    /// active-set scheduler: `(epoch start, opaque checkpoint)`, where the
    /// checkpoint describes the shared replica state every synced station
    /// agrees on, reconstructible from the epoch boundary plus the
    /// observation sequence since it (the same soundness argument that
    /// backs crash-restart resynchronization).
    ///
    /// The engine captures a checkpoint from a fully caught-up station
    /// whenever one parks or wakes, and uses it to short-circuit later
    /// wakes: a station parked since before the epoch boundary is rebased
    /// onto the boundary through [`Station::resync_rebase`], replays only
    /// the catch-up tail from the boundary on, and adopts the shared
    /// counters through [`Station::resync_adopt`] — `O(final epoch)` work
    /// instead of `O(dormant span)`. The default `None` keeps every wake on
    /// the exact full-replay path.
    fn resync_checkpoint(&self) -> Option<(Ticks, Box<dyn std::any::Any + Send>)> {
        None
    }

    /// Rebases this (provably silent, parked) station onto the epoch
    /// boundary described by `checkpoint`, discarding its stale shared
    /// automaton view. Returns `true` when the checkpoint was understood
    /// and the rebase happened; `false` falls back to full replay.
    ///
    /// After a successful rebase the engine replays the catch-up tail from
    /// the epoch boundary on through the regular observation entry points,
    /// then calls [`Station::resync_adopt`] with the same checkpoint at the
    /// log position it was captured at. The default refuses.
    fn resync_rebase(&mut self, _checkpoint: &dyn std::any::Any) -> bool {
        false
    }

    /// Adopts the shared (replica-invariant) counter block from
    /// `checkpoint`, overwriting whatever the tail replay accumulated —
    /// the checkpoint spans the whole dormant prefix, including operations
    /// before the epoch boundary that the rebase discarded. Private
    /// counters stay untouched: the station was provably silent. Only ever
    /// called after a successful [`Station::resync_rebase`]. The default is
    /// a no-op.
    fn resync_adopt(&mut self, _checkpoint: &dyn std::any::Any) {}
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crate::message::Frame;
    use std::collections::VecDeque;

    /// A trivially greedy station: transmits the head of its FIFO queue
    /// whenever it believes the channel is free, never backs off. Useful
    /// for exercising the engine's collision logic in tests.
    #[derive(Debug, Default)]
    pub struct GreedyStation {
        pub queue: VecDeque<Message>,
        pub overhead_bits: u64,
        pub observations: Vec<Observation>,
    }

    impl GreedyStation {
        pub fn new(overhead_bits: u64) -> Self {
            GreedyStation {
                queue: VecDeque::new(),
                overhead_bits,
                observations: Vec::new(),
            }
        }
    }

    impl Station for GreedyStation {
        fn deliver(&mut self, message: Message) {
            self.queue.push_back(message);
        }

        fn poll(&mut self, _now: Ticks) -> Action {
            match self.queue.front() {
                Some(&message) => Action::Transmit(Frame::new(
                    message,
                    message.bits + self.overhead_bits,
                )),
                None => Action::Idle,
            }
        }

        fn observe(&mut self, _now: Ticks, _next_free: Ticks, observation: &Observation) {
            let transmitted = match observation {
                Observation::Busy(frame) => Some(frame.message.id),
                Observation::Collision {
                    survivor: Some(frame),
                } => Some(frame.message.id),
                _ => None,
            };
            if transmitted.is_some() && self.queue.front().map(|m| m.id) == transmitted {
                self.queue.pop_front();
            }
            self.observations.push(*observation);
        }

        fn backlog(&self) -> usize {
            self.queue.len()
        }
    }
}
