//! A slot loop the benchmark owns, for per-call costs of the DDCR station
//! automaton.
//!
//! It drives `DdcrStation`s only through `deliver`, `poll` and `observe`,
//! resolving each decision slot with `MediumConfig::resolve` — the
//! reference stepper's per-slot sequence with no tier, no sink and no
//! metrics. Each slot's poll sweep and observe sweep is timed as a whole
//! and divided by the station count; the reported costs are medians over
//! slots. The deliveries it produces must be a prefix of the engine's,
//! which the caller checks.

use ddcr_core::{DdcrConfig, DdcrStation, StaticAllocation};
use ddcr_sim::{Action, MediumConfig, Message, Observation, SourceId, Station, Ticks};
use std::time::Instant;

/// Per-call costs and what the loop delivered.
#[derive(Debug, Clone)]
pub struct LoopCosts {
    /// Median ns per `poll` call.
    pub poll_ns: f64,
    /// Median ns per `observe` call.
    pub observe_ns: f64,
    /// Decision slots stepped.
    pub slots: u64,
    /// `(message id, completion tick)` of each delivery, in order.
    pub deliveries: Vec<(u64, u64)>,
}

/// Steps at most `max_slots` decision slots of `schedule` (sorted by
/// arrival, then id) over one station per source, stopping early once
/// every message is delivered.
///
/// # Errors
///
/// Returns station construction errors as text.
pub fn drive(
    sources: u32,
    config: &DdcrConfig,
    allocation: &StaticAllocation,
    medium: &MediumConfig,
    schedule: &[Message],
    max_slots: u64,
) -> Result<LoopCosts, String> {
    let mut stations = (0..sources)
        .map(|i| {
            DdcrStation::new(
                SourceId(i),
                *config,
                allocation.clone(),
                medium.overhead_bits,
            )
            .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let n = stations.len() as f64;
    let per_call = |t0: Instant, t1: Instant| (t1 - t0).as_nanos() as f64 / n;
    let mut poll_ns = Vec::new();
    let mut observe_ns = Vec::new();
    let mut deliveries = Vec::new();
    let mut frames = Vec::new();
    let mut next = 0usize;
    let mut now = Ticks(0);
    let mut slots = 0u64;
    while slots < max_slots && deliveries.len() < schedule.len() {
        while let Some(msg) = schedule.get(next).filter(|m| m.arrival <= now) {
            stations[msg.source.0 as usize].deliver(*msg);
            next += 1;
        }
        frames.clear();
        let t0 = Instant::now();
        for station in &mut stations {
            if let Action::Transmit(frame) = station.poll(now) {
                frames.push(frame);
            }
        }
        let t1 = Instant::now();
        let (observation, advance) = medium.resolve(&frames);
        let next_free = now + advance;
        let t2 = Instant::now();
        for station in &mut stations {
            station.observe(now, next_free, &observation);
        }
        let t3 = Instant::now();
        poll_ns.push(per_call(t0, t1));
        observe_ns.push(per_call(t2, t3));
        match observation {
            Observation::Busy(frame)
            | Observation::Collision {
                survivor: Some(frame),
            } => deliveries.push((frame.message.id.0, next_free.as_u64())),
            _ => {}
        }
        now = next_free;
        slots += 1;
    }
    Ok(LoopCosts {
        poll_ns: crate::stats::median(&poll_ns),
        observe_ns: crate::stats::median(&observe_ns),
        slots,
        deliveries,
    })
}
