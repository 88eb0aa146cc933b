//! `trace-sparse`: the `ddcr trace` path on a large, lightly loaded bus.
//!
//! The library call sequence of `cmd_trace` — dimension the `uniform`
//! preset, build a schedule, `build_engine`, all four tiers on, attach a
//! `JsonlSink`, `add_arrivals`, `run_to_completion`, finish the sink —
//! with `ScheduleBuilder::bounded_random` traffic from the seed and the
//! sink writing into an in-memory buffer. The active set and the sink do
//! most of the work; per-station polling does little.

use crate::common::{
    dimension, keep_going, peak_rss_mb, secs, set_tiers, EndToEnd, MemWriter, Outcome,
    BUDGET_TICKS, MIN_ITERATIONS,
};
use crate::digest::{hash_bytes, run_digest};
use crate::slotloop;
use crate::spans::{median_s, Tracer};
use crate::stats::{median, samples_for_tail, Summary};
use ddcr_core::{network, DdcrConfig, StaticAllocation};
use ddcr_sim::{ChannelStats, Engine, JsonlSink, MediumConfig, Message, Ticks};
use ddcr_traffic::{scenario, MessageSet, ScheduleBuilder};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Attachment points.
pub const SOURCES: u32 = 1024;
/// `bounded_random` intensity.
pub const INTENSITY: f64 = 0.9;
/// Simulated arrival horizon, ms.
pub const HORIZON_MS: u64 = 100;
/// Decision slots the owned slot loop steps at most.
const LOOP_SLOTS: u64 = 3_000;
/// Tail percentile of the run time.
const TAIL_PCT: u32 = 90;

/// The `uniform` preset at the CLI's defaults (load 0.3, 5 ms deadline,
/// 8000-bit messages).
fn preset() -> Result<MessageSet, String> {
    scenario::uniform(SOURCES, 8_000, Ticks(5_000_000), 0.3).map_err(|e| e.to_string())
}

/// The seeded arrival schedule over `set`.
///
/// # Errors
///
/// Returns generator errors as text.
pub fn schedule(set: &MessageSet, seed: u64) -> Result<Vec<Message>, String> {
    ScheduleBuilder::bounded_random(set, INTENSITY, seed)
        .and_then(|b| b.build(Ticks(HORIZON_MS * 1_000_000)))
        .map_err(|e| e.to_string())
}

struct Inputs {
    set: MessageSet,
    config: DdcrConfig,
    allocation: StaticAllocation,
    schedule: Vec<Message>,
}

fn inputs(seed: u64, tr: &mut Tracer) -> Result<Inputs, String> {
    let medium = MediumConfig::ethernet();
    let set = tr.scope("traffic", "scenario::uniform", |_| preset())?;
    let (config, allocation) =
        tr.scope("core.network", "dimension", |_| dimension(&set, &medium))?;
    let schedule = tr.scope("traffic", "ScheduleBuilder::build", |_| {
        schedule(&set, seed)
    })?;
    Ok(Inputs {
        set,
        config,
        allocation,
        schedule,
    })
}

/// A ready engine and, when a sink is attached, where its bytes land.
struct Ready {
    engine: Engine,
    trace: Option<Arc<Mutex<Vec<u8>>>>,
}

/// Builds the engine; `sink` is the recycled trace buffer, or `None` for
/// a run without a sink.
fn ready(
    inputs: &Inputs,
    fast: bool,
    sink: Option<Vec<u8>>,
    tr: &mut Tracer,
) -> Result<Ready, String> {
    let mut engine = tr
        .scope("core.network", "build_engine", |_| {
            network::build_engine(
                &inputs.set,
                &inputs.config,
                &inputs.allocation,
                MediumConfig::ethernet(),
            )
        })
        .map_err(|e| e.to_string())?;
    set_tiers(&mut engine, fast);
    let trace = sink.map(|buf| {
        tr.scope("sim.trace", "JsonlSink::new", |_| {
            let (writer, out) = MemWriter::new(buf);
            engine.set_trace_sink(JsonlSink::new(Box::new(writer)));
            out
        })
    });
    Ok(Ready { engine, trace })
}

/// One finished run.
struct Run {
    stats: ChannelStats,
    scheduled: usize,
    slots: u64,
    polls: u64,
    replays: u64,
    stations: usize,
    trace: Vec<u8>,
    events: u64,
}

impl Run {
    fn digest(&self) -> u64 {
        run_digest(&self.stats, hash_bytes(&self.trace), None)
    }
}

fn run(ready: Ready, schedule: Vec<Message>, tr: &mut Tracer) -> Result<Run, String> {
    let Ready { mut engine, trace } = ready;
    let scheduled = schedule.len();
    tr.scope("sim.engine", "add_arrivals", |_| {
        engine.add_arrivals(schedule).map(|_| ())
    })
    .map_err(|e| e.to_string())?;
    tr.scope("sim.engine", "run_to_completion", |_| {
        engine.run_to_completion(Ticks(BUDGET_TICKS))
    })
    .map_err(|e| format!("run did not drain: {e}"))?;
    let events = match engine.take_trace_sink() {
        Some(sink) => tr
            .scope("sim.trace", "finish", |_| sink.finish())
            .map_err(|e| format!("trace sink failed: {e}"))?,
        None => 0,
    };
    let (slots, polls, replays) = (
        engine.slot_ordinal(),
        engine.poll_count(),
        engine.replay_count(),
    );
    let stations = engine.station_count();
    let stats = tr.scope("sim.engine", "into_stats", |_| engine.into_stats());
    let trace = trace
        .map(|buf| std::mem::take(&mut *buf.lock().expect("trace buffer lock")))
        .unwrap_or_default();
    Ok(Run {
        stats,
        scheduled,
        slots,
        polls,
        replays,
        stations,
        trace,
        events,
    })
}

/// Set-up seconds, run seconds and the run, for one iteration.
fn iteration(
    seed: u64,
    fast: bool,
    sink: Option<Vec<u8>>,
    tr: &mut Tracer,
) -> Result<(f64, f64, Run), String> {
    let t0 = Instant::now();
    let mut inputs = inputs(seed, tr)?;
    let ready = ready(&inputs, fast, sink, tr)?;
    let setup = secs(t0);
    let schedule = std::mem::take(&mut inputs.schedule);
    let t1 = Instant::now();
    let run = run(ready, schedule, tr)?;
    Ok((setup, secs(t1), run))
}

/// The gate: the fast path's digest must equal the reference stepper's on
/// the same inputs. Returns the reference run.
fn gate(seed: u64, lines: &mut Vec<String>) -> Result<Run, String> {
    let mut off = Tracer::new(false);
    let (_, _, reference) = iteration(seed, false, Some(Vec::new()), &mut off)?;
    let (_, _, fast) = iteration(seed, true, Some(Vec::new()), &mut off)?;
    let (r, f) = (reference.digest(), fast.digest());
    lines.push(format!(
        "gate: reference digest {r:016x}, fast digest {f:016x}, {} deliveries, {} trace bytes",
        reference.stats.delivered,
        reference.trace.len()
    ));
    if r == f {
        Ok(reference)
    } else {
        Err("gate: fast-path digest differs from the reference stepper".to_owned())
    }
}

/// Deterministic simulation figures of a run: miss ratio and p99 latency
/// (histogram bucket bound) in ms.
fn sim_figures(run: &Run) -> (f64, f64) {
    let miss = run.stats.missed_deadlines as f64 / run.scheduled.max(1) as f64;
    let p99_ms = run.stats.latency_histogram.quantile(0.99).as_u64() as f64 / 1e6;
    (miss, p99_ms)
}

/// The timed loop, then the untimed gate; end-to-end figures.
pub fn timed(seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let mut off = Tracer::new(false);
    let (mut setup, mut op, mut digests) = (Vec::new(), Vec::new(), Vec::new());
    let mut delivered = 0u64;
    let mut figures = None;
    let mut rss = None;
    let mut buf = Vec::new();
    let started = Instant::now();
    while keep_going(
        started,
        budget,
        op.len() + out.failed as usize,
        samples_for_tail(TAIL_PCT),
    ) {
        out.attempted += 1;
        match iteration(seed, true, Some(std::mem::take(&mut buf)), &mut off) {
            Ok((s, o, run)) => {
                setup.push(s);
                op.push(o);
                rss.get_or_insert_with(peak_rss_mb);
                delivered = run.stats.delivered;
                digests.push(run.digest());
                figures.get_or_insert_with(|| sim_figures(&run));
                buf = run.trace;
            }
            Err(e) => {
                out.failed += 1;
                out.lines.push(format!("run failed: {e}"));
            }
        }
    }
    let rss = rss.unwrap_or(f64::NAN);
    let gate = gate(seed, &mut out.lines);
    let reference = gate.as_ref().map(Run::digest).ok();
    let mismatched = digests.iter().filter(|&&d| Some(d) != reference).count() as u64;
    out.failed += mismatched;
    if let Err(e) = &gate {
        out.lines.push(e.clone());
    }
    out.correct = gate.is_ok() && out.failed == 0 && !op.is_empty();
    if op.is_empty() {
        return out;
    }
    let (miss, p99_ms) = figures.unwrap_or((f64::NAN, f64::NAN));
    let e2e = EndToEnd {
        throughput_per_s: delivered as f64 / median(&op),
        op: Summary::of(&op, TAIL_PCT),
        setup: Summary::of(&setup, TAIL_PCT),
        peak_rss_mb: rss,
    };
    out.lines.extend([
        format!(
            "msgs_per_s {:.1} msg/s ({delivered} messages per run)",
            e2e.throughput_per_s
        ),
        format!("run_us {} us", e2e.op.describe(1e6)),
        format!("setup_s {} s", e2e.setup.describe(1.0)),
        format!("peak_rss_mb {rss:.1} MB"),
        format!("sim_miss_ratio {miss} ratio"),
        format!("sim_latency_p99_ms {p99_ms} ms"),
    ]);
    if let Some(e) = e2e.op.tail_error("run times") {
        out.lines.push(e);
        out.correct = false;
    }
    out.e2e = Some(e2e);
    out
}

/// The gate, then alternating untraced and traced iterations and the
/// layer probes; per-layer metrics.
pub fn traced(seed: u64, budget: Duration, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    match traced_inner(seed, budget, tr, &mut out) {
        Ok(()) => out.correct = out.failed == 0,
        Err(e) => {
            out.failed += 1;
            out.lines.push(e);
        }
    }
    out
}

fn traced_inner(
    seed: u64,
    budget: Duration,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let reference = gate(seed, &mut out.lines)?;
    let expected = reference.digest();
    // Untraced and traced iterations alternate, so that host speed drift
    // cancels out of each pair's difference, the tracing overhead. The
    // untraced ones also give the with-sink run time.
    let mut off = Tracer::new(false);
    let (mut sink_op, mut overhead) = (Vec::new(), Vec::new());
    let mut last: Option<Run> = None;
    let cache_before = ddcr_tree::cache::global().stats();
    let started = Instant::now();
    while keep_going(started, budget, overhead.len(), MIN_ITERATIONS) {
        out.attempted += 2;
        let buf = last.take().map_or_else(Vec::new, |r| r.trace);
        let t0 = Instant::now();
        let (_, o, plain) = iteration(seed, true, Some(buf), &mut off)?;
        let plain_wall = secs(t0);
        out.failed += u64::from(plain.digest() != expected);
        sink_op.push(o);
        tr.set_run(overhead.len() as u32);
        let t1 = Instant::now();
        let (_, _, run) = tr.scope("bench", "iteration", |tr| {
            iteration(seed, true, Some(plain.trace), tr)
        })?;
        overhead.push(secs(t1) - plain_wall);
        out.failed += u64::from(run.digest() != expected);
        last = Some(run);
    }
    let cache = ddcr_tree::cache::global().stats().since(cache_before);
    let last = last.ok_or("no traced iteration ran")?;

    // Probe: the same runs without the sink.
    tr.set_run(u32::MAX);
    let mut bare_op = Vec::new();
    let mut bare = None;
    for _ in 0..sink_op.len().clamp(MIN_ITERATIONS, 10) {
        let (_, o, run) = tr.scope("bench", "probe.no_sink", |tr| {
            iteration(seed, true, None, tr)
        })?;
        bare_op.push(o);
        bare = Some(run);
    }
    let bare = bare.ok_or("no sinkless probe ran")?;

    // Probe: cold ξ tables for both trees, and the owned slot loop.
    let probe_inputs = inputs(seed, &mut off)?;
    let xi_cold = crate::probes::xi_cold(&probe_inputs.config, tr)?;
    let costs = tr.scope("core.protocol", "slot_loop", |_| {
        slotloop::drive(
            SOURCES,
            &probe_inputs.config,
            &probe_inputs.allocation,
            &MediumConfig::ethernet(),
            &probe_inputs.schedule,
            LOOP_SLOTS,
        )
    })?;
    crate::probes::check_prefix(&costs, &reference.stats)?;

    let run_s = median(&bare_op);
    let with_sink_s = median(&sink_op);
    let (miss, p99_ms) = sim_figures(&last);
    let l = &mut out.layers;
    l.insert(
        "traffic.schedule_s",
        median_s(tr.spans(), "traffic", "ScheduleBuilder::build"),
    );
    l.insert("tree.xi_cold_s", xi_cold);
    l.insert("tree.cache_hit_ratio", crate::probes::hit_ratio(cache));
    l.insert(
        "core.build_engine_s",
        median_s(tr.spans(), "core.network", "build_engine"),
    );
    l.insert("protocol.poll_ns", costs.poll_ns);
    l.insert("protocol.observe_ns", costs.observe_ns);
    l.insert("engine.run_s", run_s);
    l.insert("engine.slots", bare.slots as f64);
    l.insert("engine.ns_per_slot", run_s * 1e9 / bare.slots as f64);
    l.insert(
        "engine.poll_fraction",
        bare.polls as f64 / (bare.slots as f64 * bare.stations as f64),
    );
    l.insert("engine.replays", bare.replays as f64);
    l.insert("trace.sink_s", with_sink_s - run_s);
    l.insert(
        "trace.bytes_per_event",
        last.trace.len() as f64 / last.events as f64,
    );
    l.insert(
        "trace.mb_per_s",
        last.trace.len() as f64 / 1e6 / with_sink_s,
    );
    l.insert("sim.miss_ratio", miss);
    l.insert("sim.latency_p99_ms", p99_ms);
    l.insert("tracing.overhead_s", median(&overhead));
    out.lines.push(format!(
        "traced: {} pairs of untraced and traced iterations, slot loop {} slots",
        overhead.len(),
        costs.slots
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::Fnv;

    fn schedule_digest(seed: u64) -> u64 {
        let set = preset().unwrap();
        let mut h = Fnv::default();
        for m in schedule(&set, seed).unwrap() {
            h.word(m.id.0)
                .word(u64::from(m.source.0))
                .word(m.arrival.as_u64());
        }
        h.finish()
    }

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        assert_eq!(schedule_digest(11), schedule_digest(11));
        assert_ne!(schedule_digest(11), schedule_digest(12));
    }
}
