//! `run-loaded`: the `ddcr run --channels 2 --jobs 2` path on a loaded
//! preset.
//!
//! The library call sequence of `cmd_run` — dimension the `atc` preset,
//! `balance_by_load` over two channels, `channel_budgets`, build a
//! schedule, `multibus::run_channels` with metrics on and
//! `min(2, available_parallelism)` workers — with
//! `ScheduleBuilder::bounded_random` traffic at full intensity from the
//! seed. The DDCR automaton, the idle and contention tiers, the metrics
//! sink and the shard pool do the work; metrics switch the active set off
//! and no trace is written.

use crate::common::{
    dimension, keep_going, peak_rss_mb, secs, set_tiers, workers, EndToEnd, Outcome, BUDGET_TICKS,
    MIN_ITERATIONS,
};
use crate::digest::{fold_metrics, fold_stats, hash_bytes, Fnv};
use crate::slotloop;
use crate::spans::{median_s, Tracer};
use crate::stats::{median, samples_for_tail, Summary};
use ddcr_core::multibus::{self, ChannelAssignment, MultichannelReport, RunOptions};
use ddcr_core::{network, DdcrConfig, StaticAllocation};
use ddcr_sim::{LatencyHistogram, MediumConfig, Message, Ticks, HISTOGRAM_BUCKETS};
use ddcr_traffic::{scenario, MessageSet, ScheduleBuilder};
use std::time::{Duration, Instant};

/// Attachment points.
pub const SOURCES: u32 = 128;
/// Parallel channels.
pub const CHANNELS: usize = 2;
/// `bounded_random` intensity.
pub const INTENSITY: f64 = 1.0;
/// Simulated arrival horizon, ms.
pub const HORIZON_MS: u64 = 50;
/// Repeats of each traced-mode probe.
const PROBE_REPEATS: usize = 3;
/// Decision slots the owned slot loop steps at most.
const LOOP_SLOTS: u64 = 20_000;
/// Tail percentile of the run time.
const TAIL_PCT: u32 = 90;

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
    assignment: ChannelAssignment,
    schedule: Vec<Message>,
}

fn inputs(seed: u64, tr: &mut Tracer) -> Result<Inputs, String> {
    let medium = MediumConfig::ethernet();
    let set = tr
        .scope("traffic", "scenario::air_traffic_control", |_| {
            scenario::air_traffic_control(SOURCES)
        })
        .map_err(|e| e.to_string())?;
    let (config, allocation) =
        tr.scope("core.network", "dimension", |_| dimension(&set, &medium))?;
    let assignment = tr.scope("core.multibus", "balance_by_load", |_| {
        multibus::balance_by_load(&set, CHANNELS)
    });
    // The CLI prints the budgets; computing them is part of its set-up.
    tr.scope("core.multibus", "channel_budgets", |_| {
        multibus::channel_budgets(&set, &assignment, &config, &allocation, &medium)
    })
    .map_err(|e| e.to_string())?;
    let schedule = tr.scope("traffic", "ScheduleBuilder::build", |_| {
        schedule(&set, seed)
    })?;
    Ok(Inputs {
        set,
        config,
        allocation,
        assignment,
        schedule,
    })
}

/// Runs the channels: `run_channels` itself on the fast path, or the same
/// per-channel engines with every tier off for the reference.
fn run(
    inputs: &Inputs,
    schedule: Vec<Message>,
    workers: usize,
    metrics: bool,
    fast: bool,
    tr: &mut Tracer,
) -> Result<MultichannelReport, String> {
    let mut options = RunOptions::new(Ticks(BUDGET_TICKS));
    options.workers = workers;
    options.metrics = metrics;
    let Inputs {
        set,
        config,
        allocation,
        assignment,
        ..
    } = inputs;
    let report = tr
        .scope("core.multibus", "run_channels", |_| {
            if fast {
                multibus::run_channels(
                    set,
                    schedule,
                    assignment,
                    config,
                    allocation,
                    MediumConfig::ethernet(),
                    &options,
                )
            } else {
                multibus::run_channels_with(set, schedule, assignment, &options, &|_, projected| {
                    let mut engine = network::build_engine(
                        projected,
                        config,
                        allocation,
                        MediumConfig::ethernet(),
                    )?;
                    set_tiers(&mut engine, false);
                    if metrics {
                        let (time, static_) = network::xi_bound_tables(config)?;
                        engine.set_xi_bounds(time, static_);
                    }
                    Ok(engine)
                })
            }
        })
        .map_err(|e| e.to_string())?;
    if report.completed() {
        Ok(report)
    } else {
        Err("a channel did not drain within the budget".to_owned())
    }
}

/// Digest of everything in a report except wall clock and worker count.
fn digest(report: &MultichannelReport) -> u64 {
    let mut h = Fnv::default();
    for c in &report.channels {
        h.word(c.channel as u64)
            .word(c.classes as u64)
            .word(c.scheduled as u64)
            .word(u64::from(c.completed))
            .word(c.fault_events as u64);
        fold_stats(&mut h, &c.stats);
        if let Some(m) = &c.metrics {
            fold_metrics(&mut h, m);
        }
        h.word(c.trace.as_deref().map_or(0, hash_bytes));
    }
    h.finish()
}

/// Miss ratio over scheduled messages and p99 latency (histogram bucket
/// bound over all channels) in ms.
fn sim_figures(report: &MultichannelReport) -> (f64, f64) {
    let miss = report.deadline_misses() as f64 / report.scheduled().max(1) as f64;
    let mut counts = [0u64; HISTOGRAM_BUCKETS];
    for c in &report.channels {
        for (sum, n) in counts.iter_mut().zip(c.stats.latency_histogram.counts()) {
            *sum += n;
        }
    }
    let total: u64 = counts.iter().sum();
    let rank = (total as f64 * 0.99).ceil() as u64;
    let mut seen = 0;
    let bucket = counts
        .iter()
        .position(|&n| {
            seen += n;
            seen >= rank.max(1)
        })
        .unwrap_or(HISTOGRAM_BUCKETS - 1);
    (
        miss,
        LatencyHistogram::bucket_upper_bound(bucket) as f64 / 1e6,
    )
}

fn iteration(
    seed: u64,
    workers: usize,
    fast: bool,
    tr: &mut Tracer,
) -> Result<(f64, f64, MultichannelReport), String> {
    let t0 = Instant::now();
    let mut inputs = inputs(seed, tr)?;
    let setup = secs(t0);
    let schedule = std::mem::take(&mut inputs.schedule);
    let t1 = Instant::now();
    let report = run(&inputs, schedule, workers, true, fast, tr)?;
    Ok((setup, secs(t1), report))
}

/// The gate: the reference stepper, the fast path on one worker and the
/// fast path on `workers()` must give the same digest. Returns the
/// reference report.
fn gate(seed: u64, lines: &mut Vec<String>) -> Result<MultichannelReport, String> {
    let mut off = Tracer::new(false);
    let (_, _, reference) = iteration(seed, 1, false, &mut off)?;
    let (_, _, serial) = iteration(seed, 1, true, &mut off)?;
    let (_, _, parallel) = iteration(seed, workers(), true, &mut off)?;
    let (r, s, p) = (digest(&reference), digest(&serial), digest(&parallel));
    lines.push(format!(
        "gate: reference digest {r:016x}, fast 1-worker {s:016x}, fast {}-worker {p:016x}, \
         {} deliveries, {} xi violations",
        workers(),
        reference.delivered(),
        reference.xi_violations()
    ));
    if r == s && s == p {
        Ok(reference)
    } else {
        Err("gate: digests differ between reference, serial and parallel runs".to_owned())
    }
}

/// The timed loop, then the untimed gate; end-to-end figures.
pub fn timed(seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let mut off = Tracer::new(false);
    let (mut setup, mut op, mut digests) = (Vec::new(), Vec::new(), Vec::new());
    let mut delivered = 0usize;
    let mut figures = None;
    let mut rss = None;
    let started = Instant::now();
    while keep_going(
        started,
        budget,
        op.len() + out.failed as usize,
        samples_for_tail(TAIL_PCT),
    ) {
        out.attempted += 1;
        match iteration(seed, workers(), true, &mut off) {
            Ok((s, o, report)) => {
                setup.push(s);
                op.push(o);
                rss.get_or_insert_with(peak_rss_mb);
                delivered = report.delivered();
                digests.push(digest(&report));
                figures.get_or_insert_with(|| (sim_figures(&report), report.xi_violations()));
            }
            Err(e) => {
                out.failed += 1;
                out.lines.push(format!("run failed: {e}"));
            }
        }
    }
    let rss = rss.unwrap_or(f64::NAN);
    let gate = gate(seed, &mut out.lines);
    let reference = gate.as_ref().map(digest).ok();
    out.failed += digests.iter().filter(|&&d| Some(d) != reference).count() as u64;
    if let Err(e) = &gate {
        out.lines.push(e.clone());
    }
    out.correct = gate.is_ok() && out.failed == 0 && !op.is_empty();
    if op.is_empty() {
        return out;
    }
    let ((miss, p99_ms), violations) = figures.unwrap_or(((f64::NAN, f64::NAN), 0));
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
        format!("xi_violations {violations} count (open item 3; not a failure)"),
    ]);
    if let Some(e) = e2e.op.tail_error("run times") {
        out.lines.push(e);
        out.correct = false;
    }
    out.e2e = Some(e2e);
    out
}

/// One channel run alone, as the pool runs it: project, build with
/// metrics and ξ bounds, run, collect.
struct Alone {
    total_s: f64,
    run_s: f64,
    slots: u64,
    polls: u64,
    replays: u64,
    stations: usize,
}

fn channel_alone(
    inputs: &Inputs,
    channel: usize,
    messages: &[Message],
    tr: &mut Tracer,
) -> Result<Alone, String> {
    let t0 = Instant::now();
    let projected = inputs
        .assignment
        .project(&inputs.set, channel)
        .map_err(|e| e.to_string())?;
    let mut engine = tr
        .scope("core.network", "build_engine", |_| {
            network::build_engine(
                &projected,
                &inputs.config,
                &inputs.allocation,
                MediumConfig::ethernet(),
            )
        })
        .map_err(|e| e.to_string())?;
    tr.scope("sim.metrics", "enable_metrics", |_| -> Result<(), String> {
        engine.enable_metrics();
        let (time, static_) =
            network::xi_bound_tables(&inputs.config).map_err(|e| e.to_string())?;
        engine.set_xi_bounds(time, static_);
        Ok(())
    })?;
    let t1 = Instant::now();
    tr.scope("sim.engine", "add_arrivals", |_| {
        engine.add_arrivals(messages.iter().copied()).map(|_| ())
    })
    .map_err(|e| e.to_string())?;
    tr.scope("sim.engine", "run_to_completion", |_| {
        engine.run_to_completion(Ticks(BUDGET_TICKS))
    })
    .map_err(|e| format!("channel {channel} did not drain: {e}"))?;
    let run_s = secs(t1);
    let alone = Alone {
        total_s: 0.0,
        run_s,
        slots: engine.slot_ordinal(),
        polls: engine.poll_count(),
        replays: engine.replay_count(),
        stations: engine.station_count(),
    };
    tr.scope("sim.metrics", "take_metrics", |_| engine.take_metrics());
    tr.scope("sim.engine", "into_stats", |_| engine.into_stats());
    Ok(Alone {
        total_s: secs(t0),
        ..alone
    })
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
    let expected = digest(&reference);
    // Untraced and traced iterations alternate, so that host speed drift
    // cancels out of each pair's difference, the tracing overhead.
    let mut off = Tracer::new(false);
    let mut overhead = Vec::new();
    let mut last = None;
    let cache_before = ddcr_tree::cache::global().stats();
    let started = Instant::now();
    while keep_going(started, budget, overhead.len(), MIN_ITERATIONS) {
        out.attempted += 2;
        let t0 = Instant::now();
        let (_, _, plain) = iteration(seed, workers(), true, &mut off)?;
        let plain_wall = secs(t0);
        out.failed += u64::from(digest(&plain) != expected);
        tr.set_run(overhead.len() as u32);
        let t1 = Instant::now();
        let (_, _, report) = tr.scope("bench", "iteration", |tr| {
            iteration(seed, workers(), true, tr)
        })?;
        overhead.push(secs(t1) - plain_wall);
        out.failed += u64::from(digest(&report) != expected);
        last = Some(report);
    }
    let cache = ddcr_tree::cache::global().stats().since(cache_before);
    let last = last.ok_or("no traced iteration ran")?;

    // Probes: serial vs parallel pool, metrics off, each channel alone.
    tr.set_run(u32::MAX);
    let base = inputs(seed, &mut off)?;
    let (mut serial, mut parallel, mut bare) = (Vec::new(), Vec::new(), Vec::new());
    let per_channel = base.assignment.split_schedule(base.schedule.clone());
    let mut alone: Vec<Vec<Alone>> = (0..CHANNELS).map(|_| Vec::new()).collect();
    for _ in 0..PROBE_REPEATS {
        for (workers, times) in [(1, &mut serial), (workers(), &mut parallel)] {
            let t0 = Instant::now();
            tr.scope("bench", "probe.pool", |tr| {
                run(&base, base.schedule.clone(), workers, true, true, tr)
            })?;
            times.push(secs(t0));
        }
        let t0 = Instant::now();
        tr.scope("bench", "probe.no_metrics", |tr| {
            run(&base, base.schedule.clone(), 1, false, true, tr)
        })?;
        bare.push(secs(t0));
        for (channel, messages) in per_channel.iter().enumerate() {
            let a = tr.scope("bench", "probe.channel_alone", |tr| {
                channel_alone(&base, channel, messages, tr)
            })?;
            alone[channel].push(a);
        }
    }
    let xi_cold = crate::probes::xi_cold(&base.config, tr)?;
    let projected = base
        .assignment
        .project(&base.set, 0)
        .map_err(|e| e.to_string())?;
    let costs = tr.scope("core.protocol", "slot_loop", |_| {
        slotloop::drive(
            projected.sources(),
            &base.config,
            &base.allocation,
            &MediumConfig::ethernet(),
            &per_channel[0],
            LOOP_SLOTS,
        )
    })?;
    crate::probes::check_prefix(&costs, &reference.channels[0].stats)?;

    let serial_s = median(&serial);
    let parallel_s = median(&parallel);
    let slowest_alone = alone
        .iter()
        .map(|runs| median(&runs.iter().map(|a| a.total_s).collect::<Vec<_>>()))
        .fold(0.0, f64::max);
    let run_s: f64 = alone
        .iter()
        .map(|runs| median(&runs.iter().map(|a| a.run_s).collect::<Vec<_>>()))
        .sum();
    let counters = alone.iter().filter_map(|runs| runs.first());
    let (mut slots, mut polls, mut replays, mut station_slots) = (0u64, 0u64, 0u64, 0f64);
    for a in counters {
        slots += a.slots;
        polls += a.polls;
        replays += a.replays;
        station_slots += a.slots as f64 * a.stations as f64;
    }
    let (mut phase_total, mut skipped, mut busy, mut search) = (0u64, 0u64, 0u64, 0u64);
    for m in last.channels.iter().filter_map(|c| c.metrics.as_ref()) {
        phase_total += m.phase_slots.total();
        skipped += m.phase_slots.skipped;
        busy += m.busy_skipped_slots;
        search += m.search_skipped_slots;
    }
    let ratio = |n: u64| n as f64 / phase_total.max(1) as f64;
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
    l.insert(
        "multibus.budgets_s",
        median_s(tr.spans(), "core.multibus", "channel_budgets"),
    );
    l.insert("shard.serial_s", serial_s);
    l.insert("shard.parallel_s", parallel_s);
    l.insert("shard.speedup", serial_s / parallel_s);
    l.insert("shard.wait_s", parallel_s - slowest_alone);
    l.insert("protocol.poll_ns", costs.poll_ns);
    l.insert("protocol.observe_ns", costs.observe_ns);
    l.insert("engine.run_s", run_s);
    l.insert("engine.slots", slots as f64);
    l.insert("engine.ns_per_slot", run_s * 1e9 / slots as f64);
    l.insert("engine.poll_fraction", polls as f64 / station_slots);
    l.insert("engine.replays", replays as f64);
    l.insert("engine.skip_ratio", ratio(skipped));
    l.insert("engine.busy_skip_ratio", ratio(busy));
    l.insert("engine.search_skip_ratio", ratio(search));
    l.insert("metrics.overhead_s", serial_s - median(&bare));
    l.insert("metrics.xi_violations", last.xi_violations() as f64);
    l.insert("sim.miss_ratio", miss);
    l.insert("sim.latency_p99_ms", p99_ms);
    l.insert("tracing.overhead_s", median(&overhead));
    out.lines.push(format!(
        "traced: {} pairs of untraced and traced iterations, {PROBE_REPEATS} probe rounds, \
         slot loop {} slots",
        overhead.len(),
        costs.slots
    ));
    Ok(())
}
