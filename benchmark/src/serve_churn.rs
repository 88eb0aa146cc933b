//! `serve-churn`: the `ddcr serve` request path, admission alone.
//!
//! A closed loop with one client: the next request goes out only after
//! the previous decision. A seeded script over `z` attachment points
//! mixes joins, flow requests on random present stations, leave/rejoin
//! churn and periodic `status`. Each request calls the `Membership` method
//! `ddcr serve`'s `process_line` calls; no engine runs. Joins and leaves
//! reshape the leaf partition; flows evaluate the `B_DDCR` predicate over
//! the admitted set plus the applicant.
//!
//! Every flow is the light `telemetry` flow of the `serve-smoke`
//! session, so that the admitted set grows to hundreds of flows and each
//! decision costs what it costs on a well-used bus: a 1600-request session
//! of 800 joins and 800 such flows is the `ddcr serve` timing the
//! benchmark was specified against (about 1 s). Once the bus fills, the
//! rest are rejected (over a quarter of all flow requests), so the
//! rejection path is timed too. The `video`/`atc`/`stock` class shapes are left out: 10 Mbit/s
//! ethernet rejects nearly all of them, and a single one admitted early
//! caps the admitted set at about 50 flows, which keeps every decision in
//! the cheap, mostly-rejecting regime.
//!
//! A run plays one session per script, scripts `k = 0, 1, …` seeded from
//! `derive_seed(seed, k)`, until the time is up. Which flows get in early
//! decides how large the admitted set grows, so one script's cost varies;
//! pooling many scripts makes a run's figures a steady function of the
//! seed.

use crate::common::{keep_going, peak_rss_mb, secs, EndToEnd, Outcome, MIN_ITERATIONS};
use crate::digest::Fnv;
use crate::spans::Tracer;
use crate::stats::{median, samples_for_tail, tail, Summary};
use ddcr_core::{AdmissionDecision, DdcrConfig, FlowRequest, Membership, TransitionReceipt};
use ddcr_sim::rng::seeded_rng;
use ddcr_sim::{MediumConfig, SourceId, Ticks};
use rand::rngs::StdRng;
use rand::Rng;
use std::time::{Duration, Instant};

/// Attachment points.
pub const SOURCES: u32 = 800;
/// Requests per session.
pub const REQUESTS: usize = 1600;
/// `ddcr serve` defaults: class width (ticks) and leaves per join.
const CLASS_WIDTH: Ticks = Ticks(100_000);
const JOIN_NU: u64 = 1;
/// Every this many requests, one `status`.
const STATUS_EVERY: usize = 50;
/// Shares of the remaining requests: joins, then leaves; flows the rest.
const P_JOIN: f64 = 0.45;
const P_LEAVE: f64 = 0.05;
/// The `telemetry` flow of the `serve-smoke` session: 8000 bits, one
/// arrival per window of 10^7 ticks (bit-times), deadline 5·10^7 ticks.
const TELEMETRY_BITS: u64 = 8_000;
const TELEMETRY_DEADLINE: Ticks = Ticks(50_000_000);
const TELEMETRY_WINDOW: Ticks = Ticks(10_000_000);
/// Tail percentile of the admit time, taken per session.
const TAIL_PCT: u32 = 98;
/// Sessions replayed by the timed run's gate, which must decide
/// identically.
const REPLAYS: usize = 3;
/// Set-ups per session; a session's set-up time is the batch's mean, which
/// is steadier than one timing of a few microseconds.
const SETUP_BATCH: u32 = 32;
/// `Membership::evaluate` calls timed in the traced run.
const EVALUATE_REPEATS: usize = 5;

/// One scripted request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `{"op":"join","station":s}`.
    Join(u32),
    /// `{"op":"leave","station":s}`.
    Leave(u32),
    /// `{"op":"flow",...}`.
    Flow(FlowRequest),
    /// `{"op":"status"}`.
    Status,
}

/// The `telemetry` flow request on `station`.
fn telemetry(station: u32) -> FlowRequest {
    FlowRequest {
        source: SourceId(station),
        name: "telemetry".to_owned(),
        bits: TELEMETRY_BITS,
        deadline: TELEMETRY_DEADLINE,
        arrivals: 1,
        window: TELEMETRY_WINDOW,
    }
}

/// The seeded session script. The script tracks membership, so every
/// request is valid when it is sent: no call should return an error.
///
pub fn script(seed: u64) -> Vec<Request> {
    let mut rng = seeded_rng(seed);
    let mut absent: Vec<u32> = (0..SOURCES).collect();
    let mut present: Vec<u32> = Vec::new();
    let pick = |from: &mut Vec<u32>, rng: &mut StdRng| {
        let i = rng.gen_range(0..from.len());
        from.swap_remove(i)
    };
    let mut out = Vec::with_capacity(REQUESTS);
    for i in 0..REQUESTS {
        if i % STATUS_EVERY == STATUS_EVERY - 1 {
            out.push(Request::Status);
            continue;
        }
        let u: f64 = rng.gen();
        if present.is_empty() || (u < P_JOIN && !absent.is_empty()) {
            let s = pick(&mut absent, &mut rng);
            present.push(s);
            out.push(Request::Join(s));
        } else if u < P_JOIN + P_LEAVE {
            let s = pick(&mut present, &mut rng);
            absent.push(s);
            out.push(Request::Leave(s));
        } else {
            let station = present[rng.gen_range(0..present.len())];
            out.push(Request::Flow(telemetry(station)));
        }
    }
    out
}

/// Digest of a script (for the seed-determinism tests).
#[cfg(test)]
fn script_digest(script: &[Request]) -> u64 {
    let mut h = Fnv::default();
    for r in script {
        h.bytes(format!("{r:?}").as_bytes());
    }
    h.finish()
}

/// What one request returned; the session digest reads the fields
/// through `Debug`.
#[derive(Debug)]
#[allow(dead_code)]
enum Reply {
    Receipt(TransitionReceipt),
    Decision(AdmissionDecision),
    Status([u64; 4]),
}

/// Host time of one request, by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Join,
    Leave,
    Flow,
    Status,
}

/// One finished session, before the gate.
struct Session {
    setup_s: f64,
    wall_s: f64,
    times: Vec<(Kind, f64)>,
    replies: Vec<Result<Reply, String>>,
    membership: Membership,
}

/// What is kept of a gated session.
struct Done {
    setup_s: f64,
    wall_s: f64,
    times: Vec<(Kind, f64)>,
    digest: u64,
    accept_ratio: f64,
    /// Flows admitted when the session ends.
    admitted: usize,
}

impl Session {
    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for r in &self.replies {
            h.bytes(format!("{r:?}").as_bytes());
        }
        h.finish()
    }

    fn errors(&self) -> u64 {
        self.replies.iter().filter(|r| r.is_err()).count() as u64
    }

    /// Admitted flows over flow requests.
    fn accept_ratio(&self) -> f64 {
        let (mut flows, mut admitted) = (0u64, 0u64);
        for r in &self.replies {
            if let Ok(Reply::Decision(d)) = r {
                flows += 1;
                admitted += u64::from(matches!(d, AdmissionDecision::Admitted { .. }));
            }
        }
        admitted as f64 / flows.max(1) as f64
    }

    fn into_done(self) -> (Done, Membership) {
        let (digest, accept_ratio) = (self.digest(), self.accept_ratio());
        let done = Done {
            setup_s: self.setup_s,
            wall_s: self.wall_s,
            times: self.times,
            digest,
            accept_ratio,
            admitted: self.membership.admitted().len(),
        };
        (done, self.membership)
    }
}

impl Done {
    fn of(&self, kind: Kind) -> Vec<f64> {
        self.times
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|&(_, t)| t)
            .collect()
    }
}

fn session(script: &[Request], tr: &mut Tracer) -> Result<Session, String> {
    let setup = |tr: &mut Tracer| {
        tr.scope("core.membership", "Membership::new", |_| {
            let config = DdcrConfig::for_sources(SOURCES, CLASS_WIDTH)?;
            Membership::new(config, MediumConfig::ethernet(), SOURCES, JOIN_NU)
        })
        .map_err(|e| e.to_string())
    };
    let t0 = Instant::now();
    let mut m = setup(tr)?;
    for _ in 1..SETUP_BATCH {
        m = setup(tr)?;
    }
    let setup_s = secs(t0) / f64::from(SETUP_BATCH);
    let mut times = Vec::with_capacity(script.len());
    let mut replies = Vec::with_capacity(script.len());
    let started = Instant::now();
    for request in script {
        let t = Instant::now();
        let (kind, reply) = match request {
            Request::Join(s) => (
                Kind::Join,
                tr.scope("core.membership", "join", |_| {
                    m.join(SourceId(*s)).map(Reply::Receipt)
                }),
            ),
            Request::Leave(s) => (
                Kind::Leave,
                tr.scope("core.membership", "leave", |_| {
                    m.leave(SourceId(*s)).map(Reply::Receipt)
                }),
            ),
            Request::Flow(flow) => (
                Kind::Flow,
                tr.scope("core.membership", "admit", |_| {
                    m.admit(flow).map(Reply::Decision)
                }),
            ),
            Request::Status => (
                Kind::Status,
                Ok(Reply::Status([
                    m.present_count() as u64,
                    m.admitted().len() as u64,
                    m.allocation().free_leaves().len() as u64,
                    m.safety_violations(),
                ])),
            ),
        };
        times.push((kind, secs(t)));
        replies.push(reply.map_err(|e| e.to_string()));
    }
    Ok(Session {
        setup_s,
        wall_s: secs(started),
        times,
        replies,
        membership: m,
    })
}

/// The gate on one session: invariants hold, no safety violation, and the
/// admitted set is feasible.
fn check(s: &Session) -> Result<(), String> {
    s.membership
        .check_invariants()
        .map_err(|e| format!("invariant: {e}"))?;
    if s.membership.safety_violations() != 0 {
        return Err("safety violation recorded".to_owned());
    }
    let report = s.membership.evaluate().map_err(|e| e.to_string())?;
    if report.feasible() {
        Ok(())
    } else {
        Err("admitted set is infeasible".to_owned())
    }
}

/// The script of session `k` of a run seeded `seed`.
fn session_script(seed: u64, k: usize) -> Vec<Request> {
    script(ddcr_sim::rng::derive_seed(seed, k as u64))
}

/// Plays session `k` of the run seeded `seed` and gates it; counts its
/// requests and failed requests into `out`.
fn play(
    seed: u64,
    k: usize,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(Done, Membership), String> {
    let script = session_script(seed, k);
    tr.set_run(k as u32);
    let s = tr.scope("bench", "session", |tr| session(&script, tr))?;
    out.attempted += script.len() as u64;
    out.failed += s.errors();
    check(&s)?;
    Ok(s.into_done())
}

fn pooled(sessions: &[Done], f: impl Fn(&Done) -> Vec<f64>) -> Vec<f64> {
    sessions.iter().flat_map(f).collect()
}

/// Median over sessions of `f`.
fn per_session(sessions: &[Done], f: impl Fn(&Done) -> f64) -> f64 {
    median(&sessions.iter().map(f).collect::<Vec<_>>())
}

/// Timed sessions, each gated; end-to-end figures.
pub fn timed(seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    match timed_inner(seed, budget, &mut out) {
        Ok(e2e) => {
            out.correct = out.failed == 0;
            out.e2e = Some(e2e);
        }
        Err(e) => out.lines.push(format!("failed: {e}")),
    }
    out
}

/// Plays sessions until the time is up, then replays the first
/// [`REPLAYS`] scripts, which must reproduce their decision digests.
fn timed_inner(seed: u64, budget: Duration, out: &mut Outcome) -> Result<EndToEnd, String> {
    let mut off = Tracer::new(false);
    let mut done: Vec<Done> = Vec::new();
    let mut rss = f64::NAN;
    let started = Instant::now();
    while keep_going(started, budget, done.len(), MIN_ITERATIONS) {
        let (d, _) = play(seed, done.len(), &mut off, out)?;
        if done.is_empty() {
            rss = peak_rss_mb();
        }
        done.push(d);
    }
    for (k, d) in done.iter().enumerate().take(REPLAYS) {
        let replay = session(&session_script(seed, k), &mut off)?;
        if replay.digest() != d.digest {
            return Err(format!("replay of session {k} decided differently"));
        }
    }
    // The tail is the median over sessions of each session's p98 admit
    // time. A session's flow requests (about 780) leave at least 10 beyond
    // p98, and the median over sessions is not moved by the few sessions a
    // burst of host noise lands on, as a p99 pooled over sessions is.
    let tails = done
        .iter()
        .map(|d| tail(&d.of(Kind::Flow), TAIL_PCT))
        .collect::<Option<Vec<f64>>>()
        .ok_or_else(|| {
            format!(
                "a session has fewer than {} flow requests, too few for p{TAIL_PCT}",
                samples_for_tail(TAIL_PCT)
            )
        })?;
    let admit = pooled(&done, |d| d.of(Kind::Flow));
    let e2e = EndToEnd {
        throughput_per_s: per_session(&done, |d| REQUESTS as f64 / d.wall_s),
        op: Summary {
            tail: Some(median(&tails)),
            ..Summary::of(&admit, TAIL_PCT)
        },
        setup: Summary::of(
            &done.iter().map(|d| d.setup_s).collect::<Vec<_>>(),
            TAIL_PCT,
        ),
        peak_rss_mb: rss,
    };
    out.lines.extend([
        format!(
            "gate: {} sessions hold their invariants, {REPLAYS} replays decide identically",
            done.len()
        ),
        format!(
            "admit_us {} us (p{TAIL_PCT}: median over sessions)",
            e2e.op.describe(1e6)
        ),
        format!(
            "requests_per_s {:.1} req/s (median over sessions)",
            e2e.throughput_per_s
        ),
        format!("setup_s {} s", e2e.setup.describe(1.0)),
        format!("peak_rss_mb {rss:.1} MB"),
        format!(
            "accept_ratio {:.4}, admitted set at session end {} flows (medians over sessions)",
            per_session(&done, |d| d.accept_ratio),
            per_session(&done, |d| d.admitted as f64)
        ),
    ]);
    Ok(e2e)
}

/// Alternating untraced and traced sessions, then the layer probes;
/// per-layer metrics.
pub fn traced(seed: u64, budget: Duration, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    match traced_inner(seed, budget, tr, &mut out) {
        Ok(()) => out.correct = out.failed == 0,
        Err(e) => {
            out.failed += 1;
            out.lines.push(format!("gate: {e}"));
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
    // Each script is played untraced, then traced: host speed drift
    // cancels out of the pair's difference, the tracing overhead, and the
    // traced session must decide as the untraced one did.
    let mut off = Tracer::new(false);
    let (mut plain, mut overhead) = (Vec::new(), Vec::new());
    let mut last = None;
    let cache_before = ddcr_tree::cache::global().stats();
    let started = Instant::now();
    while keep_going(started, budget, plain.len(), MIN_ITERATIONS) {
        let k = plain.len();
        let t0 = Instant::now();
        let (d, _) = play(seed, k, &mut off, out)?;
        let plain_wall = secs(t0);
        let t1 = Instant::now();
        let (traced, membership) = play(seed, k, tr, out)?;
        overhead.push(secs(t1) - plain_wall);
        if traced.digest != d.digest {
            return Err(format!("traced session {k} decided differently"));
        }
        plain.push(d);
        last = Some(membership);
    }
    let cache = ddcr_tree::cache::global().stats().since(cache_before);
    let last = last.ok_or("no traced session ran")?;

    tr.set_run(u32::MAX);
    let mut evaluate = Vec::new();
    for _ in 0..EVALUATE_REPEATS {
        let t0 = Instant::now();
        tr.scope("core.feasibility", "evaluate", |_| last.evaluate())
            .map_err(|e| e.to_string())?;
        evaluate.push(secs(t0));
    }
    let config = DdcrConfig::for_sources(SOURCES, CLASS_WIDTH).map_err(|e| e.to_string())?;
    let xi_cold = crate::probes::xi_cold(&config, tr)?;

    // Growth: median admit time of the last decile of flow requests over
    // that of the first decile, pooled over the untraced sessions.
    let decile = |from_end: bool| {
        pooled(&plain, |s| {
            let t = s.of(Kind::Flow);
            let k = (t.len() / 10).max(1);
            if from_end {
                t[t.len() - k..].to_vec()
            } else {
                t[..k].to_vec()
            }
        })
    };
    let l = &mut out.layers;
    l.insert("tree.xi_cold_s", xi_cold);
    l.insert("tree.cache_hit_ratio", crate::probes::hit_ratio(cache));
    l.insert(
        "membership.join_us",
        median(&pooled(&plain, |s| s.of(Kind::Join))) * 1e6,
    );
    l.insert(
        "membership.leave_us",
        median(&pooled(&plain, |s| s.of(Kind::Leave))) * 1e6,
    );
    l.insert("feasibility.evaluate_ms", median(&evaluate) * 1e3);
    l.insert(
        "admission.growth",
        median(&decile(true)) / median(&decile(false)),
    );
    l.insert(
        "admission.accept_ratio",
        per_session(&plain, |d| d.accept_ratio),
    );
    l.insert("tracing.overhead_s", median(&overhead));
    out.lines.push(format!(
        "traced: {} pairs of untraced and traced sessions of {REQUESTS} requests, \
         final admitted set {} flows",
        plain.len(),
        last.admitted().len()
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_is_a_function_of_the_seed() {
        let a = script(7);
        assert_eq!(script_digest(&a), script_digest(&script(7)));
        assert_ne!(script_digest(&a), script_digest(&script(8)));
        assert_eq!(a.len(), REQUESTS);
    }

    #[test]
    fn script_requests_are_valid_when_sent() {
        let script = script(3);
        let s = session(&script, &mut Tracer::new(false)).unwrap();
        assert_eq!(s.errors(), 0);
        assert!(s.times.iter().any(|(k, _)| *k == Kind::Leave));
        assert!(s.accept_ratio() > 0.0);
        check(&s).unwrap();
        // Telemetry flows fill the admitted set to hundreds of flows.
        assert!(s.membership.admitted().len() >= 200);
    }
}
