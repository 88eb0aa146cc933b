//! Fast-forward equivalence: the optimized engine (idle, busy-period, and
//! contention fast-forward plus the active-set scheduler on, the defaults)
//! and the retained reference stepper (every one of
//! [`Engine::set_fast_forward`], [`Engine::set_busy_fast_forward`],
//! [`Engine::set_contention_fast_forward`], and [`Engine::set_active_set`]
//! forced to `false`) must be bitwise indistinguishable — identical channel
//! traces, statistics, delivery schedules, final clocks, and timeout
//! outcomes — across every protocol, random workload, collision mode, and
//! fault plan. The four switches are exercised across the full 2⁴ power set
//! so a regression in any path (or any interaction between paths) bisects
//! cleanly.

use ddcr_baseline::{CsmaCdStation, DcrStation, NpEdfOracle, QueueDiscipline};
use ddcr_core::{BurstConfig, DdcrConfig, DdcrStation, StaticAllocation};
use ddcr_sim::{
    ClassId, CollisionMode, Engine, FaultEvent, FaultKind, FaultPlan, FaultRates, MediumConfig,
    MembershipChange, MembershipEvent, MembershipPlan, Message, MessageId, SimError, SimMetrics,
    SourceId, Ticks, Trace, TraceEvent,
};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Proto {
    Ddcr { theta: u64, bursting: bool },
    CsmaCd { seed: u64 },
    Dcr,
    NpEdf,
}

/// (idle fast-forward, busy fast-forward, contention fast-forward,
/// active-set scheduler) switch settings. The reference stepper is
/// `(false, false, false, false)`; the production default is
/// `(true, true, true, true)`; the remaining combinations isolate each
/// optimisation and every interaction between them for bisection.
type Steppers = (bool, bool, bool, bool);

const REFERENCE: Steppers = (false, false, false, false);
const OPTIMIZED: [Steppers; 15] = [
    (true, true, true, true),
    (true, true, true, false),
    (true, true, false, true),
    (true, false, true, true),
    (false, true, true, true),
    (true, true, false, false),
    (true, false, true, false),
    (false, true, true, false),
    (true, false, false, true),
    (false, true, false, true),
    (false, false, true, true),
    (true, false, false, false),
    (false, true, false, false),
    (false, false, true, false),
    (false, false, false, true),
];

fn build_engine(proto: Proto, z: u32, medium: MediumConfig, steppers: Steppers) -> Engine {
    let mut engine = Engine::new(medium).unwrap();
    engine.set_fast_forward(steppers.0);
    engine.set_busy_fast_forward(steppers.1);
    engine.set_contention_fast_forward(steppers.2);
    engine.set_active_set(steppers.3);
    engine.set_trace(Trace::enabled());
    match proto {
        Proto::Ddcr { theta, bursting } => {
            let config = ddcr_config(z, theta, bursting);
            let allocation =
                StaticAllocation::one_per_source(config.static_tree, z).unwrap();
            for i in 0..z {
                engine.add_station(Box::new(
                    DdcrStation::new(
                        SourceId(i),
                        config,
                        allocation.clone(),
                        medium.overhead_bits,
                    )
                    .unwrap(),
                ));
            }
        }
        Proto::CsmaCd { seed } => {
            for i in 0..z {
                engine.add_station(Box::new(CsmaCdStation::new(
                    SourceId(i),
                    medium,
                    QueueDiscipline::Fifo,
                    seed,
                )));
            }
        }
        Proto::Dcr => {
            for i in 0..z {
                engine.add_station(Box::new(
                    DcrStation::new(SourceId(i), z, medium, QueueDiscipline::Fifo).unwrap(),
                ));
            }
        }
        Proto::NpEdf => {
            engine.add_station(Box::new(NpEdfOracle::new(medium)));
        }
    }
    engine
}

fn ddcr_config(z: u32, theta: u64, bursting: bool) -> DdcrConfig {
    let config = DdcrConfig::for_sources(z, Ticks(100_000))
        .unwrap()
        .with_compressed_time(theta);
    if bursting {
        config.with_bursting(BurstConfig {
            max_extra_bits: 16_384,
        })
    } else {
        config
    }
}

/// Turns metrics on — with the analytic ξ allowances for DDCR, so windows
/// are really checked — the way `ddcr run` does.
fn enable_metrics(engine: &mut Engine, proto: Proto, z: u32) {
    match proto {
        Proto::Ddcr { theta, bursting } => {
            let (time, static_) =
                ddcr_core::network::xi_bound_tables(&ddcr_config(z, theta, bursting)).unwrap();
            engine.set_xi_bounds(time, static_);
        }
        _ => {
            engine.enable_metrics();
        }
    }
}

/// The [`SimMetrics`] fields the end-to-end benchmark's digest folds.
#[derive(Debug, Clone, PartialEq)]
struct MetricsDigest {
    violations_total: u64,
    sts_checked: u64,
    max_tts_overhead: u64,
    max_sts_overhead: u64,
    joins: u64,
    leaves: u64,
    /// Per station: transmitted, collisions seen, garbled, queue high water.
    stations: Vec<(u64, u64, u64, usize)>,
}

impl MetricsDigest {
    fn of(m: &SimMetrics) -> Self {
        MetricsDigest {
            violations_total: m.violations_total,
            sts_checked: m.sts_checked,
            max_tts_overhead: m.max_tts_overhead,
            max_sts_overhead: m.max_sts_overhead,
            joins: m.joins,
            leaves: m.leaves,
            stations: m
                .stations()
                .iter()
                .map(|s| {
                    (
                        s.transmitted,
                        s.collisions_seen,
                        s.garbled,
                        s.queue_high_water,
                    )
                })
                .collect(),
        }
    }
}

/// Everything observable about one run, for exact comparison.
#[derive(Debug, PartialEq)]
struct RunDigest {
    outcome: Option<Result<(), SimError>>,
    now: Ticks,
    events: Vec<TraceEvent>,
    stats: ddcr_sim::ChannelStats,
}

fn run_once(
    proto: Proto,
    z: u32,
    medium: MediumConfig,
    arrivals: &[Message],
    to_completion: bool,
    steppers: Steppers,
) -> RunDigest {
    run_with_plan(proto, z, medium, arrivals, to_completion, steppers, None)
}

fn run_with_plan(
    proto: Proto,
    z: u32,
    medium: MediumConfig,
    arrivals: &[Message],
    to_completion: bool,
    steppers: Steppers,
    plan: Option<FaultPlan>,
) -> RunDigest {
    let mut engine = build_engine(proto, z, medium, steppers);
    if let Some(plan) = plan {
        engine.set_fault_plan(plan);
    }
    engine.add_arrivals(arrivals.iter().copied()).unwrap();
    let outcome = if to_completion {
        Some(engine.run_to_completion(Ticks(60_000_000)))
    } else {
        engine.run_until(Ticks(20_000_000));
        None
    };
    RunDigest {
        outcome,
        now: engine.now(),
        events: engine.trace().events().to_vec(),
        stats: engine.into_stats(),
    }
}

fn pick_proto(pick: usize) -> Proto {
    match pick {
        0 => Proto::Ddcr {
            theta: 0,
            bursting: false,
        },
        1 => Proto::Ddcr {
            theta: 2,
            bursting: false,
        },
        2 => Proto::Ddcr {
            theta: 0,
            bursting: true,
        },
        3 => Proto::CsmaCd { seed: 7 },
        4 => Proto::Dcr,
        _ => Proto::NpEdf,
    }
}

fn make_arrivals(raw: &[(u32, u64, u64)], z: u32, bits: u64) -> Vec<Message> {
    let mut at = 0u64;
    raw.iter()
        .enumerate()
        .map(|(i, &(source, gap, deadline))| {
            at += gap;
            Message {
                id: MessageId(i as u64),
                source: SourceId(source % z),
                class: ClassId(0),
                bits,
                arrival: Ticks(at),
                deadline: Ticks(deadline),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The central equivalence property: same protocol, same workload, same
    /// medium ⇒ every optimized stepper configuration and the reference
    /// stepper agree on every observable (trace event list, statistics
    /// including per-delivery completion times, final clock, timeout
    /// outcome).
    #[test]
    fn optimized_engine_matches_reference(
        z in 2u32..6,
        // (source, inter-arrival gap, deadline) triples; the gaps create
        // the idle stretches the idle fast-forward path exists for.
        raw in prop::collection::vec(
            (0u32..8, 0u64..600_000, 300_000u64..9_000_000),
            0..20,
        ),
        proto_pick in 0usize..6,
        arbitrating in any::<bool>(),
        to_completion in any::<bool>(),
    ) {
        let proto = pick_proto(proto_pick);
        let z = if matches!(proto, Proto::NpEdf) { 1 } else { z };
        let mut medium = MediumConfig::ethernet();
        medium.collision_mode = if arbitrating {
            CollisionMode::Arbitrating
        } else {
            CollisionMode::Destructive
        };
        let arrivals = make_arrivals(&raw, z, 4_000);
        let reference = run_once(proto, z, medium, &arrivals, to_completion, REFERENCE);
        for steppers in OPTIMIZED {
            let fast = run_once(proto, z, medium, &arrivals, to_completion, steppers);
            prop_assert_eq!(&fast, &reference, "steppers={:?}", steppers);
        }
    }

    /// The loaded-regime counterpart: tight inter-arrival gaps (well under
    /// one frame duration) force arrivals to land mid-transmission, so the
    /// busy fast-forward path constantly starts, caps, and resumes runs.
    /// Every stepper configuration must still agree bitwise.
    #[test]
    fn loaded_regime_matches_reference(
        z in 2u32..6,
        // Gaps of 0..3_000 ticks against ~1_200-tick frames: most arrivals
        // land while a transmission or committed hold is in flight.
        raw in prop::collection::vec(
            (0u32..8, 0u64..3_000, 300_000u64..9_000_000),
            1..32,
        ),
        proto_pick in 0usize..6,
        arbitrating in any::<bool>(),
        to_completion in any::<bool>(),
    ) {
        let proto = pick_proto(proto_pick);
        let z = if matches!(proto, Proto::NpEdf) { 1 } else { z };
        let mut medium = MediumConfig::ethernet();
        medium.collision_mode = if arbitrating {
            CollisionMode::Arbitrating
        } else {
            CollisionMode::Destructive
        };
        let arrivals = make_arrivals(&raw, z, 1_000);
        let reference = run_once(proto, z, medium, &arrivals, to_completion, REFERENCE);
        for steppers in OPTIMIZED {
            let fast = run_once(proto, z, medium, &arrivals, to_completion, steppers);
            prop_assert_eq!(&fast, &reference, "steppers={:?}", steppers);
        }
    }

    /// Faults that strike while a busy run would be in flight: the engine
    /// must fence every committed run at the next scheduled fault ordinal,
    /// so corrupted slots, erased frames, and crash/restart transitions
    /// land on exactly the same decision slots as under the reference
    /// stepper.
    #[test]
    fn faults_mid_transmission_match_reference(
        z in 2u32..6,
        raw in prop::collection::vec(
            (0u32..8, 0u64..3_000, 300_000u64..9_000_000),
            1..24,
        ),
        // (slot ordinal, kind pick, station pick, down slots) — low slot
        // ordinals so the faults hit inside the loaded prefix of the run.
        raw_faults in prop::collection::vec(
            (0u64..48, 0usize..3, 0u32..8, 1u64..6),
            1..6,
        ),
        proto_pick in 0usize..6,
        arbitrating in any::<bool>(),
    ) {
        let proto = pick_proto(proto_pick);
        let z = if matches!(proto, Proto::NpEdf) { 1 } else { z };
        let mut medium = MediumConfig::ethernet();
        medium.collision_mode = if arbitrating {
            CollisionMode::Arbitrating
        } else {
            CollisionMode::Destructive
        };
        let arrivals = make_arrivals(&raw, z, 1_000);
        let events: Vec<FaultEvent> = raw_faults
            .iter()
            .map(|&(slot, kind, station, down_slots)| FaultEvent {
                slot,
                kind: match kind {
                    0 => FaultKind::CorruptSlot,
                    1 => FaultKind::EraseFrame,
                    _ => FaultKind::Crash {
                        station: station % z,
                        down_slots,
                    },
                },
            })
            .collect();
        let plan = FaultPlan::from_events(events);
        let reference = run_with_plan(
            proto, z, medium, &arrivals, true, REFERENCE, Some(plan.clone()),
        );
        for steppers in OPTIMIZED {
            let fast = run_with_plan(
                proto, z, medium, &arrivals, true, steppers, Some(plan.clone()),
            );
            prop_assert_eq!(&fast, &reference, "steppers={:?}", steppers);
        }
    }

    /// The fault subsystem is a strict superset: an engine carrying a
    /// zero-fault plan — whether the literal empty plan or one generated
    /// from all-zero rates — is bitwise indistinguishable from an engine
    /// with no plan at all, in both the fully optimized and reference
    /// steppers, for every protocol and collision mode.
    #[test]
    fn zero_fault_plan_is_bitwise_invisible(
        z in 2u32..6,
        raw in prop::collection::vec(
            (0u32..8, 0u64..600_000, 300_000u64..9_000_000),
            0..16,
        ),
        proto_pick in 0usize..6,
        arbitrating in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let proto = pick_proto(proto_pick);
        let z = if matches!(proto, Proto::NpEdf) { 1 } else { z };
        let mut medium = MediumConfig::ethernet();
        medium.collision_mode = if arbitrating {
            CollisionMode::Arbitrating
        } else {
            CollisionMode::Destructive
        };
        let arrivals = make_arrivals(&raw, z, 4_000);
        let generated = FaultPlan::generate(seed, z, 50_000, &FaultRates::default());
        prop_assert!(generated.is_empty(), "zero rates must generate no events");

        let plain = run_once(proto, z, medium, &arrivals, true, (true, true, true, true));
        let empty_fast = run_with_plan(
            proto, z, medium, &arrivals, true, (true, true, true, true), Some(FaultPlan::none()),
        );
        let empty_reference = run_with_plan(
            proto, z, medium, &arrivals, true, REFERENCE, Some(FaultPlan::none()),
        );
        let generated_fast = run_with_plan(
            proto, z, medium, &arrivals, true, (true, true, true, true), Some(generated),
        );
        prop_assert_eq!(&plain, &empty_fast);
        prop_assert_eq!(&plain, &empty_reference);
        prop_assert_eq!(&plain, &generated_fast);
    }
}

/// One run with metrics on under an optional fault and membership plan:
/// the run digest plus the stepper-invariant metrics.
fn run_with_metrics(
    proto: Proto,
    z: u32,
    medium: MediumConfig,
    arrivals: &[Message],
    steppers: Steppers,
    faults: &FaultPlan,
    membership: &MembershipPlan,
) -> (RunDigest, MetricsDigest) {
    let mut engine = build_engine(proto, z, medium, steppers);
    enable_metrics(&mut engine, proto, z);
    engine.set_fault_plan(faults.clone());
    engine.set_membership_plan(membership.clone()).unwrap();
    engine.add_arrivals(arrivals.iter().copied()).unwrap();
    let outcome = engine.run_to_completion(Ticks(60_000_000));
    let metrics = MetricsDigest::of(&engine.take_metrics().expect("metrics enabled"));
    let run = RunDigest {
        outcome: Some(outcome),
        now: engine.now(),
        events: engine.trace().events().to_vec(),
        stats: engine.into_stats(),
    };
    (run, metrics)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Metrics no longer switch the active set off: with metrics on,
    /// parking (the phase witness attributing slots for the parked
    /// stations) must leave the run and the metrics digest exactly as the
    /// same tiers produce them without parking, for all 2³ combinations of
    /// the other tiers, through crashes, leaves and joins that move the
    /// witness; and every configuration must match the reference stepper.
    #[test]
    fn metrics_match_reference_with_the_active_set_on(
        z in 2u32..7,
        raw in prop::collection::vec(
            (0u32..8, 0u64..200_000, 300_000u64..9_000_000),
            1..20,
        ),
        // (slot ordinal, station pick, down slots)
        raw_crashes in prop::collection::vec((0u64..400, 0u32..8, 1u64..40), 0..3),
        // (slot ordinal, station pick, join?)
        raw_membership in prop::collection::vec((0u64..400, 0u32..8, any::<bool>()), 0..4),
        absent in prop::collection::vec(0u32..8, 0..2),
        proto_pick in 0usize..6,
        arbitrating in any::<bool>(),
    ) {
        let proto = pick_proto(proto_pick);
        let z = if matches!(proto, Proto::NpEdf) { 1 } else { z };
        let mut medium = MediumConfig::ethernet();
        medium.collision_mode = if arbitrating {
            CollisionMode::Arbitrating
        } else {
            CollisionMode::Destructive
        };
        let arrivals = make_arrivals(&raw, z, 4_000);
        let faults = FaultPlan::from_events(
            raw_crashes
                .iter()
                .map(|&(slot, station, down_slots)| FaultEvent {
                    slot,
                    kind: FaultKind::Crash {
                        station: station % z,
                        down_slots,
                    },
                })
                .collect(),
        );
        let mut initially_absent: Vec<u32> = absent.iter().map(|s| s % z).collect();
        initially_absent.sort_unstable();
        initially_absent.dedup();
        let membership = MembershipPlan::from_events(
            initially_absent,
            raw_membership
                .iter()
                .map(|&(slot, station, join)| MembershipEvent {
                    slot,
                    change: if join {
                        MembershipChange::Join { station: station % z }
                    } else {
                        MembershipChange::Leave { station: station % z }
                    },
                })
                .collect(),
        );
        let reference = run_with_metrics(
            proto, z, medium, &arrivals, REFERENCE, &faults, &membership,
        );
        for (idle, busy, contention) in [
            (false, false, false),
            (true, false, false),
            (false, true, false),
            (false, false, true),
            (true, true, false),
            (true, false, true),
            (false, true, true),
            (true, true, true),
        ] {
            let run = |active_set: bool| {
                let steppers = (idle, busy, contention, active_set);
                run_with_metrics(proto, z, medium, &arrivals, steppers, &faults, &membership)
            };
            let parked = run(true);
            let tag = format!("idle={idle} busy={busy} contention={contention}");
            prop_assert_eq!(&parked, &run(false), "{}", tag);
            prop_assert_eq!(&parked.0, &reference.0, "{}", tag);
            // The idle tier jumps silent TTs epochs without observing them,
            // so the worst *observed* TTs overhead may fall short of the
            // reference stepper's; every other field must match it.
            let expected = MetricsDigest {
                max_tts_overhead: if idle {
                    parked.1.max_tts_overhead
                } else {
                    reference.1.max_tts_overhead
                },
                ..reference.1.clone()
            };
            prop_assert_eq!(&parked.1, &expected, "{}", tag);
        }
    }
}

/// Idle-heavy deterministic spot check at a production-ish scale: 32 DDCR
/// stations, a handful of widely separated arrivals, a long horizon — the
/// exact shape the perf gate benchmarks — must agree event for event.
#[test]
fn idle_heavy_32_station_network_is_bitwise_equivalent() {
    let medium = MediumConfig::ethernet();
    let arrivals: Vec<Message> = (0..6u64)
        .map(|i| Message {
            id: MessageId(i),
            source: SourceId((i * 5 % 32) as u32),
            class: ClassId(0),
            bits: 8_000,
            arrival: Ticks(i * 7_000_000),
            deadline: Ticks(2_000_000),
        })
        .collect();
    for theta in [0u64, 2] {
        let proto = Proto::Ddcr {
            theta,
            bursting: false,
        };
        let fast = run_once(proto, 32, medium, &arrivals, false, (true, true, true, true));
        let reference = run_once(proto, 32, medium, &arrivals, false, REFERENCE);
        assert_eq!(fast, reference, "theta={theta}");
        // The run really was idle-dominated — the fast path had work to do.
        assert!(fast.stats.silence_slots > 10_000);
    }
}

/// Loaded deterministic spot check at the perf-gate shape: 32 bursting DDCR
/// stations draining clustered small messages. Verifies both that every
/// stepper configuration agrees bitwise *and* that the busy fast-forward
/// path genuinely engaged (the equivalence would be vacuous otherwise).
#[test]
fn loaded_32_station_burst_network_is_bitwise_equivalent() {
    let medium = MediumConfig::ethernet();
    let arrivals: Vec<Message> = (0..48u64)
        .map(|i| Message {
            id: MessageId(i),
            source: SourceId((i % 8) as u32),
            class: ClassId(0),
            bits: 1_000,
            arrival: Ticks((i / 8) * 40_000),
            deadline: Ticks(8_000_000),
        })
        .collect();
    let proto = Proto::Ddcr {
        theta: 0,
        bursting: true,
    };
    let reference = run_once(proto, 32, medium, &arrivals, true, REFERENCE);
    assert_eq!(reference.stats.deliveries.len(), 48);
    for steppers in OPTIMIZED {
        let fast = run_once(proto, 32, medium, &arrivals, true, steppers);
        assert_eq!(fast, reference, "steppers={steppers:?}");
    }

    // Busy-skip really fired: rerun the default configuration with metrics
    // on and check the telemetry counters.
    let mut engine = build_engine(proto, 32, medium, (true, true, true, true));
    engine.enable_metrics();
    engine.add_arrivals(arrivals.iter().copied()).unwrap();
    engine.run_to_completion(Ticks(60_000_000)).unwrap();
    let metrics = engine.metrics().expect("metrics enabled");
    assert!(
        metrics.busy_skip_runs > 0,
        "busy fast-forward never engaged on a loaded burst workload"
    );
    assert!(metrics.busy_skipped_slots >= metrics.busy_skip_runs);
}

/// Contention-heavy deterministic spot check: a few sources launch
/// same-class clusters into a 32-station network, so whole tree searches
/// (TTs leaf collisions, nested STs) run while 29 stations sit quiet — the
/// shape the contention tiers exist for. Every stepper configuration must
/// agree bitwise. With metrics on, the active set must keep the contended
/// slots O(contenders) — 29 stations stay parked while the phase witness
/// attributes every slot — and on the destructive medium the analytic
/// attempt-cycle tier must fire.
#[test]
fn contention_heavy_32_station_network_is_bitwise_equivalent() {
    let medium = MediumConfig::ethernet();
    // Three sources, clustered same-deadline arrivals: every cluster forces
    // a time-tree leaf collision and a static-tree tie-break.
    let arrivals: Vec<Message> = (0..24u64)
        .map(|i| Message {
            id: MessageId(i),
            source: SourceId((i % 3) as u32),
            class: ClassId(0),
            bits: 4_000,
            arrival: Ticks((i / 3) * 600_000),
            deadline: Ticks(8_000_000),
        })
        .collect();
    for arbitrating in [false, true] {
        let mut medium = medium;
        medium.collision_mode = if arbitrating {
            CollisionMode::Arbitrating
        } else {
            CollisionMode::Destructive
        };
        let proto = Proto::Ddcr {
            theta: 0,
            bursting: false,
        };
        let reference = run_once(proto, 32, medium, &arrivals, true, REFERENCE);
        assert_eq!(reference.stats.deliveries.len(), 24);
        for steppers in OPTIMIZED {
            let fast = run_once(proto, 32, medium, &arrivals, true, steppers);
            assert_eq!(fast, reference, "arbitrating={arbitrating} steppers={steppers:?}");
        }

        // The fast paths really fired: rerun the default configuration with
        // metrics on.
        let mut engine = build_engine(proto, 32, medium, (true, true, true, true));
        engine.enable_metrics();
        engine.add_arrivals(arrivals.iter().copied()).unwrap();
        engine.run_to_completion(Ticks(60_000_000)).unwrap();
        let station_slots = engine.slot_ordinal() * 32;
        let polls = engine.poll_count();
        assert!(
            polls < station_slots / 10,
            "polled {polls} of {station_slots} station-slots (arbitrating={arbitrating})"
        );
        let metrics = engine.metrics().expect("metrics enabled");
        // The analytic tier only resolves destructive attempt collisions (an
        // arbitrating medium delivers a survivor, which changes the cycle).
        assert_eq!(
            metrics.search_skip_runs > 0,
            !arbitrating,
            "attempt-cycle tier engagement (arbitrating={arbitrating})"
        );
        assert!(metrics.search_skipped_slots >= metrics.search_skip_runs);
    }
}

/// Saturated deterministic spot check — the *loaded idle cycle* regime the
/// analytic attempt-cycle path exists for: all 32 stations backlogged with
/// far deadlines, so every one sits the time tree search out and collides
/// at the attempt slot, cycle after cycle, until `reft` catches up with
/// the heads' deadline classes. Every stepper configuration must agree
/// bitwise, the run must actually be collision-dominated, and the
/// search-skip telemetry must show the analytic path resolved the bulk of
/// those slots in one step.
#[test]
fn saturated_32_station_attempt_cycles_are_bitwise_equivalent() {
    let medium = MediumConfig::ethernet();
    // Two far-deadline messages per station, all present from t = 0: the
    // whole network contends at every attempt slot, nobody enters the
    // tree until thousands of collided cycles advance `reft`.
    let arrivals: Vec<Message> = (0..64u64)
        .map(|i| Message {
            id: MessageId(i),
            source: SourceId((i % 32) as u32),
            class: ClassId(0),
            bits: 1_000,
            arrival: Ticks::ZERO,
            deadline: Ticks(30_000_000 + (i / 32) * 4_000_000),
        })
        .collect();
    let proto = Proto::Ddcr {
        theta: 0,
        bursting: false,
    };
    let reference = run_once(proto, 32, medium, &arrivals, true, REFERENCE);
    assert_eq!(reference.stats.deliveries.len(), 64);
    // The regime is real: collided attempt cycles dominate the run.
    assert!(
        reference.stats.collisions > 1_000,
        "expected a collision-dominated run, got {}",
        reference.stats.collisions
    );
    for steppers in OPTIMIZED {
        let fast = run_once(proto, 32, medium, &arrivals, true, steppers);
        assert_eq!(fast, reference, "steppers={steppers:?}");
    }

    // The analytic path really carried the load: rerun the default
    // configuration with metrics on and check that the overwhelming
    // majority of decision slots were resolved through the contention
    // tier's bulk skip rather than stepped.
    let mut engine = build_engine(proto, 32, medium, (true, true, true, true));
    engine.enable_metrics();
    engine.add_arrivals(arrivals.iter().copied()).unwrap();
    engine.run_to_completion(Ticks(60_000_000)).unwrap();
    let metrics = engine.metrics().expect("metrics enabled");
    let total_slots = reference.stats.silence_slots
        + reference.stats.collisions
        + reference.stats.deliveries.len() as u64;
    assert!(
        metrics.search_skipped_slots > total_slots / 2,
        "analytic attempt-cycle path resolved {} of {} slots",
        metrics.search_skipped_slots,
        total_slots
    );
}

/// Large-n sparse spot check — the regime the active-set scheduler exists
/// for: 1024 DDCR stations of which only 16 ever hold a message, so at any
/// decision slot the overwhelming majority of the population is dormant.
/// The active tier must resolve the run bitwise-equal to the reference
/// stepper while polling fewer than 10% of station-slots (station-slots =
/// decision slots × population; the reference pays all of them).
#[test]
fn sparse_1024_station_network_polls_under_ten_percent() {
    const Z: u32 = 1024;
    let medium = MediumConfig::ethernet();
    let proto = Proto::Ddcr {
        theta: 0,
        bursting: false,
    };
    // 16 contenders spread across the static tree, arrivals staggered so
    // the run mixes idle stretches, tree searches, and busy slots.
    let arrivals: Vec<Message> = (0..16u64)
        .map(|i| Message {
            id: MessageId(i),
            source: SourceId((i * 61 % u64::from(Z)) as u32),
            class: ClassId(0),
            bits: 4_000,
            arrival: Ticks(i * 120_000),
            deadline: Ticks(30_000_000),
        })
        .collect();

    let digest = |mut engine: Engine| {
        engine.add_arrivals(arrivals.iter().copied()).unwrap();
        let outcome = engine.run_to_completion(Ticks(60_000_000));
        let polls = engine.poll_count();
        let replays = engine.replay_count();
        let slots = engine.slot_ordinal();
        let run = RunDigest {
            outcome: Some(outcome),
            now: engine.now(),
            events: engine.trace().events().to_vec(),
            stats: engine.into_stats(),
        };
        (run, polls, replays, slots)
    };

    let (active, active_polls, active_replays, slots) =
        digest(build_engine(proto, Z, medium, (true, true, true, true)));
    let (reference, reference_polls, _, _) = digest(build_engine(proto, Z, medium, REFERENCE));

    assert_eq!(active, reference);
    assert_eq!(active.stats.deliveries.len(), 16);

    let station_slots = slots * u64::from(Z);
    assert!(
        active_polls < station_slots / 10,
        "active tier polled {active_polls} of {station_slots} station-slots"
    );
    // Wake-time catch-up must ride the epoch-anchored shortcut, not degrade
    // into replaying the whole deferred log for every waking station: the
    // total entries replayed must stay well under one-log-per-station.
    assert!(
        active_replays < station_slots / 10,
        "active tier replayed {active_replays} catch-up entries \
         over {station_slots} station-slots"
    );
    // The comparison is meaningful: the reference really pays O(n) per slot.
    assert!(reference_polls >= station_slots);
}

/// The sparse-1024 shape with metrics on, as `ddcr run` always runs: the
/// active set must still engage — polls under 10% of station-slots, parked
/// stations caught up from the log — while the phase witness keeps every
/// stepper-invariant metric equal to the reference stepper's.
#[test]
fn sparse_1024_station_network_with_metrics_keeps_the_active_set() {
    const Z: u32 = 1024;
    let medium = MediumConfig::ethernet();
    let proto = Proto::Ddcr {
        theta: 0,
        bursting: false,
    };
    let arrivals: Vec<Message> = (0..16u64)
        .map(|i| Message {
            id: MessageId(i),
            source: SourceId((i * 61 % u64::from(Z)) as u32),
            class: ClassId(0),
            bits: 4_000,
            arrival: Ticks(i * 120_000),
            deadline: Ticks(30_000_000),
        })
        .collect();

    let run = |steppers: Steppers| {
        let mut engine = build_engine(proto, Z, medium, steppers);
        enable_metrics(&mut engine, proto, Z);
        engine.add_arrivals(arrivals.iter().copied()).unwrap();
        let outcome = engine.run_to_completion(Ticks(60_000_000));
        let (polls, replays, slots) = (
            engine.poll_count(),
            engine.replay_count(),
            engine.slot_ordinal(),
        );
        let metrics = engine.take_metrics().expect("metrics enabled");
        let run = RunDigest {
            outcome: Some(outcome),
            now: engine.now(),
            events: engine.trace().events().to_vec(),
            stats: engine.into_stats(),
        };
        (run, metrics, polls, replays, slots)
    };
    let (active, active_metrics, polls, replays, slots) = run((true, true, true, true));
    let (reference, reference_metrics, _, _, _) = run(REFERENCE);

    assert_eq!(active, reference);
    assert_eq!(
        MetricsDigest::of(&active_metrics),
        MetricsDigest::of(&reference_metrics)
    );
    assert_eq!(active.stats.deliveries.len(), 16);
    // The witness attributed slots: TTs epochs were closed and checked.
    assert!(active_metrics.epochs_checked > 0);
    let station_slots = slots * u64::from(Z);
    assert!(
        polls < station_slots / 10,
        "active tier polled {polls} of {station_slots} station-slots with metrics on"
    );
    assert!(replays > 0, "no parked station was ever caught up");
}
