//! Property-based tests of the dynamic membership layer: random
//! join/leave/admit interleavings must preserve the leaf-partition
//! invariants and never let an admission push an incumbent flow past its
//! deadline — the governing invariant of the `ddcr serve` admission
//! contract — and the incremental admission path must decide exactly as
//! a full re-evaluation of the candidate set does.

use ddcr_core::feasibility::{self, ClassFeasibility};
use ddcr_core::{AdmissionDecision, DdcrConfig, DdcrError, FlowRequest, Membership};
use ddcr_sim::{ClassId, MediumConfig, SourceId, Ticks};
use ddcr_traffic::{DensityBound, MessageClass, MessageSet};
use proptest::prelude::*;

/// One scripted operation against the fabric.
#[derive(Debug, Clone)]
enum Op {
    Join(u32),
    Leave(u32),
    Admit(u32),
}

fn op_strategy(z: u32) -> impl Strategy<Value = Op> {
    (0u32..3, 0..z).prop_map(|(kind, station)| match kind {
        0 => Op::Join(station),
        1 => Op::Leave(station),
        _ => Op::Admit(station),
    })
}

fn fabric(z: u32, join_nu: u64) -> Membership {
    let config = DdcrConfig::for_sources(z, Ticks(100_000)).unwrap();
    Membership::new(config, MediumConfig::ethernet(), z, join_nu).unwrap()
}

fn modest_flow(station: u32, n: usize) -> FlowRequest {
    FlowRequest {
        source: SourceId(station),
        name: format!("f{n}"),
        bits: 4_000,
        deadline: Ticks(50_000_000),
        arrivals: 1,
        window: Ticks(10_000_000),
    }
}

/// Replays a script; invalid operations (double join, absent leave,
/// admit-before-join, pool exhaustion) must surface as typed errors, never
/// panics, and leave the state untouched.
fn run_script(m: &mut Membership, ops: &[Op]) {
    for (n, op) in ops.iter().enumerate() {
        match *op {
            Op::Join(s) => {
                let _ = m.join(SourceId(s));
            }
            Op::Leave(s) => {
                let _ = m.leave(SourceId(s));
            }
            Op::Admit(s) => {
                let _ = m.admit(&modest_flow(s, n));
            }
        }
    }
}

/// The partition invariants the engine's correctness rests on.
fn assert_partition_invariants(m: &Membership, z: u32) {
    let allocation = m.allocation();
    let total = allocation.leaves();
    // Every leaf is owned by at most one station, and the ownership map is
    // consistent with each station's own index list.
    let mut owned = 0u64;
    for s in 0..z {
        let source = SourceId(s);
        let indices = allocation.indices_of(source);
        assert_eq!(indices.len() as u64, allocation.nu(source));
        owned += indices.len() as u64;
        for &leaf in indices {
            assert_eq!(
                allocation.owner_of(leaf),
                Some(source),
                "leaf {leaf} owner map inconsistent with indices_of({s})"
            );
        }
        // Absent stations hold no leaves (a leave reclaims everything).
        if !m.is_present(source) {
            assert_eq!(allocation.nu(source), 0, "absent station {s} holds leaves");
        }
    }
    // Owned + free partitions the leaf set exactly.
    let free = allocation.free_leaves();
    assert_eq!(owned + free.len() as u64, total, "leaves leaked or invented");
    for &leaf in &free {
        assert_eq!(allocation.owner_of(leaf), None, "free leaf {leaf} has an owner");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary join/leave/admit interleavings preserve the partition
    /// invariants and the admission safety invariant (the admitted set
    /// stays feasible — no deadline can be missed analytically).
    #[test]
    fn random_churn_preserves_partition_and_admission_invariants(
        z in 2u32..6,
        join_nu in 1u64..3,
        ops in prop::collection::vec(op_strategy(5), 1..40),
    ) {
        let ops: Vec<Op> = ops
            .into_iter()
            .map(|op| match op {
                Op::Join(s) => Op::Join(s % z),
                Op::Leave(s) => Op::Leave(s % z),
                Op::Admit(s) => Op::Admit(s % z),
            })
            .collect();
        let mut m = fabric(z, join_nu);
        run_script(&mut m, &ops);
        assert_partition_invariants(&m, z);
        // No force_admit in the script, so the invariant checker must pass:
        // admitted sources present and seated, admitted set feasible.
        m.check_invariants().unwrap();
        prop_assert_eq!(m.safety_violations(), 0);
    }

    /// The same script always produces the same fabric: partition, admitted
    /// set, and member set are all deterministic functions of the ops.
    #[test]
    fn membership_is_deterministic(
        z in 2u32..5,
        ops in prop::collection::vec(op_strategy(4), 1..30),
    ) {
        let ops: Vec<Op> = ops
            .into_iter()
            .map(|op| match op {
                Op::Join(s) => Op::Join(s % z),
                Op::Leave(s) => Op::Leave(s % z),
                Op::Admit(s) => Op::Admit(s % z),
            })
            .collect();
        let mut a = fabric(z, 1);
        let mut b = fabric(z, 1);
        run_script(&mut a, &ops);
        run_script(&mut b, &ops);
        for s in 0..z {
            prop_assert_eq!(
                a.allocation().indices_of(SourceId(s)),
                b.allocation().indices_of(SourceId(s))
            );
            prop_assert_eq!(a.is_present(SourceId(s)), b.is_present(SourceId(s)));
        }
        prop_assert_eq!(a.admitted(), b.admitted());
    }

    /// Admission monotonicity: an admitted incumbent stays feasible no
    /// matter what later applicants ask for — rejections really protect it.
    #[test]
    fn incumbents_survive_any_applicant(
        bits in 1_000u64..64_000,
        deadline in 200_000u64..2_000_000,
        arrivals in 1u64..200,
        window in 100_000u64..1_000_000,
    ) {
        let mut m = fabric(3, 1);
        m.join(SourceId(0)).unwrap();
        m.join(SourceId(1)).unwrap();
        let d = m.admit(&modest_flow(0, 0)).unwrap();
        prop_assert!(matches!(d, AdmissionDecision::Admitted { .. }));
        let applicant = FlowRequest {
            source: SourceId(1),
            name: "applicant".into(),
            bits,
            deadline: Ticks(deadline),
            arrivals,
            window: Ticks(window),
        };
        let _ = m.admit(&applicant).unwrap();
        // Whatever the verdict, the whole admitted set is still feasible.
        m.check_invariants().unwrap();
        let report = m.evaluate().unwrap();
        prop_assert!(report.feasible());
    }
}

// ---------------------------------------------------------------------
// Oracle: the incremental admission path against a full re-evaluation.
// ---------------------------------------------------------------------

/// One request of a random session.
#[derive(Debug, Clone)]
enum Request {
    Join(u32),
    Leave(u32),
    Flow(u32, Shape),
    Force(u32, Shape),
    Multichannel(u32, Shape, usize),
}

/// A flow shape: `(bits, deadline, arrivals, window)`.
type Shape = (u64, u64, u64, u64);

/// Mostly light flows that get in, with dense ones that push the set to
/// rejection, hogs, flows whose terms overflow 64 bits, and malformed
/// ones (zero bits or zero arrivals). `prop_oneof!` picks an arm
/// uniformly, so the light arm is listed three times.
fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (
            1_000u64..16_000,
            1_000_000u64..50_000_000,
            1u64..3,
            1_000_000u64..10_000_000
        ),
        (
            1_000u64..16_000,
            1_000_000u64..50_000_000,
            1u64..3,
            1_000_000u64..10_000_000
        ),
        (
            1_000u64..16_000,
            1_000_000u64..50_000_000,
            1u64..3,
            1_000_000u64..10_000_000
        ),
        (
            1_000u64..64_000,
            200_000u64..5_000_000,
            1u64..200,
            100_000u64..1_000_000
        ),
        Just((8_000u64, 500_000u64, 1_000u64, 100_000u64)),
        (
            1u64..10_000,
            1_000_000u64..8_000_000,
            (1u64 << 60)..u64::MAX,
            1u64..2_000_000
        ),
        (
            0u64..2,
            1_000_000u64..5_000_000,
            0u64..2,
            1_000_000u64..2_000_000
        ),
    ]
}

fn request_strategy(z: u32) -> impl Strategy<Value = Request> {
    (0u32..10, 0..z, shape_strategy(), 2usize..4).prop_map(
        |(kind, s, shape, channels)| match kind {
            0..=2 => Request::Join(s),
            3 => Request::Leave(s),
            4 => Request::Force(s, shape),
            5 => Request::Multichannel(s, shape, channels),
            _ => Request::Flow(s, shape),
        },
    )
}

/// Flows go mostly to present stations: the `s`-th present one, or
/// station `s` itself (often absent) one time in eight.
fn flow_station(m: &Membership, s: u32, z: u32) -> u32 {
    let present: Vec<u32> = (0..z).filter(|&p| m.is_present(SourceId(p))).collect();
    if present.is_empty() || s % 8 == 7 {
        s % z
    } else {
        present[s as usize % present.len()]
    }
}

fn flow_of(station: u32, (bits, deadline, arrivals, window): Shape, n: usize) -> FlowRequest {
    FlowRequest {
        source: SourceId(station),
        name: format!("f{n}"),
        bits,
        deadline: Ticks(deadline),
        arrivals,
        window: Ticks(window),
    }
}

/// The decision the full re-evaluation gives: `feasibility::evaluate`
/// over `admitted() + candidate`, binding class by `tightest()`. `None`
/// when the request is malformed and must fail before any evaluation.
fn oracle(
    m: &Membership,
    flow: &FlowRequest,
    id: u32,
    z: u32,
    config: &DdcrConfig,
    medium: &MediumConfig,
) -> Option<Result<AdmissionDecision, DdcrError>> {
    if !m.is_present(flow.source) || flow.bits == 0 {
        return None;
    }
    let density = DensityBound::new(flow.arrivals, flow.window).ok()?;
    let candidate = MessageClass {
        id: ClassId(id),
        name: flow.name.clone(),
        source: flow.source,
        bits: flow.bits,
        deadline: flow.deadline,
        density,
    };
    let mut classes = m.admitted().to_vec();
    classes.push(candidate);
    let set = MessageSet::new(z, classes).expect("valid candidate set");
    Some(
        feasibility::evaluate(&set, config, m.allocation(), medium).map(|report| {
            let tightest = report.tightest().cloned().expect("candidate is in the set");
            if report.feasible() {
                let own = report.per_class.last().expect("candidate is last").bound;
                AdmissionDecision::Admitted {
                    class: ClassId(id),
                    bound: own,
                    slack: tightest.slack(),
                }
            } else {
                AdmissionDecision::Rejected { binding: tightest }
            }
        }),
    )
}

/// The state a rejected or failed request must leave untouched.
fn snapshot(m: &Membership) -> String {
    format!(
        "{:?} {:?} {:?} {} {} {}",
        m.admitted(),
        m.class_sums(),
        m.allocation(),
        m.present_count(),
        m.free_leaf_count(),
        m.safety_violations()
    )
}

fn f64_fields(c: &ClassFeasibility) -> [u64; 4] {
    [
        c.s1_slots.to_bits(),
        c.s2_slots.to_bits(),
        c.search_slots.to_bits(),
        c.bound.to_bits(),
    ]
}

/// The kept sums, finished, reproduce the full re-evaluation class by
/// class, f64 fields bit for bit; the free pool and present counter
/// match the partition they summarise. `single_medium` says whether every
/// flow went through the single-medium predicate; a multichannel admission
/// is only feasible per channel, so it may leave the single-medium check
/// failing.
fn assert_kept_state(
    m: &Membership,
    z: u32,
    config: &DdcrConfig,
    medium: &MediumConfig,
    single_medium: bool,
) {
    assert_eq!(m.class_sums().len(), m.admitted().len());
    let report = m.evaluate().expect("admitted set evaluates");
    let pairs = m.admitted().iter().zip(m.class_sums());
    for ((class, sums), full) in pairs.zip(&report.per_class) {
        let kept = feasibility::finish(class, *sums, config, m.allocation(), medium)
            .expect("kept sums finish");
        assert_eq!(format!("{kept:?}"), format!("{full:?}"));
        assert_eq!(f64_fields(&kept), f64_fields(full));
    }
    let present = (0..z).filter(|&s| m.is_present(SourceId(s))).count();
    assert_eq!(m.present_count(), present);
    assert_eq!(
        m.free_leaf_count(),
        m.allocation().free_leaves().len() as u64
    );
    if single_medium && m.safety_violations() == 0 {
        m.check_invariants().unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random sessions of joins, leaves, flows, forced flows and
    /// multichannel flows on random fabrics: every incremental decision is
    /// `Debug`-identical to the full re-evaluation's, a rejected or failed
    /// request changes nothing, joins take the lowest free leaves, and the
    /// kept sums track the admitted set after every step.
    #[test]
    fn incremental_admission_matches_full_reevaluation(
        z in 2u32..12,
        join_nu in 1u64..4,
        class_width in prop_oneof![Just(50_000u64), Just(100_000u64)],
        session in prop::collection::vec(request_strategy(12), 1..80),
    ) {
        let config = DdcrConfig::for_sources(z, Ticks(class_width)).unwrap();
        let medium = MediumConfig::ethernet();
        let mut m = Membership::new(config, medium, z, join_nu).unwrap();
        let mut next_id = 0u32;
        let mut single_medium = true;
        for (n, request) in session.into_iter().enumerate() {
            let before = snapshot(&m);
            match request {
                Request::Join(s) => {
                    let free = m.allocation().free_leaves();
                    match m.join(SourceId(s % z)) {
                        Ok(receipt) => {
                            let take = free.len().min(join_nu as usize);
                            prop_assert_eq!(&receipt.leaves[..], &free[..take]);
                        }
                        Err(_) => prop_assert_eq!(snapshot(&m), before),
                    }
                }
                Request::Leave(s) => {
                    if m.leave(SourceId(s % z)).is_err() {
                        prop_assert_eq!(snapshot(&m), before);
                    }
                }
                Request::Flow(s, shape) | Request::Force(s, shape) => {
                    let forced = matches!(request, Request::Force(..));
                    let flow = flow_of(flow_station(&m, s, z), shape, n);
                    let expected = oracle(&m, &flow, next_id, z, &config, &medium);
                    let got = if forced { m.force_admit(&flow) } else { m.admit(&flow) };
                    match expected {
                        None => prop_assert!(got.is_err(), "{got:?}"),
                        Some(expected) => {
                            prop_assert_eq!(format!("{got:?}"), format!("{expected:?}"));
                        }
                    }
                    let committed = match &got {
                        Ok(AdmissionDecision::Admitted { .. }) => true,
                        Ok(_) => forced,
                        Err(_) => false,
                    };
                    if committed {
                        next_id += 1;
                    } else {
                        prop_assert_eq!(snapshot(&m), before);
                    }
                }
                Request::Multichannel(s, shape, channels) => {
                    let flow = flow_of(flow_station(&m, s, z), shape, n);
                    match m.admit_multichannel(&flow, channels) {
                        Ok((AdmissionDecision::Admitted { .. }, _)) => {
                            next_id += 1;
                            single_medium = false;
                        }
                        _ => prop_assert_eq!(snapshot(&m), before),
                    }
                }
            }
            assert_partition_invariants(&m, z);
            assert_kept_state(&m, z, &config, &medium, single_medium);
        }
    }
}
