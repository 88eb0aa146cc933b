//! Feasibility conditions for HRTDM under CSMA/DDCR (§4.3).
//!
//! For every message class `M` of source `s_i` the paper derives, assuming
//! peak-load conditions (every class arriving at its full density `a/w`):
//!
//! ```text
//! r(M) = Σ_{m ∈ MSG_i} ⌈d(M)/w(m)⌉·a(m) − 1          (local rank bound)
//! u(M) = Σ_{m ∈ MSG}  ⌈(d(M)+d(m)−l'(M)/ψ)/w(m)⌉·a(m) (global interference)
//! v(M) = 1 + ⌊r(M)/ν_i⌋                               (static trees needed)
//!
//! B_DDCR(s_i, M) = Σ_{m ∈ MSG} ⌈…⌉·a(m)·l'(m)/ψ       (transmission time)
//!                + x·( v·ξ̃^q_{u/v}                    (S1: static searches)
//!                    + ⌈v/2⌉·ξ^F_2 )                   (S2: time tree slots)
//! ```
//!
//! and the instance is feasible iff `B_DDCR(s_i, M) ≤ d(M)` for every class.
//! The `S1` term applies the solution to problem P2 (Eq. 18–19); `S2` uses
//! Eq. (5) with the worst-case assignment of two active leaves per time
//! tree. Throughput is normalised to `ψ = 1 bit/tick`.

use crate::config::DdcrConfig;
use crate::error::DdcrError;
use crate::indices::StaticAllocation;
use ddcr_sim::{ClassId, MediumConfig, SourceId, Ticks};
use ddcr_traffic::{MessageClass, MessageSet};
use ddcr_tree::{closed_form, multi::MultiTreeProblem};
use serde::{Deserialize, Serialize};

/// Feasibility verdict and worst-case latency bound for one message class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassFeasibility {
    /// The class `M`.
    pub class: ClassId,
    /// Its source `s_i`.
    pub source: SourceId,
    /// Rank bound `r(M)`.
    pub r: u64,
    /// Interference bound `u(M)`.
    pub u: u64,
    /// Static tree searches needed, `v(M)`.
    pub v: u64,
    /// Total transmission time of the `u(M)` interfering messages, ticks.
    pub transmission_ticks: u64,
    /// Worst-case search slots for the static-tree term `S1` (problem P2).
    pub s1_slots: f64,
    /// Worst-case search slots for the time-tree term `S2` (Eq. 5 based).
    pub s2_slots: f64,
    /// Worst-case search slots `S = S1 + S2`.
    pub search_slots: f64,
    /// The latency bound `B_DDCR(s_i, M)` in ticks.
    pub bound: f64,
    /// The class deadline `d(M)`.
    pub deadline: Ticks,
    /// Whether `B ≤ d(M)`.
    pub feasible: bool,
}

impl ClassFeasibility {
    /// Slack `d(M) − B` in ticks (negative when infeasible).
    pub fn slack(&self) -> f64 {
        self.deadline.as_u64() as f64 - self.bound
    }

    /// Fraction of the bound due to raw transmission time (as opposed to
    /// search overhead `x·S`) — the decomposition a designer tunes against:
    /// transmission-dominated bounds call for more bandwidth or shorter
    /// messages, search-dominated bounds for more static indices or a
    /// different branching degree.
    pub fn transmission_fraction(&self) -> f64 {
        if self.bound == 0.0 {
            0.0
        } else {
            self.transmission_ticks as f64 / self.bound
        }
    }

    /// Which `B_DDCR` term dominates the bound — the citation an admission
    /// rejection carries (§4.3 decomposition): the raw transmission time of
    /// the `u(M)` interferers, the `S1` static-search slots (problem P2), or
    /// the `S2` time-tree slots (Eq. 5).
    ///
    /// The per-term tick weights are recovered from the identity
    /// `bound = transmission + x·(S1 + S2)` without needing `x` itself.
    pub fn dominant_term(&self) -> &'static str {
        let search_ticks = (self.bound - self.transmission_ticks as f64).max(0.0);
        let (s1_ticks, s2_ticks) = if self.search_slots > 0.0 {
            (
                search_ticks * self.s1_slots / self.search_slots,
                search_ticks * self.s2_slots / self.search_slots,
            )
        } else {
            (0.0, 0.0)
        };
        if self.transmission_ticks as f64 >= s1_ticks.max(s2_ticks) {
            "transmission term sum(ceil(..)*a*l'/psi)"
        } else if s1_ticks >= s2_ticks {
            "S1 static-search term x*v*xi~^q_(u/v)"
        } else {
            "S2 time-tree term x*ceil(v/2)*xi^F_2"
        }
    }
}

/// Feasibility report for a whole HRTDM instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeasibilityReport {
    /// Per-class verdicts, in message-set order.
    pub per_class: Vec<ClassFeasibility>,
}

impl FeasibilityReport {
    /// The instance is feasible iff every class is.
    pub fn feasible(&self) -> bool {
        self.per_class.iter().all(|c| c.feasible)
    }

    /// The class with the smallest slack (the binding constraint), if any.
    ///
    /// Uses [`f64::total_cmp`]: even a degenerate report carrying a
    /// non-finite bound (which [`evaluate`] itself refuses to produce)
    /// yields a deterministic answer instead of a panic — NaN slack orders
    /// above every finite slack, so it is never selected as binding while
    /// any finite class exists.
    pub fn tightest(&self) -> Option<&ClassFeasibility> {
        self.per_class
            .iter()
            .min_by(|a, b| a.slack().total_cmp(&b.slack()))
    }
}

/// Why a pair term could not be formed. Kept to one byte so the per-pair
/// loop stays tight; turned into a [`DdcrError`] only on the way out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TermError {
    /// A class with a zero density window.
    ZeroWindow,
    /// A term or sum past `u64`.
    Overflow,
}

impl TermError {
    #[cold]
    fn naming(self, target: &MessageClass) -> DdcrError {
        DdcrError::InvalidConfig(match self {
            TermError::ZeroWindow => "class density window w must be positive".into(),
            TermError::Overflow => format!(
                "B_DDCR terms of class {} overflow 64-bit integers \
                 (arrivals, window or message size out of range)",
                target.id.0
            ),
        })
    }
}

/// Exact `⌈num/den⌉` for possibly-negative numerators, clamped at zero
/// (a non-positive window contributes no arrivals).
///
/// # Errors
///
/// [`TermError::ZeroWindow`] for a zero divisor (a degenerate density
/// window) rather than aborting on the integer division, and
/// [`TermError::Overflow`] for a quotient past `u64`.
#[inline(always)]
fn ceil_div_clamped(num: i128, den: u64) -> Result<u64, TermError> {
    if den == 0 {
        Err(TermError::ZeroWindow)
    } else if num <= 0 {
        Ok(0)
    } else if let Ok(num) = u64::try_from(num) {
        Ok(num.div_ceil(den))
    } else {
        let den = den as i128;
        u64::try_from((num + den - 1) / den).map_err(|_| TermError::Overflow)
    }
}

/// `⌈window/w(m)⌉·a(m)`: the arrivals of `m` a window of `window` ticks
/// can hold at peak load.
#[inline(always)]
fn arrivals(window: i128, m: &MessageClass) -> Result<u64, TermError> {
    ceil_div_clamped(window, m.density.w.as_u64())?
        .checked_mul(m.density.a)
        .ok_or(TermError::Overflow)
}

/// The three integer sums behind one class's bound, each a sum of one
/// term per class of `MSG`. Sums of non-negative terms do not depend on
/// the order they are taken in, so they can be kept per class and moved
/// one pair at a time as classes come and go.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassSums {
    /// `Σ_{m ∈ MSG_i} ⌈d(M)/w(m)⌉·a(m)`, that is `r(M) + 1`.
    pub rank: u64,
    /// `u(M) = Σ_{m ∈ MSG} ⌈(d(M)+d(m)−l'(M)/ψ)/w(m)⌉·a(m)`.
    pub interference: u64,
    /// `Σ_{m ∈ MSG} ⌈…⌉·a(m)·l'(m)/ψ`: transmission time of the `u(M)`
    /// interfering messages, ticks.
    pub transmission_ticks: u64,
}

/// `l'(c)/ψ` at `ψ = 1`: the class's Ph-PDU length in ticks.
#[inline(always)]
fn wire(c: &MessageClass, medium: &MediumConfig) -> Result<u64, TermError> {
    medium.checked_wire_bits(c.bits).ok_or(TermError::Overflow)
}

impl ClassSums {
    /// The terms class `m` adds to the sums of `target` (at `ψ = 1`), with
    /// `target_wire = l'(M)`: the rank term `⌈d(M)/w(m)⌉·a(m)` if `m`
    /// shares the target's source (zero otherwise), the interference count
    /// `⌈(d(M)+d(m)−l'(M))/w(m)⌉·a(m)` and that count times `l'(m)`.
    #[inline(always)]
    fn try_pair(
        target: &MessageClass,
        target_wire: u64,
        m: &MessageClass,
        medium: &MediumConfig,
    ) -> Result<ClassSums, TermError> {
        let d_target = target.deadline.as_u64() as i128;
        let rank = if m.source == target.source {
            arrivals(d_target, m)?
        } else {
            0
        };
        let window = d_target + m.deadline.as_u64() as i128 - target_wire as i128;
        let interference = arrivals(window, m)?;
        let transmission_ticks = interference
            .checked_mul(wire(m, medium)?)
            .ok_or(TermError::Overflow)?;
        Ok(ClassSums {
            rank,
            interference,
            transmission_ticks,
        })
    }

    /// Applies a checked `op` field by field.
    #[inline(always)]
    fn combine(
        self,
        terms: ClassSums,
        op: fn(u64, u64) -> Option<u64>,
    ) -> Result<ClassSums, TermError> {
        let apply = |a, b| op(a, b).ok_or(TermError::Overflow);
        Ok(ClassSums {
            rank: apply(self.rank, terms.rank)?,
            interference: apply(self.interference, terms.interference)?,
            transmission_ticks: apply(self.transmission_ticks, terms.transmission_ticks)?,
        })
    }

    /// The sums of `target` with the pair terms of `m` added.
    ///
    /// # Errors
    ///
    /// [`DdcrError::InvalidConfig`] for a zero window or a term or sum
    /// past `u64`.
    pub(crate) fn with(
        self,
        target: &MessageClass,
        m: &MessageClass,
        medium: &MediumConfig,
    ) -> Result<ClassSums, DdcrError> {
        wire(target, medium)
            .and_then(|target_wire| Self::try_pair(target, target_wire, m, medium))
            .and_then(|terms| self.combine(terms, u64::checked_add))
            .map_err(|e| e.naming(target))
    }

    /// The sums of `target` with the pair terms of `m` taken out again.
    ///
    /// # Errors
    ///
    /// [`DdcrError::InvalidConfig`] if `m`'s terms were never added.
    pub(crate) fn without(
        self,
        target: &MessageClass,
        m: &MessageClass,
        medium: &MediumConfig,
    ) -> Result<ClassSums, DdcrError> {
        wire(target, medium)
            .and_then(|target_wire| Self::try_pair(target, target_wire, m, medium))
            .and_then(|terms| self.combine(terms, u64::checked_sub))
            .map_err(|e| e.naming(target))
    }

    /// The sums of `target` over `classes`, one pair term per class.
    ///
    /// # Errors
    ///
    /// [`DdcrError::InvalidConfig`] for a zero window or a term or sum
    /// past `u64`.
    pub(crate) fn over<'a>(
        target: &MessageClass,
        classes: impl IntoIterator<Item = &'a MessageClass>,
        medium: &MediumConfig,
    ) -> Result<ClassSums, DdcrError> {
        let sum = |target_wire| {
            classes
                .into_iter()
                .try_fold(ClassSums::default(), |sums, m| {
                    Self::try_pair(target, target_wire, m, medium)
                        .and_then(|terms| sums.combine(terms, u64::checked_add))
                })
        };
        wire(target, medium)
            .and_then(sum)
            .map_err(|e| e.naming(target))
    }
}

/// Evaluates the feasibility conditions of §4.3 for every class of the set.
///
/// # Errors
///
/// Returns [`DdcrError::InvalidConfig`] on configuration/allocation
/// mismatch (e.g. fewer static leaves than sources) or a bound term past
/// 64-bit range, and [`DdcrError::Infeasible`] when a bound cannot be
/// evaluated.
///
/// # Examples
///
/// ```
/// use ddcr_core::{feasibility, DdcrConfig, StaticAllocation};
/// use ddcr_sim::{MediumConfig, Ticks};
/// use ddcr_traffic::scenario;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let set = scenario::air_traffic_control(4)?;
/// let config = DdcrConfig::for_sources(4, Ticks(12_500))?;
/// let allocation = StaticAllocation::one_per_source(config.static_tree, 4)?;
/// let report = feasibility::evaluate(
///     &set, &config, &allocation, &MediumConfig::gigabit_ethernet())?;
/// assert_eq!(report.per_class.len(), set.classes().len());
/// # Ok(())
/// # }
/// ```
pub fn evaluate(
    set: &MessageSet,
    config: &DdcrConfig,
    allocation: &StaticAllocation,
    medium: &MediumConfig,
) -> Result<FeasibilityReport, DdcrError> {
    config.validate(set.sources())?;
    if allocation.sources() < set.sources() {
        return Err(DdcrError::InvalidConfig(format!(
            "allocation covers {} sources, message set has {}",
            allocation.sources(),
            set.sources()
        )));
    }
    let mut per_class = Vec::with_capacity(set.classes().len());
    for target in set.classes() {
        let sums = ClassSums::over(target, set.classes(), medium)?;
        per_class.push(finish(target, sums, config, allocation, medium)?);
    }
    Ok(FeasibilityReport { per_class })
}

/// The closed-form tail of `B_DDCR(s_i, M)` from the class's sums: `v(M)`,
/// the `S1` and `S2` search terms, the bound and the verdict.
///
/// # Errors
///
/// Returns [`DdcrError::InvalidConfig`] when the target's source owns no
/// static index, `v(M)` leaves 64-bit range or the bound is not finite,
/// and [`DdcrError::Tree`] if the P2 bound cannot be formed.
///
/// # Panics
///
/// Panics if the target's source lies outside `allocation`.
pub fn finish(
    target: &MessageClass,
    sums: ClassSums,
    config: &DdcrConfig,
    allocation: &StaticAllocation,
    medium: &MediumConfig,
) -> Result<ClassFeasibility, DdcrError> {
    // r(M): messages of MSG_i that can be serviced before M.
    let r = sums.rank.saturating_sub(1);
    let u = sums.interference;
    let transmission_ticks = sums.transmission_ticks;

    let nu = allocation.nu(target.source);
    if nu == 0 {
        // Reachable online: a leaving station's leaves are reclaimed, so a
        // partial allocation can carry sources with ν_i = 0. Admission must
        // refuse such flows with a typed error, not divide by zero below.
        return Err(DdcrError::InvalidConfig(format!(
            "source {} owns no static indices (detached or reclaimed)",
            target.source.0
        )));
    }
    let mut v = 1 + r / nu;
    let q = config.static_tree.leaves();
    // The P2 bound needs u/v ≤ q; if the interference exceeds what v static
    // trees can carry, more searches will actually run — raising v keeps
    // the bound on the safe (conservative) side.
    if u > q.saturating_mul(v) {
        v = u.div_ceil(q);
    }
    // The P2 composition below forms 2·v and q·v.
    if v.checked_mul(q.max(2)).is_none() {
        return Err(TermError::Overflow.naming(target));
    }

    // S1: isolating u messages over v consecutive q-leaf static trees
    // (problem P2, Eq. 18–19), via the memoized multi-tree bound. ξ̃ needs
    // k ∈ [2, q]: u ≤ q·v holds after the v-raise above, and fewer than 2
    // per tree is dominated by the k = 2 cost, so lifting u to 2v yields
    // the same v·ξ̃_{clamp(u/v, 2, q)}^q value as the direct closed form.
    let s1 = if u == 0 {
        0.0
    } else {
        let problem = MultiTreeProblem::new(config.static_tree, u.max(2 * v), v)
            .map_err(DdcrError::Tree)?;
        problem.bound_cached()
    };

    // S2: isolating v time-tree leaves over ⌈v/2⌉ consecutive time trees,
    // two active leaves per tree being the worst case (ξ^F_2, Eq. 5).
    let s2 = v.div_ceil(2) as f64 * closed_form::xi_two(config.time_tree) as f64;

    let search_slots = s1 + s2;
    let bound = transmission_ticks as f64 + medium.slot_ticks as f64 * search_slots;
    if !bound.is_finite() {
        // A degenerate instance (e.g. an astronomically dense class pushing
        // the P2 bound past f64 range) must surface as a typed error: a
        // non-finite bound would otherwise propagate NaN slack into every
        // downstream comparison.
        return Err(DdcrError::InvalidConfig(format!(
            "B_DDCR for class {} is not finite (transmission {transmission_ticks} ticks, \
             search {search_slots} slots)",
            target.id.0
        )));
    }
    Ok(ClassFeasibility {
        class: target.id,
        source: target.source,
        r,
        u,
        v,
        transmission_ticks,
        s1_slots: s1,
        s2_slots: s2,
        search_slots,
        bound,
        deadline: target.deadline,
        feasible: bound <= target.deadline.as_u64() as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddcr_traffic::{scenario, DensityBound};

    fn setup(z: u32, load: f64, deadline: u64) -> (MessageSet, DdcrConfig, StaticAllocation) {
        let set = scenario::uniform(z, 8_000, Ticks(deadline), load).unwrap();
        let config = DdcrConfig::for_sources(z, Ticks(deadline / 64)).unwrap();
        let allocation = StaticAllocation::one_per_source(config.static_tree, z).unwrap();
        (set, config, allocation)
    }

    #[test]
    fn light_load_long_deadline_is_feasible() {
        let (set, config, allocation) = setup(4, 0.05, 10_000_000);
        let report =
            evaluate(&set, &config, &allocation, &MediumConfig::ethernet()).unwrap();
        assert!(report.feasible(), "{:#?}", report.tightest());
    }

    #[test]
    fn saturating_load_tight_deadline_is_infeasible() {
        let (set, config, allocation) = setup(8, 0.95, 200_000);
        let report =
            evaluate(&set, &config, &allocation, &MediumConfig::ethernet()).unwrap();
        assert!(!report.feasible());
        assert!(report.tightest().unwrap().slack() < 0.0);
    }

    #[test]
    fn bound_grows_with_load() {
        let medium = MediumConfig::ethernet();
        let mut prev = 0.0;
        for load in [0.1, 0.3, 0.5, 0.7] {
            let (set, config, allocation) = setup(4, load, 5_000_000);
            let report = evaluate(&set, &config, &allocation, &medium).unwrap();
            let bound = report.per_class[0].bound;
            assert!(bound > prev, "bound not monotone at load {load}");
            prev = bound;
        }
    }

    #[test]
    fn r_and_u_match_hand_computation() {
        // One source, one class: a = 2, w = 1000, d = 3000, l = 100,
        // overhead 0, slot 10.
        let set = MessageSet::new(
            1,
            vec![ddcr_traffic::MessageClass {
                id: ClassId(0),
                name: "only".into(),
                source: SourceId(0),
                bits: 100,
                deadline: Ticks(3000),
                density: DensityBound::new(2, Ticks(1000)).unwrap(),
            }],
        )
        .unwrap();
        let config = DdcrConfig::for_sources(1, Ticks(100)).unwrap();
        let allocation = StaticAllocation::one_per_source(config.static_tree, 1).unwrap();
        let medium = MediumConfig {
            slot_ticks: 10,
            overhead_bits: 0,
            collision_mode: ddcr_sim::CollisionMode::Destructive,
        };
        let report = evaluate(&set, &config, &allocation, &medium).unwrap();
        let c = &report.per_class[0];
        // r = ⌈3000/1000⌉·2 − 1 = 5
        assert_eq!(c.r, 5);
        // u = ⌈(3000 + 3000 − 100)/1000⌉·2 = 12
        assert_eq!(c.u, 12);
        // ν = 1 ⇒ v = 1 + ⌊5/1⌋ = 6
        assert_eq!(c.v, 6);
        assert_eq!(c.transmission_ticks, 1200);
    }

    #[test]
    fn more_static_indices_reduce_v_and_bound() {
        let set = scenario::uniform(4, 8_000, Ticks(2_000_000), 0.5).unwrap();
        let config = DdcrConfig::for_sources(4, Ticks(31_250)).unwrap();
        let medium = MediumConfig::ethernet();
        let one = StaticAllocation::one_per_source(config.static_tree, 4).unwrap();
        let rr = StaticAllocation::round_robin(config.static_tree, 4).unwrap();
        let report_one = evaluate(&set, &config, &one, &medium).unwrap();
        let report_rr = evaluate(&set, &config, &rr, &medium).unwrap();
        assert!(report_rr.per_class[0].v <= report_one.per_class[0].v);
        assert!(report_rr.per_class[0].bound <= report_one.per_class[0].bound);
    }

    #[test]
    fn tightest_picks_minimum_slack() {
        let set = scenario::air_traffic_control(4).unwrap();
        let config = DdcrConfig::for_sources(4, Ticks(6_250)).unwrap();
        let allocation = StaticAllocation::one_per_source(config.static_tree, 4).unwrap();
        let report =
            evaluate(&set, &config, &allocation, &MediumConfig::gigabit_ethernet()).unwrap();
        let tightest = report.tightest().unwrap();
        for c in &report.per_class {
            assert!(tightest.slack() <= c.slack());
        }
    }

    #[test]
    fn mismatched_allocation_rejected() {
        let (set, config, _) = setup(4, 0.1, 1_000_000);
        let small = StaticAllocation::one_per_source(config.static_tree, 2).unwrap();
        assert!(evaluate(&set, &config, &small, &MediumConfig::ethernet()).is_err());
    }

    #[test]
    fn ceil_div_clamped_handles_negatives() {
        assert_eq!(ceil_div_clamped(-5, 10).unwrap(), 0);
        assert_eq!(ceil_div_clamped(0, 10).unwrap(), 0);
        assert_eq!(ceil_div_clamped(1, 10).unwrap(), 1);
        assert_eq!(ceil_div_clamped(10, 10).unwrap(), 1);
        assert_eq!(ceil_div_clamped(11, 10).unwrap(), 2);
        // Past u64: i128 numerators beyond 2^64, quotients that do not fit.
        assert_eq!(ceil_div_clamped(1 << 70, 1 << 10).unwrap(), 1 << 60);
        assert_eq!(ceil_div_clamped(1 << 70, 2), Err(TermError::Overflow));
    }

    #[test]
    fn ceil_div_clamped_rejects_zero_divisor() {
        // Regression: used to abort on integer division by zero; a
        // long-running admission service must get a typed error instead.
        assert_eq!(ceil_div_clamped(5, 0), Err(TermError::ZeroWindow));
        let target = scenario::uniform(1, 8_000, Ticks(1_000), 0.1)
            .unwrap()
            .classes()[0]
            .clone();
        assert!(matches!(
            TermError::ZeroWindow.naming(&target),
            DdcrError::InvalidConfig(_)
        ));
    }

    #[test]
    fn tightest_tolerates_nan_slack_without_panicking() {
        // Regression: `min_by(partial_cmp().expect("no NaN slack"))` used to
        // panic on a degenerate report. total_cmp keeps it deterministic and
        // never selects the NaN class while a finite one exists.
        let finite = ClassFeasibility {
            class: ClassId(0),
            source: SourceId(0),
            r: 0,
            u: 0,
            v: 1,
            transmission_ticks: 0,
            s1_slots: 0.0,
            s2_slots: 0.0,
            search_slots: 0.0,
            bound: 10.0,
            deadline: Ticks(100),
            feasible: true,
        };
        let degenerate = ClassFeasibility {
            class: ClassId(1),
            bound: f64::NAN,
            ..finite.clone()
        };
        let report = FeasibilityReport {
            per_class: vec![degenerate, finite.clone()],
        };
        assert_eq!(report.tightest().unwrap().class, finite.class);
    }

    fn class(id: u32, source: u32, bits: u64, deadline: u64, a: u64, w: u64) -> MessageClass {
        MessageClass {
            id: ClassId(id),
            name: format!("c{id}"),
            source: SourceId(source),
            bits,
            deadline: Ticks(deadline),
            density: DensityBound::new(a, Ticks(w)).unwrap(),
        }
    }

    #[test]
    fn term_overflow_is_a_typed_error_naming_the_class() {
        // Regression: ⌈d/w⌉·a = 4·2^62 used to wrap to zero, so r = u = 0
        // and the flow looked trivially feasible.
        let set = MessageSet::new(
            2,
            vec![
                class(0, 0, 8_000, 50_000_000, 1, 10_000_000),
                class(1, 1, 8_000, 4_000_000, 1 << 62, 1_000_000),
            ],
        )
        .unwrap();
        let config = DdcrConfig::for_sources(2, Ticks(100_000)).unwrap();
        let allocation = StaticAllocation::one_per_source(config.static_tree, 2).unwrap();
        let err = evaluate(&set, &config, &allocation, &MediumConfig::ethernet()).unwrap_err();
        // Class 0 is evaluated first and already sees class 1's arrivals.
        match err {
            DdcrError::InvalidConfig(msg) => assert!(msg.contains("class 0 overflow"), "{msg}"),
            other => panic!("expected InvalidConfig, got {other}"),
        }
        // A message size past u64 once overhead is added is refused too.
        let huge = class(0, 0, u64::MAX, 50_000_000, 1, 10_000_000);
        assert!(matches!(
            ClassSums::default().with(&huge, &huge, &MediumConfig::ethernet()),
            Err(DdcrError::InvalidConfig(_))
        ));
    }

    #[test]
    fn pair_terms_add_and_remove_exactly() {
        let medium = MediumConfig::ethernet();
        let target = class(0, 0, 8_000, 5_000_000, 2, 1_000_000);
        let same = class(1, 0, 4_000, 9_000_000, 3, 2_000_000);
        let other = class(2, 1, 16_000, 1_000_000, 1, 500_000);
        let start = ClassSums::default()
            .with(&target, &target, &medium)
            .unwrap();
        let both = start
            .with(&target, &same, &medium)
            .and_then(|s| s.with(&target, &other, &medium))
            .unwrap();
        // ⌈5e6/1e6⌉·2 + ⌈5e6/2e6⌉·3 = 10 + 9; the other source adds no rank.
        assert_eq!(both.rank, 19);
        let other_terms = ClassSums::default().with(&target, &other, &medium).unwrap();
        assert_eq!(other_terms.rank, 0);
        let back = both
            .without(&target, &other, &medium)
            .and_then(|s| s.without(&target, &same, &medium))
            .unwrap();
        assert_eq!(back, start);
        assert!(ClassSums::default()
            .without(&target, &same, &medium)
            .is_err());
    }

    #[test]
    fn reclaimed_source_gets_typed_error_not_division_by_zero() {
        let (set, config, mut allocation) = setup(4, 0.1, 1_000_000);
        allocation.reclaim(SourceId(0)).unwrap();
        let err = evaluate(&set, &config, &allocation, &MediumConfig::ethernet()).unwrap_err();
        assert!(matches!(err, DdcrError::InvalidConfig(_)), "{err}");
    }
}
