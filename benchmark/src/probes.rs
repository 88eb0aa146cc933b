//! Layer probes shared by the workloads' traced runs.

use crate::common::secs;
use crate::slotloop::LoopCosts;
use crate::spans::Tracer;
use crate::stats::median;
use ddcr_core::DdcrConfig;
use ddcr_sim::ChannelStats;
use ddcr_tree::cache::CacheStats;
use ddcr_tree::TableCache;
use std::time::Instant;

/// Cold computations timed for `tree.xi_cold_s`.
const XI_COLD_REPEATS: usize = 5;

/// Median seconds to compute the worst-case ξ tables of both trees of
/// `config` on a fresh `TableCache`.
///
/// # Errors
///
/// Returns tree errors as text.
pub fn xi_cold(config: &DdcrConfig, tr: &mut Tracer) -> Result<f64, String> {
    let mut times = Vec::with_capacity(XI_COLD_REPEATS);
    for _ in 0..XI_COLD_REPEATS {
        let cache = TableCache::new();
        let t0 = Instant::now();
        tr.scope("tree", "worst_case.cold", |_| {
            cache.worst_case(config.time_tree)?;
            cache.worst_case(config.static_tree).map(|_| ())
        })
        .map_err(|e| e.to_string())?;
        times.push(secs(t0));
    }
    Ok(median(&times))
}

/// Hits over lookups; 0 when nothing was looked up.
pub fn hit_ratio(stats: CacheStats) -> f64 {
    let lookups = stats.hits + stats.misses;
    if lookups == 0 {
        0.0
    } else {
        stats.hits as f64 / lookups as f64
    }
}

/// Checks that the owned slot loop delivered exactly a prefix of what the
/// engine's reference stepper delivered on the same inputs.
///
/// # Errors
///
/// Names the first delivery that differs.
pub fn check_prefix(costs: &LoopCosts, reference: &ChannelStats) -> Result<(), String> {
    for (i, &(id, at)) in costs.deliveries.iter().enumerate() {
        let Some(d) = reference.deliveries.get(i) else {
            return Err(format!(
                "slot loop delivered {} messages, engine {i}",
                costs.deliveries.len()
            ));
        };
        if (d.message.id.0, d.completed_at.as_u64()) != (id, at) {
            return Err(format!(
                "slot loop delivery {i} is message {id} at {at}, engine has {} at {}",
                d.message.id.0,
                d.completed_at.as_u64()
            ));
        }
    }
    Ok(())
}
