//! Result digests for the correctness gate.
//!
//! A digest folds everything a run produced that must not depend on which
//! engine tiers ran or how many workers advanced the channels: the
//! `ChannelStats` counters and retained deliveries, the latency histogram,
//! the hash of the trace bytes, and the stepper-invariant `SimMetrics`
//! counters. Tier telemetry is left out because it records which fast
//! path did the work, so it differs from the reference stepper by design:
//! the skipped-slot and skip-run counters, the phase split of slots, and
//! `epochs_checked` (idle epochs the fast path jumps over never open a ξ
//! check window; on the reference stepper they do).

use ddcr_sim::{ChannelStats, SimMetrics};

/// FNV-1a over 64-bit words and byte strings.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds in a byte string.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds in one word.
    pub fn word(&mut self, w: u64) -> &mut Self {
        self.bytes(&w.to_le_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a hash of a byte string.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    Fnv::default().bytes(bytes).finish()
}

/// Folds one channel's statistics into `h`.
pub fn fold_stats(h: &mut Fnv, stats: &ChannelStats) {
    h.word(stats.silence_slots)
        .word(stats.collisions)
        .word(stats.busy_ticks.as_u64())
        .word(stats.total_ticks.as_u64())
        .word(stats.delivered)
        .word(stats.missed_deadlines)
        .word(stats.latency_ticks_total)
        .word(stats.worst_latency.as_u64())
        .word(stats.worst_lateness.as_u64())
        .word(stats.lost_total);
    for d in &stats.deliveries {
        h.word(d.message.id.0).word(d.completed_at.as_u64());
    }
    for &count in stats.latency_histogram.counts() {
        h.word(count);
    }
}

/// Folds the stepper-invariant metrics counters into `h`.
pub fn fold_metrics(h: &mut Fnv, metrics: &SimMetrics) {
    h.word(metrics.violations_total)
        .word(metrics.sts_checked)
        .word(metrics.max_tts_overhead)
        .word(metrics.max_sts_overhead)
        .word(metrics.joins)
        .word(metrics.leaves);
    for s in metrics.stations() {
        h.word(s.transmitted)
            .word(s.collisions_seen)
            .word(s.garbled)
            .word(s.queue_high_water as u64);
    }
}

/// Digest of one single-bus run: statistics, trace byte hash and
/// (optional) metrics.
pub fn run_digest(stats: &ChannelStats, trace_hash: u64, metrics: Option<&SimMetrics>) -> u64 {
    let mut h = Fnv::default();
    fold_stats(&mut h, stats);
    h.word(trace_hash);
    if let Some(m) = metrics {
        fold_metrics(&mut h, m);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddcr_sim::{ClassId, Delivery, Message, MessageId, SourceId, Ticks};

    fn stats_with(deliveries: &[(u64, u64)]) -> ChannelStats {
        let mut stats = ChannelStats::default();
        for &(id, done) in deliveries {
            stats.push_delivery(Delivery {
                message: Message {
                    id: MessageId(id),
                    source: SourceId(0),
                    class: ClassId(0),
                    bits: 8_000,
                    arrival: Ticks(0),
                    deadline: Ticks(1_000_000),
                },
                completed_at: Ticks(done),
            });
        }
        stats
    }

    #[test]
    fn one_altered_delivery_changes_the_digest() {
        let base = stats_with(&[(0, 100), (1, 250), (2, 900)]);
        let same = stats_with(&[(0, 100), (1, 250), (2, 900)]);
        assert_eq!(run_digest(&base, 7, None), run_digest(&same, 7, None));
        // Same counters except the one changed completion time.
        let mut moved = base.clone();
        moved.deliveries[1].completed_at = Ticks(251);
        assert_ne!(run_digest(&base, 7, None), run_digest(&moved, 7, None));
        // A different message delivered in the same slot.
        let swapped = stats_with(&[(0, 100), (3, 250), (2, 900)]);
        assert_ne!(run_digest(&base, 7, None), run_digest(&swapped, 7, None));
        // Identical statistics, one trace byte different.
        assert_ne!(
            run_digest(&base, hash_bytes(b"{\"at\":1}"), None),
            run_digest(&base, hash_bytes(b"{\"at\":2}"), None)
        );
    }
}
