//! Pieces shared by the workloads: CLI-equivalent dimensioning, engine
//! tier switches, the in-memory trace writer, and the outcome every
//! workload returns.

use crate::stats::Summary;
use ddcr_core::{network, DdcrConfig, StaticAllocation};
use ddcr_sim::{Engine, MediumConfig};
use ddcr_traffic::MessageSet;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Give-up horizon for every completion run (the CLI's value).
pub const BUDGET_TICKS: u64 = 1_000_000_000_000;

/// Iterations (runs or sessions) made at least, however short `--seconds`.
pub const MIN_ITERATIONS: usize = 3;

/// The CLI's `setup`: class width from the deadlines, default trees,
/// round-robin static leaves.
///
/// # Errors
///
/// Returns the configuration or allocation error as text.
pub fn dimension(
    set: &MessageSet,
    medium: &MediumConfig,
) -> Result<(DdcrConfig, StaticAllocation), String> {
    let c = network::recommended_class_width(set, 64, medium);
    let config = DdcrConfig::for_sources(set.sources(), c).map_err(|e| e.to_string())?;
    let allocation = StaticAllocation::round_robin(config.static_tree, set.sources())
        .map_err(|e| e.to_string())?;
    Ok((config, allocation))
}

/// Switches the four engine tiers (idle fast-forward, busy skip,
/// contention skip, active-set scheduler) all on — the CLI default — or
/// all off — the reference stepper.
pub fn set_tiers(engine: &mut Engine, fast: bool) {
    engine
        .set_fast_forward(fast)
        .set_busy_fast_forward(fast)
        .set_contention_fast_forward(fast)
        .set_active_set(fast);
}

/// Worker threads for sharded runs: `min(2, available_parallelism)`.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Peak resident set of this process in MB (`VmHWM`); NaN if unreadable.
/// The workloads read it once their first iteration is done, before the
/// benchmark's own sample buffers grow with the run's length.
pub fn peak_rss_mb() -> f64 {
    let read = || -> Option<f64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    };
    read().unwrap_or(f64::NAN)
}

/// A trace writer that appends to its own buffer and hands the bytes over
/// on `flush` (which `JsonlSink::finish` calls once), so the sink's writes
/// take no lock. The buffer is recycled from the previous run, so a run
/// pays no page faults for memory the CLI's file writer would not touch.
pub struct MemWriter {
    buf: Vec<u8>,
    out: Arc<Mutex<Vec<u8>>>,
}

impl MemWriter {
    /// A writer over the (cleared) `buf` and the handle its bytes land in
    /// after `flush`.
    pub fn new(mut buf: Vec<u8>) -> (MemWriter, Arc<Mutex<Vec<u8>>>) {
        buf.clear();
        let out = Arc::new(Mutex::new(Vec::new()));
        let writer = MemWriter {
            buf,
            out: Arc::clone(&out),
        };
        (writer, out)
    }
}

impl Write for MemWriter {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        let mut out = self
            .out
            .lock()
            .map_err(|_| io::Error::other("trace buffer lock poisoned"))?;
        if out.is_empty() {
            std::mem::swap(&mut *out, &mut self.buf);
        } else {
            out.append(&mut self.buf);
        }
        Ok(())
    }
}

/// Seconds elapsed since `t`, as `f64`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Whether a measuring loop that started at `started` should go on.
pub fn keep_going(started: Instant, budget: Duration, done: usize, min: usize) -> bool {
    done < min || started.elapsed() < budget
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The correctness gate passed and no operation failed.
    pub correct: bool,
    /// Operations attempted (runs, or requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// End-to-end figures (untraced mode).
    pub e2e: Option<EndToEnd>,
    /// Per-layer metrics measured (traced mode), by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines, printed before the JSON result.
    pub lines: Vec<String>,
}

/// End-to-end figures of one untraced run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Work per host second: messages (simulation) or requests (serve).
    pub throughput_per_s: f64,
    /// Host time per operation, seconds.
    pub op: Summary,
    /// Set-up time, seconds.
    pub setup: Summary,
    /// Peak resident set, MB.
    pub peak_rss_mb: f64,
}
