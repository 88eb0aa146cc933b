//! End-to-end and per-layer benchmark of the DDCR CLI entry points.
//!
//! ```text
//! ddcr-e2e-bench --workload <trace-sparse|run-loaded|serve-churn|all>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload repeats the library call sequence of one CLI entry point
//! on inputs generated from `--seed`, for `--seconds`, and runs an untimed
//! correctness gate. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` makes a separate traced run that reports the per-layer
//! metrics and writes its spans to `.bench_spans/<workload>-seed<n>.jsonl`.
//! The last line of stdout is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; the exit
//! code is non-zero when the gate or any operation failed. See README.md.

mod common;
mod digest;
mod probes;
mod run_loaded;
mod serve_churn;
mod slotloop;
mod spans;
mod stats;
mod trace_sparse;

use common::Outcome;
use spans::Tracer;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["trace-sparse", "run-loaded", "serve-churn"];

/// End-to-end metrics (untraced runs), name and unit.
const END_TO_END: [(&str, &str); 5] = [
    ("throughput_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs), name and unit. A workload that does
/// not exercise a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 43] = [
    ("traffic.schedule_s", "s"),
    ("tree.xi_cold_s", "s"),
    ("tree.cache_hit_ratio", "ratio"),
    ("core.build_engine_s", "s"),
    ("multibus.budgets_s", "s"),
    ("shard.serial_s", "s"),
    ("shard.parallel_s", "s"),
    ("shard.speedup", "ratio"),
    ("shard.wait_s", "s"),
    ("protocol.poll_ns", "ns"),
    ("protocol.observe_ns", "ns"),
    ("engine.run_s", "s"),
    ("engine.slots", "count"),
    ("engine.ns_per_slot", "ns"),
    ("engine.poll_fraction", "ratio"),
    ("engine.replays", "count"),
    ("engine.skip_ratio", "ratio"),
    ("engine.busy_skip_ratio", "ratio"),
    ("engine.search_skip_ratio", "ratio"),
    ("trace.sink_s", "s"),
    ("trace.bytes_per_event", "B"),
    ("trace.mb_per_s", "MB/s"),
    ("metrics.overhead_s", "s"),
    ("metrics.xi_violations", "count"),
    ("membership.join_us", "us"),
    ("membership.leave_us", "us"),
    ("feasibility.evaluate_ms", "ms"),
    ("admission.growth", "ratio"),
    ("admission.accept_ratio", "ratio"),
    ("sim.miss_ratio", "ratio"),
    ("sim.latency_p99_ms", "ms"),
    ("tracing.overhead_s", "s"),
    ("self_s.bench", "s"),
    ("self_s.traffic", "s"),
    ("self_s.tree", "s"),
    ("self_s.core.network", "s"),
    ("self_s.core.protocol", "s"),
    ("self_s.core.multibus", "s"),
    ("self_s.core.membership", "s"),
    ("self_s.core.feasibility", "s"),
    ("self_s.sim.engine", "s"),
    ("self_s.sim.trace", "s"),
    ("self_s.sim.metrics", "s"),
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn run_workload(name: &str, seed: u64, budget: Duration, tr: &mut Tracer) -> Outcome {
    match (name, tr.enabled()) {
        ("trace-sparse", false) => trace_sparse::timed(seed, budget),
        ("trace-sparse", true) => trace_sparse::traced(seed, budget, tr),
        ("run-loaded", false) => run_loaded::timed(seed, budget),
        ("run-loaded", true) => run_loaded::traced(seed, budget, tr),
        ("serve-churn", false) => serve_churn::timed(seed, budget),
        _ => serve_churn::traced(seed, budget, tr),
    }
}

/// The metrics of the JSON result: every end-to-end metric (untraced) or
/// every per-layer metric (traced), by name with its unit.
fn result_metrics(out: &Outcome, tr: &Tracer) -> Vec<(&'static str, f64, &'static str)> {
    if !tr.enabled() {
        let Some(e) = out.e2e else { return Vec::new() };
        let values = [
            e.throughput_per_s,
            e.op.median * 1e6,
            e.op.tail.map_or(f64::NAN, |t| t * 1e6),
            e.setup.median,
            e.peak_rss_mb,
        ];
        return END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect();
    }
    let mut layers: BTreeMap<&str, f64> = out.layers.clone();
    for (layer, s) in spans::self_times(tr.spans()) {
        if let Some(&(name, _)) = PER_LAYER
            .iter()
            .find(|(n, _)| n.strip_prefix("self_s.") == Some(layer))
        {
            layers.insert(name, s);
        }
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

fn result_json(out: &Outcome, metrics: &[(&str, f64, &str)], correct: bool) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(",")
    )
}

fn write_spans(tr: &Tracer, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    tr.write_jsonl(&mut file)?;
    file.flush()
}

/// `--workload all`: runs each workload in a child process of its own,
/// so that each reports its own peak resident set (`VmHWM` only grows
/// within a process). Succeeds when every child does.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for name in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) => all_ok &= s.success(),
            Err(e) => {
                eprintln!("error: cannot run workload {name}: {e}");
                all_ok = false;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let name = args.workload.as_str();
    let mut tr = Tracer::new(args.trace);
    let out = run_workload(name, args.seed, Duration::from_secs(args.seconds), &mut tr);
    let metrics = result_metrics(&out, &tr);
    let finite = !metrics.is_empty() && metrics.iter().all(|(_, v, _)| v.is_finite());
    let mut correct = out.correct && finite;
    println!(
        "workload {name} seed {} seconds {} trace {} workers {} available_parallelism {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        common::workers(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for line in &out.lines {
        println!("  {line}");
    }
    for (metric, value, unit) in &metrics {
        println!("  {metric} = {value} {unit}");
    }
    if args.trace {
        let path = PathBuf::from(format!(".bench_spans/{name}-seed{}.jsonl", args.seed));
        match write_spans(&tr, &path) {
            Ok(()) => println!(
                "  spans: {} written to {}",
                tr.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("error: cannot write spans to {}: {e}", path.display());
                correct = false;
            }
        }
    }
    if !finite {
        eprintln!("error: {name} produced no result or a non-finite metric");
    }
    let sanitized: Vec<_> = metrics
        .into_iter()
        .map(|(n, v, u)| (n, if v.is_finite() { v } else { 0.0 }, u))
        .collect();
    println!("{}", result_json(&out, &sanitized, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics the result prints.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{workload}\"")),
                "{workload}"
            );
        }
        let declared = json.matches("\"name\":").count();
        assert_eq!(
            declared,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }
}
