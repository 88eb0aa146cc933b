//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records the layer and call it wraps, start and end (ns since
//! the tracer was created), the enclosing span and the run (iteration)
//! id. Spans stay in memory and are written as JSONL once the run ends.
//! A disabled tracer runs the wrapped closure without reading the clock,
//! so timed (untraced) runs pay one branch per call site.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer the call goes into (e.g. `sim.engine`).
    pub layer: &'static str,
    /// The call wrapped (e.g. `run_to_completion`).
    pub call: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Run (iteration) id the span belongs to.
    pub run: u32,
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    run: u32,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs the closures.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the run id stamped on spans opened from now on.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span `layer`/`call`.
    pub fn scope<R>(
        &mut self,
        layer: &'static str,
        call: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            layer,
            call,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(index);
        let result = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON line.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write_jsonl(&self, out: &mut dyn Write) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"layer\":\"{}\",\"call\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"run\":{}}}",
                s.layer, s.call, s.start_ns, s.end_ns, s.run
            )?;
        }
        Ok(())
    }
}

/// Median duration in seconds of the spans `layer`/`call` (NaN if none).
pub fn median_s(spans: &[Span], layer: &str, call: &str) -> f64 {
    let durations: Vec<f64> = spans
        .iter()
        .filter(|s| s.layer == layer && s.call == call)
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .collect();
    crate::stats::median(&durations)
}

/// Self time per layer, in seconds: each span's duration minus the part
/// its direct children cover (children never overlap, since spans nest on
/// one thread), summed by layer.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let span = |layer, start_ns, end_ns, parent| Span {
            layer,
            call: "c",
            start_ns,
            end_ns,
            parent,
            run: 0,
        };
        // root [0, 100) ⊃ a [10, 40) ⊃ b [20, 30); root ⊃ a' [50, 60).
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 20, 30, Some(1)),
            span("a", 50, 60, Some(0)),
        ];
        let t = self_times(&spans);
        assert!((t["root"] - 60e-9).abs() < 1e-15);
        assert!((t["a"] - 30e-9).abs() < 1e-15);
        assert!((t["b"] - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_nesting_links_parents() {
        let mut off = Tracer::new(false);
        assert_eq!(off.scope("x", "y", |_| 5), 5);
        assert!(off.spans().is_empty());
        let mut on = Tracer::new(true);
        on.set_run(3);
        on.scope("outer", "o", |t| t.scope("inner", "i", |_| ()));
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert_eq!(spans[1].run, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
