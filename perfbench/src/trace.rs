//! The benchmark's own span recorder.
//!
//! Spans wrap the benchmark's calls into each layer's public API (the
//! program itself is not instrumented here). They stay in memory and
//! are written once, at the end, as schema-v2 telemetry span records,
//! so `apollo trace-lint` and `apollo trace-export --chrome|--flamegraph`
//! read the file like any other trace. A disabled recorder never reads
//! the clock, which is what makes the untraced run untraced.

use apollo_suite::telemetry::{intern, mix3, Record, RecordBody, ID_MASK, SCHEMA_VERSION};
use std::time::{Duration, Instant};

/// One closed span. `work` is the amount of work the wrapped call did
/// (cycles, windows, requests, …), so per-layer rates are measured
/// where the work happens.
#[derive(Clone, Debug)]
pub struct Span {
    pub path: String,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub work: u64,
    pub span_id: u64,
    pub parent_id: u64,
}

impl Span {
    pub fn leaf(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }
}

/// An open span, returned by [`Tracer::begin`] and closed by
/// [`Tracer::end`].
#[must_use]
pub struct Open(Option<(usize, Instant)>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    trace_id: u64,
    stack: Vec<(String, u64)>,
    spans: Vec<Span>,
}

fn nonzero_id(x: u64) -> u64 {
    (x & ID_MASK).max(1)
}

impl Tracer {
    pub fn new(enabled: bool, workload: &str, seed: u64) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            trace_id: nonzero_id(mix3(intern("perfbench"), intern(workload), seed)),
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn begin(&mut self, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let path = match self.stack.last() {
            Some((parent, _)) => format!("{parent}/{name}"),
            None => name.to_owned(),
        };
        let id = nonzero_id(mix3(self.trace_id, intern(&path), self.spans.len() as u64));
        self.stack.push((path, id));
        Open(Some((self.stack.len(), Instant::now())))
    }

    pub fn end(&mut self, open: Open, work: u64) {
        let Some((depth, t0)) = open.0 else {
            return;
        };
        let end = Instant::now();
        assert_eq!(depth, self.stack.len(), "spans close in LIFO order");
        let (path, span_id) = self.stack.pop().expect("an open span");
        let parent_id = self.stack.last().map_or(0, |(_, id)| *id);
        self.spans.push(Span {
            path,
            start_ns: t0.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.duration_since(t0).as_nanos() as u64,
            work,
            span_id,
            parent_id,
        });
    }

    /// Runs `f` inside a span whose work count `f` returns with its
    /// result.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> (T, u64)) -> T {
        let open = self.begin(name);
        let (out, work) = f();
        self.end(open, work);
        out
    }

    /// Records a span measured elsewhere (another thread's calls,
    /// summed), as a child of the innermost open span.
    pub fn record(&mut self, name: &str, start: Instant, dur: Duration, work: u64) {
        if !self.enabled {
            return;
        }
        let (path, parent_id) = match self.stack.last() {
            Some((parent, id)) => (format!("{parent}/{name}"), *id),
            None => (name.to_owned(), 0),
        };
        let span_id = nonzero_id(mix3(self.trace_id, intern(&path), self.spans.len() as u64));
        self.spans.push(Span {
            path,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
            work,
            span_id,
            parent_id,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Share (in %) of the span `root`'s time that none of its
    /// children covers.
    pub fn unattributed_pct(&self, root: &str) -> Option<f64> {
        let r = self.spans.iter().find(|s| s.leaf() == root)?;
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent_id == r.span_id)
            .map(|s| (s.start_ns, s.start_ns + s.dur_ns))
            .collect();
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, r.start_ns);
        let stop = r.start_ns + r.dur_ns;
        for (a, b) in kids {
            let (a, b) = (a.max(reach), b.min(stop));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        Some(100.0 * (r.dur_ns.saturating_sub(covered)) as f64 / r.dur_ns.max(1) as f64)
    }

    /// The spans as telemetry JSONL (dense `seq` in end-time order,
    /// `ts_ns` = span end, as the exporters expect).
    pub fn to_jsonl(&self) -> String {
        let mut order: Vec<&Span> = self.spans.iter().collect();
        order.sort_by_key(|s| (s.start_ns + s.dur_ns, s.start_ns));
        let mut out = String::new();
        for (seq, s) in order.into_iter().enumerate() {
            let rec = Record {
                v: SCHEMA_VERSION,
                seq: seq as u64,
                ts_ns: s.start_ns + s.dur_ns,
                trace_id: self.trace_id,
                span_id: s.span_id,
                parent_id: s.parent_id,
                body: RecordBody::Span {
                    path: s.path.clone(),
                    dur_ns: s.dur_ns,
                },
            };
            out.push_str(&rec.to_jsonl());
            out.push('\n');
        }
        out
    }
}
