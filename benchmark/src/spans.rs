//! Harness-side spans: recorded in memory around the calls the
//! benchmark makes into each layer, written out as Chrome trace-event
//! JSON when the workload ends. Tracing inside the program is a later
//! change (ROADMAP item 1); nothing here touches the crates under test.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// One request in this many carries spans in a traced run.
pub const SAMPLE_EVERY: u64 = 64;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    /// Request id shared by a request's spans; 0 outside requests.
    req: u64,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
    /// Trace row: 1 = the harness thread, 2 = runtime workers.
    tid: u32,
}

/// Span recorder. With `on == false` every call is a branch and a
/// return, which is what the untraced run pays.
#[derive(Debug)]
pub struct Spans {
    pub on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Per-name totals; `self_ns` is the duration minus what child spans
/// cover.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Spans {
    pub fn new(on: bool, epoch: Instant) -> Spans {
        Spans {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its index (the `parent` of
    /// its children).
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> Option<u32> {
        self.record_on(1, name, req, parent, start, end)
    }

    pub fn record_on(
        &mut self,
        tid: u32,
        name: &'static str,
        req: u64,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> Option<u32> {
        if !self.on {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
            tid,
        });
        Some(self.spans.len() as u32 - 1)
    }

    /// Times `f` as a top-level span.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, 0, None, start, Instant::now());
        out
    }

    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// Writes the spans as complete (`"ph":"X"`) trace events, which
    /// `chrome://tracing` and Perfetto open directly.
    pub fn write_chrome(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let events = self.spans.iter().map(|s| {
            let mut args = vec![("req", Json::from(s.req))];
            if let Some(p) = s.parent {
                args.push(("parent", Json::str(self.spans[p as usize].name)));
            }
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(workload)),
                ("ph", Json::str("X")),
                ("ts", Json::from(s.start_ns as f64 / 1e3)),
                ("dur", Json::from((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(s.tid as u64)),
                ("args", Json::obj(args)),
            ])
        });
        let doc = Json::obj([
            ("displayTimeUnit", Json::str("ns")),
            ("traceEvents", Json::Arr(events.collect())),
        ]);
        std::fs::write(path, doc.compact())
    }
}
