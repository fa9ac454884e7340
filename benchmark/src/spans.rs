//! The benchmark's own span recorder.
//!
//! The program under test is measured *from outside*: every call the
//! benchmark makes into a layer's public functions is wrapped in a span
//! (name, layer, start, end, parent, pass id). Spans stay in memory and
//! are written as Chrome-trace JSON when the run ends. A disabled
//! recorder runs the closure and records nothing, so untraced passes
//! execute the same calls without the bookkeeping.
//!
//! All calls into the layers come from the benchmark's main thread (the
//! threads of `native-exec`, the tuner and the serve pool live inside
//! the program), so the recorder is single-threaded by construction.

use gpstream_util::Json;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called (`resume_from:spas-32000`).
    pub name: String,
    /// The crate the call went into (`machine`, `serve`, ...).
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Pass the span belongs to (spans of one pass share it).
    pub pass: u32,
}

impl Span {
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span sink.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    pass: Cell<u32>,
}

impl Recorder {
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            pass: Cell::new(0),
        }
    }

    /// Tag every span recorded from now on with `pass`.
    pub fn set_pass(&self, pass: u32) {
        self.pass.set(pass);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; nested calls become child spans.
    pub fn span<R>(&self, layer: &'static str, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            let start_ns = self.now_ns();
            spans.push(Span {
                name: name.to_string(),
                layer,
                start_ns,
                end_ns: start_ns,
                parent,
                pass: self.pass.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    /// Durations in nanoseconds of every finished span called `name`.
    #[must_use]
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans.borrow().iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).collect()
    }

    /// Spans recorded so far.
    #[must_use]
    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start_ns.max(spans[p].start_ns), s.end_ns.min(spans[p].end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Self time per layer in nanoseconds, summed over `spans`.
#[must_use]
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_layer = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *by_layer.entry(s.layer).or_insert(0) += own;
    }
    by_layer
}

/// Chrome `trace_event` document (complete events, microseconds) with
/// each span's layer as its category and its parent, pass and self time
/// as arguments.
#[must_use]
pub fn chrome_trace(spans: &[Span]) -> Json {
    let own = self_times_ns(spans);
    let events = spans.iter().zip(own).map(|(s, own_ns)| {
        Json::obj([
            ("name", Json::from(s.name.as_str())),
            ("cat", Json::from(s.layer)),
            ("ph", Json::from("X")),
            ("ts", Json::F64(s.start_ns as f64 / 1e3)),
            ("dur", Json::F64(s.dur_ns() as f64 / 1e3)),
            ("pid", Json::U64(1)),
            ("tid", Json::U64(1)),
            (
                "args",
                Json::obj([
                    ("pass", Json::U64(u64::from(s.pass))),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::from(spans[p].name.as_str()))),
                    ("self_us", Json::F64(own_ns as f64 / 1e3)),
                ]),
            ),
        ])
    });
    Json::obj([("traceEvents", Json::arr(events)), ("displayTimeUnit", Json::from("ms"))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: name.to_string(), layer: "core", start_ns, end_ns, parent, pass: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 70, Some(0)),
        ];
        // root: 100 - (30 + 20); a: 30 - 10; grandchildren do not count
        // against the root twice.
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20]);
        assert_eq!(self_ns_by_layer(&spans)["core"], 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("c", 45, 50, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_records_nothing() {
        let rec = Recorder::new(true);
        rec.set_pass(3);
        let v = rec.span("serve", "outer", || rec.span("util", "inner", || 7));
        assert_eq!(v, 7);
        assert_eq!(rec.durations_ns("inner").len(), 1);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].pass, 3);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let doc = chrome_trace(&spans).to_doc_string();
        assert!(doc.contains("\"traceEvents\"") && doc.contains("\"cat\":\"util\""));

        let off = Recorder::new(false);
        assert_eq!(off.span("serve", "x", || 1), 1);
        assert!(off.into_spans().is_empty());
    }
}
