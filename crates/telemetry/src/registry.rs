//! A deterministic metrics registry with tumbling windows in virtual time.
//!
//! Producers register named instruments up front (a counter, a gauge, or
//! an exact [`Histogram`]) and then stamp every update with the virtual
//! cycle it happened at. The registry buckets updates into tumbling
//! windows of `window_cycles` each — window `k` covers cycles
//! `[k * window_cycles, (k+1) * window_cycles)`. Resident windows live in
//! one dense ring that starts at the first window not yet evicted:
//! a stamp indexes slot `cycle / window_cycles − evicted`, growing the
//! ring on demand, so out-of-order stamps (a batch whose completions land
//! before an earlier batch's) file into the right window in constant
//! time, without any notion of "closing" windows in arrival order, and
//! evicting the oldest window is a `pop_front`. A stamp behind the ring
//! (a window already evicted) or more than [`MAX_RESIDENT_WINDOWS`] ahead
//! of its start is a producer bug and panics.
//!
//! The contract that makes the time series trustworthy:
//!
//! * **Counters** store per-window *deltas* plus a separately-maintained
//!   run total; summing the deltas over all windows must reproduce the
//!   total exactly (asserted at the end of the one window walk every
//!   export goes through, and by the crate's tests, not assumed).
//! * **Histograms** buffer each window's raw samples — a stamp is one
//!   `Vec::push` — and build the window's exact [`Histogram`] once, from
//!   the sorted buffer, when the window is evicted. The run total is a
//!   [`Sketch`] fed by the same `observe` calls — its exact form by
//!   default ([`Telemetry::hist`]), bounded-memory log buckets on
//!   request ([`Telemetry::hist_sketch`]). Folding the evicted windows
//!   into a fresh sketch of the same form must equal the total
//!   byte-for-byte (a sketch is a pure function of its sample
//!   multiset).
//! * **Gauges** are last-writer-wins per window (greatest stamp wins,
//!   later write breaking ties) and carry forward across empty windows
//!   in the dense series — a gauge is a level, not a flow.
//!
//! Nothing here reads a clock: determinism is inherited from the
//! producer's virtual time, which is what lets the serving harness emit
//! byte-identical CSV/JSON series across runs and exec-pool thread
//! counts.

use gpstream_util::{Histogram, Json, Sketch};
use std::collections::VecDeque;

/// Farthest a stamp may land ahead of the first resident window. The
/// ring is dense, so this bounds what one wild stamp can allocate; it is
/// the most windows the serving harness lets a whole run have.
pub const MAX_RESIDENT_WINDOWS: u64 = 1 << 20;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(usize);

#[derive(Debug, Clone, Default)]
struct Counter {
    name: String,
    total: u64,
    /// Sum of the window deltas already evicted.
    evicted: u64,
}

#[derive(Debug, Clone, Default)]
struct Gauge {
    name: String,
    /// Level as of the last evicted window (carried across empty ones).
    level: u64,
}

#[derive(Debug, Clone)]
struct Hist {
    name: String,
    total: Sketch,
    /// Merge of the windows already evicted, in `total`'s form — so in
    /// sketch form it is as bounded as the total it is checked against.
    evicted: Sketch,
}

/// One resident window: a slot per instrument, indexed like the
/// registry's instrument lists. Slots appear when first stamped, so an
/// untouched window (a gap the ring spans) owns no heap memory.
#[derive(Debug, Clone, Default)]
struct Window {
    /// Counter deltas.
    counters: Vec<u64>,
    /// Per gauge, the `(cycle, value)` pair with the greatest stamp.
    gauges: Vec<Option<(u64, u64)>>,
    /// Per histogram, the raw samples in arrival order.
    hists: Vec<Vec<u64>>,
}

/// Slot `i` of a window's per-instrument list, created on first touch.
fn slot<T: Default>(slots: &mut Vec<T>, i: usize) -> &mut T {
    if slots.len() <= i {
        slots.resize_with(i + 1, T::default);
    }
    &mut slots[i]
}

/// A windowed metrics registry stamped in virtual cycles.
#[derive(Debug, Clone)]
pub struct Telemetry {
    window_cycles: u64,
    counters: Vec<Counter>,
    gauges: Vec<Gauge>,
    hists: Vec<Hist>,
    /// First window not yet evicted; every window below it is gone.
    evicted: u64,
    /// Resident windows, dense: `ring[i]` is window `evicted + i`, and
    /// the last one is the farthest any stamp has reached.
    ring: VecDeque<Window>,
}

impl Telemetry {
    /// A registry whose tumbling windows are `window_cycles` long.
    ///
    /// # Panics
    ///
    /// Panics if `window_cycles` is zero.
    #[must_use]
    pub fn new(window_cycles: u64) -> Self {
        assert!(window_cycles > 0, "telemetry window must be at least one cycle");
        Self {
            window_cycles,
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
            evicted: 0,
            ring: VecDeque::new(),
        }
    }

    /// Window length in cycles.
    #[must_use]
    pub fn window_cycles(&self) -> u64 {
        self.window_cycles
    }

    fn assert_fresh(&self, name: &str) {
        let taken = self
            .counters
            .iter()
            .map(|c| c.name.as_str())
            .chain(self.gauges.iter().map(|g| g.name.as_str()))
            .chain(self.hists.iter().map(|h| h.name.as_str()))
            .any(|n| n == name);
        assert!(!taken, "telemetry instrument {name:?} registered twice");
    }

    /// Register a monotonically accumulating counter.
    pub fn counter(&mut self, name: &str) -> CounterId {
        self.assert_fresh(name);
        self.counters.push(Counter { name: name.to_string(), ..Counter::default() });
        CounterId(self.counters.len() - 1)
    }

    /// Register a last-writer-wins level gauge.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        self.assert_fresh(name);
        self.gauges.push(Gauge { name: name.to_string(), ..Gauge::default() });
        GaugeId(self.gauges.len() - 1)
    }

    /// Register a histogram whose run total is exact.
    pub fn hist(&mut self, name: &str) -> HistId {
        self.hist_with(name, Sketch::exact())
    }

    /// Register a histogram whose run total is a bounded-memory
    /// [`Sketch`] with relative-error bound `gamma`. Per-window
    /// histograms stay exact either way — a window's samples are
    /// dropped as it is evicted — so what persists across the run is
    /// two sketches per instrument (the total and the merge of the
    /// evicted windows it is checked against), independent of run
    /// length.
    pub fn hist_sketch(&mut self, name: &str, gamma: f64) -> HistId {
        self.hist_with(name, Sketch::new(gamma))
    }

    fn hist_with(&mut self, name: &str, total: Sketch) -> HistId {
        self.assert_fresh(name);
        let evicted = total.fresh_like();
        self.hists.push(Hist { name: name.to_string(), total, evicted });
        HistId(self.hists.len() - 1)
    }

    /// The resident window `cycle` falls in, growing the ring to reach it.
    fn window_at(&mut self, cycle: u64) -> &mut Window {
        let w = cycle / self.window_cycles;
        let Some(ahead) = w.checked_sub(self.evicted) else {
            panic!(
                "stamp at cycle {cycle} lands in flushed window {w} (watermark {})",
                self.evicted
            );
        };
        assert!(
            ahead <= MAX_RESIDENT_WINDOWS,
            "stamp at cycle {cycle} lands {ahead} windows ahead of the first resident one \
             (at most {MAX_RESIDENT_WINDOWS})"
        );
        #[allow(clippy::cast_possible_truncation)] // <= 2^20
        let ahead = ahead as usize;
        if ahead >= self.ring.len() {
            self.ring.resize_with(ahead + 1, Window::default);
        }
        &mut self.ring[ahead]
    }

    /// Add `delta` to a counter at virtual cycle `cycle`.
    ///
    /// # Panics
    ///
    /// Like every stamp: panics if `cycle` falls in an already-evicted
    /// window or more than [`MAX_RESIDENT_WINDOWS`] ahead of the first
    /// resident one.
    pub fn add(&mut self, id: CounterId, cycle: u64, delta: u64) {
        self.counters[id.0].total += delta;
        *slot(&mut self.window_at(cycle).counters, id.0) += delta;
    }

    /// Set a gauge to `value` at virtual cycle `cycle`. Within a window
    /// the greatest stamp wins; an equal stamp lets the later write win.
    ///
    /// # Panics
    ///
    /// On a stamp outside the resident range, as [`Self::add`].
    pub fn set(&mut self, id: GaugeId, cycle: u64, value: u64) {
        let held = slot(&mut self.window_at(cycle).gauges, id.0);
        if held.is_none_or(|(stamp, _)| cycle >= stamp) {
            *held = Some((cycle, value));
        }
    }

    /// Record `value` into a histogram at virtual cycle `cycle`.
    ///
    /// # Panics
    ///
    /// On a stamp outside the resident range, as [`Self::add`].
    pub fn observe(&mut self, id: HistId, cycle: u64, value: u64) {
        self.hists[id.0].total.record(value);
        slot(&mut self.window_at(cycle).hists, id.0).push(value);
    }

    /// Materialize the dense time series: one snapshot per window from 0
    /// through the last window any instrument touched. This is the
    /// evicting walk streaming mode runs ([`Self::evict_next`]), run
    /// start to finish over a copy with the snapshots kept, so a
    /// materialized series and a streamed one cannot disagree.
    ///
    /// # Panics
    ///
    /// Panics if any counter's window deltas fail to sum to its run
    /// total or any histogram's windows fail to re-merge to its run
    /// total — that would mean the registry itself is broken, and a
    /// corrupt series must never be exported silently.
    #[must_use]
    pub fn series(&self) -> TimeSeries {
        let mut tel = self.clone();
        let windows = (0..tel.resident_windows()).map(|_| tel.evict_next()).collect();
        tel.assert_conserved();
        let (counter_names, gauge_names, hist_names) = tel.instrument_names();
        TimeSeries {
            window_cycles: tel.window_cycles,
            counter_names,
            gauge_names,
            hist_names,
            counter_totals: tel.all_counter_totals(),
            hist_totals: tel.all_hist_totals(),
            windows,
        }
    }

    /// Instrument names in registration order, for exporters that run
    /// before any window is materialized.
    pub(crate) fn instrument_names(&self) -> (Vec<String>, Vec<String>, Vec<String>) {
        (
            self.counters.iter().map(|c| c.name.clone()).collect(),
            self.gauges.iter().map(|g| g.name.clone()).collect(),
            self.hists.iter().map(|h| h.name.clone()).collect(),
        )
    }

    /// Windows evicted so far: the walk is dense from window 0, so this
    /// is also the first window still resident.
    pub(crate) fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The one window walk: pop the next window off the ring and return
    /// its snapshot — counter deltas, gauge levels carried forward
    /// across empty windows, the window's histograms built from their
    /// sample buffers — folding what leaves into the per-instrument sums
    /// [`Self::assert_conserved`] checks against the run totals.
    pub(crate) fn evict_next(&mut self) -> WindowSnapshot {
        let w = self.evicted;
        self.evicted += 1;
        let Window { counters, gauges, hists } = self.ring.pop_front().unwrap_or_default();
        // A window lists only the instruments stamped in it.
        let mut deltas = counters.into_iter();
        let mut levels = gauges.into_iter();
        let mut samples = hists.into_iter();
        let evict_counter = |c: &mut Counter| {
            let delta = deltas.next().unwrap_or(0);
            c.evicted += delta;
            delta
        };
        let evict_gauge = |g: &mut Gauge| {
            if let Some((_, v)) = levels.next().flatten() {
                g.level = v;
            }
            g.level
        };
        let evict_hist = |h: &mut Hist| {
            let window = Histogram::from_samples(samples.next().unwrap_or_default());
            h.evicted.merge_hist(&window);
            window
        };
        WindowSnapshot {
            index: w,
            start_cycle: w * self.window_cycles,
            end_cycle: (w + 1) * self.window_cycles,
            counters: self.counters.iter_mut().map(evict_counter).collect(),
            gauges: self.gauges.iter_mut().map(evict_gauge).collect(),
            hists: self.hists.iter_mut().map(evict_hist).collect(),
        }
    }

    /// [`Self::evict_next`] if the next window ends at or before cycle
    /// `now` — the streaming watermark test, one multiplication.
    pub(crate) fn evict_closed(&mut self, now: u64) -> Option<WindowSnapshot> {
        let end = (self.evicted + 1).checked_mul(self.window_cycles)?;
        (end <= now).then(|| self.evict_next())
    }

    /// How many more [`Self::evict_next`] calls drain the registry:
    /// dense through the last window any stamp reached.
    pub(crate) fn resident_windows(&self) -> u64 {
        self.ring.len() as u64
    }

    /// The conservation checks over a drained registry.
    ///
    /// # Panics
    ///
    /// Panics if a counter's evicted deltas fail to sum to its run
    /// total or a histogram's evicted windows fail to re-merge to its
    /// run-total sketch.
    pub(crate) fn assert_conserved(&self) {
        for c in &self.counters {
            assert_eq!(
                c.evicted, c.total,
                "counter {} window deltas must sum to run total",
                c.name
            );
        }
        for h in &self.hists {
            assert_eq!(h.evicted, h.total, "hist {} windows must re-merge to run total", h.name);
        }
    }

    /// Run totals of every counter, in registration order.
    pub(crate) fn all_counter_totals(&self) -> Vec<u64> {
        self.counters.iter().map(|c| c.total).collect()
    }

    /// Run-total sketches of every histogram, in registration order.
    pub(crate) fn all_hist_totals(&self) -> Vec<Sketch> {
        self.hists.iter().map(|h| h.total.clone()).collect()
    }
}

/// CSV header row shared by [`TimeSeries::to_csv`] and the streaming
/// appender — both must emit byte-identical exports.
pub(crate) fn csv_header(
    counter_names: &[String],
    gauge_names: &[String],
    hist_names: &[String],
) -> String {
    let mut out = String::from("window,start_cycle,end_cycle");
    for n in counter_names {
        out.push(',');
        out.push_str(n);
    }
    for n in gauge_names {
        out.push(',');
        out.push_str(n);
    }
    for n in hist_names {
        for suffix in ["count", "p50", "p99", "p999", "max"] {
            out.push(',');
            out.push_str(n);
            out.push('_');
            out.push_str(suffix);
        }
    }
    out.push('\n');
    out
}

/// One window's CSV row (shared with the streaming appender).
pub(crate) fn csv_row(w: &WindowSnapshot) -> String {
    let mut out = format!("{},{},{}", w.index, w.start_cycle, w.end_cycle);
    for v in &w.counters {
        out.push_str(&format!(",{v}"));
    }
    for v in &w.gauges {
        out.push_str(&format!(",{v}"));
    }
    for h in &w.hists {
        let (p50, p99, p999) = h.p50_p99_p999();
        out.push_str(&format!(",{},{},{},{},{}", h.count(), p50, p99, p999, h.max().unwrap_or(0)));
    }
    out.push('\n');
    out
}

/// One window's JSON object (shared with the streaming appender).
pub(crate) fn window_json(w: &WindowSnapshot) -> Json {
    Json::obj([
        ("window", Json::U64(w.index)),
        ("start_cycle", Json::U64(w.start_cycle)),
        ("end_cycle", Json::U64(w.end_cycle)),
        ("counters", Json::arr(w.counters.iter().map(|&v| Json::U64(v)))),
        ("gauges", Json::arr(w.gauges.iter().map(|&v| Json::U64(v)))),
        ("hists", Json::arr(w.hists.iter().map(Histogram::summary_json))),
    ])
}

/// The series-document fields that precede the window array (shared
/// with the streaming appender, which emits them before any window has
/// closed).
pub(crate) fn series_header_json(
    window_cycles: u64,
    counter_names: &[String],
    gauge_names: &[String],
    hist_names: &[String],
) -> Json {
    let names = |ns: &[String]| Json::arr(ns.iter().map(|n| Json::Str(n.clone())));
    Json::obj([
        ("window_cycles", Json::U64(window_cycles)),
        ("counters", names(counter_names)),
        ("gauges", names(gauge_names)),
        ("hists", names(hist_names)),
    ])
}

/// The run-totals JSON object (shared with the streaming appender).
pub(crate) fn totals_json(counter_totals: &[u64], hist_totals: &[Sketch]) -> Json {
    Json::obj([
        ("counters", Json::arr(counter_totals.iter().map(|&v| Json::U64(v)))),
        ("hists", Json::arr(hist_totals.iter().map(Sketch::summary_json))),
    ])
}

/// One tumbling window's worth of metric activity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSnapshot {
    /// Window index (`start_cycle / window_cycles`).
    pub index: u64,
    /// First cycle covered (inclusive).
    pub start_cycle: u64,
    /// One past the last cycle covered (exclusive).
    pub end_cycle: u64,
    /// Counter deltas within the window, in registration order.
    pub counters: Vec<u64>,
    /// Gauge levels as of the window's close (carried forward), in
    /// registration order.
    pub gauges: Vec<u64>,
    /// Histogram of observations within the window, in registration
    /// order.
    pub hists: Vec<Histogram>,
}

/// The dense, exported form of a [`Telemetry`] registry.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    /// Window length in cycles.
    pub window_cycles: u64,
    /// Counter names, in registration order.
    pub counter_names: Vec<String>,
    /// Gauge names, in registration order.
    pub gauge_names: Vec<String>,
    /// Histogram names, in registration order.
    pub hist_names: Vec<String>,
    /// Run totals per counter (equal to the window-delta sums).
    pub counter_totals: Vec<u64>,
    /// Run-total sketches (equal to folding the window merges).
    pub hist_totals: Vec<Sketch>,
    /// Every window from index 0 through the last active one.
    pub windows: Vec<WindowSnapshot>,
}

impl TimeSeries {
    /// CSV export: one row per window. Counters are per-window deltas,
    /// gauges are end-of-window levels, histograms expand to
    /// `count/p50/p99/p999/max` columns.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = csv_header(&self.counter_names, &self.gauge_names, &self.hist_names);
        for w in &self.windows {
            out.push_str(&csv_row(w));
        }
        out
    }

    /// Canonical one-line JSON document of the full series plus run
    /// totals, suitable for byte-for-byte determinism comparison. The
    /// window array precedes the totals so a streaming exporter can
    /// append windows as they close and still produce the same bytes.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut doc = series_header_json(
            self.window_cycles,
            &self.counter_names,
            &self.gauge_names,
            &self.hist_names,
        );
        if let Json::Obj(fields) = &mut doc {
            fields.push(("windows".into(), Json::arr(self.windows.iter().map(window_json))));
            fields.push(("totals".into(), totals_json(&self.counter_totals, &self.hist_totals)));
        }
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpstream_util::check::run_cases;

    /// Every window histogram of instrument `i`, merged back together.
    fn remerged(s: &TimeSeries, i: usize) -> Histogram {
        let mut all = Histogram::new();
        for w in &s.windows {
            all.merge(&w.hists[i]);
        }
        all
    }

    #[test]
    fn counter_deltas_sum_to_total() {
        let mut t = Telemetry::new(100);
        let c = t.counter("jobs");
        t.add(c, 5, 1);
        t.add(c, 99, 2);
        t.add(c, 100, 3); // next window
        t.add(c, 950, 4);
        let s = t.series();
        assert_eq!(s.windows.len(), 10);
        assert_eq!(s.windows[0].counters[0], 3);
        assert_eq!(s.windows[1].counters[0], 3);
        assert_eq!(s.windows[9].counters[0], 4);
        assert_eq!(s.counter_totals[0], 10);
        assert_eq!(s.windows.iter().map(|w| w.counters[0]).sum::<u64>(), 10);
    }

    #[test]
    fn gauges_carry_forward_and_last_stamp_wins() {
        let mut t = Telemetry::new(10);
        let g = t.gauge("pending");
        t.set(g, 25, 7); // window 2
        t.set(g, 21, 3); // earlier stamp in same window loses
        t.set(g, 25, 9); // equal stamp: later write wins
        t.set(g, 55, 1); // window 5
        let s = t.series();
        let levels: Vec<u64> = s.windows.iter().map(|w| w.gauges[0]).collect();
        assert_eq!(levels, [0, 0, 9, 9, 9, 1]);
    }

    #[test]
    fn out_of_order_stamps_file_into_their_windows() {
        let mut t = Telemetry::new(50);
        let c = t.counter("done");
        let h = t.hist("lat");
        // Completions land in reverse cycle order, as batched service
        // can produce.
        for cycle in [160u64, 40, 90, 10] {
            t.add(c, cycle, 1);
            t.observe(h, cycle, cycle);
        }
        let s = t.series();
        let per_window: Vec<u64> = s.windows.iter().map(|w| w.counters[0]).collect();
        assert_eq!(per_window, [2, 1, 0, 1]);
        assert_eq!(s.windows[0].hists[0].max(), Some(40));
        let mut re = Sketch::exact();
        re.merge_hist(&remerged(&s, 0));
        assert_eq!(re, s.hist_totals[0]);
    }

    #[test]
    fn empty_registry_series_is_empty() {
        let mut t = Telemetry::new(64);
        let _ = t.counter("never");
        let s = t.series();
        assert!(s.windows.is_empty());
        assert_eq!(s.counter_totals, [0]);
        assert_eq!(s.to_csv(), "window,start_cycle,end_cycle,never\n");
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_are_rejected() {
        let mut t = Telemetry::new(1);
        let _ = t.counter("x");
        let _ = t.hist("x");
    }

    #[test]
    fn csv_and_json_are_deterministic_and_shaped() {
        let mut t = Telemetry::new(100);
        let c = t.counter("admits");
        let g = t.gauge("depth");
        let h = t.hist("latency");
        t.add(c, 10, 2);
        t.set(g, 150, 4);
        t.observe(h, 160, 900);
        t.observe(h, 170, 1100);
        let s = t.series();
        let csv = s.to_csv();
        assert!(csv.starts_with(
            "window,start_cycle,end_cycle,admits,depth,latency_count,latency_p50,latency_p99,latency_p999,latency_max\n"
        ));
        assert!(csv.contains("\n0,0,100,2,0,0,0,0,0,0\n"));
        assert!(csv.contains("\n1,100,200,0,4,2,900,1100,1100,1100\n"));
        let doc = s.to_json().to_doc_string();
        assert_eq!(doc, t.series().to_json().to_doc_string());
        assert!(doc.contains("\"window_cycles\":100"));
        let parsed = Json::parse(&doc).expect("series JSON must parse");
        assert_eq!(
            parsed
                .get("totals")
                .and_then(|t| t.get("counters"))
                .and_then(|a| a.as_arr())
                .map(<[Json]>::len),
            Some(1)
        );
    }

    #[test]
    fn windowed_hists_remerge_to_run_total_randomly() {
        // The crate-level invariant on random workloads: per-window
        // histograms merged back together equal the histogram fed by
        // the same observations, byte-identically (Histogram is Eq and
        // its summary JSON is value-determined).
        run_cases("telemetry-remerge", 0x6a79_2005, 64, |rng| {
            let window = 1 + rng.below(1000);
            let mut t = Telemetry::new(window);
            let h = t.hist("lat");
            let c = t.counter("events");
            let mut expect = Histogram::new();
            for _ in 0..rng.range_usize_inclusive(0, 500) {
                let cycle = rng.below(1 << 20);
                let v = rng.below(5000);
                t.observe(h, cycle, v);
                t.add(c, cycle, 1);
                expect.record(v);
            }
            let s = t.series(); // internally asserts delta-sum invariants
            assert_eq!(remerged(&s, 0), expect);
            let mut total = Sketch::exact();
            total.merge_hist(&expect);
            assert_eq!(s.hist_totals[0], total);
            assert_eq!(s.counter_totals[0], expect.count());
            assert_eq!(s.to_json().to_doc_string(), t.series().to_json().to_doc_string());
        });
    }

    #[test]
    fn evicted_accumulator_takes_the_form_of_the_total() {
        // What a streamed run keeps per histogram once its windows are
        // gone: in sketch form that must be buckets, not one entry per
        // distinct latency ever flushed (an exact accumulator grew to
        // 154 MB over 10^7 loaded jobs).
        for sketch in [true, false] {
            let mut t = Telemetry::new(100);
            let h = if sketch { t.hist_sketch("lat", 0.01) } else { t.hist("lat") };
            for i in 0..3 * gpstream_util::sketch::EXACT_DISTINCT_CAP as u64 {
                t.observe(h, i, 1_000 + 17 * i); // every value distinct, 100 to a window
            }
            (0..t.resident_windows()).for_each(|_| drop(t.evict_next()));
            t.assert_conserved();
            let Hist { evicted, total, .. } = &t.hists[0];
            assert_eq!(evicted, total);
            assert_eq!(evicted.is_promoted(), sketch);
            assert_eq!(evicted.kind(), if sketch { "sketch" } else { "exact" });
        }
    }

    #[test]
    fn sketch_totals_hold_the_remerge_invariant() {
        // A sketch-backed run total must equal folding the evicted
        // exact windows into a fresh sketch — the invariant the
        // streaming mode re-asserts over its flushed stream.
        run_cases("telemetry-sketch-remerge", 0x6a79_2005, 32, |rng| {
            let window = 1 + rng.below(1000);
            let mut t = Telemetry::new(window);
            let h = t.hist_sketch("lat", 0.01);
            for _ in 0..rng.range_usize_inclusive(0, 4000) {
                let cycle = rng.below(1 << 20);
                t.observe(h, cycle, rng.below(1 << 24));
            }
            let s = t.series(); // asserts the same invariant internally
            let mut re = s.hist_totals[0].fresh_like();
            re.merge_hist(&remerged(&s, 0));
            assert_eq!(re, s.hist_totals[0]);
            assert_eq!(s.hist_totals[0].kind(), "sketch");
            let doc = s.to_json().to_doc_string();
            assert!(doc.contains("\"estimator\":\"sketch\""));
        });
    }
}
