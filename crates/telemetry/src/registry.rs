//! A deterministic metrics registry with tumbling windows in virtual time.
//!
//! Producers register named instruments up front (a counter, a gauge, or
//! a histogram) and then stamp every update with the virtual cycle it
//! happened at. The registry buckets updates into tumbling
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
//! * **Histograms** are registered in *rows* ([`Telemetry::hist_rows`]):
//!   histograms whose samples arrive together — a served job's queue,
//!   service and total latency — file one row per sample, a label (a
//!   tenant, say) and one value per histogram, appended to the window's
//!   buffer in one push. A plain [`Telemetry::hist`] is a row of one,
//!   label 0. Nothing else happens per sample: when the window is
//!   evicted, each histogram's column is read out of its rows once —
//!   recorded into its label's run total, a [`Sketch`] (its exact form
//!   by default, bounded-memory log buckets on request), and sorted for
//!   the window's exact [`Summary`]. The instrument's run total is the
//!   merge of its label totals; folding the evicted windows' sorted
//!   runs into a fresh sketch of the same form must equal it
//!   byte-for-byte (a sketch is a pure function of its sample multiset,
//!   however it was grouped), and both must hold every row filed.
//! * **Gauges** are last-writer-wins per window (greatest stamp wins,
//!   later write breaking ties) and carry forward across empty windows
//!   in the dense series — a gauge is a level, not a flow.
//!
//! A producer that updates several instruments at one cycle — the
//! serving harness files each completed job's counters and latencies at
//! its finish — takes a [`Stamp`] from [`Telemetry::at`]: one window
//! lookup for all of them. `add`, `set` and `observe` are one-update
//! stamps.
//!
//! Nothing here reads a clock: determinism is inherited from the
//! producer's virtual time, which is what lets the serving harness emit
//! byte-identical CSV/JSON series across runs and replay thread
//! counts.

use gpstream_util::{Json, Sketch, Summary};
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
    /// Run total per label; the instrument's run total is their merge.
    labels: Vec<Sketch>,
    /// Merge of the windows already evicted, in the totals' form — so in
    /// sketch form it is as bounded as the total it is checked against.
    evicted: Sketch,
}

impl Hist {
    /// The run total: the merge of the label totals.
    fn total(&self) -> Sketch {
        let mut total = self.evicted.fresh_like();
        self.labels.iter().for_each(|label| total.merge(label));
        total
    }
}

/// Histograms filed together ([`Telemetry::hist_rows`]): `hists[first..
/// first + width]`, one row per sample.
#[derive(Debug, Clone)]
struct Rows {
    first: usize,
    width: usize,
    labels: usize,
    /// Rows filed over the run, counted as they are pushed.
    filed: u64,
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
    /// Per row group, its rows in arrival order, flat: the label, then
    /// one value per histogram.
    rows: Vec<Vec<u64>>,
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
    /// Every histogram, row groups in registration order.
    hists: Vec<Hist>,
    /// The row groups, indexed by [`HistId`].
    rows: Vec<Rows>,
    /// First window not yet evicted; every window below it is gone.
    evicted: u64,
    /// Resident windows, dense: `ring[i]` is window `evicted + i`, and
    /// the last one is the farthest any stamp has reached.
    ring: VecDeque<Window>,
    /// Most histogram rows resident at once. Rows leave only by
    /// eviction, so the count just before each eviction is the peak.
    peak_buffered: usize,
    /// Histogram rows evicted so far: the rows resident are those filed
    /// less these, a running count instead of a walk of the ring.
    rows_evicted: u64,
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
            rows: Vec::new(),
            evicted: 0,
            ring: VecDeque::new(),
            peak_buffered: 0,
            rows_evicted: 0,
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

    /// Register a one-label histogram whose run total is exact: a row
    /// of one.
    pub fn hist(&mut self, name: &str) -> HistId {
        self.hist_rows(&[name], 1, None)
    }

    /// Register a one-label histogram whose run total is a
    /// bounded-memory [`Sketch`] with relative-error bound `gamma`.
    pub fn hist_sketch(&mut self, name: &str, gamma: f64) -> HistId {
        self.hist_rows(&[name], 1, Some(gamma))
    }

    /// Register the histograms `names`, filed together a row at a time
    /// ([`Stamp::observe`]): each row is one label below `labels` and
    /// one value per histogram. Each histogram's run total is kept per
    /// label — exact sketches, or bounded-memory ones with
    /// relative-error bound `gamma`. Per-window summaries stay exact
    /// either way — a window's rows are dropped as it is evicted — so
    /// what persists across the run is one sketch per label plus the
    /// merge of the evicted windows the total is checked against,
    /// independent of run length.
    ///
    /// # Panics
    ///
    /// Panics if `names` or `labels` is empty or a name is taken.
    pub fn hist_rows(&mut self, names: &[&str], labels: usize, gamma: Option<f64>) -> HistId {
        assert!(!names.is_empty() && labels > 0, "a row group needs a histogram and a label");
        let first = self.hists.len();
        for name in names {
            self.assert_fresh(name);
            let evicted = gamma.map_or_else(Sketch::exact, Sketch::new);
            let labels = vec![evicted.clone(); labels];
            self.hists.push(Hist { name: (*name).to_string(), labels, evicted });
        }
        self.rows.push(Rows { first, width: names.len(), labels, filed: 0 });
        HistId(self.rows.len() - 1)
    }

    /// The ring index of the resident window `cycle` falls in, growing
    /// the ring to reach it.
    fn window_at(&mut self, cycle: u64) -> usize {
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
        ahead
    }

    /// The resident window `cycle` falls in, for every update a
    /// producer makes at that cycle: one window lookup however many
    /// instruments it touches.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` falls in an already-evicted window or more than
    /// [`MAX_RESIDENT_WINDOWS`] ahead of the first resident one.
    pub fn at(&mut self, cycle: u64) -> Stamp<'_> {
        let w = self.window_at(cycle);
        Stamp {
            cycle,
            window: &mut self.ring[w],
            counters: &mut self.counters,
            rows: &mut self.rows,
        }
    }

    /// Add `delta` to a counter at virtual cycle `cycle`: a one-update
    /// [`Stamp::add`].
    ///
    /// # Panics
    ///
    /// On a stamp outside the resident range, as [`Self::at`].
    pub fn add(&mut self, id: CounterId, cycle: u64, delta: u64) {
        self.at(cycle).add(id, delta);
    }

    /// Set a gauge to `value` at virtual cycle `cycle`: a one-update
    /// [`Stamp::set`].
    ///
    /// # Panics
    ///
    /// On a stamp outside the resident range, as [`Self::at`].
    pub fn set(&mut self, id: GaugeId, cycle: u64, value: u64) {
        self.at(cycle).set(id, value);
    }

    /// Record `value` into a one-histogram row group's label 0 at
    /// virtual cycle `cycle`: a one-update [`Stamp::observe`].
    ///
    /// # Panics
    ///
    /// On a stamp outside the resident range, as [`Self::at`], or if
    /// `id` files rows of more than one histogram.
    pub fn observe(&mut self, id: HistId, cycle: u64, value: u64) {
        self.at(cycle).observe(id, 0, &[value]);
    }

    /// Materialize the dense time series: one snapshot per window from 0
    /// through the last window any instrument touched. This is the
    /// evicting walk streaming mode runs (`evict_next`), run
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
    /// across empty windows, each histogram's summary read off its
    /// sorted sample buffer — folding what leaves (a sorted buffer's
    /// runs, for a histogram) into the per-instrument sums
    /// [`Self::assert_conserved`] checks against the run totals.
    pub(crate) fn evict_next(&mut self) -> WindowSnapshot {
        self.peak_buffered = self.peak_buffered.max(self.buffered());
        let w = self.evicted;
        self.evicted += 1;
        let Window { counters, gauges, rows } = self.ring.pop_front().unwrap_or_default();
        // A window lists only the instruments stamped in it.
        let mut deltas = counters.into_iter();
        let mut levels = gauges.into_iter();
        let mut filed = rows.into_iter();
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
        // Each histogram's column of the window's rows, once: into its
        // label's run total, then sorted for the summary and the evicted
        // accumulator.
        let mut hists = Vec::with_capacity(self.hists.len());
        for g in &self.rows {
            let rows = filed.next().unwrap_or_default();
            let n = rows.len() / (g.width + 1);
            self.rows_evicted += n as u64;
            for (col, h) in self.hists[g.first..g.first + g.width].iter_mut().enumerate() {
                let mut column = Vec::with_capacity(n);
                for row in rows.chunks_exact(g.width + 1) {
                    #[allow(clippy::cast_possible_truncation)] // a label, below `g.labels`
                    h.labels[row[0] as usize].record(row[1 + col]);
                    column.push(row[1 + col]);
                }
                column.sort_unstable();
                for run in column.chunk_by(|a, b| a == b) {
                    h.evicted.record_n(run[0], run.len() as u64);
                }
                hists.push(Summary::of_sorted(&column));
            }
        }
        WindowSnapshot {
            index: w,
            start_cycle: w * self.window_cycles,
            end_cycle: (w + 1) * self.window_cycles,
            counters: self.counters.iter_mut().map(evict_counter).collect(),
            gauges: self.gauges.iter_mut().map(evict_gauge).collect(),
            hists,
        }
    }

    /// [`Self::evict_next`] if the next window ends at or before cycle
    /// `now` — the streaming watermark test, one multiplication.
    pub(crate) fn evict_closed(&mut self, now: u64) -> Option<WindowSnapshot> {
        let end = (self.evicted + 1).checked_mul(self.window_cycles)?;
        (end <= now).then(|| self.evict_next())
    }

    /// Histogram rows resident now: filed less evicted.
    #[allow(clippy::cast_possible_truncation)] // resident rows are in memory
    fn buffered(&self) -> usize {
        let filed: u64 = self.rows.iter().map(|g| g.filed).sum();
        (filed - self.rows_evicted) as usize
    }

    /// Most histogram rows resident at once, over the windows evicted so
    /// far.
    pub(crate) fn peak_buffered(&self) -> usize {
        self.peak_buffered
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
    /// total, or a histogram's evicted windows fail to re-merge to its
    /// run total, the merge of its label totals, or to hold every row
    /// filed.
    pub(crate) fn assert_conserved(&self) {
        for c in &self.counters {
            assert_eq!(
                c.evicted, c.total,
                "counter {} window deltas must sum to run total",
                c.name
            );
        }
        for g in &self.rows {
            for h in &self.hists[g.first..g.first + g.width] {
                let name = &h.name;
                assert_eq!(h.evicted, h.total(), "hist {name} windows must re-merge to run total");
                assert_eq!(h.evicted.count(), g.filed, "hist {name} windows must hold every row");
            }
        }
    }

    /// Run totals of every counter, in registration order.
    pub(crate) fn all_counter_totals(&self) -> Vec<u64> {
        self.counters.iter().map(|c| c.total).collect()
    }

    /// Run-total sketches of every histogram, in registration order.
    pub(crate) fn all_hist_totals(&self) -> Vec<Sketch> {
        self.hists.iter().map(Hist::total).collect()
    }

    /// Per-label run totals of every histogram, in registration order.
    pub(crate) fn all_hist_labels(&self) -> Vec<Vec<Sketch>> {
        self.hists.iter().map(|h| h.labels.clone()).collect()
    }
}

/// Every update a producer makes at one virtual cycle, filed into the
/// resident window that cycle falls in ([`Telemetry::at`]).
#[derive(Debug)]
pub struct Stamp<'a> {
    cycle: u64,
    window: &'a mut Window,
    counters: &'a mut [Counter],
    rows: &'a mut [Rows],
}

impl Stamp<'_> {
    /// Add `delta` to a counter.
    pub fn add(&mut self, id: CounterId, delta: u64) {
        self.counters[id.0].total += delta;
        *slot(&mut self.window.counters, id.0) += delta;
    }

    /// Set a gauge to `value`. Within a window the greatest stamp wins;
    /// an equal stamp lets the later write win.
    pub fn set(&mut self, id: GaugeId, value: u64) {
        let held = slot(&mut self.window.gauges, id.0);
        if held.is_none_or(|(stamp, _)| self.cycle >= stamp) {
            *held = Some((self.cycle, value));
        }
    }

    /// File one row of a histogram group ([`Telemetry::hist_rows`]):
    /// `label` and one value per histogram, appended to the window's
    /// rows in one push.
    ///
    /// # Panics
    ///
    /// Panics on a label the group was not registered with, or on a
    /// value count other than its width.
    pub fn observe(&mut self, id: HistId, label: usize, values: &[u64]) {
        let g = &mut self.rows[id.0];
        assert!(
            label < g.labels && values.len() == g.width,
            "a row of {} labels and {} histograms cannot take label {label} and {} values",
            g.labels,
            g.width,
            values.len()
        );
        g.filed += 1;
        let rows = slot(&mut self.window.rows, id.0);
        rows.push(label as u64);
        rows.extend_from_slice(values);
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
        out.push_str(&format!(",{},{},{},{},{}", h.count, h.p50, h.p99, h.p999, h.max));
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
        ("hists", Json::arr(w.hists.iter().map(Summary::to_json))),
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
    /// Exact summary of each histogram's observations within the
    /// window, in registration order.
    pub hists: Vec<Summary>,
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
    use gpstream_util::Rng64;
    use std::collections::BTreeMap;

    /// Each window's summary of instrument 0 against a sorted copy of
    /// the samples stamped into that window (dense: untouched windows
    /// summarize nothing).
    fn assert_window_summaries(s: &TimeSeries, stamped: &BTreeMap<u64, Vec<u64>>) {
        for w in &s.windows {
            let mut want = stamped.get(&w.index).cloned().unwrap_or_default();
            want.sort_unstable();
            assert_eq!(w.hists[0], Summary::of_sorted(&want), "window {}", w.index);
        }
    }

    /// `n` random `(cycle, value)` stamps into a registry of one
    /// histogram, also kept per window and recorded into `expect`.
    fn random_stamps(
        rng: &mut Rng64,
        t: &mut Telemetry,
        h: HistId,
        n: usize,
        bound: u64,
        expect: &mut Sketch,
    ) -> BTreeMap<u64, Vec<u64>> {
        let mut stamped: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for _ in 0..n {
            let cycle = rng.below(1 << 20);
            let v = rng.below(bound);
            t.observe(h, cycle, v);
            expect.record(v);
            stamped.entry(cycle / t.window_cycles()).or_default().push(v);
        }
        stamped
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
        let stamped = BTreeMap::from([(0, vec![40, 10]), (1, vec![90]), (3, vec![160])]);
        assert_window_summaries(&s, &stamped);
        assert_eq!(s.windows[0].hists[0].max, 40);
        let mut total = Sketch::exact();
        [160, 40, 90, 10].into_iter().for_each(|v| total.record(v));
        assert_eq!(s.hist_totals[0], total);
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
    fn window_summaries_read_their_sorted_samples_randomly() {
        // The crate-level invariant on random workloads: each window's
        // summary is read off exactly the samples stamped into it, and
        // the run total is the sketch fed by every one of them — checked
        // against a sorted copy per window, not against the registry's
        // own re-merge.
        run_cases("telemetry-window-summaries", 0x6a79_2005, 64, |rng| {
            let window = 1 + rng.below(1000);
            let mut t = Telemetry::new(window);
            let h = t.hist("lat");
            let c = t.counter("events");
            let mut expect = Sketch::exact();
            let n = rng.range_usize_inclusive(0, 500);
            let stamped = random_stamps(rng, &mut t, h, n, 5000, &mut expect);
            for (&w, samples) in &stamped {
                t.add(c, w * window, samples.len() as u64);
            }
            let s = t.series(); // internally asserts the conservation checks
            assert_window_summaries(&s, &stamped);
            assert_eq!(s.hist_totals[0], expect);
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
            // Nothing was evicted before the drain, so all were resident.
            assert_eq!(t.peak_buffered(), 3 * gpstream_util::sketch::EXACT_DISTINCT_CAP);
            let (evicted, total) = (&t.hists[0].evicted, &t.hists[0].total());
            assert_eq!(evicted, total);
            assert_eq!(evicted.is_promoted(), sketch);
            assert_eq!(evicted.kind(), if sketch { "sketch" } else { "exact" });
        }
    }

    #[test]
    fn sketch_totals_hold_the_remerge_invariant() {
        // A sketch-backed run total must equal the sketch fed every
        // sample, and folding the evicted windows' sorted runs into a
        // fresh sketch must equal it too — the invariant the streaming
        // mode re-asserts over its flushed stream.
        run_cases("telemetry-sketch-remerge", 0x6a79_2005, 32, |rng| {
            let window = 1 + rng.below(1000);
            let mut t = Telemetry::new(window);
            let h = t.hist_sketch("lat", 0.01);
            let mut expect = Sketch::new(0.01);
            let n = rng.range_usize_inclusive(0, 4000);
            let stamped = random_stamps(rng, &mut t, h, n, 1 << 24, &mut expect);
            let s = t.series(); // asserts the re-merge invariant internally
            assert_window_summaries(&s, &stamped);
            assert_eq!(s.hist_totals[0], expect);
            assert_eq!(s.hist_totals[0].kind(), "sketch");
            let doc = s.to_json().to_doc_string();
            assert!(doc.contains("\"estimator\":\"sketch\""));
        });
    }

    #[test]
    fn rows_file_like_their_histograms_one_sample_at_a_time() {
        // A labeled row group of two histograms against the same samples
        // observed one at a time into two one-label twins: the windows
        // and run totals agree byte for byte, each label total is the
        // sketch of exactly its own samples, and the peak counts rows.
        run_cases("telemetry-rows", 0x6a79_2005, 32, |rng| {
            let window = 1 + rng.below(1000);
            let labels = rng.range_usize_inclusive(1, 5);
            let gamma = rng.bool().then_some(0.01);
            let mut rows = Telemetry::new(window);
            let hr = rows.hist_rows(&["a", "b"], labels, gamma);
            let mut single = Telemetry::new(window);
            let hs = ["a", "b"].map(|name| single.hist_rows(&[name], 1, gamma));
            let fresh = gamma.map_or_else(Sketch::exact, Sketch::new);
            let mut per_label = vec![vec![fresh; labels]; 2];
            let n = rng.range_usize_inclusive(0, 40);
            for _ in 0..n {
                let cycle = rng.below(1 << 16);
                let mut stamp = rows.at(cycle);
                let label = rng.below_usize(labels);
                let values = [rng.below(1 << 20), rng.below(1 << 20)];
                stamp.observe(hr, label, &values);
                for (col, &v) in values.iter().enumerate() {
                    single.observe(hs[col], cycle, v);
                    per_label[col][label].record(v);
                }
            }
            let (r, s) = (rows.series(), single.series());
            assert_eq!(r.hist_totals, s.hist_totals);
            assert_eq!(r.to_json().to_doc_string(), s.to_json().to_doc_string());
            (0..rows.resident_windows()).for_each(|_| drop(rows.evict_next()));
            rows.assert_conserved();
            assert_eq!(rows.all_hist_labels(), per_label);
            assert!(rows.peak_buffered() <= n);
        });
    }

    /// The rows resident, counted by walking every window of the ring.
    fn recount_buffered(t: &Telemetry) -> usize {
        let rows_in = |w: &Window| -> usize {
            w.rows.iter().zip(&t.rows).map(|(buf, g)| buf.len() / (g.width + 1)).sum()
        };
        t.ring.iter().map(rows_in).sum()
    }

    #[test]
    fn the_running_row_count_equals_a_recount_before_every_eviction() {
        // Random stamps into two row groups of different widths, with
        // evictions interleaved: before each one the running count the
        // peak is taken from equals a walk of the resident windows, and
        // the peak is the largest of those walks.
        run_cases("telemetry-peak-buffered", 0x6a79_2005, 64, |rng| {
            let window = 1 + rng.below(100);
            let mut t = Telemetry::new(window);
            let (one, three) = (t.hist("one"), t.hist_rows(&["a", "b", "c"], 2, None));
            let mut peak = 0;
            for _ in 0..rng.range_usize_inclusive(0, 300) {
                if rng.bool_with(0.2) && t.resident_windows() > 0 {
                    let recount = recount_buffered(&t);
                    assert_eq!(t.buffered(), recount);
                    peak = peak.max(recount);
                    drop(t.evict_next());
                } else {
                    let cycle = t.evicted() * window + rng.below(8 * window);
                    if rng.bool() {
                        t.observe(one, cycle, rng.below(1000));
                    } else {
                        t.at(cycle).observe(three, rng.below_usize(2), &[1, 2, 3]);
                    }
                }
            }
            while t.resident_windows() > 0 {
                let recount = recount_buffered(&t);
                assert_eq!(t.buffered(), recount);
                peak = peak.max(recount);
                drop(t.evict_next());
            }
            assert_eq!(t.buffered(), 0);
            assert_eq!(t.peak_buffered(), peak);
            t.assert_conserved();
        });
    }

    #[test]
    #[should_panic(expected = "cannot take label 2 and 1 values")]
    fn a_row_outside_its_group_panics() {
        let mut t = Telemetry::new(10);
        let h = t.hist_rows(&["a", "b"], 2, None);
        t.at(5).observe(h, 2, &[7]);
    }
}
