//! Streaming mode for the metrics registry: windows are finalized and
//! evicted as virtual time advances past them, so registry memory is
//! O(open windows) instead of O(windows in the run).
//!
//! [`StreamingTelemetry`] wraps a fully registered [`Telemetry`] and
//! re-exposes its stamping surface. The producer additionally calls
//! [`StreamingTelemetry::advance`] with its event-loop clock; any
//! window that ends at or before that watermark can never be stamped
//! again (the producer promises all future stamps are `>= now`; a stamp
//! into a flushed window falls off the front of the registry's window
//! ring and panics there), so it is finalized: popped off the ring — its
//! buffered samples sorted and summarized on the way out — and appended
//! to the CSV/JSON exports.
//!
//! The exports are built with the exact same helpers as
//! [`TimeSeries::to_csv`]/[`TimeSeries::to_json`], and the window walk
//! itself — dense order, gauge carry-forward, the two conservation
//! checks at the end — is the registry's own `evict_next`, the same
//! code [`Telemetry::series`] runs over a copy. The crate's tests
//! still assert the streamed exports are byte-identical to the
//! `series()` output on the same observations.
//!
//! [`TimeSeries::to_csv`]: crate::TimeSeries::to_csv
//! [`TimeSeries::to_json`]: crate::TimeSeries::to_json

use crate::registry::{
    csv_header, csv_row, series_header_json, totals_json, window_json, CounterId, GaugeId, HistId,
    Stamp, Telemetry, WindowSnapshot,
};
use gpstream_util::Sketch;

/// A [`Telemetry`] registry that finalizes and evicts tumbling windows
/// behind a virtual-time watermark.
pub struct StreamingTelemetry {
    tel: Telemetry,
    csv: String,
    /// Comma-joined window JSON fragments (the inside of the array).
    json_windows: String,
}

impl std::fmt::Debug for StreamingTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingTelemetry")
            .field("windows_flushed", &self.tel.evicted())
            .finish_non_exhaustive()
    }
}

impl StreamingTelemetry {
    /// Wrap a registry whose instruments are all registered. Further
    /// registration is intentionally impossible — the streamed CSV/JSON
    /// headers are emitted now, from the final instrument set.
    #[must_use]
    pub fn new(tel: Telemetry) -> Self {
        assert!(
            tel.resident_windows() == 0,
            "wrap the registry before stamping: already-filed windows cannot be streamed"
        );
        let (counter_names, gauge_names, hist_names) = tel.instrument_names();
        let csv = csv_header(&counter_names, &gauge_names, &hist_names);
        Self { tel, csv, json_windows: String::new() }
    }

    /// Windows finalized so far (dense from index 0).
    #[must_use]
    pub fn windows_flushed(&self) -> u64 {
        self.tel.evicted()
    }

    /// Add `delta` to a counter at virtual cycle `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` falls in an already-flushed window.
    pub fn add(&mut self, id: CounterId, cycle: u64, delta: u64) {
        self.tel.add(id, cycle, delta);
    }

    /// Set a gauge at virtual cycle `cycle` (see [`Telemetry::set`]).
    ///
    /// # Panics
    ///
    /// Panics if `cycle` falls in an already-flushed window.
    pub fn set(&mut self, id: GaugeId, cycle: u64, value: u64) {
        self.tel.set(id, cycle, value);
    }

    /// Record into a histogram at virtual cycle `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` falls in an already-flushed window.
    pub fn observe(&mut self, id: HistId, cycle: u64, value: u64) {
        self.tel.observe(id, cycle, value);
    }

    /// Every update at virtual cycle `cycle`, for one window lookup
    /// (see [`Telemetry::at`]).
    ///
    /// # Panics
    ///
    /// Panics if `cycle` falls in an already-flushed window.
    pub fn at(&mut self, cycle: u64) -> Stamp<'_> {
        self.tel.at(cycle)
    }

    /// Append one finalized window to the exports.
    fn export(&mut self, snap: &WindowSnapshot) {
        self.csv.push_str(&csv_row(snap));
        if snap.index > 0 {
            self.json_windows.push(',');
        }
        self.json_windows.push_str(&window_json(snap).to_string());
    }

    /// Advance the watermark to the producer's event-loop clock `now`,
    /// finalizing every window that ends at or before it. Safe exactly
    /// when every future stamp is `>= now` — which an event-driven
    /// producer processing events in time order gets for free.
    pub fn advance(&mut self, now: u64) {
        while let Some(snap) = self.tel.evict_closed(now) {
            self.export(&snap);
        }
    }

    /// Finalize every remaining window (dense through the last one any
    /// instrument touched), check the sum-to-total and re-merge
    /// invariants over the whole flushed stream, and return the
    /// completed exports.
    ///
    /// # Panics
    ///
    /// Panics if a flushed counter stream fails to sum to its run total
    /// or a flushed histogram stream fails to re-merge to its run-total
    /// sketch — a corrupt export must never be returned silently.
    #[must_use]
    pub fn finish(mut self) -> StreamedSeries {
        for _ in 0..self.tel.resident_windows() {
            let snap = self.tel.evict_next();
            self.export(&snap);
        }
        self.tel.assert_conserved();
        let counter_totals = self.tel.all_counter_totals();
        let hist_totals = self.tel.all_hist_totals();
        let hist_labels = self.tel.all_hist_labels();
        let (counter_names, gauge_names, hist_names) = self.tel.instrument_names();

        let window_cycles = self.tel.window_cycles();
        let mut json = series_header_json(window_cycles, &counter_names, &gauge_names, &hist_names)
            .to_string();
        assert_eq!(json.pop(), Some('}'), "header object must close with a brace");
        json.push_str(",\"windows\":[");
        json.push_str(&self.json_windows);
        json.push_str("],\"totals\":");
        json.push_str(&totals_json(&counter_totals, &hist_totals).to_string());
        json.push_str("}\n");

        StreamedSeries {
            window_cycles,
            counter_names,
            gauge_names,
            hist_names,
            counter_totals,
            hist_totals,
            hist_labels,
            windows_flushed: self.tel.evicted(),
            peak_buffered: self.tel.peak_buffered(),
            csv: self.csv,
            json,
        }
    }
}

/// The completed exports of a streamed run: run totals plus the
/// incrementally built CSV/JSON documents. Per-window state is gone —
/// it was flushed as the run progressed; only its serialized form and
/// its contribution to the totals remain.
#[derive(Debug, Clone)]
pub struct StreamedSeries {
    /// Window length in cycles.
    pub window_cycles: u64,
    /// Counter names, in registration order.
    pub counter_names: Vec<String>,
    /// Gauge names, in registration order.
    pub gauge_names: Vec<String>,
    /// Histogram names, in registration order.
    pub hist_names: Vec<String>,
    /// Run totals per counter (asserted equal to the flushed deltas).
    pub counter_totals: Vec<u64>,
    /// Run-total sketches (asserted equal to re-merging the flushed
    /// windows): each the merge of its histogram's `hist_labels`.
    pub hist_totals: Vec<Sketch>,
    /// Per-label run-total sketches of each histogram, in registration
    /// order.
    pub hist_labels: Vec<Vec<Sketch>>,
    /// Number of windows finalized (dense from index 0).
    pub windows_flushed: u64,
    /// Most histogram rows the registry held at once, in windows not yet
    /// flushed (for the serving harness, one row per completed job).
    pub peak_buffered: usize,
    /// CSV document, byte-identical to [`TimeSeries::to_csv`] on the
    /// same observations.
    ///
    /// [`TimeSeries::to_csv`]: crate::TimeSeries::to_csv
    pub csv: String,
    /// One-line JSON document (with trailing newline), byte-identical
    /// to [`TimeSeries::to_json`]`.to_doc_string()` on the same
    /// observations.
    ///
    /// [`TimeSeries::to_json`]: crate::TimeSeries::to_json
    pub json: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MAX_RESIDENT_WINDOWS;
    use gpstream_util::check::run_cases;
    use gpstream_util::Rng64;

    fn registered(window: u64, sketch: bool) -> (Telemetry, CounterId, GaugeId, HistId, HistId) {
        let mut t = Telemetry::new(window);
        let c = t.counter("events");
        let g = t.gauge("pending");
        let h = t.hist("lat");
        let hs = if sketch { t.hist_sketch("lat_sketch", 0.01) } else { t.hist("lat_sketch") };
        (t, c, g, h, hs)
    }

    /// Random stamp stream delivered in event-time order, as a
    /// discrete-event producer would: the watermark advances between
    /// some stamps (not all — several windows can close at once), and
    /// stamps land at or *ahead* of it, out of order among themselves (a
    /// completion filed at its future finish cycle), now and then
    /// hundreds of windows ahead, so the ring spans long untouched gaps.
    fn random_run(rng: &mut Rng64, sketch: bool) -> (StreamedSeries, crate::TimeSeries) {
        let window = 1 + rng.below(500);
        let n = rng.range_usize_inclusive(0, 600);
        let mut nows: Vec<u64> = (0..n).map(|_| rng.below(1 << 18)).collect();
        nows.sort_unstable();

        let (tel, c, g, h, hs) = registered(window, sketch);
        let mut stream = StreamingTelemetry::new(tel);
        let (mirror, mc, mg, mh, mhs) = registered(window, sketch);
        let mut mirror = mirror;

        for &now in &nows {
            if rng.bool() {
                stream.advance(now);
            }
            let reach = if rng.below(64) == 0 { window << 10 } else { 4 * window };
            let ahead = now + rng.below(reach + 1); // stamp at or after `now`
            let v = rng.below(10_000);
            match rng.below(4) {
                0 => {
                    stream.add(c, ahead, 1 + v % 5);
                    mirror.add(mc, ahead, 1 + v % 5);
                }
                1 => {
                    stream.set(g, ahead, v);
                    mirror.set(mg, ahead, v);
                }
                2 => {
                    stream.observe(h, ahead, v);
                    mirror.observe(mh, ahead, v);
                }
                _ => {
                    stream.observe(hs, ahead, v);
                    mirror.observe(mhs, ahead, v);
                }
            }
        }
        (stream.finish(), mirror.series())
    }

    #[test]
    fn streamed_exports_match_materialized_series_byte_for_byte() {
        run_cases("stream-vs-series", 0x6a79_2005, 64, |rng| {
            let sketch = rng.bool();
            let (streamed, series) = random_run(rng, sketch);
            assert_eq!(streamed.csv, series.to_csv());
            assert_eq!(streamed.json, series.to_json().to_doc_string());
            assert_eq!(streamed.counter_totals, series.counter_totals);
            assert_eq!(streamed.hist_totals, series.hist_totals);
            assert_eq!(streamed.windows_flushed, series.windows.len() as u64);
        });
    }

    #[test]
    fn empty_run_streams_an_empty_series() {
        let (tel, ..) = registered(100, false);
        let stream = StreamingTelemetry::new(tel);
        let (mirror, ..) = registered(100, false);
        let streamed = stream.finish();
        assert_eq!(streamed.windows_flushed, 0);
        assert_eq!(streamed.csv, mirror.series().to_csv());
        assert_eq!(streamed.json, mirror.series().to_json().to_doc_string());
    }

    #[test]
    fn csv_streams_every_window_in_order_and_registry_stays_bounded() {
        let (tel, c, _, h, _) = registered(10, true);
        let mut stream = StreamingTelemetry::new(tel);
        for now in 0..1000 {
            stream.advance(now);
            stream.add(c, now, 1);
            stream.observe(h, now, now % 97);
        }
        // Everything behind the watermark is flushed: at now=999 the
        // open window is 99, so 0..=98 are gone from the registry and
        // only the open window remains resident.
        assert_eq!(stream.windows_flushed(), 99);
        assert_eq!(stream.tel.resident_windows(), 1);
        let streamed = stream.finish();
        assert_eq!(streamed.windows_flushed, 100);
        let indices: Vec<u64> = streamed
            .csv
            .lines()
            .skip(1)
            .map(|row| row.split(',').next().and_then(|i| i.parse().ok()).expect("window index"))
            .collect();
        assert_eq!(indices, (0..100).collect::<Vec<u64>>());
        assert_eq!(streamed.counter_totals, [1000]);
        // One window's ten samples at a time, never two windows' worth.
        assert_eq!(streamed.peak_buffered, 10);
    }

    #[test]
    #[should_panic(expected = "flushed window")]
    fn stamping_behind_the_watermark_panics() {
        let (tel, c, ..) = registered(10, false);
        let mut stream = StreamingTelemetry::new(tel);
        stream.add(c, 5, 1);
        stream.advance(50);
        stream.add(c, 15, 1); // window 1 was flushed at watermark 50
    }

    /// A watermark at window 5, so the residency limit is seen to count
    /// from the first resident window, not from window 0.
    fn advanced_to_window_5() -> (StreamingTelemetry, CounterId) {
        let (tel, c, ..) = registered(10, false);
        let mut stream = StreamingTelemetry::new(tel);
        stream.advance(50);
        assert_eq!(stream.windows_flushed(), 5);
        (stream, c)
    }

    #[test]
    fn a_stamp_at_the_residency_limit_is_filed() {
        let (mut stream, c) = advanced_to_window_5();
        stream.add(c, (5 + MAX_RESIDENT_WINDOWS) * 10, 1);
        assert_eq!(stream.tel.resident_windows(), MAX_RESIDENT_WINDOWS + 1);
    }

    #[test]
    #[should_panic(expected = "windows ahead of the first resident one")]
    fn a_stamp_past_the_residency_limit_panics_instead_of_allocating() {
        let (mut stream, c) = advanced_to_window_5();
        stream.add(c, (5 + MAX_RESIDENT_WINDOWS + 1) * 10, 1);
    }

    #[test]
    #[should_panic(expected = "before stamping")]
    fn wrapping_a_stamped_registry_panics() {
        let (mut tel, c, ..) = registered(10, false);
        tel.add(c, 5, 1);
        let _ = StreamingTelemetry::new(tel);
    }
}
