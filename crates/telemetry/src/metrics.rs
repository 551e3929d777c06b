//! The windowed metrics registry.
//!
//! Every series is `(metric name, label set) → window → value`, where a
//! window is `floor(ts_ms / window_ms)` on the **simulated** clock —
//! never wall time — so two runs with the same seed produce identical
//! window assignments and therefore byte-identical exports. Label sets
//! are interned once into small ids; the hot recording path hashes two
//! `u32`s, not strings. All storage is `BTreeMap`, so iteration order
//! (and every exporter byte) is independent of insertion order.

use std::collections::BTreeMap;

use trace::LogHistogram;

/// An interned string id (metric name or canonical label set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymbolId(pub u32);

/// The empty label set's canonical form.
pub const NO_LABELS: &str = "";

/// A deduplicating string table. Ids are assigned in first-seen order;
/// exporters resolve ids back to strings and sort by the *strings*, so
/// interning order never leaks into output bytes.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    strings: Vec<String>,
    index: BTreeMap<String, SymbolId>,
}

impl Interner {
    /// Intern `s`, returning its stable id.
    pub fn intern(&mut self, s: &str) -> SymbolId {
        if let Some(&id) = self.index.get(s) {
            return id;
        }
        let id = SymbolId(self.strings.len() as u32);
        self.strings.push(s.to_string());
        self.index.insert(s.to_string(), id);
        id
    }

    /// Resolve an id back to its string.
    pub fn resolve(&self, id: SymbolId) -> &str {
        &self.strings[id.0 as usize]
    }
}

/// Render label pairs in canonical Prometheus form:
/// `key="value",key2="value2"`. Callers pass pairs in a fixed order per
/// call site, so equal label sets always produce equal strings.
pub fn labels(pairs: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out
}

/// One window of a gauge series: last-written value plus the window's
/// extrema (queue depth's interesting statistic is its peak, not its
/// final sample).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeWindow {
    /// Last sample written in the window.
    pub last: f64,
    /// Smallest sample in the window.
    pub min: f64,
    /// Largest sample in the window.
    pub max: f64,
    /// Samples written.
    pub samples: u64,
}

/// A series key: interned metric name + interned canonical label set.
pub type SeriesKey = (SymbolId, SymbolId);

/// The registry: three families of windowed series over one shared
/// interner.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    window_ms: f64,
    interner: Interner,
    counters: BTreeMap<SeriesKey, BTreeMap<u64, f64>>,
    gauges: BTreeMap<SeriesKey, BTreeMap<u64, GaugeWindow>>,
    histograms: BTreeMap<SeriesKey, BTreeMap<u64, LogHistogram>>,
    last_ts_ms: f64,
}

impl MetricsRegistry {
    /// A registry bucketing samples into `window_ms`-wide windows of the
    /// simulated clock.
    pub fn new(window_ms: f64) -> Self {
        assert!(window_ms > 0.0, "window must be positive");
        Self {
            window_ms,
            interner: Interner::default(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            last_ts_ms: 0.0,
        }
    }

    /// The configured window width in simulated milliseconds.
    pub fn window_ms(&self) -> f64 {
        self.window_ms
    }

    /// The window index a simulated timestamp falls into.
    pub fn window_of(&self, ts_ms: f64) -> u64 {
        let w = (ts_ms / self.window_ms).floor();
        if w <= 0.0 {
            0
        } else {
            w as u64
        }
    }

    /// Simulated start time of a window.
    pub fn window_start_ms(&self, window: u64) -> f64 {
        window as f64 * self.window_ms
    }

    /// The latest simulated timestamp any sample carried.
    pub fn last_ts_ms(&self) -> f64 {
        self.last_ts_ms
    }

    fn key(&mut self, name: &str, label_set: &str) -> SeriesKey {
        (self.interner.intern(name), self.interner.intern(label_set))
    }

    fn touch(&mut self, ts_ms: f64) {
        if ts_ms > self.last_ts_ms {
            self.last_ts_ms = ts_ms;
        }
    }

    /// Add `v` to a counter series' current window.
    pub fn counter_add(&mut self, name: &str, label_set: &str, ts_ms: f64, v: f64) {
        self.touch(ts_ms);
        let w = self.window_of(ts_ms);
        let key = self.key(name, label_set);
        *self
            .counters
            .entry(key)
            .or_default()
            .entry(w)
            .or_insert(0.0) += v;
    }

    /// Write a gauge sample into its window.
    pub fn gauge_set(&mut self, name: &str, label_set: &str, ts_ms: f64, v: f64) {
        self.touch(ts_ms);
        let w = self.window_of(ts_ms);
        let key = self.key(name, label_set);
        let win = self
            .gauges
            .entry(key)
            .or_default()
            .entry(w)
            .or_insert(GaugeWindow {
                last: v,
                min: v,
                max: v,
                samples: 0,
            });
        win.last = v;
        if v < win.min {
            win.min = v;
        }
        if v > win.max {
            win.max = v;
        }
        win.samples += 1;
    }

    /// Record a histogram sample into its window.
    pub fn hist_record(&mut self, name: &str, label_set: &str, ts_ms: f64, v: f64) {
        self.touch(ts_ms);
        let w = self.window_of(ts_ms);
        let key = self.key(name, label_set);
        self.histograms
            .entry(key)
            .or_default()
            .entry(w)
            .or_default()
            .record(v);
    }

    /// Sum of a counter series across all windows (0 for absent series).
    pub fn counter_total(&self, name: &str, label_set: &str) -> f64 {
        self.lookup(&self.counters, name, label_set)
            .map_or(0.0, |wins| wins.values().sum())
    }

    /// One window of a counter series (0 when nothing was recorded).
    pub fn counter_window(&self, name: &str, label_set: &str, window: u64) -> f64 {
        self.lookup(&self.counters, name, label_set)
            .and_then(|wins| wins.get(&window).copied())
            .unwrap_or(0.0)
    }

    /// One window of a gauge series.
    pub fn gauge_window(&self, name: &str, label_set: &str, window: u64) -> Option<GaugeWindow> {
        self.lookup(&self.gauges, name, label_set)
            .and_then(|wins| wins.get(&window).copied())
    }

    /// One window of a histogram series.
    pub fn hist_window(&self, name: &str, label_set: &str, window: u64) -> Option<&LogHistogram> {
        self.lookup(&self.histograms, name, label_set)
            .and_then(|wins| wins.get(&window))
    }

    /// All windows of a histogram series merged into one histogram —
    /// the whole-run distribution.
    pub fn hist_total(&self, name: &str, label_set: &str) -> LogHistogram {
        let mut total = LogHistogram::new();
        if let Some(wins) = self.lookup(&self.histograms, name, label_set) {
            for h in wins.values() {
                total.merge(h);
            }
        }
        total
    }

    fn lookup<'a, T>(
        &self,
        map: &'a BTreeMap<SeriesKey, BTreeMap<u64, T>>,
        name: &str,
        label_set: &str,
    ) -> Option<&'a BTreeMap<u64, T>> {
        let name = self.interner.index.get(name)?;
        let label = self.interner.index.get(label_set)?;
        map.get(&(*name, *label))
    }

    /// The highest window index any series touched (`None` when empty).
    pub fn max_window(&self) -> Option<u64> {
        let c = self.counters.values().filter_map(|w| w.keys().max());
        let g = self.gauges.values().filter_map(|w| w.keys().max());
        let h = self.histograms.values().filter_map(|w| w.keys().max());
        c.chain(g).chain(h).max().copied()
    }

    /// Counter series sorted by `(name, labels)` strings — exporter
    /// order, independent of interning order.
    pub fn counters_sorted(&self) -> Vec<(&str, &str, &BTreeMap<u64, f64>)> {
        Self::sorted(&self.interner, &self.counters)
    }

    /// Gauge series in exporter order.
    pub fn gauges_sorted(&self) -> Vec<(&str, &str, &BTreeMap<u64, GaugeWindow>)> {
        Self::sorted(&self.interner, &self.gauges)
    }

    /// Histogram series in exporter order.
    pub fn histograms_sorted(&self) -> Vec<(&str, &str, &BTreeMap<u64, LogHistogram>)> {
        Self::sorted(&self.interner, &self.histograms)
    }

    /// Label sets under one counter name, sorted.
    pub fn counter_label_sets(&self, name: &str) -> Vec<&str> {
        self.counters_sorted()
            .into_iter()
            .filter(|(n, _, _)| *n == name)
            .map(|(_, l, _)| l)
            .collect()
    }

    fn sorted<'a, T>(
        interner: &'a Interner,
        map: &'a BTreeMap<SeriesKey, BTreeMap<u64, T>>,
    ) -> Vec<(&'a str, &'a str, &'a BTreeMap<u64, T>)> {
        let mut rows: Vec<_> = map
            .iter()
            .map(|((n, l), wins)| (interner.resolve(*n), interner.resolve(*l), wins))
            .collect();
        rows.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_floor_of_simulated_time() {
        let reg = MetricsRegistry::new(10.0);
        assert_eq!(reg.window_of(0.0), 0);
        assert_eq!(reg.window_of(9.999), 0);
        assert_eq!(reg.window_of(10.0), 1);
        assert_eq!(reg.window_of(25.0), 2);
        assert_eq!(reg.window_start_ms(2), 20.0);
    }

    #[test]
    fn counters_accumulate_per_window() {
        let mut reg = MetricsRegistry::new(10.0);
        reg.counter_add("requests_total", NO_LABELS, 1.0, 1.0);
        reg.counter_add("requests_total", NO_LABELS, 2.0, 1.0);
        reg.counter_add("requests_total", NO_LABELS, 11.0, 1.0);
        assert_eq!(reg.counter_window("requests_total", NO_LABELS, 0), 2.0);
        assert_eq!(reg.counter_window("requests_total", NO_LABELS, 1), 1.0);
        assert_eq!(reg.counter_total("requests_total", NO_LABELS), 3.0);
        assert_eq!(reg.max_window(), Some(1));
    }

    #[test]
    fn gauges_track_window_extrema_and_last() {
        let mut reg = MetricsRegistry::new(10.0);
        for (t, v) in [(1.0, 3.0), (2.0, 8.0), (3.0, 5.0)] {
            reg.gauge_set("queue_depth", NO_LABELS, t, v);
        }
        let w = reg.gauge_window("queue_depth", NO_LABELS, 0).unwrap();
        assert_eq!(w.last, 5.0);
        assert_eq!(w.min, 3.0);
        assert_eq!(w.max, 8.0);
        assert_eq!(w.samples, 3);
        assert!(reg.gauge_window("queue_depth", NO_LABELS, 1).is_none());
    }

    #[test]
    fn label_sets_separate_series() {
        let mut reg = MetricsRegistry::new(10.0);
        let a = labels(&[("tenant", "0")]);
        let b = labels(&[("tenant", "1")]);
        assert_eq!(a, "tenant=\"0\"");
        reg.counter_add("outcomes_total", &a, 1.0, 2.0);
        reg.counter_add("outcomes_total", &b, 1.0, 5.0);
        assert_eq!(reg.counter_total("outcomes_total", &a), 2.0);
        assert_eq!(reg.counter_total("outcomes_total", &b), 5.0);
        assert_eq!(reg.counter_label_sets("outcomes_total"), vec![a.as_str(), b.as_str()]);
    }

    #[test]
    fn sorted_views_ignore_interning_order() {
        let mut reg = MetricsRegistry::new(10.0);
        reg.counter_add("zzz", NO_LABELS, 0.0, 1.0);
        reg.counter_add("aaa", NO_LABELS, 0.0, 1.0);
        let names: Vec<&str> = reg.counters_sorted().iter().map(|r| r.0).collect();
        assert_eq!(names, vec!["aaa", "zzz"]);
    }

    #[test]
    fn hist_total_merges_all_windows() {
        let mut reg = MetricsRegistry::new(10.0);
        reg.hist_record("latency_ms", NO_LABELS, 1.0, 2.0);
        reg.hist_record("latency_ms", NO_LABELS, 15.0, 8.0);
        let total = reg.hist_total("latency_ms", NO_LABELS);
        assert_eq!(total.count, 2);
        assert_eq!(total.min, 2.0);
        assert_eq!(total.max, 8.0);
    }
}
