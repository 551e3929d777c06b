//! The ring-buffer recorder: the standard [`TraceSink`] implementation.
//!
//! Timeline events (kernel/block spans, request lifecycle, counters)
//! land in a bounded ring buffer — when full, the *oldest* events are
//! dropped and counted, so a long run degrades gracefully into "the
//! recent window" instead of unbounded memory. High-volume
//! per-warp statistics are folded into histograms on arrival and never
//! buffered individually; block spans additionally feed a block-duration
//! histogram and a bounded top-N "long pole" table, which is the
//! profiler's answer to "which block was the critical path?".

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::event::{KernelId, TraceEvent};
use crate::sink::TraceSink;

/// A fixed-bin histogram over `f64` samples.
///
/// Bins are defined by their upper edges; samples above the last edge
/// land in a final overflow bin. Linear and logarithmic constructors
/// cover the two uses here (lane-activity fractions and block
/// durations).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Upper edge of each regular bin, ascending.
    pub edges: Vec<f64>,
    /// Counts per bin; `counts.len() == edges.len() + 1` (overflow last).
    pub counts: Vec<u64>,
    /// Total samples recorded.
    pub total: u64,
    /// Sum of all samples (for the mean).
    pub sum: f64,
    /// Largest sample seen (0 when empty).
    pub max: f64,
}

impl Histogram {
    /// `bins` equal-width bins spanning `[lo, hi]`.
    pub fn linear(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins >= 1 && hi > lo, "degenerate histogram");
        let w = (hi - lo) / bins as f64;
        Self::from_edges((1..=bins).map(|i| lo + w * i as f64).collect())
    }

    /// `bins` log-spaced bins spanning `[lo, hi]` (both positive).
    pub fn log(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins >= 1 && hi > lo && lo > 0.0, "degenerate histogram");
        let r = (hi / lo).powf(1.0 / bins as f64);
        Self::from_edges((1..=bins).map(|i| lo * r.powi(i as i32)).collect())
    }

    fn from_edges(edges: Vec<f64>) -> Self {
        let n = edges.len();
        Self {
            edges,
            counts: vec![0; n + 1],
            total: 0,
            sum: 0.0,
            max: 0.0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        let bin = self
            .edges
            .iter()
            .position(|&e| v <= e)
            .unwrap_or(self.edges.len());
        self.counts[bin] += 1;
        self.total += 1;
        self.sum += v;
        if v > self.max {
            self.max = v;
        }
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }
}

/// One of the longest-running blocks seen so far.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LongPole {
    /// The launch the block belonged to.
    pub kernel: KernelId,
    /// Block index within that launch's grid.
    pub block: u32,
    /// SM it ran on.
    pub sm: u32,
    /// Dispatch time.
    pub start_ms: f64,
    /// Busy duration.
    pub dur_ms: f64,
}

/// An immutable snapshot of everything a [`Recorder`] has collected.
#[derive(Debug, Clone)]
pub struct TraceData {
    /// Buffered timeline events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Timeline events dropped because the ring was full.
    pub dropped: u64,
    /// Per-warp lane-activity fractions (1.0 = no divergence).
    pub divergence: Histogram,
    /// Per-warp idle-lane equivalents (`warp_size × (1 − activity)`),
    /// in units of lanes assuming 32-lane warps.
    pub idle_lanes: Histogram,
    /// Block busy durations (ms) — the tail of this distribution is the
    /// launch's load imbalance.
    pub block_durations: Histogram,
    /// The longest blocks, sorted by descending duration.
    pub long_poles: Vec<LongPole>,
    /// Warp records folded into the histograms.
    pub warps: u64,
    /// Block records seen.
    pub blocks: u64,
}

impl TraceData {
    /// Kernel spans in the buffer, in emission order.
    pub fn kernels(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Kernel { .. }))
    }

    /// Look up a buffered kernel span's name by id.
    pub fn kernel_name(&self, id: KernelId) -> Option<&'static str> {
        self.events.iter().find_map(|e| match e {
            TraceEvent::Kernel { id: k, name, .. } if *k == id => Some(*name),
            _ => None,
        })
    }
}

/// Default ring capacity: enough for every experiment in this repo while
/// bounding worst-case memory to a few tens of megabytes.
pub const DEFAULT_EVENT_CAPACITY: usize = 1 << 20;

/// How many long-pole blocks the recorder keeps.
pub const LONG_POLE_CAPACITY: usize = 32;

#[derive(Debug)]
struct Inner {
    events: VecDeque<TraceEvent>,
    dropped: u64,
    divergence: Histogram,
    idle_lanes: Histogram,
    block_durations: Histogram,
    long_poles: Vec<LongPole>,
    warps: u64,
    blocks: u64,
}

/// The standard sink: ring buffer + histograms + long-pole table.
///
/// Interior mutability is a `Mutex` so one recorder can be shared
/// (via `Arc`) across a device pool; emission happens on the
/// single-threaded timing-resolution path, so the lock is uncontended.
#[derive(Debug)]
pub struct Recorder {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder with [`DEFAULT_EVENT_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// A recorder whose ring holds at most `capacity` timeline events.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                events: VecDeque::new(),
                dropped: 0,
                divergence: Histogram::linear(0.0, 1.0, 10),
                idle_lanes: Histogram::linear(0.0, 32.0, 16),
                block_durations: Histogram::log(1e-7, 1e2, 27),
                long_poles: Vec::new(),
                warps: 0,
                blocks: 0,
            }),
        }
    }

    /// Snapshot everything collected so far.
    pub fn snapshot(&self) -> TraceData {
        let inner = self.inner.lock().expect("recorder poisoned");
        TraceData {
            events: inner.events.iter().copied().collect(),
            dropped: inner.dropped,
            divergence: inner.divergence.clone(),
            idle_lanes: inner.idle_lanes.clone(),
            block_durations: inner.block_durations.clone(),
            long_poles: inner.long_poles.clone(),
            warps: inner.warps,
            blocks: inner.blocks,
        }
    }

    /// Timeline events currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("recorder poisoned").events.len()
    }

    /// True if nothing has been buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for Recorder {
    fn event(&self, ev: &TraceEvent) {
        let mut inner = self.inner.lock().expect("recorder poisoned");
        match *ev {
            TraceEvent::Warp {
                units, active_frac, ..
            } => {
                // Aggregated only: high-volume, no timeline position.
                let _ = units;
                inner.divergence.record(active_frac.clamp(0.0, 1.0));
                inner
                    .idle_lanes
                    .record(32.0 * (1.0 - active_frac.clamp(0.0, 1.0)));
                inner.warps += 1;
                return;
            }
            TraceEvent::Block {
                kernel,
                block,
                sm,
                start_ms,
                end_ms,
                ..
            } => {
                let dur = (end_ms - start_ms).max(0.0);
                inner.block_durations.record(dur);
                inner.blocks += 1;
                let worst = inner.long_poles.last().map_or(0.0, |p| p.dur_ms);
                if inner.long_poles.len() < LONG_POLE_CAPACITY || dur > worst {
                    inner.long_poles.push(LongPole {
                        kernel,
                        block,
                        sm,
                        start_ms,
                        dur_ms: dur,
                    });
                    inner.long_poles.sort_by(|a, b| {
                        b.dur_ms.partial_cmp(&a.dur_ms).expect("durations are finite")
                    });
                    inner.long_poles.truncate(LONG_POLE_CAPACITY);
                }
            }
            _ => {}
        }
        if inner.events.len() >= self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(*ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CounterKind, KernelId};

    fn block(kernel: u64, idx: u32, dur: f64) -> TraceEvent {
        TraceEvent::Block {
            kernel: KernelId(kernel),
            device: 0,
            block: idx,
            sm: idx % 4,
            start_ms: 0.0,
            end_ms: dur,
        }
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::linear(0.0, 1.0, 4);
        for v in [0.1, 0.3, 0.9, 5.0] {
            h.record(v);
        }
        assert_eq!(h.total, 4);
        assert_eq!(h.counts[0], 1); // 0.1 ≤ 0.25
        assert_eq!(h.counts[1], 1); // 0.3 ≤ 0.5
        assert_eq!(h.counts[3], 1); // 0.9 ≤ 1.0
        assert_eq!(*h.counts.last().unwrap(), 1); // 5.0 overflows
        assert_eq!(h.max, 5.0);
        assert!((h.mean() - (0.1 + 0.3 + 0.9 + 5.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn log_histogram_spans_decades() {
        let mut h = Histogram::log(1e-3, 1e3, 6);
        h.record(1e-3);
        h.record(1.0);
        h.record(999.0);
        assert_eq!(h.total, 3);
        assert_eq!(h.counts.iter().sum::<u64>(), 3);
        assert_eq!(*h.counts.last().unwrap(), 0, "999 fits under the top edge");
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let r = Recorder::with_capacity(2);
        for i in 0..4u64 {
            r.event(&TraceEvent::Counter {
                counter: CounterKind::QueueDepth,
                ts_ms: i as f64,
                value: i as f64,
            });
        }
        let d = r.snapshot();
        assert_eq!(d.events.len(), 2);
        assert_eq!(d.dropped, 2);
        match d.events[0] {
            TraceEvent::Counter { ts_ms, .. } => assert_eq!(ts_ms, 2.0),
            ref e => panic!("unexpected {e:?}"),
        }
    }

    #[test]
    fn warps_fold_into_histograms_not_the_ring() {
        let r = Recorder::new();
        r.event(&TraceEvent::Warp {
            kernel: KernelId(1),
            block: 0,
            warp: 0,
            units: 10.0,
            active_frac: 0.25,
        });
        let d = r.snapshot();
        assert!(d.events.is_empty());
        assert_eq!(d.warps, 1);
        assert_eq!(d.divergence.total, 1);
        assert!((d.idle_lanes.sum - 24.0).abs() < 1e-12);
    }

    #[test]
    fn long_poles_keep_the_worst_blocks_sorted() {
        let r = Recorder::new();
        for i in 0..100 {
            r.event(&block(7, i, f64::from(i)));
        }
        let d = r.snapshot();
        assert_eq!(d.blocks, 100);
        assert_eq!(d.long_poles.len(), LONG_POLE_CAPACITY);
        assert_eq!(d.long_poles[0].dur_ms, 99.0);
        assert!(d
            .long_poles
            .windows(2)
            .all(|w| w[0].dur_ms >= w[1].dur_ms));
        assert_eq!(d.block_durations.total, 100);
    }
}
