//! The ring-buffer recorder: the standard [`TraceSink`] implementation.
//!
//! Timeline events (kernel/block spans, request lifecycle, counters)
//! land in a bounded ring buffer — when full, the *oldest* events are
//! dropped and counted, so a long run degrades gracefully into "the
//! recent window" instead of unbounded memory. High-volume
//! per-warp statistics are folded into an idle-lane [`LogHistogram`] on
//! arrival and never buffered individually; block spans additionally
//! feed a block-duration [`LogHistogram`] and a bounded top-N "long
//! pole" table, which is the profiler's answer to "which block was the
//! critical path?".

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::event::{KernelId, TraceEvent};
use crate::hist::LogHistogram;
use crate::sink::TraceSink;

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
    /// Per-warp idle-lane equivalents, one sample per warp record.
    pub idle_lanes: LogHistogram,
    /// Block busy durations (ms), one sample per block record — the
    /// tail of this distribution is the launch's load imbalance.
    pub block_durations: LogHistogram,
    /// The longest blocks, sorted by descending duration.
    pub long_poles: Vec<LongPole>,
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
    idle_lanes: LogHistogram,
    block_durations: LogHistogram,
    long_poles: Vec<LongPole>,
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
                idle_lanes: LogHistogram::new(),
                block_durations: LogHistogram::new(),
                long_poles: Vec::new(),
            }),
        }
    }

    /// Snapshot everything collected so far.
    pub fn snapshot(&self) -> TraceData {
        let inner = self.inner.lock().expect("recorder poisoned");
        TraceData {
            events: inner.events.iter().copied().collect(),
            dropped: inner.dropped,
            idle_lanes: inner.idle_lanes.clone(),
            block_durations: inner.block_durations.clone(),
            long_poles: inner.long_poles.clone(),
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
            TraceEvent::Warp { idle_lanes, .. } => {
                // Aggregated only: high-volume, no timeline position.
                inner.idle_lanes.record(idle_lanes);
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
            idle_lanes: 24.0,
        });
        let d = r.snapshot();
        assert!(d.events.is_empty());
        assert_eq!(d.idle_lanes.count, 1);
        assert_eq!(d.idle_lanes.sum, 24.0);
    }

    #[test]
    fn long_poles_keep_the_worst_blocks_sorted() {
        let r = Recorder::new();
        for i in 0..100 {
            r.event(&block(7, i, f64::from(i)));
        }
        let d = r.snapshot();
        assert_eq!(d.long_poles.len(), LONG_POLE_CAPACITY);
        assert_eq!(d.long_poles[0].dur_ms, 99.0);
        assert!(d
            .long_poles
            .windows(2)
            .all(|w| w[0].dur_ms >= w[1].dur_ms));
        assert_eq!(d.block_durations.count, 100);
        assert_eq!(d.block_durations.max, 99.0);
    }
}
