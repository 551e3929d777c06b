//! Chrome Trace Event Format export.
//!
//! Produces the JSON-array flavour of the format — a bare `[...]` of
//! event objects — which `chrome://tracing` and Perfetto both accept.
//! Every object carries the full six-field shape `{name, ph, ts, dur,
//! pid, tid}` (instants and counters set `dur: 0`), plus `cat` and
//! `args` for correlation:
//!
//! * **pid** — the device index for device events, [`RUNTIME_PID`] for
//!   serving-runtime events;
//! * **tid** — the SM id for block spans, [`STREAM_TID_BASE`]` +
//!   stream` for kernel spans, the request id for request rows, 0 for
//!   counters;
//! * **ts / dur** — microseconds (simulated milliseconds × 1000).
//!
//! Span nesting is encoded twice: visually (a block's `[ts, ts+dur]`
//! lies inside its kernel's span; a request's dispatch lies inside its
//! request span on the same row) and structurally (`args.kernel`,
//! `args.id` correlate children with parents), so a test can parse the
//! file back and verify containment without relying on track layout.

use crate::event::TraceEvent;
use crate::json::{escape_into, number_into};
use crate::recorder::TraceData;

/// The `pid` under which serving-runtime (host-side) events appear.
pub const RUNTIME_PID: u32 = 1000;

/// Offset added to stream ids to keep stream rows clear of SM rows
/// within a device's process group.
pub const STREAM_TID_BASE: u32 = 10_000;

const MS_TO_US: f64 = 1e3;

struct Obj {
    out: String,
    first: bool,
}

impl Obj {
    fn new() -> Self {
        Self {
            out: String::from("{"),
            first: true,
        }
    }

    fn sep(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
    }

    fn str_field(&mut self, key: &str, v: &str) -> &mut Self {
        self.sep();
        escape_into(&mut self.out, key);
        self.out.push(':');
        escape_into(&mut self.out, v);
        self
    }

    fn num_field(&mut self, key: &str, v: f64) -> &mut Self {
        self.sep();
        escape_into(&mut self.out, key);
        self.out.push(':');
        number_into(&mut self.out, v);
        self
    }

    fn raw_field(&mut self, key: &str, raw: &str) -> &mut Self {
        self.sep();
        escape_into(&mut self.out, key);
        self.out.push(':');
        self.out.push_str(raw);
        self
    }

    fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

fn args(pairs: &[(&str, f64)]) -> String {
    let mut o = Obj::new();
    for (k, v) in pairs {
        o.num_field(k, *v);
    }
    o.finish()
}

/// Render one event as a Chrome Trace object, or `None` for events that
/// have no timeline representation (per-warp statistics).
fn render(ev: &TraceEvent) -> Option<String> {
    let mut o = Obj::new();
    match *ev {
        TraceEvent::Kernel {
            id,
            name,
            device,
            stream,
            start_ms,
            end_ms,
            grid_dim,
            block_dim,
        } => {
            o.str_field("name", name)
                .str_field("cat", "kernel")
                .str_field("ph", "X")
                .num_field("ts", start_ms * MS_TO_US)
                .num_field("dur", (end_ms - start_ms).max(0.0) * MS_TO_US)
                .num_field("pid", f64::from(device))
                .num_field("tid", f64::from(STREAM_TID_BASE + stream))
                .raw_field(
                    "args",
                    &args(&[
                        ("kernel", id.0 as f64),
                        ("grid_dim", f64::from(grid_dim)),
                        ("block_dim", f64::from(block_dim)),
                    ]),
                );
        }
        TraceEvent::Block {
            kernel,
            device,
            block,
            sm,
            start_ms,
            end_ms,
        } => {
            o.str_field("name", &format!("block {block}"))
                .str_field("cat", "block")
                .str_field("ph", "X")
                .num_field("ts", start_ms * MS_TO_US)
                .num_field("dur", (end_ms - start_ms).max(0.0) * MS_TO_US)
                .num_field("pid", f64::from(device))
                .num_field("tid", f64::from(sm))
                .raw_field(
                    "args",
                    &args(&[("kernel", kernel.0 as f64), ("block", f64::from(block))]),
                );
        }
        TraceEvent::Request { id, phase, ts_ms } => {
            o.str_field("name", phase.name())
                .str_field("cat", "request")
                .str_field("ph", "i")
                .str_field("s", "t")
                .num_field("ts", ts_ms * MS_TO_US)
                .num_field("dur", 0.0)
                .num_field("pid", f64::from(RUNTIME_PID))
                .num_field("tid", id as f64)
                .raw_field("args", &args(&[("id", id as f64)]));
        }
        TraceEvent::RequestSpan {
            id,
            start_ms,
            end_ms,
            device,
        } => {
            o.str_field("name", "request")
                .str_field("cat", "request")
                .str_field("ph", "X")
                .num_field("ts", start_ms * MS_TO_US)
                .num_field("dur", (end_ms - start_ms).max(0.0) * MS_TO_US)
                .num_field("pid", f64::from(RUNTIME_PID))
                .num_field("tid", id as f64)
                .raw_field("args", &args(&[("id", id as f64), ("device", f64::from(device))]));
        }
        TraceEvent::Dispatch {
            id,
            device,
            stream,
            start_ms,
            end_ms,
            batched,
        } => {
            o.str_field("name", "dispatch")
                .str_field("cat", "dispatch")
                .str_field("ph", "X")
                .num_field("ts", start_ms * MS_TO_US)
                .num_field("dur", (end_ms - start_ms).max(0.0) * MS_TO_US)
                .num_field("pid", f64::from(RUNTIME_PID))
                .num_field("tid", id as f64)
                .raw_field(
                    "args",
                    &args(&[
                        ("id", id as f64),
                        ("device", f64::from(device)),
                        ("stream", f64::from(stream)),
                        ("batched", if batched { 1.0 } else { 0.0 }),
                    ]),
                );
        }
        TraceEvent::Counter {
            counter,
            ts_ms,
            value,
        } => {
            o.str_field("name", counter.name())
                .str_field("cat", "counter")
                .str_field("ph", "C")
                .num_field("ts", ts_ms * MS_TO_US)
                .num_field("dur", 0.0)
                .num_field("pid", f64::from(RUNTIME_PID))
                .num_field("tid", 0.0)
                .raw_field("args", &args(&[("value", value)]));
        }
        TraceEvent::Shard {
            shard,
            phase,
            ts_ms,
            value,
        } => {
            o.str_field("name", phase.name())
                .str_field("cat", "shard")
                .str_field("ph", "i")
                .str_field("s", "t")
                .num_field("ts", ts_ms * MS_TO_US)
                .num_field("dur", 0.0)
                .num_field("pid", f64::from(RUNTIME_PID))
                .num_field("tid", f64::from(shard))
                .raw_field("args", &args(&[("value", value)]));
        }
        TraceEvent::Fault {
            device,
            kind,
            ts_ms,
            value,
        } => {
            o.str_field("name", kind.name())
                .str_field("cat", "fault")
                .str_field("ph", "i")
                .str_field("s", "g")
                .num_field("ts", ts_ms * MS_TO_US)
                .num_field("dur", 0.0)
                .num_field("pid", f64::from(device))
                .num_field("tid", 0.0)
                .raw_field("args", &args(&[("value", value)]));
        }
        TraceEvent::Tune {
            kernel,
            schedule,
            phase,
            ts_ms,
            cost_ms,
        } => {
            // Args carry two strings, so the numeric-only `args` helper
            // doesn't apply; build the object with the same escapers.
            let mut a = String::from("{");
            escape_into(&mut a, "kernel");
            a.push(':');
            escape_into(&mut a, kernel);
            a.push(',');
            escape_into(&mut a, "schedule");
            a.push(':');
            escape_into(&mut a, schedule);
            a.push(',');
            escape_into(&mut a, "cost_ms");
            a.push(':');
            number_into(&mut a, cost_ms);
            a.push('}');
            o.str_field("name", phase.name())
                .str_field("cat", "tune")
                .str_field("ph", "i")
                .str_field("s", "t")
                .num_field("ts", ts_ms * MS_TO_US)
                .num_field("dur", 0.0)
                .num_field("pid", f64::from(RUNTIME_PID))
                .num_field("tid", 0.0)
                .raw_field("args", &a);
        }
        TraceEvent::TenantSample {
            tenant,
            ts_ms,
            latency_ms,
            outcome,
        } => {
            o.str_field("name", outcome.name())
                .str_field("cat", "tenant")
                .str_field("ph", "i")
                .str_field("s", "t")
                .num_field("ts", ts_ms * MS_TO_US)
                .num_field("dur", 0.0)
                .num_field("pid", f64::from(RUNTIME_PID))
                .num_field("tid", f64::from(tenant))
                .raw_field(
                    "args",
                    &args(&[("tenant", f64::from(tenant)), ("latency_ms", latency_ms)]),
                );
        }
        TraceEvent::Warp { .. } => return None,
    }
    Some(o.finish())
}

/// Serialize buffered timeline events as a Chrome Trace Event JSON
/// array, ready for `chrome://tracing` or Perfetto.
pub fn to_chrome_json(data: &TraceData) -> String {
    let mut out = String::with_capacity(data.events.len() * 160 + 2);
    out.push_str("[\n");
    let mut first = true;
    for ev in &data.events {
        if let Some(obj) = render(ev) {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&obj);
        }
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CounterKind, KernelId, RequestPhase};
    use crate::json;
    use crate::recorder::Recorder;
    use crate::sink::TraceSink;

    #[test]
    fn export_is_valid_json_with_the_six_keys() {
        let r = Recorder::new();
        let k = KernelId::next();
        r.event(&TraceEvent::Kernel {
            id: k,
            name: "spmv",
            device: 0,
            stream: 0,
            start_ms: 0.0,
            end_ms: 1.5,
            grid_dim: 8,
            block_dim: 256,
        });
        r.event(&TraceEvent::Block {
            kernel: k,
            device: 0,
            block: 3,
            sm: 1,
            start_ms: 0.25,
            end_ms: 0.75,
        });
        r.event(&TraceEvent::Request {
            id: 42,
            phase: RequestPhase::Enqueue,
            ts_ms: 0.1,
        });
        r.event(&TraceEvent::Counter {
            counter: CounterKind::QueueDepth,
            ts_ms: 0.2,
            value: 3.0,
        });
        let text = to_chrome_json(&r.snapshot());
        let v = json::parse(&text).expect("valid JSON");
        let arr = v.as_arr().expect("array document");
        assert_eq!(arr.len(), 4);
        for obj in arr {
            for key in ["name", "ph", "ts", "dur", "pid", "tid"] {
                assert!(obj.get(key).is_some(), "missing {key} in {obj:?}");
            }
        }
        // Block nests inside its kernel span, correlated by args.kernel.
        let kernel = arr
            .iter()
            .find(|o| o.get("cat").and_then(|c| c.as_str()) == Some("kernel"))
            .unwrap();
        let block = arr
            .iter()
            .find(|o| o.get("cat").and_then(|c| c.as_str()) == Some("block"))
            .unwrap();
        assert_eq!(
            kernel.get("args").unwrap().get("kernel").unwrap().as_num(),
            block.get("args").unwrap().get("kernel").unwrap().as_num(),
        );
        let (kts, kdur) = (
            kernel.get("ts").unwrap().as_num().unwrap(),
            kernel.get("dur").unwrap().as_num().unwrap(),
        );
        let (bts, bdur) = (
            block.get("ts").unwrap().as_num().unwrap(),
            block.get("dur").unwrap().as_num().unwrap(),
        );
        assert!(bts >= kts && bts + bdur <= kts + kdur);
    }

    #[test]
    fn warp_events_are_not_exported() {
        let r = Recorder::new();
        r.event(&TraceEvent::Warp {
            kernel: KernelId(1),
            block: 0,
            warp: 0,
            units: 1.0,
            idle_lanes: 0.0,
        });
        let text = to_chrome_json(&r.snapshot());
        let v = json::parse(&text).expect("valid JSON");
        assert!(v.as_arr().unwrap().is_empty());
    }

    #[test]
    fn tune_events_export_schedule_and_cost() {
        let r = Recorder::new();
        r.event(&TraceEvent::Tune {
            kernel: "spmv",
            schedule: "group-mapped(16)",
            phase: crate::event::TunePhase::Promote,
            ts_ms: 2.5,
            cost_ms: 0.125,
        });
        let text = to_chrome_json(&r.snapshot());
        let v = json::parse(&text).expect("valid JSON");
        let arr = v.as_arr().unwrap();
        assert_eq!(arr.len(), 1);
        let ev = arr[0].as_obj().unwrap();
        assert_eq!(ev.get("name").unwrap().as_str().unwrap(), "tune_promote");
        assert_eq!(ev.get("cat").unwrap().as_str().unwrap(), "tune");
        let args = ev.get("args").unwrap().as_obj().unwrap();
        assert_eq!(args.get("kernel").unwrap().as_str().unwrap(), "spmv");
        assert_eq!(
            args.get("schedule").unwrap().as_str().unwrap(),
            "group-mapped(16)"
        );
        assert_eq!(args.get("cost_ms").unwrap().as_num().unwrap(), 0.125);
    }
}
