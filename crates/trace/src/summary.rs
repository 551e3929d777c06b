//! Plain-text profile rendering: a kernel table, the idle-lane and
//! block-duration histograms as ASCII bars over their log₂ buckets, and
//! the top-N long-pole-block report — the terminal-friendly view of the
//! same data the Chrome exporter ships to Perfetto.

use std::collections::BTreeMap;

use crate::event::{ShardPhase, TraceEvent, TunePhase};
use crate::hist::{LogHistogram, ZERO_BUCKET};
use crate::recorder::TraceData;

fn bar(count: u64, max: u64, width: usize) -> String {
    if max == 0 {
        return String::new();
    }
    let n = ((count as f64 / max as f64) * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

fn histogram_block(out: &mut String, title: &str, h: &LogHistogram, unit: &str) {
    out.push_str(&format!(
        "\n{title}: {} samples, mean {:.4}{unit}, max {:.4}{unit}\n",
        h.count,
        h.mean(),
        h.max
    ));
    if h.count == 0 {
        out.push_str("  (empty)\n");
        return;
    }
    let peak = h.buckets.values().copied().max().unwrap_or(0);
    for (&k, &c) in &h.buckets {
        let label = if k == ZERO_BUCKET {
            String::from("0")
        } else {
            format!("[2^{k}, 2^{})", k + 1)
        };
        out.push_str(&format!("  {label:<18} {c:>8} |{}\n", bar(c, peak, 40)));
    }
}

/// Render the whole profile as human-readable text.
pub fn render(data: &TraceData) -> String {
    let mut out = String::new();

    // Kernel table.
    let kernels: Vec<&TraceEvent> = data.kernels().collect();
    out.push_str(&format!(
        "== trace summary: {} kernels, {} blocks, {} warps, {} buffered events ({} dropped) ==\n",
        kernels.len(),
        data.block_durations.count,
        data.idle_lanes.count,
        data.events.len(),
        data.dropped
    ));
    if !kernels.is_empty() {
        out.push_str(&format!(
            "{:<28} {:>4} {:>7} {:>6} {:>12} {:>12}\n",
            "kernel", "dev", "stream", "grid", "start ms", "dur ms"
        ));
        for ev in &kernels {
            if let TraceEvent::Kernel {
                name,
                device,
                stream,
                start_ms,
                end_ms,
                grid_dim,
                ..
            } = ev
            {
                out.push_str(&format!(
                    "{name:<28} {device:>4} {stream:>7} {grid_dim:>6} {start_ms:>12.5} {:>12.5}\n",
                    end_ms - start_ms
                ));
            }
        }
    }

    histogram_block(&mut out, "idle-lane equivalents per warp", &data.idle_lanes, " lanes");
    histogram_block(&mut out, "block busy durations", &data.block_durations, " ms");

    // Long poles.
    out.push_str(&format!("\ntop {} long-pole blocks:\n", data.long_poles.len()));
    if data.long_poles.is_empty() {
        out.push_str("  (none recorded)\n");
    } else {
        out.push_str(&format!(
            "  {:<28} {:>8} {:>5} {:>12} {:>12}\n",
            "kernel", "block", "sm", "start ms", "busy ms"
        ));
        for p in &data.long_poles {
            let name = data.kernel_name(p.kernel).unwrap_or("<evicted>");
            out.push_str(&format!(
                "  {:<28} {:>8} {:>5} {:>12.5} {:>12.5}\n",
                name, p.block, p.sm, p.start_ms, p.dur_ms
            ));
        }
    }

    render_tune(&mut out, data);
    render_shards(&mut out, data);
    render_faults(&mut out, data);
    out
}

/// Autotuner activity: exploration counts per (kernel, schedule) and the
/// promotion decisions in order.
fn render_tune(out: &mut String, data: &TraceData) {
    let mut explores: BTreeMap<(&str, &str), u64> = BTreeMap::new();
    let mut promotes: Vec<(&str, &str, f64, f64)> = Vec::new();
    for ev in &data.events {
        if let TraceEvent::Tune {
            kernel,
            schedule,
            phase,
            ts_ms,
            cost_ms,
        } = ev
        {
            match phase {
                TunePhase::Explore => *explores.entry((kernel, schedule)).or_insert(0) += 1,
                TunePhase::Promote => promotes.push((kernel, schedule, *ts_ms, *cost_ms)),
            }
        }
    }
    if explores.is_empty() && promotes.is_empty() {
        return;
    }
    out.push_str("\nautotuner activity:\n");
    out.push_str(&format!(
        "  {:<12} {:<24} {:>9}\n",
        "kernel", "schedule", "explores"
    ));
    for ((kernel, schedule), n) in &explores {
        out.push_str(&format!("  {kernel:<12} {schedule:<24} {n:>9}\n"));
    }
    if !promotes.is_empty() {
        out.push_str(&format!(
            "  {:<12} {:<24} {:>12} {:>12}\n",
            "promoted", "schedule", "at ms", "cost ms"
        ));
        for (kernel, schedule, ts, cost) in &promotes {
            out.push_str(&format!(
                "  {kernel:<12} {schedule:<24} {ts:>12.5} {cost:>12.5}\n"
            ));
        }
    }
}

/// Sharded-serving activity: per-shard route counts, communication
/// bytes, and rejects.
fn render_shards(out: &mut String, data: &TraceData) {
    #[derive(Default)]
    struct Row {
        routed: u64,
        halo_bytes: f64,
        merge_bytes: f64,
        rejects: u64,
    }
    let mut rows: BTreeMap<u32, Row> = BTreeMap::new();
    for ev in &data.events {
        if let TraceEvent::Shard {
            shard,
            phase,
            value,
            ..
        } = ev
        {
            let row = rows.entry(*shard).or_default();
            match phase {
                ShardPhase::Route => row.routed += 1,
                ShardPhase::HaloExchange => row.halo_bytes += value,
                ShardPhase::Merge => row.merge_bytes += value,
                ShardPhase::Reject => row.rejects += 1,
            }
        }
    }
    if rows.is_empty() {
        return;
    }
    out.push_str("\nshard activity:\n");
    out.push_str(&format!(
        "  {:<6} {:>8} {:>14} {:>14} {:>8}\n",
        "shard", "routed", "halo bytes", "merge bytes", "rejects"
    ));
    for (shard, row) in &rows {
        out.push_str(&format!(
            "  {shard:<6} {:>8} {:>14.0} {:>14.0} {:>8}\n",
            row.routed, row.halo_bytes, row.merge_bytes, row.rejects
        ));
    }
}

/// Injected-fault counts per device and kind.
fn render_faults(out: &mut String, data: &TraceData) {
    let mut counts: BTreeMap<(u32, &str), u64> = BTreeMap::new();
    for ev in &data.events {
        if let TraceEvent::Fault { device, kind, .. } = ev {
            *counts.entry((*device, kind.name())).or_insert(0) += 1;
        }
    }
    if counts.is_empty() {
        return;
    }
    out.push_str("\ninjected faults:\n");
    for ((device, kind), n) in &counts {
        out.push_str(&format!("  device {device}: {kind} ×{n}\n"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::KernelId;
    use crate::recorder::Recorder;
    use crate::sink::TraceSink;

    #[test]
    fn renders_kernels_histograms_and_poles() {
        let r = Recorder::new();
        let k = KernelId::next();
        r.event(&TraceEvent::Kernel {
            id: k,
            name: "spmv/merge-path",
            device: 0,
            stream: 0,
            start_ms: 0.0,
            end_ms: 2.0,
            grid_dim: 4,
            block_dim: 256,
        });
        for b in 0..4 {
            r.event(&TraceEvent::Block {
                kernel: k,
                device: 0,
                block: b,
                sm: b,
                start_ms: 0.0,
                end_ms: 0.5 * f64::from(b + 1),
            });
            r.event(&TraceEvent::Warp {
                kernel: k,
                block: b,
                warp: 0,
                units: 10.0,
                idle_lanes: 16.0,
            });
        }
        let text = render(&r.snapshot());
        assert!(text.contains("spmv/merge-path"));
        assert!(text.contains("long-pole blocks"));
        assert!(text.contains("idle-lane equivalents per warp: 4 samples"));
        // Every warp idles 16 of 32 lanes: one log₂ bucket, [16, 32).
        assert!(text.contains("[2^4, 2^5)"));
        assert!(text.contains("block busy durations: 4 samples"));
    }

    #[test]
    fn empty_trace_renders_without_panic() {
        let r = Recorder::new();
        let text = render(&r.snapshot());
        assert!(text.contains("0 kernels"));
        assert!(!text.contains("autotuner activity"));
        assert!(!text.contains("shard activity"));
    }

    #[test]
    fn renders_tune_events() {
        let r = Recorder::new();
        r.event(&TraceEvent::Tune {
            kernel: "spmv",
            schedule: "group-mapped(16)",
            phase: crate::event::TunePhase::Explore,
            ts_ms: 1.0,
            cost_ms: 0.5,
        });
        r.event(&TraceEvent::Tune {
            kernel: "spmv",
            schedule: "group-mapped(16)",
            phase: crate::event::TunePhase::Promote,
            ts_ms: 2.0,
            cost_ms: 0.25,
        });
        let text = render(&r.snapshot());
        assert!(text.contains("autotuner activity"));
        assert!(text.contains("group-mapped(16)"));
        assert!(text.contains("promoted"));
    }

    #[test]
    fn renders_shard_events() {
        let r = Recorder::new();
        for (phase, value) in [
            (crate::event::ShardPhase::Route, 3.0),
            (crate::event::ShardPhase::HaloExchange, 4096.0),
            (crate::event::ShardPhase::Merge, 8192.0),
            (crate::event::ShardPhase::Reject, 5.0),
        ] {
            r.event(&TraceEvent::Shard {
                shard: 1,
                phase,
                ts_ms: 0.5,
                value,
            });
        }
        let text = render(&r.snapshot());
        assert!(text.contains("shard activity"));
        assert!(text.contains("4096"));
        assert!(text.contains("8192"));
    }

    #[test]
    fn renders_fault_events() {
        let r = Recorder::new();
        r.event(&TraceEvent::Fault {
            device: 2,
            kind: crate::event::FaultKind::Stall,
            ts_ms: 1.0,
            value: 2.0,
        });
        let text = render(&r.snapshot());
        assert!(text.contains("injected faults"));
        assert!(text.contains("device 2: stall ×1"));
    }
}
