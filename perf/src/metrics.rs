//! Metric definitions and the result a run prints.
//!
//! `BENCHMARK.json` at the repository root repeats these names, units and
//! directions and adds each end-to-end metric's regression bound; a unit
//! test keeps the two in step.

use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// A metric's name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Metrics a user of the system sees, printed by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("host_mnnz_per_s", "Mnnz/s"),
    lower("host_op_p50_ms", "ms"),
    lower("host_op_p90_ms", "ms"),
    lower("sim_latency_p50_ms", "ms"),
    lower("sim_latency_p90_ms", "ms"),
    lower("peak_rss_mb", "MB"),
];

/// Schedule families and formats the SpMV sweep reports per cell.
pub const CELLS: [&str; 9] = [
    "thread-mapped",
    "warp-mapped",
    "block-mapped",
    "group-mapped",
    "merge-path",
    "work-queue",
    "lrb",
    "ell",
    "hybrid",
];

/// Metrics of single layers, printed by every traced run. A layer a
/// workload never calls reads 0.
pub fn per_layer() -> Vec<MetricDef> {
    let mut m = vec![
        lower("sparse.gen_s", "s"),
        lower("trace_overhead", "ratio"),
        lower("fail_frac", "share"),
    ];
    for span in SELF_SHARE_SPANS {
        m.push(lower(self_share_name(span), "share"));
    }
    for cell in CELLS {
        m.push(lower(cell_metric("simt.host_ns_per_nnz.", cell), "ns/nnz"));
    }
    m.push(higher("simt.exec_share", "share"));
    m.push(higher("simt.parallel2_speedup", "ratio"));
    for cell in CELLS.iter().copied().chain(["paper"]) {
        m.push(higher(cell_metric("simt.sim_gnnz_per_s.", cell), "Gnnz/s"));
    }
    for cell in CELLS {
        m.push(higher(cell_metric("simt.sm_utilization.", cell), "share"));
    }
    m.extend([
        lower("simt.sim_bytes_per_nnz", "B/nnz"),
        lower("loops.prepare_ns_per_nnz.merge-path", "ns/nnz"),
        lower("loops.prepare_ns_per_nnz.lrb", "ns/nnz"),
        lower("loops.lrb_sim_setup_share", "share"),
        lower("sparse.convert_ns_per_nnz.ell", "ns/nnz"),
        lower("sparse.convert_ns_per_nnz.hybrid", "ns/nnz"),
        lower("sparse.delta_touched_mean", "count"),
        lower("runtime.mutate_ns_per_nnz", "ns/nnz"),
        lower("runtime.serve_ns_per_nnz", "ns/nnz"),
        lower("runtime.request_host_ns_per_nnz_p50", "ns/nnz"),
        lower("runtime.request_host_ns_per_nnz_p90", "ns/nnz"),
        higher("runtime.plan_hit_rate", "share"),
        higher("runtime.memo_hit_rate", "share"),
        lower("runtime.memo_misses", "count"),
        lower("runtime.memo_stamp_mismatches", "count"),
        lower("runtime.retired_plans", "count"),
        lower("runtime.tune_explores", "count"),
        higher("runtime.tune_promotes", "count"),
        higher("runtime.batched_frac", "share"),
        higher("runtime.batch_size_mean", "count"),
        lower("runtime.sim_queue_share", "share"),
        higher("runtime.sim_capacity_rps", "1/s"),
        lower("runtime.retries", "count"),
        lower("runtime.plan_fallbacks", "count"),
        lower("shard.pagerank_ns_per_nnz", "ns/nnz"),
        lower("shard.serve_split_ns_per_nnz", "ns/nnz"),
        lower("shard.halo_bytes", "B"),
        lower("shard.merges", "count"),
        lower("shard.comm_share", "share"),
        higher("shard.sim_solve_gnnz_per_s", "Gnnz/s"),
        lower("shard.solve_iters", "count"),
    ]);
    m
}

/// Bench spans whose self time is reported as a share of all op time.
pub const SELF_SHARE_SPANS: [&str; 10] = [
    "op",
    "sparse.convert",
    "loops.prepare",
    "kernels.spmv",
    "runtime.serve",
    "runtime.request",
    "runtime.mutate",
    "shard.pagerank",
    "shard.serve_split",
    "shard.request",
];

/// `<span>.self_share`, interned for the metric table.
pub fn self_share_name(span: &str) -> &'static str {
    trace::label::intern(&format!("{span}.self_share"))
}

/// `<prefix><cell>`, interned for the metric table.
pub fn cell_metric(prefix: &str, cell: &str) -> &'static str {
    trace::label::intern(&format!("{prefix}{cell}"))
}

/// Samples lying strictly beyond the linear-interpolated `q`-quantile
/// of `n` samples (the ones `bench::quantile` does not reach).
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let pos = q * (n - 1) as f64;
    n - 1 - pos.floor() as usize
}

/// A timing percentile is reported only with at least ten samples
/// beyond it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The outcome of one workload run.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metrics with their values, in print order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Human-readable lines printed above the metric table.
    pub notes: Vec<String>,
}

/// The one-line JSON result: `correct`, `attempted`, `failed`, and each
/// metric as `name: {value, unit}`.
pub fn json_line<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl IntoIterator<Item = (&'a str, f64, &'a str)>,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        trace::json::escape_into(&mut out, name);
        out.push_str(": {\"value\": ");
        trace::json::number_into(&mut out, value);
        out.push_str(", \"unit\": ");
        trace::json::escape_into(&mut out, unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

impl Report {
    /// The one-line JSON result (the last line of standard output).
    pub fn json(&self) -> String {
        json_line(
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.iter().map(|(d, v)| (d.name, *v, d.unit)),
        )
    }

    /// The human-readable table.
    pub fn text(&self) -> String {
        let mut out = format!("== perf {} (seed {}) ==\n", self.workload, self.seed);
        for n in &self.notes {
            let _ = writeln!(out, "  {n}");
        }
        for (def, value) in &self.metrics {
            let better = match def.better {
                Better::Lower => "lower is better",
                Better::Higher => "higher is better",
            };
            let _ = writeln!(
                out,
                "  {:<40} {value:>22} {:<8} ({better})",
                def.name, def.unit
            );
        }
        let _ = writeln!(
            out,
            "  correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_a_hundred_samples_for_p90() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!(samples_beyond(100, 0.9) >= MIN_TAIL_SAMPLES);
        assert!(samples_beyond(90, 0.9) < MIN_TAIL_SAMPLES);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(samples_beyond(900, 0.99) < MIN_TAIL_SAMPLES);
        assert_eq!(samples_beyond(1, 0.5), 0);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let r = Report {
            workload: "w",
            seed: 1,
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![(END_TO_END[0], 0.8127)],
            notes: vec![],
        };
        let v = trace::json::parse(&r.json()).expect("valid JSON");
        let keys: Vec<&str> = v.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(
            m.get("value").and_then(trace::json::Value::as_num),
            Some(0.8127)
        );
        assert_eq!(
            m.get("unit").and_then(trace::json::Value::as_str),
            Some("s")
        );
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let all: Vec<MetricDef> = END_TO_END.iter().copied().chain(per_layer()).collect();
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(per_layer().len() <= 128);
        for m in &all {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{}",
                m.name
            );
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                m.name
            );
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the perf package");
        let doc = trace::json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(trace::json::Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(trace::json::Value::as_str)
                            .unwrap()
                            .to_owned()
                    };
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let ours = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|m| {
                    let better = if m.better == Better::Lower {
                        "lower"
                    } else {
                        "higher"
                    };
                    (m.name.to_owned(), m.unit.to_owned(), better.to_owned())
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(&per_layer()));
    }
}
