//! `perf compare`: two `perf` executables (parent and change) run in
//! alternating pairs, judged against `BENCHMARK.json`'s bounds.
//!
//! Pair `i` runs both sides on the same seed, the parent first on even
//! `i` and the change first on odd `i`. A metric *improved* only if the
//! change wins at least nine tenths of the pairs (ties count for
//! neither) and the medians differ by more than the parent's
//! inter-quartile spread. Otherwise it is *unresolved* when the parent's
//! spread exceeds the bound (unless every change run beats every parent
//! run), *worse* when the change's median is worse by more than the
//! bound, and *unchanged* otherwise.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use bench::quantile;
use trace::json::Value;

use crate::metrics::Better;
use crate::workloads::WORKLOADS;

/// Judgement of one (workload, metric) pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    Unresolved,
}

/// Whether `c` reads better than `p`.
fn beats(better: Better, c: f64, p: f64) -> bool {
    match better {
        Better::Lower => c < p,
        Better::Higher => c > p,
    }
}

/// Pairs the change won; ties count for neither side.
fn wins(parent: &[f64], change: &[f64], better: Better) -> usize {
    parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| beats(better, c, p))
        .count()
}

/// Apply the pair rule to matched samples (`parent[i]` and `change[i]`
/// ran as pair `i`).
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    assert_eq!(parent.len(), change.len(), "samples come in pairs");
    assert!(!parent.is_empty(), "no pairs");
    let beats = |c: f64, p: f64| beats(better, c, p);
    let wins = wins(parent, change, better);
    let (pm, cm) = (quantile(parent, 0.5), quantile(change, 0.5));
    let spread = quantile(parent, 0.75) - quantile(parent, 0.25);
    if 10 * wins >= 9 * parent.len() && beats(cm, pm) && (cm - pm).abs() > spread {
        return Verdict::Improved;
    }
    let scale = pm.abs().max(f64::MIN_POSITIVE);
    if spread / scale > bound {
        let all_better = change.iter().all(|&c| parent.iter().all(|&p| beats(c, p)));
        return if all_better {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = match better {
        Better::Lower => (cm - pm) / scale,
        Better::Higher => (pm - cm) / scale,
    };
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

struct Opts {
    parent: PathBuf,
    change: PathBuf,
    pairs: usize,
    seconds: String,
    seed: u64,
    workloads: Vec<String>,
    benchmark: PathBuf,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        parent: PathBuf::new(),
        change: PathBuf::new(),
        pairs: 10,
        seconds: "10".to_owned(),
        seed: 1,
        workloads: Vec::new(),
        benchmark: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--parent" => o.parent = value()?.into(),
            "--change" => o.change = value()?.into(),
            "--pairs" => o.pairs = value()?.parse().map_err(|e| format!("--pairs: {e}"))?,
            "--seconds" => o.seconds = value()?,
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--workload" => o.workloads.push(value()?),
            "--benchmark" => o.benchmark = value()?.into(),
            _ => return Err(format!("unknown compare argument {flag:?}")),
        }
    }
    if o.parent.as_os_str().is_empty() || o.change.as_os_str().is_empty() {
        return Err("compare needs --parent <exe> and --change <exe>".to_owned());
    }
    if o.pairs < 1 {
        return Err("--pairs must be at least 1".to_owned());
    }
    if o.workloads.is_empty() {
        o.workloads = WORKLOADS.iter().map(|w| (*w).to_owned()).collect();
    }
    Ok(o)
}

/// `(name, better, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn bounds(path: &PathBuf) -> Result<Vec<(String, Better, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = trace::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let better = match m.get("better").and_then(Value::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("{name}: better must be lower or higher")),
            };
            let bound = m
                .get("bound")
                .and_then(Value::as_num)
                .ok_or(format!("{name}: no bound"))?;
            Ok((name.to_owned(), better, bound))
        })
        .collect()
}

/// Run one side once; its metric values by name.
fn run_side(
    exe: &PathBuf,
    workload: &str,
    seed: u64,
    seconds: &str,
) -> Result<BTreeMap<String, f64>, String> {
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            seconds,
            "--trace",
            "0",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    let doc = trace::json::parse(last)
        .map_err(|e| format!("{} {workload}: result line: {e}", exe.display()))?;
    if !out.status.success() || doc.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!(
            "{} {workload} seed {seed}: run failed validation ({})",
            exe.display(),
            out.status
        ));
    }
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("result has no metrics")?;
    Ok(metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_num()?)))
        .collect())
}

/// Entry point of `perf compare`; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let run = || -> Result<(), String> {
        let o = parse(args)?;
        let defs = bounds(&o.benchmark)?;
        println!(
            "{:<15} {:<20} {:>28} {:>28} {:>6}  verdict",
            "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
        );
        for w in &o.workloads {
            let mut samples: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
            for i in 0..o.pairs {
                let seed = o.seed + i as u64;
                let (p, c) = if i % 2 == 0 {
                    let p = run_side(&o.parent, w, seed, &o.seconds)?;
                    (p, run_side(&o.change, w, seed, &o.seconds)?)
                } else {
                    let c = run_side(&o.change, w, seed, &o.seconds)?;
                    (run_side(&o.parent, w, seed, &o.seconds)?, c)
                };
                for (name, _, _) in &defs {
                    let (Some(&pv), Some(&cv)) = (p.get(name), c.get(name)) else {
                        return Err(format!("{w}: {name} missing from a result"));
                    };
                    let slot = samples.entry(name).or_default();
                    slot.0.push(pv);
                    slot.1.push(cv);
                }
                eprintln!("compare: {w} pair {}/{} done", i + 1, o.pairs);
            }
            for (name, better, bound) in &defs {
                let (p, c) = &samples[name.as_str()];
                let fmt = |xs: &[f64]| {
                    format!(
                        "{:.6} [{:.6}, {:.6}]",
                        quantile(xs, 0.5),
                        quantile(xs, 0.25),
                        quantile(xs, 0.75)
                    )
                };
                println!(
                    "{:<15} {:<20} {:>28} {:>28} {:>3}/{:<2}  {:?}",
                    w,
                    name,
                    fmt(p),
                    fmt(c),
                    wins(p, c, *better),
                    o.pairs,
                    verdict(p, c, *better, *bound)
                );
            }
        }
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perf compare: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ten(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * i as f64).collect()
    }

    #[test]
    fn identical_runs_are_unchanged() {
        let xs = ten(10.0, 0.01);
        assert_eq!(verdict(&xs, &xs, Better::Lower, 0.1), Verdict::Unchanged);
        // Bitwise-equal simulated metrics: all ties, no spread.
        let same = vec![0.25; 10];
        assert_eq!(
            verdict(&same, &same, Better::Lower, 0.05),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_clear_win_is_improved() {
        let parent = ten(10.0, 0.01);
        let change: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&change, &parent, Better::Higher, 0.1),
            Verdict::Improved
        );
    }

    #[test]
    fn eight_wins_of_ten_is_not_enough() {
        let parent = ten(10.0, 0.0);
        let mut change = vec![5.0; 10];
        change[0] = 11.0;
        change[1] = 11.0;
        assert_ne!(
            verdict(&parent, &change, Better::Lower, 0.1),
            Verdict::Improved
        );
    }

    #[test]
    fn a_win_inside_the_parent_spread_is_not_improved() {
        // The change wins every pair by a hair, but the medians differ by
        // less than the parent's inter-quartile spread.
        let parent = ten(10.0, 0.1);
        let change: Vec<f64> = parent.iter().map(|p| p - 0.01).collect();
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.5),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_regression_past_the_bound_is_worse() {
        let parent = ten(10.0, 0.01);
        let change: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.25),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&change, &parent, Better::Higher, 0.1),
            Verdict::Worse
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let parent = ten(10.0, 1.0); // IQR 4.5 on a median of 14.5
        let change: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // …unless every change run beats every parent run.
        let faster: Vec<f64> = parent.iter().map(|p| p - 10.0).collect();
        assert_ne!(
            verdict(&parent, &faster, Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }
}
