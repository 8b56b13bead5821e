//! `benchmark compare A B`: two sets of runs side by side.
//!
//! `A` and `B` hold the standard output of runs, concatenated; every line
//! that is a full record (it names its `workload`) counts as one run.
//! First the command totals each side's runs, operations attempted and
//! failed, and records that are not `correct`. Then, for every
//! workload × metric, it prints each side's quartiles across its runs
//! and the ratio of the medians, and judges the end-to-end metrics
//! against their bound in `BENCHMARK.json` (read from the working
//! directory, the repository root):
//!
//! * `unresolved` — either side's spread (interquartile range over
//!   median) exceeds the bound, so the runs cannot tell;
//! * `WORSE` — B's median is worse than A's by more than the bound;
//! * `better` — B's median is better than A's by more than the bound;
//! * `ok` — within the bound.
//!
//! Per-layer metrics have no bound; they are printed for attribution.
//! The command exits non-zero when any end-to-end metric is `WORSE` or
//! `unresolved`, when a record on either side is not `correct`, or when
//! B failed more operations than A: a faster change that fails more does
//! not pass.

use crate::json::{self, Value};
use crate::stats::quartiles;
use std::collections::BTreeMap;

/// How an end-to-end metric is judged, from `BENCHMARK.json`.
struct Rule {
    lower_is_better: bool,
    bound: f64,
}

/// `(workload, metric)` → (unit, values across runs), in first-seen order.
type Samples = Vec<((String, String), (String, Vec<f64>))>;

/// One side of the comparison.
#[derive(Default)]
struct Side {
    samples: Samples,
    runs: u64,
    attempted: u64,
    failed: u64,
    /// Records whose `correct` is false.
    incorrect: u64,
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("compare takes exactly two files of benchmark output".into());
    };
    let rules = rules(&read("BENCHMARK.json")?)?;
    let a = side(&read(a_path)?).map_err(|e| format!("{a_path}: {e}"))?;
    let b = side(&read(b_path)?).map_err(|e| format!("{b_path}: {e}"))?;
    let b_index: BTreeMap<&(String, String), &Vec<f64>> = b
        .samples
        .iter()
        .map(|(key, (_, values))| (key, values))
        .collect();

    let mut all_ok = true;
    for (name, path, s) in [("A", a_path, &a), ("B", b_path, &b)] {
        println!(
            "{name} = {path}: {} runs, {} operations attempted, {} failed, {} records not correct",
            s.runs, s.attempted, s.failed, s.incorrect
        );
        all_ok &= s.incorrect == 0;
    }
    if b.failed > a.failed {
        println!(
            "B failed more operations than A ({} > {})",
            b.failed, a.failed
        );
        all_ok = false;
    }
    println!("spread = (q3 - q1) / median");
    println!(
        "{:<13} {:<28} {:>8} {:>6} {:>34} {:>34} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "runs",
        "A q1 / median / q3",
        "B q1 / median / q3",
        "B/A",
        "bound"
    );
    for ((workload, metric), (unit, a_values)) in &a.samples {
        let Some(b_values) = b_index.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (a1, am, a3) = quartiles(a_values);
        let (b1, bm, b3) = quartiles(b_values);
        let ratio = if am == 0.0 { f64::NAN } else { bm / am };
        let rule = rules.get(metric);
        let verdict = match rule {
            Some(&Rule {
                lower_is_better,
                bound,
            }) => {
                let spread = |q1: f64, m: f64, q3: f64| (q3 - q1) / m.abs();
                let worse = if lower_is_better {
                    bm > am * (1.0 + bound)
                } else {
                    bm < am * (1.0 - bound)
                };
                let better = if lower_is_better {
                    bm < am * (1.0 - bound)
                } else {
                    bm > am * (1.0 + bound)
                };
                if spread(a1, am, a3) > bound || spread(b1, bm, b3) > bound {
                    all_ok = false;
                    "unresolved"
                } else if worse {
                    all_ok = false;
                    "WORSE"
                } else if better {
                    "better"
                } else {
                    "ok"
                }
            }
            None => "-",
        };
        println!(
            "{workload:<13} {metric:<28} {unit:>8} {:>6} {:>34} {:>34} {ratio:>7.3} {:>6}  {verdict}",
            format!("{}/{}", a_values.len(), b_values.len()),
            triple(a1, am, a3),
            triple(b1, bm, b3),
            rule.map_or("-".to_string(), |r| format!("{}", r.bound)),
        );
    }
    Ok(all_ok)
}

fn triple(q1: f64, m: f64, q3: f64) -> String {
    format!("{} / {} / {}", short(q1), short(m), short(q3))
}

/// Four significant digits, for the table only.
fn short(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let digits = (3 - v.abs().log10().floor() as i32).max(0) as usize;
    format!("{v:.digits$}")
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn rules(benchmark_json: &str) -> Result<BTreeMap<String, Rule>, String> {
    let doc = json::parse(benchmark_json)?;
    let mut rules = BTreeMap::new();
    let metrics = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    for entry in metrics {
        let field = |key: &str| {
            entry
                .get(key)
                .ok_or_else(|| format!("metric without {key}"))
        };
        let name = field("name")?
            .as_str()
            .ok_or("metric name is not a string")?;
        let bound = field("bound")?.as_f64().ok_or("bound is not a number")?;
        let lower_is_better = field("better")?.as_str() == Some("lower");
        rules.insert(
            name.to_string(),
            Rule {
                lower_is_better,
                bound,
            },
        );
    }
    Ok(rules)
}

/// Every full record in `output`: its failure counts, and every metric
/// value grouped by workload and metric. Result objects (the line after
/// each record) and blank lines are skipped.
fn side(output: &str) -> Result<Side, String> {
    let mut side = Side::default();
    for (n, line) in output.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |what: &str| format!("line {}: {what}", n + 1);
        let record = json::parse(line).map_err(|e| at(&e))?;
        let Some(workload) = record.get("workload").and_then(Value::as_str) else {
            continue;
        };
        let count = |key: &str| {
            record
                .get(key)
                .and_then(Value::as_f64)
                .map(|v| v as u64)
                .ok_or_else(|| at(&format!("no {key}")))
        };
        side.runs += 1;
        side.attempted += count("attempted")?;
        side.failed += count("failed")?;
        if record.get("correct") != Some(&Value::Bool(true)) {
            side.incorrect += 1;
        }
        let metrics = record
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| at("no metrics"))?;
        for (name, metric) in metrics {
            let value = metric.get("value").and_then(Value::as_f64);
            let unit = metric.get("unit").and_then(Value::as_str).unwrap_or("");
            let Some(value) = value else { continue };
            let key = (workload.to_string(), name.clone());
            match side.samples.iter_mut().find(|(k, _)| *k == key) {
                Some((_, (_, values))) => values.push(value),
                None => side.samples.push((key, (unit.to_string(), vec![value]))),
            }
        }
    }
    if side.runs == 0 {
        return Err("no benchmark records".into());
    }
    Ok(side)
}

#[cfg(test)]
mod tests {
    use super::side;

    #[test]
    fn side_totals_failures_and_skips_result_lines() {
        let output = r#"{"workload": "node_40k", "seed": 1, "correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}
{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}

{"workload": "node_40k", "seed": 2, "correct": false, "attempted": 12, "failed": 3, "metrics": {"setup_s": {"value": 0.7, "unit": "s"}}}
{"correct": false, "attempted": 12, "failed": 3, "metrics": {"setup_s": {"value": 0.7, "unit": "s"}}}
"#;
        let s = side(output).expect("parses");
        assert_eq!((s.runs, s.attempted, s.failed, s.incorrect), (2, 22, 3, 1));
        assert_eq!(s.samples.len(), 1);
        assert_eq!(s.samples[0].1 .1, vec![0.5, 0.7]);
        assert!(side("{\"correct\": true}\n").is_err(), "no records");
    }
}
