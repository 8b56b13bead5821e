//! Smoke tests: every workload end to end at toy scale (2k users, 1 s
//! windows), untraced and traced. Each asserts that the run emits
//! exactly the metrics `BENCHMARK.json` names, with their units, that no
//! operation failed, and that the trace file parses with every span's
//! parent inside the same request. One more test keeps the benchmark's
//! own release profile equal to the workspace's.

use crate::json::{self, Value};
use crate::run::{self, Outcome, RunConfig};
use crate::workload::{Scale, Workload};
use std::path::{Path, PathBuf};

const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// The `[profile.release]` settings of a manifest, one per line.
fn release_profile(manifest: &str) -> Vec<&str> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// The benchmark builds through its own manifest, so its release profile
/// must stay the workspace's, or it would measure another build than the
/// one that ships.
#[test]
fn release_profile_matches_the_workspace() {
    let own = release_profile(include_str!("Cargo.toml"));
    let workspace = release_profile(include_str!("../../../../../Cargo.toml"));
    assert!(!workspace.is_empty(), "workspace has a release profile");
    assert_eq!(own, workspace);
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn catalog(list: &str) -> Vec<(String, String)> {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Value::as_array)
        .expect("metric list present")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_emits(outcome: &Outcome, list: &str) {
    let emitted: Vec<(String, String)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    assert_eq!(
        emitted,
        catalog(list),
        "emitted {list} metrics differ from BENCHMARK.json"
    );
    for m in &outcome.metrics {
        assert!(m.value.is_finite(), "{} is not finite", m.name);
    }
}

fn check_trace(path: &Path) {
    let text = std::fs::read_to_string(path).expect("trace file written");
    let doc = json::parse(&text).expect("trace file parses");
    let spans = doc.get("spans").and_then(Value::as_array).expect("spans");
    assert!(!spans.is_empty(), "trace holds no spans");
    let request = |span: &Value| {
        span.get("request")
            .and_then(Value::as_str)
            .map(str::to_string)
    };
    for (id, span) in spans.iter().enumerate() {
        let start = span
            .get("start_ns")
            .and_then(Value::as_f64)
            .expect("start_ns");
        let end = span.get("end_ns").and_then(Value::as_f64).expect("end_ns");
        assert!(start <= end, "span {id} ends before it starts");
        if let Some(parent) = span.get("parent").and_then(Value::as_f64) {
            let parent = parent as usize;
            assert!(parent < id, "span {id}'s parent is recorded after it");
            assert_eq!(
                request(&spans[parent]),
                request(span),
                "span {id}'s parent belongs to another request"
            );
        }
    }
}

fn smoke(workload: Workload) {
    let tmp = std::env::temp_dir();
    let tag = format!(
        "psketch-benchmark-{}-{}",
        std::process::id(),
        workload.name()
    );
    let trace_file = tmp.join(format!("{tag}-trace.json"));
    let run = |traced: bool, trace_out: Option<PathBuf>| {
        run::execute(&RunConfig {
            workload,
            seed: 7,
            scale: Scale::toy(),
            traced,
            trace_out,
            scratch: tmp.join(&tag).join(if traced { "traced" } else { "plain" }),
        })
        .expect("run completes")
    };

    let plain = run(false, None);
    assert_eq!(plain.failed, 0, "untraced run had failures");
    assert!(plain.attempted > 0);
    assert_emits(&plain, "end_to_end");

    let traced = run(true, Some(trace_file.clone()));
    assert_eq!(traced.failed, 0, "traced run had failures");
    assert_emits(&traced, "per_layer");
    check_trace(&trace_file);
    let _ = std::fs::remove_file(&trace_file);
}

#[test]
fn smoke_node_40k() {
    smoke(Workload::Node40k);
}

#[test]
fn smoke_node_300k() {
    smoke(Workload::Node300k);
}

#[test]
fn smoke_cluster3_40k() {
    smoke(Workload::Cluster3x40k);
}

#[test]
fn smoke_mixed_wal() {
    smoke(Workload::MixedWal);
}
