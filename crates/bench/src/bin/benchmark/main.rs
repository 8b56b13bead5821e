//! `benchmark` — the psketch end-to-end benchmark.
//!
//! Drives the service only through its public API (`Server::start`,
//! `Client`, `Router`, `parallel_ingest`) on four workloads, checks every
//! answer bit for bit against an in-process oracle, and prints every
//! metric by name with its unit. A traced run attributes each query
//! family's latency to the layers below. See `README.md` beside this file.
//!
//! ```text
//! benchmark --workload W --seed N [--seconds S] [--trace 0|1] [--spans FILE]
//! benchmark compare A B
//! ```
//!
//! `--trace 1` selects the per-layer run; `--spans FILE` also writes its
//! spans to FILE. The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is
//! the full record (workload, seed, host fingerprint, sample counts).
//! `compare` reads files of such output.

#![forbid(unsafe_code)]

mod compare;
mod host;
mod json;
mod layers;
mod probes;
mod run;
mod stats;
mod target;
mod trace;
mod workload;

#[cfg(test)]
mod smoke;

use run::{Outcome, RunConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Scale, Workload};

/// The measured window when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: u64 = 20;

const USAGE: &str = "usage:
  benchmark --workload W --seed N [--seconds S] [--trace 0|1] [--spans FILE]
  benchmark compare A B
workloads: node_40k node_300k cluster3_40k mixed_wal";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::main(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("benchmark compare: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let cfg = match parse_run(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run::execute(&cfg);
    report(&cfg, outcome)
}

fn parse_run(args: &[String]) -> Result<RunConfig, String> {
    let mut args = args.iter();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut traced = false;
    let mut trace_out = None;
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--spans" => trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = workload.ok_or("no --workload given")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = seed.ok_or("no --seed given")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    if trace_out.is_some() && !traced {
        return Err("--spans needs --trace 1".into());
    }
    Ok(RunConfig {
        workload,
        seed,
        scale: Scale::full(workload, seconds),
        traced,
        trace_out,
        scratch: PathBuf::from(run::SCRATCH_ROOT).join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
    })
}

/// Prints the human-readable summary (stderr), the full record and the
/// result object (stdout), and picks the exit code.
fn report(cfg: &RunConfig, outcome: Result<Outcome, String>) -> ExitCode {
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchmark: {} aborted: {e}", cfg.workload.name());
            // The record too, so that `compare` counts the aborted run.
            println!(
                "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"correct\": false, \
                 \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}",
                json::string(cfg.workload.name()),
                cfg.seed,
                cfg.traced
            );
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            return ExitCode::FAILURE;
        }
    };
    let correct = outcome.failed == 0;
    eprintln!(
        "benchmark: {} seed {} ({}): {} operations, {} failed",
        cfg.workload.name(),
        cfg.seed,
        if cfg.traced { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed
    );
    for m in &outcome.metrics {
        eprintln!("  {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let metrics = run::metrics_json(&outcome.metrics);
    let details: Vec<String> = outcome
        .details
        .iter()
        .map(|(k, v)| format!("{}: {v}", json::string(k)))
        .collect();
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"correct\": {correct}, \
         \"attempted\": {}, \"failed\": {}, \"host\": {}, \"details\": {{{}}}, \"metrics\": {metrics}}}",
        json::string(cfg.workload.name()),
        cfg.seed,
        cfg.traced,
        outcome.attempted,
        outcome.failed,
        outcome.host.to_json(cfg.seed),
        details.join(", "),
    );
    println!("{record}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::parse_run;

    fn parse(line: &str) -> Result<super::RunConfig, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_run(&args)
    }

    #[test]
    fn parses_the_benchmark_json_command_line() {
        let cfg = parse("--workload node_300k --seed 9 --seconds 3 --trace 1").expect("valid");
        assert_eq!(cfg.workload.name(), "node_300k");
        assert_eq!((cfg.seed, cfg.scale.window.as_secs()), (9, 3));
        assert!(cfg.traced && cfg.trace_out.is_none());
        let cfg = parse("--workload mixed_wal --seed 1 --trace 1 --spans t.json").expect("valid");
        assert_eq!(
            cfg.trace_out.as_deref(),
            Some(std::path::Path::new("t.json"))
        );
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            "--seed 1",
            "--workload node_2m --seed 1",
            "--workload node_40k",
            "--workload node_40k --seed 1 --seconds 0",
            "--workload node_40k --seed 1 --trace t.json",
            "--workload node_40k --seed 1 --spans t.json",
            "--workload node_40k --seed 1 --trace",
            "run node_40k --seed 1",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
