//! `psketch` — deployment planning and demos from the command line.
//!
//! ```text
//! psketch plan --users 1000000 [--tau 1e-6] [--p 0.3] [--sketches 4]
//!              [--budget 2.0] [--delta 1e-9]
//!     Size a deployment: Lemma 3.1 sketch length, wire bytes, privacy
//!     cost (basic + advanced composition), Lemma 4.1 error bounds.
//!
//! psketch demo [--users 20000] [--p 0.3] [--seed 7]
//!     Run an end-to-end pipeline on a synthetic survey and print
//!     truth-vs-estimate for the paper's motivating query.
//!
//! psketch frontier [--users 20000]
//!     Print the privacy–utility table over p (bounds only; the measured
//!     version is experiment E19).
//! ```

mod args;
mod cluster;
mod families;
mod service;

use args::{Args, CliError};
use psketch_core::codec::bundle_size_bytes;
use psketch_core::composition::{epsilon_advanced, max_sketches_advanced, max_sketches_basic};
use psketch_core::theory::{epsilon_for, min_sketch_bits, privacy_ratio_bound, query_error_bound};
use psketch_core::{
    BitString, BitSubset, ConjunctiveEstimator, ConjunctiveQuery, SketchDb, SketchParams, Sketcher,
};
use psketch_data::SurveyModel;
use psketch_prf::{GlobalKey, Prg};
use rand::SeedableRng;
use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `psketch help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(raw: &[String]) -> Result<(), CliError> {
    let args = Args::parse(raw)?;
    match args.positional().first().map(String::as_str) {
        Some("plan") => plan(&args),
        Some("demo") => demo(&args),
        Some("frontier") => frontier(&args),
        Some("serve") => service::serve(&args),
        Some("submit") => service::submit(&args),
        Some("query") => service::query(&args),
        Some("cluster") => cluster::cluster(&args),
        Some("help") | None => {
            print_help();
            Ok(())
        }
        Some(other) => Err(CliError(format!(
            "unknown command '{other}' (try plan, demo, frontier, serve, submit, query, \
             cluster, help)"
        ))),
    }
}

fn print_help() {
    println!("psketch — Privacy via Pseudorandom Sketches (Mishra & Sandler, PODS 2006)");
    println!();
    println!("commands:");
    println!("  plan      size a deployment (sketch bits, bytes, privacy, error bounds)");
    println!("            --users M [--tau 1e-6] [--p 0.3] [--sketches 1]");
    println!("            [--budget EPS --delta 1e-9]");
    println!("  demo      run an end-to-end synthetic-survey pipeline");
    println!("            [--users 20000] [--p 0.3] [--seed 7]");
    println!("  frontier  print the privacy-utility bound table over p [--users 20000]");
    println!("  serve     run the sketch-pool server");
    println!("            [--addr 127.0.0.1:7171] [--users 100000] [--p 0.3] [--width 2]");
    println!("            [--workers 8] [--wal DIR] [--compact-bytes N] [--shard i/N]");
    println!("            [--budget EPS] [--metrics-addr 127.0.0.1:9187] [--slow-query-ms N]");
    println!("            [--no-metrics]");
    println!("  submit    simulate user agents against a running server");
    println!("            [--addr …] [--users 1000] [--seed 1] [--id-base 0] [--batch 500]");
    println!("  query     ask a running server: conj --subset 0,1 --value 10 | dist");
    println!("            --subset 0,1 | mean --field 0:4 | interval --field 0:4");
    println!("            (--lt C | --le C | --range LO:HI) | dnf --clauses \"0=1;1,2=10\" |");
    println!("            tree --tree \"0?(2?1:0):1\" | moment --field 0:4 [--order 2] |");
    println!("            stats | ping   (all take [--addr …] [--timeout 10] [--json];");
    println!("            plan-backed kinds take --explain for a span waterfall; the");
    println!("            query kinds are `cluster query` over the one --addr node)");
    println!("  cluster   sharded multi-node pool: serve --shards 3 [--wal-root DIR] |");
    println!("            submit | query conj/dist/mean/interval/dnf/tree/moment/ping |");
    println!("            status [--metrics] | trace NONCE   (submit/query/status/trace");
    println!("            take --map FILE or --addrs a,b,c; query kinds accept the same");
    println!("            family flags, --json, and --explain as `query`; query/status");
    println!("            accept [--slow-query-ms N])");
    println!("  help      this message");
}

fn plan(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["users", "tau", "p", "sketches", "budget", "delta"])?;
    let users: u64 = args.require("users")?;
    let tau: f64 = args.get_or("tau", 1e-6)?;
    let p: f64 = args.get_or("p", 0.3)?;
    let sketches: u32 = args.get_or("sketches", 1)?;
    if !(p > 0.0 && p < 0.5) {
        return Err(CliError(format!("--p {p} must be in (0, 1/2)")));
    }
    if !(tau > 0.0 && tau < 1.0) {
        return Err(CliError(format!("--tau {tau} must be in (0, 1)")));
    }
    if users == 0 || sketches == 0 {
        return Err(CliError("--users and --sketches must be positive".into()));
    }

    let bits = min_sketch_bits(users, tau, p);
    println!("deployment plan for M = {users}, tau = {tau:.1e}, p = {p}");
    println!();
    println!("  sketch length (Lemma 3.1) : {bits} bits");
    println!(
        "  wire cost per user        : {} bytes for {sketches} sketch(es)",
        bundle_size_bytes(bits, sketches as usize)
    );
    println!(
        "  privacy per sketch        : ratio {:.4}  (eps = {:.4})",
        privacy_ratio_bound(p),
        privacy_ratio_bound(p) - 1.0
    );
    println!(
        "  privacy for {sketches} sketch(es)  : eps = {:.4}  (Cor 3.4)",
        epsilon_for(p, sketches)
    );
    for (label, delta) in [("95%", 0.05), ("99.9%", 1e-3)] {
        println!(
            "  query error at {label:>5} conf : +/- {:.4}  (Lemma 4.1, any width)",
            query_error_bound(users, p, delta)
        );
    }
    if let Some(budget) = optional_f64(args, "budget")? {
        let delta: f64 = args.get_or("delta", 1e-9)?;
        if budget <= 0.0 || !(delta > 0.0 && delta < 1.0) {
            return Err(CliError("--budget must be > 0 and --delta in (0,1)".into()));
        }
        println!();
        println!("  with total budget eps = {budget} :");
        println!(
            "    basic composition     : up to {} sketches",
            max_sketches_basic(p, budget)
        );
        let adv = max_sketches_advanced(p, budget, delta);
        println!(
            "    advanced (delta={delta:.0e}) : up to {adv} sketches (achieved eps {:.4})",
            if adv > 0 {
                epsilon_advanced(p, adv, delta)
            } else {
                f64::NAN
            }
        );
    }
    Ok(())
}

fn optional_f64(args: &Args, name: &str) -> Result<Option<f64>, CliError> {
    match args.get_or::<f64>(name, f64::NAN) {
        Ok(v) if v.is_nan() => Ok(None),
        Ok(v) => Ok(Some(v)),
        Err(e) => Err(e),
    }
}

fn demo(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["users", "p", "seed"])?;
    let users: usize = args.get_or("users", 20_000)?;
    let p: f64 = args.get_or("p", 0.3)?;
    let seed: u64 = args.get_or("seed", 7)?;
    let params = SketchParams::with_sip(p, 10, GlobalKey::from_seed(seed))
        .map_err(|e| CliError(e.to_string()))?;
    let mut rng = Prg::seed_from_u64(seed);
    let pop = SurveyModel::epidemiology().generate(users, &mut rng);
    let subset = BitSubset::new(vec![0, 1]).expect("static subset");
    let sketcher = Sketcher::new(params);
    let db = SketchDb::new();
    let failures = pop
        .publish(&sketcher, &subset, &db, &mut rng)
        .map_err(|e| CliError(e.to_string()))?;
    let value = BitString::from_bits(&[true, false]);
    let query = ConjunctiveQuery::new(subset.clone(), value.clone())
        .map_err(|e| CliError(e.to_string()))?;
    let est = ConjunctiveEstimator::new(params)
        .estimate(&db, &query)
        .map_err(|e| CliError(e.to_string()))?;
    let truth = pop.true_fraction(&subset, &value);
    println!("demo: {users} users, p = {p}, 10-bit sketches ({failures} failures)");
    println!("query: HIV+ AND NOT AIDS  (the paper's motivating conjunction)");
    println!("  truth     : {truth:.5}");
    println!("  estimate  : {:.5}", est.fraction);
    println!("  95% band  : +/- {:.5}", est.half_width(0.05));
    Ok(())
}

fn frontier(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["users"])?;
    let users: u64 = args.get_or("users", 20_000)?;
    println!("privacy-utility frontier at M = {users} (bounds; E19 measures it)");
    println!(
        "{:>6} {:>16} {:>18}",
        "p", "eps per sketch", "error bound (95%)"
    );
    for &p in &[0.05f64, 0.15, 0.25, 0.35, 0.45, 0.49] {
        println!(
            "{p:>6.2} {:>16.3} {:>18.4}",
            privacy_ratio_bound(p) - 1.0,
            query_error_bound(users, p, 0.05)
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(tokens: &[&str]) -> Result<(), CliError> {
        run(&tokens.iter().map(ToString::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn help_and_empty_succeed() {
        call(&[]).unwrap();
        call(&["help"]).unwrap();
    }

    #[test]
    fn plan_happy_path_and_validation() {
        call(&["plan", "--users", "1000000"]).unwrap();
        call(&[
            "plan", "--users", "1000000", "--budget", "2.0", "--delta", "1e-9",
        ])
        .unwrap();
        assert!(call(&["plan"]).is_err()); // missing --users
        assert!(call(&["plan", "--users", "100", "--p", "0.7"]).is_err());
        assert!(call(&["plan", "--users", "100", "--tau", "2.0"]).is_err());
        assert!(call(&["plan", "--users", "0"]).is_err());
    }

    #[test]
    fn demo_runs_small() {
        call(&["demo", "--users", "2000", "--seed", "3"]).unwrap();
        assert!(call(&["demo", "--users", "abc"]).is_err());
    }

    #[test]
    fn frontier_runs() {
        call(&["frontier", "--users", "5000"]).unwrap();
    }

    #[test]
    fn unknown_command_and_flag_rejected() {
        assert!(call(&["bogus"]).is_err());
        assert!(call(&["plan", "--users", "10", "--bogus", "1"]).is_err());
    }
}
