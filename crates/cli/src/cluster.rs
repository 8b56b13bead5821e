//! The `cluster` subcommand family: the CLI face of the sharded pool.
//!
//! ```text
//! psketch cluster serve  --shards 3 [--base-port 7180] [--map-out FILE]
//!                        [announcement flags] [--workers 4]
//!                        [--wal-root DIR] [--budget EPS]
//!     Spawn N shard nodes in one process (ports base-port..base-port+N,
//!     or ephemeral with --base-port 0), print the shard map JSON (and
//!     write it to --map-out), serve until killed. --budget refuses to
//!     start when the announcement costs each user more than EPS. For
//!     independently killable nodes, run `psketch serve --shard i/N`
//!     per node instead.
//!
//! psketch cluster submit (--map FILE | --addrs a,b,c) [--users 1000]
//!                        [--seed 1] [--id-base 0] [--batch 500]
//!                        [--timeout 10] [--retries 2] [--fanout 0]
//!     Simulate user agents against the cluster: every submission is
//!     routed to its user's shard, whose --batch-sized chunks stream
//!     over one connection; a shard that drops resumes at its first
//!     unacked chunk, up to --retries times. Prints one outcome row per
//!     shard (accepted/rejected, or the error and the submissions it
//!     lost) and exits non-zero on a partial ingest.
//!
//! psketch cluster query conj --subset 0,1 --value 10 (--map|--addrs)
//! psketch cluster query dist --subset 0,1            (--map|--addrs)
//! psketch cluster query mean     --field 0:4         (--map|--addrs)
//! psketch cluster query interval --field 0:4 --le 9  (--map|--addrs)
//! psketch cluster query dnf      --clauses "0=1;1=1" (--map|--addrs)
//! psketch cluster query tree     --tree "0?(1?1:0):0"(--map|--addrs)
//! psketch cluster query moment   --field 0:4 --order 2
//! psketch cluster query ping                         (--map|--addrs)
//!     Scatter-gather analyst queries: every kind compiles to one
//!     query plan and merges exact per-shard term counts (--json for
//!     machine-readable output). Shards are queried **in parallel**
//!     over persistent per-shard connections; --fanout bounds the
//!     concurrency (0 = all shards at once, the default; 1 = the old
//!     sequential visit order, bit-identical answers either way).
//!     Answers over a degraded cluster say exactly which shards are
//!     missing instead of silently skewing the estimate. Plan-backed
//!     kinds take `--explain`: the answer is followed by a span
//!     waterfall stitching the router's scatter/merge phases with each
//!     shard's own timing subtree, plus the trace nonce for later
//!     `cluster trace` fetches (answers stay float-bit-identical).
//!
//! psketch cluster status (--map|--addrs)
//!     Per-shard coordinator + server counters, the exact merge, and the
//!     per-user ε the deployment's announcement costs.
//!
//! psketch cluster trace NONCE (--map|--addrs)
//!     Fetch the recorded span trees for a recent query nonce (decimal
//!     or 0x-hex, as printed by `--explain`) from every shard's trace
//!     ring and render each as a waterfall.
//! ```

use crate::args::{Args, CliError};
use crate::service::{
    announced_width, build_announcement, parse_subset, parse_value, synthetic_submissions,
};
use psketch_cluster::{Coverage, Router, RouterConfig, ShardMap};
use psketch_core::ConjunctiveQuery;
use psketch_prf::Prg;
use psketch_protocol::ShardIdentity;
use psketch_queries::TermPlan;
use psketch_server::wal::WalConfig;
use psketch_server::{wire, Server, ServerConfig, MAX_PLAN_TERMS};
use rand::SeedableRng;
use std::time::Duration;

fn err(e: impl std::fmt::Display) -> CliError {
    CliError(e.to_string())
}

/// Dispatches `psketch cluster <serve|submit|query|status|trace>`.
pub fn cluster(args: &Args) -> Result<(), CliError> {
    let kind = args
        .positional()
        .get(1)
        .map(String::as_str)
        .ok_or_else(|| {
            CliError("usage: psketch cluster <serve|submit|query|status|trace> …".into())
        })?;
    match kind {
        "serve" => serve(args),
        "submit" => submit(args),
        "query" => query(args),
        "status" => status(args),
        "trace" => trace(args),
        other => Err(CliError(format!(
            "unknown cluster command '{other}' (try serve, submit, query, status, trace)"
        ))),
    }
}

/// Loads the shard map from `--map FILE` or `--addrs a,b,c`.
fn load_map(args: &Args) -> Result<ShardMap, CliError> {
    let map_file: String = args.get_or("map", String::new())?;
    if !map_file.is_empty() {
        let raw = std::fs::read_to_string(&map_file)
            .map_err(|e| CliError(format!("cannot read --map {map_file}: {e}")))?;
        return ShardMap::from_json(&raw).map_err(err);
    }
    let addrs: String = args.get_or("addrs", String::new())?;
    if addrs.is_empty() {
        return Err(CliError(
            "need --map FILE or --addrs host:port,host:port,…".into(),
        ));
    }
    ShardMap::new(0, addrs.split(',').map(str::trim)).map_err(err)
}

/// A router over `map`, configured from the shared router flags (absent
/// flags take the [`RouterConfig`] defaults).
fn router(args: &Args, map: ShardMap) -> Result<Router, CliError> {
    let timeout: f64 = args.get_or("timeout", 10.0)?;
    if !timeout.is_finite() || timeout <= 0.0 {
        return Err(CliError(format!("--timeout {timeout} must be positive")));
    }
    let retries: u32 = args.get_or("retries", 2)?;
    // 0 = fan out to every shard concurrently; 1 = sequential oracle.
    let fanout: usize = args.get_or("fanout", 0)?;
    let slow_query_ms = match args.get_or("slow-query-ms", -1i64)? {
        ms if ms < 0 => None,
        ms => Some(u64::try_from(ms).expect("non-negative by the guard above")),
    };
    Router::new(
        map,
        RouterConfig {
            timeout: Duration::from_secs_f64(timeout),
            retries,
            // Only `cluster submit` accepts --batch.
            submit_chunk: args.get_or("batch", 500)?,
            fanout,
            slow_query_ms,
            ..RouterConfig::default()
        },
    )
    .map_err(err)
}

/// The flags every router-backed subcommand shares.
const ROUTER_FLAGS: &[&str] = &[
    "map",
    "addrs",
    "timeout",
    "retries",
    "fanout",
    "slow-query-ms",
];

/// Renders an answer's coverage; degraded answers name their missing
/// shards (scripts and the CI smoke test grep for "missing shard").
fn print_coverage(coverage: &Coverage) {
    if coverage.is_complete() {
        println!(
            "coverage: {}/{} shards, population {}",
            coverage.responding.len(),
            coverage.total_shards,
            coverage.population
        );
        return;
    }
    let missing: Vec<String> = coverage
        .missing
        .iter()
        .map(|o| o.shard.to_string())
        .collect();
    let known = match coverage.missing_fraction() {
        Some(f) => format!("{:.1}% of known users missing", f * 100.0),
        None => "missing population unknown".into(),
    };
    println!(
        "degraded: missing shard(s) {} of {} ({known}); answer covers population {}",
        missing.join(","),
        coverage.total_shards,
        coverage.population
    );
    for outage in &coverage.missing {
        eprintln!("  shard {}: {}", outage.shard, outage.error);
    }
}

/// `psketch cluster serve`: spawn N shard nodes in one process.
fn serve(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&[
        "shards",
        "base-port",
        "map-out",
        "db-id",
        "users",
        "tau",
        "p",
        "width",
        "key-seed",
        "workers",
        "wal-root",
        "budget",
        "lanes",
        "metrics-addr",
        "slow-query-ms",
        "no-metrics",
    ])?;
    crate::service::configure_lanes(args)?;
    let (metrics_addr, slow_query_ms) = crate::service::configure_observability(args)?;
    let shards: u32 = args.get_or("shards", 3)?;
    if shards == 0 || shards > 64 {
        return Err(CliError(format!("--shards {shards} must be in 1..=64")));
    }
    let base_port: u16 = args.get_or("base-port", 7180)?;
    let workers: usize = args.get_or("workers", 4)?;
    let wal_root: String = args.get_or("wal-root", String::new())?;
    let budget = match args.get_or("budget", f64::NAN)? {
        eps if eps.is_nan() => None,
        eps => Some(eps),
    };
    let announcement = build_announcement(args)?;

    let mut servers = Vec::with_capacity(shards as usize);
    for shard_id in 0..shards {
        let addr = if base_port == 0 {
            "127.0.0.1:0".to_string()
        } else {
            format!("127.0.0.1:{}", base_port + shard_id as u16)
        };
        let wal = if wal_root.is_empty() {
            None
        } else {
            Some(WalConfig::new(format!("{wal_root}/shard-{shard_id}")))
        };
        // The metrics registry is process-global, so the single-process
        // cluster needs exactly one exposition listener: shard 0 hosts
        // it and the scrape covers every shard's observations.
        let server = Server::start(
            addr.as_str(),
            announcement.clone(),
            ServerConfig {
                workers,
                wal,
                shard: Some(ShardIdentity {
                    shard_id,
                    shard_count: shards,
                }),
                user_epsilon_budget: budget,
                metrics_addr: if shard_id == 0 {
                    metrics_addr.clone()
                } else {
                    None
                },
                slow_query_ms,
            },
        )
        .map_err(|e| CliError(format!("cannot serve shard {shard_id} on {addr}: {e}")))?;
        println!(
            "shard {shard_id}/{shards} listening on {} (recovered {} submissions)",
            server.local_addr(),
            server.coordinator().stats().accepted
        );
        servers.push(server);
    }

    let map =
        ShardMap::new(1, servers.iter().map(|s| s.local_addr().to_string())).expect("shards >= 1");
    let json = map.to_json();
    println!("shard map: {json}");
    let map_out: String = args.get_or("map-out", String::new())?;
    if !map_out.is_empty() {
        std::fs::write(&map_out, format!("{json}\n"))
            .map_err(|e| CliError(format!("cannot write --map-out {map_out}: {e}")))?;
        println!("wrote shard map to {map_out}");
    }
    crate::service::warn_if_weak_privacy(&announcement);
    println!(
        "cluster listening ({shards} shards, {} PRF lanes, eps = {:.4}/user)",
        psketch_core::lane_width(),
        announcement.epsilon_cost()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    loop {
        std::thread::park();
    }
}

/// `psketch cluster submit`: simulate user agents, routed by shard.
fn submit(args: &Args) -> Result<(), CliError> {
    run_submit(
        args,
        &["map", "addrs", "timeout", "retries", "fanout"],
        load_map,
    )
}

/// Simulates user agents through a [`Router`]: the code behind both
/// `cluster submit` and `submit`, which is the same command over a
/// 1-shard map of its `--addr` node. `flags` are the command's own
/// flags besides the population's; `map` reads the shard map. Every
/// submission is routed to its user's shard in `--batch`-sized chunks.
/// Per-shard outcomes are reported individually, so a partial ingest
/// (some shards down) is visible as exactly that — never mistaken for
/// a total failure.
pub fn run_submit(
    args: &Args,
    flags: &[&str],
    map: fn(&Args) -> Result<ShardMap, CliError>,
) -> Result<(), CliError> {
    let mut known = flags.to_vec();
    known.extend_from_slice(&["users", "seed", "id-base", "batch"]);
    args.reject_unknown(&known)?;
    let users: u64 = args.get_or("users", 1_000)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let id_base: u64 = args.get_or("id-base", 0)?;
    let batch: usize = args.get_or("batch", 500)?;
    if users == 0 || batch == 0 {
        return Err(CliError("--users and --batch must be positive".into()));
    }
    let mut router = router(args, map(args)?)?;
    let ann = router.announcement().map_err(err)?;
    let width = announced_width(&ann);

    // Generate and ingest 2^16 users at a time so memory stays flat
    // whatever --users is; the shard connections persist across steps.
    let step = 1 << 16;
    let shards = router.map().len();
    let mut rng = Prg::seed_from_u64(seed);
    let start = std::time::Instant::now();
    // Accumulated per shard: accepted, rejected, lost-to-error, last error.
    let mut tallies: Vec<(u64, u64, u64, Option<String>)> = vec![(0, 0, 0, None); shards];
    let mut next = 0u64;
    while next < users {
        let step_end = (next + step).min(users);
        let submissions =
            synthetic_submissions(&ann, width, &mut rng, id_base + next..id_base + step_end)?;
        let report = router.submit_batch(&submissions).map_err(err)?;
        for row in &report.shards {
            let tally = &mut tallies[row.shard as usize];
            tally.0 += row.accepted;
            tally.1 += row.rejected;
            tally.2 += row.lost();
            if let Some(e) = &row.error {
                tally.3 = Some(e.clone());
            }
        }
        next = step_end;
    }
    let secs = start.elapsed().as_secs_f64();
    let accepted: u64 = tallies.iter().map(|t| t.0).sum();
    let rejected: u64 = tallies.iter().map(|t| t.1).sum();
    let lost: u64 = tallies.iter().map(|t| t.2).sum();
    for (shard, (a, r, l, error)) in tallies.iter().enumerate() {
        match error {
            None => println!("shard {shard}: accepted {a}, rejected {r}"),
            Some(e) => println!("shard {shard}: accepted {a}, rejected {r}, LOST {l} ({e})"),
        }
    }
    println!(
        "submitted {users} users across {shards} shards: accepted {accepted}, \
         rejected {rejected}, lost {lost} ({:.0} submissions/s)",
        accepted as f64 / secs.max(1e-9),
    );
    if lost > 0 {
        return Err(CliError(format!(
            "partial ingest: {lost} submissions lost to unreachable shards (re-submit them)"
        )));
    }
    if rejected > 0 {
        return Err(CliError(format!(
            "{rejected} submissions rejected (duplicate ids? try --id-base)"
        )));
    }
    Ok(())
}

/// `psketch cluster query <conj|dist|mean|interval|dnf|tree|moment|ping>`:
/// scatter-gather queries over the `--map`/`--addrs` shard map.
fn query(args: &Args) -> Result<(), CliError> {
    let kind = args
        .positional()
        .get(2)
        .map(String::as_str)
        .ok_or_else(|| {
            CliError(
                "usage: psketch cluster query \
                 <conj|dist|mean|interval|dnf|tree|moment|ping> …"
                    .into(),
            )
        })?;
    if is_query_family(kind) {
        return run_query(kind, args, ROUTER_FLAGS, load_map);
    }
    if kind != "ping" {
        return Err(CliError(format!(
            "unknown cluster query kind '{kind}' (try conj, dist, mean, interval, dnf, \
             tree, moment, ping)"
        )));
    }
    args.reject_unknown(ROUTER_FLAGS)?;
    let mut router = router(args, load_map(args)?)?;
    let outages = router.ping().map_err(err)?;
    let total = router.map().len();
    if outages.is_empty() {
        println!("pong from all {total} shards");
        return Ok(());
    }
    let missing: Vec<String> = outages.iter().map(|o| o.shard.to_string()).collect();
    println!(
        "degraded: missing shard(s) {} of {total}",
        missing.join(",")
    );
    Err(CliError(format!(
        "{} of {total} shards unreachable",
        outages.len()
    )))
}

/// Whether [`run_query`] answers `kind`.
pub fn is_query_family(kind: &str) -> bool {
    matches!(kind, "conj" | "dist") || crate::families::PLAN_KINDS.contains(&kind)
}

/// Runs one query family through a [`Router`]: the code behind both
/// `cluster query` and `query`, which is the same command over a
/// 1-shard map of its `--addr` node. `flags` are the command's own
/// flags besides the family's; `map` reads the shard map once the
/// query has parsed. Every kind compiles to a [`TermPlan`] whose exact
/// per-shard term counts the router merges: `conj` and `dist` print
/// the plan's per-term estimates, the other kinds its outputs.
/// `--json` switches to machine-readable output including the coverage
/// fields.
pub fn run_query(
    kind: &str,
    args: &Args,
    flags: &[&str],
    map: fn(&Args) -> Result<ShardMap, CliError>,
) -> Result<(), CliError> {
    let mut known = flags.to_vec();
    known.extend_from_slice(match kind {
        "conj" => &["subset", "value", "json"],
        "dist" => &["subset", "json"],
        _ => crate::families::kind_flags(kind),
    });
    args.reject_unknown(&known)?;
    let json: bool = args.get_or("json", false)?;
    let plan = match kind {
        "conj" => {
            let subset = parse_subset(&args.require::<String>("subset")?)?;
            let value = parse_value(&args.require::<String>("value")?, subset.len())?;
            TermPlan::for_conjunctive(ConjunctiveQuery::new(subset, value).map_err(err)?)
        }
        "dist" => {
            let subset = parse_subset(&args.require::<String>("subset")?)?;
            // `2^k` terms past the nodes' plan cap could never run:
            // refuse before compiling the plan or contacting a shard.
            let max_bits = MAX_PLAN_TERMS.trailing_zeros();
            if subset.len() > max_bits as usize {
                return Err(CliError(format!(
                    "distribution over a {}-bit subset exceeds the {max_bits}-bit cap \
                     ({MAX_PLAN_TERMS} terms per plan)",
                    subset.len()
                )));
            }
            TermPlan::for_distribution(&subset)
        }
        _ => crate::families::family_plan(kind, args)?,
    };
    // `conj` and `dist` reject the flag, so it reads false for them.
    let explain: bool = args.get_or("explain", false)?;
    if json && explain {
        return Err(CliError(
            "--explain prints a text waterfall; drop --json".into(),
        ));
    }
    let mut router = router(args, map(args)?)?;
    // The profiled path shares the merge code with the plain one, so the
    // answers are float-bit-identical either way.
    let (answer, traced) = if explain {
        let explained = router.explain_plan(&plan).map_err(err)?;
        (explained.answer, Some((explained.nonce, explained.trace)))
    } else {
        (router.execute_plan(&plan).map_err(err)?, None)
    };
    let estimates = &answer.term_estimates;
    match kind {
        "conj" if json => println!(
            "{{\"query\":\"conj\",\"estimate\":{},\"coverage\":{}}}",
            crate::families::json_estimate(&estimates[0]),
            crate::families::json_coverage(&answer.coverage)
        ),
        "conj" => println!(
            "estimate: {:.6} (raw {:.6}, n = {}, 95% +/- {:.6})",
            estimates[0].fraction,
            estimates[0].raw,
            estimates[0].sample_size,
            estimates[0].half_width(0.05)
        ),
        "dist" if json => {
            let cells: Vec<String> = estimates
                .iter()
                .enumerate()
                .map(|(v, est)| {
                    format!(
                        "{{\"value\":{v},\"estimate\":{}}}",
                        crate::families::json_estimate(est)
                    )
                })
                .collect();
            println!(
                "{{\"query\":\"dist\",\"estimates\":[{}],\"coverage\":{}}}",
                cells.join(","),
                crate::families::json_coverage(&answer.coverage)
            );
        }
        "dist" => {
            let width = plan.terms()[0].width();
            println!(
                "{:>width$}  {:>10}  {:>8}",
                "value",
                "estimate",
                "n",
                width = width.max(5)
            );
            for (v, est) in estimates.iter().enumerate() {
                let bits: String = (0..width)
                    .map(|b| if (v >> b) & 1 == 1 { '1' } else { '0' })
                    .collect();
                println!(
                    "{bits:>w$}  {:>10.6}  {:>8}",
                    est.fraction,
                    est.sample_size,
                    w = width.max(5)
                );
            }
        }
        _ if json => println!(
            "{}",
            crate::families::json_plan_document(kind, &plan, &answer.outputs, &answer.coverage)
        ),
        _ => {
            println!("{} ({} plan terms)", plan.description(), plan.cost());
            for (output, ans) in plan.outputs().iter().zip(&answer.outputs) {
                println!(
                    "  {}: {:.6} (terms {}, min n {})",
                    output.label, ans.value, ans.queries_used, ans.min_sample_size
                );
            }
        }
    }
    if !json {
        print_coverage(&answer.coverage);
    }
    if let Some((nonce, tree)) = traced {
        println!();
        print!("{}", psketch_obs::render_waterfall(&tree));
        // The nonce line lets scripts fetch the same trace again later
        // (`cluster trace`).
        println!("trace {}", psketch_obs::trace_hex(nonce));
    }
    Ok(())
}

/// `psketch cluster status`: per-shard counters plus the exact merge.
/// `--metrics` additionally gathers every shard's metrics registry and
/// prints the cluster-wide merge (counters summed, histograms added
/// bucket-wise, so the quantiles are over all shards' observations).
fn status(args: &Args) -> Result<(), CliError> {
    let mut known = ROUTER_FLAGS.to_vec();
    known.push("metrics");
    args.reject_unknown(&known)?;
    let mut router = router(args, load_map(args)?)?;
    let status = router.status().map_err(err)?;
    let mut up = 0usize;
    for row in &status.per_shard {
        match &row.status {
            Ok((coordinator, server)) => {
                up += 1;
                let requests = server.total_requests();
                let top: Vec<String> = server
                    .frames
                    .iter()
                    .map(|&(kind, count)| {
                        format!(
                            "{} {count}",
                            wire::request_kind_name(kind).unwrap_or("unknown")
                        )
                    })
                    .collect();
                println!(
                    "shard {} @ {}: up {}s | accepted {} | rejected {} | records {} | \
                     {requests} requests ({}) | plans {} (terms scanned {}, reused {})",
                    row.shard,
                    row.addr,
                    server.uptime_secs,
                    coordinator.accepted,
                    coordinator.rejected(),
                    coordinator.records,
                    top.join(", "),
                    server.plans.plans_executed,
                    server.plans.terms_scanned,
                    server.plans.terms_reused
                );
            }
            Err(error) => {
                println!("shard {} @ {}: DOWN ({error})", row.shard, row.addr);
            }
        }
    }
    // Uptime is the *maximum* across shards, not the sum: shards run
    // concurrently, and a summed "cluster uptime" would hide a freshly
    // restarted shard behind its long-lived peers.
    println!(
        "cluster: {up}/{} shards up | up {}s (max) | accepted {} | duplicates {} | \
         malformed {} | records {} | {} requests",
        status.per_shard.len(),
        status.merged_server.uptime_secs,
        status.merged.accepted,
        status.merged.duplicates,
        status.merged.malformed,
        status.merged.records,
        status.merged_server.total_requests()
    );
    match router.announcement() {
        Ok(ann) => println!("{}", crate::service::user_epsilon_line(&ann)),
        Err(e) => println!("per-user eps unknown: {e}"),
    }
    if args.get_or("metrics", false)? {
        let (snapshot, outages) = router.metrics().map_err(err)?;
        print_merged_metrics(&snapshot, outages.len());
    }
    Ok(())
}

/// Parses a trace nonce as printed by `--explain`: `0x`-prefixed hex
/// or plain decimal.
fn parse_nonce(raw: &str) -> Result<u64, CliError> {
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    parsed.map_err(|_| CliError(format!("cannot parse nonce '{raw}' (decimal or 0x-hex)")))
}

/// `psketch cluster trace NONCE`: fetch a recent query's span trees
/// from every shard's trace ring and render them. The per-span lines
/// are byte-identical to the shard subtrees inside the `--explain`
/// waterfall for the same nonce, so the two outputs diff cleanly.
fn trace(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(ROUTER_FLAGS)?;
    let raw = args
        .positional()
        .get(2)
        .ok_or_else(|| CliError("usage: psketch cluster trace NONCE (--map|--addrs)".into()))?;
    let nonce = parse_nonce(raw)?;
    let mut router = router(args, load_map(args)?)?;
    let (traces, outages) = router.trace(nonce).map_err(err)?;
    let mut found = 0usize;
    for (shard, tree) in &traces {
        match tree {
            Some(tree) => {
                found += 1;
                println!("shard {shard}: trace {}", psketch_obs::trace_hex(nonce));
                print!("{}", psketch_obs::render_waterfall(tree));
            }
            None => println!(
                "shard {shard}: no trace for {}",
                psketch_obs::trace_hex(nonce)
            ),
        }
    }
    for outage in &outages {
        eprintln!("  shard {}: {}", outage.shard, outage.error);
    }
    if found == 0 {
        return Err(CliError(format!(
            "no shard holds a trace for {} (rings keep the most recent {} profiled \
             queries; was the query run with --explain?)",
            psketch_obs::trace_hex(nonce),
            psketch_obs::span::RING_CAPACITY
        )));
    }
    Ok(())
}

/// Renders a cluster-merged metrics snapshot: every counter, then each
/// histogram's standard rollup (count/p50/p90/p99/max). Quantiles are
/// log₂-bucket upper bounds, exact maxima are exact.
fn print_merged_metrics(snapshot: &psketch_obs::RegistrySnapshot, missing: usize) {
    if missing > 0 {
        println!("metrics: merged over responding shards only ({missing} missing)");
    }
    for (id, value) in &snapshot.counters {
        println!("  counter {} = {value}", id.render());
    }
    for (id, value) in &snapshot.gauges {
        println!("  gauge {} = {value} (max over shards)", id.render());
    }
    for (id, hist) in &snapshot.histograms {
        let s = hist.summary();
        println!(
            "  hist {} count {} p50 {} p90 {} p99 {} max {}",
            id.render(),
            s.count,
            s.p50,
            s.p90,
            s.p99,
            s.max
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psketch_core::{BitSubset, UserId};
    use psketch_prf::GlobalKey;
    use psketch_protocol::{Announcement, AnnouncementBuilder};
    use std::net::{Shutdown, TcpListener};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(&tokens.iter().map(ToString::to_string).collect::<Vec<_>>()).unwrap()
    }

    fn test_announcement() -> Announcement {
        AnnouncementBuilder::new(9, 0.45, 5_000, 1e-6)
            .global_key(*GlobalKey::from_seed(2).as_bytes())
            .subset(BitSubset::single(0))
            .subset(BitSubset::single(1))
            .subset(BitSubset::range(0, 2))
            .build()
            .unwrap()
    }

    fn start_shard(ann: &Announcement, shard_id: u32, shards: u32) -> Server {
        Server::start(
            "127.0.0.1:0",
            ann.clone(),
            ServerConfig {
                workers: 2,
                shard: Some(ShardIdentity {
                    shard_id,
                    shard_count: shards,
                }),
                ..ServerConfig::default()
            },
        )
        .unwrap()
    }

    fn start_test_cluster(shards: u32) -> (Vec<Server>, String) {
        let ann = test_announcement();
        let servers: Vec<Server> = (0..shards)
            .map(|shard_id| start_shard(&ann, shard_id, shards))
            .collect();
        let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
        (servers, addrs.join(","))
    }

    /// A scripted shard node: answers `Hello` with `identity`,
    /// `FetchAnnouncement` with `ann`, and acks every `SubmitBatch` in
    /// full — except that the first connection to send `cut_after`
    /// acks closes there. Returns its address and the number of
    /// submissions it acked.
    fn scripted_node(
        ann: Announcement,
        identity: ShardIdentity,
        cut_after: usize,
    ) -> (String, Arc<AtomicU64>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let acked = Arc::new(AtomicU64::new(0));
        let cut = Arc::new(AtomicBool::new(false));
        let total = Arc::clone(&acked);
        std::thread::spawn(move || {
            for mut stream in listener.incoming().map_while(Result::ok) {
                let (ann, total, cut) = (ann.clone(), Arc::clone(&total), Arc::clone(&cut));
                std::thread::spawn(move || {
                    let mut acks = 0;
                    while let Ok(Some(frame)) = wire::read_frame(&mut stream) {
                        let response = match wire::Request::decode(&frame).unwrap() {
                            wire::Request::Hello => wire::Response::Hello {
                                shard: Some(identity),
                            },
                            wire::Request::FetchAnnouncement => {
                                wire::Response::Announcement(ann.clone())
                            }
                            wire::Request::SubmitBatch(batch) => {
                                acks += 1;
                                // ord: a test tally, read after the command returns.
                                total.fetch_add(batch.len() as u64, Ordering::SeqCst);
                                wire::Response::SubmitAck {
                                    accepted: batch.len() as u64,
                                    rejected: 0,
                                }
                            }
                            other => panic!("scripted node got {other:?}"),
                        };
                        if wire::write_frame(&mut stream, &response.encode()).is_err() {
                            return;
                        }
                        // ord: one flag, nothing published through it.
                        if acks == cut_after && !cut.swap(true, Ordering::SeqCst) {
                            // Read until the peer hangs up: closing with
                            // unread bytes would reset the connection.
                            let _ = stream.shutdown(Shutdown::Write);
                            while let Ok(Some(_)) = wire::read_frame(&mut stream) {}
                            return;
                        }
                    }
                });
            }
        });
        (addr, acked)
    }

    #[test]
    fn cluster_submit_retries_a_shard_that_drops_mid_stream() {
        // Shard 1 closes its first connection after two acks. With
        // --retries 1 the stream resumes on a fresh connection and every
        // user lands.
        let ann = test_announcement();
        let shard0 = start_shard(&ann, 0, 2);
        let identity = ShardIdentity {
            shard_id: 1,
            shard_count: 2,
        };
        let (fake, acked) = scripted_node(ann, identity, 2);
        let addrs = format!("{},{fake}", shard0.local_addr());
        submit(&parse(&[
            "cluster",
            "submit",
            "--addrs",
            &addrs,
            "--users",
            "300",
            "--batch",
            "20",
            "--retries",
            "1",
        ]))
        .unwrap();
        // ord: read after the command returned.
        let acked = acked.load(Ordering::SeqCst);
        assert!(acked > 40, "shard 1 acked only {acked}");
        assert_eq!(shard0.coordinator().stats().accepted + acked, 300);
        shard0.shutdown();
    }

    #[test]
    fn cluster_submit_reports_a_shard_that_stays_down() {
        let ann = test_announcement();
        let shard0 = start_shard(&ann, 0, 2);
        // Bound, then dropped: nothing listens there.
        let dead = TcpListener::bind("127.0.0.1:0").unwrap().local_addr();
        let dead = dead.unwrap().to_string();
        let addrs = format!("{},{dead}", shard0.local_addr());
        let error = submit(&parse(&[
            "cluster",
            "submit",
            "--addrs",
            &addrs,
            "--users",
            "300",
            "--retries",
            "1",
            "--timeout",
            "2",
        ]))
        .unwrap_err();
        assert!(error.0.contains("partial ingest"), "{}", error.0);
        let map = ShardMap::new(0, addrs.split(',')).unwrap();
        let share = (0..300).filter(|&i| map.shard_of(UserId(i)) == 0).count();
        assert_eq!(shard0.coordinator().stats().accepted, share as u64);
        shard0.shutdown();
    }

    #[test]
    fn map_loading_and_validation() {
        let args = parse(&["cluster", "status"]);
        assert!(load_map(&args).is_err()); // neither --map nor --addrs
        let args = parse(&["cluster", "status", "--addrs", "a:1,b:2,c:3"]);
        let map = load_map(&args).unwrap();
        assert_eq!(map.len(), 3);
        assert_eq!(map.addr_of(1), "b:2");
        let args = parse(&["cluster", "status", "--map", "/nonexistent/map.json"]);
        assert!(load_map(&args).is_err());
    }

    #[test]
    fn unknown_subcommands_and_flags_rejected() {
        assert!(cluster(&parse(&["cluster"])).is_err());
        assert!(cluster(&parse(&["cluster", "bogus"])).is_err());
        assert!(cluster(&parse(&["cluster", "query"])).is_err());
        assert!(cluster(&parse(&["cluster", "query", "bogus", "--addrs", "a:1"])).is_err());
        assert!(cluster(&parse(&["cluster", "serve", "--shards", "0"])).is_err());
        assert!(cluster(&parse(&[
            "cluster", "submit", "--bogus", "1", "--addrs", "a:1"
        ]))
        .is_err());
    }

    #[test]
    fn end_to_end_cluster_cli_against_in_process_nodes() {
        let (servers, addrs) = start_test_cluster(3);
        submit(&parse(&[
            "cluster", "submit", "--addrs", &addrs, "--users", "300", "--batch", "100",
        ]))
        .unwrap();
        // Duplicates rejected through the cluster path too.
        assert!(submit(&parse(&[
            "cluster", "submit", "--addrs", &addrs, "--users", "10",
        ]))
        .is_err());
        query(&parse(&[
            "cluster", "query", "conj", "--addrs", &addrs, "--subset", "0,1", "--value", "10",
        ]))
        .unwrap();
        query(&parse(&[
            "cluster", "query", "dist", "--addrs", &addrs, "--subset", "0,1",
        ]))
        .unwrap();
        // Plan-backed families against the live cluster.
        query(&parse(&[
            "cluster", "query", "mean", "--addrs", &addrs, "--field", "0:2",
        ]))
        .unwrap();
        query(&parse(&[
            "cluster", "query", "interval", "--addrs", &addrs, "--field", "0:2", "--le", "1",
        ]))
        .unwrap();
        query(&parse(&[
            "cluster",
            "query",
            "dnf",
            "--addrs",
            &addrs,
            "--clauses",
            "0=1;1=1",
        ]))
        .unwrap();
        query(&parse(&[
            "cluster",
            "query",
            "tree",
            "--addrs",
            &addrs,
            "--tree",
            "0?(1?1:0):0",
        ]))
        .unwrap();
        query(&parse(&[
            "cluster", "query", "mean", "--addrs", &addrs, "--field", "0:2", "--json",
        ]))
        .unwrap();
        // The sequential-oracle fanout and a bounded fanout both serve.
        query(&parse(&[
            "cluster", "query", "conj", "--addrs", &addrs, "--subset", "0,1", "--value", "10",
            "--fanout", "1",
        ]))
        .unwrap();
        query(&parse(&[
            "cluster", "query", "conj", "--addrs", &addrs, "--subset", "0,1", "--value", "10",
            "--fanout", "2",
        ]))
        .unwrap();
        query(&parse(&["cluster", "query", "ping", "--addrs", &addrs])).unwrap();
        status(&parse(&["cluster", "status", "--addrs", &addrs])).unwrap();

        // Kill one node: ping degrades to an error, queries stay
        // answerable and status shows the outage.
        let mut servers = servers;
        servers.remove(1).shutdown();
        let fast = format!("--addrs {addrs} --timeout 2 --retries 0");
        let fast: Vec<&str> = fast.split(' ').collect();
        let mut ping_args = vec!["cluster", "query", "ping"];
        ping_args.extend(&fast);
        assert!(query(&parse(&ping_args)).is_err());
        let mut conj_args = vec![
            "cluster", "query", "conj", "--subset", "0,1", "--value", "11",
        ];
        conj_args.extend(&fast);
        query(&parse(&conj_args)).unwrap();
        let mut status_args = vec!["cluster", "status"];
        status_args.extend(&fast);
        status(&parse(&status_args)).unwrap();
        for server in servers {
            server.shutdown();
        }
    }

    #[test]
    fn nonce_parsing_accepts_decimal_and_hex() {
        assert_eq!(parse_nonce("42").unwrap(), 42);
        assert_eq!(parse_nonce("0x2a").unwrap(), 42);
        assert_eq!(parse_nonce("0X2A").unwrap(), 42);
        assert_eq!(
            parse_nonce("0x00000000000000ff").unwrap(),
            255,
            "the fixed-width form printed by --explain parses back"
        );
        assert!(parse_nonce("nope").is_err());
        assert!(parse_nonce("0x").is_err());
    }

    #[test]
    fn explained_plan_stitches_one_subtree_per_shard() {
        let (servers, addrs) = start_test_cluster(3);
        submit(&parse(&[
            "cluster", "submit", "--addrs", &addrs, "--users", "120", "--batch", "60",
        ]))
        .unwrap();
        let args = parse(&[
            "cluster", "query", "mean", "--addrs", &addrs, "--field", "0:2",
        ]);
        let plan = crate::families::family_plan("mean", &args).unwrap();
        let mut router = router(&args, load_map(&args).unwrap()).unwrap();

        let explained = router.explain_plan(&plan).unwrap();
        assert_eq!(explained.trace.name, "router:plan");
        assert!(explained.trace.find("router:scatter").is_some());
        assert!(explained.trace.find("router:merge").is_some());
        for shard in 0..3u32 {
            let wrapper = explained
                .trace
                .find(&format!("shard:{shard}"))
                .unwrap_or_else(|| panic!("waterfall is missing shard {shard}"));
            // Each wrapper holds exactly the shard-local subtree, whose
            // root names the server-side handler.
            assert_eq!(wrapper.children.len(), 1);
            assert_eq!(wrapper.children[0].name, "shard:partial_counts");
            assert!(wrapper.children[0].find("engine:count_terms").is_some());
            // The wrapper times dispatch → result, which encloses the
            // shard's own handling: it is never shorter than its child.
            assert!(
                wrapper.duration_ns >= wrapper.children[0].duration_ns,
                "shard {shard} wrapper {}ns under its subtree {}ns",
                wrapper.duration_ns,
                wrapper.children[0].duration_ns
            );
        }

        // Profiling must not perturb the estimate: the plain path and
        // the explained path agree to the bit.
        let plain = router.execute_plan(&plan).unwrap();
        assert_eq!(plain.outputs.len(), explained.answer.outputs.len());
        for (a, b) in plain.outputs.iter().zip(&explained.answer.outputs) {
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }

        // The same nonce is fetchable from every shard's trace ring.
        let (traces, outages) = router.trace(explained.nonce).unwrap();
        assert!(outages.is_empty());
        assert_eq!(traces.len(), 3);
        for (shard, tree) in &traces {
            let tree = tree
                .as_ref()
                .unwrap_or_else(|| panic!("shard {shard} lost the trace"));
            assert_eq!(tree.name, "shard:partial_counts");
        }

        // The CLI faces of both paths run end to end.
        query(&parse(&[
            "cluster",
            "query",
            "mean",
            "--addrs",
            &addrs,
            "--field",
            "0:2",
            "--explain",
        ]))
        .unwrap();
        let nonce_arg = psketch_obs::trace_hex(explained.nonce);
        trace(&parse(&["cluster", "trace", &nonce_arg, "--addrs", &addrs])).unwrap();
        // --json and --explain are mutually exclusive; unknown nonces fail.
        assert!(query(&parse(&[
            "cluster",
            "query",
            "mean",
            "--addrs",
            &addrs,
            "--field",
            "0:2",
            "--explain",
            "--json",
        ]))
        .is_err());
        assert!(trace(&parse(&[
            "cluster",
            "trace",
            "0xdeadbeef",
            "--addrs",
            &addrs
        ]))
        .is_err());
        for server in servers {
            server.shutdown();
        }
    }

    #[test]
    fn map_file_roundtrip_through_query() {
        let (servers, addrs) = start_test_cluster(2);
        let map = ShardMap::new(3, addrs.split(',')).unwrap();
        let path =
            std::env::temp_dir().join(format!("psketch-cli-map-{}.json", std::process::id()));
        std::fs::write(&path, map.to_json()).unwrap();
        let path_str = path.to_str().unwrap();
        query(&parse(&["cluster", "query", "ping", "--map", path_str])).unwrap();
        let _ = std::fs::remove_file(&path);
        for server in servers {
            server.shutdown();
        }
    }
}
