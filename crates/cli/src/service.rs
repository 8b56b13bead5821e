//! The `serve`, `submit` and `query` subcommands: the CLI face of the
//! networked sketch-pool service.
//!
//! ```text
//! psketch serve  [--addr 127.0.0.1:7171] [--db-id 1] [--users 100000]
//!                [--tau 1e-6] [--p 0.3] [--width 2] [--key-seed 7]
//!                [--workers 8] [--wal DIR] [--compact-bytes 67108864]
//!                [--lanes 0] [--budget EPS]
//!     Publish an announcement and serve the pool over TCP. With --wal,
//!     every accepted batch is fsync'd to DIR before it is acknowledged
//!     and the pool is recovered from DIR on restart. With --budget,
//!     refuse to start when the announcement costs each user more than
//!     EPS (Corollary 3.4: one release per announced subset).
//!
//! psketch submit [--addr …] [--users 1000] [--seed 1] [--id-base 0]
//!                [--batch 500] [--timeout 10]
//!     Simulate N user agents: fetch the announcement, sketch synthetic
//!     profiles with seeded randomness, submit in --batch-sized chunks.
//!     This is `psketch cluster submit` over a 1-shard map holding the
//!     `--addr` node, so it prints the same per-shard row and summary.
//!
//! psketch query conj  --subset 0,1 --value 10 [--addr …] [--timeout 10]
//! psketch query dist  --subset 0,1            [--addr …]
//! psketch query mean|interval|dnf|tree|moment [family flags] [--addr …]
//! psketch query stats                         [--addr …]
//! psketch query ping                          [--addr …]
//!     Analyst queries against a running server. The query families are
//!     `psketch cluster query` over a 1-shard map holding the `--addr`
//!     node: the same plan, the same merge, the same output. `stats`
//!     also prints the per-user ε the server's announcement costs.
//! ```
//!
//! Every failure (unreachable server, bad flags, server-side error
//! frame) is reported on stderr with a non-zero exit code — these
//! commands are meant to be scripted.

use crate::args::{Args, CliError};
use psketch_cluster::ShardMap;
use psketch_core::{theory, BitString, BitSubset, Profile, UserId};
use psketch_prf::{GlobalKey, Prg};
use psketch_protocol::{Announcement, AnnouncementBuilder, Submission, UserAgent};
use psketch_server::wal::WalConfig;
use psketch_server::{Client, Server, ServerConfig};
use rand::RngExt;
use std::time::Duration;

/// Default service address shared by all three subcommands.
const DEFAULT_ADDR: &str = "127.0.0.1:7171";

fn err(e: impl std::fmt::Display) -> CliError {
    CliError(e.to_string())
}

fn connect(args: &Args) -> Result<Client, CliError> {
    let addr: String = args.get_or("addr", DEFAULT_ADDR.to_string())?;
    let timeout: f64 = args.get_or("timeout", 10.0)?;
    if !timeout.is_finite() || timeout <= 0.0 {
        return Err(CliError(format!("--timeout {timeout} must be positive")));
    }
    Client::connect(addr.as_str(), Duration::from_secs_f64(timeout))
        .map_err(|e| CliError(format!("cannot reach server at {addr}: {e}")))
}

/// `psketch serve`: announce and serve until killed.
pub fn serve(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&[
        "addr",
        "db-id",
        "users",
        "tau",
        "p",
        "width",
        "key-seed",
        "workers",
        "wal",
        "compact-bytes",
        "shard",
        "budget",
        "lanes",
        "metrics-addr",
        "slow-query-ms",
        "no-metrics",
    ])?;
    let addr: String = args.get_or("addr", DEFAULT_ADDR.to_string())?;
    let announcement = build_announcement(args)?;
    let workers: usize = args.get_or("workers", 8)?;
    configure_lanes(args)?;
    let wal = match args.get_or("wal", String::new())? {
        dir if dir.is_empty() => None,
        dir => {
            let mut config = WalConfig::new(dir);
            config.compact_threshold_bytes =
                args.get_or("compact-bytes", config.compact_threshold_bytes)?;
            Some(config)
        }
    };
    let durable = wal.is_some();
    let shard = match args.get_or("shard", String::new())? {
        raw if raw.is_empty() => None,
        raw => Some(parse_shard(&raw)?),
    };
    let user_epsilon_budget = match args.get_or("budget", f64::NAN)? {
        eps if eps.is_nan() => None,
        eps => Some(eps),
    };
    let (metrics_addr, slow_query_ms) = configure_observability(args)?;
    let metrics_display = metrics_addr.clone();

    let server = Server::start(
        addr.as_str(),
        announcement,
        ServerConfig {
            workers,
            wal,
            shard,
            user_epsilon_budget,
            metrics_addr,
            slow_query_ms,
        },
    )
    .map_err(|e| CliError(format!("cannot serve on {addr}: {e}")))?;
    let ann = server.coordinator().announcement();
    warn_if_weak_privacy(ann);
    println!(
        "announcement: db {} | p = {} | {} bits/sketch | {} subsets | eps = {:.4}/user",
        ann.database_id,
        ann.p,
        ann.sketch_bits,
        ann.subsets.len(),
        ann.epsilon_cost()
    );
    println!(
        "recovered: {} submissions, {} records",
        server.coordinator().stats().accepted,
        server.coordinator().stats().records
    );
    if let Some(identity) = shard {
        println!("shard: {identity}");
    }
    println!(
        "listening on {} ({} workers, {} PRF lanes, wal {})",
        server.local_addr(),
        workers.max(1),
        psketch_core::lane_width(),
        if durable { "on" } else { "off" }
    );
    if let Some(maddr) = &metrics_display {
        println!("metrics: http://{maddr}/metrics");
    }
    // Make the readiness lines visible to process supervisors
    // immediately (CI smoke tests wait for them).
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    // Serve until the process is killed; the worker threads carry the
    // actual traffic.
    loop {
        std::thread::park();
    }
}

/// Logs a WARN when `ann` costs each user more than ε = 1 (Corollary
/// 3.4), naming `theory::p_for_epsilon(1.0, L)` — the corollary's `p`
/// for ε = 1 over the same `L` sketches — and the exact ε at that `p`
/// (the corollary's last step is first order, so it is a little over 1).
/// The defaults (`--p 0.3`, `--width 2`) cost about 26044. Shared by
/// `serve` and `cluster serve`.
pub fn warn_if_weak_privacy(ann: &Announcement) {
    let epsilon = ann.epsilon_cost();
    if epsilon <= 1.0 {
        return;
    }
    let sketches = u32::try_from(ann.subsets.len()).unwrap_or(u32::MAX).max(1);
    let p_for_one = theory::p_for_epsilon(1.0, sketches);
    psketch_obs::log::warn("psketch::privacy")
        .field("eps_per_user", format!("{epsilon:.4}"))
        .field("p", ann.p)
        .field("sketches", sketches)
        .field("p_for_epsilon_1", format!("{p_for_one:.4}"))
        .field(
            "eps_at_that_p",
            format!("{:.4}", theory::epsilon_for(p_for_one, sketches)),
        )
        .emit("the announcement costs each user more than eps = 1; theory::p_for_epsilon(1.0, L) gives the p for eps = 1");
}

/// Applies `--lanes N` (0 = auto-probe the CPU, 1 = scalar reference
/// loop, 4/8 = that many interleaved SipHash streams per scan step).
/// Shared by `serve` and `cluster serve`; answers are bit-identical at
/// every width, so this is purely a throughput knob.
pub fn configure_lanes(args: &Args) -> Result<(), CliError> {
    let lanes: usize = args.get_or("lanes", 0)?;
    psketch_core::set_lane_width(lanes).map_err(|e| CliError(format!("--lanes: {e}")))
}

/// Applies the shared observability flags (`serve` and `cluster serve`):
/// `--no-metrics` turns metric recording off process-wide,
/// `--metrics-addr HOST:PORT` starts the Prometheus-text listener, and
/// `--slow-query-ms N` arms the slow-query log (0 = log every query).
/// Returns `(metrics_addr, slow_query_ms)` for [`ServerConfig`].
pub fn configure_observability(args: &Args) -> Result<(Option<String>, Option<u64>), CliError> {
    if args.get_or("no-metrics", false)? {
        psketch_obs::set_enabled(false);
    }
    let metrics_addr = match args.get_or("metrics-addr", String::new())? {
        addr if addr.is_empty() => None,
        addr => Some(addr),
    };
    let slow_query_ms = match args.get_or("slow-query-ms", -1i64)? {
        ms if ms < 0 => None,
        ms => Some(u64::try_from(ms).expect("non-negative by the guard above")),
    };
    Ok((metrics_addr, slow_query_ms))
}

/// Builds the announced sketching plan: every singleton attribute plus
/// the full `width`-bit subset (so both marginal and joint conjunctive
/// queries are answerable).
pub fn build_announcement(args: &Args) -> Result<Announcement, CliError> {
    let db_id: u64 = args.get_or("db-id", 1)?;
    let users: u64 = args.get_or("users", 100_000)?;
    let tau: f64 = args.get_or("tau", 1e-6)?;
    let p: f64 = args.get_or("p", 0.3)?;
    let width: u32 = args.get_or("width", 2)?;
    let key_seed: u64 = args.get_or("key-seed", 7)?;
    if !(p > 0.0 && p < 0.5) {
        return Err(CliError(format!("--p {p} must be in (0, 1/2)")));
    }
    if !(tau > 0.0 && tau < 1.0) {
        return Err(CliError(format!("--tau {tau} must be in (0, 1)")));
    }
    if users == 0 || width == 0 {
        return Err(CliError("--users and --width must be positive".into()));
    }
    if width > 16 {
        return Err(CliError(format!(
            "--width {width} too wide (joint subset capped at 16 bits)"
        )));
    }
    let mut builder = AnnouncementBuilder::new(db_id, p, users, tau)
        .global_key(*GlobalKey::from_seed(key_seed).as_bytes())
        .subsets((0..width).map(BitSubset::single));
    if width > 1 {
        builder = builder.subset(BitSubset::range(0, width));
    }
    builder.build().map_err(err)
}

/// The attribute width a sketching plan covers (highest announced
/// position + 1).
pub fn announced_width(ann: &Announcement) -> usize {
    ann.subsets
        .iter()
        .flat_map(|s| s.positions().iter().copied())
        .max()
        .map_or(1, |max| max as usize + 1)
}

/// Generates synthetic submissions for the given user-id range:
/// profile bit `j` is true w.p. `1/(j+2)`, so marginals differ across
/// attributes and queries have nontrivial answers. Shared by `submit`
/// and `cluster submit` so the two commands simulate the same
/// population.
pub fn synthetic_submissions(
    ann: &Announcement,
    width: usize,
    rng: &mut Prg,
    ids: std::ops::Range<u64>,
) -> Result<Vec<Submission>, CliError> {
    ids.map(|i| {
        let bits: Vec<bool> = (0..width)
            .map(|j| rng.random_bool(1.0 / (j as f64 + 2.0)))
            .collect();
        let mut agent = UserAgent::new(UserId(i), Profile::from_bits(&bits), ann.p, f64::MAX);
        agent.participate(ann, rng).map_err(err)
    })
    .collect()
}

/// `psketch submit`: simulate user agents against a live server — the
/// `cluster submit` code over a 1-shard map of the `--addr` node.
pub fn submit(args: &Args) -> Result<(), CliError> {
    crate::cluster::run_submit(args, &["addr", "timeout"], single_node_map)
}

/// `psketch query <conj|dist|mean|interval|dnf|tree|moment|stats|ping>`:
/// analyst queries against one server. The query families run the
/// `cluster query` code over a 1-shard map of the `--addr` node;
/// `stats` and `ping` talk to it directly.
pub fn query(args: &Args) -> Result<(), CliError> {
    let kind = args
        .positional()
        .get(1)
        .map(String::as_str)
        .ok_or_else(|| {
            CliError(
                "usage: psketch query <conj|dist|mean|interval|dnf|tree|moment|stats|ping> …"
                    .into(),
            )
        })?;
    if crate::cluster::is_query_family(kind) {
        return crate::cluster::run_query(kind, args, &["addr", "timeout"], single_node_map);
    }
    match kind {
        "stats" => {
            args.reject_unknown(&["addr", "timeout"])?;
            let mut client = connect(args)?;
            let stats = client.stats().map_err(err)?;
            println!(
                "accepted {}  duplicates {}  malformed {}  records {}",
                stats.accepted, stats.duplicates, stats.malformed, stats.records
            );
            let ann = client.announcement().map_err(err)?;
            println!("{}", user_epsilon_line(&ann));
        }
        "ping" => {
            args.reject_unknown(&["addr", "timeout"])?;
            let mut client = connect(args)?;
            client.ping().map_err(err)?;
            println!("pong");
        }
        other => {
            return Err(CliError(format!(
                "unknown query kind '{other}' (try conj, dist, mean, interval, dnf, tree, \
                 moment, stats, ping)"
            )));
        }
    }
    Ok(())
}

/// The 1-shard map `query` and `submit` run over: the `--addr` node,
/// standalone.
fn single_node_map(args: &Args) -> Result<ShardMap, CliError> {
    let addr: String = args.get_or("addr", DEFAULT_ADDR.to_string())?;
    ShardMap::new(0, [addr.as_str()]).map_err(err)
}

/// The privacy an announcement costs each user, as `query stats` and
/// `cluster status` print it: Corollary 3.4's ε for one release per
/// announced subset. Estimates are post-processing and add nothing.
pub fn user_epsilon_line(ann: &Announcement) -> String {
    format!(
        "per-user eps = {:.4} ({} sketches/user at p = {})",
        ann.epsilon_cost(),
        ann.subsets.len(),
        ann.p
    )
}

/// Parses a shard identity literal `i/N` (e.g. `0/3`).
pub fn parse_shard(raw: &str) -> Result<psketch_protocol::ShardIdentity, CliError> {
    let err = || CliError(format!("--shard '{raw}' must look like i/N, e.g. 0/3"));
    let (id, count) = raw.split_once('/').ok_or_else(err)?;
    let identity = psketch_protocol::ShardIdentity {
        shard_id: id.trim().parse().map_err(|_| err())?,
        shard_count: count.trim().parse().map_err(|_| err())?,
    };
    if identity.shard_id >= identity.shard_count {
        return Err(CliError(format!(
            "--shard {identity}: shard id must be below the shard count"
        )));
    }
    Ok(identity)
}

/// Parses `0,1,4` into a subset.
pub fn parse_subset(raw: &str) -> Result<BitSubset, CliError> {
    let positions: Vec<u32> = raw
        .split(',')
        .map(|tok| {
            tok.trim()
                .parse::<u32>()
                .map_err(|_| CliError(format!("--subset: cannot parse position '{tok}'")))
        })
        .collect::<Result<_, _>>()?;
    BitSubset::new(positions).map_err(|e| CliError(format!("--subset: {e}")))
}

/// Parses a bit literal like `10` (first character = first subset
/// position) into a value of the given width.
pub fn parse_value(raw: &str, width: usize) -> Result<BitString, CliError> {
    if raw.len() != width {
        return Err(CliError(format!(
            "--value '{raw}' has {} bits, subset has {width}",
            raw.len()
        )));
    }
    let bits: Vec<bool> = raw
        .chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(CliError(format!("--value: '{other}' is not a bit"))),
        })
        .collect::<Result<_, _>>()?;
    Ok(BitString::from_bits(&bits))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(&tokens.iter().map(ToString::to_string).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn subset_and_value_parsing() {
        let s = parse_subset("0, 2,5").unwrap();
        assert_eq!(s.positions(), &[0, 2, 5]);
        assert!(parse_subset("0,x").is_err());
        assert!(parse_subset("0,0").is_err());
        let v = parse_value("101", 3).unwrap();
        assert!(v.get(0) && !v.get(1) && v.get(2));
        assert!(parse_value("10", 3).is_err());
        assert!(parse_value("1a1", 3).is_err());
    }

    #[test]
    fn weak_privacy_announcements_warn_at_startup() {
        let capture = psketch_obs::log::Capture::install();
        let warnings = || {
            capture
                .lines()
                .into_iter()
                .filter(|line| line.contains("target=psketch::privacy"))
                .collect::<Vec<_>>()
        };
        // The defaults: 3 sketches at p = 0.3, eps ≈ 26044 per user.
        let defaults = build_announcement(&parse(&["serve"])).unwrap();
        warn_if_weak_privacy(&defaults);
        let lines = warnings();
        assert_eq!(lines.len(), 1, "{lines:?}");
        let p_for_one = format!("p_for_epsilon_1={:.4}", theory::p_for_epsilon(1.0, 3));
        assert!(lines[0].contains("level=WARN"), "{}", lines[0]);
        assert!(lines[0].contains(&p_for_one), "{}", lines[0]);
        assert!(lines[0].contains("eps_per_user=26043.8238"), "{}", lines[0]);
        // One sketch at p = 0.49 costs about 0.17: no warning.
        let private =
            build_announcement(&parse(&["serve", "--width", "1", "--p", "0.49"])).unwrap();
        assert!(private.epsilon_cost() < 1.0);
        warn_if_weak_privacy(&private);
        assert_eq!(warnings().len(), 1);
    }

    #[test]
    fn connection_failures_are_errors_not_panics() {
        // Nothing listens on a fresh ephemeral port's address; connect
        // must fail fast with a message, not panic.
        let args = parse(&[
            "query",
            "stats",
            "--addr",
            "127.0.0.1:9",
            "--timeout",
            "0.2",
        ]);
        let e = query(&args).unwrap_err();
        assert!(e.0.contains("cannot reach server"), "{e}");
        let args = parse(&["submit", "--addr", "127.0.0.1:9", "--timeout", "0.2"]);
        assert!(submit(&args).is_err());
    }

    #[test]
    fn flag_validation() {
        assert!(query(&parse(&["query"])).is_err());
        assert!(query(&parse(&["query", "bogus"])).is_err());
        assert!(query(&parse(&["query", "conj", "--subset", "0,1"])).is_err()); // missing --value
                                                                                // `query` is a 1-shard `cluster query` but keeps its own flags:
                                                                                // the router and map flags stay `cluster`-only.
        for flag in ["--fanout", "--retries", "--addrs", "--map"] {
            let tokens = ["query", "conj", "--subset", "0", "--value", "1", flag, "1"];
            assert!(query(&parse(&tokens)).is_err(), "{flag} accepted");
        }
        assert!(submit(&parse(&["submit", "--users", "0"])).is_err());
        assert!(submit(&parse(&["submit", "--timeout", "-1"])).is_err());
        assert!(serve(&parse(&["serve", "--p", "0.8"])).is_err());
        assert!(serve(&parse(&["serve", "--width", "0"])).is_err());
        assert!(serve(&parse(&["serve", "--width", "40"])).is_err());
        assert!(serve(&parse(&["serve", "--bogus", "1"])).is_err());
        assert!(serve(&parse(&["serve", "--lanes", "3"])).is_err());
        assert!(serve(&parse(&["serve", "--lanes", "-1"])).is_err());
    }

    #[test]
    fn overwide_dist_is_a_cli_error_not_a_panic() {
        // 17 positions = 2^17 terms, past every node's plan cap. The
        // `dist` parser refuses before compiling or connecting, so no
        // server is needed — for `query` and `cluster query` alike.
        let subset: Vec<String> = (0..17).map(|i| i.to_string()).collect();
        let subset = subset.join(",");
        let e = query(&parse(&[
            "query",
            "dist",
            "--addr",
            "127.0.0.1:9",
            "--subset",
            &subset,
        ]))
        .unwrap_err();
        assert!(e.0.contains("16-bit cap"), "{e}");
        let e = crate::cluster::cluster(&parse(&[
            "cluster",
            "query",
            "dist",
            "--addrs",
            "127.0.0.1:9,127.0.0.1:10",
            "--subset",
            &subset,
        ]))
        .unwrap_err();
        assert!(e.0.contains("16-bit cap"), "{e}");
    }

    #[test]
    fn lanes_flag_configures_the_prf_knob() {
        configure_lanes(&parse(&["serve", "--lanes", "4"])).unwrap();
        assert_eq!(psketch_core::lane_width(), 4);
        // Bad widths are CLI errors and leave the knob untouched.
        let e = configure_lanes(&parse(&["serve", "--lanes", "5"])).unwrap_err();
        assert!(e.0.contains("--lanes"), "{e}");
        assert_eq!(psketch_core::lane_width(), 4);
        // Back to auto-probe (the default when the flag is absent).
        configure_lanes(&parse(&["serve"])).unwrap();
        assert_eq!(psketch_core::lane_width(), psketch_core::probe_lane_width());
    }

    #[test]
    fn end_to_end_submit_and_query_through_the_cli_layer() {
        // Drive the real subcommand functions against an in-process
        // server (the CI smoke test does the same via the binary).
        let ann =
            build_announcement(&parse(&["serve", "--users", "5000", "--width", "2"])).unwrap();
        let server = Server::start("127.0.0.1:0", ann, ServerConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        submit(&parse(&[
            "submit", "--addr", &addr, "--users", "400", "--batch", "100",
        ]))
        .unwrap();
        // Duplicate ids rejected → non-zero exit path.
        assert!(submit(&parse(&["submit", "--addr", &addr, "--users", "10"])).is_err());
        // Fresh ids fine.
        submit(&parse(&[
            "submit",
            "--addr",
            &addr,
            "--users",
            "10",
            "--id-base",
            "400",
        ]))
        .unwrap();
        query(&parse(&[
            "query", "conj", "--addr", &addr, "--subset", "0,1", "--value", "10",
        ]))
        .unwrap();
        query(&parse(&[
            "query", "dist", "--addr", &addr, "--subset", "0,1",
        ]))
        .unwrap();
        query(&parse(&[
            "query", "dist", "--addr", &addr, "--subset", "0,1", "--json",
        ]))
        .unwrap();
        query(&parse(&["query", "stats", "--addr", &addr])).unwrap();
        query(&parse(&["query", "ping", "--addr", &addr])).unwrap();
        // Plan-backed families against the live server (width-2 pool:
        // singles {0}, {1} and the pair {0,1} are sketched, which covers
        // means, intervals, DNF and trees over those attributes).
        query(&parse(&[
            "query", "mean", "--addr", &addr, "--field", "0:2",
        ]))
        .unwrap();
        query(&parse(&[
            "query", "interval", "--addr", &addr, "--field", "0:2", "--le", "1",
        ]))
        .unwrap();
        query(&parse(&[
            "query",
            "dnf",
            "--addr",
            &addr,
            "--clauses",
            "0=1;1=1",
        ]))
        .unwrap();
        query(&parse(&[
            "query",
            "tree",
            "--addr",
            &addr,
            "--tree",
            "0?(1?1:0):0",
        ]))
        .unwrap();
        query(&parse(&[
            "query", "moment", "--addr", &addr, "--field", "0:2", "--order", "2",
        ]))
        .unwrap();
        // Machine-readable output flag parses and executes.
        query(&parse(&[
            "query", "mean", "--addr", &addr, "--field", "0:2", "--json",
        ]))
        .unwrap();
        query(&parse(&[
            "query", "conj", "--addr", &addr, "--subset", "0,1", "--value", "10", "--json",
        ]))
        .unwrap();
        // Unknown subset → no records anywhere → CLI error (conj and
        // plan kinds alike).
        assert!(query(&parse(&[
            "query", "conj", "--addr", &addr, "--subset", "7", "--value", "1",
        ]))
        .is_err());
        assert!(query(&parse(&[
            "query", "mean", "--addr", &addr, "--field", "5:2",
        ]))
        .is_err());
        // A different family's flag on a plan kind is rejected, not
        // silently ignored.
        assert!(query(&parse(&[
            "query", "mean", "--addr", &addr, "--field", "0:2", "--le", "1",
        ]))
        .is_err());
        server.shutdown();
    }
}
