//! The system under test, reached only through its public API: a
//! standalone `Server` queried over one `Client`, or shard `Server`s
//! loaded by `parallel_ingest` and queried through a `Router`.

use crate::workload::BATCH;
use psketch_cluster::{parallel_ingest, Router, RouterConfig, ShardMap};
use psketch_core::SketchDb;
use psketch_obs::SpanNode;
use psketch_protocol::{Announcement, ShardIdentity, Submission};
use psketch_queries::TermPlan;
use psketch_server::{next_nonce, Client, PlanStats, Server, ServerConfig, WalConfig};
use std::net::SocketAddr;
use std::path::Path;
use std::time::Duration;

/// Connect, read and write timeout on every connection the benchmark
/// opens; a query that exceeds it counts as failed.
pub const TIMEOUT: Duration = Duration::from_secs(10);

pub enum Target {
    Node {
        // Declared first so it is dropped (and its connection closed)
        // before the server shuts down.
        client: Client,
        server: Server,
    },
    Cluster {
        router: Box<Router>,
        servers: Vec<Server>,
    },
}

/// The program's own span tree for one traced answer.
pub enum Tree {
    /// The server's in-band tree (root `shard:plan`), if it attached one.
    Server(Option<SpanNode>),
    /// The router's stitched tree (root `router:plan`).
    Router(SpanNode),
}

impl Target {
    /// Starts `shards` servers (a standalone one when `shards == 1`,
    /// recovering `wal` when given) and connects to them. Nothing is
    /// loaded yet.
    pub fn start(ann: &Announcement, shards: u32, wal: Option<&Path>) -> Result<Self, String> {
        if shards == 1 {
            let config = ServerConfig {
                wal: wal.map(WalConfig::new),
                ..ServerConfig::default()
            };
            let server = Server::start("127.0.0.1:0", ann.clone(), config)
                .map_err(|e| format!("server start: {e}"))?;
            let client = Client::connect(server.local_addr(), TIMEOUT)
                .map_err(|e| format!("analyst connect: {e}"))?;
            return Ok(Self::Node { client, server });
        }
        let servers = (0..shards)
            .map(|shard_id| {
                let config = ServerConfig {
                    shard: Some(ShardIdentity {
                        shard_id,
                        shard_count: shards,
                    }),
                    ..ServerConfig::default()
                };
                Server::start("127.0.0.1:0", ann.clone(), config)
                    .map_err(|e| format!("shard {shard_id} start: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let map = ShardMap::new(1, servers.iter().map(|s| s.local_addr().to_string()))
            .map_err(|e| format!("shard map: {e}"))?;
        let config = RouterConfig {
            timeout: TIMEOUT,
            ..RouterConfig::default()
        };
        let router = Router::new(map, config).map_err(|e| format!("router: {e}"))?;
        Ok(Self::Cluster {
            router: Box::new(router),
            servers,
        })
    }

    /// Bulk-loads `subs` in [`BATCH`]-submission frames: a closed loop
    /// over the analyst connection on a node, `parallel_ingest` on a
    /// cluster. Every submission must be accepted.
    pub fn load(&mut self, subs: &[Submission]) -> Result<(), String> {
        match self {
            Self::Node { client, .. } => {
                for batch in subs.chunks(BATCH) {
                    submit_all(client, batch)?;
                }
                Ok(())
            }
            Self::Cluster { router, .. } => {
                let report = parallel_ingest(router.map(), subs, TIMEOUT, BATCH);
                let (accepted, rejected) = report.totals()?;
                if accepted != subs.len() as u64 || rejected != 0 {
                    return Err(format!(
                        "cluster ingest accepted {accepted} and rejected {rejected} of {}",
                        subs.len()
                    ));
                }
                Ok(())
            }
        }
    }

    /// Answers one plan; every output's value, in plan order.
    pub fn answer(&mut self, plan: &TermPlan) -> Result<Vec<f64>, String> {
        match self {
            Self::Node { client, server } => {
                let answers =
                    call_reconnecting(client, server.local_addr(), |c| c.execute_plan(plan))?;
                Ok(answers.iter().map(|a| a.value).collect())
            }
            Self::Cluster { router, .. } => {
                let answer = router.execute_plan(plan).map_err(|e| e.to_string())?;
                if !answer.coverage.is_complete() {
                    return Err(format!("degraded answer: {:?}", answer.coverage.missing));
                }
                Ok(answer.outputs.iter().map(|a| a.value).collect())
            }
        }
    }

    /// As [`Target::answer`] through the profiled entry points
    /// (`Client::execute_plan_traced`, `Router::explain_plan`), with the
    /// request id (the wire nonce) and the program's span tree.
    pub fn answer_traced(&mut self, plan: &TermPlan) -> Result<(Vec<f64>, u64, Tree), String> {
        match self {
            Self::Node { client, server } => {
                let nonce = next_nonce();
                let (answers, tree) = call_reconnecting(client, server.local_addr(), |c| {
                    c.execute_plan_traced(nonce, plan)
                })?;
                Ok((
                    answers.iter().map(|a| a.value).collect(),
                    nonce,
                    Tree::Server(tree),
                ))
            }
            Self::Cluster { router, .. } => {
                let explain = router.explain_plan(plan).map_err(|e| e.to_string())?;
                if !explain.answer.coverage.is_complete() {
                    return Err(format!(
                        "degraded answer: {:?}",
                        explain.answer.coverage.missing
                    ));
                }
                let values = explain.answer.outputs.iter().map(|a| a.value).collect();
                Ok((values, explain.nonce, Tree::Router(explain.trace)))
            }
        }
    }

    /// Submits one batch of fresh users; all must be accepted.
    pub fn submit(&mut self, batch: &[Submission]) -> Result<(), String> {
        match self {
            Self::Node { client, .. } => submit_all(client, batch),
            Self::Cluster { router, .. } => {
                let report = router.submit_batch(batch).map_err(|e| e.to_string())?;
                if !report.fully_ingested() || report.accepted != batch.len() as u64 {
                    return Err(format!("cluster submit: {report:?}"));
                }
                Ok(())
            }
        }
    }

    /// The engine's plan counters, summed over every server.
    pub fn plan_stats(&mut self) -> Result<PlanStats, String> {
        match self {
            Self::Node { client, .. } => client
                .server_stats()
                .map(|s| s.plans)
                .map_err(|e| e.to_string()),
            Self::Cluster { router, .. } => router
                .status()
                .map(|s| s.merged_server.plans)
                .map_err(|e| e.to_string()),
        }
    }

    /// The live pool of the (first) server.
    pub fn pool(&self) -> &SketchDb {
        match self {
            Self::Node { server, .. } => server.coordinator().pool(),
            Self::Cluster { servers, .. } => servers[0].coordinator().pool(),
        }
    }

    /// The standalone server's address (`None` on a cluster).
    pub fn node_addr(&self) -> Option<SocketAddr> {
        match self {
            Self::Node { server, .. } => Some(server.local_addr()),
            Self::Cluster { .. } => None,
        }
    }

    /// Closes every connection, then shuts every server down gracefully.
    pub fn shutdown(self) {
        match self {
            Self::Node { client, server } => {
                drop(client);
                server.shutdown();
            }
            Self::Cluster { router, servers } => {
                drop(router);
                for server in servers {
                    server.shutdown();
                }
            }
        }
    }
}

fn submit_all(client: &mut Client, batch: &[Submission]) -> Result<(), String> {
    let ack = client.submit_batch(batch).map_err(|e| e.to_string())?;
    if ack.accepted != batch.len() as u64 || ack.rejected != 0 {
        return Err(format!(
            "batch of {} acked {} accepted, {} rejected",
            batch.len(),
            ack.accepted,
            ack.rejected
        ));
    }
    Ok(())
}

/// Runs `op` on the client; a transport failure poisons a `Client`, so
/// the connection is replaced before the error is reported and the next
/// operation starts clean.
fn call_reconnecting<T>(
    client: &mut Client,
    addr: SocketAddr,
    op: impl FnOnce(&mut Client) -> Result<T, psketch_server::ClientError>,
) -> Result<T, String> {
    op(client).map_err(|e| {
        if !matches!(e, psketch_server::ClientError::Server { .. }) {
            if let Ok(fresh) = Client::connect(addr, TIMEOUT) {
                *client = fresh;
            }
        }
        e.to_string()
    })
}
