//! The four workloads, their sizes, and the inputs generated from the
//! seed before any clock starts: the announcement, the query families,
//! and every user submission the program will be sent.

use psketch_core::{BitString, BitSubset, ConjunctiveQuery, IntField, Profile, UserId};
use psketch_prf::{GlobalKey, Prg};
use psketch_protocol::{Announcement, AnnouncementBuilder, Coordinator, Submission, UserAgent};
use psketch_queries::{mean_plan, sum_lt_plan, LinearAnswer, QueryEngine, TermPlan};
use rand::Rng;
use std::time::{Duration, Instant};

/// Submissions per ingest frame, everywhere: bulk load, trickle, probes.
pub const BATCH: usize = 500;

/// The analyst's round-robin, in order.
pub const FAMILIES: [&str; 4] = ["conj", "mean", "dist", "sumlt"];

const USER_KEY_SALT: u64 = 0x7573_6572_5f6b_6579;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One server, 40k users: client, wire and plan overhead are a large
    /// share of every query.
    Node40k,
    /// One server, 300k users: the scans dominate and are split across
    /// two threads, yet each takes only about a millisecond.
    Node300k,
    /// Three shard servers behind a router, 40k users in total.
    Cluster3x40k,
    /// One WAL-backed server, 500k users, a 10k submissions/s trickle
    /// beside the analyst, then a restart.
    MixedWal,
}

impl Workload {
    pub const ALL: [Self; 4] = [
        Self::Node40k,
        Self::Node300k,
        Self::Cluster3x40k,
        Self::MixedWal,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Self::Node40k => "node_40k",
            Self::Node300k => "node_300k",
            Self::Cluster3x40k => "cluster3_40k",
            Self::MixedWal => "mixed_wal",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn users(self) -> usize {
        match self {
            Self::Node40k | Self::Cluster3x40k => 40_000,
            // Above the estimator's 262,144-record threshold for a
            // two-thread scan. At 1M users the p50s spread about twice
            // as much between runs on a shared host, up to past their
            // bound (README.md).
            Self::Node300k => 300_000,
            Self::MixedWal => 500_000,
        }
    }

    pub fn shards(self) -> u32 {
        match self {
            Self::Cluster3x40k => 3,
            _ => 1,
        }
    }

    pub fn wal(self) -> bool {
        self == Self::MixedWal
    }
}

/// How big and how long one run is.
#[derive(Debug, Clone)]
pub struct Scale {
    pub users: usize,
    /// The measured window.
    pub window: Duration,
    /// Load before the window, excluded from every metric.
    pub warmup: Duration,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Users per trickle batch (`mixed_wal`) and per probe batch.
    pub trickle_batch: usize,
    /// The open-loop submitters' schedule: one batch per period.
    pub trickle_period: Duration,
    /// Batches in the traced run's write and WAL probes.
    pub probe_batches: usize,
    /// Explain queries per family in the single-node router probe.
    pub router_probe_queries: usize,
    /// Minimum time spent on each in-process throughput measurement.
    pub micro_time: Duration,
    /// Requests per family whose spans are written to the trace file.
    pub spans_kept_per_family: usize,
}

impl Scale {
    /// The benchmark proper: full user counts and a `seconds` window.
    pub fn full(workload: Workload, seconds: u64) -> Self {
        Self {
            users: workload.users(),
            window: Duration::from_secs(seconds),
            warmup: Duration::from_secs(2),
            // Set-up takes about 40 ms at 40k users and 0.4–1 s at
            // 300k–500k, so take more samples where they are cheap.
            setup_reps: if workload.users() <= 40_000 { 15 } else { 5 },
            trickle_batch: BATCH,
            trickle_period: Duration::from_millis(50),
            probe_batches: 20,
            router_probe_queries: 8,
            micro_time: Duration::from_millis(200),
            spans_kept_per_family: 8,
        }
    }

    /// Toy scale for the smoke tests: every code path, a few seconds.
    #[cfg(test)]
    pub fn toy() -> Self {
        Self {
            users: 2_000,
            window: Duration::from_secs(1),
            warmup: Duration::from_millis(200),
            setup_reps: 2,
            trickle_batch: 50,
            trickle_period: Duration::from_millis(50),
            probe_batches: 4,
            router_probe_queries: 2,
            micro_time: Duration::from_millis(10),
            spans_kept_per_family: 2,
        }
    }
}

/// One query family: its name and compiled plan.
#[derive(Debug, Clone)]
pub struct Family {
    pub name: &'static str,
    pub plan: TermPlan,
}

/// The analyst's four families over the 4-bit profile `a` = bits 0–1,
/// `b` = bits 2–3.
pub fn families() -> Vec<Family> {
    let a = IntField::new(0, 2);
    let b = IntField::new(2, 2);
    let pair = BitSubset::range(0, 2);
    let conj = ConjunctiveQuery::new(pair.clone(), BitString::from_bits(&[true, true]))
        .expect("a 2-bit value over a 2-bit subset");
    let plans = [
        TermPlan::for_conjunctive(conj),
        mean_plan(&a),
        TermPlan::for_distribution(&pair),
        sum_lt_plan(&a, &b, 2),
    ];
    FAMILIES
        .iter()
        .zip(plans)
        .map(|(&name, plan)| Family { name, plan })
        .collect()
}

/// Everything a run sends the program, generated from the seed.
pub struct Inputs {
    pub announcement: Announcement,
    pub families: Vec<Family>,
    /// The bulk-loaded users.
    pub bulk: Vec<Submission>,
    /// Fresh users for the `mixed_wal` trickle, one batch per period.
    pub trickle: Vec<Vec<Submission>>,
    /// Fresh users for the traced run's write and WAL probes.
    pub probe: Vec<Vec<Submission>>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, scale: &Scale, traced: bool) -> Self {
        let families = families();
        let mut subsets: Vec<BitSubset> = families
            .iter()
            .flat_map(|f| f.plan.required_subsets())
            .collect();
        subsets.sort();
        subsets.dedup();
        let announcement = AnnouncementBuilder::new(seed, 0.3, scale.users as u64, 1e-6)
            .global_key(*GlobalKey::from_seed(seed).as_bytes())
            .subsets(subsets)
            .build()
            .expect("the benchmark announcement is valid");
        // Users draw from a key of their own: the announcement's global
        // key is public, their randomness is not.
        let key = GlobalKey::from_seed(seed ^ USER_KEY_SALT);
        let bulk = submissions(&announcement, &key, 0, scale.users);
        let mut next_id = scale.users as u64;
        let mut batches = |count: usize| -> Vec<Vec<Submission>> {
            let subs = submissions(&announcement, &key, next_id, count * scale.trickle_batch);
            next_id += subs.len() as u64;
            subs.chunks(scale.trickle_batch)
                .map(<[_]>::to_vec)
                .collect()
        };
        let trickle = if workload.wal() {
            // Enough for the whole schedule (warm-up plus one or two
            // windows) with slack; a run that outlasts it fails loudly.
            let span = scale.warmup + scale.window * if traced { 2 } else { 1 };
            batches(span.as_millis().div_ceil(scale.trickle_period.as_millis()) as usize + 4)
        } else {
            Vec::new()
        };
        let probe = if traced {
            batches(scale.probe_batches)
        } else {
            Vec::new()
        };
        Self {
            announcement,
            families,
            bulk,
            trickle,
            probe,
        }
    }
}

/// Submissions for users `first..first + count`. Each user's profile and
/// sketch randomness come from its own PRG stream, so the result does
/// not depend on how the work is split across the two threads.
fn submissions(ann: &Announcement, key: &GlobalKey, first: u64, count: usize) -> Vec<Submission> {
    let make = |id: u64| {
        let mut rng = Prg::from_key_and_stream(key, id);
        let bits = rng.next_u64();
        let profile =
            Profile::from_bits(&[bits & 1 != 0, bits & 2 != 0, bits & 4 != 0, bits & 8 != 0]);
        UserAgent::new(UserId(id), profile, ann.p, f64::MAX)
            .participate(ann, &mut rng)
            .expect("participation cannot fail at these parameters")
    };
    let half = count as u64 / 2;
    std::thread::scope(|scope| {
        let upper = scope.spawn(|| {
            (first + half..first + count as u64)
                .map(&make)
                .collect::<Vec<_>>()
        });
        let mut subs: Vec<Submission> = (first..first + half).map(&make).collect();
        subs.extend(upper.join().expect("generator thread panicked"));
        subs
    })
}

/// The in-process reference: a `Coordinator` fed the same submissions as
/// the program, answering every family through `QueryEngine`.
pub struct Oracle {
    coordinator: Coordinator,
    engine: QueryEngine,
    /// `Coordinator::accept_batch` cost while the oracle was built.
    pub accept_us_per_sub: f64,
}

impl Oracle {
    pub fn build(ann: &Announcement, subs: &[Submission]) -> Self {
        let coordinator = Coordinator::new(ann.clone());
        let started = Instant::now();
        for batch in subs.chunks(BATCH) {
            coordinator.accept_batch(batch);
        }
        let accept_us_per_sub = started.elapsed().as_secs_f64() * 1e6 / subs.len().max(1) as f64;
        let engine = QueryEngine::new(ann.validate().expect("announcement validates"));
        Self {
            coordinator,
            engine,
            accept_us_per_sub,
        }
    }

    /// Feeds further acknowledged batches, in acknowledgement order.
    pub fn absorb(&self, batch: &[Submission]) {
        self.coordinator.accept_batch(batch);
    }

    pub fn engine(&self) -> &QueryEngine {
        &self.engine
    }

    pub fn pool(&self) -> &psketch_core::SketchDb {
        self.coordinator.pool()
    }

    /// Every family's answers over the current pool.
    pub fn answers(&self, families: &[Family]) -> Vec<Vec<LinearAnswer>> {
        families
            .iter()
            .map(|f| {
                self.engine
                    .execute_plan(self.coordinator.pool(), &f.plan)
                    .expect("the oracle pool holds every required subset")
            })
            .collect()
    }
}

/// The answers' exact bit patterns: what every served answer must match.
pub fn bits(answers: &[LinearAnswer]) -> Vec<u64> {
    answers.iter().map(|a| a.value.to_bits()).collect()
}
