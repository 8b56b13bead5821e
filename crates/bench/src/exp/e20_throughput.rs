//! E20 — analyst read-path throughput: scalar vs batched Algorithm 2.
//!
//! The paper's mechanism is built for population scale, so the analyst
//! pipeline must sustain shard scans over millions of sketches. This
//! experiment measures queries/second of the pre-refactor scalar path
//! (one input encoding and allocation per record) against the columnar
//! batched pipeline (snapshot + template splicing + batch PRF), plus the
//! one-pass distribution scan against 2^k independent scans.
//!
//! A crossover sweep times the shipping path — `ConjunctiveEstimator::
//! count` for one value, `count_terms` for six values of one subset,
//! which cut scans of at least `PARALLEL_THRESHOLD` record·values into
//! chunks shared with the scan pool — against one thread running
//! `PreparedH::count_values` over the same columns, at 8k–1M records.
//! Every cell asserts equal counts; the smallest size at which the
//! shipping path is no slower is where the threshold belongs.
//!
//! Besides the printed tables it emits `BENCH_throughput.json` in the
//! working directory so the numbers accumulate a performance trajectory
//! across revisions.

use crate::common::Config;
use crate::report::{f, Table};
use psketch_core::{
    BitString, BitSubset, ConjunctiveEstimator, ConjunctiveQuery, HFunction, Profile, SketchDb,
    Sketcher, UserId,
};
use std::time::{Duration, Instant};

const EXP: u64 = 20;

/// Record counts of the crossover sweep (8k … 256k, then 1M).
const SWEEP_RECORDS: [usize; 7] = [
    1 << 13,
    1 << 14,
    1 << 15,
    1 << 16,
    1 << 17,
    1 << 18,
    1_000_000,
];

/// Values counted per scan in the sweep: a conjunction, and the six
/// values of a `sumlt`-shaped plan on one subset.
const SWEEP_VALUES: [usize; 2] = [1, 6];

/// One sweep cell: median one-thread and shipping-path scan times.
struct Crossover {
    records: usize,
    values: usize,
    single: Duration,
    shipping: Duration,
}

impl Crossover {
    /// How many times faster the shipping path is than one thread.
    fn speedup(&self) -> f64 {
        self.single.as_secs_f64() / self.shipping.as_secs_f64()
    }
}

/// Median of `times`.
fn median(mut times: Vec<Duration>) -> Duration {
    times.sort_unstable();
    times[times.len() / 2]
}

/// Repetitions for one timing sample (the shard scan is measured
/// `reps` times and the best rate is reported, minimizing scheduler
/// noise).
fn best_rate(reps: u64, records: usize, mut scan: impl FnMut()) -> f64 {
    (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            scan();
            records as f64 / start.elapsed().as_secs_f64()
        })
        .fold(0.0, f64::max)
}

/// Runs E20.
///
/// # Panics
///
/// Panics if `BENCH_throughput.json` cannot be written.
#[must_use]
pub fn run(cfg: &Config) -> Vec<Table> {
    let m = cfg.m(1_000_000);
    let k = 8usize;
    let params = cfg.params(0.3, 10, EXP);
    let sketcher = Sketcher::new(params);
    let subset = BitSubset::range(0, k as u32);
    let db = SketchDb::new();
    let mut rng = cfg.rng(EXP, 0);
    for i in 0..m as u64 {
        let profile = Profile::from_bits(&vec![i % 3 == 0; k]);
        let sketch = sketcher
            .sketch(UserId(i), &profile, &subset, &mut rng)
            .expect("sketching at ell=10 cannot exhaust");
        db.insert(subset.clone(), UserId(i), sketch);
    }

    let estimator = ConjunctiveEstimator::new(params);
    let query = ConjunctiveQuery::new(subset.clone(), BitString::from_bits(&vec![true; k]))
        .expect("widths match");
    // Publish the snapshot once so neither contender pays it.
    let warm = estimator.estimate(&db, &query).expect("database populated");
    let reps = cfg.reps(5);

    let scalar_rate = best_rate(reps, m, || {
        let e = estimator.estimate_scalar(&db, &query).expect("populated");
        assert_eq!(e.raw.to_bits(), warm.raw.to_bits(), "scalar diverged");
    });
    let batched_rate = best_rate(reps, m, || {
        let e = estimator.estimate(&db, &query).expect("populated");
        assert_eq!(e.raw.to_bits(), warm.raw.to_bits(), "batched diverged");
    });

    // Distribution scan over a narrower subset (2^4 values), one-pass vs
    // 2^k scalar scans.
    let dist_subset = BitSubset::range(0, 4);
    let dist_m = cfg.m(200_000);
    let dist_db = SketchDb::new();
    for i in 0..dist_m as u64 {
        let profile = Profile::from_bits(&[i % 5 == 0; 4]);
        let sketch = sketcher
            .sketch(UserId(i), &profile, &dist_subset, &mut rng)
            .expect("sketching at ell=10 cannot exhaust");
        dist_db.insert(dist_subset.clone(), UserId(i), sketch);
    }
    let _ = estimator
        .estimate_distribution(&dist_db, &dist_subset)
        .expect("populated");
    let one_pass_rate = best_rate(reps, dist_m, || {
        let _ = estimator
            .estimate_distribution(&dist_db, &dist_subset)
            .expect("populated");
    });
    let per_value_rate = best_rate(reps, dist_m, || {
        for value in 0..16u64 {
            let q = ConjunctiveQuery::new(dist_subset.clone(), BitString::from_u64(value, 4))
                .expect("widths match");
            let _ = estimator.estimate_scalar(&dist_db, &q).expect("populated");
        }
    });

    let sweep = crossover_sweep(cfg, &sketcher, &subset, &db, m);

    let speedup = batched_rate / scalar_rate;
    let mut t = Table::new(
        format!("E20 — Algorithm 2 throughput at M = {m} (k = {k}, p = 0.3)"),
        &["path", "records/s", "queries/s (1 conj.)", "speedup"],
    );
    t.row(vec![
        "scalar (per-record encode)".into(),
        f(scalar_rate, 0),
        f(scalar_rate / m as f64, 2),
        "1.00x".into(),
    ]);
    t.row(vec![
        "batched (columnar + template)".into(),
        f(batched_rate, 0),
        f(batched_rate / m as f64, 2),
        format!("{speedup:.2}x"),
    ]);
    t.note(format!(
        "full 2^4-value distribution at M = {dist_m}: one-pass {} records/s \
         vs 16 per-value scans {} records/s ({:.2}x)",
        f(one_pass_rate, 0),
        f(per_value_rate, 0),
        one_pass_rate / per_value_rate,
    ));

    let mut sweep_table = Table::new(
        "E20 — crossover: shipping path vs one thread (k = 8, p = 0.3)",
        &[
            "records",
            "values",
            "record·values",
            "one thread (µs)",
            "shipping (µs)",
            "speedup",
        ],
    );
    for cell in &sweep {
        sweep_table.row(vec![
            cell.records.to_string(),
            cell.values.to_string(),
            (cell.records * cell.values).to_string(),
            f(cell.single.as_secs_f64() * 1e6, 1),
            f(cell.shipping.as_secs_f64() * 1e6, 1),
            format!("{:.2}x", cell.speedup()),
        ]);
    }
    let crossover = sweep
        .iter()
        .filter(|c| c.speedup() >= 1.0)
        .map(|c| c.records * c.values)
        .min();
    sweep_table.note(format!(
        "medians of alternating runs, counts asserted equal in every cell; \
         smallest record·values with the shipping path no slower: {}",
        crossover.map_or_else(|| "none".into(), |c| c.to_string())
    ));
    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|c| {
            format!(
                "{{\"records\": {}, \"values\": {}, \"single_thread_us\": {:.1}, \
                 \"shipping_us\": {:.1}, \"speedup\": {:.3}}}",
                c.records,
                c.values,
                c.single.as_secs_f64() * 1e6,
                c.shipping.as_secs_f64() * 1e6,
                c.speedup()
            )
        })
        .collect();

    let json = format!(
        "{{\n  \"experiment\": \"e20_throughput\",\n  \"records\": {m},\n  \"width\": {k},\n  \"p\": 0.3,\n  \
         \"scalar_records_per_sec\": {scalar_rate:.1},\n  \"batched_records_per_sec\": {batched_rate:.1},\n  \
         \"batched_speedup\": {speedup:.3},\n  \"scalar_queries_per_sec\": {:.3},\n  \
         \"batched_queries_per_sec\": {:.3},\n  \"distribution_records\": {dist_m},\n  \
         \"distribution_one_pass_records_per_sec\": {one_pass_rate:.1},\n  \
         \"distribution_per_value_records_per_sec\": {per_value_rate:.1},\n  \
         \"host_cores\": {},\n  \
         \"crossover_smallest_no_slower_record_values\": {},\n  \
         \"crossover_sweep\": [\n    {}\n  ]\n}}\n",
        scalar_rate / m as f64,
        batched_rate / m as f64,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        crossover.map_or_else(|| "null".into(), |c| c.to_string()),
        sweep_json.join(",\n    "),
    );
    if cfg.quick {
        // Quick mode runs tiny populations; don't clobber the committed
        // full-scale trajectory numbers.
        t.note("quick mode: BENCH_throughput.json not written");
    } else {
        std::fs::write("BENCH_throughput.json", json).expect("write BENCH_throughput.json");
        t.note("wrote BENCH_throughput.json");
    }

    vec![t, sweep_table]
}

/// Times every sweep cell. The columns come from `db` (the 1M-record
/// shard) when it is big enough, else from freshly sketched records;
/// quick mode sweeps only the three smallest sizes.
fn crossover_sweep(
    cfg: &Config,
    sketcher: &Sketcher,
    subset: &BitSubset,
    db: &SketchDb,
    m: usize,
) -> Vec<Crossover> {
    let sizes = if cfg.quick {
        &SWEEP_RECORDS[..3]
    } else {
        &SWEEP_RECORDS[..]
    };
    let largest = sizes[sizes.len() - 1];
    let k = subset.len();
    let source = if m >= largest {
        db.snapshot(subset).expect("populated")
    } else {
        let fresh = SketchDb::new();
        let mut rng = cfg.rng(EXP, 1);
        for i in 0..largest as u64 {
            let profile = Profile::from_bits(&vec![i % 3 == 0; k]);
            let sketch = sketcher
                .sketch(UserId(i), &profile, subset, &mut rng)
                .expect("sketching at ell=10 cannot exhaust");
            fresh.insert(subset.clone(), UserId(i), sketch);
        }
        fresh.snapshot(subset).expect("populated")
    };
    let estimator = ConjunctiveEstimator::new(*sketcher.params());
    let prepared = HFunction::new(sketcher.params()).prepare(subset, k);
    let mut cells = Vec::new();
    for &records in sizes {
        let cell_db = SketchDb::new();
        cell_db.insert_columns(
            subset.clone(),
            source.ids()[..records].to_vec(),
            source.keys()[..records].to_vec(),
        );
        let snapshot = cell_db.snapshot(subset).expect("populated");
        let (ids, keys) = (snapshot.ids(), snapshot.keys());
        for values in SWEEP_VALUES {
            let picked: Vec<BitString> = (0..values as u64)
                .map(|v| BitString::from_u64(v * 37 % (1 << k), k))
                .collect();
            let terms: Vec<ConjunctiveQuery> = picked
                .iter()
                .map(|v| ConjunctiveQuery::new(subset.clone(), v.clone()).expect("widths match"))
                .collect();
            let expected: Vec<(u64, u64)> = prepared
                .count_values(ids, keys, &picked)
                .into_iter()
                .map(|ones| (ones as u64, records as u64))
                .collect();
            let shipping = || -> Vec<(u64, u64)> {
                if values == 1 {
                    vec![estimator.count(&cell_db, &terms[0]).expect("populated")]
                } else {
                    estimator.count_terms(&cell_db, &terms).expect("populated")
                }
            };
            // Enough alternating runs for ~0.2 s per contender (a tenth
            // of that in quick mode).
            let budget = if cfg.quick { 1 << 23 } else { 1 << 26 };
            let reps = (budget / (records * values)).clamp(11, 4001);
            let (mut single, mut pooled) = (Vec::new(), Vec::new());
            for _ in 0..reps {
                let start = Instant::now();
                std::hint::black_box(prepared.count_values(ids, keys, &picked));
                single.push(start.elapsed());
                let start = Instant::now();
                let counts = shipping();
                pooled.push(start.elapsed());
                assert_eq!(counts, expected, "shipping path diverged from one thread");
            }
            cells.push(Crossover {
                records,
                values,
                single: median(single),
                shipping: median(pooled),
            });
        }
    }
    cells
}
