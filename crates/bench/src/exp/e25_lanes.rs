//! E25 — PRF lane throughput: the lanes × cores scaling matrix.
//!
//! The multi-lane SipHash evaluator (`psketch_prf::lanes`) advances 4 or
//! 8 interleaved hash streams per instruction sequence; the estimator's
//! scan pool multiplies that across cores. This experiment measures the
//! full matrix — lane width ∈ {1, 4, 8} × worker threads ∈ {1, 2, 4},
//! each cell splitting the scan over its own scoped threads — over the
//! same 1M-record shard scan e20 measures, asserts
//! that every cell produces the *same count* as the scalar reference
//! (lane paths are bit-identical, so this must hold exactly), and writes
//! `BENCH_lanes.json` with the matrix alongside the e20-style baseline
//! fields.
//!
//! A second, single-thread cell runs the fused multi-value scan: all 4
//! values of a 2-bit subset counted in one pass over the columns, at
//! every width, against four one-value scans. Its counts must equal the
//! per-value scalar oracle.
//!
//! A third cell runs the shipping path, `ConjunctiveEstimator::count`
//! at the auto-probed width, over 64k records: large enough that the
//! estimator splits the scan across the scan pool. Its count must equal
//! the scalar oracle.
//!
//! A fourth table is the count-table sweep that sets the pool's
//! `K_MAX`: for subsets of width k = 1..8 it measures the upkeep a count
//! table costs at ingest (one fused pass with all `2^k` values over each
//! 500-record batch, ns per record, at every lane width) and a
//! one-term `count_terms` answer against a `count` scan of the same
//! records. Every k's `count_terms` counts, from a table or a scan, must
//! equal one scalar-width scan per value.
//!
//! In quick mode this doubles as the CI throughput smoke: identity is
//! asserted at every width; in the first two cells the best lane width
//! must not be slower than the scalar loop, and in the pooled cell the
//! shipping path must not be slower than a one-thread lane scan, each
//! beyond a generous noise margin — a catastrophic-regression guard, not
//! a precision benchmark.

use crate::common::Config;
use crate::report::{f, Table};
use psketch_core::{
    set_lane_width, BitString, BitSubset, ConjunctiveEstimator, ConjunctiveQuery, HFunction,
    Profile, SketchDb, SketchParams, Sketcher, UserId, SUPPORTED_LANE_WIDTHS,
};
use std::time::Instant;

const EXP: u64 = 25;

/// Worker-thread counts for the cores dimension of the matrix.
const CORE_STEPS: [usize; 3] = [1, 2, 4];

/// Records in the pooled cell: four times the estimator's parallel
/// threshold, so the shipping path cuts the scan into chunks.
const POOLED_RECORDS: usize = 1 << 16;

/// Widest subset the count-table sweep measures.
const SWEEP_MAX_WIDTH: usize = 8;

/// Records per ingest batch in the upkeep measurement: the benchmark's
/// `mixed_wal` batch size.
const UPKEEP_BATCH: usize = 500;

/// Best observed rate over `reps` runs of `scan` (which returns the
/// satisfying counts, checked against `expected` every time).
fn best_rate<T: PartialEq + std::fmt::Debug>(
    reps: u64,
    records: usize,
    expected: &T,
    mut scan: impl FnMut() -> T,
) -> f64 {
    (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            let ones = scan();
            let rate = records as f64 / start.elapsed().as_secs_f64();
            assert_eq!(&ones, expected, "lane scan diverged from the scalar oracle");
            rate
        })
        .fold(0.0, f64::max)
}

/// Runs E25.
///
/// # Panics
///
/// Panics if any lane/thread combination miscounts, if the best lane
/// width regresses far below the scalar loop, or if `BENCH_lanes.json`
/// cannot be written.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run(cfg: &Config) -> Vec<Table> {
    let m = cfg.m(1_000_000);
    let k = 8usize;
    let params = cfg.params(0.3, 10, EXP);
    let sketcher = Sketcher::new(params);
    let subset = BitSubset::range(0, k as u32);
    let pair = BitSubset::range(0, 2);
    let db = SketchDb::new();
    let mut rng = cfg.rng(EXP, 0);
    for i in 0..m as u64 {
        let profile = Profile::from_bits(&vec![i % 3 == 0; k]);
        for s in [&subset, &pair] {
            let sketch = sketcher
                .sketch(UserId(i), &profile, s, &mut rng)
                .expect("sketching at ell=10 cannot exhaust");
            db.insert(s.clone(), UserId(i), sketch);
        }
    }

    // The raw scan under measurement: PreparedH::count_ones over the
    // snapshot columns — exactly the estimator's inner loop, driven
    // directly so the thread count is ours to choose per cell.
    let value = BitString::from_bits(&vec![true; k]);
    let prepared = HFunction::new(&params).prepare_query(&subset, &value);
    let snapshot = db.snapshot(&subset).expect("populated");
    let (ids, keys) = (snapshot.ids(), snapshot.keys());

    // Scalar oracle count: every matrix cell must reproduce it exactly.
    set_lane_width(1).expect("1 is a supported width");
    let expected = prepared.count_ones(ids, keys);

    let reps = if cfg.quick { 30 } else { cfg.reps(7) };
    let scan_with_threads = |threads: usize| -> usize {
        if threads <= 1 {
            return prepared.count_ones(ids, keys);
        }
        let chunk = ids.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = ids
                .chunks(chunk)
                .zip(keys.chunks(chunk))
                .map(|(ids, keys)| scope.spawn(|| prepared.count_ones(ids, keys)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("count worker panicked"))
                .sum()
        })
    };

    let mut matrix: Vec<(usize, usize, f64)> = Vec::new();
    for &lanes in SUPPORTED_LANE_WIDTHS {
        set_lane_width(lanes).expect("supported width");
        for cores in CORE_STEPS {
            let rate = best_rate(reps, m, &expected, || scan_with_threads(cores));
            matrix.push((lanes, cores, rate));
        }
    }

    // The 4-value cell: every value of a 2-bit subset, fused into one
    // pass, against four one-value scans. Oracle: one scalar-width scan
    // per value.
    let values: Vec<BitString> = (0..4).map(|v| BitString::from_u64(v, 2)).collect();
    let h = HFunction::new(&params);
    let pair_h = h.prepare(&pair, 2);
    let per_value: Vec<_> = values.iter().map(|v| h.prepare_query(&pair, v)).collect();
    let pair_snapshot = db.snapshot(&pair).expect("populated");
    let (pair_ids, pair_keys) = (pair_snapshot.ids(), pair_snapshot.keys());
    set_lane_width(1).expect("1 is a supported width");
    let pair_expected: Vec<usize> = per_value
        .iter()
        .map(|p| p.count_ones(pair_ids, pair_keys))
        .collect();
    // (lanes, fused 4-value rate, four one-value scans' rate), records/s.
    let mut fused: Vec<(usize, f64, f64)> = Vec::new();
    for &lanes in SUPPORTED_LANE_WIDTHS {
        set_lane_width(lanes).expect("supported width");
        let one_pass = best_rate(reps, m, &pair_expected, || {
            pair_h.count_values(pair_ids, pair_keys, &values)
        });
        let four_scans = best_rate(reps, m, &pair_expected, || {
            per_value
                .iter()
                .map(|p| p.count_ones(pair_ids, pair_keys))
                .collect()
        });
        fused.push((lanes, one_pass, four_scans));
    }
    set_lane_width(0).expect("0 restores auto-probing");

    // The pooled cell: the shipping path at 64k records against one
    // thread running the same lane scan.
    let pooled_db = SketchDb::new();
    for i in 0..POOLED_RECORDS as u64 {
        let profile = Profile::from_bits(&vec![i % 3 == 0; k]);
        let sketch = sketcher
            .sketch(UserId(i), &profile, &subset, &mut rng)
            .expect("sketching at ell=10 cannot exhaust");
        pooled_db.insert(subset.clone(), UserId(i), sketch);
    }
    let pooled_snapshot = pooled_db.snapshot(&subset).expect("populated");
    let (pooled_ids, pooled_keys) = (pooled_snapshot.ids(), pooled_snapshot.keys());
    set_lane_width(1).expect("1 is a supported width");
    let pooled_expected = prepared.count_ones(pooled_ids, pooled_keys);
    set_lane_width(0).expect("0 restores auto-probing");
    let estimator = ConjunctiveEstimator::new(params);
    let query = ConjunctiveQuery::new(subset, value).expect("widths match");
    let one_thread_rate = best_rate(reps, POOLED_RECORDS, &pooled_expected, || {
        prepared.count_ones(pooled_ids, pooled_keys)
    });
    let shipping_rate = best_rate(reps, POOLED_RECORDS, &pooled_expected, || {
        let (ones, n) = estimator.count(&pooled_db, &query).expect("populated");
        assert_eq!(n, POOLED_RECORDS as u64);
        usize::try_from(ones).expect("count fits")
    });
    assert!(
        shipping_rate >= 0.8 * one_thread_rate,
        "pooled shipping path regressed below a one-thread lane scan: \
         {shipping_rate:.0} vs {one_thread_rate:.0} records/s"
    );

    // The full estimator path at auto width (continuity with e20's
    // batched figure, and a check that estimates — not just counts —
    // are identical to the scalar-width run).
    let auto_estimate = estimator.estimate(&db, &query).expect("populated");
    set_lane_width(1).expect("supported width");
    let scalar_estimate = estimator.estimate(&db, &query).expect("populated");
    set_lane_width(0).expect("supported width");
    assert_eq!(
        auto_estimate.fraction.to_bits(),
        scalar_estimate.fraction.to_bits(),
        "auto-lane estimate not float-bit-identical to the scalar estimate"
    );
    let estimator_rate = best_rate(reps, m, &expected, || {
        let e = estimator.estimate(&db, &query).expect("populated");
        assert_eq!(e.raw.to_bits(), auto_estimate.raw.to_bits());
        expected
    });

    let cell = |lanes: usize, cores: usize| -> f64 {
        matrix
            .iter()
            .find(|&&(l, c, _)| l == lanes && c == cores)
            .map_or(f64::NAN, |&(_, _, r)| r)
    };
    let scalar_1core = cell(1, 1);
    let (best_lanes, best_1core) = SUPPORTED_LANE_WIDTHS[1..]
        .iter()
        .map(|&l| (l, cell(l, 1)))
        .fold(
            (1, scalar_1core),
            |best, cand| {
                if cand.1 > best.1 {
                    cand
                } else {
                    best
                }
            },
        );
    // CI guard: the lane path must not be slower than the scalar loop.
    // The 0.8 factor absorbs scheduler noise at smoke sizes; a true lane
    // regression shows up as a multiple, not a percentage.
    assert!(
        best_1core >= 0.8 * scalar_1core,
        "lane path regressed below the scalar loop: best {best_1core:.0} vs scalar {scalar_1core:.0} records/s"
    );
    let fused_scalar = fused[0].1;
    let fused_best = fused.iter().map(|&(_, r, _)| r).fold(0.0, f64::max);
    assert!(
        fused_best >= 0.8 * fused_scalar,
        "4-value lane scan regressed below the scalar loop: best {fused_best:.0} vs scalar {fused_scalar:.0} records/s"
    );

    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut t = Table::new(
        format!("E25 — PRF lane throughput at M = {m} (k = {k}, p = 0.3), records/s"),
        &[
            "lanes",
            "1 thread",
            "2 threads",
            "4 threads",
            "speedup (1T)",
        ],
    );
    for &lanes in SUPPORTED_LANE_WIDTHS {
        t.row(vec![
            if lanes == 1 {
                "1 (scalar)".into()
            } else {
                format!("{lanes}")
            },
            f(cell(lanes, 1), 0),
            f(cell(lanes, 2), 0),
            f(cell(lanes, 4), 0),
            format!("{:.2}x", cell(lanes, 1) / scalar_1core),
        ]);
    }
    t.note(format!(
        "host exposes {host_cores} core(s): thread counts above that are \
         oversubscribed on this box and shown for the matrix shape, not as \
         scaling evidence"
    ));
    t.note(format!(
        "auto-probed lane width {} | full estimator path (auto lanes): {} records/s",
        psketch_core::probe_lane_width(),
        f(estimator_rate, 0)
    ));
    let mut values_table = Table::new(
        format!("E25 — all 4 values of a 2-bit subset at M = {m}, 1 thread, records/s"),
        &[
            "lanes",
            "one fused pass",
            "4 one-value scans",
            "fused speedup",
        ],
    );
    for &(lanes, one_pass, four_scans) in &fused {
        values_table.row(vec![
            format!("{lanes}"),
            f(one_pass, 0),
            f(four_scans, 0),
            format!("{:.2}x", one_pass / four_scans),
        ]);
    }
    values_table.note("every width's 4 counts verified equal to the per-value scalar oracle");
    let mut pooled_table = Table::new(
        format!(
            "E25 — shipping path at {POOLED_RECORDS} records, lanes {}, records/s",
            psketch_core::lane_width()
        ),
        &["path", "records/s", "speedup"],
    );
    pooled_table.row(vec![
        "one thread (lane scan)".into(),
        f(one_thread_rate, 0),
        "1.00x".into(),
    ]);
    pooled_table.row(vec![
        "ConjunctiveEstimator::count (scan pool)".into(),
        f(shipping_rate, 0),
        format!("{:.2}x", shipping_rate / one_thread_rate),
    ]);
    pooled_table.note("count verified equal to the scalar oracle");

    let matrix_json: Vec<String> = matrix
        .iter()
        .map(|&(lanes, cores, rate)| {
            format!("{{\"lanes\": {lanes}, \"threads\": {cores}, \"records_per_sec\": {rate:.1}}}")
        })
        .collect();
    let values_json: Vec<String> = fused
        .iter()
        .map(|&(lanes, one_pass, four_scans)| {
            format!(
                "{{\"lanes\": {lanes}, \"values\": 4, \"fused_records_per_sec\": {one_pass:.1}, \
                 \"per_value_scans_records_per_sec\": {four_scans:.1}}}"
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"e25_lanes\",\n  \"records\": {m},\n  \"width\": {k},\n  \"p\": 0.3,\n  \
         \"host_cores\": {host_cores},\n  \
         \"host_cores_note\": \"thread counts above host_cores are oversubscribed on this host\",\n  \
         \"probed_lane_width\": {},\n  \
         \"scalar_records_per_sec\": {scalar_1core:.1},\n  \
         \"batched_records_per_sec\": {estimator_rate:.1},\n  \
         \"best_single_core_records_per_sec\": {best_1core:.1},\n  \
         \"best_single_core_lanes\": {best_lanes},\n  \
         \"lane_speedup_vs_scalar\": {:.3},\n  \
         \"lanes_matrix\": [\n    {}\n  ],\n  \
         \"values_matrix\": [\n    {}\n  ],\n  \
         \"pooled\": {{\"records\": {POOLED_RECORDS}, \
         \"one_thread_records_per_sec\": {one_thread_rate:.1}, \
         \"shipping_records_per_sec\": {shipping_rate:.1}, \
         \"speedup\": {:.3}}}\n}}\n",
        psketch_core::probe_lane_width(),
        best_1core / scalar_1core,
        matrix_json.join(",\n    "),
        values_json.join(",\n    "),
        shipping_rate / one_thread_rate,
    );
    let (tables_table, tables_json) = count_table_sweep(cfg, params, reps);
    let json = json.replace(
        "\n}\n",
        &format!(",\n  \"count_tables\": {tables_json}\n}}\n"),
    );
    if cfg.quick {
        t.note("quick mode: BENCH_lanes.json not written");
    } else {
        std::fs::write("BENCH_lanes.json", json).expect("write BENCH_lanes.json");
        t.note("wrote BENCH_lanes.json");
    }

    vec![t, values_table, pooled_table, tables_table]
}

/// Best wall time of `run` over `reps` runs, in nanoseconds.
fn best_ns(reps: u64, mut run: impl FnMut()) -> f64 {
    (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed().as_secs_f64() * 1e9
        })
        .fold(f64::INFINITY, f64::min)
}

/// The count-table sweep: per width k, upkeep ns per record at every
/// lane width, and a one-term answer from `count_terms` against a
/// `count` scan, over synthetic columns (tables count any keys, so no
/// sketching is needed). Returns the table and its JSON object.
fn count_table_sweep(cfg: &Config, params: SketchParams, reps: u64) -> (Table, String) {
    let n = if cfg.quick { 1 << 12 } else { 1 << 18 };
    let ids: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
    let keys: Vec<u64> = (0..n as u64).map(|i| (i * 7919) % 1024).collect();
    let db = SketchDb::new().with_count_tables(params);
    let h = HFunction::new(&params);
    let estimator = ConjunctiveEstimator::new(params);
    let mut t = Table::new(
        format!("E25 — count tables over {n} records: upkeep per record and one-term answers"),
        &[
            "k",
            "values",
            "upkeep ns/rec x1",
            "x4",
            "x8",
            "count_terms us",
            "count scan us",
            "tabled",
        ],
    );
    let mut rows = Vec::new();
    for k in 1..=SWEEP_MAX_WIDTH {
        let subset = BitSubset::range(0, k as u32);
        db.insert_columns(subset.clone(), ids.clone(), keys.clone());
        let values: Vec<BitString> = (0..1u64 << k).map(|v| BitString::from_u64(v, k)).collect();
        let prepared = h.prepare(&subset, k);
        let mut upkeep = Vec::new();
        for &lanes in SUPPORTED_LANE_WIDTHS {
            set_lane_width(lanes).expect("supported width");
            let ns = best_ns(reps, || {
                for (ids, keys) in ids.chunks(UPKEEP_BATCH).zip(keys.chunks(UPKEEP_BATCH)) {
                    std::hint::black_box(prepared.count_values(ids, keys, &values));
                }
            });
            upkeep.push((lanes, ns / n as f64));
        }
        // Oracle: one scalar-width scan per value.
        set_lane_width(1).expect("1 is a supported width");
        let oracle: Vec<(u64, u64)> = values
            .iter()
            .map(|v| {
                (
                    h.prepare_query(&subset, v).count_ones(&ids, &keys) as u64,
                    n as u64,
                )
            })
            .collect();
        set_lane_width(0).expect("0 restores auto-probing");
        let terms: Vec<ConjunctiveQuery> = values
            .iter()
            .map(|v| ConjunctiveQuery::new(subset.clone(), v.clone()).expect("widths match"))
            .collect();
        assert_eq!(
            estimator.count_terms(&db, &terms).expect("populated"),
            oracle,
            "k = {k}: count_terms diverged from the scalar scan"
        );
        let tabled = db.count_table(&subset, &params).is_some();
        let term = std::slice::from_ref(&terms[terms.len() - 1]);
        let answer_ns = best_ns(reps, || {
            std::hint::black_box(estimator.count_terms(&db, term).expect("populated"));
        });
        let scan_ns = best_ns(reps, || {
            std::hint::black_box(estimator.count(&db, &term[0]).expect("populated"));
        });
        let cell = |lanes: usize| {
            upkeep
                .iter()
                .find(|&&(l, _)| l == lanes)
                .map_or(f64::NAN, |&(_, ns)| ns)
        };
        t.row(vec![
            format!("{k}"),
            format!("{}", values.len()),
            f(cell(1), 1),
            f(cell(4), 1),
            f(cell(8), 1),
            f(answer_ns / 1e3, 2),
            f(scan_ns / 1e3, 2),
            if tabled { "yes" } else { "no (scan)" }.into(),
        ]);
        let upkeep_json: Vec<String> = upkeep
            .iter()
            .map(|&(lanes, ns)| format!("\"{lanes}\": {ns:.2}"))
            .collect();
        rows.push(format!(
            "{{\"k\": {k}, \"values\": {}, \"upkeep_ns_per_record\": {{{}}}, \
             \"count_terms_us\": {:.3}, \"count_scan_us\": {:.3}, \"tabled\": {tabled}}}",
            values.len(),
            upkeep_json.join(", "),
            answer_ns / 1e3,
            scan_ns / 1e3,
        ));
    }
    t.note(format!(
        "upkeep: one fused pass with all 2^k values over each {UPKEEP_BATCH}-record batch; \
         every k's count_terms counts verified equal to one scalar scan per value"
    ));
    let json = format!(
        "{{\"records\": {n}, \"upkeep_batch\": {UPKEEP_BATCH}, \"rows\": [\n    {}\n  ]}}",
        rows.join(",\n    ")
    );
    (t, json)
}
